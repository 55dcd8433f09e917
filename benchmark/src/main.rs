//! `im-benchmark` — the repository's end-to-end benchmark.
//!
//! ```text
//! im-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!              [--smoke] [--out results.json]
//! im-benchmark compare <a.json> <b.json>
//! im-benchmark catalogue [--table]
//! ```
//!
//! One invocation runs one workload in this process, checks its outputs,
//! prints every metric as `name value unit (n=samples)` and, as the last
//! line of standard output, the one-line JSON result the driver reads:
//! every enforced end-to-end metric with `--trace 0`, every per-layer metric
//! with `--trace 1`. See `benchmark/README.md`.

mod affinity;
mod compare;
mod lab;
mod metrics;
mod ops;
mod report;
mod stats;
mod trace;
mod wire;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{Metric, Tier, END_TO_END, PER_LAYER};
use stats::{median, supports, Samples};
use workloads::{Outcome, Res, Scale, WORKLOADS};

const USAGE: &str = "usage: im-benchmark --workload <name> [--seed N] [--seconds S] \
[--trace 0|1] [--smoke] [--out results.json]\n       im-benchmark compare <a.json> <b.json>\n       im-benchmark catalogue [--table]";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Res<Args> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 7,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|e| format!("--seed: {e}\n{USAGE}"))?;
            }
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}\n{USAGE}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600]\n{USAGE}"));
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}\n{USAGE}")),
                };
            }
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}\n{USAGE}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(parsed)
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Percentile `q` of `samples` in units of `ns_per_unit` nanoseconds. The
/// driver needs a number from every run, so a sample too thin for the
/// ten-beyond rule is still reported — and flagged on standard error.
fn percentile(name: &str, samples: &Samples, q: f64, ns_per_unit: f64) -> Option<Metric> {
    if samples.is_empty() {
        return None;
    }
    if !supports(samples.len(), q) {
        eprintln!(
            "note: {name} rests on {} samples, fewer than the ten-beyond rule asks for p{:.0}",
            samples.len(),
            100.0 * q
        );
    }
    Some(Metric::end_to_end(
        name,
        samples.percentile_ns_unchecked(q) / ns_per_unit,
        samples.len(),
    ))
}

/// Every end-to-end metric this workload reports, enforced ones first.
fn end_to_end_metrics(workload: &str, outcome: &Outcome) -> Res<Vec<Metric>> {
    let r = &outcome.recorder;
    let topk = if workload == "read_remote" {
        &r.topk_hit
    } else {
        &r.topk_miss
    };
    let candidates = [
        Some(Metric::end_to_end(
            "setup_s",
            median(&outcome.setups),
            outcome.setups.len(),
        )),
        Some(Metric::end_to_end(
            "ops_per_s",
            r.attempted as f64 / r.wall.as_secs_f64(),
            r.attempted as usize,
        )),
        Some(Metric::end_to_end("peak_rss_mb", peak_rss_mb()?, 1)),
        Some(Metric::end_to_end(
            "pool_resident_mb",
            outcome.pool_resident_bytes as f64 / 1e6,
            1,
        )),
        percentile("estimate_p50_us", &r.estimate, 0.5, 1e3),
        percentile("estimate_p90_us", &r.estimate, 0.9, 1e3),
        percentile("cycle_p50_ms", &r.cycle, 0.5, 1e6),
        percentile("topk_p50_ms", topk, 0.5, 1e6),
        percentile("gains_p50_ms", &r.gains, 0.5, 1e6),
        percentile("mutate_p50_ms", &r.mutate, 0.5, 1e6),
        percentile("oneshot_trial_p50_ms", &r.trial[0], 0.5, 1e6),
        percentile("snapshot_trial_p50_ms", &r.trial[1], 0.5, 1e6),
        percentile("ris_trial_p50_ms", &r.trial[2], 0.5, 1e6),
    ];
    let reported: Vec<Metric> = candidates.into_iter().flatten().collect();
    // Every metric declared for this workload must have been measured, and
    // nothing undeclared may slip out.
    for spec in END_TO_END {
        let declared = spec.workloads.contains(&workload);
        let emitted = reported.iter().any(|m| m.name == spec.name);
        if declared != emitted {
            return Err(format!(
                "{} is {} for {workload} but was {}",
                spec.name,
                if declared { "declared" } else { "not declared" },
                if emitted { "emitted" } else { "not emitted" }
            ));
        }
    }
    Ok(reported)
}

fn run_workload(
    workload: &str,
    scale: &Scale,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Res<Outcome> {
    match workload {
        "read_remote" => workloads::read_remote(scale, seed, seconds, trace),
        "select_tiered" => workloads::select_tiered(scale, seed, seconds, trace),
        "select_sharded" => workloads::select_sharded(scale, seed, seconds, trace),
        "write_mixed" => workloads::write_mixed(scale, seed, seconds, trace),
        "paper_sweep" => workloads::paper_sweep(scale, seed, seconds, trace),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn run(args: &Args) -> Res<bool> {
    // Everything the run leaves on disk stays under `benchmark/out`,
    // including what the program under test puts in the temp directory.
    let out_dir = workloads::out_dir();
    let tmp = out_dir.join("scratch");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("creating {}: {e}", tmp.display()))?;
    std::env::set_var("TMPDIR", &tmp);

    let cores = affinity::start_cpus();
    assert!(
        workloads::read_connections() <= cores,
        "load generation may not use more threads than the host has cores"
    );
    let scale = if args.smoke {
        workloads::SMOKE
    } else {
        workloads::FULL
    };
    // The traced run is for attribution, not for end-to-end numbers: one
    // set-up, half the seconds, then the per-layer lab.
    let scale = if args.trace {
        Scale { setups: 1, ..scale }
    } else {
        scale
    };
    println!(
        "workload {} seed {} seconds {} trace {} fixture {} ({} vertices, pool {}) cores {cores}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        scale.name,
        scale.nodes,
        scale.pool
    );
    let timed_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let outcome = run_workload(&args.workload, &scale, args.seed, timed_seconds, args.trace)?;
    for note in &outcome.notes {
        println!("check: {note}");
    }
    let end_to_end = end_to_end_metrics(&args.workload, &outcome)?;
    let (attempted, failed) = (outcome.recorder.attempted, outcome.recorder.failed);
    let correct = outcome.correct && failed == 0;

    let (printed, line_metrics, extra) = if args.trace {
        let mut budgets = Vec::new();
        budgets.extend(trace::cycle_budget(&outcome.tracer, &args.workload));
        if args.workload == "read_remote" {
            budgets.extend(trace::remote_estimate_budget(
                &outcome.tracer,
                &args.workload,
            ));
        }
        for budget in &budgets {
            print!("{}", budget.render());
        }
        let trace_path = out_dir.join("trace.json");
        let text = serde_json::to_string(&report::Json(outcome.tracer.to_json(&args.workload)))
            .map_err(|e| e.to_string())?;
        std::fs::write(&trace_path, text)
            .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
        println!(
            "trace: {} spans written to {}",
            outcome.tracer.spans().len(),
            trace_path.display()
        );
        let layers = lab::run(
            &scale,
            args.seed,
            args.seconds,
            outcome.topk_cache_hit_share,
        )?;
        for spec in PER_LAYER {
            if layers.iter().filter(|m| m.name == spec.name).count() != 1 {
                return Err(format!(
                    "per-layer metric {} was not measured exactly once",
                    spec.name
                ));
            }
        }
        if args.workload == "write_mixed" {
            // Where one `mutate_batch` goes, from the lab's layer timings of
            // the same delta stream: maintenance, the engine around it, the log.
            let stage = |label: &str, names: &[&str]| trace::Stage {
                name: label.to_string(),
                per_unit: 1.0,
                p50_us: names
                    .iter()
                    .filter_map(|n| layers.iter().find(|m| m.name == *n))
                    .map(|m| m.value * 1e3)
                    .sum::<f64>()
                    / names.len() as f64,
                samples: 8,
            };
            let budget = trace::Budget {
                workload: args.workload.clone(),
                unit: "mutate_batch".to_string(),
                stages: vec![
                    stage(
                        "imdyn.apply_batch (attr/struct mean)",
                        &["imdyn.apply_batch_attr_ms", "imdyn.apply_batch_struct_ms"],
                    ),
                    stage(
                        "imserve.engine.mutate_overhead",
                        &["imserve.engine.mutate_overhead_ms"],
                    ),
                    stage(
                        "imserve.wal.batch_overhead",
                        &["imserve.wal.batch_overhead_ms"],
                    ),
                ],
                end_to_end_p50_us: outcome.recorder.mutate.percentile_ns_unchecked(0.5) / 1e3,
            };
            print!("{}", budget.render());
            budgets.push(budget);
        }
        let budgets = serde::Value::Array(budgets.iter().map(trace::Budget::to_json).collect());
        (layers.clone(), layers, Some(("stage_budgets", budgets)))
    } else {
        let enforced = end_to_end
            .iter()
            .filter(|m| metrics::end_to_end(&m.name).is_some_and(|s| s.tier == Tier::Enforced))
            .cloned()
            .collect();
        (end_to_end, enforced, None)
    };
    for metric in &printed {
        println!("{}", metric.render());
    }
    println!("ops_attempted {attempted} ops_failed {failed} correct {correct}");
    if let Some(path) = &args.out {
        let mut section = report::section(
            args.seed,
            args.seconds,
            scale.name,
            correct,
            attempted,
            failed,
            &printed,
        );
        if let Some((key, value)) = extra {
            report::upsert(&mut section, key, value);
        }
        report::append_run(path, args.trace, &args.workload, section)?;
    }
    println!(
        "{}",
        report::result_line(correct, attempted.max(1), failed, &line_metrics)
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().is_some_and(|a| a == "compare") {
        match &args[1..] {
            [a, b] => compare::run(a.as_ref(), b.as_ref()).map(|flagged| !flagged),
            _ => Err(USAGE.to_string()),
        }
    } else if args.first().is_some_and(|a| a == "catalogue") {
        // `catalogue` prints BENCHMARK.json; `catalogue --table` the README's
        // per-layer table. Both come from `metrics.rs`, the one vocabulary.
        if args.get(1).is_some_and(|a| a == "--table") {
            print!("{}", metrics::layer_table());
            Ok(true)
        } else {
            serde_json::to_string_pretty(&report::Json(metrics::benchmark_json()))
                .map(|text| {
                    println!("{text}");
                    true
                })
                .map_err(|e| e.to_string())
        }
    } else {
        parse_args(&args).and_then(|args| run(&args))
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("im-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let args = parse_args(&strings(&[
            "--workload",
            "write_mixed",
            "--seed",
            "11",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload, "write_mixed");
        assert_eq!(args.seed, 11);
        assert_eq!(args.seconds, 12.0);
        assert!(args.trace && !args.smoke && args.out.is_none());
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "7"],
            &["--workload", "read_remote", "--trace", "2"],
            &["--workload", "read_remote", "--seconds", "0"],
            &["--workload", "read_remote", "--bogus"],
            &["--workload"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?} was accepted");
        }
    }

    #[test]
    fn load_generation_stays_within_the_host() {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert!(workloads::read_connections() <= cores.max(affinity::start_cpus()));
        assert!(workloads::read_connections() >= 1);
    }

    /// Every workload, at smoke scale, emits exactly the end-to-end metrics
    /// declared for it (`end_to_end_metrics` refuses anything else), passes
    /// its output checks and fails no operation.
    #[test]
    fn every_workload_emits_its_declared_metrics_at_smoke_scale() {
        for workload in WORKLOADS {
            let outcome = run_workload(workload, &workloads::SMOKE, 7, 0.3, false)
                .unwrap_or_else(|e| panic!("{workload}: {e}"));
            assert!(outcome.correct, "{workload}: {:?}", outcome.notes);
            assert_eq!(outcome.recorder.failed, 0, "{workload}");
            let metrics = end_to_end_metrics(workload, &outcome)
                .unwrap_or_else(|e| panic!("{workload}: {e}"));
            for spec in END_TO_END.iter().filter(|s| s.tier == Tier::Enforced) {
                let metric = metrics
                    .iter()
                    .find(|m| m.name == spec.name)
                    .unwrap_or_else(|| panic!("{workload} lacks {}", spec.name));
                assert!(
                    metric.value.is_finite() && metric.value > 0.0,
                    "{workload} {} = {}",
                    spec.name,
                    metric.value
                );
            }
        }
    }

    /// The traced run emits every per-layer metric exactly once.
    #[test]
    fn the_lab_emits_every_per_layer_metric_at_smoke_scale() {
        let layers = lab::run(&workloads::SMOKE, 7, 1.0, None).expect("lab runs");
        for spec in PER_LAYER {
            let found: Vec<&Metric> = layers.iter().filter(|m| m.name == spec.name).collect();
            assert_eq!(found.len(), 1, "{}", spec.name);
            assert!(found[0].value.is_finite(), "{}", spec.name);
        }
        assert_eq!(layers.len(), PER_LAYER.len());
    }
}
