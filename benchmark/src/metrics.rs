//! The metric vocabulary: every name the benchmark prints, with its unit,
//! direction, regression bound and — for per-layer metrics — the end-to-end
//! metric and workload it is predicted to move.
//!
//! `BENCHMARK.json` lists the same names (a test holds the two together).
//! The driver requires every listed end-to-end metric from every workload,
//! so only the metrics all five workloads share are [`Tier::Enforced`]; the
//! per-operation latencies a single workload owns are [`Tier::Reported`]:
//! printed, written to `results.json` and judged by `compare`, but absent
//! from `BENCHMARK.json`.

use serde::Value;

use crate::report::object;
use crate::workloads::{WORKLOADS, WORKLOAD_WHY};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// In `BENCHMARK.json`; reported by every workload.
    Enforced,
    /// Owned by the workloads listed; judged by `compare` only.
    Reported,
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
    pub tier: Tier,
    /// Workloads that report it.
    pub workloads: &'static [&'static str],
}

const SERVING: &[&str] = &[
    "read_remote",
    "select_tiered",
    "select_sharded",
    "write_mixed",
];

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        tier: Tier::Enforced,
        workloads: &WORKLOADS,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        tier: Tier::Enforced,
        workloads: &WORKLOADS,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
        tier: Tier::Enforced,
        workloads: &WORKLOADS,
    },
    EndToEnd {
        name: "pool_resident_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.01,
        tier: Tier::Enforced,
        workloads: &WORKLOADS,
    },
    EndToEnd {
        name: "estimate_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        tier: Tier::Enforced,
        workloads: &WORKLOADS,
    },
    EndToEnd {
        name: "estimate_p90_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        tier: Tier::Reported,
        workloads: &WORKLOADS,
    },
    EndToEnd {
        name: "cycle_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        tier: Tier::Enforced,
        workloads: &WORKLOADS,
    },
    EndToEnd {
        name: "topk_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        tier: Tier::Reported,
        workloads: SERVING,
    },
    EndToEnd {
        name: "gains_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        tier: Tier::Reported,
        workloads: &["select_tiered", "select_sharded"],
    },
    EndToEnd {
        name: "mutate_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        tier: Tier::Reported,
        workloads: &["write_mixed"],
    },
    EndToEnd {
        name: "oneshot_trial_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        tier: Tier::Reported,
        workloads: &["paper_sweep"],
    },
    EndToEnd {
        name: "snapshot_trial_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        tier: Tier::Reported,
        workloads: &["paper_sweep"],
    },
    EndToEnd {
        name: "ris_trial_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        tier: Tier::Reported,
        workloads: &["paper_sweep"],
    },
];

/// Look an end-to-end metric up by name.
#[must_use]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The prediction later changes are held to: which end-to-end metric
    /// this should move, on which workload — and, implicitly, nowhere else.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const SETUP_SERVING: &str = "setup_s @ 4 serving";
const TRIALS: &str = "cycle_p50_ms, *_trial_p50_ms @ paper_sweep";
const MUTATE: &str = "mutate_p50_ms, cycle_p50_ms @ write_mixed";
const EXACT: &str = "none - must repeat exactly per seed; a later change may claim it as a count";
const SELECT_ALL: &str =
    "gains_p50_ms, topk_p50_ms, cycle_p50_ms @ select_tiered (tiered), write_mixed (compressed), select_sharded (raw)";
const READ_EST: &str = "estimate_p50_us @ read_remote";
const READ_ALL: &str =
    "estimate_p50_us, estimate_p90_us, ops_per_s @ read_remote; shard hops @ select_sharded";
const SHARDED: &str = "topk_p50_ms, gains_p50_ms, estimate_p50_us, cycle_p50_ms @ select_sharded";

pub const PER_LAYER: &[Layer] = &[
    layer("imexp.fixture.generate_s", "s", Lower, SETUP_SERVING),
    layer("imrand.mt19937.ns_per_u32", "ns", Lower, TRIALS),
    layer("imrand.pcg.ns_per_u32", "ns", Lower, SETUP_SERVING),
    layer("imrand.splitmix.derive_ns", "ns", Lower, SETUP_SERVING),
    layer("imgraph.live_edge.sample_ms", "ms", Lower, "snapshot_trial_p50_ms @ paper_sweep"),
    layer("imgraph.delta.apply_batch_us", "us", Lower, MUTATE),
    layer("imgraph.delta.materialize_ms", "ms", Lower, MUTATE),
    layer("im_core.oneshot.simulations_per_s", "1/s", Higher, "oneshot_trial_p50_ms @ paper_sweep"),
    layer("im_core.snapshot.build_ms_per_sample", "ms", Lower, "snapshot_trial_p50_ms @ paper_sweep"),
    layer("im_core.ris.rr_sets_per_s", "1/s", Higher, "ris_trial_p50_ms @ paper_sweep"),
    layer("im_core.greedy.estimate_calls_per_trial", "count", Lower, TRIALS),
    layer("im_core.cost.oneshot_traversal_per_trial", "count", Lower, EXACT),
    layer("im_core.cost.snapshot_traversal_per_trial", "count", Lower, EXACT),
    layer("im_core.cost.ris_traversal_per_trial", "count", Lower, EXACT),
    layer("im_core.cost.snapshot_sample_size", "count", Lower, EXACT),
    layer("im_core.cost.ris_sample_size", "count", Lower, EXACT),
    layer("im_core.oracle.sample_sets_per_s", "1/s", Higher, SETUP_SERVING),
    layer(
        "im_core.oracle.estimate1_ns",
        "ns",
        Lower,
        "estimate_p50_us @ select_tiered, write_mixed; predicted no move @ read_remote",
    ),
    layer(
        "im_core.oracle.estimate8_ns",
        "ns",
        Lower,
        "estimate_p50_us @ select_tiered; predicted no move @ read_remote",
    ),
    layer("im_core.oracle.coverage_gains_raw_ms", "ms", Lower, SELECT_ALL),
    layer("im_core.oracle.coverage_gains_compressed_ms", "ms", Lower, SELECT_ALL),
    layer("im_core.oracle.coverage_gains_tiered_ms", "ms", Lower, SELECT_ALL),
    layer("im_core.oracle.greedy_round_raw_ms", "ms", Lower, SELECT_ALL),
    layer("im_core.oracle.greedy_round_compressed_ms", "ms", Lower, SELECT_ALL),
    layer("im_core.oracle.greedy_round_tiered_ms", "ms", Lower, SELECT_ALL),
    layer("im_core.oracle.apply_delta_batch_ms", "ms", Lower, MUTATE),
    layer("im_core.oracle.resampled_sets_per_batch", "count", Lower, EXACT),
    layer(
        "impool.codec.encode_ids_per_s",
        "1/s",
        Higher,
        "setup_s @ select_tiered, write_mixed",
    ),
    layer(
        "impool.codec.scan_ns_per_id",
        "ns",
        Lower,
        "topk_p50_ms @ select_tiered, write_mixed",
    ),
    layer(
        "impool.codec.decode_ns_per_id",
        "ns",
        Lower,
        "topk_p50_ms @ select_tiered, write_mixed",
    ),
    layer("impool.raw.scan_ns_per_id", "ns", Lower, SELECT_ALL),
    layer("impool.packed.scan_ns_per_id", "ns", Lower, SELECT_ALL),
    layer("impool.packed.cold_scan_ns_per_id", "ns", Lower, SELECT_ALL),
    layer(
        "impool.packed.cold_read_syscalls_per_pass",
        "count",
        Lower,
        "gains_p50_ms @ select_tiered (exact)",
    ),
    layer(
        "impool.packed.cold_read_bytes_per_pass",
        "bytes",
        Lower,
        "gains_p50_ms @ select_tiered (exact)",
    ),
    layer(
        "impool.packed.cold_bytes_read_per_byte_decoded",
        "ratio",
        Lower,
        "gains_p50_ms @ select_tiered",
    ),
    layer(
        "impool.raw.bytes_per_set",
        "bytes",
        Lower,
        "pool_resident_mb, peak_rss_mb @ read_remote, select_sharded",
    ),
    layer(
        "impool.packed.bytes_per_set",
        "bytes",
        Lower,
        "pool_resident_mb, peak_rss_mb @ write_mixed",
    ),
    layer(
        "impool.packed.tiered_bytes_per_set",
        "bytes",
        Lower,
        "pool_resident_mb, peak_rss_mb @ select_tiered",
    ),
    layer(
        "impool.convert_compressed_s",
        "s",
        Lower,
        "setup_s @ select_tiered, write_mixed",
    ),
    layer("impool.packed.replace_set_us", "us", Lower, MUTATE),
    layer("impool.pcmp.encode_mb_per_s", "MB/s", Higher, "setup_s @ select_tiered, write_mixed"),
    layer("impool.pcmp.decode_mb_per_s", "MB/s", Higher, "setup_s @ select_tiered, write_mixed"),
    layer("imdyn.apply_batch_attr_ms", "ms", Lower, MUTATE),
    layer("imdyn.apply_batch_struct_ms", "ms", Lower, MUTATE),
    layer("imdyn.clone_ms", "ms", Lower, MUTATE),
    layer("imserve.index.to_bytes_s", "s", Lower, "setup_s @ select_tiered, write_mixed"),
    layer("imserve.index.from_bytes_s", "s", Lower, "setup_s @ select_tiered, write_mixed"),
    layer("imserve.index.save_s", "s", Lower, "setup_s @ select_tiered, write_mixed"),
    layer("imserve.index.load_tiered_s", "s", Lower, "setup_s @ select_tiered"),
    layer("imserve.index.artifact_mb", "MB", Lower, "setup_s @ select_tiered, write_mixed"),
    layer("imserve.protocol.encode_estimate_req_ns", "ns", Lower, READ_EST),
    layer("imserve.protocol.decode_estimate_req_ns", "ns", Lower, READ_EST),
    layer("imserve.protocol.encode_estimate_resp_ns", "ns", Lower, READ_EST),
    layer("imserve.protocol.decode_estimate_resp_ns", "ns", Lower, READ_EST),
    layer("imserve.protocol.gains_resp_bytes", "bytes", Lower, SHARDED),
    layer("imserve.protocol.encode_gains_resp_ms", "ms", Lower, SHARDED),
    layer("imserve.protocol.decode_gains_resp_ms", "ms", Lower, SHARDED),
    layer(
        "imserve.engine.handle_estimate_ns",
        "ns",
        Lower,
        "estimate_p50_us @ write_mixed, select_tiered; <1 % of it @ read_remote",
    ),
    layer("imserve.engine.topk_hit_ns", "ns", Lower, "topk_p50_ms @ read_remote"),
    layer("imserve.engine.topk_miss_ms", "ms", Lower, "topk_p50_ms @ write_mixed"),
    layer(
        "imserve.engine.topk_cache_hit_share",
        "ratio",
        Higher,
        "topk_p50_ms @ read_remote, write_mixed (by construction 1.0 / 0.5 / 0.0)",
    ),
    layer("imserve.engine.mutate_overhead_ms", "ms", Lower, MUTATE),
    layer("imserve.engine.reload_ms", "ms", Lower, "none yet - baseline for hot-swap work"),
    layer("imserve.wal.append_us", "us", Lower, MUTATE),
    layer("imserve.wal.batch_overhead_ms", "ms", Lower, MUTATE),
    layer("imserve.wal.fsyncs_per_batch", "count", Lower, MUTATE),
    layer("imserve.wal.recover_ms", "ms", Lower, "setup_s @ write_mixed"),
    layer("imserve.reactor.rtt_estimate_p50_us", "us", Lower, READ_ALL),
    layer("imserve.reactor.estimate_p99_us", "us", Lower, READ_ALL),
    layer("imserve.reactor.estimate_p999_us", "us", Lower, READ_ALL),
    layer("imserve.reactor.rps_2conn", "1/s", Higher, READ_ALL),
    layer("imserve.reactor.queue_wait_p50_us", "us", Lower, READ_ALL),
    layer("imserve.reactor.write_flush_p50_us", "us", Lower, READ_ALL),
    layer("imserve.reactor.residual_us", "us", Lower, READ_ALL),
    layer(
        "imserve.server.rtt_estimate_p50_us",
        "us",
        Lower,
        "none today - the evidence for keeping or deleting the threaded front end",
    ),
    layer(
        "imserve.server.rps_2conn",
        "1/s",
        Higher,
        "none today - the evidence for keeping or deleting the threaded front end",
    ),
    layer(
        "imserve.client.pipeline16_us_per_req",
        "us",
        Lower,
        "predicted no move when rtt_estimate_p50_us improves; a regression here is that gain's cost",
    ),
    layer("imserve.shard.fanout_estimate_local_us", "us", Lower, SHARDED),
    layer("imserve.shard.fanout_estimate_remote_us", "us", Lower, SHARDED),
    layer("imserve.shard.topk_round_ms", "ms", Lower, SHARDED),
    layer("imserve.shard.rtt_p50_us", "us", Lower, SHARDED),
    layer("imserve.shard.merge_ms_per_round", "ms", Lower, SHARDED),
    layer("imserve.shard.wire_bytes_per_topk", "bytes", Lower, SHARDED),
    layer(
        "imserve.replication.apply_lag_ms",
        "ms",
        Lower,
        "none yet - baseline for replication-lag work (1 ms poll granularity)",
    ),
    layer(
        "imobs.histogram.record_ns",
        "ns",
        Lower,
        "estimate_p50_us @ read_remote (bounded by serving_metrics_overhead)",
    ),
    layer("imobs.registry.render_ms", "ms", Lower, "none - scrape cost"),
    layer("benchmark.trace_overhead_pct", "%", Lower, "none - the cost of the traced run itself"),
];

/// One measured value, as printed and as written to JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
}

impl Metric {
    /// An end-to-end metric by its catalogue name.
    ///
    /// # Panics
    ///
    /// Panics on a name the catalogue does not hold.
    #[must_use]
    pub fn end_to_end(name: &str, value: f64, n: usize) -> Self {
        let spec = end_to_end(name).unwrap_or_else(|| panic!("{name} is not an end-to-end metric"));
        Self {
            name: name.to_string(),
            value,
            unit: spec.unit,
            n,
        }
    }

    /// A per-layer metric by its catalogue name.
    ///
    /// # Panics
    ///
    /// Panics on a name the catalogue does not hold.
    #[must_use]
    pub fn layer(name: &str, value: f64, n: usize) -> Self {
        let spec = PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        Self {
            name: name.to_string(),
            value,
            unit: spec.unit,
            n,
        }
    }

    /// `name value unit (n=samples)`.
    #[must_use]
    pub fn render(&self) -> String {
        format!("{} {} {} (n={})", self.name, self.value, self.unit, self.n)
    }
}

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 12;

/// `BENCHMARK.json`, generated from the catalogue so the two cannot drift:
/// `im-benchmark catalogue > BENCHMARK.json`.
#[must_use]
pub fn benchmark_json() -> Value {
    let text = |s: &str| Value::Str(s.to_string());
    object(vec![
        (
            "command",
            Value::Array(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .map(text)
                .to_vec(),
            ),
        ),
        ("paths", Value::Array(vec![text("benchmark")])),
        ("run_seconds", Value::U64(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .zip(WORKLOAD_WHY)
                    .map(|(name, why)| object(vec![("name", text(name)), ("why", text(why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .filter(|m| m.tier == Tier::Enforced)
                    .map(|m| {
                        object(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.label())),
                            ("bound", Value::F64(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        object(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The per-layer catalogue as the README's markdown table.
#[must_use]
pub fn layer_table() -> String {
    let mut out =
        String::from("| per-layer metric | unit | better | should move |\n|---|---|---|---|\n");
    for m in PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.label(),
            m.moves
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for name in WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(valid_unit(unit), "bad unit {unit:?}");
        }
        assert!(PER_LAYER.len() <= 128);
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
            if m.tier == Tier::Enforced {
                assert_eq!(m.workloads, &WORKLOADS, "{} must be universal", m.name);
            }
        }
    }

    /// `BENCHMARK.json` must be exactly what the catalogue generates: same
    /// workloads, same enforced end-to-end metrics (unit, direction, bound),
    /// same per-layer metrics.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = crate::report::read_json(path.as_ref()).expect("BENCHMARK.json parses");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `im-benchmark catalogue > BENCHMARK.json`"
        );
        for why in WORKLOAD_WHY {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why:?}");
        }
    }
}
