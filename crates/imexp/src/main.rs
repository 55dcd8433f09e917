//! `imexp` — run the paper's experiments from the command line.
//!
//! ```text
//! imexp list
//! imexp table3 --scale standard --json
//! imexp all --scale quick --json > BENCH_paper.json
//! ```
//!
//! Each experiment name corresponds to one table or figure of the paper; see
//! `imexp list` or DESIGN.md for the mapping. `imexp all --json` prints one
//! document (schema `imexp-paper/v1`, invocation embedded) holding every
//! report in `imexp list` order. At quick scale that document is the
//! committed `BENCH_paper.json`, which CI regenerates and compares. The
//! command line is the flag table in `imexp::cli`; a bad invocation prints
//! the usage text rendered from it. The index artifact the serving layer
//! loads is written by `imserve build`.

use std::process::ExitCode;

use imexp::cli::{self, Cli};
use imexp::experiments::{experiment_names, run_by_name, PaperDocument};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match cli::parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", cli::usage());
            return ExitCode::FAILURE;
        }
    };

    match parsed {
        Cli::List => {
            for name in experiment_names() {
                println!("{name}");
            }
            ExitCode::SUCCESS
        }
        Cli::All { scale, json } => {
            // Text streams report by report; JSON is one document at the end.
            let reports = (experiment_names().into_iter()).map(|name| {
                eprintln!("running {name} …");
                let report = run_by_name(name, scale).expect("registered experiments run");
                if !json {
                    println!("{report}");
                }
                report
            });
            let document = PaperDocument::new(scale, reports.collect());
            if json {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&document).expect("document serialises")
                );
            }
            ExitCode::SUCCESS
        }
        Cli::Run { name, scale, json } => match run_by_name(&name, scale) {
            Some(report) if json => {
                let json = serde_json::to_string_pretty(&report).expect("report serialises");
                println!("{json}");
                ExitCode::SUCCESS
            }
            Some(report) => {
                println!("{report}");
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("error: unknown experiment {name:?}");
                eprintln!("{}", cli::usage());
                ExitCode::FAILURE
            }
        },
        Cli::Loadtest(spec) => {
            let backends: Vec<String> = spec.backends.iter().map(ToString::to_string).collect();
            eprintln!(
                "loadtest: backends [{}] over {}/{} (pool {}, seed {}{})",
                backends.join(", "),
                spec.dataset,
                spec.model,
                spec.pool,
                spec.seed,
                match spec.config.arrival_rps {
                    Some(rps) => format!(", open loop at {rps} req/s"),
                    None => ", closed loop".to_string(),
                }
            );
            let runs = match imexp::loadtest::run(&spec) {
                Ok(runs) => runs,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            for run in &runs {
                println!("== backend {} ==", run.backend);
                println!("{}", run.report);
                if let Some(checked) = run.verified_probes {
                    println!("sharded ≡ single-pool local: OK ({checked} probes byte-identical)");
                }
            }
            if let Some(path) = &spec.bench_out {
                let document = imexp::loadtest::bench_document(&spec, &runs);
                let json = serde_json::to_string_pretty(&document).expect("document serialises");
                if let Err(e) = std::fs::write(path, json + "\n") {
                    eprintln!("error: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("wrote benchmark document -> {path}");
            }
            ExitCode::SUCCESS
        }
        Cli::Pool(spec) => {
            let result = match imexp::poolbench::run(&spec) {
                Ok(result) => result,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!("{}", result.table().render());
            println!(
                "compressed is {:.2}x smaller than raw per RR set \
                 ({} probes bit-identical across layouts)",
                result.compression_ratio(),
                result.verified_probes
            );
            if let Some(path) = &spec.bench_out {
                let document = imexp::poolbench::bench_document(&spec, &result);
                let json = serde_json::to_string_pretty(&document).expect("document serialises");
                if let Err(e) = std::fs::write(path, json + "\n") {
                    eprintln!("error: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("wrote benchmark document -> {path}");
            }
            ExitCode::SUCCESS
        }
    }
}
