//! `imexp` — run the paper's experiments from the command line.
//!
//! ```text
//! imexp list
//! imexp table3 --scale standard --json
//! imexp all
//! ```
//!
//! Each experiment name corresponds to one table or figure of the paper; see
//! `imexp list` or DESIGN.md for the mapping. The command line is the flag
//! table in `imexp::cli`; a bad invocation prints the usage text rendered
//! from it. The index artifact the serving layer loads is written by
//! `imserve build`.

use std::process::ExitCode;

use imexp::cli::{self, Cli};
use imexp::config::ExperimentScale;
use imexp::experiments::{experiment_names, run_by_name};

fn print_report(name: &str, scale: ExperimentScale, json: bool) -> Result<(), String> {
    let report = run_by_name(name, scale).ok_or_else(|| format!("unknown experiment {name:?}"))?;
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).expect("report serialises")
        );
    } else {
        println!("{report}");
    }
    Ok(())
}

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
            for name in experiment_names() {
                eprintln!("running {name} …");
                if let Err(e) = print_report(name, scale, json) {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
            ExitCode::SUCCESS
        }
        Cli::Run { name, scale, json } => match print_report(&name, scale, json) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
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
