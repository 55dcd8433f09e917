//! Strict, unit-testable argument parsing for the `imexp` binary.
//!
//! [`SUBCOMMANDS`] is the binary's flag table; parsing walks it with
//! `imserve`'s shared scanner ([`imserve::cli::scan`]) and [`usage`] renders
//! it, so unknown flags, missing operands and stray words are refused — and
//! the usage text printed — from one description. What each constructor
//! keeps is its own: typed defaults and range checks.

use imserve::cli::{positive, render_usage, scan, Flag, Given, Subcommand};
// One error type across the workspace binaries: parse failures print the
// same way whether `imexp` or `imserve` rejected the flag.
pub use imserve::cli::CliError;

use crate::config::ExperimentScale;

/// A parsed `imexp` invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Cli {
    /// `imexp list`: print the registered experiment names.
    List,
    /// `imexp all`: run every experiment.
    All {
        /// Scale preset of every run.
        scale: ExperimentScale,
        /// Emit pretty JSON instead of plain-text tables.
        json: bool,
    },
    /// `imexp <experiment>`: run one experiment.
    Run {
        /// Registered experiment name.
        name: String,
        /// Scale preset of the run.
        scale: ExperimentScale,
        /// Emit pretty JSON instead of plain-text tables.
        json: bool,
    },
    /// `imexp loadtest`: run the same workload through one or more
    /// `InfluenceService` backends (with byte-identity verification for
    /// `sharded:N`), optionally writing the per-backend latency trajectory
    /// as one JSON benchmark document.
    Loadtest(crate::loadtest::LoadtestSpec),
    /// `imexp pool`: benchmark the three `impool` pool-store layouts (raw,
    /// compressed, tiered) on the streamed Chung–Lu fixture, optionally
    /// writing `BENCH_pool.json`.
    Pool(crate::poolbench::PoolBenchSpec),
}

const SCALE: Flag = Flag::optional("--scale", "quick|standard|paper");
const JSON: Flag = Flag::switch("--json");

/// Any word that names no other entry is an experiment name.
const EXPERIMENT: Subcommand = Subcommand {
    name: "<experiment>",
    flags: &[SCALE, JSON],
};

/// The `imexp` command line: every subcommand and every flag it accepts.
pub const SUBCOMMANDS: &[Subcommand] = &[
    EXPERIMENT,
    Subcommand {
        name: "all",
        flags: &[SCALE, JSON],
    },
    Subcommand {
        name: "list",
        flags: &[],
    },
    Subcommand {
        name: "loadtest",
        flags: &[
            Flag::required("--backend", "local|remote|remote-reactor|sharded:N|all"),
            Flag::optional("--dataset", "<name>|chung-lu"),
            Flag::optional("--model", "M"),
            Flag::optional("--pool", "N"),
            Flag::optional("--seed", "S"),
            Flag::optional("--connections", "N"),
            Flag::optional("--requests", "N"),
            Flag::optional("--k", "K"),
            Flag::optional("--arrival-rps", "R"),
            Flag::optional("--bench-out", "<path>"),
        ],
    },
    Subcommand {
        name: "pool",
        flags: &[
            Flag::optional("--nodes", "N"),
            Flag::optional("--degree", "D"),
            Flag::optional("--model", "M"),
            Flag::optional("--pool", "N"),
            Flag::optional("--seed", "S"),
            Flag::optional("--queries", "Q"),
            Flag::optional("--k", "K"),
            Flag::optional("--bench-out", "<path>"),
        ],
    },
];

/// The usage text: [`SUBCOMMANDS`] rendered, then the registered
/// experiment names.
#[must_use]
pub fn usage() -> String {
    format!(
        "{}\nexperiments: {}",
        render_usage("imexp", SUBCOMMANDS),
        crate::experiments::experiment_names().join(", ")
    )
}

fn parse_scale(value: &str) -> Result<ExperimentScale, CliError> {
    match value {
        "quick" => Ok(ExperimentScale::Quick),
        "standard" => Ok(ExperimentScale::Standard),
        "paper" => Ok(ExperimentScale::Paper),
        _ => Err(CliError(format!(
            "unknown scale {value:?} (expected quick, standard or paper)"
        ))),
    }
}

/// Parse the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Cli, CliError> {
    let Some((command, rest)) = args.split_first() else {
        return Err(CliError("missing command".to_string()));
    };
    if command.starts_with('-') {
        return Err(CliError(format!(
            "expected an experiment name, got option {command:?}"
        )));
    }
    let sub = (SUBCOMMANDS.iter())
        .find(|sub| sub.name == *command)
        .unwrap_or(&EXPERIMENT);
    let given = scan(command, sub.flags, rest)?;
    let scale = (given.parsed("--scale", parse_scale)?).unwrap_or(ExperimentScale::Quick);
    let json = given.has("--json");
    match sub.name {
        "list" => Ok(Cli::List),
        "all" => Ok(Cli::All { scale, json }),
        "loadtest" => parse_loadtest(&given),
        "pool" => parse_pool(&given),
        _ => Ok(Cli::Run {
            name: command.clone(),
            scale,
            json,
        }),
    }
}

fn parse_loadtest(given: &Given) -> Result<Cli, CliError> {
    use imserve::loadtest::LoadtestConfig;
    use imserve::service::BackendSpec;

    let mut backends: Vec<BackendSpec> = Vec::new();
    for value in given.all("--backend") {
        if value == "all" {
            // The full latency trajectory, cheapest to dearest.
            backends.extend([
                BackendSpec::Local,
                BackendSpec::Remote,
                BackendSpec::RemoteReactor,
                BackendSpec::Sharded(4),
            ]);
        } else {
            backends.push(BackendSpec::parse(value).map_err(|e| CliError(e.to_string()))?);
        }
    }
    let pool = given.number("--pool")?.unwrap_or(20_000);
    let defaults = LoadtestConfig::default();
    let config = LoadtestConfig {
        connections: given.number("--connections")?.unwrap_or(2),
        requests_per_connection: given.number("--requests")?.unwrap_or(100),
        k: given.number("--k")?.unwrap_or(defaults.k),
        arrival_rps: given.number("--arrival-rps")?,
        ..defaults
    };
    positive("--pool", pool)?;
    positive("--connections", config.connections)?;
    positive("--requests", config.requests_per_connection)?;
    positive("--k", config.k)?;
    if let Some(rps) = config.arrival_rps {
        positive("--arrival-rps", rps)?;
    }
    for backend in &backends {
        if let BackendSpec::Sharded(count) = backend {
            if pool < *count {
                return Err(CliError(format!(
                    "--pool {pool} cannot feed {count} non-empty shards"
                )));
            }
        }
    }
    Ok(Cli::Loadtest(crate::loadtest::LoadtestSpec {
        backends,
        dataset: given
            .last("--dataset")
            .unwrap_or_else(|| "karate".to_string()),
        model: given.last("--model").unwrap_or_else(|| "uc0.1".to_string()),
        pool,
        seed: given.number("--seed")?.unwrap_or(7),
        config,
        bench_out: given.last("--bench-out"),
    }))
}

fn parse_pool(given: &Given) -> Result<Cli, CliError> {
    let defaults = crate::poolbench::PoolBenchSpec::default();
    let spec = crate::poolbench::PoolBenchSpec {
        nodes: given.number("--nodes")?.unwrap_or(defaults.nodes),
        degree: (given.parsed("--degree", |value| {
            (value.parse())
                .map_err(|_| CliError(format!("--degree expects a number, got {value:?}")))
        })?)
        .unwrap_or(defaults.degree),
        model: given.last("--model").unwrap_or(defaults.model),
        pool: given.number("--pool")?.unwrap_or(defaults.pool),
        seed: given.number("--seed")?.unwrap_or(defaults.seed),
        queries: given.number("--queries")?.unwrap_or(defaults.queries),
        k: given.number("--k")?.unwrap_or(defaults.k),
        bench_out: given.last("--bench-out").or(defaults.bench_out),
    };
    positive("--nodes", spec.nodes)?;
    positive("--pool", spec.pool)?;
    positive("--queries", spec.queries)?;
    positive("--k", spec.k)?;
    if spec.degree.is_nan() || spec.degree <= 0.0 {
        return Err(CliError("--degree must be positive".to_string()));
    }
    Ok(Cli::Pool(spec))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn list_all_and_run_parse() {
        assert_eq!(parse(&args(&["list"])).unwrap(), Cli::List);
        assert_eq!(
            parse(&args(&["all", "--scale", "standard", "--json"])).unwrap(),
            Cli::All {
                scale: ExperimentScale::Standard,
                json: true,
            }
        );
        assert_eq!(
            parse(&args(&["fig1", "--scale", "paper"])).unwrap(),
            Cli::Run {
                name: "fig1".into(),
                scale: ExperimentScale::Paper,
                json: false,
            }
        );
        assert_eq!(
            parse(&args(&["table3"])).unwrap(),
            Cli::Run {
                name: "table3".into(),
                scale: ExperimentScale::Quick,
                json: false,
            }
        );
    }

    /// Rejection follows from the table: every entry refuses an unknown
    /// option and a stray word, and every operand-taking flag refuses to end
    /// the line without its operand.
    #[test]
    fn unknown_flags_are_rejected() {
        for sub in SUBCOMMANDS {
            for bad in ["--frobnicate", "stray"] {
                let err = parse(&args(&[sub.name, bad])).unwrap_err();
                assert_eq!(err.0, format!("unknown option {bad:?} for {}", sub.name));
            }
            for flag in sub.flags.iter().filter(|flag| flag.operand.is_some()) {
                let err = parse(&args(&[sub.name, flag.name])).unwrap_err();
                assert_eq!(err.0, format!("{} requires a value", flag.name));
            }
        }
        assert!(parse(&args(&["fig1", "--scael", "quick"])).is_err());
        assert!(parse(&args(&["all", "--verbose"])).is_err());
        // `index` was a second `imserve build`; it is now just an unknown
        // experiment whose dataset operand is a stray word.
        assert!(parse(&args(&["index", "karate", "--out", "x", "--fast"])).is_err());
        assert!(parse(&args(&["index", "karate", "--out", "x"])).is_err());
    }

    #[test]
    fn malformed_scale_is_rejected_with_a_clear_error() {
        let err = parse(&args(&["fig1", "--scale", "enormous"])).unwrap_err();
        assert!(err.0.contains("enormous"), "error names the bad value");
        assert!(err.0.contains("quick"), "error lists the accepted values");
    }

    #[test]
    fn missing_command_and_option_like_names_are_rejected() {
        assert!(parse(&args(&[])).is_err());
        assert!(parse(&args(&["--scale", "quick"])).is_err());
        assert!(parse(&args(&["list", "--json"])).is_err());
    }

    #[test]
    fn loadtest_backends_accumulate_and_all_expands() {
        use imserve::service::BackendSpec;
        let parsed = parse(&args(&[
            "loadtest",
            "--backend",
            "local",
            "--backend",
            "sharded:2",
        ]))
        .unwrap();
        match parsed {
            Cli::Loadtest(spec) => {
                assert_eq!(
                    spec.backends,
                    vec![BackendSpec::Local, BackendSpec::Sharded(2)]
                );
                assert_eq!(spec.bench_out, None);
                assert_eq!(spec.config.arrival_rps, None);
            }
            other => panic!("unexpected command {other:?}"),
        }
        match parse(&args(&[
            "loadtest",
            "--backend",
            "all",
            "--arrival-rps",
            "800",
            "--bench-out",
            "bench.json",
        ]))
        .unwrap()
        {
            Cli::Loadtest(spec) => {
                assert_eq!(
                    spec.backends,
                    vec![
                        BackendSpec::Local,
                        BackendSpec::Remote,
                        BackendSpec::RemoteReactor,
                        BackendSpec::Sharded(4),
                    ]
                );
                assert_eq!(spec.config.arrival_rps, Some(800));
                assert_eq!(spec.bench_out.as_deref(), Some("bench.json"));
            }
            other => panic!("unexpected command {other:?}"),
        }
        assert!(parse(&args(&["loadtest"])).is_err(), "missing --backend");
        assert!(parse(&args(&[
            "loadtest",
            "--backend",
            "local",
            "--arrival-rps",
            "0"
        ]))
        .is_err());
        assert!(parse(&args(&["loadtest", "--backend", "warp9"])).is_err());
    }

    #[test]
    fn pool_parses_with_defaults_and_rejects_bad_values() {
        match parse(&args(&["pool"])).unwrap() {
            Cli::Pool(spec) => {
                assert_eq!(spec, crate::poolbench::PoolBenchSpec::default());
                assert_eq!(spec.nodes, 1_000_000);
                assert_eq!(spec.bench_out, None);
            }
            other => panic!("unexpected command {other:?}"),
        }
        match parse(&args(&[
            "pool",
            "--nodes",
            "5000",
            "--degree",
            "3.5",
            "--model",
            "uc0.1",
            "--pool",
            "2500",
            "--seed",
            "11",
            "--queries",
            "50",
            "--k",
            "4",
            "--bench-out",
            "BENCH_pool.json",
        ]))
        .unwrap()
        {
            Cli::Pool(spec) => {
                assert_eq!(spec.nodes, 5_000);
                assert!((spec.degree - 3.5).abs() < 1e-12);
                assert_eq!(spec.model, "uc0.1");
                assert_eq!(spec.pool, 2_500);
                assert_eq!(spec.seed, 11);
                assert_eq!(spec.queries, 50);
                assert_eq!(spec.k, 4);
                assert_eq!(spec.bench_out.as_deref(), Some("BENCH_pool.json"));
            }
            other => panic!("unexpected command {other:?}"),
        }
        assert!(parse(&args(&["pool", "--nodes", "0"])).is_err());
        assert!(parse(&args(&["pool", "--degree", "dense"])).is_err());
        assert!(parse(&args(&["pool", "--degree", "0"])).is_err());
        assert!(parse(&args(&["pool", "--layout", "raw"])).is_err());
    }
}
