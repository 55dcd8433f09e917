//! Strict argument parsing for the `imserve` binary, driven by one flag
//! table.
//!
//! [`SUBCOMMANDS`] describes the whole command line as data: each
//! [`Subcommand`] names its [`Flag`]s, each flag says whether it takes an
//! operand and whether it is required. One scanner ([`scan`]) walks the
//! arguments against an entry, rejecting unknown options, missing operands,
//! stray positionals and absent required flags, and [`usage`] renders the same
//! table — so adding a flag to the table is all it takes for it to parse,
//! reject and print. `imexp` reuses the scanner with its own table. What is
//! left per subcommand is what is really its own: typed defaults, range
//! checks and cross-flag rules.
//!
//! Parsing is pure (`&[String] -> Result<Command, CliError>`) so every rule is
//! unit-testable without spawning the binary.

use std::fmt::Write as _;

use im_core::PoolLayout;
use imgraph::GraphDelta;

use crate::protocol::{Request, TopKAlgorithm};

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `imserve build`: sample a pool (or one shard of a global pool) and
    /// write an index artifact.
    Build {
        /// Registry dataset name.
        dataset: String,
        /// Probability-model label.
        model: String,
        /// RR sets to draw (the *global* pool size when `--shard` is given).
        pool: usize,
        /// Base seed of the pool sample.
        seed: u64,
        /// Output path of the artifact.
        out: String,
        /// Optional delta-script path: mutations applied to the dataset graph
        /// *before* sampling (the from-scratch reference for a mutated index).
        deltas: Option<String>,
        /// `--shard i/N`: build shard `i` of `N` over the global pool (the
        /// local sets' PRNG streams derive from their global ids, so the N
        /// artifacts union byte-identically into the whole-pool build).
        shard: Option<(usize, usize)>,
        /// Physical pool-store layout persisted in the artifact (`raw`,
        /// `compressed` or `tiered`, stamped into its `PCMP` section).
        pool_layout: PoolLayout,
    },
    /// `imserve serve`: load an index and answer TCP queries.
    Serve {
        /// Index artifact path.
        index: String,
        /// Bind address (`host:port`; port 0 picks an ephemeral port).
        addr: String,
        /// Compute-pool threads: the reactor answers point requests on its
        /// event loop and hands every other request to these.
        workers: usize,
        /// `TopK` LRU cache capacity.
        cache: usize,
        /// Auto-compaction: fold the pending log once it reaches this many
        /// deltas (`None` disables the log-length trigger).
        compact_log_len: Option<usize>,
        /// Auto-compaction: fold the pending log once resampling since the
        /// last compaction reaches this fraction of the pool (`None`
        /// disables the dirty-fraction trigger).
        compact_dirty: Option<f64>,
        /// Mutation write-ahead log path: accepted mutations are appended
        /// before they are acknowledged and replayed on startup, so they
        /// survive a crash between index saves.
        wal: Option<String>,
        /// Optional bind address of the Prometheus-style plaintext metrics
        /// endpoint (`None` disables scraping; the wire `Metrics` request
        /// still works).
        metrics_addr: Option<String>,
        /// Slow-query log threshold in microseconds: request spans at or
        /// above it land in the ring buffer rendered with the scrape.
        slow_micros: u64,
        /// Bind address of the replication listener (leader mode): followers
        /// dial it and tail this server's WAL. Requires `--wal`.
        repl_addr: Option<String>,
        /// Leader address to follow (follower mode): the engine starts
        /// read-only and applies the leader's WAL stream until promoted.
        follow: Option<String>,
    },
    /// `imserve route`: a long-lived router process over N shard servers,
    /// exposing the cluster's operational surface — federated `/metrics`,
    /// `/events`, `/healthz` and `/readyz` — on `--metrics-addr`. Shard
    /// connections re-establish themselves, so readiness recovers when a
    /// dead shard comes back.
    Route {
        /// Shard server addresses (one per shard backend).
        addrs: Vec<String>,
        /// Bind address of the operational HTTP endpoint.
        metrics_addr: String,
        /// Per-shard deadline in milliseconds, so a dead shard degrades
        /// `/readyz` loudly instead of hanging the probe.
        deadline_ms: u64,
    },
    /// `imserve query`, `mutate`, `compact --addr`, `reload` and `promote`:
    /// send one request and print its reply. With several `--addr`s the
    /// request routes through a `ShardedService` over all of them (a
    /// mutation batch is broadcast, applied atomically on each).
    Call {
        /// Server addresses (one per shard backend).
        addrs: Vec<String>,
        /// The request to send.
        request: Request,
    },
    /// `imserve compact --index … --out …`: fold an artifact file's pending
    /// delta log into its snapshot watermark offline.
    Compact {
        /// Input artifact path.
        index: String,
        /// Output artifact path (may equal `index` to compact in place).
        out: String,
    },
    /// `imserve loadtest`: hammer a server (or, with several `--addr`s, a
    /// sharded deployment) and report latency percentiles.
    Loadtest {
        /// Server addresses (one per shard backend).
        addrs: Vec<String>,
        /// Concurrent connections.
        connections: usize,
        /// Requests per connection.
        requests: usize,
        /// `TopK` seed-set size in the request mix.
        k: usize,
        /// Open-loop arrival rate in requests/second across all connections
        /// (`None` = closed loop).
        arrival_rps: Option<u64>,
    },
}

/// A parse failure: human-readable, printed with usage by `main`.
#[derive(Debug, Clone, PartialEq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

/// One flag of a subcommand's command line.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The flag as typed, e.g. `--pool`.
    pub name: &'static str,
    /// Display name of the flag's operand in the usage text; `None` for a
    /// switch, which takes no operand.
    pub operand: Option<&'static str>,
    /// Whether the subcommand refuses to run without the flag.
    pub required: bool,
}

impl Flag {
    /// A flag the subcommand cannot run without.
    #[must_use]
    pub const fn required(name: &'static str, operand: &'static str) -> Self {
        Self {
            name,
            operand: Some(operand),
            required: true,
        }
    }

    /// An optional flag taking an operand.
    #[must_use]
    pub const fn optional(name: &'static str, operand: &'static str) -> Self {
        Self {
            name,
            operand: Some(operand),
            required: false,
        }
    }

    /// An optional flag taking no operand.
    #[must_use]
    pub const fn switch(name: &'static str) -> Self {
        Self {
            name,
            operand: None,
            required: false,
        }
    }
}

/// One entry of a binary's flag table: a subcommand and the flags it
/// accepts, in usage order.
#[derive(Debug, Clone, Copy)]
pub struct Subcommand {
    /// The subcommand as typed.
    pub name: &'static str,
    /// Every flag the subcommand accepts.
    pub flags: &'static [Flag],
}

impl Subcommand {
    /// The entry's flag names other than `except`, listed for an error
    /// message as `--a, --b or --c`.
    #[must_use]
    pub(crate) fn list_flags(&self, except: &[&str]) -> String {
        let names: Vec<&str> = (self.flags.iter())
            .map(|flag| flag.name)
            .filter(|name| !except.contains(name))
            .collect();
        match names.split_last() {
            Some((last, rest)) if !rest.is_empty() => format!("{} or {last}", rest.join(", ")),
            _ => names.concat(),
        }
    }
}

/// The flags one invocation gave, as `(flag, operand)` pairs in
/// command-line order (a switch's operand is `None`).
#[derive(Debug)]
pub struct Given<'a> {
    /// The pairs, in the order they were typed.
    pub(crate) pairs: Vec<(&'static str, Option<&'a str>)>,
}

impl<'a> Given<'a> {
    /// Every operand given for `flag`, in command-line order.
    pub fn all<'s>(&'s self, flag: &'s str) -> impl Iterator<Item = &'a str> + 's {
        (self.pairs.iter())
            .filter(move |(name, _)| *name == flag)
            .filter_map(|(_, operand)| *operand)
    }

    /// Whether `flag` was given at all.
    #[must_use]
    pub fn has(&self, flag: &str) -> bool {
        self.pairs.iter().any(|(name, _)| *name == flag)
    }

    /// The operand `flag` was last given, if any (a repeated flag's last
    /// value wins).
    #[must_use]
    pub fn last(&self, flag: &str) -> Option<String> {
        self.all(flag).last().map(str::to_string)
    }

    /// The operand of a flag the table marks required.
    ///
    /// # Panics
    ///
    /// Panics if `flag` was not given, which [`scan`] rules out for every
    /// flag its table marks required.
    #[must_use]
    pub(crate) fn required(&self, flag: &str) -> String {
        self.last(flag)
            .unwrap_or_else(|| panic!("{flag} is not marked required in the flag table"))
    }

    /// Every operand of `flag` run through `parse`, so each occurrence must
    /// be well-formed; the last one's value is returned.
    pub fn parsed<T>(
        &self,
        flag: &str,
        mut parse: impl FnMut(&'a str) -> Result<T, CliError>,
    ) -> Result<Option<T>, CliError> {
        let mut value = None;
        for operand in self.all(flag) {
            value = Some(parse(operand)?);
        }
        Ok(value)
    }

    /// [`Given::parsed`] as a number, naming the flag when one is malformed.
    pub fn number<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, CliError> {
        self.parsed(flag, |operand| parse_number(flag, operand))
    }
}

/// Walk `args` against one subcommand's `flags` and return the flags given,
/// in order. `command` names the subcommand in the errors: an argument that
/// is not one of `flags` (an unknown option or a stray positional), a flag
/// missing its operand, and a required flag never given are all refused.
pub fn scan<'a>(command: &str, flags: &[Flag], args: &'a [String]) -> Result<Given<'a>, CliError> {
    let mut pairs = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let Some(flag) = flags.iter().find(|flag| flag.name == args[i]) else {
            return Err(CliError(format!(
                "unknown option {:?} for {command}",
                args[i]
            )));
        };
        let operand = match flag.operand {
            Some(_) => Some(take_value(flag.name, args, &mut i)?),
            None => None,
        };
        pairs.push((flag.name, operand));
        i += 1;
    }
    let given = Given { pairs };
    if let Some(flag) = flags
        .iter()
        .find(|flag| flag.required && !given.has(flag.name))
    {
        return Err(CliError(format!("{command} requires {}", flag.name)));
    }
    Ok(given)
}

/// A flag's operand, erroring when it is missing.
fn take_value<'a>(flag: &str, args: &'a [String], i: &mut usize) -> Result<&'a str, CliError> {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .ok_or_else(|| CliError(format!("{flag} requires a value")))
}

/// Render a flag table as usage text: one line per subcommand, required flags
/// bare and optional ones in brackets.
#[must_use]
pub fn render_usage(binary: &str, table: &[Subcommand]) -> String {
    let width = table.iter().map(|sub| sub.name.len()).max().unwrap_or(0);
    let mut text = String::from("usage:");
    for sub in table {
        let mut line = format!("  {binary} {:<width$}", sub.name);
        for flag in sub.flags {
            let spec = match flag.operand {
                Some(operand) => format!("{} {operand}", flag.name),
                None => flag.name.to_string(),
            };
            if flag.required {
                let _ = write!(line, " {spec}");
            } else {
                let _ = write!(line, " [{spec}]");
            }
        }
        text.push('\n');
        text.push_str(line.trim_end());
    }
    text
}

const ADDR: Flag = Flag::required("--addr", "host:port");

const BUILD: Subcommand = Subcommand {
    name: "build",
    flags: &[
        Flag::required("--dataset", "<name>"),
        Flag::optional("--model", "uc0.1|uc0.01|iwc|owc"),
        Flag::optional("--pool", "N"),
        Flag::optional("--seed", "S"),
        Flag::optional("--deltas", "<script>"),
        Flag::optional("--shard", "i/N"),
        Flag::optional("--pool-layout", "raw|compressed|tiered"),
        Flag::required("--out", "<path>"),
    ],
};

const SERVE: Subcommand = Subcommand {
    name: "serve",
    flags: &[
        Flag::required("--index", "<path>"),
        Flag::optional("--addr", "host:port"),
        Flag::optional("--workers", "N"),
        Flag::optional("--cache", "N"),
        Flag::optional("--compact-log-len", "N"),
        Flag::optional("--compact-dirty", "F"),
        Flag::optional("--wal", "<path>"),
        Flag::optional("--metrics-addr", "host:port"),
        Flag::optional("--slow-micros", "N"),
        Flag::optional("--repl-addr", "host:port"),
        Flag::optional("--follow", "host:port"),
    ],
};

const ROUTE: Subcommand = Subcommand {
    name: "route",
    flags: &[
        Flag::required("--addr", "host:port[|replica…]"),
        Flag::required("--metrics-addr", "host:port"),
        Flag::optional("--deadline-ms", "N"),
    ],
};

const RELOAD: Subcommand = Subcommand {
    name: "reload",
    flags: &[ADDR, Flag::required("--index", "<path>")],
};

const PROMOTE: Subcommand = Subcommand {
    name: "promote",
    flags: &[ADDR, Flag::optional("--expected-epoch", "N")],
};

const QUERY: Subcommand = Subcommand {
    name: "query",
    flags: &[
        ADDR,
        Flag::optional("--estimate", "v1,v2,…"),
        Flag::optional("--topk", "K"),
        Flag::optional("--algorithm", "greedy|singleton"),
        Flag::switch("--info"),
        Flag::switch("--stats"),
        Flag::switch("--metrics"),
        Flag::switch("--health"),
        Flag::switch("--events"),
    ],
};

const MUTATE: Subcommand = Subcommand {
    name: "mutate",
    flags: &[
        ADDR,
        Flag::optional("--insert", "u,v,p"),
        Flag::optional("--delete", "u,v"),
        Flag::optional("--setp", "u,v,p"),
        Flag::optional("--file", "<script>"),
    ],
};

const COMPACT: Subcommand = Subcommand {
    name: "compact",
    flags: &[
        Flag::optional("--addr", "host:port"),
        Flag::optional("--index", "<path>"),
        Flag::optional("--out", "<path>"),
    ],
};

const LOADTEST: Subcommand = Subcommand {
    name: "loadtest",
    flags: &[
        ADDR,
        Flag::optional("--connections", "N"),
        Flag::optional("--requests", "N"),
        Flag::optional("--k", "K"),
        Flag::optional("--arrival-rps", "R"),
    ],
};

/// The `imserve` command line: every subcommand and every flag it accepts.
pub const SUBCOMMANDS: &[Subcommand] = &[
    BUILD, SERVE, ROUTE, RELOAD, PROMOTE, QUERY, MUTATE, COMPACT, LOADTEST,
];

/// What the table cannot say: formats and the cross-flag rules.
const NOTES: &str = "\
several --addr values route through a sharded service; route takes |-separated replicas (leader first)
query sends exactly one request; mutate applies its deltas atomically, in order
delta scripts hold one JSON delta per line, e.g. {\"DeleteEdge\":{\"source\":0,\"target\":1}}
compact takes --addr (a running server) or --index with --out (an artifact file)
--repl-addr needs --wal
--shard i/N builds shard i of a global pool; tiered leaves cold pool blocks in the artifact file";

/// The usage text: [`SUBCOMMANDS`] rendered, then the notes the table
/// cannot carry.
#[must_use]
pub fn usage() -> String {
    format!("{}\n\n{NOTES}", render_usage("imserve", SUBCOMMANDS))
}

/// Parse a flag's numeric value, naming the flag in the error.
fn parse_number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, CliError> {
    value
        .parse()
        .map_err(|_| CliError(format!("malformed value {value:?} for {flag}")))
}

fn parse_seed_list(value: &str) -> Result<Vec<u32>, CliError> {
    let seeds: Result<Vec<u32>, _> = value
        .split(',')
        .map(|s| {
            s.trim()
                .parse::<u32>()
                .map_err(|_| CliError(format!("malformed seed list entry {s:?}")))
        })
        .collect();
    let seeds = seeds?;
    if seeds.is_empty() {
        return Err(CliError("seed list must not be empty".to_string()));
    }
    Ok(seeds)
}

/// Parse the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let Some((command, rest)) = args.split_first() else {
        return Err(CliError("missing subcommand".to_string()));
    };
    let Some(sub) = SUBCOMMANDS.iter().find(|sub| sub.name == *command) else {
        return Err(CliError(format!("unknown subcommand {command:?}")));
    };
    let given = scan(sub.name, sub.flags, rest)?;
    match sub.name {
        "build" => build(&given),
        "serve" => serve(&given),
        "route" => route(&given),
        "reload" => Ok(Command::Call {
            addrs: vec![given.required("--addr")],
            request: Request::Reload {
                path: given.required("--index"),
            },
        }),
        "promote" => Ok(Command::Call {
            addrs: vec![given.required("--addr")],
            request: Request::Promote {
                expected_epoch: given.number("--expected-epoch")?,
            },
        }),
        "query" => query(&given),
        "mutate" => mutate(&given),
        "compact" => compact(&given),
        "loadtest" => loadtest(&given),
        other => unreachable!("subcommand {other:?} is in the table but has no constructor"),
    }
}

/// Parse `i/N` into a (shard index, shard count) pair.
fn parse_shard_spec(value: &str) -> Result<(usize, usize), CliError> {
    let Some((index, count)) = value.split_once('/') else {
        return Err(CliError(format!("--shard expects i/N — got {value:?}")));
    };
    let index: usize = parse_number("--shard", index.trim())?;
    let count: usize = parse_number("--shard", count.trim())?;
    if count == 0 {
        return Err(CliError("--shard count must be positive".to_string()));
    }
    if index >= count {
        return Err(CliError(format!(
            "--shard index {index} out of range for {count} shards"
        )));
    }
    Ok((index, count))
}

/// Parse a `--pool-layout` value, naming the accepted labels in the error.
fn parse_pool_layout(value: &str) -> Result<PoolLayout, CliError> {
    PoolLayout::parse(value).ok_or_else(|| {
        CliError(format!(
            "unknown pool layout {value:?} (expected raw, compressed or tiered)"
        ))
    })
}

/// Refuse a zero where the flag needs a positive count.
pub fn positive<T: PartialEq + Default>(flag: &str, value: T) -> Result<(), CliError> {
    if value == T::default() {
        return Err(CliError(format!("{flag} must be positive")));
    }
    Ok(())
}

fn build(given: &Given) -> Result<Command, CliError> {
    let pool: usize = given.number("--pool")?.unwrap_or(100_000);
    positive("--pool", pool)?;
    let shard = given.parsed("--shard", parse_shard_spec)?;
    let deltas = given.last("--deltas");
    if let Some((_, count)) = shard {
        if pool < count {
            return Err(CliError(format!(
                "--pool {pool} cannot feed {count} non-empty shards"
            )));
        }
        if deltas.is_some() {
            return Err(CliError(
                "--shard cannot be combined with --deltas (mutate the served shards instead)"
                    .to_string(),
            ));
        }
    }
    Ok(Command::Build {
        dataset: given.required("--dataset"),
        model: given.last("--model").unwrap_or_else(|| "uc0.1".to_string()),
        pool,
        seed: given.number("--seed")?.unwrap_or(7),
        out: given.required("--out"),
        deltas,
        shard,
        pool_layout: (given.parsed("--pool-layout", parse_pool_layout)?).unwrap_or(PoolLayout::Raw),
    })
}

/// Parse `u,v` into endpoints.
fn parse_edge_pair(flag: &str, value: &str) -> Result<(u32, u32), CliError> {
    let parts: Vec<&str> = value.split(',').collect();
    if parts.len() != 2 {
        return Err(CliError(format!("{flag} expects u,v — got {value:?}")));
    }
    Ok((
        parse_number(flag, parts[0].trim())?,
        parse_number(flag, parts[1].trim())?,
    ))
}

/// Parse `u,v,p` into endpoints and a probability.
fn parse_edge_triple(flag: &str, value: &str) -> Result<(u32, u32, f64), CliError> {
    let parts: Vec<&str> = value.split(',').collect();
    if parts.len() != 3 {
        return Err(CliError(format!("{flag} expects u,v,p — got {value:?}")));
    }
    let p: f64 = parse_number(flag, parts[2].trim())?;
    if !imgraph::is_valid_probability(p) {
        return Err(CliError(format!("{flag} probability {p} outside (0, 1]")));
    }
    Ok((
        parse_number(flag, parts[0].trim())?,
        parse_number(flag, parts[1].trim())?,
        p,
    ))
}

/// `mutate` keeps its deltas in command-line order, so it reads the pairs
/// directly.
fn mutate(given: &Given) -> Result<Command, CliError> {
    let mut deltas: Vec<GraphDelta> = Vec::new();
    for &(flag, operand) in &given.pairs {
        let Some(value) = operand else { continue };
        match flag {
            "--insert" => {
                let (source, target, probability) = parse_edge_triple(flag, value)?;
                deltas.push(GraphDelta::InsertEdge {
                    source,
                    target,
                    probability,
                });
            }
            "--delete" => {
                let (source, target) = parse_edge_pair(flag, value)?;
                deltas.push(GraphDelta::DeleteEdge { source, target });
            }
            "--setp" => {
                let (source, target, probability) = parse_edge_triple(flag, value)?;
                deltas.push(GraphDelta::SetProbability {
                    source,
                    target,
                    probability,
                });
            }
            "--file" => {
                let text = std::fs::read_to_string(value)
                    .map_err(|e| CliError(format!("cannot read delta script {value:?}: {e}")))?;
                deltas.extend(
                    crate::protocol::parse_delta_script(&text)
                        .map_err(|e| CliError(e.to_string()))?,
                );
            }
            _ => {}
        }
    }
    if deltas.is_empty() {
        return Err(CliError(format!(
            "mutate requires at least one of {}",
            MUTATE.list_flags(&["--addr"])
        )));
    }
    Ok(Command::Call {
        addrs: given.all("--addr").map(str::to_string).collect(),
        request: Request::MutateBatch { deltas },
    })
}

fn compact(given: &Given) -> Result<Command, CliError> {
    match (
        given.last("--addr"),
        given.last("--index"),
        given.last("--out"),
    ) {
        (Some(addr), None, None) => Ok(Command::Call {
            addrs: vec![addr],
            request: Request::Compact,
        }),
        (None, Some(index), Some(out)) => Ok(Command::Compact { index, out }),
        (None, Some(_), None) => Err(CliError("compact --index requires --out".to_string())),
        (None, None, _) => Err(CliError(
            "compact requires --addr or --index/--out".to_string(),
        )),
        (Some(_), _, _) => Err(CliError(
            "compact accepts either --addr or --index/--out, not both".to_string(),
        )),
    }
}

fn serve(given: &Given) -> Result<Command, CliError> {
    let workers = given.number("--workers")?.unwrap_or(4usize);
    positive("--workers", workers)?;
    let cache = (given.number("--cache")?).unwrap_or(crate::engine::DEFAULT_CACHE_CAPACITY);
    positive("--cache", cache)?;
    let compact_log_len: Option<usize> = given.number("--compact-log-len")?;
    if let Some(len) = compact_log_len {
        positive("--compact-log-len", len)?;
    }
    let compact_dirty: Option<f64> = given.number("--compact-dirty")?;
    if let Some(f) = compact_dirty {
        if !(f > 0.0 && f.is_finite()) {
            return Err(CliError(
                "--compact-dirty must be a positive fraction".to_string(),
            ));
        }
    }
    let wal = given.last("--wal");
    let repl_addr = given.last("--repl-addr");
    if repl_addr.is_some() && wal.is_none() {
        return Err(CliError(
            "--repl-addr requires --wal (followers tail the write-ahead log)".to_string(),
        ));
    }
    Ok(Command::Serve {
        index: given.required("--index"),
        addr: given
            .last("--addr")
            .unwrap_or_else(|| "127.0.0.1:7431".to_string()),
        workers,
        cache,
        compact_log_len,
        compact_dirty,
        wal,
        metrics_addr: given.last("--metrics-addr"),
        slow_micros: (given.number("--slow-micros")?)
            .unwrap_or(crate::obs::DEFAULT_SLOW_THRESHOLD_MICROS),
        repl_addr,
        follow: given.last("--follow"),
    })
}

/// Per-shard probe deadline when `route` is given none.
pub const DEFAULT_ROUTE_DEADLINE_MS: u64 = 2_000;

fn route(given: &Given) -> Result<Command, CliError> {
    let deadline_ms = given
        .number("--deadline-ms")?
        .unwrap_or(DEFAULT_ROUTE_DEADLINE_MS);
    positive("--deadline-ms", deadline_ms)?;
    Ok(Command::Route {
        addrs: given.all("--addr").map(str::to_string).collect(),
        metrics_addr: given.required("--metrics-addr"),
        deadline_ms,
    })
}

/// `query` sends exactly one request. `--algorithm` is read before the
/// request flags are walked, so it applies to `--topk` from either side.
fn query(given: &Given) -> Result<Command, CliError> {
    let algorithm = given
        .parsed("--algorithm", |value| {
            TopKAlgorithm::parse(value).map_err(|e| CliError(e.to_string()))
        })?
        .unwrap_or(TopKAlgorithm::Greedy);
    let requests = QUERY.list_flags(&["--addr", "--algorithm"]);
    let mut request: Option<Request> = None;
    for &(flag, operand) in &given.pairs {
        let next = match (flag, operand) {
            ("--estimate", Some(value)) => Request::Estimate {
                seeds: parse_seed_list(value)?,
            },
            ("--topk", Some(value)) => {
                let k: usize = parse_number(flag, value)?;
                positive(flag, k)?;
                Request::TopK { k, algorithm }
            }
            ("--info", _) => Request::Info,
            ("--stats", _) => Request::Stats,
            ("--metrics", _) => Request::Metrics,
            ("--health", _) => Request::Health,
            ("--events", _) => Request::Events,
            _ => continue,
        };
        if request.replace(next).is_some() {
            return Err(CliError(format!("query accepts exactly one of {requests}")));
        }
    }
    Ok(Command::Call {
        addrs: given.all("--addr").map(str::to_string).collect(),
        request: request.ok_or_else(|| CliError(format!("query requires one of {requests}")))?,
    })
}

fn loadtest(given: &Given) -> Result<Command, CliError> {
    let connections = given.number("--connections")?.unwrap_or(4usize);
    let requests = given.number("--requests")?.unwrap_or(250usize);
    let k = given.number("--k")?.unwrap_or(3usize);
    let arrival_rps: Option<u64> = given.number("--arrival-rps")?;
    for (flag, value) in [
        ("--connections", connections),
        ("--requests", requests),
        ("--k", k),
    ] {
        positive(flag, value)?;
    }
    if let Some(rps) = arrival_rps {
        positive("--arrival-rps", rps)?;
    }
    Ok(Command::Loadtest {
        addrs: given.all("--addr").map(str::to_string).collect(),
        connections,
        requests,
        k,
        arrival_rps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn build_parses_with_defaults_and_overrides() {
        let cmd = parse(&args(&["build", "--dataset", "karate", "--out", "k.imx"])).unwrap();
        assert_eq!(
            cmd,
            Command::Build {
                dataset: "karate".into(),
                model: "uc0.1".into(),
                pool: 100_000,
                seed: 7,
                out: "k.imx".into(),
                deltas: None,
                shard: None,
                pool_layout: PoolLayout::Raw,
            }
        );
        let cmd = parse(&args(&[
            "build",
            "--dataset",
            "ba-s",
            "--model",
            "iwc",
            "--pool",
            "500",
            "--seed",
            "9",
            "--out",
            "b.imx",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Build {
                dataset: "ba-s".into(),
                model: "iwc".into(),
                pool: 500,
                seed: 9,
                out: "b.imx".into(),
                deltas: None,
                shard: None,
                pool_layout: PoolLayout::Raw,
            }
        );
    }

    #[test]
    fn pool_layout_flags_parse_and_reject_unknown_labels() {
        for (label, layout) in [
            ("raw", PoolLayout::Raw),
            ("compressed", PoolLayout::Compressed),
            ("tiered", PoolLayout::Tiered),
        ] {
            match parse(&args(&[
                "build",
                "--dataset",
                "karate",
                "--out",
                "k.imx",
                "--pool-layout",
                label,
            ]))
            .unwrap()
            {
                Command::Build { pool_layout, .. } => assert_eq!(pool_layout, layout),
                other => panic!("unexpected command {other:?}"),
            }
            // The served layout is the artifact's: serve takes no override.
            let err = parse(&args(&[
                "serve",
                "--index",
                "x.imx",
                "--pool-layout",
                label,
            ]))
            .unwrap_err();
            assert_eq!(err.0, "unknown option \"--pool-layout\" for serve");
        }
        // Raw is the build default.
        match parse(&args(&["build", "--dataset", "k", "--out", "x"])).unwrap() {
            Command::Build { pool_layout, .. } => assert_eq!(pool_layout, PoolLayout::Raw),
            other => panic!("unexpected command {other:?}"),
        }
        let err = parse(&args(&[
            "build",
            "--dataset",
            "k",
            "--out",
            "x",
            "--pool-layout",
            "zip",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("zip"), "{err}");
    }

    /// Rejection follows from the table: every subcommand refuses an unknown
    /// option and a stray positional, every operand-taking flag refuses to
    /// end the line without its operand, and every entry reaches a
    /// constructor.
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
            if let Some(flag) = sub.flags.iter().find(|flag| flag.required) {
                let err = parse(&args(&[sub.name])).unwrap_err();
                assert_eq!(err.0, format!("{} requires {}", sub.name, flag.name));
            }
            // Given its required flags, each entry reaches its constructor.
            let mut minimal = vec![sub.name];
            for flag in sub.flags.iter().filter(|flag| flag.required) {
                minimal.extend([flag.name, "1"]);
            }
            let _ = parse(&args(&minimal));
        }
        for bad in [
            vec!["build", "--dataset", "karate", "--out", "x", "--frobnicate"],
            vec!["serve", "--index", "x", "--nope"],
            vec!["query", "--addr", "a:1", "--info", "--wat"],
            vec!["loadtest", "--addr", "a:1", "--turbo"],
            vec!["mutate", "--addr", "a:1", "--insert", "0,1,0.5", "--warp"],
            // Atomic is the only mode: no flag, and no accepted-and-ignored alias.
            vec!["mutate", "--addr", "a:1", "--batch", "--delete", "0,1"],
        ] {
            assert!(parse(&args(&bad)).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn malformed_numbers_are_rejected() {
        assert!(parse(&args(&[
            "build",
            "--dataset",
            "k",
            "--pool",
            "many",
            "--out",
            "x"
        ]))
        .is_err());
        assert!(parse(&args(&["serve", "--index", "x", "--workers", "-2"])).is_err());
        assert!(parse(&args(&["query", "--addr", "a:1", "--topk", "3.5"])).is_err());
        assert!(parse(&args(&["loadtest", "--addr", "a:1", "--requests", ""])).is_err());
    }

    #[test]
    fn missing_values_and_required_flags_are_rejected() {
        assert!(
            parse(&args(&["build", "--out", "x"])).is_err(),
            "missing --dataset"
        );
        assert!(parse(&args(&["serve"])).is_err(), "missing --index");
        assert!(
            parse(&args(&["query", "--addr", "a:1"])).is_err(),
            "missing request"
        );
        assert!(parse(&args(&["loadtest"])).is_err(), "missing --addr");
        assert!(parse(&args(&[])).is_err(), "missing subcommand");
        assert!(parse(&args(&["conquer"])).is_err(), "unknown subcommand");
    }

    #[test]
    fn zero_values_are_rejected() {
        assert!(parse(&args(&[
            "build",
            "--dataset",
            "k",
            "--pool",
            "0",
            "--out",
            "x"
        ]))
        .is_err());
        assert!(parse(&args(&["serve", "--index", "x", "--workers", "0"])).is_err());
        assert!(parse(&args(&["query", "--addr", "a:1", "--topk", "0"])).is_err());
        assert!(parse(&args(&["loadtest", "--addr", "a:1", "--k", "0"])).is_err());
    }

    #[test]
    fn mutate_parses_flags_in_order() {
        let cmd = parse(&args(&[
            "mutate", "--addr", "a:1", "--insert", "0,33,0.5", "--delete", "0,1", "--setp",
            "2,3,1.0",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Call {
                addrs: vec!["a:1".into()],
                request: Request::MutateBatch {
                    deltas: vec![
                        GraphDelta::InsertEdge {
                            source: 0,
                            target: 33,
                            probability: 0.5
                        },
                        GraphDelta::DeleteEdge {
                            source: 0,
                            target: 1
                        },
                        GraphDelta::SetProbability {
                            source: 2,
                            target: 3,
                            probability: 1.0
                        },
                    ],
                },
            }
        );
        // Malformed specs are rejected with the flag named.
        assert!(parse(&args(&["mutate", "--addr", "a:1", "--insert", "0,1"])).is_err());
        assert!(parse(&args(&["mutate", "--addr", "a:1", "--delete", "0"])).is_err());
        assert!(parse(&args(&["mutate", "--addr", "a:1", "--setp", "0,1,0.0"])).is_err());
        assert!(parse(&args(&["mutate", "--addr", "a:1", "--insert", "0,1,2.5"])).is_err());
        // Required pieces.
        assert!(
            parse(&args(&["mutate", "--addr", "a:1"])).is_err(),
            "no deltas"
        );
        assert!(
            parse(&args(&["mutate", "--insert", "0,1,0.5"])).is_err(),
            "no addr"
        );
        assert!(
            parse(&args(&[
                "mutate",
                "--addr",
                "a:1",
                "--file",
                "/no/such/file"
            ]))
            .is_err(),
            "unreadable script"
        );
    }

    #[test]
    fn mutate_reads_delta_scripts_from_files() {
        let path =
            std::env::temp_dir().join(format!("imserve_cli_deltas_{}.jsonl", std::process::id()));
        std::fs::write(
            &path,
            "{\"InsertEdge\":{\"source\":1,\"target\":2,\"probability\":0.25}}\n",
        )
        .unwrap();
        let cmd = parse(&args(&[
            "mutate",
            "--addr",
            "a:1",
            "--file",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            cmd,
            Command::Call {
                addrs: vec!["a:1".into()],
                request: Request::MutateBatch {
                    deltas: vec![GraphDelta::InsertEdge {
                        source: 1,
                        target: 2,
                        probability: 0.25
                    }],
                },
            }
        );
    }

    #[test]
    fn compact_parses_server_and_file_targets() {
        assert_eq!(
            parse(&args(&["compact", "--addr", "a:1"])).unwrap(),
            Command::Call {
                addrs: vec!["a:1".into()],
                request: Request::Compact,
            }
        );
        assert_eq!(
            parse(&args(&["compact", "--index", "a.imx", "--out", "b.imx"])).unwrap(),
            Command::Compact {
                index: "a.imx".into(),
                out: "b.imx".into(),
            }
        );
        // Exactly one target, fully specified.
        assert!(parse(&args(&["compact"])).is_err());
        assert!(parse(&args(&["compact", "--index", "a.imx"])).is_err());
        assert!(parse(&args(&["compact", "--addr", "a:1", "--index", "a.imx"])).is_err());
        assert!(parse(&args(&["compact", "--frobnicate"])).is_err());
    }

    #[test]
    fn serve_parses_compaction_policy_flags() {
        match parse(&args(&[
            "serve",
            "--index",
            "x.imx",
            "--compact-log-len",
            "128",
            "--compact-dirty",
            "0.25",
        ]))
        .unwrap()
        {
            Command::Serve {
                compact_log_len,
                compact_dirty,
                ..
            } => {
                assert_eq!(compact_log_len, Some(128));
                assert_eq!(compact_dirty, Some(0.25));
            }
            other => panic!("unexpected command {other:?}"),
        }
        // Off by default; invalid thresholds rejected.
        match parse(&args(&["serve", "--index", "x.imx"])).unwrap() {
            Command::Serve {
                compact_log_len,
                compact_dirty,
                ..
            } => {
                assert_eq!(compact_log_len, None);
                assert_eq!(compact_dirty, None);
            }
            other => panic!("unexpected command {other:?}"),
        }
        assert!(parse(&args(&["serve", "--index", "x", "--compact-log-len", "0"])).is_err());
        assert!(parse(&args(&["serve", "--index", "x", "--compact-dirty", "-1"])).is_err());
        assert!(parse(&args(&["serve", "--index", "x", "--compact-dirty", "nope"])).is_err());
    }

    #[test]
    fn serve_front_end_flags_are_unknown_options() {
        // One front end: neither switch names a choice any more.
        for flag in ["--threaded", "--reactor"] {
            let err = parse(&args(&["serve", "--index", "x.imx", flag])).unwrap_err();
            assert_eq!(err.0, format!("unknown option \"{flag}\" for serve"));
        }
    }

    #[test]
    fn serve_metrics_flags_parse_with_defaults() {
        // Off by default, with the documented slow-query threshold.
        match parse(&args(&["serve", "--index", "x.imx"])).unwrap() {
            Command::Serve {
                metrics_addr,
                slow_micros,
                ..
            } => {
                assert_eq!(metrics_addr, None);
                assert_eq!(slow_micros, crate::obs::DEFAULT_SLOW_THRESHOLD_MICROS);
            }
            other => panic!("unexpected command {other:?}"),
        }
        match parse(&args(&[
            "serve",
            "--index",
            "x.imx",
            "--metrics-addr",
            "127.0.0.1:0",
            "--slow-micros",
            "2500",
        ]))
        .unwrap()
        {
            Command::Serve {
                metrics_addr,
                slow_micros,
                ..
            } => {
                assert_eq!(metrics_addr.as_deref(), Some("127.0.0.1:0"));
                assert_eq!(slow_micros, 2500);
            }
            other => panic!("unexpected command {other:?}"),
        }
        assert!(parse(&args(&["serve", "--index", "x", "--slow-micros", "soon"])).is_err());
    }

    #[test]
    fn query_metrics_parses_and_is_exclusive() {
        assert_eq!(
            parse(&args(&["query", "--addr", "a:1", "--metrics"])).unwrap(),
            Command::Call {
                addrs: vec!["a:1".into()],
                request: Request::Metrics,
            }
        );
        assert!(parse(&args(&["query", "--addr", "a:1", "--metrics", "--stats"])).is_err());
    }

    #[test]
    fn loadtest_arrival_rate_parses_and_rejects_zero() {
        match parse(&args(&["loadtest", "--addr", "a:1"])).unwrap() {
            Command::Loadtest { arrival_rps, .. } => assert_eq!(arrival_rps, None),
            other => panic!("unexpected command {other:?}"),
        }
        match parse(&args(&[
            "loadtest",
            "--addr",
            "a:1",
            "--arrival-rps",
            "500",
        ]))
        .unwrap()
        {
            Command::Loadtest { arrival_rps, .. } => assert_eq!(arrival_rps, Some(500)),
            other => panic!("unexpected command {other:?}"),
        }
        assert!(parse(&args(&["loadtest", "--addr", "a:1", "--arrival-rps", "0"])).is_err());
        assert!(parse(&args(&["loadtest", "--addr", "a:1", "--arrival-rps", "x"])).is_err());
    }

    #[test]
    fn build_accepts_a_delta_script_path() {
        let cmd = parse(&args(&[
            "build",
            "--dataset",
            "karate",
            "--out",
            "k.imx",
            "--deltas",
            "d.jsonl",
        ]))
        .unwrap();
        match cmd {
            Command::Build { deltas, .. } => assert_eq!(deltas.as_deref(), Some("d.jsonl")),
            other => panic!("unexpected command {other:?}"),
        }
    }

    #[test]
    fn query_stats_parses_and_is_exclusive() {
        assert_eq!(
            parse(&args(&["query", "--addr", "a:1", "--stats"])).unwrap(),
            Command::Call {
                addrs: vec!["a:1".into()],
                request: Request::Stats,
            }
        );
        assert!(parse(&args(&["query", "--addr", "a:1", "--stats", "--info"])).is_err());
    }

    #[test]
    fn query_specs_parse() {
        let cmd = parse(&args(&["query", "--addr", "a:1", "--estimate", "0, 5,9"])).unwrap();
        assert_eq!(
            cmd,
            Command::Call {
                addrs: vec!["a:1".into()],
                request: Request::Estimate {
                    seeds: vec![0, 5, 9]
                },
            }
        );
        let cmd = parse(&args(&[
            "query",
            "--addr",
            "a:1",
            "--topk",
            "4",
            "--algorithm",
            "singleton",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Call {
                addrs: vec!["a:1".into()],
                request: Request::TopK {
                    k: 4,
                    algorithm: TopKAlgorithm::SingletonRank
                },
            }
        );
        // Algorithm flag before --topk also applies.
        let cmd = parse(&args(&[
            "query",
            "--addr",
            "a:1",
            "--algorithm",
            "singleton",
            "--topk",
            "2",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Call {
                addrs: vec!["a:1".into()],
                request: Request::TopK {
                    k: 2,
                    algorithm: TopKAlgorithm::SingletonRank
                },
            }
        );
        assert!(parse(&args(&["query", "--addr", "a:1", "--estimate", "1,x"])).is_err());
        assert!(parse(&args(&["query", "--addr", "a:1", "--info", "--topk", "2"])).is_err());
    }

    #[test]
    fn query_health_and_events_parse_and_are_exclusive() {
        assert_eq!(
            parse(&args(&["query", "--addr", "a:1", "--health"])).unwrap(),
            Command::Call {
                addrs: vec!["a:1".into()],
                request: Request::Health,
            }
        );
        assert_eq!(
            parse(&args(&["query", "--addr", "a:1", "--events"])).unwrap(),
            Command::Call {
                addrs: vec!["a:1".into()],
                request: Request::Events,
            }
        );
        assert!(parse(&args(&["query", "--addr", "a:1", "--health", "--stats"])).is_err());
        assert!(parse(&args(&["query", "--addr", "a:1", "--events", "--health"])).is_err());
    }

    #[test]
    fn serve_replication_flags_parse_with_their_constraints() {
        // Leader mode: --repl-addr needs a WAL to tail.
        match parse(&args(&[
            "serve",
            "--index",
            "x.imx",
            "--wal",
            "x.wal",
            "--repl-addr",
            "127.0.0.1:0",
        ]))
        .unwrap()
        {
            Command::Serve {
                repl_addr, follow, ..
            } => {
                assert_eq!(repl_addr.as_deref(), Some("127.0.0.1:0"));
                assert_eq!(follow, None);
            }
            other => panic!("unexpected command {other:?}"),
        }
        let err = parse(&args(&["serve", "--index", "x", "--repl-addr", "a:1"])).unwrap_err();
        assert!(err.to_string().contains("--wal"), "{err}");
        // Follower mode: --follow parses with or without a WAL (the WAL is
        // the durable cursor; without it the cursor restarts at the
        // artifact's epoch).
        match parse(&args(&["serve", "--index", "x.imx", "--follow", "l:1"])).unwrap() {
            Command::Serve {
                repl_addr, follow, ..
            } => {
                assert_eq!(repl_addr, None);
                assert_eq!(follow.as_deref(), Some("l:1"));
            }
            other => panic!("unexpected command {other:?}"),
        }
    }

    #[test]
    fn reload_and_promote_parse_with_required_flags() {
        assert_eq!(
            parse(&args(&["reload", "--addr", "a:1", "--index", "c.imx"])).unwrap(),
            Command::Call {
                addrs: vec!["a:1".into()],
                request: Request::Reload {
                    path: "c.imx".into()
                },
            }
        );
        assert!(parse(&args(&["reload", "--addr", "a:1"])).is_err());
        assert!(parse(&args(&["reload", "--index", "c.imx"])).is_err());
        assert!(parse(&args(&["reload", "--addr", "a:1", "--index", "c", "--x"])).is_err());

        assert_eq!(
            parse(&args(&["promote", "--addr", "f:1"])).unwrap(),
            Command::Call {
                addrs: vec!["f:1".into()],
                request: Request::Promote {
                    expected_epoch: None
                },
            }
        );
        assert_eq!(
            parse(&args(&[
                "promote",
                "--addr",
                "f:1",
                "--expected-epoch",
                "12"
            ]))
            .unwrap(),
            Command::Call {
                addrs: vec!["f:1".into()],
                request: Request::Promote {
                    expected_epoch: Some(12)
                },
            }
        );
        assert!(parse(&args(&["promote"])).is_err());
        assert!(parse(&args(&[
            "promote",
            "--addr",
            "f:1",
            "--expected-epoch",
            "x"
        ]))
        .is_err());
    }

    #[test]
    fn route_parses_with_defaults_and_rejects_bad_flags() {
        assert_eq!(
            parse(&args(&[
                "route",
                "--addr",
                "a:1",
                "--addr",
                "b:2",
                "--metrics-addr",
                "127.0.0.1:0",
            ]))
            .unwrap(),
            Command::Route {
                addrs: vec!["a:1".into(), "b:2".into()],
                metrics_addr: "127.0.0.1:0".into(),
                deadline_ms: DEFAULT_ROUTE_DEADLINE_MS,
            }
        );
        match parse(&args(&[
            "route",
            "--addr",
            "a:1",
            "--metrics-addr",
            "m:9",
            "--deadline-ms",
            "250",
        ]))
        .unwrap()
        {
            Command::Route { deadline_ms, .. } => assert_eq!(deadline_ms, 250),
            other => panic!("unexpected command {other:?}"),
        }
        // Required pieces and value sanity.
        assert!(
            parse(&args(&["route", "--metrics-addr", "m:9"])).is_err(),
            "missing --addr"
        );
        assert!(
            parse(&args(&["route", "--addr", "a:1"])).is_err(),
            "missing --metrics-addr"
        );
        assert!(
            parse(&args(&[
                "route",
                "--addr",
                "a:1",
                "--metrics-addr",
                "m:9",
                "--deadline-ms",
                "0"
            ]))
            .is_err(),
            "zero deadline"
        );
        assert!(parse(&args(&["route", "--addr", "a:1", "--turbo"])).is_err());
    }
}
