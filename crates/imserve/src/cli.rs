//! Strict argument parsing for the `imserve` binary.
//!
//! Parsing is pure (`&[String] -> Result<Command, CliError>`) so every rule —
//! unknown flags rejected, malformed numbers rejected, required flags
//! enforced — is unit-testable without spawning the binary.

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
        /// Physical pool-store layout persisted in the artifact: `raw`
        /// (`POOL` section), `compressed` or `tiered` (`PCMP` section).
        pool_layout: PoolLayout,
    },
    /// `imserve serve`: load an index and answer TCP queries.
    Serve {
        /// Index artifact path.
        index: String,
        /// Bind address (`host:port`; port 0 picks an ephemeral port).
        addr: String,
        /// Front end: the event-driven reactor (default) or the threaded
        /// turn-queue fallback (`--threaded`).
        reactor: bool,
        /// Worker threads (reactor: compute-pool threads; threaded: turn
        /// workers).
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
        /// Override the loaded artifact's pool layout before serving
        /// (`None` keeps the persisted layout). Note a `tiered` override on
        /// a `POOL` artifact stays fully resident — cold demotion needs the
        /// artifact itself to carry a `PCMP` section.
        pool_layout: Option<PoolLayout>,
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

/// One-line usage summary per subcommand.
pub const USAGE: &str = "usage:
  imserve build    --dataset <name> [--model uc0.1|uc0.01|iwc|owc] [--pool N] [--seed S] [--deltas <script>] [--shard i/N] [--pool-layout raw|compressed|tiered] --out <path>
  imserve serve    --index <path> [--addr host:port] [--reactor | --threaded] [--workers N] [--cache N] [--compact-log-len N] [--compact-dirty F] [--wal <path>] [--metrics-addr host:port] [--slow-micros N] [--repl-addr host:port] [--follow host:port] [--pool-layout raw|compressed|tiered]
  imserve route    --addr host:port[|replica…] [--addr …] --metrics-addr host:port [--deadline-ms N]
  imserve reload   --addr host:port --index <path>
  imserve promote  --addr host:port [--expected-epoch N]
  imserve query    --addr host:port [--addr …] (--estimate v1,v2,… | --topk K [--algorithm greedy|singleton] | --info | --stats | --metrics | --health | --events)
  imserve mutate   --addr host:port [--addr …] (--insert u,v,p | --delete u,v | --setp u,v,p | --file <script>)…
  imserve compact  (--addr host:port | --index <path> --out <path>)
  imserve loadtest --addr host:port [--addr …] [--connections N] [--requests N] [--k K] [--arrival-rps R]

delta scripts hold one JSON delta per line, e.g. {\"InsertEdge\":{\"source\":0,\"target\":33,\"probability\":0.5}}
mutate applies its deltas atomically (all-or-nothing, one CSR patch); --compact-* enable auto-compaction
--shard i/N builds shard i of a global pool; several --addr values route queries through a sharded service
--wal <path> makes accepted mutations crash-durable between index saves
--reactor (default) serves every connection from one event loop; --threaded keeps the turn-queue worker pool
--arrival-rps switches the loadtest to an open-loop schedule measuring latency from each scheduled arrival
--metrics-addr exposes the operational HTTP surface (/metrics, /events, /healthz, /readyz); --slow-micros sets the slow-query log threshold
route serves the cluster's federated scrape and readiness over its shards; --deadline-ms bounds each shard probe
--repl-addr (with --wal) streams this server's WAL to followers; --follow makes a read-only replica of the given leader
route --addr takes |-separated replicas per shard (leader first): reads fail over to a caught-up follower
reload hot-swaps a validated artifact into a running server; promote turns a follower writable (--expected-epoch names the epoch it must have reached)
--pool-layout picks the pool storage engine: raw lists, delta-varint compressed, or tiered (compressed with cold blocks left in the artifact file)";

/// Parse a flag's numeric value, naming the flag in the error.
///
/// Shared with `imexp`'s argument parser, so value-parsing errors read the
/// same across the workspace binaries.
pub fn parse_number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, CliError> {
    value
        .parse()
        .map_err(|_| CliError(format!("malformed value {value:?} for {flag}")))
}

/// A flag's value, erroring when it is missing (shared with `imexp`).
pub fn take_value<'a>(flag: &str, args: &'a [String], i: &mut usize) -> Result<&'a str, CliError> {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .ok_or_else(|| CliError(format!("{flag} requires a value")))
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
    let Some(subcommand) = args.first() else {
        return Err(CliError("missing subcommand".to_string()));
    };
    let rest = &args[1..];
    match subcommand.as_str() {
        "build" => parse_build(rest),
        "serve" => parse_serve(rest),
        "route" => parse_route(rest),
        "reload" => parse_reload(rest),
        "promote" => parse_promote(rest),
        "query" => parse_query(rest),
        "mutate" => parse_mutate(rest),
        "compact" => parse_compact(rest),
        "loadtest" => parse_loadtest(rest),
        other => Err(CliError(format!("unknown subcommand {other:?}"))),
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

fn parse_build(args: &[String]) -> Result<Command, CliError> {
    let mut dataset: Option<String> = None;
    let mut model = "uc0.1".to_string();
    let mut pool = 100_000usize;
    let mut seed = 7u64;
    let mut out: Option<String> = None;
    let mut deltas: Option<String> = None;
    let mut shard: Option<(usize, usize)> = None;
    let mut pool_layout = PoolLayout::Raw;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--dataset" => dataset = Some(take_value("--dataset", args, &mut i)?.to_string()),
            "--model" => model = take_value("--model", args, &mut i)?.to_string(),
            "--pool" => pool = parse_number("--pool", take_value("--pool", args, &mut i)?)?,
            "--seed" => seed = parse_number("--seed", take_value("--seed", args, &mut i)?)?,
            "--out" => out = Some(take_value("--out", args, &mut i)?.to_string()),
            "--deltas" => deltas = Some(take_value("--deltas", args, &mut i)?.to_string()),
            "--shard" => shard = Some(parse_shard_spec(take_value("--shard", args, &mut i)?)?),
            "--pool-layout" => {
                pool_layout = parse_pool_layout(take_value("--pool-layout", args, &mut i)?)?;
            }
            other => return Err(CliError(format!("unknown option {other:?} for build"))),
        }
        i += 1;
    }
    if pool == 0 {
        return Err(CliError("--pool must be positive".to_string()));
    }
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
        dataset: dataset.ok_or_else(|| CliError("build requires --dataset".to_string()))?,
        model,
        pool,
        seed,
        out: out.ok_or_else(|| CliError("build requires --out".to_string()))?,
        deltas,
        shard,
        pool_layout,
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

fn parse_mutate(args: &[String]) -> Result<Command, CliError> {
    let mut addrs: Vec<String> = Vec::new();
    let mut deltas: Vec<GraphDelta> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addrs.push(take_value("--addr", args, &mut i)?.to_string()),
            "--insert" => {
                let (source, target, probability) =
                    parse_edge_triple("--insert", take_value("--insert", args, &mut i)?)?;
                deltas.push(GraphDelta::InsertEdge {
                    source,
                    target,
                    probability,
                });
            }
            "--delete" => {
                let (source, target) =
                    parse_edge_pair("--delete", take_value("--delete", args, &mut i)?)?;
                deltas.push(GraphDelta::DeleteEdge { source, target });
            }
            "--setp" => {
                let (source, target, probability) =
                    parse_edge_triple("--setp", take_value("--setp", args, &mut i)?)?;
                deltas.push(GraphDelta::SetProbability {
                    source,
                    target,
                    probability,
                });
            }
            "--file" => {
                let path = take_value("--file", args, &mut i)?;
                let text = std::fs::read_to_string(path)
                    .map_err(|e| CliError(format!("cannot read delta script {path:?}: {e}")))?;
                deltas.extend(
                    crate::protocol::parse_delta_script(&text)
                        .map_err(|e| CliError(e.to_string()))?,
                );
            }
            other => return Err(CliError(format!("unknown option {other:?} for mutate"))),
        }
        i += 1;
    }
    if deltas.is_empty() {
        return Err(CliError(
            "mutate requires at least one of --insert, --delete, --setp or --file".to_string(),
        ));
    }
    if addrs.is_empty() {
        return Err(CliError("mutate requires --addr".to_string()));
    }
    Ok(Command::Call {
        addrs,
        request: Request::MutateBatch { deltas },
    })
}

fn parse_compact(args: &[String]) -> Result<Command, CliError> {
    let mut addr: Option<String> = None;
    let mut index: Option<String> = None;
    let mut out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = Some(take_value("--addr", args, &mut i)?.to_string()),
            "--index" => index = Some(take_value("--index", args, &mut i)?.to_string()),
            "--out" => out = Some(take_value("--out", args, &mut i)?.to_string()),
            other => return Err(CliError(format!("unknown option {other:?} for compact"))),
        }
        i += 1;
    }
    match (addr, index, out) {
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

fn parse_serve(args: &[String]) -> Result<Command, CliError> {
    let mut index: Option<String> = None;
    let mut addr = "127.0.0.1:7431".to_string();
    let mut reactor: Option<bool> = None;
    let mut workers = 4usize;
    let mut cache = crate::engine::DEFAULT_CACHE_CAPACITY;
    let mut compact_log_len: Option<usize> = None;
    let mut compact_dirty: Option<f64> = None;
    let mut wal: Option<String> = None;
    let mut metrics_addr: Option<String> = None;
    let mut slow_micros = crate::obs::DEFAULT_SLOW_THRESHOLD_MICROS;
    let mut repl_addr: Option<String> = None;
    let mut follow: Option<String> = None;
    let mut pool_layout: Option<PoolLayout> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--index" => index = Some(take_value("--index", args, &mut i)?.to_string()),
            "--pool-layout" => {
                pool_layout = Some(parse_pool_layout(take_value(
                    "--pool-layout",
                    args,
                    &mut i,
                )?)?);
            }
            "--wal" => wal = Some(take_value("--wal", args, &mut i)?.to_string()),
            "--addr" => addr = take_value("--addr", args, &mut i)?.to_string(),
            "--repl-addr" => {
                repl_addr = Some(take_value("--repl-addr", args, &mut i)?.to_string());
            }
            "--follow" => follow = Some(take_value("--follow", args, &mut i)?.to_string()),
            "--metrics-addr" => {
                metrics_addr = Some(take_value("--metrics-addr", args, &mut i)?.to_string());
            }
            "--slow-micros" => {
                slow_micros =
                    parse_number("--slow-micros", take_value("--slow-micros", args, &mut i)?)?;
            }
            "--reactor" => {
                if reactor == Some(false) {
                    return Err(CliError(
                        "--reactor and --threaded are mutually exclusive".to_string(),
                    ));
                }
                reactor = Some(true);
            }
            "--threaded" => {
                if reactor == Some(true) {
                    return Err(CliError(
                        "--reactor and --threaded are mutually exclusive".to_string(),
                    ));
                }
                reactor = Some(false);
            }
            "--workers" => {
                workers = parse_number("--workers", take_value("--workers", args, &mut i)?)?;
            }
            "--cache" => cache = parse_number("--cache", take_value("--cache", args, &mut i)?)?,
            "--compact-log-len" => {
                compact_log_len = Some(parse_number(
                    "--compact-log-len",
                    take_value("--compact-log-len", args, &mut i)?,
                )?);
            }
            "--compact-dirty" => {
                compact_dirty = Some(parse_number(
                    "--compact-dirty",
                    take_value("--compact-dirty", args, &mut i)?,
                )?);
            }
            other => return Err(CliError(format!("unknown option {other:?} for serve"))),
        }
        i += 1;
    }
    if workers == 0 {
        return Err(CliError("--workers must be positive".to_string()));
    }
    if cache == 0 {
        return Err(CliError("--cache must be positive".to_string()));
    }
    if compact_log_len == Some(0) {
        return Err(CliError("--compact-log-len must be positive".to_string()));
    }
    if let Some(f) = compact_dirty {
        if !(f > 0.0 && f.is_finite()) {
            return Err(CliError(
                "--compact-dirty must be a positive fraction".to_string(),
            ));
        }
    }
    if repl_addr.is_some() && wal.is_none() {
        return Err(CliError(
            "--repl-addr requires --wal (followers tail the write-ahead log)".to_string(),
        ));
    }
    Ok(Command::Serve {
        index: index.ok_or_else(|| CliError("serve requires --index".to_string()))?,
        addr,
        reactor: reactor.unwrap_or(true),
        workers,
        cache,
        compact_log_len,
        compact_dirty,
        wal,
        metrics_addr,
        slow_micros,
        repl_addr,
        follow,
        pool_layout,
    })
}

fn parse_reload(args: &[String]) -> Result<Command, CliError> {
    let mut addr: Option<String> = None;
    let mut index: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = Some(take_value("--addr", args, &mut i)?.to_string()),
            "--index" => index = Some(take_value("--index", args, &mut i)?.to_string()),
            other => return Err(CliError(format!("unknown option {other:?} for reload"))),
        }
        i += 1;
    }
    Ok(Command::Call {
        addrs: vec![addr.ok_or_else(|| CliError("reload requires --addr".to_string()))?],
        request: Request::Reload {
            path: index.ok_or_else(|| CliError("reload requires --index".to_string()))?,
        },
    })
}

fn parse_promote(args: &[String]) -> Result<Command, CliError> {
    let mut addr: Option<String> = None;
    let mut expected_epoch: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = Some(take_value("--addr", args, &mut i)?.to_string()),
            "--expected-epoch" => {
                expected_epoch = Some(parse_number(
                    "--expected-epoch",
                    take_value("--expected-epoch", args, &mut i)?,
                )?);
            }
            other => return Err(CliError(format!("unknown option {other:?} for promote"))),
        }
        i += 1;
    }
    Ok(Command::Call {
        addrs: vec![addr.ok_or_else(|| CliError("promote requires --addr".to_string()))?],
        request: Request::Promote { expected_epoch },
    })
}

/// Per-shard probe deadline when `route` is given none.
pub const DEFAULT_ROUTE_DEADLINE_MS: u64 = 2_000;

fn parse_route(args: &[String]) -> Result<Command, CliError> {
    let mut addrs: Vec<String> = Vec::new();
    let mut metrics_addr: Option<String> = None;
    let mut deadline_ms = DEFAULT_ROUTE_DEADLINE_MS;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addrs.push(take_value("--addr", args, &mut i)?.to_string()),
            "--metrics-addr" => {
                metrics_addr = Some(take_value("--metrics-addr", args, &mut i)?.to_string());
            }
            "--deadline-ms" => {
                deadline_ms =
                    parse_number("--deadline-ms", take_value("--deadline-ms", args, &mut i)?)?;
            }
            other => return Err(CliError(format!("unknown option {other:?} for route"))),
        }
        i += 1;
    }
    if addrs.is_empty() {
        return Err(CliError("route requires --addr".to_string()));
    }
    if deadline_ms == 0 {
        return Err(CliError("--deadline-ms must be positive".to_string()));
    }
    Ok(Command::Route {
        addrs,
        metrics_addr: metrics_addr
            .ok_or_else(|| CliError("route requires --metrics-addr".to_string()))?,
        deadline_ms,
    })
}

fn parse_query(args: &[String]) -> Result<Command, CliError> {
    let mut addrs: Vec<String> = Vec::new();
    let mut request: Option<Request> = None;
    let mut algorithm = TopKAlgorithm::Greedy;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addrs.push(take_value("--addr", args, &mut i)?.to_string()),
            "--estimate" => {
                let seeds = parse_seed_list(take_value("--estimate", args, &mut i)?)?;
                set_once(&mut request, Request::Estimate { seeds })?;
            }
            "--topk" => {
                let k: usize = parse_number("--topk", take_value("--topk", args, &mut i)?)?;
                if k == 0 {
                    return Err(CliError("--topk must be positive".to_string()));
                }
                set_once(&mut request, Request::TopK { k, algorithm })?;
            }
            "--algorithm" => {
                algorithm = TopKAlgorithm::parse(take_value("--algorithm", args, &mut i)?)
                    .map_err(|e| CliError(e.to_string()))?;
                // Applies to an already-parsed --topk as well.
                if let Some(Request::TopK { algorithm: a, .. }) = &mut request {
                    *a = algorithm;
                }
            }
            "--info" => set_once(&mut request, Request::Info)?,
            "--stats" => set_once(&mut request, Request::Stats)?,
            "--metrics" => set_once(&mut request, Request::Metrics)?,
            "--health" => set_once(&mut request, Request::Health)?,
            "--events" => set_once(&mut request, Request::Events)?,
            other => return Err(CliError(format!("unknown option {other:?} for query"))),
        }
        i += 1;
    }
    if addrs.is_empty() {
        return Err(CliError("query requires --addr".to_string()));
    }
    Ok(Command::Call {
        addrs,
        request: request.ok_or_else(|| {
            CliError(
                "query requires one of --estimate, --topk, --info, --stats, --metrics, \
                 --health or --events"
                    .to_string(),
            )
        })?,
    })
}

fn set_once(slot: &mut Option<Request>, value: Request) -> Result<(), CliError> {
    if slot.is_some() {
        return Err(CliError(
            "query accepts exactly one of --estimate, --topk, --info, --stats, --metrics, \
             --health or --events"
                .to_string(),
        ));
    }
    *slot = Some(value);
    Ok(())
}

fn parse_loadtest(args: &[String]) -> Result<Command, CliError> {
    let mut addrs: Vec<String> = Vec::new();
    let mut connections = 4usize;
    let mut requests = 250usize;
    let mut k = 3usize;
    let mut arrival_rps: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addrs.push(take_value("--addr", args, &mut i)?.to_string()),
            "--connections" => {
                connections =
                    parse_number("--connections", take_value("--connections", args, &mut i)?)?;
            }
            "--requests" => {
                requests = parse_number("--requests", take_value("--requests", args, &mut i)?)?;
            }
            "--k" => k = parse_number("--k", take_value("--k", args, &mut i)?)?,
            "--arrival-rps" => {
                arrival_rps = Some(parse_number(
                    "--arrival-rps",
                    take_value("--arrival-rps", args, &mut i)?,
                )?);
            }
            other => return Err(CliError(format!("unknown option {other:?} for loadtest"))),
        }
        i += 1;
    }
    for (flag, value) in [
        ("--connections", connections),
        ("--requests", requests),
        ("--k", k),
    ] {
        if value == 0 {
            return Err(CliError(format!("{flag} must be positive")));
        }
    }
    if arrival_rps == Some(0) {
        return Err(CliError("--arrival-rps must be positive".to_string()));
    }
    if addrs.is_empty() {
        return Err(CliError("loadtest requires --addr".to_string()));
    }
    Ok(Command::Loadtest {
        addrs,
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
            match parse(&args(&[
                "serve",
                "--index",
                "x.imx",
                "--pool-layout",
                label,
            ]))
            .unwrap()
            {
                Command::Serve { pool_layout, .. } => assert_eq!(pool_layout, Some(layout)),
                other => panic!("unexpected command {other:?}"),
            }
        }
        // Raw is the build default; serve keeps the persisted layout.
        match parse(&args(&["build", "--dataset", "k", "--out", "x"])).unwrap() {
            Command::Build { pool_layout, .. } => assert_eq!(pool_layout, PoolLayout::Raw),
            other => panic!("unexpected command {other:?}"),
        }
        match parse(&args(&["serve", "--index", "x.imx"])).unwrap() {
            Command::Serve { pool_layout, .. } => assert_eq!(pool_layout, None),
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
        assert!(parse(&args(&["serve", "--index", "x", "--pool-layout"])).is_err());
    }

    #[test]
    fn unknown_flags_are_rejected() {
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
        assert!(parse(&args(&["build", "--dataset"])).is_err());
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
    fn serve_front_end_flags_parse_and_exclude_each_other() {
        // Reactor is the default.
        match parse(&args(&["serve", "--index", "x.imx"])).unwrap() {
            Command::Serve { reactor, .. } => assert!(reactor),
            other => panic!("unexpected command {other:?}"),
        }
        match parse(&args(&["serve", "--index", "x.imx", "--threaded"])).unwrap() {
            Command::Serve { reactor, .. } => assert!(!reactor),
            other => panic!("unexpected command {other:?}"),
        }
        match parse(&args(&["serve", "--index", "x.imx", "--reactor"])).unwrap() {
            Command::Serve { reactor, .. } => assert!(reactor),
            other => panic!("unexpected command {other:?}"),
        }
        assert!(parse(&args(&["serve", "--index", "x", "--reactor", "--threaded"])).is_err());
        assert!(parse(&args(&["serve", "--index", "x", "--threaded", "--reactor"])).is_err());
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
        assert!(parse(&args(&["serve", "--index", "x", "--metrics-addr"])).is_err());
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
        assert!(parse(&args(&["serve", "--index", "x", "--follow"])).is_err());
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
