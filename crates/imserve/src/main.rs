//! `imserve` — build, serve and query persistent influence indexes.
//!
//! The command line is the flag table in `imserve::cli`; run the binary
//! with no arguments for the usage text rendered from it. A session:
//!
//! ```text
//! imserve build --dataset karate --out karate.imx
//! imserve serve --index karate.imx --addr 127.0.0.1:7431
//! imserve query --addr 127.0.0.1:7431 --topk 3
//! ```
//!
//! `mutate` applies deltas *incrementally* to a running server (only the
//! dirty RR sets are resampled); `build --deltas` constructs the equivalent
//! index *from scratch*. The two are byte-identical by construction — the CI
//! smoke step diffs their served responses. `mutate` applies its deltas
//! atomically (one CSR patch, dirty-union resampling), and `compact` folds
//! the pending log into the snapshot watermark — live over TCP or offline on
//! an artifact file.

use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use imdyn::CompactionPolicy;
use imserve::cli::{self, Command};
use imserve::client::{ReconnectingService, RemoteService};
use imserve::engine::QueryEngine;
use imserve::index::{build_dataset_index_with_deltas, parse_dataset, parse_model, IndexArtifact};
use imserve::loadtest::{self, LoadtestConfig};
use imserve::protocol::{self, Request, Response};
use imserve::replica::ReplicaSet;
use imserve::service::{InfluenceService, ServiceError};
use imserve::shard::ShardedService;

/// Open the typed service for a set of `--addr` values: one address is a
/// plain remote backend, several are routed through a sharded service.
fn open_service(addrs: &[String]) -> Result<Box<dyn InfluenceService>, ServiceError> {
    if addrs.len() == 1 {
        return Ok(Box::new(RemoteService::connect(addrs[0].as_str())?));
    }
    let mut shards = Vec::with_capacity(addrs.len());
    for addr in addrs {
        shards.push(RemoteService::connect(addr.as_str())?);
    }
    let mut sharded = ShardedService::new(shards)?;
    let info = sharded.info()?;
    if (info.pool_size as u64) < info.global_pool {
        eprintln!(
            "warning: the given shards cover {} of {} global RR sets — answers reflect \
             the covered slice, not the whole pool (missing --addr?)",
            info.pool_size, info.global_pool
        );
    }
    Ok(Box::new(sharded))
}

/// Print a typed result in its wire-JSON form (so scripts and the CI smoke
/// steps can diff outputs across backends).
fn print_response(response: Response) -> Result<(), Box<dyn std::error::Error>> {
    println!("{}", protocol::encode(&response)?);
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match cli::parse(&args) {
        Ok(command) => command,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", cli::usage());
            return ExitCode::FAILURE;
        }
    };
    match run(command) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(command: Command) -> Result<(), Box<dyn std::error::Error>> {
    match command {
        Command::Build {
            dataset,
            model,
            pool,
            seed,
            out,
            deltas,
            shard,
            pool_layout,
        } => {
            let started = std::time::Instant::now();
            let mut artifact = if let Some((index, count)) = shard {
                let ds = parse_dataset(&dataset)?;
                let pm = parse_model(&model)?;
                let graph = ds.influence_graph(pm, seed);
                IndexArtifact::build_shard(ds.name(), &pm.label(), graph, pool, seed, index, count)
            } else {
                let script = match &deltas {
                    Some(path) => protocol::parse_delta_script(&std::fs::read_to_string(path)?)?,
                    None => Vec::new(),
                };
                build_dataset_index_with_deltas(&dataset, &model, pool, seed, &script)?
            };
            artifact.convert_pool_layout(pool_layout);
            artifact.save(&out)?;
            let shard_note = match (shard, artifact.shard) {
                (Some((i, n)), Some(info)) => {
                    format!(", shard {i}/{n} at global offset {}", info.offset)
                }
                _ => String::new(),
            };
            eprintln!(
                "built index {} ({} vertices, {} edges, pool {} [{} layout]{shard_note}, \
                 {} deltas) in {:.2}s -> {}",
                artifact.meta.graph_id,
                artifact.meta.num_vertices,
                artifact.meta.num_edges,
                artifact.meta.pool_size,
                artifact.pool_layout(),
                artifact.log.len(),
                started.elapsed().as_secs_f64(),
                out
            );
            Ok(())
        }
        Command::Serve {
            index,
            addr,
            workers,
            cache,
            compact_log_len,
            compact_dirty,
            wal,
            metrics_addr,
            slow_micros,
            repl_addr,
            follow,
        } => {
            let started = std::time::Instant::now();
            let artifact = IndexArtifact::load(&index)?;
            eprintln!(
                "loaded index {} ({} vertices, pool {} [{} layout, {} resident bytes], \
                 epoch {}) in {:.0}ms",
                artifact.meta.graph_id,
                artifact.meta.num_vertices,
                artifact.meta.pool_size,
                artifact.pool_layout(),
                artifact.oracle.pool_resident_bytes(),
                artifact.epoch(),
                started.elapsed().as_secs_f64() * 1e3
            );
            let policy = CompactionPolicy {
                max_log_len: compact_log_len,
                max_dirty_fraction: compact_dirty,
            };
            if policy.is_enabled() {
                eprintln!(
                    "auto-compaction enabled (log-len {:?}, dirty-fraction {:?})",
                    policy.max_log_len, policy.max_dirty_fraction
                );
            }
            let mut builder = QueryEngine::builder(artifact)
                .cache_capacity(cache)
                .compaction_policy(policy)
                .metrics(imserve::ServingMetrics::new(slow_micros));
            if let Some(path) = &wal {
                eprintln!("mutation WAL enabled at {path}");
                builder = builder.wal(path);
            }
            if follow.is_some() {
                // Followers start read-only; `imserve promote` flips them
                // writable once their replication cursor has caught up.
                builder = builder.read_only(true);
            }
            let engine = Arc::new(builder.build()?);
            let _follower = follow.as_ref().map(|leader| {
                let handle = imserve::spawn_follower(
                    leader.as_str(),
                    Arc::clone(&engine),
                    Arc::new(imserve::FollowerStatus::default()),
                );
                eprintln!("following leader at {leader} (read-only until promoted)");
                handle
            });
            let _leader = match &repl_addr {
                Some(repl_addr) => {
                    // The CLI refuses `--repl-addr` without `--wal`, so the
                    // unwrap documents an invariant, not a hope.
                    let wal_path = wal.clone().expect("--repl-addr requires --wal");
                    let leader = imserve::spawn_leader(
                        repl_addr.as_str(),
                        Arc::clone(&engine),
                        wal_path,
                        Arc::new(imserve::ReplicationFaults::default()),
                    )?;
                    eprintln!("replication listener on {}", leader.addr());
                    // Printed on stdout so scripts can scrape the resolved port.
                    println!("imserve replication on {}", leader.addr());
                    Some(leader)
                }
                None => None,
            };
            if let Some(metrics_addr) = &metrics_addr {
                let ops_engine = Arc::clone(&engine);
                let bound = imserve::spawn_ops_endpoint(metrics_addr.as_str(), move |path| {
                    imserve::route_ops_request(
                        path,
                        || ops_engine.render_metrics(),
                        || ops_engine.obs().event_log.render_json_lines(),
                        || ops_engine.health(),
                    )
                })?;
                eprintln!(
                    "ops endpoint on http://{bound}/metrics (also /events, /healthz, /readyz; \
                     slow-query threshold {slow_micros}us)"
                );
                // Printed on stdout so scripts can scrape the resolved port.
                println!("imserve metrics on {bound}");
            }
            let handle = imserve::reactor::spawn(
                addr.as_str(),
                engine,
                &imserve::ReactorConfig {
                    compute_threads: workers,
                    ..imserve::ReactorConfig::default()
                },
            )?;
            // Printed on stdout so scripts can scrape the resolved port.
            println!("imserve listening on {}", handle.addr());
            // Serve until killed; the front end's thread owns the listener,
            // and if it ever returns the process must not linger portless.
            handle.wait();
            Err("the front end stopped serving (see /events)".into())
        }
        Command::Route {
            addrs,
            metrics_addr,
            deadline_ms,
        } => {
            // The cluster's operational face: a long-lived router whose
            // shard connections self-heal (a dead shard degrades /readyz
            // while it is down and readiness recovers when it returns).
            // Each `--addr` operand may name a `|`-separated replica set
            // (leader first): reads fail over to a caught-up follower while
            // writes stay leader-ordered.
            let mut shards: Vec<ReplicaSet<ReconnectingService>> = Vec::with_capacity(addrs.len());
            let mut replica_count = 0usize;
            for operand in &addrs {
                let members: Vec<(String, ReconnectingService)> =
                    imserve::parse_replica_addrs(operand)?
                        .into_iter()
                        .map(|member| {
                            let service = ReconnectingService::new(member.as_str());
                            (member, service)
                        })
                        .collect();
                replica_count += members.len().saturating_sub(1);
                shards.push(ReplicaSet::new(members));
            }
            let mut router = ShardedService::new(shards)?;
            router.set_deadline(Some(Duration::from_millis(deadline_ms)))?;
            let router = Arc::new(Mutex::new(router));
            let bound = imserve::spawn_ops_endpoint(metrics_addr.as_str(), move |path| {
                let metrics = Arc::clone(&router);
                let events = Arc::clone(&router);
                let health = Arc::clone(&router);
                imserve::route_ops_request(
                    path,
                    move || {
                        metrics
                            .lock()
                            .expect("router lock")
                            .cluster_metrics()
                            .render_prometheus()
                    },
                    move || {
                        let router = events.lock().expect("router lock");
                        router.obs().event_log.render_json_lines()
                    },
                    move || {
                        health
                            .lock()
                            .expect("router lock")
                            .health()
                            .unwrap_or_else(|e| {
                                let mut report = imserve::HealthReport::new();
                                report.push("router", false, e.to_string());
                                report
                            })
                    },
                )
            })?;
            eprintln!(
                "routing {} shard(s) ({replica_count} standby replica(s)) with a \
                 {deadline_ms}ms probe deadline; federated ops endpoint on \
                 http://{bound}/metrics (also /events, /healthz, /readyz)",
                addrs.len()
            );
            // Printed on stdout so scripts can scrape the resolved port.
            println!("imserve route on {bound}");
            // Route until killed; the endpoint thread owns the listener.
            loop {
                std::thread::park();
            }
        }
        Command::Call { addrs, request } => {
            let mut service = open_service(&addrs)?;
            let response = match &request {
                // A router's own `stats` carries the per-shard epoch reports
                // the wire `Stats` reply has no field for, so ask it through
                // the vtable rather than through `Box`'s forwarding `call`.
                Request::Stats => {
                    let stats = (*service).stats()?;
                    for (i, shard) in stats.shards.iter().enumerate() {
                        eprintln!(
                            "shard {i}: epoch {} (watermark {}, {} pending)",
                            shard.epoch, shard.snapshot_epoch, shard.log_len
                        );
                    }
                    stats.into()
                }
                request => service.call(request)?,
            };
            let mut degraded = false;
            match (&request, &response) {
                (_, Response::Health(report)) => {
                    eprint!("{}", report.render_text());
                    degraded = !report.ready;
                }
                (Request::Reload { path }, Response::Reloaded(reload)) => eprintln!(
                    "reloaded {path} at epoch {}: pool {}, {} pending deltas, swap held the \
                     write lock for {}us",
                    reload.epoch, reload.pool_size, reload.log_len, reload.swap_micros
                ),
                (_, Response::Promoted(promotion)) => eprintln!(
                    "{} at epoch {}",
                    if promotion.was_read_only {
                        "promoted follower to writable"
                    } else {
                        "already writable (promotion is idempotent)"
                    },
                    promotion.epoch
                ),
                _ => {}
            }
            print_response(response)?;
            if degraded {
                return Err(Box::new(imserve::ServeError::Query(
                    "service reports not ready".into(),
                )));
            }
            Ok(())
        }
        Command::Compact { index, out } => {
            let mut artifact = IndexArtifact::load(&index)?;
            let folded = artifact.compact();
            artifact.save(&out)?;
            eprintln!(
                "compacted {index}: folded {folded} deltas at epoch {} -> {out}",
                artifact.epoch()
            );
            Ok(())
        }
        Command::Loadtest {
            addrs,
            connections,
            requests,
            k,
            arrival_rps,
        } => {
            let config = LoadtestConfig {
                connections,
                requests_per_connection: requests,
                k,
                seed: 1,
                arrival_rps,
            };
            let report = if addrs.len() == 1 {
                loadtest::run(addrs[0].as_str(), &config)?
            } else {
                // A sharded deployment: one router per loadtest connection,
                // each over its own connections to every shard.
                loadtest::run_with(&config, || {
                    let mut shards = Vec::with_capacity(addrs.len());
                    for addr in &addrs {
                        shards.push(RemoteService::connect(addr.as_str())?);
                    }
                    ShardedService::new(shards)
                })?
            };
            println!("{report}");
            Ok(())
        }
    }
}
