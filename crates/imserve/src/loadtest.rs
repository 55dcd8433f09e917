//! The in-repo load generator: drive any [`InfluenceService`] with a
//! deterministic request mix and report throughput and latency percentiles
//! via `imstats`.
//!
//! The workload is backend-agnostic — the same generator runs against an
//! in-process engine ([`crate::service::LocalService`]), a TCP server
//! ([`crate::client::RemoteService`]) or a sharded deployment
//! ([`crate::shard::ShardedService`]) — which is exactly what makes backend
//! comparisons meaningful: `imexp loadtest --backend {local,remote,sharded:N}`
//! sends the identical stream everywhere.
//!
//! Each connection runs its own deterministic PCG32 stream, issuing a mix of
//! `Estimate` (singleton and 3-seed) and periodic `TopK` requests — the
//! shape a production influence service sees: estimates dominate, selections
//! recur and hit the engine's LRU cache (or the shard router's memo).
//!
//! Two arrival disciplines:
//!
//! * **Closed-loop** (the default): every connection fires its next request
//!   the instant the previous reply lands. Measures per-request service
//!   latency, but hides queueing — a slow server simply slows the arrival
//!   stream down with it (coordinated omission).
//! * **Open-loop** ([`LoadtestConfig::arrival_rps`]): requests are scheduled
//!   on a fixed global arrival clock that does *not* wait for replies, and
//!   each latency is measured from the request's **scheduled** arrival time,
//!   so time spent queueing behind a saturated server counts against it.
//!   This is the discipline to use for tail-latency (p99/p999) claims.
//!
//! Beside the client-side percentiles a report carries what the *server* saw
//! over the run ([`ServerMetricsDelta`]): two `Metrics` snapshots subtracted
//! with [`MetricsReport::since`] — the snapshot type `/metrics` renders, so a
//! bench commits the same families production exports.

use std::net::ToSocketAddrs;
use std::time::{Duration, Instant};

use imrand::{Pcg32, Rng32};
use imstats::SummaryStats;
use serde::Serialize;

use crate::client::RemoteService;
use crate::protocol::TopKAlgorithm;
use crate::service::{InfluenceService, MetricsReport, ServiceError, ServiceStats};

/// Load-test shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadtestConfig {
    /// Concurrent connections (one thread each).
    pub connections: usize,
    /// Requests per connection.
    pub requests_per_connection: usize,
    /// Seed-set size of the periodic `TopK` requests.
    pub k: usize,
    /// Base seed of the per-connection request streams.
    pub seed: u64,
    /// Open-loop arrival rate in requests per second across *all*
    /// connections, or `None` for the default closed loop. The global
    /// schedule is interleaved round-robin: with `C` connections at rate
    /// `R`, connection `c` owns arrivals `c/R, (c+C)/R, (c+2C)/R, …` after
    /// the start mark, and latencies are measured from those scheduled
    /// instants (queueing delay included).
    pub arrival_rps: Option<u64>,
}

impl Default for LoadtestConfig {
    fn default() -> Self {
        Self {
            connections: 4,
            requests_per_connection: 250,
            k: 3,
            seed: 1,
            arrival_rps: None,
        }
    }
}

/// One connection's slice of the open-loop arrival schedule.
#[derive(Debug, Clone, Copy)]
struct OpenLoop {
    /// Common schedule origin across every connection.
    start: Instant,
    /// This connection's first arrival, relative to `start`.
    first_offset: Duration,
    /// Gap between this connection's consecutive arrivals.
    period: Duration,
}

impl OpenLoop {
    /// Carve connection `connection_id`'s slice out of a global schedule of
    /// `rps` arrivals per second shared round-robin by `connections` peers.
    fn for_connection(start: Instant, rps: u64, connections: usize, connection_id: usize) -> Self {
        let gap = 1.0 / rps.max(1) as f64;
        Self {
            start,
            first_offset: Duration::from_secs_f64(gap * connection_id as f64),
            period: Duration::from_secs_f64(gap * connections as f64),
        }
    }

    /// The scheduled arrival instant of this connection's request `i`.
    fn arrival(&self, i: usize) -> Instant {
        self.start + self.first_offset + self.period.mul_f64(i as f64)
    }
}

/// Aggregated load-test results.
#[derive(Debug, Clone)]
pub struct LoadtestReport {
    /// Requests completed across all connections.
    pub total_requests: usize,
    /// Wall-clock duration of the whole run in seconds.
    pub elapsed_secs: f64,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Per-request latency statistics in microseconds.
    pub latency_micros: SummaryStats,
    /// The 99.9th latency percentile in microseconds (beyond what
    /// [`SummaryStats`] carries; the tail the open-loop mode exists to
    /// measure).
    pub p999_micros: f64,
    /// The backend's own counters after the run (`None` if the final
    /// `stats` call failed — the latency data is still valid).
    pub server_stats: Option<ServiceStats>,
    /// Server-side metric deltas across the run (`None` when the backend
    /// does not answer `Metrics`, e.g. an older server).
    pub server_metrics: Option<ServerMetricsDelta>,
}

/// What the *server* observed across one load-test run: the difference
/// between a `Metrics` snapshot taken before the workload and one taken
/// after ([`MetricsReport::since`]). Complements the client-side
/// percentiles — queue-wait p99 shows time spent parked in the compute
/// queue, backpressure stalls show how often the reactor throttled reads,
/// and the cache-hit delta explains `TopK` latency bimodality. Serializes
/// as the `server_metrics` object of `BENCH_serving.json`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ServerMetricsDelta {
    /// Requests the server handled during the run.
    pub requests_total: u64,
    /// `TopK` cache hits during the run.
    pub topk_cache_hits: u64,
    /// `TopK` cache misses during the run.
    pub topk_cache_misses: u64,
    /// Reactor backpressure stall episodes during the run.
    pub backpressure_stalls: u64,
    /// Requests that crossed the slow-query threshold during the run.
    pub slow_queries: u64,
    /// The 99th percentile of compute-queue wait during the run, in
    /// microseconds (upper bound of the log₂ bucket holding the sample).
    /// Against a sharded backend the snapshot is the router's *federated*
    /// report, so this quantile walks the elementwise-merged cluster
    /// histogram (exact to within one log₂ bucket, like every quantile).
    pub queue_wait_p99_micros: u64,
    /// Requests each shard handled during the run, from the federated
    /// snapshot's `shard="i"`-labelled request counters — empty against a
    /// backend that is not a shard router.
    pub per_shard_requests: Vec<u64>,
}

impl ServerMetricsDelta {
    /// The run's own deltas from two cumulative snapshots.
    #[must_use]
    pub fn between(before: &MetricsReport, after: &MetricsReport) -> Self {
        let delta = after.since(before);
        // The per-type request counters are one labelled family; the total
        // is their sum across labels. Shard-labelled copies are *duplicates*
        // of values already counted in the merged series, so they feed the
        // per-shard slots instead.
        let mut requests_total = 0;
        let mut per_shard_requests: Vec<u64> = Vec::new();
        for sample in &delta.counters {
            let Some(labels) = sample.name.strip_prefix("imserve_requests_total{") else {
                continue;
            };
            let Some(rest) = labels.strip_prefix("shard=\"") else {
                requests_total += sample.value;
                continue;
            };
            let Some(Ok(shard)) = rest.split('"').next().map(str::parse::<usize>) else {
                continue;
            };
            if per_shard_requests.len() <= shard {
                per_shard_requests.resize(shard + 1, 0);
            }
            per_shard_requests[shard] += sample.value;
        }
        Self {
            requests_total,
            topk_cache_hits: delta.counter("imserve_topk_cache_hits_total"),
            topk_cache_misses: delta.counter("imserve_topk_cache_misses_total"),
            backpressure_stalls: delta.counter("imserve_backpressure_stalls_total"),
            slow_queries: delta.counter("imserve_slow_queries_total"),
            queue_wait_p99_micros: delta
                .histogram("imserve_queue_wait_micros")
                .map_or(0, |h| h.quantile_micros(0.99)),
            per_shard_requests,
        }
    }
}

impl std::fmt::Display for LoadtestReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "loadtest: {} requests in {:.3}s  ({:.0} req/s)",
            self.total_requests, self.elapsed_secs, self.throughput_rps
        )?;
        let l = &self.latency_micros;
        write!(
            f,
            "latency µs: p01 {:.0}  median {:.0}  mean {:.0}  q3 {:.0}  p99 {:.0}  \
             p999 {:.0}  max {:.0}",
            l.p01, l.median, l.mean, l.q3, l.p99, self.p999_micros, l.max
        )?;
        if let Some(s) = &self.server_stats {
            write!(
                f,
                "\nserver: pool {}  epoch {}  deltas {} (resampled {})  log {} pending  \
                 compactions {} (watermark {})  topk cache {}/{} hits",
                s.pool_size,
                s.epoch,
                s.deltas_applied,
                s.sets_resampled,
                s.log_len,
                s.compactions,
                s.snapshot_epoch,
                s.topk_cache_hits,
                s.topk_cache_hits + s.topk_cache_misses
            )?;
            write!(
                f,
                "\npool: {} layout  {} resident bytes  {:.1} bytes/RR-set",
                s.pool_layout,
                s.pool_resident_bytes,
                s.pool_bytes_per_set()
            )?;
            for (i, shard) in s.shards.iter().enumerate() {
                write!(
                    f,
                    "\nshard {i}: epoch {} (watermark {}, {} pending)",
                    shard.epoch, shard.snapshot_epoch, shard.log_len
                )?;
            }
        }
        if let Some(m) = &self.server_metrics {
            write!(
                f,
                "\nserver metrics over the run: {} requests  topk cache {}/{} hits  \
                 queue-wait p99 {}µs  backpressure stalls {}  slow queries {}",
                m.requests_total,
                m.topk_cache_hits,
                m.topk_cache_hits + m.topk_cache_misses,
                m.queue_wait_p99_micros,
                m.backpressure_stalls,
                m.slow_queries
            )?;
            for (i, requests) in m.per_shard_requests.iter().enumerate() {
                write!(f, "\nshard {i} handled {requests} requests over the run")?;
            }
        }
        Ok(())
    }
}

/// The deterministic request mix, issued through the typed trait. Returns
/// per-request latencies in microseconds. With a `schedule`, each request
/// waits for its scheduled open-loop arrival and its latency is measured
/// from that instant (a late start *is* latency); without one, latency is
/// measured from the moment the previous reply landed (closed loop).
fn drive<S: InfluenceService>(
    service: &mut S,
    num_vertices: usize,
    requests: usize,
    k: usize,
    stream_seed: u64,
    schedule: Option<OpenLoop>,
) -> Result<Vec<f64>, ServiceError> {
    let mut rng = Pcg32::seed_from_u64(stream_seed);
    let mut latencies = Vec::with_capacity(requests);
    for i in 0..requests {
        let sent = match schedule {
            None => Instant::now(),
            Some(open) => {
                let arrival = open.arrival(i);
                if let Some(wait) = arrival.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                arrival
            }
        };
        if i % 16 == 15 {
            service.top_k(k, TopKAlgorithm::Greedy)?;
        } else if i % 4 == 3 {
            let seeds = [
                rng.gen_index(num_vertices) as u32,
                rng.gen_index(num_vertices) as u32,
                rng.gen_index(num_vertices) as u32,
            ];
            service.estimate(&seeds)?;
        } else {
            let seeds = [rng.gen_index(num_vertices) as u32];
            service.estimate(&seeds)?;
        }
        latencies.push(sent.elapsed().as_secs_f64() * 1e6);
    }
    Ok(latencies)
}

/// Derive the per-connection stream seed (stable across backends).
fn stream_seed(base: u64, connection_id: usize) -> u64 {
    base.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(connection_id as u64 + 1))
}

/// Run the load test against services produced by `make` — one per
/// configured connection, each on its own thread — and gather the report.
///
/// Fails fast if a service cannot be built or answers any request with an
/// error (the generator only sends well-formed in-range requests).
pub fn run_with<S, F>(config: &LoadtestConfig, make: F) -> Result<LoadtestReport, ServiceError>
where
    S: InfluenceService + Send,
    F: Fn() -> Result<S, ServiceError> + Sync,
{
    let connections = config.connections.max(1);
    let per_connection = config.requests_per_connection.max(1);

    // Discover the vertex range once so generated seeds are always valid.
    // The probe is dropped before the workers spawn: a lingering remote
    // probe would occupy one server worker for the whole run (and deadlock
    // a single-worker server outright, since every loadtest connection
    // would queue behind it forever).
    let (num_vertices, metrics_before) = {
        let mut probe = make()?;
        // The pre-run snapshot anchors the server-metrics delta; backends
        // without `Metrics` support degrade to latency-only reporting.
        (probe.info()?.num_vertices, probe.metrics().ok())
    };
    if num_vertices == 0 {
        return Err(ServiceError::Query("served graph is empty".into()));
    }

    let started = Instant::now();
    let all_latencies: Result<Vec<Vec<f64>>, ServiceError> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(connections);
        for connection_id in 0..connections {
            let make = &make;
            let seed = stream_seed(config.seed, connection_id);
            let k = config.k;
            let schedule = config
                .arrival_rps
                .map(|rps| OpenLoop::for_connection(started, rps, connections, connection_id));
            // Workers mostly sit in socket reads (or open-loop sleeps), so a
            // small explicit stack keeps thousands of connections affordable
            // where the platform default (often 8 MiB) would not be.
            let handle = std::thread::Builder::new()
                .stack_size(128 * 1024)
                .spawn_scoped(scope, move || {
                    let mut service = make()?;
                    drive(
                        &mut service,
                        num_vertices,
                        per_connection,
                        k,
                        seed,
                        schedule,
                    )
                })
                .map_err(ServiceError::from)?;
            handles.push(handle);
        }
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| ServiceError::Backend("loadtest worker panicked".into()))?
            })
            .collect()
    });
    let all_latencies: Vec<f64> = all_latencies?.into_iter().flatten().collect();
    let elapsed_secs = started.elapsed().as_secs_f64();

    // Surface the backend's own view of the run on a fresh service (the
    // engine counters are shared, so any connection sees the same totals).
    let mut post = make().ok();
    let server_stats = post.as_mut().and_then(|s| s.stats().ok());
    let server_metrics = match (&metrics_before, post.as_mut()) {
        (Some(before), Some(s)) => s
            .metrics()
            .ok()
            .map(|after| ServerMetricsDelta::between(before, &after)),
        _ => None,
    };

    Ok(LoadtestReport {
        total_requests: all_latencies.len(),
        elapsed_secs,
        throughput_rps: all_latencies.len() as f64 / elapsed_secs.max(1e-9),
        p999_micros: SummaryStats::percentile(&all_latencies, 99.9),
        latency_micros: SummaryStats::from_values(&all_latencies),
        server_stats,
        server_metrics,
    })
}

/// Run the load test against a TCP server (one [`RemoteService`] per
/// connection) — the `imserve loadtest --addr` entry point.
pub fn run<A: ToSocketAddrs>(
    addr: A,
    config: &LoadtestConfig,
) -> Result<LoadtestReport, ServiceError> {
    let addrs: Vec<std::net::SocketAddr> = addr.to_socket_addrs()?.collect();
    run_with(config, || RemoteService::connect(addrs.as_slice()))
}
