//! The serving stack's observability surface: every metric the stack
//! records, under one [`imobs::Registry`], plus the plaintext ops endpoint
//! behind `serve --metrics-addr`.
//!
//! [`ServingMetrics`] is the one struct threaded through the layers — the
//! engine, both front ends, the WAL, and the shard router all hold `Arc`
//! handles onto its counters/gauges/histograms, so recording stays lock-free
//! and allocation-free on every hot path (the `EstimateScratch` discipline).
//! Every number is counted once, here, and leaves this module one way:
//! [`ServingMetrics::report`] snapshots the registry into the wire
//! [`MetricsReport`], and every face — `/metrics` text, the `Metrics`
//! response, a router's federated scrape, the loadtest delta — is a method
//! of that one type. Nothing is pushed anywhere.
//!
//! The request kinds are listed once, in `request_kinds!` below. That list
//! generates the per-kind [`RequestLanes`] (`imserve_requests_total` and
//! `imserve_request_latency_micros`, labelled `type="<kind>"`), the
//! `requests_by_type` counts [`RequestTypeCounts`] that `Stats` carries, and
//! the snapshot from one to the other, so a `Stats` key and its metric label
//! are the same name by construction.
//!
//! None of this touches the query wire format: responses stay byte-identical
//! with metrics enabled, because metrics only ever travel on their own
//! endpoint or inside the deliberately volatile `Stats`/`Metrics` responses.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::ops::Deref;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use imobs::{Counter, EventLog, Gauge, Histogram, Registry, SlowLog};
use serde::{Deserialize, Serialize};

use crate::service::{
    FamilyHelp, GaugeSample, HistogramBucket, HistogramSample, MetricSample, MetricsReport,
    SlowQuery, SpanStage,
};

/// Default slow-query retention threshold (`serve --slow-micros` overrides).
pub const DEFAULT_SLOW_THRESHOLD_MICROS: u64 = 10_000;

/// Slow-query ring capacity: enough to hold the worst tail of a loadtest
/// without unbounded memory.
pub const SLOW_LOG_CAPACITY: usize = 32;

const REACTOR_WAKEUPS_HELP: &str =
    "Times the reactor's blocking wait returned, by cause: a client socket or the listener \
     became ready, the compute pool finished a request, or the wait's deadline (idle reaping, \
     accept retry) passed.";

const REACTOR_REQUESTS_HELP: &str =
    "Request lines the reactor answered, by where: on its loop thread (point requests and \
     unparsable lines) or handed to its compute pool (everything that makes a pass or writes).";

const ROUTER_ROUNDS_HELP: &str =
    "Router selection rounds, by how they were settled: the threshold merge over per-shard \
     candidate lists, or the full gain-vector sum it falls back to. A greedy round settled \
     from the candidates carried over from an earlier round counts as path=\"threshold\".";

/// One request type's hot-path handles: a lifetime counter and a latency
/// histogram (microseconds). `Compact` and `Reload` record their own
/// durations (a reload's is the swap under the write lock).
#[derive(Debug, Clone)]
pub struct RequestLane {
    /// Lifetime requests of this type.
    pub count: Arc<Counter>,
    /// End-to-end handling latency in microseconds.
    pub latency_micros: Arc<Histogram>,
}

impl RequestLane {
    fn register(registry: &Registry, kind: &str) -> Self {
        Self {
            count: registry.counter(
                &format!("imserve_requests_total{{type=\"{kind}\"}}"),
                "Lifetime requests handled, by request type.",
            ),
            latency_micros: registry.histogram(
                &format!("imserve_request_latency_micros{{type=\"{kind}\"}}"),
                "End-to-end request handling latency in microseconds, by request type.",
            ),
        }
    }
}

/// Declare the request kinds once. Each kind's name is its key in `Stats`'
/// `requests_by_type` and its `type="…"` label on `/metrics`, and the list's
/// order is both the key order and the registration order. Generates the
/// wire counts [`RequestTypeCounts`], the per-kind [`RequestLanes`] that
/// [`ServingMetrics`] holds, and the snapshot from the one to the other.
macro_rules! request_kinds {
    ($($(#[doc = $doc:literal])+ $kind:ident,)+) => {
        /// Lifetime request counts split by request type — the per-type half
        /// of the operational picture `query --stats` reports. Travels on the
        /// wire inside `Response::Stats` (volatile, like every other stats
        /// field).
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
        pub struct RequestTypeCounts {
            $($(#[doc = $doc])+ pub $kind: u64,)+
        }

        impl RequestTypeCounts {
            /// Total requests across every type.
            #[must_use]
            pub fn total(&self) -> u64 {
                0 $(+ self.$kind)+
            }

            /// Field-wise sum (how a shard router aggregates its backends).
            #[must_use]
            pub fn merged(&self, other: &Self) -> Self {
                Self { $($kind: self.$kind + other.$kind,)+ }
            }
        }

        /// One [`RequestLane`] per request kind (wire and in-process paths
        /// both record here).
        #[derive(Debug, Clone)]
        pub struct RequestLanes {
            $($(#[doc = $doc])+ pub $kind: RequestLane,)+
        }

        impl RequestLanes {
            fn register(registry: &Registry) -> Self {
                Self { $($kind: RequestLane::register(registry, stringify!($kind)),)+ }
            }

            /// Lifetime request counts split by type (the `ServiceStats` view).
            #[must_use]
            pub fn request_counts(&self) -> RequestTypeCounts {
                RequestTypeCounts { $($kind: self.$kind.count.get(),)+ }
            }
        }
    };
}

request_kinds! {
    /// `Ping` liveness checks.
    ping,
    /// `Hello` version handshakes.
    hello,
    /// `Info` metadata requests.
    info,
    /// `Estimate` spread queries.
    estimate,
    /// `TopK` selections.
    top_k,
    /// `Gains` marginal-coverage queries.
    gains,
    /// `GainCandidates` output-sensitive greedy rounds.
    gain_candidates,
    /// `MutateBatch` atomic batches.
    mutate_batch,
    /// `Compact` requests.
    compact,
    /// `Stats` requests.
    stats,
    /// `Metrics` snapshot requests.
    metrics,
    /// `Health` probes.
    health,
    /// `Events` snapshot requests.
    events,
    /// `Reload` hot-swap requests.
    reload,
    /// `Promote` admin requests.
    promote,
}

/// One shard's fan-out handles on the router side.
#[derive(Debug, Clone)]
pub struct ShardLane {
    /// Sub-requests sent to this shard.
    pub sends: Arc<Counter>,
    /// Successful replies received from this shard.
    pub recvs: Arc<Counter>,
    /// Failed sub-requests (transport, protocol, or shard errors).
    pub errors: Arc<Counter>,
    /// Round-trip time of this shard's sub-requests in microseconds.
    pub rtt_micros: Arc<Histogram>,
}

/// Every metric the serving stack records, under one registry.
///
/// Constructed once per engine (or per shard router) and shared by `Arc`;
/// all `Arc<Counter>`/`Arc<Gauge>`/`Arc<Histogram>` fields are safe to
/// record from any thread without further coordination.
#[derive(Debug)]
pub struct ServingMetrics {
    registry: Registry,
    started: Instant,

    requests: RequestLanes,

    /// Requests answered with an error (any type).
    pub request_errors: Arc<Counter>,
    /// Lines that failed to parse as a request frame.
    pub parse_errors: Arc<Counter>,
    /// Request lines refused (and their connections closed) for exceeding
    /// [`crate::protocol::MAX_FRAME_LEN`] before their newline.
    pub oversized_frames: Arc<Counter>,
    /// Request-line bytes taken off the wire (newline included), counted
    /// where both front ends answer a line.
    pub wire_bytes_received: Arc<Counter>,
    /// Reply-line bytes put on the wire (newline included).
    pub wire_bytes_sent: Arc<Counter>,

    /// `TopK` answers served from the LRU cache.
    pub topk_cache_hits: Arc<Counter>,
    /// `TopK` answers computed and inserted into the cache.
    pub topk_cache_misses: Arc<Counter>,
    /// Deltas applied by this process.
    pub deltas_applied: Arc<Counter>,
    /// RR sets resampled by this process.
    pub sets_resampled: Arc<Counter>,
    /// Compactions performed (manual plus policy-triggered).
    pub compactions: Arc<Counter>,

    /// Bytes appended to the mutation WAL.
    pub wal_appended_bytes: Arc<Counter>,
    /// WAL fsyncs performed (one per acknowledged batch).
    pub wal_fsyncs: Arc<Counter>,
    /// Duration of one WAL append, encode through fsync (microseconds).
    pub wal_append_micros: Arc<Histogram>,
    /// Dirty RR sets resampled by each applied batch (the per-batch
    /// distribution behind the `sets_resampled` running total).
    pub mutate_resampled_sets: Arc<Histogram>,
    /// From-scratch O(n + m) lineage-fingerprint passes: one per engine
    /// construction and one per `reload` (the incoming artifact). Mutations,
    /// WAL replay and replicated records read the maintained value and never
    /// move this.
    pub lineage_full_hashes: Arc<Counter>,

    /// Validated index hot-swaps performed, timed under the write lock
    /// (microseconds) — readers never see a partially swapped state.
    pub index_swap_micros: Arc<Histogram>,
    /// WAL records shipped to replication followers by this leader.
    pub repl_records_shipped: Arc<Counter>,
    /// Replicated WAL records applied by this follower.
    pub repl_records_applied: Arc<Counter>,
    /// Follower replication connections accepted by this leader.
    pub repl_connections: Arc<Counter>,
    /// `1` while this follower's replication stream is connected to its
    /// leader, `0` while redialing.
    pub repl_connected: Arc<Gauge>,

    /// Times the reactor stopped reading a connection because its
    /// in-flight/backlog bounds were hit.
    pub backpressure_stalls: Arc<Counter>,
    /// Connections currently paused at their in-flight or backlog bound
    /// (sampled each reactor tick; the readiness signal for backpressure).
    pub throttled_connections: Arc<Gauge>,
    /// Requests dispatched to compute and not yet completed.
    pub inflight: Arc<Gauge>,
    /// Completed-but-unflushed responses parked in reorder buffers.
    pub reorder_depth: Arc<Gauge>,
    /// Bytes buffered for write-back across all connections.
    pub write_backlog_bytes: Arc<Gauge>,
    /// Currently open connections.
    pub open_connections: Arc<Gauge>,

    /// Reactor wake-ups caused by a ready client socket or listener.
    pub reactor_wakeups_socket: Arc<Counter>,
    /// Reactor wake-ups caused by the compute pool finishing a request.
    pub reactor_wakeups_completion: Arc<Counter>,
    /// Reactor wake-ups caused by the wait's deadline (idle reaping, or the
    /// retry of a failed accept) passing with nothing ready.
    pub reactor_wakeups_timeout: Arc<Counter>,
    /// Time the reactor spent blocked in one readiness wait (microseconds)
    /// — the production twin of the benchmark's `imserve.reactor.residual_us`.
    pub reactor_poll_wait_micros: Arc<Histogram>,
    /// Descriptors one wake-up reported ready.
    pub reactor_ready_sockets: Arc<Histogram>,
    /// Request lines the reactor answered on its loop thread (point
    /// requests, and lines that are not frames): no hand-off, no completion.
    pub reactor_answered_loop: Arc<Counter>,
    /// Request lines the reactor handed to its compute pool.
    pub reactor_answered_worker: Arc<Counter>,
    /// Requests that panicked in a compute worker, each answered with a
    /// typed `Internal` error while the worker kept serving.
    pub worker_panics: Arc<Counter>,
    /// `accept` calls that failed for a reason other than an empty queue
    /// (`EMFILE` and kin); the listener is left unwatched until a connection
    /// is reaped or the wait times out.
    pub accept_errors: Arc<Counter>,

    /// Time from dispatch into the compute queue to a worker picking the
    /// request up (microseconds).
    pub queue_wait_micros: Arc<Histogram>,
    /// Time a completed response waited in a reorder buffer for its
    /// predecessors (microseconds).
    pub reorder_wait_micros: Arc<Histogram>,
    /// Duration of write-back flushes (microseconds).
    pub write_flush_micros: Arc<Histogram>,

    /// Current index epoch (mirrored at snapshot time).
    pub epoch: Arc<Gauge>,
    /// Pending delta-log length (mirrored at snapshot time).
    pub log_len: Arc<Gauge>,
    /// Snapshot watermark epoch (mirrored at snapshot time).
    pub snapshot_epoch: Arc<Gauge>,
    /// RR sets in the served pool (mirrored at snapshot time).
    pub pool_size: Arc<Gauge>,
    /// Reads the pool store issued against its cold backing file — point
    /// reads and sweep windows alike (mirrored at snapshot time from
    /// [`im_core::Pool::cold_reads`]; stays 0 for raw and compressed pools).
    pub pool_cold_reads: Arc<Counter>,
    /// Bytes those reads returned (mirrored at snapshot time).
    pub pool_cold_read_bytes: Arc<Counter>,
    /// The pool's own `(reads, bytes)` at the last mirror.
    pool_cold_seen: Mutex<(u64, u64)>,
    /// Seconds this process has served (mirrored at snapshot time).
    pub uptime_seconds: Arc<Gauge>,

    /// Fan-out operations the shard router performed (0 for an unsharded
    /// server; the family is always registered so scrapes are uniform).
    pub shard_fanouts: Arc<Counter>,
    /// Router selection rounds settled by the threshold merge over per-shard
    /// candidate lists (0 when unsharded, like every router family).
    pub router_rounds_threshold: Arc<Counter>,
    /// Router selection rounds that fell back to summing full gain vectors
    /// because the shards' bounds did not separate a winner.
    pub router_rounds_full: Arc<Counter>,
    /// Whole-pool gain passes the router asked of its shards: fan-outs of a
    /// limit-bearing `GainCandidates` or a `Gains`, each one pass per shard.
    pub router_shard_passes: Arc<Counter>,
    per_shard: Mutex<Vec<ShardLane>>,

    /// Spans of the slowest requests (threshold-gated ring buffer).
    pub slow_log: SlowLog,
    /// Spans retained by the slow log (lifetime).
    pub slow_queries: Arc<Counter>,

    /// Structured operational events (WAL failures, compactions, torn
    /// broadcasts, backpressure episodes) — a bounded ring, exposed on
    /// `/events` and the `Events` protocol request.
    pub event_log: EventLog,
}

/// A request kind's lane reads as a field of the metric set
/// (`obs.estimate.count`), like every other handle it holds.
impl Deref for ServingMetrics {
    type Target = RequestLanes;

    fn deref(&self) -> &RequestLanes {
        &self.requests
    }
}

impl ServingMetrics {
    /// A fresh metric set with every family registered, retaining slow
    /// queries at `slow_threshold_micros`.
    #[must_use]
    pub fn new(slow_threshold_micros: u64) -> Arc<Self> {
        let registry = Registry::new();
        let m = Self {
            requests: RequestLanes::register(&registry),
            request_errors: registry.counter(
                "imserve_request_errors_total",
                "Requests answered with an error.",
            ),
            parse_errors: registry.counter(
                "imserve_parse_errors_total",
                "Lines that did not parse as a request frame.",
            ),
            oversized_frames: registry.counter(
                "imserve_oversized_frames_total",
                "Request lines refused for exceeding the frame bound before their newline.",
            ),
            wire_bytes_received: registry.counter(
                "imserve_wire_bytes_received_total",
                "Request-line bytes received (newline included).",
            ),
            wire_bytes_sent: registry.counter(
                "imserve_wire_bytes_sent_total",
                "Reply-line bytes sent (newline included).",
            ),
            topk_cache_hits: registry.counter(
                "imserve_topk_cache_hits_total",
                "TopK answers served from the LRU cache.",
            ),
            topk_cache_misses: registry.counter(
                "imserve_topk_cache_misses_total",
                "TopK answers computed and inserted into the cache.",
            ),
            deltas_applied: registry.counter(
                "imserve_deltas_applied_total",
                "Graph deltas applied by this process.",
            ),
            sets_resampled: registry.counter(
                "imserve_sets_resampled_total",
                "RR sets resampled by this process.",
            ),
            compactions: registry.counter(
                "imserve_compactions_total",
                "Delta-log compactions performed (manual plus policy-triggered).",
            ),
            wal_appended_bytes: registry.counter(
                "imserve_wal_appended_bytes_total",
                "Bytes appended to the mutation write-ahead log.",
            ),
            wal_fsyncs: registry.counter(
                "imserve_wal_fsyncs_total",
                "WAL fsyncs performed (one per acknowledged batch).",
            ),
            wal_append_micros: registry.histogram(
                "imserve_wal_append_micros",
                "Duration of one WAL append (encode, write, fsync) in microseconds.",
            ),
            mutate_resampled_sets: registry.histogram(
                "imserve_mutate_resampled_sets",
                "Dirty RR sets resampled per applied mutation batch.",
            ),
            lineage_full_hashes: registry.counter(
                "imserve_lineage_full_hashes_total",
                "From-scratch O(n + m) lineage-fingerprint passes (engine build and reload only).",
            ),
            index_swap_micros: registry.histogram(
                "imserve_index_swap_micros",
                "Validated index hot-swap duration under the write lock, in microseconds.",
            ),
            repl_records_shipped: registry.counter(
                "imserve_repl_records_shipped_total",
                "WAL records shipped to replication followers.",
            ),
            repl_records_applied: registry.counter(
                "imserve_repl_records_applied_total",
                "Replicated WAL records applied by this follower.",
            ),
            repl_connections: registry.counter(
                "imserve_repl_connections_total",
                "Follower replication connections accepted.",
            ),
            repl_connected: registry.gauge(
                "imserve_repl_connected",
                "1 while the follower's replication stream is connected, 0 while redialing.",
            ),
            backpressure_stalls: registry.counter(
                "imserve_backpressure_stalls_total",
                "Times the reactor paused reading a connection at its in-flight or backlog bound.",
            ),
            throttled_connections: registry.gauge(
                "imserve_throttled_connections",
                "Connections currently paused at their in-flight or backlog bound.",
            ),
            inflight: registry.gauge(
                "imserve_inflight_requests",
                "Requests dispatched to compute and not yet completed.",
            ),
            reorder_depth: registry.gauge(
                "imserve_reorder_buffer_depth",
                "Completed responses parked in reorder buffers, across connections.",
            ),
            write_backlog_bytes: registry.gauge(
                "imserve_write_backlog_bytes",
                "Bytes buffered for write-back across all connections.",
            ),
            open_connections: registry.gauge(
                "imserve_open_connections",
                "Currently open client connections.",
            ),
            reactor_wakeups_socket: registry.counter(
                "imserve_reactor_wakeups_total{cause=\"socket\"}",
                REACTOR_WAKEUPS_HELP,
            ),
            reactor_wakeups_completion: registry.counter(
                "imserve_reactor_wakeups_total{cause=\"completion\"}",
                REACTOR_WAKEUPS_HELP,
            ),
            reactor_wakeups_timeout: registry.counter(
                "imserve_reactor_wakeups_total{cause=\"timeout\"}",
                REACTOR_WAKEUPS_HELP,
            ),
            reactor_poll_wait_micros: registry.histogram(
                "imserve_reactor_poll_wait_micros",
                "Time the reactor spent blocked in one readiness wait, in microseconds.",
            ),
            reactor_ready_sockets: registry.histogram(
                "imserve_reactor_ready_sockets",
                "Descriptors reported ready per reactor wake-up.",
            ),
            reactor_answered_loop: registry.counter(
                "imserve_reactor_requests_total{path=\"loop\"}",
                REACTOR_REQUESTS_HELP,
            ),
            reactor_answered_worker: registry.counter(
                "imserve_reactor_requests_total{path=\"worker\"}",
                REACTOR_REQUESTS_HELP,
            ),
            worker_panics: registry.counter(
                "imserve_worker_panics_total",
                "Requests that panicked in a compute worker and were answered with an Internal error.",
            ),
            accept_errors: registry.counter(
                "imserve_accept_errors_total",
                "Failed accept calls (descriptor exhaustion and kin), listener paused after each.",
            ),
            queue_wait_micros: registry.histogram(
                "imserve_queue_wait_micros",
                "Compute-pool queue wait in microseconds (dispatch to worker pickup).",
            ),
            reorder_wait_micros: registry.histogram(
                "imserve_reorder_wait_micros",
                "Reorder-buffer wait in microseconds (completion to in-order flush).",
            ),
            write_flush_micros: registry.histogram(
                "imserve_write_flush_micros",
                "Write-back flush duration in microseconds.",
            ),
            epoch: registry.gauge("imserve_epoch", "Current index epoch."),
            log_len: registry.gauge("imserve_log_len", "Pending (uncompacted) delta-log length."),
            snapshot_epoch: registry.gauge(
                "imserve_snapshot_epoch",
                "Snapshot watermark epoch (last compaction).",
            ),
            pool_size: registry.gauge("imserve_pool_size", "RR sets in the served pool."),
            pool_cold_reads: registry.counter(
                "imserve_pool_cold_reads_total",
                "Reads the pool store issued against its cold backing file.",
            ),
            pool_cold_read_bytes: registry.counter(
                "imserve_pool_cold_read_bytes_total",
                "Bytes the pool store read from its cold backing file.",
            ),
            pool_cold_seen: Mutex::new((0, 0)),
            uptime_seconds: registry.gauge(
                "imserve_uptime_seconds",
                "Seconds this serving process has been up.",
            ),
            shard_fanouts: registry.counter(
                "imserve_shard_fanouts_total",
                "Fan-out operations performed by the shard router (0 when unsharded).",
            ),
            router_rounds_threshold: registry.counter(
                "imserve_router_topk_rounds_total{path=\"threshold\"}",
                ROUTER_ROUNDS_HELP,
            ),
            router_rounds_full: registry.counter(
                "imserve_router_topk_rounds_total{path=\"full\"}",
                ROUTER_ROUNDS_HELP,
            ),
            router_shard_passes: registry.counter(
                "imserve_router_shard_passes_total",
                "Whole-pool gain passes the shard router asked of every shard: fan-outs of a \
                 GainCandidates with a list limit, or of a Gains (0 when unsharded).",
            ),
            per_shard: Mutex::new(Vec::new()),
            slow_log: SlowLog::new(SLOW_LOG_CAPACITY, slow_threshold_micros),
            slow_queries: registry.counter(
                "imserve_slow_queries_total",
                "Requests slower than the slow-query threshold.",
            ),
            event_log: EventLog::default(),
            registry,
            started: Instant::now(),
        };
        Arc::new(m)
    }

    /// A fresh metric set at the default slow-query threshold.
    #[must_use]
    pub fn with_defaults() -> Arc<Self> {
        Self::new(DEFAULT_SLOW_THRESHOLD_MICROS)
    }

    /// Seconds since this metric set was created (process serving time).
    #[must_use]
    pub fn uptime_secs(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// The hot-path handles for shard `index`, registering its labelled
    /// counter/histogram families on first use. Idempotent per index.
    pub fn shard_lane(&self, index: usize) -> ShardLane {
        let mut lanes = self.per_shard.lock().expect("shard lane lock");
        while lanes.len() <= index {
            let i = lanes.len();
            lanes.push(ShardLane {
                sends: self.registry.counter(
                    &format!("imserve_shard_sends_total{{shard=\"{i}\"}}"),
                    "Sub-requests sent to each shard by the router.",
                ),
                recvs: self.registry.counter(
                    &format!("imserve_shard_recvs_total{{shard=\"{i}\"}}"),
                    "Successful sub-responses received from each shard.",
                ),
                errors: self.registry.counter(
                    &format!("imserve_shard_errors_total{{shard=\"{i}\"}}"),
                    "Failed sub-requests per shard (transport, protocol or shard errors).",
                ),
                rtt_micros: self.registry.histogram(
                    &format!("imserve_shard_rtt_micros{{shard=\"{i}\"}}"),
                    "Round-trip time of sub-requests per shard in microseconds.",
                ),
            });
        }
        lanes[index].clone()
    }

    /// Mirror one maintenance counter (from [`imdyn::MaintenanceStats`])
    /// into a gauge named `imserve_maintenance_<name>`. Called at snapshot
    /// time, never on a hot path (registration re-fetches by name).
    pub fn set_maintenance(&self, name: &str, value: u64) {
        self.registry
            .gauge(
                &format!("imserve_maintenance_{name}"),
                "Incremental-maintenance counters mirrored from the dynamic oracle.",
            )
            .set(value as i64);
    }

    /// Mirror the served pool's lifetime cold-read counts into the two
    /// `imserve_pool_cold_*_total` counters. Called at snapshot time. The
    /// pool owns the running totals; a total below the last one seen is a
    /// fresh pool (hot-swapped by `reload`), whose reads all count.
    pub fn mirror_pool_cold_reads(&self, reads: u64, bytes: u64) {
        let mut seen = self.pool_cold_seen.lock().expect("cold-read mirror lock");
        self.pool_cold_reads
            .add(reads.checked_sub(seen.0).unwrap_or(reads));
        self.pool_cold_read_bytes
            .add(bytes.checked_sub(seen.1).unwrap_or(bytes));
        *seen = (reads, bytes);
    }

    /// Offer a finished span to the slow log (counting retentions).
    pub fn observe_span(&self, record: imobs::SpanRecord) {
        if self.slow_log.offer(record) {
            self.slow_queries.inc();
        }
    }

    /// Build the wire [`MetricsReport`] — the one snapshot every exposition
    /// face renders, merges or subtracts: every registered metric with its
    /// family's help text plus the slow-query log, in registration order,
    /// uptime gauge freshly sampled.
    #[must_use]
    pub fn report(&self) -> MetricsReport {
        self.uptime_seconds.set(self.uptime_secs() as i64);
        let snap = self.registry.snapshot();
        MetricsReport {
            help: snap
                .help
                .into_iter()
                .map(|(family, help)| FamilyHelp { family, help })
                .collect(),
            counters: snap
                .counters
                .into_iter()
                .map(|(name, value)| MetricSample { name, value })
                .collect(),
            gauges: snap
                .gauges
                .into_iter()
                .map(|(name, value)| GaugeSample { name, value })
                .collect(),
            histograms: snap
                .histograms
                .into_iter()
                .map(|(name, h)| {
                    let last = h.last_nonempty_bucket().unwrap_or(0);
                    let mut cumulative = 0u64;
                    let buckets = h
                        .buckets
                        .iter()
                        .take(last + 1)
                        .enumerate()
                        .map(|(i, &n)| {
                            cumulative += n;
                            HistogramBucket {
                                le: imobs::bucket_upper_bound(i),
                                count: cumulative,
                            }
                        })
                        .collect();
                    HistogramSample {
                        name,
                        count: h.count,
                        sum: h.sum,
                        buckets,
                    }
                })
                .collect(),
            slow_queries: self
                .slow_log
                .entries()
                .into_iter()
                .map(|r| SlowQuery {
                    trace: r.trace,
                    total_micros: r.total_micros,
                    stages: r
                        .events
                        .into_iter()
                        .map(|e| SpanStage {
                            stage: e.stage.to_string(),
                            at_micros: e.at_micros,
                        })
                        .collect(),
                })
                .collect(),
        }
    }
}

/// One ops-endpoint reply: a status code plus a plaintext body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpsResponse {
    /// HTTP status code (`200`, `404`, `503`).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl OpsResponse {
    /// A `200` Prometheus-exposition reply.
    #[must_use]
    pub fn metrics(body: String) -> Self {
        OpsResponse {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            body,
        }
    }

    /// A plaintext reply with an explicit status.
    #[must_use]
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        OpsResponse {
            status,
            content_type: "text/plain",
            body: body.into(),
        }
    }

    /// A `200` JSON-lines reply (the `/events` body).
    #[must_use]
    pub fn json_lines(body: String) -> Self {
        OpsResponse {
            status: 200,
            content_type: "application/x-ndjson",
            body,
        }
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            404 => "Not Found",
            503 => "Service Unavailable",
            _ => "Status",
        }
    }
}

/// Route one ops-endpoint request to the four operational surfaces:
///
/// | path                | reply |
/// |---------------------|-------|
/// | `/metrics` (or `/`) | Prometheus exposition from `metrics()` |
/// | `/events`           | recent events as JSON lines from `events()` |
/// | `/healthz`          | liveness: `200 ok` (the process answered) |
/// | `/readyz`           | readiness from `health()`: `200 ready`, or `503` naming every failing signal |
///
/// Anything else is `404`. The closures run only for their own path, so a
/// readiness probe never pays for a metrics snapshot.
pub fn route_ops_request(
    path: &str,
    metrics: impl FnOnce() -> String,
    events: impl FnOnce() -> String,
    health: impl FnOnce() -> crate::service::HealthReport,
) -> OpsResponse {
    match path {
        "/" | "/metrics" => OpsResponse::metrics(metrics()),
        "/events" => OpsResponse::json_lines(events()),
        "/healthz" => OpsResponse::text(200, "ok\n"),
        "/readyz" => {
            let report = health();
            let status = if report.ready { 200 } else { 503 };
            OpsResponse::text(status, report.render_text())
        }
        _ => OpsResponse::text(404, "not found\n"),
    }
}

/// Serve `handler(path)` over plaintext HTTP at `addr` from a detached
/// thread.
///
/// This is a deliberately tiny HTTP/1.0-style responder — parse the request
/// line's path, consume the head, answer, close — which is all a Prometheus
/// scraper, a Kubernetes probe, or `curl` needs. Returns the bound address
/// (useful with port `0`).
pub fn spawn_ops_endpoint<A, F>(addr: A, handler: F) -> std::io::Result<SocketAddr>
where
    A: ToSocketAddrs,
    F: Fn(&str) -> OpsResponse + Send + 'static,
{
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    std::thread::Builder::new()
        .name("imserve-metrics".into())
        .spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { continue };
                // One request per connection; any error just drops the
                // connection (the scraper retries).
                let _ = serve_one_scrape(stream, &handler);
            }
        })?;
    Ok(bound)
}

/// Answer a single request on `stream`.
fn serve_one_scrape(
    stream: std::net::TcpStream,
    handler: &impl Fn(&str) -> OpsResponse,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(std::time::Duration::from_secs(5)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    // Parse the request line's path (`GET /readyz HTTP/1.1`), then consume
    // the remaining head up to the blank line.
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let path = line
        .split_whitespace()
        .nth(1)
        .unwrap_or("/")
        .split('?')
        .next()
        .unwrap_or("/")
        .to_string();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 || line == "\r\n" || line == "\n" {
            break;
        }
    }
    let reply = handler(&path);
    let mut stream = stream;
    write!(
        stream,
        "HTTP/1.0 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        reply.status,
        reply.reason(),
        reply.content_type,
        reply.body.len(),
        reply.body
    )?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_counts_reflect_lane_counters() {
        let m = ServingMetrics::with_defaults();
        m.estimate.count.add(3);
        m.top_k.count.inc();
        m.stats.count.inc();
        m.health.count.add(2);
        m.events.count.inc();
        let counts = m.request_counts();
        assert_eq!(counts.estimate, 3);
        assert_eq!(counts.top_k, 1);
        assert_eq!(counts.stats, 1);
        assert_eq!(counts.health, 2);
        assert_eq!(counts.events, 1);
        assert_eq!(counts.total(), 8);
    }

    #[test]
    fn cold_read_mirror_adds_deltas_and_survives_a_pool_swap() {
        let m = ServingMetrics::with_defaults();
        m.mirror_pool_cold_reads(10, 100);
        m.mirror_pool_cold_reads(15, 160);
        assert_eq!(m.pool_cold_reads.get(), 15);
        assert_eq!(m.pool_cold_read_bytes.get(), 160);
        // A reloaded index starts a fresh pool whose totals restart at zero.
        m.mirror_pool_cold_reads(3, 30);
        assert_eq!(m.pool_cold_reads.get(), 18);
        assert_eq!(m.pool_cold_read_bytes.get(), 190);
    }

    #[test]
    fn shard_lanes_register_labelled_families_once() {
        let m = ServingMetrics::with_defaults();
        let lane1 = m.shard_lane(1); // registers shards 0 and 1
        lane1.sends.inc();
        lane1.errors.inc();
        let again = m.shard_lane(1);
        again.sends.inc();
        let text = m.report().render_prometheus();
        assert!(
            text.contains("imserve_shard_sends_total{shard=\"0\"} 0"),
            "{text}"
        );
        assert!(
            text.contains("imserve_shard_sends_total{shard=\"1\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("imserve_shard_errors_total{shard=\"1\"} 1"),
            "{text}"
        );
        assert_eq!(
            text.matches("# TYPE imserve_shard_sends_total counter")
                .count(),
            1
        );
    }

    #[test]
    fn report_mirrors_registry_and_slow_log() {
        let m = ServingMetrics::new(100);
        m.estimate.count.inc();
        m.estimate.latency_micros.record(250);
        m.set_maintenance("compactions", 4);
        let mut span = imobs::Span::begin(0x42);
        span.event_with_micros("queue_wait", 10);
        span.event_with_micros("execute", 200);
        let mut record = span.finish();
        record.total_micros = 250; // force it over the threshold
        m.observe_span(record);

        let report = m.report();
        assert_eq!(
            report.counter("imserve_requests_total{type=\"estimate\"}"),
            1
        );
        assert_eq!(report.gauge("imserve_maintenance_compactions"), 4);
        let hist = report
            .histogram("imserve_request_latency_micros{type=\"estimate\"}")
            .unwrap();
        assert_eq!(hist.count, 1);
        assert_eq!(hist.sum, 250);
        assert_eq!(hist.quantile_micros(0.99), 255);
        assert_eq!(report.slow_queries.len(), 1);
        assert_eq!(report.slow_queries[0].trace, 0x42);
        assert_eq!(report.slow_queries[0].stages[1].stage, "execute");
        assert_eq!(m.slow_queries.get(), 1);

        let text = report.render_prometheus();
        assert!(
            text.contains("# slowlog trace=0x42 total_us=250 stages[queue_wait=10,execute=200]"),
            "{text}"
        );
    }

    #[test]
    fn metrics_endpoint_answers_plaintext_scrapes() {
        let m = ServingMetrics::with_defaults();
        m.info.count.add(7);
        let addr = spawn_ops_endpoint("127.0.0.1:0", move |path| {
            route_ops_request(
                path,
                || m.report().render_prometheus(),
                String::new,
                crate::service::HealthReport::new,
            )
        })
        .unwrap();
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        write!(stream, "GET /metrics HTTP/1.0\r\nHost: test\r\n\r\n").unwrap();
        let mut body = String::new();
        use std::io::Read as _;
        stream.read_to_string(&mut body).unwrap();
        assert!(body.starts_with("HTTP/1.0 200 OK"), "{body}");
        assert!(body.contains("text/plain"), "{body}");
        assert!(
            body.contains("imserve_requests_total{type=\"info\"} 7"),
            "{body}"
        );
        assert!(
            body.contains("# TYPE imserve_uptime_seconds gauge"),
            "{body}"
        );
    }
}
