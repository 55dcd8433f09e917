//! The unified influence-query surface: one request vocabulary over every
//! backend.
//!
//! A question is asked in one vocabulary, the wire [`Request`] and its
//! [`Response`]. [`InfluenceService::call`] is the trait's one required
//! method; the typed methods (`estimate`, `top_k`, …) are written once here
//! on top of it. The implementations fall into two kinds:
//!
//! * **backends** compute answers and keep typed methods of their own:
//!   [`LocalService`] wraps an [`std::sync::Arc`]'d engine (the in-process,
//!   scratch-reusing backend), and [`crate::shard::ShardedService`] routes
//!   over N backends holding disjoint RR-set pool shards and merges their
//!   integer coverage counts, so its answers are byte-identical to a
//!   single-pool backend;
//! * **relays** pass a request along: [`crate::client::RemoteService`]
//!   (protocol v2 over TCP), [`crate::client::ReconnectingService`],
//!   [`crate::replica::ReplicaSet`] and `Box<S>`. They implement `call`, and
//!   its two halves `begin` / `finish` (send now, read the reply later) so a
//!   router can have one request in flight on every shard at once.
//!
//! Every method returns `Result<_, `[`ServiceError`]`>` with a typed error
//! taxonomy instead of a stringly `Response::Error`, and the result types
//! carry the integer coverage counts (`covered`, `pool`) that make exact
//! cross-shard merging possible — floating-point combination of per-shard
//! spreads would not reproduce the single-pool answer bit for bit.

use std::sync::Arc;

use im_core::{EstimateScratch, TopGains};
use imdyn::EpochReport;
use imgraph::GraphDelta;
use serde::{Deserialize, Serialize};

use crate::engine::QueryEngine;
use crate::error::ServeError;
use crate::protocol::{Request, Response, TopKAlgorithm};

/// Everything that can go wrong while answering an influence query, typed by
/// *whose fault it is* so callers can branch without parsing messages. The
/// first four variants travel over protocol v2 as
/// [`crate::protocol::ErrorKind`]; the rest are client-side conditions that
/// never appear on the wire.
#[derive(Debug)]
pub enum ServiceError {
    /// The query itself is invalid against the served index (seed out of
    /// range, `k == 0`, …). Retrying without changing the request is useless.
    Query(String),
    /// A mutation batch was rejected (invalid delta, duplicate edge, …);
    /// atomic batches leave the index untouched.
    Mutation(String),
    /// The peer violated the wire protocol (malformed frame, wrong response
    /// variant, version mismatch).
    Protocol(String),
    /// The backend failed internally (index corruption, WAL append failure).
    Backend(String),
    /// The transport failed (connect, read, write).
    Transport(std::io::Error),
    /// A sharded deployment lost its union invariant (shards disagree on
    /// epoch, dimensions, or a broadcast was torn). Queries can no longer be
    /// merged soundly; the shards need re-synchronization.
    Shard(String),
    /// The backend is a read-only replica: it applies mutations only from
    /// its replication stream, never from clients. Write to the leader (or
    /// promote the replica) instead.
    ReadOnly(String),
    /// A follower promotion was refused — its replication cursor has not
    /// reached the epoch the caller required. The message names the epoch
    /// gap.
    Promotion(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Query(m) => write!(f, "query error: {m}"),
            ServiceError::Mutation(m) => write!(f, "mutation rejected: {m}"),
            ServiceError::Protocol(m) => write!(f, "protocol error: {m}"),
            ServiceError::Backend(m) => write!(f, "backend error: {m}"),
            ServiceError::Transport(e) => write!(f, "transport error: {e}"),
            ServiceError::Shard(m) => write!(f, "shard invariant violated: {m}"),
            ServiceError::ReadOnly(m) => write!(f, "read-only replica: {m}"),
            ServiceError::Promotion(m) => write!(f, "promotion refused: {m}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> Self {
        ServiceError::Transport(e)
    }
}

impl From<ServeError> for ServiceError {
    fn from(e: ServeError) -> Self {
        match e {
            ServeError::Io(io) => ServiceError::Transport(io),
            ServeError::Protocol(m) => ServiceError::Protocol(m),
            ServeError::Query(m) => ServiceError::Query(m),
            ServeError::Index(b) => ServiceError::Backend(format!("index error: {b}")),
            ServeError::Build(m) => ServiceError::Backend(format!("build error: {m}")),
            ServeError::Wal(m) => ServiceError::Backend(format!("WAL error: {m}")),
        }
    }
}

/// Shorthand for the trait's return type.
pub type ServiceResult<T> = Result<T, ServiceError>;

/// Index metadata as served: dimensions of the graph and pool behind the
/// service. For a sharded service the pool size is the union pool and the
/// confidence half-width is derived from it.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceInfo {
    /// Stable identifier of the indexed graph.
    pub graph_id: String,
    /// Label of the edge-probability model.
    pub model: String,
    /// Vertices of the indexed graph.
    pub num_vertices: usize,
    /// Edges of the indexed graph (tracks mutations).
    pub num_edges: usize,
    /// RR sets answering queries (summed over shards).
    pub pool_size: usize,
    /// The oracle's 99 % confidence half-width `1.29·n/√pool`.
    pub confidence_99: f64,
    /// First global set id of the served pool: `0` for a whole pool (or a
    /// fully merged shard group), the shard's stream offset for one shard.
    /// Together with `pool_size` this is the pool's global range — what a
    /// shard router validates disjoint, gap-free coverage against.
    pub shard_offset: u64,
    /// RR sets in the whole global pool this one belongs to (equal to
    /// `pool_size` for an unsharded index or a fully merged group).
    pub global_pool: u64,
}

/// A spread estimate, with the integer coverage count it derives from.
///
/// `spread == num_vertices · covered / pool` exactly; carrying the integers
/// lets a router re-derive the union estimate from summed counts so a
/// sharded answer is bit-identical to the single-pool one.
#[derive(Debug, Clone, PartialEq)]
pub struct SpreadEstimate {
    /// The seeds echoed back (as received).
    pub seeds: Vec<u32>,
    /// The oracle estimate `n·(covered fraction of the pool)`.
    pub spread: f64,
    /// Distinct pool RR sets intersecting the seed set.
    pub covered: u64,
    /// RR sets in the answering pool.
    pub pool: u64,
}

/// A selected seed set with its estimated joint influence.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKSelection {
    /// The chosen seeds in selection order.
    pub seeds: Vec<u32>,
    /// The oracle estimate of the joint influence of `seeds`.
    pub spread: f64,
    /// The strategy that produced the set.
    pub algorithm: TopKAlgorithm,
}

/// One round of greedy maximum coverage as data: every vertex's marginal
/// coverage gain given an already-selected seed set — the shard-side
/// primitive of distributed `TopK` (see
/// [`im_core::InfluenceOracle::coverage_gains`]).
#[derive(Debug, Clone, PartialEq)]
pub struct GainVector {
    /// Per-vertex marginal gain: pool RR sets the vertex covers that the
    /// selected set does not.
    pub gains: Vec<u64>,
    /// Pool RR sets covered by the selected set.
    pub covered: u64,
    /// RR sets in the answering pool.
    pub pool: u64,
}

/// One greedy round answered output-sensitively: a backend's best few
/// vertices and one bound on all the others, instead of every vertex's gain
/// (see [`InfluenceService::gain_candidates`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GainCandidates {
    /// The backend's top `limit` vertices by `(gain desc, id asc)`.
    pub vertices: Vec<u32>,
    /// `counts[i]` is the marginal gain of `vertices[i]`.
    pub counts: Vec<u64>,
    /// No vertex absent from `vertices` gains more than this: the largest
    /// unlisted gain (`0` when every vertex is listed), or — when nothing
    /// was listed (`limit == 0`, no whole-pool pass made) — the uncovered
    /// remainder `pool - covered`, which no gain can exceed.
    pub bound: u64,
    /// `probed[i]` is the exact marginal gain of the request's `probe[i]`.
    pub probed: Vec<u64>,
    /// Pool RR sets covered by the selected set.
    pub covered: u64,
    /// RR sets in the answering pool.
    pub pool: u64,
}

impl GainCandidates {
    /// The answer that lists nothing (`limit == 0`): exact gains at the
    /// probed vertices, and — no pass having been made to find a largest
    /// unlisted gain — the bound no gain can exceed, the uncovered
    /// remainder of the pool.
    #[must_use]
    pub fn probes_only(probed: Vec<u64>, covered: u64, pool: u64) -> Self {
        Self {
            vertices: Vec::new(),
            counts: Vec::new(),
            bound: pool.saturating_sub(covered),
            probed,
            covered,
            pool,
        }
    }
}

/// Refuse a caller-supplied vertex list a graph of `n` vertices cannot
/// index: an id past the last vertex, or a list longer than the graph has
/// vertices (duplicates are tolerated, but more entries than vertices is
/// never a real query — and a posting-list walk per entry is the caller's
/// to size).
pub(crate) fn check_vertices(what: &str, vertices: &[u32], n: usize) -> ServiceResult<()> {
    if vertices.len() > n {
        return Err(ServiceError::Query(format!(
            "{} {what} entries given for {n} vertices",
            vertices.len()
        )));
    }
    match vertices.iter().find(|&&v| v as usize >= n) {
        Some(bad) => Err(ServiceError::Query(format!(
            "{what} {bad} out of range for {n} vertices"
        ))),
        None => Ok(()),
    }
}

impl GainVector {
    /// Cut this round down to its [`GainCandidates`]: the top `limit`
    /// vertices by `(gain desc, id asc)` ([`TopGains`] over the vector, the
    /// ranking a greedy pass keeps in-process), the bound on the rest, and
    /// the gains at `probe`.
    ///
    /// # Panics
    ///
    /// Panics if a probed vertex is out of range (backends range-check
    /// `probe` before they get here).
    #[must_use]
    pub fn candidates(&self, limit: usize, probe: &[u32]) -> GainCandidates {
        let probed = probe.iter().map(|&v| self.gains[v as usize]).collect();
        let limit = limit.min(self.gains.len());
        if limit == 0 {
            return GainCandidates::probes_only(probed, self.covered, self.pool);
        }
        let mut top = TopGains::new(limit);
        for (v, &gain) in self.gains.iter().enumerate() {
            top.offer(v as u32, gain);
        }
        let (listed, bound) = top.finish();
        let (vertices, counts) = listed.into_iter().unzip();
        GainCandidates {
            vertices,
            counts,
            bound,
            probed,
            covered: self.covered,
            pool: self.pool,
        }
    }
}

/// What an applied mutation batch did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutationOutcome {
    /// The index epoch after the batch (total deltas ever applied).
    pub epoch: u64,
    /// Deltas applied by this batch.
    pub applied: usize,
    /// Distinct RR sets resampled (summed over shards).
    pub resampled: usize,
    /// Whether the batch triggered an automatic compaction (any shard).
    pub compacted: bool,
}

/// What a compaction did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionReport {
    /// The index epoch — unchanged by compaction.
    pub epoch: u64,
    /// Pending deltas folded into the watermark (summed over shards).
    pub folded: usize,
}

/// What a hot-swap reload did. The swap never changes answers — the new
/// artifact must replay to the identical epoch and fingerprint — so the
/// outcome only reports the (unchanged) logical position and the new
/// physical shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReloadOutcome {
    /// The index epoch (identical before and after the swap).
    pub epoch: u64,
    /// RR sets in the served pool after the swap.
    pub pool_size: usize,
    /// Pending delta-log length after the swap (typically smaller: the
    /// reloaded artifact is usually a compacted copy).
    pub log_len: usize,
    /// Microseconds the validated swap took under the write lock.
    pub swap_micros: u64,
}

/// What a promotion did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PromotionOutcome {
    /// The node's epoch at the moment it became writable.
    pub epoch: u64,
    /// Whether this call actually flipped the node writable (`false` when
    /// it was already a leader — promotion is idempotent).
    pub was_read_only: bool,
}

/// Lifetime request counts split by request type — the per-type half of the
/// operational picture `query --stats` reports. Travels on the wire inside
/// `Response::Stats` (volatile, like every other stats field).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestTypeCounts {
    /// `Ping` liveness checks.
    pub ping: u64,
    /// `Hello` version handshakes.
    pub hello: u64,
    /// `Info` metadata requests.
    pub info: u64,
    /// `Estimate` spread queries.
    pub estimate: u64,
    /// `TopK` selections.
    pub top_k: u64,
    /// `Gains` marginal-coverage queries.
    pub gains: u64,
    /// `GainCandidates` output-sensitive greedy rounds.
    pub gain_candidates: u64,
    /// `MutateBatch` atomic batches.
    pub mutate_batch: u64,
    /// `Compact` requests.
    pub compact: u64,
    /// `Stats` requests.
    pub stats: u64,
    /// `Metrics` snapshot requests.
    pub metrics: u64,
    /// `Health` probes.
    pub health: u64,
    /// `Events` snapshot requests.
    pub events: u64,
    /// `Reload` hot-swap requests.
    pub reload: u64,
    /// `Promote` admin requests.
    pub promote: u64,
}

impl RequestTypeCounts {
    /// Total requests across every type.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.ping
            + self.hello
            + self.info
            + self.estimate
            + self.top_k
            + self.gains
            + self.gain_candidates
            + self.mutate_batch
            + self.compact
            + self.stats
            + self.metrics
            + self.health
            + self.events
            + self.reload
            + self.promote
    }

    /// Field-wise sum (how a shard router aggregates its backends).
    #[must_use]
    pub fn merged(&self, other: &Self) -> Self {
        Self {
            ping: self.ping + other.ping,
            hello: self.hello + other.hello,
            info: self.info + other.info,
            estimate: self.estimate + other.estimate,
            top_k: self.top_k + other.top_k,
            gains: self.gains + other.gains,
            gain_candidates: self.gain_candidates + other.gain_candidates,
            mutate_batch: self.mutate_batch + other.mutate_batch,
            compact: self.compact + other.compact,
            stats: self.stats + other.stats,
            metrics: self.metrics + other.metrics,
            health: self.health + other.health,
            events: self.events + other.events,
            reload: self.reload + other.reload,
            promote: self.promote + other.promote,
        }
    }
}

/// Serving counters, pool dimensions and the epoch timeline.
///
/// For local and remote backends `shards` is empty; a sharded service
/// reports one lockstep-verified [`EpochReport`] per shard (the shard-aware
/// epoch reporting that makes torn broadcasts observable).
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceStats {
    /// Total requests handled (summed over shards; lifetime counters).
    pub requests: u64,
    /// `TopK` answers served from backend LRU caches.
    pub topk_cache_hits: u64,
    /// `TopK` answers computed and inserted into backend caches.
    pub topk_cache_misses: u64,
    /// RR sets answering queries (summed over shards).
    pub pool_size: usize,
    /// Current index epoch (lockstep across shards).
    pub epoch: u64,
    /// Deltas applied by the serving process(es).
    pub deltas_applied: u64,
    /// RR sets resampled by the serving process(es) (summed over shards).
    pub sets_resampled: u64,
    /// Pending (uncompacted) deltas in the log (lockstep across shards).
    pub log_len: usize,
    /// The snapshot watermark (lockstep across shards).
    pub snapshot_epoch: u64,
    /// Compactions performed (summed over shards).
    pub compactions: u64,
    /// Seconds the serving process has been up (the max over shards — the
    /// oldest backend of the group).
    pub uptime_secs: u64,
    /// Lifetime requests split by request type (summed over shards).
    pub requests_by_type: RequestTypeCounts,
    /// Bytes of process memory the pool store keeps resident (summed over
    /// shards): list directories, skip headers, hot lists and overlays — a
    /// tiered store's cold file bytes are excluded.
    pub pool_resident_bytes: u64,
    /// Active pool-store layout label (`raw`, `compressed`, `tiered`;
    /// `mixed` when shards disagree).
    pub pool_layout: String,
    /// Per-shard epoch reports (empty for unsharded backends).
    pub shards: Vec<EpochReport>,
}

impl ServiceStats {
    /// Resident pool bytes per RR set — the storage engine's headline
    /// figure (`0.0` for an empty pool).
    #[must_use]
    pub fn pool_bytes_per_set(&self) -> f64 {
        if self.pool_size == 0 {
            return 0.0;
        }
        self.pool_resident_bytes as f64 / self.pool_size as f64
    }
}

/// One sampled counter or other scalar `u64` metric.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricSample {
    /// Fully-qualified metric name (may carry inline labels).
    pub name: String,
    /// Sampled value.
    pub value: u64,
}

/// One sampled gauge (signed level).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GaugeSample {
    /// Fully-qualified metric name.
    pub name: String,
    /// Sampled level.
    pub value: i64,
}

/// One cumulative histogram bucket: samples `≤ le`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramBucket {
    /// Inclusive upper bound of the bucket.
    pub le: u64,
    /// Samples at or below `le` (cumulative).
    pub count: u64,
}

/// One sampled log₂ histogram, in cumulative-bucket form (trailing empty
/// buckets trimmed; the last bucket's count equals `count`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSample {
    /// Fully-qualified metric name.
    pub name: String,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Cumulative buckets, lowest bound first.
    pub buckets: Vec<HistogramBucket>,
}

impl HistogramSample {
    /// Upper bound of the bucket holding the `q`-quantile sample (`0` when
    /// empty) — the same estimate the server-side histogram answers, exact
    /// to within one log₂ bucket.
    #[must_use]
    pub fn quantile_micros(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        for b in &self.buckets {
            if b.count >= rank {
                return b.le;
            }
        }
        self.buckets.last().map_or(0, |b| b.le)
    }
}

/// One stage event inside a traced request span.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanStage {
    /// Stage label (`parse`, `queue_wait`, `execute`, …).
    pub stage: String,
    /// Microseconds this stage took.
    pub at_micros: u64,
}

/// One retained slow query: its trace id and full stage timeline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlowQuery {
    /// The request's trace id (shared across hops of one logical request,
    /// so router-side and shard-side entries stitch together).
    pub trace: u64,
    /// End-to-end microseconds for this hop.
    pub total_micros: u64,
    /// Stage events in record order.
    pub stages: Vec<SpanStage>,
}

/// One metric family's `# HELP` text (a family is a series name up to its
/// `{`, so labelled series share one entry).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FamilyHelp {
    /// Family name.
    pub family: String,
    /// Human-readable description.
    pub help: String,
}

/// A point-in-time snapshot of a backend's observability state: every
/// registered counter, gauge and histogram plus the slow-query log. This is
/// the one snapshot type every exposition face works on: the wire form of
/// `query --metrics` / `Request::Metrics`, what a router merges, what the
/// load generator subtracts, and what `/metrics` renders.
///
/// Like `Stats`, metrics responses are deliberately volatile — the
/// byte-identity invariant covers query answers, not diagnostics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsReport {
    /// Every counter, in registration order.
    pub counters: Vec<MetricSample>,
    /// Every gauge, in registration order.
    pub gauges: Vec<GaugeSample>,
    /// Every histogram, in registration order.
    pub histograms: Vec<HistogramSample>,
    /// Retained slow queries, oldest first.
    pub slow_queries: Vec<SlowQuery>,
    /// Help text of every family above, in first-registration order.
    pub help: Vec<FamilyHelp>,
}

/// Insert `shard="i"` as the first label of a (possibly already labelled)
/// series name: `x_total` → `x_total{shard="0"}`, `x_total{type="a"}` →
/// `x_total{shard="0",type="a"}`.
fn shard_labelled(name: &str, shard: usize) -> String {
    match name.split_once('{') {
        Some((family, rest)) => format!("{family}{{shard=\"{shard}\",{rest}"),
        None => format!("{name}{{shard=\"{shard}\"}}"),
    }
}

/// Merge two cumulative log₂ histogram bucket series. Both sides are
/// contiguous from bucket index 0 with canonical `le` bounds (the shape
/// every `MetricsReport` producer emits), so bucket `i` aligns with bucket
/// `i` and a cumulative count past a side's trimmed tail saturates at that
/// side's total — exactly the series the concatenated samples would
/// produce.
fn merge_cumulative_buckets(
    a: &[HistogramBucket],
    a_total: u64,
    b: &[HistogramBucket],
    b_total: u64,
) -> Vec<HistogramBucket> {
    let len = a.len().max(b.len());
    let mut out = Vec::with_capacity(len);
    for i in 0..len {
        let le = a
            .get(i)
            .or_else(|| b.get(i))
            .map_or_else(|| imobs::bucket_upper_bound(i), |bucket| bucket.le);
        let ca = a.get(i).map_or(a_total, |bucket| bucket.count);
        let cb = b.get(i).map_or(b_total, |bucket| bucket.count);
        out.push(HistogramBucket { le, count: ca + cb });
    }
    out
}

impl MetricsReport {
    /// Look up a counter value by exact name (`0` when absent — counters
    /// that never fired may legitimately be missing from older servers).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|s| s.name == name)
            .map_or(0, |s| s.value)
    }

    /// Look up a gauge level by exact name.
    #[must_use]
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges
            .iter()
            .find(|s| s.name == name)
            .map_or(0, |s| s.value)
    }

    /// Look up a histogram by exact name.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSample> {
        self.histograms.iter().find(|s| s.name == name)
    }

    /// A copy of this report with every series relabelled under
    /// `shard="i"` — how a router tags one shard's snapshot before folding
    /// it into the federated cluster report. Slow queries are kept verbatim
    /// (they already carry trace ids that identify their hop), and so is the
    /// help text (a label never changes a series' family).
    #[must_use]
    pub fn with_shard_label(&self, shard: usize) -> MetricsReport {
        let mut labelled = self.clone();
        let names = (labelled.counters.iter_mut().map(|s| &mut s.name))
            .chain(labelled.gauges.iter_mut().map(|s| &mut s.name))
            .chain(labelled.histograms.iter_mut().map(|s| &mut s.name));
        for name in names {
            *name = shard_labelled(name, shard);
        }
        labelled
    }

    /// Fold `other` into `self` by exact series name: counters and gauges
    /// sum, cumulative histogram buckets add element-wise (so a merged
    /// quantile keeps the one-bucket error bound), series and help entries
    /// absent on one side append verbatim, and slow queries concatenate.
    /// Merging a shard-labelled copy *and* the unlabelled original gives
    /// the federated shape: per-shard series plus a cluster-wide sum.
    pub fn merge(&mut self, other: &MetricsReport) {
        for sample in &other.counters {
            match self.counters.iter_mut().find(|s| s.name == sample.name) {
                Some(mine) => mine.value += sample.value,
                None => self.counters.push(sample.clone()),
            }
        }
        for sample in &other.gauges {
            match self.gauges.iter_mut().find(|s| s.name == sample.name) {
                Some(mine) => mine.value += sample.value,
                None => self.gauges.push(sample.clone()),
            }
        }
        for sample in &other.histograms {
            match self.histograms.iter_mut().find(|s| s.name == sample.name) {
                Some(mine) => {
                    mine.buckets = merge_cumulative_buckets(
                        &mine.buckets,
                        mine.count,
                        &sample.buckets,
                        sample.count,
                    );
                    mine.count += sample.count;
                    mine.sum = mine.sum.wrapping_add(sample.sum);
                }
                None => self.histograms.push(sample.clone()),
            }
        }
        self.slow_queries.extend(other.slow_queries.iter().cloned());
        for entry in &other.help {
            if !self.help.iter().any(|h| h.family == entry.family) {
                self.help.push(entry.clone());
            }
        }
    }

    /// What this snapshot gained over the earlier `before` of the same
    /// backend: counters and cumulative histogram buckets saturating-subtract
    /// by exact series name (a bucket past `before`'s trimmed tail subtracts
    /// `before`'s total, mirroring [`MetricsReport::merge`]), so
    /// [`HistogramSample::quantile_micros`] on the difference is the
    /// quantile of the samples recorded in between. Gauges, slow queries and
    /// help text are levels, not totals: they stay this snapshot's.
    #[must_use]
    pub fn since(&self, before: &MetricsReport) -> MetricsReport {
        let mut delta = self.clone();
        for sample in &mut delta.counters {
            sample.value = sample.value.saturating_sub(before.counter(&sample.name));
        }
        for sample in &mut delta.histograms {
            let Some(earlier) = before.histogram(&sample.name) else {
                continue;
            };
            for (i, bucket) in sample.buckets.iter_mut().enumerate() {
                let seen = earlier.buckets.get(i).map_or(earlier.count, |b| b.count);
                bucket.count = bucket.count.saturating_sub(seen);
            }
            sample.count = sample.count.saturating_sub(earlier.count);
            sample.sum = sample.sum.wrapping_sub(earlier.sum);
        }
        delta
    }

    /// Render this report in Prometheus plaintext exposition format
    /// (version 0.0.4) — every `/metrics` body, a single server's and a
    /// router's federated one alike: `# HELP` (when the report has the
    /// family's text) and `# TYPE` per family, cumulative `_bucket{le=...}`
    /// series plus `_sum` / `_count` for histograms, slow queries as
    /// trailing `# slowlog` comment lines (legal in the format: scrapers
    /// ignore them, humans and the CI smoke read the span timelines).
    ///
    /// Output is **byte-stable**: families and the labelled series within
    /// them sort, so equal state renders to equal bytes regardless of
    /// registration order (per-shard lanes register lazily from workers).
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        enum Kind<'a> {
            Counter(u64),
            Gauge(i64),
            Histogram(&'a HistogramSample),
        }
        let mut series: Vec<(&str, &str, Kind<'_>)> = Vec::new();
        for s in &self.counters {
            series.push((imobs::family_of(&s.name), &s.name, Kind::Counter(s.value)));
        }
        for s in &self.gauges {
            series.push((imobs::family_of(&s.name), &s.name, Kind::Gauge(s.value)));
        }
        for s in &self.histograms {
            series.push((imobs::family_of(&s.name), &s.name, Kind::Histogram(s)));
        }
        series.sort_by(|a, b| a.0.cmp(b.0).then_with(|| a.1.cmp(b.1)));
        let mut out = String::new();
        let mut last_family: Option<&str> = None;
        for (family, name, kind) in &series {
            if last_family != Some(family) {
                last_family = Some(family);
                if let Some(entry) = self.help.iter().find(|h| h.family == *family) {
                    let _ = writeln!(out, "# HELP {family} {}", entry.help);
                }
                let type_name = match kind {
                    Kind::Counter(_) => "counter",
                    Kind::Gauge(_) => "gauge",
                    Kind::Histogram(_) => "histogram",
                };
                let _ = writeln!(out, "# TYPE {family} {type_name}");
            }
            match kind {
                Kind::Counter(v) => {
                    let _ = writeln!(out, "{name} {v}");
                }
                Kind::Gauge(v) => {
                    let _ = writeln!(out, "{name} {v}");
                }
                Kind::Histogram(h) => {
                    for bucket in &h.buckets {
                        let _ = writeln!(
                            out,
                            "{name}_bucket{{le=\"{}\"}} {}",
                            bucket.le, bucket.count
                        );
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
                    let _ = writeln!(out, "{name}_sum {}", h.sum);
                    let _ = writeln!(out, "{name}_count {}", h.count);
                }
            }
        }
        for slow in &self.slow_queries {
            let _ = write!(
                out,
                "# slowlog trace={:#x} total_us={} stages[",
                slow.trace, slow.total_micros
            );
            for (i, stage) in slow.stages.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                let _ = write!(out, "{sep}{}={}", stage.stage, stage.at_micros);
            }
            let _ = writeln!(out, "]");
        }
        out
    }
}

/// One typed field of a wire [`EventRecord`], stringified at snapshot time
/// (the in-process ring keeps values typed; the wire does not need to).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventFieldSample {
    /// Field name.
    pub name: String,
    /// Field value, rendered.
    pub value: String,
}

/// One operational event as served by the `Events` protocol request and the
/// `/events` endpoint: the wire form of [`imobs::Event`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventRecord {
    /// Monotone per-process sequence number.
    pub seq: u64,
    /// Severity (`info` / `warn` / `error`).
    pub level: String,
    /// Stable machine-readable code (`wal_append_failed`, `torn_broadcast`,
    /// `compaction_finished`, …).
    pub code: String,
    /// Wall-clock microseconds since the Unix epoch when recorded.
    pub at_unix_micros: u64,
    /// The active trace id (`0` when the event happened outside a request).
    pub trace: u64,
    /// Typed fields, stringified.
    pub fields: Vec<EventFieldSample>,
}

impl From<&imobs::Event> for EventRecord {
    fn from(event: &imobs::Event) -> Self {
        EventRecord {
            seq: event.seq,
            level: event.level.as_str().to_string(),
            code: event.code.to_string(),
            at_unix_micros: event.at_unix_micros,
            trace: event.trace,
            fields: event
                .fields
                .iter()
                .map(|f| EventFieldSample {
                    name: f.name.to_string(),
                    value: f.value.to_string(),
                })
                .collect(),
        }
    }
}

impl EventRecord {
    /// Look up a field's rendered value by name.
    #[must_use]
    pub fn field(&self, name: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|f| f.name == name)
            .map(|f| f.value.as_str())
    }
}

/// One named health signal with its verdict and a human-readable detail
/// (which shard, which bound, what it read).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthSignal {
    /// Signal name (`wal_writable`, `shard_0_reachable`, `epoch_lockstep`,
    /// `reactor_backpressure`, …).
    pub name: String,
    /// Whether the signal is healthy.
    pub ok: bool,
    /// What the signal read, or why it failed.
    pub detail: String,
}

/// A liveness/readiness verdict computed from real signals — the payload of
/// the `Health` protocol request and the `/readyz` endpoint. `ready` is the
/// conjunction of every signal, so a degraded report always names *which*
/// signal (and for a router, which shard) failed and why.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthReport {
    /// Whether every signal is healthy.
    pub ready: bool,
    /// Every evaluated signal, healthy or not.
    pub signals: Vec<HealthSignal>,
}

impl HealthReport {
    /// An empty (vacuously ready) report to push signals into.
    #[must_use]
    pub fn new() -> Self {
        HealthReport {
            ready: true,
            signals: Vec::new(),
        }
    }

    /// Record one signal; an unhealthy one flips `ready` off.
    pub fn push(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.ready &= ok;
        self.signals.push(HealthSignal {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    /// Look up a signal by exact name.
    #[must_use]
    pub fn signal(&self, name: &str) -> Option<&HealthSignal> {
        self.signals.iter().find(|s| s.name == name)
    }

    /// The plaintext `/readyz` body: `ready` on success, otherwise
    /// `not ready` followed by one `name: detail` line per failing signal.
    #[must_use]
    pub fn render_text(&self) -> String {
        if self.ready {
            return "ready\n".to_string();
        }
        let mut out = String::from("not ready\n");
        for signal in self.signals.iter().filter(|s| !s.ok) {
            out.push_str(&signal.name);
            out.push_str(": ");
            out.push_str(&signal.detail);
            out.push('\n');
        }
        out
    }
}

/// The error raised when a request is answered with a reply of another
/// kind (by a typed method, or by a peer's handshake).
pub(crate) fn unexpected<T>(asked: &str, reply: Response) -> ServiceResult<T> {
    Err(ServiceError::Protocol(format!(
        "{asked} answered with {reply:?}"
    )))
}

/// `TryFrom<Response>` for a typed result: the one reply variant that
/// carries it, field for field (plus any field the wire does not carry,
/// after a `;`); any other reply is [`unexpected`] for the request kind
/// named.
macro_rules! from_reply {
    ($typed:ty, $asked:literal, $variant:ident { $($field:ident),* } $(; $extra:ident: $value:expr)?) => {
        impl TryFrom<Response> for $typed {
            type Error = ServiceError;
            fn try_from(reply: Response) -> ServiceResult<Self> {
                match reply {
                    Response::$variant { $($field),* } => Ok(Self { $($field,)* $($extra: $value)? }),
                    other => unexpected($asked, other),
                }
            }
        }
    };
    ($typed:ty, $asked:literal, $variant:ident(_)) => {
        impl TryFrom<Response> for $typed {
            type Error = ServiceError;
            fn try_from(reply: Response) -> ServiceResult<Self> {
                match reply {
                    Response::$variant(payload) => Ok(payload),
                    other => unexpected($asked, other),
                }
            }
        }
    };
}

from_reply! { ServiceInfo, "Info", Info {
    graph_id, model, num_vertices, num_edges, pool_size, confidence_99, shard_offset, global_pool
} }
from_reply! { SpreadEstimate, "Estimate", Estimate { seeds, spread, covered, pool } }
from_reply! { TopKSelection, "TopK", TopK { seeds, spread, algorithm } }
from_reply! { GainVector, "Gains", Gains { gains, covered, pool } }
from_reply! { GainCandidates, "GainCandidates", GainCandidates {
    vertices, counts, bound, probed, covered, pool
} }
from_reply! { MutationOutcome, "MutateBatch", MutateBatch { epoch, applied, resampled, compacted } }
from_reply! { CompactionReport, "Compact", Compact { epoch, folded } }
from_reply! { ReloadOutcome, "Reload", Reloaded { epoch, pool_size, log_len, swap_micros } }
from_reply! { PromotionOutcome, "Promote", Promoted { epoch, was_read_only } }
from_reply! { MetricsReport, "Metrics", Metrics(_) }
from_reply! { HealthReport, "Health", Health(_) }
from_reply! { Vec<EventRecord>, "Events", Events(_) }
// `shards` is filled only by a router's own `stats`: the wire reply has no
// such field.
from_reply! { ServiceStats, "Stats", Stats {
    requests, topk_cache_hits, topk_cache_misses, pool_size, epoch, deltas_applied,
    sets_resampled, log_len, snapshot_epoch, compactions, uptime_secs, requests_by_type,
    pool_resident_bytes, pool_layout
}; shards: Vec::new() }

/// A request handed to a backend by [`InfluenceService::begin`], whose
/// answer [`InfluenceService::finish`] collects.
// `Answered` is the large variant (a `Response`); a `Pending` lives for one
// fan-out leg, so boxing it would buy an allocation per in-process answer.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Pending {
    /// Answered already: a backend without a wire of its own computes (or
    /// relays) the answer inside `begin`.
    Answered(ServiceResult<Response>),
    /// Written to a connection as frame `id`; the reply is still on its way.
    Sent(u64),
}

/// One query surface over local, remote and sharded backends.
///
/// [`InfluenceService::call`] is the only required method: one wire
/// [`Request`] in, its [`Response`] out. Each typed method is provided on
/// top of it — it builds its request, calls `call` and converts the reply
/// with the typed result's `TryFrom<Response>`. Relays implement `call`
/// and its two halves (below), never a typed method; backends that compute
/// answers ([`LocalService`],
/// [`crate::shard::ShardedService`]) also override the typed methods, and
/// their `call` dispatches onto those overrides.
///
/// A reply of another kind is a [`ServiceError::Protocol`] naming both,
/// raised here, above every relay: to a relay it is an answer, not a
/// failure, so [`crate::client::ReconnectingService`] keeps its connection
/// (the frame ids matched; the stream is in sync) and
/// [`crate::replica::ReplicaSet`] does not fail over.
///
/// `call` is also available in two halves, [`InfluenceService::begin`] and
/// [`InfluenceService::finish`], so a caller holding several backends (a
/// shard router) can put one request on every connection before it waits
/// for any reply. In-process backends keep the provided pair, which answers
/// inside `begin`.
///
/// Methods take `&mut self` because every implementation owns per-caller
/// mutable state (an estimate scratch, a TCP connection, a shard router);
/// the engine behind a [`LocalService`] stays fully shared — cheap handles,
/// one per worker.
///
/// Implementations must be *interchangeable*: for the same logical pool
/// (one index, or its shards derived from one [`im_core::shard_layout`]),
/// `estimate`, `top_k` and `gains` return bit-identical values on every
/// backend. That invariant is what lets the experiment harness and the load
/// generator run unchanged against any backend.
pub trait InfluenceService {
    /// Answer one wire request, with the typed error channel intact.
    fn call(&mut self, request: &Request) -> ServiceResult<Response>;

    /// Start answering `request` without waiting for the answer. Every
    /// `begin` must be followed by one [`InfluenceService::finish`] of its
    /// [`Pending`] before this service is used again.
    fn begin(&mut self, request: &Request) -> Pending {
        Pending::Answered(self.call(request))
    }

    /// Collect the answer of the request [`InfluenceService::begin`] started.
    fn finish(&mut self, pending: Pending) -> ServiceResult<Response> {
        match pending {
            Pending::Answered(answer) => answer,
            Pending::Sent(id) => Err(ServiceError::Protocol(format!(
                "frame {id} was not sent by this backend"
            ))),
        }
    }

    /// Index metadata (graph and pool dimensions).
    fn info(&mut self) -> ServiceResult<ServiceInfo> {
        self.call(&Request::Info)?.try_into()
    }

    /// Estimate the influence spread of an explicit seed set.
    fn estimate(&mut self, seeds: &[u32]) -> ServiceResult<SpreadEstimate> {
        let seeds = seeds.to_vec();
        self.call(&Request::Estimate { seeds })?.try_into()
    }

    /// Select an influential seed set of size `k`.
    fn top_k(&mut self, k: usize, algorithm: TopKAlgorithm) -> ServiceResult<TopKSelection> {
        self.call(&Request::TopK { k, algorithm })?.try_into()
    }

    /// Per-vertex marginal coverage gains given `selected` (one round of
    /// greedy maximum coverage as data; the distributed-`TopK` primitive).
    fn gains(&mut self, selected: &[u32]) -> ServiceResult<GainVector> {
        let selected = selected.to_vec();
        self.call(&Request::Gains { selected })?.try_into()
    }

    /// One greedy round, output-sensitively: this backend's top `limit`
    /// vertices by `(gain desc, id asc)` given `selected`, one bound on
    /// every vertex it did not list, and the exact gain at each `probe`
    /// vertex (see [`GainCandidates`]). `limit` is clamped to the vertex
    /// count; `limit == 0` lists nothing and costs only point reads.
    fn gain_candidates(
        &mut self,
        selected: &[u32],
        limit: usize,
        probe: &[u32],
    ) -> ServiceResult<GainCandidates> {
        let request = Request::GainCandidates {
            selected: selected.to_vec(),
            limit,
            probe: probe.to_vec(),
        };
        self.call(&request)?.try_into()
    }

    /// Apply a batch of graph mutations atomically (all-or-nothing per
    /// backend; a sharded service broadcasts to every shard).
    fn mutate_batch(&mut self, deltas: &[GraphDelta]) -> ServiceResult<MutationOutcome> {
        let deltas = deltas.to_vec();
        self.call(&Request::MutateBatch { deltas })?.try_into()
    }

    /// Fold the pending delta log into the snapshot watermark now.
    fn compact(&mut self) -> ServiceResult<CompactionReport> {
        self.call(&Request::Compact)?.try_into()
    }

    /// Serving counters and the epoch timeline (`shards` is filled only by
    /// a router's own override: the wire reply has no such field).
    fn stats(&mut self) -> ServiceResult<ServiceStats> {
        self.call(&Request::Stats)?.try_into()
    }

    /// A point-in-time observability snapshot: every registered metric plus
    /// the slow-query log.
    fn metrics(&mut self) -> ServiceResult<MetricsReport> {
        self.call(&Request::Metrics)?.try_into()
    }

    /// A liveness/readiness verdict computed from real signals: WAL
    /// writability, shard reachability and epoch lockstep, reactor
    /// backpressure.
    fn health(&mut self) -> ServiceResult<HealthReport> {
        self.call(&Request::Health)?.try_into()
    }

    /// The backend's recent operational events (WAL failures, compactions,
    /// torn broadcasts, backpressure episodes), oldest first.
    fn events(&mut self) -> ServiceResult<Vec<EventRecord>> {
        self.call(&Request::Events)?.try_into()
    }

    /// Hot-swap the backend's index for the artifact at `path` (a path on
    /// the *backend's* filesystem — typically a compacted copy written by
    /// `imserve compact --index`). The backend validates identity, graph
    /// fingerprint and epoch continuity before swapping; in-flight queries
    /// finish on the old snapshot.
    fn reload(&mut self, path: &str) -> ServiceResult<ReloadOutcome> {
        let path = path.to_string();
        self.call(&Request::Reload { path })?.try_into()
    }

    /// Turn a read-only follower writable. With `expected_epoch` set the
    /// backend refuses (typed [`ServiceError::Promotion`] naming the gap)
    /// unless its replication cursor reached that epoch; `None` promotes
    /// unconditionally (the operator accepts whatever was replicated).
    fn promote(&mut self, expected_epoch: Option<u64>) -> ServiceResult<PromotionOutcome> {
        self.call(&Request::Promote { expected_epoch })?.try_into()
    }

    /// Join this service's subsequent calls to the caller's request trace.
    /// Remote backends propagate the id on every v2 frame (`"t"` field) so
    /// the server's span — and its slow-log entry, if the request is slow —
    /// carries the caller's id; a shard router sets it on every shard before
    /// a fan-out. `None` (the default state) omits the field and leaves the
    /// wire bytes exactly as before. In-process backends ignore it (their
    /// spans are created by the serving front end, not the service).
    fn set_trace(&mut self, trace: Option<u64>) {
        let _ = trace;
    }

    /// Bound how long any single call on this service may wait on its
    /// backend. In-process backends answer synchronously and ignore the
    /// deadline (the default no-op); [`crate::client::RemoteService`] maps
    /// it onto socket timeouts, and [`crate::shard::ShardedService`]
    /// propagates it to every shard so one dead shard fails the fan-out
    /// loudly (as a typed [`ServiceError::Shard`]) instead of hanging the
    /// router. `None` removes the bound.
    fn set_deadline(&mut self, deadline: Option<std::time::Duration>) -> ServiceResult<()> {
        let _ = deadline;
        Ok(())
    }
}

impl<S: InfluenceService + ?Sized> InfluenceService for Box<S> {
    fn call(&mut self, request: &Request) -> ServiceResult<Response> {
        (**self).call(request)
    }
    fn begin(&mut self, request: &Request) -> Pending {
        (**self).begin(request)
    }
    fn finish(&mut self, pending: Pending) -> ServiceResult<Response> {
        (**self).finish(pending)
    }
    fn set_trace(&mut self, trace: Option<u64>) {
        (**self).set_trace(trace)
    }
    fn set_deadline(&mut self, deadline: Option<std::time::Duration>) -> ServiceResult<()> {
        (**self).set_deadline(deadline)
    }
}

/// The in-process backend: a cheap per-caller handle onto a shared
/// [`QueryEngine`], owning the one piece of per-caller state (the estimate
/// scratch), so an `estimate` reuses its scratch and allocates only the
/// seed list it echoes back. Its typed methods call the engine directly,
/// skipping the [`Request`] and [`Response`] that `call` goes through.
///
/// ```
/// use std::sync::Arc;
/// use imserve::engine::QueryEngine;
/// use imserve::index::build_dataset_index;
/// use imserve::service::{InfluenceService, LocalService};
///
/// let index = build_dataset_index("karate", "uc0.1", 500, 7).unwrap();
/// let engine = Arc::new(QueryEngine::builder(index).build().unwrap());
/// let mut service = LocalService::new(engine);
/// let estimate = service.estimate(&[0, 33]).unwrap();
/// assert!(estimate.spread > 0.0);
/// ```
#[derive(Debug)]
pub struct LocalService {
    engine: Arc<QueryEngine>,
    scratch: EstimateScratch,
}

impl LocalService {
    /// A new handle onto `engine` (allocates only the estimate scratch).
    #[must_use]
    pub fn new(engine: Arc<QueryEngine>) -> Self {
        let scratch = engine.new_scratch();
        Self { engine, scratch }
    }

    /// The shared engine behind this handle.
    #[must_use]
    pub fn engine(&self) -> &Arc<QueryEngine> {
        &self.engine
    }
}

impl InfluenceService for LocalService {
    fn call(&mut self, request: &Request) -> ServiceResult<Response> {
        self.engine.handle_service(request, &mut self.scratch)
    }

    fn info(&mut self) -> ServiceResult<ServiceInfo> {
        Ok(self.engine.info())
    }

    fn estimate(&mut self, seeds: &[u32]) -> ServiceResult<SpreadEstimate> {
        self.engine.estimate(seeds, &mut self.scratch)
    }

    fn top_k(&mut self, k: usize, algorithm: TopKAlgorithm) -> ServiceResult<TopKSelection> {
        self.engine.top_k(k, algorithm)
    }

    fn gains(&mut self, selected: &[u32]) -> ServiceResult<GainVector> {
        self.engine.gains(selected)
    }

    fn gain_candidates(
        &mut self,
        selected: &[u32],
        limit: usize,
        probe: &[u32],
    ) -> ServiceResult<GainCandidates> {
        self.engine.gain_candidates(selected, limit, probe)
    }

    fn mutate_batch(&mut self, deltas: &[GraphDelta]) -> ServiceResult<MutationOutcome> {
        self.engine.mutate_batch(deltas)
    }

    fn compact(&mut self) -> ServiceResult<CompactionReport> {
        Ok(self.engine.compact())
    }

    fn stats(&mut self) -> ServiceResult<ServiceStats> {
        Ok(self.engine.stats())
    }

    fn metrics(&mut self) -> ServiceResult<MetricsReport> {
        Ok(self.engine.metrics_report())
    }

    fn health(&mut self) -> ServiceResult<HealthReport> {
        Ok(self.engine.health())
    }

    fn events(&mut self) -> ServiceResult<Vec<EventRecord>> {
        Ok(self.engine.event_records())
    }

    fn reload(&mut self, path: &str) -> ServiceResult<ReloadOutcome> {
        self.engine.reload_from_path(std::path::Path::new(path))
    }

    fn promote(&mut self, expected_epoch: Option<u64>) -> ServiceResult<PromotionOutcome> {
        self.engine.promote(expected_epoch)
    }
}

/// Which [`InfluenceService`] implementation to run a workload against —
/// the `--backend` axis of `imexp loadtest` and friends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendSpec {
    /// In-process [`LocalService`] over one engine.
    Local,
    /// [`crate::client::RemoteService`] over a threaded TCP server (spawned
    /// on an ephemeral port by harnesses that own the index).
    Remote,
    /// [`crate::client::RemoteService`] over the event-driven reactor front
    /// end ([`crate::reactor`]) on an ephemeral port.
    RemoteReactor,
    /// [`crate::shard::ShardedService`] over this many local pool shards.
    Sharded(usize),
}

impl BackendSpec {
    /// Parse the CLI spelling: `local`, `remote`, `remote-reactor` or
    /// `sharded:N`.
    pub fn parse(s: &str) -> Result<Self, ServiceError> {
        match s {
            "local" => return Ok(BackendSpec::Local),
            "remote" => return Ok(BackendSpec::Remote),
            "remote-reactor" => return Ok(BackendSpec::RemoteReactor),
            _ => {}
        }
        if let Some(n) = s.strip_prefix("sharded:") {
            let shards: usize = n.parse().map_err(|_| {
                ServiceError::Query(format!("malformed shard count in backend {s:?}"))
            })?;
            if shards == 0 {
                return Err(ServiceError::Query(
                    "sharded backend needs at least one shard".into(),
                ));
            }
            return Ok(BackendSpec::Sharded(shards));
        }
        Err(ServiceError::Query(format!(
            "unknown backend {s:?} (expected local, remote, remote-reactor or sharded:N)"
        )))
    }
}

impl std::fmt::Display for BackendSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendSpec::Local => write!(f, "local"),
            BackendSpec::Remote => write!(f, "remote"),
            BackendSpec::RemoteReactor => write!(f, "remote-reactor"),
            BackendSpec::Sharded(n) => write!(f, "sharded:{n}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_specs_parse() {
        assert_eq!(BackendSpec::parse("local").unwrap(), BackendSpec::Local);
        assert_eq!(BackendSpec::parse("remote").unwrap(), BackendSpec::Remote);
        assert_eq!(
            BackendSpec::parse("remote-reactor").unwrap(),
            BackendSpec::RemoteReactor
        );
        assert_eq!(BackendSpec::RemoteReactor.to_string(), "remote-reactor");
        assert_eq!(
            BackendSpec::parse("sharded:3").unwrap(),
            BackendSpec::Sharded(3)
        );
        assert!(BackendSpec::parse("sharded:0").is_err());
        assert!(BackendSpec::parse("sharded:x").is_err());
        assert!(BackendSpec::parse("quantum").is_err());
        assert_eq!(BackendSpec::Sharded(2).to_string(), "sharded:2");
    }

    #[test]
    fn service_errors_display_their_taxonomy() {
        assert!(ServiceError::Query("k".into())
            .to_string()
            .contains("query"));
        assert!(ServiceError::Shard("e".into())
            .to_string()
            .contains("shard invariant"));
        assert!(ServiceError::ReadOnly("writes go to the leader".into())
            .to_string()
            .contains("read-only replica"));
        assert!(ServiceError::Promotion("cursor at 3, required 5".into())
            .to_string()
            .contains("promotion refused"));
        let from_serve: ServiceError = ServeError::Protocol("bad".into()).into();
        assert!(matches!(from_serve, ServiceError::Protocol(_)));
    }

    #[test]
    fn request_counts_include_admin_lanes() {
        let counts = RequestTypeCounts {
            reload: 2,
            promote: 1,
            estimate: 4,
            gain_candidates: 6,
            health: 5,
            events: 3,
            ..RequestTypeCounts::default()
        };
        assert_eq!(counts.total(), 21);
        let merged = counts.merged(&RequestTypeCounts {
            reload: 1,
            gain_candidates: 2,
            health: 1,
            events: 2,
            ..RequestTypeCounts::default()
        });
        assert_eq!(merged.gain_candidates, 8);
        assert_eq!(merged.reload, 3);
        assert_eq!(merged.promote, 1);
        assert_eq!(merged.health, 6);
        assert_eq!(merged.events, 5);
    }
}
