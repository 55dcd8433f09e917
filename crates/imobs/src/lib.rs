//! Observability primitives for the serving stack.
//!
//! Everything in this crate is `std`-only and built around one discipline,
//! borrowed from `im_core`'s `EstimateScratch`: **the record path never
//! allocates**. Counters, gauges and histograms are fixed blocks of atomics;
//! recording a sample is a handful of relaxed atomic adds, safe to call from
//! the estimate hot path, the reactor event loop, or a compute worker without
//! perturbing the latency being measured. Allocation is confined to the two
//! cold edges: registering a metric (once, at startup) and snapshotting the
//! registry (only when something asks for an exposition).
//!
//! The pieces:
//!
//! - [`Counter`] / [`Gauge`] — single atomic cells (monotone / signed).
//! - [`Histogram`] — 65 log₂-width buckets covering all of `u64`, plus count
//!   and sum; [`HistogramSnapshot::quantile`] answers quantile queries to
//!   within one bucket width.
//! - [`Registry`] — names metrics, hands out `Arc` handles and takes cheap
//!   point-in-time [`RegistrySnapshot`]s (values plus each family's help
//!   text). Merging, differencing and text rendering all happen downstream
//!   on the one snapshot type the serving layer puts on the wire
//!   (`imserve::service::MetricsReport`), so no two faces can disagree.
//! - [`Span`] / [`SpanRecord`] — a request-scoped trace id plus timestamped
//!   stage events; trace ids travel on the wire so multi-hop requests
//!   (router → shard) stitch into one causal trace.
//! - [`SlowLog`] — a bounded ring of the worst [`SpanRecord`]s over a
//!   configurable latency threshold.
//! - [`events`] — a leveled, typed-field operational event log in a
//!   bounded ring.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;

pub use events::{Event, EventField, EventLevel, EventLog, FieldValue};

use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Counters and gauges
// ---------------------------------------------------------------------------

/// A monotone event counter. All operations are relaxed atomic adds — safe
/// and allocation-free from any thread.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Add one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time signed level: queue depths, in-flight requests, epochs.
/// Unlike a [`Counter`] it can move both ways and be set outright.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A fresh gauge at zero.
    #[must_use]
    pub fn new() -> Self {
        Self(AtomicI64::new(0))
    }

    /// Set the level.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Move the level up by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Move the level down by one.
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Move the level by `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current level.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Log₂ histogram
// ---------------------------------------------------------------------------

/// Number of histogram buckets: bucket `0` holds the value `0`, bucket `i`
/// (for `i ≥ 1`) holds values with exactly `i` significant bits, i.e. the
/// half-open decade `[2^(i-1), 2^i)`. 64 significant bits + the zero bucket.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Map a value to its bucket index: the number of significant bits.
#[inline]
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (`0` for the zero bucket,
/// `2^i - 1` otherwise, saturating at `u64::MAX`).
#[inline]
#[must_use]
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Inclusive lower bound of bucket `i` (`0` for the zero bucket, `2^(i-1)`
/// otherwise).
#[inline]
#[must_use]
pub fn bucket_lower_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// A fixed-bucket log₂-scaled histogram. [`Histogram::record`] is three
/// relaxed atomic adds and never allocates; the 65 buckets cover every `u64`
/// so there is no overflow bucket to misplace a sample in.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one sample. Allocation-free: three relaxed atomic adds.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total samples recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples (wrapping on overflow).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Copy the live buckets into an owned snapshot (the only allocating
    /// read; quantiles and rendering work off this).
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// An owned copy of a [`Histogram`]'s state at one instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Per-bucket counts, indexed by [`bucket_index`]; always
    /// [`HISTOGRAM_BUCKETS`] long.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (`0 ≤ q ≤ 1`). Because buckets are log₂-width, the estimate is
    /// exact to within one bucket: it is `≥` the true quantile value and
    /// `<` twice it (for values `≥ 1`). Returns `0` for an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // 1-based rank of the target sample under the sorted order.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
    }

    /// The highest non-empty bucket index, or `None` when empty. Exposition
    /// uses this to trim the long empty tail.
    #[must_use]
    pub fn last_nonempty_bucket(&self) -> Option<usize> {
        self.buckets.iter().rposition(|&n| n > 0)
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// One registered metric's handle.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

#[derive(Debug)]
struct Entry {
    name: String,
    help: String,
    metric: Metric,
}

/// A named collection of metrics. Registration allocates (once, at setup)
/// and hands back an `Arc` handle; the handle's record path never touches
/// the registry again, so there is no contention between recording and
/// scraping beyond the atomics themselves.
///
/// Names may carry Prometheus-style labels inline, e.g.
/// `imserve_shard_errors_total{shard="0"}`; series group into families by
/// the part before `{` ([`family_of`]).
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or re-fetch) a counter under `name`.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        let mut entries = self.entries.lock().expect("registry lock");
        if let Some(e) = entries.iter().find(|e| e.name == name) {
            if let Metric::Counter(c) = &e.metric {
                return Arc::clone(c);
            }
        }
        let c = Arc::new(Counter::new());
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            metric: Metric::Counter(Arc::clone(&c)),
        });
        c
    }

    /// Register (or re-fetch) a gauge under `name`.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        let mut entries = self.entries.lock().expect("registry lock");
        if let Some(e) = entries.iter().find(|e| e.name == name) {
            if let Metric::Gauge(g) = &e.metric {
                return Arc::clone(g);
            }
        }
        let g = Arc::new(Gauge::new());
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            metric: Metric::Gauge(Arc::clone(&g)),
        });
        g
    }

    /// Register (or re-fetch) a histogram under `name`.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        let mut entries = self.entries.lock().expect("registry lock");
        if let Some(e) = entries.iter().find(|e| e.name == name) {
            if let Metric::Histogram(h) = &e.metric {
                return Arc::clone(h);
            }
        }
        let h = Arc::new(Histogram::new());
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            metric: Metric::Histogram(Arc::clone(&h)),
        });
        h
    }

    /// A point-in-time copy of every registered metric, in registration
    /// order, plus each family's help text (the first registered series of a
    /// family names it) — everything an exposition needs, so rendering is a
    /// pure function of the snapshot.
    #[must_use]
    pub fn snapshot(&self) -> RegistrySnapshot {
        let entries = self.entries.lock().expect("registry lock");
        let mut snap = RegistrySnapshot::default();
        for e in entries.iter() {
            let family = family_of(&e.name);
            if !snap.help.iter().any(|(f, _)| f == family) {
                snap.help.push((family.to_string(), e.help.clone()));
            }
            match &e.metric {
                Metric::Counter(c) => snap.counters.push((e.name.clone(), c.get())),
                Metric::Gauge(g) => snap.gauges.push((e.name.clone(), g.get())),
                Metric::Histogram(h) => snap.histograms.push((e.name.clone(), h.snapshot())),
            }
        }
        snap
    }
}

/// The family name of a possibly-labelled metric name (the part before `{`).
#[must_use]
pub fn family_of(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// A point-in-time copy of a [`Registry`]'s metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// `(family, help text)` for every family, in first-registration order.
    pub help: Vec<(String, String)>,
    /// `(name, value)` for every counter, in registration order.
    pub counters: Vec<(String, u64)>,
    /// `(name, level)` for every gauge, in registration order.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` for every histogram, in registration order.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

// ---------------------------------------------------------------------------
// Spans and trace ids
// ---------------------------------------------------------------------------

/// Process-unique base for trace ids: the wall-clock nanoseconds at first
/// use, folded to 32 bits. Two processes started at different instants mint
/// disjoint id ranges, which is what lets a router and its shard servers
/// log the *same* id for one request without coordination.
fn trace_seed() -> u64 {
    use std::sync::OnceLock;
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9e37_79b9);
        // SplitMix-style fold so consecutive process starts land far apart.
        let mut z = nanos.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) << 20
    })
}

/// Mint a fresh, process-unique, never-zero trace id. Zero is reserved as
/// "no trace" (the wire omits the field entirely in that case).
#[must_use]
pub fn next_trace_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    trace_seed() | NEXT.fetch_add(1, Ordering::Relaxed)
}

/// One timestamped stage inside a span, as microseconds since span start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Stage label (static — stages are fixed pipeline points).
    pub stage: &'static str,
    /// Microseconds elapsed from span start when this stage completed.
    pub at_micros: u64,
}

/// A request-scoped trace: an id plus timestamped stage events. Spans are
/// per-request values (they allocate for their event list, like the request
/// line itself); only the *metrics* record path is allocation-free.
#[derive(Debug)]
pub struct Span {
    trace: u64,
    start: Instant,
    events: Vec<SpanEvent>,
}

impl Span {
    /// Begin a span under `trace` (pass [`next_trace_id`] for a root span,
    /// or the id received on the wire to join a caller's trace).
    #[must_use]
    pub fn begin(trace: u64) -> Self {
        Self {
            trace,
            start: Instant::now(),
            events: Vec::with_capacity(8),
        }
    }

    /// The trace id this span belongs to.
    #[must_use]
    pub fn trace(&self) -> u64 {
        self.trace
    }

    /// Record that `stage` completed now.
    pub fn event(&mut self, stage: &'static str) {
        self.events.push(SpanEvent {
            stage,
            at_micros: self.start.elapsed().as_micros() as u64,
        });
    }

    /// Record a stage with an externally measured duration (e.g. queue wait
    /// measured by the enqueuer, before this span's thread saw the request).
    pub fn event_with_micros(&mut self, stage: &'static str, at_micros: u64) {
        self.events.push(SpanEvent { stage, at_micros });
    }

    /// Microseconds since the span began.
    #[must_use]
    pub fn elapsed_micros(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// Close the span into an immutable record.
    #[must_use]
    pub fn finish(self) -> SpanRecord {
        SpanRecord {
            trace: self.trace,
            total_micros: self.start.elapsed().as_micros() as u64,
            events: self.events,
        }
    }
}

/// A finished span: the full stage timeline of one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The trace id (shared across hops of one logical request).
    pub trace: u64,
    /// End-to-end microseconds for this hop.
    pub total_micros: u64,
    /// Stage events in record order.
    pub events: Vec<SpanEvent>,
}

// ---------------------------------------------------------------------------
// Slow-query log
// ---------------------------------------------------------------------------

/// A bounded ring buffer retaining the [`SpanRecord`]s of requests slower
/// than a configurable threshold. Fast requests cost one relaxed load (the
/// threshold check happens before the lock is ever touched).
#[derive(Debug)]
pub struct SlowLog {
    threshold_micros: AtomicU64,
    capacity: usize,
    ring: Mutex<VecDeque<SpanRecord>>,
}

impl SlowLog {
    /// A ring of at most `capacity` records, retaining spans whose total
    /// time is `≥ threshold_micros`.
    #[must_use]
    pub fn new(capacity: usize, threshold_micros: u64) -> Self {
        Self {
            threshold_micros: AtomicU64::new(threshold_micros),
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::with_capacity(capacity.max(1))),
        }
    }

    /// The current retention threshold in microseconds.
    #[must_use]
    pub fn threshold_micros(&self) -> u64 {
        self.threshold_micros.load(Ordering::Relaxed)
    }

    /// Change the retention threshold.
    pub fn set_threshold_micros(&self, micros: u64) {
        self.threshold_micros.store(micros, Ordering::Relaxed);
    }

    /// Offer a finished span; it is retained only if it met the threshold.
    /// Returns whether it was kept.
    pub fn offer(&self, record: SpanRecord) -> bool {
        if record.total_micros < self.threshold_micros() {
            return false;
        }
        let mut ring = self.ring.lock().expect("slow log lock");
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(record);
        true
    }

    /// The retained records, oldest first.
    #[must_use]
    pub fn entries(&self) -> Vec<SpanRecord> {
        self.ring
            .lock()
            .expect("slow log lock")
            .iter()
            .cloned()
            .collect()
    }

    /// Number of retained records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.lock().expect("slow log lock").len()
    }

    /// Whether the ring is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(7);
        g.dec();
        g.add(-2);
        g.inc();
        assert_eq!(g.get(), 5);
    }

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        // The zero bucket holds exactly 0.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_upper_bound(0), 0);
        // Each boundary value 2^k opens bucket k+1; 2^k - 1 closes bucket k.
        for k in 0..63u32 {
            let boundary = 1u64 << k;
            assert_eq!(bucket_index(boundary), k as usize + 1, "2^{k}");
            assert_eq!(bucket_index(boundary - 1), k as usize, "2^{k}-1");
            assert_eq!(bucket_upper_bound(k as usize + 1), (boundary << 1) - 1);
            assert_eq!(bucket_lower_bound(k as usize + 1), boundary);
        }
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn histogram_counts_land_in_their_buckets() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 10);
        assert_eq!(snap.buckets[0], 1); // 0
        assert_eq!(snap.buckets[1], 1); // 1
        assert_eq!(snap.buckets[2], 2); // 2, 3
        assert_eq!(snap.buckets[3], 2); // 4, 7
        assert_eq!(snap.buckets[4], 1); // 8
        assert_eq!(snap.buckets[10], 1); // 1023
        assert_eq!(snap.buckets[11], 1); // 1024
        assert_eq!(snap.buckets[64], 1); // u64::MAX
        assert_eq!(
            snap.sum,
            0u64.wrapping_add(1 + 2 + 3 + 4 + 7 + 8 + 1023 + 1024)
                .wrapping_add(u64::MAX)
        );
    }

    #[test]
    fn snapshot_is_consistent_with_live_reads() {
        let h = Histogram::new();
        for v in 0..1000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, h.count());
        assert_eq!(snap.sum, h.sum());
        assert_eq!(snap.buckets.iter().sum::<u64>(), snap.count);
        // Recording after the snapshot moves the live side only.
        h.record(5);
        assert_eq!(h.count(), snap.count + 1);
        assert_eq!(snap.count, 1000);
    }

    #[test]
    fn quantiles_bound_the_true_value_within_one_bucket() {
        let h = Histogram::new();
        let values: Vec<u64> = (1..=1000).collect();
        for &v in &values {
            h.record(v);
        }
        let snap = h.snapshot();
        for q in [0.0f64, 0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * 1000.0).ceil() as usize).max(1);
            let truth = values[rank - 1];
            let est = snap.quantile(q);
            assert!(est >= truth, "q={q}: {est} < {truth}");
            assert_eq!(bucket_index(est), bucket_index(truth), "q={q}");
        }
        assert_eq!(
            HistogramSnapshot {
                count: 0,
                sum: 0,
                buckets: vec![0; HISTOGRAM_BUCKETS]
            }
            .quantile(0.5),
            0
        );
    }

    #[test]
    fn registry_hands_out_shared_handles_and_snapshots_them() {
        let r = Registry::new();
        let c = r.counter("obs_requests_total", "Requests handled.");
        let again = r.counter("obs_requests_total", "Requests handled.");
        c.add(3);
        assert_eq!(again.get(), 3, "same name must alias the same counter");
        r.gauge("obs_depth", "Queue depth.").set(-2);
        let h = r.histogram("obs_latency_micros", "Latency.");
        h.record(5);
        h.record(300);
        for (shard, errors) in [(0, 1), (1, 2)] {
            let name = format!("obs_shard_errors_total{{shard=\"{shard}\"}}");
            r.counter(&name, "Per-shard errors.").add(errors);
        }

        let snap = r.snapshot();
        let counters: Vec<u64> = snap.counters.iter().map(|&(_, v)| v).collect();
        assert_eq!(counters, [3, 1, 2]);
        assert_eq!(snap.counters[2].0, "obs_shard_errors_total{shard=\"1\"}");
        assert_eq!(snap.gauges, [("obs_depth".to_string(), -2)]);
        assert_eq!(snap.histograms[0].1.count, 2);
        // One help entry per family, even for the labelled one.
        assert_eq!(snap.help.len(), 4);
        assert_eq!(snap.help[3].0, "obs_shard_errors_total");
        assert_eq!(snap.help[3].1, "Per-shard errors.");
    }

    #[test]
    fn spans_carry_stages_and_slow_log_retains_only_over_threshold() {
        let t = next_trace_id();
        assert_ne!(t, 0);
        assert_ne!(t, next_trace_id(), "ids are unique within a process");

        let mut span = Span::begin(t);
        span.event_with_micros("queue_wait", 40);
        span.event("execute");
        let record = span.finish();
        assert_eq!(record.trace, t);
        assert_eq!(record.events[0].stage, "queue_wait");
        assert_eq!(record.events[0].at_micros, 40);

        let log = SlowLog::new(2, 1_000);
        assert!(!log.offer(SpanRecord {
            trace: 1,
            total_micros: 999,
            events: vec![],
        }));
        for i in 0..3u64 {
            assert!(log.offer(SpanRecord {
                trace: 10 + i,
                total_micros: 1_000 + i,
                events: vec![],
            }));
        }
        let entries = log.entries();
        assert_eq!(entries.len(), 2, "capacity bounds the ring");
        assert_eq!(entries[0].trace, 11, "oldest entry evicted first");
        assert_eq!(entries[1].trace, 12);
        log.set_threshold_micros(2_000);
        assert!(!log.offer(SpanRecord {
            trace: 99,
            total_micros: 1_500,
            events: vec![],
        }));
    }
}
