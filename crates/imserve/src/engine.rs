//! The query engine: a loaded index behind `Arc`, answering protocol requests.
//!
//! The engine is shared by every server worker. All request handling goes
//! through [`QueryEngine::handle_service`], which takes the caller's own
//! [`EstimateScratch`], so an `Estimate` allocates only its seed echo.
//!
//! Since the index became mutable (`MutateBatch` requests drive `imdyn`'s
//! incremental RR-set maintenance), the serving state lives behind one
//! `RwLock`: queries share read locks, a mutation takes the write lock while
//! it resamples the dirty RR sets. The dynamic oracle itself sits in an
//! `Arc`, so the expensive `TopK` selection snapshots it and computes with
//! **no lock held** — a queued mutation never stalls `Estimate` traffic
//! behind a long greedy walk (writer-preferring `RwLock`s would otherwise
//! serialize every reader behind the waiting writer). A mutation arriving
//! mid-selection copies the state once (`Arc::make_mut`) and proceeds; the
//! finished selection is cached under its snapshot's epoch, where newer
//! lookups can never find it. Mutations never change the pool size or the
//! vertex count, so worker-owned scratches stay valid across epochs.
//!
//! Every `TopK` cache key embeds the index **epoch** (the number of deltas
//! ever applied; see [`TopKCache`]). A mutation therefore structurally
//! invalidates every cached seed set: a stale answer cannot be served because
//! its key can no longer be constructed.
//!
//! The engine also runs the index *lifecycle*: `MutateBatch` applies an
//! atomic delta batch (one in-place CSR patch, dirty-union resampling),
//! and `Compact` — or the configured [`imdyn::CompactionPolicy`] firing after
//! a mutation — folds the pending log into the snapshot watermark. Compaction
//! never moves the epoch and never blocks readers: it is bookkeeping under
//! the same write lock, and every long computation works on an `Arc`
//! snapshot taken before it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard};
use std::time::Instant;

use im_core::{EstimateScratch, PoolLayout};
use imdyn::{CompactionPolicy, DynamicOracle};
use imgraph::{BatchError, GraphDelta};

use crate::error::ServeError;
use crate::index::{IndexArtifact, IndexMeta};
use crate::lru::TopKCache;
use crate::obs::ServingMetrics;
use crate::protocol::{Request, Response, TopKAlgorithm, PROTOCOL_VERSION};
use crate::service::{
    check_vertices, CompactionReport, EventRecord, GainCandidates, GainVector, HealthReport,
    MetricsReport, MutationOutcome, PromotionOutcome, ReloadOutcome, ServiceError, ServiceInfo,
    ServiceStats, SpreadEstimate, TopKSelection,
};
use crate::wal::{WalRecord, WriteAheadLog};
use imobs::EventField;

/// Default capacity of the `TopK` result cache.
pub const DEFAULT_CACHE_CAPACITY: usize = 64;

/// Derive the WAL/replication identity string for an index: the full
/// identity, not just the dataset name, so two indexes that differ in model,
/// pool size or shard offset never accept each other's mutation history.
pub(crate) fn index_identity(meta: &IndexMeta, shard: Option<&crate::index::ShardInfo>) -> String {
    format!(
        "{}/{} pool={} offset={}",
        meta.graph_id,
        meta.model,
        meta.pool_size,
        shard.map_or(0, |s| s.offset)
    )
}

/// The mutable serving state: the dynamic oracle plus the metadata that
/// tracks it (edge counts change under mutation).
#[derive(Debug)]
pub struct ServingState {
    /// Index metadata, kept in sync with the dynamic graph.
    pub meta: IndexMeta,
    /// `Some` iff the served pool is one shard of a larger global pool
    /// (preserved so exported artifacts keep their global stream offset).
    pub shard: Option<crate::index::ShardInfo>,
    /// The evolving graph and its incrementally maintained pool. Behind an
    /// `Arc` so long computations can snapshot it and release the lock;
    /// mutations go through `Arc::make_mut` (copy-on-write only if a
    /// snapshot is concurrently alive).
    pub dynamic: Arc<DynamicOracle>,
}

impl ServingState {
    /// Export the current state as a persistable artifact (current graph,
    /// current pool, full applied-delta log).
    #[must_use]
    pub fn to_artifact(&self) -> IndexArtifact {
        IndexArtifact {
            meta: self.meta.clone(),
            graph: self.dynamic.graph().clone(),
            oracle: self.dynamic.oracle().clone(),
            log: self.dynamic.log().clone(),
            snapshot_epoch: self.dynamic.snapshot_epoch(),
            shard: self.shard,
        }
    }
}

/// The shared, thread-safe query engine.
///
/// # Example
///
/// ```
/// use imserve::engine::QueryEngine;
/// use imserve::index::build_dataset_index;
///
/// let index = build_dataset_index("karate", "uc0.1", 500, 7).unwrap();
/// let engine = QueryEngine::builder(index).build().unwrap();
/// let mut scratch = engine.new_scratch();
/// let estimate = engine.estimate(&[0, 33], &mut scratch).unwrap();
/// assert!(estimate.spread > 0.0);
/// assert_eq!(engine.epoch(), 0);
/// ```
#[derive(Debug)]
pub struct QueryEngine {
    state: RwLock<ServingState>,
    topk_cache: Mutex<TopKCache>,
    /// Mutation durability: when present, every accepted batch is appended
    /// (and synced) before the mutation call returns. Taken under the state
    /// write lock, so records land in application order.
    wal: Option<Mutex<WriteAheadLog>>,
    /// The observability surface every layer records into. Instance-owned
    /// (not process-global) so engines in parallel tests never share
    /// counters; front ends clone the `Arc` to record their own stages.
    obs: Arc<ServingMetrics>,
    /// Kept so a hot-swapped artifact inherits the compaction policy the
    /// engine was built with.
    compaction_policy: CompactionPolicy,
    /// When set, client mutations are refused with a typed
    /// [`ServiceError::ReadOnly`]; only [`QueryEngine::apply_replicated`]
    /// (the replication stream) moves the epoch. Cleared by
    /// [`QueryEngine::promote`].
    read_only: AtomicBool,
    /// Set when a WAL append fails. WAL discipline is fail-stop: an applied
    /// but unlogged batch would leave an epoch *gap* in the log, making
    /// every later (successfully logged and acknowledged) record
    /// unrecoverable — so once an append fails, further mutations are
    /// refused before they touch the state.
    wal_poisoned: AtomicBool,
}

/// Staged construction of a [`QueryEngine`] — cache capacity, compaction
/// policy and the optional mutation write-ahead log in one place.
///
/// ```no_run
/// use imserve::engine::QueryEngine;
/// use imserve::index::IndexArtifact;
///
/// let engine = QueryEngine::builder(IndexArtifact::load("karate.imx")?)
///     .cache_capacity(128)
///     .wal("karate.wal")
///     .build()?;
/// # Ok::<(), imserve::ServeError>(())
/// ```
#[derive(Debug)]
pub struct EngineBuilder {
    index: IndexArtifact,
    cache_capacity: usize,
    compaction_policy: CompactionPolicy,
    wal: Option<std::path::PathBuf>,
    metrics: Option<Arc<ServingMetrics>>,
    read_only: bool,
}

impl EngineBuilder {
    /// `TopK` cache capacity (default [`DEFAULT_CACHE_CAPACITY`]).
    #[must_use]
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// When to fold the pending delta log away automatically. The default
    /// never fires; compaction then happens only on explicit `Compact`
    /// requests.
    #[must_use]
    pub fn compaction_policy(mut self, policy: CompactionPolicy) -> Self {
        self.compaction_policy = policy;
        self
    }

    /// Attach a mutation write-ahead log at `path`. On
    /// [`EngineBuilder::build`] the log is recovered first: records already
    /// folded into the index artifact are skipped, the pending tail is
    /// replayed onto the engine, and only then does the engine start
    /// appending — so a crash between index saves loses no acknowledged
    /// mutation.
    #[must_use]
    pub fn wal(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.wal = Some(path.into());
        self
    }

    /// Share a pre-built [`ServingMetrics`] (e.g. one the server front end
    /// also records into, or one with a custom slow-query threshold). The
    /// default is a fresh instance per engine.
    #[must_use]
    pub fn metrics(mut self, metrics: Arc<ServingMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Build the engine read-only (a replication follower): client
    /// mutations are refused with a typed [`ServiceError::ReadOnly`] until
    /// [`QueryEngine::promote`] clears the flag. WAL replay during `build`
    /// is unaffected — it restores already-acknowledged history, which is
    /// not a client write.
    #[must_use]
    pub fn read_only(mut self, read_only: bool) -> Self {
        self.read_only = read_only;
        self
    }

    /// Construct the engine (recovering and replaying the WAL if one was
    /// attached).
    ///
    /// # Errors
    ///
    /// Fails only on WAL problems: unreadable or corrupt records, a replayed
    /// batch the current index rejects, or an epoch gap between the log and
    /// the loaded artifact (the artifact is newer than the log start or
    /// older than the log can reach — serving would diverge from what was
    /// acknowledged).
    pub fn build(self) -> Result<QueryEngine, ServeError> {
        // The full identity, not just the dataset name: two indexes over the
        // same graph at the same seed but a different model, pool size or
        // shard offset record mutations against different RR-set pools, so
        // none of them may replay another's log.
        let identity = index_identity(&self.index.meta, self.index.shard.as_ref());
        let base_seed = self.index.meta.base_seed;
        let mut engine = QueryEngine::construct(
            self.index,
            self.cache_capacity,
            self.compaction_policy,
            self.metrics,
        );
        if let Some(path) = self.wal {
            // The WAL is bound to one index identity: replaying a foreign
            // log whose epochs happen to line up must fail, not diverge
            // silently.
            let recovery = WriteAheadLog::recover(&path, &identity, base_seed)?;
            // Replay is not client traffic: records land through the same
            // checks as the replication stream (records already folded into
            // the artifact are skipped, gaps and foreign lineages refused),
            // never through `mutate_batch` and its request counters.
            for (i, record) in recovery.records.iter().enumerate() {
                engine
                    .apply_record(record, "rebuild the index or remove the stale WAL")
                    .map_err(|e| ServeError::Wal(format!("WAL record {i} not replayed: {e}")))?;
            }
            // Only now start appending: replay itself must not re-log
            // records.
            engine.wal = Some(Mutex::new(recovery.log));
        }
        // Only now go read-only: replay restores acknowledged history, which
        // is not a client write.
        engine.read_only.store(self.read_only, Ordering::Relaxed);
        Ok(engine)
    }
}

impl QueryEngine {
    /// Start building an engine over a loaded index.
    #[must_use]
    pub fn builder(index: IndexArtifact) -> EngineBuilder {
        EngineBuilder {
            index,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            compaction_policy: CompactionPolicy::DISABLED,
            wal: None,
            metrics: None,
            read_only: false,
        }
    }

    /// The WAL-free construction core of [`EngineBuilder::build`].
    ///
    /// # Panics
    ///
    /// Panics if the artifact's pool carries no incremental state (never the
    /// case for artifacts produced by this crate: `build` samples
    /// incrementally and `from_bytes` rejects pre-incremental versions and
    /// re-attaches the state on load).
    fn construct(
        index: IndexArtifact,
        cache_capacity: usize,
        compaction_policy: CompactionPolicy,
        metrics: Option<Arc<ServingMetrics>>,
    ) -> Self {
        let IndexArtifact {
            meta,
            graph,
            oracle,
            log,
            snapshot_epoch,
            shard,
        } = index;
        let dynamic = Arc::new(
            DynamicOracle::from_parts(graph, oracle, log, snapshot_epoch)
                .expect("index artifacts always carry consistent incremental pools")
                .with_policy(compaction_policy),
        );
        let obs = metrics.unwrap_or_else(ServingMetrics::with_defaults);
        // `from_parts` hashed the graph from scratch; every later read of
        // the fingerprint is the maintained value.
        obs.lineage_full_hashes.inc();
        Self {
            state: RwLock::new(ServingState {
                meta,
                shard,
                dynamic,
            }),
            topk_cache: Mutex::new(TopKCache::new(cache_capacity, &obs)),
            wal: None,
            obs,
            compaction_policy,
            read_only: AtomicBool::new(false),
            wal_poisoned: AtomicBool::new(false),
        }
    }

    /// The engine's observability surface — front ends clone this `Arc` to
    /// record their own stages (queue wait, reorder wait, connections) into
    /// the same registry the engine exposes.
    #[must_use]
    pub fn obs(&self) -> &Arc<ServingMetrics> {
        &self.obs
    }

    /// Read access to the serving state (metadata, graph, oracle, log).
    ///
    /// Holds the read lock for the guard's lifetime; keep it short on serving
    /// paths.
    pub fn state(&self) -> RwLockReadGuard<'_, ServingState> {
        self.state.read().expect("serving state poisoned")
    }

    /// Whether a reader would get the serving state now, without waiting:
    /// no writer holds it or is queued for it, and, for a reader of posting
    /// lists (`reads_pool`), the pool is not tiered (no list is a `pread`).
    /// The reactor asks before it answers a point request on its loop thread.
    pub(crate) fn state_is_free(&self, reads_pool: bool) -> bool {
        self.state.try_read().is_ok_and(|state| {
            !reads_pool || state.dynamic.oracle().pool_layout() != PoolLayout::Tiered
        })
    }

    /// The current index epoch (total deltas ever applied).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.state().dynamic.epoch()
    }

    /// A scratch sized for this engine's pool; one per worker thread. Stays
    /// valid across mutations (the pool size never changes).
    #[must_use]
    pub fn new_scratch(&self) -> EstimateScratch {
        self.state().dynamic.oracle().scratch()
    }

    /// Answer one request in process, flattening the typed error channel:
    /// invalid queries come back as [`Response::Error`]. Never panics on
    /// untrusted input.
    pub fn handle(&self, request: &Request, scratch: &mut EstimateScratch) -> Response {
        match self.handle_service(request, scratch) {
            Ok(response) => response,
            Err(e) => Response::Error {
                message: e.to_string(),
            },
        }
    }

    /// Answer one wire request with the typed error channel intact (what
    /// both front ends call; [`QueryEngine::handle`] flattens it).
    pub fn handle_service(
        &self,
        request: &Request,
        scratch: &mut EstimateScratch,
    ) -> Result<Response, ServiceError> {
        let result = match request {
            Request::Ping => {
                self.obs.ping.count.inc();
                Ok(Response::Pong)
            }
            // A client that cannot parse this version never gets here: the
            // front end refuses its handshake (`server::answer_request`).
            Request::Hello { .. } => {
                self.obs.hello.count.inc();
                Ok(Response::Hello {
                    version: PROTOCOL_VERSION,
                })
            }
            Request::Info => Ok(self.info().into()),
            Request::Estimate { seeds } => self.estimate(seeds, scratch).map(Response::from),
            Request::TopK { k, algorithm } => self.top_k(*k, *algorithm).map(Response::from),
            Request::Gains { selected } => self.gains(selected).map(Response::from),
            Request::GainCandidates {
                selected,
                limit,
                probe,
            } => self
                .gain_candidates(selected, *limit, probe)
                .map(Response::from),
            Request::MutateBatch { deltas } => self.mutate_batch(deltas).map(Response::from),
            Request::Compact => Ok(self.compact().into()),
            Request::Stats => Ok(self.stats().into()),
            Request::Metrics => Ok(self.metrics_report().into()),
            Request::Health => Ok(self.health().into()),
            Request::Events => Ok(self.event_records().into()),
            Request::Reload { path } => self
                .reload_from_path(std::path::Path::new(path))
                .map(Response::from),
            Request::Promote { expected_epoch } => {
                self.promote(*expected_epoch).map(Response::from)
            }
        };
        if result.is_err() {
            self.obs.request_errors.inc();
        }
        result
    }

    /// Index metadata (graph and pool dimensions, plus the pool's position
    /// in the global set-id space for shard indexes).
    #[must_use]
    pub fn info(&self) -> ServiceInfo {
        self.obs.info.count.inc();
        let state = self.state();
        let (shard_offset, global_pool) = match state.shard {
            Some(shard) => (shard.offset, shard.global_pool),
            None => (0, state.meta.pool_size as u64),
        };
        ServiceInfo {
            graph_id: state.meta.graph_id.clone(),
            model: state.meta.model.clone(),
            num_vertices: state.meta.num_vertices,
            num_edges: state.meta.num_edges,
            pool_size: state.meta.pool_size,
            confidence_99: state.dynamic.oracle().confidence_99(),
            shard_offset,
            global_pool,
        }
    }

    /// Serving counters and the epoch timeline (`shards` is always empty —
    /// one engine is one pool; the sharded router fills it).
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        self.obs.stats.count.inc();
        let state = self.state();
        let requests_by_type = self.obs.request_counts();
        ServiceStats {
            requests: requests_by_type.total(),
            topk_cache_hits: self.obs.topk_cache_hits.get(),
            topk_cache_misses: self.obs.topk_cache_misses.get(),
            pool_size: state.dynamic.pool_size(),
            epoch: state.dynamic.epoch(),
            deltas_applied: self.obs.deltas_applied.get(),
            sets_resampled: self.obs.sets_resampled.get(),
            log_len: state.dynamic.log().len(),
            snapshot_epoch: state.dynamic.snapshot_epoch(),
            compactions: state.dynamic.stats().compactions,
            uptime_secs: self.obs.uptime_secs(),
            requests_by_type,
            pool_resident_bytes: state.dynamic.oracle().pool_resident_bytes() as u64,
            pool_layout: state.dynamic.oracle().pool_layout().label().to_string(),
            shards: Vec::new(),
        }
    }

    /// Mirror the state-derived gauges (epoch, log length, pool size,
    /// maintenance counters) into the registry. Called at snapshot and
    /// render time only — gauges that track live state are sampled, not
    /// maintained on hot paths.
    fn sync_state_gauges(&self) {
        let state = self.state();
        self.obs.epoch.set(state.dynamic.epoch() as i64);
        self.obs.log_len.set(state.dynamic.log().len() as i64);
        self.obs
            .snapshot_epoch
            .set(state.dynamic.snapshot_epoch() as i64);
        self.obs.pool_size.set(state.dynamic.pool_size() as i64);
        let (reads, bytes) = state.dynamic.oracle().pool().cold_reads();
        self.obs.mirror_pool_cold_reads(reads, bytes);
        state
            .dynamic
            .stats()
            .for_each(|name, value| self.obs.set_maintenance(name, value));
    }

    /// Snapshot every metric plus the slow-query log as the wire
    /// [`MetricsReport`] (the `Metrics` request's payload). Deliberately
    /// volatile, like `Stats`: two identical `Metrics` requests may answer
    /// differently, and that is exempt from the byte-identity invariant.
    #[must_use]
    pub fn metrics_report(&self) -> MetricsReport {
        self.obs.metrics.count.inc();
        self.sync_state_gauges();
        self.obs.report()
    }

    /// The `--metrics-addr` endpoint body: the snapshot
    /// [`QueryEngine::metrics_report`] takes, through the one renderer
    /// ([`MetricsReport::render_prometheus`]) — a scrape is not a `Metrics`
    /// request, so that lane does not move.
    #[must_use]
    pub fn render_metrics(&self) -> String {
        self.sync_state_gauges();
        self.obs.report().render_prometheus()
    }

    /// This engine's liveness/readiness verdict, from real signals:
    ///
    /// * `wal_writable` — the fail-stop flag: once an append fails the
    ///   engine refuses mutations, and readiness says so (a WAL-less engine
    ///   is trivially writable — non-durability is configuration, not
    ///   degradation);
    /// * `reactor_backpressure` — no connection is currently paused at its
    ///   in-flight/backlog bound (sampled each reactor tick; an engine not
    ///   behind a reactor reads the gauge's resting zero);
    /// * `worker_panics` — no request has panicked in a compute worker (a
    ///   truncated cold file, say); degraded until restart.
    #[must_use]
    pub fn health(&self) -> HealthReport {
        self.obs.health.count.inc();
        let mut report = HealthReport::new();
        let poisoned = self.wal_poisoned.load(Ordering::Relaxed);
        let wal_detail = if poisoned {
            "a WAL append failed; mutations are disabled until restart".to_string()
        } else if self.wal.is_some() {
            "WAL attached and accepting appends".to_string()
        } else {
            "no WAL attached (mutations are non-durable by configuration)".to_string()
        };
        report.push("wal_writable", !poisoned, wal_detail);
        let throttled = self.obs.throttled_connections.get();
        report.push(
            "reactor_backpressure",
            throttled == 0,
            format!("{throttled} connection(s) paused at their in-flight/backlog bound"),
        );
        let panics = self.obs.worker_panics.get();
        report.push(
            "worker_panics",
            panics == 0,
            format!("{panics} request(s) panicked in a compute worker (see /events)"),
        );
        report
    }

    /// The engine's recent operational events as wire records, oldest
    /// first (the `Events` request's payload).
    #[must_use]
    pub fn event_records(&self) -> Vec<EventRecord> {
        self.obs.events.count.inc();
        self.obs
            .event_log
            .entries()
            .iter()
            .map(EventRecord::from)
            .collect()
    }

    /// Estimate the influence spread of an explicit seed set (the caller's
    /// scratch is reused; only the echoed seed list is allocated).
    pub fn estimate(
        &self,
        seeds: &[u32],
        scratch: &mut EstimateScratch,
    ) -> Result<SpreadEstimate, ServiceError> {
        let began = Instant::now();
        self.obs.estimate.count.inc();
        let state = self.state();
        let oracle = state.dynamic.oracle();
        let n = oracle.num_vertices();
        check_vertices("seed", seeds, n)?;
        let covered = oracle.covered_with(seeds, scratch) as u64;
        let pool = oracle.pool_size() as u64;
        self.obs
            .estimate
            .latency_micros
            .record(began.elapsed().as_micros() as u64);
        Ok(SpreadEstimate {
            seeds: seeds.to_vec(),
            spread: n as f64 * covered as f64 / pool as f64,
            covered,
            pool,
        })
    }

    /// Per-vertex marginal coverage gains given `selected` — the
    /// distributed-`TopK` primitive (see
    /// [`im_core::InfluenceOracle::coverage_gains`]). Computed on an `Arc`
    /// snapshot with no lock held.
    pub fn gains(&self, selected: &[u32]) -> Result<GainVector, ServiceError> {
        let began = Instant::now();
        self.obs.gains.count.inc();
        let dynamic = Arc::clone(&self.state().dynamic);
        let oracle = dynamic.oracle();
        check_vertices("selected seed", selected, oracle.num_vertices())?;
        let (gains, covered) = oracle.coverage_gains(selected);
        self.obs
            .gains
            .latency_micros
            .record(began.elapsed().as_micros() as u64);
        Ok(GainVector {
            gains,
            covered,
            pool: oracle.pool_size() as u64,
        })
    }

    /// One greedy round cut down to its answer (see
    /// [`crate::service::InfluenceService::gain_candidates`]). `limit > 0`
    /// makes the one pool pass [`QueryEngine::gains`] makes and keeps the
    /// top `limit` of it; `limit == 0` makes none — point reads of
    /// `selected`'s and `probe`'s posting lists only. Computed on an `Arc`
    /// snapshot with no lock held.
    pub fn gain_candidates(
        &self,
        selected: &[u32],
        limit: usize,
        probe: &[u32],
    ) -> Result<GainCandidates, ServiceError> {
        let began = Instant::now();
        self.obs.gain_candidates.count.inc();
        let dynamic = Arc::clone(&self.state().dynamic);
        let oracle = dynamic.oracle();
        let n = oracle.num_vertices();
        check_vertices("selected seed", selected, n)?;
        check_vertices("probed vertex", probe, n)?;
        let pool = oracle.pool_size() as u64;
        let candidates = if limit == 0 {
            let (probed, covered) = oracle.coverage_gains_at(selected, probe);
            GainCandidates::probes_only(probed, covered, pool)
        } else {
            let (gains, covered) = oracle.coverage_gains(selected);
            GainVector {
                gains,
                covered,
                pool,
            }
            .candidates(limit, probe)
        };
        self.obs
            .gain_candidates
            .latency_micros
            .record(began.elapsed().as_micros() as u64);
        Ok(candidates)
    }

    /// Apply a batch of graph mutations **atomically**: all deltas land or
    /// none do, the CSR is patched once, and the dirty union is resampled
    /// exactly once per set. With a WAL attached the record carries the
    /// lineage fingerprint the oracle maintains — an O(1) read, so a durable
    /// batch costs the batch, an append and an fsync, never a pass over the
    /// graph.
    pub fn mutate_batch(&self, deltas: &[GraphDelta]) -> Result<MutationOutcome, ServiceError> {
        let began = Instant::now();
        self.obs.mutate_batch.count.inc();
        self.check_writable()?;
        self.check_wal_usable()?;
        if deltas.is_empty() {
            return Err(ServiceError::Mutation(
                "mutation batch must not be empty".into(),
            ));
        }
        let mut state = self.state.write().expect("serving state poisoned");
        let epoch = state.dynamic.epoch();
        // Atomic batches reject as a unit: nothing was applied and the epoch
        // did not move.
        let outcome = self.commit(&mut state, deltas, |e| {
            ServiceError::Mutation(format!(
                "batch rejected at delta {} of {} ({}); nothing applied, epoch {epoch}",
                e.index + 1,
                deltas.len(),
                e.error
            ))
        })?;
        self.obs
            .mutate_batch
            .latency_micros
            .record(began.elapsed().as_micros() as u64);
        Ok(outcome)
    }

    /// Fold the pending delta log into the snapshot watermark now.
    #[must_use = "the report says how many deltas were folded"]
    pub fn compact(&self) -> CompactionReport {
        let began = Instant::now();
        self.obs.compact.count.inc();
        let mut state = self.state.write().expect("serving state poisoned");
        self.obs.event_log.info(
            "compaction_started",
            0,
            vec![
                EventField::str("trigger", "request"),
                EventField::u64("epoch", state.dynamic.epoch()),
                EventField::u64("log_len", state.dynamic.log().len() as u64),
            ],
        );
        let outcome = Arc::make_mut(&mut state.dynamic).compact();
        self.obs.compactions.inc();
        let duration_micros = began.elapsed().as_micros() as u64;
        self.obs.compact.latency_micros.record(duration_micros);
        self.obs.event_log.info(
            "compaction_finished",
            0,
            vec![
                EventField::str("trigger", "request"),
                EventField::u64("folded", outcome.folded as u64),
                EventField::u64("duration_micros", duration_micros),
            ],
        );
        CompactionReport {
            epoch: outcome.epoch,
            folded: outcome.folded,
        }
    }

    /// Whether this engine currently refuses client mutations (a follower
    /// that has not been promoted).
    #[must_use]
    pub fn is_read_only(&self) -> bool {
        self.read_only.load(Ordering::Relaxed)
    }

    /// The WAL/replication identity string this engine's index derives —
    /// what a replication handshake (and the WAL header) verifies.
    #[must_use]
    pub fn identity(&self) -> String {
        let state = self.state();
        index_identity(&state.meta, state.shard.as_ref())
    }

    /// The index's base sampling seed (the other half of the WAL identity).
    #[must_use]
    pub fn base_seed(&self) -> u64 {
        self.state().meta.base_seed
    }

    /// Apply one record from the replication stream, bypassing the
    /// read-only gate (this *is* the stream).
    ///
    /// Returns `Ok(None)` when the record's whole span is at or below the
    /// current epoch (already applied — the resume cursor overshot, which is
    /// normal after a reconnect). A record *beyond* the current epoch means
    /// history is missing, and a record whose lineage fingerprint does not
    /// match the graph this replica holds at that epoch means the replica
    /// diverged (or the stream corrupted) — both are typed
    /// [`ServiceError::Backend`] fail-stops: the follower must resync, never
    /// serve diverged answers.
    ///
    /// The record lands through the same atomic machinery as
    /// [`QueryEngine::mutate_batch`] and is appended to this replica's own
    /// WAL (if one is attached), so the follower's resume cursor is durable
    /// and its log stays byte-compatible with the leader's.
    pub fn apply_replicated(
        &self,
        record: &WalRecord,
    ) -> Result<Option<MutationOutcome>, ServiceError> {
        self.apply_record(record, "resync the replica from a fresh artifact")
    }

    /// Apply one logged record — from the replication stream or, during
    /// [`EngineBuilder::build`], from this engine's own WAL — behind the
    /// checks both share: a record at or below the current epoch is skipped,
    /// one beyond it (history is missing) or recorded against another graph
    /// (the lineage fingerprint differs) is refused naming `remedy`.
    fn apply_record(
        &self,
        record: &WalRecord,
        remedy: &str,
    ) -> Result<Option<MutationOutcome>, ServiceError> {
        self.check_wal_usable()?;
        if record.deltas.is_empty() {
            return Ok(None);
        }
        let mut state = self.state.write().expect("serving state poisoned");
        let epoch = state.dynamic.epoch();
        if record.epoch_after() <= epoch {
            return Ok(None); // already applied (resume-cursor overshoot)
        }
        if record.epoch_before != epoch {
            return Err(ServiceError::Backend(format!(
                "record spans epochs {}..{} but this engine is at epoch {epoch}; history is \
                 missing — {remedy}",
                record.epoch_before,
                record.epoch_after()
            )));
        }
        // Same identity and lined-up epochs are not enough: the record must
        // have been applied to *this* graph (a rebuild with a different
        // `--deltas` script, a diverged replica or a corrupt stream share
        // both).
        if record.graph_hash_before != state.dynamic.fingerprint() {
            return Err(ServiceError::Backend(format!(
                "lineage divergence at epoch {epoch}: the record was applied to a different \
                 graph than this engine holds (lineage fingerprint mismatch) — {remedy}"
            )));
        }
        self.commit(&mut state, &record.deltas, |e| {
            ServiceError::Backend(format!(
                "recorded batch rejected at delta {} of {} ({}); it was applied to a graph this \
                 engine does not hold — {remedy}",
                e.index + 1,
                record.deltas.len(),
                e.error
            ))
        })
        .map(Some)
    }

    /// The one commit path for a batch, under the state write lock: apply it
    /// atomically, then count it, append it to the WAL, announce the epoch
    /// move and run the compaction policy. A rejected batch changes nothing
    /// and comes back worded by `reject`.
    fn commit(
        &self,
        state: &mut ServingState,
        deltas: &[GraphDelta],
        reject: impl FnOnce(BatchError) -> ServiceError,
    ) -> Result<MutationOutcome, ServiceError> {
        let epoch_before = state.dynamic.epoch();
        let hash_before = state.dynamic.fingerprint();
        let outcome = Arc::make_mut(&mut state.dynamic)
            .apply_batch(deltas)
            .map_err(reject)?;
        state.meta.num_edges = state.dynamic.graph().num_edges();
        self.obs.deltas_applied.add(outcome.applied as u64);
        self.obs.sets_resampled.add(outcome.resampled as u64);
        self.obs
            .mutate_resampled_sets
            .record(outcome.resampled as u64);
        self.wal_append(epoch_before, hash_before, deltas)?;
        self.note_epoch_moved(epoch_before, state.dynamic.epoch());
        let compacted = self.maybe_compact_with_events(state);
        Ok(MutationOutcome {
            epoch: state.dynamic.epoch(),
            applied: outcome.applied,
            resampled: outcome.resampled,
            compacted,
        })
    }

    /// Load the artifact at `path` (on this process's filesystem) and
    /// hot-swap it in via [`QueryEngine::reload`].
    pub fn reload_from_path(&self, path: &std::path::Path) -> Result<ReloadOutcome, ServiceError> {
        let artifact = IndexArtifact::load(path)?;
        self.reload(artifact)
    }

    /// Atomically swap a freshly validated artifact into the running engine
    /// behind the snapshot seam. In-flight queries finish on the old `Arc`
    /// snapshot; new queries see the new representation on their next read
    /// lock.
    ///
    /// A swap never changes *answers*, only representation: the artifact
    /// must carry the same identity, the same base seed, the same epoch and
    /// the same graph fingerprint as the served state (the use case is
    /// loading a compacted copy without restarting). Epoch and fingerprint
    /// are re-checked under the write lock, so a mutation racing the swap
    /// makes the reload fail loudly rather than silently dropping the
    /// mutation.
    ///
    /// Cached `TopK` answers stay valid across the swap by construction —
    /// their keys embed the (unchanged) epoch and the pool is required to be
    /// bit-identical.
    pub fn reload(&self, artifact: IndexArtifact) -> Result<ReloadOutcome, ServiceError> {
        self.obs.reload.count.inc();
        // Validate identity and build the replacement oracle *outside* the
        // write lock: readers keep flowing while the artifact is hashed.
        let new_identity = index_identity(&artifact.meta, artifact.shard.as_ref());
        let (identity, base_seed) = {
            let state = self.state();
            (
                index_identity(&state.meta, state.shard.as_ref()),
                state.meta.base_seed,
            )
        };
        if new_identity != identity || artifact.meta.base_seed != base_seed {
            return Err(ServiceError::Backend(format!(
                "reload refused: artifact identity {new_identity:?} (seed {}) does not match \
                 the served index {identity:?} (seed {base_seed}); hot-swap replaces the \
                 representation of the same index, never a different one",
                artifact.meta.base_seed
            )));
        }
        let new_epoch = artifact.epoch();
        let IndexArtifact {
            meta,
            graph,
            oracle,
            log,
            snapshot_epoch,
            shard,
        } = artifact;
        let dynamic = DynamicOracle::from_parts(graph, oracle, log, snapshot_epoch)
            .map_err(|e| ServiceError::Backend(format!("reload: artifact is unusable: {e}")))?
            .with_policy(self.compaction_policy);
        // Assembling the incoming oracle hashed its graph from scratch; the
        // served side below is an O(1) read.
        self.obs.lineage_full_hashes.inc();
        let began = Instant::now();
        let mut state = self.state.write().expect("serving state poisoned");
        let epoch = state.dynamic.epoch();
        if new_epoch != epoch {
            return Err(ServiceError::Backend(format!(
                "reload refused: artifact is at epoch {new_epoch} but the engine is at epoch \
                 {epoch}; hot-swap never changes history — export a fresh artifact from the \
                 running engine (or catch it up) and retry"
            )));
        }
        if dynamic.fingerprint() != state.dynamic.fingerprint() {
            return Err(ServiceError::Backend(format!(
                "reload refused: artifact holds a different graph than the engine serves at \
                 epoch {epoch} (lineage fingerprint mismatch); the artifact belongs to another \
                 lineage of the same index"
            )));
        }
        state.meta = meta;
        state.shard = shard;
        state.dynamic = Arc::new(dynamic);
        let pool_size = state.dynamic.pool_size();
        let log_len = state.dynamic.log().len();
        drop(state);
        let swap_micros = began.elapsed().as_micros() as u64;
        self.obs.index_swap_micros.record(swap_micros);
        self.obs.reload.latency_micros.record(swap_micros);
        self.obs.event_log.info(
            "index_swapped",
            0,
            vec![
                EventField::u64("epoch", epoch),
                EventField::u64("log_len", log_len as u64),
                EventField::u64("swap_micros", swap_micros),
            ],
        );
        Ok(ReloadOutcome {
            epoch,
            pool_size,
            log_len,
            swap_micros,
        })
    }

    /// Turn a read-only follower writable.
    ///
    /// With `expected_epoch` set (the leader's last acknowledged epoch, as
    /// known to the operator), the promotion is refused with a typed
    /// [`ServiceError::Promotion`] naming the epoch gap unless this
    /// replica's cursor reached it. `None` promotes unconditionally — the
    /// operator accepts whatever was replicated. Idempotent on an
    /// already-writable node.
    pub fn promote(&self, expected_epoch: Option<u64>) -> Result<PromotionOutcome, ServiceError> {
        self.obs.promote.count.inc();
        // Under the write lock so a concurrent replication apply cannot move
        // the epoch between the gap check and the flag flip.
        let state = self.state.write().expect("serving state poisoned");
        let epoch = state.dynamic.epoch();
        if let Some(required) = expected_epoch {
            if epoch < required {
                return Err(ServiceError::Promotion(format!(
                    "replication cursor is at epoch {epoch} but the leader's last acknowledged \
                     epoch is {required}; {} epoch(s) are missing — let the follower catch up, \
                     or promote without an expected epoch to accept the loss",
                    required - epoch
                )));
            }
        }
        let was_read_only = self.read_only.swap(false, Ordering::Relaxed);
        drop(state);
        if was_read_only {
            self.obs
                .event_log
                .info("promoted", 0, vec![EventField::u64("epoch", epoch)]);
        }
        Ok(PromotionOutcome {
            epoch,
            was_read_only,
        })
    }

    /// Refuse client mutations on a read-only replica (replicated records
    /// come through [`QueryEngine::apply_replicated`], which bypasses this
    /// gate). Checked before any state is touched.
    fn check_writable(&self) -> Result<(), ServiceError> {
        if self.read_only.load(Ordering::Relaxed) {
            return Err(ServiceError::ReadOnly(
                "this node applies mutations only from its replication stream; \
                 write to the leader, or promote this replica first"
                    .into(),
            ));
        }
        Ok(())
    }

    /// Refuse mutations once the WAL is poisoned (fail-stop: see
    /// [`QueryEngine::wal_poisoned`]). Checked before any state is touched.
    fn check_wal_usable(&self) -> Result<(), ServiceError> {
        if self.wal_poisoned.load(Ordering::Relaxed) {
            return Err(ServiceError::Backend(
                "mutations disabled: a previous WAL append failed, so accepting more would \
                 leave an unrecoverable gap in the log; restart the server (replaying the \
                 intact WAL prefix) to resume"
                    .into(),
            ));
        }
        Ok(())
    }

    /// Append an accepted batch to the WAL, if one is attached. Called by
    /// [`QueryEngine::commit`] under the state write lock so records land in
    /// application order (its callers have already refused an empty batch).
    /// An append failure is a [`ServiceError::Backend`] and the one error
    /// after which the in-memory state is ahead of the durable one: the
    /// batch is applied but cannot be acknowledged, so the engine goes
    /// fail-stop for mutations (the unlogged batch is an epoch gap that would
    /// strand every later record) while queries keep serving; a restart
    /// replays the WAL back to the state before the batch.
    fn wal_append(
        &self,
        epoch_before: u64,
        graph_hash_before: u64,
        deltas: &[GraphDelta],
    ) -> Result<(), ServiceError> {
        let Some(wal) = self.wal.as_ref() else {
            return Ok(());
        };
        let began = Instant::now();
        let bytes = wal
            .lock()
            .expect("WAL lock poisoned")
            .append(epoch_before, graph_hash_before, deltas)
            .map_err(|e| {
                self.wal_poisoned.store(true, Ordering::Relaxed);
                self.obs.event_log.error(
                    "wal_append_failed",
                    0,
                    vec![
                        EventField::u64("epoch_before", epoch_before),
                        EventField::u64("deltas", deltas.len() as u64),
                        EventField::text("error", e.to_string()),
                    ],
                );
                ServiceError::Backend(format!(
                    "WAL append failed ({e}); the batch is applied in memory but not durable, \
                     and further mutations are disabled"
                ))
            })?;
        self.obs
            .wal_append_micros
            .record(began.elapsed().as_micros() as u64);
        self.obs.wal_appended_bytes.add(bytes);
        self.obs.wal_fsyncs.inc();
        Ok(())
    }

    /// Record that a mutation moved the epoch, structurally invalidating
    /// every cached `TopK` answer (their keys embed the old epoch and can
    /// no longer be constructed). Called under the state write lock.
    fn note_epoch_moved(&self, old_epoch: u64, new_epoch: u64) {
        self.obs.event_log.info(
            "cache_epoch_invalidated",
            0,
            vec![
                EventField::u64("old_epoch", old_epoch),
                EventField::u64("new_epoch", new_epoch),
            ],
        );
    }

    /// Run the compaction policy after a mutation, emitting start/finish
    /// events with the fold's duration when it fires. Called under the
    /// state write lock.
    fn maybe_compact_with_events(&self, state: &mut ServingState) -> bool {
        let log_len = state.dynamic.log().len() as u64;
        let began = Instant::now();
        let Some(outcome) = Arc::make_mut(&mut state.dynamic).maybe_compact() else {
            return false;
        };
        self.obs.compactions.inc();
        let duration_micros = began.elapsed().as_micros() as u64;
        self.obs.event_log.info(
            "compaction_started",
            0,
            vec![
                EventField::str("trigger", "policy"),
                EventField::u64("epoch", outcome.epoch),
                EventField::u64("log_len", log_len),
            ],
        );
        self.obs.event_log.info(
            "compaction_finished",
            0,
            vec![
                EventField::str("trigger", "policy"),
                EventField::u64("folded", outcome.folded as u64),
                EventField::u64("duration_micros", duration_micros),
            ],
        );
        true
    }

    /// Select an influential seed set of size `k`, fronted by the
    /// epoch-keyed [`TopKCache`].
    pub fn top_k(&self, k: usize, algorithm: TopKAlgorithm) -> Result<TopKSelection, ServiceError> {
        let began = Instant::now();
        self.obs.top_k.count.inc();
        if k == 0 {
            return Err(ServiceError::Query("k must be positive".into()));
        }
        // Snapshot the oracle and its epoch under one short read lock, then
        // compute with no lock held: the key is labelled with the snapshot's
        // epoch, so even if a mutation lands mid-selection the answer is
        // cached where post-mutation lookups can never find it.
        let dynamic = Arc::clone(&self.state().dynamic);
        let epoch = dynamic.epoch();
        let cached = self
            .topk_cache
            .lock()
            .expect("cache lock poisoned")
            .get(epoch, k, algorithm);
        if let Some(hit) = cached {
            self.obs
                .top_k
                .latency_micros
                .record(began.elapsed().as_micros() as u64);
            return Ok(hit);
        }

        let oracle = dynamic.oracle();
        let (seeds, spread) = match algorithm {
            TopKAlgorithm::Greedy => oracle.greedy_seed_set(k),
            TopKAlgorithm::SingletonRank => {
                let ranked = oracle.top_influential_vertices(k);
                let seeds: Vec<u32> = ranked.iter().map(|&(v, _)| v).collect();
                let spread = oracle.estimate(&seeds);
                (seeds, spread)
            }
        };
        let selection = TopKSelection {
            seeds,
            spread,
            algorithm,
        };
        self.topk_cache
            .lock()
            .expect("cache lock poisoned")
            .insert(epoch, k, selection.clone());
        self.obs
            .top_k
            .latency_micros
            .record(began.elapsed().as_micros() as u64);
        Ok(selection)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{build_dataset_index, build_dataset_index_with_deltas};
    use im_core::InfluenceOracle;

    const POOL: usize = 5_000;
    const SEED: u64 = 7;

    fn karate_engine() -> QueryEngine {
        QueryEngine::builder(build_dataset_index("karate", "uc0.1", POOL, SEED).unwrap())
            .build()
            .unwrap()
    }

    /// A reference oracle equal to the engine's initial pool (builds are
    /// deterministic per seed).
    fn karate_oracle() -> InfluenceOracle {
        build_dataset_index("karate", "uc0.1", POOL, SEED)
            .unwrap()
            .oracle
    }

    /// The reactor's table: point requests on the loop, passes and writes
    /// on a worker — and a state-reading point request goes to a worker
    /// too while a writer holds the serving state.
    #[test]
    fn point_requests_leave_the_loop_while_a_writer_holds_the_state() {
        use crate::reactor::answers_on_loop;
        let engine = karate_engine();
        let estimate = Request::Estimate { seeds: vec![0, 33] };
        let probes = Request::GainCandidates {
            selected: vec![0],
            limit: 0,
            probe: vec![33],
        };
        let on_loop = [
            Request::Ping,
            Request::Health,
            Request::Info,
            estimate.clone(),
        ];
        for request in on_loop.iter().chain([&probes]) {
            assert!(answers_on_loop(request, &engine), "{request:?}");
        }
        let passes = [
            Request::TopK {
                k: 2,
                algorithm: TopKAlgorithm::Greedy,
            },
            Request::Gains { selected: vec![] },
            Request::GainCandidates {
                selected: vec![0],
                limit: 4,
                probe: vec![],
            },
            Request::Stats,
            Request::Metrics,
            Request::Compact,
        ];
        for request in &passes {
            assert!(!answers_on_loop(request, &engine), "{request:?}");
        }
        let writer = engine.state.write().unwrap();
        assert!(!engine.state_is_free(false));
        for request in [&estimate, &probes, &Request::Info] {
            assert!(!answers_on_loop(request, &engine), "{request:?}");
        }
        assert!(answers_on_loop(&Request::Ping, &engine), "reads no state");
        drop(writer);
        assert!(answers_on_loop(&estimate, &engine));
    }

    #[test]
    fn estimate_matches_the_oracle_exactly() {
        let engine = karate_engine();
        let oracle = karate_oracle();
        let mut scratch = engine.new_scratch();
        for seeds in [vec![0u32], vec![0, 33], vec![5, 9, 13]] {
            let expected = oracle.estimate(&seeds);
            match engine.handle(
                &Request::Estimate {
                    seeds: seeds.clone(),
                },
                &mut scratch,
            ) {
                Response::Estimate {
                    spread,
                    seeds: echoed,
                    covered,
                    pool,
                } => {
                    assert_eq!(spread, expected, "engine must equal the in-process oracle");
                    assert_eq!(echoed, seeds);
                    assert_eq!(pool, POOL as u64);
                    // The carried integers re-derive the spread exactly.
                    assert_eq!(spread, 34.0 * covered as f64 / pool as f64);
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
    }

    #[test]
    fn out_of_range_seed_is_an_error_response() {
        let engine = karate_engine();
        let mut scratch = engine.new_scratch();
        let response = engine.handle(&Request::Estimate { seeds: vec![999] }, &mut scratch);
        assert!(matches!(response, Response::Error { .. }));
    }

    #[test]
    fn topk_is_deterministic_and_cached() {
        let engine = karate_engine();
        let mut scratch = engine.new_scratch();
        let request = Request::TopK {
            k: 3,
            algorithm: TopKAlgorithm::Greedy,
        };
        let first = engine.handle(&request, &mut scratch);
        let second = engine.handle(&request, &mut scratch);
        assert_eq!(first, second, "cached answer must be identical");
        match engine.handle(&Request::Stats, &mut scratch) {
            Response::Stats {
                topk_cache_hits,
                topk_cache_misses,
                pool_size,
                epoch,
                ..
            } => {
                assert_eq!(topk_cache_hits, 1);
                assert_eq!(topk_cache_misses, 1);
                assert_eq!(pool_size, POOL);
                assert_eq!(epoch, 0);
            }
            other => panic!("unexpected response {other:?}"),
        }
        // The greedy answer equals the oracle's own greedy selection.
        match first {
            Response::TopK(TopKSelection { seeds, spread, .. }) => {
                let (expected_seeds, expected_spread) = karate_oracle().greedy_seed_set(3);
                assert_eq!(seeds, expected_seeds);
                assert_eq!(spread, expected_spread);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn mutation_invalidates_cached_topk_answers() {
        let engine = karate_engine();
        let mut scratch = engine.new_scratch();
        let request = Request::TopK {
            k: 3,
            algorithm: TopKAlgorithm::Greedy,
        };
        // Prime the cache at epoch 0.
        let before = engine.handle(&request, &mut scratch);

        // Apply a drastic mutation: vertex 16's only links go deterministic.
        let deltas = vec![
            GraphDelta::SetProbability {
                source: 5,
                target: 16,
                probability: 1.0,
            },
            GraphDelta::InsertEdge {
                source: 16,
                target: 0,
                probability: 1.0,
            },
        ];
        let outcome = engine.mutate_batch(&deltas).unwrap();
        assert_eq!(outcome.epoch, 2);
        assert_eq!(outcome.applied, 2);
        assert!(
            outcome.resampled > 0,
            "the mutated head vertex has coverage"
        );

        // The same request must now be recomputed (a second miss), against
        // the mutated pool — and must equal a from-scratch rebuild of the
        // mutated graph, never the stale cached answer's pool.
        let after = engine.handle(&request, &mut scratch);
        match engine.handle(&Request::Stats, &mut scratch) {
            Response::Stats {
                topk_cache_hits,
                topk_cache_misses,
                epoch,
                deltas_applied,
                ..
            } => {
                assert_eq!(topk_cache_hits, 0, "no stale hit after the mutation");
                assert_eq!(topk_cache_misses, 2, "epoch change forces a recompute");
                assert_eq!(epoch, 2);
                assert_eq!(deltas_applied, 2);
            }
            other => panic!("unexpected response {other:?}"),
        }
        let rebuilt =
            build_dataset_index_with_deltas("karate", "uc0.1", POOL, SEED, &deltas).unwrap();
        let (expected_seeds, expected_spread) = rebuilt.oracle.greedy_seed_set(3);
        match after {
            Response::TopK(TopKSelection { seeds, spread, .. }) => {
                assert_eq!(seeds, expected_seeds);
                assert_eq!(spread, expected_spread);
            }
            other => panic!("unexpected response {other:?}"),
        }
        // Sanity: the engine state itself matches the rebuild byte-for-byte.
        assert_eq!(
            engine.state().dynamic.oracle().to_bytes(),
            rebuilt.oracle.to_bytes()
        );
        // (The pre-mutation answer may or may not coincide with the new one;
        // the guarantee under test is recomputation, not difference.)
        let _ = before;
    }

    #[test]
    fn mutate_batch_is_atomic_and_matches_the_rebuild() {
        let batched = karate_engine();
        let mut scratch = batched.new_scratch();
        let deltas = vec![
            GraphDelta::InsertEdge {
                source: 0,
                target: 33,
                probability: 0.5,
            },
            GraphDelta::DeleteEdge {
                source: 0,
                target: 1,
            },
            GraphDelta::SetProbability {
                source: 33,
                target: 32,
                probability: 1.0,
            },
        ];
        match batched.handle(
            &Request::MutateBatch {
                deltas: deltas.clone(),
            },
            &mut scratch,
        ) {
            Response::MutateBatch(MutationOutcome {
                epoch,
                applied,
                resampled,
                compacted,
            }) => {
                assert_eq!(epoch, 3);
                assert_eq!(applied, 3);
                assert!(resampled > 0);
                assert!(!compacted, "no policy configured");
            }
            other => panic!("unexpected response {other:?}"),
        }
        let rebuilt =
            build_dataset_index_with_deltas("karate", "uc0.1", POOL, SEED, &deltas).unwrap();
        assert_eq!(
            batched.state().dynamic.oracle().to_bytes(),
            rebuilt.oracle.to_bytes(),
            "batched application must agree with the rebuild byte-for-byte"
        );
        assert_eq!(batched.epoch(), rebuilt.epoch());
        assert_eq!(batched.state().meta.num_edges, rebuilt.meta.num_edges);

        // An invalid batch rejects as a unit: nothing lands, epoch unmoved.
        let before = batched.state().dynamic.oracle().to_bytes();
        let response = batched.handle(
            &Request::MutateBatch {
                deltas: vec![
                    GraphDelta::InsertEdge {
                        source: 0,
                        target: 1,
                        probability: 0.5,
                    },
                    GraphDelta::DeleteEdge {
                        source: 999,
                        target: 0,
                    },
                ],
            },
            &mut scratch,
        );
        match response {
            Response::Error { message } => {
                assert!(message.contains("delta 2 of 2"), "{message}");
                assert!(message.contains("nothing applied"), "{message}");
            }
            other => panic!("unexpected response {other:?}"),
        }
        assert_eq!(batched.epoch(), 3);
        assert_eq!(batched.state().dynamic.oracle().to_bytes(), before);
        // Empty batches are rejected outright.
        let response = batched.handle(&Request::MutateBatch { deltas: vec![] }, &mut scratch);
        assert!(matches!(response, Response::Error { .. }));
    }

    #[test]
    fn compaction_folds_the_log_and_keeps_answers_identical() {
        use imdyn::CompactionPolicy;

        let engine = karate_engine();
        let mut scratch = engine.new_scratch();
        let deltas = vec![
            GraphDelta::DeleteEdge {
                source: 0,
                target: 1,
            },
            GraphDelta::InsertEdge {
                source: 16,
                target: 0,
                probability: 1.0,
            },
        ];
        engine.mutate_batch(&deltas).unwrap();
        let estimate = Request::Estimate { seeds: vec![0, 33] };
        let before = engine.handle(&estimate, &mut scratch);

        match engine.handle(&Request::Compact, &mut scratch) {
            Response::Compact(CompactionReport { epoch, folded }) => {
                assert_eq!(epoch, 2, "compaction never moves the epoch");
                assert_eq!(folded, 2);
            }
            other => panic!("unexpected response {other:?}"),
        }
        assert_eq!(engine.handle(&estimate, &mut scratch), before);
        match engine.handle(&Request::Stats, &mut scratch) {
            Response::Stats {
                epoch,
                log_len,
                snapshot_epoch,
                compactions,
                ..
            } => {
                assert_eq!(epoch, 2);
                assert_eq!(log_len, 0);
                assert_eq!(snapshot_epoch, 2);
                assert_eq!(compactions, 1);
            }
            other => panic!("unexpected response {other:?}"),
        }
        // A compacted engine keeps serving the post-mutation state: still
        // byte-identical to the from-scratch rebuild.
        let rebuilt =
            build_dataset_index_with_deltas("karate", "uc0.1", POOL, SEED, &deltas).unwrap();
        assert_eq!(
            engine.state().dynamic.oracle().to_bytes(),
            rebuilt.oracle.to_bytes()
        );
        // The exported artifact carries the watermark and an empty log.
        let artifact = engine.state().to_artifact();
        assert_eq!(artifact.snapshot_epoch, 2);
        assert!(artifact.log.is_empty());
        assert_eq!(artifact.epoch(), 2);

        // Auto-compaction: a policy-configured engine folds the log as soon
        // as the threshold is reached.
        let auto =
            QueryEngine::builder(build_dataset_index("karate", "uc0.1", POOL, SEED).unwrap())
                .compaction_policy(CompactionPolicy::log_len(2))
                .build()
                .unwrap();
        let mut scratch = auto.new_scratch();
        match auto.handle(
            &Request::MutateBatch {
                deltas: deltas.clone(),
            },
            &mut scratch,
        ) {
            Response::MutateBatch(MutationOutcome {
                epoch, compacted, ..
            }) => {
                assert_eq!(epoch, 2);
                assert!(compacted, "log-length 2 policy must fire on a 2-batch");
            }
            other => panic!("unexpected response {other:?}"),
        }
        match auto.handle(&Request::Stats, &mut scratch) {
            Response::Stats {
                log_len,
                snapshot_epoch,
                compactions,
                ..
            } => {
                assert_eq!(log_len, 0);
                assert_eq!(snapshot_epoch, 2);
                assert_eq!(compactions, 1);
            }
            other => panic!("unexpected response {other:?}"),
        }
        // Both engines hold the identical mutated pool.
        assert_eq!(
            auto.state().dynamic.oracle().to_bytes(),
            engine.state().dynamic.oracle().to_bytes()
        );
    }

    #[test]
    fn gain_candidates_cut_the_gain_vector_and_refuse_hostile_lists() {
        let engine = karate_engine();
        let gains = engine.gains(&[33]).unwrap();
        // A list is the head of the vector sorted by (gain desc, id asc),
        // the bound the best gain left out.
        let mut ranked: Vec<(u32, u64)> = (0u32..).zip(gains.gains.iter().copied()).collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let top = engine.gain_candidates(&[33], 5, &[2, 33]).unwrap();
        let (vertices, counts): (Vec<u32>, Vec<u64>) = ranked[..5].iter().copied().unzip();
        assert_eq!((top.vertices, top.counts), (vertices, counts));
        assert_eq!(top.bound, ranked[5].1);
        assert_eq!(
            top.probed,
            [gains.gains[2], 0],
            "a selected seed gains nothing"
        );
        assert_eq!((top.covered, top.pool), (gains.covered, gains.pool));
        // `limit` is clamped to n before anything is sized by it.
        let all = engine.gain_candidates(&[33], usize::MAX, &[]).unwrap();
        assert_eq!((all.vertices.len(), all.bound), (34, 0));
        // `limit == 0` lists nothing, makes no pass, and still answers the
        // probes — the same answer the vector-derived default gives.
        let probes = engine.gain_candidates(&[33], 0, &[2, 0]).unwrap();
        assert_eq!(probes, gains.candidates(0, &[2, 0]));
        assert_eq!(probes.bound, gains.pool - gains.covered);
        assert_eq!(probes.probed, [gains.gains[2], gains.gains[0]]);

        // Hostile lists are typed query errors on every request that takes
        // one, over the in-process path the wire path shares.
        let mut scratch = engine.new_scratch();
        let too_long = vec![0u32; 35];
        for request in [
            Request::GainCandidates {
                selected: vec![],
                limit: 1,
                probe: vec![34],
            },
            Request::GainCandidates {
                selected: vec![34],
                limit: 0,
                probe: vec![],
            },
            Request::GainCandidates {
                selected: vec![],
                limit: 0,
                probe: too_long.clone(),
            },
            Request::Gains {
                selected: too_long.clone(),
            },
            Request::Estimate { seeds: too_long },
        ] {
            let err = engine.handle_service(&request, &mut scratch).unwrap_err();
            assert!(
                matches!(err, ServiceError::Query(_)),
                "{request:?} -> {err}"
            );
        }
    }

    #[test]
    fn singleton_rank_uses_the_influence_ranking() {
        let engine = karate_engine();
        let mut scratch = engine.new_scratch();
        match engine.handle(
            &Request::TopK {
                k: 2,
                algorithm: TopKAlgorithm::SingletonRank,
            },
            &mut scratch,
        ) {
            Response::TopK(TopKSelection { seeds, .. }) => {
                let expected: Vec<u32> = karate_oracle()
                    .top_influential_vertices(2)
                    .iter()
                    .map(|&(v, _)| v)
                    .collect();
                assert_eq!(seeds, expected);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn zero_k_is_rejected() {
        let engine = karate_engine();
        let mut scratch = engine.new_scratch();
        let response = engine.handle(
            &Request::TopK {
                k: 0,
                algorithm: TopKAlgorithm::Greedy,
            },
            &mut scratch,
        );
        assert!(matches!(response, Response::Error { .. }));
    }

    #[test]
    fn info_reports_the_index_metadata() {
        let engine = karate_engine();
        let mut scratch = engine.new_scratch();
        match engine.handle(&Request::Info, &mut scratch) {
            Response::Info(ServiceInfo {
                graph_id,
                model,
                num_vertices,
                pool_size,
                ..
            }) => {
                assert_eq!(graph_id, "Karate");
                assert_eq!(model, "uc0.1");
                assert_eq!(num_vertices, 34);
                assert_eq!(pool_size, POOL);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn state_exports_a_round_trippable_artifact() {
        let engine = karate_engine();
        let edges_before = engine.state().meta.num_edges;
        let mut scratch = engine.new_scratch();
        engine
            .mutate_batch(&[GraphDelta::DeleteEdge {
                source: 0,
                target: 1,
            }])
            .unwrap();
        let artifact = engine.state().to_artifact();
        assert_eq!(artifact.log.len(), 1);
        assert_eq!(artifact.meta.num_edges, edges_before - 1);
        let reloaded = IndexArtifact::from_bytes(&artifact.to_bytes()).unwrap();
        assert_eq!(reloaded.log, artifact.log);
        // A new engine over the reloaded artifact serves the same answers
        // and continues from the same epoch.
        let resumed = QueryEngine::builder(reloaded).build().unwrap();
        assert_eq!(resumed.epoch(), 1);
        let mut scratch2 = resumed.new_scratch();
        let q = Request::Estimate { seeds: vec![0, 33] };
        assert_eq!(
            resumed.handle(&q, &mut scratch2),
            engine.handle(&q, &mut scratch)
        );
    }

    fn karate_follower() -> QueryEngine {
        QueryEngine::builder(build_dataset_index("karate", "uc0.1", POOL, SEED).unwrap())
            .read_only(true)
            .build()
            .unwrap()
    }

    fn test_deltas() -> Vec<GraphDelta> {
        vec![
            GraphDelta::SetProbability {
                source: 0,
                target: 1,
                probability: 0.9,
            },
            GraphDelta::DeleteEdge {
                source: 0,
                target: 2,
            },
        ]
    }

    #[test]
    fn read_only_engines_refuse_client_mutations_until_promoted() {
        let follower = karate_follower();
        assert!(follower.is_read_only());
        let refusal = follower.mutate_batch(&test_deltas()).unwrap_err();
        assert!(
            matches!(refusal, ServiceError::ReadOnly(_)),
            "expected a typed ReadOnly refusal, got {refusal:?}"
        );
        // Reads keep flowing on the read-only node.
        assert!(follower
            .estimate(&[0, 33], &mut follower.new_scratch())
            .is_ok());

        let outcome = follower.promote(None).unwrap();
        assert!(outcome.was_read_only);
        assert_eq!(outcome.epoch, 0);
        assert!(!follower.is_read_only());
        // Each delta of the batch advances the epoch: a 2-delta batch spans 0..2.
        assert_eq!(follower.mutate_batch(&test_deltas()).unwrap().epoch, 2);

        // Idempotent on an already-writable node.
        let again = follower.promote(None).unwrap();
        assert!(!again.was_read_only);
        assert_eq!(again.epoch, 2);
    }

    #[test]
    fn promotion_with_an_expected_epoch_names_the_gap() {
        let follower = karate_follower();
        let refusal = follower.promote(Some(3)).unwrap_err();
        match refusal {
            ServiceError::Promotion(message) => {
                assert!(message.contains("epoch 0"), "gap not named: {message}");
                assert!(
                    message.contains("epoch is 3"),
                    "target not named: {message}"
                );
            }
            other => panic!("expected a Promotion refusal, got {other:?}"),
        }
        // The refused node stays read-only; a satisfied expectation flips it.
        assert!(follower.is_read_only());
        assert!(follower.promote(Some(0)).unwrap().was_read_only);
        assert!(!follower.is_read_only());
    }

    #[test]
    fn apply_replicated_skips_duplicates_and_fail_stops_on_gaps_and_divergence() {
        let leader = karate_engine();
        let follower = karate_follower();

        // Ship one batch the way the replication stream does: the record
        // carries the pre-apply epoch and lineage fingerprint.
        let record = WalRecord {
            epoch_before: leader.epoch(),
            graph_hash_before: leader.state().dynamic.fingerprint(),
            deltas: test_deltas(),
        };
        leader.mutate_batch(&record.deltas).unwrap();
        let outcome = follower.apply_replicated(&record).unwrap().unwrap();
        assert_eq!(outcome.epoch, 2);
        assert_eq!(follower.epoch(), leader.epoch());
        // Byte-identical pools after the apply.
        assert_eq!(
            follower.state().dynamic.oracle().to_bytes(),
            leader.state().dynamic.oracle().to_bytes()
        );

        // A resume-cursor overshoot re-ships the record: skipped, not an error.
        assert!(follower.apply_replicated(&record).unwrap().is_none());

        // A record from the future means history is missing: fail-stop.
        let gap = WalRecord {
            epoch_before: 5,
            graph_hash_before: follower.state().dynamic.fingerprint(),
            deltas: test_deltas(),
        };
        match follower.apply_replicated(&gap).unwrap_err() {
            ServiceError::Backend(message) => {
                assert!(message.contains("history is missing"), "{message}");
            }
            other => panic!("expected a Backend fail-stop, got {other:?}"),
        }

        // A record for the right epoch but another lineage: divergence.
        let diverged = WalRecord {
            epoch_before: follower.epoch(),
            graph_hash_before: 0xDEAD_BEEF,
            deltas: test_deltas(),
        };
        match follower.apply_replicated(&diverged).unwrap_err() {
            ServiceError::Backend(message) => {
                assert!(message.contains("divergence"), "{message}");
            }
            other => panic!("expected a Backend fail-stop, got {other:?}"),
        }
        // Neither refusal moved the epoch.
        assert_eq!(follower.epoch(), 2);
    }

    #[test]
    fn reload_hot_swaps_a_compacted_copy_without_changing_answers() {
        let engine = karate_engine();
        engine.mutate_batch(&test_deltas()).unwrap();
        let mut scratch = engine.new_scratch();
        let before = engine.estimate(&[0, 33], &mut scratch).unwrap();
        assert_eq!(engine.state().dynamic.log().len(), 2);

        // Export, compact offline, hot-swap the compacted copy back in.
        let mut artifact = engine.state().to_artifact();
        artifact.compact();
        let outcome = engine.reload(artifact).unwrap();
        assert_eq!(outcome.epoch, 2);
        assert_eq!(outcome.log_len, 0, "the compacted copy folded the log");
        assert_eq!(engine.epoch(), 2);
        assert_eq!(engine.estimate(&[0, 33], &mut scratch).unwrap(), before);
    }

    #[test]
    fn reload_refuses_foreign_epochs_and_identities() {
        let engine = karate_engine();
        engine.mutate_batch(&test_deltas()).unwrap();

        // An artifact at another epoch (the pristine build) is refused.
        let stale = build_dataset_index("karate", "uc0.1", POOL, SEED).unwrap();
        match engine.reload(stale).unwrap_err() {
            ServiceError::Backend(message) => {
                assert!(message.contains("epoch 0"), "{message}");
                assert!(message.contains("epoch 2"), "{message}");
            }
            other => panic!("expected a Backend refusal, got {other:?}"),
        }

        // Another seed is another identity, refused before any lock is taken.
        let foreign = build_dataset_index("karate", "uc0.1", POOL, SEED + 1).unwrap();
        match engine.reload(foreign).unwrap_err() {
            ServiceError::Backend(message) => {
                assert!(message.contains("identity"), "{message}");
            }
            other => panic!("expected a Backend refusal, got {other:?}"),
        }

        // A same-epoch artifact from a different mutation history is another
        // lineage: the fingerprint check refuses it.
        let other_history = build_dataset_index_with_deltas(
            "karate",
            "uc0.1",
            POOL,
            SEED,
            &[
                GraphDelta::SetProbability {
                    source: 5,
                    target: 6,
                    probability: 0.55,
                },
                GraphDelta::DeleteEdge {
                    source: 5,
                    target: 6,
                },
            ],
        )
        .unwrap();
        match engine.reload(other_history).unwrap_err() {
            ServiceError::Backend(message) => {
                assert!(message.contains("fingerprint"), "{message}");
            }
            other => panic!("expected a Backend refusal, got {other:?}"),
        }
        assert_eq!(engine.epoch(), 2, "refused reloads leave the engine alone");
    }
}
