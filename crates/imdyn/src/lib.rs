//! `imdyn` — incremental RR-set maintenance for evolving influence graphs.
//!
//! The RR-set pool behind the serving layer is a *materialized view* over the
//! influence graph: expensive to compute, cheap to query. Before this crate,
//! any graph change invalidated the whole view — a full resample and a server
//! restart. [`DynamicOracle`] instead keeps the view consistent under a
//! stream of typed mutations ([`imgraph::GraphDelta`]), with a strong
//! correctness contract:
//!
//! > After any sequence of applied deltas, the maintained pool is
//! > **byte-identical** (via `InfluenceOracle::to_bytes`) to a pool rebuilt
//! > from scratch on the mutated graph with the same base seed.
//!
//! The graph side keeps the same discipline: the CSR is *patched* under each
//! batch ([`imgraph::InfluenceGraph::apply_patch`], one sequential pass per
//! array) and stays equal, field for field, to re-materializing the edge
//! list, and the lineage fingerprint ([`DynamicOracle::fingerprint`]) moves
//! by the touched rows' terms and stays equal to hashing the graph from
//! scratch — a write costs what the batch touches, not what the graph holds.
//!
//! The contract is achievable because the pool is built with one derived
//! PRNG stream *per RR set* (`InfluenceOracle::build_incremental`), and the
//! reverse BFS generating a set only examines in-edges of vertices inside the
//! set — so a mutation of edge `(u, v)` dirties exactly the sets containing
//! `v`, and those are listed by the pool's own posting list for `v`. See
//! `README.md` next to this crate for the full argument.
//!
//! [`workload`] provides deterministic random mutation generators used by the
//! proptest suite and the `evolve`/`compaction` experiments.
//!
//! # Index lifecycle
//!
//! A long-lived service accumulates an unbounded delta log and pays a CSR
//! patch per structural delta. This crate therefore layers a log-structured
//! lifecycle on top of single-delta maintenance:
//!
//! * [`DynamicOracle::apply_batch`] applies an atomic batch, patches the CSR
//!   **once**, and resamples the *union* of dirty RR sets exactly once per
//!   set;
//! * [`DynamicOracle::compact`] folds the pending log into the base state,
//!   advancing the snapshot watermark so the epoch stays monotonic (caches
//!   keyed on it never see a reset);
//! * [`CompactionPolicy`] decides *when* to compact (pending-log length or
//!   resampled-dirty fraction), and [`DynamicOracle::maybe_compact`] wires
//!   it into the mutation path;
//! * [`DynamicOracle::snapshot`] / [`DynamicOracle::restore`] round-trip the
//!   compacted state, so a restored service answers byte-identically to the
//!   one that produced the snapshot.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::time::Instant;

use im_core::sampler::Backend;
use im_core::InfluenceOracle;
use imgraph::{
    lineage, BatchError, CsrPatch, DeltaEffect, DeltaError, DeltaLog, GraphDelta, InfluenceGraph,
    MutableInfluenceGraph, VertexId,
};

pub mod workload;

/// Monotonic counters describing the maintenance work performed so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Deltas successfully applied through [`DynamicOracle::apply`] and
    /// [`DynamicOracle::apply_batch`].
    pub deltas_applied: u64,
    /// RR sets resampled across all applied deltas.
    pub sets_resampled: u64,
    /// Deltas that only patched an edge attribute (no CSR rebuild).
    pub attribute_patches: u64,
    /// Batches successfully applied through [`DynamicOracle::apply_batch`].
    pub batches_applied: u64,
    /// CSR structural patches paid (the name predates the in-place patch,
    /// when each was a full re-materialization; exporters mirror it). The
    /// batched path pays one per batch; the per-delta path one per
    /// structural delta.
    pub csr_materializations: u64,
    /// Times the pending log was folded away ([`DynamicOracle::compact`]).
    pub compactions: u64,
    /// RR sets resampled since the last compaction (the dirty-work signal
    /// [`CompactionPolicy::max_dirty_fraction`] thresholds on; reset by
    /// [`DynamicOracle::compact`]).
    pub resampled_since_compaction: u64,
}

impl MaintenanceStats {
    /// Visit every counter as a `(name, value)` pair, in declaration order.
    /// The names are stable identifiers (snake_case field names) — metric
    /// exporters mirror them without hand-listing the fields.
    pub fn for_each(&self, mut f: impl FnMut(&'static str, u64)) {
        f("deltas_applied", self.deltas_applied);
        f("sets_resampled", self.sets_resampled);
        f("attribute_patches", self.attribute_patches);
        f("batches_applied", self.batches_applied);
        f("csr_materializations", self.csr_materializations);
        f("compactions", self.compactions);
        f(
            "resampled_since_compaction",
            self.resampled_since_compaction,
        );
    }
}

/// What one [`DynamicOracle::apply`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApplyOutcome {
    /// The engine epoch after the delta (the number of deltas ever applied).
    pub epoch: u64,
    /// RR sets that were dirty and resampled.
    pub resampled: usize,
    /// Whether the adjacency structure changed (insert/delete) rather than
    /// only an edge probability.
    pub structural: bool,
}

/// What one [`DynamicOracle::apply_batch`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchOutcome {
    /// The engine epoch after the batch (the number of deltas ever applied).
    pub epoch: u64,
    /// Deltas applied by the batch (the whole batch, or none).
    pub applied: usize,
    /// Distinct RR sets resampled — the union of the batch's dirty sets,
    /// resampled once each.
    pub resampled: usize,
    /// Structural deltas (insert/delete) in the batch.
    pub structural: usize,
    /// Whether the CSR's adjacency was patched (exactly once, iff any delta
    /// was structural).
    pub materialized: bool,
    /// Wall time of the resample step (dirty-set union, redraw and pool
    /// swap), in microseconds.
    pub resample_micros: u64,
}

/// One maintained pool's position in the epoch timeline: where its snapshot
/// watermark sits, how many deltas are still pending in the log, and the
/// resulting epoch.
///
/// This is the unit of *shard-aware* epoch reporting: a sharded service
/// broadcasts every mutation to all pool shards, so their reports must stay
/// in lockstep — any divergence between shards' `EpochReport`s means a
/// broadcast was torn and the union invariant no longer holds. The serving
/// layer aggregates one report per shard and compares them field by field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochReport {
    /// Total deltas ever applied (`snapshot_epoch + log_len`).
    pub epoch: u64,
    /// Deltas folded away by compactions (the snapshot watermark).
    pub snapshot_epoch: u64,
    /// Deltas still pending in the delta log.
    pub log_len: usize,
}

/// What one [`DynamicOracle::compact`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionOutcome {
    /// The epoch at which the log was folded — unchanged by compaction, and
    /// from now on the snapshot watermark ([`DynamicOracle::snapshot_epoch`]).
    pub epoch: u64,
    /// Pending deltas folded into the base state.
    pub folded: usize,
}

/// When a [`DynamicOracle`] should fold its pending delta log away.
///
/// Both thresholds are optional and independent; the policy fires when *any*
/// enabled threshold is reached. The default ([`CompactionPolicy::DISABLED`])
/// never fires, so compaction stays explicit unless an operator opts in.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CompactionPolicy {
    /// Compact once the pending log holds at least this many deltas.
    pub max_log_len: Option<usize>,
    /// Compact once the RR sets resampled since the last compaction reach
    /// this fraction of the pool (a proxy for "how much of the materialized
    /// view has churned"; `1.0` means a full pool's worth of resampling).
    pub max_dirty_fraction: Option<f64>,
}

impl CompactionPolicy {
    /// The policy that never triggers (compaction on demand only).
    pub const DISABLED: Self = Self {
        max_log_len: None,
        max_dirty_fraction: None,
    };

    /// A pure log-length policy: compact every `len` pending deltas.
    #[must_use]
    pub fn log_len(len: usize) -> Self {
        Self {
            max_log_len: Some(len),
            max_dirty_fraction: None,
        }
    }

    /// A pure dirty-fraction policy: compact once resampling since the last
    /// compaction reaches `fraction` of the pool.
    #[must_use]
    pub fn dirty_fraction(fraction: f64) -> Self {
        Self {
            max_log_len: None,
            max_dirty_fraction: Some(fraction),
        }
    }

    /// Whether any threshold is enabled.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.max_log_len.is_some() || self.max_dirty_fraction.is_some()
    }

    /// Whether the thresholds say a state with `log_len` pending deltas and
    /// `resampled_since_compaction` resampled sets over a `pool_size`-set
    /// pool should compact now.
    #[must_use]
    pub fn should_compact(
        &self,
        log_len: usize,
        resampled_since_compaction: u64,
        pool_size: usize,
    ) -> bool {
        if log_len == 0 {
            return false;
        }
        if let Some(max_len) = self.max_log_len {
            if log_len >= max_len {
                return true;
            }
        }
        if let Some(max_fraction) = self.max_dirty_fraction {
            if resampled_since_compaction as f64 >= max_fraction * pool_size as f64 {
                return true;
            }
        }
        false
    }
}

/// The compacted state of a [`DynamicOracle`]: graph, pool and epoch
/// watermark, with no pending log.
///
/// Only obtainable from [`DynamicOracle::snapshot`], so
/// [`DynamicOracle::restore`] is infallible: the parts are consistent by
/// construction (same fixed vertex set, incremental pool, epoch watermark
/// covering every delta ever applied).
#[derive(Debug, Clone)]
pub struct OracleSnapshot {
    epoch: u64,
    graph: InfluenceGraph,
    oracle: InfluenceOracle,
}

impl OracleSnapshot {
    /// The epoch watermark the snapshot was taken at.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The snapshotted influence graph.
    #[must_use]
    pub fn graph(&self) -> &InfluenceGraph {
        &self.graph
    }

    /// The snapshotted RR-set oracle.
    #[must_use]
    pub fn oracle(&self) -> &InfluenceOracle {
        &self.oracle
    }
}

/// An influence oracle kept consistent with an evolving graph.
///
/// Owns the graph in both mutable (edge-list) and materialized (CSR) form,
/// the incrementally maintainable RR-set pool, and the log of every delta
/// applied since the last compaction. All state advances in lock step inside
/// [`DynamicOracle::apply`] / [`DynamicOracle::apply_batch`], so readers
/// holding `&self` always observe a consistent `(graph, pool, epoch)` triple.
///
/// The **epoch** is `snapshot_epoch + pending log length`: compaction moves
/// deltas from the log into the watermark without ever changing the epoch, so
/// epoch-keyed caches remain correct across compactions (a compaction is
/// invisible to queries, by design — it changes where history is stored,
/// never what the graph or the pool is).
///
/// # Example
///
/// ```
/// use im_core::sampler::Backend;
/// use imdyn::{CompactionPolicy, DynamicOracle};
/// use imgraph::{DiGraph, GraphDelta, InfluenceGraph};
///
/// let graph = InfluenceGraph::new(DiGraph::from_edges(3, &[(0, 1), (1, 2)]), vec![0.5, 0.5]);
/// let mut dynamic = DynamicOracle::build(graph, 200, 7, Backend::Sequential)
///     .with_policy(CompactionPolicy::log_len(2));
///
/// // An atomic batch: one CSR patch, one resample per dirty set.
/// let outcome = dynamic
///     .apply_batch(&[
///         GraphDelta::InsertEdge { source: 2, target: 0, probability: 0.5 },
///         GraphDelta::SetProbability { source: 0, target: 1, probability: 1.0 },
///     ])
///     .unwrap();
/// assert_eq!((outcome.epoch, outcome.applied), (2, 2));
///
/// // The policy says the two pending deltas should now be folded away.
/// let compaction = dynamic.maybe_compact().expect("policy threshold reached");
/// assert_eq!((compaction.epoch, compaction.folded), (2, 2));
/// assert_eq!((dynamic.epoch(), dynamic.log().len()), (2, 0));
///
/// // The maintained pool is byte-identical to a from-scratch rebuild, and a
/// // restored snapshot carries the identical state forward.
/// assert!(dynamic.matches_rebuild());
/// let restored = DynamicOracle::restore(dynamic.snapshot());
/// assert_eq!(restored.oracle().to_bytes(), dynamic.oracle().to_bytes());
/// assert_eq!(restored.epoch(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct DynamicOracle {
    mutable: MutableInfluenceGraph,
    graph: InfluenceGraph,
    /// [`lineage::fingerprint`] of `graph`, computed once at assembly and
    /// from then on moved row by row with every applied delta.
    fingerprint: u64,
    oracle: InfluenceOracle,
    log: DeltaLog,
    /// Deltas folded into the base state by compactions (or carried by the
    /// snapshot/artifact this oracle was reassembled from) — the log
    /// watermark the pending `log` counts on top of.
    snapshot_epoch: u64,
    policy: CompactionPolicy,
    stats: MaintenanceStats,
}

impl DynamicOracle {
    /// Build a dynamic oracle over `graph` with a fresh incremental pool.
    ///
    /// # Panics
    ///
    /// Panics if `pool_size == 0` or the graph is empty (the pool build
    /// contract).
    #[must_use]
    pub fn build(
        graph: InfluenceGraph,
        pool_size: usize,
        base_seed: u64,
        backend: Backend,
    ) -> Self {
        let oracle = InfluenceOracle::builder(pool_size)
            .seed(base_seed)
            .backend(backend)
            .incremental()
            .sample(&graph);
        Self::assemble(graph, oracle, DeltaLog::new(), 0)
    }

    /// The one place a dynamic oracle comes into being: derives the mutable
    /// edge list and the lineage fingerprint (one O(n + m) pass each) from
    /// the CSR graph, with a disabled policy and fresh stats.
    fn assemble(
        graph: InfluenceGraph,
        oracle: InfluenceOracle,
        log: DeltaLog,
        snapshot_epoch: u64,
    ) -> Self {
        Self {
            mutable: MutableInfluenceGraph::from_graph(&graph),
            fingerprint: lineage::fingerprint(&graph),
            graph,
            oracle,
            log,
            snapshot_epoch,
            policy: CompactionPolicy::DISABLED,
            stats: MaintenanceStats::default(),
        }
    }

    /// Reassemble a dynamic oracle from persisted parts (graph, pool, log,
    /// snapshot watermark).
    ///
    /// `graph` and `oracle` must already be at the *same* version (the
    /// serving artifact stores the current graph and current pool; the log is
    /// provenance, not a pending queue). `snapshot_epoch` is the number of
    /// deltas already folded away by compactions *before* the given log, so
    /// the reassembled epoch is `snapshot_epoch + log.len()`. The oracle must
    /// carry incremental state (`InfluenceOracle::is_incremental`); reload
    /// paths re-attach it with `attach_incremental(base_seed)` before calling
    /// this.
    pub fn from_parts(
        graph: InfluenceGraph,
        oracle: InfluenceOracle,
        log: DeltaLog,
        snapshot_epoch: u64,
    ) -> Result<Self, String> {
        if !oracle.is_incremental() {
            return Err("oracle pool carries no incremental state (attach_incremental)".into());
        }
        if oracle.num_vertices() != graph.num_vertices() {
            return Err(format!(
                "pool indexes {} vertices but graph has {}",
                oracle.num_vertices(),
                graph.num_vertices()
            ));
        }
        Ok(Self::assemble(graph, oracle, log, snapshot_epoch))
    }

    /// Attach a compaction policy (builder style). The default is
    /// [`CompactionPolicy::DISABLED`].
    #[must_use]
    pub fn with_policy(mut self, policy: CompactionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replace the compaction policy.
    pub fn set_policy(&mut self, policy: CompactionPolicy) {
        self.policy = policy;
    }

    /// The active compaction policy.
    #[must_use]
    pub fn policy(&self) -> &CompactionPolicy {
        &self.policy
    }

    /// Apply one mutation: update the graph, resample exactly the dirty RR
    /// sets, and append to the log. On error nothing changes.
    ///
    /// Structural deltas pay one CSR patch *each*; a stream of them is
    /// cheaper through [`DynamicOracle::apply_batch`], which pays one per
    /// batch.
    pub fn apply(&mut self, delta: GraphDelta) -> Result<ApplyOutcome, DeltaError> {
        let edges_before = self.mutable.num_edges();
        let effect = self.mutable.apply(&delta)?;
        self.patch_graph(edges_before, &[delta], &[effect]);
        let resampled = self
            .oracle
            .apply_delta_batch(&self.graph, std::slice::from_ref(&delta))
            .expect("dynamic oracle state is incremental and dimension-consistent");
        self.log.push(delta);
        self.stats.deltas_applied += 1;
        self.stats.sets_resampled += resampled as u64;
        self.stats.resampled_since_compaction += resampled as u64;
        Ok(ApplyOutcome {
            epoch: self.epoch(),
            resampled,
            structural: effect.structural,
        })
    }

    /// Apply an atomic batch of mutations: the graph advances by the whole
    /// batch or not at all, the CSR is patched in place **once** (adjacency
    /// only if some delta is structural), and the *union* of dirty RR sets
    /// is resampled exactly once per set on the final graph.
    ///
    /// The end state is byte-identical to applying the same deltas one at a
    /// time through [`DynamicOracle::apply`] — and therefore to a
    /// from-scratch rebuild — but a batch of `b` structural deltas pays one
    /// CSR patch instead of `b`, and an RR set dirtied by several deltas of
    /// the batch is resampled once instead of once per delta.
    ///
    /// On error ([`BatchError`] naming the offending delta) nothing changes;
    /// an empty batch is a no-op that does not advance the epoch.
    pub fn apply_batch(&mut self, deltas: &[GraphDelta]) -> Result<BatchOutcome, BatchError> {
        if deltas.is_empty() {
            return Ok(BatchOutcome {
                epoch: self.epoch(),
                applied: 0,
                resampled: 0,
                structural: 0,
                materialized: false,
                resample_micros: 0,
            });
        }
        let edges_before = self.mutable.num_edges();
        let effect = self.mutable.apply_batch(deltas)?;
        let materialized = effect.structural > 0;
        self.patch_graph(edges_before, deltas, &effect.effects);
        let began = Instant::now();
        let resampled = self
            .oracle
            .apply_delta_batch(&self.graph, deltas)
            .expect("dynamic oracle state is incremental and dimension-consistent");
        let resample_micros = began.elapsed().as_micros() as u64;
        for delta in deltas {
            self.log.push(*delta);
        }
        self.stats.deltas_applied += deltas.len() as u64;
        self.stats.batches_applied += 1;
        self.stats.sets_resampled += resampled as u64;
        self.stats.resampled_since_compaction += resampled as u64;
        Ok(BatchOutcome {
            epoch: self.epoch(),
            applied: deltas.len(),
            resampled,
            structural: effect.structural,
            materialized,
            resample_micros,
        })
    }

    /// Bring the CSR graph and its fingerprint to where the mutable edge
    /// list already is, after `deltas` produced `effects` on a graph that
    /// had `edges_before` edges.
    ///
    /// The CSR is patched in place — equal, field for field, to
    /// `self.mutable.materialize()`, the graph a from-scratch rebuild would
    /// see — and the fingerprint moves by the terms of the rows the deltas
    /// name (in-rows of their heads, out-rows of their sources), read before
    /// and after the patch: no other row's content or order changed.
    fn patch_graph(&mut self, edges_before: usize, deltas: &[GraphDelta], effects: &[DeltaEffect]) {
        let distinct = |endpoint: fn(&GraphDelta) -> VertexId| {
            let mut rows: Vec<VertexId> = deltas.iter().map(endpoint).collect();
            rows.sort_unstable();
            rows.dedup();
            rows
        };
        let (heads, sources) = (distinct(GraphDelta::head), distinct(GraphDelta::source));
        let before = lineage::row_terms(&self.graph, &heads, &sources);
        self.graph
            .apply_patch(&CsrPatch::from_effects(edges_before, deltas, effects));
        let after = lineage::row_terms(&self.graph, &heads, &sources);
        self.fingerprint = self.fingerprint.wrapping_sub(before).wrapping_add(after);

        let structural = effects.iter().filter(|e| e.structural).count();
        self.stats.csr_materializations += u64::from(structural > 0);
        self.stats.attribute_patches += (effects.len() - structural) as u64;
    }

    /// Fold the pending log into the base state.
    ///
    /// The graph and pool are already current — maintenance keeps them at the
    /// head version — so compaction is pure bookkeeping: the watermark
    /// advances by the pending log's length and the log empties. The epoch is
    /// **unchanged**, queries are unaffected, and the only observable
    /// difference is that the history before the watermark is no longer
    /// replayable from this oracle (persist the log first if lineage matters).
    ///
    /// Compacting an empty log is a no-op: nothing folds and the
    /// `compactions` counter does not move, so operators polling the counter
    /// only ever see compactions that did work.
    pub fn compact(&mut self) -> CompactionOutcome {
        let folded = self.log.len();
        if folded > 0 {
            self.snapshot_epoch += folded as u64;
            self.log = DeltaLog::new();
            self.stats.compactions += 1;
            self.stats.resampled_since_compaction = 0;
        }
        CompactionOutcome {
            epoch: self.epoch(),
            folded,
        }
    }

    /// Whether the active [`CompactionPolicy`] says to compact now.
    #[must_use]
    pub fn should_compact(&self) -> bool {
        self.policy.should_compact(
            self.log.len(),
            self.stats.resampled_since_compaction,
            self.pool_size(),
        )
    }

    /// Compact iff the active policy's thresholds are reached
    /// ([`DynamicOracle::should_compact`]); the mutation paths' auto-trigger.
    pub fn maybe_compact(&mut self) -> Option<CompactionOutcome> {
        self.should_compact().then(|| self.compact())
    }

    /// Snapshot the compacted state (graph, pool, epoch watermark).
    ///
    /// The snapshot carries no pending log: it represents the state *as if*
    /// compacted at the current epoch, whether or not [`DynamicOracle::compact`]
    /// has run. Restoring it ([`DynamicOracle::restore`]) yields an oracle
    /// that answers byte-identically to this one.
    #[must_use]
    pub fn snapshot(&self) -> OracleSnapshot {
        OracleSnapshot {
            epoch: self.epoch(),
            graph: self.graph.clone(),
            oracle: self.oracle.clone(),
        }
    }

    /// Rebuild a dynamic oracle from a snapshot: same graph, same pool, same
    /// epoch, empty pending log, fresh stats, policy disabled.
    #[must_use]
    pub fn restore(snapshot: OracleSnapshot) -> Self {
        let OracleSnapshot {
            epoch,
            graph,
            oracle,
        } = snapshot;
        Self::assemble(graph, oracle, DeltaLog::new(), epoch)
    }

    /// The engine epoch: the number of deltas ever applied — those folded
    /// behind the snapshot watermark plus the pending log.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.snapshot_epoch + self.log.len() as u64
    }

    /// The snapshot watermark: deltas folded away by compactions (or carried
    /// by the artifact this oracle was reassembled from). Equivalently, the
    /// epoch of the last compaction — `0` if none ever ran.
    #[must_use]
    pub fn snapshot_epoch(&self) -> u64 {
        self.snapshot_epoch
    }

    /// The pool's position in the epoch timeline as one comparable value —
    /// the unit a sharded deployment uses to verify its shards stayed in
    /// lockstep (see [`EpochReport`]).
    #[must_use]
    pub fn epoch_report(&self) -> EpochReport {
        EpochReport {
            epoch: self.epoch(),
            snapshot_epoch: self.snapshot_epoch,
            log_len: self.log.len(),
        }
    }

    /// The influence graph at the current epoch.
    #[must_use]
    pub fn graph(&self) -> &InfluenceGraph {
        &self.graph
    }

    /// The lineage fingerprint ([`imgraph::lineage::fingerprint`]) of the
    /// graph at the current epoch, O(1): WAL records, replicated records and
    /// hot-swapped artifacts are checked against it.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The mutable edge-list view of the graph at the current epoch.
    #[must_use]
    pub fn mutable_graph(&self) -> &MutableInfluenceGraph {
        &self.mutable
    }

    /// The maintained RR-set oracle at the current epoch.
    #[must_use]
    pub fn oracle(&self) -> &InfluenceOracle {
        &self.oracle
    }

    /// Re-layout the maintained pool in place (raw ⇄ compressed ⇄ tiered).
    ///
    /// A pure storage change: epoch, pending log, incremental state and every
    /// answer — including the byte-identical-rebuild contract — are
    /// unaffected. The cross-layout equivalence proptest pins this by
    /// maintaining one oracle per layout through identical mutation batches.
    pub fn convert_pool_layout(&mut self, layout: im_core::PoolLayout) {
        self.oracle.convert_layout(layout);
    }

    /// The pending log: every delta applied since the last compaction (or
    /// since the artifact this oracle was reassembled from was written), in
    /// application order.
    #[must_use]
    pub fn log(&self) -> &DeltaLog {
        &self.log
    }

    /// Maintenance counters.
    #[must_use]
    pub fn stats(&self) -> &MaintenanceStats {
        &self.stats
    }

    /// The base seed the pool's per-set streams derive from.
    #[must_use]
    pub fn base_seed(&self) -> u64 {
        self.oracle
            .incremental_base_seed()
            .expect("dynamic oracle pools are always incremental")
    }

    /// Number of RR sets in the maintained pool.
    #[must_use]
    pub fn pool_size(&self) -> usize {
        self.oracle.pool_size()
    }

    /// Build the reference pool: a from-scratch incremental build on the
    /// current graph at the same seed (and, for a pool shard, the same
    /// global stream offset). This is the right-hand side of the crate's
    /// correctness contract (and costs a full resample — use it for
    /// verification, not serving).
    #[must_use]
    pub fn rebuild_from_scratch(&self) -> InfluenceOracle {
        InfluenceOracle::builder(self.pool_size())
            .seed(self.base_seed())
            .backend(Backend::Sequential)
            .shard_offset(self.oracle.set_id_offset().unwrap_or(0))
            .sample(&self.graph)
    }

    /// Verify the correctness contract: the maintained pool serializes to
    /// exactly the bytes a from-scratch rebuild produces.
    #[must_use]
    pub fn matches_rebuild(&self) -> bool {
        self.oracle.to_bytes() == self.rebuild_from_scratch().to_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imgraph::DiGraph;

    fn star(prob: f64) -> InfluenceGraph {
        let edges: Vec<_> = (1..5u32).map(|v| (0, v)).collect();
        InfluenceGraph::new(DiGraph::from_edges(5, &edges), vec![prob; 4])
    }

    #[test]
    fn apply_advances_epoch_log_and_stats() {
        let mut dynamic = DynamicOracle::build(star(0.5), 1_000, 7, Backend::Sequential);
        assert_eq!(dynamic.epoch(), 0);
        assert_eq!(dynamic.base_seed(), 7);
        assert_eq!(dynamic.pool_size(), 1_000);

        let outcome = dynamic
            .apply(GraphDelta::InsertEdge {
                source: 3,
                target: 4,
                probability: 0.5,
            })
            .unwrap();
        assert_eq!(outcome.epoch, 1);
        assert!(outcome.structural);
        let outcome = dynamic
            .apply(GraphDelta::SetProbability {
                source: 0,
                target: 2,
                probability: 1.0,
            })
            .unwrap();
        assert!(!outcome.structural);
        assert_eq!(dynamic.epoch(), 2);
        assert_eq!(dynamic.log().len(), 2);
        assert_eq!(dynamic.stats().deltas_applied, 2);
        assert_eq!(dynamic.stats().attribute_patches, 1);
        assert_eq!(dynamic.graph().num_edges(), 5);
        assert!(dynamic.matches_rebuild());
    }

    #[test]
    fn failed_deltas_change_nothing() {
        let mut dynamic = DynamicOracle::build(star(0.5), 500, 3, Backend::Sequential);
        let bytes_before = dynamic.oracle().to_bytes();
        let err = dynamic.apply(GraphDelta::DeleteEdge {
            source: 4,
            target: 0,
        });
        assert!(err.is_err());
        assert_eq!(dynamic.epoch(), 0);
        assert_eq!(dynamic.oracle().to_bytes(), bytes_before);
        assert_eq!(dynamic.stats(), &MaintenanceStats::default());
        // Failed batches are all-or-nothing: a valid delta ahead of an
        // invalid one must not survive.
        let err = dynamic.apply_batch(&[
            GraphDelta::SetProbability {
                source: 0,
                target: 1,
                probability: 1.0,
            },
            GraphDelta::DeleteEdge {
                source: 4,
                target: 0,
            },
        ]);
        assert_eq!(err.unwrap_err().index, 1);
        assert_eq!(dynamic.epoch(), 0);
        assert_eq!(dynamic.oracle().to_bytes(), bytes_before);
        assert_eq!(dynamic.graph().probability(0), 0.5);
        assert_eq!(dynamic.stats(), &MaintenanceStats::default());
    }

    #[test]
    fn apply_batch_matches_per_delta_application_and_rebuild() {
        let deltas = [
            GraphDelta::InsertEdge {
                source: 3,
                target: 4,
                probability: 0.5,
            },
            GraphDelta::SetProbability {
                source: 0,
                target: 2,
                probability: 1.0,
            },
            GraphDelta::DeleteEdge {
                source: 0,
                target: 1,
            },
        ];
        let mut batched = DynamicOracle::build(star(0.5), 1_000, 7, Backend::Sequential);
        let mut per_delta = batched.clone();
        let outcome = batched.apply_batch(&deltas).unwrap();
        assert_eq!(outcome.epoch, 3);
        assert_eq!(outcome.applied, 3);
        assert_eq!(outcome.structural, 2);
        assert!(outcome.materialized);
        for delta in &deltas {
            per_delta.apply(*delta).unwrap();
        }
        assert_eq!(batched.oracle().to_bytes(), per_delta.oracle().to_bytes());
        assert_eq!(
            imgraph::binio::influence_graph_to_bytes(batched.graph()),
            imgraph::binio::influence_graph_to_bytes(per_delta.graph())
        );
        assert_eq!(batched.epoch(), per_delta.epoch());
        assert!(batched.matches_rebuild());
        // One CSR patch for the batch versus one per structural delta.
        assert_eq!(batched.stats().csr_materializations, 1);
        assert_eq!(per_delta.stats().csr_materializations, 2);
        assert_eq!(batched.stats().batches_applied, 1);
        // The dirty union never exceeds the per-delta resample total.
        assert!(batched.stats().sets_resampled <= per_delta.stats().sets_resampled);

        // Attribute-only batches leave the adjacency alone.
        let before = batched.stats().csr_materializations;
        let outcome = batched
            .apply_batch(&[
                GraphDelta::SetProbability {
                    source: 0,
                    target: 2,
                    probability: 0.5,
                },
                GraphDelta::SetProbability {
                    source: 0,
                    target: 3,
                    probability: 1.0,
                },
            ])
            .unwrap();
        assert!(!outcome.materialized);
        assert_eq!(batched.stats().csr_materializations, before);
        assert!(batched.matches_rebuild());

        // The empty batch is a no-op.
        let epoch = batched.epoch();
        let outcome = batched.apply_batch(&[]).unwrap();
        assert_eq!(outcome.applied, 0);
        assert_eq!(batched.epoch(), epoch);
    }

    #[test]
    fn compaction_folds_the_log_without_moving_the_epoch() {
        let mut dynamic = DynamicOracle::build(star(0.5), 400, 11, Backend::Sequential)
            .with_policy(CompactionPolicy::log_len(3));
        assert!(dynamic.policy().is_enabled());
        let deltas = [
            GraphDelta::SetProbability {
                source: 0,
                target: 1,
                probability: 1.0,
            },
            GraphDelta::InsertEdge {
                source: 1,
                target: 2,
                probability: 0.5,
            },
        ];
        dynamic.apply_batch(&deltas).unwrap();
        assert!(!dynamic.should_compact(), "threshold is 3, log holds 2");
        assert!(dynamic.maybe_compact().is_none());

        let pre_compaction = dynamic.oracle().to_bytes();
        dynamic
            .apply(GraphDelta::DeleteEdge {
                source: 0,
                target: 1,
            })
            .unwrap();
        assert!(dynamic.should_compact());
        let outcome = dynamic.maybe_compact().expect("threshold reached");
        assert_eq!(outcome.folded, 3);
        assert_eq!(outcome.epoch, 3);
        assert_eq!(dynamic.epoch(), 3, "compaction never moves the epoch");
        assert_eq!(dynamic.snapshot_epoch(), 3);
        assert!(dynamic.log().is_empty());
        assert_eq!(dynamic.stats().compactions, 1);
        assert_eq!(dynamic.stats().resampled_since_compaction, 0);
        assert!(
            dynamic.matches_rebuild(),
            "state is untouched by compaction"
        );
        drop(pre_compaction);

        // Compacting an already-empty log is a counted-nowhere no-op.
        let outcome = dynamic.compact();
        assert_eq!(outcome.folded, 0);
        assert_eq!(outcome.epoch, 3);
        assert_eq!(
            dynamic.stats().compactions,
            1,
            "no-op folds are not counted"
        );

        // Later mutations keep counting from the watermark.
        dynamic
            .apply(GraphDelta::InsertEdge {
                source: 2,
                target: 0,
                probability: 0.25,
            })
            .unwrap();
        assert_eq!(dynamic.epoch(), 4);
        assert_eq!(dynamic.log().len(), 1);
    }

    #[test]
    fn dirty_fraction_policies_trigger_on_resampled_work() {
        let policy = CompactionPolicy::dirty_fraction(0.5);
        assert!(
            !policy.should_compact(0, 1_000, 100),
            "empty log never compacts"
        );
        assert!(!policy.should_compact(5, 49, 100));
        assert!(policy.should_compact(5, 50, 100));
        assert!(!CompactionPolicy::DISABLED.should_compact(1_000, u64::MAX, 1));
        assert!(!CompactionPolicy::default().is_enabled());
    }

    #[test]
    fn snapshot_restore_round_trips_the_compacted_state() {
        let mut dynamic = DynamicOracle::build(star(0.5), 600, 13, Backend::Sequential);
        dynamic
            .apply_batch(&[
                GraphDelta::InsertEdge {
                    source: 4,
                    target: 1,
                    probability: 0.5,
                },
                GraphDelta::DeleteEdge {
                    source: 0,
                    target: 2,
                },
            ])
            .unwrap();
        let snapshot = dynamic.snapshot();
        assert_eq!(snapshot.epoch(), 2);
        assert_eq!(
            imgraph::binio::influence_graph_to_bytes(snapshot.graph()),
            imgraph::binio::influence_graph_to_bytes(dynamic.graph())
        );
        assert_eq!(snapshot.oracle().to_bytes(), dynamic.oracle().to_bytes());

        let mut restored = DynamicOracle::restore(snapshot);
        assert_eq!(restored.epoch(), 2);
        assert_eq!(restored.snapshot_epoch(), 2);
        assert!(restored.log().is_empty());
        assert_eq!(restored.oracle().to_bytes(), dynamic.oracle().to_bytes());
        assert!(restored.matches_rebuild());

        // The restored oracle keeps evolving equivalently to the original.
        let next = GraphDelta::SetProbability {
            source: 4,
            target: 1,
            probability: 1.0,
        };
        dynamic.apply(next).unwrap();
        restored.apply(next).unwrap();
        assert_eq!(restored.oracle().to_bytes(), dynamic.oracle().to_bytes());
        assert_eq!(restored.epoch(), dynamic.epoch());
    }

    #[test]
    fn from_parts_requires_incremental_state_and_matching_dimensions() {
        let graph = star(0.5);
        let plain = InfluenceOracle::builder(100)
            .seed(1)
            .backend(Backend::Sequential)
            .sample(&graph);
        assert!(
            DynamicOracle::from_parts(graph.clone(), plain.clone(), DeltaLog::new(), 0).is_err()
        );

        let mut attached = plain;
        attached.attach_incremental(1, 0);
        let dynamic =
            DynamicOracle::from_parts(graph.clone(), attached.clone(), DeltaLog::new(), 0)
                .expect("incremental state attached");
        assert_eq!(dynamic.epoch(), 0);

        let other = {
            let edges: Vec<_> = (1..3u32).map(|v| (0, v)).collect();
            InfluenceGraph::new(DiGraph::from_edges(3, &edges), vec![0.5; 2])
        };
        assert!(DynamicOracle::from_parts(other, attached, DeltaLog::new(), 0).is_err());
    }

    #[test]
    fn epoch_counts_reassembled_logs() {
        let graph = star(0.5);
        let mut dynamic = DynamicOracle::build(graph, 200, 9, Backend::Sequential);
        dynamic
            .apply(GraphDelta::DeleteEdge {
                source: 0,
                target: 1,
            })
            .unwrap();
        let reassembled = DynamicOracle::from_parts(
            dynamic.graph().clone(),
            dynamic.oracle().clone(),
            dynamic.log().clone(),
            0,
        )
        .unwrap();
        assert_eq!(reassembled.epoch(), 1);
        assert!(reassembled.matches_rebuild());

        // A compacted server persists (graph, pool, empty log, watermark):
        // the reassembled epoch honours the watermark.
        let compacted = DynamicOracle::from_parts(
            dynamic.graph().clone(),
            dynamic.oracle().clone(),
            DeltaLog::new(),
            1,
        )
        .unwrap();
        assert_eq!(compacted.epoch(), 1);
        assert_eq!(compacted.snapshot_epoch(), 1);
        assert!(compacted.matches_rebuild());
    }
}
