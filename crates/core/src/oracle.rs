//! The reusable influence oracle (Section 5.2).
//!
//! The exact influence spread is ♯P-hard to compute, so the paper evaluates
//! the quality of every returned seed set with a single, *shared* estimator:
//! a pool of 10⁷ RR sets per influence graph, reused across all runs of all
//! algorithms so that identical seed sets always receive the identical
//! estimate. The 99 % confidence half-width of the oracle for a true spread of
//! `Inf(S)` is `1.29·n/√pool` (each RR set intersecting `S` is a Bernoulli
//! trial with success probability `Inf(S)/n`).

use imgraph::{GraphDelta, InfluenceGraph, VertexId};
use impool::{ListRef, Pool, PoolLayout, TieredConfig};
use imrand::Rng32;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::ris::RrScratch;
use crate::sampler::{self, Backend, SampleBudget};
use crate::seed_set::SeedSet;

/// Refuse an empty pool or graph: no query can be answered from either.
fn check_nonempty(pool_size: usize, num_vertices: usize) -> Result<(), String> {
    if pool_size == 0 {
        return Err("oracle needs a non-empty RR-set pool".into());
    }
    if num_vertices == 0 {
        return Err("oracle needs a non-empty graph".into());
    }
    Ok(())
}

/// A shared, read-only influence estimator backed by a pool of RR sets.
///
/// The physical pool layout is delegated to an [`impool::Pool`] store: the
/// per-vertex posting lists (and, for incrementally maintainable pools, the
/// per-set traces) may live uncompressed in RAM, delta-varint compressed, or
/// tiered to a cold index file — every query path scans through the store
/// and returns identical results in identical order regardless of layout.
/// Every oracle is built by [`OracleBuilder`] or decoded by
/// [`InfluenceOracle::from_pcmp_payload`], through one private constructor.
#[derive(Debug, Clone)]
pub struct InfluenceOracle {
    /// The pool store: posting lists (vertex → RR-set ids, increasing) plus,
    /// for incremental pools, the inverse traces.
    pool: Pool,
    /// Present iff the pool was drawn with per-set PRNG streams
    /// ([`OracleBuilder::incremental`]), which is what makes
    /// [`InfluenceOracle::apply_delta_batch`] possible.
    incremental: Option<IncrementalState>,
    // Interior mutability is deliberately avoided: `estimate` takes `&self`
    // and allocates per call, which is fine for the experiment harness. The
    // serving hot path passes an explicit [`EstimateScratch`] to
    // `estimate_with` instead, keeping `&self` queries shareable across
    // threads with zero per-query allocation.
}

/// The extra state an incrementally maintainable pool carries: the base seed
/// its per-set PRNG streams derive from and the pool's offset into the
/// global set-id space (zero for a whole pool, the shard's start for a pool
/// shard). The per-set traces themselves live in the pool store, inverse to
/// the posting lists, so a mutation can locate and unindex exactly the sets
/// it dirties in any layout.
#[derive(Debug, Clone, Copy)]
struct IncrementalState {
    base_seed: u64,
    set_id_offset: u64,
}

/// One shard's slice of a global RR-set pool: `len` sets whose PRNG streams
/// derive from global set ids `offset..offset + len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRange {
    /// The shard's first global set id (its stream offset).
    pub offset: u64,
    /// RR sets in the shard.
    pub len: usize,
}

/// Split a global pool of `global_pool` RR sets into `shards` contiguous
/// shards, as balanced as possible (the first `global_pool % shards` shards
/// get one extra set). Because every set's PRNG stream derives from its
/// *global* id, the concatenation of the shard pools is byte-identical to
/// the single pool drawn at the same seed — the shard-union invariant the
/// sharded serving layer relies on.
///
/// # Panics
///
/// Panics if `shards == 0` or `global_pool < shards` (an empty shard could
/// never answer a query).
#[must_use]
pub fn shard_layout(global_pool: usize, shards: usize) -> Vec<ShardRange> {
    assert!(shards > 0, "at least one shard");
    assert!(
        global_pool >= shards,
        "global pool of {global_pool} cannot feed {shards} non-empty shards"
    );
    let base = global_pool / shards;
    let extra = global_pool % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut offset = 0u64;
    for i in 0..shards {
        let len = base + usize::from(i < extra);
        ranges.push(ShardRange { offset, len });
        offset += len as u64;
    }
    ranges
}

/// The one construction path for [`InfluenceOracle`] pools:
///
/// * [`OracleBuilder::sample`] draws the pool from seeded batch streams —
///   per-batch streams by default, one stream *per RR set* with
///   [`OracleBuilder::incremental`] (the discipline that makes
///   [`InfluenceOracle::apply_delta_batch`] exact), optionally offset into a
///   global set-id space with [`OracleBuilder::shard_offset`] so N shard
///   pools union byte-identically into one pool;
/// * [`OracleBuilder::sample_with_rng`] is the paper-faithful sequential
///   path drawing every set from one caller-supplied stream;
/// * [`OracleBuilder::assemble`] is the no-sampling import half of the
///   persistence layer (posting lists in, validated oracle out).
///
/// Each makes its pool once, raw, every list at exact capacity; store it
/// compressed or tiered with [`InfluenceOracle::convert_layout`].
///
/// ```
/// use im_core::sampler::Backend;
/// use im_core::InfluenceOracle;
/// use imgraph::{DiGraph, InfluenceGraph};
///
/// let ig = InfluenceGraph::new(DiGraph::from_edges(3, &[(0, 1), (1, 2)]), vec![0.5; 2]);
/// let oracle = InfluenceOracle::builder(1_000)
///     .seed(7)
///     .backend(Backend::Sequential)
///     .incremental()
///     .sample(&ig);
/// assert!(oracle.is_incremental());
/// ```
#[derive(Debug, Clone)]
pub struct OracleBuilder {
    pool_size: usize,
    base_seed: u64,
    backend: Backend,
    incremental: bool,
    set_id_offset: u64,
}

impl OracleBuilder {
    /// Seed of the derived PRNG streams (default `0`).
    #[must_use]
    pub fn seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Execution backend for the sampling loop (default sequential). The
    /// backend only changes *where* sets are drawn, never what is drawn.
    #[must_use]
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Draw every RR set from its **own** PRNG stream (seeded by running the
    /// base seed and the set's global id through SplitMix64) instead of
    /// per-batch streams. Per-set streams are what make
    /// [`InfluenceOracle::apply_delta_batch`] exact rather than approximate:
    /// regenerating set `i` in isolation replays precisely the draws a
    /// from-scratch rebuild at the same version would feed it.
    #[must_use]
    pub fn incremental(mut self) -> Self {
        self.incremental = true;
        self
    }

    /// Build this pool as a **shard** of a larger global pool: the local
    /// sets' PRNG streams derive from global ids `offset..offset + pool`,
    /// so shards produced from one [`shard_layout`] union byte-identically
    /// into the single pool drawn at the same seed. Implies
    /// [`OracleBuilder::incremental`] (a shard must stay maintainable under
    /// the same broadcast mutations as its siblings).
    #[must_use]
    pub fn shard_offset(mut self, offset: u64) -> Self {
        self.set_id_offset = offset;
        self.incremental = true;
        self
    }

    fn check_dimensions(&self, graph: &InfluenceGraph) -> usize {
        let n = graph.num_vertices();
        check_nonempty(self.pool_size, n).unwrap_or_else(|e| panic!("{e}"));
        assert!(
            self.set_id_offset as u128 + self.pool_size as u128 <= u128::from(u32::MAX),
            "pool size exceeds u32 set ids"
        );
        n
    }

    /// Draw the pool from the builder's seeded streams.
    ///
    /// # Panics
    ///
    /// Panics if the pool is empty, the graph is empty, or the (offset) pool
    /// exceeds `u32` set ids.
    #[must_use]
    pub fn sample(&self, graph: &InfluenceGraph) -> InfluenceOracle {
        let n = self.check_dimensions(graph);
        let (base_seed, offset) = (self.base_seed, self.set_id_offset);
        // Workers draw each batch's member lists into one flat buffer
        // (`ends[i]` closes the batch's set `i`): two allocations per batch,
        // not one per set, and all of them freed once the pool's own lists
        // are built from them, in set order, on the calling thread.
        let batches = sampler::run_batches(
            &SampleBudget::new(self.pool_size as u64),
            base_seed,
            self.backend,
            || RrScratch::for_graph(graph),
            |scratch, batch, batch_rng| {
                let mut members = Vec::new();
                let mut ends = Vec::with_capacity(batch.len as usize);
                for set_id in batch.start..batch.start + batch.len {
                    let rr = if self.incremental {
                        // Ignore the batch stream: every set derives its own,
                        // keyed by its *global* id.
                        scratch.generate(graph, &mut sampler::batch_rng(base_seed, offset + set_id))
                    } else {
                        scratch.generate(graph, batch_rng)
                    };
                    members.extend_from_slice(&rr.vertices);
                    ends.push(members.len() as u32);
                }
                (members, ends)
            },
        );
        let sets = || {
            batches.iter().flat_map(|(members, ends)| {
                ends.iter().scan(0, |start, &end| {
                    let set = &members[*start..end as usize];
                    *start = end as usize;
                    Some(set)
                })
            })
        };
        // Posting lists sized exactly by a counting pass, so there is no
        // growth slack to trim later.
        let mut lens = vec![0u32; n];
        for &v in sets().flatten() {
            lens[v as usize] += 1;
        }
        let mut vertex_to_sets: Vec<Vec<u32>> = lens
            .into_iter()
            .map(|len| Vec::with_capacity(len as usize))
            .collect();
        for (set_id, vertices) in sets().enumerate() {
            for &v in vertices {
                vertex_to_sets[v as usize].push(set_id as u32);
            }
        }
        // An incremental pool keeps each set's members as its trace, sorted:
        // the canonical form posting-list inversion also produces (see
        // `attach_incremental`).
        let traces = self.incremental.then(|| {
            sets()
                .map(|members| {
                    let mut trace = members.to_vec();
                    trace.sort_unstable();
                    trace
                })
                .collect()
        });
        drop(batches);
        let incremental = self.incremental.then_some(IncrementalState {
            base_seed,
            set_id_offset: offset,
        });
        InfluenceOracle::new(
            Pool::raw(n, self.pool_size, vertex_to_sets, traces),
            incremental,
        )
    }

    /// Draw the pool sequentially from one caller-supplied stream (the
    /// paper-faithful discipline of the original experiments). Incompatible
    /// with [`OracleBuilder::incremental`] / [`OracleBuilder::shard_offset`]
    /// — a caller-owned stream cannot be replayed per set.
    ///
    /// # Panics
    ///
    /// Panics on empty pools/graphs or if the builder requested per-set
    /// streams.
    #[must_use]
    pub fn sample_with_rng<R: Rng32>(
        &self,
        graph: &InfluenceGraph,
        rng: &mut R,
    ) -> InfluenceOracle {
        assert!(
            !self.incremental && self.set_id_offset == 0,
            "per-set streams need a seeded build; use OracleBuilder::sample"
        );
        let n = self.check_dimensions(graph);
        // Stream discipline over the shared RR-set scratch; posting lists are
        // filled as sets are drawn so the member lists are never all held at
        // once (pools go up to 10⁷ sets). The raw pool trims their growth
        // slack in place.
        let mut vertex_to_sets: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut scratch = RrScratch::for_graph(graph);
        sampler::fold_stream(self.pool_size as u64, rng, (), |(), set_id, rng| {
            for &v in &scratch.generate(graph, rng).vertices {
                vertex_to_sets[v as usize].push(set_id as u32);
            }
        });
        InfluenceOracle::new(Pool::raw(n, self.pool_size, vertex_to_sets, None), None)
    }

    /// Assemble an oracle from caller-supplied posting lists (no traces, so
    /// not incremental until [`InfluenceOracle::attach_incremental`]).
    /// Validates the invariants the query paths rely on and constructs the
    /// oracle **without any sampling**: no graph and no random generator are
    /// involved. Persisted pools load through
    /// [`InfluenceOracle::from_pcmp_payload`] instead.
    ///
    /// Invariants checked: the builder's pool is non-empty, at least one
    /// vertex, every set id `< pool_size`, and every posting list strictly
    /// increasing (the order the builders produce; `estimate` relies on it
    /// for dedup-by-merge).
    pub fn assemble(
        &self,
        num_vertices: usize,
        vertex_to_sets: Vec<Vec<u32>>,
    ) -> Result<InfluenceOracle, String> {
        let pool_size = self.pool_size;
        check_nonempty(pool_size, num_vertices)?;
        if vertex_to_sets.len() != num_vertices {
            return Err(format!(
                "{} posting lists for {num_vertices} vertices",
                vertex_to_sets.len()
            ));
        }
        for (v, list) in vertex_to_sets.iter().enumerate() {
            let mut prev: Option<u32> = None;
            for &id in list {
                if id as usize >= pool_size {
                    return Err(format!(
                        "vertex {v} references RR set {id} outside pool of {pool_size}"
                    ));
                }
                if let Some(p) = prev {
                    if id <= p {
                        return Err(format!(
                            "posting list of vertex {v} is not strictly increasing"
                        ));
                    }
                }
                prev = Some(id);
            }
        }
        let pool = Pool::raw(num_vertices, pool_size, vertex_to_sets, None);
        Ok(InfluenceOracle::new(pool, None))
    }
}

/// Reusable per-caller scratch for [`InfluenceOracle::estimate_with`].
///
/// Holds one epoch mark per pool RR set; bumping the epoch invalidates all
/// marks in O(1), so repeated estimates perform no allocation and no clearing
/// pass. Each worker thread owns its own scratch (the oracle itself stays
/// immutable and shareable behind an `Arc`).
#[derive(Debug, Clone)]
pub struct EstimateScratch {
    marks: Vec<u32>,
    epoch: u32,
}

impl EstimateScratch {
    /// Scratch sized for `oracle`'s pool.
    #[must_use]
    pub fn for_oracle(oracle: &InfluenceOracle) -> Self {
        Self {
            marks: vec![0u32; oracle.pool_size()],
            epoch: 0,
        }
    }

    /// Advance to a fresh epoch, resetting marks when the counter wraps.
    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.marks.iter_mut().for_each(|m| *m = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }
}

impl InfluenceOracle {
    /// Start building a pool of `pool_size` RR sets — the single entry point
    /// for every construction path (seeded batch sampling, per-set
    /// incremental streams, pool shards, caller-supplied streams, and
    /// no-sampling reassembly from exported parts).
    ///
    /// The paper uses 10⁷ sets; the experiment harness scales the pool with
    /// the graph size so the oracle's confidence interval stays well below
    /// the 5 % near-optimality margin it is used to judge.
    #[must_use]
    pub fn builder(pool_size: usize) -> OracleBuilder {
        OracleBuilder {
            pool_size,
            base_seed: 0,
            backend: Backend::Sequential,
            incremental: false,
            set_id_offset: 0,
        }
    }

    /// The one constructor: every sampled, assembled and decoded oracle
    /// ends here, with its pool already in its final layout.
    fn new(pool: Pool, incremental: Option<IncrementalState>) -> Self {
        InfluenceOracle { pool, incremental }
    }

    /// Decode a `PCMP` pool payload ([`impool::decode_pcmp_payload`]) into an
    /// oracle whose pool has the layout the payload was stamped with, and
    /// return that layout. The only pool decoder: the decoder validates every
    /// list eagerly (strictly increasing, every id inside the pool), and the
    /// signature is the no-resampling guarantee (no graph, no generator,
    /// only bytes).
    pub fn from_pcmp_payload(payload: &[u8]) -> Result<(Self, PoolLayout), String> {
        let (packed, hint) = impool::decode_pcmp_payload(payload).map_err(|e| e.to_string())?;
        let mut pool = Pool::Compressed(packed);
        check_nonempty(pool.pool_size(), pool.num_vertices())?;
        pool.set_layout(hint);
        Ok((Self::new(pool, None), hint))
    }

    /// The pool store behind this oracle.
    #[must_use]
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// The physical layout of the pool store.
    #[must_use]
    pub fn pool_layout(&self) -> PoolLayout {
        self.pool.layout()
    }

    /// Bytes of process memory the pool store keeps resident (see
    /// [`impool::Pool::resident_bytes`]).
    #[must_use]
    pub fn pool_resident_bytes(&self) -> usize {
        self.pool.resident_bytes()
    }

    /// Convert the pool store to another layout in place. Purely physical:
    /// every query (and [`InfluenceOracle::to_bytes`]) answers identically
    /// before and after.
    pub fn convert_layout(&mut self, layout: PoolLayout) {
        self.pool.set_layout(layout);
    }

    /// Encode the pool as a `PCMP` index-section payload (any layout; see
    /// [`impool::decode_pcmp_payload`]).
    #[must_use]
    pub fn encode_pcmp_payload(&self, hint: PoolLayout) -> Vec<u8> {
        self.pool.encode_pcmp_payload(hint)
    }

    /// Demote a tiered pool's data regions to the cold backing `file` (the
    /// index artifact whose `PCMP` payload starts at `payload_offset`).
    /// No-op for raw/compressed pools.
    pub fn attach_cold_pool_file(
        &mut self,
        file: std::sync::Arc<std::fs::File>,
        payload_offset: u64,
        config: TieredConfig,
    ) {
        self.pool.attach_cold_file(file, payload_offset, config);
    }

    /// Whether this pool carries the per-set state needed by
    /// [`InfluenceOracle::apply_delta_batch`].
    #[must_use]
    pub fn is_incremental(&self) -> bool {
        self.incremental.is_some()
    }

    /// The base seed of an incrementally maintainable pool.
    #[must_use]
    pub fn incremental_base_seed(&self) -> Option<u64> {
        self.incremental.as_ref().map(|s| s.base_seed)
    }

    /// The pool's offset into the global set-id space: zero for a whole
    /// pool, the shard's first global set id for a pool shard built with
    /// [`OracleBuilder::shard_offset`]. `None` for non-incremental pools.
    #[must_use]
    pub fn set_id_offset(&self) -> Option<u64> {
        self.incremental.as_ref().map(|s| s.set_id_offset)
    }

    /// The sorted member trace of one RR set of an incremental pool
    /// (materialized from the pool store, whatever its layout).
    #[must_use]
    pub fn trace(&self, set_id: u32) -> Option<Vec<VertexId>> {
        if self.incremental.is_none()
            || !self.pool.has_traces()
            || set_id as usize >= self.pool_size()
        {
            return None;
        }
        Some(self.pool.trace(set_id))
    }

    /// Re-attach incremental state to a pool that was reloaded from bytes.
    ///
    /// The per-set traces are derivable from the posting lists (they are each
    /// other's inverse). A `PCMP` payload of an incremental pool carries them;
    /// for a pool without them (one [`OracleBuilder::assemble`]d from posting
    /// lists) this inverts the posting lists in `O(Σ|R|)`. Either way it
    /// records `base_seed` as the stream derivation root and `set_id_offset`
    /// as the pool's position in the global set-id space (zero for a whole
    /// pool, the shard's start for a shard pool). The caller asserts — typically via artifact metadata —
    /// that both match the values the pool was originally drawn with and
    /// that the pool was built with per-set streams
    /// ([`OracleBuilder::incremental`]); with a wrong seed or offset, later
    /// [`InfluenceOracle::apply_delta_batch`] calls would resample dirty sets from
    /// streams a rebuild would not use.
    pub fn attach_incremental(&mut self, base_seed: u64, set_id_offset: u64) {
        // Iterating vertices in increasing order yields sorted traces — the
        // same canonical form the incremental builder stores. The inversion
        // runs inside the pool store (and is a no-op for stores that already
        // carry traces, e.g. a decoded PCMP section with both directions).
        self.pool.build_traces();
        self.incremental = Some(IncrementalState {
            base_seed,
            set_id_offset,
        });
    }

    /// Incrementally maintain the pool under an atomic **batch** of graph
    /// mutations, resampling every affected RR set **exactly once**.
    ///
    /// `graph_after` must be the influence graph with the *whole batch*
    /// already applied (same fixed vertex set). The dirty set is the union of
    /// the current posting lists of every delta's head vertex: an RR set
    /// containing none of the heads replays, draw for draw, the identical
    /// traversal on the fully mutated graph (the reverse BFS only examines
    /// in-edges of in-set vertices, and only the heads' in-edge lists
    /// changed), while a set containing any head is regenerated from its own
    /// derived stream exactly as a from-scratch rebuild at the final version
    /// would. The result is therefore **byte-identical** (via
    /// [`InfluenceOracle::to_bytes`]) both to a from-scratch incremental
    /// build on `graph_after` and to applying the same deltas one at a time
    /// as one-element batches — but a set dirtied by `k` deltas of the batch
    /// is resampled once, not `k` times.
    ///
    /// Returns the number of RR sets resampled (the union's size). Errors
    /// (non-incremental pool, mismatched graph, out-of-range head) leave the
    /// oracle untouched; an empty batch is a no-op.
    pub fn apply_delta_batch(
        &mut self,
        graph_after: &InfluenceGraph,
        deltas: &[GraphDelta],
    ) -> Result<usize, String> {
        let (base_seed, offset) = match &self.incremental {
            Some(state) => (state.base_seed, state.set_id_offset),
            None => {
                return Err(
                    "oracle pool was not built incrementally (use OracleBuilder::incremental)"
                        .into(),
                )
            }
        };
        if graph_after.num_vertices() != self.num_vertices() {
            return Err(format!(
                "mutated graph has {} vertices but the pool indexes {}",
                graph_after.num_vertices(),
                self.num_vertices()
            ));
        }
        let mut dirty: Vec<u32> = Vec::new();
        for delta in deltas {
            let head = delta.head();
            if head as usize >= self.num_vertices() {
                return Err(format!(
                    "delta head {head} out of range for {} vertices",
                    self.num_vertices()
                ));
            }
            self.pool.for_each_posting_inline(head, |id| dirty.push(id));
        }
        dirty.sort_unstable();
        dirty.dedup();
        let mut scratch = RrScratch::for_graph(graph_after);
        for &set_id in &dirty {
            // The set's previous members, to be unindexed from their postings.
            let old_trace = self.pool.trace(set_id);
            // Regenerate the set from its own stream (keyed by global id
            // `offset + local id`), exactly as a rebuild at this version would.
            let mut rng = sampler::batch_rng(base_seed, offset + u64::from(set_id));
            let mut trace = scratch.generate(graph_after, &mut rng).vertices;
            trace.sort_unstable();
            // One store-level swap keeps postings and traces inverse to each
            // other in every layout (compressed stores shadow the dirtied
            // lists in their mutation overlay).
            self.pool.replace_set(set_id, &old_trace, &trace);
        }
        // The batch is done: a compressed pool re-encodes what it dirtied,
        // so no overlay outlives the batch.
        self.pool.fold_overlay();
        Ok(dirty.len())
    }

    /// Materialize the posting list of one vertex (the RR-set ids containing
    /// it, strictly increasing). Layout-independent; for bulk export prefer
    /// [`InfluenceOracle::encode_pcmp_payload`].
    #[must_use]
    pub fn posting_list(&self, v: VertexId) -> Vec<u32> {
        self.pool.postings(v)
    }

    /// The pool's canonical comparison bytes: its `PCMP` payload at the
    /// [`PoolLayout::Compressed`] hint, whatever the layout. Two oracles hold
    /// the same pool (posting lists and, when present, traces) iff these
    /// bytes are equal, which is what every byte-identity check compares.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        self.encode_pcmp_payload(PoolLayout::Compressed)
    }

    /// Number of RR sets in the pool.
    #[must_use]
    pub fn pool_size(&self) -> usize {
        self.pool.pool_size()
    }

    /// Number of vertices of the underlying graph.
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.pool.num_vertices()
    }

    /// The oracle's 99 % confidence half-width `1.29·n/√pool` (Section 5.2).
    #[must_use]
    pub fn confidence_99(&self) -> f64 {
        1.29 * self.num_vertices() as f64 / (self.pool_size() as f64).sqrt()
    }

    /// Estimate `Inf(S)` as `n · (fraction of pool RR sets intersecting S)`.
    #[must_use]
    pub fn estimate(&self, seeds: &[VertexId]) -> f64 {
        if seeds.is_empty() {
            return 0.0;
        }
        if seeds.len() == 1 {
            // Fast path: a singleton's coverage is just its posting-list length.
            let hits = self.pool.posting_len(seeds[0]);
            return self.num_vertices() as f64 * hits as f64 / self.pool_size() as f64;
        }
        // Merge the posting lists and count distinct RR-set ids.
        let mut ids: Vec<u32> = Vec::new();
        for &s in seeds {
            self.pool.for_each_posting_inline(s, |id| ids.push(id));
        }
        ids.sort_unstable();
        ids.dedup();
        self.num_vertices() as f64 * ids.len() as f64 / self.pool_size() as f64
    }

    /// Allocation-free estimate of `Inf(S)` using a reusable scratch.
    ///
    /// Returns exactly the same value as [`InfluenceOracle::estimate`] (both
    /// count the distinct pool RR sets intersecting `S`), but touches only the
    /// scratch's epoch marks, so a serving hot path issuing millions of
    /// queries performs zero per-query allocation.
    ///
    /// # Panics
    ///
    /// Panics if `scratch` was sized for a different pool.
    #[must_use]
    pub fn estimate_with(&self, seeds: &[VertexId], scratch: &mut EstimateScratch) -> f64 {
        let covered = self.covered_with(seeds, scratch);
        self.num_vertices() as f64 * covered as f64 / self.pool_size() as f64
    }

    /// The number of distinct pool RR sets intersecting `S` — the integer
    /// numerator of [`InfluenceOracle::estimate_with`], exposed so a sharded
    /// deployment can merge *counts* across pool shards and re-derive the
    /// union estimate exactly (floating-point combination of per-shard
    /// spreads would not be byte-identical to the single-pool answer).
    ///
    /// # Panics
    ///
    /// Panics if `scratch` was sized for a different pool.
    #[must_use]
    pub fn covered_with(&self, seeds: &[VertexId], scratch: &mut EstimateScratch) -> usize {
        assert_eq!(
            scratch.marks.len(),
            self.pool_size(),
            "scratch sized for a different oracle pool"
        );
        if seeds.is_empty() {
            return 0;
        }
        if seeds.len() == 1 {
            return self.pool.posting_len(seeds[0]);
        }
        let epoch = scratch.next_epoch();
        let marks = &mut scratch.marks;
        let mut distinct = 0usize;
        for &s in seeds {
            // The scan runs directly over the store's form — for compressed
            // layouts the varint blocks are decoded on the fly, with no
            // materialized list.
            self.pool.for_each_posting_inline(s, |id| {
                let mark = &mut marks[id as usize];
                if *mark != epoch {
                    *mark = epoch;
                    distinct += 1;
                }
            });
        }
        distinct
    }

    /// One round of greedy maximum coverage, exposed as data: given the
    /// already-selected seed set, return every vertex's marginal coverage
    /// gain (the number of its pool RR sets not yet covered by `selected`)
    /// plus the covered count itself. One whole-pool gain pass that decodes
    /// no posting list on a pool with traces, only the traces of the sets
    /// `selected` covers; with `selected` empty it is a sweep of list
    /// lengths on any pool.
    ///
    /// This is the shard-side primitive of *distributed* greedy selection: a
    /// router summing these integer gain vectors across pool shards and
    /// picking the first argmax reproduces, round for round, exactly the
    /// selection [`InfluenceOracle::greedy_seed_set`] makes on the union
    /// pool. With `selected` empty the gains are the singleton coverage
    /// counts, i.e. the integer form of
    /// [`InfluenceOracle::singleton_influences`].
    ///
    /// # Panics
    ///
    /// Panics if any selected vertex is out of range.
    #[must_use]
    pub fn coverage_gains(&self, selected: &[VertexId]) -> (Vec<u64>, u64) {
        let (covered, covered_count) = self.covered_marks(selected);
        let mut gains = Vec::with_capacity(self.num_vertices());
        self.gain_pass(&covered, covered_count > 0, |_, gain| gains.push(gain));
        (gains, covered_count)
    }

    /// The one whole-pool gain pass: `f(v, gain)` for every vertex in
    /// order, where `gain` counts `v`'s RR sets that `covered` leaves
    /// uncovered (`any_covered` says whether it marks any).
    ///
    /// The pass pays for what is covered, not for the whole pool. With
    /// nothing covered a gain is a list's length. Otherwise, on a pool with
    /// traces, which are exactly the inverse of its posting lists
    /// ([`Pool::replace_set`] keeps them so, and `PCMP` decoding refuses a
    /// payload where they are not),
    /// `gain(v) = |P(v)| − #{covered s : v ∈ T(s)}`: one trace sweep
    /// decodes the covered sets' traces into per-vertex hit counts, and one
    /// posting sweep reads each list's length without decoding it. A pool
    /// without traces (the study's oracles) decodes every list and tests
    /// each id. All are sweeps, not point reads, so a tiered pool streams
    /// each cold region it needs once instead of issuing a read per list.
    fn gain_pass(&self, covered: &[bool], any_covered: bool, mut f: impl FnMut(VertexId, u64)) {
        let mut hits = Vec::new();
        if any_covered {
            if !self.pool.has_traces() {
                self.pool
                    .sweep_postings(|v, list| f(v, uncovered(list, covered)));
                return;
            }
            hits = vec![0u32; self.num_vertices()];
            self.pool.sweep_traces(|set, members| {
                if covered[set as usize] {
                    members.for_each(|v| hits[v as usize] += 1);
                }
            });
        }
        self.pool.sweep_postings(|v, list| {
            let hit = hits.get(v as usize).map_or(0, |&h| h as usize);
            f(v, (list.len() - hit) as u64);
        });
    }

    /// The gains of `vertices` (in the order given) given `covered`, by
    /// point reads of their lists.
    fn gains_at(&self, covered: &[bool], vertices: &[VertexId]) -> Vec<u64> {
        vertices
            .iter()
            .map(|&v| self.pool.with_posting(v, |list| uncovered(list, covered)))
            .collect()
    }

    /// [`InfluenceOracle::coverage_gains`] at `vertices` only: the marginal
    /// gain of each listed vertex (in the order given) plus the covered
    /// count — equal to indexing the full vector, but paid for by point
    /// reads of `selected`'s and `vertices`' posting lists instead of a
    /// whole-pool pass. What lets a shard router settle a greedy round by
    /// asking for exact counts of the few vertices that can still win.
    ///
    /// # Panics
    ///
    /// Panics if any selected or listed vertex is out of range.
    #[must_use]
    pub fn coverage_gains_at(
        &self,
        selected: &[VertexId],
        vertices: &[VertexId],
    ) -> (Vec<u64>, u64) {
        let (covered, covered_count) = self.covered_marks(selected);
        (self.gains_at(&covered, vertices), covered_count)
    }

    /// Which pool RR sets `selected` covers, and how many.
    fn covered_marks(&self, selected: &[VertexId]) -> (Vec<bool>, u64) {
        let mut covered = vec![false; self.pool_size()];
        let mut covered_count = 0u64;
        for &s in selected {
            self.pool.for_each_posting_inline(s, |id| {
                let slot = &mut covered[id as usize];
                if !*slot {
                    *slot = true;
                    covered_count += 1;
                }
            });
        }
        (covered, covered_count)
    }

    /// A scratch sized for this oracle (convenience for worker threads).
    #[must_use]
    pub fn scratch(&self) -> EstimateScratch {
        EstimateScratch::for_oracle(self)
    }

    /// Estimate the influence spread of a canonical [`SeedSet`].
    #[must_use]
    pub fn estimate_seed_set(&self, seeds: &SeedSet) -> f64 {
        let vertices: Vec<VertexId> = seeds.iter().collect();
        self.estimate(&vertices)
    }

    /// Influence estimates for *every* singleton seed set, i.e. the per-vertex
    /// influence `Inf(v)` column used by Table 4 and by the theoretical cost
    /// model of Table 1.
    #[must_use]
    pub fn singleton_influences(&self) -> Vec<f64> {
        let mut influences = Vec::with_capacity(self.num_vertices());
        self.pool.sweep_postings(|_, list| {
            influences
                .push(self.num_vertices() as f64 * list.len() as f64 / self.pool_size() as f64);
        });
        influences
    }

    /// The top `count` vertices by singleton influence, with their estimates,
    /// in descending order (ties broken by vertex id). This is exactly the
    /// content of Table 4 for `count = 3`.
    #[must_use]
    pub fn top_influential_vertices(&self, count: usize) -> Vec<(VertexId, f64)> {
        let mut all: Vec<(VertexId, f64)> = self
            .singleton_influences()
            .into_iter()
            .enumerate()
            .map(|(v, inf)| (v as VertexId, inf))
            .collect();
        all.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("influence is finite")
                .then(a.0.cmp(&b.0))
        });
        all.truncate(count);
        all
    }

    /// The paper's EPT quantity `(1/n)·Σ_v Inf(v)`: the expected size of an RR
    /// set, used in Table 1's cost model.
    #[must_use]
    pub fn expected_rr_size(&self) -> f64 {
        self.singleton_influences().iter().sum::<f64>() / self.num_vertices() as f64
    }

    /// Greedy maximum coverage over the oracle's own RR-set pool.
    ///
    /// With a large pool this is the study's stand-in for "Exact Greedy" — the
    /// unique seed set all three algorithms converge to (Section 5.2 regards
    /// the seed set obtained at entropy 0 as Exact Greedy; running greedy
    /// directly on the shared oracle produces the same limit object). Returns
    /// the seeds in selection order together with the oracle estimate of their
    /// joint influence.
    ///
    /// Each round picks the *first* argmax of the marginal coverage gains
    /// (the highest gain, and among equal gains the lowest id). The rounds
    /// are [`drive_greedy`]'s: a whole-pool pass lists its top
    /// [`ROUND_CANDIDATES`] vertices and a bound on the rest, and the later
    /// rounds settle by point reads of the listed vertices until the bound
    /// stops separating a winner. The seeds and the influence are identical
    /// to a pass per round. A pass is [`InfluenceOracle::coverage_gains`]'s:
    /// the first round's, with nothing covered, reads list lengths only, and
    /// a later one on a pool with traces adds the covered sets' traces.
    #[must_use]
    pub fn greedy_seed_set(&self, k: usize) -> (Vec<VertexId>, f64) {
        let mut rounds = OracleRounds {
            oracle: self,
            covered: vec![false; self.pool_size()],
            covered_count: 0,
            is_selected: vec![false; self.num_vertices()],
        };
        let Ok(selected) = drive_greedy(&mut rounds, self.num_vertices(), k);
        let influence =
            self.num_vertices() as f64 * rounds.covered_count as f64 / self.pool_size() as f64;
        (selected, influence)
    }
}

/// How many of one posting list's RR sets `covered` leaves uncovered: the
/// per-id gain test, shared by point reads and by the gain pass of a pool
/// without traces.
#[inline]
fn uncovered(list: ListRef<'_>, covered: &[bool]) -> u64 {
    let mut gain = 0u64;
    list.for_each(|id| gain += u64::from(!covered[id as usize]));
    gain
}

/// [`InfluenceOracle::greedy_seed_set`]'s side of [`drive_greedy`]: the
/// sets the picks so far cover, kept up to date by `select`.
struct OracleRounds<'a> {
    oracle: &'a InfluenceOracle,
    covered: Vec<bool>,
    covered_count: usize,
    is_selected: Vec<bool>,
}

impl GreedyRounds for OracleRounds<'_> {
    type Error = std::convert::Infallible;

    #[inline]
    fn pass(&mut self, _selected: &[VertexId]) -> Result<Option<GreedyPass>, Self::Error> {
        let is_selected = &self.is_selected;
        let mut top = TopGains::new(ROUND_CANDIDATES);
        self.oracle
            .gain_pass(&self.covered, self.covered_count > 0, |v, gain| {
                if !is_selected[v as usize] {
                    top.offer(v, gain);
                }
            });
        let (listed, bound) = top.finish();
        Ok(listed.first().map(|&(winner, _)| GreedyPass {
            winner,
            candidates: listed.iter().map(|&(v, _)| v).collect(),
            bound,
        }))
    }

    #[inline]
    fn probe(
        &mut self,
        _selected: &[VertexId],
        candidates: &[VertexId],
    ) -> Result<Vec<u64>, Self::Error> {
        // Random access to a few lists: point reads, not a sweep.
        Ok(self.oracle.gains_at(&self.covered, candidates))
    }

    #[inline]
    fn select(&mut self, v: VertexId) {
        self.is_selected[v as usize] = true;
        let (covered, count) = (&mut self.covered, &mut self.covered_count);
        self.oracle.pool.for_each_posting_inline(v, |id| {
            if !covered[id as usize] {
                covered[id as usize] = true;
                *count += 1;
            }
        });
    }
}

/// Vertices a whole-pool gain pass lists for the selection rounds after it
/// ([`InfluenceOracle::greedy_seed_set`]), and each pool shard lists per
/// routed round. Large enough that the bound separates a winner on almost
/// every round measured, small enough that re-reading the listed vertices
/// costs a few point reads and a shard's reply a few KB.
pub const ROUND_CANDIDATES: usize = 64;

/// The best `limit` vertices of one gain pass by `(gain desc, id asc)`, and
/// a bound on the rest: a bounded heap fed one `(vertex, gain)` at a time.
#[derive(Debug)]
pub struct TopGains {
    limit: usize,
    /// Keyed so the root is the listed vertex the next better one evicts:
    /// lowest gain, and among equal gains the highest id.
    listed: BinaryHeap<Reverse<(u64, Reverse<VertexId>)>>,
    bound: u64,
}

impl TopGains {
    /// An empty ranking that keeps the best `limit` offers.
    #[must_use]
    pub fn new(limit: usize) -> Self {
        TopGains {
            limit,
            listed: BinaryHeap::new(),
            bound: 0,
        }
    }

    /// Offer vertex `v` with gain `gain` (called once per vertex per pass,
    /// so inlined into callers in other crates too).
    #[inline]
    pub fn offer(&mut self, v: VertexId, gain: u64) {
        let entry = Reverse((gain, Reverse(v)));
        if self.listed.len() < self.limit {
            self.listed.push(entry);
            return;
        }
        match self.listed.peek_mut() {
            Some(mut worst) if entry < *worst => {
                self.bound = self.bound.max(worst.0 .0);
                *worst = entry;
            }
            _ => self.bound = self.bound.max(gain),
        }
    }

    /// The kept vertices with their gains, by `(gain desc, id asc)`, and the
    /// largest gain offered but not kept (`0` when every offer was kept).
    #[must_use]
    pub fn finish(self) -> (Vec<(VertexId, u64)>, u64) {
        let listed = self
            .listed
            .into_sorted_vec()
            .into_iter()
            .map(|Reverse((gain, Reverse(v)))| (v, gain))
            .collect();
        (listed, self.bound)
    }
}

/// Settle one selection round from exact gains of its candidates: the top
/// `want` of `ranked` by `(gain desc, id asc)` — `1` for a greedy round's
/// first argmax, `k` for a singleton ranking — iff the `want`-th gain is
/// strictly greater than `bound`, the most any vertex missing from `ranked`
/// can gain; `None` when the candidates cannot prove it (fewer than `want`
/// of them, or a tie at the bound, where an unranked vertex with a lower id
/// could be the answer).
#[must_use]
pub fn settle_round(
    mut ranked: Vec<(VertexId, u64)>,
    want: usize,
    bound: u64,
) -> Option<Vec<VertexId>> {
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let proven = want
        .checked_sub(1)
        .and_then(|last| ranked.get(last))
        .is_some_and(|&(_, gain)| gain > bound);
    ranked.truncate(want);
    proven.then(|| ranked.into_iter().map(|(v, _)| v).collect())
}

/// What one whole-pool gain pass of a greedy round yields
/// ([`GreedyRounds::pass`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GreedyPass {
    /// The round's first argmax over the unselected vertices.
    pub winner: VertexId,
    /// Vertices the pass listed, which the later rounds probe (the winner
    /// need not be one of them).
    pub candidates: Vec<VertexId>,
    /// The most any unselected vertex outside `candidates` gained.
    pub bound: u64,
}

/// The pool access one greedy selection needs from [`drive_greedy`]: a pool
/// in process ([`InfluenceOracle::greedy_seed_set`]) or a group of pool
/// shards behind a router. Gains are marginal coverage counts given the
/// vertices selected so far, in selection order.
pub trait GreedyRounds {
    /// Why a round could not be answered (a shard's failure; never, in
    /// process).
    type Error;

    /// One whole-pool pass: the round's winner, the vertices it lists and a
    /// bound on the rest; `None` when no unselected vertex is left.
    fn pass(&mut self, selected: &[VertexId]) -> Result<Option<GreedyPass>, Self::Error>;

    /// The exact gains of `candidates` (none of them selected), in order.
    fn probe(
        &mut self,
        selected: &[VertexId],
        candidates: &[VertexId],
    ) -> Result<Vec<u64>, Self::Error>;

    /// `v` is the round's pick. Only a side that keeps coverage state
    /// between calls needs it.
    #[inline]
    fn select(&mut self, _v: VertexId) {}
}

/// Greedy maximum coverage over `n` vertices, `min(k, n)` rounds, each the
/// first argmax of the marginal gains — the one round loop behind both the
/// in-process and the routed selection.
///
/// Only some rounds pay a pass. A round first probes the last pass's
/// candidates (minus the picks since) and settles on their first argmax iff
/// it is strictly greater than that pass's bound ([`settle_round`]);
/// otherwise it makes a pass, which refreshes the candidates and the bound.
/// The rule is exact, not a heuristic: coverage gains only shrink as seeds
/// are added, so a vertex the pass did not list gains at most the bound
/// now, and a winner strictly above it beats every such vertex — strictly,
/// because at equality an unlisted vertex with a lower id would be the
/// first argmax. The picks are therefore those of a pass per round.
pub fn drive_greedy<R: GreedyRounds>(
    rounds: &mut R,
    n: usize,
    k: usize,
) -> Result<Vec<VertexId>, R::Error> {
    let k = k.min(n);
    let mut selected: Vec<VertexId> = Vec::with_capacity(k);
    let mut is_selected = vec![false; n];
    // The last pass's listed vertices, and the most any other one gained.
    let mut candidates: Vec<VertexId> = Vec::new();
    let mut bound = 0u64;
    while selected.len() < k {
        candidates.retain(|&v| !is_selected[v as usize]);
        let settled = if candidates.is_empty() {
            None
        } else {
            let gains = rounds.probe(&selected, &candidates)?;
            let ranked = candidates.iter().copied().zip(gains).collect();
            settle_round(ranked, 1, bound)
        };
        let chosen = match settled {
            Some(top) => top[0],
            None => {
                let Some(pass) = rounds.pass(&selected)? else {
                    break;
                };
                candidates = pass.candidates;
                bound = pass.bound;
                pass.winner
            }
        };
        is_selected[chosen as usize] = true;
        rounds.select(chosen);
        selected.push(chosen);
    }
    Ok(selected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diffusion::monte_carlo_influence;
    use imgraph::DiGraph;
    use imrand::Pcg32;

    fn star(prob: f64) -> InfluenceGraph {
        let edges: Vec<_> = (1..5u32).map(|v| (0, v)).collect();
        InfluenceGraph::new(DiGraph::from_edges(5, &edges), vec![prob; 4])
    }

    #[test]
    fn oracle_matches_closed_form_on_star() {
        let ig = star(0.5);
        let mut rng = Pcg32::seed_from_u64(1);
        let oracle = InfluenceOracle::builder(100_000).sample_with_rng(&ig, &mut rng);
        assert!((oracle.estimate(&[0]) - 3.0).abs() < 0.05);
        assert!((oracle.estimate(&[1]) - 1.0).abs() < 0.05);
        // {0, 1}: hub covers 1 + 4·0.5 but vertex 1 is then already counted;
        // Inf({0,1}) = 2 + 3·0.5 = 3.5.
        assert!((oracle.estimate(&[0, 1]) - 3.5).abs() < 0.05);
        assert_eq!(oracle.estimate(&[]), 0.0);
    }

    #[test]
    fn oracle_agrees_with_monte_carlo() {
        let ig = star(0.3);
        let oracle =
            InfluenceOracle::builder(50_000).sample_with_rng(&ig, &mut Pcg32::seed_from_u64(2));
        let mc = monte_carlo_influence(&ig, &[0], 50_000, &mut Pcg32::seed_from_u64(3));
        let rr = oracle.estimate(&[0]);
        assert!((mc - rr).abs() < 0.1, "MC {mc} vs RR-oracle {rr}");
    }

    #[test]
    fn identical_seed_sets_get_identical_estimates() {
        let ig = star(0.5);
        let oracle =
            InfluenceOracle::builder(10_000).sample_with_rng(&ig, &mut Pcg32::seed_from_u64(4));
        let a = oracle.estimate(&[2, 0]);
        let b = oracle.estimate_seed_set(&SeedSet::new(vec![0, 2]));
        assert_eq!(a, b, "the oracle must be a pure function of the seed set");
    }

    #[test]
    fn confidence_shrinks_with_pool_size() {
        let ig = star(0.5);
        let small =
            InfluenceOracle::builder(100).sample_with_rng(&ig, &mut Pcg32::seed_from_u64(5));
        let large =
            InfluenceOracle::builder(10_000).sample_with_rng(&ig, &mut Pcg32::seed_from_u64(5));
        assert!(large.confidence_99() < small.confidence_99());
        assert!((small.confidence_99() - 1.29 * 5.0 / 10.0).abs() < 1e-12);
        assert_eq!(large.pool_size(), 10_000);
        assert_eq!(large.num_vertices(), 5);
    }

    #[test]
    fn top_influential_vertices_ranks_the_hub_first() {
        let ig = star(0.8);
        let oracle =
            InfluenceOracle::builder(20_000).sample_with_rng(&ig, &mut Pcg32::seed_from_u64(6));
        let top = oracle.top_influential_vertices(3);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].0, 0);
        assert!(top[0].1 > top[1].1);
        // The remaining vertices are all leaves with influence ≈ 1.
        assert!((top[1].1 - 1.0).abs() < 0.1);
        assert!((top[2].1 - 1.0).abs() < 0.1);
        assert!(top[1].1 >= top[2].1);
    }

    #[test]
    fn expected_rr_size_matches_mean_singleton_influence() {
        let ig = star(0.5);
        let oracle =
            InfluenceOracle::builder(30_000).sample_with_rng(&ig, &mut Pcg32::seed_from_u64(7));
        // Σ Inf(v) = 3 + 4·1 = 7, so EPT = 7/5 = 1.4.
        assert!((oracle.expected_rr_size() - 1.4).abs() < 0.05);
    }

    #[test]
    fn greedy_seed_set_picks_the_hub_first() {
        let ig = star(0.8);
        let oracle =
            InfluenceOracle::builder(20_000).sample_with_rng(&ig, &mut Pcg32::seed_from_u64(9));
        let (seeds, influence) = oracle.greedy_seed_set(2);
        assert_eq!(seeds[0], 0, "the hub dominates every leaf");
        assert_eq!(seeds.len(), 2);
        // Inf({0, leaf}) = 2 + 3·0.8 = 4.4.
        assert!((influence - 4.4).abs() < 0.1, "joint influence {influence}");
        // The greedy influence agrees with the oracle's own estimate.
        assert!((oracle.estimate(&seeds) - influence).abs() < 1e-9);
        // k larger than n is clamped.
        assert_eq!(oracle.greedy_seed_set(100).0.len(), 5);
    }

    #[test]
    #[should_panic(expected = "non-empty RR-set pool")]
    fn zero_pool_panics() {
        let ig = star(0.5);
        let _ = InfluenceOracle::builder(0).sample_with_rng(&ig, &mut Pcg32::seed_from_u64(8));
    }

    #[test]
    fn estimate_with_scratch_matches_estimate() {
        let ig = star(0.5);
        let oracle =
            InfluenceOracle::builder(20_000).sample_with_rng(&ig, &mut Pcg32::seed_from_u64(12));
        let mut scratch = oracle.scratch();
        let seed_sets: &[&[VertexId]] = &[&[], &[0], &[3], &[0, 1], &[1, 2, 3, 4], &[4, 0, 4]];
        for &seeds in seed_sets {
            assert_eq!(
                oracle.estimate(seeds),
                oracle.estimate_with(seeds, &mut scratch),
                "scratch path must be bit-identical for {seeds:?}"
            );
        }
        // Repeated use of the same scratch stays correct (epoch discipline).
        for _ in 0..100 {
            assert_eq!(
                oracle.estimate(&[0, 1]),
                oracle.estimate_with(&[0, 1], &mut scratch)
            );
        }
    }

    #[test]
    fn scratch_epoch_wrap_resets_marks() {
        let ig = star(0.5);
        let oracle =
            InfluenceOracle::builder(1_000).sample_with_rng(&ig, &mut Pcg32::seed_from_u64(13));
        let mut scratch = oracle.scratch();
        scratch.epoch = u32::MAX - 1;
        let expected = oracle.estimate(&[0, 2]);
        for _ in 0..4 {
            // Crosses the wrap boundary; estimates must stay identical.
            assert_eq!(oracle.estimate_with(&[0, 2], &mut scratch), expected);
        }
    }

    #[test]
    #[should_panic(expected = "different oracle pool")]
    fn mismatched_scratch_panics() {
        let ig = star(0.5);
        let a = InfluenceOracle::builder(100).sample_with_rng(&ig, &mut Pcg32::seed_from_u64(14));
        let b = InfluenceOracle::builder(200).sample_with_rng(&ig, &mut Pcg32::seed_from_u64(14));
        let mut scratch = a.scratch();
        let _ = b.estimate_with(&[0], &mut scratch);
    }

    #[test]
    fn pool_round_trips_through_bytes() {
        let ig = star(0.7);
        let oracle = InfluenceOracle::builder(5_000)
            .seed(21)
            .backend(Backend::Sequential)
            .sample(&ig);
        let payload = oracle.encode_pcmp_payload(PoolLayout::Raw);
        let (back, hint) = InfluenceOracle::from_pcmp_payload(&payload).expect("round trip");
        assert_eq!(hint, PoolLayout::Raw);
        assert_eq!(back.pool_layout(), PoolLayout::Raw);
        assert_eq!(back.pool_size(), oracle.pool_size());
        assert_eq!(back.num_vertices(), oracle.num_vertices());
        for v in 0..5u32 {
            assert_eq!(back.posting_list(v), oracle.posting_list(v));
        }
        // Re-encoding is byte-identical, and estimates are bit-identical.
        assert_eq!(back.encode_pcmp_payload(PoolLayout::Raw), payload);
        assert_eq!(back.to_bytes(), oracle.to_bytes());
        for v in 0..5u32 {
            assert_eq!(back.estimate(&[v]), oracle.estimate(&[v]));
        }
        assert_eq!(back.estimate(&[0, 3, 4]), oracle.estimate(&[0, 3, 4]));
    }

    #[test]
    fn incremental_build_is_backend_independent_and_carries_traces() {
        let ig = star(0.5);
        let seq = InfluenceOracle::builder(3_000)
            .seed(11)
            .backend(Backend::Sequential)
            .incremental()
            .sample(&ig);
        let par = InfluenceOracle::builder(3_000)
            .seed(11)
            .backend(Backend::Parallel { threads: 4 })
            .incremental()
            .sample(&ig);
        assert_eq!(seq.to_bytes(), par.to_bytes());
        assert!(seq.is_incremental());
        assert_eq!(seq.incremental_base_seed(), Some(11));
        // Every trace is sorted and inverse to the posting lists.
        for set_id in 0..3_000u32 {
            let trace = seq.trace(set_id).expect("trace exists");
            assert!(trace.windows(2).all(|w| w[0] < w[1]), "trace sorted");
            for &v in &trace {
                assert!(seq.posting_list(v).contains(&set_id));
            }
        }
        // The classic builders carry no incremental state.
        assert!(!InfluenceOracle::builder(100)
            .sample_with_rng(&ig, &mut Pcg32::seed_from_u64(1))
            .is_incremental());
        assert!(!InfluenceOracle::builder(100)
            .seed(1)
            .backend(Backend::Sequential)
            .sample(&ig)
            .is_incremental());
    }

    #[test]
    fn attach_incremental_reconstructs_the_native_traces() {
        let ig = star(0.4);
        let native = InfluenceOracle::builder(2_000)
            .seed(5)
            .backend(Backend::Sequential)
            .incremental()
            .sample(&ig);
        let lists = (0..5u32).map(|v| native.posting_list(v)).collect();
        let mut reloaded = InfluenceOracle::builder(2_000).assemble(5, lists).unwrap();
        assert!(!reloaded.is_incremental());
        assert!(!reloaded.pool().has_traces());
        reloaded.attach_incremental(5, 0);
        for set_id in 0..2_000u32 {
            assert_eq!(reloaded.trace(set_id), native.trace(set_id));
        }
    }

    #[test]
    fn apply_delta_matches_a_from_scratch_rebuild_byte_for_byte() {
        use imgraph::MutableInfluenceGraph;
        let ig = star(0.5);
        let mut mutable = MutableInfluenceGraph::from_graph(&ig);
        let mut oracle = InfluenceOracle::builder(2_500)
            .seed(21)
            .backend(Backend::Sequential)
            .incremental()
            .sample(&ig);

        let deltas = [
            GraphDelta::InsertEdge {
                source: 2,
                target: 0,
                probability: 0.5,
            },
            GraphDelta::SetProbability {
                source: 0,
                target: 3,
                probability: 1.0,
            },
            GraphDelta::DeleteEdge {
                source: 0,
                target: 1,
            },
            GraphDelta::InsertEdge {
                source: 4,
                target: 2,
                probability: 0.25,
            },
        ];
        for delta in &deltas {
            mutable.apply(delta).unwrap();
            let after = mutable.materialize();
            let resampled = oracle
                .apply_delta_batch(&after, std::slice::from_ref(delta))
                .unwrap();
            let rebuilt = InfluenceOracle::builder(2_500)
                .seed(21)
                .backend(Backend::Sequential)
                .incremental()
                .sample(&after);
            assert_eq!(
                oracle.to_bytes(),
                rebuilt.to_bytes(),
                "maintained pool must be byte-identical to a rebuild after {delta}"
            );
            // Only the posting list of the head vertex was dirty — far fewer
            // sets than the pool on this star graph.
            assert!(resampled < 2_500, "resampled {resampled} of 2500");
            // Estimates agree bit-for-bit too.
            for v in 0..5u32 {
                assert_eq!(oracle.estimate(&[v]), rebuilt.estimate(&[v]));
            }
            assert_eq!(oracle.estimate(&[0, 2, 4]), rebuilt.estimate(&[0, 2, 4]));
        }
    }

    #[test]
    fn apply_delta_batch_matches_rebuild_and_per_delta_application() {
        use imgraph::MutableInfluenceGraph;
        let ig = star(0.5);
        let deltas = [
            GraphDelta::InsertEdge {
                source: 2,
                target: 0,
                probability: 0.5,
            },
            GraphDelta::SetProbability {
                source: 0,
                target: 3,
                probability: 1.0,
            },
            GraphDelta::DeleteEdge {
                source: 0,
                target: 1,
            },
            // Two deltas share head 2: the union must count its sets once.
            GraphDelta::InsertEdge {
                source: 4,
                target: 2,
                probability: 0.25,
            },
            GraphDelta::SetProbability {
                source: 4,
                target: 2,
                probability: 1.0,
            },
        ];

        let mut mutable = MutableInfluenceGraph::from_graph(&ig);
        let mut batched = InfluenceOracle::builder(2_500)
            .seed(21)
            .backend(Backend::Sequential)
            .incremental()
            .sample(&ig);
        let mut per_delta = batched.clone();

        // Per-delta reference: resample after every single delta.
        for delta in &deltas {
            mutable.apply(delta).unwrap();
            per_delta
                .apply_delta_batch(&mutable.materialize(), std::slice::from_ref(delta))
                .unwrap();
        }
        let after = mutable.materialize();

        // Batched path: one resample of the dirty union on the final graph.
        let resampled = batched.apply_delta_batch(&after, &deltas).unwrap();
        let rebuilt = InfluenceOracle::builder(2_500)
            .seed(21)
            .backend(Backend::Sequential)
            .incremental()
            .sample(&after);
        assert_eq!(batched.to_bytes(), rebuilt.to_bytes());
        assert_eq!(batched.to_bytes(), per_delta.to_bytes());
        // The union never exceeds the per-delta total (shared heads dedup).
        assert!(resampled < 2_500);

        // An empty batch is a no-op.
        let before = batched.to_bytes();
        assert_eq!(batched.apply_delta_batch(&after, &[]).unwrap(), 0);
        assert_eq!(batched.to_bytes(), before);

        // Errors leave the pool untouched.
        let out_of_range = GraphDelta::DeleteEdge {
            source: 0,
            target: 99,
        };
        assert!(batched.apply_delta_batch(&after, &[out_of_range]).is_err());
        assert_eq!(batched.to_bytes(), before);
        let mut plain =
            InfluenceOracle::builder(100).sample_with_rng(&ig, &mut Pcg32::seed_from_u64(2));
        assert!(plain.apply_delta_batch(&ig, &deltas).is_err());
    }

    #[test]
    fn apply_delta_rejects_bad_inputs_and_non_incremental_pools() {
        let ig = star(0.5);
        let delta = GraphDelta::SetProbability {
            source: 0,
            target: 1,
            probability: 0.9,
        };
        let mut plain =
            InfluenceOracle::builder(100).sample_with_rng(&ig, &mut Pcg32::seed_from_u64(2));
        assert!(plain
            .apply_delta_batch(&ig, std::slice::from_ref(&delta))
            .is_err());

        let mut incremental = InfluenceOracle::builder(100)
            .seed(2)
            .backend(Backend::Sequential)
            .incremental()
            .sample(&ig);
        let smaller = {
            let edges: Vec<_> = (1..3u32).map(|v| (0, v)).collect();
            InfluenceGraph::new(imgraph::DiGraph::from_edges(3, &edges), vec![0.5; 2])
        };
        assert!(incremental
            .apply_delta_batch(&smaller, std::slice::from_ref(&delta))
            .is_err());
        let out_of_range = GraphDelta::DeleteEdge {
            source: 0,
            target: 99,
        };
        assert!(incremental
            .apply_delta_batch(&ig, std::slice::from_ref(&out_of_range))
            .is_err());
    }

    #[test]
    fn assemble_validates_invariants() {
        // Valid: two vertices, pool of 3.
        let ok = InfluenceOracle::builder(3).assemble(2, vec![vec![0, 2], vec![1]]);
        assert!(ok.is_ok());
        // Set id out of range.
        assert!(InfluenceOracle::builder(3)
            .assemble(2, vec![vec![3], vec![]])
            .is_err());
        // Not strictly increasing.
        assert!(InfluenceOracle::builder(3)
            .assemble(2, vec![vec![1, 1], vec![]])
            .is_err());
        // Wrong list count.
        assert!(InfluenceOracle::builder(3)
            .assemble(2, vec![vec![0]])
            .is_err());
        // Degenerate dimensions.
        assert!(InfluenceOracle::builder(3).assemble(0, vec![]).is_err());
        assert!(InfluenceOracle::builder(0)
            .assemble(2, vec![vec![], vec![]])
            .is_err());
    }

    #[test]
    fn shard_layout_balances_and_covers_the_pool() {
        let ranges = shard_layout(10, 3);
        assert_eq!(
            ranges,
            vec![
                ShardRange { offset: 0, len: 4 },
                ShardRange { offset: 4, len: 3 },
                ShardRange { offset: 7, len: 3 },
            ]
        );
        let total: usize = ranges.iter().map(|r| r.len).sum();
        assert_eq!(total, 10);
        // Exact split when divisible.
        for (i, r) in shard_layout(8, 4).iter().enumerate() {
            assert_eq!(r.len, 2);
            assert_eq!(r.offset, 2 * i as u64);
        }
    }

    #[test]
    #[should_panic(expected = "cannot feed")]
    fn shard_layout_rejects_more_shards_than_sets() {
        let _ = shard_layout(2, 3);
    }

    /// The shard-union invariant: N shard pools built from one
    /// [`shard_layout`] are, set for set, byte-identical slices of the single
    /// pool built at the same seed — including after a broadcast mutation.
    #[test]
    fn shard_pools_union_byte_identically_into_the_single_pool() {
        use imgraph::MutableInfluenceGraph;
        let ig = star(0.5);
        const POOL: usize = 2_000;
        let single = InfluenceOracle::builder(POOL)
            .seed(21)
            .incremental()
            .sample(&ig);
        let mut shards: Vec<InfluenceOracle> = shard_layout(POOL, 3)
            .into_iter()
            .map(|r| {
                InfluenceOracle::builder(r.len)
                    .seed(21)
                    .shard_offset(r.offset)
                    .sample(&ig)
            })
            .collect();

        let check_union = |single: &InfluenceOracle, shards: &[InfluenceOracle]| {
            let mut global = 0u32;
            for shard in shards {
                assert_eq!(shard.set_id_offset(), Some(u64::from(global)));
                for local in 0..shard.pool_size() as u32 {
                    assert_eq!(
                        shard.trace(local),
                        single.trace(global),
                        "set {global} must be identical in shard and single pool"
                    );
                    global += 1;
                }
            }
            assert_eq!(global as usize, single.pool_size());
            // Covered counts add up across shards for any seed set.
            let mut scratch = single.scratch();
            let mut shard_scratches: Vec<_> = shards.iter().map(InfluenceOracle::scratch).collect();
            for seeds in [vec![0u32], vec![0, 2], vec![1, 3, 4]] {
                let total: usize = shards
                    .iter()
                    .zip(&mut shard_scratches)
                    .map(|(s, sc)| s.covered_with(&seeds, sc))
                    .sum();
                assert_eq!(total, single.covered_with(&seeds, &mut scratch));
            }
            // Gain vectors sum elementwise to the single pool's gains.
            for selected in [vec![], vec![0u32], vec![0, 1]] {
                let (single_gains, single_covered) = single.coverage_gains(&selected);
                let mut sum = vec![0u64; single.num_vertices()];
                let mut covered = 0u64;
                for s in shards {
                    let (g, c) = s.coverage_gains(&selected);
                    for (acc, x) in sum.iter_mut().zip(g) {
                        *acc += x;
                    }
                    covered += c;
                }
                assert_eq!(sum, single_gains);
                assert_eq!(covered, single_covered);
            }
        };
        check_union(&single, &shards);

        // Broadcast the same mutation everywhere: the invariant must hold at
        // the mutated version too (shard streams replay their global ids).
        let mut mutable = MutableInfluenceGraph::from_graph(&ig);
        let delta = GraphDelta::InsertEdge {
            source: 2,
            target: 0,
            probability: 0.7,
        };
        mutable.apply(&delta).unwrap();
        let after = mutable.materialize();
        let mut single = single;
        single
            .apply_delta_batch(&after, std::slice::from_ref(&delta))
            .unwrap();
        for shard in &mut shards {
            shard
                .apply_delta_batch(&after, std::slice::from_ref(&delta))
                .unwrap();
        }
        check_union(&single, &shards);
    }

    /// Round-trip `oracle` through a `PCMP` payload file and demote it onto
    /// that file, so its cold lists really are read back from disk. Returns
    /// the file-backed oracle and the file to remove afterwards.
    fn demote_to_file(
        oracle: &InfluenceOracle,
        hot_list_bytes: usize,
        tag: &str,
    ) -> (InfluenceOracle, std::path::PathBuf) {
        let payload = oracle.encode_pcmp_payload(PoolLayout::Tiered);
        let path = std::env::temp_dir().join(format!(
            "im_core-cold-{tag}-{}-{:p}.pcmp",
            std::process::id(),
            &payload
        ));
        std::fs::write(&path, &payload).expect("write payload file");
        let (mut cold, hint) = InfluenceOracle::from_pcmp_payload(&payload).expect("decode");
        assert_eq!(hint, PoolLayout::Tiered);
        if let (Some(seed), Some(offset)) = (oracle.incremental_base_seed(), oracle.set_id_offset())
        {
            cold.attach_incremental(seed, offset);
        }
        let file = std::sync::Arc::new(std::fs::File::open(&path).expect("open payload file"));
        cold.attach_cold_pool_file(file, 0, TieredConfig { hot_list_bytes });
        (cold, path)
    }

    /// The load-bearing pool-store invariant: every layout answers every
    /// query byte-identically at every maintenance epoch — `to_bytes`,
    /// estimates, coverage counts, gains, greedy selection and traces. The
    /// `cold` participant is genuinely file-backed, with hot and cold lists
    /// side by side and, after the first delta, an overlay shadowing cold
    /// lists.
    #[test]
    fn pool_layouts_are_byte_identical_at_every_epoch() {
        use imgraph::MutableInfluenceGraph;
        let ig = star(0.5);
        let build = |layout: PoolLayout| {
            let mut oracle = InfluenceOracle::builder(2_000)
                .seed(21)
                .incremental()
                .sample(&ig);
            oracle.convert_layout(layout);
            oracle
        };
        let mut raw = build(PoolLayout::Raw);
        let mut compressed = build(PoolLayout::Compressed);
        let mut tiered = build(PoolLayout::Tiered);
        // The hub's posting list (~1200 ids) stays hot, the leaves' (~400
        // ids each) and every trace go cold.
        let (mut cold, cold_path) = demote_to_file(&compressed, 1_000, "epochs");
        assert_eq!(raw.pool_layout(), PoolLayout::Raw);
        assert_eq!(compressed.pool_layout(), PoolLayout::Compressed);
        assert_eq!(tiered.pool_layout(), PoolLayout::Tiered);
        assert_eq!(cold.pool_layout(), PoolLayout::Tiered);
        assert_eq!(tiered.pool().cold_reads(), (0, 0), "no file behind it");
        let reads = |o: &InfluenceOracle| o.pool().cold_reads().0;
        let before = reads(&cold);
        let _ = cold.posting_list(0);
        assert_eq!(reads(&cold), before, "hub list is pinned hot");
        let _ = cold.posting_list(1);
        assert_eq!(reads(&cold), before + 1, "leaf list is one cold read");
        assert!(cold.pool_resident_bytes() < tiered.pool_resident_bytes());

        let deltas = [
            GraphDelta::InsertEdge {
                source: 3,
                target: 0,
                probability: 0.6,
            },
            GraphDelta::DeleteEdge {
                source: 0,
                target: 2,
            },
            GraphDelta::SetProbability {
                source: 0,
                target: 1,
                probability: 0.9,
            },
        ];
        let mut mutable = MutableInfluenceGraph::from_graph(&ig);
        let check_epoch = |raw: &InfluenceOracle, others: [&InfluenceOracle; 3]| {
            let bytes = raw.to_bytes();
            let gains = raw.coverage_gains(&[0]);
            let greedy = raw.greedy_seed_set(2);
            let singletons = raw.singleton_influences();
            for o in [raw].into_iter().chain(others) {
                let layout = o.pool_layout();
                assert_eq!(o.to_bytes(), bytes, "{layout} to_bytes");
                let mut scratch = o.scratch();
                for seeds in [vec![0u32], vec![1, 4], vec![0, 1, 2, 3, 4]] {
                    let want = raw.estimate(&seeds);
                    assert_eq!(o.estimate(&seeds), want, "{layout}");
                    assert_eq!(o.estimate_with(&seeds, &mut scratch), want, "{layout}");
                }
                assert_eq!(o.coverage_gains(&[0]), gains, "{layout}");
                // Point reads equal indexing the swept vector, in the order
                // (and with the repeats) the caller listed.
                let probe = [4u32, 0, 2, 2];
                let indexed = probe.iter().map(|&v| gains.0[v as usize]).collect();
                assert_eq!(
                    o.coverage_gains_at(&[0], &probe),
                    (indexed, gains.1),
                    "{layout}"
                );
                assert_eq!(o.greedy_seed_set(2), greedy, "{layout}");
                assert_eq!(o.singleton_influences(), singletons, "{layout}");
                for set_id in (0..2_000u32).step_by(97) {
                    assert_eq!(o.trace(set_id), raw.trace(set_id), "{layout}");
                }
            }
        };
        check_epoch(&raw, [&compressed, &tiered, &cold]);
        for delta in &deltas {
            mutable.apply(delta).unwrap();
            let after = mutable.materialize();
            let n_raw = raw
                .apply_delta_batch(&after, std::slice::from_ref(delta))
                .unwrap();
            for o in [&mut compressed, &mut tiered, &mut cold] {
                assert_eq!(
                    o.apply_delta_batch(&after, std::slice::from_ref(delta))
                        .unwrap(),
                    n_raw
                );
            }
            check_epoch(&raw, [&compressed, &tiered, &cold]);
        }
        // Converting layouts after mutations still yields identical bytes,
        // from a file-backed pool with a live overlay too.
        compressed.convert_layout(PoolLayout::Raw);
        assert_eq!(compressed.to_bytes(), raw.to_bytes());
        cold.convert_layout(PoolLayout::Raw);
        assert_eq!(cold.to_bytes(), raw.to_bytes());
        std::fs::remove_file(&cold_path).ok();
        // The compressed pool is the smaller one on this dense star pool.
        assert!(
            {
                let mut compressed = InfluenceOracle::builder(2_000).seed(21).sample(&ig);
                compressed.convert_layout(PoolLayout::Compressed);
                compressed.pool_resident_bytes()
            } < build(PoolLayout::Raw).pool_resident_bytes()
        );
    }

    /// A compressed pool ends every batch canonical: the overlay is folded
    /// into a fresh data region whose bytes, resident size and exports equal
    /// a from-scratch build at the same version, while a clone taken before
    /// the batch keeps its old lists. Tiered pools — resident or
    /// file-backed — keep the overlay and stay byte-identical.
    #[test]
    fn a_compressed_pool_folds_each_batch_back_to_a_fresh_encode() {
        use imgraph::MutableInfluenceGraph;
        let ig = star(0.5);
        let build = |graph: &InfluenceGraph, layout: PoolLayout| {
            let mut oracle = InfluenceOracle::builder(2_000)
                .seed(21)
                .incremental()
                .sample(graph);
            oracle.convert_layout(layout);
            oracle
        };
        let has_overlay = |o: &InfluenceOracle| match o.pool() {
            Pool::Compressed(p) | Pool::Tiered(p) => p.has_overlay(),
            Pool::Raw(_) => panic!("expected a packed pool"),
        };
        let mut compressed = build(&ig, PoolLayout::Compressed);
        let mut tiered = build(&ig, PoolLayout::Tiered);
        let (mut cold, cold_path) = demote_to_file(&compressed, 1_000, "fold");
        let batches = [
            vec![
                GraphDelta::InsertEdge {
                    source: 3,
                    target: 0,
                    probability: 0.6,
                },
                GraphDelta::SetProbability {
                    source: 0,
                    target: 1,
                    probability: 0.9,
                },
            ],
            vec![GraphDelta::DeleteEdge {
                source: 0,
                target: 2,
            }],
        ];
        let mut mutable = MutableInfluenceGraph::from_graph(&ig);
        for batch in &batches {
            let snapshot = compressed.clone();
            let snapshot_bytes = snapshot.to_bytes();
            for delta in batch {
                mutable.apply(delta).unwrap();
            }
            let after = mutable.materialize();
            for o in [&mut compressed, &mut tiered, &mut cold] {
                assert!(o.apply_delta_batch(&after, batch).unwrap() > 0);
            }
            assert!(!has_overlay(&compressed), "compressed folded");
            assert!(has_overlay(&tiered), "tiered keeps its overlay");
            assert!(has_overlay(&cold), "cold keeps its overlay");
            let (postings, traces) = compressed.pool().to_raw_lists();
            // The hub's list spans ~10 blocks: the fold wrote skip headers.
            assert!(postings[0].len() > 4 * impool::BLOCK_IDS);
            let fresh = impool::PackedPool::from_lists(5, 2_000, &postings, traces.as_deref());
            assert_eq!(
                compressed.pool_resident_bytes(),
                Pool::Compressed(fresh).resident_bytes()
            );
            let rebuilt = build(&after, PoolLayout::Compressed);
            assert_eq!(compressed.to_bytes(), rebuilt.to_bytes());
            assert_eq!(
                compressed.pool_resident_bytes(),
                rebuilt.pool_resident_bytes()
            );
            for hint in [PoolLayout::Compressed, PoolLayout::Tiered] {
                assert_eq!(
                    compressed.encode_pcmp_payload(hint),
                    rebuilt.encode_pcmp_payload(hint)
                );
            }
            for o in [&tiered, &cold] {
                assert_eq!(o.to_bytes(), rebuilt.to_bytes(), "{}", o.pool_layout());
                assert_eq!(o.greedy_seed_set(3), rebuilt.greedy_seed_set(3));
            }
            // The snapshot still answers from the bytes it was taken with.
            assert_eq!(snapshot.to_bytes(), snapshot_bytes);
            assert_ne!(snapshot.to_bytes(), rebuilt.to_bytes());
        }
        std::fs::remove_file(&cold_path).ok();
    }

    /// A whole-pool pass over a file-backed pool streams: one
    /// `coverage_gains` reads the postings data region exactly once, in
    /// about `region bytes ÷ window` sequential reads — not one per vertex —
    /// while an estimate still costs one read per cold seed list.
    #[test]
    fn a_cold_pass_streams_its_region_in_a_handful_of_reads() {
        // impool's sweep window (a private constant there).
        const WINDOW: u64 = 256 * 1024;
        // 240k short lists: ~3 windows of encoded postings, none hot.
        let n = 240_000usize;
        let pool = 4_096u32;
        let lists: Vec<Vec<u32>> = (0..n as u32)
            .map(|v| match v % 3 {
                0 => vec![v % pool],
                1 => vec![v % 1_000, 1_000 + v % 3_000],
                _ => vec![],
            })
            .collect();
        let region_bytes: u64 = lists
            .iter()
            .map(|l| {
                let mut buf = Vec::new();
                impool::encode_list(l, &mut buf);
                buf.len() as u64
            })
            .sum();
        assert!(region_bytes > 2 * WINDOW, "fixture spans several windows");
        let resident = InfluenceOracle::builder(pool as usize)
            .assemble(n, lists)
            .expect("valid lists");
        let (cold, path) = demote_to_file(&resident, impool::DEFAULT_HOT_LIST_BYTES, "stream");

        let before = cold.pool().cold_reads();
        let gains = cold.coverage_gains(&[]);
        let after = cold.pool().cold_reads();
        assert_eq!(gains, resident.coverage_gains(&[]));
        assert_eq!(after.1 - before.1, region_bytes, "each region byte once");
        assert!(
            after.0 - before.0 <= region_bytes.div_ceil(WINDOW) + 1,
            "{} reads for {region_bytes} bytes",
            after.0 - before.0
        );

        // Random access is untouched: one read per cold list named.
        let before = cold.pool().cold_reads().0;
        assert_eq!(cold.estimate(&[0, 1, 3]), resident.estimate(&[0, 1, 3]));
        assert_eq!(cold.pool().cold_reads().0 - before, 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn covered_with_and_coverage_gains_match_the_estimators() {
        let ig = star(0.5);
        let oracle = InfluenceOracle::builder(5_000)
            .seed(13)
            .incremental()
            .sample(&ig);
        let mut scratch = oracle.scratch();
        for seeds in [vec![], vec![0u32], vec![0, 1], vec![1, 2, 3, 4]] {
            let covered = oracle.covered_with(&seeds, &mut scratch);
            assert_eq!(
                oracle.estimate(&seeds),
                oracle.num_vertices() as f64 * covered as f64 / oracle.pool_size() as f64
            );
        }
        // Empty selection: gains are the singleton coverage counts.
        let (gains, covered) = oracle.coverage_gains(&[]);
        assert_eq!(covered, 0);
        for (v, &g) in gains.iter().enumerate() {
            assert_eq!(g as usize, oracle.posting_list(v as u32).len());
        }
        // One greedy round driven by gains equals greedy_seed_set's pick.
        let first = gains
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(v, _)| v as u32)
            .unwrap();
        assert_eq!(oracle.greedy_seed_set(1).0, vec![first]);
        // Gains given the first pick never exceed the unconditional gains.
        let (gains_after, covered_after) = oracle.coverage_gains(&[first]);
        assert_eq!(covered_after, gains[first as usize]);
        assert!(gains_after.iter().zip(&gains).all(|(a, b)| a <= b));
        assert_eq!(gains_after[first as usize], 0);
    }
}
