//! Typed graph mutations for evolving influence networks.
//!
//! The RR-set pool of the serving layer is a materialized view over the
//! influence graph, so keeping it valid under change requires a precise
//! notion of *what* changed. This module provides it:
//!
//! * [`GraphDelta`] — one typed mutation (`InsertEdge`, `DeleteEdge`,
//!   `SetProbability`) over a fixed vertex set;
//! * [`MutableInfluenceGraph`] — an edge-list representation that validates
//!   and applies deltas (one linear edge scan per delete/set-probability,
//!   O(m) worst case) and [materializes](MutableInfluenceGraph::materialize)
//!   back to the CSR [`InfluenceGraph`] with *deterministic* edge order, so a
//!   from-scratch rebuild at any version sees exactly the adjacency the
//!   incremental path saw. `materialize` is the *definition* of the graph at
//!   a version, not the maintenance path: a live CSR follows the edge list
//!   through [`InfluenceGraph::apply_patch`] ([`crate::CsrPatch`]: one
//!   sequential pass per array instead of a counting sort over all of them)
//!   and must equal `materialize()` field for field;
//! * [`DeltaLog`] — an append-only mutation log with a binary codec
//!   ([`binio::DELTA_TAG`] section payload plus a standalone checksummed
//!   artifact), so logs persist inside the workspace artifact format.
//!
//! The key ordering property the incremental RR-set maintenance of `im_core`
//! relies on: a delta touching edge `(u, v)` changes the in-edge list of `v`
//! and of *no other vertex*. Insertion appends the edge with the largest edge
//! id (hence at the end of `v`'s CSR in-list), deletion removes one entry
//! while preserving the relative order of all remaining edges, and a
//! probability change rewrites one slot in place. Every other vertex's
//! `(source, probability)` in-edge sequence is bit-identical before and after
//! the delta.

use serde::{Deserialize, Serialize};

use crate::binio::{
    self, influence_graph_from_bytes, influence_graph_to_bytes, BinError, BinReader, BinWriter,
    DELTA_TAG, SNAPSHOT_TAG,
};
use crate::{DiGraph, Edge, InfluenceGraph, VertexId};

/// Magic bytes of a standalone serialized [`DeltaLog`].
pub const DELTA_MAGIC: [u8; 4] = *b"IMDL";
/// Current [`DeltaLog`] format version.
pub const DELTA_VERSION: u32 = 1;

/// Magic bytes of a standalone serialized [`GraphSnapshot`].
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"IMSN";
/// Current [`GraphSnapshot`] format version.
pub const SNAPSHOT_VERSION: u32 = 1;

const KIND_INSERT: u8 = 1;
const KIND_DELETE: u8 = 2;
const KIND_SET_PROBABILITY: u8 = 3;

/// One typed mutation of an influence graph over a fixed vertex set.
///
/// Parallel edges are legal (as in [`DiGraph`]); `DeleteEdge` and
/// `SetProbability` act on the *first* (lowest edge id) live edge matching
/// `(source, target)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum GraphDelta {
    /// Append a new edge `(source, target)` with the given probability.
    InsertEdge {
        /// Source vertex of the new edge.
        source: VertexId,
        /// Target vertex of the new edge.
        target: VertexId,
        /// Influence probability in `(0, 1]`.
        probability: f64,
    },
    /// Remove the first live edge `(source, target)`.
    DeleteEdge {
        /// Source vertex of the edge to delete.
        source: VertexId,
        /// Target vertex of the edge to delete.
        target: VertexId,
    },
    /// Overwrite the probability of the first live edge `(source, target)`.
    SetProbability {
        /// Source vertex of the edge to update.
        source: VertexId,
        /// Target vertex of the edge to update.
        target: VertexId,
        /// New influence probability in `(0, 1]`.
        probability: f64,
    },
}

impl GraphDelta {
    /// The *head* (target) vertex of the mutated edge — the only vertex whose
    /// in-edge list changes, and therefore the key for identifying the RR sets
    /// a delta can touch.
    #[must_use]
    pub fn head(&self) -> VertexId {
        match self {
            GraphDelta::InsertEdge { target, .. }
            | GraphDelta::DeleteEdge { target, .. }
            | GraphDelta::SetProbability { target, .. } => *target,
        }
    }

    /// The source vertex of the mutated edge.
    #[must_use]
    pub fn source(&self) -> VertexId {
        match self {
            GraphDelta::InsertEdge { source, .. }
            | GraphDelta::DeleteEdge { source, .. }
            | GraphDelta::SetProbability { source, .. } => *source,
        }
    }
}

impl std::fmt::Display for GraphDelta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphDelta::InsertEdge {
                source,
                target,
                probability,
            } => write!(f, "insert({source}->{target}, p={probability})"),
            GraphDelta::DeleteEdge { source, target } => write!(f, "delete({source}->{target})"),
            GraphDelta::SetProbability {
                source,
                target,
                probability,
            } => write!(f, "setp({source}->{target}, p={probability})"),
        }
    }
}

/// Why a [`GraphDelta`] could not be applied.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaError {
    /// An endpoint lies outside the graph's fixed vertex set.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: VertexId,
        /// Number of vertices of the graph.
        num_vertices: usize,
    },
    /// `DeleteEdge`/`SetProbability` named an edge that does not exist.
    EdgeNotFound {
        /// Source vertex of the missing edge.
        source: VertexId,
        /// Target vertex of the missing edge.
        target: VertexId,
    },
    /// The probability lies outside `(0, 1]` or is not finite.
    InvalidProbability {
        /// The offending probability.
        probability: f64,
    },
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "vertex {vertex} out of range for {num_vertices} vertices"
            ),
            DeltaError::EdgeNotFound { source, target } => {
                write!(f, "edge ({source}, {target}) not found")
            }
            DeltaError::InvalidProbability { probability } => {
                write!(f, "probability {probability} outside (0, 1]")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// What applying one delta changed (consumed by incremental maintenance).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaEffect {
    /// The head (target) vertex whose in-edge list changed.
    pub head: VertexId,
    /// Edge id (insertion index) of the affected edge *after* the delta for
    /// insert/set, *before* the delta for delete.
    pub edge_id: u32,
    /// Whether the adjacency structure changed (insert/delete) as opposed to
    /// only an edge attribute (probability).
    pub structural: bool,
}

/// What applying one atomic delta batch changed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchEffect {
    /// Per-delta effects, in application order.
    pub effects: Vec<DeltaEffect>,
    /// The distinct head vertices whose in-edge lists changed, sorted by id
    /// — exactly the vertices whose derived state (RR-set posting lists,
    /// per-vertex caches) a caller may need to invalidate after the batch.
    /// Informational: `im_core`'s batched maintenance re-derives the same
    /// set from the deltas themselves.
    pub dirty_heads: Vec<VertexId>,
    /// Number of structural deltas (insert/delete) in the batch. Zero means
    /// the batch only patched edge attributes and the adjacency is unchanged.
    pub structural: usize,
}

/// Why an atomic delta batch could not be applied: the first offending delta
/// and its underlying [`DeltaError`]. The target graph is left exactly as it
/// was before the batch (all-or-nothing semantics).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchError {
    /// Zero-based index of the delta that failed validation.
    pub index: usize,
    /// Why that delta was rejected.
    pub error: DeltaError,
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "batch delta {}: {}", self.index, self.error)
    }
}

impl std::error::Error for BatchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// An influence graph in mutable edge-list form.
///
/// The CSR [`InfluenceGraph`] is the right shape for traversal but not for
/// mutation; this type holds the same graph as `(edges, probabilities)` in
/// insertion order and re-derives the CSR on demand. Both representations
/// order each vertex's in-edges by edge id, so
/// [`materialize`](MutableInfluenceGraph::materialize) is deterministic: two
/// replicas that applied the same delta sequence produce bit-identical CSR
/// graphs (and therefore bit-identical RR samples for the same seeds).
#[derive(Debug, Clone, PartialEq)]
pub struct MutableInfluenceGraph {
    num_vertices: usize,
    edges: Vec<Edge>,
    probabilities: Vec<f64>,
}

impl MutableInfluenceGraph {
    /// An empty mutable graph over `n` vertices.
    #[must_use]
    pub fn new(num_vertices: usize) -> Self {
        Self {
            num_vertices,
            edges: Vec::new(),
            probabilities: Vec::new(),
        }
    }

    /// Snapshot an existing CSR influence graph into mutable form.
    ///
    /// Edges are taken in insertion (edge-id) order, so an immediate
    /// [`materialize`](MutableInfluenceGraph::materialize) reproduces the
    /// input graph structurally bit-for-bit.
    #[must_use]
    pub fn from_graph(graph: &InfluenceGraph) -> Self {
        Self {
            num_vertices: graph.num_vertices(),
            edges: graph.graph().edges_in_insertion_order(),
            probabilities: graph.probabilities().to_vec(),
        }
    }

    /// Number of vertices (fixed for the lifetime of the graph).
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Current number of edges.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Current edges in insertion order.
    #[must_use]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Current edge probabilities, indexed like [`MutableInfluenceGraph::edges`].
    #[must_use]
    pub fn probabilities(&self) -> &[f64] {
        &self.probabilities
    }

    /// Index of the first live edge `(source, target)`, if any.
    #[must_use]
    pub fn find_edge(&self, source: VertexId, target: VertexId) -> Option<usize> {
        self.edges.iter().position(|&e| e == (source, target))
    }

    fn check_vertex(&self, v: VertexId) -> Result<(), DeltaError> {
        if (v as usize) < self.num_vertices {
            Ok(())
        } else {
            Err(DeltaError::VertexOutOfRange {
                vertex: v,
                num_vertices: self.num_vertices,
            })
        }
    }

    fn check_probability(p: f64) -> Result<(), DeltaError> {
        if crate::is_valid_probability(p) {
            Ok(())
        } else {
            Err(DeltaError::InvalidProbability { probability: p })
        }
    }

    /// Validate a delta and locate its edge: `Ok(Some(index))` for
    /// delete/set-probability, `Ok(None)` for insert. One O(m) scan shared by
    /// [`MutableInfluenceGraph::validate`] and [`MutableInfluenceGraph::apply`]
    /// (the latter runs under the serving write lock, so the scan is not
    /// repeated there).
    fn check(&self, delta: &GraphDelta) -> Result<Option<usize>, DeltaError> {
        match *delta {
            GraphDelta::InsertEdge {
                source,
                target,
                probability,
            } => {
                self.check_vertex(source)?;
                self.check_vertex(target)?;
                Self::check_probability(probability)?;
                Ok(None)
            }
            GraphDelta::DeleteEdge { source, target } => {
                self.check_vertex(source)?;
                self.check_vertex(target)?;
                self.find_edge(source, target)
                    .map(Some)
                    .ok_or(DeltaError::EdgeNotFound { source, target })
            }
            GraphDelta::SetProbability {
                source,
                target,
                probability,
            } => {
                self.check_vertex(source)?;
                self.check_vertex(target)?;
                Self::check_probability(probability)?;
                self.find_edge(source, target)
                    .map(Some)
                    .ok_or(DeltaError::EdgeNotFound { source, target })
            }
        }
    }

    /// Validate a delta against the current state without applying it.
    pub fn validate(&self, delta: &GraphDelta) -> Result<(), DeltaError> {
        self.check(delta).map(|_| ())
    }

    /// Apply one delta, returning what changed.
    ///
    /// On error the graph is left untouched.
    pub fn apply(&mut self, delta: &GraphDelta) -> Result<DeltaEffect, DeltaError> {
        let located = self.check(delta)?;
        match *delta {
            GraphDelta::InsertEdge {
                source,
                target,
                probability,
            } => {
                assert!(
                    self.edges.len() < u32::MAX as usize,
                    "too many edges for u32 edge ids"
                );
                self.edges.push((source, target));
                self.probabilities.push(probability);
                Ok(DeltaEffect {
                    head: target,
                    edge_id: (self.edges.len() - 1) as u32,
                    structural: true,
                })
            }
            GraphDelta::DeleteEdge { target, .. } => {
                let at = located.expect("check located the edge");
                self.edges.remove(at);
                self.probabilities.remove(at);
                Ok(DeltaEffect {
                    head: target,
                    edge_id: at as u32,
                    structural: true,
                })
            }
            GraphDelta::SetProbability {
                target,
                probability,
                ..
            } => {
                let at = located.expect("check located the edge");
                self.probabilities[at] = probability;
                Ok(DeltaEffect {
                    head: target,
                    edge_id: at as u32,
                    structural: false,
                })
            }
        }
    }

    /// Apply a whole batch of deltas atomically.
    ///
    /// Unlike a loop over [`MutableInfluenceGraph::apply`], the batch is
    /// **all-or-nothing**: the deltas are staged against a scratch copy and
    /// committed only if every one of them validates, so a failed batch
    /// leaves the graph untouched (the per-delta path keeps the valid prefix
    /// applied instead). Deltas still take effect in order *within* the
    /// batch — a delete may name an edge inserted earlier in the same batch.
    ///
    /// The returned [`BatchEffect`] aggregates what batched incremental
    /// maintenance needs: the per-delta effects (which
    /// [`crate::CsrPatch::from_effects`] resolves into one net CSR patch for
    /// the whole batch), the sorted set of distinct dirty head vertices and
    /// whether any delta was structural.
    pub fn apply_batch(&mut self, deltas: &[GraphDelta]) -> Result<BatchEffect, BatchError> {
        let mut staged = self.clone();
        let mut effects = Vec::with_capacity(deltas.len());
        for (index, delta) in deltas.iter().enumerate() {
            match staged.apply(delta) {
                Ok(effect) => effects.push(effect),
                Err(error) => return Err(BatchError { index, error }),
            }
        }
        let mut dirty_heads: Vec<VertexId> = effects.iter().map(|e| e.head).collect();
        dirty_heads.sort_unstable();
        dirty_heads.dedup();
        let structural = effects.iter().filter(|e| e.structural).count();
        *self = staged;
        Ok(BatchEffect {
            effects,
            dirty_heads,
            structural,
        })
    }

    /// Re-derive the CSR [`InfluenceGraph`] at the current version, from
    /// scratch.
    ///
    /// Deterministic: the output depends only on the current edge list, which
    /// itself depends only on the initial graph and the applied delta
    /// sequence. This is the reference the in-place
    /// [`InfluenceGraph::apply_patch`] is tested against, and what rebuilds
    /// and snapshots use; the maintenance path does not call it.
    #[must_use]
    pub fn materialize(&self) -> InfluenceGraph {
        InfluenceGraph::new(
            DiGraph::from_edges(self.num_vertices, &self.edges),
            self.probabilities.clone(),
        )
    }
}

/// An append-only log of graph mutations.
///
/// The log is the write-ahead half of the index lifecycle: every applied
/// delta is appended, and a long-lived service periodically *compacts* the
/// log by folding it into its base graph ([`DeltaLog::compact`]), producing
/// an epoch-stamped [`GraphSnapshot`] with an empty pending log. Compaction
/// is pure bookkeeping — the snapshot graph is byte-identical to replaying
/// the log, which is what keeps rebuild byte-identity auditable across
/// compactions.
///
/// # Example
///
/// ```
/// use imgraph::{DeltaLog, GraphDelta, MutableInfluenceGraph};
///
/// let base = MutableInfluenceGraph::new(2);
/// let mut log = DeltaLog::new();
/// log.push(GraphDelta::InsertEdge { source: 0, target: 1, probability: 0.5 });
/// log.push(GraphDelta::SetProbability { source: 0, target: 1, probability: 1.0 });
///
/// // Folding the log into the base is byte-identical to replaying it…
/// let snapshot = log.compact(&base, 0).unwrap();
/// let mut replayed = base.clone();
/// log.replay(&mut replayed).unwrap();
/// assert_eq!(snapshot.graph(), &replayed);
/// // …and the snapshot is stamped with the epoch the log reached.
/// assert_eq!(snapshot.epoch(), 2);
///
/// // The snapshot round-trips through its checksummed artifact.
/// let bytes = snapshot.to_bytes();
/// assert_eq!(imgraph::GraphSnapshot::from_bytes(&bytes).unwrap(), snapshot);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaLog {
    deltas: Vec<GraphDelta>,
}

impl DeltaLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A log holding the given deltas.
    #[must_use]
    pub fn from_deltas(deltas: Vec<GraphDelta>) -> Self {
        Self { deltas }
    }

    /// Append one delta.
    pub fn push(&mut self, delta: GraphDelta) {
        self.deltas.push(delta);
    }

    /// Number of logged deltas.
    #[must_use]
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// Whether the log is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// The logged deltas in application order.
    #[must_use]
    pub fn deltas(&self) -> &[GraphDelta] {
        &self.deltas
    }

    /// Iterate over the logged deltas in application order.
    pub fn iter(&self) -> impl Iterator<Item = &GraphDelta> + '_ {
        self.deltas.iter()
    }

    /// Replay the whole log onto a mutable graph (stops at the first error).
    pub fn replay(&self, graph: &mut MutableInfluenceGraph) -> Result<(), DeltaError> {
        for delta in &self.deltas {
            graph.apply(delta)?;
        }
        Ok(())
    }

    /// Fold the whole log into `base`, producing an epoch-stamped
    /// [`GraphSnapshot`] whose pending log is empty.
    ///
    /// `base_epoch` is the epoch `base` is already at (the number of deltas
    /// folded into it by earlier compactions); the snapshot is stamped
    /// `base_epoch + self.len()`. The fold is applied atomically
    /// ([`MutableInfluenceGraph::apply_batch`]), and the resulting graph is
    /// **byte-identical** to replaying the log delta by delta — compaction
    /// changes where the history is stored, never what the graph is.
    pub fn compact(
        &self,
        base: &MutableInfluenceGraph,
        base_epoch: u64,
    ) -> Result<GraphSnapshot, BatchError> {
        let mut graph = base.clone();
        graph.apply_batch(&self.deltas)?;
        Ok(GraphSnapshot {
            epoch: base_epoch + self.deltas.len() as u64,
            graph,
        })
    }

    /// Encode the log as a section payload (the content of a
    /// [`binio::DELTA_TAG`] section inside a larger artifact).
    #[must_use]
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(8 + self.deltas.len() * 17);
        binio::put_u64(&mut buf, self.deltas.len() as u64);
        for delta in &self.deltas {
            match *delta {
                GraphDelta::InsertEdge {
                    source,
                    target,
                    probability,
                } => {
                    buf.push(KIND_INSERT);
                    binio::put_u32(&mut buf, source);
                    binio::put_u32(&mut buf, target);
                    binio::put_f64(&mut buf, probability);
                }
                GraphDelta::DeleteEdge { source, target } => {
                    buf.push(KIND_DELETE);
                    binio::put_u32(&mut buf, source);
                    binio::put_u32(&mut buf, target);
                }
                GraphDelta::SetProbability {
                    source,
                    target,
                    probability,
                } => {
                    buf.push(KIND_SET_PROBABILITY);
                    binio::put_u32(&mut buf, source);
                    binio::put_u32(&mut buf, target);
                    binio::put_f64(&mut buf, probability);
                }
            }
        }
        buf
    }

    /// Decode a payload written by [`DeltaLog::encode_payload`].
    ///
    /// Probabilities are re-validated (`(0, 1]`, finite); anything else is
    /// reported as a typed [`BinError`], never a panic.
    pub fn decode_payload(mut payload: binio::Payload<'_>) -> Result<Self, BinError> {
        let count = usize::try_from(payload.u64()?)
            .map_err(|_| BinError::Corrupt("delta count exceeds usize".into()))?;
        // Each record is at least 9 bytes; reject forged counts up front.
        if count > payload.remaining() / 9 {
            return Err(BinError::Truncated {
                needed: count.saturating_mul(9),
                available: payload.remaining(),
            });
        }
        let mut deltas = Vec::with_capacity(count);
        for _ in 0..count {
            let kind = payload.u8()?;
            let source = payload.u32()?;
            let target = payload.u32()?;
            let delta = match kind {
                KIND_INSERT => GraphDelta::InsertEdge {
                    source,
                    target,
                    probability: decode_probability(payload.f64()?)?,
                },
                KIND_DELETE => GraphDelta::DeleteEdge { source, target },
                KIND_SET_PROBABILITY => GraphDelta::SetProbability {
                    source,
                    target,
                    probability: decode_probability(payload.f64()?)?,
                },
                other => {
                    return Err(BinError::Corrupt(format!("unknown delta kind {other}")));
                }
            };
            deltas.push(delta);
        }
        if payload.remaining() != 0 {
            return Err(BinError::Corrupt(format!(
                "{} trailing bytes in delta section",
                payload.remaining()
            )));
        }
        Ok(Self { deltas })
    }

    /// Serialize the log as a standalone checksummed artifact.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = BinWriter::new(DELTA_MAGIC, DELTA_VERSION);
        w.section(DELTA_TAG, &self.encode_payload());
        w.finish()
    }

    /// Deserialize a standalone log written by [`DeltaLog::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, BinError> {
        let sections = BinReader::new(bytes, DELTA_MAGIC, DELTA_VERSION)?.sections()?;
        Self::decode_payload(binio::require_section(&sections, DELTA_TAG)?)
    }
}

/// An epoch-stamped compaction snapshot: the graph with every logged delta
/// folded in, plus the epoch watermark recording *how many* deltas ever
/// reached it.
///
/// Produced by [`DeltaLog::compact`]. The watermark is what keeps epochs
/// monotonic across compactions: a service that compacts at epoch `e`
/// restarts its pending log empty but keeps counting from `e`, so
/// epoch-keyed caches built before the compaction stay structurally
/// unreachable rather than accidentally valid.
///
/// Persisted as a standalone checksummed artifact (magic `IMSN`): a
/// [`binio::SNAPSHOT_TAG`] section holding the epoch and a nested
/// influence-graph artifact holding the folded graph in edge-insertion
/// order, so `serialize → deserialize → serialize` is byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphSnapshot {
    epoch: u64,
    graph: MutableInfluenceGraph,
}

impl GraphSnapshot {
    /// A snapshot of `graph` at the given epoch watermark.
    #[must_use]
    pub fn new(epoch: u64, graph: MutableInfluenceGraph) -> Self {
        Self { epoch, graph }
    }

    /// The epoch watermark: total deltas ever folded into this graph.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The folded graph.
    #[must_use]
    pub fn graph(&self) -> &MutableInfluenceGraph {
        &self.graph
    }

    /// Consume the snapshot, returning the folded graph.
    #[must_use]
    pub fn into_graph(self) -> MutableInfluenceGraph {
        self.graph
    }

    /// Serialize the snapshot as a standalone checksummed artifact.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = BinWriter::new(SNAPSHOT_MAGIC, SNAPSHOT_VERSION);
        let mut stamp = Vec::with_capacity(8);
        binio::put_u64(&mut stamp, self.epoch);
        w.section(SNAPSHOT_TAG, &stamp);
        w.section(
            binio::GRAPH_MAGIC,
            &influence_graph_to_bytes(&self.graph.materialize()),
        );
        w.finish()
    }

    /// Deserialize a snapshot written by [`GraphSnapshot::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, BinError> {
        let sections = BinReader::new(bytes, SNAPSHOT_MAGIC, SNAPSHOT_VERSION)?.sections()?;
        let mut stamp = binio::require_section(&sections, SNAPSHOT_TAG)?;
        let epoch = stamp.u64()?;
        if stamp.remaining() != 0 {
            return Err(BinError::Corrupt(format!(
                "{} trailing bytes in snapshot stamp",
                stamp.remaining()
            )));
        }
        let graph_payload = binio::require_section(&sections, binio::GRAPH_MAGIC)?;
        let graph = influence_graph_from_bytes(graph_payload.rest())?;
        Ok(Self {
            epoch,
            graph: MutableInfluenceGraph::from_graph(&graph),
        })
    }
}

fn decode_probability(p: f64) -> Result<f64, BinError> {
    if crate::is_valid_probability(p) {
        Ok(p)
    } else {
        Err(BinError::Corrupt(format!(
            "delta probability {p} outside (0, 1]"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> InfluenceGraph {
        let g = DiGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        InfluenceGraph::new(g, vec![0.5, 0.25, 1.0, 0.125])
    }

    #[test]
    fn from_graph_materializes_back_identically() {
        let ig = diamond();
        let mutable = MutableInfluenceGraph::from_graph(&ig);
        let back = mutable.materialize();
        assert_eq!(
            back.graph().edges_in_insertion_order(),
            ig.graph().edges_in_insertion_order()
        );
        assert_eq!(back.probabilities(), ig.probabilities());
    }

    #[test]
    fn insert_appends_with_the_largest_edge_id() {
        let mut mutable = MutableInfluenceGraph::from_graph(&diamond());
        let effect = mutable
            .apply(&GraphDelta::InsertEdge {
                source: 3,
                target: 0,
                probability: 0.75,
            })
            .unwrap();
        assert_eq!(
            effect,
            DeltaEffect {
                head: 0,
                edge_id: 4,
                structural: true
            }
        );
        assert_eq!(mutable.num_edges(), 5);
        let ig = mutable.materialize();
        // The new edge is the last in-edge of vertex 0.
        let inn: Vec<_> = ig.in_edges_with_prob(0).collect();
        assert_eq!(inn, vec![(3, 0.75)]);
    }

    #[test]
    fn delete_preserves_other_in_edge_orders() {
        let mut mutable = MutableInfluenceGraph::from_graph(&diamond());
        let before: Vec<_> = mutable
            .materialize()
            .in_edges_with_prob(3)
            .collect::<Vec<_>>();
        let effect = mutable
            .apply(&GraphDelta::DeleteEdge {
                source: 0,
                target: 2,
            })
            .unwrap();
        assert_eq!(effect.head, 2);
        assert!(effect.structural);
        let after = mutable.materialize();
        // Vertex 3's in-edge sequence is untouched by a mutation on vertex 2.
        assert_eq!(after.in_edges_with_prob(3).collect::<Vec<_>>(), before);
        assert_eq!(after.in_edges_with_prob(2).count(), 0);
        assert_eq!(after.num_edges(), 3);
    }

    #[test]
    fn set_probability_changes_one_slot_in_place() {
        let mut mutable = MutableInfluenceGraph::from_graph(&diamond());
        let effect = mutable
            .apply(&GraphDelta::SetProbability {
                source: 1,
                target: 3,
                probability: 0.0625,
            })
            .unwrap();
        assert_eq!(
            effect,
            DeltaEffect {
                head: 3,
                edge_id: 2,
                structural: false
            }
        );
        let ig = mutable.materialize();
        assert_eq!(ig.probability(2), 0.0625);
        assert_eq!(ig.probability(0), 0.5);
    }

    #[test]
    fn parallel_edges_delete_the_first_match() {
        let g = DiGraph::from_edges(2, &[(0, 1), (0, 1)]);
        let ig = InfluenceGraph::new(g, vec![0.25, 0.75]);
        let mut mutable = MutableInfluenceGraph::from_graph(&ig);
        mutable
            .apply(&GraphDelta::DeleteEdge {
                source: 0,
                target: 1,
            })
            .unwrap();
        assert_eq!(mutable.probabilities(), &[0.75]);
    }

    #[test]
    fn invalid_deltas_are_typed_errors_and_leave_the_graph_untouched() {
        let mut mutable = MutableInfluenceGraph::from_graph(&diamond());
        let snapshot = mutable.clone();
        assert_eq!(
            mutable.apply(&GraphDelta::InsertEdge {
                source: 0,
                target: 9,
                probability: 0.5
            }),
            Err(DeltaError::VertexOutOfRange {
                vertex: 9,
                num_vertices: 4
            })
        );
        assert_eq!(
            mutable.apply(&GraphDelta::DeleteEdge {
                source: 3,
                target: 0
            }),
            Err(DeltaError::EdgeNotFound {
                source: 3,
                target: 0
            })
        );
        assert_eq!(
            mutable.apply(&GraphDelta::InsertEdge {
                source: 0,
                target: 1,
                probability: 0.0
            }),
            Err(DeltaError::InvalidProbability { probability: 0.0 })
        );
        assert_eq!(
            mutable.apply(&GraphDelta::SetProbability {
                source: 0,
                target: 1,
                probability: 1.5
            }),
            Err(DeltaError::InvalidProbability { probability: 1.5 })
        );
        assert_eq!(mutable, snapshot, "failed deltas must not mutate");
    }

    #[test]
    fn delta_log_round_trips_standalone() {
        let log = DeltaLog::from_deltas(vec![
            GraphDelta::InsertEdge {
                source: 0,
                target: 1,
                probability: 0.5,
            },
            GraphDelta::DeleteEdge {
                source: 2,
                target: 3,
            },
            GraphDelta::SetProbability {
                source: 1,
                target: 0,
                probability: 1.0,
            },
        ]);
        let bytes = log.to_bytes();
        let back = DeltaLog::from_bytes(&bytes).unwrap();
        assert_eq!(back, log);
        assert_eq!(back.to_bytes(), bytes, "re-encode is byte-identical");
        assert_eq!(back.len(), 3);
        assert!(!back.is_empty());
        assert_eq!(back.iter().count(), 3);
    }

    #[test]
    fn delta_log_corruption_is_rejected() {
        let log = DeltaLog::from_deltas(vec![GraphDelta::InsertEdge {
            source: 0,
            target: 1,
            probability: 0.5,
        }]);
        let bytes = log.to_bytes();
        for cut in 0..bytes.len() {
            assert!(DeltaLog::from_bytes(&bytes[..cut]).is_err());
        }
        let mut damaged = bytes.clone();
        damaged[bytes.len() / 2] ^= 0x10;
        assert!(DeltaLog::from_bytes(&damaged).is_err());
        // A structurally valid payload with an invalid probability is Corrupt.
        let mut payload = Vec::new();
        binio::put_u64(&mut payload, 1);
        payload.push(KIND_INSERT);
        binio::put_u32(&mut payload, 0);
        binio::put_u32(&mut payload, 1);
        binio::put_f64(&mut payload, 2.0);
        let mut w = BinWriter::new(DELTA_MAGIC, DELTA_VERSION);
        w.section(DELTA_TAG, &payload);
        assert!(matches!(
            DeltaLog::from_bytes(&w.finish()),
            Err(BinError::Corrupt(_))
        ));
        // Unknown kind byte.
        let mut payload = Vec::new();
        binio::put_u64(&mut payload, 1);
        payload.push(9);
        binio::put_u32(&mut payload, 0);
        binio::put_u32(&mut payload, 1);
        let mut w = BinWriter::new(DELTA_MAGIC, DELTA_VERSION);
        w.section(DELTA_TAG, &payload);
        assert!(DeltaLog::from_bytes(&w.finish()).is_err());
    }

    #[test]
    fn replay_applies_in_order() {
        let mut mutable = MutableInfluenceGraph::new(3);
        let log = DeltaLog::from_deltas(vec![
            GraphDelta::InsertEdge {
                source: 0,
                target: 1,
                probability: 0.5,
            },
            GraphDelta::InsertEdge {
                source: 1,
                target: 2,
                probability: 0.25,
            },
            GraphDelta::SetProbability {
                source: 0,
                target: 1,
                probability: 0.75,
            },
        ]);
        log.replay(&mut mutable).unwrap();
        assert_eq!(mutable.num_edges(), 2);
        assert_eq!(mutable.probabilities(), &[0.75, 0.25]);
        // A log whose delta fails stops at the failure.
        let bad = DeltaLog::from_deltas(vec![GraphDelta::DeleteEdge {
            source: 2,
            target: 0,
        }]);
        assert!(bad.replay(&mut mutable).is_err());
    }

    #[test]
    fn apply_batch_is_atomic_and_aggregates_dirty_heads() {
        let mut mutable = MutableInfluenceGraph::from_graph(&diamond());
        let batch = [
            GraphDelta::InsertEdge {
                source: 3,
                target: 0,
                probability: 0.75,
            },
            GraphDelta::SetProbability {
                source: 0,
                target: 1,
                probability: 1.0,
            },
            GraphDelta::DeleteEdge {
                source: 0,
                target: 2,
            },
            // A delete that only becomes valid after the first insert.
            GraphDelta::DeleteEdge {
                source: 3,
                target: 0,
            },
        ];
        let effect = mutable.apply_batch(&batch).unwrap();
        assert_eq!(effect.effects.len(), 4);
        assert_eq!(effect.dirty_heads, vec![0, 1, 2]);
        assert_eq!(effect.structural, 3);

        // The batch result equals applying the same deltas one by one.
        let mut sequential = MutableInfluenceGraph::from_graph(&diamond());
        for delta in &batch {
            sequential.apply(delta).unwrap();
        }
        assert_eq!(mutable, sequential);

        // A failing batch leaves the graph untouched (all-or-nothing), and
        // names the offending delta.
        let snapshot = mutable.clone();
        let err = mutable
            .apply_batch(&[
                GraphDelta::SetProbability {
                    source: 0,
                    target: 1,
                    probability: 0.5,
                },
                GraphDelta::DeleteEdge {
                    source: 9,
                    target: 9,
                },
            ])
            .unwrap_err();
        assert_eq!(err.index, 1);
        assert!(matches!(err.error, DeltaError::VertexOutOfRange { .. }));
        assert!(err.to_string().contains("batch delta 1"));
        assert_eq!(mutable, snapshot, "failed batches must not mutate");

        // The empty batch is a no-op with an empty effect.
        let effect = mutable.apply_batch(&[]).unwrap();
        assert!(effect.effects.is_empty());
        assert!(effect.dirty_heads.is_empty());
        assert_eq!(effect.structural, 0);
    }

    #[test]
    fn compact_equals_replay_and_stamps_the_epoch() {
        let base = MutableInfluenceGraph::from_graph(&diamond());
        let log = DeltaLog::from_deltas(vec![
            GraphDelta::InsertEdge {
                source: 3,
                target: 0,
                probability: 0.5,
            },
            GraphDelta::DeleteEdge {
                source: 0,
                target: 1,
            },
        ]);
        let snapshot = log.compact(&base, 7).unwrap();
        assert_eq!(snapshot.epoch(), 9, "base epoch plus folded deltas");
        let mut replayed = base.clone();
        log.replay(&mut replayed).unwrap();
        assert_eq!(snapshot.graph(), &replayed);
        assert_eq!(
            influence_graph_to_bytes(&snapshot.graph().materialize()),
            influence_graph_to_bytes(&replayed.materialize()),
            "compaction is byte-identical to replay"
        );
        // A log that does not apply reports the failing delta and folds
        // nothing.
        let bad = DeltaLog::from_deltas(vec![GraphDelta::DeleteEdge {
            source: 1,
            target: 0,
        }]);
        assert!(bad.compact(&base, 0).is_err());
    }

    #[test]
    fn graph_snapshot_round_trips_and_rejects_corruption() {
        let base = MutableInfluenceGraph::from_graph(&diamond());
        let log = DeltaLog::from_deltas(vec![GraphDelta::SetProbability {
            source: 1,
            target: 3,
            probability: 1.0,
        }]);
        let snapshot = log.compact(&base, 3).unwrap();
        let bytes = snapshot.to_bytes();
        let back = GraphSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snapshot);
        assert_eq!(back.to_bytes(), bytes, "re-encode is byte-identical");
        assert_eq!(back.epoch(), 4);
        assert_eq!(back.clone().into_graph(), snapshot.graph().clone());
        for cut in [0, 9, bytes.len() / 2, bytes.len() - 1] {
            assert!(GraphSnapshot::from_bytes(&bytes[..cut]).is_err());
        }
        let mut damaged = bytes.clone();
        damaged[bytes.len() / 2] ^= 0x20;
        assert!(GraphSnapshot::from_bytes(&damaged).is_err());
    }

    #[test]
    fn deltas_serialize_on_the_wire() {
        let delta = GraphDelta::InsertEdge {
            source: 3,
            target: 7,
            probability: 0.5,
        };
        let json = serde_json::to_string(&delta).unwrap();
        let back: GraphDelta = serde_json::from_str(&json).unwrap();
        assert_eq!(back, delta);
        assert_eq!(delta.head(), 7);
        assert_eq!(delta.source(), 3);
        assert!(delta.to_string().contains("insert"));
    }
}
