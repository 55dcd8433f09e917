//! Directed-graph and influence-graph substrate for the influence-maximization
//! study.
//!
//! The paper works with two kinds of graph (Section 2.1):
//!
//! * a *deterministic* directed graph `G = (V, E)`, represented here by
//!   [`DiGraph`] — a compressed sparse row (CSR) structure over `u32` vertex
//!   ids with both forward and reverse adjacency;
//! * an *influence graph* `G = (V, E, p)` attaching an influence probability
//!   `p(e) ∈ (0, 1]` to each edge, represented by [`InfluenceGraph`].
//!
//! On top of the storage types this crate provides the graph operations the
//! three algorithmic approaches need:
//!
//! * [`reach`] — breadth-first reachability with reusable workspaces; computes
//!   `r_G(S)`, the number of vertices reachable from a seed set, which is what
//!   Snapshot's estimator evaluates (Algorithm 3.3);
//! * [`live_edge`] — sampling of live-edge graphs ("random graphs" `G ∼ 𝒢` in
//!   the paper's random-graph interpretation of the IC model);
//! * [`components`] — weakly/strongly connected components, used to verify the
//!   giant-component behaviour discussed in Section 5.3;
//! * [`stats`] — the network statistics of Table 3 (degrees, clustering
//!   coefficient, average distance);
//! * [`io`] — plain-text edge-list parsing and writing;
//! * [`binio`] — the checksummed binary artifact format (magic/version header,
//!   tagged length-prefixed sections) shared by every persisted index in the
//!   workspace, with the [`InfluenceGraph`] codec;
//! * [`delta`] — typed graph mutations ([`GraphDelta`]), the mutable
//!   edge-list representation ([`MutableInfluenceGraph`]) they apply to
//!   (singly or in atomic batches), the persisted mutation log
//!   ([`DeltaLog`]) behind the evolving-graph subsystem (`imdyn`), and the
//!   epoch-stamped compaction snapshot ([`GraphSnapshot`]) the log folds
//!   into;
//! * [`CsrPatch`] / [`InfluenceGraph::apply_patch`] — a batch's net change
//!   applied to the CSR in place, one sequential pass per array, equal field
//!   for field to re-materializing the edited edge list;
//! * [`lineage`] — the maintainable content fingerprint replicas, logs and
//!   hot-swapped artifacts are checked against.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod binio;
pub mod builder;
pub mod coarsen;
pub mod components;
mod csr;
pub mod delta;
mod influence;
pub mod io;
pub mod lineage;
pub mod live_edge;
mod patch;
pub mod reach;
pub mod stats;

pub use builder::GraphBuilder;
pub use csr::DiGraph;
pub use delta::{
    BatchEffect, BatchError, DeltaEffect, DeltaError, DeltaLog, GraphDelta, GraphSnapshot,
    MutableInfluenceGraph,
};
pub use influence::{is_valid_probability, InfluenceGraph};
pub use patch::CsrPatch;

/// Vertex identifier. Graphs in this study have at most a few million
/// vertices, so 32 bits suffice and halve the memory traffic of adjacency
/// arrays compared with `usize`.
pub type VertexId = u32;

/// A directed edge `(source, target)`.
pub type Edge = (VertexId, VertexId);
