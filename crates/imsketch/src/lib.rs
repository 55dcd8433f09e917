//! Sketch substrates for influence maximization.
//!
//! Sections 3.4.3 and 3.5.3 of the paper survey the "efficient implementation"
//! techniques layered on top of the Snapshot and RIS approaches, and Section 7
//! asks whether the memory footprint of Snapshot and RIS can be cut down, e.g.
//! "by compressing reverse-reachable sets". This crate implements those
//! substrates so the ablation benches can quantify what each buys:
//!
//! * [`bottomk`] — Cohen-style bottom-k min-hash reachability sketches, the
//!   machinery behind SKIM (Cohen, Delling, Pajor, Werneck, CIKM 2014). A
//!   sketch of `k` ranks per vertex estimates the size of its reachable set in
//!   a live-edge snapshot without materialising it.
//! * [`descendant`] — exact descendant counting on the SCC condensation with
//!   bit-parallel reachability, the problem Section 3.4.3 points out is
//!   unsolvable in truly sub-quadratic time; our implementation is the
//!   straightforward quadratic-with-small-constant routine used by
//!   pruned-BFS-style Snapshot accelerations (Ohsaka et al., AAAI 2014) at the
//!   scales of this study.
//! * [`skim`] — sketch-space greedy seed selection over a set of live-edge
//!   snapshots: a simplified SKIM that ranks candidates by sketch-estimated
//!   coverage and rebuilds residual sketches after each selection.
//!
//! Compressed RR sets, the other space-reduction answer, are a pool layout
//! of the shared oracle (`impool`'s delta-varint `PoolLayout::Compressed`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bottomk;
pub mod descendant;
pub mod skim;

pub use bottomk::{BottomKSketch, ReachabilitySketches};
pub use descendant::descendant_counts;
pub use skim::SketchGreedy;
