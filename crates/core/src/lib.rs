//! Influence maximization under the independent cascade and linear threshold
//! models.
//!
//! This crate is the paper's subject matter: the greedy framework of
//! Algorithm 3.1 together with the three influence estimators it can be
//! instantiated with —
//!
//! * [`OneshotEstimator`] (Algorithm 3.2) — `β` forward Monte-Carlo
//!   simulations per [`InfluenceEstimator::estimate`] call;
//! * [`SnapshotEstimator`] (Algorithm 3.3) — `τ` live-edge graphs sampled once
//!   in Build and shared across the whole greedy selection, with the optional
//!   subgraph-reduction Update of Section 3.4.3;
//! * [`RisEstimator`] (Algorithm 3.4) — `θ` reverse-reachable sets and greedy
//!   maximum coverage.
//!
//! Each estimator is written once against the [`Diffusion`] seam and runs
//! under the paper's independent cascade model ([`Ic`], what the `new` and
//! `with_backend` constructors build) or under the linear threshold extension
//! ([`Lt`], through `under` and `under_backend`).
//!
//! Every estimator accounts for its work in the paper's two
//! implementation-independent metrics: the *traversal cost* (vertices and
//! edges examined, [`TraversalCost`]) and the *sample size* (vertices and
//! edges stored in memory, [`SampleSize`]).
//!
//! Supporting modules:
//!
//! * [`sampler`] — the shared batch-sampling execution layer all three
//!   estimators drive: a [`sampler::SampleBudget`] split into batches with one
//!   SplitMix64-derived PRNG stream each, executed sequentially or (with the
//!   `parallel` feature) across worker threads with byte-identical results;
//! * [`diffusion`] — forward IC simulation and the [`Diffusion`] seam, with
//!   the linear-threshold primitives in [`lt`];
//! * [`greedy`] — the shared greedy loop with the random tie-breaking rule of
//!   Section 4.1, plus the CELF lazy-greedy acceleration of Section 3.3.3;
//! * [`oracle`] — the reusable RR-set–based influence oracle the paper uses to
//!   evaluate the quality of returned seed sets (Section 5.2);
//! * [`bounds`] — the worst-case sample-number bounds quoted in Sections 3.3.3,
//!   3.4.3 and 3.5.3, used for the bound-gap discussion of Section 5.2.1;
//! * [`algorithm`] — a small front-end enum selecting an approach and a sample
//!   number, which is what the experiment harness drives.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod bounds;
pub mod celfpp;
pub mod cost;
pub mod determination;
pub mod diffusion;
pub mod estimator;
pub mod exact;
pub mod greedy;
pub mod lt;
pub mod oneshot;
pub mod oracle;
pub mod ris;
pub mod sampler;
pub mod seed_set;
pub mod snapshot;
pub mod ublf;

pub use algorithm::{Algorithm, RunOptions, RunOutcome};
pub use celfpp::celf_pp_select;
pub use cost::{SampleSize, TraversalCost};
pub use determination::AccuracyTarget;
pub use diffusion::{Diffusion, Ic, Lt};
pub use estimator::InfluenceEstimator;
pub use exact::{exact_greedy, exact_influence};
pub use greedy::{celf_select, greedy_select, GreedyResult};
pub use oneshot::OneshotEstimator;
pub use oracle::{
    drive_greedy, settle_round, shard_layout, EstimateScratch, GreedyPass, GreedyRounds,
    InfluenceOracle, OracleBuilder, ShardRange, TopGains, ROUND_CANDIDATES,
};
// Pool storage-engine surface (re-exported so oracle callers pick layouts
// without depending on impool directly).
pub use impool::{ListRef, Pool, PoolLayout, TieredConfig};
pub use ris::RisEstimator;
pub use sampler::{Backend, SampleBudget};
pub use seed_set::SeedSet;
pub use snapshot::SnapshotEstimator;
pub use ublf::{influence_upper_bounds, ublf_select};

/// The generic estimators instantiated with [`Lt`].
#[cfg(test)]
mod lt_estimators {
    mod tests;
}
