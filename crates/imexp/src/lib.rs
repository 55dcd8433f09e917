//! Experiment harness reproducing the evaluation of Ohsaka (SIGMOD 2020).
//!
//! The harness is organised in three layers:
//!
//! * [`config`] — what to run: the instance (data set × probability model ×
//!   seed size), the sample-number sweep, the trial count and the scale knob
//!   that shrinks everything to laptop size;
//! * [`runner`] — how to run it: prepared instances (graph + shared influence
//!   oracle), parallel trial execution, and the per-sample-number analysis
//!   (seed-set distribution, entropy, influence summary statistics, sample
//!   curves);
//! * [`experiments`] — one driver per table/figure of the paper, each
//!   producing a serialisable report that renders as a plain-text table whose
//!   rows mirror the paper's.
//!
//! The `imexp` binary exposes every driver on the command line
//! (`imexp fig1 --scale quick`), and `imexp all --scale quick --json` prints
//! all of them as one [`experiments::PaperDocument`], committed as
//! `BENCH_paper.json`. [`loadtest`] additionally drives the unified
//! `InfluenceService` surface: the same workload against the local, remote
//! and sharded backends (`imexp loadtest --backend sharded:2`), with
//! byte-identity verification of the sharded merge. [`poolbench`] compares
//! the three `impool` pool-store layouts on the streamed million-vertex
//! Chung–Lu fixture from [`fixture`] (`imexp pool`, committed as
//! `BENCH_pool.json`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod config;
pub mod experiments;
pub mod fixture;
pub mod loadtest;
pub mod poolbench;
pub mod report;
pub mod runner;

pub use config::{ApproachKind, ExperimentScale, InstanceConfig, SweepConfig};
pub use report::TextTable;
pub use runner::{AnalyzedSweep, PreparedInstance, SampleAnalysis, TrialBatch};
