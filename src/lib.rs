//! # im-study
//!
//! A Rust reproduction of *"The Solution Distribution of Influence
//! Maximization: A High-level Experimental Study on Three Algorithmic
//! Approaches"* (Naoto Ohsaka, SIGMOD 2020).
//!
//! The workspace implements the three algorithmic approaches the paper studies
//! — **Oneshot** (Monte-Carlo simulation), **Snapshot** (pre-sampled live-edge
//! graphs) and **RIS** (reverse influence sampling) — on top of substrates
//! built from scratch (graphs, generators, PRNGs, diffusion simulation), plus
//! the full experimental harness that regenerates every table and figure of
//! the paper's evaluation.
//!
//! This facade crate re-exports the member crates under stable names and
//! offers a small [`prelude`] so examples and downstream users can get going
//! with one import:
//!
//! ```
//! use im_study::prelude::*;
//!
//! // Build an influence graph: the Karate club under the uniform cascade.
//! let graph = Dataset::Karate.influence_graph(ProbabilityModel::uc01(), 0);
//!
//! // Pick 2 seeds with RIS using 4,096 RR sets.
//! let outcome = Algorithm::Ris { theta: 4_096 }.run(&graph, 2, 42);
//! assert_eq!(outcome.seeds.len(), 2);
//!
//! // Evaluate the chosen seeds with a shared influence oracle.
//! let mut rng = imrand::default_rng(7);
//! let oracle = InfluenceOracle::builder(50_000).sample_with_rng(&graph, &mut rng);
//! let spread = oracle.estimate_seed_set(&outcome.seeds);
//! assert!(spread > 2.0 && spread < 34.0);
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`imrand`] | MT19937, PCG32, SplitMix64, sampling utilities |
//! | [`imgraph`] | CSR digraphs, influence graphs, reachability, components, statistics |
//! | [`imnet`] | Karate club, Barabási–Albert / Erdős–Rényi / Watts–Strogatz / Chung–Lu generators, SNAP analogs, edge-probability models |
//! | [`im_core`] | IC/LT diffusion, greedy framework, Oneshot / Snapshot / RIS (both models), CELF / CELF++ / UBLF pruning, exact influence, sample-number determination, influence oracle, worst-case bounds |
//! | [`imdyn`] | incremental RR-set maintenance for evolving graphs: typed deltas, dirty-set resampling, rebuild-equivalence contract |
//! | [`imheur`] | heuristic baselines: degree, degree discount, PageRank, IRIE, random |
//! | [`imsketch`] | bottom-k reachability sketches, exact descendant counting, sketch-space greedy |
//! | [`imstats`] | seed-set distributions, Shannon entropy, divergences, confidence intervals, influence summary statistics, comparable ratios |
//! | [`imexp`] | experiment drivers for every table and figure of the paper |
//! | [`imserve`] | persistent influence-query service: typed `InfluenceService` trait over local/remote/sharded backends, binary RR-index build/load (whole pools or shards), query engine with TopK LRU cache and mutation WAL, TCP front ends (one wire protocol, v2 frames), loadtest |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use im_core;
pub use imdyn;
pub use imexp;
pub use imgraph;
pub use imheur;
pub use imnet;
pub use imrand;
pub use imserve;
pub use imsketch;
pub use imstats;

/// The most commonly used types, re-exported for one-line imports.
pub mod prelude {
    pub use im_core::{
        Algorithm, Backend, InfluenceEstimator, InfluenceOracle, OneshotEstimator, RisEstimator,
        RunOptions, RunOutcome, SampleBudget, SampleSize, SeedSet, SnapshotEstimator,
        TraversalCost,
    };
    pub use imdyn::DynamicOracle;
    pub use imexp::{ApproachKind, ExperimentScale, InstanceConfig, PreparedInstance, SweepConfig};
    pub use imgraph::{
        DeltaLog, DiGraph, GraphBuilder, GraphDelta, InfluenceGraph, MutableInfluenceGraph,
        VertexId,
    };
    pub use imheur::{DegreeDiscount, MaxDegree, PageRankSelector, SeedSelector};
    pub use imnet::{Dataset, DatasetSpec, ProbabilityModel};
    pub use imrand::{default_rng, Mt19937, Pcg32, Rng32};
    pub use imserve::{
        IndexArtifact, InfluenceService, LocalService, QueryEngine, RemoteService, ShardedService,
        TopKAlgorithm,
    };
    pub use imsketch::{ReachabilitySketches, SketchGreedy};
    pub use imstats::{EmpiricalDistribution, SampleCurve, SummaryStats};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_an_end_to_end_workflow() {
        let graph = Dataset::Karate.influence_graph(ProbabilityModel::uc001(), 0);
        let outcome = Algorithm::Snapshot { tau: 32 }.run(&graph, 1, 1);
        assert_eq!(outcome.seeds.len(), 1);
        let mut rng = default_rng(2);
        let oracle = InfluenceOracle::builder(10_000).sample_with_rng(&graph, &mut rng);
        assert!(oracle.estimate_seed_set(&outcome.seeds) >= 1.0);
    }

    #[test]
    fn prelude_exposes_the_serving_layer() {
        let graph = Dataset::Karate.influence_graph(ProbabilityModel::uc01(), 0);
        let artifact = IndexArtifact::build("Karate", "uc0.1", graph, 2_000, 5);
        let reloaded = IndexArtifact::from_bytes(&artifact.to_bytes()).unwrap();
        let engine = QueryEngine::builder(reloaded).build().unwrap();
        let mut scratch = engine.new_scratch();
        let request = imserve::Request::TopK {
            k: 2,
            algorithm: TopKAlgorithm::Greedy,
        };
        let response = engine.handle(&request, &mut scratch);
        let (expected, _) = artifact.oracle.greedy_seed_set(2);
        match response {
            imserve::Response::TopK(selection) => assert_eq!(selection.seeds, expected),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn prelude_exposes_the_dynamic_subsystem() {
        let graph = Dataset::Karate.influence_graph(ProbabilityModel::uc01(), 0);
        let mut dynamic = DynamicOracle::build(graph, 1_000, 3, Backend::Sequential);
        let outcome = dynamic
            .apply(GraphDelta::InsertEdge {
                source: 0,
                target: 33,
                probability: 0.5,
            })
            .unwrap();
        assert_eq!(outcome.epoch, 1);
        assert!(dynamic.matches_rebuild());
    }
}
