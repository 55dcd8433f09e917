//! Golden outcomes of the paper's Oneshot (Algorithm 3.2) at β = 64 and
//! Snapshot (Algorithm 3.3) at τ = 64, k = 4: the twins of
//! `tests/ris_golden.rs`.
//!
//! Each case is one `Algorithm::run` under the stream discipline, so every
//! forward simulation, live-edge sample and tie-break shuffle draws from the
//! run's MT19937 streams. Each pins the selection order, the internal
//! estimates (as `f64` bits), the number of Estimate calls, the traversal
//! cost and the sample size. Any change to the generator's stream or to how
//! an estimator consumes it shows here as a differing constant; a failing
//! case prints the whole observed outcome.

use im_study::prelude::*;

const K: usize = 4;
const SEED: u64 = 11;

/// What one case observes.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    selection: Vec<VertexId>,
    estimate_bits: Vec<u64>,
    estimate_calls: u64,
    /// Traversal cost of the whole run, `(vertices, edges)`.
    traversal: (u64, u64),
    /// Sample size, `(vertices, edges)`.
    sample_size: (u64, u64),
}

fn observe(algorithm: Algorithm, dataset: Dataset) -> Outcome {
    let graph = dataset.influence_graph(ProbabilityModel::uc01(), 0);
    let run = algorithm.run(&graph, K, SEED);
    Outcome {
        selection: run.selection_order,
        estimate_bits: run.internal_estimates.iter().map(|x| x.to_bits()).collect(),
        estimate_calls: run.estimate_calls,
        traversal: (run.traversal_cost.vertices, run.traversal_cost.edges),
        sample_size: (run.sample_size.vertices, run.sample_size.edges),
    }
}

#[test]
fn oneshot_karate() {
    let got = observe(Algorithm::Oneshot { beta: 64 }, Dataset::Karate);
    assert_eq!(
        got,
        Outcome {
            selection: vec![0, 33, 25, 2],
            estimate_bits: vec![
                4615098902520004608,
                4619057144379998208,
                4620833955170484224,
                4621502458240172032,
            ],
            estimate_calls: 130,
            traversal: (47_533, 340_181),
            sample_size: (0, 0),
        },
        "observed: {got:?}"
    );
}

#[test]
fn oneshot_ba_s() {
    let got = observe(Algorithm::Oneshot { beta: 64 }, Dataset::BaSparse);
    assert_eq!(
        got,
        Outcome {
            selection: vec![2, 5, 0, 6],
            estimate_bits: vec![
                4616787752380268544,
                4619549725589241856,
                4621493662147149824,
                4622531601123770368,
            ],
            estimate_calls: 3994,
            traversal: (1_537_670, 9_039_433),
            sample_size: (0, 0),
        },
        "observed: {got:?}"
    );
}

#[test]
fn snapshot_karate() {
    let got = observe(Algorithm::Snapshot { tau: 64 }, Dataset::Karate);
    assert_eq!(
        got,
        Outcome {
            selection: vec![0, 33, 3, 32],
            estimate_bits: vec![
                4615732221217603584,
                4613550790148096000,
                4609645324846235648,
                4609223112381169664,
            ],
            estimate_calls: 130,
            traversal: (12_292, 6015),
            sample_size: (2176, 970),
        },
        "observed: {got:?}"
    );
}

#[test]
fn snapshot_ba_s() {
    let got = observe(Algorithm::Snapshot { tau: 64 }, Dataset::BaSparse);
    assert_eq!(
        got,
        Outcome {
            selection: vec![2, 1, 12, 6],
            estimate_bits: vec![
                4616365539915202560,
                4612776733962141696,
                4612037862148276224,
                4611897124659920896,
            ],
            estimate_calls: 3994,
            traversal: (284_277, 30_030),
            sample_size: (64_000, 6343),
        },
        "observed: {got:?}"
    );
}
