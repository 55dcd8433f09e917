//! The three estimators under the linear threshold model, pinned against LT
//! closed forms on small graphs.

use imgraph::{DiGraph, InfluenceGraph, VertexId};
use imrand::{Pcg32, Rng32};

use crate::greedy::greedy_select;
use crate::lt::generate_lt_rr_set;
use crate::{
    InfluenceEstimator, Lt, OneshotEstimator, RisEstimator, SampleSize, SnapshotEstimator,
};

/// 0 -> 2 and 1 -> 2 with weights 0.5 each: Inf_LT({0}) = 1.5,
/// Inf_LT({0,1}) = 3.
fn fan_in() -> InfluenceGraph {
    InfluenceGraph::new(DiGraph::from_edges(3, &[(0, 2), (1, 2)]), vec![0.5, 0.5])
}

/// Path with full weights: seeding the head activates everything.
fn path_full(len: usize) -> InfluenceGraph {
    let edges: Vec<_> = (0..len as u32 - 1).map(|i| (i, i + 1)).collect();
    InfluenceGraph::new(DiGraph::from_edges(len, &edges), vec![1.0; len - 1])
}

fn snapshot(ig: &InfluenceGraph, tau: u64, seed: u64) -> SnapshotEstimator {
    SnapshotEstimator::under(Lt, ig, tau, &mut Pcg32::seed_from_u64(seed), true)
}

fn ris(ig: &InfluenceGraph, theta: u64, seed: u64) -> RisEstimator {
    RisEstimator::under(Lt, ig, theta, &mut Pcg32::seed_from_u64(seed))
}

#[test]
fn lt_oneshot_estimates_the_closed_form() {
    let ig = fan_in();
    let mut est = OneshotEstimator::under(Lt, &ig, 40_000, Pcg32::seed_from_u64(1));
    let inf = est.estimate(0);
    assert!((inf - 1.5).abs() < 0.03, "LT-Oneshot estimate {inf}");
    assert_eq!(est.approach_name(), "LT-Oneshot");
    assert_eq!(est.sample_number(), 40_000);
    assert!(!est.is_submodular());
    assert_eq!(est.sample_size(), SampleSize::zero());
    assert!(est.traversal_cost().vertices > 0);
}

#[test]
fn lt_snapshot_estimates_the_closed_form() {
    let ig = fan_in();
    let mut est = snapshot(&ig, 20_000, 2);
    let inf = est.estimate(0);
    assert!((inf - 1.5).abs() < 0.05, "LT-Snapshot estimate {inf}");
    assert!(est.is_submodular());
    assert_eq!(est.approach_name(), "LT-Snapshot");
    assert!(est.sample_size().vertices > 0);
}

#[test]
fn lt_ris_estimates_the_closed_form() {
    let ig = fan_in();
    let mut est = ris(&ig, 60_000, 3);
    let inf = est.estimate(0);
    assert!((inf - 1.5).abs() < 0.05, "LT-RIS estimate {inf}");
    assert_eq!(est.approach_name(), "LT-RIS");
    assert_eq!(est.sample_size().edges, 0);
}

#[test]
fn lt_rr_sets_are_paths_without_repeats() {
    let ig = path_full(5);
    let mut rng = Pcg32::seed_from_u64(8);
    for _ in 0..100 {
        let target = rng.gen_index(5) as VertexId;
        let rr = generate_lt_rr_set(&ig, target, &mut rng);
        assert!(rr.vertices.contains(&rr.target));
        let mut sorted = rr.vertices.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            rr.vertices.len(),
            "repeated vertex in LT RR set"
        );
        // On the full-weight path, the RR set of target z is {0, …, z}.
        assert_eq!(rr.vertices.len(), rr.target as usize + 1);
    }
}

#[test]
fn greedy_under_lt_picks_the_path_head() {
    let ig = path_full(6);
    let mut est = ris(&ig, 3_000, 9);
    let result = greedy_select(&mut est, 1, &mut Pcg32::seed_from_u64(10));
    assert_eq!(result.selection_order, vec![0]);

    let mut snap = snapshot(&ig, 200, 11);
    let result = greedy_select(&mut snap, 1, &mut Pcg32::seed_from_u64(12));
    assert_eq!(result.selection_order, vec![0]);
}

#[test]
fn snapshot_update_makes_marginals_shrink() {
    let ig = path_full(4);
    let mut est = snapshot(&ig, 100, 13);
    let before = est.estimate(1);
    est.update(0); // head reaches everything, so vertex 1's marginal drops to 0.
    let after = est.estimate(1);
    assert!(before > after);
    assert_eq!(after, 0.0);
    assert_eq!(est.current_seeds(), &[0]);
}

#[test]
fn ris_update_removes_covered_paths() {
    let ig = path_full(4);
    let mut est = ris(&ig, 1_000, 14);
    est.update(0);
    for v in 0..4u32 {
        assert_eq!(
            est.estimate(v),
            0.0,
            "marginal of {v} after covering everything"
        );
    }
}

#[test]
fn estimate_set_handles_unions() {
    let ig = fan_in();
    let est = ris(&ig, 50_000, 15);
    let union = est.estimate_set(&[0, 1]);
    assert!((union - 3.0).abs() < 0.05, "union estimate {union}");
}

#[test]
#[should_panic(expected = "at least one simulation")]
fn lt_oneshot_zero_beta_panics() {
    let ig = fan_in();
    let _ = OneshotEstimator::under(Lt, &ig, 0, Pcg32::seed_from_u64(1));
}

#[test]
#[should_panic(expected = "LT-Snapshot needs at least one random graph")]
fn lt_snapshot_zero_tau_panics() {
    let ig = fan_in();
    let _ = snapshot(&ig, 0, 1);
}

#[test]
#[should_panic(expected = "at least one RR set")]
fn lt_ris_zero_theta_panics() {
    let ig = fan_in();
    let _ = ris(&ig, 0, 1);
}
