//! Cross-crate integration tests for the extension modules: heuristics,
//! sketches, compressed RR sets, coarsening, sample-number determination, the
//! estimators under the LT model and the distribution divergences.
//!
//! Each test exercises at least two crates together and checks an
//! end-to-end property a downstream user would rely on (rather than a unit of
//! a single module, which the per-crate test suites already cover).

use im_core::determination::{determine_all_sample_numbers, AccuracyTarget};
use im_core::exact::{exact_greedy, exact_influence};
use im_core::greedy_select;
use im_core::ris::{generate_rr_set, RisEstimator};
use im_core::Lt;
use im_study::prelude::*;
use imgraph::coarsen::coarsen_by_certain_edges;
use imheur::{DegreeDiscount, IrieSelector, RandomSelector, SingleDiscount, WeightedDegree};
use imsketch::descendant_counts;
use imstats::divergence::{support_jaccard, total_variation_distance};

/// A small two-community graph where greedy needs to spread its seeds.
fn two_stars(prob: f64) -> InfluenceGraph {
    let mut edges: Vec<(u32, u32)> = (1..5u32).map(|v| (0, v)).collect();
    edges.extend((6..10u32).map(|v| (5, v)));
    let m = edges.len();
    InfluenceGraph::new(DiGraph::from_edges(10, &edges), vec![prob; m])
}

#[test]
fn informed_heuristics_beat_random_and_approach_exact_greedy() {
    let graph = two_stars(0.4);
    let k = 2;
    let exact = exact_greedy(&graph, k);
    let score = |seeds: &[VertexId]| exact_influence(&graph, seeds);

    let informed: Vec<(&str, Vec<VertexId>)> = vec![
        ("WeightedDegree", WeightedDegree.select(&graph, k).seeds),
        ("SingleDiscount", SingleDiscount.select(&graph, k).seeds),
        (
            "DegreeDiscount",
            DegreeDiscount::with_mean_probability(&graph)
                .select(&graph, k)
                .seeds,
        ),
        ("IRIE", IrieSelector::default().select(&graph, k).seeds),
    ];
    for (name, seeds) in &informed {
        let quality = score(seeds) / exact.influence();
        assert!(
            quality > 0.99,
            "{name} reached only {quality:.3} of exact greedy"
        );
    }
    // The random baseline averaged over seeds is strictly worse: most pairs
    // miss at least one hub.
    let mut random_total = 0.0;
    let runs = 20;
    for seed in 0..runs {
        random_total += score(&RandomSelector::new(seed).select(&graph, k).seeds);
    }
    assert!(
        random_total / f64::from(runs as u32) < 0.8 * exact.influence(),
        "random baseline should trail exact greedy on average"
    );
}

#[test]
fn sketch_greedy_matches_snapshot_greedy_on_separable_communities() {
    let graph = two_stars(0.7);
    let sketch = SketchGreedy::new(64, 32).select(&graph, 2, &mut default_rng(1));
    let mut snap_rng = default_rng(2);
    let mut snapshot = im_core::SnapshotEstimator::new(&graph, 128, &mut snap_rng);
    let snap = greedy_select(&mut snapshot, 2, &mut default_rng(3));
    let mut a = sketch.seeds.clone();
    let mut b = snap.selection_order.clone();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "both should pick the two hubs");
    assert_eq!(a, vec![0, 5]);
}

#[test]
fn compressed_rr_sets_reproduce_the_ris_coverage_counts() {
    let graph = Dataset::Karate.influence_graph(ProbabilityModel::uc01(), 0);
    let theta = 2_000u64;
    // Build the estimator and an identically-seeded compressed store.
    let mut rng = default_rng(9);
    let estimator = RisEstimator::new(&graph, theta, &mut rng);
    let mut rng = default_rng(9);
    let mut compressed = CompressedRrSets::new();
    for _ in 0..theta {
        compressed.push(&generate_rr_set(&graph, &mut rng).vertices);
    }
    assert_eq!(compressed.len() as u64, theta);
    assert_eq!(compressed.total_vertices(), estimator.total_rr_size());
    // Coverage counts from the compressed form match the estimator's initial
    // marginal estimates (scaled by n/θ).
    let counts = compressed.coverage_counts(graph.num_vertices());
    let mut est = estimator;
    let n = graph.num_vertices() as f64;
    for v in 0..graph.num_vertices() as VertexId {
        let from_compressed = n * f64::from(counts[v as usize]) / theta as f64;
        let from_estimator = est.estimate(v);
        assert!(
            (from_compressed - from_estimator).abs() < 1e-9,
            "vertex {v}: {from_compressed} vs {from_estimator}"
        );
    }
    assert!(
        compressed.compression_ratio() > 1.0,
        "Karate RR sets should compress"
    );
}

#[test]
fn descendant_counts_match_snapshot_reachability_on_live_edge_samples() {
    let graph = Dataset::BaSparse.influence_graph(ProbabilityModel::uc01(), 3);
    let mut rng = default_rng(5);
    let snapshot = imgraph::live_edge::sample_snapshot(&graph, &mut rng);
    let counts = descendant_counts(snapshot.graph());
    // Spot-check a sample of vertices against plain BFS.
    for v in (0..graph.num_vertices() as VertexId).step_by(97) {
        let bfs = imgraph::reach::reachable_count(snapshot.graph(), &[v]);
        assert_eq!(counts[v as usize], bfs, "vertex {v}");
    }
}

#[test]
fn lossless_coarsening_preserves_exact_influence() {
    // Certain 3-cycle {0,1,2} feeding vertex 3 with probability 0.5 from two
    // members; a dangling vertex 4 reached from 3 with 0.25.
    let edges = [(0u32, 1u32), (1, 2), (2, 0), (0, 3), (1, 3), (3, 4)];
    let graph = InfluenceGraph::new(
        DiGraph::from_edges(5, &edges),
        vec![1.0, 1.0, 1.0, 0.5, 0.5, 0.25],
    );
    let coarse = coarsen_by_certain_edges(&graph, 1.0);
    assert_eq!(coarse.num_supervertices(), 3);
    // Exact influence of seeding the cycle in the original graph.
    let original = exact_influence(&graph, &[0]);
    // Exact influence of seeding the corresponding supervertex in the quotient,
    // counting supervertex sizes instead of vertices.
    let block = coarse.membership[0];
    let quotient = &coarse.graph;
    let mut coarse_influence = 0.0;
    for super_v in 0..quotient.num_vertices() as VertexId {
        let p_reach = if super_v == block {
            1.0
        } else {
            // With only two quotient vertices besides the block, enumerate:
            // the block reaches super_v via the merged edge probability.
            quotient
                .out_edges_with_prob(block)
                .find(|&(w, _)| w == super_v)
                .map(|(_, p)| p)
                .unwrap_or_else(|| {
                    // Two-hop path block -> mid -> super_v.
                    quotient
                        .out_edges_with_prob(block)
                        .map(|(mid, p1)| {
                            quotient
                                .out_edges_with_prob(mid)
                                .find(|&(w, _)| w == super_v)
                                .map(|(_, p2)| p1 * p2)
                                .unwrap_or(0.0)
                        })
                        .sum()
                })
        };
        coarse_influence += p_reach * coarse.sizes[super_v as usize] as f64;
    }
    assert!(
        (original - coarse_influence).abs() < 1e-9,
        "original {original} vs coarsened {coarse_influence}"
    );
}

#[test]
fn determination_yields_sample_numbers_that_reach_exact_greedy() {
    let graph = Dataset::Karate.influence_graph(ProbabilityModel::uc01(), 0);
    let target = AccuracyTarget {
        epsilon: 0.2,
        delta: 0.1,
        k: 1,
    };
    let determined = determine_all_sample_numbers(&graph, &target, &mut default_rng(1));
    // The determined θ is a worst-case number: running RIS with it must give a
    // near-optimal seed on this tiny instance (Karate's two hubs, vertices 0
    // and 33, have almost identical influence, so we check quality rather than
    // identity of the returned seed).
    let mut oracle_rng = default_rng(2);
    let oracle = InfluenceOracle::builder(100_000).sample_with_rng(&graph, &mut oracle_rng);
    let (_, greedy_influence) = oracle.greedy_seed_set(1);
    let theta = (determined.theta as u64).min(1 << 20);
    let outcome = Algorithm::Ris { theta }.run(&graph, 1, 77);
    assert!(oracle.estimate_seed_set(&outcome.seeds) >= 0.95 * greedy_influence);
    // And the adapted numbers dominate the empirically sufficient ones the
    // paper reports for Karate uc0.1 at k = 1 (β* = 2⁸, τ* = 2⁷, Table 5) —
    // the worst-case-versus-empirical gap of Section 5.2.1.
    assert!(determined.beta >= 256.0, "β = {}", determined.beta);
    assert!(determined.tau >= 128.0, "τ = {}", determined.tau);
    assert!(determined.theta >= 1_000.0, "θ = {}", determined.theta);
}

#[test]
fn lt_estimators_agree_with_each_other_on_seed_choice() {
    let graph = Dataset::Karate.influence_graph(ProbabilityModel::InDegreeWeighted, 0);
    let k = 2;
    let mut oneshot = OneshotEstimator::under(Lt, &graph, 128, default_rng(1));
    let a = greedy_select(&mut oneshot, k, &mut default_rng(2)).seed_set();
    let mut snapshot = SnapshotEstimator::under(Lt, &graph, 512, &mut default_rng(3), true);
    let b = greedy_select(&mut snapshot, k, &mut default_rng(4)).seed_set();
    let mut ris = RisEstimator::under(Lt, &graph, 32_768, &mut default_rng(5));
    let c = greedy_select(&mut ris, k, &mut default_rng(6)).seed_set();
    assert_eq!(
        b, c,
        "LT-Snapshot and LT-RIS should agree at these sample numbers"
    );
    // Oneshot is noisier at β = 128; require overlap rather than equality.
    let overlap = a.vertices().iter().filter(|v| b.contains(**v)).count();
    assert!(overlap >= 1, "LT-Oneshot {a} shares no seed with {b}");
}

#[test]
fn seed_set_distributions_of_different_algorithms_converge_together() {
    // At tiny sample numbers the three approaches produce visibly different
    // seed-set distributions; at moderate ones the distributions collapse onto
    // the same (near-degenerate) distribution. Total variation distance and
    // support overlap quantify both ends.
    let graph = Dataset::Karate.influence_graph(ProbabilityModel::uc01(), 0);
    let trials = 60u64;
    let collect = |algorithm: Algorithm| -> EmpiricalDistribution<Vec<VertexId>> {
        (0..trials)
            .map(|t| algorithm.run(&graph, 1, t).seeds.vertices().to_vec())
            .collect()
    };
    let oneshot_small = collect(Algorithm::Oneshot { beta: 1 });
    let ris_small = collect(Algorithm::Ris { theta: 1 });
    let oneshot_big = collect(Algorithm::Oneshot { beta: 512 });
    let ris_big = collect(Algorithm::Ris { theta: 16_384 });

    let tv_small = total_variation_distance(&oneshot_small, &ris_small);
    let tv_big = total_variation_distance(&oneshot_big, &ris_big);
    assert!(
        tv_big < tv_small,
        "TV should shrink with the sample number: {tv_big} vs {tv_small}"
    );
    assert!(
        tv_big < 0.2,
        "distributions should nearly coincide at large sample numbers"
    );
    assert!(support_jaccard(&oneshot_big, &ris_big) > 0.3);
    assert!(oneshot_big.entropy() < oneshot_small.entropy());
}

#[test]
fn celf_pp_and_ublf_match_plain_greedy_end_to_end() {
    let graph = Dataset::Karate.influence_graph(ProbabilityModel::uc01(), 0);
    let k = 4;
    let theta = 8_192;
    let mut plain_est = RisEstimator::new(&graph, theta, &mut default_rng(11));
    let plain = greedy_select(&mut plain_est, k, &mut default_rng(12));

    let mut cpp_est = RisEstimator::new(&graph, theta, &mut default_rng(11));
    let (cpp, _) = im_core::celf_pp_select(&mut cpp_est, k, &mut default_rng(12));
    assert_eq!(plain.seed_set(), cpp.seed_set());

    let bounds = im_core::influence_upper_bounds(&graph, 10);
    let mut ublf_est = RisEstimator::new(&graph, theta, &mut default_rng(11));
    let (ublf, stats) = im_core::ublf_select(&mut ublf_est, k, &bounds, &mut default_rng(12));
    assert_eq!(plain.seed_set(), ublf.seed_set());
    assert!(
        stats.estimate_calls < plain.estimate_calls,
        "UBLF should prune Estimate calls"
    );
}
