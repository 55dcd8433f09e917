//! Property-based tests for the extension modules: exact influence, sketches,
//! heuristics, divergences and confidence intervals.
//!
//! These complement `proptest_invariants.rs` (which covers the substrates and
//! the three core estimators) with invariants of the modules added around
//! them. Each property is phrased against randomly generated small graphs or
//! value sets, so the suite probes corners the example-based unit tests miss.

use proptest::prelude::*;

use im_core::exact::{exact_greedy, exact_influence, exact_optimum};
use im_core::ublf::influence_upper_bounds;
use imgraph::{DiGraph, InfluenceGraph, VertexId};
use imheur::{DegreeDiscount, MaxDegree, PageRankSelector, SeedSelector, SingleDiscount};
use imrand::Pcg32;
use imsketch::{descendant_counts, ReachabilitySketches};
use imstats::divergence::{
    jensen_shannon_divergence, overlap_coefficient, support_jaccard, total_variation_distance,
};
use imstats::interval::wilson_interval;
use imstats::EmpiricalDistribution;

/// A strategy for tiny influence graphs (≤ 7 vertices, ≤ 10 distinct edges)
/// small enough for exact influence enumeration.
fn arb_tiny_influence_graph() -> impl Strategy<Value = InfluenceGraph> {
    (
        2usize..=7,
        proptest::collection::vec(((0u32..7, 0u32..7), 0.05f64..1.0), 1..10),
    )
        .prop_map(|(n, raw)| {
            let mut seen = std::collections::HashSet::new();
            let mut edges = Vec::new();
            let mut probs = Vec::new();
            for ((u, v), p) in raw {
                let (u, v) = (u % n as u32, v % n as u32);
                if u != v && seen.insert((u, v)) {
                    edges.push((u, v));
                    probs.push(p);
                }
            }
            if edges.is_empty() {
                edges.push((0, (n as u32 - 1).max(1)));
                probs.push(0.5);
            }
            InfluenceGraph::new(DiGraph::from_edges(n, &edges), probs)
        })
}

/// A strategy for small directed graphs (for sketch/descendant properties).
fn arb_digraph() -> impl Strategy<Value = DiGraph> {
    (
        5usize..40,
        proptest::collection::vec((0u32..40, 0u32..40), 0..120),
    )
        .prop_map(|(n, raw)| {
            let edges: Vec<(u32, u32)> = raw
                .into_iter()
                .map(|(u, v)| (u % n as u32, v % n as u32))
                .collect();
            DiGraph::from_edges(n, &edges)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The exact influence function is monotone and submodular on every tiny
    /// influence graph — the Kempe–Kleinberg–Tardos theorem, checked directly.
    #[test]
    fn exact_influence_is_monotone_and_submodular(graph in arb_tiny_influence_graph()) {
        let n = graph.num_vertices() as VertexId;
        let f = |s: &[VertexId]| exact_influence(&graph, s);
        // Monotonicity on nested singleton/pair sets.
        for v in 0..n {
            for w in 0..n {
                if v == w { continue; }
                prop_assert!(f(&[v]) <= f(&[v, w]) + 1e-9);
            }
        }
        // Submodularity: gain of adding x to {a} vs to {a, b}.
        for a in 0..n {
            for b in 0..n {
                for x in 0..n {
                    if a == b || a == x || b == x { continue; }
                    let small_gain = f(&[a, x]) - f(&[a]);
                    let large_gain = f(&[a, b, x]) - f(&[a, b]);
                    prop_assert!(small_gain + 1e-9 >= large_gain);
                }
            }
        }
    }

    /// Exact greedy always attains at least (1 − 1/e) of the exhaustive
    /// optimum, and never exceeds it.
    #[test]
    fn exact_greedy_is_a_constant_factor_approximation(graph in arb_tiny_influence_graph(), k in 1usize..3) {
        let k = k.min(graph.num_vertices());
        let greedy = exact_greedy(&graph, k);
        let (_, opt) = exact_optimum(&graph, k);
        prop_assert!(greedy.influence() <= opt + 1e-9);
        prop_assert!(greedy.influence() >= (1.0 - 1.0 / std::f64::consts::E) * opt - 1e-9);
    }

    /// The UBLF walk-sum bound dominates the exact influence of every
    /// singleton, on every graph.
    #[test]
    fn ublf_bound_dominates_exact_influence(graph in arb_tiny_influence_graph()) {
        let bounds = influence_upper_bounds(&graph, graph.num_vertices());
        for v in 0..graph.num_vertices() as VertexId {
            prop_assert!(bounds[v as usize] + 1e-9 >= exact_influence(&graph, &[v]));
        }
    }

    /// Exact descendant counting agrees with per-vertex BFS on arbitrary
    /// directed graphs (cycles, self-loops and parallel edges included).
    #[test]
    fn descendant_counts_match_bfs(graph in arb_digraph()) {
        let counts = descendant_counts(&graph);
        for v in 0..graph.num_vertices() as VertexId {
            let bfs = imgraph::reach::reachable_count(&graph, &[v]);
            prop_assert_eq!(counts[v as usize], bfs);
        }
    }

    /// Bottom-k sketches report the exact reachable-set size whenever that set
    /// has fewer than k members, and never a negative or absurdly large value.
    #[test]
    fn bottom_k_sketches_are_exact_below_k(graph in arb_digraph(), seed in 0u64..1_000) {
        let n = graph.num_vertices();
        let k = n + 1; // sketches can never fill up
        let sketches = ReachabilitySketches::build(&graph, k, &mut Pcg32::seed_from_u64(seed));
        for v in 0..n as VertexId {
            let exact = imgraph::reach::reachable_count(&graph, &[v]);
            prop_assert!((sketches.estimate_reachable(v) - exact as f64).abs() < 1e-9);
        }
    }

    /// Every heuristic returns at most min(k, n) distinct, in-range seeds.
    #[test]
    fn heuristics_return_valid_seed_sets(graph in arb_tiny_influence_graph(), k in 0usize..10) {
        let n = graph.num_vertices();
        let selectors: Vec<Box<dyn SeedSelector>> = vec![
            Box::new(MaxDegree),
            Box::new(SingleDiscount),
            Box::new(DegreeDiscount::with_mean_probability(&graph)),
            Box::new(PageRankSelector::default()),
        ];
        for selector in &selectors {
            let result = selector.select(&graph, k);
            prop_assert_eq!(result.seeds.len(), k.min(n), "{}", selector.name());
            prop_assert_eq!(result.seeds.len(), result.scores.len());
            let mut sorted = result.seeds.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), result.seeds.len(), "duplicates from {}", selector.name());
            prop_assert!(result.seeds.iter().all(|&v| (v as usize) < n));
        }
    }

    /// Divergence identities: TV + overlap = 1, all measures symmetric and in
    /// range, and a distribution compared with itself is at distance 0.
    #[test]
    fn divergence_identities_hold(outcomes_a in proptest::collection::vec((0u32..12, 1u64..20), 1..12),
                                  outcomes_b in proptest::collection::vec((0u32..12, 1u64..20), 1..12)) {
        let mut p = EmpiricalDistribution::new();
        let mut q = EmpiricalDistribution::new();
        for (x, c) in outcomes_a { p.record_many(x, c); }
        for (x, c) in outcomes_b { q.record_many(x, c); }
        let tv = total_variation_distance(&p, &q);
        let js = jensen_shannon_divergence(&p, &q);
        let ov = overlap_coefficient(&p, &q);
        let jac = support_jaccard(&p, &q);
        // Floating-point counting probabilities can overshoot the unit range
        // by a few ulps (e.g. TV of two disjoint supports sums 2·(Σ p) / 2).
        prop_assert!((-1e-12..=1.0 + 1e-12).contains(&tv), "TV = {tv}");
        prop_assert!((-1e-12..=1.0 + 1e-12).contains(&js), "JS = {js}");
        prop_assert!((-1e-12..=1.0 + 1e-12).contains(&jac), "Jaccard = {jac}");
        prop_assert!((tv + ov - 1.0).abs() < 1e-9);
        prop_assert!((tv - total_variation_distance(&q, &p)).abs() < 1e-12);
        prop_assert!(total_variation_distance(&p, &p) < 1e-12);
        prop_assert!(jensen_shannon_divergence(&q, &q) < 1e-12);
    }

    /// The Wilson interval always contains the point estimate, lies within
    /// [0, 1], and tightens as the trial count grows.
    #[test]
    fn wilson_interval_properties(successes in 0u64..100, extra in 0u64..100, scale in 1u64..50) {
        let trials = successes + extra;
        prop_assume!(trials > 0);
        let ci = wilson_interval(successes, trials, 0.95);
        let p_hat = successes as f64 / trials as f64;
        prop_assert!(ci.lower >= 0.0 && ci.upper <= 1.0);
        prop_assert!(ci.contains(p_hat));
        let bigger = wilson_interval(successes * scale, trials * scale, 0.95);
        prop_assert!(bigger.width() <= ci.width() + 1e-12);
    }

    /// Monte-Carlo IC influence converges to the exact influence (loose
    /// tolerance; this is the unbiasedness of the Oneshot estimator checked
    /// against the enumeration oracle).
    #[test]
    fn monte_carlo_matches_exact_influence(graph in arb_tiny_influence_graph(), seed in 0u64..500) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let exact = exact_influence(&graph, &[0]);
        let mc = im_core::diffusion::monte_carlo_influence(&graph, &[0], 4_000, &mut rng);
        // 4,000 simulations on a ≤ 7-vertex graph: standard error well below 0.15.
        prop_assert!((mc - exact).abs() < 0.4, "MC {mc} vs exact {exact}");
    }
}
