//! Property-based tests on the core data structures and algorithmic
//! invariants, spanning the substrate crates and the algorithm crate.

use im_study::prelude::*;
use im_study::{imdyn, imgraph};
use proptest::prelude::*;

/// Strategy: a random edge list over `n ≤ 24` vertices.
fn arb_edges() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..24).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        (Just(n), proptest::collection::vec(edge, 0..80))
    })
}

/// Strategy: a connected-ish influence graph with random probabilities.
fn arb_influence_graph() -> impl Strategy<Value = InfluenceGraph> {
    arb_edges().prop_flat_map(|(n, edges)| {
        let filtered: Vec<(u32, u32)> = edges.into_iter().filter(|(u, v)| u != v).collect();
        let len = filtered.len();
        (
            Just(n),
            Just(filtered),
            proptest::collection::vec(0.05f64..1.0, len),
        )
            .prop_map(|(n, edges, probs)| {
                let graph = DiGraph::from_edges(n, &edges);
                InfluenceGraph::new(graph, probs)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// CSR invariant: the out-degree sum equals the edge count, and every edge
    /// is visible from both endpoints' adjacency.
    #[test]
    fn csr_degree_sums_match_edge_count((n, edges) in arb_edges()) {
        let g = DiGraph::from_edges(n, &edges);
        let out_sum: usize = g.vertices().map(|v| g.out_degree(v)).sum();
        let in_sum: usize = g.vertices().map(|v| g.in_degree(v)).sum();
        prop_assert_eq!(out_sum, edges.len());
        prop_assert_eq!(in_sum, edges.len());
        for &(u, v) in &edges {
            prop_assert!(g.out_neighbors(u).contains(&v));
            prop_assert!(g.in_neighbors(v).contains(&u));
        }
    }

    /// Transposition is an involution and swaps degree directions.
    #[test]
    fn transpose_is_an_involution((n, edges) in arb_edges()) {
        let g = DiGraph::from_edges(n, &edges);
        let t = g.transpose();
        for v in g.vertices() {
            prop_assert_eq!(g.out_degree(v), t.in_degree(v));
            prop_assert_eq!(g.in_degree(v), t.out_degree(v));
        }
        let tt = t.transpose();
        for v in g.vertices() {
            prop_assert_eq!(g.out_neighbors(v), tt.out_neighbors(v));
        }
    }

    /// Reachability from a seed set is monotone in the seed set and bounded by n.
    #[test]
    fn reachability_is_monotone((n, edges) in arb_edges(), seed in 0u32..24) {
        let g = DiGraph::from_edges(n, &edges);
        let seed = seed % n as u32;
        let single = imgraph::reach::reachable_count(&g, &[seed]);
        let everything: Vec<VertexId> = (0..n as u32).collect();
        let all = imgraph::reach::reachable_count(&g, &everything);
        prop_assert!(single >= 1);
        prop_assert!(single <= all);
        prop_assert_eq!(all, n);
    }

    /// The IC simulation activates at least the seeds and at most every vertex,
    /// and its traversal cost is bounded by the work of scanning every
    /// activated vertex's out-edges.
    #[test]
    fn ic_simulation_bounds(ig in arb_influence_graph(), seed in 0u32..24, trial_seed in 0u64..1000) {
        let n = ig.num_vertices();
        let seed = seed % n as u32;
        let mut sim = im_study::im_core::diffusion::IcSimulator::for_graph(&ig);
        let mut rng = Pcg32::seed_from_u64(trial_seed);
        let outcome = sim.simulate(&ig, &[seed], &mut rng);
        prop_assert!(outcome.activated >= 1);
        prop_assert!(outcome.activated <= n);
        prop_assert_eq!(outcome.cost.vertices, outcome.activated as u64);
        prop_assert!(outcome.cost.edges <= ig.num_edges() as u64);
    }

    /// Live-edge sampling keeps a subset of the edges, never invents new ones.
    #[test]
    fn live_edge_samples_are_subgraphs(ig in arb_influence_graph(), sample_seed in 0u64..1000) {
        let mut rng = Pcg32::seed_from_u64(sample_seed);
        let snapshot = imgraph::live_edge::sample_snapshot(&ig, &mut rng);
        prop_assert_eq!(snapshot.graph().num_vertices(), ig.num_vertices());
        prop_assert!(snapshot.live_edge_count() <= ig.num_edges());
        for (u, v) in snapshot.graph().edges() {
            prop_assert!(ig.graph().out_neighbors(u).contains(&v));
        }
    }

    /// RR sets always contain their target and only vertices that can actually
    /// reach the target in the full graph.
    #[test]
    fn rr_sets_respect_reachability(ig in arb_influence_graph(), gen_seed in 0u64..1000) {
        let mut rng = Pcg32::seed_from_u64(gen_seed);
        let rr = im_study::im_core::ris::generate_rr_set(&ig, &mut rng);
        prop_assert!(rr.vertices.contains(&rr.target));
        // Every member must reach the target in the *deterministic* graph
        // (a superset of any live-edge graph).
        let mut ws = imgraph::reach::ReachWorkspace::new(ig.num_vertices());
        for &member in &rr.vertices {
            ws.reachable_count(ig.graph(), &[member]);
            prop_assert!(ws.was_visited(rr.target),
                "RR-set member {member} cannot reach target {}", rr.target);
        }
    }

    /// Greedy always returns exactly min(k, n) distinct seeds, whatever the
    /// estimator, and the canonical SeedSet matches the selection order.
    #[test]
    fn greedy_returns_k_distinct_seeds(ig in arb_influence_graph(), k in 1usize..6, seed in 0u64..500) {
        let n = ig.num_vertices();
        let outcome = Algorithm::Ris { theta: 32 }.run(&ig, k, seed);
        prop_assert_eq!(outcome.seeds.len(), k.min(n));
        prop_assert_eq!(outcome.selection_order.len(), k.min(n));
        let canonical: SeedSet = outcome.selection_order.clone().into();
        prop_assert_eq!(canonical, outcome.seeds.clone());
        for v in outcome.seeds.iter() {
            prop_assert!((v as usize) < n);
        }
    }

    /// Identical seeds give identical runs; the estimator's internal estimates
    /// are finite and non-negative.
    #[test]
    fn runs_are_deterministic_and_estimates_sane(ig in arb_influence_graph(), seed in 0u64..500) {
        let a = Algorithm::Snapshot { tau: 8 }.run(&ig, 2, seed);
        let b = Algorithm::Snapshot { tau: 8 }.run(&ig, 2, seed);
        prop_assert_eq!(&a, &b);
        for &estimate in &a.internal_estimates {
            prop_assert!(estimate.is_finite());
            prop_assert!(estimate >= 0.0);
            prop_assert!(estimate <= ig.num_vertices() as f64 + 1e-9);
        }
    }

    /// The empirical distribution's entropy is bounded by log2(#outcomes) and
    /// log2(#trials); recording more of the same outcome never raises it.
    #[test]
    fn entropy_bounds_hold(counts in proptest::collection::vec(1u64..50, 1..20)) {
        let mut dist = EmpiricalDistribution::new();
        for (i, &c) in counts.iter().enumerate() {
            dist.record_many(i, c);
        }
        let h = dist.entropy();
        let trials: u64 = counts.iter().sum();
        prop_assert!(h >= 0.0);
        prop_assert!(h <= (counts.len() as f64).log2() + 1e-9);
        prop_assert!(h <= (trials as f64).log2() + 1e-9);
        // Adding more mass to the modal outcome cannot increase entropy.
        let (modal, _) = dist.mode().map(|(m, c)| (*m, c)).unwrap();
        let before = dist.entropy();
        dist.record_many(modal, 100);
        prop_assert!(dist.entropy() <= before + 1e-9);
    }

    /// Summary statistics are internally consistent on arbitrary samples.
    #[test]
    fn summary_stats_are_consistent(values in proptest::collection::vec(0.0f64..1000.0, 1..200)) {
        let stats = SummaryStats::from_values(&values);
        prop_assert!(stats.min <= stats.p01 + 1e-9);
        prop_assert!(stats.p01 <= stats.q1 + 1e-9);
        prop_assert!(stats.q1 <= stats.median + 1e-9);
        prop_assert!(stats.median <= stats.q3 + 1e-9);
        prop_assert!(stats.q3 <= stats.p99 + 1e-9);
        prop_assert!(stats.p99 <= stats.max + 1e-9);
        prop_assert!(stats.mean >= stats.min - 1e-9 && stats.mean <= stats.max + 1e-9);
        prop_assert!(stats.std_dev >= 0.0);
        prop_assert_eq!(stats.count, values.len());
    }

    /// The comparable number ratio of a strictly improving curve against
    /// itself is always 1 (with plateaus the paper's "least comparable sample
    /// number" may point at an earlier tied point, so the ratio is ≤ 1).
    #[test]
    fn self_comparable_ratio_is_one(points in proptest::collection::vec((1u64..1_000_000, 0.0f64..100.0), 1..12)) {
        // Deduplicate sample numbers and make means strictly increasing so the
        // curve is a valid, plateau-free mean-influence curve.
        let mut pairs: Vec<(u64, f64)> = points;
        pairs.sort_by_key(|p| p.0);
        pairs.dedup_by_key(|p| p.0);
        let mut running = 0.0f64;
        for p in &mut pairs {
            running = running.max(p.1) + 1e-3;
            p.1 = running;
        }
        let curve = SampleCurve::from_means(&pairs);
        let ratios = imstats::comparable_number_ratio(&curve, &curve);
        prop_assert_eq!(ratios.len(), pairs.len());
        for r in ratios {
            prop_assert!((r.number_ratio - 1.0).abs() < 1e-12);
        }
    }

    /// With plateaus allowed, the self-comparable ratio never exceeds 1 and
    /// the matched point always has at least the reference mean.
    #[test]
    fn self_comparable_ratio_with_plateaus_is_at_most_one(points in proptest::collection::vec((1u64..1_000_000, 0.0f64..100.0), 1..12)) {
        let mut pairs: Vec<(u64, f64)> = points;
        pairs.sort_by_key(|p| p.0);
        pairs.dedup_by_key(|p| p.0);
        let mut running = 0.0f64;
        for p in &mut pairs {
            running = running.max(p.1);
            p.1 = running;
        }
        let curve = SampleCurve::from_means(&pairs);
        let ratios = imstats::comparable_number_ratio(&curve, &curve);
        prop_assert_eq!(ratios.len(), pairs.len());
        for r in &ratios {
            prop_assert!(r.number_ratio <= 1.0 + 1e-12);
            let ref_mean = curve.mean_at(r.reference_sample_number).unwrap();
            let cand_mean = curve.mean_at(r.candidate_sample_number).unwrap();
            prop_assert!(cand_mean >= ref_mean - 1e-12);
        }
    }

    /// Probability models only ever assign probabilities in (0, 1], and the
    /// weighted-cascade models normalise the relevant degree direction.
    #[test]
    fn probability_models_assign_valid_probabilities((n, edges) in arb_edges()) {
        let simple: Vec<(u32, u32)> = {
            let mut seen = std::collections::HashSet::new();
            edges.into_iter().filter(|&(u, v)| u != v && seen.insert((u, v))).collect()
        };
        prop_assume!(!simple.is_empty());
        let graph = DiGraph::from_edges(n, &simple);
        for model in ProbabilityModel::paper_models() {
            let ig = model.assign(&graph);
            for &p in ig.probabilities() {
                prop_assert!(p > 0.0 && p <= 1.0);
            }
        }
        let iwc = ProbabilityModel::InDegreeWeighted.assign(&graph);
        for v in graph.vertices() {
            if graph.in_degree(v) > 0 {
                prop_assert!((iwc.expected_in_weight(v) - 1.0).abs() < 1e-9);
            }
        }
    }

    /// The write path's incremental structures equal their from-scratch
    /// definitions after every batch: the maintained lineage fingerprint is
    /// the fingerprint of the graph, and the in-place patched CSR is the
    /// re-materialized edge list, field for field.
    #[test]
    fn maintained_fingerprint_and_patched_csr_equal_from_scratch(
        graph in arb_influence_graph(),
        workload_seed in 0u64..1_000,
        batches in 1usize..6,
    ) {
        let mut dynamic = DynamicOracle::build(graph, 16, 7, Backend::Sequential);
        let mut rng = Pcg32::seed_from_u64(workload_seed);
        for _ in 0..batches {
            let count = 1 + rng.gen_index(8);
            let batch = imdyn::workload::random_deltas(dynamic.mutable_graph(), count, &mut rng);
            dynamic.apply_batch(&batch).expect("workload batches are valid");
            let current = dynamic.graph();
            prop_assert_eq!(dynamic.fingerprint(), imgraph::lineage::fingerprint(current));
            let rebuilt = dynamic.mutable_graph().materialize();
            prop_assert_eq!(current.graph(), rebuilt.graph());
            prop_assert_eq!(current.transpose(), rebuilt.transpose());
            prop_assert_eq!(current.probabilities(), rebuilt.probabilities());
            prop_assert_eq!(
                current.probability_sum().to_bits(),
                rebuilt.probability_sum().to_bits()
            );
        }
    }
}
