//! Integration tests asserting the paper's qualitative findings hold on this
//! implementation (the "shape" reproduction `BENCH_paper.json` quantifies).

use im_study::prelude::*;

fn prepare(dataset: Dataset, model: ProbabilityModel, pool: usize) -> PreparedInstance {
    PreparedInstance::prepare(InstanceConfig::new(dataset, model), pool, 99)
}

#[test]
fn finding_1_unique_solution_for_large_sample_numbers() {
    // Section 5.4.1: seed-set distributions approach a degenerate distribution
    // and the limit seed set is algorithm-independent.
    let instance = prepare(Dataset::Karate, ProbabilityModel::uc01(), 60_000);
    // The paper needed θ up to 2^24 before RIS's seed-set distribution
    // degenerated on Karate; 2^18 is enough at this trial count.
    let snapshot = instance.run_trials(Algorithm::Snapshot { tau: 2_048 }, 1, 8, 4, true);
    let ris = instance.run_trials(Algorithm::Ris { theta: 262_144 }, 1, 8, 4, true);
    let s_mode = snapshot.seed_set_distribution().mode().unwrap().0.clone();
    let r_mode = ris.seed_set_distribution().mode().unwrap().0.clone();
    assert!(snapshot.seed_set_distribution().is_degenerate());
    assert!(ris.seed_set_distribution().is_degenerate());
    assert_eq!(
        s_mode, r_mode,
        "Snapshot and RIS must share the same limit seed set"
    );
}

#[test]
fn finding_2_snapshot_needs_fewer_samples_than_oneshot() {
    // Section 5.4.2 / Table 6: the comparable number ratio β/τ is at least 1
    // (Snapshot's estimator is monotone + submodular, Oneshot's is not).
    let instance = prepare(Dataset::Karate, ProbabilityModel::uc01(), 60_000);
    let sweep = SweepConfig {
        sample_numbers: vec![1, 2, 4, 8, 16, 32, 64, 128],
        trials: 60,
        base_seed: 11,
        threads: 0,
    };
    let snapshot_curve = instance
        .sweep(ApproachKind::Snapshot, 4, &sweep)
        .sample_curve();
    let oneshot_curve = instance
        .sweep(ApproachKind::Oneshot, 4, &sweep)
        .sample_curve();
    let ratios = imstats::comparable_number_ratio(&snapshot_curve, &oneshot_curve);
    assert!(
        !ratios.is_empty(),
        "some reference points must be comparable"
    );
    let median =
        imstats::ratio::median_ratio(&ratios.iter().map(|p| p.number_ratio).collect::<Vec<_>>())
            .unwrap();
    assert!(
        median >= 1.0,
        "Oneshot should need at least as many samples as Snapshot (median ratio {median})"
    );
}

#[test]
fn finding_3_ris_needs_more_but_much_smaller_samples_than_snapshot() {
    // Section 5.4.2 / Table 7: θ/τ ≫ 1 but the size ratio is far smaller,
    // i.e. RIS is more space-saving per unit of accuracy.
    let instance = prepare(Dataset::Karate, ProbabilityModel::uc001(), 60_000);
    let snapshot_sweep = SweepConfig {
        sample_numbers: vec![1, 4, 16, 64],
        trials: 50,
        base_seed: 21,
        threads: 0,
    };
    let ris_sweep = SweepConfig {
        sample_numbers: (0..=14).map(|e| 1u64 << e).collect(),
        trials: 50,
        base_seed: 22,
        threads: 0,
    };
    let snapshot_curve = instance
        .sweep(ApproachKind::Snapshot, 1, &snapshot_sweep)
        .sample_curve();
    let ris_curve = instance
        .sweep(ApproachKind::Ris, 1, &ris_sweep)
        .sample_curve();
    let points = imstats::comparable_number_ratio(&snapshot_curve, &ris_curve);
    assert!(!points.is_empty());
    let number_median =
        imstats::ratio::median_ratio(&points.iter().map(|p| p.number_ratio).collect::<Vec<_>>())
            .unwrap();
    let size_median = imstats::ratio::median_ratio(
        &points
            .iter()
            .filter_map(|p| p.size_ratio)
            .collect::<Vec<_>>(),
    )
    .unwrap();
    assert!(
        number_median > 4.0,
        "RIS should need many more samples (got {number_median})"
    );
    assert!(
        size_median < number_median / 4.0,
        "the size ratio ({size_median}) must be far below the number ratio ({number_median})"
    );
}

#[test]
fn finding_4_per_sample_traversal_cost_ratio() {
    // Section 5.4.3: vertex cost 1 : 1 : 1/n, edge cost 1 : m̃/m : 1/n.
    let instance = prepare(Dataset::BaDense, ProbabilityModel::uc001(), 30_000);
    let n = instance.graph.num_vertices() as f64;
    let m = instance.graph.num_edges() as f64;
    let m_tilde = instance.graph.probability_sum();
    let trials = 300;
    let cost = |algorithm: Algorithm| {
        instance
            .run_trials(algorithm, 1, trials, 8, true)
            .mean_traversal_cost()
    };
    let oneshot = cost(Algorithm::Oneshot { beta: 1 });
    let snapshot = cost(Algorithm::Snapshot { tau: 1 });
    let ris = cost(Algorithm::Ris { theta: 1 });

    // Vertex cost: Oneshot ≈ Snapshot, and both ≈ n × RIS.
    assert!(
        (oneshot.0 / snapshot.0 - 1.0).abs() < 0.35,
        "Oneshot {} vs Snapshot {}",
        oneshot.0,
        snapshot.0
    );
    let vertex_ratio = n * ris.0 / oneshot.0;
    assert!(
        (vertex_ratio - 1.0).abs() < 0.5,
        "n·RIS/Oneshot vertex ratio {vertex_ratio}"
    );
    // Edge cost: Snapshot/Oneshot ≈ m̃/m (≈ 0.01 under uc0.01).
    let edge_ratio = snapshot.1 / oneshot.1;
    let expected = m_tilde / m;
    assert!(
        edge_ratio < 5.0 * expected + 0.05,
        "Snapshot edge cost should be roughly m̃/m of Oneshot's ({edge_ratio} vs {expected})"
    );
    // RIS is the cheapest per sample by a wide margin.
    assert!(ris.1 < oneshot.1 / 10.0);
}

#[test]
fn finding_5_high_probability_edges_cause_expensive_traversal() {
    // Section 5.3.1: uc0.1 incurs far higher traversal cost than uc0.01 on the
    // dense BA graph because a giant component emerges in the live-edge graph.
    let dense_high = prepare(Dataset::BaDense, ProbabilityModel::uc01(), 20_000);
    let dense_low = prepare(Dataset::BaDense, ProbabilityModel::uc001(), 20_000);
    let cost_high = dense_high
        .run_trials(Algorithm::Oneshot { beta: 1 }, 1, 100, 5, true)
        .mean_traversal_cost();
    let cost_low = dense_low
        .run_trials(Algorithm::Oneshot { beta: 1 }, 1, 100, 5, true)
        .mean_traversal_cost();
    assert!(
        cost_high.1 > 10.0 * cost_low.1,
        "uc0.1 edge traversal ({}) should dwarf uc0.01 ({})",
        cost_high.1,
        cost_low.1
    );
    // And indeed the live-edge graph of BA_d (uc0.1) has a giant weak
    // component while the uc0.01 one does not.
    let mut rng = default_rng(17);
    let snap_high = imgraph::live_edge::sample_snapshot(&dense_high.graph, &mut rng);
    let snap_low = imgraph::live_edge::sample_snapshot(&dense_low.graph, &mut rng);
    let giant_high = imgraph::components::largest_weak_component(snap_high.graph());
    let giant_low = imgraph::components::largest_weak_component(snap_low.graph());
    assert!(
        giant_high > 5 * giant_low,
        "giant component {giant_high} (uc0.1) vs {giant_low} (uc0.01)"
    );
}

#[test]
fn finding_6_mean_is_a_dominant_statistic() {
    // Section 5.2.3 / Figure 6: at comparable means, the standard deviations of
    // different approaches are comparable too (the mean determines the rest of
    // the distribution shape regardless of the algorithm).
    let instance = prepare(Dataset::Karate, ProbabilityModel::uc01(), 60_000);
    let sweep = SweepConfig {
        sample_numbers: vec![4, 16, 64, 256],
        trials: 60,
        base_seed: 31,
        threads: 0,
    };
    let snapshot = instance.sweep(ApproachKind::Snapshot, 4, &sweep);
    let ris_sweep = SweepConfig {
        sample_numbers: vec![64, 256, 1_024, 4_096],
        trials: 60,
        base_seed: 32,
        threads: 0,
    };
    let ris = instance.sweep(ApproachKind::Ris, 4, &ris_sweep);
    // For each Snapshot point, find the RIS point with the closest mean and
    // compare SDs: they should be within a factor of ~3 (they lie on the same
    // mean-vs-SD curve).
    for s in &snapshot.analyses {
        let closest = ris
            .analyses
            .iter()
            .min_by(|a, b| {
                (a.influence_stats.mean - s.influence_stats.mean)
                    .abs()
                    .partial_cmp(&(b.influence_stats.mean - s.influence_stats.mean).abs())
                    .unwrap()
            })
            .unwrap();
        if (closest.influence_stats.mean - s.influence_stats.mean).abs() < 0.3 {
            let sd_a = s.influence_stats.std_dev.max(0.02);
            let sd_b = closest.influence_stats.std_dev.max(0.02);
            let ratio = (sd_a / sd_b).max(sd_b / sd_a);
            assert!(
                ratio < 4.0,
                "at mean ≈ {:.2}, SDs {sd_a:.3} and {sd_b:.3} should be comparable",
                s.influence_stats.mean
            );
        }
    }
}
