//! Ablation: the Snapshot subgraph-reduction Update optimisation of
//! Section 3.4.3 on vs off.

use criterion::{criterion_group, criterion_main, Criterion};
use im_core::{greedy_select, Ic, InfluenceEstimator, SnapshotEstimator};
use imnet::ProbabilityModel;
use imrand::Pcg32;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let instance = im_bench::ba_dense(ProbabilityModel::uc01());
    let graph = &instance.graph;

    println!("\n--- Ablation: Snapshot subgraph reduction (BA_d uc0.1, k = 8, tau = 16) ---");
    for (label, reduction) in [("with reduction", true), ("without reduction", false)] {
        let mut sampling = Pcg32::seed_from_u64(3);
        let mut estimator = SnapshotEstimator::under(Ic, graph, 16, &mut sampling, reduction);
        let result = greedy_select(&mut estimator, 8, &mut Pcg32::seed_from_u64(4));
        println!(
            "{label:<18} traversal = {} vertices / {} edges, seeds = {}",
            estimator.traversal_cost().vertices,
            estimator.traversal_cost().edges,
            result.seed_set(),
        );
    }

    let mut group = c.benchmark_group("ablation_snapshot_reduction");
    group.sample_size(10);
    for (label, reduction) in [("reduced", true), ("naive", false)] {
        group.bench_function(format!("greedy_k8_tau16/{label}"), |b| {
            b.iter(|| {
                let mut sampling = Pcg32::seed_from_u64(3);
                let mut estimator =
                    SnapshotEstimator::under(Ic, graph, 16, &mut sampling, reduction);
                black_box(greedy_select(
                    &mut estimator,
                    8,
                    &mut Pcg32::seed_from_u64(4),
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
