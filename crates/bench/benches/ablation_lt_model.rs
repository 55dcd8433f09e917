//! Ablation: the three approaches under the linear threshold model.
//!
//! Ports the per-sample cost comparison of Table 8 to the LT extension: for
//! the same instance and seed size, how expensive is one Estimate/Build unit
//! of LT-Oneshot, LT-Snapshot and LT-RIS, and do they agree on the seeds?

use criterion::{criterion_group, criterion_main, Criterion};
use im_core::greedy_select;
use im_core::{InfluenceEstimator, Lt, OneshotEstimator, RisEstimator, SnapshotEstimator};
use imnet::ProbabilityModel;
use imrand::default_rng;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let instance = im_bench::karate(ProbabilityModel::InDegreeWeighted);
    let graph = &instance.graph;
    let k = 2;

    println!("\n--- Ablation: LT-model estimators (Karate iwc, k = {k}) ---");
    let mut oneshot = OneshotEstimator::under(Lt, graph, 256, default_rng(1));
    let oneshot_seeds = greedy_select(&mut oneshot, k, &mut default_rng(2)).seed_set();
    let mut snapshot = SnapshotEstimator::under(Lt, graph, 256, &mut default_rng(3), true);
    let snapshot_seeds = greedy_select(&mut snapshot, k, &mut default_rng(4)).seed_set();
    let mut ris = RisEstimator::under(Lt, graph, 16_384, &mut default_rng(5));
    let ris_seeds = greedy_select(&mut ris, k, &mut default_rng(6)).seed_set();
    println!("seeds: LT-Oneshot {oneshot_seeds}, LT-Snapshot {snapshot_seeds}, LT-RIS {ris_seeds}");
    println!(
        "traversal (vertices): Oneshot {} | Snapshot {} (Build: {} edges) | RIS {}",
        oneshot.traversal_cost().vertices,
        snapshot.traversal_cost().vertices,
        snapshot.build_traversal_cost().edges,
        ris.traversal_cost().vertices
    );
    println!(
        "sample size (vertices+edges): Oneshot {} | Snapshot {} | RIS {}",
        oneshot.sample_size().total(),
        snapshot.sample_size().total(),
        ris.sample_size().total()
    );

    let mut group = c.benchmark_group("ablation_lt_model");
    group.sample_size(10);
    group.bench_function("lt_oneshot_beta64_k1", |b| {
        b.iter(|| {
            let mut est = OneshotEstimator::under(Lt, graph, 64, default_rng(7));
            black_box(greedy_select(&mut est, 1, &mut default_rng(8)))
        })
    });
    group.bench_function("lt_snapshot_tau64_k1", |b| {
        b.iter(|| {
            let mut est = SnapshotEstimator::under(Lt, graph, 64, &mut default_rng(7), true);
            black_box(greedy_select(&mut est, 1, &mut default_rng(8)))
        })
    });
    group.bench_function("lt_ris_theta4096_k1", |b| {
        b.iter(|| {
            let mut est = RisEstimator::under(Lt, graph, 4_096, &mut default_rng(7));
            black_box(greedy_select(&mut est, 1, &mut default_rng(8)))
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
