//! Ablation: space reduction for Snapshot and RIS (the paper's Section 7
//! question).
//!
//! Measures the accuracy/space trade-off of bottom-k reachability sketches
//! against exact descendant counts on a live-edge snapshot, and the
//! wall-clock cost of building each. Compressed RR sets are the oracle's
//! `PoolLayout::Compressed`, measured at scale by `imexp pool`
//! (`BENCH_pool.json`).

use criterion::{criterion_group, criterion_main, Criterion};
use imgraph::live_edge::sample_snapshot;
use imnet::ProbabilityModel;
use imrand::default_rng;
use imsketch::{descendant_counts, ReachabilitySketches};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let instance = im_bench::grqc_small(ProbabilityModel::uc01());
    let graph = &instance.graph;

    // Series: sketch error, printed like the tables.
    let mut rng = default_rng(1);
    println!("\n--- Ablation: space reduction (ca-GrQc/8 uc0.1) ---");
    let snapshot = sample_snapshot(graph, &mut rng);
    let exact = descendant_counts(snapshot.graph());
    for k in [8usize, 32, 128] {
        let sketches = ReachabilitySketches::build(snapshot.graph(), k, &mut default_rng(2));
        let mean_err: f64 = (0..graph.num_vertices())
            .map(|v| (sketches.estimate_reachable(v as u32) - exact[v] as f64).abs())
            .sum::<f64>()
            / graph.num_vertices() as f64;
        println!(
            "bottom-{k:<3} sketches: {} ranks stored, mean |error| = {mean_err:.2} vertices",
            sketches.stored_ranks()
        );
    }

    let mut group = c.benchmark_group("ablation_space_reduction");
    group.sample_size(10);
    group.bench_function("bottomk32_sketch_build", |b| {
        b.iter(|| {
            let s = ReachabilitySketches::build(snapshot.graph(), 32, &mut default_rng(9));
            black_box(s.stored_ranks())
        })
    });
    group.bench_function("exact_descendant_counts", |b| {
        b.iter(|| black_box(descendant_counts(snapshot.graph())))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
