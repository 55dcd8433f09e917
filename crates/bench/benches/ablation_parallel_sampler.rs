//! Ablation: the batched sampler's parallel backend versus its sequential
//! backend on a Chung–Lu power-law graph with ≥ 100k edges.
//!
//! Measures the two embarrassingly parallel Build kernels the refactor moved
//! behind `im_core::sampler` — RIS RR-set generation and Snapshot live-edge
//! sampling — plus the oracle pool build, and prints the observed speedup at
//! 4 worker threads. On a machine with ≥ 4 physical cores the expected
//! speedup is ≥ 2×; on fewer cores the parallel backend still produces
//! byte-identical output (asserted below), it just cannot run faster than the
//! hardware allows.

use criterion::{criterion_group, criterion_main, Criterion};
use im_core::ris::sample_rr_sets_batched;
use im_core::sampler::Backend;
use im_core::snapshot::sample_snapshots_batched;
use im_core::{Ic, InfluenceOracle};
use imgraph::InfluenceGraph;
use imnet::chung_lu::ChungLu;
use imnet::ProbabilityModel;
use std::hint::black_box;
use std::time::Instant;

const THREADS: usize = 4;
const THETA: u64 = 60_000;
const TAU: u64 = 24;

fn chung_lu_graph() -> InfluenceGraph {
    // 40k vertices, ~120k expected edges, Table-3-like exponents.
    let model = ChungLu::power_law(40_000, 120_000, 2.3, 2.3, 0.01);
    let graph = model.generate(&mut imrand::default_rng(97));
    assert!(
        graph.num_edges() >= 100_000,
        "speedup fixture must have at least 100k edges, got {}",
        graph.num_edges()
    );
    ProbabilityModel::uc01().assign(&graph)
}

fn time<F: FnMut()>(mut f: F) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

fn bench(c: &mut Criterion) {
    let ig = chung_lu_graph();
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "\n--- Parallel sampler ablation (Chung-Lu n={} m={}, {cores} cores available) ---",
        ig.num_vertices(),
        ig.num_edges()
    );

    let seq = Backend::Sequential;
    let par = Backend::Parallel { threads: THREADS };

    // Determinism spot check before timing anything.
    let a = sample_rr_sets_batched(Ic, &ig, 2_000, 7, seq);
    let b = sample_rr_sets_batched(Ic, &ig, 2_000, 7, par);
    assert_eq!(
        a, b,
        "parallel backend must be byte-identical to sequential"
    );

    let t_seq = time(|| {
        black_box(sample_rr_sets_batched(Ic, &ig, THETA, 7, seq));
    });
    let t_par = time(|| {
        black_box(sample_rr_sets_batched(Ic, &ig, THETA, 7, par));
    });
    println!(
        "RIS RR generation (θ={THETA}):      sequential {t_seq:.3}s  {THREADS}-thread {t_par:.3}s  speedup {:.2}x",
        t_seq / t_par
    );

    let s_seq = time(|| {
        black_box(sample_snapshots_batched(Ic, &ig, TAU, 7, seq));
    });
    let s_par = time(|| {
        black_box(sample_snapshots_batched(Ic, &ig, TAU, 7, par));
    });
    println!(
        "Snapshot live-edge sampling (τ={TAU}): sequential {s_seq:.3}s  {THREADS}-thread {s_par:.3}s  speedup {:.2}x",
        s_seq / s_par
    );

    let o_seq = time(|| {
        black_box(
            InfluenceOracle::builder(50_000)
                .seed(7)
                .backend(seq)
                .sample(&ig),
        );
    });
    let o_par = time(|| {
        black_box(
            InfluenceOracle::builder(50_000)
                .seed(7)
                .backend(par)
                .sample(&ig),
        );
    });
    println!(
        "Oracle pool build (5·10^4 sets):    sequential {o_seq:.3}s  {THREADS}-thread {o_par:.3}s  speedup {:.2}x",
        o_seq / o_par
    );

    let mut group = c.benchmark_group("parallel_sampler");
    group.sample_size(10);
    group.bench_function("rr_generation/sequential", |bch| {
        bch.iter(|| black_box(sample_rr_sets_batched(Ic, &ig, THETA / 4, 7, seq)))
    });
    group.bench_function(format!("rr_generation/parallel_t{THREADS}"), |bch| {
        bch.iter(|| black_box(sample_rr_sets_batched(Ic, &ig, THETA / 4, 7, par)))
    });
    group.bench_function("snapshot_sampling/sequential", |bch| {
        bch.iter(|| black_box(sample_snapshots_batched(Ic, &ig, TAU / 4, 7, seq)))
    });
    group.bench_function(format!("snapshot_sampling/parallel_t{THREADS}"), |bch| {
        bch.iter(|| black_box(sample_snapshots_batched(Ic, &ig, TAU / 4, 7, par)))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
