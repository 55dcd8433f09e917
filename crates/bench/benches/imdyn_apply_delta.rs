//! Maintenance bench: single-mutation `DynamicOracle::apply` latency versus a
//! full incremental `InfluenceOracle::builder(..).sample` on a Chung–Lu
//! power-law graph with ≥ 100k edges (the same fixture family as the parallel-sampler
//! ablation), under the paper's `uc0.01` cascade — the subcritical regime
//! (EPT ≈ 1) where a large pool is cheap to hold but still minutes-scale to
//! rebuild at paper sizes, i.e. the realistic serving profile. (Under
//! `uc0.1` this fixture is supercritical with EPT ≈ 290: RR sets span the
//! giant component, dirty-set counts approach a constant fraction of the
//! pool, and *no* maintenance scheme — incremental or not — beats a rebuild
//! by a large factor; the interesting serving regime is the sparse one.)
//!
//! The incremental path resamples only the RR sets containing the mutated
//! edge's head (`≈ pool · Inf(head)/n` sets) plus, for structural deltas, one
//! CSR re-materialization; the rebuild resamples the whole pool. The bench
//! prints the measured speedup and asserts the ≥ 10× maintenance advantage
//! the subsystem exists to provide, after first checking the byte-identity
//! contract on a smaller pool so the timed configuration is known-correct.

use criterion::{criterion_group, criterion_main, Criterion};
use im_core::sampler::Backend;
use im_core::InfluenceOracle;
use imdyn::{workload, DynamicOracle};
use imgraph::InfluenceGraph;
use imnet::chung_lu::ChungLu;
use imnet::ProbabilityModel;
use imrand::Pcg32;
use std::hint::black_box;
use std::time::Instant;

const POOL: usize = 500_000;
const SEED: u64 = 29;
const MUTATIONS: usize = 64;

fn chung_lu_graph() -> InfluenceGraph {
    // 40k vertices, ~120k expected edges, Table-3-like exponents.
    let model = ChungLu::power_law(40_000, 120_000, 2.3, 2.3, 0.01);
    let graph = model.generate(&mut imrand::default_rng(97));
    assert!(
        graph.num_edges() >= 100_000,
        "maintenance fixture must have at least 100k edges, got {}",
        graph.num_edges()
    );
    ProbabilityModel::uc001().assign(&graph)
}

fn bench(c: &mut Criterion) {
    let ig = chung_lu_graph();
    println!(
        "\n--- imdyn maintenance bench (Chung-Lu n={} m={}, pool {POOL}) ---",
        ig.num_vertices(),
        ig.num_edges()
    );

    // Correctness first: on a small pool the maintained state must be
    // byte-identical to a rebuild after a mutation burst.
    {
        let mut small = DynamicOracle::build(ig.clone(), 2_000, SEED, Backend::Sequential);
        let mut rng = Pcg32::seed_from_u64(5);
        for _ in 0..8 {
            let delta = workload::random_delta(small.mutable_graph(), &mut rng);
            small.apply(delta).expect("workload deltas are valid");
        }
        assert!(
            small.matches_rebuild(),
            "maintained pool must equal a from-scratch rebuild"
        );
    }

    // The rebuild cost every mutation would pay without the subsystem.
    let started = Instant::now();
    let rebuilt = InfluenceOracle::builder(POOL)
        .seed(SEED)
        .backend(Backend::Sequential)
        .incremental()
        .sample(&ig);
    let rebuild_secs = started.elapsed().as_secs_f64();
    black_box(rebuilt);

    // Per-mutation maintenance cost over a mixed workload.
    let mut dynamic = DynamicOracle::build(ig.clone(), POOL, SEED, Backend::Sequential);
    let mut rng = Pcg32::seed_from_u64(11);
    let mut apply_secs = Vec::with_capacity(MUTATIONS);
    let mut resampled_total = 0usize;
    for _ in 0..MUTATIONS {
        let delta = workload::random_delta(dynamic.mutable_graph(), &mut rng);
        let started = Instant::now();
        let outcome = dynamic.apply(delta).expect("workload deltas are valid");
        apply_secs.push(started.elapsed().as_secs_f64());
        resampled_total += outcome.resampled;
    }
    let mean_apply = apply_secs.iter().sum::<f64>() / apply_secs.len() as f64;
    let max_apply = apply_secs.iter().cloned().fold(0.0f64, f64::max);
    let speedup = rebuild_secs / mean_apply;
    println!(
        "full rebuild: {rebuild_secs:.3}s   apply_delta over {MUTATIONS} mutations: \
         mean {:.3}ms  max {:.3}ms  ({} sets resampled total)",
        mean_apply * 1e3,
        max_apply * 1e3,
        resampled_total
    );
    println!("measured speedup (rebuild / mean apply): {speedup:.1}x");
    assert!(
        speedup >= 10.0,
        "single-mutation maintenance must be at least 10x cheaper than a rebuild \
         (measured {speedup:.1}x)"
    );

    let mut group = c.benchmark_group("imdyn_maintenance");
    group.sample_size(10);
    group.bench_function("apply_delta/mixed_workload", |bch| {
        let mut dynamic = DynamicOracle::build(ig.clone(), POOL / 4, SEED, Backend::Sequential);
        let mut rng = Pcg32::seed_from_u64(23);
        bch.iter(|| {
            let delta = workload::random_delta(dynamic.mutable_graph(), &mut rng);
            black_box(dynamic.apply(delta).expect("workload deltas are valid"))
        })
    });
    group.bench_function("rebuild/full_pool", |bch| {
        bch.iter(|| {
            black_box(
                InfluenceOracle::builder(POOL / 4)
                    .seed(SEED)
                    .backend(Backend::Sequential)
                    .incremental()
                    .sample(&ig),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
