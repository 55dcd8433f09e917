//! Determinism contract of the batched sampler layer: for a fixed seed, the
//! parallel backend must produce **byte-identical** results to the sequential
//! backend — same RR sets, same snapshots, same estimates, and therefore the
//! same seed sets — on every estimator (under IC and LT), on the oracle,
//! and through the full `Algorithm` front-end and the experiment harness.

use im_study::im_core::ris::sample_rr_sets_batched;
use im_study::im_core::sampler::Backend;
use im_study::im_core::snapshot::sample_snapshots_batched;
use im_study::im_core::{greedy_select, Algorithm, Diffusion, Ic, InfluenceOracle, Lt, RunOptions};
use im_study::prelude::*;
use imexp::PreparedInstance;

const THREADS: usize = 4;

fn backends() -> (Backend, Backend) {
    (Backend::Sequential, Backend::Parallel { threads: THREADS })
}

fn karate() -> InfluenceGraph {
    Dataset::Karate.influence_graph(ProbabilityModel::uc01(), 0)
}

/// A generated Barabási–Albert graph, larger than Karate so batching actually
/// splits the budget across many batches.
fn ba_graph() -> InfluenceGraph {
    Dataset::BaDense.influence_graph(ProbabilityModel::uc01(), 7)
}

fn graphs() -> Vec<(&'static str, InfluenceGraph)> {
    vec![("karate", karate()), ("ba", ba_graph())]
}

#[test]
fn rr_set_generation_is_backend_invariant() {
    let (seq, par) = backends();
    for (name, graph) in graphs() {
        for seed in [0u64, 42] {
            let a = sample_rr_sets_batched(Ic, &graph, 2_048, seed, seq);
            let b = sample_rr_sets_batched(Ic, &graph, 2_048, seed, par);
            assert_eq!(a, b, "RR sets diverged on {name} (seed {seed})");
        }
    }
}

#[test]
fn snapshot_sampling_is_backend_invariant() {
    let (seq, par) = backends();
    for (name, graph) in graphs() {
        let a = sample_snapshots_batched(Ic, &graph, 512, 9, seq);
        let b = sample_snapshots_batched(Ic, &graph, 512, 9, par);
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(x.graph(), y.graph(), "snapshot {i} diverged on {name}");
            assert_eq!(x.live_edge_count(), y.live_edge_count());
        }
    }
}

#[test]
fn all_three_estimators_select_identical_seeds_on_both_backends() {
    for (name, graph) in graphs() {
        // Oneshot's greedy loop re-samples per candidate, so its budget is
        // kept small; Snapshot and RIS sample only in Build.
        let beta = if name == "karate" { 64 } else { 8 };
        for algorithm in [
            Algorithm::Oneshot { beta },
            Algorithm::Snapshot { tau: 64 },
            Algorithm::Ris { theta: 2_048 },
        ] {
            let seed = 17u64;
            let a = algorithm.run_with_options(
                &graph,
                3,
                seed,
                RunOptions::with_backend(Backend::Sequential),
            );
            let b = algorithm.run_with_options(
                &graph,
                3,
                seed,
                RunOptions::with_backend(Backend::Parallel { threads: THREADS }),
            );
            assert_eq!(
                a, b,
                "{algorithm} run diverged between backends on {name} (seed {seed})"
            );
        }
    }
}

#[test]
fn estimator_internals_agree_between_backends() {
    let graph = karate();
    let (seq, par) = backends();

    let mut ris_a = RisEstimator::with_backend(&graph, 2_048, 5, seq);
    let mut ris_b = RisEstimator::with_backend(&graph, 2_048, 5, par);
    assert_eq!(ris_a.rr_sets(), ris_b.rr_sets());
    assert_eq!(ris_a.traversal_cost(), ris_b.traversal_cost());
    assert_eq!(ris_a.sample_size(), ris_b.sample_size());
    for v in 0..graph.num_vertices() as u32 {
        assert_eq!(ris_a.estimate(v), ris_b.estimate(v));
    }

    let mut snap_a = SnapshotEstimator::with_backend(&graph, 64, 5, seq, true);
    let mut snap_b = SnapshotEstimator::with_backend(&graph, 64, 5, par, true);
    for v in 0..graph.num_vertices() as u32 {
        assert_eq!(snap_a.estimate(v), snap_b.estimate(v));
    }

    let mut one_a = OneshotEstimator::with_backend(&graph, 256, 5, seq);
    let mut one_b = OneshotEstimator::with_backend(&graph, 256, 5, par);
    for v in [0u32, 5, 33] {
        assert_eq!(
            one_a.estimate(v),
            one_b.estimate(v),
            "Oneshot estimate of {v}"
        );
    }
    assert_eq!(one_a.traversal_cost(), one_b.traversal_cost());
}

/// How a pinned case draws its randomness.
#[derive(Debug, Clone, Copy)]
enum Discipline {
    Stream,
    Batched(Backend),
}

const PIN_BETA: u64 = 32;
const PIN_TAU: u64 = 64;
const PIN_THETA: u64 = 2_048;
const PIN_SEED: u64 = 11;
/// Oneshot re-simulates on every call, so a few probes pin its stream.
const ONESHOT_PROBES: [u32; 3] = [0, 8, 33];

/// What one estimator observably does: its estimates (as bits), the greedy
/// order for k = 4, its sample size and its traversal cost afterwards.
#[derive(Debug)]
struct Observed {
    name: &'static str,
    estimates: Vec<u64>,
    order: Vec<u32>,
    sample_size: SampleSize,
    traversal: TraversalCost,
}

fn observe<E: InfluenceEstimator>(estimator: &mut E, probes: &[u32]) -> Observed {
    let estimates = probes
        .iter()
        .map(|&v| estimator.estimate(v).to_bits())
        .collect();
    let order = greedy_select(estimator, 4, &mut default_rng(PIN_SEED + 1)).selection_order;
    Observed {
        name: estimator.approach_name(),
        estimates,
        order,
        sample_size: estimator.sample_size(),
        traversal: estimator.traversal_cost(),
    }
}

fn observe_model<D: Diffusion>(
    model: D,
    graph: &InfluenceGraph,
    discipline: Discipline,
) -> [Observed; 3] {
    let all: Vec<u32> = (0..graph.num_vertices() as u32).collect();
    let rng = || default_rng(PIN_SEED);
    let (beta, tau, theta, seed) = (PIN_BETA, PIN_TAU, PIN_THETA, PIN_SEED);
    match discipline {
        Discipline::Stream => [
            observe(
                &mut OneshotEstimator::under(model, graph, beta, rng()),
                &ONESHOT_PROBES,
            ),
            observe(
                &mut SnapshotEstimator::under(model, graph, tau, &mut rng(), true),
                &all,
            ),
            observe(
                &mut RisEstimator::under(model, graph, theta, &mut rng()),
                &all,
            ),
        ],
        Discipline::Batched(b) => [
            observe(
                &mut OneshotEstimator::under_backend(model, graph, beta, seed, b),
                &ONESHOT_PROBES,
            ),
            observe(
                &mut SnapshotEstimator::under_backend(model, graph, tau, seed, b, true),
                &all,
            ),
            observe(
                &mut RisEstimator::under_backend(model, graph, theta, seed, b),
                &all,
            ),
        ],
    }
}

/// {Oneshot, Snapshot, RIS} × {IC, LT} × {stream, batched Sequential,
/// batched Parallel} on Karate (iwc) against numbers captured from the
/// separate per-model implementations these estimators replaced. Estimates
/// are compared bit for bit. LT-Snapshot's traversal cost is not pinned: its
/// Build work moved from `traversal_cost()` to `build_traversal_cost()`.
#[test]
fn estimators_reproduce_pinned_goldens_for_every_model_and_backend() {
    let graph = Dataset::Karate.influence_graph(ProbabilityModel::InDegreeWeighted, 0);
    let mut cases = 0;
    for discipline in [
        Discipline::Stream,
        Discipline::Batched(Backend::Sequential),
        Discipline::Batched(Backend::Parallel { threads: THREADS }),
    ] {
        let batched = matches!(discipline, Discipline::Batched(_));
        let ic = observe_model(Ic, &graph, discipline);
        let lt = observe_model(Lt, &graph, discipline);
        for o in ic.into_iter().chain(lt) {
            let case = format!("{} {discipline:?}", o.name);
            let golden = GOLDENS
                .iter()
                .find(|g| g.name == o.name && g.batched == batched)
                .unwrap_or_else(|| panic!("no golden for {case}"));
            let bits: Vec<u64> = golden.estimates.iter().map(|x| x.to_bits()).collect();
            assert_eq!(o.estimates, bits, "{case}: estimates");
            assert_eq!(o.order, golden.order, "{case}: greedy order");
            let (vertices, edges) = golden.sample_size;
            assert_eq!(o.sample_size, SampleSize::new(vertices, edges), "{case}");
            if let Some((vertices, edges)) = golden.traversal {
                let expected = TraversalCost { vertices, edges };
                assert_eq!(o.traversal, expected, "{case}: traversal cost");
            }
            cases += 1;
        }
    }
    assert_eq!(cases, 18);
}

struct Golden {
    name: &'static str,
    batched: bool,
    estimates: &'static [f64],
    order: [u32; 4],
    sample_size: (u64, u64),
    traversal: Option<(u64, u64)>,
}

const GOLDENS: &[Golden] = &[
    Golden {
        name: "Oneshot",
        batched: false,
        estimates: &[8.71875, 4.5, 10.96875],
        order: [33, 0, 27, 3],
        sample_size: (0, 0),
        traversal: Some((56459, 275624)),
    },
    Golden {
        name: "Snapshot",
        batched: false,
        estimates: &[
            10.1875, 6.359375, 6.796875, 4.921875, 3.4375, 3.625, 3.15625, 3.609375, 4.234375,
            2.1875, 3.046875, 1.515625, 1.59375, 3.65625, 2.703125, 1.890625, 2.46875, 2.46875,
            1.65625, 3.09375, 1.609375, 2.359375, 1.28125, 3.84375, 3.578125, 2.953125, 2.03125,
            3.734375, 2.40625, 3.296875, 3.578125, 5.421875, 7.515625, 10.828125,
        ],
        order: [33, 0, 32, 1],
        sample_size: (2176, 2171),
        traversal: Some((24747, 23167)),
    },
    Golden {
        name: "RIS",
        batched: false,
        estimates: &[
            10.16015625,
            5.9765625,
            6.7734375,
            4.6650390625,
            3.021484375,
            3.884765625,
            3.6025390625,
            3.4365234375,
            3.8681640625,
            2.2412109375,
            3.0546875,
            1.361328125,
            2.32421875,
            4.05078125,
            2.390625,
            2.4736328125,
            2.390625,
            2.125,
            1.9423828125,
            2.5732421875,
            1.9921875,
            2.125,
            2.3076171875,
            3.9345703125,
            2.556640625,
            2.5234375,
            2.390625,
            3.453125,
            2.6064453125,
            3.4365234375,
            2.9716796875,
            4.416015625,
            7.9521484375,
            10.6083984375,
        ],
        order: [33, 0, 32, 2],
        sample_size: (7565, 0),
        traversal: Some((7565, 51593)),
    },
    Golden {
        name: "LT-Oneshot",
        batched: false,
        estimates: &[11.96875, 2.625, 13.5625],
        order: [33, 0, 21, 29],
        sample_size: (0, 0),
        traversal: Some((70528, 331050)),
    },
    Golden {
        name: "LT-Snapshot",
        batched: false,
        estimates: &[
            11.59375, 5.5625, 6.4375, 4.90625, 3.015625, 4.328125, 4.625, 2.375, 3.421875, 1.53125,
            3.953125, 1.375, 3.21875, 3.859375, 2.28125, 3.09375, 2.546875, 2.515625, 2.625,
            3.09375, 2.59375, 3.03125, 1.890625, 7.40625, 3.328125, 4.515625, 1.953125, 5.3125,
            2.609375, 3.6875, 2.390625, 6.40625, 9.765625, 13.984375,
        ],
        order: [33, 0, 32, 5],
        sample_size: (2176, 2176),
        traversal: None,
    },
    Golden {
        name: "LT-RIS",
        batched: false,
        estimates: &[
            11.8701171875,
            7.6201171875,
            8.0849609375,
            5.345703125,
            3.087890625,
            3.7021484375,
            4.0673828125,
            3.4033203125,
            4.548828125,
            2.224609375,
            3.1875,
            1.4609375,
            2.85546875,
            4.78125,
            2.888671875,
            2.5234375,
            2.2578125,
            2.6064453125,
            2.5234375,
            3.1376953125,
            2.85546875,
            2.2744140625,
            2.4072265625,
            4.6318359375,
            3.5859375,
            3.154296875,
            2.6396484375,
            3.884765625,
            3.0048828125,
            4.2333984375,
            3.9013671875,
            5.4619140625,
            10.29296875,
            13.3642578125,
        ],
        order: [33, 0, 32, 1],
        sample_size: (8907, 0),
        traversal: Some((8907, 35274)),
    },
    Golden {
        name: "Oneshot",
        batched: true,
        estimates: &[9.96875, 2.84375, 9.875],
        order: [0, 33, 32, 2],
        sample_size: (0, 0),
        traversal: Some((57038, 279329)),
    },
    Golden {
        name: "Snapshot",
        batched: true,
        estimates: &[
            11.265625, 6.65625, 6.71875, 3.328125, 3.671875, 4.125, 4.0, 3.515625, 3.984375, 1.875,
            3.671875, 1.5625, 1.609375, 3.09375, 2.359375, 1.71875, 2.03125, 1.9375, 1.65625,
            2.890625, 1.46875, 2.390625, 3.0625, 4.875, 3.015625, 3.25, 2.234375, 3.9375, 4.390625,
            3.59375, 4.59375, 5.625, 8.265625, 10.53125,
        ],
        order: [0, 33, 32, 2],
        sample_size: (2176, 2185),
        traversal: Some((25486, 24224)),
    },
    Golden {
        name: "RIS",
        batched: true,
        estimates: &[
            9.828125,
            6.3251953125,
            6.4580078125,
            4.6650390625,
            2.6728515625,
            3.287109375,
            3.4365234375,
            3.2041015625,
            3.8017578125,
            1.859375,
            2.6728515625,
            1.4609375,
            1.9755859375,
            3.9677734375,
            1.693359375,
            2.1748046875,
            2.3076171875,
            2.1748046875,
            2.3408203125,
            3.087890625,
            2.0419921875,
            2.158203125,
            2.1416015625,
            4.0673828125,
            2.9384765625,
            3.021484375,
            2.1748046875,
            3.2705078125,
            2.755859375,
            3.486328125,
            3.4697265625,
            4.515625,
            7.96875,
            9.9775390625,
        ],
        order: [33, 0, 32, 1],
        sample_size: (7432, 0),
        traversal: Some((7432, 50470)),
    },
    Golden {
        name: "LT-Oneshot",
        batched: true,
        estimates: &[12.90625, 5.46875, 10.75],
        order: [33, 0, 32, 16],
        sample_size: (0, 0),
        traversal: Some((72594, 341220)),
    },
    Golden {
        name: "LT-Snapshot",
        batched: true,
        estimates: &[
            12.375, 8.75, 8.25, 5.203125, 4.0, 4.0625, 4.03125, 3.765625, 4.59375, 1.828125,
            3.8125, 1.546875, 2.171875, 5.109375, 3.109375, 2.375, 2.96875, 1.90625, 2.265625,
            3.265625, 2.515625, 1.859375, 1.78125, 5.078125, 3.90625, 3.375, 2.609375, 4.09375,
            3.765625, 4.59375, 4.453125, 5.578125, 10.359375, 12.3125,
        ],
        order: [0, 33, 32, 1],
        sample_size: (2176, 2176),
        traversal: None,
    },
    Golden {
        name: "LT-RIS",
        batched: true,
        estimates: &[
            12.4677734375,
            7.5869140625,
            8.30078125,
            5.3623046875,
            3.7353515625,
            4.0009765625,
            4.2001953125,
            3.8681640625,
            4.416015625,
            2.490234375,
            3.71875,
            1.7099609375,
            2.6728515625,
            4.6318359375,
            2.0751953125,
            2.2080078125,
            2.3408203125,
            2.158203125,
            2.3076171875,
            3.0048828125,
            2.5068359375,
            2.45703125,
            2.4736328125,
            4.8974609375,
            3.2373046875,
            2.98828125,
            2.4404296875,
            4.1337890625,
            3.1875,
            3.984375,
            3.818359375,
            5.77734375,
            9.8447265625,
            12.6337890625,
        ],
        order: [33, 0, 32, 1],
        sample_size: (8893, 0),
        traversal: Some((8893, 35589)),
    },
];

#[test]
fn oracle_pool_is_backend_invariant() {
    let graph = karate();
    let (seq, par) = backends();
    let a = InfluenceOracle::builder(20_000)
        .seed(13)
        .backend(seq)
        .sample(&graph);
    let b = InfluenceOracle::builder(20_000)
        .seed(13)
        .backend(par)
        .sample(&graph);
    assert_eq!(a.singleton_influences(), b.singleton_influences());
    let seeds: Vec<u32> = vec![0, 2, 33];
    assert_eq!(a.estimate(&seeds), b.estimate(&seeds));
}

#[test]
fn trial_fanout_is_thread_count_invariant() {
    let instance = PreparedInstance::prepare(
        InstanceConfig::new(Dataset::Karate, ProbabilityModel::uc01()),
        5_000,
        7,
    );
    let algorithm = Algorithm::Ris { theta: 256 };
    let serial = instance.run_trials_threads(algorithm, 2, 16, 23, 1);
    let four = instance.run_trials_threads(algorithm, 2, 16, 23, 4);
    let auto = instance.run_trials_threads(algorithm, 2, 16, 23, 0);
    assert_eq!(serial.outcomes, four.outcomes);
    assert_eq!(serial.outcomes, auto.outcomes);
}
