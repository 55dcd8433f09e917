//! Property tests of the write path's two incremental structures: after any
//! sequence of single deltas, atomic batches (accepted and rejected),
//! compactions and reassemblies, the maintained lineage fingerprint equals
//! the from-scratch fingerprint of the graph, and the in-place patched CSR
//! equals re-materializing the edge list — field for field.

use im_core::sampler::Backend;
use imdyn::{workload, DynamicOracle};
use imgraph::{lineage, DiGraph, GraphDelta, InfluenceGraph};
use imrand::{Pcg32, Rng32};
use proptest::prelude::*;

/// Strategy: a random influence graph over `2..=9` vertices with `0..=20`
/// edges, parallel edges and self-loops included.
fn arb_influence_graph() -> impl Strategy<Value = InfluenceGraph> {
    (2usize..10).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        proptest::collection::vec(edge, 0..20).prop_flat_map(move |edges| {
            let len = edges.len();
            (
                Just(n),
                Just(edges),
                proptest::collection::vec(0.05f64..1.0, len),
            )
                .prop_map(|(n, edges, probs)| {
                    InfluenceGraph::new(DiGraph::from_edges(n, &edges), probs)
                })
        })
    })
}

/// The two invariants, checked against their from-scratch definitions.
fn assert_incremental_equals_scratch(dynamic: &DynamicOracle, what: &str) {
    let graph = dynamic.graph();
    assert_eq!(
        dynamic.fingerprint(),
        lineage::fingerprint(graph),
        "fingerprint drifted after {what}"
    );
    let reference = dynamic.mutable_graph().materialize();
    // `DiGraph` equality is all six arrays: offsets, neighbours and edge
    // ids, both directions.
    assert_eq!(graph.graph(), reference.graph(), "CSR after {what}");
    assert_eq!(
        graph.transpose(),
        reference.transpose(),
        "transpose after {what}"
    );
    assert_eq!(
        graph.probabilities(),
        reference.probabilities(),
        "probabilities after {what}"
    );
    assert_eq!(
        graph.probability_sum().to_bits(),
        reference.probability_sum().to_bits(),
        "probability sum after {what}"
    );
}

/// A batch built to hit the id-translation corners: an edge inserted and
/// deleted again inside the batch, a parallel twin of an existing edge, and
/// the first and last edge ids deleted (and one of them re-inserted).
fn corner_batch(dynamic: &DynamicOracle, rng: &mut Pcg32) -> Vec<GraphDelta> {
    let mutable = dynamic.mutable_graph();
    let n = mutable.num_vertices();
    let (source, target) = (rng.gen_index(n) as u32, rng.gen_index(n) as u32);
    let mut batch = vec![
        GraphDelta::InsertEdge {
            source,
            target,
            probability: 0.5,
        },
        GraphDelta::DeleteEdge { source, target },
    ];
    if let (Some(&first), Some(&last)) = (mutable.edges().first(), mutable.edges().last()) {
        batch.push(GraphDelta::InsertEdge {
            source: first.0,
            target: first.1,
            probability: 0.25,
        });
        batch.push(GraphDelta::DeleteEdge {
            source: first.0,
            target: first.1,
        });
        batch.push(GraphDelta::SetProbability {
            source: last.0,
            target: last.1,
            probability: 1.0,
        });
        batch.push(GraphDelta::DeleteEdge {
            source: last.0,
            target: last.1,
        });
        batch.push(GraphDelta::InsertEdge {
            source: last.0,
            target: last.1,
            probability: 0.125,
        });
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fingerprint_and_csr_track_their_from_scratch_definitions(
        graph in arb_influence_graph(),
        pool in 1usize..32,
        base_seed in 0u64..500,
        workload_seed in 0u64..1_000,
        steps in 1usize..14,
    ) {
        let mut dynamic = DynamicOracle::build(graph, pool, base_seed, Backend::Sequential);
        assert_incremental_equals_scratch(&dynamic, "build");
        let mut rng = Pcg32::seed_from_u64(workload_seed);
        for _ in 0..steps {
            match rng.gen_index(7) {
                0 => {
                    let delta = workload::random_delta(dynamic.mutable_graph(), &mut rng);
                    dynamic.apply(delta).expect("workload deltas are valid");
                    assert_incremental_equals_scratch(&dynamic, "apply");
                }
                1 => {
                    let count = 1 + rng.gen_index(8);
                    let batch = workload::random_deltas(dynamic.mutable_graph(), count, &mut rng);
                    dynamic.apply_batch(&batch).expect("workload batches are valid");
                    assert_incremental_equals_scratch(&dynamic, "apply_batch");
                }
                2 => {
                    // A valid batch with one impossible delta at a random
                    // position: rejected as a unit, nothing may move.
                    let count = 1 + rng.gen_index(6);
                    let mut batch =
                        workload::random_deltas(dynamic.mutable_graph(), count, &mut rng);
                    let out_of_range = dynamic.graph().num_vertices() as u32;
                    batch.insert(
                        rng.gen_index(count + 1),
                        GraphDelta::DeleteEdge { source: out_of_range, target: 0 },
                    );
                    let (epoch, fingerprint) = (dynamic.epoch(), dynamic.fingerprint());
                    prop_assert!(dynamic.apply_batch(&batch).is_err());
                    prop_assert_eq!(dynamic.epoch(), epoch);
                    prop_assert_eq!(dynamic.fingerprint(), fingerprint);
                    assert_incremental_equals_scratch(&dynamic, "a rejected batch");
                }
                3 => {
                    let batch = corner_batch(&dynamic, &mut rng);
                    dynamic.apply_batch(&batch).expect("corner batches are valid");
                    assert_incremental_equals_scratch(&dynamic, "the corner batch");
                }
                4 => {
                    dynamic.compact();
                    assert_incremental_equals_scratch(&dynamic, "compact");
                }
                5 => {
                    let epoch = dynamic.epoch();
                    dynamic = DynamicOracle::restore(dynamic.snapshot());
                    prop_assert_eq!(dynamic.epoch(), epoch);
                    assert_incremental_equals_scratch(&dynamic, "snapshot -> restore");
                }
                _ => {
                    dynamic = DynamicOracle::from_parts(
                        dynamic.graph().clone(),
                        dynamic.oracle().clone(),
                        dynamic.log().clone(),
                        dynamic.snapshot_epoch(),
                    )
                    .expect("a live oracle's parts reassemble");
                    assert_incremental_equals_scratch(&dynamic, "from_parts");
                }
            }
        }
        prop_assert!(dynamic.matches_rebuild());
    }
}
