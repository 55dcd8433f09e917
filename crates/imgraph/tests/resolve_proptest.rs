//! `CsrPatch::resolve` against the reference model: on random graphs
//! (parallel edges and self-loops included) and random batches of all three
//! delta kinds, resolving a batch against the CSR and patching it in place
//! must give exactly the graph `MutableInfluenceGraph::apply_batch` +
//! `materialize` gives — field for field, `probability_sum` to the bit — and
//! a batch the reference rejects must be rejected with the same delta index,
//! the same `DeltaError` and the same words, leaving the graph as it was.

use imgraph::binio::influence_graph_to_bytes;
use imgraph::{CsrPatch, DiGraph, GraphDelta, InfluenceGraph, MutableInfluenceGraph};
use imrand::{Pcg32, Rng32};
use proptest::prelude::*;
use proptest::TestCaseError;

/// Distinct probabilities, so a delta that lands on the wrong parallel twin
/// leaves a different graph behind.
const PALETTE: [f64; 6] = [0.03125, 0.0625, 0.125, 0.25, 0.5, 1.0];

/// A random influence graph over `1..=6` vertices with `0..=24` edges: few
/// vertices, so parallel edges and self-loops are common.
fn arb_influence_graph() -> impl Strategy<Value = InfluenceGraph> {
    (1usize..7).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        proptest::collection::vec(edge, 0..25).prop_flat_map(move |edges| {
            let len = edges.len();
            (
                Just(n),
                Just(edges),
                proptest::collection::vec(0usize..PALETTE.len(), len),
            )
                .prop_map(|(n, edges, picks)| {
                    let probs = picks.into_iter().map(|i| PALETTE[i]).collect();
                    InfluenceGraph::new(DiGraph::from_edges(n, &edges), probs)
                })
        })
    })
}

fn palette(rng: &mut Pcg32) -> f64 {
    PALETTE[rng.gen_index(PALETTE.len())]
}

/// One delta the reference accepts in state `at`, aimed at the corners: an
/// edge picked by position (so the first and last ids, the batch's own
/// inserts and the second of two parallel twins all get named — the twin by
/// endpoints, so the delta must act on the first), or fresh endpoints.
fn valid_delta(at: &MutableInfluenceGraph, rng: &mut Pcg32) -> GraphDelta {
    let n = at.num_vertices();
    let m = at.num_edges();
    let kind = if m == 0 { 0 } else { rng.gen_index(5) };
    let pick = |rng: &mut Pcg32| match rng.gen_index(4) {
        0 => at.edges()[0],
        1 => at.edges()[m - 1],
        _ => at.edges()[rng.gen_index(m)],
    };
    match kind {
        0 | 1 => GraphDelta::InsertEdge {
            source: rng.gen_index(n) as u32,
            target: rng.gen_index(n) as u32,
            probability: palette(rng),
        },
        2 | 3 => {
            let (source, target) = pick(rng);
            GraphDelta::DeleteEdge { source, target }
        }
        _ => {
            let (source, target) = pick(rng);
            GraphDelta::SetProbability {
                source,
                target,
                probability: palette(rng),
            }
        }
    }
}

/// One delta the reference rejects in state `at`: an endpoint out of range,
/// a probability outside `(0, 1]`, a missing edge, or two faults at once
/// (which one is reported pins the order of the checks).
fn invalid_delta(at: &MutableInfluenceGraph, rng: &mut Pcg32) -> GraphDelta {
    let n = at.num_vertices() as u32;
    let inside = |rng: &mut Pcg32| rng.gen_index(n as usize) as u32;
    let outside = |rng: &mut Pcg32| n + rng.gen_index(2) as u32;
    let bad_probability = |rng: &mut Pcg32| [0.0, -0.5, 1.5, f64::INFINITY][rng.gen_index(4)];
    let missing = (0..n)
        .flat_map(|u| (0..n).map(move |v| (u, v)))
        .find(|&e| !at.edges().contains(&e));
    match rng.gen_index(8) {
        0 => GraphDelta::InsertEdge {
            source: outside(rng),
            target: inside(rng),
            probability: bad_probability(rng),
        },
        1 => GraphDelta::InsertEdge {
            source: inside(rng),
            target: outside(rng),
            probability: 0.5,
        },
        2 => GraphDelta::InsertEdge {
            source: inside(rng),
            target: inside(rng),
            probability: bad_probability(rng),
        },
        3 => GraphDelta::DeleteEdge {
            source: inside(rng),
            target: outside(rng),
        },
        4 => GraphDelta::SetProbability {
            source: outside(rng),
            target: outside(rng),
            probability: bad_probability(rng),
        },
        // A live edge with a bad probability: the probability is checked
        // before the edge is located.
        5 if at.num_edges() > 0 => {
            let (source, target) = at.edges()[rng.gen_index(at.num_edges())];
            GraphDelta::SetProbability {
                source,
                target,
                probability: bad_probability(rng),
            }
        }
        // A missing edge with a bad probability: the probability is the
        // fault reported.
        6 => match missing {
            Some((source, target)) => GraphDelta::SetProbability {
                source,
                target,
                probability: bad_probability(rng),
            },
            None => GraphDelta::InsertEdge {
                source: inside(rng),
                target: inside(rng),
                probability: bad_probability(rng),
            },
        },
        _ => match missing {
            Some((source, target)) if rng.gen_index(2) == 0 => {
                GraphDelta::DeleteEdge { source, target }
            }
            Some((source, target)) => GraphDelta::SetProbability {
                source,
                target,
                probability: palette(rng),
            },
            None => GraphDelta::DeleteEdge {
                source: outside(rng),
                target: 0,
            },
        },
    }
}

/// A batch of `len` deltas the reference accepts, with one it rejects
/// spliced in at a random position when `reject` is set.
fn random_batch(
    graph: &InfluenceGraph,
    len: usize,
    reject: bool,
    rng: &mut Pcg32,
) -> Vec<GraphDelta> {
    let bad_at = if reject {
        Some(rng.gen_index(len + 1))
    } else {
        None
    };
    let mut state = MutableInfluenceGraph::from_graph(graph);
    let mut batch = Vec::with_capacity(len + 1);
    for i in 0..=len {
        if bad_at == Some(i) {
            batch.push(invalid_delta(&state, rng));
        }
        if i < len {
            let delta = valid_delta(&state, rng);
            state.apply(&delta).expect("valid_delta is valid");
            batch.push(delta);
        }
    }
    batch
}

/// The two sides on one batch.
fn assert_resolve_matches_reference(
    graph: &InfluenceGraph,
    batch: &[GraphDelta],
) -> Result<(), TestCaseError> {
    let bytes_before = influence_graph_to_bytes(graph);
    let mut reference = MutableInfluenceGraph::from_graph(graph);
    let resolved = CsrPatch::resolve(graph, batch);
    prop_assert_eq!(influence_graph_to_bytes(graph), bytes_before);
    match (reference.apply_batch(batch), resolved) {
        (Ok(()), Ok(patch)) => {
            let expected = reference.materialize();
            let mut patched = graph.clone();
            patched.apply_patch(&patch);
            // `DiGraph` equality is all six arrays: offsets, neighbours and
            // edge ids, both directions.
            prop_assert_eq!(patched.graph(), expected.graph());
            for v in expected.graph().vertices() {
                prop_assert_eq!(
                    patched.in_edges_with_prob(v).collect::<Vec<_>>(),
                    expected.in_edges_with_prob(v).collect::<Vec<_>>()
                );
            }
            prop_assert_eq!(patched.probabilities(), expected.probabilities());
            prop_assert_eq!(
                patched.probability_sum().to_bits(),
                expected.probability_sum().to_bits()
            );
        }
        (Err(want), Err(got)) => {
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(got.to_string(), want.to_string());
            prop_assert_eq!(reference, MutableInfluenceGraph::from_graph(graph));
        }
        (want, got) => {
            return Err(TestCaseError::fail(format!(
                "reference {want:?}, resolve {got:?} on {batch:?}"
            )));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn resolve_then_patch_equals_the_reference_model(
        graph in arb_influence_graph(),
        seed in 0u64..1_000_000,
    ) {
        let mut rng = Pcg32::seed_from_u64(seed);
        for _ in 0..8 {
            let len = rng.gen_index(9);
            let reject = rng.gen_index(3) == 0;
            let batch = random_batch(&graph, len, reject, &mut rng);
            assert_resolve_matches_reference(&graph, &batch)?;
        }
    }
}
