//! Deterministic mutation-workload generators.
//!
//! The proptest suite, the `evolve` experiment and the maintenance bench all
//! need streams of *valid* random mutations against an evolving graph; this
//! module is the one place that logic lives so every consumer exercises the
//! same mix.

use imgraph::{GraphDelta, MutableInfluenceGraph};
use imrand::Rng32;

/// The probability palette new/updated edges draw from. A small fixed set
/// keeps workloads reproducible across float formatting and covers the
/// paper's uniform-cascade range including the deterministic `p = 1` edge.
pub const PROBABILITY_PALETTE: [f64; 5] = [0.01, 0.1, 0.25, 0.5, 1.0];

/// Draw one valid mutation for the current state of `graph`.
///
/// The mix is 1/4 insert, 1/4 delete, 1/2 probability update (updates are
/// the common case for a live influence network: interaction strengths drift
/// far more often than topology). On an edgeless graph the only valid
/// mutation is an insert.
///
/// # Panics
///
/// Panics if the graph has no vertices.
pub fn random_delta<R: Rng32>(graph: &MutableInfluenceGraph, rng: &mut R) -> GraphDelta {
    let n = graph.num_vertices();
    assert!(n > 0, "cannot mutate an empty graph");
    let m = graph.num_edges();
    let kind = if m == 0 { 0 } else { rng.gen_index(4) };
    match kind {
        0 => GraphDelta::InsertEdge {
            source: rng.gen_index(n) as u32,
            target: rng.gen_index(n) as u32,
            probability: PROBABILITY_PALETTE[rng.gen_index(PROBABILITY_PALETTE.len())],
        },
        1 => {
            let (source, target) = graph.edges()[rng.gen_index(m)];
            GraphDelta::DeleteEdge { source, target }
        }
        _ => {
            let (source, target) = graph.edges()[rng.gen_index(m)];
            GraphDelta::SetProbability {
                source,
                target,
                probability: PROBABILITY_PALETTE[rng.gen_index(PROBABILITY_PALETTE.len())],
            }
        }
    }
}

/// Draw a sequence of `count` valid mutations, applying each to a scratch
/// copy of `graph` so later deltas stay valid against the evolved state.
///
/// Returns the deltas only; the caller replays them wherever needed.
pub fn random_deltas<R: Rng32>(
    graph: &MutableInfluenceGraph,
    count: usize,
    rng: &mut R,
) -> Vec<GraphDelta> {
    let mut scratch = graph.clone();
    let mut deltas = Vec::with_capacity(count);
    for _ in 0..count {
        let delta = random_delta(&scratch, rng);
        scratch
            .apply(&delta)
            .expect("random_delta only produces valid mutations");
        deltas.push(delta);
    }
    deltas
}

/// Draw one valid **structural** mutation (insert or delete, never a
/// probability patch) for the current state of `graph`.
///
/// Structural deltas are the expensive kind — each forces a CSR patch
/// (a pass over every adjacency array) on the per-delta maintenance path —
/// so this is the
/// workload that separates batched from per-delta application (the
/// `imdyn_batch_apply` bench and the `compaction` experiment). The mix is
/// 1/2 insert, 1/2 delete on a graph with edges; insert-only when edgeless.
///
/// # Panics
///
/// Panics if the graph has no vertices.
pub fn random_structural_delta<R: Rng32>(graph: &MutableInfluenceGraph, rng: &mut R) -> GraphDelta {
    let n = graph.num_vertices();
    assert!(n > 0, "cannot mutate an empty graph");
    let m = graph.num_edges();
    if m == 0 || rng.gen_index(2) == 0 {
        GraphDelta::InsertEdge {
            source: rng.gen_index(n) as u32,
            target: rng.gen_index(n) as u32,
            probability: PROBABILITY_PALETTE[rng.gen_index(PROBABILITY_PALETTE.len())],
        }
    } else {
        let (source, target) = graph.edges()[rng.gen_index(m)];
        GraphDelta::DeleteEdge { source, target }
    }
}

/// Draw a sequence of `count` valid structural mutations (the
/// structural-delta-heavy analog of [`random_deltas`]).
pub fn random_structural_deltas<R: Rng32>(
    graph: &MutableInfluenceGraph,
    count: usize,
    rng: &mut R,
) -> Vec<GraphDelta> {
    let mut scratch = graph.clone();
    let mut deltas = Vec::with_capacity(count);
    for _ in 0..count {
        let delta = random_structural_delta(&scratch, rng);
        scratch
            .apply(&delta)
            .expect("random_structural_delta only produces valid mutations");
        deltas.push(delta);
    }
    deltas
}

#[cfg(test)]
mod tests {
    use super::*;
    use imgraph::{DiGraph, InfluenceGraph};
    use imrand::Pcg32;

    fn diamond() -> MutableInfluenceGraph {
        let g = DiGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        MutableInfluenceGraph::from_graph(&InfluenceGraph::new(g, vec![0.5, 0.25, 1.0, 0.125]))
    }

    #[test]
    fn random_deltas_are_always_applicable() {
        let graph = diamond();
        for seed in 0..20u64 {
            let mut rng = Pcg32::seed_from_u64(seed);
            let deltas = random_deltas(&graph, 30, &mut rng);
            assert_eq!(deltas.len(), 30);
            let mut replay = graph.clone();
            for delta in &deltas {
                replay.apply(delta).expect("workload deltas must be valid");
            }
        }
    }

    #[test]
    fn edgeless_graphs_only_insert() {
        let empty = MutableInfluenceGraph::new(3);
        let mut rng = Pcg32::seed_from_u64(1);
        for _ in 0..10 {
            assert!(matches!(
                random_delta(&empty, &mut rng),
                GraphDelta::InsertEdge { .. }
            ));
        }
    }

    #[test]
    fn workload_is_deterministic_per_seed() {
        let graph = diamond();
        let a = random_deltas(&graph, 12, &mut Pcg32::seed_from_u64(5));
        let b = random_deltas(&graph, 12, &mut Pcg32::seed_from_u64(5));
        assert_eq!(a, b);
    }

    #[test]
    fn structural_workloads_never_patch_attributes() {
        let graph = diamond();
        let deltas = random_structural_deltas(&graph, 40, &mut Pcg32::seed_from_u64(9));
        assert_eq!(deltas.len(), 40);
        let mut replay = graph.clone();
        for delta in &deltas {
            assert!(
                !matches!(delta, GraphDelta::SetProbability { .. }),
                "structural workload produced an attribute patch"
            );
            replay.apply(delta).expect("workload deltas must be valid");
        }
        // Deterministic per seed, like the mixed workload.
        let again = random_structural_deltas(&graph, 40, &mut Pcg32::seed_from_u64(9));
        assert_eq!(deltas, again);
    }
}
