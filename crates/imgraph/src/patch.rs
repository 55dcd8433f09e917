//! A delta batch's *net* change to the CSR, in pre-batch edge ids.
//!
//! [`DeltaEffect`]s name edges by the id they had at the moment their delta
//! ran, so inside one batch the same id can mean different edges (delete id
//! 5 twice removes the pre-batch edges 5 and 6) and an edge can be inserted
//! and deleted again before the batch ends. [`CsrPatch::from_effects`]
//! resolves that sequence once, and [`InfluenceGraph::apply_patch`] then
//! edits every CSR array in one sequential pass — where
//! [`MutableInfluenceGraph::materialize`] rebuilds all of them by counting
//! sort. The two must agree field for field; `materialize` stays the
//! definition.
//!
//! [`InfluenceGraph::apply_patch`]: crate::InfluenceGraph::apply_patch
//! [`MutableInfluenceGraph::materialize`]: crate::MutableInfluenceGraph::materialize

use crate::{DeltaEffect, Edge, GraphDelta, VertexId};

/// What one delta batch does to a graph of known size, net of everything
/// that cancels inside the batch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CsrPatch {
    /// Pre-batch edges the batch removes, as `(pre-batch id, endpoints)`,
    /// ascending by id.
    pub(crate) deleted: Vec<(u32, Edge)>,
    /// Edges the batch inserts and does not delete again, in insertion
    /// order — the order of the ids they end up with.
    pub(crate) inserted: Vec<Edge>,
    /// `inserted[j]`'s probability at the end of the batch.
    pub(crate) inserted_probabilities: Vec<f64>,
    /// Probability writes to pre-batch edges, `(pre-batch id, head,
    /// probability)` in application order (a later write to the same id
    /// wins; a write to an edge the batch also deletes is dropped with the
    /// edge). The head names the in-row that holds the edge's second copy.
    pub(crate) reweighted: Vec<(u32, VertexId, f64)>,
}

impl CsrPatch {
    /// Resolve a batch's per-delta effects against a graph that had
    /// `num_edges` edges before the batch. `effects[i]` must be what
    /// [`crate::MutableInfluenceGraph`] reported for `deltas[i]`.
    #[must_use]
    pub fn from_effects(num_edges: usize, deltas: &[GraphDelta], effects: &[DeltaEffect]) -> Self {
        debug_assert_eq!(deltas.len(), effects.len());
        let mut patch = CsrPatch::default();
        for (delta, effect) in deltas.iter().zip(effects) {
            // The edge list at this point of the batch is the surviving
            // pre-batch edges followed by the surviving inserted ones.
            let live = num_edges - patch.deleted.len();
            let at = effect.edge_id as usize;
            match *delta {
                GraphDelta::InsertEdge {
                    source,
                    target,
                    probability,
                } => {
                    patch.inserted.push((source, target));
                    patch.inserted_probabilities.push(probability);
                }
                GraphDelta::DeleteEdge { source, target } if at < live => {
                    let (slot, id) = patch.pre_batch_id(effect.edge_id);
                    patch.deleted.insert(slot, (id, (source, target)));
                }
                GraphDelta::DeleteEdge { .. } => {
                    patch.inserted.remove(at - live);
                    patch.inserted_probabilities.remove(at - live);
                }
                GraphDelta::SetProbability {
                    target,
                    probability,
                    ..
                } if at < live => {
                    let (_, id) = patch.pre_batch_id(effect.edge_id);
                    patch.reweighted.push((id, target, probability));
                }
                GraphDelta::SetProbability { probability, .. } => {
                    patch.inserted_probabilities[at - live] = probability;
                }
            }
        }
        patch
    }

    /// Translate the current id of a surviving pre-batch edge back to its
    /// pre-batch id: every deleted id at or below it shifts it up by one.
    /// Also returns where that id sorts into `deleted`.
    fn pre_batch_id(&self, current: u32) -> (usize, u32) {
        let mut id = current;
        let mut slot = 0;
        for &(deleted, _) in &self.deleted {
            if deleted > id {
                break;
            }
            id += 1;
            slot += 1;
        }
        (slot, id)
    }

    /// Whether the batch changes adjacency (as opposed to probabilities
    /// only).
    #[must_use]
    pub fn is_structural(&self) -> bool {
        !(self.deleted.is_empty() && self.inserted.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiGraph, InfluenceGraph, MutableInfluenceGraph};

    fn ins(source: u32, target: u32, probability: f64) -> GraphDelta {
        GraphDelta::InsertEdge {
            source,
            target,
            probability,
        }
    }

    fn del(source: u32, target: u32) -> GraphDelta {
        GraphDelta::DeleteEdge { source, target }
    }

    fn setp(source: u32, target: u32, probability: f64) -> GraphDelta {
        GraphDelta::SetProbability {
            source,
            target,
            probability,
        }
    }

    /// Apply `batch` both ways and compare every field.
    fn assert_patch_equals_materialize(graph: &InfluenceGraph, batch: &[GraphDelta]) -> CsrPatch {
        let mut mutable = MutableInfluenceGraph::from_graph(graph);
        let effect = mutable.apply_batch(batch).expect("batch applies");
        let patch = CsrPatch::from_effects(graph.num_edges(), batch, &effect.effects);
        let mut patched = graph.clone();
        patched.apply_patch(&patch);
        let reference = mutable.materialize();
        assert_eq!(patched.graph(), reference.graph());
        for v in reference.graph().vertices() {
            assert_eq!(
                patched.in_edges_with_prob(v).collect::<Vec<_>>(),
                reference.in_edges_with_prob(v).collect::<Vec<_>>(),
                "in-row of {v}"
            );
        }
        assert_eq!(patched.probabilities(), reference.probabilities());
        assert_eq!(
            patched.probability_sum().to_bits(),
            reference.probability_sum().to_bits()
        );
        patch
    }

    fn fixture() -> InfluenceGraph {
        // Parallel edges (0, 1) at ids 0 and 3; vertex 4 isolated.
        let edges = [(0, 1), (1, 2), (2, 0), (0, 1), (3, 2), (2, 3)];
        InfluenceGraph::new(
            DiGraph::from_edges(5, &edges),
            vec![0.5, 0.25, 0.125, 1.0, 0.75, 0.0625],
        )
    }

    #[test]
    fn ids_shift_under_earlier_deletes_of_the_same_batch() {
        // Both deletes report id 0 then id 2 (the second (0, 1) moved from 3
        // to 2), i.e. pre-batch ids 0 and 3.
        let patch = assert_patch_equals_materialize(&fixture(), &[del(0, 1), del(0, 1)]);
        assert_eq!(patch.deleted, vec![(0, (0, 1)), (3, (0, 1))]);
    }

    #[test]
    fn insert_then_delete_inside_one_batch_cancels() {
        let patch =
            assert_patch_equals_materialize(&fixture(), &[ins(4, 0, 0.5), del(1, 2), del(4, 0)]);
        assert_eq!(patch.deleted, vec![(1, (1, 2))]);
        assert!(patch.inserted.is_empty());
        assert!(patch.is_structural());
    }

    #[test]
    fn first_and_last_edge_ids_and_reinsertion() {
        let graph = fixture();
        assert_patch_equals_materialize(&graph, &[del(0, 1)]);
        assert_patch_equals_materialize(&graph, &[del(2, 3)]);
        assert_patch_equals_materialize(&graph, &[del(2, 3), ins(2, 3, 0.5), del(0, 1)]);
        assert_patch_equals_materialize(
            &graph,
            &[ins(4, 4, 1.0), ins(0, 1, 0.5), del(0, 1), ins(4, 2, 0.25)],
        );
    }

    #[test]
    fn probability_writes_follow_their_edge() {
        let graph = fixture();
        // A write to a pre-batch edge after an earlier delete shifted it; a
        // write to an inserted edge; a write to an edge deleted afterwards.
        let patch = assert_patch_equals_materialize(
            &graph,
            &[
                del(0, 1),
                setp(3, 2, 0.5),
                ins(4, 1, 0.5),
                setp(4, 1, 0.25),
                setp(1, 2, 1.0),
                del(1, 2),
            ],
        );
        assert_eq!(patch.reweighted, vec![(4, 2, 0.5), (1, 2, 1.0)]);
        assert_eq!(patch.inserted_probabilities, vec![0.25]);
        // Attribute-only batches are not structural.
        let patch = assert_patch_equals_materialize(&graph, &[setp(0, 1, 0.125), setp(2, 0, 1.0)]);
        assert!(!patch.is_structural());
        assert_patch_equals_materialize(&graph, &[]);
    }
}
