//! A delta batch's *net* change to the CSR, in pre-batch edge ids.
//!
//! A delta names its edge by endpoints, and inside one batch the edge it
//! names can be one the batch inserted earlier, and an edge can be inserted
//! and deleted again before the batch ends. [`CsrPatch::resolve`] validates
//! and locates each delta against the graph plus what the batch did so far,
//! and nets the batch once; [`InfluenceGraph::apply_patch`] then edits every
//! CSR array in one sequential pass — where
//! [`MutableInfluenceGraph::materialize`] rebuilds all of them by counting
//! sort from the edited edge list. The two must agree field for field, and
//! a rejected batch must name the same delta and error in both;
//! `MutableInfluenceGraph` stays the definition.
//!
//! [`InfluenceGraph::apply_patch`]: crate::InfluenceGraph::apply_patch
//! [`MutableInfluenceGraph::materialize`]: crate::MutableInfluenceGraph::materialize

use crate::delta::{check_probability, check_vertex};
use crate::{BatchError, DeltaError, DiGraph, Edge, GraphDelta, InfluenceGraph, VertexId};

/// What one delta batch does to a graph, net of everything that cancels
/// inside the batch.
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

/// Where the edge a delta names lives at that point of its batch.
enum Located {
    /// A pre-batch edge, by its pre-batch id.
    PreBatch(u32),
    /// `inserted[j]` of the patch so far.
    Inserted(usize),
}

impl CsrPatch {
    /// Resolve a delta batch against the graph it is to patch, which is only
    /// read: validate each delta in order — source, target, probability,
    /// then the edge it names — and net the batch into one patch, or name
    /// the first delta that fails and why.
    ///
    /// The outcome is [`crate::MutableInfluenceGraph::apply_batch`]'s on the
    /// same graph: `DeleteEdge` and `SetProbability` act on the first live
    /// edge `(source, target)` of the edge list at that point of the batch,
    /// which is the surviving pre-batch edges in id order followed by the
    /// batch's surviving inserts. The source's out-row holds its pre-batch
    /// edges in id order, so a locate costs the source's out-degree plus
    /// the batch, never a scan of the graph.
    pub fn resolve(graph: &InfluenceGraph, deltas: &[GraphDelta]) -> Result<Self, BatchError> {
        let mut patch = CsrPatch::default();
        for (index, delta) in deltas.iter().enumerate() {
            patch
                .push(graph.graph(), delta)
                .map_err(|error| BatchError { index, error })?;
        }
        Ok(patch)
    }

    /// Validate one delta against `graph` as the batch so far left it, and
    /// fold it in.
    fn push(&mut self, graph: &DiGraph, delta: &GraphDelta) -> Result<(), DeltaError> {
        let n = graph.num_vertices();
        check_vertex(delta.source(), n)?;
        check_vertex(delta.head(), n)?;
        match *delta {
            GraphDelta::InsertEdge {
                source,
                target,
                probability,
            } => {
                check_probability(probability)?;
                self.inserted.push((source, target));
                self.inserted_probabilities.push(probability);
            }
            GraphDelta::DeleteEdge { source, target } => {
                match self.locate(graph, source, target)? {
                    Located::PreBatch(id) => {
                        let slot = self.deleted.partition_point(|&(d, _)| d < id);
                        self.deleted.insert(slot, (id, (source, target)));
                    }
                    Located::Inserted(j) => {
                        self.inserted.remove(j);
                        self.inserted_probabilities.remove(j);
                    }
                }
            }
            GraphDelta::SetProbability {
                source,
                target,
                probability,
            } => {
                check_probability(probability)?;
                match self.locate(graph, source, target)? {
                    Located::PreBatch(id) => self.reweighted.push((id, target, probability)),
                    Located::Inserted(j) => self.inserted_probabilities[j] = probability,
                }
            }
        }
        Ok(())
    }

    /// The first live edge `(source, target)`: a pre-batch edge the batch
    /// has not deleted, else one of the batch's surviving inserts.
    fn locate(
        &self,
        graph: &DiGraph,
        source: VertexId,
        target: VertexId,
    ) -> Result<Located, DeltaError> {
        let deleted = |id: u32| self.deleted.binary_search_by_key(&id, |&(d, _)| d).is_ok();
        graph
            .out_edges(source)
            .find(|&(v, id)| v == target && !deleted(id))
            .map(|(_, id)| Located::PreBatch(id))
            .or_else(|| {
                self.inserted
                    .iter()
                    .position(|&edge| edge == (source, target))
                    .map(Located::Inserted)
            })
            .ok_or(DeltaError::EdgeNotFound { source, target })
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
    use crate::MutableInfluenceGraph;

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
        mutable.apply_batch(batch).expect("batch applies");
        let patch = CsrPatch::resolve(graph, batch).expect("batch resolves");
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
