//! The influence graph `G = (V, E, p)`.

use crate::{CsrPatch, DiGraph, Edge, VertexId};

/// The influence-probability domain: `p ∈ (0, 1]` and finite.
///
/// One predicate shared by every layer that admits probabilities — graph
/// construction, in-place updates, delta validation, binary decode and CLI
/// parsing — so the domain can never silently diverge between them.
#[must_use]
pub fn is_valid_probability(p: f64) -> bool {
    p > 0.0 && p <= 1.0 && p.is_finite()
}

/// `p`, or a panic if it lies outside the probability domain.
fn checked_probability(p: f64) -> f64 {
    assert!(
        is_valid_probability(p),
        "invalid probability {p}; probabilities must lie in (0, 1]"
    );
    p
}

/// A directed graph whose edges carry influence probabilities `p(e) ∈ (0, 1]`.
///
/// This is the input object of the influence-maximization problem
/// (Problem 2.1). The one [`DiGraph`] stores both directions. Probabilities
/// are kept twice: by edge id, for the forward traversals of Oneshot and
/// Snapshot, and in reverse-CSR order beside each in-row, so an RIS reverse
/// traversal reads a vertex's sources and their probabilities as two
/// sequential runs.
#[derive(Debug, Clone)]
pub struct InfluenceGraph {
    graph: DiGraph,
    /// `probabilities[edge_id]` is `p(e)` for the edge with that insertion id.
    probabilities: Vec<f64>,
    /// The same probabilities, parallel to the reverse CSR:
    /// `in_probabilities[i] = probabilities[in_edge_ids[i]]`.
    in_probabilities: Vec<f64>,
    /// Cached sum of all edge probabilities, `m̃ = Σ_e p(e)`: the expected
    /// number of live edges, used throughout the traversal-cost analysis.
    prob_sum: f64,
}

impl InfluenceGraph {
    /// Attach per-edge probabilities to a directed graph.
    ///
    /// `probabilities[i]` must be the probability of the edge with insertion
    /// id `i` (the order in which edges were passed to
    /// [`DiGraph::from_edges`]).
    ///
    /// # Panics
    ///
    /// Panics if the number of probabilities differs from the number of edges
    /// or any probability lies outside `(0, 1]`.
    #[must_use]
    pub fn new(graph: DiGraph, probabilities: Vec<f64>) -> Self {
        assert_eq!(
            probabilities.len(),
            graph.num_edges(),
            "need exactly one probability per edge"
        );
        for (i, &p) in probabilities.iter().enumerate() {
            assert!(
                is_valid_probability(p),
                "edge {i} has invalid probability {p}; probabilities must lie in (0, 1]"
            );
        }
        let in_probabilities = graph
            .in_edge_ids()
            .iter()
            .map(|&id| probabilities[id as usize])
            .collect();
        let prob_sum = probabilities.iter().sum();
        Self {
            graph,
            probabilities,
            in_probabilities,
            prob_sum,
        }
    }

    /// Build an influence graph directly from an edge list and a probability
    /// assignment function `p(u, v)`.
    #[must_use]
    pub fn from_edges_with(
        n: usize,
        edges: &[Edge],
        mut p: impl FnMut(VertexId, VertexId) -> f64,
    ) -> Self {
        let graph = DiGraph::from_edges(n, edges);
        let probabilities = edges.iter().map(|&(u, v)| p(u, v)).collect();
        Self::new(graph, probabilities)
    }

    /// The underlying deterministic graph.
    #[must_use]
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// Number of vertices `n`.
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Number of edges `m`.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Probability of the edge with the given insertion id.
    #[must_use]
    pub fn probability(&self, edge_id: u32) -> f64 {
        self.probabilities[edge_id as usize]
    }

    /// All edge probabilities, indexed by edge id.
    #[must_use]
    pub fn probabilities(&self) -> &[f64] {
        &self.probabilities
    }

    /// Apply a delta batch's net change in place: write every reweighted
    /// edge's probability into both arrays (the in-row copy found in its
    /// head's row), drop the deleted edges and append the inserted ones in
    /// one sequential pass per CSR array, then sum the probabilities
    /// **once**.
    ///
    /// The result equals — field for field, `probability_sum()` to the bit —
    /// the graph [`crate::MutableInfluenceGraph::materialize`] rebuilds from
    /// the edited edge list; only the work differs (no counting sort, no
    /// scattered writes, and an attribute-only batch touches no adjacency at
    /// all).
    ///
    /// # Panics
    ///
    /// Panics if the patch names an edge id or vertex out of range, an edge
    /// that is not in its head's in-row, or a probability outside `(0, 1]` —
    /// it was resolved against another graph.
    pub fn apply_patch(&mut self, patch: &CsrPatch) {
        for &(edge_id, head, p) in &patch.reweighted {
            let p = checked_probability(p);
            let row = self.graph.in_row(head);
            let at = self.graph.in_edge_ids()[row.clone()]
                .binary_search(&edge_id)
                .unwrap_or_else(|_| panic!("edge {edge_id} is not in the in-row of {head}"));
            self.in_probabilities[row.start + at] = p;
            self.probabilities[edge_id as usize] = p;
        }
        if patch.is_structural() {
            for &p in &patch.inserted_probabilities {
                checked_probability(p);
            }
            self.graph.patch(
                &patch.deleted,
                &patch.inserted,
                &mut self.in_probabilities,
                &patch.inserted_probabilities,
            );
            // Survivors keep their order; the inserted edges take the
            // largest ids.
            if !patch.deleted.is_empty() {
                let mut deleted = patch.deleted.iter().map(|&(id, _)| id as usize).peekable();
                let mut edge_id = 0;
                self.probabilities.retain(|_| {
                    let keep = deleted.next_if_eq(&edge_id).is_none();
                    edge_id += 1;
                    keep
                });
            }
            self.probabilities
                .extend_from_slice(&patch.inserted_probabilities);
            assert_eq!(self.probabilities.len(), self.graph.num_edges());
        }
        self.prob_sum = self.probabilities.iter().sum();
    }

    /// `m̃ = Σ_e p(e)`, the expected number of edges in a live-edge sample.
    ///
    /// This is the quantity the paper calls `m̃`; it appears in the Snapshot
    /// sample-size bound (`τ·m̃`) and in the per-sample edge-traversal-cost
    /// ratio `1 : m̃/m : 1/n` of Section 5.4.3.
    #[must_use]
    pub fn probability_sum(&self) -> f64 {
        self.prob_sum
    }

    /// Out-neighbours of `v` with the probability of each incident edge.
    pub fn out_edges_with_prob(&self, v: VertexId) -> impl Iterator<Item = (VertexId, f64)> + '_ {
        self.graph
            .out_edges(v)
            .map(move |(w, eid)| (w, self.probability(eid)))
    }

    /// In-neighbours of `v` with the probability of each incident edge
    /// (i.e. the probability of the original edge `(u, v)`).
    pub fn in_edges_with_prob(&self, v: VertexId) -> impl Iterator<Item = (VertexId, f64)> + '_ {
        self.graph
            .in_neighbors(v)
            .iter()
            .copied()
            .zip(self.in_probabilities[self.graph.in_row(v)].iter().copied())
    }

    /// The expected in-weight `Σ_{u ∈ Γ⁻(v)} p(u, v)` of a vertex; equals 1 for
    /// every vertex with in-neighbours under the in-degree weighted cascade.
    #[must_use]
    pub fn expected_in_weight(&self, v: VertexId) -> f64 {
        self.in_edges_with_prob(v).map(|(_, p)| p).sum()
    }

    /// The expected out-weight `Σ_{w ∈ Γ⁺(v)} p(v, w)` of a vertex; equals 1
    /// for every vertex with out-neighbours under the out-degree weighted
    /// cascade.
    #[must_use]
    pub fn expected_out_weight(&self, v: VertexId) -> f64 {
        self.out_edges_with_prob(v).map(|(_, p)| p).sum()
    }

    /// Return the influence graph of the transposed network `G⊤` (same edge
    /// probabilities, reversed direction), used for `Inf_{G⊤}` quantities in
    /// the traversal-cost appendix.
    #[must_use]
    pub fn reversed(&self) -> Self {
        Self::new(self.graph.transpose(), self.probabilities.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph() -> InfluenceGraph {
        // 0 -> 1 -> 2 with probabilities 0.5 and 0.25
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2)]);
        InfluenceGraph::new(g, vec![0.5, 0.25])
    }

    #[test]
    fn probability_lookup() {
        let ig = path_graph();
        assert_eq!(ig.probability(0), 0.5);
        assert_eq!(ig.probability(1), 0.25);
        assert!((ig.probability_sum() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn out_edges_with_prob_matches_edges() {
        let ig = path_graph();
        let out: Vec<_> = ig.out_edges_with_prob(0).collect();
        assert_eq!(out, vec![(1, 0.5)]);
        let inn: Vec<_> = ig.in_edges_with_prob(2).collect();
        assert_eq!(inn, vec![(1, 0.25)]);
    }

    #[test]
    fn expected_weights() {
        let ig = path_graph();
        assert!((ig.expected_out_weight(0) - 0.5).abs() < 1e-12);
        assert!((ig.expected_in_weight(1) - 0.5).abs() < 1e-12);
        assert_eq!(ig.expected_in_weight(0), 0.0);
        assert_eq!(ig.expected_out_weight(2), 0.0);
    }

    #[test]
    fn transpose_preserves_probabilities() {
        let ig = path_graph();
        let t = ig.graph().transpose();
        // In the transpose, vertex 1 has an out-edge to 0 with the id of the
        // original (0, 1) edge.
        let (target, eid) = t.out_edges(1).next().unwrap();
        assert_eq!(target, 0);
        assert_eq!(ig.probability(eid), 0.5);
    }

    #[test]
    fn reversed_swaps_directions() {
        let ig = path_graph();
        let rev = ig.reversed();
        assert_eq!(rev.graph().out_neighbors(1), &[0]);
        assert_eq!(rev.graph().out_neighbors(0), &[] as &[VertexId]);
        assert!((rev.probability_sum() - ig.probability_sum()).abs() < 1e-12);
        // Reversing twice gives back the original structure.
        let back = rev.reversed();
        assert_eq!(back.graph().out_neighbors(0), ig.graph().out_neighbors(0));
    }

    #[test]
    fn from_edges_with_assignment_function() {
        let ig = InfluenceGraph::from_edges_with(3, &[(0, 1), (1, 2), (0, 2)], |u, _v| {
            if u == 0 {
                0.1
            } else {
                0.9
            }
        });
        assert_eq!(ig.probability(0), 0.1);
        assert_eq!(ig.probability(1), 0.9);
        assert_eq!(ig.probability(2), 0.1);
    }

    #[test]
    #[should_panic(expected = "invalid probability")]
    fn zero_probability_rejected() {
        let g = DiGraph::from_edges(2, &[(0, 1)]);
        let _ = InfluenceGraph::new(g, vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "invalid probability")]
    fn above_one_probability_rejected() {
        let g = DiGraph::from_edges(2, &[(0, 1)]);
        let _ = InfluenceGraph::new(g, vec![1.5]);
    }

    #[test]
    #[should_panic(expected = "one probability per edge")]
    fn probability_count_mismatch_rejected() {
        let g = DiGraph::from_edges(2, &[(0, 1)]);
        let _ = InfluenceGraph::new(g, vec![0.5, 0.5]);
    }

    #[test]
    fn probability_of_exactly_one_is_allowed() {
        let g = DiGraph::from_edges(2, &[(0, 1)]);
        let ig = InfluenceGraph::new(g, vec![1.0]);
        assert_eq!(ig.probability(0), 1.0);
    }
}
