//! Live-edge (random graph) sampling.
//!
//! The random-graph interpretation of the IC model (Section 2.2) says: keep
//! each edge `e` independently with probability `p(e)`; the influence spread
//! of `S` equals the expected number of vertices reachable from `S` in the
//! resulting random graph. Snapshot materialises `τ` such samples up front
//! (Algorithm 3.3, Build); this module provides that sampling step, plus the
//! bookkeeping the paper's sample-size metric needs (the number of vertices
//! and edges stored in memory).

use imrand::Rng32;
use serde::{Deserialize, Serialize};

use crate::{DiGraph, InfluenceGraph, VertexId};

/// A sampled live-edge graph ("snapshot", the paper's `G⁽ⁱ⁾`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Snapshot {
    graph: DiGraph,
    /// Number of live edges kept by the sample (equals `graph.num_edges()`,
    /// cached for sample-size accounting).
    live_edges: usize,
    /// Edges examined while sampling (always `m`, the paper's Build cost).
    edges_examined: usize,
}

impl Snapshot {
    /// Wrap the live edges a sampler kept over `n` vertices, with the number
    /// of influence-graph edges it examined to draw them.
    #[must_use]
    pub fn from_live_edges(n: usize, live: &[(VertexId, VertexId)], edges_examined: usize) -> Self {
        Self {
            graph: DiGraph::from_edges(n, live),
            live_edges: live.len(),
            edges_examined,
        }
    }

    /// The live-edge graph itself.
    #[must_use]
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// Number of live edges in this sample.
    #[must_use]
    pub fn live_edge_count(&self) -> usize {
        self.live_edges
    }

    /// Number of edges examined to draw this sample (always `m`).
    #[must_use]
    pub fn edges_examined(&self) -> usize {
        self.edges_examined
    }

    /// The paper's *sample size* contribution of one snapshot: the number of
    /// vertices plus edges stored in memory. Following Table 1, the expected
    /// value of the edge part is `m̃`.
    #[must_use]
    pub fn sample_size(&self) -> usize {
        self.graph.num_vertices() + self.live_edges
    }
}

/// Sample one live-edge graph from `ig`: every edge is kept independently with
/// its influence probability.
#[must_use]
pub fn sample_snapshot<R: Rng32>(ig: &InfluenceGraph, rng: &mut R) -> Snapshot {
    let n = ig.num_vertices();
    let graph = ig.graph();
    let mut live: Vec<(VertexId, VertexId)> =
        Vec::with_capacity((ig.probability_sum().ceil() as usize).min(ig.num_edges()));
    // Iterate in edge-id order so the RNG consumption order is deterministic
    // and independent of CSR layout.
    for u in graph.vertices() {
        for (v, eid) in graph.out_edges(u) {
            if rng.bernoulli(ig.probability(eid)) {
                live.push((u, v));
            }
        }
    }
    Snapshot::from_live_edges(n, &live, ig.num_edges())
}

/// Sample `count` independent live-edge graphs (Snapshot's Build step).
#[must_use]
pub fn sample_snapshots<R: Rng32>(ig: &InfluenceGraph, count: usize, rng: &mut R) -> Vec<Snapshot> {
    (0..count).map(|_| sample_snapshot(ig, rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use imrand::Pcg32;

    fn test_graph(p: f64) -> InfluenceGraph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 3);
        b.add_edge(0, 3);
        let g = b.build();
        let m = g.num_edges();
        InfluenceGraph::new(g, vec![p; m])
    }

    #[test]
    fn probability_one_keeps_every_edge() {
        let ig = test_graph(1.0);
        let mut rng = Pcg32::seed_from_u64(1);
        let snap = sample_snapshot(&ig, &mut rng);
        assert_eq!(snap.live_edge_count(), 4);
        assert_eq!(snap.graph().num_edges(), 4);
        assert_eq!(snap.edges_examined(), 4);
        assert_eq!(snap.sample_size(), 4 + 4);
    }

    #[test]
    fn tiny_probability_keeps_almost_nothing() {
        let ig = test_graph(1e-9);
        let mut rng = Pcg32::seed_from_u64(2);
        let total: usize = sample_snapshots(&ig, 100, &mut rng)
            .iter()
            .map(Snapshot::live_edge_count)
            .sum();
        assert!(
            total <= 1,
            "with p = 1e-9, essentially no edge should survive"
        );
    }

    #[test]
    fn vertices_are_preserved_even_when_edges_die() {
        let ig = test_graph(1e-9);
        let mut rng = Pcg32::seed_from_u64(3);
        let snap = sample_snapshot(&ig, &mut rng);
        assert_eq!(snap.graph().num_vertices(), 4);
    }

    #[test]
    fn live_edge_fraction_matches_probability() {
        let ig = test_graph(0.3);
        let mut rng = Pcg32::seed_from_u64(4);
        let samples = 5_000;
        let total: usize = sample_snapshots(&ig, samples, &mut rng)
            .iter()
            .map(Snapshot::live_edge_count)
            .sum();
        let mean = total as f64 / samples as f64;
        let expected = ig.probability_sum(); // 4 * 0.3
        assert!(
            (mean - expected).abs() < 0.05,
            "mean live edges {mean} should be close to m̃ = {expected}"
        );
    }

    #[test]
    fn sampling_is_deterministic_given_seed() {
        let ig = test_graph(0.5);
        let mut a = Pcg32::seed_from_u64(7);
        let mut b = Pcg32::seed_from_u64(7);
        let sa = sample_snapshots(&ig, 10, &mut a);
        let sb = sample_snapshots(&ig, 10, &mut b);
        for (x, y) in sa.iter().zip(&sb) {
            assert_eq!(x.graph(), y.graph());
        }
    }

    #[test]
    fn snapshot_edges_are_subset_of_original() {
        let ig = test_graph(0.5);
        let mut rng = Pcg32::seed_from_u64(9);
        for snap in sample_snapshots(&ig, 20, &mut rng) {
            for (u, v) in snap.graph().edges() {
                assert!(
                    ig.graph().out_neighbors(u).contains(&v),
                    "live edge ({u}, {v}) not present in the influence graph"
                );
            }
        }
    }
}
