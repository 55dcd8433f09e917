//! The linear threshold (LT) diffusion model — an extension beyond the paper's
//! evaluation.
//!
//! The paper's experiments are exclusively on the independent cascade model,
//! but LT is the other classical model of Kempe et al. (Section 1) and most of
//! the surveyed algorithms support both. This module holds LT's three sampling
//! primitives, which [`crate::diffusion::Lt`] hands to the model-generic
//! Oneshot, Snapshot and RIS estimators:
//!
//! * [`LtSimulator`] — one forward threshold simulation (Oneshot);
//! * [`sample_lt_snapshot`] — one live-edge graph under Kempe et al.'s
//!   interpretation: each vertex keeps at most one incoming edge, chosen with
//!   probability equal to its weight, and LT influence equals expected
//!   reachability over that distribution (Snapshot);
//! * [`generate_lt_rr_set`] — one reverse-reachable set, which under that
//!   interpretation is a reverse *path* (RIS).
//!
//! Edge "probabilities" are interpreted as influence *weights*; the model
//! requires `Σ_{u ∈ Γ⁻(v)} w(u, v) ≤ 1` for every `v`, which the in-degree
//! weighted cascade assignment satisfies with equality.

use imgraph::live_edge::Snapshot;
use imgraph::{InfluenceGraph, VertexId};
use imrand::Rng32;

use crate::cost::TraversalCost;
use crate::diffusion::SimulationOutcome;
use crate::ris::RrSet;

/// Check the LT weight constraint `Σ_{u ∈ Γ⁻(v)} w(u, v) ≤ 1 + tolerance`.
#[must_use]
pub fn weights_are_valid(graph: &InfluenceGraph, tolerance: f64) -> bool {
    (0..graph.num_vertices() as u32).all(|v| graph.expected_in_weight(v) <= 1.0 + tolerance)
}

/// Reusable scratch space for LT simulations.
#[derive(Debug, Clone)]
pub struct LtSimulator {
    threshold: Vec<f64>,
    incoming_weight: Vec<f64>,
    active_epoch: Vec<u32>,
    epoch: u32,
    frontier: Vec<VertexId>,
}

impl LtSimulator {
    /// Create a simulator for graphs with up to `n` vertices.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            threshold: vec![0.0; n],
            incoming_weight: vec![0.0; n],
            active_epoch: vec![0; n],
            epoch: 0,
            frontier: Vec::new(),
        }
    }

    /// Create a simulator sized for `ig`.
    #[must_use]
    pub fn for_graph(ig: &InfluenceGraph) -> Self {
        Self::new(ig.num_vertices())
    }

    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.active_epoch.iter_mut().for_each(|x| *x = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }

    /// Run one LT simulation: every vertex draws a uniform threshold in
    /// `[0, 1]`; a vertex activates once the total weight of its activated
    /// in-neighbours reaches its threshold.
    pub fn simulate<R: Rng32>(
        &mut self,
        ig: &InfluenceGraph,
        seeds: &[VertexId],
        rng: &mut R,
    ) -> SimulationOutcome {
        let n = ig.num_vertices();
        let epoch = self.next_epoch();
        // Fresh thresholds per simulation; incoming weights are reset lazily
        // only for vertices touched this round (tracked via the epoch marks of
        // a shadow array would complicate things — a full reset is linear and
        // LT is an extension, not a benchmarked hot path).
        for v in 0..n {
            self.threshold[v] = rng.next_f64();
            self.incoming_weight[v] = 0.0;
        }
        self.frontier.clear();
        let mut cost = TraversalCost::zero();
        for &s in seeds {
            let slot = &mut self.active_epoch[s as usize];
            if *slot != epoch {
                *slot = epoch;
                self.frontier.push(s);
            }
        }
        let mut head = 0usize;
        while head < self.frontier.len() {
            let u = self.frontier[head];
            head += 1;
            cost.vertices += 1;
            for (v, w) in ig.out_edges_with_prob(u) {
                cost.edges += 1;
                if self.active_epoch[v as usize] == epoch {
                    continue;
                }
                self.incoming_weight[v as usize] += w;
                if self.incoming_weight[v as usize] >= self.threshold[v as usize] {
                    self.active_epoch[v as usize] = epoch;
                    self.frontier.push(v);
                }
            }
        }
        SimulationOutcome {
            activated: self.frontier.len(),
            cost,
        }
    }
}

/// Estimate the LT influence spread by Monte-Carlo simulation.
pub fn monte_carlo_lt_influence<R: Rng32>(
    ig: &InfluenceGraph,
    seeds: &[VertexId],
    trials: usize,
    rng: &mut R,
) -> f64 {
    assert!(trials > 0, "need at least one trial");
    let mut sim = LtSimulator::for_graph(ig);
    let mut total = 0usize;
    for _ in 0..trials {
        total += sim.simulate(ig, seeds, rng).activated;
    }
    total as f64 / trials as f64
}

/// Sample a live-edge graph under the LT interpretation: every vertex keeps at
/// most one incoming edge, selected with probability equal to its weight
/// (keeping none with the residual probability).
#[must_use]
pub fn sample_lt_snapshot<R: Rng32>(ig: &InfluenceGraph, rng: &mut R) -> Snapshot {
    let mut live = Vec::new();
    for v in 0..ig.num_vertices() as u32 {
        let x = rng.next_f64();
        let mut acc = 0.0;
        for (u, w) in ig.in_edges_with_prob(v) {
            acc += w;
            if x < acc {
                live.push((u, v));
                break;
            }
        }
    }
    Snapshot::from_live_edges(ig.num_vertices(), &live, ig.num_edges())
}

/// Generate one LT RR set: starting from `target`, repeatedly pick at most one
/// live in-edge (in-neighbour `u` with probability `w(u, target)`) and hop to
/// it, stopping when no edge is live or a vertex repeats.
pub fn generate_lt_rr_set<R: Rng32>(
    graph: &InfluenceGraph,
    target: VertexId,
    rng: &mut R,
) -> RrSet {
    let mut vertices = vec![target];
    let mut edges_examined = 0u64;
    let mut current = target;
    loop {
        let x = rng.next_f64();
        let mut acc = 0.0f64;
        let mut next: Option<VertexId> = None;
        for (u, w) in graph.in_edges_with_prob(current) {
            edges_examined += 1;
            acc += w;
            if x < acc {
                next = Some(u);
                break;
            }
        }
        match next {
            Some(u) if !vertices.contains(&u) => {
                vertices.push(u);
                current = u;
            }
            _ => break,
        }
    }
    RrSet {
        vertices,
        target,
        edges_examined,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imgraph::DiGraph;
    use imrand::Pcg32;

    fn path_iwc(len: usize) -> InfluenceGraph {
        // Path where every vertex has in-degree 1, so iwc weights are all 1.
        let edges: Vec<_> = (0..len as u32 - 1).map(|i| (i, i + 1)).collect();
        InfluenceGraph::new(DiGraph::from_edges(len, &edges), vec![1.0; len - 1])
    }

    fn fan_in() -> InfluenceGraph {
        // 0 -> 2, 1 -> 2 with weights 0.5 each (valid LT weights).
        InfluenceGraph::new(DiGraph::from_edges(3, &[(0, 2), (1, 2)]), vec![0.5, 0.5])
    }

    #[test]
    fn weight_validation() {
        assert!(weights_are_valid(&fan_in(), 1e-9));
        let invalid =
            InfluenceGraph::new(DiGraph::from_edges(3, &[(0, 2), (1, 2)]), vec![0.9, 0.9]);
        assert!(!weights_are_valid(&invalid, 1e-9));
    }

    #[test]
    fn full_weight_path_activates_everything() {
        let ig = path_iwc(5);
        let mut sim = LtSimulator::for_graph(&ig);
        let mut rng = Pcg32::seed_from_u64(1);
        let out = sim.simulate(&ig, &[0], &mut rng);
        // Weight 1 ≥ any threshold in [0, 1), so the whole path activates.
        assert_eq!(out.activated, 5);
        assert_eq!(out.cost.vertices, 5);
        assert_eq!(out.cost.edges, 4);
    }

    #[test]
    fn both_parents_activate_child_with_certainty() {
        let ig = fan_in();
        let mut sim = LtSimulator::for_graph(&ig);
        let mut rng = Pcg32::seed_from_u64(2);
        let out = sim.simulate(&ig, &[0, 1], &mut rng);
        assert_eq!(out.activated, 3);
    }

    #[test]
    fn single_parent_activates_child_half_the_time() {
        let ig = fan_in();
        let mut rng = Pcg32::seed_from_u64(3);
        let inf = monte_carlo_lt_influence(&ig, &[0], 100_000, &mut rng);
        // Child activates iff its threshold ≤ 0.5, so Inf({0}) = 1.5.
        assert!((inf - 1.5).abs() < 0.01, "LT influence {inf}");
    }

    #[test]
    fn empty_seed_set() {
        let ig = fan_in();
        let mut sim = LtSimulator::for_graph(&ig);
        let mut rng = Pcg32::seed_from_u64(4);
        assert_eq!(sim.simulate(&ig, &[], &mut rng).activated, 0);
    }

    #[test]
    fn lt_live_edge_sample_keeps_at_most_one_in_edge() {
        let ig = fan_in();
        let mut rng = Pcg32::seed_from_u64(5);
        for _ in 0..100 {
            let snapshot = sample_lt_snapshot(&ig, &mut rng);
            assert!(snapshot.graph().in_degree(2) <= 1);
            assert_eq!(snapshot.edges_examined(), ig.num_edges());
        }
    }

    #[test]
    fn lt_live_edge_probability_matches_weight() {
        let ig = fan_in();
        let mut rng = Pcg32::seed_from_u64(6);
        let trials = 50_000;
        let mut kept = 0usize;
        for _ in 0..trials {
            kept += sample_lt_snapshot(&ig, &mut rng).live_edge_count();
        }
        // Vertex 2 keeps an edge with probability 1.0 (0.5 + 0.5); others never.
        let mean = kept as f64 / trials as f64;
        assert!((mean - 1.0).abs() < 0.01, "mean live edges {mean}");
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_panics() {
        let ig = fan_in();
        let mut rng = Pcg32::seed_from_u64(7);
        let _ = monte_carlo_lt_influence(&ig, &[0], 0, &mut rng);
    }
}
