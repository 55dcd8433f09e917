//! Forward simulation of the independent cascade (IC) model, and the
//! diffusion-model seam of the three approaches.
//!
//! Section 2.2: seeds are activated at time 0; each newly activated vertex `u`
//! gets a single chance to activate each currently inactive out-neighbour `v`,
//! succeeding with probability `p(u, v)`; the process stops when no new vertex
//! is activated. The influence spread `Inf(S)` is the expected number of
//! activated vertices.
//!
//! The simulator reports the paper's traversal-cost counters: every activated
//! vertex scanned counts as one vertex examination and every activation trial
//! counts as one edge examination.
//!
//! Oneshot, Snapshot and RIS differ in how they sample and reuse randomness,
//! not in the model, so each is written once against [`Diffusion`] and runs
//! under [`Ic`] or under the linear threshold extension [`Lt`].

use imgraph::live_edge::{sample_snapshot, Snapshot};
use imgraph::{InfluenceGraph, VertexId};
use imrand::Rng32;

use crate::cost::TraversalCost;
use crate::lt::{generate_lt_rr_set, sample_lt_snapshot, LtSimulator};
use crate::ris::{RrScratch, RrSet};

/// A diffusion model as the approaches see it: one sampling primitive per
/// approach (plus the scratch the forward simulation reuses), the only
/// model-specific code they call.
pub trait Diffusion: Copy + Send + Sync {
    /// Reusable scratch for forward simulations.
    type Simulator;

    /// `approach_name()` of the Oneshot estimator under this model.
    const ONESHOT_NAME: &'static str;
    /// `approach_name()` of the Snapshot estimator under this model.
    const SNAPSHOT_NAME: &'static str;
    /// `approach_name()` of the RIS estimator under this model.
    const RIS_NAME: &'static str;

    /// Simulation scratch sized for `graph`.
    fn simulator(self, graph: &InfluenceGraph) -> Self::Simulator;

    /// One forward simulation from `seeds` (Oneshot's Estimate).
    fn simulate<R: Rng32>(
        self,
        simulator: &mut Self::Simulator,
        graph: &InfluenceGraph,
        seeds: &[VertexId],
        rng: &mut R,
    ) -> SimulationOutcome;

    /// One live-edge graph (Snapshot's Build).
    fn sample_snapshot<R: Rng32>(self, graph: &InfluenceGraph, rng: &mut R) -> Snapshot;

    /// One RR set for a uniformly random target (RIS's Build).
    fn sample_rr_set<R: Rng32>(
        self,
        graph: &InfluenceGraph,
        scratch: &mut RrScratch,
        rng: &mut R,
    ) -> RrSet;
}

/// The independent cascade model: every edge is live independently with its
/// probability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ic;

/// The linear threshold model of [`crate::lt`]: every vertex keeps at most one
/// in-edge, chosen with probability equal to its weight.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lt;

impl Diffusion for Ic {
    type Simulator = IcSimulator;
    const ONESHOT_NAME: &'static str = "Oneshot";
    const SNAPSHOT_NAME: &'static str = "Snapshot";
    const RIS_NAME: &'static str = "RIS";

    fn simulator(self, graph: &InfluenceGraph) -> IcSimulator {
        IcSimulator::for_graph(graph)
    }

    fn simulate<R: Rng32>(
        self,
        simulator: &mut IcSimulator,
        graph: &InfluenceGraph,
        seeds: &[VertexId],
        rng: &mut R,
    ) -> SimulationOutcome {
        simulator.simulate(graph, seeds, rng)
    }

    fn sample_snapshot<R: Rng32>(self, graph: &InfluenceGraph, rng: &mut R) -> Snapshot {
        sample_snapshot(graph, rng)
    }

    fn sample_rr_set<R: Rng32>(
        self,
        graph: &InfluenceGraph,
        scratch: &mut RrScratch,
        rng: &mut R,
    ) -> RrSet {
        scratch.generate(graph, rng)
    }
}

impl Diffusion for Lt {
    type Simulator = LtSimulator;
    const ONESHOT_NAME: &'static str = "LT-Oneshot";
    const SNAPSHOT_NAME: &'static str = "LT-Snapshot";
    const RIS_NAME: &'static str = "LT-RIS";

    fn simulator(self, graph: &InfluenceGraph) -> LtSimulator {
        LtSimulator::for_graph(graph)
    }

    fn simulate<R: Rng32>(
        self,
        simulator: &mut LtSimulator,
        graph: &InfluenceGraph,
        seeds: &[VertexId],
        rng: &mut R,
    ) -> SimulationOutcome {
        simulator.simulate(graph, seeds, rng)
    }

    fn sample_snapshot<R: Rng32>(self, graph: &InfluenceGraph, rng: &mut R) -> Snapshot {
        sample_lt_snapshot(graph, rng)
    }

    /// A reverse path needs no visited marks, so `scratch` is unused.
    fn sample_rr_set<R: Rng32>(
        self,
        graph: &InfluenceGraph,
        _scratch: &mut RrScratch,
        rng: &mut R,
    ) -> RrSet {
        let target = rng.gen_index(graph.num_vertices()) as VertexId;
        generate_lt_rr_set(graph, target, rng)
    }
}

/// Result of a single forward simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimulationOutcome {
    /// Number of activated vertices `|A_{≤n}|`, including the seeds.
    pub activated: usize,
    /// Vertices and edges examined by this simulation.
    pub cost: TraversalCost,
}

/// Reusable scratch space for IC simulations (activation marks and the BFS
/// frontier), so repeated Oneshot Estimate calls do not reallocate.
#[derive(Debug, Clone)]
pub struct IcSimulator {
    active_epoch: Vec<u32>,
    epoch: u32,
    frontier: Vec<VertexId>,
}

impl IcSimulator {
    /// Create a simulator for graphs with up to `n` vertices.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
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

    /// Run one IC simulation from `seeds` and return the number of activated
    /// vertices along with the traversal cost.
    ///
    /// Duplicate seeds are activated once. The simulation is processed as a
    /// breadth-first cascade, which is equivalent to the time-stepped
    /// definition because each edge is tried at most once.
    pub fn simulate<R: Rng32>(
        &mut self,
        ig: &InfluenceGraph,
        seeds: &[VertexId],
        rng: &mut R,
    ) -> SimulationOutcome {
        let epoch = self.next_epoch();
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
            for (v, p) in ig.out_edges_with_prob(u) {
                cost.edges += 1;
                if self.active_epoch[v as usize] == epoch {
                    continue;
                }
                if rng.bernoulli(p) {
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

    /// Run one simulation and additionally return the activated vertex set.
    pub fn simulate_collect<R: Rng32>(
        &mut self,
        ig: &InfluenceGraph,
        seeds: &[VertexId],
        rng: &mut R,
    ) -> (Vec<VertexId>, TraversalCost) {
        let outcome = self.simulate(ig, seeds, rng);
        (self.frontier.clone(), outcome.cost)
    }
}

/// Estimate `Inf(S)` by averaging `trials` independent IC simulations.
///
/// This is the plain Monte-Carlo estimator used both by Oneshot (Algorithm
/// 3.2) and as a ground-truth cross-check against the RR-set oracle in tests.
pub fn monte_carlo_influence<R: Rng32>(
    ig: &InfluenceGraph,
    seeds: &[VertexId],
    trials: usize,
    rng: &mut R,
) -> f64 {
    assert!(trials > 0, "need at least one trial");
    let mut simulator = IcSimulator::for_graph(ig);
    let mut total = 0usize;
    for _ in 0..trials {
        total += simulator.simulate(ig, seeds, rng).activated;
    }
    total as f64 / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lt::monte_carlo_lt_influence;
    use crate::{InfluenceEstimator, OneshotEstimator, RisEstimator, SnapshotEstimator};
    use imgraph::DiGraph;
    use imrand::Pcg32;

    type Reference = fn(&InfluenceGraph, &[VertexId], usize, &mut Pcg32) -> f64;

    #[test]
    fn all_three_match_monte_carlo_on_a_weighted_diamond() {
        fn check<D: Diffusion>(model: D, reference: Reference) {
            // Vertex 3's in-weights sum to 1, so these are valid LT weights.
            let g = DiGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
            let ig = InfluenceGraph::new(g, vec![0.6, 0.4, 0.5, 0.5]);
            let expected = reference(&ig, &[0], 200_000, &mut Pcg32::seed_from_u64(4));
            let mut oneshot = OneshotEstimator::under(model, &ig, 50_000, Pcg32::seed_from_u64(5));
            let mut snapshot =
                SnapshotEstimator::under(model, &ig, 30_000, &mut Pcg32::seed_from_u64(6), true);
            let mut ris = RisEstimator::under(model, &ig, 80_000, &mut Pcg32::seed_from_u64(7));
            for est in [
                &mut oneshot as &mut dyn InfluenceEstimator,
                &mut snapshot,
                &mut ris,
            ] {
                let value = est.estimate(0);
                assert!(
                    (value - expected).abs() < 0.05,
                    "{}: {value} vs Monte-Carlo {expected}",
                    est.approach_name()
                );
            }
        }
        check(Ic, monte_carlo_influence);
        check(Lt, monte_carlo_lt_influence);
    }

    fn path(probabilities: &[f64]) -> InfluenceGraph {
        let n = probabilities.len() + 1;
        let edges: Vec<_> = (0..probabilities.len() as u32)
            .map(|i| (i, i + 1))
            .collect();
        InfluenceGraph::new(DiGraph::from_edges(n, &edges), probabilities.to_vec())
    }

    #[test]
    fn certain_edges_activate_everything() {
        let ig = path(&[1.0, 1.0, 1.0]);
        let mut sim = IcSimulator::for_graph(&ig);
        let mut rng = Pcg32::seed_from_u64(1);
        let out = sim.simulate(&ig, &[0], &mut rng);
        assert_eq!(out.activated, 4);
        // Traversal cost: every activated vertex scanned once, every out-edge
        // of an activated vertex tried once.
        assert_eq!(out.cost.vertices, 4);
        assert_eq!(out.cost.edges, 3);
    }

    #[test]
    fn seeds_only_when_probability_is_negligible() {
        let ig = path(&[1e-12, 1e-12]);
        let mut sim = IcSimulator::for_graph(&ig);
        let mut rng = Pcg32::seed_from_u64(2);
        let out = sim.simulate(&ig, &[0], &mut rng);
        assert_eq!(out.activated, 1);
        assert_eq!(out.cost.vertices, 1);
        assert_eq!(out.cost.edges, 1);
    }

    #[test]
    fn duplicate_seeds_are_counted_once() {
        let ig = path(&[1.0]);
        let mut sim = IcSimulator::for_graph(&ig);
        let mut rng = Pcg32::seed_from_u64(3);
        let out = sim.simulate(&ig, &[0, 0, 0], &mut rng);
        assert_eq!(out.activated, 2);
    }

    #[test]
    fn empty_seed_set_activates_nothing() {
        let ig = path(&[0.5]);
        let mut sim = IcSimulator::for_graph(&ig);
        let mut rng = Pcg32::seed_from_u64(4);
        let out = sim.simulate(&ig, &[], &mut rng);
        assert_eq!(out.activated, 0);
        assert_eq!(out.cost, TraversalCost::zero());
    }

    #[test]
    fn influence_of_two_vertex_path_is_one_plus_p() {
        // Inf({0}) on 0 -> 1 with probability p is exactly 1 + p.
        let p = 0.3;
        let ig = path(&[p]);
        let mut rng = Pcg32::seed_from_u64(5);
        let estimate = monte_carlo_influence(&ig, &[0], 200_000, &mut rng);
        assert!(
            (estimate - (1.0 + p)).abs() < 0.01,
            "estimate {estimate} should be close to {}",
            1.0 + p
        );
    }

    #[test]
    fn influence_of_longer_path_matches_closed_form() {
        // On a path with uniform probability p, Inf({0}) = Σ_{i=0..L} p^i.
        let p = 0.5;
        let ig = path(&[p, p, p]);
        let expected = 1.0 + p + p * p + p * p * p;
        let mut rng = Pcg32::seed_from_u64(6);
        let estimate = monte_carlo_influence(&ig, &[0], 200_000, &mut rng);
        assert!(
            (estimate - expected).abs() < 0.02,
            "estimate {estimate} vs expected {expected}"
        );
    }

    #[test]
    fn simulate_collect_returns_activated_vertices() {
        let ig = path(&[1.0, 1.0]);
        let mut sim = IcSimulator::for_graph(&ig);
        let mut rng = Pcg32::seed_from_u64(7);
        let (mut active, _) = sim.simulate_collect(&ig, &[1], &mut rng);
        active.sort_unstable();
        assert_eq!(active, vec![1, 2]);
    }

    #[test]
    fn cycles_do_not_loop_forever() {
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let ig = InfluenceGraph::new(g, vec![1.0, 1.0, 1.0]);
        let mut sim = IcSimulator::for_graph(&ig);
        let mut rng = Pcg32::seed_from_u64(8);
        let out = sim.simulate(&ig, &[0], &mut rng);
        assert_eq!(out.activated, 3);
        assert_eq!(out.cost.edges, 3);
    }

    #[test]
    fn simulator_reuse_is_consistent() {
        let ig = path(&[1.0, 1.0, 1.0, 1.0]);
        let mut sim = IcSimulator::for_graph(&ig);
        let mut rng = Pcg32::seed_from_u64(9);
        for start in 0..5u32 {
            let out = sim.simulate(&ig, &[start], &mut rng);
            assert_eq!(out.activated, 5 - start as usize);
        }
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_panics() {
        let ig = path(&[0.5]);
        let mut rng = Pcg32::seed_from_u64(10);
        let _ = monte_carlo_influence(&ig, &[0], 0, &mut rng);
    }
}
