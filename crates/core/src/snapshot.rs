//! The Snapshot approach (Algorithm 3.3): pre-sampled live-edge graphs.
//!
//! Build samples `τ` random graphs `G⁽¹⁾ … G⁽ᵗ⁾` from the influence graph and
//! shares them across the whole greedy selection. Estimate returns the average
//! marginal reachability `(1/τ)·Σ_i [r_{G⁽ⁱ⁾}(S + v) − r_{G⁽ⁱ⁾}(S)]`. Because
//! the random graphs are fixed, the estimator is monotone and submodular
//! (Section 3.4.1).
//!
//! Update implements the subgraph-reduction technique of Section 3.4.3: the
//! vertices already reachable from the committed seeds are marked "blocked" in
//! each snapshot, so later Estimate calls only traverse the residual subgraph
//! `H⁽ⁱ⁾`, which makes the marginal gain a plain reachability query
//! (`r_{G⁽ⁱ⁾}(S + v) − r_{G⁽ⁱ⁾}(S) = r_{H⁽ⁱ⁾}(v)`). The optimisation can be
//! switched off to measure its effect (ablation bench).
//!
//! The diffusion model only decides how a snapshot is sampled, so it is a
//! Build argument ([`SnapshotEstimator::under`]) and not part of the type.

use imgraph::live_edge::Snapshot;
use imgraph::reach::ReachWorkspace;
use imgraph::{InfluenceGraph, VertexId};
use imrand::Rng32;

use crate::cost::{SampleSize, TraversalCost};
use crate::diffusion::{Diffusion, Ic};
use crate::estimator::InfluenceEstimator;
use crate::sampler::{self, Backend, SampleBudget};

/// Stream discipline: sample `tau` live-edge graphs under `model` in order
/// from one shared generator (the paper-faithful Build of Algorithm 3.3).
pub fn sample_snapshots_stream<D: Diffusion, R: Rng32>(
    model: D,
    graph: &InfluenceGraph,
    tau: u64,
    rng: &mut R,
) -> Vec<Snapshot> {
    sampler::fold_stream(
        tau,
        rng,
        Vec::with_capacity(tau as usize),
        |mut acc, _, rng| {
            acc.push(model.sample_snapshot(graph, rng));
            acc
        },
    )
}

/// Batched discipline: sample `tau` live-edge graphs under `model` with one
/// PRNG stream per batch; identical output on the sequential and parallel
/// [`Backend`]s.
pub fn sample_snapshots_batched<D: Diffusion>(
    model: D,
    graph: &InfluenceGraph,
    tau: u64,
    base_seed: u64,
    backend: Backend,
) -> Vec<Snapshot> {
    sampler::sample_batched(
        &SampleBudget::new(tau),
        base_seed,
        backend,
        || (),
        |(), _, rng| model.sample_snapshot(graph, rng),
    )
}

/// The Snapshot (live-edge sampling) influence estimator.
pub struct SnapshotEstimator {
    name: &'static str,
    snapshots: Vec<Snapshot>,
    /// Per-snapshot "already reachable from the committed seeds" marks (only
    /// maintained when `use_reduction` is true).
    blocked: Vec<Vec<bool>>,
    /// Per-snapshot count of vertices already reachable from the committed
    /// seeds (used by the non-reduced estimate path).
    base_reach: Vec<usize>,
    committed: Vec<VertexId>,
    workspace: ReachWorkspace,
    num_vertices: usize,
    tau: u64,
    use_reduction: bool,
    cost: TraversalCost,
    build_cost: TraversalCost,
    sample_size: SampleSize,
}

impl SnapshotEstimator {
    /// Build step: sample `τ ≥ 1` IC live-edge graphs with the run's
    /// generator, with the subgraph-reduction Update.
    ///
    /// # Panics
    ///
    /// Panics if `tau == 0`.
    pub fn new<R: Rng32>(graph: &InfluenceGraph, tau: u64, rng: &mut R) -> Self {
        Self::under(Ic, graph, tau, rng, true)
    }

    /// Build step driven by the batched sampler: `τ` IC live-edge graphs
    /// drawn from per-batch PRNG streams derived from `base_seed`, optionally
    /// across worker threads. For a fixed `base_seed` the snapshots — and
    /// therefore every seed set greedy selects — are identical on the
    /// sequential and parallel [`Backend`]s.
    ///
    /// # Panics
    ///
    /// Panics if `tau == 0`.
    pub fn with_backend(
        graph: &InfluenceGraph,
        tau: u64,
        base_seed: u64,
        backend: Backend,
        use_reduction: bool,
    ) -> Self {
        Self::under_backend(Ic, graph, tau, base_seed, backend, use_reduction)
    }

    /// Build step under `model` from the run's generator, with the
    /// subgraph-reduction Update optimisation toggled.
    ///
    /// # Panics
    ///
    /// Panics if `tau == 0`.
    pub fn under<D: Diffusion, R: Rng32>(
        model: D,
        graph: &InfluenceGraph,
        tau: u64,
        rng: &mut R,
        use_reduction: bool,
    ) -> Self {
        Self::build::<D>(graph, tau, use_reduction, || {
            sample_snapshots_stream(model, graph, tau, rng)
        })
    }

    /// [`SnapshotEstimator::with_backend`] under `model`.
    ///
    /// # Panics
    ///
    /// Panics if `tau == 0`.
    pub fn under_backend<D: Diffusion>(
        model: D,
        graph: &InfluenceGraph,
        tau: u64,
        base_seed: u64,
        backend: Backend,
        use_reduction: bool,
    ) -> Self {
        Self::build::<D>(graph, tau, use_reduction, || {
            sample_snapshots_batched(model, graph, tau, base_seed, backend)
        })
    }

    fn build<D: Diffusion>(
        graph: &InfluenceGraph,
        tau: u64,
        use_reduction: bool,
        sample: impl FnOnce() -> Vec<Snapshot>,
    ) -> Self {
        assert!(
            tau >= 1,
            "{} needs at least one random graph",
            D::SNAPSHOT_NAME
        );
        let snapshots = sample();
        let n = graph.num_vertices();
        // Build examines every edge of the influence graph once per snapshot.
        // Section 3.4.2 (and Table 8) account for that separately from the
        // Estimate/Update traversal cost — "Build touches each edge only τ
        // times, which does not dominate" — so it is tracked in `build_cost`
        // and not mixed into the per-sample traversal cost.
        let mut build_cost = TraversalCost::zero();
        let mut sample_size = SampleSize::zero();
        for snap in &snapshots {
            build_cost.edges += snap.edges_examined() as u64;
            sample_size.vertices += n as u64;
            sample_size.edges += snap.live_edge_count() as u64;
        }
        let blocked = if use_reduction {
            vec![vec![false; n]; snapshots.len()]
        } else {
            Vec::new()
        };
        Self {
            name: D::SNAPSHOT_NAME,
            base_reach: vec![0; snapshots.len()],
            blocked,
            snapshots,
            committed: Vec::new(),
            workspace: ReachWorkspace::new(n),
            num_vertices: n,
            tau,
            use_reduction,
            cost: TraversalCost::zero(),
            build_cost,
            sample_size,
        }
    }

    /// The traversal cost of the Build step alone (τ passes over the edge
    /// set), reported separately per Section 3.4.2.
    #[must_use]
    pub fn build_traversal_cost(&self) -> TraversalCost {
        self.build_cost
    }

    /// The seeds committed so far.
    #[must_use]
    pub fn current_seeds(&self) -> &[VertexId] {
        &self.committed
    }

    /// Whether the subgraph-reduction Update optimisation is active.
    #[must_use]
    pub fn uses_reduction(&self) -> bool {
        self.use_reduction
    }

    /// The sampled snapshots (exposed for tests and diagnostics).
    #[must_use]
    pub fn snapshots(&self) -> &[Snapshot] {
        &self.snapshots
    }

    /// Estimate the (absolute) influence spread of an arbitrary seed set using
    /// the shared snapshots: `(1/τ)·Σ_i r_{G⁽ⁱ⁾}(S)`.
    pub fn estimate_set(&mut self, seeds: &[VertexId]) -> f64 {
        let mut total = 0usize;
        for snap in &self.snapshots {
            let stats = self.workspace.reachable_count(snap.graph(), seeds);
            total += stats.reachable;
            self.cost
                .add_scan(stats.vertices_scanned, stats.edges_scanned);
        }
        total as f64 / self.snapshots.len() as f64
    }
}

impl InfluenceEstimator for SnapshotEstimator {
    fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    fn estimate(&mut self, candidate: VertexId) -> f64 {
        let mut marginal_total = 0usize;
        if self.use_reduction {
            for (i, snap) in self.snapshots.iter().enumerate() {
                let stats = self.workspace.reachable_count_excluding(
                    snap.graph(),
                    &[candidate],
                    &self.blocked[i],
                );
                marginal_total += stats.reachable;
                self.cost
                    .add_scan(stats.vertices_scanned, stats.edges_scanned);
            }
        } else {
            // Naive path: recompute r(S + v) and subtract the cached r(S).
            for (i, snap) in self.snapshots.iter().enumerate() {
                let mut seeds = self.committed.clone();
                seeds.push(candidate);
                let stats = self.workspace.reachable_count(snap.graph(), &seeds);
                marginal_total += stats.reachable - self.base_reach[i];
                self.cost
                    .add_scan(stats.vertices_scanned, stats.edges_scanned);
            }
        }
        marginal_total as f64 / self.snapshots.len() as f64
    }

    fn update(&mut self, chosen: VertexId) {
        if self.use_reduction {
            // Mark everything newly reachable from the chosen seed as blocked
            // in each snapshot; later estimates then traverse only H⁽ⁱ⁾.
            for (i, snap) in self.snapshots.iter().enumerate() {
                let stats = self.workspace.reachable_count_excluding(
                    snap.graph(),
                    &[chosen],
                    &self.blocked[i],
                );
                self.cost
                    .add_scan(stats.vertices_scanned, stats.edges_scanned);
                let blocked = &mut self.blocked[i];
                for v in 0..self.num_vertices as u32 {
                    if self.workspace.was_visited(v) {
                        blocked[v as usize] = true;
                    }
                }
                self.base_reach[i] += stats.reachable;
            }
        } else {
            self.committed.push(chosen);
            for (i, snap) in self.snapshots.iter().enumerate() {
                let stats = self
                    .workspace
                    .reachable_count(snap.graph(), &self.committed);
                self.base_reach[i] = stats.reachable;
                self.cost
                    .add_scan(stats.vertices_scanned, stats.edges_scanned);
            }
            return;
        }
        self.committed.push(chosen);
    }

    fn traversal_cost(&self) -> TraversalCost {
        self.cost
    }

    fn sample_size(&self) -> SampleSize {
        self.sample_size
    }

    fn approach_name(&self) -> &'static str {
        self.name
    }

    fn sample_number(&self) -> u64 {
        self.tau
    }

    fn is_submodular(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diffusion::Lt;
    use crate::greedy::{celf_select, greedy_select};
    use imgraph::DiGraph;
    use imrand::Pcg32;

    // Every vertex of these graphs has in-degree ≤ 1, so the probabilities
    // are valid LT weights and LT snapshots follow the IC distribution.

    fn star(prob: f64) -> InfluenceGraph {
        let edges: Vec<_> = (1..5u32).map(|v| (0, v)).collect();
        InfluenceGraph::new(DiGraph::from_edges(5, &edges), vec![prob; 4])
    }

    fn path(prob: f64, len: usize) -> InfluenceGraph {
        let edges: Vec<_> = (0..len as u32 - 1).map(|i| (i, i + 1)).collect();
        InfluenceGraph::new(DiGraph::from_edges(len, &edges), vec![prob; len - 1])
    }

    #[test]
    fn deterministic_graph_estimates_exactly() {
        fn check<D: Diffusion>(model: D) {
            let ig = path(1.0, 5);
            let mut rng = Pcg32::seed_from_u64(1);
            let mut est = SnapshotEstimator::under(model, &ig, 4, &mut rng, true);
            assert!((est.estimate(0) - 5.0).abs() < 1e-12);
            assert!((est.estimate(4) - 1.0).abs() < 1e-12);
        }
        check(Ic);
        check(Lt);
    }

    #[test]
    fn marginal_gains_shrink_after_update() {
        fn check<D: Diffusion>(model: D) {
            let ig = path(1.0, 5);
            let mut rng = Pcg32::seed_from_u64(2);
            let mut est = SnapshotEstimator::under(model, &ig, 2, &mut rng, true);
            let before = est.estimate(2);
            est.update(0); // vertex 0 reaches everything on a deterministic path
            let after = est.estimate(2);
            assert!((before - 3.0).abs() < 1e-12);
            assert!(
                after.abs() < 1e-12,
                "marginal gain after covering the path should be 0"
            );
            assert_eq!(est.current_seeds(), &[0]);
        }
        check(Ic);
        check(Lt);
    }

    #[test]
    fn reduction_and_naive_paths_agree() {
        fn check<D: Diffusion>(model: D) {
            let ig = star(0.6);
            for seed in 0..5u64 {
                let build = |reduction| {
                    let mut rng = Pcg32::seed_from_u64(seed);
                    SnapshotEstimator::under(model, &ig, 32, &mut rng, reduction)
                };
                // Same snapshots because the same RNG stream was used.
                let (mut reduced, mut naive) = (build(true), build(false));
                let name = reduced.approach_name();
                for v in [0u32, 3, 1] {
                    for candidate in 0..5u32 {
                        let a = reduced.estimate(candidate);
                        let b = naive.estimate(candidate);
                        assert!(
                            (a - b).abs() < 1e-9,
                            "{name}: estimate mismatch for {candidate} (seed {seed}): {a} vs {b}"
                        );
                    }
                    reduced.update(v);
                    naive.update(v);
                }
            }
        }
        check(Ic);
        check(Lt);
    }

    #[test]
    fn reduction_lowers_estimate_traversal_cost() {
        let ig = path(1.0, 50);
        let mut reduced = SnapshotEstimator::under(Ic, &ig, 8, &mut Pcg32::seed_from_u64(3), true);
        let mut naive = SnapshotEstimator::under(Ic, &ig, 8, &mut Pcg32::seed_from_u64(3), false);
        // Select the head of the path, then estimate the tail: the reduced
        // estimator should traverse far fewer vertices afterwards.
        reduced.update(0);
        naive.update(0);
        let reduced_before = reduced.traversal_cost();
        let naive_before = naive.traversal_cost();
        for v in 1..50u32 {
            let _ = reduced.estimate(v);
            let _ = naive.estimate(v);
        }
        let reduced_delta = reduced.traversal_cost().vertices - reduced_before.vertices;
        let naive_delta = naive.traversal_cost().vertices - naive_before.vertices;
        assert!(
            reduced_delta < naive_delta / 2,
            "subgraph reduction should cut traversal: {reduced_delta} vs {naive_delta}"
        );
    }

    #[test]
    fn sample_size_matches_stored_snapshots() {
        fn check<D: Diffusion>(model: D, name: &str) {
            let ig = star(1.0);
            let mut rng = Pcg32::seed_from_u64(4);
            let est = SnapshotEstimator::under(model, &ig, 3, &mut rng, true);
            // With probability 1 every snapshot stores all 4 edges and 5
            // vertices.
            assert_eq!(est.sample_size(), SampleSize::new(15, 12), "{name}");
            // Build examined every edge once per snapshot; that cost is
            // tracked separately from the Estimate/Update traversal cost.
            assert_eq!(est.build_traversal_cost().edges, 12, "{name}");
            assert_eq!(est.traversal_cost(), TraversalCost::zero(), "{name}");
            assert_eq!(est.sample_number(), 3);
            assert_eq!(est.approach_name(), name);
            assert!(est.is_submodular());
            assert!(est.uses_reduction());
            assert_eq!(est.snapshots().len(), 3);
        }
        check(Ic, "Snapshot");
        check(Lt, "LT-Snapshot");
    }

    #[test]
    fn greedy_with_snapshot_picks_the_hub() {
        fn check<D: Diffusion>(model: D) {
            let ig = star(0.9);
            let mut rng = Pcg32::seed_from_u64(5);
            let mut est = SnapshotEstimator::under(model, &ig, 64, &mut rng, true);
            let result = greedy_select(&mut est, 1, &mut Pcg32::seed_from_u64(6));
            assert_eq!(result.selection_order, vec![0], "{}", est.approach_name());
        }
        check(Ic);
        check(Lt);
    }

    #[test]
    fn celf_matches_greedy_for_snapshot() {
        let ig = star(0.5);
        for seed in 0..5u64 {
            let mut a = SnapshotEstimator::new(&ig, 32, &mut Pcg32::seed_from_u64(seed));
            let mut b = SnapshotEstimator::new(&ig, 32, &mut Pcg32::seed_from_u64(seed));
            let g = greedy_select(&mut a, 2, &mut Pcg32::seed_from_u64(seed + 100));
            let c = celf_select(&mut b, 2, &mut Pcg32::seed_from_u64(seed + 100));
            assert_eq!(g.seed_set(), c.seed_set(), "seed {seed}");
        }
    }

    #[test]
    fn estimate_set_is_average_reachability() {
        let ig = path(1.0, 4);
        let mut rng = Pcg32::seed_from_u64(7);
        let mut est = SnapshotEstimator::new(&ig, 5, &mut rng);
        assert!((est.estimate_set(&[1]) - 3.0).abs() < 1e-12);
        assert!((est.estimate_set(&[0, 3]) - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "LT-Snapshot needs at least one random graph")]
    fn zero_tau_panics() {
        let ig = star(0.5);
        let ic = std::panic::catch_unwind(|| {
            SnapshotEstimator::new(&ig, 0, &mut Pcg32::seed_from_u64(8))
        });
        assert!(ic.is_err(), "IC Snapshot must refuse τ = 0 too");
        let _ = SnapshotEstimator::under(Lt, &ig, 0, &mut Pcg32::seed_from_u64(8), true);
    }
}
