//! The Oneshot approach (Algorithm 3.2): Monte-Carlo simulations on the spot.
//!
//! Build does nothing. Estimate simulates the diffusion process `β` times from
//! `S_{ℓ−1} + v` and returns the average number of activated vertices. Update
//! does nothing beyond remembering the chosen seed. The estimator is unbiased
//! but — because every Estimate call uses fresh randomness — neither monotone
//! nor submodular (Section 3.3.1), so CELF-style lazy evaluation is not
//! admissible for it.
//!
//! Oneshot is the one approach that uses the diffusion model after Build, so
//! the model is a type parameter: `OneshotEstimator<'_, R>` is the paper's IC
//! estimator, `OneshotEstimator<'_, R, Lt>` its linear threshold twin.

use imgraph::{InfluenceGraph, VertexId};
use imrand::{derive_seed, DefaultRng, Rng32};

use crate::cost::{SampleSize, TraversalCost};
use crate::diffusion::{Diffusion, Ic};
use crate::estimator::InfluenceEstimator;
use crate::sampler::{self, Backend, SampleBudget};

/// Where an Estimate call's `β` simulations draw their randomness from.
enum Source<R> {
    /// The paper-faithful shared stream: every simulation advances one
    /// generator in order (inherently sequential).
    Stream(R),
    /// The batched sampler: Estimate call `c` derives its own seed from
    /// `base_seed` and fans its `β` simulations out in deterministic batches,
    /// identical on the sequential and parallel [`Backend`]s.
    Batched {
        base_seed: u64,
        backend: Backend,
        next_call: u64,
    },
}

/// The Oneshot (simulation-based) influence estimator under the diffusion
/// model `D`.
pub struct OneshotEstimator<'g, R: Rng32, D: Diffusion = Ic> {
    graph: &'g InfluenceGraph,
    model: D,
    /// Sample number β: simulations per Estimate call.
    beta: u64,
    source: Source<R>,
    simulator: D::Simulator,
    current_seeds: Vec<VertexId>,
    cost: TraversalCost,
}

impl<'g, R: Rng32> OneshotEstimator<'g, R> {
    /// Build an IC Oneshot estimator (Algorithm 3.2's Build is a no-op; this
    /// just captures the graph, the sample number `β ≥ 1` and the run's
    /// generator).
    ///
    /// # Panics
    ///
    /// Panics if `beta == 0`.
    pub fn new(graph: &'g InfluenceGraph, beta: u64, rng: R) -> Self {
        Self::under(Ic, graph, beta, rng)
    }
}

impl<'g> OneshotEstimator<'g, DefaultRng> {
    /// Build an IC Oneshot estimator driven by the batched sampler: every
    /// Estimate call fans its `β` simulations out over `backend`, drawing
    /// per-batch PRNG streams derived from `base_seed` and the call index.
    /// For a fixed `base_seed` the estimates — and therefore every seed set
    /// greedy selects — are identical on the sequential and parallel
    /// [`Backend`]s.
    ///
    /// # Panics
    ///
    /// Panics if `beta == 0`.
    pub fn with_backend(
        graph: &'g InfluenceGraph,
        beta: u64,
        base_seed: u64,
        backend: Backend,
    ) -> Self {
        Self::under_backend(Ic, graph, beta, base_seed, backend)
    }
}

impl<'g, R: Rng32, D: Diffusion> OneshotEstimator<'g, R, D> {
    /// [`OneshotEstimator::new`] under `model`.
    ///
    /// # Panics
    ///
    /// Panics if `beta == 0`.
    pub fn under(model: D, graph: &'g InfluenceGraph, beta: u64, rng: R) -> Self {
        Self::build(model, graph, beta, Source::Stream(rng))
    }

    fn build(model: D, graph: &'g InfluenceGraph, beta: u64, source: Source<R>) -> Self {
        assert!(
            beta >= 1,
            "{} needs at least one simulation per estimate",
            D::ONESHOT_NAME
        );
        Self {
            graph,
            model,
            beta,
            source,
            simulator: model.simulator(graph),
            current_seeds: Vec::new(),
            cost: TraversalCost::zero(),
        }
    }

    /// The seeds committed so far.
    #[must_use]
    pub fn current_seeds(&self) -> &[VertexId] {
        &self.current_seeds
    }

    /// Estimate the influence spread of an arbitrary seed set (used by tests
    /// and by the traversal-cost experiment at k = 1 with sample number 1).
    pub fn estimate_set(&mut self, seeds: &[VertexId]) -> f64 {
        let beta = self.beta;
        let model = self.model;
        let graph = self.graph;
        let (activated, cost) = match &mut self.source {
            Source::Stream(rng) => {
                let simulator = &mut self.simulator;
                sampler::fold_stream(
                    beta,
                    rng,
                    (0u64, TraversalCost::zero()),
                    |(activated, mut cost), _, rng| {
                        let outcome = model.simulate(simulator, graph, seeds, rng);
                        cost += outcome.cost;
                        (activated + outcome.activated as u64, cost)
                    },
                )
            }
            Source::Batched {
                base_seed,
                backend,
                next_call,
            } => {
                let call_seed = derive_seed(*base_seed, *next_call);
                let backend = *backend;
                *next_call += 1;
                let budget = SampleBudget::new(beta);
                // `run_batches_reusing` lets the single worker drive the
                // estimator-owned simulator instead of allocating fresh O(n)
                // scratch on every Estimate call.
                sampler::run_batches_reusing(
                    &budget,
                    call_seed,
                    backend,
                    &mut self.simulator,
                    || model.simulator(graph),
                    |simulator, batch, rng| {
                        let mut activated = 0u64;
                        let mut cost = TraversalCost::zero();
                        for _ in 0..batch.len {
                            let outcome = model.simulate(simulator, graph, seeds, rng);
                            activated += outcome.activated as u64;
                            cost += outcome.cost;
                        }
                        (activated, cost)
                    },
                )
                .into_iter()
                .fold((0u64, TraversalCost::zero()), |(a, mut c), (ba, bc)| {
                    c += bc;
                    (a + ba, c)
                })
            }
        };
        self.cost += cost;
        activated as f64 / beta as f64
    }
}

impl<'g, D: Diffusion> OneshotEstimator<'g, DefaultRng, D> {
    /// [`OneshotEstimator::with_backend`] under `model`.
    ///
    /// # Panics
    ///
    /// Panics if `beta == 0`.
    pub fn under_backend(
        model: D,
        graph: &'g InfluenceGraph,
        beta: u64,
        base_seed: u64,
        backend: Backend,
    ) -> Self {
        let source = Source::Batched {
            base_seed,
            backend,
            next_call: 0,
        };
        Self::build(model, graph, beta, source)
    }
}

impl<R: Rng32, D: Diffusion> InfluenceEstimator for OneshotEstimator<'_, R, D> {
    fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    fn estimate(&mut self, candidate: VertexId) -> f64 {
        // Simulate from S_{ℓ−1} + v; the candidate is appended temporarily.
        self.current_seeds.push(candidate);
        let seeds = std::mem::take(&mut self.current_seeds);
        let value = self.estimate_set(&seeds);
        self.current_seeds = seeds;
        self.current_seeds.pop();
        value
    }

    fn update(&mut self, chosen: VertexId) {
        self.current_seeds.push(chosen);
    }

    fn traversal_cost(&self) -> TraversalCost {
        self.cost
    }

    fn sample_size(&self) -> SampleSize {
        // Oneshot stores no samples between Estimate calls; the |A_{≤n}| ≤ n
        // vertices held during one simulation are transient (Section 3.3.2).
        SampleSize::zero()
    }

    fn approach_name(&self) -> &'static str {
        D::ONESHOT_NAME
    }

    fn sample_number(&self) -> u64 {
        self.beta
    }

    fn is_submodular(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diffusion::Lt;
    use crate::greedy::greedy_select;
    use imgraph::DiGraph;
    use imrand::Pcg32;

    /// `0 -> 1..4`. Every vertex has in-degree ≤ 1, so the weights are valid
    /// LT weights and LT influence equals IC influence.
    fn star(prob: f64) -> InfluenceGraph {
        let edges: Vec<_> = (1..5u32).map(|v| (0, v)).collect();
        InfluenceGraph::new(DiGraph::from_edges(5, &edges), vec![prob; 4])
    }

    #[test]
    fn estimate_of_hub_exceeds_leaf() {
        fn check<D: Diffusion>(model: D) {
            let ig = star(0.5);
            let mut est = OneshotEstimator::under(model, &ig, 512, Pcg32::seed_from_u64(1));
            let name = est.approach_name();
            let hub = est.estimate(0);
            let leaf = est.estimate(3);
            assert!(hub > leaf, "{name}: hub {hub} should exceed leaf {leaf}");
            assert!((leaf - 1.0).abs() < 0.05, "{name}: a leaf activates itself");
            assert!((hub - 3.0).abs() < 0.2, "{name}: hub ≈ 1 + 4·0.5 = 3");
        }
        check(Ic);
        check(Lt);
    }

    #[test]
    fn estimates_are_relative_to_current_seed_set() {
        let ig = star(1.0);
        let mut est = OneshotEstimator::new(&ig, 16, Pcg32::seed_from_u64(2));
        // With the hub already selected, every additional vertex yields the
        // same total influence of 5.
        est.update(0);
        let value = est.estimate(1);
        assert!((value - 5.0).abs() < 1e-9);
        assert_eq!(est.current_seeds(), &[0]);
    }

    #[test]
    fn traversal_cost_accumulates_per_simulation() {
        fn check<D: Diffusion>(model: D) {
            let ig = star(1e-12);
            let beta = 8;
            let mut est = OneshotEstimator::under(model, &ig, beta, Pcg32::seed_from_u64(3));
            let _ = est.estimate(0);
            // Each simulation from {0}: scans vertex 0 and its 4 out-edges.
            assert_eq!(est.traversal_cost().vertices, beta);
            assert_eq!(est.traversal_cost().edges, 4 * beta);
        }
        check(Ic);
        check(Lt);
    }

    #[test]
    fn sample_size_is_zero() {
        fn check<D: Diffusion>(model: D, name: &str) {
            let ig = star(0.5);
            let est = OneshotEstimator::under(model, &ig, 4, Pcg32::seed_from_u64(4));
            assert_eq!(est.sample_size(), SampleSize::zero());
            assert_eq!(est.approach_name(), name);
            assert_eq!(est.sample_number(), 4);
            assert!(!est.is_submodular());
        }
        check(Ic, "Oneshot");
        check(Lt, "LT-Oneshot");
    }

    #[test]
    fn greedy_with_oneshot_picks_the_hub() {
        let ig = star(0.9);
        let mut est = OneshotEstimator::new(&ig, 256, Pcg32::seed_from_u64(5));
        let result = greedy_select(&mut est, 1, &mut Pcg32::seed_from_u64(6));
        assert_eq!(result.selection_order, vec![0]);
    }

    #[test]
    fn estimate_set_matches_estimate_for_singletons() {
        let ig = star(1.0);
        let mut a = OneshotEstimator::new(&ig, 32, Pcg32::seed_from_u64(7));
        let mut b = OneshotEstimator::new(&ig, 32, Pcg32::seed_from_u64(7));
        assert!((a.estimate(0) - b.estimate_set(&[0])).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "LT-Oneshot needs at least one simulation")]
    fn zero_beta_panics() {
        let ig = star(0.5);
        let ic =
            std::panic::catch_unwind(|| OneshotEstimator::new(&ig, 0, Pcg32::seed_from_u64(8)));
        assert!(ic.is_err(), "IC Oneshot must refuse β = 0 too");
        let _ = OneshotEstimator::under(Lt, &ig, 0, Pcg32::seed_from_u64(8));
    }
}
