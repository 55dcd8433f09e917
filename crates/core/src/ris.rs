//! Reverse Influence Sampling (Algorithm 3.4).
//!
//! Build draws `θ` reverse-reachable (RR) sets: pick a uniformly random target
//! `z`, then collect every vertex that can reach `z` in a live-edge sample by
//! running a reverse BFS that flips each incoming edge with its probability
//! (Definition 3.1 and the generation procedure of Borgs et al.). Estimate
//! returns `n · F_R(v)` where `F_R(v)` is the fraction of *not-yet-covered* RR
//! sets containing `v`; Update removes the RR sets covered by the chosen seed.
//! Greedy over this estimator is exactly greedy maximum coverage over the RR
//! sets, which is why the approach reduces influence maximization to
//! stochastic maximum coverage (Section 3.5.1).
//!
//! The diffusion model only decides how an RR set is sampled, so it is a
//! Build argument ([`RisEstimator::under`]) and not part of the type.

use imgraph::{InfluenceGraph, VertexId};
use imrand::Rng32;

use crate::cost::{SampleSize, TraversalCost};
use crate::diffusion::{Diffusion, Ic};
use crate::estimator::InfluenceEstimator;
use crate::sampler::{self, Backend, SampleBudget};

/// One reverse-reachable set plus its generation cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RrSet {
    /// The vertices that can reach the target in the sampled live-edge graph
    /// (always contains the target itself).
    pub vertices: Vec<VertexId>,
    /// The target vertex `z` the set was generated for.
    pub target: VertexId,
    /// Edges examined while generating the set (under IC this equals the
    /// paper's weight `w(R)`, the in-degree sum of the member vertices).
    pub edges_examined: u64,
}

/// Generate one RR set for a uniformly random target (the paper's "RR set")
/// on a fresh scratch. Repeated draws should reuse one [`RrScratch`].
pub fn generate_rr_set<R: Rng32>(graph: &InfluenceGraph, rng: &mut R) -> RrSet {
    let n = graph.num_vertices();
    assert!(n > 0, "cannot sample an RR set from an empty graph");
    RrScratch::for_graph(graph).generate(graph, rng)
}

/// Reusable per-worker scratch for RR-set generation: an `n`-bit visited
/// bitmap and the BFS queue.
///
/// The bitmap is all zero between sets: each set clears exactly the bits it
/// set by walking its own members, so a set costs what it examines and never
/// `O(n)`.
pub struct RrScratch {
    visited: Vec<u64>,
    queue: Vec<VertexId>,
}

impl RrScratch {
    /// Scratch sized for `graph`.
    #[must_use]
    pub fn for_graph(graph: &InfluenceGraph) -> Self {
        Self {
            visited: vec![0; graph.num_vertices().div_ceil(64)],
            queue: Vec::new(),
        }
    }

    /// Draw one RR set for a uniformly random target, reusing the scratch.
    pub fn generate<R: Rng32>(&mut self, graph: &InfluenceGraph, rng: &mut R) -> RrSet {
        let target = rng.gen_index(graph.num_vertices()) as VertexId;
        self.generate_for_target(graph, target, rng)
    }

    /// The RR-set kernel: a reverse BFS from `target` that examines every
    /// in-edge `(u, v)` of each member `v` (the in-row's sources and
    /// probabilities are read as two sequential runs) and, unless `u` is
    /// already a member, flips the edge with its probability; `u` joins on
    /// a live edge. One Bernoulli draw per examined edge whose source is not
    /// yet a member, in in-row order: the draw order every pool's bytes rest
    /// on.
    pub fn generate_for_target<R: Rng32>(
        &mut self,
        graph: &InfluenceGraph,
        target: VertexId,
        rng: &mut R,
    ) -> RrSet {
        let (visited, queue) = (&mut self.visited, &mut self.queue);
        queue.clear();
        mark(visited, target);
        queue.push(target);
        let mut edges_examined = 0u64;
        let mut head = 0usize;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            for (u, p) in graph.in_edges_with_prob(v) {
                edges_examined += 1;
                if is_marked(visited, u) {
                    continue;
                }
                if rng.bernoulli(p) {
                    mark(visited, u);
                    queue.push(u);
                }
            }
        }
        for &v in queue.iter() {
            visited[v as usize / 64] = 0;
        }
        RrSet {
            vertices: queue.clone(),
            target,
            edges_examined,
        }
    }
}

fn mark(bits: &mut [u64], v: VertexId) {
    bits[v as usize / 64] |= 1 << (v % 64);
}

fn is_marked(bits: &[u64], v: VertexId) -> bool {
    bits[v as usize / 64] & (1 << (v % 64)) != 0
}

/// [`sample_rr_sets_stream`] under IC.
pub fn generate_rr_sets<R: Rng32>(graph: &InfluenceGraph, theta: u64, rng: &mut R) -> Vec<RrSet> {
    sample_rr_sets_stream(Ic, graph, theta, rng)
}

/// Stream discipline: draw `theta` RR sets under `model` in order from one
/// shared generator (the paper-faithful Build of Algorithm 3.4).
pub fn sample_rr_sets_stream<D: Diffusion, R: Rng32>(
    model: D,
    graph: &InfluenceGraph,
    theta: u64,
    rng: &mut R,
) -> Vec<RrSet> {
    let mut scratch = RrScratch::for_graph(graph);
    sampler::fold_stream(
        theta,
        rng,
        Vec::with_capacity(theta as usize),
        |mut acc, _, rng| {
            acc.push(model.sample_rr_set(graph, &mut scratch, rng));
            acc
        },
    )
}

/// Batched discipline: draw `theta` RR sets under `model` with one PRNG
/// stream per batch.
///
/// The output is a pure function of `(theta, base_seed)`: the sequential and
/// parallel [`Backend`]s return byte-identical sets in the same order.
pub fn sample_rr_sets_batched<D: Diffusion>(
    model: D,
    graph: &InfluenceGraph,
    theta: u64,
    base_seed: u64,
    backend: Backend,
) -> Vec<RrSet> {
    sampler::sample_batched(
        &SampleBudget::new(theta),
        base_seed,
        backend,
        || RrScratch::for_graph(graph),
        |scratch, _, rng| model.sample_rr_set(graph, scratch, rng),
    )
}

/// The RIS influence estimator (a greedy-maximum-coverage view of `θ` RR sets).
pub struct RisEstimator {
    name: &'static str,
    /// RR sets by id; the member lists are kept for Update's inverted walk.
    rr_sets: Vec<Vec<VertexId>>,
    /// For every vertex, the ids of the RR sets containing it.
    vertex_to_sets: Vec<Vec<u32>>,
    /// Whether each RR set is already covered by a committed seed.
    covered: Vec<bool>,
    /// Number of *uncovered* RR sets containing each vertex (the coverage
    /// counts greedy maximum coverage needs).
    cover_count: Vec<u32>,
    committed: Vec<VertexId>,
    num_vertices: usize,
    theta: u64,
    cost: TraversalCost,
    sample_size: SampleSize,
}

impl RisEstimator {
    /// Build step: draw `θ ≥ 1` IC RR sets with the run's two generator kinds
    /// (target choice and edge trials both come from `rng`, drawn in the order
    /// described in Section 4.1).
    ///
    /// # Panics
    ///
    /// Panics if `theta == 0` or the graph is empty.
    pub fn new<R: Rng32>(graph: &InfluenceGraph, theta: u64, rng: &mut R) -> Self {
        Self::under(Ic, graph, theta, rng)
    }

    /// Build step driven by the batched sampler: `θ` IC RR sets drawn from
    /// per-batch PRNG streams derived from `base_seed`, optionally across
    /// worker threads. For a fixed `base_seed` the resulting estimator — and
    /// therefore every seed set greedy selects from it — is identical on the
    /// sequential and parallel [`Backend`]s.
    ///
    /// # Panics
    ///
    /// Panics if `theta == 0` or the graph is empty.
    pub fn with_backend(
        graph: &InfluenceGraph,
        theta: u64,
        base_seed: u64,
        backend: Backend,
    ) -> Self {
        Self::under_backend(Ic, graph, theta, base_seed, backend)
    }

    /// [`RisEstimator::new`] under `model`.
    ///
    /// # Panics
    ///
    /// Panics if `theta == 0` or the graph is empty.
    pub fn under<D: Diffusion, R: Rng32>(
        model: D,
        graph: &InfluenceGraph,
        theta: u64,
        rng: &mut R,
    ) -> Self {
        Self::build::<D>(graph, theta, || {
            sample_rr_sets_stream(model, graph, theta, rng)
        })
    }

    /// [`RisEstimator::with_backend`] under `model`.
    ///
    /// # Panics
    ///
    /// Panics if `theta == 0` or the graph is empty.
    pub fn under_backend<D: Diffusion>(
        model: D,
        graph: &InfluenceGraph,
        theta: u64,
        base_seed: u64,
        backend: Backend,
    ) -> Self {
        Self::build::<D>(graph, theta, || {
            sample_rr_sets_batched(model, graph, theta, base_seed, backend)
        })
    }

    /// Sample the RR sets and index them into the coverage structures greedy
    /// maximum coverage needs.
    fn build<D: Diffusion>(
        graph: &InfluenceGraph,
        theta: u64,
        sample: impl FnOnce() -> Vec<RrSet>,
    ) -> Self {
        let name = D::RIS_NAME;
        assert!(theta >= 1, "{name} needs at least one RR set");
        let n = graph.num_vertices();
        assert!(n > 0, "{name} needs a non-empty graph");
        let generated = sample();
        let mut rr_sets: Vec<Vec<VertexId>> = Vec::with_capacity(generated.len());
        let mut vertex_to_sets: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut cover_count = vec![0u32; n];
        let mut cost = TraversalCost::zero();
        let mut sample_size = SampleSize::zero();
        for (set_id, rr) in generated.into_iter().enumerate() {
            cost.vertices += rr.vertices.len() as u64;
            cost.edges += rr.edges_examined;
            sample_size.vertices += rr.vertices.len() as u64;
            for &v in &rr.vertices {
                vertex_to_sets[v as usize].push(set_id as u32);
                cover_count[v as usize] += 1;
            }
            rr_sets.push(rr.vertices);
        }
        Self {
            name,
            covered: vec![false; rr_sets.len()],
            rr_sets,
            vertex_to_sets,
            cover_count,
            committed: Vec::new(),
            num_vertices: n,
            theta,
            cost,
            sample_size,
        }
    }

    /// The seeds committed so far.
    #[must_use]
    pub fn current_seeds(&self) -> &[VertexId] {
        &self.committed
    }

    /// The generated RR sets (exposed for the oracle and diagnostics).
    #[must_use]
    pub fn rr_sets(&self) -> &[Vec<VertexId>] {
        &self.rr_sets
    }

    /// `Σ_R |R|`: total stored vertices, i.e. `θ · (empirical EPT)`.
    #[must_use]
    pub fn total_rr_size(&self) -> u64 {
        self.sample_size.vertices
    }

    /// The empirical average RR-set size (the paper's EPT estimate).
    #[must_use]
    pub fn empirical_ept(&self) -> f64 {
        self.total_rr_size() as f64 / self.theta as f64
    }

    /// Estimate the influence spread of an arbitrary seed set:
    /// `n · |{R : R ∩ S ≠ ∅}| / θ` over *all* RR sets (ignoring Update state).
    #[must_use]
    pub fn estimate_set(&self, seeds: &[VertexId]) -> f64 {
        let mut hit = vec![false; self.rr_sets.len()];
        for &s in seeds {
            for &set_id in &self.vertex_to_sets[s as usize] {
                hit[set_id as usize] = true;
            }
        }
        let count = hit.iter().filter(|&&h| h).count();
        self.num_vertices as f64 * count as f64 / self.theta as f64
    }
}

impl InfluenceEstimator for RisEstimator {
    fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    fn estimate(&mut self, candidate: VertexId) -> f64 {
        // Marginal coverage: n · (# uncovered RR sets containing v) / θ.
        self.num_vertices as f64 * f64::from(self.cover_count[candidate as usize])
            / self.theta as f64
    }

    fn estimate_with_pending(&mut self, candidate: VertexId, pending: &[VertexId]) -> Option<f64> {
        // Count uncovered RR sets that contain the candidate but none of the
        // pending seeds: exactly the marginal coverage the candidate would
        // have after the pending seeds are committed. RR sets are small, so a
        // linear membership scan per set is cheap.
        let mut count = 0u32;
        for &set_id in &self.vertex_to_sets[candidate as usize] {
            if self.covered[set_id as usize] {
                continue;
            }
            let members = &self.rr_sets[set_id as usize];
            if pending.iter().any(|p| members.contains(p)) {
                continue;
            }
            count += 1;
        }
        Some(self.num_vertices as f64 * f64::from(count) / self.theta as f64)
    }

    fn update(&mut self, chosen: VertexId) {
        self.committed.push(chosen);
        // Remove every RR set containing the chosen seed: mark it covered and
        // decrement the counts of all its members.
        let set_ids = std::mem::take(&mut self.vertex_to_sets[chosen as usize]);
        for &set_id in &set_ids {
            if self.covered[set_id as usize] {
                continue;
            }
            self.covered[set_id as usize] = true;
            for &member in &self.rr_sets[set_id as usize] {
                let count = &mut self.cover_count[member as usize];
                *count = count.saturating_sub(1);
            }
        }
        self.vertex_to_sets[chosen as usize] = set_ids;
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
        self.theta
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
    // are valid LT weights and LT RR sets follow the IC distribution.

    fn star(prob: f64) -> InfluenceGraph {
        let edges: Vec<_> = (1..5u32).map(|v| (0, v)).collect();
        InfluenceGraph::new(DiGraph::from_edges(5, &edges), vec![prob; 4])
    }

    fn path(prob: f64, len: usize) -> InfluenceGraph {
        let edges: Vec<_> = (0..len as u32 - 1).map(|i| (i, i + 1)).collect();
        InfluenceGraph::new(DiGraph::from_edges(len, &edges), vec![prob; len - 1])
    }

    #[test]
    fn rr_set_always_contains_its_target() {
        let ig = star(0.3);
        let mut rng = Pcg32::seed_from_u64(1);
        for _ in 0..50 {
            let rr = generate_rr_set(&ig, &mut rng);
            assert!(rr.vertices.contains(&rr.target));
        }
    }

    #[test]
    fn rr_sets_on_deterministic_path_are_prefixes() {
        // On 0 -> 1 -> 2 -> 3 with probability 1, the RR set of target z is
        // {0, 1, …, z}, each vertex once.
        fn check<D: Diffusion>(model: D) {
            let ig = path(1.0, 4);
            let mut scratch = RrScratch::for_graph(&ig);
            let mut rng = Pcg32::seed_from_u64(2);
            for _ in 0..20 {
                let rr = model.sample_rr_set(&ig, &mut scratch, &mut rng);
                let expected: Vec<VertexId> = (0..=rr.target).collect();
                let mut got = rr.vertices.clone();
                got.sort_unstable();
                assert_eq!(got, expected);
            }
        }
        check(Ic);
        check(Lt);
    }

    #[test]
    fn rr_set_weight_counts_in_edges_of_members() {
        // Deterministic path, target 3: members {0,1,2,3}, in-degree sum = 3.
        let ig = path(1.0, 4);
        let rr =
            RrScratch::for_graph(&ig).generate_for_target(&ig, 3, &mut Pcg32::seed_from_u64(3));
        assert_eq!(rr.vertices.len(), 4);
        assert_eq!(rr.edges_examined, 3);
    }

    #[test]
    fn a_reused_scratch_draws_what_a_fresh_one_draws() {
        // Hub-heavy: vertex 0 is an in- and out-neighbour of every other
        // vertex, plus a ring, so sets are large and overlap in the hub's
        // bitmap word. `prob` maps a head's in-degree to its in-edges'
        // probability; 1/d is a valid LT weight.
        fn hub(prob: impl Fn(usize) -> f64) -> InfluenceGraph {
            let n = 300u32;
            let mut edges: Vec<(u32, u32)> = (1..n).flat_map(|v| [(0, v), (v, 0)]).collect();
            edges.extend((1..n).map(|v| (v, v % (n - 1) + 1)));
            let graph = DiGraph::from_edges(n as usize, &edges);
            let probabilities = edges
                .iter()
                .map(|&(_, v)| prob(graph.in_degree(v)))
                .collect();
            InfluenceGraph::new(graph, probabilities)
        }
        fn check<D: Diffusion>(model: D, ig: &InfluenceGraph) {
            let mut reused = RrScratch::for_graph(ig);
            let mut total = 0;
            for set in 0..3_000u64 {
                let stream = || Pcg32::seed_from_u64(set);
                let got = model.sample_rr_set(ig, &mut reused, &mut stream());
                let fresh = model.sample_rr_set(ig, &mut RrScratch::for_graph(ig), &mut stream());
                assert_eq!(got, fresh, "{}: set {set}", D::RIS_NAME);
                total += got.vertices.len();
            }
            assert!(total > 3_000 * 3, "{}: sets too small to test", D::RIS_NAME);
        }
        check(Ic, &hub(|_| 0.2));
        check(Lt, &hub(|d| 1.0 / d as f64));
    }

    #[test]
    fn estimate_is_unbiased_for_singletons() {
        // On the 0.5-star, Inf(0) = 1 + 4·0.5 = 3 and Inf(leaf) = 1.
        fn check<D: Diffusion>(model: D) {
            let ig = star(0.5);
            let mut rng = Pcg32::seed_from_u64(4);
            let mut est = RisEstimator::under(model, &ig, 40_000, &mut rng);
            let name = est.approach_name();
            let hub = est.estimate(0);
            let leaf = est.estimate(2);
            assert!((hub - 3.0).abs() < 0.1, "{name}: hub estimate {hub}");
            assert!((leaf - 1.0).abs() < 0.1, "{name}: leaf estimate {leaf}");
        }
        check(Ic);
        check(Lt);
    }

    #[test]
    fn update_removes_covered_sets() {
        fn check<D: Diffusion>(model: D) {
            let ig = star(1.0);
            let mut rng = Pcg32::seed_from_u64(5);
            let mut est = RisEstimator::under(model, &ig, 1_000, &mut rng);
            // With probability 1, vertex 0 is in every RR set, so after
            // selecting it every marginal estimate drops to 0.
            assert!((est.estimate(0) - 5.0).abs() < 1e-9);
            est.update(0);
            for v in 0..5u32 {
                assert_eq!(est.estimate(v), 0.0, "marginal of {v} should vanish");
            }
            assert_eq!(est.current_seeds(), &[0]);
        }
        check(Ic);
        check(Lt);
    }

    #[test]
    fn traversal_cost_matches_stored_vertices_plus_edges() {
        fn check<D: Diffusion>(model: D, name: &str) {
            let ig = path(1.0, 4);
            let mut rng = Pcg32::seed_from_u64(6);
            let est = RisEstimator::under(model, &ig, 100, &mut rng);
            assert_eq!(est.traversal_cost().vertices, est.sample_size().vertices);
            assert!(est.traversal_cost().edges >= est.traversal_cost().vertices - 100);
            assert_eq!(est.sample_size().edges, 0, "RIS stores no edges");
            assert_eq!(est.sample_number(), 100);
            assert_eq!(est.approach_name(), name);
            assert!(est.is_submodular());
        }
        check(Ic, "RIS");
        check(Lt, "LT-RIS");
    }

    #[test]
    fn empirical_ept_matches_theory_on_path() {
        // On the deterministic 4-path, |R| for target z is z + 1, so
        // EPT = E[|R|] = (1 + 2 + 3 + 4) / 4 = 2.5.
        let ig = path(1.0, 4);
        let mut rng = Pcg32::seed_from_u64(7);
        let est = RisEstimator::new(&ig, 20_000, &mut rng);
        assert!(
            (est.empirical_ept() - 2.5).abs() < 0.05,
            "EPT {}",
            est.empirical_ept()
        );
    }

    #[test]
    fn greedy_with_ris_picks_the_hub() {
        fn check<D: Diffusion>(model: D) {
            let ig = star(0.9);
            let mut rng = Pcg32::seed_from_u64(8);
            let mut est = RisEstimator::under(model, &ig, 2_000, &mut rng);
            let result = greedy_select(&mut est, 1, &mut Pcg32::seed_from_u64(9));
            assert_eq!(result.selection_order, vec![0], "{}", est.approach_name());
        }
        check(Ic);
        check(Lt);
    }

    #[test]
    fn celf_matches_greedy_for_ris() {
        let ig = star(0.5);
        for seed in 0..5u64 {
            let mut a = RisEstimator::new(&ig, 500, &mut Pcg32::seed_from_u64(seed));
            let mut b = RisEstimator::new(&ig, 500, &mut Pcg32::seed_from_u64(seed));
            let g = greedy_select(&mut a, 2, &mut Pcg32::seed_from_u64(seed + 50));
            let c = celf_select(&mut b, 2, &mut Pcg32::seed_from_u64(seed + 50));
            assert_eq!(g.seed_set(), c.seed_set(), "seed {seed}");
        }
    }

    #[test]
    fn estimate_set_covers_unions() {
        fn check<D: Diffusion>(model: D) {
            let ig = path(1.0, 3);
            let mut rng = Pcg32::seed_from_u64(10);
            let est = RisEstimator::under(model, &ig, 5_000, &mut rng);
            // Vertex 0 reaches everything, so its singleton already
            // intersects all RR sets: estimate ≈ n = 3.
            assert!((est.estimate_set(&[0]) - 3.0).abs() < 1e-9);
            // Vertex 2 only reaches itself: it intersects only RR sets whose
            // target is 2, about a third of them.
            let tail = est.estimate_set(&[2]);
            assert!((tail - 1.0).abs() < 0.1, "tail estimate {tail}");
            assert!((est.estimate_set(&[0, 2]) - 3.0).abs() < 1e-9);
        }
        check(Ic);
        check(Lt);
    }

    #[test]
    #[should_panic(expected = "LT-RIS needs at least one RR set")]
    fn zero_theta_panics() {
        let ig = star(0.5);
        let ic =
            std::panic::catch_unwind(|| RisEstimator::new(&ig, 0, &mut Pcg32::seed_from_u64(11)));
        assert!(ic.is_err(), "IC RIS must refuse θ = 0 too");
        let _ = RisEstimator::under(Lt, &ig, 0, &mut Pcg32::seed_from_u64(11));
    }
}
