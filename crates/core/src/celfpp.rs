//! CELF++ lazy greedy (Goyal, Lu, Lakshmanan, WWW 2011).
//!
//! CELF (in [`crate::greedy::celf_select`]) re-evaluates the top heap entry
//! until its cached gain is current. CELF++ squeezes out additional Estimate
//! calls by caching, for every re-evaluated vertex `v`, *two* gains at once:
//!
//! * `mg1` — the marginal gain of `v` with respect to the committed seed set;
//! * `mg2` — the marginal gain of `v` with respect to the committed seeds plus
//!   `prev_best`, the best candidate seen so far in the ongoing iteration.
//!
//! If `prev_best` turns out to be the seed selected in this iteration, `mg2`
//! is already the fresh gain of `v` for the next iteration and no
//! re-evaluation is needed — the entry is *promoted* for free.
//!
//! The second gain requires evaluating a candidate against a seed set that
//! includes a vertex the estimator has not committed yet, which is the
//! optional [`InfluenceEstimator::estimate_with_pending`] capability. RIS
//! (under either diffusion model) supports it cheaply (count uncovered RR sets containing `v` but missing
//! `prev_best`); estimators that return `None` simply never promote, and
//! CELF++ degrades gracefully to CELF. Like CELF, lazy evaluation is only
//! admissible for monotone submodular estimators; for Oneshot the function
//! falls back to plain greedy, matching the caveat of Section 3.3.1.

use imgraph::VertexId;
use imrand::{seq, Rng32};

use crate::estimator::InfluenceEstimator;
use crate::greedy::{greedy_select, GreedyResult};

/// Statistics of a CELF++ run, returned alongside the selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CelfPpStats {
    /// Estimate calls actually issued (including `estimate_with_pending`).
    pub estimate_calls: u64,
    /// Re-evaluations avoided because a cached `mg2` could be promoted.
    pub promotions: u64,
}

/// Run CELF++ and return the selection together with its call statistics.
pub fn celf_pp_select<E: InfluenceEstimator, R: Rng32>(
    estimator: &mut E,
    k: usize,
    rng: &mut R,
) -> (GreedyResult, CelfPpStats) {
    if !estimator.is_submodular() {
        let result = greedy_select(estimator, k, rng);
        let stats = CelfPpStats {
            estimate_calls: result.estimate_calls,
            promotions: 0,
        };
        return (result, stats);
    }
    let n = estimator.num_vertices();
    let order = seq::random_permutation(n, rng);
    let k = k.min(n);
    let mut selection_order = Vec::with_capacity(k);
    let mut estimates = Vec::with_capacity(k);
    let mut stats = CelfPpStats::default();

    use std::cmp::Ordering;
    #[derive(Debug)]
    struct Entry {
        mg1: f64,
        /// Gain with respect to committed seeds + `prev_best`, when available.
        mg2: Option<f64>,
        /// The best candidate of the iteration `mg1` was computed in.
        prev_best: Option<VertexId>,
        rank: u32,
        vertex: VertexId,
        /// Number of committed seeds when `mg1` was computed.
        valid_at: usize,
    }
    impl PartialEq for Entry {
        fn eq(&self, other: &Self) -> bool {
            self.mg1 == other.mg1 && self.rank == other.rank
        }
    }
    impl Eq for Entry {}
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> Ordering {
            self.mg1
                .partial_cmp(&other.mg1)
                .expect("estimates must not be NaN")
                .then(self.rank.cmp(&other.rank))
        }
    }

    // Initial pass: compute mg1 for every vertex and mg2 against the running
    // best candidate where the estimator supports it.
    let mut current_best: Option<(VertexId, f64)> = None;
    let mut heap: std::collections::BinaryHeap<Entry> = std::collections::BinaryHeap::new();
    for (rank, &v) in order.iter().enumerate() {
        let mg1 = estimator.estimate(v);
        stats.estimate_calls += 1;
        let (prev_best, mg2) = match current_best {
            Some((b, _)) => {
                let mg2 = estimator.estimate_with_pending(v, &[b]);
                if mg2.is_some() {
                    stats.estimate_calls += 1;
                }
                (Some(b), mg2)
            }
            None => (None, None),
        };
        match current_best {
            Some((_, best)) if mg1 < best => {}
            _ => current_best = Some((v, mg1)),
        }
        heap.push(Entry {
            mg1,
            mg2,
            prev_best,
            rank: rank as u32,
            vertex: v,
            valid_at: 0,
        });
    }

    let mut last_seed: Option<VertexId> = None;
    while selection_order.len() < k {
        let committed = selection_order.len();
        let Some(mut top) = heap.pop() else { break };
        if top.valid_at == committed {
            estimator.update(top.vertex);
            last_seed = Some(top.vertex);
            selection_order.push(top.vertex);
            estimates.push(top.mg1);
            current_best = None;
            continue;
        }
        let promotable = top.valid_at + 1 == committed
            && top.prev_best.is_some()
            && top.prev_best == last_seed
            && top.mg2.is_some();
        if promotable {
            // mg2 was computed against exactly the seed set we now have.
            top.mg1 = top.mg2.expect("checked above");
            stats.promotions += 1;
        } else {
            top.mg1 = estimator.estimate(top.vertex);
            stats.estimate_calls += 1;
        }
        top.valid_at = committed;
        top.prev_best = current_best.map(|(b, _)| b);
        top.mg2 = match top.prev_best {
            Some(b) => {
                let mg2 = estimator.estimate_with_pending(top.vertex, &[b]);
                if mg2.is_some() {
                    stats.estimate_calls += 1;
                }
                mg2
            }
            None => None,
        };
        match current_best {
            Some((_, best)) if top.mg1 < best => {}
            _ => current_best = Some((top.vertex, top.mg1)),
        }
        heap.push(top);
    }

    (
        GreedyResult {
            selection_order,
            estimates,
            estimate_calls: stats.estimate_calls,
        },
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diffusion::{Diffusion, Ic, Lt};
    use crate::greedy::{celf_select, greedy_select};
    use crate::ris::RisEstimator;
    use crate::snapshot::SnapshotEstimator;
    use imgraph::{DiGraph, InfluenceGraph};
    use imrand::Pcg32;

    fn two_hubs(prob: f64) -> InfluenceGraph {
        let mut edges: Vec<(u32, u32)> = (1..5u32).map(|v| (0, v)).collect();
        edges.extend((6..10u32).map(|v| (5, v)));
        let m = edges.len();
        InfluenceGraph::new(DiGraph::from_edges(10, &edges), vec![prob; m])
    }

    /// Counts plain Estimate calls; `estimate_calls` also counts the pending
    /// evaluations that CELF++ issues and CELF does not.
    struct CountEstimates<E> {
        inner: E,
        calls: u64,
    }

    impl<E: InfluenceEstimator> InfluenceEstimator for CountEstimates<E> {
        fn num_vertices(&self) -> usize {
            self.inner.num_vertices()
        }
        fn estimate(&mut self, candidate: VertexId) -> f64 {
            self.calls += 1;
            self.inner.estimate(candidate)
        }
        fn estimate_with_pending(&mut self, v: VertexId, pending: &[VertexId]) -> Option<f64> {
            self.inner.estimate_with_pending(v, pending)
        }
        fn update(&mut self, chosen: VertexId) {
            self.inner.update(chosen);
        }
        fn traversal_cost(&self) -> crate::TraversalCost {
            self.inner.traversal_cost()
        }
        fn sample_size(&self) -> crate::SampleSize {
            self.inner.sample_size()
        }
        fn approach_name(&self) -> &'static str {
            self.inner.approach_name()
        }
        fn sample_number(&self) -> u64 {
            self.inner.sample_number()
        }
        fn is_submodular(&self) -> bool {
            self.inner.is_submodular()
        }
    }

    #[test]
    fn matches_greedy_selection_for_ris() {
        // Every leaf has one in-edge, so the probabilities are valid LT weights.
        fn check<D: Diffusion>(model: D) {
            let ig = two_hubs(0.6);
            let mut promotions = 0;
            for seed in 0..10u64 {
                let build =
                    || RisEstimator::under(model, &ig, 2_000, &mut Pcg32::seed_from_u64(seed));
                let tie_break = || Pcg32::seed_from_u64(seed + 100);
                let g = greedy_select(&mut build(), 3, &mut tie_break());
                let celf = celf_select(&mut build(), 3, &mut tie_break());
                let mut counted = CountEstimates {
                    inner: build(),
                    calls: 0,
                };
                let (c, stats) = celf_pp_select(&mut counted, 3, &mut tie_break());
                let name = counted.approach_name();
                assert_eq!(g.seed_set(), c.seed_set(), "{name}, seed {seed}");
                assert!(
                    counted.calls <= celf.estimate_calls,
                    "{name}, seed {seed}: CELF++ {} vs CELF {} Estimate calls",
                    counted.calls,
                    celf.estimate_calls
                );
                promotions += stats.promotions;
            }
            assert!(promotions > 0, "{}: no mg2 promotion", D::RIS_NAME);
        }
        check(Ic);
        check(Lt);
    }

    #[test]
    fn matches_greedy_selection_for_snapshot_without_promotion_support() {
        let ig = two_hubs(0.4);
        for seed in 0..5u64 {
            let mut a = SnapshotEstimator::new(&ig, 200, &mut Pcg32::seed_from_u64(seed));
            let mut b = SnapshotEstimator::new(&ig, 200, &mut Pcg32::seed_from_u64(seed));
            let g = greedy_select(&mut a, 2, &mut Pcg32::seed_from_u64(seed + 7));
            let (c, stats) = celf_pp_select(&mut b, 2, &mut Pcg32::seed_from_u64(seed + 7));
            assert_eq!(g.seed_set(), c.seed_set(), "seed {seed}");
            assert_eq!(
                stats.promotions, 0,
                "Snapshot does not expose pending estimates"
            );
        }
    }

    #[test]
    fn ris_pending_estimates_enable_promotions_on_overlapping_hubs() {
        // A star whose hub dominates: after the hub is committed, every leaf's
        // mg2 (computed against the hub) is exactly its new marginal gain, so
        // at least one promotion should fire across a few runs.
        let edges: Vec<(u32, u32)> = (1..8u32).map(|v| (0, v)).collect();
        let ig = InfluenceGraph::new(DiGraph::from_edges(8, &edges), vec![0.9; 7]);
        let mut total_promotions = 0u64;
        for seed in 0..10u64 {
            let mut est = RisEstimator::new(&ig, 1_000, &mut Pcg32::seed_from_u64(seed));
            let (_, stats) = celf_pp_select(&mut est, 3, &mut Pcg32::seed_from_u64(seed + 31));
            total_promotions += stats.promotions;
        }
        assert!(total_promotions > 0, "expected at least one mg2 promotion");
    }

    #[test]
    fn falls_back_to_greedy_for_non_submodular_estimators() {
        let ig = two_hubs(0.5);
        let mut est = crate::OneshotEstimator::new(&ig, 50, Pcg32::seed_from_u64(5));
        let (result, stats) = celf_pp_select(&mut est, 2, &mut Pcg32::seed_from_u64(6));
        assert_eq!(result.len(), 2);
        assert_eq!(stats.promotions, 0);
    }

    #[test]
    fn k_zero_returns_empty() {
        let ig = two_hubs(0.5);
        let mut est = RisEstimator::new(&ig, 100, &mut Pcg32::seed_from_u64(8));
        let (result, _) = celf_pp_select(&mut est, 0, &mut Pcg32::seed_from_u64(9));
        assert!(result.is_empty());
    }

    #[test]
    fn pending_estimate_matches_post_update_estimate_for_ris() {
        let ig = two_hubs(0.7);
        let mut est = RisEstimator::new(&ig, 5_000, &mut Pcg32::seed_from_u64(12));
        // Gain of leaf 1 if hub 0 were committed, computed both ways.
        let pending = est.estimate_with_pending(1, &[0]).unwrap();
        est.update(0);
        let actual = est.estimate(1);
        assert!(
            (pending - actual).abs() < 1e-12,
            "pending {pending} vs actual {actual}"
        );
    }
}
