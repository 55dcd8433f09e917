//! The seeded operation streams: requests, delta batches and trial seeds.
//!
//! `--seed` drives exactly these generators and nothing else — the program
//! under test receives only the operations they emit, so the same seed
//! replays the same operation sequence on any commit. Every workload is a
//! closed loop over a fixed *cycle* of operations; a stream yields one
//! cycle at a time and the timed loop runs whole cycles until its time is
//! up.

use imgraph::{DiGraph, GraphDelta};
use imrand::{seq::sample_distinct, Pcg32, Rng32};
use imserve::TopKAlgorithm;

/// One operation against an [`imserve::InfluenceService`].
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Estimate(Vec<u32>),
    /// `hot` states what the sequence was built to produce: a cached answer
    /// (`true`) or a fresh selection (`false`). The run checks the engine's
    /// cache counters against it.
    TopK {
        k: usize,
        hot: bool,
    },
    Gains(Vec<u32>),
    Mutate(Vec<GraphDelta>),
}

/// The selection strategy every `TopK` in the benchmark asks for.
pub const TOPK_ALGORITHM: TopKAlgorithm = TopKAlgorithm::Greedy;

/// An independent generator for stream `index` of a run seeded by `seed`.
#[must_use]
pub fn stream_rng(seed: u64, index: u64) -> Pcg32 {
    Pcg32::seed_from_u64(imrand::derive_seed(seed, index))
}

fn estimate(n: usize, size: usize, rng: &mut Pcg32) -> Op {
    Op::Estimate(sample_distinct(n, size.min(n), rng))
}

/// `read_remote`: 16 operations — every 16th a hot `TopK(k=8)`, the rest
/// 1-, 3- and 8-seed `Estimate`s in the issue's `i % 4` / `i % 8` pattern.
#[must_use]
pub fn read_cycle(n: usize, rng: &mut Pcg32) -> Vec<Op> {
    (0..16)
        .map(|i| {
            if i % 16 == 15 {
                Op::TopK {
                    k: READ_TOPK_K,
                    hot: true,
                }
            } else if i % 4 == 3 {
                estimate(n, 3, rng)
            } else if i % 8 == 5 {
                estimate(n, 8, rng)
            } else {
                estimate(n, 1, rng)
            }
        })
        .collect()
}

/// The `k` of `read_remote`'s hot `TopK`.
pub const READ_TOPK_K: usize = 8;

/// The `k` of selection cycle `cycle`: alternates 3 / 4 so a one-entry
/// cache (engine LRU of capacity 1, or the router's single memo) misses
/// every time.
#[must_use]
pub fn cold_k(cycle: u64) -> usize {
    3 + (cycle % 2) as usize
}

/// `select_tiered` / `select_sharded`: one cold `TopK`, one `Gains` given a
/// seeded prefix, then `estimates` `Estimate`s of `seeds_per_estimate` seeds.
#[must_use]
pub fn select_cycle(
    n: usize,
    cycle: u64,
    estimates: usize,
    seeds_per_estimate: usize,
    rng: &mut Pcg32,
) -> Vec<Op> {
    let mut ops = Vec::with_capacity(estimates + 2);
    ops.push(Op::TopK {
        k: cold_k(cycle),
        hot: false,
    });
    ops.push(Op::Gains(sample_distinct(n, 2.min(n), rng)));
    ops.extend((0..estimates).map(|_| estimate(n, seeds_per_estimate, rng)));
    ops
}

/// Deltas per `write_mixed` batch.
pub const BATCH_DELTAS: usize = 8;
/// The `k` of `write_mixed`'s `TopK` pair.
pub const WRITE_TOPK_K: usize = 4;

/// The `write_mixed` delta stream: batches of [`BATCH_DELTAS`] deltas over
/// edges drawn **without replacement**, so no delta ever names an edge an
/// earlier delta removed, re-weighted or inserted, and every batch is valid
/// whatever was applied before it.
///
/// Even batches are eight `SetProbability`; odd batches are six
/// `SetProbability`, one `DeleteEdge` and one `InsertEdge` (structural, so
/// the CSR is re-materialised).
#[derive(Debug)]
pub struct DeltaStream {
    batches: Vec<Vec<GraphDelta>>,
    next: usize,
}

impl DeltaStream {
    /// Pre-draw `batches` batches from `graph` (the base graph; must have no
    /// parallel edges, which the streamed fixture guarantees).
    ///
    /// # Panics
    ///
    /// Panics if the graph is too small to supply that many distinct edges.
    #[must_use]
    pub fn new(graph: &DiGraph, batches: usize, rng: &mut Pcg32) -> Self {
        let n = graph.num_vertices();
        assert!(
            graph.num_edges() >= 4 * batches * BATCH_DELTAS,
            "graph too small for {batches} delta batches"
        );
        let mut used = std::collections::HashSet::new();
        let mut existing_edge = |rng: &mut Pcg32| loop {
            let u = rng.gen_index(n) as u32;
            let out = graph.out_neighbors(u);
            if out.is_empty() {
                continue;
            }
            let v = out[rng.gen_index(out.len())];
            if used.insert((u, v)) {
                return (u, v);
            }
        };
        let probability = |rng: &mut Pcg32| 0.05 + 0.45 * rng.next_f64();
        let mut inserted = std::collections::HashSet::new();
        let mut out = Vec::with_capacity(batches);
        for b in 0..batches {
            let structural = b % 2 == 1;
            let reweights = if structural {
                BATCH_DELTAS - 2
            } else {
                BATCH_DELTAS
            };
            let mut batch = Vec::with_capacity(BATCH_DELTAS);
            for _ in 0..reweights {
                let (source, target) = existing_edge(rng);
                batch.push(GraphDelta::SetProbability {
                    source,
                    target,
                    probability: probability(rng),
                });
            }
            if structural {
                let (source, target) = existing_edge(rng);
                batch.push(GraphDelta::DeleteEdge { source, target });
                let (source, target) = loop {
                    let s = rng.gen_index(n) as u32;
                    let t = rng.gen_index(n) as u32;
                    if s != t && !graph.out_neighbors(s).contains(&t) && inserted.insert((s, t)) {
                        break (s, t);
                    }
                };
                batch.push(GraphDelta::InsertEdge {
                    source,
                    target,
                    probability: probability(rng),
                });
            }
            out.push(batch);
        }
        Self {
            batches: out,
            next: 0,
        }
    }

    /// The next batch, or `None` once the pre-drawn supply is used up.
    pub fn next_batch(&mut self) -> Option<Vec<GraphDelta>> {
        let batch = self.batches.get(self.next).cloned();
        self.next += 1;
        batch
    }

    /// Every pre-drawn batch, in order.
    #[must_use]
    pub fn batches(&self) -> &[Vec<GraphDelta>] {
        &self.batches
    }
}

/// `write_mixed`: one delta batch, the same `TopK` twice (miss, then hit),
/// then `estimates` 3-seed `Estimate`s.
#[must_use]
pub fn write_cycle(n: usize, batch: Vec<GraphDelta>, estimates: usize, rng: &mut Pcg32) -> Vec<Op> {
    let mut ops = Vec::with_capacity(estimates + 3);
    ops.push(Op::Mutate(batch));
    for hot in [false, true] {
        ops.push(Op::TopK {
            k: WRITE_TOPK_K,
            hot,
        });
    }
    ops.extend((0..estimates).map(|_| estimate(n, 3, rng)));
    ops
}

/// The 32 probe requests replayed against the raw reference before timing:
/// estimates of every size the workloads use, two selections and two gain
/// rounds. The probe `k`s (1, 2) differ from every timed `k`, so probing
/// never pre-warms a timed selection.
#[must_use]
pub fn probes(n: usize, rng: &mut Pcg32) -> Vec<Op> {
    let mut ops: Vec<Op> = (0..28)
        .map(|i| estimate(n, [1, 3, 8, 2][i % 4], rng))
        .collect();
    for k in [1, 2] {
        ops.push(Op::TopK { k, hot: false });
    }
    ops.push(Op::Gains(Vec::new()));
    ops.push(Op::Gains(sample_distinct(n, 2.min(n), rng)));
    ops
}

/// FNV-1a over a canonical rendering of an operation sequence — what the
/// determinism test compares.
#[cfg(test)]
#[must_use]
pub fn sequence_hash(ops: &[Op]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for op in ops {
        eat(format!("{op:?};").as_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use imexp::fixture::ScaleFixture;
    use imgraph::MutableInfluenceGraph;
    use imnet::ProbabilityModel;

    fn first_ops(seed: u64) -> Vec<Op> {
        let n = 5_000;
        let mut rng = stream_rng(seed, 0);
        let mut ops = read_cycle(n, &mut rng);
        ops.extend(select_cycle(n, 0, 20, 8, &mut rng));
        ops.extend(select_cycle(n, 1, 10, 3, &mut rng));
        ops.extend(probes(n, &mut rng));
        let graph = ScaleFixture::new(n, 4.0, 7).generate();
        let mut deltas = DeltaStream::new(&graph, 4, &mut rng);
        while let Some(batch) = deltas.next_batch() {
            ops.extend(write_cycle(n, batch, 5, &mut rng));
        }
        ops
    }

    #[test]
    fn same_seed_same_sequence_other_seed_other_sequence() {
        assert_eq!(sequence_hash(&first_ops(7)), sequence_hash(&first_ops(7)));
        assert_ne!(sequence_hash(&first_ops(7)), sequence_hash(&first_ops(8)));
    }

    #[test]
    fn read_cycle_has_the_issue_mix() {
        let ops = read_cycle(1_000, &mut stream_rng(7, 0));
        let sizes: Vec<usize> = ops
            .iter()
            .map(|op| match op {
                Op::Estimate(s) => s.len(),
                Op::TopK { k, .. } => 100 + k,
                _ => unreachable!("read cycles hold only estimates and one TopK"),
            })
            .collect();
        assert_eq!(sizes, [1, 1, 1, 3, 1, 8, 1, 3, 1, 1, 1, 3, 1, 8, 1, 108]);
    }

    #[test]
    fn cold_k_never_repeats_back_to_back() {
        for c in 0..8 {
            assert_ne!(cold_k(c), cold_k(c + 1));
        }
    }

    #[test]
    fn delta_stream_never_names_a_removed_or_reused_edge() {
        let graph = ScaleFixture::new(4_000, 4.0, 7).generate();
        let stream = DeltaStream::new(&graph, 40, &mut stream_rng(11, 3));
        let mut mutable =
            MutableInfluenceGraph::from_graph(&ProbabilityModel::InDegreeWeighted.assign(&graph));
        let mut touched = std::collections::HashSet::new();
        for (b, batch) in stream.batches().iter().enumerate() {
            assert_eq!(batch.len(), BATCH_DELTAS);
            let structural = batch
                .iter()
                .filter(|d| !matches!(d, GraphDelta::SetProbability { .. }))
                .count();
            assert_eq!(structural, if b % 2 == 1 { 2 } else { 0 });
            for delta in batch {
                assert!(
                    touched.insert((delta.source(), delta.head())),
                    "edge {delta} named twice"
                );
            }
            mutable
                .apply_batch(batch)
                .unwrap_or_else(|e| panic!("batch {b} rejected: {e:?}"));
        }
    }
}
