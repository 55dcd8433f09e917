//! Property test of the shard-merge soundness contract: for random small
//! graphs, random pool sizes and shard counts, and random interleaved
//! mutation batches, a [`ShardedService`] over N pool shards answers
//! `estimate` and `top_k` (both algorithms) bit-identically to a single-pool
//! [`LocalService`] built at the same derived seeds — on graphs small enough
//! that every shard lists every vertex each round, and on graphs past the
//! router's 64-entry candidate lists, where small pools make ties at the cut
//! (and so both the threshold merge and its full-vector fallback) routine.

use std::sync::Arc;

use imdyn::workload;
use imgraph::{DiGraph, InfluenceGraph, MutableInfluenceGraph};
use imrand::Pcg32;
use imserve::engine::QueryEngine;
use imserve::index::IndexArtifact;
use imserve::protocol::TopKAlgorithm;
use imserve::service::{InfluenceService, LocalService};
use imserve::shard::ShardedService;
use proptest::prelude::*;
use proptest::TestCaseError;

/// Strategy: a random influence graph with its vertex count drawn from
/// `vertices` and fewer than `max_edges` edges (parallel edges and
/// self-loops included — both are legal).
fn arb_influence_graph(
    vertices: std::ops::Range<usize>,
    max_edges: usize,
) -> impl Strategy<Value = InfluenceGraph> {
    vertices.prop_flat_map(move |n| {
        let edge = (0..n as u32, 0..n as u32);
        proptest::collection::vec(edge, 0..max_edges).prop_flat_map(move |edges| {
            let len = edges.len();
            (
                Just(n),
                Just(edges),
                proptest::collection::vec(0.05f64..1.0, len),
            )
                .prop_map(|(n, edges, probs)| {
                    InfluenceGraph::new(DiGraph::from_edges(n, &edges), probs)
                })
        })
    })
}

fn local_over(artifact: IndexArtifact) -> LocalService {
    LocalService::new(Arc::new(QueryEngine::builder(artifact).build().unwrap()))
}

fn assert_same_answers(
    single: &mut LocalService,
    sharded: &mut ShardedService<LocalService>,
    n: usize,
) -> Result<(), TestCaseError> {
    for seeds in [vec![0u32], vec![(n - 1) as u32], vec![0, (n / 2) as u32]] {
        let a = single.estimate(&seeds).unwrap();
        let b = sharded.estimate(&seeds).unwrap();
        prop_assert_eq!(a.spread.to_bits(), b.spread.to_bits(), "seeds {:?}", seeds);
        prop_assert_eq!(a.covered, b.covered);
        prop_assert_eq!(a.pool, b.pool);
    }
    for algorithm in [TopKAlgorithm::Greedy, TopKAlgorithm::SingletonRank] {
        for k in 1..=3usize {
            let a = single.top_k(k, algorithm).unwrap();
            let b = sharded.top_k(k, algorithm).unwrap();
            prop_assert_eq!(&a.seeds, &b.seeds, "k {} algorithm {}", k, algorithm);
            prop_assert_eq!(a.spread.to_bits(), b.spread.to_bits());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn sharded_equals_single_pool_under_interleaved_mutation(
        graph in arb_influence_graph(2..10, 20),
        pool in 4usize..48,
        shards in 1usize..4,
        base_seed in 0u64..1_000,
        workload_seed in 0u64..1_000,
        batches in proptest::collection::vec(1usize..4, 0..4),
    ) {
        let shards = shards.min(pool);
        let n = graph.num_vertices();
        let mut single = local_over(IndexArtifact::build(
            "prop", "uc", graph.clone(), pool, base_seed,
        ));
        let shard_backends: Vec<LocalService> = (0..shards)
            .map(|i| {
                local_over(IndexArtifact::build_shard(
                    "prop", "uc", graph.clone(), pool, base_seed, i, shards,
                ))
            })
            .collect();
        let mut sharded = ShardedService::new(shard_backends).unwrap();

        assert_same_answers(&mut single, &mut sharded, n)?;

        // Interleave random mutation batches with the query probes; the
        // batches are derived from the *current* graph so they stay valid.
        let mut rng = Pcg32::seed_from_u64(workload_seed);
        let mut mutable = MutableInfluenceGraph::from_graph(&graph);
        let mut epoch = 0u64;
        for batch_len in batches {
            let deltas = workload::random_deltas(&mutable, batch_len, &mut rng);
            for delta in &deltas {
                mutable.apply(delta).unwrap();
            }
            let a = single.mutate_batch(&deltas).unwrap();
            let b = sharded.mutate_batch(&deltas).unwrap();
            epoch += deltas.len() as u64;
            prop_assert_eq!(a.epoch, epoch);
            prop_assert_eq!(b.epoch, epoch);
            prop_assert_eq!(a.applied, deltas.len());
            prop_assert_eq!(b.applied, deltas.len());
            assert_same_answers(&mut single, &mut sharded, n)?;
        }

        // Epoch reporting stays in lockstep across every shard.
        let stats = sharded.stats().unwrap();
        prop_assert_eq!(stats.epoch, epoch);
        for report in &stats.shards {
            prop_assert_eq!(report.epoch, epoch);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn sharded_equals_single_pool_when_candidate_lists_truncate(
        graph in arb_influence_graph(65..160, 120),
        pool in 16usize..200,
        shards in 1usize..4,
        base_seed in 0u64..1_000,
        workload_seed in 0u64..1_000,
    ) {
        let n = graph.num_vertices();
        let mut single = local_over(IndexArtifact::build(
            "prop", "uc", graph.clone(), pool, base_seed,
        ));
        let shard_backends: Vec<LocalService> = (0..shards)
            .map(|i| {
                local_over(IndexArtifact::build_shard(
                    "prop", "uc", graph.clone(), pool, base_seed, i, shards,
                ))
            })
            .collect();
        let mut sharded = ShardedService::new(shard_backends).unwrap();
        assert_same_answers(&mut single, &mut sharded, n)?;

        let mutable = MutableInfluenceGraph::from_graph(&graph);
        let deltas = workload::random_deltas(&mutable, 3, &mut Pcg32::seed_from_u64(workload_seed));
        single.mutate_batch(&deltas).unwrap();
        sharded.mutate_batch(&deltas).unwrap();
        assert_same_answers(&mut single, &mut sharded, n)?;

        // Every round went one way or the other, and was counted.
        let obs = sharded.obs();
        let rounds = obs.router_rounds_threshold.get() + obs.router_rounds_full.get();
        prop_assert!(rounds >= 2 * (1 + 2 + 3 + 3), "{} rounds counted", rounds);
    }
}
