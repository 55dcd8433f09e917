//! Counted-work envelopes: what a request costs, asserted as counts that do
//! not depend on the machine's speed.

use std::net::SocketAddr;
use std::sync::Arc;

use im_study::im_core::{ListRef, PoolLayout, TieredConfig, ROUND_CANDIDATES};
use im_study::imexp::fixture::ScaleFixture;
use im_study::imserve::client::RemoteService;
use im_study::imserve::engine::QueryEngine;
use im_study::imserve::index::IndexArtifact;
use im_study::imserve::service::{GainVector, InfluenceService};
use im_study::imserve::shard::ShardedService;
use im_study::imserve::{reactor, server, TopKAlgorithm};
use im_study::prelude::*;

/// Bytes the shard sent for the same `Gains(&[])` on the same fixture when
/// the reply carried the vector as 3 000 JSON integers (measured on the build
/// before gain vectors were packed).
const JSON_REPLY_BYTES: u64 = 9_101;

/// Bytes of `gains` as unsigned LEB128 varints.
fn varint_bytes(gains: &[u64]) -> u64 {
    gains
        .iter()
        .map(|&g| u64::from((64 - g.leading_zeros()).max(1).div_ceil(7)))
        .sum()
}

/// One remote `Gains(&[])` on a 3 000-vertex fixture whose singleton counts
/// are mostly two-digit: the reply costs the packed varints in base64 plus
/// one frame's overhead, under half of what the integer array cost, and the
/// same on both front ends.
#[test]
fn a_remote_gains_reply_ships_packed_varints() {
    let fixture = ScaleFixture::new(3_000, 4.0, 7);
    let graph = fixture.influence_graph(ProbabilityModel::uc01());
    let artifact = IndexArtifact::build("fixture", "uc0.1", graph, 40_000, 7);
    let engine = Arc::new(QueryEngine::builder(artifact).build().unwrap());
    let reactor = reactor::spawn("127.0.0.1:0", engine.clone(), &Default::default()).unwrap();
    let threaded = server::spawn("127.0.0.1:0", engine.clone(), &Default::default()).unwrap();

    let gains_over = |addr: SocketAddr| -> (u64, GainVector) {
        let mut remote = RemoteService::connect(addr).unwrap();
        let before = engine.obs().wire_bytes_sent.get();
        let gains = remote.gains(&[]).unwrap();
        (engine.obs().wire_bytes_sent.get() - before, gains)
    };
    let (sent, gains) = gains_over(reactor.addr());
    assert_eq!(gains_over(threaded.addr()), (sent, gains.clone()));
    assert_eq!(gains.gains.len(), 3_000);

    let packed = varint_bytes(&gains.gains);
    assert!(
        sent <= (4 * packed).div_ceil(3) + 128,
        "{sent} bytes sent for {packed} varint bytes"
    );
    assert!(
        2 * sent < JSON_REPLY_BYTES,
        "{sent} bytes sent; the integer array cost {JSON_REPLY_BYTES}"
    );
    reactor.shutdown();
    threaded.shutdown();
}

/// `(loop, worker, completion wake-ups)` on one reactor so far.
fn hand_offs(engine: &QueryEngine) -> [u64; 3] {
    let obs = engine.obs();
    [
        obs.reactor_answered_loop.get(),
        obs.reactor_answered_worker.get(),
        obs.reactor_wakeups_completion.get(),
    ]
}

/// Hand-offs per request: a routed `Estimate` is one line answered on each
/// shard's loop, handed to no worker and costing no completion wake-up; a
/// routed `TopK(k)` hands each shard its epoch check and one pass, and
/// probes the later rounds' candidates on the loop.
#[test]
fn a_routed_estimate_costs_each_shard_no_hand_off() {
    const SHARDS: usize = 2;
    let fixture = ScaleFixture::new(3_000, 4.0, 7);
    let graph = fixture.influence_graph(ProbabilityModel::uc01());
    let engines: Vec<Arc<QueryEngine>> = (0..SHARDS)
        .map(|i| {
            let artifact =
                IndexArtifact::build_shard("fixture", "uc0.1", graph.clone(), 8_000, 7, i, SHARDS);
            Arc::new(QueryEngine::builder(artifact).build().unwrap())
        })
        .collect();
    let servers: Vec<_> = (engines.iter())
        .map(|e| reactor::spawn("127.0.0.1:0", e.clone(), &Default::default()).unwrap())
        .collect();
    let shards = servers
        .iter()
        .map(|s| RemoteService::connect(s.addr()).unwrap());
    let mut router = ShardedService::new(shards.collect()).unwrap();
    let counts = || engines.iter().map(|e| hand_offs(e)).collect::<Vec<_>>();

    let before = counts();
    for i in 0..50u32 {
        router.estimate(&[i, 2_999 - i, 1_500]).unwrap();
    }
    for (shard, (b, a)) in before.iter().zip(counts()).enumerate() {
        let moved = |i: usize| a[i] - b[i];
        // The router's construction-time `Stats` was a worker's: its wake
        // byte may end one wait after `before` was read, never more.
        assert!(
            moved(0) == 50 && moved(1) == 0 && moved(2) <= 1,
            "shard {shard}: (loop, worker, completion) moved {b:?} -> {a:?}"
        );
    }

    // Each whole-pool pass is one worker request per shard, and the router
    // counts its pass fan-outs; the epoch `Stats` is the only other one.
    // Here the first round's lists settle it and every later round settles
    // from the candidates carried over, probed on the loop: 2 per shard for
    // any `k`, where a pass per round cost `k + 1`.
    for k in [3, 4] {
        let obs = router.obs().clone();
        let (full, passes) = (obs.router_rounds_full.get(), obs.router_shard_passes.get());
        let before = counts();
        router.top_k(k, TopKAlgorithm::Greedy).unwrap();
        let passes = obs.router_shard_passes.get() - passes;
        assert_eq!(
            obs.router_rounds_full.get(),
            full,
            "TopK({k}) summed full vectors"
        );
        for (shard, (b, a)) in before.iter().zip(counts()).enumerate() {
            let worker = a[1] - b[1];
            assert!(
                worker == 1 + passes && worker == 2,
                "TopK({k}), shard {shard}: {b:?} -> {a:?} after {passes} passes"
            );
        }
    }
    drop(router);
    for server in servers {
        server.shutdown();
    }
}

/// Cold reads per greedy `TopK`: one whole-pool pass, then the later rounds
/// settled from the pass's candidate list by point reads. A `TopK(k=4)` on a
/// file-backed tiered pool may move `Pool::cold_reads` by one pass's sweep
/// windows plus `3·64 + 4` point reads — in bytes, one pass's region plus
/// three reads of the 64 longest cold lists and one of the 4 longest —
/// where a pass per round costs four passes.
#[test]
fn a_greedy_top_k_on_a_tiered_pool_costs_one_pass_and_point_reads() {
    let fixture = ScaleFixture::new(100_000, 4.0, 7);
    let graph = fixture.influence_graph(ProbabilityModel::InDegreeWeighted);
    let mut artifact = IndexArtifact::build("fixture", "iwc", graph, 10_000, 7);
    artifact.convert_pool_layout(PoolLayout::Tiered);
    let path =
        std::env::temp_dir().join(format!("work-envelope-tiered-{}.imx", std::process::id()));
    artifact.save(&path).unwrap();
    let loaded = IndexArtifact::load(&path);
    std::fs::remove_file(&path).ok();
    let engine = QueryEngine::builder(loaded.unwrap()).build().unwrap();
    let cold_reads = || engine.state().dynamic.oracle().pool().cold_reads();

    let k = 4;
    let point_reads = (k - 1) * ROUND_CANDIDATES + k;
    // Encoded sizes of the cold lists, longest first: a list of at least
    // the hot threshold is pinned resident and costs no read.
    let hot = TieredConfig::default().hot_list_bytes;
    let mut cold_lists = Vec::new();
    engine
        .state()
        .dynamic
        .oracle()
        .pool()
        .sweep_postings(|_, list| match list {
            ListRef::Encoded(bytes) if bytes.len() < hot => cold_lists.push(bytes.len() as u64),
            _ => {}
        });
    cold_lists.sort_unstable_by(|a, b| b.cmp(a));
    let longest = |count: usize| cold_lists.iter().take(count).sum::<u64>();
    // Each later round re-reads at most 64 candidates; each pick reads its
    // own list once.
    let point_read_bytes = (k - 1) as u64 * longest(ROUND_CANDIDATES) + longest(k);

    let before = cold_reads();
    engine.gains(&[]).unwrap();
    let after = cold_reads();
    let pass = (after.0 - before.0, after.1 - before.1);
    assert!(
        3 * pass.1 > point_read_bytes,
        "the fixture's region ({} bytes) must outweigh the point reads' {point_read_bytes}",
        pass.1
    );

    let before = cold_reads();
    let selection = engine.top_k(k, TopKAlgorithm::Greedy).unwrap();
    let after = cold_reads();
    let top_k = (after.0 - before.0, after.1 - before.1);
    assert_eq!(selection.seeds.len(), k);
    assert!(
        top_k.0 <= pass.0 + point_reads as u64 && top_k.1 <= pass.1 + point_read_bytes,
        "TopK({k}) read {top_k:?} (reads, bytes); one pass reads {pass:?} and \
         {point_reads} point reads at most {point_read_bytes} bytes"
    );
}

/// Resident bytes under writes: a compressed pool folds each batch's overlay
/// back into its encoded form, so after 20 batches it holds what a fresh
/// encode of the same lists would, not the overlay's materialized lists.
#[test]
fn a_compressed_pool_stays_the_size_of_a_fresh_encode_under_writes() {
    let fixture = ScaleFixture::new(3_000, 4.0, 7);
    let graph = fixture.influence_graph(ProbabilityModel::uc01());
    let edges: Vec<(u32, u32)> = (0..3_000u32)
        .filter_map(|u| graph.graph().out_neighbors(u).first().map(|&v| (u, v)))
        .collect();
    let mut artifact = IndexArtifact::build("fixture", "uc0.1", graph, 40_000, 7);
    artifact.convert_pool_layout(PoolLayout::Compressed);
    let engine = QueryEngine::builder(artifact).build().unwrap();
    let fresh_encode = || {
        let state = engine.state();
        let pool = state.dynamic.oracle().pool();
        assert_eq!(pool.layout(), PoolLayout::Compressed);
        pool.convert(PoolLayout::Raw)
            .convert(PoolLayout::Compressed)
            .resident_bytes() as f64
    };
    let initial = engine.stats().pool_resident_bytes as f64;
    assert_eq!(initial, fresh_encode());
    for (batch, chunk) in edges.chunks(8).take(20).enumerate() {
        let deltas: Vec<GraphDelta> = chunk
            .iter()
            .map(|&(source, target)| GraphDelta::SetProbability {
                source,
                target,
                probability: 0.9 - 0.04 * batch as f64,
            })
            .collect();
        engine.mutate_batch(&deltas).unwrap();
    }
    assert_eq!(engine.epoch(), 160);
    let resident = engine.stats().pool_resident_bytes as f64;
    let fresh = fresh_encode();
    assert!(
        (resident - fresh).abs() <= 0.01 * fresh,
        "{resident} bytes resident after 20 batches; a fresh encode is {fresh} \
         (before the batches: {initial})"
    );
}
