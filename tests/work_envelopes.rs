//! Counted-work envelopes: what a request costs, asserted as counts that do
//! not depend on the machine's speed.

use std::net::SocketAddr;
use std::sync::Arc;

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
/// routed `TopK(k)` hands each shard its epoch check and at least one pass
/// per round.
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

    let before = counts();
    let k = 3;
    router.top_k(k, TopKAlgorithm::Greedy).unwrap();
    for (shard, (b, a)) in before.iter().zip(counts()).enumerate() {
        assert!(a[1] - b[1] > k as u64, "shard {shard}: {b:?} -> {a:?}");
    }
    drop(router);
    for server in servers {
        server.shutdown();
    }
}
