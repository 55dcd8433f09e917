//! Counted-work envelopes: what a request costs, asserted as counts that do
//! not depend on the machine's speed.

use std::net::SocketAddr;
use std::sync::Arc;

use im_study::imexp::fixture::ScaleFixture;
use im_study::imserve::client::RemoteService;
use im_study::imserve::engine::QueryEngine;
use im_study::imserve::index::IndexArtifact;
use im_study::imserve::service::{GainVector, InfluenceService};
use im_study::imserve::{reactor, server};
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
