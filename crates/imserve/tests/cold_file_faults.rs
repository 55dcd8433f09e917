//! A tiered pool's cold lists are read from the served `*.imx` on demand, so
//! a fault in that file surfaces inside a request. Whatever that request
//! gets back, the fault must stay with it: the reactor's loop thread never
//! reads a cold list, and every other connection keeps its answers.

use std::sync::Arc;
use std::time::{Duration, Instant};

use im_core::PoolLayout;
use imserve::engine::QueryEngine;
use imserve::index::{build_dataset_index, IndexArtifact};
use imserve::protocol::{Request, Response};
use imserve::service::InfluenceService;
use imserve::{reactor, ReactorConfig, RemoteService};

/// A vertex of Karate whose posting list (about 1 000 ids at pool 20 000)
/// encodes below the hot-list threshold, so it lives in the cold region.
const COLD_VERTEX: u32 = 10;

#[test]
fn a_truncated_cold_file_leaves_other_connections_answered() {
    let mut artifact = build_dataset_index("karate", "uc0.1", 20_000, 7).unwrap();
    artifact.convert_pool_layout(PoolLayout::Tiered);
    let path = std::env::temp_dir().join(format!("imserve-cold-fault-{}.imx", std::process::id()));
    artifact.save(&path).unwrap();
    let engine = Arc::new(
        QueryEngine::builder(IndexArtifact::load(&path).unwrap())
            .build()
            .unwrap(),
    );
    let info = engine.info();
    let cold_reads = || engine.state().dynamic.oracle().pool().cold_reads().0;
    let handle = reactor::spawn(
        "127.0.0.1:0",
        Arc::clone(&engine),
        &ReactorConfig::default(),
    )
    .unwrap();

    let mut a = RemoteService::connect(handle.addr()).unwrap();
    let before = cold_reads();
    let intact = a.estimate(&[COLD_VERTEX]).unwrap();
    assert!(intact.covered > 0);
    assert!(
        cold_reads() > before,
        "vertex {COLD_VERTEX}'s posting list is cold"
    );

    std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .unwrap()
        .set_len(1_000)
        .unwrap();
    // The cold read now fails. The reply may be an error or never come; only
    // the wait for it is bounded.
    a.set_deadline(Some(Duration::from_secs(2))).unwrap();
    let asked = Instant::now();
    let _ = a.estimate(&[COLD_VERTEX]);
    assert!(asked.elapsed() < Duration::from_secs(10));

    let mut b = RemoteService::connect(handle.addr()).expect("the front end still accepts");
    assert!(matches!(b.call(&Request::Ping), Ok(Response::Pong)));
    assert_eq!(b.info().unwrap(), info);

    handle.shutdown();
    let _ = std::fs::remove_file(&path);
}
