//! A tiered pool's cold lists are read from the served `*.imx` on demand, so
//! a fault in that file surfaces inside a request. Whatever that request
//! gets back, the fault must stay with it: the reactor's loop thread never
//! reads a cold list, a request that panics on a compute worker costs its
//! own reply and not the worker, and every other connection keeps its
//! answers.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use im_core::PoolLayout;
use imserve::engine::QueryEngine;
use imserve::index::{build_dataset_index, IndexArtifact};
use imserve::protocol::{Request, Response};
use imserve::service::{InfluenceService, ServiceError};
use imserve::{reactor, ReactorConfig, RemoteService, TopKAlgorithm};

/// A vertex of Karate whose posting list (about 1 000 ids at pool 20 000)
/// encodes below the hot-list threshold, so it lives in the cold region.
const COLD_VERTEX: u32 = 10;

/// A tiered Karate engine (pool 20 000) served from its own `*.imx`, whose
/// path is returned so the test can damage it.
fn tiered_karate(name: &str) -> (Arc<QueryEngine>, PathBuf) {
    let mut artifact = build_dataset_index("karate", "uc0.1", 20_000, 7).unwrap();
    artifact.convert_pool_layout(PoolLayout::Tiered);
    let path = std::env::temp_dir().join(format!("imserve-{name}-{}.imx", std::process::id()));
    artifact.save(&path).unwrap();
    let engine = QueryEngine::builder(IndexArtifact::load(&path).unwrap())
        .build()
        .unwrap();
    (Arc::new(engine), path)
}

fn truncate(path: &PathBuf) {
    std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .unwrap()
        .set_len(1_000)
        .unwrap();
}

#[test]
fn a_truncated_cold_file_leaves_other_connections_answered() {
    let (engine, path) = tiered_karate("cold-fault");
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

    truncate(&path);
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

/// Twice as many poisoned requests as there are compute workers: were a
/// panic to cost its worker, the pool would be empty after half of them.
#[test]
fn a_panicking_cold_read_costs_its_reply_not_a_worker() {
    let (engine, path) = tiered_karate("worker-panic");
    let info = engine.info();
    let config = ReactorConfig::default();
    let handle = reactor::spawn("127.0.0.1:0", Arc::clone(&engine), &config).unwrap();
    truncate(&path);

    let poisoned = 2 * config.compute_threads;
    let mut a = RemoteService::connect(handle.addr()).unwrap();
    a.set_deadline(Some(Duration::from_secs(5))).unwrap();
    for _ in 0..poisoned {
        match a.estimate(&[COLD_VERTEX]) {
            Err(ServiceError::Backend(message)) => {
                assert!(message.contains("panicked"), "{message}");
            }
            other => panic!("expected a typed Backend error, got {other:?}"),
        }
    }
    assert_eq!(engine.obs().worker_panics.get(), poisoned as u64);
    let events = engine.obs().event_log.entries();
    let logged = events.iter().filter(|e| e.code == "worker_panicked");
    assert_eq!(logged.count(), poisoned);
    let health = engine.health();
    assert!(!health.ready);
    assert!(health
        .signals
        .iter()
        .any(|s| s.name == "worker_panics" && !s.ok));

    let mut b = RemoteService::connect(handle.addr()).expect("the front end still accepts");
    b.set_deadline(Some(Duration::from_secs(5))).unwrap();
    assert!(matches!(b.call(&Request::Ping), Ok(Response::Pong)));
    assert_eq!(b.info().unwrap(), info);
    // A greedy pass reads every cold list, so it may fail too, but it is
    // answered: the workers are still there.
    match b.top_k(3, TopKAlgorithm::Greedy) {
        Ok(selection) => assert_eq!(selection.seeds.len(), 3),
        Err(ServiceError::Backend(message)) => assert!(message.contains("panicked"), "{message}"),
        Err(e) => panic!("expected an answer or a typed Backend error, got {e}"),
    }

    handle.shutdown();
    let _ = std::fs::remove_file(&path);
}
