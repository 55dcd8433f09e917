//! End-to-end lifecycle test: a compacted snapshot restored into a server
//! answers **byte-identically** to the pre-compaction server — the serving
//! face of the compaction contract (compaction changes where history is
//! stored, never what is served).

mod fixtures;

use std::sync::Arc;

use imserve::client::ServiceConnection;
use imserve::engine::QueryEngine;
use imserve::index::{build_dataset_index, IndexArtifact};
use imserve::protocol::{Request, Response, TopKAlgorithm};
use imserve::service::{CompactionReport, MutationOutcome};

use imdyn::CompactionPolicy;
use imgraph::GraphDelta;

const POOL: usize = 10_000;
const SEED: u64 = 7;

fn serve(artifact: IndexArtifact) -> fixtures::ServerGuard {
    fixtures::serve_artifact(artifact, 2)
}

fn scripted_deltas() -> Vec<GraphDelta> {
    vec![
        GraphDelta::InsertEdge {
            source: 0,
            target: 33,
            probability: 0.5,
        },
        GraphDelta::DeleteEdge {
            source: 0,
            target: 1,
        },
        GraphDelta::SetProbability {
            source: 33,
            target: 32,
            probability: 1.0,
        },
    ]
}

fn query_mix() -> Vec<Request> {
    let mut queries: Vec<Request> = vec![
        Request::TopK {
            k: 3,
            algorithm: TopKAlgorithm::Greedy,
        },
        Request::TopK {
            k: 5,
            algorithm: TopKAlgorithm::SingletonRank,
        },
        Request::Info,
    ];
    for v in 0..34u32 {
        queries.push(Request::Estimate { seeds: vec![v] });
    }
    queries.push(Request::Estimate {
        seeds: vec![0, 33, 16],
    });
    queries
}

#[test]
fn compacted_snapshot_restored_into_a_server_matches_the_pre_compaction_server() {
    // Server A: mutated over TCP with an atomic batch, log left uncompacted.
    let live = serve(build_dataset_index("karate", "uc0.1", POOL, SEED).unwrap());
    let mut a = ServiceConnection::connect(live.addr()).unwrap();
    match a
        .call(&Request::MutateBatch {
            deltas: scripted_deltas(),
        })
        .unwrap()
    {
        Response::MutateBatch(MutationOutcome {
            epoch,
            applied,
            resampled,
            compacted,
        }) => {
            assert_eq!(epoch, 3);
            assert_eq!(applied, 3);
            assert!(resampled > 0);
            assert!(!compacted);
        }
        other => panic!("unexpected response {other:?}"),
    }

    // Engine B: the same state compacted, exported as a snapshot artifact,
    // saved, reloaded and served — the restart-after-compaction path.
    let engine = QueryEngine::builder(build_dataset_index("karate", "uc0.1", POOL, SEED).unwrap())
        .build()
        .unwrap();
    let mut scratch = engine.new_scratch();
    engine.handle(
        &Request::MutateBatch {
            deltas: scripted_deltas(),
        },
        &mut scratch,
    );
    match engine.handle(&Request::Compact, &mut scratch) {
        Response::Compact(CompactionReport { epoch, folded }) => {
            assert_eq!(epoch, 3, "compaction never moves the epoch");
            assert_eq!(folded, 3);
        }
        other => panic!("unexpected response {other:?}"),
    }
    let snapshot = engine.state().to_artifact();
    assert_eq!(snapshot.snapshot_epoch, 3);
    assert!(snapshot.log.is_empty());
    let path = fixtures::temp_path("e2e_cmp", "imx");
    snapshot.save(path.as_str()).unwrap();
    let restored = IndexArtifact::load(path.as_str()).unwrap();
    assert_eq!(restored.epoch(), 3);

    let compacted = serve(restored);
    let mut b = ServiceConnection::connect(compacted.addr()).unwrap();

    // Every query class answers byte-identically on both servers.
    for request in &query_mix() {
        let pre_compaction = a.call(request).unwrap();
        let post_restore = b.call(request).unwrap();
        assert_eq!(
            pre_compaction, post_restore,
            "served responses diverged for {request:?}"
        );
    }

    // Same epoch on both; only the bookkeeping differs (A still carries the
    // pending log, B restarted from the watermark with an empty one).
    match a.call(&Request::Stats).unwrap() {
        Response::Stats {
            epoch,
            log_len,
            snapshot_epoch,
            ..
        } => {
            assert_eq!(epoch, 3);
            assert_eq!(log_len, 3);
            assert_eq!(snapshot_epoch, 0);
        }
        other => panic!("unexpected response {other:?}"),
    }
    match b.call(&Request::Stats).unwrap() {
        Response::Stats {
            epoch,
            log_len,
            snapshot_epoch,
            ..
        } => {
            assert_eq!(epoch, 3);
            assert_eq!(log_len, 0);
            assert_eq!(snapshot_epoch, 3);
        }
        other => panic!("unexpected response {other:?}"),
    }

    // Both keep evolving identically from epoch 3: the watermark changes
    // where counting starts, not how it continues.
    let next = GraphDelta::InsertEdge {
        source: 16,
        target: 0,
        probability: 0.25,
    };
    for connection in [&mut a, &mut b] {
        match connection
            .call(&Request::MutateBatch { deltas: vec![next] })
            .unwrap()
        {
            Response::MutateBatch(MutationOutcome { epoch, .. }) => assert_eq!(epoch, 4),
            other => panic!("unexpected response {other:?}"),
        }
    }
    let probe = Request::Estimate {
        seeds: vec![0, 16, 33],
    };
    assert_eq!(a.call(&probe).unwrap(), b.call(&probe).unwrap());

    live.shutdown();
    compacted.shutdown();
}

#[test]
fn policy_triggered_compaction_over_tcp_is_invisible_to_queries() {
    // A server with a log-length-2 policy: the batch lands, auto-compaction
    // fires, and the served answers still match an unpoliced server.
    let auto = fixtures::spawn_server(
        "127.0.0.1:0",
        Arc::new(
            QueryEngine::builder(build_dataset_index("karate", "uc0.1", POOL, SEED).unwrap())
                .compaction_policy(CompactionPolicy::log_len(2))
                .build()
                .unwrap(),
        ),
        2,
    );
    let plain = serve(build_dataset_index("karate", "uc0.1", POOL, SEED).unwrap());
    let mut a = ServiceConnection::connect(auto.addr()).unwrap();
    let mut b = ServiceConnection::connect(plain.addr()).unwrap();

    let deltas = scripted_deltas();
    match a
        .call(&Request::MutateBatch {
            deltas: deltas.clone(),
        })
        .unwrap()
    {
        Response::MutateBatch(MutationOutcome { compacted, .. }) => {
            assert!(compacted, "policy must fire")
        }
        other => panic!("unexpected response {other:?}"),
    }
    match b.call(&Request::MutateBatch { deltas }).unwrap() {
        Response::MutateBatch(MutationOutcome { compacted, .. }) => assert!(!compacted),
        other => panic!("unexpected response {other:?}"),
    }
    for request in &query_mix() {
        assert_eq!(
            a.call(request).unwrap(),
            b.call(request).unwrap(),
            "auto-compaction changed a served answer for {request:?}"
        );
    }
    match a.call(&Request::Stats).unwrap() {
        Response::Stats {
            epoch,
            log_len,
            snapshot_epoch,
            compactions,
            ..
        } => {
            assert_eq!(epoch, 3);
            assert_eq!(log_len, 0);
            assert_eq!(snapshot_epoch, 3);
            assert_eq!(compactions, 1);
        }
        other => panic!("unexpected response {other:?}"),
    }
    auto.shutdown();
    plain.shutdown();
}
