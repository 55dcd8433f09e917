//! End-to-end evolving-graph test: serve a Karate index over TCP, apply a
//! scripted delta batch through the wire protocol, and check that every
//! subsequently served response is bit-identical to a server running a
//! *from-scratch rebuild* of the mutated graph — the serving-layer face of
//! `imdyn`'s byte-identity contract.

mod fixtures;

use imserve::client::ServiceConnection;
use imserve::engine::QueryEngine;
use imserve::index::{build_dataset_index, build_dataset_index_with_deltas, IndexArtifact};
use imserve::protocol::{Request, Response, TopKAlgorithm};
use imserve::service::{MutationOutcome, ServiceInfo};

use imgraph::GraphDelta;

const POOL: usize = 10_000;
const SEED: u64 = 7;

fn serve(artifact: IndexArtifact) -> fixtures::ServerGuard {
    fixtures::serve_artifact(artifact, 2)
}

/// The scripted batch: one of each mutation kind against the Karate club.
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

#[test]
fn mutated_server_matches_a_from_scratch_rebuild_over_tcp() {
    // Server A: fresh Karate index, mutated incrementally over TCP.
    let incremental = serve(build_dataset_index("karate", "uc0.1", POOL, SEED).unwrap());
    let mut a = ServiceConnection::connect(incremental.addr()).unwrap();

    let deltas = scripted_deltas();
    match a
        .call(&Request::MutateBatch {
            deltas: deltas.clone(),
        })
        .unwrap()
    {
        Response::MutateBatch(MutationOutcome {
            epoch,
            applied,
            resampled,
            ..
        }) => {
            assert_eq!(epoch, 3);
            assert_eq!(applied, 3);
            assert!(resampled > 0);
        }
        other => panic!("unexpected response {other:?}"),
    }

    // Server B: the same mutations folded into the graph *before* a
    // from-scratch pool build at the same seed.
    let rebuilt = build_dataset_index_with_deltas("karate", "uc0.1", POOL, SEED, &deltas).unwrap();
    let rebuild = serve(rebuilt);
    let mut b = ServiceConnection::connect(rebuild.addr()).unwrap();

    // Every query class must come back bit-identical from both servers.
    let mut queries: Vec<Request> = vec![
        Request::TopK {
            k: 3,
            algorithm: TopKAlgorithm::Greedy,
        },
        Request::TopK {
            k: 5,
            algorithm: TopKAlgorithm::SingletonRank,
        },
    ];
    for v in 0..34u32 {
        queries.push(Request::Estimate { seeds: vec![v] });
    }
    queries.push(Request::Estimate {
        seeds: vec![0, 33, 16],
    });
    for request in &queries {
        // `unwrap`: a well-formed query is never rejected.
        let from_incremental = a.call(request).unwrap();
        let from_rebuild = b.call(request).unwrap();
        assert_eq!(
            from_incremental, from_rebuild,
            "served responses diverged for {request:?}"
        );
    }

    // Info agrees on the mutated dimensions (one insert, one delete).
    match (
        a.call(&Request::Info).unwrap(),
        b.call(&Request::Info).unwrap(),
    ) {
        (
            Response::Info(ServiceInfo {
                num_edges: ea,
                num_vertices: na,
                ..
            }),
            Response::Info(ServiceInfo {
                num_edges: eb,
                num_vertices: nb,
                ..
            }),
        ) => {
            assert_eq!(ea, eb);
            assert_eq!(na, nb);
        }
        other => panic!("unexpected responses {other:?}"),
    }

    // Both report epoch 3: one applied it live, one loaded it as provenance.
    for connection in [&mut a, &mut b] {
        match connection.call(&Request::Stats).unwrap() {
            Response::Stats { epoch, .. } => assert_eq!(epoch, 3),
            other => panic!("unexpected response {other:?}"),
        }
    }

    incremental.shutdown();
    rebuild.shutdown();
}

#[test]
fn mutated_index_round_trips_through_persistence() {
    // Mutate in process, export the artifact, reload, serve: answers match
    // the live engine (a restarted server continues exactly where the old
    // one stopped, including the epoch).
    let engine = QueryEngine::builder(build_dataset_index("karate", "uc0.1", 2_000, 3).unwrap())
        .build()
        .unwrap();
    let mut scratch = engine.new_scratch();
    assert_eq!(engine.mutate_batch(&scripted_deltas()).unwrap().epoch, 3);

    let exported = engine.state().to_artifact();
    let path = fixtures::temp_path("e2e_mut", "imx");
    exported.save(path.as_str()).unwrap();
    let reloaded = IndexArtifact::load(path.as_str()).unwrap();
    assert_eq!(reloaded.log.deltas(), scripted_deltas().as_slice());

    let handle = serve(reloaded);
    let mut connection = ServiceConnection::connect(handle.addr()).unwrap();
    for seeds in [vec![0u32], vec![33], vec![0, 33, 5]] {
        let expected = engine.handle(
            &Request::Estimate {
                seeds: seeds.clone(),
            },
            &mut scratch,
        );
        let served = connection.call(&Request::Estimate { seeds }).unwrap();
        assert_eq!(served, expected);
    }
    match connection.call(&Request::Stats).unwrap() {
        Response::Stats { epoch, .. } => assert_eq!(epoch, 3),
        other => panic!("unexpected response {other:?}"),
    }
    handle.shutdown();
}
