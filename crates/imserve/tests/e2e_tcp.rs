//! End-to-end: build a Karate index, persist it, reload it, serve it over
//! TCP on an ephemeral port, and check that concurrent clients receive
//! responses bit-identical to the in-process oracle.

mod fixtures;

use imserve::client::ServiceConnection;
use imserve::index::IndexArtifact;
use imserve::loadtest::{self, LoadtestConfig};
use imserve::protocol::{Request, Response, TopKAlgorithm};
use imserve::service::{ServiceInfo, TopKSelection};
use imserve::ServiceError;

const POOL: usize = 20_000;
const SEED: u64 = 7;

fn served_karate() -> (fixtures::ServerGuard, IndexArtifact) {
    // Build → save → load: the server must run off the *loaded* artifact so
    // this test covers the whole persistence path.
    let reference = fixtures::karate(POOL, SEED);
    let loaded = fixtures::karate_from_disk(POOL, SEED);
    (fixtures::serve_artifact(loaded, 3), reference)
}

#[test]
fn concurrent_tcp_queries_match_the_in_process_oracle() {
    let (handle, reference) = served_karate();
    let addr = handle.addr();
    let on_loop_before = loop_answered(addr);

    // The loaded index the server answers from must agree with the freshly
    // built one — reloading never resamples the pool.
    let mut clients = Vec::new();
    for client_id in 0..4u32 {
        let oracle = reference.oracle.clone();
        clients.push(std::thread::spawn(move || {
            let mut connection = ServiceConnection::connect(addr).unwrap();
            for round in 0..10u32 {
                let v = (client_id * 7 + round) % 34;
                let seeds = vec![v, (v + 11) % 34];
                let expected = oracle.estimate(&seeds);
                match connection
                    .call(&Request::Estimate {
                        seeds: seeds.clone(),
                    })
                    .unwrap()
                {
                    Response::Estimate {
                        spread,
                        seeds: echoed,
                        ..
                    } => {
                        assert_eq!(spread, expected, "client {client_id} round {round}");
                        assert_eq!(echoed, seeds);
                    }
                    other => panic!("unexpected response {other:?}"),
                }

                let (expected_seeds, expected_spread) = oracle.greedy_seed_set(3);
                match connection
                    .call(&Request::TopK {
                        k: 3,
                        algorithm: TopKAlgorithm::Greedy,
                    })
                    .unwrap()
                {
                    Response::TopK(TopKSelection { seeds, spread, .. }) => {
                        assert_eq!(seeds, expected_seeds);
                        assert_eq!(spread, expected_spread);
                    }
                    other => panic!("unexpected response {other:?}"),
                }
            }
        }));
    }
    for client in clients {
        client.join().unwrap();
    }

    // Repeated identical queries produce byte-identical response lines
    // (cache hit or miss is invisible on the wire).
    let request = Request::TopK {
        k: 2,
        algorithm: TopKAlgorithm::SingletonRank,
    };
    let mut connection = ServiceConnection::connect(addr).unwrap();
    let a = connection.call(&request).unwrap();
    let b = connection.call(&request).unwrap();
    assert_eq!(a, b);

    // Info reflects the persisted metadata.
    match connection.call(&Request::Info).unwrap() {
        Response::Info(ServiceInfo {
            graph_id,
            model,
            num_vertices,
            pool_size,
            ..
        }) => {
            assert_eq!(graph_id, "Karate");
            assert_eq!(model, "uc0.1");
            assert_eq!(num_vertices, 34);
            assert_eq!(pool_size, POOL);
        }
        other => panic!("unexpected response {other:?}"),
    }

    // Invalid requests come back as typed errors, and the connection stays
    // usable afterwards.
    let bad = connection.call(&Request::Estimate { seeds: vec![999] });
    assert!(matches!(bad, Err(ServiceError::Query(_))), "{bad:?}");
    assert_eq!(connection.call(&Request::Ping).unwrap(), Response::Pong);

    // The suites exercise the front end `serve` runs: the point requests
    // above were answered on the reactor's event loop.
    assert!(loop_answered(addr) > on_loop_before);

    handle.shutdown();
}

/// The served engine's count of requests answered on the reactor's loop.
fn loop_answered(addr: std::net::SocketAddr) -> u64 {
    match ServiceConnection::connect(addr)
        .unwrap()
        .call(&Request::Metrics)
        .unwrap()
    {
        Response::Metrics(report) => {
            report.counter("imserve_reactor_requests_total{path=\"loop\"}")
        }
        other => panic!("unexpected response {other:?}"),
    }
}

#[test]
fn loadtest_runs_against_a_live_server() {
    let (handle, _reference) = served_karate();
    let report = loadtest::run(
        handle.addr(),
        &LoadtestConfig {
            connections: 3,
            requests_per_connection: 40,
            k: 2,
            seed: 5,
            arrival_rps: None,
        },
    )
    .unwrap();
    assert_eq!(report.total_requests, 120);
    assert!(report.throughput_rps > 0.0);
    assert!(report.latency_micros.max >= report.latency_micros.median);
    let stats = report
        .server_stats
        .expect("final Stats round-trip succeeds");
    assert_eq!(stats.pool_size, POOL);
    assert_eq!(stats.epoch, 0, "loadtest mix applies no mutations");
    assert!(stats.requests >= 120);
    handle.shutdown();
}
