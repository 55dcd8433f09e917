//! The `InfluenceService` interchangeability contract, end to end:
//!
//! * local, remote (over TCP) and sharded backends answer every query
//!   bit-identically — including after broadcast mutations;
//! * every wire request goes through `InfluenceService::call` on every
//!   backend and relay, and a reply of the wrong kind is a typed protocol
//!   error raised once, above the relays;
//! * pipelining matches responses to requests by id, and frames the server
//!   cannot serve (unknown payload, outdated handshake) keep their id;
//! * the typed error taxonomy survives the wire.

mod fixtures;

use std::collections::HashSet;
use std::sync::Arc;

use imgraph::GraphDelta;
use imserve::client::{ReconnectingService, RemoteService, ServiceConnection};
use imserve::engine::QueryEngine;
use imserve::index::{build_dataset_index, IndexArtifact};
use imserve::protocol::{self, Request, Response, TopKAlgorithm, PROTOCOL_VERSION};
use imserve::replica::ReplicaSet;
use imserve::service::{InfluenceService, LocalService, ServiceError, ServiceResult};
use imserve::shard::ShardedService;
use imserve::{reactor, ReactorConfig};

const POOL: usize = 6_000;
const SEED: u64 = 7;
const SHARDS: usize = 3;

fn karate_graph() -> imgraph::InfluenceGraph {
    imserve::index::parse_dataset("karate")
        .unwrap()
        .influence_graph(imserve::index::parse_model("uc0.1").unwrap(), SEED)
}

fn local_backend() -> LocalService {
    let engine = QueryEngine::builder(build_dataset_index("karate", "uc0.1", POOL, SEED).unwrap())
        .build()
        .unwrap();
    LocalService::new(Arc::new(engine))
}

fn sharded_backend() -> ShardedService<LocalService> {
    let graph = karate_graph();
    let shards: Vec<LocalService> = (0..SHARDS)
        .map(|i| {
            let artifact =
                IndexArtifact::build_shard("Karate", "uc0.1", graph.clone(), POOL, SEED, i, SHARDS);
            LocalService::new(Arc::new(QueryEngine::builder(artifact).build().unwrap()))
        })
        .collect();
    ShardedService::new(shards).unwrap()
}

/// Assert two services answer a probe battery bit-identically.
fn assert_equivalent(a: &mut dyn InfluenceService, b: &mut dyn InfluenceService, context: &str) {
    let info_a = a.info().unwrap();
    let info_b = b.info().unwrap();
    assert_eq!(info_a.num_vertices, info_b.num_vertices, "{context}");
    assert_eq!(info_a.num_edges, info_b.num_edges, "{context}");
    assert_eq!(info_a.pool_size, info_b.pool_size, "{context}");
    let n = info_a.num_vertices as u32;
    for seeds in [
        vec![0u32],
        vec![n - 1],
        vec![0, 5, 9],
        vec![0, n / 2, n - 1],
        vec![33, 0, 33],
    ] {
        let ea = a.estimate(&seeds).unwrap();
        let eb = b.estimate(&seeds).unwrap();
        assert_eq!(
            ea.spread.to_bits(),
            eb.spread.to_bits(),
            "{context}: estimate({seeds:?})"
        );
        assert_eq!(ea.covered, eb.covered, "{context}: covered({seeds:?})");
        assert_eq!(ea.pool, eb.pool, "{context}: pool({seeds:?})");
    }
    for selected in [vec![], vec![0u32], vec![0, 33]] {
        let ga = a.gains(&selected).unwrap();
        let gb = b.gains(&selected).unwrap();
        assert_eq!(ga.gains, gb.gains, "{context}: gains({selected:?})");
        assert_eq!(ga.covered, gb.covered, "{context}");
    }
    // The output-sensitive round is the same cut of the same vector on
    // every backend — engine-side point reads, a wire round trip, or a
    // router's default over its summed gains — including the degenerate
    // limits (nothing listed, everything listed).
    for (selected, limit, probe) in [
        (vec![], 5usize, vec![n - 1, 0]),
        (vec![0u32, 33], 0, vec![5, 33, 9]),
        (vec![n / 2], usize::MAX, vec![]),
    ] {
        let ca = a.gain_candidates(&selected, limit, &probe).unwrap();
        let cb = b.gain_candidates(&selected, limit, &probe).unwrap();
        assert_eq!(ca, cb, "{context}: gain_candidates({selected:?}, {limit})");
    }
    for algorithm in [TopKAlgorithm::Greedy, TopKAlgorithm::SingletonRank] {
        for k in [1usize, 3] {
            let ta = a.top_k(k, algorithm).unwrap();
            let tb = b.top_k(k, algorithm).unwrap();
            assert_eq!(ta.seeds, tb.seeds, "{context}: top_k({k}, {algorithm})");
            assert_eq!(
                ta.spread.to_bits(),
                tb.spread.to_bits(),
                "{context}: top_k({k}, {algorithm}) spread"
            );
        }
    }
}

#[test]
fn sharded_service_is_byte_identical_to_local_including_after_mutations() {
    let mut local = local_backend();
    let mut sharded = sharded_backend();
    assert_eq!(sharded.shard_count(), SHARDS);
    assert_equivalent(&mut local, &mut sharded, "fresh pools");

    // Broadcast the same batches to both; equivalence must hold at every
    // intermediate epoch (interleaved with queries, which prime caches).
    let batches: Vec<Vec<GraphDelta>> = vec![
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
        ],
        vec![GraphDelta::SetProbability {
            source: 33,
            target: 32,
            probability: 1.0,
        }],
        vec![GraphDelta::InsertEdge {
            source: 16,
            target: 0,
            probability: 0.9,
        }],
    ];
    let mut epoch = 0u64;
    for (i, batch) in batches.iter().enumerate() {
        let a = local.mutate_batch(batch).unwrap();
        let b = sharded.mutate_batch(batch).unwrap();
        epoch += batch.len() as u64;
        assert_eq!(a.epoch, epoch);
        assert_eq!(b.epoch, epoch, "sharded epoch stays in lockstep");
        assert_eq!(a.applied, batch.len());
        assert_eq!(b.applied, batch.len());
        assert_equivalent(&mut local, &mut sharded, &format!("after batch {i}"));
    }

    // Shard-aware epoch reporting: every shard sits at the common epoch.
    let stats = sharded.stats().unwrap();
    assert_eq!(stats.epoch, epoch);
    assert_eq!(stats.shards.len(), SHARDS);
    for report in &stats.shards {
        assert_eq!(report.epoch, epoch);
        assert_eq!(report.log_len as u64, epoch, "no shard compacted");
    }
    assert_eq!(stats.pool_size, POOL);

    // A rejected batch is atomic everywhere: nothing lands on any backend.
    let bad = vec![
        GraphDelta::InsertEdge {
            source: 0,
            target: 2,
            probability: 0.5,
        },
        GraphDelta::DeleteEdge {
            source: 999,
            target: 0,
        },
    ];
    assert!(matches!(
        local.mutate_batch(&bad),
        Err(ServiceError::Mutation(_))
    ));
    assert!(matches!(
        sharded.mutate_batch(&bad),
        Err(ServiceError::Mutation(_))
    ));
    assert_equivalent(&mut local, &mut sharded, "after rejected batch");

    // Compaction broadcasts too: epochs agree, pending logs fold everywhere.
    let report = sharded.compact().unwrap();
    assert_eq!(report.epoch, epoch);
    assert_eq!(report.folded, SHARDS * epoch as usize);
    let stats = sharded.stats().unwrap();
    for shard in &stats.shards {
        assert_eq!(shard.log_len, 0);
        assert_eq!(shard.snapshot_epoch, epoch);
    }
    local.compact().unwrap();
    assert_equivalent(&mut local, &mut sharded, "after compaction");
}

#[test]
fn remote_service_is_byte_identical_to_local_over_protocol_v2() {
    let engine = Arc::new(
        QueryEngine::builder(build_dataset_index("karate", "uc0.1", POOL, SEED).unwrap())
            .build()
            .unwrap(),
    );
    let handle = fixtures::spawn_server("127.0.0.1:0", Arc::clone(&engine), 2);
    let mut remote = RemoteService::connect(handle.addr()).unwrap();
    let mut local = local_backend();
    assert_equivalent(&mut local, &mut remote, "remote vs local");

    // Mutate through the remote service; the local reference applies the
    // same batch.
    let batch = vec![GraphDelta::DeleteEdge {
        source: 0,
        target: 1,
    }];
    let a = local.mutate_batch(&batch).unwrap();
    let b = remote.mutate_batch(&batch).unwrap();
    assert_eq!(a.epoch, b.epoch);
    assert_eq!(a.resampled, b.resampled);
    assert_equivalent(&mut local, &mut remote, "remote vs local after mutation");

    // Typed errors survive the wire with their taxonomy intact.
    match remote.estimate(&[9_999]) {
        Err(ServiceError::Query(message)) => assert!(message.contains("out of range")),
        other => panic!("expected a typed Query error, got {other:?}"),
    }
    match remote.top_k(0, TopKAlgorithm::Greedy) {
        Err(ServiceError::Query(message)) => assert!(message.contains("positive")),
        other => panic!("expected a typed Query error, got {other:?}"),
    }
    match remote.mutate_batch(&[]) {
        Err(ServiceError::Mutation(message)) => assert!(message.contains("empty")),
        other => panic!("expected a typed Mutation error, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn sharded_service_over_remote_shards_matches_local() {
    // The full deployment shape: every shard behind its own TCP server, the
    // router speaking protocol v2 to all of them.
    let graph = karate_graph();
    let mut handles = Vec::new();
    let mut remotes = Vec::new();
    for i in 0..2 {
        let artifact =
            IndexArtifact::build_shard("Karate", "uc0.1", graph.clone(), POOL, SEED, i, 2);
        let engine = Arc::new(QueryEngine::builder(artifact).build().unwrap());
        let handle = fixtures::spawn_server("127.0.0.1:0", engine, 4);
        remotes.push(RemoteService::connect(handle.addr()).unwrap());
        handles.push(handle);
    }
    let mut sharded = ShardedService::new(remotes).unwrap();
    let mut local = local_backend();
    assert_equivalent(&mut local, &mut sharded, "remote shards vs local");

    let batch = vec![GraphDelta::InsertEdge {
        source: 2,
        target: 0,
        probability: 0.25,
    }];
    local.mutate_batch(&batch).unwrap();
    sharded.mutate_batch(&batch).unwrap();
    assert_equivalent(&mut local, &mut sharded, "remote shards after mutation");
    for handle in handles {
        handle.shutdown();
    }
}

/// Karate's 34 vertices fit whole in a 64-entry candidate list, so the
/// suites above never see a list cut short. The physicians network (241
/// vertices) does: lists truncate, shards disagree on who made the cut,
/// exact counts are probed — and the answers still may not move a bit, for
/// both algorithms, over real TCP shards, including a ranking longer than a
/// list and a hostile `k`.
#[test]
fn truncated_candidate_lists_keep_remote_shards_byte_identical_to_local() {
    let dataset = imserve::index::parse_dataset("physicians").unwrap();
    let graph = dataset.influence_graph(imserve::index::parse_model("uc0.1").unwrap(), SEED);
    assert!(graph.num_vertices() > 64);
    let engine = |artifact| Arc::new(QueryEngine::builder(artifact).build().unwrap());
    let mut local = LocalService::new(engine(IndexArtifact::build(
        "physicians",
        "uc0.1",
        graph.clone(),
        POOL,
        SEED,
    )));
    let mut handles = Vec::new();
    let mut remotes = Vec::new();
    for i in 0..SHARDS {
        let artifact =
            IndexArtifact::build_shard("physicians", "uc0.1", graph.clone(), POOL, SEED, i, SHARDS);
        let handle = fixtures::spawn_server("127.0.0.1:0", engine(artifact), 2);
        remotes.push(RemoteService::connect(handle.addr()).unwrap());
        handles.push(handle);
    }
    let mut sharded = ShardedService::new(remotes).unwrap();
    assert_equivalent(&mut local, &mut sharded, "physicians, remote shards");
    for (k, algorithm) in [
        (8, TopKAlgorithm::Greedy),
        (70, TopKAlgorithm::SingletonRank),
        (usize::MAX, TopKAlgorithm::SingletonRank),
    ] {
        let a = local.top_k(k, algorithm).unwrap();
        let b = sharded.top_k(k, algorithm).unwrap();
        assert_eq!(a.seeds, b.seeds, "top_k({k}, {algorithm})");
        assert_eq!(a.spread.to_bits(), b.spread.to_bits());
    }
    // The merge did the work: rounds were settled from candidate lists.
    let rounds = sharded.obs().router_rounds_threshold.get();
    assert!(
        rounds >= 8,
        "only {rounds} rounds settled by the threshold merge"
    );

    let batch = vec![GraphDelta::InsertEdge {
        source: 2,
        target: 0,
        probability: 0.25,
    }];
    local.mutate_batch(&batch).unwrap();
    sharded.mutate_batch(&batch).unwrap();
    assert_equivalent(&mut local, &mut sharded, "physicians after mutation");
    for handle in handles {
        handle.shutdown();
    }
}

/// The rounds the candidate lists cannot settle: with four RR sets in the
/// pool, greedy covers everything in a few picks and every later round is
/// all zeros — nothing is strictly above the (zero) bounds, the router sums
/// the full vectors, and the first-argmax rule hands out the lowest
/// unselected ids exactly as the single pool does.
#[test]
fn rounds_the_bounds_cannot_separate_fall_back_to_full_vectors() {
    let dataset = imserve::index::parse_dataset("physicians").unwrap();
    let graph = dataset.influence_graph(imserve::index::parse_model("uc0.1").unwrap(), SEED);
    let over =
        |artifact| LocalService::new(Arc::new(QueryEngine::builder(artifact).build().unwrap()));
    let mut local = over(IndexArtifact::build(
        "physicians",
        "uc0.1",
        graph.clone(),
        4,
        SEED,
    ));
    let shards = (0..2)
        .map(|i| {
            over(IndexArtifact::build_shard(
                "physicians",
                "uc0.1",
                graph.clone(),
                4,
                SEED,
                i,
                2,
            ))
        })
        .collect();
    let mut sharded = ShardedService::new(shards).unwrap();
    for algorithm in [TopKAlgorithm::Greedy, TopKAlgorithm::SingletonRank] {
        let a = local.top_k(8, algorithm).unwrap();
        let b = sharded.top_k(8, algorithm).unwrap();
        assert_eq!(a.seeds, b.seeds, "{algorithm}");
        assert_eq!(a.spread.to_bits(), b.spread.to_bits(), "{algorithm}");
    }
    let obs = sharded.obs();
    assert!(
        obs.router_rounds_threshold.get() >= 1,
        "the first pick is provable"
    );
    assert!(
        obs.router_rounds_full.get() >= 4,
        "the exhausted rounds are not"
    );
}

#[test]
fn protocol_v2_pipelines_and_handshakes() {
    let engine = Arc::new(
        QueryEngine::builder(build_dataset_index("karate", "uc0.1", 2_000, SEED).unwrap())
            .build()
            .unwrap(),
    );
    let handle = fixtures::spawn_server("127.0.0.1:0", Arc::clone(&engine), 4);

    let mut connection = ServiceConnection::connect(handle.addr()).unwrap();
    assert_eq!(connection.server_version(), PROTOCOL_VERSION);

    // Write three requests before reading anything; responses come back
    // id-matched and in order.
    let outcomes = connection
        .pipeline(&[
            Request::Estimate { seeds: vec![0] },
            Request::TopK {
                k: 0, // invalid on purpose: typed error mid-pipeline
                algorithm: TopKAlgorithm::Greedy,
            },
            Request::Estimate { seeds: vec![33] },
        ])
        .unwrap();
    assert_eq!(outcomes.len(), 3);
    assert!(matches!(
        outcomes[0],
        Ok(Response::Estimate { ref seeds, .. }) if seeds == &vec![0]
    ));
    assert!(
        matches!(outcomes[1], Err(ServiceError::Query(_))),
        "a rejected request must not poison the pipeline"
    );
    assert!(matches!(
        outcomes[2],
        Ok(Response::Estimate { ref seeds, .. }) if seeds == &vec![33]
    ));
    // The connection stays usable after a mid-pipeline error.
    let answer = connection.call(&Request::Ping).unwrap();
    assert_eq!(answer, Response::Pong);
    handle.shutdown();
}

/// A misconfigured shard set — the same shard listed twice, overlapping
/// ranges, or replicas of a whole pool — must fail construction instead of
/// silently double-counting coverage.
#[test]
fn duplicate_or_overlapping_shard_backends_are_rejected() {
    let graph = karate_graph();
    let shard0 = || {
        let artifact =
            IndexArtifact::build_shard("Karate", "uc0.1", graph.clone(), POOL, SEED, 0, 2);
        LocalService::new(Arc::new(QueryEngine::builder(artifact).build().unwrap()))
    };
    // The same shard twice ("--addr S0 --addr S0").
    match ShardedService::new(vec![shard0(), shard0()]) {
        Err(ServiceError::Shard(message)) => {
            assert!(message.contains("covered twice"), "{message}")
        }
        other => panic!("duplicate shards must be rejected, got {other:?}"),
    }
    // Two whole-pool replicas are a replication setup, not a merge.
    match ShardedService::new(vec![local_backend(), local_backend()]) {
        Err(ServiceError::Shard(message)) => {
            assert!(message.contains("covered twice"), "{message}")
        }
        other => panic!("whole-pool replicas must be rejected, got {other:?}"),
    }
    // A contiguous subset (one shard alone) is legal and self-describing:
    // it behaves as one larger shard and reports partial coverage.
    let mut partial = ShardedService::new(vec![shard0()]).unwrap();
    let info = partial.info().unwrap();
    assert_eq!(info.pool_size, POOL / 2);
    assert_eq!(info.global_pool, POOL as u64);
    assert_eq!(info.shard_offset, 0);
}

/// A frame whose request payload the server cannot parse (a newer client's
/// variant, a typo) or whose handshake offers only an older protocol must
/// come back as an **id-tagged** Unsupported error — a pipelining client
/// matches responses by id and would otherwise desync.
#[test]
fn unknown_v2_payloads_get_id_tagged_errors() {
    use std::io::{BufRead, BufReader, Write};

    let engine = Arc::new(
        QueryEngine::builder(build_dataset_index("karate", "uc0.1", 1_000, SEED).unwrap())
            .build()
            .unwrap(),
    );
    let handle = fixtures::spawn_server("127.0.0.1:0", Arc::clone(&engine), 4);

    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    // Pipeline a valid frame, a frame with an unknown request variant, a
    // handshake from a client limited to protocol 1, and another valid
    // frame — all before reading.
    stream
        .write_all(
            b"{\"v\":2,\"id\":41,\"req\":\"Ping\"}\n\
              {\"v\":2,\"id\":42,\"req\":{\"TimeTravel\":{\"to\":1999}}}\n\
              {\"v\":2,\"id\":44,\"req\":{\"Hello\":{\"max_version\":1}}}\n\
              {\"v\":2,\"id\":43,\"req\":\"Ping\"}\n",
        )
        .unwrap();
    let mut lines = Vec::new();
    for _ in 0..4 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        lines.push(line);
    }
    assert!(lines[0].contains("\"id\":41"), "{}", lines[0]);
    assert!(lines[0].contains("Pong"), "{}", lines[0]);
    assert!(
        lines[1].contains("\"id\":42") && lines[1].contains("Unsupported"),
        "unknown payloads must keep their frame id: {}",
        lines[1]
    );
    assert!(
        lines[2].contains("\"id\":44")
            && lines[2].contains("Unsupported")
            && lines[2].contains("protocol v2"),
        "an outdated handshake is refused by name, not negotiated down: {}",
        lines[2]
    );
    assert!(lines[3].contains("\"id\":43"), "{}", lines[3]);
    assert!(lines[3].contains("Pong"), "{}", lines[3]);
    handle.shutdown();
}

/// Out-of-band mutations (behind the router's back) must never let the
/// `top_k` memo serve a stale selection: mutating *every* shard invalidates
/// it, and mutating only *some* shards surfaces as a torn-epoch error.
#[test]
fn sharded_topk_memo_survives_out_of_band_mutations() {
    let graph = karate_graph();
    let engines: Vec<Arc<QueryEngine>> = (0..2)
        .map(|i| {
            let artifact =
                IndexArtifact::build_shard("Karate", "uc0.1", graph.clone(), POOL, SEED, i, 2);
            Arc::new(QueryEngine::builder(artifact).build().unwrap())
        })
        .collect();
    let mut sharded = ShardedService::new(
        engines
            .iter()
            .map(|e| LocalService::new(Arc::clone(e)))
            .collect(),
    )
    .unwrap();
    let before = sharded.top_k(3, TopKAlgorithm::Greedy).unwrap();

    // Mutate every shard engine directly — the router never sees it.
    let batch = vec![GraphDelta::InsertEdge {
        source: 16,
        target: 0,
        probability: 1.0,
    }];
    for engine in &engines {
        engine.mutate_batch(&batch).unwrap();
    }
    // The next selection must be recomputed at the new epoch, matching a
    // single-pool reference over the mutated graph — not the memoized one.
    let after = sharded.top_k(3, TopKAlgorithm::Greedy).unwrap();
    let mut reference = {
        let artifact =
            imserve::index::build_dataset_index_with_deltas("karate", "uc0.1", POOL, SEED, &batch)
                .unwrap();
        LocalService::new(Arc::new(QueryEngine::builder(artifact).build().unwrap()))
    };
    let expected = reference.top_k(3, TopKAlgorithm::Greedy).unwrap();
    assert_eq!(after.seeds, expected.seeds);
    assert_eq!(after.spread.to_bits(), expected.spread.to_bits());
    let _ = before;

    // Tearing the group (mutating only one shard) is a loud Shard error.
    engines[0].mutate_batch(&batch_again()).unwrap();
    match sharded.top_k(3, TopKAlgorithm::Greedy) {
        Err(ServiceError::Shard(message)) => assert!(message.contains("epoch"), "{message}"),
        other => panic!("expected a Shard error on torn epochs, got {other:?}"),
    }
}

fn batch_again() -> Vec<GraphDelta> {
    vec![GraphDelta::DeleteEdge {
        source: 0,
        target: 1,
    }]
}

/// Regression: the loadtest's discovery probe must not hold its connection
/// across the run — on a single-worker server a lingering probe would pin
/// the only worker and deadlock every loadtest connection behind it.
#[test]
fn loadtest_completes_against_a_single_worker_server() {
    use imserve::loadtest::{self, LoadtestConfig};

    let engine = Arc::new(
        QueryEngine::builder(build_dataset_index("karate", "uc0.1", 1_000, SEED).unwrap())
            .build()
            .unwrap(),
    );
    let handle = reactor::spawn(
        "127.0.0.1:0",
        Arc::clone(&engine),
        &ReactorConfig {
            compute_threads: 1,
            idle_timeout: Some(std::time::Duration::from_secs(30)),
            ..ReactorConfig::default()
        },
    )
    .unwrap();
    let report = loadtest::run(
        handle.addr(),
        &LoadtestConfig {
            connections: 2,
            requests_per_connection: 20,
            k: 2,
            seed: 1,
            arrival_rps: None,
        },
    )
    .unwrap();
    assert_eq!(report.total_requests, 40);
    assert!(report.server_stats.is_some());
    handle.shutdown();
}

/// Whether a reply is volatile — counters, timings, or a sum a router takes
/// over its shards (`Compact`'s `folded`) — so only its kind is held against
/// the reference. Exhaustive: a new request kind fails to compile here until
/// it is classified (and scripted below).
fn volatile(request: &Request) -> bool {
    match request {
        Request::Reload { .. }
        | Request::Compact
        | Request::Stats
        | Request::Metrics
        | Request::Health
        | Request::Events => true,
        Request::Ping
        | Request::Hello { .. }
        | Request::Info
        | Request::Estimate { .. }
        | Request::TopK { .. }
        | Request::Gains { .. }
        | Request::GainCandidates { .. }
        | Request::MutateBatch { .. }
        | Request::Promote { .. } => false,
    }
}

/// One request of every kind, in an order that keeps each deterministic:
/// the reload swaps in the served artifact before any mutation moves the
/// epoch, and the promotion finds a node that is already writable.
fn call_script(n: u32, artifact: &str) -> Vec<Request> {
    vec![
        Request::Ping,
        Request::Hello {
            max_version: PROTOCOL_VERSION,
        },
        Request::Info,
        Request::Estimate {
            seeds: vec![0, 5, n - 1],
        },
        Request::TopK {
            k: 3,
            algorithm: TopKAlgorithm::Greedy,
        },
        Request::TopK {
            k: 2,
            algorithm: TopKAlgorithm::SingletonRank,
        },
        Request::Gains { selected: vec![0] },
        Request::GainCandidates {
            selected: vec![0],
            limit: 5,
            probe: vec![n - 1],
        },
        Request::Reload {
            path: artifact.to_string(),
        },
        Request::Promote {
            expected_epoch: None,
        },
        Request::MutateBatch {
            deltas: batch_again(),
        },
        Request::Estimate { seeds: vec![0, 1] },
        Request::Compact,
        Request::Stats,
        Request::Metrics,
        Request::Health,
        Request::Events,
    ]
}

/// Run the script through `service.call` and hold every reply against the
/// reference's. A router has no one node to reload or promote, and must say
/// so with the typed `Backend` error rather than recurse.
fn assert_calls_match(
    reference: &[ServiceResult<Response>],
    service: &mut dyn InfluenceService,
    script: &[Request],
    router: bool,
    context: &str,
) {
    for (request, expected) in script.iter().zip(reference) {
        let got = service.call(request);
        let what = format!("{context}: {request:?}");
        if router && matches!(request, Request::Reload { .. } | Request::Promote { .. }) {
            match got {
                Err(ServiceError::Backend(message)) => {
                    assert!(message.contains("not supported"), "{what}: {message}")
                }
                other => panic!("{what}: expected the typed Backend error, got {other:?}"),
            }
            continue;
        }
        match (expected, got) {
            (Ok(expected), Ok(got)) if !volatile(request) => assert_eq!(
                protocol::encode(&got).unwrap(),
                protocol::encode(expected).unwrap(),
                "{what}"
            ),
            (Ok(expected), Ok(got)) => assert_eq!(
                std::mem::discriminant(&got),
                std::mem::discriminant(expected),
                "{what}: {got:?}"
            ),
            (expected, got) => panic!("{what}: expected {expected:?}, got {got:?}"),
        }
    }
}

#[test]
fn every_request_goes_through_call_on_every_backend_and_relay() {
    let artifact = fixtures::temp_path("call_script", "imx");
    build_dataset_index("karate", "uc0.1", POOL, SEED)
        .unwrap()
        .save(&*artifact)
        .unwrap();
    let engine = || {
        Arc::new(
            QueryEngine::builder(build_dataset_index("karate", "uc0.1", POOL, SEED).unwrap())
                .build()
                .unwrap(),
        )
    };
    let name = imserve::index::parse_dataset("karate").unwrap().name();
    let shards = |count: usize| {
        let shards = (0..count)
            .map(|i| {
                let artifact =
                    IndexArtifact::build_shard(name, "uc0.1", karate_graph(), POOL, SEED, i, count);
                LocalService::new(Arc::new(QueryEngine::builder(artifact).build().unwrap()))
            })
            .collect();
        ShardedService::new(shards).unwrap()
    };
    let serve = || {
        let config = ReactorConfig {
            compute_threads: 1,
            ..ReactorConfig::default()
        };
        reactor::spawn("127.0.0.1:0", engine(), &config).unwrap()
    };

    let mut local = LocalService::new(engine());
    let script = call_script(local.info().unwrap().num_vertices as u32, artifact.as_str());
    let kinds: HashSet<_> = script.iter().map(std::mem::discriminant).collect();
    assert_eq!(kinds.len(), 15, "the script names every request kind");
    let reference: Vec<_> = script.iter().map(|request| local.call(request)).collect();
    assert!(
        reference.iter().all(Result::is_ok),
        "the reference answers every request: {reference:?}"
    );

    let (remote_server, reconnecting_server) = (serve(), serve());
    let mut boxed: Box<dyn InfluenceService> = Box::new(LocalService::new(engine()));
    let mut replicas = ReplicaSet::new(vec![
        ("leader".to_string(), LocalService::new(engine())),
        ("follower".to_string(), LocalService::new(engine())),
    ]);
    let mut remote = RemoteService::connect(remote_server.addr()).unwrap();
    let mut reconnecting = ReconnectingService::new(reconnecting_server.addr().to_string());
    let backends: [(&str, &mut dyn InfluenceService, bool); 6] = [
        ("Box<dyn InfluenceService>", &mut boxed, false),
        ("ReplicaSet<LocalService>", &mut replicas, false),
        ("ShardedService over 1 shard", &mut shards(1), true),
        ("ShardedService over 2 shards", &mut shards(2), true),
        ("RemoteService over a reactor", &mut remote, false),
        (
            "ReconnectingService over a reactor",
            &mut reconnecting,
            false,
        ),
    ];
    for (context, service, router) in backends {
        assert_calls_match(&reference, service, &script, router, context);
    }
    assert_eq!(replicas.active_label(), "leader");
    remote_server.shutdown();
    reconnecting_server.shutdown();
}

/// A backend that answers `Pong` to whatever it is asked.
struct PongNode;

impl InfluenceService for PongNode {
    fn call(&mut self, _request: &Request) -> ServiceResult<Response> {
        Ok(Response::Pong)
    }
}

#[test]
fn a_reply_of_the_wrong_kind_is_a_protocol_error_naming_both_kinds() {
    let mut node = PongNode;
    let errors = [
        ("Info", node.info().unwrap_err()),
        ("Estimate", node.estimate(&[0]).unwrap_err()),
        ("TopK", node.top_k(1, TopKAlgorithm::Greedy).unwrap_err()),
        ("Gains", node.gains(&[]).unwrap_err()),
        (
            "GainCandidates",
            node.gain_candidates(&[], 1, &[]).unwrap_err(),
        ),
        ("MutateBatch", node.mutate_batch(&[]).unwrap_err()),
        ("Compact", node.compact().unwrap_err()),
        ("Stats", node.stats().unwrap_err()),
        ("Metrics", node.metrics().unwrap_err()),
        ("Health", node.health().unwrap_err()),
        ("Events", node.events().unwrap_err()),
        ("Reload", node.reload("k.imx").unwrap_err()),
        ("Promote", node.promote(None).unwrap_err()),
    ];
    for (asked, error) in errors {
        match error {
            ServiceError::Protocol(message) => {
                assert_eq!(message, format!("{asked} answered with Pong"))
            }
            other => panic!("{asked}: expected a Protocol error, got {other:?}"),
        }
    }

    // The error is raised above the relays: a replica set whose leader
    // answers the wrong kind has had a reply, not a failure, and does not
    // fail over to the healthy follower.
    let mut set: ReplicaSet<Box<dyn InfluenceService>> = ReplicaSet::new(vec![
        ("pong".to_string(), Box::new(PongNode)),
        ("local".to_string(), Box::new(local_backend())),
    ]);
    assert!(matches!(set.estimate(&[0]), Err(ServiceError::Protocol(_))));
    assert_eq!(set.active_label(), "pong");
}
