//! End-to-end observability: the `Metrics` request and the scrape endpoint
//! reflect served traffic, trace ids propagate across the sharded wire into
//! every hop's slow-query log, and tracing never perturbs response bytes.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use imserve::client::RemoteService;
use imserve::engine::QueryEngine;
use imserve::index::{build_dataset_index, parse_dataset, parse_model, IndexArtifact};
use imserve::protocol::{Request, RequestFrame, TopKAlgorithm, PROTOCOL_VERSION};
use imserve::service::InfluenceService;
use imserve::shard::ShardedService;
use imserve::{protocol, reactor, ReactorConfig, ServingMetrics};

const POOL: usize = 2_000;
const SEED: u64 = 7;

/// An engine whose slow-query threshold is zero, so every request is
/// retained with its full stage timeline.
fn observed_engine(artifact: IndexArtifact) -> Arc<QueryEngine> {
    Arc::new(
        QueryEngine::builder(artifact)
            .metrics(ServingMetrics::new(0))
            .build()
            .unwrap(),
    )
}

#[test]
fn metrics_request_and_scrape_endpoint_reflect_served_traffic() {
    let engine = observed_engine(build_dataset_index("karate", "uc0.1", POOL, SEED).unwrap());
    let handle = reactor::spawn(
        "127.0.0.1:0",
        Arc::clone(&engine),
        &ReactorConfig {
            compute_threads: 2,
            ..ReactorConfig::default()
        },
    )
    .unwrap();
    let ops_engine = Arc::clone(&engine);
    let scrape_addr = imserve::spawn_ops_endpoint("127.0.0.1:0", move |path| {
        imserve::route_ops_request(
            path,
            || ops_engine.render_metrics(),
            || ops_engine.obs().event_log.render_json_lines(),
            || ops_engine.health(),
        )
    })
    .unwrap();

    let mut service = RemoteService::connect(handle.addr()).unwrap();
    // Whether a completion ends a parked wait, or lands while the loop is
    // still busy from the tick that dispatched it, is a race a preempted
    // loop thread loses every time: ping-pong until one has ended a wait
    // (`Events` goes to the compute pool, unlike `Ping`, and is in none of
    // the lanes checked below).
    imserve::testkit::wait_until("a completion wake-up", Duration::from_secs(20), || {
        service.call(&Request::Events).unwrap();
        engine.obs().reactor_wakeups_completion.get() >= 1
    });
    service.estimate(&[0]).unwrap();
    service.estimate(&[0, 33]).unwrap();
    // Same selection twice: a cache miss then a hit.
    service.top_k(2, TopKAlgorithm::Greedy).unwrap();
    service.top_k(2, TopKAlgorithm::Greedy).unwrap();
    let stats = service.stats().unwrap();
    assert!(stats.requests_by_type.estimate >= 2);
    assert_eq!(stats.topk_cache_hits, 1);

    // The wire `Metrics` snapshot carries the same counters the engine saw.
    let report = service.metrics().unwrap();
    let estimate_lane = report.counter("imserve_requests_total{type=\"estimate\"}");
    assert_eq!(estimate_lane, 2);
    assert_eq!(report.counter("imserve_topk_cache_hits_total"), 1);
    assert_eq!(report.counter("imserve_topk_cache_misses_total"), 1);
    let latency = report
        .histogram("imserve_request_latency_micros{type=\"estimate\"}")
        .expect("estimate latency histogram");
    assert_eq!(latency.count, 2);
    // Threshold zero: every request is in the slow log, with stage
    // timelines whose names match the serving pipeline.
    assert!(!report.slow_queries.is_empty());
    let slow = report.slow_queries.last().unwrap();
    let stages: Vec<&str> = slow.stages.iter().map(|s| s.stage.as_str()).collect();
    assert!(stages.contains(&"execute"), "stages: {stages:?}");
    assert!(stages.contains(&"parse"), "stages: {stages:?}");
    // The reactor accounts for its own waiting: it woke for sockets and for
    // completions, each wake-up a timed wait, and never for a timer.
    let woke = |cause: &str| {
        report.counter(&format!(
            "imserve_reactor_wakeups_total{{cause=\"{cause}\"}}"
        ))
    };
    assert!(
        woke("socket") >= 1 && woke("completion") >= 1,
        "socket {}, completion {}",
        woke("socket"),
        woke("completion")
    );
    assert_eq!(woke("timeout"), 0);
    let waits = report
        .histogram("imserve_reactor_poll_wait_micros")
        .expect("poll wait histogram");
    let ready = report
        .histogram("imserve_reactor_ready_sockets")
        .expect("ready sockets histogram");
    assert!(waits.count >= 2 && ready.count >= 2);
    assert_eq!(report.counter("imserve_accept_errors_total"), 0);

    // The plaintext scrape renders the same families Prometheus-style.
    let mut stream = TcpStream::connect(scrape_addr).unwrap();
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\nHost: test\r\n\r\n")
        .unwrap();
    let mut body = String::new();
    stream.read_to_string(&mut body).unwrap();
    assert!(body.starts_with("HTTP/1.0 200 OK"), "head: {body:.60}");
    for needle in [
        "# HELP imserve_requests_total Lifetime requests handled, by request type.",
        "# TYPE imserve_requests_total counter",
        "imserve_requests_total{type=\"estimate\"} 2",
        "# TYPE imserve_request_latency_micros histogram",
        "imserve_topk_cache_hits_total 1",
        "imserve_uptime_seconds",
        "imserve_queue_wait_micros",
        "# TYPE imserve_reactor_wakeups_total counter",
        "imserve_reactor_wakeups_total{cause=\"timeout\"} 0",
        "# TYPE imserve_reactor_poll_wait_micros histogram",
        "# TYPE imserve_reactor_ready_sockets histogram",
        "imserve_accept_errors_total 0",
        "# slowlog trace=0x",
    ] {
        assert!(body.contains(needle), "scrape missing {needle:?}:\n{body}");
    }
    handle.shutdown();
}

/// `Stats` agrees with itself and with the metric lanes: after one request
/// of every kind, `requests`, the per-type split and the
/// `imserve_requests_total` family are the same number (they are the same
/// counters), `Health` and `Events` included.
#[test]
fn stats_total_equals_its_per_type_split_and_the_request_lanes() {
    let artifact = build_dataset_index("karate", "uc0.1", POOL, SEED).unwrap();
    let engine = observed_engine(artifact.clone());
    let path = std::env::temp_dir().join(format!("imserve-every-kind-{}.imx", std::process::id()));
    artifact.save(path.to_str().unwrap()).unwrap();
    let reload = format!(r#"{{"Reload":{{"path":{:?}}}}}"#, path.to_str().unwrap());
    let script = [
        r#""Ping""#,
        r#"{"Hello":{"max_version":2}}"#,
        r#""Info""#,
        r#"{"Estimate":{"seeds":[0,33]}}"#,
        r#"{"TopK":{"k":2,"algorithm":"Greedy"}}"#,
        r#"{"Gains":{"selected":[0]}}"#,
        r#"{"GainCandidates":{"selected":[0],"limit":4,"probe":[33]}}"#,
        r#""Health""#,
        r#""Events""#,
        reload.as_str(),
        r#"{"Promote":{"expected_epoch":null}}"#,
        r#"{"MutateBatch":{"deltas":[{"DeleteEdge":{"source":0,"target":1}}]}}"#,
        r#""Compact""#,
        r#""Stats""#,
        r#""Metrics""#,
    ];
    let mut scratch = engine.new_scratch();
    for line in script {
        let request: Request = protocol::decode(line).unwrap();
        let response = engine.handle(&request, &mut scratch);
        let failed = matches!(response, imserve::Response::Error { .. });
        assert!(!failed, "{line} -> {response:?}");
    }
    let _ = std::fs::remove_file(&path);

    // The reads count themselves: this `stats` is the 16th request ...
    let stats = engine.stats();
    assert_eq!(stats.requests, script.len() as u64 + 1);
    assert_eq!(stats.requests_by_type.total(), stats.requests);
    let by_type = stats.requests_by_type;
    assert_eq!((by_type.health, by_type.events, by_type.stats), (1, 1, 2));
    assert_eq!((by_type.gains, by_type.gain_candidates), (1, 1));
    // ... and this `metrics_report` the 17th, on its own lane.
    let report = engine.metrics_report();
    let lanes = (report.counters.iter()).filter(|c| c.name.starts_with("imserve_requests_total{"));
    assert_eq!(lanes.map(|c| c.value).sum::<u64>() - 1, stats.requests);
    // No front end ran, and the scrape is shaped as if one had: the
    // reactor's families are registered with the rest and read zero.
    let reactor = (report.counters.iter())
        .filter(|c| c.name.starts_with("imserve_reactor_wakeups_total{"))
        .map(|c| c.value);
    assert_eq!(reactor.collect::<Vec<_>>(), [0, 0, 0]);
    let waits = report.histogram("imserve_reactor_poll_wait_micros");
    assert_eq!(waits.map(|h| h.count), Some(0));
}

/// The pool store's first metric families: a tiered engine counts the reads
/// and bytes it takes from its cold file, on `/metrics` and in the typed
/// `Metrics` reply alike; a fully resident engine registers the same
/// families and leaves them at zero.
#[test]
fn cold_pool_reads_are_counted_and_published() {
    use im_core::PoolLayout;

    let raw = build_dataset_index("karate", "uc0.1", POOL, SEED).unwrap();
    let mut tiered = raw.clone();
    tiered.convert_pool_layout(PoolLayout::Tiered);
    let path =
        std::env::temp_dir().join(format!("imserve-cold-metrics-{}.imx", std::process::id()));
    tiered.save(path.to_str().unwrap()).unwrap();
    let loaded = IndexArtifact::load(path.to_str().unwrap()).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(loaded.pool_layout(), PoolLayout::Tiered);

    let resident = observed_engine(raw);
    let mut local = imserve::LocalService::new(Arc::clone(&resident));
    local.top_k(2, TopKAlgorithm::Greedy).unwrap();
    let report = resident.metrics_report();
    assert_eq!(report.counter("imserve_pool_cold_reads_total"), 0);
    assert_eq!(report.counter("imserve_pool_cold_read_bytes_total"), 0);
    assert!(resident
        .render_metrics()
        .contains("# TYPE imserve_pool_cold_reads_total counter"));

    let cold = observed_engine(loaded);
    let mut local = imserve::LocalService::new(Arc::clone(&cold));
    // A pass (greedy rounds sweep the cold region) ...
    local.top_k(2, TopKAlgorithm::Greedy).unwrap();
    let after_pass = cold.metrics_report();
    let pass_reads = after_pass.counter("imserve_pool_cold_reads_total");
    let pass_bytes = after_pass.counter("imserve_pool_cold_read_bytes_total");
    assert!(pass_reads > 0 && pass_bytes >= pass_reads);
    // ... and point reads (one per cold seed list) both land in the counters.
    local.estimate(&[0, 33]).unwrap();
    let after_points = cold.metrics_report();
    assert_eq!(
        after_points.counter("imserve_pool_cold_reads_total"),
        pass_reads + 2
    );
    assert!(after_points.counter("imserve_pool_cold_read_bytes_total") > pass_bytes);
    let text = cold.render_metrics();
    for needle in [
        "# TYPE imserve_pool_cold_reads_total counter",
        "# TYPE imserve_pool_cold_read_bytes_total counter",
    ] {
        assert!(text.contains(needle), "scrape missing {needle:?}");
    }
}

#[test]
fn trace_ids_propagate_through_the_sharded_wire_into_every_slow_log() {
    // Two real shard artifacts over one global pool, each behind its own
    // TCP server, routed by a ShardedService — the full production topology.
    let ds = parse_dataset("karate").unwrap();
    let model = parse_model("uc0.1").unwrap();
    let mut engines = Vec::new();
    let mut handles = Vec::new();
    for index in 0..2usize {
        let graph = ds.influence_graph(model, SEED);
        let artifact =
            IndexArtifact::build_shard(ds.name(), &model.label(), graph, POOL, SEED, index, 2);
        let engine = observed_engine(artifact);
        engines.push(Arc::clone(&engine));
        handles.push(reactor::spawn("127.0.0.1:0", engine, &ReactorConfig::default()).unwrap());
    }
    let shards: Vec<RemoteService> = handles
        .iter()
        .map(|h| RemoteService::connect(h.addr()).unwrap())
        .collect();
    let mut router = ShardedService::new(shards).unwrap();

    const TRACE: u64 = 0x00C0FFEE;
    router.set_trace(Some(TRACE));
    router.estimate(&[0, 5]).unwrap();

    // Every shard server retained the hop under the router's trace id — the
    // property that lets one logical request be stitched across machines.
    for (i, engine) in engines.iter().enumerate() {
        let traces: Vec<u64> = engine
            .obs()
            .slow_log
            .entries()
            .iter()
            .map(|r| r.trace)
            .collect();
        assert!(
            traces.contains(&TRACE),
            "shard {i} slow log missing trace {TRACE:#x}: {traces:?}"
        );
    }

    // Untraced requests mint fresh ids — never zero, never the stale one.
    router.set_trace(None);
    router.estimate(&[1]).unwrap();
    let fresh: Vec<u64> = engines[0]
        .obs()
        .slow_log
        .entries()
        .iter()
        .map(|r| r.trace)
        .collect();
    assert!(fresh.iter().all(|&t| t != 0));
    for handle in handles {
        handle.shutdown();
    }
}

#[test]
fn traced_frames_get_byte_identical_responses_to_untraced_ones() {
    let engine = observed_engine(build_dataset_index("karate", "uc0.1", POOL, SEED).unwrap());
    let handle = reactor::spawn("127.0.0.1:0", engine, &ReactorConfig::default()).unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();

    let request = Request::Estimate { seeds: vec![0, 9] };
    let untraced = protocol::encode(&RequestFrame::new(42, request.clone())).unwrap();
    let traced = protocol::encode(&RequestFrame {
        v: PROTOCOL_VERSION,
        id: 42,
        req: request,
        trace: Some(0xDEAD_BEEF),
    })
    .unwrap();
    assert_ne!(untraced, traced, "the t field must be on the wire");

    stream
        .write_all(format!("{untraced}\n{traced}\n").as_bytes())
        .unwrap();
    let mut reader = BufReader::new(stream);
    let mut first = String::new();
    reader.read_line(&mut first).unwrap();
    let mut second = String::new();
    reader.read_line(&mut second).unwrap();
    assert_eq!(
        first, second,
        "tracing must never change a response's bytes"
    );
    handle.shutdown();
}

/// The write path is bounded by the batch, shown by count: N durable
/// batches, a recovery replaying them and a follower applying them each
/// perform zero O(n + m) lineage passes after engine construction, while the
/// per-batch WAL and dirty-set histograms see every batch. Only `reload`
/// (which must hash the incoming artifact) moves the counter.
#[test]
fn durable_batches_replay_and_replication_never_rehash_the_graph() {
    use imgraph::GraphDelta;
    use imserve::wal::WriteAheadLog;

    const FULL_HASHES: &str = "imserve_lineage_full_hashes_total";
    const BATCHES: u64 = 5;
    let base = build_dataset_index("karate", "uc0.1", POOL, SEED).unwrap();
    let wal_path =
        std::env::temp_dir().join(format!("imserve-lineage-count-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&wal_path);

    let leader = QueryEngine::builder(base.clone())
        .wal(&wal_path)
        .build()
        .unwrap();
    assert_eq!(leader.metrics_report().counter(FULL_HASHES), 1);
    for i in 0..BATCHES as u32 {
        let batch = [
            GraphDelta::InsertEdge {
                source: i,
                target: 33 - i,
                probability: 0.5,
            },
            GraphDelta::SetProbability {
                source: i,
                target: 33 - i,
                probability: 0.25,
            },
        ];
        leader.mutate_batch(&batch).unwrap();
    }
    let report = leader.metrics_report();
    assert_eq!(report.counter(FULL_HASHES), 1, "mutations must not rehash");
    let appends = report.histogram("imserve_wal_append_micros").unwrap();
    assert_eq!(appends.count, BATCHES);
    let dirty = report.histogram("imserve_mutate_resampled_sets").unwrap();
    assert_eq!(dirty.count, BATCHES);
    assert_eq!(dirty.sum, report.counter("imserve_sets_resampled_total"));
    let text = leader.render_metrics();
    for needle in [
        "# TYPE imserve_lineage_full_hashes_total counter",
        "# TYPE imserve_wal_append_micros histogram",
        "# TYPE imserve_mutate_resampled_sets histogram",
    ] {
        assert!(text.contains(needle), "scrape missing {needle:?}");
    }

    // Hot-swapping an equal artifact hashes the incoming graph, once.
    let artifact = leader.state().to_artifact();
    leader.reload(artifact).unwrap();
    assert_eq!(leader.metrics_report().counter(FULL_HASHES), 2);
    let epoch = leader.epoch();
    let top_k = leader.top_k(3, TopKAlgorithm::Greedy).unwrap();
    drop(leader);

    // Recovery: the base artifact plus R replayed records, one construction.
    let recovered = QueryEngine::builder(base.clone())
        .wal(&wal_path)
        .build()
        .unwrap();
    assert_eq!(recovered.epoch(), epoch);
    assert_eq!(recovered.metrics_report().counter(FULL_HASHES), 1);
    assert_eq!(recovered.top_k(3, TopKAlgorithm::Greedy).unwrap(), top_k);
    let identity = recovered.identity();
    drop(recovered);

    // A follower applying the same R records off the stream.
    let records = WriteAheadLog::recover(&wal_path, &identity, SEED)
        .unwrap()
        .records;
    assert_eq!(records.len() as u64, BATCHES);
    let follower = QueryEngine::builder(base).read_only(true).build().unwrap();
    for record in &records {
        follower.apply_replicated(record).unwrap().unwrap();
    }
    assert_eq!(follower.epoch(), epoch);
    assert_eq!(follower.metrics_report().counter(FULL_HASHES), 1);
    assert_eq!(follower.top_k(3, TopKAlgorithm::Greedy).unwrap(), top_k);
    let _ = std::fs::remove_file(&wal_path);
}
