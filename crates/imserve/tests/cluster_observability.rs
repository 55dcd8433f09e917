//! The cluster observability plane, end to end: a single scrape of the
//! router shows merged cluster families next to per-`shard`-labelled series
//! that sum to them, `/readyz` degrades loudly (naming the shard and why)
//! when a backend dies and recovers when it returns, and a torn broadcast
//! over real TCP shards lands in the router's event ring carrying the
//! originating trace id. And the counts that make a routed selection's cost
//! an observable: requests by type and wire bytes per shard.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};

use imgraph::GraphDelta;
use imserve::client::{ReconnectingService, RemoteService};
use imserve::engine::QueryEngine;
use imserve::index::{parse_dataset, parse_model, IndexArtifact};
use imserve::protocol::{Request, Response, TopKAlgorithm};
use imserve::replica::ReplicaSet;
use imserve::service::{InfluenceService, LocalService, ServiceError, ServiceResult};
use imserve::shard::ShardedService;
use imserve::{reactor, ReactorConfig, ServingMetrics};

const POOL: usize = 2_000;
const SEED: u64 = 7;
const SHARDS: usize = 2;

fn shard_artifact(dataset: &str, model: &str, index: usize) -> IndexArtifact {
    let ds = parse_dataset(dataset).unwrap();
    let model = parse_model(model).unwrap();
    let graph = ds.influence_graph(model, SEED);
    IndexArtifact::build_shard(ds.name(), &model.label(), graph, POOL, SEED, index, SHARDS)
}

/// Two real shard servers over one global pool, plus their engines (for
/// direct inspection) — the full production topology.
fn tcp_topology() -> (Vec<Arc<QueryEngine>>, Vec<imserve::ServerHandle>) {
    tcp_topology_over("karate", "uc0.1")
}

fn tcp_topology_over(
    dataset: &str,
    model: &str,
) -> (Vec<Arc<QueryEngine>>, Vec<imserve::ServerHandle>) {
    let mut engines = Vec::new();
    let mut handles = Vec::new();
    for index in 0..SHARDS {
        let engine = Arc::new(
            QueryEngine::builder(shard_artifact(dataset, model, index))
                .metrics(ServingMetrics::new(0))
                .build()
                .unwrap(),
        );
        engines.push(Arc::clone(&engine));
        handles.push(reactor::spawn("127.0.0.1:0", engine, &ReactorConfig::default()).unwrap());
    }
    (engines, handles)
}

/// One HTTP/1.0 request against an ops endpoint: `(status line, body)`.
fn scrape(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    (
        head.lines().next().unwrap_or_default().to_string(),
        body.to_string(),
    )
}

#[test]
fn federated_scrape_shows_per_shard_series_summing_to_merged_values() {
    let (_engines, handles) = tcp_topology();
    let shards: Vec<RemoteService> = handles
        .iter()
        .map(|h| RemoteService::connect(h.addr()).unwrap())
        .collect();
    let mut router = ShardedService::new(shards).unwrap();
    router.estimate(&[0, 5]).unwrap();
    router.estimate(&[3]).unwrap();
    router.top_k(2, TopKAlgorithm::Greedy).unwrap();

    let report = router.cluster_metrics();
    // Counters: the unlabelled merged series equals the sum of its
    // shard-labelled copies (the router itself never bumps engine lanes).
    let labelled_sum: u64 = (0..SHARDS)
        .map(|i| {
            report.counter(&format!(
                "imserve_requests_total{{shard=\"{i}\",type=\"estimate\"}}"
            ))
        })
        .sum();
    assert!(
        labelled_sum >= 2 * SHARDS as u64,
        "fan-out reached every shard"
    );
    assert_eq!(
        report.counter("imserve_requests_total{type=\"estimate\"}"),
        labelled_sum,
        "merged counter equals the sum of its per-shard series"
    );
    // Histograms: cumulative buckets merged elementwise, so the merged
    // count is the sum of the shard counts.
    let merged = report
        .histogram("imserve_request_latency_micros{type=\"estimate\"}")
        .expect("merged estimate latency histogram");
    let shard_counts: u64 = (0..SHARDS)
        .map(|i| {
            report
                .histogram(&format!(
                    "imserve_request_latency_micros{{shard=\"{i}\",type=\"estimate\"}}"
                ))
                .expect("per-shard latency histogram")
                .count
        })
        .sum();
    assert_eq!(merged.count, shard_counts);
    // Every shard answered, so both availability gauges read 1.
    for i in 0..SHARDS {
        assert_eq!(
            report.gauge(&format!("imserve_shard_up{{shard=\"{i}\"}}")),
            1
        );
    }

    // The same report renders as a well-formed scrape, byte-stable across
    // renders of the same snapshot.
    let rendered = report.render_prometheus();
    assert_eq!(rendered, report.render_prometheus());
    for needle in [
        // The one renderer: a federated scrape carries the help text too.
        "# HELP imserve_requests_total Lifetime requests handled, by request type.",
        "# HELP imserve_shard_up ",
        "# TYPE imserve_requests_total counter",
        "imserve_requests_total{shard=\"0\",type=\"estimate\"}",
        "imserve_requests_total{shard=\"1\",type=\"estimate\"}",
        "imserve_shard_up{shard=\"0\"} 1",
        "imserve_shard_fanouts_total",
    ] {
        assert!(
            rendered.contains(needle),
            "scrape missing {needle:?}:\n{rendered}"
        );
    }
    for handle in handles {
        handle.shutdown();
    }
}

/// Output-sensitivity as a count, through the production router shape
/// (`ShardedService<ReplicaSet<ReconnectingService>>`, where a forgotten
/// forwarder would silently keep shipping vectors) on a 5 242-vertex graph:
/// one routed `TopK(k=4)` asks no shard for a gain vector, asks each for at
/// most two candidate rounds per pick, and moves at most 64 KiB of replies
/// in total — where four rounds of full vectors are ~40 KB *per shard per
/// round*. The same counters reach the federated scrape, per shard and
/// summed. (Weighted cascade, because the gate is on the merge, not the
/// fallback: under `uc0.1` this graph's giant component leaves every round
/// after the first with hundreds of vertices tied at gain <= 4, which the
/// bounds rightly refuse to separate.)
#[test]
fn a_routed_topk_ships_candidates_not_gain_vectors() {
    const K: u64 = 4;
    let (engines, handles) = tcp_topology_over("ca-grqc", "iwc");
    let shards: Vec<ReplicaSet<ReconnectingService>> = handles
        .iter()
        .map(|h| {
            let addr = h.addr().to_string();
            ReplicaSet::new(vec![(addr.clone(), ReconnectingService::new(addr))])
        })
        .collect();
    let mut router = ShardedService::new(shards).unwrap();
    assert!(router.info().unwrap().num_vertices >= 5_000);

    let counts = |engine: &Arc<QueryEngine>| {
        let obs = engine.obs();
        (
            obs.gains.count.get(),
            obs.gain_candidates.count.get(),
            obs.wire_bytes_sent.get(),
        )
    };
    let before: Vec<_> = engines.iter().map(counts).collect();
    let routed = router.top_k(K as usize, TopKAlgorithm::Greedy).unwrap();
    let after: Vec<_> = engines.iter().map(counts).collect();

    let mut sent = 0;
    for (i, (b, a)) in before.iter().zip(&after).enumerate() {
        assert_eq!(a.0, b.0, "shard {i} was asked for a full gain vector");
        let rounds = a.1 - b.1;
        assert!((K..=2 * K).contains(&rounds), "shard {i}: {rounds} rounds");
        sent += a.2 - b.2;
    }
    assert!(sent <= 64 * 1024, "{sent} reply bytes for one TopK({K})");
    assert_eq!(router.obs().router_rounds_threshold.get(), K);
    assert_eq!(router.obs().router_rounds_full.get(), 0);

    // Same seeds as one engine over the whole pool.
    let ds = parse_dataset("ca-grqc").unwrap();
    let model = parse_model("iwc").unwrap();
    let whole = IndexArtifact::build(
        ds.name(),
        &model.label(),
        ds.influence_graph(model, SEED),
        POOL,
        SEED,
    );
    let expected = LocalService::new(Arc::new(QueryEngine::builder(whole).build().unwrap()))
        .top_k(K as usize, TopKAlgorithm::Greedy)
        .unwrap();
    assert_eq!(routed.seeds, expected.seeds);
    assert_eq!(routed.spread.to_bits(), expected.spread.to_bits());

    // The federated scrape shows the bytes per shard and their sum, and the
    // router's own round counters.
    let report = router.cluster_metrics();
    for family in [
        "imserve_wire_bytes_sent_total",
        "imserve_wire_bytes_received_total",
    ] {
        let per_shard: u64 = (0..SHARDS)
            .map(|i| report.counter(&format!("{family}{{shard=\"{i}\"}}")))
            .sum();
        assert!(per_shard > 0, "{family}");
        assert_eq!(report.counter(family), per_shard, "{family}");
    }
    assert_eq!(
        report.counter("imserve_router_topk_rounds_total{path=\"threshold\"}"),
        K
    );
    for handle in handles {
        handle.shutdown();
    }
}

#[test]
fn torn_broadcast_event_carries_the_originating_trace_over_tcp() {
    let (_engines, mut handles) = tcp_topology();
    let shards: Vec<RemoteService> = handles
        .iter()
        .map(|h| RemoteService::connect(h.addr()).unwrap())
        .collect();
    let mut router = ShardedService::new(shards).unwrap();
    const TRACE: u64 = 0x00C0_FFEE;
    router.set_trace(Some(TRACE));

    // Kill shard 1's server mid-deployment, then broadcast a valid batch:
    // shard 0 applies it, shard 1's leg dies — a genuinely torn broadcast.
    handles.remove(1).shutdown();
    let batch = vec![GraphDelta::InsertEdge {
        source: 16,
        target: 0,
        probability: 0.9,
    }];
    let err = router.mutate_batch(&batch).unwrap_err();
    assert!(matches!(err, ServiceError::Shard(_)), "got {err:?}");
    assert!(err.to_string().contains("broadcast torn"), "{err}");

    // The router's event ring retained the episode under the caller's
    // trace id, naming the shard that tore it.
    let events = router.events().unwrap();
    let torn = events
        .iter()
        .find(|e| e.code == "torn_broadcast")
        .expect("torn_broadcast event recorded");
    assert_eq!(torn.trace, TRACE, "event carries the originating trace");
    assert_eq!(torn.level, "error");
    assert_eq!(torn.field("shard"), Some("1"));
    // The dead leg itself was also logged, with the same trace.
    assert!(events
        .iter()
        .any(|e| e.code == "shard_fanout_error" && e.trace == TRACE));
    for handle in handles {
        handle.shutdown();
    }
}

/// A mock shard: a healthy [`LocalService`] whose requests can be made to
/// fail on demand (the connection-dropped shape of a dead backend).
struct DroppableShard {
    inner: LocalService,
    dropped: Arc<Mutex<bool>>,
}

impl DroppableShard {
    fn gate(&self) -> ServiceResult<()> {
        if *self.dropped.lock().unwrap() {
            return Err(ServiceError::Transport(std::io::Error::new(
                std::io::ErrorKind::ConnectionAborted,
                "connection reset by shard",
            )));
        }
        Ok(())
    }
}

impl InfluenceService for DroppableShard {
    fn call(&mut self, request: &Request) -> ServiceResult<Response> {
        self.gate()?;
        self.inner.call(request)
    }
}

#[test]
fn readyz_degrades_naming_the_dead_shard_and_recovers() {
    let mut switches = Vec::new();
    let shards: Vec<DroppableShard> = (0..3)
        .map(|i| {
            let ds = parse_dataset("karate").unwrap();
            let model = parse_model("uc0.1").unwrap();
            let graph = ds.influence_graph(model, SEED);
            let artifact =
                IndexArtifact::build_shard(ds.name(), &model.label(), graph, 3_000, SEED, i, 3);
            let dropped = Arc::new(Mutex::new(false));
            switches.push(Arc::clone(&dropped));
            DroppableShard {
                inner: LocalService::new(Arc::new(QueryEngine::builder(artifact).build().unwrap())),
                dropped,
            }
        })
        .collect();
    let router = Arc::new(Mutex::new(ShardedService::new(shards).unwrap()));
    let endpoint = Arc::clone(&router);
    let addr = imserve::spawn_ops_endpoint("127.0.0.1:0", move |path| {
        let metrics = Arc::clone(&endpoint);
        let events = Arc::clone(&endpoint);
        let health = Arc::clone(&endpoint);
        imserve::route_ops_request(
            path,
            move || {
                metrics
                    .lock()
                    .unwrap()
                    .cluster_metrics()
                    .render_prometheus()
            },
            move || events.lock().unwrap().obs().event_log.render_json_lines(),
            move || {
                health
                    .lock()
                    .unwrap()
                    .health()
                    .expect("router health never fails")
            },
        )
    })
    .unwrap();

    // Healthy cluster: live, ready, and scraping works on every path.
    let (status, body) = scrape(addr, "/healthz");
    assert!(status.contains("200"), "{status}");
    assert_eq!(body, "ok\n");
    let (status, body) = scrape(addr, "/readyz");
    assert!(status.contains("200"), "{status}");
    assert_eq!(body, "ready\n");
    let (status, _) = scrape(addr, "/metrics");
    assert!(status.contains("200"), "{status}");
    let (status, _) = scrape(addr, "/no-such-path");
    assert!(status.contains("404"), "{status}");

    // Drop shard 1: readiness flips to 503 naming the shard and why, while
    // liveness stays green (the process is still answering).
    *switches[1].lock().unwrap() = true;
    let (status, body) = scrape(addr, "/readyz");
    assert!(status.contains("503"), "{status}");
    assert!(body.starts_with("not ready\n"), "{body}");
    assert!(
        body.contains("shard_1_reachable"),
        "names the signal: {body}"
    );
    assert!(body.contains("unreachable"), "names the cause: {body}");
    assert!(
        !body.contains("shard_0_reachable"),
        "healthy signals stay quiet: {body}"
    );
    let (status, _) = scrape(addr, "/healthz");
    assert!(status.contains("200"), "{status}");
    // The federated scrape keeps answering, with the dead shard's
    // availability gauge at 0 and its peers' at 1.
    let (status, body) = scrape(addr, "/metrics");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("imserve_shard_up{shard=\"1\"} 0"), "{body}");
    assert!(body.contains("imserve_shard_up{shard=\"0\"} 1"), "{body}");
    // The failed probe legs landed in the event ring, served on /events.
    let (status, body) = scrape(addr, "/events");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("shard_fanout_error"), "{body}");

    // The shard comes back: readiness recovers on its own.
    *switches[1].lock().unwrap() = false;
    let (status, body) = scrape(addr, "/readyz");
    assert!(status.contains("200"), "{status}");
    assert_eq!(body, "ready\n");
}
