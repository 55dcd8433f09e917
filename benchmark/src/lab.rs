//! The per-layer measurements of the traced run.
//!
//! Each number here is the benchmark timing one public call into a layer, or
//! reading a counter the layer already exports — named `<module>.<metric>`
//! as listed in [`crate::metrics::PER_LAYER`]. The lab builds its own copy
//! of the serving fixture and walks the layers bottom-up, so every traced
//! run, whatever its workload, reports every per-layer metric.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use im_core::{
    Algorithm, Backend, InfluenceOracle, OneshotEstimator, PoolLayout, SnapshotEstimator,
};
use imdyn::DynamicOracle;
use imgraph::{DeltaLog, GraphDelta, InfluenceGraph, MutableInfluenceGraph};
use imnet::{Dataset, ProbabilityModel};
use imrand::{seq::sample_distinct, Rng32};
use imserve::client::ServiceConnection;
use imserve::protocol::{self, Outcome, Request, RequestFrame, Response, ResponseFrame};
use imserve::server::{self, ServerConfig};
use imserve::testkit::TestCluster;
use imserve::wal::WriteAheadLog;
use imserve::{
    IndexArtifact, InfluenceService, LocalService, QueryEngine, RemoteService, ServerHandle,
    ShardedService, PROTOCOL_VERSION,
};

use crate::affinity;
use crate::metrics::Metric;
use crate::ops::{self, DeltaStream, Op, TOPK_ALGORITHM};
use crate::stats::{median, Samples};
use crate::trace::Tracer;
use crate::wire::WireClient;
use crate::workloads::{
    self, err, spawn_reactor, Res, Scale, BASE_SEED, MODEL, PAPER_K, SHARDS, SMOKE,
};

/// Batches of the `write_mixed` delta stream every write-path probe replays
/// (even ones re-weight, odd ones are structural).
const BATCHES: usize = 8;

struct Lab {
    metrics: Vec<Metric>,
}

impl Lab {
    fn put(&mut self, name: &str, value: f64, n: usize) {
        self.metrics.push(Metric::layer(name, value, n));
    }
}

fn secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let began = Instant::now();
    let out = f();
    (out, began.elapsed().as_secs_f64())
}

/// Median wall seconds of `reps` runs of `f`.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps).map(|_| secs(&mut f).1).collect();
    median(&times)
}

/// Nanoseconds per call over `iters` back-to-back calls.
fn ns_per_call(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let began = Instant::now();
    for i in 0..iters {
        f(i);
    }
    began.elapsed().as_nanos() as f64 / iters as f64
}

fn seed_sets(n: usize, size: usize, count: usize, seed: u64, stream: u64) -> Vec<Vec<u32>> {
    let mut rng = ops::stream_rng(seed, stream);
    (0..count)
        .map(|_| sample_distinct(n, size.min(n), &mut rng))
        .collect()
}

/// `(syscr, rchar)` of this process, when the kernel exposes them.
fn proc_io() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/self/io").ok()?;
    let field = |name: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().parse::<u64>().ok())
    };
    Some((field("syscr:")?, field("rchar:")?))
}

fn estimate_request(seeds: &[u32]) -> Request {
    Request::Estimate {
        seeds: seeds.to_vec(),
    }
}

/// Closed-loop ping-pong of `count` 3-seed estimates over one connection.
fn ping_pong(client: &mut WireClient, queries: &[Vec<u32>], count: usize) -> Res<Samples> {
    let mut rtt = Samples::default();
    for i in 0..count {
        let began = Instant::now();
        client.call(&estimate_request(&queries[i % queries.len()]))?;
        rtt.push(began.elapsed());
    }
    Ok(rtt)
}

/// Requests per second of two connections ping-ponging for `seconds`.
fn rps_two_connections(
    addr: std::net::SocketAddr,
    queries: &[Vec<u32>],
    seconds: f64,
) -> Res<(f64, usize)> {
    let counts: Vec<Res<usize>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = WireClient::connect(addr)?;
                    let began = Instant::now();
                    let mut done = 0usize;
                    while began.elapsed().as_secs_f64() < seconds {
                        client.call(&estimate_request(&queries[(done + c) % queries.len()]))?;
                        done += 1;
                    }
                    Ok(done)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ping-pong thread panicked"))
            .collect()
    });
    let mut total = 0;
    for count in counts {
        total += count?;
    }
    Ok((total as f64 / seconds, total))
}

/// Run every per-layer probe. `seconds` scales the time-boxed probes (the
/// ping-pongs); everything else is sized by `scale`. `workload_hit_share` is
/// the traced workload's own `TopK` cache hit share, when an engine answered
/// its `TopK`s.
pub fn run(
    scale: &Scale,
    seed: u64,
    seconds: f64,
    workload_hit_share: Option<f64>,
) -> Res<Vec<Metric>> {
    let mut lab = Lab {
        metrics: Vec::new(),
    };
    // One CPU for the single-threaded probes, as in the pinned workloads;
    // the probes that use more say so themselves.
    affinity::pin(0);
    rand_layer(&mut lab, seed);
    paper_layers(&mut lab, seed);
    let graph = {
        let times: Vec<f64> = (0..2)
            .map(|_| secs(|| workloads::fixture_graph(scale)).1)
            .collect();
        lab.put("imexp.fixture.generate_s", median(&times), times.len());
        workloads::fixture_graph(scale)
    };
    let raw = oracle_layers(&mut lab, scale, seed, &graph)?;
    let batches: Vec<Vec<GraphDelta>> =
        DeltaStream::new(graph.graph(), BATCHES, &mut ops::stream_rng(seed, 300))
            .batches()
            .to_vec();
    write_layers(&mut lab, &graph, &raw, &batches)?;
    let artifact = IndexArtifact {
        meta: imserve::IndexMeta {
            graph_id: scale.name.to_string(),
            model: MODEL.to_string(),
            num_vertices: graph.num_vertices(),
            num_edges: graph.num_edges(),
            pool_size: scale.pool,
            base_seed: BASE_SEED,
        },
        graph: graph.clone(),
        oracle: raw,
        log: DeltaLog::new(),
        snapshot_epoch: 0,
        shard: None,
    };
    index_layers(&mut lab, &artifact)?;
    let stage_ns = protocol_layers(&mut lab, scale, seed, &artifact)?;
    engine_layers(
        &mut lab,
        scale,
        seed,
        &artifact,
        &batches,
        workload_hit_share,
    )?;
    front_end_layers(&mut lab, scale, seed, seconds, &artifact, stage_ns)?;
    drop(artifact);
    shard_layers(&mut lab, scale, seed, &graph)?;
    replication_layer(&mut lab, seed)?;
    obs_layer(&mut lab);
    Ok(lab.metrics)
}

fn rand_layer(lab: &mut Lab, seed: u64) {
    const DRAWS: usize = 10_000_000;
    let mut mt = imrand::Mt19937::seed_from_u64(seed);
    let mut acc = 0u32;
    let ns = ns_per_call(DRAWS, |_| acc ^= mt.next_u32());
    lab.put("imrand.mt19937.ns_per_u32", ns, DRAWS);
    let mut pcg = imrand::Pcg32::seed_from_u64(seed);
    let ns = ns_per_call(DRAWS, |_| acc ^= pcg.next_u32());
    lab.put("imrand.pcg.ns_per_u32", ns, DRAWS);
    let mut wide = 0u64;
    let ns = ns_per_call(DRAWS / 10, |i| wide ^= imrand::derive_seed(seed, i as u64));
    lab.put("imrand.splitmix.derive_ns", ns, DRAWS / 10);
    black_box((acc, wide));
}

/// `imgraph` live-edge sampling and the three estimators on `ba-s`.
fn paper_layers(lab: &mut Lab, seed: u64) {
    let ba = Dataset::BaSparse.influence_graph(ProbabilityModel::uc01(), BASE_SEED);
    let n = ba.num_vertices();
    let mut rng = imrand::default_rng(seed);

    let times: Vec<f64> = (0..200)
        .map(|_| secs(|| black_box(imgraph::live_edge::sample_snapshot(&ba, &mut rng))).1 * 1e3)
        .collect();
    lab.put("imgraph.live_edge.sample_ms", median(&times), times.len());

    const BETA: u64 = 64;
    let mut oneshot = OneshotEstimator::new(&ba, BETA, imrand::default_rng(seed));
    let (_, s) = secs(|| {
        for v in 0..200u32 {
            black_box(oneshot.estimate_set(&[v % n as u32]));
        }
    });
    lab.put(
        "im_core.oneshot.simulations_per_s",
        200.0 * BETA as f64 / s,
        200 * BETA as usize,
    );

    const TAU: u64 = 64;
    let times: Vec<f64> = (0..5)
        .map(|_| secs(|| black_box(SnapshotEstimator::new(&ba, TAU, &mut rng))).1)
        .collect();
    lab.put(
        "im_core.snapshot.build_ms_per_sample",
        median(&times) * 1e3 / TAU as f64,
        times.len(),
    );

    const THETA: u64 = 100_000;
    let (_, s) = secs(|| black_box(im_core::ris::generate_rr_sets(&ba, THETA, &mut rng)));
    lab.put(
        "im_core.ris.rr_sets_per_s",
        THETA as f64 / s,
        THETA as usize,
    );

    // One trial per approach on the `ba-s` rung: the paper's
    // implementation-independent costs, exact for a given `--seed`.
    let trial = |algorithm: Algorithm, index: u64| {
        algorithm.run(&ba, PAPER_K, imrand::derive_seed(seed, 1_000 + index))
    };
    let oneshot = trial(Algorithm::Oneshot { beta: 16 }, 0);
    let snapshot = trial(Algorithm::Snapshot { tau: 64 }, 1);
    let ris = trial(Algorithm::Ris { theta: 16_384 }, 2);
    let traversal =
        |r: &im_core::RunOutcome| (r.traversal_cost.vertices + r.traversal_cost.edges) as f64;
    let size = |r: &im_core::RunOutcome| (r.sample_size.vertices + r.sample_size.edges) as f64;
    lab.put(
        "im_core.greedy.estimate_calls_per_trial",
        oneshot.estimate_calls as f64,
        1,
    );
    lab.put(
        "im_core.cost.oneshot_traversal_per_trial",
        traversal(&oneshot),
        1,
    );
    lab.put(
        "im_core.cost.snapshot_traversal_per_trial",
        traversal(&snapshot),
        1,
    );
    lab.put("im_core.cost.ris_traversal_per_trial", traversal(&ris), 1);
    lab.put("im_core.cost.snapshot_sample_size", size(&snapshot), 1);
    lab.put("im_core.cost.ris_sample_size", size(&ris), 1);
}

/// One full pass over every posting list; returns `(ids visited, seconds)`.
fn scan_pass(oracle: &InfluenceOracle) -> (u64, f64) {
    let pool = oracle.pool();
    let mut ids = 0u64;
    let mut acc = 0u64;
    let (_, s) = secs(|| {
        for v in 0..oracle.num_vertices() as u32 {
            pool.for_each_posting_inline(v, |id| {
                ids += 1;
                acc ^= u64::from(id);
            });
        }
    });
    black_box(acc);
    (ids, s)
}

/// `coverage_gains`, one greedy round and the posting scan under the
/// oracle's current layout.
fn layout_probes(lab: &mut Lab, oracle: &InfluenceOracle, label: &str, scan_name: &str) {
    let s = median_secs(5, || {
        black_box(oracle.coverage_gains(&[]));
    });
    lab.put(
        &format!("im_core.oracle.coverage_gains_{label}_ms"),
        s * 1e3,
        5,
    );
    let s = median_secs(3, || {
        black_box(oracle.greedy_seed_set(4));
    });
    lab.put(
        &format!("im_core.oracle.greedy_round_{label}_ms"),
        s * 1e3 / 4.0,
        3,
    );
    let passes: Vec<(u64, f64)> = (0..3).map(|_| scan_pass(oracle)).collect();
    let ids = passes[0].0;
    let s = median(&passes.iter().map(|p| p.1).collect::<Vec<_>>());
    lab.put(scan_name, s * 1e9 / ids as f64, ids as usize);
}

/// `im_core::oracle` and `impool`: sampling, estimates, the three layouts,
/// the codec. Returns the raw oracle for the layers above.
fn oracle_layers(
    lab: &mut Lab,
    scale: &Scale,
    seed: u64,
    graph: &InfluenceGraph,
) -> Res<InfluenceOracle> {
    let sample = || {
        InfluenceOracle::builder(scale.pool)
            .seed(BASE_SEED)
            .backend(Backend::parallel())
            .incremental()
            .sample(graph)
    };
    affinity::spread(); // sampling uses every CPU, as every set-up does
    let times: Vec<f64> = (0..2).map(|_| secs(|| black_box(sample())).1).collect();
    lab.put(
        "im_core.oracle.sample_sets_per_s",
        scale.pool as f64 / median(&times),
        scale.pool,
    );
    let raw = sample();
    affinity::pin(0);
    let pool_size = raw.pool_size() as f64;

    const QUERIES: usize = 20_000;
    let mut scratch = raw.scratch();
    for (size, name) in [
        (1, "im_core.oracle.estimate1_ns"),
        (8, "im_core.oracle.estimate8_ns"),
    ] {
        let queries = seed_sets(scale.nodes, size, QUERIES, seed, 400 + size as u64);
        let ns = ns_per_call(QUERIES, |i| {
            black_box(raw.estimate_with(&queries[i], &mut scratch));
        });
        lab.put(name, ns, QUERIES);
    }

    layout_probes(lab, &raw, "raw", "impool.raw.scan_ns_per_id");
    lab.put(
        "impool.raw.bytes_per_set",
        raw.pool_resident_bytes() as f64 / pool_size,
        1,
    );

    // The codec on the fixture's own posting lists.
    let lists: Vec<Vec<u32>> = (0..scale.nodes as u32)
        .map(|v| raw.pool().postings(v))
        .filter(|l| !l.is_empty())
        .collect();
    let ids: usize = lists.iter().map(Vec::len).sum();
    let mut encoded: Vec<Vec<u8>> = Vec::new();
    let s = median_secs(5, || {
        encoded = lists
            .iter()
            .map(|l| {
                let mut out = Vec::new();
                black_box(impool::encode_list(l, &mut out));
                out
            })
            .collect();
    });
    lab.put("impool.codec.encode_ids_per_s", ids as f64 / s, ids);
    let mut acc = 0u64;
    let s = median_secs(5, || {
        for bytes in &encoded {
            let mut pos = 0;
            impool::scan_list(bytes, &mut pos, |id| acc ^= u64::from(id))
                .expect("freshly encoded list scans");
        }
    });
    lab.put("impool.codec.scan_ns_per_id", s * 1e9 / ids as f64, ids);
    let s = median_secs(5, || {
        for bytes in &encoded {
            black_box(impool::decode_list(bytes).expect("freshly encoded list decodes"));
        }
    });
    lab.put("impool.codec.decode_ns_per_id", s * 1e9 / ids as f64, ids);
    black_box(acc);
    drop((lists, encoded));

    let times: Vec<f64> = (0..3)
        .map(|_| secs(|| black_box(raw.pool().convert(PoolLayout::Compressed))).1)
        .collect();
    lab.put("impool.convert_compressed_s", median(&times), times.len());
    let mut compressed = raw.clone();
    compressed.convert_layout(PoolLayout::Compressed);
    layout_probes(
        lab,
        &compressed,
        "compressed",
        "impool.packed.scan_ns_per_id",
    );
    lab.put(
        "impool.packed.bytes_per_set",
        compressed.pool_resident_bytes() as f64 / pool_size,
        1,
    );

    let mut payload = Vec::new();
    let s = median_secs(3, || {
        payload = compressed.encode_pcmp_payload(PoolLayout::Tiered);
    });
    let mb = payload.len() as f64 / 1e6;
    lab.put("impool.pcmp.encode_mb_per_s", mb / s, payload.len());
    let s = median_secs(3, || {
        black_box(impool::decode_pcmp_payload(&payload).expect("fresh payload decodes"));
    });
    lab.put("impool.pcmp.decode_mb_per_s", mb / s, payload.len());

    // replace_set into the compressed overlay: each set takes its
    // neighbour's members (sorted traces, so the swap is always valid).
    const SWAPS: u32 = 200;
    let traces: Vec<Vec<u32>> = (0..=SWAPS).map(|s| compressed.pool().trace(s)).collect();
    let mut pool = compressed.pool().clone();
    let times: Vec<f64> = (0..SWAPS as usize)
        .map(|s| secs(|| pool.replace_set(s as u32, &traces[s], &traces[s + 1])).1 * 1e6)
        .collect();
    lab.put("impool.packed.replace_set_us", median(&times), times.len());
    drop((pool, compressed, payload));

    // Tiered: demote through a real file, exactly as `IndexArtifact::load`
    // does, then read the kernel's own counters around one cold pass.
    let path = workloads::out_dir()
        .join("scratch")
        .join(format!("{}-lab-pool.pcmp", std::process::id()));
    std::fs::create_dir_all(path.parent().expect("scratch has a parent")).map_err(err("mkdir"))?;
    let payload = raw.encode_pcmp_payload(PoolLayout::Tiered);
    std::fs::write(&path, &payload).map_err(err("write payload"))?;
    let (mut tiered, _) = InfluenceOracle::from_pcmp_payload(&payload)?;
    drop(payload);
    tiered.attach_incremental(BASE_SEED, 0);
    let file = Arc::new(std::fs::File::open(&path).map_err(err("open payload"))?);
    tiered.attach_cold_pool_file(file, 0, im_core::TieredConfig::default());
    layout_probes(lab, &tiered, "tiered", "impool.packed.cold_scan_ns_per_id");
    lab.put(
        "impool.packed.tiered_bytes_per_set",
        tiered.pool_resident_bytes() as f64 / pool_size,
        1,
    );
    let before = proc_io();
    let (ids, _) = scan_pass(&tiered);
    let (syscalls, bytes) = match (before, proc_io()) {
        (Some(b), Some(a)) => ((a.0 - b.0) as f64, (a.1 - b.1) as f64),
        // No /proc/self/io here: the counts are unknown, not zero, but the
        // contract wants a number; 0 marks "not measured".
        _ => (0.0, 0.0),
    };
    lab.put("impool.packed.cold_read_syscalls_per_pass", syscalls, 1);
    lab.put("impool.packed.cold_read_bytes_per_pass", bytes, 1);
    lab.put(
        "impool.packed.cold_bytes_read_per_byte_decoded",
        bytes / (ids as f64 * 4.0),
        ids as usize,
    );
    drop(tiered);
    let _ = std::fs::remove_file(&path);
    Ok(raw)
}

/// `imgraph::delta` and `im_core::oracle` maintenance on the `write_mixed`
/// delta stream, and the copy-on-write clone of `imdyn`.
fn write_layers(
    lab: &mut Lab,
    graph: &InfluenceGraph,
    raw: &InfluenceOracle,
    batches: &[Vec<GraphDelta>],
) -> Res<()> {
    let mut mutable = MutableInfluenceGraph::from_graph(graph);
    let mut oracle = raw.clone();
    oracle.convert_layout(PoolLayout::Compressed);
    let mut apply_us = Vec::new();
    let mut materialize_ms = Vec::new();
    let mut maintain_ms = Vec::new();
    let mut resampled = 0usize;
    for batch in batches {
        let (result, s) = secs(|| mutable.apply_batch(batch));
        result.map_err(|e| format!("delta batch rejected: {e:?}"))?;
        apply_us.push(s * 1e6);
        let (after, s) = secs(|| mutable.materialize());
        materialize_ms.push(s * 1e3);
        let (count, s) = secs(|| oracle.apply_delta_batch(&after, batch));
        resampled += count?;
        maintain_ms.push(s * 1e3);
    }
    lab.put(
        "imgraph.delta.apply_batch_us",
        median(&apply_us),
        apply_us.len(),
    );
    lab.put(
        "imgraph.delta.materialize_ms",
        median(&materialize_ms),
        materialize_ms.len(),
    );
    lab.put(
        "im_core.oracle.apply_delta_batch_ms",
        median(&maintain_ms),
        maintain_ms.len(),
    );
    lab.put(
        "im_core.oracle.resampled_sets_per_batch",
        resampled as f64 / batches.len() as f64,
        batches.len(),
    );
    drop((mutable, oracle));

    let mut compressed = raw.clone();
    compressed.convert_layout(PoolLayout::Compressed);
    let dynamic = DynamicOracle::from_parts(graph.clone(), compressed, DeltaLog::new(), 0)?;
    let times: Vec<f64> = (0..3)
        .map(|_| secs(|| black_box(dynamic.clone())).1 * 1e3)
        .collect();
    lab.put("imdyn.clone_ms", median(&times), times.len());
    Ok(())
}

/// `imserve::index`: the artifact round trip.
fn index_layers(lab: &mut Lab, raw: &IndexArtifact) -> Res<()> {
    let mut tiered = raw.clone();
    tiered.convert_pool_layout(PoolLayout::Tiered);
    let mut bytes = Vec::new();
    let s = median_secs(3, || bytes = tiered.to_bytes());
    lab.put("imserve.index.to_bytes_s", s, 3);
    lab.put("imserve.index.artifact_mb", bytes.len() as f64 / 1e6, 1);
    let s = median_secs(3, || {
        black_box(IndexArtifact::from_bytes(&bytes).expect("fresh artifact parses"));
    });
    lab.put("imserve.index.from_bytes_s", s, 3);
    drop(bytes);
    let path = workloads::out_dir()
        .join("scratch")
        .join(format!("{}-lab-index.imx", std::process::id()));
    let mut failed = None;
    let s = median_secs(3, || {
        if let Err(e) = tiered.save(&path) {
            failed = Some(e.to_string());
        }
    });
    if let Some(e) = failed {
        return Err(format!("save: {e}"));
    }
    lab.put("imserve.index.save_s", s, 3);
    let s = median_secs(3, || {
        black_box(IndexArtifact::load(&path).expect("fresh artifact loads"));
    });
    lab.put("imserve.index.load_tiered_s", s, 3);
    let _ = std::fs::remove_file(&path);
    Ok(())
}

/// Nanoseconds of the four protocol steps of one `Estimate`, for the
/// reactor's residual.
#[derive(Debug, Clone, Copy)]
struct StageNs {
    encode_req: f64,
    decode_req: f64,
    encode_resp: f64,
    decode_resp: f64,
}

/// `imserve::protocol`: the JSON frames of an `Estimate` and of a `Gains`.
fn protocol_layers(
    lab: &mut Lab,
    scale: &Scale,
    seed: u64,
    artifact: &IndexArtifact,
) -> Res<StageNs> {
    const FRAMES: usize = 20_000;
    let queries = seed_sets(scale.nodes, 3, 256, seed, 410);
    let request = |i: usize| RequestFrame::new(i as u64, estimate_request(&queries[i % 256]));
    let encode_req = ns_per_call(FRAMES, |i| {
        black_box(protocol::encode(&request(i)).expect("request encodes"));
    }) - ns_per_call(FRAMES, |i| {
        black_box(request(i));
    });
    lab.put(
        "imserve.protocol.encode_estimate_req_ns",
        encode_req,
        FRAMES,
    );
    let lines: Vec<String> = (0..256)
        .map(|i| protocol::encode(&request(i)).expect("request encodes"))
        .collect();
    let decode_req = ns_per_call(FRAMES, |i| {
        black_box(protocol::decode::<RequestFrame>(&lines[i % 256]).expect("request decodes"));
    });
    lab.put(
        "imserve.protocol.decode_estimate_req_ns",
        decode_req,
        FRAMES,
    );

    let mut scratch = artifact.oracle.scratch();
    let replies: Vec<ResponseFrame> = (0..256)
        .map(|i| {
            let covered = artifact.oracle.covered_with(&queries[i], &mut scratch) as u64;
            ResponseFrame {
                v: PROTOCOL_VERSION,
                id: i as u64,
                body: Outcome::Ok(Response::Estimate {
                    seeds: queries[i].clone(),
                    spread: artifact.oracle.estimate_with(&queries[i], &mut scratch),
                    covered,
                    pool: scale.pool as u64,
                }),
            }
        })
        .collect();
    let encode_resp = ns_per_call(FRAMES, |i| {
        black_box(protocol::encode(&replies[i % 256]).expect("reply encodes"));
    });
    lab.put(
        "imserve.protocol.encode_estimate_resp_ns",
        encode_resp,
        FRAMES,
    );
    let lines: Vec<String> = replies
        .iter()
        .map(|r| protocol::encode(r).expect("reply encodes"))
        .collect();
    let decode_resp = ns_per_call(FRAMES, |i| {
        black_box(protocol::decode::<ResponseFrame>(&lines[i % 256]).expect("reply decodes"));
    });
    lab.put(
        "imserve.protocol.decode_estimate_resp_ns",
        decode_resp,
        FRAMES,
    );

    // One greedy round on the wire: an n-entry gain vector as JSON.
    let (gains, covered) = artifact.oracle.coverage_gains(&[]);
    let reply = ResponseFrame {
        v: PROTOCOL_VERSION,
        id: 1,
        body: Outcome::Ok(Response::Gains {
            gains,
            covered,
            pool: scale.pool as u64,
        }),
    };
    let mut line = String::new();
    let s = median_secs(5, || {
        line = protocol::encode(&reply).expect("gains reply encodes")
    });
    lab.put("imserve.protocol.encode_gains_resp_ms", s * 1e3, 5);
    lab.put(
        "imserve.protocol.gains_resp_bytes",
        (line.len() + 1) as f64,
        1,
    );
    let s = median_secs(5, || {
        black_box(protocol::decode::<ResponseFrame>(&line).expect("gains reply decodes"));
    });
    lab.put("imserve.protocol.decode_gains_resp_ms", s * 1e3, 5);
    Ok(StageNs {
        encode_req,
        decode_req,
        encode_resp,
        decode_resp,
    })
}

/// `imserve::engine` and `imserve::wal`, in process.
fn engine_layers(
    lab: &mut Lab,
    scale: &Scale,
    seed: u64,
    artifact: &IndexArtifact,
    batches: &[Vec<GraphDelta>],
    workload_hit_share: Option<f64>,
) -> Res<()> {
    const CALLS: usize = 20_000;
    let engine = workloads::engine(artifact.clone())?;
    let mut scratch = engine.new_scratch();
    let requests: Vec<Request> = seed_sets(scale.nodes, 3, 256, seed, 420)
        .iter()
        .map(|s| estimate_request(s))
        .collect();
    let ns = ns_per_call(CALLS, |i| {
        black_box(engine.handle(&requests[i % 256], &mut scratch));
    });
    lab.put("imserve.engine.handle_estimate_ns", ns, CALLS);
    let hot = Request::TopK {
        k: ops::READ_TOPK_K,
        algorithm: TOPK_ALGORITHM,
    };
    black_box(engine.handle(&hot, &mut scratch));
    let ns = ns_per_call(CALLS, |_| {
        black_box(engine.handle(&hot, &mut scratch));
    });
    lab.put("imserve.engine.topk_hit_ns", ns, CALLS);
    let stats = engine.stats();
    lab.put(
        "imserve.engine.topk_cache_hit_share",
        workload_hit_share.unwrap_or_else(|| {
            stats.topk_cache_hits as f64 / (stats.topk_cache_hits + stats.topk_cache_misses) as f64
        }),
        (stats.topk_cache_hits + stats.topk_cache_misses) as usize,
    );
    let times: Vec<f64> = (0..3)
        .map(|_| secs(|| engine.reload(artifact.clone())).1 * 1e3)
        .collect();
    lab.put("imserve.engine.reload_ms", median(&times), times.len());
    let s = median_secs(20, || {
        black_box(engine.render_metrics());
    });
    lab.put("imobs.registry.render_ms", s * 1e3, 20);
    drop(engine);

    // Cold selections on the layout `write_mixed` serves.
    let mut compressed = artifact.clone();
    compressed.convert_pool_layout(PoolLayout::Compressed);
    let cold = QueryEngine::builder(compressed.clone())
        .cache_capacity(1)
        .build()
        .map_err(err("engine build"))?;
    let times: Vec<f64> = (0..6)
        .map(|c| secs(|| cold.top_k(ops::cold_k(c), TOPK_ALGORITHM)).1 * 1e3)
        .collect();
    lab.put("imserve.engine.topk_miss_ms", median(&times), times.len());
    drop(cold);

    // The same eight batches through `imdyn` alone, the engine, and the
    // engine with a write-ahead log, one batch at a time back to back, so
    // the two overheads are medians of paired differences and a slow spell
    // of the host cancels instead of landing on one side.
    let mut dynamic = DynamicOracle::from_parts(
        compressed.graph.clone(),
        compressed.oracle.clone(),
        DeltaLog::new(),
        0,
    )?;
    let plain = QueryEngine::builder(compressed.clone())
        .build()
        .map_err(err("engine build"))?;
    let wal_path = workloads::out_dir()
        .join("scratch")
        .join(format!("{}-lab.wal", std::process::id()));
    let _ = std::fs::remove_file(&wal_path);
    let logged = QueryEngine::builder(compressed)
        .wal(&wal_path)
        .build()
        .map_err(err("engine build with WAL"))?;
    let (mut alone_ms, mut engine_over_ms, mut wal_over_ms) = (Vec::new(), Vec::new(), Vec::new());
    for batch in batches {
        let (result, alone) = secs(|| dynamic.apply_batch(batch));
        result.map_err(|e| format!("imdyn batch rejected: {e:?}"))?;
        let (result, engine) = secs(|| plain.mutate_batch(batch));
        result.map_err(err("mutate_batch"))?;
        let (result, with_wal) = secs(|| logged.mutate_batch(batch));
        result.map_err(err("mutate_batch with WAL"))?;
        alone_ms.push(alone * 1e3);
        engine_over_ms.push((engine - alone) * 1e3);
        wal_over_ms.push((with_wal - engine) * 1e3);
    }
    let every_other = |from: usize| {
        alone_ms
            .iter()
            .skip(from)
            .step_by(2)
            .copied()
            .collect::<Vec<_>>()
    };
    lab.put(
        "imdyn.apply_batch_attr_ms",
        median(&every_other(0)),
        BATCHES / 2,
    );
    lab.put(
        "imdyn.apply_batch_struct_ms",
        median(&every_other(1)),
        BATCHES / 2,
    );
    lab.put(
        "imserve.engine.mutate_overhead_ms",
        median(&engine_over_ms),
        batches.len(),
    );
    lab.put(
        "imserve.wal.batch_overhead_ms",
        median(&wal_over_ms),
        batches.len(),
    );
    let fsyncs = logged.metrics_report().counter("imserve_wal_fsyncs_total");
    lab.put(
        "imserve.wal.fsyncs_per_batch",
        fsyncs as f64 / batches.len() as f64,
        batches.len(),
    );
    drop((dynamic, plain));
    let (identity, base_seed) = (logged.identity(), logged.base_seed());
    drop(logged);
    let times: Vec<f64> = (0..5)
        .map(|_| {
            secs(|| black_box(WriteAheadLog::recover(&wal_path, &identity, base_seed))).1 * 1e3
        })
        .collect();
    lab.put("imserve.wal.recover_ms", median(&times), times.len());
    let _ = std::fs::remove_file(&wal_path);

    // The log alone: append + fsync of one eight-delta record.
    let mut log = WriteAheadLog::recover(&wal_path, "lab", BASE_SEED)
        .map_err(err("WAL open"))?
        .log;
    let mut times = Vec::new();
    for i in 0..50u64 {
        let (result, s) = secs(|| log.append(i * 8, 0, &batches[0]));
        result.map_err(err("WAL append"))?;
        times.push(s * 1e6);
    }
    lab.put("imserve.wal.append_us", median(&times), times.len());
    drop(log);
    let _ = std::fs::remove_file(&wal_path);
    Ok(())
}

/// `imserve::{reactor, server, client}` over loopback, and the cost of the
/// benchmark's own spans.
fn front_end_layers(
    lab: &mut Lab,
    scale: &Scale,
    seed: u64,
    seconds: f64,
    artifact: &IndexArtifact,
    stage: StageNs,
) -> Res<()> {
    let queries = seed_sets(scale.nodes, 3, 1_024, seed, 430);
    let pings = if *scale == SMOKE { 1_000 } else { 10_000 };
    let box_seconds = (seconds / 6.0).clamp(0.2, 2.0);
    let engine = workloads::engine(artifact.clone())?;
    let mut scratch = engine.new_scratch();
    let handle_ns = ns_per_call(pings, |i| {
        black_box(engine.handle(&estimate_request(&queries[i % 1_024]), &mut scratch));
    });

    // The placement of `read_remote`: server threads on one CPU, callers on
    // the other, neither ever halting.
    affinity::pin(0);
    let reactor = spawn_reactor(&engine)?;
    affinity::pin(1);
    let idlers = affinity::Idlers::start();
    let mut client = WireClient::connect(reactor.addr())?;
    ping_pong(&mut client, &queries, 200)?;
    let rtt = ping_pong(&mut client, &queries, pings)?;
    let p50_us = rtt.percentile_ns_unchecked(0.5) / 1e3;
    lab.put("imserve.reactor.rtt_estimate_p50_us", p50_us, rtt.len());
    lab.put(
        "imserve.reactor.estimate_p99_us",
        rtt.percentile_ns_unchecked(0.99) / 1e3,
        rtt.len(),
    );
    lab.put(
        "imserve.reactor.estimate_p999_us",
        rtt.percentile_ns_unchecked(0.999) / 1e3,
        rtt.len(),
    );
    let staged_us =
        (stage.encode_req + stage.decode_req + handle_ns + stage.encode_resp + stage.decode_resp)
            / 1e3;
    lab.put("imserve.reactor.residual_us", p50_us - staged_us, rtt.len());
    drop(client);
    let (rps, n) = rps_two_connections(reactor.addr(), &queries, box_seconds)?;
    lab.put("imserve.reactor.rps_2conn", rps, n);
    let report = engine.metrics_report();
    for (family, name) in [
        (
            "imserve_queue_wait_micros",
            "imserve.reactor.queue_wait_p50_us",
        ),
        (
            "imserve_write_flush_micros",
            "imserve.reactor.write_flush_p50_us",
        ),
    ] {
        let (p50, n) = report
            .histogram(family)
            .map_or((0, 0), |h| (h.quantile_micros(0.5), h.count));
        lab.put(name, p50 as f64, n as usize);
    }

    // The front end used differently: sixteen requests in flight at once.
    let mut connection = ServiceConnection::connect(reactor.addr()).map_err(err("connect"))?;
    let burst: Vec<Request> = queries[..16].iter().map(|s| estimate_request(s)).collect();
    let mut times = Vec::new();
    for _ in 0..pings / 40 {
        let (result, s) = secs(|| connection.pipeline(&burst));
        result.map_err(err("pipeline"))?;
        times.push(s * 1e6 / 16.0);
    }
    lab.put(
        "imserve.client.pipeline16_us_per_req",
        median(&times),
        times.len(),
    );
    drop(connection);

    // What the benchmark's own spans cost one remote estimate.
    let mut remote = RemoteService::connect(reactor.addr()).map_err(err("connect"))?;
    let estimates: Vec<Op> = queries.iter().cloned().map(Op::Estimate).collect();
    let mut p50 = [0.0f64; 2];
    for (slot, traced) in [(0, false), (1, true)] {
        let mut tracer = Tracer::new(traced, Instant::now(), 1);
        let mut rec = workloads::Recorder::default();
        for i in 0..pings / 4 {
            workloads::exec(&mut remote, &estimates[i % 1_024], &mut rec, &mut tracer, 0);
        }
        p50[slot] = rec.estimate.percentile_ns_unchecked(0.5);
    }
    lab.put(
        "benchmark.trace_overhead_pct",
        100.0 * (p50[1] / p50[0] - 1.0),
        pings / 4,
    );
    drop(remote);
    reactor.shutdown();

    // The identical stream against the threaded front end.
    affinity::pin(0);
    let threaded = server::spawn(
        "127.0.0.1:0",
        Arc::clone(&engine),
        &ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .map_err(err("server spawn"))?;
    affinity::pin(1);
    let mut client = WireClient::connect(threaded.addr())?;
    ping_pong(&mut client, &queries, 200)?;
    let rtt = ping_pong(&mut client, &queries, pings / 2)?;
    lab.put(
        "imserve.server.rtt_estimate_p50_us",
        rtt.percentile_ns_unchecked(0.5) / 1e3,
        rtt.len(),
    );
    drop(client);
    let (rps, n) = rps_two_connections(threaded.addr(), &queries, box_seconds)?;
    lab.put("imserve.server.rps_2conn", rps, n);
    threaded.shutdown();
    drop(idlers);
    Ok(())
}

/// `imserve::shard`: the router over in-process and over remote shards.
fn shard_layers(lab: &mut Lab, scale: &Scale, seed: u64, graph: &InfluenceGraph) -> Res<()> {
    affinity::spread(); // unpinned, like `select_sharded`
    let fanouts = if *scale == SMOKE { 200 } else { 2_000 };
    let queries: Vec<Op> = seed_sets(scale.nodes, 3, fanouts, seed, 440)
        .into_iter()
        .map(Op::Estimate)
        .collect();
    let engines = (0..SHARDS)
        .map(|i| {
            workloads::engine(IndexArtifact::build_shard(
                scale.name,
                MODEL,
                graph.clone(),
                scale.pool,
                BASE_SEED,
                i,
                SHARDS,
            ))
        })
        .collect::<Res<Vec<_>>>()?;
    let fan_out_p50_us = |router: &mut dyn InfluenceService| -> Res<f64> {
        let mut rtt = Samples::default();
        for op in &queries {
            let began = Instant::now();
            workloads::ask(router, op).map_err(err("fan-out estimate"))?;
            rtt.push(began.elapsed());
        }
        Ok(rtt.percentile_ns_unchecked(0.5) / 1e3)
    };
    let mut local = ShardedService::new(
        engines
            .iter()
            .map(|e| LocalService::new(Arc::clone(e)))
            .collect(),
    )
    .map_err(err("local router"))?;
    lab.put(
        "imserve.shard.fanout_estimate_local_us",
        fan_out_p50_us(&mut local)?,
        fanouts,
    );
    drop(local);

    let servers = engines.iter().map(spawn_reactor).collect::<Res<Vec<_>>>()?;
    let connect =
        |server: &ServerHandle| RemoteService::connect(server.addr()).map_err(err("connect"));
    let mut remote = ShardedService::new(servers.iter().map(connect).collect::<Res<Vec<_>>>()?)
        .map_err(err("remote router"))?;
    lab.put(
        "imserve.shard.fanout_estimate_remote_us",
        fan_out_p50_us(&mut remote)?,
        fanouts,
    );
    // Router-driven greedy: k gain rounds per selection, k alternating so
    // the single memo never answers.
    let mut rounds_ms = Vec::new();
    for c in 0..6 {
        let k = ops::cold_k(c);
        let (result, s) = secs(|| remote.top_k(k, TOPK_ALGORITHM));
        result.map_err(err("router top_k"))?;
        rounds_ms.push(s * 1e3 / k as f64);
    }
    let round_ms = median(&rounds_ms);
    lab.put("imserve.shard.topk_round_ms", round_ms, rounds_ms.len());
    // One shard's share of a round: a single Gains round trip, measured on
    // a connection of its own.
    let mut one = connect(&servers[0])?;
    let times: Vec<f64> = (0..6)
        .map(|_| secs(|| black_box(one.gains(&[]))).1 * 1e6)
        .collect();
    let rtt_us = median(&times);
    lab.put("imserve.shard.rtt_p50_us", rtt_us, times.len());
    lab.put(
        "imserve.shard.merge_ms_per_round",
        round_ms - rtt_us / 1e3,
        rounds_ms.len(),
    );
    // Bytes every shard ships per selection of k = 4: one n-entry JSON gain
    // vector per round.
    let mut bytes = 0usize;
    for engine in &engines {
        let mut scratch = engine.new_scratch();
        let reply = ResponseFrame {
            v: PROTOCOL_VERSION,
            id: 1,
            body: Outcome::Ok(engine.handle(&Request::Gains { selected: vec![] }, &mut scratch)),
        };
        bytes += protocol::encode(&reply).map_err(err("encode"))?.len() + 1;
    }
    lab.put(
        "imserve.shard.wire_bytes_per_topk",
        (bytes * 4) as f64,
        4 * SHARDS,
    );
    drop((remote, one));
    for server in servers {
        server.shutdown();
    }
    Ok(())
}

/// `imserve::replication`: leader acknowledgement to follower visibility.
/// Always on the smoke-sized fixture — lag is a property of the stream, not
/// of the pool, and a cluster holds three copies of its artifact.
fn replication_layer(lab: &mut Lab, seed: u64) -> Res<()> {
    let graph = workloads::fixture_graph(&SMOKE);
    let batches = DeltaStream::new(graph.graph(), 10, &mut ops::stream_rng(seed, 450))
        .batches()
        .to_vec();
    let artifact = IndexArtifact::build(SMOKE.name, MODEL, graph, SMOKE.pool, BASE_SEED);
    let cluster = TestCluster::launch(artifact, 1).map_err(err("cluster launch"))?;
    cluster.wait_follower_connected(0);
    let leader = Arc::clone(&cluster.leader.as_ref().expect("leader is alive").engine);
    let follower = Arc::clone(
        &cluster.followers[0]
            .as_ref()
            .expect("follower is alive")
            .engine,
    );
    let mut lag_ms = Vec::new();
    for batch in &batches {
        let outcome = leader.mutate_batch(batch).map_err(err("leader mutate"))?;
        let acknowledged = Instant::now();
        let deadline = acknowledged + Duration::from_secs(10);
        while follower.epoch() < outcome.epoch {
            if Instant::now() > deadline {
                return Err(format!("follower never reached epoch {}", outcome.epoch));
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        lag_ms.push(acknowledged.elapsed().as_secs_f64() * 1e3);
    }
    lab.put(
        "imserve.replication.apply_lag_ms",
        median(&lag_ms),
        lag_ms.len(),
    );
    drop((leader, follower));
    drop(cluster);
    Ok(())
}

fn obs_layer(lab: &mut Lab) {
    const RECORDS: usize = 10_000_000;
    let histogram = imobs::Histogram::new();
    let ns = ns_per_call(RECORDS, |i| histogram.record(i as u64 & 0xffff));
    black_box(histogram.count());
    lab.put("imobs.histogram.record_ns", ns, RECORDS);
}
