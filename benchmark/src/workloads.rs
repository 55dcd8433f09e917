//! The five workloads: deployment, output checks, warm-up and the timed
//! closed loop of each.
//!
//! Every workload runs in its own process and drives the real stack through
//! public functions only. A deployment is set up [`Scale::setups`] times (the
//! median is `setup_s`; the last one is kept and timed), each set-up ending
//! with the 32-probe bit-identity check against a raw in-process reference
//! and a warm-up. The timed phase repeats the workload's fixed operation
//! cycle until `--seconds` have passed (and at least [`MIN_CYCLES`] cycles).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use im_core::{Algorithm, InfluenceOracle, PoolLayout};
use imexp::fixture::ScaleFixture;
use imgraph::InfluenceGraph;
use imnet::{Dataset, ProbabilityModel};
use imrand::Pcg32;
use imserve::protocol::{self, Request, RequestFrame, ResponseFrame};
use imserve::reactor::{self, ReactorConfig};
use imserve::service::ServiceResult;
use imserve::wal::WriteAheadLog;
use imserve::{
    IndexArtifact, InfluenceService, LocalService, QueryEngine, RemoteService, ServerHandle,
    ShardedService,
};
use imstats::EmpiricalDistribution;

use crate::affinity;
use crate::ops::{self, DeltaStream, Op, TOPK_ALGORITHM};
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::wire::WireClient;

pub type Res<T> = Result<T, String>;

/// Workload names, in report order (final; `BENCHMARK.json` lists the same).
pub const WORKLOADS: [&str; 5] = [
    "read_remote",
    "select_tiered",
    "select_sharded",
    "write_mixed",
    "paper_sweep",
];

/// Why each workload exists, one line each (the `why` of `BENCHMARK.json`).
pub const WORKLOAD_WHY: [&str; 5] = [
    "2 closed-loop connections to one reactor, raw pool, hot TopK: the front end does the work (engine <1% of an estimate), so pool or selection changes must show nothing here",
    "in-process, tiered pool read back from its file, 1-entry cache so every TopK is cold: the pool store does the work and the front end is bypassed",
    "router over 2 pool shards, each behind its own reactor: per-round O(n) JSON gain vectors and the wire do the work; same raw scans as read_remote",
    "in-process, compressed pool, WAL on: 8-delta batches beside TopK miss/hit pairs and estimates, so a read-path gain that taxes writes shows here",
    "library only: Oneshot, Snapshot and RIS trials on Karate ladders and ba-s, scored on a shared oracle; bypasses every serving layer",
];

/// Cycles every timed phase completes even if its seconds run out first, so
/// each reported median rests on at least twenty samples.
pub const MIN_CYCLES: u64 = 20;

/// Seed of the fixture, the RR pools and the paper graphs. Fixed: `--seed`
/// drives only the operation streams.
pub const BASE_SEED: u64 = 7;
/// The probability model of the serving fixture.
pub const MODEL: &str = "iwc";

/// Fixture size and cycle shape. [`FULL`] is the only scale committed
/// numbers may come from; [`SMOKE`] exists for the self-tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    pub name: &'static str,
    pub nodes: usize,
    pub pool: usize,
    /// Times each deployment is set up (median reported as `setup_s`).
    pub setups: usize,
    /// Warm-up cycles before timing (fixed, so state after warm-up is a
    /// function of the seed alone).
    pub warmup_cycles: u64,
    /// `Estimate`s per `select_tiered` cycle (8 seeds each).
    pub tiered_estimates: usize,
    /// `Estimate`s per `select_sharded` cycle (3 seeds each).
    pub sharded_estimates: usize,
    /// `Estimate`s per `write_mixed` cycle (3 seeds each).
    pub write_estimates: usize,
    /// Delta batches pre-drawn for `write_mixed` (bounds its cycles).
    pub write_batches: usize,
    /// RR sets of the oracle `paper_sweep` evaluates solutions on.
    pub paper_oracle_pool: usize,
}

pub const FULL: Scale = Scale {
    name: "cl-250k",
    nodes: 250_000,
    pool: 25_000,
    setups: 3,
    warmup_cycles: 4,
    tiered_estimates: 200,
    sharded_estimates: 100,
    write_estimates: 500,
    write_batches: 2_048,
    paper_oracle_pool: 100_000,
};

pub const SMOKE: Scale = Scale {
    name: "cl-20k",
    nodes: 20_000,
    pool: 2_000,
    setups: 1,
    warmup_cycles: 2,
    tiered_estimates: 20,
    sharded_estimates: 10,
    write_estimates: 50,
    write_batches: 512,
    paper_oracle_pool: 2_000,
};

/// Warm-up cycles per `read_remote` connection (13 x 16 = 208 operations).
const READ_WARMUP_CYCLES: usize = 13;
/// Load-generating threads/connections of `read_remote`: two, or one on a
/// single-core host — never more than the host has cores.
#[must_use]
pub fn read_connections() -> usize {
    affinity::start_cpus().min(2)
}

/// Scratch directory for artifacts, WALs and reports: `benchmark/out`.
#[must_use]
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn scratch_file(name: &str) -> Res<PathBuf> {
    let dir = out_dir().join("scratch");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir.join(format!("{}-{name}", std::process::id())))
}

pub fn err<E: std::fmt::Display>(context: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{context}: {e}")
}

/// The serving fixture's influence graph.
#[must_use]
pub fn fixture_graph(scale: &Scale) -> InfluenceGraph {
    let model = imserve::index::parse_model(MODEL).expect("iwc is a known model");
    ScaleFixture::new(scale.nodes, 4.0, BASE_SEED).influence_graph(model)
}

fn build_artifact(scale: &Scale, graph: InfluenceGraph) -> IndexArtifact {
    IndexArtifact::build(scale.name, MODEL, graph, scale.pool, BASE_SEED)
}

pub fn engine(artifact: IndexArtifact) -> Res<Arc<QueryEngine>> {
    QueryEngine::builder(artifact)
        .build()
        .map(Arc::new)
        .map_err(err("engine build"))
}

// ---------------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------------

/// What one timed phase measured, per operation class.
#[derive(Debug, Default, Clone)]
pub struct Recorder {
    pub estimate: Samples,
    pub topk_hit: Samples,
    pub topk_miss: Samples,
    pub gains: Samples,
    pub mutate: Samples,
    pub cycle: Samples,
    /// `paper_sweep` only: one full trial on the `ba-s` rung, per approach
    /// (Oneshot, Snapshot, RIS).
    pub trial: [Samples; 3],
    pub attempted: u64,
    pub failed: u64,
    /// RR sets resampled by the timed mutation batches.
    pub resampled: u64,
    pub wall: Duration,
}

impl Recorder {
    pub fn absorb(&mut self, other: &Recorder) {
        self.estimate.extend(&other.estimate);
        self.topk_hit.extend(&other.topk_hit);
        self.topk_miss.extend(&other.topk_miss);
        self.gains.extend(&other.gains);
        self.mutate.extend(&other.mutate);
        self.cycle.extend(&other.cycle);
        for (mine, theirs) in self.trial.iter_mut().zip(&other.trial) {
            mine.extend(theirs);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.resampled += other.resampled;
        self.wall = self.wall.max(other.wall);
    }
}

/// A reply reduced to what the bit-identity check compares.
#[derive(Debug, PartialEq)]
pub enum Answer {
    Estimate {
        spread_bits: u64,
        covered: u64,
        pool: u64,
    },
    TopK {
        seeds: Vec<u32>,
        spread_bits: u64,
    },
    Gains {
        gains: Vec<u64>,
        covered: u64,
        pool: u64,
    },
    Mutate {
        epoch: u64,
        applied: usize,
        resampled: usize,
    },
}

/// Send `op` to `svc` and reduce the reply.
pub fn ask(svc: &mut dyn InfluenceService, op: &Op) -> ServiceResult<Answer> {
    Ok(match op {
        Op::Estimate(seeds) => {
            let e = svc.estimate(seeds)?;
            Answer::Estimate {
                spread_bits: e.spread.to_bits(),
                covered: e.covered,
                pool: e.pool,
            }
        }
        Op::TopK { k, .. } => {
            let s = svc.top_k(*k, TOPK_ALGORITHM)?;
            Answer::TopK {
                seeds: s.seeds,
                spread_bits: s.spread.to_bits(),
            }
        }
        Op::Gains(selected) => {
            let g = svc.gains(selected)?;
            Answer::Gains {
                gains: g.gains,
                covered: g.covered,
                pool: g.pool,
            }
        }
        Op::Mutate(deltas) => {
            let m = svc.mutate_batch(deltas)?;
            Answer::Mutate {
                epoch: m.epoch,
                applied: m.applied,
                resampled: m.resampled,
            }
        }
    })
}

fn span_name(op: &Op) -> &'static str {
    match op {
        Op::Estimate(_) => "op.estimate",
        Op::TopK { hot: true, .. } => "op.topk_hit",
        Op::TopK { hot: false, .. } => "op.topk_miss",
        Op::Gains(_) => "op.gains",
        Op::Mutate(_) => "op.mutate",
    }
}

/// Time one operation into its class; an `Err` reply is a failed operation.
pub fn exec(
    svc: &mut dyn InfluenceService,
    op: &Op,
    rec: &mut Recorder,
    tracer: &mut Tracer,
    parent: u64,
) {
    let span = tracer.begin(span_name(op), parent, rec.attempted);
    let began = Instant::now();
    let reply = ask(svc, op);
    let elapsed = began.elapsed();
    tracer.end(span);
    rec.attempted += 1;
    match reply {
        Err(_) => rec.failed += 1,
        Ok(answer) => {
            match op {
                Op::Estimate(_) => rec.estimate.push(elapsed),
                Op::TopK { hot: true, .. } => rec.topk_hit.push(elapsed),
                Op::TopK { hot: false, .. } => rec.topk_miss.push(elapsed),
                Op::Gains(_) => rec.gains.push(elapsed),
                Op::Mutate(_) => rec.mutate.push(elapsed),
            }
            if let Answer::Mutate { resampled, .. } = answer {
                rec.resampled += resampled as u64;
            }
        }
    }
}

/// The closed loop: whole cycles from `next_cycle` until `seconds` have
/// passed and [`MIN_CYCLES`] are done (or the stream ends).
fn run_cycles(
    svc: &mut dyn InfluenceService,
    mut next_cycle: impl FnMut(u64) -> Option<Vec<Op>>,
    seconds: f64,
    tracer: &mut Tracer,
) -> Recorder {
    let mut rec = Recorder::default();
    let began = Instant::now();
    let mut cycle = 0u64;
    while began.elapsed().as_secs_f64() < seconds || cycle < MIN_CYCLES {
        let Some(ops) = next_cycle(cycle) else { break };
        let span = tracer.begin("cycle", 0, cycle);
        let cycle_began = Instant::now();
        for op in &ops {
            exec(svc, op, &mut rec, tracer, span);
        }
        rec.cycle.push(cycle_began.elapsed());
        tracer.end(span);
        cycle += 1;
    }
    rec.wall = began.elapsed();
    rec
}

/// The traced `read_remote` loop: the same cycles over a [`WireClient`], so
/// each remote call splits into `client.encode -> reactor.roundtrip ->
/// client.decode`, and every [`REPLAY_EVERY`]th request is replayed in
/// process through `protocol::decode -> engine.handle -> protocol::encode`
/// to attribute the server's share of the round trip.
fn run_read_traced(
    client: &mut WireClient,
    engine: &QueryEngine,
    nodes: usize,
    rng: &mut Pcg32,
    seconds: f64,
    tracer: &mut Tracer,
) -> Recorder {
    let mut rec = Recorder::default();
    let mut scratch = engine.new_scratch();
    let began = Instant::now();
    let mut cycle = 0u64;
    while began.elapsed().as_secs_f64() < seconds || cycle < MIN_CYCLES {
        let span = tracer.begin("cycle", 0, cycle);
        let cycle_began = Instant::now();
        for op in ops::read_cycle(nodes, rng) {
            let request = match &op {
                Op::Estimate(seeds) => Request::Estimate {
                    seeds: seeds.clone(),
                },
                Op::TopK { k, .. } => Request::TopK {
                    k: *k,
                    algorithm: TOPK_ALGORITHM,
                },
                _ => unreachable!("read cycles hold only estimates and one TopK"),
            };
            let index = rec.attempted;
            let op_began = Instant::now();
            let reply = client.call(&request);
            let op_ended = Instant::now();
            rec.attempted += 1;
            let Ok((_, times)) = reply else {
                rec.failed += 1;
                continue;
            };
            let elapsed = op_ended - op_began;
            match op {
                Op::Estimate(_) => rec.estimate.push(elapsed),
                _ => rec.topk_hit.push(elapsed),
            }
            let root = tracer.record(span_name(&op), span, index, op_began, op_ended);
            let sent = op_began + times.encode;
            let received = sent + times.roundtrip;
            tracer.record("client.encode", root, index, op_began, sent);
            tracer.record("reactor.roundtrip", root, index, sent, received);
            tracer.record(
                "client.decode",
                root,
                index,
                received,
                received + times.decode,
            );
            if tracer.enabled() && index % REPLAY_EVERY == 0 && matches!(op, Op::Estimate(_)) {
                replay_server_side(engine, &request, &mut scratch, tracer, root, index);
            }
        }
        rec.cycle.push(cycle_began.elapsed());
        tracer.end(span);
        cycle += 1;
    }
    rec.wall = began.elapsed();
    rec
}

/// One in `REPLAY_EVERY` traced estimates is replayed server-side.
const REPLAY_EVERY: u64 = 16;

/// What the server does with one request line, minus the sockets and queues.
fn replay_server_side(
    engine: &QueryEngine,
    request: &Request,
    scratch: &mut im_core::EstimateScratch,
    tracer: &mut Tracer,
    parent: u64,
    index: u64,
) {
    let Ok(line) = protocol::encode(&RequestFrame::new(index, request.clone())) else {
        return;
    };
    let replay = tracer.begin("replay", parent, index);
    let frame = tracer.span("replay.server.decode", replay, index, || {
        protocol::decode::<RequestFrame>(&line)
    });
    if let Ok(frame) = frame {
        let response = tracer.span("replay.engine.handle", replay, index, || {
            engine.handle(&frame.req, scratch)
        });
        let reply = ResponseFrame {
            v: frame.v,
            id: frame.id,
            body: protocol::Outcome::Ok(response),
        };
        let _ = tracer.span("replay.server.encode", replay, index, || {
            protocol::encode(&reply)
        });
    }
    tracer.end(replay);
}

/// Replay the 32 probes on both services and require identical answers.
fn check_probes(
    reference: &mut dyn InfluenceService,
    candidate: &mut dyn InfluenceService,
    nodes: usize,
    seed: u64,
) -> Res<()> {
    for (i, op) in ops::probes(nodes, &mut ops::stream_rng(seed, 100))
        .iter()
        .enumerate()
    {
        let want = ask(reference, op).map_err(err("reference probe"))?;
        let got = ask(candidate, op).map_err(err("probe"))?;
        if want != got {
            return Err(format!(
                "probe {i} ({op:?}) diverged from the raw reference"
            ));
        }
    }
    Ok(())
}

/// The reactor every remote deployment uses: one compute thread, an
/// ephemeral loopback port.
pub fn spawn_reactor(engine: &Arc<QueryEngine>) -> Res<ServerHandle> {
    let config = ReactorConfig {
        compute_threads: 1,
        ..ReactorConfig::default()
    };
    reactor::spawn("127.0.0.1:0", Arc::clone(engine), &config).map_err(err("reactor spawn"))
}

/// A served engine: shut the front end down and wait until its threads have
/// let go of the engine, so the next set-up starts from freed memory.
struct Served {
    engine: Arc<QueryEngine>,
    server: Option<ServerHandle>,
}

impl Served {
    fn reactor(artifact: IndexArtifact) -> Res<Self> {
        let engine = engine(artifact)?;
        let server = spawn_reactor(&engine)?;
        Ok(Self {
            engine,
            server: Some(server),
        })
    }

    fn addr(&self) -> std::net::SocketAddr {
        self.server.as_ref().expect("server is running").addr()
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while Arc::strong_count(&self.engine) > 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// Everything a workload hands back to `main`.
#[derive(Debug)]
pub struct Outcome {
    pub recorder: Recorder,
    /// Seconds of each set-up (fixture → first timed operation).
    pub setups: Vec<f64>,
    /// `stats().pool_resident_bytes` summed over engines, after warm-up.
    pub pool_resident_bytes: u64,
    /// `TopK` cache hits ÷ (hits + misses) over the timed phase (engine
    /// counters; `None` where no engine answers `TopK`).
    pub topk_cache_hit_share: Option<f64>,
    /// Whether every teardown check held.
    pub correct: bool,
    /// Human-readable notes (check results, op-sequence hash).
    pub notes: Vec<String>,
    pub tracer: Tracer,
}

/// Run `setup` `count` times, timing each, and keep the last deployment.
fn repeat_setup<D>(count: usize, mut setup: impl FnMut() -> Res<D>) -> Res<(D, Vec<f64>)> {
    let mut seconds = Vec::with_capacity(count);
    let mut kept = None;
    for _ in 0..count.max(1) {
        drop(kept.take());
        let began = Instant::now();
        kept = Some(setup()?);
        seconds.push(began.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one set-up ran"), seconds))
}

/// Engine cache counters `(hits, misses)`.
fn cache_counters(engine: &QueryEngine) -> (u64, u64) {
    let stats = engine.stats();
    (stats.topk_cache_hits, stats.topk_cache_misses)
}

/// Compare the engine's cache counters over the timed phase with what the
/// operation sequence was built to produce.
fn check_cache(
    before: (u64, u64),
    after: (u64, u64),
    rec: &Recorder,
    notes: &mut Vec<String>,
) -> bool {
    let hits = after.0 - before.0;
    let misses = after.1 - before.1;
    let ok = hits == rec.topk_hit.len() as u64 && misses == rec.topk_miss.len() as u64;
    notes.push(format!(
        "cache check: {hits} hits / {misses} misses, sequence expects {} / {}: {}",
        rec.topk_hit.len(),
        rec.topk_miss.len(),
        if ok { "ok" } else { "MISMATCH" }
    ));
    ok
}

fn hit_share(before: (u64, u64), after: (u64, u64)) -> Option<f64> {
    let hits = (after.0 - before.0) as f64;
    let total = hits + (after.1 - before.1) as f64;
    (total > 0.0).then(|| hits / total)
}

// ---------------------------------------------------------------------------
// read_remote
// ---------------------------------------------------------------------------

struct ReadRemote {
    served: Served,
    connections: Vec<RemoteService>,
}

fn setup_read_remote(scale: &Scale, seed: u64) -> Res<ReadRemote> {
    affinity::spread();
    let artifact = build_artifact(scale, fixture_graph(scale));
    let mut reference = LocalService::new(engine(artifact.clone())?);
    // The server's threads inherit one CPU, the load threads the other, so
    // every request crosses CPUs like a real remote caller's.
    affinity::pin(0);
    let served = Served::reactor(artifact)?;
    affinity::pin(1);
    let mut connections = (0..read_connections())
        .map(|_| RemoteService::connect(served.addr()).map_err(err("connect")))
        .collect::<Res<Vec<_>>>()?;
    check_probes(&mut reference, &mut connections[0], scale.nodes, seed)?;
    drop(reference);
    // Warm-up: the first TopK fills the LRU entry every timed TopK then hits.
    for (c, connection) in connections.iter_mut().enumerate() {
        ask(
            connection,
            &Op::TopK {
                k: ops::READ_TOPK_K,
                hot: false,
            },
        )
        .map_err(err("warm-up TopK"))?;
        let mut rng = ops::stream_rng(seed, 200 + c as u64);
        for _ in 0..READ_WARMUP_CYCLES {
            for op in ops::read_cycle(scale.nodes, &mut rng) {
                ask(connection, &op).map_err(err("warm-up"))?;
            }
        }
    }
    Ok(ReadRemote {
        served,
        connections,
    })
}

pub fn read_remote(scale: &Scale, seed: u64, seconds: f64, trace: bool) -> Res<Outcome> {
    let (mut deployment, setups) = repeat_setup(scale.setups, || setup_read_remote(scale, seed))?;
    let engine = Arc::clone(&deployment.served.engine);
    let pool_resident_bytes = engine.stats().pool_resident_bytes;
    let before = cache_counters(&engine);
    let origin = Instant::now();
    let nodes = scale.nodes;
    let addr = deployment.served.addr();
    let idlers = affinity::Idlers::start();
    let lanes: Vec<Res<(Recorder, Tracer)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = deployment
            .connections
            .iter_mut()
            .enumerate()
            .map(|(c, connection)| {
                let engine = &engine;
                scope.spawn(move || -> Res<(Recorder, Tracer)> {
                    let mut tracer = Tracer::new(trace, origin, c as u64 + 1);
                    let mut rng = ops::stream_rng(seed, c as u64);
                    let rec = if trace {
                        let mut client = WireClient::connect(addr)?;
                        run_read_traced(&mut client, engine, nodes, &mut rng, seconds, &mut tracer)
                    } else {
                        run_cycles(
                            connection,
                            |_| Some(ops::read_cycle(nodes, &mut rng)),
                            seconds,
                            &mut tracer,
                        )
                    };
                    Ok((rec, tracer))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    drop(idlers);
    let mut recorder = Recorder::default();
    let mut tracer = Tracer::new(trace, origin, 0);
    for lane in lanes {
        let (rec, lane) = lane?;
        recorder.absorb(&rec);
        tracer.absorb(lane);
    }
    let after = cache_counters(&engine);
    let mut notes = Vec::new();
    let correct = check_cache(before, after, &recorder, &mut notes);
    Ok(Outcome {
        recorder,
        setups,
        pool_resident_bytes,
        topk_cache_hit_share: hit_share(before, after),
        correct,
        notes,
        tracer,
    })
}

// ---------------------------------------------------------------------------
// select_tiered
// ---------------------------------------------------------------------------

struct SelectTiered {
    service: LocalService,
    path: PathBuf,
}

impl Drop for SelectTiered {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

fn setup_select_tiered(scale: &Scale, seed: u64) -> Res<SelectTiered> {
    affinity::spread();
    let raw = build_artifact(scale, fixture_graph(scale));
    affinity::pin(0);
    // convert -> save -> load, so cold blocks really are read from the file.
    let path = scratch_file("tiered.imx")?;
    {
        let mut tiered = raw.clone();
        tiered.convert_pool_layout(PoolLayout::Tiered);
        tiered.save(&path).map_err(err("save"))?;
    }
    let loaded = IndexArtifact::load(&path).map_err(err("load"))?;
    if loaded.pool_layout() != PoolLayout::Tiered {
        return Err("reloaded artifact is not tiered".into());
    }
    let mut reference = LocalService::new(engine(raw)?);
    let engine = QueryEngine::builder(loaded)
        .cache_capacity(1)
        .build()
        .map(Arc::new)
        .map_err(err("engine build"))?;
    let mut service = LocalService::new(engine);
    check_probes(&mut reference, &mut service, scale.nodes, seed)?;
    drop(reference);
    let mut rng = ops::stream_rng(seed, 200);
    for c in 0..scale.warmup_cycles {
        // Odd-numbered from the back, so the last warm-up `k` differs from
        // the first timed one.
        for op in ops::select_cycle(scale.nodes, c + 1, scale.tiered_estimates, 8, &mut rng) {
            ask(&mut service, &op).map_err(err("warm-up"))?;
        }
    }
    Ok(SelectTiered { service, path })
}

pub fn select_tiered(scale: &Scale, seed: u64, seconds: f64, trace: bool) -> Res<Outcome> {
    let (mut deployment, setups) = repeat_setup(scale.setups, || setup_select_tiered(scale, seed))?;
    let engine = Arc::clone(deployment.service.engine());
    let pool_resident_bytes = engine.stats().pool_resident_bytes;
    let before = cache_counters(&engine);
    let mut tracer = Tracer::new(trace, Instant::now(), 1);
    let mut rng = ops::stream_rng(seed, 0);
    let recorder = run_cycles(
        &mut deployment.service,
        |c| {
            Some(ops::select_cycle(
                scale.nodes,
                c + scale.warmup_cycles + 1,
                scale.tiered_estimates,
                8,
                &mut rng,
            ))
        },
        seconds,
        &mut tracer,
    );
    let after = cache_counters(&engine);
    let mut notes = Vec::new();
    let correct = check_cache(before, after, &recorder, &mut notes);
    Ok(Outcome {
        recorder,
        setups,
        pool_resident_bytes,
        topk_cache_hit_share: hit_share(before, after),
        correct,
        notes,
        tracer,
    })
}

// ---------------------------------------------------------------------------
// select_sharded
// ---------------------------------------------------------------------------

struct SelectSharded {
    // Field order is drop order: the router's connections close before the
    // reactors they talk to shut down.
    router: ShardedService<RemoteService>,
    shards: Vec<Served>,
}

/// Shards behind the `select_sharded` router.
pub const SHARDS: usize = 2;

fn setup_select_sharded(scale: &Scale, seed: u64) -> Res<SelectSharded> {
    let graph = fixture_graph(scale);
    let shards = (0..SHARDS)
        .map(|i| {
            Served::reactor(IndexArtifact::build_shard(
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
    let backends = shards
        .iter()
        .map(|s| RemoteService::connect(s.addr()).map_err(err("connect")))
        .collect::<Res<Vec<_>>>()?;
    let mut router = ShardedService::new(backends).map_err(err("router"))?;
    // The shards' union must answer exactly like the one pool they tile.
    let mut reference = LocalService::new(engine(build_artifact(scale, graph))?);
    check_probes(&mut reference, &mut router, scale.nodes, seed)?;
    drop(reference);
    let mut rng = ops::stream_rng(seed, 200);
    for c in 0..scale.warmup_cycles {
        for op in ops::select_cycle(scale.nodes, c + 1, scale.sharded_estimates, 3, &mut rng) {
            ask(&mut router, &op).map_err(err("warm-up"))?;
        }
    }
    Ok(SelectSharded { router, shards })
}

pub fn select_sharded(scale: &Scale, seed: u64, seconds: f64, trace: bool) -> Res<Outcome> {
    let (mut deployment, setups) =
        repeat_setup(scale.setups, || setup_select_sharded(scale, seed))?;
    let pool_resident_bytes = deployment
        .shards
        .iter()
        .map(|s| s.engine.stats().pool_resident_bytes)
        .sum();
    let mut tracer = Tracer::new(trace, Instant::now(), 1);
    let mut rng = ops::stream_rng(seed, 0);
    let recorder = run_cycles(
        &mut deployment.router,
        |c| {
            Some(ops::select_cycle(
                scale.nodes,
                c + scale.warmup_cycles + 1,
                scale.sharded_estimates,
                3,
                &mut rng,
            ))
        },
        seconds,
        &mut tracer,
    );
    // The router drives greedy itself; the shard engines never see a TopK,
    // so their caches must have stayed untouched.
    let mut notes = Vec::new();
    let untouched = deployment
        .shards
        .iter()
        .all(|s| cache_counters(&s.engine) == (0, 0));
    notes.push(format!(
        "shard engine TopK caches untouched: {}",
        if untouched { "ok" } else { "MISMATCH" }
    ));
    Ok(Outcome {
        recorder,
        setups,
        pool_resident_bytes,
        topk_cache_hit_share: None,
        correct: untouched,
        notes,
        tracer,
    })
}

// ---------------------------------------------------------------------------
// write_mixed
// ---------------------------------------------------------------------------

struct WriteMixed {
    /// Resident pool bytes of the freshly loaded engine, before any batch:
    /// exact, where the overlay a seeded delta stream grows is not.
    pool_resident_bytes: u64,
    service: LocalService,
    deltas: DeltaStream,
    base: PathBuf,
    wal: PathBuf,
}

impl Drop for WriteMixed {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.base);
        let _ = std::fs::remove_file(&self.wal);
    }
}

fn wal_engine(base: &std::path::Path, wal: &std::path::Path) -> Res<Arc<QueryEngine>> {
    QueryEngine::builder(IndexArtifact::load(base).map_err(err("load base"))?)
        .wal(wal)
        .build()
        .map(Arc::new)
        .map_err(err("engine build with WAL"))
}

fn write_topk() -> Op {
    Op::TopK {
        k: ops::WRITE_TOPK_K,
        hot: false,
    }
}

fn setup_write_mixed(scale: &Scale, seed: u64) -> Res<WriteMixed> {
    affinity::spread();
    let graph = fixture_graph(scale);
    let mut deltas = DeltaStream::new(
        graph.graph(),
        scale.write_batches,
        &mut ops::stream_rng(seed, 300),
    );
    let raw = build_artifact(scale, graph);
    affinity::pin(0);
    let base = scratch_file("write-base.imx")?;
    let wal = scratch_file("write.wal")?;
    let _ = std::fs::remove_file(&wal);
    {
        let mut compressed = raw.clone();
        compressed.convert_pool_layout(PoolLayout::Compressed);
        compressed.save(&base).map_err(err("save base"))?;
    }
    // Restart check: two acknowledged batches (one re-weighting, one
    // structural) must survive into an engine rebuilt from the base artifact
    // and the log alone — same epoch, same TopK bytes.
    let mut reference = LocalService::new(engine(raw)?);
    let (epoch, selection, pool_resident_bytes) = {
        let mut first = LocalService::new(wal_engine(&base, &wal)?);
        let pool_resident_bytes = first.engine().stats().pool_resident_bytes;
        check_probes(&mut reference, &mut first, scale.nodes, seed)?;
        for _ in 0..2 {
            let batch = deltas.next_batch().expect("two probe batches");
            ask(&mut first, &Op::Mutate(batch)).map_err(err("probe batch"))?;
        }
        let selection = ask(&mut first, &write_topk()).map_err(err("probe TopK"))?;
        (first.engine().epoch(), selection, pool_resident_bytes)
    };
    drop(reference);
    let mut service = LocalService::new(wal_engine(&base, &wal)?);
    if service.engine().epoch() != epoch
        || ask(&mut service, &write_topk()).map_err(err("replayed TopK"))? != selection
    {
        return Err("engine rebuilt from base + WAL diverged from the acknowledged state".into());
    }
    let mut rng = ops::stream_rng(seed, 200);
    for _ in 0..scale.warmup_cycles {
        let batch = deltas.next_batch().expect("warm-up batches");
        for op in ops::write_cycle(scale.nodes, batch, scale.write_estimates, &mut rng) {
            ask(&mut service, &op).map_err(err("warm-up"))?;
        }
    }
    Ok(WriteMixed {
        pool_resident_bytes,
        service,
        deltas,
        base,
        wal,
    })
}

pub fn write_mixed(scale: &Scale, seed: u64, seconds: f64, trace: bool) -> Res<Outcome> {
    let (mut deployment, setups) = repeat_setup(scale.setups, || setup_write_mixed(scale, seed))?;
    let engine = Arc::clone(deployment.service.engine());
    let pool_resident_bytes = deployment.pool_resident_bytes;
    let before = cache_counters(&engine);
    let epoch_before = engine.epoch();
    let mut tracer = Tracer::new(trace, Instant::now(), 1);
    let mut rng = ops::stream_rng(seed, 0);
    let WriteMixed {
        service, deltas, ..
    } = &mut deployment;
    let recorder = run_cycles(
        service,
        |_| {
            deltas
                .next_batch()
                .map(|batch| ops::write_cycle(scale.nodes, batch, scale.write_estimates, &mut rng))
        },
        seconds,
        &mut tracer,
    );
    let after = cache_counters(&engine);
    let mut notes = Vec::new();
    let mut correct = check_cache(before, after, &recorder, &mut notes);

    // Teardown: the maintained pool equals a from-scratch rebuild, and the
    // log holds every acknowledged batch, contiguous up to the final epoch.
    let rebuilt = engine.state().dynamic.matches_rebuild();
    notes.push(format!(
        "matches_rebuild at epoch {}: {}",
        engine.epoch(),
        if rebuilt { "ok" } else { "MISMATCH" }
    ));
    correct &= rebuilt;
    let final_epoch = engine.epoch();
    let acknowledged = recorder.mutate.len() as u64;
    // Every append was synced before its batch was acknowledged, so a second
    // handle reads the complete log while the engine still holds its own.
    let recovery = WriteAheadLog::recover(&deployment.wal, &engine.identity(), engine.base_seed())
        .map_err(err("WAL recover"))?;
    let logged_epoch = recovery.records.last().map_or(0, |r| r.epoch_after());
    let contiguous = recovery
        .records
        .windows(2)
        .all(|w| w[0].epoch_after() == w[1].epoch_before);
    let durable = logged_epoch == final_epoch
        && contiguous
        && final_epoch - epoch_before == acknowledged * ops::BATCH_DELTAS as u64
        && recovery.truncated_bytes == 0;
    notes.push(format!(
        "WAL holds {} records to epoch {logged_epoch} (engine at {final_epoch}, {acknowledged} timed batches): {}",
        recovery.records.len(),
        if durable { "ok" } else { "MISMATCH" }
    ));
    correct &= durable;
    Ok(Outcome {
        recorder,
        setups,
        pool_resident_bytes,
        topk_cache_hit_share: hit_share(before, after),
        correct,
        notes,
        tracer,
    })
}

// ---------------------------------------------------------------------------
// paper_sweep
// ---------------------------------------------------------------------------

/// Seed-set size of every paper trial.
pub const PAPER_K: usize = 4;
/// The Karate sample-number ladders (β and τ share one; θ has its own).
pub const KARATE_SIM_LADDER: [u64; 3] = [16, 64, 256];
pub const KARATE_RIS_LADDER: [u64; 3] = [1_024, 4_096, 16_384];

/// One trial configuration of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    /// `true` for the `ba-s` rung (the one the `*_trial_p50_ms` metrics
    /// time), `false` for a Karate ladder rung.
    pub ba: bool,
    /// 0 = Oneshot, 1 = Snapshot, 2 = RIS.
    pub approach: usize,
    /// Position on the Karate ladder (0 = bottom, 2 = top).
    pub step: usize,
    pub algorithm: Algorithm,
}

/// The twelve trials of one sweep cycle: three Karate rungs and one `ba-s`
/// rung per approach.
#[must_use]
pub fn paper_rungs() -> Vec<Rung> {
    let mut rungs = Vec::with_capacity(12);
    for step in 0..3 {
        let sim = KARATE_SIM_LADDER[step];
        for (approach, algorithm) in [
            Algorithm::Oneshot { beta: sim },
            Algorithm::Snapshot { tau: sim },
            Algorithm::Ris {
                theta: KARATE_RIS_LADDER[step],
            },
        ]
        .into_iter()
        .enumerate()
        {
            rungs.push(Rung {
                ba: false,
                approach,
                step,
                algorithm,
            });
        }
    }
    for (approach, algorithm) in [
        Algorithm::Oneshot { beta: 16 },
        Algorithm::Snapshot { tau: 64 },
        Algorithm::Ris { theta: 16_384 },
    ]
    .into_iter()
    .enumerate()
    {
        rungs.push(Rung {
            ba: true,
            approach,
            step: 0,
            algorithm,
        });
    }
    rungs
}

/// The most frequent seed set; ties go to the smallest set, so the answer
/// does not depend on hash-map iteration order.
fn modal_seed_set(distribution: &EmpiricalDistribution<Vec<u32>>) -> Vec<u32> {
    distribution
        .iter()
        .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(a.0)))
        .map(|(seeds, _)| seeds.clone())
        .unwrap_or_default()
}

struct PaperSweep {
    karate: InfluenceGraph,
    ba: InfluenceGraph,
    /// The shared evaluation oracles (the paper's Section 5.2 method: every
    /// returned seed set is scored on one large RR pool).
    karate_oracle: InfluenceOracle,
    ba_oracle: InfluenceOracle,
}

fn setup_paper_sweep(scale: &Scale) -> PaperSweep {
    affinity::pin(0);
    let model = ProbabilityModel::uc01();
    let karate = Dataset::Karate.influence_graph(model, BASE_SEED);
    let ba = Dataset::BaSparse.influence_graph(model, BASE_SEED);
    let oracle = |graph: &InfluenceGraph| {
        InfluenceOracle::builder(scale.paper_oracle_pool)
            .seed(BASE_SEED)
            .sample(graph)
    };
    PaperSweep {
        karate_oracle: oracle(&karate),
        ba_oracle: oracle(&ba),
        karate,
        ba,
    }
}

pub fn paper_sweep(scale: &Scale, seed: u64, seconds: f64, trace: bool) -> Res<Outcome> {
    let (deployment, setups) = repeat_setup(scale.setups, || Ok(setup_paper_sweep(scale)))?;
    let pool_resident_bytes = (deployment.karate_oracle.pool_resident_bytes()
        + deployment.ba_oracle.pool_resident_bytes()) as u64;
    let rungs = paper_rungs();
    let mut tracer = Tracer::new(trace, Instant::now(), 1);
    let mut rec = Recorder::default();
    // Seed-set distributions of the Karate ladder: [approach][step].
    let mut distributions: Vec<Vec<EmpiricalDistribution<Vec<u32>>>> = (0..3)
        .map(|_| (0..3).map(|_| EmpiricalDistribution::new()).collect())
        .collect();
    let mut karate_scratch = deployment.karate_oracle.scratch();
    let mut ba_scratch = deployment.ba_oracle.scratch();
    let began = Instant::now();
    let mut cycle = 0u64;
    while began.elapsed().as_secs_f64() < seconds || cycle < MIN_CYCLES {
        let span = tracer.begin("cycle", 0, cycle);
        let cycle_began = Instant::now();
        for (r, rung) in rungs.iter().enumerate() {
            // One independent, seeded trial per (cycle, rung).
            let trial_seed = imrand::derive_seed(seed, cycle * rungs.len() as u64 + r as u64);
            let (graph, oracle, scratch) = if rung.ba {
                (&deployment.ba, &deployment.ba_oracle, &mut ba_scratch)
            } else {
                (
                    &deployment.karate,
                    &deployment.karate_oracle,
                    &mut karate_scratch,
                )
            };
            let trial_span = tracer.begin(
                ["op.trial_oneshot", "op.trial_snapshot", "op.trial_ris"][rung.approach],
                span,
                rec.attempted,
            );
            let trial_began = Instant::now();
            let run = rung.algorithm.run(graph, PAPER_K, trial_seed);
            let elapsed = trial_began.elapsed();
            tracer.end(trial_span);
            rec.attempted += 1;
            if run.selection_order.len() != PAPER_K {
                rec.failed += 1;
                continue;
            }
            // Score the returned seed set on the shared oracle.
            let estimate_span = tracer.begin("op.estimate", span, rec.attempted);
            let estimate_began = Instant::now();
            let spread = oracle.estimate_with(&run.selection_order, scratch);
            rec.estimate.push(estimate_began.elapsed());
            tracer.end(estimate_span);
            rec.attempted += 1;
            if !(spread.is_finite() && spread >= PAPER_K as f64) {
                rec.failed += 1;
            }
            if rung.ba {
                rec.trial[rung.approach].push(elapsed);
            } else {
                let mut seeds = run.selection_order.clone();
                seeds.sort_unstable();
                distributions[rung.approach][rung.step].record(seeds);
            }
        }
        rec.cycle.push(cycle_began.elapsed());
        tracer.end(span);
        cycle += 1;
    }
    rec.wall = began.elapsed();

    // The paper's findings on the Karate ladder: more samples concentrate
    // the solution distribution, and the approaches agree on where.
    let mut notes = Vec::new();
    let mut correct = true;
    let mut modes = Vec::new();
    for (approach, name) in ["Oneshot", "Snapshot", "RIS"].iter().enumerate() {
        let bottom = distributions[approach][0].entropy();
        let top = distributions[approach][2].entropy();
        let mode = modal_seed_set(&distributions[approach][2]);
        let ok = top <= bottom;
        notes.push(format!(
            "{name}: entropy {bottom:.3} (bottom rung) -> {top:.3} (top rung), top-rung mode {mode:?}: {}",
            if ok { "ok" } else { "NOT CONCENTRATING" }
        ));
        correct &= ok;
        modes.push(mode);
    }
    // Snapshot and RIS are concentrated enough at the top rung for their
    // modes to be the limit seed set; Oneshot at beta = 256 is not (its
    // entropy is still ~3 bits), so it is held to sharing all but one seed.
    let agree = modes[1] == modes[2];
    let shared = modes[0].iter().filter(|v| modes[1].contains(v)).count();
    let near = shared + 1 >= PAPER_K;
    notes.push(format!(
        "top-rung modal seed sets: Snapshot = RIS {}, Oneshot shares {shared} of {PAPER_K} seeds {}",
        if agree { "ok" } else { "MISMATCH" },
        if near { "ok" } else { "MISMATCH" }
    ));
    correct &= agree && near;
    Ok(Outcome {
        recorder: rec,
        setups,
        pool_resident_bytes,
        topk_cache_hit_share: None,
        correct,
        notes,
        tracer,
    })
}
