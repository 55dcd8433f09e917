//! `imexp loadtest` — one workload, every backend.
//!
//! The point of the unified [`InfluenceService`] trait is that backends are
//! interchangeable; this driver proves it operationally. It builds the
//! requested fixture once per backend —
//!
//! * `local`          — an in-process engine behind [`LocalService`];
//! * `remote`         — the same engine served over TCP by the **threaded**
//!   turn-queue front end, queried through [`RemoteService`] (protocol v2);
//! * `remote-reactor` — the same engine served by the **event-driven
//!   reactor** front end, same client, same wire bytes;
//! * `sharded:N`      — the same *global* pool cut into `N` shard engines
//!   behind a [`ShardedService`] router with concurrent fan-out —
//!
//! and then pushes the identical deterministic request stream through the
//! trait, one service instance per loadtest connection (so remote backends
//! really exercise concurrent connections, which is the whole point of the
//! front-end comparison). For the sharded backend it additionally verifies
//! the merge soundness acceptance bar: a probe set of `Estimate` and `TopK`
//! requests must come back **bit-identical** (spreads compared by
//! `f64::to_bits`) to the single-pool local backend.
//!
//! With `--bench-out <path>` the per-backend reports are written as one JSON
//! document (`BENCH_serving.json` in CI and in the committed benchmark),
//! carrying the workload shape, the arrival discipline, the host's core
//! count and the exact reproducing invocation alongside every backend's
//! throughput and latency trajectory (p50/p99/p999).

use std::sync::Arc;

use serde::Serialize;

use imnet::chung_lu::ChungLu;
use imserve::engine::QueryEngine;
use imserve::index::{parse_dataset, parse_model, IndexArtifact};
use imserve::loadtest::{run_with, LoadtestConfig, LoadtestReport, ServerMetricsDelta};
use imserve::protocol::TopKAlgorithm;
use imserve::service::{BackendSpec, InfluenceService, LocalService, ServiceError};
use imserve::shard::ShardedService;
use imserve::{reactor, server, ReactorConfig, RemoteService, ServerConfig, ServerHandle};

/// Everything `imexp loadtest` needs to run one backend comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadtestSpec {
    /// Which backends to drive, in order (`--backend all` expands to the
    /// full trajectory: local, remote, remote-reactor, sharded:4).
    pub backends: Vec<BackendSpec>,
    /// Fixture name: a registry dataset (`karate`, `ba-s`, …) or the
    /// synthetic `chung-lu` power-law fixture.
    pub dataset: String,
    /// Probability-model label.
    pub model: String,
    /// Global RR-set pool size (split across shards for `sharded:N`).
    pub pool: usize,
    /// Base seed of the pool sample.
    pub seed: u64,
    /// Workload shape.
    pub config: LoadtestConfig,
    /// Write the per-backend reports as one JSON benchmark document.
    pub bench_out: Option<String>,
}

/// One backend's completed run.
#[derive(Debug)]
pub struct BackendRun {
    /// The backend that was driven.
    pub backend: BackendSpec,
    /// Its loadtest report.
    pub report: LoadtestReport,
    /// For `sharded:N`: how many probes the byte-identity verification
    /// against the single-pool local backend checked.
    pub verified_probes: Option<usize>,
}

/// The built fixture: a labelled influence graph.
fn fixture_graph(
    dataset: &str,
    model_label: &str,
    seed: u64,
) -> Result<(String, String, imgraph::InfluenceGraph), ServiceError> {
    let model = parse_model(model_label)?;
    let normalized = dataset.to_ascii_lowercase().replace('_', "-");
    if normalized == "chung-lu" || normalized == "chunglu" {
        // The bench family's power-law fixture, sized for CI: ~2k vertices,
        // ~6k expected edges, Table-3-like exponents. Deterministic per
        // seed.
        let graph = ChungLu::power_law(2_000, 6_000, 2.3, 2.3, 0.01)
            .generate(&mut imrand::default_rng(seed));
        return Ok(("ChungLu".to_string(), model.label(), model.assign(&graph)));
    }
    let ds = parse_dataset(dataset)?;
    Ok((
        ds.name().to_string(),
        model.label(),
        ds.influence_graph(model, seed),
    ))
}

/// Compute threads given to both remote front ends, so the comparison
/// isolates the connection-handling strategy rather than the pool size.
const REMOTE_COMPUTE_THREADS: usize = 2;

/// One backend's long-lived state: the engines (shared by every
/// per-connection service) and, for remote backends, the server keeping the
/// ephemeral port alive. Dropping the fixture shuts the server down.
enum BackendFixture {
    Local { engine: Arc<QueryEngine> },
    Remote { handle: Option<ServerHandle> },
    RemoteReactor { handle: Option<ServerHandle> },
    Sharded { engines: Vec<Arc<QueryEngine>> },
}

impl Drop for BackendFixture {
    fn drop(&mut self) {
        match self {
            BackendFixture::Remote { handle } | BackendFixture::RemoteReactor { handle } => {
                if let Some(handle) = handle.take() {
                    handle.shutdown();
                }
            }
            BackendFixture::Local { .. } | BackendFixture::Sharded { .. } => {}
        }
    }
}

impl BackendFixture {
    /// A fresh service over this fixture — one per loadtest connection.
    fn make(&self) -> Result<Box<dyn InfluenceService + Send>, ServiceError> {
        match self {
            BackendFixture::Local { engine } => Ok(Box::new(LocalService::new(Arc::clone(engine)))),
            BackendFixture::Remote { handle } | BackendFixture::RemoteReactor { handle } => {
                let addr = handle.as_ref().expect("server not yet dropped").addr();
                Ok(Box::new(RemoteService::connect(addr)?))
            }
            BackendFixture::Sharded { engines } => {
                let shards: Vec<LocalService> = engines
                    .iter()
                    .map(|engine| LocalService::new(Arc::clone(engine)))
                    .collect();
                Ok(Box::new(ShardedService::new(shards)?))
            }
        }
    }
}

fn whole_pool_engine(spec: &LoadtestSpec) -> Result<Arc<QueryEngine>, ServiceError> {
    let (graph_id, model, graph) = fixture_graph(&spec.dataset, &spec.model, spec.seed)?;
    let artifact = IndexArtifact::build(&graph_id, &model, graph, spec.pool, spec.seed);
    Ok(Arc::new(
        QueryEngine::builder(artifact)
            .build()
            .map_err(ServiceError::from)?,
    ))
}

fn open_fixture(spec: &LoadtestSpec, backend: BackendSpec) -> Result<BackendFixture, ServiceError> {
    match backend {
        BackendSpec::Local => Ok(BackendFixture::Local {
            engine: whole_pool_engine(spec)?,
        }),
        BackendSpec::Remote => {
            let handle = server::spawn(
                "127.0.0.1:0",
                whole_pool_engine(spec)?,
                &ServerConfig {
                    workers: REMOTE_COMPUTE_THREADS,
                    ..ServerConfig::default()
                },
            )
            .map_err(ServiceError::from)?;
            Ok(BackendFixture::Remote {
                handle: Some(handle),
            })
        }
        BackendSpec::RemoteReactor => {
            let handle = reactor::spawn(
                "127.0.0.1:0",
                whole_pool_engine(spec)?,
                &ReactorConfig {
                    compute_threads: REMOTE_COMPUTE_THREADS,
                    ..ReactorConfig::default()
                },
            )
            .map_err(ServiceError::from)?;
            Ok(BackendFixture::RemoteReactor {
                handle: Some(handle),
            })
        }
        BackendSpec::Sharded(count) => {
            let (graph_id, model, graph) = fixture_graph(&spec.dataset, &spec.model, spec.seed)?;
            let mut engines = Vec::with_capacity(count);
            for index in 0..count {
                let artifact = IndexArtifact::build_shard(
                    &graph_id,
                    &model,
                    graph.clone(),
                    spec.pool,
                    spec.seed,
                    index,
                    count,
                );
                engines.push(Arc::new(
                    QueryEngine::builder(artifact)
                        .build()
                        .map_err(ServiceError::from)?,
                ));
            }
            Ok(BackendFixture::Sharded { engines })
        }
    }
}

/// The deterministic probe set of the byte-identity check: a spread of seed
/// sets plus both `TopK` algorithms.
fn verify_against_local(
    spec: &LoadtestSpec,
    sharded: &mut dyn InfluenceService,
) -> Result<usize, ServiceError> {
    let mut local = LocalService::new(whole_pool_engine(spec)?);
    let n = local.info()?.num_vertices as u32;
    let mut checked = 0usize;
    let mut probes: Vec<Vec<u32>> = vec![vec![0], vec![n - 1], vec![0, n / 2, n - 1]];
    for p in 0..8u32 {
        probes.push(vec![(p * 7) % n, (p * 13 + 1) % n]);
    }
    for seeds in probes {
        let a = local.estimate(&seeds)?;
        let b = sharded.estimate(&seeds)?;
        if a.spread.to_bits() != b.spread.to_bits() || a.covered != b.covered || a.pool != b.pool {
            return Err(ServiceError::Shard(format!(
                "estimate({seeds:?}) diverged: local {a:?} vs sharded {b:?}"
            )));
        }
        checked += 1;
    }
    for algorithm in [TopKAlgorithm::Greedy, TopKAlgorithm::SingletonRank] {
        let a = local.top_k(spec.config.k, algorithm)?;
        let b = sharded.top_k(spec.config.k, algorithm)?;
        if a.seeds != b.seeds || a.spread.to_bits() != b.spread.to_bits() {
            return Err(ServiceError::Shard(format!(
                "top_k({}, {algorithm}) diverged: local {a:?} vs sharded {b:?}",
                spec.config.k
            )));
        }
        checked += 1;
    }
    Ok(checked)
}

/// Run the workload through one backend (and, for `sharded:N`, the
/// byte-identity verification).
fn run_backend(spec: &LoadtestSpec, backend: BackendSpec) -> Result<BackendRun, ServiceError> {
    let fixture = open_fixture(spec, backend)?;
    let report = run_with(&spec.config, || fixture.make())?;
    let verified_probes = if matches!(backend, BackendSpec::Sharded(_)) {
        let mut service = fixture.make()?;
        Some(verify_against_local(spec, &mut *service)?)
    } else {
        None
    };
    Ok(BackendRun {
        backend,
        report,
        verified_probes,
    })
}

/// Run the workload through every requested backend, in order.
pub fn run(spec: &LoadtestSpec) -> Result<Vec<BackendRun>, ServiceError> {
    spec.backends
        .iter()
        .map(|&backend| run_backend(spec, backend))
        .collect()
}

/// The canonical reproducing invocation of `spec` (recorded inside the
/// benchmark document so the committed numbers stay reproducible).
pub fn invocation(spec: &LoadtestSpec) -> String {
    let mut cmd = String::from("imexp loadtest");
    for backend in &spec.backends {
        cmd.push_str(&format!(" --backend {backend}"));
    }
    cmd.push_str(&format!(
        " --dataset {} --model {} --pool {} --seed {} --connections {} --requests {} --k {}",
        spec.dataset,
        spec.model,
        spec.pool,
        spec.seed,
        spec.config.connections,
        spec.config.requests_per_connection,
        spec.config.k
    ));
    if let Some(rps) = spec.config.arrival_rps {
        cmd.push_str(&format!(" --arrival-rps {rps}"));
    }
    if let Some(out) = &spec.bench_out {
        cmd.push_str(&format!(" --bench-out {out}"));
    }
    cmd
}

/// The committed benchmark document (`BENCH_serving.json`): workload shape,
/// host metadata, the reproducing invocation and every backend's latency
/// trajectory.
#[derive(Debug, Serialize)]
pub struct BenchDocument {
    /// Document format tag, bumped on breaking field changes.
    pub schema: String,
    /// The exact command line reproducing these numbers.
    pub invocation: String,
    /// CPU cores available to the run (sharded concurrency is bounded by
    /// this; single-core hosts serialize the fan-out threads).
    pub cores: usize,
    /// What was measured.
    pub workload: BenchWorkload,
    /// One entry per driven backend, in run order.
    pub backends: Vec<BenchBackend>,
}

/// The workload shape recorded in a [`BenchDocument`].
#[derive(Debug, Serialize)]
pub struct BenchWorkload {
    /// Fixture dataset name.
    pub dataset: String,
    /// Probability-model label.
    pub model: String,
    /// Global RR-set pool size.
    pub pool: usize,
    /// Base seed of the pool sample and request streams.
    pub seed: u64,
    /// Concurrent loadtest connections.
    pub connections: usize,
    /// Requests issued per connection.
    pub requests_per_connection: usize,
    /// `TopK` seed-set size in the mix.
    pub k: usize,
    /// Open-loop arrival rate (requests/second), if any.
    pub arrival_rps: Option<u64>,
    /// `open-loop` or `closed-loop`.
    pub discipline: String,
}

/// One backend's results inside a [`BenchDocument`].
#[derive(Debug, Serialize)]
pub struct BenchBackend {
    /// Backend spec string (`local`, `remote`, `remote-reactor`,
    /// `sharded:N`).
    pub backend: String,
    /// Requests completed.
    pub total_requests: usize,
    /// Wall-clock seconds for the whole run.
    pub elapsed_secs: f64,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Median request latency in microseconds.
    pub p50_micros: f64,
    /// Mean request latency in microseconds.
    pub mean_micros: f64,
    /// 99th-percentile latency in microseconds.
    pub p99_micros: f64,
    /// 99.9th-percentile latency in microseconds.
    pub p999_micros: f64,
    /// Worst observed latency in microseconds.
    pub max_micros: f64,
    /// For `sharded:N`: probes verified byte-identical to the single-pool
    /// local backend.
    pub verified_probes: Option<usize>,
    /// What the server itself observed across the run — metric deltas from
    /// `Metrics` snapshots taken before and after the workload (`None` for
    /// backends without metrics support). For `sharded:N` the snapshots are
    /// the router's *federated* reports.
    pub server_metrics: Option<ServerMetricsDelta>,
}

/// Assemble the benchmark document: workload shape, host metadata, the
/// reproducing invocation and every backend's latency trajectory.
pub fn bench_document(spec: &LoadtestSpec, runs: &[BackendRun]) -> BenchDocument {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let backends = runs
        .iter()
        .map(|run| {
            let l = &run.report.latency_micros;
            BenchBackend {
                backend: run.backend.to_string(),
                total_requests: run.report.total_requests,
                elapsed_secs: run.report.elapsed_secs,
                throughput_rps: run.report.throughput_rps,
                p50_micros: l.median,
                mean_micros: l.mean,
                p99_micros: l.p99,
                p999_micros: run.report.p999_micros,
                max_micros: l.max,
                verified_probes: run.verified_probes,
                server_metrics: run.report.server_metrics.clone(),
            }
        })
        .collect();
    BenchDocument {
        schema: "imserve-loadtest/v1".to_string(),
        invocation: invocation(spec),
        cores,
        workload: BenchWorkload {
            dataset: spec.dataset.clone(),
            model: spec.model.clone(),
            pool: spec.pool,
            seed: spec.seed,
            connections: spec.config.connections,
            requests_per_connection: spec.config.requests_per_connection,
            k: spec.config.k,
            arrival_rps: spec.config.arrival_rps,
            discipline: if spec.config.arrival_rps.is_some() {
                "open-loop".to_string()
            } else {
                "closed-loop".to_string()
            },
        },
        backends,
    }
}
