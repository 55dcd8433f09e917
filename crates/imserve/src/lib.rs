//! `imserve` — the persistent influence-query service layer.
//!
//! The paper's shared RR-set oracle (Section 5.2) answers spread queries for
//! arbitrary seed sets; this crate turns it into a servable subsystem with
//! **one typed query surface** over every backend:
//!
//! * [`service`] — the [`service::InfluenceService`] trait (one required
//!   `call` over the wire `Request`, with the typed `estimate`, `top_k`, …
//!   written once on top of it) plus the in-process [`service::LocalService`];
//! * [`shard`] — [`shard::ShardedService`], a router fanning queries out
//!   over N backends holding disjoint RR-set pool shards and merging their
//!   integer coverage counts, byte-identical to a single-pool backend;
//! * [`index`] — a compact, checksummed binary on-disk format bundling the
//!   influence graph, the RR-set pool (whole or one shard of a global pool)
//!   and metadata, built once (`imserve build`) and reloaded in
//!   milliseconds, never resampled;
//! * [`engine`] — a thread-safe [`engine::QueryEngine`] behind the local
//!   backend: scratch-reusing estimates via `EstimateScratch`, greedy `TopK`
//!   fronted by an epoch-keyed [`lru::TopKCache`], atomic mutation batches
//!   through `imdyn`'s incremental RR-set maintenance, compaction, and an
//!   optional mutation write-ahead log ([`wal`]) so acknowledged mutations
//!   survive a crash between index saves;
//! * [`reactor`] / [`client`] — the dependency-free TCP front end speaking
//!   one newline-delimited JSON protocol (id-tagged frames with a version
//!   handshake and typed errors; any other line gets a typed error frame):
//!   an event-driven readiness loop multiplexing every connection over
//!   non-blocking sockets, answering point requests (`Estimate`, `Info`,
//!   `Ping`, `Health`, …) itself and handing the rest to a bounded compute
//!   pool, blocking in `poll(2)` until a socket or a completion is ready —
//!   plus the matching client ([`client::RemoteService`], the connection
//!   itself, with a non-blocking `send`/`poll_response` pair for pipelined
//!   in-flight requests). [`server`] is the threaded turn queue that the
//!   equivalence suites and benchmarks compare the reactor against; `serve`
//!   does not run it;
//! * [`obs`] — the serving stack's observability surface:
//!   [`obs::ServingMetrics`] bundles every counter/gauge/histogram (built on
//!   the std-only `imobs` primitives) plus a slow-query span log and a
//!   bounded structured event ring, and [`obs::spawn_ops_endpoint`] serves
//!   the operational HTTP surface behind `serve`/`route --metrics-addr` —
//!   `/metrics` (Prometheus plaintext, federated across shards on a
//!   router), `/events` (JSON lines), `/healthz` and `/readyz` (readiness
//!   from real signals: WAL writability, shard reachability and epoch
//!   lockstep, reactor backpressure); request-scoped trace ids ride the
//!   optional `"t"` field of request frames so sharded fan-outs stitch into one
//!   causal trace and router-side events name the trace that hit them;
//! * [`replication`] / [`replica`] / [`testkit`] — live operations:
//!   followers (`serve --follow`) tail the leader's write-ahead log over a
//!   length-prefixed record stream (identity-verified handshake, durable
//!   resume cursor, lockstep epoch + lineage-fingerprint checks) and answer
//!   reads byte-identically while refusing writes with a typed `ReadOnly`
//!   error until promoted; [`replica::ReplicaSet`] fails router reads over
//!   to a caught-up follower and keeps writes leader-ordered; the engine
//!   hot-swaps a freshly validated artifact behind the snapshot seam
//!   (`imserve reload`) without dropping in-flight queries; and
//!   [`testkit`] is the deterministic in-process cluster harness (leader +
//!   followers + injectable faults) the integration suites drive;
//! * [`loadtest`] — an in-repo load generator driving any
//!   [`service::InfluenceService`] and reporting latency percentiles via
//!   `imstats`;
//! * [`cli`] — strict, unit-tested argument parsing for the `imserve`
//!   binary.
//!
//! See `DESIGN.md` (next to this crate) for the wire protocol and the index
//! format, `ARCHITECTURE.md` at the repository root for the service-trait
//! diagram, and the repository README for a quickstart.

// `deny`, not `forbid`, so that exactly one module can opt out: the private
// `poll` module makes the crate's single foreign call (the `poll(2)` the
// reactor waits in) behind a module-level `allow(unsafe_code)`; CI greps
// that the keyword appears in no other file of this crate.
#![deny(unsafe_code)]
#![warn(missing_docs)]

#[cfg(not(unix))]
compile_error!("imserve's reactor waits in poll(2): only unix targets are supported");

pub mod cli;
pub mod client;
pub mod engine;
pub mod error;
pub mod index;
mod linebuf;
pub mod loadtest;
pub mod lru;
pub mod obs;
mod poll;
pub mod protocol;
pub mod reactor;
pub mod replica;
pub mod replication;
pub mod server;
pub mod service;
pub mod shard;
pub mod testkit;
pub mod wal;

pub use client::{ReconnectingService, RemoteService};
pub use engine::{EngineBuilder, QueryEngine, ServingState};
pub use error::ServeError;
pub use index::{build_dataset_index, build_dataset_index_with_deltas, IndexArtifact, IndexMeta};
pub use obs::{route_ops_request, spawn_ops_endpoint, OpsResponse, ServingMetrics};
pub use protocol::{Request, Response, TopKAlgorithm, PROTOCOL_VERSION};
pub use reactor::{ReactorConfig, ServerHandle};
pub use replica::{parse_replica_addrs, ReplicaSet};
pub use replication::{
    apply_stream, spawn_follower, spawn_leader, FollowerHandle, FollowerStatus, LeaderHandle,
    ReplicationFaults,
};
pub use server::ServerConfig;
pub use service::{
    BackendSpec, EventRecord, HealthReport, HealthSignal, InfluenceService, LocalService,
    MetricsReport, RequestTypeCounts, ServiceError, ServiceInfo, ServiceStats,
};
pub use shard::ShardedService;
