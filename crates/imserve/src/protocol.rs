//! The wire protocol: newline-delimited JSON frames.
//!
//! Every line is an id-tagged frame wrapping an externally-tagged request or
//! response, with a typed error taxonomy:
//!
//! ```text
//! -> {"v":2,"id":7,"req":{"Estimate":{"seeds":[0,5]}}}
//! <- {"v":2,"id":7,"body":{"Ok":{"Estimate":{...}}}}
//! -> {"v":2,"id":8,"req":{"TopK":{"k":0,"algorithm":"Greedy"}}}
//! <- {"v":2,"id":8,"body":{"Err":{"kind":"Query","message":"k must be positive"}}}
//! ```
//!
//! The request id is echoed verbatim, which is what enables *pipelining*: a
//! client may write any number of frames before reading, and match the
//! in-order responses back to requests by id. A session opens with an
//! explicit version handshake (`Hello`). There is exactly one frame version
//! ([`PROTOCOL_VERSION`]); a line that is not a frame of that version is
//! answered with a typed error frame, never interpreted (see `DESIGN.md`).
//!
//! One field is packed: a framed `Gains` reply carries its n counts as one
//! string, standard padded base64 of unsigned LEB128 varints, instead of n
//! JSON integers (see [`ResponseFrame`]). It rides inside the line, so the
//! framing is unchanged, and the integer-array form is refused. A line
//! nested deeper than 128 arrays/objects is refused by the parser before it
//! can exhaust a worker's stack.
//!
//! Each reply type is declared once, in [`crate::service`]; its [`Response`]
//! variant carries it whole, and the `replies!` list here pairs the two once.
//! `Estimate`, `Gains` and `Stats` keep named fields, for the reasons on
//! [`Response`].
//!
//! Responses to the same request against the same index are byte-identical —
//! the engine is deterministic and no timestamps or volatile fields are ever
//! put on the wire — so clients can cache and compare freely. The diagnostic
//! `Stats` response is the one deliberate exception (counters move).

use imgraph::GraphDelta;
use serde::{Deserialize, Serialize};

use crate::error::ServeError;
use crate::service::{
    unexpected, CompactionReport, EventRecord, GainCandidates, GainVector, HealthReport,
    MetricsReport, MutationOutcome, PromotionOutcome, ReloadOutcome, RequestTypeCounts,
    ServiceError, ServiceInfo, ServiceResult, ServiceStats, SpreadEstimate, TopKSelection,
};

/// The protocol version this build speaks (the only one).
pub const PROTOCOL_VERSION: u32 = 2;

/// Upper bound on one request line and on one replication frame. A peer
/// that sends more before its delimiter is refused and disconnected instead
/// of being buffered without limit; real frames sit orders of magnitude
/// below it.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Seed-set selection strategies the engine can answer `TopK` with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TopKAlgorithm {
    /// Greedy maximum coverage over the index's RR-set pool (the study's
    /// stand-in for Exact Greedy; deterministic for a fixed pool).
    Greedy,
    /// Rank vertices by singleton influence and take the best `k` (the
    /// degree-heuristic analog in oracle space; cheaper, no synergy).
    SingletonRank,
}

impl TopKAlgorithm {
    /// Parse the CLI spelling (`greedy` / `singleton`).
    pub fn parse(s: &str) -> Result<Self, ServeError> {
        match s {
            "greedy" => Ok(TopKAlgorithm::Greedy),
            "singleton" | "singleton-rank" => Ok(TopKAlgorithm::SingletonRank),
            _ => Err(ServeError::Protocol(format!(
                "unknown TopK algorithm {s:?} (expected greedy or singleton)"
            ))),
        }
    }
}

impl std::fmt::Display for TopKAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopKAlgorithm::Greedy => write!(f, "greedy"),
            TopKAlgorithm::SingletonRank => write!(f, "singleton"),
        }
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Protocol-version handshake: the client announces the highest frame
    /// version it speaks; the server answers [`Response::Hello`] with
    /// [`PROTOCOL_VERSION`], or a typed `Unsupported` error when the client
    /// cannot parse it.
    Hello {
        /// Highest frame version the client can parse.
        max_version: u32,
    },
    /// Index metadata.
    Info,
    /// Estimate the influence spread of an explicit seed set.
    Estimate {
        /// The seed vertices (duplicates are tolerated and counted once).
        seeds: Vec<u32>,
    },
    /// Select an influential seed set of size `k`.
    TopK {
        /// Requested seed-set size.
        k: usize,
        /// Selection strategy.
        algorithm: TopKAlgorithm,
    },
    /// Apply a batch of graph mutations **atomically**: all deltas land or
    /// none do, the CSR is patched once for the whole batch, and the union
    /// of dirty RR sets is resampled exactly once per set. An invalid delta
    /// rejects the whole batch: the `Mutation` error means epoch, pool and
    /// WAL are exactly as before.
    MutateBatch {
        /// The mutations to apply, in order, atomically.
        deltas: Vec<GraphDelta>,
    },
    /// Fold the pending delta log into the snapshot watermark now.
    ///
    /// Compaction is pure bookkeeping — the graph and pool are already at the
    /// head version — so the epoch is unchanged and concurrent queries are
    /// unaffected (readers snapshot the state behind an `Arc`).
    Compact,
    /// Per-vertex marginal coverage gains given an already-selected seed
    /// set: one round of greedy maximum coverage as data. This is the
    /// shard-side primitive of distributed `TopK` — a router summing the
    /// integer gain vectors of N pool shards and picking the first argmax
    /// reproduces exactly the selection a single union pool would make.
    Gains {
        /// The seeds already selected (may be empty: gains are then the
        /// singleton coverage counts).
        selected: Vec<u32>,
    },
    /// One greedy round answered output-sensitively: the top `limit`
    /// vertices by `(gain desc, id asc)`, one bound on every vertex not
    /// listed, and the exact gain at each `probe` vertex. What a shard
    /// router sends instead of `Gains`: the reply's size follows `limit` and
    /// `probe`, not the graph. `limit > 0` costs the one pool pass `Gains`
    /// makes; `limit == 0` only point reads of `selected` and `probe`.
    GainCandidates {
        /// The seeds already selected.
        selected: Vec<u32>,
        /// How many vertices to list (clamped to the vertex count).
        limit: usize,
        /// Vertices whose exact gain to report, listed or not.
        probe: Vec<u32>,
    },
    /// Serving counters, pool dimensions and the current index epoch.
    Stats,
    /// A point-in-time observability snapshot: every registered counter,
    /// gauge and histogram plus the slow-query log — the wire twin of the
    /// `--metrics-addr` Prometheus endpoint, so the same data is reachable
    /// through an existing connection.
    Metrics,
    /// A liveness/readiness verdict computed from real signals (WAL
    /// writability, shard reachability and epoch lockstep, reactor
    /// backpressure) — the wire twin of the `/readyz` endpoint. Servers
    /// predating this request answer a typed `Unsupported` error (the
    /// [`FrameEnvelope`] salvage path), which callers treat as unknown
    /// health, not unhealth.
    Health,
    /// The server's recent operational events (WAL failures, compactions,
    /// torn broadcasts, backpressure episodes), oldest first — the wire
    /// twin of the `/events` endpoint.
    Events,
    /// Hot-swap the served index for the artifact at `path` (a path on the
    /// **server's** filesystem, typically a compacted copy of the index it
    /// is already serving). The server validates identity, graph
    /// fingerprint and epoch continuity before atomically swapping behind
    /// the snapshot seam; in-flight queries finish on the old snapshot.
    /// Servers predating this request answer a typed `Unsupported` error
    /// (the [`FrameEnvelope`] salvage path).
    Reload {
        /// Artifact path on the server's filesystem.
        path: String,
    },
    /// Turn a read-only follower writable. With `expected_epoch` the server
    /// refuses (typed `Promotion` error naming the gap) unless its
    /// replication cursor reached that epoch; without it the promotion is
    /// unconditional. Idempotent on an already-writable node.
    Promote {
        /// The leader's last acknowledged epoch the follower must have
        /// reached, or `None` to promote unconditionally.
        expected_epoch: Option<u64>,
    },
}

/// A server response (one per request, same order).
///
/// Each reply type is declared once, as a struct in [`crate::service`], and
/// its variant here carries it whole: `TopK(TopKSelection)` encodes as
/// `{"TopK":{"seeds":…}}`, the same bytes a struct variant with those fields
/// would write. The pairing of each type with its variant is written once, in
/// the `replies!` list below, which generates `From<T> for Response` and
/// `TryFrom<Response> for T`. Three variants keep named fields:
///
/// * `Estimate` and `Gains`, because the benchmark crate
///   (`benchmark/src/lab.rs`) builds both field by field, and `Gains` has the
///   hand-written packed frame codec of [`ResponseFrame`];
/// * `Stats`, because [`ServiceStats`] also carries the per-shard `shards`
///   reports only a router fills, which never go on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Liveness answer.
    Pong,
    /// Handshake answer: the frame version the session will use.
    Hello {
        /// Always [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Index metadata.
    Info(ServiceInfo),
    /// Spread estimate for an explicit seed set.
    Estimate {
        /// The seeds echoed back (as received).
        seeds: Vec<u32>,
        /// The oracle estimate `n·(covered fraction of the pool)`.
        spread: f64,
        /// Distinct pool RR sets intersecting the seed set — the integer
        /// numerator of `spread`, carried so shard routers can merge counts
        /// exactly.
        covered: u64,
        /// RR sets in the answering pool (the denominator of `spread`).
        pool: u64,
    },
    /// A selected seed set.
    TopK(TopKSelection),
    /// Outcome of an atomically applied mutation batch.
    MutateBatch(MutationOutcome),
    /// Outcome of a compaction.
    Compact(CompactionReport),
    /// Per-vertex marginal coverage gains (answer to [`Request::Gains`]).
    Gains {
        /// Marginal gain of every vertex, indexed by vertex id.
        gains: Vec<u64>,
        /// Pool RR sets covered by the selected set.
        covered: u64,
        /// RR sets in the answering pool.
        pool: u64,
    },
    /// Answer to [`Request::GainCandidates`].
    GainCandidates(GainCandidates),
    /// Serving counters, pool dimensions and the current index epoch.
    Stats {
        /// Total requests handled (including failed ones).
        requests: u64,
        /// `TopK` answers served from the LRU cache.
        topk_cache_hits: u64,
        /// `TopK` answers computed and inserted into the cache.
        topk_cache_misses: u64,
        /// RR sets in the served pool.
        pool_size: usize,
        /// Current index epoch (total deltas ever applied, including those
        /// already folded into the loaded artifact).
        epoch: u64,
        /// Deltas applied by *this* server process.
        deltas_applied: u64,
        /// RR sets resampled by this server process.
        sets_resampled: u64,
        /// Pending (uncompacted) deltas in the log right now.
        log_len: usize,
        /// The snapshot watermark: the epoch of the last compaction (or the
        /// watermark the index was loaded with; `0` if compaction never ran).
        snapshot_epoch: u64,
        /// Compactions performed by *this* server process (manual `Compact`
        /// requests plus policy-triggered ones).
        compactions: u64,
        /// Seconds this server process has been up.
        uptime_secs: u64,
        /// Lifetime requests split by request type.
        requests_by_type: RequestTypeCounts,
        /// Bytes of process memory the pool store keeps resident.
        pool_resident_bytes: u64,
        /// Active pool-store layout label (`raw`, `compressed`, `tiered`).
        pool_layout: String,
    },
    /// An observability snapshot (answer to [`Request::Metrics`]). Like
    /// `Stats`, deliberately volatile.
    Metrics(MetricsReport),
    /// A health verdict (answer to [`Request::Health`]). Volatile.
    Health(HealthReport),
    /// Recent operational events (answer to [`Request::Events`]), oldest
    /// first. Volatile.
    Events(Vec<EventRecord>),
    /// Outcome of a hot-swap reload (answer to [`Request::Reload`]).
    Reloaded(ReloadOutcome),
    /// Outcome of a promotion (answer to [`Request::Promote`]).
    Promoted(PromotionOutcome),
    /// The request could not be answered — the flattened form
    /// [`crate::QueryEngine::handle`] returns in process; on the wire errors
    /// travel typed, as [`Outcome::Err`].
    Error {
        /// Human-readable reason.
        message: String,
    },
}

/// The typed error taxonomy of the protocol (the wire form of the
/// recoverable [`ServiceError`] variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorKind {
    /// Malformed frame or request the server cannot parse.
    Protocol,
    /// Invalid query against the served index.
    Query,
    /// A rejected mutation batch (nothing applied).
    Mutation,
    /// The requested frame version or capability is not supported.
    Unsupported,
    /// The backend failed internally.
    Internal,
    /// The server is a read-only replica; writes go to the leader (or
    /// promote the replica first).
    ReadOnly,
    /// A follower promotion was refused: its replication cursor has not
    /// reached the required epoch (the message names the gap).
    Promotion,
}

/// A typed wire error: kind plus human-readable detail.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireError {
    /// Which class of failure this is (drives client retry behavior).
    pub kind: ErrorKind,
    /// Human-readable reason.
    pub message: String,
}

impl WireError {
    /// Lower a service-layer error onto the wire. The client-side-only
    /// variants (`Transport`, `Shard`) map to `Internal` — they should never
    /// be produced by a server, but the mapping is total so relaying them is
    /// safe.
    #[must_use]
    pub fn from_service(e: &ServiceError) -> Self {
        let (kind, message) = match e {
            ServiceError::Query(m) => (ErrorKind::Query, m.clone()),
            ServiceError::Mutation(m) => (ErrorKind::Mutation, m.clone()),
            ServiceError::Protocol(m) => (ErrorKind::Protocol, m.clone()),
            ServiceError::Backend(m) => (ErrorKind::Internal, m.clone()),
            ServiceError::Transport(io) => (ErrorKind::Internal, io.to_string()),
            ServiceError::Shard(m) => (ErrorKind::Internal, m.clone()),
            ServiceError::ReadOnly(m) => (ErrorKind::ReadOnly, m.clone()),
            ServiceError::Promotion(m) => (ErrorKind::Promotion, m.clone()),
        };
        Self { kind, message }
    }

    /// Raise the wire error back into the service-layer taxonomy.
    #[must_use]
    pub fn into_service(self) -> ServiceError {
        match self.kind {
            ErrorKind::Query => ServiceError::Query(self.message),
            ErrorKind::Mutation => ServiceError::Mutation(self.message),
            ErrorKind::Protocol | ErrorKind::Unsupported => ServiceError::Protocol(self.message),
            ErrorKind::Internal => ServiceError::Backend(self.message),
            ErrorKind::ReadOnly => ServiceError::ReadOnly(self.message),
            ErrorKind::Promotion => ServiceError::Promotion(self.message),
        }
    }
}

/// The version/id envelope of a frame, decodable even when the request
/// payload is not (e.g. an unknown variant from a newer client). Lets the
/// server answer an `Unsupported` error tagged with the request's **own id**
/// — anything else would desync a pipelining client that is matching
/// responses by id.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrameEnvelope {
    /// Frame version.
    pub v: u32,
    /// Caller-chosen id, echoed on the error frame.
    pub id: u64,
}

/// A request frame: version, caller-chosen id, payload, and an optional
/// trace id.
///
/// `Serialize`/`Deserialize` are hand-written (not derived) because the
/// trace field must be *omitted entirely* when absent: every frame a
/// non-tracing client sends stays byte-for-byte what it was before the
/// field existed, and old servers never see an unknown key. Responses never
/// carry the trace id at all, so traced and untraced requests receive
/// byte-identical answers.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestFrame {
    /// Frame version (currently always [`PROTOCOL_VERSION`]).
    pub v: u32,
    /// Caller-chosen id, echoed verbatim on the response frame — the hook
    /// pipelining hangs off.
    pub id: u64,
    /// The request itself.
    pub req: Request,
    /// Optional request-scoped trace id (`"t"` on the wire; omitted when
    /// `None`). A router sets the same id on every shard hop of one logical
    /// request, so the per-server slow-query logs stitch into one causal
    /// trace.
    pub trace: Option<u64>,
}

impl RequestFrame {
    /// An untraced frame (the common case; byte-identical to the pre-trace
    /// wire format).
    #[must_use]
    pub fn new(id: u64, req: Request) -> Self {
        Self {
            v: PROTOCOL_VERSION,
            id,
            req,
            trace: None,
        }
    }
}

impl Serialize for RequestFrame {
    fn to_value(&self) -> serde::Value {
        let mut pairs = vec![
            ("v".to_string(), self.v.to_value()),
            ("id".to_string(), self.id.to_value()),
            ("req".to_string(), self.req.to_value()),
        ];
        if let Some(t) = self.trace {
            pairs.push(("t".to_string(), t.to_value()));
        }
        serde::Value::Object(pairs)
    }
}

impl Deserialize for RequestFrame {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let trace = match v.get("t") {
            None | Some(serde::Value::Null) => None,
            Some(t) => {
                Some(u64::from_value(t).map_err(|e| serde::Error(format!("field `t`: {e}")))?)
            }
        };
        Ok(Self {
            v: serde::de_field(v, "v")?,
            id: serde::de_field(v, "id")?,
            req: serde::de_field(v, "req")?,
            trace,
        })
    }
}

/// A response body: the typed success/failure split.
// `Ok` is the large variant and the common one (its size is `Stats`' per-type
// request counts); an `Outcome` lives for one frame, so boxing it would buy an
// allocation per reply and save nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Outcome {
    /// The request succeeded.
    Ok(Response),
    /// The request failed, with a typed reason.
    Err(WireError),
}

/// A response frame, id-matched to its request.
///
/// `Serialize`/`Deserialize` are hand-written (not derived) for one body: an
/// `Ok(Gains)` reply carries its `gains` as one packed string (standard
/// padded base64 of the counts as unsigned LEB128 varints), not as n JSON
/// integers. Every other body is the derived externally-tagged form. The
/// decoder refuses the integer-array form of `gains`, so a peer from another
/// build gets a typed error, never a wrong vector. A bare [`Response`] (what
/// the CLI prints) is unaffected.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseFrame {
    /// Frame version (echoes the request frame's).
    pub v: u32,
    /// The id of the request this answers.
    pub id: u64,
    /// Success or typed failure.
    pub body: Outcome,
}

impl Serialize for ResponseFrame {
    fn to_value(&self) -> serde::Value {
        let body = match &self.body {
            Outcome::Ok(Response::Gains {
                gains,
                covered,
                pool,
            }) => tagged(
                "Ok",
                tagged(
                    "Gains",
                    serde::Value::Object(vec![
                        ("gains".to_string(), serde::Value::Str(pack_gains(gains))),
                        ("covered".to_string(), covered.to_value()),
                        ("pool".to_string(), pool.to_value()),
                    ]),
                ),
            ),
            body => body.to_value(),
        };
        serde::Value::Object(vec![
            ("v".to_string(), self.v.to_value()),
            ("id".to_string(), self.id.to_value()),
            ("body".to_string(), body),
        ])
    }
}

impl Deserialize for ResponseFrame {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let (version, id) = (serde::de_field(v, "v")?, serde::de_field(v, "id")?);
        // The same one-key tag match the derived `Outcome`/`Response` code
        // makes, so a `Gains` body never reaches the derived array decoder.
        let gains_body = v
            .get("body")
            .and_then(|body| variant_payload(body, "Ok"))
            .and_then(|ok| variant_payload(ok, "Gains"));
        let body = match gains_body {
            Some(fields) => Outcome::Ok(Response::Gains {
                gains: match fields.get("gains") {
                    Some(serde::Value::Str(text)) => unpack_gains(text),
                    Some(serde::Value::Array(_)) => {
                        Err("an integer array is not accepted; gains travel packed".to_string())
                    }
                    Some(_) => Err("expected a packed base64 LEB128 string".to_string()),
                    None => Err("missing".to_string()),
                }
                .map_err(|e| serde::Error(format!("field `gains`: {e}")))?,
                covered: serde::de_field(fields, "covered")?,
                pool: serde::de_field(fields, "pool")?,
            }),
            None => serde::de_field(v, "body")?,
        };
        Ok(Self {
            v: version,
            id,
            body,
        })
    }
}

/// `{"<tag>": inner}`, the externally-tagged shape of an enum variant.
fn tagged(tag: &str, inner: serde::Value) -> serde::Value {
    serde::Value::Object(vec![(tag.to_string(), inner)])
}

/// The payload of `v` if it is exactly the one-key object `{"<tag>": …}`.
fn variant_payload<'a>(v: &'a serde::Value, tag: &str) -> Option<&'a serde::Value> {
    match v {
        serde::Value::Object(pairs) if pairs.len() == 1 && pairs[0].0 == tag => Some(&pairs[0].1),
        _ => None,
    }
}

const BASE64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Each byte's 6-bit base64 value, or `u8::MAX` for a byte outside the
/// alphabet (including `=`, which only [`unpack_gains`]' padding check reads).
const BASE64_VALUES: [u8; 256] = {
    let mut table = [u8::MAX; 256];
    let mut i = 0;
    while i < 64 {
        table[BASE64[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// The wire form of a gain vector: each count as an unsigned LEB128 varint
/// (seven bits per byte, low group first, high bit set on every byte but the
/// last), the bytes in standard padded base64.
fn pack_gains(gains: &[u64]) -> String {
    let mut bytes = Vec::with_capacity(gains.len() + gains.len() / 2);
    for &gain in gains {
        let mut x = gain;
        while x >= 0x80 {
            bytes.push(x as u8 | 0x80);
            x >>= 7;
        }
        bytes.push(x as u8);
    }
    let digit = |n: u32, shift: u32| BASE64[(n >> shift) as usize & 63];
    let mut text = Vec::with_capacity(bytes.len().div_ceil(3) * 4);
    let mut groups = bytes.chunks_exact(3);
    for g in &mut groups {
        let n = u32::from(g[0]) << 16 | u32::from(g[1]) << 8 | u32::from(g[2]);
        text.extend([digit(n, 18), digit(n, 12), digit(n, 6), digit(n, 0)]);
    }
    match *groups.remainder() {
        [a] => {
            let n = u32::from(a) << 16;
            text.extend([digit(n, 18), digit(n, 12), b'=', b'=']);
        }
        [a, b] => {
            let n = u32::from(a) << 16 | u32::from(b) << 8;
            text.extend([digit(n, 18), digit(n, 12), digit(n, 6), b'=']);
        }
        _ => {}
    }
    String::from_utf8(text).expect("base64 is ASCII")
}

/// The inverse of [`pack_gains`]. Total and canonical: it accepts exactly the
/// strings `pack_gains` produces and names the first defect of any other.
fn unpack_gains(text: &str) -> Result<Vec<u64>, String> {
    let text = text.as_bytes();
    if !text.len().is_multiple_of(4) {
        return Err(format!(
            "base64 length {} is not a multiple of 4",
            text.len()
        ));
    }
    let bad_character = |at: usize| {
        let c = char::from(text[at]);
        Err(format!("bad base64 character {c:?} at byte {at}"))
    };
    let mut bytes = Vec::with_capacity(text.len() / 4 * 3);
    let last = text.len().saturating_sub(4);
    // Every quad but the last carries three bytes and no padding, so only
    // the last one needs the padding rules.
    for (q, quad) in text[..last].chunks_exact(4).enumerate() {
        let values = [0, 1, 2, 3].map(|i| BASE64_VALUES[usize::from(quad[i])]);
        if let Some(i) = values.iter().position(|&value| value == u8::MAX) {
            return bad_character(q * 4 + i);
        }
        let n = values
            .iter()
            .fold(0u32, |n, &value| n << 6 | u32::from(value));
        bytes.extend_from_slice(&[(n >> 16) as u8, (n >> 8) as u8, n as u8]);
    }
    if let Some(quad) = text.get(last..).filter(|quad| !quad.is_empty()) {
        let pad = quad.iter().rev().take_while(|&&c| c == b'=').count();
        if pad > 2 {
            return Err(format!("bad base64 padding at byte {last}"));
        }
        let mut n = 0u32;
        for (i, &c) in quad[..4 - pad].iter().enumerate() {
            let value = BASE64_VALUES[usize::from(c)];
            if value == u8::MAX {
                return bad_character(last + i);
            }
            n |= u32::from(value) << (18 - 6 * i);
        }
        let kept = 3 - pad;
        if n & (0x00FF_FFFF >> (8 * kept)) != 0 {
            return Err(format!("non-zero base64 pad bits at byte {last}"));
        }
        bytes.extend_from_slice(&[(n >> 16) as u8, (n >> 8) as u8, n as u8][..kept]);
    }
    let mut gains = Vec::with_capacity(bytes.len());
    let mut pos = 0;
    while pos < bytes.len() {
        // Most counts fit one byte.
        if bytes[pos] < 0x80 {
            gains.push(u64::from(bytes[pos]));
            pos += 1;
            continue;
        }
        let (start, mut value, mut shift) = (pos, 0u64, 0u32);
        loop {
            let Some(&b) = bytes.get(pos) else {
                return Err(format!("varint {} truncated", gains.len()));
            };
            pos += 1;
            if shift == 63 && b > 1 {
                return Err(format!("varint {} exceeds u64::MAX", gains.len()));
            }
            value |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                if b == 0 && pos - start > 1 {
                    return Err(format!("varint {} is overlong", gains.len()));
                }
                break;
            }
            shift += 7;
        }
        gains.push(value);
    }
    Ok(gains)
}

/// Pair each typed service result with the one [`Response`] variant that
/// carries it, generating `From<T> for Response` (how the server and the CLI
/// put a typed answer on the wire) and `TryFrom<Response> for T` (how a typed
/// method reads one back; a reply of any other kind is [`unexpected`] for the
/// request kind named). A newtype variant carries the type whole; a variant
/// with named fields lists them, then after a `;` any field of the type the
/// wire does not carry, with its value.
macro_rules! replies {
    ($($typed:ty => $asked:literal, $variant:ident $shape:tt;)*) => {
        $(replies!(@pair $typed, $asked, $variant $shape);)*
    };
    (@pair $typed:ty, $asked:literal, $variant:ident (_)) => {
        impl From<$typed> for Response {
            fn from(reply: $typed) -> Self {
                Response::$variant(reply)
            }
        }
        impl TryFrom<Response> for $typed {
            type Error = ServiceError;
            fn try_from(reply: Response) -> ServiceResult<Self> {
                match reply {
                    Response::$variant(reply) => Ok(reply),
                    other => unexpected($asked, other),
                }
            }
        }
    };
    (@pair $typed:ty, $asked:literal, $variant:ident {
        $($field:ident),* $(; $extra:ident: $value:expr)?
    }) => {
        impl From<$typed> for Response {
            fn from(reply: $typed) -> Self {
                Response::$variant { $($field: reply.$field),* }
            }
        }
        impl TryFrom<Response> for $typed {
            type Error = ServiceError;
            fn try_from(reply: Response) -> ServiceResult<Self> {
                match reply {
                    Response::$variant { $($field),* } => Ok(Self { $($field,)* $($extra: $value)? }),
                    other => unexpected($asked, other),
                }
            }
        }
    };
}

replies! {
    ServiceInfo => "Info", Info(_);
    SpreadEstimate => "Estimate", Estimate { seeds, spread, covered, pool };
    TopKSelection => "TopK", TopK(_);
    GainVector => "Gains", Gains { gains, covered, pool };
    GainCandidates => "GainCandidates", GainCandidates(_);
    MutationOutcome => "MutateBatch", MutateBatch(_);
    CompactionReport => "Compact", Compact(_);
    ServiceStats => "Stats", Stats {
        requests, topk_cache_hits, topk_cache_misses, pool_size, epoch, deltas_applied,
        sets_resampled, log_len, snapshot_epoch, compactions, uptime_secs, requests_by_type,
        pool_resident_bytes, pool_layout; shards: Vec::new()
    };
    MetricsReport => "Metrics", Metrics(_);
    HealthReport => "Health", Health(_);
    Vec<EventRecord> => "Events", Events(_);
    ReloadOutcome => "Reload", Reloaded(_);
    PromotionOutcome => "Promote", Promoted(_);
}

/// Encode a frame as its JSON wire line (no trailing newline).
pub fn encode<T: Serialize>(frame: &T) -> Result<String, ServeError> {
    serde_json::to_string(frame).map_err(|e| ServeError::Protocol(format!("encode: {e}")))
}

/// Decode one wire line into a frame.
pub fn decode<T: serde::Deserialize>(line: &str) -> Result<T, ServeError> {
    serde_json::from_str(line.trim()).map_err(|e| ServeError::Protocol(format!("decode: {e}")))
}

/// Parse a delta script: one [`GraphDelta`] wire frame per non-empty line
/// (the same externally-tagged JSON the `MutateBatch` request carries), e.g.
///
/// ```text
/// {"InsertEdge":{"source":0,"target":33,"probability":0.5}}
/// {"DeleteEdge":{"source":0,"target":1}}
/// {"SetProbability":{"source":2,"target":3,"probability":1.0}}
/// ```
///
/// Used by `imserve mutate --file` and `imserve build --deltas`, so the same
/// script drives both the incremental path and the from-scratch rebuild it
/// must match.
pub fn parse_delta_script(text: &str) -> Result<Vec<GraphDelta>, ServeError> {
    let mut deltas = Vec::new();
    for (line_no, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let delta: GraphDelta = decode(line)
            .map_err(|e| ServeError::Protocol(format!("delta script line {}: {e}", line_no + 1)))?;
        deltas.push(delta);
    }
    Ok(deltas)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One of every request kind, with integers at their extremes.
    fn request_corpus() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::Hello { max_version: 2 },
            Request::Info,
            Request::Estimate {
                seeds: vec![0, 5, 9, u32::MAX],
            },
            Request::TopK {
                k: 3,
                algorithm: TopKAlgorithm::Greedy,
            },
            Request::MutateBatch {
                deltas: vec![
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
                        source: 2,
                        target: 3,
                        probability: 1.0,
                    },
                ],
            },
            Request::Compact,
            Request::Gains {
                selected: vec![0, 33],
            },
            Request::Gains { selected: vec![] },
            Request::GainCandidates {
                selected: vec![33],
                limit: 64,
                probe: vec![0, 2],
            },
            Request::Stats,
            Request::Metrics,
            Request::Health,
            Request::Events,
            Request::Reload {
                path: "/tmp/compacted.idx".into(),
            },
            Request::Promote {
                expected_epoch: Some(u64::MAX),
            },
            Request::Promote {
                expected_epoch: None,
            },
        ]
    }

    /// One of every response kind, with integers at their extremes.
    fn response_corpus() -> Vec<Response> {
        use crate::service::{
            EventFieldSample, FamilyHelp, GaugeSample, HistogramBucket, HistogramSample,
            MetricSample, SlowQuery, SpanStage,
        };
        let mut health = HealthReport::new();
        health.push("wal_writable", false, "disk \"full\"");
        vec![
            Response::Pong,
            Response::Hello { version: 2 },
            Response::Info(ServiceInfo {
                graph_id: "Karate".into(),
                model: "uc0.1".into(),
                num_vertices: 34,
                num_edges: 156,
                pool_size: 20_000,
                confidence_99: 0.31,
                shard_offset: 0,
                global_pool: u64::MAX,
            }),
            Response::Estimate {
                seeds: vec![1],
                spread: 3.5,
                covered: 7,
                pool: 10,
            },
            Response::TopK(TopKSelection {
                seeds: vec![33, 0],
                spread: 14.25,
                algorithm: TopKAlgorithm::SingletonRank,
            }),
            Response::MutateBatch(MutationOutcome {
                epoch: 5,
                applied: 3,
                resampled: 12,
                compacted: true,
            }),
            Response::Compact(CompactionReport {
                epoch: 5,
                folded: 5,
            }),
            Response::Gains {
                gains: vec![3, 0, 1],
                covered: 4,
                pool: 10,
            },
            Response::Gains {
                gains: vec![0, 127, 128, 1 << 63, u64::MAX],
                covered: 0,
                pool: u64::MAX,
            },
            Response::Gains {
                gains: vec![],
                covered: 0,
                pool: 0,
            },
            Response::GainCandidates(GainCandidates {
                vertices: vec![0, 2],
                counts: vec![9, 4],
                bound: 3,
                probed: vec![4],
                covered: 4,
                pool: 10,
            }),
            Response::Stats {
                requests: 10,
                topk_cache_hits: 1,
                topk_cache_misses: 2,
                pool_size: 5_000,
                epoch: 3,
                deltas_applied: 3,
                sets_resampled: 17,
                log_len: 3,
                snapshot_epoch: 0,
                compactions: 0,
                uptime_secs: 12,
                requests_by_type: RequestTypeCounts {
                    estimate: 6,
                    top_k: 3,
                    gain_candidates: 8,
                    stats: 1,
                    ..RequestTypeCounts::default()
                },
                pool_resident_bytes: 81_920,
                pool_layout: "compressed".to_string(),
            },
            Response::Metrics(MetricsReport {
                counters: vec![MetricSample {
                    name: "imserve_requests_total".into(),
                    value: u64::MAX,
                }],
                gauges: vec![GaugeSample {
                    name: "imserve_epoch".into(),
                    value: -3,
                }],
                histograms: vec![HistogramSample {
                    name: "imserve_request_latency_micros{type=\"estimate\"}".into(),
                    count: 2,
                    sum: 300,
                    buckets: vec![
                        HistogramBucket { le: 127, count: 1 },
                        HistogramBucket { le: 255, count: 2 },
                    ],
                }],
                slow_queries: vec![SlowQuery {
                    trace: 7,
                    total_micros: 15_000,
                    stages: vec![SpanStage {
                        stage: "execute".into(),
                        at_micros: 14_000,
                    }],
                }],
                help: vec![FamilyHelp {
                    family: "imserve_epoch".into(),
                    help: "Current index epoch.".into(),
                }],
            }),
            Response::Health(health),
            Response::Events(vec![EventRecord {
                seq: 1,
                level: "warn".into(),
                code: "torn_broadcast".into(),
                at_unix_micros: 1_700_000_000_000_000,
                trace: 0xC0FFEE,
                fields: vec![EventFieldSample {
                    name: "shard".into(),
                    value: "1".into(),
                }],
            }]),
            Response::Reloaded(ReloadOutcome {
                epoch: 12,
                pool_size: 20_000,
                log_len: 0,
                swap_micros: 87,
            }),
            Response::Promoted(PromotionOutcome {
                epoch: 12,
                was_read_only: true,
            }),
            Response::Error {
                message: "nope".into(),
            },
        ]
    }

    /// The corpus as wire lines: every request framed (and one traced), every
    /// response framed as `Ok`, and one `Err` frame of every kind.
    fn corpus_lines() -> Vec<String> {
        let mut lines: Vec<String> = request_corpus()
            .into_iter()
            .enumerate()
            .map(|(i, req)| encode(&RequestFrame::new(i as u64, req)).unwrap())
            .collect();
        lines.push(
            encode(&RequestFrame {
                trace: Some(u64::MAX),
                ..RequestFrame::new(u64::MAX, Request::Ping)
            })
            .unwrap(),
        );
        for (i, response) in response_corpus().into_iter().enumerate() {
            lines.push(
                encode(&ResponseFrame {
                    v: PROTOCOL_VERSION,
                    id: i as u64,
                    body: Outcome::Ok(response),
                })
                .unwrap(),
            );
        }
        for kind in [
            ErrorKind::Protocol,
            ErrorKind::Query,
            ErrorKind::Mutation,
            ErrorKind::Unsupported,
            ErrorKind::Internal,
            ErrorKind::ReadOnly,
            ErrorKind::Promotion,
        ] {
            lines.push(
                encode(&ResponseFrame {
                    v: PROTOCOL_VERSION,
                    id: 99,
                    body: Outcome::Err(WireError {
                        kind,
                        message: "a \"quoted\"\n\tline \u{1}é".into(),
                    }),
                })
                .unwrap(),
            );
        }
        lines
    }

    #[test]
    fn requests_round_trip_over_the_wire() {
        for (i, frame) in request_corpus().into_iter().enumerate() {
            let line = encode(&frame).unwrap();
            assert!(!line.contains('\n'), "frames must be single-line");
            let back: Request = decode(&line).unwrap();
            assert_eq!(back, frame);
            let framed = RequestFrame::new(i as u64, frame);
            let back: RequestFrame = decode(&encode(&framed).unwrap()).unwrap();
            assert_eq!(back, framed);
        }
    }

    #[test]
    fn responses_round_trip_over_the_wire() {
        for (i, frame) in response_corpus().into_iter().enumerate() {
            let back: Response = decode(&encode(&frame).unwrap()).unwrap();
            assert_eq!(back, frame);
            let framed = ResponseFrame {
                v: PROTOCOL_VERSION,
                id: i as u64,
                body: Outcome::Ok(frame),
            };
            let back: ResponseFrame = decode(&encode(&framed).unwrap()).unwrap();
            assert_eq!(back, framed);
        }
    }

    /// [`corpus_lines`] as the parent of the packed `Gains` form encoded it,
    /// except the three `Ok(Gains)` replies, which are now packed.
    const GOLDEN: [&str; 43] = [
        r#"{"v":2,"id":0,"req":"Ping"}"#,
        r#"{"v":2,"id":1,"req":{"Hello":{"max_version":2}}}"#,
        r#"{"v":2,"id":2,"req":"Info"}"#,
        r#"{"v":2,"id":3,"req":{"Estimate":{"seeds":[0,5,9,4294967295]}}}"#,
        r#"{"v":2,"id":4,"req":{"TopK":{"k":3,"algorithm":"Greedy"}}}"#,
        r#"{"v":2,"id":5,"req":{"MutateBatch":{"deltas":[{"InsertEdge":{"source":0,"target":33,"probability":0.5}},{"DeleteEdge":{"source":0,"target":1}},{"SetProbability":{"source":2,"target":3,"probability":1.0}}]}}}"#,
        r#"{"v":2,"id":6,"req":"Compact"}"#,
        r#"{"v":2,"id":7,"req":{"Gains":{"selected":[0,33]}}}"#,
        r#"{"v":2,"id":8,"req":{"Gains":{"selected":[]}}}"#,
        r#"{"v":2,"id":9,"req":{"GainCandidates":{"selected":[33],"limit":64,"probe":[0,2]}}}"#,
        r#"{"v":2,"id":10,"req":"Stats"}"#,
        r#"{"v":2,"id":11,"req":"Metrics"}"#,
        r#"{"v":2,"id":12,"req":"Health"}"#,
        r#"{"v":2,"id":13,"req":"Events"}"#,
        r#"{"v":2,"id":14,"req":{"Reload":{"path":"/tmp/compacted.idx"}}}"#,
        r#"{"v":2,"id":15,"req":{"Promote":{"expected_epoch":18446744073709551615}}}"#,
        r#"{"v":2,"id":16,"req":{"Promote":{"expected_epoch":null}}}"#,
        r#"{"v":2,"id":18446744073709551615,"req":"Ping","t":18446744073709551615}"#,
        r#"{"v":2,"id":0,"body":{"Ok":"Pong"}}"#,
        r#"{"v":2,"id":1,"body":{"Ok":{"Hello":{"version":2}}}}"#,
        r#"{"v":2,"id":2,"body":{"Ok":{"Info":{"graph_id":"Karate","model":"uc0.1","num_vertices":34,"num_edges":156,"pool_size":20000,"confidence_99":0.31,"shard_offset":0,"global_pool":18446744073709551615}}}}"#,
        r#"{"v":2,"id":3,"body":{"Ok":{"Estimate":{"seeds":[1],"spread":3.5,"covered":7,"pool":10}}}}"#,
        r#"{"v":2,"id":4,"body":{"Ok":{"TopK":{"seeds":[33,0],"spread":14.25,"algorithm":"SingletonRank"}}}}"#,
        r#"{"v":2,"id":5,"body":{"Ok":{"MutateBatch":{"epoch":5,"applied":3,"resampled":12,"compacted":true}}}}"#,
        r#"{"v":2,"id":6,"body":{"Ok":{"Compact":{"epoch":5,"folded":5}}}}"#,
        r#"{"v":2,"id":7,"body":{"Ok":{"Gains":{"gains":"AwAB","covered":4,"pool":10}}}}"#,
        r#"{"v":2,"id":8,"body":{"Ok":{"Gains":{"gains":"AH+AAYCAgICAgICAgAH///////////8B","covered":0,"pool":18446744073709551615}}}}"#,
        r#"{"v":2,"id":9,"body":{"Ok":{"Gains":{"gains":"","covered":0,"pool":0}}}}"#,
        r#"{"v":2,"id":10,"body":{"Ok":{"GainCandidates":{"vertices":[0,2],"counts":[9,4],"bound":3,"probed":[4],"covered":4,"pool":10}}}}"#,
        r#"{"v":2,"id":11,"body":{"Ok":{"Stats":{"requests":10,"topk_cache_hits":1,"topk_cache_misses":2,"pool_size":5000,"epoch":3,"deltas_applied":3,"sets_resampled":17,"log_len":3,"snapshot_epoch":0,"compactions":0,"uptime_secs":12,"requests_by_type":{"ping":0,"hello":0,"info":0,"estimate":6,"top_k":3,"gains":0,"gain_candidates":8,"mutate_batch":0,"compact":0,"stats":1,"metrics":0,"health":0,"events":0,"reload":0,"promote":0},"pool_resident_bytes":81920,"pool_layout":"compressed"}}}}"#,
        r#"{"v":2,"id":12,"body":{"Ok":{"Metrics":{"counters":[{"name":"imserve_requests_total","value":18446744073709551615}],"gauges":[{"name":"imserve_epoch","value":-3}],"histograms":[{"name":"imserve_request_latency_micros{type=\"estimate\"}","count":2,"sum":300,"buckets":[{"le":127,"count":1},{"le":255,"count":2}]}],"slow_queries":[{"trace":7,"total_micros":15000,"stages":[{"stage":"execute","at_micros":14000}]}],"help":[{"family":"imserve_epoch","help":"Current index epoch."}]}}}}"#,
        r#"{"v":2,"id":13,"body":{"Ok":{"Health":{"ready":false,"signals":[{"name":"wal_writable","ok":false,"detail":"disk \"full\""}]}}}}"#,
        r#"{"v":2,"id":14,"body":{"Ok":{"Events":[{"seq":1,"level":"warn","code":"torn_broadcast","at_unix_micros":1700000000000000,"trace":12648430,"fields":[{"name":"shard","value":"1"}]}]}}}"#,
        r#"{"v":2,"id":15,"body":{"Ok":{"Reloaded":{"epoch":12,"pool_size":20000,"log_len":0,"swap_micros":87}}}}"#,
        r#"{"v":2,"id":16,"body":{"Ok":{"Promoted":{"epoch":12,"was_read_only":true}}}}"#,
        r#"{"v":2,"id":17,"body":{"Ok":{"Error":{"message":"nope"}}}}"#,
        r#"{"v":2,"id":99,"body":{"Err":{"kind":"Protocol","message":"a \"quoted\"\n\tline \u0001é"}}}"#,
        r#"{"v":2,"id":99,"body":{"Err":{"kind":"Query","message":"a \"quoted\"\n\tline \u0001é"}}}"#,
        r#"{"v":2,"id":99,"body":{"Err":{"kind":"Mutation","message":"a \"quoted\"\n\tline \u0001é"}}}"#,
        r#"{"v":2,"id":99,"body":{"Err":{"kind":"Unsupported","message":"a \"quoted\"\n\tline \u0001é"}}}"#,
        r#"{"v":2,"id":99,"body":{"Err":{"kind":"Internal","message":"a \"quoted\"\n\tline \u0001é"}}}"#,
        r#"{"v":2,"id":99,"body":{"Err":{"kind":"ReadOnly","message":"a \"quoted\"\n\tline \u0001é"}}}"#,
        r#"{"v":2,"id":99,"body":{"Err":{"kind":"Promotion","message":"a \"quoted\"\n\tline \u0001é"}}}"#,
    ];

    #[test]
    fn the_corpus_encodes_to_the_golden_bytes() {
        let lines = corpus_lines();
        assert_eq!(lines.len(), GOLDEN.len());
        for (line, golden) in lines.iter().zip(GOLDEN) {
            assert_eq!(line, golden);
        }
        // Only a framed reply is packed: the bare `Response` the CLI prints
        // keeps the integer array.
        let bare = Response::Gains {
            gains: vec![3, 0, 1],
            covered: 4,
            pool: 10,
        };
        assert_eq!(
            encode(&bare).unwrap(),
            r#"{"Gains":{"gains":[3,0,1],"covered":4,"pool":10}}"#
        );
    }

    /// Gain vectors whose counts span every varint length.
    fn gain_vectors() -> impl Strategy<Value = Vec<u64>> {
        proptest::collection::vec(
            (0u32..64, 0u64..=u64::MAX).prop_map(|(shift, x)| x >> shift),
            0..40,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn packed_gains_round_trip(gains in gain_vectors()) {
            let packed = pack_gains(&gains);
            prop_assert_eq!(packed.len(), varint_bytes(&gains).div_ceil(3) * 4);
            prop_assert_eq!(unpack_gains(&packed), Ok(gains));
        }

        #[test]
        fn unpacking_is_total_and_canonical(
            chars in proptest::collection::vec(0usize..70, 0..24),
            gains in gain_vectors(),
            at in 0usize..1000,
            with in 0usize..70,
        ) {
            const ALPHABET: &[char] = &[
                'A', 'B', 'Q', 'g', 'w', '/', '+', '0', '9', 'z', '=', '-', '_', ' ', 'é', '\0',
            ];
            let pick = |i: usize| {
                if i < 64 {
                    char::from(BASE64[i])
                } else {
                    ALPHABET[(i - 64) % ALPHABET.len()]
                }
            };
            // An arbitrary string, and a one-character edit of a valid one,
            // half of them in the last group, where padding and pad bits are.
            let arbitrary: String = chars.iter().map(|&i| pick(i)).collect();
            let mut edited: Vec<char> = pack_gains(&gains).chars().collect();
            if !edited.is_empty() {
                let len = edited.len();
                let i = if at % 2 == 0 {
                    at / 2 % len
                } else {
                    len - 1 - at / 2 % 4
                };
                edited[i] = pick(with);
            }
            let edited: String = edited.into_iter().collect();
            for text in [arbitrary, edited] {
                if let Ok(gains) = unpack_gains(&text) {
                    prop_assert_eq!(pack_gains(&gains), text);
                }
            }
        }
    }

    fn varint_bytes(gains: &[u64]) -> usize {
        gains
            .iter()
            .map(|&g| (64 - g.leading_zeros() as usize).max(1).div_ceil(7))
            .sum()
    }

    #[test]
    fn packed_gains_edge_values_and_defects() {
        for gains in [
            vec![],
            vec![0],
            vec![127],
            vec![128],
            vec![1 << 63],
            vec![u64::MAX],
            vec![0, 127, 128, 1 << 63, u64::MAX],
        ] {
            assert_eq!(unpack_gains(&pack_gains(&gains)), Ok(gains));
        }
        for (text, defect) in [
            ("A", "base64 length 1 is not a multiple of 4"),
            ("A===", "bad base64 padding at byte 0"),
            ("AA=A", "bad base64 character '=' at byte 2"),
            ("AA==AAAA", "bad base64 character '=' at byte 2"),
            ("A$==", "bad base64 character '$' at byte 1"),
            ("AR==", "non-zero base64 pad bits at byte 0"),
            ("AAB=", "non-zero base64 pad bits at byte 0"),
            ("gA==", "varint 0 truncated"),
            ("AIAA", "varint 1 is overlong"),
            ("////////////Ag==", "varint 0 exceeds u64::MAX"),
        ] {
            assert_eq!(unpack_gains(text), Err(defect.to_string()), "{text}");
        }
    }

    #[test]
    fn a_gains_reply_in_the_array_form_or_malformed_is_a_protocol_error() {
        let parent = r#"{"v":2,"id":4,"body":{"Ok":{"Gains":{"gains":[412,0],"covered":7099,"pool":20000}}}}"#;
        for (line, reason) in [
            (parent, "an integer array is not accepted"),
            (
                &parent.replace("[412,0]", r#""gA==""#)[..],
                "varint 0 truncated",
            ),
            (
                &parent.replace("[412,0]", "7")[..],
                "expected a packed base64 LEB128 string",
            ),
            (&parent.replace(r#""gains":[412,0],"#, "")[..], "missing"),
        ] {
            match decode::<ResponseFrame>(line) {
                Err(ServeError::Protocol(message)) => {
                    assert!(message.contains("field `gains`"), "{message}");
                    assert!(message.contains(reason), "{message}");
                }
                other => panic!("{line}: expected a typed Protocol error, got {other:?}"),
            }
        }
        let packed = parent.replace("[412,0]", r#""nAMA""#);
        let frame: ResponseFrame = decode(&packed).unwrap();
        assert_eq!(
            frame.body,
            Outcome::Ok(Response::Gains {
                gains: vec![412, 0],
                covered: 7099,
                pool: 20000,
            })
        );
        assert_eq!(encode(&frame).unwrap(), packed);
    }

    #[test]
    fn frames_round_trip_and_are_distinguishable_from_bare_requests() {
        let frame = RequestFrame::new(7, Request::Estimate { seeds: vec![0, 5] });
        let line = encode(&frame).unwrap();
        assert_eq!(line, r#"{"v":2,"id":7,"req":{"Estimate":{"seeds":[0,5]}}}"#);
        let back: RequestFrame = decode(&line).unwrap();
        assert_eq!(back, frame);
        // A frame is not a valid bare request, and vice versa — the server's
        // refusal of unframed lines rests on this.
        assert!(decode::<Request>(&line).is_err());
        assert!(decode::<RequestFrame>(r#"{"Estimate":{"seeds":[0,5]}}"#).is_err());

        let ok = ResponseFrame {
            v: PROTOCOL_VERSION,
            id: 7,
            body: Outcome::Ok(Response::Pong),
        };
        let back: ResponseFrame = decode(&encode(&ok).unwrap()).unwrap();
        assert_eq!(back, ok);
        let err = ResponseFrame {
            v: PROTOCOL_VERSION,
            id: 8,
            body: Outcome::Err(WireError {
                kind: ErrorKind::Query,
                message: "k must be positive".into(),
            }),
        };
        let line = encode(&err).unwrap();
        assert!(line.contains(r#""kind":"Query""#), "{line}");
        let back: ResponseFrame = decode(&line).unwrap();
        assert_eq!(back, err);
    }

    #[test]
    fn traced_frames_append_the_t_field_and_untraced_bytes_are_unchanged() {
        // Untraced: byte-for-byte the pre-trace wire format.
        let untraced = RequestFrame::new(3, Request::Ping);
        assert_eq!(encode(&untraced).unwrap(), r#"{"v":2,"id":3,"req":"Ping"}"#);

        // Traced: the id rides as a trailing "t" key and round-trips.
        let traced = RequestFrame {
            trace: Some(0xABCD),
            ..untraced.clone()
        };
        let line = encode(&traced).unwrap();
        assert_eq!(line, r#"{"v":2,"id":3,"req":"Ping","t":43981}"#);
        let back: RequestFrame = decode(&line).unwrap();
        assert_eq!(back, traced);

        // A server that predates the field would have ignored unknown keys;
        // this one parses it, and treats an explicit null as absent.
        let back: RequestFrame = decode(r#"{"v":2,"id":3,"req":"Ping","t":null}"#).unwrap();
        assert_eq!(back, untraced);
    }

    #[test]
    fn metrics_frames_round_trip_over_the_wire() {
        use crate::service::{
            FamilyHelp, GaugeSample, HistogramBucket, HistogramSample, MetricSample, SlowQuery,
            SpanStage,
        };
        let back: Request = decode(&encode(&Request::Metrics).unwrap()).unwrap();
        assert_eq!(back, Request::Metrics);

        let report = MetricsReport {
            counters: vec![MetricSample {
                name: "imserve_requests_total".into(),
                value: 42,
            }],
            gauges: vec![GaugeSample {
                name: "imserve_epoch".into(),
                value: 3,
            }],
            histograms: vec![HistogramSample {
                name: "imserve_request_latency_micros{type=\"estimate\"}".into(),
                count: 2,
                sum: 300,
                buckets: vec![
                    HistogramBucket { le: 127, count: 1 },
                    HistogramBucket { le: 255, count: 2 },
                ],
            }],
            slow_queries: vec![SlowQuery {
                trace: 7,
                total_micros: 15_000,
                stages: vec![SpanStage {
                    stage: "execute".into(),
                    at_micros: 14_000,
                }],
            }],
            help: vec![FamilyHelp {
                family: "imserve_epoch".into(),
                help: "Current index epoch.".into(),
            }],
        };
        let response = Response::Metrics(report.clone());
        let line = encode(&response).unwrap();
        assert!(line.contains("imserve_requests_total"), "{line}");
        let back: Response = decode(&line).unwrap();
        assert_eq!(back, response);
        // The client-side quantile helper reads the cumulative buckets.
        assert_eq!(report.histograms[0].quantile_micros(0.5), 127);
        assert_eq!(report.histograms[0].quantile_micros(1.0), 255);
    }

    #[test]
    fn wire_errors_round_trip_the_service_taxonomy() {
        use crate::service::ServiceError;
        for (e, kind) in [
            (ServiceError::Query("q".into()), ErrorKind::Query),
            (ServiceError::Mutation("m".into()), ErrorKind::Mutation),
            (ServiceError::Protocol("p".into()), ErrorKind::Protocol),
            (ServiceError::Backend("b".into()), ErrorKind::Internal),
            (ServiceError::ReadOnly("r".into()), ErrorKind::ReadOnly),
            (ServiceError::Promotion("g".into()), ErrorKind::Promotion),
        ] {
            let wire = WireError::from_service(&e);
            assert_eq!(wire.kind, kind);
            let back = wire.into_service();
            assert_eq!(
                std::mem::discriminant(&back),
                std::mem::discriminant(&e),
                "{e} must survive the wire round trip"
            );
        }
        // Unsupported raises into Protocol (retrying the same frame version
        // is pointless either way).
        let unsupported = WireError {
            kind: ErrorKind::Unsupported,
            message: "v9".into(),
        };
        assert!(matches!(
            unsupported.into_service(),
            ServiceError::Protocol(_)
        ));
    }

    #[test]
    fn handshake_and_gains_requests_round_trip() {
        for request in [
            Request::Hello { max_version: 2 },
            Request::Gains {
                selected: vec![0, 33],
            },
            Request::Gains { selected: vec![] },
            Request::GainCandidates {
                selected: vec![33],
                limit: 64,
                probe: vec![0, 2],
            },
        ] {
            let back: Request = decode(&encode(&request).unwrap()).unwrap();
            assert_eq!(back, request);
        }
    }

    #[test]
    fn admin_frames_round_trip_over_the_wire() {
        for request in [
            Request::Reload {
                path: "/tmp/compacted.idx".into(),
            },
            Request::Promote {
                expected_epoch: Some(12),
            },
            Request::Promote {
                expected_epoch: None,
            },
        ] {
            let back: Request = decode(&encode(&request).unwrap()).unwrap();
            assert_eq!(back, request);
        }
        for response in [
            Response::Reloaded(ReloadOutcome {
                epoch: 12,
                pool_size: 20_000,
                log_len: 0,
                swap_micros: 87,
            }),
            Response::Promoted(PromotionOutcome {
                epoch: 12,
                was_read_only: true,
            }),
        ] {
            let back: Response = decode(&encode(&response).unwrap()).unwrap();
            assert_eq!(back, response);
        }
    }

    #[test]
    fn the_wire_shape_is_externally_tagged() {
        let line = encode(&Request::Estimate { seeds: vec![0, 5] }).unwrap();
        assert_eq!(line, r#"{"Estimate":{"seeds":[0,5]}}"#);
        assert_eq!(encode(&Request::Ping).unwrap(), r#""Ping""#);
    }

    #[test]
    fn malformed_lines_are_protocol_errors() {
        assert!(decode::<Request>("{\"Estimate\":").is_err());
        assert!(decode::<Request>("{\"NoSuch\":{}}").is_err());
        assert!(decode::<Request>("").is_err());
    }

    #[test]
    fn mutation_frames_round_trip_over_the_wire() {
        let request = Request::MutateBatch {
            deltas: vec![
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
                    source: 2,
                    target: 3,
                    probability: 1.0,
                },
            ],
        };
        let back: Request = decode(&encode(&request).unwrap()).unwrap();
        assert_eq!(back, request);

        let stats = Response::Stats {
            requests: 10,
            topk_cache_hits: 1,
            topk_cache_misses: 2,
            pool_size: 5_000,
            epoch: 3,
            deltas_applied: 3,
            sets_resampled: 17,
            log_len: 3,
            snapshot_epoch: 0,
            compactions: 0,
            uptime_secs: 12,
            requests_by_type: RequestTypeCounts {
                estimate: 6,
                top_k: 3,
                gain_candidates: 8,
                stats: 1,
                ..RequestTypeCounts::default()
            },
            pool_resident_bytes: 81_920,
            pool_layout: "compressed".to_string(),
        };
        let back: Response = decode(&encode(&stats).unwrap()).unwrap();
        assert_eq!(back, stats);
    }

    #[test]
    fn lifecycle_frames_round_trip_over_the_wire() {
        let back: Request = decode(&encode(&Request::Compact).unwrap()).unwrap();
        assert_eq!(back, Request::Compact);

        let response = Response::MutateBatch(MutationOutcome {
            epoch: 5,
            applied: 3,
            resampled: 12,
            compacted: true,
        });
        let back: Response = decode(&encode(&response).unwrap()).unwrap();
        assert_eq!(back, response);

        let response = Response::Compact(CompactionReport {
            epoch: 5,
            folded: 5,
        });
        let back: Response = decode(&encode(&response).unwrap()).unwrap();
        assert_eq!(back, response);
    }

    #[test]
    fn delta_scripts_parse_line_by_line() {
        let script = "\n{\"InsertEdge\":{\"source\":0,\"target\":33,\"probability\":0.5}}\n\
                      {\"DeleteEdge\":{\"source\":0,\"target\":1}}\n\n";
        let deltas = parse_delta_script(script).unwrap();
        assert_eq!(
            deltas,
            vec![
                GraphDelta::InsertEdge {
                    source: 0,
                    target: 33,
                    probability: 0.5
                },
                GraphDelta::DeleteEdge {
                    source: 0,
                    target: 1
                },
            ]
        );
        let err = parse_delta_script("{\"Bogus\":{}}").unwrap_err();
        assert!(err.to_string().contains("line 1"));
        assert!(parse_delta_script("").unwrap().is_empty());
    }

    #[test]
    fn algorithm_parsing() {
        assert_eq!(
            TopKAlgorithm::parse("greedy").unwrap(),
            TopKAlgorithm::Greedy
        );
        assert_eq!(
            TopKAlgorithm::parse("singleton").unwrap(),
            TopKAlgorithm::SingletonRank
        );
        assert!(TopKAlgorithm::parse("magic").is_err());
        assert_eq!(TopKAlgorithm::Greedy.to_string(), "greedy");
    }
}
