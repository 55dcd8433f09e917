//! WAL shipping: leader-side record streaming, follower-side apply.
//!
//! A follower (`imserve serve --follow <leader>`) holds the *same* index
//! artifact as its leader and tails the leader's write-ahead log over TCP.
//! Every shipped record is the exact payload the leader fsynced —
//! `u64 epoch_before | u64 graph_hash_before | IMDL delta body` behind a
//! `u32` length prefix, see [`crate::wal`] — so the follower applies
//! bit-identical batches through the same atomic machinery as a local
//! `MutateBatch`, and answers reads byte-identically to the leader at every
//! epoch.
//!
//! Wire anatomy (one TCP connection per follower):
//!
//! ```text
//! follower → leader   {"magic":"imrs","v":2,"identity":…,"base_seed":…,
//!                      "resume_epoch":…}\n
//! leader   → follower {"ok":true,"epoch":…}\n          (or {"ok":false,…})
//! leader   → follower u32 len | payload …              (binary, repeated)
//! ```
//!
//! The handshake carries the full index identity (the same string the WAL
//! header encodes), so a follower of the wrong index — different dataset,
//! model, pool dimensions, shard offset or base seed — is refused before a
//! single record flows. `resume_epoch` is the follower's durable cursor
//! (its own WAL replays it on restart): the leader skips records whose
//! whole span is at or below it, and the follower's
//! [`QueryEngine::apply_replicated`] re-checks every record's
//! `epoch_before` and graph fingerprint in lockstep, so a gap, a replayed
//! foreign record or mid-stream corruption is a fail-stop, never a silently
//! diverged replica. That check is an O(1) comparison against the
//! fingerprint the follower's oracle maintains — applying `R` records
//! performs no pass over the graph.
//!
//! Wire version 2 ships records whose `graph_hash_before` is the
//! maintainable lineage fingerprint (`imgraph::lineage`); a version-1 peer
//! stamps a different hash of the same graph, so the handshake refuses it
//! by version before a record could be misread as a diverged lineage.
//!
//! There are no heartbeats: the follower detects leader death as EOF or a
//! reset on the stream and re-dials with exponential backoff, resuming from
//! its cursor. The follower loop exits on its own once the engine is
//! promoted — a returning old leader cannot push records into a node that
//! has started accepting writes.
//!
//! [`ReplicationFaults`] are the deterministic fault switches the cluster
//! harness flips (drop the connection after N frames, delay each frame,
//! refuse connections); in production they stay at their zero defaults.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::engine::QueryEngine;
use crate::error::ServeError;
use crate::protocol::MAX_FRAME_LEN;
use crate::wal::{self, WalRecord};

/// Magic tag opening every replication handshake.
pub const REPL_MAGIC: &str = "imrs";
/// Replication wire version (2: records carry the maintainable lineage
/// fingerprint; see the module docs).
pub const REPL_VERSION: u32 = 2;

/// How long the leader's tailer sleeps when the WAL has no new complete
/// record (including a torn tail still being written).
const TAIL_POLL: Duration = Duration::from_millis(2);

/// First post-failure redial delay of the follower loop; doubles per
/// consecutive failure up to [`MAX_RECONNECT_BACKOFF`].
const INITIAL_RECONNECT_BACKOFF: Duration = Duration::from_millis(10);
/// Ceiling on the follower loop's exponential reconnect backoff.
const MAX_RECONNECT_BACKOFF: Duration = Duration::from_millis(500);

/// The follower's opening handshake line (JSON, newline-terminated).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplHello {
    /// Always [`REPL_MAGIC`].
    pub magic: String,
    /// Always [`REPL_VERSION`].
    pub v: u32,
    /// The follower engine's index identity string (dataset, model, pool
    /// dimensions, shard offset) — must match the leader's exactly.
    pub identity: String,
    /// The follower's base sampling seed — the other half of the identity.
    pub base_seed: u64,
    /// The follower's durable cursor: ship only records extending past this
    /// epoch.
    pub resume_epoch: u64,
}

/// The leader's handshake reply line (JSON, newline-terminated).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplAck {
    /// Whether the stream follows. `false` is terminal for this connection.
    pub ok: bool,
    /// Refusal reason when `ok` is false (`null` on success — the vendored
    /// serde derive has no field-skipping attributes).
    pub error: Option<String>,
    /// The leader's epoch at handshake time (informational; the operator's
    /// reference point for `promote --expected-epoch`).
    pub epoch: u64,
}

/// Deterministic fault switches for the replication path, shared with the
/// cluster test harness. All zero/false in production.
#[derive(Debug, Default)]
pub struct ReplicationFaults {
    /// When non-zero, the leader hard-drops each connection after shipping
    /// this many frames (a mid-stream kill as seen by the follower).
    pub cut_after_frames: AtomicU64,
    /// Microseconds the leader sleeps before shipping each frame (a slow or
    /// congested link).
    pub delay_micros: AtomicU64,
    /// When set, the leader accepts and immediately closes connections (a
    /// reachable-but-sick leader).
    pub refuse_connections: AtomicBool,
}

/// Live state of one follower loop, shared with the engine's health report
/// (`/readyz` and the typed `Health` request degrade while the stream is
/// down) and with tests.
#[derive(Debug, Default)]
pub struct FollowerStatus {
    /// Whether the stream to the leader is currently established.
    pub connected: AtomicBool,
    /// Epoch after the last applied record (the replication cursor).
    pub last_applied_epoch: AtomicU64,
    /// Total connection attempts (successful or not).
    pub connect_attempts: AtomicU64,
    last_error: Mutex<Option<String>>,
}

impl FollowerStatus {
    /// The most recent stream error, if any (cleared on a clean connect).
    pub fn last_error(&self) -> Option<String> {
        self.last_error.lock().expect("status poisoned").clone()
    }

    fn set_error(&self, error: Option<String>) {
        *self.last_error.lock().expect("status poisoned") = error;
    }
}

/// A running leader-side replication listener.
#[derive(Debug)]
pub struct LeaderHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl LeaderHandle {
    /// The address the listener actually bound (resolves ephemeral port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting followers and join the acceptor. Streams in flight
    /// notice the stop flag at their next frame and close.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for LeaderHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

/// A running follower loop (dial, stream, apply, re-dial).
#[derive(Debug)]
pub struct FollowerHandle {
    stop: Arc<AtomicBool>,
    worker: Option<JoinHandle<()>>,
}

impl FollowerHandle {
    /// Stop the loop and join it. A blocked read is bounded by the stream's
    /// read timeout, so this returns promptly.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.worker.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for FollowerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.worker.take() {
            let _ = handle.join();
        }
    }
}

/// Bind `addr` and stream `engine`'s WAL at `wal_path` to connecting
/// followers until shut down.
///
/// The tailer reads the WAL *file* rather than hooking the engine's append
/// path: shipping stays off the mutation hot path, and what followers
/// receive is by construction what was fsynced, not what was merely
/// attempted. The file's identity header is verified against the engine
/// before any record is shipped.
pub fn spawn_leader(
    addr: impl ToSocketAddrs,
    engine: Arc<QueryEngine>,
    wal_path: impl Into<PathBuf>,
    faults: Arc<ReplicationFaults>,
) -> Result<LeaderHandle, ServeError> {
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let wal_path = wal_path.into();

    let stop_flag = Arc::clone(&stop);
    let acceptor = std::thread::Builder::new()
        .name("imserve-repl-leader".to_string())
        .spawn(move || {
            for stream in listener.incoming() {
                if stop_flag.load(Ordering::SeqCst) {
                    return;
                }
                let Ok(stream) = stream else { continue };
                if faults.refuse_connections.load(Ordering::SeqCst) {
                    let _ = stream.shutdown(Shutdown::Both);
                    continue;
                }
                let engine = Arc::clone(&engine);
                let wal_path = wal_path.clone();
                let faults = Arc::clone(&faults);
                let stop = Arc::clone(&stop_flag);
                let _ = std::thread::Builder::new()
                    .name("imserve-repl-stream".to_string())
                    .spawn(move || {
                        engine.obs().repl_connections.inc();
                        let _ = serve_follower(stream, &engine, &wal_path, &faults, &stop);
                    });
            }
        })
        .expect("replication acceptor spawns");

    Ok(LeaderHandle {
        addr: local_addr,
        stop,
        acceptor: Some(acceptor),
    })
}

/// Serve one follower connection: verify the handshake, then tail the WAL
/// file and ship records until the follower hangs up, the process stops, or
/// a fault switch cuts the stream.
fn serve_follower(
    stream: TcpStream,
    engine: &QueryEngine,
    wal_path: &Path,
    faults: &ReplicationFaults,
    stop: &AtomicBool,
) -> Result<(), ServeError> {
    stream.set_nodelay(true)?;
    // Bound the handshake read so a silent connection cannot pin this thread.
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;

    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(ServeError::Protocol(
            "follower hung up mid-handshake".into(),
        ));
    }
    let hello: ReplHello = serde_json::from_str(line.trim())
        .map_err(|e| ServeError::Protocol(format!("malformed replication handshake: {e}")))?;

    let identity = engine.identity();
    let base_seed = engine.base_seed();
    if let Some(error) = handshake_refusal(&hello, &identity, base_seed) {
        let ack = ReplAck {
            ok: false,
            error: Some(error.clone()),
            epoch: 0,
        };
        writeln!(
            writer,
            "{}",
            serde_json::to_string(&ack).expect("ack encodes")
        )?;
        return Err(ServeError::Protocol(error));
    }
    let ack = ReplAck {
        ok: true,
        error: None,
        epoch: engine.epoch(),
    };
    writeln!(
        writer,
        "{}",
        serde_json::to_string(&ack).expect("ack encodes")
    )?;

    tail_wal(
        &mut writer,
        engine,
        wal_path,
        &identity,
        base_seed,
        hello.resume_epoch,
        faults,
        stop,
    )
}

/// Why a leader serving `identity`/`base_seed` refuses `hello`, if it does.
/// Magic and version are judged before identity: a peer of another wire
/// version is told so, whatever index it serves.
fn handshake_refusal(hello: &ReplHello, identity: &str, base_seed: u64) -> Option<String> {
    if hello.magic != REPL_MAGIC {
        Some(format!("bad magic {:?}", hello.magic))
    } else if hello.v != REPL_VERSION {
        Some(format!(
            "replication version {} not supported (leader speaks {REPL_VERSION})",
            hello.v
        ))
    } else if hello.identity != identity || hello.base_seed != base_seed {
        Some(format!(
            "index identity mismatch: follower serves {:?} (seed {}) but this leader serves \
             {identity:?} (seed {base_seed})",
            hello.identity, hello.base_seed
        ))
    } else {
        None
    }
}

/// The leader's read side of its WAL: one open handle that reads only the
/// bytes appended since the last poll, so a poll costs what was appended,
/// never the log's whole history. Nothing truncates a served WAL (the only
/// `set_len` is start-up recovery), so a file shorter than what was already
/// read — operator error, a harness truncating it — is refused rather than
/// read past.
struct WalTail {
    file: std::fs::File,
    path: PathBuf,
    /// The identity header, verified before the first record is returned.
    header: Vec<u8>,
    /// Bytes read but not yet consumed: whole records waiting to ship, then
    /// at most one torn record still being appended.
    pending: Vec<u8>,
    /// File offset of `pending[0]`.
    offset: u64,
}

impl WalTail {
    fn open(path: &Path, header: Vec<u8>) -> Result<Self, ServeError> {
        Ok(Self {
            file: std::fs::File::open(path)?,
            path: path.to_path_buf(),
            header,
            pending: Vec::new(),
            offset: 0,
        })
    }

    /// Read what was appended since the last poll and return the unconsumed
    /// bytes after the header (empty until the header is whole and checked)
    /// with their file offset.
    fn poll(&mut self) -> Result<(u64, &[u8]), ServeError> {
        let read = self.offset + self.pending.len() as u64;
        let len = self.file.metadata()?.len();
        if len < read {
            return Err(ServeError::Wal(format!(
                "WAL at {} shrank under the tailer (from {read} to {len} bytes)",
                self.path.display()
            )));
        }
        if len > read {
            self.file.read_to_end(&mut self.pending)?;
        }
        if self.offset == 0 {
            let n = self.header.len();
            if self.pending.len() < n {
                return Ok((0, &[])); // header still being written
            }
            if self.pending[..n] != self.header[..] {
                return Err(ServeError::Wal(format!(
                    "WAL at {} carries a different identity header than the index this leader \
                     serves — refusing to ship foreign records",
                    self.path.display()
                )));
            }
            self.consume(n);
        }
        Ok((self.offset, &self.pending))
    }

    /// Drop the first `n` bytes [`WalTail::poll`] returned.
    fn consume(&mut self, n: usize) {
        self.pending.drain(..n);
        self.offset += n as u64;
    }
}

/// Tail the WAL file from the record after `resume_epoch`, shipping each
/// complete record as a length-prefixed frame. Returns when the follower
/// hangs up (write failure), the stop flag is set, or a fault cuts the
/// stream.
#[allow(clippy::too_many_arguments)]
fn tail_wal(
    writer: &mut TcpStream,
    engine: &QueryEngine,
    wal_path: &Path,
    identity: &str,
    base_seed: u64,
    resume_epoch: u64,
    faults: &ReplicationFaults,
    stop: &AtomicBool,
) -> Result<(), ServeError> {
    let mut tail = WalTail::open(wal_path, wal::encode_header(identity, base_seed))?;
    let mut frames_sent = 0u64;

    loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        let (offset, bytes) = tail.poll()?;
        let mut at = 0usize;
        // A torn tail is a record mid-append: the next poll reads the rest.
        while let Some(payload) = wal::framed_payload(&bytes[at..]) {
            let frame = &bytes[at..at + 4 + payload.len()];
            // Decode for the resume filter (and as a shipping-side sanity
            // check: a corrupt record never leaves the leader).
            let record = WalRecord::decode_payload(payload).map_err(|e| {
                ServeError::Wal(format!("tailer at byte {}: {e}", offset + at as u64))
            })?;
            at += frame.len();
            if record.epoch_after() <= resume_epoch {
                continue; // already folded into the follower's cursor
            }
            let delay = faults.delay_micros.load(Ordering::SeqCst);
            if delay > 0 {
                std::thread::sleep(Duration::from_micros(delay));
            }
            let cut = faults.cut_after_frames.load(Ordering::SeqCst);
            if cut > 0 && frames_sent >= cut {
                let _ = writer.shutdown(Shutdown::Both);
                return Ok(()); // injected mid-stream kill
            }
            writer.write_all(frame)?; // shipped as it sits on disk
            frames_sent += 1;
            engine.obs().repl_records_shipped.inc();
        }
        if at > 0 {
            tail.consume(at);
            writer.flush()?;
        } else {
            // Nothing new: probe the follower with a zero-byte write is not
            // possible over TCP, so just sleep; a dead follower surfaces as
            // a write error on the next shipped frame.
            std::thread::sleep(TAIL_POLL);
        }
    }
}

/// Spawn the follower loop: dial `leader`, handshake, apply the stream, and
/// re-dial with exponential backoff on any failure. The loop exits once the
/// engine stops being read-only (promotion) or the handle is shut down.
///
/// `status` is registered on `engine` (once per engine: a second call keeps
/// the first status), so the engine's health report carries the stream's
/// `replication` signal.
pub fn spawn_follower(
    leader: impl Into<String>,
    engine: Arc<QueryEngine>,
    status: Arc<FollowerStatus>,
) -> FollowerHandle {
    let _ = engine.follower.set(Arc::clone(&status));
    let leader = leader.into();
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    status
        .last_applied_epoch
        .store(engine.epoch(), Ordering::SeqCst);
    let worker = std::thread::Builder::new()
        .name("imserve-repl-follower".to_string())
        .spawn(move || {
            let mut backoff = INITIAL_RECONNECT_BACKOFF;
            while !stop_flag.load(Ordering::SeqCst) && engine.is_read_only() {
                status.connect_attempts.fetch_add(1, Ordering::SeqCst);
                match follow_once(&leader, &engine, &status, &stop_flag) {
                    Ok(()) => backoff = INITIAL_RECONNECT_BACKOFF,
                    Err(e) => {
                        status.set_error(Some(e.to_string()));
                        engine.obs().event_log.warn(
                            "replication_stream_lost",
                            0,
                            vec![imobs::EventField::text("error", e.to_string())],
                        );
                    }
                }
                status.connected.store(false, Ordering::SeqCst);
                engine.obs().repl_connected.set(0);
                if stop_flag.load(Ordering::SeqCst) || !engine.is_read_only() {
                    break;
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(MAX_RECONNECT_BACKOFF);
            }
            status.connected.store(false, Ordering::SeqCst);
            engine.obs().repl_connected.set(0);
        })
        .expect("follower thread spawns");
    FollowerHandle {
        stop,
        worker: Some(worker),
    }
}

/// One dial-handshake-apply cycle of the follower loop.
fn follow_once(
    leader: &str,
    engine: &QueryEngine,
    status: &FollowerStatus,
    stop: &AtomicBool,
) -> Result<(), ServeError> {
    let stream = TcpStream::connect(leader)?;
    stream.set_nodelay(true)?;
    // A bounded read timeout doubles as the stop-flag poll interval: the
    // apply loop checks `stop` between frames, so shutdown is prompt even
    // while the leader is silent.
    stream.set_read_timeout(Some(Duration::from_millis(50)))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);

    let hello = ReplHello {
        magic: REPL_MAGIC.to_string(),
        v: REPL_VERSION,
        identity: engine.identity(),
        base_seed: engine.base_seed(),
        resume_epoch: engine.epoch(),
    };
    writeln!(
        writer,
        "{}",
        serde_json::to_string(&hello).expect("hello encodes")
    )?;
    let mut line = String::new();
    loop {
        match reader.read_line(&mut line) {
            Ok(0) => return Err(ServeError::Protocol("leader hung up mid-handshake".into())),
            Ok(_) => break,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::SeqCst) {
                    return Ok(());
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
    let ack: ReplAck = serde_json::from_str(line.trim())
        .map_err(|e| ServeError::Protocol(format!("malformed replication ack: {e}")))?;
    if !ack.ok {
        return Err(ServeError::Protocol(format!(
            "leader refused the replication handshake: {}",
            ack.error.unwrap_or_else(|| "no reason given".into())
        )));
    }
    status.connected.store(true, Ordering::SeqCst);
    status.set_error(None);
    engine.obs().repl_connected.set(1);
    engine.obs().event_log.info(
        "replication_stream_established",
        0,
        vec![
            imobs::EventField::text("leader", leader),
            imobs::EventField::u64("leader_epoch", ack.epoch),
            imobs::EventField::u64("resume_epoch", hello.resume_epoch),
        ],
    );

    apply_stream_until(engine, &mut reader, status, Some(stop)).map(|_| ())
}

/// Apply length-prefixed WAL records from `reader` to `engine` until the
/// stream ends. Returns the number of records applied (skipped duplicates
/// included).
///
/// A clean EOF *between* frames is a normal end of stream (`Ok`); an EOF
/// *inside* a frame is a torn stream and surfaces as a typed error — the
/// caller reconnects and the resume cursor re-requests the torn record. The
/// engine re-verifies every record's epoch and lineage fingerprint, so this
/// function can be driven from any byte source (the crash-point property
/// test feeds it truncated `Cursor`s).
pub fn apply_stream(
    engine: &QueryEngine,
    reader: &mut impl Read,
    status: &FollowerStatus,
) -> Result<u64, ServeError> {
    apply_stream_until(engine, reader, status, None)
}

fn apply_stream_until(
    engine: &QueryEngine,
    reader: &mut impl Read,
    status: &FollowerStatus,
    stop: Option<&AtomicBool>,
) -> Result<u64, ServeError> {
    let mut applied = 0u64;
    loop {
        if stop.is_some_and(|s| s.load(Ordering::SeqCst)) || !engine.is_read_only() {
            return Ok(applied);
        }
        let mut len_bytes = [0u8; 4];
        match read_exact_or_eof(reader, &mut len_bytes, stop)? {
            ReadState::Eof => return Ok(applied),
            ReadState::Stopped => return Ok(applied),
            ReadState::Full => {}
            ReadState::Torn(got) => {
                return Err(ServeError::Protocol(format!(
                    "replication stream tore inside a length prefix ({got} of 4 bytes)"
                )))
            }
        }
        let len = u32::from_le_bytes(len_bytes) as usize;
        if len > MAX_FRAME_LEN {
            return Err(ServeError::Protocol(format!(
                "replication frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte bound \
                 (corrupt length prefix?)"
            )));
        }
        let mut payload = vec![0u8; len];
        match read_exact_or_eof(reader, &mut payload, stop)? {
            ReadState::Full => {}
            ReadState::Stopped => return Ok(applied),
            ReadState::Eof | ReadState::Torn(_) => {
                return Err(ServeError::Protocol(format!(
                    "replication stream tore inside a {len}-byte record"
                )))
            }
        }
        let record = WalRecord::decode_payload(&payload)?;
        match engine.apply_replicated(&record) {
            Ok(outcome) => {
                applied += 1;
                engine.obs().repl_records_applied.inc();
                let epoch = outcome.map_or_else(|| engine.epoch(), |o| o.epoch);
                status.last_applied_epoch.store(epoch, Ordering::SeqCst);
            }
            Err(e) => {
                return Err(ServeError::Protocol(format!(
                    "replicated record refused: {e}"
                )))
            }
        }
    }
}

/// What one exact-read attempt observed.
enum ReadState {
    /// The buffer was filled.
    Full,
    /// EOF before the first byte (a clean inter-frame stream end).
    Eof,
    /// EOF after `n` bytes (a torn frame).
    Torn(usize),
    /// The stop flag was raised while waiting.
    Stopped,
}

/// `read_exact` that distinguishes a clean EOF at a frame boundary from a
/// torn frame, tolerates the read-timeout ticks the follower loop uses to
/// poll its stop flag, and retries `Interrupted`.
fn read_exact_or_eof(
    reader: &mut impl Read,
    buf: &mut [u8],
    stop: Option<&AtomicBool>,
) -> Result<ReadState, ServeError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    ReadState::Eof
                } else {
                    ReadState::Torn(filled)
                })
            }
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if stop.is_some_and(|s| s.load(Ordering::SeqCst)) {
                    return Ok(ReadState::Stopped);
                }
                if stop.is_none() {
                    // A non-socket reader (Cursor) never times out; a socket
                    // driven without a stop flag treats the timeout as fatal
                    // rather than spinning forever.
                    return Err(ServeError::Io(e));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(ReadState::Full)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handshake_lines_round_trip() {
        let hello = ReplHello {
            magic: REPL_MAGIC.to_string(),
            v: REPL_VERSION,
            identity: "karate/uc0.1 pool=100 offset=0".to_string(),
            base_seed: 7,
            resume_epoch: 3,
        };
        let line = serde_json::to_string(&hello).unwrap();
        let back: ReplHello = serde_json::from_str(&line).unwrap();
        assert_eq!(back.identity, hello.identity);
        assert_eq!(back.resume_epoch, 3);

        let ack = ReplAck {
            ok: false,
            error: Some("index identity mismatch".to_string()),
            epoch: 0,
        };
        let line = serde_json::to_string(&ack).unwrap();
        let back: ReplAck = serde_json::from_str(&line).unwrap();
        assert!(!back.ok);
        assert!(back.error.unwrap().contains("identity"));
    }

    #[test]
    fn an_old_version_peer_is_refused_by_version() {
        let identity = "karate/uc0.1 pool=100 offset=0";
        let mut hello = ReplHello {
            magic: REPL_MAGIC.to_string(),
            v: REPL_VERSION,
            identity: identity.to_string(),
            base_seed: 7,
            resume_epoch: 0,
        };
        assert_eq!(handshake_refusal(&hello, identity, 7), None);
        hello.v = 1;
        let refusal = handshake_refusal(&hello, identity, 7).expect("v1 is refused");
        assert!(refusal.contains("replication version 1"), "{refusal}");
        assert!(refusal.contains("leader speaks 2"), "{refusal}");
        // Even a v1 peer of another index hears about the version first.
        let refusal = handshake_refusal(&hello, "physicians/iwc pool=9 offset=0", 8).unwrap();
        assert!(!refusal.contains("identity"), "{refusal}");
        hello.v = REPL_VERSION;
        let refusal = handshake_refusal(&hello, identity, 8).expect("wrong seed is refused");
        assert!(refusal.contains("identity mismatch"), "{refusal}");
    }

    /// One length-prefixed WAL record starting at `epoch_before`, as
    /// `WriteAheadLog::append` lays it out.
    fn wal_frame(epoch_before: u64) -> Vec<u8> {
        let payload = WalRecord {
            epoch_before,
            graph_hash_before: 0,
            deltas: vec![imgraph::GraphDelta::DeleteEdge {
                source: 0,
                target: 1,
            }],
        }
        .encode_payload();
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&payload);
        frame
    }

    fn append_to(path: &Path, bytes: &[u8]) {
        let mut file = std::fs::OpenOptions::new().append(true).open(path).unwrap();
        file.write_all(bytes).unwrap();
    }

    fn temp_wal(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("imserve_tail_{tag}_{}.dlta", std::process::id()))
    }

    #[test]
    fn a_wal_that_shrinks_under_the_tailer_is_refused() {
        let path = temp_wal("shrink");
        let header = wal::encode_header("karate/uc0.1 pool=100 offset=0", 7);
        let mut bytes = header.clone();
        bytes.extend(wal_frame(0));
        bytes.extend(wal_frame(1));
        std::fs::write(&path, &bytes).unwrap();

        let mut tail = WalTail::open(&path, header.clone()).unwrap();
        let (offset, ready) = tail.poll().unwrap();
        assert_eq!(offset, header.len() as u64);
        let n = ready.len();
        assert_eq!(n, bytes.len() - header.len());
        tail.consume(n);

        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(header.len() as u64)
            .unwrap();
        let err = tail.poll().unwrap_err().to_string();
        std::fs::remove_file(&path).ok();
        assert!(err.contains("shrank under the tailer"), "{err}");
        assert!(
            err.contains(&format!("from {} to {} bytes", bytes.len(), header.len())),
            "{err}"
        );
    }

    #[test]
    fn records_appended_after_a_large_consumed_prefix_are_shipped() {
        const PREFIX: u64 = 5_000;
        let engine = QueryEngine::builder(
            crate::index::build_dataset_index("karate", "uc0.1", 200, 7).unwrap(),
        )
        .build()
        .unwrap();
        let (identity, base_seed) = (engine.identity(), engine.base_seed());
        let path = temp_wal("prefix");
        let mut bytes = wal::encode_header(&identity, base_seed);
        for epoch in 0..PREFIX {
            bytes.extend(wal_frame(epoch));
        }
        std::fs::write(&path, &bytes).unwrap();

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut follower = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        follower
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let (mut leader, _) = listener.accept().unwrap();
        let stop = AtomicBool::new(false);
        let faults = ReplicationFaults::default();
        std::thread::scope(|scope| {
            let tailer = scope.spawn(|| {
                tail_wal(
                    &mut leader,
                    &engine,
                    &path,
                    &identity,
                    base_seed,
                    PREFIX - 1, // the follower holds all but the prefix's last record
                    &faults,
                    &stop,
                )
            });
            let mut next_epoch = || {
                let mut len = [0u8; 4];
                follower.read_exact(&mut len).unwrap();
                let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
                follower.read_exact(&mut payload).unwrap();
                WalRecord::decode_payload(&payload).unwrap().epoch_before
            };
            // The prefix's last record arrives, so the tailer has read the
            // whole prefix; what is appended now reaches a later poll.
            assert_eq!(next_epoch(), PREFIX - 1);
            let appended: Vec<u8> = (PREFIX..PREFIX + 3).flat_map(wal_frame).collect();
            append_to(&path, &appended);
            for epoch in PREFIX..PREFIX + 3 {
                assert_eq!(next_epoch(), epoch);
            }
            stop.store(true, Ordering::SeqCst);
            tailer.join().unwrap().unwrap();
        });
        std::fs::remove_file(&path).ok();
        assert_eq!(engine.obs().repl_records_shipped.get(), 4);
    }

    #[test]
    fn exact_reads_distinguish_clean_eof_from_torn_frames() {
        let mut buf = [0u8; 4];
        let mut empty = std::io::Cursor::new(Vec::<u8>::new());
        assert!(matches!(
            read_exact_or_eof(&mut empty, &mut buf, None).unwrap(),
            ReadState::Eof
        ));
        let mut torn = std::io::Cursor::new(vec![1u8, 2]);
        assert!(matches!(
            read_exact_or_eof(&mut torn, &mut buf, None).unwrap(),
            ReadState::Torn(2)
        ));
        let mut full = std::io::Cursor::new(vec![1u8, 2, 3, 4, 5]);
        assert!(matches!(
            read_exact_or_eof(&mut full, &mut buf, None).unwrap(),
            ReadState::Full
        ));
        assert_eq!(buf, [1, 2, 3, 4]);
    }
}
