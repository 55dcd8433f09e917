//! The std-only threaded TCP front end (the `--threaded` fallback).
//!
//! Architecture: one acceptor thread owns the `TcpListener`; accepted
//! connections live in a shared turn queue drained by a fixed pool of worker
//! threads. A worker takes one connection *per turn* — it drains whatever
//! complete request lines are buffered, answers them in order, then releases
//! the connection back to the queue — so `workers` slow or idle clients can
//! no longer pin the whole pool (the old design parked a worker on one
//! connection for its lifetime, which is what deadlocked a single-worker
//! server under the load generator's lingering probe connection). Workers
//! share the engine behind an `Arc`; see `engine` for the locking
//! discipline (long selections snapshot the state and hold no lock).
//!
//! The event-driven front end in [`crate::reactor`] is the default server;
//! both front ends answer through the same core (`decode_line`, then
//! `answer_request`), so their responses are byte-identical for identical
//! request streams.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::engine::QueryEngine;
use crate::error::ServeError;
use crate::linebuf::{LineBuffer, LineError};
use crate::obs::ServingMetrics;
use crate::protocol::{
    self, ErrorKind, FrameEnvelope, Outcome, Request, RequestFrame, ResponseFrame, WireError,
    MAX_FRAME_LEN, PROTOCOL_VERSION,
};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads serving connections.
    pub workers: usize,
    /// How long a connection may stay silent before it is dropped. Workers
    /// time-slice over all open connections, so an idle client costs a queue
    /// slot (not a worker) until this bound expires; `None` keeps idle
    /// connections forever (trusted clients only).
    pub idle_timeout: Option<std::time::Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            idle_timeout: Some(std::time::Duration::from_secs(60)),
        }
    }
}

/// A handle to a running server: its bound address and a shutdown switch.
#[derive(Debug)]
pub struct ServerHandle {
    pub(crate) addr: SocketAddr,
    pub(crate) stop: Arc<AtomicBool>,
    pub(crate) acceptor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves ephemeral port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until the front end stops serving: on [`ServerHandle::shutdown`]
    /// or when it no longer can (the reactor's compute pool is gone).
    pub fn wait(mut self) {
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }

    /// Stop accepting connections and join the acceptor thread.
    ///
    /// In-flight connections are drained by their workers; workers themselves
    /// are detached and exit once the connection queue closes and empties.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor with a wake-up connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

/// Decrements the open-connections gauge when the connection is dropped, on
/// whichever path drops it (idle expiry, I/O error, shutdown drain).
struct ConnGauge(Arc<ServingMetrics>);

impl ConnGauge {
    fn open(obs: &Arc<ServingMetrics>) -> Self {
        obs.open_connections.inc();
        Self(Arc::clone(obs))
    }
}

impl Drop for ConnGauge {
    fn drop(&mut self) {
        self.0.open_connections.dec();
    }
}

/// One open connection's state while it waits in (or moves through) the turn
/// queue: the socket, any partial request line read during a previous turn,
/// and the idle clock.
struct PooledConnection {
    stream: TcpStream,
    lines: LineBuffer,
    last_activity: Instant,
    _gauge: ConnGauge,
}

/// The turn queue shared by the acceptor and the workers.
struct ConnQueue {
    state: Mutex<QueueState>,
    available: Condvar,
}

struct QueueState {
    connections: VecDeque<PooledConnection>,
    /// Set when the acceptor exits; workers drain the queue and then stop.
    closed: bool,
}

impl ConnQueue {
    fn new() -> Self {
        Self {
            state: Mutex::new(QueueState {
                connections: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
        }
    }

    fn push(&self, connection: PooledConnection) {
        let mut state = self.state.lock().expect("connection queue poisoned");
        state.connections.push_back(connection);
        drop(state);
        self.available.notify_one();
    }

    /// Pop the next connection, blocking until one is available. Returns
    /// `None` once the queue is closed *and* empty (shutdown).
    fn pop(&self) -> Option<(PooledConnection, usize)> {
        let mut state = self.state.lock().expect("connection queue poisoned");
        loop {
            if let Some(connection) = state.connections.pop_front() {
                return Some((connection, state.connections.len()));
            }
            if state.closed {
                return None;
            }
            state = self
                .available
                .wait(state)
                .expect("connection queue poisoned");
        }
    }

    fn close(&self) {
        self.state.lock().expect("connection queue poisoned").closed = true;
        self.available.notify_all();
    }
}

/// Bind `addr` and serve `engine` on a worker pool until shut down.
///
/// Returns immediately with a [`ServerHandle`]; accepting and serving happen
/// on background threads. Bind to port 0 for an ephemeral port (tests, CI).
pub fn spawn(
    addr: impl ToSocketAddrs,
    engine: Arc<QueryEngine>,
    config: &ServerConfig,
) -> Result<ServerHandle, ServeError> {
    let workers = config.workers.max(1);
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));

    let idle_timeout = config.idle_timeout;
    let queue = Arc::new(ConnQueue::new());
    for worker_id in 0..workers {
        let queue = Arc::clone(&queue);
        let engine = Arc::clone(&engine);
        std::thread::Builder::new()
            .name(format!("imserve-worker-{worker_id}"))
            .spawn(move || worker_loop(&queue, &engine, idle_timeout))
            .expect("worker thread spawns");
    }

    let stop_flag = Arc::clone(&stop);
    let obs = Arc::clone(engine.obs());
    let acceptor = std::thread::Builder::new()
        .name("imserve-acceptor".to_string())
        .spawn(move || {
            for stream in listener.incoming() {
                if stop_flag.load(Ordering::SeqCst) {
                    queue.close();
                    return;
                }
                match stream {
                    Ok(stream) => {
                        let _ = stream.set_nodelay(true);
                        queue.push(PooledConnection {
                            stream,
                            lines: LineBuffer::bounded(MAX_FRAME_LEN),
                            last_activity: Instant::now(),
                            _gauge: ConnGauge::open(&obs),
                        });
                    }
                    Err(_) => continue,
                }
            }
            queue.close();
        })
        .expect("acceptor thread spawns");

    Ok(ServerHandle {
        addr: local_addr,
        stop,
        acceptor: Some(acceptor),
    })
}

/// How long a worker pauses after cycling through the whole queue without
/// finding any readable connection, bounding the poll rate while every
/// client is idle. New requests wait at most this long plus queue delay.
const IDLE_PAUSE: Duration = Duration::from_micros(500);

/// One worker: take a connection, serve the requests it has ready, release
/// it, repeat. Exits when the queue closes and drains.
fn worker_loop(queue: &ConnQueue, engine: &QueryEngine, idle_timeout: Option<Duration>) {
    let mut scratch = engine.new_scratch();
    // Consecutive turns without progress; once it covers the whole queue,
    // every connection is idle and the worker backs off briefly.
    let mut fruitless_turns = 0usize;
    while let Some((mut connection, queued_behind)) = queue.pop() {
        match serve_turn(engine, &mut connection, &mut scratch) {
            Ok(progress) => {
                let expired =
                    idle_timeout.is_some_and(|limit| connection.last_activity.elapsed() > limit);
                if expired {
                    // Idle past the bound: drop the connection (and with it
                    // its queue slot). Buffered partial lines die with it.
                    fruitless_turns = 0;
                    continue;
                }
                queue.push(connection);
                if progress {
                    fruitless_turns = 0;
                } else {
                    fruitless_turns += 1;
                    if fruitless_turns > queued_behind {
                        std::thread::sleep(IDLE_PAUSE);
                        fruitless_turns = 0;
                    }
                }
            }
            // Closed or broken connection: drop it.
            Err(_) => fruitless_turns = 0,
        }
    }
}

/// Serve one turn on `connection`: drain readable bytes without blocking,
/// answer every complete request line in order, and report whether anything
/// happened. `Err` means the connection is finished (EOF or I/O/framing
/// failure) and must not be requeued.
fn serve_turn(
    engine: &QueryEngine,
    connection: &mut PooledConnection,
    scratch: &mut im_core::EstimateScratch,
) -> Result<bool, ServeError> {
    // Probe without blocking so an idle connection costs this worker nothing
    // but the probe; the socket is restored to blocking before replies are
    // written (a slow-reading client throttles only its own turn).
    connection.stream.set_nonblocking(true)?;
    let mut chunk = [0u8; 8192];
    let mut saw_eof = false;
    let mut read_any = false;
    loop {
        match connection.stream.read(&mut chunk) {
            Ok(0) => {
                saw_eof = true;
                break;
            }
            Ok(n) => {
                connection.lines.extend(&chunk[..n]);
                read_any = true;
                if connection.lines.oversized() {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    connection.stream.set_nonblocking(false)?;
    if read_any {
        connection.last_activity = Instant::now();
    }

    let mut answered = false;
    while let Some(line) = connection.lines.next_line() {
        let (reply, hang_up) = match line {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => (answer_line(engine, &line, scratch)?, false),
            Err(LineError::NotUtf8) => {
                return Err(ServeError::Protocol(
                    "request line is not valid UTF-8".to_string(),
                ))
            }
            // Say why, then hang up: the rest of that line is still coming
            // and there is no telling where the next frame starts.
            Err(LineError::TooLong) => (refuse_oversized_line(engine.obs())?, true),
        };
        connection.stream.write_all(reply.as_bytes())?;
        connection.stream.write_all(b"\n")?;
        if hang_up {
            return Err(ServeError::Protocol(
                "request line exceeds the frame bound".to_string(),
            ));
        }
        answered = true;
    }
    if saw_eof {
        return Err(ServeError::Protocol("connection closed".to_string()));
    }
    Ok(read_any || answered)
}

/// The one typed frame (id 0, `Protocol`) a front end answers before closing
/// a connection whose request line outgrew [`MAX_FRAME_LEN`]; counts the
/// refusal.
pub(crate) fn refuse_oversized_line(obs: &ServingMetrics) -> Result<String, ServeError> {
    obs.oversized_frames.inc();
    protocol::encode(&ResponseFrame {
        v: PROTOCOL_VERSION,
        id: 0,
        body: Outcome::Err(WireError {
            kind: ErrorKind::Protocol,
            message: format!(
                "request line exceeds {MAX_FRAME_LEN} bytes without a newline; closing the \
                 connection"
            ),
        }),
    })
}

/// Answer one request line where it was read — [`decode_line`], then
/// [`answer_request`], the shared core of both front ends (threaded pool
/// and reactor), which is what makes their responses byte-identical.
///
/// An id-tagged [`RequestFrame`] gets an id-matched [`ResponseFrame`] with
/// the typed error taxonomy. Any other line is still answered, with one
/// typed error frame, and the connection stays usable: a frame whose
/// version/id envelope parses but whose payload does not echoes its id with
/// `Unsupported`; anything else (garbage, a bare unframed request) has no id
/// to echo and gets id 0 with `Protocol`.
pub(crate) fn answer_line(
    engine: &QueryEngine,
    line: &str,
    scratch: &mut im_core::EstimateScratch,
) -> Result<String, ServeError> {
    match decode_line(engine, line) {
        Line::Request(request) => answer_request(engine, request, scratch, None),
        Line::Answered(reply) => reply,
    }
}

/// A request line after [`decode_line`].
pub(crate) enum Line {
    /// A frame to answer with [`answer_request`].
    Request(Decoded),
    /// Not a servable frame: its typed error reply, already counted.
    Answered(Result<String, ServeError>),
}

/// A parsed request frame on its way to [`answer_request`], with what the
/// span and the wire counters need from its line.
pub(crate) struct Decoded {
    pub(crate) frame: RequestFrame,
    /// When the line began to be parsed, and how long that took.
    began: Instant,
    parse_micros: u64,
    /// The line's length, newline included.
    line_bytes: u64,
}

/// Parse one request line. A line that is not a frame is answered here
/// (see [`answer_line`]), with its bytes in both directions counted.
pub(crate) fn decode_line(engine: &QueryEngine, line: &str) -> Line {
    let began = Instant::now();
    let line_bytes = line.len() as u64 + 1;
    let frame_error = match protocol::decode::<RequestFrame>(line) {
        Ok(frame) => {
            return Line::Request(Decoded {
                frame,
                began,
                parse_micros: began.elapsed().as_micros() as u64,
                line_bytes,
            })
        }
        Err(frame_error) => frame_error,
    };
    let obs = engine.obs();
    obs.parse_errors.inc();
    let (id, kind, message) = match protocol::decode::<FrameEnvelope>(line) {
        // The line *is* a frame with an unrecognized or malformed request
        // payload (e.g. a newer client's variant): echo its id so a
        // pipelining client stays in sync.
        Ok(envelope) => (
            envelope.id,
            ErrorKind::Unsupported,
            format!("unrecognized or malformed v2 request payload: {frame_error}"),
        ),
        Err(_) => (
            0,
            ErrorKind::Protocol,
            format!(
                "not a protocol v{PROTOCOL_VERSION} frame ({frame_error}); every request \
                 line is {{\"v\":{PROTOCOL_VERSION},\"id\":…,\"req\":…}}"
            ),
        ),
    };
    let reply = protocol::encode(&ResponseFrame {
        v: PROTOCOL_VERSION,
        id,
        body: Outcome::Err(WireError { kind, message }),
    });
    Line::Answered(count_wire_bytes(obs, line_bytes, reply))
}

/// Answer a parsed frame: execute, encode, record its span and count its
/// bytes.
///
/// The span holds parse, execute and encode durations, plus the
/// `queue_wait_micros` the front end measured between parse and this call
/// (the reactor's dispatch-to-worker gap; `None` for a request answered
/// where it was parsed). It joins the client's trace id when the frame
/// carries one (`"t"`), so a router's fan-out legs stitch into the original
/// request's trace; otherwise a fresh process-unique id is minted. Slow
/// spans land in the engine's slow-query log. None of this touches the
/// reply bytes.
pub(crate) fn answer_request(
    engine: &QueryEngine,
    request: Decoded,
    scratch: &mut im_core::EstimateScratch,
    queue_wait_micros: Option<u64>,
) -> Result<String, ServeError> {
    let obs = engine.obs();
    let frame = request.frame;
    let trace = frame.trace.unwrap_or_else(imobs::next_trace_id);
    let mut span = imobs::Span::begin(trace);
    if let Some(wait) = queue_wait_micros {
        obs.queue_wait_micros.record(wait);
        span.event_with_micros("queue_wait", wait);
    }
    span.event_with_micros("parse", request.parse_micros);
    let executed = Instant::now();
    let body = match unsupported_version(&frame) {
        Some(message) => Outcome::Err(WireError {
            kind: ErrorKind::Unsupported,
            message,
        }),
        None => match engine.handle_service(&frame.req, scratch) {
            Ok(response) => Outcome::Ok(response),
            Err(e) => Outcome::Err(WireError::from_service(&e)),
        },
    };
    span.event_with_micros("execute", executed.elapsed().as_micros() as u64);
    let encoded = Instant::now();
    let reply = protocol::encode(&ResponseFrame {
        v: PROTOCOL_VERSION,
        id: frame.id,
        body,
    });
    span.event_with_micros("encode", encoded.elapsed().as_micros() as u64);
    let mut record = span.finish();
    // Total = parse to now (the span began after parse, so its own clock
    // misses the front of the line; any queue wait lies in between).
    record.total_micros = request.began.elapsed().as_micros() as u64;
    obs.observe_span(record);
    count_wire_bytes(obs, request.line_bytes, reply)
}

/// Both directions are counted here, once, for both front ends: a line and
/// its newline in, a line and its newline out.
fn count_wire_bytes(
    obs: &ServingMetrics,
    line_bytes: u64,
    reply: Result<String, ServeError>,
) -> Result<String, ServeError> {
    obs.wire_bytes_received.add(line_bytes);
    if let Ok(reply) = &reply {
        obs.wire_bytes_sent.add(reply.len() as u64 + 1);
    }
    reply
}

/// Why a well-formed frame cannot be served by this build, if it cannot:
/// another frame version, or a `Hello` from a client that cannot parse the
/// one version spoken here.
fn unsupported_version(frame: &RequestFrame) -> Option<String> {
    let found = match frame.req {
        _ if frame.v != PROTOCOL_VERSION => format!("frame version {}", frame.v),
        Request::Hello { max_version } if max_version < PROTOCOL_VERSION => {
            format!("a handshake offering at most protocol version {max_version}")
        }
        _ => return None,
    };
    Some(format!(
        "{found} is not supported (this server speaks protocol v{PROTOCOL_VERSION} only)"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ServiceConnection;
    use crate::index::build_dataset_index;
    use crate::protocol::Response;

    #[test]
    fn serves_and_shuts_down() {
        let engine = Arc::new(
            QueryEngine::builder(build_dataset_index("karate", "uc0.1", 1_000, 3).unwrap())
                .build()
                .unwrap(),
        );
        let handle = spawn(
            "127.0.0.1:0",
            Arc::clone(&engine),
            &ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = handle.addr();
        assert_ne!(addr.port(), 0, "ephemeral port must be resolved");

        let response = ServiceConnection::connect(addr)
            .unwrap()
            .call(&Request::Ping)
            .unwrap();
        assert_eq!(response, Response::Pong);
        handle.shutdown();
    }

    #[test]
    fn every_answered_line_counts_its_bytes_in_both_directions() {
        let engine = QueryEngine::builder(build_dataset_index("karate", "uc0.1", 500, 3).unwrap())
            .build()
            .unwrap();
        let mut scratch = engine.new_scratch();
        let (mut received, mut sent) = (0, 0);
        // A served frame, a refused payload and plain garbage all crossed
        // the wire, newline included.
        for line in [
            r#"{"v":2,"id":1,"req":{"GainCandidates":{"selected":[],"limit":3,"probe":[0]}}}"#,
            r#"{"v":2,"id":2,"req":{"NoSuch":{}}}"#,
            "garbage",
        ] {
            let reply = answer_line(&engine, line, &mut scratch).unwrap();
            received += line.len() as u64 + 1;
            sent += reply.len() as u64 + 1;
        }
        assert_eq!(engine.obs().wire_bytes_received.get(), received);
        assert_eq!(engine.obs().wire_bytes_sent.get(), sent);
    }

    #[test]
    fn idle_connections_do_not_pin_the_worker_pool() {
        let engine = Arc::new(
            QueryEngine::builder(build_dataset_index("karate", "uc0.1", 500, 3).unwrap())
                .build()
                .unwrap(),
        );
        let handle = spawn(
            "127.0.0.1:0",
            Arc::clone(&engine),
            &ServerConfig {
                workers: 1,
                idle_timeout: Some(std::time::Duration::from_millis(100)),
            },
        )
        .unwrap();
        let addr = handle.addr();
        // Occupy the single worker with a connection that never sends a byte.
        let idle = TcpStream::connect(addr).unwrap();
        // A real client must still be served once the idler times out.
        let response = ServiceConnection::connect(addr)
            .unwrap()
            .call(&Request::Ping)
            .unwrap();
        assert_eq!(response, Response::Pong);
        drop(idle);
        handle.shutdown();
    }

    #[test]
    fn one_worker_interleaves_many_live_connections() {
        // The requeue design's defining property: a single worker serves
        // several concurrently-open connections request by request, instead
        // of pinning the first one to completion.
        let engine = Arc::new(
            QueryEngine::builder(build_dataset_index("karate", "uc0.1", 500, 3).unwrap())
                .build()
                .unwrap(),
        );
        let handle = spawn(
            "127.0.0.1:0",
            Arc::clone(&engine),
            &ServerConfig {
                workers: 1,
                idle_timeout: Some(std::time::Duration::from_secs(5)),
            },
        )
        .unwrap();
        let addr = handle.addr();
        let mut connections: Vec<ServiceConnection> = (0..4)
            .map(|_| ServiceConnection::connect(addr).unwrap())
            .collect();
        // Round-robin requests: every connection stays open while every
        // other one is served — impossible under connection-pinned workers.
        for _round in 0..3 {
            for connection in &mut connections {
                let response = connection.call(&Request::Ping).unwrap();
                assert_eq!(response, Response::Pong);
            }
        }
        handle.shutdown();
    }
}
