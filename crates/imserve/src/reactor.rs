//! The event-driven serving front end: one readiness loop, many connections.
//!
//! The threaded pool in [`crate::server`] spends one OS thread per active
//! connection turn; at thousands of connections the interesting resource is
//! no longer threads but *readiness* — which sockets have bytes to read or
//! room to write. This module multiplexes every connection onto a single
//! event-loop thread over non-blocking sockets (a hand-rolled, `mio`-shaped
//! readiness loop: the std library exposes no `epoll` registration surface,
//! so readiness is discovered by a level-triggered scan with adaptive
//! backoff — the loop sleeps only when *no* socket made progress, and for at
//! most a few hundred microseconds).
//!
//! # Event-loop states
//!
//! Each connection moves through per-tick phases, never blocking the loop:
//!
//! 1. **read** — drain the socket into a line buffer until `WouldBlock`;
//! 2. **dispatch** — cut complete request lines out of the buffer and hand
//!    them to the bounded compute pool, tagged `(connection, sequence)`;
//! 3. **complete** — collect finished replies from the pool; replies may
//!    finish out of order (a cheap `Ping` overtakes a greedy `TopK`), so
//!    they park in a per-connection reorder map until their sequence is next
//!    — the protocol promises in-order responses per connection;
//! 4. **write** — flush the in-order reply bytes until `WouldBlock`;
//! 5. **reap** — drop the connection on EOF (once every dispatched request
//!    has been answered and flushed), on I/O or framing failure, or after
//!    [`ReactorConfig::idle_timeout`] without traffic. A request line that
//!    passes [`MAX_FRAME_LEN`] without its newline is treated as the peer's
//!    last word: reading stops, the buffered bytes are dropped, one typed
//!    refusal is queued behind the replies still owed, and the connection
//!    drains and is reaped — a peer cannot make the loop buffer without
//!    bound.
//!
//! # Backpressure (bounded buffers)
//!
//! Two bounds keep one connection from exhausting the process:
//!
//! * at most [`ReactorConfig::max_inflight_per_connection`] requests may be
//!   inside the compute pool per connection — beyond that the loop stops
//!   *cutting lines* for that connection (bytes already read stay buffered,
//!   and the socket stops being read), so a pipelining client is throttled
//!   by its own unanswered backlog;
//! * once a connection's unflushed reply bytes exceed
//!   [`ReactorConfig::max_write_backlog`], reading from it stops until the
//!   client drains its responses — a slow reader throttles only itself.
//!
//! Requests execute on a small fixed compute pool (one `EstimateScratch`
//! each) through the same `answer_line` core as the threaded front end, so
//! for identical request streams the two servers produce byte-identical
//! response streams.

use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use crate::engine::QueryEngine;
use crate::error::ServeError;
use crate::linebuf::{LineBuffer, LineError};
use crate::obs::ServingMetrics;
use crate::protocol::MAX_FRAME_LEN;
use crate::server::{answer_line, refuse_oversized_line, ServerHandle};

/// Reactor tuning knobs.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Compute-pool threads executing requests off the event loop.
    pub compute_threads: usize,
    /// Drop a connection after this long without receiving a byte (`None`
    /// keeps idle connections forever; they cost one slab slot each).
    pub idle_timeout: Option<Duration>,
    /// Requests one connection may have inside the compute pool before the
    /// loop stops reading it (pipelining backpressure).
    pub max_inflight_per_connection: usize,
    /// Unflushed reply bytes one connection may accumulate before the loop
    /// stops reading it (slow-reader backpressure).
    pub max_write_backlog: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        Self {
            compute_threads: 4,
            idle_timeout: Some(Duration::from_secs(60)),
            max_inflight_per_connection: 64,
            max_write_backlog: 256 * 1024,
        }
    }
}

/// A request travelling loop → compute pool.
struct Job {
    connection: u64,
    sequence: u64,
    line: String,
    /// When the loop dispatched this job; the gap to worker pickup is the
    /// compute-pool queue wait the request's span records.
    enqueued: Instant,
}

/// A reply travelling compute pool → loop.
struct Completion {
    connection: u64,
    sequence: u64,
    /// `Err` only on response-encoding failure — connection-fatal, since a
    /// frame the server cannot encode leaves the client out of sync.
    reply: Result<String, ServeError>,
}

/// Per-connection state in the event loop's slab.
struct Connection {
    stream: TcpStream,
    lines: LineBuffer,
    /// In-order reply bytes not yet accepted by the socket.
    write_buf: Vec<u8>,
    /// Prefix of `write_buf` already written.
    written: usize,
    /// Next sequence number to assign to a dispatched request.
    next_sequence: u64,
    /// Next sequence number to append to `write_buf` (in-order flush).
    next_to_flush: u64,
    /// Completions that finished ahead of their turn, each stamped with its
    /// parking time so the reorder wait is measurable.
    reorder: BTreeMap<u64, (String, Instant)>,
    /// Requests currently inside the compute pool.
    inflight: usize,
    last_activity: Instant,
    /// Peer sent EOF; serve out the backlog, then reap.
    eof: bool,
    /// Connection-fatal failure; reap as soon as it is observed.
    dead: bool,
    /// Whether the last tick had this connection over a backpressure bound
    /// (edge detection for the stall counter).
    throttled: bool,
}

impl Connection {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            lines: LineBuffer::bounded(MAX_FRAME_LEN),
            write_buf: Vec::new(),
            written: 0,
            next_sequence: 0,
            next_to_flush: 0,
            reorder: BTreeMap::new(),
            inflight: 0,
            last_activity: Instant::now(),
            eof: false,
            dead: false,
            throttled: false,
        }
    }

    fn backlog(&self) -> usize {
        self.write_buf.len() - self.written
    }
}

/// Bind `addr` and serve `engine` through the event loop until shut down.
///
/// Returns immediately with a [`ServerHandle`] (the same handle type as the
/// threaded front end, so callers swap `server::spawn` for `reactor::spawn`
/// without other changes). Bind to port 0 for an ephemeral port.
pub fn spawn(
    addr: impl ToSocketAddrs,
    engine: Arc<QueryEngine>,
    config: &ReactorConfig,
) -> Result<ServerHandle, ServeError> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local_addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));

    // The compute pool: a shared job queue (workers race to receive) and a
    // completion channel back into the loop.
    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let (done_tx, done_rx) = mpsc::channel::<Completion>();
    let job_rx = Arc::new(Mutex::new(job_rx));
    for worker_id in 0..config.compute_threads.max(1) {
        let job_rx = Arc::clone(&job_rx);
        let done_tx = done_tx.clone();
        let engine = Arc::clone(&engine);
        std::thread::Builder::new()
            .name(format!("imserve-compute-{worker_id}"))
            .spawn(move || {
                let mut scratch = engine.new_scratch();
                loop {
                    // Hold the lock only while receiving, so siblings stay
                    // free to pick up the next job.
                    let job = match job_rx.lock().expect("job queue poisoned").recv() {
                        Ok(job) => job,
                        Err(_) => return, // loop gone: shut down
                    };
                    let queue_wait = job.enqueued.elapsed().as_micros() as u64;
                    let reply = answer_line(&engine, &job.line, &mut scratch, Some(queue_wait));
                    if done_tx
                        .send(Completion {
                            connection: job.connection,
                            sequence: job.sequence,
                            reply,
                        })
                        .is_err()
                    {
                        return;
                    }
                }
            })
            .expect("compute thread spawns");
    }
    drop(done_tx);

    let stop_flag = Arc::clone(&stop);
    let loop_config = config.clone();
    let obs = Arc::clone(engine.obs());
    let event_loop = std::thread::Builder::new()
        .name("imserve-reactor".to_string())
        .spawn(move || run_loop(&listener, &loop_config, &stop_flag, &job_tx, &done_rx, &obs))
        .expect("reactor thread spawns");

    Ok(ServerHandle {
        addr: local_addr,
        stop,
        acceptor: Some(event_loop),
    })
}

/// Backoff bounds for the readiness scan: sleep only after a tick in which
/// nothing progressed, starting short and doubling up to the cap.
const BACKOFF_MIN: Duration = Duration::from_micros(100);
const BACKOFF_MAX: Duration = Duration::from_millis(2);

/// The event loop proper (runs on its own thread until `stop`).
fn run_loop(
    listener: &TcpListener,
    config: &ReactorConfig,
    stop: &AtomicBool,
    job_tx: &Sender<Job>,
    done_rx: &Receiver<Completion>,
    obs: &ServingMetrics,
) {
    let mut connections: HashMap<u64, Connection> = HashMap::new();
    let mut next_connection_id = 0u64;
    let mut backoff = BACKOFF_MIN;
    let mut chunk = [0u8; 16 * 1024];
    let mut reap = Vec::new();

    while !stop.load(Ordering::SeqCst) {
        let mut progress = false;

        // Phase 0: accept every pending connection.
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    connections.insert(next_connection_id, Connection::new(stream));
                    next_connection_id += 1;
                    progress = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }

        // Phase 3 (see module docs): collect compute completions and slot
        // them into their connection's reorder map.
        loop {
            match done_rx.try_recv() {
                Ok(completion) => {
                    progress = true;
                    // The connection may have been reaped while its request
                    // computed; its reply is then simply dropped.
                    if let Some(connection) = connections.get_mut(&completion.connection) {
                        connection.inflight -= 1;
                        match completion.reply {
                            Ok(reply) => {
                                connection
                                    .reorder
                                    .insert(completion.sequence, (reply, Instant::now()));
                            }
                            Err(_) => connection.dead = true,
                        }
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => return,
            }
        }

        let mut inflight_total = 0i64;
        let mut reorder_total = 0i64;
        let mut backlog_total = 0i64;
        let mut throttled_total = 0i64;
        for (&id, connection) in connections.iter_mut() {
            if connection.dead {
                reap.push(id);
                continue;
            }

            // In-order flush: move consecutive finished replies to the wire
            // buffer, recording how long each was parked out of order.
            while let Some((reply, parked)) = connection.reorder.remove(&connection.next_to_flush) {
                obs.reorder_wait_micros
                    .record(parked.elapsed().as_micros() as u64);
                connection.write_buf.extend_from_slice(reply.as_bytes());
                connection.write_buf.push(b'\n');
                connection.next_to_flush += 1;
            }

            // Phase 4: write until the socket stops accepting.
            let flush_began = Instant::now();
            let mut flushed_any = false;
            while connection.written < connection.write_buf.len() {
                match connection
                    .stream
                    .write(&connection.write_buf[connection.written..])
                {
                    Ok(0) => {
                        connection.dead = true;
                        break;
                    }
                    Ok(n) => {
                        connection.written += n;
                        flushed_any = true;
                        progress = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        connection.dead = true;
                        break;
                    }
                }
            }
            if flushed_any {
                obs.write_flush_micros
                    .record(flush_began.elapsed().as_micros() as u64);
            }
            if connection.written == connection.write_buf.len() && connection.written > 0 {
                connection.write_buf.clear();
                connection.written = 0;
            }

            // Phase 1: read — unless this connection is over either
            // backpressure bound.
            let throttled = connection.inflight >= config.max_inflight_per_connection
                || connection.backlog() > config.max_write_backlog;
            if throttled && !connection.throttled {
                // Rising edge only: one stall per episode, not per tick.
                obs.backpressure_stalls.inc();
                obs.event_log.warn(
                    "backpressure_engaged",
                    0,
                    vec![
                        imobs::EventField::u64("connection", id),
                        imobs::EventField::u64("inflight", connection.inflight as u64),
                        imobs::EventField::u64("backlog_bytes", connection.backlog() as u64),
                    ],
                );
            } else if !throttled && connection.throttled {
                // Falling edge: the episode ended; pair it up in the log.
                obs.event_log.info(
                    "backpressure_released",
                    0,
                    vec![imobs::EventField::u64("connection", id)],
                );
            }
            connection.throttled = throttled;
            if throttled {
                throttled_total += 1;
            }
            if !connection.eof && !connection.dead && !throttled && !connection.lines.oversized() {
                loop {
                    match connection.stream.read(&mut chunk) {
                        Ok(0) => {
                            connection.eof = true;
                            break;
                        }
                        Ok(n) => {
                            connection.lines.extend(&chunk[..n]);
                            connection.last_activity = Instant::now();
                            progress = true;
                            if connection.lines.oversized() {
                                break;
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            connection.dead = true;
                            break;
                        }
                    }
                }
            }

            // Phase 2: dispatch complete lines, up to the in-flight bound.
            while connection.inflight < config.max_inflight_per_connection {
                let Some(line) = connection.lines.next_line() else {
                    break;
                };
                let line = match line {
                    Ok(line) => line,
                    Err(LineError::NotUtf8) => {
                        // Framing is untrustworthy from here on.
                        connection.dead = true;
                        break;
                    }
                    Err(LineError::TooLong) => {
                        // Say why, in turn behind the replies still owed,
                        // then stop reading: the connection drains and is
                        // reaped like one whose peer hung up.
                        match refuse_oversized_line(obs) {
                            Ok(reply) => {
                                connection
                                    .reorder
                                    .insert(connection.next_sequence, (reply, Instant::now()));
                                connection.next_sequence += 1;
                                connection.eof = true;
                            }
                            Err(_) => connection.dead = true,
                        }
                        progress = true;
                        break;
                    }
                };
                if line.trim().is_empty() {
                    continue;
                }
                let sequence = connection.next_sequence;
                connection.next_sequence += 1;
                connection.inflight += 1;
                if job_tx
                    .send(Job {
                        connection: id,
                        sequence,
                        line,
                        enqueued: Instant::now(),
                    })
                    .is_err()
                {
                    return; // compute pool gone
                }
                progress = true;
            }

            // Phase 5: reap.
            let drained = connection.inflight == 0
                && connection.reorder.is_empty()
                && connection.backlog() == 0
                && !connection.lines.has_buffered();
            if connection.dead || (connection.eof && drained) {
                reap.push(id);
            } else if drained && !connection.eof {
                if let Some(limit) = config.idle_timeout {
                    if connection.last_activity.elapsed() > limit {
                        reap.push(id);
                    }
                }
            }
            inflight_total += connection.inflight as i64;
            reorder_total += connection.reorder.len() as i64;
            backlog_total += connection.backlog() as i64;
        }
        for id in reap.drain(..) {
            connections.remove(&id);
        }
        // Depth gauges are sampled once per tick (absolute values, not
        // increments) — cheap, and immune to drift from reaped connections.
        obs.inflight.set(inflight_total);
        obs.reorder_depth.set(reorder_total);
        obs.write_backlog_bytes.set(backlog_total);
        obs.throttled_connections.set(throttled_total);
        obs.open_connections.set(connections.len() as i64);

        if progress {
            backoff = BACKOFF_MIN;
        } else {
            // Nothing readable, writable or finished: this is the "wait for
            // readiness" edge of the hand-rolled loop.
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(BACKOFF_MAX);
        }
    }
    // Returning drops `connections` (closing every socket) and, with the
    // loop thread's closure, the job sender — which is what tells the
    // compute pool to exit.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ServiceConnection;
    use crate::index::build_dataset_index;
    use crate::protocol::{Request, Response};

    fn test_engine(pool: usize) -> Arc<QueryEngine> {
        Arc::new(
            QueryEngine::builder(build_dataset_index("karate", "uc0.1", pool, 3).unwrap())
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn serves_and_shuts_down() {
        let handle = spawn("127.0.0.1:0", test_engine(500), &ReactorConfig::default()).unwrap();
        let addr = handle.addr();
        assert_ne!(addr.port(), 0);
        let mut v2 = ServiceConnection::connect(addr).unwrap();
        let answered = v2.call(&Request::Ping).unwrap();
        assert_eq!(answered, Response::Pong);
        handle.shutdown();
    }

    #[test]
    fn pipelined_batches_come_back_in_order() {
        let handle = spawn(
            "127.0.0.1:0",
            test_engine(500),
            &ReactorConfig {
                compute_threads: 3,
                ..ReactorConfig::default()
            },
        )
        .unwrap();
        let mut v2 = ServiceConnection::connect(handle.addr()).unwrap();
        // A burst mixing cheap pings with expensive selections: replies may
        // finish out of order inside the pool, but the reorder stage must
        // emit them in request order.
        let mut batch = Vec::new();
        for i in 0..24u32 {
            if i % 5 == 0 {
                batch.push(Request::TopK {
                    k: 3,
                    algorithm: crate::protocol::TopKAlgorithm::Greedy,
                });
            } else {
                batch.push(Request::Estimate {
                    seeds: vec![i % 34],
                });
            }
        }
        let replies = v2.pipeline(&batch).unwrap();
        assert_eq!(replies.len(), batch.len());
        for (request, reply) in batch.iter().zip(&replies) {
            match (request, reply.as_ref().unwrap()) {
                (Request::TopK { .. }, Response::TopK { seeds, .. }) => {
                    assert_eq!(seeds.len(), 3);
                }
                (Request::Estimate { seeds }, Response::Estimate { seeds: echoed, .. }) => {
                    assert_eq!(seeds, echoed);
                }
                (request, reply) => panic!("{request:?} answered with {reply:?}"),
            }
        }
        handle.shutdown();
    }

    #[test]
    fn many_concurrent_connections_are_multiplexed() {
        let handle = spawn(
            "127.0.0.1:0",
            test_engine(500),
            &ReactorConfig {
                compute_threads: 2,
                ..ReactorConfig::default()
            },
        )
        .unwrap();
        let addr = handle.addr();
        // Far more connections than compute threads, all held open at once.
        let mut connections: Vec<ServiceConnection> = (0..32)
            .map(|_| ServiceConnection::connect(addr).unwrap())
            .collect();
        for round in 0..3 {
            for (i, connection) in connections.iter_mut().enumerate() {
                let response = connection
                    .call(&Request::Estimate {
                        seeds: vec![((i + round) % 34) as u32],
                    })
                    .unwrap();
                assert!(matches!(response, Response::Estimate { .. }));
            }
        }
        handle.shutdown();
    }

    #[test]
    fn idle_connections_are_reaped() {
        let handle = spawn(
            "127.0.0.1:0",
            test_engine(500),
            &ReactorConfig {
                idle_timeout: Some(Duration::from_millis(50)),
                ..ReactorConfig::default()
            },
        )
        .unwrap();
        let addr = handle.addr();
        let mut idle = TcpStream::connect(addr).unwrap();
        std::thread::sleep(Duration::from_millis(250));
        // The reactor must have dropped the idler: reads see EOF.
        idle.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(idle.read(&mut buf).unwrap(), 0, "idler must be dropped");
        // And fresh clients are unaffected.
        let response = ServiceConnection::connect(addr)
            .unwrap()
            .call(&Request::Ping)
            .unwrap();
        assert_eq!(response, Response::Pong);
        handle.shutdown();
    }
}
