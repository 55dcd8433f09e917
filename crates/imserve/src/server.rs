//! The threaded turn-queue front end: a reference, not a production path.
//!
//! `imserve serve` runs [`crate::reactor`] only; nothing in the binary
//! reaches this module. It is kept as the second implementation that the
//! front-end equivalence suites, the benchmark's lab row and
//! `imexp loadtest --backend remote` compare the reactor against, and it
//! answers through the reactor's answer core (`reactor::answer_line`), so
//! the two are byte-identical for identical request streams.
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

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::engine::QueryEngine;
use crate::error::ServeError;
use crate::linebuf::{LineBuffer, LineError};
use crate::obs::ServingMetrics;
use crate::protocol::MAX_FRAME_LEN;
use crate::reactor::{answer_line, refuse_oversized_line, ServerHandle};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ServiceConnection;
    use crate::index::build_dataset_index;
    use crate::protocol::{Request, Response};

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
