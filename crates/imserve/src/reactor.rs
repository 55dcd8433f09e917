//! The event-driven serving front end: one readiness loop, many connections.
//!
//! The threaded pool in [`crate::server`] spends one OS thread per active
//! connection turn; at thousands of connections the interesting resource is
//! no longer threads but *readiness* — which sockets have bytes to read or
//! room to write. This module multiplexes every connection onto a single
//! event-loop thread over non-blocking sockets, and that thread **waits on
//! readiness, not on a clock**: when a tick made no progress it blocks in
//! `poll(2)` (declared in the private `poll` module, the crate's one
//! `allow(unsafe_code)`) until a socket it would act on is ready, the compute
//! pool finishes a request, or the nearest idle-reap deadline passes. There
//! is no sleep and no tick interval: an idle server with a thousand quiet
//! connections makes no wake-ups at all. While ticks keep making progress,
//! the same `poll` runs between them with a zero timeout from the second
//! busy tick on — a look, not a wait, and not counted as a wake-up — so
//! connections that keep the loop busy cannot keep a newcomer unseen.
//!
//! # What the loop waits on
//!
//! The watch set is rebuilt from the loop's state before every wait, and a
//! descriptor is in it **only for what the loop would do with it**, because
//! `poll` is level-triggered — a condition nobody consumes is reported again
//! at once, and the wait degenerates into a spin:
//!
//! * each connection is watched for `POLLIN` unless it is at end of stream,
//!   over a backpressure bound or holding an oversized line (the three states
//!   in which the loop does not read), for `POLLOUT` iff it has unflushed
//!   reply bytes, and is **not in the set at all** when neither applies — a
//!   half-closed peer whose `TopK` is still computing is permanently
//!   "readable" and must not be asked about (`POLLHUP`/`POLLERR` are
//!   reported whatever was asked, but only for descriptors in the set);
//! * the listener is watched for `POLLIN` unless the last `accept` failed
//!   with anything but `WouldBlock`: a listener stuck on `EMFILE` stays
//!   readable forever, so the failure is counted
//!   (`imserve_accept_errors_total`), logged once per episode, and the
//!   listener is left out until a connection is reaped (a descriptor came
//!   free) or the wait times out (bounded by `ACCEPT_RETRY` in that state,
//!   the one duration in this file and not on any request's path);
//! * the **wake socket** — one end of a `UnixStream::pair()` — is always
//!   watched. A compute worker writes one byte to the other end *after* it
//!   has sent its completion down the channel; the loop drains the socket
//!   when `poll` reports it and only then calls `try_recv`. Send-then-write
//!   on one side, level-triggered wait then drain-then-receive on the other:
//!   a completion sent before the wait is seen by `try_recv` or its byte is
//!   still unread when `poll` is entered, so no wake-up is lost. A full
//!   socket (`WouldBlock` on the worker's write) means unread bytes are
//!   already pending, i.e. the loop is already due to wake.
//!
//! The timeout is the time to the nearest idle-reap deadline among drained
//! connections, or none at all ([`ServerHandle::shutdown`] wakes the
//! listener with a connect). Reads follow readiness too: a per-connection
//! `readable` bit (set by accept and by `poll`, cleared by `WouldBlock`)
//! gates the read phase, so one ready socket among a thousand costs one
//! `read`, not a thousand `EAGAIN`s.
//!
//! # Event-loop states
//!
//! Each connection moves through per-tick phases; a tick that makes no
//! progress anywhere ends in the wait above:
//!
//! 1. **read** — if the socket was reported readable, drain it into a line
//!    buffer until `WouldBlock`;
//! 2. **answer or dispatch** — cut complete request lines out of the buffer,
//!    parse each, and either answer it on the loop (see *Where a request is
//!    answered*) or hand it to the bounded compute pool, tagged
//!    `(connection, sequence)`;
//! 3. **complete** — collect finished replies from the pool; replies may
//!    finish out of order (an `Estimate` answered on the loop overtakes a
//!    greedy `TopK` still computing), so they park in a per-connection
//!    reorder map until their sequence is next — the protocol promises
//!    in-order responses per connection;
//! 4. **write** — flush the in-order reply bytes until `WouldBlock` (once for
//!    the pool's replies before reading, and again right after phase 2 for
//!    what the loop answered itself, so such a reply leaves in the tick its
//!    request arrived in);
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
//!   owed per connection — inside the compute pool, or answered and parked
//!   behind an earlier one — beyond that the loop stops *cutting lines* for
//!   that connection (bytes already read stay buffered, and the socket stops
//!   being read), so a pipelining client is throttled by its own unanswered
//!   backlog, and a burst of point requests is answered at most that many
//!   per connection per tick;
//! * once a connection's unflushed reply bytes exceed
//!   [`ReactorConfig::max_write_backlog`], reading from it stops until the
//!   client drains its responses — a slow reader throttles only itself.
//!
//! # Where a request is answered
//!
//! A hand-off to the compute pool is two thread switches and a wake-up
//! (loop → worker → loop), which for a request worth a few point reads costs
//! more than the request. So the split is a fixed table by request kind
//! (`answers_on_loop`), not an option or a threshold:
//!
//! * **on the loop**, from its own `EstimateScratch`: `Ping`, `Hello`,
//!   `Health`, and — while no writer holds or waits for the serving state,
//!   so a mutation in progress never stalls the loop — `Info`, `Estimate`
//!   and `GainCandidates { limit: 0 }` (point reads of the seeds' and
//!   probes' posting lists). The last two stay off the loop when the pool
//!   is tiered, since a cold list is a `pread` from the index file. A line
//!   that is not a frame is refused on the loop too;
//! * **on a worker**: everything that makes a pool pass, writes, or
//!   renders a report — `TopK`, `Gains`, `GainCandidates` with a limit,
//!   `MutateBatch`, `Compact`, `Reload`, `Promote`, `Stats`, `Metrics`,
//!   `Events`.
//!
//! An `Estimate`'s cost grows with its seeds' posting lists (at most `n`
//! seeds), which the loop pays in full; a pass never runs there.
//! `imserve_reactor_requests_total{path="loop"|"worker"}` counts the split.
//! Both paths answer through the same `decode_line` / `answer_request` core
//! as the threaded front end, so for identical request streams the two
//! servers produce byte-identical response streams.

use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::ffi::c_short;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use crate::engine::QueryEngine;
use crate::error::ServeError;
use crate::linebuf::{LineBuffer, LineError};
use crate::obs::ServingMetrics;
use crate::poll::{self, PollFd, POLLIN, POLLOUT};
use crate::protocol::{
    self, ErrorKind, Outcome, Request, ResponseFrame, WireError, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use crate::server::{
    answer_request, decode_line, refuse_oversized_line, Decoded, Line, ServerHandle,
};

/// Reactor tuning knobs.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Compute-pool threads executing requests off the event loop.
    pub compute_threads: usize,
    /// Drop a connection after this long without receiving a byte (`None`
    /// keeps idle connections forever; they cost one slab slot each).
    pub idle_timeout: Option<Duration>,
    /// Requests one connection may be owed replies to (computing, or
    /// answered and parked behind an earlier one) before the loop stops
    /// reading it (pipelining backpressure).
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

/// Whether the loop answers `request` itself — the fixed table of the
/// module docs. Point requests that read the serving state qualify only
/// while no writer holds it or waits for it, so a mutation in progress
/// stalls the worker that asked, never the loop; point reads of posting
/// lists qualify only on a pool that is not tiered, so a cold file's read
/// (or its failure) stalls a worker, never the loop.
pub(crate) fn answers_on_loop(request: &Request, engine: &QueryEngine) -> bool {
    match request {
        Request::Ping | Request::Hello { .. } | Request::Health => true,
        Request::Info => engine.state_is_free(false),
        Request::Estimate { .. } | Request::GainCandidates { limit: 0, .. } => {
            engine.state_is_free(true)
        }
        _ => false,
    }
}

/// A request travelling loop → compute pool, parsed by the loop.
struct Job {
    connection: u64,
    sequence: u64,
    request: Decoded,
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
    /// The socket may have bytes (or an EOF, or an error) to read: set on
    /// accept and whenever the wait reports the descriptor, cleared when a
    /// read says `WouldBlock`. Gates the read phase.
    readable: bool,
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
            readable: true,
            eof: false,
            dead: false,
            throttled: false,
        }
    }

    fn backlog(&self) -> usize {
        self.write_buf.len() - self.written
    }

    /// Requests cut from the stream whose replies are not yet in
    /// `write_buf`: computing in the pool, or answered and parked.
    fn owed(&self) -> usize {
        self.inflight + self.reorder.len()
    }

    /// At or over either backpressure bound.
    fn over_bounds(&self, config: &ReactorConfig) -> bool {
        self.owed() >= config.max_inflight_per_connection
            || self.backlog() > config.max_write_backlog
    }

    /// Queue `reply` for sequence `sequence`, or mark the connection dead
    /// when it could not be encoded (the client would fall out of sync).
    fn answer(&mut self, sequence: u64, reply: Result<String, ServeError>) {
        match reply {
            Ok(reply) => {
                self.reorder.insert(sequence, (reply, Instant::now()));
            }
            Err(_) => self.dead = true,
        }
    }

    /// Move the replies that are next in order to the wire buffer (timing
    /// how long each was parked), then write until the socket stops
    /// accepting. Returns whether any byte was written.
    fn flush(&mut self, obs: &ServingMetrics) -> bool {
        while let Some((reply, parked)) = self.reorder.remove(&self.next_to_flush) {
            obs.reorder_wait_micros
                .record(parked.elapsed().as_micros() as u64);
            self.write_buf.extend_from_slice(reply.as_bytes());
            self.write_buf.push(b'\n');
            self.next_to_flush += 1;
        }
        let flush_began = Instant::now();
        let mut flushed_any = false;
        while self.written < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.written..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    self.written += n;
                    flushed_any = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if flushed_any {
            obs.write_flush_micros
                .record(flush_began.elapsed().as_micros() as u64);
        }
        if self.written == self.write_buf.len() && self.written > 0 {
            self.write_buf.clear();
            self.written = 0;
        }
        flushed_any
    }

    /// Whether the loop reads this connection at all in its current state.
    fn wants_read(&self, config: &ReactorConfig) -> bool {
        !self.eof && !self.dead && !self.over_bounds(config) && !self.lines.oversized()
    }

    /// Nothing owed in either direction: the state in which EOF or the idle
    /// timeout reaps the connection.
    fn drained(&self) -> bool {
        self.inflight == 0
            && self.reorder.is_empty()
            && self.backlog() == 0
            && !self.lines.has_buffered()
    }

    /// The watch-set rule (module docs): the conditions the loop would act
    /// on if the wait reported them; 0 keeps the descriptor out of the set.
    fn interest(&self, config: &ReactorConfig) -> c_short {
        let read = if self.wants_read(config) { POLLIN } else { 0 };
        let write = if self.backlog() > 0 { POLLOUT } else { 0 };
        read | write
    }
}

/// While the listener is paused after a failed accept, the wait is bounded
/// by this, so descriptors freed elsewhere in the process (not by a reap,
/// which retries at once) are noticed. Not on any request's path.
const ACCEPT_RETRY: Duration = Duration::from_millis(100);

/// The listener's share of the loop's state.
#[derive(Debug, Default)]
struct Acceptor {
    /// The listener may have connections queued: set at start-up and by the
    /// wait, cleared when `accept` says `WouldBlock` or fails.
    ready: bool,
    /// The last accept failed and left its connection queued, so the
    /// listener reads as ready for as long as the cause lasts: keep it out
    /// of the watch set until [`Acceptor::retry`].
    paused: bool,
    /// A failure episode is open (its event is logged): ends with the next
    /// accept that does not fail.
    failing: bool,
}

impl Acceptor {
    /// Record a failed accept: count it, log the first of an episode, pause.
    fn failed(&mut self, error: &std::io::Error, obs: &ServingMetrics) {
        obs.accept_errors.inc();
        if !self.failing {
            let field = imobs::EventField::text("error", error.to_string());
            obs.event_log.warn("accept_failed", 0, vec![field]);
        }
        *self = Self {
            ready: false,
            paused: true,
            failing: true,
        };
    }

    /// A descriptor may have come free (a connection was reaped) or the
    /// paused wait timed out: watch the listener again.
    fn retry(&mut self) {
        self.paused = false;
    }
}

/// The descriptors one wait watches, rebuilt from the loop's state each
/// time, with the connection id behind each entry past the fixed ones.
#[derive(Debug, Default)]
struct WatchSet {
    fds: Vec<PollFd>,
    /// `ids[i]` is the connection behind `fds[first_connection + i]`.
    ids: Vec<u64>,
    first_connection: usize,
    /// Whether `fds[1]` is the listener (it is absent while paused).
    listener: bool,
}

impl WatchSet {
    /// A pure function of the loop's state: the wake socket, the listener
    /// unless paused, and every connection with a non-empty
    /// [`Connection::interest`].
    fn rebuild(
        &mut self,
        wake: RawFd,
        listener: RawFd,
        acceptor: &Acceptor,
        connections: &HashMap<u64, Connection>,
        config: &ReactorConfig,
    ) {
        let watch = |fd, events| PollFd {
            fd,
            events,
            revents: 0,
        };
        self.fds.clear();
        self.ids.clear();
        self.fds.push(watch(wake, POLLIN));
        self.listener = !acceptor.paused;
        if self.listener {
            self.fds.push(watch(listener, POLLIN));
        }
        self.first_connection = self.fds.len();
        for (&id, connection) in connections {
            let events = connection.interest(config);
            if events != 0 {
                self.fds.push(watch(connection.stream.as_raw_fd(), events));
                self.ids.push(id);
            }
        }
    }

    fn wake_ready(&self) -> bool {
        self.fds[0].revents != 0
    }

    fn listener_ready(&self) -> bool {
        self.listener && self.fds[1].revents != 0
    }

    /// Ids of the connections the wait reported for anything but room to
    /// write (writes are not gated): data, or an error or hang-up that the
    /// next read surfaces.
    fn readable_connections(&self) -> impl Iterator<Item = u64> + '_ {
        let reported = self.fds[self.first_connection..].iter().zip(&self.ids);
        reported.filter_map(|(fd, &id)| (fd.revents & !POLLOUT != 0).then_some(id))
    }
}

/// How long the wait may block: until the nearest idle-reap deadline among
/// drained connections (`ACCEPT_RETRY` at most while the listener is
/// paused), or without limit when nothing is pending.
fn wait_timeout(
    acceptor: &Acceptor,
    connections: &HashMap<u64, Connection>,
    config: &ReactorConfig,
) -> Option<Duration> {
    let idle = config.idle_timeout.and_then(|limit| {
        let reapable = connections.values().filter(|c| !c.eof && c.drained());
        let deadline = reapable.map(|c| c.last_activity + limit).min()?;
        Some(deadline.saturating_duration_since(Instant::now()))
    });
    match (idle, acceptor.paused) {
        (Some(idle), true) => Some(idle.min(ACCEPT_RETRY)),
        (None, true) => Some(ACCEPT_RETRY),
        (idle, false) => idle,
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
    // The completion wake-up: workers write, the loop polls and drains.
    let (wake_rx, wake_tx) = UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;
    let wake_tx = Arc::new(wake_tx);

    // The compute pool: a shared job queue (workers race to receive) and a
    // completion channel back into the loop.
    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let (done_tx, done_rx) = mpsc::channel::<Completion>();
    let job_rx = Arc::new(Mutex::new(job_rx));
    for worker_id in 0..config.compute_threads.max(1) {
        let job_rx = Arc::clone(&job_rx);
        let done_tx = done_tx.clone();
        let wake_tx = Arc::clone(&wake_tx);
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
                    let frame = (job.request.frame.id, job.request.frame.trace);
                    // A panic costs its own reply, never the worker: the
                    // engine's state sits behind read guards a panic does
                    // not poison, and the scratch is rebuilt in case the
                    // panic left it half written.
                    let answered = panic::catch_unwind(AssertUnwindSafe(|| {
                        answer_request(&engine, job.request, &mut scratch, Some(queue_wait))
                    }));
                    let reply = answered.unwrap_or_else(|payload| {
                        scratch = engine.new_scratch();
                        answer_panicked(engine.obs(), worker_id, frame, &*payload)
                    });
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
                    // Send, *then* wake (module docs). `WouldBlock` means
                    // unread wake bytes are already pending; any other
                    // failure means the loop is gone, which the next send
                    // reports.
                    let _ = (&*wake_tx).write(&[1]);
                }
            })
            .expect("compute thread spawns");
    }
    drop(done_tx);

    let stop_flag = Arc::clone(&stop);
    let loop_config = config.clone();
    let event_loop = std::thread::Builder::new()
        .name("imserve-reactor".to_string())
        .spawn(move || {
            run_loop(
                &listener,
                &wake_rx,
                &loop_config,
                &stop_flag,
                &job_tx,
                &done_rx,
                &engine,
            );
        })
        .expect("reactor thread spawns");

    Ok(ServerHandle {
        addr: local_addr,
        stop,
        acceptor: Some(event_loop),
    })
}

/// The reply to a job whose answer panicked on compute worker `worker`: a
/// typed `Internal` error for its frame `(id, trace)`, so the connection
/// stays in step. The panic is counted and logged.
fn answer_panicked(
    obs: &ServingMetrics,
    worker: usize,
    (id, trace): (u64, Option<u64>),
    payload: &(dyn Any + Send),
) -> Result<String, ServeError> {
    let cause = (payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "a panic without a message".to_string());
    obs.worker_panics.inc();
    obs.request_errors.inc();
    obs.event_log.error(
        "worker_panicked",
        trace.unwrap_or(0),
        vec![
            imobs::EventField::u64("worker", worker as u64),
            imobs::EventField::text("cause", cause.clone()),
        ],
    );
    protocol::encode(&ResponseFrame {
        v: PROTOCOL_VERSION,
        id,
        body: Outcome::Err(WireError {
            kind: ErrorKind::Internal,
            message: format!("the request panicked on a compute worker: {cause}"),
        }),
    })
}

/// The loop's last word when its compute pool is gone: without workers it
/// cannot answer, so it stops and [`ServerHandle::wait`] returns.
fn pool_gone(obs: &ServingMetrics) {
    obs.event_log.error(
        "reactor_stopped",
        0,
        vec![imobs::EventField::str("cause", "compute pool gone")],
    );
}

/// The event loop proper (runs on its own thread until `stop`, or until
/// the compute pool is gone, which it logs).
fn run_loop(
    listener: &TcpListener,
    mut wake: &UnixStream,
    config: &ReactorConfig,
    stop: &AtomicBool,
    job_tx: &Sender<Job>,
    done_rx: &Receiver<Completion>,
    engine: &QueryEngine,
) {
    let obs = &**engine.obs();
    // The loop's own scratch, for the point requests it answers itself.
    let scratch = &mut engine.new_scratch();
    let mut connections: HashMap<u64, Connection> = HashMap::new();
    let mut next_connection_id = 0u64;
    let mut acceptor = Acceptor {
        ready: true,
        ..Acceptor::default()
    };
    let mut watched = WatchSet::default();
    let mut chunk = [0u8; 16 * 1024];
    let mut reap = Vec::new();
    let mut was_busy = false;

    while !stop.load(Ordering::SeqCst) {
        let mut progress = false;

        // Phase 0: accept every pending connection.
        while acceptor.ready {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    acceptor.failing = false;
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    connections.insert(next_connection_id, Connection::new(stream));
                    next_connection_id += 1;
                    progress = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    acceptor.ready = false;
                    acceptor.failing = false;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => acceptor.failed(&e, obs),
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
                        connection.answer(completion.sequence, completion.reply);
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => return pool_gone(obs),
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

            // Phase 4 (replies the pool finished): in order, then write.
            progress |= connection.flush(obs);

            // Phase 1: read — unless this connection is over either
            // backpressure bound.
            let throttled = connection.over_bounds(config);
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
            // Only a socket reported readable since its last `WouldBlock`
            // is read: syscalls follow readiness, not connection count.
            if connection.readable && connection.wants_read(config) {
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
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            connection.readable = false;
                            break;
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            connection.dead = true;
                            break;
                        }
                    }
                }
            }

            // Phase 2: answer or dispatch complete lines, up to the bounds.
            let mut answered_here = false;
            while !connection.over_bounds(config) {
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
                        connection.answer(connection.next_sequence, refuse_oversized_line(obs));
                        connection.next_sequence += 1;
                        connection.eof = true;
                        answered_here = true;
                        break;
                    }
                };
                if line.trim().is_empty() {
                    continue;
                }
                let sequence = connection.next_sequence;
                connection.next_sequence += 1;
                match decode_line(engine, &line) {
                    Line::Answered(reply) => {
                        obs.reactor_answered_loop.inc();
                        connection.answer(sequence, reply);
                        answered_here = true;
                    }
                    Line::Request(request) if answers_on_loop(&request.frame.req, engine) => {
                        obs.reactor_answered_loop.inc();
                        let reply = answer_request(engine, request, scratch, None);
                        connection.answer(sequence, reply);
                        answered_here = true;
                    }
                    Line::Request(request) => {
                        obs.reactor_answered_worker.inc();
                        connection.inflight += 1;
                        let job = Job {
                            connection: id,
                            sequence,
                            request,
                            enqueued: Instant::now(),
                        };
                        if job_tx.send(job).is_err() {
                            return pool_gone(obs);
                        }
                    }
                }
                progress = true;
            }
            // Phase 4 again, for what the loop just answered itself: the
            // reply leaves in the tick its request arrived in.
            if answered_here {
                progress = true;
                connection.flush(obs);
            }

            // Phase 5: reap.
            let drained = connection.drained();
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
        if !reap.is_empty() {
            // A reaped connection gave a descriptor back.
            acceptor.retry();
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

        // *Wait* for readiness only after a tick that found nothing to do:
        // state that moved may leave the next tick work no descriptor
        // announces (a reply to flush behind the one just written, a refusal
        // just queued). The first busy tick of a burst goes straight to that
        // follow-up; from the second on, look at readiness (zero timeout)
        // between ticks, so connections that keep the loop busy cannot keep
        // a newcomer unseen.
        let first_busy_tick = progress && !was_busy;
        was_busy = progress;
        if first_busy_tick {
            continue;
        }
        watched.rebuild(
            wake.as_raw_fd(),
            listener.as_raw_fd(),
            &acceptor,
            &connections,
            config,
        );
        let timeout = if progress {
            Some(Duration::ZERO)
        } else {
            wait_timeout(&acceptor, &connections, config)
        };
        let wait_began = Instant::now();
        let ready = match poll::wait(&mut watched.fds, timeout) {
            Ok(ready) => ready,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => {
                // No wait, no loop: without one this thread could only spin.
                let field = imobs::EventField::text("error", e.to_string());
                obs.event_log.error("reactor_wait_failed", 0, vec![field]);
                return;
            }
        };
        if !progress {
            // The loop was parked and something woke it: account for it.
            obs.reactor_poll_wait_micros
                .record(wait_began.elapsed().as_micros() as u64);
            obs.reactor_ready_sockets.record(ready as u64);
            if ready == 0 {
                obs.reactor_wakeups_timeout.inc();
                acceptor.retry();
            } else if watched.wake_ready() {
                obs.reactor_wakeups_completion.inc();
            } else {
                obs.reactor_wakeups_socket.inc();
            }
        }
        if watched.wake_ready() {
            // Drain before the next tick's `try_recv`: a byte that arrives
            // later stays unread and ends the next wait at once. A short
            // read emptied the socket.
            while matches!(wake.read(&mut chunk), Ok(n) if n == chunk.len()) {}
        }
        acceptor.ready |= watched.listener_ready();
        for id in watched.readable_connections() {
            if let Some(connection) = connections.get_mut(&id) {
                connection.readable = true;
            }
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

    /// A connection in the loop's slab, and the peer end keeping it open.
    fn connected() -> (Connection, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        (Connection::new(listener.accept().unwrap().0), peer)
    }

    #[test]
    fn a_connection_is_watched_only_for_what_the_loop_would_do_with_it() {
        let config = ReactorConfig {
            max_inflight_per_connection: 2,
            max_write_backlog: 8,
            ..ReactorConfig::default()
        };
        let watch = |c: &Connection| c.interest(&config);
        let (mut c, _peer) = connected();
        assert_eq!(watch(&c), POLLIN, "fresh: read it");
        c.write_buf.extend_from_slice(b"reply\n");
        assert_eq!(watch(&c), POLLIN | POLLOUT, "backlog: flush it too");
        c.written = 6;
        assert_eq!(watch(&c), POLLIN, "flushed: only backlog counts");
        c.write_buf.extend_from_slice(b"a longer reply\n");
        assert_eq!(watch(&c), POLLOUT, "over the backlog bound");
        c.write_buf.clear();
        c.written = 0;
        c.inflight = 2;
        assert_eq!(watch(&c), 0, "at the in-flight bound");
        c.inflight = 1;
        c.eof = true;
        assert_eq!(watch(&c), 0, "half-closed, still computing");
        c.write_buf.push(b'x');
        assert_eq!(watch(&c), POLLOUT, "half-closed, reply to flush");
        let (mut c, _peer) = connected();
        c.lines = LineBuffer::bounded(4);
        c.lines.extend(b"endless");
        assert_eq!(watch(&c), 0, "oversized line: reading is over");
    }

    #[test]
    fn the_watch_set_follows_the_loops_state() {
        let obs = ServingMetrics::with_defaults();
        let config = ReactorConfig::default();
        let (wake, _wake_tx) = UnixStream::pair().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (wake_fd, listener_fd) = (wake.as_raw_fd(), listener.as_raw_fd());
        let mut connections = HashMap::new();
        let mut peers = Vec::new();
        for id in 0..3u64 {
            let (connection, peer) = connected();
            connections.insert(id, connection);
            peers.push(peer);
        }
        // 0 reads, 1 owes a flush after its peer's EOF, 2 is half-closed
        // with a request still computing.
        let eof_with_backlog = connections.get_mut(&1).unwrap();
        eof_with_backlog.eof = true;
        eof_with_backlog.write_buf.push(b'x');
        let half_closed = connections.get_mut(&2).unwrap();
        half_closed.eof = true;
        half_closed.inflight = 1;
        let fd_of = |id: u64| connections[&id].stream.as_raw_fd();

        let mut acceptor = Acceptor::default();
        let mut watched = WatchSet::default();
        let mut rebuilt = |acceptor: &Acceptor| {
            watched.rebuild(wake_fd, listener_fd, acceptor, &connections, &config);
            let mut set: Vec<(RawFd, c_short)> =
                watched.fds.iter().map(|w| (w.fd, w.events)).collect();
            assert_eq!(set.remove(0), (wake_fd, POLLIN), "the wake socket leads");
            set.sort_unstable();
            set
        };
        let sorted = |mut set: Vec<(RawFd, c_short)>| {
            set.sort_unstable();
            set
        };
        let with_listener = sorted(vec![
            (listener_fd, POLLIN),
            (fd_of(0), POLLIN),
            (fd_of(1), POLLOUT),
        ]);
        let without_listener = sorted(vec![(fd_of(0), POLLIN), (fd_of(1), POLLOUT)]);
        assert_eq!(rebuilt(&acceptor), with_listener);

        // A failed accept is counted, logged once per episode, and takes
        // the listener out of the set ...
        let emfile = || std::io::Error::from_raw_os_error(24);
        acceptor.failed(&emfile(), &obs);
        assert!(acceptor.paused && !acceptor.ready);
        assert_eq!(rebuilt(&acceptor), without_listener);
        assert_eq!(
            wait_timeout(&acceptor, &HashMap::new(), &config),
            Some(ACCEPT_RETRY),
            "a paused listener bounds an otherwise indefinite wait"
        );
        // ... until a reap or a timeout retries it; a retry that fails again
        // belongs to the same episode.
        acceptor.retry();
        assert_eq!(rebuilt(&acceptor), with_listener);
        acceptor.failed(&emfile(), &obs);
        assert_eq!(rebuilt(&acceptor), without_listener);
        assert_eq!(obs.accept_errors.get(), 2);
        let logged = obs.event_log.entries();
        assert_eq!(
            logged.iter().filter(|e| e.code == "accept_failed").count(),
            1
        );
        acceptor.retry();
        assert_eq!(wait_timeout(&acceptor, &HashMap::new(), &config), None);
    }

    #[test]
    fn the_wait_ends_at_the_nearest_idle_deadline_of_a_drained_connection() {
        let config = ReactorConfig {
            idle_timeout: Some(Duration::from_secs(60)),
            ..ReactorConfig::default()
        };
        let acceptor = Acceptor::default();
        let mut connections = HashMap::new();
        assert_eq!(wait_timeout(&acceptor, &connections, &config), None);
        let (mut busy, _busy_peer) = connected();
        busy.inflight = 1;
        connections.insert(0, busy);
        // Owed a reply: the idle clock does not apply, so nothing is pending.
        assert_eq!(wait_timeout(&acceptor, &connections, &config), None);
        let (mut older, _older_peer) = connected();
        older.last_activity += Duration::from_secs(5);
        connections.insert(1, older);
        let (mut newer, _newer_peer) = connected();
        newer.last_activity += Duration::from_secs(10);
        connections.insert(2, newer);
        let timeout = wait_timeout(&acceptor, &connections, &config).unwrap();
        assert!(
            timeout > Duration::from_secs(64) && timeout <= Duration::from_secs(65),
            "{timeout:?}"
        );
        let forever = ReactorConfig {
            idle_timeout: None,
            ..config
        };
        assert_eq!(wait_timeout(&acceptor, &connections, &forever), None);
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
                (Request::TopK { .. }, Response::TopK(selection)) => {
                    assert_eq!(selection.seeds.len(), 3);
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
