//! The protocol client.
//!
//! [`ServiceConnection`] speaks the wire protocol — id-tagged frames over one
//! TCP connection, with an explicit version handshake on connect and support
//! for *pipelining* (write many frames, then read the id-matched responses).
//! Its `call` is [`InfluenceService::call`], so the connection is itself the
//! typed remote backend ([`RemoteService`]), interchangeable with an
//! in-process engine; [`ReconnectingService`] adds re-dialling on top.

use std::io::{BufWriter, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::linebuf::LineBuffer;
use crate::protocol::{
    self, Outcome, Request, RequestFrame, Response, ResponseFrame, PROTOCOL_VERSION,
};
use crate::service::{unexpected, InfluenceService, Pending, ServiceError, ServiceResult};

/// One persistent protocol connection: id-tagged frames, typed errors,
/// pipelining — both the blocking batch form ([`ServiceConnection::pipeline`])
/// and the non-blocking [`ServiceConnection::send`] /
/// [`ServiceConnection::poll_response`] pair for callers that hold several
/// requests in flight without buffering whole batches.
#[derive(Debug)]
pub struct ServiceConnection {
    /// Read side of the socket (a clone of the write side); raw reads feed
    /// the line reassembly buffer so blocking and non-blocking reads share
    /// one stream position.
    reader: TcpStream,
    lines: LineBuffer,
    writer: BufWriter<TcpStream>,
    next_id: u64,
    server_version: u32,
    /// When set, every outgoing frame carries this trace id in the optional
    /// `"t"` field, so the server's span (and any further fan-out hop)
    /// stitches into the caller's causal trace. `None` (the default) keeps
    /// frames byte-identical to the pre-tracing wire.
    trace: Option<u64>,
}

impl ServiceConnection {
    /// Connect and perform the version handshake. Fails with
    /// [`ServiceError::Protocol`] if the peer does not speak this build's
    /// protocol version.
    pub fn connect(addr: impl ToSocketAddrs) -> ServiceResult<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = stream.try_clone()?;
        let mut connection = Self {
            reader,
            lines: LineBuffer::new(),
            writer: BufWriter::new(stream),
            next_id: 0,
            server_version: 0,
            trace: None,
        };
        let version = match connection.call(&Request::Hello {
            max_version: PROTOCOL_VERSION,
        })? {
            Response::Hello { version } => version,
            other => return unexpected("handshake", other),
        };
        if version != PROTOCOL_VERSION {
            return Err(ServiceError::Protocol(format!(
                "server negotiated unsupported protocol version {version}"
            )));
        }
        connection.server_version = version;
        Ok(connection)
    }

    /// The version the handshake negotiated.
    #[must_use]
    pub fn server_version(&self) -> u32 {
        self.server_version
    }

    /// Send one request and wait for its id-matched response.
    pub fn call(&mut self, request: &Request) -> ServiceResult<Response> {
        let id = self.send(request)?;
        self.flush()?;
        self.receive(id)?
    }

    /// Pipeline a batch: write every frame, flush once, then read the
    /// responses in order (each id-checked). The outer `Result` is the
    /// transport/framing channel; the per-request results keep typed errors
    /// separate, so one rejected request does not poison the batch.
    pub fn pipeline(
        &mut self,
        requests: &[Request],
    ) -> ServiceResult<Vec<ServiceResult<Response>>> {
        let mut ids = Vec::with_capacity(requests.len());
        for request in requests {
            ids.push(self.send(request)?);
        }
        self.flush()?;
        ids.into_iter().map(|id| self.receive(id)).collect()
    }

    /// Write one frame into the send buffer *without flushing or waiting for
    /// the answer*; returns the frame id to match against
    /// [`ServiceConnection::poll_response`]. Call
    /// [`ServiceConnection::flush`] once the burst is written — this is how
    /// a caller (a shard router, a future async front end) holds several
    /// requests in flight on one connection without buffering whole batches
    /// the way [`ServiceConnection::pipeline`] does.
    pub fn send(&mut self, request: &Request) -> ServiceResult<u64> {
        self.next_id += 1;
        let id = self.next_id;
        let frame = RequestFrame {
            v: PROTOCOL_VERSION,
            id,
            req: request.clone(),
            trace: self.trace,
        };
        let line = protocol::encode(&frame).map_err(ServiceError::from)?;
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        Ok(id)
    }

    /// Flush buffered request frames to the socket.
    pub fn flush(&mut self) -> ServiceResult<()> {
        self.writer.flush()?;
        Ok(())
    }

    /// Non-blocking receive: if a complete response frame is available,
    /// return its id and typed per-request outcome; `Ok(None)` means no
    /// frame is ready yet. Responses arrive in request order, so the
    /// returned id is the oldest in-flight [`ServiceConnection::send`] id
    /// not yet polled. The outer `Result` carries transport/framing failures
    /// (the connection is unusable).
    pub fn poll_response(&mut self) -> ServiceResult<Option<(u64, ServiceResult<Response>)>> {
        if let Some(line) = self.next_buffered_line()? {
            return Ok(Some(Self::parse_frame(&line)?));
        }
        // Nothing reassembled yet: drain whatever the socket has right now.
        self.reader.set_nonblocking(true)?;
        let drained = loop {
            match self.read_available() {
                Ok(ReadOutcome::Bytes) => continue,
                other => break other,
            }
        };
        self.reader.set_nonblocking(false)?;
        let outcome = drained?;
        match self.next_buffered_line()? {
            Some(line) => Ok(Some(Self::parse_frame(&line)?)),
            None if outcome == ReadOutcome::Eof => Err(closed_by_peer()),
            None => Ok(None),
        }
    }

    /// Pop the next reassembled line, if any.
    fn next_buffered_line(&mut self) -> ServiceResult<Option<String>> {
        match self.lines.next_line() {
            None => Ok(None),
            Some(Ok(line)) => Ok(Some(line)),
            Some(Err(_)) => Err(ServiceError::Protocol(
                "response line is not valid UTF-8".to_string(),
            )),
        }
    }

    /// Read one chunk from the socket into the reassembly buffer, reporting
    /// what happened (respects the socket's blocking mode and read timeout).
    fn read_available(&mut self) -> ServiceResult<ReadOutcome> {
        let mut chunk = [0u8; 8192];
        loop {
            match self.reader.read(&mut chunk) {
                Ok(0) => return Ok(ReadOutcome::Eof),
                Ok(n) => {
                    self.lines.extend(&chunk[..n]);
                    return Ok(ReadOutcome::Bytes);
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(ReadOutcome::Empty)
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
    }

    fn parse_frame(line: &str) -> ServiceResult<(u64, ServiceResult<Response>)> {
        let frame: ResponseFrame = protocol::decode(line).map_err(ServiceError::from)?;
        Ok((
            frame.id,
            match frame.body {
                Outcome::Ok(response) => Ok(response),
                Outcome::Err(wire) => Err(wire.into_service()),
            },
        ))
    }

    /// Blocking receive of the response frame for `id`. The outer `Result`
    /// carries transport/framing failures (the connection is unusable); the
    /// inner one carries the peer's typed per-request outcome.
    fn receive(&mut self, id: u64) -> ServiceResult<ServiceResult<Response>> {
        loop {
            if let Some(line) = self.next_buffered_line()? {
                let (frame_id, outcome) = Self::parse_frame(&line)?;
                if frame_id != id {
                    return Err(ServiceError::Protocol(format!(
                        "response id {frame_id} does not match request id {id}"
                    )));
                }
                return Ok(outcome);
            }
            // Blocking read of the next chunk. With a deadline set this
            // fails with a timeout error instead of hanging forever — the
            // per-shard deadline the fan-out path relies on.
            match self.read_available()? {
                ReadOutcome::Bytes => continue,
                ReadOutcome::Empty => {
                    return Err(ServiceError::Transport(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "timed out waiting for the response",
                    )))
                }
                ReadOutcome::Eof => return Err(closed_by_peer()),
            }
        }
    }
}

/// The peer closed the connection while a reply was owed: a transport
/// failure (a FIN here, an RST as the read error itself — same class either
/// way), not a protocol violation.
fn closed_by_peer() -> ServiceError {
    ServiceError::Transport(std::io::Error::new(
        std::io::ErrorKind::UnexpectedEof,
        "server closed the connection",
    ))
}

/// What one [`ServiceConnection::read_available`] attempt observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReadOutcome {
    /// Bytes were appended to the reassembly buffer.
    Bytes,
    /// The socket had nothing within its blocking mode/timeout.
    Empty,
    /// The peer closed the connection.
    Eof,
}

/// The remote backend: an [`InfluenceService`] over one TCP connection. A
/// connection is already a relay — every typed method sends its request
/// through [`ServiceConnection::call`] — so it is the connection itself.
pub type RemoteService = ServiceConnection;

impl InfluenceService for ServiceConnection {
    fn call(&mut self, request: &Request) -> ServiceResult<Response> {
        ServiceConnection::call(self, request)
    }

    /// Write and flush the frame; the reply stays in the socket until
    /// [`InfluenceService::finish`] reads it.
    fn begin(&mut self, request: &Request) -> Pending {
        match self.send(request).and_then(|id| self.flush().map(|()| id)) {
            Ok(id) => Pending::Sent(id),
            Err(e) => Pending::Answered(Err(e)),
        }
    }

    fn finish(&mut self, pending: Pending) -> ServiceResult<Response> {
        match pending {
            Pending::Sent(id) => self.receive(id)?,
            Pending::Answered(answer) => answer,
        }
    }

    /// Attach (or clear) the trace id stamped onto subsequent frames.
    fn set_trace(&mut self, trace: Option<u64>) {
        self.trace = trace;
    }

    /// Blocking reads and writes fail with [`ServiceError::Transport`]
    /// (`TimedOut`/`WouldBlock`) once the peer stays silent past `deadline`.
    fn set_deadline(&mut self, deadline: Option<Duration>) -> ServiceResult<()> {
        self.reader.set_read_timeout(deadline)?;
        self.writer.get_ref().set_write_timeout(deadline)?;
        Ok(())
    }
}

/// A self-healing remote backend: [`RemoteService`] plus reconnection.
///
/// A plain [`RemoteService`] owns one TCP connection; once the peer dies,
/// every later call fails even after the server comes back. Long-lived
/// processes watching a cluster (`imserve route`) need the opposite: a dead
/// shard should degrade `/readyz` *while it is dead* and recover on its own
/// when the shard returns. This wrapper drops the connection on any
/// transport or protocol failure and re-dials (replaying the configured
/// deadline and trace id) on the next call. Request-level errors (`Query`,
/// `Mutation`, …) pass through without touching the connection — the peer
/// answered, it just said no. So does a reply of the wrong kind: the typed
/// method above this relay rejects it, and the frame ids matched, so the
/// stream is still in sync.
///
/// Construction is lazy: [`ReconnectingService::new`] never dials, so a
/// router can be assembled before every shard is up (the first call reports
/// the shard unreachable instead).
#[derive(Debug)]
pub struct ReconnectingService {
    addr: String,
    deadline: Option<Duration>,
    trace: Option<u64>,
    inner: Option<RemoteService>,
    /// Earliest instant the next dial attempt is allowed; `None` means dial
    /// freely. Set after a *failed dial* (not after a mid-call failure — the
    /// peer was up moments ago, so an immediate redial is cheap and usually
    /// succeeds).
    next_dial: Option<std::time::Instant>,
    /// The delay the *next* failed dial will impose, doubling up to
    /// [`ReconnectingService::MAX_REDIAL_BACKOFF`].
    redial_backoff: Duration,
}

impl ReconnectingService {
    /// First post-failure redial delay; doubles per consecutive failure.
    pub const INITIAL_REDIAL_BACKOFF: Duration = Duration::from_millis(25);
    /// Ceiling on the exponential redial backoff.
    pub const MAX_REDIAL_BACKOFF: Duration = Duration::from_secs(2);

    /// Wrap `addr` without dialling it yet.
    #[must_use]
    pub fn new(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            deadline: None,
            trace: None,
            inner: None,
            next_dial: None,
            redial_backoff: Self::INITIAL_REDIAL_BACKOFF,
        }
    }

    /// The wrapped shard address.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// How long until the next dial attempt is allowed, if a failed dial has
    /// armed the backoff gate. `None` means the next call may dial
    /// immediately (either the connection is live or no dial has failed
    /// recently).
    #[must_use]
    pub fn redial_wait(&self) -> Option<Duration> {
        let next = self.next_dial?;
        let now = std::time::Instant::now();
        (self.inner.is_none() && next > now).then(|| next - now)
    }

    /// The live connection, dialling (and replaying deadline and trace) if
    /// the previous one was dropped. Consecutive failed dials are spaced by
    /// an exponential backoff: inside the window the call fails fast with a
    /// `WouldBlock` transport error instead of hammering a dead peer's
    /// connect path (each SYN to a down host can cost a full timeout).
    fn service(&mut self) -> ServiceResult<&mut RemoteService> {
        if self.inner.is_none() {
            if let Some(wait) = self.redial_wait() {
                return Err(ServiceError::Transport(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    format!(
                        "redial backoff: {} unreachable, next attempt in {}ms",
                        self.addr,
                        wait.as_millis()
                    ),
                )));
            }
            match RemoteService::connect(&self.addr) {
                Ok(mut service) => {
                    service.set_deadline(self.deadline)?;
                    service.set_trace(self.trace);
                    self.inner = Some(service);
                    self.next_dial = None;
                    self.redial_backoff = Self::INITIAL_REDIAL_BACKOFF;
                }
                Err(e) => {
                    self.next_dial = Some(std::time::Instant::now() + self.redial_backoff);
                    self.redial_backoff = (self.redial_backoff * 2).min(Self::MAX_REDIAL_BACKOFF);
                    return Err(e);
                }
            }
        }
        Ok(self.inner.as_mut().expect("connection just established"))
    }
}

impl InfluenceService for ReconnectingService {
    /// Send `request` over the live connection, dropping it on a
    /// connection-fatal error so the next call re-dials.
    fn call(&mut self, request: &Request) -> ServiceResult<Response> {
        let pending = self.begin(request);
        self.finish(pending)
    }

    fn begin(&mut self, request: &Request) -> Pending {
        match self.service() {
            Ok(service) => service.begin(request),
            Err(e) => Pending::Answered(Err(e)),
        }
    }

    fn finish(&mut self, pending: Pending) -> ServiceResult<Response> {
        let result = match (&mut self.inner, pending) {
            (Some(service), pending) => service.finish(pending),
            (None, Pending::Answered(answer)) => answer,
            (None, Pending::Sent(id)) => Err(ServiceError::Protocol(format!(
                "frame {id} was sent on a connection since dropped"
            ))),
        };
        if matches!(
            result,
            Err(ServiceError::Transport(_) | ServiceError::Protocol(_))
        ) {
            self.inner = None;
        }
        result
    }

    fn set_deadline(&mut self, deadline: Option<Duration>) -> ServiceResult<()> {
        self.deadline = deadline;
        match &mut self.inner {
            Some(service) => service.set_deadline(deadline),
            None => Ok(()),
        }
    }

    fn set_trace(&mut self, trace: Option<u64>) {
        self.trace = trace;
        if let Some(service) = &mut self.inner {
            service.set_trace(trace);
        }
    }
}
