//! A minimal protocol-v2 client that times its own three steps.
//!
//! [`imserve::RemoteService`] hides encode, round trip and decode behind one
//! call. The traced run needs them apart, so this client does the same work
//! through the same public functions (`protocol::encode` on a
//! [`RequestFrame`], one line over TCP, `protocol::decode` into a
//! [`ResponseFrame`]) and reports how long each step took.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use imserve::protocol::{self, Outcome, Request, RequestFrame, Response, ResponseFrame};
use imserve::PROTOCOL_VERSION;

use crate::workloads::Res;

/// The steps of one remote call, as timed by the client.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallTimes {
    pub encode: Duration,
    /// Request line written → reply line read.
    pub roundtrip: Duration,
    pub decode: Duration,
}

#[derive(Debug)]
pub struct WireClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
    line: String,
}

impl WireClient {
    /// Connect and perform the version handshake.
    pub fn connect(addr: SocketAddr) -> Res<Self> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        writer
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| format!("clone: {e}"))?);
        let mut client = Self {
            writer,
            reader,
            next_id: 0,
            line: String::new(),
        };
        match client.call(&Request::Hello {
            max_version: PROTOCOL_VERSION,
        })? {
            (Response::Hello { version }, _) if version == PROTOCOL_VERSION => Ok(client),
            (other, _) => Err(format!("handshake answered with {other:?}")),
        }
    }

    /// One request, one reply, each step timed.
    pub fn call(&mut self, request: &Request) -> Res<(Response, CallTimes)> {
        self.next_id += 1;
        let began = Instant::now();
        let mut line = protocol::encode(&RequestFrame::new(self.next_id, request.clone()))
            .map_err(|e| format!("encode: {e}"))?;
        line.push('\n');
        let encoded = Instant::now();
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        self.reader
            .read_line(&mut self.line)
            .map_err(|e| format!("receive: {e}"))?;
        let received = Instant::now();
        let frame: ResponseFrame =
            protocol::decode(&self.line).map_err(|e| format!("decode: {e}"))?;
        let decoded = Instant::now();
        if frame.id != self.next_id {
            return Err(format!(
                "response id {} does not match request id {}",
                frame.id, self.next_id
            ));
        }
        let times = CallTimes {
            encode: encoded - began,
            roundtrip: received - encoded,
            decode: decoded - received,
        };
        match frame.body {
            Outcome::Ok(response) => Ok((response, times)),
            Outcome::Err(e) => Err(format!("server error: {}", e.into_service())),
        }
    }
}
