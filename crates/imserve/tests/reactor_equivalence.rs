//! Front-end interchangeability: the event-driven reactor and the threaded
//! turn-queue server answer the same wire bytes for the same request lines.
//!
//! Both front ends route every complete line through the same core
//! (`answer_line`), so this suite pins the observable contract: per
//! connection, a deterministic script mixing id-tagged frames, malformed
//! lines and pipelined bursts must come back **byte-identical** from both
//! servers (engines built from identical artifacts), in request order, under
//! concurrent connections. Stats and mutations are deliberately excluded
//! from the scripts — request counters and epochs depend on cross-connection
//! interleaving, which no front end can (or should) pin.
//!
//! The suite also exercises the client's non-blocking `send`/`poll_response`
//! pair against the reactor: many frames in flight on one connection, replies
//! drained incrementally without blocking — and, on each front end, the one
//! line neither may buffer: a request that never ends. A short line nested
//! too deep to parse is refused like any other malformed line.

mod fixtures;

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use imserve::client::ServiceConnection;
use imserve::engine::QueryEngine;
use imserve::index::build_dataset_index;
use imserve::protocol::{self, Request, RequestFrame, Response, TopKAlgorithm, MAX_FRAME_LEN};
use imserve::reactor;
use imserve::ReactorConfig;

const POOL: usize = 2_000;
const SEED: u64 = 7;
const CONNECTIONS: usize = 8;
const KARATE_N: u32 = 34;

fn fresh_engine() -> Arc<QueryEngine> {
    Arc::new(
        QueryEngine::builder(build_dataset_index("karate", "uc0.1", POOL, SEED).unwrap())
            .build()
            .unwrap(),
    )
}

/// Connection `c`'s deterministic request script: raw wire lines mixing
/// request frames with the three kinds of line that are answered with a
/// typed error frame instead (unframed request, garbage, unknown payload).
fn script(c: usize) -> Vec<String> {
    let frame = |id: u32, req| protocol::encode(&RequestFrame::new(u64::from(id), req)).unwrap();
    let c32 = c as u32;
    (0..12u32)
        .map(|i| match i % 4 {
            0 => frame(i + 1000, Request::Info),
            1 => frame(
                i + 1,
                Request::Estimate {
                    seeds: vec![(c32 + i) % KARATE_N, (c32 * 3 + 7) % KARATE_N],
                },
            ),
            2 => frame(
                i + 100,
                Request::TopK {
                    k: 1 + c % 3,
                    algorithm: if i % 8 == 2 {
                        TopKAlgorithm::Greedy
                    } else {
                        TopKAlgorithm::SingletonRank
                    },
                },
            ),
            _ => match i % 3 {
                0 => protocol::encode(&Request::Estimate { seeds: vec![c32] }).unwrap(),
                1 => format!("not a frame {{{{ {c}"),
                _ => format!(r#"{{"v":2,"id":{i},"req":{{"NoSuch":{{}}}}}}"#),
            },
        })
        .collect()
}

/// Send the whole script as one pipelined burst and read back one response
/// line per request line, in order.
fn exchange(addr: SocketAddr, lines: &[String]) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut burst = lines.join("\n");
    burst.push('\n');
    stream.write_all(burst.as_bytes()).unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream);
    (0..lines.len())
        .map(|_| {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.ends_with('\n'), "server answered a complete line");
            line.truncate(line.len() - 1);
            line
        })
        .collect()
}

/// Run every connection's script concurrently against `addr`, returning the
/// per-connection response transcripts.
fn run_scripts(addr: SocketAddr) -> Vec<Vec<String>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| scope.spawn(move || exchange(addr, &script(c))))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

#[test]
fn reactor_and_threaded_front_ends_answer_byte_identically() {
    let threaded = fixtures::spawn_server("127.0.0.1:0", fresh_engine(), 2);
    let reactor = reactor::spawn(
        "127.0.0.1:0",
        fresh_engine(),
        &ReactorConfig {
            compute_threads: 2,
            ..ReactorConfig::default()
        },
    )
    .unwrap();

    let from_threaded = run_scripts(threaded.addr());
    let from_reactor = run_scripts(reactor.addr());

    for (c, (a, b)) in from_threaded.iter().zip(&from_reactor).enumerate() {
        assert_eq!(a.len(), b.len(), "connection {c} answer count");
        for (i, (ta, tb)) in a.iter().zip(b).enumerate() {
            assert_eq!(ta, tb, "connection {c}, response {i} diverged");
        }
    }

    threaded.shutdown();
    reactor.shutdown();
}

#[test]
fn poll_response_drains_pipelined_frames_in_order() {
    let handle = reactor::spawn(
        "127.0.0.1:0",
        fresh_engine(),
        &ReactorConfig {
            compute_threads: 2,
            ..ReactorConfig::default()
        },
    )
    .unwrap();
    let mut connection = ServiceConnection::connect(handle.addr()).unwrap();

    // Put ten frames in flight without reading a single reply.
    let depth = 10usize;
    let mut sent = Vec::with_capacity(depth);
    for i in 0..depth {
        let id = connection
            .send(&Request::Estimate {
                seeds: vec![i as u32 % KARATE_N],
            })
            .unwrap();
        sent.push(id);
    }
    connection.flush().unwrap();

    // Drain with the non-blocking poll: every reply arrives, ids in send
    // order (the reactor re-serializes each connection's replies).
    let mut received = Vec::with_capacity(depth);
    while received.len() < depth {
        match connection.poll_response().unwrap() {
            Some((id, outcome)) => {
                let response = outcome.unwrap();
                assert!(matches!(response, Response::Estimate { .. }));
                received.push(id);
            }
            None => std::thread::sleep(std::time::Duration::from_millis(1)),
        }
    }
    assert_eq!(received, sent, "replies drain in request order");

    // An idle poll reports "nothing yet" instead of blocking or erroring.
    assert!(connection.poll_response().unwrap().is_none());
    handle.shutdown();
}

/// A peer that never sends `\n` costs the server at most one frame bound of
/// memory: a pipelined frame ahead of the endless line is still answered, in
/// order; one byte past [`MAX_FRAME_LEN`] the server says why (a typed
/// `Protocol` frame, id 0), drops what it buffered and hangs up; the refusal
/// is counted; and the next connection is served as if nothing happened.
fn assert_an_endless_line_is_refused(addr: SocketAddr, engine: &QueryEngine) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"{\"v\":2,\"id\":1,\"req\":\"Ping\"}\n")
        .unwrap();
    // Exactly one byte too many, so the server has read everything sent by
    // the time it refuses and its close is a clean FIN, not a reset.
    let chunk = vec![b'x'; 1 << 20];
    let mut left = MAX_FRAME_LEN + 1;
    while left > 0 {
        let n = left.min(chunk.len());
        stream.write_all(&chunk[..n]).unwrap();
        left -= n;
    }
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"id\":1") && line.contains("Pong"), "{line}");
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains("\"id\":0") && line.contains("\"kind\":\"Protocol\""),
        "{line}"
    );
    assert!(line.contains(&MAX_FRAME_LEN.to_string()), "{line}");
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "then it hangs up");
    assert_eq!(engine.obs().oversized_frames.get(), 1);

    let pong = ServiceConnection::connect(addr)
        .unwrap()
        .call(&Request::Ping)
        .unwrap();
    assert_eq!(pong, Response::Pong);
}

#[test]
fn the_reactor_refuses_an_endless_request_line() {
    let engine = fresh_engine();
    let handle = reactor::spawn(
        "127.0.0.1:0",
        Arc::clone(&engine),
        &ReactorConfig::default(),
    );
    let handle = handle.unwrap();
    assert_an_endless_line_is_refused(handle.addr(), &engine);
    handle.shutdown();
}

/// A short line nested far past the parser's depth limit (100 000 `[`,
/// about 100 KB) gets one typed `Protocol` frame from a compute worker
/// instead of overflowing its stack and aborting the process, and the server
/// answers the next connection.
#[test]
fn the_reactor_refuses_a_deeply_nested_line() {
    let engine = fresh_engine();
    let handle = reactor::spawn(
        "127.0.0.1:0",
        Arc::clone(&engine),
        &ReactorConfig::default(),
    )
    .unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let line = format!("{{\"v\":2,\"id\":1,\"req\":{}\n", "[".repeat(100_000));
    stream.write_all(line.as_bytes()).unwrap();
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).unwrap();
    assert!(
        reply.starts_with(r#"{"v":2,"id":0,"body":{"Err":{"kind":"Protocol""#),
        "{reply}"
    );
    assert!(reply.contains("nesting deeper than 128 levels"), "{reply}");
    assert_eq!(engine.obs().parse_errors.get(), 1);

    let pong = ServiceConnection::connect(handle.addr())
        .unwrap()
        .call(&Request::Ping)
        .unwrap();
    assert_eq!(pong, Response::Pong);
    handle.shutdown();
}

#[test]
fn the_threaded_server_refuses_an_endless_request_line() {
    let engine = fresh_engine();
    let handle = fixtures::spawn_server("127.0.0.1:0", Arc::clone(&engine), 2);
    assert_an_endless_line_is_refused(handle.addr(), &engine);
    handle.shutdown();
}
