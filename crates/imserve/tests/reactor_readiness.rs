//! The reactor waits on readiness, not on a clock — checked by *counting*
//! its wake-ups (`imserve_reactor_wakeups_total`), never by timing a reply.
//!
//! A blocking level-triggered `poll(2)` has three ways to turn into a busy
//! loop — a socket that stays "ready" for something the loop will not do:
//! a half-closed peer whose request is still computing, a slow reader parked
//! over its write-backlog bound with requests unread behind it, and a
//! listener whose `accept` fails with `EMFILE`. Each gets a test that would
//! read thousands of wake-ups if the watch-set rule were wrong, and reads a
//! handful because it is right. The sleep back-off this loop replaced cannot
//! come back unnoticed either: it would show as `cause="timeout"` wake-ups
//! on a busy connection and as wake-ups at all on an idle one.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use imserve::client::{RemoteService, ServiceConnection};
use imserve::engine::QueryEngine;
use imserve::index::build_dataset_index;
use imserve::protocol::{self, Request, RequestFrame, Response, TopKAlgorithm};
use imserve::service::{InfluenceService, MetricsReport};
use imserve::{reactor, ReactorConfig, ServingMetrics};

fn engine(pool: usize) -> Arc<QueryEngine> {
    let artifact = build_dataset_index("karate", "uc0.1", pool, 7).unwrap();
    Arc::new(QueryEngine::builder(artifact).build().unwrap())
}

/// `(socket, completion, timeout)` wake-ups so far.
fn wakeups(obs: &ServingMetrics) -> (u64, u64, u64) {
    (
        obs.reactor_wakeups_socket.get(),
        obs.reactor_wakeups_completion.get(),
        obs.reactor_wakeups_timeout.get(),
    )
}

fn total((socket, completion, timeout): (u64, u64, u64)) -> u64 {
    socket + completion + timeout
}

/// Poll (the *test* may; the server may not) until `settled` holds.
fn wait_until(what: &str, settled: impl FnMut() -> bool) {
    imserve::testkit::wait_until(what, Duration::from_secs(20), settled);
}

fn frame(id: u64, request: Request) -> String {
    let mut line = protocol::encode(&RequestFrame::new(id, request)).unwrap();
    line.push('\n');
    line
}

fn reply_id_prefix(id: u64) -> String {
    format!("{{\"v\":{},\"id\":{id},", protocol::PROTOCOL_VERSION)
}

#[test]
fn quiet_connections_cost_no_wakeups() {
    let engine = engine(500);
    let obs = Arc::clone(engine.obs());
    let config = ReactorConfig {
        idle_timeout: None,
        ..ReactorConfig::default()
    };
    let handle = reactor::spawn("127.0.0.1:0", engine, &config).unwrap();
    let before = wakeups(&obs);
    let quiet: Vec<TcpStream> = (0..200)
        .map(|_| TcpStream::connect(handle.addr()).unwrap())
        .collect();
    wait_until("200 accepts", || obs.open_connections.get() == 200);
    let settled = wakeups(&obs);
    // At most one wake-up per accept (a wake-up may accept several) ...
    assert!(settled.0 - before.0 <= 200, "{before:?} -> {settled:?}");
    assert_eq!((settled.1, settled.2), (before.1, before.2));
    // ... and none at all while 200 open sockets say nothing, where the
    // scan-and-sleep loop made 250 passes over them.
    std::thread::sleep(Duration::from_millis(500));
    assert_eq!(wakeups(&obs), settled);
    assert_eq!(obs.open_connections.get(), 200);
    drop(quiet);
    handle.shutdown();
}

#[test]
fn a_peer_that_half_closes_mid_request_is_not_polled_for_its_eof() {
    // A pool large enough that three cold selections take milliseconds: a
    // loop spinning on the half-closed socket would log thousands of
    // wake-ups in that time.
    let engine = engine(60_000);
    let obs = Arc::clone(engine.obs());
    let handle = reactor::spawn("127.0.0.1:0", engine, &ReactorConfig::default()).unwrap();
    let before = wakeups(&obs);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let mut burst = String::new();
    for (id, k) in [(1, 9), (2, 7), (3, 8)] {
        let algorithm = TopKAlgorithm::Greedy;
        burst.push_str(&frame(id, Request::TopK { k, algorithm }));
    }
    stream.write_all(burst.as_bytes()).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    // The replies still arrive, in request order, and then the server's EOF.
    let mut replies = String::new();
    stream.read_to_string(&mut replies).unwrap();
    let lines: Vec<&str> = replies.lines().collect();
    assert_eq!(lines.len(), 3, "{replies}");
    for (line, (id, k)) in lines.iter().zip([(1, 9), (2, 7), (3, 8)]) {
        assert!(line.starts_with(&reply_id_prefix(id)), "{line}");
        let reply: protocol::ResponseFrame = protocol::decode(line).unwrap();
        match reply.body {
            protocol::Outcome::Ok(Response::TopK { seeds, .. }) => assert_eq!(seeds.len(), k),
            other => panic!("request {id} answered with {other:?}"),
        }
    }
    // Accept, the burst (and perhaps its FIN apart), three completions.
    let after = wakeups(&obs);
    assert!(total(after) - total(before) < 10, "{before:?} -> {after:?}");
    assert_eq!(after.2, before.2, "no timeout wake-up");
    handle.shutdown();
}

#[test]
fn a_slow_reader_parked_over_its_backlog_bound_is_not_polled_for_its_requests() {
    const BATCH: u64 = 256;
    let engine = engine(500);
    let obs = Arc::clone(engine.obs());
    let config = ReactorConfig {
        compute_threads: 2,
        idle_timeout: None,
        max_write_backlog: 4 * 1024,
        ..ReactorConfig::default()
    };
    let handle = reactor::spawn("127.0.0.1:0", engine, &config).unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    // `Metrics` requests (12 KiB of reply each) from a peer that reads
    // nothing, a batch at a time until the kernel buffers between the two
    // sockets are full (tens of MiB where receive buffers autotune) and the
    // server parks the connection: over the backlog bound, everything
    // dispatched finished, unread requests waiting behind the bound.
    let answered = || obs.metrics.count.get();
    let stalled = || obs.throttled_connections.get() == 1 && obs.inflight.get() == 0;
    let mut sent = 0;
    loop {
        assert!(sent < 40_000, "the kernel absorbed {sent} replies");
        let batch: String = (sent + 1..=sent + BATCH)
            .map(|id| frame(id, Request::Metrics))
            .collect();
        stream.write_all(batch.as_bytes()).unwrap();
        sent += BATCH;
        wait_until("the batch to be answered or stall", || {
            answered() == sent || stalled()
        });
        let seen = answered();
        std::thread::sleep(Duration::from_millis(50));
        if seen < sent && answered() == seen && stalled() {
            break;
        }
    }
    assert!(obs.backpressure_stalls.get() >= 1);
    assert!(obs.write_backlog_bytes.get() > 4 * 1024);
    let parked = (wakeups(&obs), answered());
    std::thread::sleep(Duration::from_millis(300));
    let still_parked = (wakeups(&obs), answered());
    assert!(
        total(still_parked.0) - total(parked.0) < 10,
        "{parked:?} -> {still_parked:?}"
    );
    assert_eq!(
        parked.1, still_parked.1,
        "nothing moves until the peer reads"
    );
    // The drain: every reply, in request order.
    let mut reader = BufReader::with_capacity(1 << 20, stream);
    let mut line = String::new();
    for id in 1..=sent {
        line.clear();
        assert!(reader.read_line(&mut line).unwrap() > 0, "EOF before {id}");
        assert!(line.starts_with(&reply_id_prefix(id)), "{id}: {line:.80}");
    }
    let last: protocol::ResponseFrame = protocol::decode(line.trim_end()).unwrap();
    let protocol::Outcome::Ok(Response::Metrics(report)) = last.body else {
        panic!("the last reply is not a metrics report");
    };
    let timeouts = report.counter("imserve_reactor_wakeups_total{cause=\"timeout\"}");
    assert_eq!(timeouts, 0);
    assert_eq!(answered(), sent);
    handle.shutdown();
}

#[test]
fn a_ping_pong_wakes_on_sockets_and_completions_never_on_a_timer() {
    let engine = engine(500);
    let obs = Arc::clone(engine.obs());
    let handle = reactor::spawn("127.0.0.1:0", engine, &ReactorConfig::default()).unwrap();
    let mut connection = ServiceConnection::connect(handle.addr()).unwrap();
    let before = wakeups(&obs);
    // `TopK` goes to the compute pool (cached after the first: a hand-off
    // and a completion each, no pass).
    for _ in 0..100 {
        let algorithm = TopKAlgorithm::Greedy;
        let reply = connection.call(&Request::TopK { k: 2, algorithm }).unwrap();
        assert!(matches!(reply, Response::TopK { .. }));
    }
    let after = wakeups(&obs);
    // Not >= 100 each: a request that lands while the loop is still
    // flushing the previous reply is read in the same tick.
    assert!(
        after.0 > before.0,
        "socket wake-ups: {before:?} -> {after:?}"
    );
    assert!(
        after.1 > before.1,
        "completion wake-ups: {before:?} -> {after:?}"
    );
    assert_eq!(
        after.2, 0,
        "a timeout wake-up on a busy connection is a sleep"
    );
    // Each of those wake-ups ended a wait that was measured (a late wake
    // byte may add one more after `after` was read, never fewer).
    let report = obs.report();
    let waits = report
        .histogram("imserve_reactor_poll_wait_micros")
        .unwrap();
    let ready = report.histogram("imserve_reactor_ready_sockets").unwrap();
    assert!(waits.count >= total(after) && ready.count >= total(after));
    handle.shutdown();
}

/// `(loop, worker)` request lines so far.
fn answered(obs: &ServingMetrics) -> (u64, u64) {
    (
        obs.reactor_answered_loop.get(),
        obs.reactor_answered_worker.get(),
    )
}

/// Point requests — here with seed and probe lists as long as the graph —
/// are answered on the loop thread: one at a time or pipelined, they hand
/// nothing to the compute pool and so cost no completion wake-up.
#[test]
fn point_requests_cost_no_hand_off_and_no_completion_wakeup() {
    let engine = engine(500);
    let obs = Arc::clone(engine.obs());
    let handle = reactor::spawn("127.0.0.1:0", engine, &ReactorConfig::default()).unwrap();
    let mut connection = ServiceConnection::connect(handle.addr()).unwrap();
    let all: Vec<u32> = (0..34).collect();
    let mut burst = vec![
        Request::Ping,
        Request::Info,
        Request::Health,
        Request::GainCandidates {
            selected: vec![0, 33],
            limit: 0,
            probe: all.clone(),
        },
    ];
    burst.extend((0..100).map(|i| Request::Estimate {
        seeds: if i % 2 == 0 {
            all.clone()
        } else {
            vec![i % 34]
        },
    }));
    let before = (wakeups(&obs), answered(&obs));
    for request in &burst {
        connection.call(request).unwrap();
    }
    for reply in connection.pipeline(&burst).unwrap() {
        reply.unwrap();
    }
    let after = (wakeups(&obs), answered(&obs));
    assert_eq!(after.1 .0 - before.1 .0, 2 * burst.len() as u64);
    assert_eq!(after.1 .1, before.1 .1, "nothing was handed to a worker");
    assert_eq!(
        after.0 .1, before.0 .1,
        "no completion wake-up: {before:?} -> {after:?}"
    );
    assert_eq!(after.0 .2, 0, "no timeout wake-up");
    handle.shutdown();
}

/// No head-of-line blocking behind the compute pool: while its one worker
/// works through a queue of cold selections from one connection, estimates
/// over every vertex from another connection are all answered first.
#[test]
fn estimates_are_answered_while_the_compute_pool_is_busy() {
    let engine = engine(60_000);
    let obs = Arc::clone(engine.obs());
    let config = ReactorConfig {
        compute_threads: 1,
        ..ReactorConfig::default()
    };
    let handle = reactor::spawn("127.0.0.1:0", engine, &config).unwrap();
    let selections: Vec<usize> = (10..34).collect();
    let mut selecting = TcpStream::connect(handle.addr()).unwrap();
    let burst: String = (selections.iter().enumerate())
        .map(|(id, &k)| {
            let algorithm = TopKAlgorithm::Greedy;
            frame(id as u64 + 1, Request::TopK { k, algorithm })
        })
        .collect();
    selecting.write_all(burst.as_bytes()).unwrap();
    wait_until("the selections to be queued", || {
        answered(&obs).1 == selections.len() as u64
    });
    let mut estimating = ServiceConnection::connect(handle.addr()).unwrap();
    for _ in 0..20 {
        let seeds = (0..34).collect();
        let reply = estimating.call(&Request::Estimate { seeds }).unwrap();
        assert!(matches!(reply, Response::Estimate { .. }));
    }
    // The selections are still being worked through ...
    selecting.set_nonblocking(true).unwrap();
    let mut early = Vec::new();
    let _ = selecting.read_to_end(&mut early);
    let done_early = early.iter().filter(|&&b| b == b'\n').count();
    assert!(
        done_early < selections.len(),
        "all {done_early} selections finished before 20 estimates"
    );
    // ... and all of them still arrive, in order.
    selecting.set_nonblocking(false).unwrap();
    let mut rest = String::new();
    let mut reader = BufReader::new(&selecting);
    for _ in done_early..selections.len() {
        reader.read_line(&mut rest).unwrap();
    }
    let replies = String::from_utf8(early).unwrap() + &rest;
    for (line, id) in replies.lines().zip(1..) {
        assert!(line.starts_with(&reply_id_prefix(id)), "{line:.80}");
    }
    handle.shutdown();
}

#[test]
fn shutdown_returns_promptly_from_an_indefinite_wait() {
    let engine = engine(500);
    let obs = Arc::clone(engine.obs());
    let config = ReactorConfig {
        idle_timeout: None,
        ..ReactorConfig::default()
    };
    let handle = reactor::spawn("127.0.0.1:0", engine, &config).unwrap();
    let quiet = TcpStream::connect(handle.addr()).unwrap();
    wait_until("the accept", || obs.open_connections.get() == 1);
    // No deadline is pending, so the loop is (or is about to be) parked in a
    // `poll` with no timeout; only shutdown's connect can end it.
    std::thread::sleep(Duration::from_millis(50));
    let parked = wakeups(&obs);
    let began = Instant::now();
    handle.shutdown();
    let took = began.elapsed();
    assert!(took < Duration::from_millis(100), "shutdown took {took:?}");
    assert_eq!(wakeups(&obs).2, parked.2, "and not because a timer fired");
    drop(quiet);
}

/// Kills the server process when the test ends, however it ends.
struct ServerProcess(Child);

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn reactor_counters(report: &MetricsReport) -> (u64, u64) {
    let wakeups = (report.counters.iter())
        .filter(|c| c.name.starts_with("imserve_reactor_wakeups_total{"))
        .map(|c| c.value)
        .sum();
    (wakeups, report.counter("imserve_accept_errors_total"))
}

/// The third way to spin: a listener that is readable because `accept`
/// cannot take its connection. Needs a descriptor limit, which is
/// per-process, so this one drives the real binary under `ulimit -n`.
#[test]
fn a_listener_that_cannot_accept_is_left_alone_until_a_descriptor_comes_free() {
    let index = std::env::temp_dir().join(format!("imserve-emfile-{}.imx", std::process::id()));
    let artifact = build_dataset_index("karate", "uc0.1", 500, 7).unwrap();
    artifact.save(index.to_str().unwrap()).unwrap();
    let serve = format!(
        "ulimit -n 24 && exec '{}' serve --index '{}' --addr 127.0.0.1:0 --workers 1",
        env!("CARGO_BIN_EXE_imserve"),
        index.display()
    );
    let mut child = Command::new("sh")
        .args(["-c", &serve])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let stdout = BufReader::new(child.stdout.take().unwrap());
    let _server = ServerProcess(child);
    let addr: SocketAddr = stdout
        .lines()
        .map(Result::unwrap)
        .find_map(|l| l.strip_prefix("imserve listening on ").map(str::to_string))
        .expect("the server prints its address")
        .parse()
        .unwrap();
    let _ = std::fs::remove_file(&index);

    // One connection the server certainly holds, then more than it can.
    let mut control = RemoteService::connect(addr).unwrap();
    let mut flood: Vec<TcpStream> = (0..40).map(|_| TcpStream::connect(addr).unwrap()).collect();
    let mut errors = 0;
    wait_until("an accept to fail", || {
        errors = reactor_counters(&control.metrics().unwrap()).1;
        errors > 0
    });
    // Stuck, not spinning: over 350 ms the loop retries the accept a few
    // times (each a timeout wake-up, a listener wake-up and one more error)
    // and answers this test's two reads; a spin would count tens of
    // thousands.
    let (wakeups_before, errors_before) = reactor_counters(&control.metrics().unwrap());
    std::thread::sleep(Duration::from_millis(350));
    let (wakeups_after, errors_after) = reactor_counters(&control.metrics().unwrap());
    assert!(
        wakeups_after - wakeups_before < 40,
        "{wakeups_before} -> {wakeups_after}"
    );
    assert!(
        errors_after - errors_before < 10,
        "{errors_before} -> {errors_after}"
    );
    // One event for the whole episode, however many retries it spans.
    let events = control.events().unwrap();
    let failures = events.iter().filter(|e| e.code == "accept_failed").count();
    assert_eq!(failures, 1, "{events:?}");

    // Hang up on thirty: each reaped connection returns a descriptor and
    // puts the listener back in the watch set, so the ten still waiting (in
    // the accept queue or already accepted) are all served.
    flood.drain(..30);
    for (i, stream) in flood.iter_mut().enumerate() {
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        stream
            .write_all(frame(7, Request::Ping).as_bytes())
            .unwrap();
        let mut reply = String::new();
        BufReader::new(&*stream).read_line(&mut reply).unwrap();
        assert!(reply.contains("\"Pong\""), "connection {i}: {reply:?}");
    }
}
