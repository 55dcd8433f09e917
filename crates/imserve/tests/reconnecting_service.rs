//! Unit/integration tests for [`ReconnectingService`]'s failure behavior:
//! the exponential redial backoff gate, the error taxonomy over half-open
//! sockets, and a recovered shard resuming with its epoch verified.

mod fixtures;

use std::io::{BufRead, BufReader};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use imgraph::GraphDelta;
use imserve::client::ReconnectingService;
use imserve::engine::QueryEngine;
use imserve::service::{InfluenceService, ServiceError};
use imserve::testkit::wait_until;

const POOL: usize = 1_000;
const SEED: u64 = 7;

/// A loopback address with nothing behind it: bind, resolve, drop.
fn dead_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    drop(listener);
    addr.to_string()
}

#[test]
fn failed_dials_arm_an_exponential_backoff_gate() {
    let mut shard = ReconnectingService::new(dead_addr());
    assert!(shard.redial_wait().is_none(), "construction never dials");

    // The first call really dials and fails with a transport error.
    match shard.info() {
        Err(ServiceError::Transport(e)) => {
            assert_ne!(
                e.kind(),
                std::io::ErrorKind::WouldBlock,
                "a real dial, not the gate"
            )
        }
        other => panic!("expected a Transport error, got {other:?}"),
    }
    // Now the gate is armed: the next call fails fast without dialling.
    let wait = shard.redial_wait().expect("failed dial arms the gate");
    assert!(wait <= ReconnectingService::INITIAL_REDIAL_BACKOFF);
    match shard.info() {
        Err(ServiceError::Transport(e)) => {
            assert_eq!(e.kind(), std::io::ErrorKind::WouldBlock);
            let message = e.to_string();
            assert!(message.contains("redial backoff"), "{message}");
        }
        other => panic!("expected the backoff gate, got {other:?}"),
    }

    // Once the window passes, the next call dials again — and the delay
    // doubles per consecutive failure.
    std::thread::sleep(wait + Duration::from_millis(5));
    assert!(
        shard.redial_wait().is_none(),
        "window expired, dial allowed"
    );
    let _ = shard.info();
    let second = shard
        .redial_wait()
        .expect("second failure re-arms the gate");
    assert!(
        second > ReconnectingService::INITIAL_REDIAL_BACKOFF,
        "backoff must grow: {second:?}"
    );
    assert!(second <= ReconnectingService::MAX_REDIAL_BACKOFF);
}

#[test]
fn half_open_sockets_surface_as_transport_errors_and_drop_the_connection() {
    // A peer that accepts and then closes while the handshake reply is owed:
    // the TCP connect succeeds but the protocol handshake dies — the client
    // must see a typed Transport error (connection-fatal) however the close
    // reaches it, never a hang or a panic. Each leg waits for the `Hello`
    // line before closing, so which segment the client sees is not a race.
    type Leg = (&'static str, fn(&mut TcpStream), std::io::ErrorKind);
    let legs: [Leg; 2] = [
        // Everything received was read: the close is an orderly FIN, which
        // the client reads as end-of-file.
        (
            "FIN",
            |stream| {
                let mut line = String::new();
                BufReader::new(stream).read_line(&mut line).unwrap();
            },
            std::io::ErrorKind::UnexpectedEof,
        ),
        // The `Hello` line has arrived but is still unread: the close
        // discards it, so the kernel answers with an RST.
        (
            "RST",
            |stream| {
                stream.peek(&mut [0u8; 1]).unwrap();
            },
            std::io::ErrorKind::ConnectionReset,
        ),
    ];
    for (leg, on_accept, expected_kind) in legs {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // One accept only: the second client call below must be stopped by
        // the backoff gate *before* dialling, so no second connection ever
        // arrives.
        let closer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            on_accept(&mut stream);
        });

        let mut shard = ReconnectingService::new(addr);
        match shard.estimate(&[0]) {
            Err(ServiceError::Transport(e)) => assert_eq!(e.kind(), expected_kind, "{leg} leg"),
            other => panic!("{leg} leg: expected a Transport error, got {other:?}"),
        }
        // The failed *dial* armed the gate; the taxonomy distinguishes the
        // gate (WouldBlock) from the half-open failure itself.
        match shard.estimate(&[0]) {
            Err(ServiceError::Transport(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::WouldBlock, "{leg} leg")
            }
            other => panic!("{leg} leg: expected the backoff gate, got {other:?}"),
        }
        closer.join().unwrap();
    }
}

#[test]
fn a_recovered_shard_resumes_with_its_epoch_verified() {
    // Serve, query, kill, mutate offline, revive on the same port: the
    // reconnecting client must re-dial transparently and observe the new
    // epoch — proof it is talking to the revived process, not a cache.
    let engine = Arc::new(
        QueryEngine::builder(fixtures::karate(POOL, SEED))
            .build()
            .unwrap(),
    );
    let server = fixtures::spawn_server("127.0.0.1:0", Arc::clone(&engine), 2);
    let addr = server.addr();

    let mut shard = ReconnectingService::new(addr.to_string());
    {
        // Verify the pre-crash epoch over a throwaway connection and close
        // it client-side first, so the server's pinned port never lands in
        // TIME_WAIT and the revived process can rebind it.
        let mut probe = imserve::RemoteService::connect(addr.to_string()).unwrap();
        assert_eq!(probe.stats().unwrap().epoch, 0);
    }

    server.shutdown();
    // The dead shard surfaces as Transport errors (gate or dial) while down.
    assert!(matches!(
        shard.estimate(&[0]),
        Err(ServiceError::Transport(_))
    ));

    // The shard comes back on the *same* address, one mutation ahead.
    engine
        .mutate_batch(&[GraphDelta::DeleteEdge {
            source: 0,
            target: 1,
        }])
        .unwrap();
    let revived = fixtures::spawn_server(&addr.to_string(), Arc::clone(&engine), 2);

    // Poll through the backoff until the redial lands, then verify the
    // resumed shard's epoch moved exactly as the offline history says.
    let mut stats = None;
    wait_until(
        "the reconnecting client to re-dial the revived shard",
        Duration::from_secs(10),
        || match shard.stats() {
            Ok(s) => {
                stats = Some(s);
                true
            }
            Err(ServiceError::Transport(_)) => false,
            Err(e) => panic!("unexpected error while the shard revives: {e:?}"),
        },
    );
    assert_eq!(stats.expect("stats fetched").epoch, 1);
    assert!(
        shard.redial_wait().is_none(),
        "a successful dial resets the gate"
    );
    revived.shutdown();
}
