//! Live-operations cluster suite, driven by the deterministic in-process
//! harness (`imserve::testkit`): WAL-shipped followers answer byte-identically
//! at every epoch, hot-swap reloads lose zero in-flight requests, a
//! mid-stream-killed follower reconverges, stale promotions are refused with
//! the epoch gap named, and a promoted follower matches a from-scratch
//! rebuild of the full mutation history.

mod fixtures;

use std::sync::atomic::Ordering;
use std::sync::Arc;

use imgraph::GraphDelta;
use imserve::client::{RemoteService, ServiceConnection};
use imserve::index::build_dataset_index_with_deltas;
use imserve::protocol::{Request, TopKAlgorithm};
use imserve::service::{InfluenceService, ServiceError};
use imserve::testkit::{wait_until, TestCluster};

const POOL: usize = 2_000;
const SEED: u64 = 7;

/// Three scripted batches: epochs 0..2, 2..3, 3..4.
fn batches() -> Vec<Vec<GraphDelta>> {
    vec![
        vec![
            GraphDelta::InsertEdge {
                source: 0,
                target: 33,
                probability: 0.5,
            },
            GraphDelta::DeleteEdge {
                source: 0,
                target: 1,
            },
        ],
        vec![GraphDelta::SetProbability {
            source: 33,
            target: 32,
            probability: 1.0,
        }],
        vec![GraphDelta::InsertEdge {
            source: 16,
            target: 0,
            probability: 0.9,
        }],
    ]
}

/// The read-side wire mix every byte-identity check replays.
fn query_mix() -> Vec<Request> {
    vec![
        Request::Estimate { seeds: vec![0] },
        Request::Estimate {
            seeds: vec![0, 33, 5],
        },
        Request::TopK {
            k: 3,
            algorithm: TopKAlgorithm::Greedy,
        },
        Request::TopK {
            k: 2,
            algorithm: TopKAlgorithm::SingletonRank,
        },
        Request::Info,
    ]
}

/// Assert two live servers answer the whole mix with byte-identical frames.
fn assert_same_answers(a: std::net::SocketAddr, b: std::net::SocketAddr, what: &str) {
    let mut ca = ServiceConnection::connect(a).unwrap();
    let mut cb = ServiceConnection::connect(b).unwrap();
    for request in &query_mix() {
        let ra = ca
            .call(request)
            .unwrap_or_else(|e| panic!("{what}: {request:?} errored: {e}"));
        let rb = cb.call(request).unwrap();
        assert_eq!(ra, rb, "{what}: answers diverged for {request:?}");
    }
}

#[test]
fn followers_answer_byte_identically_at_every_epoch() {
    let cluster = TestCluster::launch(fixtures::karate(POOL, SEED), 2).unwrap();
    let mut leader = RemoteService::connect(cluster.leader_addr()).unwrap();

    // Epoch 0: both followers serve the pristine index.
    for i in 0..2 {
        cluster.wait_follower_connected(i);
        assert_same_answers(
            cluster.leader_addr(),
            cluster.follower_addr(i),
            &format!("follower {i} at epoch 0"),
        );
    }

    // Writes against a follower are refused with the typed taxonomy.
    let mut follower = RemoteService::connect(cluster.follower_addr(0)).unwrap();
    match follower.mutate_batch(&batches()[0]) {
        Err(ServiceError::ReadOnly(message)) => {
            assert!(message.contains("leader"), "{message}")
        }
        other => panic!("expected a typed ReadOnly refusal, got {other:?}"),
    }

    // Ship each batch through the leader; at every epoch boundary both
    // followers converge and answer byte-identically — both over the wire
    // and down in the pool bytes.
    let mut epoch = 0;
    for batch in batches() {
        epoch += batch.len() as u64;
        leader.mutate_batch(&batch).unwrap();
        for i in 0..2 {
            cluster.wait_follower_at_epoch(i, epoch);
            assert_same_answers(
                cluster.leader_addr(),
                cluster.follower_addr(i),
                &format!("follower {i} at epoch {epoch}"),
            );
            let leader_pool = cluster
                .leader
                .as_ref()
                .unwrap()
                .engine
                .state()
                .dynamic
                .oracle()
                .to_bytes();
            let follower_pool = cluster.followers[i]
                .as_ref()
                .unwrap()
                .engine
                .state()
                .dynamic
                .oracle()
                .to_bytes();
            assert_eq!(
                leader_pool, follower_pool,
                "follower {i} pool diverged at epoch {epoch}"
            );
        }
    }
}

#[test]
fn hot_swap_under_concurrent_load_loses_zero_requests() {
    let cluster = TestCluster::launch(fixtures::karate(POOL, SEED), 0).unwrap();
    let leader = cluster.leader.as_ref().unwrap();
    let addr = cluster.leader_addr();

    // Move past epoch 0 so the swap is not trivially the launch artifact,
    // then export the served state and compact the copy offline.
    RemoteService::connect(addr)
        .unwrap()
        .mutate_batch(&batches()[0])
        .unwrap();
    let mut exported = leader.engine.state().to_artifact();
    exported.compact();
    let path = fixtures::temp_path("hotswap", "imx");
    exported.save(path.as_str()).unwrap();

    // Hammer the server from several connections while the swap happens.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let served: Vec<_> = (0..4u32)
        .map(|client| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut connection = ServiceConnection::connect(addr).unwrap();
                let mut answers = 0u64;
                let mut reference = None;
                while !stop.load(Ordering::SeqCst) {
                    let seeds = vec![client % 34, (client + 11) % 34];
                    let response = connection
                        .call(&Request::Estimate { seeds })
                        .expect("no request may be dropped or refused during a hot swap");
                    // The swap never changes answers: every response in this
                    // thread is identical to the first one.
                    match &reference {
                        None => reference = Some(response),
                        Some(first) => assert_eq!(&response, first, "answers changed mid-swap"),
                    }
                    answers += 1;
                }
                answers
            })
        })
        .collect();

    // Let load build up, swap, let load continue over the new snapshot.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let outcome = RemoteService::connect(addr)
        .unwrap()
        .reload(path.as_str())
        .unwrap();
    assert_eq!(outcome.epoch, 2, "the swap kept the logical position");
    assert_eq!(outcome.log_len, 0, "the compacted copy folded the log");
    std::thread::sleep(std::time::Duration::from_millis(50));
    stop.store(true, Ordering::SeqCst);

    let mut total = 0;
    for thread in served {
        total += thread.join().expect("no loader thread may panic");
    }
    assert!(total > 0, "the load threads actually queried");

    // The swap is visible in the engine's own observability.
    assert_eq!(leader.engine.obs().reload.count.get(), 1);
    assert!(leader.engine.obs().index_swap_micros.count() >= 1);
}

#[test]
fn a_follower_cut_mid_stream_reconnects_and_reconverges() {
    let cluster = TestCluster::launch(fixtures::karate(POOL, SEED), 1).unwrap();
    cluster.wait_follower_connected(0);

    // Hard-drop the stream after every 2 shipped frames from now on.
    let leader = cluster.leader.as_ref().unwrap();
    leader.faults.cut_after_frames.store(2, Ordering::SeqCst);

    let mut client = RemoteService::connect(cluster.leader_addr()).unwrap();
    let mut epoch = 0;
    for batch in batches() {
        epoch += batch.len() as u64;
        client.mutate_batch(&batch).unwrap();
    }
    // Three records but the link dies every two frames: convergence requires
    // at least one mid-stream reconnect with a durable resume cursor.
    cluster.wait_follower_at_epoch(0, epoch);
    let follower = cluster.followers[0].as_ref().unwrap();
    wait_until(
        "the follower to report more than one connection attempt",
        std::time::Duration::from_secs(10),
        || follower.status.connect_attempts.load(Ordering::SeqCst) > 1,
    );
    assert_eq!(
        leader.engine.state().dynamic.oracle().to_bytes(),
        follower.engine.state().dynamic.oracle().to_bytes(),
        "the reconverged follower must hold the identical pool"
    );
    assert_same_answers(
        cluster.leader_addr(),
        cluster.follower_addr(0),
        "after mid-stream cuts",
    );
}

#[test]
fn stale_promotion_is_refused_with_the_epoch_gap_named() {
    let cluster = TestCluster::launch(fixtures::karate(POOL, SEED), 1).unwrap();
    cluster.wait_follower_connected(0);

    // Freeze replication: the leader accepts and immediately closes.
    let leader = cluster.leader.as_ref().unwrap();
    leader
        .faults
        .refuse_connections
        .store(true, Ordering::SeqCst);
    // The live stream predates the fault switch; drop it so nothing ships.
    leader.faults.cut_after_frames.store(1, Ordering::SeqCst);

    let mut client = RemoteService::connect(cluster.leader_addr()).unwrap();
    client.mutate_batch(&batches()[0]).unwrap();
    client.mutate_batch(&batches()[1]).unwrap();
    let leader_epoch = leader.engine.epoch();
    assert_eq!(leader_epoch, 3);

    // The follower is still (at most) at the cut-off; promoting it against
    // the leader's acknowledged epoch must fail, naming the gap, and leave
    // it read-only.
    let follower = cluster.followers[0].as_ref().unwrap();
    wait_until(
        "the frozen follower to fall behind",
        std::time::Duration::from_secs(10),
        || follower.engine.epoch() < leader_epoch,
    );
    let mut admin = RemoteService::connect(cluster.follower_addr(0)).unwrap();
    match admin.promote(Some(leader_epoch)) {
        Err(ServiceError::Promotion(message)) => {
            assert!(
                message.contains(&format!("epoch is {leader_epoch}")),
                "the refusal must name the expected epoch: {message}"
            );
            assert!(
                message.contains("missing"),
                "the refusal must name the gap: {message}"
            );
        }
        other => panic!("expected a typed Promotion refusal, got {other:?}"),
    }
    assert!(follower.engine.is_read_only());

    // Heal the link; once caught up the same promotion succeeds and the
    // node accepts writes.
    leader
        .faults
        .refuse_connections
        .store(false, Ordering::SeqCst);
    leader.faults.cut_after_frames.store(0, Ordering::SeqCst);
    cluster.wait_follower_at_epoch(0, leader_epoch);
    let outcome = admin.promote(Some(leader_epoch)).unwrap();
    assert!(outcome.was_read_only);
    assert_eq!(outcome.epoch, leader_epoch);
    assert!(admin.mutate_batch(&batches()[2]).is_ok());
}

#[test]
fn a_torn_leader_wal_recovers_its_valid_prefix_and_reships_it() {
    let mut cluster = TestCluster::launch(fixtures::karate(POOL, SEED), 1).unwrap();
    // Keep the follower's cursor at 0 for the whole first act, so the
    // restarted leader is never *behind* its follower.
    cluster.kill_follower(0);

    let mut client = RemoteService::connect(cluster.leader_addr()).unwrap();
    for batch in batches() {
        client.mutate_batch(&batch).unwrap();
    }
    assert_eq!(cluster.leader.as_ref().unwrap().engine.epoch(), 4);

    // kill -9, then tear the last WAL record in half.
    cluster.kill_leader();
    let removed = cluster.truncate_leader_wal_mid_record().unwrap();
    assert!(removed > 0, "the tear actually removed bytes");

    // The restarted leader recovers exactly the valid prefix (the torn
    // record never happened — it was never fsync-complete) and serves.
    cluster.restart_leader().unwrap();
    let recovered_epoch = cluster.leader.as_ref().unwrap().engine.epoch();
    assert_eq!(
        recovered_epoch, 3,
        "the torn final record (epochs 3..4) must be dropped, the prefix kept"
    );

    // A follower started from scratch converges on the recovered history.
    cluster.restart_follower(0).unwrap();
    cluster.wait_follower_at_epoch(0, recovered_epoch);
    assert_eq!(
        cluster
            .leader
            .as_ref()
            .unwrap()
            .engine
            .state()
            .dynamic
            .oracle()
            .to_bytes(),
        cluster.followers[0]
            .as_ref()
            .unwrap()
            .engine
            .state()
            .dynamic
            .oracle()
            .to_bytes()
    );
    // And the recovered lineage keeps moving: new writes replicate.
    RemoteService::connect(cluster.leader_addr())
        .unwrap()
        .mutate_batch(&batches()[2])
        .unwrap();
    cluster.wait_follower_at_epoch(0, recovered_epoch + 1);
}

#[test]
fn a_promoted_follower_matches_a_from_scratch_rebuild() {
    let mut cluster = TestCluster::launch(fixtures::karate(POOL, SEED), 1).unwrap();
    let mut client = RemoteService::connect(cluster.leader_addr()).unwrap();
    let mut epoch = 0;
    for batch in batches() {
        epoch += batch.len() as u64;
        client.mutate_batch(&batch).unwrap();
    }
    cluster.wait_follower_at_epoch(0, epoch);

    // The leader dies; the operator promotes the caught-up follower.
    cluster.kill_leader();
    let mut admin = RemoteService::connect(cluster.follower_addr(0)).unwrap();
    let outcome = admin.promote(Some(epoch)).unwrap();
    assert!(outcome.was_read_only);

    // The new leader accepts writes...
    let extra = vec![GraphDelta::DeleteEdge {
        source: 2,
        target: 3,
    }];
    admin.mutate_batch(&extra).unwrap();

    // ...and serves byte-identically to an index rebuilt from scratch over
    // the complete delta history (the dynamic-maintenance contract, now
    // across a failover).
    let full_history: Vec<GraphDelta> = batches().into_iter().flatten().chain(extra).collect();
    let rebuilt =
        build_dataset_index_with_deltas("karate", "uc0.1", POOL, SEED, &full_history).unwrap();
    let reference = fixtures::serve_artifact(rebuilt, 2);
    assert_same_answers(
        cluster.follower_addr(0),
        reference.addr(),
        "promoted follower vs from-scratch rebuild",
    );
}
