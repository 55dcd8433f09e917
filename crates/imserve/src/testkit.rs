//! Deterministic in-process cluster harness: leader + followers + faults.
//!
//! The replication tentpole's claims — follower byte-identity at every
//! epoch, reconvergence after a mid-stream kill, refused stale promotions —
//! are *cluster* properties, so they need a cluster to prove them on. This
//! module assembles one inside a single test process: real engines, real
//! TCP servers on loopback ephemeral ports, a real WAL file per node, and
//! the [`ReplicationFaults`] switches wired through so a test can cut the
//! stream after N frames, delay frames, refuse connections, kill a node
//! outright, or truncate the leader's WAL mid-record — all without
//! `sleep`-and-hope: every wait is a bounded poll on an observable signal
//! (an epoch cursor, a port accepting, a status flag).
//!
//! Everything here is also exercised by `imserve`'s own integration suites;
//! it lives in the library (not `tests/`) so the crash-point property test,
//! the cluster suite and any downstream consumer share one harness.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::engine::QueryEngine;
use crate::error::ServeError;
use crate::index::IndexArtifact;
use crate::reactor::{self, ReactorConfig, ServerHandle};
use crate::replication::{
    spawn_follower, spawn_leader, FollowerHandle, FollowerStatus, LeaderHandle, ReplicationFaults,
};

/// Distinguishes concurrently running clusters (and sequential clusters in
/// one process) so their WAL files never collide.
static CLUSTER_SEQ: AtomicU64 = AtomicU64::new(0);

/// How long [`wait_until`] polls before declaring the condition failed.
const DEFAULT_WAIT: Duration = Duration::from_secs(10);

/// Poll `condition` (described by `what`) until it holds, up to `timeout`.
///
/// # Panics
///
/// Panics with `what` if the deadline passes first — a harness wait that
/// expires is a test failure with a name, never a silent pass.
pub fn wait_until(what: &str, timeout: Duration, mut condition: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if condition() {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("timed out waiting for {what}");
}

/// A live leader: engine + query server + replication listener.
#[derive(Debug)]
pub struct LeaderNode {
    /// The leader's engine (shared with its servers).
    pub engine: Arc<QueryEngine>,
    /// The injectable fault switches its replication listener honors.
    pub faults: Arc<ReplicationFaults>,
    server: ServerHandle,
    repl: LeaderHandle,
    addr: SocketAddr,
    repl_addr: SocketAddr,
}

impl LeaderNode {
    /// The query-serving address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The replication-listener address followers dial.
    #[must_use]
    pub fn repl_addr(&self) -> SocketAddr {
        self.repl_addr
    }
}

/// A live follower: read-only engine + query server + tailing loop.
#[derive(Debug)]
pub struct FollowerNode {
    /// The follower's engine (read-only until promoted).
    pub engine: Arc<QueryEngine>,
    /// The tailing loop's live status (cursor, connectivity, last error).
    pub status: Arc<FollowerStatus>,
    server: ServerHandle,
    repl: FollowerHandle,
    addr: SocketAddr,
}

impl FollowerNode {
    /// The query-serving address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

/// An in-process replication cluster over loopback TCP.
///
/// Nodes are `Option`s so a test can kill one (dropping every thread and
/// socket it owned, WAL file left behind — the moral equivalent of
/// `kill -9`) and later restart it on the *same* ports from the same WAL.
#[derive(Debug)]
pub struct TestCluster {
    artifact: IndexArtifact,
    dir: PathBuf,
    /// The leader, if currently alive.
    pub leader: Option<LeaderNode>,
    /// The followers, each `Some` while alive.
    pub followers: Vec<Option<FollowerNode>>,
    /// Pinned (addr, repl_addr) of the leader, so a restart rebinds the
    /// ports followers and clients already hold.
    leader_ports: Option<(SocketAddr, SocketAddr)>,
    follower_ports: Vec<Option<SocketAddr>>,
}

impl TestCluster {
    /// Launch a leader and `followers` followers, all serving `artifact`.
    ///
    /// Every node gets its own WAL under a fresh per-cluster temp
    /// directory; followers connect, hand-shake and are ready (but possibly
    /// still catching up) when this returns.
    pub fn launch(artifact: IndexArtifact, followers: usize) -> Result<Self, ServeError> {
        let seq = CLUSTER_SEQ.fetch_add(1, Ordering::SeqCst);
        let dir =
            std::env::temp_dir().join(format!("imserve_cluster_{}_{seq}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        let mut cluster = Self {
            artifact,
            dir,
            leader: None,
            followers: (0..followers).map(|_| None).collect(),
            leader_ports: None,
            follower_ports: vec![None; followers],
        };
        cluster.restart_leader()?;
        for i in 0..followers {
            cluster.restart_follower(i)?;
        }
        Ok(cluster)
    }

    /// The leader's WAL path (exists whether or not the leader is alive).
    #[must_use]
    pub fn leader_wal(&self) -> PathBuf {
        self.dir.join("leader.wal")
    }

    fn follower_wal(&self, i: usize) -> PathBuf {
        self.dir.join(format!("follower{i}.wal"))
    }

    /// The live leader's query address.
    ///
    /// # Panics
    ///
    /// Panics if the leader is dead.
    #[must_use]
    pub fn leader_addr(&self) -> SocketAddr {
        self.leader.as_ref().expect("leader is alive").addr()
    }

    /// Follower `i`'s query address.
    ///
    /// # Panics
    ///
    /// Panics if that follower is dead.
    #[must_use]
    pub fn follower_addr(&self, i: usize) -> SocketAddr {
        self.followers[i]
            .as_ref()
            .expect("follower is alive")
            .addr()
    }

    /// Start (or restart) the leader. A restart reuses the original ports —
    /// clients and followers holding the old address reconnect to the new
    /// process — and rebuilds the engine from the artifact plus its WAL, so
    /// every acknowledged mutation survives.
    pub fn restart_leader(&mut self) -> Result<(), ServeError> {
        assert!(self.leader.is_none(), "leader is already running");
        let engine = Arc::new(
            QueryEngine::builder(self.artifact.clone())
                .wal(self.leader_wal())
                .build()?,
        );
        let faults = Arc::new(ReplicationFaults::default());
        let (addr, repl_addr) = self
            .leader_ports
            .map_or((ephemeral(), ephemeral()), |(a, r)| (a, r));
        let server = bind_retry(|| reactor::spawn(addr, Arc::clone(&engine), &cluster_config()))?;
        let repl = bind_retry(|| {
            spawn_leader(
                repl_addr,
                Arc::clone(&engine),
                self.leader_wal(),
                Arc::clone(&faults),
            )
        })?;
        self.leader_ports = Some((server.addr(), repl.addr()));
        self.leader = Some(LeaderNode {
            engine,
            faults,
            addr: server.addr(),
            repl_addr: repl.addr(),
            server,
            repl,
        });
        Ok(())
    }

    /// Start (or restart) follower `i`: a read-only engine with its own WAL
    /// (the durable resume cursor), a query server, and the tailing loop
    /// pointed at the leader's pinned replication address.
    pub fn restart_follower(&mut self, i: usize) -> Result<(), ServeError> {
        assert!(
            self.followers[i].is_none(),
            "follower {i} is already running"
        );
        let repl_addr = self
            .leader_ports
            .expect("leader launched before followers")
            .1;
        let engine = Arc::new(
            QueryEngine::builder(self.artifact.clone())
                .wal(self.follower_wal(i))
                .read_only(true)
                .build()?,
        );
        let addr = self.follower_ports[i].unwrap_or_else(ephemeral);
        let server = bind_retry(|| reactor::spawn(addr, Arc::clone(&engine), &cluster_config()))?;
        let status = Arc::new(FollowerStatus::default());
        let repl = spawn_follower(
            repl_addr.to_string(),
            Arc::clone(&engine),
            Arc::clone(&status),
        );
        self.follower_ports[i] = Some(server.addr());
        self.followers[i] = Some(FollowerNode {
            engine,
            status,
            addr: server.addr(),
            server,
            repl,
        });
        Ok(())
    }

    /// Kill the leader: tear down its servers and drop its engine without
    /// any graceful close (the WAL is already synced per acknowledged
    /// batch, which is the whole point). Followers see EOF and start
    /// re-dialling.
    pub fn kill_leader(&mut self) {
        let leader = self.leader.take().expect("leader is alive");
        leader.server.shutdown();
        leader.repl.shutdown();
    }

    /// Kill follower `i` the same way.
    pub fn kill_follower(&mut self, i: usize) {
        let follower = self.followers[i].take().expect("follower is alive");
        follower.repl.shutdown();
        follower.server.shutdown();
    }

    /// Block until follower `i`'s engine reaches `epoch` (bounded).
    ///
    /// # Panics
    ///
    /// Panics if the follower does not catch up within the harness bound.
    pub fn wait_follower_at_epoch(&self, i: usize, epoch: u64) {
        let engine = Arc::clone(
            &self.followers[i]
                .as_ref()
                .expect("follower is alive")
                .engine,
        );
        wait_until(
            &format!("follower {i} to reach epoch {epoch}"),
            DEFAULT_WAIT,
            || engine.epoch() >= epoch,
        );
    }

    /// Block until follower `i` reports a live stream to the leader.
    ///
    /// # Panics
    ///
    /// Panics if the stream does not come up within the harness bound.
    pub fn wait_follower_connected(&self, i: usize) {
        let status = Arc::clone(
            &self.followers[i]
                .as_ref()
                .expect("follower is alive")
                .status,
        );
        wait_until(&format!("follower {i} to connect"), DEFAULT_WAIT, || {
            status.connected.load(Ordering::SeqCst)
        });
    }

    /// Truncate the leader's WAL mid-record: keep the header and any whole
    /// records before the last one, then cut `keep_fraction` of the way
    /// *into* the final record. Returns the bytes removed. The leader must
    /// be dead (no live appender) when this is called.
    ///
    /// A restarted leader recovers the valid prefix and truncates the torn
    /// tail — exactly the crash anatomy [`crate::wal`] documents — and its
    /// followers re-request whatever the torn record spanned.
    pub fn truncate_leader_wal_mid_record(&self) -> Result<u64, ServeError> {
        assert!(
            self.leader.is_none(),
            "kill the leader before tearing its WAL"
        );
        truncate_last_record(&self.leader_wal())
    }
}

impl Drop for TestCluster {
    fn drop(&mut self) {
        self.leader.take();
        for follower in &mut self.followers {
            follower.take();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Front-end tuning for harness nodes: small but concurrent.
fn cluster_config() -> ReactorConfig {
    ReactorConfig {
        compute_threads: 2,
        idle_timeout: Some(Duration::from_secs(30)),
        ..ReactorConfig::default()
    }
}

fn ephemeral() -> SocketAddr {
    "127.0.0.1:0".parse().expect("loopback parses")
}

/// Retry `bind` briefly: a restarted node rebinds the port its previous
/// incarnation just released, and the kernel may not have finished tearing
/// the old listener down.
fn bind_retry<T>(mut bind: impl FnMut() -> Result<T, ServeError>) -> Result<T, ServeError> {
    let mut last = None;
    for _ in 0..100 {
        match bind() {
            Ok(value) => return Ok(value),
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    Err(last.expect("at least one attempt ran"))
}

/// Cut partway into the last record of the WAL at `path` (see
/// [`TestCluster::truncate_leader_wal_mid_record`]).
pub fn truncate_last_record(path: &Path) -> Result<u64, ServeError> {
    let bytes = std::fs::read(path)?;
    // Walk the record frames to find where the last one starts. The header
    // is `"IMWL" | u32 | u64 | u32 id_len | id`.
    if bytes.len() < 20 {
        return Err(ServeError::Wal("WAL too short to hold a header".into()));
    }
    let id_len = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes")) as usize;
    let mut at = 20 + id_len;
    let mut last_start = None;
    while bytes.len() - at >= 4 {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
        if bytes.len() - at - 4 < len {
            break;
        }
        last_start = Some(at);
        at += 4 + len;
    }
    let Some(start) = last_start else {
        return Err(ServeError::Wal(
            "WAL holds no complete record to tear".into(),
        ));
    };
    // Keep the length prefix and roughly half the payload: unambiguously
    // torn (the prefix promises more bytes than the file holds).
    let keep = start + 4 + (at - start - 4) / 2;
    let removed = bytes.len() as u64 - keep as u64;
    let file = std::fs::OpenOptions::new().write(true).open(path)?;
    file.set_len(keep as u64)?;
    Ok(removed)
}
