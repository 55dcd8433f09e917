//! Shared fixtures for the `imserve` integration suites.
//!
//! Every test binary compiles this module independently (`mod fixtures;`),
//! so helpers here must stay std-only and dependency-free. The goal is
//! deflaking: one blessed way to mint collision-free temp paths (tests in
//! one binary run concurrently, and several binaries run at once under
//! `cargo test`), one blessed way to spawn a server on an ephemeral port
//! (with a retry loop for the rare bind race when a pinned port is reused),
//! and scope guards that reap servers and temp files even when an assertion
//! panics mid-test.

#![allow(dead_code)] // each suite uses its own subset

use std::net::{SocketAddr, TcpStream};
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use imserve::engine::QueryEngine;
use imserve::index::{build_dataset_index, IndexArtifact};
use imserve::reactor::{self, ReactorConfig};
use imserve::ServerHandle;

/// Process-wide sequence number feeding [`unique_path`]: two fixtures minted
/// in the same process never collide even within one clock tick.
static SEQ: AtomicU32 = AtomicU32::new(0);

/// A temp-dir path that is unique across concurrently running test binaries
/// (pid) and across tests within one binary (sequence counter). The file is
/// *not* created; callers own the lifecycle — or use [`temp_path`] for a
/// self-reaping guard.
pub fn unique_path(tag: &str, ext: &str) -> PathBuf {
    let seq = SEQ.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!("imserve_{tag}_{}_{seq}.{ext}", std::process::id()))
}

/// A unique temp path that removes whatever sits at it when dropped, so a
/// panicking test does not strand artifacts in the temp dir.
pub fn temp_path(tag: &str, ext: &str) -> TempPath {
    TempPath(unique_path(tag, ext))
}

/// Scope guard around a temp path (file or directory). Dereferences to
/// [`Path`]; best-effort removal on drop.
pub struct TempPath(PathBuf);

impl TempPath {
    /// The guarded path as a string (most fixture consumers feed CLI-style
    /// APIs taking `&str`).
    pub fn as_str(&self) -> &str {
        self.0.to_str().expect("temp paths are valid UTF-8")
    }
}

impl Deref for TempPath {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        if self.0.is_dir() {
            let _ = std::fs::remove_dir_all(&self.0);
        } else {
            let _ = std::fs::remove_file(&self.0);
        }
    }
}

/// The blessed small test index: the Karate graph under `uc0.1`. Builds are
/// deterministic per (pool, seed), so two calls return byte-identical
/// artifacts — the reference-vs-served comparisons rely on that.
pub fn karate(pool: usize, seed: u64) -> IndexArtifact {
    build_dataset_index("karate", "uc0.1", pool, seed).expect("karate index builds")
}

/// Build → save → load the Karate index, covering the persistence path, and
/// hand back the *loaded* artifact (the one a real server would run from).
/// The on-disk copy is reaped immediately — the artifact is in memory.
pub fn karate_from_disk(pool: usize, seed: u64) -> IndexArtifact {
    let built = karate(pool, seed);
    let path = temp_path("fixture_index", "imx");
    built.save(path.as_str()).expect("artifact saves");
    IndexArtifact::load(path.as_str()).expect("artifact loads")
}

/// Spawn the production front end (the reactor, with `compute_threads`
/// compute workers) for `engine` at `addr`, retrying the bind a few times:
/// `127.0.0.1:0` itself cannot race, but fixtures that re-bind a
/// just-released pinned port (server restarts) can, and funneling every
/// spawn through one helper keeps the retry policy in one place.
pub fn spawn_server(addr: &str, engine: Arc<QueryEngine>, compute_threads: usize) -> ServerGuard {
    let config = ReactorConfig {
        compute_threads,
        ..ReactorConfig::default()
    };
    let mut last_error = None;
    for _ in 0..100 {
        match reactor::spawn(addr, Arc::clone(&engine), &config) {
            Ok(handle) => return ServerGuard(Some(handle)),
            Err(e) => {
                last_error = Some(e);
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    panic!("could not bind {addr} after 100 attempts: {last_error:?}");
}

/// Build an engine over `artifact` and serve it on an ephemeral port — the
/// one-liner most suites want.
pub fn serve_artifact(artifact: IndexArtifact, compute_threads: usize) -> ServerGuard {
    let engine = Arc::new(
        QueryEngine::builder(artifact)
            .build()
            .expect("engine builds"),
    );
    spawn_server("127.0.0.1:0", engine, compute_threads)
}

/// Scope guard around a [`ServerHandle`]: shuts the server down on drop, so
/// a panicking test reaps its event loop and compute threads instead of leaking
/// them into the next test's timing.
pub struct ServerGuard(Option<ServerHandle>);

impl ServerGuard {
    /// The server's resolved listen address.
    pub fn addr(&self) -> SocketAddr {
        self.0.as_ref().expect("server running").addr()
    }

    /// Shut down eagerly (idempotent with the drop guard).
    pub fn shutdown(mut self) {
        if let Some(handle) = self.0.take() {
            handle.shutdown();
        }
    }
}

impl Drop for ServerGuard {
    fn drop(&mut self) {
        if let Some(handle) = self.0.take() {
            handle.shutdown();
        }
    }
}

/// Poll until something accepts TCP connections at `addr` (readiness for
/// fixtures that spawn a server indirectly, e.g. through the CLI).
pub fn wait_listening(addr: SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if TcpStream::connect_timeout(&addr, Duration::from_millis(100)).is_ok() {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "nothing listening at {addr} within 10s"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}
