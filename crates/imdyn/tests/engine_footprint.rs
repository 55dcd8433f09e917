//! What a `DynamicOracle` holds: the CSR graph, the pool, the pending log
//! and a few counters — no second copy of the graph.
//!
//! A counting global allocator tracks live bytes and their high-water mark.
//! Reassembling an engine from its parts (`from_parts`, what a server does at
//! start-up and on every reload) moves the graph and the pool in and may
//! allocate O(n) bytes at most, never O(m): an engine that derived an edge
//! list from the CSR would allocate 16 bytes per edge and more while sorting
//! it. And a clone — what a write pays when a reader still holds the
//! previous state — copies no more than the CSR plus the pool.
//!
//! This file deliberately contains a single `#[test]` so no sibling test can
//! allocate concurrently on another thread and pollute the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use im_core::sampler::Backend;
use im_core::InfluenceOracle;
use imdyn::DynamicOracle;
use imgraph::{DeltaLog, DiGraph, InfluenceGraph};
use imrand::{Pcg32, Rng32};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct PeakAllocator;

// SAFETY: delegates directly to the system allocator; the bookkeeping is
// side-effect-free atomic arithmetic that never allocates.
unsafe impl GlobalAlloc for PeakAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            let live = LIVE.fetch_add(new_size - layout.size(), Ordering::Relaxed) + new_size
                - layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: PeakAllocator = PeakAllocator;

/// A random graph with many more edges than vertices, so O(n) and O(m)
/// allocations are far apart.
fn dense_graph(n: usize, m: usize, seed: u64) -> InfluenceGraph {
    let mut rng = Pcg32::seed_from_u64(seed);
    let edges: Vec<(u32, u32)> = (0..m)
        .map(|_| (rng.gen_index(n) as u32, rng.gen_index(n) as u32))
        .collect();
    let probs = (0..m).map(|_| 0.5 / n as f64).collect();
    InfluenceGraph::new(DiGraph::from_edges(n, &edges), probs)
}

/// Run `f`; return its value, the live bytes it left behind and its peak
/// live bytes above the start.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let value = f();
    let kept = LIVE.load(Ordering::SeqCst).saturating_sub(before);
    let peak = PEAK.load(Ordering::SeqCst) - before;
    (value, kept, peak)
}

#[test]
fn an_engine_holds_one_graph() {
    let (n, m) = (2_000, 100_000);
    let graph = dense_graph(n, m, 11);
    let oracle = InfluenceOracle::builder(400)
        .seed(7)
        .backend(Backend::Sequential)
        .incremental()
        .sample(&graph);

    // Assembly: O(n) bytes at most.
    let (dynamic, _, peak) = counted(|| {
        DynamicOracle::from_parts(graph, oracle, DeltaLog::new(), 0).expect("parts fit")
    });
    let bound = 16 * n;
    println!(
        "from_parts: peak {peak} B (bound {bound} B; the edge list alone is {} B)",
        16 * m
    );
    assert!(
        peak <= bound,
        "from_parts allocated {peak} B on a graph of n = {n}, m = {m} (bound {bound} B = 16·n)"
    );

    // A clone copies the CSR and the pool, and nothing of their size besides.
    let (graph_copy, graph_bytes, _) = counted(|| dynamic.graph().clone());
    let (pool_copy, pool_bytes, _) = counted(|| dynamic.oracle().clone());
    drop((graph_copy, pool_copy));
    let (copy, clone_bytes, _) = counted(|| dynamic.clone());
    let slack = 1024;
    println!("clone: {clone_bytes} B; CSR {graph_bytes} B + pool {pool_bytes} B");
    assert!(
        clone_bytes <= graph_bytes + pool_bytes + slack,
        "a clone copied {clone_bytes} B, more than the CSR ({graph_bytes} B) plus the pool \
         ({pool_bytes} B)"
    );
    assert_eq!(copy.fingerprint(), dynamic.fingerprint());
}
