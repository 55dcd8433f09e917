//! The memory envelope of building an oracle: an incremental `sample` must
//! not hold much more live heap at its peak than the pool it returns.
//!
//! A counting global allocator tracks live bytes and their high-water mark.
//! The pool is built once, at exact size: the member lists sampled by the
//! workers become the traces, a counting pass sizes the posting lists, and
//! nothing is copied afterwards. A build that copied its finished pool (or
//! grew its lists by doubling and trimmed them by copy) would peak near
//! twice the pool.
//!
//! This file deliberately contains a single `#[test]` so no sibling test can
//! allocate concurrently on another thread and pollute the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use im_core::sampler::Backend;
use im_core::InfluenceOracle;
use imgraph::{DiGraph, InfluenceGraph};
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

/// Peak-over-pool bound. A build that copies its finished pool peaks above
/// twice the pool; one that builds the pool once stays near one pool plus
/// the transient per-vertex counts and sampling scratch.
const BOUND: f64 = 1.5;

/// A heavy-tailed random graph (endpoints drawn as `n·u³`, so low ids are
/// hubs) under the in-degree weighted cascade, `p(u, v) = 1 / indeg(v)`:
/// the shape of the Chung–Lu iwc fixture at a tenth of its size.
fn heavy_tailed_iwc(n: usize, m: usize, seed: u64) -> InfluenceGraph {
    let mut rng = Pcg32::seed_from_u64(seed);
    let skewed = |rng: &mut Pcg32| ((n as f64) * rng.next_f64().powi(3)) as u32;
    let edges: Vec<(u32, u32)> = (0..m)
        .map(|_| (skewed(&mut rng), rng.gen_index(n) as u32))
        .filter(|(u, v)| u != v)
        .collect();
    let mut indeg = vec![0u32; n];
    for &(_, v) in &edges {
        indeg[v as usize] += 1;
    }
    let probs = edges
        .iter()
        .map(|&(_, v)| 1.0 / f64::from(indeg[v as usize]))
        .collect();
    InfluenceGraph::new(DiGraph::from_edges(n, &edges), probs)
}

#[test]
fn an_incremental_build_peaks_near_the_pool_it_returns() {
    let graph = heavy_tailed_iwc(25_000, 100_000, 11);
    let builder = InfluenceOracle::builder(2_500)
        .seed(7)
        .backend(Backend::Sequential)
        .incremental();

    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let oracle = builder.sample(&graph);
    let peak = PEAK.load(Ordering::SeqCst) - before;

    let pool = oracle.pool_resident_bytes();
    let ratio = peak as f64 / pool as f64;
    println!("build peak {peak} B over a {pool} B pool: {ratio:.2}x (bound {BOUND}x)");
    assert!(oracle.is_incremental());
    assert!(
        ratio <= BOUND,
        "an incremental build peaked at {peak} live bytes for a {pool}-byte pool \
         ({ratio:.2}x, bound {BOUND}x)"
    );
}
