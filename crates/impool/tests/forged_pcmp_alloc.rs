//! Proof that decoding a forged `PCMP` payload reserves no more memory than
//! the payload's own bytes justify.
//!
//! The payload is the only pool format on disk and arrives from files a
//! client can name (`Reload { path }`), so a header field must never size an
//! allocation by itself: a 100-byte payload claiming 2^28 vertices has to
//! fail as truncation, not as a gigabyte request. A counting global
//! allocator records the largest single allocation made on the decoding
//! thread while the forged payload is decoded.
//!
//! This file deliberately contains a single `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use impool::{decode_pcmp_payload, fnv1a64, Pool, PoolCodecError, PoolLayout};

static LARGEST: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

struct LargestAllocation;

// SAFETY: delegates directly to the system allocator; the bookkeeping is an
// atomic max and a const-initialized thread-local flag, neither of which
// allocates.
unsafe impl GlobalAlloc for LargestAllocation {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if MEASURING.with(Cell::get) {
            LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: LargestAllocation = LargestAllocation;

/// Byte offsets of the header fields the forgery rewrites (see the layout
/// in `pcmp.rs`): magic 4, codec version 4, hint 1, block size 4.
const NUM_VERTICES_AT: usize = 13;
/// After `num_vertices` (8), `pool_size` (8) and the trace flag (1).
const DIR_LEN_AT: usize = 30;

fn restamp(payload: &mut [u8]) {
    let body = payload.len() - 8;
    let sum = fnv1a64(&payload[..body]);
    payload[body..].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn a_forged_vertex_count_is_refused_without_a_large_allocation() {
    let pool = Pool::raw(2, 3, vec![vec![0, 2], vec![1]], None);
    let payload = pool.encode_pcmp_payload(PoolLayout::Compressed);
    assert!(decode_pcmp_payload(&payload).is_ok());

    // Claim 2^28 vertices and a matching directory length, then re-stamp
    // the checksum so the header is all the decoder has to go on.
    let forged_vertices: u64 = 1 << 28;
    let mut forged = payload.clone();
    forged[NUM_VERTICES_AT..NUM_VERTICES_AT + 8].copy_from_slice(&forged_vertices.to_le_bytes());
    forged[DIR_LEN_AT..DIR_LEN_AT + 8].copy_from_slice(&(forged_vertices + 1).to_le_bytes());
    restamp(&mut forged);

    MEASURING.with(|m| m.set(true));
    let decoded = decode_pcmp_payload(&forged);
    MEASURING.with(|m| m.set(false));

    assert!(
        matches!(decoded, Err(PoolCodecError::Truncated { .. })),
        "a forged directory length must fail as truncation, got {:?}",
        decoded.map(|(_, hint)| hint)
    );
    let largest = LARGEST.load(Ordering::Relaxed);
    let bound = 16 * forged.len();
    assert!(
        largest <= bound,
        "decoding a {}-byte payload allocated {largest} bytes at once (bound {bound})",
        forged.len()
    );
}
