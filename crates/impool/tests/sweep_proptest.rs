//! The ordered pass (`Pool::sweep_*`) against the point scans it replaces.
//!
//! A sweep must hand out exactly the `(list, id)` sequence that visiting
//! lists `0..count` one by one yields — every list, empty ones included,
//! ids increasing — whatever the layout, wherever the data region lives,
//! and with a mutation overlay shadowing encoded (resident, hot or cold)
//! lists. The cold sweep is driven with a tiny read window so that on these
//! small pools lists straddle a window boundary, fill a window exactly and
//! exceed it; the payload file is written without its checksum trailer, so
//! the last data region ends exactly at end-of-file and a read one byte past
//! it would fail.

use impool::{decode_pcmp_payload, Pool, PoolLayout, TieredConfig};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A payload file removed when the case ends, pass or fail.
struct PayloadFile(std::path::PathBuf);

impl Drop for PayloadFile {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// Sort and deduplicate raw draws into a member list.
fn members_of(mut draws: Vec<u32>) -> Vec<u32> {
    draws.sort_unstable();
    draws.dedup();
    draws
}

/// The raw reference pool of `sets` over `n` vertices.
fn raw_pool(n: usize, sets: &[Vec<u32>], with_traces: bool) -> Pool {
    let mut postings: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (set, members) in sets.iter().enumerate() {
        for &v in members {
            postings[v as usize].push(set as u32);
        }
    }
    Pool::raw(n, sets.len(), postings, with_traces.then(|| sets.to_vec()))
}

/// `reference` round-tripped through a payload file and demoted onto it.
fn file_backed(reference: &Pool, hot_list_bytes: usize) -> (Pool, PayloadFile) {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let payload = reference.encode_pcmp_payload(PoolLayout::Tiered);
    let path = std::env::temp_dir().join(format!(
        "impool-sweep-{}-{}.pcmp",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    // Everything but the checksum trailer: the last data region ends at EOF.
    std::fs::write(&path, &payload[..payload.len() - 8]).expect("write payload file");
    let guard = PayloadFile(path);
    let (packed, _) = decode_pcmp_payload(&payload).expect("own payload decodes");
    let mut pool = Pool::Tiered(packed);
    let file = Arc::new(std::fs::File::open(&guard.0).expect("open payload file"));
    pool.attach_cold_file(file, 0, TieredConfig { hot_list_bytes });
    (pool, guard)
}

/// `(list, id)` pairs plus the list indices visited, via per-list scans.
fn by_point_scans(pool: &Pool) -> (Vec<(u32, u32)>, Vec<u32>) {
    let mut pairs = Vec::new();
    let lists: Vec<u32> = (0..pool.num_vertices() as u32).collect();
    for &v in &lists {
        pool.for_each_posting_inline(v, |id| pairs.push((v, id)));
    }
    (pairs, lists)
}

/// The same, via one sweep with the given cold window.
fn by_sweep(pool: &Pool, window: usize) -> (Vec<(u32, u32)>, Vec<u32>) {
    let mut pairs = Vec::new();
    let mut lists = Vec::new();
    pool.sweep_postings_windowed(window, |v, ids| {
        lists.push(v);
        let before = pairs.len();
        ids.for_each(|id| pairs.push((v, id)));
        assert_eq!(pairs.len() - before, ids.len(), "len() agrees with the ids");
    });
    (pairs, lists)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sweep_yields_the_point_scan_sequence(
        n in 1usize..9,
        draws in proptest::collection::vec(proptest::collection::vec(0u32..9, 0..9), 1..90),
        edits in proptest::collection::vec((0usize..90, proptest::collection::vec(0u32..9, 0..9)), 0..6),
        with_traces in 0u8..2,
        hot in 0usize..3,
        window in 1usize..48,
    ) {
        let with_traces = with_traces == 1;
        let hot_list_bytes = [1usize, 64, 4096][hot];
        let clip = |draws: Vec<u32>| members_of(draws.into_iter().filter(|&v| (v as usize) < n).collect());
        let sets: Vec<Vec<u32>> = draws.into_iter().map(clip).collect();
        let mut raw = raw_pool(n, &sets, with_traces);
        let mut resident = raw.convert(PoolLayout::Compressed);
        let (mut cold, _file) = file_backed(&raw, hot_list_bytes);

        // Epoch 0 is the pristine encoding; each later epoch adds one
        // `replace_set` to the overlay of both packed pools.
        let edits = if with_traces { edits } else { Vec::new() };
        for epoch in 0..=edits.len() {
            if epoch > 0 {
                let (set, new) = &edits[epoch - 1];
                let set = (*set % sets.len()) as u32;
                let new = clip(new.clone());
                let old = raw.trace(set);
                for pool in [&mut raw, &mut resident, &mut cold] {
                    pool.replace_set(set, &old, &new);
                }
            }
            let want = by_point_scans(&raw);
            prop_assert_eq!(want.1.len(), n, "every list is visited, empty ones too");
            for pool in [&raw, &resident, &cold] {
                let layout = pool.layout();
                prop_assert_eq!(by_point_scans(pool), want.clone(), "{layout} point scans, epoch {epoch}");
                prop_assert_eq!(by_sweep(pool, window), want.clone(), "{layout} window {window}, epoch {epoch}");
                // The production window: the whole region in one read.
                let mut swept = Vec::new();
                pool.sweep_postings(|v, ids| ids.for_each(|id| swept.push((v, id))));
                prop_assert_eq!(swept, want.0.clone(), "{layout} default window, epoch {epoch}");
                if with_traces {
                    let mut traces = Vec::new();
                    pool.sweep_traces(|set, members| traces.push((set, members.to_vec())));
                    let point: Vec<(u32, Vec<u32>)> =
                        (0..sets.len() as u32).map(|s| (s, raw.trace(s))).collect();
                    prop_assert_eq!(traces, point, "{layout} traces, epoch {epoch}");
                }
                // The passes built on the sweep: export and re-encode.
                prop_assert_eq!(pool.to_raw_lists(), raw.to_raw_lists(), "{layout} export, epoch {epoch}");
                prop_assert_eq!(
                    pool.encode_pcmp_payload(PoolLayout::Compressed),
                    raw.encode_pcmp_payload(PoolLayout::Compressed),
                    "{layout} re-encode, epoch {epoch}"
                );
            }
        }
        if !with_traces {
            // Trace inversion is a pass too.
            for pool in [&mut raw, &mut resident, &mut cold] {
                pool.build_traces();
            }
            prop_assert_eq!(resident.to_raw_lists(), raw.to_raw_lists());
            prop_assert_eq!(cold.to_raw_lists(), raw.to_raw_lists());
        }
    }
}

/// A cold sweep costs reads in proportion to the bytes it covers, not to the
/// number of lists: with a window of `w` bytes over a region of `b` bytes of
/// short lists it issues about `b / w` reads, each inside the region, and
/// moves every region byte exactly once.
#[test]
fn cold_sweep_reads_scale_with_bytes_not_lists() {
    let n = 5_000usize;
    let sets: Vec<Vec<u32>> = (0..64u32)
        .map(|s| (0..n as u32).filter(|v| (v + s) % 97 == 0).collect())
        .collect();
    let raw = raw_pool(n, &sets, false);
    let (cold, _file) = file_backed(&raw, 4096);
    let region_bytes: u64 = (0..n as u32)
        .map(|v| {
            let mut buf = Vec::new();
            impool::encode_list(&raw.postings(v), &mut buf);
            buf.len() as u64
        })
        .sum();
    for window in [64usize, 1024, 1 << 20] {
        let before = cold.cold_reads();
        let got = by_sweep(&cold, window);
        let after = cold.cold_reads();
        assert_eq!(got, by_point_scans(&raw), "window {window}");
        assert_eq!(
            after.1 - before.1,
            region_bytes,
            "window {window}: each byte once"
        );
        // List-aligned windows waste less than one (short) list each.
        let reads = after.0 - before.0;
        let longest = 8u64;
        assert!(
            reads <= region_bytes.div_ceil(window as u64 - longest) + 1,
            "window {window}: {reads} reads for {region_bytes} bytes"
        );
    }
    // The point path, for contrast: one read per list.
    let before = cold.cold_reads().0;
    let _ = by_point_scans(&cold);
    assert_eq!(cold.cold_reads().0 - before, n as u64);
}
