//! `impool` — storage engine for RR-set pools.
//!
//! RIS-style influence indexes trade traversal cost for storage: at
//! production graph sizes the RR-set pool — not the graph — is the memory
//! wall. This crate factors the pool's physical layout out of the influence
//! oracle behind one [`Pool`] enum with three layouts:
//!
//! * [`RawPool`] — the reference layout: one `Vec<u32>` posting list per
//!   vertex (set ids containing it) and, for incrementally maintainable
//!   pools, one sorted member trace per RR set. Fastest scans, largest
//!   footprint.
//! * compressed ([`PackedPool`]) — delta-varint encoding of both
//!   directions, segmented into fixed-size blocks of [`BLOCK_IDS`] ids with
//!   per-block skip headers ([`SkipEntry`]), so coverage scans run directly
//!   over the compressed form without materializing a single list.
//! * tiered (a [`PackedPool`] with cold storage attached) — the compressed
//!   layout with its data regions demoted to a *cold* backing file (the
//!   `PCMP` section of an index artifact): only the list directory, the
//!   skip headers, the hot lists and the mutation overlay stay resident, so
//!   a served index can exceed RAM.
//!
//! A pool is made once, raw ([`Pool::raw`] trims its lists to exact
//! capacity in place), and changes layout only by [`Pool::convert`].
//!
//! Callers reach a pool in one of two shapes and the code picks the path by
//! which one they use: **random access** to single lists
//! ([`Pool::with_posting`], [`Pool::for_each_posting_inline`],
//! [`Pool::postings`], [`Pool::trace`], [`Pool::replace_set`] — on a tiered
//! pool one `pread` per cold list), or an **ordered pass** over every list
//! ([`Pool::sweep_postings`], [`Pool::sweep_traces`] — on a tiered pool a
//! handful of sequential reads per pass, however many lists there are).
//!
//! Every backend answers every query with **identical results in identical
//! order** — the oracle layered on top stays byte-identical across layouts,
//! which is what the cross-layout equivalence suite pins.
//!
//! Mutation (`replace_set`, the incremental-maintenance primitive) is
//! implemented on the compressed backends as a resident *overlay*: a dirtied
//! list is materialized once, shadowing its encoded form, and reads merge the
//! overlay transparently. On a compressed pool the overlay lives for one
//! batch: [`Pool::fold_overlay`], called when the batch's edits are done,
//! re-encodes the dirtied lists into a fresh resident data region, so between
//! batches the pool is canonical — no overlay, no hash probe on any scan, and
//! resident bytes equal to a fresh encode. A tiered pool keeps its overlay
//! over the cold region, growing with every batch, until it is re-encoded to
//! a `PCMP` payload ([`Pool::encode_pcmp_payload`]).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod codec;
mod packed;
mod pcmp;
mod raw;

pub use codec::{
    decode_list, encode_list, list_len, read_varint, scan_list, write_varint, PoolCodecError,
    SkipEntry, BLOCK_IDS,
};
pub use packed::{ListRef, PackedPool, TieredConfig, DEFAULT_HOT_LIST_BYTES};
pub use pcmp::{decode_pcmp_payload, fnv1a64, PCMP_CODEC_VERSION};
pub use raw::RawPool;

use std::fs::File;
use std::sync::Arc;

/// The physical layout of a pool store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolLayout {
    /// Uncompressed in-RAM `Vec<Vec<u32>>` lists (the reference layout).
    Raw,
    /// Delta-varint blocked lists, fully resident.
    Compressed,
    /// Delta-varint blocked lists with cold data in a backing file.
    Tiered,
}

impl PoolLayout {
    /// The stable CLI/wire label (`raw`, `compressed`, `tiered`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PoolLayout::Raw => "raw",
            PoolLayout::Compressed => "compressed",
            PoolLayout::Tiered => "tiered",
        }
    }

    /// Parse a CLI label. Returns `None` for unknown labels.
    #[must_use]
    pub fn parse(label: &str) -> Option<Self> {
        match label {
            "raw" => Some(PoolLayout::Raw),
            "compressed" => Some(PoolLayout::Compressed),
            "tiered" => Some(PoolLayout::Tiered),
            _ => None,
        }
    }
}

impl std::fmt::Display for PoolLayout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Merge-walk two strictly increasing member lists and report every vertex
/// in exactly one of them: `f(v, true)` for a member only `new` has,
/// `f(v, false)` for one only `old` has. The shared core of every backend's
/// `replace_set`.
pub(crate) fn for_each_membership_change(old: &[u32], new: &[u32], mut f: impl FnMut(u32, bool)) {
    let (mut i, mut j) = (0, 0);
    while i < old.len() && j < new.len() {
        match old[i].cmp(&new[j]) {
            std::cmp::Ordering::Less => {
                f(old[i], false);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                f(new[j], true);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    old[i..].iter().for_each(|&v| f(v, false));
    new[j..].iter().for_each(|&v| f(v, true));
}

/// Make `id`'s presence in the sorted list `list` equal `present` (no-op if
/// it already does).
pub(crate) fn set_membership(list: &mut Vec<u32>, id: u32, present: bool) {
    match (list.binary_search(&id), present) {
        (Ok(at), false) => {
            list.remove(at);
        }
        (Err(at), true) => list.insert(at, id),
        _ => {}
    }
}

/// A pool store of any layout (the concrete type the oracle embeds).
///
/// Two invariants make cross-layout byte-identity possible and are relied on
/// by every caller:
///
/// 1. every visitor yields ids in **strictly increasing order** — the
///    canonical order the raw builders produce;
/// 2. [`Pool::replace_set`] leaves the store exactly as if the pool had been
///    built with the new member list from the start (postings and traces
///    stay inverse to each other).
///
/// Hot query loops monomorphize per layout via the inlined `*_inline`
/// visitors instead of paying a virtual call per posting id.
#[derive(Debug, Clone)]
pub enum Pool {
    /// Uncompressed reference layout.
    Raw(RawPool),
    /// Fully resident compressed layout.
    Compressed(PackedPool),
    /// Compressed layout with cold data in a backing file.
    Tiered(PackedPool),
}

impl Pool {
    /// Build a raw pool from posting lists (and optional traces).
    #[must_use]
    pub fn raw(
        num_vertices: usize,
        pool_size: usize,
        postings: Vec<Vec<u32>>,
        traces: Option<Vec<Vec<u32>>>,
    ) -> Self {
        Pool::Raw(RawPool::new(num_vertices, pool_size, postings, traces))
    }

    /// This pool's physical layout.
    #[must_use]
    pub fn layout(&self) -> PoolLayout {
        match self {
            Pool::Raw(_) => PoolLayout::Raw,
            Pool::Compressed(_) => PoolLayout::Compressed,
            Pool::Tiered(_) => PoolLayout::Tiered,
        }
    }

    /// Number of vertices (posting lists).
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        match self {
            Pool::Raw(p) => p.num_vertices,
            Pool::Compressed(p) | Pool::Tiered(p) => p.num_vertices,
        }
    }

    /// Number of RR sets in the pool.
    #[must_use]
    pub fn pool_size(&self) -> usize {
        match self {
            Pool::Raw(p) => p.pool_size,
            Pool::Compressed(p) | Pool::Tiered(p) => p.pool_size,
        }
    }

    /// Length of vertex `v`'s posting list.
    #[must_use]
    pub fn posting_len(&self, v: u32) -> usize {
        match self {
            Pool::Raw(p) => p.posting_slice(v).len(),
            Pool::Compressed(p) | Pool::Tiered(p) => p.posting_len(v),
        }
    }

    /// Visit vertex `v`'s posting list in increasing order, monomorphized
    /// per layout (the coverage-scan hot path).
    #[inline]
    pub fn for_each_posting_inline(&self, v: u32, mut f: impl FnMut(u32)) {
        match self {
            // The raw loop is written out, not routed through `with_posting`:
            // through the closure, the estimate path (`covered_with`)
            // compiles to different code.
            Pool::Raw(p) => {
                for &id in p.posting_slice(v) {
                    f(id);
                }
            }
            Pool::Compressed(p) | Pool::Tiered(p) => p.with_posting(v, |list| list.for_each(f)),
        }
    }

    /// Hand vertex `v`'s posting list to `f` as a [`ListRef`] — the point
    /// read for callers that want the list itself (its length without a
    /// decode, or a visitor shared with [`Pool::sweep_postings`]).
    #[inline]
    pub fn with_posting<R>(&self, v: u32, f: impl FnOnce(ListRef<'_>) -> R) -> R {
        match self {
            Pool::Raw(p) => f(ListRef::Plain(p.posting_slice(v))),
            Pool::Compressed(p) | Pool::Tiered(p) => p.with_posting(v, f),
        }
    }

    /// Hand RR set `set`'s sorted member trace to `f` as a [`ListRef`] (the
    /// trace-side twin of [`Pool::with_posting`]).
    ///
    /// # Panics
    ///
    /// Panics if the pool carries no traces.
    #[inline]
    pub fn with_trace<R>(&self, set: u32, f: impl FnOnce(ListRef<'_>) -> R) -> R {
        match self {
            Pool::Raw(p) => f(ListRef::Plain(p.trace_slice(set))),
            Pool::Compressed(p) | Pool::Tiered(p) => p
                .traces
                .as_ref()
                .expect("compressed pool has no traces")
                .with_list(set, f),
        }
    }

    /// Visit every posting list, vertices `0..num_vertices` in order, ids
    /// increasing — the sequence `for_each_posting_inline(0)`, `(1)`, …
    /// yields, dispatched on layout once per pass instead of once per list.
    /// On a tiered pool the cold region streams through one buffer in a few
    /// sequential reads, so whole-pool passes (coverage gains, greedy rounds,
    /// export) belong here and random access belongs on the per-list
    /// visitors.
    #[inline]
    pub fn sweep_postings(&self, mut f: impl FnMut(u32, ListRef<'_>)) {
        match self {
            Pool::Raw(p) => {
                for (v, list) in p.postings.iter().enumerate() {
                    f(v as u32, ListRef::Plain(list));
                }
            }
            Pool::Compressed(p) | Pool::Tiered(p) => p.postings.sweep(f),
        }
    }

    /// Visit every RR set's sorted member trace, sets `0..pool_size` in
    /// order (the trace-side twin of [`Pool::sweep_postings`]).
    ///
    /// # Panics
    ///
    /// Panics if the pool carries no traces.
    pub fn sweep_traces(&self, mut f: impl FnMut(u32, ListRef<'_>)) {
        match self {
            Pool::Raw(p) => {
                let traces = p.traces().expect("raw pool has no traces");
                for (set, trace) in traces.iter().enumerate() {
                    f(set as u32, ListRef::Plain(trace));
                }
            }
            Pool::Compressed(p) | Pool::Tiered(p) => p
                .traces
                .as_ref()
                .expect("compressed pool has no traces")
                .sweep(f),
        }
    }

    /// [`Pool::sweep_postings`] with the cold read window set by the caller.
    /// Test hook: lets a small pool have lists that straddle, fill and
    /// exceed a window. The window used everywhere else is a private
    /// constant.
    #[doc(hidden)]
    pub fn sweep_postings_windowed(&self, window: usize, f: impl FnMut(u32, ListRef<'_>)) {
        match self {
            Pool::Raw(_) => self.sweep_postings(f),
            Pool::Compressed(p) | Pool::Tiered(p) => p.postings.sweep_windowed(window, f),
        }
    }

    /// Lifetime `(reads, bytes)` this pool's cold backing file has served —
    /// every point read and every sweep window, both directions, shared by
    /// clones. `(0, 0)` for a pool with no cold region.
    #[must_use]
    pub fn cold_reads(&self) -> (u64, u64) {
        match self {
            Pool::Tiered(p) => p.cold_reads(),
            Pool::Raw(_) | Pool::Compressed(_) => (0, 0),
        }
    }

    /// Whether the pool carries per-set member traces.
    #[must_use]
    pub fn has_traces(&self) -> bool {
        match self {
            Pool::Raw(p) => p.traces().is_some(),
            Pool::Compressed(p) | Pool::Tiered(p) => p.traces.is_some(),
        }
    }

    /// Materialize the sorted member trace of one RR set.
    ///
    /// # Panics
    ///
    /// Panics if the pool carries no traces.
    #[must_use]
    pub fn trace(&self, set: u32) -> Vec<u32> {
        self.with_trace(set, |list| list.to_vec())
    }

    /// Materialize vertex `v`'s posting list.
    #[must_use]
    pub fn postings(&self, v: u32) -> Vec<u32> {
        self.with_posting(v, |list| list.to_vec())
    }

    /// Replace RR set `set`'s members: unindex `old_members`, index
    /// `new_members` (both sorted, strictly increasing), and store the new
    /// trace. The incremental-maintenance primitive. `old_members` must be
    /// the set's current trace: only the posting lists of the symmetric
    /// difference are edited, so a resampled set that kept most of its
    /// members costs what changed, not what it holds.
    ///
    /// # Panics
    ///
    /// Panics if the pool carries no traces.
    pub fn replace_set(&mut self, set: u32, old_members: &[u32], new_members: &[u32]) {
        match self {
            Pool::Raw(p) => p.replace_set(set, old_members, new_members),
            Pool::Compressed(p) | Pool::Tiered(p) => p.replace_set(set, old_members, new_members),
        }
    }

    /// End a mutation batch: fold a compressed pool's overlay back into a
    /// fresh resident data region, so between batches the pool holds exactly
    /// the bytes [`PackedPool::from_lists`] would encode from the same lists
    /// and no scan probes an overlay. Only the dirtied lists are re-encoded;
    /// untouched runs are copied whole. Clones taken before the fold keep
    /// their old bytes. A no-op on raw pools (edited in place) and on tiered
    /// pools, whose overlay shadows a cold region until the pool is
    /// re-encoded ([`Pool::encode_pcmp_payload`]).
    pub fn fold_overlay(&mut self) {
        if let Pool::Compressed(p) = self {
            p.fold_overlay();
        }
    }

    /// Build the trace side by inverting the posting lists (used when a pool
    /// persisted without traces is re-attached for incremental maintenance).
    pub fn build_traces(&mut self) {
        match self {
            Pool::Raw(p) => p.build_traces(),
            Pool::Compressed(p) | Pool::Tiered(p) => p.build_traces(),
        }
    }

    /// Bytes of process memory this pool keeps resident (directories, skip
    /// headers, hot lists and overlays; a tiered pool's cold file bytes are
    /// excluded — that is the point of tiering).
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        match self {
            Pool::Raw(p) => p.resident_bytes(),
            Pool::Compressed(p) | Pool::Tiered(p) => p.resident_bytes(),
        }
    }

    /// Export the pool as raw posting lists plus optional traces (the
    /// lists a conversion to the raw layout keeps).
    #[must_use]
    pub fn to_raw_lists(&self) -> (Vec<Vec<u32>>, Option<Vec<Vec<u32>>>) {
        let mut postings = Vec::with_capacity(self.num_vertices());
        self.sweep_postings(|_, ids| postings.push(ids.to_vec()));
        let traces = self.has_traces().then(|| {
            let mut traces = Vec::with_capacity(self.pool_size());
            self.sweep_traces(|_, members| traces.push(members.to_vec()));
            traces
        });
        (postings, traces)
    }

    /// Convert this pool to another layout, preserving every list exactly.
    ///
    /// A raw pool is encoded straight from its tables, and a compressed pool
    /// shares its encoded regions with the tiered pool it becomes. Every
    /// other conversion decodes the lists in one sweep per direction, so a
    /// tiered pool becoming compressed is re-encoded fully resident, with no
    /// cold region or overlay carried over.
    ///
    /// Converting *to* [`PoolLayout::Tiered`] yields a tiered pool whose
    /// cold region is still resident (there is no backing file yet); demote
    /// it with [`Pool::attach_cold_file`] after the artifact containing its
    /// `PCMP` section has been written.
    #[must_use]
    pub fn convert(&self, layout: PoolLayout) -> Self {
        let packed = match (self, layout) {
            _ if layout == self.layout() => return self.clone(),
            (Pool::Raw(p), _) => p.encode(),
            (Pool::Compressed(p), PoolLayout::Tiered) => p.clone(),
            _ => {
                let (postings, traces) = self.to_raw_lists();
                let raw = RawPool::new(self.num_vertices(), self.pool_size(), postings, traces);
                if layout == PoolLayout::Raw {
                    return Pool::Raw(raw);
                }
                raw.encode()
            }
        };
        match layout {
            PoolLayout::Tiered => Pool::Tiered(packed),
            _ => Pool::Compressed(packed),
        }
    }

    /// [`Pool::convert`] in place (a no-op at the same layout).
    pub fn set_layout(&mut self, layout: PoolLayout) {
        if layout != self.layout() {
            *self = self.convert(layout);
        }
    }

    /// Encode this pool as a `PCMP` section payload (self-checksummed; see
    /// [`decode_pcmp_payload`]) stamped with `hint`. Any layout encodes — the
    /// payload is the canonical compressed form, the one on-disk pool format.
    #[must_use]
    pub fn encode_pcmp_payload(&self, hint: PoolLayout) -> Vec<u8> {
        match self {
            Pool::Compressed(p) | Pool::Tiered(p) => pcmp::encode(p, hint),
            Pool::Raw(_) => self
                .convert(PoolLayout::Compressed)
                .encode_pcmp_payload(hint),
        }
    }

    /// Demote a tiered pool's data regions to a cold backing file.
    ///
    /// `payload_offset` is the absolute byte offset, within `file`, of the
    /// `PCMP` payload this pool was decoded from ([`decode_pcmp_payload`]);
    /// the bytes there must be identical to the decoded payload. Lists whose
    /// encoded form is at least `config.hot_list_bytes` bytes stay resident
    /// (the heavy hitters every coverage scan touches); everything else is
    /// re-read from the file on demand. No-op for raw/compressed pools.
    pub fn attach_cold_file(&mut self, file: Arc<File>, payload_offset: u64, config: TieredConfig) {
        if let Pool::Tiered(p) = self {
            p.attach_cold(file, payload_offset, config);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_lists() -> (Vec<Vec<u32>>, Vec<Vec<u32>>) {
        // 4 vertices, 6 sets. Postings strictly increasing per vertex.
        let postings = vec![vec![0, 2, 5], vec![1, 2], vec![], vec![0, 1, 2, 3, 4, 5]];
        // Inverse: set -> member vertices.
        let traces = vec![
            vec![0, 3],
            vec![1, 3],
            vec![0, 1, 3],
            vec![3],
            vec![3],
            vec![0, 3],
        ];
        (postings, traces)
    }

    #[test]
    fn layout_labels_round_trip() {
        for layout in [PoolLayout::Raw, PoolLayout::Compressed, PoolLayout::Tiered] {
            assert_eq!(PoolLayout::parse(layout.label()), Some(layout));
        }
        assert_eq!(PoolLayout::parse("zstd"), None);
    }

    #[test]
    fn conversions_preserve_every_list() {
        let (postings, traces) = sample_lists();
        let raw = Pool::raw(4, 6, postings.clone(), Some(traces.clone()));
        for layout in [PoolLayout::Compressed, PoolLayout::Tiered, PoolLayout::Raw] {
            let converted = raw.convert(layout);
            assert_eq!(converted.layout(), layout);
            assert_eq!(converted.num_vertices(), 4);
            assert_eq!(converted.pool_size(), 6);
            for v in 0..4u32 {
                assert_eq!(converted.postings(v), postings[v as usize], "vertex {v}");
                assert_eq!(converted.posting_len(v), postings[v as usize].len());
            }
            for s in 0..6u32 {
                assert_eq!(converted.trace(s), traces[s as usize], "set {s}");
            }
            let (p2, t2) = converted.to_raw_lists();
            assert_eq!(p2, postings);
            assert_eq!(t2.as_ref(), Some(&traces));
        }
    }

    #[test]
    fn replace_set_is_layout_independent() {
        let (postings, traces) = sample_lists();
        let mut pools: Vec<Pool> = [PoolLayout::Raw, PoolLayout::Compressed, PoolLayout::Tiered]
            .into_iter()
            .map(|l| Pool::raw(4, 6, postings.clone(), Some(traces.clone())).convert(l))
            .collect();
        // Move set 2 from {0, 1, 3} to {1, 2}.
        for pool in &mut pools {
            pool.replace_set(2, &[0, 1, 3], &[1, 2]);
        }
        let reference = pools[0].to_raw_lists();
        for pool in &pools[1..] {
            assert_eq!(pool.to_raw_lists(), reference);
        }
        assert_eq!(pools[0].postings(0), vec![0, 5]);
        assert_eq!(pools[0].postings(2), vec![2]);
        assert_eq!(pools[0].trace(2), vec![1, 2]);
    }

    #[test]
    fn built_traces_are_as_resident_as_given_ones() {
        let (postings, traces) = sample_lists();
        let mut built = Pool::raw(4, 6, postings.clone(), None);
        built.build_traces();
        let given = Pool::raw(4, 6, postings, Some(traces));
        assert_eq!(built.resident_bytes(), given.resident_bytes());
    }

    #[test]
    fn build_traces_inverts_postings() {
        let (postings, traces) = sample_lists();
        for layout in [PoolLayout::Raw, PoolLayout::Compressed] {
            let mut pool = Pool::raw(4, 6, postings.clone(), None).convert(layout);
            assert!(!pool.has_traces());
            pool.build_traces();
            assert!(pool.has_traces());
            for s in 0..6u32 {
                assert_eq!(pool.trace(s), traces[s as usize]);
            }
        }
    }

    #[test]
    fn compressed_is_smaller_than_raw_on_dense_lists() {
        // 64 vertices, every vertex contains most sets: dense, regular gaps.
        let pool_size = 512u32;
        let postings: Vec<Vec<u32>> = (0..64)
            .map(|v| (0..pool_size).filter(|id| (id + v) % 2 == 0).collect())
            .collect();
        let raw = Pool::raw(64, pool_size as usize, postings, None);
        let compressed = raw.convert(PoolLayout::Compressed);
        assert!(
            compressed.resident_bytes() * 2 < raw.resident_bytes(),
            "compressed {} vs raw {}",
            compressed.resident_bytes(),
            raw.resident_bytes()
        );
    }
}
