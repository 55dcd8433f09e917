//! Compressed segment storage shared by the compressed and tiered backends.
//!
//! A [`SegmentStore`] holds one direction of the pool index (posting lists
//! *or* traces) as a single delta-varint data region plus:
//!
//! * a **directory** — `count + 1` byte offsets delimiting each encoded list,
//! * **skip headers** — per-block [`SkipEntry`]s for lists spanning more than
//!   one block (single-block lists need none: the directory entry is the
//!   skip),
//! * a **mutation overlay** — dirtied lists materialized as plain `Vec<u32>`,
//!   shadowing their encoded form. On a resident region it lives for one
//!   mutation batch: [`SegmentStore::fold`] re-encodes it into a fresh data
//!   region when the batch ends. A cold region keeps it until the pool is
//!   re-encoded to a `PCMP` payload.
//!
//! The data region is either fully resident ([`Region::Resident`]) or cold
//! in a backing file ([`Region::Cold`]) with only lists at or above the hot
//! threshold pinned in memory. Directory, skip headers and overlay are
//! always resident, and they give a cold region two access shapes, chosen by
//! what the caller does:
//!
//! * a **point read** ([`SegmentStore::with_list`], `len_of`, `list`,
//!   `edit` — estimates, `trace`, `replace_set`) is one `pread` of exactly
//!   that list's bytes, not a search: the directory says where they are;
//! * a **pass** over every list in index order ([`SegmentStore::sweep`] —
//!   coverage gains and greedy rounds (posting lengths, plus the traces of
//!   covered sets), trace inversion, export, re-encode) walks the directory
//!   and streams the data region through one reused buffer in list-aligned
//!   windows of [`SWEEP_WINDOW_BYTES`], so it costs a handful of sequential
//!   reads — it pays for the bytes it reads, not for the number of lists it
//!   visits. A gain pass decodes no posting list: it reads each list's
//!   length and decodes only the traces of the sets already covered.
//!
//! Both shapes are overlay-aware and yield the same ids in the same order.

use crate::codec::{encode_list, list_len, scan_list, SkipEntry};
use crate::{for_each_membership_change, set_membership};
use rustc_hash::FxHashMap;
use std::fs::File;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default hot-list threshold: encoded lists of at least this many bytes
/// stay resident when a pool is demoted to a cold file. Under power-law
/// degree distributions the few long lists dominate both scan cost and
/// access frequency, so pinning them buys the most latency per byte.
pub const DEFAULT_HOT_LIST_BYTES: usize = 4096;

/// Tiering policy knobs for [`crate::Pool::attach_cold_file`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TieredConfig {
    /// Encoded lists of at least this many bytes stay resident.
    pub hot_list_bytes: usize,
}

impl Default for TieredConfig {
    fn default() -> Self {
        TieredConfig {
            hot_list_bytes: DEFAULT_HOT_LIST_BYTES,
        }
    }
}

/// Bytes a cold sweep reads per window. Large enough that a pass over a
/// region is a handful of sequential reads, small enough that the transient
/// buffer does not show against the resident directory.
const SWEEP_WINDOW_BYTES: usize = 256 * 1024;

/// Cold point reads of at most this many bytes land in a stack buffer (the
/// median posting list under a power-law degree distribution is a few
/// bytes); longer lists take a heap buffer.
const INLINE_READ_BYTES: usize = 64;

/// Read `buf.len()` bytes at `offset` without moving a shared cursor.
#[cfg(unix)]
fn pread_exact(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

/// Portable fallback: serialize seek+read on the shared handle.
#[cfg(not(unix))]
fn pread_exact(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut f = file;
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(buf)
}

/// The backing file of a cold region plus its read counters. One instance is
/// shared by both directions of a pool and by every clone, so the counters
/// are the file's, not a snapshot's.
#[derive(Debug)]
pub(crate) struct ColdFile {
    file: Arc<File>,
    reads: AtomicU64,
    bytes: AtomicU64,
}

impl ColdFile {
    pub(crate) fn new(file: Arc<File>) -> Arc<Self> {
        Arc::new(ColdFile {
            file,
            reads: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        })
    }

    /// The one place cold bytes enter the process.
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) {
        pread_exact(&self.file, buf, offset)
            .expect("cold pool segment read failed: backing index file unreadable");
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
    }

    /// Lifetime `(reads, bytes)` served from this file.
    fn counts(&self) -> (u64, u64) {
        (
            self.reads.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        )
    }
}

/// One list as a pass hands it to its visitor: materialized ids (raw pools
/// and overlaid lists) or the delta-varint encoding, decoded on the fly.
#[derive(Debug, Clone, Copy)]
pub enum ListRef<'a> {
    /// Plain ids, strictly increasing.
    Plain(&'a [u32]),
    /// One validated [`crate::encode_list`] encoding.
    Encoded(&'a [u8]),
}

impl ListRef<'_> {
    /// Visit the ids in increasing order.
    #[inline]
    pub fn for_each(self, mut f: impl FnMut(u32)) {
        match self {
            ListRef::Plain(ids) => {
                for &id in ids {
                    f(id);
                }
            }
            ListRef::Encoded(bytes) => {
                let mut pos = 0;
                scan_list(bytes, &mut pos, f).expect("validated pool bytes failed to decode");
            }
        }
    }

    /// Number of ids, without decoding them.
    #[inline]
    #[must_use]
    pub fn len(self) -> usize {
        match self {
            ListRef::Plain(ids) => ids.len(),
            ListRef::Encoded(bytes) => {
                list_len(bytes).expect("validated pool bytes failed to decode")
            }
        }
    }

    /// Whether the list holds no ids.
    #[inline]
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Materialize the ids.
    #[must_use]
    pub fn to_vec(self) -> Vec<u32> {
        match self {
            ListRef::Plain(ids) => ids.to_vec(),
            ListRef::Encoded(_) => {
                let mut out = Vec::with_capacity(self.len());
                self.for_each(|id| out.push(id));
                out
            }
        }
    }
}

/// Where a store's encoded data region lives.
#[derive(Debug, Clone)]
pub(crate) enum Region {
    /// The whole data region is in memory.
    Resident(Arc<Vec<u8>>),
    /// The data region lives in a backing file at absolute offset `base`;
    /// only the `hot` lists are pinned resident.
    Cold {
        file: Arc<ColdFile>,
        base: u64,
        hot: Arc<FxHashMap<u32, Box<[u8]>>>,
    },
}

/// One direction of a compressed pool (postings or traces).
#[derive(Debug, Clone)]
pub(crate) struct SegmentStore {
    /// `count + 1` byte offsets into the data region.
    pub(crate) offsets: Arc<Vec<u32>>,
    /// Skip headers for lists spanning more than one block.
    pub(crate) skips: Arc<FxHashMap<u32, Box<[SkipEntry]>>>,
    pub(crate) region: Region,
    /// Dirtied lists, materialized; shadows the encoded form.
    pub(crate) overlay: FxHashMap<u32, Vec<u32>>,
}

impl SegmentStore {
    /// Encode `lists` into a fresh resident store.
    ///
    /// # Panics
    ///
    /// Panics if the encoded data region would exceed `u32::MAX` bytes (the
    /// directory is `u32`-addressed).
    pub(crate) fn from_lists(lists: &[Vec<u32>]) -> Self {
        let mut data = Vec::new();
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        offsets.push(0u32);
        let mut skips = FxHashMap::default();
        for (i, list) in lists.iter().enumerate() {
            let entries = encode_list(list, &mut data);
            if entries.len() > 1 {
                skips.insert(i as u32, entries.into_boxed_slice());
            }
            let end = u32::try_from(data.len()).expect("pool segment data exceeds 4 GiB");
            offsets.push(end);
        }
        SegmentStore {
            offsets: Arc::new(offsets),
            skips: Arc::new(skips),
            region: Region::Resident(Arc::new(data)),
            overlay: FxHashMap::default(),
        }
    }

    pub(crate) fn count(&self) -> usize {
        self.offsets.len() - 1
    }

    fn range(&self, i: u32) -> (usize, usize) {
        (
            self.offsets[i as usize] as usize,
            self.offsets[i as usize + 1] as usize,
        )
    }

    /// Run `f` over list `i`'s encoded bytes, wherever they live.
    fn with_bytes<R>(&self, i: u32, f: impl FnOnce(&[u8]) -> R) -> R {
        let (a, b) = self.range(i);
        match &self.region {
            Region::Resident(data) => f(&data[a..b]),
            Region::Cold { file, base, hot } => {
                if let Some(bytes) = hot.get(&i) {
                    return f(bytes);
                }
                let mut inline = [0u8; INLINE_READ_BYTES];
                let mut spilled;
                let buf = if b - a <= INLINE_READ_BYTES {
                    &mut inline[..b - a]
                } else {
                    spilled = vec![0u8; b - a];
                    &mut spilled[..]
                };
                file.read_exact_at(buf, base + a as u64);
                f(buf)
            }
        }
    }

    /// Hand list `i` to `f` (overlay-aware). The point read: on a cold
    /// region, one `pread` of this list alone.
    #[inline]
    pub(crate) fn with_list<R>(&self, i: u32, f: impl FnOnce(ListRef<'_>) -> R) -> R {
        match self.overlay.get(&i) {
            Some(list) => f(ListRef::Plain(list)),
            None => self.with_bytes(i, |bytes| f(ListRef::Encoded(bytes))),
        }
    }

    /// Visit every list in index order (overlay-aware) — the same sequence
    /// as `with_list(0)`, `with_list(1)`, … but, on a cold region, streamed
    /// through one buffer in a handful of sequential reads instead of one
    /// `pread` per list. Hot copies are ignored: the window holds their
    /// bytes too.
    #[inline]
    pub(crate) fn sweep(&self, f: impl FnMut(u32, ListRef<'_>)) {
        self.sweep_windowed(SWEEP_WINDOW_BYTES, f);
    }

    /// [`SegmentStore::sweep`] with an explicit window size, for tests that
    /// need lists to straddle, fill and exceed a window.
    ///
    /// Windows are list-aligned: each covers the longest run of whole lists
    /// fitting `window` bytes, and a list longer than the window is read
    /// alone, so the buffer never exceeds `max(window, longest list)` bytes
    /// and no read leaves `offsets[0]..offsets[count]`.
    pub(crate) fn sweep_windowed(&self, window: usize, mut f: impl FnMut(u32, ListRef<'_>)) {
        let offsets = &self.offsets[..];
        let count = self.count();
        let mut visit = |i: usize, bytes: &[u8]| match self.overlay.get(&(i as u32)) {
            Some(list) => f(i as u32, ListRef::Plain(list)),
            None => f(i as u32, ListRef::Encoded(bytes)),
        };
        match &self.region {
            Region::Resident(data) => {
                for i in 0..count {
                    visit(i, &data[offsets[i] as usize..offsets[i + 1] as usize]);
                }
            }
            Region::Cold { file, base, .. } => {
                let mut buf = Vec::new();
                let mut next = 0;
                while next < count {
                    let start = offsets[next] as usize;
                    let fit = offsets[next..].partition_point(|&o| o as usize - start <= window);
                    // `fit` counts boundaries inside the window, `next`'s own
                    // included: `fit - 1` whole lists fit, and at least one
                    // list is taken however long it is.
                    let end = next + (fit - 1).max(1);
                    buf.resize(offsets[end] as usize - start, 0);
                    file.read_exact_at(&mut buf, base + start as u64);
                    for i in next..end {
                        visit(
                            i,
                            &buf[offsets[i] as usize - start..offsets[i + 1] as usize - start],
                        );
                    }
                    next = end;
                }
            }
        }
    }

    /// Length of list `i` without scanning it. For cold non-hot lists this
    /// reads at most 5 bytes (the length varint) from the backing file.
    pub(crate) fn len_of(&self, i: u32) -> usize {
        if let Some(list) = self.overlay.get(&i) {
            return list.len();
        }
        let (a, b) = self.range(i);
        match &self.region {
            Region::Resident(data) => {
                list_len(&data[a..b]).expect("validated pool bytes failed to decode")
            }
            Region::Cold { file, base, hot } => {
                if let Some(bytes) = hot.get(&i) {
                    list_len(bytes).expect("validated pool bytes failed to decode")
                } else {
                    let n = (b - a).min(5);
                    let mut buf = [0u8; 5];
                    file.read_exact_at(&mut buf[..n], base + a as u64);
                    list_len(&buf[..n]).expect("validated pool bytes failed to decode")
                }
            }
        }
    }

    /// Materialize list `i`.
    pub(crate) fn list(&self, i: u32) -> Vec<u32> {
        self.with_list(i, |list| list.to_vec())
    }

    /// Edit list `i` in place via the overlay.
    fn edit(&mut self, i: u32, f: impl FnOnce(&mut Vec<u32>)) {
        let mut list = match self.overlay.remove(&i) {
            Some(list) => list,
            None => self.list(i),
        };
        f(&mut list);
        self.overlay.insert(i, list);
    }

    /// Fold the overlay back into a fresh resident data region: runs of
    /// untouched lists are copied in one piece, each dirtied list is encoded
    /// with its skip headers, and the directory, skip headers and data are
    /// new `Arc`s, so a clone taken earlier keeps reading its old bytes. The
    /// result equals [`SegmentStore::from_lists`] of the same lists. Returns
    /// whether anything was folded: a cold region keeps its overlay (its
    /// encoded bytes live in the backing file), and an empty overlay is
    /// already canonical.
    ///
    /// # Panics
    ///
    /// Panics if the encoded data region would exceed `u32::MAX` bytes.
    pub(crate) fn fold(&mut self) -> bool {
        let Region::Resident(old) = &self.region else {
            return false;
        };
        if self.overlay.is_empty() {
            return false;
        }
        let mut dirty: Vec<u32> = self.overlay.keys().copied().collect();
        dirty.sort_unstable();
        let old_offsets = &self.offsets[..];
        let count = self.count();
        let mut data = Vec::with_capacity(old.len());
        let mut offsets = Vec::with_capacity(count + 1);
        offsets.push(0u32);
        let mut skips = (*self.skips).clone();
        let to_u32 = |end: usize| u32::try_from(end).expect("pool segment data exceeds 4 GiB");
        // Copy the untouched lists `from..to` as one run, shifting their
        // directory entries by where the run lands.
        let copy_run = |data: &mut Vec<u8>, offsets: &mut Vec<u32>, from: usize, to: usize| {
            let (a, b) = (old_offsets[from] as usize, old_offsets[to] as usize);
            let base = data.len();
            data.extend_from_slice(&old[a..b]);
            offsets.extend(
                old_offsets[from + 1..=to]
                    .iter()
                    .map(|&o| to_u32(o as usize - a + base)),
            );
        };
        let mut next = 0usize;
        for i in dirty {
            copy_run(&mut data, &mut offsets, next, i as usize);
            let entries = encode_list(&self.overlay[&i], &mut data);
            if entries.len() > 1 {
                skips.insert(i, entries.into_boxed_slice());
            } else {
                skips.remove(&i);
            }
            offsets.push(to_u32(data.len()));
            next = i as usize + 1;
        }
        copy_run(&mut data, &mut offsets, next, count);
        self.offsets = Arc::new(offsets);
        self.skips = Arc::new(skips);
        self.region = Region::Resident(Arc::new(data));
        self.overlay = FxHashMap::default();
        true
    }

    /// Demote the data region to `file` at absolute offset `base`, pinning
    /// lists of at least `hot_list_bytes` encoded bytes. No-op if already
    /// cold.
    pub(crate) fn attach_cold(&mut self, file: Arc<ColdFile>, base: u64, hot_list_bytes: usize) {
        let Region::Resident(data) = &self.region else {
            return;
        };
        let mut hot = FxHashMap::default();
        for i in 0..self.count() as u32 {
            let (a, b) = self.range(i);
            if b - a >= hot_list_bytes {
                hot.insert(i, data[a..b].to_vec().into_boxed_slice());
            }
        }
        self.region = Region::Cold {
            file,
            base,
            hot: Arc::new(hot),
        };
    }

    pub(crate) fn resident_bytes(&self) -> usize {
        let entry_overhead = 2 * std::mem::size_of::<usize>();
        let mut total = self.offsets.len() * std::mem::size_of::<u32>();
        total += self
            .skips
            .values()
            .map(|s| s.len() * std::mem::size_of::<SkipEntry>() + entry_overhead)
            .sum::<usize>();
        total += self
            .overlay
            .values()
            .map(|l| l.capacity() * std::mem::size_of::<u32>() + entry_overhead)
            .sum::<usize>();
        total += match &self.region {
            Region::Resident(data) => data.len(),
            Region::Cold { hot, .. } => hot
                .values()
                .map(|b| b.len() + entry_overhead)
                .sum::<usize>(),
        };
        total
    }
}

/// Compressed pool store: delta-varint blocked lists both ways, optionally
/// tiered to a cold backing file. Backs both [`crate::Pool::Compressed`]
/// and [`crate::Pool::Tiered`].
#[derive(Debug, Clone)]
pub struct PackedPool {
    pub(crate) num_vertices: usize,
    pub(crate) pool_size: usize,
    pub(crate) postings: SegmentStore,
    pub(crate) traces: Option<SegmentStore>,
    /// Byte offset of the postings data region inside the `PCMP` payload
    /// this pool was decoded from (`None` for pools built in memory — such
    /// pools cannot be demoted until re-loaded from an artifact).
    pub(crate) postings_data_off: Option<u64>,
    /// Same, for the traces data region.
    pub(crate) traces_data_off: Option<u64>,
}

impl PackedPool {
    /// Encode raw lists into a fully resident compressed pool.
    #[must_use]
    pub fn from_lists(
        num_vertices: usize,
        pool_size: usize,
        postings: &[Vec<u32>],
        traces: Option<&[Vec<u32>]>,
    ) -> Self {
        assert_eq!(postings.len(), num_vertices, "posting table length");
        if let Some(t) = traces {
            assert_eq!(t.len(), pool_size, "trace table length");
        }
        PackedPool {
            num_vertices,
            pool_size,
            postings: SegmentStore::from_lists(postings),
            traces: traces.map(SegmentStore::from_lists),
            postings_data_off: None,
            traces_data_off: None,
        }
    }

    /// Hand vertex `v`'s posting list to `f` (monomorphized hot path).
    #[inline]
    pub fn with_posting<R>(&self, v: u32, f: impl FnOnce(ListRef<'_>) -> R) -> R {
        self.postings.with_list(v, f)
    }

    /// Length of vertex `v`'s posting list.
    #[inline]
    #[must_use]
    pub fn posting_len(&self, v: u32) -> usize {
        self.postings.len_of(v)
    }

    /// Whether any list has been dirtied since the last fold or encode.
    #[must_use]
    pub fn has_overlay(&self) -> bool {
        !self.postings.overlay.is_empty()
            || self.traces.as_ref().is_some_and(|t| !t.overlay.is_empty())
    }

    pub(crate) fn attach_cold(
        &mut self,
        file: Arc<File>,
        payload_offset: u64,
        config: TieredConfig,
    ) {
        let file = ColdFile::new(file);
        if let Some(off) = self.postings_data_off {
            self.postings
                .attach_cold(file.clone(), payload_offset + off, config.hot_list_bytes);
        }
        if let (Some(traces), Some(off)) = (&mut self.traces, self.traces_data_off) {
            traces.attach_cold(file, payload_offset + off, config.hot_list_bytes);
        }
    }

    /// Lifetime `(reads, bytes)` served from the cold backing file, both
    /// directions (traces share the postings' file) and every clone
    /// together; zeros while fully resident.
    pub(crate) fn cold_reads(&self) -> (u64, u64) {
        match &self.postings.region {
            Region::Cold { file, .. } => file.counts(),
            Region::Resident(_) => (0, 0),
        }
    }

    pub(crate) fn has_traces(&self) -> bool {
        self.traces.is_some()
    }

    pub(crate) fn postings(&self, v: u32) -> Vec<u32> {
        self.postings.list(v)
    }

    pub(crate) fn trace(&self, set: u32) -> Vec<u32> {
        self.traces
            .as_ref()
            .expect("compressed pool has no traces")
            .list(set)
    }

    /// See [`crate::Pool::replace_set`].
    pub(crate) fn replace_set(&mut self, set: u32, old_members: &[u32], new_members: &[u32]) {
        let traces = self.traces.as_mut().expect("compressed pool has no traces");
        // Only lists whose membership changes enter the overlay: a set that
        // kept a member leaves that member's encoded list alone.
        let mut changed = false;
        for_each_membership_change(old_members, new_members, |v, present| {
            self.postings
                .edit(v, |list| set_membership(list, set, present));
            changed = true;
        });
        if changed {
            traces.overlay.insert(set, new_members.to_vec());
        }
    }

    /// Fold both directions' overlays into fresh resident data regions (see
    /// [`crate::Pool::fold_overlay`]). A folded region no longer matches the
    /// `PCMP` payload it was decoded from, so it forgets that payload's
    /// offset: demoting it takes a re-load from a freshly written artifact.
    pub(crate) fn fold_overlay(&mut self) {
        if self.postings.fold() {
            self.postings_data_off = None;
        }
        if self.traces.as_mut().is_some_and(SegmentStore::fold) {
            self.traces_data_off = None;
        }
    }

    pub(crate) fn build_traces(&mut self) {
        if self.traces.is_some() {
            return;
        }
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); self.pool_size];
        self.postings
            .sweep(|v, sets| sets.for_each(|set| lists[set as usize].push(v)));
        // Postings swept in increasing v, so each trace is already sorted.
        self.traces = Some(SegmentStore::from_lists(&lists));
        self.traces_data_off = None;
    }

    pub(crate) fn resident_bytes(&self) -> usize {
        self.postings.resident_bytes()
            + self.traces.as_ref().map_or(0, SegmentStore::resident_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn lists() -> Vec<Vec<u32>> {
        vec![
            (0..400).map(|i| i * 3).collect(),
            vec![7],
            vec![],
            (100..230).collect(),
        ]
    }

    #[test]
    fn store_round_trips_lists() {
        let ls = lists();
        let store = SegmentStore::from_lists(&ls);
        assert_eq!(store.count(), 4);
        for (i, l) in ls.iter().enumerate() {
            assert_eq!(store.list(i as u32), *l, "list {i}");
            assert_eq!(store.len_of(i as u32), l.len());
        }
        // Skips only for multi-block lists (0 spans 4 blocks, 3 spans 2).
        assert_eq!(store.skips.len(), 2);
        assert_eq!(store.skips[&0].len(), 4);
        assert_eq!(store.skips[&3].len(), 2);
    }

    #[test]
    fn overlay_shadows_encoded_form() {
        let ls = lists();
        let mut store = SegmentStore::from_lists(&ls);
        store.edit(1, |l| l.push(9));
        assert_eq!(store.list(1), vec![7, 9]);
        assert_eq!(store.len_of(1), 2);
        // Untouched lists still read from the encoded region.
        assert_eq!(store.list(0), ls[0]);
    }

    /// Directory, skip headers and data region, the three things a fold
    /// rebuilds.
    type Encoded = (Vec<u32>, Vec<(u32, Vec<SkipEntry>)>, Vec<u8>);

    fn encoded(store: &SegmentStore) -> Encoded {
        let Region::Resident(data) = &store.region else {
            panic!("expected a resident region")
        };
        let mut skips: Vec<_> = store.skips.iter().map(|(&i, s)| (i, s.to_vec())).collect();
        skips.sort_unstable_by_key(|&(i, _)| i);
        (store.offsets.to_vec(), skips, data.to_vec())
    }

    #[test]
    fn fold_re_encodes_the_overlay_like_a_fresh_encode() {
        let mut want = lists();
        let mut store = SegmentStore::from_lists(&want);
        let before = store.clone();
        // List 1 grows past two blocks (gains skip headers), list 0 shrinks
        // to one block (loses its four), lists 2 and 3 stay encoded.
        want[1] = (0..300).map(|i| i * 2 + 1).collect();
        want[0] = vec![3, 6];
        store.edit(1, |l| *l = want[1].clone());
        store.edit(0, |l| *l = want[0].clone());
        assert!(store.fold());
        assert!(store.overlay.is_empty());
        assert!(!store.fold(), "nothing left to fold");
        let fresh = SegmentStore::from_lists(&want);
        assert_eq!(encoded(&store), encoded(&fresh));
        assert_eq!(store.skips[&1].len(), 3);
        assert!(!store.skips.contains_key(&0));
        assert_eq!(store.resident_bytes(), fresh.resident_bytes());
        for (i, l) in want.iter().enumerate() {
            assert_eq!(store.list(i as u32), *l, "list {i}");
        }
        // The clone taken before the edits still holds the old bytes.
        for (i, l) in lists().iter().enumerate() {
            assert_eq!(before.list(i as u32), *l, "old list {i}");
        }
        assert_eq!(
            encoded(&before),
            encoded(&SegmentStore::from_lists(&lists()))
        );
    }

    #[test]
    fn fold_copies_untouched_runs_around_a_dirtied_tail_and_head() {
        let mut want: Vec<Vec<u32>> = (0..50u32).map(|v| (v..v + v % 7).collect()).collect();
        let mut store = SegmentStore::from_lists(&want);
        for i in [0usize, 17, 18, 49] {
            want[i] = (100..100 + 129 + i as u32).collect();
            let list = want[i].clone();
            store.edit(i as u32, |l| *l = list);
        }
        assert!(store.fold());
        assert_eq!(encoded(&store), encoded(&SegmentStore::from_lists(&want)));
    }

    #[test]
    fn replace_set_then_fold_leaves_a_canonical_pool() {
        let postings = vec![vec![0, 1], vec![0], vec![1], vec![]];
        let traces = vec![vec![0, 1], vec![0, 2]];
        let mut pool = PackedPool::from_lists(4, 2, &postings, Some(&traces));
        pool.postings_data_off = Some(40);
        pool.traces_data_off = Some(80);
        pool.replace_set(0, &[0, 1], &[0, 3]);
        assert!(pool.has_overlay());
        pool.fold_overlay();
        assert!(!pool.has_overlay());
        // Folded bytes are not the payload's any more: no demotion onto it.
        assert_eq!((pool.postings_data_off, pool.traces_data_off), (None, None));
        let fresh = PackedPool::from_lists(
            4,
            2,
            &[vec![0, 1], vec![], vec![1], vec![0]],
            Some(&[vec![0, 3], vec![0, 2]]),
        );
        assert_eq!(encoded(&pool.postings), encoded(&fresh.postings));
        assert_eq!(
            encoded(pool.traces.as_ref().unwrap()),
            encoded(fresh.traces.as_ref().unwrap())
        );
        assert_eq!(pool.resident_bytes(), fresh.resident_bytes());
    }

    #[test]
    fn cold_region_reads_match_resident() {
        let ls = lists();
        let mut store = SegmentStore::from_lists(&ls);
        let Region::Resident(data) = &store.region else {
            unreachable!()
        };
        let path = std::env::temp_dir().join(format!(
            "impool-cold-test-{}-{:p}",
            std::process::id(),
            &store
        ));
        let prefix = 13usize; // arbitrary non-zero base offset
        {
            let mut f = std::fs::File::create(&path).expect("create temp file");
            f.write_all(&vec![0xAA; prefix]).expect("pad");
            f.write_all(data).expect("data");
        }
        let file = std::fs::File::open(&path).expect("open temp file");
        // Threshold of 16 bytes: list 0 (~400 varints) stays hot, the rest go cold.
        store.attach_cold(ColdFile::new(Arc::new(file)), prefix as u64, 16);
        let Region::Cold { hot, .. } = &store.region else {
            panic!("expected cold region")
        };
        assert!(hot.contains_key(&0));
        assert!(!hot.contains_key(&1));
        for (i, l) in ls.iter().enumerate() {
            assert_eq!(store.list(i as u32), *l, "cold list {i}");
            assert_eq!(store.len_of(i as u32), l.len(), "cold len {i}");
        }
        // A cold region keeps its overlay: its encoded bytes are the file's.
        store.edit(1, |l| l.push(9));
        assert!(!store.fold());
        assert_eq!(store.list(1), vec![7, 9]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replace_set_keeps_inverse_invariant() {
        let postings = vec![vec![0, 1], vec![0], vec![1]];
        let traces = vec![vec![0, 1], vec![0, 2]];
        let mut pool = PackedPool::from_lists(3, 2, &postings, Some(&traces));
        pool.replace_set(0, &[0, 1], &[1, 2]);
        assert_eq!(pool.postings(0), vec![1]);
        assert_eq!(pool.postings(1), vec![0]);
        assert_eq!(pool.postings(2), vec![0, 1]);
        assert_eq!(pool.trace(0), vec![1, 2]);
        assert!(pool.has_overlay());
    }

    #[test]
    fn replace_set_dirties_only_the_symmetric_difference() {
        let postings = vec![vec![0, 1], vec![0], vec![1], vec![]];
        let traces = vec![vec![0, 1], vec![0, 2]];
        let mut pool = PackedPool::from_lists(4, 2, &postings, Some(&traces));
        // A resample that drew the same members touches nothing.
        pool.replace_set(1, &[0, 2], &[0, 2]);
        assert!(!pool.has_overlay());
        // Set 0 keeps vertex 0 and trades vertex 1 for vertex 3: vertex 0's
        // list stays in its encoded form.
        pool.replace_set(0, &[0, 1], &[0, 3]);
        let mut dirtied: Vec<u32> = pool.postings.overlay.keys().copied().collect();
        dirtied.sort_unstable();
        assert_eq!(dirtied, vec![1, 3]);
        assert_eq!(pool.postings(0), vec![0, 1]);
        assert_eq!(pool.postings(1), Vec::<u32>::new());
        assert_eq!(pool.postings(3), vec![0]);
        assert_eq!(pool.trace(0), vec![0, 3]);
    }

    #[test]
    fn build_traces_inverts_postings() {
        let postings = vec![vec![0, 1], vec![1], vec![0, 2]];
        let mut pool = PackedPool::from_lists(3, 3, &postings, None);
        pool.build_traces();
        assert_eq!(pool.trace(0), vec![0, 2]);
        assert_eq!(pool.trace(1), vec![0, 1]);
        assert_eq!(pool.trace(2), vec![2]);
    }

    #[test]
    fn tiered_resident_bytes_shrink_after_attach() {
        let ls: Vec<Vec<u32>> = (0..32).map(|v| (v..v + 600).collect()).collect();
        let mut store = SegmentStore::from_lists(&ls);
        let resident = store.resident_bytes();
        let Region::Resident(data) = &store.region else {
            unreachable!()
        };
        let path = std::env::temp_dir().join(format!(
            "impool-shrink-test-{}-{:p}",
            std::process::id(),
            &store
        ));
        std::fs::write(&path, data.as_slice()).expect("write temp file");
        let file = std::fs::File::open(&path).expect("open temp file");
        store.attach_cold(ColdFile::new(Arc::new(file)), 0, usize::MAX);
        assert!(
            store.resident_bytes() * 2 < resident,
            "cold {} vs resident {resident}",
            store.resident_bytes()
        );
        std::fs::remove_file(&path).ok();
    }
}
