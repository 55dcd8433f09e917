//! The uncompressed reference backend: `Vec<Vec<u32>>` both ways.

use crate::{for_each_membership_change, set_membership, PackedPool};

/// Uncompressed in-RAM pool store — the layout the original oracle used and
/// the semantic reference every other backend is equivalence-tested against.
#[derive(Debug, Clone)]
pub struct RawPool {
    pub(crate) num_vertices: usize,
    pub(crate) pool_size: usize,
    /// `postings[v]` = strictly increasing ids of RR sets containing `v`.
    pub(crate) postings: Vec<Vec<u32>>,
    /// `traces[s]` = sorted member vertices of RR set `s` (inverse index).
    traces: Option<Vec<Vec<u32>>>,
}

impl RawPool {
    /// Build from posting lists and optional traces, taking them as they
    /// are. Every list's growth slack is trimmed in place (a no-op for lists
    /// allocated at size), so [`crate::Pool::resident_bytes`] counts the ids
    /// held, however the lists were filled.
    ///
    /// # Panics
    ///
    /// Panics if `postings.len() != num_vertices` or a provided trace table
    /// is not `pool_size` long — these are construction bugs, not data
    /// corruption (persisted bytes are validated before reaching here).
    #[must_use]
    pub fn new(
        num_vertices: usize,
        pool_size: usize,
        mut postings: Vec<Vec<u32>>,
        mut traces: Option<Vec<Vec<u32>>>,
    ) -> Self {
        assert_eq!(postings.len(), num_vertices, "posting table length");
        if let Some(t) = &traces {
            assert_eq!(t.len(), pool_size, "trace table length");
        }
        for table in std::iter::once(&mut postings).chain(traces.as_mut()) {
            table.shrink_to_fit();
            table.iter_mut().for_each(Vec::shrink_to_fit);
        }
        RawPool {
            num_vertices,
            pool_size,
            postings,
            traces,
        }
    }

    /// Borrow vertex `v`'s posting list (raw-only zero-cost accessor).
    #[inline]
    #[must_use]
    pub fn posting_slice(&self, v: u32) -> &[u32] {
        &self.postings[v as usize]
    }

    /// Every trace, in set order, if the store carries them.
    pub(crate) fn traces(&self) -> Option<&[Vec<u32>]> {
        self.traces.as_deref()
    }

    /// Borrow RR set `set`'s trace (raw-only zero-cost accessor).
    ///
    /// # Panics
    ///
    /// Panics if the store carries no traces.
    #[inline]
    #[must_use]
    pub fn trace_slice(&self, set: u32) -> &[u32] {
        &self.traces().expect("raw pool has no traces")[set as usize]
    }

    /// Encode both tables into a fully resident compressed pool.
    pub(crate) fn encode(&self) -> PackedPool {
        PackedPool::from_lists(
            self.num_vertices,
            self.pool_size,
            &self.postings,
            self.traces(),
        )
    }

    /// See [`crate::Pool::replace_set`].
    pub(crate) fn replace_set(&mut self, set: u32, old_members: &[u32], new_members: &[u32]) {
        let traces = self.traces.as_mut().expect("raw pool has no traces");
        let mut changed = false;
        for_each_membership_change(old_members, new_members, |v, present| {
            set_membership(&mut self.postings[v as usize], set, present);
            changed = true;
        });
        if changed {
            traces[set as usize] = new_members.to_vec();
        }
    }

    pub(crate) fn build_traces(&mut self) {
        if self.traces.is_some() {
            return;
        }
        // Count each trace's length first, so every trace is allocated at
        // its size and `resident_bytes` matches a pool given exact traces.
        let mut lens = vec![0usize; self.pool_size];
        for &set in self.postings.iter().flatten() {
            lens[set as usize] += 1;
        }
        let mut traces: Vec<Vec<u32>> = lens.into_iter().map(Vec::with_capacity).collect();
        for (v, list) in self.postings.iter().enumerate() {
            for &set in list {
                traces[set as usize].push(v as u32);
            }
        }
        // Postings are walked in increasing v, so each trace is sorted.
        self.traces = Some(traces);
    }

    pub(crate) fn resident_bytes(&self) -> usize {
        fn table_bytes(table: &[Vec<u32>]) -> usize {
            std::mem::size_of_val(table)
                + table
                    .iter()
                    .map(|l| l.capacity() * std::mem::size_of::<u32>())
                    .sum::<usize>()
        }
        let mut total = table_bytes(&self.postings);
        if let Some(t) = &self.traces {
            total += table_bytes(t);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_traces_is_sorted_inverse() {
        let postings = vec![vec![0, 1], vec![1], vec![0, 2]];
        let mut pool = RawPool::new(3, 3, postings, None);
        pool.build_traces();
        assert_eq!(pool.trace_slice(0), vec![0, 2]);
        assert_eq!(pool.trace_slice(1), vec![0, 1]);
        assert_eq!(pool.trace_slice(2), vec![2]);
    }

    #[test]
    fn replace_set_updates_both_directions() {
        let postings = vec![vec![0], vec![0], vec![]];
        let mut pool = RawPool::new(3, 1, postings, Some(vec![vec![0, 1]]));
        pool.replace_set(0, &[0, 1], &[2]);
        assert_eq!(pool.posting_slice(0), Vec::<u32>::new());
        assert_eq!(pool.posting_slice(1), Vec::<u32>::new());
        assert_eq!(pool.posting_slice(2), vec![0]);
        assert_eq!(pool.trace_slice(0), vec![2]);
    }

    #[test]
    fn resident_bytes_counts_capacity() {
        let pool = RawPool::new(2, 4, vec![vec![0, 1, 2, 3], vec![]], None);
        assert!(pool.resident_bytes() >= 2 * std::mem::size_of::<Vec<u32>>() + 16);
    }
}
