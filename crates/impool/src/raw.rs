//! The uncompressed reference backend: `Vec<Vec<u32>>` both ways.

use crate::{for_each_membership_change, set_membership};

/// Uncompressed in-RAM pool store — the layout the original oracle used and
/// the semantic reference every other backend is equivalence-tested against.
#[derive(Debug, Clone)]
pub struct RawPool {
    num_vertices: usize,
    pool_size: usize,
    /// `postings[v]` = strictly increasing ids of RR sets containing `v`.
    postings: Vec<Vec<u32>>,
    /// `traces[s]` = sorted member vertices of RR set `s` (inverse index).
    traces: Option<Vec<Vec<u32>>>,
}

impl RawPool {
    /// Build from posting lists and optional traces.
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
        postings: Vec<Vec<u32>>,
        traces: Option<Vec<Vec<u32>>>,
    ) -> Self {
        assert_eq!(postings.len(), num_vertices, "posting table length");
        if let Some(t) = &traces {
            assert_eq!(t.len(), pool_size, "trace table length");
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

    /// Every posting list, in vertex order (what a pass iterates).
    pub(crate) fn posting_table(&self) -> &[Vec<u32>] {
        &self.postings
    }

    /// Every trace, in set order.
    ///
    /// # Panics
    ///
    /// Panics if the store carries no traces.
    pub(crate) fn trace_table(&self) -> &[Vec<u32>] {
        self.traces.as_ref().expect("raw pool has no traces")
    }

    /// Borrow RR set `set`'s trace (raw-only zero-cost accessor).
    ///
    /// # Panics
    ///
    /// Panics if the store carries no traces.
    #[inline]
    #[must_use]
    pub fn trace_slice(&self, set: u32) -> &[u32] {
        &self.trace_table()[set as usize]
    }

    pub(crate) fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    pub(crate) fn pool_size(&self) -> usize {
        self.pool_size
    }

    pub(crate) fn has_traces(&self) -> bool {
        self.traces.is_some()
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
        let mut traces: Vec<Vec<u32>> = vec![Vec::new(); self.pool_size];
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
