//! Delta/varint-compressed storage for RR-set collections.
//!
//! Section 7 of the paper asks whether the memory usage of RIS can be cut
//! down "e.g., by compressing reverse-reachable sets". RR sets are small sets
//! of vertex ids with no required order, which makes them ideal for the
//! standard inverted-index trick: sort each set, delta-encode consecutive ids
//! and store the gaps as LEB128 varints. Typical social-network RR sets
//! compress to 1–2 bytes per member instead of 4.
//!
//! [`CompressedRrSets`] is an append-only collection with per-set decoding,
//! exact byte accounting, and a coverage-count builder so a greedy
//! maximum-coverage selection (the heart of RIS) can run directly on the
//! compressed form.

use imgraph::VertexId;
use impool::{read_varint, write_varint};

/// An append-only, compressed collection of RR sets.
#[derive(Debug, Clone, Default)]
pub struct CompressedRrSets {
    /// Concatenated varint payloads.
    data: Vec<u8>,
    /// Start offset of each set in `data` (length = number of sets + 1).
    offsets: Vec<usize>,
    /// Total number of stored vertex ids across all sets.
    total_vertices: u64,
}

impl CompressedRrSets {
    /// An empty collection.
    #[must_use]
    pub fn new() -> Self {
        Self {
            data: Vec::new(),
            offsets: vec![0],
            total_vertices: 0,
        }
    }

    /// Append one RR set. The members are sorted and deduplicated internally;
    /// the stored set is the canonical ascending form.
    pub fn push(&mut self, members: &[VertexId]) {
        let mut sorted = members.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut prev = 0u32;
        for (i, &v) in sorted.iter().enumerate() {
            // First element is stored absolutely, the rest as gaps − 1 (gaps
            // between distinct sorted ids are at least 1).
            let delta = if i == 0 { v } else { v - prev - 1 };
            write_varint(&mut self.data, delta);
            prev = v;
        }
        self.total_vertices += sorted.len() as u64;
        self.offsets.push(self.data.len());
    }

    /// Number of stored RR sets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the collection holds no sets.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of stored vertex ids (the paper's RIS sample size).
    #[must_use]
    pub fn total_vertices(&self) -> u64 {
        self.total_vertices
    }

    /// Compressed payload size in bytes (excluding the offset index).
    #[must_use]
    pub fn payload_bytes(&self) -> usize {
        self.data.len()
    }

    /// Bytes an uncompressed `Vec<Vec<u32>>` payload would need for the same
    /// members (4 bytes per id, ignoring per-Vec overhead).
    #[must_use]
    pub fn uncompressed_bytes(&self) -> usize {
        self.total_vertices as usize * std::mem::size_of::<VertexId>()
    }

    /// Compression ratio `uncompressed / compressed`; ≥ 1 in the typical case,
    /// or 0 when the collection is empty.
    #[must_use]
    pub fn compression_ratio(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.uncompressed_bytes() as f64 / self.payload_bytes() as f64
        }
    }

    /// Decode the `index`-th RR set into ascending vertex ids.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn decode(&self, index: usize) -> Vec<VertexId> {
        assert!(
            index < self.len(),
            "RR set index {index} out of range ({})",
            self.len()
        );
        let slice = &self.data[self.offsets[index]..self.offsets[index + 1]];
        let mut result = Vec::new();
        let mut cursor = 0usize;
        let mut prev = 0u32;
        while cursor < slice.len() {
            let delta = read_varint(slice, &mut cursor).expect("push wrote whole varints");
            let value = if result.is_empty() {
                delta
            } else {
                prev + delta + 1
            };
            result.push(value);
            prev = value;
        }
        result
    }

    /// Iterate over all sets, decoding lazily.
    pub fn iter(&self) -> impl Iterator<Item = Vec<VertexId>> + '_ {
        (0..self.len()).map(|i| self.decode(i))
    }

    /// For a graph of `n` vertices, count how many stored RR sets contain each
    /// vertex — the coverage counts greedy maximum coverage starts from.
    #[must_use]
    pub fn coverage_counts(&self, n: usize) -> Vec<u32> {
        let mut counts = vec![0u32; n];
        for set in self.iter() {
            for v in set {
                counts[v as usize] += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imrand::{Pcg32, Rng32};

    #[test]
    fn varint_round_trip() {
        let values = [0u32, 1, 127, 128, 300, 16_383, 16_384, u32::MAX];
        for &v in &values {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut read = 0;
            assert_eq!(read_varint(&buf, &mut read), Ok(v));
            assert_eq!(read, buf.len());
        }
    }

    #[test]
    fn push_and_decode_round_trip() {
        let mut c = CompressedRrSets::new();
        c.push(&[5, 2, 9, 2]);
        c.push(&[]);
        c.push(&[1_000_000, 0]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.decode(0), vec![2, 5, 9]);
        assert_eq!(c.decode(1), Vec::<VertexId>::new());
        assert_eq!(c.decode(2), vec![0, 1_000_000]);
        assert_eq!(c.total_vertices(), 5);
    }

    #[test]
    fn dense_consecutive_sets_compress_well() {
        let mut c = CompressedRrSets::new();
        let members: Vec<VertexId> = (1_000_000..1_000_200).collect();
        for _ in 0..50 {
            c.push(&members);
        }
        // Consecutive ids delta-encode to gap 0 = one byte each, plus a few
        // bytes for the absolute first element.
        assert!(
            c.compression_ratio() > 3.0,
            "ratio {}",
            c.compression_ratio()
        );
        assert_eq!(c.decode(49), members);
    }

    #[test]
    fn coverage_counts_match_brute_force() {
        let mut c = CompressedRrSets::new();
        let sets = [vec![0u32, 2, 4], vec![2, 3], vec![4], vec![0, 2]];
        for s in &sets {
            c.push(s);
        }
        let counts = c.coverage_counts(5);
        assert_eq!(counts, vec![2, 0, 3, 1, 2]);
    }

    #[test]
    fn random_round_trip_property() {
        let mut rng = Pcg32::seed_from_u64(7);
        let mut c = CompressedRrSets::new();
        let mut reference: Vec<Vec<VertexId>> = Vec::new();
        for _ in 0..200 {
            let len = rng.gen_index(30);
            let set: Vec<VertexId> = (0..len).map(|_| rng.gen_range(10_000)).collect();
            let mut canonical = set.clone();
            canonical.sort_unstable();
            canonical.dedup();
            c.push(&set);
            reference.push(canonical);
        }
        for (i, expect) in reference.iter().enumerate() {
            assert_eq!(&c.decode(i), expect, "set {i}");
        }
        assert_eq!(c.iter().count(), 200);
    }

    #[test]
    fn empty_collection_properties() {
        let c = CompressedRrSets::new();
        assert!(c.is_empty());
        assert_eq!(c.compression_ratio(), 0.0);
        assert_eq!(c.payload_bytes(), 0);
        assert!(c.coverage_counts(3).iter().all(|&x| x == 0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn decode_out_of_range_panics() {
        let c = CompressedRrSets::new();
        let _ = c.decode(0);
    }
}
