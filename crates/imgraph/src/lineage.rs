//! The lineage fingerprint: a 64-bit content hash of an influence graph that
//! can be *maintained* under mutation instead of recomputed.
//!
//! ```text
//! fp(G) = mix(n) ⊞ Σ_v row_in(v) ⊞ Σ_u row_out(u)          (⊞ = wrapping add)
//! ```
//!
//! A row term hashes one CSR row — the vertex id, then the row's
//! `(neighbour, probability.to_bits())` entries in edge-id order — and an
//! empty row contributes 0. The hash is order-sensitive *within* a row and
//! a commutative sum *across* rows, so a mutation of edge `(u, v)` changes
//! exactly two terms: subtract `row_in(v)` and `row_out(u)` read before the
//! change, add them back read after it ([`row_terms`]), and the result equals
//! the from-scratch [`fingerprint`] of the new graph without touching the
//! other `n − 2` rows.
//!
//! What it covers is exactly what a traversal can read, in the order it
//! reads it: forward traversals walk out-rows, reverse (RR-set) traversals
//! walk in-rows, both draw one random number per entry in row order. What
//! it deliberately does not cover is the *global* edge-id numbering: two
//! graphs whose rows agree entry for entry but whose edge ids interleave
//! differently across rows sample identically, and fingerprint identically.
//!
//! This is a divergence detector for replicas and logs of one index, not a
//! cryptographic commitment: nothing here resists an adversary choosing
//! graphs to collide.

use imrand::SplitMix64;

use crate::{InfluenceGraph, VertexId};

/// Domain separators: the vertex count, an in-row and an out-row of the same
/// vertex with the same entries must contribute different terms.
const VERTEX_COUNT_SALT: u64 = 0x6c69_6e65_6167_6501;
const IN_ROW_SALT: u64 = 0x6c69_6e65_6167_6502;
const OUT_ROW_SALT: u64 = 0x6c69_6e65_6167_6503;

/// One SplitMix64 step from state `x`: a bijective full-avalanche mix
/// (pinned to the published reference vector by `imrand`'s tests, so the
/// persisted fingerprints cannot drift).
fn mix(x: u64) -> u64 {
    SplitMix64::new(x).next_u64()
}

/// Fold one word into a running row hash. Bijective in `word` for a fixed
/// `hash` (and in `hash` for a fixed `word`), so changing a single entry of a
/// row always changes that row's term.
#[inline]
fn fold(hash: u64, word: u64) -> u64 {
    let h = (hash ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^ (h >> 32)
}

/// One row's term: 0 for an empty row, otherwise a mix of the vertex id and
/// the row's entries in order.
fn row_term(salt: u64, vertex: VertexId, row: impl Iterator<Item = (VertexId, f64)>) -> u64 {
    let mut hash = mix(salt ^ u64::from(vertex));
    let mut entries = 0u64;
    for (neighbour, probability) in row {
        hash = fold(hash, u64::from(neighbour));
        hash = fold(hash, probability.to_bits());
        entries += 1;
    }
    if entries == 0 {
        0
    } else {
        mix(hash ^ entries)
    }
}

/// The wrapping sum of the in-row terms of `heads` and the out-row terms of
/// `sources` — the part of [`fingerprint`] a mutation touching those rows can
/// change. Each slice must name a vertex at most once.
///
/// # Panics
///
/// Panics if a vertex is out of range.
#[must_use]
pub fn row_terms(graph: &InfluenceGraph, heads: &[VertexId], sources: &[VertexId]) -> u64 {
    let ins = heads
        .iter()
        .map(|&v| row_term(IN_ROW_SALT, v, graph.in_edges_with_prob(v)));
    let outs = sources
        .iter()
        .map(|&u| row_term(OUT_ROW_SALT, u, graph.out_edges_with_prob(u)));
    ins.chain(outs).fold(0, u64::wrapping_add)
}

/// The lineage fingerprint of `graph`, from scratch: one sequential pass over
/// both CSR directions, O(n + m), no allocation.
#[must_use]
pub fn fingerprint(graph: &InfluenceGraph) -> u64 {
    let mut sum = mix(VERTEX_COUNT_SALT ^ graph.num_vertices() as u64);
    for v in graph.graph().vertices() {
        sum = sum
            .wrapping_add(row_term(IN_ROW_SALT, v, graph.in_edges_with_prob(v)))
            .wrapping_add(row_term(OUT_ROW_SALT, v, graph.out_edges_with_prob(v)));
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiGraph;

    fn graph(n: usize, edges: &[(u32, u32)], probabilities: &[f64]) -> InfluenceGraph {
        InfluenceGraph::new(DiGraph::from_edges(n, edges), probabilities.to_vec())
    }

    const EDGES: [(u32, u32); 4] = [(0, 3), (1, 3), (2, 3), (0, 1)];
    const PROBS: [f64; 4] = [0.5, 0.25, 0.125, 1.0];

    #[test]
    fn equal_graphs_fingerprint_equally_and_rows_sum_to_the_whole() {
        let g = graph(4, &EDGES, &PROBS);
        assert_eq!(fingerprint(&g), fingerprint(&graph(4, &EDGES, &PROBS)));
        let all: Vec<u32> = (0..4).collect();
        assert_eq!(
            fingerprint(&g),
            mix(VERTEX_COUNT_SALT ^ 4).wrapping_add(row_terms(&g, &all, &all))
        );
        // Empty rows contribute nothing: vertex 0 has no in-edges.
        assert_eq!(row_terms(&g, &[0], &[]), 0);
    }

    #[test]
    fn one_flipped_probability_bit_changes_it() {
        let base = fingerprint(&graph(4, &EDGES, &PROBS));
        let mut probs = PROBS;
        probs[1] = f64::from_bits(probs[1].to_bits() ^ 1);
        assert_ne!(fingerprint(&graph(4, &EDGES, &probs)), base);
    }

    #[test]
    fn swapping_two_in_edges_of_one_head_changes_it() {
        let base = fingerprint(&graph(4, &EDGES, &PROBS));
        // Same edge multiset and probabilities; vertex 3 now reads its
        // in-edges from 1 and 0 in the other order.
        let edges = [(1, 3), (0, 3), (2, 3), (0, 1)];
        let probs = [0.25, 0.5, 0.125, 1.0];
        assert_ne!(fingerprint(&graph(4, &edges, &probs)), base);
    }

    #[test]
    fn moving_an_edge_to_another_head_or_source_changes_it() {
        let base = fingerprint(&graph(4, &EDGES, &PROBS));
        let mut other_head = EDGES;
        other_head[2] = (2, 1);
        assert_ne!(fingerprint(&graph(4, &other_head, &PROBS)), base);
        let mut other_source = EDGES;
        other_source[2] = (1, 3);
        assert_ne!(fingerprint(&graph(4, &other_source, &PROBS)), base);
        // Reversing an edge swaps its in- and out-row roles.
        let mut reversed = EDGES;
        reversed[3] = (1, 0);
        assert_ne!(fingerprint(&graph(4, &reversed, &PROBS)), base);
    }

    #[test]
    fn the_vertex_count_is_covered() {
        assert_ne!(
            fingerprint(&graph(4, &EDGES, &PROBS)),
            fingerprint(&graph(5, &EDGES, &PROBS))
        );
        assert_ne!(
            fingerprint(&graph(1, &[], &[])),
            fingerprint(&graph(2, &[], &[]))
        );
    }

    #[test]
    fn global_edge_id_interleaving_is_not_covered() {
        // Every row agrees entry for entry; only the ids those entries carry
        // differ (edge (1, 2) is id 1 in `a` and id 0 in `b`). Every
        // traversal reads the same thing.
        let a = graph(3, &[(0, 1), (1, 2), (0, 2)], &[0.5, 1.0, 0.25]);
        let b = graph(3, &[(1, 2), (0, 1), (0, 2)], &[1.0, 0.5, 0.25]);
        assert_ne!(
            a.graph().in_edges(2).collect::<Vec<_>>(),
            b.graph().in_edges(2).collect::<Vec<_>>(),
            "the fixture must differ in edge ids"
        );
        assert_eq!(
            a.in_edges_with_prob(2).collect::<Vec<_>>(),
            b.in_edges_with_prob(2).collect::<Vec<_>>()
        );
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }
}
