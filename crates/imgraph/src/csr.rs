//! Compressed sparse row storage for directed graphs.

use serde::{Deserialize, Serialize};

use crate::{Edge, VertexId};

/// A directed graph in compressed sparse row form.
///
/// Both the forward adjacency (out-neighbours) and the reverse adjacency
/// (in-neighbours) are materialised: Oneshot and Snapshot traverse forwards
/// from seed sets, while RIS traverses the transposed graph when generating
/// reverse-reachable sets, and the paper's traversal-cost analysis needs both
/// degree directions (`d⁺`, `d⁻`).
///
/// Vertices are `0..n`. Parallel edges are allowed (the Karate data set from
/// KONECT counts each undirected edge as two arcs); self-loops are allowed but
/// never generated by the builders in `imnet`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiGraph {
    /// `out_offsets[v]..out_offsets[v + 1]` indexes `out_targets` for vertex `v`.
    out_offsets: Vec<usize>,
    /// Concatenated out-neighbour lists.
    out_targets: Vec<VertexId>,
    /// For each forward-CSR position, the index of that edge in insertion
    /// order. Lets edge attributes (probabilities) be stored separately.
    out_edge_ids: Vec<u32>,
    /// `in_offsets[v]..in_offsets[v + 1]` indexes `in_sources` for vertex `v`.
    in_offsets: Vec<usize>,
    /// Concatenated in-neighbour lists.
    in_sources: Vec<VertexId>,
    /// Insertion-order edge id for each reverse-CSR position.
    in_edge_ids: Vec<u32>,
}

impl DiGraph {
    /// Build a graph with `n` vertices from a list of directed edges.
    ///
    /// Edge ids are assigned in the order edges appear in `edges`.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= n` or if there are more than `u32::MAX`
    /// edges.
    #[must_use]
    pub fn from_edges(n: usize, edges: &[Edge]) -> Self {
        assert!(
            edges.len() <= u32::MAX as usize,
            "too many edges for u32 edge ids"
        );
        let mut out_degree = vec![0usize; n];
        let mut in_degree = vec![0usize; n];
        for &(u, v) in edges {
            assert!((u as usize) < n, "edge source {u} out of range (n = {n})");
            assert!((v as usize) < n, "edge target {v} out of range (n = {n})");
            out_degree[u as usize] += 1;
            in_degree[v as usize] += 1;
        }

        let out_offsets = prefix_sum(&out_degree);
        let in_offsets = prefix_sum(&in_degree);

        let m = edges.len();
        let mut out_targets = vec![0 as VertexId; m];
        let mut out_edge_ids = vec![0u32; m];
        let mut in_sources = vec![0 as VertexId; m];
        let mut in_edge_ids = vec![0u32; m];
        let mut out_cursor = out_offsets.clone();
        let mut in_cursor = in_offsets.clone();

        for (eid, &(u, v)) in edges.iter().enumerate() {
            let oc = &mut out_cursor[u as usize];
            out_targets[*oc] = v;
            out_edge_ids[*oc] = eid as u32;
            *oc += 1;
            let ic = &mut in_cursor[v as usize];
            in_sources[*ic] = u;
            in_edge_ids[*ic] = eid as u32;
            *ic += 1;
        }

        Self {
            out_offsets,
            out_targets,
            out_edge_ids,
            in_offsets,
            in_sources,
            in_edge_ids,
        }
    }

    /// Number of vertices `n`.
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.out_offsets.len() - 1
    }

    /// Number of directed edges `m`.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.out_targets.len()
    }

    /// Iterator over all vertex ids `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// Out-neighbours `Γ⁺(v)` of vertex `v`.
    #[must_use]
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.out_targets[self.out_offsets[v]..self.out_offsets[v + 1]]
    }

    /// In-neighbours `Γ⁻(v)` of vertex `v`.
    #[must_use]
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.in_sources[self.in_offsets[v]..self.in_offsets[v + 1]]
    }

    /// Out-neighbours of `v` together with the insertion-order edge id of each
    /// incident edge, in edge-id order (every constructor and
    /// the in-place patch keep rows sorted by id); used to look up edge
    /// probabilities during traversal.
    pub fn out_edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, u32)> + '_ {
        let v = v as usize;
        let range = self.out_offsets[v]..self.out_offsets[v + 1];
        self.out_targets[range.clone()]
            .iter()
            .copied()
            .zip(self.out_edge_ids[range].iter().copied())
    }

    /// In-neighbours of `v` together with the edge id of each incident edge.
    pub fn in_edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, u32)> + '_ {
        let v = v as usize;
        let range = self.in_offsets[v]..self.in_offsets[v + 1];
        self.in_sources[range.clone()]
            .iter()
            .copied()
            .zip(self.in_edge_ids[range].iter().copied())
    }

    /// Out-degree `d⁺(v)`.
    #[must_use]
    pub fn out_degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.out_offsets[v + 1] - self.out_offsets[v]
    }

    /// In-degree `d⁻(v)`.
    #[must_use]
    pub fn in_degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.in_offsets[v + 1] - self.in_offsets[v]
    }

    /// Iterate over all edges in insertion (edge-id) order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        // Reconstructing insertion order requires a scan of the forward CSR;
        // collect (edge_id, (u, v)) pairs lazily per source vertex.
        self.vertices()
            .flat_map(move |u| self.out_edges(u).map(move |(v, _eid)| (u, v)))
    }

    /// Collect all edges with their edge ids, sorted by edge id (i.e. original
    /// insertion order). Allocates; intended for tests and I/O, not hot paths.
    #[must_use]
    pub fn edges_in_insertion_order(&self) -> Vec<Edge> {
        let mut with_ids: Vec<(u32, Edge)> = Vec::with_capacity(self.num_edges());
        for u in self.vertices() {
            for (v, eid) in self.out_edges(u) {
                with_ids.push((eid, (u, v)));
            }
        }
        with_ids.sort_unstable_by_key(|&(eid, _)| eid);
        with_ids.into_iter().map(|(_, e)| e).collect()
    }

    /// The transposed graph `G⊤` (every edge reversed). Edge ids are preserved,
    /// so edge attributes indexed by edge id remain valid for the transpose.
    #[must_use]
    pub fn transpose(&self) -> Self {
        Self {
            out_offsets: self.in_offsets.clone(),
            out_targets: self.in_sources.clone(),
            out_edge_ids: self.in_edge_ids.clone(),
            in_offsets: self.out_offsets.clone(),
            in_sources: self.out_targets.clone(),
            in_edge_ids: self.out_edge_ids.clone(),
        }
    }

    /// The reverse-CSR positions of `v`'s in-row: `in_edges(v)` is
    /// `in_edge_ids()[in_row(v)]` zipped with the sources.
    #[must_use]
    pub(crate) fn in_row(&self, v: VertexId) -> std::ops::Range<usize> {
        let v = v as usize;
        self.in_offsets[v]..self.in_offsets[v + 1]
    }

    /// Insertion-order edge id of every reverse-CSR position, row by row.
    #[must_use]
    pub(crate) fn in_edge_ids(&self) -> &[u32] {
        &self.in_edge_ids
    }

    /// Remove the edges `deleted` (`(edge id, endpoints)`, ascending by id)
    /// and append `inserted` (which take the largest ids, in order), leaving
    /// exactly the arrays [`DiGraph::from_edges`] builds from the edited
    /// edge list: surviving edges keep their relative order and are
    /// renumbered densely, so every row stays sorted by edge id.
    ///
    /// `in_weights` is a column parallel to the reverse CSR (one entry per
    /// in-row position); it moves with its entries in the same pass, and
    /// `inserted_weights[j]` lands beside `inserted[j]`.
    ///
    /// One sequential pass per array; only the rows of the named endpoints
    /// are examined entry by entry.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or the edited graph has more
    /// than `u32::MAX` edges.
    pub(crate) fn patch(
        &mut self,
        deleted: &[(u32, Edge)],
        inserted: &[Edge],
        in_weights: &mut Vec<f64>,
        inserted_weights: &[f64],
    ) {
        let (n, m) = (self.num_vertices(), self.num_edges());
        assert!(
            m - deleted.len() + inserted.len() <= u32::MAX as usize,
            "too many edges for u32 edge ids"
        );
        for &(u, v) in inserted {
            assert!((u as usize) < n, "edge source {u} out of range (n = {n})");
            assert!((v as usize) < n, "edge target {v} out of range (n = {n})");
        }
        debug_assert_eq!(inserted.len(), inserted_weights.len());
        // The forward rows carry no column: a zero-sized one costs nothing.
        patch_direction(
            &mut self.out_offsets,
            &mut self.out_targets,
            &mut self.out_edge_ids,
            &mut vec![(); m],
            deleted,
            inserted,
            &vec![(); inserted.len()],
            |(u, v)| (u, v),
        );
        patch_direction(
            &mut self.in_offsets,
            &mut self.in_sources,
            &mut self.in_edge_ids,
            in_weights,
            deleted,
            inserted,
            inserted_weights,
            |(u, v)| (v, u),
        );
    }

    /// Maximum out-degree `∆⁺`, or 0 for an empty graph.
    #[must_use]
    pub fn max_out_degree(&self) -> usize {
        self.vertices()
            .map(|v| self.out_degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Maximum in-degree `∆⁻`, or 0 for an empty graph.
    #[must_use]
    pub fn max_in_degree(&self) -> usize {
        self.vertices()
            .map(|v| self.in_degree(v))
            .max()
            .unwrap_or(0)
    }
}

/// [`DiGraph::patch`] for one adjacency direction and its parallel column
/// `weights`; `orient` maps an edge to its `(row, neighbour)` in that
/// direction.
#[allow(clippy::too_many_arguments)]
fn patch_direction<W: Copy>(
    offsets: &mut [usize],
    neighbours: &mut Vec<VertexId>,
    edge_ids: &mut Vec<u32>,
    weights: &mut Vec<W>,
    deleted: &[(u32, Edge)],
    inserted: &[Edge],
    inserted_weights: &[W],
    orient: impl Fn(Edge) -> (VertexId, VertexId),
) {
    // Inserted edges get provisional ids above every old id, in order; the
    // dense renumbering below then lands them on their final ids. The sort
    // is stable, so one row's new entries stay in edge-id order.
    let first_new_id = edge_ids.len();
    let mut appended: Vec<(VertexId, VertexId, u32, W)> = inserted
        .iter()
        .zip(inserted_weights)
        .enumerate()
        .map(|(j, (&edge, &weight))| {
            let (row, neighbour) = orient(edge);
            (row, neighbour, (first_new_id + j) as u32, weight)
        })
        .collect();
    appended.sort_by_key(|&(row, ..)| row);
    let mut touched: Vec<VertexId> = deleted
        .iter()
        .map(|&(_, edge)| orient(edge).0)
        .chain(appended.iter().map(|&(row, ..)| row))
        .collect();
    touched.sort_unstable();
    touched.dedup();
    let is_deleted = |id: u32| deleted.binary_search_by_key(&id, |&(d, _)| d).is_ok();

    let new_len = neighbours.len() - deleted.len() + appended.len();
    let mut new_neighbours = Vec::with_capacity(new_len);
    let mut new_edge_ids = Vec::with_capacity(new_len);
    let mut new_weights = Vec::with_capacity(new_len);
    let mut appended = appended.into_iter().peekable();
    let mut copied = 0; // old entries below this position are dealt with
    let mut unshifted = 0; // offsets from this index on still hold old values
    let mut shift = 0isize;
    for row in touched {
        let row = row as usize;
        let (start, end) = (offsets[row], offsets[row + 1]);
        shift_offsets(&mut offsets[unshifted..=row], shift);
        unshifted = row + 1;
        // Untouched rows in between move as one block.
        new_neighbours.extend_from_slice(&neighbours[copied..start]);
        new_edge_ids.extend_from_slice(&edge_ids[copied..start]);
        new_weights.extend_from_slice(&weights[copied..start]);
        for at in start..end {
            if !is_deleted(edge_ids[at]) {
                new_neighbours.push(neighbours[at]);
                new_edge_ids.push(edge_ids[at]);
                new_weights.push(weights[at]);
            }
        }
        while let Some((_, neighbour, id, weight)) = appended.next_if(|a| a.0 as usize == row) {
            new_neighbours.push(neighbour);
            new_edge_ids.push(id);
            new_weights.push(weight);
        }
        copied = end;
        shift = new_neighbours.len() as isize - end as isize;
    }
    shift_offsets(&mut offsets[unshifted..], shift);
    new_neighbours.extend_from_slice(&neighbours[copied..]);
    new_edge_ids.extend_from_slice(&edge_ids[copied..]);
    new_weights.extend_from_slice(&weights[copied..]);
    debug_assert_eq!(new_neighbours.len(), new_len);
    debug_assert_eq!(new_weights.len(), new_len);

    if !deleted.is_empty() {
        // Dense renumbering: an id drops by the number of deleted ids below it.
        for id in &mut new_edge_ids {
            *id -= deleted.partition_point(|&(d, _)| d < *id) as u32;
        }
    }
    *neighbours = new_neighbours;
    *edge_ids = new_edge_ids;
    *weights = new_weights;
}

fn shift_offsets(offsets: &mut [usize], shift: isize) {
    if shift != 0 {
        for offset in offsets {
            *offset = offset
                .checked_add_signed(shift)
                .expect("a CSR offset never drops below the entries removed before it");
        }
    }
}

/// Exclusive prefix sum with a trailing total, i.e. CSR offsets.
fn prefix_sum(counts: &[usize]) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(counts.len() + 1);
    let mut acc = 0usize;
    offsets.push(0);
    for &c in counts {
        acc += c;
        offsets.push(acc);
    }
    offsets
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        DiGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn basic_counts() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn neighbors_and_degrees() {
        let g = diamond();
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.out_neighbors(3), &[] as &[VertexId]);
        assert_eq!(g.in_neighbors(3), &[1, 2]);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.max_out_degree(), 2);
        assert_eq!(g.max_in_degree(), 2);
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::from_edges(0, &[]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_out_degree(), 0);
    }

    #[test]
    fn isolated_vertices_are_preserved() {
        let g = DiGraph::from_edges(10, &[(0, 1)]);
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.out_degree(5), 0);
        assert_eq!(g.in_degree(5), 0);
    }

    #[test]
    fn parallel_edges_and_self_loops() {
        let g = DiGraph::from_edges(2, &[(0, 1), (0, 1), (1, 1)]);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.out_neighbors(0), &[1, 1]);
        assert_eq!(g.out_neighbors(1), &[1]);
        assert_eq!(g.in_degree(1), 3);
    }

    #[test]
    fn edge_ids_follow_insertion_order() {
        let edges = [(2u32, 0u32), (0, 1), (1, 2), (2, 1)];
        let g = DiGraph::from_edges(3, &edges);
        assert_eq!(g.edges_in_insertion_order(), edges.to_vec());
        // Edge id lookup agrees between forward and reverse adjacency.
        for u in g.vertices() {
            for (v, eid) in g.out_edges(u) {
                assert_eq!(edges[eid as usize], (u, v));
            }
            for (w, eid) in g.in_edges(u) {
                assert_eq!(edges[eid as usize], (w, u));
            }
        }
    }

    #[test]
    fn transpose_reverses_edges_and_keeps_ids() {
        let edges = [(0u32, 1u32), (1, 2), (0, 2)];
        let g = DiGraph::from_edges(3, &edges);
        let t = g.transpose();
        assert_eq!(t.num_edges(), 3);
        assert_eq!(t.out_neighbors(1), &[0]);
        assert_eq!(t.out_neighbors(2).len(), 2);
        for u in t.vertices() {
            for (v, eid) in t.out_edges(u) {
                // Transposed edge (u, v) with id eid corresponds to original (v, u).
                assert_eq!(edges[eid as usize], (v, u));
            }
        }
        // Transposing twice gives back the original adjacency.
        let tt = t.transpose();
        for v in g.vertices() {
            assert_eq!(g.out_neighbors(v), tt.out_neighbors(v));
        }
    }

    #[test]
    fn edges_iterator_counts_match() {
        let g = diamond();
        assert_eq!(g.edges().count(), g.num_edges());
        let degree_sum: usize = g.vertices().map(|v| g.out_degree(v)).sum();
        assert_eq!(degree_sum, g.num_edges());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_endpoint_panics() {
        let _ = DiGraph::from_edges(2, &[(0, 2)]);
    }

    #[test]
    fn serde_round_trip() {
        let g = diamond();
        let json = serde_json::to_string(&g).unwrap();
        let back: DiGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(g, back);
    }
}
