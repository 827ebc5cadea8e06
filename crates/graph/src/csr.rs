//! Immutable compressed-sparse-row graph storage.
//!
//! The paper's vertex-centric engines keep the whole graph in memory; CSR
//! is the standard layout for that. We store *both* out- and in-adjacency
//! because provenance queries routinely look at incoming neighbours
//! (e.g. Query 4's in-degree check) while analytics send along outgoing
//! edges.

use crate::types::{Direction, VertexId};

/// A single adjacency entry: the neighbour and the edge weight.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct EdgeRef {
    /// The other endpoint of the edge.
    pub neighbor: VertexId,
    /// The edge weight (1.0 for unweighted graphs).
    pub weight: f64,
}

/// Immutable directed graph in CSR form with weights and in/out adjacency.
///
/// Construct via [`crate::GraphBuilder`]. Vertex ids are dense `0..n`.
/// Every graph is laid out by one constructor, so a builder,
/// [`crate::MutableGraph::apply`] and [`Csr::map_weights`] give equal
/// arrays for equal edges.
#[derive(Clone, Debug)]
pub struct Csr {
    // Out-adjacency.
    out_offsets: Vec<usize>,
    out_targets: Vec<VertexId>,
    out_weights: Vec<f64>,
    // In-adjacency (sources of incoming edges), weights aligned.
    in_offsets: Vec<usize>,
    in_sources: Vec<VertexId>,
    in_weights: Vec<f64>,
}

impl Csr {
    /// The one CSR assembly. Lays out `n` vertices and `edges`, a run
    /// sorted by `(src, dst)` without duplicates and with every endpoint
    /// below `n`: the out-arrays straight from the run, then the in-arrays
    /// by a counting sort on destination. Walking sources in order leaves
    /// each in-list sorted by source, so both directions support binary
    /// search and equal runs give equal arrays.
    pub(crate) fn from_sorted_edges(n: usize, edges: &[(VertexId, VertexId, f64)]) -> Self {
        debug_assert!(edges
            .windows(2)
            .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        let m = edges.len();
        let mut out_offsets = vec![0usize; n + 1];
        let mut in_offsets = vec![0usize; n + 1];
        for &(s, d, _) in edges {
            out_offsets[s.index() + 1] += 1;
            in_offsets[d.index() + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
            in_offsets[i + 1] += in_offsets[i];
        }
        let out_targets = edges.iter().map(|&(_, d, _)| d).collect();
        let out_weights = edges.iter().map(|&(_, _, w)| w).collect();
        let mut cursor = in_offsets.clone();
        let mut in_sources = vec![VertexId(0); m];
        let mut in_weights = vec![0.0f64; m];
        for &(s, d, w) in edges {
            let pos = &mut cursor[d.index()];
            in_sources[*pos] = s;
            in_weights[*pos] = w;
            *pos += 1;
        }
        Csr {
            out_offsets,
            out_targets,
            out_weights,
            in_offsets,
            in_sources,
            in_weights,
        }
    }

    /// An empty graph with `n` isolated vertices.
    pub fn empty(n: usize) -> Self {
        Self::from_sorted_edges(n, &[])
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.out_offsets.len() - 1
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out_targets.len()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        let i = v.index();
        self.out_offsets[i + 1] - self.out_offsets[i]
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        let i = v.index();
        self.in_offsets[i + 1] - self.in_offsets[i]
    }

    /// Degree in the requested direction.
    #[inline]
    pub fn degree(&self, v: VertexId, dir: Direction) -> usize {
        match dir {
            Direction::Out => self.out_degree(v),
            Direction::In => self.in_degree(v),
        }
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.num_vertices() as u64).map(VertexId)
    }

    /// Outgoing edges of `v` as `(neighbor, weight)` refs.
    pub fn out_edges(&self, v: VertexId) -> impl Iterator<Item = EdgeRef> + '_ {
        let i = v.index();
        let range = self.out_offsets[i]..self.out_offsets[i + 1];
        self.out_targets[range.clone()]
            .iter()
            .zip(&self.out_weights[range])
            .map(|(&neighbor, &weight)| EdgeRef { neighbor, weight })
    }

    /// Incoming edges of `v`: the `neighbor` field is the edge *source*.
    pub fn in_edges(&self, v: VertexId) -> impl Iterator<Item = EdgeRef> + '_ {
        let i = v.index();
        let range = self.in_offsets[i]..self.in_offsets[i + 1];
        self.in_sources[range.clone()]
            .iter()
            .zip(&self.in_weights[range])
            .map(|(&neighbor, &weight)| EdgeRef { neighbor, weight })
    }

    /// Outgoing neighbour ids of `v` (no weights).
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        let i = v.index();
        &self.out_targets[self.out_offsets[i]..self.out_offsets[i + 1]]
    }

    /// Incoming neighbour ids of `v` (no weights).
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        let i = v.index();
        &self.in_sources[self.in_offsets[i]..self.in_offsets[i + 1]]
    }

    /// Neighbour ids of `v` in direction `dir` with their edge weights,
    /// as two aligned slices sorted by neighbour id (for
    /// [`Direction::In`] the neighbours are the edge sources).
    #[inline]
    pub fn adjacency(&self, v: VertexId, dir: Direction) -> (&[VertexId], &[f64]) {
        let i = v.index();
        let (offsets, ids, weights) = match dir {
            Direction::Out => (&self.out_offsets, &self.out_targets, &self.out_weights),
            Direction::In => (&self.in_offsets, &self.in_sources, &self.in_weights),
        };
        let range = offsets[i]..offsets[i + 1];
        (&ids[range.clone()], &weights[range])
    }

    /// Weight of edge `src -> dst`, if present. Binary search over the
    /// sorted adjacency list.
    pub fn edge_weight(&self, src: VertexId, dst: VertexId) -> Option<f64> {
        let i = src.index();
        let range = self.out_offsets[i]..self.out_offsets[i + 1];
        let slice = &self.out_targets[range.clone()];
        slice
            .binary_search(&dst)
            .ok()
            .map(|pos| self.out_weights[range.start + pos])
    }

    /// Whether the edge `src -> dst` exists.
    pub fn has_edge(&self, src: VertexId, dst: VertexId) -> bool {
        self.edge_weight(src, dst).is_some()
    }

    /// Iterator over every directed edge `(src, dst, weight)`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId, f64)> + '_ {
        self.vertices().flat_map(move |src| {
            self.out_edges(src)
                .map(move |e| (src, e.neighbor, e.weight))
        })
    }

    /// The vertex with the largest out-degree (ties broken by smaller id).
    ///
    /// The paper uses the highest-degree vertex as the seed for the custom
    /// forward-lineage capture (Query 3) on PageRank and WCC.
    pub fn max_out_degree_vertex(&self) -> Option<VertexId> {
        self.vertices()
            .max_by_key(|&v| (self.out_degree(v), std::cmp::Reverse(v.0)))
    }

    /// The out-adjacency offset array: `out_offsets()[i]` is the number of
    /// out-edges owned by vertices `0..i`, i.e. the exclusive prefix sum of
    /// out-degrees, with a final entry equal to [`Csr::num_edges`].
    ///
    /// The parallel engine uses this to cut degree-weighted chunk
    /// boundaries so each worker owns ~equal edge work rather than ~equal
    /// vertex counts (power-law graphs are badly imbalanced otherwise).
    #[inline]
    pub fn out_offsets(&self) -> &[usize] {
        &self.out_offsets
    }

    /// Approximate in-memory footprint in bytes of the CSR arrays.
    ///
    /// Used as the "input graph size" denominator in Tables 3 and 4.
    pub fn byte_size(&self) -> usize {
        self.out_offsets.len() * std::mem::size_of::<usize>()
            + self.in_offsets.len() * std::mem::size_of::<usize>()
            + self.out_targets.len() * std::mem::size_of::<VertexId>()
            + self.in_sources.len() * std::mem::size_of::<VertexId>()
            + self.out_weights.len() * std::mem::size_of::<f64>()
            + self.in_weights.len() * std::mem::size_of::<f64>()
    }

    /// A copy of this graph with every edge weight replaced by
    /// `f(src, dst, weight)`. Used to assign random positive weights for
    /// SSSP as the paper does ("random positive weights in the range 0-1").
    pub fn map_weights(&self, mut f: impl FnMut(VertexId, VertexId, f64) -> f64) -> Csr {
        let mut edges = Vec::with_capacity(self.num_edges());
        edges.extend(self.edges().map(|(s, d, w)| (s, d, f(s, d, w))));
        Csr::from_sorted_edges(self.num_vertices(), &edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle() -> Csr {
        let mut b = GraphBuilder::new();
        b.add_edge(VertexId(0), VertexId(1), 1.0);
        b.add_edge(VertexId(1), VertexId(2), 2.0);
        b.add_edge(VertexId(2), VertexId(0), 3.0);
        b.build()
    }

    #[test]
    fn basic_counts() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        for v in g.vertices() {
            assert_eq!(g.out_degree(v), 1);
            assert_eq!(g.in_degree(v), 1);
            assert_eq!(g.degree(v, Direction::Out), 1);
            assert_eq!(g.degree(v, Direction::In), 1);
        }
    }

    #[test]
    fn adjacency_and_weights() {
        let g = triangle();
        assert_eq!(g.out_neighbors(VertexId(0)), &[VertexId(1)]);
        assert_eq!(g.in_neighbors(VertexId(0)), &[VertexId(2)]);
        assert_eq!(g.edge_weight(VertexId(1), VertexId(2)), Some(2.0));
        assert_eq!(
            g.adjacency(VertexId(1), Direction::Out),
            (&[VertexId(2)][..], &[2.0][..])
        );
        assert_eq!(
            g.adjacency(VertexId(1), Direction::In),
            (&[VertexId(0)][..], &[1.0][..])
        );
        assert_eq!(g.edge_weight(VertexId(2), VertexId(1)), None);
        assert!(g.has_edge(VertexId(2), VertexId(0)));
        assert!(!g.has_edge(VertexId(0), VertexId(2)));
    }

    #[test]
    fn in_edges_carry_source_weight() {
        let g = triangle();
        let ins: Vec<_> = g.in_edges(VertexId(2)).collect();
        assert_eq!(ins.len(), 1);
        assert_eq!(ins[0].neighbor, VertexId(1));
        assert_eq!(ins[0].weight, 2.0);
    }

    #[test]
    fn edges_iterator_visits_all() {
        let g = triangle();
        let all: Vec<_> = g.edges().collect();
        assert_eq!(all.len(), 3);
        assert!(all.contains(&(VertexId(0), VertexId(1), 1.0)));
        assert!(all.contains(&(VertexId(2), VertexId(0), 3.0)));
    }

    #[test]
    fn empty_graph() {
        let g = Csr::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.out_degree(VertexId(4)), 0);
        assert!(g.max_out_degree_vertex().is_some());
    }

    #[test]
    fn max_degree_vertex() {
        let mut b = GraphBuilder::new();
        b.add_edge(VertexId(3), VertexId(0), 1.0);
        b.add_edge(VertexId(3), VertexId(1), 1.0);
        b.add_edge(VertexId(3), VertexId(2), 1.0);
        b.add_edge(VertexId(0), VertexId(1), 1.0);
        let g = b.build();
        assert_eq!(g.max_out_degree_vertex(), Some(VertexId(3)));
    }

    #[test]
    fn map_weights_rewrites_both_directions() {
        let g = triangle().map_weights(|_, _, w| w * 10.0);
        assert_eq!(g.edge_weight(VertexId(1), VertexId(2)), Some(20.0));
        let ins: Vec<_> = g.in_edges(VertexId(2)).collect();
        assert_eq!(ins[0].weight, 20.0);
    }

    #[test]
    fn map_weights_keeps_the_vertex_count() {
        assert_eq!(Csr::empty(0).map_weights(|_, _, w| w).num_vertices(), 0);
        let g = Csr::empty(4).map_weights(|_, _, w| w);
        assert_eq!((g.num_vertices(), g.num_edges()), (4, 0));
    }

    #[test]
    fn byte_size_positive_and_monotone() {
        let small = Csr::empty(2).byte_size();
        let big = triangle().byte_size();
        assert!(big > small || small > 0);
        assert!(triangle().byte_size() > 0);
    }
}
