//! Mutable edge-list accumulator that finalizes into a [`Csr`].

use crate::csr::Csr;
use crate::types::VertexId;

/// Accumulates edges and produces an immutable [`Csr`].
///
/// Duplicate edges are deduplicated at [`GraphBuilder::build`] time keeping
/// the *last* weight inserted, matching the overwrite semantics of loading
/// an edge list into Giraph. Adjacency lists are sorted by neighbour id so
/// the CSR supports binary-search edge lookup.
#[derive(Default, Clone, Debug)]
pub struct GraphBuilder {
    edges: Vec<(VertexId, VertexId, f64)>,
    max_vertex: Option<VertexId>,
}

impl GraphBuilder {
    /// A fresh, empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// A builder with pre-allocated capacity for `edges` edges.
    pub fn with_capacity(_vertices: usize, edges: usize) -> Self {
        GraphBuilder {
            edges: Vec::with_capacity(edges),
            max_vertex: None,
        }
    }

    /// Add a directed edge `src -> dst` with `weight`.
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId, weight: f64) {
        self.ensure_vertex(src);
        self.ensure_vertex(dst);
        self.edges.push((src, dst, weight));
    }

    /// Add both `a -> b` and `b -> a` with the same weight.
    pub fn add_undirected_edge(&mut self, a: VertexId, b: VertexId, weight: f64) {
        self.add_edge(a, b, weight);
        self.add_edge(b, a, weight);
    }

    /// Make sure vertex `v` exists even if isolated.
    pub fn ensure_vertex(&mut self, v: VertexId) {
        match self.max_vertex {
            Some(m) if m >= v => {}
            _ => self.max_vertex = Some(v),
        }
    }

    /// Finalize into a CSR. Consumes the builder.
    pub fn build(mut self) -> Csr {
        let n = self.max_vertex.map(|v| v.index() + 1).unwrap_or(0);
        // Sort by (src, dst) (stable, so equal pairs keep insertion
        // order), then dedup keeping the last weight.
        self.edges.sort_by_key(|&(s, d, _)| (s, d));
        self.edges.dedup_by(|later, kept| {
            let same = (later.0, later.1) == (kept.0, kept.1);
            if same {
                kept.2 = later.2;
            }
            same
        });
        Csr::from_sorted_edges(n, &self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_keeps_last_weight() {
        let mut b = GraphBuilder::new();
        b.add_edge(VertexId(0), VertexId(1), 1.0);
        b.add_edge(VertexId(0), VertexId(1), 9.0);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(VertexId(0), VertexId(1)), Some(9.0));
    }

    #[test]
    fn isolated_vertices_are_kept() {
        let mut b = GraphBuilder::new();
        b.ensure_vertex(VertexId(9));
        b.add_edge(VertexId(0), VertexId(1), 1.0);
        let g = b.build();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.out_degree(VertexId(9)), 0);
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn undirected_edges_appear_both_ways() {
        let mut b = GraphBuilder::new();
        b.add_undirected_edge(VertexId(0), VertexId(1), 4.0);
        let g = b.build();
        assert_eq!(g.edge_weight(VertexId(0), VertexId(1)), Some(4.0));
        assert_eq!(g.edge_weight(VertexId(1), VertexId(0)), Some(4.0));
    }

    #[test]
    fn out_lists_sorted() {
        let mut b = GraphBuilder::new();
        b.add_edge(VertexId(0), VertexId(5), 1.0);
        b.add_edge(VertexId(0), VertexId(2), 1.0);
        b.add_edge(VertexId(0), VertexId(8), 1.0);
        let g = b.build();
        let ns = g.out_neighbors(VertexId(0));
        assert_eq!(ns, &[VertexId(2), VertexId(5), VertexId(8)]);
    }

    #[test]
    fn in_lists_sorted_and_complete() {
        let mut b = GraphBuilder::new();
        b.add_edge(VertexId(3), VertexId(0), 1.0);
        b.add_edge(VertexId(1), VertexId(0), 1.0);
        b.add_edge(VertexId(2), VertexId(0), 1.0);
        let g = b.build();
        assert_eq!(
            g.in_neighbors(VertexId(0)),
            &[VertexId(1), VertexId(2), VertexId(3)]
        );
    }
}
