//! The per-vertex compute context.
//!
//! [`Context`] is a trait (rather than a concrete engine struct) so that
//! Ariadne's online evaluation can hand the *analytic* a recording shim
//! that observes and forwards its sends, while the engine itself stays
//! unmodified — the architectural point of the paper (§2.2, Figures 1–2).

use crate::aggregate::AggValue;
use ariadne_graph::{Csr, Direction, EdgeRef, VertexId};

/// Everything a vertex program may do during `compute`.
pub trait Context<M> {
    /// The current superstep (0-based).
    fn superstep(&self) -> u32;

    /// The id of the vertex currently computing.
    fn vertex(&self) -> VertexId;

    /// The index of the engine chunk this call runs in. A chunk's calls
    /// run on one thread, one after another, in ascending vertex order,
    /// so state kept per chunk sees its vertices in id order.
    fn chunk(&self) -> usize;

    /// The (immutable) input graph.
    fn graph(&self) -> &Csr;

    /// Send `msg` to vertex `to`; it will be delivered at the next
    /// superstep. `to` need not be a neighbour (Giraph allows send-by-id,
    /// which is exactly the failure mode the paper's Query 4 monitors).
    fn send(&mut self, to: VertexId, msg: M);

    /// Contribute `value` to the named global aggregator.
    fn aggregate(&mut self, name: &str, value: AggValue);

    /// Read the named aggregator's reduction from the previous superstep.
    fn prev_aggregate(&self, name: &str) -> Option<AggValue>;

    /// Number of vertices in the graph (convenience).
    fn num_vertices(&self) -> usize {
        self.graph().num_vertices()
    }

    /// Out-degree of the computing vertex.
    fn out_degree(&self) -> usize {
        self.graph().out_degree(self.vertex())
    }

    /// Send `msg(edge)` along every edge of the computing vertex in
    /// direction `dir`, in adjacency order: the fan-out primitive every
    /// analytic that messages its neighbours goes through.
    ///
    /// The provided body is one [`Context::send`] per edge and allocates
    /// nothing; the engine's own context overrides it to route a whole
    /// neighbour slice at once.
    fn send_along(&mut self, dir: Direction, msg: &dyn Fn(EdgeRef) -> M) {
        let v = self.vertex();
        for i in 0..self.graph().degree(v, dir) {
            let (ids, weights) = self.graph().adjacency(v, dir);
            let edge = EdgeRef {
                neighbor: ids[i],
                weight: weights[i],
            };
            self.send(edge.neighbor, msg(edge));
        }
    }

    /// Send the same message along every outgoing edge.
    fn send_to_out_neighbors(&mut self, msg: M)
    where
        M: Clone,
    {
        self.send_along(Direction::Out, &|_| msg.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariadne_graph::generators::regular::star;

    /// A minimal mock context for exercising the provided methods.
    struct Mock {
        graph: Csr,
        sent: Vec<(VertexId, u32)>,
        vertex: VertexId,
    }

    impl Context<u32> for Mock {
        fn superstep(&self) -> u32 {
            7
        }
        fn vertex(&self) -> VertexId {
            self.vertex
        }
        fn chunk(&self) -> usize {
            0
        }
        fn graph(&self) -> &Csr {
            &self.graph
        }
        fn send(&mut self, to: VertexId, msg: u32) {
            self.sent.push((to, msg));
        }
        fn aggregate(&mut self, _: &str, _: AggValue) {}
        fn prev_aggregate(&self, _: &str) -> Option<AggValue> {
            None
        }
    }

    #[test]
    fn send_to_out_neighbors_fans_out() {
        let mut m = Mock {
            graph: star(4),
            sent: Vec::new(),
            vertex: VertexId(0),
        };
        m.send_to_out_neighbors(42);
        assert_eq!(
            m.sent,
            vec![(VertexId(1), 42), (VertexId(2), 42), (VertexId(3), 42)]
        );
    }

    #[test]
    fn send_along_follows_the_direction_with_edge_weights() {
        let mut m = Mock {
            graph: star(4),
            sent: Vec::new(),
            vertex: VertexId(2),
        };
        m.send_along(Direction::Out, &|e| e.neighbor.0 as u32);
        assert!(m.sent.is_empty(), "a leaf of the star has no out-edges");
        m.send_along(Direction::In, &|e| {
            10 * e.weight as u32 + e.neighbor.0 as u32
        });
        assert_eq!(m.sent, vec![(VertexId(0), 10)]);
    }

    #[test]
    fn provided_accessors() {
        let m = Mock {
            graph: star(4),
            sent: Vec::new(),
            vertex: VertexId(0),
        };
        assert_eq!(m.num_vertices(), 4);
        assert_eq!(m.out_degree(), 3);
        assert_eq!(m.superstep(), 7);
    }
}
