//! The unfolded provenance graph and its layer decomposition.
//!
//! §3 defines the provenance graph with one node per (vertex, superstep)
//! execution, *evolution* edges between consecutive activations of the
//! same vertex, and *message* edges following the send/receive exchanges
//! (a message sent at superstep `i` connects to the receiver's node at
//! `i + 1`). Definition 5.1 decomposes it into layers by iteratively
//! peeling leaves; for provenance DAGs this coincides with topological
//! levels, and — for the standard analytics — with the superstep index,
//! which is exactly why layered evaluation can materialize one superstep
//! at a time.
//!
//! The compact representation (per-vertex relations) is Ariadne's working
//! format; this module exists for the naive mode's whole-graph view and
//! for tests that verify compact ≡ unfolded.

use ariadne_pql::Database;
use std::collections::HashMap;

/// A node of the unfolded graph: (vertex id, superstep).
pub type ProvNode = (u64, u32);

/// The unfolded provenance graph.
#[derive(Clone, Debug, Default)]
pub struct UnfoldedGraph {
    nodes: Vec<ProvNode>,
    index: HashMap<ProvNode, usize>,
    out: Vec<Vec<usize>>,
    incoming: Vec<Vec<usize>>,
}

impl UnfoldedGraph {
    /// Build from a database holding full provenance (`superstep`,
    /// `evolution`, `send_message` and/or `receive_message` relations).
    pub fn from_database(db: &Database) -> Self {
        Self::from_database_owned_by(db, |_| true)
    }

    /// [`UnfoldedGraph::from_database`] over the rows whose owner (first
    /// column) `owned` accepts.
    pub fn from_database_owned_by(db: &Database, owned: impl Fn(u64) -> bool) -> Self {
        let mut g = UnfoldedGraph::default();
        let rows = |pred: &str| {
            let rows = db.relation(pred).map_or(&[][..], |rel| rel.scan());
            rows.iter().filter(|t| t[0].as_id().is_some_and(&owned))
        };

        // Nodes from the superstep relation.
        for t in rows("superstep") {
            if let (Some(x), Some(i)) = (t[0].as_id(), t[1].as_i64()) {
                g.add_node((x, i as u32));
            }
        }
        // Evolution edges: (x, i) -> (x, j).
        for t in rows("evolution") {
            if let (Some(x), Some(i), Some(j)) = (t[0].as_id(), t[1].as_i64(), t[2].as_i64()) {
                g.add_edge((x, i as u32), (x, j as u32));
            }
        }
        // Message edges from the receiver's perspective:
        // receive_message(x, y, m, i) means y's node at i-1 sent to x's
        // node at i.
        for t in rows("receive_message") {
            if let (Some(x), Some(y), Some(i)) = (t[0].as_id(), t[1].as_id(), t[3].as_i64()) {
                if i > 0 && y != u64::MAX {
                    g.add_edge((y, i as u32 - 1), (x, i as u32));
                }
            }
        }
        // And from the sender's perspective:
        // send_message(x, y, m, i) means x's node at i sent to y at i+1.
        for t in rows("send_message") {
            if let (Some(x), Some(y), Some(i)) = (t[0].as_id(), t[1].as_id(), t[3].as_i64()) {
                g.add_edge((x, i as u32), (y, i as u32 + 1));
            }
        }
        g
    }

    /// Add a node (idempotent); returns its index.
    pub fn add_node(&mut self, n: ProvNode) -> usize {
        if let Some(&i) = self.index.get(&n) {
            return i;
        }
        let i = self.nodes.len();
        self.nodes.push(n);
        self.index.insert(n, i);
        self.out.push(Vec::new());
        self.incoming.push(Vec::new());
        i
    }

    /// Add an edge, creating endpoints as needed (message edges may point
    /// at nodes the capture didn't record as active — e.g. a receiver
    /// that halted; we keep them, matching Figure 3 where x at i+1
    /// appears even though it does not update).
    pub fn add_edge(&mut self, from: ProvNode, to: ProvNode) {
        let f = self.add_node(from);
        let t = self.add_node(to);
        if !self.out[f].contains(&t) {
            self.out[f].push(t);
            self.incoming[t].push(f);
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.out.iter().map(Vec::len).sum()
    }

    /// The nodes.
    pub fn nodes(&self) -> &[ProvNode] {
        &self.nodes
    }

    /// Successors of a node.
    pub fn successors(&self, n: ProvNode) -> Vec<ProvNode> {
        match self.index.get(&n) {
            Some(&i) => self.out[i].iter().map(|&j| self.nodes[j]).collect(),
            None => Vec::new(),
        }
    }

    /// Layer decomposition per Definition 5.1: L0 is the set of leaves
    /// (no incoming edges); L_{i} the leaves after removing earlier
    /// layers. Returns `None` if the graph has a cycle (which a valid
    /// provenance graph cannot).
    pub fn layers(&self) -> Option<Layers> {
        let n = self.nodes.len();
        let mut indeg: Vec<usize> = self.incoming.iter().map(Vec::len).collect();
        let mut level = vec![usize::MAX; n];
        let mut frontier: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0usize;
        let mut levels: Vec<Vec<usize>> = Vec::new();
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &i in &frontier {
                level[i] = levels.len();
                seen += 1;
                for &j in &self.out[i] {
                    indeg[j] -= 1;
                    if indeg[j] == 0 {
                        next.push(j);
                    }
                }
            }
            levels.push(std::mem::take(&mut frontier));
            frontier = next;
        }
        if seen != n {
            return None; // cycle
        }
        Some(Layers {
            levels,
            level,
            nodes: self.nodes.clone(),
        })
    }
}

/// A layer decomposition of an [`UnfoldedGraph`].
#[derive(Clone, Debug)]
pub struct Layers {
    levels: Vec<Vec<usize>>,
    level: Vec<usize>,
    nodes: Vec<ProvNode>,
}

impl Layers {
    /// Number of layers (n + 1 for an n-superstep analytic, §5.1).
    pub fn num_layers(&self) -> usize {
        self.levels.len()
    }

    /// The nodes of layer `i`.
    pub fn layer(&self, i: usize) -> Vec<ProvNode> {
        self.levels
            .get(i)
            .map(|idxs| idxs.iter().map(|&j| self.nodes[j]).collect())
            .unwrap_or_default()
    }

    /// The layer a node belongs to.
    pub fn layer_of(&self, n: ProvNode) -> Option<usize> {
        self.nodes
            .iter()
            .position(|&m| m == n)
            .map(|i| self.level[i])
    }

    /// Check the layers form a partition of the node set.
    pub fn is_partition(&self) -> bool {
        let total: usize = self.levels.iter().map(Vec::len).sum();
        total == self.nodes.len() && self.level.iter().all(|&l| l != usize::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariadne_pql::Value;

    /// The running example of Figure 3: y sends to x at i-1; x updates at
    /// i and sends to z; z receives at i+1 without updating.
    fn figure3() -> UnfoldedGraph {
        let mut db = Database::new();
        let step = |x: u64, i: i64| vec![Value::Id(x), Value::Int(i)];
        db.insert("superstep", step(1, 0)); // y at i-1
        db.insert("superstep", step(0, 1)); // x at i
        db.insert(
            "receive_message",
            vec![Value::Id(0), Value::Id(1), Value::Float(1.0), Value::Int(1)],
        );
        db.insert(
            "send_message",
            vec![Value::Id(0), Value::Id(2), Value::Float(2.0), Value::Int(1)],
        );
        UnfoldedGraph::from_database(&db)
    }

    #[test]
    fn builds_figure3_shape() {
        let g = figure3();
        // Nodes: (1,0), (0,1), (2,2) — receiver z materialized by the edge.
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.successors((1, 0)), vec![(0, 1)]);
        assert_eq!(g.successors((0, 1)), vec![(2, 2)]);
    }

    #[test]
    fn layers_match_supersteps() {
        let g = figure3();
        let layers = g.layers().unwrap();
        assert_eq!(layers.num_layers(), 3);
        assert!(layers.is_partition());
        assert_eq!(layers.layer(0), vec![(1, 0)]);
        assert_eq!(layers.layer_of((0, 1)), Some(1));
        assert_eq!(layers.layer_of((2, 2)), Some(2));
    }

    #[test]
    fn evolution_edges_connect_instances() {
        let mut g = UnfoldedGraph::default();
        g.add_edge((5, 0), (5, 2));
        g.add_edge((5, 2), (5, 3));
        assert_eq!(g.num_nodes(), 3);
        let layers = g.layers().unwrap();
        assert_eq!(layers.num_layers(), 3);
    }

    #[test]
    fn duplicate_edges_ignored() {
        let mut g = UnfoldedGraph::default();
        g.add_edge((1, 0), (2, 1));
        g.add_edge((1, 0), (2, 1));
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn cycle_detected() {
        let mut g = UnfoldedGraph::default();
        g.add_edge((1, 0), (2, 1));
        g.add_edge((2, 1), (1, 0)); // impossible in real provenance
        assert!(g.layers().is_none());
    }

    #[test]
    fn combined_sources_skipped() {
        let mut db = Database::new();
        db.insert(
            "receive_message",
            vec![
                Value::Id(0),
                Value::Id(u64::MAX), // combiner sentinel
                Value::Float(1.0),
                Value::Int(1),
            ],
        );
        let g = UnfoldedGraph::from_database(&db);
        assert_eq!(g.num_edges(), 0);
    }
}
