//! Generating the provenance EDB tuples of Table 1.
//!
//! This is the *compact representation* of §3: rather than materializing
//! an unfolded provenance node per (vertex, superstep), each input-graph
//! vertex is annotated with relations (`value`, `send_message`,
//! `receive_message`, `superstep`, `evolution`, `edge_value`) holding one
//! tuple per superstep event.
//!
//! Generation is *customized by the query*: only the predicates flagged in
//! [`EdbFlags`] are produced, which is how declarative capture cuts space
//! and time (Tables 3–4 vs Figure 7).
//!
//! Tuples go straight into the vertex's [`Database`]: the caller hands
//! [`EdbTracker::record_step`] the value and the message streams it
//! already holds, each relation is looked up and `reserve`d once for the
//! step's batch, and a value or message is encoded only if a flagged
//! predicate stores it. Nothing is built in between — no per-step record,
//! no list of `(predicate, tuple)` pairs — so a vertex-superstep allocates
//! the tuples it stores and nothing else.

use ariadne_graph::{Csr, VertexId};
use ariadne_pql::{Database, Value};
use std::collections::BTreeSet;

/// Per-vertex EDB generator. Holds the vertex's activation history so it
/// can emit `evolution` tuples.
#[derive(Clone, Debug, Default)]
pub struct EdbTracker {
    last_active: Option<u32>,
}

/// Which Table-1 predicates to generate, by name.
pub type NeededEdbs = BTreeSet<String>;

/// [`NeededEdbs`] resolved to one flag per predicate this module can
/// generate — done once per run, so the per-vertex path tests booleans
/// instead of looking names up in a set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EdbFlags {
    /// `superstep(x, i)`.
    pub superstep: bool,
    /// `value(x, d, i)`.
    pub value: bool,
    /// `evolution(x, j, i)`.
    pub evolution: bool,
    /// `receive_message(x, y, m, i)`.
    pub receive_message: bool,
    /// `send_message(x, y, m, i)`.
    pub send_message: bool,
    /// `edge_value(x, y, w, i)`.
    pub edge_value: bool,
    /// The static `edge(x, y)`.
    pub edge: bool,
    /// The static `in_edge(x, y)`.
    pub in_edge: bool,
}

impl EdbFlags {
    /// The flags for a set of predicate names (names this module does not
    /// generate — custom provenance relations — are ignored).
    pub fn of(needed: &NeededEdbs) -> Self {
        EdbFlags {
            superstep: needed.contains("superstep"),
            value: needed.contains("value"),
            evolution: needed.contains("evolution"),
            receive_message: needed.contains("receive_message"),
            send_message: needed.contains("send_message"),
            edge_value: needed.contains("edge_value"),
            edge: needed.contains("edge"),
            in_edge: needed.contains("in_edge"),
        }
    }
}

impl EdbTracker {
    /// Fresh tracker (vertex never active yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// The last superstep this vertex computed in, if any.
    pub fn last_active(&self) -> Option<u32> {
        self.last_active
    }

    /// Rebuild a tracker from a recorded activation history — used when
    /// restoring per-vertex state from a checkpoint.
    pub fn from_last_active(last_active: Option<u32>) -> Self {
        EdbTracker { last_active }
    }

    /// Insert the flagged Table-1 tuples of one vertex-superstep into
    /// `db` and advance the activation history. `value` is the vertex
    /// value *after* computing; `received` and `sent` yield `(peer,
    /// message)` in delivery and send order. All three are encoded
    /// lazily: a stream is not touched unless its predicate is flagged.
    #[allow(clippy::too_many_arguments)]
    pub fn record_step(
        &mut self,
        db: &mut Database,
        flags: EdbFlags,
        graph: &Csr,
        vertex: VertexId,
        superstep: u32,
        value: impl FnOnce() -> Value,
        received: impl ExactSizeIterator<Item = (VertexId, Value)>,
        sent: impl ExactSizeIterator<Item = (VertexId, Value)>,
    ) {
        let x = Value::Id(vertex.0);
        let i = Value::Int(superstep as i64);
        if flags.superstep {
            db.relation_mut("superstep", 2).insert(vec![x.clone(), i.clone()]);
        }
        if flags.value {
            db.relation_mut("value", 3)
                .insert(vec![x.clone(), value(), i.clone()]);
        }
        if let (true, Some(prev)) = (flags.evolution, self.last_active) {
            db.relation_mut("evolution", 3)
                .insert(vec![x.clone(), Value::Int(prev as i64), i.clone()]);
        }
        if flags.receive_message {
            insert_peer_tuples(db, "receive_message", &x, &i, received.len(), received);
        }
        if flags.send_message {
            insert_peer_tuples(db, "send_message", &x, &i, sent.len(), sent);
        }
        if flags.edge_value {
            let weights = graph
                .out_edges(vertex)
                .map(|e| (e.neighbor, Value::Float(e.weight)));
            let n = graph.out_neighbors(vertex).len();
            insert_peer_tuples(db, "edge_value", &x, &i, n, weights);
        }
        self.last_active = Some(superstep);
    }
}

/// Insert one `pred(x, peer, payload, i)` tuple per item of `peers` (`n`
/// of them) into `db`; the relation is not created for an empty batch.
fn insert_peer_tuples(
    db: &mut Database,
    pred: &str,
    x: &Value,
    i: &Value,
    n: usize,
    peers: impl Iterator<Item = (VertexId, Value)>,
) {
    if n == 0 {
        return;
    }
    let rel = db.relation_mut(pred, 4);
    rel.reserve(n);
    for (peer, payload) in peers {
        rel.insert(vec![x.clone(), Value::Id(peer.0), payload, i.clone()]);
    }
}

/// Insert the flagged static graph-structure tuples (`edge`, `in_edge`)
/// of one vertex into `db` — done once per vertex, when the query
/// references them.
pub fn insert_static_edbs(db: &mut Database, flags: EdbFlags, graph: &Csr, vertex: VertexId) {
    let x = Value::Id(vertex.0);
    let wanted = [
        (flags.edge, "edge", graph.out_neighbors(vertex)),
        (flags.in_edge, "in_edge", graph.in_neighbors(vertex)),
    ];
    for (_, pred, neighbors) in wanted.into_iter().filter(|(on, _, ns)| *on && !ns.is_empty()) {
        let rel = db.relation_mut(pred, 2);
        rel.reserve(neighbors.len());
        for y in neighbors {
            rel.insert(vec![x.clone(), Value::Id(y.0)]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariadne_graph::generators::regular::star;
    use ariadne_pql::Tuple;

    fn flags(preds: &[&str]) -> EdbFlags {
        EdbFlags::of(&preds.iter().map(|s| s.to_string()).collect())
    }

    /// One step of vertex `v` of a 4-star: value 0.5, one message
    /// received from 9, one sent to 8.
    fn step(t: &mut EdbTracker, db: &mut Database, flags: EdbFlags, v: u64, superstep: u32) {
        t.record_step(
            db,
            flags,
            &star(4),
            VertexId(v),
            superstep,
            || Value::Float(0.5),
            [(VertexId(9), Value::Float(0.1))].into_iter(),
            [(VertexId(8), Value::Float(0.2))].into_iter(),
        );
    }

    fn tuples(db: &Database, pred: &str) -> Vec<Tuple> {
        db.relation(pred).map(|r| r.scan().to_vec()).unwrap_or_default()
    }

    #[test]
    fn generates_only_needed_predicates() {
        let (mut t, mut db) = (EdbTracker::new(), Database::new());
        step(&mut t, &mut db, flags(&["value", "superstep"]), 1, 0);
        let preds: Vec<&str> = db.iter().map(|(p, _)| p).collect();
        assert_eq!(preds, vec!["superstep", "value"]);
        assert_eq!(tuples(&db, "superstep"), vec![vec![Value::Id(1), Value::Int(0)]]);
        assert_eq!(
            tuples(&db, "value"),
            vec![vec![Value::Id(1), Value::Float(0.5), Value::Int(0)]]
        );
    }

    #[test]
    fn unflagged_streams_are_not_consumed() {
        let (mut t, mut db) = (EdbTracker::new(), Database::new());
        let touched = std::cell::Cell::new(false);
        let watch = |m| {
            touched.set(true);
            (VertexId(9), m)
        };
        t.record_step(
            &mut db,
            flags(&["superstep"]),
            &star(4),
            VertexId(1),
            0,
            || panic!("value is not flagged"),
            [Value::Unit].into_iter().map(watch),
            [Value::Unit].into_iter().map(watch),
        );
        assert!(!touched.get());
        assert_eq!(db.total_tuples(), 1);
    }

    #[test]
    fn evolution_needs_history() {
        let (mut t, mut db) = (EdbTracker::new(), Database::new());
        let f = flags(&["evolution"]);
        step(&mut t, &mut db, f, 1, 0);
        assert!(db.is_empty());
        step(&mut t, &mut db, f, 1, 2);
        assert_eq!(
            tuples(&db, "evolution"),
            vec![vec![Value::Id(1), Value::Int(0), Value::Int(2)]]
        );
        assert_eq!(t.last_active(), Some(2));
    }

    #[test]
    fn message_tuples_carry_peers() {
        let (mut t, mut db) = (EdbTracker::new(), Database::new());
        step(&mut t, &mut db, flags(&["receive_message", "send_message"]), 1, 3);
        assert_eq!(
            tuples(&db, "receive_message"),
            vec![vec![Value::Id(1), Value::Id(9), Value::Float(0.1), Value::Int(3)]]
        );
        assert_eq!(
            tuples(&db, "send_message"),
            vec![vec![Value::Id(1), Value::Id(8), Value::Float(0.2), Value::Int(3)]]
        );
    }

    #[test]
    fn edge_value_tuples() {
        let (mut t, mut db) = (EdbTracker::new(), Database::new());
        // The hub of a 4-star has three unit-weight out-edges.
        step(&mut t, &mut db, flags(&["edge_value"]), 0, 0);
        let out = tuples(&db, "edge_value");
        assert_eq!(out.len(), 3);
        assert_eq!(
            out[0],
            vec![Value::Id(0), Value::Id(1), Value::Float(1.0), Value::Int(0)]
        );
    }

    #[test]
    fn static_edbs() {
        let g = star(4);
        let mut db = Database::new();
        insert_static_edbs(&mut db, flags(&["edge"]), &g, VertexId(0));
        assert_eq!(db.len("edge"), 3);
        insert_static_edbs(&mut db, flags(&["in_edge"]), &g, VertexId(2));
        assert_eq!(tuples(&db, "in_edge"), vec![vec![Value::Id(2), Value::Id(0)]]);
        let before = db.total_tuples();
        insert_static_edbs(&mut db, flags(&[]), &g, VertexId(0));
        assert_eq!(db.total_tuples(), before);
    }
}
