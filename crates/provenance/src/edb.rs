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
//! [`EdbTracker::record_step`] does not know where rows go. The caller
//! hands it the value and the message streams it already holds; a value or
//! message is encoded only if a flagged predicate stores it, each row is
//! built on the stack, and an [`EdbSink`] says, once per predicate of the
//! step, where that predicate's rows land — a [`Dest`]: a relation of the
//! vertex's [`Database`] (online evaluation, where rules join against
//! them), a [`RowBlock`] on its way to the store (capture), both, or
//! neither. Nothing is built in between — no per-step record, no list of
//! `(predicate, tuple)` pairs.
//!
//! The generator keeps set semantics itself, for the relation and the
//! block alike, and asks neither for a lookup. Every row of a step sits at
//! the vertex and carries the step's superstep, so it can only repeat a
//! row of its own batch, and the only repeats Table 1 can produce are
//! `(peer, payload)` repeats inside one step's message (or edge) batch.
//! Peers arrive in non-decreasing order — the engine delivers an inbox in
//! sender order, and PageRank, SSSP and ALS send once per neighbour, in
//! neighbour order — so a repeat can only sit in the run of rows with its
//! own peer, and a scan of that run (a multi-edge's, or a mutual WCC
//! neighbour's, which hears one label twice) finds it. Every other row is
//! appended unchecked ([`Relation::append_fresh`]). Once a peer arrives
//! below the one before it — WCC sends along out-edges, then in-edges —
//! the rest of that batch goes through the relation's checked insert, and
//! the block is deduplicated after the batch is written.

use crate::rows::{RowBlock, Rows};
use ariadne_graph::{Csr, VertexId};
use ariadne_pql::{Database, Relation, Value};
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
    /// Generate `receive_message` without its sender and payload: one
    /// `receive_message(x, Unit, Unit, i)` row per step with a non-empty
    /// inbox, for a run whose rules read neither (and whose inbox may
    /// therefore be combined). Not set by [`EdbFlags::of`].
    pub receive_projected: bool,
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
            receive_projected: false,
            send_message: needed.contains("send_message"),
            edge_value: needed.contains("edge_value"),
            edge: needed.contains("edge"),
            in_edge: needed.contains("in_edge"),
        }
    }
}

/// The Table-1 predicates [`EdbTracker::record_step`] generates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdbPred {
    /// `superstep(x, i)`.
    Superstep,
    /// `value(x, d, i)`.
    Value,
    /// `evolution(x, j, i)`.
    Evolution,
    /// `receive_message(x, y, m, i)`.
    ReceiveMessage,
    /// `send_message(x, y, m, i)`.
    SendMessage,
    /// `edge_value(x, y, w, i)`.
    EdgeValue,
}

impl EdbPred {
    /// Every generated predicate, in discriminant order.
    pub const ALL: [EdbPred; 6] = [
        EdbPred::Superstep,
        EdbPred::Value,
        EdbPred::Evolution,
        EdbPred::ReceiveMessage,
        EdbPred::SendMessage,
        EdbPred::EdgeValue,
    ];

    /// The predicate's name in queries and in the store.
    pub fn name(self) -> &'static str {
        match self {
            EdbPred::Superstep => "superstep",
            EdbPred::Value => "value",
            EdbPred::Evolution => "evolution",
            EdbPred::ReceiveMessage => "receive_message",
            EdbPred::SendMessage => "send_message",
            EdbPred::EdgeValue => "edge_value",
        }
    }

    /// Columns per row.
    pub fn arity(self) -> usize {
        match self {
            EdbPred::Superstep => 2,
            EdbPred::Value | EdbPred::Evolution => 3,
            EdbPred::ReceiveMessage | EdbPred::SendMessage | EdbPred::EdgeValue => 4,
        }
    }
}

/// Where one vertex-step's rows of one predicate go: a relation, a row
/// block, both or neither. It keeps the batch's set semantics for both
/// (see the module docs).
pub struct Dest<'a> {
    rel: Option<&'a mut Relation>,
    block: Option<&'a mut RowBlock>,
    /// Rows `block` held when the step's batch began.
    from: usize,
    /// The peer of the last row kept, and how many kept rows carry it.
    run: Option<(u64, usize)>,
    /// A peer arrived below the one before it: the rest of the batch is
    /// inserted checked, and the block deduplicated when it closes.
    checked: bool,
}

impl<'a> Dest<'a> {
    /// A destination for `n` rows of `arity` columns, with room made for
    /// them.
    pub fn new(
        mut rel: Option<&'a mut Relation>,
        mut block: Option<&'a mut RowBlock>,
        n: usize,
        arity: usize,
    ) -> Self {
        if let Some(rel) = &mut rel {
            rel.reserve(n);
        }
        if let Some(block) = &mut block {
            block.reserve(n, arity);
        }
        let from = block.as_ref().map_or(0, |b| b.len());
        Dest {
            rel,
            block,
            from,
            run: None,
            checked: false,
        }
    }

    /// Append a row no earlier row of the batch repeats — or, once the
    /// batch is checked, any row: the relation then checks it, and
    /// [`Dest::finish`] the block.
    fn push(&mut self, row: &[Value]) {
        if let Some(rel) = &mut self.rel {
            if self.checked {
                rel.insert_slice(row);
            } else {
                rel.append_fresh(row);
            }
        }
        if let Some(block) = &mut self.block {
            block.push(row);
        }
    }

    /// Keep `row`, whose peer is `peer`, unless the batch already holds it.
    fn push_peer(&mut self, peer: u64, row: &[Value]) {
        match self.run {
            _ if self.checked => {}
            Some((last, _)) if peer < last => self.checked = true,
            Some((last, kept)) if peer == last => {
                if self.run_holds(kept, row) {
                    return;
                }
                self.run = Some((peer, kept + 1));
            }
            _ => self.run = Some((peer, 1)),
        }
        self.push(row);
    }

    /// Whether the last `kept` rows kept hold `row`.
    fn run_holds(&self, kept: usize, row: &[Value]) -> bool {
        match (&self.rel, &self.block) {
            (Some(rel), _) => rel.scan()[rel.len() - kept..].iter().any(|t| t[..] == *row),
            (None, Some(block)) => (block.len() - kept..block.len()).any(|i| block.row(i) == row),
            (None, None) => false,
        }
    }

    /// Close the batch: after a decreasing peer the block may hold
    /// repeats (the relation checked them); keep the first of each.
    fn finish(self) {
        if let (true, Some(block)) = (self.checked, self.block) {
            block.dedup_from(self.from);
        }
    }
}

/// Says where the rows [`EdbTracker::record_step`] generates go.
pub trait EdbSink {
    /// Where this vertex-step's `n` rows of `pred` go. Called at most
    /// once per predicate per step, and not for an empty batch.
    fn open(&mut self, pred: EdbPred, n: usize) -> Dest<'_>;
}

/// Everything into the database.
impl EdbSink for Database {
    fn open(&mut self, pred: EdbPred, n: usize) -> Dest<'_> {
        let rel = self.relation_mut(pred.name(), pred.arity());
        Dest::new(Some(rel), None, n, pred.arity())
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

    /// Hand the flagged Table-1 rows of one vertex-superstep to `sink`
    /// and advance the activation history. `value` is the vertex value
    /// *after* computing; `received` and `sent` yield `(peer, message)`
    /// in delivery and send order. All three are encoded lazily: a
    /// stream is not touched unless its predicate is flagged. A relation
    /// `sink` opens must hold no row of this vertex and superstep: rows
    /// go in without a lookup (see the module docs).
    #[allow(clippy::too_many_arguments)]
    pub fn record_step(
        &mut self,
        sink: &mut impl EdbSink,
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
            sink.open(EdbPred::Superstep, 1).push(&[x.clone(), i.clone()]);
        }
        if flags.value {
            sink.open(EdbPred::Value, 1)
                .push(&[x.clone(), value(), i.clone()]);
        }
        if let (true, Some(prev)) = (flags.evolution, self.last_active) {
            sink.open(EdbPred::Evolution, 1)
                .push(&[x.clone(), Value::Int(prev as i64), i.clone()]);
        }
        if flags.receive_projected {
            if received.len() > 0 {
                sink.open(EdbPred::ReceiveMessage, 1)
                    .push(&[x.clone(), Value::Unit, Value::Unit, i.clone()]);
            }
        } else if flags.receive_message {
            push_peer_rows(sink, EdbPred::ReceiveMessage, &x, &i, received.len(), received);
        }
        if flags.send_message {
            push_peer_rows(sink, EdbPred::SendMessage, &x, &i, sent.len(), sent);
        }
        if flags.edge_value {
            let weights = graph
                .out_edges(vertex)
                .map(|e| (e.neighbor, Value::Float(e.weight)));
            let n = graph.out_neighbors(vertex).len();
            push_peer_rows(sink, EdbPred::EdgeValue, &x, &i, n, weights);
        }
        self.last_active = Some(superstep);
    }
}

/// Hand one `pred(x, peer, payload, i)` row per item of `peers` (`n` of
/// them) to `sink`; nothing is opened for an empty batch.
fn push_peer_rows(
    sink: &mut impl EdbSink,
    pred: EdbPred,
    x: &Value,
    i: &Value,
    n: usize,
    peers: impl Iterator<Item = (VertexId, Value)>,
) {
    if n == 0 {
        return;
    }
    let mut dest = sink.open(pred, n);
    let mut row = [x.clone(), Value::Unit, Value::Unit, i.clone()];
    for (peer, payload) in peers {
        row[1] = Value::Id(peer.0);
        row[2] = payload;
        dest.push_peer(peer.0, &row);
    }
    dest.finish();
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

    /// Every row into a relation and into one block.
    #[derive(Default)]
    struct Both {
        db: Database,
        block: RowBlock,
    }

    impl EdbSink for Both {
        fn open(&mut self, pred: EdbPred, n: usize) -> Dest<'_> {
            let rel = self.db.relation_mut(pred.name(), pred.arity());
            Dest::new(Some(rel), Some(&mut self.block), n, pred.arity())
        }
    }

    #[test]
    fn a_block_holds_what_the_relation_holds() {
        let sends = |peers: &[u64]| -> Vec<(VertexId, Value)> {
            peers.iter().map(|&p| (VertexId(p), Value::Int((p % 2) as i64))).collect()
        };
        let f = flags(&["send_message"]);
        let (mut t, mut both) = (EdbTracker::new(), Both::default());
        for (step, peers) in [&[1, 2, 3][..], &[3, 1, 3, 2, 1], &[2, 2], &[]].iter().enumerate() {
            t.record_step(
                &mut both,
                f,
                &star(4),
                VertexId(0),
                step as u32,
                || Value::Unit,
                std::iter::empty(),
                sends(peers).into_iter(),
            );
        }
        // Ascending, unordered with repeats, repeats only, empty: the
        // block is the relation, row for row.
        let held: Vec<Tuple> = both.block.rows().map(<[Value]>::to_vec).collect();
        assert_eq!(held, tuples(&both.db, "send_message"));
        assert_eq!(held.len(), 3 + 3 + 1);
    }

    /// Three batches of one vertex, each into a relation and a block: the
    /// relation takes every row without a lookup until a peer decreases.
    #[test]
    fn each_distinct_row_is_stored_once_per_batch() {
        let f = flags(&["receive_message"]);
        let (mut t, mut both) = (EdbTracker::new(), Both::default());
        let batches: [&[(u64, i64)]; 3] = [
            // Ascending: nothing to find.
            &[(1, 0), (2, 0), (5, 0)],
            // A multi-edge: (2, 7) twice, and (2, 8) beside it.
            &[(1, 7), (2, 7), (2, 8), (2, 7), (3, 7)],
            // Peers decrease at the fourth row; (4, 1) and (2, 1) repeat.
            &[(2, 1), (4, 1), (4, 1), (1, 1), (2, 1), (4, 1), (3, 1)],
        ];
        for (step, batch) in batches.iter().enumerate() {
            t.record_step(
                &mut both,
                f,
                &star(4),
                VertexId(0),
                step as u32,
                || Value::Unit,
                batch.iter().map(|&(p, m)| (VertexId(p), Value::Int(m))),
                std::iter::empty(),
            );
        }
        let row = |p: u64, m: i64, i: i64| vec![Value::Id(0), Value::Id(p), Value::Int(m), Value::Int(i)];
        let want = vec![
            row(1, 0, 0),
            row(2, 0, 0),
            row(5, 0, 0),
            row(1, 7, 1),
            row(2, 7, 1),
            row(2, 8, 1),
            row(3, 7, 1),
            row(2, 1, 2),
            row(4, 1, 2),
            row(1, 1, 2),
            row(3, 1, 2),
        ];
        assert_eq!(tuples(&both.db, "receive_message"), want);
        let held: Vec<Tuple> = both.block.rows().map(<[Value]>::to_vec).collect();
        assert_eq!(held, want);
    }

    #[test]
    fn projected_receive_is_one_row_per_nonempty_inbox() {
        let mut f = flags(&["receive_message"]);
        f.receive_projected = true;
        let (mut t, mut db) = (EdbTracker::new(), Database::new());
        let unread = |_| -> (VertexId, Value) { panic!("a projected inbox is not read") };
        for (step, inbox) in [2usize, 0, 1].into_iter().enumerate() {
            t.record_step(
                &mut db,
                f,
                &star(4),
                VertexId(1),
                step as u32,
                || Value::Unit,
                (0..inbox).map(unread),
                std::iter::empty(),
            );
        }
        let row = |i| vec![Value::Id(1), Value::Unit, Value::Unit, Value::Int(i)];
        assert_eq!(tuples(&db, "receive_message"), vec![row(0), row(2)]);
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

    /// Table 1 is spelled twice: here, for generation, and in the query
    /// catalog, for analysis. Both must agree on every generated
    /// predicate.
    #[test]
    fn generated_predicates_match_the_catalog() {
        let catalog = ariadne_pql::Catalog::standard();
        for pred in EdbPred::ALL {
            let schema = catalog
                .get(pred.name())
                .unwrap_or_else(|| panic!("{} is not in the catalog", pred.name()));
            assert_eq!(schema.arity, pred.arity(), "{} arity", pred.name());
            assert_eq!(schema.location, 0, "{} location", pred.name());
            let peer = match pred {
                EdbPred::ReceiveMessage | EdbPred::SendMessage | EdbPred::EdgeValue => Some(1),
                EdbPred::Superstep | EdbPred::Value | EdbPred::Evolution => None,
            };
            assert_eq!(schema.peer, peer, "{} peer", pred.name());
        }
    }
}
