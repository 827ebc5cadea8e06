//! Generating the provenance rows of Table 1, and routing every row a
//! vertex-step makes.
//!
//! This is the *compact representation* of §3: rather than materializing
//! an unfolded provenance node per (vertex, superstep), each input-graph
//! vertex is annotated with relations (`value`, `send_message`,
//! `receive_message`, `superstep`, `evolution`, `edge_value`) holding one
//! tuple per superstep event, beside the static `edge` and `in_edge` rows
//! of its adjacency. Generation is *customized by the query*: only the
//! predicates a run needs are produced, which is how declarative capture
//! cuts space and time (Tables 3–4 vs Figure 7).
//!
//! A [`RouteTable`], resolved once per run from what the run generates,
//! reads and stores, sends each predicate's rows into the vertex's
//! [`Database`] (a rule reads them, or nothing stores them), into the
//! capturing worker's [`RowBlock`] of that predicate, or both. Every row a
//! vertex-step makes goes through it, by an [`Outlet`]: Table-1 rows
//! ([`EdbTracker::record_step`]), static rows ([`Outlet::statics`]),
//! custom rows ([`Outlet::custom`]), and capture-rule heads, the only rows
//! read back out of the database ([`Outlet::heads`]). A row a capture
//! stores and no rule reads is never a tuple: it goes from the stack into
//! its block, the only copy until the store's encoder reads it.
//!
//! Routing keeps set semantics for the relation and the block alike. A
//! Table-1 row sits at the vertex and carries the step's superstep, so it
//! can only repeat a `(peer, payload)` row of its own batch. Peers arrive
//! in non-decreasing order (the engine delivers an inbox in sender order;
//! PageRank, SSSP and ALS send in neighbour order), so a repeat sits in
//! the run of rows with its own peer, which a scan finds; every other row
//! is appended unchecked ([`Relation::append_fresh`]). Once a peer
//! decreases (WCC sends along out-edges, then in-edges) the rest of the
//! batch is *checked*, as static and custom batches are whole (a replayed
//! store can hold `edge` rows; a custom generator promises no order): a
//! row enters the relation only if it is new, and the block only if the
//! relation took it. A block with no relation beside it is deduplicated
//! when the batch closes.

use crate::rows::{RowBlock, Rows};
use ariadne_graph::{Csr, VertexId};
use ariadne_pql::{Database, Relation, Tuple, Value};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Per-vertex EDB generator, fresh as `default()`. Holds the vertex's
/// activation history so it can emit `evolution` tuples.
#[derive(Clone, Debug, Default)]
pub struct EdbTracker {
    last_active: Option<u32>,
}

/// Which Table-1 predicates to generate, by name.
pub type NeededEdbs = BTreeSet<String>;

/// The predicates the generator makes: Table 1's, and the static
/// `edge`/`in_edge`.
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
    /// The static `edge(x, y)`.
    Edge,
    /// The static `in_edge(x, y)`.
    InEdge,
}

impl EdbPred {
    /// Every generated predicate, in discriminant order.
    pub const ALL: [EdbPred; 8] = [
        EdbPred::Superstep,
        EdbPred::Value,
        EdbPred::Evolution,
        EdbPred::ReceiveMessage,
        EdbPred::SendMessage,
        EdbPred::EdgeValue,
        EdbPred::Edge,
        EdbPred::InEdge,
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
            EdbPred::Edge => "edge",
            EdbPred::InEdge => "in_edge",
        }
    }

    /// Columns per row.
    pub fn arity(self) -> usize {
        match self {
            EdbPred::Superstep | EdbPred::Edge | EdbPred::InEdge => 2,
            EdbPred::Value | EdbPred::Evolution => 3,
            EdbPred::ReceiveMessage | EdbPred::SendMessage | EdbPred::EdgeValue => 4,
        }
    }
}

/// Where one predicate's rows go: into the vertex's database, into the
/// capture's block `block`, both, or (not generated) neither.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Lane {
    db: bool,
    block: Option<usize>,
}

/// Where every row a vertex-step makes goes, resolved once per run (see
/// the module docs).
#[derive(Clone, Debug, Default)]
pub struct RouteTable {
    /// Generate `receive_message` without its sender and payload: one
    /// `receive_message(x, Unit, Unit, i)` row per step with a non-empty
    /// inbox, for a run whose rules read neither (and whose inbox may
    /// therefore be combined).
    pub receive_projected: bool,
    /// The persisted predicates: a capture's block `k` holds the rows of
    /// `persisted[k]`.
    persisted: Vec<Arc<str>>,
    /// Per generated predicate, by `EdbPred as usize`.
    generated: [Lane; EdbPred::ALL.len()],
    /// The persisted custom relations (neither generated nor a head).
    custom: Vec<(Arc<str>, Lane)>,
    /// The blocks of the persisted capture-rule heads.
    heads: Vec<usize>,
}

impl RouteTable {
    /// The routes of a run that generates `needed`, whose rules read
    /// `read`, and whose capture stores `persisted`; `is_head` names the
    /// capture rules' heads. A row goes into the database when a rule
    /// reads it or nothing stores it, and into its block when the capture
    /// stores it.
    pub fn new(
        needed: &NeededEdbs,
        read: &BTreeSet<String>,
        persisted: &BTreeSet<String>,
        is_head: impl Fn(&str) -> bool,
    ) -> Self {
        let persisted: Vec<Arc<str>> = persisted.iter().map(|p| p.as_str().into()).collect();
        let lane = |name: &str| {
            let block = persisted.iter().position(|p| **p == *name);
            let db = block.is_none() || read.contains(name);
            Lane { db, block }
        };
        let generated = EdbPred::ALL.map(|p| match needed.contains(p.name()) {
            true => lane(p.name()),
            false => Lane::default(),
        });
        let (mut custom, mut heads) = (Vec::new(), Vec::new());
        for (k, name) in persisted.iter().enumerate() {
            if is_head(name) {
                heads.push(k);
            } else if EdbPred::ALL.iter().all(|p| p.name() != &**name) {
                custom.push((name.clone(), lane(name)));
            }
        }
        let receive_projected = false;
        RouteTable {
            receive_projected,
            persisted,
            generated,
            custom,
            heads,
        }
    }

    /// The routes of a run that stores nothing and reads `edbs`: every
    /// row into the database (offline replay).
    pub fn reading(edbs: &BTreeSet<String>) -> Self {
        RouteTable::new(edbs, edbs, &BTreeSet::new(), |_| false)
    }

    /// Whether the run generates `pred`.
    fn generates(&self, pred: EdbPred) -> bool {
        self.generated[pred as usize] != Lane::default()
    }

    /// The persisted predicates, in block order.
    pub fn persisted(&self) -> &[Arc<str>] {
        &self.persisted
    }

    /// How many rows each persisted head relation of `db` holds, into
    /// `marks` (cleared first): taken just before a step's evaluation,
    /// for [`Outlet::heads`].
    pub fn head_marks(&self, db: &Database, marks: &mut Vec<usize>) {
        marks.clear();
        marks.extend(self.heads.iter().map(|&k| db.len(&self.persisted[k])));
    }
}

/// One vertex-step's destinations under a [`RouteTable`]: the vertex's
/// database, and the capturing worker's row blocks (one per persisted
/// predicate, in the table's order; none outside a capture).
pub struct Outlet<'a> {
    table: &'a RouteTable,
    db: &'a mut Database,
    blocks: &'a mut [RowBlock],
}

impl<'a> Outlet<'a> {
    /// Send rows into `db` and `blocks` per `table`.
    pub fn new(table: &'a RouteTable, db: &'a mut Database, blocks: &'a mut [RowBlock]) -> Self {
        Outlet { table, db, blocks }
    }

    /// A batch of `n` rows of `name` (`arity` columns) along `lane`,
    /// with room made for them; `checked` looks every row up.
    fn open(&mut self, lane: Lane, name: &str, arity: usize, n: usize, checked: bool) -> Dest<'_> {
        let rel = lane.db.then(|| {
            let rel = self.db.relation_mut(name, arity);
            rel.reserve(n);
            rel
        });
        let block = lane.block.map(|k| {
            self.blocks[k].reserve(n, arity);
            &mut self.blocks[k]
        });
        let from = block.as_ref().map_or(0, |b| b.len());
        Dest {
            rel,
            block,
            from,
            run: None,
            checked,
        }
    }

    /// A batch of `n` rows of the generated `pred`.
    fn generated(&mut self, pred: EdbPred, n: usize, checked: bool) -> Dest<'_> {
        let lane = self.table.generated[pred as usize];
        self.open(lane, pred.name(), pred.arity(), n, checked)
    }

    /// The generated static `edge(x, y)` and `in_edge(x, y)` rows of
    /// `vertex` (once per vertex).
    pub fn statics(&mut self, graph: &Csr, vertex: VertexId) {
        let x = Value::Id(vertex.0);
        for (pred, neighbors) in [
            (EdbPred::Edge, graph.out_neighbors(vertex)),
            (EdbPred::InEdge, graph.in_neighbors(vertex)),
        ] {
            if self.table.generates(pred) && !neighbors.is_empty() {
                let mut dest = self.generated(pred, neighbors.len(), true);
                for y in neighbors {
                    dest.push(&[x.clone(), Value::Id(y.0)]);
                }
                dest.finish();
            }
        }
    }

    /// A custom generator's `(predicate, row)` pairs of one vertex-step:
    /// each persisted relation's batch along its lane, every other row
    /// into the database.
    pub fn custom(&mut self, mut rows: Vec<(String, Tuple)>) {
        let table = self.table;
        for (name, lane) in &table.custom {
            let mine = || {
                rows.iter()
                    .filter(|(pred, _)| **pred == **name)
                    .map(|(_, row)| row)
            };
            let Some(arity) = mine().next().map(Vec::len) else {
                continue;
            };
            let mut dest = self.open(*lane, name, arity, mine().count(), true);
            mine().for_each(|row| dest.push(row));
            dest.finish();
        }
        rows.retain(|(pred, _)| table.custom.iter().all(|(name, _)| **name != **pred));
        for (pred, row) in rows {
            self.db.insert(&pred, row);
        }
    }

    /// Store the rows located at `vertex` that each persisted head
    /// relation holds past `marks` ([`RouteTable::head_marks`]).
    pub fn heads(&mut self, marks: &[usize], vertex: VertexId) {
        let own = Value::Id(vertex.0);
        for (&k, &from) in self.table.heads.iter().zip(marks) {
            let Some(rel) = self.db.relation(&self.table.persisted[k]) else {
                continue;
            };
            for row in rel
                .scan_from(from)
                .iter()
                .filter(|t| t.first() == Some(&own))
            {
                self.blocks[k].push(row);
            }
        }
    }
}

/// Where one batch of rows goes: a relation, a row block, both or
/// neither, keeping the batch's set semantics for both.
struct Dest<'a> {
    rel: Option<&'a mut Relation>,
    block: Option<&'a mut RowBlock>,
    /// Rows `block` held when the batch began.
    from: usize,
    /// The peer of the last row kept, and how many kept rows carry it.
    run: Option<(u64, usize)>,
    /// Every row is looked up (see the module docs).
    checked: bool,
}

impl Dest<'_> {
    /// Append a row no earlier row of the batch repeats — or, once the
    /// batch is checked, any row: the block takes it only if the relation
    /// did, or, alone, is deduplicated by [`Dest::finish`].
    fn push(&mut self, row: &[Value]) {
        let fresh = match &mut self.rel {
            Some(rel) if self.checked => rel.insert_slice(row),
            Some(rel) => {
                rel.append_fresh(row);
                true
            }
            None => true,
        };
        if let (true, Some(block)) = (fresh, &mut self.block) {
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

    /// Close the batch: a checked block with no relation beside it may
    /// hold repeats; keep the first of each.
    fn finish(self) {
        if let (true, None, Some(block)) = (self.checked, self.rel, self.block) {
            block.dedup_from(self.from);
        }
    }
}

impl EdbTracker {
    /// The last superstep this vertex computed in, if any.
    pub fn last_active(&self) -> Option<u32> {
        self.last_active
    }

    /// Rebuild a tracker from a recorded activation history — used when
    /// restoring per-vertex state from a checkpoint.
    pub fn from_last_active(last_active: Option<u32>) -> Self {
        EdbTracker { last_active }
    }

    /// Send the generated Table-1 rows of one vertex-superstep through
    /// `out` and advance the activation history. `value` is the vertex
    /// value *after* computing; `received` and `sent` yield `(peer,
    /// message)` in delivery and send order. All three are encoded
    /// lazily: a stream is not touched unless its predicate is generated.
    /// A relation the rows go into must hold no row of this vertex and
    /// superstep: rows go in without a lookup (see the module docs).
    #[allow(clippy::too_many_arguments)]
    pub fn record_step(
        &mut self,
        out: &mut Outlet<'_>,
        graph: &Csr,
        vertex: VertexId,
        superstep: u32,
        value: impl FnOnce() -> Value,
        received: impl ExactSizeIterator<Item = (VertexId, Value)>,
        sent: impl ExactSizeIterator<Item = (VertexId, Value)>,
    ) {
        let on = |pred| out.table.generates(pred);
        let (x, i) = (Value::Id(vertex.0), Value::Int(superstep as i64));
        if on(EdbPred::Superstep) {
            out.generated(EdbPred::Superstep, 1, false)
                .push(&[x.clone(), i.clone()]);
        }
        if on(EdbPred::Value) {
            out.generated(EdbPred::Value, 1, false)
                .push(&[x.clone(), value(), i.clone()]);
        }
        if let (true, Some(prev)) = (on(EdbPred::Evolution), self.last_active) {
            out.generated(EdbPred::Evolution, 1, false).push(&[
                x.clone(),
                Value::Int(prev as i64),
                i.clone(),
            ]);
        }
        let projected = out.table.receive_projected;
        if on(EdbPred::ReceiveMessage) && projected && received.len() > 0 {
            out.generated(EdbPred::ReceiveMessage, 1, false).push(&[
                x.clone(),
                Value::Unit,
                Value::Unit,
                i.clone(),
            ]);
        } else if on(EdbPred::ReceiveMessage) && !projected {
            push_peer_rows(
                out,
                EdbPred::ReceiveMessage,
                &x,
                &i,
                received.len(),
                received,
            );
        }
        if on(EdbPred::SendMessage) {
            push_peer_rows(out, EdbPred::SendMessage, &x, &i, sent.len(), sent);
        }
        if on(EdbPred::EdgeValue) {
            let weights = graph
                .out_edges(vertex)
                .map(|e| (e.neighbor, Value::Float(e.weight)));
            let n = graph.out_neighbors(vertex).len();
            push_peer_rows(out, EdbPred::EdgeValue, &x, &i, n, weights);
        }
        self.last_active = Some(superstep);
    }
}

/// Send one `pred(x, peer, payload, i)` row per item of `peers` (`n` of
/// them) through `out`; nothing is opened for an empty batch.
fn push_peer_rows(
    out: &mut Outlet<'_>,
    pred: EdbPred,
    x: &Value,
    i: &Value,
    n: usize,
    peers: impl Iterator<Item = (VertexId, Value)>,
) {
    if n == 0 {
        return;
    }
    let mut dest = out.generated(pred, n, false);
    let mut row = [x.clone(), Value::Unit, Value::Unit, i.clone()];
    for (peer, payload) in peers {
        row[1] = Value::Id(peer.0);
        row[2] = payload;
        dest.push_peer(peer.0, &row);
    }
    dest.finish();
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariadne_graph::generators::regular::star;

    fn names(preds: &[&str]) -> BTreeSet<String> {
        preds.iter().map(|s| s.to_string()).collect()
    }

    /// Every row of `preds` into the database.
    fn into_db(preds: &[&str]) -> RouteTable {
        RouteTable::reading(&names(preds))
    }

    /// One step of vertex `v` of a 4-star: value 0.5, one message
    /// received from 9, one sent to 8.
    fn step(t: &mut EdbTracker, db: &mut Database, table: &RouteTable, v: u64, superstep: u32) {
        t.record_step(
            &mut Outlet::new(table, db, &mut []),
            &star(4),
            VertexId(v),
            superstep,
            || Value::Float(0.5),
            [(VertexId(9), Value::Float(0.1))].into_iter(),
            [(VertexId(8), Value::Float(0.2))].into_iter(),
        );
    }

    fn tuples(db: &Database, pred: &str) -> Vec<Tuple> {
        db.relation(pred)
            .map(|r| r.scan().to_vec())
            .unwrap_or_default()
    }

    fn held(block: &RowBlock) -> Vec<Tuple> {
        block.rows().map(<[Value]>::to_vec).collect()
    }

    #[test]
    fn generates_only_needed_predicates() {
        let (mut t, mut db) = (EdbTracker::default(), Database::new());
        step(&mut t, &mut db, &into_db(&["value", "superstep"]), 1, 0);
        let preds: Vec<&str> = db.iter().map(|(p, _)| p).collect();
        assert_eq!(preds, vec!["superstep", "value"]);
        assert_eq!(
            tuples(&db, "superstep"),
            vec![vec![Value::Id(1), Value::Int(0)]]
        );
        assert_eq!(
            tuples(&db, "value"),
            vec![vec![Value::Id(1), Value::Float(0.5), Value::Int(0)]]
        );
    }

    #[test]
    fn unflagged_streams_are_not_consumed() {
        let (mut t, mut db) = (EdbTracker::default(), Database::new());
        let touched = std::cell::Cell::new(false);
        let watch = |m| {
            touched.set(true);
            (VertexId(9), m)
        };
        t.record_step(
            &mut Outlet::new(&into_db(&["superstep"]), &mut db, &mut []),
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
        let (mut t, mut db) = (EdbTracker::default(), Database::new());
        let table = into_db(&["evolution"]);
        step(&mut t, &mut db, &table, 1, 0);
        assert!(db.is_empty());
        step(&mut t, &mut db, &table, 1, 2);
        assert_eq!(
            tuples(&db, "evolution"),
            vec![vec![Value::Id(1), Value::Int(0), Value::Int(2)]]
        );
        assert_eq!(t.last_active(), Some(2));
    }

    #[test]
    fn message_tuples_carry_peers() {
        let (mut t, mut db) = (EdbTracker::default(), Database::new());
        step(
            &mut t,
            &mut db,
            &into_db(&["receive_message", "send_message"]),
            1,
            3,
        );
        assert_eq!(
            tuples(&db, "receive_message"),
            vec![vec![
                Value::Id(1),
                Value::Id(9),
                Value::Float(0.1),
                Value::Int(3)
            ]]
        );
        assert_eq!(
            tuples(&db, "send_message"),
            vec![vec![
                Value::Id(1),
                Value::Id(8),
                Value::Float(0.2),
                Value::Int(3)
            ]]
        );
    }

    /// A capture that stores `pred` and a rule that reads it: every row
    /// into the relation and into block 0.
    fn both(pred: &str) -> RouteTable {
        RouteTable::new(&names(&[pred]), &names(&[pred]), &names(&[pred]), |_| false)
    }

    /// One capture block.
    fn block() -> [RowBlock; 1] {
        [RowBlock::default()]
    }

    /// A capture that stores `pred` and no rule that reads it.
    fn stored(pred: &str) -> RouteTable {
        RouteTable::new(&names(&[pred]), &BTreeSet::new(), &names(&[pred]), |_| {
            false
        })
    }

    #[test]
    fn a_block_holds_what_the_relation_holds() {
        let sends = |peers: &[u64]| -> Vec<(VertexId, Value)> {
            peers
                .iter()
                .map(|&p| (VertexId(p), Value::Int((p % 2) as i64)))
                .collect()
        };
        let (table, only) = (both("send_message"), stored("send_message"));
        let (mut t, mut db, mut blocks) = (EdbTracker::default(), Database::new(), block());
        let (mut u, mut empty, mut alone) = (EdbTracker::default(), Database::new(), block());
        for (step, peers) in [&[1, 2, 3][..], &[3, 1, 3, 2, 1], &[2, 2], &[]]
            .iter()
            .enumerate()
        {
            for (t, table, db, blocks) in [
                (&mut t, &table, &mut db, &mut blocks),
                (&mut u, &only, &mut empty, &mut alone),
            ] {
                t.record_step(
                    &mut Outlet::new(table, db, blocks),
                    &star(4),
                    VertexId(0),
                    step as u32,
                    || Value::Unit,
                    std::iter::empty(),
                    sends(peers).into_iter(),
                );
            }
        }
        // Ascending, unordered with repeats, repeats only, empty: the
        // block is the relation, row for row, with or without it.
        assert_eq!(held(&blocks[0]), tuples(&db, "send_message"));
        assert_eq!(held(&blocks[0]).len(), 3 + 3 + 1);
        assert_eq!(held(&alone[0]), held(&blocks[0]));
        assert!(empty.is_empty(), "a stored, unread row became a tuple");
    }

    /// Three batches of one vertex, each into a relation and a block: the
    /// relation takes every row without a lookup until a peer decreases.
    #[test]
    fn each_distinct_row_is_stored_once_per_batch() {
        let table = both("receive_message");
        let (mut t, mut db, mut blocks) = (EdbTracker::default(), Database::new(), block());
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
                &mut Outlet::new(&table, &mut db, &mut blocks),
                &star(4),
                VertexId(0),
                step as u32,
                || Value::Unit,
                batch.iter().map(|&(p, m)| (VertexId(p), Value::Int(m))),
                std::iter::empty(),
            );
        }
        let row =
            |p: u64, m: i64, i: i64| vec![Value::Id(0), Value::Id(p), Value::Int(m), Value::Int(i)];
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
        assert_eq!(tuples(&db, "receive_message"), want);
        assert_eq!(held(&blocks[0]), want);
    }

    #[test]
    fn projected_receive_is_one_row_per_nonempty_inbox() {
        let mut table = into_db(&["receive_message"]);
        table.receive_projected = true;
        let (mut t, mut db) = (EdbTracker::default(), Database::new());
        let unread = |_| -> (VertexId, Value) { panic!("a projected inbox is not read") };
        for (step, inbox) in [2usize, 0, 1].into_iter().enumerate() {
            t.record_step(
                &mut Outlet::new(&table, &mut db, &mut []),
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
        let (mut t, mut db) = (EdbTracker::default(), Database::new());
        // The hub of a 4-star has three unit-weight out-edges.
        step(&mut t, &mut db, &into_db(&["edge_value"]), 0, 0);
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
        Outlet::new(&into_db(&["edge"]), &mut db, &mut []).statics(&g, VertexId(0));
        assert_eq!(db.len("edge"), 3);
        Outlet::new(&into_db(&["in_edge"]), &mut db, &mut []).statics(&g, VertexId(2));
        assert_eq!(
            tuples(&db, "in_edge"),
            vec![vec![Value::Id(2), Value::Id(0)]]
        );
        // A relation that holds a row already keeps one copy of it.
        let before = db.total_tuples();
        Outlet::new(&into_db(&["edge"]), &mut db, &mut []).statics(&g, VertexId(0));
        Outlet::new(&into_db(&[]), &mut db, &mut []).statics(&g, VertexId(0));
        assert_eq!(db.total_tuples(), before);
        // Stored and unread: into the block only.
        let (mut empty, mut blocks) = (Database::new(), [RowBlock::default()]);
        Outlet::new(&stored("edge"), &mut empty, &mut blocks).statics(&g, VertexId(0));
        assert!(empty.is_empty());
        assert_eq!(held(&blocks[0]), tuples(&db, "edge"));
    }

    #[test]
    fn custom_rows_follow_their_lanes() {
        let row = |k: i64| vec![Value::Id(0), Value::Int(k)];
        let rows = || {
            ["err", "seen", "err", "pred", "err"]
                .into_iter()
                .zip([1, 1, 2, 3, 1])
                .map(|(pred, k)| (pred.to_string(), row(k)))
                .collect::<Vec<_>>()
        };
        // `err` stored and unread, `pred` stored and read, `seen` neither.
        let (read, stored) = (names(&["pred"]), names(&["err", "pred"]));
        let table = RouteTable::new(&BTreeSet::new(), &read, &stored, |_| false);
        let (mut db, mut blocks) = (Database::new(), [RowBlock::default(), RowBlock::default()]);
        Outlet::new(&table, &mut db, &mut blocks).custom(rows());
        assert_eq!(held(&blocks[0]), vec![row(1), row(2)]);
        assert_eq!(held(&blocks[1]), vec![row(3)]);
        assert!(
            db.relation("err").is_none(),
            "a stored, unread row became a tuple"
        );
        assert_eq!(tuples(&db, "pred"), vec![row(3)]);
        assert_eq!(tuples(&db, "seen"), vec![row(1)]);
        // The next step's repeat of a row the relation holds is not stored
        // again.
        Outlet::new(&table, &mut db, &mut blocks).custom(rows());
        assert_eq!(held(&blocks[1]), vec![row(3)]);
    }

    #[test]
    fn heads_store_what_evaluation_appended_at_the_vertex() {
        let none = BTreeSet::new();
        let table = RouteTable::new(&none, &none, &names(&["h"]), |p| p == "h");
        let mut db = Database::new();
        db.insert("h", vec![Value::Id(1), Value::Int(0)]);
        let mut marks = Vec::new();
        table.head_marks(&db, &mut marks);
        assert_eq!(marks, vec![1]);
        // One own row derived, one replica beside it.
        db.insert("h", vec![Value::Id(1), Value::Int(1)]);
        db.insert("h", vec![Value::Id(2), Value::Int(1)]);
        let mut blocks = [RowBlock::default()];
        Outlet::new(&table, &mut db, &mut blocks).heads(&marks, VertexId(1));
        assert_eq!(held(&blocks[0]), vec![vec![Value::Id(1), Value::Int(1)]]);
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
                EdbPred::ReceiveMessage
                | EdbPred::SendMessage
                | EdbPred::EdgeValue
                | EdbPred::Edge
                | EdbPred::InEdge => Some(1),
                EdbPred::Superstep | EdbPred::Value | EdbPred::Evolution => None,
            };
            assert_eq!(schema.peer, peer, "{} peer", pred.name());
        }
    }
}
