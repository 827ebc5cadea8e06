//! Per-vertex query evaluation state, shared by the online wrapper and
//! the layered offline driver.
//!
//! The database holds what rules join against: the EDB rows a query
//! reads, the IDB rows it derives, neighbour replicas. Rows a capture only
//! *stores* never enter it — they go from the generator straight into the
//! capturing worker's row blocks (see [`crate::online`]) — so after a raw
//! capture every vertex's database is empty. The persistence marks cover
//! the relations a capture both keeps here and stores: capture-rule heads
//! and custom provenance relations.

use ariadne_graph::{Csr, VertexId};
use ariadne_pql::{Database, EvalScratch, EvalStats, Evaluator, PqlError, Tuple, Value};
use ariadne_provenance::edb::{EdbFlags, EdbTracker};
use ariadne_provenance::insert_static_edbs;
use std::collections::BTreeMap;

/// The query-side state one vertex carries: its partition of the
/// (transient or replayed) provenance database, incremental evaluation
/// frontiers, its activation history, and high-water marks for shipping
/// and persistence.
#[derive(Clone, Debug, Default)]
pub struct QueryState {
    /// Local EDB tuples, derived IDB tuples and neighbour replicas.
    pub db: Database,
    /// Semi-naive frontiers.
    pub eval: ariadne_pql::eval::seminaive::EvalState,
    /// Activation history for `evolution` generation.
    pub tracker: EdbTracker,
    /// Per-predicate counts already piggybacked to neighbours.
    pub(crate) ship_marks: BTreeMap<String, usize>,
    /// Per-predicate counts already handed to the store, for the
    /// relations a capture persists *from this database* (capture-rule
    /// heads, custom provenance relations).
    pub(crate) persist_marks: BTreeMap<String, usize>,
    pub(crate) statics_done: bool,
}

impl QueryState {
    /// Fresh state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inject a batch of tuples into a relation (deduplicated). The
    /// relation is looked up and grown once for the batch, and a tuple is
    /// cloned only if it is new.
    pub fn inject(&mut self, pred: &str, tuples: &[Tuple]) {
        let Some(first) = tuples.first() else {
            return;
        };
        let rel = self.db.relation_mut(pred, first.len());
        rel.reserve(tuples.len());
        for t in tuples {
            rel.insert_slice(t);
        }
    }

    /// Inject the flagged static graph EDBs (`edge`, `in_edge`) once.
    pub fn inject_statics(&mut self, graph: &Csr, vertex: VertexId, flags: EdbFlags) {
        if !std::mem::replace(&mut self.statics_done, true) {
            insert_static_edbs(&mut self.db, flags, graph, vertex);
        }
    }

    /// Run the evaluator incrementally over everything injected or
    /// derived since the last call, with the head location pinned to
    /// `vertex`, accumulating the call's [`EvalStats`] into `stats`
    /// (run-local introspection). `scratch` is the calling worker's: one
    /// set of evaluation buffers serves every vertex it evaluates.
    pub fn evaluate_stats(
        &mut self,
        evaluator: &Evaluator,
        vertex: VertexId,
        stats: &mut EvalStats,
        scratch: &mut EvalScratch,
    ) -> Result<(), PqlError> {
        let loc = Value::Id(vertex.0);
        evaluator.step(&mut self.db, &mut self.eval, Some(&loc), stats, scratch)
    }

    /// New tuples of `preds` since the last shipping mark; advances the
    /// marks. Only tuples *located at* `vertex` are shipped — replicas
    /// received from neighbours are not re-forwarded (communication
    /// stays single-hop, per the VC normal form).
    pub fn take_shippable(
        &mut self,
        preds: impl IntoIterator<Item = impl AsRef<str>>,
        vertex: VertexId,
    ) -> Vec<(String, Vec<Tuple>)> {
        let own = Value::Id(vertex.0);
        let mut out = Vec::new();
        for pred in preds {
            let pred = pred.as_ref();
            let fresh: Vec<Tuple> = self
                .fresh_window(pred, true)
                .iter()
                .filter(|t| t.first() == Some(&own))
                .cloned()
                .collect();
            if !fresh.is_empty() {
                out.push((pred.to_string(), fresh));
            }
        }
        out
    }

    /// Everything appended to `pred` since its shipping (or persistence)
    /// mark, replicas included; advances the mark to the relation's end.
    pub(crate) fn fresh_window(&mut self, pred: &str, shipping: bool) -> &[Tuple] {
        let Some(rel) = self.db.relation(pred) else {
            return &[];
        };
        let marks = if shipping {
            &mut self.ship_marks
        } else {
            &mut self.persist_marks
        };
        let from = match marks.get_mut(pred) {
            Some(mark) => std::mem::replace(mark, rel.len()),
            // An absent mark is a mark at 0: an empty relation needs none.
            None if rel.is_empty() => 0,
            None => {
                marks.insert(pred.to_string(), rel.len());
                0
            }
        };
        rel.scan_from(from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariadne_graph::generators::regular::star;

    #[test]
    fn inject_dedups() {
        let mut q = QueryState::new();
        q.inject("p", &[vec![Value::Id(1)], vec![Value::Id(1)]]);
        assert_eq!(q.db.len("p"), 1);
    }

    #[test]
    fn statics_once() {
        let g = star(3);
        let flags = EdbFlags {
            edge: true,
            ..EdbFlags::default()
        };
        let mut q = QueryState::new();
        q.inject_statics(&g, VertexId(0), flags);
        q.inject_statics(&g, VertexId(0), flags);
        assert_eq!(q.db.len("edge"), 2);
    }

    #[test]
    fn shipping_marks_advance_and_filter_replicas() {
        let mut q = QueryState::new();
        // One local tuple, one replica from vertex 9.
        q.inject(
            "change",
            &[
                vec![Value::Id(1), Value::Int(0)],
                vec![Value::Id(9), Value::Int(0)],
            ],
        );
        let first = q.take_shippable(["change"], VertexId(1));
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].1, vec![vec![Value::Id(1), Value::Int(0)]]);
        // Nothing new: second take is empty.
        assert!(q.take_shippable(["change"], VertexId(1)).is_empty());
        // Persist marks are independent.
        assert_eq!(q.fresh_window("change", false).len(), 2);
        assert!(q.fresh_window("change", false).is_empty());
    }

    #[test]
    fn missing_relation_is_fine() {
        let mut q = QueryState::new();
        assert!(q.take_shippable(["nope"], VertexId(0)).is_empty());
    }
}
