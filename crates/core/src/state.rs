//! Per-vertex query evaluation state, shared by the online wrapper and
//! the layered and naive offline drivers.
//!
//! The database holds what rules join against: the EDB rows a query
//! reads, the IDB rows it derives, neighbour replicas. Which rows enter
//! it is the run's [`RouteTable`]'s decision: a row a capture only
//! *stores* goes from the generator straight into the capturing worker's
//! row block and never becomes a tuple, so after a raw capture every
//! vertex's database is empty. The shipping marks say how much of each
//! shipped relation the vertex has already piggybacked to its
//! neighbours. A state ends in [`QueryState::into_owned`], which moves
//! out the IDB tuples located at the vertex.

use ariadne_graph::{Csr, VertexId};
use ariadne_pql::{Database, EvalScratch, EvalStats, Evaluator, PqlError, Tuple, Value};
use ariadne_provenance::edb::{EdbTracker, Outlet, RouteTable};
use ariadne_provenance::RowBlock;
use std::collections::BTreeMap;

/// The query-side state one vertex carries: its partition of the
/// (transient or replayed) provenance database, incremental evaluation
/// frontiers, its activation history, and high-water marks for shipping.
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

    /// Send the generated static graph EDBs (`edge`, `in_edge`) of
    /// `vertex` through `routes`, once.
    pub fn statics(
        &mut self,
        routes: &RouteTable,
        blocks: &mut [RowBlock],
        graph: &Csr,
        vertex: VertexId,
    ) {
        if !std::mem::replace(&mut self.statics_done, true) {
            Outlet::new(routes, &mut self.db, blocks).statics(graph, vertex);
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
                .fresh_window(pred)
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

    /// Everything appended to `pred` since its shipping mark, replicas
    /// included; advances the mark to the relation's end.
    pub(crate) fn fresh_window(&mut self, pred: &str) -> &[Tuple] {
        let Some(rel) = self.db.relation(pred) else {
            return &[];
        };
        let from = match self.ship_marks.get_mut(pred) {
            Some(mark) => std::mem::replace(mark, rel.len()),
            // An absent mark is a mark at 0: an empty relation needs none.
            None if rel.is_empty() => 0,
            None => {
                self.ship_marks.insert(pred.to_string(), rel.len());
                0
            }
        };
        rel.scan_from(from)
    }

    /// End the state: each non-empty relation `idb` names (by some key
    /// `K`), with only its tuples located at `vertex`, in insertion order,
    /// and its arity. Owner-only is exact: evaluation pins every head's
    /// location to the evaluating vertex, so an IDB tuple located
    /// elsewhere is a replica of one its owner holds. Every other
    /// relation is dropped here.
    pub fn into_owned<K>(
        self,
        vertex: VertexId,
        mut idb: impl FnMut(&str) -> Option<K>,
    ) -> impl Iterator<Item = (K, usize, Vec<Tuple>)> {
        let own = Value::Id(vertex.0);
        self.db.into_relations().filter_map(move |(name, rel)| {
            let key = idb(&name).filter(|_| !rel.is_empty())?;
            let arity = rel.arity();
            let mut tuples = rel.into_tuples();
            tuples.retain(|t| t.first() == Some(&own));
            Some((key, arity, tuples))
        })
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
        let routes = RouteTable::reading(&["edge".to_string()].into());
        let mut q = QueryState::new();
        q.statics(&routes, &mut [], &g, VertexId(0));
        q.statics(&routes, &mut [], &g, VertexId(0));
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
    }

    #[test]
    fn into_owned_keeps_the_vertex_s_idb_tuples() {
        let mut q = QueryState::new();
        let row = |v: u64| vec![Value::Id(v), Value::Int(0)];
        q.inject("h", &[row(9), row(1)]);
        q.inject("edb", &[row(1)]);
        q.db.relation_mut("empty", 2);
        let owned: Vec<_> = q
            .into_owned(VertexId(1), |name| (name != "edb").then_some(name.len()))
            .collect();
        assert_eq!(owned, vec![(1, 2, vec![row(1)])]);
    }

    #[test]
    fn missing_relation_is_fine() {
        let mut q = QueryState::new();
        assert!(q.take_shippable(["nope"], VertexId(0)).is_empty());
    }
}
