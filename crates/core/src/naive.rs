//! Naive offline evaluation — the traditional capture-first,
//! query-offline baseline (§6.2's *Naive* series).
//!
//! This is "straightforward offline querying on the captured provenance
//! graph": the **whole** provenance graph is materialized at once (per
//! input vertex, its compact annotation tables; plus the unfolded view),
//! and the query vertex program iterates over *all* vertices round after
//! round — shipping replica tables to every neighbour each round — until
//! a global fixpoint. No layer ordering is exploited, which is exactly
//! why this mode is slow and memory-hungry: the paper's Naive "was not
//! able to scale beyond the two smallest datasets in any of our
//! experiments". A configurable tuple budget reproduces that failure
//! deterministically.
//!
//! Strata are completed globally before the next stratum starts, so
//! stratified negation never races replica arrival.
//!
//! The module also provides [`run_centralized`]: a single-database
//! semi-naive evaluation used as the correctness oracle in the test suite
//! and as the only option for queries that are not VC-compatible.

use crate::compile::CompiledQuery;
use crate::session::AriadneError;
use crate::state::QueryState;
use ariadne_graph::{Csr, VertexId};
use ariadne_pql::{Database, EvalScratch, EvalStats, Value};
use ariadne_provenance::edb::Outlet;
use ariadne_provenance::{ProvStore, RouteTable, UnfoldedGraph};

/// The outcome of a naive evaluation.
#[derive(Debug)]
pub struct NaiveRun {
    /// Merged query tables (IDB results).
    pub database: Database,
    /// Nodes of the materialized unfolded provenance graph.
    pub unfolded_nodes: usize,
    /// Edges of the materialized unfolded provenance graph.
    pub unfolded_edges: usize,
    /// Global rounds until fixpoint.
    pub rounds: u32,
}

/// Evaluate `query` naively over the whole materialized provenance.
///
/// `tuple_budget` simulates the memory ceiling of the evaluation cluster:
/// if the materialized provenance exceeds it, the run fails with
/// [`AriadneError::NaiveOverflow`] like the paper's Naive runs on the
/// larger datasets.
pub fn run_naive(
    graph: &Csr,
    store: &ProvStore,
    query: &CompiledQuery,
    tuple_budget: Option<usize>,
) -> Result<NaiveRun, AriadneError> {
    let total = store.tuple_count();
    if let Some(budget) = tuple_budget {
        if total > budget {
            return Err(AriadneError::NaiveOverflow {
                tuples: total,
                budget,
            });
        }
    }
    if !query.direction().is_vc_compatible() {
        // Unguarded remote references cannot run as a vertex program at
        // all; the only option is the centralized engine.
        let database = run_centralized(graph, store, query)?;
        return Ok(NaiveRun {
            database,
            unfolded_nodes: 0,
            unfolded_edges: 0,
            rounds: 1,
        });
    }

    let analyzed = query.query();
    let n = graph.num_vertices();
    let mut states: Vec<QueryState> = vec![QueryState::new(); n];

    // Materialize everything at once, as one database (a predicate whose
    // rows differ in arity is refused, typed, as centralized refuses it),
    // its unfolded view over the owners inside the graph (part of the
    // memory blowup), and every such row handed to its owner.
    let db = store.to_database().map_err(AriadneError::Store)?;
    let inside = |v: u64| (v as usize) < n;
    let unfolded = UnfoldedGraph::from_database_owned_by(&db, inside);
    for (name, rel) in db.into_relations() {
        for t in rel.into_tuples() {
            if let Some(v) = t.first().and_then(Value::as_id).filter(|&v| inside(v)) {
                states[v as usize].db.insert(&name, t);
            }
        }
    }
    let routes = RouteTable::reading(&analyzed.edbs);
    for v in graph.vertices() {
        states[v.index()].statics(&routes, &mut [], graph, v);
    }

    // Global fixpoint, stratum by stratum. Within a stratum, every round
    // evaluates every vertex and ships fresh shipped-table tuples to all
    // neighbours (both directions: the whole-graph mode has no layer
    // ordering to restrict routes).
    let shipped: Vec<&String> = analyzed.shipped.iter().collect();
    let evaluator = query.evaluator();
    let (mut stats, mut scratch) = (EvalStats::default(), EvalScratch::default());

    // Priming round: replicate shipped EDB partitions before any rule
    // evaluates, so remote negation never reads an incomplete replica.
    let mut rounds = u32::from(!shipped.is_empty());
    ship_fresh(graph, &mut states, &shipped);

    for stratum in 0..evaluator.num_strata() {
        loop {
            rounds += 1;
            for (vi, state) in states.iter_mut().enumerate() {
                let loc = Value::Id(vi as u64);
                evaluator
                    .step_stratum(
                        &mut state.db,
                        &mut state.eval,
                        Some(&loc),
                        stratum,
                        &mut stats,
                        &mut scratch,
                    )
                    .map_err(AriadneError::Pql)?;
            }
            if !ship_fresh(graph, &mut states, &shipped) {
                break;
            }
        }
    }

    // Merge IDB results.
    let mut merged = Database::new();
    for (v, state) in states.into_iter().enumerate() {
        let idb = |name: &str| analyzed.idbs.get_key_value(name).map(|(name, _)| name);
        for (name, arity, owned) in state.into_owned(VertexId(v as u64), idb) {
            let into = merged.relation_mut(name, arity);
            for t in owned {
                into.insert(t);
            }
        }
    }
    Ok(NaiveRun {
        database: merged,
        unfolded_nodes: unfolded.num_nodes(),
        unfolded_edges: unfolded.num_edges(),
        rounds,
    })
}

/// Ship every vertex's fresh shipped-table tuples to all its neighbours
/// (both directions). Returns whether anything moved.
fn ship_fresh(graph: &Csr, states: &mut [QueryState], shipped: &[&String]) -> bool {
    if shipped.is_empty() {
        return false;
    }
    let mut moved = false;
    #[allow(clippy::type_complexity)]
    let mut deliveries: Vec<(usize, String, Vec<ariadne_pql::Tuple>)> = Vec::new();
    for (vi, state) in states.iter_mut().enumerate() {
        let vertex = VertexId(vi as u64);
        let fresh = state.take_shippable(shipped.iter().map(|s| s.as_str()), vertex);
        if fresh.is_empty() {
            continue;
        }
        let mut neighbors: Vec<VertexId> = graph
            .out_neighbors(vertex)
            .iter()
            .chain(graph.in_neighbors(vertex))
            .copied()
            .collect();
        neighbors.sort_unstable();
        neighbors.dedup();
        for (pred, tuples) in fresh {
            for &nb in &neighbors {
                deliveries.push((nb.index(), pred.clone(), tuples.clone()));
            }
        }
    }
    for (vi, pred, tuples) in deliveries {
        for t in tuples {
            if states[vi].db.insert(&pred, t) {
                moved = true;
            }
        }
    }
    moved
}

/// Centralized evaluation: load everything into one database and run the
/// semi-naive engine. The correctness oracle for the other modes, and
/// the only evaluator for non-VC-compatible queries.
pub fn run_centralized(
    graph: &Csr,
    store: &ProvStore,
    query: &CompiledQuery,
) -> Result<Database, AriadneError> {
    let mut db = store.to_database().map_err(AriadneError::Store)?;
    let routes = RouteTable::reading(&query.query().edbs);
    for v in graph.vertices() {
        Outlet::new(&routes, &mut db, &mut []).statics(graph, v);
    }
    query.evaluator().run(&mut db).map_err(AriadneError::Pql)?;
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use ariadne_graph::generators::regular::path;
    use ariadne_pql::Params;
    use ariadne_provenance::StoreConfig;

    fn store_with_steps() -> ProvStore {
        let mut store = ProvStore::new(StoreConfig::in_memory());
        store
            .ingest(
                0,
                "superstep",
                vec![
                    vec![Value::Id(0), Value::Int(0)],
                    vec![Value::Id(1), Value::Int(0)],
                ],
            )
            .unwrap();
        store
    }

    #[test]
    fn budget_guard() {
        let g = path(2);
        let store = store_with_steps();
        let q = compile("active(x, i) :- superstep(x, i).", Params::new()).unwrap();
        match run_naive(&g, &store, &q, Some(1)) {
            Err(AriadneError::NaiveOverflow { tuples, budget }) => {
                assert_eq!(tuples, 2);
                assert_eq!(budget, 1);
            }
            other => panic!("expected overflow, got {other:?}"),
        }
        assert!(run_naive(&g, &store, &q, Some(100)).is_ok());
    }

    #[test]
    fn local_query_whole_graph() {
        let g = path(2);
        let store = store_with_steps();
        let q = compile("active(x, i) :- superstep(x, i).", Params::new()).unwrap();
        let run = run_naive(&g, &store, &q, None).unwrap();
        assert_eq!(run.database.len("active"), 2);
        assert!(run.unfolded_nodes >= 2);
        assert!(run.rounds >= 1);
    }

    /// A predicate stored at two arities is refused, typed, as
    /// centralized evaluation refuses it, not loaded row by row until a
    /// relation's arity check panics.
    #[test]
    fn mixed_arity_store_is_a_typed_error() {
        let g = path(2);
        let mut store = store_with_steps();
        let row = vec![Value::Id(1), Value::Int(0), Value::Int(7)];
        store.ingest(0, "superstep", vec![row]).unwrap();
        let q = compile("active(x, i) :- superstep(x, i).", Params::new()).unwrap();
        for err in [
            run_naive(&g, &store, &q, None)
                .map(|run| run.database)
                .unwrap_err(),
            run_centralized(&g, &store, &q).unwrap_err(),
        ] {
            let AriadneError::Store(e) = err else {
                panic!("expected a store error, got {err:?}");
            };
            assert!(e.to_string().contains("holds rows of arity 2 and 3"), "{e}");
        }
    }

    #[test]
    fn unrestricted_queries_fall_back_to_centralized() {
        let g = path(3);
        let store = store_with_steps();
        // t(y, i) is remote and unguarded in r's body.
        let q = compile(
            "t(y, i) :- superstep(y, i).
             r(x, i) :- superstep(x, i), t(y, i), x != y.",
            Params::new(),
        )
        .unwrap();
        assert!(!q.direction().is_vc_compatible());
        let run = run_naive(&g, &store, &q, None).unwrap();
        // Vertices 0 and 1 are both active at superstep 0: each sees the
        // other in the centralized view.
        assert_eq!(run.database.len("r"), 2);
    }

    #[test]
    fn centralized_injects_graph_edbs() {
        let g = path(3);
        let store = ProvStore::new(StoreConfig::in_memory());
        let q = compile(
            "deg(x, count(y)) :- edge(x, y).
             incoming(x, count(y)) :- in_edge(x, y).",
            Params::new(),
        )
        .unwrap();
        let db = run_centralized(&g, &store, &q).unwrap();
        assert_eq!(db.len("deg"), 2); // vertices 0 and 1 have out-edges
        assert_eq!(db.len("incoming"), 2); // vertices 1 and 2 have in-edges
    }
}
