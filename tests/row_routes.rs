//! Every row a vertex-step makes is routed once: into its vertex's
//! database where a rule reads it or nothing stores it, into the capture's
//! row block where the store keeps it, or into both.
//!
//! Four captures exercise the rows that are not Table-1 rows:
//! - a static EDB (`edge`, `in_edge`);
//! - a custom relation no rule reads;
//! - a custom relation a capture rule reads;
//! - a capture-rule head that joins a static EDB.
//!
//! For each, at every thread count, the store holds per predicate the
//! own-located rows that the same run, storing nothing, leaves in its
//! vertex databases. And a row the capture only stores is never a tuple:
//! no vertex database holds a relation that the capture persists and no
//! rule reads (`a_row_only_stored_is_never_a_tuple`; a capture that read
//! static and custom rows back out of the databases failed it).

use ariadne::custom::{AlsProv, CustomProv};
use ariadne::online::{OnlineConfig, OnlineProgram, Persist};
use ariadne::{compile, compile_with, queries, CaptureSpec};
use ariadne_analytics::als::{Als, AlsConfig};
use ariadne_analytics::Sssp;
use ariadne_graph::generators::{rmat, BipartiteRatings, RatingsConfig, RmatConfig};
use ariadne_graph::{Csr, VertexId};
use ariadne_pql::{Database, Params, Tuple, UdfRegistry, Value};
use ariadne_provenance::{ProvEncode, ProvStore, StoreConfig, StoreWriter};
use ariadne_vc::{Engine, EngineConfig, VertexProgram};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const THREADS: [usize; 4] = [1, 2, 3, 7];

/// Rows per predicate, sorted.
type Rows = BTreeMap<String, Vec<Tuple>>;

/// Run `analytic` under the online wrapper configured from `spec` on
/// `threads` engine threads, capturing when `capture` is set. Returns
/// every vertex's database and, for a capture, the store.
fn wrapped_run<A>(
    analytic: &A,
    graph: &Csr,
    spec: &CaptureSpec,
    custom: Option<Arc<dyn CustomProv<A>>>,
    threads: usize,
    capture: bool,
) -> (Vec<Database>, Option<ProvStore>)
where
    A: VertexProgram,
    A::V: ProvEncode,
    A::M: ProvEncode,
{
    let writer = capture.then(|| StoreWriter::spawn(StoreConfig::in_memory()));
    let query = spec.query.as_ref();
    let config = OnlineConfig {
        evaluator: query.map(|q| q.evaluator().clone()),
        needed: Arc::new(spec.needed()),
        shipped: Arc::new(query.map(|q| q.query().shipped.clone()).unwrap_or_default()),
        persist: writer.as_ref().map(|writer| Persist {
            sender: writer.sender(),
            preds: Arc::new(spec.persist_preds()),
            sync: false,
        }),
        custom,
    };
    let program = OnlineProgram::new(analytic, config);
    let run = Engine::new(EngineConfig::parallel(threads)).run(&program, graph);
    assert!(program.take_failure().is_none(), "query evaluation failed");
    program.flush();
    let store = writer.map(|writer| writer.finish().unwrap());
    (
        run.values.into_iter().map(|state| state.q.db).collect(),
        store,
    )
}

/// The own-located rows of each predicate `spec` persists, as the
/// per-vertex databases hold them.
fn database_rows(dbs: &[Database], spec: &CaptureSpec) -> Rows {
    let mut rows = Rows::new();
    for pred in spec.persist_preds() {
        for (v, db) in dbs.iter().enumerate() {
            let Some(rel) = db.relation(&pred) else {
                continue;
            };
            let own = rel.scan().iter().filter(|t| t[0] == Value::Id(v as u64));
            rows.entry(pred.clone()).or_default().extend(own.cloned());
        }
    }
    rows.values_mut().for_each(|rows| rows.sort());
    rows
}

/// Every row `store` holds, per predicate, all layers merged.
fn store_rows(store: &ProvStore) -> Rows {
    let mut rows = Rows::new();
    for step in 0..=store.max_superstep().expect("the capture stored something") {
        for (pred, layer) in store.layer(step).unwrap() {
            rows.entry(pred).or_default().extend(layer);
        }
    }
    rows.values_mut().for_each(|rows| rows.sort());
    rows
}

/// The relations `spec` persists and its rules do not read.
fn stored_only(spec: &CaptureSpec) -> BTreeSet<String> {
    let read = spec
        .query
        .as_ref()
        .map(|q| q.query().edbs.clone())
        .unwrap_or_default();
    let heads = |p: &String| {
        spec.query
            .as_ref()
            .is_some_and(|q| q.query().idbs.contains_key(p))
    };
    (spec.persist_preds().into_iter())
        .filter(|p| !read.contains(p) && !heads(p))
        .collect()
}

/// The store of a capture per `spec` holds, per predicate, the rows the
/// same run leaves in its databases when it stores nothing.
fn assert_stored<A>(
    name: &str,
    analytic: &A,
    graph: &Csr,
    spec: &CaptureSpec,
    custom: Option<Arc<dyn CustomProv<A>>>,
) where
    A: VertexProgram,
    A::V: ProvEncode,
    A::M: ProvEncode,
{
    let (dbs, _) = wrapped_run(analytic, graph, spec, custom.clone(), 1, false);
    let want = database_rows(&dbs, spec);
    let persisted: Vec<&String> = want.keys().collect();
    assert_eq!(
        persisted,
        spec.persist_preds().iter().collect::<Vec<_>>(),
        "{name}: nothing to compare"
    );
    assert!(
        want.values().all(|rows| !rows.is_empty()),
        "{name}: an empty predicate"
    );
    for threads in THREADS {
        let (_, store) = wrapped_run(analytic, graph, spec, custom.clone(), threads, true);
        let got = store_rows(&store.expect("a capture has a store"));
        assert_eq!(
            got.keys().collect::<Vec<_>>(),
            persisted,
            "{name}: predicates at {threads} threads"
        );
        for (pred, rows) in &want {
            assert_eq!(&got[pred], rows, "{name}: {pred} at {threads} threads");
        }
    }
}

/// No vertex database of a capture per `spec` holds a row of a relation
/// the capture stores and no rule reads.
fn assert_never_tuples<A>(
    name: &str,
    analytic: &A,
    graph: &Csr,
    spec: &CaptureSpec,
    custom: Option<Arc<dyn CustomProv<A>>>,
) where
    A: VertexProgram,
    A::V: ProvEncode,
    A::M: ProvEncode,
{
    let only = stored_only(spec);
    assert!(!only.is_empty(), "{name}: every stored relation is read");
    for threads in THREADS {
        let (dbs, store) = wrapped_run(analytic, graph, spec, custom.clone(), threads, true);
        assert!(
            store.is_some_and(|store| store.tuple_count() > 0),
            "{name}: nothing stored"
        );
        for (v, db) in dbs.iter().enumerate() {
            for pred in &only {
                let held = db.relation(pred).map_or(0, |rel| rel.len());
                assert_eq!(
                    held, 0,
                    "{name}: vertex {v} holds {pred} rows at {threads} threads"
                );
            }
        }
    }
}

fn graph() -> Csr {
    rmat(RmatConfig {
        scale: 6,
        edge_factor: 5,
        seed: 20,
        ..Default::default()
    })
}

fn als() -> (Als, Csr) {
    let ratings = BipartiteRatings::generate(&RatingsConfig {
        users: 40,
        items: 12,
        ratings_per_user: 6,
        planted_rank: 3,
        noise: 0.2,
        seed: 5,
    });
    let mut config = AlsConfig::new(ratings.users, 3);
    config.supersteps = 5;
    (Als::new(config), ratings.graph)
}

fn static_spec() -> CaptureSpec {
    CaptureSpec::raw(["edge", "in_edge"])
}

fn unread_custom_spec() -> CaptureSpec {
    CaptureSpec::raw(["prov_error"])
}

fn read_custom_spec() -> CaptureSpec {
    let rules = compile_with(
        "over(x, y, i) :- prov_error(x, y, i, e), e > 0.",
        Params::new(),
        &queries::als_catalog(),
        UdfRegistry::standard(),
    )
    .unwrap();
    CaptureSpec::raw(["prov_error", "prov_prediction"]).with_query(rules)
}

fn head_over_static_spec() -> CaptureSpec {
    let rules = compile(
        "sent_along(x, y, i) :- edge(x, y), send_message(x, y, m, i).",
        Params::new(),
    )
    .unwrap();
    CaptureSpec::raw(["edge", "in_edge"]).with_query(rules)
}

fn als_prov() -> Option<Arc<dyn CustomProv<Als>>> {
    Some(Arc::new(AlsProv))
}

#[test]
fn a_static_edb_is_stored() {
    let sssp = Sssp::new(VertexId(0));
    assert_stored("static", &sssp, &graph(), &static_spec(), None);
}

#[test]
fn an_unread_custom_relation_is_stored() {
    let (als, graph) = als();
    assert_stored(
        "unread custom",
        &als,
        &graph,
        &unread_custom_spec(),
        als_prov(),
    );
}

#[test]
fn a_custom_relation_a_capture_rule_reads_is_stored_with_its_head() {
    let (als, graph) = als();
    assert_stored("read custom", &als, &graph, &read_custom_spec(), als_prov());
}

#[test]
fn a_head_that_joins_a_static_edb_is_stored() {
    let sssp = Sssp::new(VertexId(0));
    assert_stored(
        "head over static",
        &sssp,
        &graph(),
        &head_over_static_spec(),
        None,
    );
}

#[test]
fn a_row_only_stored_is_never_a_tuple() {
    let (sssp, rmat) = (Sssp::new(VertexId(0)), graph());
    assert_never_tuples("static", &sssp, &rmat, &static_spec(), None);
    assert_never_tuples(
        "head over static",
        &sssp,
        &rmat,
        &head_over_static_spec(),
        None,
    );
    let (als, ratings) = als();
    assert_never_tuples(
        "unread custom",
        &als,
        &ratings,
        &unread_custom_spec(),
        als_prov(),
    );
    assert_never_tuples(
        "read custom",
        &als,
        &ratings,
        &read_custom_spec(),
        als_prov(),
    );
}
