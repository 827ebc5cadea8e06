//! The two sinks of generated provenance agree.
//!
//! An online run puts every generated row into its vertex's database; a
//! capture puts the rows it stores into per-worker row blocks that go to
//! the store at the barrier and never become tuples. Both are fed by the
//! same generator, so for any capture spec the store must hold, per
//! (superstep, predicate), exactly the own-located rows an online-style
//! run over the same predicates leaves in the per-vertex databases —
//! as a *set*: a database deduplicates on insert, a row block only
//! because the generator deduplicates an unordered message batch before
//! appending it. At every thread count, and with nothing of a raw capture
//! left behind in any vertex's database. (A capture-rule head is stored in
//! the layer of the superstep that *derived* it, which no column of the
//! row records; heads are compared per predicate, layers merged.)

use ariadne::custom::{AlsProv, CustomProv};
use ariadne::online::{OnlineConfig, OnlineProgram, Persist};
use ariadne::queries;
use ariadne::session::{Ariadne, RunOptions};
use ariadne::{CaptureSpec, Snapshot};
use ariadne_analytics::als::{Als, AlsConfig};
use ariadne_analytics::{PageRank, Sssp, Wcc};
use ariadne_graph::generators::{rmat, BipartiteRatings, RatingsConfig, RmatConfig};
use ariadne_graph::{Csr, VertexId};
use ariadne_pql::{Database, Tuple, Value};
use ariadne_provenance::{ProvEncode, ProvStore, StoreConfig, StoreSender, StoreWriter};
use ariadne_vc::{Context, Engine, EngineConfig, Envelope, VertexProgram};
use std::collections::BTreeMap;
use std::sync::Arc;

const THREADS: [usize; 4] = [1, 2, 3, 7];

/// Sends out of neighbour order, the same message twice to one
/// neighbour and a second, different one to another: message batches
/// whose peers are not ascending, with and without repeated rows.
struct Echo;

impl VertexProgram for Echo {
    type V = i64;
    type M = i64;

    fn init(&self, v: VertexId, _: &Csr) -> i64 {
        v.0 as i64
    }

    fn compute(&self, ctx: &mut dyn Context<i64>, value: &mut i64, msgs: &[Envelope<i64>]) {
        *value += msgs.iter().map(|e| e.msg).sum::<i64>() % 7;
        if ctx.superstep() < 3 {
            let out = ctx.graph().out_neighbors(ctx.vertex()).to_vec();
            for &to in out.iter().rev().chain(out.first()) {
                ctx.send(to, *value % 5);
            }
            if let Some(&last) = out.last() {
                ctx.send(last, *value % 5 + 10);
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

/// Run `analytic` under the online wrapper configured from `spec` and
/// return every vertex's query database. With a `sender` this is a
/// capture (what `Ariadne::capture_with` runs); without, every generated
/// row stays in the databases.
fn wrapped_run<A>(
    analytic: &A,
    graph: &Csr,
    spec: &CaptureSpec,
    custom: Option<Arc<dyn CustomProv<A>>>,
    sender: Option<StoreSender>,
) -> Vec<Database>
where
    A: VertexProgram,
    A::V: ProvEncode,
    A::M: ProvEncode,
{
    let query = spec.query.as_ref();
    let config = OnlineConfig {
        evaluator: query.map(|q| q.evaluator().clone()),
        needed: Arc::new(spec.needed()),
        shipped: Arc::new(query.map(|q| q.query().shipped.clone()).unwrap_or_default()),
        persist: sender.map(|sender| Persist {
            sender,
            preds: Arc::new(spec.persist_preds()),
            sync: false,
        }),
        custom,
    };
    let program = OnlineProgram::new(analytic, config);
    let run = Engine::new(EngineConfig::sequential()).run(&program, graph);
    assert!(program.take_failure().is_none(), "query evaluation failed");
    run.values.into_iter().map(|state| state.q.db).collect()
}

/// Which column of a generated `pred` row holds the superstep it was
/// generated in; `None` for a capture-rule head.
fn superstep_column(spec: &CaptureSpec, pred: &str, arity: usize) -> Option<usize> {
    let head = |q: &ariadne::compile::CompiledQuery| q.query().idbs.contains_key(pred);
    match pred {
        _ if spec.query.as_ref().is_some_and(head) => None,
        "prov_error" | "prov_prediction" => Some(2),
        _ => Some(arity - 1),
    }
}

/// Sorted rows by (superstep, predicate); all of a head's under `None`.
type Layers = BTreeMap<(Option<u32>, String), Vec<Tuple>>;

/// The own-located rows of the predicates `spec` persists, as the
/// per-vertex databases hold them.
fn database_layers(dbs: &[Database], spec: &CaptureSpec) -> Layers {
    let mut layers = Layers::new();
    for (v, db) in dbs.iter().enumerate() {
        for pred in spec.persist_preds() {
            let Some(rel) = db.relation(&pred) else {
                continue;
            };
            let own = rel.scan().iter().filter(|t| t[0] == Value::Id(v as u64));
            for t in own {
                let step = superstep_column(spec, &pred, t.len()).map(|col| match t[col] {
                    Value::Int(step) => step as u32,
                    _ => panic!("{pred}: no superstep in {t:?}"),
                });
                layers
                    .entry((step, pred.clone()))
                    .or_default()
                    .push(t.clone());
            }
        }
    }
    layers.values_mut().for_each(|rows| rows.sort());
    layers
}

/// The same, as the store holds them.
fn store_layers(store: &ProvStore, spec: &CaptureSpec) -> Layers {
    let mut layers = Layers::new();
    for step in 0..=store.max_superstep().expect("the capture stored something") {
        for (pred, rows) in store.layer(step).unwrap() {
            let arity = rows[0].len();
            let step = superstep_column(spec, &pred, arity).map(|_| step);
            layers.entry((step, pred)).or_default().extend(rows);
        }
    }
    layers.values_mut().for_each(|rows| rows.sort());
    layers
}

fn assert_sinks_agree<A>(
    name: &str,
    analytic: &A,
    graph: &Csr,
    spec: &CaptureSpec,
    custom: Option<Arc<dyn CustomProv<A>>>,
) where
    A: VertexProgram,
    A::V: ProvEncode + Snapshot,
    A::M: ProvEncode + Snapshot,
{
    let dbs = wrapped_run(analytic, graph, spec, custom.clone(), None);
    let want = database_layers(&dbs, spec);
    let rows: usize = want.values().map(Vec::len).sum();
    assert!(rows > 0, "{name}: nothing to compare");
    for threads in THREADS {
        let run = Ariadne::with_threads(threads)
            .capture_with(
                analytic,
                graph,
                spec,
                &RunOptions {
                    custom: custom.clone(),
                    resume: false,
                },
            )
            .unwrap();
        assert_eq!(
            run.store.tuple_count(),
            rows,
            "{name}: tuple_count at {threads} threads"
        );
        let got = store_layers(&run.store, spec);
        assert_eq!(
            got.keys().collect::<Vec<_>>(),
            want.keys().collect::<Vec<_>>(),
            "{name}: segments at {threads} threads"
        );
        for (key, rows) in &want {
            assert_eq!(&got[key], rows, "{name}: {key:?} at {threads} threads");
        }
    }
}

/// The capture specs every plain analytic is run under: everything, a raw
/// subset, a capture query whose EDBs are only read, and one that stores
/// a predicate its rules also read.
fn specs() -> Vec<(&'static str, CaptureSpec)> {
    let lineage = || queries::capture_forward_lineage(VertexId(0)).unwrap();
    let mut both = lineage();
    both.edbs.insert("value".to_string());
    both.edbs.insert("evolution".to_string());
    vec![
        ("full", CaptureSpec::full()),
        ("raw subset", CaptureSpec::raw(["value", "send_message"])),
        ("forward lineage", lineage()),
        ("lineage + read predicate", both),
    ]
}

fn assert_analytic<A>(name: &str, analytic: &A, graph: &Csr)
where
    A: VertexProgram,
    A::V: ProvEncode + Snapshot,
    A::M: ProvEncode + Snapshot,
{
    for (spec_name, spec) in specs() {
        assert_sinks_agree(
            &format!("{name} / {spec_name}"),
            analytic,
            graph,
            &spec,
            None,
        );
    }
}

#[test]
fn pagerank_capture_equals_the_databases() {
    let pagerank = PageRank {
        supersteps: 6,
        ..PageRank::default()
    };
    assert_analytic("pagerank", &pagerank, &graph());
}

#[test]
fn sssp_capture_equals_the_databases() {
    assert_analytic("sssp", &Sssp::new(VertexId(0)), &graph());
}

#[test]
fn wcc_capture_equals_the_databases() {
    assert_analytic("wcc", &Wcc, &graph());
}

#[test]
fn unordered_and_repeated_sends_are_stored_once() {
    let graph = graph();
    assert_analytic("echo", &Echo, &graph);
    // The analytic does produce what the generator has to deduplicate.
    let dbs = wrapped_run(
        &Echo,
        &graph,
        &CaptureSpec::raw(["send_message"]),
        None,
        None,
    );
    let stored: usize = dbs.iter().map(Database::total_tuples).sum();
    let sent: usize = (0..graph.num_vertices() as u64)
        .map(|v| graph.out_neighbors(VertexId(v)).len())
        .map(|out| if out == 0 { 0 } else { 3 * (out + 2) })
        .sum();
    assert!(
        stored < sent,
        "{stored} rows for {sent} sends: no repeats to drop"
    );
}

#[test]
fn custom_provenance_capture_equals_the_databases() {
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
    let spec = CaptureSpec::raw(["prov_error", "prov_prediction", "value"]);
    let custom: Arc<dyn CustomProv<Als>> = Arc::new(AlsProv);
    assert_sinks_agree(
        "als / custom",
        &Als::new(config),
        &ratings.graph,
        &spec,
        Some(custom),
    );
}

#[test]
fn a_raw_capture_leaves_every_database_empty() {
    let graph = graph();
    for (name, spec) in [
        ("full", CaptureSpec::full()),
        ("raw subset", CaptureSpec::raw(["value", "send_message"])),
    ] {
        let writer = StoreWriter::spawn(StoreConfig::in_memory());
        let dbs = wrapped_run(&Echo, &graph, &spec, None, Some(writer.sender()));
        let store = writer.finish().unwrap();
        assert!(store.tuple_count() > 0, "{name}: nothing captured");
        assert!(
            dbs.iter().all(Database::is_empty),
            "{name}: a raw capture filled a database"
        );
    }
}
