//! Failure injection: the system must fail loudly and precisely, not
//! corrupt results.

use ariadne::session::{Ariadne, AriadneError};
use ariadne::{compile, CaptureSpec};
use ariadne_analytics::Wcc;
use ariadne_graph::generators::regular::path;
use ariadne_pql::{Params, UdfRegistry, Value};
use ariadne_provenance::{ProvStore, StoreConfig, StoreError};

#[test]
fn unknown_udf_fails_the_online_run_loudly() {
    // A query that references a UDF nobody registered: analysis cannot
    // tell it from a predicate typo, so evaluation reports it the first
    // time a vertex reaches the call — as a typed error naming the
    // failing vertex and superstep, not a worker panic.
    let q = compile(
        "p(x, i) :- value(x, d, i), no_such_udf(d).",
        Params::new(),
    )
    .unwrap();
    let g = path(3);
    let err = Ariadne::default()
        .online(&Wcc, &g, &q)
        .expect_err("an unknown UDF must fail the run");
    match &err {
        ariadne::AriadneError::Query {
            vertex,
            superstep,
            source,
        } => {
            // Every vertex hits the UDF in its first active superstep;
            // the reported failure is the deterministic minimum.
            assert_eq!(*vertex, ariadne_graph::VertexId(0));
            assert_eq!(*superstep, 0);
            assert!(
                source.to_string().contains("no_such_udf"),
                "unhelpful error: {source}"
            );
        }
        other => panic!("expected AriadneError::Query, got {other:?}"),
    }
    // The error chain is preserved for callers using `Error::source`.
    assert!(std::error::Error::source(&err).is_some());
}

#[test]
fn custom_udfs_can_be_supplied_instead() {
    // The same query compiles and runs fine once the UDF exists.
    let mut udfs = UdfRegistry::standard();
    udfs.register("no_such_udf", |args| {
        args[0].as_f64().map(|v| v >= 0.0).unwrap_or(false)
    });
    let q = ariadne::compile_with(
        "p(x, i) :- value(x, d, i), no_such_udf(d).",
        Params::new(),
        &ariadne_pql::Catalog::standard(),
        udfs,
    )
    .unwrap();
    let g = path(3);
    let run = Ariadne::default().online(&Wcc, &g, &q).unwrap();
    assert!(run.query_results.len("p") > 0);
}

#[test]
fn spool_dir_is_created_on_demand() {
    let dir = std::env::temp_dir()
        .join(format!("ariadne-missing-{}", std::process::id()))
        .join("deep")
        .join("nested");
    let ariadne = Ariadne {
        store: ariadne_provenance::StoreConfig::spilling(1, dir.clone()),
        ..Ariadne::default()
    };
    let g = path(4);
    let run = ariadne.capture(&Wcc, &g, &CaptureSpec::full()).unwrap();
    assert!(run.store.spills() > 0);
    std::fs::remove_dir_all(dir.parent().unwrap().parent().unwrap()).ok();
}

#[test]
fn unwritable_spool_dir_is_a_typed_io_error() {
    // Point the spool at a child of a regular file: the directory cannot
    // be created, and the failure must surface as a typed IO error
    // carrying the offending path — not a panic, and works even when the
    // test runs privileged (unlike permission-bit tricks).
    let file = std::env::temp_dir().join(format!("ariadne-flat-{}", std::process::id()));
    std::fs::write(&file, b"not a directory").unwrap();
    let dir = file.join("spool");
    let ariadne = Ariadne {
        store: ariadne_provenance::StoreConfig::spilling(1, dir.clone()),
        ..Ariadne::default()
    };
    let g = path(4);
    let err = ariadne
        .capture(&Wcc, &g, &CaptureSpec::full())
        .expect_err("spilling into an uncreatable dir must fail");
    match &err {
        ariadne::AriadneError::Store(ariadne::StoreError::Io { path, .. }) => {
            assert!(
                path.starts_with(&file),
                "error path {path:?} should point into {file:?}"
            );
        }
        other => panic!("expected StoreError::Io, got {other:?}"),
    }
    std::fs::remove_file(&file).ok();
}

#[test]
fn empty_graph_runs_everywhere() {
    let g = ariadne_graph::Csr::empty(0);
    let ariadne = Ariadne::default();
    let q = ariadne::queries::sssp_wcc_no_message_no_change().unwrap();
    let online = ariadne.online(&Wcc, &g, &q).unwrap();
    assert!(online.values.is_empty());
    let capture = ariadne.capture(&Wcc, &g, &CaptureSpec::full()).unwrap();
    assert_eq!(capture.store.tuple_count(), 0);
    assert!(ariadne.layered(&g, &capture.store, &q).is_ok());
    assert!(ariadne.naive(&g, &capture.store, &q).is_ok());
}

#[test]
fn queries_with_param_type_mismatches_evaluate_to_nothing() {
    // eps supplied as a string: udf_diff returns false rather than
    // panicking, so `change` is simply empty.
    let q = ariadne::queries::apt("udf_diff", Value::str("not-a-number")).unwrap();
    let g = path(4);
    let run = Ariadne::default().online(&Wcc, &g, &q).unwrap();
    assert_eq!(run.query_results.len("change"), 0);
    // And everything active (i > 0) counts as unsafe-to-skip.
    assert_eq!(
        run.query_results.len("no_execute"),
        run.query_results.len("unsafe")
    );
}

#[test]
fn ragged_stored_predicate_is_refused_by_every_mode() {
    // `ProvStore::ingest` keeps rows of mixed arity for one predicate
    // (as a row-major record); no relation holds both, so centralized and
    // layered replay must refuse them with the same typed error, at every
    // thread count — not answer from whatever rows a vertex received.
    let q = compile("active(x, i) :- superstep(x, i).", Params::new()).unwrap();
    let g = path(3);
    let mut store = ProvStore::new(StoreConfig::in_memory());
    store
        .ingest(
            0,
            "superstep",
            vec![
                vec![Value::Id(0), Value::Int(0)],
                vec![Value::Id(1), Value::Int(0), Value::Int(9)],
            ],
        )
        .unwrap();
    for threads in [1, 2, 7] {
        let ariadne = Ariadne::with_threads(threads);
        let centralized = ariadne.centralized(&g, &store, &q).map(|_| ());
        let layered = ariadne.layered(&g, &store, &q).map(|_| ());
        for (mode, result) in [("centralized", centralized), ("layered", layered)] {
            match result {
                Err(AriadneError::Store(StoreError::Corrupt { detail, .. })) => assert!(
                    detail.contains("`superstep` holds rows of arity 2 and 3"),
                    "{mode} at T={threads}: {detail}"
                ),
                other => panic!("{mode} at T={threads}: expected a typed refusal, got {other:?}"),
            }
        }
    }
}
