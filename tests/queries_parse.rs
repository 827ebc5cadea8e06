//! Every `.pql` file shipped in `queries/` must parse, analyze, and
//! produce exactly the EXPLAIN plan snapshotted here.
//!
//! These snapshots are the contract behind `docs/PQL.md`: the language
//! reference publishes the `backward_lineage.pql` EXPLAIN output
//! verbatim and claims it is "snapshot-checked by
//! `tests/queries_parse.rs`" — [`pql_md_walkthrough_matches_compiler`]
//! enforces that claim, and the per-file tests pin the rest. If a
//! planner change shifts a snapshot, update both the test and (for
//! backward lineage) the walkthrough in `docs/PQL.md`.

use ariadne::compile::{compile, CompiledQuery};
use ariadne_pql::{explain, Direction, Params, Value};
use std::fs;
use std::path::{Path, PathBuf};

/// The repo's `queries/` directory (tests run with the workspace root
/// as the manifest dir of the top-level package).
fn queries_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("queries")
}

/// Compile a shipped query file with the parameters its header comment
/// documents. Values match the `docs/PQL.md` walkthrough where one
/// exists (`alpha = v3`, `sigma = 2`).
fn compile_file(name: &str) -> CompiledQuery {
    let path = queries_dir().join(name);
    let source = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let params = match name {
        "apt.pql" => Params::new().with("eps", Value::Float(0.1)),
        "backward_lineage.pql" => Params::new()
            .with("alpha", Value::Id(3))
            .with("sigma", Value::Int(2)),
        "forward_lineage.pql" => Params::new().with("alpha", Value::Id(0)),
        _ => Params::new(),
    };
    compile(&source, params).unwrap_or_else(|e| panic!("{name} failed to compile: {e}"))
}

/// Assert a query's EXPLAIN output matches its snapshot, with a diff
/// that shows the first diverging line.
fn assert_explain(name: &str, query: &CompiledQuery, expected: &str) {
    let actual = explain(query.query());
    let actual = actual.trim_end();
    let expected = expected.trim();
    if actual != expected {
        for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
            assert_eq!(a, e, "{name}: EXPLAIN line {} diverges", i + 1);
        }
        assert_eq!(
            actual.lines().count(),
            expected.lines().count(),
            "{name}: EXPLAIN line count diverges\nactual:\n{actual}"
        );
    }
}

const APT_EXPLAIN: &str = "
direction: Forward
modes: online=true layered=true vc-compatible=true
reads: evolution, receive_message, superstep, value
layers: evolution @ all, receive_message @ all, superstep @ [1, inf), value @ all
shipped with messages: change
stratum 0:
  rule change/2 (line 4):
    scan evolution
    scan value
    scan value
    udf udf_diff
stratum 1:
  rule neighbor_change/2 (line 5):
    scan receive_message
    assign j
    check not-in change
stratum 2:
  rule no_execute/2 (line 6):
    scan superstep
    check not-in neighbor_change
    filter >
  rule safe/2 (line 7):
    scan no_execute
    semi-join change
  rule unsafe/2 (line 8):
    scan no_execute
    check not-in change
";

const BACKWARD_LINEAGE_EXPLAIN: &str = "
direction: Backward
modes: online=false layered=true vc-compatible=true
reads: send_message, superstep, value
layers: send_message @ [0, 1], superstep @ {2}, value @ {0}
shipped with messages: back_trace
stratum 0:
  rule back_trace/2 (line 3):
    scan superstep
    filter =
    filter =
  rule back_trace/2 (line 4):
    scan send_message
    scan back_trace
    filter =
  rule back_lineage/2 (line 5):
    scan back_trace
    filter =
    scan value
";

const FORWARD_LINEAGE_EXPLAIN: &str = "
direction: Forward
modes: online=true layered=true vc-compatible=true
reads: receive_message, superstep, value
layers: receive_message @ all, superstep @ {0}, value @ all
shipped with messages: fwd_lineage
stratum 0:
  rule fwd_lineage/3 (line 2):
    scan value
    filter =
    filter =
    semi-join superstep
  rule fwd_lineage/3 (line 3):
    scan receive_message
    semi-join fwd_lineage
    scan value
";

const NO_MESSAGE_NO_CHANGE_EXPLAIN: &str = "
direction: Local
modes: online=true layered=true vc-compatible=true
reads: evolution, receive_message, value
layers: evolution @ all, receive_message @ all, value @ all
stratum 0:
  rule neighbor_change/2 (line 2):
    scan receive_message
stratum 1:
  rule problem/2 (line 3):
    scan evolution
    check not-in neighbor_change
    scan value
    scan value
    filter !=
";

const PAGERANK_CHECK_EXPLAIN: &str = "
direction: Local
modes: online=true layered=true vc-compatible=true
reads: in_edge, receive_message
layers: in_edge @ all, receive_message @ all
stratum 0:
  rule in_degree/2 (line 2) [aggregate]:
    scan in_edge
  rule has_in/1 (line 3):
    scan in_edge
stratum 1:
  rule check_failed/3 (line 4):
    scan receive_message
    check not-in has_in
";

const VALUE_CHECK_EXPLAIN: &str = "
direction: Local
modes: online=true layered=true vc-compatible=true
reads: evolution, receive_message, value
layers: evolution @ all, receive_message @ all, value @ all
stratum 0:
  rule check_failed/2 (line 2):
    scan evolution
    scan value
    scan value
    filter >
    semi-join receive_message
";

/// (file, expected direction, expected EXPLAIN snapshot).
const SNAPSHOTS: &[(&str, Direction, &str)] = &[
    ("apt.pql", Direction::Forward, APT_EXPLAIN),
    ("backward_lineage.pql", Direction::Backward, BACKWARD_LINEAGE_EXPLAIN),
    ("forward_lineage.pql", Direction::Forward, FORWARD_LINEAGE_EXPLAIN),
    ("no_message_no_change.pql", Direction::Local, NO_MESSAGE_NO_CHANGE_EXPLAIN),
    ("pagerank_check.pql", Direction::Local, PAGERANK_CHECK_EXPLAIN),
    ("value_check.pql", Direction::Local, VALUE_CHECK_EXPLAIN),
];

#[test]
fn every_shipped_query_has_a_snapshot() {
    let mut on_disk: Vec<String> = fs::read_dir(queries_dir())
        .expect("queries/ directory")
        .filter_map(|e| {
            let name = e.unwrap().file_name().into_string().unwrap();
            name.ends_with(".pql").then_some(name)
        })
        .collect();
    on_disk.sort();
    let mut snapshotted: Vec<String> =
        SNAPSHOTS.iter().map(|(n, _, _)| n.to_string()).collect();
    snapshotted.sort();
    assert_eq!(
        on_disk, snapshotted,
        "queries/*.pql and the SNAPSHOTS table must list the same files"
    );
}

#[test]
fn all_queries_compile_with_expected_plans() {
    for (name, direction, expected) in SNAPSHOTS {
        let q = compile_file(name);
        assert_eq!(q.direction(), *direction, "{name}: direction class");
        assert_explain(name, &q, expected);
    }
}

#[test]
fn direction_classes_imply_consistent_modes() {
    for (name, _, _) in SNAPSHOTS {
        let q = compile_file(name);
        let d = q.direction();
        // The capability matrix published in docs/PQL.md.
        match d {
            Direction::Local | Direction::Forward => {
                assert!(d.supports_online(), "{name}: local/forward must run online");
                assert!(d.supports_layered(), "{name}");
            }
            Direction::Backward => {
                assert!(!d.supports_online(), "{name}: backward cannot run online");
                assert!(d.supports_layered(), "{name}");
            }
            _ => {}
        }
        assert!(d.is_vc_compatible(), "{name}: every shipped query is VC-compatible");
        // The EXPLAIN `modes:` line must agree with the probes.
        let text = explain(q.query());
        let modes = format!(
            "modes: online={} layered={} vc-compatible={}",
            d.supports_online(),
            d.supports_layered(),
            d.is_vc_compatible()
        );
        assert!(text.contains(&modes), "{name}: {modes} missing from EXPLAIN");
    }
}

#[test]
fn pql_md_walkthrough_matches_compiler() {
    // docs/PQL.md publishes the backward_lineage EXPLAIN output verbatim
    // and points here; hold the doc to it.
    let doc_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("docs/PQL.md");
    let doc = fs::read_to_string(&doc_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", doc_path.display()));
    let actual = explain(compile_file("backward_lineage.pql").query());
    let block = actual.trim_end();
    assert!(
        doc.contains(block),
        "docs/PQL.md no longer contains the compiler's EXPLAIN output for \
         backward_lineage.pql (alpha=v3, sigma=2); update the walkthrough.\n\
         expected block:\n{block}"
    );
    // And the doc's prose must keep pointing at this test.
    assert!(doc.contains("tests/queries_parse.rs"));
}
