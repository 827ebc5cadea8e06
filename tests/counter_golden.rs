//! Exact logical-work counts, held in the repository.
//!
//! Eight fixed-seed shapes, one per workload family of the benchmark and
//! one per further bare analytic, run on an R-MAT scale-7 graph: a bare
//! PageRank, SSSP and WCC baseline; a spilling capture,
//! compacted, reopened cold and loaded whole; an online Query 6; a
//! layered backward-lineage replay; an edge insert appended as a
//! mutation epoch; and a query-service miss plus one cursor page. Every
//! store is an explicit v3 store, as the benchmark's are.
//!
//! Around each shape the test takes the delta of every counter the
//! registry flags deterministic (`MetricsSnapshot::deterministic_counters`)
//! and compares the table exactly with `tests/golden/counters.tsv`: once
//! at one thread and three times at two. A flag of `true` promises a
//! value that depends on the logical work alone, so it must not move
//! with the thread count or with the order threads deliver in. A
//! mismatch prints the whole new table; the golden file changes only
//! with a change that says which count moved and why.
//!
//! The registry is process-wide, so this binary holds this one test.

use ariadne::session::Ariadne;
use ariadne::{queries, run_layered_with, CaptureSpec, LayeredConfig, MutableSession, StoreConfig};
use ariadne_analytics::{PageRank, Sssp, Wcc};
use ariadne_graph::generators::rmat::{rmat, RmatConfig};
use ariadne_graph::{Csr, GraphDelta, VertexId};
use ariadne_provenance::{ProvStore, SegmentFormat};
use ariadne_serve::{QueryRequest, QueryService, ServeConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;

const GOLDEN: &str = include_str!("golden/counters.tsv");

/// Query 10 over the service: the backward lineage of `$alpha` from
/// superstep `$sigma`.
const BACKWARD_PQL: &str = "back_trace(x, i) :- superstep(x, i), i = $sigma, x = $alpha.
back_trace(x, i) :- send_message(x, y, m, i), back_trace(y, j), j = i + 1.
back_lineage(x, d) :- back_trace(x, i), value(x, d, i), i = 0.";

/// (shape, counter) → delta, the nonzero ones.
type Table = BTreeMap<(&'static str, &'static str), u64>;

fn deterministic() -> BTreeMap<&'static str, u64> {
    let snapshot = ariadne_obs::registry().snapshot();
    snapshot.deterministic_counters().into_iter().collect()
}

/// Run `shape`, adding its nonzero deterministic-counter deltas to
/// `table` under `name`.
fn measure(table: &mut Table, name: &'static str, shape: impl FnOnce()) {
    let before = deterministic();
    shape();
    for (counter, after) in deterministic() {
        let delta = after - before.get(counter).copied().unwrap_or(0);
        if delta > 0 {
            table.insert((name, counter), delta);
        }
    }
}

fn v3(config: StoreConfig) -> StoreConfig {
    config.with_format(SegmentFormat::V3)
}

fn graphs() -> (Csr, Csr) {
    let plain = rmat(RmatConfig {
        scale: 7,
        edge_factor: 16,
        seed: 0xC0DE,
        ..RmatConfig::default()
    });
    let mut x = 0x9E37_79B9_u64;
    let weighted = plain.map_weights(|_, _, _| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        0.001 + (x >> 11) as f64 / (1u64 << 53) as f64
    });
    (plain, weighted)
}

/// Every shape at `threads`, spooling under `dir`.
fn run_shapes(threads: usize, dir: &PathBuf) -> Table {
    let (plain, weighted) = graphs();
    let hub = weighted.max_out_degree_vertex().unwrap();
    let pagerank = PageRank {
        supersteps: 6,
        ..PageRank::default()
    };
    let sssp = Sssp::new(hub);
    let session = |config: StoreConfig| Ariadne {
        store: v3(config),
        ..Ariadne::with_threads(threads)
    };
    let in_memory = session(StoreConfig::in_memory());
    let mut table = Table::new();

    measure(&mut table, "baseline", || {
        in_memory.baseline(&pagerank, &plain);
    });
    measure(&mut table, "baseline_sssp", || {
        in_memory.baseline(&sssp, &weighted);
    });
    measure(&mut table, "baseline_wcc", || {
        in_memory.baseline(&Wcc, &plain);
    });

    let _ = std::fs::remove_dir_all(dir);
    measure(&mut table, "capture_spill", || {
        let spilling = session(StoreConfig::spilling(32 << 10, dir.clone()));
        let mut store = spilling
            .capture(&pagerank, &plain, &CaptureSpec::full())
            .unwrap()
            .store;
        assert!(store.spills() > 0, "the capture never spilled");
        store.compact().unwrap();
        drop(store);
        let reopened =
            ProvStore::resume_from_spool(v3(StoreConfig::spilling(32 << 10, dir.clone())));
        reopened.unwrap().to_database().unwrap();
    });
    let _ = std::fs::remove_dir_all(dir);

    measure(&mut table, "online_q6", || {
        let q6 = queries::sssp_wcc_no_message_no_change().unwrap();
        in_memory.online(&sssp, &weighted, &q6).unwrap();
    });

    let captured = in_memory
        .capture(&sssp, &weighted, &CaptureSpec::full())
        .unwrap()
        .store;
    let sigma = captured.max_superstep().unwrap();
    measure(&mut table, "layered_backward", || {
        let query = queries::backward_lineage(hub, sigma).unwrap();
        run_layered_with(
            &weighted,
            &captured,
            &query,
            &LayeredConfig::parallel(threads),
        )
        .unwrap();
    });

    let mut chain = in_memory
        .capture(&pagerank, &plain, &CaptureSpec::full())
        .unwrap()
        .store;
    measure(&mut table, "epoch_insert", || {
        let mut mutable = MutableSession::new(in_memory.clone(), plain.clone());
        let missing = (1..plain.num_vertices() as u64)
            .map(VertexId)
            .find(|&v| !plain.has_edge(VertexId(0), v))
            .unwrap();
        let mut delta = GraphDelta::new();
        delta.add_edge(VertexId(0), missing, 1.0);
        mutable.mutate(delta);
        mutable.commit();
        mutable
            .capture_epoch(&pagerank, &CaptureSpec::full(), &mut chain)
            .unwrap();
    });

    let config = ServeConfig {
        threads,
        ..ServeConfig::default()
    };
    let service = QueryService::new(weighted.clone(), captured, config);
    measure(&mut table, "serve_miss_page", || {
        let (alpha, sigma) = (format!("v{}", hub.0), sigma.to_string());
        let params = [("alpha", alpha.as_str()), ("sigma", sigma.as_str())];
        let request = QueryRequest {
            pql: Some(BACKWARD_PQL),
            params: &params,
            limit: Some(8),
            ..QueryRequest::default()
        };
        let first = service.execute(&request).unwrap();
        let cursor = first.next_cursor.expect("a second page");
        let next = QueryRequest {
            cursor: Some(&cursor),
            ..request
        };
        service.execute(&next).unwrap();
    });
    table
}

fn render(table: &Table) -> String {
    let mut out = String::from("shape\tcounter\tvalue\n");
    for ((shape, counter), value) in table {
        out.push_str(&format!("{shape}\t{counter}\t{value}\n"));
    }
    out
}

#[test]
fn deterministic_counters_match_the_golden_table() {
    let dir = std::env::temp_dir().join(format!("ariadne-counter-golden-{}", std::process::id()));
    for (run, threads) in [1, 2, 2, 2].into_iter().enumerate() {
        let table = render(&run_shapes(threads, &dir));
        assert!(
            table == GOLDEN,
            "run {run} at {threads} thread(s) differs from tests/golden/counters.tsv; \
             the new table:\n{table}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
