//! The layered round protocol itself, pinned where the result-set tests
//! cannot see it: the *order* replicas reach a receiver in, the order the
//! finish phase merges results in, every counter of a run (not only the
//! result tables) across thread counts, and what happens to the worker
//! pool when a chunk fails mid-run or while finishing.

use ariadne::session::Ariadne;
use ariadne::{
    compile, compile_with, queries, run_layered_with, AriadneError, CaptureSpec, CompiledQuery,
    LayeredConfig, LayeredRun,
};
use ariadne_analytics::Sssp;
use ariadne_graph::generators::regular::path;
use ariadne_graph::generators::{erdos_renyi, rmat, RmatConfig};
use ariadne_graph::{Csr, GraphBuilder, VertexId};
use ariadne_pql::{Catalog, Params, UdfRegistry, Value};
use ariadne_provenance::{ProvStore, StoreConfig, StoreError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::mpsc;
use std::time::Duration;

const THREADS: [usize; 4] = [1, 2, 3, 7];

fn catalog_with(pred: &str, arity: usize) -> Catalog {
    let mut c = Catalog::standard();
    c.register(pred, arity);
    c
}

/// Everything of a run that must not depend on the thread count: every
/// counter, and every result relation in *scan* order (not sorted).
fn fingerprint(run: &LayeredRun) -> String {
    let relations: Vec<_> = run
        .query_results
        .iter()
        .map(|(name, rel)| (name, rel.scan().to_vec()))
        .collect();
    format!(
        "{:?}",
        (
            (run.layers, run.flush_rounds, run.layer_range),
            (run.shipped_tuples, run.injected_tuples, run.evaluated_vertices),
            (run.segments_read, run.segments_skipped, run.bytes_read, run.bytes_skipped),
            (run.cols_skipped, run.col_bytes_skipped),
            run.query_stats,
            relations,
        )
    )
}

/// Run `f` on its own thread and fail (instead of hanging the suite) if
/// it has not finished in a minute: a worker left parked on a barrier
/// would otherwise block the replay's thread scope forever.
fn within_a_minute<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        // A panic in `f` drops `tx`, which `recv_timeout` reports at once.
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(60))
        .expect("the replay neither finished nor failed: a worker is parked on a barrier")
}

/// A hub whose replicas come from sources in every chunk — below and
/// above it — receives them in ascending source order at every thread
/// count. The hub's relation is private to its slab, so the order is read
/// off a relation derived from it: `near` is driven by the `src` replicas
/// (the `receive_message` side was consumed a layer earlier), so its scan
/// order is the replicas' arrival order.
#[test]
fn hub_receives_replicas_in_ascending_source_order() {
    const N: u64 = 64;
    const HUB: u64 = 29;
    let mut b = GraphBuilder::new();
    b.ensure_vertex(VertexId(N - 1));
    for y in (0..N).filter(|&y| y != HUB) {
        b.add_edge(VertexId(y), VertexId(HUB), 1.0);
    }
    let g: Csr = b.build();

    let mut store = ProvStore::new(StoreConfig::in_memory());
    // Store order is descending on purpose: arrival order must come from
    // the protocol, not from the order the layer was written in.
    for y in (0..N).rev().filter(|&y| y != HUB) {
        let recv = vec![Value::Id(HUB), Value::Id(y), Value::Float(1.0), Value::Int(1)];
        store.ingest(0, "receive_message", vec![recv]).unwrap();
        store.ingest(1, "superstep", vec![vec![Value::Id(y), Value::Int(1)]]).unwrap();
    }
    let q = compile(
        "src(y, i) :- superstep(y, i).
         near(x, y, i) :- receive_message(x, y, m, i), src(y, i).",
        Params::new(),
    )
    .unwrap();

    let ascending: Vec<u64> = (0..N).filter(|&y| y != HUB).collect();
    let mut reference = None;
    for t in THREADS {
        let run = run_layered_with(&g, &store, &q, &LayeredConfig::parallel(t)).unwrap();
        assert!(run.shipped_tuples > 0 && run.flush_rounds >= 1);
        let arrival: Vec<u64> = run
            .query_results
            .relation("near")
            .expect("the hub derived near")
            .scan()
            .iter()
            .map(|t| t[1].as_id().unwrap())
            .collect();
        assert_eq!(arrival, ascending, "replica arrival order at {t} threads");
        let print = fingerprint(&run);
        assert_eq!(reference.get_or_insert(print.clone()), &print, "run differs at {t} threads");
    }
}

/// Every counter of a run, `query_stats` and the scan order of every
/// result relation are identical at threads 1/2/3/7 — for a forward
/// query that ships every layer and for a backward chain that needs many
/// flush rounds to close (each hop is one round).
#[test]
fn every_counter_is_thread_invariant() {
    use ariadne_graph::generators::erdos_renyi;

    let assert_invariant = |tag: &str, g: &Csr, store: &ProvStore, q: &ariadne::CompiledQuery| {
        let seq = run_layered_with(g, store, q, &LayeredConfig::parallel(1)).unwrap();
        for t in THREADS {
            let par = run_layered_with(g, store, q, &LayeredConfig::parallel(t)).unwrap();
            assert_eq!(par.threads, t);
            assert_eq!(fingerprint(&seq), fingerprint(&par), "{tag} differs at {t} threads");
        }
        seq
    };

    // Forward: `hot` is local, `warm` joins replicas shipped every layer.
    let g = erdos_renyi(150, 900, 11);
    let mut store = ProvStore::new(StoreConfig::in_memory());
    for s in 0..5u32 {
        for (src, dst, _) in g.edges().filter(|(src, _, _)| (src.0 + u64::from(s)) % 3 == 0) {
            let (step, at) = (Value::Int(i64::from(s)), Value::Float(f64::from(s)));
            let recv = vec![Value::Id(dst.0), Value::Id(src.0), at.clone(), step.clone()];
            store.ingest(s, "receive_message", vec![recv]).unwrap();
            store.ingest(s, "superstep", vec![vec![Value::Id(src.0), step.clone()]]).unwrap();
            store.ingest(s, "change", vec![vec![Value::Id(src.0), at, step]]).unwrap();
        }
    }
    let forward = compile_with(
        "hot(x, i) :- change(x, d, i), superstep(x, i).
         warm(x, y, i) :- change(y, d, i), receive_message(x, y, m, i).",
        Params::new(),
        &catalog_with("change", 3),
        UdfRegistry::standard(),
    )
    .unwrap();
    let run = assert_invariant("forward", &g, &store, &forward);
    assert!(run.shipped_tuples > 0 && run.query_results.len("warm") > 0);

    // Backward: `trace` walks a 48-vertex path back from its far end; all
    // of it lands in layer 0, the last layer of a descending replay, so
    // the whole walk happens in the flush.
    let g = path(48);
    let mut store = ProvStore::new(StoreConfig::in_memory());
    for v in 0..47u64 {
        let send = vec![Value::Id(v), Value::Id(v + 1), Value::Float(1.0), Value::Int(0)];
        store.ingest(0, "send_message", vec![send]).unwrap();
    }
    store.ingest(0, "mark", vec![vec![Value::Id(47), Value::Int(0)]]).unwrap();
    store.ingest(1, "superstep", vec![vec![Value::Id(0), Value::Int(1)]]).unwrap();
    let backward = compile_with(
        "trace(x, i) :- mark(x, i).
         trace(x, i) :- send_message(x, y, m, i), trace(y, i).",
        Params::new(),
        &catalog_with("mark", 2),
        UdfRegistry::standard(),
    )
    .unwrap();
    assert_eq!(backward.direction(), ariadne_pql::Direction::Backward);
    let run = assert_invariant("backward", &g, &store, &backward);
    assert!(run.flush_rounds >= 2, "got {} flush rounds", run.flush_rounds);
    assert_eq!(run.query_results.len("trace"), 48);
}

/// The finish phase merges every result relation in ascending owner
/// vertex, then in the order the owner inserted — not sorted, and not
/// where replicas happened to sit. Each vertex of a path marks three
/// layers; the descending replay inserts them newest first, and every
/// `trace` tuple also sits as a replica at both path neighbours.
#[test]
fn results_merge_by_owner_then_insertion_order() {
    const N: u64 = 40;
    let g = path(N as usize);
    let mut store = ProvStore::new(StoreConfig::in_memory());
    for s in 1..=3u32 {
        for v in 0..N {
            store.ingest(s, "mark", vec![vec![Value::Id(v), Value::Int(i64::from(s))]]).unwrap();
        }
    }
    let q = compile_with(
        "trace(x, i) :- mark(x, i).
         trace(x, i) :- send_message(x, y, m, i), trace(y, j), j = i + 1.",
        Params::new(),
        &catalog_with("mark", 2),
        UdfRegistry::standard(),
    )
    .unwrap();
    assert_eq!(q.direction(), ariadne_pql::Direction::Backward);
    let want: Vec<(u64, i64)> = (0..N).flat_map(|v| [(v, 3), (v, 2), (v, 1)]).collect();
    for t in THREADS {
        let run = run_layered_with(&g, &store, &q, &LayeredConfig::parallel(t)).unwrap();
        assert!(run.shipped_tuples > 0, "trace must travel as replicas");
        let scan: Vec<(u64, i64)> = run
            .query_results
            .relation("trace")
            .expect("trace derived")
            .scan()
            .iter()
            .map(|t| (t[0].as_id().unwrap(), t[1].as_i64().unwrap()))
            .collect();
        assert_eq!(scan, want, "merged scan order at {t} threads");
    }
}

/// apt over an R-MAT SSSP capture: `change` replicas delivered outnumber
/// every result row several times over, so an owner-only merge that lost
/// a tuple, or kept a replica, would show against the centralized
/// oracle. Scan order is by owner and identical at every thread count.
#[test]
fn apt_on_rmat_merges_owners_only() {
    let g = rmat(RmatConfig {
        scale: 7,
        edge_factor: 16,
        seed: 8,
        ..RmatConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(8);
    let g = g.map_weights(|_, _, _| 0.001 + rng.gen::<f64>());
    let hub = g.max_out_degree_vertex().unwrap();
    let store = Ariadne::default()
        .capture(&Sssp::new(hub), &g, &CaptureSpec::full())
        .unwrap()
        .store;
    let apt = queries::apt("udf_diff", Value::Float(0.1)).unwrap();
    let run = assert_owner_merge("apt", &g, &store, &apt);
    let rows = run.query_results.total_tuples();
    assert!(
        run.shipped_tuples >= 5 * rows,
        "{} replicas delivered for {rows} result rows",
        run.shipped_tuples
    );
}

/// A backward lineage whose walk closes only in the flush: every hop of
/// `back_trace` is one flush round, and what the last rounds derive
/// still reaches the merged result.
#[test]
fn backward_lineage_through_flush_rounds_merges_owners_only() {
    let g = erdos_renyi(80, 200, 13);
    let mut store = ProvStore::new(StoreConfig::in_memory());
    for (src, dst, _) in g.edges() {
        let send = vec![Value::Id(src.0), Value::Id(dst.0), Value::Float(1.0), Value::Int(0)];
        store.ingest(0, "send_message", vec![send]).unwrap();
    }
    for v in 0..80u64 {
        let value = vec![Value::Id(v), Value::Float(v as f64), Value::Int(0)];
        store.ingest(0, "value", vec![value]).unwrap();
    }
    store.ingest(1, "superstep", vec![vec![Value::Id(0), Value::Int(1)]]).unwrap();
    let q = compile(
        "back_trace(x, i) :- value(x, d, i), i = 0, x = $alpha.
         back_trace(x, i) :- send_message(x, y, m, i), back_trace(y, i).
         back_lineage(x, d) :- back_trace(x, i), value(x, d, i).",
        Params::new().with("alpha", Value::Id(0)),
    )
    .unwrap();
    assert_eq!(q.direction(), ariadne_pql::Direction::Backward);
    let run = assert_owner_merge("lineage", &g, &store, &q);
    assert!(run.flush_rounds >= 2, "got {} flush rounds", run.flush_rounds);
    assert!(run.query_results.len("back_lineage") > 5, "the walk left the root");
}

/// `query` at threads 1/2/3/7: results equal the centralized oracle, every
/// relation scans in non-decreasing owner order, and the whole run is
/// thread-invariant. Returns the single-thread run.
fn assert_owner_merge(tag: &str, g: &Csr, store: &ProvStore, query: &CompiledQuery) -> LayeredRun {
    let oracle = Ariadne::default().centralized(g, store, query).unwrap();
    let seq = run_layered_with(g, store, query, &LayeredConfig::parallel(1)).unwrap();
    for pred in query.query().idbs.keys() {
        assert_eq!(seq.query_results.sorted(pred), oracle.sorted(pred), "{tag}: {pred}");
    }
    for (pred, rel) in seq.query_results.iter() {
        let owners: Vec<u64> = rel.scan().iter().map(|t| t[0].as_id().unwrap()).collect();
        assert!(owners.is_sorted(), "{tag}: {pred} does not scan by owner");
    }
    for t in THREADS {
        let par = run_layered_with(g, store, query, &LayeredConfig::parallel(t)).unwrap();
        assert_eq!(fingerprint(&seq), fingerprint(&par), "{tag} differs at {t} threads");
    }
    seq
}

/// A store whose layer 2 makes exactly one vertex (37, so one chunk)
/// reach the rule's second step; layers 0, 1 and 3 evaluate cleanly.
fn one_bad_vertex() -> (Csr, ProvStore) {
    let g = path(64);
    let mut store = ProvStore::new(StoreConfig::in_memory());
    for s in 0..4u32 {
        for v in 0..64u64 {
            let step = Value::Int(i64::from(s));
            store.ingest(s, "superstep", vec![vec![Value::Id(v), step]]).unwrap();
        }
    }
    store.ingest(2, "trigger", vec![vec![Value::Id(37), Value::Int(2)]]).unwrap();
    (g, store)
}

/// A `PqlError` raised by one chunk in the middle of a run comes back
/// typed, at any thread count, and nobody is left waiting for the chunk
/// that failed.
#[test]
fn evaluation_error_in_one_chunk_returns_typed() {
    for t in [1usize, 2, 7] {
        let outcome = within_a_minute(move || {
            let (g, store) = one_bad_vertex();
            // Compiles (UDFs resolve at evaluation time), fails only
            // where `trigger` has a tuple.
            let q = compile_with(
                "active(x, i) :- superstep(x, i).
                 bad(x, i) :- trigger(x, i), no_such_udf(x).",
                Params::new(),
                &catalog_with("trigger", 2),
                UdfRegistry::standard(),
            )
            .unwrap();
            run_layered_with(&g, &store, &q, &LayeredConfig::parallel(t)).map(|run| run.layers)
        });
        match outcome {
            Err(AriadneError::Pql(e)) => {
                assert!(e.to_string().contains("no_such_udf"), "at {t} threads: {e}")
            }
            other => panic!("expected a typed evaluation error at {t} threads, got {other:?}"),
        }
    }
}

/// A failure raised in the finish phase — a stored row that gave vertex
/// 37's `active` another arity than the query's head, so its relation
/// cannot merge — comes back typed at any thread count, with the pool
/// shut down, not as a panic on the merging thread.
#[test]
fn finish_error_in_one_chunk_returns_typed() {
    for t in [1usize, 2, 7] {
        let outcome = within_a_minute(move || {
            let g = path(64);
            let mut store = ProvStore::new(StoreConfig::in_memory());
            for s in 0..4u32 {
                for v in (0..64u64).filter(|&v| v != 37) {
                    let step = Value::Int(i64::from(s));
                    store.ingest(s, "superstep", vec![vec![Value::Id(v), step]]).unwrap();
                }
            }
            let stale = vec![Value::Id(37), Value::Int(2), Value::Int(0)];
            store.ingest(2, "active", vec![stale]).unwrap();
            let q = compile("active(x, i) :- superstep(x, i).", Params::new()).unwrap();
            run_layered_with(&g, &store, &q, &LayeredConfig::parallel(t)).map(|run| run.layers)
        });
        match outcome {
            Err(AriadneError::Store(StoreError::Corrupt { detail, .. })) => assert!(
                detail.contains("`active` holds rows of arity 2 and 3"),
                "at {t} threads: {detail}"
            ),
            other => panic!("expected a typed finish error at {t} threads, got {other:?}"),
        }
    }
}

/// A panic inside one chunk (here a user UDF) is carried to the caller
/// like a panic of the calling thread; the pool shuts down first.
#[test]
fn panic_in_one_chunk_propagates_without_deadlock() {
    for t in [1usize, 2, 7] {
        let payload = within_a_minute(move || {
            let (g, store) = one_bad_vertex();
            let mut udfs = UdfRegistry::standard();
            udfs.register("udf_boom", |_| panic!("boom in a worker"));
            let q = compile_with(
                "bad(x, i) :- trigger(x, i), udf_boom(x).",
                Params::new(),
                &catalog_with("trigger", 2),
                udfs,
            )
            .unwrap();
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_layered_with(&g, &store, &q, &LayeredConfig::parallel(t)).map(|run| run.layers)
            }))
            .expect_err("the UDF's panic must reach the caller")
        });
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(message, "boom in a worker", "at {t} threads");
    }
}
