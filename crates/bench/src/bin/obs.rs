//! Observability smoke harness.
//!
//! Runs a capture-mode PageRank (provenance capture + a capture query)
//! on a small seeded R-MAT graph with structured tracing enabled, then
//! one edge insert appended to the captured store as a mutation epoch,
//! and writes three artifacts to `--out-dir`:
//!
//! * `metrics.prom` — the full obs registry in Prometheus text
//!   exposition format (engine phase timings, store spill/checksum
//!   counters, PQL iteration metrics);
//! * `trace.jsonl` — the structured trace ring drained to JSON Lines;
//! * `report.json` — the run's [`ariadne::RunReport`].
//!
//! CI's `obs-smoke` job runs this and validates the artifact schemas;
//! the formats are documented in `EXPERIMENTS.md`.
//!
//! ```text
//! cargo run --release -p ariadne-bench --bin obs -- \
//!     [--scale N] [--threads T] [--out-dir obs-smoke]
//! ```

use ariadne::capture::CaptureSpec;
use ariadne::session::Ariadne;
use ariadne::{compile, MutableSession, StoreConfig};
use ariadne_analytics::PageRank;
use ariadne_graph::generators::rmat::{rmat, RmatConfig};
use ariadne_graph::{GraphDelta, VertexId};
use ariadne_obs::trace::{self, Level};
use ariadne_pql::Params;
use std::path::PathBuf;

struct Cli {
    scale: u32,
    threads: usize,
    out_dir: PathBuf,
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        scale: 8,
        threads: 2,
        out_dir: PathBuf::from("obs-smoke"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--scale" => cli.scale = value("--scale").parse().expect("--scale: integer"),
            "--threads" => cli.threads = value("--threads").parse().expect("--threads: integer"),
            "--out-dir" => cli.out_dir = PathBuf::from(value("--out-dir")),
            other => panic!("unknown argument {other} (expected --scale/--threads/--out-dir)"),
        }
    }
    cli
}

fn main() {
    let cli = parse_cli();

    // Record everything unless the operator asked for something else.
    if std::env::var("ARIADNE_LOG").is_err() {
        trace::set_filter("debug");
    }
    trace::event(
        Level::Info,
        "bench::obs",
        "smoke_start",
        &[
            ("scale", u64::from(cli.scale).into()),
            ("threads", cli.threads.into()),
        ],
    );

    std::fs::create_dir_all(&cli.out_dir).expect("create --out-dir");

    let graph = rmat(RmatConfig {
        scale: cli.scale,
        edge_factor: 8,
        seed: 0xBE2C4,
        ..RmatConfig::default()
    });
    eprintln!(
        "obs: rmat scale={} -> {} vertices, {} edges, threads={}",
        cli.scale,
        graph.num_vertices(),
        graph.num_edges(),
        cli.threads
    );

    // Capture-mode PageRank: raw EDBs plus a capture query, spilling to
    // a tight memory budget so the store's spill path is exercised too.
    let analytic = PageRank {
        supersteps: 6,
        ..PageRank::default()
    };
    let query = compile(
        "seen(x, v, i) :- value(x, v, i), superstep(x, i).",
        Params::new(),
    )
    .expect("capture query compiles");
    let spec = CaptureSpec::raw(["superstep", "value"]).with_query(query);

    let spool = cli.out_dir.join("spool");
    let mut ariadne = Ariadne::with_threads(cli.threads);
    ariadne.store = StoreConfig::spilling(64 * 1024, spool);

    let run = ariadne
        .capture(&analytic, &graph, &spec)
        .expect("capture run succeeds");
    let report = run.report();

    // One mutation epoch into the captured store: an edge insert,
    // committed, re-captured and appended, so the epoch counters
    // (adopted records included) report too. The re-capture runs on one
    // thread: its rows then arrive in canonical order, and the append
    // adopts records on every run, not only when two threads happen to
    // deliver in order.
    let mut store = run.store;
    let mut single = ariadne;
    single.engine.threads = 1;
    let mut session = MutableSession::new(single, graph);
    let missing = (0..session.csr().num_vertices() as u64)
        .map(VertexId)
        .find(|&v| !session.csr().has_edge(VertexId(0), v))
        .expect("vertex 0 misses some edge");
    let mut delta = GraphDelta::new();
    delta.add_edge(VertexId(0), missing, 1.0);
    session.mutate(delta);
    session.commit();
    let (_, epoch) = session
        .capture_epoch(&analytic, &spec, &mut store)
        .expect("epoch capture succeeds");
    eprintln!(
        "obs: epoch {}: {} pairs replaced, {} bytes appended ({} cold)",
        epoch.epoch, epoch.replaced, epoch.bytes_appended, epoch.cold_bytes
    );

    // Artifacts.
    let snapshot = ariadne_obs::registry().snapshot();
    let prom = ariadne_obs::prometheus_text(&snapshot);
    let (events, dropped) = trace::drain_stats();
    let jsonl = ariadne_obs::trace_jsonl(&events);

    let prom_path = cli.out_dir.join("metrics.prom");
    let trace_path = cli.out_dir.join("trace.jsonl");
    let report_path = cli.out_dir.join("report.json");
    std::fs::write(&prom_path, &prom).expect("write metrics.prom");
    std::fs::write(&trace_path, &jsonl).expect("write trace.jsonl");
    std::fs::write(&report_path, report.to_json() + "\n").expect("write report.json");

    eprintln!(
        "obs: wrote {} ({} metrics), {} ({} events, {} dropped), {}",
        prom_path.display(),
        snapshot.samples.len(),
        trace_path.display(),
        events.len(),
        dropped,
        report_path.display()
    );

    // Sanity: the three instrumented layers must all have reported.
    for required in [
        "engine_supersteps_total",
        "engine_phase_compute_ns_total",
        "store_ingest_tuples_total",
        "pql_rule_firings_total",
    ] {
        assert!(
            snapshot.counter(required).is_some(),
            "missing expected metric {required}"
        );
    }
    assert!(
        !events.is_empty(),
        "tracing enabled but no events were recorded"
    );
    println!("obs smoke OK");
}
