//! Command-line front-end: run a vertex-centric analytic over an edge
//! list with a PQL provenance query attached.
//!
//! ```text
//! ariadne-cli --graph edges.txt --analytic sssp --source 0 \
//!             --query query.pql --param eps=0.1 [--mode online|layered|naive]
//!
//! ariadne-cli --generate rmat:10:8 --analytic pagerank --builtin pagerank_check
//!
//! ariadne-cli scrub --spool DIR [--repair] [--json]
//! ariadne-cli compact --spool DIR [--json]
//! ariadne-cli serve --spool DIR (--graph FILE | --generate SPEC) [--listen ADDR]
//! ```
//!
//! Analytic values are printed for the first vertices; every query IDB
//! relation is printed (truncated).
//!
//! The `scrub` subcommand re-verifies every record of every segment in
//! a provenance spool directory — including v3 generation-file footers
//! and the spool manifest (see [`ariadne_provenance::scrub_spool`]).
//! Its exit code distinguishes the outcomes: 0 = clean; 1 = operational
//! failure (unreadable/bad directory); 2 = usage error; 3 = damage was
//! found and every instance was repaired losslessly (torn tails
//! salvaged); 4 = irrecoverable damage (data quarantined, or damage
//! found without `--repair`).
//!
//! The `compact` subcommand rewrites the spool into a single indexed
//! generation file (see [`ariadne_provenance::compact_spool`]): small
//! records merge, v1 records upgrade to columnar/compressed frames, and
//! replay reads seek extents instead of scanning files.
//!
//! The `serve` subcommand starts the long-lived query daemon
//! ([`ariadne_serve`]): the spool and graph are opened once, compiled
//! PQL programs and replayed results stay resident, and clients iterate
//! paginated lineage queries over `GET /query` without paying a process
//! start per question.

use ariadne::queries;
use ariadne::session::Ariadne;
use ariadne::{compile, CaptureSpec, CompiledQuery};
use ariadne_analytics::{PageRank, Sssp, Wcc};
use ariadne_graph::generators::{rmat, RmatConfig};
use ariadne_graph::{io, Csr, VertexId};
use ariadne_pql::{parse_param_value, Database, Params, Value};
use ariadne_provenance::ProvEncode;
use ariadne_vc::VertexProgram;
use std::process::exit;

struct Options {
    graph: Option<String>,
    generate: Option<String>,
    analytic: String,
    source: u64,
    query_file: Option<String>,
    builtin: Option<String>,
    params: Vec<(String, String)>,
    mode: String,
    threads: usize,
    supersteps: u32,
    explain: bool,
    obs_listen: Option<String>,
    spool: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: ariadne-cli (--graph FILE | --generate rmat:SCALE:DEG) [--explain] \\\n\
         \x20       --analytic (pagerank|sssp|wcc) [--source ID] [--supersteps N] \\\n\
         \x20       (--query FILE | --builtin NAME) [--param k=v]... \\\n\
         \x20       [--mode online|layered|naive] [--threads N] [--obs-listen ADDR]\n\
         \x20       [--spool DIR  persist the capture spool for `serve`]\n\
         \n\
         --obs-listen ADDR  serve live telemetry over HTTP while the run\n\
         \x20                  executes: GET /metrics (Prometheus text),\n\
         \x20                  /trace (JSONL span/event dump), /report\n\
         \x20                  (RunReport JSON), /healthz\n\
         \n\
         builtins: pagerank_check, sssp_wcc_value_check,\n\
         \x20         sssp_wcc_no_message_no_change, apt\n\
         params:   numbers parse as floats/ints; 'vN' parses as vertex id\n\
         \n\
         or:    ariadne-cli scrub --spool DIR [--repair] [--json]\n\
         \x20      re-verify every stored record, generation footer and\n\
         \x20      the spool manifest; --repair salvages torn tails and\n\
         \x20      quarantines corrupt files\n\
         \x20      exit: 0 clean / 1 failure / 2 usage / 3 repaired\n\
         \x20      losslessly / 4 irrecoverable damage\n\
         or:    ariadne-cli compact --spool DIR [--json]\n\
         \x20      rewrite the spool into one indexed generation file\n\
         \x20      (merge small records, upgrade v1, compress, index)\n\
         or:    ariadne-cli serve --spool DIR (--graph FILE | --generate SPEC)\n\
         \x20      [--listen ADDR] [--threads N] [--cache-bytes N]\n\
         \x20      [--max-inflight N] [--quota-burst F] [--quota-per-sec F]\n\
         \x20      [--duration SECS]\n\
         \x20      long-lived query service over a captured spool:\n\
         \x20      GET /query?pql=...&cursor=...&limit=N&layers=LO..HI\n\
         \x20      (paginated, LRU replay cache, per-tenant quotas via\n\
         \x20      the X-Ariadne-Tenant header) plus the observability\n\
         \x20      routes on one listener; --duration 0 serves forever"
    );
    exit(2)
}

/// `ariadne-cli scrub --spool DIR [--repair] [--json]`: verify (and
/// optionally repair) a provenance spool offline.
///
/// Exit codes: 0 = clean; 1 = operational failure; 2 = usage; 3 =
/// damage found, every instance repaired losslessly (salvaged); 4 =
/// irrecoverable damage (quarantined, or not repaired at all).
fn run_scrub(args: &[String]) -> ! {
    let mut spool: Option<String> = None;
    let mut repair = false;
    let mut json = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--spool" => {
                spool = Some(it.next().cloned().unwrap_or_else(|| {
                    eprintln!("--spool needs a value");
                    usage()
                }))
            }
            "--repair" => repair = true,
            "--json" => json = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown scrub argument {other:?}");
                usage()
            }
        }
    }
    let Some(dir) = spool else {
        eprintln!("scrub requires --spool DIR");
        usage()
    };
    // A typo'd path must not report a clean spool (the library treats a
    // missing directory as an empty-but-healthy spool for resume).
    if !std::path::Path::new(&dir).is_dir() {
        eprintln!("scrub failed: {dir} is not a directory");
        exit(1)
    }
    let report = ariadne::scrub_spool(std::path::Path::new(&dir), repair).unwrap_or_else(|e| {
        eprintln!("scrub failed: {e}");
        exit(1)
    });
    if json {
        println!("{}", report.to_json());
    } else {
        println!(
            "scrubbed {}: {} files, {} records / {} tuples verified",
            dir, report.files_checked, report.records_verified, report.tuples_verified
        );
        for d in &report.damage {
            println!(
                "  damaged {} (superstep {}, pred {}): {} [{}]",
                d.path.display(),
                d.superstep,
                d.pred,
                d.detail,
                d.action
            );
        }
        if report.is_clean() {
            println!("spool is clean");
        }
    }
    // Exit code by severity: clean → 0; every damage instance repaired
    // losslessly (torn tails salvaged, manifest rebuilt) → 3; anything
    // quarantined — data actually lost — or damage left unrepaired → 4.
    use ariadne::ScrubAction;
    let code = if report.is_clean() {
        0
    } else if report
        .damage
        .iter()
        .all(|d| matches!(d.action, ScrubAction::Salvaged))
    {
        3
    } else {
        4
    };
    exit(code)
}

/// `ariadne-cli serve --spool DIR (--graph FILE | --generate SPEC)
/// [--listen ADDR] [...]`: the long-lived query service. Opens the
/// captured spool and the graph once, then serves `GET /query`
/// (paginated PQL over layered replay, LRU-cached, admission-controlled)
/// and the whole observability surface on one listener until killed (or
/// for `--duration` seconds, for scripted smoke tests).
fn run_serve(args: &[String]) -> ! {
    let mut spool: Option<String> = None;
    let mut graph_file: Option<String> = None;
    let mut generate: Option<String> = None;
    let mut listen = String::from("127.0.0.1:0");
    let mut config = ariadne_serve::ServeConfig::default();
    let mut duration: u64 = 0;
    let mut it = args.iter();
    let next = |it: &mut std::slice::Iter<String>, what: &str| {
        it.next().cloned().unwrap_or_else(|| {
            eprintln!("{what} needs a value");
            usage()
        })
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--spool" => spool = Some(next(&mut it, "--spool")),
            "--graph" => graph_file = Some(next(&mut it, "--graph")),
            "--generate" => generate = Some(next(&mut it, "--generate")),
            "--listen" => listen = next(&mut it, "--listen"),
            "--threads" => {
                config.threads = next(&mut it, "--threads").parse().unwrap_or_else(|_| usage())
            }
            "--cache-bytes" => {
                config.cache_budget_bytes =
                    next(&mut it, "--cache-bytes").parse().unwrap_or_else(|_| usage())
            }
            "--max-inflight" => {
                config.admission.max_in_flight =
                    next(&mut it, "--max-inflight").parse().unwrap_or_else(|_| usage())
            }
            "--quota-burst" => {
                config.admission.quota_burst =
                    next(&mut it, "--quota-burst").parse().unwrap_or_else(|_| usage())
            }
            "--quota-per-sec" => {
                config.admission.quota_per_sec =
                    next(&mut it, "--quota-per-sec").parse().unwrap_or_else(|_| usage())
            }
            "--duration" => {
                duration = next(&mut it, "--duration").parse().unwrap_or_else(|_| usage())
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown serve argument {other:?}");
                usage()
            }
        }
    }
    let Some(dir) = spool else {
        eprintln!("serve requires --spool DIR");
        usage()
    };
    if !std::path::Path::new(&dir).is_dir() {
        eprintln!("serve failed: {dir} is not a directory");
        exit(1)
    }
    let graph = graph_from(graph_file.as_deref(), generate.as_deref());
    let store = ariadne_provenance::ProvStore::resume_from_spool(ariadne::StoreConfig {
        spool_dir: Some(std::path::PathBuf::from(&dir)),
        ..ariadne::StoreConfig::in_memory()
    })
    .unwrap_or_else(|e| {
        eprintln!("cannot open spool {dir}: {e}");
        exit(1)
    });
    println!(
        "serve: spool {dir}: {} tuples ({} bytes), layers 0..={}",
        store.tuple_count(),
        store.byte_size(),
        store.max_superstep().map_or_else(|| "-".into(), |s| s.to_string())
    );
    let service = std::sync::Arc::new(ariadne_serve::QueryService::new(graph, store, config));
    let server = ariadne_serve::serve(service, &listen).unwrap_or_else(|e| {
        eprintln!("cannot bind --listen {listen}: {e}");
        exit(1)
    });
    println!(
        "serve: GET /query (+ /metrics /trace /report /healthz) on http://{}",
        server.local_addr()
    );
    if duration > 0 {
        std::thread::sleep(std::time::Duration::from_secs(duration));
        server.shutdown();
        exit(0)
    }
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// `ariadne-cli compact --spool DIR [--json]`: rewrite a provenance
/// spool into a single indexed generation file. Exit 0 on success, 1 on
/// failure (a corrupt spool refuses to compact — scrub it first).
fn run_compact(args: &[String]) -> ! {
    let mut spool: Option<String> = None;
    let mut json = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--spool" => {
                spool = Some(it.next().cloned().unwrap_or_else(|| {
                    eprintln!("--spool needs a value");
                    usage()
                }))
            }
            "--json" => json = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown compact argument {other:?}");
                usage()
            }
        }
    }
    let Some(dir) = spool else {
        eprintln!("compact requires --spool DIR");
        usage()
    };
    if !std::path::Path::new(&dir).is_dir() {
        eprintln!("compact failed: {dir} is not a directory");
        exit(1)
    }
    let report = ariadne::compact_spool(std::path::Path::new(&dir)).unwrap_or_else(|e| {
        eprintln!("compact failed: {e}");
        exit(1)
    });
    if json {
        println!("{}", report.to_json());
    } else {
        println!(
            "compacted {dir}: generation {}, {} segments / {} tuples, {} bytes in -> {} bytes out, {} files removed",
            report.generation,
            report.segments,
            report.tuples,
            report.bytes_in,
            report.bytes_out,
            report.files_removed
        );
    }
    exit(0)
}

fn parse_args() -> Options {
    let mut o = Options {
        graph: None,
        generate: None,
        analytic: "pagerank".into(),
        source: 0,
        query_file: None,
        builtin: None,
        params: Vec::new(),
        mode: "online".into(),
        threads: 1,
        supersteps: 20,
        explain: false,
        obs_listen: None,
        spool: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut next = |what: &str| args.next().unwrap_or_else(|| {
            eprintln!("{what} needs a value");
            usage()
        });
        match a.as_str() {
            "--graph" => o.graph = Some(next("--graph")),
            "--generate" => o.generate = Some(next("--generate")),
            "--analytic" => o.analytic = next("--analytic"),
            "--source" => o.source = next("--source").parse().unwrap_or_else(|_| usage()),
            "--query" => o.query_file = Some(next("--query")),
            "--builtin" => o.builtin = Some(next("--builtin")),
            "--mode" => o.mode = next("--mode"),
            "--explain" => o.explain = true,
            "--threads" => o.threads = next("--threads").parse().unwrap_or_else(|_| usage()),
            "--supersteps" => {
                o.supersteps = next("--supersteps").parse().unwrap_or_else(|_| usage())
            }
            "--obs-listen" => o.obs_listen = Some(next("--obs-listen")),
            "--spool" => o.spool = Some(next("--spool")),
            "--param" => {
                let kv = next("--param");
                match kv.split_once('=') {
                    Some((k, v)) => o.params.push((k.to_string(), v.to_string())),
                    None => usage(),
                }
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage()
            }
        }
    }
    o
}

fn load_graph(o: &Options) -> Csr {
    graph_from(o.graph.as_deref(), o.generate.as_deref())
}

/// Shared graph loading for the run and serve entry points: an edge-list
/// file, or a deterministic `rmat:SCALE:DEG` generator spec.
fn graph_from(graph: Option<&str>, generate: Option<&str>) -> Csr {
    if let Some(path) = graph {
        return io::load_edge_list(path).unwrap_or_else(|e| {
            eprintln!("cannot load {path}: {e}");
            exit(1)
        });
    }
    if let Some(spec) = generate {
        let parts: Vec<&str> = spec.split(':').collect();
        if parts.len() == 3 && parts[0] == "rmat" {
            let scale: u32 = parts[1].parse().unwrap_or_else(|_| usage());
            let deg: usize = parts[2].parse().unwrap_or_else(|_| usage());
            return rmat(RmatConfig {
                scale,
                edge_factor: deg,
                ..Default::default()
            });
        }
        usage()
    }
    eprintln!("one of --graph or --generate is required");
    usage()
}

fn load_query(o: &Options) -> CompiledQuery {
    let mut params = Params::new();
    for (k, v) in &o.params {
        params = params.with(k, parse_param_value(v));
    }
    if let Some(name) = &o.builtin {
        let q = match name.as_str() {
            "pagerank_check" => queries::pagerank_check(),
            "sssp_wcc_value_check" => queries::sssp_wcc_value_check(),
            "sssp_wcc_no_message_no_change" => queries::sssp_wcc_no_message_no_change(),
            "apt" => {
                let eps = o
                    .params
                    .iter()
                    .find(|(k, _)| k == "eps")
                    .map(|(_, v)| parse_param_value(v))
                    .unwrap_or(Value::Float(0.01));
                queries::apt("udf_diff", eps)
            }
            other => {
                eprintln!("unknown builtin {other:?}");
                usage()
            }
        };
        return q.unwrap_or_else(|e| {
            eprintln!("query error: {e}");
            exit(1)
        });
    }
    let Some(path) = &o.query_file else {
        eprintln!("one of --query or --builtin is required");
        usage()
    };
    let src = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1)
    });
    compile(&src, params).unwrap_or_else(|e| {
        eprintln!("query error: {e}");
        exit(1)
    })
}

fn run_mode<A>(o: &Options, ariadne: &Ariadne, analytic: &A, graph: &Csr, query: &CompiledQuery)
where
    A: VertexProgram,
    A::V: ProvEncode + std::fmt::Debug,
    A::M: ProvEncode,
{
    let (results, label): (Database, &str) = match o.mode.as_str() {
        "online" => {
            let run = ariadne.online(analytic, graph, query).unwrap_or_else(die);
            println!(
                "analytic finished: {} supersteps, {:?}",
                run.metrics.num_supersteps(),
                run.metrics.elapsed
            );
            ariadne_obs::publish_report(run.report().to_json());
            print_values(&run.values);
            (run.query_results, "online")
        }
        "layered" | "naive" => {
            let capture = ariadne
                .capture(analytic, graph, &CaptureSpec::full())
                .unwrap_or_else(die);
            println!(
                "captured {} tuples ({} bytes)",
                capture.store.tuple_count(),
                capture.store.byte_size()
            );
            ariadne_obs::publish_report(capture.report().to_json());
            print_values(&capture.values);
            if o.mode == "layered" {
                let run = ariadne
                    .layered(graph, &capture.store, query)
                    .unwrap_or_else(die);
                (run.query_results, "layered")
            } else {
                let run = ariadne
                    .naive(graph, &capture.store, query)
                    .unwrap_or_else(die);
                (run.database, "naive")
            }
        }
        other => {
            eprintln!("unknown mode {other:?}");
            usage()
        }
    };

    println!("query results ({label} evaluation):");
    for pred in query.query().idbs.keys() {
        let rows = results.sorted(pred);
        println!("  {pred}: {} rows", rows.len());
        for row in rows.iter().take(10) {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            println!("    ({})", cells.join(", "));
        }
        if rows.len() > 10 {
            println!("    ... {} more", rows.len() - 10);
        }
    }
}

fn die<T>(e: ariadne::session::AriadneError) -> T {
    eprintln!("error: {e}");
    exit(1)
}

fn print_values<V: std::fmt::Debug>(values: &[V]) {
    let shown = values.len().min(8);
    println!("first {shown} vertex values: {:?}", &values[..shown]);
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("scrub") {
        run_scrub(&argv[2..]);
    }
    if argv.get(1).map(String::as_str) == Some("compact") {
        run_compact(&argv[2..]);
    }
    if argv.get(1).map(String::as_str) == Some("serve") {
        run_serve(&argv[2..]);
    }
    let o = parse_args();
    // Bind the telemetry endpoint before any work happens, so /metrics
    // and /trace are curl-able for the whole run. Shut down gracefully
    // (drain in-flight responses) after the results print.
    let obs_server = o.obs_listen.as_deref().map(|addr| {
        let server = ariadne_obs::ObsServer::bind(addr).unwrap_or_else(|e| {
            eprintln!("cannot bind --obs-listen {addr}: {e}");
            exit(1)
        });
        println!(
            "obs: serving /metrics /trace /report /healthz on http://{}",
            server.local_addr()
        );
        server
    });
    let graph = load_graph(&o);
    println!(
        "graph: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );
    let query = load_query(&o);
    println!("query direction: {:?}", query.direction());
    if o.explain {
        println!("{}", ariadne_pql::explain(query.query()));
        return;
    }
    let mut ariadne = Ariadne::with_threads(o.threads);
    // --spool: persist the capture to disk (budget 0 spills every
    // segment immediately), so a later `ariadne-cli serve --spool DIR`
    // can open the same capture.
    if let Some(dir) = &o.spool {
        ariadne.store = ariadne::StoreConfig::spilling(0, std::path::PathBuf::from(dir));
    }

    match o.analytic.as_str() {
        "pagerank" => {
            let pr = PageRank {
                supersteps: o.supersteps,
                ..Default::default()
            };
            run_mode(&o, &ariadne, &pr, &graph, &query);
        }
        "sssp" => {
            let a = Sssp::new(VertexId(o.source));
            run_mode(&o, &ariadne, &a, &graph, &query);
        }
        "wcc" => run_mode(&o, &ariadne, &Wcc, &graph, &query),
        other => {
            eprintln!("unknown analytic {other:?}");
            usage()
        }
    }
    if let Some(server) = obs_server {
        server.shutdown();
    }
}
