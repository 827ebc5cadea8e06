//! End-to-end test of the live telemetry plane: run a real capture
//! into a spilling store, one mutation epoch appended to it, a layered
//! replay and a compaction, serve the obs endpoints on an ephemeral
//! port, and validate every endpoint over actual TCP — the Prometheus
//! exposition schema and determinism flags, the JSONL trace key order
//! and span tree, the RunReport, and that a malformed request cannot
//! wedge the listener.
//!
//! Tests serialize on a file-level mutex: the metric registry and trace
//! rings are process-global, and parallel test threads would race the
//! drain-accounting assertions.

use ariadne::session::Ariadne;
use ariadne::{compile, CaptureSpec, MutableSession, StoreConfig};
use ariadne_analytics::PageRank;
use ariadne_graph::generators::rmat::{rmat, RmatConfig};
use ariadne_graph::{GraphDelta, VertexId};
use ariadne_obs::trace;
use ariadne_pql::Params;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

fn serialize() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|held| held.into_inner())
}

/// One parsed HTTP response: status code, raw header block, body.
struct Response {
    status: u16,
    headers: String,
    body: String,
}

fn send_raw(addr: SocketAddr, request: &[u8]) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(request).expect("write request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no header/body split in {raw:?}"));
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {head:?}"));
    Response {
        status,
        headers: head.to_string(),
        body: body.to_string(),
    }
}

fn get(addr: SocketAddr, path: &str) -> Response {
    send_raw(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").as_bytes(),
    )
}

/// The first unsigned number after `"key":` in a JSON line or document.
fn json_u64(json: &str, key: &str) -> u64 {
    json.split(&format!("\"{key}\":"))
        .nth(1)
        .and_then(|r| r.split([',', '}']).next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no {key} in {json}"))
}

/// The Prometheus-text validator: every metric has matching HELP /
/// TYPE / deterministic annotation lines, every sample line is
/// `name[{labels}] value`, the layers this run exercised are all
/// present with the right determinism tags, and the store counters
/// show the spill, the compression and the adopting epoch append.
fn validate_prometheus(text: &str) {
    use std::collections::BTreeMap;
    let mut helps = Vec::new();
    let mut types = Vec::new();
    let mut det: BTreeMap<&str, &str> = BTreeMap::new();
    let mut samples: BTreeMap<&str, f64> = BTreeMap::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            helps.push(rest.split_whitespace().next().unwrap());
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().unwrap();
            let kind = parts.next().unwrap_or("");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "bad TYPE line: {line:?}"
            );
            types.push(name);
        } else if let Some(rest) = line.strip_prefix("# ARIADNE deterministic ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().unwrap();
            let flag = parts.next().unwrap_or("");
            assert!(
                flag == "true" || flag == "false",
                "bad deterministic line: {line:?}"
            );
            det.insert(name, flag);
        } else {
            // Sample line: name, optionally {labels}, then one value.
            let (name_part, value) = line
                .rsplit_once(' ')
                .unwrap_or_else(|| panic!("bad sample line: {line:?}"));
            let name = name_part.split('{').next().unwrap();
            assert!(
                !name.is_empty()
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name in {line:?}"
            );
            assert!(
                value == "NaN" || value.parse::<f64>().is_ok(),
                "bad sample value in {line:?}"
            );
            if name == name_part {
                samples.insert(name, value.parse().unwrap_or(f64::NAN));
            }
        }
    }
    let help_set: std::collections::BTreeSet<_> = helps.iter().copied().collect();
    let type_set: std::collections::BTreeSet<_> = types.iter().copied().collect();
    let det_set: std::collections::BTreeSet<_> = det.keys().copied().collect();
    assert_eq!(
        help_set, type_set,
        "HELP and TYPE must cover the same metrics"
    );
    assert_eq!(
        help_set, det_set,
        "deterministic annotations must cover the same metrics"
    );
    // Every instrumented layer this test exercised must be present.
    for required in [
        "engine_supersteps_total",
        "engine_phase_compute_ns_total",
        "engine_phase_barrier_ns_total",
        "store_ingest_tuples_total",
        "store_spills_total",
        "store_compact_copied_total",
        "pql_rule_firings_total",
        "pql_fixpoint_rounds_total",
        "layered_rounds_total",
        "layered_query_latency_ns",
        "obs_http_requests_total",
    ] {
        assert!(det.contains_key(required), "missing metric {required}");
    }
    // Determinism taxonomy spot checks.
    assert_eq!(det["engine_messages_sent_total"], "true");
    assert_eq!(det["engine_phase_compute_ns_total"], "false");
    assert_eq!(det["pql_rule_firings_total"], "true");
    assert_eq!(det["layered_query_latency_ns"], "false");
    // The epoch append adopted records from its capture instead of
    // re-encoding them, and the v3 writer compressed.
    assert!(
        samples["store_epoch_appends_total"] >= 1.0,
        "no epoch appended"
    );
    assert!(
        samples["store_epoch_adopted_total"] > 0.0,
        "no record adopted"
    );
    assert!(
        samples["store_lz_records_total"] > 0.0,
        "no LZ record written"
    );
    // A capture hands the store each layer once, in vertex order, so
    // what the store writes is flagged deterministic (docs/OBSERVABILITY.md,
    // determinism taxonomy). This run registers the first eleven; the
    // rest only when it happens to touch them (no scrub runs here).
    for name in [
        "store_compact_copied_total",
        "store_compact_bytes_in",
        "store_compact_bytes_out",
        "store_epoch_adopted_total",
        "store_ingest_batches_total",
        "store_ingest_bytes_total",
        "store_packs_total",
        "store_encoded_bytes",
        "store_lz_records_total",
        "store_lz_saved_bytes",
        "store_col_bytes_skipped_total",
    ] {
        assert_eq!(det[name], "true", "{name} is not flagged deterministic");
    }
    for name in [
        "store_scrub_records_total",
        "store_sealed_segments_total",
        "store_scrub_files_total",
        "store_encoding_bytes_plain",
        "store_encoding_bytes_const",
        "store_encoding_bytes_delta_id",
        "store_encoding_bytes_delta_int",
        "store_encoding_bytes_dict",
        "store_encoding_bytes_float_raw",
    ] {
        let flag = det.get(name).copied().unwrap_or("true");
        assert_eq!(flag, "true", "{name} is not flagged deterministic");
    }
    // The latency histogram must expose interpolated quantile series.
    assert!(
        text.contains("layered_query_latency_ns{quantile=\"0.5\"}")
            && text.contains("layered_query_latency_ns{quantile=\"0.99\"}"),
        "histogram quantile series missing from exposition"
    );
}

#[test]
fn obs_http_plane_end_to_end() {
    let _gate = serialize();
    // Trace-level filter so the full span tree (run -> layer -> chunk
    // -> eval, store reads, merge) lands in the rings.
    trace::set_filter("trace");

    // Real work first, so the endpoints have something to expose: a
    // capture spilling to a tight budget, so the store's spill path
    // reports too. The capture packs to about 3.4 KB.
    let graph = rmat(RmatConfig {
        scale: 6,
        edge_factor: 8,
        seed: 0xBE2C4,
        ..RmatConfig::default()
    });
    let spool = std::env::temp_dir().join(format!("ariadne-obs-http-{}", std::process::id()));
    std::fs::remove_dir_all(&spool).ok();
    let ariadne = Ariadne {
        store: StoreConfig::spilling(2 * 1024, spool.clone()),
        ..Ariadne::default()
    };
    let query = compile(
        "seen(x, v, i) :- value(x, v, i), superstep(x, i).",
        Params::new(),
    )
    .expect("capture query");
    let spec = CaptureSpec::raw(["superstep", "value"]).with_query(query);
    let analytic = PageRank {
        supersteps: 4,
        ..PageRank::default()
    };
    let mut capture = ariadne
        .capture(&analytic, &graph, &spec)
        .expect("capture run");
    let report_json = capture.report().to_json();

    // One edge insert, re-captured and appended to the spilled store as
    // a mutation epoch, so the epoch counters (adopted records included)
    // report too. One thread delivers rows in canonical order, so the
    // append adopts records on every run.
    let mut session = MutableSession::new(ariadne.clone(), graph.clone());
    let missing = (0..session.csr().num_vertices() as u64)
        .map(VertexId)
        .find(|&v| !session.csr().has_edge(VertexId(0), v))
        .expect("vertex 0 misses some edge");
    let mut delta = GraphDelta::new();
    delta.add_edge(VertexId(0), missing, 1.0);
    session.mutate(delta);
    session.commit();
    session
        .capture_epoch(&analytic, &spec, &mut capture.store)
        .expect("epoch capture");

    let replay_query = compile(
        "hot(x, i) :- value(x, v, i), superstep(x, i).",
        Params::new(),
    )
    .expect("replay query");
    let replay = ariadne
        .layered(session.csr(), &capture.store, &replay_query)
        .expect("layered replay");
    assert!(replay.query_results.len("hot") > 0, "replay found nothing");

    // Compact the spool, so the compaction counters report too.
    let compacted = capture.store.compact().expect("compaction");
    assert!(compacted.segments > 0, "compaction rewrote nothing");

    let server = ariadne_obs::ObsServer::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.local_addr();

    // /healthz
    let health = get(addr, "/healthz");
    assert_eq!(health.status, 200);
    assert_eq!(health.body, "ok\n");

    // /metrics parses under the CI validator's rules.
    let metrics = get(addr, "/metrics");
    assert_eq!(metrics.status, 200);
    assert!(
        metrics.headers.contains("text/plain"),
        "wrong content type: {}",
        metrics.headers
    );
    validate_prometheus(&metrics.body);

    // /report is 404 until a report is published, then serves it.
    let missing = get(addr, "/report");
    assert_eq!(missing.status, 404);
    ariadne_obs::publish_report(report_json);
    let report = get(addr, "/report");
    assert_eq!(report.status, 200);
    let r = &report.body;
    assert!(
        r.starts_with('{'),
        "report body is not the RunReport JSON: {r}"
    );
    for key in [
        "supersteps",
        "elapsed_ns",
        "messages_sent",
        "messages_delivered",
        "phase_compute_ns",
        "phase_combine_ns",
        "phase_scatter_ns",
        "phase_barrier_ns",
        "checkpoint_ns",
        "query",
        "store",
    ] {
        assert!(
            r.contains(&format!("\"{key}\":")),
            "report missing {key}: {r}"
        );
    }
    assert_eq!(
        json_u64(r, "messages_sent"),
        json_u64(r, "messages_delivered"),
        "messages are conserved"
    );
    assert!(json_u64(r, "rule_firings") > 0, "capture query did not run");
    assert!(json_u64(r, "tuples") > 0, "store captured nothing");
    // The self-healing counters are zero on a clean, fault-free run.
    for key in ["salvaged_records", "quarantined_segments", "compactions"] {
        assert_eq!(json_u64(r, key), 0, "clean run reported nonzero {key}");
    }

    // /trace drains JSONL in the documented key order and reports the
    // drop count in a header.
    let trace_resp = get(addr, "/trace");
    assert_eq!(trace_resp.status, 200);
    assert!(
        trace_resp.headers.contains("X-Ariadne-Dropped-Events:"),
        "missing drop-accounting header: {}",
        trace_resp.headers
    );
    let lines: Vec<&str> = trace_resp.body.lines().filter(|l| !l.is_empty()).collect();
    assert!(!lines.is_empty(), "trace drained no events");
    let key_order = [
        "\"seq\":",
        "\"ts_ns\":",
        "\"level\":",
        "\"target\":",
        "\"name\":",
        "\"trace_id\":",
        "\"span_id\":",
        "\"parent_id\":",
        "\"fields\":",
    ];
    let mut last_seq: Option<u64> = None;
    let mut spans = 0usize;
    for line in &lines {
        let mut from = 0usize;
        for key in key_order {
            let at = line[from..]
                .find(key)
                .unwrap_or_else(|| panic!("{key} out of order in {line}"));
            from += at + key.len();
        }
        let seq: u64 = line
            .split("\"seq\":")
            .nth(1)
            .and_then(|r| r.split(',').next())
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("unparsable seq in {line}"));
        assert!(
            last_seq.is_none_or(|prev| seq > prev),
            "trace not in sequence order"
        );
        last_seq = Some(seq);
        // Every span (close event) carries its trace and its duration.
        if json_u64(line, "span_id") != 0 {
            spans += 1;
            assert_ne!(
                json_u64(line, "trace_id"),
                0,
                "span without a trace: {line}"
            );
            assert!(line.contains("\"dur_ns\":"), "span without dur_ns: {line}");
        }
    }
    assert!(spans > 0, "no span events in the trace");
    assert!(
        lines.iter().any(|l| l.contains("\"name\":\"superstep\"")),
        "no engine superstep events"
    );
    // The replay produced a navigable span tree: the layered run span
    // is a trace root (trace_id == its own span_id), and the per-layer
    // spans link to it as children.
    let run_line = lines
        .iter()
        .find(|l| l.contains("\"target\":\"layered\",\"name\":\"run\""))
        .expect("no layered run span in the trace");
    let run_span = json_u64(run_line, "span_id");
    assert_ne!(run_span, 0, "run span has no span_id");
    assert_eq!(
        json_u64(run_line, "trace_id"),
        run_span,
        "run span must be its trace's root"
    );
    let layer_line = lines
        .iter()
        .find(|l| l.contains("\"target\":\"layered\",\"name\":\"layer\""))
        .expect("no per-layer span in the trace");
    assert_eq!(
        json_u64(layer_line, "parent_id"),
        run_span,
        "layer span must be a child of the run span"
    );
    assert_eq!(json_u64(layer_line, "trace_id"), run_span);

    // A malformed request gets a 400 and must not wedge the listener.
    let bad = send_raw(addr, b"???\r\n\r\n");
    assert_eq!(bad.status, 400);
    let not_get = send_raw(addr, b"POST /metrics HTTP/1.1\r\n\r\n");
    assert_eq!(not_get.status, 405);
    let still_up = get(addr, "/healthz");
    assert_eq!(still_up.status, 200, "listener wedged after bad request");

    server.shutdown();
    std::fs::remove_dir_all(&spool).ok();
}

/// Regression: a request head that arrives across several TCP writes —
/// including a split in the middle of the `\r\n\r\n` terminator — must
/// be read to completion, not treated as a whole (malformed) request.
#[test]
fn split_write_request_head_is_reassembled() {
    let _gate = serialize();
    let server = ariadne_obs::ObsServer::bind("127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    let request = "GET /healthz HTTP/1.1\r\nHost: split\r\nConnection: close\r\n\r\n";
    // Split points chosen to break inside the method, inside a header,
    // and inside the blank-line terminator itself.
    for splits in [
        vec!["GE", "T /healthz HTTP/1.1\r\nHost: split\r\nConnection: close\r\n\r\n"],
        vec!["GET /healthz HTTP/1.1\r\nHo", "st: split\r\nConnection: close\r\n\r\n"],
        vec!["GET /healthz HTTP/1.1\r\nHost: split\r\nConnection: close\r\n\r", "\n"],
        request.split_inclusive(|_| true).collect::<Vec<_>>(), // byte at a time
    ] {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        for chunk in &splits {
            stream.write_all(chunk.as_bytes()).expect("write chunk");
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read response");
        assert!(
            raw.starts_with("HTTP/1.1 200"),
            "split request ({} chunks) not reassembled: {raw:?}",
            splits.len()
        );
        assert!(raw.ends_with("ok\n"), "wrong body: {raw:?}");
    }
    server.shutdown();
}

/// Regression: two clients draining `/trace` concurrently must
/// partition the events and the drop count exactly — every event and
/// every drop in exactly one response, none double-reported, none lost.
#[test]
fn concurrent_trace_drains_partition_exactly() {
    let _gate = serialize();
    trace::set_filter("info");
    let server = ariadne_obs::ObsServer::bind("127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    // Prime: drain whatever earlier work left in the rings so the
    // ledger below starts from zero.
    get(addr, "/trace");

    // Overflow this thread's ring by exactly `extra`: the ring keeps
    // the newest RING_CAPACITY events and counts `extra` drops.
    let extra = 123u64;
    let total = trace::RING_CAPACITY as u64 + extra;
    for i in 0..total {
        trace::event(
            trace::Level::Info,
            "drainrace",
            "tick",
            &[("i", i.into())],
        );
    }

    let (first, second) = std::thread::scope(|s| {
        let a = s.spawn(|| get(addr, "/trace"));
        let b = s.spawn(|| get(addr, "/trace"));
        (a.join().expect("client a"), b.join().expect("client b"))
    });

    let dropped_of = |resp: &Response| -> u64 {
        resp.headers
            .lines()
            .find_map(|l| l.strip_prefix("X-Ariadne-Dropped-Events: "))
            .unwrap_or_else(|| panic!("no drop header in {}", resp.headers))
            .trim()
            .parse()
            .expect("drop count parses")
    };
    let events_of = |resp: &Response| -> usize {
        resp.body
            .lines()
            .filter(|l| l.contains("\"target\":\"drainrace\""))
            .count()
    };

    assert_eq!(first.status, 200);
    assert_eq!(second.status, 200);
    assert_eq!(
        dropped_of(&first) + dropped_of(&second),
        extra,
        "drop count must partition exactly across concurrent drains"
    );
    assert_eq!(
        events_of(&first) + events_of(&second),
        trace::RING_CAPACITY,
        "every retained event must drain exactly once"
    );

    // A follow-up drain sees a quiet ring: nothing double-reported.
    let third = get(addr, "/trace");
    assert_eq!(dropped_of(&third), 0);
    assert_eq!(events_of(&third), 0);
    server.shutdown();
}

/// A `/query` miss over TCP is one trace from socket accept down: the
/// HTTP worker's `http`/`request` span is the trace's root, the
/// replay's `layered`/`run` span belongs to it, and the `response`
/// event inside it names the path and the status.
#[test]
fn query_miss_is_traced_from_accept() {
    let _gate = serialize();
    let graph = ariadne_graph::generators::regular::path(16);
    let capture = Ariadne::default()
        .capture(
            &ariadne_analytics::Sssp::new(VertexId(0)),
            &graph,
            &CaptureSpec::full(),
        )
        .expect("capture");
    let service = ariadne_serve::QueryService::new(
        graph,
        capture.store,
        ariadne_serve::ServeConfig::default(),
    );
    let server = ariadne_serve::serve(std::sync::Arc::new(service), "127.0.0.1:0").expect("bind");
    trace::set_filter("http=debug,layered=debug");
    trace::drain();

    let miss = get(
        server.local_addr(),
        "/query?pql=active(x,%20i)%20:-%20superstep(x,%20i).&limit=5",
    );
    assert_eq!(miss.status, 200, "{}", miss.body);
    assert!(miss.body.contains("\"cache\":\"miss\""), "{}", miss.body);

    // The worker closes its span after the socket, so the client can see
    // the response before the span lands in the rings: poll for it.
    let mut events = Vec::new();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let request = loop {
        events.extend(trace::drain());
        let found = events
            .iter()
            .find(|e| (e.target, e.name) == ("http", "request") && e.span_id != 0)
            .cloned();
        if let Some(span) = found {
            break span;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no http request span: {events:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    trace::set_filter("off");
    server.shutdown();

    assert_eq!(
        request.trace_id, request.span_id,
        "the request span roots its trace"
    );
    let run = events
        .iter()
        .find(|e| (e.target, e.name) == ("layered", "run"))
        .unwrap_or_else(|| panic!("no layered run span: {events:?}"));
    assert_eq!(
        run.trace_id, request.span_id,
        "the replay is not in the request's trace"
    );
    let response = events
        .iter()
        .find(|e| (e.target, e.name) == ("http", "response"))
        .unwrap_or_else(|| panic!("no http response event: {events:?}"));
    assert_eq!(response.parent_id, request.span_id);
    let field = |name: &str| {
        let (_, value) = response.fields.iter().find(|(k, _)| *k == name)?;
        Some(value.clone())
    };
    assert_eq!(field("path"), Some("/query".into()));
    assert_eq!(field("status"), Some(200u64.into()));
}
