//! End-to-end tests of the query service: cursor determinism across
//! thread counts and page sizes, and the HTTP plane over real TCP
//! (pagination, cache hits, admission rejections, shared obs routes).
//!
//! Tests serialize on a file-level mutex: the metric registry is
//! process-global and the counter-delta assertions below would race
//! under the default parallel test runner.

use ariadne::session::Ariadne;
use ariadne::{compile, run_layered_with, CaptureSpec, LayeredConfig};
use ariadne_analytics::Sssp;
use ariadne_graph::generators::regular::path;
use ariadne_graph::{Csr, VertexId};
use ariadne_pql::{Params, Tuple, Value};
use ariadne_provenance::ProvStore;
use ariadne_serve::{
    serve, AdmissionConfig, QueryRequest, QueryService, ServeConfig,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

fn serialize() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|held| held.into_inner())
}

/// The paper's Query 10 (backward lineage), parameterized on the traced
/// vertex and superstep — the serving plane's marquee workload.
const BACKWARD_PQL: &str = "back_trace(x, i) :- superstep(x, i), i = $sigma, x = $alpha.
back_trace(x, i) :- send_message(x, y, m, i), back_trace(y, j), j = i + 1.
back_lineage(x, d) :- back_trace(x, i), value(x, d, i), i = 0.";

/// Capture SSSP on a 16-vertex path. Deterministic: every call yields a
/// bit-identical store, so each service instance serves the same data.
fn captured() -> (Csr, ProvStore, u32) {
    let g = path(16);
    let capture = Ariadne::default()
        .capture(&Sssp::new(VertexId(0)), &g, &CaptureSpec::full())
        .expect("capture");
    let last = capture.store.max_superstep().expect("nonempty capture");
    (g, capture.store, last)
}

/// Flatten a replay database in the service's pagination order:
/// predicate name ascending, tuples in relation-sorted order.
fn flatten(db: &ariadne_pql::Database) -> Vec<(String, Tuple)> {
    let mut rows = Vec::new();
    for (pred, _) in db.iter() {
        let pred = pred.to_string();
        for tuple in db.sorted(&pred) {
            rows.push((pred.clone(), tuple));
        }
    }
    rows
}

fn replay_bytes_counter() -> u64 {
    ariadne_obs::registry()
        .snapshot()
        .counter("serve_replay_bytes_total")
        .unwrap_or(0)
}

/// Satellite: paging backward lineage must be bit-identical to the
/// un-paged replay at every thread count and page size, cold cache and
/// warm — a cursor is a durable address, not a snapshot of scheduler
/// luck.
#[test]
fn cursor_paging_is_bit_identical_across_threads_and_page_sizes() {
    let _gate = serialize();
    let (graph, store, last) = captured();
    let sigma = last.to_string();
    let alpha = "v15";

    // Un-paged reference, computed directly on the replay engine.
    let reference_query = compile(
        BACKWARD_PQL,
        Params::new()
            .with("alpha", Value::Id(15))
            .with("sigma", Value::Int(last as i64)),
    )
    .expect("compile");
    let reference_run =
        run_layered_with(&graph, &store, &reference_query, &LayeredConfig::default())
            .expect("reference replay");
    let reference = flatten(&reference_run.query_results);
    assert!(
        reference.len() > 10,
        "reference must be big enough to paginate ({} rows)",
        reference.len()
    );

    for threads in [1usize, 2, 3, 7] {
        for page_size in [1usize, 7, 64] {
            // Fresh service per combination: the first pass replays
            // (cold), the second rides the cache (warm).
            let (graph, store, _) = captured();
            let service = QueryService::new(
                graph,
                store,
                ServeConfig {
                    threads,
                    // Page size 1 makes dozens of requests per pass;
                    // quotas are under test elsewhere, not here.
                    admission: AdmissionConfig {
                        max_in_flight: 8,
                        quota_burst: 100_000.0,
                        quota_per_sec: 0.0,
                    },
                    ..ServeConfig::default()
                },
            );
            for pass in ["cold", "warm"] {
                let warm = pass == "warm";
                let bytes_before = replay_bytes_counter();
                let mut paged: Vec<(String, Tuple)> = Vec::new();
                let mut cursor: Option<String> = None;
                loop {
                    let page = service
                        .execute(&QueryRequest {
                            pql: Some(BACKWARD_PQL),
                            params: &[("alpha", alpha), ("sigma", &sigma)],
                            cursor: cursor.as_deref(),
                            limit: Some(page_size),
                            ..Default::default()
                        })
                        .expect("page");
                    if warm {
                        assert!(page.cache_hit, "warm pass must never replay");
                    }
                    paged.extend_from_slice(page.rows());
                    match page.next_cursor {
                        Some(token) => cursor = Some(token),
                        None => break,
                    }
                }
                assert_eq!(
                    paged, reference,
                    "threads={threads} page_size={page_size} pass={pass}: \
                     paged concat must equal the un-paged replay"
                );
                if warm {
                    assert_eq!(
                        replay_bytes_counter(),
                        bytes_before,
                        "warm pagination must read zero store bytes \
                         (threads={threads} page_size={page_size})"
                    );
                }
            }
        }
    }
}

/// One parsed HTTP response: status code, raw header block, body.
struct HttpResponse {
    status: u16,
    headers: String,
    body: String,
}

fn send_raw(addr: SocketAddr, request: &[u8]) -> HttpResponse {
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
    HttpResponse {
        status,
        headers: head.to_string(),
        body: body.to_string(),
    }
}

fn get(addr: SocketAddr, path: &str) -> HttpResponse {
    send_raw(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").as_bytes(),
    )
}

fn get_as(addr: SocketAddr, path: &str, tenant: &str) -> HttpResponse {
    send_raw(
        addr,
        format!(
            "GET {path} HTTP/1.1\r\nHost: test\r\nX-Ariadne-Tenant: {tenant}\r\n\
             Connection: close\r\n\r\n"
        )
        .as_bytes(),
    )
}

/// Pull a scalar JSON string/number field out of a response body. The
/// bodies under test are flat enough that textual extraction is exact.
fn json_field<'a>(body: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\":");
    let start = body.find(&pat).unwrap_or_else(|| panic!("{key} in {body}")) + pat.len();
    let rest = &body[start..];
    if let Some(stripped) = rest.strip_prefix('"') {
        &stripped[..stripped.find('"').expect("closing quote")]
    } else {
        let end = rest
            .find([',', '}'])
            .expect("value terminator");
        &rest[..end]
    }
}

const SIMPLE_PQL_ENC: &str = "active(x,%20i)%20:-%20superstep(x,%20i).";

/// The HTTP plane end to end: paginate over TCP, re-query warm, reject
/// over quota with Retry-After, shed at zero capacity, and keep the
/// observability routes alive on the same listener.
#[test]
fn http_plane_paginates_caches_and_sheds() {
    let _gate = serialize();
    let (graph, store, _) = captured();
    let service = Arc::new(QueryService::new(graph, store, ServeConfig::default()));
    let server = serve(service, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    // Page 1: a cold replay.
    let page1 = get(addr, &format!("/query?pql={SIMPLE_PQL_ENC}&limit=5"));
    assert_eq!(page1.status, 200, "{}", page1.body);
    assert_eq!(json_field(&page1.body, "cache"), "miss");
    assert_eq!(json_field(&page1.body, "returned"), "5");
    let total: usize = json_field(&page1.body, "total_rows").parse().unwrap();
    assert!(total > 5);
    let cursor = json_field(&page1.body, "next_cursor").to_string();

    // Page 2 by cursor alone: rides the cache, continues at offset 5.
    let page2 = get(addr, &format!("/query?cursor={cursor}&limit=5"));
    assert_eq!(page2.status, 200, "{}", page2.body);
    assert_eq!(json_field(&page2.body, "cache"), "hit");
    assert_eq!(json_field(&page2.body, "offset"), "5");

    // Same query again from scratch: warm.
    let warm = get(addr, &format!("/query?pql={SIMPLE_PQL_ENC}&limit=5"));
    assert_eq!(json_field(&warm.body, "cache"), "hit");

    // Typed 400s: corrupt cursor, missing query, bad limit.
    assert_eq!(get(addr, "/query?cursor=zz").status, 400);
    assert_eq!(get(addr, "/query").status, 400);
    assert_eq!(
        get(addr, &format!("/query?pql={SIMPLE_PQL_ENC}&limit=0")).status,
        400
    );

    // The obs plane shares the listener and sees the serve metrics.
    assert_eq!(get(addr, "/healthz").body, "ok\n");
    let metrics = get(addr, "/metrics").body;
    assert!(metrics.contains("serve_cache_hits_total"));
    assert!(metrics.contains("serve_queries_total"));
    server.shutdown();

    // Quota: burst of 1 with no refill. Second request from the same
    // tenant is a 429 with Retry-After; another tenant still passes.
    let (graph, store, _) = captured();
    let throttled = Arc::new(QueryService::new(
        graph,
        store,
        ServeConfig {
            admission: AdmissionConfig {
                max_in_flight: 8,
                quota_burst: 1.0,
                quota_per_sec: 0.0,
            },
            ..ServeConfig::default()
        },
    ));
    let server = serve(throttled, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let q = format!("/query?pql={SIMPLE_PQL_ENC}&limit=2");
    assert_eq!(get_as(addr, &q, "smoke").status, 200);
    let rejected = get_as(addr, &q, "smoke");
    assert_eq!(rejected.status, 429, "{}", rejected.body);
    assert!(
        rejected.headers.to_ascii_lowercase().contains("retry-after:"),
        "429 must carry Retry-After: {}",
        rejected.headers
    );
    assert_eq!(get_as(addr, &q, "other-tenant").status, 200);
    server.shutdown();

    // Capacity: zero in-flight slots sheds everything with a 503.
    let (graph, store, _) = captured();
    let closed = Arc::new(QueryService::new(
        graph,
        store,
        ServeConfig {
            admission: AdmissionConfig {
                max_in_flight: 0,
                quota_burst: 100.0,
                quota_per_sec: 0.0,
            },
            ..ServeConfig::default()
        },
    ));
    let server = serve(closed, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let shed = get(addr, &q);
    assert_eq!(shed.status, 503, "{}", shed.body);
    assert!(shed.headers.to_ascii_lowercase().contains("retry-after:"));
    server.shutdown();
}

/// Parameterized queries over HTTP: the backward-lineage query with
/// `$alpha`/`$sigma` bindings, and distinct bindings as distinct cached
/// sequences (a cursor minted under one binding is foreign to another).
#[test]
fn http_params_bind_and_fingerprint() {
    let _gate = serialize();
    let (graph, store, last) = captured();
    let service = Arc::new(QueryService::new(graph, store, ServeConfig::default()));
    let server = serve(service, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    let pql_enc = "back_lineage(x,%20d)%20:-%20superstep(x,%20i),%20i%20=%20$sigma,%20x%20=%20$alpha,%20value(x,%20d,%20i).";
    let q15 = format!("/query?pql={pql_enc}&params=alpha=v15;sigma={last}");
    let q8 = format!("/query?pql={pql_enc}&params=alpha=v8;sigma={last}");

    let r15 = get(addr, &q15);
    assert_eq!(r15.status, 200, "{}", r15.body);
    assert_eq!(json_field(&r15.body, "total_rows"), "1");
    let fp15 = json_field(&r15.body, "fingerprint").to_string();

    let r8 = get(addr, &q8);
    assert_eq!(r8.status, 200, "{}", r8.body);
    let fp8 = json_field(&r8.body, "fingerprint").to_string();
    assert_ne!(fp15, fp8, "bindings are part of the query identity");
    assert_eq!(json_field(&r8.body, "cache"), "miss");

    // Same bindings in a different order: same fingerprint, warm hit.
    let reordered = get(
        addr,
        &format!("/query?pql={pql_enc}&params=sigma={last};alpha=v15"),
    );
    assert_eq!(json_field(&reordered.body, "fingerprint"), fp15);
    assert_eq!(json_field(&reordered.body, "cache"), "hit");
    server.shutdown();
}
