//! A minimal, dependency-free HTTP/1.1 server core plus the telemetry
//! plane built on it.
//!
//! Everything else in this crate dumps artifacts *after* a run; this
//! module makes the same signals scrapeable *while* the analytic and its
//! provenance queries are executing — the whole point of online
//! provenance. It is deliberately tiny: `TcpListener`, a fixed worker
//! pool, `GET`-only routing, `Connection: close` on every response. It
//! is an operational surface for scrapers and `curl`, not a general web
//! server.
//!
//! The transport machinery ([`HttpServer`]) is decoupled from the obs
//! routes so other planes can mount on it: a handler is any
//! `Fn(&Request) -> Response + Send + Sync`, the parsed [`Request`]
//! carries the query string and headers, and [`obs_route`] is the
//! default handler other planes can fall back to — one listener can
//! serve `/metrics` *and* an application API (`ariadne-serve` does
//! exactly this).
//!
//! Obs endpoints:
//!
//! | Path       | Body                                                        |
//! |------------|-------------------------------------------------------------|
//! | `/metrics` | global registry, Prometheus text ([`crate::prometheus_text`]) |
//! | `/trace`   | drains the trace rings as JSONL ([`crate::trace_jsonl`]);   |
//! |            | `X-Ariadne-Dropped-Events` reports ring overflow loss       |
//! | `/report`  | latest [`publish_report`]ed run report (404 until one lands) |
//! | `/healthz` | `ok` — liveness                                             |
//!
//! Anything malformed gets `400`, unknown paths `404`, non-GET methods
//! `405`; none of these wedge the listener. `/trace` is destructive by
//! design (it drains the rings, like [`crate::trace::drain`]) — point
//! exactly one consumer at it.
//!
//! The server is bounded everywhere: `WORKERS` threads that each accept
//! and serve their own connections (the OS listen backlog is the one
//! queue), `MAX_REQUEST_BYTES` per request head, and read/write
//! timeouts so a stalled peer cannot pin a worker. A request head split
//! across TCP segments is reassembled by looping the read until the
//! blank line, the byte cap, or the timeout — a flushed half-request is
//! not a malformed request. [`HttpServer::shutdown`] stops accepting,
//! finishes in-flight requests, and joins every thread.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::trace::{self, Level};

/// Threads that each accept and serve connections.
pub const WORKERS: usize = 4;
/// Upper bound on the request head (request line + headers) we read.
pub const MAX_REQUEST_BYTES: usize = 8 * 1024;
/// Per-connection socket read/write timeout.
pub const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Cached handles for the server's own metrics (it eats its own food).
mod obs_handles {
    use crate::{static_counter, static_histogram};

    static_counter!(
        requests,
        "obs_http_requests_total",
        "HTTP requests accepted by the exposition server",
        false
    );
    static_histogram!(
        request_ns,
        "obs_http_request_ns",
        "per-connection time from accept to close",
        false
    );
    static_counter!(
        bad_requests,
        "obs_http_bad_requests_total",
        "HTTP requests rejected as malformed (400) or unsupported (404/405)",
        false
    );
}

/// The latest published run report, served verbatim on `/report`.
fn latest_report() -> &'static Mutex<Option<String>> {
    static R: OnceLock<Mutex<Option<String>>> = OnceLock::new();
    R.get_or_init(|| Mutex::new(None))
}

/// Publish a run's report JSON for `GET /report`. Call it after each
/// run (or superstep); the newest value wins. Publishing is independent
/// of any server's lifetime, so drivers can publish unconditionally.
pub fn publish_report(json: String) {
    *latest_report().lock().unwrap() = Some(json);
}

/// The currently published report, if any (what `/report` would serve).
pub fn published_report() -> Option<String> {
    latest_report().lock().unwrap().clone()
}

/// One parsed request head: method, path, raw query string, headers.
///
/// Routing is path-only; handlers read parameters through
/// [`Request::param`] (percent-decoded) and headers through
/// [`Request::header`] (case-insensitive).
#[derive(Debug)]
pub struct Request {
    /// The request method, verbatim (`GET`, `POST`, ...).
    pub method: String,
    /// The path with any query string stripped.
    pub path: String,
    /// The raw query string after `?` (empty when absent).
    pub query: String,
    /// Header `(name, value)` pairs; names lowercased at parse time.
    pub headers: Vec<(String, String)>,
}

impl Request {
    /// The percent-decoded value of query parameter `name`, if present.
    /// `+` decodes to a space, `%XX` to the byte it encodes.
    pub fn param(&self, name: &str) -> Option<String> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == name).then(|| percent_decode(v))
        })
    }

    /// The value of header `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        let want = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == want)
            .map(|(_, v)| v.as_str())
    }
}

/// Decode `%XX` escapes and `+`-for-space in a query-string component.
/// Malformed escapes pass through verbatim rather than erroring: the
/// parameter grammar is the application's concern, transport just
/// unwraps the encoding it can prove.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                match (
                    bytes.get(i + 1).and_then(|b| (*b as char).to_digit(16)),
                    bytes.get(i + 2).and_then(|b| (*b as char).to_digit(16)),
                ) {
                    (Some(hi), Some(lo)) => {
                        out.push((hi * 16 + lo) as u8);
                        i += 3;
                    }
                    _ => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// One response: status, content type, extra headers, body.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Additional `(name, value)` header pairs emitted verbatim.
    pub extra_headers: Vec<(String, String)>,
    /// Response body.
    pub body: String,
}

impl Response {
    /// A `text/plain` response.
    pub fn plain(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            extra_headers: Vec::new(),
            body: body.into(),
        }
    }

    /// An `application/json` response.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "application/json; charset=utf-8",
            extra_headers: Vec::new(),
            body: body.into(),
        }
    }

    /// Attach an extra header.
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Response {
        self.extra_headers.push((name.into(), value.into()));
        self
    }
}

/// The reason phrase for the status codes this plane emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        410 => "Gone",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// A request handler mounted on an [`HttpServer`]. Called concurrently
/// from the workers.
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// The transport core: listener, fixed set of accepting workers,
/// request-head reassembly, response framing. Routing logic is the
/// mounted [`Handler`]'s; [`ObsServer`] mounts [`obs_route`].
///
/// Dropping without [`HttpServer::shutdown`] performs the same graceful
/// shutdown.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `addr` (e.g. `127.0.0.1:9464`, or port `0` for an ephemeral
    /// port) and serve `handler` in background threads.
    pub fn bind_with<A: ToSocketAddrs>(addr: A, handler: Handler) -> io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        // Built first, so a failed spawn drops it and joins the workers.
        let mut server = HttpServer {
            addr: listener.local_addr()?,
            stop: Arc::new(AtomicBool::new(false)),
            workers: Vec::with_capacity(WORKERS),
        };
        for i in 0..WORKERS {
            let listener = listener.try_clone()?;
            let stop = Arc::clone(&server.stop);
            let handler = Arc::clone(&handler);
            let thread = std::thread::Builder::new().name(format!("obs-http-{i}"));
            server.workers.push(thread.spawn(move || {
                for stream in listener.incoming().flatten() {
                    // A wake-up connection, or any accepted after the
                    // stop, closes unserved.
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    handle_connection(stream, &handler);
                }
            })?);
        }
        Ok(server)
    }

    /// The bound address (useful with an ephemeral port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, finish in-flight requests,
    /// join every thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Each worker leaves after the first connection it accepts past
        // the stop: one connection per worker wakes every one out of
        // its blocking accept().
        for _ in &self.workers {
            let _ = TcpStream::connect(self.addr);
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// A running telemetry server: the obs routes mounted on the shared
/// [`HttpServer`] core.
pub struct ObsServer {
    inner: HttpServer,
}

impl ObsServer {
    /// Bind `addr` and serve the obs endpoints in background threads.
    pub fn bind<A: ToSocketAddrs>(addr: A) -> io::Result<ObsServer> {
        Ok(ObsServer {
            inner: HttpServer::bind_with(addr, Arc::new(obs_route))?,
        })
    }

    /// The bound address (useful with an ephemeral port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr()
    }

    /// Graceful shutdown: stop accepting, finish in-flight requests,
    /// join every thread.
    pub fn shutdown(self) {
        self.inner.shutdown();
    }
}

/// Read the request head (through the blank line), bounded by
/// [`MAX_REQUEST_BYTES`]. Loops across short reads — a head split over
/// multiple TCP segments is reassembled, not rejected. Returns `None`
/// on timeout/oversize/EOF-mid-head.
fn read_request_head(stream: &mut TcpStream) -> Option<String> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n")
                {
                    break;
                }
                if buf.len() > MAX_REQUEST_BYTES {
                    return None;
                }
            }
            // A signal landing mid-read is not a protocol error; only
            // real failures (including the IO_TIMEOUT deadline) abort.
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return None,
        }
    }
    String::from_utf8(buf).ok()
}

/// Parse the request head into a [`Request`]; `Err(400)` on anything
/// that is not a well-formed HTTP/1.x request line. Method filtering
/// (405) is the router's decision, not the parser's.
fn parse_request(head: &str) -> Result<Request, u16> {
    let mut lines = head.lines();
    let line = lines.next().ok_or(400u16)?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or(400u16)?;
    let target = parts.next().ok_or(400u16)?;
    let version = parts.next().ok_or(400u16)?;
    if !version.starts_with("HTTP/1.") || parts.next().is_some() {
        return Err(400);
    }
    if !target.starts_with('/') || !method.chars().all(|c| c.is_ascii_uppercase()) {
        return Err(400);
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        query: query.to_string(),
        headers,
    })
}

/// The obs-plane router: serves `/metrics`, `/trace`, `/report` and
/// `/healthz`, `405` for non-GET methods, `404` otherwise. Public so
/// other planes mounted on [`HttpServer`] can delegate unknown paths
/// here and keep the telemetry endpoints alive on their port.
pub fn obs_route(req: &Request) -> Response {
    if req.method != "GET" {
        return Response::plain(405, format!("{}\n", status_reason(405)));
    }
    match req.path.as_str() {
        "/metrics" => Response {
            status: 200,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            extra_headers: Vec::new(),
            body: crate::prometheus_text(&crate::registry().snapshot()),
        },
        "/trace" => {
            let (events, dropped) = crate::trace::drain_stats();
            Response {
                status: 200,
                content_type: "application/jsonl; charset=utf-8",
                extra_headers: vec![("X-Ariadne-Dropped-Events".into(), dropped.to_string())],
                body: crate::trace_jsonl(&events),
            }
        }
        "/report" => match published_report() {
            Some(json) => Response::json(200, json + "\n"),
            None => Response::plain(404, "no report published yet\n"),
        },
        "/healthz" => Response::plain(200, "ok\n"),
        _ => Response::plain(404, "not found\n"),
    }
}

/// Serve one accepted connection inside its `http`/`request` span, so
/// the handler's spans nest under it.
fn handle_connection(mut stream: TcpStream, handler: &Handler) {
    let accepted = Instant::now();
    let _span = trace::span(Level::Debug, "http", "request", &[]);
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    obs_handles::requests().inc();

    let mut path = String::new();
    let response = match read_request_head(&mut stream) {
        None => Response::plain(400, "bad request\n"),
        Some(head) => match parse_request(&head) {
            Ok(req) => {
                let response = handler(&req);
                path = req.path;
                response
            }
            Err(status) => Response::plain(status, format!("{}\n", status_reason(status))),
        },
    };
    if response.status >= 400 {
        obs_handles::bad_requests().inc();
    }
    trace::event(
        Level::Debug,
        "http",
        "response",
        &[
            ("path", path.into()),
            ("status", u64::from(response.status).into()),
        ],
    );

    let mut out = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        response.status,
        status_reason(response.status),
        response.content_type,
        response.body.len(),
    );
    for (name, value) in &response.extra_headers {
        out.push_str(name);
        out.push_str(": ");
        out.push_str(value);
        out.push_str("\r\n");
    }
    out.push_str("\r\n");
    out.push_str(&response.body);
    let _ = stream.write_all(out.as_bytes());
    let _ = stream.flush();
    let _ = stream.shutdown(Shutdown::Both);
    drop(stream);
    obs_handles::request_ns().record(accepted.elapsed().as_nanos() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    /// One round-trip against a running server; returns (status, headers,
    /// body). `raw` is written verbatim so tests can send malformed junk.
    fn roundtrip(addr: SocketAddr, raw: &str) -> (u16, Vec<String>, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        s.flush().unwrap();
        let mut reader = std::io::BufReader::new(s);
        let mut status_line = String::new();
        reader.read_line(&mut status_line).unwrap();
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let mut headers = Vec::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let line = line.trim_end().to_string();
            if line.is_empty() {
                break;
            }
            headers.push(line);
        }
        let mut body = String::new();
        reader.read_to_string(&mut body).unwrap();
        (status, headers, body)
    }

    fn get(addr: SocketAddr, path: &str) -> (u16, Vec<String>, String) {
        roundtrip(addr, &format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n"))
    }

    #[test]
    fn serves_healthz_metrics_and_404() {
        let server = ObsServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr();

        let (status, _, body) = get(addr, "/healthz");
        assert_eq!((status, body.as_str()), (200, "ok\n"));

        crate::registry()
            .counter("obs_server_test_total", "server test marker", true)
            .add(3);
        let (status, headers, body) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(headers.iter().any(|h| h.contains("text/plain")));
        assert!(body.contains("obs_server_test_total 3"));
        assert!(body.contains("# ARIADNE deterministic obs_server_test_total true"));

        let (status, _, _) = get(addr, "/nope");
        assert_eq!(status, 404);

        server.shutdown();
    }

    #[test]
    fn malformed_and_non_get_do_not_wedge() {
        let server = ObsServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr();

        let (status, _, _) = roundtrip(addr, "???\r\n\r\n");
        assert_eq!(status, 400);
        let (status, _, _) = roundtrip(addr, "POST /metrics HTTP/1.1\r\n\r\n");
        assert_eq!(status, 405);
        let (status, _, _) = roundtrip(addr, "GET /metrics TELNET/9\r\n\r\n");
        assert_eq!(status, 400);

        // The listener is still alive and serving.
        let (status, _, body) = get(addr, "/healthz");
        assert_eq!((status, body.as_str()), (200, "ok\n"));
        server.shutdown();
    }

    #[test]
    fn report_is_404_until_published() {
        let server = ObsServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        // NB: the published report is process-global; earlier tests in
        // this binary may already have published. Publish a sentinel and
        // assert it wins (newest-wins semantics).
        publish_report("{\"supersteps\":42}".to_string());
        let (status, _, body) = get(addr, "/report");
        assert_eq!(status, 200);
        assert_eq!(body, "{\"supersteps\":42}\n");
        server.shutdown();
    }

    #[test]
    fn trace_endpoint_drains_and_reports_drops() {
        let _g = crate::test_support::trace_lock();
        let server = ObsServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        crate::trace::set_filter("info");
        crate::trace::event(
            crate::trace::Level::Info,
            "obs_server_test",
            "ping",
            &[("n", 1u64.into())],
        );
        let (status, headers, body) = get(addr, "/trace");
        crate::trace::set_filter("off");
        assert_eq!(status, 200);
        assert!(headers
            .iter()
            .any(|h| h.starts_with("X-Ariadne-Dropped-Events:")));
        assert!(body.lines().any(|l| l.contains("\"name\":\"ping\"")));
        server.shutdown();
    }

    #[test]
    fn request_params_and_headers_parse() {
        let req = parse_request(
            "GET /query?pql=hot%28x%29+%3A-+v.&limit=7&cursor= HTTP/1.1\r\n\
             Host: x\r\nX-Ariadne-Tenant: alice\r\n\r\n",
        )
        .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/query");
        assert_eq!(req.param("pql").as_deref(), Some("hot(x) :- v."));
        assert_eq!(req.param("limit").as_deref(), Some("7"));
        assert_eq!(req.param("cursor").as_deref(), Some(""));
        assert_eq!(req.param("absent"), None);
        assert_eq!(req.header("x-ariadne-tenant"), Some("alice"));
        assert_eq!(req.header("X-Ariadne-Tenant"), Some("alice"));
        assert_eq!(req.header("nope"), None);
    }

    #[test]
    fn percent_decoding_is_total() {
        assert_eq!(percent_decode("a+b%20c%3a%2F"), "a b c:/");
        // Malformed escapes pass through instead of erroring.
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
    }

    /// SplitMix64, inline so the crate stays dependency-free.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
            from[self.below(from.len())]
        }
    }

    /// Run `property` on `cases` generators, case `k` seeded with
    /// `seed ^ k`; a failing case panics with its test name, index and
    /// seed.
    fn check(name: &str, seed: u64, cases: u64, property: impl Fn(&mut SplitMix)) {
        for case in 0..cases {
            let seed = seed ^ case;
            let run = || property(&mut SplitMix(seed));
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).is_err() {
                panic!("{name} failed at case {case} (seed {seed:#x})");
            }
        }
    }

    /// Fragments a request head is glued from: pieces of well-formed
    /// request lines and headers, separators, broken escapes, control
    /// bytes and multi-byte characters.
    const PIECES: [&str; 32] = [
        "GET",
        "POST",
        "get",
        "G3T",
        "/",
        "/query",
        "?",
        "&",
        "=",
        "pql",
        "cursor",
        "%",
        "%2",
        "%zz",
        "%41",
        "%e2%82",
        "+",
        "HTTP/1.1",
        "HTTP/1.",
        "HTTP/2",
        " ",
        "\t",
        "\r\n",
        "\n",
        "\r\n\r\n",
        ":",
        "Host: x",
        "X-Ariadne-Tenant: a",
        "é",
        "€",
        "\0",
        "\u{7f}",
    ];

    /// Random request heads — a valid request line with random bytes
    /// spliced in, or random fragments alone — never panic the parser
    /// or the query-string decoder, and a parsed head keeps the parser's
    /// invariants.
    #[test]
    fn random_request_heads_never_panic() {
        check(
            "random_request_heads_never_panic",
            0x0b5e_0001,
            3000,
            |rng| {
                let mut head = String::new();
                if rng.below(2) == 0 {
                    head.push_str("GET /query?pql=a%28x%29&layers=1..2 HTTP/1.1\r\n");
                    for _ in 0..rng.below(3) {
                        let (at, _) = head
                            .char_indices()
                            .nth(rng.below(head.chars().count()))
                            .unwrap();
                        head.insert_str(at, rng.pick(&PIECES));
                    }
                }
                for _ in 0..rng.below(24) {
                    head.push_str(rng.pick(&PIECES));
                }
                let Ok(req) = parse_request(&head) else {
                    return;
                };
                assert!(req.path.starts_with('/'), "{head:?}");
                assert!(
                    !req.method.is_empty() && req.method.chars().all(|c| c.is_ascii_uppercase())
                );
                assert!(req
                    .headers
                    .iter()
                    .all(|(k, _)| *k == k.to_ascii_lowercase()));
                for pair in req.query.split('&') {
                    let name = pair.split_once('=').map_or(pair, |(k, _)| k);
                    assert!(req.param(name).is_some(), "{head:?}");
                }
            },
        );
    }

    /// Every byte string percent-encoded byte by byte decodes back to
    /// itself (lossily, where it is not UTF-8), and random fragments
    /// decode without panicking.
    #[test]
    fn percent_decoding_roundtrips_random_bytes() {
        check(
            "percent_decoding_roundtrips_random_bytes",
            0x0b5e_0002,
            2000,
            |rng| {
                let bytes: Vec<u8> = (0..rng.below(40)).map(|_| rng.next() as u8).collect();
                let encoded: String = bytes.iter().map(|b| format!("%{b:02X}")).collect();
                assert_eq!(percent_decode(&encoded), String::from_utf8_lossy(&bytes));
                let junk: String = (0..rng.below(24)).map(|_| rng.pick(&PIECES)).collect();
                percent_decode(&junk);
            },
        );
    }

    #[test]
    fn custom_handler_mounts_on_the_shared_core() {
        let handler: Handler = Arc::new(|req: &Request| {
            if req.path == "/echo" {
                Response::json(
                    200,
                    format!("{{\"q\":\"{}\"}}", req.param("q").unwrap_or_default()),
                )
                .with_header("X-Test", "1")
            } else {
                obs_route(req)
            }
        });
        let server = HttpServer::bind_with("127.0.0.1:0", handler).unwrap();
        let addr = server.local_addr();
        let (status, headers, body) = get(addr, "/echo?q=hi");
        assert_eq!(status, 200);
        assert!(headers.iter().any(|h| h == "X-Test: 1"), "{headers:?}");
        assert_eq!(body, "{\"q\":\"hi\"}");
        // Unknown paths fall through to the obs routes.
        let (status, _, body) = get(addr, "/healthz");
        assert_eq!((status, body.as_str()), (200, "ok\n"));
        server.shutdown();
    }

    /// Run `f` on its own thread and fail (instead of hanging the suite)
    /// if it has not finished in a minute: a worker left parked in
    /// `accept` would otherwise block `shutdown`'s join forever.
    fn within_a_minute<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            // A panic in `f` drops `tx`, which `recv_timeout` reports at once.
            let _ = tx.send(f());
        });
        rx.recv_timeout(Duration::from_secs(60))
            .expect("shutdown neither returned nor failed: a worker is parked in accept")
    }

    /// Four times as many concurrent clients as workers, 25 requests
    /// each: every one is served, with the listen backlog as the only
    /// queue between the clients and the workers.
    #[test]
    fn more_clients_than_workers_are_all_served() {
        let server = ObsServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let served: usize = std::thread::scope(|s| {
            let clients: Vec<_> = (0..4 * WORKERS)
                .map(|_| {
                    s.spawn(move || {
                        (0..25)
                            .filter(|_| {
                                let (status, _, body) = get(addr, "/healthz");
                                status == 200 && body == "ok\n"
                            })
                            .count()
                    })
                })
                .collect();
            clients.into_iter().map(|c| c.join().unwrap()).sum()
        });
        assert_eq!(served, 4 * WORKERS * 25);
        within_a_minute(move || server.shutdown());
    }

    /// `shutdown` with every worker parked in `accept` wakes each one,
    /// and returns once it has joined them all.
    #[test]
    fn shutdown_wakes_every_worker_parked_in_accept() {
        let server = ObsServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        // Every worker has served and is back in accept.
        for _ in 0..2 * WORKERS {
            assert_eq!(get(addr, "/healthz").0, 200);
        }
        std::thread::sleep(Duration::from_millis(20));
        within_a_minute(move || server.shutdown());
    }

    /// A request in flight when `shutdown` starts still gets its whole
    /// response, and `shutdown` waits for it.
    #[test]
    fn in_flight_request_completes_across_shutdown() {
        let (entered_tx, entered_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let (entered_tx, release_rx) = (Mutex::new(entered_tx), Mutex::new(release_rx));
        let body = "x".repeat(256 * 1024);
        let reply = body.clone();
        let handler: Handler = Arc::new(move |_: &Request| {
            entered_tx.lock().unwrap().send(()).unwrap();
            release_rx.lock().unwrap().recv().unwrap();
            Response::plain(200, reply.clone())
        });
        let server = HttpServer::bind_with("127.0.0.1:0", handler).unwrap();
        let addr = server.local_addr();
        let client = std::thread::spawn(move || get(addr, "/slow"));
        entered_rx.recv().unwrap();
        let stopping = std::thread::spawn(move || within_a_minute(move || server.shutdown()));
        // Give shutdown time to set the flag and wake the idle workers;
        // it must still be waiting on the one serving `/slow`. A slow
        // host can only make this check weaker, never fail it falsely.
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            !stopping.is_finished(),
            "shutdown did not wait for the in-flight request"
        );
        release_tx.send(()).unwrap();
        let (status, headers, got) = client.join().unwrap();
        assert_eq!(status, 200);
        assert!(
            headers.contains(&format!("Content-Length: {}", body.len())),
            "{headers:?}"
        );
        assert!(
            got == body,
            "truncated body: {} of {} bytes",
            got.len(),
            body.len()
        );
        stopping.join().unwrap();
    }
}
