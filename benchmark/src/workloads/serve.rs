//! `serve-http-hot` and `serve-http-churn`: the query service over TCP.
//!
//! Set-up captures SSSP with `CaptureSpec::full()` into a v3 spool
//! (`Durability::None`), compacts it, and starts `ariadne_serve::serve` on
//! `127.0.0.1:0` over the compacted spool with `ReadBackend::Mmap`. `C`
//! closed-loop clients (each waits for its reply, as an investigator
//! does) issue `GET /query` for the backward-lineage query at `limit=64`,
//! one `TcpStream` per request because the HTTP core answers
//! `Connection: close`. Admission never throttles (`quota_burst` 1e9,
//! `max_in_flight` 64).
//!
//! *hot*: 32 roots, a 64 MiB cache (at least 4x the working set, checked),
//! a warm-up pass, then 60 % repeats of a root's first page and 40 %
//! next-page cursor walks. HTTP accept/parse/serialize, the cache lookup
//! and the cursor codec do the work; nothing is replayed. A run is
//! rationed to 200,000 requests and a phase ends early if the host runs
//! out of ephemeral ports, which the run reports and does not count as a
//! failure of the service.
//!
//! *churn*: 256 roots drawn uniformly, a cache of a quarter of the
//! working set: most requests miss, so compile lookup, layered replay,
//! v3 extent reads and insert/evict do the work and HTTP is noise.
//!
//! The two load the same serve layer from opposite sides: a cache-policy
//! or store-read gain that costs the hit path shows as one up, one down.
//! Oracle: every page equals the same slice of a `centralized` answer
//! computed before the timed region (so pages of a walk concatenate to
//! the un-paged result); on *hot* every response must be a cache hit and
//! the service's replay-bytes counter must not move.

use super::replay::account_layered_run;
use super::{baseline_run, evaluation_pairs, stride_sample, timed_graphs, GraphTimes};
use crate::fixture::{self, derive, Rng};
use crate::http::{self, url_encode, Reply};
use crate::json::Json;
use crate::run::{Acc, Ctx, Metrics, Recorder, Workload, INSTANCES};
use crate::stats;
use crate::trace::Tracer;
use ariadne::session::Ariadne;
use ariadne::{queries, run_layered_with, CaptureSpec, LayeredConfig, ReadBackend, StoreConfig};
use ariadne_analytics::Sssp;
use ariadne_graph::{Csr, VertexId};
use ariadne_obs::HttpServer;
use ariadne_pql::{Database, Tuple, Value};
use ariadne_provenance::{ProvStore, SegmentFormat};
use ariadne_serve::{
    AdmissionConfig, CachedResult, Cursor, QueryRequest, QueryService, ReplaySummary, ServeConfig,
};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// log2 of the vertex count.
pub const SCALE: u32 = 8;
pub const PAGE_LIMIT: usize = 64;
/// Requests one run may send over TCP: what ten seconds of *hot* need
/// on the host this was sized on, and half again. The service closes
/// each connection first, so the sockets left in `TIME_WAIT` are the
/// server's and a client port is free again at once: 129,000 requests in
/// one run left 31,000 sockets in `TIME_WAIT` and none failed.
pub const REQUEST_CAP: usize = 200_000;
/// Roots over all instances.
const HOT_ROOTS: usize = 32;
const CHURN_ROOTS: usize = 256;
const HOT_CACHE_BYTES: usize = 64 << 20;
/// Share of *hot* requests that repeat a root's first page.
const HOT_REPEAT_SHARE: f64 = 0.6;

/// The backward-lineage query as a client sends it: the rules of
/// `ariadne::queries::backward_lineage` (which the oracle evaluates) with
/// the root left as parameters.
pub const LINEAGE_PQL: &str = "back_trace(x, i) :- superstep(x, i), i = $sigma, x = $alpha.
back_trace(x, i) :- send_message(x, y, m, i), back_trace(y, j), j = i + 1.
back_lineage(x, d) :- back_trace(x, i), value(x, d, i), i = 0.";

fn serve_config(threads: usize, cache_budget_bytes: usize) -> ServeConfig {
    ServeConfig {
        threads,
        cache_budget_bytes,
        admission: AdmissionConfig {
            max_in_flight: 64,
            quota_burst: 1e9,
            quota_per_sec: 0.0,
        },
        ..ServeConfig::default()
    }
}

/// Opens the compacted spool the way the service reads it.
pub fn open_spool(dir: &Path) -> ProvStore {
    ProvStore::resume_from_spool(
        StoreConfig::spilling(0, dir.to_path_buf())
            .with_format(SegmentFormat::V3)
            .with_read_backend(ReadBackend::Mmap),
    )
    .expect("reopening the compacted spool")
}

/// A value as `ariadne_serve::api` renders it, parsed back.
fn api_json(v: &Value) -> Json {
    match v {
        Value::Id(id) => Json::Num(*id as f64),
        Value::Int(i) => Json::Num(*i as f64),
        Value::Float(f) if f.is_finite() => Json::Num(*f),
        Value::Float(f) => Json::Str(f.to_string()),
        Value::Bool(b) => Json::Bool(*b),
        Value::Str(s) => Json::Str(s.to_string()),
        Value::List(items) => Json::Arr(items.iter().map(api_json).collect()),
        Value::Unit => Json::Null,
    }
}

fn api_row(pred: &str, tuple: &Tuple) -> Json {
    let mut row = vec![Json::Str(pred.to_string())];
    row.extend(tuple.iter().map(api_json));
    Json::Arr(row)
}

/// The first-page request for `root`.
fn first_page_target(root: (u64, u32)) -> String {
    format!(
        "/query?pql={}&params={}&limit={PAGE_LIMIT}",
        url_encode(LINEAGE_PQL),
        url_encode(&format!("alpha=v{};sigma={}", root.0, root.1))
    )
}

/// `next_cursor` of a response body, without parsing the rows before it.
fn next_cursor(body: &str) -> Option<&str> {
    let (_, tail) = body.rsplit_once("\"next_cursor\":\"")?;
    tail.split('"').next()
}

/// One client's position in its schedule, kept across blocks.
struct ClientState {
    rng: Rng,
    /// The open walk: root, token of the next page, that page's offset.
    walk: Option<(usize, String, usize)>,
    /// A connect failed for want of an ephemeral port: the client's
    /// limit, not the service's.
    out_of_ports: bool,
}

/// One request, as the client thread saw it.
struct Done {
    class: &'static str,
    root: usize,
    offset: usize,
    latency_ns: u64,
    reply: std::io::Result<Reply>,
}

/// What the traced phase saw, for the metrics no span carries.
#[derive(Default)]
struct Observed {
    latencies: BTreeMap<&'static str, Vec<u64>>,
    requests: u64,
    hits: u64,
    rejects: u64,
    /// Materialized bytes the cache evicted during the traced blocks
    /// (`serve_cache_evicted_bytes_total`).
    evicted_bytes: u64,
}

pub struct Serve<const HOT: bool> {
    threads: usize,
    clients: usize,
    weighted: Csr,
    sssp: Sssp,
    spool: PathBuf,
    service: Arc<QueryService>,
    server: Option<HttpServer>,
    addr: SocketAddr,
    roots: Vec<(u64, u32)>,
    targets: Vec<String>,
    /// Per root, the rows of the un-paged answer as the API renders them.
    oracle: Vec<Vec<Json>>,
    states: Vec<ClientState>,
    /// Materialized bytes of every root's answer together.
    working_set: usize,
    phase_cap: usize,
    phase_issued: usize,
    observed: Observed,
    times: GraphTimes,
}

/// A counter of the process-wide obs registry the service feeds.
fn service_counter(name: &str) -> u64 {
    ariadne_obs::registry()
        .snapshot()
        .counter(name)
        .unwrap_or(0)
}

impl<const HOT: bool> Serve<HOT> {
    const NAME: &'static str = if HOT {
        "serve-http-hot"
    } else {
        "serve-http-churn"
    };
    const BLOCK_PER_CLIENT: usize = if HOT { 250 } else { 8 };

    /// A service over `store` and its listener on an ephemeral port.
    fn start(
        graph: &Csr,
        store: ProvStore,
        threads: usize,
        cache_budget_bytes: usize,
    ) -> (Arc<QueryService>, HttpServer) {
        let service = Arc::new(QueryService::new(
            graph.clone(),
            store,
            serve_config(threads, cache_budget_bytes),
        ));
        let server =
            ariadne_serve::serve(Arc::clone(&service), "127.0.0.1:0").expect("binding 127.0.0.1:0");
        (service, server)
    }

    /// The requests of one client in one block.
    fn client_block(
        state: &mut ClientState,
        requests: usize,
        addr: SocketAddr,
        targets: &[String],
        tr: &mut Tracer,
    ) -> Vec<Done> {
        let mut done = Vec::with_capacity(requests);
        for _ in 0..requests {
            let repeat = !HOT || state.walk.is_none() || state.rng.unit() < HOT_REPEAT_SHARE;
            let next_page;
            let (class, root, offset, target) = if repeat {
                let root = state.rng.below(targets.len() as u64) as usize;
                let class = if HOT { "hit" } else { "query" };
                (class, root, 0, targets[root].as_str())
            } else {
                let (root, token, offset) = state.walk.take().expect("checked above");
                next_page = format!("/query?cursor={token}&limit={PAGE_LIMIT}");
                ("page", root, offset, next_page.as_str())
            };
            let (reply, latency_ns) = tr.op(|tr| http::get(addr, target, tr));
            if reply
                .as_ref()
                .is_err_and(|e| e.kind() == std::io::ErrorKind::AddrNotAvailable)
            {
                eprintln!(
                    "{}: out of ephemeral ports, the phase ends early",
                    Self::NAME
                );
                state.out_of_ports = true;
                break;
            }
            if HOT {
                // A first page opens a walk; a page continues it.
                let next = reply.as_ref().ok().and_then(|r| next_cursor(&r.body));
                state.walk = next.map(|token| (root, token.to_string(), offset + PAGE_LIMIT));
            }
            done.push(Done {
                class,
                root,
                offset,
                latency_ns,
                reply,
            });
        }
        done
    }

    /// Whether `reply` is the page of `root` at `offset`; also what the
    /// response says about the cache and the bytes its replay read.
    fn verify(&self, d: &Done) -> (bool, bool, u64) {
        let Ok(reply) = &d.reply else {
            return (false, false, 0);
        };
        if reply.status != 200 {
            return (false, false, 0);
        }
        let Ok(doc) = Json::parse(&reply.body) else {
            return (false, false, 0);
        };
        let hit = doc.get("cache").and_then(Json::as_str) == Some("hit");
        let bytes = if hit {
            0
        } else {
            doc.get("replay")
                .and_then(|r| r.get("bytes_read"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0) as u64
        };
        let expect = &self.oracle[d.root];
        let end = (d.offset + PAGE_LIMIT).min(expect.len());
        let rows_ok = d.offset <= end
            && doc.get("rows").and_then(Json::as_arr) == Some(&expect[d.offset..end])
            && doc.get("total_rows").and_then(Json::as_f64) == Some(expect.len() as f64)
            && doc.get("offset").and_then(Json::as_f64) == Some(d.offset as f64);
        // A warm cache four times the working set must answer from itself.
        (rows_ok && (hit || !HOT), hit, bytes)
    }
}

static SPOOLS: AtomicU64 = AtomicU64::new(0);

impl<const HOT: bool> Workload for Serve<HOT> {
    fn setup(ctx: &Ctx) -> Self {
        let (_, weighted, times) = timed_graphs(ctx.seed, SCALE);
        let sssp = Sssp::new(fixture::hub(&weighted));
        let spool = ctx
            .scratch
            .sub(&format!("spool-{}", SPOOLS.fetch_add(1, Ordering::Relaxed)));
        let session = Ariadne {
            store: StoreConfig::spilling(0, spool.clone()).with_format(SegmentFormat::V3),
            ..Ariadne::with_threads(ctx.host.threads)
        };
        let mut store = session
            .capture(&sssp, &weighted, &CaptureSpec::full())
            .expect("fixture capture")
            .store;
        store.compact().expect("compacting the fixture spool");
        store.set_read_backend(ReadBackend::Mmap);
        let mut rng = Rng::new(derive(ctx.seed, "serve-roots"));
        let count = if HOT { HOT_ROOTS } else { CHURN_ROOTS } / INSTANCES;
        let roots = stride_sample(&evaluation_pairs(&store), count, &mut rng);
        let targets = roots.iter().map(|&r| first_page_target(r)).collect();
        let states = (0..ctx.host.clients)
            .map(|c| ClientState {
                rng: Rng::new(derive(ctx.seed, &format!("client-{c}"))),
                walk: None,
                out_of_ports: false,
            })
            .collect();
        let (service, server) = Self::start(&weighted, store, ctx.host.threads, HOT_CACHE_BYTES);
        Serve {
            threads: ctx.host.threads,
            clients: ctx.host.clients,
            service,
            weighted,
            sssp,
            spool,
            addr: server.local_addr(),
            server: Some(server),
            roots,
            targets,
            oracle: Vec::new(),
            states,
            working_set: 0,
            phase_cap: REQUEST_CAP,
            phase_issued: 0,
            observed: Observed::default(),
            times,
        }
    }

    fn prepare(&mut self, _ctx: &Ctx) {
        // One load of the store, then one centralized evaluation per root
        // over a copy of it: what `Ariadne::centralized` does, without
        // decoding the spool 256 times. The clients' threads split the
        // roots; nothing else runs yet.
        let answer = |base: &Database, &(v, step): &(u64, u32)| {
            let query = queries::backward_lineage(VertexId(v), step).expect("lineage compiles");
            assert!(
                !query.query().edbs.contains("edge") && !query.query().edbs.contains("in_edge"),
                "the lineage query reads captured relations only"
            );
            let mut db = base.clone();
            query.evaluator().run(&mut db).expect("oracle evaluation");
            // The service's order: predicates by name, tuples sorted.
            let rows: Vec<(String, Tuple)> = query
                .query()
                .idbs
                .keys()
                .flat_map(|pred| db.sorted(pred).into_iter().map(move |t| (pred.clone(), t)))
                .collect();
            let rendered: Vec<Json> = rows.iter().map(|(p, t)| api_row(p, t)).collect();
            (
                rendered,
                CachedResult::new(rows, ReplaySummary::default()).bytes,
            )
        };
        let chunk = self.roots.len().div_ceil(self.clients.max(1));
        let answers: Vec<(Vec<Json>, usize)> = self.service.with_store(|store| {
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .roots
                    .chunks(chunk)
                    .map(|roots| {
                        scope.spawn(move || {
                            // A database is not `Sync`: one load per thread.
                            let base = store.to_database().expect("oracle database");
                            roots
                                .iter()
                                .map(|root| answer(&base, root))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("oracle thread panicked"))
                    .collect()
            })
        });
        let working_set: usize = answers.iter().map(|(_, bytes)| bytes).sum();
        let oracle = answers.into_iter().map(|(rows, _)| rows).collect();
        self.working_set = working_set;
        self.oracle = oracle;
        if HOT {
            assert!(
                4 * working_set <= HOT_CACHE_BYTES,
                "{}: working set {working_set} B is over a quarter of the cache",
                Self::NAME
            );
            // Warm-up: every root once, so the timed region only hits.
            let mut tr = Tracer::new(false, Instant::now());
            for target in &self.targets {
                let reply = http::get(self.addr, target, &mut tr).expect("warm-up request");
                assert_eq!(reply.status, 200, "warm-up request refused: {}", reply.body);
            }
        } else {
            // The same spool behind a cache a quarter of the working set;
            // the first listener goes before the second comes.
            drop(self.server.take());
            let (service, server) = Self::start(
                &self.weighted,
                open_spool(&self.spool),
                self.threads,
                working_set / 4,
            );
            self.service = service;
            self.addr = server.local_addr();
            self.server = Some(server);
        }
        eprintln!(
            "{}: {} roots, working set {working_set} B, cache {} B, {} rows in the largest answer",
            Self::NAME,
            self.roots.len(),
            self.service.config().cache_budget_bytes,
            self.oracle.iter().map(Vec::len).max().unwrap_or(0)
        );
    }

    fn start_phase(&mut self, share: f64) {
        self.phase_cap = (REQUEST_CAP as f64 * share) as usize;
        self.phase_issued = 0;
    }

    fn exhausted(&self) -> bool {
        self.phase_issued + self.clients * Self::BLOCK_PER_CLIENT > self.phase_cap
            || self.states.iter().any(|s| s.out_of_ports)
    }

    fn rotation(&mut self, _ctx: &Ctx, tr: &mut Tracer, rec: &mut Recorder, acc: &mut Acc) {
        let (addr, targets) = (self.addr, &self.targets);
        let (enabled, epoch) = (tr.enabled(), tr.epoch());
        let evicted_before = service_counter("serve_cache_evicted_bytes_total");
        let connects_before = http::CONNECTS.load(Ordering::Relaxed);
        let replayed_before = service_counter("serve_replay_bytes_total");
        let start = Instant::now();
        let blocks: Vec<(Tracer, Vec<Done>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .states
                .iter_mut()
                .map(|state| {
                    scope.spawn(move || {
                        let mut tr = Tracer::new(enabled, epoch);
                        let done = Self::client_block(
                            state,
                            Self::BLOCK_PER_CLIENT,
                            addr,
                            targets,
                            &mut tr,
                        );
                        (tr, done)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        rec.busy(start.elapsed().as_nanos() as u64);

        let issued: usize = blocks.iter().map(|(_, done)| done.len()).sum();
        self.phase_issued += issued;
        let mut replayed = 0;
        let mut classes = Vec::new();
        for (client_tr, done) in blocks {
            tr.absorb(client_tr);
            for d in &done {
                let (ok, hit, bytes) = self.verify(d);
                rec.op(d.class, d.latency_ns, ok);
                rec.units += u64::from(ok);
                replayed += bytes;
                if !classes.contains(&d.class) {
                    classes.push(d.class);
                }
                if enabled {
                    let o = &mut self.observed;
                    o.requests += 1;
                    o.hits += u64::from(hit);
                    o.rejects += u64::from(d.reply.as_ref().map_or(true, |r| r.status != 200));
                    o.latencies
                        .entry(if HOT {
                            d.class
                        } else if hit {
                            "hit"
                        } else {
                            "miss"
                        })
                        .or_default()
                        .push(d.latency_ns);
                    acc.add(
                        "serve.response_bytes",
                        d.reply.as_ref().map_or(0, |r| r.body.len()) as f64,
                    );
                    acc.add("read_bytes_per_op", bytes as f64);
                }
            }
        }
        if enabled {
            self.observed.evicted_bytes +=
                service_counter("serve_cache_evicted_bytes_total") - evicted_before;
        }
        // Every request crossed TCP, and the service decoded exactly the
        // bytes its miss responses own up to (none on a warm cache).
        let connects = http::CONNECTS.load(Ordering::Relaxed) - connects_before;
        let counted = service_counter("serve_replay_bytes_total") - replayed_before;
        if connects != issued as u64 || counted != replayed {
            eprintln!(
                "{}: {issued} requests but {connects} connects; responses report {replayed} replayed bytes, the service {counted}",
                Self::NAME
            );
            rec.attempted += 1;
            rec.failed += 1;
        }
        let session = Ariadne::with_threads(self.threads);
        let (_, base_ns) = baseline_run(&session, &self.sssp, &self.weighted, tr, acc);
        for class in classes {
            rec.reference(class, base_ns);
        }
    }

    fn layers(&mut self, _ctx: &Ctx, tr: &mut Tracer, acc: &mut Acc, out: &mut Metrics) {
        out.insert("graph.rmat_gen_ns", self.times.rmat_gen_ns as f64);
        out.insert("graph.csr_build_ns", self.times.csr_build_ns as f64);
        let o = std::mem::take(&mut self.observed);
        out.insert(
            "serve.cache_hit_ratio",
            o.hits as f64 / o.requests.max(1) as f64,
        );
        out.insert("serve.rejects", o.rejects as f64);

        // The floor under every request, and the telemetry plane beside it.
        for _ in 0..50 {
            tr.span("obs.http_floor", |tr| {
                http::get(self.addr, "/healthz", tr).expect("healthz")
            });
        }
        for _ in 0..5 {
            let (reply, _) = tr.span("obs.metrics_scrape", |tr| {
                http::get(self.addr, "/metrics", tr).expect("metrics")
            });
            acc.add("obs.metrics_bytes", reply.body.len() as f64);
        }
        let token = Cursor {
            fingerprint: 0x5EED,
            layer_lo: 0,
            layer_hi: 9,
            offset: 64,
            epoch: 0,
        }
        .encode();
        const CODEC_REPS: u32 = 1_000;
        let start = Instant::now();
        for _ in 0..CODEC_REPS {
            let cursor = Cursor::decode(std::hint::black_box(&token)).expect("own token decodes");
            std::hint::black_box(cursor.encode());
        }
        out.insert(
            "serve.cursor_codec_ns",
            start.elapsed().as_nanos() as f64 / f64::from(CODEC_REPS),
        );

        // The service counts evicted bytes, not entries: divide by the
        // mean materialized answer.
        let mean_answer = self.working_set as f64 / self.roots.len().max(1) as f64;
        out.insert(
            "serve.cache_evictions",
            o.evicted_bytes as f64 / mean_answer.max(1.0),
        );

        // A twin service over the same spool, called in process: the same
        // kind of request stream through `execute`, with no HTTP around it.
        let twin = QueryService::new(
            self.weighted.clone(),
            open_spool(&self.spool),
            serve_config(self.threads, self.service.config().cache_budget_bytes),
        );
        let bindings: Vec<(String, String)> = self
            .roots
            .iter()
            .map(|(v, step)| (format!("v{v}"), step.to_string()))
            .collect();
        let timed = |request: &QueryRequest| {
            let start = Instant::now();
            let page = twin.execute(request).expect("twin request");
            (page, start, Instant::now())
        };
        let first_page = |root: usize| {
            let (alpha, sigma) = &bindings[root];
            timed(&QueryRequest {
                pql: Some(LINEAGE_PQL),
                params: &[("alpha", alpha), ("sigma", sigma)],
                limit: Some(PAGE_LIMIT),
                tenant: "benchmark",
                ..QueryRequest::default()
            })
        };
        let next_page = |token: &str| {
            timed(&QueryRequest {
                cursor: Some(token),
                limit: Some(PAGE_LIMIT),
                tenant: "benchmark",
                ..QueryRequest::default()
            })
        };
        if HOT {
            for root in 0..self.roots.len() {
                first_page(root);
            }
        }
        let mut rng = Rng::new(derive(0, "twin"));
        let mut walk: Option<String> = None;
        for _ in 0..if HOT { 2_000 } else { 96 } {
            let turn = walk.take().filter(|_| rng.unit() >= HOT_REPEAT_SHARE);
            let (page, start, end) = match &turn {
                Some(token) => next_page(token),
                None => first_page(rng.below(self.roots.len() as u64) as usize),
            };
            let name = match (turn.is_some(), page.cache_hit) {
                (true, _) => "serve.execute_page",
                (false, true) => "serve.execute_hit",
                (false, false) => "serve.execute_miss",
            };
            tr.record(name, start, end);
            if HOT {
                walk = page.next_cursor;
            }
        }

        // What the client saw beyond what `execute` costs: the difference
        // of the medians per class, weighted by the classes' requests.
        let (mut overhead, mut weight) = (0.0, 0.0);
        for (class, span) in [
            ("hit", "serve.execute_hit"),
            ("page", "serve.execute_page"),
            ("miss", "serve.execute_miss"),
        ] {
            let mut inside: Vec<u64> = tr
                .spans()
                .iter()
                .filter(|s| s.name == span)
                .map(|s| s.end_ns - s.start_ns)
                .collect();
            let mut outside = o.latencies.get(class).cloned().unwrap_or_default();
            if let (Some(a), Some(b)) = (
                stats::quantile(&mut outside, 0.5, 1),
                stats::quantile(&mut inside, 0.5, 1),
            ) {
                overhead += (a as f64 - b as f64) * outside.len() as f64;
                weight += outside.len() as f64;
            }
        }
        if weight > 0.0 {
            out.insert("serve.http_overhead_ns", overhead / weight);
        }

        if !HOT {
            // What a miss pays for, called directly: the compile and the
            // layered replay over the spool.
            let store = open_spool(&self.spool);
            let config = LayeredConfig::parallel(self.threads);
            for &(v, step) in self.roots.iter().take(8) {
                let (query, _) = tr.span("pql.compile", |_| {
                    queries::backward_lineage(VertexId(v), step).expect("lineage compiles")
                });
                let (run, _) = tr.span("layered.run", |_| {
                    run_layered_with(&self.weighted, &store, &query, &config).expect("probe replay")
                });
                account_layered_run(acc, &run);
            }
        }
        self.service.with_store(|store| {
            out.insert(
                "store_bytes_per_tuple",
                fixture::dir_bytes(&self.spool) as f64 / store.tuple_count().max(1) as f64,
            );
        });
    }
}

impl<const HOT: bool> Drop for Serve<HOT> {
    fn drop(&mut self) {
        // Stop the listener and join its threads before the spool goes.
        drop(self.server.take());
        let _ = std::fs::remove_dir_all(&self.spool);
    }
}
