//! `ariadne-serve`: the long-lived query service.
//!
//! The batch CLI pays graph load, spool open, and query compilation on
//! every invocation — fine for one-shot experiments, wrong for the
//! interactive debugging loop the paper targets (§7: an investigator
//! iterates dozens of lineage queries against one captured run). This
//! crate keeps those expensive artifacts resident in a daemon:
//!
//! * a [`QueryService`] owns an opened [`ProvStore`] + the [`Csr`] graph
//!   it was captured over (swapped together by
//!   [`QueryService::append_epoch_on`]), a fingerprint-keyed table of
//!   compiled PQL programs, a
//!   byte-budgeted LRU [`ReplayCache`] of
//!   materialized replay results, and an [`Admission`] gate;
//! * [`serve`] mounts it on the shared HTTP core from `ariadne-obs`
//!   (`GET /query`), so the query API and the observability plane
//!   (`/metrics`, `/trace`, `/report`, `/healthz`) run on one listener;
//! * results are paginated with opaque [`Cursor`]
//!   tokens that are bit-stable across requests, workers, and thread
//!   counts — layered replay is deterministic and the service flattens
//!   results in a fixed order, so a row offset is a durable address.
//!
//! Replays read strictly, as every store read does: damage in the
//! served store is a typed 500, never a partial answer. So a result is
//! a function of the compiled query, the layer
//! range and the store's mutation epoch alone, and that triple is the
//! cache key.
//!
//! [`QueryService::execute`] is the transport-independent entry point;
//! the HTTP handler in [`api`] is a thin JSON shim over it, and tests
//! drive it directly.

pub mod admission;
pub mod api;
pub mod cache;
pub mod cursor;

pub use admission::{Admission, AdmissionConfig, Admit};
pub use cache::{CacheKey, CachedResult, ReplayCache, ReplaySummary};
pub use cursor::{fnv1a64, Cursor, CursorError};

use ariadne::{compile, run_layered_with, CompiledQuery, LayeredConfig};
use ariadne_graph::Csr;
use ariadne_pql::{parse_param_value, Params, Tuple};
use ariadne_provenance::{EpochStats, ProvStore};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, RwLock};

/// Cached handles for service-level metrics.
mod obs_handles {
    use ariadne_obs::static_counter;

    static_counter!(
        queries,
        "serve_queries_total",
        "query pages served (cache hits included)",
        false
    );
    static_counter!(
        rows,
        "serve_rows_returned_total",
        "result rows returned across all pages",
        false
    );
    static_counter!(
        replay_bytes,
        "serve_replay_bytes_total",
        "encoded store bytes decoded by service-initiated replays (cache hits add zero)",
        false
    );
}

/// Page size when the client sends no `limit`.
const DEFAULT_LIMIT: usize = 256;

/// Service knobs; the CLI `serve` subcommand maps flags onto this.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads for layered replay, shared by the requests in
    /// flight: a miss that starts beside `n - 1` others replays on
    /// `threads / n` (at least one), so concurrent misses split the
    /// cores a lone miss would use instead of oversubscribing them.
    pub threads: usize,
    /// Byte budget for the materialized-result LRU cache.
    pub cache_budget_bytes: usize,
    /// Hard ceiling on any requested `limit`.
    pub max_limit: usize,
    /// Admission-control knobs.
    pub admission: AdmissionConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 1,
            cache_budget_bytes: 64 << 20,
            max_limit: 4096,
            admission: AdmissionConfig::default(),
        }
    }
}

/// One query request, transport-independent. The HTTP layer parses a
/// `GET /query` into this; tests construct it directly.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryRequest<'a> {
    /// PQL source. Optional on continuation pages: a cursor alone
    /// resumes against the daemon's compiled-program table.
    pub pql: Option<&'a str>,
    /// `$name` parameter bindings as raw strings: `vN` parses as a
    /// vertex id, integers as `Int`, floats as `Float`, anything else
    /// as `Str`. Part of the query's fingerprint: the same source with
    /// different bindings is a different result sequence.
    pub params: &'a [(&'a str, &'a str)],
    /// Opaque continuation token from a previous page.
    pub cursor: Option<&'a str>,
    /// Page size; clamped to the service's `max_limit`.
    pub limit: Option<usize>,
    /// Requested inclusive layer range; clamped to the store's extent.
    /// Ignored on continuation pages (the cursor pins the range).
    pub layers: Option<(u32, u32)>,
    /// Quota identity (the `X-Ariadne-Tenant` header over HTTP).
    pub tenant: &'a str,
}

/// Why a request was refused. [`ServeError::status`] maps each variant
/// to its HTTP status.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// Neither `pql` nor `cursor` was supplied.
    MissingQuery,
    /// The cursor token failed to decode.
    Cursor(CursorError),
    /// The cursor was minted for a different query than the supplied
    /// PQL source.
    ForeignCursor,
    /// A cursor arrived without PQL and the daemon has no compiled
    /// program under its fingerprint (e.g. the daemon restarted).
    /// Re-send the PQL with the cursor to resume.
    UnknownCursorQuery,
    /// The cursor was minted before a graph mutation: the result
    /// sequence its offset addresses was superseded. HTTP 410 — the
    /// client must re-issue the query from page one at the new epoch.
    StaleCursor {
        /// The epoch embedded in the token.
        cursor_epoch: u64,
        /// The store's current mutation epoch.
        store_epoch: u64,
    },
    /// The PQL source failed to compile.
    Compile(String),
    /// The query's direction cannot run layered (forward-only modes).
    Unsupported(String),
    /// The requested layer range starts past the store's last layer.
    LayersPastStore {
        /// The range's first layer.
        lo: u32,
        /// The store's last layer.
        last: u32,
    },
    /// The replay itself failed (store corruption under strict reads).
    Replay(String),
    /// Per-tenant quota exhausted: HTTP 429.
    Throttled {
        /// Seconds until a token will be available.
        retry_after_secs: u64,
    },
    /// In-flight capacity exhausted: HTTP 503.
    Busy {
        /// Suggested back-off.
        retry_after_secs: u64,
    },
}

impl ServeError {
    /// The HTTP status this error renders as.
    pub fn status(&self) -> u16 {
        match self {
            ServeError::MissingQuery
            | ServeError::Cursor(_)
            | ServeError::ForeignCursor
            | ServeError::UnknownCursorQuery
            | ServeError::Compile(_)
            | ServeError::Unsupported(_)
            | ServeError::LayersPastStore { .. } => 400,
            ServeError::StaleCursor { .. } => 410,
            ServeError::Throttled { .. } => 429,
            ServeError::Replay(_) => 500,
            ServeError::Busy { .. } => 503,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::MissingQuery => write!(f, "request needs pql= or cursor="),
            ServeError::Cursor(e) => write!(f, "{e}"),
            ServeError::ForeignCursor => {
                write!(f, "cursor was minted for a different query")
            }
            ServeError::UnknownCursorQuery => write!(
                f,
                "cursor's query is not resident; re-send pql= alongside the cursor"
            ),
            ServeError::StaleCursor {
                cursor_epoch,
                store_epoch,
            } => write!(
                f,
                "cursor was minted at mutation epoch {cursor_epoch} but the store is at epoch \
                 {store_epoch}; re-issue the query from the first page"
            ),
            ServeError::Compile(e) => write!(f, "compile error: {e}"),
            ServeError::Unsupported(e) => write!(f, "{e}"),
            ServeError::LayersPastStore { lo, last } => write!(
                f,
                "layers start at {lo}, past the store's last layer {last}"
            ),
            ServeError::Replay(e) => write!(f, "replay failed: {e}"),
            ServeError::Throttled { retry_after_secs } => {
                write!(f, "tenant quota exhausted; retry after {retry_after_secs}s")
            }
            ServeError::Busy { retry_after_secs } => {
                write!(f, "service at capacity; retry after {retry_after_secs}s")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// One page of results. Rows are shared with the cache (no clone);
/// [`QueryPage::rows`] yields the page's slice.
#[derive(Clone, Debug)]
pub struct QueryPage {
    /// Fingerprint of the compiled source (cursors embed this).
    pub fingerprint: u64,
    /// Effective (clamped) inclusive layer range the result covers.
    pub layer_range: (u32, u32),
    /// Rows in the whole result sequence.
    pub total_rows: usize,
    /// This page's starting row.
    pub offset: usize,
    /// Token for the next page, `None` on the last.
    pub next_cursor: Option<String>,
    /// Whether the sequence came from the replay cache (this request
    /// read zero store bytes).
    pub cache_hit: bool,
    /// What the replay that materialized the sequence cost.
    pub replay: ReplaySummary,
    result: Arc<CachedResult>,
    page_len: usize,
}

impl QueryPage {
    /// The rows on this page: `(predicate, tuple)` in the stable
    /// pagination order.
    pub fn rows(&self) -> &[(String, Tuple)] {
        &self.result.rows[self.offset..self.offset + self.page_len]
    }
}

/// The graph a store was captured over, and the store.
struct Served {
    graph: Csr,
    store: ProvStore,
}

/// The resident query service: one opened store and its graph, shared
/// compiled programs, replay cache, and admission gate.
pub struct QueryService {
    /// One lock over both, so a replay never pairs one epoch's store with
    /// another epoch's graph. RwLock, not Mutex: queries are concurrent
    /// readers within one mutation epoch; the epoch appends are the only
    /// writers and run at a barrier between query batches.
    served: RwLock<Served>,
    config: ServeConfig,
    compiled: Mutex<HashMap<u64, Arc<CompiledQuery>>>,
    cache: Mutex<ReplayCache>,
    admission: Admission,
}

impl QueryService {
    /// A service over an opened store and its graph.
    pub fn new(graph: Csr, store: ProvStore, config: ServeConfig) -> QueryService {
        let cache = ReplayCache::new(config.cache_budget_bytes);
        let admission = Admission::new(config.admission);
        QueryService {
            served: RwLock::new(Served { graph, store }),
            config,
            compiled: Mutex::new(HashMap::new()),
            cache: Mutex::new(cache),
            admission,
        }
    }

    /// The service's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Read-access to the store being served (for reporting).
    pub fn with_store<R>(&self, f: impl FnOnce(&ProvStore) -> R) -> R {
        f(&self.served.read().unwrap().store)
    }

    /// The store's current mutation epoch. Tokens minted before the
    /// current epoch are refused with a 410.
    pub fn store_epoch(&self) -> u64 {
        self.served.read().unwrap().store.mutation_epoch()
    }

    /// Append a post-mutation capture to the served store as a delta
    /// epoch, keeping the served graph, and invalidate every cursor and
    /// cached result minted before it. In-flight queries finish against
    /// the old epoch (the write lock waits for their read locks);
    /// everything after sees the new epoch only. A mutation that changed
    /// edges wants [`QueryService::append_epoch_on`]: replays ship
    /// replicas along the served graph's edges.
    pub fn append_epoch(&self, next: &ProvStore) -> Result<EpochStats, ServeError> {
        self.append(None, next)
    }

    /// [`QueryService::append_epoch`] for a capture over a new `graph`:
    /// the epoch and the graph replace the old ones together, under one
    /// write lock, so no query sees one without the other. A failed
    /// append keeps both.
    pub fn append_epoch_on(&self, graph: Csr, next: &ProvStore) -> Result<EpochStats, ServeError> {
        self.append(Some(graph), next)
    }

    fn append(&self, graph: Option<Csr>, next: &ProvStore) -> Result<EpochStats, ServeError> {
        let mut served = self.served.write().unwrap();
        let stats = served
            .store
            .append_epoch(next)
            .map_err(|e| ServeError::Replay(e.to_string()))?;
        if let Some(graph) = graph {
            served.graph = graph;
        }
        // Stale keys are already unreachable (the epoch is in the key);
        // clearing frees their bytes now rather than under LRU pressure.
        self.cache.lock().unwrap().clear();
        Ok(stats)
    }

    /// Execute one request end to end: admission, cursor resolution,
    /// compile (cached), replay (cached), pagination.
    pub fn execute(&self, req: &QueryRequest<'_>) -> Result<QueryPage, ServeError> {
        let _guard = match self.admission.admit(req.tenant) {
            Admit::Granted(g) => g,
            Admit::Throttled { retry_after_secs } => {
                return Err(ServeError::Throttled { retry_after_secs })
            }
            Admit::Busy { retry_after_secs } => return Err(ServeError::Busy { retry_after_secs }),
        };

        // One read lock for the whole request: every decision below
        // (epoch check, clamp, replay) sees one consistent store and
        // graph.
        let served = self.served.read().unwrap();
        let Served { graph, store } = &*served;
        let epoch = store.mutation_epoch();

        // Resolve the cursor first: it pins fingerprint, range, offset,
        // and the mutation epoch it was minted at. A pre-mutation token
        // addresses a superseded sequence — refuse it (410), never
        // serve rows from the old epoch at its offsets.
        let cursor = match req.cursor {
            Some(token) => {
                let c = Cursor::decode(token).map_err(ServeError::Cursor)?;
                if c.epoch != epoch {
                    return Err(ServeError::StaleCursor {
                        cursor_epoch: c.epoch,
                        store_epoch: epoch,
                    });
                }
                Some(c)
            }
            None => None,
        };

        // Resolve the compiled program. PQL source wins as identity; a
        // cursor must agree with it when both are present.
        let (fingerprint, query) = match (req.pql, &cursor) {
            (Some(src), c) => {
                // The fingerprint sorts the bindings and compile keeps a
                // name's last value, so a repeated name would give two
                // binding sets one identity.
                for (i, (name, _)) in req.params.iter().enumerate() {
                    if req.params[..i].iter().any(|(n, _)| n == name) {
                        return Err(ServeError::Compile(format!(
                            "parameter `{name}` is bound more than once"
                        )));
                    }
                }
                let fp = query_fingerprint(src, req.params);
                if let Some(c) = c {
                    if c.fingerprint != fp {
                        return Err(ServeError::ForeignCursor);
                    }
                }
                (fp, self.compiled_for(fp, src, req.params)?)
            }
            (None, Some(c)) => {
                let resident = self.compiled.lock().unwrap().get(&c.fingerprint).cloned();
                match resident {
                    Some(q) => (c.fingerprint, q),
                    None => return Err(ServeError::UnknownCursorQuery),
                }
            }
            (None, None) => return Err(ServeError::MissingQuery),
        };

        // The effective layer range is part of the result's identity;
        // clamp before keying the cache so `0..=MAX` and the store's
        // true extent share an entry. A range wholly past the store
        // has nothing to clamp onto.
        let requested = match &cursor {
            Some(c) => Some((c.layer_lo, c.layer_hi)),
            None => req.layers,
        };
        let max_step = store.max_superstep();
        let effective = match (requested, max_step) {
            (_, None) => (0, 0),
            (None, Some(max)) => (0, max),
            (Some((lo, _)), Some(last)) if lo > last => {
                return Err(ServeError::LayersPastStore { lo, last })
            }
            (Some((lo, hi)), Some(max)) => (lo, hi.min(max)),
        };

        let key = CacheKey {
            fingerprint,
            layer_range: effective,
            epoch,
        };

        let cached = self.cache.lock().unwrap().get(&key);
        let (result, cache_hit) = match cached {
            Some(r) => (r, true),
            None => {
                // A replay's workers meet at a barrier every phase: with
                // more of them runnable than `threads`, a miss's latency
                // depends on what it overlaps. `_guard` counts this one.
                let beside = self.admission.in_flight().max(1);
                let layered = LayeredConfig {
                    layers: requested,
                    ..LayeredConfig::parallel(self.config.threads / beside)
                };
                let run = run_layered_with(graph, store, &query, &layered)
                    .map_err(|e| ServeError::Replay(e.to_string()))?;
                debug_assert_eq!(
                    run.layer_range,
                    if run.layers == 0 {
                        run.layer_range
                    } else {
                        effective
                    },
                    "service clamp must agree with the replay's"
                );
                obs_handles::replay_bytes().add(run.bytes_read as u64);
                let mut rows = Vec::new();
                for (pred, _) in run.query_results.iter() {
                    let pred = pred.to_string();
                    for tuple in run.query_results.sorted(&pred) {
                        rows.push((pred.clone(), tuple));
                    }
                }
                let result = Arc::new(CachedResult::new(
                    rows,
                    ReplaySummary {
                        layers: run.layers,
                        bytes_read: run.bytes_read,
                        segments_read: run.segments_read,
                        segments_skipped: run.segments_skipped,
                    },
                ));
                self.cache.lock().unwrap().insert(key, Arc::clone(&result));
                (result, false)
            }
        };

        let total = result.rows.len();
        let offset = (cursor.map_or(0, |c| c.offset) as usize).min(total);
        let limit = req
            .limit
            .unwrap_or(DEFAULT_LIMIT)
            .clamp(1, self.config.max_limit);
        let page_len = limit.min(total - offset);
        let next_cursor = if offset + page_len < total {
            Some(
                Cursor {
                    fingerprint,
                    layer_lo: effective.0,
                    layer_hi: effective.1,
                    offset: (offset + page_len) as u64,
                    epoch,
                }
                .encode(),
            )
        } else {
            None
        };

        obs_handles::queries().inc();
        obs_handles::rows().add(page_len as u64);
        Ok(QueryPage {
            fingerprint,
            layer_range: effective,
            total_rows: total,
            offset,
            next_cursor,
            cache_hit,
            replay: result.replay,
            result,
            page_len,
        })
    }

    /// Compile `src` with `params` (or return the resident program for
    /// `fp`).
    fn compiled_for(
        &self,
        fp: u64,
        src: &str,
        params: &[(&str, &str)],
    ) -> Result<Arc<CompiledQuery>, ServeError> {
        if let Some(q) = self.compiled.lock().unwrap().get(&fp) {
            return Ok(Arc::clone(q));
        }
        let mut p = Params::new();
        for (k, v) in params {
            p = p.with(k, parse_param_value(v));
        }
        let q = compile(src, p).map_err(|e| ServeError::Compile(e.to_string()))?;
        if !q.direction().supports_layered() {
            return Err(ServeError::Unsupported(format!(
                "query direction {:?} does not support layered replay",
                q.direction()
            )));
        }
        let q = Arc::new(q);
        self.compiled.lock().unwrap().insert(fp, Arc::clone(&q));
        Ok(q)
    }
}

/// Mount `service` on the shared HTTP core at `addr`: `GET /query` plus
/// the whole observability surface (`/metrics`, `/trace`, `/report`,
/// `/healthz`) on one listener.
pub fn serve(service: Arc<QueryService>, addr: &str) -> std::io::Result<ariadne_obs::HttpServer> {
    ariadne_obs::HttpServer::bind_with(addr, api::handler(service))
}

/// The stable identity of `(source, parameter bindings)`: what cursors
/// embed and the compiled-program table keys on. Bindings are sorted so
/// `a=1&b=2` and `b=2&a=1` are the same query.
pub fn query_fingerprint(src: &str, params: &[(&str, &str)]) -> u64 {
    let mut canon = String::from(src);
    let mut sorted: Vec<_> = params.to_vec();
    sorted.sort();
    for (k, v) in sorted {
        canon.push('\0');
        canon.push_str(k);
        canon.push('=');
        canon.push_str(v);
    }
    fnv1a64(canon.as_bytes())
}

// The service is shared by HTTP workers: one Arc, many threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QueryService>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use ariadne::StoreConfig;
    use ariadne_graph::generators::regular::path;
    use ariadne_pql::Value;

    /// A store with `layers` layers of one `superstep(id, s)` tuple each.
    fn fixture(layers: u32) -> (Csr, ProvStore) {
        let g = path(3);
        let mut store = ProvStore::new(StoreConfig::in_memory());
        for s in 0..layers {
            store
                .ingest(
                    s,
                    "superstep",
                    vec![vec![Value::Id(1), Value::Int(s as i64)]],
                )
                .unwrap();
        }
        (g, store)
    }

    const PQL: &str = "active(x, i) :- superstep(x, i).";

    fn service(layers: u32, config: ServeConfig) -> QueryService {
        let (g, store) = fixture(layers);
        QueryService::new(g, store, config)
    }

    #[test]
    fn paginates_to_the_unpaged_sequence() {
        let svc = service(6, ServeConfig::default());
        let full = svc
            .execute(&QueryRequest {
                pql: Some(PQL),
                ..Default::default()
            })
            .unwrap();
        assert_eq!(full.total_rows, 6);
        assert!(full.next_cursor.is_none());

        let mut paged = Vec::new();
        let mut cursor: Option<String> = None;
        loop {
            let page = svc
                .execute(&QueryRequest {
                    pql: Some(PQL),
                    cursor: cursor.as_deref(),
                    limit: Some(2),
                    ..Default::default()
                })
                .unwrap();
            assert!(page.rows().len() <= 2);
            paged.extend_from_slice(page.rows());
            match page.next_cursor {
                Some(c) => cursor = Some(c),
                None => break,
            }
        }
        assert_eq!(paged, full.rows(), "paged concat equals the un-paged run");
    }

    #[test]
    fn second_query_hits_the_cache_and_reads_nothing() {
        let svc = service(4, ServeConfig::default());
        let req = QueryRequest {
            pql: Some(PQL),
            ..Default::default()
        };
        let cold = svc.execute(&req).unwrap();
        assert!(!cold.cache_hit);
        assert!(cold.replay.bytes_read > 0);

        let warm = svc.execute(&req).unwrap();
        assert!(warm.cache_hit);
        // The summary reports the original replay's cost; the *hit*
        // itself decoded nothing — rows are the same Arc.
        assert_eq!(warm.replay.bytes_read, cold.replay.bytes_read);
        assert_eq!(warm.rows(), cold.rows());
    }

    #[test]
    fn concurrent_misses_share_the_replay_threads() {
        let config = ServeConfig {
            threads: 4,
            cache_budget_bytes: 0,
            ..Default::default()
        };
        let svc = service(6, config);
        let req = QueryRequest {
            pql: Some(PQL),
            ..Default::default()
        };
        let alone = svc.execute(&req).unwrap();
        // Nothing is cached, so every request replays; whatever share of
        // the threads a replay gets, its rows are the lone replay's.
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    for _ in 0..8 {
                        let page = svc.execute(&req).unwrap();
                        assert!(!page.cache_hit);
                        assert_eq!(page.rows(), alone.rows());
                    }
                });
            }
        });
    }

    #[test]
    fn cursor_continues_without_resending_pql() {
        let svc = service(5, ServeConfig::default());
        let first = svc
            .execute(&QueryRequest {
                pql: Some(PQL),
                limit: Some(3),
                ..Default::default()
            })
            .unwrap();
        let token = first.next_cursor.expect("more pages");
        let second = svc
            .execute(&QueryRequest {
                cursor: Some(&token),
                limit: Some(3),
                ..Default::default()
            })
            .unwrap();
        assert!(second.cache_hit, "continuation rides the cache");
        assert_eq!(second.offset, 3);
        assert_eq!(second.rows().len(), 2);
        assert!(second.next_cursor.is_none());
    }

    #[test]
    fn cursor_errors_are_typed() {
        let svc = service(3, ServeConfig::default());
        let err = svc
            .execute(&QueryRequest {
                cursor: Some("zz"),
                ..Default::default()
            })
            .unwrap_err();
        assert_eq!(err, ServeError::Cursor(CursorError::Malformed));
        assert_eq!(err.status(), 400);

        // A valid token minted for a different query is foreign.
        let other = Cursor {
            fingerprint: fnv1a64(b"other(x) :- superstep(x, _)."),
            layer_lo: 0,
            layer_hi: 2,
            offset: 1,
            epoch: 0,
        }
        .encode();
        let err = svc
            .execute(&QueryRequest {
                pql: Some(PQL),
                cursor: Some(&other),
                ..Default::default()
            })
            .unwrap_err();
        assert_eq!(err, ServeError::ForeignCursor);

        // Alone against a fresh daemon it is unknown (restart story).
        let err = svc
            .execute(&QueryRequest {
                cursor: Some(&other),
                ..Default::default()
            })
            .unwrap_err();
        assert_eq!(err, ServeError::UnknownCursorQuery);

        assert_eq!(
            svc.execute(&QueryRequest::default()).unwrap_err(),
            ServeError::MissingQuery
        );
    }

    #[test]
    fn mutation_invalidates_cursors_and_cache() {
        let svc = service(4, ServeConfig::default());
        let first = svc
            .execute(&QueryRequest {
                pql: Some(PQL),
                limit: Some(2),
                ..Default::default()
            })
            .unwrap();
        let pre_mutation_rows: Vec<_> = first.rows().to_vec();
        let token = first.next_cursor.expect("more pages");

        // A post-mutation capture: same predicate, different content.
        let mut next = ProvStore::new(StoreConfig::in_memory());
        for s in 0..4u32 {
            next.ingest(
                s,
                "superstep",
                vec![vec![Value::Id(2), Value::Int(i64::from(s) * 10)]],
            )
            .unwrap();
        }
        let stats = svc.append_epoch(&next).expect("epoch append");
        assert_eq!(stats.epoch, 1);
        assert_eq!(svc.store_epoch(), 1);

        // The old cursor is a typed 410, with or without the PQL.
        for req in [
            QueryRequest {
                cursor: Some(&token),
                ..Default::default()
            },
            QueryRequest {
                pql: Some(PQL),
                cursor: Some(&token),
                ..Default::default()
            },
        ] {
            let err = svc.execute(&req).unwrap_err();
            assert_eq!(
                err,
                ServeError::StaleCursor {
                    cursor_epoch: 0,
                    store_epoch: 1
                }
            );
            assert_eq!(err.status(), 410);
        }

        // A fresh query sees only the new epoch: no stale rows, no
        // stale cache entry (the replay must re-read the store).
        let fresh = svc
            .execute(&QueryRequest {
                pql: Some(PQL),
                ..Default::default()
            })
            .unwrap();
        assert!(!fresh.cache_hit, "pre-mutation cache must not answer");
        assert!(fresh.replay.bytes_read > 0);
        for row in fresh.rows() {
            assert!(
                !pre_mutation_rows.contains(row),
                "stale pre-mutation row {row:?} served after the epoch bump"
            );
        }
        // And its continuation tokens carry the new epoch.
        let paged = svc
            .execute(&QueryRequest {
                pql: Some(PQL),
                limit: Some(2),
                ..Default::default()
            })
            .unwrap();
        let token = paged.next_cursor.expect("more pages");
        assert_eq!(Cursor::decode(&token).unwrap().epoch, 1);
        svc.execute(&QueryRequest {
            cursor: Some(&token),
            ..Default::default()
        })
        .expect("current-epoch cursor resumes fine");
    }

    /// An edge insert that opens a new lineage path reaches the served
    /// answer once its epoch lands with its graph: backward lineage ships
    /// replicas along the served graph's edges, so the epoch alone (over
    /// the start-up graph) misses the path.
    #[test]
    fn edge_mutation_epoch_swaps_the_served_graph() {
        use ariadne::{Ariadne, CaptureSpec, MutableSession};
        use ariadne_analytics::Sssp;
        use ariadne_graph::{GraphBuilder, GraphDelta, VertexId};

        // 0 -> 1 -> 2 -> 3 and 0 -> 4; the mutation adds 4 -> 3, which
        // reaches 3 a superstep before 2 does.
        let mut b = GraphBuilder::new();
        for (src, dst, w) in [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 4, 0.5)] {
            b.add_edge(VertexId(src), VertexId(dst), w);
        }
        let g = b.build();
        let sssp = Sssp::new(VertexId(0));
        let spec = CaptureSpec::full();
        let ariadne = Ariadne::default();
        let base = || ariadne.capture(&sssp, &g, &spec).unwrap().store;
        let config = ServeConfig {
            threads: 2,
            ..ServeConfig::default()
        };
        let swapped = QueryService::new(g.clone(), base(), config.clone());
        let kept = QueryService::new(g.clone(), base(), config);

        let mut session = MutableSession::new(ariadne.clone(), g.clone());
        let mut delta = GraphDelta::new();
        delta.add_edge(VertexId(4), VertexId(3), 0.5);
        session.mutate(delta).commit();
        let mut mine = base();
        let (run, _) = session.capture_epoch(&sssp, &spec, &mut mine).unwrap();
        let new_graph = session.csr().clone();
        assert_eq!(
            swapped
                .append_epoch_on(new_graph.clone(), &run.store)
                .unwrap()
                .epoch,
            1
        );
        assert_eq!(kept.append_epoch(&run.store).unwrap().epoch, 1);

        // Vertex 3 at superstep 2 now descends from 4, and 4 from 0.
        let pql = "back_trace(x, i) :- superstep(x, i), i = $sigma, x = $alpha.
                   back_trace(x, i) :- send_message(x, y, m, i), back_trace(y, j), j = i + 1.
                   back_lineage(x, d) :- back_trace(x, i), value(x, d, i), i = 0.";
        let params = [("alpha", "v3"), ("sigma", "2")];
        let request = QueryRequest {
            pql: Some(pql),
            params: &params,
            ..Default::default()
        };
        let bound = Params::new()
            .with("alpha", Value::Id(3))
            .with("sigma", Value::Int(2));
        let oracle = ariadne
            .centralized(&new_graph, &mine, &compile(pql, bound).unwrap())
            .unwrap();
        let want: Vec<(String, Tuple)> = ["back_lineage", "back_trace"]
            .into_iter()
            .flat_map(|pred| {
                oracle
                    .sorted(pred)
                    .into_iter()
                    .map(move |t| (pred.to_string(), t))
            })
            .collect();
        let traced = |rows: &[(String, Tuple)]| -> Vec<u64> {
            rows.iter()
                .filter(|(pred, _)| pred == "back_trace")
                .filter_map(|(_, t)| t[0].as_id())
                .collect()
        };
        assert_eq!(traced(&want), [0, 3, 4], "the oracle walks the new edge");

        let page = swapped.execute(&request).unwrap();
        assert_eq!(page.rows(), want, "served lineage over the new graph");
        let stale = kept.execute(&request).unwrap();
        assert_eq!(
            traced(stale.rows()),
            [3],
            "the start-up graph has no 4 -> 3"
        );
    }

    #[test]
    fn layer_ranges_are_distinct_results() {
        let svc = service(6, ServeConfig::default());
        let full = svc
            .execute(&QueryRequest {
                pql: Some(PQL),
                ..Default::default()
            })
            .unwrap();
        let slice = svc
            .execute(&QueryRequest {
                pql: Some(PQL),
                layers: Some((1, 3)),
                ..Default::default()
            })
            .unwrap();
        assert_eq!(full.total_rows, 6);
        assert_eq!(slice.total_rows, 3);
        assert_eq!(slice.layer_range, (1, 3));
        assert!(!slice.cache_hit, "different range, different entry");
        // Clamped overshoot shares the full-range entry.
        let clamped = svc
            .execute(&QueryRequest {
                pql: Some(PQL),
                layers: Some((0, 999)),
                ..Default::default()
            })
            .unwrap();
        assert_eq!(clamped.layer_range, (0, 5));
        assert!(clamped.cache_hit, "0..=999 clamps onto the full entry");
        // A range that only partly overlaps the store clamps; one wholly
        // past it is refused, naming the last layer, and caches nothing.
        let partial = svc
            .execute(&QueryRequest {
                pql: Some(PQL),
                layers: Some((5, 60)),
                ..Default::default()
            })
            .unwrap();
        assert_eq!((partial.layer_range, partial.total_rows), ((5, 5), 1));
        let cached = svc.cache.lock().unwrap().len();
        let err = svc
            .execute(&QueryRequest {
                pql: Some(PQL),
                layers: Some((50, 60)),
                ..Default::default()
            })
            .unwrap_err();
        assert!(matches!(
            err,
            ServeError::LayersPastStore { lo: 50, last: 5 }
        ));
        assert_eq!(err.status(), 400);
        assert!(err.to_string().contains("last layer 5"), "{err}");
        assert_eq!(svc.cache.lock().unwrap().len(), cached);
    }

    #[test]
    fn quota_and_capacity_map_to_429_and_503() {
        let svc = service(
            3,
            ServeConfig {
                admission: AdmissionConfig {
                    max_in_flight: 4,
                    quota_burst: 1.0,
                    quota_per_sec: 0.0,
                },
                ..ServeConfig::default()
            },
        );
        let req = QueryRequest {
            pql: Some(PQL),
            tenant: "t1",
            ..Default::default()
        };
        svc.execute(&req).unwrap();
        let err = svc.execute(&req).unwrap_err();
        assert!(matches!(err, ServeError::Throttled { .. }));
        assert_eq!(err.status(), 429);

        let closed = service(
            3,
            ServeConfig {
                admission: AdmissionConfig {
                    max_in_flight: 0,
                    quota_burst: 8.0,
                    quota_per_sec: 0.0,
                },
                ..ServeConfig::default()
            },
        );
        let err = closed
            .execute(&QueryRequest {
                pql: Some(PQL),
                ..Default::default()
            })
            .unwrap_err();
        assert!(matches!(err, ServeError::Busy { .. }));
        assert_eq!(err.status(), 503);
    }

    #[test]
    fn a_parameter_bound_twice_is_400() {
        let svc = service(4, ServeConfig::default());
        let pql = "hit(x, i) :- superstep(x, i), i = $s.";
        let run = |params: &[(&str, &str)]| {
            svc.execute(&QueryRequest {
                pql: Some(pql),
                params,
                ..Default::default()
            })
        };
        for params in [[("s", "1"), ("s", "2")], [("s", "2"), ("s", "1")]] {
            let err = run(&params).unwrap_err();
            assert!(
                matches!(&err, ServeError::Compile(m) if m.contains("`s`")),
                "{err}"
            );
            assert_eq!(err.status(), 400);
        }
        // Each single binding is its own query with its own row.
        for s in [1i64, 2] {
            let page = run(&[("s", &s.to_string())]).unwrap();
            assert_eq!(
                page.rows(),
                [("hit".to_string(), vec![Value::Id(1), Value::Int(s)])]
            );
        }
    }

    #[test]
    fn compile_errors_are_400() {
        let svc = service(2, ServeConfig::default());
        let err = svc
            .execute(&QueryRequest {
                pql: Some("not pql at all"),
                ..Default::default()
            })
            .unwrap_err();
        assert!(matches!(err, ServeError::Compile(_)));
        assert_eq!(err.status(), 400);
    }
}
