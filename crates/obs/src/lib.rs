//! `ariadne-obs` — hand-rolled observability for the Ariadne reproduction.
//!
//! The paper's entire evaluation (§6) is built from runtime ratios,
//! message counts, and space accounting. This crate makes those signals
//! first-class for *our own* execution, the way the analytic's provenance
//! is first-class for the analytic:
//!
//! * [`metrics`] — a lock-free, sharded counter/gauge/histogram
//!   **registry**. Hot-path recording is a single relaxed `fetch_add` on
//!   a cache-padded per-shard cell; shards are summed only when a
//!   snapshot is taken (at barriers / end of run). Every metric carries a
//!   `deterministic` flag separating *logical-work* counters (messages,
//!   tuples, rule firings — bit-identical across thread counts) from
//!   *schedule-dependent* ones (timings, buffer occupancy, spill sizes).
//! * [`trace`] — a structured span/event tracing layer. Events carry a
//!   global sequence number, a monotonic timestamp, a level, a target,
//!   and typed fields; they land in per-thread ring buffers and are
//!   merged in sequence order on [`trace::drain`]. An `ARIADNE_LOG`-style
//!   env filter gates everything behind one relaxed atomic load, so the
//!   default (`off`) costs a branch on a loaded byte.
//! * [`export`] — two exporters: Prometheus-style text exposition for
//!   the registry and a JSONL trace dump for events. Both schemas are
//!   documented in the repository's `EXPERIMENTS.md`.
//!
//! The crate is **dependency-free by policy**: the build environment is
//! offline and everything external is vendored, so observability — the
//! layer that must never be the thing that breaks — uses only `std`.
//!
//! # Example
//!
//! ```
//! use ariadne_obs::{metrics::Registry, trace, export};
//!
//! let reg = Registry::new();
//! let sent = reg.counter("engine_messages_sent_total", "messages sent", true);
//! sent.add(42);
//! let text = export::prometheus_text(&reg.snapshot());
//! assert!(text.contains("engine_messages_sent_total 42"));
//!
//! trace::set_filter("info");
//! trace::event(
//!     trace::Level::Info,
//!     "engine",
//!     "superstep",
//!     &[("superstep", 3u64.into())],
//! );
//! let events = trace::drain();
//! assert_eq!(events.len(), 1);
//! let jsonl = export::trace_jsonl(&events);
//! assert!(jsonl.contains("\"name\":\"superstep\""));
//! ```

#![warn(missing_docs)]

pub mod export;
pub mod metrics;
pub mod server;
pub mod trace;

pub use export::{prometheus_text, trace_jsonl};
pub use metrics::{Counter, Gauge, Histogram, MetricKind, Registry};
pub use server::{
    obs_route, percent_decode, publish_report, status_reason, Handler, HttpServer, ObsServer,
    Request, Response,
};
pub use trace::{Event, Level, SpanContext, SpanGuard, Value};

/// The process-wide metric registry.
///
/// Instrumentation sites cache the handles they obtain from this
/// registry in `OnceLock` statics, so the registry mutex is only touched
/// once per site per process.
pub fn registry() -> &'static Registry {
    Registry::global()
}

/// Declare `pub fn $fn_name() -> &'static $ty`: a handle into the global
/// [`registry`], registered on first call and cached in a `OnceLock`, so
/// an instrumentation site costs one atomic load after that.
#[doc(hidden)]
#[macro_export]
macro_rules! static_handle {
    ($fn_name:ident, $ty:ident, $register:ident, $name:expr, $help:expr, $det:expr) => {
        pub fn $fn_name() -> &'static $crate::metrics::$ty {
            static H: ::std::sync::OnceLock<$crate::metrics::$ty> = ::std::sync::OnceLock::new();
            H.get_or_init(|| $crate::registry().$register($name, $help, $det))
        }
    };
}

/// `static_counter!(fn_name, "metric_name", "help", deterministic)`
/// declares `pub fn fn_name() -> &'static Counter`, a cached handle to
/// that counter in the global [`registry`].
#[macro_export]
macro_rules! static_counter {
    ($fn_name:ident, $name:expr, $help:expr, $det:expr) => {
        $crate::static_handle!($fn_name, Counter, counter, $name, $help, $det);
    };
}

/// [`static_counter!`] for a [`Gauge`].
#[macro_export]
macro_rules! static_gauge {
    ($fn_name:ident, $name:expr, $help:expr, $det:expr) => {
        $crate::static_handle!($fn_name, Gauge, gauge, $name, $help, $det);
    };
}

/// [`static_counter!`] for a [`Histogram`].
#[macro_export]
macro_rules! static_histogram {
    ($fn_name:ident, $name:expr, $help:expr, $det:expr) => {
        $crate::static_handle!($fn_name, Histogram, histogram, $name, $help, $det);
    };
}

/// Serialize tests that mutate the process-global trace state (filter,
/// rings); shared across this crate's test modules.
#[cfg(test)]
pub(crate) mod test_support {
    use std::sync::{Mutex, MutexGuard};

    static TRACE_LOCK: Mutex<()> = Mutex::new(());

    pub fn trace_lock() -> MutexGuard<'static, ()> {
        TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}
