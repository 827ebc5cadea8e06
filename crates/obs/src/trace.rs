//! Structured span/event tracing with an `ARIADNE_LOG`-style env filter
//! and per-thread ring-buffered capture.
//!
//! Design constraints, in order:
//!
//! 1. **Disabled must be near-free.** The filter's maximum enabled level
//!    lives in one `AtomicU8`; [`enabled`] is a relaxed load plus a
//!    compare. At the default level (`off`) every instrumentation site
//!    reduces to that single check.
//! 2. **Recording must not serialize workers.** Each thread appends to
//!    its own fixed-capacity ring buffer; the only shared state touched
//!    on the hot path is a global `AtomicU64` sequence counter, which
//!    gives events a total order that [`drain`] can merge on.
//! 3. **Capture is lossy by design.** Rings overwrite their oldest
//!    events when full (capacity [`RING_CAPACITY`]); `dropped` counts
//!    are reported so exporters can flag truncation.
//!
//! Filter syntax (`ARIADNE_LOG`): a default level and/or comma-separated
//! `target=level` overrides, e.g. `info`, `warn,engine=debug`,
//! `off,store=trace`. Targets match by prefix, so `engine` covers
//! `engine::checkpoint`. Levels: `off`, `error`, `warn`, `info`,
//! `debug`, `trace`.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Maximum events retained per thread ring.
pub const RING_CAPACITY: usize = 8192;

/// Event severity. Discriminants are wire-stable: `Off < Error < … < Trace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Tracing disabled (filter-only; events never carry this level).
    Off = 0,
    /// Unrecoverable or data-loss conditions.
    Error = 1,
    /// Injected faults, checksum failures, retries.
    Warn = 2,
    /// Run lifecycle: start, resume, finish, checkpoint.
    Info = 3,
    /// Per-superstep and per-spill detail.
    Debug = 4,
    /// Everything, including per-chunk detail.
    Trace = 5,
}

impl Level {
    /// Lower-case name used by the filter and the JSONL exporter.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Parse a level name; `None` on unknown input.
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" | "0" => Some(Level::Off),
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }
}

/// A typed field value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Owned string (kept rare on hot paths).
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<Duration> for Value {
    fn from(v: Duration) -> Self {
        Value::U64(v.as_nanos() as u64)
    }
}

/// One captured trace event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Global sequence number: a total order across all threads.
    pub seq: u64,
    /// Nanoseconds since the tracing epoch (first use in this process).
    pub ts_ns: u64,
    /// Severity.
    pub level: Level,
    /// Subsystem, e.g. `engine`, `store`, `pql`, `engine::checkpoint`.
    pub target: &'static str,
    /// Event name, e.g. `superstep`, `spill`, `fault_injected`.
    pub name: &'static str,
    /// Trace the event belongs to (the root span's id); 0 when the
    /// event happened outside any span.
    pub trace_id: u64,
    /// For a span-close event, the span's own id; 0 for point events.
    pub span_id: u64,
    /// The enclosing span: for a span-close event its parent span, for a
    /// point event the span it occurred inside. 0 at the root / outside.
    pub parent_id: u64,
    /// Typed key/value payload.
    pub fields: Vec<(&'static str, Value)>,
}

/// A span's identity, propagatable across threads.
///
/// [`current_context`] captures the calling thread's innermost active
/// span; handing the value to a worker thread and calling
/// [`SpanContext::enter`] there makes spans and events recorded by the
/// worker children of the originating span, so one logical operation
/// (e.g. a provenance query fanning out over replay chunks) forms a
/// single navigable tree in the drained event stream.
///
/// Span-close events carry `(trace_id, span_id, parent_id)`; a span's
/// start time is `ts_ns - dur_ns` of its close event. Point events carry
/// the enclosing span in `parent_id` with `span_id = 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanContext {
    /// The trace (root span) id; 0 when no span is active.
    pub trace_id: u64,
    /// The innermost active span id; 0 when no span is active.
    pub span_id: u64,
}

impl SpanContext {
    /// Is this a real context (captured inside an active span)?
    pub fn is_active(self) -> bool {
        self.span_id != 0
    }

    /// Make this context the calling thread's innermost span until the
    /// returned guard drops. Inert for an inactive context.
    pub fn enter(self) -> ContextGuard {
        if !self.is_active() {
            return ContextGuard { entered: false };
        }
        CONTEXT.with(|c| c.borrow_mut().push(self));
        ContextGuard { entered: true }
    }
}

/// RAII guard from [`SpanContext::enter`]; pops the context on drop.
pub struct ContextGuard {
    entered: bool,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        if self.entered {
            CONTEXT.with(|c| {
                c.borrow_mut().pop();
            });
        }
    }
}

thread_local! {
    /// Stack of active span contexts on this thread, innermost last.
    static CONTEXT: RefCell<Vec<SpanContext>> = const { RefCell::new(Vec::new()) };
}

/// The calling thread's innermost active span context (all-zero when no
/// span is active). Cheap: one thread-local read.
pub fn current_context() -> SpanContext {
    CONTEXT.with(|c| c.borrow().last().copied().unwrap_or_default())
}

/// Parsed `ARIADNE_LOG` filter.
#[derive(Debug, Clone)]
struct Filter {
    default: Level,
    /// `(target_prefix, level)` overrides, first match wins.
    overrides: Vec<(String, Level)>,
}

impl Filter {
    fn off() -> Self {
        Filter {
            default: Level::Off,
            overrides: Vec::new(),
        }
    }

    fn parse(spec: &str) -> Self {
        let mut f = Filter::off();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            if let Some((target, level)) = part.split_once('=') {
                if let Some(level) = Level::parse(level) {
                    f.overrides.push((target.trim().to_string(), level));
                }
            } else if let Some(level) = Level::parse(part) {
                f.default = level;
            }
        }
        f
    }

    fn max_level(&self) -> Level {
        self.overrides
            .iter()
            .map(|(_, l)| *l)
            .max()
            .map_or(self.default, |m| m.max(self.default))
    }

    fn level_for(&self, target: &str) -> Level {
        for (prefix, level) in &self.overrides {
            if target.starts_with(prefix.as_str()) {
                return *level;
            }
        }
        self.default
    }
}

struct Ring {
    events: Mutex<RingInner>,
}

struct RingInner {
    buf: VecDeque<Event>,
    dropped: u64,
}

impl Ring {
    fn new() -> Self {
        Ring {
            events: Mutex::new(RingInner {
                buf: VecDeque::with_capacity(64),
                dropped: 0,
            }),
        }
    }

    fn push(&self, ev: Event) {
        let mut inner = self.events.lock().unwrap();
        if inner.buf.len() >= RING_CAPACITY {
            inner.buf.pop_front();
            inner.dropped += 1;
        }
        inner.buf.push_back(ev);
    }
}

struct TraceState {
    /// Fast gate: max enabled level across the whole filter, as a byte.
    max_level: AtomicU8,
    filter: Mutex<Filter>,
    seq: AtomicU64,
    /// Span-id allocator; ids start at 1 so 0 always means "none".
    span_ids: AtomicU64,
    epoch: Instant,
    rings: Mutex<Vec<Arc<Ring>>>,
}

fn state() -> &'static TraceState {
    static STATE: OnceLock<TraceState> = OnceLock::new();
    STATE.get_or_init(|| {
        let filter = std::env::var("ARIADNE_LOG")
            .map(|s| Filter::parse(&s))
            .unwrap_or_else(|_| Filter::off());
        TraceState {
            max_level: AtomicU8::new(filter.max_level() as u8),
            filter: Mutex::new(filter),
            seq: AtomicU64::new(0),
            span_ids: AtomicU64::new(1),
            epoch: Instant::now(),
            rings: Mutex::new(Vec::new()),
        }
    })
}

thread_local! {
    static THREAD_RING: Arc<Ring> = {
        let ring = Arc::new(Ring::new());
        state().rings.lock().unwrap().push(ring.clone());
        ring
    };
}

/// Replace the filter programmatically (overrides `ARIADNE_LOG`).
/// Accepts the same syntax as the env var.
pub fn set_filter(spec: &str) {
    let st = state();
    let filter = Filter::parse(spec);
    st.max_level
        .store(filter.max_level() as u8, Ordering::Relaxed);
    *st.filter.lock().unwrap() = filter;
}

/// Cheap check: would an event at `level` for `target` be captured?
///
/// The common case (tracing off) is one relaxed atomic load and a
/// compare; the filter mutex is only taken when the level passes the
/// global gate.
#[inline]
pub fn enabled(level: Level, target: &str) -> bool {
    let gate = state().max_level.load(Ordering::Relaxed);
    if (level as u8) > gate {
        return false;
    }
    level <= state().filter.lock().unwrap().level_for(target)
}

/// Record an event if the filter allows it. `fields` is only cloned
/// when the event is actually captured. The event is attributed to the
/// calling thread's innermost active span (see [`SpanContext`]).
pub fn event(
    level: Level,
    target: &'static str,
    name: &'static str,
    fields: &[(&'static str, Value)],
) {
    if !enabled(level, target) {
        return;
    }
    let ctx = current_context();
    let st = state();
    let ev = Event {
        seq: st.seq.fetch_add(1, Ordering::Relaxed),
        ts_ns: st.epoch.elapsed().as_nanos() as u64,
        level,
        target,
        name,
        trace_id: ctx.trace_id,
        span_id: 0,
        parent_id: ctx.span_id,
        fields: fields.to_vec(),
    };
    THREAD_RING.with(|r| r.push(ev));
}

/// RAII guard created by [`span`]; emits a closing event with a
/// `dur_ns` field when dropped (if the span was enabled at creation).
pub struct SpanGuard {
    start: Option<SpanData>,
}

struct SpanData {
    started: Instant,
    level: Level,
    target: &'static str,
    name: &'static str,
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
    fields: Vec<(&'static str, Value)>,
}

impl SpanGuard {
    /// A guard that records nothing.
    pub fn disabled() -> Self {
        SpanGuard { start: None }
    }

    /// This span's propagatable context, for handing to worker threads
    /// (see [`SpanContext::enter`]). Inactive for a disabled guard.
    pub fn context(&self) -> SpanContext {
        match &self.start {
            Some(d) => SpanContext {
                trace_id: d.trace_id,
                span_id: d.span_id,
            },
            None => SpanContext::default(),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(mut data) = self.start.take() {
            // Pop this span off the thread's context stack (spans are
            // strictly LIFO per thread by RAII construction).
            CONTEXT.with(|c| {
                c.borrow_mut().pop();
            });
            data.fields.push((
                "dur_ns",
                Value::U64(data.started.elapsed().as_nanos() as u64),
            ));
            let st = state();
            let ev = Event {
                seq: st.seq.fetch_add(1, Ordering::Relaxed),
                ts_ns: st.epoch.elapsed().as_nanos() as u64,
                level: data.level,
                target: data.target,
                name: data.name,
                trace_id: data.trace_id,
                span_id: data.span_id,
                parent_id: data.parent_id,
                fields: data.fields,
            };
            THREAD_RING.with(|r| r.push(ev));
        }
    }
}

/// Open a timed span. The returned guard emits `name` with a `dur_ns`
/// field (appended after `fields`) when it goes out of scope. If the
/// filter rejects the span at creation time the guard is inert.
///
/// The span becomes the thread's innermost context until the guard
/// drops: nested spans get `parent_id` pointing here, point events are
/// attributed to it, and a root span (no enclosing span on this thread)
/// starts a new trace with `trace_id` equal to its own span id.
pub fn span(
    level: Level,
    target: &'static str,
    name: &'static str,
    fields: &[(&'static str, Value)],
) -> SpanGuard {
    if !enabled(level, target) {
        return SpanGuard::disabled();
    }
    let parent = current_context();
    let span_id = state().span_ids.fetch_add(1, Ordering::Relaxed);
    let trace_id = if parent.trace_id != 0 {
        parent.trace_id
    } else {
        span_id
    };
    CONTEXT.with(|c| c.borrow_mut().push(SpanContext { trace_id, span_id }));
    SpanGuard {
        start: Some(SpanData {
            started: Instant::now(),
            level,
            target,
            name,
            trace_id,
            span_id,
            parent_id: parent.span_id,
            fields: fields.to_vec(),
        }),
    }
}

/// Cached handle for the ring-overflow counter. Every drain folds the
/// rings' dropped totals in here, so lossiness is visible in `/metrics`
/// even when callers use [`drain`] and never look at the count.
fn dropped_counter() -> &'static crate::metrics::Counter {
    static H: OnceLock<crate::metrics::Counter> = OnceLock::new();
    H.get_or_init(|| {
        crate::metrics::Registry::global().counter(
            "trace_events_dropped_total",
            "trace events lost to ring-buffer overwrite before a drain",
            false,
        )
    })
}

/// Drain every thread's ring buffer, returning all captured events
/// merged into global sequence order, plus nothing else: rings are left
/// empty. Events lost to ring overflow are folded into the
/// `trace_events_dropped_total` registry counter (and also returned by
/// [`drain_stats`]), so lossiness is never silently discarded.
pub fn drain() -> Vec<Event> {
    drain_stats().0
}

/// Like [`drain`], also returning the total number of events dropped by
/// ring overwrite since the previous drain.
///
/// Concurrent drains (two `/trace` clients) must partition the loss
/// count exactly: each dropped event is counted by exactly one drain,
/// and the registry counter advances by exactly what this drain
/// claimed. The fold is therefore a single swap per ring — buffer and
/// drop count are taken atomically under the ring lock (`take`/`swap`,
/// no read-then-reset window), and the global counter is bumped once
/// with the already-claimed total rather than re-read from the rings.
pub fn drain_stats() -> (Vec<Event>, u64) {
    let st = state();
    let rings = st.rings.lock().unwrap();
    let mut out = Vec::new();
    let mut dropped = 0u64;
    for ring in rings.iter() {
        let (buf, ring_dropped) = {
            let mut inner = ring.events.lock().unwrap();
            (
                std::mem::take(&mut inner.buf),
                std::mem::replace(&mut inner.dropped, 0),
            )
        };
        out.extend(buf);
        dropped += ring_dropped;
    }
    drop(rings);
    out.sort_by_key(|e| e.seq);
    dropped_counter().add(dropped);
    (out, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Trace state is process-global, so the tests below run serially
    // through one crate-wide mutex to avoid cross-test interference.
    fn locked() -> std::sync::MutexGuard<'static, ()> {
        crate::test_support::trace_lock()
    }

    #[test]
    fn filter_parses_default_and_overrides() {
        let f = Filter::parse("warn,engine=debug, store = trace");
        assert_eq!(f.default, Level::Warn);
        assert_eq!(f.level_for("engine::checkpoint"), Level::Debug);
        assert_eq!(f.level_for("store"), Level::Trace);
        assert_eq!(f.level_for("pql"), Level::Warn);
        assert_eq!(f.max_level(), Level::Trace);
    }

    #[test]
    fn filter_off_rejects_everything() {
        let f = Filter::off();
        assert_eq!(f.level_for("engine"), Level::Off);
        assert_eq!(f.max_level(), Level::Off);
    }

    #[test]
    fn events_capture_and_drain_in_seq_order() {
        let _g = locked();
        set_filter("info");
        let _ = drain();
        event(Level::Info, "engine", "a", &[("k", 1u64.into())]);
        event(Level::Debug, "engine", "filtered_out", &[]);
        event(Level::Info, "store", "b", &[("s", "x".into())]);
        let evs = drain();
        set_filter("off");
        assert_eq!(evs.len(), 2);
        assert!(evs[0].seq < evs[1].seq);
        assert_eq!(evs[0].name, "a");
        assert_eq!(evs[1].fields[0].1, Value::Str("x".into()));
    }

    #[test]
    fn span_emits_duration() {
        let _g = locked();
        set_filter("debug");
        let _ = drain();
        {
            let _s = span(
                Level::Debug,
                "engine",
                "phase",
                &[("superstep", 0u64.into())],
            );
        }
        let evs = drain();
        set_filter("off");
        assert_eq!(evs.len(), 1);
        let last = evs[0].fields.last().unwrap();
        assert_eq!(last.0, "dur_ns");
    }

    #[test]
    fn span_tree_ids_nest_and_attribute_events() {
        let _g = locked();
        set_filter("trace");
        let _ = drain();
        {
            let root = span(Level::Info, "pql", "query", &[]);
            let root_ctx = root.context();
            assert!(root_ctx.is_active());
            {
                let child = span(Level::Debug, "layered", "replay", &[]);
                let child_ctx = child.context();
                assert_eq!(child_ctx.trace_id, root_ctx.trace_id);
                assert_ne!(child_ctx.span_id, root_ctx.span_id);
                event(Level::Trace, "store", "read", &[]);
            }
            event(Level::Info, "pql", "merged", &[]);
        }
        let evs = drain();
        set_filter("off");
        // Close order: store read (point), child close, merged (point), root close.
        assert_eq!(evs.len(), 4);
        let read = &evs[0];
        let child = &evs[1];
        let merged = &evs[2];
        let root = &evs[3];
        assert_eq!(root.parent_id, 0);
        assert_eq!(root.trace_id, root.span_id, "root span starts its trace");
        assert_eq!(child.parent_id, root.span_id);
        assert_eq!(child.trace_id, root.trace_id);
        assert_ne!(child.span_id, 0);
        // Point events: span_id 0, parent is the enclosing span.
        assert_eq!(read.span_id, 0);
        assert_eq!(read.parent_id, child.span_id);
        assert_eq!(read.trace_id, root.trace_id);
        assert_eq!(merged.parent_id, root.span_id);
    }

    #[test]
    fn span_context_propagates_across_threads() {
        let _g = locked();
        set_filter("debug");
        let _ = drain();
        let root_ids;
        {
            let root = span(Level::Info, "layered", "run", &[]);
            let ctx = root.context();
            root_ids = (ctx.trace_id, ctx.span_id);
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(move || {
                        let _enter = ctx.enter();
                        let _chunk = span(Level::Debug, "layered", "chunk", &[]);
                    });
                }
            });
        }
        let evs = drain();
        set_filter("off");
        let chunks: Vec<_> = evs.iter().filter(|e| e.name == "chunk").collect();
        assert_eq!(chunks.len(), 2);
        for c in &chunks {
            assert_eq!(c.trace_id, root_ids.0);
            assert_eq!(c.parent_id, root_ids.1);
        }
        // Worker threads' stacks drained: entering again is a no-op root.
        assert_eq!(current_context(), SpanContext::default());
    }

    #[test]
    fn inactive_context_enter_is_inert() {
        let _g = locked();
        let ctx = SpanContext::default();
        {
            let _e = ctx.enter();
            assert_eq!(current_context(), SpanContext::default());
        }
    }

    #[test]
    fn overflow_from_many_threads_is_counted_and_exported() {
        let _g = locked();
        set_filter("debug");
        let _ = drain(); // reset rings and fold stale drops away
        let before = dropped_counter().value();
        // Each thread's private ring overflows well past RING_CAPACITY.
        let threads = 4;
        let per_thread = RING_CAPACITY + 100;
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(move || {
                    for i in 0..per_thread {
                        event(Level::Debug, "overflow", "spin", &[("i", i.into())]);
                    }
                });
            }
        });
        let (events, dropped) = drain_stats();
        set_filter("off");
        let ours = events.iter().filter(|e| e.target == "overflow").count();
        // Every event was either retained or counted dropped.
        assert_eq!(
            ours as u64 + dropped,
            (threads * per_thread) as u64,
            "retained + dropped must equal recorded"
        );
        assert!(dropped >= (threads * 100) as u64, "each ring overflowed");
        // And the loss is visible as a registry counter for /metrics.
        assert_eq!(dropped_counter().value(), before + dropped);
    }

    #[test]
    fn disabled_span_is_inert() {
        let _g = locked();
        set_filter("off");
        let _ = drain();
        {
            let _s = span(Level::Info, "engine", "phase", &[]);
        }
        assert!(drain().is_empty());
    }

    #[test]
    fn target_override_enables_below_default() {
        let _g = locked();
        set_filter("off,store=debug");
        let _ = drain();
        event(Level::Debug, "store", "spill", &[]);
        event(Level::Debug, "engine", "superstep", &[]);
        let evs = drain();
        set_filter("off");
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].target, "store");
    }
}
