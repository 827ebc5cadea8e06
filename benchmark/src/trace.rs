//! Spans recorded from the benchmark's own files, around the calls into
//! each crate's public functions, plus the counting allocator and the
//! per-workload ledger built from the spans.
//!
//! No crate of the repository is edited for this: a span opens before a
//! public call and closes after it, and counts are read from the values
//! those calls return. Spans are kept in memory and written out once,
//! when the workload ends.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

// ---------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------

/// Wraps the system allocator. Counting is gated by a flag only a traced
/// run sets, so a timing run pays one relaxed load per allocation.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method defers to the system allocator with the caller's
// arguments unchanged; the counters are atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
            // Only the growth, so a realloc chain is not counted twice.
            ALLOC_BYTES.fetch_add(
                new_size.saturating_sub(layout.size()) as u64,
                Ordering::Relaxed,
            );
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Turns allocation counting on or off. Two contended atomic adds per
/// allocation slow an allocation-heavy engine run by a tenth or more, so
/// a traced run counts in a rotation of its own, apart from the rotations
/// whose spans it times.
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(calls, bytes)` counted so far; diff two snapshots around a region.
pub fn alloc_snapshot() -> (u64, u64) {
    (
        ALLOC_CALLS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// One recorded span. `parent` indexes the tracer's span list; `op`
/// numbers the operation (request, run, cycle) the span belongs to.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// Name of the root span of every operation. Its self time is the wall
/// no layer span covers: the benchmark's own glue.
pub const OP_SPAN: &str = "bench.op";

/// An in-memory span recorder for one thread. Disabled, it still times
/// (callers need the durations for their samples) but records nothing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A recorder whose clock starts at `epoch`; share one epoch between
    /// the tracers of a workload's threads so their spans line up.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Runs `f` inside a span called `name` and returns its result with
    /// the span's duration in nanoseconds.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, u64) {
        let start = Instant::now();
        let slot = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: 0,
                parent: self.stack.last().copied(),
                op: self.op,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let end = Instant::now();
        if let Some(i) = slot {
            self.spans[i].end_ns = (end - self.epoch).as_nanos() as u64;
            self.stack.pop();
        }
        (out, (end - start).as_nanos() as u64)
    }

    /// Runs one operation: a root [`OP_SPAN`] with a fresh op number.
    pub fn op<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> (R, u64) {
        self.op += 1;
        self.span(OP_SPAN, f)
    }

    /// Records an already-measured interval as a child of the open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: (end - self.epoch).as_nanos() as u64,
                parent: self.stack.last().copied(),
                op: self.op,
            });
        }
    }

    /// Moves another thread's spans in, re-basing parents and op numbers.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let op_base = self.op;
        self.op += other.op;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.op += op_base;
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-span self time: duration minus the part its children cover.
/// Children of one span run one after another on one thread, so the
/// part covered is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// One row of the ledger: every span of one name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LedgerRow {
    pub count: u64,
    pub total_ns: u64,
    /// Self time of the spans inside an operation: a share of the wall.
    pub self_ns: u64,
    /// Duration of the spans outside any operation (reference runs,
    /// probes): listed, and no part of the wall.
    pub outside_ns: u64,
}

/// Where the timed wall of one workload went, by span name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Ledger {
    pub rows: BTreeMap<&'static str, LedgerRow>,
    /// Sum of the root [`OP_SPAN`]s: the wall being accounted for.
    pub wall_ns: u64,
}

impl Ledger {
    pub fn build(spans: &[Span]) -> Ledger {
        let own = self_times(spans);
        let mut ledger = Ledger::default();
        // A parent is recorded before its children, so one pass knows
        // whether a span descends from an operation.
        let mut in_op = Vec::with_capacity(spans.len());
        for (s, own) in spans.iter().zip(own) {
            let inside = s.parent.map_or(s.name == OP_SPAN, |p| in_op[p]);
            in_op.push(inside);
            let duration = s.end_ns - s.start_ns;
            let row = ledger.rows.entry(s.name).or_default();
            row.count += 1;
            row.total_ns += duration;
            if inside {
                row.self_ns += own;
            } else {
                row.outside_ns += duration;
            }
            if s.parent.is_none() && inside {
                ledger.wall_ns += duration;
            }
        }
        ledger
    }

    /// Wall that no layer span's self time covers (the root spans' own
    /// self time), as a share of the wall.
    pub fn residual_ratio(&self) -> f64 {
        let glue = self.rows.get(OP_SPAN).map_or(0, |r| r.self_ns);
        if self.wall_ns == 0 {
            0.0
        } else {
            glue as f64 / self.wall_ns as f64
        }
    }

    /// Mean duration of the spans called `name`, 0 when there were none.
    pub fn mean_ns(&self, name: &str) -> f64 {
        self.rows
            .get(name)
            .filter(|r| r.count > 0)
            .map_or(0.0, |r| r.total_ns as f64 / r.count as f64)
    }

    /// Self time of the spans called `name` as a share of the wall.
    pub fn self_share(&self, name: &str) -> f64 {
        match (self.rows.get(name), self.wall_ns) {
            (Some(r), w) if w > 0 => r.self_ns as f64 / w as f64,
            _ => 0.0,
        }
    }

    /// The ledger as text, largest self time first.
    pub fn render(&self, workload: &str) -> String {
        let mut rows: Vec<_> = self.rows.iter().collect();
        rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "ledger {workload}: wall {:.3} ms over {} ops, residual {:.4}",
            self.wall_ns as f64 / 1e6,
            self.rows.get(OP_SPAN).map_or(0, |r| r.count),
            self.residual_ratio()
        );
        for (name, row) in rows {
            let _ = write!(
                out,
                "  {name:<28} count {:>7}  total {:>12.3} ms  self {:>12.3} ms  {:>6.2} % of wall",
                row.count,
                row.total_ns as f64 / 1e6,
                row.self_ns as f64 / 1e6,
                100.0 * self.self_share(name)
            );
            if row.outside_ns > 0 {
                let _ = write!(
                    out,
                    "  (+ {:.3} ms outside ops)",
                    row.outside_ns as f64 / 1e6
                );
            }
            out.push('\n');
        }
        out
    }
}

/// The spans as JSON lines `{name, start_ns, end_ns, parent, workload, op}`.
pub fn spans_jsonl(spans: &[Span], workload: &str) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"workload\":\"{}\",\"op\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, workload, s.op
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_only_from_their_parent() {
        let spans = [
            span(OP_SPAN, 0, 100, None),
            span("layered.run", 10, 70, Some(0)),
            span("provenance.layer_read", 20, 50, Some(1)),
            span("bench.verify", 75, 95, Some(0)),
        ];
        // op: 100 - 60 - 20; layered: 60 - 30; leaves keep their duration.
        assert_eq!(self_times(&spans), vec![20, 30, 30, 20]);
    }

    #[test]
    fn ledger_accounts_for_the_wall() {
        let spans = [
            span(OP_SPAN, 0, 100, None),
            span("vc.run", 5, 85, Some(0)),
            span(OP_SPAN, 100, 300, None),
            span("vc.run", 110, 290, Some(2)),
            // A reference run and a probe with a child, outside any op.
            span("vc.t1_run", 300, 400, None),
            span("obs.http_floor", 400, 450, None),
            span("http.recv", 410, 440, Some(5)),
        ];
        let ledger = Ledger::build(&spans);
        assert_eq!(ledger.wall_ns, 300);
        assert_eq!(
            ledger.rows["vc.t1_run"],
            LedgerRow {
                count: 1,
                total_ns: 100,
                self_ns: 0,
                outside_ns: 100
            }
        );
        assert_eq!(ledger.rows["http.recv"].outside_ns, 30);
        assert_eq!(ledger.mean_ns("obs.http_floor"), 50.0);
        assert_eq!(
            ledger.rows["vc.run"],
            LedgerRow {
                count: 2,
                total_ns: 260,
                self_ns: 260,
                outside_ns: 0
            }
        );
        assert_eq!(ledger.rows[OP_SPAN].self_ns, 40);
        // Self times of every row sum to the wall exactly.
        assert_eq!(ledger.rows.values().map(|r| r.self_ns).sum::<u64>(), 300);
        assert!((ledger.residual_ratio() - 40.0 / 300.0).abs() < 1e-12);
        assert!((ledger.self_share("vc.run") - 260.0 / 300.0).abs() < 1e-12);
        assert_eq!(ledger.mean_ns("vc.run"), 130.0);
        assert_eq!(ledger.mean_ns("absent"), 0.0);
    }

    #[test]
    fn tracer_nests_and_absorbs() {
        let epoch = Instant::now();
        let mut main = Tracer::new(true, epoch);
        let ((), _) = main.op(|t| {
            t.span("vc.run", |_| ());
        });
        let mut other = Tracer::new(true, epoch);
        other.op(|t| {
            t.span("http.recv", |_| ());
        });
        main.absorb(other);
        let s = main.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert_eq!((s[2].parent, s[3].parent), (None, Some(2)));
        assert_eq!((s[0].op, s[2].op), (1, 2));
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));
        let text = spans_jsonl(s, "w");
        assert_eq!(text.lines().count(), 4);
        assert!(text.lines().next().unwrap().contains("\"parent\":null"));

        let mut off = Tracer::new(false, epoch);
        let (v, _) = off.op(|t| t.span("vc.run", |_| 7).0);
        assert_eq!(v, 7);
        assert!(off.spans().is_empty());
    }
}
