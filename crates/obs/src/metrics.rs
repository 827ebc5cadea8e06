//! Lock-free sharded metric registry.
//!
//! Three metric kinds, all built on the same primitive: a bank of
//! cache-line-padded `AtomicU64` shards indexed by a stable per-thread
//! shard id. Recording is a single `fetch_add(Relaxed)` on the calling
//! thread's shard — no locks, no branches beyond the call itself, and no
//! cross-core cache-line traffic while threads stay on distinct shards.
//! Reading sums the shards; that is the *only* place ordering matters,
//! and snapshot readers run at barriers or end-of-run where the engine
//! has already synchronized.
//!
//! Registration (name → handle) goes through a mutex-guarded map, but
//! every instrumentation site caches its handle in a `OnceLock`, so the
//! mutex is touched once per site per process.
//!
//! Each metric carries a `deterministic` flag: `true` means the value is
//! a function of the *logical* computation only (bit-identical across
//! thread counts and runs), `false` means it depends on scheduling,
//! chunk layout, or wall time. Exporters and tests can filter on it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of shards per metric. Enough to keep a ~dozen worker threads
/// on distinct cache lines without bloating snapshot cost.
pub const SHARDS: usize = 16;

/// One cache-line-padded atomic cell.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// A bank of padded shards.
struct ShardBank {
    shards: [PaddedU64; SHARDS],
}

impl ShardBank {
    fn new() -> Self {
        Self {
            shards: Default::default(),
        }
    }

    #[inline]
    fn add(&self, v: u64) {
        self.shards[shard_id()].0.fetch_add(v, Ordering::Relaxed);
    }

    fn sum(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .fold(0u64, u64::wrapping_add)
    }

    fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

/// The calling thread's stable shard index.
#[inline]
fn shard_id() -> usize {
    SHARD.with(|s| *s)
}

/// What a metric measures; drives the Prometheus `# TYPE` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing count.
    Counter,
    /// Point-in-time signed value.
    Gauge,
    /// Distribution over power-of-two buckets.
    Histogram,
}

impl MetricKind {
    /// Prometheus type keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Handle to a monotonically increasing, sharded counter.
#[derive(Clone)]
pub struct Counter {
    bank: Arc<ShardBank>,
}

impl Counter {
    /// Add `v` to the calling thread's shard. Hot-path safe.
    #[inline]
    pub fn add(&self, v: u64) {
        if v != 0 {
            self.bank.add(v);
        }
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.bank.add(1);
    }

    /// Sum of all shards.
    pub fn value(&self) -> u64 {
        self.bank.sum()
    }
}

/// Handle to a signed gauge. Gauges are set/adjusted at low frequency
/// (per barrier, per spill), so a single atomic cell suffices.
#[derive(Clone)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Overwrite the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.cell.store(v as u64, Ordering::Relaxed);
    }

    /// Adjust the gauge by a signed delta.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.cell.fetch_add(delta as u64, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        self.cell.load(Ordering::Relaxed) as i64
    }
}

/// Number of exponential histogram buckets: bucket `i` counts samples
/// with `value < 2^i`, the final bucket is `+Inf`. 64 buckets put the
/// largest finite bound at `2^62 - 1`, so nanosecond latencies of
/// multi-second queries still get interpolated quantiles instead of
/// collapsing into the `+Inf` bucket.
pub const HISTOGRAM_BUCKETS: usize = 64;

struct HistogramInner {
    /// Per-shard bucket banks; `buckets[b]` is a shard bank for bucket b.
    buckets: Vec<ShardBank>,
    count: ShardBank,
    sum: ShardBank,
}

/// Handle to a power-of-two-bucketed histogram.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        let b = bucket_index(v);
        self.inner.buckets[b].add(1);
        self.inner.count.add(1);
        self.inner.sum.add(v);
    }

    /// Snapshot `(upper_bound, cumulative_count)` pairs plus sum and count.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut cumulative = 0u64;
        let mut buckets = Vec::with_capacity(HISTOGRAM_BUCKETS);
        for (i, bank) in self.inner.buckets.iter().enumerate() {
            cumulative += bank.sum();
            buckets.push((bucket_bound(i), cumulative));
        }
        HistogramSnapshot {
            buckets,
            sum: self.inner.sum.sum(),
            count: self.inner.count.sum(),
        }
    }
}

/// Bucket index for a sample: samples land in the first bucket whose
/// upper bound is `>= v`; the last bucket is unbounded.
#[inline]
fn bucket_index(v: u64) -> usize {
    // Bucket i has upper bound 2^i - 1 stored as bound 2^i exclusive;
    // equivalently i = bit length of v, clamped.
    let bits = (64 - v.leading_zeros()) as usize;
    bits.min(HISTOGRAM_BUCKETS - 1)
}

/// Upper bound (inclusive) for bucket `i`; the last bucket is `+Inf`
/// (represented as `u64::MAX`).
fn bucket_bound(i: usize) -> u64 {
    if i >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Materialized histogram state for exporters.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// `(upper_bound, cumulative_count)`; last entry's bound is `u64::MAX` (+Inf).
    pub buckets: Vec<(u64, u64)>,
    /// Sum of all recorded samples.
    pub sum: u64,
    /// Number of recorded samples.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) by linear interpolation
    /// inside the power-of-two bucket holding the target rank.
    ///
    /// The estimate assumes samples are uniformly spread across each
    /// bucket's `(lower, upper]` range, so it is exact for degenerate
    /// buckets (bound 0) and at worst off by one bucket width otherwise —
    /// the usual trade of exponential-bucket histograms. Returns `None`
    /// when the histogram is empty or `q` is not a finite value in
    /// `[0, 1]`. `quantile(1.0)` returns the upper bound of the highest
    /// occupied bucket (the observable max).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 || !q.is_finite() || !(0.0..=1.0).contains(&q) {
            return None;
        }
        // Rank of the target sample, 1-based, clamped into [1, count].
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut prev_cumulative = 0u64;
        let mut prev_bound = 0u64;
        for &(bound, cumulative) in &self.buckets {
            if cumulative >= rank {
                let in_bucket = cumulative - prev_cumulative;
                let into = rank - prev_cumulative; // 1-based within bucket
                                                   // Bucket range is (prev_bound, bound]; the first bucket
                                                   // is the single value 0. +Inf interpolates to its lower
                                                   // edge (there is no finite upper bound to lerp toward).
                if bound == prev_bound || in_bucket == 0 {
                    return Some(bound);
                }
                if bound == u64::MAX {
                    return Some(prev_bound.saturating_add(1));
                }
                let lo = prev_bound as f64;
                let width = (bound - prev_bound) as f64;
                let est = lo + width * (into as f64 / in_bucket as f64);
                return Some(est.round() as u64);
            }
            prev_cumulative = cumulative;
            prev_bound = bound;
        }
        None
    }

    /// The upper bound of the highest occupied bucket (`None` when
    /// empty): a safe over-estimate of the maximum recorded sample.
    pub fn max_bound(&self) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        self.buckets
            .iter()
            .find(|&&(_, cumulative)| cumulative >= self.count)
            .map(|&(bound, _)| bound)
    }
}

enum Cell {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Entry {
    help: &'static str,
    deterministic: bool,
    cell: Cell,
}

impl Entry {
    fn kind(&self) -> MetricKind {
        match self.cell {
            Cell::Counter(_) => MetricKind::Counter,
            Cell::Gauge(_) => MetricKind::Gauge,
            Cell::Histogram(_) => MetricKind::Histogram,
        }
    }
}

/// One exported metric value.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Metric name (Prometheus-style `snake_case`, `_total` suffix for counters).
    pub name: &'static str,
    /// Help text.
    pub help: &'static str,
    /// Metric kind.
    pub kind: MetricKind,
    /// Whether the value is thread-count invariant.
    pub deterministic: bool,
    /// The value.
    pub value: SampleValue,
}

/// The value part of a [`Sample`].
#[derive(Debug, Clone)]
pub enum SampleValue {
    /// Counter total.
    Counter(u64),
    /// Gauge level.
    Gauge(i64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

/// A full, name-sorted registry snapshot.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// All samples, sorted by metric name.
    pub samples: Vec<Sample>,
}

impl MetricsSnapshot {
    /// Only the deterministic counters, as `(name, value)` pairs — the
    /// subset that must be bit-identical across thread counts.
    pub fn deterministic_counters(&self) -> Vec<(&'static str, u64)> {
        self.samples
            .iter()
            .filter(|s| s.deterministic)
            .filter_map(|s| match s.value {
                SampleValue::Counter(v) => Some((s.name, v)),
                _ => None,
            })
            .collect()
    }

    /// Look up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.samples
            .iter()
            .find(|s| s.name == name)
            .and_then(|s| match s.value {
                SampleValue::Counter(v) => Some(v),
                _ => None,
            })
    }
}

/// A metric registry. Most code uses the process-global instance via
/// [`Registry::global`] (or `ariadne_obs::registry()`); tests build
/// private instances with [`Registry::new`].
#[derive(Default)]
pub struct Registry {
    entries: Mutex<BTreeMap<&'static str, Entry>>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-global registry.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Register (or fetch) a counter. Panics if `name` is already
    /// registered with a different kind.
    pub fn counter(&self, name: &'static str, help: &'static str, deterministic: bool) -> Counter {
        let mut map = self.entries.lock().unwrap();
        let entry = map.entry(name).or_insert_with(|| Entry {
            help,
            deterministic,
            cell: Cell::Counter(Counter {
                bank: Arc::new(ShardBank::new()),
            }),
        });
        match &entry.cell {
            Cell::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} already registered as {:?}", entry.kind()),
        }
    }

    /// Register (or fetch) a gauge.
    pub fn gauge(&self, name: &'static str, help: &'static str, deterministic: bool) -> Gauge {
        let mut map = self.entries.lock().unwrap();
        let entry = map.entry(name).or_insert_with(|| Entry {
            help,
            deterministic,
            cell: Cell::Gauge(Gauge {
                cell: Arc::new(AtomicU64::new(0)),
            }),
        });
        match &entry.cell {
            Cell::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} already registered as {:?}", entry.kind()),
        }
    }

    /// Register (or fetch) a histogram.
    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        deterministic: bool,
    ) -> Histogram {
        let mut map = self.entries.lock().unwrap();
        let entry = map.entry(name).or_insert_with(|| Entry {
            help,
            deterministic,
            cell: Cell::Histogram(Histogram {
                inner: Arc::new(HistogramInner {
                    buckets: (0..HISTOGRAM_BUCKETS).map(|_| ShardBank::new()).collect(),
                    count: ShardBank::new(),
                    sum: ShardBank::new(),
                }),
            }),
        });
        match &entry.cell {
            Cell::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} already registered as {:?}", entry.kind()),
        }
    }

    /// Snapshot every registered metric, sorted by name (BTreeMap order).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.entries.lock().unwrap();
        let samples = map
            .iter()
            .map(|(name, e)| Sample {
                name,
                help: e.help,
                kind: e.kind(),
                deterministic: e.deterministic,
                value: match &e.cell {
                    Cell::Counter(c) => SampleValue::Counter(c.value()),
                    Cell::Gauge(g) => SampleValue::Gauge(g.value()),
                    Cell::Histogram(h) => SampleValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        MetricsSnapshot { samples }
    }

    /// Reset all counters and histograms to zero and gauges to zero.
    /// For tests and bench harness runs that want per-run deltas.
    pub fn reset(&self) {
        let map = self.entries.lock().unwrap();
        for e in map.values() {
            match &e.cell {
                Cell::Counter(c) => c.bank.reset(),
                Cell::Gauge(g) => g.cell.store(0, Ordering::Relaxed),
                Cell::Histogram(h) => {
                    for b in &h.inner.buckets {
                        b.reset();
                    }
                    h.inner.count.reset();
                    h.inner.sum.reset();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counter_sums_across_threads() {
        let reg = Registry::new();
        let c = reg.counter("t_messages_total", "test", true);
        thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.value(), 8000);
    }

    #[test]
    fn gauge_set_and_add() {
        let reg = Registry::new();
        let g = reg.gauge("t_bytes", "test", false);
        g.set(10);
        g.add(-3);
        assert_eq!(g.value(), 7);
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let reg = Registry::new();
        let h = reg.histogram("t_latency_ns", "test", false);
        h.record(0); // bucket 0 (bound 0)
        h.record(1); // bucket 1 (bound 1)
        h.record(7); // bucket 3 (bound 7)
        h.record(u64::MAX); // last bucket
        let snap = h.snapshot();
        assert_eq!(snap.count, 4);
        assert_eq!(
            snap.sum,
            0u64.wrapping_add(1).wrapping_add(7).wrapping_add(u64::MAX)
        );
        assert_eq!(snap.buckets[0], (0, 1));
        assert_eq!(snap.buckets[1], (1, 2));
        assert_eq!(snap.buckets[3], (7, 3));
        let last = *snap.buckets.last().unwrap();
        assert_eq!(last, (u64::MAX, 4));
    }

    #[test]
    fn quantile_empty_and_bad_inputs() {
        let reg = Registry::new();
        let h = reg.histogram("t_q_empty", "test", false);
        let snap = h.snapshot();
        assert_eq!(snap.quantile(0.5), None);
        assert_eq!(snap.max_bound(), None);
        h.record(1);
        let snap = h.snapshot();
        assert_eq!(snap.quantile(-0.1), None);
        assert_eq!(snap.quantile(1.5), None);
        assert_eq!(snap.quantile(f64::NAN), None);
    }

    #[test]
    fn quantile_single_bucket_is_exact() {
        let reg = Registry::new();
        let h = reg.histogram("t_q_zero", "test", false);
        for _ in 0..10 {
            h.record(0);
        }
        let snap = h.snapshot();
        assert_eq!(snap.quantile(0.0), Some(0));
        assert_eq!(snap.quantile(0.5), Some(0));
        assert_eq!(snap.quantile(1.0), Some(0));
        assert_eq!(snap.max_bound(), Some(0));
    }

    #[test]
    fn quantile_interpolates_and_orders() {
        let reg = Registry::new();
        let h = reg.histogram("t_q_lat", "test", false);
        // 90 fast samples (bucket bound 127), 10 slow (bucket bound 8191).
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(8000);
        }
        let snap = h.snapshot();
        let p50 = snap.quantile(0.5).unwrap();
        let p90 = snap.quantile(0.9).unwrap();
        let p99 = snap.quantile(0.99).unwrap();
        // p50/p90 land in the fast bucket (64, 127], p99 in the slow one.
        assert!((64..=127).contains(&p50), "p50 = {p50}");
        assert!((64..=127).contains(&p90), "p90 = {p90}");
        assert!((4096..=8191).contains(&p99), "p99 = {p99}");
        assert!(p50 <= p90 && p90 <= p99, "quantiles must be monotone");
        assert_eq!(snap.max_bound(), Some(8191));
    }

    #[test]
    fn quantile_top_bucket_does_not_explode() {
        let reg = Registry::new();
        let h = reg.histogram("t_q_inf", "test", false);
        h.record(u64::MAX);
        let snap = h.snapshot();
        // +Inf bucket: report its finite lower edge, not u64::MAX.
        let p50 = snap.quantile(0.5).unwrap();
        assert!(p50 < u64::MAX);
        assert_eq!(snap.max_bound(), Some(u64::MAX));
    }

    #[test]
    fn registration_is_idempotent() {
        let reg = Registry::new();
        let a = reg.counter("t_once_total", "test", true);
        let b = reg.counter("t_once_total", "test", true);
        a.add(2);
        b.add(3);
        assert_eq!(a.value(), 5);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        let _ = reg.counter("t_kind", "test", true);
        let _ = reg.gauge("t_kind", "test", true);
    }

    #[test]
    fn snapshot_sorted_and_filterable() {
        let reg = Registry::new();
        reg.counter("b_total", "b", true).add(1);
        reg.counter("a_total", "a", false).add(2);
        reg.gauge("c_level", "c", true).set(9);
        let snap = reg.snapshot();
        let names: Vec<_> = snap.samples.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["a_total", "b_total", "c_level"]);
        assert_eq!(snap.deterministic_counters(), vec![("b_total", 1)]);
        assert_eq!(snap.counter("a_total"), Some(2));
    }

    #[test]
    fn reset_zeroes_everything() {
        let reg = Registry::new();
        let c = reg.counter("t_r_total", "t", true);
        let h = reg.histogram("t_r_hist", "t", false);
        c.add(5);
        h.record(3);
        reg.reset();
        assert_eq!(c.value(), 0);
        assert_eq!(h.snapshot().count, 0);
    }
}
