//! What every workload shares: the sample recorder, the phases of a
//! timing run and of a traced run, and how samples become metrics.

use crate::host::{self, Host};
use crate::registry::{self, END_TO_END, PER_LAYER};
use crate::stats::{self, P90_MIN_SAMPLES};
use crate::trace::{self, Ledger, Tracer};
use crate::{fixture, json};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-ups per run, `setup_s` being their median: at least
/// `MIN_SETUP_REPS`, and more of a short set-up until they have taken
/// `SETUP_BUDGET_S` together, so that a millisecond set-up is not judged
/// by three samples.
const MIN_SETUP_REPS: usize = 3;
const MAX_SETUP_REPS: usize = 25;
const SETUP_BUDGET_S: f64 = 0.5;

/// Independently seeded instances of its fixture each workload rotates
/// over. The graphs are small, so that a run yields the hundred samples a
/// p90 needs, and a small R-MAT graph's depth and hub change with the
/// seed; four of them per run halve what the seed alone moves a metric.
pub const INSTANCES: usize = 4;

/// Shares of a rationed resource (the serve workloads' requests) the
/// phases of a run may use: the one phase of a timing run; the untraced,
/// the traced and the allocation-counting phase of a traced run.
const TIMING_RATION: f64 = 0.9;
const TRACE_PHASE_RATION: f64 = 0.4;
const ALLOC_PHASE_RATION: f64 = 0.1;

/// Share of `--seconds` a traced run spends untraced (where it takes
/// `ops_per_s`, `op_p50_ms`, `op_p90_ms` and the reference for
/// `bench.trace_overhead_ratio`) and traced; probes take the rest.
const TRACE_REFERENCE_SHARE: f64 = 0.5;
const TRACE_TRACED_SHARE: f64 = 0.3;

pub type Metrics = BTreeMap<&'static str, f64>;

/// Per-layer counts read from the values public calls return, summed
/// over the traced phase and reported as a mean per call.
#[derive(Default)]
pub struct Acc(BTreeMap<&'static str, (f64, u64)>);

impl Acc {
    pub fn add(&mut self, name: &'static str, value: f64) {
        let slot = self.0.entry(name).or_default();
        slot.0 += value;
        slot.1 += 1;
    }

    pub fn mean(&self, name: &str) -> f64 {
        self.0
            .get(name)
            .filter(|(_, n)| *n > 0)
            .map_or(0.0, |(sum, n)| sum / *n as f64)
    }

    /// Every accumulated name with its mean per call.
    pub fn means(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.keys().map(|name| (*name, self.mean(name)))
    }
}

/// Samples of one phase of one workload.
#[derive(Default)]
pub struct Recorder {
    /// Per-op wall samples in ns, by op class. A rotation mixes classes
    /// (analytics, request kinds) whose times differ by an order of
    /// magnitude, so quantiles are taken per class.
    classes: BTreeMap<&'static str, Vec<u64>>,
    /// Op samples of a class since its last reference run, and the
    /// ratios (their median ÷ that reference run) behind `overhead_x`.
    since_reference: BTreeMap<&'static str, Vec<u64>>,
    ratios: BTreeMap<&'static str, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    /// The timed wall: op walls of a sequential workload, block walls of
    /// a concurrent one. Reference runs and oracle checks are outside it.
    busy_ns: u64,
    /// Verified work completed inside `busy_ns` (ops; tuples on
    /// `capture-spill`).
    pub units: u64,
}

impl Recorder {
    /// Adds `wall_ns` to the timed wall.
    pub fn busy(&mut self, wall_ns: u64) {
        self.busy_ns += wall_ns;
    }

    /// One completed op of `class`: `ok` is the oracle's verdict.
    pub fn op(&mut self, class: &'static str, wall_ns: u64, ok: bool) {
        self.attempted += 1;
        if ok {
            self.classes.entry(class).or_default().push(wall_ns);
            self.since_reference.entry(class).or_default().push(wall_ns);
        } else {
            self.failed += 1;
        }
    }

    /// A sequential op: its wall is timed wall, and it is one unit.
    pub fn sequential_op(&mut self, class: &'static str, wall_ns: u64, ok: bool) {
        self.op(class, wall_ns, ok);
        self.busy(wall_ns);
        self.units += u64::from(ok);
    }

    /// One reference run taken right after ops of `class`: pairs it with
    /// the median of the ops recorded since the class's last reference.
    pub fn reference(&mut self, class: &'static str, wall_ns: u64) {
        let Some(ops) = self.since_reference.get_mut(class) else {
            return;
        };
        if let Some(op) = stats::quantile(ops, 0.5, 1).filter(|_| wall_ns > 0) {
            self.ratios
                .entry(class)
                .or_default()
                .push(op as f64 / wall_ns as f64);
        }
        ops.clear();
    }

    pub fn samples(&self) -> usize {
        self.classes.values().map(Vec::len).sum()
    }

    /// Exact median of each class's samples, weighted by the class's
    /// share of the samples; with one class, the exact median.
    pub fn typical_op_ns(&mut self) -> Option<f64> {
        let total = self.samples();
        if total == 0 {
            return None;
        }
        let mut typical = 0.0;
        for samples in self.classes.values_mut() {
            let median = stats::quantile(samples, 0.5, 1)? as f64;
            typical += median * samples.len() as f64 / total as f64;
        }
        Some(typical)
    }

    /// Exact 90th percentile of every sample divided by its class
    /// median, times the typical op: the tail of an op relative to its
    /// class, over all samples. Refused below a hundred samples.
    pub fn tail_op_ns(&mut self) -> Option<f64> {
        let typical = self.typical_op_ns()?;
        let mut relative: Vec<u64> = Vec::with_capacity(self.samples());
        for samples in self.classes.values_mut() {
            let median = stats::quantile(samples, 0.5, 1)?.max(1);
            // Parts per million of the class median keeps the exact
            // integer quantile picker.
            relative.extend(
                samples
                    .iter()
                    .map(|&s| s.saturating_mul(1_000_000) / median),
            );
        }
        let p90 = stats::quantile(&mut relative, 0.9, P90_MIN_SAMPLES)?;
        Some(typical * p90 as f64 / 1e6)
    }

    /// Geometric mean over the op classes of the median ratio of an op
    /// to the reference run taken right after it. The two sides of every
    /// ratio come out of the same fraction of a second of the same host,
    /// which is what makes this number repeat where a time does not.
    pub fn overhead_x(&self) -> Option<f64> {
        let mut log_sum = 0.0;
        for ratios in self.ratios.values() {
            log_sum += stats::median_f64(ratios).filter(|r| *r > 0.0)?.ln();
        }
        (!self.ratios.is_empty()).then(|| (log_sum / self.ratios.len() as f64).exp())
    }

    pub fn ops_per_s(&self) -> Option<f64> {
        (self.busy_ns > 0 && self.units > 0).then(|| self.units as f64 * 1e9 / self.busy_ns as f64)
    }
}

/// What a run of any workload needs from outside.
pub struct Ctx<'a> {
    pub host: &'a Host,
    pub seed: u64,
    pub scratch: &'a fixture::Scratch,
}

impl Ctx<'_> {
    /// The context of the `i`-th instance: its own seed.
    fn instance(&self, i: usize) -> Ctx<'_> {
        Ctx {
            host: self.host,
            seed: fixture::derive(self.seed, &format!("instance-{i}")),
            scratch: self.scratch,
        }
    }
}

/// One of the seven workloads.
pub trait Workload: Sized {
    /// Builds the fixture: everything before the timed region that a
    /// user would also pay (graph, capture, spool, service start).
    fn setup(ctx: &Ctx) -> Self;

    /// Computes the oracles. Not part of `setup_s`: a user does not pay
    /// for the benchmark's checking.
    fn prepare(&mut self, ctx: &Ctx);

    /// One rotation: every op class once, or one block of requests.
    /// Records samples in `rec`, spans in `tr` and, when `tr` is
    /// recording, per-layer counts in `acc`.
    fn rotation(&mut self, ctx: &Ctx, tr: &mut Tracer, rec: &mut Recorder, acc: &mut Acc);

    /// A phase of rotations begins; it may use `share` of whatever the
    /// workload rations per run.
    fn start_phase(&mut self, _share: f64) {}

    /// Whether the phase must end early (the serve workloads ration
    /// requests, to stay clear of ephemeral-port exhaustion).
    fn exhausted(&self) -> bool {
        false
    }

    /// Traced run only: probes of single layers, and the metrics that
    /// are not a span mean or an accumulated count.
    fn layers(&mut self, ctx: &Ctx, tr: &mut Tracer, acc: &mut Acc, out: &mut Metrics);
}

/// [`INSTANCES`] instances of `W`, one rotation each in turn.
pub struct Multi<W> {
    instances: Vec<W>,
    next: usize,
}

impl<W: Workload> Workload for Multi<W> {
    fn setup(ctx: &Ctx) -> Self {
        Multi {
            instances: (0..INSTANCES).map(|i| W::setup(&ctx.instance(i))).collect(),
            next: 0,
        }
    }

    fn prepare(&mut self, ctx: &Ctx) {
        for (i, w) in self.instances.iter_mut().enumerate() {
            w.prepare(&ctx.instance(i));
        }
    }

    fn rotation(&mut self, ctx: &Ctx, tr: &mut Tracer, rec: &mut Recorder, acc: &mut Acc) {
        let i = self.next;
        self.next = (i + 1) % self.instances.len();
        self.instances[i].rotation(&ctx.instance(i), tr, rec, acc);
    }

    fn start_phase(&mut self, share: f64) {
        for w in &mut self.instances {
            w.start_phase(share / INSTANCES as f64);
        }
    }

    fn exhausted(&self) -> bool {
        self.instances.iter().any(W::exhausted)
    }

    /// The probes run on the first instance; the counts accumulated over
    /// the traced phase are of all of them.
    fn layers(&mut self, ctx: &Ctx, tr: &mut Tracer, acc: &mut Acc, out: &mut Metrics) {
        self.instances[0].layers(&ctx.instance(0), tr, acc, out);
    }
}

/// The result line of one run.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub trace: bool,
}

impl Outcome {
    /// The line the driver reads: exactly `correct`, `attempted`,
    /// `failed`, `metrics`, the metrics in registry order.
    pub fn to_json(&self) -> String {
        let defs = if self.trace {
            &PER_LAYER[..]
        } else {
            &END_TO_END[..]
        };
        let metrics: Vec<String> = defs
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json::num(self.metrics.get(m.name).copied().unwrap_or(0.0)),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn rotate_for<W: Workload>(
    w: &mut W,
    ctx: &Ctx,
    tr: &mut Tracer,
    rec: &mut Recorder,
    acc: &mut Acc,
    seconds: f64,
) {
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    loop {
        w.rotation(ctx, tr, rec, acc);
        if w.exhausted() || start.elapsed() >= deadline {
            return;
        }
    }
}

/// `ops_per_s`, `op_p50_ms` and, with a hundred samples, `op_p90_ms` of
/// an untraced phase.
fn timing_metrics(name: &str, rec: &mut Recorder, out: &mut Metrics) {
    let samples = rec.samples();
    out.insert("ops_per_s", rec.ops_per_s().unwrap_or(0.0));
    out.insert("op_p50_ms", rec.typical_op_ns().unwrap_or(0.0) / 1e6);
    match rec.tail_op_ns() {
        Some(p90) => {
            out.insert("op_p90_ms", p90 / 1e6);
        }
        None => eprintln!(
            "{name}: op_p90_ms refused: {samples} samples, {P90_MIN_SAMPLES} needed; reported as 0"
        ),
    }
    eprintln!(
        "{name}: {samples} samples: ops_per_s {:.3}, op_p50_ms {:.4}, op_p90_ms {:.4}; {} attempted, {} failed",
        out["ops_per_s"],
        out["op_p50_ms"],
        out.get("op_p90_ms").copied().unwrap_or(0.0),
        rec.attempted,
        rec.failed
    );
}

/// Runs workload `W` once: set-ups, oracles, then a timing run or a
/// traced run of `seconds`.
pub fn run<W: Workload>(
    name: &'static str,
    ctx: &Ctx,
    seconds: f64,
    traced: bool,
) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(MAX_SETUP_REPS);
    let mut workload: Option<Multi<W>> = None;
    while setups.len() < MIN_SETUP_REPS
        || (setups.len() < MAX_SETUP_REPS && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        // Tear the previous fixture down first: two live services or
        // spools would not be what one set-up costs.
        drop(workload.take());
        let start = Instant::now();
        workload = Some(Multi::setup(ctx));
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("MIN_SETUP_REPS > 0");
    let start = Instant::now();
    w.prepare(ctx);
    eprintln!(
        "{name}: {} set-ups of {INSTANCES} instances, median {:.4} s; oracles {:.3} s",
        setups.len(),
        stats::median_f64(&setups).unwrap_or(0.0),
        start.elapsed().as_secs_f64()
    );

    let mut tr = Tracer::new(false, Instant::now());
    let mut acc = Acc::default();
    let mut metrics = Metrics::new();
    let mut rec = Recorder::default();

    if !traced {
        w.start_phase(TIMING_RATION);
        rotate_for(&mut w, ctx, &mut tr, &mut rec, &mut acc, seconds);
        let need = |m: Option<f64>, what: &str| {
            m.filter(|v| v.is_finite() && *v > 0.0)
                .ok_or_else(|| format!("{name}: {what} could not be measured"))
        };
        // Printed for the reader; the result line carries the three
        // metrics that repeat on a noisy host.
        timing_metrics(name, &mut rec, &mut Metrics::new());
        metrics.insert("setup_s", need(stats::median_f64(&setups), "setup_s")?);
        metrics.insert("overhead_x", need(rec.overhead_x(), "overhead_x")?);
        metrics.insert("peak_rss_mb", need(host::peak_rss_mb(), "peak_rss_mb")?);
        return Ok(Outcome {
            correct: rec.failed == 0,
            attempted: rec.attempted.max(1),
            failed: rec.failed,
            metrics,
            trace: false,
        });
    }

    // Traced run: the same rotations untraced, then traced, so the cost
    // of tracing is a measured ratio; then the single-layer probes.
    let mut reference = Recorder::default();
    w.start_phase(TRACE_PHASE_RATION);
    rotate_for(
        &mut w,
        ctx,
        &mut tr,
        &mut reference,
        &mut acc,
        seconds * TRACE_REFERENCE_SHARE,
    );
    timing_metrics(name, &mut reference, &mut metrics);
    tr.set_enabled(true);
    w.start_phase(TRACE_PHASE_RATION);
    rotate_for(
        &mut w,
        ctx,
        &mut tr,
        &mut rec,
        &mut acc,
        seconds * TRACE_TRACED_SHARE,
    );
    let ledger = Ledger::build(tr.spans());
    w.layers(ctx, &mut tr, &mut acc, &mut metrics);
    tr.set_enabled(false);

    // Allocation counts come from one more rotation, counted but not
    // timed: its spans and samples are thrown away.
    let mut counted_acc = Acc::default();
    let mut counted_tr = Tracer::new(true, tr.epoch());
    trace::count_allocs(true);
    w.start_phase(ALLOC_PHASE_RATION);
    w.rotation(
        ctx,
        &mut counted_tr,
        &mut Recorder::default(),
        &mut counted_acc,
    );
    trace::count_allocs(false);
    for name in [
        "vc.alloc_calls",
        "capture.alloc_calls",
        "online.alloc_calls",
        "layered.alloc_calls",
        "layered.alloc_bytes",
    ] {
        metrics.insert(name, counted_acc.mean(name));
    }

    // Every span whose name + "_ns" is a registered metric reports its
    // mean duration; every accumulated count its mean per call.
    let all = Ledger::build(tr.spans());
    for def in &PER_LAYER {
        if let Some(span) = def.name.strip_suffix("_ns") {
            if all.rows.contains_key(span) {
                metrics.entry(def.name).or_insert(all.mean_ns(span));
            }
        }
    }
    for (name, value) in acc.means() {
        metrics.entry(name).or_insert(value);
    }
    let attempted = rec.attempted + reference.attempted;
    let failed = rec.failed + reference.failed;
    metrics.insert("fail_ratio", failed as f64 / attempted.max(1) as f64);
    let overhead = match (rec.typical_op_ns(), reference.typical_op_ns()) {
        (Some(t), Some(r)) if r > 0.0 => t / r,
        _ => return Err(format!("{name}: no samples for bench.trace_overhead_ratio")),
    };
    metrics.insert("bench.trace_overhead_ratio", overhead);
    metrics.insert("bench.ledger_residual_ratio", ledger.residual_ratio());

    eprint!("{}", ledger.render(name));
    let trusted = ledger.residual_ratio() <= registry::MAX_LEDGER_RESIDUAL
        && overhead <= registry::MAX_TRACE_OVERHEAD;
    eprintln!(
        "{name}: traced run {}: ledger residual {:.4} (limit {}), trace overhead {:.4} (limit {})",
        if trusted { "trusted" } else { "UNTRUSTED" },
        ledger.residual_ratio(),
        registry::MAX_LEDGER_RESIDUAL,
        overhead,
        registry::MAX_TRACE_OVERHEAD
    );
    let dir = fixture::output_dir();
    std::fs::create_dir_all(&dir)
        .and_then(|()| {
            std::fs::write(
                dir.join(format!("trace-{name}.jsonl")),
                trace::spans_jsonl(tr.spans(), name),
            )
        })
        .map_err(|e| format!("{name}: cannot write the trace: {e}"))?;

    Ok(Outcome {
        correct: failed == 0,
        attempted: attempted.max(1),
        failed,
        metrics,
        trace: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typical_op_weights_class_medians_by_share() {
        let mut rec = Recorder::default();
        for ns in [10, 20, 30] {
            rec.sequential_op("fast", ns, true);
        }
        rec.sequential_op("slow", 1000, true);
        rec.sequential_op("slow", 9999, false); // failed ops leave no sample
        assert_eq!(rec.samples(), 4);
        assert_eq!((rec.attempted, rec.failed, rec.units), (5, 1, 4));
        assert_eq!(rec.typical_op_ns(), Some(20.0 * 0.75 + 1000.0 * 0.25));
        assert_eq!(rec.tail_op_ns(), None, "four samples are no p90");
        assert_eq!(rec.ops_per_s(), Some(4.0 * 1e9 / (60.0 + 1000.0 + 9999.0)));
    }

    #[test]
    fn tail_is_relative_to_each_class_median() {
        let mut rec = Recorder::default();
        // Two classes, 100 samples each, each spread 1x..2x its median/1.5.
        for i in 0..100u64 {
            rec.sequential_op("a", 1_000 + 10 * i, true);
            rec.sequential_op("b", 100_000 + 1_000 * i, true);
        }
        let typical = rec.typical_op_ns().unwrap();
        assert_eq!(typical, 0.5 * 1_490.0 + 0.5 * 149_000.0);
        let tail = rec.tail_op_ns().unwrap();
        // Both classes have the same shape, so the pooled relative p90 is
        // one class's p90 over its median: 1890/1490.
        let expect = typical * (1_890.0 / 1_490.0);
        assert!((tail - expect).abs() / expect < 1e-3, "{tail} vs {expect}");
    }

    #[test]
    fn overhead_is_a_geometric_mean_of_class_ratios() {
        let mut rec = Recorder::default();
        for (class, op, base) in [("pagerank", 400, 100), ("sssp", 90, 10)] {
            for jitter in [0, 1, 2] {
                rec.sequential_op(class, op + jitter, true);
                rec.reference(class, base + jitter);
            }
        }
        let x = rec.overhead_x().unwrap();
        let expect = ((401.0f64 / 101.0) * (91.0 / 11.0)).sqrt();
        assert!((x - expect).abs() < 1e-12);
        assert_eq!(Recorder::default().overhead_x(), None);
        // A reference with no verified op before it pairs with nothing.
        let mut lonely = Recorder::default();
        lonely.reference("wcc", 5);
        lonely.sequential_op("wcc", 50, false);
        lonely.reference("wcc", 5);
        assert_eq!(lonely.overhead_x(), None);
        // A block of ops pairs with the one reference after it by its median.
        let mut block = Recorder::default();
        for ns in [100, 300, 200] {
            block.op("hit", ns, true);
        }
        block.reference("hit", 1000);
        assert_eq!(block.overhead_x(), Some(0.2));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut metrics = Metrics::new();
        for (i, m) in END_TO_END.iter().enumerate() {
            metrics.insert(m.name, 1.5 + i as f64);
        }
        let line = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics,
            trace: false,
        }
        .to_json();
        let doc = json::Json::parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let listed = doc.get("metrics").and_then(json::Json::as_obj).unwrap();
        assert_eq!(listed.len(), END_TO_END.len());
        assert_eq!(
            listed[0].1.get("value").and_then(json::Json::as_f64),
            Some(1.5)
        );
        assert_eq!(
            listed[0].1.get("unit").and_then(json::Json::as_str),
            Some("s")
        );
    }
}
