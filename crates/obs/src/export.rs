//! Exporters: Prometheus-style text exposition for the metric registry
//! and a JSONL dump for the trace ring. Both formats are documented in
//! the repository's `EXPERIMENTS.md` (§ "Observability output formats").

use crate::metrics::{MetricsSnapshot, SampleValue};
use crate::trace::{Event, Value};
use std::borrow::Cow;
use std::fmt::Write as _;

/// Render a registry snapshot in the Prometheus text exposition format
/// (version 0.0.4 subset):
///
/// ```text
/// # HELP engine_messages_sent_total messages sent
/// # TYPE engine_messages_sent_total counter
/// engine_messages_sent_total 42
/// ```
///
/// Every metric additionally carries a
/// `# ARIADNE deterministic <name> <true|false>` comment line so
/// downstream tooling can select the thread-invariant subset without a
/// side table. Histograms emit cumulative `_bucket{le="..."}` series
/// plus `_sum` and `_count`, with `le="+Inf"` last, followed by
/// interpolated `{quantile="..."}` series (p50/p90/p99, summary-style)
/// computed server-side from the power-of-two buckets — scrape
/// consumers get latency percentiles without PromQL.
pub fn prometheus_text(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for s in &snapshot.samples {
        let _ = writeln!(out, "# HELP {} {}", s.name, s.help);
        let _ = writeln!(out, "# TYPE {} {}", s.name, s.kind.as_str());
        let _ = writeln!(
            out,
            "# ARIADNE deterministic {} {}",
            s.name, s.deterministic
        );
        match &s.value {
            SampleValue::Counter(v) => {
                let _ = writeln!(out, "{} {}", s.name, v);
            }
            SampleValue::Gauge(v) => {
                let _ = writeln!(out, "{} {}", s.name, v);
            }
            SampleValue::Histogram(h) => {
                for (bound, cumulative) in &h.buckets {
                    if *bound == u64::MAX {
                        let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {}", s.name, cumulative);
                    } else {
                        let _ =
                            writeln!(out, "{}_bucket{{le=\"{}\"}} {}", s.name, bound, cumulative);
                    }
                }
                let _ = writeln!(out, "{}_sum {}", s.name, h.sum);
                let _ = writeln!(out, "{}_count {}", s.name, h.count);
                for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99)] {
                    if let Some(v) = h.quantile(q) {
                        let _ = writeln!(out, "{}{{quantile=\"{}\"}} {}", s.name, label, v);
                    }
                }
            }
        }
    }
    out
}

/// Render captured events as JSON Lines: one object per event, keys in
/// fixed order (`seq`, `ts_ns`, `level`, `target`, `name`, `trace_id`,
/// `span_id`, `parent_id`, `fields`), `fields` an object preserving
/// field order. The three id keys encode the span tree (zero means
/// "none"; see [`crate::trace::SpanContext`]). Floats use Rust's default
/// `{}` formatting; non-finite floats are emitted as `null`.
pub fn trace_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for ev in events {
        let _ = write!(
            out,
            "{{\"seq\":{},\"ts_ns\":{},\"level\":\"{}\",\"target\":\"{}\",\"name\":\"{}\",\"trace_id\":{},\"span_id\":{},\"parent_id\":{},\"fields\":{{",
            ev.seq,
            ev.ts_ns,
            ev.level.as_str(),
            escape(ev.target),
            escape(ev.name),
            ev.trace_id,
            ev.span_id,
            ev.parent_id,
        );
        for (i, (k, v)) in ev.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":", escape(k));
            write_value(&mut out, v);
        }
        out.push_str("}}\n");
    }
    out
}

fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::I64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F64(f) => {
            if f.is_finite() {
                let _ = write!(out, "{f}");
            } else {
                out.push_str("null");
            }
        }
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Value::Str(s) => {
            out.push('"');
            out.push_str(&escape(s));
            out.push('"');
        }
    }
}

/// Escape `s` for use inside a JSON string literal (quotes, backslash,
/// control chars; no surrounding quotes). The one escaper every
/// hand-rolled JSON writer in the workspace shares; borrows `s` when
/// nothing needs escaping.
pub fn escape(s: &str) -> Cow<'_, str> {
    if !s
        .chars()
        .any(|c| matches!(c, '"' | '\\') || (c as u32) < 0x20)
    {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    Cow::Owned(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;
    use crate::trace::Level;

    #[test]
    fn prometheus_counter_gauge_exposition() {
        let reg = Registry::new();
        reg.counter("e_msgs_total", "messages", true).add(7);
        reg.gauge("e_mem_bytes", "memory", false).set(-3);
        let text = prometheus_text(&reg.snapshot());
        assert!(text.contains("# HELP e_msgs_total messages\n"));
        assert!(text.contains("# TYPE e_msgs_total counter\n"));
        assert!(text.contains("# ARIADNE deterministic e_msgs_total true\n"));
        assert!(text.contains("\ne_msgs_total 7\n"));
        assert!(text.contains("# TYPE e_mem_bytes gauge\n"));
        assert!(text.contains("\ne_mem_bytes -3\n"));
    }

    #[test]
    fn prometheus_histogram_exposition() {
        let reg = Registry::new();
        let h = reg.histogram("e_lat_ns", "latency", false);
        h.record(1);
        h.record(100);
        let text = prometheus_text(&reg.snapshot());
        assert!(text.contains("e_lat_ns_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("e_lat_ns_bucket{le=\"127\"} 2\n"));
        assert!(text.contains("e_lat_ns_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("e_lat_ns_sum 101\n"));
        assert!(text.contains("e_lat_ns_count 2\n"));
        // Interpolated quantile series follow _count.
        assert!(text.contains("e_lat_ns{quantile=\"0.5\"} 1\n"));
        assert!(text.contains("e_lat_ns{quantile=\"0.9\"}"));
        assert!(text.contains("e_lat_ns{quantile=\"0.99\"}"));
    }

    #[test]
    fn prometheus_empty_histogram_has_no_quantiles() {
        let reg = Registry::new();
        let _ = reg.histogram("e_idle_ns", "latency", false);
        let text = prometheus_text(&reg.snapshot());
        assert!(text.contains("e_idle_ns_count 0\n"));
        assert!(!text.contains("quantile="));
    }

    #[test]
    fn jsonl_escapes_and_orders() {
        let ev = Event {
            seq: 3,
            ts_ns: 99,
            level: Level::Warn,
            target: "store",
            name: "spill",
            trace_id: 7,
            span_id: 0,
            parent_id: 7,
            fields: vec![
                ("bytes", Value::U64(1024)),
                ("path", Value::Str("a\"b\\c\n".into())),
                ("ok", Value::Bool(true)),
                ("delta", Value::I64(-2)),
                ("ratio", Value::F64(0.5)),
                ("nan", Value::F64(f64::NAN)),
            ],
        };
        let line = trace_jsonl(&[ev]);
        assert_eq!(
            line,
            "{\"seq\":3,\"ts_ns\":99,\"level\":\"warn\",\"target\":\"store\",\"name\":\"spill\",\"trace_id\":7,\"span_id\":0,\"parent_id\":7,\"fields\":{\"bytes\":1024,\"path\":\"a\\\"b\\\\c\\n\",\"ok\":true,\"delta\":-2,\"ratio\":0.5,\"nan\":null}}\n"
        );
    }
}
