//! The benchmark's registry: workloads, metric names, units and bounds.
//! `BENCHMARK.json` at the root of the repository must say the same;
//! `--check` compares the two and `--list` prints this side.

use crate::json::Json;

/// Seconds one run measures when `--seconds` is not given.
pub const RUN_SECONDS: u64 = 10;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 7] = [
    WorkloadDef {
        name: "engine-baseline",
        why: "bare PageRank/SSSP/WCC on one R-MAT graph: vc + analytics do all the work, no provenance; the bypass for every store, replay and serve change",
    },
    WorkloadDef {
        name: "capture-spill",
        why: "full capture into a spilling v3 store, then compact, cold reopen and full scan: the store's write side and cold read side dominate; layered and serve idle",
    },
    WorkloadDef {
        name: "online-monitor",
        why: "the paper's headline mode: analytic and monitoring query in lockstep, core::online + per-vertex pql dominate, the store is never touched",
    },
    WorkloadDef {
        name: "replay-layered",
        why: "layered replay of apt, backward-lineage and value-check queries over one in-memory SSSP capture: core::layered inject/eval/merge + pql dominate",
    },
    WorkloadDef {
        name: "serve-http-hot",
        why: "GET /query over TCP against a warm cache (60% repeated lineage roots, 40% cursor pages): HTTP parse/serialize, cache lookup and cursor codec dominate, replay is idle",
    },
    WorkloadDef {
        name: "serve-http-churn",
        why: "same service with a cache a quarter of the working set and 256 roots: mostly misses, so compile lookup, layered replay, v3 extent reads and eviction dominate",
    },
    WorkloadDef {
        name: "mutate-epochs",
        why: "mutation batches through MutableSession: commit, incremental re-run, epoch append into a store the service holds, one cold query; writes beside reads",
    },
];

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Metrics of a timing run (`--trace 0`): every one is defined and
/// non-zero on every workload, and repeats on a host whose speed does not.
pub const END_TO_END: [MetricDef; 3] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("overhead_x", "ratio", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
];

/// Metrics of a traced run (`--trace 1`). A layer a workload leaves idle
/// reports 0 there, which is the point of a bypass workload.
pub const PER_LAYER: [MetricDef; 85] = [
    // What a user feels in absolute terms, measured with tracing off.
    // Not end-to-end metrics because on a shared 2-vCPU host the same
    // commit repeats them only to 5-25 %.
    layer("ops_per_s", "op/s", "higher"),
    layer("op_p50_ms", "ms", "lower"),
    layer("op_p90_ms", "ms", "lower"),
    // Counts a user sees, zero by design where a workload has no store
    // (so they cannot be end-to-end metrics under the contract).
    layer("fail_ratio", "ratio", "lower"),
    layer("store_bytes_per_tuple", "B", "lower"),
    layer("read_bytes_per_op", "B", "lower"),
    layer("graph.rmat_gen_ns", "ns", "lower"),
    layer("graph.csr_build_ns", "ns", "lower"),
    layer("graph.delta_commit_ns", "ns", "lower"),
    layer("graph.delta_ops", "count", "higher"),
    layer("vc.run_ns", "ns", "lower"),
    layer("vc.phase_compute_ns", "ns", "lower"),
    layer("vc.phase_combine_ns", "ns", "lower"),
    layer("vc.phase_scatter_ns", "ns", "lower"),
    layer("vc.phase_barrier_ns", "ns", "lower"),
    layer("vc.supersteps", "count", "lower"),
    layer("vc.messages", "count", "lower"),
    layer("vc.message_bytes", "B", "lower"),
    layer("vc.peak_buffered_bytes", "B", "lower"),
    layer("vc.alloc_calls", "count", "lower"),
    layer("vc.t1_run_ns", "ns", "lower"),
    layer("vc.scaling_t2_over_t1", "ratio", "higher"),
    layer("vc.incremental_run_ns", "ns", "lower"),
    layer("vc.reset_vertices", "count", "lower"),
    layer("vc.activated_vertices", "count", "lower"),
    layer("capture.run_ns", "ns", "lower"),
    layer("capture.tuples", "count", "higher"),
    layer("capture.alloc_calls", "count", "lower"),
    layer("provenance.ingest_ns", "ns", "lower"),
    layer("provenance.store_bytes", "B", "lower"),
    layer("provenance.spills", "count", "lower"),
    layer("provenance.segments", "count", "lower"),
    layer("provenance.compact_ns", "ns", "lower"),
    layer("provenance.compact_bytes_in", "B", "lower"),
    layer("provenance.compact_bytes_out", "B", "lower"),
    layer("provenance.write_amp", "ratio", "lower"),
    layer("provenance.resume_ns", "ns", "lower"),
    layer("provenance.scan_ns", "ns", "lower"),
    layer("provenance.layer_read_ns", "ns", "lower"),
    layer("provenance.segments_read", "count", "lower"),
    layer("provenance.segments_skipped", "count", "higher"),
    layer("provenance.col_bytes_skipped", "B", "higher"),
    layer("provenance.skip_ratio", "ratio", "higher"),
    layer("provenance.epoch_append_ns", "ns", "lower"),
    layer("provenance.epoch_bytes_appended", "B", "lower"),
    layer("provenance.epoch_cold_bytes", "B", "lower"),
    layer("provenance.epoch_carried", "count", "higher"),
    layer("provenance.epoch_replaced", "count", "lower"),
    layer("pql.compile_ns", "ns", "lower"),
    layer("pql.centralized_eval_ns", "ns", "lower"),
    layer("pql.rule_firings", "count", "lower"),
    layer("pql.derived_tuples", "count", "lower"),
    layer("pql.delta_tuples", "count", "lower"),
    layer("pql.fixpoint_rounds", "count", "lower"),
    layer("pql.scratch_reuse_ratio", "ratio", "higher"),
    layer("online.run_ns", "ns", "lower"),
    layer("online.query_rows", "count", "higher"),
    layer("online.alloc_calls", "count", "lower"),
    layer("layered.run_ns", "ns", "lower"),
    layer("layered.phase_inject_ns", "ns", "lower"),
    layer("layered.phase_eval_ns", "ns", "lower"),
    layer("layered.phase_merge_ns", "ns", "lower"),
    layer("layered.layers", "count", "lower"),
    layer("layered.flush_rounds", "count", "lower"),
    layer("layered.shipped_tuples", "count", "lower"),
    layer("layered.injected_tuples", "count", "lower"),
    layer("layered.evaluated_vertices", "count", "lower"),
    layer("layered.rows_per_injected", "ratio", "higher"),
    layer("layered.alloc_calls", "count", "lower"),
    layer("layered.alloc_bytes", "B", "lower"),
    layer("serve.execute_hit_ns", "ns", "lower"),
    layer("serve.execute_miss_ns", "ns", "lower"),
    layer("serve.execute_page_ns", "ns", "lower"),
    layer("serve.http_overhead_ns", "ns", "lower"),
    layer("serve.cache_hit_ratio", "ratio", "higher"),
    layer("serve.cache_evictions", "count", "lower"),
    layer("serve.cursor_codec_ns", "ns", "lower"),
    layer("serve.response_bytes", "B", "lower"),
    layer("serve.rejects", "count", "lower"),
    layer("serve.append_epoch_ns", "ns", "lower"),
    layer("obs.http_floor_ns", "ns", "lower"),
    layer("obs.metrics_scrape_ns", "ns", "lower"),
    layer("obs.metrics_bytes", "B", "lower"),
    layer("bench.trace_overhead_ratio", "ratio", "lower"),
    layer("bench.ledger_residual_ratio", "ratio", "lower"),
];

/// The traced run is trusted only within these.
pub const MAX_LEDGER_RESIDUAL: f64 = 0.05;
pub const MAX_TRACE_OVERHEAD: f64 = 1.10;

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The registry as text (`--list`).
pub fn list() -> String {
    use std::fmt::Write as _;
    let mut out = format!("run_seconds {RUN_SECONDS}\nworkloads\n");
    for w in &WORKLOADS {
        let _ = writeln!(out, "  {:<18} {}", w.name, w.why);
    }
    for (title, metrics) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let _ = writeln!(out, "{title}");
        for m in metrics {
            let bound = m.bound.map_or(String::new(), |b| format!("  bound {b}"));
            let _ = writeln!(
                out,
                "  {:<34} {:<6} better {}{bound}",
                m.name, m.unit, m.better
            );
        }
    }
    out
}

fn check_metrics(section: &str, listed: Option<&Json>, ours: &[MetricDef], errs: &mut Vec<String>) {
    let Some(listed) = listed.and_then(Json::as_arr) else {
        errs.push(format!("{section}: missing or not an array"));
        return;
    };
    let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
    if listed.len() != ours.len() {
        errs.push(format!(
            "{section}: BENCHMARK.json lists {} metrics, the binary {}",
            listed.len(),
            ours.len()
        ));
    }
    for (theirs, ours) in listed.iter().zip(ours) {
        let name = field(theirs, "name");
        if name != ours.name {
            errs.push(format!(
                "{section}: {name:?} where the binary has {:?}",
                ours.name
            ));
            continue;
        }
        if field(theirs, "unit") != ours.unit {
            errs.push(format!(
                "{section}.{name}: unit {:?} != {:?}",
                field(theirs, "unit"),
                ours.unit
            ));
        }
        if field(theirs, "better") != ours.better {
            errs.push(format!(
                "{section}.{name}: better {:?} != {:?}",
                field(theirs, "better"),
                ours.better
            ));
        }
        let bound = theirs.get("bound").and_then(Json::as_f64);
        if bound != ours.bound {
            errs.push(format!(
                "{section}.{name}: bound {bound:?} != {:?}",
                ours.bound
            ));
        }
    }
}

/// Every way `BENCHMARK.json` (as text) differs from the registry.
pub fn check(benchmark_json: &str) -> Vec<String> {
    let mut errs = Vec::new();
    for name in WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
    {
        if !name_ok(name) {
            errs.push(format!("registry name {name:?} leaves [A-Za-z0-9_.-]"));
        }
    }
    let doc = match Json::parse(benchmark_json) {
        Ok(doc) => doc,
        Err(e) => return vec![format!("BENCHMARK.json does not parse: {e}")],
    };
    if doc.get("run_seconds").and_then(Json::as_f64) != Some(RUN_SECONDS as f64) {
        errs.push(format!("run_seconds is not {RUN_SECONDS}"));
    }
    match doc.get("workloads").and_then(Json::as_arr) {
        None => errs.push("workloads: missing or not an array".into()),
        Some(listed) => {
            let theirs: Vec<(&str, &str)> = listed
                .iter()
                .map(|w| {
                    (
                        w.get("name").and_then(Json::as_str).unwrap_or(""),
                        w.get("why").and_then(Json::as_str).unwrap_or(""),
                    )
                })
                .collect();
            let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
            if theirs != ours {
                errs.push(format!(
                    "workloads differ: BENCHMARK.json has {:?}, the binary {:?}",
                    theirs.iter().map(|w| w.0).collect::<Vec<_>>(),
                    ours.iter().map(|w| w.0).collect::<Vec<_>>()
                ));
            }
        }
    }
    check_metrics("end_to_end", doc.get("end_to_end"), &END_TO_END, &mut errs);
    check_metrics("per_layer", doc.get("per_layer"), &PER_LAYER, &mut errs);
    errs
}

/// `BENCHMARK.json` as the registry defines it.
pub fn benchmark_json(command: &[&str], paths: &[&str]) -> String {
    use std::fmt::Write as _;
    let strings = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"command\": [{}],", strings(command));
    let _ = writeln!(out, "  \"paths\": [{}],", strings(paths));
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better,
            m.bound.unwrap_or(0.0)
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name, m.unit, m.better
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_benchmark_json_passes_its_own_check() {
        let text = benchmark_json(&["cargo", "run"], &["benchmark"]);
        assert_eq!(check(&text), Vec::<String>::new());
    }

    #[test]
    fn check_reports_each_kind_of_drift() {
        let good = benchmark_json(&["x"], &["benchmark"]);
        let errs = check(&good.replacen("\"bound\": 0.25", "\"bound\": 0.2", 1));
        assert!(
            errs.iter()
                .any(|e| e.contains("setup_s") && e.contains("bound")),
            "{errs:?}"
        );
        let errs = check(&good.replace("\"unit\": \"op/s\"", "\"unit\": \"1/s\""));
        assert!(
            errs.iter()
                .any(|e| e.contains("ops_per_s") && e.contains("unit")),
            "{errs:?}"
        );
        let errs = check(&good.replace(
            "\"better\": \"lower\", \"bound\"",
            "\"better\": \"higher\", \"bound\"",
        ));
        assert!(
            errs.iter()
                .any(|e| e.contains("end_to_end") && e.contains("better")),
            "{errs:?}"
        );
        let errs = check(&good.replace("\"name\": \"mutate-epochs\"", "\"name\": \"mutate\""));
        assert!(
            errs.iter().any(|e| e.contains("workloads differ")),
            "{errs:?}"
        );
        let errs = check(&good.replace("\"name\": \"vc.run_ns\"", "\"name\": \"vc.run\""));
        assert!(errs.iter().any(|e| e.contains("per_layer")), "{errs:?}");
        assert!(!check("not json").is_empty());
    }

    #[test]
    fn names_stay_inside_the_contract_alphabet() {
        assert!(name_ok("serve-http-hot") && name_ok("vc.run_ns") && name_ok("9lives"));
        assert!(!name_ok("") && !name_ok(".hidden") && !name_ok("a b") && !name_ok("op/s"));
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }
}
