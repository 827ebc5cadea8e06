//! Figures 7–12 of the paper: runtime overheads of capture and of the
//! three query evaluation modes, optimization speedups, and backward
//! tracing costs.

use crate::workloads::{CrawlWorkload, Workloads};
use ariadne::custom::AlsProv;
use ariadne::optimize::{apt_report, AptReport};
use ariadne::queries;
use ariadne::session::{AriadneError, RunOptions};
use ariadne::{CaptureSpec, CompiledQuery};
use ariadne_analytics::als::{Als, AlsConfig};
use ariadne_analytics::pagerank::DeltaPageRank;
use ariadne_analytics::{ApproxSssp, ApproxWcc, Wcc};
use ariadne_graph::{Csr, VertexId};
use ariadne_pql::Value;
use ariadne_provenance::{ProvEncode, ProvStore};
use ariadne_vc::VertexProgram;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One row of Figure 7 (capture runtime overheads).
#[derive(Clone, Debug)]
pub struct CaptureRow {
    /// Dataset name.
    pub dataset: &'static str,
    /// Analytic name.
    pub analytic: &'static str,
    /// Bare analytic runtime T.
    pub baseline: Duration,
    /// Full capture (Query 2) runtime / T.
    pub full_ratio: f64,
    /// Custom capture (Query 3) runtime / T.
    pub custom_ratio: f64,
}

/// Figure 7: full vs custom capture overhead for each analytic/dataset.
pub fn fig7(w: &Workloads) -> Vec<CaptureRow> {
    let mut rows = Vec::new();
    for c in &w.crawls {
        let hub = c.graph.max_out_degree_vertex().unwrap();
        rows.push(capture_row(w, c, "PageRank", &w.pagerank(), &c.graph, hub));
        rows.push(capture_row(w, c, "SSSP", &w.sssp(c), &c.weighted, c.source));
        rows.push(capture_row(w, c, "WCC", &w.wcc(), &c.graph, hub));
    }
    rows
}

fn capture_row<A>(
    w: &Workloads,
    c: &CrawlWorkload,
    name: &'static str,
    analytic: &A,
    graph: &Csr,
    lineage_seed: VertexId,
) -> CaptureRow
where
    A: VertexProgram,
    A::V: ProvEncode,
    A::M: ProvEncode,
{
    let baseline = w.ariadne.baseline(analytic, graph).metrics.elapsed;
    let full = w
        .ariadne
        .capture(analytic, graph, &CaptureSpec::full())
        .unwrap()
        .metrics
        .elapsed;
    let custom_spec = queries::capture_forward_lineage(lineage_seed).unwrap();
    let custom = w
        .ariadne
        .capture(analytic, graph, &custom_spec)
        .unwrap()
        .metrics
        .elapsed;
    CaptureRow {
        dataset: c.dataset.name(),
        analytic: name,
        baseline,
        full_ratio: ratio(full, baseline),
        custom_ratio: ratio(custom, baseline),
    }
}

/// One row comparing the three evaluation modes against the baseline.
#[derive(Clone, Debug)]
pub struct ModeRow {
    /// Dataset name.
    pub dataset: &'static str,
    /// Analytic name.
    pub analytic: &'static str,
    /// Query label (e.g. "Q4").
    pub query: &'static str,
    /// Bare analytic runtime T.
    pub baseline: Duration,
    /// Online runtime / T.
    pub online_ratio: f64,
    /// Layered offline runtime / T (capture excluded, as in §6.2).
    pub layered_ratio: f64,
    /// Naive offline runtime / T; `None` when the materialization budget
    /// was exceeded (the paper's "Naive was not able to scale").
    pub naive_ratio: Option<f64>,
}

#[allow(clippy::too_many_arguments)]
fn mode_row<A>(
    w: &Workloads,
    dataset: &'static str,
    analytic_name: &'static str,
    query_name: &'static str,
    analytic: &A,
    graph: &Csr,
    query: &CompiledQuery,
    store: &ProvStore,
    baseline: Duration,
) -> ModeRow
where
    A: VertexProgram,
    A::V: ProvEncode,
    A::M: ProvEncode,
{
    let online = w
        .ariadne
        .online(analytic, graph, query)
        .unwrap()
        .metrics
        .elapsed;
    let t0 = Instant::now();
    w.ariadne.layered(graph, store, query).unwrap();
    let layered = t0.elapsed();
    let t0 = Instant::now();
    let naive = match w.ariadne.naive(graph, store, query) {
        Ok(_) => Some(ratio(t0.elapsed(), baseline)),
        Err(AriadneError::NaiveOverflow { .. }) => None,
        Err(e) => panic!("naive evaluation failed: {e}"),
    };
    ModeRow {
        dataset,
        analytic: analytic_name,
        query: query_name,
        baseline,
        online_ratio: ratio(online, baseline),
        layered_ratio: ratio(layered, baseline),
        naive_ratio: naive,
    }
}

/// Figure 8: execution-monitoring queries (4, 5, 6) in all three modes.
pub fn fig8(w: &Workloads) -> Vec<ModeRow> {
    let q4 = queries::pagerank_check().unwrap();
    let q5 = queries::sssp_wcc_value_check().unwrap();
    let q6 = queries::sssp_wcc_no_message_no_change().unwrap();
    let mut rows = Vec::new();
    for c in &w.crawls {
        let name = c.dataset.name();
        // PageRank + Query 4.
        let pr = w.pagerank();
        let base = w.ariadne.baseline(&pr, &c.graph).metrics.elapsed;
        let store = w
            .ariadne
            .capture(&pr, &c.graph, &CaptureSpec::full())
            .unwrap()
            .store;
        rows.push(mode_row(
            w, name, "PageRank", "Q4", &pr, &c.graph, &q4, &store, base,
        ));
        // SSSP + Queries 5, 6.
        let ss = w.sssp(c);
        let base = w.ariadne.baseline(&ss, &c.weighted).metrics.elapsed;
        let store = w
            .ariadne
            .capture(&ss, &c.weighted, &CaptureSpec::full())
            .unwrap()
            .store;
        rows.push(mode_row(
            w,
            name,
            "SSSP",
            "Q5",
            &ss,
            &c.weighted,
            &q5,
            &store,
            base,
        ));
        rows.push(mode_row(
            w,
            name,
            "SSSP",
            "Q6",
            &ss,
            &c.weighted,
            &q6,
            &store,
            base,
        ));
        // WCC + Queries 5, 6.
        let wc = w.wcc();
        let base = w.ariadne.baseline(&wc, &c.graph).metrics.elapsed;
        let store = w
            .ariadne
            .capture(&wc, &c.graph, &CaptureSpec::full())
            .unwrap()
            .store;
        rows.push(mode_row(
            w, name, "WCC", "Q5", &wc, &c.graph, &q5, &store, base,
        ));
        rows.push(mode_row(
            w, name, "WCC", "Q6", &wc, &c.graph, &q6, &store, base,
        ));
    }
    rows
}

/// One row of Figure 9 (ALS monitoring overhead).
#[derive(Clone, Debug)]
pub struct AlsRow {
    /// Feature count (the ML-20^k variants).
    pub rank: usize,
    /// Query label ("Q7" or "Q8").
    pub query: &'static str,
    /// Bare ALS runtime.
    pub baseline: Duration,
    /// Online runtime / T.
    pub online_ratio: f64,
}

/// Figure 9: ALS Queries 7 and 8 online, across feature counts.
pub fn fig9(w: &Workloads) -> Vec<AlsRow> {
    let q7 = queries::als_range_check().unwrap();
    let q8 = queries::als_error_increase(0.5).unwrap();
    let als_prov = RunOptions {
        custom: Some(Arc::new(AlsProv)),
        ..RunOptions::default()
    };
    let mut rows = Vec::new();
    for &rank in &w.config.als_ranks {
        let mut cfg = AlsConfig::new(w.ratings.users, rank);
        cfg.supersteps = w.config.als_supersteps;
        let als = Als::new(cfg);
        let baseline = w.ariadne.baseline(&als, &w.ratings.graph).metrics.elapsed;
        for (label, q) in [("Q7", &q7), ("Q8", &q8)] {
            let online = w
                .ariadne
                .online_with(&als, &w.ratings.graph, q, &als_prov)
                .unwrap()
                .metrics
                .elapsed;
            rows.push(AlsRow {
                rank,
                query: label,
                baseline,
                online_ratio: ratio(online, baseline),
            });
        }
    }
    rows
}

/// One row of Figure 10 (optimized-analytic speedup).
#[derive(Clone, Debug)]
pub struct SpeedupRow {
    /// Dataset name.
    pub dataset: &'static str,
    /// Analytic name.
    pub analytic: &'static str,
    /// Original runtime / optimized runtime.
    pub speedup: f64,
    /// Messages saved: optimized / original message count.
    pub message_ratio: f64,
}

/// Figure 10: runtime improvement of the apt-optimized analytics.
pub fn fig10(w: &Workloads) -> Vec<SpeedupRow> {
    let steps = w.config.pagerank_supersteps;
    let mut rows = Vec::new();
    for c in &w.crawls {
        let exact = w.ariadne.baseline(&DeltaPageRank::exact(steps), &c.graph);
        let approx = w
            .ariadne
            .baseline(&DeltaPageRank::approximate(steps, 0.01), &c.graph);
        rows.push(SpeedupRow {
            dataset: c.dataset.name(),
            analytic: "PageRank",
            speedup: ratio(exact.metrics.elapsed, approx.metrics.elapsed),
            message_ratio: approx.metrics.total_messages() as f64
                / exact.metrics.total_messages().max(1) as f64,
        });
        let exact = w.ariadne.baseline(&w.sssp(c), &c.weighted);
        let approx = w
            .ariadne
            .baseline(&ApproxSssp::new(c.source, 0.1), &c.weighted);
        rows.push(SpeedupRow {
            dataset: c.dataset.name(),
            analytic: "SSSP",
            speedup: ratio(exact.metrics.elapsed, approx.metrics.elapsed),
            message_ratio: approx.metrics.total_messages() as f64
                / exact.metrics.total_messages().max(1) as f64,
        });
    }
    rows
}

/// One row of Figure 11 (apt query overhead) plus the report the
/// developer reads.
#[derive(Clone, Debug)]
pub struct AptRow {
    /// The mode-ratio measurements.
    pub modes: ModeRow,
    /// The apt verdict.
    pub report: AptReport,
}

/// Figure 11: the apt query across analytics and datasets, all modes.
pub fn fig11(w: &Workloads) -> Vec<AptRow> {
    let mut rows = Vec::new();
    for c in &w.crawls {
        let name = c.dataset.name();
        // PageRank (delta formulation — the one the optimization targets).
        let pr = DeltaPageRank::exact(w.config.pagerank_supersteps);
        let apt_pr = queries::apt("udf_diff", Value::Float(0.01)).unwrap();
        rows.push(apt_row(w, name, "PageRank", &pr, &c.graph, &apt_pr));
        // SSSP.
        let apt_ss = queries::apt("udf_diff", Value::Float(0.1)).unwrap();
        rows.push(apt_row(w, name, "SSSP", &w.sssp(c), &c.weighted, &apt_ss));
        // WCC (strict comparison: labels are nominal).
        let apt_wc = queries::apt("udf_diff_strict", Value::Float(1.0)).unwrap();
        rows.push(apt_row(w, name, "WCC", &w.wcc(), &c.graph, &apt_wc));
    }
    rows
}

fn apt_row<A>(
    w: &Workloads,
    dataset: &'static str,
    analytic_name: &'static str,
    analytic: &A,
    graph: &Csr,
    query: &CompiledQuery,
) -> AptRow
where
    A: VertexProgram,
    A::V: ProvEncode,
    A::M: ProvEncode,
{
    let baseline = w.ariadne.baseline(analytic, graph).metrics.elapsed;
    let online_run = w.ariadne.online(analytic, graph, query).unwrap();
    let report = apt_report(
        &online_run.query_results,
        online_run.metrics.total_activations(),
    );
    let store = w
        .ariadne
        .capture(analytic, graph, &CaptureSpec::full())
        .unwrap()
        .store;
    let t0 = Instant::now();
    w.ariadne.layered(graph, &store, query).unwrap();
    let layered = t0.elapsed();
    let t0 = Instant::now();
    let naive = match w.ariadne.naive(graph, &store, query) {
        Ok(_) => Some(ratio(t0.elapsed(), baseline)),
        Err(AriadneError::NaiveOverflow { .. }) => None,
        Err(e) => panic!("naive evaluation failed: {e}"),
    };
    AptRow {
        modes: ModeRow {
            dataset,
            analytic: analytic_name,
            query: "Q1",
            baseline,
            online_ratio: ratio(online_run.metrics.elapsed, baseline),
            layered_ratio: ratio(layered, baseline),
            naive_ratio: naive,
        },
        report,
    }
}

/// One row of Figure 12 (backward lineage costs).
#[derive(Clone, Debug)]
pub struct BackwardRow {
    /// Dataset name.
    pub dataset: &'static str,
    /// Analytic name.
    pub analytic: &'static str,
    /// Layered Query 10 over full capture, / T.
    pub full_ratio: f64,
    /// Layered Query 12 over the Query-11 custom capture, / T.
    pub custom_ratio: f64,
    /// Lineage sizes must agree between the two paths.
    pub lineage_size: usize,
}

/// Figure 12: backward lineage over full (Q10) vs custom (Q11+Q12)
/// capture, layered in both cases.
pub fn fig12(w: &Workloads) -> Vec<BackwardRow> {
    let directed = queries::capture_backward_custom().unwrap();
    // WCC messages both edge directions, so its prov_edges must too.
    let undirected = queries::capture_backward_custom_undirected().unwrap();
    let mut rows = Vec::new();
    for c in &w.crawls {
        rows.push(backward_row(
            w,
            c,
            "PageRank",
            &w.pagerank(),
            &c.graph,
            &directed,
        ));
        rows.push(backward_row(
            w,
            c,
            "SSSP",
            &w.sssp(c),
            &c.weighted,
            &directed,
        ));
        rows.push(backward_row(w, c, "WCC", &w.wcc(), &c.graph, &undirected));
    }
    rows
}

fn backward_row<A>(
    w: &Workloads,
    c: &CrawlWorkload,
    name: &'static str,
    analytic: &A,
    graph: &Csr,
    custom_spec: &CaptureSpec,
) -> BackwardRow
where
    A: VertexProgram,
    A::V: ProvEncode,
    A::M: ProvEncode,
{
    let baseline = w.ariadne.baseline(analytic, graph).metrics.elapsed;
    let full = w
        .ariadne
        .capture(analytic, graph, &CaptureSpec::full())
        .unwrap()
        .store;
    let custom = w
        .ariadne
        .capture(analytic, graph, custom_spec)
        .unwrap()
        .store;
    let sigma = full.max_superstep().unwrap();
    let target = full
        .layer(sigma)
        .unwrap()
        .into_iter()
        .find(|(p, _)| p == "superstep")
        .and_then(|(_, ts)| ts.first().and_then(|t| t[0].as_id()))
        .map(VertexId)
        .unwrap_or(c.source);

    let q10 = queries::backward_lineage(target, sigma).unwrap();
    let t0 = Instant::now();
    let full_run = w.ariadne.layered(graph, &full, &q10).unwrap();
    let full_time = t0.elapsed();

    let q12 = queries::backward_lineage_custom(target, sigma).unwrap();
    let t0 = Instant::now();
    let custom_run = w.ariadne.layered(graph, &custom, &q12).unwrap();
    let custom_time = t0.elapsed();

    let full_lineage = full_run.query_results.sorted("back_lineage");
    let custom_lineage = custom_run.query_results.sorted("back_lineage");
    assert_eq!(
        full_lineage, custom_lineage,
        "Q10 and Q12 must return the same lineage"
    );
    BackwardRow {
        dataset: c.dataset.name(),
        analytic: name,
        full_ratio: ratio(full_time, baseline),
        custom_ratio: ratio(custom_time, baseline),
        lineage_size: full_lineage.len(),
    }
}

/// The §6.2.2 WCC narrative: apt's verdict plus the damage done by
/// ignoring it.
#[derive(Clone, Debug)]
pub struct WccNarrative {
    /// The apt verdict on the id-local (grid-structured) model.
    pub report: AptReport,
    /// Fraction of labels wrong after forcing the optimization.
    pub mismatch_fraction: f64,
}

/// Run the WCC rejection story on an id-local graph (web crawls are
/// crawl-ordered, so neighbouring pages have neighbouring ids — a grid
/// models that locality).
pub fn wcc_narrative(_w: &Workloads) -> WccNarrative {
    let g = ariadne_graph::generators::regular::grid(40, 25);
    let ariadne = ariadne::session::Ariadne::default();
    let apt = queries::apt("udf_diff_strict", Value::Float(1.0)).unwrap();
    let run = ariadne.online(&Wcc, &g, &apt).unwrap();
    let report = apt_report(&run.query_results, run.metrics.total_activations());
    let exact = ariadne.baseline(&Wcc, &g);
    let approx = ariadne.baseline(&ApproxWcc::default(), &g);
    let wrong = exact
        .values
        .iter()
        .zip(&approx.values)
        .filter(|(a, b)| a != b)
        .count();
    WccNarrative {
        report,
        mismatch_fraction: wrong as f64 / exact.values.len().max(1) as f64,
    }
}

/// The §2.2 threshold-sweep workflow: the apt query at several ε values
/// on one dataset, so a developer can pick the best safe threshold.
#[derive(Clone, Debug)]
pub struct SweepRow {
    /// Threshold ε.
    pub epsilon: f64,
    /// Fraction of activations skippable at this ε.
    pub skippable: f64,
    /// Unsafe skips at this ε.
    pub unsafe_count: usize,
    /// Whether the verdict endorses this ε.
    pub recommended: bool,
}

/// Sweep apt thresholds for delta-PageRank on the UK-02 model (the
/// dataset the paper analyzes before transferring the threshold).
pub fn sweep(w: &Workloads) -> Vec<SweepRow> {
    let c = &w.crawls[1]; // UK-02
    let pr = DeltaPageRank::exact(w.config.pagerank_supersteps);
    let points = ariadne::optimize::sweep_apt_thresholds(
        &w.ariadne,
        &pr,
        &c.graph,
        "udf_diff",
        &[0.001, 0.005, 0.01, 0.05, 0.1],
    )
    .unwrap();
    points
        .into_iter()
        .map(|p| SweepRow {
            epsilon: p.epsilon,
            skippable: p.report.skippable_fraction,
            unsafe_count: p.report.unsafe_count,
            recommended: p.report.recommended,
        })
        .collect()
}

fn ratio(num: Duration, den: Duration) -> f64 {
    let d = den.as_secs_f64();
    if d > 0.0 {
        num.as_secs_f64() / d
    } else {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use crate::workloads::Workloads;

    #[test]
    fn fig9_and_10_shapes() {
        let w = Workloads::prepare(ExperimentConfig::tiny());
        let als = fig9(&w);
        assert_eq!(als.len(), 2); // mini sweeps one rank x two queries
        for r in &als {
            assert!(r.online_ratio.is_finite() && r.online_ratio > 0.0);
        }
        let speedups = fig10(&w);
        assert_eq!(speedups.len(), 8);
        for r in &speedups {
            assert!(
                r.message_ratio <= 1.0 + 1e-9,
                "optimized sent more messages: {r:?}"
            );
        }
    }

    #[test]
    fn fig12_lineages_agree() {
        let w = Workloads::prepare(ExperimentConfig::tiny());
        let rows = fig12(&w);
        assert_eq!(rows.len(), 12);
        for r in &rows {
            assert!(r.full_ratio.is_finite());
            assert!(r.custom_ratio.is_finite());
        }
    }

    #[test]
    fn sweep_is_monotone_in_threshold() {
        let w = Workloads::prepare(ExperimentConfig::tiny());
        let rows = sweep(&w);
        assert_eq!(rows.len(), 5);
        for pair in rows.windows(2) {
            assert!(pair[0].skippable <= pair[1].skippable + 1e-12);
        }
    }

    #[test]
    fn wcc_narrative_rejects() {
        let w = Workloads::prepare(ExperimentConfig::mini());
        let n = wcc_narrative(&w);
        assert_eq!(n.report.safe, 0);
        assert!(!n.report.recommended);
        assert!(n.mismatch_fraction > 0.5, "{}", n.mismatch_fraction);
    }
}
