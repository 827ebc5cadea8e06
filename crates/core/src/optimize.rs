//! The apt-query-driven optimization workflow (§2.2, §6.2.2).
//!
//! The apt query (Query 1) runs online with the analytic and fills three
//! tables: `no_execute` (vertex-supersteps that would be skipped under a
//! threshold), `safe` (skips that would not have changed the vertex's
//! value) and `unsafe` (skips that would have). A developer reads the
//! report and decides whether to adopt the approximate variant; the
//! paper's WCC example shows the query correctly *rejecting* it
//! (`safe = ∅`).

use ariadne_analytics::error::{median, mismatch_fraction, relative_error};
use ariadne_pql::Database;
use std::time::Duration;

/// Summary of an apt-query run.
#[derive(Clone, Debug, PartialEq)]
pub struct AptReport {
    /// |no_execute|: vertex-supersteps skippable under the threshold.
    pub no_execute: usize,
    /// |safe|: skippable without affecting the result.
    pub safe: usize,
    /// |unsafe|: skips that would lose large updates.
    pub unsafe_count: usize,
    /// Total vertex activations of the run.
    pub total_activations: usize,
    /// no_execute / total_activations.
    pub skippable_fraction: f64,
    /// Distinct vertices with at least one safely skippable superstep.
    pub safe_vertices: usize,
    /// The developer-facing verdict: pursue the optimization only when
    /// safe skips exist and no unsafe ones do.
    pub recommended: bool,
}

/// Build an [`AptReport`] from the apt query's result tables.
pub fn apt_report(results: &Database, total_activations: usize) -> AptReport {
    let no_execute = results.len("no_execute");
    let safe = results.len("safe");
    let unsafe_count = results.len("unsafe");
    let mut safe_vs: Vec<_> = results
        .sorted("safe")
        .into_iter()
        .filter_map(|t| t.first().and_then(|v| v.as_id()))
        .collect();
    safe_vs.dedup();
    AptReport {
        no_execute,
        safe,
        unsafe_count,
        total_activations,
        skippable_fraction: if total_activations == 0 {
            0.0
        } else {
            no_execute as f64 / total_activations as f64
        },
        safe_vertices: safe_vs.len(),
        recommended: safe > 0 && unsafe_count == 0,
    }
}

/// Comparison of an original analytic against its apt-optimized variant
/// (Figure 10, Tables 5 and 6).
#[derive(Clone, Debug)]
pub struct OptimizationOutcome {
    /// Normalized relative error `L_p(r0 - r1) / L_p(r0)`.
    pub relative_error: f64,
    /// Fraction of entries that changed by more than 0.5 (the WCC-style
    /// nominal-label mismatch measure).
    pub mismatch_fraction: f64,
    /// Median of the original results (Table 5/6 column "Median A").
    pub median_original: f64,
    /// Median of the optimized results (column "Median B").
    pub median_optimized: f64,
    /// original time / optimized time.
    pub speedup: f64,
}

/// Compare result vectors and runtimes of the original vs optimized
/// analytic under the L_p norm the paper uses for that analytic.
pub fn evaluate_optimization(
    original: &[f64],
    optimized: &[f64],
    p: f64,
    original_time: Duration,
    optimized_time: Duration,
) -> OptimizationOutcome {
    OptimizationOutcome {
        relative_error: relative_error(original, optimized, p),
        mismatch_fraction: mismatch_fraction(original, optimized, 0.5),
        median_original: median(original),
        median_optimized: median(optimized),
        speedup: if optimized_time.as_secs_f64() > 0.0 {
            original_time.as_secs_f64() / optimized_time.as_secs_f64()
        } else {
            f64::INFINITY
        },
    }
}

/// One point of a threshold sweep: the apt verdict at a given ε.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// The threshold evaluated.
    pub epsilon: f64,
    /// The apt verdict at this threshold.
    pub report: AptReport,
}

/// Sweep the apt query across candidate thresholds (§2.2: "Alice can
/// evaluate multiple versions of the apt query to identify the threshold
/// that gives the best performance versus accuracy tradeoff").
///
/// Each threshold is one online run of the analytic with the apt query
/// attached; the analytic result is identical every time (Theorem 5.4),
/// only the verdict changes. Returns one [`SweepPoint`] per threshold,
/// in the given order.
pub fn sweep_apt_thresholds<A>(
    ariadne: &crate::session::Ariadne,
    analytic: &A,
    graph: &ariadne_graph::Csr,
    udf: &str,
    thresholds: &[f64],
) -> Result<Vec<SweepPoint>, crate::session::AriadneError>
where
    A: ariadne_vc::VertexProgram,
    A::V: ariadne_provenance::ProvEncode,
    A::M: ariadne_provenance::ProvEncode,
{
    let mut points = Vec::with_capacity(thresholds.len());
    for &eps in thresholds {
        let query = crate::queries::apt(udf, ariadne_pql::Value::Float(eps))
            .map_err(crate::session::AriadneError::Pql)?;
        let run = ariadne.online(analytic, graph, &query)?;
        points.push(SweepPoint {
            epsilon: eps,
            report: apt_report(&run.query_results, run.metrics.total_activations()),
        });
    }
    Ok(points)
}

/// Pick the largest threshold whose verdict is still *recommended* (no
/// unsafe skips); `None` if no swept threshold qualifies.
pub fn best_safe_threshold(points: &[SweepPoint]) -> Option<&SweepPoint> {
    points
        .iter()
        .filter(|p| p.report.recommended)
        .max_by(|a, b| a.epsilon.total_cmp(&b.epsilon))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariadne_pql::Value;

    fn db_with(counts: &[(&str, usize)]) -> Database {
        let mut db = Database::new();
        for (pred, n) in counts {
            for k in 0..*n {
                db.insert(pred, vec![Value::Id(k as u64), Value::Int(0)]);
            }
        }
        db
    }

    #[test]
    fn report_recommends_when_safe_only() {
        let db = db_with(&[("no_execute", 10), ("safe", 10)]);
        let r = apt_report(&db, 100);
        assert!(r.recommended);
        assert_eq!(r.skippable_fraction, 0.1);
        assert_eq!(r.safe_vertices, 10);
    }

    #[test]
    fn report_rejects_when_unsafe_present() {
        let db = db_with(&[("no_execute", 10), ("unsafe", 10)]);
        let r = apt_report(&db, 100);
        assert!(!r.recommended);
        assert_eq!(r.unsafe_count, 10);
        assert_eq!(r.safe, 0);
    }

    #[test]
    fn empty_report() {
        let r = apt_report(&Database::new(), 0);
        assert_eq!(r.skippable_fraction, 0.0);
        assert!(!r.recommended);
    }

    #[test]
    fn sweep_finds_safe_thresholds() {
        use ariadne_analytics::pagerank::DeltaPageRank;
        use ariadne_graph::generators::{rmat, RmatConfig};
        let g = rmat(RmatConfig {
            scale: 7,
            edge_factor: 5,
            ..Default::default()
        });
        let ariadne = crate::session::Ariadne::default();
        let analytic = DeltaPageRank::exact(12);
        let points =
            sweep_apt_thresholds(&ariadne, &analytic, &g, "udf_diff", &[0.001, 0.01, 0.1]).unwrap();
        assert_eq!(points.len(), 3);
        // Skippable work is monotone in the threshold.
        for w in points.windows(2) {
            assert!(
                w[0].report.skippable_fraction <= w[1].report.skippable_fraction + 1e-12,
                "{points:?}"
            );
        }
        // If anything is recommended, best_safe picks the largest eps.
        if let Some(best) = best_safe_threshold(&points) {
            for p in &points {
                if p.report.recommended {
                    assert!(best.epsilon >= p.epsilon);
                }
            }
        }
    }

    #[test]
    fn best_safe_threshold_empty() {
        assert!(best_safe_threshold(&[]).is_none());
    }

    #[test]
    fn optimization_outcome_math() {
        let o = evaluate_optimization(
            &[1.0, 2.0, 3.0],
            &[1.0, 2.0, 3.0],
            2.0,
            Duration::from_millis(200),
            Duration::from_millis(100),
        );
        assert_eq!(o.relative_error, 0.0);
        assert_eq!(o.mismatch_fraction, 0.0);
        assert_eq!(o.median_original, 2.0);
        assert!((o.speedup - 2.0).abs() < 1e-9);
    }
}
