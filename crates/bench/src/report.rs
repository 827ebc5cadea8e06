//! Markdown rendering of experiment rows.

use crate::figures::{AlsRow, AptRow, BackwardRow, CaptureRow, ModeRow, SpeedupRow, WccNarrative};
use crate::tables::{ErrorRow, SizeRow, Table2Row};
use std::fmt::Write as _;

/// Human-readable byte count.
pub fn bytes(n: usize) -> String {
    if n >= 1 << 20 {
        format!("{:.1}MB", n as f64 / (1 << 20) as f64)
    } else if n >= 1 << 10 {
        format!("{:.1}KB", n as f64 / (1 << 10) as f64)
    } else {
        format!("{n}B")
    }
}

fn naive_cell(r: Option<f64>) -> String {
    match r {
        Some(x) => format!("{x:.2}x"),
        None => "OOM".to_string(),
    }
}

/// Render Table 2.
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "| Dataset | |V| | |E| | Avg deg | Avg diam | paper |V| | paper |E| | paper deg |"
    )
    .unwrap();
    writeln!(s, "|---|---|---|---|---|---|---|---|").unwrap();
    for r in rows {
        writeln!(
            s,
            "| {} | {} | {} | {:.2} | {:.2} | {} | {} | {:.2} |",
            r.dataset,
            r.vertices,
            r.edges,
            r.avg_degree,
            r.avg_diameter,
            r.paper_vertices,
            r.paper_edges,
            r.paper_avg_degree
        )
        .unwrap();
    }
    s
}

/// Render Tables 3/4.
pub fn render_sizes(rows: &[SizeRow]) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "| Dataset | Analytic | Input | Provenance | Ratio | Vertex coverage |"
    )
    .unwrap();
    writeln!(s, "|---|---|---|---|---|---|").unwrap();
    for r in rows {
        writeln!(
            s,
            "| {} | {} | {} | {} | {:.2}x | {:.0}% |",
            r.dataset,
            r.analytic,
            bytes(r.input_bytes),
            bytes(r.prov_bytes),
            r.ratio,
            r.vertex_coverage * 100.0
        )
        .unwrap();
    }
    s
}

/// Render Tables 5/6.
pub fn render_errors(rows: &[ErrorRow], norm: &str) -> String {
    let mut s = String::new();
    writeln!(s, "| Dataset | Error ({norm}) | Median A | Median B |").unwrap();
    writeln!(s, "|---|---|---|---|").unwrap();
    for r in rows {
        writeln!(
            s,
            "| {} | {:.1e} | {:.3} | {:.3} |",
            r.dataset, r.error, r.median_original, r.median_optimized
        )
        .unwrap();
    }
    s
}

/// Render Figure 7.
pub fn render_fig7(rows: &[CaptureRow]) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "| Dataset | Analytic | Baseline T | Full / T | Custom / T |"
    )
    .unwrap();
    writeln!(s, "|---|---|---|---|---|").unwrap();
    for r in rows {
        writeln!(
            s,
            "| {} | {} | {:.3}s | {:.2}x | {:.2}x |",
            r.dataset,
            r.analytic,
            r.baseline.as_secs_f64(),
            r.full_ratio,
            r.custom_ratio
        )
        .unwrap();
    }
    s
}

/// Render Figures 8/11 mode rows.
pub fn render_modes(rows: &[ModeRow]) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "| Dataset | Analytic | Query | Baseline T | Online / T | Layered / T | Naive / T |"
    )
    .unwrap();
    writeln!(s, "|---|---|---|---|---|---|---|").unwrap();
    for r in rows {
        writeln!(
            s,
            "| {} | {} | {} | {:.3}s | {:.2}x | {:.2}x | {} |",
            r.dataset,
            r.analytic,
            r.query,
            r.baseline.as_secs_f64(),
            r.online_ratio,
            r.layered_ratio,
            naive_cell(r.naive_ratio)
        )
        .unwrap();
    }
    s
}

/// Render Figure 9.
pub fn render_fig9(rows: &[AlsRow]) -> String {
    let mut s = String::new();
    writeln!(s, "| Features | Query | Baseline T | Online / T |").unwrap();
    writeln!(s, "|---|---|---|---|").unwrap();
    for r in rows {
        writeln!(
            s,
            "| ML-20^{} | {} | {:.3}s | {:.2}x |",
            r.rank,
            r.query,
            r.baseline.as_secs_f64(),
            r.online_ratio
        )
        .unwrap();
    }
    s
}

/// Render Figure 10.
pub fn render_fig10(rows: &[SpeedupRow]) -> String {
    let mut s = String::new();
    writeln!(s, "| Dataset | Analytic | Speedup | Messages (opt/orig) |").unwrap();
    writeln!(s, "|---|---|---|---|").unwrap();
    for r in rows {
        writeln!(
            s,
            "| {} | {} | {:.2}x | {:.0}% |",
            r.dataset,
            r.analytic,
            r.speedup,
            r.message_ratio * 100.0
        )
        .unwrap();
    }
    s
}

/// Render Figure 11 (modes + verdicts).
pub fn render_fig11(rows: &[AptRow]) -> String {
    let mut s = render_modes(&rows.iter().map(|r| r.modes.clone()).collect::<Vec<_>>());
    writeln!(s).unwrap();
    writeln!(
        s,
        "| Dataset | Analytic | no_execute | safe | unsafe | skippable | verdict |"
    )
    .unwrap();
    writeln!(s, "|---|---|---|---|---|---|---|").unwrap();
    for r in rows {
        writeln!(
            s,
            "| {} | {} | {} | {} | {} | {:.0}% | {} |",
            r.modes.dataset,
            r.modes.analytic,
            r.report.no_execute,
            r.report.safe,
            r.report.unsafe_count,
            r.report.skippable_fraction * 100.0,
            if r.report.recommended {
                "optimize"
            } else {
                "reject"
            }
        )
        .unwrap();
    }
    s
}

/// Render Figure 12.
pub fn render_fig12(rows: &[BackwardRow]) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "| Dataset | Analytic | Full (Q10) / T | Custom (Q12) / T | Lineage size |"
    )
    .unwrap();
    writeln!(s, "|---|---|---|---|---|").unwrap();
    for r in rows {
        writeln!(
            s,
            "| {} | {} | {:.2}x | {:.2}x | {} |",
            r.dataset, r.analytic, r.full_ratio, r.custom_ratio, r.lineage_size
        )
        .unwrap();
    }
    s
}

/// Render the threshold sweep.
pub fn render_sweep(rows: &[crate::figures::SweepRow]) -> String {
    let mut s = String::new();
    writeln!(s, "| eps | Skippable | Unsafe | Verdict |").unwrap();
    writeln!(s, "|---|---|---|---|").unwrap();
    for r in rows {
        writeln!(
            s,
            "| {} | {:.0}% | {} | {} |",
            r.epsilon,
            r.skippable * 100.0,
            r.unsafe_count,
            if r.recommended { "safe" } else { "reject" }
        )
        .unwrap();
    }
    s
}

/// Render the WCC rejection narrative.
pub fn render_wcc(n: &WccNarrative) -> String {
    format!(
        "apt verdict on WCC: no_execute={}, safe={}, unsafe={} → {}\n\
         forcing the optimization anyway mislabels {:.0}% of vertices\n",
        n.report.no_execute,
        n.report.safe,
        n.report.unsafe_count,
        if n.report.recommended {
            "optimize"
        } else {
            "reject"
        },
        n.mismatch_fraction * 100.0
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_formatting() {
        assert_eq!(bytes(10), "10B");
        assert_eq!(bytes(2048), "2.0KB");
        assert_eq!(bytes(3 << 20), "3.0MB");
    }

    #[test]
    fn naive_cells() {
        assert_eq!(naive_cell(Some(3.5)), "3.50x");
        assert_eq!(naive_cell(None), "OOM");
    }
}
