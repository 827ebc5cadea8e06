//! EXPLAIN output: a human-readable rendering of an analyzed query's
//! evaluation plan — strata, per-rule step order, semi-join marks,
//! direction class, shipped predicates and the layers each read
//! predicate is replayed at. What a developer reads to understand why a
//! query can (or cannot) run online, and what a replay of it reads.

use crate::analysis::{AnalyzedQuery, AnalyzedRule, Step};
use std::fmt::Write as _;

/// Render the full plan of an analyzed query.
pub fn explain(query: &AnalyzedQuery) -> String {
    let mut s = String::new();
    writeln!(s, "direction: {:?}", query.direction).unwrap();
    writeln!(
        s,
        "modes: online={} layered={} vc-compatible={}",
        query.direction.supports_online(),
        query.direction.supports_layered(),
        query.direction.is_vc_compatible()
    )
    .unwrap();
    if !query.edbs.is_empty() {
        let edbs: Vec<&str> = query.edbs.iter().map(|p| p.as_str()).collect();
        writeln!(s, "reads: {}", edbs.join(", ")).unwrap();
        let layers: Vec<String> = (query.layers.iter())
            .map(|(pred, layers)| format!("{pred} @ {layers}"))
            .collect();
        writeln!(s, "layers: {}", layers.join(", ")).unwrap();
    }
    if !query.shipped.is_empty() {
        let shipped: Vec<&str> = query.shipped.iter().map(|p| p.as_str()).collect();
        writeln!(s, "shipped with messages: {}", shipped.join(", ")).unwrap();
    }
    for (i, stratum) in query.strata.iter().enumerate() {
        writeln!(s, "stratum {i}:").unwrap();
        for &ri in stratum {
            explain_rule(&mut s, &query.rules[ri]);
        }
    }
    s
}

fn explain_rule(s: &mut String, rule: &AnalyzedRule) {
    writeln!(
        s,
        "  rule {}/{} (line {}){}:",
        rule.pred,
        rule.head_args.len(),
        rule.line,
        if rule.has_aggregate { " [aggregate]" } else { "" }
    )
    .unwrap();
    for step in &rule.steps {
        let line = match step {
            Step::Scan {
                pred, exists_only, ..
            } => {
                if *exists_only {
                    format!("semi-join {pred}")
                } else {
                    format!("scan {pred}")
                }
            }
            Step::Neg { pred, .. } => format!("check not-in {pred}"),
            Step::Assign { var, .. } => format!("assign {var}"),
            Step::Filter { op, .. } => format!("filter {op}"),
            Step::Udf { name, .. } => format!("udf {name}"),
        };
        writeln!(s, "    {line}").unwrap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, parse, Catalog, Params, Value};

    #[test]
    fn explains_the_apt_query() {
        let src = "
            change(x, i) :- evolution(x, j, i), value(x, d1, i), value(x, d2, j), udf_diff(d1, d2, $eps).
            neighbor_change(x, i) :- receive_message(x, y, m, i), !change(y, j), j = i - 1.
            no_execute(x, i) :- !neighbor_change(x, i), superstep(x, i), i > 0.
        ";
        let q = analyze(
            &parse(src).unwrap(),
            &Catalog::standard(),
            &Params::new().with("eps", Value::Float(0.01)),
        )
        .unwrap();
        let plan = explain(&q);
        assert!(plan.contains("direction: Forward"), "{plan}");
        assert!(plan.contains("online=true"), "{plan}");
        assert!(plan.contains("shipped with messages: change"), "{plan}");
        assert!(plan.contains("stratum 0:"), "{plan}");
        assert!(plan.contains("stratum 2:"), "{plan}");
        assert!(plan.contains("udf udf_diff"), "{plan}");
        assert!(plan.contains("check not-in change"), "{plan}");
        assert!(plan.contains("assign j"), "{plan}");
    }

    #[test]
    fn shows_the_layers_of_query_10() {
        let q = analyze(
            &parse(
                "back_trace(x, i) :- superstep(x, i), i = $sigma, x = $alpha.
                 back_trace(x, i) :- send_message(x, y, m, i), back_trace(y, j), j = i + 1.
                 back_lineage(x, d) :- back_trace(x, i), value(x, d, i), i = 0.",
            )
            .unwrap(),
            &Catalog::standard(),
            &Params::new()
                .with("sigma", Value::Int(6))
                .with("alpha", Value::Id(3)),
        )
        .unwrap();
        let plan = explain(&q);
        assert!(
            plan.contains("layers: send_message @ [0, 5], superstep @ {6}, value @ {0}\n"),
            "{plan}"
        );
    }

    #[test]
    fn marks_semi_joins() {
        let q = analyze(
            &parse("f(x, v, i) :- receive_message(x, y, m, i), f(y, w, j), value(x, v, i).")
                .unwrap(),
            &Catalog::standard(),
            &Params::new(),
        )
        .unwrap();
        let plan = explain(&q);
        assert!(plan.contains("semi-join f"), "{plan}");
        assert!(plan.contains("scan receive_message"), "{plan}");
    }
}
