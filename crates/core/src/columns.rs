//! Column-selective replay: which stored EDB columns a query actually
//! touches.
//!
//! The v2 segment format ([`ariadne_provenance::columnar`]) stores each
//! column of a packed batch as an independently skippable block. A query
//! that never looks at message *payloads* — most structural queries:
//! lineage, activation checks, Query 2's backward trace — should never
//! materialize them during replay. This module derives, per EDB
//! predicate, a **keep-mask** over argument positions that is sound for
//! result sets:
//!
//! A position is droppable iff in *every* scan (positive or negated) of
//! the predicate, across every rule, the argument there is a variable
//! that occurs **exactly once in its rule** — i.e. it is never joined
//! on, filtered, fed to a UDF, projected into a head, or aggregated.
//! Binding such a variable to [`ariadne_pql::Value::Unit`] instead of
//! the stored value cannot change any rule's derived head tuples.
//! Constants and arithmetic in a scan position obviously pin the column;
//! so does any rule with an aggregate head scanning the predicate (kept
//! conservatively: aggregate multiplicity could observe collapsed
//! bindings). Position 0 — the location specifier the replay driver
//! routes on — is always kept, as is every column of a predicate that is
//! also an IDB (its tuples round-trip through heads).
//!
//! Dropping a column *can* collapse tuples that differ only there (the
//! relation layer dedups), so intermediate counters like
//! [`ariadne_pql::EvalStats`] are those of the projected database, not
//! of the stored one — result sets do not change. Layered replay always
//! projects, and stays bit-identical across segment formats and thread
//! counts (the mask is applied to every record format alike).

use ariadne_pql::analysis::{AnalyzedRule, Step};
use ariadne_pql::ast::{HeadArg, Term};
use ariadne_pql::AnalyzedQuery;
use std::collections::{BTreeMap, HashMap};

/// Occurrence counts of every variable in one rule (head + all steps;
/// pivot variants are reorderings of the same atoms and are not
/// double-counted).
fn var_occurrences(rule: &AnalyzedRule) -> HashMap<&str, usize> {
    fn bump<'a>(vars: &mut Vec<&'a str>, counts: &mut HashMap<&'a str, usize>) {
        for v in vars.drain(..) {
            *counts.entry(v).or_insert(0) += 1;
        }
    }
    let mut counts: HashMap<&str, usize> = HashMap::new();
    let mut scratch: Vec<&str> = Vec::new();
    for arg in &rule.head_args {
        let term = match arg {
            HeadArg::Plain(t) => t,
            HeadArg::Agg(_, t) => t,
        };
        term.collect_vars(&mut scratch);
        bump(&mut scratch, &mut counts);
    }
    for step in &rule.steps {
        match step {
            Step::Scan { args, .. } | Step::Neg { args, .. } | Step::Udf { args, .. } => {
                for t in args {
                    t.collect_vars(&mut scratch);
                    bump(&mut scratch, &mut counts);
                }
            }
            Step::Assign { var, term } => {
                *counts.entry(var.as_str()).or_insert(0) += 1;
                term.collect_vars(&mut scratch);
                bump(&mut scratch, &mut counts);
            }
            Step::Filter { lhs, op: _, rhs } => {
                lhs.collect_vars(&mut scratch);
                bump(&mut scratch, &mut counts);
                rhs.collect_vars(&mut scratch);
                bump(&mut scratch, &mut counts);
            }
        }
    }
    counts
}

/// Per-EDB-predicate column keep-masks for `query` (see the module docs
/// for the soundness argument). Predicates that keep every column are
/// omitted from the map — an absent mask means "keep all".
pub fn column_masks(query: &AnalyzedQuery) -> BTreeMap<String, Vec<bool>> {
    // keep[pred][j] starts false (droppable) and is forced true by any
    // occurrence that needs the column.
    let mut keep: BTreeMap<String, Vec<bool>> = BTreeMap::new();
    for rule in &query.rules {
        let occurrences = var_occurrences(rule);
        for step in &rule.steps {
            let (pred, args) = match step {
                Step::Scan { pred, args, .. } | Step::Neg { pred, args } => (pred, args),
                _ => continue,
            };
            if !query.edbs.contains(pred) || query.idbs.contains_key(pred) {
                continue;
            }
            let mask = keep
                .entry(pred.clone())
                .or_insert_with(|| vec![false; args.len()]);
            if mask.len() < args.len() {
                mask.resize(args.len(), true);
            }
            for (j, term) in args.iter().enumerate() {
                let needed = j == 0
                    || rule.has_aggregate
                    || match term {
                        Term::Var(v) => occurrences.get(v.as_str()).copied().unwrap_or(0) != 1,
                        _ => true, // constants/params/arithmetic filter the column
                    };
                if needed {
                    mask[j] = true;
                }
            }
        }
    }
    // Keep only masks that actually drop something.
    keep.retain(|_, mask| mask.iter().any(|k| !k));
    keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use ariadne_pql::Params;

    fn masks(src: &str, params: Params) -> BTreeMap<String, Vec<bool>> {
        column_masks(compile(src, params).unwrap().query())
    }

    #[test]
    fn unused_message_payload_dropped() {
        // `m` occurs once: receive_message's payload column is dead.
        let m = masks(
            "hot(x, i) :- receive_message(x, y, m, i), superstep(y, i).",
            Params::new(),
        );
        assert_eq!(
            m.get("receive_message").map(Vec::as_slice),
            Some(&[true, true, false, true][..])
        );
        // superstep's columns are all used (y joins, i joins + head).
        assert!(!m.contains_key("superstep"));
    }

    #[test]
    fn joined_and_projected_columns_kept() {
        // m is projected into the head and y joins superstep: every
        // column of send_message is needed, so no mask is emitted.
        let m = masks(
            "out(x, m, i) :- send_message(x, y, m, i), superstep(y, i).",
            Params::new(),
        );
        assert!(!m.contains_key("send_message"), "{m:?}");
    }

    #[test]
    fn one_needy_scan_pins_the_column_for_all() {
        // Rule 1 ignores the payload, rule 2 filters on it: kept.
        let m = masks(
            "a(x, i) :- receive_message(x, y, m, i).
             b(x, i) :- receive_message(x, y, m, i), m > 0.5.",
            Params::new(),
        );
        assert_eq!(
            m.get("receive_message").map(Vec::as_slice),
            Some(&[true, false, true, true][..])
        );
    }

    #[test]
    fn constants_pin_columns() {
        let m = masks("z(x, i) :- value(x, d, i), i = 0.", Params::new());
        // d occurs once -> droppable; x and i used.
        assert_eq!(
            m.get("value").map(Vec::as_slice),
            Some(&[true, false, true][..])
        );
    }

    #[test]
    fn aggregates_keep_everything() {
        let m = masks(
            "deg(x, count(y)) :- receive_message(x, y, m, i).",
            Params::new(),
        );
        assert!(
            !m.contains_key("receive_message"),
            "aggregate rules keep all columns: {m:?}"
        );
    }

    #[test]
    fn negated_scans_never_drop() {
        // Negation requires bound vars, so they always occur elsewhere —
        // the mask for a negated-only column can't drop anything the
        // positive occurrences need.
        let m = masks(
            "q(x, i) :- superstep(x, i), !receive_message(x, y, m, i), value(x, y, j), value(x, m, k).",
            Params::new(),
        );
        assert!(!m.contains_key("receive_message"), "{m:?}");
    }
}
