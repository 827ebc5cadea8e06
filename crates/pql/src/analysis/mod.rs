//! Semantic analysis: parameter substitution, literal resolution, safety
//! (range restriction), stratification of negation and aggregation,
//! VC-compatibility (Definition 4.1), directedness (Definition 5.2) and
//! the layers each stored predicate can be read at ([`Layers`]).
//!
//! The output, [`AnalyzedQuery`], is the executable form every evaluation
//! mode consumes: each rule's body has been compiled into an ordered list
//! of [`Step`]s in which every variable is bound before it is filtered
//! on, negated over, or fed to a UDF.

mod direction;
mod layers;
mod resolve;
mod stratify;

use crate::ast::{CmpOp, HeadArg, Program, Term};
use crate::catalog::Catalog;
use crate::error::PqlError;
use crate::Params;
use std::collections::{BTreeMap, BTreeSet};

pub use direction::Direction;
pub use layers::Layers;

/// A fully analyzed, executable PQL query.
#[derive(Clone, Debug)]
pub struct AnalyzedQuery {
    /// Rules in source order, compiled to step lists.
    pub rules: Vec<AnalyzedRule>,
    /// Rule indices grouped by stratum, in evaluation order.
    pub strata: Vec<Vec<usize>>,
    /// Communication classification (Definitions 4.1 and 5.2).
    pub direction: Direction,
    /// IDB predicates (defined by some head) with arities.
    pub idbs: BTreeMap<String, usize>,
    /// EDB predicates the query reads.
    pub edbs: BTreeSet<String>,
    /// Predicates referenced remotely in some rule: their partitions
    /// must piggyback on analytic messages in online/layered evaluation.
    pub shipped: BTreeSet<String>,
    /// Per EDB predicate the query reads: the layers at which its stored
    /// rows can take part in a rule firing, assuming the IDBs hold only
    /// what the rules derive. A layered replay reads no other extent of
    /// it.
    pub layers: BTreeMap<String, Layers>,
    /// What the query is, for a checkpoint to record: the program as
    /// parsed, one rule a line, then every parameter binding.
    pub identity: String,
}

impl AnalyzedQuery {
    /// Arity of a predicate (IDB or EDB), if known.
    pub fn arity(&self, pred: &str) -> Option<usize> {
        self.idbs.get(pred).copied()
    }
}

/// One analyzed rule.
#[derive(Clone, Debug)]
pub struct AnalyzedRule {
    /// Head predicate name.
    pub pred: String,
    /// Head arguments (parameters substituted).
    pub head_args: Vec<HeadArg>,
    /// The head's location variable (first head argument).
    pub head_loc: String,
    /// Body steps in a safe evaluation order.
    pub steps: Vec<Step>,
    /// Per-scan reorderings for semi-naive evaluation: when pivoting on
    /// scan `k` of `steps`, evaluating `pivot_variants[j]` (the variant
    /// whose `scan_step == k`) starts from the delta relation instead of
    /// re-enumerating everything before it. Semi-join (`exists_only`)
    /// flags are recomputed for each reordering.
    pub pivot_variants: Vec<PivotVariant>,
    /// Whether the head aggregates.
    pub has_aggregate: bool,
    /// 1-based source line.
    pub line: usize,
}

/// A reordered step list that puts one scan first (see
/// [`AnalyzedRule::pivot_variants`]).
#[derive(Clone, Debug)]
pub struct PivotVariant {
    /// Index of the fronted scan in the rule's original `steps`.
    pub scan_step: usize,
    /// The reordered steps; the pivot scan is `steps[0]`.
    pub steps: Vec<Step>,
}

/// One body evaluation step.
#[derive(Clone, Debug)]
pub enum Step {
    /// Join against relation `pred`; `args` are `Var` (bind or check) or
    /// `Const` (filter).
    Scan {
        /// Relation name.
        pred: String,
        /// Scan arguments.
        args: Vec<Term>,
        /// True when every free variable of this scan is anonymous (used
        /// nowhere else in the rule): the scan is then an existence check
        /// and evaluation stops at the first witness (semi-join).
        exists_only: bool,
    },
    /// Require that no tuple of `pred` matches `args` (all vars bound).
    Neg {
        /// Relation name.
        pred: String,
        /// Match arguments.
        args: Vec<Term>,
    },
    /// Bind `var := eval(term)` (from an `=` comparison).
    Assign {
        /// The variable being bound.
        var: String,
        /// The defining term (all its vars already bound).
        term: Term,
    },
    /// Check a comparison over bound terms.
    Filter {
        /// Left term.
        lhs: Term,
        /// Operator.
        op: CmpOp,
        /// Right term.
        rhs: Term,
    },
    /// Call a boolean UDF over bound terms.
    Udf {
        /// UDF name.
        name: String,
        /// Arguments.
        args: Vec<Term>,
    },
}

/// Analyze a parsed program against a catalog, substituting `params`.
pub fn analyze(
    program: &Program,
    catalog: &Catalog,
    params: &Params,
) -> Result<AnalyzedQuery, PqlError> {
    let resolved = resolve::resolve(program, catalog, params)?;
    let strata = stratify::stratify(&resolved.rules, catalog)?;
    let (direction, shipped) = direction::classify(&resolved.rules, catalog);
    let layers = layers::infer(&resolved.rules, &resolved.idbs, &resolved.edbs, catalog);
    // Bindings are kept sorted by name, so their debug form is stable.
    let identity = format!("{program}{params:?}");
    Ok(AnalyzedQuery {
        rules: resolved.rules,
        strata,
        direction,
        idbs: resolved.idbs,
        edbs: resolved.edbs,
        shipped,
        layers,
        identity,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::value::Value;
    use crate::parse;

    fn std_analyze(src: &str) -> Result<AnalyzedQuery, PqlError> {
        analyze(&parse(src).unwrap(), &Catalog::standard(), &Params::new())
    }

    #[test]
    fn analyzes_apt_query() {
        let src = "
            change(x, i) :- value(x, d1, i), value(x, d2, j), evolution(x, j, i), udf_diff(d1, d2, $eps).
            neighbor_change(x, i) :- receive_message(x, y, m, i), !change(y, j), j = i - 1.
            no_execute(x, i) :- !neighbor_change(x, i), superstep(x, i).
            safe(x, i) :- no_execute(x, i), change(x, i).
            unsafe(x, i) :- no_execute(x, i), !change(x, i).
        ";
        let q = analyze(
            &parse(src).unwrap(),
            &Catalog::standard(),
            &Params::new().with("eps", Value::Float(0.01)),
        )
        .unwrap();
        assert_eq!(q.direction, Direction::Forward);
        assert!(q.shipped.contains("change"));
        assert_eq!(q.idbs.len(), 5);
        // change must be in an earlier stratum than no_execute.
        let stratum_of = |pred: &str| {
            q.strata
                .iter()
                .position(|rules| rules.iter().any(|&r| q.rules[r].pred == pred))
                .unwrap()
        };
        assert!(stratum_of("change") < stratum_of("neighbor_change"));
        assert!(stratum_of("neighbor_change") < stratum_of("no_execute"));
    }

    #[test]
    fn unbound_param_rejected() {
        let err = std_analyze("p(x) :- value(x, d, i), udf_diff(d, d, $eps).").unwrap_err();
        assert!(err.to_string().contains("eps"), "{err}");
    }

    #[test]
    fn backward_query_classified() {
        let src = "
            back_trace(x, i) :- superstep(x, i), i = $sigma, x = $alpha.
            back_trace(x, i) :- send_message(x, y, m, i), back_trace(y, j), j = i + 1.
        ";
        let q = analyze(
            &parse(src).unwrap(),
            &Catalog::standard(),
            &Params::new()
                .with("sigma", Value::Int(5))
                .with("alpha", Value::Id(0)),
        )
        .unwrap();
        assert_eq!(q.direction, Direction::Backward);
        assert!(q.shipped.contains("back_trace"));
        assert!(!q.direction.supports_online());
        assert!(q.direction.supports_layered());
    }

    #[test]
    fn mixed_rule_not_directed() {
        // The paper's R1 counter-example (§5.1): both send and receive
        // guards in one rule.
        let src = "
            t(y, i) :- superstep(y, i).
            s(z, i) :- superstep(z, i).
            r1(x, i) :- t(y, j), receive_message(x, y, m, i), s(z, k), send_message(x, z, m, i).
        ";
        let q = std_analyze(src).unwrap();
        assert_eq!(q.direction, Direction::Mixed);
        assert!(!q.direction.supports_layered());
        assert!(q.direction.is_vc_compatible());
    }

    #[test]
    fn unguarded_remote_is_unrestricted() {
        let src = "
            t(y, i) :- superstep(y, i).
            r(x, i) :- superstep(x, i), t(y, i).
        ";
        let q = std_analyze(src).unwrap();
        assert_eq!(q.direction, Direction::Unrestricted);
        assert!(!q.direction.is_vc_compatible());
    }

    #[test]
    fn local_query_supports_everything() {
        let q = std_analyze(
            "check(x, i) :- value(x, d1, i), value(x, d2, j), evolution(x, i, j), receive_message(x, y, m, i), d1 <= d2.",
        )
        .unwrap();
        assert_eq!(q.direction, Direction::Local);
        assert!(q.direction.supports_online());
        assert!(q.direction.supports_layered());
        assert!(q.shipped.is_empty());
    }

    #[test]
    fn unsafe_head_var_rejected() {
        let err = std_analyze("p(x, z) :- superstep(x, i).").unwrap_err();
        assert!(err.to_string().contains('z'), "{err}");
    }

    #[test]
    fn negation_needs_bound_vars() {
        let err = std_analyze("p(x) :- superstep(x, i), !value(x, d, j).").unwrap_err();
        assert!(err.to_string().contains("unbound"), "{err}");
    }

    #[test]
    fn recursion_through_negation_rejected() {
        let err = std_analyze(
            "p(x) :- superstep(x, i), !q(x).
             q(x) :- superstep(x, i), !p(x).",
        )
        .unwrap_err();
        assert!(err.to_string().contains("stratif"), "{err}");
    }

    #[test]
    fn recursive_aggregate_rejected() {
        let err = std_analyze("p(x, count(y)) :- p(y, c), receive_message(x, y, m, i).")
            .unwrap_err();
        assert!(err.to_string().contains("stratif"), "{err}");
    }

    #[test]
    fn arity_mismatch_rejected() {
        let err = std_analyze("p(x) :- value(x, d).").unwrap_err();
        assert!(err.to_string().contains("arity"), "{err}");
    }

    #[test]
    fn idb_arity_consistency() {
        let err = std_analyze(
            "p(x, i) :- superstep(x, i).
             p(x) :- superstep(x, i).",
        )
        .unwrap_err();
        assert!(err.to_string().contains("arity"), "{err}");
    }

    #[test]
    fn assignment_binding_order() {
        // j is bound by the comparison, then used in the negation.
        let q = std_analyze(
            "p(x, i) :- receive_message(x, y, m, i), j = i - 1, !superstep(x, j).",
        )
        .unwrap();
        let steps = &q.rules[0].steps;
        assert!(matches!(steps[0], Step::Scan { .. }));
        assert!(matches!(steps[1], Step::Assign { .. }));
        assert!(matches!(steps[2], Step::Neg { .. }));
    }

    #[test]
    fn head_location_must_be_a_variable() {
        let err = std_analyze("p(3, i) :- superstep(x, i).").unwrap_err();
        assert!(err.to_string().contains("location"), "{err}");
    }

    #[test]
    fn arithmetic_in_atom_arguments_rejected() {
        let err = std_analyze("p(x, j) :- superstep(x, i), value(x, d, i + 1), j = i.")
            .unwrap_err();
        assert!(err.to_string().contains("arithmetic"), "{err}");
    }

    #[test]
    fn negated_unknown_predicate_rejected() {
        let err = std_analyze("p(x, i) :- superstep(x, i), !mystery(x).").unwrap_err();
        assert!(err.to_string().contains("mystery"), "{err}");
    }

    #[test]
    fn empty_body_fact_with_constants_allowed() {
        // A fact-style rule with the location bound by assignment.
        let q = analyze(
            &parse("seed(x, i) :- x = $alpha, i = 0.").unwrap(),
            &Catalog::standard(),
            &Params::new().with("alpha", Value::Id(2)),
        )
        .unwrap();
        assert_eq!(q.direction, Direction::Local);
        assert!(q.rules[0]
            .steps
            .iter()
            .all(|s| matches!(s, Step::Assign { .. })));
    }

    #[test]
    fn forward_lineage_query_is_forward() {
        let src = "
            fwd_lineage(x, v, i) :- value(x, v, i), superstep(x, i), x = $alpha, i = 0.
            fwd_lineage(x, v, i) :- receive_message(x, y, m, i), fwd_lineage(y, w, j), value(x, v, i).
        ";
        let q = analyze(
            &parse(src).unwrap(),
            &Catalog::standard(),
            &Params::new().with("alpha", Value::Id(7)),
        )
        .unwrap();
        assert_eq!(q.direction, Direction::Forward);
        assert!(q.shipped.contains("fwd_lineage"));
    }
}
