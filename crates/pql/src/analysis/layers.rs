//! Layer bounds: the supersteps at which each stored predicate's rows can
//! take part in a rule firing (§5.1: a replay visits the capture one
//! superstep layer at a time, so a query that can only read some layers
//! need not replay the others).
//!
//! A capture stores a row of a predicate with a declared superstep
//! column ([`EdbSchema::superstep`](crate::catalog::EdbSchema::superstep))
//! at the layer that column names, so what a rule lets that column hold
//! bounds the layers a replay must read for it. The analysis is an
//! abstract interpretation over integer intervals, with parameters
//! already substituted:
//!
//! * a rule's variables start unbounded and are narrowed by its steps: a
//!   superstep column floors its variable at 0, an IDB column bounds it
//!   by what that IDB's heads can write there, `=`, `<`, `<=`, `>`, `>=`
//!   against an integer constant cut it, and `j = i + k` between two
//!   variables carries each one's bound to the other;
//! * each IDB column collects what its heads can write, as a least
//!   fixpoint over the rules. A column that keeps growing is widened: a
//!   falling lower bound drops to the superstep floor 0 and then to
//!   −∞, a rising upper bound goes to +∞. So recursion terminates;
//! * a predicate's layers are the union, over every scan of it in a rule
//!   that can fire, of what its superstep column can hold there. Negated
//!   scans and the bodies of aggregate rules count like positive scans.
//!
//! Everything the analysis does not understand is unbounded, so it only
//! ever over-approximates: a predicate with no declared column (graph
//! structure, custom capture relations) is read at every layer. So is
//! every predicate of a query with a rule that reads no layer-bounded
//! atom, such as `p(x, y) :- edge(x, y)`. Such a rule fires at any
//! vertex the replay happens to touch, and pruning changes which
//! vertices it touches. The bounds assume the IDBs hold only what the
//! rules derive. A replay over a store that also holds rows under an IDB
//! name must not use them.

use super::{AnalyzedRule, Step};
use crate::ast::{ArithOp, CmpOp, HeadArg, Term};
use crate::catalog::Catalog;
use crate::eval::value::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The layers at which a stored predicate's rows can take part in a rule
/// firing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layers {
    /// At no layer: no rule that reads the predicate can fire.
    None,
    /// At supersteps `lo..=hi`; `hi: None` has no upper bound.
    Range {
        /// First layer.
        lo: u32,
        /// Last layer, if bounded.
        hi: Option<u32>,
    },
}

impl Layers {
    /// Every layer.
    pub const ALL: Layers = Layers::Range { lo: 0, hi: None };

    /// Whether rows stored at `layer` can take part in a firing.
    pub fn contains(self, layer: u32) -> bool {
        match self {
            Layers::None => false,
            Layers::Range { lo, hi } => lo <= layer && hi.is_none_or(|hi| layer <= hi),
        }
    }

    /// The integral part of `span`, cut to the `u32` layer range.
    fn of(span: Span) -> Layers {
        let span = span.meet(Span::FLOOR);
        if span.ints_empty() || span.lo > i64::from(u32::MAX) {
            return Layers::None;
        }
        Layers::Range {
            lo: span.lo as u32,
            hi: u32::try_from(span.hi).ok().filter(|_| span.hi != POS),
        }
    }
}

impl fmt::Display for Layers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Layers::None => f.write_str("none"),
            Layers::Range { lo: 0, hi: None } => f.write_str("all"),
            Layers::Range { lo, hi: None } => write!(f, "[{lo}, inf)"),
            Layers::Range { lo, hi: Some(hi) } if lo == hi => write!(f, "{{{lo}}}"),
            Layers::Range { lo, hi: Some(hi) } => write!(f, "[{lo}, {hi}]"),
        }
    }
}

/// −∞ and +∞ as interval bounds.
const NEG: i64 = i64::MIN;
const POS: i64 = i64::MAX;

/// An IDB column starts widening once it has grown in this many passes.
const WIDEN_AFTER: u32 = 2;

/// Passes over one rule's steps: each narrows soundly, so stopping
/// early only loses precision.
const RULE_PASSES: usize = 8;

/// What a variable or column can hold: the integral numbers in
/// `lo..=hi` (none when `lo > hi`) and, when `other`, values that are not
/// integral numbers (strings, fractional floats, lists), which no
/// integer comparison bounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Span {
    lo: i64,
    hi: i64,
    other: bool,
}

impl Span {
    const ANY: Span = Span {
        lo: NEG,
        hi: POS,
        other: true,
    };
    const NONE: Span = Span {
        lo: POS,
        hi: NEG,
        other: false,
    };
    /// A stored superstep: an integer, at least 0.
    const FLOOR: Span = Span {
        lo: 0,
        hi: POS,
        other: false,
    };

    fn ints_empty(self) -> bool {
        self.lo > self.hi
    }

    /// Nothing at all: a variable bound to this makes its rule dead.
    fn is_none(self) -> bool {
        self.ints_empty() && !self.other
    }

    fn meet(self, o: Span) -> Span {
        Span {
            lo: self.lo.max(o.lo),
            hi: self.hi.min(o.hi),
            other: self.other && o.other,
        }
    }

    fn join(self, o: Span) -> Span {
        let (lo, hi) = match (self.ints_empty(), o.ints_empty()) {
            (true, _) => (o.lo, o.hi),
            (_, true) => (self.lo, self.hi),
            _ => (self.lo.min(o.lo), self.hi.max(o.hi)),
        };
        Span {
            lo,
            hi,
            other: self.other || o.other,
        }
    }

    fn shift(self, k: i64) -> Span {
        if self.ints_empty() {
            return self;
        }
        Span {
            lo: offset(self.lo, k),
            hi: offset(self.hi, k),
            ..self
        }
    }

    /// Integral numbers up to `hi`, or anything else.
    fn at_most(hi: i64) -> Span {
        Span { hi, ..Span::ANY }
    }

    /// Integral numbers from `lo`, or anything else.
    fn at_least(lo: i64) -> Span {
        Span { lo, ..Span::ANY }
    }

    /// A constant, in its numeric view (an id or an integral float
    /// compares equal to the integer).
    fn of(v: &Value) -> Span {
        let n = match v {
            Value::Int(k) => Some(*k),
            Value::Id(n) => i64::try_from(*n).ok(),
            Value::Float(f) if f.fract() == 0.0 && f.abs() < 9.0e15 => Some(*f as i64),
            _ => None,
        };
        match n {
            Some(k) if k != NEG && k != POS => Span {
                lo: k,
                hi: k,
                other: false,
            },
            Some(_) => Span::ANY,
            None => Span {
                other: true,
                ..Span::NONE
            },
        }
    }

    /// The one integer this span holds, if it is exactly that.
    fn exact(self) -> Option<i64> {
        (self.lo == self.hi && !self.other).then_some(self.lo)
    }

    /// `self` was a column's value before a pass and `next` after it:
    /// a falling lower bound drops to the floor 0, then to −∞; a rising
    /// upper bound goes to +∞.
    fn widen(self, next: Span) -> Span {
        if self.ints_empty() {
            return next;
        }
        let lo = match next.lo < self.lo {
            true if next.lo >= 0 => 0,
            true => NEG,
            false => self.lo,
        };
        let hi = if next.hi > self.hi { POS } else { self.hi };
        Span {
            lo,
            hi,
            other: next.other,
        }
    }
}

/// `b + k` for an interval bound: the infinities stay, and a finite
/// bound past the `i64` range becomes the infinity beyond it.
fn offset(b: i64, k: i64) -> i64 {
    if b == NEG || b == POS {
        return b;
    }
    (i128::from(b) + i128::from(k)).clamp(i128::from(NEG), i128::from(POS)) as i64
}

/// A term as `var + k`, as a constant, or neither.
enum Lin<'a> {
    Var(&'a str, i64),
    Const(Span),
    Opaque,
}

/// Offsets past this are not followed, so `1 - k` and `-k` never
/// overflow.
const MAX_OFFSET: i64 = 1 << 40;

fn lin(t: &Term) -> Lin<'_> {
    match t {
        Term::Var(v) => Lin::Var(v, 0),
        Term::Const(c) => Lin::Const(Span::of(c)),
        Term::Arith(a, op @ (ArithOp::Add | ArithOp::Sub), b) => {
            let sign = if *op == ArithOp::Add { 1 } else { -1 };
            let (v, k, c) = match (lin(a), lin(b)) {
                (Lin::Var(v, k), Lin::Const(c)) => (v, k, sign * c.exact().unwrap_or(POS)),
                (Lin::Const(c), Lin::Var(v, k)) if sign == 1 => (v, k, c.exact().unwrap_or(POS)),
                _ => return Lin::Opaque,
            };
            match offset(k, c) {
                k if k.unsigned_abs() <= MAX_OFFSET.unsigned_abs() => Lin::Var(v, k),
                _ => Lin::Opaque,
            }
        }
        _ => Lin::Opaque,
    }
}

/// The spans of one rule's variables; an absent variable is unbounded.
/// A rule binds a handful of variables, so a list beats a hash map.
#[derive(Default)]
struct Env<'r>(Vec<(&'r str, Span)>);

impl<'r> Env<'r> {
    fn get(&self, v: &str) -> Span {
        let found = self.0.iter().find(|(name, _)| *name == v);
        found.map_or(Span::ANY, |&(_, span)| span)
    }

    fn eval(&self, l: &Lin<'_>) -> Span {
        match *l {
            Lin::Var(v, k) => self.get(v).shift(k),
            Lin::Const(c) => c,
            Lin::Opaque => Span::ANY,
        }
    }

    /// Narrow `v` to `span`; whether that changed it.
    fn narrow(&mut self, v: &'r str, span: Span) -> bool {
        let at = match self.0.iter().position(|(name, _)| *name == v) {
            Some(at) => at,
            None => {
                self.0.push((v, Span::ANY));
                self.0.len() - 1
            }
        };
        let old = self.0[at].1;
        self.0[at].1 = old.meet(span);
        self.0[at].1 != old
    }

    /// Narrow by a scan binding `arg` to a column holding `span`:
    /// whether that changed anything, or `None` when no row can match.
    fn scan(&mut self, arg: &'r Term, span: Span) -> Option<bool> {
        match arg {
            Term::Var(v) => Some(self.narrow(v, span)),
            _ if self.eval(&lin(arg)).meet(span).is_none() => None,
            _ => Some(false),
        }
    }

    /// Narrow by `lhs op rhs`; whether that changed anything.
    fn compare(&mut self, lhs: &'r Term, op: CmpOp, rhs: &'r Term) -> bool {
        let (l, r) = (lin(lhs), lin(rhs));
        let flipped = match op {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            same => same,
        };
        let a = self.bound(&l, op, &r);
        let b = self.bound(&r, flipped, &l);
        a | b
    }

    /// Narrow the variable of `side` (if it is `var + k`) by
    /// `side op other`.
    fn bound(&mut self, side: &Lin<'r>, op: CmpOp, other: &Lin<'_>) -> bool {
        let Lin::Var(v, k) = *side else {
            return false;
        };
        let o = self.eval(other);
        let span = match op {
            CmpOp::Eq => o.shift(-k),
            CmpOp::Ne => return false,
            // An order bound holds only against integral numbers: `v < 2.5`
            // admits v = 2.
            _ if o.other || o.ints_empty() => return false,
            CmpOp::Lt if o.hi != POS => Span::at_most(offset(o.hi, -1 - k)),
            CmpOp::Le if o.hi != POS => Span::at_most(offset(o.hi, -k)),
            CmpOp::Gt if o.lo != NEG => Span::at_least(offset(o.lo, 1 - k)),
            CmpOp::Ge if o.lo != NEG => Span::at_least(offset(o.lo, -k)),
            _ => return false,
        };
        self.narrow(v, span)
    }
}

fn superstep_column(pred: &str, catalog: &Catalog) -> Option<usize> {
    catalog.get(pred).and_then(|schema| schema.superstep)
}

/// The spans of `rule`'s variables over every firing, or `None` when it
/// cannot fire.
fn rule_env<'r>(
    rule: &'r AnalyzedRule,
    cols: &BTreeMap<&str, Vec<Span>>,
    catalog: &Catalog,
) -> Option<Env<'r>> {
    let mut env = Env::default();
    for _ in 0..RULE_PASSES {
        let mut changed = false;
        for step in &rule.steps {
            match step {
                // A scan bounds every column of an IDB, and the superstep
                // column of an EDB that declares one.
                Step::Scan { pred, args, .. } => match cols.get(pred.as_str()) {
                    Some(col) => {
                        for (arg, &span) in args.iter().zip(col) {
                            changed |= env.scan(arg, span)?;
                        }
                    }
                    None => {
                        if let Some(c) = superstep_column(pred, catalog) {
                            changed |= env.scan(&args[c], Span::FLOOR)?;
                        }
                    }
                },
                Step::Assign { var, term } => changed |= env.narrow(var, env.eval(&lin(term))),
                Step::Filter { lhs, op, rhs } => changed |= env.compare(lhs, *op, rhs),
                Step::Neg { .. } | Step::Udf { .. } => {}
            }
        }
        if env.0.iter().any(|(_, span)| span.is_none()) {
            return None;
        }
        if !changed {
            break;
        }
    }
    Some(env)
}

/// Infer the layers of every EDB predicate in `edbs` (see the module
/// docs).
pub(super) fn infer(
    rules: &[AnalyzedRule],
    idbs: &BTreeMap<String, usize>,
    edbs: &BTreeSet<String>,
    catalog: &Catalog,
) -> BTreeMap<String, Layers> {
    let mut cols: BTreeMap<&str, Vec<Span>> = idbs
        .iter()
        .map(|(pred, &arity)| (pred.as_str(), vec![Span::NONE; arity]))
        .collect();
    let mut grown: BTreeMap<&str, Vec<u32>> = idbs
        .iter()
        .map(|(pred, &arity)| (pred.as_str(), vec![0; arity]))
        .collect();
    loop {
        let before = cols.clone();
        for rule in rules {
            let Some(env) = rule_env(rule, &cols, catalog) else {
                continue;
            };
            let col = cols
                .get_mut(rule.pred.as_str())
                .expect("every head is an IDB");
            for (span, arg) in col.iter_mut().zip(&rule.head_args) {
                let head = match arg {
                    HeadArg::Plain(t) => env.eval(&lin(t)),
                    HeadArg::Agg(..) => Span::ANY,
                };
                *span = span.join(head);
            }
        }
        let mut changed = false;
        for (pred, col) in cols.iter_mut() {
            for ((span, old), grown) in col
                .iter_mut()
                .zip(&before[pred])
                .zip(grown.get_mut(pred).expect("a count per IDB"))
            {
                if span != old {
                    changed = true;
                    *grown += 1;
                    if *grown > WIDEN_AFTER {
                        *span = old.widen(*span);
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    let mut need: BTreeMap<String, Span> =
        edbs.iter().map(|pred| (pred.clone(), Span::NONE)).collect();
    let mut every_layer = false;
    for rule in rules {
        let Some(env) = rule_env(rule, &cols, catalog) else {
            continue;
        };
        every_layer |= !rule.steps.iter().any(|step| {
            matches!(step, Step::Scan { pred, .. }
                if cols.contains_key(pred.as_str()) || superstep_column(pred, catalog).is_some())
        });
        for step in &rule.steps {
            let (Step::Scan { pred, args, .. } | Step::Neg { pred, args }) = step else {
                continue;
            };
            let Some(span) = need.get_mut(pred) else {
                continue;
            };
            *span = match superstep_column(pred, catalog) {
                Some(c) => span.join(env.eval(&lin(&args[c]))),
                None => Span::ANY,
            };
        }
    }
    need.into_iter()
        .map(|(pred, span)| {
            let layers = if every_layer {
                Layers::ALL
            } else {
                Layers::of(span)
            };
            (pred, layers)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, parse, Params};

    fn layers(src: &str, params: Params) -> BTreeMap<String, String> {
        let q = analyze(&parse(src).unwrap(), &Catalog::standard(), &params).unwrap();
        q.layers
            .iter()
            .map(|(p, l)| (p.clone(), l.to_string()))
            .collect()
    }

    fn expect(src: &str, params: Params, want: &[(&str, &str)]) {
        let got = layers(src, params);
        let want: BTreeMap<String, String> = want
            .iter()
            .map(|(p, l)| (p.to_string(), l.to_string()))
            .collect();
        assert_eq!(got, want, "{src}");
    }

    const QUERY_10: &str = "
        back_trace(x, i) :- superstep(x, i), i = $sigma, x = $alpha.
        back_trace(x, i) :- send_message(x, y, m, i), back_trace(y, j), j = i + 1.
        back_lineage(x, d) :- back_trace(x, i), value(x, d, i), i = 0.";

    fn lineage_params(sigma: i64) -> Params {
        Params::new()
            .with("sigma", Value::Int(sigma))
            .with("alpha", Value::Id(3))
    }

    #[test]
    fn query_10_reads_its_path_only() {
        expect(
            QUERY_10,
            lineage_params(5),
            &[
                ("send_message", "[0, 4]"),
                ("superstep", "{5}"),
                ("value", "{0}"),
            ],
        );
        // Small sigmas, where the widened lower bound passes below 0.
        expect(
            QUERY_10,
            lineage_params(1),
            &[
                ("send_message", "{0}"),
                ("superstep", "{1}"),
                ("value", "{0}"),
            ],
        );
        expect(
            QUERY_10,
            lineage_params(0),
            &[
                ("send_message", "none"),
                ("superstep", "{0}"),
                ("value", "{0}"),
            ],
        );
    }

    #[test]
    fn a_negative_seed_reads_nothing() {
        expect(
            QUERY_10,
            lineage_params(-1),
            &[
                ("send_message", "none"),
                ("superstep", "none"),
                ("value", "none"),
            ],
        );
    }

    #[test]
    fn predicates_without_a_superstep_column_are_read_at_every_layer() {
        let mut catalog = Catalog::standard();
        catalog.register("prov_error", 4);
        let q = analyze(
            &parse(
                "hub(x, i) :- in_edge(x, y), superstep(x, i), i = 2.
                 bad(x, i) :- prov_error(x, y, i, e), superstep(x, i), i = 2.",
            )
            .unwrap(),
            &catalog,
            &Params::new(),
        )
        .unwrap();
        assert_eq!(q.layers["in_edge"], Layers::ALL);
        assert_eq!(q.layers["prov_error"], Layers::ALL);
        assert_eq!(q.layers["superstep"].to_string(), "{2}");
    }

    #[test]
    fn comparisons_against_constants() {
        expect(
            "p(x, i) :- superstep(x, i), i >= 3.
             q(x, i) :- value(x, d, i), i < 4, i > 1.
             r(x, i) :- receive_message(x, y, m, i), 6 >= i, i != 2.",
            Params::new(),
            &[
                ("receive_message", "[0, 6]"),
                ("superstep", "[3, inf)"),
                ("value", "[2, 3]"),
            ],
        );
    }

    #[test]
    fn offsets_carry_bounds_both_ways() {
        // i is bounded through j, and j through i.
        expect(
            "p(x, i) :- evolution(x, j, i), value(x, d, j), j = 4.
             q(x, j) :- superstep(x, i), receive_message(x, y, m, j), i = j - 2, i <= 1.",
            Params::new(),
            &[
                ("evolution", "all"),
                ("receive_message", "[2, 3]"),
                ("superstep", "[0, 1]"),
                ("value", "{4}"),
            ],
        );
    }

    #[test]
    fn recursion_terminates_under_widening() {
        // Counts upward forever without widening: the column grows by one
        // per pass.
        expect(
            "up(x, i) :- superstep(x, i), i = 2.
             up(x, i) :- receive_message(x, y, m, i), up(y, j), i = j + 1.",
            Params::new(),
            &[("receive_message", "[3, inf)"), ("superstep", "{2}")],
        );
        // And downward past the floor.
        expect(
            "down(x, i) :- superstep(x, i), i = 9.
             down(x, i) :- down(x, j), i = j - 1.
             hit(x) :- down(x, i), value(x, d, i).",
            Params::new(),
            &[("superstep", "{9}"), ("value", "[0, 9]")],
        );
    }

    #[test]
    fn a_rule_with_no_bounded_atom_makes_every_layer_needed() {
        expect(
            "p(x, y) :- edge(x, y).
             q(x, i) :- superstep(x, i), i = 2.",
            Params::new(),
            &[("edge", "all"), ("superstep", "all")],
        );
        // An empty body is no anchor either.
        expect(
            "seed(x, i) :- x = $alpha, i = 0.
             q(x, i) :- seed(x, i), value(x, d, i).",
            Params::new().with("alpha", Value::Id(1)),
            &[("value", "all")],
        );
    }

    #[test]
    fn negation_and_aggregates_bound_their_atoms() {
        expect(
            "p(x, i) :- superstep(x, i), i = 3, j = i - 1, !evolution(x, j, i).
             n(x, count(y)) :- receive_message(x, y, m, i), i <= 2.",
            Params::new(),
            &[
                ("evolution", "{3}"),
                ("receive_message", "[0, 2]"),
                ("superstep", "{3}"),
            ],
        );
    }

    #[test]
    fn values_that_are_not_integers_never_bound_an_order() {
        // `i < 2.5` admits 2; `i = "a"` admits nothing.
        expect(
            "p(x, i) :- superstep(x, i), i < 2.5.
             q(x, i) :- value(x, d, i), i = \"a\".",
            Params::new(),
            &[("superstep", "all"), ("value", "none")],
        );
        // A string in an IDB column does not make a scan of it dead.
        expect(
            "t(x, s) :- superstep(x, i), s = \"on\".
             p(x, i) :- t(x, s), value(x, d, i), i = 1.",
            Params::new(),
            &[("superstep", "all"), ("value", "{1}")],
        );
    }

    #[test]
    fn huge_offsets_are_not_followed() {
        expect(
            "p(x, i) :- superstep(x, i), j = i - 9223372036854775807, j = 0.
             q(x, i) :- value(x, d, i), i + 9223372036854775807 = 9223372036854775807.",
            Params::new(),
            &[("superstep", "all"), ("value", "all")],
        );
    }

    #[test]
    fn idb_constants_bound_the_columns_they_reach() {
        expect(
            "mark(x, i) :- superstep(x, j), i = 4.
             p(x, i) :- mark(x, i), value(x, d, i).",
            Params::new(),
            &[("superstep", "all"), ("value", "{4}")],
        );
    }
}
