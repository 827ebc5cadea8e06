//! The PQL abstract syntax tree.

use crate::eval::value::Value;
use std::collections::BTreeMap;
use std::fmt;

/// A parsed PQL program: an ordered list of rules.
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    /// The rules, in source order.
    pub rules: Vec<Rule>,
}

/// One Datalog rule `head :- body.` (or a fact when the body is empty).
#[derive(Clone, Debug, PartialEq)]
pub struct Rule {
    /// The head atom (with optional aggregate arguments).
    pub head: Head,
    /// The body literals, in source order.
    pub body: Vec<Literal>,
    /// 1-based source line, for diagnostics.
    pub line: usize,
}

/// A rule head: predicate plus arguments, each either a plain term or an
/// aggregate (`count(y)`, `sum(e)`, …). The first argument is the
/// location specifier (§4.2).
#[derive(Clone, Debug, PartialEq)]
pub struct Head {
    /// Predicate name.
    pub pred: String,
    /// Head arguments.
    pub args: Vec<HeadArg>,
}

impl Head {
    /// Positions and terms of non-aggregate arguments (the group-by key
    /// when aggregates are present).
    pub fn plain_args(&self) -> impl Iterator<Item = &Term> {
        self.args.iter().filter_map(|a| match a {
            HeadArg::Plain(t) => Some(t),
            HeadArg::Agg(_, _) => None,
        })
    }

    /// The aggregates among the head arguments.
    pub fn aggregates(&self) -> impl Iterator<Item = (AggFunc, &Term)> {
        self.args.iter().filter_map(|a| match a {
            HeadArg::Agg(f, t) => Some((*f, t)),
            HeadArg::Plain(_) => None,
        })
    }

    /// Whether any argument is an aggregate.
    pub fn has_aggregate(&self) -> bool {
        self.args.iter().any(|a| matches!(a, HeadArg::Agg(_, _)))
    }
}

/// A single head argument.
#[derive(Clone, Debug, PartialEq)]
pub enum HeadArg {
    /// An ordinary term.
    Plain(Term),
    /// An aggregate over a term, e.g. `count(y)`.
    Agg(AggFunc, Term),
}

/// Aggregation functions supported in heads.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum AggFunc {
    /// Number of distinct bindings.
    Count,
    /// Numeric sum.
    Sum,
    /// Numeric minimum.
    Min,
    /// Numeric maximum.
    Max,
    /// Numeric average.
    Avg,
}

impl AggFunc {
    /// Parse a (lowercased) aggregate function name.
    pub fn from_name(name: &str) -> Option<AggFunc> {
        Some(match name {
            "count" => AggFunc::Count,
            "sum" => AggFunc::Sum,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            "avg" => AggFunc::Avg,
            _ => return None,
        })
    }
}

/// A body literal.
#[derive(Clone, Debug, PartialEq)]
pub enum Literal {
    /// A positive relational atom (or a UDF call — disambiguated during
    /// analysis against the UDF registry).
    Positive(Atom),
    /// A negated relational atom (`!p(...)`).
    Negated(Atom),
    /// An arithmetic comparison between two terms.
    Compare(Term, CmpOp, Term),
}

/// A predicate applied to terms.
#[derive(Clone, Debug, PartialEq)]
pub struct Atom {
    /// Predicate (or UDF) name.
    pub pred: String,
    /// Arguments; for relational predicates the first is the location.
    pub args: Vec<Term>,
}

/// Comparison operators.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Arithmetic operators inside terms.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// A term: variable, constant, `$parameter`, or arithmetic expression.
#[derive(Clone, Debug, PartialEq)]
pub enum Term {
    /// A variable (lowercase identifier).
    Var(String),
    /// A literal constant.
    Const(Value),
    /// A `$name` parameter, replaced by [`Params`] during analysis.
    Param(String),
    /// `lhs op rhs`.
    Arith(Box<Term>, ArithOp, Box<Term>),
}

impl Term {
    /// Collect the variables appearing in this term into `out`.
    pub fn collect_vars<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Term::Var(v) => out.push(v),
            Term::Arith(l, _, r) => {
                l.collect_vars(out);
                r.collect_vars(out);
            }
            Term::Const(_) | Term::Param(_) => {}
        }
    }

    /// Convenience variable constructor.
    pub fn var(name: &str) -> Term {
        Term::Var(name.to_string())
    }
}

/// Parameter bindings for `$name` placeholders.
#[derive(Clone, Debug, Default)]
pub struct Params {
    map: BTreeMap<String, Value>,
}

impl Params {
    /// Empty parameter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind `$name` to `value` (builder style).
    pub fn with(mut self, name: &str, value: Value) -> Self {
        self.map.insert(name.to_string(), value);
        self
    }

    /// Look up a parameter.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.map.get(name)
    }
}

/// Parse a raw parameter string as the CLI's `--param k=v` and the
/// query service's `params=` write it: `vN` is a vertex id, integers
/// are `Int`, floats are `Float`, everything else is a string.
pub fn parse_param_value(s: &str) -> Value {
    if let Some(id) = s.strip_prefix('v') {
        if let Ok(n) = id.parse::<u64>() {
            return Value::Id(n);
        }
    }
    if let Ok(n) = s.parse::<i64>() {
        return Value::Int(n);
    }
    if let Ok(f) = s.parse::<f64>() {
        return Value::Float(f);
    }
    Value::str(s)
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_value_grammar() {
        assert_eq!(parse_param_value("v7"), Value::Id(7));
        assert_eq!(parse_param_value("-3"), Value::Int(-3));
        assert_eq!(parse_param_value("0.5"), Value::Float(0.5));
        assert_eq!(parse_param_value("v7x"), Value::str("v7x"));
        assert_eq!(parse_param_value("abc"), Value::str("abc"));
    }

    #[test]
    fn head_helpers() {
        let head = Head {
            pred: "deg".into(),
            args: vec![
                HeadArg::Plain(Term::var("x")),
                HeadArg::Agg(AggFunc::Count, Term::var("y")),
            ],
        };
        assert!(head.has_aggregate());
        assert_eq!(head.plain_args().count(), 1);
        assert_eq!(head.aggregates().count(), 1);
    }

    #[test]
    fn collect_vars_walks_arithmetic() {
        let t = Term::Arith(
            Box::new(Term::var("i")),
            ArithOp::Sub,
            Box::new(Term::Const(Value::Int(1))),
        );
        let mut vars = Vec::new();
        t.collect_vars(&mut vars);
        assert_eq!(vars, vec!["i"]);
    }

    #[test]
    fn agg_func_names() {
        assert_eq!(AggFunc::from_name("count"), Some(AggFunc::Count));
        assert_eq!(AggFunc::from_name("avg"), Some(AggFunc::Avg));
        assert_eq!(AggFunc::from_name("median"), None);
    }

    #[test]
    fn params() {
        let p = Params::new().with("eps", Value::Float(0.01));
        assert_eq!(p.get("eps"), Some(&Value::Float(0.01)));
        assert_eq!(p.get("nope"), None);
    }
}
