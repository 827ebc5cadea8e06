//! Pretty-printing of PQL programs.
//!
//! `Display` output is valid PQL: `parse(program.to_string())` round-trips
//! to the same AST (property-tested). Useful for debugging compiled
//! queries and for emitting canned queries to files.

use crate::ast::{Atom, Head, HeadArg, Literal, Program, Rule, Term};
use crate::eval::value::Value;
use std::fmt;

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for rule in &self.rules {
            writeln!(f, "{rule}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.head)?;
        if !self.body.is_empty() {
            write!(f, " :- ")?;
            for (i, lit) in self.body.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{lit}")?;
            }
        }
        write!(f, ".")
    }
}

impl fmt::Display for Head {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.pred)?;
        for (i, arg) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match arg {
                HeadArg::Plain(t) => write!(f, "{t}")?,
                HeadArg::Agg(func, t) => {
                    let name = match func {
                        crate::ast::AggFunc::Count => "count",
                        crate::ast::AggFunc::Sum => "sum",
                        crate::ast::AggFunc::Min => "min",
                        crate::ast::AggFunc::Max => "max",
                        crate::ast::AggFunc::Avg => "avg",
                    };
                    write!(f, "{name}({t})")?;
                }
            }
        }
        write!(f, ")")
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Positive(a) => write!(f, "{a}"),
            Literal::Negated(a) => write!(f, "!{a}"),
            Literal::Compare(l, op, r) => write!(f, "{l} {op} {r}"),
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.pred)?;
        for (i, t) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write_const(f, c),
            Term::Param(p) => write!(f, "${p}"),
            Term::Arith(l, op, r) => {
                // Parenthesize nested arithmetic for unambiguous re-parse.
                write_operand(f, l)?;
                write!(f, " {op} ")?;
                write_operand(f, r)
            }
        }
    }
}

fn write_operand(f: &mut fmt::Formatter<'_>, t: &Term) -> fmt::Result {
    match t {
        Term::Arith(_, _, _) => write!(f, "({t})"),
        other => write!(f, "{other}"),
    }
}

fn write_const(f: &mut fmt::Formatter<'_>, v: &Value) -> fmt::Result {
    match v {
        // Vertex-id constants have no literal syntax; they re-parse as
        // integers, which compare equal to ids (coerced at id columns).
        Value::Id(n) => write!(f, "{n}"),
        Value::Int(n) => write!(f, "{n}"),
        Value::Float(x) => {
            if x.fract() == 0.0 && x.is_finite() {
                write!(f, "{x:.1}")
            } else {
                write!(f, "{x}")
            }
        }
        Value::Bool(b) => write!(f, "{b}"),
        Value::Str(s) => write!(f, "{s:?}"),
        other => write!(f, "{other}"),
    }
}

#[cfg(test)]
mod tests {
    use crate::parse;
    use rand::rngs::StdRng;
    use rand::Rng;

    #[test]
    fn renders_canonical_forms() {
        let p = parse(
            "change(x, i) :- evolution(x, j, i), value(x, d1, i), udf_diff(d1, d1, $eps), i > 0.",
        )
        .unwrap();
        let s = p.to_string();
        assert!(s.contains("change(x, i) :- evolution(x, j, i)"));
        assert!(s.contains("$eps"));
        assert!(s.contains("i > 0."));
    }

    #[test]
    fn roundtrips_paper_queries() {
        for src in [
            "in_degree(x, count(y)) :- in_edge(x, y).",
            "p(x, s / d) :- q(x, s), r(x, d).",
            "a(x) :- b(x, y), !c(y), y != 0.",
            "f(x, v, i) :- receive_message(x, y, m, i), f(y, w, j), value(x, v, i).",
            "t(x, i) :- superstep(x, i), i = 3 - 1 + 2.",
        ] {
            let p1 = parse(src).unwrap();
            let p2 = parse(&p1.to_string()).unwrap();
            // Line numbers may shift; compare everything else.
            for (r1, r2) in p1.rules.iter().zip(&p2.rules) {
                assert_eq!(r1.head, r2.head, "head mismatch for {src}");
                assert_eq!(r1.body, r2.body, "body mismatch for {src}");
            }
        }
    }

    /// An identifier over `[a-z][a-z0-9_]{0,6}`.
    fn arb_ident(rng: &mut StdRng) -> String {
        const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
        let first = rng.gen_range(b'a'..=b'z') as char;
        let len = rng.gen_range(0..=6usize);
        let rest = (0..len).map(|_| REST[rng.gen_range(0..REST.len())] as char);
        std::iter::once(first).chain(rest).collect()
    }

    /// Any program that parses re-parses identically from its
    /// pretty-printed form (modulo line numbers).
    #[test]
    fn display_parse_roundtrip() {
        crate::check("display_parse_roundtrip", 0xd15b_0001, 64, |rng| {
            let preds: Vec<String> = (0..rng.gen_range(1..4usize))
                .map(|_| arb_ident(rng))
                .collect();
            let head_var = rng.gen_range(b'a'..=b'z') as char;
            // Assemble a small program from the generated names.
            let mut src = String::new();
            for (i, p) in preds.iter().enumerate() {
                src.push_str(&format!(
                    "{p}({head_var}, {i}) :- superstep({head_var}, i), i >= {i}.\n"
                ));
            }
            let Ok(p1) = parse(&src) else { return };
            let p2 = parse(&p1.to_string()).unwrap();
            for (r1, r2) in p1.rules.iter().zip(&p2.rules) {
                assert_eq!(&r1.head, &r2.head);
                assert_eq!(&r1.body, &r2.body);
            }
        });
    }
}
