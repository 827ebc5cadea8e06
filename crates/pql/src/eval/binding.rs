//! Rule-body evaluation: enumerate the satisfying valuations of an
//! analyzed rule over a database.
//!
//! The step list produced by analysis is executed left to right with a
//! backtracking environment. `Scan` steps join (using relation indexes on
//! the already-bound argument positions); `Assign` binds; `Filter`,
//! `Udf` and `Neg` check. Semi-naive evaluation passes a *pivot*: the
//! index of one `Scan` step restricted to the delta window of its
//! relation.

use crate::analysis::{AnalyzedRule, Step};
use crate::ast::{CmpOp, Term};
use crate::error::PqlError;
use crate::eval::database::Database;
use crate::eval::udf::UdfRegistry;
use crate::eval::value::{arith, Value};
use std::collections::BTreeMap;
use std::ops::Range;

/// Variable bindings during rule evaluation. Keys borrow from the
/// analyzed rule (and the caller's seed), so binding a variable never
/// allocates.
pub type Env<'r> = BTreeMap<&'r str, Value>;

/// Evaluate a term under an environment. Returns `None` only for unbound
/// variables, which analysis has ruled out on well-ordered step lists.
pub fn eval_term(term: &Term, env: &Env<'_>) -> Option<Value> {
    match term {
        Term::Var(v) => env.get(v.as_str()).cloned(),
        Term::Const(c) => Some(c.clone()),
        Term::Param(_) => None, // substituted away during analysis
        Term::Arith(l, op, r) => {
            let (a, b) = (eval_term(l, env)?, eval_term(r, env)?);
            arith(*op, &a, &b)
        }
    }
}

/// Check a comparison between two bound terms. Numeric comparisons
/// promote Int/Float; incomparable values make ordering comparisons
/// false and `!=` true.
pub fn eval_compare(lhs: &Value, op: CmpOp, rhs: &Value) -> bool {
    use std::cmp::Ordering::*;
    match op {
        CmpOp::Eq => lhs.num_eq(rhs),
        CmpOp::Ne => !lhs.num_eq(rhs),
        _ => match lhs.num_cmp(rhs) {
            None => false,
            Some(ord) => matches!(
                (op, ord),
                (CmpOp::Lt, Less)
                    | (CmpOp::Le, Less)
                    | (CmpOp::Le, Equal)
                    | (CmpOp::Gt, Greater)
                    | (CmpOp::Ge, Greater)
                    | (CmpOp::Ge, Equal)
            ),
        },
    }
}

/// Restriction of one `Scan` step to a tuple-index window (semi-naive
/// delta evaluation).
#[derive(Clone, Debug)]
pub struct Pivot {
    /// Index into the rule's step list (must be a `Scan`).
    pub step: usize,
    /// Window of tuple indices to draw from.
    pub window: Range<usize>,
}

/// Enumerate satisfying valuations of `rule` over `db`, invoking `emit`
/// for each. `seed` pre-binds variables (the per-vertex evaluators bind
/// the head location to the evaluating vertex). `pivot` optionally
/// restricts one scan to a delta window.
pub fn for_each_valuation<'r>(
    rule: &'r AnalyzedRule,
    db: &Database,
    udfs: &UdfRegistry,
    seed: &Env<'r>,
    pivot: Option<&Pivot>,
    emit: &mut dyn FnMut(&Env<'r>),
) -> Result<(), PqlError> {
    for_each_valuation_steps(rule, &rule.steps, db, udfs, seed, pivot, emit)
}

/// Like [`for_each_valuation`] but over an explicit step list — used by
/// the semi-naive evaluator to run a rule's reordered
/// [`crate::analysis::PivotVariant`]s.
pub fn for_each_valuation_steps<'r>(
    rule: &'r AnalyzedRule,
    steps: &'r [Step],
    db: &Database,
    udfs: &UdfRegistry,
    seed: &Env<'r>,
    pivot: Option<&Pivot>,
    emit: &mut dyn FnMut(&Env<'r>),
) -> Result<(), PqlError> {
    let mut scratch = ScanScratch::default();
    let mut env = seed.clone();
    for_each_valuation_steps_stats(rule, steps, db, udfs, &mut env, pivot, emit, &mut scratch)
}

/// Scan-scratch efficiency counters of one [`ScanScratch`].
///
/// Purely a function of the join structure, the data and the sequence of
/// invocations that shared the scratch — deterministic across thread
/// counts — because a scratch is private to one evaluation step of one
/// database.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Buffer requests served from the recycled pool.
    pub reuse: u64,
    /// Buffer requests that had to allocate a fresh `Vec`.
    pub alloc: u64,
}

impl ScanStats {
    /// Accumulate another invocation's counters.
    pub fn merge(&mut self, other: ScanStats) {
        self.reuse += other.reuse;
        self.alloc += other.alloc;
    }
}

/// Like [`for_each_valuation_steps`], drawing its scan buffers from (and
/// counting into) a caller-owned `scratch`, so consecutive invocations
/// recycle each other's buffers instead of going back to the allocator.
/// `env` holds the seed bindings and is handed back as it came.
#[allow(clippy::too_many_arguments)]
pub fn for_each_valuation_steps_stats<'r>(
    rule: &'r AnalyzedRule,
    steps: &'r [Step],
    db: &Database,
    udfs: &UdfRegistry,
    env: &mut Env<'r>,
    pivot: Option<&Pivot>,
    emit: &mut dyn FnMut(&Env<'r>),
    scratch: &mut ScanScratch,
) -> Result<(), PqlError> {
    descend(rule, steps, db, udfs, 0, env, pivot, scratch, emit)
}

/// Reusable scan buffers threaded through rule evaluation.
///
/// Scans are the inner loop of semi-naive join evaluation: every probe
/// used to clone the relation's posting list and allocate fresh
/// column/key/binding vectors. These buffers amortize all of that to one
/// allocation per recursion depth per scratch; the evaluator keeps one
/// scratch per evaluation step, so a vertex's rule firings share it.
/// `cols`/`key` are only live while probing (dead before the recursive
/// call), so a single pair serves every depth; the per-depth buffers
/// round-trip through `pools`, a stack of recycled `Vec`s.
#[derive(Default)]
pub struct ScanScratch {
    /// Bound column positions of the scan currently probing.
    cols: Vec<usize>,
    /// Key values aligned with `cols`.
    key: Vec<Value>,
    /// Recycled index buffers (candidate postings, free/added argument
    /// positions). Each recursion depth pops what it needs and pushes it
    /// back before returning.
    pools: Vec<Vec<usize>>,
    /// Pool hit/miss counters reported through [`ScanStats`].
    stats: ScanStats,
}

impl ScanScratch {
    /// Pool hit/miss counters since the scratch was created.
    pub fn stats(&self) -> ScanStats {
        self.stats
    }

    fn take(&mut self) -> Vec<usize> {
        match self.pools.pop() {
            Some(mut v) => {
                self.stats.reuse += 1;
                v.clear();
                v
            }
            None => {
                self.stats.alloc += 1;
                Vec::new()
            }
        }
    }

    fn put(&mut self, v: Vec<usize>) {
        self.pools.push(v);
    }
}

/// The variable name at argument position `pos` (positions in the free
/// list always hold `Term::Var`s by construction).
fn var_at(args: &[Term], pos: usize) -> &str {
    match &args[pos] {
        Term::Var(v) => v.as_str(),
        other => unreachable!("free scan position {pos} holds non-variable {other:?}"),
    }
}

#[allow(clippy::too_many_arguments)]
fn descend<'r>(
    rule: &'r AnalyzedRule,
    steps: &'r [Step],
    db: &Database,
    udfs: &UdfRegistry,
    at: usize,
    env: &mut Env<'r>,
    pivot: Option<&Pivot>,
    scratch: &mut ScanScratch,
    emit: &mut dyn FnMut(&Env<'r>),
) -> Result<(), PqlError> {
    let Some(step) = steps.get(at) else {
        emit(env);
        return Ok(());
    };
    match step {
        Step::Scan {
            pred,
            args,
            exists_only,
        } => {
            let Some(rel) = db.relation(pred) else {
                return Ok(()); // empty relation: no valuations
            };
            // Partition argument positions into bound (filter) and free,
            // into the shared scratch buffers (live only until the probe).
            let mut cols = std::mem::take(&mut scratch.cols);
            let mut key = std::mem::take(&mut scratch.key);
            cols.clear();
            key.clear();
            let mut free = scratch.take();
            for (pos, t) in args.iter().enumerate() {
                match t {
                    Term::Var(v) => match env.get(v.as_str()) {
                        Some(val) => {
                            cols.push(pos);
                            key.push(val.clone());
                        }
                        None => free.push(pos),
                    },
                    Term::Const(c) => {
                        cols.push(pos);
                        key.push(c.clone());
                    }
                    other => {
                        scratch.put(free);
                        scratch.cols = cols;
                        scratch.key = key;
                        return Err(PqlError::analysis(
                            rule.line,
                            format!("unexpected term {other:?} in scan of {pred:?}"),
                        ));
                    }
                }
            }
            let window = pivot.and_then(|p| (p.step == at).then(|| p.window.clone()));
            // Existence-only scans (all free vars anonymous): one witness
            // suffices, and nothing needs binding or materializing.
            if *exists_only {
                let witnessed = if cols.is_empty() {
                    match &window {
                        Some(w) => w.start < rel.len(),
                        None => !rel.is_empty(),
                    }
                } else {
                    rel.matches_any(&cols, &key, |idx| {
                        window.as_ref().map(|w| w.contains(&idx)).unwrap_or(true)
                    })
                };
                scratch.put(free);
                key.clear();
                scratch.cols = cols;
                scratch.key = key;
                if witnessed {
                    return descend(rule, steps, db, udfs, at + 1, env, pivot, scratch, emit);
                }
                return Ok(());
            }
            // Materialize candidates into a recycled buffer; the index
            // borrow is dropped before descending, so self-joins re-enter
            // the relation safely.
            let mut candidates = scratch.take();
            if cols.is_empty() {
                // A delta step draws from its window alone: O(|Δ|), not
                // O(|R|) skipped one by one below.
                let len = rel.len();
                candidates.extend(match &window {
                    Some(w) => w.start.min(len)..w.end.min(len),
                    None => 0..len,
                });
            } else {
                rel.select_into(&cols, &key, &mut candidates);
            }
            // Release the probe buffers for deeper scans before recursing.
            key.clear();
            scratch.cols = cols;
            scratch.key = key;
            let mut added = scratch.take();
            let mut result = Ok(());
            for &idx in &candidates {
                if let Some(w) = &window {
                    if !w.contains(&idx) {
                        continue;
                    }
                }
                let tuple = rel.get(idx);
                // Bind free positions; repeated free variables must agree.
                added.clear();
                let mut ok = true;
                for &pos in &free {
                    let var = var_at(args, pos);
                    match env.get(var) {
                        Some(existing) => {
                            if *existing != tuple[pos] {
                                ok = false;
                                break;
                            }
                        }
                        None => {
                            env.insert(var, tuple[pos].clone());
                            added.push(pos);
                        }
                    }
                }
                if ok {
                    if let Err(e) =
                        descend(rule, steps, db, udfs, at + 1, env, pivot, scratch, emit)
                    {
                        result = Err(e);
                    }
                }
                for &pos in &added {
                    env.remove(var_at(args, pos));
                }
                if result.is_err() {
                    break;
                }
            }
            scratch.put(added);
            scratch.put(candidates);
            scratch.put(free);
            result
        }
        Step::Neg { pred, args } => {
            let tuple: Option<Vec<Value>> = args.iter().map(|t| eval_term(t, env)).collect();
            let Some(tuple) = tuple else {
                return Err(PqlError::analysis(
                    rule.line,
                    format!("negation over {pred:?} with unbound variables"),
                ));
            };
            let present = db.relation(pred).is_some_and(|r| r.contains(&tuple));
            if present {
                Ok(())
            } else {
                descend(rule, steps, db, udfs, at + 1, env, pivot, scratch, emit)
            }
        }
        Step::Assign { var, term } => {
            let Some(value) = eval_term(term, env) else {
                return Ok(()); // non-numeric arithmetic: no valuation
            };
            match env.get(var.as_str()) {
                Some(existing) => {
                    if existing.num_eq(&value) {
                        descend(rule, steps, db, udfs, at + 1, env, pivot, scratch, emit)
                    } else {
                        Ok(())
                    }
                }
                None => {
                    env.insert(var.as_str(), value);
                    let r = descend(rule, steps, db, udfs, at + 1, env, pivot, scratch, emit);
                    env.remove(var.as_str());
                    r
                }
            }
        }
        Step::Filter { lhs, op, rhs } => {
            let (Some(a), Some(b)) = (eval_term(lhs, env), eval_term(rhs, env)) else {
                return Ok(());
            };
            if eval_compare(&a, *op, &b) {
                descend(rule, steps, db, udfs, at + 1, env, pivot, scratch, emit)
            } else {
                Ok(())
            }
        }
        Step::Udf { name, args } => {
            let Some(f) = udfs.get(name) else {
                return Err(PqlError::analysis(
                    rule.line,
                    format!("unknown predicate or UDF {name:?}"),
                ));
            };
            let vals: Option<Vec<Value>> = args.iter().map(|t| eval_term(t, env)).collect();
            let Some(vals) = vals else {
                return Ok(());
            };
            if f(&vals) {
                descend(rule, steps, db, udfs, at + 1, env, pivot, scratch, emit)
            } else {
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, parse, Catalog, Params};

    fn rule(src: &str) -> crate::AnalyzedQuery {
        analyze(&parse(src).unwrap(), &Catalog::standard(), &Params::new()).unwrap()
    }

    fn db_with_edges(edges: &[(u64, u64)]) -> Database {
        let mut db = Database::new();
        for &(a, b) in edges {
            db.insert("edge", vec![Value::Id(a), Value::Id(b)]);
        }
        db
    }

    fn collect(q: &crate::AnalyzedQuery, db: &Database) -> Vec<BTreeMap<String, Value>> {
        let mut out = Vec::new();
        for_each_valuation(
            &q.rules[0],
            db,
            &UdfRegistry::standard(),
            &Env::new(),
            None,
            &mut |env| out.push(env.iter().map(|(k, v)| (k.to_string(), v.clone())).collect()),
        )
        .unwrap();
        out
    }

    #[test]
    fn joins_bind_variables() {
        let q = rule("two_hop(x, z) :- edge(x, y), edge(y, z).");
        let db = db_with_edges(&[(1, 2), (2, 3), (2, 4)]);
        let vals = collect(&q, &db);
        assert_eq!(vals.len(), 2);
        let zs: Vec<u64> = vals.iter().map(|e| e["z"].as_id().unwrap()).collect();
        assert_eq!(zs, vec![3, 4]);
    }

    #[test]
    fn repeated_variables_unify() {
        let q = rule("selfloop(x, x2) :- edge(x, x2), edge(x2, x2).");
        let mut db = db_with_edges(&[(1, 2), (2, 2)]);
        db.insert("edge", vec![Value::Id(3), Value::Id(3)]);
        let vals = collect(&q, &db);
        // x->x2 with x2->x2: (1,2) ok (2 loops), (2,2) ok, (3,3) ok.
        assert_eq!(vals.len(), 3);
    }

    #[test]
    fn filters_and_assignments() {
        let q = rule("p(x, j) :- edge(x, y), j = 10 + 1, y = x.");
        let mut db = Database::new();
        db.insert("edge", vec![Value::Id(5), Value::Id(5)]);
        db.insert("edge", vec![Value::Id(5), Value::Id(6)]);
        let vals = collect(&q, &db);
        assert_eq!(vals.len(), 1);
        assert_eq!(vals[0]["j"], Value::Int(11));
    }

    #[test]
    fn negation_filters() {
        let q = rule("dead_end(x, y) :- edge(x, y), !edge(y, x).");
        let db = db_with_edges(&[(1, 2), (2, 1), (2, 3)]);
        let vals = collect(&q, &db);
        assert_eq!(vals.len(), 1);
        assert_eq!(vals[0]["y"].as_id(), Some(3));
    }

    #[test]
    fn udf_calls() {
        let q = rule("close(x, y) :- value(x, d1, i), value(y, d2, i), udf_diff(d1, d2, 0.5), x != y.");
        let mut db = Database::new();
        db.insert("value", vec![Value::Id(1), Value::Float(1.0), Value::Int(0)]);
        db.insert("value", vec![Value::Id(2), Value::Float(1.2), Value::Int(0)]);
        db.insert("value", vec![Value::Id(3), Value::Float(9.0), Value::Int(0)]);
        let vals = collect(&q, &db);
        // (1,2) and (2,1) are close; 3 is far from both.
        assert_eq!(vals.len(), 2);
    }

    #[test]
    fn unknown_udf_is_an_error() {
        let q = rule("p(x) :- edge(x, y), no_such_udf(y).");
        let db = db_with_edges(&[(1, 2)]);
        let err = for_each_valuation(
            &q.rules[0],
            &db,
            &UdfRegistry::standard(),
            &Env::new(),
            None,
            &mut |_| {},
        )
        .unwrap_err();
        assert!(err.to_string().contains("no_such_udf"));
    }

    #[test]
    fn seed_restricts_location() {
        let q = rule("out(x, y) :- edge(x, y).");
        let db = db_with_edges(&[(1, 2), (3, 4)]);
        let mut seed = Env::new();
        seed.insert("x", Value::Id(3));
        let mut out = Vec::new();
        for_each_valuation(
            &q.rules[0],
            &db,
            &UdfRegistry::standard(),
            &seed,
            None,
            &mut |env| out.push(env["y"].clone()),
        )
        .unwrap();
        assert_eq!(out, vec![Value::Id(4)]);
    }

    #[test]
    fn pivot_restricts_scan() {
        let q = rule("out(x, y) :- edge(x, y).");
        let db = db_with_edges(&[(1, 2), (3, 4), (5, 6)]);
        let mut out = Vec::new();
        for_each_valuation(
            &q.rules[0],
            &db,
            &UdfRegistry::standard(),
            &Env::new(),
            Some(&Pivot { step: 0, window: 1..2 }),
            &mut |env| out.push(env["x"].clone()),
        )
        .unwrap();
        assert_eq!(out, vec![Value::Id(3)]);
    }

    #[test]
    fn compare_semantics() {
        assert!(eval_compare(&Value::Int(1), CmpOp::Lt, &Value::Float(1.5)));
        assert!(eval_compare(&Value::Int(2), CmpOp::Ge, &Value::Int(2)));
        assert!(eval_compare(&Value::Id(1), CmpOp::Eq, &Value::Int(1)));
        assert!(eval_compare(&Value::Id(1), CmpOp::Lt, &Value::Int(2)));
        assert!(eval_compare(&Value::str("a"), CmpOp::Lt, &Value::str("b")));
        assert!(eval_compare(&Value::str("a"), CmpOp::Ne, &Value::Int(1)));
    }
}
