//! Differential oracle for rule evaluation.
//!
//! Random safe single-rule programs (1–3 scans, optional negation,
//! comparison and assignment, repeated variables, constants) over random
//! small databases, evaluated two ways: by [`Evaluator`], whose join loop
//! runs compiled rule plans, and by the nested-loop interpreter below,
//! which walks the analyzed [`Step`]s with a name → value map and knows
//! nothing of plans, slots, indexes or scratch buffers.
//!
//! For a one-rule program the semi-naive schedule is short enough to state
//! outright — per step call, every scan whose relation grew fires once as
//! the pivot over the new rows, then a closing round finds nothing — so
//! the interpreter predicts not only the derived set but the derived
//! relation's *scan order* and the four logical [`EvalStats`] counters,
//! for one-shot runs and for arbitrary batch splits, with and without a
//! seeded head location.
//!
//! Random stratified programs of 2–4 rules (one recursive positive rule,
//! optionally a negated stratum above it) are checked by sets: a one-shot
//! [`Evaluator::run`] against the interpreter iterated to a fixpoint
//! stratum by stratum, and, for negation-free programs, any batch split
//! stepped through one [`EvalState`] against the one-shot run.

use ariadne_pql::analysis::{AnalyzedQuery, AnalyzedRule, Step};
use ariadne_pql::ast::{CmpOp, HeadArg, Term};
use ariadne_pql::eval::value::arith;
use ariadne_pql::{
    analyze, parse, Catalog, Database, EvalScratch, EvalState, EvalStats, Evaluator, Params, Tuple,
    UdfRegistry, Value,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering::{Equal, Greater, Less};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

type Env = BTreeMap<String, Value>;

fn term_value(term: &Term, env: &Env) -> Option<Value> {
    match term {
        Term::Var(v) => env.get(v).cloned(),
        Term::Const(c) => Some(c.clone()),
        Term::Param(_) => None,
        Term::Arith(l, op, r) => arith(*op, &term_value(l, env)?, &term_value(r, env)?),
    }
}

/// The reference: enumerate the valuations of `steps` from `at` on by
/// nested loops, appending the head tuple of each to `out`. `window`
/// restricts the scan at step 0 to those rows.
fn reference(
    rule: &AnalyzedRule,
    steps: &[Step],
    at: usize,
    db: &Database,
    window: Option<&Range<usize>>,
    env: &Env,
    out: &mut Vec<Tuple>,
) {
    let Some(step) = steps.get(at) else {
        let head = rule.head_args.iter().map(|arg| match arg {
            HeadArg::Plain(t) | HeadArg::Agg(_, t) => term_value(t, env),
        });
        out.extend(head.collect::<Option<Tuple>>());
        return;
    };
    let mut next = |env: &Env| reference(rule, steps, at + 1, db, window, env, out);
    match step {
        Step::Scan {
            pred,
            args,
            exists_only,
        } => {
            let rows = db.relation(pred).map_or(&[][..], |r| r.scan());
            let rows = match window {
                Some(w) if at == 0 => &rows[w.start.min(rows.len())..w.end.min(rows.len())],
                _ => rows,
            };
            for row in rows {
                let mut bound = env.clone();
                let fits = args.iter().zip(row).all(|(arg, v)| match arg {
                    Term::Var(x) => *bound.entry(x.clone()).or_insert_with(|| v.clone()) == *v,
                    Term::Const(c) => c == v,
                    _ => false,
                });
                if fits && *exists_only {
                    return next(env); // one witness, nothing bound
                } else if fits {
                    next(&bound);
                }
            }
        }
        Step::Neg { pred, args } => {
            let tuple: Tuple = args.iter().map(|t| term_value(t, env).unwrap()).collect();
            if !db.relation(pred).is_some_and(|r| r.scan().contains(&tuple)) {
                next(env);
            }
        }
        Step::Assign { var, term } => match (term_value(term, env), env.get(var)) {
            (None, _) => {}
            (Some(v), Some(old)) => {
                if old.num_eq(&v) {
                    next(env);
                }
            }
            (Some(v), None) => {
                let mut bound = env.clone();
                bound.insert(var.clone(), v);
                next(&bound);
            }
        },
        Step::Filter { lhs, op, rhs } => {
            let (Some(a), Some(b)) = (term_value(lhs, env), term_value(rhs, env)) else {
                return;
            };
            let holds = match (*op, a.num_cmp(&b)) {
                (CmpOp::Eq, _) => a.num_eq(&b),
                (CmpOp::Ne, _) => !a.num_eq(&b),
                (CmpOp::Lt, Some(Less)) | (CmpOp::Gt, Some(Greater)) => true,
                (CmpOp::Le, Some(Less | Equal)) | (CmpOp::Ge, Some(Greater | Equal)) => true,
                _ => false,
            };
            if holds {
                next(env);
            }
        }
        Step::Udf { .. } => unreachable!("the generator emits no UDF calls"),
    }
}

/// What the semi-naive schedule of a one-rule program over EDB relations
/// does with `batches`, by the reference: the head relation in scan order
/// and the logical counters.
fn model(rule: &AnalyzedRule, batches: &[Vec<(&str, Tuple)>], loc: Option<&Value>) -> (Vec<Tuple>, EvalStats) {
    let (mut db, mut head, mut stats) = (Database::new(), Vec::new(), EvalStats::default());
    let mut consumed: BTreeMap<String, usize> = BTreeMap::new();
    let env: Env = loc.map(|v| (rule.head_loc.clone(), v.clone())).into_iter().collect();
    for batch in batches {
        for (pred, tuple) in batch {
            db.insert(pred, tuple.clone());
        }
        let mut grew = false;
        for variant in &rule.pivot_variants {
            let Step::Scan { pred, .. } = &variant.steps[0] else {
                unreachable!("a pivot variant starts with its scan")
            };
            let window = consumed.get(pred).copied().unwrap_or(0)..db.len(pred);
            if window.is_empty() {
                continue;
            }
            grew = true;
            stats.rule_firings += 1;
            stats.delta_tuples += window.len() as u64;
            let mut derived = Vec::new();
            reference(rule, &variant.steps, 0, &db, Some(&window), &env, &mut derived);
            stats.derived_tuples += derived.len() as u64;
            for tuple in derived {
                if !head.contains(&tuple) {
                    head.push(tuple);
                }
            }
        }
        for (name, rel) in db.iter() {
            consumed.insert(name.to_string(), rel.len());
        }
        // The round that found the deltas, and the one that finds none.
        stats.fixpoint_rounds += 1 + u64::from(grew);
    }
    (head, stats)
}

const RELATIONS: [(&str, usize); 3] = [("a", 2), ("b", 2), ("c", 3)];
const VARS: [&str; 4] = ["x", "y", "z", "w"];

/// A random safe rule as source text; returns whether it negates.
fn random_rule(rng: &mut StdRng) -> (String, bool) {
    let mut body = Vec::new();
    let mut bound: Vec<&str> = Vec::new();
    for scan in 0..rng.gen_range(1..4u32) {
        let (name, arity) = RELATIONS[rng.gen_range(0..3usize)];
        let args: Vec<String> = (0..arity)
            .map(|col| {
                // Integer constants in the location column would be
                // coerced to vertex ids; the data is all integers.
                if col > 0 && rng.gen_bool(0.3) {
                    return rng.gen_range(0..4u32).to_string();
                }
                let var = if scan == 0 && col == 0 { "x" } else { VARS[rng.gen_range(0..4usize)] };
                bound.push(var);
                var.to_string()
            })
            .collect();
        body.push(format!("{name}({})", args.join(", ")));
    }
    let pick = |rng: &mut StdRng| bound[rng.gen_range(0..bound.len())];
    let negates = rng.gen_bool(0.4);
    if negates {
        let (name, arity) = RELATIONS[rng.gen_range(0..3usize)];
        let args: Vec<String> = (0..arity)
            .map(|col| match col > 0 && rng.gen_bool(0.3) {
                true => rng.gen_range(0..4u32).to_string(),
                false => pick(rng).to_string(),
            })
            .collect();
        body.push(format!("!{name}({})", args.join(", ")));
    }
    if rng.gen_bool(0.4) {
        let op = ["<", "<=", "!=", ">", ">=", "="][rng.gen_range(0..6usize)];
        let rhs = match rng.gen::<bool>() {
            true => pick(rng).to_string(),
            false => rng.gen_range(0..4u32).to_string(),
        };
        body.push(format!("{} {op} {rhs}", pick(rng)));
    }
    let mut head = vec!["x".to_string(), pick(rng).to_string()];
    if rng.gen_bool(0.4) {
        body.push(format!("n = {} + {}", pick(rng), rng.gen_range(0..3u32)));
        head.push("n".to_string());
    }
    // Body literals in any order: analysis finds the safe one.
    for i in (1..body.len()).rev() {
        body.swap(i, rng.gen_range(0..=i));
    }
    (format!("h({}) :- {}.", head.join(", "), body.join(", ")), negates)
}

/// Random tuples for the three relations, in one random arrival order.
/// Five values in every column: `a` and `b` reach 25 distinct tuples, `c`
/// more, so relations end up on both sides of the small-relation cut-off.
fn random_arrivals(rng: &mut StdRng) -> Vec<(&'static str, Tuple)> {
    let n = rng.gen_range(0..60usize);
    (0..n)
        .map(|_| {
            let (name, arity) = RELATIONS[rng.gen_range(0..3usize)];
            let tuple = (0..arity).map(|_| Value::Int(rng.gen_range(0..5i64))).collect();
            (name, tuple)
        })
        .collect()
}

fn split<T: Clone>(items: &[T], rng: &mut StdRng) -> Vec<Vec<T>> {
    let mut batches = vec![Vec::new()];
    for item in items {
        if rng.gen_range(0..6u32) == 0 {
            batches.push(Vec::new());
        }
        batches.last_mut().unwrap().push(item.clone());
    }
    batches
}

/// Feed `batches` through `step`, one call per batch, working in
/// `scratch` or else in a fresh one per call.
fn evaluate(
    ev: &Evaluator,
    batches: &[Vec<(&str, Tuple)>],
    loc: Option<&Value>,
    mut scratch: Option<&mut EvalScratch>,
) -> (Vec<Tuple>, EvalStats) {
    let (mut db, mut state, mut stats) = (Database::new(), EvalState::default(), EvalStats::default());
    for batch in batches {
        for (pred, tuple) in batch {
            db.insert(pred, tuple.clone());
        }
        match scratch.as_deref_mut() {
            Some(warm) => ev.step(&mut db, &mut state, loc, &mut stats, warm),
            None => ev.step(
                &mut db,
                &mut state,
                loc,
                &mut stats,
                &mut EvalScratch::default(),
            ),
        }
        .unwrap();
    }
    let head = db.relation("h").map_or(Vec::new(), |r| r.scan().to_vec());
    (head, stats)
}

fn logical(stats: &EvalStats) -> [u64; 4] {
    [stats.rule_firings, stats.derived_tuples, stats.delta_tuples, stats.fixpoint_rounds]
}

/// Run `property` on `cases` generators, case `k` seeded with `seed ^ k`;
/// a failing case panics with its test name, index and seed.
fn check(name: &str, seed: u64, cases: u64, property: impl Fn(&mut StdRng)) {
    for case in 0..cases {
        let seed = seed ^ case;
        let run = || property(&mut StdRng::seed_from_u64(seed));
        if catch_unwind(AssertUnwindSafe(run)).is_err() {
            panic!("{name} failed at case {case} (seed {seed:#x})");
        }
    }
}

#[test]
fn evaluator_agrees_with_nested_loops() {
    check("evaluator_agrees_with_nested_loops", 0xe7a1_0001, 400, |rng| {
        let (src, negates) = random_rule(rng);
        let mut catalog = Catalog::standard();
        for (name, arity) in RELATIONS {
            catalog.register(name, arity);
        }
        let query = analyze(&parse(&src).unwrap(), &catalog, &Params::new())
            .unwrap_or_else(|e| panic!("generated an unsafe rule {src}: {e}"));
        let rule = query.rules[0].clone();
        let ev = Evaluator::new(query, UdfRegistry::standard());
        let arrivals = random_arrivals(rng);
        let one_shot = vec![arrivals.clone()];
        // One scratch across every evaluation of the case, as a worker
        // keeps one across vertices.
        let mut warm = EvalScratch::default();

        // `run` against plain nested loops over the rule's own step order.
        let mut db = Database::new();
        for (pred, tuple) in &arrivals {
            db.insert(pred, tuple.clone());
        }
        let mut expect = Vec::new();
        reference(&rule, &rule.steps, 0, &db, None, &Env::new(), &mut expect);
        let expect: BTreeSet<Tuple> = expect.into_iter().collect();
        ev.run(&mut db).unwrap();
        let ran: BTreeSet<Tuple> = db.sorted("h").into_iter().collect();
        assert_eq!(ran, expect, "run of `{src}`");

        let batches = split(&arrivals, rng);
        for loc in [None, Some(Value::Int(rng.gen_range(0..5i64)))] {
            let expect_here: BTreeSet<Tuple> = expect
                .iter()
                .filter(|t| loc.as_ref().is_none_or(|l| t[0] == *l))
                .cloned()
                .collect();
            for batches in [&one_shot, &batches] {
                let (head, stats) = evaluate(&ev, batches, loc.as_ref(), None);
                let (model_head, model_stats) = model(&rule, batches, loc.as_ref());
                assert_eq!(head, model_head, "scan order of `{src}`");
                assert_eq!(logical(&stats), logical(&model_stats), "counters of `{src}`");
                // The scratch a call works in is not observable.
                let again = evaluate(&ev, batches, loc.as_ref(), Some(&mut warm));
                assert_eq!(again, (head.clone(), stats), "warm-scratch run of `{src}`");
                // Negation is not monotone: a split may derive what the
                // whole would not. Without it the set is the one-shot's.
                if !negates {
                    let head: BTreeSet<Tuple> = head.into_iter().collect();
                    assert_eq!(head, expect_here, "split set of `{src}`");
                }
            }
        }
    });
}

/// The reference for a whole program: strata in the analysis' order, each
/// naively — fire every rule of the stratum over the whole database by
/// nested loops, add what is new, repeat until a round adds nothing.
fn reference_fixpoint(query: &AnalyzedQuery, db: &mut Database) {
    for stratum in &query.strata {
        loop {
            let mut derived = Vec::new();
            for &ri in stratum {
                let rule = &query.rules[ri];
                let mut out = Vec::new();
                reference(rule, &rule.steps, 0, db, None, &Env::new(), &mut out);
                derived.extend(out.into_iter().map(|t| (rule.pred.as_str(), t)));
            }
            let mut grew = false;
            for (pred, tuple) in derived {
                grew |= db.insert(pred, tuple);
            }
            if !grew {
                break;
            }
        }
    }
}

/// Every IDB relation of `query` in `db`, sorted.
fn idb_sets(query: &AnalyzedQuery, db: &Database) -> BTreeMap<String, Vec<Tuple>> {
    query.idbs.keys().map(|name| (name.clone(), db.sorted(name))).collect()
}

/// A random safe rule `head(x, _) :- scans[, !negated][, filter].` as
/// source text. The first scan's location is `x`; other columns are
/// variables or, off the location column, constants. The negated atom and
/// the filter read only variables the scans bind. No arithmetic, so a
/// recursive rule derives over a finite domain.
fn random_rule_over(
    rng: &mut StdRng,
    head: &str,
    scans: &[(&str, usize)],
    negated: Option<(&str, usize)>,
) -> String {
    let mut body = Vec::new();
    let mut bound: Vec<&str> = Vec::new();
    for (i, &(name, arity)) in scans.iter().enumerate() {
        let args: Vec<String> = (0..arity)
            .map(|col| {
                if col > 0 && rng.gen_bool(0.3) {
                    return rng.gen_range(0..4u32).to_string();
                }
                let var = if i == 0 && col == 0 { "x" } else { VARS[rng.gen_range(0..4usize)] };
                bound.push(var);
                var.to_string()
            })
            .collect();
        body.push(format!("{name}({})", args.join(", ")));
    }
    let pick = |rng: &mut StdRng| bound[rng.gen_range(0..bound.len())];
    if let Some((name, arity)) = negated {
        let args: Vec<String> = (0..arity)
            .map(|col| match col > 0 && rng.gen_bool(0.3) {
                true => rng.gen_range(0..4u32).to_string(),
                false => pick(rng).to_string(),
            })
            .collect();
        body.push(format!("!{name}({})", args.join(", ")));
    }
    if rng.gen_bool(0.3) {
        let op = ["<", "<=", "!=", ">", ">=", "="][rng.gen_range(0..6usize)];
        body.push(format!("{} {op} {}", pick(rng), pick(rng)));
    }
    for i in (1..body.len()).rev() {
        body.swap(i, rng.gen_range(0..=i));
    }
    format!("{head}(x, {}) :- {}.", pick(rng), body.join(", "))
}

/// A random stratified program of 2–4 rules over the IDBs `r`, `s` and
/// `t`: a base rule and a recursive positive rule for `r` (linear or not,
/// with or without an EDB join), optionally one more positive rule
/// (another base rule for `r`, or `s` over `r`), and optionally a rule
/// for `t` negating `r` or `s`, which puts it a stratum above them.
/// Returns whether it negates.
fn random_program(rng: &mut StdRng) -> (String, bool) {
    let edb = |rng: &mut StdRng| RELATIONS[rng.gen_range(0..3usize)];
    let mut idbs = vec![("r", 2)];
    let base: Vec<_> = (0..rng.gen_range(1..3)).map(|_| edb(rng)).collect();
    let mut rules = vec![random_rule_over(rng, "r", &base, None)];
    let mut rec = vec![("r", 2)];
    if rng.gen_bool(0.2) {
        rec.push(("r", 2));
    }
    if rng.gen_bool(0.7) {
        rec.push(edb(rng));
    }
    let first = rng.gen_range(0..rec.len());
    rec.swap(0, first);
    rules.push(random_rule_over(rng, "r", &rec, None));
    if rng.gen_bool(0.5) {
        if rng.gen() {
            let scan = edb(rng);
            rules.push(random_rule_over(rng, "r", &[scan], None));
        } else {
            let mut scans = vec![("r", 2)];
            if rng.gen() {
                scans.push(edb(rng));
            }
            rules.push(random_rule_over(rng, "s", &scans, None));
            idbs.push(("s", 2));
        }
    }
    let negates = rng.gen_bool(0.5);
    if negates {
        let any = |rng: &mut StdRng| match rng.gen_bool(0.5) {
            true => idbs[rng.gen_range(0..idbs.len())],
            false => edb(rng),
        };
        let scans: Vec<_> = (0..rng.gen_range(1..3)).map(|_| any(rng)).collect();
        let negated = idbs[rng.gen_range(0..idbs.len())];
        rules.push(random_rule_over(rng, "t", &scans, Some(negated)));
    }
    (rules.join("\n"), negates)
}

#[test]
fn stratified_programs_agree_with_iterated_nested_loops() {
    check("stratified_programs_agree_with_iterated_nested_loops", 0xe7a1_0002, 300, |rng| {
        let (src, negates) = random_program(rng);
        let mut catalog = Catalog::standard();
        for (name, arity) in RELATIONS {
            catalog.register(name, arity);
        }
        let query = analyze(&parse(&src).unwrap(), &catalog, &Params::new())
            .unwrap_or_else(|e| panic!("generated an unsafe program {src}: {e}"));
        let ev = Evaluator::new(query.clone(), UdfRegistry::standard());
        let arrivals = random_arrivals(rng);
        let mut edb = Database::new();
        for (pred, tuple) in &arrivals {
            edb.insert(pred, tuple.clone());
        }

        let mut expect = edb.clone();
        reference_fixpoint(&query, &mut expect);
        let mut ran = edb;
        ev.run(&mut ran).unwrap();
        let one_shot = idb_sets(&query, &ran);
        assert_eq!(one_shot, idb_sets(&query, &expect), "run of\n{src}");

        // Negation is not monotone, so only a positive program may take
        // its EDB in any number of steps and land on the same sets.
        if !negates {
            let (mut db, mut state) = (Database::new(), EvalState::default());
            let (mut stats, mut scratch) = (EvalStats::default(), EvalScratch::default());
            for batch in split(&arrivals, rng) {
                for (pred, tuple) in batch {
                    db.insert(pred, tuple);
                }
                ev.step(&mut db, &mut state, None, &mut stats, &mut scratch).unwrap();
            }
            assert_eq!(idb_sets(&query, &db), one_shot, "stepped run of\n{src}");
        }
    });
}
