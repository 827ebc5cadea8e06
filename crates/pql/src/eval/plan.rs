//! Rule plans: an analyzed rule body compiled for the join loop.
//!
//! Analysis leaves a rule as a list of [`Step`]s over variable and
//! predicate *names*. A `RulePlan` is that list with every name resolved
//! once, when the [`crate::Evaluator`] is built:
//!
//! * variables are numbered to dense **slots** of one frame (a
//!   `Vec<Value>` owned by the [`EvalScratch`]). Whether a variable is
//!   bound at a step is static — it depends only on the step order and on
//!   whether the head location is seeded — so a scan knows at compile time
//!   which of its columns filter (`bound`), which bind (`binds`) and which
//!   repeat a variable bound earlier in the same atom (`same`). Binding
//!   overwrites the slot; backtracking needs no undo, because a slot is
//!   only read by steps after the one that writes it.
//! * predicates are numbered by a `Preds` table; the evaluator resolves
//!   the table to relation positions once per step call, so the loop
//!   reaches a relation by index.
//! * terms, negations, UDF calls and the head projection read slots
//!   directly. A negation probes the relation with the slots as key; no
//!   tuple is built for it.
//!
//! Semi-naive evaluation restricts the first scan of a plan to a delta
//! *window* of row indices. That scan walks its window and checks the
//! bound columns on each row — O(|Δ|) — instead of probing an index and
//! discarding what falls outside the window, which would walk the whole
//! history of a per-vertex relation at every superstep.
//!
//! Every scan visits rows in ascending order, so valuations come out in
//! the order the interpreted loop produced them and derived tuples are
//! inserted in the same order.

use crate::analysis::{AnalyzedRule, Step};
use crate::ast::{ArithOp, CmpOp, HeadArg, Term};
use crate::error::PqlError;
use crate::eval::database::Database;
use crate::eval::relation::Relation;
use crate::eval::udf::{Udf, UdfRegistry};
use crate::eval::value::{arith, Value};
use std::borrow::Cow;
use std::ops::Range;

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

/// Position of a predicate whose relation the database does not hold.
const ABSENT: u32 = u32::MAX;

/// The predicates a set of plans reads and writes, numbered densely in
/// order of first mention.
#[derive(Clone, Debug, Default)]
pub(crate) struct Preds {
    names: Vec<String>,
    arities: Vec<usize>,
}

impl Preds {
    /// The id of `name`, added to the table if new.
    pub(crate) fn intern(&mut self, name: &str, arity: usize) -> usize {
        if let Some(id) = self.names.iter().position(|n| n == name) {
            return id;
        }
        self.names.push(name.to_string());
        self.arities.push(arity);
        self.names.len() - 1
    }

    /// Bring `at` (predicate id → position of its relation in `db`) up to
    /// date. An entry left by an earlier call is kept when the relation
    /// at that position still carries the predicate's name, so a steady
    /// state costs one string comparison per predicate.
    pub(crate) fn locate(&self, db: &Database, at: &mut Vec<u32>) {
        at.resize(self.names.len(), ABSENT);
        for (name, pos) in self.names.iter().zip(at.iter_mut()) {
            if db.name_at(*pos as usize) != Some(name.as_str()) {
                *pos = db.position(name).map_or(ABSENT, |p| {
                    u32::try_from(p).expect("a database holds fewer than 2^32 relations")
                });
            }
        }
    }

    /// The relation of predicate `id` for a head insert, created if `db`
    /// does not hold it yet (which moves other relations: `at` is brought
    /// up to date again).
    pub(crate) fn head_mut<'d>(
        &self,
        id: usize,
        db: &'d mut Database,
        at: &mut Vec<u32>,
    ) -> &'d mut Relation {
        if at[id] == ABSENT {
            db.relation_mut(&self.names[id], self.arities[id]);
            self.locate(db, at);
        }
        db.at_mut(at[id] as usize)
    }
}

/// The relation of predicate `id`, if the database holds one.
fn relation<'d>(db: &'d Database, at: &[u32], id: usize) -> Option<&'d Relation> {
    match at[id] {
        ABSENT => None,
        pos => Some(db.at(pos as usize)),
    }
}

/// Tuples in the relation of predicate `id` (0 if absent).
pub(crate) fn relation_len(db: &Database, at: &[u32], id: usize) -> usize {
    relation(db, at, id).map_or(0, Relation::len)
}

/// A value a scan column or a negation is matched against.
#[derive(Clone, Debug)]
enum Operand {
    Slot(usize),
    Const(Value),
}

impl Operand {
    fn get<'v>(&'v self, frame: &'v [Value]) -> &'v Value {
        match self {
            Operand::Slot(s) => &frame[*s],
            Operand::Const(v) => v,
        }
    }
}

/// A term over frame slots.
#[derive(Clone, Debug)]
enum PlanTerm {
    Slot(usize),
    Const(Value),
    Arith(Box<PlanTerm>, ArithOp, Box<PlanTerm>),
    /// A variable no earlier step binds, or an unsubstituted parameter.
    /// Analysis rules both out; like the interpreter before it, the plan
    /// treats the term as having no value rather than trusting that.
    Unbound,
}

impl PlanTerm {
    /// The term's value; `None` for non-numeric arithmetic.
    fn eval<'v>(&'v self, frame: &'v [Value]) -> Option<Cow<'v, Value>> {
        match self {
            PlanTerm::Slot(s) => Some(Cow::Borrowed(&frame[*s])),
            PlanTerm::Const(v) => Some(Cow::Borrowed(v)),
            PlanTerm::Arith(l, op, r) => {
                let (a, b) = (l.eval(frame)?, r.eval(frame)?);
                arith(*op, &a, &b).map(Cow::Owned)
            }
            PlanTerm::Unbound => None,
        }
    }
}

/// A join against one relation.
#[derive(Clone, Debug)]
struct ScanPlan {
    pred: usize,
    /// Columns that filter, ascending — `bound` without its operands, the
    /// shape [`Relation::probe`] takes.
    cols: Vec<usize>,
    /// Per filtering column: what the row must hold there.
    bound: Vec<(usize, Operand)>,
    /// `(column, slot)`: first occurrence of a variable this scan binds.
    binds: Vec<(usize, usize)>,
    /// `(column, earlier column)`: a variable this scan binds, repeated.
    same: Vec<(usize, usize)>,
    /// One witness is enough and nothing is bound (a semi-join).
    exists_only: bool,
}

impl ScanPlan {
    fn matches(&self, tuple: &[Value], frame: &[Value]) -> bool {
        self.bound.iter().all(|(c, op)| tuple[*c] == *op.get(frame)) && self.repeats_agree(tuple)
    }

    fn repeats_agree(&self, tuple: &[Value]) -> bool {
        self.same.iter().all(|&(c, first)| tuple[c] == tuple[first])
    }
}

#[derive(Clone)]
enum PlanStep {
    Scan(ScanPlan),
    /// No tuple of `pred` may equal `args`; `cols` is `0..arity`.
    Neg {
        pred: usize,
        cols: Vec<usize>,
        args: Vec<Operand>,
    },
    /// Bind `slot`, or when an earlier step bound it (`check`), require
    /// numeric equality.
    Assign {
        slot: usize,
        term: PlanTerm,
        check: bool,
    },
    Filter {
        lhs: PlanTerm,
        op: CmpOp,
        rhs: PlanTerm,
    },
    Udf {
        func: Udf,
        args: Vec<PlanTerm>,
    },
    /// A step that cannot run — an unknown UDF, a negation over a
    /// variable nothing binds. Reported when a valuation reaches it, as
    /// the interpreter did, so a rule that never gets that far is not an
    /// error.
    Fail(String),
}

/// One step order of one rule, compiled. See the module docs.
#[derive(Clone)]
pub(crate) struct RulePlan {
    steps: Vec<PlanStep>,
    /// Head arguments in order; for an aggregate head, the term under
    /// each aggregate.
    head: Vec<PlanTerm>,
    slots: usize,
    /// The head location's slot when this plan expects it seeded.
    seeded: Option<usize>,
    line: usize,
}

impl RulePlan {
    /// Compile `steps` — the rule's own order, a pivot variant, or a
    /// rewritten variant of either — for evaluation with (`seeded`) or
    /// without the head location pre-bound.
    pub(crate) fn compile(
        rule: &AnalyzedRule,
        steps: &[Step],
        seeded: bool,
        udfs: &UdfRegistry,
        preds: &mut Preds,
    ) -> RulePlan {
        let mut vars = Vars::default();
        let loc = vars.slot(&rule.head_loc);
        vars.bound[loc] = seeded;
        let steps = steps
            .iter()
            .map(|step| compile_step(step, &mut vars, udfs, preds))
            .collect();
        let head = rule
            .head_args
            .iter()
            .map(|arg| match arg {
                HeadArg::Plain(t) | HeadArg::Agg(_, t) => vars.term(t),
            })
            .collect();
        RulePlan {
            steps,
            head,
            slots: vars.names.len(),
            seeded: seeded.then_some(loc),
            line: rule.line,
        }
    }

    /// Values per head projection.
    pub(crate) fn head_arity(&self) -> usize {
        self.head.len()
    }

    /// Enumerate the valuations of the body over `db` and leave the head
    /// projection of each in `scratch.derived`. `loc` seeds the head
    /// location (the plan must have been compiled for that); `window`
    /// restricts the first step, a scan, to those rows.
    ///
    /// Returns whether some projection had no value (non-numeric
    /// arithmetic in the head); such valuations are skipped.
    pub(crate) fn fire(
        &self,
        db: &Database,
        at: &[u32],
        loc: Option<&Value>,
        window: Option<Range<usize>>,
        scratch: &mut EvalScratch,
    ) -> Result<bool, PqlError> {
        debug_assert_eq!(loc.is_some(), self.seeded.is_some());
        scratch.derived.clear();
        scratch.touch(FRAME);
        // Slots are written before they are read, so whatever an earlier
        // firing left in the frame is never seen.
        let mut frame = std::mem::take(&mut scratch.frame);
        if frame.len() < self.slots {
            frame.resize(self.slots, Value::Unit);
        }
        if let (Some(slot), Some(v)) = (self.seeded, loc) {
            frame[slot] = v.clone();
        }
        let mut run = Run {
            plan: self,
            db,
            at,
            window,
            frame,
            head_failed: false,
            scratch,
        };
        let result = run.advance(0);
        let (frame, head_failed) = (run.frame, run.head_failed);
        scratch.frame = frame;
        result.map(|()| head_failed)
    }
}

/// Variable numbering and static boundness while compiling one plan.
#[derive(Default)]
struct Vars<'r> {
    names: Vec<&'r str>,
    bound: Vec<bool>,
}

impl<'r> Vars<'r> {
    fn slot(&mut self, name: &'r str) -> usize {
        if let Some(s) = self.names.iter().position(|n| *n == name) {
            return s;
        }
        self.names.push(name);
        self.bound.push(false);
        self.names.len() - 1
    }

    fn term(&mut self, term: &'r Term) -> PlanTerm {
        match term {
            Term::Var(v) => {
                let s = self.slot(v);
                if self.bound[s] {
                    PlanTerm::Slot(s)
                } else {
                    PlanTerm::Unbound
                }
            }
            Term::Const(c) => PlanTerm::Const(c.clone()),
            Term::Param(_) => PlanTerm::Unbound, // substituted away during analysis
            Term::Arith(l, op, r) => {
                PlanTerm::Arith(Box::new(self.term(l)), *op, Box::new(self.term(r)))
            }
        }
    }
}

fn compile_step<'r>(
    step: &'r Step,
    vars: &mut Vars<'r>,
    udfs: &UdfRegistry,
    preds: &mut Preds,
) -> PlanStep {
    match step {
        Step::Scan {
            pred,
            args,
            exists_only,
        } => {
            let mut scan = ScanPlan {
                pred: preds.intern(pred, args.len()),
                cols: Vec::new(),
                bound: Vec::new(),
                binds: Vec::new(),
                same: Vec::new(),
                exists_only: *exists_only,
            };
            for (col, arg) in args.iter().enumerate() {
                let operand = match arg {
                    Term::Const(c) => Operand::Const(c.clone()),
                    Term::Var(v) => {
                        let slot = vars.slot(v);
                        if vars.bound[slot] {
                            Operand::Slot(slot)
                        } else {
                            // A semi-join's free variables occur nowhere
                            // else: nothing to bind or to compare.
                            if !exists_only {
                                match scan.binds.iter().find(|&&(_, s)| s == slot) {
                                    Some(&(first, _)) => scan.same.push((col, first)),
                                    None => scan.binds.push((col, slot)),
                                }
                            }
                            continue;
                        }
                    }
                    other => {
                        return PlanStep::Fail(format!(
                            "unexpected term {other:?} in scan of {pred:?}"
                        ))
                    }
                };
                scan.cols.push(col);
                scan.bound.push((col, operand));
            }
            for &(_, slot) in &scan.binds {
                vars.bound[slot] = true;
            }
            PlanStep::Scan(scan)
        }
        Step::Neg { pred, args } => {
            let operands: Option<Vec<Operand>> = args
                .iter()
                .map(|arg| match vars.term(arg) {
                    PlanTerm::Slot(s) => Some(Operand::Slot(s)),
                    PlanTerm::Const(c) => Some(Operand::Const(c)),
                    PlanTerm::Arith(..) | PlanTerm::Unbound => None,
                })
                .collect();
            match operands {
                Some(operands) => PlanStep::Neg {
                    pred: preds.intern(pred, args.len()),
                    cols: (0..args.len()).collect(),
                    args: operands,
                },
                None => PlanStep::Fail(format!(
                    "negation over {pred:?} with unbound variables"
                )),
            }
        }
        Step::Assign { var, term } => {
            let term = vars.term(term);
            let slot = vars.slot(var);
            let check = std::mem::replace(&mut vars.bound[slot], true);
            PlanStep::Assign { slot, term, check }
        }
        Step::Filter { lhs, op, rhs } => PlanStep::Filter {
            lhs: vars.term(lhs),
            op: *op,
            rhs: vars.term(rhs),
        },
        Step::Udf { name, args } => match udfs.get(name) {
            Some(func) => PlanStep::Udf {
                func: func.clone(),
                args: args.iter().map(|t| vars.term(t)).collect(),
            },
            None => PlanStep::Fail(format!("unknown predicate or UDF {name:?}")),
        },
    }
}

/// Scratch buffer ids for [`EvalScratch::touch`]; candidate buffers follow
/// at `CANDIDATES + depth`.
const FRAME: usize = 0;
const UDF_ARGS: usize = 1;
const CANDIDATES: usize = 2;

/// The buffers rule evaluation works in: the variable frame, the derived
/// head projections of the firing under way, UDF arguments, and per join
/// depth the matches of an index probe.
///
/// Every [`crate::Evaluator::step`] works in the caller's. A driver that
/// evaluates many small databases in a row (one per vertex per superstep)
/// keeps one per worker: once the buffers have grown to the query's size,
/// evaluation allocates only the tuples it stores.
#[derive(Default)]
pub struct EvalScratch {
    frame: Vec<Value>,
    /// Head projections, `head_arity` values each, in valuation order.
    pub(crate) derived: Vec<Value>,
    udf_args: Vec<Value>,
    candidates: Vec<Vec<usize>>,
    /// Relation lengths at the start of a fixpoint round.
    pub(crate) ends: Vec<usize>,
    /// Bit `b`: buffer `b` has been used since [`EvalScratch::begin`].
    touched: u64,
    /// Buffer uses since [`EvalScratch::begin`]: first of a buffer, later.
    pub(crate) first_uses: u64,
    pub(crate) repeat_uses: u64,
    /// Rows visited by windowed scans (checks that a pivot costs O(|Δ|)).
    #[cfg(test)]
    pub(crate) pivot_rows: u64,
}

impl EvalScratch {
    /// Start counting buffer uses for one step call. The counts describe
    /// the call, not the scratch's history, so they do not depend on which
    /// worker's scratch a vertex happened to be evaluated with.
    pub(crate) fn begin(&mut self) {
        self.touched = 0;
        self.first_uses = 0;
        self.repeat_uses = 0;
    }

    fn touch(&mut self, buffer: usize) {
        let bit = 1u64 << buffer.min(63);
        if self.touched & bit == 0 {
            self.touched |= bit;
            self.first_uses += 1;
        } else {
            self.repeat_uses += 1;
        }
    }
}

/// One firing of a plan.
struct Run<'a> {
    plan: &'a RulePlan,
    db: &'a Database,
    at: &'a [u32],
    window: Option<Range<usize>>,
    frame: Vec<Value>,
    head_failed: bool,
    scratch: &'a mut EvalScratch,
}

impl Run<'_> {
    /// Run the plan from step `depth` on, under the bindings the earlier
    /// steps left in the frame.
    fn advance(&mut self, depth: usize) -> Result<(), PqlError> {
        let (plan, db) = (self.plan, self.db);
        let Some(step) = plan.steps.get(depth) else {
            self.project();
            return Ok(());
        };
        match step {
            PlanStep::Scan(scan) => {
                let Some(rel) = relation(db, self.at, scan.pred) else {
                    return Ok(()); // empty relation: no valuations
                };
                let window = if depth == 0 { self.window.clone() } else { None };
                if window.is_none() && !scan.cols.is_empty() && rel.is_indexed() {
                    return self.probe(depth, scan, rel);
                }
                // Walk a row range and check the bound columns per row:
                // the delta window of a pivot, all of an unkeyed scan, or
                // a relation small enough to have no index.
                let rows = match &window {
                    Some(w) => w.start.min(rel.len())..w.end.min(rel.len()),
                    None => 0..rel.len(),
                };
                for row in rows {
                    #[cfg(test)]
                    if window.is_some() {
                        self.scratch.pivot_rows += 1;
                    }
                    let tuple = rel.get(row);
                    if !scan.matches(tuple, &self.frame) {
                        continue;
                    }
                    if scan.exists_only {
                        return self.advance(depth + 1);
                    }
                    self.bind(scan, tuple);
                    self.advance(depth + 1)?;
                }
                Ok(())
            }
            PlanStep::Neg { pred, cols, args } => {
                let frame = &self.frame;
                let present = relation(db, self.at, *pred)
                    .is_some_and(|rel| rel.probe(cols, |i| args[i].get(frame), |_| true));
                if present {
                    Ok(())
                } else {
                    self.advance(depth + 1)
                }
            }
            PlanStep::Assign { slot, term, check } => {
                let Some(value) = term.eval(&self.frame) else {
                    return Ok(()); // non-numeric arithmetic: no valuation
                };
                if *check {
                    if !self.frame[*slot].num_eq(&value) {
                        return Ok(());
                    }
                } else {
                    self.frame[*slot] = value.into_owned();
                }
                self.advance(depth + 1)
            }
            PlanStep::Filter { lhs, op, rhs } => {
                let (Some(a), Some(b)) = (lhs.eval(&self.frame), rhs.eval(&self.frame)) else {
                    return Ok(());
                };
                if eval_compare(&a, *op, &b) {
                    self.advance(depth + 1)
                } else {
                    Ok(())
                }
            }
            PlanStep::Udf { func, args } => {
                self.scratch.touch(UDF_ARGS);
                let mut vals = std::mem::take(&mut self.scratch.udf_args);
                vals.clear();
                let frame = &self.frame;
                vals.extend(args.iter().map_while(|t| t.eval(frame).map(Cow::into_owned)));
                let holds = vals.len() == args.len() && func(&vals);
                vals.clear();
                self.scratch.udf_args = vals;
                if holds {
                    self.advance(depth + 1)
                } else {
                    Ok(())
                }
            }
            PlanStep::Fail(why) => Err(PqlError::analysis(plan.line, why.clone())),
        }
    }

    /// A keyed scan of an indexed relation. The matches are collected
    /// before advancing: the index borrow must end first, because a
    /// deeper scan of the same relation (a self-join) may build an index.
    fn probe(&mut self, depth: usize, scan: &ScanPlan, rel: &Relation) -> Result<(), PqlError> {
        let frame = &self.frame;
        let key = |i: usize| scan.bound[i].1.get(frame);
        if scan.exists_only {
            return match rel.probe(&scan.cols, key, |_| true) {
                true => self.advance(depth + 1),
                false => Ok(()),
            };
        }
        self.scratch.touch(CANDIDATES + depth);
        if self.scratch.candidates.len() <= depth {
            self.scratch.candidates.resize_with(depth + 1, Vec::new);
        }
        let mut rows = std::mem::take(&mut self.scratch.candidates[depth]);
        rows.clear();
        rel.probe(&scan.cols, key, |row| {
            rows.push(row);
            false
        });
        let mut result = Ok(());
        for &row in &rows {
            let tuple = rel.get(row);
            if !scan.repeats_agree(tuple) {
                continue;
            }
            self.bind(scan, tuple);
            result = self.advance(depth + 1);
            if result.is_err() {
                break;
            }
        }
        self.scratch.candidates[depth] = rows;
        result
    }

    fn bind(&mut self, scan: &ScanPlan, tuple: &[Value]) {
        for &(col, slot) in &scan.binds {
            self.frame[slot] = tuple[col].clone();
        }
    }

    /// A valuation is complete: append its head projection.
    fn project(&mut self) {
        let derived = &mut self.scratch.derived;
        let start = derived.len();
        for term in &self.plan.head {
            match term.eval(&self.frame) {
                Some(v) => derived.push(v.into_owned()),
                None => {
                    derived.truncate(start);
                    self.head_failed = true;
                    return;
                }
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

    /// Head projections of the first rule of `q` over `db`, in valuation
    /// order.
    fn fire(
        q: &crate::AnalyzedQuery,
        db: &Database,
        loc: Option<Value>,
        window: Option<Range<usize>>,
    ) -> Result<Vec<Vec<Value>>, PqlError> {
        let rule = &q.rules[0];
        let mut preds = Preds::default();
        let plan = RulePlan::compile(
            rule,
            &rule.steps,
            loc.is_some(),
            &UdfRegistry::standard(),
            &mut preds,
        );
        let mut at = Vec::new();
        preds.locate(db, &mut at);
        let mut scratch = EvalScratch::default();
        plan.fire(db, &at, loc.as_ref(), window, &mut scratch)?;
        Ok(scratch
            .derived
            .chunks(plan.head_arity())
            .map(<[Value]>::to_vec)
            .collect())
    }

    fn ids(rows: &[Vec<Value>], col: usize) -> Vec<u64> {
        rows.iter().map(|r| r[col].as_id().unwrap()).collect()
    }

    #[test]
    fn joins_bind_variables() {
        let q = rule("two_hop(x, z) :- edge(x, y), edge(y, z).");
        let db = db_with_edges(&[(1, 2), (2, 3), (2, 4)]);
        let rows = fire(&q, &db, None, None).unwrap();
        assert_eq!(ids(&rows, 1), vec![3, 4]);
    }

    #[test]
    fn repeated_variables_unify() {
        let q = rule("selfloop(x, x2) :- edge(x, x2), edge(x2, x2).");
        let db = db_with_edges(&[(1, 2), (2, 2), (3, 3)]);
        // x->x2 with x2->x2: (1,2) ok (2 loops), (2,2) ok, (3,3) ok.
        assert_eq!(fire(&q, &db, None, None).unwrap().len(), 3);
        // The same variable twice in one atom compares the row's columns.
        let q = rule("loops(x) :- edge(x, x).");
        assert_eq!(ids(&fire(&q, &db, None, None).unwrap(), 0), vec![2, 3]);
    }

    #[test]
    fn filters_and_assignments() {
        let q = rule("p(x, j) :- edge(x, y), j = 10 + 1, y = x.");
        let db = db_with_edges(&[(5, 5), (5, 6)]);
        let rows = fire(&q, &db, None, None).unwrap();
        assert_eq!(rows, vec![vec![Value::Id(5), Value::Int(11)]]);
    }

    #[test]
    fn negation_filters() {
        let q = rule("dead_end(x, y) :- edge(x, y), !edge(y, x).");
        let db = db_with_edges(&[(1, 2), (2, 1), (2, 3)]);
        assert_eq!(ids(&fire(&q, &db, None, None).unwrap(), 1), vec![3]);
    }

    #[test]
    fn udf_calls() {
        let q = rule("close(x, y) :- value(x, d1, i), value(y, d2, i), udf_diff(d1, d2, 0.5), x != y.");
        let mut db = Database::new();
        db.insert("value", vec![Value::Id(1), Value::Float(1.0), Value::Int(0)]);
        db.insert("value", vec![Value::Id(2), Value::Float(1.2), Value::Int(0)]);
        db.insert("value", vec![Value::Id(3), Value::Float(9.0), Value::Int(0)]);
        // (1,2) and (2,1) are close; 3 is far from both.
        assert_eq!(fire(&q, &db, None, None).unwrap().len(), 2);
    }

    #[test]
    fn unknown_udf_is_an_error_only_when_reached() {
        let q = rule("p(x) :- edge(x, y), no_such_udf(y).");
        let err = fire(&q, &db_with_edges(&[(1, 2)]), None, None).unwrap_err();
        assert!(err.to_string().contains("no_such_udf"));
        assert!(fire(&q, &Database::new(), None, None).unwrap().is_empty());
    }

    #[test]
    fn seed_restricts_location() {
        let q = rule("out(x, y) :- edge(x, y).");
        let db = db_with_edges(&[(1, 2), (3, 4)]);
        let rows = fire(&q, &db, Some(Value::Id(3)), None).unwrap();
        assert_eq!(ids(&rows, 1), vec![4]);
    }

    #[test]
    fn window_restricts_first_scan() {
        let q = rule("out(x, y) :- edge(x, y).");
        let db = db_with_edges(&[(1, 2), (3, 4), (5, 6)]);
        let rows = fire(&q, &db, None, Some(1..2)).unwrap();
        assert_eq!(ids(&rows, 0), vec![3]);
    }

    #[test]
    fn indexed_and_small_relations_agree() {
        // Past `SMALL` rows the keyed scan goes through the hash index
        // and the negation through the dedup table.
        let q = rule("dead_end(x, y) :- edge(x, y), !edge(y, x).");
        let edges: Vec<(u64, u64)> = (0..40).map(|i| (i % 7, (i * 3) % 11)).collect();
        let db = db_with_edges(&edges);
        assert!(db.relation("edge").unwrap().is_indexed());
        let expect: Vec<Vec<Value>> = db
            .relation("edge")
            .unwrap()
            .scan()
            .iter()
            .filter(|t| t[0] == Value::Id(3))
            .filter(|t| !edges.contains(&(t[1].as_id().unwrap(), 3)))
            .cloned()
            .collect();
        assert!(!expect.is_empty());
        assert_eq!(fire(&q, &db, Some(Value::Id(3)), None).unwrap(), expect);
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
