//! The semi-naive fixpoint evaluator.
//!
//! One engine serves every evaluation mode of the paper:
//!
//! * **centralized** ([`Evaluator::run`]) — load a database, run to
//!   fixpoint; this is the "naive offline" mode of §6 when the database
//!   is the whole materialized provenance graph;
//! * **incremental** ([`Evaluator::step`]) — the caller appends new EDB
//!   tuples (one superstep or one layer worth) and calls `step`; only
//!   delta windows are re-joined. Ariadne's online and layered modes call
//!   this once per superstep per vertex.
//!
//! Strata run in order; within a stratum, rules iterate semi-naively
//! (each scan takes a turn as the delta pivot). Aggregate rules are
//! stratified strictly above their inputs, so they are evaluated once per
//! `step` call, before the stratum's fixpoint loop.

use crate::analysis::{AnalyzedQuery, AnalyzedRule, Step};
use crate::ast::{AggFunc, HeadArg};
use crate::error::PqlError;
use crate::eval::database::Database;
use crate::eval::plan::{relation_len, EvalScratch, Preds, RulePlan};
use crate::eval::udf::UdfRegistry;
use crate::eval::value::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Cached global-registry handles for evaluator metrics. All of these
/// count *logical* evaluation work — rule firings, derived tuples,
/// delta window sizes — which is a function of the query and the data
/// alone, so every counter here is flagged deterministic.
mod obs_handles {
    use ariadne_obs::static_counter;

    static_counter!(
        rule_firings,
        "pql_rule_firings_total",
        "semi-naive rule evaluations (full, pivoted and aggregate)",
        true
    );
    static_counter!(
        derived_tuples,
        "pql_derived_tuples_total",
        "tuples inserted into IDB relations by rule heads",
        true
    );
    static_counter!(
        delta_tuples,
        "pql_delta_tuples_total",
        "tuples consumed from delta windows by pivoted evaluations",
        true
    );
    static_counter!(
        fixpoint_rounds,
        "pql_fixpoint_rounds_total",
        "semi-naive fixpoint loop iterations (including the closing empty round)",
        true
    );
    static_counter!(
        scratch_reuse,
        "pql_scratch_reuse_total",
        "evaluation-scratch buffer uses after the first within a step call",
        true
    );
    static_counter!(
        scratch_alloc,
        "pql_scratch_alloc_total",
        "evaluation-scratch buffers a step call took into use",
        true
    );
}

/// Deterministic counters for semi-naive evaluation work.
///
/// Accumulated per [`Evaluator::step`] / [`Evaluator::step_stratum`]
/// call; every field is a function of the query and the database content
/// only, so totals are bit-identical across thread counts when the same
/// logical evaluations run (the per-vertex online evaluators rely on
/// this in the determinism tests).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Rule evaluations: full, delta-pivoted and aggregate.
    pub rule_firings: u64,
    /// Tuples inserted into IDB relations by rule heads (pre-dedup —
    /// the relation may drop duplicates on insert).
    pub derived_tuples: u64,
    /// Tuples consumed from delta windows by pivoted evaluations.
    pub delta_tuples: u64,
    /// Fixpoint loop iterations, including the final empty round that
    /// detects quiescence.
    pub fixpoint_rounds: u64,
    /// Uses of an [`EvalScratch`] buffer (the frame per firing, the UDF
    /// argument buffer per call, a candidate buffer per index probe)
    /// that found it already in use by the same step call.
    pub scratch_reuse: u64,
    /// Scratch buffers a step call took into use. Each costs at most one
    /// allocator call, and none when the caller's scratch is warm; the
    /// count is per call either way, so it does not depend on which
    /// worker evaluated which vertex.
    pub scratch_alloc: u64,
}

impl EvalStats {
    /// Accumulate another evaluation's counters.
    pub fn merge(&mut self, other: &EvalStats) {
        self.rule_firings += other.rule_firings;
        self.derived_tuples += other.derived_tuples;
        self.delta_tuples += other.delta_tuples;
        self.fixpoint_rounds += other.fixpoint_rounds;
        self.scratch_reuse += other.scratch_reuse;
        self.scratch_alloc += other.scratch_alloc;
    }

    /// Feed this evaluation's counters into the global obs registry.
    fn record_obs(&self) {
        obs_handles::rule_firings().add(self.rule_firings);
        obs_handles::derived_tuples().add(self.derived_tuples);
        obs_handles::delta_tuples().add(self.delta_tuples);
        obs_handles::fixpoint_rounds().add(self.fixpoint_rounds);
        obs_handles::scratch_reuse().add(self.scratch_reuse);
        obs_handles::scratch_alloc().add(self.scratch_alloc);
    }
}

/// Per-database incremental evaluation state. The delta frontiers are
/// positional, one per (stratum, predicate it scans or negates) in the
/// evaluator's order; which evaluator laid them out is a pointer compare.
#[derive(Clone, Debug, Default)]
pub struct EvalState {
    /// The frontier count of the evaluator that laid the state out:
    /// `None` before the first step and in a restored state.
    layout: Option<Arc<usize>>,
    /// Tuples already consumed, per stratum and tracked predicate, flat.
    frontiers: Vec<usize>,
    /// Scan-free rules that have produced their output already.
    ran_scan_free: BTreeSet<usize>,
    /// Aggregate rule → total body-relation size at its last evaluation;
    /// unchanged inputs mean the aggregate is already current.
    agg_input_sizes: BTreeMap<usize, usize>,
    /// Where each of the evaluator's predicates sat in the database at
    /// the last step; checked against the database before it is trusted.
    at: Vec<u32>,
}

impl EvalState {
    /// A state from what [`EvalState::frontiers`], [`EvalState::ran_scan_free`]
    /// and [`EvalState::agg_input_sizes`] give. Its first step refuses
    /// frontiers of another layout ([`PqlError::FrontierMismatch`]).
    pub fn restore(frontiers: Vec<usize>, ran: Vec<usize>, aggs: Vec<(usize, usize)>) -> Self {
        EvalState {
            layout: None,
            frontiers,
            ran_scan_free: ran.into_iter().collect(),
            agg_input_sizes: aggs.into_iter().collect(),
            at: Vec::new(),
        }
    }

    /// The delta frontiers, in the evaluator's order.
    pub fn frontiers(&self) -> &[usize] {
        &self.frontiers
    }

    /// The scan-free rules that have run, ascending.
    pub fn ran_scan_free(&self) -> impl Iterator<Item = usize> + '_ {
        self.ran_scan_free.iter().copied()
    }

    /// Each aggregate rule's input size at its last evaluation, by rule.
    pub fn agg_input_sizes(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.agg_input_sizes.iter().map(|(&rule, &size)| (rule, size))
    }

    /// Lay the frontiers out for the evaluator whose layout is `layout`:
    /// zeros for a fresh state, the restored counts when there are as
    /// many as the evaluator tracks.
    fn lay_out(&mut self, layout: &Arc<usize>) -> Result<(), PqlError> {
        if self.layout.as_ref().is_some_and(|l| Arc::ptr_eq(l, layout)) {
            return Ok(());
        }
        if self.frontiers.is_empty() {
            self.frontiers.resize(**layout, 0);
        } else if self.frontiers.len() != **layout {
            return Err(PqlError::FrontierMismatch {
                expected: **layout,
                found: self.frontiers.len(),
            });
        }
        self.layout = Some(Arc::clone(layout));
        Ok(())
    }
}

/// One rule, compiled for each way the evaluator fires it. Every plan
/// comes in two: without (`[0]`) and with (`[1]`) the head location
/// seeded, because which columns of a scan are bound depends on it.
#[derive(Clone)]
struct RuleExec {
    /// The head predicate's id.
    head: usize,
    /// The rule's own step order: scan-free and aggregate firings.
    full: [RulePlan; 2],
    /// One per scan step, in step order: that scan fronted as the delta
    /// pivot.
    pivots: Vec<PivotExec>,
    /// Ids of the scanned and negated predicates, one per step: the sum of
    /// their sizes tells an aggregate rule whether its input grew.
    inputs: Vec<usize>,
}

#[derive(Clone)]
struct PivotExec {
    /// The pivot predicate's index in its stratum's tracked list.
    tracked: usize,
    plans: [RulePlan; 2],
}

#[derive(Clone)]
struct StratumExec {
    rules: Vec<usize>,
    /// Ids of the predicates the stratum's rules scan or negate, in name
    /// order.
    tracked: Vec<usize>,
    /// Where the stratum's frontiers start in [`EvalState::frontiers`].
    offset: usize,
}

/// A compiled query plus UDFs, ready to evaluate against databases.
#[derive(Clone)]
pub struct Evaluator {
    query: AnalyzedQuery,
    udfs: UdfRegistry,
    preds: Preds,
    rules: Vec<RuleExec>,
    strata: Vec<StratumExec>,
    /// The frontier count, shared with every state this evaluator lays out.
    layout: Arc<usize>,
}

impl std::fmt::Debug for Evaluator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Evaluator")
            .field("query", &self.query)
            .field("udfs", &self.udfs)
            .finish_non_exhaustive()
    }
}

/// Predicates a rule scans or negates, one per such step.
fn body_preds(rule: &AnalyzedRule) -> impl Iterator<Item = (&str, usize)> {
    rule.steps.iter().filter_map(|step| match step {
        Step::Scan { pred, args, .. } | Step::Neg { pred, args } => {
            Some((pred.as_str(), args.len()))
        }
        _ => None,
    })
}

impl Evaluator {
    /// Build an evaluator: compile every rule into its plans.
    pub fn new(query: AnalyzedQuery, udfs: UdfRegistry) -> Self {
        let mut preds = Preds::default();
        let mut strata = Vec::with_capacity(query.strata.len());
        let mut stratum_of = vec![0; query.rules.len()];
        let mut offset = 0;
        for (s, rules) in query.strata.iter().enumerate() {
            let names: BTreeSet<(&str, usize)> =
                rules.iter().flat_map(|&ri| body_preds(&query.rules[ri])).collect();
            for &ri in rules {
                stratum_of[ri] = s;
            }
            strata.push(StratumExec {
                rules: rules.clone(),
                tracked: names.iter().map(|(name, arity)| preds.intern(name, *arity)).collect(),
                offset,
            });
            offset += names.len();
        }
        let compile = |rule: &AnalyzedRule, steps: &[Step], preds: &mut Preds| {
            [false, true].map(|seeded| RulePlan::compile(rule, steps, seeded, &udfs, preds))
        };
        let rules = query
            .rules
            .iter()
            .zip(&stratum_of)
            .map(|(rule, &s)| {
                let inputs: Vec<usize> = body_preds(rule)
                    .map(|(name, arity)| preds.intern(name, arity))
                    .collect();
                let pivots = rule
                    .pivot_variants
                    .iter()
                    .map(|variant| {
                        let Step::Scan { pred, args, .. } = &rule.steps[variant.scan_step] else {
                            unreachable!("pivot step is a scan");
                        };
                        let id = preds.intern(pred, args.len());
                        PivotExec {
                            tracked: strata[s]
                                .tracked
                                .iter()
                                .position(|&t| t == id)
                                .expect("a stratum tracks every predicate its rules scan"),
                            plans: compile(rule, &variant.steps, &mut preds),
                        }
                    })
                    .collect();
                RuleExec {
                    head: preds.intern(&rule.pred, rule.head_args.len()),
                    full: compile(rule, &rule.steps, &mut preds),
                    pivots,
                    inputs,
                }
            })
            .collect();
        Evaluator {
            query,
            udfs,
            preds,
            rules,
            strata,
            layout: Arc::new(offset),
        }
    }

    /// The analyzed query.
    pub fn query(&self) -> &AnalyzedQuery {
        &self.query
    }

    /// Evaluate to fixpoint over `db` from scratch (centralized mode).
    pub fn run(&self, db: &mut Database) -> Result<(), PqlError> {
        self.step(
            db,
            &mut EvalState::default(),
            None,
            &mut EvalStats::default(),
            &mut EvalScratch::default(),
        )
    }

    /// Incremental evaluation: consume all tuples appended to `db` since
    /// `state` was last advanced, derive everything new, and update
    /// `state`. When `loc` is given, every rule's head location variable
    /// is pre-bound to it (per-vertex evaluation). The call's
    /// [`EvalStats`] are added to `stats` (the global obs registry is fed
    /// too), and it works in `scratch`: a driver that evaluates many
    /// small databases in a row keeps one per worker.
    pub fn step(
        &self,
        db: &mut Database,
        state: &mut EvalState,
        loc: Option<&Value>,
        stats: &mut EvalStats,
        scratch: &mut EvalScratch,
    ) -> Result<(), PqlError> {
        let _eval_span = ariadne_obs::trace::span(
            ariadne_obs::trace::Level::Trace,
            "pql",
            "eval_step",
            &[("strata", self.query.strata.len().into())],
        );
        self.step_strata(db, state, loc, 0..self.strata.len(), stats, scratch)
    }

    /// Number of strata in the compiled query.
    pub fn num_strata(&self) -> usize {
        self.query.strata.len()
    }

    /// [`Evaluator::step`] restricted to one stratum. Distributed
    /// drivers that must globally complete a stratum before the next one
    /// starts (the naive whole-graph mode, where negation would
    /// otherwise race replica arrival) call this per stratum, per round.
    pub fn step_stratum(
        &self,
        db: &mut Database,
        state: &mut EvalState,
        loc: Option<&Value>,
        stratum_idx: usize,
        stats: &mut EvalStats,
        scratch: &mut EvalScratch,
    ) -> Result<(), PqlError> {
        self.step_strata(db, state, loc, stratum_idx..stratum_idx + 1, stats, scratch)
    }

    /// One step call over `strata`: one scratch, one resolution of the
    /// predicates to relations, one flush of the counters.
    fn step_strata(
        &self,
        db: &mut Database,
        state: &mut EvalState,
        loc: Option<&Value>,
        mut strata: std::ops::Range<usize>,
        stats: &mut EvalStats,
        scratch: &mut EvalScratch,
    ) -> Result<(), PqlError> {
        state.lay_out(&self.layout)?;
        self.preds.locate(db, &mut state.at);
        scratch.begin();
        let mut local = EvalStats::default();
        let result = strata.try_for_each(|s| self.step_stratum_inner(db, state, loc, s, &mut local, scratch));
        local.scratch_reuse = scratch.repeat_uses;
        local.scratch_alloc = scratch.first_uses;
        local.record_obs();
        stats.merge(&local);
        result
    }

    fn step_stratum_inner(
        &self,
        db: &mut Database,
        state: &mut EvalState,
        loc: Option<&Value>,
        stratum_idx: usize,
        stats: &mut EvalStats,
        scratch: &mut EvalScratch,
    ) -> Result<(), PqlError> {
        let stratum = &self.strata[stratum_idx];
        // Aggregate rules: inputs live strictly below this stratum and
        // are final for this step; evaluate once — and only when some
        // body relation actually grew since the last evaluation.
        for &ri in &stratum.rules {
            if self.query.rules[ri].has_aggregate {
                let inputs = &self.rules[ri].inputs;
                let input_size: usize =
                    inputs.iter().map(|&p| relation_len(db, &state.at, p)).sum();
                if state.agg_input_sizes.get(&ri) != Some(&input_size) {
                    self.eval_aggregate_rule(ri, db, state, loc, stats, scratch)?;
                    state.agg_input_sizes.insert(ri, input_size);
                }
            }
        }

        // Scan-free rules fire once ever (their output is constant).
        for &ri in &stratum.rules {
            if !self.query.rules[ri].has_aggregate
                && self.rules[ri].pivots.is_empty()
                && state.ran_scan_free.insert(ri)
            {
                let plan = &self.rules[ri].full[usize::from(loc.is_some())];
                self.fire(ri, plan, None, db, state, loc, stats, scratch)?;
            }
        }

        // Semi-naive fixpoint for the stratum's non-aggregate rules.
        let frontiers = stratum.offset..stratum.offset + stratum.tracked.len();
        loop {
            stats.fixpoint_rounds += 1;
            // Snapshot current lengths: this iteration's delta window
            // ends here; later insertions belong to the next one.
            scratch.ends.clear();
            scratch
                .ends
                .extend(stratum.tracked.iter().map(|&p| relation_len(db, &state.at, p)));
            let mut any_delta = false;
            for &ri in &stratum.rules {
                if self.query.rules[ri].has_aggregate {
                    continue;
                }
                for pivot in &self.rules[ri].pivots {
                    let from = state.frontiers[stratum.offset + pivot.tracked];
                    let to = scratch.ends[pivot.tracked];
                    if from >= to {
                        continue;
                    }
                    any_delta = true;
                    stats.delta_tuples += (to - from) as u64;
                    let plan = &pivot.plans[usize::from(loc.is_some())];
                    self.fire(ri, plan, Some(from..to), db, state, loc, stats, scratch)?;
                }
            }
            // Advance this stratum's frontiers to the snapshot.
            for (frontier, &to) in state.frontiers[frontiers.clone()].iter_mut().zip(&scratch.ends) {
                *frontier = to.max(*frontier);
            }
            if !any_delta {
                break;
            }
        }
        Ok(())
    }

    /// Fire one plan of non-aggregate rule `ri` — its own step order, or
    /// with `window` a pivot variant, so the delta relation drives the
    /// join — and insert what it derives.
    #[allow(clippy::too_many_arguments)]
    fn fire(
        &self,
        ri: usize,
        plan: &RulePlan,
        window: Option<std::ops::Range<usize>>,
        db: &mut Database,
        state: &mut EvalState,
        loc: Option<&Value>,
        stats: &mut EvalStats,
        scratch: &mut EvalScratch,
    ) -> Result<(), PqlError> {
        plan.fire(db, &state.at, loc, window, scratch)?;
        stats.rule_firings += 1;
        if scratch.derived.is_empty() {
            return Ok(());
        }
        let arity = plan.head_arity();
        stats.derived_tuples += (scratch.derived.len() / arity) as u64;
        let head = self.preds.head_mut(self.rules[ri].head, db, &mut state.at);
        head.reserve(scratch.derived.len() / arity);
        for tuple in scratch.derived.chunks_exact(arity) {
            head.insert_slice(tuple);
        }
        Ok(())
    }

    /// Evaluate an aggregate rule from scratch and insert group results.
    ///
    /// Semantics: valuations are projected to (group values, aggregated
    /// term values) and deduplicated on that projection before the
    /// aggregate is applied — `count(y)` counts *distinct* `y` per group.
    fn eval_aggregate_rule(
        &self,
        ri: usize,
        db: &mut Database,
        state: &mut EvalState,
        loc: Option<&Value>,
        stats: &mut EvalStats,
        scratch: &mut EvalScratch,
    ) -> Result<(), PqlError> {
        let rule = &self.query.rules[ri];
        let plan = &self.rules[ri].full[usize::from(loc.is_some())];
        let failed = plan.fire(db, &state.at, loc, None, scratch)?;
        stats.rule_firings += 1;
        if failed {
            return Err(PqlError::analysis(
                rule.line,
                "aggregate rule evaluated a non-numeric or unbound term",
            ));
        }

        // Group and fold.
        let mut projected: BTreeSet<(Vec<Value>, Vec<Value>)> = BTreeSet::new();
        for row in scratch.derived.chunks_exact(plan.head_arity()) {
            let (mut group, mut aggs) = (Vec::new(), Vec::new());
            for (arg, v) in rule.head_args.iter().zip(row) {
                match arg {
                    HeadArg::Plain(_) => group.push(v.clone()),
                    HeadArg::Agg(_, _) => aggs.push(v.clone()),
                }
            }
            projected.insert((group, aggs));
        }
        let mut groups: BTreeMap<Vec<Value>, Vec<Vec<Value>>> = BTreeMap::new();
        for (group, aggs) in projected {
            groups.entry(group).or_default().push(aggs);
        }
        for (group, rows) in groups {
            let mut tuple = Vec::with_capacity(rule.head_args.len());
            let mut plain_iter = group.into_iter();
            let mut agg_idx = 0;
            for arg in &rule.head_args {
                match arg {
                    HeadArg::Plain(_) => tuple.push(plain_iter.next().expect("group arity")),
                    HeadArg::Agg(func, _) => {
                        let column: Vec<&Value> = rows.iter().map(|r| &r[agg_idx]).collect();
                        match apply_aggregate(*func, &column) {
                            Some(v) => tuple.push(v),
                            None => {
                                return Err(PqlError::analysis(
                                    rule.line,
                                    "aggregate over non-numeric values",
                                ))
                            }
                        }
                        agg_idx += 1;
                    }
                }
            }
            stats.derived_tuples += 1;
            self.preds
                .head_mut(self.rules[ri].head, db, &mut state.at)
                .insert(tuple);
        }
        Ok(())
    }
}

/// Fold an aggregate function over a column of values.
fn apply_aggregate(func: AggFunc, column: &[&Value]) -> Option<Value> {
    match func {
        AggFunc::Count => Some(Value::Int(column.len() as i64)),
        AggFunc::Sum | AggFunc::Avg => {
            let mut all_int = true;
            let mut sum = 0.0;
            for v in column {
                match v {
                    Value::Int(i) => sum += *i as f64,
                    Value::Float(f) => {
                        all_int = false;
                        sum += f;
                    }
                    _ => return None,
                }
            }
            if func == AggFunc::Avg {
                if column.is_empty() {
                    return None;
                }
                Some(Value::Float(sum / column.len() as f64))
            } else if all_int {
                Some(Value::Int(sum as i64))
            } else {
                Some(Value::Float(sum))
            }
        }
        AggFunc::Min => column.iter().map(|v| (*v).clone()).min(),
        AggFunc::Max => column.iter().map(|v| (*v).clone()).max(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, parse, Catalog, Params};

    fn evaluator(src: &str) -> Evaluator {
        evaluator_with(src, Params::new())
    }

    fn evaluator_with(src: &str, params: Params) -> Evaluator {
        let q = analyze(&parse(src).unwrap(), &Catalog::standard(), &params).unwrap();
        Evaluator::new(q, UdfRegistry::standard())
    }

    /// One [`Evaluator::step`] with throwaway counters and buffers.
    fn step(ev: &Evaluator, db: &mut Database, state: &mut EvalState, loc: Option<&Value>) {
        ev.step(
            db,
            state,
            loc,
            &mut EvalStats::default(),
            &mut EvalScratch::default(),
        )
        .unwrap();
    }

    fn edge_db(edges: &[(u64, u64)]) -> Database {
        let mut db = Database::new();
        for &(a, b) in edges {
            db.insert("edge", vec![Value::Id(a), Value::Id(b)]);
        }
        db
    }

    fn ids(db: &Database, pred: &str) -> Vec<u64> {
        db.sorted(pred)
            .into_iter()
            .map(|t| t[0].as_id().unwrap())
            .collect()
    }

    #[test]
    fn transitive_closure() {
        let ev = evaluator(
            "reach(x) :- edge(x, y), y = 0.
             reach(x) :- edge(x, y), reach(y).",
        );
        // Chain 3 -> 2 -> 1 -> 0 plus unrelated 9 -> 8.
        let mut db = edge_db(&[(3, 2), (2, 1), (1, 0), (9, 8)]);
        ev.run(&mut db).unwrap();
        assert_eq!(ids(&db, "reach"), vec![1, 2, 3]);
    }

    #[test]
    fn incremental_matches_batch() {
        let ev = evaluator(
            "reach(x) :- edge(x, y), y = 0.
             reach(x) :- edge(x, y), reach(y).",
        );
        let edges = [(1u64, 0u64), (2, 1), (3, 2), (4, 3), (5, 9)];
        // Batch.
        let mut batch = edge_db(&edges);
        ev.run(&mut batch).unwrap();
        // Incremental: one edge per step.
        let mut inc = Database::new();
        let mut state = EvalState::default();
        for &(a, b) in &edges {
            inc.insert("edge", vec![Value::Id(a), Value::Id(b)]);
            step(&ev, &mut inc, &mut state, None);
        }
        assert_eq!(batch.sorted("reach"), inc.sorted("reach"));
    }

    #[test]
    fn incremental_out_of_order_edges() {
        let ev = evaluator(
            "reach(x) :- edge(x, y), y = 0.
             reach(x) :- edge(x, y), reach(y).",
        );
        // Insert the chain far-end first: each step must re-join old
        // deltas with new tuples.
        let mut db = Database::new();
        let mut state = EvalState::default();
        for &(a, b) in &[(3u64, 2u64), (2, 1), (1, 0)] {
            db.insert("edge", vec![Value::Id(a), Value::Id(b)]);
            step(&ev, &mut db, &mut state, None);
        }
        assert_eq!(ids(&db, "reach"), vec![1, 2, 3]);
    }

    #[test]
    fn stratified_negation() {
        let ev = evaluator(
            "linked(x) :- edge(x, y).
             isolated_target(x, y) :- edge(x, y), !linked(y).",
        );
        let mut db = edge_db(&[(1, 2), (2, 3)]);
        ev.run(&mut db).unwrap();
        // 3 has no outgoing edge, so it is not linked.
        let t = db.sorted("isolated_target");
        assert_eq!(t.len(), 1);
        assert_eq!(t[0][1].as_id(), Some(3));
    }

    #[test]
    fn count_distinct() {
        let ev = evaluator("in_degree(x, count(y)) :- in_edge(x, y).");
        let mut db = Database::new();
        for (x, y) in [(1u64, 2u64), (1, 3), (1, 3), (2, 1)] {
            db.insert("in_edge", vec![Value::Id(x), Value::Id(y)]);
        }
        ev.run(&mut db).unwrap();
        let t = db.sorted("in_degree");
        assert_eq!(
            t,
            vec![
                vec![Value::Id(1), Value::Int(2)],
                vec![Value::Id(2), Value::Int(1)],
            ]
        );
    }

    #[test]
    fn sum_min_max_avg() {
        let ev = evaluator(
            "s(x, sum(d)) :- value(x, d, i).
             lo(x, min(d)) :- value(x, d, i).
             hi(x, max(d)) :- value(x, d, i).
             mean(x, avg(d)) :- value(x, d, i).",
        );
        let mut db = Database::new();
        for (i, d) in [(0i64, 1.0f64), (1, 2.0), (2, 3.0)] {
            db.insert("value", vec![Value::Id(7), Value::Float(d), Value::Int(i)]);
        }
        ev.run(&mut db).unwrap();
        assert_eq!(db.sorted("s")[0][1], Value::Float(6.0));
        assert_eq!(db.sorted("lo")[0][1], Value::Float(1.0));
        assert_eq!(db.sorted("hi")[0][1], Value::Float(3.0));
        assert_eq!(db.sorted("mean")[0][1], Value::Float(2.0));
    }

    #[test]
    fn arithmetic_head() {
        let ev = evaluator("halved(x, d / 2) :- value(x, d, i).");
        let mut db = Database::new();
        db.insert("value", vec![Value::Id(1), Value::Float(3.0), Value::Int(0)]);
        ev.run(&mut db).unwrap();
        assert_eq!(db.sorted("halved")[0][1], Value::Float(1.5));
    }

    #[test]
    fn scan_free_rule_fires_once() {
        let ev = evaluator_with(
            "seeded(x, i) :- x = $alpha, i = 0.",
            Params::new().with("alpha", Value::Id(4)),
        );
        let mut db = Database::new();
        let mut state = EvalState::default();
        step(&ev, &mut db, &mut state, None);
        step(&ev, &mut db, &mut state, None);
        assert_eq!(
            db.sorted("seeded"),
            vec![vec![Value::Id(4), Value::Int(0)]]
        );
    }

    /// A restored state resumes from its positional frontiers when they
    /// fit the evaluator, and is refused when there are more or fewer.
    #[test]
    fn restored_frontiers_resume_or_are_refused() {
        let ev = evaluator("out(x, y) :- edge(x, y).");
        let mut db = edge_db(&[(1, 2), (3, 4)]);
        let mut state = EvalState::restore(vec![1], vec![], vec![]);
        step(&ev, &mut db, &mut state, None);
        assert_eq!(db.sorted("out"), vec![vec![Value::Id(3), Value::Id(4)]]);
        assert_eq!(state.frontiers(), [2]);

        let mut foreign = EvalState::restore(vec![0, 0], vec![], vec![]);
        let refused = ev.step(
            &mut db,
            &mut foreign,
            None,
            &mut EvalStats::default(),
            &mut EvalScratch::default(),
        );
        assert_eq!(
            refused,
            Err(PqlError::FrontierMismatch {
                expected: 1,
                found: 2
            })
        );
    }

    #[test]
    fn location_seeding_restricts_derivations() {
        let ev = evaluator("out(x, y) :- edge(x, y).");
        let mut db = edge_db(&[(1, 2), (3, 4)]);
        let mut state = EvalState::default();
        step(&ev, &mut db, &mut state, Some(&Value::Id(1)));
        assert_eq!(db.sorted("out"), vec![vec![Value::Id(1), Value::Id(2)]]);
    }

    #[test]
    fn pivot_scan_visits_only_its_window() {
        // One seeded location, 200 incremental steps: the per-vertex
        // online pattern. Both scans are keyed by the seeded `x`, so a
        // pivot that probed the index on `x` and then discarded rows
        // outside its window would walk the vertex's whole history at
        // every step — 200²/2 rows per scan. Walking the window visits
        // exactly the delta tuples.
        let ev = evaluator("seen(x, d, i) :- value(x, d, i), superstep(x, i).");
        let loc = Value::Id(7);
        let (mut db, mut state) = (Database::new(), EvalState::default());
        let (mut stats, mut scratch) = (EvalStats::default(), EvalScratch::default());
        for i in 0..200 {
            db.insert("value", vec![loc.clone(), Value::Float(i as f64), Value::Int(i)]);
            db.insert("superstep", vec![loc.clone(), Value::Int(i)]);
            ev.step(&mut db, &mut state, Some(&loc), &mut stats, &mut scratch)
                .unwrap();
        }
        assert_eq!(db.len("seen"), 200);
        assert_eq!(stats.delta_tuples, 400);
        assert_eq!(scratch.pivot_rows, stats.delta_tuples);
    }

    #[test]
    fn exists_only_scans_are_semi_joins() {
        // fwd_lineage's recursive rule: w and j are anonymous, so the
        // fwd_lineage(y, w, j) scan must be marked existence-only...
        let q = analyze(
            &crate::parse(
                "fwd(x, v, i) :- receive_message(x, y, m, i), fwd(y, w, j), value(x, v, i).",
            )
            .unwrap(),
            &Catalog::standard(),
            &Params::new(),
        )
        .unwrap();
        use crate::analysis::Step;
        let fwd_scan = q.rules[0]
            .steps
            .iter()
            .find_map(|s| match s {
                Step::Scan { pred, exists_only, .. } if pred == "fwd" => Some(*exists_only),
                _ => None,
            })
            .expect("fwd scan present");
        assert!(fwd_scan, "fwd(y, w, j) should be existence-only");
        // ...while binder scans must not be.
        let recv_scan = q.rules[0]
            .steps
            .iter()
            .find_map(|s| match s {
                Step::Scan { pred, exists_only, .. } if pred == "receive_message" => {
                    Some(*exists_only)
                }
                _ => None,
            })
            .unwrap();
        assert!(!recv_scan, "receive_message binds x/y/i and must enumerate");

        // And semantically: duplicate witnesses collapse to one result.
        let ev = Evaluator::new(q, UdfRegistry::standard());
        let mut db = Database::new();
        for j in 0..5 {
            db.insert(
                "fwd",
                vec![Value::Id(1), Value::Float(0.0), Value::Int(j)],
            );
        }
        db.insert(
            "receive_message",
            vec![Value::Id(2), Value::Id(1), Value::Unit, Value::Int(6)],
        );
        db.insert("value", vec![Value::Id(2), Value::Float(9.0), Value::Int(6)]);
        ev.run(&mut db).unwrap();
        // One derived tuple for x=2 (plus the 5 EDB-style seeds).
        let derived: Vec<_> = db
            .sorted("fwd")
            .into_iter()
            .filter(|t| t[0] == Value::Id(2))
            .collect();
        assert_eq!(
            derived,
            vec![vec![Value::Id(2), Value::Float(9.0), Value::Int(6)]]
        );
    }

    #[test]
    fn paper_query_4_end_to_end() {
        // PageRank monitoring: a message received by a vertex with
        // in-degree 0 is a bug.
        let ev = evaluator(
            "in_degree(x, count(y)) :- in_edge(x, y).
             no_in(x) :- superstep(x, i), !has_in(x).
             has_in(x) :- in_edge(x, y).
             check_failed(x, y, i) :- no_in(x), receive_message(x, y, m, i).",
        );
        let mut db = Database::new();
        // Vertex 1 has an in-edge from 0; vertex 2 has none.
        db.insert("in_edge", vec![Value::Id(1), Value::Id(0)]);
        for x in [0u64, 1, 2] {
            db.insert("superstep", vec![Value::Id(x), Value::Int(0)]);
        }
        // Both 1 and 2 receive messages; only 2 is a violation.
        db.insert(
            "receive_message",
            vec![Value::Id(1), Value::Id(0), Value::Float(0.5), Value::Int(0)],
        );
        db.insert(
            "receive_message",
            vec![Value::Id(2), Value::Id(0), Value::Float(0.5), Value::Int(0)],
        );
        ev.run(&mut db).unwrap();
        let failures = db.sorted("check_failed");
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0][0].as_id(), Some(2));
    }
}
