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
use crate::eval::binding::{
    eval_term, for_each_valuation_steps_stats, Env, Pivot, ScanScratch, ScanStats,
};
use crate::eval::database::Database;
use crate::eval::udf::UdfRegistry;
use crate::eval::value::Value;
use std::collections::{BTreeMap, BTreeSet, HashSet};

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
        "scan-scratch buffer requests served from the recycled pool",
        true
    );
    static_counter!(
        scratch_alloc,
        "pql_scratch_alloc_total",
        "scan-scratch buffer requests that allocated fresh",
        true
    );
}

/// Deterministic counters for semi-naive evaluation work.
///
/// Accumulated per [`Evaluator::step_stats`] / [`Evaluator::step_stratum_stats`]
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
    /// Scan-scratch buffer requests served from the recycled pool.
    pub scratch_reuse: u64,
    /// Scan-scratch buffer requests that allocated fresh.
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

    fn absorb_scan(&mut self, scan: ScanStats) {
        self.scratch_reuse += scan.reuse;
        self.scratch_alloc += scan.alloc;
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

/// Per-database incremental evaluation state (delta frontiers).
#[derive(Clone, Debug, Default)]
pub struct EvalState {
    /// Per stratum: predicate → number of tuples already consumed.
    /// Nested (not keyed by `(stratum, String)`) so a lookup borrows the
    /// predicate name instead of cloning it.
    frontiers: Vec<BTreeMap<String, usize>>,
    /// Scan-free rules that have produced their output already.
    ran_scan_free: HashSet<usize>,
    /// Aggregate rule → total body-relation size at its last evaluation;
    /// unchanged inputs mean the aggregate is already current.
    agg_input_sizes: BTreeMap<usize, usize>,
}

impl EvalState {
    /// Decompose into plain, deterministically ordered parts — used by
    /// checkpointing to serialize the delta frontiers.
    #[allow(clippy::type_complexity)]
    pub fn to_parts(&self) -> (Vec<(usize, String, usize)>, Vec<usize>, Vec<(usize, usize)>) {
        let frontiers = self
            .frontiers
            .iter()
            .enumerate()
            .flat_map(|(s, preds)| preds.iter().map(move |(p, n)| (s, p.clone(), *n)))
            .collect();
        let mut scan_free: Vec<usize> = self.ran_scan_free.iter().copied().collect();
        scan_free.sort_unstable();
        let aggs = self.agg_input_sizes.iter().map(|(k, v)| (*k, *v)).collect();
        (frontiers, scan_free, aggs)
    }

    /// Rebuild from [`EvalState::to_parts`] output.
    pub fn from_parts(
        frontiers: Vec<(usize, String, usize)>,
        ran_scan_free: Vec<usize>,
        agg_input_sizes: Vec<(usize, usize)>,
    ) -> Self {
        let mut nested: Vec<BTreeMap<String, usize>> = Vec::new();
        for (s, p, n) in frontiers {
            if nested.len() <= s {
                nested.resize_with(s + 1, BTreeMap::new);
            }
            nested[s].insert(p, n);
        }
        EvalState {
            frontiers: nested,
            ran_scan_free: ran_scan_free.into_iter().collect(),
            agg_input_sizes: agg_input_sizes.into_iter().collect(),
        }
    }
}

/// A compiled query plus UDFs, ready to evaluate against databases.
#[derive(Clone, Debug)]
pub struct Evaluator {
    query: AnalyzedQuery,
    udfs: UdfRegistry,
}

impl Evaluator {
    /// Build an evaluator.
    pub fn new(query: AnalyzedQuery, udfs: UdfRegistry) -> Self {
        Evaluator { query, udfs }
    }

    /// The analyzed query.
    pub fn query(&self) -> &AnalyzedQuery {
        &self.query
    }

    /// The UDF registry (the maintenance path evaluates rewritten rule
    /// variants itself and needs the same bindings).
    pub(crate) fn udfs(&self) -> &UdfRegistry {
        &self.udfs
    }

    /// Evaluate to fixpoint over `db` from scratch (centralized mode).
    pub fn run(&self, db: &mut Database) -> Result<(), PqlError> {
        let mut state = EvalState::default();
        self.step(db, &mut state, None)
    }

    /// Incremental evaluation: consume all tuples appended to `db` since
    /// `state` was last advanced, derive everything new, and update
    /// `state`. When `loc` is given, every rule's head location variable
    /// is pre-bound to it (per-vertex evaluation).
    pub fn step(
        &self,
        db: &mut Database,
        state: &mut EvalState,
        loc: Option<&Value>,
    ) -> Result<(), PqlError> {
        let mut stats = EvalStats::default();
        self.step_stats(db, state, loc, &mut stats)
    }

    /// Like [`Evaluator::step`], additionally accumulating this call's
    /// [`EvalStats`] into `stats` (run-local introspection; the global
    /// obs registry is fed either way).
    pub fn step_stats(
        &self,
        db: &mut Database,
        state: &mut EvalState,
        loc: Option<&Value>,
        stats: &mut EvalStats,
    ) -> Result<(), PqlError> {
        let _eval_span = ariadne_obs::trace::span(
            ariadne_obs::trace::Level::Trace,
            "pql",
            "eval_step",
            &[("strata", self.query.strata.len().into())],
        );
        for stratum_idx in 0..self.query.strata.len() {
            self.step_stratum_stats(db, state, loc, stratum_idx, stats)?;
        }
        Ok(())
    }

    /// Number of strata in the compiled query.
    pub fn num_strata(&self) -> usize {
        self.query.strata.len()
    }

    /// Incremental evaluation restricted to one stratum. Distributed
    /// drivers that must globally complete a stratum before the next one
    /// starts (the naive whole-graph mode, where negation would
    /// otherwise race replica arrival) call this per stratum, per round.
    pub fn step_stratum(
        &self,
        db: &mut Database,
        state: &mut EvalState,
        loc: Option<&Value>,
        stratum_idx: usize,
    ) -> Result<(), PqlError> {
        let mut stats = EvalStats::default();
        self.step_stratum_stats(db, state, loc, stratum_idx, &mut stats)
    }

    /// Like [`Evaluator::step_stratum`] with run-local stats
    /// accumulation.
    pub fn step_stratum_stats(
        &self,
        db: &mut Database,
        state: &mut EvalState,
        loc: Option<&Value>,
        stratum_idx: usize,
        stats: &mut EvalStats,
    ) -> Result<(), PqlError> {
        let mut local = EvalStats::default();
        // One scratch for every rule firing of this step.
        let mut scratch = ScanScratch::default();
        let result =
            self.step_stratum_inner(db, state, loc, stratum_idx, &mut local, &mut scratch);
        local.absorb_scan(scratch.stats());
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
        scratch: &mut ScanScratch,
    ) -> Result<(), PqlError> {
        {
            let stratum = &self.query.strata[stratum_idx];
            // Aggregate rules: inputs live strictly below this stratum and
            // are final for this step; evaluate once — and only when some
            // body relation actually grew since the last evaluation.
            for &ri in stratum {
                let rule = &self.query.rules[ri];
                if rule.has_aggregate {
                    let input_size: usize = rule
                        .steps
                        .iter()
                        .map(|s| match s {
                            Step::Scan { pred, .. } | Step::Neg { pred, .. } => db.len(pred),
                            _ => 0,
                        })
                        .sum();
                    if state.agg_input_sizes.get(&ri) != Some(&input_size) {
                        self.eval_aggregate_rule(rule, db, loc, stats, scratch)?;
                        state.agg_input_sizes.insert(ri, input_size);
                    }
                }
            }

            // Scan-free rules fire once ever (their output is constant).
            for &ri in stratum {
                let rule = &self.query.rules[ri];
                if !rule.has_aggregate
                    && !rule.steps.iter().any(|s| matches!(s, Step::Scan { .. }))
                    && state.ran_scan_free.insert(ri)
                {
                    self.eval_rule_full(rule, db, loc, stats, scratch)?;
                }
            }

            // Semi-naive fixpoint for the stratum's non-aggregate rules.
            if state.frontiers.len() <= stratum_idx {
                state.frontiers.resize_with(stratum_idx + 1, BTreeMap::new);
            }
            let frontiers = &mut state.frontiers[stratum_idx];
            let mut starts: BTreeMap<&str, usize> = BTreeMap::new();
            loop {
                stats.fixpoint_rounds += 1;
                // Snapshot current lengths: this iteration's delta window
                // ends here; later insertions belong to the next one.
                for &ri in stratum {
                    for step in &self.query.rules[ri].steps {
                        if let Step::Scan { pred, .. } | Step::Neg { pred, .. } = step {
                            starts.insert(pred, db.len(pred));
                        }
                    }
                }
                let mut any_delta = false;
                for &ri in stratum {
                    let rule = &self.query.rules[ri];
                    if rule.has_aggregate {
                        continue;
                    }
                    for (si, step) in rule.steps.iter().enumerate() {
                        let Step::Scan { pred, .. } = step else {
                            continue;
                        };
                        let from = frontiers.get(pred).copied().unwrap_or(0);
                        let to = starts.get(pred.as_str()).copied().unwrap_or(0);
                        if from >= to {
                            continue;
                        }
                        any_delta = true;
                        stats.delta_tuples += (to - from) as u64;
                        self.eval_rule_with_pivot(
                            rule,
                            db,
                            loc,
                            Pivot {
                                step: si,
                                window: from..to,
                            },
                            stats,
                            scratch,
                        )?;
                    }
                }
                // Advance this stratum's frontiers to the snapshot.
                for (&pred, &to) in &starts {
                    match frontiers.get_mut(pred) {
                        Some(f) => *f = to.max(*f),
                        None => {
                            frontiers.insert(pred.to_string(), to);
                        }
                    }
                }
                if !any_delta {
                    break;
                }
            }
        }
        Ok(())
    }

    /// Evaluate one non-aggregate rule without a pivot.
    fn eval_rule_full(
        &self,
        rule: &AnalyzedRule,
        db: &mut Database,
        loc: Option<&Value>,
        stats: &mut EvalStats,
        scratch: &mut ScanScratch,
    ) -> Result<(), PqlError> {
        let mut seed = seed_env(rule, loc);
        let mut derived: Vec<Vec<Value>> = Vec::new();
        for_each_valuation_steps_stats(
            rule,
            &rule.steps,
            db,
            &self.udfs,
            &mut seed,
            None,
            &mut |env| {
                if let Some(tuple) = head_tuple(rule, env) {
                    derived.push(tuple);
                }
            },
            scratch,
        )?;
        stats.rule_firings += 1;
        stats.derived_tuples += derived.len() as u64;
        for tuple in derived {
            db.insert(&rule.pred, tuple);
        }
        Ok(())
    }

    /// Evaluate one non-aggregate rule with a delta pivot, using the
    /// rule's reordered variant so the delta relation drives the join.
    fn eval_rule_with_pivot(
        &self,
        rule: &AnalyzedRule,
        db: &mut Database,
        loc: Option<&Value>,
        pivot: Pivot,
        stats: &mut EvalStats,
        scratch: &mut ScanScratch,
    ) -> Result<(), PqlError> {
        let mut seed = seed_env(rule, loc);
        let mut derived: Vec<Vec<Value>> = Vec::new();
        let variant = rule
            .pivot_variants
            .iter()
            .find(|v| v.scan_step == pivot.step)
            .expect("pivot step is a scan");
        let fronted = Pivot {
            step: 0,
            window: pivot.window,
        };
        for_each_valuation_steps_stats(
            rule,
            &variant.steps,
            db,
            &self.udfs,
            &mut seed,
            Some(&fronted),
            &mut |env| {
                if let Some(tuple) = head_tuple(rule, env) {
                    derived.push(tuple);
                }
            },
            scratch,
        )?;
        stats.rule_firings += 1;
        stats.derived_tuples += derived.len() as u64;
        for tuple in derived {
            db.insert(&rule.pred, tuple);
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
        rule: &AnalyzedRule,
        db: &mut Database,
        loc: Option<&Value>,
        stats: &mut EvalStats,
        scratch: &mut ScanScratch,
    ) -> Result<(), PqlError> {
        let mut seed = seed_env(rule, loc);
        let mut projected: BTreeSet<(Vec<Value>, Vec<Value>)> = BTreeSet::new();
        let mut failed = false;
        for_each_valuation_steps_stats(
            rule,
            &rule.steps,
            db,
            &self.udfs,
            &mut seed,
            None,
            &mut |env| {
                let mut group = Vec::new();
                let mut aggs = Vec::new();
                for arg in &rule.head_args {
                    match arg {
                        HeadArg::Plain(t) => match eval_term(t, env) {
                            Some(v) => group.push(v),
                            None => failed = true,
                        },
                        HeadArg::Agg(_, t) => match eval_term(t, env) {
                            Some(v) => aggs.push(v),
                            None => failed = true,
                        },
                    }
                }
                if !failed {
                    projected.insert((group, aggs));
                }
            },
            scratch,
        )?;
        stats.rule_firings += 1;
        if failed {
            return Err(PqlError::analysis(
                rule.line,
                "aggregate rule evaluated a non-numeric or unbound term",
            ));
        }

        // Group and fold.
        let mut groups: BTreeMap<Vec<Value>, Vec<Vec<Value>>> = BTreeMap::new();
        for (group, aggs) in projected {
            groups.entry(group).or_default().push(aggs);
        }
        for (group, rows) in groups {
            let mut tuple = Vec::with_capacity(rule.head_args.len());
            let mut plain_iter = group.into_iter();
            let mut agg_idx = 0;
            let mut ok = true;
            for arg in &rule.head_args {
                match arg {
                    HeadArg::Plain(_) => tuple.push(plain_iter.next().expect("group arity")),
                    HeadArg::Agg(func, _) => {
                        let column: Vec<&Value> = rows.iter().map(|r| &r[agg_idx]).collect();
                        match apply_aggregate(*func, &column) {
                            Some(v) => tuple.push(v),
                            None => ok = false,
                        }
                        agg_idx += 1;
                    }
                }
            }
            if ok {
                stats.derived_tuples += 1;
                db.insert(&rule.pred, tuple);
            } else {
                return Err(PqlError::analysis(
                    rule.line,
                    "aggregate over non-numeric values",
                ));
            }
        }
        Ok(())
    }
}

pub(crate) fn seed_env<'r>(rule: &'r AnalyzedRule, loc: Option<&Value>) -> Env<'r> {
    let mut env = Env::new();
    if let Some(v) = loc {
        env.insert(rule.head_loc.as_str(), v.clone());
    }
    env
}

/// Build the head tuple for a non-aggregate rule under `env`.
pub(crate) fn head_tuple(rule: &AnalyzedRule, env: &Env<'_>) -> Option<Vec<Value>> {
    rule.head_args
        .iter()
        .map(|arg| match arg {
            HeadArg::Plain(t) => eval_term(t, env),
            HeadArg::Agg(_, _) => None, // unreachable for non-aggregate rules
        })
        .collect()
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
            ev.step(&mut inc, &mut state, None).unwrap();
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
            ev.step(&mut db, &mut state, None).unwrap();
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
        ev.step(&mut db, &mut state, None).unwrap();
        ev.step(&mut db, &mut state, None).unwrap();
        assert_eq!(
            db.sorted("seeded"),
            vec![vec![Value::Id(4), Value::Int(0)]]
        );
    }

    #[test]
    fn location_seeding_restricts_derivations() {
        let ev = evaluator("out(x, y) :- edge(x, y).");
        let mut db = edge_db(&[(1, 2), (3, 4)]);
        let mut state = EvalState::default();
        ev.step(&mut db, &mut state, Some(&Value::Id(1))).unwrap();
        assert_eq!(db.sorted("out"), vec![vec![Value::Id(1), Value::Id(2)]]);
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
