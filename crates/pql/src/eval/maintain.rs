//! Incremental view maintenance under EDB retractions — the
//! delete-and-rederive (DRed) pass that makes the evaluator *truly*
//! online.
//!
//! The semi-naive evaluator ([`crate::eval::seminaive`]) is append-only:
//! delta frontiers only ever advance, so a retracted EDB tuple would
//! leave *ghost* derived tuples behind (provenance justified by messages
//! that no longer exist). [`Evaluator::maintain`] closes that gap:
//!
//! 1. **Overdelete** — starting from the retracted EDB tuples, propagate
//!    deletions through every positive stratum: a rule firing whose body
//!    used a deleted tuple marks its head tuple deleted too, to fixpoint.
//!    This over-approximates (a head tuple with an alternative
//!    derivation is deleted anyway), which is what makes it safe.
//! 2. **Delete** — remove the overdeleted tuples (and the retracted EDB
//!    tuples themselves) from their relations.
//! 3. **Rederive** — re-run each stratum's fixpoint over the reduced
//!    database. Survivors are a subset of the new least fixpoint (every
//!    derivation that could have used a deleted tuple was removed in
//!    step 1), so seeding the monotone fixpoint from them converges to
//!    exactly the cold-evaluation result — no ghosts, no losses.
//!
//! Strata containing **negation or aggregation** are non-monotone — a
//! retraction can *add* derived tuples there — so DRed does not apply.
//! Those strata (and any stratum reading their heads) fall back to
//! clear-and-recompute: drop the stratum's head relations and re-run its
//! fixpoint on the maintained lower strata, which is exact by
//! stratification. [`MaintainReport::rebuilt_strata`] reports which
//! strata took that path; `docs/PQL.md` lists which standard EDB
//! predicates support retraction and why.
//!
//! Insert-only deltas skip all of the above and run one ordinary
//! semi-naive [`Evaluator::step`] — retraction is the only case that
//! costs more than the append path.
//!
//! Overdeletion bookkeeping lives in transient shadow relations named
//! `~del~<pred>` inside the database being maintained (the parser
//! rejects `~` in identifiers, so no user predicate can collide); they
//! are dropped before `maintain` returns.


#![warn(missing_docs)]
use crate::analysis::Step;
use crate::error::PqlError;
use crate::eval::database::Database;
use crate::eval::plan::{EvalScratch, Preds, RulePlan};
use crate::eval::relation::Tuple;
use crate::eval::seminaive::{EvalState, EvalStats, Evaluator};
use crate::eval::value::Value;
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// Shadow relation holding the (over)deleted tuples of `pred` during one
/// maintenance pass.
fn shadow_del(pred: &str) -> String {
    format!("~del~{pred}")
}

/// A batch of EDB changes to apply and propagate: tuple insertions and
/// tuple retractions. Only EDB predicates may appear — derived (IDB)
/// facts change exclusively through rules.
#[derive(Clone, Debug, Default)]
pub struct EdbDelta {
    additions: Vec<(String, Tuple)>,
    retractions: Vec<(String, Tuple)>,
}

impl EdbDelta {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue a tuple insertion. Inserting a tuple already present is a
    /// no-op at apply time (relations deduplicate).
    pub fn insert(&mut self, pred: &str, tuple: Tuple) -> &mut Self {
        self.additions.push((pred.to_string(), tuple));
        self
    }

    /// Queue a tuple retraction. Retracting an absent tuple is a no-op
    /// at apply time.
    pub fn retract(&mut self, pred: &str, tuple: Tuple) -> &mut Self {
        self.retractions.push((pred.to_string(), tuple));
        self
    }

    /// Whether the delta queues any change.
    pub fn is_empty(&self) -> bool {
        self.additions.is_empty() && self.retractions.is_empty()
    }

    /// Total queued operations.
    pub fn len(&self) -> usize {
        self.additions.len() + self.retractions.len()
    }

    /// Whether the delta retracts anything (the condition that routes
    /// maintenance through DRed instead of plain semi-naive).
    pub fn has_retractions(&self) -> bool {
        !self.retractions.is_empty()
    }
}

/// Which maintenance path a delta took.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MaintainMode {
    /// No retractions: ordinary semi-naive append.
    InsertOnly,
    /// Retractions present: overdelete, delete, rederive.
    Dred,
}

/// What one [`Evaluator::maintain`] call did.
#[derive(Clone, Debug)]
pub struct MaintainReport {
    /// Evaluation work counters (overdeletion rule firings included).
    pub stats: EvalStats,
    /// Which path the delta took.
    pub mode: MaintainMode,
    /// EDB tuples actually removed (queued retractions of absent tuples
    /// are dropped silently).
    pub retracted: u64,
    /// Derived tuples removed by overdeletion. An over-approximation by
    /// design: some are re-derived in the rederivation phase.
    pub overdeleted: u64,
    /// Strata that fell back to clear-and-recompute (negation,
    /// aggregation, or dependence on a rebuilt stratum).
    pub rebuilt_strata: Vec<usize>,
}

impl Default for MaintainReport {
    fn default() -> Self {
        MaintainReport {
            stats: EvalStats::default(),
            mode: MaintainMode::InsertOnly,
            retracted: 0,
            overdeleted: 0,
            rebuilt_strata: Vec::new(),
        }
    }
}

impl Evaluator {
    /// Apply an EDB delta and restore the database to exactly the state
    /// a cold [`Evaluator::run`] over the mutated EDB would produce.
    ///
    /// `state` is the same incremental state used by
    /// [`Evaluator::step`]; on the retraction path it is reset (tuple
    /// removal compacts relation indices, invalidating every frontier)
    /// and rebuilt by the rederivation pass, so callers can keep
    /// streaming appends through `step` afterwards.
    ///
    /// Errors if the delta names an IDB predicate: derived facts can
    /// only change through their rules.
    pub fn maintain(
        &self,
        db: &mut Database,
        state: &mut EvalState,
        loc: Option<&Value>,
        delta: &EdbDelta,
    ) -> Result<MaintainReport, PqlError> {
        let q = self.query();
        for (pred, _) in delta.additions.iter().chain(&delta.retractions) {
            if q.idbs.contains_key(pred) {
                return Err(PqlError::analysis(
                    0,
                    format!("cannot mutate IDB predicate '{pred}': derived facts change only through rules"),
                ));
            }
        }

        let mut report = MaintainReport::default();
        let mut scratch = EvalScratch::default();

        // Append-only fast path: plain semi-naive.
        if !delta.has_retractions() {
            for (pred, t) in &delta.additions {
                db.insert(pred, t.clone());
            }
            self.step(db, state, loc, &mut report.stats, &mut scratch)?;
            return Ok(report);
        }
        report.mode = MaintainMode::Dred;

        // Classify strata: DRed handles positive rules only. Negation and
        // aggregation are non-monotone under retraction, and a stratum
        // reading a rebuilt stratum's head has no tuple-level delta to
        // propagate — both rebuild.
        let mut rebuild = vec![false; q.strata.len()];
        let mut rebuilt_preds: BTreeSet<&str> = BTreeSet::new();
        for (si, stratum) in q.strata.iter().enumerate() {
            let mut rb = false;
            for &ri in stratum {
                let rule = &q.rules[ri];
                if rule.has_aggregate {
                    rb = true;
                }
                for step in &rule.steps {
                    match step {
                        Step::Neg { .. } => rb = true,
                        Step::Scan { pred, .. } if rebuilt_preds.contains(pred.as_str()) => {
                            rb = true
                        }
                        _ => {}
                    }
                }
            }
            if rb {
                rebuild[si] = true;
                for &ri in stratum {
                    rebuilt_preds.insert(q.rules[ri].pred.as_str());
                }
            }
        }

        // Seed the deleted sets with the retractions actually present.
        let mut shadow_preds: BTreeSet<String> = BTreeSet::new();
        for (pred, t) in &delta.retractions {
            if db.relation(pred).is_some_and(|r| r.contains(t)) {
                let shadow = shadow_del(pred);
                if db.relation_mut(&shadow, t.len()).insert(t.clone()) {
                    report.retracted += 1;
                }
                shadow_preds.insert(pred.clone());
            }
        }

        // Phase 1: overdeletion, stratum by stratum, against the *old*
        // database (nothing removed yet). Each round snapshots the shadow
        // lengths, pivots every scan over its unconsumed deleted window,
        // and marks derived heads deleted; new shadow tuples feed the
        // next round until quiescent.
        let mut consumed: BTreeMap<(usize, String), usize> = BTreeMap::new();
        let mut at = Vec::new();
        for (si, stratum) in q.strata.iter().enumerate() {
            if rebuild[si] {
                continue;
            }
            loop {
                let mut ends: BTreeMap<String, usize> = BTreeMap::new();
                for &ri in stratum {
                    for step in &q.rules[ri].steps {
                        if let Step::Scan { pred, .. } = step {
                            ends.entry(pred.clone())
                                .or_insert_with(|| db.len(&shadow_del(pred)));
                        }
                    }
                }
                let mut any = false;
                for &ri in stratum {
                    let rule = &q.rules[ri];
                    for (step_i, step) in rule.steps.iter().enumerate() {
                        let Step::Scan { pred, .. } = step else {
                            continue;
                        };
                        let to = ends[pred];
                        let from = consumed
                            .get(&(si, pred.clone()))
                            .copied()
                            .unwrap_or(0);
                        if from >= to {
                            continue;
                        }
                        any = true;
                        report.stats.delta_tuples += (to - from) as u64;

                        // Evaluate the rule's pivot variant with the
                        // pivot scan redirected at the shadow relation:
                        // one body atom deleted, the rest over the old
                        // database — the standard DRed delta-rule.
                        let variant = rule
                            .pivot_variants
                            .iter()
                            .find(|v| v.scan_step == step_i)
                            .expect("pivot step is a scan");
                        let mut steps = variant.steps.clone();
                        if let Step::Scan { pred, .. } = &mut steps[0] {
                            *pred = shadow_del(pred);
                        }
                        let mut preds = Preds::default();
                        let plan =
                            RulePlan::compile(rule, &steps, loc.is_some(), self.udfs(), &mut preds);
                        preds.locate(db, &mut at);
                        scratch.begin();
                        plan.fire(db, &at, loc, Some(from..to), &mut scratch)?;
                        report.stats.rule_firings += 1;
                        report.stats.scratch_reuse += scratch.repeat_uses;
                        report.stats.scratch_alloc += scratch.first_uses;
                        let dead: Vec<Tuple> = scratch
                            .derived
                            .chunks_exact(plan.head_arity())
                            .map(<[Value]>::to_vec)
                            .collect();
                        for t in dead {
                            if db.relation(&rule.pred).is_some_and(|r| r.contains(&t)) {
                                let shadow = shadow_del(&rule.pred);
                                if db.relation_mut(&shadow, t.len()).insert(t) {
                                    report.overdeleted += 1;
                                }
                                shadow_preds.insert(rule.pred.clone());
                            }
                        }
                    }
                }
                for (pred, to) in ends {
                    let f = consumed.entry((si, pred)).or_insert(0);
                    if *f < to {
                        *f = to;
                    }
                }
                report.stats.fixpoint_rounds += 1;
                if !any {
                    break;
                }
            }
        }

        // Phase 2: apply the deletions, then the additions.
        for pred in &shadow_preds {
            let dead: HashSet<Tuple> = db
                .relation(&shadow_del(pred))
                .map(|r| r.scan().iter().cloned().collect())
                .unwrap_or_default();
            db.retain(pred, |t| !dead.contains(t));
        }
        for (pred, t) in &delta.additions {
            db.insert(pred, t.clone());
        }

        // Phase 3: rederive. Removal compacted tuple indices, so every
        // frontier is stale — reset the whole incremental state and
        // re-run each stratum's fixpoint in order. DRed strata seed from
        // their survivors (a subset of the new least fixpoint, so the
        // monotone closure lands exactly on it); rebuild strata drop
        // their heads first and recompute from the maintained input.
        *state = EvalState::default();
        for (si, stratum) in q.strata.iter().enumerate() {
            if rebuild[si] {
                let heads: BTreeSet<&str> =
                    stratum.iter().map(|&ri| q.rules[ri].pred.as_str()).collect();
                for head in heads {
                    db.clear(head);
                }
                report.rebuilt_strata.push(si);
            }
            self.step_stratum(db, state, loc, si, &mut report.stats, &mut scratch)?;
        }

        // Drop the transient shadow relations.
        for pred in &shadow_preds {
            db.remove_relation(&shadow_del(pred));
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::udf::UdfRegistry;
    use crate::{analyze, parse, Catalog, Params};

    fn evaluator(src: &str) -> Evaluator {
        let q = analyze(&parse(src).unwrap(), &Catalog::standard(), &Params::new()).unwrap();
        Evaluator::new(q, UdfRegistry::standard())
    }

    fn edge(a: u64, b: u64) -> Tuple {
        vec![Value::Id(a), Value::Id(b)]
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
            db.insert("edge", edge(a, b));
        }
        db
    }

    /// Cold-run oracle: every IDB relation must match a from-scratch
    /// evaluation over the maintained EDB.
    fn assert_matches_cold(ev: &Evaluator, db: &Database) {
        let mut cold = Database::new();
        for pred in &ev.query().edbs {
            if let Some(r) = db.relation(pred) {
                for t in r.scan() {
                    cold.insert(pred, t.clone());
                }
            }
        }
        ev.run(&mut cold).unwrap();
        for (pred, _) in ev.query().idbs.iter() {
            assert_eq!(
                db.sorted(pred),
                cold.sorted(pred),
                "maintained '{pred}' diverges from cold re-run"
            );
        }
    }

    const REACH: &str = "reach(x) :- edge(x, y), y = 0.
                         reach(x) :- edge(x, y), reach(y).";

    #[test]
    fn retraction_removes_ghost_derivations() {
        let ev = evaluator(REACH);
        let mut db = edge_db(&[(1, 0), (2, 1), (3, 2)]);
        ev.run(&mut db).unwrap();
        assert_eq!(db.len("reach"), 3);

        // Cut the chain at 2 -> 1: both 2 and 3 lose reachability.
        let mut state = EvalState::default();
        let mut delta = EdbDelta::new();
        delta.retract("edge", edge(2, 1));
        let report = ev.maintain(&mut db, &mut state, None, &delta).unwrap();
        assert_eq!(report.mode, MaintainMode::Dred);
        assert_eq!(report.retracted, 1);
        assert!(report.overdeleted >= 2, "2 and 3 must be overdeleted");
        assert_eq!(
            db.sorted("reach"),
            vec![vec![Value::Id(1)]],
            "ghost tuples survived retraction"
        );
        assert_matches_cold(&ev, &db);
    }

    #[test]
    fn alternative_derivation_survives_via_rederivation() {
        let ev = evaluator(REACH);
        // 2 reaches 0 both through 1 and directly.
        let mut db = edge_db(&[(1, 0), (2, 1), (2, 0), (3, 2)]);
        ev.run(&mut db).unwrap();

        let mut state = EvalState::default();
        let mut delta = EdbDelta::new();
        delta.retract("edge", edge(2, 1));
        ev.maintain(&mut db, &mut state, None, &delta).unwrap();
        // 2 is overdeleted (its derivation through 1 died) but rederived
        // through the direct edge; 3 keeps riding on 2.
        assert_eq!(
            db.sorted("reach"),
            vec![vec![Value::Id(1)], vec![Value::Id(2)], vec![Value::Id(3)]]
        );
        assert_matches_cold(&ev, &db);
    }

    #[test]
    fn mixed_delta_applies_both_directions() {
        let ev = evaluator(REACH);
        let mut db = edge_db(&[(1, 0), (2, 1)]);
        ev.run(&mut db).unwrap();

        let mut state = EvalState::default();
        let mut delta = EdbDelta::new();
        delta.retract("edge", edge(2, 1));
        delta.insert("edge", edge(3, 1));
        delta.insert("edge", edge(4, 3));
        ev.maintain(&mut db, &mut state, None, &delta).unwrap();
        assert_eq!(
            db.sorted("reach"),
            vec![vec![Value::Id(1)], vec![Value::Id(3)], vec![Value::Id(4)]]
        );
        assert_matches_cold(&ev, &db);
    }

    #[test]
    fn insert_only_takes_seminaive_path_and_keeps_state_usable() {
        let ev = evaluator(REACH);
        let mut db = edge_db(&[(1, 0)]);
        let mut state = EvalState::default();
        step(&ev, &mut db, &mut state, None);

        let mut delta = EdbDelta::new();
        delta.insert("edge", edge(2, 1));
        let report = ev.maintain(&mut db, &mut state, None, &delta).unwrap();
        assert_eq!(report.mode, MaintainMode::InsertOnly);
        assert_eq!(report.retracted + report.overdeleted, 0);

        // The same state keeps streaming through step() afterwards.
        db.insert("edge", edge(3, 2));
        step(&ev, &mut db, &mut state, None);
        assert_eq!(db.len("reach"), 3);
        assert_matches_cold(&ev, &db);
    }

    #[test]
    fn state_remains_usable_for_appends_after_dred() {
        let ev = evaluator(REACH);
        let mut db = edge_db(&[(1, 0), (2, 1), (3, 2)]);
        let mut state = EvalState::default();
        step(&ev, &mut db, &mut state, None);

        let mut delta = EdbDelta::new();
        delta.retract("edge", edge(3, 2));
        ev.maintain(&mut db, &mut state, None, &delta).unwrap();
        assert_eq!(db.len("reach"), 2);

        db.insert("edge", edge(3, 1));
        step(&ev, &mut db, &mut state, None);
        assert_eq!(db.len("reach"), 3);
        assert_matches_cold(&ev, &db);
    }

    #[test]
    fn negation_stratum_rebuilds_exactly() {
        let ev = evaluator(
            "linked(x) :- edge(x, y).
             terminal(x, y) :- edge(x, y), !linked(y).",
        );
        let mut db = edge_db(&[(1, 2), (2, 3)]);
        ev.run(&mut db).unwrap();
        // Only 3 is terminal (no outgoing edge).
        assert_eq!(db.len("terminal"), 1);

        // Retract 2 -> 3: now 2 becomes terminal — a retraction *adding*
        // derived tuples, which only the rebuild path can produce.
        let mut state = EvalState::default();
        let mut delta = EdbDelta::new();
        delta.retract("edge", edge(2, 3));
        let report = ev.maintain(&mut db, &mut state, None, &delta).unwrap();
        assert!(
            !report.rebuilt_strata.is_empty(),
            "negation stratum must rebuild"
        );
        let t = db.sorted("terminal");
        assert_eq!(t, vec![vec![Value::Id(1), Value::Id(2)]]);
        assert_matches_cold(&ev, &db);
    }

    #[test]
    fn aggregate_stratum_rebuilds_stale_groups() {
        let ev = evaluator("in_degree(x, count(y)) :- in_edge(x, y).");
        let mut db = Database::new();
        for (x, y) in [(1u64, 2u64), (1, 3), (2, 1)] {
            db.insert("in_edge", vec![Value::Id(x), Value::Id(y)]);
        }
        ev.run(&mut db).unwrap();
        assert_eq!(db.sorted("in_degree")[0], vec![Value::Id(1), Value::Int(2)]);

        let mut state = EvalState::default();
        let mut delta = EdbDelta::new();
        // Net size unchanged: one out, one in — the stale-group trap.
        delta.retract("in_edge", vec![Value::Id(1), Value::Id(3)]);
        delta.insert("in_edge", vec![Value::Id(3), Value::Id(1)]);
        ev.maintain(&mut db, &mut state, None, &delta).unwrap();
        assert_eq!(
            db.sorted("in_degree"),
            vec![
                vec![Value::Id(1), Value::Int(1)],
                vec![Value::Id(2), Value::Int(1)],
                vec![Value::Id(3), Value::Int(1)],
            ]
        );
        assert_matches_cold(&ev, &db);
    }

    #[test]
    fn retracting_idb_is_an_error() {
        let ev = evaluator(REACH);
        let mut db = edge_db(&[(1, 0)]);
        ev.run(&mut db).unwrap();
        let mut state = EvalState::default();
        let mut delta = EdbDelta::new();
        delta.retract("reach", vec![Value::Id(1)]);
        assert!(ev.maintain(&mut db, &mut state, None, &delta).is_err());
    }

    #[test]
    fn retracting_absent_tuple_is_noop() {
        let ev = evaluator(REACH);
        let mut db = edge_db(&[(1, 0)]);
        ev.run(&mut db).unwrap();
        let before = db.sorted("reach");
        let mut state = EvalState::default();
        let mut delta = EdbDelta::new();
        delta.retract("edge", edge(7, 8));
        let report = ev.maintain(&mut db, &mut state, None, &delta).unwrap();
        assert_eq!(report.retracted, 0);
        assert_eq!(db.sorted("reach"), before);
    }

    #[test]
    fn shadow_relations_are_dropped() {
        let ev = evaluator(REACH);
        let mut db = edge_db(&[(1, 0), (2, 1)]);
        ev.run(&mut db).unwrap();
        let mut state = EvalState::default();
        let mut delta = EdbDelta::new();
        delta.retract("edge", edge(2, 1));
        ev.maintain(&mut db, &mut state, None, &delta).unwrap();
        assert!(
            db.iter().all(|(name, _)| !name.starts_with('~')),
            "transient shadow relations leaked"
        );
    }

    #[test]
    fn random_batches_match_cold_rerun() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let ev = evaluator(REACH);
        let mut rng = StdRng::seed_from_u64(42);
        let mut edges: BTreeSet<(u64, u64)> = BTreeSet::new();
        let mut db = Database::new();
        let mut state = EvalState::default();
        for round in 0..12 {
            let mut delta = EdbDelta::new();
            for _ in 0..rng.gen_range(1..6) {
                if !edges.is_empty() && rng.gen_bool(0.4) {
                    let &(a, b) = edges
                        .iter()
                        .nth(rng.gen_range(0..edges.len()))
                        .unwrap();
                    edges.remove(&(a, b));
                    delta.retract("edge", edge(a, b));
                } else {
                    let a = rng.gen_range(0..12u64);
                    let b = rng.gen_range(0..12u64);
                    edges.insert((a, b));
                    delta.insert("edge", edge(a, b));
                }
            }
            ev.maintain(&mut db, &mut state, None, &delta)
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
            assert_matches_cold(&ev, &db);
        }
    }
}
