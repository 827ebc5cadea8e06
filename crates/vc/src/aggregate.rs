//! Global aggregators, reduced at the superstep barrier (Giraph-style).
//!
//! A vertex contributes values during superstep `i`; the reduced result is
//! visible to every vertex at superstep `i + 1` and to the program's halt
//! condition at the barrier. PageRank's tolerance-based termination and
//! ALS's global-error tracking use these.

use std::sync::Arc;

/// A value contributed to / read from an aggregator.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum AggValue {
    /// Floating point.
    F64(f64),
    /// Integer (counts).
    I64(i64),
    /// Boolean (and/or reductions).
    Bool(bool),
}

impl AggValue {
    /// The f64 inside, panicking on type mismatch (programming error).
    pub fn as_f64(self) -> f64 {
        match self {
            AggValue::F64(v) => v,
            other => panic!("aggregator value {other:?} is not F64"),
        }
    }

    /// The i64 inside, panicking on type mismatch.
    pub fn as_i64(self) -> i64 {
        match self {
            AggValue::I64(v) => v,
            other => panic!("aggregator value {other:?} is not I64"),
        }
    }

    /// The bool inside, panicking on type mismatch.
    pub fn as_bool(self) -> bool {
        match self {
            AggValue::Bool(v) => v,
            other => panic!("aggregator value {other:?} is not Bool"),
        }
    }
}

/// Reduction operator for an aggregator.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum AggOp {
    /// Numeric sum.
    Sum,
    /// Numeric minimum.
    Min,
    /// Numeric maximum.
    Max,
    /// Boolean conjunction.
    And,
    /// Boolean disjunction.
    Or,
}

impl AggOp {
    /// Reduce two values; panics on type mismatch between contributions.
    pub fn reduce(self, a: AggValue, b: AggValue) -> AggValue {
        use AggValue::*;
        match (self, a, b) {
            (AggOp::Sum, F64(x), F64(y)) => F64(x + y),
            (AggOp::Sum, I64(x), I64(y)) => I64(x + y),
            (AggOp::Min, F64(x), F64(y)) => F64(x.min(y)),
            (AggOp::Min, I64(x), I64(y)) => I64(x.min(y)),
            (AggOp::Max, F64(x), F64(y)) => F64(x.max(y)),
            (AggOp::Max, I64(x), I64(y)) => I64(x.max(y)),
            (AggOp::And, Bool(x), Bool(y)) => Bool(x && y),
            (AggOp::Or, Bool(x), Bool(y)) => Bool(x || y),
            (op, a, b) => panic!("aggregator type mismatch: {op:?} over {a:?}, {b:?}"),
        }
    }
}

/// A store of named aggregators with their reduction ops.
///
/// The registrations are sorted by name, one per name, and shared (an
/// `Arc`) between the run's store and every worker-local copy; values sit
/// in slots aligned with them. A contribution is a scan of a handful of
/// names and a reduce in place: no hashing and no allocation, which
/// matters because PageRank contributes once per vertex-step.
#[derive(Clone, Debug, PartialEq)]
pub struct Aggregates {
    pub(crate) ops: Arc<[(String, AggOp)]>,
    pub(crate) current: Vec<Option<AggValue>>,
    pub(crate) previous: Vec<Option<AggValue>>,
}

impl Default for Aggregates {
    fn default() -> Self {
        Aggregates::new([])
    }
}

impl Aggregates {
    /// Create a store with the given registrations. A name registered
    /// twice keeps its last op.
    pub fn new(defs: impl IntoIterator<Item = (String, AggOp)>) -> Self {
        let mut ops: Vec<(String, AggOp)> = defs.into_iter().collect();
        // Reversed, a stable sort puts each name's last registration
        // first among its duplicates, and `dedup_by` keeps the first.
        ops.reverse();
        ops.sort_by(|a, b| a.0.cmp(&b.0));
        ops.dedup_by(|a, b| a.0 == b.0);
        let n = ops.len();
        Aggregates {
            ops: ops.into(),
            current: vec![None; n],
            previous: vec![None; n],
        }
    }

    /// The slot of aggregator `name`, if registered.
    #[inline]
    fn slot(&self, name: &str) -> Option<usize> {
        self.ops.iter().position(|(n, _)| n == name)
    }

    /// Contribute `value` to aggregator `name` for the current superstep.
    ///
    /// Panics if `name` was never registered — contributing to an unknown
    /// aggregator is a programming error we want loud.
    pub fn contribute(&mut self, name: &str, value: AggValue) {
        let k = self
            .slot(name)
            .unwrap_or_else(|| panic!("aggregator {name:?} not registered"));
        self.reduce_into(k, value);
    }

    /// Fold `value` into slot `k`'s current value.
    #[inline]
    fn reduce_into(&mut self, k: usize, value: AggValue) {
        let op = self.ops[k].1;
        let slot = &mut self.current[k];
        *slot = Some(match *slot {
            Some(acc) => op.reduce(acc, value),
            None => value,
        });
    }

    /// The reduced value from the *previous* superstep, if any vertex
    /// contributed then.
    pub fn previous(&self, name: &str) -> Option<AggValue> {
        self.slot(name).and_then(|k| self.previous[k])
    }

    /// The value reduced so far in the current superstep (used by the halt
    /// check at the barrier, before rotation).
    pub fn current(&self, name: &str) -> Option<AggValue> {
        self.slot(name).and_then(|k| self.current[k])
    }

    /// Fold one flushed partial (current values in slot order, as
    /// [`Aggregates::flush_into`] appends them) into the current values:
    /// how the barrier merges worker-local stores, in block order.
    pub(crate) fn merge_slots(&mut self, partial: &[Option<AggValue>]) {
        debug_assert_eq!(partial.len(), self.ops.len());
        for (k, value) in partial.iter().enumerate() {
            if let Some(value) = *value {
                self.reduce_into(k, value);
            }
        }
    }

    /// Append the current values in slot order to `out` and clear them:
    /// how a worker hands the barrier one sender block's partial without
    /// allocating a store per block.
    pub(crate) fn flush_into(&mut self, out: &mut Vec<Option<AggValue>>) {
        out.extend_from_slice(&self.current);
        self.current.fill(None);
    }

    /// Number of registered aggregators (the width of a flushed partial).
    pub(crate) fn len(&self) -> usize {
        self.ops.len()
    }

    /// Rotate at the barrier: current becomes previous, current clears.
    pub fn rotate(&mut self) {
        std::mem::swap(&mut self.previous, &mut self.current);
        self.current.fill(None);
    }

    /// A worker-local copy with the same (shared) registrations and empty
    /// values.
    pub fn fresh_local(&self) -> Aggregates {
        let n = self.ops.len();
        Aggregates {
            ops: Arc::clone(&self.ops),
            current: vec![None; n],
            previous: vec![None; n],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> Aggregates {
        Aggregates::new([
            ("sum".to_string(), AggOp::Sum),
            ("min".to_string(), AggOp::Min),
            ("any".to_string(), AggOp::Or),
        ])
    }

    #[test]
    fn sum_reduction() {
        let mut a = store();
        a.contribute("sum", AggValue::F64(1.0));
        a.contribute("sum", AggValue::F64(2.5));
        assert_eq!(a.current("sum"), Some(AggValue::F64(3.5)));
    }

    #[test]
    fn rotation_makes_previous_visible() {
        let mut a = store();
        a.contribute("min", AggValue::I64(9));
        a.contribute("min", AggValue::I64(3));
        assert_eq!(a.previous("min"), None);
        a.rotate();
        assert_eq!(a.previous("min"), Some(AggValue::I64(3)));
        assert_eq!(a.current("min"), None);
    }

    #[test]
    fn merge_worker_locals() {
        let mut global = store();
        let mut w1 = global.fresh_local();
        let mut w2 = global.fresh_local();
        w1.contribute("any", AggValue::Bool(false));
        w2.contribute("any", AggValue::Bool(true));
        let mut partials = Vec::new();
        w1.flush_into(&mut partials);
        w2.flush_into(&mut partials);
        assert_eq!(w1.current("any"), None, "a flush clears the local store");
        for partial in partials.chunks_exact(global.len()) {
            global.merge_slots(partial);
        }
        assert_eq!(global.current("any"), Some(AggValue::Bool(true)));
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unknown_aggregator_panics() {
        store().contribute("nope", AggValue::F64(0.0));
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn type_mismatch_panics() {
        let mut a = store();
        a.contribute("sum", AggValue::F64(1.0));
        a.contribute("sum", AggValue::I64(1));
    }

    #[test]
    fn accessors() {
        assert_eq!(AggValue::F64(2.0).as_f64(), 2.0);
        assert_eq!(AggValue::I64(2).as_i64(), 2);
        assert!(AggValue::Bool(true).as_bool());
    }
}
