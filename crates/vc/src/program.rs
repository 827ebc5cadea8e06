//! The vertex-program abstraction (Algorithm 1 in the paper's appendix).

use crate::aggregate::{AggOp, Aggregates};
use crate::context::Context;
use crate::message::{Combiner, Envelope};
use ariadne_graph::{Csr, VertexId};

/// How a program's fixpoint behaves under graph mutations — what the
/// incremental re-execution path ([`crate::incremental`]) is allowed to
/// reuse from the previous epoch's values.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Incrementality {
    /// No reuse: any mutation re-runs the analytic from scratch. The
    /// safe default, and the right answer for non-monotone fixpoints
    /// (PageRank, ALS) whose values all shift under any edge change.
    Restart,
    /// The fixpoint is the unique least (or greatest) solution of a
    /// monotone operator, so previous-epoch values outside the mutation's
    /// invalidation closure are still exact and can seed the next run
    /// (SSSP distances, WCC min-labels). `deletion_safe` says whether
    /// that still holds when edges are *removed*: true when invalidated
    /// values can be recomputed from a reset frontier (SSSP — reset the
    /// forward closure of each deleted edge's head), false when a
    /// deletion can raise values globally within a region the frontier
    /// cannot bound (WCC — a component split re-labels half the
    /// component, so deletion batches restart).
    Monotone {
        /// Whether seeding remains exact under edge/vertex removals.
        deletion_safe: bool,
    },
}

/// A vertex-centric program: the single function executed by every vertex
/// at every superstep, plus its configuration (initial values, combiner,
/// aggregators, termination).
pub trait VertexProgram: Send + Sync {
    /// Per-vertex value type. Only `Send` is required: a vertex value is
    /// owned by exactly one worker within a superstep, so interior
    /// mutability without `Sync` (e.g. `RefCell` state in Ariadne's query
    /// vertex programs) is fine.
    type V: Clone + Send;
    /// Message type. `Sync` is required because delivery workers read
    /// every producer's buffers concurrently; `'static` lets a wrapping
    /// program box a combiner over its own message type around the one
    /// it wraps.
    type M: Clone + Send + Sync + 'static;

    /// Initial value of vertex `v` before superstep 0.
    fn init(&self, v: VertexId, graph: &Csr) -> Self::V;

    /// The vertex program body: read `messages`, update `value`, send
    /// messages via `ctx` (visible next superstep).
    fn compute(
        &self,
        ctx: &mut dyn Context<Self::M>,
        value: &mut Self::V,
        messages: &[Envelope<Self::M>],
    );

    /// Optional message combiner. Combining collapses per-source message
    /// identity (see [`Envelope::COMBINED`]); Ariadne keeps it only for a
    /// run that cannot see a sender.
    fn combiner(&self) -> Option<Box<dyn Combiner<Self::M>>> {
        None
    }

    /// Global aggregators this program uses.
    fn aggregators(&self) -> Vec<(String, AggOp)> {
        Vec::new()
    }

    /// If true, every vertex computes every superstep regardless of its
    /// inbox (Giraph PageRank behaviour); otherwise a vertex computes only
    /// when it has messages (plus everyone at superstep 0).
    fn always_active(&self) -> bool {
        false
    }

    /// Hard cap on supersteps (the engine also stops any run at 10,000).
    fn max_supersteps(&self) -> u32 {
        u32::MAX
    }

    /// Checked at the barrier after each superstep with the aggregator
    /// values reduced during it; returning true ends the run.
    fn should_halt(&self, _superstep: u32, _aggregates: &Aggregates) -> bool {
        false
    }

    /// Approximate serialized size of a message in bytes, for the
    /// engine's traffic metrics. Override for variable-size messages.
    fn message_bytes(&self, _msg: &Self::M) -> usize {
        std::mem::size_of::<Self::M>()
    }

    /// What a checkpoint records of this program: [`crate::Engine::resume`]
    /// refuses a snapshot written under another identity
    /// ([`crate::EngineError::ProgramMismatch`]). Empty by default; a
    /// program whose resumable state depends on more than its types (a
    /// wrapped query, say) names that here.
    fn identity(&self) -> String {
        String::new()
    }

    /// How this program's fixpoint behaves under graph mutations. The
    /// default, [`Incrementality::Restart`], disables value reuse;
    /// programs returning [`Incrementality::Monotone`] must also
    /// implement [`VertexProgram::reseed`].
    fn incrementality(&self) -> Incrementality {
        Incrementality::Restart
    }

    /// Re-emit the messages that re-establish this vertex's contribution
    /// to the fixpoint, given its (seeded) `value` — called instead of
    /// [`VertexProgram::compute`] at superstep 0 of an incremental run,
    /// and only for vertices in the activation frontier. The vertex may
    /// repair its own value here (e.g. SSSP's source restores distance 0
    /// after a taint reset). Programs declaring
    /// [`Incrementality::Restart`] never have this called.
    fn reseed(&self, _ctx: &mut dyn Context<Self::M>, _value: &mut Self::V) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Noop;
    impl VertexProgram for Noop {
        type V = ();
        type M = ();
        fn init(&self, _: VertexId, _: &Csr) {}
        fn compute(&self, _: &mut dyn Context<()>, _: &mut (), _: &[Envelope<()>]) {}
    }

    #[test]
    fn defaults() {
        let p = Noop;
        assert!(p.combiner().is_none());
        assert!(p.aggregators().is_empty());
        assert!(!p.always_active());
        assert_eq!(p.max_supersteps(), u32::MAX);
        assert!(!p.should_halt(0, &Aggregates::default()));
        assert_eq!(p.message_bytes(&()), 0);
    }
}
