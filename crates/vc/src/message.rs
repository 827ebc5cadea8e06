//! Message envelopes and combiners.

use crate::engine::{DeliveryFold, SendPlane};
use ariadne_graph::{EdgeRef, VertexId};

/// A message together with its sender.
///
/// Giraph messages do not carry their source, but Ariadne's provenance
/// model does (`receive-message(x, y, m, i)` names the sender `y`), so the
/// engine tracks it. When a [`Combiner`] merges messages from different
/// sources, the combined envelope's source becomes [`Envelope::COMBINED`].
#[derive(Clone, PartialEq, Debug)]
pub struct Envelope<M> {
    /// The sending vertex, or [`Envelope::COMBINED`] after combining.
    pub src: VertexId,
    /// The message payload.
    pub msg: M,
}

impl<M> Envelope<M> {
    /// Sentinel source for messages merged by a combiner.
    pub const COMBINED: VertexId = VertexId(u64::MAX);

    /// Construct an envelope.
    pub fn new(src: VertexId, msg: M) -> Self {
        Envelope { src, msg }
    }

    /// Whether this envelope lost its per-source identity to a combiner.
    pub fn is_combined(&self) -> bool {
        self.src == Self::COMBINED
    }
}

/// Commutative, associative message combiner (Giraph's `MessageCombiner`).
///
/// Combining reduces message traffic for analytics that only need an
/// aggregate of their inbox (min for SSSP/WCC, sum for PageRank). Note
/// that combining erases per-source message provenance, so Ariadne's
/// wrapper disables the combiner for every capture and for every online
/// query that reads a sender or a message payload; an online query that
/// reads neither keeps it (see `ariadne-core`'s `online` module).
pub trait Combiner<M>: Send + Sync {
    /// Merge `incoming` into the accumulator `acc`.
    fn combine(&self, acc: &mut M, incoming: &M);

    /// Whether the combined result is bit-identical regardless of how the
    /// message multiset is grouped and ordered.
    ///
    /// Selection combiners (min/max) and wrapping-integer sums are exact;
    /// floating-point accumulation is **not** (addition is not
    /// associative at the bit level). The engine only performs
    /// *sender-side* combining — which partitions the message stream into
    /// per-worker partials whose grouping depends on the chunk layout —
    /// for exact combiners. Non-exact combiners are still honoured, but
    /// at delivery time in global sender order, which keeps N-thread runs
    /// bit-identical to 1-thread runs and combined runs bit-identical to
    /// uncombined ones.
    ///
    /// The default is `false`: a custom combiner must opt in to the
    /// stronger claim.
    fn is_exact(&self) -> bool {
        false
    }

    /// Fold one producer buffer into a destination chunk's inbox at
    /// delivery, in buffer order. The engine calls this once per
    /// (producer, destination chunk) pair; the provided body runs the
    /// whole loop inside this combiner's own monomorphised code, so a
    /// message costs a static `combine` call, not a dynamic one.
    /// Nothing needs to override it.
    #[doc(hidden)]
    fn fold_delivered(&self, fold: &mut DeliveryFold<'_, M>) {
        fold.fold(|acc, incoming| self.combine(acc, incoming));
    }

    /// Sender-side combining of one send from `src` to `to` (exact
    /// combiners only). Provided for the same reason as
    /// `fold_delivered`: the fold runs in this combiner's own code.
    #[doc(hidden)]
    fn fold_sent(&self, plane: &mut SendPlane<'_, M>, src: VertexId, to: VertexId, msg: M) {
        plane.fold(src, to, msg, |acc, incoming| self.combine(acc, incoming));
    }

    /// Sender-side combining of `msg(edge)` from `src` along a neighbour
    /// slice, in slice order: one dynamic call per run of edges instead
    /// of one per folded message.
    #[doc(hidden)]
    fn fold_along(
        &self,
        plane: &mut SendPlane<'_, M>,
        src: VertexId,
        ids: &[VertexId],
        weights: &[f64],
        msg: &dyn Fn(EdgeRef) -> M,
    ) {
        for (&neighbor, &weight) in ids.iter().zip(weights) {
            let m = msg(EdgeRef { neighbor, weight });
            plane.fold(src, neighbor, m, |acc, incoming| {
                self.combine(acc, incoming)
            });
        }
    }
}

/// Keeps the minimum message (for [`PartialOrd`] messages).
#[derive(Default, Copy, Clone, Debug)]
pub struct MinCombiner;

impl<M: PartialOrd + Clone + Send + Sync> Combiner<M> for MinCombiner {
    fn combine(&self, acc: &mut M, incoming: &M) {
        if incoming < acc {
            *acc = incoming.clone();
        }
    }

    /// Selection of the minimum is grouping-insensitive. (Caveat: values
    /// that compare equal but differ at the bit level — `-0.0` vs `0.0` —
    /// could select different representatives; no analytic in this
    /// workspace produces such ties.)
    fn is_exact(&self) -> bool {
        true
    }
}

/// Keeps the maximum message.
#[derive(Default, Copy, Clone, Debug)]
pub struct MaxCombiner;

impl<M: PartialOrd + Clone + Send + Sync> Combiner<M> for MaxCombiner {
    fn combine(&self, acc: &mut M, incoming: &M) {
        if incoming > acc {
            *acc = incoming.clone();
        }
    }

    /// Selection of the maximum is grouping-insensitive (same caveat as
    /// [`MinCombiner::is_exact`]).
    fn is_exact(&self) -> bool {
        true
    }
}

/// Sums f64 messages (PageRank).
#[derive(Default, Copy, Clone, Debug)]
pub struct SumCombiner;

impl Combiner<f64> for SumCombiner {
    fn combine(&self, acc: &mut f64, incoming: &f64) {
        *acc += *incoming;
    }

    /// f64 addition is not associative at the bit level, so the engine
    /// must not regroup the fold — combining stays delivery-side, in
    /// global sender order.
    fn is_exact(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_combiner() {
        let c = MinCombiner;
        let mut acc = 5.0f64;
        Combiner::combine(&c, &mut acc, &3.0);
        Combiner::combine(&c, &mut acc, &7.0);
        assert_eq!(acc, 3.0);
    }

    #[test]
    fn max_combiner() {
        let c = MaxCombiner;
        let mut acc = 5u64;
        Combiner::combine(&c, &mut acc, &9);
        Combiner::combine(&c, &mut acc, &2);
        assert_eq!(acc, 9);
    }

    #[test]
    fn sum_combiner() {
        let c = SumCombiner;
        let mut acc = 1.0;
        c.combine(&mut acc, &2.0);
        c.combine(&mut acc, &3.5);
        assert_eq!(acc, 6.5);
    }

    #[test]
    fn combined_sentinel() {
        let e = Envelope::new(Envelope::<f64>::COMBINED, 1.0);
        assert!(e.is_combined());
        let e2 = Envelope::new(VertexId(3), 1.0);
        assert!(!e2.is_combined());
    }
}
