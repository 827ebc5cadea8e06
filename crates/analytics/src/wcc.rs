//! Weakly connected components by min-label propagation.
//!
//! Every vertex starts labelled with its own id and adopts the smallest
//! label seen among its neighbours (in **both** edge directions — that is
//! what makes the components *weakly* connected). The fixpoint labels
//! every vertex with the minimum vertex id of its component, matching the
//! union-find oracle in [`crate::reference`].

use ariadne_graph::{Csr, Direction, VertexId};
use ariadne_vc::{Combiner, Context, Envelope, Incrementality, MinCombiner, VertexProgram};

/// WCC vertex program.
#[derive(Clone, Debug, Default)]
pub struct Wcc;

/// Broadcast `label` to all out- and in-neighbours of the current vertex.
fn send_both_ways(ctx: &mut dyn Context<u64>, label: u64) {
    ctx.send_along(Direction::Out, &|_| label);
    ctx.send_along(Direction::In, &|_| label);
}

impl VertexProgram for Wcc {
    type V = u64;
    type M = u64;

    fn init(&self, v: VertexId, _g: &Csr) -> u64 {
        v.0
    }

    fn compute(&self, ctx: &mut dyn Context<u64>, value: &mut u64, messages: &[Envelope<u64>]) {
        if ctx.superstep() == 0 {
            send_both_ways(ctx, *value);
            return;
        }
        let best = messages.iter().map(|e| e.msg).min().unwrap_or(*value);
        if best < *value {
            *value = best;
            send_both_ways(ctx, best);
        }
    }

    fn combiner(&self) -> Option<Box<dyn Combiner<u64>>> {
        Some(Box::new(MinCombiner))
    }

    /// Min-label flood is a monotone (greatest-lower-bound) fixpoint, so
    /// insert-only batches can seed from previous labels. It is **not**
    /// deletion-safe: removing a bridge edge splits a component and
    /// *raises* labels across half of it, a change no forward frontier
    /// from the deleted edge can bound.
    fn incrementality(&self) -> Incrementality {
        Incrementality::Monotone {
            deletion_safe: false,
        }
    }

    fn reseed(&self, ctx: &mut dyn Context<u64>, value: &mut u64) {
        send_both_ways(ctx, *value);
    }
}

/// The "optimized" WCC the paper's apt query correctly rejects (§6.2.2).
///
/// The approximate-optimization template skips propagation when the value
/// changed by at most `epsilon`. For WCC with ε = 1 that swallows label
/// improvements of 1, which are *not* safe to skip — component ids are
/// nominal, not metric — so the analytic converges to wrong labels with a
/// normalized error around 0.9, as Table/§6.2.2 reports. The apt query
/// predicts this: its `safe` table is empty, `unsafe` equals `no_execute`.
#[derive(Clone, Debug)]
pub struct ApproxWcc {
    /// Changes of at most this size are not propagated. The paper uses 1.
    pub epsilon: u64,
}

impl Default for ApproxWcc {
    fn default() -> Self {
        ApproxWcc { epsilon: 1 }
    }
}

impl VertexProgram for ApproxWcc {
    type V = u64;
    type M = u64;

    fn init(&self, v: VertexId, _g: &Csr) -> u64 {
        v.0
    }

    fn compute(&self, ctx: &mut dyn Context<u64>, value: &mut u64, messages: &[Envelope<u64>]) {
        if ctx.superstep() == 0 {
            send_both_ways(ctx, *value);
            return;
        }
        let best = messages.iter().map(|e| e.msg).min().unwrap_or(*value);
        if best < *value {
            let change = *value - best;
            *value = best;
            // The unsound shortcut: treat small label changes as not
            // worth telling the neighbours about.
            if change > self.epsilon {
                send_both_ways(ctx, best);
            }
        }
    }

    fn combiner(&self) -> Option<Box<dyn Combiner<u64>>> {
        Some(Box::new(MinCombiner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariadne_graph::stats::weakly_connected_components;
    use ariadne_graph::GraphBuilder;
    use ariadne_vc::{Engine, EngineConfig};

    fn two_components() -> Csr {
        let mut b = GraphBuilder::new();
        b.add_edge(VertexId(1), VertexId(0), 1.0);
        b.add_edge(VertexId(1), VertexId(2), 1.0);
        b.add_edge(VertexId(4), VertexId(3), 1.0);
        b.add_edge(VertexId(4), VertexId(5), 1.0);
        b.build()
    }

    #[test]
    fn labels_two_components() {
        let g = two_components();
        let r = Engine::new(EngineConfig::sequential()).run(&Wcc, &g);
        assert_eq!(r.values, vec![0, 0, 0, 3, 3, 3]);
    }

    #[test]
    fn matches_union_find_oracle() {
        let g = ariadne_graph::generators::erdos_renyi(300, 400, 17);
        let r = Engine::new(EngineConfig::sequential()).run(&Wcc, &g);
        assert_eq!(r.values, weakly_connected_components(&g));
    }

    #[test]
    fn direction_blind() {
        // 0 -> 1 and 2 -> 1: all weakly connected even though 0 cannot
        // reach 2 following edge directions.
        let mut b = GraphBuilder::new();
        b.add_edge(VertexId(0), VertexId(1), 1.0);
        b.add_edge(VertexId(2), VertexId(1), 1.0);
        let g = b.build();
        let r = Engine::new(EngineConfig::sequential()).run(&Wcc, &g);
        assert_eq!(r.values, vec![0, 0, 0]);
    }

    #[test]
    fn approx_wcc_is_wrong() {
        // A long path of consecutive ids: every improvement is exactly 1,
        // so the epsilon=1 variant never propagates past the first hop.
        let mut b = GraphBuilder::new();
        for i in 0..19u64 {
            b.add_edge(VertexId(i), VertexId(i + 1), 1.0);
        }
        let g = b.build();
        let exact = Engine::new(EngineConfig::sequential()).run(&Wcc, &g);
        let approx = Engine::new(EngineConfig::sequential()).run(&ApproxWcc::default(), &g);
        assert!(exact.values.iter().all(|&l| l == 0));
        let wrong = approx
            .values
            .iter()
            .zip(&exact.values)
            .filter(|(a, e)| a != e)
            .count();
        assert!(wrong > 10, "only {wrong} wrong labels");
    }

    #[test]
    fn approx_wcc_with_huge_epsilon_only_first_hop() {
        let g = two_components();
        let approx =
            Engine::new(EngineConfig::sequential()).run(&ApproxWcc { epsilon: u64::MAX }, &g);
        // Nothing propagates beyond superstep 0's initial broadcast.
        assert_ne!(approx.values, vec![0, 0, 0, 3, 3, 3]);
    }
}
