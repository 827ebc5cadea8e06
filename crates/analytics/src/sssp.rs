//! Single-source shortest paths — Algorithm 2 in the paper's appendix.

use ariadne_graph::{Csr, Direction, VertexId};
use ariadne_vc::{Combiner, Context, Envelope, Incrementality, MinCombiner, VertexProgram};

/// SSSP vertex program: vertices carry their best-known distance to the
/// source and relax it as smaller distances arrive; on improvement they
/// offer `distance + weight` to each outgoing neighbour.
///
/// Distances of unreachable vertices remain [`f64::INFINITY`].
#[derive(Clone, Debug)]
pub struct Sssp {
    /// The source vertex.
    pub source: VertexId,
}

impl Sssp {
    /// SSSP from `source`.
    pub fn new(source: VertexId) -> Self {
        Sssp { source }
    }
}

impl VertexProgram for Sssp {
    type V = f64;
    type M = f64;

    fn init(&self, _v: VertexId, _g: &Csr) -> f64 {
        f64::INFINITY
    }

    fn compute(&self, ctx: &mut dyn Context<f64>, value: &mut f64, messages: &[Envelope<f64>]) {
        let mut min_dist = if ctx.vertex() == self.source {
            0.0
        } else {
            f64::INFINITY
        };
        for e in messages {
            min_dist = min_dist.min(e.msg);
        }
        if min_dist < *value {
            *value = min_dist;
            ctx.send_along(Direction::Out, &|edge| min_dist + edge.weight);
        }
    }

    fn combiner(&self) -> Option<Box<dyn Combiner<f64>>> {
        Some(Box::new(MinCombiner))
    }

    /// SSSP distances are the least fixpoint of edge relaxation, a
    /// monotone operator, and invalidated distances are recomputable from
    /// a reset frontier even after deletions (the taint closure resets
    /// every vertex whose shortest path could have used a removed edge).
    fn incrementality(&self) -> Incrementality {
        Incrementality::Monotone {
            deletion_safe: true,
        }
    }

    fn reseed(&self, ctx: &mut dyn Context<f64>, value: &mut f64) {
        // The source repairs its own distance if the taint reset hit it.
        if ctx.vertex() == self.source {
            *value = 0.0;
        }
        if value.is_finite() {
            let d = *value;
            ctx.send_along(Direction::Out, &|edge| d + edge.weight);
        }
    }
}

/// Approximate SSSP: a vertex propagates only improvements larger than
/// `epsilon`. The apt query (Query 1) discovers this is safe for SSSP —
/// small refinements rarely change downstream decisions — and Table 6
/// quantifies the resulting error at ε = 0.1.
#[derive(Clone, Debug)]
pub struct ApproxSssp {
    /// The source vertex.
    pub source: VertexId,
    /// Minimum improvement worth propagating.
    pub epsilon: f64,
}

impl ApproxSssp {
    /// Approximate SSSP from `source` with threshold `epsilon`.
    pub fn new(source: VertexId, epsilon: f64) -> Self {
        ApproxSssp { source, epsilon }
    }
}

impl VertexProgram for ApproxSssp {
    type V = f64;
    type M = f64;

    fn init(&self, _v: VertexId, _g: &Csr) -> f64 {
        f64::INFINITY
    }

    fn compute(&self, ctx: &mut dyn Context<f64>, value: &mut f64, messages: &[Envelope<f64>]) {
        let mut min_dist = if ctx.vertex() == self.source {
            0.0
        } else {
            f64::INFINITY
        };
        for e in messages {
            min_dist = min_dist.min(e.msg);
        }
        // Improvement must beat epsilon to be worth the downstream work
        // (infinite -> finite always qualifies).
        let improvement = *value - min_dist;
        if min_dist < *value && (improvement > self.epsilon || value.is_infinite()) {
            *value = min_dist;
            ctx.send_along(Direction::Out, &|edge| min_dist + edge.weight);
        }
    }

    fn combiner(&self) -> Option<Box<dyn Combiner<f64>>> {
        Some(Box::new(MinCombiner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::dijkstra;
    use ariadne_graph::generators::regular::{grid, path};
    use ariadne_graph::generators::{rmat, RmatConfig};
    use ariadne_graph::GraphBuilder;
    use ariadne_vc::{Engine, EngineConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn path_distances() {
        let g = path(5);
        let r = Engine::new(EngineConfig::sequential()).run(&Sssp::new(VertexId(0)), &g);
        assert_eq!(r.values, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn unreachable_stays_infinite() {
        let mut b = GraphBuilder::new();
        b.add_edge(VertexId(0), VertexId(1), 1.0);
        b.ensure_vertex(VertexId(2));
        let g = b.build();
        let r = Engine::new(EngineConfig::sequential()).run(&Sssp::new(VertexId(0)), &g);
        assert!(r.values[2].is_infinite());
    }

    #[test]
    fn matches_dijkstra_on_weighted_random_graph() {
        let mut rng = StdRng::seed_from_u64(99);
        let g = rmat(RmatConfig {
            scale: 8,
            edge_factor: 6,
            ..Default::default()
        })
        .map_weights(|_, _, _| rng.gen::<f64>());
        let src = VertexId(0);
        let vc = Engine::new(EngineConfig::sequential()).run(&Sssp::new(src), &g);
        let oracle = dijkstra(&g, src);
        for (a, b) in vc.values.iter().zip(&oracle) {
            if a.is_finite() || b.is_finite() {
                assert!((a - b).abs() < 1e-9, "vc {a} oracle {b}");
            }
        }
    }

    #[test]
    fn takes_shortcut_when_cheaper() {
        let mut b = GraphBuilder::new();
        b.add_edge(VertexId(0), VertexId(1), 10.0);
        b.add_edge(VertexId(0), VertexId(2), 1.0);
        b.add_edge(VertexId(2), VertexId(1), 2.0);
        let g = b.build();
        let r = Engine::new(EngineConfig::sequential()).run(&Sssp::new(VertexId(0)), &g);
        assert_eq!(r.values[1], 3.0);
    }

    #[test]
    fn approx_bounded_error_and_less_work() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = grid(20, 20).map_weights(|_, _, _| 0.05 + rng.gen::<f64>());
        let src = VertexId(0);
        let exact = Engine::new(EngineConfig::sequential()).run(&Sssp::new(src), &g);
        let approx = Engine::new(EngineConfig::sequential()).run(&ApproxSssp::new(src, 0.1), &g);
        // Approximate distances are never better than exact and are close.
        for (e, a) in exact.values.iter().zip(&approx.values) {
            assert!(*a >= *e - 1e-12, "approx {a} beat exact {e}");
        }
        let err = crate::error::relative_error(&exact.values, &approx.values, 1.0);
        assert!(err < 0.2, "relative error {err}");
        assert!(
            approx.metrics.total_activations() <= exact.metrics.total_activations(),
            "approx should not do more work"
        );
    }

    #[test]
    fn approx_with_zero_epsilon_is_exact() {
        let g = path(6);
        let exact = Engine::new(EngineConfig::sequential()).run(&Sssp::new(VertexId(0)), &g);
        let approx =
            Engine::new(EngineConfig::sequential()).run(&ApproxSssp::new(VertexId(0), 0.0), &g);
        assert_eq!(exact.values, approx.values);
    }
}
