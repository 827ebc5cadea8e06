//! Incremental re-execution after a graph mutation batch.
//!
//! Instead of re-running an analytic from scratch on every mutated
//! graph, [`Engine::run_incremental`] seeds the next run from the
//! previous epoch's converged values and re-activates only the vertices
//! a mutation batch could have affected:
//!
//! 1. **Taint** — the invalidation closure: every vertex whose old value
//!    may have depended on a removed/reweighted edge. Computed as the
//!    forward closure *over the old graph* from the batch's
//!    [`MutationReport::invalidation_seeds`] (old paths are what carried
//!    the stale contribution, so the closure must follow old edges).
//!    Tainted vertices reset to [`VertexProgram::init`].
//! 2. **Activation** — the reseed frontier: tainted vertices, their
//!    in-neighbors in the new graph (they must re-offer their still-valid
//!    values), sources of inserted/reweighted edges, and new vertices.
//! 3. A wrapped program runs on the new graph: superstep 0 calls
//!    [`VertexProgram::reseed`] for activated vertices only; every later
//!    superstep is ordinary message-driven [`VertexProgram::compute`].
//!
//! **Exactness.** This is only attempted for programs declaring
//! [`Incrementality::Monotone`]: their fixpoint is the unique solution
//! of a monotone operator, every non-tainted seed value is already *at*
//! its fixpoint value (any dependence on a removed edge would have put
//! it in the old-graph forward closure), and improvements introduced by
//! inserted edges propagate through normal computation. The engine's
//! bit-identical determinism then gives final values equal to a cold run
//! — per-path float sums are evaluated in the same order either way.
//! Programs declaring [`Incrementality::Restart`], and deletion batches
//! against `Monotone { deletion_safe: false }` programs, fall back to a
//! full re-run; both paths return the same values, only the work
//! differs. See `docs/MUTATIONS.md` for the worked example.

#![warn(missing_docs)]
use crate::aggregate::{AggOp, Aggregates};
use crate::context::Context;
use crate::engine::{Engine, RunResult};
use crate::message::{Combiner, Envelope};
use crate::program::{Incrementality, VertexProgram};
use ariadne_graph::delta::{forward_closure, MutationReport};
use ariadne_graph::{Csr, VertexId};

/// Which path an incremental run actually took.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum IncrementalMode {
    /// Values were seeded from the previous epoch; only the frontier
    /// re-activated.
    Frontier,
    /// Full re-run from scratch (restart-class program, deletion batch
    /// against a non-deletion-safe program, or missing previous values).
    FullRerun,
}

/// The outcome of [`Engine::run_incremental`].
#[derive(Clone, Debug)]
pub struct IncrementalRun<V> {
    /// The run's values/metrics/aggregates — values are bit-identical to
    /// a cold [`Engine::run`] on the same (mutated) graph.
    pub result: RunResult<V>,
    /// Which path produced it.
    pub mode: IncrementalMode,
    /// Vertices reset to `init` (0 under [`IncrementalMode::FullRerun`]).
    pub reset_vertices: usize,
    /// Vertices in the superstep-0 reseed frontier (0 under full rerun).
    pub activated_vertices: usize,
}

/// Wrapper that seeds values and replaces superstep 0 with a selective
/// reseed pass. All other behaviour delegates to the inner program.
struct Seeded<'a, P: VertexProgram>
where
    P::V: Sync,
{
    inner: &'a P,
    seeds: Vec<P::V>,
    activate: Vec<bool>,
}

impl<P: VertexProgram> VertexProgram for Seeded<'_, P>
where
    P::V: Sync,
{
    type V = P::V;
    type M = P::M;

    fn init(&self, v: VertexId, graph: &Csr) -> P::V {
        match self.seeds.get(v.index()) {
            Some(seed) => seed.clone(),
            None => self.inner.init(v, graph),
        }
    }

    fn compute(&self, ctx: &mut dyn Context<P::M>, value: &mut P::V, messages: &[Envelope<P::M>]) {
        if ctx.superstep() == 0 {
            // Reseed pass: only frontier vertices act; everyone else
            // keeps their seeded value and stays silent.
            if self
                .activate
                .get(ctx.vertex().index())
                .copied()
                .unwrap_or(false)
            {
                self.inner.reseed(ctx, value);
            }
        } else {
            self.inner.compute(ctx, value, messages);
        }
    }

    fn combiner(&self) -> Option<Box<dyn Combiner<P::M>>> {
        self.inner.combiner()
    }

    fn aggregators(&self) -> Vec<(String, AggOp)> {
        self.inner.aggregators()
    }

    fn always_active(&self) -> bool {
        self.inner.always_active()
    }

    fn max_supersteps(&self) -> u32 {
        self.inner.max_supersteps()
    }

    fn should_halt(&self, superstep: u32, aggregates: &Aggregates) -> bool {
        self.inner.should_halt(superstep, aggregates)
    }

    fn message_bytes(&self, msg: &P::M) -> usize {
        self.inner.message_bytes(msg)
    }
}

impl Engine {
    /// Re-run `program` on `new_graph` after a mutation batch, reusing
    /// `prev_values` (the converged values on `old_graph`) wherever the
    /// program's [`Incrementality`] allows. Values in the returned
    /// [`IncrementalRun`] are bit-identical to `self.run(program,
    /// new_graph)`; metrics (supersteps, messages) reflect the actual —
    /// usually much smaller — frontier work.
    pub fn run_incremental<P: VertexProgram>(
        &self,
        program: &P,
        old_graph: &Csr,
        new_graph: &Csr,
        prev_values: &[P::V],
        report: &MutationReport,
    ) -> IncrementalRun<P::V>
    where
        P::V: Sync,
    {
        let seedable = match program.incrementality() {
            Incrementality::Restart => false,
            Incrementality::Monotone { deletion_safe } => !report.has_removals() || deletion_safe,
        };
        if !seedable || program.always_active() || prev_values.len() != old_graph.num_vertices() {
            return IncrementalRun {
                result: self.run(program, new_graph),
                mode: IncrementalMode::FullRerun,
                reset_vertices: 0,
                activated_vertices: 0,
            };
        }

        let n = new_graph.num_vertices();
        // Taint over the OLD graph: stale contributions travelled along
        // edges that existed then.
        let taint_old = forward_closure(old_graph, report.invalidation_seeds.iter().copied());
        let mut activate = vec![false; n];
        let mut reset = 0usize;
        let mut seeds: Vec<P::V> = Vec::with_capacity(n);
        for vi in 0..n {
            let v = VertexId(vi as u64);
            let tainted = taint_old.get(vi).copied().unwrap_or(false);
            if tainted || vi >= prev_values.len() {
                seeds.push(program.init(v, new_graph));
                if tainted {
                    reset += 1;
                }
                // New vertices and tainted vertices both reseed (the SSSP
                // source must re-announce distance 0 after a reset).
                activate[vi] = true;
                // Their new-graph in-neighbors must re-offer valid state.
                for &s in new_graph.in_neighbors(v) {
                    activate[s.index()] = true;
                }
            } else {
                seeds.push(prev_values[vi].clone());
            }
        }
        for &s in report
            .insertion_sources
            .iter()
            .chain(&report.insertion_targets)
        {
            if s.index() < n {
                activate[s.index()] = true;
            }
        }
        let activated = activate.iter().filter(|&&a| a).count();
        let wrapped = Seeded {
            inner: program,
            seeds,
            activate,
        };
        let result = self.run(&wrapped, new_graph);
        IncrementalRun {
            result,
            mode: IncrementalMode::Frontier,
            reset_vertices: reset,
            activated_vertices: activated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use ariadne_graph::{Direction, GraphBuilder, GraphDelta, MutableGraph};

    /// SSSP with the incremental hooks, local to this test module (the
    /// real analytics crate implements the same shape).
    #[derive(Clone)]
    struct IncSssp {
        source: VertexId,
    }

    impl VertexProgram for IncSssp {
        type V = f64;
        type M = f64;

        fn init(&self, _: VertexId, _: &Csr) -> f64 {
            f64::INFINITY
        }

        fn compute(&self, ctx: &mut dyn Context<f64>, value: &mut f64, msgs: &[Envelope<f64>]) {
            let mut best = if ctx.vertex() == self.source {
                0.0
            } else {
                f64::INFINITY
            };
            for e in msgs {
                best = best.min(e.msg);
            }
            if best < *value {
                *value = best;
                ctx.send_along(Direction::Out, &|e| best + e.weight);
            }
        }

        fn incrementality(&self) -> Incrementality {
            Incrementality::Monotone {
                deletion_safe: true,
            }
        }

        fn reseed(&self, ctx: &mut dyn Context<f64>, value: &mut f64) {
            let d = if ctx.vertex() == self.source {
                0.0
            } else {
                *value
            };
            if d < *value {
                *value = d;
            }
            if d.is_finite() {
                ctx.send_along(Direction::Out, &|e| d + e.weight);
            }
        }
    }

    fn grid_graph() -> MutableGraph {
        let mut b = GraphBuilder::new();
        for i in 0..30u64 {
            b.add_edge(VertexId(i), VertexId(i + 1), 1.0 + (i % 3) as f64);
            if i + 5 <= 30 {
                b.add_edge(VertexId(i), VertexId((i + 5).min(30)), 2.5);
            }
        }
        MutableGraph::new(b.build())
    }

    #[test]
    fn insert_batch_frontier_matches_cold() {
        for threads in [1usize, 2, 3, 7] {
            let engine = Engine::new(EngineConfig::parallel(threads));
            let mut g = grid_graph();
            let p = IncSssp {
                source: VertexId(0),
            };
            let before = engine.run(&p, g.csr());
            let old = g.csr().clone();
            let mut d = GraphDelta::new();
            d.add_edge(VertexId(0), VertexId(20), 0.5);
            d.add_edge(VertexId(20), VertexId(29), 0.25);
            let report = g.apply(&d);
            let inc = engine.run_incremental(&p, &old, g.csr(), &before.values, &report);
            assert_eq!(inc.mode, IncrementalMode::Frontier);
            let cold = engine.run(&p, g.csr());
            assert_eq!(inc.result.values, cold.values, "threads={threads}");
            assert!(inc.activated_vertices < g.csr().num_vertices());
        }
    }

    #[test]
    fn delete_batch_frontier_matches_cold() {
        for threads in [1usize, 2, 3, 7] {
            let engine = Engine::new(EngineConfig::parallel(threads));
            let mut g = grid_graph();
            let p = IncSssp {
                source: VertexId(0),
            };
            let before = engine.run(&p, g.csr());
            let old = g.csr().clone();
            let mut d = GraphDelta::new();
            d.remove_edge(VertexId(0), VertexId(1));
            d.remove_vertex(VertexId(10));
            let report = g.apply(&d);
            let inc = engine.run_incremental(&p, &old, g.csr(), &before.values, &report);
            assert_eq!(inc.mode, IncrementalMode::Frontier);
            assert!(inc.reset_vertices > 0);
            let cold = engine.run(&p, g.csr());
            assert_eq!(inc.result.values, cold.values, "threads={threads}");
        }
    }

    #[test]
    fn restart_program_falls_back() {
        struct Plain;
        impl VertexProgram for Plain {
            type V = u64;
            type M = u64;
            fn init(&self, v: VertexId, _: &Csr) -> u64 {
                v.0
            }
            fn compute(&self, _: &mut dyn Context<u64>, _: &mut u64, _: &[Envelope<u64>]) {}
        }
        let engine = Engine::new(EngineConfig::sequential());
        let mut g = grid_graph();
        let before = engine.run(&Plain, g.csr());
        let old = g.csr().clone();
        let mut d = GraphDelta::new();
        d.add_edge(VertexId(0), VertexId(2), 1.0);
        let report = g.apply(&d);
        let inc = engine.run_incremental(&Plain, &old, g.csr(), &before.values, &report);
        assert_eq!(inc.mode, IncrementalMode::FullRerun);
    }

    #[test]
    fn non_deletion_safe_monotone_restarts_on_removal() {
        struct MonotoneNoDel;
        impl VertexProgram for MonotoneNoDel {
            type V = u64;
            type M = u64;
            fn init(&self, v: VertexId, _: &Csr) -> u64 {
                v.0
            }
            fn compute(&self, _: &mut dyn Context<u64>, _: &mut u64, _: &[Envelope<u64>]) {}
            fn incrementality(&self) -> Incrementality {
                Incrementality::Monotone {
                    deletion_safe: false,
                }
            }
        }
        let engine = Engine::new(EngineConfig::sequential());
        let mut g = grid_graph();
        let before = engine.run(&MonotoneNoDel, g.csr());
        let old = g.csr().clone();
        let mut d = GraphDelta::new();
        d.remove_edge(VertexId(0), VertexId(1));
        let report = g.apply(&d);
        let inc = engine.run_incremental(&MonotoneNoDel, &old, g.csr(), &before.values, &report);
        assert_eq!(inc.mode, IncrementalMode::FullRerun);

        // Insert-only batches may seed.
        let old = g.csr().clone();
        let before = engine.run(&MonotoneNoDel, g.csr());
        let mut d = GraphDelta::new();
        d.add_edge(VertexId(2), VertexId(9), 1.0);
        let report = g.apply(&d);
        let inc = engine.run_incremental(&MonotoneNoDel, &old, g.csr(), &before.values, &report);
        assert_eq!(inc.mode, IncrementalMode::Frontier);
    }
}
