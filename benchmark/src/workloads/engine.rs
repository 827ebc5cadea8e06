//! `engine-baseline`: the bare analytics on the bare engine.
//!
//! One seeded R-MAT graph; `Ariadne::baseline` of PageRank (10
//! supersteps), SSSP and WCC in rotation at `T` threads. No provenance is
//! captured, stored, replayed or served, so every store, replay and
//! serve change must leave this workload where it was, and an engine
//! change must show here. `overhead_x` is the engine's run over the
//! sequential `ariadne_analytics::reference` implementation of the same
//! analytic, run right after it; the reference is also the oracle for
//! the values.

use super::{all_close, baseline_run, pagerank, timed_graphs, GraphTimes, PAGERANK_SUPERSTEPS};
use crate::fixture;
use crate::run::{Acc, Ctx, Metrics, Recorder, Workload};
use crate::trace::Tracer;
use ariadne::session::Ariadne;
use ariadne_analytics::{reference, PageRank, Sssp, Wcc};
use ariadne_graph::Csr;
use ariadne_vc::VertexProgram;
use std::time::Instant;

/// log2 of the vertex count.
pub const SCALE: u32 = 14;

struct Oracle {
    pagerank: Vec<f64>,
    sssp: Vec<f64>,
    wcc: Vec<u64>,
}

pub struct EngineBaseline {
    session: Ariadne,
    plain: Csr,
    weighted: Csr,
    pagerank: PageRank,
    sssp: Sssp,
    times: GraphTimes,
    oracle: Option<Oracle>,
}

impl EngineBaseline {
    #[allow(clippy::too_many_arguments)]
    fn one<A: VertexProgram>(
        &self,
        class: &'static str,
        analytic: &A,
        graph: &Csr,
        verify: impl Fn(&[A::V]) -> bool,
        reference: &dyn Fn(),
        tr: &mut Tracer,
        rec: &mut Recorder,
        acc: &mut Acc,
    ) {
        let ((ns, ok), _) = tr.op(|tr| {
            let (result, ns) = baseline_run(&self.session, analytic, graph, tr, acc);
            let (ok, _) = tr.span("bench.verify", |_| verify(&result.values));
            (ns, ok)
        });
        rec.sequential_op(class, ns, ok);
        let start = Instant::now();
        reference();
        rec.reference(class, start.elapsed().as_nanos() as u64);
    }
}

impl Workload for EngineBaseline {
    fn setup(ctx: &Ctx) -> Self {
        let (plain, weighted, times) = timed_graphs(ctx.seed, SCALE);
        let sssp = Sssp::new(fixture::hub(&weighted));
        EngineBaseline {
            session: Ariadne::with_threads(ctx.host.threads),
            plain,
            weighted,
            pagerank: pagerank(),
            sssp,
            times,
            oracle: None,
        }
    }

    fn prepare(&mut self, _ctx: &Ctx) {
        self.oracle = Some(Oracle {
            pagerank: reference::pagerank_power_iteration(
                &self.plain,
                self.pagerank.damping,
                PAGERANK_SUPERSTEPS,
            ),
            sssp: reference::dijkstra(&self.weighted, self.sssp.source),
            wcc: reference::weakly_connected_components(&self.plain),
        });
    }

    fn rotation(&mut self, _ctx: &Ctx, tr: &mut Tracer, rec: &mut Recorder, acc: &mut Acc) {
        let oracle = self.oracle.as_ref().expect("prepare() ran");
        let damping = self.pagerank.damping;
        let source = self.sssp.source;
        let pagerank_ref = || {
            std::hint::black_box(reference::pagerank_power_iteration(
                &self.plain,
                damping,
                PAGERANK_SUPERSTEPS,
            ));
        };
        let sssp_ref = || {
            std::hint::black_box(reference::dijkstra(&self.weighted, source));
        };
        let wcc_ref = || {
            std::hint::black_box(reference::weakly_connected_components(&self.plain));
        };
        self.one(
            "pagerank",
            &self.pagerank,
            &self.plain,
            |v| all_close(v, &oracle.pagerank),
            &pagerank_ref,
            tr,
            rec,
            acc,
        );
        self.one(
            "sssp",
            &self.sssp,
            &self.weighted,
            |v| all_close(v, &oracle.sssp),
            &sssp_ref,
            tr,
            rec,
            acc,
        );
        self.one(
            "wcc",
            &Wcc,
            &self.plain,
            |v| v == oracle.wcc.as_slice(),
            &wcc_ref,
            tr,
            rec,
            acc,
        );
    }

    fn layers(&mut self, ctx: &Ctx, tr: &mut Tracer, acc: &mut Acc, out: &mut Metrics) {
        out.insert("graph.rmat_gen_ns", self.times.rmat_gen_ns as f64);
        out.insert("graph.csr_build_ns", self.times.csr_build_ns as f64);
        // The same rotation on one thread: what the second thread buys.
        let single = Ariadne::with_threads(1);
        let mut t1_ns = 0;
        t1_ns += tr
            .span("vc.t1_run", |_| {
                single.baseline(&self.pagerank, &self.plain)
            })
            .1;
        t1_ns += tr
            .span("vc.t1_run", |_| single.baseline(&self.sssp, &self.weighted))
            .1;
        t1_ns += tr
            .span("vc.t1_run", |_| single.baseline(&Wcc, &self.plain))
            .1;
        // The rotation runs each analytic once, so the mean `vc.run` times
        // three is the mean rotation at T threads.
        let rotation_ns = 3.0 * acc.mean("vc.run_ns");
        if ctx.host.nproc >= 2 && rotation_ns > 0.0 {
            out.insert("vc.scaling_t2_over_t1", t1_ns as f64 / rotation_ns);
        } else {
            eprintln!(
                "engine-baseline: vc.scaling_t2_over_t1 not measured (nproc < 2), reported as 0"
            );
        }
    }
}
