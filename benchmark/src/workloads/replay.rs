//! `replay-layered`: layered offline replay over one capture.
//!
//! Set-up captures SSSP once with `CaptureSpec::full()` into an in-memory
//! v3 store. The timed ops are `run_layered_with(LayeredConfig::parallel(T))`
//! of `queries::apt`, `queries::backward_lineage` from stride-sampled
//! roots and `queries::sssp_wcc_value_check` (Fig. 8's layered series),
//! mixed 1:3:1. `core::layered` inject/eval/merge and `pql` do the work;
//! store reads are in memory and small, the engine and the serve plane
//! idle. A bare SSSP `Ariadne::baseline` on the same graph follows each
//! rotation: `overhead_x` is a query over that run, the ratio the paper
//! plots. The oracle is `Ariadne::centralized`, computed once per
//! distinct query before the timed region.

use super::online::{account_query_stats, result_print, ResultPrint, APT_EPS};
use super::{baseline_run, evaluation_pairs, stride_sample, timed_graphs, GraphTimes};
use crate::fixture::{self, derive, Rng};
use crate::run::{Acc, Ctx, Metrics, Recorder, Workload};
use crate::trace::{alloc_snapshot, Tracer};
use ariadne::session::Ariadne;
use ariadne::{queries, run_layered_with, CaptureSpec, CompiledQuery, LayeredConfig, StoreConfig};
use ariadne_analytics::Sssp;
use ariadne_graph::{Csr, VertexId};
use ariadne_pql::Value;
use ariadne_provenance::{LayerFilter, ProvStore, SegmentFormat};
use std::time::Instant;

/// log2 of the vertex count.
pub const SCALE: u32 = 8;
/// Distinct backward-lineage roots per instance.
pub const LINEAGE_ROOTS: usize = 16;
/// Lineage queries per apt and per value-check query.
const LINEAGE_PER_ROTATION: usize = 3;

pub struct ReplayLayered {
    session: Ariadne,
    weighted: Csr,
    sssp: Sssp,
    store: ProvStore,
    config: LayeredConfig,
    apt: CompiledQuery,
    value_check: CompiledQuery,
    lineage: Vec<CompiledQuery>,
    compile_ns: u64,
    times: GraphTimes,
    /// apt, value-check, then one per lineage root.
    oracle: Vec<ResultPrint>,
    centralized_ns: u64,
    next_root: usize,
}

impl ReplayLayered {
    fn one(
        &self,
        class: &'static str,
        query: &CompiledQuery,
        expect: &ResultPrint,
        tr: &mut Tracer,
        rec: &mut Recorder,
        acc: &mut Acc,
    ) -> u64 {
        let traced = tr.enabled();
        let ((ns, ok), _) = tr.op(|tr| {
            let before = alloc_snapshot();
            let (run, ns) = tr.span("layered.run", |_| {
                run_layered_with(&self.weighted, &self.store, query, &self.config)
            });
            let Ok(run) = run else {
                return (ns, false);
            };
            if traced {
                let after = alloc_snapshot();
                acc.add("layered.alloc_calls", (after.0 - before.0) as f64);
                acc.add("layered.alloc_bytes", (after.1 - before.1) as f64);
                acc.add("read_bytes_per_op", run.bytes_read as f64);
                account_layered_run(acc, &run);
            }
            let (ok, _) = tr.span("bench.verify", |_| {
                result_print(&run.query_results, query) == *expect
            });
            tr.span("bench.teardown", |_| drop(run));
            (ns, ok)
        });
        rec.sequential_op(class, ns, ok);
        ns
    }
}

/// Adds what a layered replay reports about itself to `acc`.
pub fn account_layered_run(acc: &mut Acc, run: &ariadne::LayeredRun) {
    acc.add("layered.phase_inject_ns", run.phase_inject_ns as f64);
    acc.add("layered.phase_eval_ns", run.phase_eval_ns as f64);
    acc.add("layered.phase_merge_ns", run.phase_merge_ns as f64);
    acc.add("layered.layers", f64::from(run.layers));
    acc.add("layered.flush_rounds", f64::from(run.flush_rounds));
    acc.add("layered.shipped_tuples", run.shipped_tuples as f64);
    acc.add("layered.injected_tuples", run.injected_tuples as f64);
    acc.add("layered.evaluated_vertices", run.evaluated_vertices as f64);
    acc.add(
        "layered.rows_per_injected",
        run.query_results.total_tuples() as f64 / run.injected_tuples.max(1) as f64,
    );
    account_query_stats(acc, &run.query_stats);
    acc.add("provenance.segments_read", run.segments_read as f64);
    acc.add("provenance.segments_skipped", run.segments_skipped as f64);
    acc.add("provenance.col_bytes_skipped", run.col_bytes_skipped as f64);
    let skipped = (run.bytes_skipped + run.col_bytes_skipped) as f64;
    acc.add(
        "provenance.skip_ratio",
        skipped / (skipped + run.bytes_read as f64).max(1.0),
    );
}

impl Workload for ReplayLayered {
    fn setup(ctx: &Ctx) -> Self {
        let (_, weighted, times) = timed_graphs(ctx.seed, SCALE);
        let sssp = Sssp::new(fixture::hub(&weighted));
        let session = Ariadne {
            store: StoreConfig::in_memory().with_format(SegmentFormat::V3),
            ..Ariadne::with_threads(ctx.host.threads)
        };
        let store = session
            .capture(&sssp, &weighted, &CaptureSpec::full())
            .expect("fixture capture")
            .store;
        let mut rng = Rng::new(derive(ctx.seed, "replay-roots"));
        let roots = stride_sample(&evaluation_pairs(&store), LINEAGE_ROOTS, &mut rng);
        let start = Instant::now();
        let apt = queries::apt("udf_diff", Value::Float(APT_EPS)).expect("apt compiles");
        let value_check = queries::sssp_wcc_value_check().expect("value check compiles");
        let lineage: Vec<CompiledQuery> = roots
            .iter()
            .map(|&(v, step)| {
                queries::backward_lineage(VertexId(v), step).expect("lineage compiles")
            })
            .collect();
        let compile_ns = start.elapsed().as_nanos() as u64 / (2 + lineage.len() as u64);
        ReplayLayered {
            session,
            weighted,
            sssp,
            store,
            config: LayeredConfig::parallel(ctx.host.threads),
            apt,
            value_check,
            lineage,
            compile_ns,
            times,
            oracle: Vec::new(),
            centralized_ns: 0,
            next_root: 0,
        }
    }

    fn prepare(&mut self, _ctx: &Ctx) {
        let start = Instant::now();
        self.oracle = [&self.apt, &self.value_check]
            .into_iter()
            .chain(&self.lineage)
            .map(|q| {
                let db = self
                    .session
                    .centralized(&self.weighted, &self.store, q)
                    .expect("oracle evaluation");
                result_print(&db, q)
            })
            .collect();
        self.centralized_ns = start.elapsed().as_nanos() as u64 / self.oracle.len() as u64;
    }

    fn rotation(&mut self, _ctx: &Ctx, tr: &mut Tracer, rec: &mut Recorder, acc: &mut Acc) {
        self.one("apt", &self.apt, &self.oracle[0], tr, rec, acc);
        for _ in 0..LINEAGE_PER_ROTATION {
            let root = self.next_root;
            self.next_root = (root + 1) % self.lineage.len();
            self.one(
                "lineage",
                &self.lineage[root],
                &self.oracle[2 + root],
                tr,
                rec,
                acc,
            );
        }
        self.one(
            "value-check",
            &self.value_check,
            &self.oracle[1],
            tr,
            rec,
            acc,
        );
        let (_, base_ns) = baseline_run(&self.session, &self.sssp, &self.weighted, tr, acc);
        for class in ["apt", "lineage", "value-check"] {
            rec.reference(class, base_ns);
        }
    }

    fn layers(&mut self, _ctx: &Ctx, tr: &mut Tracer, _acc: &mut Acc, out: &mut Metrics) {
        out.insert("graph.rmat_gen_ns", self.times.rmat_gen_ns as f64);
        out.insert("graph.csr_build_ns", self.times.csr_build_ns as f64);
        out.insert("pql.compile_ns", self.compile_ns as f64);
        out.insert("pql.centralized_eval_ns", self.centralized_ns as f64);
        out.insert(
            "store_bytes_per_tuple",
            self.store.byte_size() as f64 / self.store.tuple_count().max(1) as f64,
        );
        // Every layer once through the store's read path alone, with no
        // replay on top of it.
        tr.span("provenance.layer_read", |_| {
            for step in 0..=self.store.max_superstep().unwrap_or(0) {
                std::hint::black_box(
                    self.store
                        .layer_read(step, &LayerFilter::all())
                        .expect("layer read"),
                );
            }
        });
    }
}
