//! `online-monitor`: the paper's headline mode.
//!
//! `Ariadne::online` runs an analytic and a monitoring query in lockstep:
//! PageRank with `queries::pagerank_check`, SSSP with
//! `queries::sssp_wcc_no_message_no_change`, SSSP with `queries::apt`, in
//! rotation at `T` threads. `core::online` and the per-vertex semi-naive
//! `pql` evaluation do the work; no store is written or read, so store
//! and layered changes must leave this workload where it was. A bare
//! `Ariadne::baseline` of the same analytic follows each run, and
//! `overhead_x` is the online run over it (Fig. 7's online series). The
//! oracle is `Ariadne::centralized` over a full in-memory capture.

use super::{all_close, baseline_run, pagerank, timed_graphs, GraphTimes};
use crate::fixture::{self, tuples_fingerprint};
use crate::run::{Acc, Ctx, Metrics, Recorder, Workload};
use crate::trace::{alloc_snapshot, Tracer};
use ariadne::session::Ariadne;
use ariadne::{queries, CaptureSpec, CompiledQuery};
use ariadne_analytics::{PageRank, Sssp};
use ariadne_graph::Csr;
use ariadne_pql::{Database, EvalStats, Value};
use ariadne_provenance::ProvEncode;
use ariadne_vc::VertexProgram;
use std::collections::BTreeMap;
use std::time::Instant;

/// log2 of the vertex count.
pub const SCALE: u32 = 8;
/// The apt query's threshold.
pub const APT_EPS: f64 = 0.1;

/// Per result predicate: tuple count and order-independent content hash.
pub type ResultPrint = BTreeMap<String, (usize, u64)>;

/// Fingerprints of `query`'s result predicates in `db`.
pub fn result_print(db: &Database, query: &CompiledQuery) -> ResultPrint {
    query
        .query()
        .idbs
        .keys()
        .map(|pred| {
            let print = db
                .relation(pred)
                .map_or((0, 0), |rel| tuples_fingerprint(rel.scan()));
            (pred.clone(), print)
        })
        .collect()
}

/// Adds a query evaluation's counters to `acc`.
pub fn account_query_stats(acc: &mut Acc, stats: &EvalStats) {
    acc.add("pql.rule_firings", stats.rule_firings as f64);
    acc.add("pql.derived_tuples", stats.derived_tuples as f64);
    acc.add("pql.delta_tuples", stats.delta_tuples as f64);
    acc.add("pql.fixpoint_rounds", stats.fixpoint_rounds as f64);
    let scans = stats.scratch_reuse + stats.scratch_alloc;
    if scans > 0 {
        acc.add(
            "pql.scratch_reuse_ratio",
            stats.scratch_reuse as f64 / scans as f64,
        );
    }
}

struct Oracle {
    pagerank_values: Vec<f64>,
    sssp_values: Vec<f64>,
    /// One per class, in rotation order.
    results: [ResultPrint; 3],
    centralized_ns: u64,
}

pub struct OnlineMonitor {
    session: Ariadne,
    plain: Csr,
    weighted: Csr,
    pagerank: PageRank,
    sssp: Sssp,
    /// `pagerank_check`, `no_message_no_change`, `apt`.
    queries: [CompiledQuery; 3],
    compile_ns: u64,
    times: GraphTimes,
    oracle: Option<Oracle>,
}

impl OnlineMonitor {
    #[allow(clippy::too_many_arguments)]
    fn one<A>(
        &self,
        class: &'static str,
        analytic: &A,
        graph: &Csr,
        query: &CompiledQuery,
        expect: (&[f64], &ResultPrint),
        tr: &mut Tracer,
        rec: &mut Recorder,
        acc: &mut Acc,
    ) where
        A: VertexProgram<V = f64>,
        A::M: ProvEncode,
    {
        let traced = tr.enabled();
        let ((ns, ok), _) = tr.op(|tr| {
            let before = alloc_snapshot();
            let (run, ns) = tr.span("online.run", |_| {
                self.session.online(analytic, graph, query)
            });
            let Ok(run) = run else {
                return (ns, false);
            };
            if traced {
                acc.add("online.alloc_calls", (alloc_snapshot().0 - before.0) as f64);
                acc.add("online.query_rows", run.query_results.total_tuples() as f64);
                account_query_stats(acc, &run.query_stats);
            }
            let (ok, _) = tr.span("bench.verify", |_| {
                all_close(&run.values, expect.0)
                    && result_print(&run.query_results, query) == *expect.1
            });
            tr.span("bench.teardown", |_| drop(run));
            (ns, ok)
        });
        rec.sequential_op(class, ns, ok);
        let (_, base_ns) = baseline_run(&self.session, analytic, graph, tr, acc);
        rec.reference(class, base_ns);
    }
}

impl Workload for OnlineMonitor {
    fn setup(ctx: &Ctx) -> Self {
        let (plain, weighted, times) = timed_graphs(ctx.seed, SCALE);
        let sssp = Sssp::new(fixture::hub(&weighted));
        let start = Instant::now();
        let queries = [
            queries::pagerank_check().expect("pagerank_check compiles"),
            queries::sssp_wcc_no_message_no_change().expect("no_message_no_change compiles"),
            queries::apt("udf_diff", Value::Float(APT_EPS)).expect("apt compiles"),
        ];
        let compile_ns = start.elapsed().as_nanos() as u64 / 3;
        OnlineMonitor {
            session: Ariadne::with_threads(ctx.host.threads),
            plain,
            weighted,
            pagerank: pagerank(),
            sssp,
            queries,
            compile_ns,
            times,
            oracle: None,
        }
    }

    fn prepare(&mut self, _ctx: &Ctx) {
        let spec = CaptureSpec::full();
        let pr = self
            .session
            .capture(&self.pagerank, &self.plain, &spec)
            .expect("oracle capture");
        let ss = self
            .session
            .capture(&self.sssp, &self.weighted, &spec)
            .expect("oracle capture");
        let start = Instant::now();
        let central = [
            self.session
                .centralized(&self.plain, &pr.store, &self.queries[0]),
            self.session
                .centralized(&self.weighted, &ss.store, &self.queries[1]),
            self.session
                .centralized(&self.weighted, &ss.store, &self.queries[2]),
        ];
        let centralized_ns = start.elapsed().as_nanos() as u64 / 3;
        let mut prints = central
            .iter()
            .zip(&self.queries)
            .map(|(db, q)| result_print(db.as_ref().expect("oracle evaluation"), q));
        self.oracle = Some(Oracle {
            pagerank_values: pr.values,
            sssp_values: ss.values,
            results: std::array::from_fn(|_| prints.next().expect("three queries")),
            centralized_ns,
        });
    }

    fn rotation(&mut self, _ctx: &Ctx, tr: &mut Tracer, rec: &mut Recorder, acc: &mut Acc) {
        let o = self.oracle.as_ref().expect("prepare() ran");
        self.one(
            "pagerank+check",
            &self.pagerank,
            &self.plain,
            &self.queries[0],
            (&o.pagerank_values, &o.results[0]),
            tr,
            rec,
            acc,
        );
        self.one(
            "sssp+no-change",
            &self.sssp,
            &self.weighted,
            &self.queries[1],
            (&o.sssp_values, &o.results[1]),
            tr,
            rec,
            acc,
        );
        self.one(
            "sssp+apt",
            &self.sssp,
            &self.weighted,
            &self.queries[2],
            (&o.sssp_values, &o.results[2]),
            tr,
            rec,
            acc,
        );
    }

    fn layers(&mut self, _ctx: &Ctx, _tr: &mut Tracer, _acc: &mut Acc, out: &mut Metrics) {
        out.insert("graph.rmat_gen_ns", self.times.rmat_gen_ns as f64);
        out.insert("graph.csr_build_ns", self.times.csr_build_ns as f64);
        out.insert("pql.compile_ns", self.compile_ns as f64);
        let oracle = self.oracle.as_ref().expect("prepare() ran");
        out.insert("pql.centralized_eval_ns", oracle.centralized_ns as f64);
    }
}
