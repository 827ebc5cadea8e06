//! `mutate-epochs`: graph mutations, incremental re-runs and provenance
//! epochs, with a service holding the store the epochs land in.
//!
//! Two lanes, SSSP and PageRank, on one seeded graph. A round starts each
//! lane afresh (a `MutableSession`, the base capture re-ingested into an
//! in-memory v3 store of the benchmark's own and into the store of a
//! `QueryService`) and then takes it through three batches: insert-only,
//! delete-heavy, mixed. One batch cycle is the op:
//! `mutate` + `commit`, `rerun_incremental`, `capture_epoch` (into the
//! benchmark's store), `QueryService::append_epoch` (the same capture
//! into the served store, while the service holds it) and one cold
//! `QueryService::execute`. Every round replays the same seeded batches
//! at the same epoch depths, so samples of one class are comparable and
//! the byte counts repeat exactly. A cold `baseline` on the mutated graph
//! follows each cycle: it is the oracle for the incremental values and
//! the reference of `overhead_x`.
//!
//! The cold query is vertex-local (`changed`). The service keeps the
//! graph it was started with, so after an insert a replay that ships
//! tuples along edges would miss the new ones; that gap is the
//! repository's (ROADMAP item 4), not this workload's to paper over.

use super::online::result_print;
use super::{baseline_run, pagerank, timed_graphs, GraphTimes};
use crate::fixture::{self, derive, mutation_batch, Rng, BATCH_KINDS};
use crate::run::{Acc, Ctx, Metrics, Recorder, Workload};
use crate::trace::Tracer;
use ariadne::session::Ariadne;
use ariadne::{compile, CaptureSpec, CompiledQuery, MutableSession, StoreConfig};
use ariadne_analytics::{PageRank, Sssp};
use ariadne_graph::Csr;
use ariadne_pql::{Params, Tuple};
use ariadne_provenance::{ProvEncode, ProvStore, SegmentFormat};
use ariadne_serve::{AdmissionConfig, QueryRequest, QueryService, ServeConfig};
use ariadne_vc::VertexProgram;

/// log2 of the vertex count.
pub const SCALE: u32 = 7;

/// Where a vertex's value changed: vertex-local, so its replay does not
/// depend on the adjacency the service was started with.
pub const CHANGED_PQL: &str =
    "changed(x, i) :- evolution(x, j, i), value(x, d1, i), value(x, d2, j), d1 != d2.";

fn store_config() -> StoreConfig {
    StoreConfig::in_memory().with_format(SegmentFormat::V3)
}

/// One analytic's side of the workload.
struct Lane<A: VertexProgram> {
    /// Class names of the insert, delete and mixed batch.
    classes: [&'static str; 3],
    program: A,
    /// Values and captured tuple stream of the unmutated graph.
    base_values: Vec<A::V>,
    base_stream: Vec<(u32, String, Vec<Tuple>)>,
}

impl<A> Lane<A>
where
    A: VertexProgram,
    A::V: ProvEncode + PartialEq + Clone + Sync,
    A::M: ProvEncode,
{
    fn new(classes: [&'static str; 3], program: A, session: &Ariadne, graph: &Csr) -> Self {
        let run = session
            .capture(&program, graph, &CaptureSpec::full())
            .expect("base capture");
        let mut base_stream = Vec::new();
        for step in 0..=run.store.max_superstep().unwrap_or(0) {
            for (pred, tuples) in run.store.layer(step).expect("base layer") {
                base_stream.push((step, pred, tuples));
            }
        }
        Lane {
            classes,
            program,
            base_values: run.values,
            base_stream,
        }
    }

    /// A store holding the base capture.
    fn base_store(&self) -> ProvStore {
        let mut store = ProvStore::new(store_config());
        for (step, pred, tuples) in &self.base_stream {
            store
                .ingest(*step, pred, tuples.clone())
                .expect("base ingest");
        }
        store.pack_all();
        store
    }

    /// One round: a fresh session and stores, then the three batches.
    fn round(
        &self,
        w: &MutateEpochs,
        seed: u64,
        tr: &mut Tracer,
        rec: &mut Recorder,
        acc: &mut Acc,
    ) {
        let traced = tr.enabled();
        let mut session = MutableSession::new(w.session.clone(), w.graph.clone());
        let mut mine = self.base_store();
        let service = QueryService::new(
            w.graph.clone(),
            self.base_store(),
            ServeConfig {
                threads: w.session.engine.threads,
                max_limit: usize::MAX,
                admission: AdmissionConfig {
                    max_in_flight: 8,
                    quota_burst: 1e9,
                    quota_per_sec: 0.0,
                },
                ..ServeConfig::default()
            },
        );
        let mut prev = self.base_values.clone();
        for (kind, class) in BATCH_KINDS.into_iter().zip(self.classes) {
            let mut rng = Rng::new(derive(seed, class));
            let delta = mutation_batch(session.csr(), kind, &mut rng);
            let delta_ops = delta.len();
            let ((wall, outcome), _) = tr.op(|tr| {
                let (_, commit_ns) = tr.span("graph.delta_commit", |_| {
                    session.mutate(delta);
                    session.commit()
                });
                let (inc, inc_ns) = tr.span("vc.incremental_run", |_| {
                    session.rerun_incremental(&self.program, &prev)
                });
                let (epoch, capture_ns) = tr.span("capture.run", |_| {
                    session.capture_epoch(&self.program, &w.spec, &mut mine)
                });
                let (Ok(inc), Ok((run, stats))) = (inc, epoch) else {
                    return (commit_ns + inc_ns + capture_ns, None);
                };
                let (served, append_ns) =
                    tr.span("serve.append_epoch", |_| service.append_epoch(&run.store));
                let (page, execute_ns) = tr.span("serve.execute_miss", |_| {
                    service.execute(&QueryRequest {
                        pql: Some(CHANGED_PQL),
                        limit: Some(usize::MAX),
                        tenant: "benchmark",
                        ..QueryRequest::default()
                    })
                });
                let wall = commit_ns + inc_ns + capture_ns + append_ns + execute_ns;
                tr.span("bench.teardown", |_| drop(run));
                (wall, Some((inc, stats, served, page)))
            });
            // The oracles, outside the op: a cold run of the analytic and
            // a centralized evaluation over the benchmark's own store.
            let (cold, cold_ns) =
                baseline_run(&session.session, &self.program, session.csr(), tr, acc);
            let ok = outcome.as_ref().is_some_and(|(inc, stats, served, page)| {
                let central = w.session.centralized(session.csr(), &mine, &w.changed);
                let page_ok = match (page, &central) {
                    (Ok(page), Ok(db)) => {
                        let expect: Vec<Tuple> = db.sorted("changed");
                        !page.cache_hit
                            && page.next_cursor.is_none()
                            && page.rows().iter().map(|(_, t)| t).eq(expect.iter())
                            && result_print(db, &w.changed)["changed"].0 == page.total_rows
                    }
                    _ => false,
                };
                page_ok
                    && inc.result.values == cold.values
                    && served.as_ref().is_ok_and(|s| s.epoch == stats.epoch)
            });
            rec.sequential_op(class, wall, ok);
            rec.reference(class, cold_ns);
            if let (true, Some((inc, stats, _, page))) = (traced, &outcome) {
                acc.add("graph.delta_ops", delta_ops as f64);
                acc.add("vc.reset_vertices", inc.reset_vertices as f64);
                acc.add("vc.activated_vertices", inc.activated_vertices as f64);
                acc.add("capture.tuples", mine.tuple_count() as f64);
                acc.add(
                    "provenance.epoch_bytes_appended",
                    stats.bytes_appended as f64,
                );
                acc.add("provenance.epoch_cold_bytes", stats.cold_bytes as f64);
                acc.add("provenance.epoch_carried", stats.carried as f64);
                acc.add("provenance.epoch_replaced", stats.replaced as f64);
                if let Ok(page) = page {
                    acc.add("read_bytes_per_op", page.replay.bytes_read as f64);
                    acc.add("provenance.segments_read", page.replay.segments_read as f64);
                    acc.add(
                        "provenance.segments_skipped",
                        page.replay.segments_skipped as f64,
                    );
                }
            }
            prev = cold.values;
        }
        if traced {
            // After the last epoch: what the chain of epochs costs to keep.
            let logical = mine.to_database().map_or(0, |db| db.total_tuples());
            acc.add(
                "store_bytes_per_tuple",
                mine.byte_size() as f64 / logical.max(1) as f64,
            );
            acc.add("provenance.store_bytes", mine.byte_size() as f64);
            acc.add("provenance.segments", mine.segment_index().count() as f64);
        }
    }
}

pub struct MutateEpochs {
    session: Ariadne,
    graph: Csr,
    spec: CaptureSpec,
    changed: CompiledQuery,
    sssp: Lane<Sssp>,
    pagerank: Lane<PageRank>,
    seed: u64,
    times: GraphTimes,
}

impl Workload for MutateEpochs {
    fn setup(ctx: &Ctx) -> Self {
        let (_, graph, times) = timed_graphs(ctx.seed, SCALE);
        let session = Ariadne {
            store: store_config(),
            ..Ariadne::with_threads(ctx.host.threads)
        };
        let sssp = Lane::new(
            ["sssp-insert", "sssp-delete", "sssp-mixed"],
            Sssp::new(fixture::hub(&graph)),
            &session,
            &graph,
        );
        let pagerank = Lane::new(
            ["pagerank-insert", "pagerank-delete", "pagerank-mixed"],
            pagerank(),
            &session,
            &graph,
        );
        MutateEpochs {
            session,
            graph,
            spec: CaptureSpec::full(),
            changed: compile(CHANGED_PQL, Params::new()).expect("changed compiles"),
            sssp,
            pagerank,
            seed: ctx.seed,
            times,
        }
    }

    fn prepare(&mut self, _ctx: &Ctx) {}

    fn rotation(&mut self, _ctx: &Ctx, tr: &mut Tracer, rec: &mut Recorder, acc: &mut Acc) {
        self.sssp.round(self, self.seed, tr, rec, acc);
        self.pagerank.round(self, self.seed, tr, rec, acc);
    }

    fn layers(&mut self, _ctx: &Ctx, tr: &mut Tracer, _acc: &mut Acc, out: &mut Metrics) {
        out.insert("graph.rmat_gen_ns", self.times.rmat_gen_ns as f64);
        out.insert("graph.csr_build_ns", self.times.csr_build_ns as f64);
        // The epoch append alone, with no capture in front of it: the
        // SSSP lane's first batch appended to a fresh base store.
        let mut session = MutableSession::new(self.session.clone(), self.graph.clone());
        let mut rng = Rng::new(derive(self.seed, self.sssp.classes[0]));
        session.mutate(mutation_batch(&self.graph, BATCH_KINDS[0], &mut rng));
        session.commit();
        let next = self
            .session
            .capture(&self.sssp.program, session.csr(), &self.spec)
            .expect("probe capture")
            .store;
        let mut store = self.sssp.base_store();
        tr.span("provenance.epoch_append", |_| {
            store.append_epoch(&next).expect("probe append")
        });
        tr.span("pql.compile", |_| {
            compile(CHANGED_PQL, Params::new()).expect("changed compiles")
        });
    }
}
