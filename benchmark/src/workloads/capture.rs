//! `capture-spill`: the store's write side and its cold read side.
//!
//! One cycle is `Ariadne::capture` with `CaptureSpec::full()` into a
//! spilling v3 store (32 KiB memory budget, `Durability::None`, buffered
//! reads), then `ProvStore::compact`, then a cold
//! `ProvStore::resume_from_spool` of the directory and a full
//! `to_database` scan. PageRank and SSSP cycles alternate; a bare
//! `Ariadne::baseline` of the same analytic follows each cycle, and
//! `overhead_x` is the whole cycle over that baseline (the capture run
//! alone over it, the paper's capture overhead, is `capture.run_ns` over
//! `vc.run_ns`). Throughput counts captured tuples. The oracle is an
//! in-memory capture of the same analytic: the reopened spool's database
//! must equal it predicate by predicate.

use super::{baseline_run, pagerank, timed_graphs, GraphTimes};
use crate::fixture::{self, database_fingerprint};
use crate::run::{Acc, Ctx, Metrics, Recorder, Workload};
use crate::trace::{alloc_snapshot, Tracer};
use ariadne::session::Ariadne;
use ariadne::{CaptureSpec, StoreConfig};
use ariadne_analytics::{PageRank, Sssp};
use ariadne_graph::Csr;
use ariadne_pql::Tuple;
use ariadne_provenance::{ProvEncode, ProvStore, SegmentFormat};
use ariadne_vc::VertexProgram;

/// log2 of the vertex count.
pub const SCALE: u32 = 7;
/// Encoded bytes the store keeps in memory before it spills.
pub const MEMORY_BUDGET: usize = 32 << 10;

type Fingerprint = Vec<(String, (usize, u64))>;

struct Oracle {
    pagerank: Fingerprint,
    sssp: Fingerprint,
    /// The SSSP capture's tuple stream, layer by layer, for the ingest
    /// probe.
    sssp_stream: Vec<(u32, String, Vec<Tuple>)>,
}

pub struct CaptureSpill {
    threads: usize,
    plain: Csr,
    weighted: Csr,
    pagerank: PageRank,
    sssp: Sssp,
    spec: CaptureSpec,
    times: GraphTimes,
    oracle: Option<Oracle>,
    cycles: u64,
}

fn spill_config(dir: std::path::PathBuf) -> StoreConfig {
    StoreConfig::spilling(MEMORY_BUDGET, dir).with_format(SegmentFormat::V3)
}

impl CaptureSpill {
    #[allow(clippy::too_many_arguments)]
    fn cycle<A>(
        &self,
        ctx: &Ctx,
        cycle: u64,
        class: &'static str,
        analytic: &A,
        graph: &Csr,
        expect: &Fingerprint,
        tr: &mut Tracer,
        rec: &mut Recorder,
        acc: &mut Acc,
    ) where
        A: VertexProgram,
        A::V: ProvEncode,
        A::M: ProvEncode,
    {
        let dir = ctx.scratch.sub(&format!("spool-{cycle}"));
        let session = Ariadne {
            store: spill_config(dir.clone()),
            ..Ariadne::with_threads(self.threads)
        };
        let traced = tr.enabled();
        let ((walls, tuples, ok), _) = tr.op(|tr| {
            let before = alloc_snapshot();
            let (run, capture_ns) = tr.span("capture.run", |_| {
                session.capture(analytic, graph, &self.spec)
            });
            let Ok(run) = run else {
                return ([capture_ns, 0, 0, 0], 0, false);
            };
            let mut store = run.store;
            let tuples = store.tuple_count();
            let (spilled, captured_bytes) = (store.disk_bytes(), store.byte_size());
            if traced {
                acc.add(
                    "capture.alloc_calls",
                    (alloc_snapshot().0 - before.0) as f64,
                );
                acc.add("capture.tuples", tuples as f64);
                acc.add("provenance.store_bytes", captured_bytes as f64);
                acc.add("provenance.spills", store.spills() as f64);
                acc.add("provenance.segments", store.segment_index().count() as f64);
            }
            let (report, compact_ns) = tr.span("provenance.compact", |_| store.compact());
            drop(store);
            let (reopened, resume_ns) = tr.span("provenance.resume", |_| {
                ProvStore::resume_from_spool(spill_config(dir.clone()))
            });
            let (Ok(report), Ok(reopened)) = (report, reopened) else {
                return ([capture_ns, compact_ns, resume_ns, 0], tuples, false);
            };
            let (db, scan_ns) = tr.span("provenance.scan", |_| reopened.to_database());
            let (ok, _) = tr.span("bench.verify", |_| {
                db.as_ref()
                    .is_ok_and(|db| database_fingerprint(db) == *expect)
                    && reopened.tuple_count() == tuples
            });
            tr.span("bench.teardown", |_| drop((db, reopened)));
            if traced {
                let final_bytes = fixture::dir_bytes(&dir) as f64;
                acc.add("provenance.compact_bytes_in", report.bytes_in as f64);
                acc.add("provenance.compact_bytes_out", report.bytes_out as f64);
                acc.add(
                    "provenance.write_amp",
                    (spilled + report.bytes_out) as f64 / final_bytes.max(1.0),
                );
                acc.add("store_bytes_per_tuple", final_bytes / tuples.max(1) as f64);
                // The cold scan decodes every byte of the compacted spool.
                acc.add("read_bytes_per_op", final_bytes);
            }
            ([capture_ns, compact_ns, resume_ns, scan_ns], tuples, ok)
        });
        let _ = std::fs::remove_dir_all(&dir);
        let wall: u64 = walls.iter().sum();
        rec.op(class, wall, ok);
        rec.busy(wall);
        if ok {
            rec.units += tuples as u64;
        }
        let base = Ariadne::with_threads(self.threads);
        let (_, base_ns) = baseline_run(&base, analytic, graph, tr, acc);
        rec.reference(class, base_ns);
    }
}

/// An in-memory v3 capture: the oracle for what a spool must hold.
fn memory_capture<A>(threads: usize, analytic: &A, graph: &Csr, spec: &CaptureSpec) -> ProvStore
where
    A: VertexProgram,
    A::V: ProvEncode,
    A::M: ProvEncode,
{
    Ariadne {
        store: StoreConfig::in_memory().with_format(SegmentFormat::V3),
        ..Ariadne::with_threads(threads)
    }
    .capture(analytic, graph, spec)
    .expect("in-memory capture")
    .store
}

impl Workload for CaptureSpill {
    fn setup(ctx: &Ctx) -> Self {
        let (plain, weighted, times) = timed_graphs(ctx.seed, SCALE);
        let sssp = Sssp::new(fixture::hub(&weighted));
        CaptureSpill {
            threads: ctx.host.threads,
            plain,
            weighted,
            pagerank: pagerank(),
            sssp,
            spec: CaptureSpec::full(),
            times,
            oracle: None,
            cycles: 0,
        }
    }

    fn prepare(&mut self, _ctx: &Ctx) {
        let pr = memory_capture(self.threads, &self.pagerank, &self.plain, &self.spec);
        let ss = memory_capture(self.threads, &self.sssp, &self.weighted, &self.spec);
        let mut sssp_stream = Vec::new();
        for step in 0..=ss.max_superstep().unwrap_or(0) {
            for (pred, tuples) in ss.layer(step).expect("oracle layer") {
                sssp_stream.push((step, pred, tuples));
            }
        }
        self.oracle = Some(Oracle {
            pagerank: database_fingerprint(&pr.to_database().expect("oracle database")),
            sssp: database_fingerprint(&ss.to_database().expect("oracle database")),
            sssp_stream,
        });
    }

    fn rotation(&mut self, ctx: &Ctx, tr: &mut Tracer, rec: &mut Recorder, acc: &mut Acc) {
        let cycle = self.cycles;
        self.cycles += 2;
        let oracle = self.oracle.as_ref().expect("prepare() ran");
        self.cycle(
            ctx,
            cycle,
            "pagerank",
            &self.pagerank,
            &self.plain,
            &oracle.pagerank,
            tr,
            rec,
            acc,
        );
        self.cycle(
            ctx,
            cycle + 1,
            "sssp",
            &self.sssp,
            &self.weighted,
            &oracle.sssp,
            tr,
            rec,
            acc,
        );
    }

    fn layers(&mut self, ctx: &Ctx, tr: &mut Tracer, _acc: &mut Acc, out: &mut Metrics) {
        out.insert("graph.rmat_gen_ns", self.times.rmat_gen_ns as f64);
        out.insert("graph.csr_build_ns", self.times.csr_build_ns as f64);
        // The captured tuple stream straight into the store, without the
        // engine in front of it: what ingest, encode and spill cost alone.
        let stream = self
            .oracle
            .as_ref()
            .expect("prepare() ran")
            .sssp_stream
            .clone();
        let dir = ctx.scratch.sub("ingest-probe");
        let mut store = ProvStore::new(spill_config(dir.clone()));
        tr.span("provenance.ingest", |_| {
            for (step, pred, tuples) in stream {
                store.ingest(step, &pred, tuples).expect("probe ingest");
            }
            store.pack_all();
        });
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
