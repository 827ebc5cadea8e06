//! A steady-state vertex-superstep of the online wrapper calls the
//! allocator for the tuples it stores and for little else.
//!
//! `OnlineProgram::compute` runs once per vertex per superstep beside an
//! analytic that costs nanoseconds per edge; every transient allocation in
//! it — a copy of the inbox, a step record, a scan buffer, a binding map —
//! is paid that often, and under the engine's per-phase threads it is paid
//! in contended malloc arenas. This test pins the budget so the transients
//! cannot come back unnoticed: a counting `#[global_allocator]`, one
//! engine thread, a small fixed graph, and around every compute call the
//! allocator calls made against the tuples the vertex's database gained.
//!
//! A raw capture is held to a tighter budget: its rows are not tuples at
//! all, so the allocator calls it adds do not grow with them.
//!
//! The test binary holds this one test: the counter is process-wide.

use ariadne::compile::CompiledQuery;
use ariadne::online::{OnlineConfig, OnlineMsg, OnlineProgram, OnlineState};
use ariadne::queries;
use ariadne::session::Ariadne;
use ariadne::CaptureSpec;
use ariadne_analytics::{PageRank, Sssp};
use ariadne_graph::generators::regular::grid;
use ariadne_graph::{Csr, VertexId};
use ariadne_pql::Value;
use ariadne_provenance::{ProvEncode, SegmentFormat, StoreConfig};
use ariadne_vc::{
    AggOp, Aggregates, Combiner, Context, Engine, EngineConfig, Envelope, VertexProgram,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Supersteps before this one are warm-up: relations are created, the
/// worker's buffers grow to the query's size, aggregates over the static
/// graph are evaluated once.
const STEADY_FROM: u32 = 2;

/// Delegates to the online wrapper and meters its steady-state compute
/// calls: how many, their allocator calls, the tuples they stored.
struct Metered<'a, A: VertexProgram> {
    inner: OnlineProgram<'a, A>,
    calls: AtomicU64,
    allocs: AtomicU64,
    stored: AtomicU64,
}

impl<A> VertexProgram for Metered<'_, A>
where
    A: VertexProgram,
    A::V: ProvEncode,
    A::M: ProvEncode,
{
    type V = OnlineState<A::V>;
    type M = OnlineMsg<A::M>;

    fn init(&self, v: VertexId, graph: &Csr) -> Self::V {
        self.inner.init(v, graph)
    }

    fn compute(
        &self,
        ctx: &mut dyn Context<Self::M>,
        state: &mut Self::V,
        messages: &[Envelope<Self::M>],
    ) {
        let steady = ctx.superstep() >= STEADY_FROM;
        let tuples_before = state.q.db.total_tuples();
        let allocs_before = ALLOC_CALLS.load(Ordering::Relaxed);
        self.inner.compute(ctx, state, messages);
        let allocs = ALLOC_CALLS.load(Ordering::Relaxed) - allocs_before;
        if steady {
            let stored = state.q.db.total_tuples() - tuples_before;
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.allocs.fetch_add(allocs, Ordering::Relaxed);
            self.stored.fetch_add(stored as u64, Ordering::Relaxed);
        }
    }

    fn combiner(&self) -> Option<Box<dyn Combiner<Self::M>>> {
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
    fn message_bytes(&self, msg: &Self::M) -> usize {
        self.inner.message_bytes(msg)
    }
}

/// Steady-state `(compute calls, allocator calls, tuples stored)` of
/// `analytic` on one engine thread, with `query` riding along or — the
/// engine's and the analytic's own allocations — with nothing to generate
/// or evaluate.
fn meter<A>(analytic: &A, graph: &Csr, query: Option<&CompiledQuery>) -> (u64, u64, u64)
where
    A: VertexProgram,
    A::V: ProvEncode,
    A::M: ProvEncode,
{
    let config = OnlineConfig {
        evaluator: query.map(|q| q.evaluator().clone()),
        needed: Arc::new(query.map(|q| q.query().edbs.clone()).unwrap_or_default()),
        shipped: Arc::new(query.map(|q| q.query().shipped.clone()).unwrap_or_default()),
        persist: None,
        custom: None,
    };
    let metered = Metered {
        inner: OnlineProgram::new(analytic, config),
        calls: AtomicU64::new(0),
        allocs: AtomicU64::new(0),
        stored: AtomicU64::new(0),
    };
    let run = Engine::new(EngineConfig::sequential()).run(&metered, graph);
    assert!(metered.inner.take_failure().is_none(), "query evaluation failed");
    assert!(run.metrics.num_supersteps() > STEADY_FROM, "no steady state to meter");
    (
        metered.calls.into_inner(),
        metered.allocs.into_inner(),
        metered.stored.into_inner(),
    )
}

/// Allocator calls the query costs on top of the bare run must stay
/// within the tuples it stores plus `slack` per vertex-superstep.
fn assert_budget<A>(name: &str, analytic: &A, graph: &Csr, query: &CompiledQuery, slack: u64)
where
    A: VertexProgram,
    A::V: ProvEncode,
    A::M: ProvEncode,
{
    let (bare_calls, bare_allocs, bare_stored) = meter(analytic, graph, None);
    let (calls, allocs, stored) = meter(analytic, graph, Some(query));
    assert_eq!((calls, bare_stored), (bare_calls, 0), "{name}: the query changed the run");
    assert!(stored >= 2 * calls, "{name}: only {stored} tuples in {calls} vertex-supersteps");
    let extra = allocs - bare_allocs;
    assert!(
        extra <= stored + slack * calls,
        "{name}: {extra} allocator calls for {stored} tuples in {calls} vertex-supersteps \
         (allowed: one per tuple and {slack} per vertex-superstep)"
    );
}

/// Allocator calls of one whole capture of `spec` (engine, wrapper,
/// writer thread and store together) on one engine thread into an
/// in-memory v3 store, with the vertex-supersteps it ran and the tuples
/// it captured.
fn capture_allocs(analytic: &PageRank, graph: &Csr, spec: &CaptureSpec) -> (u64, u64, u64) {
    let session = Ariadne {
        store: StoreConfig::in_memory().with_format(SegmentFormat::V3),
        ..Ariadne::with_threads(1)
    };
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let run = session.capture(analytic, graph, spec).unwrap();
    let allocs = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    let steps: usize = run.metrics.supersteps.iter().map(|s| s.active_vertices).sum();
    (allocs, steps as u64, run.store.tuple_count() as u64)
}

/// A captured row lives in a worker's row block from the generator to the
/// encoder, so what a capture adds to a run that captures nothing does
/// not grow with the rows: it is about 45 calls per (superstep,
/// predicate) segment — the block, its message, the segment, the
/// encoder's column buffers, the frame. On this 64-vertex graph that is
/// under four per vertex-superstep for one row each and for the nine of a
/// full capture alike, and far less than one per captured tuple. (At the
/// change that introduced row blocks a captured tuple cost about 4.5
/// calls: its own `Vec` in the per-vertex relation, the clone taken back
/// out of it, its share of a per-vertex message and of the relation's
/// hash table.)
fn assert_capture_budget(analytic: &PageRank, graph: &Csr) {
    let (bare, bare_steps, none) = capture_allocs(analytic, graph, &CaptureSpec::raw([""; 0]));
    assert_eq!(none, 0, "an empty spec captured something");
    // One row per vertex-superstep, then the five to nine of a full capture.
    for spec in [CaptureSpec::raw(["superstep"]), CaptureSpec::full()] {
        let (allocs, steps, tuples) = capture_allocs(analytic, graph, &spec);
        assert_eq!(steps, bare_steps, "the capture changed the run");
        assert!(tuples >= steps, "only {tuples} tuples in {steps} vertex-supersteps");
        let extra = allocs.saturating_sub(bare);
        assert!(
            extra <= 4 * steps,
            "{extra} allocator calls for {tuples} tuples in {steps} vertex-supersteps \
             (allowed: 4 per vertex-superstep, however many rows it generates)"
        );
        assert!(extra < tuples, "{extra} allocator calls for {tuples} captured tuples");
    }
}

#[test]
fn steady_state_compute_allocates_what_it_stores() {
    // 8 x 8 grid, every vertex with 2-4 neighbours in both directions.
    let graph = grid(8, 8);

    // PageRank computes every vertex every superstep; the monitoring
    // query reads each received message and ships nothing. Beside the
    // tuples there is one relation per vertex that keeps growing: its row
    // vector and dedup table double every few supersteps of so short a
    // run (1.6 calls per vertex-superstep here; 19, by the same measure,
    // at the parent of the change that added this test).
    let pagerank = PageRank {
        supersteps: 10,
        ..PageRank::default()
    };
    let check = queries::pagerank_check().unwrap();
    assert_budget("pagerank_check", &pagerank, &graph, &check, 2);

    // SSSP with the apt query: five rules, negation, a UDF, and `change`
    // tuples piggybacked on messages — a payload (its `Arc`, table list,
    // predicate name, tuple vector and the tuples in it) per vertex that
    // ships. A vertex computes only two or three times, so its relations
    // and marks are still being created in what counts as steady state
    // (4.5 calls per vertex-superstep here; 48 at the parent).
    let sssp = Sssp::new(VertexId(0));
    let apt = queries::apt("udf_diff", Value::Float(0.1)).unwrap();
    assert_budget("apt", &sssp, &graph, &apt, 6);

    assert_capture_budget(&pagerank, &graph);
}
