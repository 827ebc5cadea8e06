//! A bare engine run calls the allocator per superstep and per chunk,
//! never per vertex-step or per message.
//!
//! The engine is the yardstick every provenance overhead is stated
//! against, so what it pays per vertex-step is paid by every mode. Its
//! steady state recycles outbox, inbox, dedup and aggregate-partial
//! buffers; a vertex fans out through `Context::send_along` without
//! copying its neighbour list, and contributes to an aggregator by
//! folding into a slot. What is left per superstep is bookkeeping: the
//! per-chunk worker threads, the transposed outbox lists, a metrics row,
//! the worker-local aggregate slots.
//!
//! This test pins that: a counting `#[global_allocator]` around whole
//! runs of PageRank (with its aggregator), SSSP and WCC at one and two
//! threads on R-MAT scale 8 and scale 11, each held to a budget of
//! `PER_STEP_CHUNK` calls per superstep per chunk. Scale 11 has eight
//! times the vertices and edges of scale 8 under the same budget, so a
//! cost per vertex-step or per message fails it.
//!
//! The test binary holds this one test: the counter is process-wide.

use ariadne_analytics::{PageRank, Sssp, Wcc};
use ariadne_graph::generators::rmat::{rmat, RmatConfig};
use ariadne_graph::Csr;
use ariadne_vc::{Engine, EngineConfig, VertexProgram};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

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

/// Allocator calls allowed per superstep per chunk. Every run here makes
/// 10 to 20: a two-thread superstep spawns two scoped threads per phase
/// and moves every buffer set through its pools, and the first supersteps
/// grow the recycled buffers to their working size. An allocation per
/// vertex-step would cost about a thousand per superstep per chunk at
/// scale 11.
const PER_STEP_CHUNK: u64 = 32;

fn graph(scale: u32) -> (Csr, Csr) {
    let plain = rmat(RmatConfig {
        scale,
        edge_factor: 16,
        seed: 0xA110C,
        ..RmatConfig::default()
    });
    let mut x = 0x9E37_79B9_u64;
    let weighted = plain.map_weights(|_, _, _| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        0.001 + (x >> 11) as f64 / (1u64 << 53) as f64
    });
    (plain, weighted)
}

/// Allocator calls of one whole run of `program`, held to the budget.
fn assert_budget<P: VertexProgram>(name: &str, program: &P, graph: &Csr, threads: usize) {
    let engine = Engine::new(EngineConfig::parallel(threads));
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let run = engine.run(program, graph);
    let calls = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    let steps = u64::from(run.supersteps());
    let messages = run.metrics.total_messages() as u64;
    assert!(steps >= 3, "{name}: only {steps} supersteps");
    let budget = PER_STEP_CHUNK * steps * threads as u64;
    assert!(
        calls <= budget,
        "{name} at {threads} thread(s), {} vertices: {calls} allocator calls in {steps} \
         supersteps ({messages} messages); allowed {PER_STEP_CHUNK} per superstep per chunk",
        graph.num_vertices()
    );
}

#[test]
fn engine_runs_allocate_per_superstep_not_per_vertex_step() {
    for scale in [8, 11] {
        let (plain, weighted) = graph(scale);
        let hub = weighted.max_out_degree_vertex().unwrap();
        let pagerank = PageRank {
            supersteps: 10,
            ..PageRank::default()
        };
        for threads in [1, 2] {
            assert_budget("pagerank", &pagerank, &plain, threads);
            assert_budget("sssp", &Sssp::new(hub), &weighted, threads);
            assert_budget("wcc", &Wcc, &plain, threads);
        }
    }
}
