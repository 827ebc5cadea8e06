//! The store's read side calls the allocator per segment and per record,
//! not per row.
//!
//! Three readers decode whole captures: `compact` walks every segment
//! of a spool, copying the bytes of a segment one pack wrote and
//! re-encoding the others, `append_epoch` decodes both sides of a diff
//! and re-encodes what changed, and a logical layer read folds an epoch
//! chain. All three decode into row blocks — one buffer per segment,
//! filled record by record — so what they cost the allocator is a
//! handful of calls per segment (the block, the extent buffer, the
//! encoder's column buffers, the frame) and does not grow with the rows.
//! This test pins that: a counting `#[global_allocator]`, one PageRank
//! capture on a fixed grid, and around each reader the allocator calls
//! made against the rows it decoded, which must stay under one per eight
//! rows.
//!
//! At the parent of the change that added this test every decoded row
//! was a `Vec` of its own, and the epoch diff and fold then cloned or
//! re-collected them: measured there on this fixture, compaction made
//! 1.06 allocator calls per row decoded, an epoch append 1.52 and a fold
//! of every layer (through `layer_read`, the only read there was) 1.79.
//! This change makes 0.024, 0.012 and 0.008.
//!
//! The writes of compaction and of the epoch append are held to a budget
//! per record written (see [`assert_write_budget`]): the encoder's column
//! scratch and the LZ match table are reused per thread, so writing a
//! record does not cost an allocation per column or per call.
//!
//! The test binary holds this one test: the counter is process-wide.

use ariadne::session::Ariadne;
use ariadne::CaptureSpec;
use ariadne_analytics::PageRank;
use ariadne_graph::generators::regular::grid;
use ariadne_graph::{GraphDelta, MutableGraph, VertexId};
use ariadne_provenance::v3::{parse_manifest, MANIFEST_NAME};
use ariadne_provenance::{LayerFilter, Rows, SegmentFormat, StoreConfig};
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

/// `f`'s result and the allocator calls it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOC_CALLS.load(Ordering::Relaxed) - before)
}

#[track_caller]
fn assert_budget(what: &str, allocs: u64, rows: usize) {
    assert!(rows > 10_000, "{what}: only {rows} rows decoded");
    assert!(
        allocs * 8 < rows as u64,
        "{what}: {allocs} allocator calls for {rows} rows decoded (allowed: under one per 8)"
    );
}

/// The write side's budget: allocator calls per record written, under
/// `bound`. Compaction and an epoch append also decode, so the figure is
/// not the encoder's alone; on this fixture it is 15.93 (compact) and
/// 37.12 (append_epoch), where an LZ match table allocated per call adds
/// one per record and a column buffer allocated per column one per
/// column — the bounds sit under both. At the parent of the change that
/// reused both, the figures were 28.74 and 49.75.
#[track_caller]
fn assert_write_budget(what: &str, allocs: u64, records: usize, bound: f64) {
    let per_record = allocs as f64 / records as f64;
    assert!(
        per_record < bound,
        "{what}: {allocs} allocator calls for {records} records written \
         ({per_record:.2} each; allowed: under {bound})"
    );
}

#[test]
fn read_side_allocates_per_segment_not_per_row() {
    // 24 x 24 grid: ~6,000 rows a superstep over six predicates.
    let graph = grid(24, 24);
    let pagerank = PageRank {
        supersteps: 6,
        ..PageRank::default()
    };
    let spec = CaptureSpec::full();
    let dir = std::env::temp_dir().join(format!("ariadne-read-alloc-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // Compaction of a spilled full capture: every segment decoded and
    // re-encoded into the generation file.
    let spilling = Ariadne {
        store: StoreConfig::spilling(1 << 12, dir.clone()).with_format(SegmentFormat::V3),
        ..Ariadne::with_threads(1)
    };
    let mut spilled = spilling.capture(&pagerank, &graph, &spec).unwrap().store;
    assert!(spilled.spills() > 0, "the capture never spilled");
    let (report, allocs) = counted(|| spilled.compact().unwrap());
    assert_budget("compact", allocs, report.tuples);
    let manifest = std::fs::read(dir.join(MANIFEST_NAME)).unwrap();
    let records: u32 = parse_manifest(&manifest).unwrap().live[0]
        .entries
        .iter()
        .map(|e| e.records)
        .sum();
    assert_write_budget("compact", allocs, records as usize, 16.5);
    drop(spilled);
    std::fs::remove_dir_all(&dir).ok();

    // An epoch append of a PageRank re-capture after a mutation: the
    // pairs the index cannot decide decoded, every changed layer
    // re-encoded or adopted.
    let in_memory = Ariadne {
        store: StoreConfig::in_memory().with_format(SegmentFormat::V3),
        ..Ariadne::with_threads(1)
    };
    let mut store = in_memory.capture(&pagerank, &graph, &spec).unwrap().store;
    let mut mutated = MutableGraph::new(graph);
    let mut delta = GraphDelta::new();
    for v in 0..24u64 {
        delta.add_edge(VertexId(v * 24), VertexId(v * 24 + 23), 1.0);
    }
    mutated.apply(&delta);
    let scratch = Ariadne::with_threads(1);
    let next = scratch
        .capture(&pagerank, mutated.csr(), &spec)
        .unwrap()
        .store;
    let rows = store.tuple_count() + next.tuple_count();
    let segments = store.segment_index().count();
    let (stats, allocs) = counted(|| store.append_epoch(&next).unwrap());
    assert!(stats.replaced > 0, "the mutation changed nothing");
    assert_budget("append_epoch", allocs, rows);
    // Every segment the epoch adds is one record.
    let records = store.segment_index().count() - segments;
    assert_write_budget("append_epoch", allocs, records, 37.6);

    // The fold of every logical layer of the two-epoch chain.
    let max = store.max_superstep().unwrap();
    let (rows, allocs) = counted(|| {
        let read = |s| store.layer_blocks(s, &LayerFilter::all()).unwrap();
        (0..=max)
            .map(|s| {
                read(s)
                    .tuples
                    .iter()
                    .map(|(_, rows)| rows.len())
                    .sum::<usize>()
            })
            .sum::<usize>()
    });
    assert_budget("layer fold", allocs, rows);
}
