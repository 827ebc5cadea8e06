//! Size and structure of captured provenance (§3, §6.1, Tables 3–4), how
//! a spilling capture spends its budget and what compaction writes, plus
//! the compact ≡ unfolded equivalence.

use ariadne::queries;
use ariadne::session::Ariadne;
use ariadne::CaptureSpec;
use ariadne_analytics::{PageRank, Sssp, Wcc};
use ariadne_graph::generators::{rmat, RmatConfig};
use ariadne_graph::{Csr, VertexId};
use ariadne_pql::Value;
use ariadne_provenance::{v3, ProvStore, StoreConfig, UnfoldedGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn graph(seed: u64) -> Csr {
    rmat(RmatConfig {
        scale: 7,
        edge_factor: 5,
        seed,
        ..Default::default()
    })
}

#[test]
fn full_provenance_is_larger_than_input() {
    // The paper's Table 3: full provenance is a multiple of the input
    // graph (10x for PageRank/SSSP, 5x for WCC at their superstep
    // counts).
    let g = graph(1);
    let input_bytes = g.byte_size();
    let pr = PageRank {
        supersteps: 10,
        ..Default::default()
    };
    let run = Ariadne::default()
        .capture(&pr, &g, &CaptureSpec::full())
        .unwrap();
    assert!(
        run.store.byte_size() > input_bytes,
        "provenance {} <= input {input_bytes}",
        run.store.byte_size()
    );
    // And it scales with supersteps: half the supersteps, much less data.
    let pr_short = PageRank {
        supersteps: 5,
        ..Default::default()
    };
    let short = Ariadne::default()
        .capture(&pr_short, &g, &CaptureSpec::full())
        .unwrap();
    assert!(short.store.byte_size() < run.store.byte_size());
}

#[test]
fn provenance_upper_bound_n_times_input() {
    // §3: "An upper bound on the size of the provenance graph when all
    // information is captured is n x G_in" — in tuple terms, per
    // superstep we store at most one value/superstep tuple per vertex
    // and one tuple per message per edge direction.
    let g = graph(2);
    let pr = PageRank {
        supersteps: 8,
        ..Default::default()
    };
    let run = Ariadne::default()
        .capture(&pr, &g, &CaptureSpec::full())
        .unwrap();
    let n = run.metrics.num_supersteps() as usize;
    let per_step_bound = 3 * g.num_vertices() + 2 * g.num_edges() + g.num_vertices();
    assert!(
        run.store.tuple_count() <= n * per_step_bound,
        "{} tuples > {} bound",
        run.store.tuple_count(),
        n * per_step_bound
    );
}

#[test]
fn custom_capture_much_smaller_than_full() {
    // Table 4 vs Table 3: the fwd-lineage capture is a fraction of full.
    let mut rng = StdRng::seed_from_u64(3);
    let g = graph(3).map_weights(|_, _, _| rng.gen::<f64>());
    let source = VertexId(0);
    let ariadne = Ariadne::default();
    let analytic = Sssp::new(source);
    let full = ariadne.capture(&analytic, &g, &CaptureSpec::full()).unwrap();
    let custom = ariadne
        .capture(
            &analytic,
            &g,
            &queries::capture_forward_lineage(source).unwrap(),
        )
        .unwrap();
    assert!(
        custom.store.byte_size() * 2 < full.store.byte_size(),
        "custom {} not well below full {}",
        custom.store.byte_size(),
        full.store.byte_size()
    );
    assert!(custom.store.tuple_count() > 0);
}

#[test]
fn capture_time_overhead_ordering() {
    // Figure 7's shape: baseline <= custom capture <= full capture in
    // total work (messages carry payloads, every tuple is materialized).
    // Wall times at this scale are noisy, so compare bytes moved.
    let g = graph(4);
    let ariadne = Ariadne::default();
    let analytic = Wcc;
    let baseline = ariadne.baseline(&analytic, &g);
    let full = ariadne.capture(&analytic, &g, &CaptureSpec::full()).unwrap();
    assert!(full.store.byte_size() > 0);
    assert_eq!(
        baseline.metrics.num_supersteps(),
        full.metrics.num_supersteps(),
        "capture must not change the computation"
    );
    assert_eq!(baseline.values, full.values);
}

#[test]
fn pruned_capture_drops_unchanged_values() {
    // PageRank recomputes everyone every superstep but most values
    // barely change late in the run — the §7-style pruned capture keeps
    // only change points, so it must store strictly fewer tuples than
    // the raw value capture while keeping every superstep-0 seed.
    let g = graph(8);
    let ariadne = Ariadne::default();
    let pr = PageRank {
        supersteps: 12,
        ..Default::default()
    };
    let raw = ariadne
        .capture(&pr, &g, &CaptureSpec::raw(["value", "superstep"]))
        .unwrap();
    let pruned = ariadne
        .capture(&pr, &g, &queries::capture_changed_values().unwrap())
        .unwrap();
    assert!(
        pruned.store.tuple_count() < raw.store.tuple_count(),
        "pruned {} >= raw {}",
        pruned.store.tuple_count(),
        raw.store.tuple_count()
    );
    // Every vertex still has its superstep-0 seed row.
    let layer0 = pruned.store.layer(0).unwrap();
    let seeds: usize = layer0
        .iter()
        .filter(|(p, _)| p == "prov_changed")
        .map(|(_, t)| t.len())
        .sum();
    assert_eq!(seeds, g.num_vertices());
}

#[test]
fn spilling_store_capture_end_to_end() {
    let g = graph(5);
    let dir = std::env::temp_dir().join(format!("ariadne-cap-{}", std::process::id()));
    let ariadne = Ariadne {
        store: StoreConfig::spilling(10_000, dir.clone()),
        ..Ariadne::default()
    };
    let run = ariadne
        .capture(
            &PageRank {
                supersteps: 6,
                ..Default::default()
            },
            &g,
            &CaptureSpec::full(),
        )
        .unwrap();
    assert!(run.store.spills() > 0, "expected spills with a 10KB budget");
    // Layers remain readable after spilling.
    let q = queries::sssp_wcc_no_message_no_change().unwrap();
    assert!(ariadne.layered(&g, &run.store, &q).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}

/// The spill budget of [`spilling_pagerank`].
const BUDGET: usize = 32 << 10;

/// A one-thread PageRank capture of a scale-7 R-MAT graph into a store
/// that spills past [`BUDGET`] into `dir`.
fn spilling_pagerank(dir: &Path) -> ProvStore {
    let _ = std::fs::remove_dir_all(dir);
    let g = rmat(RmatConfig {
        scale: 7,
        edge_factor: 16,
        seed: 0xC0DE,
        ..Default::default()
    });
    let pr = PageRank {
        supersteps: 10,
        ..Default::default()
    };
    let ariadne = Ariadne {
        store: StoreConfig::spilling(BUDGET, dir.to_path_buf()),
        ..Ariadne::with_threads(1)
    };
    let store = ariadne
        .capture(&pr, &g, &CaptureSpec::full())
        .unwrap()
        .store;
    assert!(store.spills() > 0, "the capture never spilled");
    store
}

fn spool_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ariadne-{tag}-{}", std::process::id()))
}

/// The budget counts encoded bytes, and spilling evicts whole segments
/// only while the encoded bytes in memory exceed it. So when the capture
/// ends, memory falls short of the budget by at most one segment, and
/// the rest of the capture stays in memory rather than in the spool.
#[test]
fn spilling_capture_fills_its_budget() {
    let dir = spool_dir("budget-full");
    let store = spilling_pagerank(&dir);
    let largest = store.segment_index().map(|s| s.bytes).max().unwrap();
    assert!(
        store.disk_bytes() + BUDGET <= store.byte_size() + largest,
        "{} of {} bytes spilled under a {BUDGET}-byte budget (largest segment {largest})",
        store.disk_bytes(),
        store.byte_size()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Each key's extent in the live generation file of `dir`.
fn extents(dir: &Path, generation: u64) -> BTreeMap<(u32, String), Vec<u8>> {
    let file = std::fs::read(dir.join(v3::gen_file_name(generation, 0))).unwrap();
    let (entries, _) = v3::parse_footer(&file).unwrap();
    let extent = |offset: u64, len: u64| file[offset as usize..(offset + len) as usize].to_vec();
    (entries.into_iter())
        .map(|e| ((e.superstep, e.pred), extent(e.offset, e.len)))
        .collect()
}

/// Compaction copies a key one ingest wrote, and the copy is the bytes a
/// re-encode writes: a resumed store flags nothing, so compacting it
/// again re-encodes every key, and every extent comes out the same.
/// Beside the capture, whose keys are ingested once each, two keys are
/// written otherwise, so the first pass re-encodes too: one ingested
/// twice, one holding a ragged record.
#[test]
fn compaction_copies_what_a_reencode_writes() {
    let dir = spool_dir("compact-copy");
    let mut store = spilling_pagerank(&dir);
    let row = |v: u64| vec![Value::Id(v), Value::Float(0.5), Value::Int(99)];
    store.ingest(99, "value", vec![row(1), row(2)]).unwrap();
    store.ingest(99, "value", vec![row(3)]).unwrap();
    let ragged = vec![vec![Value::Id(1)], vec![Value::Id(2), Value::Int(3)]];
    store.ingest(99, "ragged", ragged).unwrap();
    let first = store.compact().unwrap();
    assert!(first.copied > 0, "no key copied: {}", first.to_json());
    assert_eq!(first.segments - first.copied, 2, "{}", first.to_json());
    drop(store);
    let copied = extents(&dir, first.generation);

    let mut resumed =
        ProvStore::resume_from_spool(StoreConfig::spilling(BUDGET, dir.clone())).unwrap();
    let second = resumed.compact().unwrap();
    let json = second.to_json();
    assert_eq!(second.copied, 0, "a resumed key was copied: {json}");
    assert_eq!(second.segments, first.segments);
    assert_eq!(second.tuples, first.tuples);
    let reencoded = extents(&dir, second.generation);
    assert_eq!(copied.len(), reencoded.len());
    for (key, bytes) in &copied {
        assert!(reencoded[key] == *bytes, "{key:?} changed bytes");
    }
    assert_eq!(second.bytes_out, first.bytes_out);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unfolded_graph_layers_match_supersteps() {
    // The layer decomposition (Definition 5.1) of a full capture equals
    // the superstep structure: layer(x, i) == i.
    let g = graph(6);
    let run = Ariadne::default()
        .capture(&Wcc, &g, &CaptureSpec::full())
        .unwrap();
    let db = run.store.to_database().unwrap();
    let unfolded = UnfoldedGraph::from_database(&db);
    let layers = unfolded.layers().expect("provenance graphs are acyclic");
    assert!(layers.is_partition());
    for &(x, i) in unfolded.nodes() {
        assert_eq!(
            layers.layer_of((x, i)),
            Some(i as usize),
            "node ({x},{i}) in wrong layer"
        );
    }
    assert_eq!(
        layers.num_layers() as u32,
        run.metrics.num_supersteps(),
        "one layer per superstep"
    );
}

#[test]
fn compact_and_unfolded_agree_on_counts() {
    // Compact annotations and the unfolded graph carry the same
    // information: one unfolded node per (vertex, superstep) activation
    // tuple, message edges per receive tuple.
    let g = graph(7);
    let run = Ariadne::default()
        .capture(&Wcc, &g, &CaptureSpec::full())
        .unwrap();
    let db = run.store.to_database().unwrap();
    let unfolded = UnfoldedGraph::from_database(&db);
    assert!(unfolded.num_nodes() >= db.len("superstep"));
    // Every receive edge appears (plus evolution edges).
    assert!(unfolded.num_edges() >= db.len("receive_message"));
}
