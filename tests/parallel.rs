//! Multi-threaded engine runs must agree exactly with sequential ones —
//! including full online provenance evaluation, where message payload
//! delivery order could otherwise leak scheduling nondeterminism.

use ariadne::queries;
use ariadne::session::Ariadne;
use ariadne::{CaptureSpec, StoreConfig};
use ariadne_analytics::{PageRank, Sssp, Wcc};
use ariadne_graph::generators::{rmat, RmatConfig};
use ariadne_graph::{Csr, VertexId};
use ariadne_pql::Value;
use ariadne_provenance::{ProvEncode, ProvStore, SegmentInfo};
use ariadne_vc::VertexProgram;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

fn graph() -> Csr {
    rmat(RmatConfig {
        scale: 9,
        edge_factor: 5,
        seed: 123,
        ..Default::default()
    })
}

#[test]
fn parallel_baselines_match_sequential() {
    let g = graph();
    let seq = Ariadne::default();
    let par = Ariadne::with_threads(4);
    let pr = PageRank {
        supersteps: 12,
        ..Default::default()
    };
    assert_eq!(seq.baseline(&pr, &g).values, par.baseline(&pr, &g).values);
    assert_eq!(seq.baseline(&Wcc, &g).values, par.baseline(&Wcc, &g).values);
}

#[test]
fn parallel_online_matches_sequential_online() {
    let mut rng = StdRng::seed_from_u64(9);
    let g = graph().map_weights(|_, _, _| 0.1 + rng.gen::<f64>());
    let analytic = Sssp::new(VertexId(0));
    let apt = queries::apt("udf_diff", Value::Float(0.1)).unwrap();

    let seq = Ariadne::default().online(&analytic, &g, &apt).unwrap();
    let par = Ariadne::with_threads(4).online(&analytic, &g, &apt).unwrap();

    assert_eq!(seq.values, par.values);
    for pred in ["change", "no_execute", "safe", "unsafe"] {
        assert_eq!(
            seq.query_results.sorted(pred),
            par.query_results.sorted(pred),
            "{pred} differs between 1 and 4 threads"
        );
    }
}

/// A full capture of `analytic` at `threads`: in memory, or (with a
/// `spool`) spilling past a 4 KiB budget and reopened from its spool.
fn captured<A>(analytic: &A, g: &Csr, threads: usize, spool: Option<PathBuf>) -> ProvStore
where
    A: VertexProgram,
    A::V: ProvEncode,
    A::M: ProvEncode,
{
    let store = spool.map_or_else(StoreConfig::in_memory, |dir| {
        let _ = std::fs::remove_dir_all(&dir);
        StoreConfig::spilling(4 << 10, dir)
    });
    let session = Ariadne {
        store: store.clone(),
        ..Ariadne::with_threads(threads)
    };
    let run = session.capture(analytic, g, &CaptureSpec::full()).unwrap();
    if store.spool_dir.is_none() {
        return run.store;
    }
    assert!(run.store.spills() > 0, "the capture never spilled");
    drop(run.store);
    ProvStore::resume_from_spool(store).unwrap()
}

/// Full PageRank, SSSP and WCC captures at every thread count store the
/// rows of one thread, layer by layer in the same order, as the same
/// records: a capture hands the store each layer once, in vertex order.
/// In memory, and spilled through a small budget and reopened.
#[test]
fn parallel_capture_matches_sequential_capture() {
    let mut rng = StdRng::seed_from_u64(5);
    let g = graph();
    let weighted = g.map_weights(|_, _, _| 0.1 + rng.gen::<f64>());
    let pagerank = PageRank {
        supersteps: 6,
        ..Default::default()
    };
    let sssp = Sssp::new(VertexId(0));
    let dir = std::env::temp_dir().join(format!("ariadne-parallel-{}", std::process::id()));
    for spill in [false, true] {
        let spool =
            |label: &str, threads: usize| spill.then(|| dir.join(format!("{label}-{threads}")));
        for label in ["pagerank", "sssp", "wcc"] {
            let capture = |threads| match label {
                "pagerank" => captured(&pagerank, &g, threads, spool(label, threads)),
                "sssp" => captured(&sssp, &weighted, threads, spool(label, threads)),
                _ => captured(&Wcc, &g, threads, spool(label, threads)),
            };
            let seq = capture(1);
            let max = seq.max_superstep().unwrap();
            let index: Vec<SegmentInfo> = seq.segment_index().collect();
            for threads in [2, 3, 7] {
                let what = format!("{label} at {threads} threads, spilled: {spill}");
                let par = capture(threads);
                assert_eq!(par.max_superstep(), Some(max), "{what}");
                for s in 0..=max {
                    let (a, b) = (seq.layer(s).unwrap(), par.layer(s).unwrap());
                    assert_eq!(a, b, "{what}: layer {s}");
                }
                let par_index: Vec<SegmentInfo> = par.segment_index().collect();
                assert_eq!(index, par_index, "{what}: segment index");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parallel_layered_queries_match() {
    let g = graph();
    let ariadne_par = Ariadne::with_threads(4);
    let capture = ariadne_par
        .capture(&Wcc, &g, &CaptureSpec::full())
        .unwrap();
    let q = queries::sssp_wcc_no_message_no_change().unwrap();
    let layered = ariadne_par.layered(&g, &capture.store, &q).unwrap();
    let oracle = ariadne_par.centralized(&g, &capture.store, &q).unwrap();
    assert_eq!(
        layered.query_results.sorted("problem"),
        oracle.sorted("problem")
    );
}
