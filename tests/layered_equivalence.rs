//! Layered replay vs the centralized oracle (`to_database` + semi-naive
//! evaluation over one big database), for forward *and* backward queries
//! on random graphs — plus the byte accounting of pruned reads. The layered
//! strategy is the paper's scalable offline mode; these tests pin its
//! result sets to the simplest possible reference evaluation.

use ariadne::session::Ariadne;
use ariadne::{queries, run_layered_with, CaptureSpec, CompiledQuery, LayeredConfig};
use ariadne_analytics::{Sssp, Wcc};
use ariadne_graph::generators::erdos_renyi;
use ariadne_graph::{Csr, VertexId};
use ariadne_pql::Value;
use ariadne_provenance::ProvStore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn weighted(g: Csr, seed: u64) -> Csr {
    let mut rng = StdRng::seed_from_u64(seed);
    g.map_weights(|_, _, _| 0.05 + rng.gen::<f64>())
}

fn assert_layered_matches_centralized(
    tag: &str,
    g: &Csr,
    store: &ProvStore,
    query: &CompiledQuery,
) {
    let ariadne = Ariadne::default();
    let layered = ariadne.layered(g, store, query).unwrap();
    let oracle = ariadne.centralized(g, store, query).unwrap();
    for pred in query.query().idbs.keys() {
        assert_eq!(
            layered.query_results.sorted(pred),
            oracle.sorted(pred),
            "{tag}: layered vs centralized disagree on {pred:?}"
        );
    }
}

/// Forward queries: layered replay over captures of SSSP and WCC equals
/// centralized evaluation, across several random graphs.
#[test]
fn forward_layered_matches_centralized_on_random_graphs() {
    for seed in [3u64, 17, 42] {
        let g = weighted(erdos_renyi(70, 220, seed), seed);
        let ariadne = Ariadne::default();
        let capture = ariadne
            .capture(&Sssp::new(VertexId(0)), &g, &CaptureSpec::full())
            .unwrap();
        let apt = queries::apt("udf_diff", Value::Float(0.1)).unwrap();
        assert_layered_matches_centralized("sssp/apt", &g, &capture.store, &apt);
        let q6 = queries::sssp_wcc_no_message_no_change().unwrap();
        assert_layered_matches_centralized("sssp/q6", &g, &capture.store, &q6);

        let wcc_capture = ariadne.capture(&Wcc, &g, &CaptureSpec::full()).unwrap();
        assert_layered_matches_centralized("wcc/q6", &g, &wcc_capture.store, &q6);
    }
}

/// Backward queries: descending layered replay equals centralized
/// evaluation on random graphs, with a target picked from the final
/// layer so the trace spans the whole replay.
#[test]
fn backward_layered_matches_centralized_on_random_graphs() {
    for seed in [5u64, 23] {
        let g = weighted(erdos_renyi(60, 180, seed), seed);
        let ariadne = Ariadne::default();
        let capture = ariadne
            .capture(&Sssp::new(VertexId(0)), &g, &CaptureSpec::full())
            .unwrap();
        let sigma = capture.store.max_superstep().unwrap();
        let target = capture
            .store
            .layer(sigma)
            .unwrap()
            .into_iter()
            .find(|(p, _)| p == "superstep")
            .and_then(|(_, ts)| ts.first().and_then(|t| t[0].as_id()))
            .expect("someone was active in the last superstep");
        let q = queries::backward_lineage(VertexId(target), sigma).unwrap();
        assert_layered_matches_centralized("sssp/backward", &g, &capture.store, &q);
    }
}

/// Predicate pruning is a pure IO optimization: the pruned replay of a
/// full multi-predicate capture skips segments, answers what the
/// centralized oracle does, and reads every stored byte it does not skip.
#[test]
fn pruning_is_result_invariant_and_skips_segments() {
    let g = weighted(erdos_renyi(60, 200, 31), 31);
    let ariadne = Ariadne::default();
    let capture = ariadne
        .capture(&Sssp::new(VertexId(0)), &g, &CaptureSpec::full())
        .unwrap();
    // The apt query references 4 of the 5 captured Table-1 predicates.
    let apt = queries::apt("udf_diff", Value::Float(0.1)).unwrap();
    let pruned = run_layered_with(&g, &capture.store, &apt, &LayeredConfig::default()).unwrap();
    assert!(
        pruned.segments_skipped > 0,
        "full capture must contain segments the apt query never joins"
    );
    let stored: usize = capture.store.segment_index().map(|seg| seg.bytes).sum();
    assert!(pruned.bytes_read < stored);
    assert_eq!(
        pruned.bytes_read + pruned.bytes_skipped,
        stored,
        "pruning partitions the stored byte volume"
    );
    let oracle = ariadne.centralized(&g, &capture.store, &apt).unwrap();
    for pred in apt.query().idbs.keys() {
        assert_eq!(
            pruned.query_results.sorted(pred),
            oracle.sorted(pred),
            "pruned replay vs centralized disagree on {pred:?}"
        );
    }
}
