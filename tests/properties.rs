//! Seeded randomized tests over random graphs and thresholds: the
//! paper's theorems and invariants must hold on arbitrary inputs, not
//! just the handpicked ones.

use ariadne::session::Ariadne;
use ariadne::{queries, CaptureSpec};
use ariadne_analytics::{Sssp, Wcc};
use ariadne_graph::stats::weakly_connected_components;
use ariadne_graph::{Csr, GraphBuilder, VertexId};
use ariadne_pql::Value;
use ariadne_provenance::UnfoldedGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Run `property` on `cases` generators, case `k` seeded with `seed ^ k`;
/// a failing case panics with its test name, index and seed.
fn check(name: &str, seed: u64, cases: u64, property: impl Fn(&mut StdRng)) {
    for case in 0..cases {
        let seed = seed ^ case;
        let run = || property(&mut StdRng::seed_from_u64(seed));
        if catch_unwind(AssertUnwindSafe(run)).is_err() {
            panic!("{name} failed at case {case} (seed {seed:#x})");
        }
    }
}

/// A random directed graph on 2 to `n - 1` vertices with fewer than `m`
/// edges (self-loops dropped), weights in `[0.01, 1)`.
fn arb_graph(rng: &mut StdRng, n: u64, m: usize) -> Csr {
    let nv = rng.gen_range(2..n);
    let mut b = GraphBuilder::new();
    b.ensure_vertex(VertexId(nv - 1));
    for _ in 0..rng.gen_range(1..m) {
        let (s, d, w) = (
            rng.gen_range(0..n),
            rng.gen_range(0..n),
            rng.gen_range(0.01..1.0),
        );
        let (s, d) = (s % nv, d % nv);
        if s != d {
            b.add_edge(VertexId(s), VertexId(d), w);
        }
    }
    b.build()
}

/// Theorem 5.4 (analytic half): monitoring queries never disturb the
/// analytic, on arbitrary graphs.
#[test]
fn online_never_disturbs_sssp() {
    check("online_never_disturbs_sssp", 0x5eed_0001, 24, |rng| {
        let g = arb_graph(rng, 40, 120);
        let ariadne = Ariadne::default();
        let analytic = Sssp::new(VertexId(0));
        let baseline = ariadne.baseline(&analytic, &g);
        let q = queries::sssp_wcc_value_check().unwrap();
        let online = ariadne.online(&analytic, &g, &q).unwrap();
        assert_eq!(baseline.values, online.values);
        // And correct SSSP never violates monotonicity.
        assert!(online.query_results.sorted("check_failed").is_empty());
    });
}

/// Theorem 5.4 (query half): online ≡ naive offline for the apt query on
/// WCC, on arbitrary graphs and thresholds.
#[test]
fn online_equals_offline_apt_wcc() {
    check("online_equals_offline_apt_wcc", 0x5eed_0002, 24, |rng| {
        let g = arb_graph(rng, 30, 80);
        let eps = rng.gen_range(0..4i64);
        let ariadne = Ariadne::default();
        let apt = queries::apt("udf_diff", Value::Int(eps)).unwrap();
        let online = ariadne.online(&Wcc, &g, &apt).unwrap();
        let capture = ariadne.capture(&Wcc, &g, &CaptureSpec::full()).unwrap();
        let naive = ariadne.naive(&g, &capture.store, &apt).unwrap();
        for pred in ["change", "neighbor_change", "no_execute", "safe", "unsafe"] {
            assert_eq!(
                online.query_results.sorted(pred),
                naive.database.sorted(pred),
                "{pred} differs"
            );
        }
    });
}

/// Layered ≡ naive for backward lineage on arbitrary graphs.
#[test]
fn layered_equals_naive_backward() {
    check("layered_equals_naive_backward", 0x5eed_0003, 24, |rng| {
        let g = arb_graph(rng, 25, 60);
        let ariadne = Ariadne::default();
        let capture = ariadne.capture(&Wcc, &g, &CaptureSpec::full()).unwrap();
        let Some(sigma) = capture.store.max_superstep() else {
            return;
        };
        let Some(target) = capture
            .store
            .layer(sigma)
            .unwrap()
            .into_iter()
            .find(|(p, _)| p == "superstep")
            .and_then(|(_, ts)| ts.first().and_then(|t| t[0].as_id()))
        else {
            return;
        };
        let q = queries::backward_lineage(VertexId(target), sigma).unwrap();
        let layered = ariadne.layered(&g, &capture.store, &q).unwrap();
        let naive = ariadne.naive(&g, &capture.store, &q).unwrap();
        for pred in ["back_trace", "back_lineage"] {
            assert_eq!(
                layered.query_results.sorted(pred),
                naive.database.sorted(pred),
                "{pred} differs"
            );
        }
    });
}

/// The provenance layer decomposition is a partition with layer(x,i)
/// = i, and the WCC fixpoint matches the union-find oracle.
#[test]
fn layers_partition_and_wcc_correct() {
    check("layers_partition_and_wcc_correct", 0x5eed_0004, 24, |rng| {
        let g = arb_graph(rng, 30, 80);
        let ariadne = Ariadne::default();
        let run = ariadne.capture(&Wcc, &g, &CaptureSpec::full()).unwrap();
        assert_eq!(run.values, weakly_connected_components(&g));
        let db = run.store.to_database().unwrap();
        let unfolded = UnfoldedGraph::from_database(&db);
        let layers = unfolded.layers().expect("acyclic");
        assert!(layers.is_partition());
        for &(x, i) in unfolded.nodes() {
            assert_eq!(layers.layer_of((x, i)), Some(i as usize));
        }
    });
}

/// Capture customization is monotone: capturing fewer predicates never
/// yields more bytes.
#[test]
fn capture_monotone() {
    check("capture_monotone", 0x5eed_0005, 24, |rng| {
        let g = arb_graph(rng, 30, 80);
        let ariadne = Ariadne::default();
        let full = ariadne.capture(&Wcc, &g, &CaptureSpec::full()).unwrap();
        let partial = ariadne
            .capture(&Wcc, &g, &CaptureSpec::raw(["value", "superstep"]))
            .unwrap();
        assert!(partial.store.byte_size() <= full.store.byte_size());
        let tiny = ariadne
            .capture(&Wcc, &g, &CaptureSpec::raw(["superstep"]))
            .unwrap();
        assert!(tiny.store.byte_size() <= partial.store.byte_size());
    });
}
