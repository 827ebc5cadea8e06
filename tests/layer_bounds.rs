//! Layer-bounded replay against the centralized oracle.
//!
//! A layered replay reads only the `(layer, predicate)` extents the
//! query's inferred layer bounds (`AnalyzedQuery::layers`) allow, and
//! runs rounds only for the layers in their hull. That rests on one
//! assumption about captures, pinned first: a row of a predicate with a
//! declared superstep column is stored at the layer that column names.
//! The rest holds the pruned replay to `Ariadne::centralized`, which
//! reads the whole store: every canned query of `queries.rs`, 16
//! stride-sampled backward-lineage roots, and hand-written bounded
//! queries (a forward `i >= $k`, negation, aggregates), at one and two
//! threads.

use ariadne::custom::AlsProv;
use ariadne::session::{Ariadne, RunOptions};
use ariadne::{queries, run_layered_with, CaptureSpec, CompiledQuery, LayeredConfig, LayeredRun};
use ariadne_analytics::als::{Als, AlsConfig};
use ariadne_analytics::{PageRank, Sssp, Wcc};
use ariadne_graph::generators::rmat::{rmat, RmatConfig};
use ariadne_graph::generators::{BipartiteRatings, RatingsConfig};
use ariadne_graph::{Csr, VertexId};
use ariadne_pql::{Catalog, Params, Value};
use ariadne_provenance::ProvStore;
use std::collections::BTreeSet;
use std::sync::Arc;

const THREADS: [usize; 2] = [1, 2];

/// An R-MAT graph and the same graph with seeded weights in (0, 1].
fn graphs() -> (Csr, Csr) {
    let plain = rmat(RmatConfig {
        scale: 6,
        edge_factor: 8,
        seed: 0x1A7E,
        ..RmatConfig::default()
    });
    let mut x = 0x2545_F491_u64;
    let weighted = plain.map_weights(|_, _, _| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        0.001 + (x >> 11) as f64 / (1u64 << 53) as f64
    });
    (plain, weighted)
}

fn pagerank() -> PageRank {
    PageRank {
        supersteps: 6,
        ..PageRank::default()
    }
}

/// Full captures of SSSP, PageRank and WCC at `threads`.
fn captures(threads: usize) -> Vec<(&'static str, Csr, ProvStore)> {
    let (plain, weighted) = graphs();
    let ariadne = Ariadne::with_threads(threads);
    let full = CaptureSpec::full();
    let hub = weighted.max_out_degree_vertex().unwrap();
    let sssp = ariadne
        .capture(&Sssp::new(hub), &weighted, &full)
        .unwrap()
        .store;
    let pr = ariadne.capture(&pagerank(), &plain, &full).unwrap().store;
    let wcc = ariadne.capture(&Wcc, &plain, &full).unwrap().store;
    vec![
        ("sssp", weighted, sssp),
        ("pagerank", plain.clone(), pr),
        ("wcc", plain, wcc),
    ]
}

/// Replay `query` at `threads` and hold every result relation to the
/// centralized oracle; a full-range replay's read and skipped bytes must
/// add up to the store.
fn assert_pruned_matches(
    tag: &str,
    g: &Csr,
    store: &ProvStore,
    query: &CompiledQuery,
    threads: usize,
) -> LayeredRun {
    let run = run_layered_with(g, store, query, &LayeredConfig::parallel(threads)).unwrap();
    let oracle = Ariadne::default().centralized(g, store, query).unwrap();
    for pred in query.query().idbs.keys() {
        assert_eq!(
            run.query_results.sorted(pred),
            oracle.sorted(pred),
            "{tag} at T={threads}: pruned replay and centralized disagree on {pred}"
        );
    }
    let stored: usize = store.segment_index().map(|seg| seg.bytes).sum();
    assert_eq!(
        run.bytes_read + run.bytes_skipped,
        stored,
        "{tag} at T={threads}"
    );
    run
}

/// The assumption every layer bound rests on: a row of a predicate whose
/// catalog schema declares a superstep column holds, in that column, the
/// layer it is stored at.
#[test]
fn stored_rows_hold_their_layer_in_the_declared_column() {
    let catalog = Catalog::standard();
    for threads in THREADS {
        for (name, _, store) in captures(threads) {
            let mut checked = BTreeSet::new();
            for layer in 0..=store.max_superstep().unwrap() {
                for (pred, rows) in store.layer(layer).unwrap() {
                    let Some(col) = catalog.get(&pred).and_then(|schema| schema.superstep) else {
                        continue;
                    };
                    for row in &rows {
                        assert_eq!(
                            row[col],
                            Value::Int(i64::from(layer)),
                            "{name} at T={threads}: {pred} row {row:?} stored at layer {layer}"
                        );
                    }
                    checked.insert(pred);
                }
            }
            for pred in [
                "superstep",
                "value",
                "evolution",
                "send_message",
                "receive_message",
            ] {
                assert!(
                    checked.contains(pred),
                    "{name} at T={threads} stored no {pred}"
                );
            }
        }
    }
}

/// Every canned query, over the captures it is written for.
#[test]
fn canned_queries_match_centralized() {
    let bounded_captures = [
        queries::capture_forward_lineage(VertexId(0)).unwrap(),
        queries::capture_changed_values().unwrap(),
    ];
    for threads in THREADS {
        for (name, g, store) in captures(threads) {
            let sigma = store.max_superstep().unwrap();
            let hub = g.max_out_degree_vertex().unwrap();
            let mut canned = vec![
                ("apt", queries::apt("udf_diff", Value::Float(0.1)).unwrap()),
                ("q4", queries::pagerank_check().unwrap()),
                ("q5", queries::sssp_wcc_value_check().unwrap()),
                ("q6", queries::sssp_wcc_no_message_no_change().unwrap()),
                ("q10", queries::backward_lineage(hub, sigma).unwrap()),
            ];
            // The capture rules of Query 3 and of the changed-value
            // capture, replayed as queries over the full capture.
            for spec in &bounded_captures {
                canned.push(("capture rules", spec.query.clone().unwrap()));
            }
            for (query, q) in &canned {
                assert_pruned_matches(&format!("{name}/{query}"), &g, &store, q, threads);
            }
        }

        // Query 12 over its own custom capture (Query 11).
        let (_, weighted) = graphs();
        let hub = weighted.max_out_degree_vertex().unwrap();
        let ariadne = Ariadne::with_threads(threads);
        let custom = queries::capture_backward_custom().unwrap();
        let store = ariadne
            .capture(&Sssp::new(hub), &weighted, &custom)
            .unwrap()
            .store;
        let sigma = store.max_superstep().unwrap();
        let q12 = queries::backward_lineage_custom(hub, sigma).unwrap();
        assert_pruned_matches("sssp/q12", &weighted, &store, &q12, threads);

        // Queries 7 and 8 over an ALS capture with its custom relations.
        let br = BipartiteRatings::generate(&RatingsConfig {
            users: 40,
            items: 12,
            ratings_per_user: 6,
            planted_rank: 3,
            noise: 0.2,
            seed: 33,
        });
        let mut cfg = AlsConfig::new(br.users, 4);
        cfg.supersteps = 5;
        let options = RunOptions {
            custom: Some(Arc::new(AlsProv)),
            resume: false,
        };
        let store = ariadne
            .capture_with(&Als::new(cfg), &br.graph, &CaptureSpec::full(), &options)
            .unwrap()
            .store;
        for (query, q) in [
            ("q7", queries::als_range_check().unwrap()),
            ("q8", queries::als_error_increase(0.05).unwrap()),
        ] {
            assert_pruned_matches(&format!("als/{query}"), &br.graph, &store, &q, threads);
        }
    }
}

/// Backward lineage from 16 roots spread over every `(vertex, superstep)`
/// a capture activated: the replay runs exactly the rounds `0..=sigma`.
#[test]
fn backward_lineage_roots_match_centralized() {
    for threads in THREADS {
        for (name, g, store) in captures(threads) {
            let mut roots = Vec::new();
            for layer in 0..=store.max_superstep().unwrap() {
                for (pred, rows) in store.layer(layer).unwrap() {
                    if pred == "superstep" {
                        roots.extend(rows.iter().map(|row| (row[0].as_id().unwrap(), layer)));
                    }
                }
            }
            roots.sort_unstable();
            let stride = (roots.len() / 16).max(1);
            for &(alpha, sigma) in roots.iter().step_by(stride).take(16) {
                let q = queries::backward_lineage(VertexId(alpha), sigma).unwrap();
                let tag = format!("{name}/back_lineage(v{alpha}, {sigma})");
                let run = assert_pruned_matches(&tag, &g, &store, &q, threads);
                assert_eq!(run.layers, sigma + 1, "{tag}: rounds 0..=sigma only");
                assert_eq!(
                    run.layer_range,
                    (0, store.max_superstep().unwrap()),
                    "{tag}"
                );
            }
        }
    }
}

/// Queries bounded by hand: a forward `i >= $k`, a forward trace seeded
/// at `$k`, negation, and aggregates. Each aggregate group's rows sit in
/// one layer: a layered replay folds an aggregate layer by layer.
#[test]
fn hand_written_bounded_queries_match_centralized() {
    let sources = [
        "late(x, d, i) :- value(x, d, i), superstep(x, i), i >= $k.",
        "fwd(x, i) :- superstep(x, i), x = $alpha, i = $k.
         fwd(x, i) :- receive_message(x, y, m, i), fwd(y, j), i = j + 1.",
        "heard(x, i) :- receive_message(x, y, m, i), i >= $k.
         unheard(x, i) :- superstep(x, i), i >= $k, !heard(x, i).",
        "fan_in(x, i, count(y)) :- receive_message(x, y, m, i), i <= $k.
         sent(x, i, count(y)) :- send_message(x, y, m, i), i = $k.",
    ];
    for threads in THREADS {
        for (name, g, store) in captures(threads) {
            let max = store.max_superstep().unwrap();
            let k = (max / 2).max(1);
            let params = Params::new()
                .with("k", Value::Int(i64::from(k)))
                .with("alpha", Value::Id(g.max_out_degree_vertex().unwrap().0));
            for src in sources {
                let q = ariadne::compile(src, params.clone()).unwrap();
                let tag = format!("{name}/{}", src.split(" :-").next().unwrap());
                let run = assert_pruned_matches(&tag, &g, &store, &q, threads);
                assert!(run.layers <= max, "{tag}: some layer's round is skipped");
                assert!(run.segments_skipped > 0, "{tag}");
            }
        }
    }
}
