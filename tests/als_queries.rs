//! ALS with custom provenance relations (Queries 7 and 8, Figure 9).

use ariadne::custom::AlsProv;
use ariadne::queries;
use ariadne::session::{Ariadne, RunOptions};
use ariadne_analytics::als::{Als, AlsConfig};
use ariadne_graph::generators::{BipartiteRatings, RatingsConfig};
use ariadne_graph::VertexId;
use ariadne_pql::Value;
use std::sync::Arc;

fn ratings() -> BipartiteRatings {
    BipartiteRatings::generate(&RatingsConfig {
        users: 80,
        items: 20,
        ratings_per_user: 10,
        planted_rank: 3,
        noise: 0.2,
        seed: 33,
    })
}

fn als_for(br: &BipartiteRatings) -> Als {
    let mut cfg = AlsConfig::new(br.users, 4);
    cfg.supersteps = 9;
    Als::new(cfg)
}

#[test]
fn query7_range_check_runs_online() {
    let br = ratings();
    let als = als_for(&br);
    let run = Ariadne::default()
        .online_with(
            &als,
            &br.graph,
            &queries::als_range_check().unwrap(),
            &RunOptions {
                custom: Some(Arc::new(AlsProv)),
                resume: false,
            },
        )
        .unwrap();
    // The generator clamps ratings into 0..5, so the input never fails.
    assert!(run.query_results.sorted("input_failed").is_empty());
    // Early iterations may overshoot; whatever algo_failed contains must
    // reference item/user pairs that actually rated each other.
    for t in run.query_results.sorted("algo_failed") {
        let x = t[0].as_id().unwrap();
        let y = t[1].as_id().unwrap();
        assert!(br.graph.has_edge(VertexId(x), VertexId(y)));
    }
}

#[test]
fn query7_catches_corrupted_input() {
    let br = ratings();
    // Corrupt one user's ratings far beyond the valid range (so the
    // resulting per-edge errors escape [-5, 5] as well).
    let graph = br.graph.map_weights(|s, d, w| {
        if s == VertexId(0) && d.index() >= br.users {
            30.0
        } else {
            w
        }
    });
    let als = als_for(&br);
    let run = Ariadne::default()
        .online_with(
            &als,
            &graph,
            &queries::als_range_check().unwrap(),
            &RunOptions {
                custom: Some(Arc::new(AlsProv)),
                resume: false,
            },
        )
        .unwrap();
    let failures = run.query_results.sorted("input_failed");
    assert!(
        failures.iter().any(|t| t[0] == Value::Id(0) || t[1] == Value::Id(0)),
        "corrupted rating not flagged: {failures:?}"
    );
}

#[test]
fn query8_error_increase_monitoring() {
    let br = ratings();
    let als = als_for(&br);
    let run = Ariadne::default()
        .online_with(
            &als,
            &br.graph,
            &queries::als_error_increase(0.5).unwrap(),
            &RunOptions {
                custom: Some(Arc::new(AlsProv)),
                resume: false,
            },
        )
        .unwrap();
    // The aggregates must exist for every vertex that received features.
    assert!(run.query_results.len("degree") > 0);
    assert!(run.query_results.len("avg_error") > 0);
    // Problem rows, if any, reference valid vertices with increased
    // error e1 > e2 + 0.5.
    for t in run.query_results.sorted("problem") {
        let e1 = t[1].as_f64().unwrap();
        let e2 = t[2].as_f64().unwrap();
        assert!(e1 > e2 + 0.5, "spurious problem row {t:?}");
    }
}

#[test]
fn als_result_unchanged_by_monitoring() {
    let br = ratings();
    let als = als_for(&br);
    let ariadne = Ariadne::default();
    let baseline = ariadne.baseline(&als, &br.graph);
    let online = ariadne
        .online_with(
            &als,
            &br.graph,
            &queries::als_range_check().unwrap(),
            &RunOptions {
                custom: Some(Arc::new(AlsProv)),
                resume: false,
            },
        )
        .unwrap();
    assert_eq!(baseline.values, online.values);
}

#[test]
fn apt_on_als_uses_euclidean_udf() {
    let br = ratings();
    let als = als_for(&br);
    let apt = queries::apt("udf_euclidean", Value::Float(0.05)).unwrap();
    let run = Ariadne::default().online(&als, &br.graph, &apt).unwrap();
    // The paper finds "too few vertices for both safe and unsafe tables":
    // with a tight threshold most feature vectors keep moving, so the
    // tables stay small relative to activations.
    let total = run.metrics.total_activations();
    let safe = run.query_results.len("safe");
    let unsafe_count = run.query_results.len("unsafe");
    assert!(safe + unsafe_count < total / 2, "{safe} + {unsafe_count} vs {total}");
}
