//! ALS quality monitoring (§6.2.1, Queries 7–8): watch a recommender
//! train, check data and predictions stay in range, and spot users whose
//! error is going the wrong way.
//!
//! ```sh
//! cargo run --release --example als_quality
//! ```

use ariadne::custom::AlsProv;
use ariadne::queries;
use ariadne::session::{Ariadne, RunOptions};
use ariadne_analytics::als::{rmse, Als, AlsConfig};
use ariadne_graph::generators::{BipartiteRatings, RatingsConfig};
use ariadne_graph::VertexId;
use std::sync::Arc;

fn main() {
    // A MovieLens-shaped ratings graph: many users, few items, a long
    // tail of item popularity, ratings in 0–5 from a planted low-rank
    // model.
    let ratings = BipartiteRatings::generate(&RatingsConfig {
        users: 600,
        items: 120,
        ratings_per_user: 25,
        planted_rank: 5,
        noise: 0.25,
        seed: 2024,
    });
    println!(
        "ratings graph: {} users, {} items, {} ratings",
        ratings.users,
        ratings.items,
        ratings.num_ratings()
    );

    let mut cfg = AlsConfig::new(ratings.users, 8);
    cfg.supersteps = 11;
    let als = Als::new(cfg);
    let ariadne = Ariadne::default();

    // Train with Query 7 (range check) always on. The AlsProv generator
    // derives prov_error / prov_prediction from the analytic's state —
    // the ALS code itself knows nothing about provenance.
    let als_prov = RunOptions {
        custom: Some(Arc::new(AlsProv)),
        ..RunOptions::default()
    };
    let q7 = queries::als_range_check().unwrap();
    let run = ariadne
        .online_with(&als, &ratings.graph, &q7, &als_prov)
        .unwrap();
    let model_rmse = rmse(&ratings.graph, &run.values, ratings.users);
    println!(
        "trained {} supersteps, rmse {:.3}",
        run.metrics.num_supersteps(),
        model_rmse
    );
    println!(
        "Q7: input_failed={} algo_failed={}",
        run.query_results.len("input_failed"),
        run.query_results.len("algo_failed")
    );

    // Query 8: users/items whose average prediction error *increased*
    // between consecutive iterations — candidates for special handling.
    let q8 = queries::als_error_increase(0.25).unwrap();
    let run = ariadne
        .online_with(&als, &ratings.graph, &q8, &als_prov)
        .unwrap();
    let problems = run.query_results.sorted("problem");
    println!("Q8: {} error-increase events", problems.len());
    for t in problems.iter().take(5) {
        println!(
            "  vertex {}: avg error {:.3} -> {:.3} at superstep {}",
            t[0],
            t[2].as_f64().unwrap_or(f64::NAN),
            t[1].as_f64().unwrap_or(f64::NAN),
            t[3]
        );
    }

    // Now corrupt the input and watch Query 7 light up.
    println!("--- corrupting user 0's ratings to 30.0 ---");
    let corrupted = ratings.graph.map_weights(|s, d, w| {
        if s == VertexId(0) && d.index() >= ratings.users {
            30.0
        } else {
            w
        }
    });
    let run = ariadne
        .online_with(&als, &corrupted, &q7, &als_prov)
        .unwrap();
    let input_failed = run.query_results.sorted("input_failed");
    println!(
        "Q7 now reports {} input failures; first few:",
        input_failed.len()
    );
    for t in input_failed.iter().take(3) {
        println!("  edge {} -> {} at superstep {}", t[0], t[1], t[2]);
    }
}
