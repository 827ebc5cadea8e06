//! Seeded randomized validation of the vertex-centric analytics against
//! their sequential oracles, on arbitrary graphs.

use ariadne_analytics::reference::{dijkstra, pagerank_power_iteration};
use ariadne_analytics::{PageRank, Sssp, Wcc};
use ariadne_graph::stats::weakly_connected_components;
use ariadne_graph::{Csr, GraphBuilder, VertexId};
use ariadne_vc::{Engine, EngineConfig};
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

/// 2 to 39 vertices and 1 to 149 edges (self-loops dropped), weights in
/// `[0.01, 5)`.
fn arb_weighted_graph(rng: &mut StdRng) -> Csr {
    let n = rng.gen_range(2..40u64);
    let mut b = GraphBuilder::new();
    b.ensure_vertex(VertexId(n - 1));
    for _ in 0..rng.gen_range(1..150usize) {
        let (s, d, w) = (
            rng.gen_range(0..40u64),
            rng.gen_range(0..40u64),
            rng.gen_range(0.01..5.0),
        );
        let (s, d) = (s % n, d % n);
        if s != d {
            b.add_edge(VertexId(s), VertexId(d), w);
        }
    }
    b.build()
}

#[test]
fn sssp_matches_dijkstra() {
    check("sssp_matches_dijkstra", 0x0a11_0001, 48, |rng| {
        let g = arb_weighted_graph(rng);
        let vc = Engine::new(EngineConfig::sequential()).run(&Sssp::new(VertexId(0)), &g);
        let oracle = dijkstra(&g, VertexId(0));
        for (v, (a, b)) in vc.values.iter().zip(&oracle).enumerate() {
            if a.is_finite() || b.is_finite() {
                assert!((a - b).abs() < 1e-9, "vertex {v}: vc {a} oracle {b}");
            }
        }
    });
}

#[test]
fn wcc_matches_union_find() {
    check("wcc_matches_union_find", 0x0a11_0002, 48, |rng| {
        let g = arb_weighted_graph(rng);
        let vc = Engine::new(EngineConfig::sequential()).run(&Wcc, &g);
        assert_eq!(vc.values, weakly_connected_components(&g));
    });
}

#[test]
fn pagerank_matches_power_iteration() {
    check("pagerank_matches_power_iteration", 0x0a11_0003, 48, |rng| {
        let g = arb_weighted_graph(rng);
        let pr = PageRank {
            supersteps: 15,
            ..Default::default()
        };
        let vc = Engine::new(EngineConfig::sequential()).run(&pr, &g);
        let oracle = pagerank_power_iteration(&g, 0.85, 15);
        for (a, b) in vc.values.iter().zip(&oracle) {
            assert!((a - b).abs() < 1e-9, "vc {a} oracle {b}");
        }
    });
}

#[test]
fn pagerank_total_mass_bounded() {
    check("pagerank_total_mass_bounded", 0x0a11_0004, 48, |rng| {
        // With dangling vertices mass leaks, so total <= n; and ranks
        // stay at least the teleport floor.
        let g = arb_weighted_graph(rng);
        let pr = PageRank {
            supersteps: 20,
            ..Default::default()
        };
        let vc = Engine::new(EngineConfig::sequential()).run(&pr, &g);
        let n = g.num_vertices() as f64;
        let total: f64 = vc.values.iter().sum();
        assert!(total <= n + 1e-6, "total {total} > n {n}");
        for &r in &vc.values {
            assert!(r >= 0.15 - 1e-9 || r == 1.0, "rank {r} below floor");
        }
    });
}
