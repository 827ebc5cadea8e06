//! Seeded randomized tests for graph construction and statistics.

use ariadne_graph::stats::{bfs_distances, weakly_connected_components};
use ariadne_graph::{GraphBuilder, VertexId};
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

/// Up to 199 edges over ids `0..50`, weights in `[0, 10)`; repeats and
/// self-loops included.
fn arb_edges(rng: &mut StdRng) -> Vec<(u64, u64, f64)> {
    let len = rng.gen_range(0..200usize);
    (0..len)
        .map(|_| {
            (
                rng.gen_range(0..50u64),
                rng.gen_range(0..50u64),
                rng.gen_range(0.0..10.0),
            )
        })
        .collect()
}

/// CSR invariants: degrees sum to edge count, adjacency sorted and
/// deduplicated, in/out views consistent.
#[test]
fn csr_invariants() {
    check("csr_invariants", 0x6a70_0001, 64, |rng| {
        let mut b = GraphBuilder::new();
        for (s, d, w) in arb_edges(rng) {
            b.add_edge(VertexId(s), VertexId(d), w);
        }
        let g = b.build();
        let out_sum: usize = g.vertices().map(|v| g.out_degree(v)).sum();
        let in_sum: usize = g.vertices().map(|v| g.in_degree(v)).sum();
        assert_eq!(out_sum, g.num_edges());
        assert_eq!(in_sum, g.num_edges());
        for v in g.vertices() {
            let ns = g.out_neighbors(v);
            assert!(ns.windows(2).all(|w| w[0] < w[1]), "unsorted/dup adjacency");
            for &n in ns {
                assert!(g.has_edge(v, n));
                assert!(g.in_neighbors(n).contains(&v));
            }
        }
    });
}

/// Every edge inserted is retrievable with the *last* weight given.
#[test]
fn last_weight_wins() {
    check("last_weight_wins", 0x6a70_0002, 64, |rng| {
        let edges = arb_edges(rng);
        let mut b = GraphBuilder::new();
        for &(s, d, w) in &edges {
            b.add_edge(VertexId(s), VertexId(d), w);
        }
        let g = b.build();
        let mut expect = std::collections::HashMap::new();
        for &(s, d, w) in &edges {
            expect.insert((s, d), w);
        }
        for ((s, d), w) in expect {
            assert_eq!(g.edge_weight(VertexId(s), VertexId(d)), Some(w));
        }
    });
}

/// BFS distances satisfy the triangle property along edges.
#[test]
fn bfs_relaxed() {
    check("bfs_relaxed", 0x6a70_0003, 64, |rng| {
        let mut b = GraphBuilder::new();
        b.ensure_vertex(VertexId(0));
        for (s, d, _) in arb_edges(rng) {
            b.add_edge(VertexId(s), VertexId(d), 1.0);
        }
        let g = b.build();
        let dist = bfs_distances(&g, VertexId(0));
        for (s, d, _) in g.edges() {
            let (ds, dd) = (dist[s.index()], dist[d.index()]);
            if ds != u32::MAX {
                assert!(dd <= ds + 1, "edge {s}->{d}: {ds} then {dd}");
            }
        }
    });
}

/// WCC labels are component minima: every vertex's label is <= its
/// own id and equal to its neighbours' labels.
#[test]
fn wcc_labels_consistent() {
    check("wcc_labels_consistent", 0x6a70_0004, 64, |rng| {
        let mut b = GraphBuilder::new();
        for (s, d, _) in arb_edges(rng) {
            b.add_edge(VertexId(s), VertexId(d), 1.0);
        }
        let g = b.build();
        let labels = weakly_connected_components(&g);
        for v in g.vertices() {
            assert!(labels[v.index()] <= v.0);
        }
        for (s, d, _) in g.edges() {
            assert_eq!(labels[s.index()], labels[d.index()]);
        }
    });
}
