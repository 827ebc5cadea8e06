//! Graph statistics: degrees, components, approximate effective diameter.
//!
//! These power the Table 2 reproduction (`|V|`, `|E|`, avg degree,
//! avg diameter) and several test oracles.

use crate::csr::Csr;
use crate::types::VertexId;
use std::collections::VecDeque;

/// Summary statistics for a graph, mirroring the columns of Table 2.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStats {
    /// Number of vertices.
    pub vertices: usize,
    /// Number of directed edges.
    pub edges: usize,
    /// Average out-degree.
    pub avg_degree: f64,
    /// Approximate average distance between reachable pairs, estimated by
    /// BFS from sampled sources (treating edges as undirected, as diameter
    /// reports on web crawls conventionally do).
    pub avg_diameter: f64,
}

/// Compute [`GraphStats`] with `samples` BFS sources (deterministic:
/// sources are evenly spaced ids).
pub fn graph_stats(g: &Csr, samples: usize) -> GraphStats {
    let n = g.num_vertices();
    let avg_degree = if n == 0 {
        0.0
    } else {
        g.num_edges() as f64 / n as f64
    };
    GraphStats {
        vertices: n,
        edges: g.num_edges(),
        avg_degree,
        avg_diameter: approx_avg_distance(g, samples),
    }
}

/// Average BFS distance over reachable pairs from `samples` evenly spaced
/// source vertices, following edges in both directions.
pub fn approx_avg_distance(g: &Csr, samples: usize) -> f64 {
    let n = g.num_vertices();
    if n == 0 || samples == 0 {
        return 0.0;
    }
    let step = (n / samples.min(n)).max(1);
    let mut total = 0u64;
    let mut count = 0u64;
    let mut dist = vec![u32::MAX; n];
    for s in (0..n).step_by(step).take(samples) {
        dist.iter_mut().for_each(|d| *d = u32::MAX);
        let mut q = VecDeque::new();
        dist[s] = 0;
        q.push_back(VertexId(s as u64));
        while let Some(v) = q.pop_front() {
            let dv = dist[v.index()];
            for &u in g.out_neighbors(v).iter().chain(g.in_neighbors(v)) {
                if dist[u.index()] == u32::MAX {
                    dist[u.index()] = dv + 1;
                    q.push_back(u);
                }
            }
        }
        for &d in &dist {
            if d != u32::MAX && d > 0 {
                total += d as u64;
                count += 1;
            }
        }
    }
    if count == 0 {
        0.0
    } else {
        total as f64 / count as f64
    }
}

/// Exact single-source BFS distances (hops, directed). `u32::MAX` means
/// unreachable. Used by tests as an oracle for unit-weight SSSP.
pub fn bfs_distances(g: &Csr, source: VertexId) -> Vec<u32> {
    let mut dist = vec![u32::MAX; g.num_vertices()];
    let mut q = VecDeque::new();
    dist[source.index()] = 0;
    q.push_back(source);
    while let Some(v) = q.pop_front() {
        let dv = dist[v.index()];
        for &u in g.out_neighbors(v) {
            if dist[u.index()] == u32::MAX {
                dist[u.index()] = dv + 1;
                q.push_back(u);
            }
        }
    }
    dist
}

/// Weakly connected component labels via union-find: every vertex is
/// labelled with the smallest vertex id in its component, which is exactly
/// the fixpoint the WCC analytic computes — making this the WCC oracle.
pub fn weakly_connected_components(g: &Csr) -> Vec<u64> {
    let n = g.num_vertices();
    let mut parent: Vec<usize> = (0..n).collect();

    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }

    for (s, d, _) in g.edges() {
        let (rs, rd) = (find(&mut parent, s.index()), find(&mut parent, d.index()));
        if rs != rd {
            // Union by smaller root id so the representative is the min id.
            let (lo, hi) = if rs < rd { (rs, rd) } else { (rd, rs) };
            parent[hi] = lo;
        }
    }
    (0..n).map(|v| find(&mut parent, v) as u64).collect()
}

/// Number of distinct weakly connected components.
pub fn num_components(g: &Csr) -> usize {
    let labels = weakly_connected_components(g);
    let mut sorted = labels;
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len()
}

/// Out-degree histogram: `hist[d]` = number of vertices with out-degree `d`.
pub fn degree_histogram(g: &Csr) -> Vec<usize> {
    let max_d = g.vertices().map(|v| g.out_degree(v)).max().unwrap_or(0);
    let mut hist = vec![0usize; max_d + 1];
    for v in g.vertices() {
        hist[g.out_degree(v)] += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::regular::{cycle, grid, path, star};

    #[test]
    fn bfs_on_path() {
        let g = path(5);
        let d = bfs_distances(&g, VertexId(0));
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
        let d2 = bfs_distances(&g, VertexId(4));
        assert_eq!(d2[0], u32::MAX); // path is directed
    }

    #[test]
    fn wcc_labels_are_min_ids() {
        let mut b = crate::GraphBuilder::new();
        b.add_edge(VertexId(1), VertexId(2), 1.0);
        b.add_edge(VertexId(3), VertexId(4), 1.0);
        b.ensure_vertex(VertexId(5));
        let g = b.build();
        let labels = weakly_connected_components(&g);
        assert_eq!(labels, vec![0, 1, 1, 3, 3, 5]);
        assert_eq!(num_components(&g), 4);
    }

    #[test]
    fn wcc_direction_blind() {
        let g = path(4); // directed, but weakly one component
        assert_eq!(num_components(&g), 1);
    }

    #[test]
    fn stats_on_cycle() {
        let g = cycle(6);
        let s = graph_stats(&g, 6);
        assert_eq!(s.vertices, 6);
        assert_eq!(s.edges, 6);
        assert!((s.avg_degree - 1.0).abs() < 1e-9);
        // Undirected view of a 6-cycle: average pair distance is
        // (1+1+2+2+3)/5 = 1.8.
        assert!((s.avg_diameter - 1.8).abs() < 1e-9);
    }

    #[test]
    fn diameter_of_star_is_small() {
        let g = star(10);
        let d = approx_avg_distance(&g, 10);
        assert!(d > 1.0 && d < 2.0, "star avg distance {d}");
    }

    #[test]
    fn degree_histogram_shape() {
        let g = grid(3, 3);
        let h = degree_histogram(&g);
        // 3x3 grid: 4 corners (deg 2), 4 sides (deg 3), 1 center (deg 4).
        assert_eq!(h[2], 4);
        assert_eq!(h[3], 4);
        assert_eq!(h[4], 1);
    }

    #[test]
    fn empty_graph_stats() {
        let g = Csr::empty(0);
        let s = graph_stats(&g, 4);
        assert_eq!(s.vertices, 0);
        assert_eq!(s.avg_degree, 0.0);
        assert_eq!(s.avg_diameter, 0.0);
    }
}
