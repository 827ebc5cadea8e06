//! R-MAT recursive-matrix generator (Chakrabarti et al., SDM 2004).
//!
//! R-MAT produces graphs with the heavy-tailed degree distribution typical
//! of web crawls — the same family as the paper's indochina/uk/arabic
//! datasets — which is the property that makes graph-analytic provenance
//! large (hub vertices receive and emit many messages every superstep).

use crate::builder::GraphBuilder;
use crate::csr::Csr;
use crate::types::VertexId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for [`rmat`].
#[derive(Copy, Clone, Debug)]
pub struct RmatConfig {
    /// log2 of the number of vertices.
    pub scale: u32,
    /// Average edges per vertex (|E| = edge_factor * 2^scale).
    pub edge_factor: usize,
    /// Recursive-quadrant probabilities; must sum to ~1.0.
    pub a: f64,
    pub b: f64,
    pub c: f64,
    /// RNG seed for reproducibility.
    pub seed: u64,
}

impl Default for RmatConfig {
    fn default() -> Self {
        // Graph500 reference parameters.
        RmatConfig {
            scale: 10,
            edge_factor: 16,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            seed: 0xA51AD4E,
        }
    }
}

/// Generate an R-MAT graph. Self-loops are dropped and duplicate edges are
/// merged by the builder, so the realized edge count is slightly below
/// `edge_factor * 2^scale`, more so for small scales.
pub fn rmat(cfg: RmatConfig) -> Csr {
    assert!(
        cfg.a + cfg.b + cfg.c <= 1.0 + 1e-9,
        "quadrant probabilities exceed 1"
    );
    let n: u64 = 1 << cfg.scale;
    let m = cfg.edge_factor * n as usize;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut builder = GraphBuilder::with_capacity(n as usize, m);
    builder.ensure_vertex(VertexId(n - 1));

    for _ in 0..m {
        let (mut lo_s, mut hi_s) = (0u64, n);
        let (mut lo_d, mut hi_d) = (0u64, n);
        while hi_s - lo_s > 1 {
            let r: f64 = rng.gen();
            let (src_hi, dst_hi) = if r < cfg.a {
                (false, false)
            } else if r < cfg.a + cfg.b {
                (false, true)
            } else if r < cfg.a + cfg.b + cfg.c {
                (true, false)
            } else {
                (true, true)
            };
            let mid_s = (lo_s + hi_s) / 2;
            let mid_d = (lo_d + hi_d) / 2;
            if src_hi {
                lo_s = mid_s;
            } else {
                hi_s = mid_s;
            }
            if dst_hi {
                lo_d = mid_d;
            } else {
                hi_d = mid_d;
            }
        }
        let (src, dst) = (VertexId(lo_s), VertexId(lo_d));
        if src != dst {
            builder.add_edge(src, dst, 1.0);
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let cfg = RmatConfig {
            scale: 8,
            edge_factor: 8,
            ..Default::default()
        };
        let g1 = rmat(cfg);
        let g2 = rmat(cfg);
        assert_eq!(g1.num_vertices(), g2.num_vertices());
        assert_eq!(g1.num_edges(), g2.num_edges());
        let e1: Vec<_> = g1.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        assert_eq!(e1, e2);
    }

    #[test]
    fn different_seed_differs() {
        let g1 = rmat(RmatConfig {
            scale: 8,
            edge_factor: 8,
            seed: 1,
            ..Default::default()
        });
        let g2 = rmat(RmatConfig {
            scale: 8,
            edge_factor: 8,
            seed: 2,
            ..Default::default()
        });
        let e1: Vec<_> = g1.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        assert_ne!(e1, e2);
    }

    #[test]
    fn expected_size() {
        let g = rmat(RmatConfig {
            scale: 10,
            edge_factor: 16,
            ..Default::default()
        });
        assert_eq!(g.num_vertices(), 1024);
        // Duplicates and self-loops shave some edges off.
        assert!(g.num_edges() > 8 * 1024, "edges = {}", g.num_edges());
        assert!(g.num_edges() <= 16 * 1024);
    }

    #[test]
    fn no_self_loops() {
        let g = rmat(RmatConfig {
            scale: 7,
            edge_factor: 8,
            ..Default::default()
        });
        assert!(g.edges().all(|(s, d, _)| s != d));
    }

    #[test]
    fn skewed_degrees() {
        // With a=0.57 the top vertex should have far more than the average
        // degree — the hallmark of the web-crawl degree distribution.
        let g = rmat(RmatConfig {
            scale: 10,
            edge_factor: 16,
            ..Default::default()
        });
        let avg = g.num_edges() as f64 / g.num_vertices() as f64;
        let max = g.vertices().map(|v| g.out_degree(v)).max().unwrap() as f64;
        assert!(max > 4.0 * avg, "max {max} avg {avg}");
    }
}
