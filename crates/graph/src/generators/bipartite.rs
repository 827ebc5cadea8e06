//! Bipartite user/item ratings graphs — the MovieLens-20M stand-in.
//!
//! The paper's ALS experiments run on MovieLens-20M represented as a
//! bipartite graph: an edge between user `i` and movie `j` with weight `w`
//! means user `i` rated movie `j` with `w` (0–5). We generate a synthetic
//! equivalent with the same structural features: many more users than
//! items, a skewed item popularity distribution, and ratings produced from
//! a planted low-rank model plus noise so ALS actually has signal to fit.

use crate::builder::GraphBuilder;
use crate::csr::Csr;
use crate::types::VertexId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`BipartiteRatings::generate`].
#[derive(Clone, Debug)]
pub struct RatingsConfig {
    /// Number of user vertices (ids `0..users`).
    pub users: usize,
    /// Number of item vertices (ids `users..users+items`).
    pub items: usize,
    /// Average number of ratings per user.
    pub ratings_per_user: usize,
    /// Rank of the planted latent model that generates ratings.
    pub planted_rank: usize,
    /// Gaussian-ish noise amplitude added to planted ratings.
    pub noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RatingsConfig {
    fn default() -> Self {
        RatingsConfig {
            users: 1000,
            items: 200,
            ratings_per_user: 20,
            planted_rank: 5,
            noise: 0.3,
            seed: 0x414C53,
        }
    }
}

/// A generated ratings graph plus its user/item split.
#[derive(Clone, Debug)]
pub struct BipartiteRatings {
    /// Undirected (bidirectional) graph; edge weight = rating in `[0, 5]`.
    pub graph: Csr,
    /// Number of user vertices (`0..users` are users).
    pub users: usize,
    /// Number of item vertices (`users..users+items` are items).
    pub items: usize,
}

impl BipartiteRatings {
    /// Generate a ratings graph from `cfg`.
    ///
    /// Item popularity follows a Zipf-like distribution (item `k` is
    /// sampled with probability ∝ 1/(k+1)), mirroring the long tail of
    /// movie popularity in MovieLens.
    pub fn generate(cfg: &RatingsConfig) -> Self {
        assert!(
            cfg.users > 0 && cfg.items > 0,
            "need at least one user and item"
        );
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        // Planted latent factors in [0, 1]; rating = clamp(5 * <u, v> / r + noise).
        let r = cfg.planted_rank.max(1);
        let ufac: Vec<Vec<f64>> = (0..cfg.users)
            .map(|_| (0..r).map(|_| rng.gen::<f64>()).collect())
            .collect();
        let ifac: Vec<Vec<f64>> = (0..cfg.items)
            .map(|_| (0..r).map(|_| rng.gen::<f64>()).collect())
            .collect();

        // Zipf cumulative weights over items.
        let weights: Vec<f64> = (0..cfg.items).map(|k| 1.0 / (k as f64 + 1.0)).collect();
        let total: f64 = weights.iter().sum();
        let mut cdf = Vec::with_capacity(cfg.items);
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total;
            cdf.push(acc);
        }

        let mut b = GraphBuilder::new();
        b.ensure_vertex(VertexId((cfg.users + cfg.items) as u64 - 1));
        for (u, user_factors) in ufac.iter().enumerate() {
            for _ in 0..cfg.ratings_per_user {
                let x: f64 = rng.gen();
                let item = cdf.partition_point(|&c| c < x).min(cfg.items - 1);
                let dot: f64 = user_factors
                    .iter()
                    .zip(&ifac[item])
                    .map(|(a, b)| a * b)
                    .sum();
                let noise = (rng.gen::<f64>() - 0.5) * 2.0 * cfg.noise;
                let rating = (5.0 * dot / r as f64 + noise).clamp(0.0, 5.0);
                let user_v = VertexId(u as u64);
                let item_v = VertexId((cfg.users + item) as u64);
                b.add_undirected_edge(user_v, item_v, rating);
            }
        }
        BipartiteRatings {
            graph: b.build(),
            users: cfg.users,
            items: cfg.items,
        }
    }

    /// Whether vertex `v` is on the user side.
    #[inline]
    pub fn is_user(&self, v: VertexId) -> bool {
        v.index() < self.users
    }

    /// Total number of distinct ratings (undirected edges).
    pub fn num_ratings(&self) -> usize {
        self.graph.num_edges() / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bipartite_structure() {
        let br = BipartiteRatings::generate(&RatingsConfig {
            users: 50,
            items: 10,
            ratings_per_user: 5,
            ..Default::default()
        });
        assert_eq!(br.graph.num_vertices(), 60);
        // Every edge connects a user to an item.
        for (s, d, _) in br.graph.edges() {
            assert_ne!(br.is_user(s), br.is_user(d), "edge {s}->{d} not bipartite");
        }
    }

    #[test]
    fn ratings_in_range() {
        let br = BipartiteRatings::generate(&RatingsConfig::default());
        for (_, _, w) in br.graph.edges() {
            assert!((0.0..=5.0).contains(&w), "rating {w} outside 0-5");
        }
    }

    #[test]
    fn symmetric_edges() {
        let br = BipartiteRatings::generate(&RatingsConfig {
            users: 30,
            items: 8,
            ratings_per_user: 4,
            ..Default::default()
        });
        for (s, d, w) in br.graph.edges() {
            assert_eq!(br.graph.edge_weight(d, s), Some(w));
        }
    }

    #[test]
    fn popular_items_get_more_ratings() {
        let br = BipartiteRatings::generate(&RatingsConfig {
            users: 500,
            items: 50,
            ratings_per_user: 10,
            ..Default::default()
        });
        let first = br.graph.in_degree(VertexId(br.users as u64));
        let last = br
            .graph
            .in_degree(VertexId((br.users + br.items - 1) as u64));
        assert!(first > last, "zipf head {first} should beat tail {last}");
    }

    #[test]
    fn deterministic() {
        let a = BipartiteRatings::generate(&RatingsConfig::default());
        let b = BipartiteRatings::generate(&RatingsConfig::default());
        assert_eq!(
            a.graph.edges().collect::<Vec<_>>(),
            b.graph.edges().collect::<Vec<_>>()
        );
    }
}
