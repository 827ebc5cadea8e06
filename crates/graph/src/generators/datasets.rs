//! Scale models of the paper's evaluation datasets (Table 2).
//!
//! | Dataset | \|V\|  | \|E\|  | Avg degree | Avg diameter |
//! |---------|--------|--------|------------|--------------|
//! | IN-04   | 7.4M   | 194M   | 26.17      | 28.12        |
//! | UK-02   | 18.5M  | 298M   | 16.01      | 21.59        |
//! | AR-05   | 22.7M  | 640M   | 28.14      | 22.39        |
//! | UK-05   | 39.5M  | 936M   | 23.73      | 23.19        |
//! | ML-20   | 16.5K* | 20M    | 121        | 1 (bipartite)|
//!
//! (*ML-20 has 138,493 users and 26,744 movies; the paper's 16.5K row
//! reports movies + a feature-count-dependent view.)
//!
//! These graphs don't fit a laptop at full scale. [`paper_graph`] produces
//! an R-MAT model with the same average degree at `1/denominator` of the
//! vertex count; [`paper_ratings`] does the same for the MovieLens
//! bipartite graph. Provenance-overhead *ratios* depend on the per-vertex
//! message/edge volume and superstep count, both preserved under this
//! scaling.

use super::bipartite::{BipartiteRatings, RatingsConfig};
use super::rmat::{rmat, RmatConfig};
use crate::csr::Csr;

/// The paper's five evaluation datasets.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Dataset {
    /// indochina-2004 web crawl.
    In04,
    /// uk-2002 web crawl.
    Uk02,
    /// arabic-2005 web crawl.
    Ar05,
    /// uk-2005 web crawl.
    Uk05,
    /// MovieLens-20M ratings (bipartite; use [`paper_ratings`]).
    Ml20,
}

impl Dataset {
    /// Short name used in the paper's tables and our reports.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::In04 => "IN-04",
            Dataset::Uk02 => "UK-02",
            Dataset::Ar05 => "AR-05",
            Dataset::Uk05 => "UK-05",
            Dataset::Ml20 => "ML-20",
        }
    }

    /// Full-scale vertex count from Table 2.
    pub fn full_vertices(self) -> u64 {
        match self {
            Dataset::In04 => 7_400_000,
            Dataset::Uk02 => 18_500_000,
            Dataset::Ar05 => 22_700_000,
            Dataset::Uk05 => 39_500_000,
            Dataset::Ml20 => 138_493 + 26_744,
        }
    }

    /// Full-scale edge count from Table 2.
    pub fn full_edges(self) -> u64 {
        match self {
            Dataset::In04 => 194_000_000,
            Dataset::Uk02 => 298_000_000,
            Dataset::Ar05 => 640_000_000,
            Dataset::Uk05 => 936_000_000,
            Dataset::Ml20 => 20_000_000,
        }
    }

    /// Average degree from Table 2 (edges per vertex).
    pub fn avg_degree(self) -> f64 {
        match self {
            Dataset::In04 => 26.17,
            Dataset::Uk02 => 16.01,
            Dataset::Ar05 => 28.14,
            Dataset::Uk05 => 23.73,
            Dataset::Ml20 => 121.0,
        }
    }

    /// The four web-crawl datasets (the ones PageRank/SSSP/WCC run on).
    pub fn web_crawls() -> [Dataset; 4] {
        [Dataset::In04, Dataset::Uk02, Dataset::Ar05, Dataset::Uk05]
    }
}

/// Build a scale model of a web-crawl dataset with `1/denominator` of the
/// vertices and a matched average degree. `denominator = 1000` gives graphs
/// in the 7k–40k vertex range — comfortable for tests and benches.
///
/// Panics if called with [`Dataset::Ml20`]; use [`paper_ratings`] for it.
pub fn paper_graph(ds: Dataset, denominator: u64) -> Csr {
    assert!(ds != Dataset::Ml20, "ML-20 is bipartite; use paper_ratings");
    assert!(denominator >= 1);
    let target_v = (ds.full_vertices() / denominator).max(64);
    // R-MAT wants a power of two; round up so the average degree computed
    // against the realized vertex count stays close to the target.
    let scale = (64 - (target_v - 1).leading_zeros()).max(6);
    let edge_factor = ds.avg_degree().round() as usize;
    rmat(RmatConfig {
        scale,
        edge_factor,
        seed: 0x1000 + ds as u64,
        ..Default::default()
    })
}

/// Build a scale model of MovieLens-20M at `1/denominator` scale.
pub fn paper_ratings(denominator: u64) -> BipartiteRatings {
    assert!(denominator >= 1);
    let users = (138_493 / denominator).max(20) as usize;
    let items = (26_744 / denominator).max(5) as usize;
    // 20M ratings over 138k users ≈ 144 ratings/user; keep that density.
    let ratings_per_user = 144usize.min(items * 4);
    BipartiteRatings::generate(&RatingsConfig {
        users,
        items,
        ratings_per_user,
        ..Default::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_table2_constants() {
        assert_eq!(Dataset::In04.name(), "IN-04");
        assert_eq!(Dataset::Uk05.full_vertices(), 39_500_000);
        assert!(Dataset::Ar05.avg_degree() > 28.0);
        assert_eq!(Dataset::web_crawls().len(), 4);
    }

    #[test]
    fn scaled_graph_matches_degree_shape() {
        let g = paper_graph(Dataset::Uk02, 2000);
        let avg = g.num_edges() as f64 / g.num_vertices() as f64;
        // Dedup trims some edges; accept a generous band around 16.
        assert!(avg > 8.0 && avg < 20.0, "avg degree {avg}");
    }

    #[test]
    fn scaled_sizes_ordered_like_paper() {
        // UK-05 model should be the largest, IN-04 the smallest.
        let in04 = paper_graph(Dataset::In04, 2000);
        let uk05 = paper_graph(Dataset::Uk05, 2000);
        assert!(uk05.num_vertices() > in04.num_vertices());
        assert!(uk05.num_edges() > in04.num_edges());
    }

    #[test]
    #[should_panic(expected = "bipartite")]
    fn ml20_rejected_by_paper_graph() {
        let _ = paper_graph(Dataset::Ml20, 1000);
    }

    #[test]
    fn scaled_ratings_shape() {
        let br = paper_ratings(1000);
        assert!(br.users > br.items);
        assert!(br.num_ratings() > 0);
    }
}
