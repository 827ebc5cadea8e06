//! Synthetic graph generators.
//!
//! The paper evaluates on multi-gigabyte web crawls and MovieLens-20M.
//! Those are substituted here by deterministic synthetic scale models with
//! matched *shape*: heavy-tailed degree distribution for the web crawls
//! (R-MAT), user/item bipartite structure with bounded ratings for
//! MovieLens. See `DESIGN.md` §1 for the substitution rationale.

pub mod bipartite;
pub mod datasets;
pub mod erdos_renyi;
pub mod regular;
pub mod rmat;

pub use bipartite::{BipartiteRatings, RatingsConfig};
pub use datasets::{paper_graph, paper_ratings, Dataset};
pub use erdos_renyi::erdos_renyi;
pub use regular::{complete, cycle, grid, path, star, tree};
pub use rmat::{rmat, RmatConfig};
