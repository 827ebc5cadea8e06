//! Graph substrate for the Ariadne reproduction.
//!
//! This crate provides the data layer the paper's Giraph deployment relied
//! on: an immutable compressed-sparse-row (CSR) graph with both out- and
//! in-adjacency, a mutable [`GraphBuilder`], plain-text edge-list IO,
//! synthetic graph [`generators`] that stand in for the paper's web-crawl
//! datasets (indochina-2004, uk-2002, arabic-2005, uk-2005) and the
//! MovieLens-20M ratings bipartite graph, and the [`stats`] used to
//! regenerate Table 2 of the paper.
//!
//! # Example
//!
//! ```
//! use ariadne_graph::{GraphBuilder, VertexId};
//!
//! let mut b = GraphBuilder::new();
//! b.add_edge(VertexId(0), VertexId(1), 1.0);
//! b.add_edge(VertexId(1), VertexId(2), 2.0);
//! let g = b.build();
//! assert_eq!(g.num_vertices(), 3);
//! assert_eq!(g.num_edges(), 2);
//! assert_eq!(g.out_degree(VertexId(1)), 1);
//! ```

pub mod builder;
pub mod csr;
pub mod delta;
pub mod generators;
pub mod io;
pub mod partition;
pub mod stats;
pub mod types;

pub use builder::GraphBuilder;
pub use csr::{Csr, EdgeRef};
pub use delta::{forward_closure, GraphDelta, MutableGraph, MutationReport};
pub use partition::ChunkTable;
pub use types::{Direction, VertexId};
