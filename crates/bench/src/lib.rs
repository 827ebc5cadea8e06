//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation section (§6) on the synthetic scale-model datasets.
//!
//! Each `table*`/`fig*` function runs the same workloads, queries and
//! evaluation modes as the corresponding paper experiment and returns
//! structured rows; `src/bin/experiments.rs` prints them as tables.
//!
//! Absolute numbers differ from the paper's Giraph cluster, but the
//! *shape* — who wins, by roughly what factor, where modes fall over —
//! is the reproduction target (see `EXPERIMENTS.md`).

pub mod config;
pub mod figures;
pub mod report;
pub mod tables;
pub mod workloads;

pub use config::ExperimentConfig;
pub use workloads::Workloads;
