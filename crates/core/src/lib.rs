//! Ariadne: online provenance for big graph analytics.
//!
//! This crate ties the substrates together into the system of the paper:
//!
//! * [`compile`](mod@compile) — turn PQL source + parameters into a [`CompiledQuery`]
//!   ready to run in any evaluation mode its direction permits.
//! * [`online`] — **online evaluation** (§5.2): the compiled query is
//!   appended to an unmodified analytic as a wrapper vertex program;
//!   query tables piggyback on the analytic's own messages; at the end of
//!   the run both the analytic result and the query result exist
//!   (Theorem 5.4 non-interference holds by construction).
//! * [`capture`] — declaratively customized provenance capture (§3, §6.1):
//!   raw Table-1 predicates and/or capture-rule heads are persisted to a
//!   spill-capable [`ariadne_provenance::ProvStore`] through an async
//!   writer.
//! * [`layered`] — **layered offline evaluation** (§5.1): replay the
//!   captured store one layer (superstep) at a time, ascending for
//!   forward queries, descending for backward ones.
//! * [`naive`] — the traditional baseline: materialize the whole
//!   provenance graph and evaluate centrally.
//! * [`queries`] — the paper's Queries 1–12 as ready-made builders.
//! * [`optimize`] — the apt-query-driven approximate-analytic workflow
//!   (Figure 10, Tables 5–6).
//! * [`session`] — the user-facing [`Ariadne`] façade.
//!
//! # Quickstart
//!
//! ```
//! use ariadne::queries;
//! use ariadne::session::Ariadne;
//! use ariadne_analytics::Sssp;
//! use ariadne_graph::{generators::regular::path, VertexId};
//!
//! let graph = path(5);
//! let ariadne = Ariadne::default();
//! // Monitor SSSP online with the paper's Query 6 (no capture needed).
//! let query = queries::sssp_wcc_no_message_no_change().unwrap();
//! let run = ariadne
//!     .online(&Sssp::new(VertexId(0)), &graph, &query)
//!     .unwrap();
//! assert_eq!(run.values, vec![0.0, 1.0, 2.0, 3.0, 4.0]); // analytic untouched
//! assert!(run.query_results.sorted("problem").is_empty()); // invariant holds
//! ```

pub mod capture;
pub mod columns;
pub mod compile;
mod crew;
pub mod custom;
pub mod layered;
pub mod mutable;
pub mod naive;
pub mod online;
pub mod optimize;
pub mod queries;
pub mod report;
pub mod session;
pub mod snap;
pub mod state;

pub use capture::CaptureSpec;
pub use compile::{compile, compile_with, CompiledQuery};
pub use custom::CustomProv;
pub use layered::{run_layered_with, LayeredConfig, LayeredRun};
pub use mutable::MutableSession;
pub use online::{OnlineProgram, OnlineRun, QueryFailure};
pub use report::{RunReport, StoreReport};
pub use session::{Ariadne, AriadneError, RunOptions};

// Fault-tolerance surface: checkpointing, the durability level,
// scrub/repair, typed engine/store errors and the deterministic
// fault-injection harness, re-exported so users drive everything
// through this crate.
pub use ariadne_provenance::{
    compact_spool, scrub_spool, CompactReport, Durability, EpochInfo, EpochStats, ReadBackend,
    ScrubAction, ScrubReport, StoreConfig, StoreError,
};
pub use ariadne_vc::{CheckpointConfig, EngineConfig, EngineError, FaultPlan, Snapshot};

// Mutation surface: delta batches, the mutable-graph overlay, and the
// incremental re-execution contract, re-exported for the same reason.
pub use ariadne_graph::{GraphDelta, MutableGraph, MutationReport};
pub use ariadne_vc::{IncrementalMode, IncrementalRun, Incrementality};
