//! A vertex-centric BSP graph processing engine — the Giraph stand-in.
//!
//! The engine implements the Pregel/Giraph execution model the paper
//! builds on (§2.1):
//!
//! * computation proceeds in **supersteps** separated by global barriers;
//! * every vertex runs the same **vertex program** ([`VertexProgram`]);
//! * messages sent in superstep `i` are visible to their destinations at
//!   superstep `i + 1`;
//! * a vertex computes only if it received messages (all vertices compute
//!   at superstep 0), unless the program declares itself
//!   [`VertexProgram::always_active`];
//! * the run terminates when no messages are in flight, when the program's
//!   halt condition fires, or at a superstep cap.
//!
//! Parallel execution splits vertices into contiguous chunks with a
//! deterministic two-phase superstep (compute, then per-destination-chunk
//! delivery): N-thread runs equal 1-thread runs exactly. The message
//! plane balances chunks by **out-degree weight** (so R-MAT hubs at low
//! ids do not serialize one worker), combines messages **sender-side**
//! for exact combiners, and moves messages through recycled flat buffers
//! — all without giving up bit-identical determinism at every thread
//! count. Determinism and provenance-faithful message identity remain
//! prioritized over peak scalability.
//!
//! Crucially for Ariadne, the engine is **never modified** for provenance:
//! the [`Context`] trait lets a wrapper program interpose on message sends
//! and piggyback provenance payloads, exactly as the paper's Figure 2
//! appends the query vertex program to the analytic.
//!
//! # Example
//!
//! ```
//! use ariadne_graph::{generators::regular::path, VertexId};
//! use ariadne_vc::{Context, Engine, EngineConfig, Envelope, VertexProgram};
//!
//! /// Propagate the maximum vertex id through the graph.
//! struct MaxId;
//! impl VertexProgram for MaxId {
//!     type V = u64;
//!     type M = u64;
//!     fn init(&self, v: VertexId, _: &ariadne_graph::Csr) -> u64 { v.0 }
//!     fn compute(
//!         &self,
//!         ctx: &mut dyn Context<u64>,
//!         value: &mut u64,
//!         messages: &[Envelope<u64>],
//!     ) {
//!         let incoming = messages.iter().map(|e| e.msg).max();
//!         let new = incoming.map_or(*value, |m| m.max(*value));
//!         if new > *value || ctx.superstep() == 0 {
//!             *value = new;
//!             ctx.send_to_out_neighbors(new);
//!         }
//!     }
//! }
//!
//! let g = path(4);
//! let result = Engine::new(EngineConfig::default()).run(&MaxId, &g);
//! assert_eq!(result.values, vec![0, 1, 2, 3]); // directed path: max flows forward
//! ```

pub mod aggregate;
pub mod checkpoint;
pub mod context;
pub mod engine;
pub mod fault;
pub mod incremental;
pub mod message;
pub mod metrics;
pub mod program;

pub use aggregate::{AggOp, AggValue, Aggregates};
pub use checkpoint::{
    fsync_dir, write_versioned_durable, CheckpointConfig, EngineCheckpoint, EngineError, SnapError,
    Snapshot, SNAPSHOT_VERSION,
};
pub use context::Context;
pub use engine::{Engine, EngineConfig, Inbox, RunResult};
pub use fault::FaultPlan;
pub use incremental::{IncrementalMode, IncrementalRun};
pub use message::{Combiner, Envelope, MaxCombiner, MinCombiner, SumCombiner};
pub use metrics::{PhaseTimes, RunMetrics, SuperstepMetrics};
pub use program::{Incrementality, VertexProgram};
