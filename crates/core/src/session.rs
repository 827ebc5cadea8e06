//! The user-facing Ariadne façade.

use crate::capture::{CaptureRun, CaptureSpec};
use crate::compile::CompiledQuery;
use crate::custom::CustomProv;
use crate::layered::{run_layered_with, LayeredConfig, LayeredRun};
use crate::naive::{run_centralized, run_naive, NaiveRun};
use crate::online::{OnlineConfig, OnlineProgram, OnlineRun, OnlineState, Persist};
use ariadne_graph::Csr;
use ariadne_pql::{Database, Direction, PqlError, Value};
use ariadne_provenance::{ProvEncode, ProvStore, StoreConfig, StoreError, StoreWriter};
use ariadne_vc::{Engine, EngineConfig, EngineError, RunResult, Snapshot, VertexProgram};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Errors from Ariadne's evaluation modes.
#[derive(Debug)]
pub enum AriadneError {
    /// The query's direction class does not permit the requested mode
    /// (e.g. online evaluation of a backward query, §5.2).
    UnsupportedMode {
        /// The requested mode.
        mode: &'static str,
        /// The query's classification.
        direction: Direction,
    },
    /// Naive evaluation exceeded its materialization budget (the paper's
    /// "Naive was not able to scale" outcome).
    NaiveOverflow {
        /// Tuples that would have been materialized.
        tuples: usize,
        /// The configured budget.
        budget: usize,
    },
    /// A language-level error surfaced during evaluation.
    Pql(PqlError),
    /// The provenance store failed (spill IO, corrupt segment, writer
    /// drain timeout, or an injected fault).
    Store(StoreError),
    /// The engine failed during checkpointed execution or resume
    /// (snapshot IO, corrupt snapshot, or an injected crash).
    Engine(EngineError),
    /// An incremental re-execution was requested before any mutation
    /// batch was committed (there is no previous epoch to reuse).
    NoCommittedMutation,
    /// The online query evaluator failed at a vertex (previously a
    /// panic inside the engine's compute hot path).
    Query {
        /// The vertex whose local fixpoint failed.
        vertex: ariadne_graph::VertexId,
        /// The superstep at which it failed.
        superstep: u32,
        /// The underlying PQL error.
        source: PqlError,
    },
}

impl fmt::Display for AriadneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AriadneError::UnsupportedMode { mode, direction } => write!(
                f,
                "{mode} evaluation is not legal for a {direction:?} query"
            ),
            AriadneError::NaiveOverflow { tuples, budget } => write!(
                f,
                "naive evaluation would materialize {tuples} tuples, over the {budget}-tuple budget"
            ),
            AriadneError::Pql(e) => write!(f, "{e}"),
            AriadneError::Store(e) => write!(f, "provenance store failure: {e}"),
            AriadneError::Engine(e) => write!(f, "engine failure: {e}"),
            AriadneError::NoCommittedMutation => write!(
                f,
                "incremental re-execution needs a committed mutation batch; call commit() first"
            ),
            AriadneError::Query {
                vertex,
                superstep,
                source,
            } => write!(
                f,
                "online query evaluation failed at vertex {vertex}, superstep {superstep}: {source}"
            ),
        }
    }
}

impl std::error::Error for AriadneError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AriadneError::Pql(e) => Some(e),
            AriadneError::Store(e) => Some(e),
            AriadneError::Engine(e) => Some(e),
            AriadneError::Query { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<PqlError> for AriadneError {
    fn from(e: PqlError) -> Self {
        AriadneError::Pql(e)
    }
}

impl From<StoreError> for AriadneError {
    fn from(e: StoreError) -> Self {
        AriadneError::Store(e)
    }
}

impl From<EngineError> for AriadneError {
    fn from(e: EngineError) -> Self {
        AriadneError::Engine(e)
    }
}

/// What the engine returns for an analytic wrapped in an
/// [`OnlineProgram`].
type WrappedRun<V> = RunResult<OnlineState<V>>;

/// The Ariadne system handle: engine and store configuration plus the
/// evaluation-mode entry points.
#[derive(Clone, Debug)]
pub struct Ariadne {
    /// BSP engine configuration used for analytic and wrapped runs.
    pub engine: EngineConfig,
    /// Store configuration used by capture runs.
    pub store: StoreConfig,
    /// Materialization budget for naive evaluation (tuples).
    pub naive_budget: Option<usize>,
}

impl Default for Ariadne {
    fn default() -> Self {
        Ariadne {
            engine: EngineConfig::default(),
            store: StoreConfig::in_memory(),
            naive_budget: None,
        }
    }
}

impl Ariadne {
    /// An Ariadne handle with `threads` engine workers.
    pub fn with_threads(threads: usize) -> Self {
        Ariadne {
            engine: EngineConfig::parallel(threads),
            ..Default::default()
        }
    }

    /// Run the bare analytic (the "Giraph" baseline in every figure).
    /// Checkpointing and resuming it are the engine's own
    /// [`Engine::run_checkpointed`] and [`Engine::resume`].
    pub fn baseline<A: VertexProgram>(&self, analytic: &A, graph: &Csr) -> RunResult<A::V> {
        Engine::new(self.engine.clone()).run(analytic, graph)
    }

    /// Online evaluation: run `analytic` and `query` in lockstep (§5.2).
    pub fn online<A>(
        &self,
        analytic: &A,
        graph: &Csr,
        query: &CompiledQuery,
    ) -> Result<OnlineRun<A::V>, AriadneError>
    where
        A: VertexProgram,
        A::V: ProvEncode,
        A::M: ProvEncode,
    {
        self.online_with(analytic, graph, query, None)
    }

    /// Online evaluation with an analytic-specific provenance generator.
    pub fn online_with<A>(
        &self,
        analytic: &A,
        graph: &Csr,
        query: &CompiledQuery,
        custom: Option<Arc<dyn CustomProv<A>>>,
    ) -> Result<OnlineRun<A::V>, AriadneError>
    where
        A: VertexProgram,
        A::V: ProvEncode,
        A::M: ProvEncode,
    {
        self.online_engine(analytic, query, custom, |engine, program| {
            Ok(engine.run(program, graph))
        })
    }

    /// Online evaluation with barrier checkpoints: like
    /// [`Ariadne::online`], but the engine snapshots the wrapped state
    /// (analytic value *and* query partition) per
    /// [`EngineConfig::checkpoint`], so a crashed run can be resumed with
    /// [`Ariadne::resume_online`].
    pub fn online_checkpointed<A>(
        &self,
        analytic: &A,
        graph: &Csr,
        query: &CompiledQuery,
    ) -> Result<OnlineRun<A::V>, AriadneError>
    where
        A: VertexProgram,
        A::V: ProvEncode + Snapshot,
        A::M: ProvEncode + Snapshot,
    {
        self.online_engine(analytic, query, None, |engine, program| {
            engine.run_checkpointed(program, graph)
        })
    }

    /// Resume a crashed [`Ariadne::online_checkpointed`] run from its
    /// latest valid checkpoint. The analytic, graph, query and engine
    /// configuration must be identical to the original run; the result
    /// is then bit-identical to an uninterrupted run.
    pub fn resume_online<A>(
        &self,
        analytic: &A,
        graph: &Csr,
        query: &CompiledQuery,
    ) -> Result<OnlineRun<A::V>, AriadneError>
    where
        A: VertexProgram,
        A::V: ProvEncode + Snapshot,
        A::M: ProvEncode + Snapshot,
    {
        self.online_engine(analytic, query, None, |engine, program| {
            engine.resume(program, graph)
        })
    }

    /// Shared driver for every online variant; `drive` is the engine
    /// call (plain, checkpointed or resuming).
    fn online_engine<A, F>(
        &self,
        analytic: &A,
        query: &CompiledQuery,
        custom: Option<Arc<dyn CustomProv<A>>>,
        drive: F,
    ) -> Result<OnlineRun<A::V>, AriadneError>
    where
        A: VertexProgram,
        A::V: ProvEncode,
        A::M: ProvEncode,
        F: FnOnce(&Engine, &OnlineProgram<'_, A>) -> Result<WrappedRun<A::V>, EngineError>,
    {
        if !query.direction().supports_online() {
            return Err(AriadneError::UnsupportedMode {
                mode: "online",
                direction: query.direction(),
            });
        }
        let analyzed = query.query();
        let config = OnlineConfig {
            evaluator: Some(query.evaluator().clone()),
            needed: Arc::new(analyzed.edbs.clone()),
            shipped: Arc::new(analyzed.shipped.clone()),
            persist: None,
            custom,
        };
        let program = OnlineProgram::new(analytic, config);
        let result = drive(&Engine::new(self.engine.clone()), &program)?;
        check_query_failure(&program)?;
        Ok(finish_online(result, &analyzed.idbs, program.query_stats()))
    }

    /// Capture provenance per `spec` while running the analytic (§6.1).
    pub fn capture<A>(
        &self,
        analytic: &A,
        graph: &Csr,
        spec: &CaptureSpec,
    ) -> Result<CaptureRun<A::V>, AriadneError>
    where
        A: VertexProgram,
        A::V: ProvEncode,
        A::M: ProvEncode,
    {
        self.capture_with(analytic, graph, spec, None)
    }

    /// Capture with an analytic-specific provenance generator.
    pub fn capture_with<A>(
        &self,
        analytic: &A,
        graph: &Csr,
        spec: &CaptureSpec,
        custom: Option<Arc<dyn CustomProv<A>>>,
    ) -> Result<CaptureRun<A::V>, AriadneError>
    where
        A: VertexProgram,
        A::V: ProvEncode,
        A::M: ProvEncode,
    {
        self.capture_engine(
            analytic,
            spec,
            custom,
            StoreWriter::spawn,
            |engine, program| Ok(engine.run(program, graph)),
        )
    }

    /// Capture with barrier checkpoints: like [`Ariadne::capture`], but
    /// the engine snapshots the wrapped state per
    /// [`EngineConfig::checkpoint`] and the store spools to disk, so a
    /// crashed capture can be resumed with [`Ariadne::resume_capture`].
    pub fn capture_checkpointed<A>(
        &self,
        analytic: &A,
        graph: &Csr,
        spec: &CaptureSpec,
    ) -> Result<CaptureRun<A::V>, AriadneError>
    where
        A: VertexProgram,
        A::V: ProvEncode + Snapshot,
        A::M: ProvEncode + Snapshot,
    {
        self.capture_engine(
            analytic,
            spec,
            None,
            StoreWriter::spawn,
            |engine, program| engine.run_checkpointed(program, graph),
        )
    }

    /// Resume a crashed [`Ariadne::capture_checkpointed`] run: the engine
    /// restarts from its latest valid snapshot, and the store writer
    /// re-attaches the spill segments already persisted by the crashed
    /// run (re-ingestion of already-sealed layers is an idempotent
    /// no-op), so the recovered store equals an uninterrupted capture.
    pub fn resume_capture<A>(
        &self,
        analytic: &A,
        graph: &Csr,
        spec: &CaptureSpec,
    ) -> Result<CaptureRun<A::V>, AriadneError>
    where
        A: VertexProgram,
        A::V: ProvEncode + Snapshot,
        A::M: ProvEncode + Snapshot,
    {
        self.capture_engine(
            analytic,
            spec,
            None,
            StoreWriter::spawn_resuming,
            |engine, program| engine.resume(program, graph),
        )
    }

    /// Shared driver for every capture variant; `spawn_writer` opens the
    /// store (fresh, or re-attached to a crashed run's spool) and `drive`
    /// is the engine call (plain, checkpointed or resuming).
    fn capture_engine<A, F>(
        &self,
        analytic: &A,
        spec: &CaptureSpec,
        custom: Option<Arc<dyn CustomProv<A>>>,
        spawn_writer: fn(StoreConfig) -> StoreWriter,
        drive: F,
    ) -> Result<CaptureRun<A::V>, AriadneError>
    where
        A: VertexProgram,
        A::V: ProvEncode,
        A::M: ProvEncode,
        F: FnOnce(&Engine, &OnlineProgram<'_, A>) -> Result<WrappedRun<A::V>, EngineError>,
    {
        if !spec.supports_online() {
            let direction = spec
                .query
                .as_ref()
                .map(|q| q.direction())
                .unwrap_or(Direction::Local);
            return Err(AriadneError::UnsupportedMode {
                mode: "capture",
                direction,
            });
        }
        let writer = spawn_writer(self.store.clone());
        let persist = Persist {
            sender: writer.sender(),
            preds: Arc::new(spec.persist_preds()),
        };
        let shipped: BTreeSet<String> = spec
            .query
            .as_ref()
            .map(|q| q.query().shipped.clone())
            .unwrap_or_default();
        let config = OnlineConfig {
            evaluator: spec.query.as_ref().map(|q| q.evaluator().clone()),
            needed: Arc::new(spec.needed()),
            shipped: Arc::new(shipped),
            persist: Some(persist),
            custom,
        };
        let program = OnlineProgram::new(analytic, config);
        let result = drive(&Engine::new(self.engine.clone()), &program);
        // Rows of a superstep the run ended in, then the writer: drained
        // before deciding the outcome so its thread never leaks; an
        // engine or query failure takes precedence over store state.
        program.flush();
        let store = writer.finish();
        let result = result?;
        check_query_failure(&program)?;
        let store = store.map_err(AriadneError::Store)?;
        Ok(CaptureRun {
            values: result.values.into_iter().map(|s| s.value).collect(),
            store,
            metrics: result.metrics,
            query_stats: program.query_stats(),
        })
    }

    /// Layered offline evaluation over a captured store (§5.1): parallel
    /// chunked replay with predicate-filtered layer reads, using the
    /// engine's thread count. Results are bit-identical at every thread
    /// count. [`run_layered_with`] takes an explicit [`LayeredConfig`].
    pub fn layered(
        &self,
        graph: &Csr,
        store: &ProvStore,
        query: &CompiledQuery,
    ) -> Result<LayeredRun, AriadneError> {
        run_layered_with(graph, store, query, &LayeredConfig::parallel(self.engine.threads))
    }

    /// Naive offline evaluation: materialize the whole provenance graph
    /// and iterate the query vertex program over all of it (§6.2's
    /// *Naive* series).
    pub fn naive(
        &self,
        graph: &Csr,
        store: &ProvStore,
        query: &CompiledQuery,
    ) -> Result<NaiveRun, AriadneError> {
        run_naive(graph, store, query, self.naive_budget)
    }

    /// Centralized semi-naive evaluation over one big database: the
    /// correctness oracle for the other modes (not a paper mode).
    pub fn centralized(
        &self,
        graph: &Csr,
        store: &ProvStore,
        query: &CompiledQuery,
    ) -> Result<Database, AriadneError> {
        run_centralized(graph, store, query)
    }
}

/// Surface a query failure recorded inside the wrapped program as a
/// typed error (it used to panic the engine worker).
fn check_query_failure<A: VertexProgram>(program: &OnlineProgram<'_, A>) -> Result<(), AriadneError> {
    match program.take_failure() {
        Some(f) => Err(AriadneError::Query {
            vertex: f.vertex,
            superstep: f.superstep,
            source: f.source,
        }),
        None => Ok(()),
    }
}

/// Split an online engine result into analytic values and the merged
/// query result tables (IDB relations only; transient EDB partitions are
/// working state, not results). Only the tuples located at each vertex
/// are merged: evaluation pins every head's location to the evaluating
/// vertex, so any other IDB tuple a partition holds is a replica of one
/// its owner holds.
fn finish_online<V>(
    result: WrappedRun<V>,
    idbs: &std::collections::BTreeMap<String, usize>,
    query_stats: ariadne_pql::EvalStats,
) -> OnlineRun<V> {
    let mut merged = Database::new();
    let mut values = Vec::with_capacity(result.values.len());
    for (vertex, state) in result.values.into_iter().enumerate() {
        values.push(state.value);
        let own = Value::Id(vertex as u64);
        // The per-vertex partitions end here: move their own tuples.
        for (name, rel) in state.q.db.into_relations() {
            if idbs.contains_key(&name) && !rel.is_empty() {
                let into = merged.relation_mut(&name, rel.arity());
                for t in rel.into_tuples() {
                    if t.first() == Some(&own) {
                        into.insert(t);
                    }
                }
            }
        }
    }
    OnlineRun {
        values,
        query_results: merged,
        metrics: result.metrics,
        query_stats,
    }
}
