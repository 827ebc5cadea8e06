//! The user-facing Ariadne façade.

use crate::capture::{CaptureRun, CaptureSpec};
use crate::compile::CompiledQuery;
use crate::custom::CustomProv;
use crate::layered::{run_layered_with, LayeredConfig, LayeredRun};
use crate::naive::{run_centralized, run_naive, NaiveRun};
use crate::online::{OnlineConfig, OnlineProgram, OnlineRun, OnlineState, Persist};
use ariadne_graph::{Csr, VertexId};
use ariadne_pql::{Database, Direction, EvalStats, PqlError};
use ariadne_provenance::{ProvEncode, ProvStore, StoreConfig, StoreError, StoreWriter};
use ariadne_vc::{Engine, EngineConfig, EngineError, RunResult, Snapshot, VertexProgram};
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

/// What the wrapped-run driver hands back: the engine's result, the query
/// counters and, for a capture, the store its writer drained into.
type Wrapped<V> = (WrappedRun<V>, EvalStats, Option<ProvStore>);

/// How [`Ariadne::online_with`] and [`Ariadne::capture_with`] run.
pub struct RunOptions<A: VertexProgram> {
    /// An analytic-specific provenance generator whose relations join the
    /// generated ones.
    pub custom: Option<Arc<dyn CustomProv<A>>>,
    /// Continue a crashed run from the newest valid snapshot under
    /// [`EngineConfig::checkpoint`] instead of starting fresh; a capture
    /// also re-attaches the spool the crashed run left. With the
    /// analytic, graph, query or spec, options and configuration of the
    /// original run, the result is the uninterrupted run's.
    pub resume: bool,
}

impl<A: VertexProgram> Default for RunOptions<A> {
    fn default() -> Self {
        RunOptions {
            custom: None,
            resume: false,
        }
    }
}

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

    /// Online evaluation: run `analytic` and `query` in lockstep (§5.2)
    /// on the engine's infallible path, which never checkpoints.
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
        let config = online_config(query, None)?;
        let (result, stats, _) = self.run_wrapped(analytic, config, None, |engine, program| {
            Ok(engine.run(program, graph))
        })?;
        Ok(finish_online(result, &query.query().idbs, stats))
    }

    /// [`Ariadne::online`] under `options`, on the engine's fallible path:
    /// the engine snapshots the wrapped state (analytic value *and* query
    /// partition) exactly when [`EngineConfig::checkpoint`] is set and
    /// honours [`EngineConfig::fault`], and `options.resume` continues a
    /// crashed run from its newest valid snapshot.
    pub fn online_with<A>(
        &self,
        analytic: &A,
        graph: &Csr,
        query: &CompiledQuery,
        options: &RunOptions<A>,
    ) -> Result<OnlineRun<A::V>, AriadneError>
    where
        A: VertexProgram,
        A::V: ProvEncode + Snapshot,
        A::M: ProvEncode + Snapshot,
    {
        let config = online_config(query, options.custom.clone())?;
        let (result, stats, _) = self.run_wrapped(analytic, config, None, |engine, program| {
            checkpointed(engine, program, graph, options.resume)
        })?;
        Ok(finish_online(result, &query.query().idbs, stats))
    }

    /// Capture provenance per `spec` while running the analytic (§6.1),
    /// on the engine's infallible path, which never checkpoints.
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
        let (config, writer) = self.capture_setup(spec, &RunOptions::default(), false)?;
        let (result, stats, store) =
            self.run_wrapped(analytic, config, Some(writer), |engine, program| {
                Ok(engine.run(program, graph))
            })?;
        Ok(finish_capture(result, stats, store))
    }

    /// [`Ariadne::capture`] under `options`, on the engine's fallible path
    /// (see [`Ariadne::online_with`]). When the engine checkpoints, each
    /// barrier waits until the store writer has spilled every row it
    /// holds, so a resume re-attaches every layer the snapshot skips,
    /// whole, from [`StoreConfig::spool_dir`], and the recovered store
    /// equals the uninterrupted capture. A resume without a spool
    /// directory is refused before the engine starts.
    pub fn capture_with<A>(
        &self,
        analytic: &A,
        graph: &Csr,
        spec: &CaptureSpec,
        options: &RunOptions<A>,
    ) -> Result<CaptureRun<A::V>, AriadneError>
    where
        A: VertexProgram,
        A::V: ProvEncode + Snapshot,
        A::M: ProvEncode + Snapshot,
    {
        let (config, writer) =
            self.capture_setup(spec, options, self.engine.checkpoint.is_some())?;
        let (result, stats, store) =
            self.run_wrapped(analytic, config, Some(writer), |engine, program| {
                checkpointed(engine, program, graph, options.resume)
            })?;
        Ok(finish_capture(result, stats, store))
    }

    /// A capture per `spec`: the wrapper configuration and the writer it
    /// persists through (syncing it at every barrier when `sync`), over a
    /// fresh store or re-attached to the spool a crashed run left. Refused
    /// for a capture query that cannot run online, and for a resume with
    /// no spool to resume from.
    fn capture_setup<A: VertexProgram>(
        &self,
        spec: &CaptureSpec,
        options: &RunOptions<A>,
        sync: bool,
    ) -> Result<(OnlineConfig<A>, StoreWriter), AriadneError> {
        let query = spec.query.as_ref();
        if !spec.supports_online() {
            return Err(AriadneError::UnsupportedMode {
                mode: "capture",
                direction: query.map_or(Direction::Local, |q| q.direction()),
            });
        }
        let writer = match (options.resume, &self.store.spool_dir) {
            (false, _) => StoreWriter::spawn(self.store.clone()),
            (true, Some(_)) => StoreWriter::spawn_resuming(self.store.clone()),
            (true, None) => {
                return Err(AriadneError::Store(StoreError::Io {
                    path: "<no spool>".into(),
                    source: std::io::Error::new(
                        std::io::ErrorKind::InvalidInput,
                        "a capture resumes from its spool; StoreConfig::spool_dir is unset",
                    ),
                }))
            }
        };
        let config = OnlineConfig {
            evaluator: query.map(|q| q.evaluator().clone()),
            needed: Arc::new(spec.needed()),
            shipped: Arc::new(query.map(|q| q.query().shipped.clone()).unwrap_or_default()),
            persist: Some(Persist {
                sender: writer.sender(),
                preds: Arc::new(spec.persist_preds()),
                sync,
            }),
            custom: options.custom.clone(),
        };
        Ok((config, writer))
    }

    /// The one driver of every wrapped run: wrap `analytic` per `config`
    /// and run it with `drive`. With a `writer` attached (a capture) the
    /// rows of the superstep the run ended in follow, and the writer is
    /// drained before the outcome is decided, so its thread never leaks;
    /// an engine or query failure takes precedence over the store's.
    fn run_wrapped<A, F>(
        &self,
        analytic: &A,
        config: OnlineConfig<A>,
        writer: Option<StoreWriter>,
        drive: F,
    ) -> Result<Wrapped<A::V>, AriadneError>
    where
        A: VertexProgram,
        A::V: ProvEncode,
        A::M: ProvEncode,
        F: FnOnce(&Engine, &OnlineProgram<'_, A>) -> Result<WrappedRun<A::V>, EngineError>,
    {
        let program = OnlineProgram::new(analytic, config);
        let result = drive(&Engine::new(self.engine.clone()), &program);
        let store = writer.map(|writer| {
            program.flush();
            writer.finish()
        });
        let result = result?;
        check_query_failure(&program)?;
        Ok((result, program.query_stats(), store.transpose()?))
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
        run_layered_with(
            graph,
            store,
            query,
            &LayeredConfig::parallel(self.engine.threads),
        )
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

/// The engine's fallible path: a fresh checkpointed run, or a resume from
/// the newest valid snapshot.
fn checkpointed<P>(
    engine: &Engine,
    program: &P,
    graph: &Csr,
    resume: bool,
) -> Result<RunResult<P::V>, EngineError>
where
    P: VertexProgram,
    P::V: Snapshot,
    P::M: Snapshot,
{
    if resume {
        engine.resume(program, graph)
    } else {
        engine.run_checkpointed(program, graph)
    }
}

/// The wrapper configuration of an online run of `query`; refused for a
/// query that cannot run online (§5.2).
fn online_config<A: VertexProgram>(
    query: &CompiledQuery,
    custom: Option<Arc<dyn CustomProv<A>>>,
) -> Result<OnlineConfig<A>, AriadneError> {
    let direction = query.direction();
    if !direction.supports_online() {
        return Err(AriadneError::UnsupportedMode {
            mode: "online",
            direction,
        });
    }
    let analyzed = query.query();
    Ok(OnlineConfig {
        evaluator: Some(query.evaluator().clone()),
        needed: Arc::new(analyzed.edbs.clone()),
        shipped: Arc::new(analyzed.shipped.clone()),
        persist: None,
        custom,
    })
}

/// Surface a query failure recorded inside the wrapped program as a
/// typed error (it used to panic the engine worker).
fn check_query_failure<A: VertexProgram>(
    program: &OnlineProgram<'_, A>,
) -> Result<(), AriadneError> {
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
/// query result tables: each vertex's own IDB tuples
/// ([`QueryState::into_owned`](crate::state::QueryState::into_owned));
/// transient EDB partitions are working state, not results.
fn finish_online<V>(
    result: WrappedRun<V>,
    idbs: &std::collections::BTreeMap<String, usize>,
    query_stats: EvalStats,
) -> OnlineRun<V> {
    let mut merged = Database::new();
    let mut values = Vec::with_capacity(result.values.len());
    for (vertex, state) in result.values.into_iter().enumerate() {
        values.push(state.value);
        // The per-vertex partitions end here: move their own tuples.
        let idb = |name: &str| idbs.get_key_value(name).map(|(name, _)| name);
        for (name, arity, owned) in state.q.into_owned(VertexId(vertex as u64), idb) {
            let into = merged.relation_mut(name, arity);
            for t in owned {
                into.insert(t);
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

/// A capture's outcome: the analytic values and the store its writer
/// handed back.
fn finish_capture<V>(
    result: WrappedRun<V>,
    query_stats: EvalStats,
    store: Option<ProvStore>,
) -> CaptureRun<V> {
    CaptureRun {
        values: result.values.into_iter().map(|s| s.value).collect(),
        store: store.expect("a capture attaches a store writer"),
        metrics: result.metrics,
        query_stats,
    }
}
