//! Online provenance query evaluation (§5.2).
//!
//! [`OnlineProgram`] wraps an **unmodified** analytic vertex program. At
//! every superstep each vertex:
//!
//! 1. merges provenance payloads piggybacked on incoming messages into
//!    its local query database (neighbour replicas of shipped tables);
//! 2. runs the analytic's `compute` against a recording context that
//!    defers its sends;
//! 3. generates the superstep's provenance rows — Table 1's (only the
//!    predicates the query needs: declarative capture customization) and
//!    the analytic's custom ones;
//! 4. runs the compiled query incrementally to a local fixpoint;
//! 5. attaches the new tuples of *shipped* predicates to the analytic's
//!    deferred messages and releases them.
//!
//! Every row a step makes — generated, static, custom, or derived by a
//! capture rule — goes through the run's one [`RouteTable`]: into the
//! vertex's database where a rule reads it, into its chunk's row block
//! where the store keeps it. At the barrier the row blocks go to the
//! store's writer, one message per (superstep, predicate).
//!
//! Query messages therefore travel only where analytic messages travel,
//! and query state is disjoint from analytic state — the two halves of
//! Theorem 5.4's non-interference argument, here enforced by types.
//!
//! # When the analytic's combiner stays on
//!
//! A combiner folds a vertex's inbox into one message with no sender, so
//! the wrapper turns the analytic's combiner off whenever something could
//! see what it erases: a capture (it stores every `receive_message` row),
//! a custom generator (it reads the inbox), a shipped predicate (payloads
//! ride on messages and cannot be folded), or a rule that reads
//! `receive_message`'s sender or payload. A run with none of these is
//! *blind to senders*: no `persist`, no `custom`, nothing shipped, and
//! `receive_message` either unread or with columns 1 and 2 dropped by
//! [`column_masks`] — which keeps every column of a predicate an
//! aggregate rule scans. A blind run keeps the analytic's combiner
//! ([`VertexProgram::combiner`]) and generates `receive_message` projected:
//! one `receive_message(x, Unit, Unit, i)` row per vertex-step with a
//! non-empty inbox ([`RouteTable::receive_projected`]). The mask proves no
//! rule's result depends on the dropped columns, the set of vertex-steps
//! with a non-empty inbox does not depend on combining, and the analytic
//! sees the inbox its bare run sees — Theorem 5.4's "analytic untouched"
//! holds literally. Queries 5 and 6 are blind; apt, Query 4 and every
//! capture are not.
//!
//! # What a vertex-superstep allocates
//!
//! This runs once per vertex per superstep beside an analytic that costs
//! nanoseconds per edge, so what it does *besides* storing tuples is the
//! overhead the paper's Figure 7 measures. Everything transient lives in
//! a `Worker`: the payload-free copy of the inbox the analytic reads,
//! its deferred sends, and the evaluator's [`EvalScratch`]. Each engine
//! chunk ([`Context::chunk`]) has one worker, which its compute calls take
//! and put back in turn, so the buffers settle at the largest inbox,
//! fan-out and rule the chunk has seen. EDB tuples go from
//! `(value, inbox, sends)` straight into the relations
//! ([`EdbTracker::record_step`](ariadne_provenance::edb::EdbTracker::record_step)),
//! replicas are cloned only when new, and a vertex with nothing fresh to
//! ship sends no [`Payload`] at all. In steady state the allocator is
//! called for the tuples a step stores and for the payload it ships,
//! nothing else (`tests/online_alloc_budget.rs` counts).
//!
//! # Where captured rows go
//!
//! A worker holds one [`RowBlock`] per persisted predicate, which the
//! route table fills (a stored row no rule reads is never a tuple, so
//! after a raw capture every vertex's database is empty). A chunk's calls
//! run in ascending vertex order, so its blocks hold its rows in vertex
//! order. The blocks are handed to the writer in
//! [`should_halt`](VertexProgram::should_halt): the engine calls it once
//! per superstep, on the coordinating thread, after every `compute` of
//! the superstep has returned and before the barrier's checkpoint hook.
//! Each (superstep, predicate) is one message carrying the chunks' blocks
//! in chunk order, which the writer ingests as one block: the rows in
//! vertex order, as one thread would have made them, so the store holds
//! the same bytes at every thread count. When the engine checkpoints
//! ([`Persist::sync`]) it then waits until the writer has spilled every
//! row it holds, so every layer a barrier closes is whole in the spool
//! before the next superstep starts: a checkpoint never covers a row that
//! is only in memory, and a resumed capture re-attaches whole layers
//! only. [`OnlineProgram::flush`] hands over what a run that stopped
//! anywhere else left behind.
//!
//! The count matters more than its cost suggests: the engine starts fresh
//! threads every phase, so a vector a vertex grew last superstep usually
//! belongs to another thread's malloc arena, and growing or freeing it
//! takes that arena's lock. Transient allocations are what made online
//! runs *slower* on two threads than on one (DESIGN.md §3.14).

use crate::columns::column_masks;
use crate::custom::CustomProv;
use crate::state::QueryState;
use ariadne_graph::{Csr, VertexId};
use ariadne_pql::{EvalScratch, EvalStats, Evaluator, PqlError, Tuple, Value};
use ariadne_provenance::edb::{NeededEdbs, Outlet, RouteTable};
use ariadne_provenance::store::StoreSender;
use ariadne_provenance::{ProvEncode, RowBlock, Rows};
use ariadne_vc::{AggOp, AggValue, Aggregates, Combiner, Context, Envelope, VertexProgram};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Persistence half of a capture run.
#[derive(Clone)]
pub struct Persist {
    /// Channel into the async store writer.
    pub sender: StoreSender,
    /// Which predicates to persist (raw EDBs + capture-rule heads).
    pub preds: Arc<BTreeSet<String>>,
    /// Wait at every barrier until the writer has spilled every row it
    /// holds ([`StoreSender::sync`]): set when the engine checkpoints,
    /// so a resume finds each layer before the snapshot whole.
    pub sync: bool,
}

/// Configuration of the online wrapper.
pub struct OnlineConfig<A: VertexProgram> {
    /// The compiled query to evaluate alongside the analytic, if any
    /// (pure raw captures have none).
    pub evaluator: Option<Arc<Evaluator>>,
    /// Which Table-1 EDB predicates to generate.
    pub needed: Arc<NeededEdbs>,
    /// Predicates whose fresh tuples piggyback on analytic messages.
    pub shipped: Arc<BTreeSet<String>>,
    /// Capture persistence, if this is a capture run.
    pub persist: Option<Persist>,
    /// Analytic-specific custom provenance generator.
    pub custom: Option<Arc<dyn CustomProv<A>>>,
}

impl<A: VertexProgram> Clone for OnlineConfig<A> {
    fn clone(&self) -> Self {
        OnlineConfig {
            evaluator: self.evaluator.clone(),
            needed: self.needed.clone(),
            shipped: self.shipped.clone(),
            persist: self.persist.clone(),
            custom: self.custom.clone(),
        }
    }
}

/// Per-vertex state: the analytic's value plus the query partition.
#[derive(Clone, Debug)]
pub struct OnlineState<V> {
    /// The analytic's vertex value (π_A of Theorem 5.4).
    pub value: V,
    /// The query's vertex partition (π_Q of Theorem 5.4).
    pub q: QueryState,
}

/// Fresh shipped-table tuples, shared by the messages one vertex sends in
/// one superstep.
#[derive(Debug)]
pub struct Payload {
    tables: Vec<(String, Vec<Tuple>)>,
    /// Payload bytes of `tables`, summed once here instead of once per
    /// message of the fan-out.
    bytes: usize,
}

impl Payload {
    /// A payload of `(predicate, tuples)` tables.
    pub fn new(tables: Vec<(String, Vec<Tuple>)>) -> Self {
        let bytes = tables
            .iter()
            .flat_map(|(_, tuples)| tuples.iter().flatten())
            .map(Value::byte_size)
            .sum();
        Payload { tables, bytes }
    }

    /// The `(predicate, tuples)` tables.
    pub fn tables(&self) -> &[(String, Vec<Tuple>)] {
        &self.tables
    }
}

/// An analytic message with a piggybacked provenance payload.
#[derive(Clone, Debug)]
pub struct OnlineMsg<M> {
    /// The analytic's message, untouched.
    pub msg: M,
    /// Fresh shipped-table tuples (shared across a superstep's fan-out);
    /// `None` when the sender had nothing fresh to ship. Most messages
    /// carry none, and one shared empty payload would have every worker
    /// thread bump the same reference count once per message.
    pub payload: Option<Arc<Payload>>,
}

impl<M> OnlineMsg<M> {
    /// The piggybacked `(predicate, tuples)` tables.
    pub fn tables(&self) -> &[(String, Vec<Tuple>)] {
        self.payload.as_deref().map_or(&[], Payload::tables)
    }
}

/// The analytic's combiner, folding the analytic's messages. Only a run
/// blind to senders combines, and such a run ships nothing, so there is
/// never a payload to fold.
struct AnalyticCombiner<M>(Box<dyn Combiner<M>>);

impl<M: Send + Sync> Combiner<OnlineMsg<M>> for AnalyticCombiner<M> {
    fn combine(&self, acc: &mut OnlineMsg<M>, incoming: &OnlineMsg<M>) {
        debug_assert!(acc.payload.is_none() && incoming.payload.is_none());
        self.0.combine(&mut acc.msg, &incoming.msg);
    }

    fn is_exact(&self) -> bool {
        self.0.is_exact()
    }
}

/// A query-evaluation failure captured inside the engine's compute hot
/// path (previously a panic). The engine halts at the next barrier and
/// the session surfaces this as a typed error.
#[derive(Debug)]
pub struct QueryFailure {
    /// The vertex whose local fixpoint failed.
    pub vertex: VertexId,
    /// The superstep at which it failed.
    pub superstep: u32,
    /// The underlying language error (e.g. an unknown UDF).
    pub source: PqlError,
}

/// What one compute call works in; see the module docs.
struct Worker<M> {
    /// The inbox as the analytic sees it: envelopes without payloads.
    inbox: Vec<Envelope<M>>,
    /// The analytic's sends, held back until the payload is known.
    sends: Vec<(VertexId, M)>,
    eval: EvalScratch,
    /// Query counters of the compute calls this worker served.
    stats: EvalStats,
    /// The rows this worker captured in superstep `step`, one block per
    /// persisted predicate (in [`RouteTable::persisted`] order).
    blocks: Vec<RowBlock>,
    step: u32,
    /// The capture-rule head lengths before a step's evaluation
    /// ([`RouteTable::head_marks`]).
    marks: Vec<usize>,
}

/// The online wrapper program. See module docs.
pub struct OnlineProgram<'a, A: VertexProgram> {
    analytic: &'a A,
    config: OnlineConfig<A>,
    /// The run is blind to senders: the analytic's combiner stays on
    /// (see the module docs).
    blind: bool,
    /// Where every row a vertex-step makes goes.
    routes: RouteTable,
    /// One worker per engine chunk, indexed by [`Context::chunk`]: `None`
    /// while one of the chunk's calls holds it, or before the first. Each
    /// holds the query-evaluation counters of the calls it served; a
    /// total is a sum of per-vertex logical counts, so it does not depend
    /// on which worker served which vertex.
    workers: Mutex<Vec<Option<Worker<A::M>>>>,
    /// Fast flag checked at barriers; avoids the mutex on the hot path.
    failed: AtomicBool,
    /// The (deterministically) first failure: minimum (superstep, vertex).
    failure: Mutex<Option<QueryFailure>>,
}

impl<'a, A: VertexProgram> OnlineProgram<'a, A> {
    /// Wrap `analytic` with the given query configuration.
    pub fn new(analytic: &'a A, config: OnlineConfig<A>) -> Self {
        let query = config.evaluator.as_ref().map(|e| e.query());
        let mut routes = RouteTable::new(
            &config.needed,
            query.map_or(&BTreeSet::new(), |q| &q.edbs),
            config
                .persist
                .as_ref()
                .map_or(&BTreeSet::new(), |p| &p.preds),
            |pred| query.is_some_and(|q| q.idbs.contains_key(pred)),
        );
        let drops_sender = |e: &Arc<Evaluator>| {
            let masks = column_masks(e.query());
            matches!(
                masks.get("receive_message").map(|m| &m[..]),
                Some([_, false, false, ..])
            )
        };
        let blind = config.persist.is_none()
            && config.custom.is_none()
            && config.shipped.is_empty()
            && (!config.needed.contains("receive_message")
                || config.evaluator.as_ref().is_some_and(drops_sender));
        routes.receive_projected = blind;
        OnlineProgram {
            analytic,
            blind,
            routes,
            config,
            workers: Mutex::new(Vec::new()),
            failed: AtomicBool::new(false),
            failure: Mutex::new(None),
        }
    }

    /// The query-evaluation counters of the run so far (of the compute
    /// calls that have returned).
    pub fn query_stats(&self) -> EvalStats {
        let workers = self.workers.lock().expect("worker pool lock");
        let mut sum = EvalStats::default();
        for worker in workers.iter().flatten() {
            sum.merge(&worker.stats);
        }
        sum
    }

    /// Record a query failure. Keeps the minimum (superstep, vertex)
    /// failure so the reported error is deterministic regardless of
    /// worker interleaving.
    fn record_failure(&self, vertex: VertexId, superstep: u32, source: PqlError) {
        let mut slot = self.failure.lock().unwrap();
        let replace = match &*slot {
            None => true,
            Some(f) => (superstep, vertex.0) < (f.superstep, f.vertex.0),
        };
        if replace {
            *slot = Some(QueryFailure {
                vertex,
                superstep,
                source,
            });
        }
        self.failed.store(true, Ordering::Release);
    }

    /// Take the recorded failure, if any (checked after the run).
    pub fn take_failure(&self) -> Option<QueryFailure> {
        self.failure.lock().unwrap().take()
    }

    /// Hand every captured row the workers hold to the store's writer:
    /// one message per (superstep, predicate), carrying the chunks'
    /// blocks in chunk order. Runs at every barrier, when every block
    /// holding rows is of the superstep just computed; a capture driver
    /// calls it once more after the engine returns, for a run that ended
    /// between barriers.
    pub fn flush(&self) {
        let Some(persist) = &self.config.persist else {
            return;
        };
        let mut workers = self.workers.lock().expect("worker pool lock");
        for (p, pred) in self.routes.persisted().iter().enumerate() {
            let (mut step, mut blocks) = (0, Vec::new());
            for worker in workers.iter_mut().flatten() {
                let block = &mut worker.blocks[p];
                if !block.is_empty() {
                    step = worker.step;
                    // The next superstep's rows are about as many.
                    let next = RowBlock::with_capacity(block.value_count());
                    blocks.push(std::mem::replace(block, next));
                }
            }
            // A predicate no chunk made rows for is not sent.
            persist.sender.ingest_blocks(step, pred, blocks);
        }
    }
}

impl<A> VertexProgram for OnlineProgram<'_, A>
where
    A: VertexProgram,
    A::V: ProvEncode,
    A::M: ProvEncode,
{
    type V = OnlineState<A::V>;
    type M = OnlineMsg<A::M>;

    fn init(&self, v: VertexId, graph: &Csr) -> Self::V {
        OnlineState {
            value: self.analytic.init(v, graph),
            q: QueryState::new(),
        }
    }

    fn compute(
        &self,
        ctx: &mut dyn Context<Self::M>,
        state: &mut Self::V,
        messages: &[Envelope<Self::M>],
    ) {
        let chunk = ctx.chunk();
        let idle = (self.workers.lock().expect("worker pool lock"))
            .get_mut(chunk)
            .and_then(Option::take);
        let mut worker = idle.unwrap_or_else(|| Worker {
            inbox: Vec::new(),
            sends: Vec::new(),
            eval: EvalScratch::default(),
            stats: EvalStats::default(),
            blocks: vec![RowBlock::default(); self.routes.persisted().len()],
            step: 0,
            marks: Vec::new(),
        });
        self.compute_in(&mut worker, ctx, state, messages);
        let mut workers = self.workers.lock().expect("worker pool lock");
        if workers.len() <= chunk {
            workers.resize_with(chunk + 1, || None);
        }
        workers[chunk] = Some(worker);
    }

    // The analytic's configuration passes through untouched — the
    // combiner only when the run is blind to senders: otherwise combining
    // would erase the per-source identity the query or the capture reads,
    // and would fold piggybacked payloads away.
    fn combiner(&self) -> Option<Box<dyn Combiner<Self::M>>> {
        if !self.blind {
            return None;
        }
        Some(Box::new(AnalyticCombiner(self.analytic.combiner()?)))
    }

    fn aggregators(&self) -> Vec<(String, AggOp)> {
        self.analytic.aggregators()
    }

    fn always_active(&self) -> bool {
        self.analytic.always_active()
    }

    fn max_supersteps(&self) -> u32 {
        self.analytic.max_supersteps()
    }

    fn should_halt(&self, superstep: u32, aggregates: &Aggregates) -> bool {
        // Every compute call of `superstep` has returned: its captured
        // rows go to the writer before the barrier's checkpoint.
        self.flush();
        if let Some(persist) = self.config.persist.as_ref().filter(|p| p.sync) {
            persist.sender.sync();
        }
        self.failed.load(Ordering::Acquire) || self.analytic.should_halt(superstep, aggregates)
    }

    fn message_bytes(&self, msg: &Self::M) -> usize {
        self.analytic.message_bytes(&msg.msg) + msg.payload.as_ref().map_or(0, |p| p.bytes)
    }

    // A resume must wrap the query and persist the predicates the
    // snapshot was taken with: under another query the restored
    // databases hold none of its rows from before the snapshot.
    fn identity(&self) -> String {
        let mut identity = self.analytic.identity();
        if let Some(evaluator) = &self.config.evaluator {
            identity.push_str(&evaluator.query().identity);
        }
        if let Some(persist) = &self.config.persist {
            identity.push_str(&format!("persist {:?}\n", persist.preds));
        }
        identity
    }
}

impl<A> OnlineProgram<'_, A>
where
    A: VertexProgram,
    A::V: ProvEncode,
    A::M: ProvEncode,
{
    /// One vertex-superstep, in `worker`'s buffers.
    fn compute_in(
        &self,
        worker: &mut Worker<A::M>,
        ctx: &mut dyn Context<OnlineMsg<A::M>>,
        state: &mut OnlineState<A::V>,
        messages: &[Envelope<OnlineMsg<A::M>>],
    ) {
        let vertex = ctx.vertex();
        let superstep = ctx.superstep();
        let cfg = &self.config;
        let Worker {
            inbox,
            sends,
            eval,
            stats,
            blocks,
            step,
            marks,
        } = worker;
        debug_assert!(*step == superstep || blocks.iter().all(|b| b.is_empty()));
        *step = superstep;

        // 1. Merge incoming provenance payloads (replicas).
        for env in messages {
            for (pred, tuples) in env.msg.tables() {
                state.q.inject(pred, tuples);
            }
        }
        state.q.statics(&self.routes, blocks, ctx.graph(), vertex);

        // 2. Run the analytic against a recording shim.
        inbox.clear();
        inbox.extend(
            messages
                .iter()
                .map(|e| Envelope::new(e.src, e.msg.msg.clone())),
        );
        sends.clear();
        let mut recorder = Recorder { inner: ctx, sends };
        self.analytic
            .compute(&mut recorder, &mut state.value, inbox);

        // 3. Generate this superstep's provenance rows, then the custom
        // ones.
        state.q.tracker.record_step(
            &mut Outlet::new(&self.routes, &mut state.q.db, blocks),
            ctx.graph(),
            vertex,
            superstep,
            || state.value.encode(),
            inbox.iter().map(|e| (e.src, e.msg.encode())),
            sends.iter().map(|(dst, m)| (*dst, m.encode())),
        );

        if let Some(custom) = &cfg.custom {
            let rows = custom.tuples(ctx.graph(), vertex, superstep, &state.value, inbox);
            Outlet::new(&self.routes, &mut state.q.db, blocks).custom(rows);
        }

        // 4. Local incremental fixpoint; the capture stores the heads it
        // derives here. Errors abort the run at the next barrier (via
        // should_halt) instead of panicking the worker; the analytic's
        // deferred sends are dropped, which is fine because the whole run
        // is discarded.
        if let Some(evaluator) = &cfg.evaluator {
            self.routes.head_marks(&state.q.db, marks);
            if let Err(e) = state.q.evaluate_stats(evaluator, vertex, stats, eval) {
                self.record_failure(vertex, superstep, e);
                return;
            }
            Outlet::new(&self.routes, &mut state.q.db, blocks).heads(marks, vertex);
        }

        // 5. Ship fresh tuples with the analytic's deferred sends. Marks
        // advance only when something is actually sent, so tuples derived
        // during quiet supersteps are back-logged until the next send.
        if !sends.is_empty() {
            let fresh = state.q.take_shippable(cfg.shipped.iter(), vertex);
            let payload = (!fresh.is_empty()).then(|| Arc::new(Payload::new(fresh)));
            for (dst, msg) in sends.drain(..) {
                let payload = payload.clone();
                ctx.send(dst, OnlineMsg { msg, payload });
            }
        }
    }
}

/// Context shim handed to the analytic: observes sends without releasing
/// them, delegates everything else.
struct Recorder<'a, M, MO> {
    inner: &'a mut dyn Context<MO>,
    sends: &'a mut Vec<(VertexId, M)>,
}

impl<M, MO> Context<M> for Recorder<'_, M, MO> {
    fn superstep(&self) -> u32 {
        self.inner.superstep()
    }

    fn vertex(&self) -> VertexId {
        self.inner.vertex()
    }

    fn chunk(&self) -> usize {
        self.inner.chunk()
    }

    fn graph(&self) -> &Csr {
        self.inner.graph()
    }

    fn send(&mut self, to: VertexId, msg: M) {
        self.sends.push((to, msg));
    }

    fn aggregate(&mut self, name: &str, value: AggValue) {
        self.inner.aggregate(name, value);
    }

    fn prev_aggregate(&self, name: &str) -> Option<AggValue> {
        self.inner.prev_aggregate(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use ariadne_graph::generators::regular::path;
    use ariadne_pql::Params;
    use ariadne_vc::{Engine, EngineConfig};

    /// Forwards its superstep number along the path.
    struct Hops;
    impl VertexProgram for Hops {
        type V = i64;
        type M = i64;
        fn init(&self, _: VertexId, _: &Csr) -> i64 {
            -1
        }
        fn compute(&self, ctx: &mut dyn Context<i64>, value: &mut i64, msgs: &[Envelope<i64>]) {
            if ctx.superstep() == 0 && ctx.vertex() == VertexId(0) {
                *value = 0;
                ctx.send_to_out_neighbors(0);
            } else if let Some(m) = msgs.iter().map(|e| e.msg).max() {
                *value = m + 1;
                ctx.send_to_out_neighbors(*value);
            }
        }
        fn combiner(&self) -> Option<Box<dyn Combiner<i64>>> {
            Some(Box::new(ariadne_vc::MaxCombiner))
        }
    }

    fn online_config(src: &str) -> OnlineConfig<Hops> {
        let q = compile(src, Params::new()).unwrap();
        let analyzed = q.query().clone();
        OnlineConfig {
            evaluator: Some(q.evaluator().clone()),
            needed: Arc::new(analyzed.edbs.clone()),
            shipped: Arc::new(analyzed.shipped.clone()),
            persist: None,
            custom: None,
        }
    }

    #[test]
    fn wrapper_preserves_analytic_and_derives_locally() {
        let g = path(4);
        let cfg = online_config("seen(x, d, i) :- value(x, d, i), superstep(x, i).");
        let wrapped = OnlineProgram::new(&Hops, cfg);
        let run = Engine::new(EngineConfig::sequential()).run(&wrapped, &g);
        let values: Vec<i64> = run.values.iter().map(|s| s.value).collect();
        assert_eq!(values, vec![0, 1, 2, 3]);
        // Vertex 3 computed at superstep 0 (everyone does) and at
        // superstep 3 when the hop count arrived; both are recorded.
        let s3 = &run.values[3].q.db;
        assert_eq!(
            s3.sorted("seen"),
            vec![
                vec![Value::Id(3), Value::Int(-1), Value::Int(0)],
                vec![Value::Id(3), Value::Int(3), Value::Int(3)],
            ]
        );
    }

    #[test]
    fn wrapper_ships_only_along_messages() {
        // fwd-style recursion: vertex 3 learns the lineage only through
        // the chain of messages.
        let g = path(4);
        let cfg = online_config(
            "lineage(x, i) :- superstep(x, i), x = 0, i = 0.
             lineage(x, i) :- receive_message(x, y, m, i), lineage(y, j).",
        );
        let wrapped = OnlineProgram::new(&Hops, cfg);
        let run = Engine::new(EngineConfig::sequential()).run(&wrapped, &g);
        for (v, state) in run.values.iter().enumerate() {
            let mine: Vec<_> = state
                .q
                .db
                .sorted("lineage")
                .into_iter()
                .filter(|t| t[0] == Value::Id(v as u64))
                .collect();
            assert_eq!(mine.len(), 1, "vertex {v} lineage: {mine:?}");
        }
    }

    /// The analytic's combiner, folding two messages, if the wrapper
    /// keeps it.
    fn combined(wrapped: &OnlineProgram<'_, Hops>) -> Option<i64> {
        let combiner = wrapped.combiner()?;
        let mut acc = OnlineMsg {
            msg: 3,
            payload: None,
        };
        combiner.combine(
            &mut acc,
            &OnlineMsg {
                msg: 5,
                payload: None,
            },
        );
        Some(acc.msg)
    }

    #[test]
    fn blind_wrapper_keeps_combiner_and_analytic_knobs() {
        // Neither rule reads a sender: the second reads
        // `receive_message` for its existence only.
        for src in [
            "seen(x, i) :- superstep(x, i).",
            "heard(x, i) :- receive_message(x, y, m, i).",
        ] {
            let wrapped = OnlineProgram::new(&Hops, online_config(src));
            assert_eq!(combined(&wrapped), Some(5), "{src}");
            assert_eq!(wrapped.max_supersteps(), Hops.max_supersteps());
            assert_eq!(wrapped.always_active(), Hops.always_active());
            assert!(wrapped.aggregators().is_empty());
        }
    }

    #[test]
    fn sender_reading_wrapper_disables_combiner() {
        for src in [
            // The sender is projected, joined, or counted by an aggregate.
            "from(x, y, i) :- receive_message(x, y, m, i).",
            "same(x, i) :- receive_message(x, y, m, i), value(x, y, i).",
            "fan_in(x, count(i)) :- receive_message(x, y, m, i).",
            // The payload is filtered on.
            "big(x, i) :- receive_message(x, y, m, i), m > 2.",
        ] {
            let wrapped = OnlineProgram::new(&Hops, online_config(src));
            assert_eq!(combined(&wrapped), None, "{src}");
        }
        // A blind query whose rows ride on messages.
        let mut shipping = online_config("seen(x, i) :- superstep(x, i).");
        shipping.shipped = Arc::new(["seen".to_string()].into());
        assert_eq!(combined(&OnlineProgram::new(&Hops, shipping)), None);
    }

    #[test]
    fn message_bytes_include_payload() {
        let cfg = online_config("seen(x, i) :- superstep(x, i).");
        let wrapped = OnlineProgram::new(&Hops, cfg);
        let empty = OnlineMsg {
            msg: 1i64,
            payload: None,
        };
        let loaded = OnlineMsg {
            msg: 1i64,
            payload: Some(Arc::new(Payload::new(vec![(
                "seen".to_string(),
                vec![vec![Value::Id(0), Value::Int(0)]],
            )]))),
        };
        assert!(wrapped.message_bytes(&loaded) > wrapped.message_bytes(&empty));
    }
}

/// The outcome of an online run.
#[derive(Debug)]
pub struct OnlineRun<V> {
    /// Final analytic values (identical to a run without the query).
    pub values: Vec<V>,
    /// Merged query result tables (IDB relations) across all vertices.
    pub query_results: ariadne_pql::Database,
    /// Engine metrics for the wrapped run.
    pub metrics: ariadne_vc::RunMetrics,
    /// Query-evaluation counters accumulated across all vertices.
    pub query_stats: EvalStats,
}
