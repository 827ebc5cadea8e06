//! The BSP superstep driver.
//!
//! Execution is deterministic even in parallel mode: vertices are split
//! into contiguous chunks, each worker emits messages in vertex order, and
//! inbox merging scans workers in a fixed order — so message delivery
//! order never depends on thread scheduling. Tests rely on this.
//!
//! The message plane is flat: per-(worker, destination-chunk) outbox
//! buffers recycled across supersteps, a flat offset-table inbox per
//! chunk filled by a two-pass counting scatter (messages move, they are
//! never cloned), degree-weighted chunk boundaries cut from the CSR
//! out-degree prefix sums, and *sender-side* combining for combiners
//! that declare themselves [`Combiner::is_exact`]. A checkpoint holds
//! the same flat layout over the whole graph ([`EngineCheckpoint::inbox`]),
//! cut at the chunk bounds on resume.
//!
//! Combining policy (see [`Combiner::is_exact`] for the full argument):
//! sender-side combining partitions the per-destination fold by chunk
//! layout, which is only bit-stable for grouping-insensitive (exact)
//! combiners such as min/max selection. Non-exact combiners — floating
//! point sums — are still honoured, but at delivery time in global sender
//! order, which keeps N-thread runs bit-identical to 1-thread runs and
//! combined runs bit-identical to uncombined capture runs.
//!
//! Aggregator reductions are folded per fixed-size *sender block* (a
//! function of the graph size only) and merged in global block order at
//! the barrier, so floating-point aggregates are also bit-identical at
//! every thread count; chunk boundaries are aligned to the block size to
//! make blocks nest inside chunks.

use crate::aggregate::{AggValue, Aggregates};
use crate::checkpoint::{
    checkpoint_path, load_latest_checkpoint, write_inboxes, CheckpointConfig, EngineCheckpoint,
    EngineError, SnapError, Snapshot,
};
use crate::context::Context;
use crate::fault::FaultPlan;
use crate::message::{Combiner, Envelope};
use crate::metrics::{PhaseTimes, RunMetrics, SuperstepMetrics};
use crate::program::VertexProgram;
use ariadne_graph::{ChunkTable, Csr, Direction, EdgeRef, VertexId};
use ariadne_obs::trace::{self, Level};
use std::mem::MaybeUninit;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cached handles into the global `ariadne-obs` registry for engine
/// metrics. Each accessor registers on first use and then costs one
/// `OnceLock` load; recording is a relaxed sharded `fetch_add`.
///
/// Counters of *logical work* (supersteps, messages, activations) are
/// flagged deterministic — bit-identical across thread counts. Phase
/// timings and sender-combine hits depend on wall clock and chunk
/// layout respectively and are flagged non-deterministic.
mod obs_handles {
    use ariadne_obs::static_counter;

    static_counter!(
        supersteps,
        "engine_supersteps_total",
        "supersteps executed across all runs",
        true
    );
    static_counter!(
        active_vertices,
        "engine_active_vertices_total",
        "vertex activations (compute calls)",
        true
    );
    static_counter!(
        messages_sent,
        "engine_messages_sent_total",
        "messages sent (post-combining)",
        true
    );
    static_counter!(
        messages_delivered,
        "engine_messages_delivered_total",
        "messages delivered into inboxes",
        true
    );
    static_counter!(
        message_bytes,
        "engine_message_bytes_total",
        "approximate message payload bytes sent",
        true
    );
    static_counter!(
        buffered_messages,
        "engine_buffered_messages_total",
        "messages materialized in outbox buffers (chunk-layout dependent)",
        false
    );
    static_counter!(
        sender_combine_hits,
        "engine_sender_combine_hits_total",
        "sends folded into an existing outbox slot at the sender (chunk-layout dependent)",
        false
    );
    static_counter!(
        phase_compute_ns,
        "engine_phase_compute_ns_total",
        "wall nanoseconds in the compute phase",
        false
    );
    static_counter!(
        phase_combine_ns,
        "engine_phase_combine_ns_total",
        "wall nanoseconds in delivery-side combining",
        false
    );
    static_counter!(
        phase_scatter_ns,
        "engine_phase_scatter_ns_total",
        "wall nanoseconds in message transpose and inbox scatter",
        false
    );
    static_counter!(
        phase_barrier_ns,
        "engine_phase_barrier_ns_total",
        "wall nanoseconds in barrier bookkeeping",
        false
    );
    static_counter!(
        checkpoint_writes,
        "engine_checkpoint_writes_total",
        "checkpoint snapshots written at barriers",
        true
    );
    static_counter!(
        checkpoint_write_ns,
        "engine_checkpoint_write_ns_total",
        "wall nanoseconds writing checkpoint snapshots",
        false
    );
    static_counter!(
        faults_injected,
        "engine_faults_injected_total",
        "scripted faults fired (kills, corruptions)",
        true
    );
    static_counter!(
        resumes,
        "engine_resumes_total",
        "runs resumed from a checkpoint snapshot",
        true
    );
}

/// Hard cap on supersteps regardless of the program's own cap: the
/// safety bound on a program that never halts.
const MAX_SUPERSTEPS: u32 = 10_000;

/// Engine-level run configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Number of worker threads (1 = sequential).
    pub threads: usize,
    /// Barrier snapshotting; honoured by [`Engine::run_checkpointed`]
    /// and [`Engine::resume`] ([`Engine::run`] never touches disk).
    pub checkpoint: Option<CheckpointConfig>,
    /// Scripted fault injection; honoured by the fallible entry points
    /// only. `None` costs one branch per superstep.
    pub fault: Option<Arc<FaultPlan>>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: 1,
            checkpoint: None,
            fault: None,
        }
    }
}

impl EngineConfig {
    /// Sequential single-threaded configuration (fully deterministic and
    /// the default for tests).
    pub fn sequential() -> Self {
        Self::default()
    }

    /// Parallel configuration with `threads` workers.
    pub fn parallel(threads: usize) -> Self {
        EngineConfig {
            threads: threads.max(1),
            ..Self::default()
        }
    }
}

/// The outcome of a run.
#[derive(Clone, Debug)]
pub struct RunResult<V> {
    /// Final vertex values, indexed by vertex id.
    pub values: Vec<V>,
    /// Per-superstep and total metrics.
    pub metrics: RunMetrics,
    /// Final aggregator state (previous = last superstep's reductions).
    pub aggregates: Aggregates,
}

impl<V> RunResult<V> {
    /// Number of supersteps the analytic executed.
    pub fn supersteps(&self) -> u32 {
        self.metrics.num_supersteps()
    }
}

/// One outbox buffer: destination-tagged envelopes bound for one chunk.
type OutboxBuf<M> = Vec<(VertexId, Envelope<M>)>;

/// One worker's per-destination-chunk outbox buffers.
type OutboxSet<M> = Vec<OutboxBuf<M>>;

/// Sender-side combining index: destination id → (chunk, index) of the
/// buffered envelope holding that destination's accumulator.
///
/// This sits on the per-message hot path, so it is a dense epoch-stamped
/// array rather than a hash map: a probe is one bounds-checked load and
/// one compare, and resetting between supersteps is `O(1)` (bump the
/// epoch; the backing arrays are never cleared). The tables are recycled
/// through the engine's pool alongside the outbox shells, so their
/// `O(|V|)`-per-worker footprint is allocated once per run.
#[derive(Default)]
struct DedupTable {
    /// Per destination: its epoch stamp and, valid only when stamped with
    /// the current epoch, the `(chunk, index)` of its accumulator. One
    /// array, so a probe touches one cache line.
    slots: Vec<DedupSlot>,
    /// Current epoch. 0 is reserved as "never stamped".
    epoch: u32,
}

#[derive(Clone, Copy, Default)]
struct DedupSlot {
    stamp: u32,
    chunk: u32,
    idx: u32,
}

impl DedupTable {
    /// Start a fresh superstep over `n` destinations: size the array and
    /// invalidate every previous entry by bumping the epoch.
    fn begin(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize(n, DedupSlot::default());
        }
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                // Epoch wrapped: stale stamps could collide, so clear
                // them once every 2^32 supersteps.
                self.slots.fill(DedupSlot::default());
                1
            }
        };
    }

    /// The buffered accumulator for destination `v`, if this worker has
    /// already sent to `v` this superstep.
    #[inline]
    fn get(&self, v: usize) -> Option<(usize, usize)> {
        let slot = self.slots[v];
        (slot.stamp == self.epoch).then_some((slot.chunk as usize, slot.idx as usize))
    }

    /// Record that destination `v`'s accumulator lives at
    /// `outboxes[chunk][idx]`.
    #[inline]
    fn insert(&mut self, v: usize, chunk: usize, idx: usize) {
        self.slots[v] = DedupSlot {
            stamp: self.epoch,
            chunk: chunk as u32,
            idx: u32::try_from(idx).expect("over 2^32 buffered messages in one chunk"),
        };
    }
}

/// The BSP engine. Stateless apart from its configuration; `run` may be
/// called any number of times.
#[derive(Clone, Debug, Default)]
pub struct Engine {
    config: EngineConfig,
}

impl Engine {
    /// Create an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Engine { config }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Run `program` over `graph` to completion.
    ///
    /// This is the infallible hot path: it never touches disk and never
    /// consults the fault plan, regardless of configuration. Use
    /// [`Engine::run_checkpointed`] for fault-tolerant execution.
    pub fn run<P: VertexProgram>(&self, program: &P, graph: &Csr) -> RunResult<P::V> {
        let table = self.chunk_table(graph);
        let state = fresh_state(program, graph, &table);
        match self.drive(program, graph, table, state, &mut NoSink, None) {
            Ok(result) => result,
            Err(e) => unreachable!("no sink and no faults: drive cannot fail ({e})"),
        }
    }

    /// Run `program` with barrier snapshotting per the engine's
    /// [`CheckpointConfig`], honouring any scripted [`FaultPlan`].
    ///
    /// A snapshot of the initial state (superstep 0) is written before
    /// the first superstep, then one every `every_n_supersteps`
    /// barriers, so [`Engine::resume`] always has a recovery point no
    /// matter where a crash lands. Without a checkpoint configuration
    /// this degrades to a fallible [`Engine::run`] that still honours
    /// kill faults.
    pub fn run_checkpointed<P>(
        &self,
        program: &P,
        graph: &Csr,
    ) -> Result<RunResult<P::V>, EngineError>
    where
        P: VertexProgram,
        P::V: Snapshot,
        P::M: Snapshot,
    {
        let table = self.chunk_table(graph);
        let state = fresh_state(program, graph, &table);
        self.drive_checkpointed(program, graph, table, state, true)
    }

    /// Resume from the newest valid snapshot under the configured
    /// checkpoint directory and run to completion (continuing to write
    /// snapshots).
    ///
    /// Because the engine is deterministic, the returned [`RunResult`]
    /// is bit-identical (values, aggregates, superstep count and
    /// per-superstep counters) to what the uninterrupted run would have
    /// produced. Corrupt snapshot files are skipped in favour of older
    /// valid ones.
    pub fn resume<P>(&self, program: &P, graph: &Csr) -> Result<RunResult<P::V>, EngineError>
    where
        P: VertexProgram,
        P::V: Snapshot,
        P::M: Snapshot,
    {
        let cfg = self
            .config
            .checkpoint
            .as_ref()
            .ok_or(EngineError::NotConfigured)?;
        let ckpt = load_latest_checkpoint::<P::V, P::M>(&cfg.dir)?;
        self.resume_from(program, graph, ckpt)
    }

    /// Resume from an explicit, already-validated checkpoint.
    fn resume_from<P>(
        &self,
        program: &P,
        graph: &Csr,
        checkpoint: EngineCheckpoint<P::V, P::M>,
    ) -> Result<RunResult<P::V>, EngineError>
    where
        P: VertexProgram,
        P::V: Snapshot,
        P::M: Snapshot,
    {
        let program_identity = program.identity();
        if checkpoint.program != program_identity {
            return Err(EngineError::ProgramMismatch {
                snapshot: checkpoint.program,
                program: program_identity,
            });
        }
        if checkpoint.values.len() != graph.num_vertices() {
            return Err(EngineError::GraphMismatch {
                snapshot_vertices: checkpoint.values.len(),
                graph_vertices: graph.num_vertices(),
            });
        }
        // The value table can match the graph while the inbox table does
        // not (a hand-built or bit-rotted checkpoint: the CRC covers
        // bytes, not cross-field invariants). Left unchecked, a worker
        // would read past the short inbox mid-superstep — validate it
        // here, typed.
        if checkpoint.inbox.vertex_count() != graph.num_vertices() {
            return Err(EngineError::InboxMismatch {
                snapshot_inboxes: checkpoint.inbox.vertex_count(),
                graph_vertices: graph.num_vertices(),
            });
        }
        obs_handles::resumes().inc();
        trace::event(
            Level::Info,
            "engine::checkpoint",
            "resumed",
            &[
                ("superstep", checkpoint.superstep.into()),
                ("vertices", checkpoint.values.len().into()),
            ],
        );
        let table = self.chunk_table(graph);
        let state = LoopState {
            superstep: checkpoint.superstep,
            values: checkpoint.values,
            inbox: split_inbox(checkpoint.inbox, &table),
            aggregates: checkpoint.aggregates,
            metrics: checkpoint.metrics,
        };
        self.drive_checkpointed(program, graph, table, state, false)
    }

    /// Shared fallible driver: installs the snapshot sink (when
    /// configured) and optionally writes the starting-state snapshot.
    fn drive_checkpointed<P>(
        &self,
        program: &P,
        graph: &Csr,
        table: ChunkTable,
        state: LoopState<P>,
        write_initial: bool,
    ) -> Result<RunResult<P::V>, EngineError>
    where
        P: VertexProgram,
        P::V: Snapshot,
        P::M: Snapshot,
    {
        let fault = self.config.fault.as_deref();
        match self.config.checkpoint.as_ref() {
            Some(cfg) => {
                let mut sink = DirSink {
                    cfg,
                    fault,
                    program: program.identity(),
                };
                if write_initial {
                    write_state_snapshot(&sink, &state)?;
                }
                self.drive(program, graph, table, state, &mut sink, fault)
            }
            None => self.drive(program, graph, table, state, &mut NoSink, fault),
        }
    }

    /// The chunk layout for a run over `graph`: degree-weighted chunks,
    /// one per worker thread. The aggregate block size depends on the
    /// graph only, never the thread count; chunk boundaries snap to it
    /// so blocks nest in chunks and the barrier merge happens in global
    /// block order.
    fn chunk_table(&self, graph: &Csr) -> ChunkTable {
        let n = graph.num_vertices();
        let threads = self.config.threads.clamp(1, n.max(1));
        ChunkTable::degree_weighted(graph, threads, sender_block_size(n))
    }

    /// The BSP loop, over the chunk layout `table` that `st.inbox` was
    /// built for.
    ///
    /// Per superstep: phase 1 runs each chunk's vertices against a
    /// read-only flat inbox, buffering sends into recycled per-(worker,
    /// destination-chunk) buffers (combined at the sender for exact
    /// combiners); phase 2 counts arrivals per destination, then moves
    /// every envelope into a flat [`Inbox`] per chunk with a counting scatter.
    /// The pair of inbox sets is double-buffered, so after the first few
    /// supersteps the steady state allocates nothing.
    fn drive<P: VertexProgram>(
        &self,
        program: &P,
        graph: &Csr,
        table: ChunkTable,
        mut st: LoopState<P>,
        sink: &mut dyn BarrierSink<P>,
        fault: Option<&FaultPlan>,
    ) -> Result<RunResult<P::V>, EngineError> {
        let n = graph.num_vertices();
        if n == 0 {
            return Ok(RunResult {
                values: st.values,
                metrics: st.metrics,
                aggregates: st.aggregates,
            });
        }
        let start = Instant::now();
        let base_elapsed = st.metrics.elapsed;

        let combiner = program.combiner();
        // Sender-side combining regroups the per-destination fold by
        // chunk layout; only exact combiners are bit-stable under that.
        let sender_combining = combiner.as_deref().is_some_and(|c| c.is_exact());
        let block = sender_block_size(n);
        let num_chunks = table.num_chunks();
        debug_assert_eq!(table.num_vertices(), n);
        let max_supersteps = MAX_SUPERSTEPS.min(program.max_supersteps());
        let always_active = program.always_active();

        // Recycled buffers: the spare inbox set double-buffers against
        // `st.inbox`; outbox shells and dedup maps round-trip through
        // pools; `cursors` is per-destination-chunk scatter scratch.
        let mut spare: Vec<Inbox<P::M>> = empty_inbox(&table);
        let mut box_pool: Vec<Vec<(VertexId, Envelope<P::M>)>> = Vec::new();
        let mut dedup_pool: Vec<DedupTable> = Vec::new();
        let mut agg_pool: Vec<Vec<Option<AggValue>>> = Vec::new();
        let mut cursors: Vec<Vec<usize>> = (0..num_chunks).map(|_| Vec::new()).collect();

        loop {
            let step_start = Instant::now();
            let superstep = st.superstep;

            // Scripted crash: the "worker" dies before computing this
            // superstep, exactly as if the process was killed between
            // barriers. One-shot, so a resume sails past this point.
            if let Some(f) = fault {
                if f.take_kill(superstep) {
                    obs_handles::faults_injected().inc();
                    trace::event(
                        Level::Warn,
                        "engine::fault",
                        "injected_crash",
                        &[("superstep", superstep.into())],
                    );
                    return Err(EngineError::InjectedCrash { superstep });
                }
            }

            // Phase 1: compute. Workers own contiguous degree-weighted
            // chunks of values and read the flat inbox immutably.
            let t_compute = Instant::now();
            let mut worker_out: Vec<WorkerOutput<P::M>> = Vec::with_capacity(num_chunks);
            let mut active_total = 0usize;
            {
                let inbox_chunks: &[Inbox<P::M>] = &st.inbox;
                let value_chunks = split_by_table(&mut st.values, &table);
                let agg_ref = &st.aggregates;
                let table_ref = &table;
                let sender = if sender_combining {
                    combiner.as_deref()
                } else {
                    None
                };
                let prepped: Vec<_> = (0..num_chunks)
                    .map(|_| {
                        (
                            take_bufs(&mut box_pool, num_chunks),
                            dedup_pool.pop().unwrap_or_default(),
                            agg_pool.pop().unwrap_or_default(),
                        )
                    })
                    .collect();
                let results = per_chunk(
                    value_chunks
                        .into_iter()
                        .zip(inbox_chunks)
                        .zip(prepped)
                        .enumerate(),
                    |(c, ((vals, ibx), (boxes, dedup, agg_blocks)))| {
                        run_chunk::<P>(
                            program,
                            graph,
                            superstep,
                            always_active,
                            c,
                            vals,
                            ibx,
                            agg_ref,
                            table_ref,
                            sender,
                            block,
                            boxes,
                            dedup,
                            agg_blocks,
                        )
                    },
                );
                for out in results {
                    active_total += out.active;
                    worker_out.push(out);
                }
            }
            let mut phases = PhaseTimes {
                compute: t_compute.elapsed(),
                ..PhaseTimes::default()
            };

            // Barrier: merge per-block aggregate partials in global block
            // order (workers own consecutive block runs, so scanning
            // workers then blocks *is* block order), and recycle the
            // partial buffers and the dedup tables (epoch-stamped, so no
            // clearing is needed).
            let t_barrier = Instant::now();
            let mut combine_hits = 0u64;
            let width = st.aggregates.len();
            for wo in &mut worker_out {
                if width > 0 {
                    for partial in wo.agg_blocks.chunks_exact(width) {
                        st.aggregates.merge_slots(partial);
                    }
                }
                wo.agg_blocks.clear();
                agg_pool.push(std::mem::take(&mut wo.agg_blocks));
                dedup_pool.push(std::mem::take(&mut wo.dedup));
                combine_hits += wo.combine_hits;
            }
            phases.barrier += t_barrier.elapsed();

            // Phase 2: deliver. Transpose outboxes to per-destination
            // producer lists ([worker][dest] → [dest][worker]) by move,
            // scatter into the spare inbox set, then recycle the drained
            // shells. Producers are scanned in worker order and each
            // buffer is in emission order, so the flat inbox holds each
            // vertex's messages in global sender order.
            let counts = {
                let t_transpose = Instant::now();
                let mut transposed: Vec<OutboxSet<P::M>> = (0..num_chunks)
                    .map(|d| {
                        worker_out
                            .iter_mut()
                            .map(|wo| std::mem::take(&mut wo.outboxes[d]))
                            .collect()
                    })
                    .collect();
                phases.scatter += t_transpose.elapsed();
                let deliver = combiner.as_deref();
                let t_deliver = Instant::now();
                let counts = per_chunk(
                    spare
                        .iter_mut()
                        .zip(transposed.iter_mut())
                        .zip(cursors.iter_mut()),
                    |((sp, bufs), cur)| deliver_chunk::<P>(program, deliver, sp, bufs, cur),
                );
                // Delivery wall time is combiner folding when the
                // program has a combiner, pure scatter otherwise.
                if deliver.is_some() {
                    phases.combine += t_deliver.elapsed();
                } else {
                    phases.scatter += t_deliver.elapsed();
                }
                let t_recycle = Instant::now();
                for bufs in &mut transposed {
                    for b in bufs.drain(..) {
                        debug_assert!(b.is_empty(), "delivery must drain every producer buffer");
                        box_pool.push(b);
                    }
                }
                phases.scatter += t_recycle.elapsed();
                counts
                    .into_iter()
                    .fold(DeliverCounts::default(), DeliverCounts::merge)
            };

            // Swap the freshly-delivered inbox set in; the one compute
            // just read becomes next superstep's spare (its contents are
            // cleared, capacity kept, at the next delivery).
            std::mem::swap(&mut st.inbox, &mut spare);

            st.metrics.supersteps.push(SuperstepMetrics {
                superstep,
                active_vertices: active_total,
                messages_sent: counts.sent,
                messages_delivered: counts.delivered,
                message_bytes: counts.bytes,
                buffered_messages: counts.buffered,
                buffered_bytes: counts.buffered_bytes,
                elapsed: step_start.elapsed(),
                phases,
                checkpoint: Duration::ZERO,
            });
            record_superstep_obs(&st.metrics.supersteps[st.metrics.supersteps.len() - 1]);
            obs_handles::sender_combine_hits().add(combine_hits);

            // Termination checks at the barrier.
            let halted = program.should_halt(superstep, &st.aggregates);
            st.aggregates.rotate();
            let no_traffic = counts.sent == 0 && !always_active;
            st.superstep = superstep + 1;
            if halted || no_traffic || st.superstep >= max_supersteps {
                break;
            }

            // Barrier snapshot hook for runs that continue. The sink
            // decides whether this barrier is on its interval; the
            // recorded elapsed time covers everything up to here so a
            // resumed run reports a sensible total. Snapshot I/O is
            // timed separately and credited to the superstep that just
            // finished (previously it hid inside the next superstep's
            // wall clock).
            st.metrics.elapsed = base_elapsed + start.elapsed();
            let t_ckpt = Instant::now();
            if sink.on_barrier(&st)? {
                record_checkpoint_time(&mut st.metrics, superstep, t_ckpt.elapsed());
            }
        }

        st.metrics.elapsed = base_elapsed + start.elapsed();
        trace::event(
            Level::Info,
            "engine",
            "run_complete",
            &[
                ("supersteps", st.metrics.num_supersteps().into()),
                ("messages", st.metrics.total_messages().into()),
                ("elapsed_ns", st.metrics.elapsed.into()),
            ],
        );
        Ok(RunResult {
            values: st.values,
            metrics: st.metrics,
            aggregates: st.aggregates,
        })
    }
}

/// Run `f` on every per-chunk item — inline for a single chunk, one
/// scoped thread per chunk otherwise — collecting results in chunk
/// order. A panic in a chunk reaches the caller with its own payload
/// (the lowest panicking chunk's), after every chunk has finished.
fn per_chunk<T: Send, R: Send>(
    items: impl ExactSizeIterator<Item = T>,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    if items.len() == 1 {
        return items.map(f).collect();
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items.map(|item| scope.spawn(move || f(item))).collect();
        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        joined
            .into_iter()
            .map(|r| r.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect()
    })
}

/// Messages delivered for a run of consecutive vertices, stored flat.
///
/// `data` holds every envelope for vertices `base..base + len` grouped by
/// destination, and `starts` (length `len + 1`) indexes it, so vertex
/// `base + i`'s inbox is `data[starts[i]..starts[i + 1]]`, in global
/// sender order. The engine holds one per chunk; a checkpoint holds one
/// for the whole graph.
#[derive(Clone, Debug, PartialEq)]
pub struct Inbox<M> {
    /// First global vertex index covered.
    pub(crate) base: usize,
    /// Per-local-vertex offsets into `data` (exclusive prefix sums).
    pub(crate) starts: Vec<usize>,
    /// All envelopes, grouped by destination.
    pub(crate) data: Vec<Envelope<M>>,
}

impl<M> Inbox<M> {
    /// The inbox of vertices `0..starts.len() - 1` from its offsets and
    /// messages. Offsets that do not start at zero, run backwards or end
    /// anywhere but `data.len()` are [`SnapError::BadOffsets`].
    pub fn new(starts: Vec<usize>, data: Vec<Envelope<M>>) -> Result<Self, SnapError> {
        let ordered = starts.windows(2).all(|w| w[0] <= w[1]);
        if starts.first() != Some(&0) || starts.last() != Some(&data.len()) || !ordered {
            return Err(SnapError::BadOffsets);
        }
        Ok(Inbox {
            base: 0,
            starts,
            data,
        })
    }

    /// An empty inbox for the vertex range `[start, end)`.
    pub(crate) fn empty((start, end): (usize, usize)) -> Self {
        Inbox {
            base: start,
            starts: vec![0; end - start + 1],
            data: Vec::new(),
        }
    }

    /// Number of vertices covered.
    pub(crate) fn vertex_count(&self) -> usize {
        self.starts.len() - 1
    }

    /// Messages for local vertex `local` (index from `base`).
    #[inline]
    pub(crate) fn msgs(&self, local: usize) -> &[Envelope<M>] {
        &self.data[self.starts[local]..self.starts[local + 1]]
    }
}

/// One empty inbox per chunk of `table`.
fn empty_inbox<M>(table: &ChunkTable) -> Vec<Inbox<M>> {
    (0..table.num_chunks())
        .map(|c| Inbox::empty(table.bounds(c)))
        .collect()
}

/// Cut a checkpoint's inbox, which covers every vertex, at `table`'s
/// chunk bounds. Resume has checked that it covers the graph
/// ([`EngineError::InboxMismatch`]).
fn split_inbox<M>(mut whole: Inbox<M>, table: &ChunkTable) -> Vec<Inbox<M>> {
    let mut chunks: Vec<Inbox<M>> = (0..table.num_chunks())
        .rev()
        .map(|c| {
            let (start, end) = table.bounds(c);
            let from = whole.starts[start];
            Inbox {
                base: start,
                starts: whole.starts[start..=end].iter().map(|s| s - from).collect(),
                data: whole.data.split_off(from),
            }
        })
        .collect();
    chunks.reverse();
    chunks
}

/// Mutable engine state that is live across a barrier — exactly what a
/// checkpoint captures.
struct LoopState<P: VertexProgram> {
    /// The next superstep to execute.
    superstep: u32,
    /// Vertex values.
    values: Vec<P::V>,
    /// Messages delivered for superstep `superstep`, one flat buffer per
    /// chunk of the run's chunk table.
    inbox: Vec<Inbox<P::M>>,
    /// Aggregator state (rotated: `previous` holds the last barrier's
    /// reductions).
    aggregates: Aggregates,
    /// Metrics recorded so far; `elapsed` is the accumulated wall time.
    metrics: RunMetrics,
}

/// Initial state for a fresh run of `program` over `graph`, with an
/// empty inbox per chunk of `table`.
fn fresh_state<P: VertexProgram>(program: &P, graph: &Csr, table: &ChunkTable) -> LoopState<P> {
    let n = graph.num_vertices();
    LoopState {
        superstep: 0,
        values: (0..n)
            .map(|i| program.init(VertexId(i as u64), graph))
            .collect(),
        inbox: empty_inbox(table),
        aggregates: Aggregates::new(program.aggregators()),
        metrics: RunMetrics::default(),
    }
}

/// The aggregate/sender block size for a graph with `n` vertices: a pure
/// function of the graph (never the thread count), so per-block aggregate
/// folds are identical at every parallelism level. ~128 blocks keeps the
/// barrier merge negligible while bounding partial-flush overhead.
fn sender_block_size(n: usize) -> usize {
    (n / 128).max(16)
}

/// Split `values` into per-chunk mutable slices matching `table`.
fn split_by_table<'a, T>(values: &'a mut [T], table: &ChunkTable) -> Vec<&'a mut [T]> {
    let mut rest = values;
    let mut out = Vec::with_capacity(table.num_chunks());
    for c in 0..table.num_chunks() {
        let (s, e) = table.bounds(c);
        let (head, tail) = rest.split_at_mut(e - s);
        out.push(head);
        rest = tail;
    }
    debug_assert!(rest.is_empty());
    out
}

/// Take `k` buffers from `pool` (reusing retained capacity), topping up
/// with fresh empty ones.
fn take_bufs<T>(pool: &mut Vec<Vec<T>>, k: usize) -> Vec<Vec<T>> {
    let mut out = Vec::with_capacity(k);
    for _ in 0..k {
        out.push(pool.pop().unwrap_or_default());
    }
    out
}

/// Feed one finished superstep's counters into the global obs registry
/// and emit the per-superstep debug trace event. Called once per
/// superstep (never per message), so the cost is a dozen relaxed
/// sharded adds plus one filter check.
fn record_superstep_obs(m: &SuperstepMetrics) {
    obs_handles::supersteps().inc();
    obs_handles::active_vertices().add(m.active_vertices as u64);
    obs_handles::messages_sent().add(m.messages_sent as u64);
    obs_handles::messages_delivered().add(m.messages_delivered as u64);
    obs_handles::message_bytes().add(m.message_bytes as u64);
    obs_handles::buffered_messages().add(m.buffered_messages as u64);
    obs_handles::phase_compute_ns().add(m.phases.compute.as_nanos() as u64);
    obs_handles::phase_combine_ns().add(m.phases.combine.as_nanos() as u64);
    obs_handles::phase_scatter_ns().add(m.phases.scatter.as_nanos() as u64);
    obs_handles::phase_barrier_ns().add(m.phases.barrier.as_nanos() as u64);
    trace::event(
        Level::Debug,
        "engine",
        "superstep",
        &[
            ("superstep", m.superstep.into()),
            ("active_vertices", m.active_vertices.into()),
            ("messages_sent", m.messages_sent.into()),
            ("messages_delivered", m.messages_delivered.into()),
            ("message_bytes", m.message_bytes.into()),
            ("buffered_messages", m.buffered_messages.into()),
            ("compute_ns", m.phases.compute.into()),
            ("combine_ns", m.phases.combine.into()),
            ("scatter_ns", m.phases.scatter.into()),
            ("barrier_ns", m.phases.barrier.into()),
            ("elapsed_ns", m.elapsed.into()),
        ],
    );
}

/// Attribute checkpoint snapshot I/O time to the superstep that just
/// completed (the barrier it was written at) instead of letting it
/// dissolve into the next superstep's wall clock.
fn record_checkpoint_time(metrics: &mut RunMetrics, superstep: u32, took: Duration) {
    if let Some(last) = metrics.supersteps.last_mut() {
        last.checkpoint += took;
    }
    obs_handles::checkpoint_writes().inc();
    obs_handles::checkpoint_write_ns().add(took.as_nanos() as u64);
    trace::event(
        Level::Info,
        "engine::checkpoint",
        "snapshot_written",
        &[("superstep", superstep.into()), ("dur_ns", took.into())],
    );
}

/// What happens at a barrier the run continues past. Returns `true`
/// when a checkpoint snapshot was actually written, so the driver can
/// attribute the I/O time to the right superstep's metrics.
trait BarrierSink<P: VertexProgram> {
    fn on_barrier(&mut self, state: &LoopState<P>) -> Result<bool, EngineError>;
}

/// No-op sink for plain `run`.
struct NoSink;

impl<P: VertexProgram> BarrierSink<P> for NoSink {
    fn on_barrier(&mut self, _state: &LoopState<P>) -> Result<bool, EngineError> {
        Ok(false)
    }
}

/// Snapshot-writing sink honouring the checkpoint interval and any
/// scripted checkpoint corruption.
struct DirSink<'a> {
    cfg: &'a CheckpointConfig,
    fault: Option<&'a FaultPlan>,
    /// The running program's identity, written into every snapshot.
    program: String,
}

impl<P> BarrierSink<P> for DirSink<'_>
where
    P: VertexProgram,
    P::V: Snapshot,
    P::M: Snapshot,
{
    fn on_barrier(&mut self, state: &LoopState<P>) -> Result<bool, EngineError> {
        if state.superstep.is_multiple_of(self.cfg.interval()) {
            write_state_snapshot(self, state)?;
            return Ok(true);
        }
        Ok(false)
    }
}

/// Serialize `state` into a checkpoint file (field-by-field, matching
/// [`EngineCheckpoint`]'s layout, without cloning the state), then apply
/// any scripted corruption to the file that just landed.
fn write_state_snapshot<P>(sink: &DirSink<'_>, state: &LoopState<P>) -> Result<(), EngineError>
where
    P: VertexProgram,
    P::V: Snapshot,
    P::M: Snapshot,
{
    let (cfg, fault) = (sink.cfg, sink.fault);
    let mut payload = Vec::new();
    sink.program.write_snap(&mut payload);
    state.superstep.write_snap(&mut payload);
    state.values.write_snap(&mut payload);
    write_inboxes(&state.inbox, &mut payload);
    state.aggregates.write_snap(&mut payload);
    state.metrics.write_snap(&mut payload);

    std::fs::create_dir_all(&cfg.dir).map_err(|e| EngineError::Io {
        path: cfg.dir.clone(),
        source: e,
    })?;
    let path = checkpoint_path(&cfg.dir, state.superstep);
    crate::checkpoint::write_versioned_durable(&path, &payload, cfg.fsync)?;

    if let Some(f) = fault {
        if f.take_corruption(state.superstep) {
            obs_handles::faults_injected().inc();
            trace::event(
                Level::Warn,
                "engine::fault",
                "snapshot_corrupted",
                &[("superstep", state.superstep.into())],
            );
            corrupt_snapshot_file(&path)?;
        }
        if f.take_truncation(state.superstep) {
            obs_handles::faults_injected().inc();
            trace::event(
                Level::Warn,
                "engine::fault",
                "snapshot_truncated",
                &[("superstep", state.superstep.into())],
            );
            truncate_snapshot_file(&path)?;
        }
    }
    Ok(())
}

/// Flip a payload byte so the file's CRC no longer matches (the
/// `FaultPlan::corrupt_checkpoint` effect).
fn corrupt_snapshot_file(path: &std::path::Path) -> Result<(), EngineError> {
    let io = |e| EngineError::Io {
        path: path.to_path_buf(),
        source: e,
    };
    let mut bytes = std::fs::read(path).map_err(io)?;
    // Offset 16 is the first payload byte (after magic+version+len).
    if let Some(b) = bytes.get_mut(16) {
        *b ^= 0xA5;
    }
    std::fs::write(path, &bytes).map_err(io)
}

/// Cut the file in half, simulating a torn write that died mid-stream
/// (the `FaultPlan::truncate_checkpoint` effect).
fn truncate_snapshot_file(path: &std::path::Path) -> Result<(), EngineError> {
    let io = |e| EngineError::Io {
        path: path.to_path_buf(),
        source: e,
    };
    let bytes = std::fs::read(path).map_err(io)?;
    std::fs::write(path, &bytes[..bytes.len() / 2]).map_err(io)
}

/// One worker's superstep output.
struct WorkerOutput<M> {
    /// Outboxes indexed by destination chunk (post sender-combining).
    outboxes: OutboxSet<M>,
    /// Aggregate partials, one per sender block the chunk covers, in
    /// block order: each is the block's current values in slot order
    /// ([`Aggregates::flush_into`]). The buffer is recycled.
    agg_blocks: Vec<Option<AggValue>>,
    /// The sender-combining index, returned for pool recycling.
    dedup: DedupTable,
    active: usize,
    /// Sends folded into an existing outbox slot at the sender. A
    /// chunk-layout-dependent (hence non-deterministic) efficiency
    /// signal for the sender-combining fast paths.
    combine_hits: u64,
}

/// Execute one superstep for a contiguous chunk of vertices.
///
/// The inbox is read immutably (the driver double-buffers inbox sets)
/// and aggregate contributions are flushed per sender block so the
/// barrier can merge them in a thread-count-independent order.
#[allow(clippy::too_many_arguments)]
fn run_chunk<P: VertexProgram>(
    program: &P,
    graph: &Csr,
    superstep: u32,
    always_active: bool,
    chunk: usize,
    values: &mut [P::V],
    inbox: &Inbox<P::M>,
    global_aggs: &Aggregates,
    table: &ChunkTable,
    sender_combiner: Option<&dyn Combiner<P::M>>,
    block: usize,
    outboxes: OutboxSet<P::M>,
    mut dedup: DedupTable,
    mut agg_blocks: Vec<Option<AggValue>>,
) -> WorkerOutput<P::M> {
    let (start, end) = table.bounds(chunk);
    debug_assert_eq!(values.len(), end - start);
    debug_assert_eq!(inbox.vertex_count(), end - start);
    if sender_combiner.is_some() {
        dedup.begin(graph.num_vertices());
    }
    let mut ctx = ChunkContext {
        superstep,
        chunk,
        vertex: VertexId(0),
        graph,
        plane: SendPlane {
            table,
            outboxes,
            dedup,
            last: None,
            combine_hits: 0,
        },
        sender_combiner,
        local_aggs: global_aggs.fresh_local(),
        global_aggs,
        num_vertices: graph.num_vertices(),
    };
    debug_assert!(agg_blocks.is_empty());
    let mut active = 0usize;
    for (offset, value) in values.iter_mut().enumerate() {
        let gv = start + offset;
        let msgs = inbox.msgs(offset);
        if superstep == 0 || always_active || !msgs.is_empty() {
            active += 1;
            ctx.vertex = VertexId(gv as u64);
            program.compute(&mut ctx, value, msgs);
        }
        // Flush aggregate partials at block boundaries (chunk bounds are
        // block-aligned except the final `n`, so globally the flush
        // points are the same at every thread count).
        if (gv + 1) % block == 0 || gv + 1 == end {
            ctx.local_aggs.flush_into(&mut agg_blocks);
        }
    }
    WorkerOutput {
        outboxes: ctx.plane.outboxes,
        agg_blocks,
        dedup: ctx.plane.dedup,
        active,
        combine_hits: ctx.plane.combine_hits,
    }
}

/// Message-plane counters for one destination chunk's delivery.
///
/// `delivered` is counted from the destination side (the inbox length
/// after scatter) while `sent` is accumulated from the routing side, so
/// the per-superstep conservation law `sent == delivered` is an actual
/// cross-check of the scatter rather than one number copied twice.
#[derive(Clone, Copy, Default)]
struct DeliverCounts {
    sent: usize,
    bytes: usize,
    buffered: usize,
    buffered_bytes: usize,
    delivered: usize,
}

impl DeliverCounts {
    fn merge(mut self, other: DeliverCounts) -> DeliverCounts {
        self.sent += other.sent;
        self.bytes += other.bytes;
        self.buffered += other.buffered;
        self.buffered_bytes += other.buffered_bytes;
        self.delivered += other.delivered;
        self
    }
}

/// Scatter every producer's buffered envelopes for one destination chunk
/// into its flat inbox, by move. Returns the chunk's [`DeliverCounts`].
///
/// Pass 1 counts arrivals per destination and runs all user code
/// (`message_bytes`) while `inbox.data` is in a safe empty state; pass 2
/// is pure moves into reserved capacity, so a panic can never expose
/// uninitialized data (a panicking user combiner leaks the spare
/// capacity's envelopes, which is safe).
fn deliver_chunk<P: VertexProgram>(
    program: &P,
    combiner: Option<&dyn Combiner<P::M>>,
    inbox: &mut Inbox<P::M>,
    producers: &mut [OutboxBuf<P::M>],
    cursors: &mut Vec<usize>,
) -> DeliverCounts {
    let base = inbox.base;
    let len = inbox.vertex_count();
    cursors.clear();
    cursors.resize(len, 0);

    // Pass 1: arrival counts + buffered accounting. What sits in the
    // producer buffers is exactly what the message plane materialized
    // (post sender-combining), which is what the buffered_* metrics
    // measure. This also drops the previous tenants of `inbox.data`
    // (the set read two supersteps ago), in parallel across chunks.
    inbox.data.clear();
    let mut buffered = 0usize;
    let mut buffered_bytes = 0usize;
    for buf in producers.iter() {
        for (to, env) in buf.iter() {
            debug_assert!(
                to.index() >= base && to.index() - base < len,
                "envelope for {to} mis-routed to chunk [{base}, {})",
                base + len
            );
            cursors[to.index() - base] += 1;
            buffered += 1;
            buffered_bytes += program.message_bytes(&env.msg);
        }
    }

    match combiner {
        None => {
            // Counting scatter: starts = exclusive prefix sums, cursors
            // double as per-destination write positions.
            let mut total = 0usize;
            inbox.starts[0] = 0;
            for (i, c) in cursors.iter_mut().enumerate() {
                let arrivals = *c;
                *c = total;
                total += arrivals;
                inbox.starts[i + 1] = total;
            }
            inbox.data.reserve(total);
            {
                let slots = inbox.data.spare_capacity_mut();
                // Pass 2: pure moves — no user code can panic here.
                for buf in producers.iter_mut() {
                    for (to, env) in buf.drain(..) {
                        let local = to.index() - base;
                        let pos = cursors[local];
                        cursors[local] += 1;
                        slots[pos].write(env);
                    }
                }
            }
            // SAFETY: destination i's cursor swept exactly
            // `starts[i]..starts[i + 1]`; those ranges partition
            // `0..total` and each of the `total` arrivals wrote one
            // distinct slot, so all elements below `total` are
            // initialized exactly once.
            unsafe { inbox.data.set_len(total) };
            // Without combining, stored == buffered.
            DeliverCounts {
                sent: total,
                bytes: buffered_bytes,
                buffered,
                buffered_bytes,
                delivered: inbox.data.len(),
            }
        }
        Some(c) => {
            // Delivery-side combining: one slot per destination with at
            // least one arrival, folded in global sender order (exactly
            // the fold an uncombined inbox would hand the vertex).
            let mut total = 0usize;
            inbox.starts[0] = 0;
            for (i, cur) in cursors.iter_mut().enumerate() {
                total += (*cur > 0) as usize;
                // Reuse the cursor as a "slot initialized" flag.
                *cur = 0;
                inbox.starts[i + 1] = total;
            }
            inbox.data.reserve(total);
            {
                let slots = inbox.data.spare_capacity_mut();
                for producer in producers.iter_mut() {
                    let mut fold = DeliveryFold {
                        base,
                        starts: &inbox.starts,
                        seen: cursors,
                        slots,
                        producer,
                    };
                    c.fold_delivered(&mut fold);
                    assert!(
                        fold.producer.is_empty(),
                        "a combiner's delivery fold left messages unplaced"
                    );
                }
            }
            // SAFETY: `total` counts exactly the destinations with
            // arrivals; each owns the distinct slot `starts[local]`, which
            // `DeliveryFold::fold` initialized at its first arrival. Every
            // producer was drained (asserted above), so every destination
            // with an arrival had one.
            unsafe { inbox.data.set_len(total) };
            // Post-combine accounting: the metric counts stored messages
            // at their final (combined) size.
            let bytes: usize = inbox
                .data
                .iter()
                .map(|e| program.message_bytes(&e.msg))
                .sum();
            DeliverCounts {
                sent: total,
                bytes,
                buffered,
                buffered_bytes,
                delivered: inbox.data.len(),
            }
        }
    }
}

/// One producer buffer on its way into a destination chunk's inbox under
/// delivery-side combining: each destination with arrivals owns the slot
/// `starts[local]`, written by its first arrival and folded into by the
/// rest, in buffer order.
///
/// Only the engine builds one. A [`Combiner`] receives it in its hidden
/// provided `fold_delivered` method, whose body runs [`DeliveryFold::fold`]
/// in the combiner's own monomorphised code.
#[doc(hidden)]
pub struct DeliveryFold<'a, M> {
    base: usize,
    starts: &'a [usize],
    /// Per local destination: whether its slot is initialized.
    seen: &'a mut [usize],
    slots: &'a mut [MaybeUninit<Envelope<M>>],
    producer: &'a mut OutboxBuf<M>,
}

impl<M> DeliveryFold<'_, M> {
    /// Drain the producer buffer into the slots, folding with `combine`.
    #[inline]
    pub fn fold(&mut self, combine: impl Fn(&mut M, &M)) {
        for (to, env) in self.producer.drain(..) {
            let local = to.index() - self.base;
            let pos = self.starts[local];
            if self.seen[local] == 0 {
                self.slots[pos].write(env);
                self.seen[local] = 1;
            } else {
                // SAFETY: this destination's first arrival initialized
                // slot `pos` and set the flag; nothing uninitializes it.
                let acc = unsafe { self.slots[pos].assume_init_mut() };
                combine(&mut acc.msg, &env.msg);
                acc.src = Envelope::<M>::COMBINED;
            }
        }
    }
}

/// A worker's outgoing message plane for one superstep: its
/// per-destination-chunk buffers and, under an exact sender combiner,
/// the index that folds a send into the accumulator already buffered for
/// its destination.
///
/// Routing uses the chunk table's boundary search (each destination maps
/// into exactly one chunk, debug-asserted there). Folding checks the last
/// destination written first, so repeated sends to one destination skip
/// the table probe, and the dense dedup table catches the rest.
///
/// Only the engine builds one. A [`Combiner`] receives it in its hidden
/// provided `fold_sent` and `fold_along` methods, whose bodies run
/// [`SendPlane::fold`] in the combiner's own monomorphised code.
#[doc(hidden)]
pub struct SendPlane<'a, M> {
    table: &'a ChunkTable,
    /// Per-destination-chunk message buffers (recycled).
    outboxes: OutboxSet<M>,
    /// destination id → (chunk, index) of its buffered accumulator.
    dedup: DedupTable,
    /// Last destination written: (id, chunk, index).
    last: Option<(u64, usize, usize)>,
    /// Sends folded at the sender instead of appended.
    combine_hits: u64,
}

impl<M> SendPlane<'_, M> {
    /// Fold `msg` from `src` into the accumulator buffered for `to`, or
    /// buffer it as that accumulator.
    #[inline]
    pub fn fold(&mut self, src: VertexId, to: VertexId, msg: M, combine: impl Fn(&mut M, &M)) {
        let found = match self.last {
            Some((id, c, i)) if id == to.0 => Some((c, i)),
            _ => self.dedup.get(to.index()),
        };
        if let Some((c, i)) = found {
            let acc = &mut self.outboxes[c][i].1;
            combine(&mut acc.msg, &msg);
            acc.src = Envelope::<M>::COMBINED;
            self.last = Some((to.0, c, i));
            self.combine_hits += 1;
            return;
        }
        let chunk = self.table.chunk_of(to.index());
        let idx = self.outboxes[chunk].len();
        self.outboxes[chunk].push((to, Envelope::new(src, msg)));
        self.dedup.insert(to.index(), chunk, idx);
        self.last = Some((to.0, chunk, idx));
    }

    /// Buffer `msg` from `src` for `to` as it is.
    #[inline]
    fn push(&mut self, src: VertexId, to: VertexId, msg: M) {
        let chunk = self.table.chunk_of(to.index());
        self.outboxes[chunk].push((to, Envelope::new(src, msg)));
    }

    /// Buffer `msg(edge)` from `src` along a sorted neighbour slice.
    /// Chunks are contiguous id ranges, so each destination chunk takes
    /// one `partition_point` and one `extend`, with no per-message
    /// `chunk_of`.
    fn push_along(
        &mut self,
        src: VertexId,
        ids: &[VertexId],
        weights: &[f64],
        msg: &dyn Fn(EdgeRef) -> M,
    ) {
        debug_assert!(ids.is_sorted(), "adjacency of {src} is not sorted");
        let mut i = 0;
        while i < ids.len() {
            let chunk = self.table.chunk_of(ids[i].index());
            let end = self.table.bounds(chunk).1;
            let j = i + ids[i..].partition_point(|t| t.index() < end);
            self.outboxes[chunk].extend(ids[i..j].iter().zip(&weights[i..j]).map(
                |(&neighbor, &weight)| {
                    let m = msg(EdgeRef { neighbor, weight });
                    (neighbor, Envelope::new(src, m))
                },
            ));
            i = j;
        }
    }
}

/// The engine's own [`Context`] implementation.
struct ChunkContext<'a, M> {
    superstep: u32,
    chunk: usize,
    vertex: VertexId,
    graph: &'a Csr,
    plane: SendPlane<'a, M>,
    /// Exact combiner to fold at the sender, if any.
    sender_combiner: Option<&'a dyn Combiner<M>>,
    local_aggs: Aggregates,
    global_aggs: &'a Aggregates,
    num_vertices: usize,
}

impl<M> Context<M> for ChunkContext<'_, M> {
    fn superstep(&self) -> u32 {
        self.superstep
    }

    fn chunk(&self) -> usize {
        self.chunk
    }

    fn vertex(&self) -> VertexId {
        self.vertex
    }

    fn graph(&self) -> &Csr {
        self.graph
    }

    fn send(&mut self, to: VertexId, msg: M) {
        assert!(
            to.index() < self.num_vertices,
            "message sent to nonexistent vertex {to} (graph has {} vertices)",
            self.num_vertices
        );
        match self.sender_combiner {
            Some(c) => c.fold_sent(&mut self.plane, self.vertex, to, msg),
            None => self.plane.push(self.vertex, to, msg),
        }
    }

    fn send_along(&mut self, dir: Direction, msg: &dyn Fn(EdgeRef) -> M) {
        let (ids, weights) = self.graph.adjacency(self.vertex, dir);
        match self.sender_combiner {
            Some(c) => c.fold_along(&mut self.plane, self.vertex, ids, weights, msg),
            None => self.plane.push_along(self.vertex, ids, weights, msg),
        }
    }

    fn aggregate(&mut self, name: &str, value: AggValue) {
        self.local_aggs.contribute(name, value);
    }

    fn prev_aggregate(&self, name: &str) -> Option<AggValue> {
        self.global_aggs.previous(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggOp;
    use crate::message::Combiner;
    use ariadne_graph::generators::regular::{cycle, path, star};
    use ariadne_graph::GraphBuilder;

    /// Flood the minimum id through the graph (WCC on the out-direction).
    struct MinFlood;
    impl VertexProgram for MinFlood {
        type V = u64;
        type M = u64;
        fn init(&self, v: VertexId, _: &Csr) -> u64 {
            v.0
        }
        fn compute(&self, ctx: &mut dyn Context<u64>, value: &mut u64, msgs: &[Envelope<u64>]) {
            let best = msgs.iter().map(|e| e.msg).min().unwrap_or(*value);
            if ctx.superstep() == 0 {
                ctx.send_to_out_neighbors(*value);
            } else if best < *value {
                *value = best;
                ctx.send_to_out_neighbors(best);
            }
        }
    }

    #[test]
    fn min_flood_on_cycle() {
        let g = cycle(6);
        let r = Engine::new(EngineConfig::sequential()).run(&MinFlood, &g);
        assert!(r.values.iter().all(|&v| v == 0));
        // Needs ~n supersteps to propagate all the way around.
        assert!(r.supersteps() >= 5, "supersteps = {}", r.supersteps());
    }

    #[test]
    fn terminates_when_no_messages() {
        let g = path(3);
        let r = Engine::new(EngineConfig::sequential()).run(&MinFlood, &g);
        // Path 0->1->2: converged quickly; run ends on message silence.
        assert_eq!(r.values, vec![0, 0, 0]);
        assert!(r.supersteps() <= 4);
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = ariadne_graph::generators::rmat(ariadne_graph::generators::RmatConfig {
            scale: 9,
            edge_factor: 4,
            ..Default::default()
        });
        let seq = Engine::new(EngineConfig::sequential()).run(&MinFlood, &g);
        let par = Engine::new(EngineConfig::parallel(4)).run(&MinFlood, &g);
        assert_eq!(seq.values, par.values);
        assert_eq!(seq.supersteps(), par.supersteps());
    }

    #[test]
    fn thread_count_does_not_change_metrics() {
        let g = ariadne_graph::generators::rmat(ariadne_graph::generators::RmatConfig {
            scale: 8,
            edge_factor: 4,
            ..Default::default()
        });
        let base = Engine::new(EngineConfig::sequential()).run(&MinFlood, &g);
        for threads in [2usize, 3, 7] {
            let r = Engine::new(EngineConfig::parallel(threads)).run(&MinFlood, &g);
            assert_eq!(r.values, base.values, "{threads} threads");
            assert_eq!(r.supersteps(), base.supersteps(), "{threads} threads");
            for (a, b) in r.metrics.supersteps.iter().zip(&base.metrics.supersteps) {
                assert_eq!(
                    (a.active_vertices, a.messages_sent, a.message_bytes),
                    (b.active_vertices, b.messages_sent, b.message_bytes),
                    "superstep {} diverged at {threads} threads",
                    a.superstep
                );
            }
        }
    }

    /// Counts supersteps via always_active + max cap.
    struct StepCounter;
    impl VertexProgram for StepCounter {
        type V = u32;
        type M = ();
        fn init(&self, _: VertexId, _: &Csr) -> u32 {
            0
        }
        fn compute(&self, _: &mut dyn Context<()>, value: &mut u32, _: &[Envelope<()>]) {
            *value += 1;
        }
        fn always_active(&self) -> bool {
            true
        }
        fn max_supersteps(&self) -> u32 {
            5
        }
    }

    #[test]
    fn always_active_runs_to_cap() {
        let g = path(2);
        let r = Engine::new(EngineConfig::sequential()).run(&StepCounter, &g);
        assert_eq!(r.supersteps(), 5);
        assert_eq!(r.values, vec![5, 5]);
    }

    /// Never halts and never caps itself.
    struct Unbounded;
    impl VertexProgram for Unbounded {
        type V = u32;
        type M = ();
        fn init(&self, _: VertexId, _: &Csr) -> u32 {
            0
        }
        fn compute(&self, _: &mut dyn Context<()>, value: &mut u32, _: &[Envelope<()>]) {
            *value += 1;
        }
        fn always_active(&self) -> bool {
            true
        }
    }

    #[test]
    fn engine_cap_stops_a_program_that_never_halts() {
        let g = path(2);
        let r = Engine::new(EngineConfig::sequential()).run(&Unbounded, &g);
        assert_eq!(r.supersteps(), MAX_SUPERSTEPS);
        assert_eq!(r.values, vec![MAX_SUPERSTEPS; 2]);
    }

    /// Uses an aggregator to stop once the sum of values stabilizes.
    struct AggHalt;
    impl VertexProgram for AggHalt {
        type V = f64;
        type M = ();
        fn init(&self, _: VertexId, _: &Csr) -> f64 {
            1.0
        }
        fn compute(&self, ctx: &mut dyn Context<()>, value: &mut f64, _: &[Envelope<()>]) {
            *value *= 0.5;
            ctx.aggregate("total", AggValue::F64(*value));
        }
        fn always_active(&self) -> bool {
            true
        }
        fn aggregators(&self) -> Vec<(String, AggOp)> {
            vec![("total".into(), AggOp::Sum)]
        }
        fn should_halt(&self, _s: u32, aggs: &Aggregates) -> bool {
            aggs.current("total").map(|v| v.as_f64()).unwrap_or(1.0) < 0.1
        }
    }

    #[test]
    fn aggregator_halt() {
        let g = path(2);
        let r = Engine::new(EngineConfig::sequential()).run(&AggHalt, &g);
        // total = 2 * 0.5^s < 0.1 => s = 5.
        assert_eq!(r.supersteps(), 5);
        assert!(r.aggregates.previous("total").unwrap().as_f64() < 0.1);
    }

    #[test]
    fn float_aggregates_bit_identical_across_threads() {
        // f64 sums are grouping-sensitive; the per-block
        // partial merge must make them thread-invariant anyway.
        let g = ariadne_graph::generators::rmat(ariadne_graph::generators::RmatConfig {
            scale: 8,
            edge_factor: 4,
            ..Default::default()
        });
        let base = Engine::new(EngineConfig::sequential()).run(&AggHalt, &g);
        for threads in [2usize, 3, 7] {
            let r = Engine::new(EngineConfig::parallel(threads)).run(&AggHalt, &g);
            assert_eq!(r.aggregates, base.aggregates, "{threads} threads");
            assert_eq!(r.supersteps(), base.supersteps(), "{threads} threads");
            assert_eq!(
                r.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                base.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{threads} threads"
            );
        }
    }

    /// Echoes received messages back; sends its own id at step 0.
    struct SourceTracker;
    impl VertexProgram for SourceTracker {
        type V = Vec<u64>;
        type M = u64;
        fn init(&self, _: VertexId, _: &Csr) -> Vec<u64> {
            Vec::new()
        }
        fn compute(
            &self,
            ctx: &mut dyn Context<u64>,
            value: &mut Vec<u64>,
            msgs: &[Envelope<u64>],
        ) {
            for e in msgs {
                value.push(e.src.0);
            }
            if ctx.superstep() == 0 {
                ctx.send_to_out_neighbors(ctx.vertex().0);
            }
        }
    }

    #[test]
    fn envelopes_carry_sources() {
        let g = star(4);
        let r = Engine::new(EngineConfig::sequential()).run(&SourceTracker, &g);
        for leaf in 1..4 {
            assert_eq!(r.values[leaf], vec![0]);
        }
    }

    /// Sends to a vertex by id that is not a neighbour (Query 4 scenario).
    struct ByIdSender;
    impl VertexProgram for ByIdSender {
        type V = u64;
        type M = u64;
        fn init(&self, _: VertexId, _: &Csr) -> u64 {
            0
        }
        fn compute(&self, ctx: &mut dyn Context<u64>, value: &mut u64, msgs: &[Envelope<u64>]) {
            *value += msgs.len() as u64;
            if ctx.superstep() == 0 && ctx.vertex() == VertexId(0) {
                ctx.send(VertexId(2), 99); // 0 -> 2 is not an edge below
            }
        }
    }

    #[test]
    fn send_by_id_to_non_neighbor_delivers() {
        let mut b = GraphBuilder::new();
        b.add_edge(VertexId(0), VertexId(1), 1.0);
        b.ensure_vertex(VertexId(2));
        let g = b.build();
        let r = Engine::new(EngineConfig::sequential()).run(&ByIdSender, &g);
        assert_eq!(r.values[2], 1);
    }

    #[test]
    #[should_panic(expected = "nonexistent vertex")]
    fn send_out_of_range_panics() {
        struct Bad;
        impl VertexProgram for Bad {
            type V = ();
            type M = ();
            fn init(&self, _: VertexId, _: &Csr) {}
            fn compute(&self, ctx: &mut dyn Context<()>, _: &mut (), _: &[Envelope<()>]) {
                ctx.send(VertexId(999), ());
            }
        }
        let g = path(2);
        let _ = Engine::new(EngineConfig::sequential()).run(&Bad, &g);
    }

    /// Min-combined flood: same fixpoint, fewer stored messages.
    struct CombinedFlood;
    impl VertexProgram for CombinedFlood {
        type V = u64;
        type M = u64;
        fn init(&self, v: VertexId, _: &Csr) -> u64 {
            v.0
        }
        fn compute(&self, ctx: &mut dyn Context<u64>, value: &mut u64, msgs: &[Envelope<u64>]) {
            let best = msgs.iter().map(|e| e.msg).min().unwrap_or(*value);
            if ctx.superstep() == 0 {
                ctx.send_to_out_neighbors(*value);
            } else if best < *value {
                *value = best;
                ctx.send_to_out_neighbors(best);
            }
        }
        fn combiner(&self) -> Option<Box<dyn Combiner<u64>>> {
            Some(Box::new(crate::message::MinCombiner))
        }
    }

    /// [`CombinedFlood`] without its combiner, as a capture run sees it.
    struct UncombinedFlood;
    impl VertexProgram for UncombinedFlood {
        type V = u64;
        type M = u64;
        fn init(&self, v: VertexId, g: &Csr) -> u64 {
            CombinedFlood.init(v, g)
        }
        fn compute(&self, ctx: &mut dyn Context<u64>, value: &mut u64, msgs: &[Envelope<u64>]) {
            CombinedFlood.compute(ctx, value, msgs)
        }
    }

    #[test]
    fn combiner_reduces_traffic_same_result() {
        // Two vertices both pointing at vertex 2.
        let mut b = GraphBuilder::new();
        b.add_edge(VertexId(0), VertexId(2), 1.0);
        b.add_edge(VertexId(1), VertexId(2), 1.0);
        let g = b.build();

        let with = Engine::new(EngineConfig::default()).run(&CombinedFlood, &g);
        let without = Engine::new(EngineConfig::default()).run(&UncombinedFlood, &g);
        assert_eq!(with.values, without.values);
        assert!(with.metrics.total_messages() < without.metrics.total_messages());
    }

    #[test]
    fn sender_side_combining_reduces_buffering() {
        // Two same-chunk senders, one destination. The exact Min
        // combiner merges at the sender: one envelope is ever buffered,
        // where the uncombined run buffers both sends.
        let mut b = GraphBuilder::new();
        b.add_edge(VertexId(0), VertexId(2), 1.0);
        b.add_edge(VertexId(1), VertexId(2), 1.0);
        let g = b.build();

        let combined = Engine::new(EngineConfig::default()).run(&CombinedFlood, &g);
        let raw = Engine::new(EngineConfig::default()).run(&UncombinedFlood, &g);
        assert_eq!(combined.values, raw.values);
        let (c0, r0) = (&combined.metrics.supersteps[0], &raw.metrics.supersteps[0]);
        assert_eq!((c0.buffered_messages, c0.messages_sent), (1, 1));
        assert_eq!((r0.buffered_messages, r0.messages_sent), (2, 2));
    }

    #[test]
    fn exact_combiner_is_thread_invariant() {
        let g = ariadne_graph::generators::rmat(ariadne_graph::generators::RmatConfig {
            scale: 8,
            edge_factor: 4,
            ..Default::default()
        });
        let base = Engine::new(EngineConfig::sequential()).run(&CombinedFlood, &g);
        for threads in [2usize, 5] {
            let r = Engine::new(EngineConfig::parallel(threads)).run(&CombinedFlood, &g);
            assert_eq!(r.values, base.values, "{threads} threads");
            assert_eq!(r.supersteps(), base.supersteps(), "{threads} threads");
            // Post-combining stored-message counts are thread-invariant
            // (one per reached destination); buffered_* are not, because
            // sender-side partials depend on the chunk layout.
            for (a, b) in r.metrics.supersteps.iter().zip(&base.metrics.supersteps) {
                assert_eq!(
                    (a.active_vertices, a.messages_sent, a.message_bytes),
                    (b.active_vertices, b.messages_sent, b.message_bytes),
                    "superstep {} diverged at {threads} threads",
                    a.superstep
                );
            }
        }
    }

    /// Concatenating combiner whose accumulator *grows*, to pin down the
    /// byte accounting: metrics must reflect post-combine sizes.
    struct ConcatCombiner;
    impl Combiner<Vec<u64>> for ConcatCombiner {
        fn combine(&self, acc: &mut Vec<u64>, incoming: &Vec<u64>) {
            acc.extend_from_slice(incoming);
        }
    }

    struct ConcatProgram;
    impl VertexProgram for ConcatProgram {
        type V = usize;
        type M = Vec<u64>;
        fn init(&self, _: VertexId, _: &Csr) -> usize {
            0
        }
        fn compute(
            &self,
            ctx: &mut dyn Context<Vec<u64>>,
            value: &mut usize,
            msgs: &[Envelope<Vec<u64>>],
        ) {
            *value += msgs.iter().map(|e| e.msg.len()).sum::<usize>();
            if ctx.superstep() == 0 {
                ctx.send_to_out_neighbors(vec![ctx.vertex().0]);
            }
        }
        fn combiner(&self) -> Option<Box<dyn Combiner<Vec<u64>>>> {
            Some(Box::new(ConcatCombiner))
        }
        fn message_bytes(&self, msg: &Vec<u64>) -> usize {
            8 * msg.len()
        }
    }

    #[test]
    fn combiner_bytes_count_post_combine() {
        // 0 and 1 each send an 8-byte message to 2; the combined
        // accumulator holds both ids (16 bytes). The old accounting
        // subtracted the incoming size from the running total and
        // reported 8.
        let mut b = GraphBuilder::new();
        b.add_edge(VertexId(0), VertexId(2), 1.0);
        b.add_edge(VertexId(1), VertexId(2), 1.0);
        let g = b.build();

        let r = Engine::new(EngineConfig::default()).run(&ConcatProgram, &g);
        let s0 = &r.metrics.supersteps[0];
        assert_eq!(s0.messages_sent, 1, "one stored message");
        assert_eq!(s0.message_bytes, 16, "post-combine size");
        assert_eq!(s0.buffered_messages, 2, "both envelopes buffered");
        assert_eq!(s0.buffered_bytes, 16);
        assert_eq!(r.values[2], 2, "both ids arrived");
    }

    #[test]
    fn empty_graph_returns_immediately() {
        let g = Csr::empty(0);
        let r = Engine::new(EngineConfig::sequential()).run(&MinFlood, &g);
        assert!(r.values.is_empty());
        assert_eq!(r.supersteps(), 0);
    }

    /// Each superstep, vertices read the previous superstep's reduction.
    struct AggReader;
    impl VertexProgram for AggReader {
        type V = Vec<Option<f64>>;
        type M = ();
        fn init(&self, _: VertexId, _: &Csr) -> Self::V {
            Vec::new()
        }
        fn compute(&self, ctx: &mut dyn Context<()>, value: &mut Self::V, _: &[Envelope<()>]) {
            value.push(ctx.prev_aggregate("count").map(|v| v.as_f64()));
            ctx.aggregate("count", AggValue::F64(1.0));
        }
        fn aggregators(&self) -> Vec<(String, AggOp)> {
            vec![("count".into(), AggOp::Sum)]
        }
        fn always_active(&self) -> bool {
            true
        }
        fn max_supersteps(&self) -> u32 {
            3
        }
    }

    #[test]
    fn prev_aggregate_visible_next_superstep() {
        let g = path(3);
        let r = Engine::new(EngineConfig::sequential()).run(&AggReader, &g);
        // Superstep 0 sees nothing; supersteps 1 and 2 see all three
        // contributions from the previous round.
        for v in &r.values {
            assert_eq!(v.as_slice(), &[None, Some(3.0), Some(3.0)]);
        }
    }

    #[test]
    fn crash_and_resume_is_bit_identical() {
        let g = cycle(8);
        let dir =
            std::env::temp_dir().join(format!("ariadne-engine-resume-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        let baseline = Engine::new(EngineConfig::sequential()).run(&MinFlood, &g);

        let plan = FaultPlan::new();
        plan.kill_at_superstep(3);
        let engine = Engine::new(EngineConfig {
            checkpoint: Some(CheckpointConfig::new(&dir, 2)),
            fault: Some(Arc::clone(&plan)),
            ..EngineConfig::sequential()
        });
        match engine.run_checkpointed(&MinFlood, &g) {
            Err(EngineError::InjectedCrash { superstep: 3 }) => {}
            other => panic!("expected injected crash at superstep 3, got {other:?}"),
        }

        let resumed = engine.resume(&MinFlood, &g).expect("resume");
        assert_eq!(resumed.values, baseline.values);
        assert_eq!(resumed.supersteps(), baseline.supersteps());
        assert_eq!(resumed.aggregates, baseline.aggregates);
        for (a, b) in resumed
            .metrics
            .supersteps
            .iter()
            .zip(&baseline.metrics.supersteps)
        {
            assert_eq!(
                (
                    a.superstep,
                    a.active_vertices,
                    a.messages_sent,
                    a.message_bytes
                ),
                (
                    b.superstep,
                    b.active_vertices,
                    b.messages_sent,
                    b.message_bytes
                ),
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Never sends: the inbox a run starts with is the one it ends with.
    struct Silent;
    impl VertexProgram for Silent {
        type V = u64;
        type M = u64;
        fn init(&self, v: VertexId, _: &Csr) -> u64 {
            v.0
        }
        fn compute(&self, _: &mut dyn Context<u64>, value: &mut u64, _: &[Envelope<u64>]) {
            *value += 1;
        }
    }

    /// Both ways a run starts build the flat inbox directly for the
    /// run's chunk table: a fresh run gets one empty inbox per chunk
    /// (and a run that never sends terminates on it), a resumed run cuts
    /// the checkpoint's whole-graph inbox at the chunk bounds — which
    /// write back as the same bytes — and finishes bit-identically.
    #[test]
    fn fresh_and_resumed_runs_build_the_flat_inbox_directly() {
        let g = cycle(100);
        for threads in [1usize, 3] {
            let engine = Engine::new(EngineConfig::parallel(threads));
            let table = engine.chunk_table(&g);
            assert_eq!(table.num_chunks(), threads);

            let fresh = fresh_state(&Silent, &g, &table);
            assert_eq!(fresh.inbox.len(), threads);
            assert!(fresh.inbox.iter().all(|c| c.data.is_empty()));
            let covered: usize = fresh.inbox.iter().map(|c| c.vertex_count()).sum();
            assert_eq!(covered, 100);
            let r = engine.run(&Silent, &g);
            assert_eq!(r.supersteps(), 1, "{threads} threads");
            assert_eq!(r.metrics.total_messages(), 0);
            assert_eq!(r.values, (1..=100).collect::<Vec<u64>>());

            let (mut starts, mut data) = (vec![0], Vec::new());
            for v in 0..100u64 {
                data.extend((0..v % 3).map(|k| Envelope::new(VertexId(k), v)));
                starts.push(data.len());
            }
            let whole = Inbox::new(starts, data).unwrap();
            let mut wire = Vec::new();
            whole.write_snap(&mut wire);
            assert_eq!(Inbox::read_snap(&mut wire.as_slice()), Ok(whole.clone()));
            let chunks = split_inbox(whole, &table);
            assert_eq!(chunks.len(), threads);
            let mut flat = Vec::new();
            write_inboxes(&chunks, &mut flat);
            assert_eq!(flat, wire, "{threads} threads: inbox wire bytes");

            let dir = std::env::temp_dir().join(format!(
                "ariadne-engine-flat-inbox-{}-{threads}",
                std::process::id()
            ));
            std::fs::remove_dir_all(&dir).ok();
            let plan = FaultPlan::new();
            plan.kill_at_superstep(5);
            let engine = Engine::new(EngineConfig {
                checkpoint: Some(CheckpointConfig::new(&dir, 2)),
                fault: Some(plan),
                ..EngineConfig::parallel(threads)
            });
            assert!(engine.run_checkpointed(&MinFlood, &g).is_err());
            let resumed = engine.resume(&MinFlood, &g).expect("resume");
            let baseline = Engine::new(EngineConfig::sequential()).run(&MinFlood, &g);
            assert_eq!(resumed.values, baseline.values, "{threads} threads");
            assert_eq!(resumed.supersteps(), baseline.supersteps());
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn resume_without_config_is_typed_error() {
        let g = path(2);
        let engine = Engine::new(EngineConfig::sequential());
        assert!(matches!(
            engine.resume(&MinFlood, &g),
            Err(EngineError::NotConfigured)
        ));
    }

    /// Regression: a snapshot whose value table matches the graph but
    /// whose inbox table is short (CRC-valid bytes, inconsistent
    /// cross-field state — hand-built or bit-rotted) used to panic with
    /// "inbox shorter than partition table" inside the partition walk.
    /// Resume must reject it with a typed error instead.
    #[test]
    fn resume_from_inconsistent_inbox_is_typed_error() {
        let g = cycle(8);
        let ckpt: EngineCheckpoint<u64, u64> = EngineCheckpoint {
            program: String::new(),
            superstep: 1,
            values: vec![0u64; g.num_vertices()],
            inbox: Inbox::new(vec![0; g.num_vertices() - 2], Vec::new()).unwrap(),
            aggregates: Aggregates::new(Vec::new()),
            metrics: RunMetrics::default(),
        };
        let engine = Engine::new(EngineConfig::default());
        match engine.resume_from(&MinFlood, &g, ckpt) {
            Err(EngineError::InboxMismatch {
                snapshot_inboxes,
                graph_vertices,
            }) => {
                assert_eq!((snapshot_inboxes, graph_vertices), (5, 8));
            }
            other => panic!("expected InboxMismatch, got {other:?}"),
        }
    }

    #[test]
    fn metrics_track_activity() {
        let g = path(4);
        let r = Engine::new(EngineConfig::sequential()).run(&MinFlood, &g);
        assert_eq!(r.metrics.supersteps[0].active_vertices, 4);
        assert!(r.metrics.supersteps[0].messages_sent > 0);
        assert!(r.metrics.total_message_bytes() > 0);
        assert!(r.metrics.total_buffered_messages() >= r.metrics.total_messages());
        assert!(r.metrics.peak_buffered_bytes() > 0);
    }

    /// A vertex program's panic reaches the caller with the program's
    /// own payload at every thread count, whichever chunk it panicked in.
    #[test]
    fn vertex_program_panic_keeps_its_payload() {
        struct Boom;
        impl VertexProgram for Boom {
            type V = ();
            type M = ();
            fn init(&self, _: VertexId, _: &Csr) {}
            fn compute(&self, ctx: &mut dyn Context<()>, _: &mut (), _: &[Envelope<()>]) {
                if ctx.vertex() == VertexId(150) {
                    panic!("boom");
                }
            }
        }
        let g = path(200);
        for threads in [1usize, 2, 3] {
            let engine = Engine::new(EngineConfig::parallel(threads));
            assert_eq!(engine.chunk_table(&g).num_chunks(), threads);
            let payload = std::panic::catch_unwind(|| engine.run(&Boom, &g))
                .expect_err("the program's panic reaches the caller");
            let message = payload.downcast_ref::<&str>().copied();
            assert_eq!(message, Some("boom"), "at {threads} threads");
        }
    }
}
