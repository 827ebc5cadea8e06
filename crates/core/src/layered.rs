//! Layered offline evaluation (§5.1), parallelized.
//!
//! Directed queries evaluate over the captured provenance one layer (=
//! superstep) at a time — ascending for forward queries, descending for
//! backward ones (Lemma 5.3: at most n+1 layer rounds). Each round:
//!
//! 1. the layer's stored tuples are injected into their owning vertices'
//!    partitions (and then dropped — only one layer is materialized).
//!    Every read is **pruned**: a segment is decoded only if the query
//!    reads its predicate *at that layer*, by the layer bounds its
//!    analysis inferred ([`AnalyzedQuery::layers`]). A backward lineage
//!    from `(α, σ)`, say, reads `superstep` at σ, `send_message` below
//!    it and `value` at 0. Every other segment is skipped, and counted,
//!    without a decode or (for spilled segments) a disk read; a store
//!    that holds rows under one of the query's IDB names is read whole.
//!    Rounds run only for the layers from the first to the last one any
//!    predicate is read at: before them a round has nothing to inject or
//!    evaluate, and after them the flush does what the round would. Every
//!    read is **projected**: stored columns the query provably never
//!    observes ([`crate::columns`]) are not materialized. And it is
//!    **strict**: any damage fails the replay typed, as every store read
//!    does. Neither pruning nor projection can change a result set, so
//!    neither is optional. A replay covers the stored layers
//!    [`LayeredConfig::layers`] names, all of them by default;
//! 2. every touched vertex runs its incremental local fixpoint;
//! 3. fresh tuples of shipped predicates travel one hop, to the union of
//!    the vertex's out- and in-neighbours (a superset of every
//!    analytic's communication graph), and are joined by their receivers
//!    in the next round.
//!
//! After the last layer a **fixpoint flush** keeps evaluating and
//! shipping until no vertex holds an unprocessed replica: multi-hop
//! joins that close in the final layer still need their replicas to
//! travel the remaining hops.
//!
//! # Parallelism and determinism
//!
//! The vertex range is cut into contiguous chunks by the degree-weighted
//! [`ChunkTable`] (the layout the engine's flat message plane uses) and
//! every chunk's vertex states live, for the whole run, in a slab owned
//! by one worker of a crew spawned once per replay (`crate::crew`;
//! chunk `c` belongs to worker `c mod threads`; the calling thread is
//! worker 0 and the coordinator that reads the store). A round is three
//! crew runs, each over every worker's own chunks:
//!
//! * **inject** — the coordinator has decoded the layer once, into one
//!   [`RowBlock`] per predicate, and listed per chunk the `(block, row)`
//!   of every row the chunk owns, in store order; each worker inserts
//!   its chunks' rows straight from those shared, read-only blocks. The
//!   coordinator drops the blocks before the next run;
//! * **eval** — each worker evaluates its pending vertices in ascending
//!   order and records what they ship in the chunk's outbox;
//! * **apply** — each worker walks *all* outboxes in chunk order and
//!   applies the entries whose (sorted) neighbour list cuts its range.
//!
//! Chunks are contiguous ascending ranges, so outboxes in chunk order
//! **are** ascending source-vertex order whatever the chunk layout: every
//! receiving partition sees its replicas in the same sequence, and so
//! every relation's insertion order and every counter is identical at any
//! thread count. `threads = 1` runs the same rounds on the calling
//! thread; it is the reference, not a special case. Outboxes, row lists
//! and pending lists keep their buffers from round to round.
//!
//! After the last round one more run, **finish**, has each worker walk
//! its slabs in ascending vertex order, move out only the IDB tuples
//! *located at* that vertex ([`QueryState::into_owned`]), and drop the
//! rest; the coordinator appends the per-chunk lists in chunk order. A
//! result relation's scan order is therefore ascending owner vertex, then
//! that owner's insertion order — the same at every thread count. Every
//! tuple a slab holds is allocated and freed by the worker that owns the
//! slab.
//!
//! A worker stops at its first failing chunk, and the run reports the
//! lowest failing chunk's typed error, so the error does not depend on
//! thread timing. A panic on any worker is re-raised on the caller once
//! the run is over, and wins over a typed error of the same run.
//!
//! A slab holds states only for vertices actually touched (plus one
//! `u32` per vertex of a touched chunk to find them) — replaying a small
//! capture over a big graph does not allocate a [`QueryState`] per graph
//! vertex.
//!
//! The driver is the same per-vertex machinery as online evaluation
//! ([`crate::state::QueryState`]); only the tuple source differs (replay
//! from the store instead of live generation).

use crate::columns::column_masks;
use crate::compile::CompiledQuery;
use crate::crew::{self, Crew};
use crate::session::AriadneError;
use crate::state::QueryState;
use ariadne_graph::{ChunkTable, Csr, VertexId};
use ariadne_obs::trace::{self, Level};
use ariadne_pql::analysis::Layers;
use ariadne_pql::{
    AnalyzedQuery, Database, Direction, EvalScratch, EvalStats, Evaluator, PqlError, Tuple, Value,
};
use ariadne_provenance::{
    LayerFilter, LayerRead, ProvStore, RouteTable, RowBlock, Rows, StoreError,
};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::RwLock;
use std::time::Instant;

/// Cached global-registry handles for layered-replay metrics. Round,
/// tuple and vertex counts are functions of the captured provenance and
/// the query alone (the BSP round protocol makes them thread-invariant),
/// so they are flagged deterministic; phase timings are wall-clock and
/// are not.
mod obs_handles {
    use ariadne_obs::{static_counter, static_histogram};

    static_histogram!(
        query_latency,
        "layered_query_latency_ns",
        "end-to-end wall-clock nanoseconds per layered query replay",
        false
    );
    static_histogram!(
        inject_latency,
        "layered_inject_latency_ns",
        "per-query wall-clock nanoseconds reading and injecting layers",
        false
    );
    static_histogram!(
        eval_latency,
        "layered_eval_latency_ns",
        "per-query wall-clock nanoseconds in evaluation rounds",
        false
    );
    static_histogram!(
        merge_latency,
        "layered_merge_latency_ns",
        "per-query wall-clock nanoseconds merging outboxes and results",
        false
    );

    static_counter!(
        rounds,
        "layered_rounds_total",
        "layer rounds replayed by layered evaluation",
        true
    );
    static_counter!(
        flush_rounds,
        "layered_flush_rounds_total",
        "post-layer fixpoint flush rounds until shipped replicas drain",
        true
    );
    static_counter!(
        injected_tuples,
        "layered_injected_tuples_total",
        "stored tuples injected into vertex partitions during replay",
        true
    );
    static_counter!(
        evaluated_vertices,
        "layered_evaluated_vertices_total",
        "vertex-local fixpoint evaluations across all rounds",
        true
    );
    static_counter!(
        shipped_tuples,
        "layered_shipped_tuples_total",
        "replica tuples shipped one hop between vertices",
        true
    );
    static_counter!(
        phase_inject_ns,
        "layered_phase_inject_ns_total",
        "nanoseconds spent reading and injecting layers (wall clock)",
        false
    );
    static_counter!(
        phase_eval_ns,
        "layered_phase_eval_ns_total",
        "nanoseconds spent in per-vertex evaluation rounds (wall clock)",
        false
    );
    static_counter!(
        phase_merge_ns,
        "layered_phase_merge_ns_total",
        "nanoseconds spent merging per-chunk outboxes (wall clock)",
        false
    );
}

/// Chunks per worker thread. Chunks are dealt to the workers round
/// robin, so more of them interleave a skewed touched set more finely.
const CHUNKS_PER_THREAD: usize = 4;

/// How a layered replay runs. The default is the sequential reference
/// over every layer; [`crate::session::Ariadne`] passes its engine thread
/// count through.
#[derive(Clone, Debug)]
pub struct LayeredConfig {
    /// Worker threads per round. `1` runs the same round protocol on
    /// the calling thread.
    pub threads: usize,
    /// Replay only the stored layers in `lo..=hi` (clamped to the store's
    /// extent; an empty intersection is an empty run). `None` replays
    /// every layer. The serving plane resumes a query from a layer offset
    /// this way and keys its cache on the *effective* range
    /// ([`LayeredRun::layer_range`]). Within the range the round protocol
    /// is unchanged, so results stay bit-identical at every thread count.
    /// A sub-range answers the query *over that slice of the capture*: a
    /// backward query's layer-0 structural pre-injection happens only when
    /// layer 0 is inside the range, so compact-representation captures
    /// should include layer 0 when they need their static relations.
    /// Within the range, rounds run only for the layers the query's layer
    /// bounds can read (see the module docs), so [`LayeredRun::layers`]
    /// may count fewer rounds than the range has layers.
    pub layers: Option<(u32, u32)>,
}

impl Default for LayeredConfig {
    fn default() -> Self {
        LayeredConfig::parallel(1)
    }
}

impl LayeredConfig {
    /// A config for `threads` workers (at least one) over every layer.
    pub fn parallel(threads: usize) -> Self {
        LayeredConfig {
            threads: threads.max(1),
            layers: None,
        }
    }
}

/// The outcome of a layered evaluation.
#[derive(Debug, Default)]
pub struct LayeredRun {
    /// Merged query tables across vertices.
    pub query_results: Database,
    /// Layer rounds run: the layers of [`LayeredRun::layer_range`] the
    /// query can read a row at, and those between them (Lemma 5.3 bound:
    /// `max_step + 1`; the fixpoint flush is counted separately).
    pub layers: u32,
    /// Post-layer fixpoint rounds until the pending set drained.
    pub flush_rounds: u32,
    /// Total replica tuples shipped between vertices.
    pub shipped_tuples: usize,
    /// Stored tuples injected into vertex partitions.
    pub injected_tuples: usize,
    /// Vertex-local fixpoint evaluations across all rounds.
    pub evaluated_vertices: usize,
    /// Store segments decoded for this replay.
    pub segments_read: usize,
    /// Store segments skipped: of predicates the query never reads, or
    /// reads at no layer that holds them (no decode, and for spilled
    /// segments no disk read).
    pub segments_skipped: usize,
    /// Encoded store bytes decoded.
    pub bytes_read: usize,
    /// Encoded store bytes the filter avoided touching.
    pub bytes_skipped: usize,
    /// Stored column blocks skipped by column-selective replay (their
    /// segments were decoded, the masked columns were not materialized).
    pub cols_skipped: usize,
    /// Encoded bytes of those skipped column blocks.
    pub col_bytes_skipped: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Query-evaluation counters summed in chunk order
    /// (thread-invariant).
    pub query_stats: EvalStats,
    /// Wall-clock nanoseconds reading and injecting layers.
    pub phase_inject_ns: u64,
    /// Wall-clock nanoseconds in evaluation rounds (workers included).
    pub phase_eval_ns: u64,
    /// Wall-clock nanoseconds merging per-chunk outboxes.
    pub phase_merge_ns: u64,
    /// The inclusive layer range this run replayed, after clamping any
    /// requested range to the store's layers; rounds ran for the part of
    /// it the query can read. `(0, 0)` with `layers == 0` means nothing
    /// was replayed. Cache keys built over partial replays should use
    /// this, not the requested range, so `0..=u32::MAX` and the store's
    /// true extent share one key.
    pub layer_range: (u32, u32),
}

impl LayeredRun {
    fn empty(threads: usize) -> Self {
        LayeredRun {
            threads,
            ..LayeredRun::default()
        }
    }

    /// Charge one layer read's segments and bytes to the run.
    fn count(&mut self, read: &LayerRead<RowBlock>) {
        self.segments_read += read.segments_read;
        self.segments_skipped += read.segments_skipped;
        self.bytes_read += read.bytes_read;
        self.bytes_skipped += read.bytes_skipped;
        self.cols_skipped += read.cols_skipped;
        self.col_bytes_skipped += read.col_bytes_skipped;
    }
}

/// The filters a replay reads its layers through, pruned and projected
/// (see the module docs), and the layers it runs rounds for. Masked
/// columns decode as `Unit`, which only singleton variables ever bind.
struct Reads {
    /// `(first layer, filter)`, ascending: each filter holds from its
    /// first layer up to the next one's.
    spans: Vec<(u32, LayerFilter)>,
    /// The layers from the first to the last one any filter wants a
    /// predicate at, within the requested range; `None` when none does.
    hull: Option<(u32, u32)>,
}

impl Reads {
    /// The reads of a replay of `query` over layers `lo..=hi` of `store`.
    fn new(store: &ProvStore, query: &AnalyzedQuery, lo: u32, hi: u32) -> Reads {
        let masks = column_masks(query);
        let filter = |preds: BTreeSet<String>| {
            (masks.iter()).fold(LayerFilter::for_preds(preds), |f, (pred, mask)| {
                f.with_mask(pred, mask.clone())
            })
        };
        // Rows a capture stored under an IDB name are joined like derived
        // ones, and the bounds do not see them: read them, and every
        // predicate, at every layer.
        if query.idbs.keys().any(|pred| store.holds(pred)) {
            let mut preds = query.edbs.clone();
            preds.extend(query.idbs.keys().cloned());
            return Reads {
                spans: vec![(lo, filter(preds))],
                hull: Some((lo, hi)),
            };
        }
        let mut starts = BTreeSet::from([lo]);
        let mut hull: Option<(u32, u32)> = None;
        for layers in query.layers.values() {
            let Layers::Range { lo: from, hi: to } = *layers else {
                continue;
            };
            let (from, to) = (from.max(lo), to.unwrap_or(u32::MAX).min(hi));
            if from > to {
                continue;
            }
            starts.insert(from);
            if to < hi {
                starts.insert(to + 1);
            }
            hull = Some(hull.map_or((from, to), |(a, b)| (a.min(from), b.max(to))));
        }
        let spans = (starts.into_iter())
            .map(|start| {
                let wanted = (query.layers.iter()).filter(|(_, layers)| layers.contains(start));
                (
                    start,
                    filter(wanted.map(|(pred, _)| pred.clone()).collect()),
                )
            })
            .collect();
        Reads { spans, hull }
    }

    /// The filter layer `layer` is read through.
    fn filter(&self, layer: u32) -> &LayerFilter {
        let at = self.spans.partition_point(|(start, _)| *start <= layer);
        &self.spans[at - 1].1
    }

    /// Whether the replay runs a round for `layer`.
    fn runs(&self, layer: u32) -> bool {
        self.hull.is_some_and(|(lo, hi)| lo <= layer && layer <= hi)
    }
}

/// What one chunk's vertices shipped in a round, flattened so the buffers
/// are reused: per shipping vertex (ascending) a sorted, deduplicated
/// neighbour list and one run of fresh tuples per shipped predicate.
/// Entries and runs record where their slices *end*; each starts where
/// the previous one ended.
#[derive(Default)]
struct Outbox {
    /// Per shipping vertex: ends of its `neighbors` and `runs` slices.
    entries: Vec<(usize, usize)>,
    neighbors: Vec<VertexId>,
    /// Per run: index into [`Pool::shipped_preds`], end of its `tuples`.
    runs: Vec<(usize, usize)>,
    tuples: Vec<Tuple>,
}

impl Outbox {
    fn clear(&mut self) {
        self.entries.clear();
        self.neighbors.clear();
        self.runs.clear();
        self.tuples.clear();
    }

    /// Record the fresh shippable tuples of `vertex`; returns how many
    /// replicas that ships (tuples × neighbours).
    fn collect(&mut self, pool: &Pool<'_>, vertex: VertexId, state: &mut QueryState) -> usize {
        let own = Value::Id(vertex.0);
        let (runs_from, tuples_from) = (self.runs.len(), self.tuples.len());
        for (p, pred) in pool.shipped_preds.iter().enumerate() {
            let before = self.tuples.len();
            // Only tuples located here ship: replicas are not forwarded.
            let fresh = state.fresh_window(pred).iter();
            self.tuples
                .extend(fresh.filter(|t| t.first() == Some(&own)).cloned());
            if self.tuples.len() > before {
                self.runs.push((p, self.tuples.len()));
            }
        }
        if self.runs.len() == runs_from {
            return 0;
        }
        // Send replicas along both edge directions: analytics like WCC
        // message their in-neighbours too, so the communication graph is
        // a superset of the out-adjacency. Shipping to a superset of the
        // true routes is always sound (replicas are true tuples at their
        // true locations); receivers whose message predicates don't join
        // them simply ignore them. Both lists are sorted: merge them.
        let neighbors_from = self.neighbors.len();
        let (a, b) = (
            pool.graph.out_neighbors(vertex),
            pool.graph.in_neighbors(vertex),
        );
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            let next = match (a.get(i), b.get(j)) {
                (Some(&x), Some(&y)) => x.min(y),
                (Some(&x), None) | (None, Some(&x)) => x,
                (None, None) => unreachable!("loop condition"),
            };
            i += usize::from(a.get(i) == Some(&next));
            j += usize::from(b.get(j) == Some(&next));
            self.neighbors.push(next);
        }
        self.entries.push((self.neighbors.len(), self.runs.len()));
        (self.tuples.len() - tuples_from) * (self.neighbors.len() - neighbors_from)
    }
}

/// One touched vertex of a slab.
struct Slot {
    vertex: usize,
    /// Whether the slot is already in [`Slab::pending`].
    queued: bool,
    state: QueryState,
}

/// The states of one chunk's touched vertices. Owned by one worker for
/// the whole run.
#[derive(Default)]
struct Slab {
    chunk: usize,
    /// The chunk's vertex range `lo..hi`.
    lo: usize,
    hi: usize,
    /// `vertex - lo` → slot index + 1, `0` for an untouched vertex.
    /// Allocated zeroed at the chunk's first touch, so pages of vertices
    /// never touched are never written.
    slot_of: Vec<u32>,
    slots: Vec<Slot>,
    /// Slots to evaluate next round, each at most once.
    pending: Vec<u32>,
    /// How many leading slots own pre-injected layer-0 tuples (backward
    /// replay); they are evaluated when the replay reaches layer 0.
    preloaded: usize,
    evaluated: usize,
    shipped: usize,
    stats: EvalStats,
    /// Evaluation buffers shared by every vertex of the slab.
    scratch: EvalScratch,
    /// Per entry of [`Pool::idbs`]: the tuples the finish run moved out.
    results: Vec<Vec<Tuple>>,
}

impl Slab {
    fn slot(&mut self, vertex: usize) -> usize {
        if self.slot_of.is_empty() {
            self.slot_of = vec![0; self.hi - self.lo];
        }
        let entry = &mut self.slot_of[vertex - self.lo];
        if *entry == 0 {
            self.slots.push(Slot {
                vertex,
                queued: false,
                state: QueryState::new(),
            });
            *entry = u32::try_from(self.slots.len()).expect("a chunk holds < 2^32 vertices");
        }
        *entry as usize - 1
    }

    fn enqueue(&mut self, slot: usize) {
        if !std::mem::replace(&mut self.slots[slot].queued, true) {
            self.pending.push(slot as u32);
        }
    }

    /// Insert the layer's rows this chunk owns, in store order, straight
    /// from the shared blocks. `preload` injects without queueing the
    /// owners (layer-0 pre-injection); `wake_preloaded` queues the
    /// pre-injected owners (the replay reached layer 0).
    fn inject(&mut self, pool: &Pool<'_>, preload: bool, wake_preloaded: bool) {
        let layer = pool.layer.read().expect("layer lock");
        for &(block, row) in &layer.rows[self.chunk] {
            let (pred, rows) = &layer.blocks[block as usize];
            let row = rows.row(row as usize);
            let owner = row[0].as_id().expect("only located rows are listed");
            let slot = self.slot(owner as usize);
            let rel = self.slots[slot].state.db.relation_mut(pred, row.len());
            rel.insert_slice(row);
            if !preload {
                self.enqueue(slot);
            }
        }
        if preload {
            self.preloaded = self.slots.len();
        }
        if wake_preloaded {
            (0..self.preloaded).for_each(|slot| self.enqueue(slot));
        }
    }

    /// Evaluate the pending vertices in ascending order, recording what
    /// each ships in the chunk's outbox instead of delivering in place
    /// (rounds are bulk-synchronous).
    fn evaluate(&mut self, pool: &Pool<'_>) -> Result<(), PqlError> {
        let mut outbox = pool.outboxes[self.chunk].write().expect("outbox lock");
        outbox.clear();
        let mut pending = std::mem::take(&mut self.pending);
        pending.sort_unstable_by_key(|&slot| self.slots[slot as usize].vertex);
        let _span = trace::span(
            Level::Trace,
            "layered",
            "chunk",
            &[
                ("chunk", self.chunk.into()),
                ("vertices", pending.len().into()),
            ],
        );
        for &slot in &pending {
            let slot = &mut self.slots[slot as usize];
            slot.queued = false;
            let vertex = VertexId(slot.vertex as u64);
            slot.state
                .statics(&pool.routes, &mut [], pool.graph, vertex);
            slot.state.evaluate_stats(
                pool.evaluator,
                vertex,
                &mut self.stats,
                &mut self.scratch,
            )?;
            self.shipped += outbox.collect(pool, vertex, &mut slot.state);
        }
        self.evaluated += pending.len();
        pending.clear();
        self.pending = pending;
        Ok(())
    }

    /// Deliver every replica addressed to this chunk: all outboxes in
    /// chunk order, so each receiver sees its sources ascending.
    fn apply(&mut self, pool: &Pool<'_>) {
        for outbox in &pool.outboxes {
            let outbox = outbox.read().expect("outbox lock");
            let (mut neighbors_from, mut runs_from, mut tuples_from) = (0, 0, 0);
            for &(neighbors_to, runs_to) in &outbox.entries {
                let neighbors = &outbox.neighbors[neighbors_from..neighbors_to];
                let mine = &neighbors[neighbors.partition_point(|v| v.index() < self.lo)
                    ..neighbors.partition_point(|v| v.index() < self.hi)];
                for &(pred, tuples_to) in &outbox.runs[runs_from..runs_to] {
                    let tuples = &outbox.tuples[tuples_from..tuples_to];
                    for nb in mine {
                        let slot = self.slot(nb.index());
                        let state = &mut self.slots[slot].state;
                        state.inject(pool.shipped_preds[pred], tuples);
                        self.enqueue(slot);
                    }
                    tuples_from = tuples_to;
                }
                (neighbors_from, runs_from) = (neighbors_to, runs_to);
            }
        }
        if !self.pending.is_empty() {
            pool.pending.store(true, Ordering::SeqCst);
        }
    }

    /// Move the IDB tuples located at each touched vertex, ascending,
    /// onto the slab's result lists, and drop everything else the slab
    /// holds — replicas included — on this thread. A stored row that
    /// gave an IDB relation another arity than the query's head is
    /// refused, as a mixed-arity layer is.
    fn finish(&mut self, pool: &Pool<'_>) -> Result<(), AriadneError> {
        self.results.resize_with(pool.idbs.len(), Vec::new);
        let mut slots = std::mem::take(&mut self.slots);
        (self.slot_of, self.pending) = (Vec::new(), Vec::new());
        self.scratch = EvalScratch::default();
        slots.sort_unstable_by_key(|slot| slot.vertex);
        for slot in slots {
            let find = |name: &str| pool.idbs.binary_search_by(|(n, _)| (*n).cmp(name)).ok();
            for (idb, arity, owned) in slot.state.into_owned(VertexId(slot.vertex as u64), find) {
                let (name, want) = pool.idbs[idb];
                if arity != want {
                    let error = StoreError::mixed_arity(name, want, arity);
                    return Err(AriadneError::Store(error));
                }
                self.results[idb].extend(owned);
            }
        }
        Ok(())
    }
}

/// One decoded layer, published read-only to the crew for its inject
/// run.
struct Layer {
    /// Each predicate's rows, as the store decoded them.
    blocks: Vec<(String, RowBlock)>,
    /// Per chunk: `(block, row)` of every row the chunk owns, in store
    /// order.
    rows: Vec<Vec<(u32, u32)>>,
}

/// What the workers of one replay share. Mutable vertex state is not
/// here: it sits in the [`Slab`]s, each held by exactly one worker.
struct Pool<'a> {
    graph: &'a Csr,
    evaluator: &'a Evaluator,
    /// Routes every static graph EDB row the query reads into the
    /// database.
    routes: RouteTable,
    /// Shipped predicates in `BTreeSet` (sorted) order — fixed, so every
    /// vertex ships and receives them in the same predicate order.
    shipped_preds: Vec<&'a str>,
    /// The query's IDB predicates and their arities, in name order.
    idbs: Vec<(&'a str, usize)>,
    table: ChunkTable,
    /// Written by the coordinator between rounds, read by all in inject.
    layer: RwLock<Layer>,
    /// Per chunk: written by its owner in eval, read by all in apply.
    outboxes: Vec<RwLock<Outbox>>,
    /// Whether any slab has vertices to evaluate next round.
    pending: AtomicBool,
}

/// A worker's chunks, in chunk order.
type Share<'s> = Vec<&'s mut Slab>;

/// Run `f` over every worker's chunks in chunk order, each worker
/// stopping at its first failing chunk. The lowest failing chunk's error
/// is the run's, so it does not depend on thread timing.
fn each<'p>(
    crew: &Crew<'p, Share<'_>>,
    f: impl Fn(&mut Slab) -> Result<(), AriadneError> + Send + Sync + 'p,
) -> Result<(), AriadneError> {
    let failures = crew.run(move |share| {
        (share.iter_mut()).find_map(|slab| f(slab).err().map(|e| (slab.chunk, e)))
    });
    let lowest = failures
        .into_iter()
        .flatten()
        .min_by_key(|(chunk, _)| *chunk);
    lowest.map_or(Ok(()), |(_, e)| Err(e))
}

impl Pool<'_> {
    /// Coordinator: read `layer` and list each chunk's rows of it. Rows
    /// for vertices outside the graph are skipped, not a panic; a
    /// predicate whose rows differ in arity is refused, as
    /// [`ProvStore::to_database`] refuses it.
    fn load(
        &self,
        store: &ProvStore,
        layer: u32,
        filter: &LayerFilter,
        run: &mut LayeredRun,
    ) -> Result<(), AriadneError> {
        let read = store
            .layer_blocks(layer, filter)
            .map_err(AriadneError::Store)?;
        for (pred, rows) in &read.tuples {
            if let Some((arity, other)) = rows.mixed_arities() {
                return Err(AriadneError::Store(StoreError::mixed_arity(
                    pred, arity, other,
                )));
            }
        }
        run.count(&read);
        let mut shared = self.layer.write().expect("layer lock");
        let Layer { blocks, rows } = &mut *shared;
        for (block, (_, decoded)) in (0..).zip(&read.tuples) {
            let len = u32::try_from(decoded.len()).expect("a block holds under 2^32 rows");
            for (row, values) in (0..len).zip(decoded.rows()) {
                let owner = values.first().and_then(Value::as_id).map(|v| v as usize);
                if let Some(vi) = owner.filter(|&vi| vi < self.graph.num_vertices()) {
                    run.injected_tuples += 1;
                    rows[self.table.chunk_of(vi)].push((block, row));
                }
            }
        }
        *blocks = read.tuples;
        Ok(())
    }

    /// Coordinator: count every extent of `layer` as skipped, decoding
    /// and reading none of them.
    fn skip(
        &self,
        store: &ProvStore,
        layer: u32,
        run: &mut LayeredRun,
    ) -> Result<(), AriadneError> {
        let none = LayerFilter::for_preds(BTreeSet::new());
        let read = store
            .layer_blocks(layer, &none)
            .map_err(AriadneError::Store)?;
        run.count(&read);
        Ok(())
    }

    /// Coordinator: run one round on the crew and account its phases;
    /// `started` is when the round's inject work (the layer read) began.
    /// [`Slab::inject`] says what the two flags do.
    fn round<'p>(
        &'p self,
        crew: &Crew<'p, Share<'_>>,
        preload: bool,
        wake_preloaded: bool,
        started: Instant,
        run: &mut LayeredRun,
    ) -> Result<(), AriadneError> {
        self.pending.store(false, Ordering::SeqCst);
        crew.run(move |share| {
            for slab in share {
                slab.inject(self, preload, wake_preloaded);
            }
        });
        // The row lists keep their buffers for the next layer.
        let mut layer = self.layer.write().expect("layer lock");
        layer.blocks.clear();
        layer.rows.iter_mut().for_each(Vec::clear);
        drop(layer);
        let injected = Instant::now();
        let evaluated = each(crew, |slab| slab.evaluate(self).map_err(AriadneError::Pql));
        run.phase_inject_ns += (injected - started).as_nanos() as u64;
        run.phase_eval_ns += injected.elapsed().as_nanos() as u64;
        // A failed eval leaves outboxes half-written; the run is over.
        evaluated?;
        let applying = Instant::now();
        crew.run(move |share| {
            for slab in share {
                slab.apply(self);
            }
        });
        run.phase_merge_ns += applying.elapsed().as_nanos() as u64;
        Ok(())
    }
}

/// Evaluate `query` over the captured `store` in layered fashion:
/// parallel chunked replay with pruned, projected, strict layer reads.
/// Results are bit-identical at every thread count (see the module docs
/// for the argument). [`LayeredConfig::layers`] restricts the replay to a
/// layer range.
pub fn run_layered_with(
    graph: &Csr,
    store: &ProvStore,
    query: &CompiledQuery,
    config: &LayeredConfig,
) -> Result<LayeredRun, AriadneError> {
    let run_started = Instant::now();
    let direction = query.direction();
    if !direction.supports_layered() {
        return Err(AriadneError::UnsupportedMode {
            mode: "layered",
            direction,
        });
    }
    let threads = config.threads.max(1);
    let Some(max_step) = store.max_superstep() else {
        return Ok(LayeredRun::empty(threads));
    };
    let (layer_lo, layer_hi) = match config.layers {
        Some((lo, hi)) => (lo, hi.min(max_step)),
        None => (0, max_step),
    };
    if layer_lo > layer_hi {
        return Ok(LayeredRun::empty(threads));
    }

    let ascending = direction != Direction::Backward;
    let analyzed = query.query();
    let reads = Reads::new(store, analyzed, layer_lo, layer_hi);

    let chunks = threads.saturating_mul(CHUNKS_PER_THREAD);
    let table = ChunkTable::degree_weighted(graph, chunks, 1);
    let mut slabs: Vec<Slab> = (0..table.num_chunks())
        .map(|chunk| {
            let (lo, hi) = table.bounds(chunk);
            Slab {
                chunk,
                lo,
                hi,
                ..Slab::default()
            }
        })
        .collect();
    let pool = Pool {
        graph,
        evaluator: query.evaluator().as_ref(),
        routes: RouteTable::reading(&analyzed.edbs),
        shipped_preds: analyzed.shipped.iter().map(String::as_str).collect(),
        idbs: analyzed
            .idbs
            .iter()
            .map(|(n, &a)| (n.as_str(), a))
            .collect(),
        layer: RwLock::new(Layer {
            blocks: Vec::new(),
            rows: vec![Vec::new(); slabs.len()],
        }),
        outboxes: slabs.iter().map(|_| RwLock::default()).collect(),
        pending: AtomicBool::new(false),
        table,
    };
    let mut run = LayeredRun::empty(threads);
    run.layer_range = (layer_lo, layer_hi);
    let span = trace::span(
        Level::Debug,
        "layered",
        "run",
        &[
            ("max_step", u64::from(max_step).into()),
            ("layer_lo", u64::from(layer_lo).into()),
            ("layer_hi", u64::from(layer_hi).into()),
            ("threads", threads.into()),
            ("ascending", ascending.into()),
        ],
    );

    // Chunk `c` belongs to worker `c % threads` for the whole run; the
    // calling thread is worker 0 and the coordinator.
    let mut shares: Vec<Share<'_>> = (0..threads).map(|_| Vec::new()).collect();
    for slab in &mut slabs {
        shares[slab.chunk % threads].push(slab);
    }
    let (finished, merge_span) = crew::scope(shares, |crew| {
        // Descending replay visits layer 0 last, but layer 0 carries the
        // *structural* annotations of the compact representation (static
        // relations like Query 11's `prov_edges`, graph EDBs, initial
        // values) that backward rules join at every layer. Pre-inject it:
        // sound because derivations are monotone and directed backward
        // queries are negation-free over layer data.
        let preloaded = !ascending && layer_lo == 0;
        if preloaded {
            let t0 = Instant::now();
            pool.load(store, 0, reads.filter(0), &mut run)?;
            pool.round(crew, true, false, t0, &mut run)?;
        }

        let order: Box<dyn Iterator<Item = u32>> = if ascending {
            Box::new(layer_lo..=layer_hi)
        } else {
            Box::new((layer_lo..=layer_hi).rev())
        };
        for layer in order {
            // Outside the hull the query can read no row: the round would
            // inject nothing, and before the hull nothing is pending yet,
            // after it the flush does what the round would. Its extents
            // count as skipped (a pre-injected layer 0 counted its own).
            let wake_preloaded = preloaded && layer == 0;
            if !reads.runs(layer) {
                if !wake_preloaded {
                    pool.skip(store, layer, &mut run)?;
                }
                continue;
            }
            run.layers += 1;
            obs_handles::rounds().inc();
            let _layer_span = trace::span(
                Level::Trace,
                "layered",
                "layer",
                &[("layer", u64::from(layer).into())],
            );
            // Inject this layer's tuples into their owners (layer 0 of a
            // descending replay is already in: just wake its owners),
            // evaluate everything touched, ship the fresh tuples.
            let t0 = Instant::now();
            if !wake_preloaded {
                pool.load(store, layer, reads.filter(layer), &mut run)?;
            }
            pool.round(crew, false, wake_preloaded, t0, &mut run)?;
        }

        // Fixpoint flush: vertices holding just-delivered replicas keep
        // evaluating *and shipping* until nothing is pending — a
        // multi-hop join closing in the last layer still needs its
        // replicas to travel the remaining hops. Terminates because
        // shipping marks advance monotonically: each (vertex, predicate,
        // tuple) ships at most once, so rounds without fresh derivations
        // leave nothing pending.
        while pool.pending.load(Ordering::SeqCst) {
            run.flush_rounds += 1;
            obs_handles::flush_rounds().inc();
            pool.round(crew, false, false, Instant::now(), &mut run)?;
        }

        // Finish: every worker moves its slabs' own IDB tuples out and
        // frees the rest itself.
        let merge_span = trace::span(Level::Trace, "layered", "merge_results", &[]);
        let finished = Instant::now();
        each(crew, |slab| slab.finish(&pool))?;
        Ok::<_, AriadneError>((finished, merge_span))
    })?;

    // Append the per-chunk lists in chunk order: ascending owner vertex.
    for slab in slabs {
        run.evaluated_vertices += slab.evaluated;
        run.shipped_tuples += slab.shipped;
        run.query_stats.merge(&slab.stats);
        for (tuples, &(name, arity)) in slab.results.into_iter().zip(&pool.idbs) {
            if !tuples.is_empty() {
                let merged = run.query_results.relation_mut(name, arity);
                merged.reserve(tuples.len());
                for t in tuples {
                    merged.insert(t);
                }
            }
        }
    }
    run.phase_merge_ns += finished.elapsed().as_nanos() as u64;
    drop(merge_span);

    obs_handles::injected_tuples().add(run.injected_tuples as u64);
    obs_handles::evaluated_vertices().add(run.evaluated_vertices as u64);
    obs_handles::shipped_tuples().add(run.shipped_tuples as u64);
    obs_handles::phase_inject_ns().add(run.phase_inject_ns);
    obs_handles::phase_eval_ns().add(run.phase_eval_ns);
    obs_handles::phase_merge_ns().add(run.phase_merge_ns);
    obs_handles::inject_latency().record(run.phase_inject_ns);
    obs_handles::eval_latency().record(run.phase_eval_ns);
    obs_handles::merge_latency().record(run.phase_merge_ns);
    obs_handles::query_latency().record(run_started.elapsed().as_nanos() as u64);
    drop(span);
    trace::event(
        Level::Debug,
        "layered",
        "run_done",
        &[
            ("layers", u64::from(run.layers).into()),
            ("flush_rounds", u64::from(run.flush_rounds).into()),
            ("shipped_tuples", run.shipped_tuples.into()),
            ("evaluated_vertices", run.evaluated_vertices.into()),
            ("segments_read", run.segments_read.into()),
            ("segments_skipped", run.segments_skipped.into()),
        ],
    );
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, compile_with};
    use crate::session::AriadneError;
    use ariadne_graph::generators::regular::path;
    use ariadne_pql::{Catalog, Params, UdfRegistry, Value};
    use ariadne_provenance::{ProvStore, StoreConfig};
    use std::collections::BTreeSet;

    /// The standard catalog plus a test-local EDB predicate.
    fn catalog_with(pred: &str, arity: usize) -> Catalog {
        let mut c = Catalog::standard();
        c.register(pred, arity);
        c
    }

    #[test]
    fn empty_store_returns_empty_results() {
        let g = path(3);
        let store = ProvStore::new(StoreConfig::in_memory());
        let q = compile("p(x, i) :- superstep(x, i).", Params::new()).unwrap();
        let run = run_layered_with(&g, &store, &q, &LayeredConfig::default()).unwrap();
        assert_eq!(run.layers, 0);
        assert_eq!(run.flush_rounds, 0);
        assert_eq!(run.shipped_tuples, 0);
        assert!(run.query_results.is_empty());
    }

    #[test]
    fn mixed_query_rejected() {
        let g = path(3);
        let store = ProvStore::new(StoreConfig::in_memory());
        let q = compile(
            "t(y, i) :- superstep(y, i).
             s(z, i) :- superstep(z, i).
             r(x, i) :- t(y, j), receive_message(x, y, m, i), s(z, k), send_message(x, z, m, i).",
            Params::new(),
        )
        .unwrap();
        match run_layered_with(&g, &store, &q, &LayeredConfig::default()) {
            Err(AriadneError::UnsupportedMode { mode, .. }) => assert_eq!(mode, "layered"),
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn local_query_over_replayed_layers() {
        // Hand-build a store: vertex 1 active at supersteps 0 and 2.
        let g = path(3);
        let mut store = ProvStore::new(StoreConfig::in_memory());
        store
            .ingest(0, "superstep", vec![vec![Value::Id(1), Value::Int(0)]])
            .unwrap();
        store
            .ingest(2, "superstep", vec![vec![Value::Id(1), Value::Int(2)]])
            .unwrap();
        let q = compile("active(x, i) :- superstep(x, i).", Params::new()).unwrap();
        let run = run_layered_with(&g, &store, &q, &LayeredConfig::default()).unwrap();
        assert_eq!(run.layers, 3); // layers 0, 1 (empty), 2
        assert_eq!(run.query_results.len("active"), 2);
    }

    #[test]
    fn out_of_range_locations_skipped() {
        // Tuples for vertices outside the graph are ignored, not a panic.
        let g = path(2);
        let mut store = ProvStore::new(StoreConfig::in_memory());
        store
            .ingest(0, "superstep", vec![vec![Value::Id(99), Value::Int(0)]])
            .unwrap();
        let q = compile("active(x, i) :- superstep(x, i).", Params::new()).unwrap();
        let run = run_layered_with(&g, &store, &q, &LayeredConfig::default()).unwrap();
        assert_eq!(run.query_results.len("active"), 0);
    }

    /// A replay over `LayeredConfig::layers` replays exactly the requested
    /// layer slice: a full-range call equals the unbounded one, a
    /// sub-range only sees that slice's tuples, an out-of-extent range
    /// clamps, and a disjoint range is an empty run.
    #[test]
    fn layer_range_replay_is_reentrant() {
        let g = path(3);
        let mut store = ProvStore::new(StoreConfig::in_memory());
        for s in 0..4u32 {
            store
                .ingest(
                    s,
                    "superstep",
                    vec![vec![Value::Id(1), Value::Int(s as i64)]],
                )
                .unwrap();
        }
        let q = compile("active(x, i) :- superstep(x, i).", Params::new()).unwrap();
        let range = |lo, hi| LayeredConfig {
            layers: Some((lo, hi)),
            ..LayeredConfig::default()
        };

        let full = run_layered_with(&g, &store, &q, &LayeredConfig::default()).unwrap();
        assert_eq!(full.layer_range, (0, 3));

        let also_full = run_layered_with(&g, &store, &q, &range(0, 99)).unwrap();
        assert_eq!(also_full.layer_range, (0, 3), "range clamps to the extent");
        assert_eq!(
            also_full.query_results.sorted("active"),
            full.query_results.sorted("active")
        );

        let slice = run_layered_with(&g, &store, &q, &range(1, 2)).unwrap();
        assert_eq!(slice.layer_range, (1, 2));
        assert_eq!(slice.layers, 2);
        assert_eq!(slice.query_results.len("active"), 2, "layers 1 and 2 only");

        let empty = run_layered_with(&g, &store, &q, &range(7, 9)).unwrap();
        assert_eq!(empty.layers, 0);
        assert!(empty.query_results.is_empty());
    }

    #[test]
    fn pruning_skips_unreferenced_predicates() {
        let g = path(3);
        let mut store = ProvStore::new(StoreConfig::in_memory());
        store
            .ingest(0, "superstep", vec![vec![Value::Id(1), Value::Int(0)]])
            .unwrap();
        store
            .ingest(
                0,
                "value",
                vec![vec![Value::Id(1), Value::Float(0.5), Value::Int(0)]],
            )
            .unwrap();
        store
            .ingest(
                0,
                "send_message",
                vec![vec![
                    Value::Id(1),
                    Value::Id(2),
                    Value::Float(0.5),
                    Value::Int(0),
                ]],
            )
            .unwrap();
        let q = compile("active(x, i) :- superstep(x, i).", Params::new()).unwrap();

        let run = run_layered_with(&g, &store, &q, &LayeredConfig::default()).unwrap();
        assert_eq!(run.segments_read, 1, "only superstep decoded");
        assert_eq!(run.segments_skipped, 2);
        assert!(run.bytes_skipped > 0);
        assert_partitions_store_bytes(&store, &run);
        assert_matches_centralized(&g, &store, &q, &run);
    }

    /// A full replay's decoded and skipped bytes add up to every stored
    /// byte: what pruning skips is exactly what it does not read.
    fn assert_partitions_store_bytes(store: &ProvStore, run: &LayeredRun) {
        let stored: usize = store.segment_index().map(|seg| seg.bytes).sum();
        assert_eq!(run.bytes_read + run.bytes_skipped, stored);
    }

    /// Pruned, projected replay answers what the centralized oracle does.
    fn assert_matches_centralized(g: &Csr, store: &ProvStore, q: &CompiledQuery, run: &LayeredRun) {
        let oracle = crate::session::Ariadne::default()
            .centralized(g, store, q)
            .unwrap();
        for pred in q.query().idbs.keys() {
            assert_eq!(
                run.query_results.sorted(pred),
                oracle.sorted(pred),
                "{pred}"
            );
        }
    }

    /// Regression (the PR's foregrounded bug): a 2-hop backward chain
    /// whose inputs land in the *last replayed* layer. Descending replay
    /// visits layer 0 last; `trace` must then propagate hop by hop
    /// through the flush — the old single-pass flush evaluated once,
    /// derived the first hop's replica, and dropped it, so the chain
    /// never closed.
    #[test]
    fn two_hop_chain_closing_in_last_layer_completes() {
        // path(4): 0 -> 1 -> 2 -> 3. Seed `mark` at vertex 3; trace
        // follows send_message edges backward: 2, then 1, then 0.
        let g = path(4);
        let mut store = ProvStore::new(StoreConfig::in_memory());
        for (src, dst) in [(0u64, 1u64), (1, 2), (2, 3)] {
            store
                .ingest(
                    0,
                    "send_message",
                    vec![vec![
                        Value::Id(src),
                        Value::Id(dst),
                        Value::Float(1.0),
                        Value::Int(0),
                    ]],
                )
                .unwrap();
        }
        store
            .ingest(0, "mark", vec![vec![Value::Id(3), Value::Int(0)]])
            .unwrap();
        // Something in a later layer so layer 0 is genuinely the last
        // round of a descending replay.
        store
            .ingest(1, "superstep", vec![vec![Value::Id(0), Value::Int(1)]])
            .unwrap();

        let q = compile_with(
            "trace(x, i) :- mark(x, i).
             trace(x, i) :- send_message(x, y, m, i), trace(y, i).",
            Params::new(),
            &catalog_with("mark", 2),
            UdfRegistry::standard(),
        )
        .unwrap();
        assert_eq!(q.direction(), Direction::Backward);
        let run = run_layered_with(&g, &store, &q, &LayeredConfig::default()).unwrap();
        let traced: BTreeSet<u64> = run
            .query_results
            .sorted("trace")
            .iter()
            .filter_map(|t| t.first().and_then(|v| v.as_id()))
            .collect();
        assert_eq!(
            traced,
            [0, 1, 2, 3].into_iter().collect(),
            "multi-hop chain closing in the last layer must complete \
             (flush_rounds = {})",
            run.flush_rounds
        );
        assert!(
            run.flush_rounds >= 2,
            "chain needs >= 2 flush rounds to close, got {}",
            run.flush_rounds
        );
    }

    /// The forward twin: a chain over the final layer's tuples that can
    /// only close after the last layer round.
    #[test]
    fn forward_chain_in_final_layer_completes() {
        let g = path(4);
        let mut store = ProvStore::new(StoreConfig::in_memory());
        store
            .ingest(0, "superstep", vec![vec![Value::Id(0), Value::Int(0)]])
            .unwrap();
        // All chain inputs land in the FINAL forward layer (1).
        for (src, dst) in [(0u64, 1u64), (1, 2), (2, 3)] {
            store
                .ingest(
                    1,
                    "receive_message",
                    vec![vec![
                        Value::Id(dst),
                        Value::Id(src),
                        Value::Float(1.0),
                        Value::Int(1),
                    ]],
                )
                .unwrap();
        }
        store
            .ingest(1, "seed", vec![vec![Value::Id(0), Value::Int(1)]])
            .unwrap();
        let q = compile_with(
            "reach(x, i) :- seed(x, i).
             reach(x, i) :- receive_message(x, y, m, i), reach(y, i).",
            Params::new(),
            &catalog_with("seed", 2),
            UdfRegistry::standard(),
        )
        .unwrap();
        assert_eq!(q.direction(), Direction::Forward);
        let run = run_layered_with(&g, &store, &q, &LayeredConfig::default()).unwrap();
        let reached: BTreeSet<u64> = run
            .query_results
            .sorted("reach")
            .iter()
            .filter_map(|t| t.first().and_then(|v| v.as_id()))
            .collect();
        assert_eq!(
            reached,
            [0, 1, 2, 3].into_iter().collect(),
            "forward chain over the final layer must complete"
        );
        assert!(run.flush_rounds >= 2, "got {}", run.flush_rounds);
    }

    /// Projection skips stored payload columns the query never observes,
    /// without changing the result set, and byte-accounts the skipped
    /// column blocks.
    #[test]
    fn projection_skips_unobserved_columns() {
        let g = path(6);
        let mut store = ProvStore::new(StoreConfig::in_memory());
        for s in 0..3u32 {
            for v in 0..5u64 {
                store
                    .ingest(
                        s,
                        "receive_message",
                        vec![vec![
                            Value::Id(v + 1),
                            Value::Id(v),
                            // A fat payload the query never looks at.
                            Value::floats(&[v as f64; 16]),
                            Value::Int(s as i64),
                        ]],
                    )
                    .unwrap();
                store
                    .ingest(
                        s,
                        "superstep",
                        vec![vec![Value::Id(v), Value::Int(s as i64)]],
                    )
                    .unwrap();
            }
        }
        // `m` occurs once -> the payload column is provably dead.
        let q = compile(
            "hot(x, i) :- receive_message(x, y, m, i), superstep(y, i).",
            Params::new(),
        )
        .unwrap();
        let run = run_layered_with(&g, &store, &q, &LayeredConfig::default()).unwrap();
        assert!(!run.query_results.is_empty());
        assert_matches_centralized(&g, &store, &q, &run);
        assert_partitions_store_bytes(&store, &run);
        assert!(run.cols_skipped > 0, "expected skipped columns");
        assert!(
            run.col_bytes_skipped > 0,
            "block skips must be byte-accounted"
        );
    }

    /// The parallel path is bit-identical to the sequential reference on
    /// every surface of the run, including at thread counts that do not
    /// divide the touched-set sizes.
    #[test]
    fn parallel_rounds_match_sequential() {
        use ariadne_graph::generators::erdos_renyi;
        let g = erdos_renyi(120, 600, 9);
        let mut store = ProvStore::new(StoreConfig::in_memory());
        for s in 0..4u32 {
            for v in 0..120u64 {
                if (v + u64::from(s)) % 3 == 0 {
                    store
                        .ingest(
                            s,
                            "superstep",
                            vec![vec![Value::Id(v), Value::Int(s as i64)]],
                        )
                        .unwrap();
                    store
                        .ingest(
                            s,
                            "change",
                            vec![vec![
                                Value::Id(v),
                                Value::Float(s as f64),
                                Value::Int(s as i64),
                            ]],
                        )
                        .unwrap();
                }
            }
        }
        let q = compile_with(
            "hot(x, i) :- change(x, d, i), superstep(x, i).
             warm(x, i) :- change(y, d, i), receive_message(x, y, m, i).",
            Params::new(),
            &catalog_with("change", 3),
            UdfRegistry::standard(),
        )
        .unwrap();
        let seq = run_layered_with(&g, &store, &q, &LayeredConfig::default()).unwrap();
        for t in [2usize, 3, 7] {
            let par = run_layered_with(&g, &store, &q, &LayeredConfig::parallel(t)).unwrap();
            assert_eq!(par.threads, t);
            for pred in ["hot", "warm"] {
                assert_eq!(
                    seq.query_results.sorted(pred),
                    par.query_results.sorted(pred),
                    "{pred} differs at {t} threads"
                );
            }
            assert_eq!(
                (seq.layers, seq.flush_rounds, seq.shipped_tuples),
                (par.layers, par.flush_rounds, par.shipped_tuples),
                "round/ship counters differ at {t} threads"
            );
            assert_eq!(
                (seq.injected_tuples, seq.evaluated_vertices),
                (par.injected_tuples, par.evaluated_vertices),
                "work counters differ at {t} threads"
            );
            assert_eq!(
                seq.query_stats, par.query_stats,
                "EvalStats differ at {t} threads"
            );
        }
    }
}
