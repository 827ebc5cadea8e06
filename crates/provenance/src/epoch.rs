//! Epoch layering: provenance *deltas* appended to a live store after a
//! graph mutation, instead of a full re-capture.
//!
//! A [`crate::ProvStore`] captured for graph epoch 0 holds one physical
//! layer per superstep, `0..=max`. When the graph mutates and the
//! analytic is re-captured, most layers are unchanged — re-writing them
//! all would make every mutation cost a full capture in storage. Instead
//! [`crate::ProvStore::append_epoch`] diffs the fresh capture against
//! the store's current *logical* content layer by layer and appends only
//! the differences as new **physical** layers:
//!
//! ```text
//! physical layer = epoch.base + superstep
//! ```
//!
//! where `base` is one past the store's previous physical maximum. Three
//! reserved predicate spellings encode the diff (the PQL parser rejects
//! `~` in identifiers, so no captured predicate can collide):
//!
//! * `pred`        — full replacement: this layer's logical content for
//!   `pred` is exactly these tuples;
//! * `~add~pred`   — append: the previous epoch's content, extended by
//!   these tuples (the common case for monotone analytics whose layers
//!   only grow);
//! * `~del~pred`   — tombstone: `pred` vanishes from this layer;
//! * `~epoch~`     — one marker record per epoch,
//!   `[epoch_index, base, supersteps]`, written at the epoch's base
//!   layer so a spool resume can rebuild the epoch table.
//!
//! # Reading: a newest-first fold
//!
//! Every logical read ([`crate::ProvStore::layer_blocks`], the adapters
//! over it and [`crate::ProvStore::to_database`]) materializes superstep
//! `s` from the chain of physical layers `base + s`, oldest epoch first.
//! A store that never absorbed a mutation is a one-epoch chain: base 0,
//! reaching every layer its index holds. The chain is implicit, so its
//! epoch table stays empty and no stored byte changes. A replacement
//! sets a predicate's content outright and a tombstone removes it, so
//! nothing *before* the newest of them can show through; an epoch whose
//! run stopped short of `s` clears everything before it the same way.
//! The fold therefore works out, from the segment index alone, where
//! each predicate's content starts — its newest replacement or
//! tombstone — and decodes only from there on: that replacement, then
//! the later `~add~` suffixes, in epoch order, each appended straight
//! into the predicate's [`RowBlock`]. Every other segment of the chain
//! is skipped undecoded and counted as skipped. A filter and its
//! column masks act on each segment's base predicate: since the fold
//! picks its segments from the index and never compares rows, a mask
//! applies as each segment decodes, and masked columns are skipped as
//! in any read. The quarantine check covers every physical layer of the
//! chain, so a quarantined segment of a wanted predicate fails the read
//! exactly as a full oldest-first fold would; a corrupt record inside a
//! superseded segment is simply never read (scrub still finds it).
//!
//! # Appending: pairs decided from the index
//!
//! The diff compares **canonical (sorted) tuple order**: a layer's
//! content is its rows, not the order a capture stored them in (vertex
//! order, then each vertex's own), so a re-run that moves a row within
//! that order changes nothing. Equivalence between an epoch-folded read
//! and a cold capture is therefore a statement about sorted layer
//! content — the same form the rest of the system compares stores in.
//!
//! One walk per superstep goes over the union of the two chains' base
//! predicates in name order. For each (superstep, predicate) pair it
//! works out, from the segment index by the fold's own rule, which
//! segments hold each side's content. A segment that is one frame of
//! rows already in canonical order, in memory (`Segment::in_order`,
//! set by the writer's one pass over the rows it frames, and by
//! adoption), can be classified by its bytes: the encoder is a pure
//! function of the rows and `Value` equality is bitwise, so two such
//! frames hold equal rows exactly when their bytes are equal. With such
//! an old side and a new side that is one such record, equal bytes
//! carry the pair, a new side no longer than the old replaces it, and
//! only a new side that grew is decoded — the two segments, compared
//! row for row in stored order: a prefix appends the suffix, anything
//! else replaces. No old content and one such new record replaces; old
//! content in one in-memory segment and no new content tombstones. Any
//! other pair — an `~add~` chain, a spilled or multi-record side, rows
//! out of order, a quarantined segment, a `next` with an epoch table —
//! is decoded and diffed: each side sorted as a `u32` permutation of its
//! block's rows, compared row slice against row slice, the rows to
//! write gathered in that order, so the records written are the same
//! bytes.
//!
//! A replaced pair is **adopted** rather than re-encoded when `next`
//! already holds its rows as the one record the append would write:
//! `next`'s segment is a single in-memory record (nothing spilled or
//! sealed, in a store without epochs), and its rows are already in
//! canonical order. The record's bytes, row count
//! and column stats are then copied onto `(base + s, pred)` with
//! `ingest_block`'s accounting. The encoder is a pure function of the
//! rows and the format, so the copy is byte for byte the record
//! `ingest_block` would frame. A capture stores the same records at
//! every thread count, so which pairs are adopted does not depend on
//! it either. See `docs/MUTATIONS.md` for the numbering walkthrough.

use crate::frame::{count_lz_win, is_one_record};
use crate::obs_handles;
use crate::rows::{RowBlock, Rows};
use crate::spool::{sealed_segment_path, segment_path};
use crate::store::{layer_bounds, LayerFilter, LayerRead, ProvStore, Segment, StoreError};
use ariadne_obs::trace::{self, Level};
use ariadne_pql::Value;
use std::cmp::Ordering;
use std::time::Instant;

/// One epoch's slice of the physical layer space.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct EpochInfo {
    /// First physical layer of this epoch: superstep `s` lives at
    /// `base + s`.
    pub base: u32,
    /// Number of logical supersteps this epoch's run produced. Reads of
    /// `s >= supersteps` see an empty layer.
    pub supersteps: u32,
}

/// What one [`crate::ProvStore::append_epoch`] call wrote — the storage
/// side of the incremental-vs-cold bench comparison.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// The mutation epoch the store is now at.
    pub epoch: u64,
    /// (layer, predicate) pairs identical to the previous epoch —
    /// carried forward without writing a byte.
    pub carried: usize,
    /// Pairs whose new content extended the old: only the suffix was
    /// appended (`~add~pred`).
    pub appended: usize,
    /// Pairs rewritten in full (diverged or new).
    pub replaced: usize,
    /// Pairs tombstoned (`~del~pred`).
    pub tombstoned: usize,
    /// Encoded bytes this epoch added to the store.
    pub bytes_appended: usize,
    /// Encoded bytes of the new run's capture, `next.byte_size()`: the
    /// cold baseline for the delta win. `capture_epoch` captures in the
    /// chain's own format, so this is what a cold capture in that format
    /// writes.
    pub cold_bytes: usize,
}

/// The reserved predicate carrying epoch marker records.
pub const EPOCH_MARKER: &str = "~epoch~";

/// The append-shadow spelling for `pred`.
pub fn shadow_add(pred: &str) -> String {
    format!("~add~{pred}")
}

/// The tombstone spelling for `pred`.
pub fn shadow_del(pred: &str) -> String {
    format!("~del~{pred}")
}

/// Whether `pred` is one of the reserved epoch-encoding spellings.
pub fn is_reserved(pred: &str) -> bool {
    op_of(pred).1 != Some(Op::Replace)
}

/// What a segment of an epoch chain does to its base predicate's
/// logical content.
#[derive(Copy, Clone, PartialEq, Eq)]
pub(crate) enum Op {
    /// Set it to the segment's rows.
    Replace,
    /// Extend it by the segment's rows.
    Add,
    /// Remove it.
    Del,
}

/// The base predicate segment predicate `pred` acts on in an epoch
/// chain, and how: the one parser of the reserved spellings. The epoch
/// marker is its own base and does nothing (`None`).
pub(crate) fn op_of(pred: &str) -> (&str, Option<Op>) {
    if pred == EPOCH_MARKER {
        (pred, None)
    } else if let Some(base) = pred.strip_prefix("~add~") {
        (base, Some(Op::Add))
    } else if let Some(base) = pred.strip_prefix("~del~") {
        (base, Some(Op::Del))
    } else {
        (pred, Some(Op::Replace))
    }
}

/// How one (superstep, predicate) pair moved from one epoch to the next.
#[derive(Debug)]
enum Diff<'n> {
    /// The same rows: nothing is written.
    Carried,
    /// The old rows (sorted) are a proper prefix of the new ones: the
    /// suffix, to write as `~add~pred`.
    Appended(RowBlock),
    /// Diverged or new: every new row, in canonical order, to encode as
    /// `pred`.
    Replaced(RowBlock),
    /// Diverged or new, and `next` holds the rows as the one in-order
    /// record the append would write: copy it as `pred` (see
    /// [`adoptable`]), with whether its rows are ragged.
    Adopted { record: &'n Segment, ragged: bool },
    /// Rows that were there are gone: a `~del~pred` tombstone.
    Tombstoned,
    /// No rows on either side, and not present on both: nothing, and
    /// counted nowhere.
    Absent,
}

/// Classify a predicate's rows moving from `old` to `new` (each absent
/// when the layer has no such predicate), compared in canonical (sorted)
/// row order; the rows to write come out in that order. `record` is
/// `next`'s [adoptable](adoptable) record of the new rows, if any.
fn diff<'n>(
    old: Option<&RowBlock>,
    new: Option<RowBlock>,
    record: Option<&'n Segment>,
) -> Diff<'n> {
    let old_len = old.map_or(0, Rows::len);
    let new_present = new.is_some();
    let Some(mut new) = new.filter(|n| !n.is_empty()) else {
        return if old_len > 0 {
            // The one tombstone site.
            Diff::Tombstoned
        } else if old.is_some() && new_present {
            Diff::Carried
        } else {
            Diff::Absent
        };
    };
    let new_order = new.sorted_order();
    if let Some(old) = old {
        let old_order = old.sorted_order();
        let prefix = old_len <= new.len()
            && (old_order.iter().zip(&new_order))
                .all(|(&o, &n)| old.row(o as usize) == new.row(n as usize));
        if prefix && old_len == new.len() {
            return Diff::Carried;
        }
        if prefix && old_len > 0 {
            return Diff::Appended(new.gather(&new_order[old_len..]));
        }
    }
    let in_order = (1..new.len()).all(|i| new.row(i - 1) <= new.row(i));
    match record {
        Some(record) if in_order => Diff::Adopted {
            record,
            ragged: new.is_ragged(),
        },
        _ => {
            new.permute(new_order);
            Diff::Replaced(new)
        }
    }
}

/// Whether `seg`, the one segment of `next` holding a pair's new rows,
/// is one in-memory record: nothing spilled or sealed, in a store
/// without epochs, so the record holds exactly the rows a read of the
/// pair gives, and copying it writes what framing those rows, in their
/// order, would.
fn adoptable(next: &ProvStore, seg: &Segment) -> bool {
    let alone = seg.disk.files.is_empty() && !seg.sealed;
    alone && next.epochs.is_empty() && is_one_record(&seg.mem)
}

/// Whether `seg` is one frame of rows in canonical order, held in
/// memory, with rows: a pair side the append can classify from the
/// index and the record bytes.
fn indexed(seg: &Segment) -> bool {
    seg.in_order && seg.disk.files.is_empty() && seg.mem_tuples > 0
}

/// One segment of a logical layer's chain: its base predicate, what it
/// does to it (`None` once nothing can need it) and the segment.
type Link<'a> = (&'a str, Option<Op>, &'a Segment);

/// Where a base predicate's content starts in `run`, its links oldest
/// first: its newest replacement or tombstone. From there the links
/// that [hold](holds) rows make up the content; every other link is
/// superseded or the marker.
fn content_from(run: &[Link]) -> usize {
    (run.iter())
        .rposition(|(_, op, _)| matches!(op, Some(Op::Replace | Op::Del)))
        .unwrap_or(0)
}

/// Whether a link at or past [`content_from`] holds content rows.
fn holds(op: Option<Op>) -> bool {
    matches!(op, Some(Op::Replace | Op::Add))
}

/// The segments holding `run`'s content, oldest first: what the fold
/// decodes for it. Empty when there is no run.
fn content<'a>(run: Option<&[Link<'a>]>) -> Vec<&'a Segment> {
    let run = run.unwrap_or_default();
    (run[content_from(run)..].iter())
        .filter(|(_, op, _)| holds(*op))
        .map(|&(_, _, seg)| seg)
        .collect()
}

/// Decode `segs`, one side of a pair, onto a fresh block, each counted
/// as a segment read: `None` when the side holds no content.
fn decode_side(segs: &[&Segment]) -> Result<Option<RowBlock>, StoreError> {
    if segs.is_empty() {
        return Ok(None);
    }
    let mut rows = RowBlock::default();
    for seg in segs {
        seg.decode_into(None, &mut rows)?;
    }
    obs_handles::segments_read().add(segs.len() as u64);
    Ok(Some(rows))
}

/// Classify one pair from the segments holding its old and new content
/// (see [`content`]). When both sides are [indexed] the index and the
/// record bytes decide it: the encoder is a pure function of the rows,
/// so two such frames hold equal rows exactly when their bytes are
/// equal, and only a pair whose new side grew is decoded, to see
/// whether the old rows are its prefix. So are an absent old side and
/// a vanished new one. Every other pair is decoded and [`diff`]ed.
fn classify<'n>(
    old: &[&Segment],
    new: &[&'n Segment],
    next: &ProvStore,
) -> Result<Diff<'n>, StoreError> {
    let record = match new {
        [seg] if adoptable(next, seg) => Some(*seg),
        _ => None,
    };
    let decided = match (old, record.filter(|seg| indexed(seg))) {
        ([], None) if new.is_empty() => return Ok(Diff::Absent),
        ([], Some(record)) => Some(Diff::Adopted {
            record,
            ragged: false,
        }),
        ([seg], Some(record)) if indexed(seg) => {
            if seg.mem == record.mem {
                Some(Diff::Carried)
            } else if record.mem_tuples <= seg.mem_tuples {
                Some(Diff::Adopted {
                    record,
                    ragged: false,
                })
            } else {
                // Grown: the old rows either lead the new ones or not.
                obs_handles::epoch_pairs_decoded().inc();
                let (Some(old), Some(new)) = (decode_side(old)?, decode_side(new)?) else {
                    unreachable!("both sides hold a segment")
                };
                let at = old.len();
                let prefix = (0..at).all(|i| old.row(i) == new.row(i));
                let diff = if prefix {
                    Diff::Appended(new.gather(&(at as u32..new.len() as u32).collect::<Vec<_>>()))
                } else {
                    Diff::Adopted {
                        record,
                        ragged: false,
                    }
                };
                return Ok(diff);
            }
        }
        ([seg], _) if new.is_empty() && seg.disk.files.is_empty() && seg.mem_tuples > 0 => {
            Some(Diff::Tombstoned)
        }
        _ => None,
    };
    if let Some(diff) = decided {
        obs_handles::epoch_pairs_indexed().inc();
        return Ok(diff);
    }
    obs_handles::epoch_pairs_decoded().inc();
    let old = decode_side(old)?;
    Ok(diff(old.as_ref(), decode_side(new)?, record))
}

impl ProvStore {
    /// Where each epoch of the store keeps `superstep`, oldest first: its
    /// physical layer, or `None` where the epoch's run stopped short of
    /// it. A store that never absorbed a mutation is one implicit epoch
    /// at base 0 that reaches every layer its index holds, whatever
    /// [`ProvStore::max_superstep`] says.
    fn chain(&self, superstep: u32) -> impl Iterator<Item = Option<u32>> + '_ {
        let implicit = self.epochs.is_empty().then_some(Some(superstep));
        let epochs = (self.epochs.iter())
            .map(move |info| (superstep < info.supersteps).then(|| info.base + superstep));
        implicit.into_iter().chain(epochs)
    }

    /// The logical supersteps the newest epoch reaches and some epoch
    /// holds a segment at, ascending: the layers
    /// [`ProvStore::to_database`] loads. Read from the index alone.
    pub(crate) fn logical_layers(&self) -> Vec<u32> {
        let base = |layer: u32| {
            let epoch = self.epochs.iter().rfind(|info| info.base <= layer);
            epoch.map_or(0, |info| info.base)
        };
        let mut steps: Vec<u32> = (self.segments.keys())
            .map(|&(layer, _)| layer - base(layer))
            .collect();
        steps.sort_unstable();
        steps.dedup();
        steps.retain(|&s| self.chain(s).last().flatten().is_some());
        steps
    }

    /// The chain of logical layer `superstep`, oldest first: every
    /// segment whose base predicate `filter` wants, with what it does —
    /// or nothing, when no fold can need it — stably sorted by base
    /// predicate. Every other segment goes to `skip`; a quarantined
    /// segment of a wanted predicate is the error.
    fn links(
        &self,
        superstep: u32,
        filter: &LayerFilter,
        mut skip: impl FnMut(&Segment),
    ) -> Result<Vec<Link<'_>>, StoreError> {
        let mut chain: Vec<Link<'_>> = Vec::new();
        for layer in self.chain(superstep) {
            let Some(layer) = layer else {
                // An epoch whose run stopped before `superstep` has no
                // such layer, and clears what the epochs before it held
                // there (a later epoch rewrites it in full, diffed
                // against nothing).
                chain.iter_mut().for_each(|(_, op, _)| *op = None);
                continue;
            };
            let mut quarantined = self.quarantined.range(layer_bounds(layer));
            if let Some((_, path)) = quarantined.find(|((_, pred), _)| filter.wants(op_of(pred).0))
            {
                return Err(StoreError::Quarantined { path: path.clone() });
            }
            for ((_, pred), seg) in self.segments.range(layer_bounds(layer)) {
                match op_of(pred) {
                    (base, op) if filter.wants(base) => chain.push((base, op, seg)),
                    _ => skip(seg),
                }
            }
        }
        chain.sort_by_key(|&(base, ..)| base);
        Ok(chain)
    }

    /// Fold logical layer `superstep` newest-first (see [`crate::epoch`]):
    /// for each base predicate `filter` wants, in predicate order, decode
    /// its newest replacement and the `~add~` suffixes after it onto
    /// `rows` (cleared first), masked as they decode, and hand the result
    /// to `emit`. Every segment they supersede is skipped undecoded.
    /// Returns what the read touched and skipped; its `tuples` are empty.
    pub(crate) fn fold_layer(
        &self,
        superstep: u32,
        filter: &LayerFilter,
        rows: &mut RowBlock,
        mut emit: impl FnMut(&str, &mut RowBlock) -> Result<(), StoreError>,
    ) -> Result<LayerRead<RowBlock>, StoreError> {
        let _read_span = trace::span(
            Level::Trace,
            "store",
            "layer_read",
            &[("superstep", u64::from(superstep).into())],
        );
        let mut out = LayerRead::<RowBlock>::default();
        let skip = |out: &mut LayerRead<RowBlock>, seg: &Segment| {
            out.segments_skipped += 1;
            out.bytes_skipped += seg.total_bytes();
        };
        let chain = self.links(superstep, filter, |seg| skip(&mut out, seg))?;
        let filtered = out.segments_skipped;
        for run in chain.chunk_by(|a, b| a.0 == b.0) {
            // Where its content starts, found from the index; nothing is
            // decoded.
            let from = content_from(run);
            rows.clear();
            let mut decoded = false;
            for (at, &(base, op, seg)) in run.iter().enumerate() {
                // Decoded onto the predicate's rows: its newest
                // replacement, then every suffix after it. A newest
                // tombstone has nothing to decode (the content before it
                // is gone, and the fold never read it); the rest is
                // superseded or the marker.
                if at >= from && holds(op) {
                    let (bytes, counts) = seg.decode_into(filter.mask(base), rows)?;
                    out.segments_read += 1;
                    out.bytes_read += bytes;
                    out.cols_skipped += counts.cols_skipped;
                    out.col_bytes_skipped += counts.col_bytes_skipped;
                    decoded = true;
                } else {
                    skip(&mut out, seg);
                }
            }
            if decoded {
                emit(run[0].0, rows)?;
            }
        }
        obs_handles::segments_read().add(out.segments_read as u64);
        obs_handles::segments_skipped().add(filtered as u64);
        obs_handles::col_bytes_skipped().add(out.col_bytes_skipped as u64);
        // The fold's own counters count reads of a store with an epoch
        // table, the first append's diff included: what they show is the
        // saving over reading every epoch's layer.
        if !self.epochs.is_empty() {
            obs_handles::epoch_fold_segments_read().add(out.segments_read as u64);
            let superseded = out.segments_skipped - filtered;
            obs_handles::epoch_fold_segments_skipped().add(superseded as u64);
        }
        Ok(out)
    }

    /// Absorb a fresh capture of the mutated graph as a **delta
    /// epoch**: diff `next`'s logical layers against this store's
    /// current logical content and append only the differences as new
    /// physical layers at `base = physical_max + 1` (see
    /// [`crate::epoch`] for the encoding). After this call, logical
    /// reads of this store are bit-identical to reads of `next`, while
    /// storage grew only by the diff — the paper's online story
    /// extended to mutable graphs.
    ///
    /// `next` is usually an in-memory scratch capture, read through the
    /// same fold as this store; a predicate it reads under a reserved
    /// `~`-spelling is ignored. A replaced pair that
    /// `next` holds as one in-order record of this store's format is
    /// copied, not re-encoded, into the same bytes (see [`crate::epoch`]).
    /// The returned [`EpochStats`] reports the carried/appended/replaced
    /// split and the byte win against `next`'s full size.
    ///
    /// On an error the append is undone: every segment it wrote, from
    /// memory and from the spool, and the epoch table entry the first
    /// append registers. The store, live or reopened from its spool,
    /// then reads what it read before the call.
    pub fn append_epoch(&mut self, next: &ProvStore) -> Result<EpochStats, StoreError> {
        let (max_step, epochs) = (self.max_step, self.epochs.len());
        let appended = self.append_diff(next);
        if appended.is_err() {
            self.undo_append(max_step, epochs);
        }
        appended
    }

    /// [`ProvStore::append_epoch`] without the undo.
    fn append_diff(&mut self, next: &ProvStore) -> Result<EpochStats, StoreError> {
        let started = Instant::now();
        let new_sup = next.max_superstep().map_or(0, |m| m + 1);
        let old_sup = self.max_superstep().map_or(0, |m| m + 1);
        let base = self.max_step.map_or(0, |m| m + 1);
        // The first mutation makes the original capture epoch 0.
        let epoch_index = self.epochs.len().max(1) as u32;
        let bytes_before = self.byte_size();
        let mut stats = EpochStats {
            epoch: u64::from(epoch_index),
            cold_bytes: next.byte_size(),
            ..EpochStats::default()
        };
        for s in 0..new_sup {
            for (pred, diff) in self.diff_layer(next, s, s < old_sup)? {
                match diff {
                    Diff::Carried => stats.carried += 1,
                    Diff::Appended(suffix) => {
                        self.ingest_block(base + s, &shadow_add(&pred), suffix)?;
                        stats.appended += 1;
                    }
                    Diff::Replaced(rows) => {
                        self.ingest_block(base + s, &pred, rows)?;
                        stats.replaced += 1;
                    }
                    Diff::Adopted { record, ragged } => {
                        self.adopt(base + s, &pred, record, ragged)?;
                        stats.replaced += 1;
                    }
                    Diff::Tombstoned => {
                        let mut tombstone = RowBlock::default();
                        tombstone.push(&[Value::Int(0)]);
                        self.ingest_block(base + s, &shadow_del(&pred), tombstone)?;
                        stats.tombstoned += 1;
                    }
                    Diff::Absent => {}
                }
            }
        }
        if self.epochs.is_empty() {
            // Registered after the diff's reads: a one-epoch chain has
            // nothing to fold, so those reads are not the fold's work.
            self.epochs.push(EpochInfo {
                base: 0,
                supersteps: old_sup,
            });
        }
        let mut marker = RowBlock::default();
        marker.push(&[
            Value::Int(i64::from(epoch_index)),
            Value::Int(i64::from(base)),
            Value::Int(i64::from(new_sup)),
        ]);
        self.ingest_block(base, EPOCH_MARKER, marker)?;
        self.epochs.push(EpochInfo {
            base,
            supersteps: new_sup,
        });
        stats.bytes_appended = self.byte_size().saturating_sub(bytes_before);
        obs_handles::epoch_appends().inc();
        obs_handles::epoch_carried().add(stats.carried as u64);
        obs_handles::epoch_appended().add(stats.appended as u64);
        obs_handles::epoch_replaced().add(stats.replaced as u64);
        obs_handles::epoch_tombstoned().add(stats.tombstoned as u64);
        obs_handles::epoch_append_ns().add(started.elapsed().as_nanos() as u64);
        Ok(stats)
    }

    /// Classify every predicate of logical layer `s`, old (when this
    /// store's run reached `s`) against `next`'s, in one walk over the
    /// union of their base predicates in name order (see [`classify`]).
    /// A predicate `next` holds under a reserved spelling is ignored.
    fn diff_layer<'n>(
        &self,
        next: &'n ProvStore,
        s: u32,
        reached: bool,
    ) -> Result<Vec<(String, Diff<'n>)>, StoreError> {
        let all = LayerFilter::all();
        let old = if reached {
            self.links(s, &all, |_| {})?
        } else {
            Vec::new()
        };
        let new = next.links(s, &all, |_| {})?;
        let mut old_runs = old.chunk_by(|a, b| a.0 == b.0).peekable();
        let mut new_runs = (new.chunk_by(|a, b| a.0 == b.0))
            .filter(|run| !is_reserved(run[0].0))
            .peekable();
        let mut diffs = Vec::new();
        loop {
            let order = match (old_runs.peek(), new_runs.peek()) {
                (None, None) => break,
                (Some(old), Some(new)) => old[0].0.cmp(new[0].0),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
            };
            let old = order.is_le().then(|| old_runs.next()).flatten();
            let new = order.is_ge().then(|| new_runs.next()).flatten();
            let pred = old.or(new).expect("a run on one side")[0].0;
            match classify(&content(old), &content(new), next)? {
                Diff::Absent => {}
                diff => diffs.push((pred.to_string(), diff)),
            }
        }
        Ok(diffs)
    }

    /// Take back a failed append: drop every segment at or past the
    /// append's base layer (one past `max_step`, the physical maximum
    /// before it) with its spool files and its share of the tuple and
    /// byte counts, and truncate the epoch table to `epochs` entries.
    /// Without the undo, a failed first append would leave diff layers
    /// that a reopened spool, finding no `~epoch~` marker, reads as
    /// capture layers.
    fn undo_append(&mut self, max_step: Option<u32>, epochs: usize) {
        let base = max_step.map_or(0, |m| m + 1);
        let written = self.segments.split_off(&(base, String::new()));
        for ((superstep, pred), seg) in &written {
            self.tuples -= seg.total_tuples();
            self.mem_bytes -= seg.mem.len();
            self.disk_bytes -= seg.disk.bytes();
            if let Some(dir) = &self.config.spool_dir {
                let _ = std::fs::remove_file(segment_path(dir, *superstep, pred));
                let _ = std::fs::remove_file(sealed_segment_path(dir, *superstep, pred));
            }
        }
        self.max_step = max_step;
        self.epochs.truncate(epochs);
        trace::event(
            Level::Debug,
            "store",
            "epoch_append_undone",
            &[("base", base.into()), ("segments", written.len().into())],
        );
    }

    /// Write `record`, a capture's segment [`adoptable`] accepted, onto
    /// the fresh segment (`superstep`, `pred`) as it is, with
    /// [`ProvStore::ingest_block`]'s accounting: the record
    /// `ingest_block` would frame for its rows (`ragged` or not), copied,
    /// not re-encoded, and counted as the ingest that would have framed
    /// it.
    fn adopt(
        &mut self,
        superstep: u32,
        pred: &str,
        record: &Segment,
        ragged: bool,
    ) -> Result<(), StoreError> {
        self.raise_max_step(superstep);
        let seg = (self.segments)
            .entry((superstep, pred.to_string()))
            .or_default();
        debug_assert!(seg.mem.is_empty() && !seg.sealed);
        seg.mem.clone_from(&record.mem);
        seg.mem_tuples = record.mem_tuples;
        seg.cols.clone_from(&record.cols);
        seg.in_order = true;
        self.tuples += record.mem_tuples;
        self.mem_bytes += record.mem.len();
        obs_handles::ingest_batches().inc();
        obs_handles::ingest_tuples().add(record.mem_tuples as u64);
        obs_handles::ingest_bytes().add(record.mem.len() as u64);
        if !ragged {
            obs_handles::packs().inc();
            obs_handles::encoded_bytes().add(record.mem.len() as u64);
        }
        count_lz_win(&record.mem);
        obs_handles::epoch_adopted().inc();
        obs_handles::epoch_adopted_bytes().add(record.mem.len() as u64);
        self.spill_down_to(self.config.memory_budget)
    }

    /// Rebuild the epoch table from `~epoch~` marker segments — called
    /// by spool resume, where the in-memory table of the previous
    /// incarnation is gone.
    pub(crate) fn rebuild_epochs(&mut self) -> Result<(), StoreError> {
        let mut markers: Vec<(i64, i64, i64)> = Vec::new();
        let mut rows = RowBlock::default();
        for ((_, pred), seg) in &self.segments {
            if pred != EPOCH_MARKER {
                continue;
            }
            rows.clear();
            seg.decode_into(None, &mut rows)?;
            for row in rows.rows() {
                if let [Value::Int(idx), Value::Int(mbase), Value::Int(sup)] = row {
                    markers.push((*idx, *mbase, *sup));
                }
            }
        }
        if markers.is_empty() {
            return Ok(());
        }
        markers.sort_unstable();
        // Epoch 0's superstep count is the first delta epoch's base:
        // physical layers 0..base were exactly the original capture.
        let mut epochs = vec![EpochInfo {
            base: 0,
            supersteps: markers[0].1 as u32,
        }];
        for (_, mbase, sup) in markers {
            epochs.push(EpochInfo {
                base: mbase as u32,
                supersteps: sup as u32,
            });
        }
        self.epochs = epochs;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{SegmentInfo, StoreConfig};

    #[test]
    fn reserved_spellings() {
        assert!(is_reserved(EPOCH_MARKER));
        assert!(is_reserved(&shadow_add("send_message")));
        assert!(is_reserved(&shadow_del("value")));
        assert!(!is_reserved("send_message"));
        assert_eq!(shadow_add("p"), "~add~p");
        assert_eq!(shadow_del("p"), "~del~p");
    }

    fn block(rows: &[i64]) -> RowBlock {
        RowBlock::from_tuples(rows.iter().map(|&r| vec![Value::Int(r)]).collect())
    }

    fn ints(rows: &RowBlock) -> Vec<i64> {
        let int = |row: &[Value]| match row {
            [Value::Int(x)] => *x,
            other => panic!("not one int: {other:?}"),
        };
        rows.rows().map(int).collect()
    }

    /// Every arm of the classification, in sorted order whatever the
    /// stored order.
    #[test]
    fn diff_classifies_in_sorted_order() {
        let (a, b) = (block(&[3, 1, 2]), block(&[2, 3, 1]));
        assert!(matches!(diff(Some(&a), Some(b), None), Diff::Carried));
        let Diff::Appended(suffix) = diff(Some(&a), Some(block(&[4, 2, 5, 3, 1])), None) else {
            panic!("a sorted prefix appends")
        };
        assert_eq!(ints(&suffix), [4, 5]);
        let Diff::Replaced(rows) = diff(Some(&a), Some(block(&[9, 1])), None) else {
            panic!("diverged rows replace")
        };
        assert_eq!(ints(&rows), [1, 9]);
        let Diff::Replaced(rows) = diff(None, Some(a.clone()), None) else {
            panic!("new rows replace")
        };
        assert_eq!(ints(&rows), [1, 2, 3]);
        assert!(matches!(
            diff(Some(&block(&[])), Some(a.clone()), None),
            Diff::Replaced(_)
        ));
        let record = Segment::default();
        assert!(matches!(
            diff(Some(&a), Some(block(&[1, 2])), Some(&record)),
            Diff::Adopted { ragged: false, .. }
        ));
        assert!(matches!(
            diff(Some(&a), Some(block(&[2, 1])), Some(&record)),
            Diff::Replaced(_)
        ));
        assert!(matches!(diff(Some(&a), None, None), Diff::Tombstoned));
        assert!(matches!(
            diff(Some(&a), Some(block(&[])), None),
            Diff::Tombstoned
        ));
        assert!(matches!(
            diff(Some(&block(&[])), Some(block(&[])), None),
            Diff::Carried
        ));
        assert!(matches!(diff(Some(&block(&[])), None, None), Diff::Absent));
        assert!(matches!(diff(None, Some(block(&[])), None), Diff::Absent));
    }

    /// A store of `config` holding `batches` as (0, "p"), each framed
    /// into a record of its own.
    fn capture(config: StoreConfig, batches: &[&[i64]]) -> ProvStore {
        let mut store = ProvStore::new(config);
        for rows in batches {
            store.ingest_block(0, "p", block(rows)).unwrap();
        }
        store
    }

    /// Whether appending `next` adopts its record of (0, "p"): the rule
    /// `append_epoch` applies to a replaced pair.
    fn adopts(next: &ProvStore) -> bool {
        let mut read = next.layer_blocks(0, &LayerFilter::all()).unwrap();
        let (_, rows) = read.tuples.remove(0);
        let seg = &next.segments[&(0, "p".to_string())];
        let record = adoptable(next, seg).then_some(seg);
        matches!(diff(None, Some(rows), record), Diff::Adopted { .. })
    }

    /// The segment index, and every segment's in-memory bytes in its
    /// order, after `next` is appended to a store whose (0, "p") it
    /// replaces.
    fn appended(next: &ProvStore) -> (Vec<Vec<u8>>, Vec<SegmentInfo>) {
        let mut store = capture(StoreConfig::in_memory(), &[&[9, 8]]);
        store.append_epoch(next).unwrap();
        let bytes = store.segments.values().map(|seg| seg.mem.clone()).collect();
        (bytes, store.segment_index().collect())
    }

    /// Only one in-memory record in canonical order is adopted; adopted
    /// or not, the append writes the bytes and the index that the same
    /// append from a capture holding the rows out of order writes.
    #[test]
    fn adoption_guards_keep_the_bytes() {
        let dir = crate::store::tests::temp_dir("epoch-adopt-spilled");
        std::fs::remove_dir_all(&dir).ok();
        let in_memory = StoreConfig::in_memory;
        let spilling = StoreConfig::spilling(0, dir.clone());
        let cases = [
            (
                "two records",
                capture(in_memory(), &[&[1, 2], &[3, 4]]),
                false,
            ),
            ("spilled", capture(spilling, &[&[1, 2, 3, 4]]), false),
            (
                "out of order",
                capture(in_memory(), &[&[3, 1, 4, 2]]),
                false,
            ),
            (
                "one in-order record",
                capture(in_memory(), &[&[1, 2, 3, 4]]),
                true,
            ),
        ];
        let reference = capture(in_memory(), &[&[4, 3, 2, 1]]);
        assert!(!adopts(&reference));
        let want = appended(&reference);
        for (what, next, adopted) in &cases {
            assert_eq!(adopts(next), *adopted, "{what}: adopted");
            assert_eq!(appended(next), want, "{what}: bytes and index");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every segment's stored bytes, spilled parts then memory, and the
    /// segment index of `store` after appending `next` to it, with the
    /// append's stats.
    fn append_to(
        mut store: ProvStore,
        next: &ProvStore,
    ) -> (Vec<Vec<u8>>, Vec<SegmentInfo>, EpochStats) {
        let stats = store.append_epoch(next).unwrap();
        let stored = (store.segments.values())
            .map(|seg| {
                let mut bytes = Vec::new();
                seg.copy_into(&mut bytes, &mut RowBlock::default()).unwrap();
                bytes
            })
            .collect();
        (stored, store.segment_index().collect(), stats)
    }

    /// An in-memory capture holding each of `preds` at layer 0 as one
    /// frame of its rows, in the order given.
    fn capture_of(preds: &[(&str, &[i64])]) -> ProvStore {
        let mut store = ProvStore::new(StoreConfig::in_memory());
        for (pred, rows) in preds {
            store.ingest_block(0, pred, block(rows)).unwrap();
        }
        store
    }

    /// Deciding a pair from the index and the record bytes writes what
    /// decoding and diffing it writes: for every old side and every
    /// change of its rows, appending a `next` whose records qualify
    /// writes the segment index, the bytes and the stats that appending
    /// the same records with the in-order bit cleared writes, and a
    /// `next` out of order or in two records writes them too.
    #[test]
    fn index_path_writes_what_the_decode_path_writes() {
        let dir = crate::store::tests::temp_dir("epoch-index-path");
        let spilled = std::cell::Cell::new(0);
        let old_store = |preds: &[(&str, &[i64])], how: &str| match how {
            "spilled" => {
                spilled.set(spilled.get() + 1);
                let config = StoreConfig::spilling(0, dir.join(spilled.get().to_string()));
                let mut store = ProvStore::new(config);
                for (pred, rows) in preds {
                    store.ingest_block(0, pred, block(rows)).unwrap();
                }
                store
            }
            "add chain" => {
                let mut store = capture_of(&[("p", &[1, 2])]);
                store.append_epoch(&capture_of(preds)).unwrap();
                store
            }
            _ => capture_of(preds),
        };
        type Preds<'a> = &'a [(&'a str, &'a [i64])];
        let p123: Preds = &[("p", &[1, 2, 3])];
        let cases: [(&str, Preds, &str, Preds); 10] = [
            ("equal bytes", p123, "", p123),
            ("reordered equal rows", &[("p", &[3, 1, 2])], "", p123),
            ("shrunk", p123, "", &[("p", &[1, 2])]),
            ("changed", p123, "", &[("p", &[1, 2, 4])]),
            ("grown by a prefix", p123, "", &[("p", &[1, 2, 3, 4, 5])]),
            ("grown but diverged", p123, "", &[("p", &[0, 1, 2, 3])]),
            (
                "new predicate",
                &[("p", &[1])],
                "",
                &[("p", &[1]), ("r", &[5, 6])],
            ),
            (
                "vanished predicate",
                &[("p", &[1]), ("q", &[2, 3])],
                "",
                &[("p", &[1])],
            ),
            ("an ~add~ chain", p123, "add chain", &[("p", &[1, 2, 3, 4])]),
            ("spilled", p123, "spilled", &[("p", &[1, 2, 3, 4])]),
        ];
        for (what, old, how, new) in cases {
            let fast = capture_of(new);
            let mut slow = capture_of(new);
            assert!(
                fast.segments.values().all(indexed),
                "{what}: next qualifies"
            );
            slow.segments
                .values_mut()
                .for_each(|seg| seg.in_order = false);
            let want = append_to(old_store(old, how), &slow);
            assert_eq!(append_to(old_store(old, how), &fast), want, "{what}");
        }
        let unqualified = [
            (
                "out of order",
                capture(StoreConfig::in_memory(), &[&[5, 2, 4, 1]]),
            ),
            (
                "two records",
                capture(StoreConfig::in_memory(), &[&[1, 2], &[4, 5]]),
            ),
        ];
        let (bytes, index, stats) =
            append_to(capture_of(p123), &capture_of(&[("p", &[1, 2, 4, 5])]));
        for (what, next) in &unqualified {
            let (got_bytes, got_index, got_stats) = append_to(capture_of(p123), next);
            assert_eq!(
                (got_bytes, got_index),
                (bytes.clone(), index.clone()),
                "{what}"
            );
            let cold_bytes = got_stats.cold_bytes;
            assert_eq!(
                got_stats,
                EpochStats {
                    cold_bytes,
                    ..stats
                },
                "{what}: stats"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
