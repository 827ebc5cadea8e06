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
//! # Appending: a permutation-sorted diff
//!
//! The diff runs in **canonical (sorted) tuple order**: a layer's
//! content is its rows, not the order a capture stored them in (vertex
//! order, then each vertex's own), so a re-run that moves a row within
//! that order changes nothing, and a comparison in stored order would
//! misclassify such a reordering as a replacement. Equivalence between
//! an epoch-folded read and a cold capture is therefore a statement
//! about sorted layer content — the same form the rest of the system
//! compares stores in. Each side of a (superstep,
//! predicate) pair is sorted as a `u32` permutation of its block's rows,
//! compared row slice against row slice; no row is cloned to compare it.
//! One walk over the union of old and new predicate names classifies
//! every pair, and the rows to write are gathered in that sorted order —
//! the rows, in the order, that sorting tuples gave — so the records
//! written are the same bytes.
//!
//! A replaced pair is **adopted** rather than re-encoded when `next`
//! already holds its rows as the one record the append would write:
//! `next`'s segment is a single in-memory record (nothing spilled or
//! sealed, in a store without epochs) in this store's format, and its
//! rows are already in canonical order. The record's bytes, row count
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
use std::collections::BTreeMap;
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
enum Diff {
    /// The same rows: nothing is written.
    Carried,
    /// The old rows (sorted) are a proper prefix of the new ones: the
    /// suffix, to write as `~add~pred`.
    Appended(RowBlock),
    /// Diverged or new: every new row, to write as `pred`, and whether
    /// they arrived in canonical order already.
    Replaced { rows: RowBlock, in_order: bool },
    /// Rows that were there are gone: a `~del~pred` tombstone.
    Tombstoned,
    /// No rows on either side, and not present on both: nothing, and
    /// counted nowhere.
    Absent,
}

/// Classify a predicate's rows moving from `old` to `new` (each absent
/// when the layer has no such predicate), compared in canonical (sorted)
/// row order; the rows to write come out in that order.
fn diff(old: Option<&RowBlock>, new: Option<RowBlock>) -> Diff {
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
    if !in_order {
        new.permute(new_order);
    }
    Diff::Replaced {
        rows: new,
        in_order,
    }
}

/// `next`'s segment `key` when it is one in-memory record: nothing
/// spilled or sealed, in a store without epochs, so the record holds
/// exactly the rows a read of the pair gives, and copying it writes what
/// framing those rows, in their order, would.
fn adoptable<'a>(next: &'a ProvStore, key: &(u32, String)) -> Option<&'a Segment> {
    let seg = next.segments.get(key)?;
    let alone = seg.disk.files.is_empty() && !seg.sealed;
    (alone && next.epochs.is_empty() && is_one_record(&seg.mem)).then_some(seg)
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
        // The chain, oldest first: every segment whose base predicate the
        // filter wants, with what it does — or nothing, when no fold can
        // need it.
        let mut chain: Vec<(&str, Option<Op>, &Segment)> = Vec::new();
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
                    _ => skip(&mut out, seg),
                }
            }
        }
        let filtered = out.segments_skipped;
        // Each base predicate's segments, in chain order.
        chain.sort_by_key(|&(base, ..)| base);
        for run in chain.chunk_by(|a, b| a.0 == b.0) {
            // Its newest replacement or tombstone: where its content
            // starts. Found from the index; nothing is decoded.
            let from = (run.iter())
                .rposition(|(_, op, _)| matches!(op, Some(Op::Replace | Op::Del)))
                .unwrap_or(0);
            rows.clear();
            let mut decoded = false;
            for (at, &(base, op, seg)) in run.iter().enumerate() {
                // Decoded onto the predicate's rows: its newest
                // replacement, then every suffix after it. A newest
                // tombstone has nothing to decode (the content before it
                // is gone, and the fold never read it); the rest is
                // superseded or the marker.
                if at >= from && matches!(op, Some(Op::Replace | Op::Add)) {
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
        let all = LayerFilter::all();
        for s in 0..new_sup {
            // Each predicate's old and new rows at `s`, walked once over
            // the union of their names.
            let mut pairs: BTreeMap<String, (Option<RowBlock>, Option<RowBlock>)> = BTreeMap::new();
            if s < old_sup {
                for (pred, rows) in self.layer_blocks(s, &all)?.tuples {
                    pairs.entry(pred).or_default().0 = Some(rows);
                }
            }
            for (pred, rows) in next.layer_blocks(s, &all)?.tuples {
                if !is_reserved(&pred) {
                    pairs.entry(pred).or_default().1 = Some(rows);
                }
            }
            for (pred, (old, new)) in pairs {
                match diff(old.as_ref(), new) {
                    Diff::Carried => stats.carried += 1,
                    Diff::Appended(suffix) => {
                        self.ingest_block(base + s, &shadow_add(&pred), suffix)?;
                        stats.appended += 1;
                    }
                    Diff::Replaced { rows, in_order } => {
                        let key = (s, pred);
                        match adoptable(next, &key).filter(|_| in_order) {
                            Some(record) => self.adopt(base + s, &key.1, record, &rows)?,
                            None => self.ingest_block(base + s, &key.1, rows)?,
                        }
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
    /// `ingest_block` would frame for its `rows`, copied, not re-encoded,
    /// and counted as the ingest that would have framed it.
    fn adopt(
        &mut self,
        superstep: u32,
        pred: &str,
        record: &Segment,
        rows: &RowBlock,
    ) -> Result<(), StoreError> {
        self.raise_max_step(superstep);
        let seg = (self.segments)
            .entry((superstep, pred.to_string()))
            .or_default();
        debug_assert!(seg.mem.is_empty() && !seg.sealed);
        seg.mem.clone_from(&record.mem);
        seg.mem_tuples = record.mem_tuples;
        seg.cols.clone_from(&record.cols);
        self.tuples += record.mem_tuples;
        self.mem_bytes += record.mem.len();
        obs_handles::ingest_batches().inc();
        obs_handles::ingest_tuples().add(record.mem_tuples as u64);
        obs_handles::ingest_bytes().add(record.mem.len() as u64);
        if !rows.is_ragged() {
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
        assert!(matches!(diff(Some(&a), Some(b)), Diff::Carried));
        let Diff::Appended(suffix) = diff(Some(&a), Some(block(&[4, 2, 5, 3, 1]))) else {
            panic!("a sorted prefix appends")
        };
        assert_eq!(ints(&suffix), [4, 5]);
        let Diff::Replaced {
            rows,
            in_order: false,
        } = diff(Some(&a), Some(block(&[9, 1])))
        else {
            panic!("diverged rows replace")
        };
        assert_eq!(ints(&rows), [1, 9]);
        let Diff::Replaced { rows, .. } = diff(None, Some(a.clone())) else {
            panic!("new rows replace")
        };
        assert_eq!(ints(&rows), [1, 2, 3]);
        assert!(matches!(
            diff(Some(&block(&[])), Some(a.clone())),
            Diff::Replaced { .. }
        ));
        assert!(matches!(
            diff(Some(&a), Some(block(&[1, 2]))),
            Diff::Replaced { in_order: true, .. }
        ));
        assert!(matches!(diff(Some(&a), None), Diff::Tombstoned));
        assert!(matches!(diff(Some(&a), Some(block(&[]))), Diff::Tombstoned));
        assert!(matches!(
            diff(Some(&block(&[])), Some(block(&[]))),
            Diff::Carried
        ));
        assert!(matches!(diff(Some(&block(&[])), None), Diff::Absent));
        assert!(matches!(diff(None, Some(block(&[]))), Diff::Absent));
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
        let in_order = matches!(
            diff(None, Some(rows)),
            Diff::Replaced { in_order: true, .. }
        );
        in_order && adoptable(next, &(0, "p".to_string())).is_some()
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
}
