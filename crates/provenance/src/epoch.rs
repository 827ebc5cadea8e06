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
//! Logical reads ([`crate::ProvStore::layer_read_with`],
//! [`crate::ProvStore::to_database`], [`crate::ProvStore::max_superstep`])
//! materialize superstep `s` by folding the epoch chain in order; a
//! store with no epochs reads its physical layers directly, byte for
//! byte the pre-epoch behaviour. Column masks apply *after*
//! materialization (the chain must see raw tuples to diff them).
//!
//! The diff runs in **canonical (sorted) tuple order**: multi-threaded
//! captures ingest per-chunk buffers in arrival order, so the physical
//! order inside a layer is not deterministic run to run, and a raw
//! comparison would misclassify pure reorderings as replacements.
//! Equivalence between an epoch-folded read and a cold capture is
//! therefore a statement about sorted layer content — the same form
//! the rest of the system compares stores in. See `docs/MUTATIONS.md`
//! for the numbering walkthrough.

use crate::store::{blank_masked, LayerFilter, LayerRead, ProvStore, ReadPolicy, StoreError};
use ariadne_pql::{Tuple, Value};
use std::collections::{BTreeMap, BTreeSet};

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
    /// Encoded bytes a full re-capture of the new run would have
    /// written (the cold baseline for the delta win).
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
    pred == EPOCH_MARKER || pred.starts_with("~add~") || pred.starts_with("~del~")
}

impl ProvStore {
    /// Materialize one logical layer of an epoch-layered store by
    /// folding the epoch chain: start from the base capture's layer,
    /// then per delta epoch apply full replacements, `~add~` suffixes
    /// and `~del~` tombstones. Column masks are applied *after*
    /// materialization (the fold must compare raw tuples), so the
    /// column-skip byte accounting of the physical fast path does not
    /// apply here — `cols_skipped` stays 0 on this path.
    pub(crate) fn logical_layer_read(
        &self,
        superstep: u32,
        filter: &LayerFilter,
        policy: ReadPolicy,
    ) -> Result<LayerRead, StoreError> {
        // Widen the predicate allow-set to the diff spellings.
        let chain_filter = match &filter.preds {
            None => LayerFilter::all(),
            Some(set) => {
                let mut wide = BTreeSet::clone(set);
                for p in set.iter() {
                    wide.insert(shadow_add(p));
                    wide.insert(shadow_del(p));
                }
                LayerFilter::for_preds(wide)
            }
        };
        let mut out = LayerRead::default();
        let mut acc: BTreeMap<String, Vec<Tuple>> = BTreeMap::new();
        for info in &self.epochs {
            if superstep >= info.supersteps {
                // This epoch's run stopped earlier: the logical layer
                // does not exist here. It may reappear in a later epoch
                // (written as a full replacement, since it was diffed
                // against empty content).
                acc.clear();
                continue;
            }
            let phys = info.base + superstep;
            let read = self.physical_layer_read_with(phys, &chain_filter, policy)?;
            out.segments_read += read.segments_read;
            out.segments_skipped += read.segments_skipped;
            out.bytes_read += read.bytes_read;
            out.bytes_skipped += read.bytes_skipped;
            out.degradation.absorb(&read.degradation);
            for (pred, tuples) in read.tuples {
                if pred == EPOCH_MARKER {
                    continue;
                }
                if let Some(base) = pred.strip_prefix("~add~") {
                    acc.entry(base.to_string()).or_default().extend(tuples);
                } else if let Some(base) = pred.strip_prefix("~del~") {
                    acc.remove(base);
                } else {
                    acc.insert(pred, tuples);
                }
            }
        }
        for (pred, mut tuples) in acc {
            if let Some(mask) = filter.mask(&pred) {
                blank_masked(&mut tuples, mask);
            }
            out.tuples.push((pred, tuples));
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
    /// `next` is usually an in-memory scratch capture; predicates with
    /// reserved `~`-spellings in it are ignored. The returned
    /// [`EpochStats`] reports the carried/appended/replaced split and
    /// the byte win against `next`'s full size.
    pub fn append_epoch(&mut self, next: &ProvStore) -> Result<EpochStats, StoreError> {
        let new_sup = next.max_superstep().map_or(0, |m| m + 1);
        let old_sup = self.max_superstep().map_or(0, |m| m + 1);
        let base = self.max_step.map_or(0, |m| m + 1);
        if self.epochs.is_empty() {
            // First mutation: register the original capture as epoch 0.
            self.epochs.push(EpochInfo {
                base: 0,
                supersteps: old_sup,
            });
        }
        let epoch_index = self.epochs.len() as u32;
        self.pack_all();
        let bytes_before = self.byte_size();
        let mut stats = EpochStats {
            epoch: u64::from(epoch_index),
            cold_bytes: next.byte_size(),
            ..EpochStats::default()
        };
        for s in 0..new_sup {
            let new_layer = next.layer(s)?;
            let old_layer: BTreeMap<String, Vec<Tuple>> = if s < old_sup {
                self.layer(s)?.into_iter().collect()
            } else {
                BTreeMap::new()
            };
            let mut new_preds: BTreeSet<String> = BTreeSet::new();
            for (pred, mut new_tuples) in new_layer {
                if is_reserved(&pred) {
                    continue;
                }
                new_preds.insert(pred.clone());
                // Diff in canonical (sorted) order: multi-threaded
                // captures ingest per-chunk buffers in arrival order,
                // so the physical tuple order inside a layer is not
                // deterministic run to run. Comparing raw order would
                // misclassify pure reorderings as full replacements;
                // layer equivalence is a statement about content, and
                // content is compared sorted everywhere else too.
                new_tuples.sort();
                let old_sorted = old_layer.get(&pred).map(|o| {
                    let mut o = o.clone();
                    o.sort();
                    o
                });
                match &old_sorted {
                    Some(old) if *old == new_tuples => stats.carried += 1,
                    Some(old)
                        if !old.is_empty()
                            && new_tuples.len() > old.len()
                            && new_tuples[..old.len()] == old[..] =>
                    {
                        self.ingest(
                            base + s,
                            &shadow_add(&pred),
                            new_tuples[old.len()..].to_vec(),
                        )?;
                        stats.appended += 1;
                    }
                    _ if new_tuples.is_empty() => {
                        if old_layer.get(&pred).is_some_and(|o| !o.is_empty()) {
                            self.ingest(
                                base + s,
                                &shadow_del(&pred),
                                vec![vec![Value::Int(0)]],
                            )?;
                            stats.tombstoned += 1;
                        }
                    }
                    _ => {
                        self.ingest(base + s, &pred, new_tuples)?;
                        stats.replaced += 1;
                    }
                }
            }
            for (pred, old) in &old_layer {
                if !old.is_empty() && !new_preds.contains(pred) {
                    self.ingest(base + s, &shadow_del(pred), vec![vec![Value::Int(0)]])?;
                    stats.tombstoned += 1;
                }
            }
        }
        self.ingest(
            base,
            EPOCH_MARKER,
            vec![vec![
                Value::Int(i64::from(epoch_index)),
                Value::Int(i64::from(base)),
                Value::Int(i64::from(new_sup)),
            ]],
        )?;
        self.epochs.push(EpochInfo {
            base,
            supersteps: new_sup,
        });
        self.pack_all();
        stats.bytes_appended = self.byte_size().saturating_sub(bytes_before);
        Ok(stats)
    }

    /// Rebuild the epoch table from `~epoch~` marker segments — called
    /// by spool resume, where the in-memory table of the previous
    /// incarnation is gone.
    pub(crate) fn rebuild_epochs(&mut self) -> Result<(), StoreError> {
        let mut markers: Vec<(i64, i64, i64)> = Vec::new();
        for ((_, pred), seg) in &self.segments {
            if pred != EPOCH_MARKER {
                continue;
            }
            let mut tuples = Vec::new();
            seg.decode_into(
                self.config.read_backend,
                None,
                &mut tuples,
                None,
                ReadPolicy::Strict,
            )?;
            for t in tuples {
                if let [Value::Int(idx), Value::Int(mbase), Value::Int(sup)] = t.as_slice() {
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

    #[test]
    fn reserved_spellings() {
        assert!(is_reserved(EPOCH_MARKER));
        assert!(is_reserved(&shadow_add("send_message")));
        assert!(is_reserved(&shadow_del("value")));
        assert!(!is_reserved("send_message"));
        assert_eq!(shadow_add("p"), "~add~p");
        assert_eq!(shadow_del("p"), "~del~p");
    }
}
