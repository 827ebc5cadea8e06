//! Flat row blocks: the unit in which rows travel, written and read.
//!
//! A [`RowBlock`] holds the rows of one predicate back to back in one
//! `Vec<Value>`. On the write side a captured row is written into a block
//! once, where it is generated, and stays there — through the writer's
//! channel, where a layer's per-chunk blocks are moved into one — until
//! the encoder reads it at ingest.
//! On the read side the one record decoder ([`crate::frame`]) writes every
//! record straight into a block, a columnar record column by column into
//! its strided slots; compaction, the epoch fold and diff and
//! [`crate::ProvStore::to_database`] work on those blocks, and only the
//! [`crate::LayerRead`] adapter copies rows out as [`Tuple`]s. Nothing on
//! either road allocates, hashes or frees per row.
//!
//! Rows of one arity are strided — row `i` is `values[i * arity..]` — and
//! nothing else is stored. A block becomes *ragged* only when a row of
//! another arity, or of none, arrives (only a row-major payload, written
//! for a ragged ingest batch or read from an old v1 record, holds such
//! rows); from then on it also records where each row ends.
//!
//! The encoders read rows through [`Rows`], which a block, a run of its
//! rows and a slice of [`Tuple`]s all implement, so there is one encoder
//! body for all of them.

use ariadne_pql::{MulHasher, Tuple, Value};
use std::collections::HashSet;
use std::hash::BuildHasherDefault;

/// A batch of rows an encoder can read.
pub trait Rows {
    /// Number of rows.
    fn len(&self) -> usize;
    /// Row `i`, `i < len()`.
    fn row(&self, i: usize) -> &[Value];
    /// Whether there are no rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The rows as one run of values, `arity` per row, when they are
    /// stored that way: a column is then a strided walk.
    fn strided(&self) -> Option<(&[Value], usize)> {
        None
    }
}

impl Rows for [Tuple] {
    fn len(&self) -> usize {
        <[Tuple]>::len(self)
    }
    fn row(&self, i: usize) -> &[Value] {
        &self[i]
    }
}

impl Rows for Vec<Tuple> {
    fn len(&self) -> usize {
        Vec::len(self)
    }
    fn row(&self, i: usize) -> &[Value] {
        &self[i]
    }
}

/// Rows stored back to back: strided while they share one arity, with
/// recorded row ends once they do not. An empty block takes the arity of
/// the first row put into it.
#[derive(Clone, Debug, Default)]
pub struct RowBlock {
    /// Values per row while the block is not ragged.
    arity: usize,
    values: Vec<Value>,
    /// The end offset in `values` of every row — kept only while the
    /// block is ragged, and empty otherwise.
    ends: Vec<usize>,
}

impl Rows for RowBlock {
    fn len(&self) -> usize {
        if self.ends.is_empty() {
            self.values.len().checked_div(self.arity).unwrap_or(0)
        } else {
            self.ends.len()
        }
    }
    fn row(&self, i: usize) -> &[Value] {
        if self.ends.is_empty() {
            &self.values[i * self.arity..(i + 1) * self.arity]
        } else {
            &self.values[self.start(i)..self.ends[i]]
        }
    }
    fn strided(&self) -> Option<(&[Value], usize)> {
        (self.ends.is_empty() && self.arity > 0).then_some((&self.values[..], self.arity))
    }
}

/// Consecutive rows of a [`RowBlock`]: `len` rows from row `first` on.
#[derive(Clone, Copy, Debug)]
pub struct RowChunk<'a> {
    block: &'a RowBlock,
    first: usize,
    len: usize,
}

impl Rows for RowChunk<'_> {
    fn len(&self) -> usize {
        self.len
    }
    fn row(&self, i: usize) -> &[Value] {
        self.block.row(self.first + i)
    }
    fn strided(&self) -> Option<(&[Value], usize)> {
        let (values, arity) = self.block.strided()?;
        Some((
            &values[self.first * arity..(self.first + self.len) * arity],
            arity,
        ))
    }
}

impl PartialEq for RowBlock {
    /// Equal rows in equal order, however each block stores them.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && (0..self.len()).all(|i| self.row(i) == other.row(i))
    }
}

impl RowBlock {
    /// An empty block with room for `values` values (rows × arity).
    pub fn with_capacity(values: usize) -> Self {
        RowBlock {
            values: Vec::with_capacity(values),
            ..RowBlock::default()
        }
    }

    /// Flatten `tuples`, whatever their arities.
    pub fn from_tuples(tuples: Vec<Tuple>) -> RowBlock {
        let mut block = RowBlock::with_capacity(tuples.iter().map(Vec::len).sum());
        for t in &tuples {
            block.push(t);
        }
        block
    }

    /// Values per row (0 while the block has never held a row). Only
    /// meaningful for a block that is not [ragged](RowBlock::is_ragged).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Whether the rows differ in arity, or have none: such a block has
    /// no columnar form.
    pub fn is_ragged(&self) -> bool {
        !self.ends.is_empty()
    }

    /// The first row's arity and the first arity after it that differs,
    /// if the rows do not all share one (only a ragged block's can).
    pub fn mixed_arities(&self) -> Option<(usize, usize)> {
        if !self.is_ragged() {
            return None;
        }
        let mut arities = self.rows().map(<[Value]>::len);
        let first = arities.next()?;
        Some((first, arities.find(|&a| a != first)?))
    }

    /// Values held (summed over the rows).
    pub fn value_count(&self) -> usize {
        self.values.len()
    }

    /// Where row `i` starts in `values`.
    fn start(&self, i: usize) -> usize {
        match i {
            0 => 0,
            _ => self.end(i - 1),
        }
    }

    /// Where row `i` ends in `values`.
    fn end(&self, i: usize) -> usize {
        if self.ends.is_empty() {
            (i + 1) * self.arity
        } else {
            self.ends[i]
        }
    }

    /// The rows, in order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[Value]> {
        (0..self.len()).map(|i| self.row(i))
    }

    /// The rows, `rows` (at least one) at a time.
    pub fn chunks(&self, rows: usize) -> impl Iterator<Item = RowChunk<'_>> {
        let (step, len) = (rows.max(1), self.len());
        (0..len).step_by(step).map(move |first| RowChunk {
            block: self,
            first,
            len: step.min(len - first),
        })
    }

    /// The rows as tuples: one `Vec` per row, the copy a
    /// [`crate::LayerRead`] of tuples hands out.
    pub(crate) fn to_tuples(&self) -> Vec<Tuple> {
        self.rows().map(<[Value]>::to_vec).collect()
    }

    /// Make room for `rows` more rows of `arity` values.
    pub fn reserve(&mut self, rows: usize, arity: usize) {
        self.values.reserve(rows * arity);
    }

    /// Drop every row.
    pub(crate) fn clear(&mut self) {
        self.values.clear();
        self.ends.clear();
    }

    /// Keep the first `rows` rows.
    pub(crate) fn truncate(&mut self, rows: usize) {
        if rows < self.len() {
            self.values.truncate(self.start(rows));
            if self.is_ragged() {
                self.ends.truncate(rows);
            }
        }
    }

    /// Start recording row ends (a no-op for a block that already does).
    fn make_ragged(&mut self) {
        if self.ends.is_empty() {
            self.ends = (1..=self.len()).map(|i| i * self.arity).collect();
        }
    }

    /// Append `rows` rows of `arity` values, each [`Value::Unit`], and
    /// hand back their values to be written in place, row after row —
    /// how a decoder fills a record's rows column by column.
    pub(crate) fn grow(&mut self, rows: usize, arity: usize) -> &mut [Value] {
        let start = self.values.len();
        if rows > 0 {
            if !self.is_ragged() && arity > 0 && (self.is_empty() || arity == self.arity) {
                self.arity = arity;
            } else {
                self.make_ragged();
                self.ends.extend((1..=rows).map(|r| start + r * arity));
            }
            self.values.resize(start + rows * arity, Value::Unit);
        }
        &mut self.values[start..]
    }

    /// Append one row.
    pub fn push(&mut self, row: &[Value]) {
        if !self.is_ragged() && row.len() == self.arity && !row.is_empty() {
            self.values.extend_from_slice(row);
        } else {
            self.grow(1, row.len()).clone_from_slice(row);
        }
    }

    /// Move every row of `other` to the end of this block.
    pub fn append(&mut self, mut other: RowBlock) {
        if self.is_empty() {
            // Take the buffer itself: nothing is copied.
            *self = other;
        } else if !self.is_ragged() && !other.is_ragged() && self.arity == other.arity {
            self.values.append(&mut other.values);
        } else {
            other.rows().for_each(|row| self.push(row));
        }
    }

    /// The rows at `order`, in that order, as a new block.
    pub(crate) fn gather(&self, order: &[u32]) -> RowBlock {
        let mut out = RowBlock::with_capacity(order.len() * self.arity);
        for &i in order {
            out.push(self.row(i as usize));
        }
        out
    }

    /// Reorder the rows in place so that row `i` is the row that was at
    /// `order[i]` (`order` is a permutation of the rows; it is used up
    /// as the walk's scratch). Values are swapped, never cloned.
    pub(crate) fn permute(&mut self, mut order: Vec<u32>) {
        if self.is_ragged() {
            *self = self.gather(&order);
            return;
        }
        const PLACED: u32 = u32::MAX;
        let arity = self.arity;
        // Follow each cycle of the permutation, pulling every row into
        // place with one swap.
        for start in 0..order.len() {
            let mut at = start;
            while order[at] != PLACED {
                let from = order[at] as usize;
                order[at] = PLACED;
                if from == start {
                    break;
                }
                for k in 0..arity {
                    self.values.swap(at * arity + k, from * arity + k);
                }
                at = from;
            }
        }
    }

    /// Row indices in ascending row order: the block sorted by a
    /// permutation, without moving a value. Equal rows are equal value
    /// for value, so any order among them gives the same sorted rows.
    pub(crate) fn sorted_order(&self) -> Vec<u32> {
        let rows = u32::try_from(self.len()).expect("a block holds under 2^32 rows");
        let mut order: Vec<u32> = (0..rows).collect();
        order.sort_unstable_by(|&a, &b| self.row(a as usize).cmp(self.row(b as usize)));
        order
    }

    /// Drop every row from row `from` on that repeats an earlier row at
    /// or after `from`, keeping first occurrences in order — what
    /// inserting that tail into a relation would have kept. It hashes
    /// every row of the tail; the row router calls it only for a checked
    /// batch with no relation beside the block (see [`crate::edb`]).
    pub fn dedup_from(&mut self, from: usize) {
        let keep: Vec<bool> = {
            let mut seen: HashSet<&[Value], BuildHasherDefault<MulHasher>> = HashSet::default();
            (from..self.len())
                .map(|i| seen.insert(self.row(i)))
                .collect()
        };
        if self.is_ragged() {
            let kept: Vec<u32> = (from..self.len())
                .filter(|&i| keep[i - from])
                .map(|i| i as u32)
                .collect();
            let tail = self.gather(&kept);
            self.truncate(from);
            self.append(tail);
            return;
        }
        let arity = self.arity;
        let mut kept = from;
        for (i, keep) in keep.into_iter().enumerate() {
            if keep {
                let (at, to) = ((from + i) * arity, kept * arity);
                if at != to {
                    for k in 0..arity {
                        self.values.swap(at + k, to + k);
                    }
                }
                kept += 1;
            }
        }
        self.values.truncate(kept * arity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(x: u64, i: i64) -> Tuple {
        vec![Value::Id(x), Value::Int(i)]
    }

    #[test]
    fn push_adopts_the_first_arity() {
        let mut b = RowBlock::default();
        assert_eq!((b.len(), b.arity()), (0, 0));
        assert_eq!(b.rows().len(), 0);
        b.push(&row(1, 0));
        b.push(&row(2, 0));
        assert_eq!((b.len(), b.arity(), b.value_count()), (2, 2, 4));
        assert!(!b.is_ragged());
        assert_eq!(b.row(1), row(2, 0));
        assert_eq!(b.to_tuples(), [row(1, 0), row(2, 0)]);
        b.push(&row(3, 0));
        let chunks: Vec<_> = b.chunks(2).collect();
        assert_eq!(chunks.iter().map(Rows::len).collect::<Vec<_>>(), [2, 1]);
        assert_eq!(chunks[1].row(0), row(3, 0));
    }

    /// Rows of another arity, or of none, turn the block ragged; every
    /// row still reads back exactly, and truncating or clearing it
    /// restores the strided form.
    #[test]
    fn ragged_rows_read_back_exactly() {
        let tuples = vec![row(1, 0), vec![Value::Id(4)], vec![], row(5, 0)];
        let mut b = RowBlock::from_tuples(tuples.clone());
        assert!(b.is_ragged());
        assert_eq!((b.len(), b.value_count()), (4, 5));
        assert_eq!(b.to_tuples(), tuples);
        let chunks: Vec<_> = b.chunks(3).collect();
        assert_eq!(chunks[0].row(2), &[] as &[Value]);
        assert_eq!(chunks[1].row(0), row(5, 0));
        b.truncate(2);
        assert_eq!(b.to_tuples(), tuples[..2]);
        b.clear();
        assert!(!b.is_ragged());
        b.push(&row(9, 9));
        assert_eq!((b.len(), b.arity(), b.is_ragged()), (1, 2, false));
        // A row without values alone is ragged too: it has no stride.
        let empty = RowBlock::from_tuples(vec![vec![], vec![]]);
        assert!(empty.is_ragged());
        assert_eq!(empty.mixed_arities(), None, "ragged, but one arity");
        let mixed = RowBlock::from_tuples(tuples.clone());
        assert_eq!(mixed.mixed_arities(), Some((2, 1)));
        assert_eq!(RowBlock::from_tuples(vec![row(1, 0)]).mixed_arities(), None);
        assert_eq!(empty.to_tuples(), vec![Vec::<Value>::new(); 2]);
    }

    #[test]
    fn grow_opens_strided_slots_and_turns_ragged_on_a_new_arity() {
        let mut b = RowBlock::default();
        b.grow(2, 2)[3] = Value::Int(7);
        assert_eq!(
            b.to_tuples(),
            [vec![Value::Unit; 2], vec![Value::Unit, Value::Int(7)]]
        );
        assert!(!b.is_ragged());
        b.grow(1, 3)[0] = Value::Id(1);
        assert!(b.is_ragged());
        assert_eq!(b.row(2), [Value::Id(1), Value::Unit, Value::Unit]);
        assert!(b.grow(0, 5).is_empty());
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn append_moves_rows() {
        let mut a = RowBlock::default();
        a.append(RowBlock::from_tuples(vec![row(1, 0)]));
        a.append(RowBlock::default());
        a.append(RowBlock::from_tuples(vec![row(2, 0)]));
        assert_eq!(a, RowBlock::from_tuples(vec![row(1, 0), row(2, 0)]));
        assert!(!a.is_ragged());
        a.append(RowBlock::from_tuples(vec![vec![Value::Id(3)]]));
        let mut b = RowBlock::from_tuples(vec![row(0, 0)]);
        b.append(a);
        b.append(RowBlock::from_tuples(vec![row(4, 0)]));
        let want = vec![
            row(0, 0),
            row(1, 0),
            row(2, 0),
            vec![Value::Id(3)],
            row(4, 0),
        ];
        assert_eq!(b.to_tuples(), want);
    }

    #[test]
    fn sorted_order_and_gather_sort_without_moving() {
        let b = RowBlock::from_tuples(vec![row(3, 0), row(1, 1), row(3, 0), row(2, 0)]);
        let order = b.sorted_order();
        assert_eq!(
            b.gather(&order).to_tuples(),
            [row(1, 1), row(2, 0), row(3, 0), row(3, 0)]
        );
        assert_eq!(b.gather(&order[2..]).len(), 2);
        let ragged = RowBlock::from_tuples(vec![row(2, 0), vec![Value::Id(1)]]);
        let order = ragged.sorted_order();
        assert_eq!(
            ragged.gather(&order).to_tuples(),
            [vec![Value::Id(1)], row(2, 0)]
        );
    }

    #[test]
    fn permute_moves_rows_into_sorted_order() {
        let tuples: Vec<Tuple> = [5, 3, 9, 1, 3, 7, 0]
            .iter()
            .map(|&x| row(x, -(x as i64)))
            .collect();
        let mut b = RowBlock::from_tuples(tuples.clone());
        let order = b.sorted_order();
        let want = b.gather(&order);
        b.permute(order);
        assert_eq!(b, want);
        let mut sorted = tuples;
        sorted.sort();
        assert_eq!(b.to_tuples(), sorted);
        let mut ragged = RowBlock::from_tuples(vec![row(2, 0), vec![Value::Id(1)], vec![]]);
        let order = ragged.sorted_order();
        ragged.permute(order);
        assert_eq!(ragged.to_tuples(), [vec![], vec![Value::Id(1)], row(2, 0)]);
    }

    #[test]
    fn dedup_keeps_first_occurrences_of_the_tail_only() {
        let rows = vec![
            row(7, 0),
            row(3, 1),
            row(7, 0),
            row(2, 1),
            row(3, 1),
            row(2, 1),
            row(9, 1),
        ];
        let mut b = RowBlock::from_tuples(rows.clone());
        // Row 0 is outside the tail: its repeat at row 2 stays.
        b.dedup_from(1);
        let want = vec![row(7, 0), row(3, 1), row(7, 0), row(2, 1), row(9, 1)];
        assert_eq!(b, RowBlock::from_tuples(want.clone()));
        // The same rows behind a ragged head dedup the same way.
        let mut ragged = RowBlock::from_tuples(vec![vec![Value::Id(0)]]);
        ragged.append(RowBlock::from_tuples(rows));
        ragged.dedup_from(2);
        let mut want_ragged = vec![vec![Value::Id(0)]];
        want_ragged.extend(want);
        assert_eq!(ragged.to_tuples(), want_ragged);
    }
}
