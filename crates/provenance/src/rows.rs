//! Flat row blocks: the unit in which captured rows travel.
//!
//! A [`RowBlock`] holds the rows of one predicate back to back in one
//! `Vec<Value>`, `arity` values per row. A captured row is written into a
//! block once, where it is generated, and stays there — through the
//! writer's channel and the segment's pending buffer — until the encoder
//! reads it; nothing on that road allocates, hashes or frees per row.
//!
//! The encoders read rows through [`Rows`], which a block and a slice of
//! [`Tuple`]s (compaction and epoch diffs decode into those) both
//! implement, so there is one encoder body for both.

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

/// Rows of one arity, stored back to back. An empty block has no arity
/// yet: it takes the arity of the first row pushed into it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RowBlock {
    arity: usize,
    values: Vec<Value>,
}

impl Rows for RowBlock {
    fn len(&self) -> usize {
        self.values.len().checked_div(self.arity).unwrap_or(0)
    }
    fn row(&self, i: usize) -> &[Value] {
        &self.values[i * self.arity..(i + 1) * self.arity]
    }
}

/// Consecutive rows of a [`RowBlock`].
#[derive(Clone, Copy, Debug)]
pub struct RowChunk<'a> {
    arity: usize,
    values: &'a [Value],
}

impl Rows for RowChunk<'_> {
    fn len(&self) -> usize {
        self.values.len() / self.arity
    }
    fn row(&self, i: usize) -> &[Value] {
        &self.values[i * self.arity..(i + 1) * self.arity]
    }
}

impl RowBlock {
    /// An empty block with room for `values` values (rows × arity).
    pub fn with_capacity(values: usize) -> Self {
        RowBlock {
            arity: 0,
            values: Vec::with_capacity(values),
        }
    }

    /// Flatten `tuples`; hands them back when they have no flat form
    /// (mixed arities, or no columns at all).
    pub fn from_tuples(tuples: Vec<Tuple>) -> Result<RowBlock, Vec<Tuple>> {
        let arity = tuples.first().map_or(0, Vec::len);
        if arity == 0 || tuples.iter().any(|t| t.len() != arity) {
            return Err(tuples);
        }
        let mut values = Vec::with_capacity(tuples.len() * arity);
        values.extend(tuples.into_iter().flatten());
        Ok(RowBlock { arity, values })
    }

    /// Values per row (0 while the block has never held a row).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Values held (rows × arity).
    pub fn value_count(&self) -> usize {
        self.values.len()
    }

    /// The rows, in order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[Value]> {
        self.values.chunks_exact(self.arity.max(1))
    }

    /// The rows, `rows` (at least one) at a time.
    pub fn chunks(&self, rows: usize) -> impl Iterator<Item = RowChunk<'_>> {
        let arity = self.arity.max(1);
        self.values
            .chunks(rows.max(1) * arity)
            .map(move |values| RowChunk { arity, values })
    }

    /// Make room for `rows` more rows of `arity` values.
    pub fn reserve(&mut self, rows: usize, arity: usize) {
        self.values.reserve(rows * arity);
    }

    /// Append one row.
    ///
    /// Panics on an empty row or one of another arity than the rows held
    /// — a generator bug, not a data condition.
    pub fn push(&mut self, row: &[Value]) {
        if self.values.is_empty() {
            assert!(!row.is_empty(), "a row has at least its location");
            self.arity = row.len();
        }
        assert_eq!(
            row.len(),
            self.arity,
            "arity mismatch appending to a row block"
        );
        self.values.extend_from_slice(row);
    }

    /// Move every row of `other` (same arity, or either side empty) to
    /// the end of this block.
    pub fn append(&mut self, mut other: RowBlock) {
        if self.values.is_empty() {
            // Take the buffer itself: nothing is copied.
            *self = other;
        } else if !other.values.is_empty() {
            assert_eq!(
                other.arity, self.arity,
                "arity mismatch appending row blocks"
            );
            self.values.append(&mut other.values);
        }
    }

    /// Drop every row from row `from` on that repeats an earlier row at
    /// or after `from`, keeping first occurrences in order — what
    /// inserting that tail into a relation would have kept.
    pub fn dedup_from(&mut self, from: usize) {
        let arity = self.arity.max(1);
        let keep: Vec<bool> = {
            let mut seen: HashSet<&[Value], BuildHasherDefault<MulHasher>> = HashSet::default();
            let tail = self.values[from * arity..].chunks_exact(arity);
            tail.map(|row| seen.insert(row)).collect()
        };
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
        assert_eq!(b.row(1), row(2, 0));
        assert_eq!(
            b.rows().map(<[Value]>::to_vec).collect::<Vec<_>>(),
            [row(1, 0), row(2, 0)]
        );
        b.push(&row(3, 0));
        let chunks: Vec<_> = b.chunks(2).collect();
        assert_eq!(chunks.iter().map(Rows::len).collect::<Vec<_>>(), [2, 1]);
        assert_eq!(chunks[1].row(0), row(3, 0));
    }

    #[test]
    fn from_tuples_refuses_ragged_and_columnless() {
        let flat = RowBlock::from_tuples(vec![row(1, 0), row(2, 1)]).unwrap();
        assert_eq!((flat.len(), flat.arity()), (2, 2));
        let ragged = vec![row(1, 0), vec![Value::Id(1)]];
        assert_eq!(RowBlock::from_tuples(ragged.clone()), Err(ragged));
        assert_eq!(RowBlock::from_tuples(vec![vec![]]), Err(vec![vec![]]));
        assert_eq!(RowBlock::from_tuples(vec![]), Err(vec![]));
    }

    #[test]
    fn append_moves_rows() {
        let mut a = RowBlock::default();
        a.append(RowBlock::from_tuples(vec![row(1, 0)]).unwrap());
        a.append(RowBlock::default());
        a.append(RowBlock::from_tuples(vec![row(2, 0)]).unwrap());
        assert_eq!(
            a,
            RowBlock::from_tuples(vec![row(1, 0), row(2, 0)]).unwrap()
        );
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
        let mut b = RowBlock::from_tuples(rows).unwrap();
        // Row 0 is outside the tail: its repeat at row 2 stays.
        b.dedup_from(1);
        let want = vec![row(7, 0), row(3, 1), row(7, 0), row(2, 1), row(9, 1)];
        assert_eq!(b, RowBlock::from_tuples(want).unwrap());
    }
}
