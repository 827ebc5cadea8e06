//! Tuple storage: deterministic, deduplicated relations with lazy
//! incremental hash indexes.
//!
//! Every tuple is stored **once**, in insertion order, in one `Vec`; scans
//! and probe results follow that order, so evaluation is deterministic.
//! Dedup and the per-column-subset indexes are the same structure, a
//! `Chains` table of *row ids* chained by the hash of the tuple's values
//! at some columns — no tuple or key is ever cloned into a second
//! container. Hashing is a fixed multiplicative hash rather than SipHash:
//! a hash only picks which rows get compared, rows of one chain are kept
//! in ascending order and every hit is verified against the stored tuple,
//! so no hash value (or collision) can reach a result or a counter.
//!
//! Most relations of a per-vertex database hold a handful of tuples. Up to
//! `SMALL` tuples a relation has no `Chains` at all: `insert`,
//! `contains` and the probes are linear scans. Past `SMALL` every table is
//! a cache: the dedup table is built by the first lookup, checked insert
//! or full-key probe that needs it, a column index by the first probe on
//! its columns, and each is maintained incrementally from then on.
//! [`Relation::append_fresh`] appends a tuple the caller knows is new
//! without a lookup, so a relation that only the EDB generator fills and
//! only delta windows read never builds one. Tables live behind a
//! `OnceCell` (dedup) or a `RefCell` (indexes) because the evaluator reads
//! relations through shared references while joining.
//!
//! A relation only ever grows: there is no removal. A row id, and so any
//! frontier or delta window a caller holds over a relation, stays valid
//! for the relation's lifetime. Retraction happens at the store level,
//! where a mutation epoch replaces whole (superstep, predicate) layers,
//! never tuple by tuple inside an evaluator's database.

use crate::eval::value::Value;
use std::cell::{OnceCell, RefCell};
use std::hash::{Hash, Hasher};

/// A relation tuple.
pub type Tuple = Vec<Value>;

/// Largest relation served by linear scans alone. A scan of this many
/// short tuples costs about what hashing one and walking its chain does.
const SMALL: usize = 12;

/// Fx-style multiplicative hasher; deterministic across runs and hosts.
/// The multiplication leaves its entropy in the high bits: index a table
/// by the top bits of [`Hasher::finish`], not the bottom ones.
#[derive(Default)]
pub struct MulHasher(u64);

impl Hasher for MulHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }
    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0.rotate_left(5) ^ i).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

fn hash_values<'a>(values: impl Iterator<Item = &'a Value>) -> u64 {
    let mut hasher = MulHasher::default();
    for v in values {
        v.hash(&mut hasher);
    }
    hasher.finish()
}

/// Make room in `v` for `additional` more items by moving into a fresh
/// buffer, never by `realloc`.
///
/// A per-vertex relation is grown by whichever engine thread computes the
/// vertex that superstep, and the engine starts fresh threads every
/// phase, so the buffer usually belongs to another thread's malloc arena.
/// `realloc` takes that arena's lock — while its current owner is
/// allocating from it at full rate — whereas freeing the old buffer
/// lands in the caller's own thread cache.
fn grow<T>(v: &mut Vec<T>, additional: usize) {
    if v.capacity() - v.len() < additional {
        let room = (v.len() + additional).max(v.capacity() * 2).max(4);
        let mut bigger = Vec::with_capacity(room);
        bigger.append(v);
        *v = bigger;
    }
}

/// Row ids chained by the hash of each row's values at `cols`. Bucket and
/// link entries are `row + 1`, `0` meaning none. A chain lists its rows in
/// ascending order (rows are appended at the tail and relinked in row
/// order on growth), so probes return matches in insertion order.
#[derive(Clone, Debug)]
struct Chains {
    cols: Vec<usize>,
    /// `(head, tail)` per bucket; the length is a power of two.
    buckets: Vec<(u32, u32)>,
    /// Per row: the next row of its bucket's chain.
    next: Vec<u32>,
    /// Per row: its key hash, so growth never rehashes and a chain walk
    /// compares tuples only on a full hash match.
    hashes: Vec<u64>,
}

impl Chains {
    fn build(cols: Vec<usize>, tuples: &[Tuple]) -> Self {
        let mut chains = Chains {
            cols,
            buckets: vec![(0, 0); tuples.len().next_power_of_two().max(16)],
            next: Vec::with_capacity(tuples.len()),
            hashes: Vec::with_capacity(tuples.len()),
        };
        for t in tuples {
            chains.push(chains.key_hash(t));
        }
        chains
    }

    fn key_hash(&self, tuple: &[Value]) -> u64 {
        hash_values(self.cols.iter().map(|&c| &tuple[c]))
    }

    /// The multiplication leaves its entropy in the high bits.
    fn bucket(&self, hash: u64) -> usize {
        (hash >> (64 - self.buckets.len().trailing_zeros())) as usize
    }

    /// Append the next row (its id is the number of rows so far), whose
    /// key hashes to `hash`.
    fn push(&mut self, hash: u64) {
        if self.hashes.len() >= self.buckets.len() {
            self.buckets = vec![(0, 0); self.buckets.len() * 2];
            for row in 0..self.hashes.len() {
                self.link(row);
            }
        }
        grow(&mut self.hashes, 1);
        grow(&mut self.next, 1);
        self.hashes.push(hash);
        self.next.push(0);
        self.link(self.hashes.len() - 1);
    }

    fn link(&mut self, row: usize) {
        let id = u32::try_from(row + 1).expect("relation holds fewer than 2^32 tuples");
        self.next[row] = 0;
        let b = self.bucket(self.hashes[row]);
        match self.buckets[b] {
            (0, _) => self.buckets[b] = (id, id),
            (_, tail) => {
                self.next[tail as usize - 1] = id;
                self.buckets[b].1 = id;
            }
        }
    }

    /// Rows whose key hash equals `hash`, ascending. Callers verify the
    /// key itself against the stored tuple.
    fn rows(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        let mut at = self.buckets[self.bucket(hash)].0;
        std::iter::from_fn(move || {
            while at != 0 {
                let row = at as usize - 1;
                at = self.next[row];
                if self.hashes[row] == hash {
                    return Some(row);
                }
            }
            None
        })
    }
}

/// A deduplicated, insertion-ordered set of tuples of fixed arity.
#[derive(Debug, Default)]
pub struct Relation {
    arity: usize,
    tuples: Vec<Tuple>,
    /// Chains over all columns, built by the first lookup that needs them;
    /// `None` while `len() <= SMALL`.
    dedup: OnceCell<Chains>,
    /// Lazily built indexes over (sorted) column subsets; empty while
    /// `len() <= SMALL`.
    indexes: RefCell<Vec<Chains>>,
}

impl Relation {
    /// An empty relation of the given arity.
    pub fn new(arity: usize) -> Self {
        Relation {
            arity,
            ..Default::default()
        }
    }

    /// Arity of the relation.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Insert a tuple; returns true if it was new.
    ///
    /// Panics if the tuple's arity mismatches — that is a compiler bug,
    /// not a data condition.
    pub fn insert(&mut self, tuple: Tuple) -> bool {
        let missed = self.find(&tuple).err();
        missed.map(|hash| self.push_new(tuple, hash)).is_some()
    }

    /// Like [`Relation::insert`] for a borrowed tuple: it is cloned only
    /// when it is new, so a duplicate costs no allocation.
    pub fn insert_slice(&mut self, tuple: &[Value]) -> bool {
        let missed = self.find(tuple).err();
        missed.map(|hash| self.push_new(tuple.to_vec(), hash)).is_some()
    }

    /// Append a tuple the caller knows the relation does not hold, with no
    /// lookup: nothing is hashed and no table is built, though the tables
    /// a lookup already built are kept up to date. Appending a held tuple
    /// breaks set semantics (debug builds check).
    pub fn append_fresh(&mut self, tuple: &[Value]) {
        self.check_arity(tuple);
        debug_assert!(
            !self.tuples.iter().any(|t| t[..] == *tuple),
            "append_fresh of a tuple the relation holds"
        );
        self.push_new(tuple.to_vec(), None);
    }

    /// Make room for `additional` more tuples, so a batch of inserts grows
    /// the tuple vector at most once.
    pub fn reserve(&mut self, additional: usize) {
        grow(&mut self.tuples, additional);
    }

    fn check_arity(&self, tuple: &[Value]) {
        assert_eq!(
            tuple.len(),
            self.arity,
            "arity mismatch inserting into relation of arity {}",
            self.arity
        );
    }

    /// The row holding `tuple`, or (for the insert that follows a miss)
    /// its dedup hash — `None` while the relation is small and has no
    /// table.
    fn find(&self, tuple: &[Value]) -> Result<usize, Option<u64>> {
        self.check_arity(tuple);
        self.lookup(tuple)
    }

    /// [`Relation::find`] for a tuple of any length (none of another
    /// arity is held).
    fn lookup(&self, tuple: &[Value]) -> Result<usize, Option<u64>> {
        if self.tuples.len() <= SMALL {
            return self.tuples.iter().position(|t| t == tuple).ok_or(None);
        }
        let hash = hash_values(tuple.iter());
        let found = self.dedup().rows(hash).find(|&row| self.tuples[row] == tuple);
        found.ok_or(Some(hash))
    }

    /// The dedup table, built now if no lookup has needed it yet. Only a
    /// relation past `SMALL` has one.
    fn dedup(&self) -> &Chains {
        self.dedup
            .get_or_init(|| Chains::build((0..self.arity).collect(), &self.tuples))
    }

    /// Append a tuple the relation does not hold, keeping every built
    /// table up to date; `hash` is its dedup hash when a lookup took it.
    fn push_new(&mut self, tuple: Tuple, hash: Option<u64>) {
        grow(&mut self.tuples, 1);
        if let Some(dedup) = self.dedup.get_mut() {
            dedup.push(hash.unwrap_or_else(|| dedup.key_hash(&tuple)));
        }
        for index in self.indexes.get_mut() {
            index.push(index.key_hash(&tuple));
        }
        self.tuples.push(tuple);
    }

    /// Whether the relation contains `tuple`.
    pub fn contains(&self, tuple: &[Value]) -> bool {
        self.lookup(tuple).is_ok()
    }

    /// All tuples in insertion order.
    pub fn scan(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Tuples from position `from` onward (delta scans).
    pub fn scan_from(&self, from: usize) -> &[Tuple] {
        &self.tuples[from.min(self.tuples.len())..]
    }

    /// Consume the relation into its tuples, in insertion order.
    pub fn into_tuples(self) -> Vec<Tuple> {
        self.tuples
    }

    /// Indices of tuples matching `key` values at `cols`, ascending.
    /// `cols` must be sorted and non-empty.
    pub fn select(&self, cols: &[usize], key: &[Value]) -> Vec<usize> {
        let mut out = Vec::new();
        self.probe(cols, |i| &key[i], |row| {
            out.push(row);
            false
        });
        out
    }

    /// Whether the relation has outgrown linear scans: probes go through
    /// a hash index (built by the first probe that needs it), so a caller
    /// that re-enters the relation while walking the matches must collect
    /// them first.
    pub(crate) fn is_indexed(&self) -> bool {
        self.tuples.len() > SMALL
    }

    /// Feed the rows whose value at `cols[i]` equals `key(i)` to `stop`,
    /// ascending, until it returns true; returns whether it did. The key
    /// is read in place, never collected — the join loop passes frame
    /// slots and plan constants. A small relation is scanned; otherwise
    /// the index over `cols` is built on first use (all columns: the dedup
    /// table is that index). `stop` must not re-enter this relation.
    pub(crate) fn probe<'k>(
        &self,
        cols: &[usize],
        key: impl Fn(usize) -> &'k Value,
        mut stop: impl FnMut(usize) -> bool,
    ) -> bool {
        debug_assert!(!cols.is_empty());
        debug_assert!(cols.windows(2).all(|w| w[0] < w[1]));
        let mut hit = |row: usize| {
            let tuple = &self.tuples[row];
            cols.iter().enumerate().all(|(i, &c)| tuple[c] == *key(i)) && stop(row)
        };
        if !self.is_indexed() {
            return (0..self.tuples.len()).any(hit);
        }
        let hash = hash_values((0..cols.len()).map(&key));
        if cols.len() == self.arity {
            return self.dedup().rows(hash).any(hit);
        }
        let mut indexes = self.indexes.borrow_mut();
        let at = indexes.iter().position(|i| i.cols == cols).unwrap_or_else(|| {
            indexes.push(Chains::build(cols.to_vec(), &self.tuples));
            indexes.len() - 1
        });
        let found = indexes[at].rows(hash).any(&mut hit);
        found
    }

    /// The tuple at `idx`.
    pub fn get(&self, idx: usize) -> &Tuple {
        &self.tuples[idx]
    }

    /// Approximate heap footprint of the stored tuples in bytes (index
    /// and dedup-table overhead excluded; this measures provenance payload,
    /// the quantity Tables 3 and 4 report).
    pub fn byte_size(&self) -> usize {
        self.tuples
            .iter()
            .map(|t| t.iter().map(Value::byte_size).sum::<usize>())
            .sum()
    }
}

impl Clone for Relation {
    fn clone(&self) -> Self {
        // Tables are caches; drop them on clone.
        Relation {
            arity: self.arity,
            tuples: self.tuples.clone(),
            ..Relation::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: &[i64]) -> Tuple {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn insert_dedups() {
        let mut r = Relation::new(2);
        assert!(r.insert(t(&[1, 2])));
        assert!(!r.insert(t(&[1, 2])));
        assert!(r.insert(t(&[1, 3])));
        assert_eq!(r.len(), 2);
        assert!(r.contains(&t(&[1, 2])));
        assert!(!r.contains(&t(&[9, 9])));
    }

    #[test]
    fn scan_preserves_insertion_order() {
        let mut r = Relation::new(1);
        for i in [5, 3, 9, 1] {
            r.insert(t(&[i]));
        }
        let order: Vec<i64> = r.scan().iter().map(|x| x[0].as_i64().unwrap()).collect();
        assert_eq!(order, vec![5, 3, 9, 1]);
        assert_eq!(r.scan_from(2).len(), 2);
        assert_eq!(r.scan_from(99).len(), 0);
    }

    #[test]
    fn select_builds_and_maintains_index() {
        let mut r = Relation::new(2);
        r.insert(t(&[1, 10]));
        r.insert(t(&[2, 20]));
        r.insert(t(&[1, 30]));
        // Build index on column 0.
        let hits = r.select(&[0], &[Value::Int(1)]);
        assert_eq!(hits, vec![0, 2]);
        // Incremental maintenance after the index exists.
        r.insert(t(&[1, 40]));
        let hits = r.select(&[0], &[Value::Int(1)]);
        assert_eq!(hits, vec![0, 2, 3]);
        // Multi-column index.
        let hits = r.select(&[0, 1], &[Value::Int(2), Value::Int(20)]);
        assert_eq!(hits, vec![1]);
        assert!(r.select(&[0], &[Value::Int(7)]).is_empty());
    }

    #[test]
    fn probe_short_circuits() {
        let mut r = Relation::new(2);
        r.insert(t(&[1, 10]));
        r.insert(t(&[1, 30]));
        r.insert(t(&[2, 20]));
        let key = [Value::Int(1)];
        let mut probed = Vec::new();
        assert!(r.probe(&[0], |i| &key[i], |idx| {
            probed.push(idx);
            true
        }));
        assert_eq!(probed, vec![0]); // stopped at the first witness
        assert!(!r.probe(&[0], |_| &Value::Int(9), |_| true));
        assert!(!r.probe(&[0], |i| &key[i], |_| false));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_checked() {
        let mut r = Relation::new(2);
        r.insert(t(&[1]));
    }

    #[test]
    fn byte_size_grows() {
        let mut r = Relation::new(1);
        let before = r.byte_size();
        r.insert(t(&[1]));
        assert!(r.byte_size() > before);
    }

    #[test]
    fn clone_drops_index_but_keeps_tuples() {
        let mut r = Relation::new(1);
        r.insert(t(&[1]));
        r.select(&[0], &[Value::Int(1)]);
        let c = r.clone();
        assert_eq!(c.len(), 1);
        assert_eq!(c.select(&[0], &[Value::Int(1)]), vec![0]);
    }

    /// The model the relation is checked against: insertion order in a
    /// `Vec`, membership in a `BTreeSet`.
    #[derive(Default)]
    struct Model {
        order: Vec<Tuple>,
        set: std::collections::BTreeSet<Tuple>,
    }

    impl Model {
        fn rows(&self, cols: &[usize], key: &[Value]) -> Vec<usize> {
            let hit = |t: &Tuple| cols.iter().zip(key).all(|(&c, k)| t[c] == *k);
            (0..self.order.len()).filter(|&i| hit(&self.order[i])).collect()
        }
    }

    /// Few enough values that inserts repeat and probes hit, of every
    /// kind whose equality or hashing is not the derived one: floats by
    /// bit pattern (`-0.0 != 0.0`, `NaN == NaN`), shared strings and
    /// lists, `Unit`, and `Id` vs `Int` of the same number.
    fn palette(i: u8) -> Value {
        match i % 10 {
            0 => Value::Id(1),
            1 => Value::Int(1),
            2 => Value::Float(0.0),
            3 => Value::Float(-0.0),
            4 => Value::Float(f64::NAN),
            5 => Value::str("k"),
            6 => Value::str("k\0"), // hashes like "k": see the collision test
            7 => Value::floats(&[1.0, 2.0]),
            8 => Value::Unit,
            _ => Value::Bool(true),
        }
    }

    /// Whether any table is built.
    fn has_tables(rel: &Relation) -> bool {
        rel.dedup.get().is_some() || !rel.indexes.borrow().is_empty()
    }

    /// Random operation sequences agree with the model after every step.
    /// Ten values in two columns give up to 100 distinct tuples, so
    /// sequences grow past `SMALL` (building dedup and indexes), and the
    /// probes that follow every step run on whichever side they landed.
    /// Fresh appends grow a relation past `SMALL` with no table, and the
    /// lookups after them, in random order, each get to be the one that
    /// builds it.
    #[test]
    fn agrees_with_vec_and_set_model() {
        use rand::Rng;
        crate::check("agrees_with_vec_and_set_model", 0x4e1a_0001, 200, |rng| {
            let mut rel = Relation::new(2);
            let mut model = Model::default();
            for _ in 0..rng.gen_range(1..120usize) {
                let op = rng.gen_range(0..18u8);
                let (a, b) = (rng.gen_range(0..10u8), rng.gen_range(0..10u8));
                let tuple = vec![palette(a), palette(b)];
                match op {
                    // Inserts dominate so relations actually grow.
                    0..=8 => {
                        let new = model.set.insert(tuple.clone());
                        if new {
                            model.order.push(tuple.clone());
                        }
                        assert_eq!(rel.insert(tuple.clone()), new);
                    }
                    // A batch of tuples the model lacks, appended unchecked.
                    16 | 17 => {
                        let built = has_tables(&rel);
                        for _ in 0..rng.gen_range(1..=16) {
                            let (c, d) = (rng.gen_range(0..10u8), rng.gen_range(0..10u8));
                            let fresh = vec![palette(c), palette(d)];
                            if model.set.insert(fresh.clone()) {
                                model.order.push(fresh.clone());
                                rel.append_fresh(&fresh);
                            }
                        }
                        assert_eq!(has_tables(&rel), built, "an append built a table");
                    }
                    11 => rel = rel.clone(),
                    _ => {
                        let from = usize::from(b);
                        let expect = model.rows(&[1], &[palette(a)]);
                        let key = palette(a);
                        assert_eq!(
                            rel.probe(&[1], |_| &key, |row| row >= from),
                            expect.iter().any(|&row| row >= from)
                        );
                    }
                }
                assert_eq!(rel.scan(), &model.order[..]);
                // No table while small; every built table covers every row.
                assert!(rel.len() > SMALL || !has_tables(&rel));
                for chains in rel.dedup.get().into_iter().chain(rel.indexes.borrow().iter()) {
                    assert_eq!(chains.hashes.len(), rel.len());
                }
                let first = rng.gen_range(0..4);
                for check in (0..4).map(|k| (first + k) % 4) {
                    match check {
                        0 => assert_eq!(rel.contains(&tuple), model.set.contains(&tuple)),
                        1 => assert_eq!(rel.select(&[0], &tuple[..1]), model.rows(&[0], &tuple[..1])),
                        2 => assert_eq!(rel.select(&[0, 1], &tuple), model.rows(&[0, 1], &tuple)),
                        _ => {
                            let key = palette(a);
                            let expect = !model.rows(&[1], std::slice::from_ref(&key)).is_empty();
                            assert_eq!(rel.probe(&[1], |_| &key, |_| true), expect);
                        }
                    }
                }
            }
        });
    }

    /// Appends past `SMALL` build nothing; the first checked insert builds
    /// the dedup table over every row, appended or inserted, and later
    /// appends keep it and the column indexes up to date.
    #[test]
    fn fresh_appends_leave_tables_to_the_first_lookup() {
        let mut r = Relation::new(2);
        for i in 0..3 * SMALL as i64 {
            r.append_fresh(&t(&[i % 5, i]));
        }
        assert!(r.is_indexed() && !has_tables(&r));
        assert!(!r.insert(t(&[2, 7])), "an appended tuple");
        assert!(r.dedup.get().is_some() && r.indexes.borrow().is_empty());
        assert!(r.insert(t(&[9, 9])));
        assert_eq!(r.select(&[0], &[Value::Int(4)]), [4, 9, 14, 19, 24, 29, 34]);
        r.append_fresh(&t(&[4, 99]));
        assert_eq!(r.select(&[0], &[Value::Int(4)]), [4, 9, 14, 19, 24, 29, 34, 37]);
        assert!(r.contains(&t(&[4, 99])) && !r.insert(t(&[4, 99])));
        assert_eq!(r.len(), 3 * SMALL + 2);
    }

    /// 512 distinct tuples with one and the same hash: `MulHasher` pads a
    /// string's last word with zeros, so trailing NULs do not change it.
    /// All of them sit in one chain at any table size; dedup and probes
    /// must tell them apart by comparing tuples.
    #[test]
    fn equal_hashes_are_told_apart_by_the_chain_walk() {
        let keys: Vec<Value> = (0..8).map(|n| Value::str(&format!("k{}", "\0".repeat(n)))).collect();
        let mut tuples = Vec::new();
        for a in &keys {
            for b in &keys {
                for c in &keys {
                    tuples.push(vec![a.clone(), b.clone(), c.clone()]);
                }
            }
        }
        let hash = hash_values(tuples[0].iter());
        assert!(tuples.iter().all(|t| hash_values(t.iter()) == hash));

        let mut rel = Relation::new(3);
        assert!(tuples.iter().all(|t| rel.insert(t.clone())));
        assert!(tuples.iter().all(|t| !rel.insert(t.clone())));
        assert_eq!(rel.scan(), &tuples[..]);
        assert!(!rel.contains(&[keys[0].clone(), keys[0].clone(), Value::str("j")]));
        // Column probes walk the same chain and still return exactly
        // their rows, ascending.
        let expect: Vec<usize> = (0..512).filter(|i| i / 64 == 2).collect();
        assert_eq!(rel.select(&[0], &keys[2..3]), expect);
        assert_eq!(rel.select(&[0, 1, 2], &tuples[77]), vec![77]);
    }
}
