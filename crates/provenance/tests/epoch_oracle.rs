//! Differential oracle for epoch chains: the newest-first fold and the
//! permutation-sorted diff behind `ProvStore::append_epoch`, against a
//! `BTreeMap` reference that knows nothing of segments, shadows or
//! blocks.
//!
//! The reference is the *Provenance Traces* contract (Cheney et al.,
//! PAPERS.md): replaying the trace equals re-running. After every
//! append, a logical read of the store must give the newest capture's
//! content — compared sorted, the canonical order every store comparison
//! in the repository is stated in — under random predicate filters and
//! column masks, and `to_database` must give its relations. The reference
//! also classifies every (superstep, predicate) pair the way the diff
//! must — carried, appended, replaced, tombstoned — so `EpochStats` is
//! checked field by field, and it knows which epoch wrote which segment,
//! so it predicts how many segments a fold may decode: a predicate's
//! newest replacement and the `~add~` suffixes after it, and nothing
//! older.
//!
//! 200 seeded chains mix, per (superstep, predicate), carried, extended,
//! shrunk, replaced and vanished content, runs that shrink (to nothing)
//! and regrow, rows shuffled out of sorted order, segments written in one
//! or two batches, and a predicate with ragged rows. Each chain runs in
//! memory and in a spilling store that is reopened from its spool and
//! compacted after every append.
//!
//! Three fixed chains pin `byte_size()` and every `EpochStats` field to
//! the values the commit before the newest-first fold recorded, so the
//! bytes an epoch writes cannot move unnoticed. Half the random appends,
//! and a second pass over the fixed chains, take a packed `next`, so
//! replaced segments held as one record in canonical order are adopted
//! (copied, not re-encoded) — into spilled, reopened and compacted
//! stores too — and must still write the pinned bytes.
//!
//! Two seeded mutations of `epoch.rs`, tried when this test was written,
//! each fail the first fixed chain and random chain 2 (chains 0 and 1
//! happen to hold no suffix and no reordered carry): a fold that never
//! decodes `~add~` suffixes (oldest-first but skipping adds), and a diff
//! that compares rows in stored rather than sorted order.

use ariadne_pql::{Tuple, Value};
use ariadne_provenance::{EpochStats, LayerFilter, ProvStore, StoreConfig, StoreError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

/// The predicates a chain captures; `rg` holds rows of mixed arity.
const PREDS: [&str; 4] = ["a", "b", "c", "rg"];

/// One capture's ingest batches, in order.
type Capture = Vec<(u32, &'static str, Vec<Tuple>)>;

/// Superstep → predicate → rows (never empty), in ingest order.
type Content = BTreeMap<u32, BTreeMap<&'static str, Vec<Tuple>>>;

fn content(capture: &Capture) -> Content {
    let mut out = Content::new();
    for (s, pred, rows) in capture {
        let layer = out.entry(*s).or_default();
        layer.entry(*pred).or_default().extend(rows.iter().cloned());
    }
    out
}

/// Logical supersteps of `content`: one past the last holding a row.
fn supersteps(content: &Content) -> u32 {
    content.keys().next_back().map_or(0, |s| s + 1)
}

fn sorted(rows: &[Tuple]) -> Vec<Tuple> {
    let mut rows = rows.to_vec();
    rows.sort();
    rows
}

/// A store holding `capture`, its rows still pending.
fn store_of(capture: &Capture) -> ProvStore {
    let mut store = ProvStore::new(StoreConfig::in_memory());
    for (s, pred, rows) in capture {
        store.ingest(*s, pred, rows.clone()).unwrap();
    }
    store
}

/// A store holding `capture`, packed, the way `capture_epoch`'s capture
/// ends: a replaced segment it holds as one record in canonical order is
/// adopted by the append, not re-encoded.
fn native_of(capture: &Capture) -> ProvStore {
    let mut store = store_of(capture);
    store.pack_all();
    store
}

/// What an epoch wrote for one (superstep, predicate) pair.
#[derive(Copy, Clone, Debug, PartialEq)]
enum Op {
    Replace,
    Add,
    Del,
}

/// One epoch: its run's supersteps and the segment it wrote per
/// (superstep, predicate).
type Epoch = (u32, BTreeMap<(u32, &'static str), Op>);

/// The reference store: the newest capture's content, plus every epoch.
struct Model {
    current: Content,
    epochs: Vec<Epoch>,
}

impl Model {
    fn new(base: &Capture) -> Model {
        let current = content(base);
        let ops = (current.iter())
            .flat_map(|(s, layer)| layer.keys().map(move |p| ((*s, *p), Op::Replace)))
            .collect();
        Model {
            epochs: vec![(supersteps(&current), ops)],
            current,
        }
    }

    /// Absorb `next`, returning the classification `append_epoch` must
    /// report: per pair, compared sorted, carried when equal, appended
    /// when the old rows are a proper prefix of the new, tombstoned when
    /// the new rows are gone, replaced otherwise.
    fn append(&mut self, next: &Capture) -> EpochStats {
        let new = content(next);
        let old_sup = supersteps(&self.current);
        let mut stats = EpochStats {
            epoch: self.epochs.len() as u64,
            ..EpochStats::default()
        };
        let mut ops = BTreeMap::new();
        let none = BTreeMap::new();
        for s in 0..supersteps(&new) {
            let old_layer = self
                .current
                .get(&s)
                .filter(|_| s < old_sup)
                .unwrap_or(&none);
            let new_layer = new.get(&s).unwrap_or(&none);
            let preds: BTreeSet<&'static str> =
                old_layer.keys().chain(new_layer.keys()).copied().collect();
            for pred in preds {
                let old = sorted(old_layer.get(pred).map_or(&[], Vec::as_slice));
                let new = sorted(new_layer.get(pred).map_or(&[], Vec::as_slice));
                let op = if old == new {
                    stats.carried += 1;
                    continue;
                } else if new.is_empty() {
                    stats.tombstoned += 1;
                    Op::Del
                } else if !old.is_empty() && new.len() > old.len() && new[..old.len()] == old[..] {
                    stats.appended += 1;
                    Op::Add
                } else {
                    stats.replaced += 1;
                    Op::Replace
                };
                ops.insert((s, pred), op);
            }
        }
        self.epochs.push((supersteps(&new), ops));
        self.current = new;
        stats
    }

    /// Segments a fold of superstep `s` over `preds` decodes: per
    /// predicate, its newest replacement (a tombstone has nothing to
    /// decode) and every suffix after it — within the epochs after the
    /// newest one whose run stopped short of `s`.
    fn decodes(&self, s: u32, preds: &BTreeSet<&str>) -> usize {
        let live_from = (self.epochs.iter())
            .rposition(|(sup, _)| s >= *sup)
            .map_or(0, |at| at + 1);
        let live = &self.epochs[live_from..];
        let per_pred = |pred: &&str| {
            let ops: Vec<Op> = live
                .iter()
                .filter_map(|(_, ops)| ops.get(&(s, *pred)).copied())
                .collect();
            match ops.iter().rposition(|op| *op != Op::Add) {
                Some(at) => usize::from(ops[at] == Op::Replace) + ops.len() - at - 1,
                None => ops.len(),
            }
        };
        preds.iter().map(per_pred).sum()
    }

    /// Layer `s` through a predicate allow-set and column masks, sorted.
    fn layer(
        &self,
        s: u32,
        keep: &BTreeSet<&str>,
        masks: &BTreeMap<&str, Vec<bool>>,
    ) -> BTreeMap<String, Vec<Tuple>> {
        let mut out = BTreeMap::new();
        for (pred, rows) in self.current.get(&s).into_iter().flatten() {
            if !keep.contains(pred) {
                continue;
            }
            let mask = masks.get(pred).map_or(&[][..], Vec::as_slice);
            let blank = |row: &Tuple| -> Tuple {
                let keep = |i: usize| mask.get(i).copied().unwrap_or(true);
                let values = row.iter().enumerate();
                values
                    .map(|(i, v)| if keep(i) { v.clone() } else { Value::Unit })
                    .collect()
            };
            out.insert(
                pred.to_string(),
                sorted(&rows.iter().map(blank).collect::<Vec<_>>()),
            );
        }
        out
    }

    /// The relations `to_database` must build, or `None` when some
    /// predicate's rows differ in arity (no relation holds them).
    fn database(&self) -> Option<BTreeMap<&'static str, Vec<Tuple>>> {
        let mut out: BTreeMap<&'static str, BTreeSet<Tuple>> = BTreeMap::new();
        for layer in self.current.values() {
            for (pred, rows) in layer {
                out.entry(pred).or_default().extend(rows.iter().cloned());
            }
        }
        let uniform =
            |rows: &BTreeSet<Tuple>| rows.iter().map(Vec::len).collect::<BTreeSet<_>>().len() <= 1;
        out.values().all(uniform).then(|| {
            out.into_iter()
                .map(|(p, rows)| (p, rows.into_iter().collect()))
                .collect()
        })
    }
}

/// Every check the store must pass against the model, `what` naming the
/// chain, variant and step in a failure.
fn check(store: &ProvStore, model: &Model, rng: &mut StdRng, what: &str) {
    let sup = supersteps(&model.current);
    assert_eq!(
        store.max_superstep().map_or(0, |m| m + 1),
        sup,
        "{what}: logical supersteps"
    );
    let all: BTreeSet<&str> = PREDS.into_iter().collect();
    for s in 0..=sup {
        let read = store.layer_read(s, &LayerFilter::all()).unwrap();
        let got: BTreeMap<String, Vec<Tuple>> = read
            .tuples
            .iter()
            .map(|(p, rows)| (p.clone(), sorted(rows)))
            .collect();
        assert_eq!(
            got,
            model.layer(s, &all, &BTreeMap::new()),
            "{what}: layer {s}"
        );
        assert_eq!(
            read.segments_read,
            model.decodes(s, &all),
            "{what}: layer {s} decoded"
        );

        let keep: BTreeSet<&str> = PREDS.into_iter().filter(|_| rng.gen_bool(0.5)).collect();
        let mut filter = LayerFilter::for_preds(keep.iter().map(|p| p.to_string()).collect());
        let mut masks = BTreeMap::new();
        for pred in &keep {
            if rng.gen_bool(0.5) {
                let mask: Vec<bool> = (0..rng.gen_range(0..4usize))
                    .map(|_| rng.gen_bool(0.5))
                    .collect();
                filter = filter.with_mask(pred, mask.clone());
                masks.insert(*pred, mask);
            }
        }
        let read = store.layer_read(s, &filter).unwrap();
        let got: BTreeMap<String, Vec<Tuple>> = read
            .tuples
            .iter()
            .map(|(p, rows)| (p.clone(), sorted(rows)))
            .collect();
        assert_eq!(
            got,
            model.layer(s, &keep, &masks),
            "{what}: layer {s} {keep:?} {masks:?}"
        );
        assert_eq!(
            read.segments_read,
            model.decodes(s, &keep),
            "{what}: layer {s} {keep:?} decoded"
        );
    }
    match (store.to_database(), model.database()) {
        (Ok(db), Some(want)) => {
            for pred in PREDS {
                let want = want.get(pred).cloned().unwrap_or_default();
                assert_eq!(db.sorted(pred), want, "{what}: database {pred}");
            }
        }
        (Err(StoreError::Corrupt { .. }), None) => {}
        (got, want) => panic!(
            "{what}: database {:?} against {want:?}",
            got.map(|db| db.total_tuples())
        ),
    }
}

fn shuffle(rows: &mut [Tuple], rng: &mut StdRng) {
    for i in (1..rows.len()).rev() {
        rows.swap(i, rng.gen_range(0..=i));
    }
}

/// `n` random rows of `pred`: few distinct values, so rows repeat and
/// columns pick every encoding.
fn rows(pred: &str, n: usize, rng: &mut StdRng) -> Vec<Tuple> {
    let row = |rng: &mut StdRng| -> Tuple {
        let arity = match pred {
            "a" => 2,
            "b" => 3,
            "c" => 1,
            _ => rng.gen_range(0..4usize),
        };
        let value = |k: usize, rng: &mut StdRng| match k % 3 {
            0 => Value::Id(rng.gen_range(0..6u64)),
            1 => Value::Int(rng.gen_range(-3..3i64)),
            _ => Value::str(["x", "y", "z"][rng.gen_range(0..3usize)]),
        };
        (0..arity).map(|k| value(k, rng)).collect()
    };
    (0..n).map(|_| row(rng)).collect()
}

/// The content as ingest batches: each (superstep, predicate) in one
/// batch or split in two.
fn batches(content: &Content, rng: &mut StdRng) -> Capture {
    let mut out = Capture::new();
    for (s, layer) in content {
        for (pred, rows) in layer {
            let cut = if rng.gen_bool(0.3) {
                rng.gen_range(0..=rows.len())
            } else {
                rows.len()
            };
            for part in [&rows[..cut], &rows[cut..]] {
                if !part.is_empty() {
                    out.push((*s, *pred, part.to_vec()));
                }
            }
        }
    }
    out
}

/// A base capture and two to four successors, each derived from the one
/// before: per (superstep, predicate) carried, extended, shrunk,
/// replaced, vanished or new, rows shuffled every time, over a run
/// length that changes freely (an empty run included).
fn random_chain(rng: &mut StdRng) -> Vec<Capture> {
    let mut current = Content::new();
    for s in 0..rng.gen_range(1..5u32) {
        for pred in PREDS {
            if rng.gen_bool(0.7) || pred == "a" {
                current
                    .entry(s)
                    .or_default()
                    .insert(pred, rows(pred, rng.gen_range(1..6usize), rng));
            }
        }
    }
    let mut chain = vec![batches(&current, rng)];
    for _ in 0..rng.gen_range(2..5usize) {
        let mut next = Content::new();
        for s in 0..rng.gen_range(0..6u32) {
            for pred in PREDS {
                let old = current.get(&s).and_then(|l| l.get(pred));
                let mut new = match (old, rng.gen_range(0..6)) {
                    (Some(old), 0 | 1) => old.clone(),
                    (Some(old), 2) => {
                        let mut grown = old.clone();
                        grown.extend(rows(pred, rng.gen_range(1..4usize), rng));
                        grown
                    }
                    (Some(old), 3) => old.iter().filter(|_| rng.gen_bool(0.5)).cloned().collect(),
                    (Some(_), 4) => Vec::new(),
                    _ if rng.gen_bool(0.6) => rows(pred, rng.gen_range(1..6usize), rng),
                    _ => Vec::new(),
                };
                shuffle(&mut new, rng);
                if !new.is_empty() {
                    next.entry(s).or_default().insert(pred, new);
                }
            }
        }
        chain.push(batches(&next, rng));
        current = next;
    }
    chain
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ariadne-epoch-oracle-{tag}-{}", std::process::id()))
}

/// Run `chain` through a store, checking after every step; with
/// `spool`, the store spills everything and is reopened from the spool
/// and compacted after every append.
fn run_chain(chain: &[Capture], spool: Option<PathBuf>, rng: &mut StdRng, what: &str) {
    let config = match &spool {
        None => StoreConfig::in_memory(),
        Some(dir) => StoreConfig::spilling(0, dir.clone()),
    };
    let mut store = ProvStore::new(config.clone());
    for (s, pred, rows) in &chain[0] {
        store.ingest(*s, pred, rows.clone()).unwrap();
    }
    let mut model = Model::new(&chain[0]);
    check(&store, &model, rng, &format!("{what} base"));
    for (k, next) in chain.iter().enumerate().skip(1) {
        let captured = if rng.gen_bool(0.5) {
            native_of(next)
        } else {
            store_of(next)
        };
        let stats = store.append_epoch(&captured).unwrap();
        let want = model.append(next);
        let fields = |s: &EpochStats| (s.epoch, s.carried, s.appended, s.replaced, s.tombstoned);
        assert_eq!(fields(&stats), fields(&want), "{what} epoch {k}: stats");
        check(&store, &model, rng, &format!("{what} epoch {k}"));
        if spool.is_some() {
            drop(store);
            store = ProvStore::resume_from_spool(config.clone()).unwrap();
            check(&store, &model, rng, &format!("{what} epoch {k} resumed"));
            store.compact().unwrap();
            check(&store, &model, rng, &format!("{what} epoch {k} compacted"));
        }
    }
}

#[test]
fn random_chains_match_the_reference() {
    for case in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(0xE90C_0000 + case);
        let chain = random_chain(&mut rng);
        run_chain(&chain, None, &mut rng, &format!("chain {case} memory"));
        let dir = temp_dir(&format!("{case}"));
        std::fs::remove_dir_all(&dir).ok();
        let what = format!("chain {case} spilled");
        run_chain(&chain, Some(dir.clone()), &mut rng, &what);
        std::fs::remove_dir_all(&dir).ok();
    }
}

fn id_rows(xs: impl IntoIterator<Item = u64>, tag: i64) -> Vec<Tuple> {
    xs.into_iter()
        .map(|x| {
            vec![
                Value::Id(x),
                Value::Float(1.0 / (x + 1) as f64),
                Value::Int(tag),
            ]
        })
        .collect()
}

/// Three fixed chains: a growing run (carry, extend, diverge, a new
/// layer), a shrinking one that regrows (tombstones, a cut run, empty
/// rows of a predicate), and one with ragged rows and payload strings
/// stored out of order.
fn fixed_chains() -> Vec<Vec<Capture>> {
    let rev = |mut rows: Vec<Tuple>| {
        rows.reverse();
        rows
    };
    let growing = vec![
        (0..4).map(|s| (s, "a", id_rows(0..12, s as i64))).collect(),
        vec![
            (0, "a", rev(id_rows(0..12, 0))),
            (1, "a", id_rows(0..12, 1)),
            (2, "a", id_rows(0..15, 2)),
            (3, "a", id_rows(3..9, 30)),
            (4, "a", id_rows(0..5, 4)),
        ],
        vec![
            (0, "a", id_rows(0..12, 0)),
            (1, "a", rev(id_rows(0..13, 1))),
            (2, "a", id_rows(0..15, 2)),
            (3, "a", id_rows(3..9, 30)),
            (4, "a", id_rows(0..5, 4)),
        ],
    ];
    let shrinking = vec![
        (0..5)
            .flat_map(|s| {
                [
                    (s, "a", id_rows(0..6, s as i64)),
                    (s, "b", id_rows(10..14, -(s as i64))),
                ]
            })
            .collect(),
        vec![
            (0, "a", id_rows(0..3, 0)),
            (1, "a", id_rows(0..6, 1)),
            (2, "b", id_rows(10..14, -2)),
        ],
        vec![],
        (0..6)
            .map(|s| (s, "b", id_rows(0..2 + u64::from(s), 7)))
            .collect(),
    ];
    let word = |x: u64| Value::str(["left", "right", "up"][x as usize % 3]);
    let ragged = |n: u64| -> Vec<Tuple> {
        (0..n)
            .map(|x| (0..x % 4).map(|k| Value::Id(x * 10 + k)).collect())
            .collect()
    };
    let words = |xs: std::ops::Range<u64>| -> Vec<Tuple> {
        xs.map(|x| vec![Value::Id(x), word(x)]).collect()
    };
    let mixed = vec![
        vec![
            (0, "rg", ragged(7)),
            (0, "c", words(0..9)),
            (1, "c", words(5..20)),
        ],
        vec![
            (0, "rg", rev(ragged(7))),
            (0, "c", rev(words(0..9))),
            (1, "c", words(5..20)),
            (1, "c", words(30..34)),
        ],
        vec![
            (0, "rg", ragged(11)),
            (0, "c", words(0..9)),
            (1, "rg", ragged(3)),
        ],
    ];
    vec![growing, shrinking, mixed]
}

/// `byte_size()` after the base capture and after every append, and
/// every `EpochStats` field of every append, of `chain`, each `next`
/// made into a store by `next_of`.
fn pinned_run(
    chain: &[Capture],
    next_of: fn(&Capture) -> ProvStore,
) -> (Vec<usize>, Vec<[usize; 7]>) {
    let mut store = ProvStore::new(StoreConfig::in_memory());
    for (s, pred, rows) in &chain[0] {
        store.ingest(*s, pred, rows.clone()).unwrap();
    }
    store.pack_all();
    let mut sizes = vec![store.byte_size()];
    let mut stats = Vec::new();
    for next in &chain[1..] {
        let st = store.append_epoch(&next_of(next)).unwrap();
        sizes.push(store.byte_size());
        stats.push([
            st.epoch as usize,
            st.carried,
            st.appended,
            st.replaced,
            st.tombstoned,
            st.bytes_appended,
            st.cold_bytes,
        ]);
    }
    (sizes, stats)
}

/// The fixed chains write the pinned bytes and stats whether each
/// `next` holds its rows pending (every replaced pair re-encoded) or
/// packed (its one-record, in-order segments adopted); `cold_bytes` is
/// that capture's own size. Each chain also matches the reference.
#[test]
fn adopted_records_write_the_parent_bytes() {
    let mut rng = StdRng::seed_from_u64(0xF1CED);
    for (k, chain) in fixed_chains().iter().enumerate() {
        for (how, next_of) in [
            ("pending", store_of as fn(&Capture) -> ProvStore),
            ("packed", native_of),
        ] {
            let (sizes, stats) = pinned_run(chain, next_of);
            assert_eq!(sizes, PINNED_SIZES[k], "chain {k} {how}: byte_size");
            assert_eq!(stats.len(), PINNED_STATS[k].len());
            for (e, (got, want)) in stats.iter().zip(PINNED_STATS[k]).enumerate() {
                let what = format!("chain {k} {how} epoch {}", e + 1);
                assert_eq!(got[..6], want[..], "{what}: EpochStats");
                let cold = next_of(&chain[e + 1]).byte_size();
                assert_eq!(got[6], cold, "{what}: cold_bytes");
            }
        }
        run_chain(chain, None, &mut rng, &format!("fixed chain {k}"));
    }
}

// Recorded with the binary of the commit before the newest-first fold,
// for a v3 store: [chain] → byte_size after the base and each append,
// and [epoch, carried, appended, replaced, tombstoned, bytes_appended]
// per append.
const PINNED_SIZES: [&[usize]; 3] = [&[558, 862, 957], &[890, 1101, 1145, 1697], &[290, 408, 714]];
const PINNED_STATS: [&[[usize; 6]]; 3] = [
    &[[1, 2, 1, 2, 0, 304], [2, 4, 1, 0, 0, 95]],
    &[
        [1, 2, 0, 1, 3, 211],
        [2, 0, 0, 0, 0, 44],
        [3, 0, 0, 6, 0, 552],
    ],
    &[[1, 2, 1, 0, 0, 118], [2, 1, 0, 2, 1, 306]],
];
