//! Columnar (v2) within-segment encoding.
//!
//! The v1 record payload serializes a tuple batch row-by-row with a tag
//! byte and a fixed-width payload per value (see [`crate::codec`]). For
//! captured provenance that layout is massively redundant: the
//! `superstep` column of a layer's batch is a single repeated constant,
//! vertex-id columns are near-monotone, predicate payloads repeat a
//! handful of distinct values. The v2 payload transposes a batch into
//! columns and picks a per-column [`Encoding`] at encode time from a cheap
//! single-pass stats sweep:
//!
//! ```text
//! payload := arity u16, rows u32, column*          (little-endian)
//! column  := encoding u8, enc_len u32, enc_len bytes
//!
//! encodings:
//!   0 Plain     rows tagged v1 values, concatenated
//!   1 Const     one tagged v1 value (every row equal)
//!   2 DeltaId   varint(first), then zigzag-varint wrapping deltas
//!   3 DeltaInt  zigzag-varint(first), then zigzag-varint wrapping deltas
//!   4 Dict      u32 dict_len, dict_len tagged v1 values, rows varint idx
//!   5 FloatRaw  rows × 8-byte f64 bit patterns (no tags)
//! ```
//!
//! Every column block is independently skippable via `enc_len`: a reader
//! that does not need a column advances past it without materializing a
//! single [`Value`] (see [`decode_columnar`]'s `mask`). Blocks are
//! written straight into the payload's `Vec<u8>` and decoded in place
//! through [`crate::codec`]'s slice reader, each column straight into its
//! strided slots of a [`RowBlock`]. Ragged batches (mixed arities) have
//! no columnar form and fall back to v1 records.
//!
//! Encoding choice is deterministic: among the applicable encodings the
//! smallest encoded size wins, ties broken by ascending tag. Dictionary
//! keys rely on [`Value`]'s total `Eq`/`Hash` (floats compare by bit
//! pattern, so `NaN` payloads are safe dictionary keys).
//!
//! A column whose values are all `Id`, all `Int` or all `Float` is
//! profiled and written on a typed path, from its raw `u64` bits in a
//! per-thread scratch buffer; every other column walks its [`Value`]s.
//! That walk is also the typed path's reference
//! ([`encode_columnar_reference`]): both choose the same encodings and
//! write the same bytes.

use crate::codec::{read_value, take, take_array, write_value, CodecError};
use crate::rows::{RowBlock, Rows};
use ariadne_pql::{MulHasher, Tuple, Value};
use std::cell::RefCell;
use std::hash::{Hash, Hasher};

/// Maximum dictionary size considered by the stats pass. Columns with
/// more distinct values than this fall back to Plain/FloatRaw.
pub const DICT_MAX: usize = 256;

/// Upper bound on the cells (`rows × arity`) a single columnar record
/// may materialize. The encoder refuses batches above it (they fall
/// back to the v1 row format, which spends at least one byte per value
/// on disk and so cannot amplify), and the decoder rejects headers
/// claiming more — a corrupt or adversarial 6-byte header must not be
/// able to command an arbitrarily large allocation.
pub const MAX_DECODE_CELLS: usize = 1 << 22;

/// Per-column physical encodings available to the v2 segment format.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Encoding {
    /// Row-major tagged v1 values (the fallback; always applicable).
    Plain = 0,
    /// Every row holds the same value; it is stored once.
    Const = 1,
    /// Monotone-friendly delta chain over `Value::Id` columns.
    DeltaId = 2,
    /// Delta chain over `Value::Int` columns (zigzag for signs).
    DeltaInt = 3,
    /// Low-cardinality dictionary: distinct values once + varint indices.
    Dict = 4,
    /// Untagged 8-byte f64 bit patterns (dense float payloads).
    FloatRaw = 5,
}

impl Encoding {
    /// The wire tag byte.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Decode a wire tag byte.
    pub fn from_tag(tag: u8) -> Option<Encoding> {
        Some(match tag {
            0 => Encoding::Plain,
            1 => Encoding::Const,
            2 => Encoding::DeltaId,
            3 => Encoding::DeltaInt,
            4 => Encoding::Dict,
            5 => Encoding::FloatRaw,
            _ => return None,
        })
    }

    /// Stable lowercase name (metric labels, EXPLAIN-style dumps).
    pub fn name(self) -> &'static str {
        match self {
            Encoding::Plain => "plain",
            Encoding::Const => "const",
            Encoding::DeltaId => "delta_id",
            Encoding::DeltaInt => "delta_int",
            Encoding::Dict => "dict",
            Encoding::FloatRaw => "float_raw",
        }
    }

    /// All encodings, in tag order.
    pub const ALL: [Encoding; 6] = [
        Encoding::Plain,
        Encoding::Const,
        Encoding::DeltaId,
        Encoding::DeltaInt,
        Encoding::Dict,
        Encoding::FloatRaw,
    ];
}

/// Accounting for one encoded column of one packed record.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ColumnStat {
    /// Physical bytes of the encoded column block (excluding the 5-byte
    /// per-column header).
    pub encoded_bytes: usize,
    /// The bytes the same column would occupy in the row-major v1
    /// encoding (tag + payload per value) — the denominator of the
    /// compression ratio.
    pub decoded_bytes: usize,
}

impl ColumnStat {
    /// Fold another record's column accounting into this one.
    pub fn absorb(&mut self, other: &ColumnStat) {
        self.encoded_bytes += other.encoded_bytes;
        self.decoded_bytes += other.decoded_bytes;
    }
}

/// The outcome of encoding one batch columnar-wise.
#[derive(Debug)]
pub struct ColumnarBatch {
    /// The v2 record payload.
    pub payload: Vec<u8>,
    /// The encoding chosen for each column, in column order.
    pub encodings: Vec<Encoding>,
    /// Per-column byte accounting, in column order.
    pub columns: Vec<ColumnStat>,
}

/// The v1 (row-major, tagged) encoded size of one value.
pub fn v1_value_size(v: &Value) -> usize {
    1 + match v {
        Value::Id(_) | Value::Int(_) | Value::Float(_) => 8,
        Value::Bool(_) => 1,
        Value::Str(s) => 4 + s.len(),
        Value::List(items) => 4 + items.iter().map(v1_value_size).sum::<usize>(),
        Value::Unit => 0,
    }
}

/// The v1 encoded record-payload size of a batch of rows (count prefix,
/// per-row arity prefix, tagged values) — what [`crate::codec`]'s
/// `encode_tuples` would produce, without producing it.
pub fn v1_batch_size<R: Rows + ?Sized>(rows: &R) -> usize {
    4 + (0..rows.len())
        .map(|i| 4 + rows.row(i).iter().map(v1_value_size).sum::<usize>())
        .sum::<usize>()
}

// ---------------------------------------------------------------------
// varint / zigzag primitives
// ---------------------------------------------------------------------

/// Append a LEB128 varint.
fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Encoded size of a LEB128 varint without encoding it.
fn varint_len(v: u64) -> usize {
    (64 - u64::leading_zeros(v | 1) as usize).div_ceil(7).max(1)
}

/// Read a LEB128 varint off the front of `input`: a one-byte varint at
/// one bounds check, a longer one in one walk over its bytes, of which
/// an eleventh is refused.
fn get_varint(input: &mut &[u8]) -> Result<u64, CodecError> {
    if let &[byte @ 0..0x80, ref rest @ ..] = *input {
        *input = rest;
        return Ok(u64::from(byte));
    }
    let mut out = 0u64;
    for (k, &byte) in input.iter().enumerate() {
        if k == 10 {
            return Err(CodecError::BadTag(byte));
        }
        out |= u64::from(byte & 0x7f) << (7 * k);
        if byte & 0x80 == 0 {
            *input = &input[k + 1..];
            return Ok(out);
        }
    }
    Err(CodecError::Truncated)
}

/// Zigzag-map a signed delta into an unsigned varint-friendly value.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Invert [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// The first link of a delta chain as stored: an `Id`'s bits as they
/// are, an `Int` (`signed`) zigzagged.
fn delta_head(first: u64, signed: bool) -> u64 {
    if signed {
        zigzag(first as i64)
    } else {
        first
    }
}

/// The varint of the zigzagged wrapping step from `prev` to `next`.
fn delta_step(prev: u64, next: u64) -> u64 {
    zigzag((next as i64).wrapping_sub(prev as i64))
}

/// Encoded size of the delta chain over `bits` (see [`put_deltas`]).
fn deltas_len(bits: impl Iterator<Item = u64>, signed: bool) -> usize {
    let mut prev = None;
    bits.map(|x| {
        let link = prev.map_or(delta_head(x, signed), |p| delta_step(p, x));
        prev = Some(x);
        varint_len(link)
    })
    .sum()
}

/// Append the delta chain over `bits`: the first value as
/// [`delta_head`] stores it, then each value's step from the one before.
fn put_deltas(block: &mut Vec<u8>, bits: impl Iterator<Item = u64>, signed: bool) {
    let mut prev = None;
    for x in bits {
        put_varint(
            block,
            prev.map_or(delta_head(x, signed), |p| delta_step(p, x)),
        );
        prev = Some(x);
    }
}

/// Decode a delta chain (see [`put_deltas`]) into `slots`, each value
/// made from its bits by `make`.
fn get_deltas<'a>(
    input: &mut &[u8],
    slots: impl Iterator<Item = &'a mut Value>,
    signed: bool,
    make: impl Fn(u64) -> Value,
) -> Result<(), CodecError> {
    let mut prev = 0u64;
    for (k, slot) in slots.enumerate() {
        let raw = get_varint(input)?;
        prev = match k {
            0 if signed => unzigzag(raw) as u64,
            0 => raw,
            _ => prev.wrapping_add(unzigzag(raw) as u64),
        };
        *slot = make(prev);
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Column stats + encoding choice
// ---------------------------------------------------------------------

/// Slots of a [`DictIndex`]: a power of two at least twice the
/// [`DICT_MAX`] + 1 values it may hold, so probes stay short.
const DICT_SLOTS: usize = 1024;

/// The dictionary code of each key seen so far in one column: open
/// addressing over the top bits of the key's hash, a slot holding
/// `code + 1` (0 = free) and the key itself staying in `distinct`.
struct DictIndex([u16; DICT_SLOTS]);

impl DictIndex {
    fn new() -> Self {
        DictIndex([0; DICT_SLOTS])
    }

    /// The code of `key`, whose hash is `hash`: its position in
    /// `distinct`, where it is appended if it was not there.
    fn code<K: PartialEq + Copy>(&mut self, key: K, hash: u64, distinct: &mut Vec<K>) -> u32 {
        let mut at = (hash >> (64 - DICT_SLOTS.trailing_zeros())) as usize;
        loop {
            match self.0[at] {
                0 => {
                    distinct.push(key);
                    self.0[at] = distinct.len() as u16;
                    return distinct.len() as u32 - 1;
                }
                held if distinct[usize::from(held) - 1] == key => return u32::from(held) - 1,
                _ => at = (at + 1) % DICT_SLOTS,
            }
        }
    }
}

/// A column's encoded size under each encoding, indexed by tag; `None`
/// where the encoding does not apply (Plain always does).
type Sizes = [Option<usize>; 6];

/// The smallest applicable encoding in `sizes` and its size; a tie goes
/// to the lowest tag.
fn smallest(sizes: &Sizes) -> (Encoding, usize) {
    let (size, enc) = (Encoding::ALL.iter().zip(sizes))
        .filter_map(|(&enc, size)| Some(((*size)?, enc)))
        .min()
        .expect("Plain always applies");
    (enc, size)
}

/// The value kinds the typed path takes, numbered as their v1 tags (see
/// [`crate::codec`]).
#[derive(Copy, Clone, PartialEq, Eq)]
enum Scalar {
    Id = 0,
    Int = 1,
    Float = 2,
}

impl Scalar {
    /// The value of this kind whose raw bits are `bits`.
    fn value(self, bits: u64) -> Value {
        match self {
            Scalar::Id => Value::Id(bits),
            Scalar::Int => Value::Int(bits as i64),
            Scalar::Float => Value::Float(f64::from_bits(bits)),
        }
    }
}

/// The v1 (tagged) size of an `Id`, `Int` or `Float`.
const SCALAR_V1: usize = 9;

/// `v`'s kind and raw bits, when it is an `Id`, `Int` or `Float`.
fn scalar(v: &Value) -> Option<(Scalar, u64)> {
    match *v {
        Value::Id(x) => Some((Scalar::Id, x)),
        Value::Int(x) => Some((Scalar::Int, x as u64)),
        Value::Float(x) => Some((Scalar::Float, x.to_bits())),
        _ => None,
    }
}

/// Append a scalar as its tagged v1 value: the tag, then its bits.
fn put_tagged(block: &mut Vec<u8>, kind: Scalar, bits: u64) {
    let mut cell = [kind as u8; SCALAR_V1];
    cell[1..].copy_from_slice(&bits.to_le_bytes());
    block.extend_from_slice(&cell);
}

/// The typed path's buffers, one set per thread, reused across columns
/// and records: a scalar column's raw bits, each row's dictionary code
/// while the dictionary applies, and the distinct bits in first-seen
/// order.
#[derive(Default)]
struct Scratch {
    bits: Vec<u64>,
    codes: Vec<u32>,
    distinct: Vec<u64>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// The typed path's profile of a column whose values are all `Id`, all
/// `Int` or all `Float`: the column read once, as raw bits, into the
/// scratch, with every encoding's size computed in that same pass.
/// Dictionary codes are keyed by bits — what [`Value`]'s `Eq` compares
/// for each of these kinds — so they come out as the generic walk's.
struct ScalarCol<'s> {
    kind: Scalar,
    sizes: Sizes,
    scratch: &'s Scratch,
}

impl<'s> ScalarCol<'s> {
    /// Profile `values` (at least one), or `None` when they are not all
    /// of one scalar kind: the column then takes the generic walk.
    fn build<'a>(
        mut values: impl Iterator<Item = &'a Value>,
        scratch: &'s mut Scratch,
    ) -> Option<Self> {
        let (kind, mut x) = scalar(values.next()?)?;
        let Scratch {
            bits,
            codes,
            distinct,
        } = &mut *scratch;
        bits.clear();
        codes.clear();
        distinct.clear();
        let mut index = DictIndex::new();
        let mut delta_bytes = varint_len(delta_head(x, kind == Scalar::Int));
        let mut idx_bytes = 0;
        loop {
            bits.push(x);
            if distinct.len() <= DICT_MAX {
                let code = index.code(x, x.wrapping_mul(0x9E37_79B9_7F4A_7C15), distinct);
                idx_bytes += varint_len(u64::from(code));
                codes.push(code);
            }
            let Some(v) = values.next() else { break };
            match scalar(v) {
                Some((k, next)) if k == kind => {
                    delta_bytes += varint_len(delta_step(x, next));
                    x = next;
                }
                _ => return None,
            }
        }
        let rows = bits.len();
        let mut sizes: Sizes = [None; 6];
        sizes[Encoding::Plain as usize] = Some(SCALAR_V1 * rows);
        if distinct.len() == 1 {
            sizes[Encoding::Const as usize] = Some(SCALAR_V1);
        }
        let (enc, size) = match kind {
            Scalar::Id => (Encoding::DeltaId, delta_bytes),
            Scalar::Int => (Encoding::DeltaInt, delta_bytes),
            Scalar::Float => (Encoding::FloatRaw, 8 * rows),
        };
        sizes[enc as usize] = Some(size);
        if (2..=DICT_MAX).contains(&distinct.len()) {
            sizes[Encoding::Dict as usize] = Some(4 + SCALAR_V1 * distinct.len() + idx_bytes);
        }
        Some(ScalarCol {
            kind,
            sizes,
            scratch,
        })
    }

    /// Encode the column with `enc` onto the end of `block`.
    fn encode(&self, enc: Encoding, block: &mut Vec<u8>) {
        let Scratch {
            bits,
            codes,
            distinct,
        } = self.scratch;
        match enc {
            Encoding::Plain => bits.iter().for_each(|&x| put_tagged(block, self.kind, x)),
            Encoding::Const => put_tagged(block, self.kind, bits[0]),
            Encoding::DeltaId | Encoding::DeltaInt => {
                put_deltas(block, bits.iter().copied(), enc == Encoding::DeltaInt)
            }
            Encoding::Dict => {
                block.extend_from_slice(&(distinct.len() as u32).to_le_bytes());
                distinct
                    .iter()
                    .for_each(|&x| put_tagged(block, self.kind, x));
                codes.iter().for_each(|&c| put_varint(block, u64::from(c)));
            }
            Encoding::FloatRaw => bits
                .iter()
                .for_each(|x| block.extend_from_slice(&x.to_le_bytes())),
        }
    }
}

/// One column's values, in row order: a strided walk when the rows are
/// stored strided, row by row otherwise.
enum Column<'a, R: ?Sized> {
    Strided(std::iter::StepBy<std::slice::Iter<'a, Value>>),
    Rows(&'a R, usize, std::ops::Range<usize>),
}

impl<'a, R: Rows + ?Sized> Iterator for Column<'a, R> {
    type Item = &'a Value;
    fn next(&mut self) -> Option<&'a Value> {
        match self {
            Column::Strided(values) => values.next(),
            Column::Rows(rows, col, at) => at.next().map(|i| &rows.row(i)[*col]),
        }
    }
}

/// The generic path's stats-pass summary of one column: a walk over its
/// [`Value`]s, for every column the typed path does not take (`Str`,
/// `List`, `Bool`, `Unit` and mixed columns) — and the reference the
/// typed path is held to.
struct ColProfile<'a, R: ?Sized> {
    rows: &'a R,
    col: usize,
    /// v1 (tagged) size of the column.
    v1_bytes: usize,
    all_id: bool,
    all_int: bool,
    all_float: bool,
    /// Distinct values in first-seen order, capped at [`DICT_MAX`] + 1
    /// (the cap overflow disables Dict/Const).
    distinct: Vec<&'a Value>,
    /// Each row's position in `distinct` — one entry per row while the
    /// dictionary applies, abandoned where the column overflowed it.
    codes: Vec<u32>,
}

impl<'a, R: Rows + ?Sized> ColProfile<'a, R> {
    fn build(rows: &'a R, col: usize) -> Self {
        let mut p = ColProfile {
            rows,
            col,
            v1_bytes: 0,
            all_id: true,
            all_int: true,
            all_float: true,
            distinct: Vec::with_capacity(rows.len().min(DICT_MAX + 1)),
            codes: Vec::with_capacity(rows.len()),
        };
        let mut index = DictIndex::new();
        for v in p.values() {
            p.v1_bytes += v1_value_size(v);
            p.all_id &= matches!(v, Value::Id(_));
            p.all_int &= matches!(v, Value::Int(_));
            p.all_float &= matches!(v, Value::Float(_));
            if p.distinct.len() <= DICT_MAX {
                let mut hasher = MulHasher::default();
                v.hash(&mut hasher);
                p.codes
                    .push(index.code(v, hasher.finish(), &mut p.distinct));
            }
        }
        p
    }

    /// The column's values, in row order.
    fn values(&self) -> Column<'a, R> {
        match self.rows.strided() {
            Some((values, arity)) => Column::Strided(values[self.col..].iter().step_by(arity)),
            None => Column::Rows(self.rows, self.col, 0..self.rows.len()),
        }
    }

    /// The raw bits of a column of `Id`s, `Int`s or `Float`s.
    fn bits(&self) -> impl Iterator<Item = u64> + 'a {
        self.values()
            .map(|v| scalar(v).expect("a column of one scalar kind").1)
    }

    fn dict_applicable(&self) -> bool {
        self.distinct.len() <= DICT_MAX
    }

    /// The column's size under each applicable encoding.
    fn sizes(&self) -> Sizes {
        let rows = self.rows.len();
        let mut sizes: Sizes = [None; 6];
        sizes[Encoding::Plain as usize] = Some(self.v1_bytes);
        if self.distinct.len() == 1 {
            sizes[Encoding::Const as usize] = Some(v1_value_size(self.distinct[0]));
        }
        if self.all_id && rows > 0 {
            sizes[Encoding::DeltaId as usize] = Some(deltas_len(self.bits(), false));
        }
        if self.all_int && rows > 0 {
            sizes[Encoding::DeltaInt as usize] = Some(deltas_len(self.bits(), true));
        }
        if self.dict_applicable() && self.distinct.len() > 1 {
            let dict_bytes: usize = self.distinct.iter().map(|v| v1_value_size(v)).sum();
            let idx_bytes: usize = self.codes.iter().map(|c| varint_len(u64::from(*c))).sum();
            sizes[Encoding::Dict as usize] = Some(4 + dict_bytes + idx_bytes);
        }
        if self.all_float {
            sizes[Encoding::FloatRaw as usize] = Some(8 * rows);
        }
        sizes
    }

    /// Encode the column with `enc` onto the end of `block`.
    fn encode(&self, enc: Encoding, block: &mut Vec<u8>) {
        match enc {
            Encoding::Plain => {
                for v in self.values() {
                    write_value(block, v);
                }
            }
            Encoding::Const => write_value(block, self.distinct[0]),
            Encoding::DeltaId | Encoding::DeltaInt => {
                put_deltas(block, self.bits(), enc == Encoding::DeltaInt)
            }
            Encoding::Dict => {
                block.extend_from_slice(&(self.distinct.len() as u32).to_le_bytes());
                for v in &self.distinct {
                    write_value(block, v);
                }
                for c in &self.codes {
                    put_varint(block, u64::from(*c));
                }
            }
            Encoding::FloatRaw => {
                for x in self.bits() {
                    block.extend_from_slice(&x.to_le_bytes());
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Batch encode / decode
// ---------------------------------------------------------------------

/// Encode a batch of rows into a v2 columnar payload, or `None` when
/// the batch has no columnar form (empty, zero arity, or ragged
/// arities) — callers then fall back to a v1 record.
pub fn encode_columnar<R: Rows + ?Sized>(rows: &R) -> Option<ColumnarBatch> {
    collect_batch(rows, true)
}

/// [`encode_columnar`] with every column taking the generic [`Value`]
/// walk: the reference the typed scalar path is tested against. The
/// payload, encodings and accounting are the same.
pub fn encode_columnar_reference<R: Rows + ?Sized>(rows: &R) -> Option<ColumnarBatch> {
    collect_batch(rows, false)
}

fn collect_batch<R: Rows + ?Sized>(rows: &R, typed: bool) -> Option<ColumnarBatch> {
    let mut payload = Vec::new();
    let (mut encodings, mut columns) = (Vec::new(), Vec::new());
    let encoded = encode_columnar_onto(rows, &mut payload, typed, |_, enc, stat| {
        encodings.push(enc);
        columns.push(stat.clone());
    });
    encoded.then_some(ColumnarBatch {
        payload,
        encodings,
        columns,
    })
}

/// Encode a batch of rows as a v2 columnar payload onto the end of
/// `out`, handing each column's index, encoding and accounting to
/// `on_column`; `false`, with `out` untouched, when the batch has no
/// columnar form. With `typed`, a column of one scalar kind takes the
/// typed path; every other column — and every column without `typed` —
/// takes the generic walk.
pub(crate) fn encode_columnar_onto<R: Rows + ?Sized>(
    rows: &R,
    out: &mut Vec<u8>,
    typed: bool,
    mut on_column: impl FnMut(usize, Encoding, &ColumnStat),
) -> bool {
    let count = rows.len();
    let arity = if count == 0 { 0 } else { rows.row(0).len() };
    if arity == 0 || arity > u16::MAX as usize || count > u32::MAX as usize {
        return false;
    }
    if count.saturating_mul(arity) > MAX_DECODE_CELLS {
        return false; // stay decodable: the decoder rejects larger headers
    }
    if rows.strided().is_none() && (1..count).any(|i| rows.row(i).len() != arity) {
        return false;
    }
    out.extend_from_slice(&(arity as u16).to_le_bytes());
    out.extend_from_slice(&(count as u32).to_le_bytes());
    for col in 0..arity {
        // The block is written in place behind its header, which is
        // filled in once the encoding and length are known.
        let header = out.len();
        out.extend_from_slice(&[0; 5]);
        let (enc, size, v1_bytes) = SCRATCH.with_borrow_mut(|scratch| {
            let typed_col = match rows.strided() {
                _ if !typed => None,
                Some((values, arity)) => {
                    ScalarCol::build(values[col..].iter().step_by(arity), scratch)
                }
                None => ScalarCol::build((0..count).map(|i| &rows.row(i)[col]), scratch),
            };
            match typed_col {
                Some(c) => {
                    let (enc, size) = smallest(&c.sizes);
                    out.reserve(size);
                    c.encode(enc, out);
                    (enc, size, SCALAR_V1 * c.scratch.bits.len())
                }
                None => {
                    let p = ColProfile::build(rows, col);
                    let (enc, size) = smallest(&p.sizes());
                    out.reserve(size);
                    p.encode(enc, out);
                    (enc, size, p.v1_bytes)
                }
            }
        });
        let len = out.len() - header - 5;
        debug_assert_eq!(len, size, "{enc:?} wrote other than its size");
        out[header] = enc.tag();
        out[header + 1..header + 5].copy_from_slice(&(len as u32).to_le_bytes());
        let stat = ColumnStat {
            encoded_bytes: len,
            decoded_bytes: v1_bytes,
        };
        on_column(col, enc, &stat);
    }
    true
}

/// Accounting returned by [`decode_columnar`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ColumnarRead {
    /// Per-column byte accounting for the record, in column order
    /// (`decoded_bytes` is only populated for columns that were
    /// materialized; masked-out columns report `0` there).
    pub columns: Vec<ColumnStat>,
    /// Column blocks skipped because of the mask.
    pub cols_skipped: usize,
    /// Encoded bytes of skipped column blocks (never materialized).
    pub col_bytes_skipped: usize,
}

/// Decode a v2 columnar payload onto the end of `out`: the adapter that
/// decodes into a block and copies its rows out as tuples. `mask`, when
/// given, is a keep-mask in column order: a column whose entry is
/// `false` is *not* materialized — its block is skipped via its length
/// header and every row receives [`Value::Unit`] in that position,
/// preserving arity and row order. Columns past the end of the mask are
/// kept. Column 0 (the location) should always be kept by callers that
/// route on it; this function does not special-case it.
pub fn decode_columnar(
    payload: &[u8],
    mask: Option<&[bool]>,
    out: &mut Vec<Tuple>,
) -> Result<ColumnarRead, CodecError> {
    let mut rows = RowBlock::default();
    let read = decode_columnar_into(payload, mask, &mut rows)?;
    out.extend(rows.rows().map(<[Value]>::to_vec));
    Ok(read)
}

/// Decode a v2 columnar payload onto the end of `out` under an optional
/// keep-mask (as [`decode_columnar`]): the record's rows are opened in
/// one stretch of `rows × arity` values and each column is written
/// straight into its strided slots — no row and no column is ever held
/// apart. On an error `out` may hold part of the record.
pub(crate) fn decode_columnar_into(
    payload: &[u8],
    mask: Option<&[bool]>,
    out: &mut RowBlock,
) -> Result<ColumnarRead, CodecError> {
    let mut input = payload;
    let arity = u16::from_le_bytes(take_array(&mut input)?) as usize;
    let rows = u32::from_le_bytes(take_array(&mut input)?) as usize;
    if arity == 0 || rows.saturating_mul(arity) > MAX_DECODE_CELLS {
        return Err(CodecError::Truncated);
    }
    // Validate the whole column layout before materializing anything:
    // the header fields are untrusted, and every encoding except Const
    // spends at least one byte per row (FloatRaw exactly eight), so a
    // header claiming more rows than any non-const block could hold is
    // corrupt. Rejecting it here means no allocation is ever sized by a
    // row count the payload cannot back. All-const records carry no
    // per-row bytes; they are bounded by [`MAX_DECODE_CELLS`] alone.
    {
        let mut scan = input;
        for _ in 0..arity {
            let (enc, block) = take_column(&mut scan)?;
            let len = block.len();
            let rows_fit = match enc {
                Encoding::Const => true,
                Encoding::FloatRaw => len == rows.saturating_mul(8),
                // Dict: 4-byte count + one value + one index byte per row.
                Encoding::Dict => rows <= len.saturating_sub(4),
                Encoding::Plain | Encoding::DeltaId | Encoding::DeltaInt => rows <= len,
            };
            if !rows_fit {
                return Err(CodecError::Truncated);
            }
        }
        if !scan.is_empty() {
            return Err(CodecError::Truncated);
        }
    }
    let cells = out.grow(rows, arity);
    let mut read = ColumnarRead::default();
    for col in 0..arity {
        let (enc, block) = take_column(&mut input)?;
        let len = block.len();
        let keep = mask.is_none_or(|m| m.get(col).copied().unwrap_or(true));
        let decoded_bytes = if keep {
            // Row r's value of this column lives at `r * arity + col`.
            decode_column(enc, block, cells[col..].iter_mut().step_by(arity))?
        } else {
            // Its slots stay Value::Unit.
            read.cols_skipped += 1;
            read.col_bytes_skipped += len;
            0
        };
        read.columns.push(ColumnStat {
            encoded_bytes: len,
            decoded_bytes,
        });
    }
    Ok(read)
}

/// Split one column (`encoding u8, enc_len u32, block`) off `input`.
fn take_column<'a>(input: &mut &'a [u8]) -> Result<(Encoding, &'a [u8]), CodecError> {
    let [tag, len @ ..] = take_array::<5>(input)?;
    let enc = Encoding::from_tag(tag).ok_or(CodecError::BadTag(tag))?;
    Ok((enc, take(input, u32::from_le_bytes(len) as usize)?))
}

/// Decode one column block into `slots` (one per row), returning the v1
/// size of the values written.
fn decode_column<'a>(
    enc: Encoding,
    mut block: &[u8],
    slots: impl ExactSizeIterator<Item = &'a mut Value>,
) -> Result<usize, CodecError> {
    let input = &mut block;
    let rows = slots.len();
    let decoded_bytes = match enc {
        Encoding::Plain => {
            let mut bytes = 0;
            for slot in slots {
                *slot = read_value(input)?;
                bytes += v1_value_size(slot);
            }
            bytes
        }
        Encoding::Const => {
            let v = read_value(input)?;
            match scalar(&v) {
                Some((kind, bits)) => slots.for_each(|slot| *slot = kind.value(bits)),
                None => slots.for_each(|slot| *slot = v.clone()),
            }
            rows * v1_value_size(&v)
        }
        Encoding::DeltaId => {
            get_deltas(input, slots, false, Value::Id)?;
            rows * SCALAR_V1
        }
        Encoding::DeltaInt => {
            get_deltas(input, slots, true, |x| Value::Int(x as i64))?;
            rows * SCALAR_V1
        }
        Encoding::Dict => {
            let dict_len = u32::from_le_bytes(take_array(input)?) as usize;
            if dict_len > DICT_MAX + 1 {
                return Err(CodecError::Truncated);
            }
            let mut entries = Vec::with_capacity(dict_len);
            for _ in 0..dict_len {
                let v = read_value(input)?;
                entries.push((v1_value_size(&v), v));
            }
            let mut bytes = 0;
            // A dictionary of scalars rebuilds each row's value from its
            // bits: `Value::clone` is an out-of-line call per row.
            let scalars = entries.iter().all(|(_, v)| scalar(v).is_some());
            for slot in slots {
                let idx = get_varint(input)? as usize;
                let (size, v) = entries.get(idx).ok_or(CodecError::Truncated)?;
                *slot = match scalar(v) {
                    Some((kind, bits)) if scalars => kind.value(bits),
                    _ => v.clone(),
                };
                bytes += size;
            }
            bytes
        }
        Encoding::FloatRaw => {
            if input.len() != 8 * rows {
                return Err(CodecError::Truncated);
            }
            for (slot, bits) in slots.zip(input.chunks_exact(8)) {
                let bits = u64::from_le_bytes(bits.try_into().expect("eight bytes"));
                *slot = Value::Float(f64::from_bits(bits));
            }
            *input = &[];
            rows * SCALAR_V1
        }
    };
    // Every encoding accounts for its whole block.
    if !input.is_empty() {
        return Err(CodecError::Truncated);
    }
    Ok(decoded_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn roundtrip(tuples: Vec<Tuple>) -> ColumnarBatch {
        let batch = encode_columnar(&tuples).expect("encodable");
        let mut out = Vec::new();
        let read = decode_columnar(&batch.payload, None, &mut out).unwrap();
        assert_eq!(out, tuples, "roundtrip mismatch");
        assert_eq!(read.cols_skipped, 0);
        for (enc_stat, dec_stat) in batch.columns.iter().zip(&read.columns) {
            assert_eq!(enc_stat, dec_stat, "stats agree encode vs decode");
        }
        batch
    }

    #[test]
    fn varint_roundtrip_edges() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX, u64::MAX - 1] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v), "len for {v}");
            let mut input = buf.as_slice();
            assert_eq!(get_varint(&mut input).unwrap(), v);
            assert!(input.is_empty());
        }
    }

    #[test]
    fn zigzag_roundtrip_edges() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 42, -42] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn const_column_chosen_for_superstep() {
        // superstep(x, i): monotone ids, constant superstep.
        let tuples: Vec<Tuple> = (0..100)
            .map(|x| vec![Value::Id(x), Value::Int(7)])
            .collect();
        let batch = roundtrip(tuples);
        assert_eq!(batch.encodings, vec![Encoding::DeltaId, Encoding::Const]);
        // 100 ascending ids delta-encode to ~1 byte each; the constant
        // superstep column stores 9 bytes total.
        assert!(batch.columns[0].encoded_bytes <= 110);
        assert_eq!(batch.columns[1].encoded_bytes, 9);
        assert_eq!(batch.columns[1].decoded_bytes, 900);
    }

    #[test]
    fn dict_chosen_for_low_cardinality_strings() {
        let tuples: Vec<Tuple> = (0..50)
            .map(|x| {
                vec![
                    Value::Id(x),
                    Value::str(if x % 2 == 0 { "ping" } else { "pong" }),
                ]
            })
            .collect();
        let batch = roundtrip(tuples);
        assert_eq!(batch.encodings[1], Encoding::Dict);
        assert!(batch.columns[1].encoded_bytes < batch.columns[1].decoded_bytes / 3);
    }

    #[test]
    fn float_payloads_roundtrip_bit_exactly() {
        let tuples: Vec<Tuple> = vec![
            vec![Value::Id(1), Value::Float(0.15)],
            vec![Value::Id(2), Value::Float(f64::NAN)],
            vec![Value::Id(3), Value::Float(-0.0)],
            vec![Value::Id(4), Value::Float(f64::INFINITY)],
        ];
        let batch = encode_columnar(&tuples).unwrap();
        let mut out = Vec::new();
        decode_columnar(&batch.payload, None, &mut out).unwrap();
        for (a, b) in tuples.iter().zip(&out) {
            let (Value::Float(x), Value::Float(y)) = (&a[1], &b[1]) else {
                panic!("float column");
            };
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn high_cardinality_floats_use_raw() {
        let tuples: Vec<Tuple> = (0..(DICT_MAX as u64 + 10))
            .map(|x| vec![Value::Id(x), Value::Float(x as f64 * 0.137)])
            .collect();
        let batch = roundtrip(tuples);
        assert_eq!(batch.encodings[1], Encoding::FloatRaw);
        // 9 bytes/row tagged → 8 bytes/row raw.
        assert_eq!(
            batch.columns[1].encoded_bytes * 9,
            batch.columns[1].decoded_bytes * 8
        );
    }

    #[test]
    fn mixed_types_fall_back_to_plain_or_dict() {
        let tuples: Vec<Tuple> = vec![
            vec![Value::Id(1), Value::str("a")],
            vec![Value::Id(2), Value::Int(3)],
            vec![Value::Id(3), Value::Bool(true)],
            vec![Value::Id(4), Value::Unit],
            vec![Value::Id(5), Value::List(Arc::new(vec![Value::Int(1)]))],
        ];
        roundtrip(tuples);
    }

    #[test]
    fn ragged_and_empty_batches_have_no_columnar_form() {
        assert!(encode_columnar::<[Tuple]>(&[]).is_none());
        assert!(encode_columnar::<[Tuple]>(&[vec![]]).is_none());
        assert!(encode_columnar::<[Tuple]>(&[
            vec![Value::Id(1)],
            vec![Value::Id(1), Value::Int(2)]
        ])
        .is_none());
    }

    #[test]
    fn mask_skips_column_without_materializing() {
        let tuples: Vec<Tuple> = (0..20)
            .map(|x| {
                vec![
                    Value::Id(x),
                    Value::str("heavy-message-payload"),
                    Value::Int(3),
                ]
            })
            .collect();
        let batch = encode_columnar(&tuples).unwrap();
        let mut out = Vec::new();
        let read = decode_columnar(&batch.payload, Some(&[true, false, true]), &mut out).unwrap();
        assert_eq!(read.cols_skipped, 1);
        assert!(read.col_bytes_skipped > 0);
        for (k, row) in out.iter().enumerate() {
            assert_eq!(row[0], Value::Id(k as u64));
            assert_eq!(row[1], Value::Unit, "masked column is Unit");
            assert_eq!(row[2], Value::Int(3));
        }
        // Short masks keep the tail columns.
        let mut out2 = Vec::new();
        decode_columnar(&batch.payload, Some(&[true]), &mut out2).unwrap();
        assert_eq!(out2[0][2], Value::Int(3));
    }

    #[test]
    fn negative_and_descending_deltas() {
        let tuples: Vec<Tuple> = (0..50)
            .map(|k| vec![Value::Id(1000 - k * 13), Value::Int(-5 * k as i64)])
            .collect();
        let batch = roundtrip(tuples);
        assert_eq!(batch.encodings[0], Encoding::DeltaId);
        assert_eq!(batch.encodings[1], Encoding::DeltaInt);
    }

    #[test]
    fn extreme_integers_roundtrip() {
        let tuples: Vec<Tuple> = vec![
            vec![Value::Id(u64::MAX), Value::Int(i64::MIN)],
            vec![Value::Id(0), Value::Int(i64::MAX)],
            vec![Value::Id(u64::MAX / 2), Value::Int(0)],
        ];
        roundtrip(tuples);
    }

    #[test]
    fn truncation_detected() {
        let tuples: Vec<Tuple> = (0..10).map(|x| vec![Value::Id(x), Value::Int(1)]).collect();
        let batch = encode_columnar(&tuples).unwrap();
        for cut in 0..batch.payload.len() {
            let mut out = Vec::new();
            assert!(
                decode_columnar(&batch.payload[..cut], None, &mut out).is_err(),
                "cut at {cut} accepted"
            );
        }
    }

    #[test]
    fn bad_encoding_tag_detected() {
        let tuples: Vec<Tuple> = vec![vec![Value::Id(1)]];
        let mut payload = encode_columnar(&tuples).unwrap().payload;
        payload[6] = 0xEE; // first column's encoding tag
        let mut out = Vec::new();
        assert!(matches!(
            decode_columnar(&payload, None, &mut out),
            Err(CodecError::BadTag(0xEE))
        ));
    }

    #[test]
    fn compression_wins_on_pagerank_like_batch() {
        // What a full-capture PageRank layer batch looks like:
        // value(x, score, i) with dense ids, distinct floats, const step.
        let tuples: Vec<Tuple> = (0..512)
            .map(|x| {
                vec![
                    Value::Id(x),
                    Value::Float(1.0 / (x + 1) as f64),
                    Value::Int(9),
                ]
            })
            .collect();
        let batch = encode_columnar(&tuples).unwrap();
        let v1 = v1_batch_size(&tuples);
        assert!(
            batch.payload.len() * 10 < v1 * 7,
            "columnar {} not ≥30% below v1 {}",
            batch.payload.len(),
            v1
        );
    }
}
