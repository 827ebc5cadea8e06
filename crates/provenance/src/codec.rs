//! Compact binary serialization of PQL tuples for spilled segments.
//!
//! Format, little-endian throughout:
//!
//! ```text
//! tuple   := u32 len, value*
//! value   := tag u8, payload
//!   0x00 Id      u64
//!   0x01 Int     i64
//!   0x02 Float   f64 bits
//!   0x03 Bool    u8
//!   0x04 Str     u32 len, utf8 bytes
//!   0x05 List    u32 len, value*
//!   0x06 Unit
//! ```
//!
//! Writers append to a `Vec<u8>`; readers consume the front of a
//! `&mut &[u8]` through one bounds-checked `take`, which the columnar
//! and v3 decoders share, so a stored byte is touched once and never
//! copied into a staging buffer. Rows decode into a [`RowBlock`];
//! [`decode_tuples`] is the adapter that copies them out as tuples.

use crate::rows::{RowBlock, Rows};
use ariadne_pql::{Tuple, Value};
use std::sync::Arc;

/// Serialization/deserialization errors.
#[derive(Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended mid-value.
    Truncated,
    /// Unknown tag byte.
    BadTag(u8),
    /// String payload was not UTF-8.
    BadUtf8,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated input"),
            CodecError::BadTag(t) => write!(f, "unknown value tag {t:#x}"),
            CodecError::BadUtf8 => write!(f, "invalid utf-8 in string value"),
        }
    }
}

impl std::error::Error for CodecError {}

/// [`crate::v3`]'s parsers report `String` details; a short read
/// becomes its text under `?`.
impl From<CodecError> for String {
    fn from(e: CodecError) -> String {
        e.to_string()
    }
}

/// Split the first `n` bytes off `input`, or fail without consuming
/// anything. The one bounds check every stored byte is read through:
/// row values here, column blocks and varints in [`crate::columnar`],
/// footers, manifests and compressed payloads in [`crate::v3`].
pub(crate) fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], CodecError> {
    if input.len() < n {
        return Err(CodecError::Truncated);
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Ok(head)
}

/// [`take`] exactly `N` bytes as an array, ready for `from_le_bytes`.
pub(crate) fn take_array<const N: usize>(input: &mut &[u8]) -> Result<[u8; N], CodecError> {
    Ok(take(input, N)?
        .try_into()
        .expect("take returned exactly N bytes"))
}

/// Append one value to `buf`.
pub fn write_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Id(x) => {
            buf.push(0x00);
            buf.extend_from_slice(&x.to_le_bytes());
        }
        Value::Int(x) => {
            buf.push(0x01);
            buf.extend_from_slice(&x.to_le_bytes());
        }
        Value::Float(x) => {
            buf.push(0x02);
            buf.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Bool(x) => buf.extend_from_slice(&[0x03, u8::from(*x)]),
        Value::Str(s) => {
            buf.push(0x04);
            buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
            buf.extend_from_slice(s.as_bytes());
        }
        Value::List(items) => {
            buf.push(0x05);
            buf.extend_from_slice(&(items.len() as u32).to_le_bytes());
            for item in items.iter() {
                write_value(buf, item);
            }
        }
        Value::Unit => buf.push(0x06),
    }
}

/// Read one value off the front of `input`.
pub fn read_value(input: &mut &[u8]) -> Result<Value, CodecError> {
    let [tag] = take_array(input)?;
    Ok(match tag {
        0x00 => Value::Id(u64::from_le_bytes(take_array(input)?)),
        0x01 => Value::Int(i64::from_le_bytes(take_array(input)?)),
        0x02 => Value::Float(f64::from_bits(u64::from_le_bytes(take_array(input)?))),
        0x03 => {
            let [b] = take_array(input)?;
            Value::Bool(b != 0)
        }
        0x04 => {
            let len = u32::from_le_bytes(take_array(input)?) as usize;
            let s = std::str::from_utf8(take(input, len)?).map_err(|_| CodecError::BadUtf8)?;
            Value::str(s)
        }
        0x05 => {
            let len = u32::from_le_bytes(take_array(input)?) as usize;
            let mut items = Vec::with_capacity(len.min(1 << 16));
            for _ in 0..len {
                items.push(read_value(input)?);
            }
            Value::List(Arc::new(items))
        }
        0x06 => Value::Unit,
        other => return Err(CodecError::BadTag(other)),
    })
}

/// Advance past one value without materializing it (column-masked reads
/// of row-major v1 records).
pub fn skip_value(input: &mut &[u8]) -> Result<(), CodecError> {
    let [tag] = take_array(input)?;
    match tag {
        0x00..=0x02 => {
            take(input, 8)?;
        }
        0x03 => {
            take(input, 1)?;
        }
        0x04 => {
            let len = u32::from_le_bytes(take_array(input)?) as usize;
            take(input, len)?;
        }
        0x05 => {
            let len = u32::from_le_bytes(take_array(input)?);
            for _ in 0..len {
                skip_value(input)?;
            }
        }
        0x06 => {}
        other => return Err(CodecError::BadTag(other)),
    }
    Ok(())
}

/// Serialize a batch of rows (of any arities).
pub fn encode_tuples<R: Rows + ?Sized>(rows: &R) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_tuples_onto(rows, &mut buf);
    buf
}

/// [`encode_tuples`] onto the end of `buf`.
pub(crate) fn encode_tuples_onto<R: Rows + ?Sized>(rows: &R, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    for i in 0..rows.len() {
        let row = rows.row(i);
        buf.extend_from_slice(&(row.len() as u32).to_le_bytes());
        for v in row {
            write_value(buf, v);
        }
    }
}

/// Deserialize a batch of tuples: the rows are decoded into a block,
/// then copied out.
pub fn decode_tuples(data: &[u8]) -> Result<Vec<Tuple>, CodecError> {
    decode_tuples_masked(data, None)
}

/// [`decode_tuples`] under a keep-mask in column order: positions whose
/// mask entry is `false` are skipped via [`skip_value`] (never
/// materialized) and decode as [`Value::Unit`], preserving arity and row
/// order. Positions past the end of the mask are kept.
pub fn decode_tuples_masked(data: &[u8], mask: Option<&[bool]>) -> Result<Vec<Tuple>, CodecError> {
    let mut rows = RowBlock::default();
    decode_rows_into(data, mask, &mut rows)?;
    Ok(rows.to_tuples())
}

/// Deserialize a batch of rows onto the end of `out` under an optional
/// keep-mask (as [`decode_tuples_masked`]). Returns the rows appended; on
/// an error `out` may hold part of the batch.
pub(crate) fn decode_rows_into(
    mut data: &[u8],
    mask: Option<&[bool]>,
    out: &mut RowBlock,
) -> Result<usize, CodecError> {
    let input = &mut data;
    let count = u32::from_le_bytes(take_array(input)?) as usize;
    for _ in 0..count {
        let arity = u32::from_le_bytes(take_array(input)?) as usize;
        // Every value spends at least its tag byte: an arity the rest of
        // the payload cannot hold is corrupt, and must not size a row.
        if arity > input.len() {
            return Err(CodecError::Truncated);
        }
        for (col, slot) in out.grow(1, arity).iter_mut().enumerate() {
            if mask.is_none_or(|m| m.get(col).copied().unwrap_or(true)) {
                *slot = read_value(input)?;
            } else {
                skip_value(input)?;
            }
        }
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(tuples: Vec<Tuple>) {
        let encoded = encode_tuples(&tuples);
        let decoded = decode_tuples(&encoded).unwrap();
        assert_eq!(tuples, decoded);
    }

    #[test]
    fn roundtrips_all_value_kinds() {
        roundtrip(vec![
            vec![
                Value::Id(7),
                Value::Int(-3),
                Value::Float(1.5),
                Value::Bool(true),
                Value::str("hello"),
                Value::floats(&[1.0, 2.0]),
                Value::Unit,
            ],
            vec![Value::Float(f64::INFINITY)],
            vec![Value::Float(f64::NAN)], // NaN survives via bit pattern
        ]);
    }

    #[test]
    fn roundtrips_empty() {
        roundtrip(vec![]);
        roundtrip(vec![vec![]]);
    }

    #[test]
    fn nested_lists() {
        roundtrip(vec![vec![Value::List(Arc::new(vec![
            Value::floats(&[1.0]),
            Value::str("x"),
        ]))]]);
    }

    #[test]
    fn truncation_detected() {
        let enc = encode_tuples(&vec![vec![Value::Int(1)]]);
        for cut in 0..enc.len() - 1 {
            assert!(decode_tuples(&enc[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn bad_tag_detected() {
        let buf = [1, 0, 0, 0, 1, 0, 0, 0, 0xFF];
        assert_eq!(decode_tuples(&buf), Err(CodecError::BadTag(0xFF)));
    }
}
