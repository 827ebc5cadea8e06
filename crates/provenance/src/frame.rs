//! Record framing: the checksummed frame every stored batch travels in,
//! the walk over a concatenation of frames, and the per-version payload
//! decode dispatch.
//!
//! Every batch is framed as a **checksummed record** — a magic header,
//! the payload length, a CRC32 of the payload, and a footer magic:
//!
//! ```text
//! +--------+---------+----------------+---------+--------+
//! | "ARSG" | len u64 | CRC32(payload) | payload | "GSRA" |   v1 (row-major)
//! | "ARS2" | len u64 | CRC32(payload) | payload | "2SRA" |   v2 (columnar)
//! | "ARSZ" | len u64 | CRC32(payload) | payload | "ZSRA" |   v3 (LZ block)
//! +--------+---------+----------------+---------+--------+
//! ```
//!
//! Corrupted records surface as typed [`StoreError::Corrupt`] values
//! naming the file — never a panic.
//!
//! # Record formats
//!
//! Three payload formats share the framing, dispatched by the record's
//! **version byte** (the fourth magic byte; see [`FRAME_MAGICS`]):
//!
//! * **v1**: the row-major tagged encoding of [`crate::codec`].
//! * **v2**: the columnar encoding of [`crate::columnar`], with a
//!   per-column [`Encoding`] chosen by a stats pass at encode time.
//! * **v3**: an LZ-compressed block (see [`crate::v3`]) stacked *under*
//!   a v1 or v2 payload — the payload is an inner version tag, the raw
//!   length, and the compressed inner payload.
//!
//! One writer frames records, `append_records` (or, for a ragged batch,
//! `append_frame_best`): each payload in the v3 frame when LZ strictly
//! wins, in its plain v2 (or v1) frame otherwise. v1 and v2 records are
//! **decode-only**: readers accept every format, record by record, so an
//! older writer's spool reopens unchanged, and a resumed capture appends
//! after the older records in the same segment.

use crate::codec::{decode_rows_into, encode_tuples_onto, take, take_array, CodecError};
use crate::columnar::{
    decode_columnar_into, encode_columnar_onto, ColumnStat, Encoding, MAX_DECODE_CELLS,
};
use crate::obs_handles;
use crate::rows::{RowBlock, Rows};
use crate::store::StoreError;
use crate::v3;
use ariadne_obs::trace::{self, Level};
use ariadne_vc::checkpoint::crc32;
use std::cell::RefCell;
use std::path::Path;
use std::time::Instant;

/// The opening and closing magic of each frame version, indexed by
/// `version - 1`: v1 row-major, v2 columnar, v3 LZ-compressed. The
/// fourth byte of the opening magic is the version byte readers
/// dispatch on; the closing magic is the truncation tripwire.
pub const FRAME_MAGICS: [([u8; 4], [u8; 4]); 3] = [
    (*b"ARSG", *b"GSRA"),
    (*b"ARS2", *b"2SRA"),
    (*b"ARSZ", *b"ZSRA"),
];
/// A frame's header in bytes: opening magic, payload length, CRC.
const FRAME_HEADER: usize = 4 + 8 + 4;
/// Per-record framing overhead in bytes (header + footer).
pub const RECORD_OVERHEAD: usize = FRAME_HEADER + 4;

/// The frame version whose opening magic is `magic`, if any.
fn frame_version(magic: &[u8]) -> Option<u8> {
    let at = FRAME_MAGICS.iter().position(|(open, _)| open == magic)?;
    Some(at as u8 + 1)
}

/// Open a record frame on the end of `buf`: room for the opening magic,
/// length and CRC that [`close_frame`] fills in. Returns where the
/// payload starts; the caller writes it straight behind.
fn open_frame(buf: &mut Vec<u8>) -> usize {
    buf.extend_from_slice(&[0; FRAME_HEADER]);
    buf.len()
}

/// Close the frame of `version` (1, 2 or 3) whose payload runs from `at`
/// (what [`open_frame`] returned) to the end of `buf`: its magic, length
/// and CRC go in front, its closing magic behind.
fn close_frame(buf: &mut Vec<u8>, version: u8, at: usize) {
    let (open, close) = FRAME_MAGICS[usize::from(version) - 1];
    let len = (buf.len() - at) as u64;
    let crc = crc32(&buf[at..]);
    let header = &mut buf[at - FRAME_HEADER..at];
    header[..4].copy_from_slice(&open);
    header[4..12].copy_from_slice(&len.to_le_bytes());
    header[12..].copy_from_slice(&crc.to_le_bytes());
    buf.extend_from_slice(&close);
}

/// Append `raw` (an inner payload of `inner_version` 1 = row-major or
/// 2 = columnar) as either a compressed v3 frame — when compression
/// strictly wins — or the plain frame of its native version. The
/// compressed form is written straight into `buf`.
pub(crate) fn append_frame_best(buf: &mut Vec<u8>, inner_version: u8, raw: &[u8]) {
    let at = open_frame(buf);
    if v3::append_compressed_payload(buf, inner_version, raw) {
        obs_handles::lz_records().inc();
        obs_handles::lz_saved_bytes().add((raw.len() - (buf.len() - at)) as u64);
        close_frame(buf, 3, at);
    } else {
        buf.extend_from_slice(raw);
        close_frame(buf, inner_version, at);
    }
}

/// Count `record`, one whole frame, in the LZ counters as its write
/// did when it is compressed: a record an epoch append copies counts as
/// the write it stands in for.
pub(crate) fn count_lz_win(record: &[u8]) {
    if record[..4] == FRAME_MAGICS[2].0 {
        let raw_len = &record[FRAME_HEADER + 1..FRAME_HEADER + 5];
        let raw_len = u32::from_le_bytes(raw_len.try_into().unwrap()) as usize;
        obs_handles::lz_records().inc();
        obs_handles::lz_saved_bytes().add((raw_len + RECORD_OVERHEAD - record.len()) as u64);
    }
}

thread_local! {
    /// The raw payload a record is encoded into before it is compressed,
    /// reused record after record on each thread.
    static RAW: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
    /// The raw payload a compressed record decompresses into before it
    /// is decoded: [`RAW`]'s mirror on the read side.
    static DECODED: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Frame `rows` as records onto `buf`, at most [`MAX_DECODE_CELLS`]
/// cells a record (so a reader's guard never rejects one): columnar (v2)
/// wherever a run of rows has a columnar form, row-major (v1) otherwise,
/// each in the compressed v3 frame when LZ strictly wins. `on_column`
/// sees each column of every columnar record written: its index,
/// encoding and accounting. Returns the records written. The one record
/// writer behind ingest and compaction; a payload is encoded
/// into a buffer the thread reuses, then compressed into its frame.
pub(crate) fn append_records(
    buf: &mut Vec<u8>,
    rows: &RowBlock,
    mut on_column: impl FnMut(usize, Encoding, &ColumnStat),
) -> u32 {
    let arity = rows.rows().next().map_or(1, |row| row.len().max(1));
    let mut records = 0;
    for chunk in rows.chunks((MAX_DECODE_CELLS / arity).max(1)) {
        RAW.with_borrow_mut(|raw| {
            raw.clear();
            // Columnar where the rows have that form.
            let version = if encode_columnar_onto(&chunk, raw, true, &mut on_column) {
                2
            } else {
                encode_tuples_onto(&chunk, raw);
                1
            };
            append_frame_best(buf, version, raw);
        });
        records += 1;
    }
    records
}

/// How [`walk_records`] reacts to a record that fails validation.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum WalkMode {
    /// First failure is a typed error (sealed segments, default reads).
    Strict,
    /// A failure whose damage extends to end-of-data (truncated header
    /// or payload overrunning the buffer — the signature of a torn
    /// write) stops the walk and reports a torn tail; any other failure
    /// is still a typed error. Used on unsealed tails at resume/scrub.
    Salvage,
}

/// One validated record frame inside a byte stream.
struct Frame<'a> {
    /// Frame version per the magic's version byte (a v3 frame tags its
    /// inner version in the payload).
    version: u8,
    payload: &'a [u8],
    /// Offset just past this record's footer.
    next: usize,
}

/// Why a frame failed validation.
struct FrameError {
    /// The failure region extends to end-of-data — what a torn (crash-
    /// truncated) write leaves behind. A complete-but-invalid frame
    /// (CRC mismatch, bad magic/footer) is *not* torn: truncation
    /// cannot produce it, so it is real corruption.
    torn: bool,
    detail: String,
}

/// Validate the record frame starting at `off`: magic, length, CRC,
/// footer. Does not decode the payload.
fn try_frame(data: &[u8], off: usize) -> Result<Frame<'_>, FrameError> {
    let mut input = &data[off..];
    let header = if input.len() < RECORD_OVERHEAD {
        Err(CodecError::Truncated)
    } else {
        take_header(&mut input)
    };
    let Ok((magic, len, stored_crc)) = header else {
        return Err(FrameError {
            torn: true,
            detail: format!(
                "truncated record header at offset {off} ({} trailing bytes)",
                data.len() - off
            ),
        });
    };
    let Some(version) = frame_version(magic) else {
        return Err(FrameError {
            torn: false,
            detail: format!("bad record magic at offset {off}"),
        });
    };
    let (Ok(payload), Ok(footer)) = (take(&mut input, len), take(&mut input, 4)) else {
        return Err(FrameError {
            torn: true,
            detail: format!("record at offset {off} claims {len} payload bytes past end of data"),
        });
    };
    let next = data.len() - input.len();
    let actual_crc = crc32(payload);
    if actual_crc != stored_crc {
        obs_handles::checksum_failures().inc();
        trace::event(
            Level::Error,
            "store",
            "checksum_failure",
            &[
                ("offset", off.into()),
                ("stored_crc", u64::from(stored_crc).into()),
                ("computed_crc", u64::from(actual_crc).into()),
            ],
        );
        return Err(FrameError {
            torn: false,
            detail: format!(
                "CRC mismatch at offset {off}: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
            ),
        });
    }
    if footer != FRAME_MAGICS[usize::from(version) - 1].1 {
        obs_handles::checksum_failures().inc();
        return Err(FrameError {
            torn: false,
            detail: format!("bad record footer at offset {}", next - 4),
        });
    }
    Ok(Frame {
        version,
        payload,
        next,
    })
}

/// Whether `data` is exactly one record frame, going by its header's
/// payload length (the CRC and the payload are a reader's to check).
pub(crate) fn is_one_record(data: &[u8]) -> bool {
    let mut input = data;
    take_header(&mut input)
        .is_ok_and(|(_, len, _)| len.checked_add(RECORD_OVERHEAD) == Some(data.len()))
}

/// Split a frame header (opening magic, payload length, stored CRC) off
/// `input`.
fn take_header<'a>(input: &mut &'a [u8]) -> Result<(&'a [u8], usize, u32), CodecError> {
    let magic = take(input, 4)?;
    let len = u64::from_le_bytes(take_array(input)?);
    let crc = u32::from_le_bytes(take_array(input)?);
    // A length past `usize` is past end-of-data on any host.
    Ok((magic, usize::try_from(len).unwrap_or(usize::MAX), crc))
}

/// Non-tuple outcomes of decoding a stretch of records.
#[derive(Debug, Default)]
pub(crate) struct DecodeCounts {
    /// Column blocks skipped via the mask (v2) or
    /// [`Value::Unit`](ariadne_pql::Value::Unit)-filled column positions
    /// per record (v1 masked reads count 0 here — v1 has no skippable
    /// blocks, only skipped values).
    pub cols_skipped: usize,
    /// Encoded bytes of skipped v2 column blocks.
    pub col_bytes_skipped: usize,
}

impl DecodeCounts {
    pub(crate) fn absorb(&mut self, other: &DecodeCounts) {
        self.cols_skipped += other.cols_skipped;
        self.col_bytes_skipped += other.col_bytes_skipped;
    }
}

/// The outcome of walking a stretch of records.
#[derive(Debug, Default)]
pub(crate) struct WalkOutcome {
    pub counts: DecodeCounts,
    /// Records fully validated and decoded.
    pub records: usize,
    /// Rows appended to `out`.
    pub tuples: usize,
    /// Offset just past the last valid record — the truncation point a
    /// salvage should cut back to.
    pub valid_end: usize,
    /// Set under [`WalkMode::Salvage`] when trailing bytes formed a
    /// torn (crash-truncated) partial record; holds the failure detail.
    pub torn_tail: Option<String>,
}

/// Decode a concatenation of checksummed records, appending their rows
/// to `out`. The record's version byte dispatches between the
/// payload decoders; a mixed stream (v1 records sealed by a previous
/// incarnation followed by freshly packed v2 ones) is valid. `origin`
/// names the data source in errors. `mask`, when given, is the
/// keep-mask applied to every record; `stats`, when given, accumulates
/// per-column encode accounting from v2 records (spool resume
/// rebuilding a segment's column index). `mode` selects how validation
/// failures are handled — see [`WalkMode`].
/// Every decode of a stored record — reads, compaction, the epoch fold,
/// scrub and resume — comes through here, timed as `store_decode_ns`.
pub(crate) fn walk_records(
    data: &[u8],
    origin: &Path,
    out: &mut RowBlock,
    mask: Option<&[bool]>,
    stats: Option<&mut Vec<ColumnStat>>,
    mode: WalkMode,
) -> Result<WalkOutcome, StoreError> {
    let started = Instant::now();
    let walked = walk(data, origin, out, mask, stats, mode);
    obs_handles::decode_ns().add(started.elapsed().as_nanos() as u64);
    walked
}

/// [`walk_records`], untimed.
fn walk(
    data: &[u8],
    origin: &Path,
    out: &mut RowBlock,
    mask: Option<&[bool]>,
    mut stats: Option<&mut Vec<ColumnStat>>,
    mode: WalkMode,
) -> Result<WalkOutcome, StoreError> {
    let corrupt = |detail: String| StoreError::Corrupt {
        path: origin.to_path_buf(),
        detail,
    };
    let mut o = WalkOutcome::default();
    DECODED.with_borrow_mut(|raw| {
        while o.valid_end < data.len() {
            let frame = match try_frame(data, o.valid_end) {
                Ok(frame) => frame,
                Err(e) if mode == WalkMode::Salvage && e.torn => {
                    o.torn_tail = Some(e.detail);
                    return Ok(o);
                }
                Err(e) => return Err(corrupt(e.detail)),
            };
            // The frame is CRC-valid; a payload decode failure here is
            // real corruption (or a decoder bug), never a torn tail.
            let counts = &mut o.counts;
            let tuples = decode_frame(&frame, raw, mask, stats.as_deref_mut(), out, counts);
            o.tuples += tuples.map_err(corrupt)?;
            obs_handles::records_verified().inc();
            o.records += 1;
            o.valid_end = frame.next;
        }
        Ok(o)
    })
}

/// [`walk_records`] for verification alone: every CRC checked, every
/// payload decoded into `scratch` (cleared first, so one block serves a
/// whole scrub), the rows discarded.
pub(crate) fn verify_records(
    data: &[u8],
    origin: &Path,
    mode: WalkMode,
    scratch: &mut RowBlock,
) -> Result<WalkOutcome, StoreError> {
    scratch.clear();
    walk_records(data, origin, scratch, None, None, mode)
}

/// Fold `cols` (one record's or file's per-column accounting) into the
/// running per-segment totals `agg`, growing `agg` to fit.
pub(crate) fn absorb_cols(agg: &mut Vec<ColumnStat>, cols: &[ColumnStat]) {
    for (col, stat) in cols.iter().enumerate() {
        absorb_col(agg, col, stat);
    }
}

/// Fold column `col`'s accounting into `agg[col]`, growing `agg` to fit.
pub(crate) fn absorb_col(agg: &mut Vec<ColumnStat>, col: usize, stat: &ColumnStat) {
    if agg.len() <= col {
        agg.resize(col + 1, ColumnStat::default());
    }
    agg[col].absorb(stat);
}

/// Decode one validated frame's payload onto the end of `out`,
/// returning the rows appended, or the failure detail (with part of the
/// record possibly appended: the caller fails the whole walk). A v3
/// payload decompresses into `raw`, the walk's reused buffer.
fn decode_frame(
    frame: &Frame<'_>,
    raw: &mut Vec<u8>,
    mask: Option<&[bool]>,
    stats: Option<&mut Vec<ColumnStat>>,
    out: &mut RowBlock,
    counts: &mut DecodeCounts,
) -> Result<usize, String> {
    // A v3 frame decompresses to an inner v1/v2 payload, then decodes
    // like the plain frame of that version. The frame CRC covered the
    // compressed form, so a decompression failure here is corruption
    // that slipped a CRC collision (or a decoder bug) — reported, not
    // panicked.
    let (version, payload) = match frame.version {
        3 => (
            v3::decode_compressed_payload_into(frame.payload, raw)?,
            &raw[..],
        ),
        plain => (plain, frame.payload),
    };
    let before = out.len();
    let failed = |what: &str, e: CodecError| format!("{what} decode failed: {e}");
    if version == 2 {
        let read = decode_columnar_into(payload, mask, out).map_err(|e| failed("columnar", e))?;
        counts.cols_skipped += read.cols_skipped;
        counts.col_bytes_skipped += read.col_bytes_skipped;
        if let Some(stats) = stats {
            absorb_cols(stats, &read.columns);
        }
    } else {
        decode_rows_into(payload, mask, out).map_err(|e| failed("tuple", e))?;
        // v1 records skip masked values one at a time; count the
        // masked columns per non-empty record (the v2 analogue of a
        // skipped column block) even though the byte savings are not
        // tracked at this granularity.
        if out.len() > before {
            if let Some(m) = mask {
                counts.cols_skipped += m.iter().filter(|k| !**k).count();
            }
        }
    }
    Ok(out.len() - before)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spool::segment_path;
    use crate::store::tests::{temp_dir, tuple};
    use crate::store::{ProvStore, StoreConfig};

    #[test]
    fn corrupted_spill_file_is_typed_error() {
        let dir = temp_dir("corrupt-spill");
        std::fs::remove_dir_all(&dir).ok();
        let mut store = ProvStore::new(StoreConfig::spilling(8, dir.clone()));
        store
            .ingest(0, "value", (0..20).map(|v| tuple(v, 0)).collect())
            .unwrap();
        assert!(store.spills() > 0);
        // Flip a byte inside the spilled payload.
        let path = segment_path(&dir, 0, "value");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        match store.layer(0) {
            Err(StoreError::Corrupt { path: p, detail }) => {
                assert_eq!(p, path);
                assert!(
                    detail.contains("CRC") || detail.contains("magic") || detail.contains("footer"),
                    "unexpected detail: {detail}"
                );
            }
            other => panic!("expected corrupt error, got {other:?}"),
        }
        // Truncation is also typed, not a panic.
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        assert!(matches!(store.layer(0), Err(StoreError::Corrupt { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }
}
