//! The captured-provenance store: the [`ProvStore`] facade — its types,
//! ingest, layer reads and accounting.
//!
//! Captured tuples are grouped into **segments** keyed by (superstep,
//! predicate). Segments are held *serialized* (checksummed records, see
//! [`crate::frame`]): ingestion pays the serialization cost a real
//! provenance store pays on its write path, accounting reports the true
//! stored size (Tables 3–4), and spilling a segment to disk is a plain
//! byte copy. When the in-memory encoded size exceeds the budget, the
//! largest segments spill to files in a spool directory — the stand-in
//! for the paper's asynchronous HDFS offload ("When the provenance
//! graph exceeds the size of available RAM, Ariadne offloads it
//! asynchronously", §6.1).
//!
//! Each storage decision lives in one sibling module, which also holds
//! the [`ProvStore`] methods that act on it: record framing and the
//! three payload formats in [`crate::frame`]; spool naming, atomic
//! publish, salvage, spill IO and [`ProvStore::resume_from_spool`] in
//! [`crate::spool`]; the offline [`scrub_spool`] in [`crate::scrub`];
//! [`ProvStore::compact`] in [`crate::compact`];
//! [`ProvStore::append_epoch`] in [`crate::epoch`]; and the
//! asynchronous [`StoreWriter`] in [`crate::writer`].
//!
//! Replay for layered evaluation decodes one superstep (= one provenance
//! layer) at a time, ascending for forward queries or descending for
//! backward ones (§5.1). [`ProvStore::layer_filtered`] restricts a layer
//! read to the predicates a compiled query actually references, skipping
//! the decode — and the disk read entirely — for irrelevant segments;
//! [`ProvStore::segment_index`] exposes the per-(superstep, predicate)
//! tuple/byte accounting that planning decisions (pruning, budgeting)
//! are made from.
//!
//! Every read is strict: a corrupt record or a quarantined segment is a
//! typed [`StoreError`], never a partial answer. Recovery has one path:
//! [`scrub_spool`] repairs the spool offline, and
//! [`ProvStore::resume_from_spool`] reopens it.

use crate::codec::{encode_tuples, CodecError};
use crate::columnar::ColumnStat;
use crate::epoch::{op_of, EpochInfo};
use crate::frame::{
    absorb_col, append_frame_best, append_records, walk_records, DecodeCounts, WalkMode,
};
use crate::obs_handles;
use crate::rows::{RowBlock, Rows};
use crate::spool::{io_err, note_fault, read_extent, timed_sync_dir};
use crate::v3::FooterEntry;
use ariadne_obs::trace::{self, Level};
use ariadne_pql::{Database, Tuple};
use ariadne_vc::FaultPlan;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

pub use crate::compact::{compact_spool, CompactReport};
pub use crate::scrub::{scrub_spool, ScrubAction, ScrubReport, SegmentDamage};
pub use crate::writer::{StoreSender, StoreWriter};

/// Typed failures from the provenance store.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure; `path` names the file or directory involved.
    Io {
        /// The spool file or directory the operation touched.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A stored segment failed record validation (magic, length, CRC,
    /// footer) or tuple decoding.
    Corrupt {
        /// The offending spool file (or `<memory>` for in-memory data).
        path: PathBuf,
        /// What exactly failed.
        detail: String,
    },
    /// A [`FaultPlan`] failed this spill write on purpose.
    InjectedSpillFailure {
        /// The zero-based ordinal of the failed spill attempt.
        attempt: u64,
    },
    /// The writer thread is gone (panicked or already finished).
    WriterDead,
    /// The writer thread did not drain its queue within the deadline.
    FinishTimeout {
        /// The deadline that elapsed.
        timeout: Duration,
        /// Ingest batches still queued when the deadline elapsed.
        pending: u64,
    },
    /// A read touched a layer whose segment file was moved into
    /// `quarantine/` by a scrub repair.
    Quarantined {
        /// The quarantined segment file.
        path: PathBuf,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "store io error at {}: {source}", path.display())
            }
            StoreError::Corrupt { path, detail } => {
                write!(f, "corrupt segment {}: {detail}", path.display())
            }
            StoreError::InjectedSpillFailure { attempt } => {
                write!(f, "injected failure of spill write #{attempt}")
            }
            StoreError::WriterDead => write!(f, "store writer thread is gone"),
            StoreError::FinishTimeout { timeout, pending } => {
                write!(
                    f,
                    "store writer did not drain within {timeout:?} ({pending} batches pending)"
                )
            }
            StoreError::Quarantined { path } => {
                write!(f, "segment quarantined: {}", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl StoreError {
    /// The refusal of predicate `pred`, whose stored rows have arity
    /// `arity` and `other`: only a ragged [`ProvStore::ingest`] stores
    /// such rows, and no relation loads both.
    pub fn mixed_arity(pred: &str, arity: usize, other: usize) -> StoreError {
        StoreError::Corrupt {
            path: PathBuf::from("<memory>"),
            detail: format!(
                "`{pred}` holds rows of arity {arity} and {other}: no relation loads both"
            ),
        }
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Corrupt {
            path: PathBuf::from("<memory>"),
            detail: e.to_string(),
        }
    }
}

/// The format the store writes records in. There is one: v1 and v2
/// records are decode-only, read from older spools by the per-record
/// version dispatch of [`crate::frame`]. The type stays so callers that
/// name the format keep compiling; see [`StoreConfig::with_format`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum SegmentFormat {
    /// Packed columnar records ([`crate::columnar`]), each LZ-compressed
    /// ([`crate::v3`]) when that is strictly smaller.
    #[default]
    V3,
}

/// A name for how layer reads pull extent bytes from spool files.
/// Every read is one seek and one read into an owned buffer, whichever
/// variant is named; the type stays so callers that name a backend keep
/// compiling. See [`StoreConfig::with_read_backend`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum ReadBackend {
    /// Seek + read into an owned buffer: how every extent is read.
    #[default]
    Buffered,
    /// Read exactly as [`ReadBackend::Buffered`] does.
    Mmap,
}

/// How hard spill writes push bytes toward stable storage — the store's
/// explicit durability contract.
///
/// Every level keeps the *integrity* guarantee (a reopened spool never
/// yields wrong data: records are CRC-framed and validated on read);
/// the levels differ in how much captured provenance is guaranteed to
/// *survive* a crash or power loss.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum Durability {
    /// No fsync anywhere, compaction included (the pre-durability
    /// behavior and the default).
    /// Spills append whole records to unsealed `seg-*.bin` tails; after
    /// an OS crash the tail may be torn, which resume salvages back to
    /// the last record boundary. Survives process crash, not power loss.
    #[default]
    None,
    /// Like [`Durability::None`], plus `fsync` on the segment file after
    /// every spill append and on the spool directory when it (or a new
    /// segment file) is created. Spilled records survive power loss;
    /// the final append may still tear and be salvaged.
    Spill,
    /// Every spill atomically rewrites the whole segment as a sealed
    /// `seg-*.seal` file (temp file + fsync + rename + directory fsync).
    /// The spool never holds a torn segment — each file is complete or
    /// absent — at the price of write amplification proportional to the
    /// segment size on every spill.
    Seal,
}

/// Store configuration. The record format is not configurable: see
/// [`SegmentFormat`].
#[derive(Clone, Debug, Default)]
pub struct StoreConfig {
    /// Encoded bytes the store may hold in memory: when an ingest takes
    /// the store past it, the largest in-memory segments spill until the
    /// rest fit.
    pub memory_budget: usize,
    /// Where spilled segments go; `None` disables spilling (the store
    /// then grows without bound, like the paper's failed ALS capture).
    /// The directory is created on the first spill, not eagerly.
    pub spool_dir: Option<PathBuf>,
    /// Scripted fault injection for spill writes (crash-recovery tests).
    pub fault: Option<Arc<FaultPlan>>,
    /// Fsync level for spill writes (defaults to [`Durability::None`]).
    pub durability: Durability,
}

impl StoreConfig {
    /// An unbounded in-memory store (tests, small runs).
    pub fn in_memory() -> Self {
        StoreConfig {
            memory_budget: 256 << 20,
            ..StoreConfig::default()
        }
    }

    /// A store that spills past `budget` bytes into `dir`.
    pub fn spilling(budget: usize, dir: PathBuf) -> Self {
        StoreConfig {
            memory_budget: budget,
            spool_dir: Some(dir),
            ..StoreConfig::default()
        }
    }

    /// Attach a fault plan consulted on every spill write.
    pub fn with_fault(mut self, fault: Arc<FaultPlan>) -> Self {
        self.fault = Some(fault);
        self
    }

    /// The identity: the store writes [`SegmentFormat::V3`], the only
    /// format there is. Kept so configurations that name the format
    /// keep compiling.
    pub fn with_format(self, _format: SegmentFormat) -> Self {
        self
    }

    /// Select the spill durability level (builder style).
    pub fn with_durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// The identity: every read seeks and reads, whatever
    /// [`ReadBackend`] is named. Kept so configurations that name a
    /// backend keep compiling.
    pub fn with_read_backend(self, _backend: ReadBackend) -> Self {
        self
    }
}

/// One (superstep, predicate) segment: encoded records in memory plus an
/// optional spilled prefix on disk.
#[derive(Debug, Default)]
pub(crate) struct Segment {
    /// Concatenated checksummed records, in append order.
    pub(crate) mem: Vec<u8>,
    /// Tuples encoded inside `mem`.
    pub(crate) mem_tuples: usize,
    /// Spool files holding the spilled prefix of this segment.
    pub(crate) disk: DiskPart,
    /// Sealed segments were fully persisted by a previous incarnation
    /// (see [`ProvStore::resume_from_spool`]); re-ingests are dropped.
    pub(crate) sealed: bool,
    /// Per-column encode accounting accumulated across columnar records
    /// (empty for segments holding only v1 records).
    pub(crate) cols: Vec<ColumnStat>,
    /// The stored bytes, spilled parts then `mem`, are exactly what one
    /// [`Segment::frame`] of this incarnation wrote: no earlier bytes, no
    /// second ingest, no ragged record, not resumed and not adopted. The
    /// record writer is a pure function of the rows, so re-encoding
    /// them would write these bytes again, and compaction copies them.
    pub(crate) one_ingest: bool,
    /// `mem` holds exactly one frame of rows in canonical (sorted)
    /// order: the frame of a `one_ingest` segment whose rows came
    /// sorted, or an adopted record. False wherever `one_ingest` is,
    /// except after adoption; it says nothing about spilled parts, so a
    /// reader that trusts it checks `disk` is empty.
    pub(crate) in_order: bool,
}

/// The spilled portion of a segment: one or more spool files, read in
/// order. A segment can span a sealed `.seal` file *and* an unsealed
/// `.bin` tail when incarnations with different durability levels wrote
/// to the same spool (sealed part always first).
#[derive(Debug, Default)]
pub(crate) struct DiskPart {
    pub(crate) files: Vec<DiskFile>,
}

/// One spool file (or an extent within a shared generation file)
/// backing part of a segment.
#[derive(Clone, Debug)]
pub(crate) struct DiskFile {
    pub(crate) path: PathBuf,
    /// Byte offset of this segment's extent within `path` (always 0 for
    /// plain `seg-*` files; compacted extents share a generation file).
    pub(crate) offset: u64,
    pub(crate) bytes: usize,
    pub(crate) tuples: usize,
    /// Written via temp-file + atomic rename (`.seal` or `gen-*.ars3`):
    /// any damage in it is real corruption, never a salvageable torn
    /// tail.
    pub(crate) atomic: bool,
    /// An extent of a compacted generation file: registered from the
    /// indexed footer, read by seeking to the extent, never absorbed
    /// into sealed rewrites, and scrubbed at whole-file granularity.
    pub(crate) compacted: bool,
}

impl DiskPart {
    pub(crate) fn bytes(&self) -> usize {
        self.files.iter().map(|f| f.bytes).sum()
    }

    pub(crate) fn tuples(&self) -> usize {
        self.files.iter().map(|f| f.tuples).sum()
    }
}

impl DiskFile {
    /// One key's extent of the generation file at `gen_path`, as its
    /// indexed footer (or the manifest's mirror of it) records it.
    pub(crate) fn extent(gen_path: &Path, e: &FooterEntry) -> Self {
        DiskFile {
            path: gen_path.to_path_buf(),
            offset: e.offset,
            bytes: e.len as usize,
            tuples: e.tuples as usize,
            atomic: true,
            compacted: true,
        }
    }

    /// Append this part's bytes to `buf`. Compacted extents seek
    /// straight to their footer-indexed byte range; plain files read
    /// whole. Either way only the extent's bytes are pulled.
    pub(crate) fn read_onto(&self, buf: &mut Vec<u8>) -> Result<(), StoreError> {
        read_extent(&self.path, self.offset, self.bytes, buf).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                // The file is shorter than its registered extent:
                // someone truncated it under us — corruption, not a
                // transient IO failure.
                StoreError::Corrupt {
                    path: self.path.clone(),
                    detail: format!(
                        "file shorter than registered extent {}+{}: {e}",
                        self.offset, self.bytes
                    ),
                }
            } else {
                io_err(&self.path)(e)
            }
        })
    }
}

impl Segment {
    /// Frame `rows` as records onto the end of this (`superstep`, `pred`)
    /// segment and return the bytes appended: columnar records, unless
    /// the block is larger than a reader's `MAX_DECODE_CELLS` guard lets
    /// a record be or wider than a columnar header can say (then
    /// row-major payloads; readers dispatch per record), and one
    /// row-major record for a [ragged](RowBlock::is_ragged) block.
    fn frame(&mut self, rows: &RowBlock, superstep: u32, pred: &str) -> usize {
        let t0 = std::time::Instant::now();
        let before = self.mem.len();
        let ragged = rows.is_ragged();
        self.one_ingest = before == 0 && self.disk.files.is_empty() && !ragged;
        self.in_order = self.one_ingest && (1..rows.len()).all(|i| rows.row(i - 1) <= rows.row(i));
        if ragged {
            append_frame_best(&mut self.mem, 1, &encode_tuples(rows));
        } else {
            let cols = &mut self.cols;
            append_records(&mut self.mem, rows, |col, enc, stat| {
                absorb_col(cols, col, stat);
                obs_handles::encoding_hist(enc).record(stat.encoded_bytes as u64);
            });
            obs_handles::packs().inc();
            obs_handles::encoded_bytes().add((self.mem.len() - before) as u64);
        }
        let appended = self.mem.len() - before;
        self.mem_tuples += rows.len();
        obs_handles::encode_ns().add(t0.elapsed().as_nanos() as u64);
        trace::event(
            Level::Debug,
            "store",
            "frame",
            &[
                ("superstep", superstep.into()),
                ("pred", pred.into()),
                ("rows", rows.len().into()),
                ("encoded_bytes", appended.into()),
            ],
        );
        appended
    }

    /// Total encoded bytes, memory plus spilled parts.
    pub(crate) fn total_bytes(&self) -> usize {
        self.mem.len() + self.disk.bytes()
    }

    /// Total tuple count, memory plus spilled parts.
    pub(crate) fn total_tuples(&self) -> usize {
        self.mem_tuples + self.disk.tuples()
    }

    /// Append the stored bytes, spilled parts first and then `mem`, to
    /// `buf` as they are, decoding every record strictly from the copy
    /// onto the end of `out`: each spilled part is read once. Returns
    /// the records copied.
    pub(crate) fn copy_into(
        &self,
        buf: &mut Vec<u8>,
        out: &mut RowBlock,
    ) -> Result<usize, StoreError> {
        let mut walk = |data: &[u8], origin: &Path| {
            walk_records(data, origin, out, None, None, WalkMode::Strict).map(|w| w.records)
        };
        let mut records = 0;
        for file in &self.disk.files {
            let at = buf.len();
            file.read_onto(buf)?;
            records += walk(&buf[at..], &file.path)?;
        }
        records += walk(&self.mem, Path::new("<memory>"))?;
        buf.extend_from_slice(&self.mem);
        Ok(records)
    }

    /// Decode the whole segment (spilled prefix first, then the
    /// in-memory tail) onto the end of `out`, returning the encoded bytes
    /// read plus skip accounting. Any damage is a typed error. `mask` is
    /// the keep-mask applied to every record.
    pub(crate) fn decode_into(
        &self,
        mask: Option<&[bool]>,
        out: &mut RowBlock,
    ) -> Result<(usize, DecodeCounts), StoreError> {
        let mode = WalkMode::Strict;
        let mut bytes_read = 0usize;
        let mut counts = DecodeCounts::default();
        for file in &self.disk.files {
            let mut data = Vec::new();
            file.read_onto(&mut data)?;
            bytes_read += data.len();
            let walked = walk_records(&data, &file.path, out, mask, None, mode)?;
            counts.absorb(&walked.counts);
        }
        bytes_read += self.mem.len();
        let walked = walk_records(&self.mem, Path::new("<memory>"), out, mask, None, mode)?;
        counts.absorb(&walked.counts);
        Ok((bytes_read, counts))
    }
}

/// The captured-provenance store.
#[derive(Debug, Default)]
pub struct ProvStore {
    pub(crate) config: StoreConfig,
    pub(crate) segments: BTreeMap<(u32, String), Segment>,
    pub(crate) mem_bytes: usize,
    pub(crate) disk_bytes: usize,
    pub(crate) tuples: usize,
    pub(crate) spills: usize,
    /// Cached largest captured superstep, maintained on ingest/resume so
    /// replay drivers and [`ProvStore::to_database`] never rescan the
    /// whole segment index for it.
    pub(crate) max_step: Option<u32>,
    /// Records retained by truncating torn unsealed tails at resume.
    pub(crate) salvaged: usize,
    /// Segment files found in (or moved to) `quarantine/`, keyed like
    /// segments. Reads of their layers fail typed.
    pub(crate) quarantined: BTreeMap<(u32, String), PathBuf>,
    /// The current compaction generation (0 = never compacted). Each
    /// [`ProvStore::compact`] bumps it; generation files and the spool
    /// manifest carry it so resume can tell live files from orphans.
    pub(crate) generation: u64,
    /// Compaction passes performed by this incarnation.
    pub(crate) compactions: usize,
    /// Whether a spill of this store created its spool directory: the
    /// first spill creates it, and no later one asks again.
    spool_created: bool,
    /// The epoch table: empty for a store that has never absorbed a
    /// graph mutation (it reads as one implicit epoch at base 0).
    /// Non-empty after the first [`ProvStore::append_epoch`]: entry 0
    /// describes the original capture, each later entry one appended
    /// delta epoch. Rebuilt from `~epoch~` marker segments on spool
    /// resume.
    pub(crate) epochs: Vec<EpochInfo>,
}

/// One row of the per-(superstep, predicate) segment index: the counts a
/// replay planner needs to decide what to decode without touching any
/// payload bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentInfo {
    /// The provenance layer (= superstep) the segment belongs to.
    pub superstep: u32,
    /// The predicate whose tuples the segment holds.
    pub pred: String,
    /// Decoded tuple count (memory + spilled parts).
    pub tuples: usize,
    /// Encoded record bytes (memory + spilled parts).
    pub bytes: usize,
    /// Whether any part of the segment lives in a spool file.
    pub spilled: bool,
    /// Whether the segment was recovered and sealed by a spool resume.
    pub sealed: bool,
    /// Per-column encoded/decoded byte accounting accumulated over the
    /// segment's packed (v2) records, in column order. Empty for
    /// segments holding only v1 records; `decoded_bytes` is the
    /// v1-equivalent size, so `encoded_bytes / decoded_bytes` is the
    /// column's compression ratio.
    pub columns: Vec<ColumnStat>,
}

/// The outcome of one filtered layer read: each predicate's rows — as
/// [`Tuple`]s, or (`R = RowBlock`, [`ProvStore::layer_blocks`]) as the
/// blocks they were decoded into — and what the read touched and
/// skipped.
#[derive(Debug, Default)]
pub struct LayerRead<R = Vec<Tuple>> {
    /// Decoded (predicate, rows) pairs, in predicate order.
    pub tuples: Vec<(String, R)>,
    /// Segments decoded for this layer.
    pub segments_read: usize,
    /// Segments neither decoded nor (for spilled parts) read from disk
    /// at all: the filter rejected their predicate, or — in an epoch
    /// store — a newer epoch superseded their content.
    pub segments_skipped: usize,
    /// Encoded bytes decoded (memory + disk).
    pub bytes_read: usize,
    /// Encoded bytes of the skipped segments.
    pub bytes_skipped: usize,
    /// Column runs skipped via a column mask: one per masked column per
    /// v2 record (the whole encoded block is jumped over) and one per
    /// masked column per non-empty v1 record (values skipped
    /// individually). Contained in `bytes_read` segments but never
    /// materialized as values.
    pub cols_skipped: usize,
    /// Encoded bytes of the skipped v2 column blocks (v1 skips are not
    /// byte-accounted).
    pub col_bytes_skipped: usize,
}

impl LayerRead<RowBlock> {
    /// Copy every block's rows out as tuples: the adapter behind
    /// [`ProvStore::layer_read`].
    pub(crate) fn into_tuples(self) -> LayerRead {
        LayerRead {
            tuples: self
                .tuples
                .into_iter()
                .map(|(pred, rows)| (pred, rows.to_tuples()))
                .collect(),
            segments_read: self.segments_read,
            segments_skipped: self.segments_skipped,
            bytes_read: self.bytes_read,
            bytes_skipped: self.bytes_skipped,
            cols_skipped: self.cols_skipped,
            col_bytes_skipped: self.col_bytes_skipped,
        }
    }
}

/// What a layer read should materialize: a predicate allow-set plus
/// optional per-predicate column keep-masks.
///
/// Segments whose predicate the filter rejects are skipped whole —
/// no decode and (for spilled parts) no disk read. Within a decoded
/// segment, a column keep-mask drops individual columns: masked-out
/// positions decode as [`Value::Unit`](ariadne_pql::Value::Unit) (arity
/// and row order preserved) and, for v2 records, the encoded column
/// block is skipped without materializing a single value — a query that
/// never touches message payloads never pays for them.
#[derive(Clone, Debug, Default)]
pub struct LayerFilter {
    /// `None` = all predicates.
    preds: Option<BTreeSet<String>>,
    /// Keep-masks per predicate; absent = keep every column.
    masks: BTreeMap<String, Vec<bool>>,
}

impl LayerFilter {
    /// Keep everything (the unfiltered read).
    pub fn all() -> Self {
        LayerFilter::default()
    }

    /// Keep only the given predicates (all their columns).
    pub fn for_preds(preds: BTreeSet<String>) -> Self {
        LayerFilter {
            preds: Some(preds),
            masks: BTreeMap::new(),
        }
    }

    /// Attach a column keep-mask for `pred` (builder style). Positions
    /// past the end of the mask are kept; position 0 (the location
    /// specifier) should stay `true` for any caller that routes on it.
    pub fn with_mask(mut self, pred: &str, mask: Vec<bool>) -> Self {
        self.masks.insert(pred.to_string(), mask);
        self
    }

    /// Whether `pred`'s segments should be decoded at all.
    pub fn wants(&self, pred: &str) -> bool {
        self.preds.as_ref().is_none_or(|p| p.contains(pred))
    }

    /// The column keep-mask for `pred`, if any.
    pub fn mask(&self, pred: &str) -> Option<&[bool]> {
        self.masks.get(pred).map(Vec::as_slice)
    }
}

/// One end of a `(superstep, predicate)` segment-key range.
type SegmentKeyBound = std::ops::Bound<(u32, String)>;

/// The key range covering every segment of `superstep`. Uses an explicit
/// upper bound so `superstep == u32::MAX` does not overflow (the old
/// `(superstep + 1, "")` end bound panicked there).
pub(crate) fn layer_bounds(superstep: u32) -> (SegmentKeyBound, SegmentKeyBound) {
    use std::ops::Bound;
    let lo = Bound::Included((superstep, String::new()));
    let hi = match superstep.checked_add(1) {
        Some(next) => Bound::Excluded((next, String::new())),
        None => Bound::Unbounded,
    };
    (lo, hi)
}

impl ProvStore {
    /// Create a store. Never touches the filesystem — the spool
    /// directory is created on the first spill.
    pub fn new(config: StoreConfig) -> Self {
        ProvStore {
            config,
            ..Default::default()
        }
    }

    /// Note that physical layer `superstep` holds (or held) data.
    pub(crate) fn raise_max_step(&mut self, superstep: u32) {
        self.max_step = Some(self.max_step.map_or(superstep, |m| m.max(superstep)));
    }

    /// Ingest a batch of tuples for (superstep, pred): [`ProvStore::ingest_block`]
    /// for callers that hold [`Tuple`]s.
    pub fn ingest(
        &mut self,
        superstep: u32,
        pred: &str,
        tuples: Vec<Tuple>,
    ) -> Result<(), StoreError> {
        self.ingest_block(superstep, pred, RowBlock::from_tuples(tuples))
    }

    /// Ingest a block of rows for (superstep, pred), framed at once as
    /// records appended to the segment: one ingest is one write, and
    /// what it writes is a function of the rows alone. A capture ingests
    /// each (superstep, pred) once, every row in vertex order, so at
    /// every thread count it writes the bytes one thread writes. A
    /// [ragged](RowBlock::is_ragged) block (mixed arities, or rows
    /// without columns — no capture produces either) has no columnar
    /// form and is one row-major record. Re-ingesting into a sealed
    /// (recovered) segment is an idempotent no-op. Spill IO failures
    /// surface as typed errors naming the path.
    pub fn ingest_block(
        &mut self,
        superstep: u32,
        pred: &str,
        block: RowBlock,
    ) -> Result<(), StoreError> {
        let rows = block.len();
        if rows == 0 {
            return Ok(());
        }
        if let Some(fault) = &self.config.fault {
            if let Some(stall) = fault.take_ingest_stall() {
                note_fault(
                    "injected_ingest_stall",
                    &[("millis", (stall.as_millis() as u64).into())],
                );
                std::thread::sleep(stall);
            }
        }
        self.raise_max_step(superstep);
        let seg = self
            .segments
            .entry((superstep, pred.to_string()))
            .or_default();
        if seg.sealed {
            // This layer was fully persisted before the crash we are
            // recovering from; the replay's re-ingest is dropped.
            return Ok(());
        }
        self.tuples += rows;
        obs_handles::ingest_batches().inc();
        obs_handles::ingest_tuples().add(rows as u64);
        let added = seg.frame(&block, superstep, pred);
        self.mem_bytes += added;
        obs_handles::ingest_bytes().add(added as u64);
        self.spill_down_to(self.config.memory_budget)
    }

    /// Does nothing: every ingest is framed at once, so no row ever
    /// waits for a pack. Kept so callers that pack before reading byte
    /// accounting keep compiling.
    pub fn pack_all(&mut self) {}

    /// Spill the largest in-memory segments until at most `budget` bytes
    /// stay in memory: at 0, every row is in the spool (a store without
    /// one keeps them). The spool only ever holds whole checksummed
    /// records.
    pub(crate) fn spill_down_to(&mut self, budget: usize) -> Result<(), StoreError> {
        if self.mem_bytes <= budget {
            return Ok(());
        }
        let Some(dir) = self.config.spool_dir.clone() else {
            return Ok(());
        };
        while self.mem_bytes > budget {
            let key = match self
                .segments
                .iter()
                .filter(|(_, s)| !s.mem.is_empty())
                .max_by_key(|(_, s)| s.mem.len())
            {
                Some((k, _)) => k.clone(),
                None => return Ok(()),
            };
            if !self.spool_created {
                // Lazy spool-dir creation: only a store that actually
                // spills needs the directory to exist. Under durable
                // levels the new directory entry is synced too.
                std::fs::create_dir_all(&dir).map_err(io_err(&dir))?;
                if self.config.durability != Durability::None {
                    if let Some(parent) = dir.parent() {
                        let _ = timed_sync_dir(parent);
                    }
                }
                self.spool_created = true;
            }
            self.spill_segment(&dir, &key)?;
        }
        Ok(())
    }

    /// Spill one segment's in-memory records to the spool, honouring the
    /// configured [`Durability`] level and any scripted faults. On
    /// failure the in-memory records are restored, so the store's
    /// accounting still matches what it holds.
    fn spill_segment(&mut self, dir: &Path, key: &(u32, String)) -> Result<(), StoreError> {
        // Scripted faults. `take_spill_failure` owns the attempt
        // counter; the other hooks key off the same ordinal.
        let mut attempt = 0u64;
        if let Some(fault) = &self.config.fault {
            let failed = fault.take_spill_failure();
            attempt = fault.spill_attempts() - 1;
            if failed {
                note_fault("injected_spill_failure", &[("attempt", attempt.into())]);
                return Err(StoreError::InjectedSpillFailure { attempt });
            }
        }
        let seg = self.segments.get_mut(key).expect("segment exists");
        let mem = std::mem::take(&mut seg.mem);
        let mem_tuples = std::mem::replace(&mut seg.mem_tuples, 0);
        let spilling = mem.len();

        match self.spill_io(dir, key, &mem, mem_tuples, attempt) {
            Ok(files) => {
                let seg = self.segments.get_mut(key).expect("segment exists");
                seg.disk.files = files;
                // Either durability level grows the spool by exactly the
                // in-memory bytes just written (a seal rewrite re-lands
                // bytes already counted as disk bytes).
                self.disk_bytes += spilling;
                self.mem_bytes -= spilling;
                obs_handles::spills().inc();
                obs_handles::spilled_bytes().add(spilling as u64);
                trace::event(
                    Level::Debug,
                    "store",
                    "spill",
                    &[
                        ("superstep", key.0.into()),
                        ("pred", key.1.as_str().into()),
                        ("bytes", spilling.into()),
                        ("tuples", mem_tuples.into()),
                    ],
                );
                self.spills += 1;
                Ok(())
            }
            Err(e) => {
                // Restore the unwritten records so the segment still
                // reads back from memory.
                let seg = self.segments.get_mut(key).expect("segment exists");
                seg.mem = mem;
                seg.mem_tuples = mem_tuples;
                Err(e)
            }
        }
    }

    /// All tuples of one provenance layer (= superstep), per predicate,
    /// decoding from memory and any spilled parts. Corruption or IO
    /// failure on a spilled part is a typed error naming the file.
    pub fn layer(&self, superstep: u32) -> Result<Vec<(String, Vec<Tuple>)>, StoreError> {
        Ok(self.layer_filtered(superstep, None)?.tuples)
    }

    /// Like [`ProvStore::layer`], but decoding only the predicates in
    /// `filter` (when given). Segments whose predicate the filter
    /// rejects are skipped without a decode — and, for spilled parts,
    /// without a disk read at all; the returned [`LayerRead`] accounts
    /// for both sides so the pruning win is observable. (Back-compat
    /// wrapper over [`ProvStore::layer_read`].)
    pub fn layer_filtered(
        &self,
        superstep: u32,
        filter: Option<&BTreeSet<String>>,
    ) -> Result<LayerRead, StoreError> {
        let filter = filter.map_or_else(LayerFilter::all, |preds| {
            LayerFilter::for_preds(preds.clone())
        });
        self.layer_read(superstep, &filter)
    }

    /// One provenance layer through a [`LayerFilter`]: predicate-level
    /// segment pruning plus column-selective decode. Masked-out columns
    /// decode as [`Value::Unit`](ariadne_pql::Value::Unit) without
    /// materializing the stored values; for v2 records the whole encoded
    /// column block is skipped.
    /// The rows are those of [`ProvStore::layer_blocks`], copied out as
    /// tuples.
    pub fn layer_read(
        &self,
        superstep: u32,
        filter: &LayerFilter,
    ) -> Result<LayerRead, StoreError> {
        Ok(self.layer_blocks(superstep, filter)?.into_tuples())
    }

    /// One layer through a [`LayerFilter`], each predicate's rows in the
    /// [`RowBlock`] they were decoded into: the logical layer the
    /// newest-first fold gives (see [`crate::epoch`]). Any damage — a
    /// corrupt record or a quarantined segment the read wants — is a
    /// typed error; [`scrub_spool`] and [`ProvStore::resume_from_spool`]
    /// are the repair path.
    pub fn layer_blocks(
        &self,
        superstep: u32,
        filter: &LayerFilter,
    ) -> Result<LayerRead<RowBlock>, StoreError> {
        let mut tuples = Vec::new();
        let mut read =
            self.fold_layer(superstep, filter, &mut RowBlock::default(), |pred, rows| {
                tuples.push((pred.to_string(), std::mem::take(rows)));
                Ok(())
            })?;
        read.tuples = tuples;
        Ok(read)
    }

    /// The largest **logical** superstep, if any: the newest epoch's
    /// last superstep (older epochs' layers remain stored but are
    /// history, not current state). The implicit epoch of a store with
    /// no epoch table ends at its largest captured physical layer,
    /// maintained O(1) on ingest and spool resume.
    pub fn max_superstep(&self) -> Option<u32> {
        (self.epochs.last()).map_or(self.max_step, |info| info.supersteps.checked_sub(1))
    }

    /// The store's mutation epoch: 0 for a plain capture, +1 per
    /// [`ProvStore::append_epoch`]. Serve-layer caches and cursors key
    /// on this to detect stale reads across mutations.
    pub fn mutation_epoch(&self) -> u64 {
        self.epochs.len().saturating_sub(1) as u64
    }

    /// The epoch table (empty for a store that never absorbed a
    /// mutation). Entry 0 is the original capture; each later entry one
    /// appended delta epoch.
    pub fn epoch_table(&self) -> &[EpochInfo] {
        &self.epochs
    }

    /// Whether any segment, at any layer and in any epoch, quarantined
    /// or not, is stored under `pred` or one of its epoch diff spellings.
    /// Reads only the index.
    pub fn holds(&self, pred: &str) -> bool {
        (self.segments.keys().chain(self.quarantined.keys())).any(|(_, p)| op_of(p).0 == pred)
    }

    /// The per-(superstep, predicate) segment index: tuple and byte
    /// counts per segment, in (superstep, predicate) order, without
    /// decoding anything.
    pub fn segment_index(&self) -> impl Iterator<Item = SegmentInfo> + '_ {
        self.segments.iter().map(|((step, pred), seg)| SegmentInfo {
            superstep: *step,
            pred: pred.clone(),
            tuples: seg.total_tuples(),
            bytes: seg.total_bytes(),
            spilled: !seg.disk.files.is_empty(),
            sealed: seg.sealed,
            columns: seg.cols.clone(),
        })
    }

    /// Load everything into one database (centralized evaluation): each
    /// logical layer the index holds, folded newest-first (see
    /// [`crate::epoch`]) into one reused block whose rows go into their
    /// relation as slices. A quarantined segment is a typed error
    /// (partial evaluation over a full-database load would be silently
    /// wrong), and so is a predicate whose rows differ in arity — only a
    /// ragged [`ProvStore::ingest`] stores such rows, and no relation
    /// holds them.
    pub fn to_database(&self) -> Result<Database, StoreError> {
        if let Some(path) = self.quarantined.values().next() {
            return Err(StoreError::Quarantined { path: path.clone() });
        }
        let mut db = Database::new();
        let (all, mut rows) = (LayerFilter::all(), RowBlock::default());
        for superstep in self.logical_layers() {
            self.fold_layer(superstep, &all, &mut rows, |pred, rows| {
                let Some(first) = rows.rows().next() else {
                    return Ok(());
                };
                let rel = db.relation_mut(pred, first.len());
                for row in rows.rows() {
                    if row.len() != rel.arity() {
                        return Err(StoreError::mixed_arity(pred, rel.arity(), row.len()));
                    }
                    rel.insert_slice(row);
                }
                Ok(())
            })?;
        }
        Ok(db)
    }

    /// Total stored (encoded) bytes, memory + disk — the quantity in
    /// Tables 3 and 4.
    pub fn byte_size(&self) -> usize {
        self.mem_bytes + self.disk_bytes
    }

    /// Bytes currently spilled to disk.
    pub fn disk_bytes(&self) -> usize {
        self.disk_bytes
    }

    /// Number of spill operations performed.
    pub fn spills(&self) -> usize {
        self.spills
    }

    /// Total tuples captured.
    pub fn tuple_count(&self) -> usize {
        self.tuples
    }

    /// Number of sealed (recovered, idempotent-on-re-ingest) segments.
    pub fn sealed_segments(&self) -> usize {
        self.segments.values().filter(|s| s.sealed).count()
    }

    /// Records recovered from a torn unsealed tail during
    /// [`ProvStore::resume_from_spool`] (the valid prefix kept after the
    /// truncated frame was cut off).
    pub fn salvaged_records(&self) -> usize {
        self.salvaged
    }

    /// Segments currently sitting in the spool's `quarantine/`
    /// subdirectory (moved there by a repairing scrub).
    pub fn quarantined_segments(&self) -> usize {
        self.quarantined.len()
    }

    /// The current compaction generation (0 = never compacted).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Compaction passes performed by this incarnation.
    pub fn compactions(&self) -> usize {
        self.compactions
    }

    /// Does nothing: every read seeks and reads, whatever
    /// [`ReadBackend`] is named. Kept so callers that name a backend
    /// keep compiling.
    pub fn set_read_backend(&mut self, _backend: ReadBackend) {}
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::columnar::v1_batch_size;
    use crate::frame::RECORD_OVERHEAD;
    use ariadne_pql::Value;

    pub(crate) fn tuple(v: u64, i: i64) -> Tuple {
        vec![Value::Id(v), Value::Int(i)]
    }

    pub(crate) fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ariadne-{tag}-{}", std::process::id()))
    }

    /// A store holding each of `batches` as a plain row-major (v1)
    /// record of its own: what the retired v1 writer stored, framed by
    /// hand, so tests can read v1 records beside the writer's.
    fn v1_store(batches: Vec<(u32, &str, Vec<Tuple>)>) -> ProvStore {
        let mut store = ProvStore::new(StoreConfig::in_memory());
        for (superstep, pred, rows) in batches {
            let payload = encode_tuples(&rows);
            let mut record = b"ARSG".to_vec();
            record.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            record.extend_from_slice(&ariadne_vc::checkpoint::crc32(&payload).to_le_bytes());
            record.extend_from_slice(&payload);
            record.extend_from_slice(b"GSRA");
            store.raise_max_step(superstep);
            store.tuples += rows.len();
            store.mem_bytes += record.len();
            let seg = store.segments.entry((superstep, pred.into())).or_default();
            seg.mem.extend_from_slice(&record);
            seg.mem_tuples += rows.len();
        }
        store
    }

    /// A store of `batches` ingested as they come.
    fn ingested(batches: Vec<(u32, &str, Vec<Tuple>)>) -> ProvStore {
        let mut store = ProvStore::new(StoreConfig::in_memory());
        for (superstep, pred, rows) in batches {
            store.ingest(superstep, pred, rows).unwrap();
        }
        store
    }

    #[test]
    fn ingest_and_layer_roundtrip() {
        let mut store = ProvStore::new(StoreConfig::in_memory());
        store
            .ingest(0, "superstep", vec![tuple(1, 0), tuple(2, 0)])
            .unwrap();
        store.ingest(1, "superstep", vec![tuple(1, 1)]).unwrap();
        assert_eq!(store.tuple_count(), 3);
        assert_eq!(store.max_superstep(), Some(1));
        let l0 = store.layer(0).unwrap();
        assert_eq!(l0.len(), 1);
        assert_eq!(l0[0].1.len(), 2);
        assert_eq!(store.layer(1).unwrap()[0].1, vec![tuple(1, 1)]);
        assert!(store.layer(9).unwrap().is_empty());
    }

    #[test]
    fn multiple_batches_per_segment() {
        let mut store = ProvStore::new(StoreConfig::in_memory());
        for k in 0..5 {
            store.ingest(0, "value", vec![tuple(k, 0)]).unwrap();
        }
        let layer = store.layer(0).unwrap();
        assert_eq!(layer[0].1.len(), 5);
        assert_eq!(layer[0].1[4], tuple(4, 0));
    }

    #[test]
    fn spilling_keeps_data_readable() {
        let dir = temp_dir("spill");
        std::fs::remove_dir_all(&dir).ok();
        let mut store = ProvStore::new(StoreConfig::spilling(64, dir.clone()));
        for s in 0..4u32 {
            store
                .ingest(s, "value", (0..20).map(|v| tuple(v, s as i64)).collect())
                .unwrap();
        }
        assert!(store.spills() > 0, "nothing spilled");
        assert!(store.disk_bytes() > 0);
        // All layers still fully readable.
        for s in 0..4u32 {
            let layer = store.layer(s).unwrap();
            assert_eq!(layer[0].1.len(), 20, "layer {s}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spilled_segment_accepts_more_data() {
        let dir = temp_dir("spill2");
        std::fs::remove_dir_all(&dir).ok();
        let mut store = ProvStore::new(StoreConfig::spilling(32, dir.clone()));
        store
            .ingest(0, "value", (0..20).map(|v| tuple(v, 0)).collect())
            .unwrap();
        assert!(store.spills() > 0);
        // Same segment gets more tuples after spilling.
        store.ingest(0, "value", vec![tuple(99, 0)]).unwrap();
        let layer = store.layer(0).unwrap();
        assert_eq!(layer[0].1.len(), 21);
        assert!(layer[0].1.contains(&tuple(99, 0)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn to_database_loads_everything() {
        let mut store = ProvStore::new(StoreConfig::in_memory());
        store.ingest(0, "superstep", vec![tuple(1, 0)]).unwrap();
        store
            .ingest(
                2,
                "value",
                vec![vec![Value::Id(1), Value::Float(0.5), Value::Int(2)]],
            )
            .unwrap();
        let db = store.to_database().unwrap();
        assert_eq!(db.len("superstep"), 1);
        assert_eq!(db.len("value"), 1);
    }

    /// Regression: the old `layer` range end `(superstep + 1, "")`
    /// overflowed (panicked in debug, wrapped to an empty range in
    /// release) at `superstep == u32::MAX`. The explicit bound keeps the
    /// final layer readable.
    #[test]
    fn layer_at_u32_max_boundary() {
        let mut store = ProvStore::new(StoreConfig::in_memory());
        store
            .ingest(u32::MAX - 1, "value", vec![tuple(1, -2)])
            .unwrap();
        store.ingest(u32::MAX, "value", vec![tuple(2, -1)]).unwrap();
        store
            .ingest(u32::MAX, "superstep", vec![tuple(2, -1)])
            .unwrap();
        assert_eq!(store.max_superstep(), Some(u32::MAX));
        let last = store.layer(u32::MAX).unwrap();
        assert_eq!(last.len(), 2, "both final-layer segments visible");
        assert_eq!(last[1].1, vec![tuple(2, -1)]);
        // The penultimate layer's range must not leak into the last one.
        let prev = store.layer(u32::MAX - 1).unwrap();
        assert_eq!(prev.len(), 1);
        assert_eq!(prev[0].1, vec![tuple(1, -2)]);
        // Whole-store load also covers the boundary layer (no 0..=max
        // scan that would spin for 4 billion iterations).
        let db = store.to_database().unwrap();
        assert_eq!(db.len("value"), 2);
        assert_eq!(db.len("superstep"), 1);
    }

    #[test]
    fn layer_filtered_skips_segments_without_decoding() {
        let dir = temp_dir("layer-filter");
        std::fs::remove_dir_all(&dir).ok();
        // Budget 0: every batch spills, so a skipped segment is a
        // skipped *disk read*, not just a skipped decode.
        let mut store = ProvStore::new(StoreConfig::spilling(0, dir.clone()));
        store
            .ingest(0, "value", (0..8).map(|v| tuple(v, 0)).collect())
            .unwrap();
        store
            .ingest(0, "send_message", (0..8).map(|v| tuple(v, 0)).collect())
            .unwrap();
        store.ingest(0, "superstep", vec![tuple(1, 0)]).unwrap();

        let wanted: std::collections::BTreeSet<String> = ["value", "superstep"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let read = store.layer_filtered(0, Some(&wanted)).unwrap();
        assert_eq!(read.segments_read, 2);
        assert_eq!(read.segments_skipped, 1);
        assert!(read.bytes_read > 0 && read.bytes_skipped > 0);
        let preds: Vec<&str> = read.tuples.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(preds, ["superstep", "value"], "predicate order");
        // Unfiltered read sees everything and skips nothing.
        let full = store.layer_filtered(0, None).unwrap();
        assert_eq!(full.segments_read, 3);
        assert_eq!(full.segments_skipped, 0);
        assert_eq!(
            full.bytes_read,
            read.bytes_read + read.bytes_skipped,
            "skip accounting partitions the layer's bytes"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segment_index_reports_counts_without_decoding() {
        let dir = temp_dir("seg-index");
        std::fs::remove_dir_all(&dir).ok();
        let mut store = ProvStore::new(StoreConfig::spilling(0, dir.clone()));
        store
            .ingest(0, "value", (0..5).map(|v| tuple(v, 0)).collect())
            .unwrap();
        store.ingest(1, "value", vec![tuple(9, 1)]).unwrap();
        let index: Vec<SegmentInfo> = store.segment_index().collect();
        assert_eq!(index.len(), 2);
        assert_eq!((index[0].superstep, index[0].tuples), (0, 5));
        assert_eq!((index[1].superstep, index[1].tuples), (1, 1));
        assert!(index.iter().all(|s| s.spilled && !s.sealed));
        assert_eq!(
            index.iter().map(|s| s.bytes).sum::<usize>(),
            store.byte_size(),
            "index bytes reconcile with store accounting"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The store's columnar records and v1 records of the same batches
    /// hold bit-identical logical content; the columnar encoded size is
    /// well below the row-major one on a redundant workload.
    #[test]
    fn v2_roundtrip_matches_v1_and_shrinks() {
        let mut batches = Vec::new();
        for s in 0..4u32 {
            for chunk in 0..8u64 {
                let value = (chunk * 64..(chunk + 1) * 64)
                    .map(|x| {
                        vec![
                            Value::Id(x),
                            Value::Float(1.0 / (x + 1) as f64),
                            Value::Int(s as i64),
                        ]
                    })
                    .collect();
                batches.push((s, "value", value));
                let superstep = (0..16).map(|x| tuple(x, s as i64)).collect();
                batches.push((s, "superstep", superstep));
            }
        }
        let v1 = v1_store(batches.clone());
        let v2 = ingested(batches);
        assert_eq!(v1.tuple_count(), v2.tuple_count());
        for s in 0..4u32 {
            assert_eq!(v1.layer(s).unwrap(), v2.layer(s).unwrap(), "layer {s}");
        }
        assert!(
            (v2.byte_size() as f64) < 0.7 * v1.byte_size() as f64,
            "v2 {} not ≥30% below v1 {}",
            v2.byte_size(),
            v1.byte_size()
        );
        // Column stats reconcile: encoded ≤ segment bytes, decoded > 0.
        let with_cols = v2.segment_index().filter(|s| !s.columns.is_empty()).count();
        assert!(with_cols > 0, "packed segments expose column stats");
        for info in v2.segment_index() {
            for col in &info.columns {
                assert!(col.decoded_bytes >= col.encoded_bytes / 2, "sane ratio");
            }
        }
    }

    /// A compressible workload spills as LZ (`ARSZ`) records smaller
    /// than the plain columnar (v2) frames of the same rows, holds the
    /// rows ingested, and round-trips through spill + resume.
    #[test]
    fn v3_roundtrip_matches_v2_and_compresses() {
        let dir = temp_dir("v3-compress");
        std::fs::remove_dir_all(&dir).ok();
        let mut store = ProvStore::new(StoreConfig::spilling(0, dir.clone()));
        let mut layers = Vec::new();
        for s in 0..3u32 {
            // Runs of repeated payloads: textbook LZ fodder.
            let rows: Vec<Tuple> = (0..256u64)
                .map(|x| vec![Value::Id(x / 16), Value::Int((s as i64) % 2)])
                .collect();
            store.ingest(s, "value", rows.clone()).unwrap();
            layers.push(rows);
        }
        let columnar = |rows: &Vec<Tuple>| crate::columnar::encode_columnar(rows).unwrap();
        let plain: usize = (layers.iter())
            .map(|rows| RECORD_OVERHEAD + columnar(rows).payload.len())
            .sum();
        assert!(
            store.disk_bytes() < plain,
            "v3 {} not below plain v2 {plain} on a compressible workload",
            store.disk_bytes()
        );
        for s in 0..3u32 {
            let bytes = std::fs::read(crate::spool::segment_path(&dir, s, "value")).unwrap();
            assert_eq!(bytes[..4], *b"ARSZ", "layer {s}");
            let rows = &layers[s as usize];
            assert_eq!(store.layer(s).unwrap()[0].1, *rows, "layer {s}");
        }
        drop(store);
        // ARSZ frames survive a resume and read back identically.
        let resumed = ProvStore::resume_from_spool(StoreConfig::spilling(0, dir.clone())).unwrap();
        assert_eq!(resumed.tuple_count(), 3 * 256);
        for s in 0..3u32 {
            let rows = &layers[s as usize];
            assert_eq!(resumed.layer(s).unwrap()[0].1, *rows, "layer {s}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Column-masked reads skip v2 column blocks without materializing
    /// them, and the same mask yields identical tuples on v1 records.
    #[test]
    fn masked_reads_skip_columns_identically_across_formats() {
        let rows: Vec<Tuple> = (0..600)
            .map(|x| {
                vec![
                    Value::Id(x),
                    Value::Id(x + 1),
                    Value::str("heavy-payload-string"),
                    Value::Int(3),
                ]
            })
            .collect();
        let v1 = v1_store(vec![(3, "send_message", rows.clone())]);
        let v2 = ingested(vec![(3, "send_message", rows)]);
        let filter = LayerFilter::all().with_mask("send_message", vec![true, true, false, true]);
        let r1 = v1.layer_read(3, &filter).unwrap();
        let r2 = v2.layer_read(3, &filter).unwrap();
        assert_eq!(r1.tuples, r2.tuples, "masked decode identical v1 vs v2");
        assert!(r1.tuples[0].1.iter().all(|t| t[2] == Value::Unit));
        // Both formats count the masked column; only v2 skips whole
        // encoded blocks and so byte-accounts the savings.
        assert!(r1.cols_skipped >= 1);
        assert_eq!(r1.col_bytes_skipped, 0);
        assert!(r2.cols_skipped >= 1);
        assert!(r2.col_bytes_skipped > 0);
        // The unmasked reads agree too.
        assert_eq!(v1.layer(3).unwrap(), v2.layer(3).unwrap());
    }

    /// Spill decisions read encoded bytes: a segment whose rows are
    /// large row-major but encode small stays in memory, and the larger
    /// encoded segment beside it spills.
    #[test]
    fn spill_evicts_the_largest_packed_segment() {
        let dir = temp_dir("spill-packed");
        std::fs::remove_dir_all(&dir).ok();
        let mut store = ProvStore::new(StoreConfig::spilling(usize::MAX, dir.clone()));
        // Raw float mantissas: packs to about its row-major size.
        let wide = (0..300u64)
            .map(|x| vec![Value::Id(x), Value::Float((x as f64).sqrt())])
            .collect();
        store.ingest(0, "value", wide).unwrap();
        let packed = store.byte_size();
        // One repeated row: far above `value` row-major, encoded to a
        // few bytes.
        let repeated = vec![tuple(7, 0); 400];
        let estimate = RECORD_OVERHEAD + v1_batch_size(&RowBlock::from_tuples(repeated.clone()));
        assert!(
            estimate > 2 * packed,
            "estimate {estimate}, packed {packed}"
        );
        // `value` alone fits the budget; with `superstep` packed beside
        // it, it does not.
        store.config.memory_budget = packed;
        store.ingest(0, "superstep", repeated).unwrap();
        let spilled: Vec<(String, bool)> = (store.segment_index())
            .map(|s| (s.pred, s.spilled))
            .collect();
        let want = [
            ("superstep".to_string(), false),
            ("value".to_string(), true),
        ];
        assert_eq!(spilled, want);
        assert_eq!(store.spills(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn byte_accounting_reports_encoded_size() {
        let mut store = ProvStore::new(StoreConfig::in_memory());
        let before = store.byte_size();
        store
            .ingest(
                0,
                "value",
                vec![vec![Value::Id(1), Value::str("payload"), Value::Int(0)]],
            )
            .unwrap();
        let after = store.byte_size();
        assert!(after > before);
        // Encoded size is compact: id (9) + str (5 + 7) + int (9) +
        // framing, well under 100 bytes.
        assert!(after - before < 100, "{}", after - before);
        store.ingest(0, "value", vec![]).unwrap(); // empty batch is a no-op
        assert_eq!(store.tuple_count(), 1);
    }

    /// `ingest` is `ingest_block` behind a flattening adapter: the same
    /// rows in the same batches give the same segment bytes, record for
    /// record.
    #[test]
    fn ingest_and_ingest_block_write_identical_segments() {
        let batch = |s: u32, k: u64| -> Vec<Tuple> {
            (k * 200..(k + 1) * 200)
                .map(|x| {
                    vec![
                        Value::Id(x % 97),
                        Value::Float(x as f64 / 7.0),
                        Value::Int(s as i64),
                    ]
                })
                .collect()
        };
        let mut by_tuples = ProvStore::new(StoreConfig::in_memory());
        let mut by_blocks = ProvStore::new(StoreConfig::in_memory());
        for s in 0..3u32 {
            for k in 0..4u64 {
                by_tuples.ingest(s, "value", batch(s, k)).unwrap();
                let block = RowBlock::from_tuples(batch(s, k));
                by_blocks.ingest_block(s, "value", block).unwrap();
            }
            by_tuples
                .ingest(s, "superstep", vec![tuple(1, s as i64)])
                .unwrap();
            let mut block = RowBlock::default();
            block.push(&tuple(1, s as i64));
            by_blocks.ingest_block(s, "superstep", block).unwrap();
        }
        assert_eq!(by_tuples.byte_size(), by_blocks.byte_size());
        assert_eq!(by_tuples.tuple_count(), by_blocks.tuple_count());
        let records = |store: &ProvStore| -> Vec<((u32, String), Vec<u8>)> {
            let segs = store.segments.iter();
            segs.map(|(key, seg)| (key.clone(), seg.mem.clone()))
                .collect()
        };
        assert_eq!(records(&by_tuples), records(&by_blocks));
    }

    /// A batch with no flat form is a row-major record, and reads back
    /// in ingest order.
    #[test]
    fn ragged_batch_is_framed_at_once() {
        let mut store = ProvStore::new(StoreConfig::in_memory());
        store
            .ingest(0, "value", vec![tuple(1, 0), tuple(2, 0)])
            .unwrap();
        let ragged = vec![tuple(3, 0), vec![Value::Id(4)], vec![]];
        store.ingest(0, "value", ragged.clone()).unwrap();
        store.ingest(0, "value", vec![tuple(5, 0)]).unwrap();
        let mut want = vec![tuple(1, 0), tuple(2, 0)];
        want.extend(ragged);
        want.push(tuple(5, 0));
        assert_eq!(store.layer(0).unwrap()[0].1, want);
        assert_eq!(store.tuple_count(), 6);
    }
}
