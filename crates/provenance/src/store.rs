//! The captured-provenance store.
//!
//! Captured tuples are grouped into **segments** keyed by (superstep,
//! predicate). Segments are held *serialized* (the [`crate::codec`]
//! binary format wrapped in checksummed records): ingestion pays the
//! serialization cost a real provenance store pays on its write path,
//! accounting reports the true stored size (Tables 3–4), and spilling a
//! segment to disk is a plain byte copy. When the in-memory encoded size
//! exceeds the budget, the largest segments spill to files in a spool
//! directory — the stand-in for the paper's asynchronous HDFS offload
//! ("When the provenance graph exceeds the size of available RAM, Ariadne
//! offloads it asynchronously", §6.1).
//!
//! # Segment formats
//!
//! Three payload formats share the checksummed record framing,
//! dispatched by the record's **version byte** (the fourth magic byte):
//!
//! * **v1** (`"ARSG"` / `"GSRA"`): the row-major tagged encoding of
//!   [`crate::codec`] — one record per ingest batch.
//! * **v2** (`"ARS2"` / `"2SRA"`): the columnar encoding of
//!   [`crate::columnar`] — ingest batches accumulate in a per-segment
//!   *pending* buffer and are **packed** into one columnar record once
//!   [`PACK_THRESHOLD`] tuples arrive (or at spill/finish time), with a
//!   per-column [`Encoding`](crate::columnar::Encoding) chosen by a
//!   stats pass at pack time.
//! * **v3** (`"ARSZ"` / `"ZSRA"`): an LZ-compressed block (see
//!   [`crate::v3`]) stacked *under* the v2 per-column encodings — the
//!   payload is an inner version tag, the raw length, and the
//!   compressed inner payload. Writers emit the compressed frame only
//!   when it is strictly smaller than the plain one, so a v3 store
//!   degrades to v2 frames on incompressible data.
//!
//! [`StoreConfig::format`] selects the write format ([`SegmentFormat::V2`]
//! by default); **readers always accept every format**, record by
//! record, so a spool written by an older incarnation reopens under a
//! newer store and its segments decode unchanged — and a resumed
//! capture appends newer records after the sealed older ones in the
//! same logical segment.
//!
//! # Compaction and the v3 spool layout
//!
//! [`ProvStore::compact`] (and the offline [`compact_spool`] behind
//! `ariadne-cli compact`) merges every segment's spilled files and
//! in-memory records into **generation files** (`gen-{G}-{seq}.ars3`):
//! all of a (superstep, predicate) key's tuples re-encoded into few
//! large v3 records, laid out as one contiguous *extent* per key, with
//! a CRC-protected indexed footer (see [`crate::v3`]) mapping keys to
//! extents. A spool-level manifest (`index.ars`) names the live
//! generation files and the legacy files they superseded. The write
//! protocol is crash-recoverable at every step: generation file and
//! manifest both land via temp-file + fsync + atomic rename, and
//! superseded files are deleted only after the manifest rename — a
//! resume finds either the old generation (manifest not yet swapped;
//! orphaned `gen-*` files are removed) or the new one (manifest swapped;
//! interrupted deletions are completed). Layer reads of compacted keys
//! seek directly to the extent instead of scanning whole files, through
//! a pluggable [`ReadBackend`] (buffered by default, zero-copy mmap
//! opt-in).
//!
//! # Durability and recovery
//!
//! Every batch is framed as a **checksummed record** — a magic header,
//! the payload length, a CRC32 of the payload, and a footer magic:
//!
//! ```text
//! +--------+---------+----------------+---------+--------+
//! | "ARSG" | len u64 | CRC32(payload) | payload | "GSRA" |   v1 (row-major)
//! | "ARS2" | len u64 | CRC32(payload) | payload | "2SRA" |   v2 (columnar)
//! +--------+---------+----------------+---------+--------+
//! ```
//!
//! Corrupted records surface as typed [`StoreError::Corrupt`] values
//! naming the file — never a panic. The spool directory is created
//! lazily on the first spill, and spill IO failures carry the offending
//! path.
//!
//! The on-disk spool distinguishes two segment states. `seg-*.bin`
//! files are **unsealed append tails**: a crash can tear their final
//! record, so [`ProvStore::resume_from_spool`] *salvages* a torn tail —
//! the original bytes are backed up to a `.torn` sidecar, the file is
//! truncated back to the last record boundary, and the retained records
//! are counted as `store_salvaged_records`. `seg-*.seal` files are
//! **sealed segments** written only via temp-file + atomic rename under
//! [`Durability::Seal`]; they are either complete or absent, so any
//! damage inside one is real corruption and validation stays strict.
//! [`StoreConfig::durability`] selects how hard spills push bytes to
//! stable storage (no fsync, fsync-per-spill, or atomic sealed
//! rewrites); see [`Durability`] for the exact contract per level.
//!
//! [`ProvStore::scrub`] (and the standalone [`scrub_spool`] used by the
//! `ariadne scrub` CLI subcommand) re-verifies every record of every
//! segment and reports damage as a structured [`ScrubReport`]; with
//! `repair` enabled, torn tails are truncated and irrecoverable files
//! move into a `quarantine/` subdirectory. Layer reads take a
//! [`ReadPolicy`]: [`ReadPolicy::Strict`] fails on any damage (the
//! default), [`ReadPolicy::Degraded`] skips damaged records/segments
//! and reports exactly what was lost via [`Degradation`] — partial
//! results are always labelled, never silently wrong.
//!
//! After a crash, [`ProvStore::resume_from_spool`] re-attaches the
//! segment files a previous incarnation left behind (validating every
//! record) and marks them **sealed**: re-ingesting a sealed layer during
//! replay is an idempotent no-op, so a resumed capture run does not
//! duplicate already-persisted provenance.
//!
//! [`StoreWriter`] wraps a store in a dedicated ingestion thread fed by a
//! channel, so capture never blocks the analytic's supersteps on
//! serialization or disk IO; [`StoreWriter::finish`] drains the queue
//! with a timeout instead of joining unconditionally.
//!
//! Replay for layered evaluation decodes one superstep (= one provenance
//! layer) at a time, ascending for forward queries or descending for
//! backward ones (§5.1). [`ProvStore::layer_filtered`] restricts a layer
//! read to the predicates a compiled query actually references, skipping
//! the decode — and the disk read entirely — for irrelevant segments;
//! [`ProvStore::segment_index`] exposes the per-(superstep, predicate)
//! tuple/byte accounting that planning decisions (pruning, budgeting)
//! are made from.

use crate::codec::{decode_tuples_masked, encode_tuples, CodecError};
use crate::epoch::{self, EpochInfo, EpochStats};
use crate::columnar::{decode_columnar, encode_columnar, v1_batch_size, ColumnStat, MAX_DECODE_CELLS};
use crate::reader::{read_extent, ReadBackend, SegmentSlice};
use crate::v3::{self, FooterEntry, GenFileInfo, LostKey, Manifest};
use ariadne_obs::trace::{self, Level};
use ariadne_pql::{Database, Tuple, Value};
use ariadne_vc::checkpoint::crc32;
use ariadne_vc::FaultPlan;
use crossbeam::channel::{unbounded, Sender};
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Magic bytes opening every v1 (row-major) record. The fourth byte is
/// the format version byte the reader dispatches on.
pub const SEGMENT_MAGIC: [u8; 4] = *b"ARSG";
/// Magic bytes closing every v1 record (truncation tripwire).
pub const SEGMENT_FOOTER: [u8; 4] = *b"GSRA";
/// Magic bytes opening every v2 (columnar) record.
pub const SEGMENT_MAGIC_V2: [u8; 4] = *b"ARS2";
/// Magic bytes closing every v2 record.
pub const SEGMENT_FOOTER_V2: [u8; 4] = *b"2SRA";
/// Magic bytes opening every v3 (LZ-compressed) record.
pub const SEGMENT_MAGIC_V3: [u8; 4] = *b"ARSZ";
/// Magic bytes closing every v3 record.
pub const SEGMENT_FOOTER_V3: [u8; 4] = *b"ZSRA";
/// Per-record framing overhead in bytes (header + len + crc + footer).
const RECORD_OVERHEAD: usize = 4 + 8 + 4 + 4;
/// Pending tuples per segment that trigger a columnar pack under
/// [`SegmentFormat::V2`]. Packing also happens before any spill and at
/// [`ProvStore::pack_all`] time, so the threshold only bounds how long
/// tuples sit row-major in memory.
pub const PACK_THRESHOLD: usize = 512;

/// Default drain deadline for [`StoreWriter::finish`].
pub const DEFAULT_FINISH_TIMEOUT: Duration = Duration::from_secs(30);

/// Cached global-registry handles for store metrics. Ingested tuple and
/// batch counts are functions of the captured provenance alone and are
/// flagged deterministic; spill counts, spilled bytes, and record
/// verifications depend on when the async writer's batches arrive
/// relative to the memory budget, so they are flagged non-deterministic.
mod obs_handles {
    use ariadne_obs::metrics::Histogram;
    use ariadne_obs::{static_counter, static_histogram};

    static_counter!(
        ingest_batches,
        "store_ingest_batches_total",
        "tuple batches ingested into the provenance store",
        true
    );
    static_counter!(
        ingest_tuples,
        "store_ingest_tuples_total",
        "provenance tuples ingested",
        true
    );
    static_counter!(
        ingest_bytes,
        "store_ingest_bytes_total",
        "encoded record bytes appended to in-memory segments",
        true
    );
    static_counter!(
        spills,
        "store_spills_total",
        "segment spills to the spool directory (budget/arrival dependent)",
        false
    );
    static_counter!(
        spilled_bytes,
        "store_spilled_bytes_total",
        "bytes written to spool segment files (budget/arrival dependent)",
        false
    );
    static_counter!(
        records_verified,
        "store_records_verified_total",
        "checksummed records whose CRC was validated on read",
        false
    );
    static_counter!(
        checksum_failures,
        "store_checksum_failures_total",
        "records rejected for CRC/framing mismatch",
        false
    );
    static_counter!(
        resumes,
        "store_resumes_total",
        "stores re-opened over an existing spool directory",
        true
    );
    static_counter!(
        sealed_segments,
        "store_sealed_segments_total",
        "segments recovered and sealed during spool resume",
        true
    );
    static_counter!(
        faults_injected,
        "store_faults_injected_total",
        "scripted spill failures fired",
        true
    );
    static_counter!(
        segments_read,
        "store_segments_read_total",
        "segments decoded by layer reads",
        true
    );
    static_counter!(
        segments_skipped,
        "store_segments_skipped_total",
        "segments skipped by predicate-filtered layer reads",
        true
    );
    static_counter!(
        writers_abandoned,
        "store_writers_abandoned_total",
        "writer threads fenced off after a finish timeout",
        true
    );
    static_counter!(
        encoded_bytes,
        "store_encoded_bytes",
        "record bytes (framing included) produced by columnar segment packing",
        true
    );
    static_counter!(
        encode_ns,
        "store_encode_ns",
        "wall nanoseconds spent in columnar stats passes and encoding",
        false
    );
    static_counter!(
        packs,
        "store_packs_total",
        "pending batches packed into columnar records",
        true
    );
    static_counter!(
        col_bytes_skipped,
        "store_col_bytes_skipped_total",
        "encoded column-block bytes skipped (never materialized) by masked reads",
        true
    );
    static_counter!(
        fsync_ns,
        "store_fsync_ns",
        "wall nanoseconds spent fsyncing spool files and directories",
        false
    );
    static_counter!(
        salvaged_records,
        "store_salvaged_records",
        "records retained by truncating a torn unsealed tail at resume/scrub",
        true
    );
    static_counter!(
        quarantined_segments,
        "store_quarantined_segments",
        "irrecoverable segment files moved into quarantine/ by scrub --repair",
        true
    );
    static_counter!(
        io_retries,
        "store_io_retries",
        "transient spill IO failures absorbed by the bounded retry loop",
        false
    );
    static_counter!(
        compactions,
        "store_compactions_total",
        "compaction passes that rewrote the spool into a new generation",
        true
    );
    static_counter!(
        compact_bytes_in,
        "store_compact_bytes_in",
        "segment bytes read (decoded) by compaction passes",
        true
    );
    static_counter!(
        compact_bytes_out,
        "store_compact_bytes_out",
        "generation-file record bytes written by compaction passes",
        true
    );
    static_counter!(
        lz_records,
        "store_lz_records_total",
        "records written in the v3 compressed frame (LZ strictly won)",
        true
    );
    static_counter!(
        lz_saved_bytes,
        "store_lz_saved_bytes",
        "payload bytes saved by v3 LZ compression over the plain frame",
        true
    );
    // Compaction protocol step timers (PR 7 landed the protocol with no
    // obs): one wall-clock counter per kill-point-delimited step, so a
    // slow compaction shows *which* step ate the time. Timings are
    // schedule-dependent, hence non-deterministic.
    static_counter!(
        compact_encode_ns,
        "store_compact_encode_ns",
        "wall nanoseconds decoding + re-encoding segments into the generation buffer",
        false
    );
    static_counter!(
        compact_gen_write_ns,
        "store_compact_gen_write_ns",
        "wall nanoseconds writing + fsyncing the generation temp file",
        false
    );
    static_counter!(
        compact_gen_publish_ns,
        "store_compact_gen_publish_ns",
        "wall nanoseconds renaming the generation file into place",
        false
    );
    static_counter!(
        compact_manifest_write_ns,
        "store_compact_manifest_write_ns",
        "wall nanoseconds writing + fsyncing the manifest temp file",
        false
    );
    static_counter!(
        compact_manifest_publish_ns,
        "store_compact_manifest_publish_ns",
        "wall nanoseconds renaming the manifest into place (the commit point)",
        false
    );
    static_counter!(
        compact_gc_ns,
        "store_compact_gc_ns",
        "wall nanoseconds deleting superseded files after the manifest swap",
        false
    );
    // v3 metadata reads: how often footers and manifests are parsed.
    // Both depend on open/replay patterns, not logical work.
    static_counter!(
        footer_reads,
        "store_footer_reads_total",
        "v3 generation-file footers parsed",
        false
    );
    static_counter!(
        manifest_reads,
        "store_manifest_reads_total",
        "spool manifests read and parsed",
        false
    );
    // Scrub progress: a scrub walks every file exactly once in sorted
    // order, so these are functions of the spool content alone.
    static_counter!(
        scrub_files,
        "store_scrub_files_total",
        "spool files verified by scrub passes",
        true
    );
    static_counter!(
        scrub_records,
        "store_scrub_records_total",
        "records whose CRC and payload decode were re-verified by scrub",
        true
    );
    static_counter!(
        scrub_tuples,
        "store_scrub_tuples_total",
        "tuples decoded during scrub verification",
        true
    );
    static_counter!(
        scrub_damage,
        "store_scrub_damage_total",
        "damaged files (torn or corrupt) found by scrub passes",
        true
    );

    const ENC_HELP: &str = "encoded column-block bytes per packed column for this encoding";
    static_histogram!(enc_plain, "store_encoding_bytes_plain", ENC_HELP, true);
    static_histogram!(enc_const, "store_encoding_bytes_const", ENC_HELP, true);
    static_histogram!(
        enc_delta_id,
        "store_encoding_bytes_delta_id",
        ENC_HELP,
        true
    );
    static_histogram!(
        enc_delta_int,
        "store_encoding_bytes_delta_int",
        ENC_HELP,
        true
    );
    static_histogram!(enc_dict, "store_encoding_bytes_dict", ENC_HELP, true);
    static_histogram!(
        enc_float_raw,
        "store_encoding_bytes_float_raw",
        ENC_HELP,
        true
    );

    /// The per-encoding column-size histogram for `enc`.
    pub fn encoding_hist(enc: crate::columnar::Encoding) -> &'static Histogram {
        use crate::columnar::Encoding::*;
        match enc {
            Plain => enc_plain(),
            Const => enc_const(),
            DeltaId => enc_delta_id(),
            DeltaInt => enc_delta_int(),
            Dict => enc_dict(),
            FloatRaw => enc_float_raw(),
        }
    }
}

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
    /// A strict read was refused because the store holds less than the
    /// full capture: it was poisoned by a spill failure under
    /// [`OnSpillError::DropCapture`], or damage was detected earlier.
    /// Use [`ReadPolicy::Degraded`] to read what survives, with the
    /// loss reported as [`Degradation`].
    Degraded {
        /// Why the store is incomplete.
        detail: String,
        /// The failure that caused the degradation, when known.
        source: Option<Arc<StoreError>>,
    },
    /// A strict read touched a layer whose segment file was moved into
    /// `quarantine/` by a scrub repair.
    Quarantined {
        /// The quarantined segment file.
        path: PathBuf,
        /// The corruption that condemned the file, when quarantined in
        /// this process (`None` when discovered at resume).
        source: Option<Box<StoreError>>,
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
            StoreError::Degraded { detail, .. } => {
                write!(f, "store degraded: {detail}")
            }
            StoreError::Quarantined { path, .. } => {
                write!(f, "segment quarantined: {}", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::Degraded { source, .. } => source
                .as_ref()
                .map(|e| e.as_ref() as &(dyn std::error::Error + 'static)),
            StoreError::Quarantined { source, .. } => source
                .as_ref()
                .map(|e| e.as_ref() as &(dyn std::error::Error + 'static)),
            _ => None,
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

/// The physical format new records are written in. Readers accept both
/// formats regardless of this setting (per-record version dispatch), so
/// the choice only affects the write path.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum SegmentFormat {
    /// Row-major tagged records ([`crate::codec`]); one record per
    /// ingest batch — the pre-v2 behavior, kept as the measured
    /// baseline and for byte-identical spool reproduction.
    V1,
    /// Columnar records ([`crate::columnar`]); ingest batches buffer in
    /// a pending row set and pack into per-column-encoded records.
    #[default]
    V2,
    /// Columnar records with an LZ block stacked underneath
    /// ([`crate::v3`]): packs like [`SegmentFormat::V2`], then emits the
    /// compressed `ARSZ` frame whenever it is strictly smaller than the
    /// plain one (falling back to the plain frame otherwise).
    V3,
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
    /// No fsync anywhere (the pre-durability behavior and the default).
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

/// What [`ProvStore::ingest`] does when a spill write fails after
/// retries (disk full, permission lost, injected fault).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum OnSpillError {
    /// Propagate the error to the ingest caller (the default): capture
    /// aborts with a typed [`StoreError`].
    #[default]
    Abort,
    /// Poison the store and drop this and all subsequent ingests, so the
    /// analytics run completes with partial provenance. Strict reads of
    /// a poisoned store fail with [`StoreError::Degraded`] (chaining the
    /// original spill error); [`ReadPolicy::Degraded`] reads succeed and
    /// report the loss.
    DropCapture,
}

/// How layer reads treat damaged or missing data.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum ReadPolicy {
    /// Any corrupt record, quarantined segment, or store poisoning is a
    /// typed error (the default).
    #[default]
    Strict,
    /// Skip damaged records (resyncing to the next valid record) and
    /// quarantined segments, and report exactly what was lost as
    /// [`Degradation`] — partial results, always labelled.
    Degraded,
}

/// Detail cap for [`Degradation::details`] so a badly damaged store
/// cannot balloon reports.
const DEGRADATION_DETAIL_CAP: usize = 8;

/// What a [`ReadPolicy::Degraded`] read skipped. Attached to
/// [`LayerRead`]; aggregated upward into layered-run and run reports.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Degradation {
    /// Damaged record regions skipped inside otherwise-readable files
    /// (each contiguous damaged byte range counts once).
    pub records_skipped: usize,
    /// Whole segments skipped (quarantined, or unreadable end to end).
    pub segments_skipped: usize,
    /// Encoded bytes skipped over.
    pub bytes_skipped: usize,
    /// Human-readable damage descriptions, capped at
    /// `DEGRADATION_DETAIL_CAP` entries (the counts above stay exact).
    pub details: Vec<String>,
}

impl Degradation {
    /// True when nothing was skipped and no damage was noted — the read
    /// was complete.
    pub fn is_clean(&self) -> bool {
        self.records_skipped == 0
            && self.segments_skipped == 0
            && self.bytes_skipped == 0
            && self.details.is_empty()
    }

    /// Fold another degradation into this one (report aggregation).
    pub fn absorb(&mut self, other: &Degradation) {
        self.records_skipped += other.records_skipped;
        self.segments_skipped += other.segments_skipped;
        self.bytes_skipped += other.bytes_skipped;
        for d in &other.details {
            self.note(d.clone());
        }
    }

    /// Append a damage description, respecting the detail cap.
    fn note(&mut self, detail: String) {
        if self.details.len() < DEGRADATION_DETAIL_CAP {
            self.details.push(detail);
        }
    }
}

/// What a repairing scrub did about one damaged file.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ScrubAction {
    /// Detected only (scrub ran without `repair`), or the damage lives
    /// in memory where no repair applies.
    None,
    /// Torn tail: the original bytes were backed up to a `.torn`
    /// sidecar and the file was truncated to its last record boundary.
    Salvaged,
    /// Irrecoverable corruption: the file was moved into the spool's
    /// `quarantine/` subdirectory.
    Quarantined,
}

impl std::fmt::Display for ScrubAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ScrubAction::None => "none",
            ScrubAction::Salvaged => "salvaged",
            ScrubAction::Quarantined => "quarantined",
        })
    }
}

/// One damaged file found by a scrub.
#[derive(Clone, Debug)]
pub struct SegmentDamage {
    /// The damaged file (a synthetic `<mem:...>` path for in-memory
    /// buffer damage).
    pub path: PathBuf,
    /// The segment's superstep.
    pub superstep: u32,
    /// The segment's predicate.
    pub pred: String,
    /// Whether the file was an atomically written `.seal` segment.
    pub sealed: bool,
    /// True for a torn (crash-truncated) tail — salvageable; false for
    /// real corruption inside complete frames.
    pub torn: bool,
    /// Human-readable failure description.
    pub detail: String,
    /// What a repairing scrub did about it.
    pub action: ScrubAction,
    /// Valid records preceding the damage (kept by a salvage).
    pub records_kept: usize,
    /// Bytes the damage spans (cut by a salvage, or the whole file for
    /// a quarantine).
    pub bytes_lost: usize,
}

/// The result of a [`ProvStore::scrub`] or [`scrub_spool`] pass over
/// every segment file.
#[derive(Clone, Debug, Default)]
pub struct ScrubReport {
    /// Segment files examined.
    pub files_checked: usize,
    /// Records whose checksum and payload decode verified clean.
    pub records_verified: usize,
    /// Tuples decoded while verifying.
    pub tuples_verified: usize,
    /// Whether the scrub ran in repair mode.
    pub repaired: bool,
    /// Every damaged file found, in (superstep, predicate) order.
    pub damage: Vec<SegmentDamage>,
}

impl ScrubReport {
    /// True when no damage was found anywhere.
    pub fn is_clean(&self) -> bool {
        self.damage.is_empty()
    }

    /// Render the report as a JSON object (stable key order, no
    /// dependencies).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\r' => out.push_str("\\r"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        let mut s = String::new();
        s.push_str(&format!(
            "{{\"files_checked\":{},\"records_verified\":{},\"tuples_verified\":{},\"clean\":{},\"repaired\":{},\"damage\":[",
            self.files_checked, self.records_verified, self.tuples_verified,
            self.is_clean(), self.repaired,
        ));
        for (i, d) in self.damage.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"path\":\"{}\",\"superstep\":{},\"pred\":\"{}\",\"sealed\":{},\"torn\":{},\"action\":\"{}\",\"records_kept\":{},\"bytes_lost\":{},\"detail\":\"{}\"}}",
                esc(&d.path.display().to_string()),
                d.superstep,
                esc(&d.pred),
                d.sealed,
                d.torn,
                d.action,
                d.records_kept,
                d.bytes_lost,
                esc(&d.detail),
            ));
        }
        s.push_str("]}");
        s
    }
}

/// Store configuration.
#[derive(Clone, Debug, Default)]
pub struct StoreConfig {
    /// In-memory budget in encoded bytes before segments spill.
    pub memory_budget: usize,
    /// Where spilled segments go; `None` disables spilling (the store
    /// then grows without bound, like the paper's failed ALS capture).
    /// The directory is created on the first spill, not eagerly.
    pub spool_dir: Option<PathBuf>,
    /// Scripted fault injection for spill writes (crash-recovery tests).
    pub fault: Option<Arc<FaultPlan>>,
    /// Write format for new records (defaults to [`SegmentFormat::V2`]).
    pub format: SegmentFormat,
    /// Fsync level for spill writes (defaults to [`Durability::None`]).
    pub durability: Durability,
    /// Spill-failure policy (defaults to [`OnSpillError::Abort`]).
    pub on_spill_error: OnSpillError,
    /// How layer reads pull extent bytes from spool files (defaults to
    /// [`ReadBackend::Buffered`]; [`ReadBackend::Mmap`] decodes borrowed
    /// from the page cache on atomic files).
    pub read_backend: ReadBackend,
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

    /// Select the write format (builder style).
    pub fn with_format(mut self, format: SegmentFormat) -> Self {
        self.format = format;
        self
    }

    /// Select the spill durability level (builder style).
    pub fn with_durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// Select the spill-failure policy (builder style).
    pub fn with_on_spill_error(mut self, policy: OnSpillError) -> Self {
        self.on_spill_error = policy;
        self
    }

    /// Select the segment read backend (builder style).
    pub fn with_read_backend(mut self, backend: ReadBackend) -> Self {
        self.read_backend = backend;
        self
    }
}

/// One (superstep, predicate) segment: encoded records in memory plus an
/// optional spilled prefix on disk, plus (under [`SegmentFormat::V2`]) a
/// pending row buffer awaiting its columnar pack.
#[derive(Debug, Default)]
struct Segment {
    /// Concatenated checksummed records (v1 and/or v2, in append order).
    mem: Vec<u8>,
    /// Tuples encoded inside `mem` (excludes `pending`).
    mem_tuples: usize,
    /// Spool files holding the spilled prefix of this segment.
    disk: DiskPart,
    /// Sealed segments were fully persisted by a previous incarnation
    /// (see [`ProvStore::resume_from_spool`]); re-ingests are dropped.
    sealed: bool,
    /// Rows awaiting their columnar pack (always empty under
    /// [`SegmentFormat::V1`]).
    pending: Vec<Tuple>,
    /// The bytes `pending` would occupy as one framed v1 record — the
    /// budget/accounting estimate until the pack replaces it with the
    /// actual encoded size.
    pending_bytes: usize,
    /// Per-column encode accounting accumulated across packed records
    /// (empty for segments holding only v1 records).
    cols: Vec<ColumnStat>,
}

/// The spilled portion of a segment: one or more spool files, read in
/// order. A segment can span a sealed `.seal` file *and* an unsealed
/// `.bin` tail when incarnations with different durability levels wrote
/// to the same spool (sealed part always first).
#[derive(Debug, Default)]
struct DiskPart {
    files: Vec<DiskFile>,
}

/// One spool file (or an extent within a shared generation file)
/// backing part of a segment.
#[derive(Clone, Debug)]
struct DiskFile {
    path: PathBuf,
    /// Byte offset of this segment's extent within `path` (always 0 for
    /// plain `seg-*` files; compacted extents share a generation file).
    offset: u64,
    bytes: usize,
    tuples: usize,
    /// Written via temp-file + atomic rename (`.seal` or `gen-*.ars3`):
    /// any damage in it is real corruption, never a salvageable torn
    /// tail.
    atomic: bool,
    /// An extent of a compacted generation file: registered from the
    /// indexed footer, read by seeking to the extent, never absorbed
    /// into sealed rewrites, and scrubbed at whole-file granularity.
    compacted: bool,
}

impl DiskPart {
    fn bytes(&self) -> usize {
        self.files.iter().map(|f| f.bytes).sum()
    }

    fn tuples(&self) -> usize {
        self.files.iter().map(|f| f.tuples).sum()
    }
}

/// Non-tuple outcomes of decoding a stretch of records.
#[derive(Debug, Default)]
struct DecodeCounts {
    /// Column blocks skipped via the mask (v2) or [`Value::Unit`]-filled
    /// column positions per record (v1 masked reads count 0 here — v1
    /// has no skippable blocks, only skipped values).
    cols_skipped: usize,
    /// Encoded bytes of skipped v2 column blocks.
    col_bytes_skipped: usize,
}

impl DecodeCounts {
    fn absorb(&mut self, other: &DecodeCounts) {
        self.cols_skipped += other.cols_skipped;
        self.col_bytes_skipped += other.col_bytes_skipped;
    }
}

impl Segment {
    /// Total encoded bytes, memory plus spilled parts plus the pending
    /// buffer at its v1-record estimate (so byte accounting is stable
    /// whether or not a pack has happened yet).
    fn total_bytes(&self) -> usize {
        self.mem.len() + self.pending_bytes + self.disk.bytes()
    }

    /// Total tuple count, memory plus spilled parts plus pending rows.
    fn total_tuples(&self) -> usize {
        self.mem_tuples + self.pending.len() + self.disk.tuples()
    }

    /// Decode the whole segment (spilled prefix first, then the
    /// in-memory tail, then pending rows) into `out`, returning the
    /// encoded bytes read plus skip accounting and any degradation
    /// incurred under [`ReadPolicy::Degraded`]. `mask` is the keep-mask
    /// applied to every record *and* to cloned pending rows, so masked
    /// reads are identical whether rows were packed yet or not.
    fn decode_into(
        &self,
        backend: ReadBackend,
        mask: Option<&[bool]>,
        out: &mut Vec<Tuple>,
        stats: Option<&mut Vec<ColumnStat>>,
        policy: ReadPolicy,
    ) -> Result<(usize, DecodeCounts, Degradation), StoreError> {
        let mode = match policy {
            ReadPolicy::Strict => WalkMode::Strict,
            ReadPolicy::Degraded => WalkMode::Degraded,
        };
        let mut bytes_read = 0usize;
        let mut counts = DecodeCounts::default();
        let mut damage = Degradation::default();
        let mut stats = stats;
        for file in &self.disk.files {
            // Compacted extents seek straight to their footer-indexed
            // byte range; plain files read whole. Either way only the
            // extent's bytes are pulled (and under the mmap backend,
            // only the pages the decoder touches are faulted in).
            let data: SegmentSlice = match read_extent(
                backend,
                &file.path,
                file.offset,
                file.bytes,
                file.atomic,
            ) {
                Ok(d) => d,
                Err(e) if policy == ReadPolicy::Degraded => {
                    damage.segments_skipped += 1;
                    damage.bytes_skipped += file.bytes;
                    damage.note(format!("{}: unreadable: {e}", file.path.display()));
                    continue;
                }
                Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                    // The file is shorter than its registered extent:
                    // someone truncated it under us — corruption, not a
                    // transient IO failure.
                    return Err(StoreError::Corrupt {
                        path: file.path.clone(),
                        detail: format!(
                            "file shorter than registered extent {}+{}: {e}",
                            file.offset, file.bytes
                        ),
                    });
                }
                Err(e) => {
                    return Err(StoreError::Io {
                        path: file.path.clone(),
                        source: e,
                    })
                }
            };
            bytes_read += data.len();
            let walked = walk_records(&data, &file.path, out, mask, stats.as_deref_mut(), mode)?;
            counts.absorb(&walked.counts);
            damage.absorb(&walked.damage);
        }
        bytes_read += self.mem.len();
        let walked = walk_records(&self.mem, Path::new("<memory>"), out, mask, stats, mode)?;
        counts.absorb(&walked.counts);
        damage.absorb(&walked.damage);
        if !self.pending.is_empty() {
            bytes_read += self.pending_bytes;
            match mask {
                None => out.extend(self.pending.iter().cloned()),
                Some(m) => out.extend(self.pending.iter().map(|t| {
                    t.iter()
                        .enumerate()
                        .map(|(col, v)| {
                            if m.get(col).copied().unwrap_or(true) {
                                v.clone()
                            } else {
                                Value::Unit
                            }
                        })
                        .collect()
                })),
            }
        }
        Ok((bytes_read, counts, damage))
    }
}

/// The captured-provenance store.
#[derive(Debug, Default)]
pub struct ProvStore {
    config: StoreConfig,
    segments: BTreeMap<(u32, String), Segment>,
    mem_bytes: usize,
    disk_bytes: usize,
    tuples: usize,
    spills: usize,
    /// Cached largest captured superstep, maintained on ingest/resume so
    /// replay drivers and [`ProvStore::to_database`] never rescan the
    /// whole segment index for it.
    max_step: Option<u32>,
    /// Records retained by truncating torn unsealed tails at resume.
    salvaged: usize,
    /// Segment files found in (or moved to) `quarantine/`, keyed like
    /// segments. Strict reads of their layers fail typed; degraded
    /// reads count them as skipped segments.
    quarantined: BTreeMap<(u32, String), PathBuf>,
    /// Set when a spill failure under [`OnSpillError::DropCapture`]
    /// stopped capture: subsequent ingests are dropped and strict reads
    /// fail with [`StoreError::Degraded`] chaining this error.
    poison: Option<Arc<StoreError>>,
    /// Ingest batches dropped after poisoning.
    dropped_batches: usize,
    /// Tuples dropped after poisoning.
    dropped_tuples: usize,
    /// The current compaction generation (0 = never compacted). Each
    /// [`ProvStore::compact`] bumps it; generation files and the spool
    /// manifest carry it so resume can tell live files from orphans.
    generation: u64,
    /// Compaction passes performed by this incarnation.
    compactions: usize,
    /// The epoch table: empty for a store that has never absorbed a
    /// graph mutation (every read is physical, the pre-epoch fast
    /// path). Non-empty after the first [`ProvStore::append_epoch`]:
    /// entry 0 describes the original capture, each later entry one
    /// appended delta epoch. Rebuilt from `~epoch~` marker segments on
    /// spool resume.
    epochs: Vec<EpochInfo>,
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

/// The outcome of one filtered layer read.
#[derive(Debug, Default)]
pub struct LayerRead {
    /// Decoded (predicate, tuples) pairs, in predicate order.
    pub tuples: Vec<(String, Vec<Tuple>)>,
    /// Segments decoded for this layer.
    pub segments_read: usize,
    /// Segments whose predicate the filter rejected — neither decoded
    /// nor (for spilled parts) read from disk at all.
    pub segments_skipped: usize,
    /// Encoded bytes decoded (memory + disk).
    pub bytes_read: usize,
    /// Encoded bytes the filter avoided touching.
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
    /// What a [`ReadPolicy::Degraded`] read skipped as damaged; always
    /// clean under [`ReadPolicy::Strict`] (damage errors out instead).
    pub degradation: Degradation,
}

/// What a layer read should materialize: a predicate allow-set plus
/// optional per-predicate column keep-masks.
///
/// Segments whose predicate the filter rejects are skipped whole —
/// no decode and (for spilled parts) no disk read. Within a decoded
/// segment, a column keep-mask drops individual columns: masked-out
/// positions decode as [`Value::Unit`] (arity and row order preserved)
/// and, for v2 records, the encoded column block is skipped without
/// materializing a single value — a query that never touches message
/// payloads never pays for them.
#[derive(Clone, Debug, Default)]
pub struct LayerFilter {
    /// `None` = all predicates.
    preds: Option<std::collections::BTreeSet<String>>,
    /// Keep-masks per predicate; absent = keep every column.
    masks: BTreeMap<String, Vec<bool>>,
}

impl LayerFilter {
    /// Keep everything (the unfiltered read).
    pub fn all() -> Self {
        LayerFilter::default()
    }

    /// Keep only the given predicates (all their columns).
    pub fn for_preds(preds: std::collections::BTreeSet<String>) -> Self {
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
fn layer_bounds(superstep: u32) -> (SegmentKeyBound, SegmentKeyBound) {
    use std::ops::Bound;
    let lo = Bound::Included((superstep, String::new()));
    let hi = match superstep.checked_add(1) {
        Some(next) => Bound::Excluded((next, String::new())),
        None => Bound::Unbounded,
    };
    (lo, hi)
}

/// Append one checksummed v1 record framing `payload` to `buf`.
fn append_record(buf: &mut Vec<u8>, payload: &[u8]) {
    buf.extend_from_slice(&SEGMENT_MAGIC);
    buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    buf.extend_from_slice(&SEGMENT_FOOTER);
}

/// Append one checksummed v2 (columnar) record framing `payload` to `buf`.
fn append_record_v2(buf: &mut Vec<u8>, payload: &[u8]) {
    buf.extend_from_slice(&SEGMENT_MAGIC_V2);
    buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    buf.extend_from_slice(&SEGMENT_FOOTER_V2);
}

/// Append one checksummed v3 (compressed) record framing `payload` to
/// `buf` (the payload is already the inner-version-tagged compressed
/// form from [`v3::make_compressed_payload`]).
fn append_record_v3(buf: &mut Vec<u8>, payload: &[u8]) {
    buf.extend_from_slice(&SEGMENT_MAGIC_V3);
    buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    buf.extend_from_slice(&SEGMENT_FOOTER_V3);
}

/// Append `raw` (an inner payload of `inner_version` 1 = row-major or
/// 2 = columnar) as either a compressed v3 frame — when compression
/// strictly wins — or the plain frame of its native version. Returns
/// `true` when the compressed frame was used.
fn append_record_best(buf: &mut Vec<u8>, inner_version: u8, raw: &[u8]) -> bool {
    if let Some(packed) = v3::make_compressed_payload(inner_version, raw) {
        obs_handles::lz_records().inc();
        obs_handles::lz_saved_bytes().add((raw.len() - packed.len()) as u64);
        append_record_v3(buf, &packed);
        return true;
    }
    match inner_version {
        1 => append_record(buf, raw),
        _ => append_record_v2(buf, raw),
    }
    false
}

/// How [`walk_records`] reacts to a record that fails validation.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum WalkMode {
    /// First failure is a typed error (sealed segments, default reads).
    Strict,
    /// A failure whose damage extends to end-of-data (truncated header
    /// or payload overrunning the buffer — the signature of a torn
    /// write) stops the walk and reports a torn tail; any other failure
    /// is still a typed error. Used on unsealed tails at resume/scrub.
    Salvage,
    /// Any failure is counted and skipped, resyncing to the next fully
    /// valid record. Used by [`ReadPolicy::Degraded`] reads.
    Degraded,
}

/// One validated record frame inside a byte stream.
struct Frame<'a> {
    /// Frame version per the magic's version byte: 1 = row-major,
    /// 2 = columnar, 3 = LZ-compressed (inner version tagged in the
    /// payload).
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
    if data.len() - off < RECORD_OVERHEAD {
        return Err(FrameError {
            torn: true,
            detail: format!(
                "truncated record header at offset {off} ({} trailing bytes)",
                data.len() - off
            ),
        });
    }
    let magic = &data[off..off + 4];
    let version = if magic == SEGMENT_MAGIC {
        1u8
    } else if magic == SEGMENT_MAGIC_V2 {
        2
    } else if magic == SEGMENT_MAGIC_V3 {
        3
    } else {
        return Err(FrameError {
            torn: false,
            detail: format!("bad record magic at offset {off}"),
        });
    };
    let len = u64::from_le_bytes(data[off + 4..off + 12].try_into().unwrap()) as usize;
    let stored_crc = u32::from_le_bytes(data[off + 12..off + 16].try_into().unwrap());
    let body_start = off + 16;
    let footer_start = match body_start.checked_add(len) {
        Some(e) if e + 4 <= data.len() => e,
        _ => {
            return Err(FrameError {
                torn: true,
                detail: format!(
                    "record at offset {off} claims {len} payload bytes past end of data"
                ),
            })
        }
    };
    let payload = &data[body_start..footer_start];
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
    let footer = match version {
        1 => SEGMENT_FOOTER,
        2 => SEGMENT_FOOTER_V2,
        _ => SEGMENT_FOOTER_V3,
    };
    if data[footer_start..footer_start + 4] != footer {
        obs_handles::checksum_failures().inc();
        return Err(FrameError {
            torn: false,
            detail: format!("bad record footer at offset {footer_start}"),
        });
    }
    Ok(Frame {
        version,
        payload,
        next: footer_start + 4,
    })
}

/// The outcome of walking a stretch of records.
#[derive(Debug, Default)]
struct WalkOutcome {
    counts: DecodeCounts,
    /// Records fully validated and decoded.
    records: usize,
    /// Tuples appended to `out`.
    tuples: usize,
    /// Offset just past the last valid record — the truncation point a
    /// salvage should cut back to.
    valid_end: usize,
    /// Set under [`WalkMode::Salvage`] when trailing bytes formed a
    /// torn (crash-truncated) partial record; holds the failure detail.
    torn_tail: Option<String>,
    /// Damage skipped under [`WalkMode::Degraded`].
    damage: Degradation,
}

/// Decode a concatenation of checksummed records, appending decoded
/// tuples to `out`. The record's version byte (fourth magic byte)
/// dispatches between the v1 row-major and v2 columnar payload
/// decoders; a mixed stream (v1 records sealed by a previous
/// incarnation followed by freshly packed v2 ones) is valid. `origin`
/// names the data source in errors. `mask`, when given, is the
/// keep-mask applied to every record; `stats`, when given, accumulates
/// per-column encode accounting from v2 records (spool resume
/// rebuilding a segment's column index). `mode` selects how validation
/// failures are handled — see [`WalkMode`].
fn walk_records(
    data: &[u8],
    origin: &Path,
    out: &mut Vec<Tuple>,
    mask: Option<&[bool]>,
    mut stats: Option<&mut Vec<ColumnStat>>,
    mode: WalkMode,
) -> Result<WalkOutcome, StoreError> {
    let corrupt = |detail: String| StoreError::Corrupt {
        path: origin.to_path_buf(),
        detail,
    };
    let mut o = WalkOutcome::default();
    let mut off = 0usize;
    while off < data.len() {
        let failure = match try_frame(data, off) {
            Ok(frame) => {
                // The frame is CRC-valid; a payload decode failure here
                // is real corruption (or a decoder bug), never a torn
                // tail — treat it like a complete-but-invalid frame.
                match decode_frame(&frame, mask, stats.as_deref_mut(), out, &mut o.counts) {
                    Ok(tuples) => {
                        obs_handles::records_verified().inc();
                        o.records += 1;
                        o.tuples += tuples;
                        off = frame.next;
                        o.valid_end = off;
                        continue;
                    }
                    Err(detail) => FrameError { torn: false, detail },
                }
            }
            Err(e) => e,
        };
        match mode {
            WalkMode::Strict => return Err(corrupt(failure.detail)),
            WalkMode::Salvage => {
                if failure.torn {
                    o.torn_tail = Some(failure.detail);
                    return Ok(o);
                }
                return Err(corrupt(failure.detail));
            }
            WalkMode::Degraded => {
                // Resync: scan forward for the next offset holding a
                // fully valid frame; everything in between is damage.
                let start = off;
                let mut next = None;
                let mut probe = off + 1;
                while probe + RECORD_OVERHEAD <= data.len() {
                    let magic = &data[probe..probe + 4];
                    if (magic == SEGMENT_MAGIC
                        || magic == SEGMENT_MAGIC_V2
                        || magic == SEGMENT_MAGIC_V3)
                        && try_frame(data, probe).is_ok()
                    {
                        next = Some(probe);
                        break;
                    }
                    probe += 1;
                }
                let end = next.unwrap_or(data.len());
                o.damage.records_skipped += 1;
                o.damage.bytes_skipped += end - start;
                o.damage
                    .note(format!("{}: {}", origin.display(), failure.detail));
                match next {
                    Some(n) => off = n,
                    None => break,
                }
            }
        }
    }
    Ok(o)
}

/// Decode one validated frame's payload into `out`, returning the tuple
/// count appended, or the failure detail.
fn decode_frame(
    frame: &Frame<'_>,
    mask: Option<&[bool]>,
    stats: Option<&mut Vec<ColumnStat>>,
    out: &mut Vec<Tuple>,
    counts: &mut DecodeCounts,
) -> Result<usize, String> {
    // A v3 frame decompresses to an inner v1/v2 payload, then decodes
    // like the plain frame of that version. The frame CRC covered the
    // compressed form, so a decompression failure here is corruption
    // that slipped a CRC collision (or a decoder bug) — reported, not
    // panicked.
    let (version, decompressed);
    let payload: &[u8] = if frame.version == 3 {
        let (inner, raw) = v3::decode_compressed_payload(frame.payload)?;
        version = inner;
        decompressed = raw;
        &decompressed
    } else {
        version = frame.version;
        frame.payload
    };
    let before = out.len();
    if version == 2 {
        let read = decode_columnar(payload, mask, out).map_err(|e| {
            // A failed decode may have appended partial rows; drop them
            // so Degraded-mode skips leave no half-decoded tuples.
            out.truncate(before);
            format!("columnar decode failed: {e}")
        })?;
        counts.cols_skipped += read.cols_skipped;
        counts.col_bytes_skipped += read.col_bytes_skipped;
        if let Some(stats) = stats {
            if stats.len() < read.columns.len() {
                stats.resize(read.columns.len(), ColumnStat::default());
            }
            for (agg, col) in stats.iter_mut().zip(&read.columns) {
                agg.absorb(col);
            }
        }
    } else {
        let batch = bytes::Bytes::copy_from_slice(payload);
        out.extend(
            decode_tuples_masked(batch, mask).map_err(|e| format!("tuple decode failed: {e}"))?,
        );
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

/// The unsealed (append-tail) spool file for a (superstep, predicate)
/// segment.
fn segment_path(dir: &Path, superstep: u32, pred: &str) -> PathBuf {
    dir.join(format!("seg-{superstep}-{pred}.bin"))
}

/// The sealed (atomic-rename) spool file for a (superstep, predicate)
/// segment, written under [`Durability::Seal`].
fn sealed_segment_path(dir: &Path, superstep: u32, pred: &str) -> PathBuf {
    dir.join(format!("seg-{superstep}-{pred}.seal"))
}

/// The sidecar holding a torn tail's original bytes before salvage
/// truncated it (kept for forensics; ignored by resume).
fn torn_sidecar_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".torn");
    PathBuf::from(name)
}

/// The subdirectory scrub repairs move irrecoverable segments into.
fn quarantine_dir(dir: &Path) -> PathBuf {
    dir.join("quarantine")
}

/// The spool-level manifest file naming live generation files.
fn manifest_path(dir: &Path) -> PathBuf {
    dir.join(v3::MANIFEST_NAME)
}

/// Write `bytes` to `path` atomically: temp file, fsync, rename, then
/// directory fsync — the same seal protocol spills use, shared by
/// compaction's generation files and the manifest.
fn write_atomic(dir: &Path, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let tmp = {
        let mut name = path.as_os_str().to_os_string();
        name.push(".tmp");
        PathBuf::from(name)
    };
    let io = |e| StoreError::Io {
        path: path.to_path_buf(),
        source: e,
    };
    let mut file = File::create(&tmp).map_err(io)?;
    file.write_all(bytes).map_err(io)?;
    timed_sync(&file).map_err(io)?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(io)?;
    let _ = timed_sync_dir(dir);
    Ok(())
}

/// Read a generation file's indexed footer, returning its entries, the
/// offset where record frames end, and the total file length. Any
/// damage in the trailer or footer payload is a typed corruption.
fn read_gen_footer(path: &Path) -> Result<(Vec<FooterEntry>, usize, usize), StoreError> {
    let mut data = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut data))
        .map_err(|e| StoreError::Io {
            path: path.to_path_buf(),
            source: e,
        })?;
    obs_handles::footer_reads().inc();
    let (entries, region_end) = v3::parse_footer(&data).map_err(|e| StoreError::Corrupt {
        path: path.to_path_buf(),
        detail: format!("generation footer: {e}"),
    })?;
    Ok((entries, region_end, data.len()))
}

/// Fully re-verify one generation file: parse the footer (trailer
/// magic, length, CRC, entry bounds), then walk every record frame of
/// the record region strictly. Generation files are written atomically,
/// so any damage — including an apparent truncation — is corruption;
/// there is no torn-tail salvage for them.
fn verify_gen_file(path: &Path) -> Result<Result<(usize, usize), String>, StoreError> {
    let mut data = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut data))
        .map_err(|e| StoreError::Io {
            path: path.to_path_buf(),
            source: e,
        })?;
    obs_handles::footer_reads().inc();
    let (entries, region_end) = match v3::parse_footer(&data) {
        Ok(v) => v,
        Err(e) => return Ok(Err(format!("generation footer: {e}"))),
    };
    let mut scratch = Vec::new();
    match walk_records(&data[..region_end], path, &mut scratch, None, None, WalkMode::Strict) {
        Ok(w) => {
            // The footer's extent accounting must agree with the frames.
            let footer_tuples: u64 = entries.iter().map(|e| e.tuples).sum();
            if footer_tuples != w.tuples as u64 {
                return Ok(Err(format!(
                    "footer claims {footer_tuples} tuples, frames hold {}",
                    w.tuples
                )));
            }
            Ok(Ok((w.records, w.tuples)))
        }
        Err(e) => Ok(Err(e.to_string())),
    }
}

/// Parse a spool file name back into its (superstep, predicate) key and
/// whether the file is a sealed (`.seal`) segment. `.torn` sidecars and
/// `.tmp` leftovers parse as `None` and are ignored.
fn parse_segment_name(name: &str) -> Option<(u32, String, bool)> {
    let stem = name.strip_prefix("seg-")?;
    let (stem, sealed) = match stem.strip_suffix(".seal") {
        Some(s) => (s, true),
        None => (stem.strip_suffix(".bin")?, false),
    };
    let (step, pred) = stem.split_once('-')?;
    Some((step.parse().ok()?, pred.to_string(), sealed))
}

/// Salvage a torn unsealed tail: back the original bytes up to a
/// `.torn` sidecar, then truncate the file to `valid_end` (the last
/// record boundary). The sidecar write happens first so the pre-salvage
/// bytes are never lost.
fn salvage_truncate(path: &Path, original: &[u8], valid_end: usize) -> Result<(), StoreError> {
    let sidecar = torn_sidecar_path(path);
    std::fs::write(&sidecar, original).map_err(|e| StoreError::Io {
        path: sidecar.clone(),
        source: e,
    })?;
    OpenOptions::new()
        .write(true)
        .truncate(false) // keep the valid prefix; set_len cuts the tail
        .open(path)
        .and_then(|f| f.set_len(valid_end as u64))
        .map_err(|e| StoreError::Io {
            path: path.to_path_buf(),
            source: e,
        })
}

/// What a scrub found wrong with one segment file (or nothing).
enum FileVerdict {
    Clean {
        records: usize,
        tuples: usize,
    },
    /// A torn (crash-truncated) trailing record in an unsealed tail —
    /// salvageable by truncating back to `valid_end`.
    Torn {
        records: usize,
        tuples: usize,
        valid_end: usize,
        detail: String,
    },
    /// Damage inside complete frames, or any damage in a sealed file —
    /// irrecoverable; the repair is quarantine.
    Corrupt {
        detail: String,
    },
}

/// Read and fully re-verify one segment file: every CRC, every payload
/// decode. Torn tails only count as salvageable in unsealed files; a
/// sealed file was renamed into place complete, so any damage in it —
/// including an apparent truncation — is corruption.
fn verify_file(path: &Path, sealed: bool) -> Result<(Vec<u8>, FileVerdict), StoreError> {
    let mut data = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut data))
        .map_err(|e| StoreError::Io {
            path: path.to_path_buf(),
            source: e,
        })?;
    let mut scratch = Vec::new();
    let verdict = match walk_records(&data, path, &mut scratch, None, None, WalkMode::Salvage) {
        Ok(w) => match w.torn_tail {
            None => FileVerdict::Clean {
                records: w.records,
                tuples: w.tuples,
            },
            Some(detail) if sealed => FileVerdict::Corrupt {
                detail: format!("torn tail in sealed segment: {detail}"),
            },
            Some(detail) => FileVerdict::Torn {
                records: w.records,
                tuples: w.tuples,
                valid_end: w.valid_end,
                detail,
            },
        },
        Err(e) => FileVerdict::Corrupt {
            detail: e.to_string(),
        },
    };
    Ok((data, verdict))
}

/// Move a corrupt segment file into the spool's `quarantine/`
/// subdirectory, returning its new path.
fn quarantine_file(dir: &Path, path: &Path) -> Result<PathBuf, StoreError> {
    let qdir = quarantine_dir(dir);
    std::fs::create_dir_all(&qdir).map_err(|e| StoreError::Io {
        path: qdir.clone(),
        source: e,
    })?;
    let dest = qdir.join(path.file_name().unwrap_or_default());
    std::fs::rename(path, &dest).map_err(|e| StoreError::Io {
        path: path.to_path_buf(),
        source: e,
    })?;
    obs_handles::quarantined_segments().inc();
    trace::event(
        Level::Warn,
        "store",
        "segment_quarantined",
        &[
            ("from", path.display().to_string().as_str().into()),
            ("to", dest.display().to_string().as_str().into()),
        ],
    );
    Ok(dest)
}

/// Scrub a spool directory offline (no open store required): walk every
/// `seg-*.bin` / `seg-*.seal` file, re-verify every checksum and payload
/// decode, and report the damage found. With `repair`, torn unsealed
/// tails are salvaged (truncated after a `.torn` sidecar backup) and
/// irrecoverably corrupt files are moved into `quarantine/`, after which
/// a [`ProvStore::resume_from_spool`] opens strict-clean (degraded reads
/// then report exactly the quarantined loss).
///
/// Backs the `ariadne scrub` CLI subcommand.
pub fn scrub_spool(dir: &Path, repair: bool) -> Result<ScrubReport, StoreError> {
    let mut report = ScrubReport {
        repaired: repair,
        ..ScrubReport::default()
    };
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(report),
        Err(e) => {
            return Err(StoreError::Io {
                path: dir.to_path_buf(),
                source: e,
            })
        }
    };
    let mut found: Vec<((u32, String), PathBuf, bool)> = Vec::new();
    let mut gen_files: Vec<PathBuf> = Vec::new();
    let mut manifest_present = false;
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::Io {
            path: dir.to_path_buf(),
            source: e,
        })?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name == v3::MANIFEST_NAME {
            manifest_present = true;
            continue;
        }
        if v3::parse_gen_name(&name).is_some() {
            gen_files.push(entry.path());
            continue;
        }
        let Some((step, pred, sealed)) = parse_segment_name(&name) else {
            continue;
        };
        found.push(((step, pred), entry.path(), sealed));
    }
    gen_files.sort();
    found.sort_by(|a, b| (&a.0, !a.2).cmp(&(&b.0, !b.2)));
    for ((step, pred), path, sealed) in found {
        report.files_checked += 1;
        let (data, verdict) = verify_file(&path, sealed)?;
        match verdict {
            FileVerdict::Clean { records, tuples } => {
                report.records_verified += records;
                report.tuples_verified += tuples;
            }
            FileVerdict::Torn {
                records,
                tuples,
                valid_end,
                detail,
            } => {
                report.records_verified += records;
                report.tuples_verified += tuples;
                let mut action = ScrubAction::None;
                if repair {
                    salvage_truncate(&path, &data, valid_end)?;
                    obs_handles::salvaged_records().add(records as u64);
                    action = ScrubAction::Salvaged;
                }
                report.damage.push(SegmentDamage {
                    path,
                    superstep: step,
                    pred,
                    sealed,
                    torn: true,
                    detail,
                    action,
                    records_kept: records,
                    bytes_lost: data.len() - valid_end,
                });
            }
            FileVerdict::Corrupt { detail } => {
                let mut action = ScrubAction::None;
                let mut reported = path.clone();
                if repair {
                    reported = quarantine_file(dir, &path)?;
                    action = ScrubAction::Quarantined;
                }
                report.damage.push(SegmentDamage {
                    path: reported,
                    superstep: step,
                    pred,
                    sealed,
                    torn: false,
                    detail,
                    action,
                    records_kept: 0,
                    bytes_lost: data.len(),
                });
            }
        }
    }
    // v3: verify the spool manifest (whole-payload CRC) and every
    // generation file (footer trailer + footer CRC + every record
    // frame). A corrupt generation file is quarantined on repair; its
    // keys are recovered from the manifest's footer mirror (the file's
    // own footer being unreadable) and recorded on the rebuilt
    // manifest's lost list so resume still knows what is missing.
    let mpath = manifest_path(dir);
    let mut manifest: Option<Manifest> = None;
    let mut manifest_ok = true;
    if manifest_present {
        report.files_checked += 1;
        let bytes = std::fs::read(&mpath).map_err(|e| StoreError::Io {
            path: mpath.clone(),
            source: e,
        })?;
        obs_handles::manifest_reads().inc();
        match v3::parse_manifest(&bytes) {
            Ok(m) => manifest = Some(m),
            Err(e) => {
                manifest_ok = false;
                report.damage.push(SegmentDamage {
                    path: mpath.clone(),
                    superstep: 0,
                    pred: "<manifest>".into(),
                    sealed: true,
                    torn: false,
                    detail: format!("spool manifest: {e}"),
                    action: ScrubAction::None,
                    records_kept: 0,
                    bytes_lost: bytes.len(),
                });
            }
        }
    }
    let mut lost: Vec<LostKey> = manifest.as_ref().map(|m| m.lost.clone()).unwrap_or_default();
    let mut gen_changed = false;
    let mut live_paths = gen_files.clone();
    for gpath in &gen_files {
        report.files_checked += 1;
        match verify_gen_file(gpath)? {
            Ok((records, tuples)) => {
                report.records_verified += records;
                report.tuples_verified += tuples;
            }
            Err(detail) => {
                let size = std::fs::metadata(gpath)
                    .map(|m| m.len() as usize)
                    .unwrap_or(0);
                let gname = gpath
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default();
                let mut action = ScrubAction::None;
                let mut reported = gpath.clone();
                if repair {
                    reported = quarantine_file(dir, gpath)?;
                    gen_changed = true;
                    live_paths.retain(|p| p != gpath);
                    let qname = reported
                        .file_name()
                        .map(|n| n.to_string_lossy().into_owned())
                        .unwrap_or_default();
                    if let Some(m) = &manifest {
                        if let Some(info) = m.live.iter().find(|g| g.name == gname) {
                            for e in &info.entries {
                                lost.push(LostKey {
                                    superstep: e.superstep,
                                    pred: e.pred.clone(),
                                    quarantine: qname.clone(),
                                });
                            }
                        }
                    }
                    action = ScrubAction::Quarantined;
                }
                report.damage.push(SegmentDamage {
                    path: reported,
                    superstep: 0,
                    pred: format!("<generation:{gname}>"),
                    sealed: true,
                    torn: false,
                    detail,
                    action,
                    records_kept: 0,
                    bytes_lost: size,
                });
            }
        }
    }
    if repair && manifest_present && (!manifest_ok || gen_changed) {
        let mut live = Vec::new();
        for gpath in &live_paths {
            let (entries, _, size) = read_gen_footer(gpath)?;
            live.push(GenFileInfo {
                name: gpath
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default(),
                size: size as u64,
                entries,
            });
        }
        // When the manifest itself was unreadable its generation number
        // is gone too; the live file names carry it.
        let generation = manifest.as_ref().map(|m| m.generation).unwrap_or_else(|| {
            live.iter()
                .filter_map(|g| v3::parse_gen_name(&g.name).map(|(gen, _)| gen))
                .max()
                .unwrap_or(0)
        });
        let m = Manifest {
            generation,
            live,
            superseded: Vec::new(),
            lost,
        };
        write_atomic(dir, &mpath, &v3::encode_manifest(&m))?;
        if !manifest_ok {
            if let Some(d) = report.damage.iter_mut().find(|d| d.pred == "<manifest>") {
                d.action = ScrubAction::Salvaged;
            }
        }
    }
    obs_handles::scrub_files().add(report.files_checked as u64);
    obs_handles::scrub_records().add(report.records_verified as u64);
    obs_handles::scrub_tuples().add(report.tuples_verified as u64);
    obs_handles::scrub_damage().add(report.damage.len() as u64);
    trace::event(
        Level::Info,
        "store",
        "scrub",
        &[
            ("dir", dir.display().to_string().as_str().into()),
            ("files_checked", report.files_checked.into()),
            ("records_verified", report.records_verified.into()),
            ("damage", report.damage.len().into()),
            ("repaired", if repair { 1u64.into() } else { 0u64.into() }),
        ],
    );
    Ok(report)
}

/// The outcome of one [`ProvStore::compact`] pass.
#[derive(Clone, Debug, Default)]
pub struct CompactReport {
    /// The generation the pass published (unchanged when there was
    /// nothing to compact).
    pub generation: u64,
    /// Segments rewritten into the new generation file.
    pub segments: usize,
    /// Tuples carried across (compaction never drops live tuples).
    pub tuples: usize,
    /// Encoded bytes read (decoded) from the old segments.
    pub bytes_in: usize,
    /// Record bytes written into the new generation file (footer
    /// excluded).
    pub bytes_out: usize,
    /// Superseded spool files deleted after the manifest swap.
    pub files_removed: usize,
}

impl CompactReport {
    /// Hand-rolled JSON (the workspace has no serde).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"generation\":{},\"segments\":{},\"tuples\":{},\"bytes_in\":{},\"bytes_out\":{},\"files_removed\":{}}}",
            self.generation, self.segments, self.tuples, self.bytes_in, self.bytes_out, self.files_removed
        )
    }
}

/// Compact a spool directory offline: resume a store over it, run
/// [`ProvStore::compact`], and return the report. Backs the
/// `ariadne compact` CLI subcommand.
pub fn compact_spool(dir: &Path) -> Result<CompactReport, StoreError> {
    let mut store = ProvStore::resume_from_spool(StoreConfig {
        spool_dir: Some(dir.to_path_buf()),
        ..StoreConfig::in_memory()
    })?;
    store.compact()
}

/// Default number of retries for transient spill IO failures
/// (interrupted/timed-out/would-block), with 1/2/4 ms backoff.
const DEFAULT_SPILL_RETRIES: u32 = 3;

/// Whether an IO failure is worth retrying. Disk-full and permission
/// errors are not: retrying cannot fix them.
fn is_transient_io(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::WouldBlock
    )
}

/// Run a spill IO operation with bounded retry-with-backoff on
/// transient failures. `op` must be idempotent (each attempt redoes the
/// whole operation from scratch). A scripted
/// [`FaultPlan::transient_io_failures`] budget injects failures before
/// the real operation runs.
fn with_spill_retries<T>(
    fault: Option<&FaultPlan>,
    path: &Path,
    mut op: impl FnMut() -> std::io::Result<T>,
) -> Result<T, StoreError> {
    let mut delay = Duration::from_millis(1);
    let mut attempt = 0u32;
    loop {
        let result = match fault {
            Some(f) if f.take_transient_io_failure() => Err(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                "injected transient io failure",
            )),
            _ => op(),
        };
        match result {
            Ok(v) => return Ok(v),
            Err(e) if attempt < DEFAULT_SPILL_RETRIES && is_transient_io(&e) => {
                attempt += 1;
                obs_handles::io_retries().inc();
                trace::event(
                    Level::Warn,
                    "store",
                    "spill_io_retry",
                    &[
                        ("attempt", u64::from(attempt).into()),
                        ("error", e.to_string().into()),
                    ],
                );
                std::thread::sleep(delay);
                delay *= 2;
            }
            Err(e) => {
                return Err(StoreError::Io {
                    path: path.to_path_buf(),
                    source: e,
                })
            }
        }
    }
}

/// `fsync` a file, charging the wall time to `store_fsync_ns`.
fn timed_sync(file: &File) -> std::io::Result<()> {
    let t0 = std::time::Instant::now();
    let r = file.sync_all();
    obs_handles::fsync_ns().add(t0.elapsed().as_nanos() as u64);
    r
}

/// `fsync` a directory's entry table, charging `store_fsync_ns`.
fn timed_sync_dir(dir: &Path) -> std::io::Result<()> {
    let t0 = std::time::Instant::now();
    let r = File::open(dir).and_then(|f| f.sync_all());
    obs_handles::fsync_ns().add(t0.elapsed().as_nanos() as u64);
    r
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

    /// Re-open a store over the spool directory a previous incarnation
    /// spilled into, validating every record of every segment file.
    ///
    /// Unsealed `seg-*.bin` tails are **salvaged** when they end in a
    /// torn (crash-truncated) partial record: the original bytes are
    /// backed up to a `.torn` sidecar, the file is truncated back to
    /// the last record boundary, and the retained records count as
    /// salvaged. Damage *inside* a file — and any damage in an
    /// atomically written `seg-*.seal` segment — is real corruption and
    /// fails typed. Files under `quarantine/` are registered so strict
    /// reads of their layers fail with [`StoreError::Quarantined`].
    ///
    /// Recovered segments are **sealed**: subsequent [`ProvStore::ingest`]
    /// calls for their (superstep, predicate) keys are dropped, which
    /// makes replaying already-persisted layers after a crash idempotent.
    /// A missing or empty spool directory yields an empty store.
    pub fn resume_from_spool(config: StoreConfig) -> Result<Self, StoreError> {
        let mut store = ProvStore::new(config);
        let Some(dir) = store.config.spool_dir.clone() else {
            return Ok(store);
        };
        let entries = match std::fs::read_dir(&dir) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(store),
            Err(e) => return Err(StoreError::Io { path: dir, source: e }),
        };
        // Collect and classify: segment files (sorted so a sealed part
        // is attached before its unsealed tail), compaction generation
        // files, the spool manifest, and interrupted-write leftovers.
        let mut found: Vec<((u32, String), PathBuf, bool)> = Vec::new();
        let mut gen_files: Vec<(PathBuf, String)> = Vec::new();
        let mut has_manifest = false;
        for entry in entries {
            let entry = entry.map_err(|e| StoreError::Io {
                path: dir.clone(),
                source: e,
            })?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".tmp") {
                // An interrupted seal or compaction write; both
                // protocols only publish via rename, so a temp file is
                // always garbage.
                let _ = std::fs::remove_file(entry.path());
                continue;
            }
            if name == v3::MANIFEST_NAME {
                has_manifest = true;
                continue;
            }
            if v3::parse_gen_name(&name).is_some() {
                gen_files.push((entry.path(), name));
                continue;
            }
            let Some((step, pred, sealed)) = parse_segment_name(&name) else {
                continue;
            };
            found.push(((step, pred), entry.path(), sealed));
        }
        if has_manifest {
            // A manifest governs which generation files are live and
            // which segment files a completed compaction superseded. A
            // corrupt manifest fails typed — `scrub --repair` rebuilds
            // it from the generation files' own footers.
            let mpath = manifest_path(&dir);
            let mut bytes = Vec::new();
            File::open(&mpath)
                .and_then(|mut f| f.read_to_end(&mut bytes))
                .map_err(|e| StoreError::Io {
                    path: mpath.clone(),
                    source: e,
                })?;
            obs_handles::manifest_reads().inc();
            let manifest = v3::parse_manifest(&bytes).map_err(|e| StoreError::Corrupt {
                path: mpath.clone(),
                detail: format!("spool manifest: {e}"),
            })?;
            store.generation = manifest.generation;
            // Superseded segment files still on disk were about to be
            // deleted when the compaction crashed (after the manifest
            // swap); finish the deletion and drop them from the walk.
            let superseded: std::collections::BTreeSet<&str> =
                manifest.superseded.iter().map(String::as_str).collect();
            found.retain(|(_, path, _)| {
                let name = path
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default();
                if superseded.contains(name.as_str()) {
                    let _ = std::fs::remove_file(path);
                    false
                } else {
                    true
                }
            });
            // Generation files the manifest does not list are orphans of
            // a superseded generation or of a compaction that crashed
            // before its manifest swap; the listed files are
            // authoritative, so orphans are deleted.
            for (path, name) in &gen_files {
                if !manifest.live.iter().any(|g| &g.name == name) {
                    let _ = std::fs::remove_file(path);
                }
            }
            // Register each live file's extents straight from the
            // manifest's footer mirror — metadata only, no record bytes
            // touched. The file's presence and size are still checked
            // so a half-deleted spool fails typed instead of at first
            // read.
            for info in &manifest.live {
                let gpath = dir.join(&info.name);
                let size = std::fs::metadata(&gpath)
                    .map(|m| m.len())
                    .map_err(|e| StoreError::Io {
                        path: gpath.clone(),
                        source: e,
                    })?;
                if size != info.size {
                    return Err(StoreError::Corrupt {
                        path: gpath,
                        detail: format!(
                            "manifest records {} bytes, file has {size}",
                            info.size
                        ),
                    });
                }
                for e in &info.entries {
                    store.tuples += e.tuples as usize;
                    store.disk_bytes += e.len as usize;
                    store.max_step = Some(store.max_step.map_or(e.superstep, |m| m.max(e.superstep)));
                    let seg = store
                        .segments
                        .entry((e.superstep, e.pred.clone()))
                        .or_default();
                    seg.sealed = true;
                    seg.disk.files.push(DiskFile {
                        path: gpath.clone(),
                        offset: e.offset,
                        bytes: e.len as usize,
                        tuples: e.tuples as usize,
                        atomic: true,
                        compacted: true,
                    });
                }
            }
            // Keys whose data a scrub repair quarantined out of a
            // generation file: the quarantined file's name no longer
            // parses to a key, so the manifest carries them.
            for lost in &manifest.lost {
                store.max_step =
                    Some(store.max_step.map_or(lost.superstep, |m| m.max(lost.superstep)));
                store.quarantined.insert(
                    (lost.superstep, lost.pred.clone()),
                    quarantine_dir(&dir).join(&lost.quarantine),
                );
            }
        } else {
            // Generation files without a manifest are leftovers of a
            // compaction that crashed before publishing: the old segment
            // files are still authoritative, so the orphans are deleted.
            for (path, _) in &gen_files {
                let _ = std::fs::remove_file(path);
            }
        }
        found.sort_by(|a, b| (&a.0, !a.2).cmp(&(&b.0, !b.2)));
        for (key, path, sealed) in found {
            let mut data = Vec::new();
            File::open(&path)
                .and_then(|mut f| f.read_to_end(&mut data))
                .map_err(|e| StoreError::Io {
                    path: path.clone(),
                    source: e,
                })?;
            let mut tuples = Vec::new();
            let mut cols = Vec::new();
            let mode = if sealed {
                WalkMode::Strict
            } else {
                WalkMode::Salvage
            };
            let walked = walk_records(&data, &path, &mut tuples, None, Some(&mut cols), mode)?;
            let mut kept = data.len();
            if let Some(detail) = walked.torn_tail {
                salvage_truncate(&path, &data, walked.valid_end)?;
                kept = walked.valid_end;
                store.salvaged += walked.records;
                obs_handles::salvaged_records().add(walked.records as u64);
                trace::event(
                    Level::Warn,
                    "store",
                    "torn_tail_salvaged",
                    &[
                        ("path", path.display().to_string().as_str().into()),
                        ("records_kept", walked.records.into()),
                        ("bytes_cut", (data.len() - walked.valid_end).into()),
                        ("detail", detail.as_str().into()),
                    ],
                );
            }
            store.tuples += tuples.len();
            store.disk_bytes += kept;
            store.max_step = Some(store.max_step.map_or(key.0, |m| m.max(key.0)));
            let seg = store.segments.entry(key).or_default();
            seg.sealed = true;
            seg.disk.files.push(DiskFile {
                path,
                offset: 0,
                bytes: kept,
                tuples: tuples.len(),
                atomic: sealed,
                compacted: false,
            });
            if seg.cols.len() < cols.len() {
                seg.cols.resize(cols.len(), ColumnStat::default());
            }
            for (agg, col) in seg.cols.iter_mut().zip(&cols) {
                agg.absorb(col);
            }
        }
        // Register segments a scrub repair moved into quarantine/, so
        // reads of their layers know data is missing.
        let qdir = quarantine_dir(&dir);
        if let Ok(entries) = std::fs::read_dir(&qdir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                if let Some((step, pred, _)) = parse_segment_name(&name.to_string_lossy()) {
                    store.max_step = Some(store.max_step.map_or(step, |m| m.max(step)));
                    store.quarantined.insert((step, pred), entry.path());
                }
            }
        }
        store.rebuild_epochs()?;
        obs_handles::resumes().inc();
        obs_handles::sealed_segments().add(store.segments.len() as u64);
        trace::event(
            Level::Info,
            "store",
            "resumed_from_spool",
            &[
                ("segments", store.segments.len().into()),
                ("tuples", store.tuples.into()),
                ("disk_bytes", store.disk_bytes.into()),
                ("salvaged_records", store.salvaged.into()),
                ("quarantined_segments", store.quarantined.len().into()),
            ],
        );
        Ok(store)
    }

    /// Scrub every segment of the open store — in-memory buffers and
    /// every spilled file, v1 and v2 — re-verifying each record's
    /// checksum and payload decode, and report the damage found.
    ///
    /// With `repair`, torn unsealed tails are salvaged (truncated after
    /// a `.torn` sidecar backup) and irrecoverably corrupt files are
    /// moved into the spool's `quarantine/` subdirectory; the store's
    /// segment index and byte/tuple accounting are updated to match, so
    /// subsequent [`ReadPolicy::Strict`] reads of undamaged layers
    /// succeed while quarantined layers fail typed (or are reported by
    /// [`ReadPolicy::Degraded`] reads as exactly the quarantined loss).
    /// In-memory damage is detection-only: it indicates a store bug, not
    /// a disk fault, and has no sidecar to repair from.
    pub fn scrub(&mut self, repair: bool) -> Result<ScrubReport, StoreError> {
        let mut report = ScrubReport {
            repaired: repair,
            ..ScrubReport::default()
        };
        // In-memory buffers: packed records verify like disk records
        // (unpacked v2 pending rows are not yet encoded — nothing to
        // verify). Strict walk; memory has no torn-tail failure mode.
        for ((step, pred), seg) in &self.segments {
            if seg.mem.is_empty() {
                continue;
            }
            let origin = PathBuf::from(format!("<mem:seg-{step}-{pred}>"));
            let mut scratch = Vec::new();
            match walk_records(&seg.mem, &origin, &mut scratch, None, None, WalkMode::Strict) {
                Ok(w) => {
                    report.records_verified += w.records;
                    report.tuples_verified += w.tuples;
                }
                Err(e) => report.damage.push(SegmentDamage {
                    path: origin,
                    superstep: *step,
                    pred: pred.clone(),
                    sealed: false,
                    torn: false,
                    detail: e.to_string(),
                    action: ScrubAction::None,
                    records_kept: 0,
                    bytes_lost: seg.mem.len(),
                }),
            }
        }
        // Disk files, with index/accounting updates on repair.
        let spool = self.config.spool_dir.clone();
        let keys: Vec<(u32, String)> = self.segments.keys().cloned().collect();
        for key in keys {
            let files = self.segments[&key].disk.files.clone();
            for file in files {
                if file.compacted {
                    // Extents of a shared generation file are scrubbed
                    // at whole-file granularity below, once per file.
                    continue;
                }
                report.files_checked += 1;
                let (data, verdict) = verify_file(&file.path, file.atomic)?;
                match verdict {
                    FileVerdict::Clean { records, tuples } => {
                        report.records_verified += records;
                        report.tuples_verified += tuples;
                    }
                    FileVerdict::Torn {
                        records,
                        tuples,
                        valid_end,
                        detail,
                    } => {
                        report.records_verified += records;
                        report.tuples_verified += tuples;
                        let mut action = ScrubAction::None;
                        if repair {
                            salvage_truncate(&file.path, &data, valid_end)?;
                            let seg = self.segments.get_mut(&key).expect("key from snapshot");
                            if let Some(f) = seg.disk.files.iter_mut().find(|f| f.path == file.path)
                            {
                                let lost_tuples = f.tuples.saturating_sub(tuples);
                                let lost_bytes = f.bytes.saturating_sub(valid_end);
                                f.bytes = valid_end;
                                f.tuples = tuples;
                                self.disk_bytes = self.disk_bytes.saturating_sub(lost_bytes);
                                self.tuples = self.tuples.saturating_sub(lost_tuples);
                            }
                            obs_handles::salvaged_records().add(records as u64);
                            self.salvaged += records;
                            action = ScrubAction::Salvaged;
                        }
                        report.damage.push(SegmentDamage {
                            path: file.path.clone(),
                            superstep: key.0,
                            pred: key.1.clone(),
                            sealed: file.atomic,
                            torn: true,
                            detail,
                            action,
                            records_kept: records,
                            bytes_lost: data.len() - valid_end,
                        });
                    }
                    FileVerdict::Corrupt { detail } => {
                        let mut action = ScrubAction::None;
                        let mut reported = file.path.clone();
                        if repair {
                            let dir = spool.as_deref().unwrap_or_else(|| {
                                file.path.parent().unwrap_or(Path::new("."))
                            });
                            reported = quarantine_file(dir, &file.path)?;
                            let seg = self.segments.get_mut(&key).expect("key from snapshot");
                            seg.disk.files.retain(|f| f.path != file.path);
                            self.disk_bytes = self.disk_bytes.saturating_sub(file.bytes);
                            self.tuples = self.tuples.saturating_sub(file.tuples);
                            self.quarantined.insert(key.clone(), reported.clone());
                            action = ScrubAction::Quarantined;
                        }
                        report.damage.push(SegmentDamage {
                            path: reported,
                            superstep: key.0,
                            pred: key.1.clone(),
                            sealed: file.atomic,
                            torn: false,
                            detail,
                            action,
                            records_kept: 0,
                            bytes_lost: data.len(),
                        });
                    }
                }
            }
        }
        // Generation files (verified whole-file: footer trailer, footer
        // CRC, every record frame) and the spool manifest (CRC over the
        // whole payload). Every byte of both is covered by some check —
        // record CRCs, the footer CRC, the trailer magic/length fields,
        // or the manifest CRC — so any single bit flip is detected.
        if let Some(dir) = self.config.spool_dir.clone() {
            let mut gen_paths: Vec<PathBuf> = Vec::new();
            for seg in self.segments.values() {
                for f in &seg.disk.files {
                    if f.compacted && !gen_paths.contains(&f.path) {
                        gen_paths.push(f.path.clone());
                    }
                }
            }
            gen_paths.sort();
            let mpath = manifest_path(&dir);
            let mut manifest_present = false;
            let mut manifest_ok = true;
            let mut lost: Vec<LostKey> = Vec::new();
            match std::fs::read(&mpath) {
                Ok(bytes) => {
                    manifest_present = true;
                    report.files_checked += 1;
                    obs_handles::manifest_reads().inc();
                    match v3::parse_manifest(&bytes) {
                        Ok(m) => lost = m.lost,
                        Err(e) => {
                            manifest_ok = false;
                            report.damage.push(SegmentDamage {
                                path: mpath.clone(),
                                superstep: 0,
                                pred: "<manifest>".into(),
                                sealed: true,
                                torn: false,
                                detail: format!("spool manifest: {e}"),
                                action: ScrubAction::None,
                                records_kept: 0,
                                bytes_lost: bytes.len(),
                            });
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => {
                    return Err(StoreError::Io {
                        path: mpath.clone(),
                        source: e,
                    })
                }
            }
            let mut gen_changed = false;
            let mut live_paths = gen_paths.clone();
            for gpath in &gen_paths {
                report.files_checked += 1;
                match verify_gen_file(gpath)? {
                    Ok((records, tuples)) => {
                        report.records_verified += records;
                        report.tuples_verified += tuples;
                    }
                    Err(detail) => {
                        let size = std::fs::metadata(gpath)
                            .map(|m| m.len() as usize)
                            .unwrap_or(0);
                        let gname = gpath
                            .file_name()
                            .map(|n| n.to_string_lossy().into_owned())
                            .unwrap_or_default();
                        let mut action = ScrubAction::None;
                        let mut reported = gpath.clone();
                        if repair {
                            reported = quarantine_file(&dir, gpath)?;
                            gen_changed = true;
                            live_paths.retain(|p| p != gpath);
                            let qname = reported
                                .file_name()
                                .map(|n| n.to_string_lossy().into_owned())
                                .unwrap_or_default();
                            // Drop every extent the file backed; the keys
                            // go into the quarantined map (and the
                            // rebuilt manifest's lost list) so reads
                            // report exactly this loss.
                            let keys: Vec<(u32, String)> =
                                self.segments.keys().cloned().collect();
                            for key in keys {
                                let seg =
                                    self.segments.get_mut(&key).expect("key from snapshot");
                                let dropped: Vec<DiskFile> = seg
                                    .disk
                                    .files
                                    .iter()
                                    .filter(|f| f.path == *gpath)
                                    .cloned()
                                    .collect();
                                if dropped.is_empty() {
                                    continue;
                                }
                                seg.disk.files.retain(|f| f.path != *gpath);
                                for f in &dropped {
                                    self.disk_bytes = self.disk_bytes.saturating_sub(f.bytes);
                                    self.tuples = self.tuples.saturating_sub(f.tuples);
                                }
                                lost.push(LostKey {
                                    superstep: key.0,
                                    pred: key.1.clone(),
                                    quarantine: qname.clone(),
                                });
                                self.quarantined.insert(key.clone(), reported.clone());
                            }
                            action = ScrubAction::Quarantined;
                        }
                        report.damage.push(SegmentDamage {
                            path: reported,
                            superstep: 0,
                            pred: format!("<generation:{gname}>"),
                            sealed: true,
                            torn: false,
                            detail,
                            action,
                            records_kept: 0,
                            bytes_lost: size,
                        });
                    }
                }
            }
            // Rebuild the manifest when it was damaged or the live set
            // changed: the surviving generation files' own footers are
            // the source of truth (conservatively: superseded empties —
            // a crashed compaction's leftovers get cleaned by resume).
            if repair && manifest_present && (!manifest_ok || gen_changed) {
                let mut live = Vec::new();
                for gpath in &live_paths {
                    let (entries, _, size) = read_gen_footer(gpath)?;
                    live.push(GenFileInfo {
                        name: gpath
                            .file_name()
                            .map(|n| n.to_string_lossy().into_owned())
                            .unwrap_or_default(),
                        size: size as u64,
                        entries,
                    });
                }
                let m = Manifest {
                    generation: self.generation,
                    live,
                    superseded: Vec::new(),
                    lost,
                };
                write_atomic(&dir, &mpath, &v3::encode_manifest(&m))?;
                if !manifest_ok {
                    if let Some(d) = report.damage.iter_mut().find(|d| d.pred == "<manifest>") {
                        d.action = ScrubAction::Salvaged;
                    }
                }
            }
        }
        // A repair can empty out the highest layer entirely (salvage
        // truncating its only segment to zero records, or quarantine
        // removing it): recompute the cached max superstep from what
        // actually remains, counting quarantined keys (their layers
        // still exist — degraded reads report the loss).
        if repair && !report.damage.is_empty() {
            self.max_step = self
                .segments
                .iter()
                .filter(|(_, s)| s.total_tuples() > 0)
                .map(|((step, _), _)| *step)
                .chain(self.quarantined.keys().map(|(step, _)| *step))
                .max();
        }
        obs_handles::scrub_files().add(report.files_checked as u64);
        obs_handles::scrub_records().add(report.records_verified as u64);
        obs_handles::scrub_tuples().add(report.tuples_verified as u64);
        obs_handles::scrub_damage().add(report.damage.len() as u64);
        trace::event(
            Level::Info,
            "store",
            "scrub",
            &[
                ("files_checked", report.files_checked.into()),
                ("records_verified", report.records_verified.into()),
                ("damage", report.damage.len().into()),
                ("repaired", if repair { 1u64.into() } else { 0u64.into() }),
            ],
        );
        Ok(report)
    }

    /// Ingest a batch of tuples for (superstep, pred), serializing them
    /// into a checksummed record. Re-ingesting into a sealed (recovered)
    /// segment is an idempotent no-op. Spill IO failures surface as
    /// typed errors naming the path.
    pub fn ingest(
        &mut self,
        superstep: u32,
        pred: &str,
        tuples: Vec<Tuple>,
    ) -> Result<(), StoreError> {
        if tuples.is_empty() {
            return Ok(());
        }
        if self.poison.is_some() {
            // Capture was downgraded by a spill failure under
            // OnSpillError::DropCapture: drop the batch, count the loss.
            self.dropped_batches += 1;
            self.dropped_tuples += tuples.len();
            return Ok(());
        }
        if let Some(fault) = &self.config.fault {
            if let Some(stall) = fault.take_ingest_stall() {
                obs_handles::faults_injected().inc();
                trace::event(
                    Level::Warn,
                    "store::fault",
                    "injected_ingest_stall",
                    &[("millis", (stall.as_millis() as u64).into())],
                );
                std::thread::sleep(stall);
            }
        }
        self.max_step = Some(self.max_step.map_or(superstep, |m| m.max(superstep)));
        let seg = self
            .segments
            .entry((superstep, pred.to_string()))
            .or_default();
        if seg.sealed {
            // This layer was fully persisted before the crash we are
            // recovering from; the replay's re-ingest is dropped.
            return Ok(());
        }
        self.tuples += tuples.len();
        obs_handles::ingest_batches().inc();
        obs_handles::ingest_tuples().add(tuples.len() as u64);
        match self.config.format {
            SegmentFormat::V1 => {
                let batch = encode_tuples(&tuples);
                seg.mem_tuples += tuples.len();
                let before = seg.mem.len();
                append_record(&mut seg.mem, &batch);
                let appended = seg.mem.len() - before;
                self.mem_bytes += appended;
                obs_handles::ingest_bytes().add(appended as u64);
            }
            SegmentFormat::V2 | SegmentFormat::V3 => {
                // Buffer rows; the columnar pack happens at the
                // threshold, before any spill, and at pack_all/finish.
                let added = if seg.pending.is_empty() {
                    RECORD_OVERHEAD + v1_batch_size(&tuples)
                } else {
                    // Joining an existing pending record estimate: only
                    // the per-tuple bytes grow (shared count prefix).
                    v1_batch_size(&tuples) - 4
                };
                seg.pending.extend(tuples);
                seg.pending_bytes += added;
                self.mem_bytes += added;
                obs_handles::ingest_bytes().add(added as u64);
                if seg.pending.len() >= PACK_THRESHOLD {
                    let key = (superstep, pred.to_string());
                    self.pack_key(&key);
                }
            }
        }
        match self.maybe_spill() {
            Ok(()) => Ok(()),
            Err(e) if self.config.on_spill_error == OnSpillError::DropCapture => {
                // Poison the store instead of aborting the run: already-
                // captured provenance (memory + spool) stays readable in
                // degraded mode; everything from here on is dropped.
                let err = Arc::new(e);
                trace::event(
                    Level::Error,
                    "store",
                    "capture_dropped",
                    &[("error", err.to_string().into())],
                );
                self.poison = Some(err);
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Pack one segment's pending rows into a columnar record, fixing up
    /// store byte accounting (estimate out, actual encoded size in).
    fn pack_key(&mut self, key: &(u32, String)) {
        let Some(seg) = self.segments.get_mut(key) else {
            return;
        };
        if seg.pending.is_empty() {
            return;
        }
        let t0 = std::time::Instant::now();
        let compress = self.config.format == SegmentFormat::V3;
        let rows = std::mem::take(&mut seg.pending);
        let est = std::mem::take(&mut seg.pending_bytes);
        let before = seg.mem.len();
        match encode_columnar(&rows) {
            Some(batch) => {
                if compress {
                    append_record_best(&mut seg.mem, 2, &batch.payload);
                } else {
                    append_record_v2(&mut seg.mem, &batch.payload);
                }
                if seg.cols.len() < batch.columns.len() {
                    seg.cols.resize(batch.columns.len(), ColumnStat::default());
                }
                for ((agg, col), enc) in
                    seg.cols.iter_mut().zip(&batch.columns).zip(&batch.encodings)
                {
                    agg.absorb(col);
                    obs_handles::encoding_hist(*enc).record(col.encoded_bytes as u64);
                }
            }
            // Ragged/empty batches have no columnar form: fall back to a
            // v1 record inside the v2 store (readers dispatch per record).
            None => {
                let raw = encode_tuples(&rows);
                if compress {
                    append_record_best(&mut seg.mem, 1, &raw);
                } else {
                    append_record(&mut seg.mem, &raw);
                }
            }
        }
        let appended = seg.mem.len() - before;
        seg.mem_tuples += rows.len();
        self.mem_bytes = self.mem_bytes - est + appended;
        obs_handles::packs().inc();
        obs_handles::encoded_bytes().add(appended as u64);
        obs_handles::encode_ns().add(t0.elapsed().as_nanos() as u64);
        trace::event(
            Level::Debug,
            "store",
            "pack",
            &[
                ("superstep", key.0.into()),
                ("pred", key.1.as_str().into()),
                ("rows", rows.len().into()),
                ("est_bytes", est.into()),
                ("encoded_bytes", appended.into()),
            ],
        );
    }

    /// Pack every segment's pending rows. Called by the writer thread
    /// before handing the store back (so `byte_size` reports fully
    /// encoded bytes); direct [`ProvStore`] users should call it before
    /// comparing byte accounting across formats.
    pub fn pack_all(&mut self) {
        let keys: Vec<_> = self
            .segments
            .iter()
            .filter(|(_, s)| !s.pending.is_empty())
            .map(|(k, _)| k.clone())
            .collect();
        for key in keys {
            self.pack_key(&key);
        }
    }

    fn maybe_spill(&mut self) -> Result<(), StoreError> {
        let Some(dir) = self.config.spool_dir.clone() else {
            return Ok(());
        };
        let mut dir_ready = false;
        while self.mem_bytes > self.config.memory_budget {
            // Spill the largest in-memory segment (pending rows count at
            // their record estimate).
            let key = match self
                .segments
                .iter()
                .filter(|(_, s)| !s.mem.is_empty() || !s.pending.is_empty())
                .max_by_key(|(_, s)| s.mem.len() + s.pending_bytes)
            {
                Some((k, _)) => k.clone(),
                None => return Ok(()),
            };
            // Pending rows must be packed first: the spool only ever
            // holds whole checksummed records. Packing can shrink
            // mem_bytes under the budget, in which case no spill is
            // needed after all.
            self.pack_key(&key);
            if self.mem_bytes <= self.config.memory_budget {
                continue;
            }
            if !dir_ready {
                // Lazy spool-dir creation: only a store that actually
                // spills needs the directory to exist. Under durable
                // levels the new directory entry is synced too.
                std::fs::create_dir_all(&dir).map_err(|e| StoreError::Io {
                    path: dir.clone(),
                    source: e,
                })?;
                if self.config.durability != Durability::None {
                    if let Some(parent) = dir.parent() {
                        let _ = timed_sync_dir(parent);
                    }
                }
                dir_ready = true;
            }
            self.spill_segment(&dir, &key)?;
        }
        Ok(())
    }

    /// Spill one segment's in-memory records to the spool, honouring the
    /// configured [`Durability`] level and any scripted faults. On
    /// failure the in-memory records are restored, so a store kept
    /// alive by [`OnSpillError::DropCapture`] still serves them.
    fn spill_segment(&mut self, dir: &Path, key: &(u32, String)) -> Result<(), StoreError> {
        // Scripted faults. `take_spill_failure` owns the attempt
        // counter; the other hooks key off the same ordinal.
        let fault = self.config.fault.clone();
        let mut attempt = 0u64;
        if let Some(fault) = &fault {
            if fault.take_spill_failure() {
                obs_handles::faults_injected().inc();
                trace::event(
                    Level::Warn,
                    "store::fault",
                    "injected_spill_failure",
                    &[("attempt", (fault.spill_attempts() - 1).into())],
                );
                return Err(StoreError::InjectedSpillFailure {
                    attempt: fault.spill_attempts() - 1,
                });
            }
            attempt = fault.spill_attempts() - 1;
        }
        let seg = self.segments.get_mut(key).expect("segment exists");
        let mem = std::mem::take(&mut seg.mem);
        let mem_tuples = std::mem::replace(&mut seg.mem_tuples, 0);
        let existing = seg.disk.files.clone();
        let spilling = mem.len();

        match self.spill_io(
            dir,
            key,
            &mem,
            mem_tuples,
            &existing,
            attempt,
            fault.as_deref(),
        ) {
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

    /// The IO half of a spill write: push `mem` to the spool under the
    /// configured durability level and return the segment's new
    /// disk-file list. Does not touch segment state.
    #[allow(clippy::too_many_arguments)]
    fn spill_io(
        &self,
        dir: &Path,
        key: &(u32, String),
        mem: &[u8],
        mem_tuples: usize,
        existing: &[DiskFile],
        attempt: u64,
        fault: Option<&FaultPlan>,
    ) -> Result<Vec<DiskFile>, StoreError> {
        if let Some(fault) = fault {
            if fault.take_enospc((self.disk_bytes + mem.len()) as u64) {
                obs_handles::faults_injected().inc();
                trace::event(
                    Level::Warn,
                    "store::fault",
                    "injected_enospc",
                    &[("disk_bytes", self.disk_bytes.into())],
                );
                return Err(StoreError::Io {
                    path: segment_path(dir, key.0, &key.1),
                    source: std::io::Error::other("injected ENOSPC: no space left on device"),
                });
            }
        }
        // A scripted bit flip silently corrupts the bytes on their way
        // to disk (scrub-detection tests); a torn write persists only a
        // prefix and then fails like a crash.
        let mut payload = std::borrow::Cow::Borrowed(mem);
        let mut torn_at: Option<usize> = None;
        if let Some(fault) = fault {
            if fault.take_bit_flip(attempt) {
                obs_handles::faults_injected().inc();
                let mut owned = payload.into_owned();
                let mid = owned.len() / 2;
                if let Some(b) = owned.get_mut(mid) {
                    *b ^= 0x01;
                }
                trace::event(
                    Level::Warn,
                    "store::fault",
                    "injected_bit_flip",
                    &[("attempt", attempt.into()), ("offset", mid.into())],
                );
                payload = std::borrow::Cow::Owned(owned);
            }
            if let Some(keep) = fault.take_torn_write(attempt) {
                obs_handles::faults_injected().inc();
                trace::event(
                    Level::Warn,
                    "store::fault",
                    "injected_torn_write",
                    &[("attempt", attempt.into()), ("keep_bytes", keep.into())],
                );
                torn_at = Some(keep.min(payload.len()));
            }
        }

        match self.config.durability {
            Durability::None | Durability::Spill => {
                let path = segment_path(dir, key.0, &key.1);
                let fsync = self.config.durability == Durability::Spill;
                let new_file = !path.exists();
                // Append whole records to the unsealed tail. The write
                // is made retry-idempotent by truncating back to the
                // pre-write length before every attempt.
                let before = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                with_spill_retries(fault, &path, || {
                    let mut file = OpenOptions::new()
                        .create(true)
                        .write(true)
                        .truncate(false) // set_len below resets to the pre-write length
                        .open(&path)?;
                    file.set_len(before)?;
                    std::io::Seek::seek(&mut file, std::io::SeekFrom::Start(before))?;
                    if let Some(keep) = torn_at {
                        // Crash mid-record: persist the prefix, fail.
                        file.write_all(&payload[..keep])?;
                        let _ = file.sync_all();
                        return Err(std::io::Error::other(
                            "injected torn write (crash mid-record)",
                        ));
                    }
                    file.write_all(&payload)?;
                    if fsync {
                        timed_sync(&file)?;
                    }
                    Ok(())
                })?;
                if fsync && new_file {
                    let _ = timed_sync_dir(dir);
                }
                let mut files = existing.to_vec();
                match files.iter_mut().find(|f| f.path == path) {
                    Some(f) => {
                        f.bytes += mem.len();
                        f.tuples += mem_tuples;
                    }
                    None => files.push(DiskFile {
                        path,
                        offset: 0,
                        bytes: mem.len(),
                        tuples: mem_tuples,
                        atomic: false,
                        compacted: false,
                    }),
                }
                Ok(files)
            }
            Durability::Seal => {
                // Atomic full rewrite: old sealed bytes (plus any .bin
                // tail left by a previous, less-durable incarnation) and
                // the new records land in a temp file that is synced and
                // renamed over the .seal path. The spool never holds a
                // torn sealed segment — write amplification proportional
                // to the segment size is the price.
                let seal_path = sealed_segment_path(dir, key.0, &key.1);
                // Compacted generation extents are owned by the spool
                // manifest, not by this segment's seal: absorbing their
                // bytes would duplicate the records on the next resume
                // (the generation file stays manifest-listed). They
                // remain independent leading parts; only plain segment
                // files are absorbed into the rewrite.
                let (kept, absorbed): (Vec<DiskFile>, Vec<DiskFile>) =
                    existing.iter().cloned().partition(|f| f.compacted);
                let mut full = Vec::new();
                for f in &absorbed {
                    let data = read_extent(
                        ReadBackend::Buffered,
                        &f.path,
                        f.offset,
                        f.bytes,
                        f.atomic,
                    )
                    .map_err(|e| StoreError::Io {
                        path: f.path.clone(),
                        source: e,
                    })?;
                    full.extend_from_slice(&data);
                }
                full.extend_from_slice(&payload);
                let tmp = {
                    let mut name = seal_path.as_os_str().to_os_string();
                    name.push(".tmp");
                    PathBuf::from(name)
                };
                with_spill_retries(fault, &seal_path, || {
                    let mut file = File::create(&tmp)?;
                    if let Some(keep) = torn_at {
                        // Crash mid-seal: only the temp file is torn;
                        // the published .seal is untouched.
                        let cut = full.len() - payload.len() + keep;
                        file.write_all(&full[..cut])?;
                        let _ = file.sync_all();
                        return Err(std::io::Error::other(
                            "injected torn write (crash mid-seal)",
                        ));
                    }
                    file.write_all(&full)?;
                    timed_sync(&file)?;
                    std::fs::rename(&tmp, &seal_path)?;
                    Ok(())
                })?;
                let _ = timed_sync_dir(dir);
                // Absorbed files are now part of the sealed rewrite;
                // remove a stale .bin tail so resume does not double
                // count it.
                for f in &absorbed {
                    if !f.atomic && f.path != seal_path {
                        let _ = std::fs::remove_file(&f.path);
                    }
                }
                let absorbed_tuples: usize = absorbed.iter().map(|f| f.tuples).sum();
                let mut files = kept;
                files.push(DiskFile {
                    path: seal_path,
                    offset: 0,
                    bytes: full.len(),
                    tuples: absorbed_tuples + mem_tuples,
                    atomic: true,
                    compacted: false,
                });
                Ok(files)
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
        filter: Option<&std::collections::BTreeSet<String>>,
    ) -> Result<LayerRead, StoreError> {
        let lf = match filter {
            None => LayerFilter::all(),
            Some(preds) => LayerFilter::for_preds(preds.clone()),
        };
        self.layer_read(superstep, &lf)
    }

    /// One provenance layer through a [`LayerFilter`]: predicate-level
    /// segment pruning plus column-selective decode. Masked-out columns
    /// decode as [`Value::Unit`] without materializing the stored
    /// values; for v2 records the whole encoded column block is skipped.
    /// Uses [`ReadPolicy::Strict`]; see [`ProvStore::layer_read_with`].
    pub fn layer_read(&self, superstep: u32, filter: &LayerFilter) -> Result<LayerRead, StoreError> {
        self.layer_read_with(superstep, filter, ReadPolicy::Strict)
    }

    /// [`ProvStore::layer_read`] with an explicit [`ReadPolicy`]. Under
    /// [`ReadPolicy::Strict`] any damage — a corrupt record, a
    /// quarantined segment of this layer, or a poisoned store — is a
    /// typed error. Under [`ReadPolicy::Degraded`] damaged records are
    /// skipped, quarantined segments are counted, and the exact loss is
    /// reported on [`LayerRead::degradation`].
    pub fn layer_read_with(
        &self,
        superstep: u32,
        filter: &LayerFilter,
        policy: ReadPolicy,
    ) -> Result<LayerRead, StoreError> {
        if self.epochs.is_empty() {
            self.physical_layer_read_with(superstep, filter, policy)
        } else {
            self.logical_layer_read(superstep, filter, policy)
        }
    }

    /// Read one **physical** layer, ignoring the epoch table. This is
    /// the storage-level view: after [`ProvStore::append_epoch`], a
    /// physical layer of a delta epoch holds diff segments
    /// (`~add~pred` / `~del~pred` / replacements), not materialized
    /// logical content — use [`ProvStore::layer_read_with`] for that.
    pub fn physical_layer_read_with(
        &self,
        superstep: u32,
        filter: &LayerFilter,
        policy: ReadPolicy,
    ) -> Result<LayerRead, StoreError> {
        let _read_span = trace::span(
            Level::Trace,
            "store",
            "layer_read",
            &[("superstep", u64::from(superstep).into())],
        );
        let mut out = LayerRead::default();
        if let Some(poison) = &self.poison {
            match policy {
                ReadPolicy::Strict => {
                    return Err(StoreError::Degraded {
                        detail: "store poisoned: capture dropped after a spill failure".into(),
                        source: Some(Arc::clone(poison)),
                    })
                }
                ReadPolicy::Degraded => out.degradation.note(format!(
                    "store poisoned: capture dropped after a spill failure ({poison}); \
                     {} batches / {} tuples lost",
                    self.dropped_batches, self.dropped_tuples
                )),
            }
        }
        for ((_, pred), qpath) in self.quarantined.range(layer_bounds(superstep)) {
            if !filter.wants(pred) {
                continue;
            }
            match policy {
                ReadPolicy::Strict => {
                    return Err(StoreError::Quarantined {
                        path: qpath.clone(),
                        source: None,
                    })
                }
                ReadPolicy::Degraded => {
                    out.degradation.segments_skipped += 1;
                    out.degradation
                        .note(format!("{}: quarantined", qpath.display()));
                }
            }
        }
        for ((_, pred), seg) in self.segments.range(layer_bounds(superstep)) {
            if !filter.wants(pred) {
                out.segments_skipped += 1;
                out.bytes_skipped += seg.total_bytes();
                continue;
            }
            let mut tuples = Vec::with_capacity(seg.total_tuples());
            let (bytes, counts, damage) = seg.decode_into(
                self.config.read_backend,
                filter.mask(pred),
                &mut tuples,
                None,
                policy,
            )?;
            out.bytes_read += bytes;
            out.cols_skipped += counts.cols_skipped;
            out.col_bytes_skipped += counts.col_bytes_skipped;
            out.degradation.absorb(&damage);
            out.segments_read += 1;
            out.tuples.push((pred.clone(), tuples));
        }
        obs_handles::segments_read().add(out.segments_read as u64);
        obs_handles::segments_skipped().add(out.segments_skipped as u64);
        obs_handles::col_bytes_skipped().add(out.col_bytes_skipped as u64);
        Ok(out)
    }

    /// The largest **logical** superstep, if any. For a store with no
    /// epochs this is the largest captured physical layer, maintained
    /// O(1) on ingest and spool resume; after
    /// [`ProvStore::append_epoch`] it is the current epoch's last
    /// superstep (older epochs' layers remain stored but are history,
    /// not current state).
    pub fn max_superstep(&self) -> Option<u32> {
        match self.epochs.last() {
            None => self.max_step,
            Some(info) => info.supersteps.checked_sub(1),
        }
    }

    /// The largest physical layer present, ignoring the epoch table.
    pub fn physical_max_superstep(&self) -> Option<u32> {
        self.max_step
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

    /// Materialize one logical layer of an epoch-layered store by
    /// folding the epoch chain: start from the base capture's layer,
    /// then per delta epoch apply full replacements, `~add~` suffixes
    /// and `~del~` tombstones. Column masks are applied *after*
    /// materialization (the fold must compare raw tuples), so the
    /// column-skip byte accounting of the physical fast path does not
    /// apply here — `cols_skipped` stays 0 on this path.
    fn logical_layer_read(
        &self,
        superstep: u32,
        filter: &LayerFilter,
        policy: ReadPolicy,
    ) -> Result<LayerRead, StoreError> {
        // Widen the predicate allow-set to the diff spellings.
        let chain_filter = match &filter.preds {
            None => LayerFilter::all(),
            Some(set) => {
                let mut wide = set.clone();
                for p in set {
                    wide.insert(epoch::shadow_add(p));
                    wide.insert(epoch::shadow_del(p));
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
                if pred == epoch::EPOCH_MARKER {
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
                for t in &mut tuples {
                    for (i, v) in t.iter_mut().enumerate() {
                        if !mask.get(i).copied().unwrap_or(true) {
                            *v = Value::Unit;
                        }
                    }
                }
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
            let mut new_preds: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
            for (pred, mut new_tuples) in new_layer {
                if epoch::is_reserved(&pred) {
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
                            &epoch::shadow_add(&pred),
                            new_tuples[old.len()..].to_vec(),
                        )?;
                        stats.appended += 1;
                    }
                    _ if new_tuples.is_empty() => {
                        if old_layer.get(&pred).is_some_and(|o| !o.is_empty()) {
                            self.ingest(
                                base + s,
                                &epoch::shadow_del(&pred),
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
                    self.ingest(base + s, &epoch::shadow_del(pred), vec![vec![Value::Int(0)]])?;
                    stats.tombstoned += 1;
                }
            }
        }
        self.ingest(
            base,
            epoch::EPOCH_MARKER,
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
    fn rebuild_epochs(&mut self) -> Result<(), StoreError> {
        let mut markers: Vec<(i64, i64, i64)> = Vec::new();
        for ((_, pred), seg) in &self.segments {
            if pred != epoch::EPOCH_MARKER {
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

    /// Load everything into one database (centralized evaluation). One
    /// pass over the segment index in (superstep, predicate) order — no
    /// per-layer range scans, and empty layers cost nothing. Strict: a
    /// poisoned store or quarantined segment is a typed error (partial
    /// evaluation over a full-database load would be silently wrong).
    pub fn to_database(&self) -> Result<Database, StoreError> {
        if let Some(poison) = &self.poison {
            return Err(StoreError::Degraded {
                detail: "store poisoned: capture dropped after a spill failure".into(),
                source: Some(Arc::clone(poison)),
            });
        }
        if let Some(path) = self.quarantined.values().next() {
            return Err(StoreError::Quarantined {
                path: path.clone(),
                source: None,
            });
        }
        if !self.epochs.is_empty() {
            // Epoch-layered store: materialize each logical layer (the
            // physical index interleaves diff segments with history).
            let mut db = Database::new();
            if let Some(max) = self.max_superstep() {
                for s in 0..=max {
                    let read = self.layer_read_with(s, &LayerFilter::all(), ReadPolicy::Strict)?;
                    for (pred, tuples) in read.tuples {
                        for t in tuples {
                            db.insert(&pred, t);
                        }
                    }
                }
            }
            return Ok(db);
        }
        let mut db = Database::new();
        for ((_, pred), seg) in &self.segments {
            let mut tuples = Vec::with_capacity(seg.total_tuples());
            seg.decode_into(
                self.config.read_backend,
                None,
                &mut tuples,
                None,
                ReadPolicy::Strict,
            )?;
            for t in tuples {
                db.insert(pred, t);
            }
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

    /// The spill failure that poisoned this store, if any. A poisoned
    /// store (see [`OnSpillError::DropCapture`]) dropped capture after
    /// the failure; [`ReadPolicy::Strict`] reads refuse it.
    pub fn poisoned(&self) -> Option<&StoreError> {
        self.poison.as_deref()
    }

    /// Batches dropped after the store was poisoned.
    pub fn dropped_batches(&self) -> usize {
        self.dropped_batches
    }

    /// Tuples dropped after the store was poisoned.
    pub fn dropped_tuples(&self) -> usize {
        self.dropped_tuples
    }

    /// The current compaction generation (0 = never compacted).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Compaction passes performed by this incarnation.
    pub fn compactions(&self) -> usize {
        self.compactions
    }

    /// Switch the segment read backend on a live store (reads only —
    /// safe at any point; see [`ReadBackend`]).
    pub fn set_read_backend(&mut self, backend: ReadBackend) {
        self.config.read_backend = backend;
    }

    /// Compact the spool into a fresh generation: strictly decode every
    /// segment (memory and disk, any record format), re-encode each
    /// (superstep, predicate) key into one contiguous extent of a
    /// single `gen-{G}-0.ars3` file with an indexed footer, publish it
    /// by atomically swapping the spool manifest, and only then delete
    /// the superseded files. Small records merge into large re-encoded
    /// ones (fewer frame overheads, better column encodings, LZ when it
    /// wins), v1 records are upgraded, and quarantined bytes are left
    /// behind in `quarantine/`.
    ///
    /// Crash safety: the generation file and the manifest are both
    /// written temp-file + fsync + rename. A crash before the manifest
    /// swap leaves the old files authoritative (resume deletes the
    /// orphans); a crash after it leaves the new generation
    /// authoritative (resume finishes deleting the superseded files).
    /// At no point is the spool unrecoverable. Scripted
    /// [`FaultPlan::kill_at_compact_step`] crashes exercise every step.
    pub fn compact(&mut self) -> Result<CompactReport, StoreError> {
        let Some(dir) = self.config.spool_dir.clone() else {
            // No spool, nothing on disk to compact.
            return Ok(CompactReport {
                generation: self.generation,
                ..CompactReport::default()
            });
        };
        if let Some(poison) = &self.poison {
            return Err(StoreError::Degraded {
                detail: "store poisoned: refusing to compact after capture was dropped".into(),
                source: Some(Arc::clone(poison)),
            });
        }
        let _compact_span = trace::span(
            Level::Debug,
            "store",
            "compact_pass",
            &[("generation", (self.generation + 1).into())],
        );
        self.pack_all();
        let fault = self.config.fault.clone();
        let kill = |step: u32| -> Result<(), StoreError> {
            if let Some(f) = fault.as_deref() {
                if f.take_compact_kill(step) {
                    obs_handles::faults_injected().inc();
                    trace::event(
                        Level::Warn,
                        "store::fault",
                        "injected_compact_kill",
                        &[("step", u64::from(step).into())],
                    );
                    return Err(StoreError::Io {
                        path: manifest_path(&dir),
                        source: std::io::Error::other(format!(
                            "injected crash at compaction step {step}"
                        )),
                    });
                }
            }
            Ok(())
        };

        // Decode and re-encode. Strict policy: compaction refuses to
        // run over damage (scrub first), so it can never bake loss into
        // a new generation silently.
        let encode_started = Instant::now();
        let mut report = CompactReport::default();
        let gen = self.generation + 1;
        let gen_name = v3::gen_file_name(gen, 0);
        let gpath = dir.join(&gen_name);
        let mut buf: Vec<u8> = Vec::new();
        let mut entries: Vec<FooterEntry> = Vec::new();
        let mut processed: Vec<(u32, String)> = Vec::new();
        let mut old_paths: std::collections::BTreeSet<PathBuf> = std::collections::BTreeSet::new();
        for (key, seg) in &self.segments {
            if seg.disk.files.is_empty() && seg.mem.is_empty() {
                continue;
            }
            let mut tuples = Vec::new();
            let (bytes, _, _) = seg.decode_into(
                ReadBackend::Buffered,
                None,
                &mut tuples,
                None,
                ReadPolicy::Strict,
            )?;
            report.bytes_in += bytes;
            for f in &seg.disk.files {
                old_paths.insert(f.path.clone());
            }
            processed.push(key.clone());
            if tuples.is_empty() {
                continue;
            }
            let offset = buf.len() as u64;
            // Large merged records, bounded so a reader's
            // MAX_DECODE_CELLS guard never rejects them.
            let arity = tuples.first().map_or(1, |t| t.len()).max(1);
            let max_rows = (MAX_DECODE_CELLS / arity).max(1);
            let mut records = 0u32;
            for chunk in tuples.chunks(max_rows) {
                match encode_columnar(chunk) {
                    Some(batch) => {
                        append_record_best(&mut buf, 2, &batch.payload);
                    }
                    None => {
                        append_record_best(&mut buf, 1, &encode_tuples(chunk));
                    }
                }
                records += 1;
            }
            entries.push(FooterEntry {
                superstep: key.0,
                pred: key.1.clone(),
                offset,
                len: buf.len() as u64 - offset,
                tuples: tuples.len() as u64,
                records,
            });
            report.segments += 1;
            report.tuples += tuples.len();
        }
        if processed.is_empty() {
            return Ok(CompactReport {
                generation: self.generation,
                ..CompactReport::default()
            });
        }
        report.bytes_out = buf.len();
        report.generation = gen;
        buf.extend_from_slice(&v3::encode_footer(&entries));

        // Publish: gen file, then manifest, then deletions — with a
        // scripted kill point between every pair of steps.
        std::fs::create_dir_all(&dir).map_err(|e| StoreError::Io {
            path: dir.clone(),
            source: e,
        })?;
        let io = |path: &PathBuf| {
            let path = path.clone();
            move |e: std::io::Error| StoreError::Io {
                path: path.clone(),
                source: e,
            }
        };
        obs_handles::compact_encode_ns().add(encode_started.elapsed().as_nanos() as u64);
        kill(0)?;
        let step_started = Instant::now();
        let gtmp = {
            let mut name = gpath.as_os_str().to_os_string();
            name.push(".tmp");
            PathBuf::from(name)
        };
        {
            let mut file = File::create(&gtmp).map_err(io(&gpath))?;
            file.write_all(&buf).map_err(io(&gpath))?;
            timed_sync(&file).map_err(io(&gpath))?;
        }
        obs_handles::compact_gen_write_ns().add(step_started.elapsed().as_nanos() as u64);
        kill(1)?;
        let step_started = Instant::now();
        std::fs::rename(&gtmp, &gpath).map_err(io(&gpath))?;
        let _ = timed_sync_dir(&dir);
        obs_handles::compact_gen_publish_ns().add(step_started.elapsed().as_nanos() as u64);
        kill(2)?;
        let step_started = Instant::now();
        let superseded: Vec<String> = old_paths
            .iter()
            .filter(|p| **p != gpath)
            .filter_map(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
            .collect();
        let lost: Vec<LostKey> = self
            .quarantined
            .iter()
            .map(|((step, pred), qpath)| LostKey {
                superstep: *step,
                pred: pred.clone(),
                quarantine: qpath
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default(),
            })
            .collect();
        let manifest = Manifest {
            generation: gen,
            live: vec![GenFileInfo {
                name: gen_name.clone(),
                size: buf.len() as u64,
                entries: entries.clone(),
            }],
            superseded,
            lost,
        };
        let mbytes = v3::encode_manifest(&manifest);
        let mpath = manifest_path(&dir);
        let mtmp = {
            let mut name = mpath.as_os_str().to_os_string();
            name.push(".tmp");
            PathBuf::from(name)
        };
        {
            let mut file = File::create(&mtmp).map_err(io(&mpath))?;
            file.write_all(&mbytes).map_err(io(&mpath))?;
            timed_sync(&file).map_err(io(&mpath))?;
        }
        obs_handles::compact_manifest_write_ns().add(step_started.elapsed().as_nanos() as u64);
        kill(3)?;
        let step_started = Instant::now();
        std::fs::rename(&mtmp, &mpath).map_err(io(&mpath))?;
        let _ = timed_sync_dir(&dir);
        obs_handles::compact_manifest_publish_ns().add(step_started.elapsed().as_nanos() as u64);
        kill(4)?;
        let step_started = Instant::now();
        for path in &old_paths {
            if *path != gpath && std::fs::remove_file(path).is_ok() {
                report.files_removed += 1;
            }
        }
        obs_handles::compact_gc_ns().add(step_started.elapsed().as_nanos() as u64);

        // Point the in-memory segments at their new extents and refresh
        // the store-wide byte accounting.
        for key in &processed {
            let seg = self.segments.get_mut(key).expect("processed key exists");
            seg.disk.files.clear();
            seg.mem.clear();
            seg.mem_tuples = 0;
        }
        for e in &entries {
            let seg = self
                .segments
                .get_mut(&(e.superstep, e.pred.clone()))
                .expect("compacted key exists");
            seg.mem_tuples = 0;
            seg.disk.files = vec![DiskFile {
                path: gpath.clone(),
                offset: e.offset,
                bytes: e.len as usize,
                tuples: e.tuples as usize,
                atomic: true,
                compacted: true,
            }];
        }
        self.mem_bytes = self
            .segments
            .values()
            .map(|s| s.mem.len() + s.pending_bytes)
            .sum();
        self.disk_bytes = self.segments.values().map(|s| s.disk.bytes()).sum();
        self.generation = gen;
        self.compactions += 1;
        obs_handles::compactions().inc();
        obs_handles::compact_bytes_in().add(report.bytes_in as u64);
        obs_handles::compact_bytes_out().add(report.bytes_out as u64);
        trace::event(
            Level::Info,
            "store",
            "compact",
            &[
                ("generation", gen.into()),
                ("segments", report.segments.into()),
                ("tuples", report.tuples.into()),
                ("bytes_in", report.bytes_in.into()),
                ("bytes_out", report.bytes_out.into()),
                ("files_removed", report.files_removed.into()),
            ],
        );
        Ok(report)
    }
}

enum WriterMsg {
    Ingest {
        superstep: u32,
        pred: String,
        tuples: Vec<Tuple>,
    },
    Finish,
}

/// Asynchronous ingestion front-end: tuples are sent over a channel to a
/// writer thread owning the store, so the analytic's supersteps never
/// block on serialization or spill IO.
///
/// # Abandonment invariant
///
/// [`StoreWriter::finish_timeout`] may give up on a writer thread that
/// does not drain in time. An abandoned writer is **fenced**: a shared
/// flag is raised before the timeout error is returned, and the writer
/// checks it between batches, so it stops ingesting (and stops touching
/// the spool directory) at the next batch boundary instead of racing a
/// subsequent [`ProvStore::resume_from_spool`] indefinitely. A batch
/// already in flight when the fence rises completes its spill write in
/// full, so the spool only ever holds whole checksummed records; the one
/// residual race — resuming while that final write is still in progress
/// — is detected by record validation and surfaces as a typed
/// [`StoreError::Corrupt`], never as silent corruption.
pub struct StoreWriter {
    sender: Sender<WriterMsg>,
    done: crossbeam::channel::Receiver<Result<ProvStore, StoreError>>,
    handle: JoinHandle<()>,
    /// Raised by a timed-out finish; the writer thread checks it between
    /// batches and stops ingesting once it is set.
    abandoned: Arc<std::sync::atomic::AtomicBool>,
    /// Batches queued but not yet consumed by the writer thread, so a
    /// finish timeout can report how far behind the writer was.
    pending: Arc<std::sync::atomic::AtomicU64>,
}

/// Cloneable ingestion handle usable from vertex programs.
#[derive(Clone)]
pub struct StoreSender {
    sender: Sender<WriterMsg>,
    pending: Arc<std::sync::atomic::AtomicU64>,
}

impl StoreSender {
    /// Queue a batch for ingestion. If the writer thread has died (for
    /// example after a spill failure) the batch is dropped; the failure
    /// itself is reported by [`StoreWriter::finish`], keeping this
    /// hot-path call infallible.
    pub fn ingest(&self, superstep: u32, pred: &str, tuples: Vec<Tuple>) {
        if tuples.is_empty() {
            return;
        }
        self.pending
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let _ = self.sender.send(WriterMsg::Ingest {
            superstep,
            pred: pred.to_string(),
            tuples,
        });
    }
}

impl StoreWriter {
    /// Spawn the writer thread over a fresh store.
    pub fn spawn(config: StoreConfig) -> Self {
        Self::spawn_with(move || Ok(ProvStore::new(config)))
    }

    /// Spawn the writer thread over a store recovered from its spool
    /// directory (crash recovery; see [`ProvStore::resume_from_spool`]).
    pub fn spawn_resuming(config: StoreConfig) -> Self {
        Self::spawn_with(move || ProvStore::resume_from_spool(config))
    }

    fn spawn_with<F>(make: F) -> Self
    where
        F: FnOnce() -> Result<ProvStore, StoreError> + Send + 'static,
    {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        let (sender, receiver) = unbounded();
        let (done_tx, done_rx) = unbounded();
        let abandoned = Arc::new(AtomicBool::new(false));
        let fence = Arc::clone(&abandoned);
        let pending = Arc::new(AtomicU64::new(0));
        let drained = Arc::clone(&pending);
        let handle = std::thread::spawn(move || {
            let result = (|| {
                let mut store = make()?;
                while let Ok(msg) = receiver.recv() {
                    if matches!(msg, WriterMsg::Ingest { .. }) {
                        drained.fetch_sub(1, Ordering::Relaxed);
                    }
                    // Fence: once finish_timeout has given up on us, stop
                    // ingesting (and stop touching the spool) at the next
                    // batch boundary. See "Abandonment invariant" above.
                    if fence.load(Ordering::Acquire) {
                        break;
                    }
                    match msg {
                        WriterMsg::Ingest {
                            superstep,
                            pred,
                            tuples,
                        } => store.ingest(superstep, &pred, tuples)?,
                        WriterMsg::Finish => break,
                    }
                }
                // Final pack so the handed-back store reports fully
                // encoded bytes and later spills never race a pending
                // buffer.
                store.pack_all();
                Ok(store)
            })();
            let _ = done_tx.send(result);
        });
        StoreWriter {
            sender,
            done: done_rx,
            handle,
            abandoned,
            pending,
        }
    }

    /// A cloneable ingestion handle.
    pub fn sender(&self) -> StoreSender {
        StoreSender {
            sender: self.sender.clone(),
            pending: Arc::clone(&self.pending),
        }
    }

    /// Drain the queue and return the finished store, waiting at most
    /// [`DEFAULT_FINISH_TIMEOUT`]. The first ingestion error (for
    /// example a spill IO failure) is returned here.
    pub fn finish(self) -> Result<ProvStore, StoreError> {
        self.finish_timeout(DEFAULT_FINISH_TIMEOUT)
    }

    /// Drain the queue with an explicit deadline. On timeout the writer
    /// thread is abandoned (it holds only its channel endpoints) and a
    /// typed error is returned instead of blocking forever.
    pub fn finish_timeout(self, timeout: Duration) -> Result<ProvStore, StoreError> {
        // The writer may already be gone (errored out); the Finish send
        // then fails, but the result channel still holds its report.
        let _ = self.sender.send(WriterMsg::Finish);
        match self.done.recv_timeout(timeout) {
            Ok(result) => {
                let _ = self.handle.join();
                result
            }
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                // Fence the writer before abandoning it so it stops
                // ingesting at its next batch boundary instead of racing
                // a subsequent resume_from_spool indefinitely.
                self.abandoned
                    .store(true, std::sync::atomic::Ordering::Release);
                obs_handles::writers_abandoned().inc();
                let pending = self.pending.load(std::sync::atomic::Ordering::Relaxed);
                trace::event(
                    Level::Warn,
                    "store",
                    "writer_abandoned",
                    &[
                        ("timeout_ms", (timeout.as_millis() as u64).into()),
                        ("pending_batches", pending.into()),
                    ],
                );
                Err(StoreError::FinishTimeout { timeout, pending })
            }
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => Err(StoreError::WriterDead),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariadne_pql::Value;

    fn tuple(v: u64, i: i64) -> Tuple {
        vec![Value::Id(v), Value::Int(i)]
    }

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ariadne-{tag}-{}", std::process::id()))
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
    fn spool_dir_created_lazily() {
        let dir = temp_dir("lazy-spool");
        std::fs::remove_dir_all(&dir).ok();
        let mut store = ProvStore::new(StoreConfig::spilling(1 << 20, dir.clone()));
        store.ingest(0, "value", vec![tuple(1, 1)]).unwrap();
        assert!(!dir.exists(), "no spill yet, so no directory yet");
        let mut store = ProvStore::new(StoreConfig::spilling(8, dir.clone()));
        store
            .ingest(0, "value", (0..20).map(|v| tuple(v, 0)).collect())
            .unwrap();
        assert!(dir.exists(), "first spill creates the directory");
        std::fs::remove_dir_all(&dir).ok();
    }

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

    #[test]
    fn resume_from_spool_seals_and_dedups() {
        let dir = temp_dir("resume-spool");
        std::fs::remove_dir_all(&dir).ok();
        // First incarnation spills two layers fully, then "crashes".
        let mut store = ProvStore::new(StoreConfig::spilling(0, dir.clone()));
        store
            .ingest(0, "value", (0..10).map(|v| tuple(v, 0)).collect())
            .unwrap();
        store
            .ingest(1, "value", (0..10).map(|v| tuple(v, 1)).collect())
            .unwrap();
        let persisted = store.tuple_count();
        drop(store);

        // Second incarnation recovers the spool and replays layer 0 and
        // 1 (idempotent) plus a genuinely new layer 2.
        let mut store = ProvStore::resume_from_spool(StoreConfig::spilling(0, dir.clone())).unwrap();
        assert_eq!(store.tuple_count(), persisted);
        assert_eq!(store.sealed_segments(), 2);
        store
            .ingest(0, "value", (0..10).map(|v| tuple(v, 0)).collect())
            .unwrap();
        store
            .ingest(1, "value", (0..10).map(|v| tuple(v, 1)).collect())
            .unwrap();
        store
            .ingest(2, "value", (0..10).map(|v| tuple(v, 2)).collect())
            .unwrap();
        assert_eq!(store.tuple_count(), persisted + 10, "replay deduplicated");
        for s in 0..3u32 {
            assert_eq!(store.layer(s).unwrap()[0].1.len(), 10, "layer {s}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_from_missing_spool_is_empty_store() {
        let dir = temp_dir("resume-missing");
        std::fs::remove_dir_all(&dir).ok();
        let store = ProvStore::resume_from_spool(StoreConfig::spilling(0, dir)).unwrap();
        assert_eq!(store.tuple_count(), 0);
    }

    #[test]
    fn injected_spill_failure_is_typed() {
        let dir = temp_dir("spill-fault");
        std::fs::remove_dir_all(&dir).ok();
        let plan = FaultPlan::new();
        plan.fail_spill_write(0);
        let mut store =
            ProvStore::new(StoreConfig::spilling(8, dir.clone()).with_fault(Arc::clone(&plan)));
        let err = store
            .ingest(0, "value", (0..20).map(|v| tuple(v, 0)).collect())
            .unwrap_err();
        assert!(matches!(err, StoreError::InjectedSpillFailure { attempt: 0 }));
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

    #[test]
    fn writer_thread_roundtrip() {
        let writer = StoreWriter::spawn(StoreConfig::in_memory());
        let sender = writer.sender();
        let s2 = sender.clone();
        std::thread::spawn(move || {
            s2.ingest(0, "superstep", vec![tuple(7, 0)]);
        })
        .join()
        .unwrap();
        sender.ingest(1, "superstep", vec![tuple(7, 1)]);
        let store = writer.finish().unwrap();
        assert_eq!(store.tuple_count(), 2);
    }

    #[test]
    fn writer_surfaces_spill_failure_at_finish() {
        let dir = temp_dir("writer-fault");
        std::fs::remove_dir_all(&dir).ok();
        let plan = FaultPlan::new();
        plan.fail_spill_write(0);
        let writer =
            StoreWriter::spawn(StoreConfig::spilling(8, dir.clone()).with_fault(Arc::clone(&plan)));
        let sender = writer.sender();
        sender.ingest(0, "value", (0..20).map(|v| tuple(v, 0)).collect());
        // Further sends after the writer died are silently dropped, not
        // a panic on the hot path.
        sender.ingest(1, "value", vec![tuple(1, 1)]);
        match writer.finish() {
            Err(StoreError::InjectedSpillFailure { attempt: 0 }) => {}
            other => panic!("expected injected spill failure, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression: the old `layer` range end `(superstep + 1, "")`
    /// overflowed (panicked in debug, wrapped to an empty range in
    /// release) at `superstep == u32::MAX`. The explicit bound keeps the
    /// final layer readable.
    #[test]
    fn layer_at_u32_max_boundary() {
        let mut store = ProvStore::new(StoreConfig::in_memory());
        store.ingest(u32::MAX - 1, "value", vec![tuple(1, -2)]).unwrap();
        store.ingest(u32::MAX, "value", vec![tuple(2, -1)]).unwrap();
        store.ingest(u32::MAX, "superstep", vec![tuple(2, -1)]).unwrap();
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

        let wanted: std::collections::BTreeSet<String> =
            ["value", "superstep"].iter().map(|s| s.to_string()).collect();
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

    /// Abandoned-writer fence: a timed-out finish leaves the writer
    /// thread holding the spool, but the fence stops it at the next
    /// batch boundary, so a later [`ProvStore::resume_from_spool`]
    /// either recovers whole checksummed records or fails with a typed
    /// error — never panics, never silently corrupts.
    #[test]
    fn abandoned_writer_never_corrupts_spool() {
        let dir = temp_dir("abandon");
        std::fs::remove_dir_all(&dir).ok();
        let plan = FaultPlan::new();
        // Pin the writer inside its first ingest so the 10ms finish
        // deadline deterministically fires while batches are queued.
        plan.stall_ingest(0, 400);
        let writer = StoreWriter::spawn(
            StoreConfig::spilling(0, dir.clone()).with_fault(Arc::clone(&plan)),
        );
        let sender = writer.sender();
        for k in 0..32 {
            sender.ingest(0, "value", vec![tuple(k, 0)]);
        }
        match writer.finish_timeout(Duration::from_millis(10)) {
            Err(StoreError::FinishTimeout { pending, .. }) => {
                assert!(pending > 0, "timeout must report the queue backlog");
            }
            other => panic!("expected finish timeout, got {other:?}"),
        }
        // Give the abandoned thread time to clear its stall, observe the
        // fence and stop.
        std::thread::sleep(Duration::from_millis(900));
        assert_eq!(
            plan.ingest_attempts(),
            1,
            "fence must stop the writer at the first batch boundary"
        );
        match ProvStore::resume_from_spool(StoreConfig::spilling(0, dir.clone())) {
            Ok(store) => {
                // Whatever was persisted is whole and decodable.
                for s in store.segment_index().map(|s| s.superstep).collect::<Vec<_>>() {
                    store.layer(s).unwrap();
                }
                assert!(store.tuple_count() <= 32);
            }
            Err(StoreError::Corrupt { .. }) | Err(StoreError::Io { .. }) => {
                // The residual in-flight-write race, surfaced typed.
            }
            Err(other) => panic!("untyped failure after abandonment: {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A v1 spool written by the pr4-era code (format = V1) reopens and
    /// decodes under a v2-default store, and the resumed capture appends
    /// v2 records into the same logical segments.
    #[test]
    fn v1_spool_resumes_under_v2_store() {
        let dir = temp_dir("v1-compat");
        std::fs::remove_dir_all(&dir).ok();
        let mut old =
            ProvStore::new(StoreConfig::spilling(0, dir.clone()).with_format(SegmentFormat::V1));
        old.ingest(0, "value", (0..10).map(|v| tuple(v, 0)).collect())
            .unwrap();
        old.ingest(1, "value", (0..10).map(|v| tuple(v, 1)).collect())
            .unwrap();
        drop(old);

        // New incarnation writes v2 by default.
        let mut store = ProvStore::resume_from_spool(StoreConfig::spilling(0, dir.clone())).unwrap();
        assert_eq!(store.config.format, SegmentFormat::V2);
        assert_eq!(store.tuple_count(), 20);
        assert_eq!(store.sealed_segments(), 2);
        // Pure-v1 segments report no column stats.
        assert!(store.segment_index().all(|s| s.columns.is_empty()));
        // Replayed layers 0/1 are idempotent no-ops; layer 2 is new and
        // lands as a packed v2 record in the same spool.
        for s in 0..2u32 {
            store
                .ingest(s, "value", (0..10).map(|v| tuple(v, s as i64)).collect())
                .unwrap();
        }
        store
            .ingest(2, "value", (0..10).map(|v| tuple(v, 2)).collect())
            .unwrap();
        for s in 0..3u32 {
            assert_eq!(store.layer(s).unwrap()[0].1.len(), 10, "layer {s}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A segment file can hold v1 records followed by v2 records; the
    /// per-record version byte dispatches the decoder.
    #[test]
    fn mixed_v1_v2_records_in_one_segment() {
        let dir = temp_dir("mixed-records");
        std::fs::remove_dir_all(&dir).ok();
        let mut v1 =
            ProvStore::new(StoreConfig::spilling(0, dir.clone()).with_format(SegmentFormat::V1));
        v1.ingest(0, "value", (0..5).map(|v| tuple(v, 0)).collect())
            .unwrap();
        drop(v1);
        // Append v2 records to the same (superstep, pred) segment file.
        // (Unsealed: reopened via a plain new store that spills to the
        // same path.)
        let mut v2 = ProvStore::new(StoreConfig::spilling(0, dir.clone()));
        v2.ingest(0, "value", (5..12).map(|v| tuple(v, 0)).collect())
            .unwrap();
        drop(v2);
        let store = ProvStore::resume_from_spool(StoreConfig::spilling(0, dir.clone())).unwrap();
        let layer = store.layer(0).unwrap();
        assert_eq!(layer[0].1.len(), 12);
        assert_eq!(layer[0].1[11], tuple(11, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// v2 and v1 stores hold bit-identical logical content; the v2
    /// encoded size is strictly smaller on a redundant workload.
    #[test]
    fn v2_roundtrip_matches_v1_and_shrinks() {
        let mk = |format| {
            let mut store = ProvStore::new(StoreConfig::in_memory().with_format(format));
            for s in 0..4u32 {
                for chunk in 0..8u64 {
                    store
                        .ingest(
                            s,
                            "value",
                            (chunk * 64..(chunk + 1) * 64)
                                .map(|x| {
                                    vec![
                                        Value::Id(x),
                                        Value::Float(1.0 / (x + 1) as f64),
                                        Value::Int(s as i64),
                                    ]
                                })
                                .collect(),
                        )
                        .unwrap();
                    store
                        .ingest(s, "superstep", (0..16).map(|x| tuple(x, s as i64)).collect())
                        .unwrap();
                }
            }
            store.pack_all();
            store
        };
        let v1 = mk(SegmentFormat::V1);
        let v2 = mk(SegmentFormat::V2);
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
        let with_cols = v2
            .segment_index()
            .filter(|s| !s.columns.is_empty())
            .count();
        assert!(with_cols > 0, "packed segments expose column stats");
        for info in v2.segment_index() {
            for col in &info.columns {
                assert!(col.decoded_bytes >= col.encoded_bytes / 2, "sane ratio");
            }
        }
    }

    /// v3 holds bit-identical logical content to v2, spills smaller on
    /// a compressible workload (LZ applied per record, only when it
    /// wins), and round-trips through spill + resume.
    #[test]
    fn v3_roundtrip_matches_v2_and_compresses() {
        let mk = |format, dir: &PathBuf| {
            std::fs::remove_dir_all(dir).ok();
            let mut store =
                ProvStore::new(StoreConfig::spilling(0, dir.clone()).with_format(format));
            for s in 0..3u32 {
                // Runs of repeated payloads: textbook LZ fodder.
                store
                    .ingest(
                        s,
                        "value",
                        (0..256u64)
                            .map(|x| vec![Value::Id(x / 16), Value::Int((s as i64) % 2)])
                            .collect(),
                    )
                    .unwrap();
            }
            store
        };
        let d2 = temp_dir("v3-cmp-v2");
        let d3 = temp_dir("v3-cmp-v3");
        let v2 = mk(SegmentFormat::V2, &d2);
        let v3 = mk(SegmentFormat::V3, &d3);
        assert_eq!(v2.tuple_count(), v3.tuple_count());
        for s in 0..3u32 {
            assert_eq!(v2.layer(s).unwrap(), v3.layer(s).unwrap(), "layer {s}");
        }
        assert!(
            v3.disk_bytes() < v2.disk_bytes(),
            "v3 {} not below v2 {} on a compressible workload",
            v3.disk_bytes(),
            v2.disk_bytes()
        );
        drop(v3);
        // ARSZ frames survive a resume and read back identically.
        let resumed = ProvStore::resume_from_spool(
            StoreConfig::spilling(0, d3.clone()).with_format(SegmentFormat::V3),
        )
        .unwrap();
        assert_eq!(resumed.tuple_count(), v2.tuple_count());
        for s in 0..3u32 {
            assert_eq!(resumed.layer(s).unwrap(), v2.layer(s).unwrap(), "layer {s}");
        }
        std::fs::remove_dir_all(&d2).ok();
        std::fs::remove_dir_all(&d3).ok();
    }

    /// Pending (not yet packed) rows are visible to reads, masked reads
    /// included, and the byte partition invariant holds throughout.
    #[test]
    fn pending_rows_visible_before_pack() {
        let mut store = ProvStore::new(StoreConfig::in_memory());
        store
            .ingest(0, "value", (0..10).map(|v| tuple(v, 0)).collect())
            .unwrap();
        store.ingest(0, "superstep", vec![tuple(1, 0)]).unwrap();
        assert!(store.byte_size() > 0, "pending rows counted");
        let full = store.layer_filtered(0, None).unwrap();
        assert_eq!(full.tuples.len(), 2);
        let wanted: std::collections::BTreeSet<String> =
            std::iter::once("value".to_string()).collect();
        let read = store.layer_filtered(0, Some(&wanted)).unwrap();
        assert_eq!(read.tuples[0].1.len(), 10);
        assert_eq!(
            full.bytes_read,
            read.bytes_read + read.bytes_skipped,
            "partition invariant with pending rows"
        );
        // Masked read of pending rows yields Unit in dropped positions.
        let filter = LayerFilter::for_preds(wanted).with_mask("value", vec![true, false]);
        let masked = store.layer_read(0, &filter).unwrap();
        assert!(masked.tuples[0].1.iter().all(|t| t[1] == Value::Unit));
        // Packing changes nothing observable but the encoding.
        let before = store.layer(0).unwrap();
        store.pack_all();
        assert_eq!(store.layer(0).unwrap(), before);
    }

    /// Column-masked reads skip v2 column blocks without materializing
    /// them, and the same mask yields identical tuples on v1 records.
    #[test]
    fn masked_reads_skip_columns_identically_across_formats() {
        let mk = |format| {
            let mut store = ProvStore::new(StoreConfig::in_memory().with_format(format));
            store
                .ingest(
                    3,
                    "send_message",
                    (0..600)
                        .map(|x| {
                            vec![
                                Value::Id(x),
                                Value::Id(x + 1),
                                Value::str("heavy-payload-string"),
                                Value::Int(3),
                            ]
                        })
                        .collect(),
                )
                .unwrap();
            store.pack_all();
            store
        };
        let v1 = mk(SegmentFormat::V1);
        let v2 = mk(SegmentFormat::V2);
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

    /// Packing is forced before any spill: the spool never holds a
    /// partial pending buffer, only whole checksummed records.
    #[test]
    fn spill_packs_pending_first() {
        let dir = temp_dir("spill-pack");
        std::fs::remove_dir_all(&dir).ok();
        let mut store = ProvStore::new(StoreConfig::spilling(64, dir.clone()));
        store
            .ingest(0, "value", (0..40).map(|v| tuple(v, 0)).collect())
            .unwrap();
        assert!(store.spills() > 0);
        // Everything readable from a fresh resume (validates records).
        let resumed = ProvStore::resume_from_spool(StoreConfig::spilling(64, dir.clone())).unwrap();
        let recovered: usize = resumed.layer(0).unwrap().iter().map(|(_, t)| t.len()).sum();
        assert_eq!(recovered, 40);
        // Resumed v2 segments rebuild their column stats from disk.
        assert!(resumed.segment_index().any(|s| !s.columns.is_empty()));
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

    /// [`Durability::Seal`] writes only atomic `.seal` files — never an
    /// append tail — and repeated spills of the same segment rewrite the
    /// sealed file with the full content.
    #[test]
    fn seal_durability_writes_only_atomic_files() {
        let dir = temp_dir("seal-atomic");
        std::fs::remove_dir_all(&dir).ok();
        let mut store = ProvStore::new(
            StoreConfig::spilling(0, dir.clone()).with_durability(Durability::Seal),
        );
        store
            .ingest(0, "value", (0..10).map(|v| tuple(v, 0)).collect())
            .unwrap();
        store
            .ingest(0, "value", (10..20).map(|v| tuple(v, 0)).collect())
            .unwrap();
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            names.iter().all(|n| n.ends_with(".seal")),
            "only sealed files expected, got {names:?}"
        );
        assert_eq!(names.len(), 1, "rewrite replaces, never accumulates");
        let resumed = ProvStore::resume_from_spool(StoreConfig::spilling(0, dir.clone())).unwrap();
        assert_eq!(resumed.layer(0).unwrap()[0].1.len(), 20);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A torn (crash-truncated) unsealed tail is salvaged on resume: the
    /// valid prefix survives, the original bytes land in a `.torn`
    /// sidecar, and the salvage is counted.
    #[test]
    fn torn_unsealed_tail_salvaged_on_resume() {
        let dir = temp_dir("torn-salvage");
        std::fs::remove_dir_all(&dir).ok();
        let mut store = ProvStore::new(StoreConfig::spilling(0, dir.clone()));
        store
            .ingest(0, "value", (0..10).map(|v| tuple(v, 0)).collect())
            .unwrap();
        store
            .ingest(0, "value", (10..20).map(|v| tuple(v, 0)).collect())
            .unwrap();
        drop(store);
        let path = segment_path(&dir, 0, "value");
        let bytes = std::fs::read(&path).unwrap();
        // Cut into the middle of the second record: a torn tail.
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let store = ProvStore::resume_from_spool(StoreConfig::spilling(0, dir.clone())).unwrap();
        assert_eq!(store.salvaged_records(), 1, "the intact first record");
        assert_eq!(store.layer(0).unwrap()[0].1.len(), 10, "valid prefix kept");
        let sidecar = torn_sidecar_path(&path);
        assert_eq!(
            std::fs::read(&sidecar).unwrap().len(),
            bytes.len() - 7,
            "sidecar preserves the pre-salvage bytes"
        );
        // The salvaged file itself re-verifies clean.
        assert!(scrub_spool(&dir, false).unwrap().is_clean());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Damage in a sealed (atomically renamed) segment is never a torn
    /// tail: resume fails typed instead of salvaging.
    #[test]
    fn sealed_segment_damage_is_strict() {
        let dir = temp_dir("seal-strict");
        std::fs::remove_dir_all(&dir).ok();
        let mut store = ProvStore::new(
            StoreConfig::spilling(0, dir.clone()).with_durability(Durability::Seal),
        );
        store
            .ingest(0, "value", (0..10).map(|v| tuple(v, 0)).collect())
            .unwrap();
        drop(store);
        let path = sealed_segment_path(&dir, 0, "value");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        assert!(matches!(
            ProvStore::resume_from_spool(StoreConfig::spilling(0, dir.clone())),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Degraded reads skip damaged records, resync to the next valid
    /// one, and report exactly what was lost; Strict reads of the same
    /// store fail typed.
    #[test]
    fn degraded_read_skips_and_reports_damage() {
        let dir = temp_dir("degraded-read");
        std::fs::remove_dir_all(&dir).ok();
        let mut store = ProvStore::new(StoreConfig::spilling(0, dir.clone()));
        store
            .ingest(0, "value", (0..10).map(|v| tuple(v, 0)).collect())
            .unwrap();
        store
            .ingest(0, "value", (10..20).map(|v| tuple(v, 0)).collect())
            .unwrap();
        let path = segment_path(&dir, 0, "value");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[RECORD_OVERHEAD / 2] ^= 0xFF; // inside the first record's header
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            store.layer(0),
            Err(StoreError::Corrupt { .. })
        ));
        let read = store
            .layer_read_with(0, &LayerFilter::all(), ReadPolicy::Degraded)
            .unwrap();
        assert_eq!(read.tuples[0].1.len(), 10, "second record survives");
        assert_eq!(read.degradation.records_skipped, 1);
        assert!(read.degradation.bytes_skipped > 0);
        assert!(!read.degradation.details.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Scrub detects an injected bit flip; repair quarantines the file;
    /// the store's reads then behave per policy: Strict fails typed with
    /// [`StoreError::Quarantined`], Degraded reports exactly the loss,
    /// and a fresh resume opens strict-clean.
    #[test]
    fn scrub_detects_and_repair_quarantines() {
        let dir = temp_dir("scrub-repair");
        std::fs::remove_dir_all(&dir).ok();
        let mut store = ProvStore::new(StoreConfig::spilling(0, dir.clone()));
        store
            .ingest(0, "value", (0..10).map(|v| tuple(v, 0)).collect())
            .unwrap();
        store
            .ingest(1, "value", (0..10).map(|v| tuple(v, 1)).collect())
            .unwrap();
        let path = segment_path(&dir, 0, "value");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        // Detection pass: damage reported, nothing moved.
        let report = store.scrub(false).unwrap();
        assert_eq!(report.damage.len(), 1);
        assert_eq!(report.damage[0].action, ScrubAction::None);
        assert!(path.exists());

        // Repair pass: the corrupt file moves into quarantine/.
        let report = store.scrub(true).unwrap();
        assert_eq!(report.damage.len(), 1);
        assert_eq!(report.damage[0].action, ScrubAction::Quarantined);
        assert!(!path.exists(), "corrupt file moved out of the spool");
        assert_eq!(store.quarantined_segments(), 1);
        let json = report.to_json();
        assert!(json.contains("\"action\":\"quarantined\""), "{json}");

        // Undamaged layer 1 reads clean; quarantined layer 0 is typed
        // under Strict and exact-loss-reported under Degraded.
        assert_eq!(store.layer(1).unwrap()[0].1.len(), 10);
        assert!(matches!(
            store.layer(0),
            Err(StoreError::Quarantined { .. })
        ));
        let read = store
            .layer_read_with(0, &LayerFilter::all(), ReadPolicy::Degraded)
            .unwrap();
        assert_eq!(read.degradation.segments_skipped, 1);
        let remaining: usize = read.tuples.iter().map(|(_, t)| t.len()).sum();
        assert_eq!(remaining, 0, "quarantined layer has no readable tuples");

        // A fresh resume sees the quarantine and opens without error.
        let resumed = ProvStore::resume_from_spool(StoreConfig::spilling(0, dir.clone())).unwrap();
        assert_eq!(resumed.quarantined_segments(), 1);
        assert_eq!(resumed.layer(1).unwrap()[0].1.len(), 10);
        assert!(matches!(
            resumed.layer(0),
            Err(StoreError::Quarantined { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Offline scrub of a spool directory: a torn tail is detected, a
    /// repair salvages it, and a second scrub comes back clean.
    #[test]
    fn scrub_spool_salvages_torn_tail_offline() {
        let dir = temp_dir("scrub-offline");
        std::fs::remove_dir_all(&dir).ok();
        let mut store = ProvStore::new(StoreConfig::spilling(0, dir.clone()));
        store
            .ingest(0, "value", (0..10).map(|v| tuple(v, 0)).collect())
            .unwrap();
        store
            .ingest(0, "value", (10..20).map(|v| tuple(v, 0)).collect())
            .unwrap();
        drop(store);
        let path = segment_path(&dir, 0, "value");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

        let report = scrub_spool(&dir, false).unwrap();
        assert_eq!(report.damage.len(), 1);
        assert!(report.damage[0].torn);
        assert_eq!(report.records_verified, 1);

        let report = scrub_spool(&dir, true).unwrap();
        assert_eq!(report.damage[0].action, ScrubAction::Salvaged);
        assert!(torn_sidecar_path(&path).exists());

        let report = scrub_spool(&dir, false).unwrap();
        assert!(report.is_clean(), "post-repair scrub: {:?}", report.damage);
        let resumed = ProvStore::resume_from_spool(StoreConfig::spilling(0, dir.clone())).unwrap();
        assert_eq!(resumed.layer(0).unwrap()[0].1.len(), 10);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// [`OnSpillError::DropCapture`]: a spill failure poisons the store
    /// instead of failing ingest; later batches are dropped and counted;
    /// Strict reads refuse the poisoned store with the original error
    /// chained; Degraded reads succeed and report the loss.
    #[test]
    fn drop_capture_poisons_instead_of_failing() {
        let dir = temp_dir("drop-capture");
        std::fs::remove_dir_all(&dir).ok();
        let plan = FaultPlan::new();
        plan.enospc_after_bytes(0);
        let mut store = ProvStore::new(
            StoreConfig::spilling(8, dir.clone())
                .with_fault(Arc::clone(&plan))
                .with_on_spill_error(OnSpillError::DropCapture),
        );
        // The spill fails (injected ENOSPC) but ingest still succeeds.
        store
            .ingest(0, "value", (0..20).map(|v| tuple(v, 0)).collect())
            .unwrap();
        assert!(store.poisoned().is_some());
        store.ingest(1, "value", vec![tuple(9, 1)]).unwrap();
        assert_eq!(store.dropped_batches(), 1);
        assert_eq!(store.dropped_tuples(), 1);
        // Strict read: typed degradation chaining the spill error.
        match store.layer(0) {
            Err(e @ StoreError::Degraded { .. }) => {
                use std::error::Error;
                assert!(e.source().is_some(), "poison cause must chain");
            }
            other => panic!("expected degraded error, got {other:?}"),
        }
        assert!(matches!(
            store.to_database(),
            Err(StoreError::Degraded { .. })
        ));
        // Degraded read: the in-memory records survive (the failed spill
        // restored them) and the poisoning is reported.
        let read = store
            .layer_read_with(0, &LayerFilter::all(), ReadPolicy::Degraded)
            .unwrap();
        assert_eq!(read.tuples[0].1.len(), 20);
        assert!(!read.degradation.is_clean());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Transient IO failures (interrupted syscalls) are retried with
    /// backoff; the spill succeeds and the data round-trips.
    #[test]
    fn transient_spill_failures_are_retried() {
        let dir = temp_dir("transient-retry");
        std::fs::remove_dir_all(&dir).ok();
        let plan = FaultPlan::new();
        plan.transient_io_failures(2);
        let mut store =
            ProvStore::new(StoreConfig::spilling(0, dir.clone()).with_fault(Arc::clone(&plan)));
        store
            .ingest(0, "value", (0..10).map(|v| tuple(v, 0)).collect())
            .unwrap();
        assert!(store.spills() > 0, "spill succeeded after retries");
        assert_eq!(store.layer(0).unwrap()[0].1.len(), 10);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Injected ENOSPC under the default [`OnSpillError::Abort`] policy
    /// is a typed, non-retried error naming the segment path.
    #[test]
    fn enospc_aborts_typed_by_default() {
        let dir = temp_dir("enospc-abort");
        std::fs::remove_dir_all(&dir).ok();
        let plan = FaultPlan::new();
        plan.enospc_after_bytes(0);
        let mut store =
            ProvStore::new(StoreConfig::spilling(8, dir.clone()).with_fault(Arc::clone(&plan)));
        let err = store
            .ingest(0, "value", (0..20).map(|v| tuple(v, 0)).collect())
            .unwrap_err();
        match err {
            StoreError::Io { path, source } => {
                assert_eq!(path, segment_path(&dir, 0, "value"));
                assert!(source.to_string().contains("ENOSPC"), "{source}");
            }
            other => panic!("expected typed Io error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An injected torn write fails the spill typed, and the resulting
    /// spool (holding the partial record) salvages back to the last
    /// record boundary on resume.
    #[test]
    fn injected_torn_write_salvages_on_resume() {
        let dir = temp_dir("torn-inject");
        std::fs::remove_dir_all(&dir).ok();
        let plan = FaultPlan::new();
        plan.torn_write_at(1, 5);
        let mut store =
            ProvStore::new(StoreConfig::spilling(0, dir.clone()).with_fault(Arc::clone(&plan)));
        store
            .ingest(0, "value", (0..10).map(|v| tuple(v, 0)).collect())
            .unwrap();
        let err = store
            .ingest(0, "value", (10..20).map(|v| tuple(v, 0)).collect())
            .unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }), "got {err:?}");
        let resumed = ProvStore::resume_from_spool(StoreConfig::spilling(0, dir.clone())).unwrap();
        assert_eq!(resumed.salvaged_records(), 1);
        assert_eq!(resumed.layer(0).unwrap()[0].1.len(), 10, "clean prefix");
        std::fs::remove_dir_all(&dir).ok();
    }
}
