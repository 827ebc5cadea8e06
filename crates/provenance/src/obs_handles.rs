//! Cached global-registry handles for store metrics. A capture hands
//! the store each (superstep, predicate) once, its rows in vertex order,
//! so what the store ingests and writes — batches, records, their bytes,
//! LZ wins and column blocks, which keys compaction copies, which epoch
//! records are adopted — is a function of the captured provenance alone
//! and is flagged deterministic, like what reads decode per segment.
//! So are spills, which follow that and the memory budget. Wall-clock
//! timings, record verifications and extent reads are flagged
//! non-deterministic.

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
    "segment spills to the spool directory",
    true
);
static_counter!(
    spilled_bytes,
    "store_spilled_bytes_total",
    "bytes written to spool segment files",
    true
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
    "record bytes (framing included) of the columnar records ingests wrote",
    true
);
static_counter!(
    encode_ns,
    "store_encode_ns",
    "wall nanoseconds spent in columnar stats passes and encoding",
    false
);
static_counter!(
    decode_ns,
    "store_decode_ns",
    "wall nanoseconds spent checking and decoding stored records (reads, compaction, epoch fold, scrub, resume)",
    false
);
static_counter!(
    packs,
    "store_packs_total",
    "ingested blocks framed as columnar records",
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
    compact_copied,
    "store_compact_copied_total",
    "segments compaction copied as one ingest wrote them instead of re-encoding",
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
    "wall nanoseconds decoding + copying or re-encoding segments into the generation buffer",
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
// Epoch appends and the logical reads that fold epoch chains (ROADMAP
// 5(e): the mutation path emitted nothing). Pair counts and fold
// segment counts are functions of the two captures alone.
static_counter!(
    epoch_appends,
    "store_epoch_appends_total",
    "delta epochs appended to a store after a graph mutation",
    true
);
static_counter!(
    epoch_carried,
    "store_epoch_carried_total",
    "(layer, predicate) pairs an epoch append carried without writing",
    true
);
static_counter!(
    epoch_appended,
    "store_epoch_appended_total",
    "(layer, predicate) pairs an epoch append extended by a ~add~ suffix",
    true
);
static_counter!(
    epoch_replaced,
    "store_epoch_replaced_total",
    "(layer, predicate) pairs an epoch append rewrote in full",
    true
);
static_counter!(
    epoch_tombstoned,
    "store_epoch_tombstoned_total",
    "(layer, predicate) pairs an epoch append tombstoned with ~del~",
    true
);
static_counter!(
    epoch_adopted,
    "store_epoch_adopted_total",
    "replaced (layer, predicate) pairs an epoch append copied as the capture's one record instead of re-encoding",
    true
);
static_counter!(
    epoch_adopted_bytes,
    "store_epoch_adopted_bytes_total",
    "record bytes epoch appends copied from the capture instead of re-encoding",
    true
);
static_counter!(
    epoch_pairs_indexed,
    "store_epoch_pairs_indexed_total",
    "(layer, predicate) pairs an epoch append classified from the segment index and record bytes, decoding nothing",
    true
);
static_counter!(
    epoch_pairs_decoded,
    "store_epoch_pairs_decoded_total",
    "(layer, predicate) pairs an epoch append decoded to classify (a grown pair's two segments, or the sorted diff)",
    true
);
static_counter!(
    epoch_append_ns,
    "store_epoch_append_ns",
    "wall nanoseconds spent in epoch appends (fold, diff and ingest)",
    false
);
static_counter!(
    epoch_fold_segments_read,
    "store_epoch_fold_segments_read_total",
    "segments the newest-first epoch fold decoded",
    true
);
static_counter!(
    epoch_fold_segments_skipped,
    "store_epoch_fold_segments_skipped_total",
    "epoch-chain segments the fold skipped undecoded (superseded, or the epoch marker)",
    true
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
// Spool extent reads: how many extents a read pulls follows replay
// chunking, so both are non-deterministic; the decoded record and
// tuple counts above stay deterministic.
static_counter!(
    extent_reads,
    "store_extent_reads_total",
    "segment extent reads from spool files",
    false
);
static_counter!(
    buffered_bytes,
    "store_buffered_bytes_total",
    "extent bytes read by seek+read into owned buffers",
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

const ENC_HELP: &str = "encoded column-block bytes per columnar record column for this encoding";
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
