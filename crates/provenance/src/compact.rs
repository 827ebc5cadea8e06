//! Compaction: merge a spool's segment files into one indexed
//! generation file, published crash-safely.
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
//! manifest both land via temp-file + atomic rename (the two halves in
//! [`crate::spool`]), and superseded files are deleted only after the
//! manifest rename — a resume finds either the old generation (manifest
//! not yet swapped; orphaned `gen-*` files are removed) or the new one
//! (manifest swapped; interrupted deletions are completed). Both files
//! are fsynced before their rename unless the store runs at
//! [`Durability::None`], the level that promises no fsync anywhere: it
//! keeps the same order, so a process crash still leaves one generation
//! or the other. Layer reads of compacted keys seek directly to the
//! extent instead of scanning whole files.
//!
//! A key whose stored bytes are the output of one ingest is
//! **copied**: the record writer ([`crate::frame`]) is a pure function
//! of the rows, so re-encoding would write those bytes again. Every
//! other key (several ingests, a ragged record, resumed or adopted
//! bytes) is decoded into one [`RowBlock`], reused from key to key, and
//! re-encoded from it by that writer, which merges its records. Both
//! paths check and decode every record, so damage fails the pass typed;
//! no row ever becomes a tuple on the way.

use crate::frame::append_records;
use crate::obs_handles;
use crate::rows::{RowBlock, Rows};
use crate::spool::{file_name, io_err, manifest_path, note_fault, publish, write_temp};
use crate::store::{DiskFile, Durability, ProvStore, StoreConfig, StoreError};
use crate::v3::{self, FooterEntry, GenFileInfo, LostKey, Manifest};
use ariadne_obs::trace::{self, Level};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The outcome of one [`ProvStore::compact`] pass.
#[derive(Clone, Debug, Default)]
pub struct CompactReport {
    /// The generation the pass published (unchanged when there was
    /// nothing to compact).
    pub generation: u64,
    /// Segments rewritten into the new generation file.
    pub segments: usize,
    /// Of those, segments whose bytes were copied as one ingest wrote
    /// them instead of re-encoded.
    pub copied: usize,
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
            "{{\"generation\":{},\"segments\":{},\"copied\":{},\"tuples\":{},\"bytes_in\":{},\"bytes_out\":{},\"files_removed\":{}}}",
            self.generation,
            self.segments,
            self.copied,
            self.tuples,
            self.bytes_in,
            self.bytes_out,
            self.files_removed
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

impl ProvStore {
    /// Compact the spool into a fresh generation: strictly decode every
    /// segment (memory and disk, any record format), lay each
    /// (superstep, predicate) key out as one contiguous extent of a
    /// single `gen-{G}-0.ars3` file with an indexed footer, publish it
    /// by atomically swapping the spool manifest, and only then delete
    /// the superseded files. A key one ingest wrote is copied as it is;
    /// every other key is re-encoded, so its small records merge into
    /// large ones (fewer frame overheads, better column encodings, LZ
    /// when it wins) and v1 records are upgraded. Quarantined bytes are
    /// left behind in `quarantine/`.
    ///
    /// Crash safety: the generation file and the manifest are both
    /// written temp-file + rename (each synced unless the store's
    /// [`Durability`] is [`Durability::None`]). A crash before the manifest
    /// swap leaves the old files authoritative (resume deletes the
    /// orphans); a crash after it leaves the new generation
    /// authoritative (resume finishes deleting the superseded files).
    /// At no point is the spool unrecoverable. Scripted
    /// [`FaultPlan::kill_at_compact_step`](ariadne_vc::FaultPlan::kill_at_compact_step)
    /// crashes exercise every step.
    pub fn compact(&mut self) -> Result<CompactReport, StoreError> {
        let unchanged = CompactReport {
            generation: self.generation,
            ..CompactReport::default()
        };
        let Some(dir) = self.config.spool_dir.clone() else {
            // No spool, nothing on disk to compact.
            return Ok(unchanged);
        };
        let _compact_span = trace::span(
            Level::Debug,
            "store",
            "compact_pass",
            &[("generation", (self.generation + 1).into())],
        );
        let mpath = manifest_path(&dir);
        let fault = self.config.fault.clone();
        // One protocol step ends: charge its wall time to `timer`, then
        // give a scripted crash its chance before the next step starts.
        let mut step_started = Instant::now();
        let mut step_done = |timer: &ariadne_obs::Counter, step: u32| -> Result<(), StoreError> {
            timer.add(step_started.elapsed().as_nanos() as u64);
            if fault.as_deref().is_some_and(|f| f.take_compact_kill(step)) {
                note_fault("injected_compact_kill", &[("step", u64::from(step).into())]);
                return Err(io_err(&mpath)(std::io::Error::other(format!(
                    "injected crash at compaction step {step}"
                ))));
            }
            step_started = Instant::now();
            Ok(())
        };

        // Copy or re-encode, decoding strictly like every read:
        // compaction refuses to run over damage (scrub first), so it can
        // never bake loss into a new generation silently.
        let mut report = CompactReport::default();
        let gen = self.generation + 1;
        let gen_name = v3::gen_file_name(gen, 0);
        let gpath = dir.join(&gen_name);
        let mut buf: Vec<u8> = Vec::new();
        let mut entries: Vec<FooterEntry> = Vec::new();
        let mut processed: Vec<(u32, String)> = Vec::new();
        let mut old_paths: BTreeSet<PathBuf> = BTreeSet::new();
        let mut rows = RowBlock::default();
        for (key, seg) in &self.segments {
            if seg.disk.files.is_empty() && seg.mem.is_empty() {
                continue;
            }
            rows.clear();
            let offset = buf.len();
            let records = if seg.one_ingest {
                let records = seg.copy_into(&mut buf, &mut rows)?;
                report.bytes_in += buf.len() - offset;
                report.copied += 1;
                records as u32
            } else {
                let (bytes, _) = seg.decode_into(None, &mut rows)?;
                report.bytes_in += bytes;
                // Large merged records, compressed where LZ wins.
                append_records(&mut buf, &rows, |_, _, _| {})
            };
            old_paths.extend(seg.disk.files.iter().map(|f| f.path.clone()));
            processed.push(key.clone());
            if rows.is_empty() {
                continue;
            }
            entries.push(FooterEntry {
                superstep: key.0,
                pred: key.1.clone(),
                offset: offset as u64,
                len: (buf.len() - offset) as u64,
                tuples: rows.len() as u64,
                records,
            });
            report.segments += 1;
            report.tuples += rows.len();
        }
        if processed.is_empty() {
            return Ok(unchanged);
        }
        report.bytes_out = buf.len();
        report.generation = gen;
        buf.extend_from_slice(&v3::encode_footer(&entries));

        // Publish: gen file, then manifest, then deletions — with a
        // scripted kill point between every pair of steps.
        let sync = self.config.durability != Durability::None;
        std::fs::create_dir_all(&dir).map_err(io_err(&dir))?;
        step_done(obs_handles::compact_encode_ns(), 0)?;
        let gtmp = write_temp(&gpath, &buf, sync).map_err(io_err(&gpath))?;
        step_done(obs_handles::compact_gen_write_ns(), 1)?;
        publish(&dir, &gtmp, &gpath, sync).map_err(io_err(&gpath))?;
        step_done(obs_handles::compact_gen_publish_ns(), 2)?;
        old_paths.remove(&gpath);
        let manifest = Manifest {
            generation: gen,
            live: vec![GenFileInfo {
                name: gen_name,
                size: buf.len() as u64,
                entries,
            }],
            superseded: old_paths.iter().map(|p| file_name(p)).collect(),
            lost: self
                .quarantined
                .iter()
                .map(|((step, pred), qpath)| LostKey {
                    superstep: *step,
                    pred: pred.clone(),
                    quarantine: file_name(qpath),
                })
                .collect(),
        };
        let mtmp =
            write_temp(&mpath, &v3::encode_manifest(&manifest), sync).map_err(io_err(&mpath))?;
        step_done(obs_handles::compact_manifest_write_ns(), 3)?;
        publish(&dir, &mtmp, &mpath, sync).map_err(io_err(&mpath))?;
        step_done(obs_handles::compact_manifest_publish_ns(), 4)?;
        for path in &old_paths {
            if std::fs::remove_file(path).is_ok() {
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
            seg.one_ingest = false;
            seg.in_order = false;
        }
        for e in &manifest.live[0].entries {
            let seg = self
                .segments
                .get_mut(&(e.superstep, e.pred.clone()))
                .expect("compacted key exists");
            seg.disk.files = vec![DiskFile::extent(&gpath, e)];
        }
        self.mem_bytes = self.segments.values().map(|s| s.mem.len()).sum();
        self.disk_bytes = self.segments.values().map(|s| s.disk.bytes()).sum();
        self.generation = gen;
        self.compactions += 1;
        obs_handles::compactions().inc();
        obs_handles::compact_bytes_in().add(report.bytes_in as u64);
        obs_handles::compact_bytes_out().add(report.bytes_out as u64);
        obs_handles::compact_copied().add(report.copied as u64);
        trace::event(
            Level::Info,
            "store",
            "compact",
            &[
                ("generation", gen.into()),
                ("segments", report.segments.into()),
                ("copied", report.copied.into()),
                ("tuples", report.tuples.into()),
                ("bytes_in", report.bytes_in.into()),
                ("bytes_out", report.bytes_out.into()),
                ("files_removed", report.files_removed.into()),
            ],
        );
        Ok(report)
    }
}
