//! The on-disk spool: file naming, the directory listing, atomic
//! publish, salvage and quarantine, spill IO with bounded retries,
//! extent reads, and reopening a spool a previous incarnation left
//! behind.
//!
//! # Layout
//!
//! The spool directory is created lazily on the first spill, and spill
//! IO failures carry the offending path. It distinguishes two segment
//! states. `seg-*.bin` files are **unsealed append tails**: a crash can
//! tear their final record, so [`ProvStore::resume_from_spool`]
//! *salvages* a torn tail — the original bytes are backed up to a
//! `.torn` sidecar, the file is truncated back to the last record
//! boundary, and the retained records are counted as
//! `store_salvaged_records`. `seg-*.seal` files are **sealed segments**
//! written only via temp-file + atomic rename under
//! [`Durability::Seal`]; they are either complete or absent, so any
//! damage inside one is real corruption and validation stays strict.
//! Compaction adds `gen-*.ars3` generation files and the `index.ars`
//! manifest (see [`crate::compact`]); a repairing scrub moves
//! irrecoverable files into `quarantine/` (see [`crate::scrub`]).
//!
//! # Durability
//!
//! [`StoreConfig::durability`](crate::StoreConfig::durability) selects
//! how hard spills push bytes to stable storage (no fsync,
//! fsync-per-spill, or atomic sealed rewrites); see [`Durability`] for
//! the exact contract per level. Every atomically published file — a
//! sealed segment, a generation file, the manifest — goes through the
//! same two halves: write a `.tmp` sibling and fsync it, then rename it
//! into place and fsync the directory. Compaction under
//! [`Durability::None`] keeps the temp-file + rename order and skips
//! the syncs, like every other write at that level.
//!
//! # Recovery
//!
//! After a crash, [`ProvStore::resume_from_spool`] re-attaches the
//! segment files a previous incarnation left behind (validating every
//! record) and marks them **sealed**: re-ingesting a sealed layer during
//! replay is an idempotent no-op, so a resumed capture run does not
//! duplicate already-persisted provenance.

use crate::frame::{absorb_cols, walk_records, WalkMode};
use crate::obs_handles;
use crate::rows::RowBlock;
use crate::store::{DiskFile, Durability, ProvStore, Segment, StoreConfig, StoreError};
use crate::v3;
use ariadne_obs::trace::{self, Level};
use ariadne_vc::FaultPlan;
use std::collections::BTreeSet;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A `map_err` adapter naming the file or directory an IO failure
/// touched.
pub(crate) fn io_err(path: &Path) -> impl Fn(std::io::Error) -> StoreError + '_ {
    move |source| StoreError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// The final component of `path` as a string (empty when there is none).
pub(crate) fn file_name(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default()
}

/// The unsealed (append-tail) spool file for a (superstep, predicate)
/// segment.
pub(crate) fn segment_path(dir: &Path, superstep: u32, pred: &str) -> PathBuf {
    dir.join(format!("seg-{superstep}-{pred}.bin"))
}

/// The sealed (atomic-rename) spool file for a (superstep, predicate)
/// segment, written under [`Durability::Seal`].
pub(crate) fn sealed_segment_path(dir: &Path, superstep: u32, pred: &str) -> PathBuf {
    dir.join(format!("seg-{superstep}-{pred}.seal"))
}

/// `path` with `suffix` appended to its file name.
fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(suffix);
    PathBuf::from(name)
}

/// The sidecar holding a torn tail's original bytes before salvage
/// truncated it (kept for forensics; ignored by resume).
pub(crate) fn torn_sidecar_path(path: &Path) -> PathBuf {
    with_suffix(path, ".torn")
}

/// The subdirectory scrub repairs move irrecoverable segments into.
pub(crate) fn quarantine_dir(dir: &Path) -> PathBuf {
    dir.join("quarantine")
}

/// The spool-level manifest file naming live generation files.
pub(crate) fn manifest_path(dir: &Path) -> PathBuf {
    dir.join(v3::MANIFEST_NAME)
}

/// Parse a spool file name back into its (superstep, predicate) key and
/// whether the file is a sealed (`.seal`) segment. `.torn` sidecars
/// parse as `None` and are ignored.
fn parse_segment_name(name: &str) -> Option<(u32, String, bool)> {
    let stem = name.strip_prefix("seg-")?;
    let (stem, sealed) = match stem.strip_suffix(".seal") {
        Some(s) => (s, true),
        None => (stem.strip_suffix(".bin")?, false),
    };
    let (step, pred) = stem.split_once('-')?;
    Some((step.parse().ok()?, pred.to_string(), sealed))
}

/// One `seg-*` file of a [`SpoolListing`].
pub(crate) struct SegFile {
    pub key: (u32, String),
    pub path: PathBuf,
    /// A `.seal` file (atomic rename) rather than a `.bin` append tail.
    pub sealed: bool,
}

/// A spool directory's files, classified by role.
#[derive(Default)]
pub(crate) struct SpoolListing {
    /// Leftovers of an interrupted seal or compaction write. Both
    /// protocols only publish via rename, so a temp file is always
    /// garbage.
    pub tmp: Vec<PathBuf>,
    /// Whether the spool manifest exists.
    pub manifest: bool,
    /// Compaction generation files, in name order.
    pub gens: Vec<PathBuf>,
    /// Segment files in key order, a sealed part before its unsealed
    /// tail (the order their records were written in).
    pub segs: Vec<SegFile>,
}

/// List and classify the spool directory; `None` when it does not
/// exist. `.torn` sidecars, `quarantine/` and foreign files are left
/// out.
pub(crate) fn list_spool(dir: &Path) -> Result<Option<SpoolListing>, StoreError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err(dir)(e)),
    };
    let mut listing = SpoolListing::default();
    for entry in entries {
        let path = entry.map_err(io_err(dir))?.path();
        let name = file_name(&path);
        if name.ends_with(".tmp") {
            listing.tmp.push(path);
        } else if name == v3::MANIFEST_NAME {
            listing.manifest = true;
        } else if v3::parse_gen_name(&name).is_some() {
            listing.gens.push(path);
        } else if let Some((step, pred, sealed)) = parse_segment_name(&name) {
            listing.segs.push(SegFile {
                key: (step, pred),
                path,
                sealed,
            });
        }
    }
    listing.gens.sort();
    listing
        .segs
        .sort_by(|a, b| (&a.key, !a.sealed).cmp(&(&b.key, !b.sealed)));
    Ok(Some(listing))
}

/// Read a whole spool file.
pub(crate) fn read_file(path: &Path) -> Result<Vec<u8>, StoreError> {
    std::fs::read(path).map_err(io_err(path))
}

/// Append the `len`-byte extent at `offset` of `path` to `buf`: one
/// seek and one read. An extent past the end of the file is
/// `UnexpectedEof`, and leaves `buf` as it was.
pub(crate) fn read_extent(
    path: &Path,
    offset: u64,
    len: usize,
    buf: &mut Vec<u8>,
) -> std::io::Result<()> {
    obs_handles::extent_reads().inc();
    let mut file = File::open(path)?;
    if offset > 0 {
        file.seek(SeekFrom::Start(offset))?;
    }
    let at = buf.len();
    buf.resize(at + len, 0);
    if let Err(e) = file.read_exact(&mut buf[at..]) {
        buf.truncate(at);
        return Err(e);
    }
    obs_handles::buffered_bytes().add(len as u64);
    trace::event(
        Level::Trace,
        "store::read",
        "extent_buffered",
        &[("offset", offset.into()), ("len", len.into())],
    );
    Ok(())
}

/// First half of an atomic publish: write `bytes` to `path`'s `.tmp`
/// sibling and, when `sync`, fsync it. Nothing is visible under `path`
/// until [`publish`] renames the returned temp file into place.
pub(crate) fn write_temp(path: &Path, bytes: &[u8], sync: bool) -> std::io::Result<PathBuf> {
    let tmp = with_suffix(path, ".tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    if sync {
        timed_sync(&file)?;
    }
    Ok(tmp)
}

/// Second half of an atomic publish: rename `tmp` over `path`, then,
/// when `sync`, fsync the directory entry.
pub(crate) fn publish(dir: &Path, tmp: &Path, path: &Path, sync: bool) -> std::io::Result<()> {
    std::fs::rename(tmp, path)?;
    if sync {
        let _ = timed_sync_dir(dir);
    }
    Ok(())
}

/// Write `bytes` to `path` atomically and durably: [`write_temp`], then
/// [`publish`], both synced.
pub(crate) fn write_atomic(dir: &Path, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    write_temp(path, bytes, true)
        .and_then(|tmp| publish(dir, &tmp, path, true))
        .map_err(io_err(path))
}

/// Salvage a torn unsealed tail: back the original bytes up to a
/// `.torn` sidecar, then truncate the file to `valid_end` (the last
/// record boundary), keeping `records` whole records. The sidecar write
/// happens first so the pre-salvage bytes are never lost.
pub(crate) fn salvage_truncate(
    path: &Path,
    original: &[u8],
    valid_end: usize,
    records: usize,
) -> Result<(), StoreError> {
    let sidecar = torn_sidecar_path(path);
    std::fs::write(&sidecar, original).map_err(io_err(&sidecar))?;
    OpenOptions::new()
        .write(true)
        .truncate(false) // keep the valid prefix; set_len cuts the tail
        .open(path)
        .and_then(|f| f.set_len(valid_end as u64))
        .map_err(io_err(path))?;
    obs_handles::salvaged_records().add(records as u64);
    Ok(())
}

/// Move a corrupt segment file into the spool's `quarantine/`
/// subdirectory, returning its new path.
pub(crate) fn quarantine_file(dir: &Path, path: &Path) -> Result<PathBuf, StoreError> {
    let qdir = quarantine_dir(dir);
    std::fs::create_dir_all(&qdir).map_err(io_err(&qdir))?;
    let dest = qdir.join(path.file_name().unwrap_or_default());
    std::fs::rename(path, &dest).map_err(io_err(path))?;
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
            Err(e) => return Err(io_err(path)(e)),
        }
    }
}

/// `fsync` a file, charging the wall time to `store_fsync_ns`.
fn timed_sync(file: &File) -> std::io::Result<()> {
    let t0 = Instant::now();
    let r = file.sync_all();
    obs_handles::fsync_ns().add(t0.elapsed().as_nanos() as u64);
    r
}

/// `fsync` a directory's entry table, charging `store_fsync_ns`.
pub(crate) fn timed_sync_dir(dir: &Path) -> std::io::Result<()> {
    let t0 = Instant::now();
    let r = File::open(dir).and_then(|f| f.sync_all());
    obs_handles::fsync_ns().add(t0.elapsed().as_nanos() as u64);
    r
}

/// Count a scripted fault firing and trace it under `store::fault`.
pub(crate) fn note_fault(name: &'static str, fields: &[(&'static str, trace::Value)]) {
    obs_handles::faults_injected().inc();
    trace::event(Level::Warn, "store::fault", name, fields);
}

impl ProvStore {
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
        let Some(mut listing) = list_spool(&dir)? else {
            return Ok(store);
        };
        for tmp in &listing.tmp {
            let _ = std::fs::remove_file(tmp);
        }
        if listing.manifest {
            // A manifest governs which generation files are live and
            // which segment files a completed compaction superseded. A
            // corrupt manifest fails typed — `scrub --repair` rebuilds
            // it from the generation files' own footers.
            let mpath = manifest_path(&dir);
            let bytes = read_file(&mpath)?;
            obs_handles::manifest_reads().inc();
            let manifest = v3::parse_manifest(&bytes).map_err(|e| StoreError::Corrupt {
                path: mpath.clone(),
                detail: format!("spool manifest: {e}"),
            })?;
            store.generation = manifest.generation;
            // Superseded segment files still on disk were about to be
            // deleted when the compaction crashed (after the manifest
            // swap); finish the deletion and drop them from the walk.
            let superseded: BTreeSet<&str> =
                manifest.superseded.iter().map(String::as_str).collect();
            listing.segs.retain(|seg| {
                let stale = superseded.contains(file_name(&seg.path).as_str());
                if stale {
                    let _ = std::fs::remove_file(&seg.path);
                }
                !stale
            });
            // Generation files the manifest does not list are orphans of
            // a superseded generation or of a compaction that crashed
            // before its manifest swap; the listed files are
            // authoritative, so orphans are deleted.
            for path in &listing.gens {
                let name = file_name(path);
                if !manifest.live.iter().any(|g| g.name == name) {
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
                    .map_err(io_err(&gpath))?;
                if size != info.size {
                    return Err(StoreError::Corrupt {
                        path: gpath,
                        detail: format!("manifest records {} bytes, file has {size}", info.size),
                    });
                }
                for e in &info.entries {
                    store.attach_recovered(
                        (e.superstep, e.pred.clone()),
                        DiskFile::extent(&gpath, e),
                    );
                }
            }
            // Keys whose data a scrub repair quarantined out of a
            // generation file: the quarantined file's name no longer
            // parses to a key, so the manifest carries them.
            for lost in &manifest.lost {
                store.raise_max_step(lost.superstep);
                store.quarantined.insert(
                    (lost.superstep, lost.pred.clone()),
                    quarantine_dir(&dir).join(&lost.quarantine),
                );
            }
        } else {
            // Generation files without a manifest are leftovers of a
            // compaction that crashed before publishing: the old segment
            // files are still authoritative, so the orphans are deleted.
            for path in &listing.gens {
                let _ = std::fs::remove_file(path);
            }
        }
        let mut rows = RowBlock::default();
        for SegFile { key, path, sealed } in listing.segs {
            let data = read_file(&path)?;
            let mut cols = Vec::new();
            let mode = if sealed {
                WalkMode::Strict
            } else {
                WalkMode::Salvage
            };
            rows.clear();
            let walked = walk_records(&data, &path, &mut rows, None, Some(&mut cols), mode)?;
            let mut kept = data.len();
            if let Some(detail) = walked.torn_tail {
                salvage_truncate(&path, &data, walked.valid_end, walked.records)?;
                kept = walked.valid_end;
                store.salvaged += walked.records;
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
            let seg = store.attach_recovered(
                key,
                DiskFile {
                    path,
                    offset: 0,
                    bytes: kept,
                    tuples: walked.tuples,
                    atomic: sealed,
                    compacted: false,
                },
            );
            absorb_cols(&mut seg.cols, &cols);
        }
        // Register segments a scrub repair moved into quarantine/, so
        // reads of their layers know data is missing.
        if let Ok(entries) = std::fs::read_dir(quarantine_dir(&dir)) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                if let Some((step, pred, _)) = parse_segment_name(&name.to_string_lossy()) {
                    store.raise_max_step(step);
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

    /// Register `file` as content of `key` recovered from the spool:
    /// counted, sealed against re-ingest, and — unless it holds no
    /// tuples, like a tail salvaged down to zero records — raising the
    /// cached max superstep.
    fn attach_recovered(&mut self, key: (u32, String), file: DiskFile) -> &mut Segment {
        self.tuples += file.tuples;
        self.disk_bytes += file.bytes;
        if file.tuples > 0 {
            self.raise_max_step(key.0);
        }
        let seg = self.segments.entry(key).or_default();
        seg.sealed = true;
        seg.disk.files.push(file);
        seg
    }

    /// The IO half of a spill write: push `mem` (records of segment
    /// `key`, taken out of it by the caller) to the spool under the
    /// configured durability level and return the segment's new
    /// disk-file list. `attempt` is the spill ordinal scripted faults
    /// key on. Does not touch segment state.
    pub(crate) fn spill_io(
        &self,
        dir: &Path,
        key: &(u32, String),
        mem: &[u8],
        mem_tuples: usize,
        attempt: u64,
    ) -> Result<Vec<DiskFile>, StoreError> {
        let fault = self.config.fault.as_deref();
        let existing = &self.segments[key].disk.files;
        if let Some(fault) = fault {
            if fault.take_enospc((self.disk_bytes + mem.len()) as u64) {
                note_fault("injected_enospc", &[("disk_bytes", self.disk_bytes.into())]);
                return Err(StoreError::Io {
                    path: segment_path(dir, key.0, &key.1),
                    source: std::io::Error::other("injected ENOSPC: no space left on device"),
                });
            }
        }
        // A torn write persists only a prefix and then fails like a crash.
        let torn_at = fault
            .and_then(|fault| fault.take_torn_write(attempt))
            .map(|keep| {
                note_fault(
                    "injected_torn_write",
                    &[("attempt", attempt.into()), ("keep_bytes", keep.into())],
                );
                keep.min(mem.len())
            });

        match self.config.durability {
            Durability::None | Durability::Spill => {
                let path = segment_path(dir, key.0, &key.1);
                let fsync = self.config.durability == Durability::Spill;
                // Append whole records to the unsealed tail: at the end
                // of what this store registered for the path, never of
                // what the file holds. Bytes past that end are not this
                // store's (a stale file from another run, or a failed
                // attempt's prefix) and are truncated away before every
                // attempt, which also makes the write retry-idempotent.
                let registered = existing.iter().find(|f| f.path == path);
                let new_file = registered.is_none();
                let before = registered.map_or(0, |f| f.offset + f.bytes as u64);
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
                        file.write_all(&mem[..keep])?;
                        let _ = file.sync_all();
                        return Err(std::io::Error::other(
                            "injected torn write (crash mid-record)",
                        ));
                    }
                    file.write_all(mem)?;
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
                    read_extent(&f.path, f.offset, f.bytes, &mut full).map_err(io_err(&f.path))?;
                }
                full.extend_from_slice(mem);
                with_spill_retries(fault, &seal_path, || {
                    if let Some(keep) = torn_at {
                        // Crash mid-seal: only the temp file is torn;
                        // the published .seal is untouched.
                        write_temp(&seal_path, &full[..full.len() - mem.len() + keep], true)?;
                        return Err(std::io::Error::other(
                            "injected torn write (crash mid-seal)",
                        ));
                    }
                    let tmp = write_temp(&seal_path, &full, true)?;
                    publish(dir, &tmp, &seal_path, true)
                })?;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scrub::scrub_spool;
    use crate::store::tests::{temp_dir, tuple};
    use ariadne_pql::{Tuple, Value};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    #[test]
    fn buffered_reads_extents() {
        let path = temp_dir("extent-buf");
        std::fs::write(&path, b"0123456789").unwrap();
        let mut buf = b"head:".to_vec();
        read_extent(&path, 3, 4, &mut buf).unwrap();
        assert_eq!(buf, b"head:3456", "the extent lands behind what buf held");
        read_extent(&path, 0, 10, &mut buf).unwrap();
        assert_eq!(buf, b"head:34560123456789");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn extent_overrun_is_typed() {
        let path = temp_dir("extent-overrun");
        std::fs::write(&path, b"short").unwrap();
        let mut buf = b"kept".to_vec();
        let err = read_extent(&path, 2, 100, &mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        assert_eq!(buf, b"kept", "a failed read leaves the buffer as it was");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zero_length_extent_reads_empty() {
        let path = temp_dir("extent-empty");
        std::fs::write(&path, b"").unwrap();
        let mut buf = Vec::new();
        read_extent(&path, 0, 0, &mut buf).unwrap();
        assert!(buf.is_empty());
        std::fs::remove_file(&path).ok();
    }

    /// A fresh store over a used spool directory reads its own rows,
    /// never the earlier run's: its first spill of a segment truncates
    /// the stale file instead of appending after it.
    #[test]
    fn a_fresh_store_never_reads_a_stale_spool() {
        let dir = temp_dir("stale-spool");
        std::fs::remove_dir_all(&dir).ok();
        for k in 1..=2 {
            let mut store = ProvStore::new(StoreConfig::spilling(0, dir.clone()));
            let rows = (0..5).map(|i| vec![Value::Id(i), Value::Int(k)]).collect();
            store.ingest(0, "p", rows).unwrap();
            assert!(store.disk_bytes() > 0, "budget 0 spills");
            let layer = store.layer(0).unwrap();
            let (pred, tuples) = &layer[0];
            assert_eq!(pred, "p");
            assert_eq!(tuples.len(), 5, "run {k}");
            assert!(
                tuples.iter().all(|t| t[1] == Value::Int(k)),
                "run {k} read {tuples:?}"
            );
        }
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
        let mut store =
            ProvStore::resume_from_spool(StoreConfig::spilling(0, dir.clone())).unwrap();
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

    /// A copy, in a fresh temporary directory, of the committed spool
    /// fixture `name`: written by the last writer of the v1 and v2
    /// record formats, which now only decode (see
    /// `tests/fixtures/README.md`).
    fn fixture(name: &str) -> PathBuf {
        let src = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(name);
        let dir = temp_dir(&format!("fixture-{name}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        for entry in std::fs::read_dir(&src).unwrap() {
            let path = entry.unwrap().path();
            std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
        }
        dir
    }

    fn id_int(ids: std::ops::Range<u64>, tag: i64) -> Vec<Tuple> {
        ids.map(|v| vec![Value::Id(v), Value::Int(tag)]).collect()
    }

    /// What fixture `name` holds: its (layer, predicate, rows) batches,
    /// in the order they were written.
    fn fixture_rows(name: &str) -> Vec<(u32, &'static str, Vec<Tuple>)> {
        let float = |n: u64, tag: i64| -> Vec<Tuple> {
            let row = |v: u64| {
                vec![
                    Value::Id(v),
                    Value::Float(1.0 / (v + 1) as f64),
                    Value::Int(tag),
                ]
            };
            (0..n).map(row).collect()
        };
        let ragged = (0..7u64)
            .map(|x| (0..x % 4).map(|k| Value::Id(x * 10 + k)).collect())
            .collect();
        let sent = || {
            (0..7u64)
                .map(|v| vec![Value::Id(v), Value::Id(v + 1)])
                .collect()
        };
        match &name[name.find('-').map_or(0, |at| at + 1)..] {
            "torn" => (0..4).map(|b| (0, "value", id_int(0..5, b))).collect(),
            "flip" => (0..2)
                .map(|l| (l, "value", id_int(0..6, l.into())))
                .collect(),
            "fuzz" => (0..3).map(|l| (l, "value", float(40, l.into()))).collect(),
            "spool" => vec![
                (0, "value", id_int(0..10, 0)),
                (1, "value", id_int(0..10, 1)),
                (3, "rg", ragged),
                (2, "value", id_int(0..10, 2)),
            ],
            "records" => vec![
                (0, "value", id_int(0..5, 0)),
                (0, "value", id_int(5..12, 0)),
            ],
            "compact" => (0..2)
                .flat_map(|l| [(l, "value", id_int(0..32, l.into())), (l, "sent", sent())])
                .collect(),
            other => panic!("no fixture {other}"),
        }
    }

    /// The opening magics of the records of spool file `path`, in order.
    fn record_magics(path: &Path) -> Vec<[u8; 4]> {
        let bytes = std::fs::read(path).unwrap();
        let mut magics = Vec::new();
        let mut at = 0;
        while at < bytes.len() {
            magics.push(bytes[at..at + 4].try_into().unwrap());
            let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap());
            at += crate::frame::RECORD_OVERHEAD + len as usize;
        }
        magics
    }

    /// Every committed fixture file is pinned by its CRC, and each
    /// fixture spool reopens to the rows it was written with.
    #[test]
    fn old_format_fixtures_are_pinned() {
        const PINNED: [(&str, &[(&str, u32)]); 10] = [
            (
                "mixed-compact",
                &[
                    ("seg-0-sent.bin", 0x48afb5dc),
                    ("seg-0-value.bin", 0x3cbfa538),
                    ("seg-1-sent.bin", 0xf6a9baa5),
                    ("seg-1-value.bin", 0x6d7f2014),
                ],
            ),
            ("mixed-records", &[("seg-0-value.bin", 0xd2d4e818)]),
            (
                "v1-flip",
                &[
                    ("seg-0-value.bin", 0xc0afa726),
                    ("seg-1-value.bin", 0xb6eeabfa),
                ],
            ),
            (
                "v1-fuzz",
                &[
                    ("seg-0-value.bin", 0x8e2ad046),
                    ("seg-1-value.bin", 0xbe324c49),
                    ("seg-2-value.bin", 0xee1be858),
                ],
            ),
            (
                "v1-spool",
                &[
                    ("seg-0-value.bin", 0xa745ee73),
                    ("seg-1-value.bin", 0xc49b6613),
                    ("seg-2-value.seal", 0x60f8feb3),
                    ("seg-3-rg.bin", 0x3c8b56e4),
                ],
            ),
            ("v1-torn", &[("seg-0-value.bin", 0xe7b03612)]),
            (
                "v2-flip",
                &[
                    ("seg-0-value.bin", 0x2a040793),
                    ("seg-1-value.bin", 0xb7f3d833),
                ],
            ),
            (
                "v2-fuzz",
                &[
                    ("seg-0-value.bin", 0xc592cab8),
                    ("seg-1-value.bin", 0xcd57c2bd),
                    ("seg-2-value.bin", 0xd418dab2),
                ],
            ),
            (
                "v2-spool",
                &[
                    ("seg-0-value.bin", 0x88ed2ebf),
                    ("seg-1-value.bin", 0xd9769143),
                    ("seg-2-value.seal", 0x2bda5147),
                    ("seg-3-rg.bin", 0x3c8b56e4),
                ],
            ),
            ("v2-torn", &[("seg-0-value.bin", 0x905d4827)]),
        ];
        for (name, files) in PINNED {
            let dir = fixture(name);
            let mut crcs: Vec<(String, u32)> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|entry| {
                    let path = entry.unwrap().path();
                    let crc = ariadne_vc::checkpoint::crc32(&std::fs::read(&path).unwrap());
                    (
                        path.file_name().unwrap().to_string_lossy().into_owned(),
                        crc,
                    )
                })
                .collect();
            crcs.sort();
            let want: Vec<(String, u32)> = files.iter().map(|&(f, c)| (f.into(), c)).collect();
            assert_eq!(crcs, want, "{name}: files and CRCs");
            let mut want: BTreeMap<(u32, String), Vec<Tuple>> = BTreeMap::new();
            for (s, pred, rows) in fixture_rows(name) {
                want.entry((s, pred.into())).or_default().extend(rows);
            }
            let store =
                ProvStore::resume_from_spool(StoreConfig::spilling(0, dir.clone())).unwrap();
            let mut got = BTreeMap::new();
            for s in 0..=store.max_superstep().unwrap() {
                for (pred, rows) in store.layer(s).unwrap() {
                    got.insert((s, pred), rows);
                }
            }
            assert_eq!(got, want, "{name}: rows");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// Spools of the old formats reopen under the one writer. Each holds
    /// unsealed tails, a sealed segment and a ragged row-major record:
    /// every segment seals, pure-v1 segments report no column stats,
    /// replaying their layers is an idempotent no-op, and a new layer
    /// lands in the same spool.
    #[test]
    fn v1_spool_resumes_under_v2_store() {
        for name in ["v1-spool", "v2-spool"] {
            let dir = fixture(name);
            let mut store =
                ProvStore::resume_from_spool(StoreConfig::spilling(0, dir.clone())).unwrap();
            assert_eq!(store.tuple_count(), 37, "{name}");
            assert_eq!(store.sealed_segments(), 4, "{name}");
            let columnar = store
                .segment_index()
                .filter(|s| !s.columns.is_empty())
                .count();
            assert_eq!(columnar, if name == "v1-spool" { 0 } else { 3 }, "{name}");
            for (s, pred, rows) in fixture_rows(name) {
                store.ingest(s, pred, rows).unwrap();
            }
            assert_eq!(store.tuple_count(), 37, "{name}: replay deduplicated");
            store.ingest(4, "value", id_int(0..10, 4)).unwrap();
            for s in [0, 1, 2, 4] {
                assert_eq!(
                    store.layer(s).unwrap()[0].1,
                    id_int(0..10, s.into()),
                    "{name} {s}"
                );
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// A segment file can hold v1, v2 and v3-writer records one after
    /// another; the per-record version byte dispatches the decoder. The
    /// fixture's file holds a v1 then a v2 record, and the test appends
    /// a v3 record that another store spilled.
    #[test]
    fn mixed_v1_v2_records_in_one_segment() {
        let dir = fixture("mixed-records");
        // A fresh store never appends to a file it did not write, so the
        // v3 record is written by one of its own and appended by hand.
        let v3_dir = temp_dir("mixed-records-v3");
        std::fs::remove_dir_all(&v3_dir).ok();
        let mut store = ProvStore::new(StoreConfig::spilling(0, v3_dir.clone()));
        store.ingest(0, "value", id_int(12..20, 0)).unwrap();
        drop(store);
        let v3 = std::fs::read(segment_path(&v3_dir, 0, "value")).unwrap();
        let mut file = OpenOptions::new()
            .append(true)
            .open(segment_path(&dir, 0, "value"))
            .unwrap();
        file.write_all(&v3).unwrap();
        std::fs::remove_dir_all(&v3_dir).ok();
        let magics = record_magics(&segment_path(&dir, 0, "value"));
        assert_eq!(magics[..2], [*b"ARSG", *b"ARS2"]);
        assert_eq!(magics.len(), 3);
        let store = ProvStore::resume_from_spool(StoreConfig::spilling(0, dir.clone())).unwrap();
        assert_eq!(store.layer(0).unwrap()[0].1, id_int(0..20, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// [`Durability::Seal`] writes only atomic `.seal` files — never an
    /// append tail — and repeated spills of the same segment rewrite the
    /// sealed file with the full content.
    #[test]
    fn seal_durability_writes_only_atomic_files() {
        let dir = temp_dir("seal-atomic");
        std::fs::remove_dir_all(&dir).ok();
        let mut store =
            ProvStore::new(StoreConfig::spilling(0, dir.clone()).with_durability(Durability::Seal));
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
        let mut store =
            ProvStore::new(StoreConfig::spilling(0, dir.clone()).with_durability(Durability::Seal));
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

    /// Injected ENOSPC is a typed, non-retried error naming the segment
    /// path.
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
        assert!(matches!(
            err,
            StoreError::InjectedSpillFailure { attempt: 0 }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
