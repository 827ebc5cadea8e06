//! Scrub: re-verify every record of every spool file, report the
//! damage, and — with `repair` — salvage torn tails and quarantine what
//! cannot be saved.
//!
//! There is **one** verifier, `verify_spool`, working from the spool
//! directory alone, and one caller of it: the offline [`scrub_spool`]
//! (behind the `ariadne scrub` CLI subcommand). A store is repaired by
//! scrubbing its spool with `repair` and reopening it with
//! [`ProvStore::resume_from_spool`](crate::ProvStore::resume_from_spool).
//!
//! Damage is reported as a structured [`ScrubReport`]. With `repair`,
//! torn unsealed tails are truncated back to their last record boundary
//! (after a `.torn` sidecar backup), irrecoverable files move into the
//! spool's `quarantine/` subdirectory, and a damaged or outdated
//! manifest is rebuilt from the surviving generation files' own
//! footers, listing the keys a quarantined generation file took with it
//! so a reopen still knows what is missing. Reads of a quarantined
//! layer then fail with a typed [`StoreError::Quarantined`]; no read
//! returns a partial answer.

use crate::frame::{verify_records, WalkMode};
use crate::obs_handles;
use crate::rows::RowBlock;
use crate::spool::{
    file_name, list_spool, manifest_path, quarantine_file, read_file, salvage_truncate,
    write_atomic, SegFile,
};
use crate::store::StoreError;
use crate::v3::{self, GenFileInfo, LostKey, Manifest};
use ariadne_obs::export::escape;
use ariadne_obs::trace::{self, Level};
use std::path::{Path, PathBuf};

/// What a repairing scrub did about one damaged file.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ScrubAction {
    /// Detected only: the scrub ran without `repair`.
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
    /// The damaged file (its new place under `quarantine/` once a
    /// repair moved it there).
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

impl SegmentDamage {
    /// Irrecoverable damage (nothing kept, no action taken yet) to an
    /// atomically written spool-level file with no segment key of its
    /// own, labelled `pred`.
    fn corrupt(path: PathBuf, pred: String, detail: String, bytes_lost: usize) -> Self {
        SegmentDamage {
            path,
            superstep: 0,
            pred,
            sealed: true,
            torn: false,
            detail,
            action: ScrubAction::None,
            records_kept: 0,
            bytes_lost,
        }
    }
}

/// The result of a [`scrub_spool`] pass over every spool file.
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
                escape(&d.path.display().to_string()),
                d.superstep,
                escape(&d.pred),
                d.sealed,
                d.torn,
                d.action,
                d.records_kept,
                d.bytes_lost,
                escape(&d.detail),
            ));
        }
        s.push_str("]}");
        s
    }

    /// Add one cleanly verified stretch of records to the totals.
    fn count(&mut self, records: usize, tuples: usize) {
        self.records_verified += records;
        self.tuples_verified += tuples;
    }
}

/// Fully re-verify one generation file's bytes: parse the footer
/// (trailer magic, length, CRC, entry bounds), then walk every record
/// frame of the record region strictly, returning the records and
/// tuples verified plus the footer entries. Generation files are
/// written atomically, so any damage — including an apparent
/// truncation — is corruption; there is no torn-tail salvage for them.
fn verify_gen_file(
    data: &[u8],
    path: &Path,
    scratch: &mut RowBlock,
) -> Result<(usize, usize, Vec<v3::FooterEntry>), String> {
    obs_handles::footer_reads().inc();
    let (entries, region_end) =
        v3::parse_footer(data).map_err(|e| format!("generation footer: {e}"))?;
    let w = verify_records(&data[..region_end], path, WalkMode::Strict, scratch)
        .map_err(|e| e.to_string())?;
    // The footer's extent accounting must agree with the frames.
    let footer_tuples: u64 = entries.iter().map(|e| e.tuples).sum();
    if footer_tuples != w.tuples as u64 {
        return Err(format!(
            "footer claims {footer_tuples} tuples, frames hold {}",
            w.tuples
        ));
    }
    Ok((w.records, w.tuples, entries))
}

/// The one spool verifier: walk every `seg-*.bin` / `seg-*.seal` file,
/// the manifest and every generation file under `dir`, re-verify every
/// checksum and payload decode, and append what was checked and found
/// to `report`. With `repair`, fix what can be fixed on disk. Every
/// file decodes into one scratch block.
fn verify_spool(dir: &Path, repair: bool, report: &mut ScrubReport) -> Result<(), StoreError> {
    let Some(listing) = list_spool(dir)? else {
        return Ok(());
    };
    let scratch = &mut RowBlock::default();
    for SegFile { key, path, sealed } in listing.segs {
        report.files_checked += 1;
        let data = read_file(&path)?;
        let mut damage = SegmentDamage {
            path,
            superstep: key.0,
            pred: key.1,
            sealed,
            torn: false,
            detail: String::new(),
            action: ScrubAction::None,
            records_kept: 0,
            bytes_lost: data.len(),
        };
        // Every CRC, every payload decode. A torn tail only counts as
        // salvageable in an unsealed file; a sealed file was renamed
        // into place complete, so any damage in it — including an
        // apparent truncation — is corruption, like damage inside
        // complete frames anywhere: irrecoverable, the repair is
        // quarantine.
        damage.detail = match verify_records(&data, &damage.path, WalkMode::Salvage, scratch) {
            Ok(w) => match w.torn_tail {
                None => {
                    report.count(w.records, w.tuples);
                    continue;
                }
                Some(detail) if sealed => format!("torn tail in sealed segment: {detail}"),
                Some(detail) => {
                    report.count(w.records, w.tuples);
                    damage.torn = true;
                    damage.records_kept = w.records;
                    damage.bytes_lost = data.len() - w.valid_end;
                    if repair {
                        salvage_truncate(&damage.path, &data, w.valid_end, w.records)?;
                        damage.action = ScrubAction::Salvaged;
                    }
                    detail
                }
            },
            Err(e) => e.to_string(),
        };
        if repair && !damage.torn {
            damage.path = quarantine_file(dir, &damage.path)?;
            damage.action = ScrubAction::Quarantined;
        }
        report.damage.push(damage);
    }
    // v3: verify the spool manifest (whole-payload CRC) and every
    // generation file (footer trailer + footer CRC + every record
    // frame). Every byte of both is covered by some check, so any
    // single bit flip is detected. A corrupt generation file is
    // quarantined on repair; its keys are recovered from the manifest's
    // footer mirror (the file's own footer being unreadable) and
    // recorded on the rebuilt manifest's lost list so resume still
    // knows what is missing.
    let mpath = manifest_path(dir);
    let mut manifest: Option<Manifest> = None;
    let mut manifest_damage = None;
    if listing.manifest {
        report.files_checked += 1;
        let bytes = read_file(&mpath)?;
        obs_handles::manifest_reads().inc();
        match v3::parse_manifest(&bytes) {
            Ok(m) => manifest = Some(m),
            Err(e) => {
                manifest_damage = Some(report.damage.len());
                report.damage.push(SegmentDamage::corrupt(
                    mpath.clone(),
                    "<manifest>".into(),
                    format!("spool manifest: {e}"),
                    bytes.len(),
                ));
            }
        }
    }
    let mut lost: Vec<LostKey> = manifest
        .as_ref()
        .map(|m| m.lost.clone())
        .unwrap_or_default();
    let mut live: Vec<GenFileInfo> = Vec::new();
    let mut gen_changed = false;
    for gpath in listing.gens {
        report.files_checked += 1;
        let data = read_file(&gpath)?;
        let name = file_name(&gpath);
        match verify_gen_file(&data, &gpath, scratch) {
            Ok((records, tuples, entries)) => {
                report.count(records, tuples);
                live.push(GenFileInfo {
                    name,
                    size: data.len() as u64,
                    entries,
                });
            }
            Err(detail) => {
                let mut damage = SegmentDamage::corrupt(
                    gpath.clone(),
                    format!("<generation:{name}>"),
                    detail,
                    data.len(),
                );
                if repair {
                    damage.path = quarantine_file(dir, &gpath)?;
                    damage.action = ScrubAction::Quarantined;
                    gen_changed = true;
                    let mirror = manifest
                        .iter()
                        .flat_map(|m| &m.live)
                        .find(|g| g.name == name);
                    for e in mirror.iter().flat_map(|g| &g.entries) {
                        lost.push(LostKey {
                            superstep: e.superstep,
                            pred: e.pred.clone(),
                            quarantine: file_name(&damage.path),
                        });
                    }
                }
                report.damage.push(damage);
            }
        }
    }
    // Rebuild the manifest when it was damaged or the live set changed:
    // the surviving generation files' own footers are the source of
    // truth (conservatively: superseded empties — a crashed compaction's
    // leftovers get cleaned by resume).
    if repair && listing.manifest && (manifest_damage.is_some() || gen_changed) {
        // When the manifest itself was unreadable its generation number
        // is gone too; the live file names carry it.
        let generation = manifest.as_ref().map(|m| m.generation).unwrap_or_else(|| {
            live.iter()
                .filter_map(|g| v3::parse_gen_name(&g.name).map(|(gen, _)| gen))
                .max()
                .unwrap_or(0)
        });
        let rebuilt = Manifest {
            generation,
            live,
            superseded: Vec::new(),
            lost,
        };
        write_atomic(dir, &mpath, &v3::encode_manifest(&rebuilt))?;
        if let Some(at) = manifest_damage {
            report.damage[at].action = ScrubAction::Salvaged;
        }
    }
    Ok(())
}

/// Scrub a spool directory offline (no open store required): walk every
/// `seg-*.bin` / `seg-*.seal` file, the manifest and every generation
/// file, re-verify every checksum and payload decode, and report the
/// damage found. With `repair`, torn unsealed tails are salvaged
/// (truncated after a `.torn` sidecar backup) and irrecoverably corrupt
/// files are moved into `quarantine/`, after which
/// [`ProvStore::resume_from_spool`](crate::ProvStore::resume_from_spool)
/// opens the spool: undamaged layers read in full, and reads of a
/// quarantined layer fail with [`StoreError::Quarantined`].
///
/// Backs the `ariadne scrub` CLI subcommand. The pass is charged to the
/// `store_scrub_*` counters and traced.
pub fn scrub_spool(dir: &Path, repair: bool) -> Result<ScrubReport, StoreError> {
    let mut report = ScrubReport {
        repaired: repair,
        ..ScrubReport::default()
    };
    verify_spool(dir, repair, &mut report)?;
    obs_handles::scrub_files().add(report.files_checked as u64);
    obs_handles::scrub_records().add(report.records_verified as u64);
    obs_handles::scrub_tuples().add(report.tuples_verified as u64);
    obs_handles::scrub_damage().add(report.damage.len() as u64);
    trace::event(
        Level::Info,
        "store",
        "scrub",
        &[
            ("dir", dir.display().to_string().into()),
            ("files_checked", report.files_checked.into()),
            ("records_verified", report.records_verified.into()),
            ("damage", report.damage.len().into()),
            ("repaired", u64::from(report.repaired).into()),
        ],
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spool::{segment_path, torn_sidecar_path};
    use crate::store::tests::{temp_dir, tuple};
    use crate::store::{ProvStore, StoreConfig};

    /// Scrub detects an injected bit flip; repair quarantines the file;
    /// a resume then opens the spool: the undamaged layer reads in full,
    /// and a read of the quarantined one fails typed with
    /// [`StoreError::Quarantined`].
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
        drop(store);
        let path = segment_path(&dir, 0, "value");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        // Detection pass: damage reported, nothing moved.
        let report = scrub_spool(&dir, false).unwrap();
        assert_eq!(report.damage.len(), 1);
        assert_eq!(report.damage[0].action, ScrubAction::None);
        assert!(path.exists());

        // Repair pass: the corrupt file moves into quarantine/.
        let report = scrub_spool(&dir, true).unwrap();
        assert_eq!(report.damage.len(), 1);
        assert_eq!(report.damage[0].action, ScrubAction::Quarantined);
        assert!(!path.exists(), "corrupt file moved out of the spool");
        let json = report.to_json();
        assert!(json.contains("\"action\":\"quarantined\""), "{json}");

        // A resume sees the quarantine and opens without error.
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
}
