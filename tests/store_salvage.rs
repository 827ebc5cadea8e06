//! The durability contract, exhaustively: torn writes at every byte
//! offset of every record format salvage back to a record boundary
//! (never returning data a clean run's prefix would not have), scrub
//! detects every injected bit flip, repair quarantines irrecoverable
//! segments so a reopen succeeds and reads of the lost layer fail typed,
//! and an out-of-space capture fails typed, naming the segment file.

use ariadne_pql::Value;
use ariadne_provenance::{
    compact_spool, scrub_spool, Durability, LayerFilter, ProvStore, ScrubAction, StoreConfig,
    StoreError,
};
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ariadne-salvage-{tag}-{}", std::process::id()))
}

/// Copy the committed spool fixture `name` into `dir`. The fixtures are
/// spools the last v1 and v2 writers wrote (see
/// `crates/provenance/tests/fixtures/README.md`): those formats are
/// decode-only now, so their spools are read from files, not written.
fn copy_fixture(name: &str, dir: &Path) {
    let src = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("crates/provenance/tests/fixtures")
        .join(name);
    std::fs::create_dir_all(dir).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
    }
}

/// The offset just past each record of a concatenation of record
/// frames, going by each header's payload length.
fn record_ends(bytes: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap());
        at += 20 + len as usize;
        ends.push(at);
    }
    ends
}

/// Truncate one segment file at *every* byte offset and resume. Each
/// cut must come back as an exact record-granularity prefix of the
/// clean run: whole records before the cut survive, the torn tail is
/// backed up to a `.torn` sidecar and truncated away, and nothing the
/// clean run did not hold is ever returned. The file holds four records
/// of five rows, one per ingest: in `format` "v1" and "v2" it is a
/// committed fixture, in "v3" the store writes it.
fn torn_write_matrix(format: &str, tag: &str) {
    let dir = temp_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let seg_path = dir.join("seg-0-value.bin");
    let sidecar = dir.join("seg-0-value.bin.torn");

    let batches: Vec<Vec<Vec<Value>>> = (0..4i64)
        .map(|b| (0..5u64).map(|v| vec![Value::Id(v), Value::Int(b)]).collect())
        .collect();
    if format == "v3" {
        let mut store = ProvStore::new(StoreConfig::spilling(0, dir.clone()));
        for batch in &batches {
            store.ingest(0, "value", batch.clone()).unwrap();
        }
    } else {
        copy_fixture(&format!("{format}-torn"), &dir);
    }
    let clean = std::fs::read(&seg_path).unwrap();
    // The record boundaries are the only valid salvage points.
    let boundaries = record_ends(&clean);
    assert_eq!(boundaries.len(), 4);

    for cut in 0..=clean.len() {
        std::fs::write(&seg_path, &clean[..cut]).unwrap();
        let _ = std::fs::remove_file(&sidecar);

        let resumed = ProvStore::resume_from_spool(StoreConfig::spilling(0, dir.clone()))
            .unwrap_or_else(|e| panic!("cut {cut}: resume must salvage, got {e}"));
        let k = boundaries.iter().filter(|b| **b <= cut).count();
        let expect: Vec<Vec<Value>> = batches[..k].concat();
        let read = resumed.layer_read(0, &LayerFilter::all()).unwrap();
        let got: Vec<Vec<Value>> = read
            .tuples
            .iter()
            .flat_map(|(_, t)| t.iter().cloned())
            .collect();
        assert_eq!(got, expect, "cut {cut}: salvage is not a clean-run record prefix");

        let at_boundary = cut == 0 || boundaries.contains(&cut);
        let valid_end = if k > 0 { boundaries[k - 1] } else { 0 };
        if at_boundary {
            assert_eq!(resumed.salvaged_records(), 0, "cut {cut}: boundary needs no salvage");
            assert!(!sidecar.exists(), "cut {cut}: no sidecar at a record boundary");
        } else {
            assert_eq!(resumed.salvaged_records(), k, "cut {cut}: salvaged record count");
            assert!(sidecar.exists(), "cut {cut}: torn bytes must be backed up first");
            assert_eq!(
                std::fs::metadata(&seg_path).unwrap().len() as usize,
                valid_end,
                "cut {cut}: file truncated back to the last whole record"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_write_matrix_v1() {
    torn_write_matrix("v1", "torn-v1");
}

#[test]
fn torn_write_matrix_v2() {
    torn_write_matrix("v2", "torn-v2");
}

#[test]
fn torn_write_matrix_v3() {
    torn_write_matrix("v3", "torn-v3");
}

/// Flip every bit of every byte of every spool file, one at a time: a
/// detection-only scrub must report damage for each flip (CRCs over the
/// payload, framed magics/footers and length fields leave no byte whose
/// corruption can pass), and must report the spool clean once restored.
/// The spool holds two layers of six rows: in `format` "v1" and "v2" a
/// committed fixture, in "v3" written by the store.
fn bit_flip_matrix(format: &str, tag: &str) {
    let dir = temp_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    if format == "v3" {
        let mut store = ProvStore::new(StoreConfig::spilling(0, dir.clone()));
        for s in 0..2u32 {
            let batch: Vec<Vec<Value>> = (0..6u64)
                .map(|v| vec![Value::Id(v), Value::Int(s as i64)])
                .collect();
            store.ingest(s, "value", batch).unwrap();
        }
    } else {
        copy_fixture(&format!("{format}-flip"), &dir);
    }

    let files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "bin"))
        .collect();
    assert_eq!(files.len(), 2);

    for path in &files {
        let clean = std::fs::read(path).unwrap();
        for i in 0..clean.len() {
            for bit in 0..8u8 {
                let mut bytes = clean.clone();
                bytes[i] ^= 1 << bit;
                std::fs::write(path, &bytes).unwrap();
                let report = scrub_spool(&dir, false).unwrap();
                assert!(
                    !report.is_clean(),
                    "flip of bit {bit} at byte {i} of {} went undetected",
                    path.display()
                );
                assert!(
                    report.damage.iter().any(|d| d.path == *path),
                    "flip at byte {i}: damage blamed on the wrong file"
                );
            }
        }
        std::fs::write(path, &clean).unwrap();
    }
    assert!(scrub_spool(&dir, false).unwrap().is_clean());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flip_matrix_v1() {
    bit_flip_matrix("v1", "flip-v1");
}

#[test]
fn bit_flip_matrix_v2() {
    bit_flip_matrix("v2", "flip-v2");
}

#[test]
fn bit_flip_matrix_v3() {
    bit_flip_matrix("v3", "flip-v3");
}

/// The repair contract end to end: detect -> repair (quarantine) ->
/// reopen succeeds -> intact layers read in full -> reads of the damaged
/// layer report the loss as a typed error -> a second scrub is clean.
#[test]
fn repair_then_strict_open_and_degraded_loss() {
    let dir = temp_dir("repair");
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = ProvStore::new(StoreConfig::spilling(0, dir.clone()));
    for s in 0..3u32 {
        let batch: Vec<Vec<Value>> = (0..8u64)
            .map(|v| vec![Value::Id(v), Value::Int(s as i64)])
            .collect();
        store.ingest(s, "value", batch).unwrap();
    }
    drop(store);

    // Corrupt a payload byte inside a complete frame of the middle
    // layer: CRC-detectable, not salvageable.
    let victim = dir.join("seg-1-value.bin");
    let mut bytes = std::fs::read(&victim).unwrap();
    bytes[20] ^= 0x01;
    std::fs::write(&victim, &bytes).unwrap();

    let detect = scrub_spool(&dir, false).unwrap();
    assert!(!detect.is_clean());
    assert!(!detect.repaired);
    assert!(detect.damage.iter().all(|d| d.action == ScrubAction::None));

    let repair = scrub_spool(&dir, true).unwrap();
    assert!(repair.repaired);
    assert!(repair
        .damage
        .iter()
        .any(|d| d.action == ScrubAction::Quarantined));
    assert!(dir.join("quarantine").join("seg-1-value.bin").exists());

    // The repaired spool reopens; intact layers read in full.
    let resumed = ProvStore::resume_from_spool(StoreConfig::spilling(0, dir.clone())).unwrap();
    for s in [0u32, 2] {
        let read = resumed.layer_read(s, &LayerFilter::all()).unwrap();
        assert_eq!(read.tuples.iter().map(|(_, t)| t.len()).sum::<usize>(), 8);
    }

    // The quarantined layer: the loss is a typed error.
    let err = resumed.layer_read(1, &LayerFilter::all()).unwrap_err();
    assert!(matches!(err, StoreError::Quarantined { .. }), "{err:?}");

    assert!(scrub_spool(&dir, false).unwrap().is_clean());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Out-of-space during a capture: the run fails with the typed spill
/// error — an `Io` error naming the segment file, `ENOSPC` in its
/// source — and fails promptly, without hanging on the writer thread.
#[test]
fn enospc_capture_fails_typed() {
    use ariadne::session::{Ariadne, AriadneError};
    use ariadne::{CaptureSpec, FaultPlan};
    use ariadne_analytics::Sssp;
    use ariadne_graph::generators::regular::path;
    use ariadne_graph::VertexId;
    use std::time::Duration;

    let dir = temp_dir("enospc");
    let _ = std::fs::remove_dir_all(&dir);
    let plan = FaultPlan::new();
    plan.enospc_after_bytes(0);
    let ariadne = Ariadne {
        store: StoreConfig::spilling(0, dir.clone()).with_fault(plan),
        ..Ariadne::default()
    };

    let (done, outcome) = std::sync::mpsc::channel();
    let capture = std::thread::spawn(move || {
        let run = ariadne.capture(&Sssp::new(VertexId(0)), &path(32), &CaptureSpec::full());
        let _ = done.send(run.map(|_| ()));
    });
    let err = outcome
        .recv_timeout(Duration::from_secs(60))
        .expect("the capture returns within the timeout")
        .expect_err("a full disk fails the capture");
    capture.join().expect("the capture thread exits cleanly");
    match err {
        AriadneError::Store(StoreError::Io { path, source }) => {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            assert!(name.starts_with("seg-"), "{}", path.display());
            assert!(source.to_string().contains("ENOSPC"), "{source}");
        }
        other => panic!("expected a typed Io store error, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Canonical logical content of a store: every relation, sorted. Two
/// spools hold the same provenance iff their snapshots are equal.
fn snapshot(store: &ProvStore) -> Vec<(String, Vec<Vec<Value>>)> {
    let db = store.to_database().unwrap();
    let names: Vec<String> = db.iter().map(|(n, _)| n.to_string()).collect();
    names.into_iter().map(|n| (n.clone(), db.sorted(&n))).collect()
}

fn spool_names(dir: &PathBuf) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// Compaction over a spool holding all three record formats at once:
/// the rewrite is logically bit-identical under `to_database()`, and a
/// second pass (nothing left to merge) is idempotent on content while
/// still bumping the generation. Layers 0 (v1) and 1 (v2) come from a
/// committed fixture; a resumed store writes layer 2.
#[test]
fn compact_mixed_format_spool_bit_identical_and_idempotent() {
    let dir = temp_dir("compact-mixed");
    let _ = std::fs::remove_dir_all(&dir);
    copy_fixture("mixed-compact", &dir);
    let mut store = ProvStore::resume_from_spool(StoreConfig::spilling(0, dir.clone())).unwrap();
    let batch: Vec<Vec<Value>> = (0..32u64)
        .map(|v| vec![Value::Id(v), Value::Int(2)])
        .collect();
    store.ingest(2, "value", batch).unwrap();
    store
        .ingest(
            2,
            "sent",
            (0..7u64).map(|v| vec![Value::Id(v), Value::Id(v + 1)]).collect(),
        )
        .unwrap();
    drop(store);

    let baseline = {
        let store = ProvStore::resume_from_spool(StoreConfig::spilling(0, dir.clone())).unwrap();
        snapshot(&store)
    };

    let r1 = compact_spool(&dir).unwrap();
    assert_eq!(r1.generation, 1);
    assert_eq!(r1.segments, 6, "3 layers x 2 predicates");
    assert_eq!(r1.tuples, 3 * (32 + 7));
    assert_eq!(r1.files_removed, 6);

    let names = spool_names(&dir);
    assert!(!names.iter().any(|n| n.ends_with(".bin")), "{names:?}");
    assert!(names.iter().any(|n| n == "index.ars"), "{names:?}");
    assert!(names.iter().any(|n| n.starts_with("gen-1-")), "{names:?}");

    let store = ProvStore::resume_from_spool(StoreConfig::spilling(0, dir.clone())).unwrap();
    assert_eq!(snapshot(&store), baseline);
    assert_eq!(store.max_superstep(), Some(2));

    let r2 = compact_spool(&dir).unwrap();
    assert_eq!(r2.generation, 2);
    assert_eq!(r2.tuples, r1.tuples, "re-compaction carries every tuple");
    let store = ProvStore::resume_from_spool(StoreConfig::spilling(0, dir.clone())).unwrap();
    assert_eq!(snapshot(&store), baseline, "second pass changed the content");
    assert!(scrub_spool(&dir, false).unwrap().is_clean());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill compaction at every step of its publish protocol (before the
/// generation tmp write, between tmp write and rename, between rename
/// and manifest write, between manifest tmp write and swap, and after
/// the swap but before the superseded files are deleted). Whichever
/// step the crash lands on, the spool must resume to exactly the
/// pre-compaction content, leave no `.tmp` litter, scrub clean, and
/// accept a fresh compaction.
#[test]
fn compaction_kill_matrix_always_recoverable() {
    use ariadne::FaultPlan;
    for step in 0..=4u32 {
        let dir = temp_dir(&format!("compact-kill-{step}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = ProvStore::new(StoreConfig::spilling(0, dir.clone()));
        for s in 0..3u32 {
            store
                .ingest(
                    s,
                    "value",
                    (0..16u64).map(|v| vec![Value::Id(v), Value::Int(s as i64)]).collect(),
                )
                .unwrap();
        }
        drop(store);
        let baseline = snapshot(
            &ProvStore::resume_from_spool(StoreConfig::spilling(0, dir.clone())).unwrap(),
        );

        let plan = FaultPlan::new();
        plan.kill_at_compact_step(step);
        let mut store = ProvStore::resume_from_spool(
            StoreConfig::spilling(0, dir.clone()).with_fault(plan),
        )
        .unwrap();
        let err = store.compact().unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }), "step {step}: {err:?}");
        drop(store); // the crash: in-memory state dies with the process

        let resumed = ProvStore::resume_from_spool(StoreConfig::spilling(0, dir.clone())).unwrap();
        assert_eq!(snapshot(&resumed), baseline, "step {step}: content changed");
        drop(resumed);
        let names = spool_names(&dir);
        assert!(!names.iter().any(|n| n.ends_with(".tmp")), "step {step}: {names:?}");
        assert!(scrub_spool(&dir, false).unwrap().is_clean(), "step {step}");

        let report = compact_spool(&dir).unwrap();
        assert_eq!(report.tuples, 48, "step {step}");
        let compacted =
            ProvStore::resume_from_spool(StoreConfig::spilling(0, dir.clone())).unwrap();
        assert_eq!(snapshot(&compacted), baseline, "step {step}: compaction changed content");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Flip every bit of every byte of a compacted spool — the generation
/// file (record frames, indexed footer, trailer) and the manifest —
/// one at a time: a detection-only scrub must catch each flip and
/// blame the flipped file.
#[test]
fn compacted_footer_and_manifest_bit_flips_detected() {
    let dir = temp_dir("flip-v3-gen");
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = ProvStore::new(StoreConfig::spilling(0, dir.clone()));
    store
        .ingest(0, "value", (0..3u64).map(|v| vec![Value::Id(v), Value::Int(0)]).collect())
        .unwrap();
    store
        .ingest(1, "value", (0..3u64).map(|v| vec![Value::Id(v), Value::Int(1)]).collect())
        .unwrap();
    drop(store);
    compact_spool(&dir).unwrap();

    let files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_file())
        .collect();
    assert_eq!(files.len(), 2, "{files:?}"); // gen-1-0.ars3 + index.ars

    for path in &files {
        let clean = std::fs::read(path).unwrap();
        for i in 0..clean.len() {
            for bit in 0..8u8 {
                let mut bytes = clean.clone();
                bytes[i] ^= 1 << bit;
                std::fs::write(path, &bytes).unwrap();
                let report = scrub_spool(&dir, false).unwrap();
                assert!(
                    !report.is_clean(),
                    "flip of bit {bit} at byte {i} of {} went undetected",
                    path.display()
                );
                assert!(
                    report.damage.iter().any(|d| d.path == *path),
                    "flip at byte {i} of {}: damage blamed elsewhere",
                    path.display()
                );
            }
        }
        std::fs::write(path, &clean).unwrap();
    }
    assert!(scrub_spool(&dir, false).unwrap().is_clean());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: a repair that drains the highest layer must show in the
/// reopened store's `max_superstep`. Salvage that keeps zero records
/// drops the layer entirely (the max shrinks); quarantine keeps the
/// layer visible (the data existed — reads of it fail typed).
#[test]
fn repair_recomputes_max_superstep_when_highest_layer_drains() {
    // Three layers of `value`, spilled, then the store is gone: repair
    // works on the spool alone.
    let build = |dir: &PathBuf| {
        let _ = std::fs::remove_dir_all(dir);
        let mut store = ProvStore::new(StoreConfig::spilling(0, dir.clone()));
        for s in 0..3u32 {
            let rows = (0..8u64).map(|v| vec![Value::Id(v), Value::Int(s as i64)]);
            store.ingest(s, "value", rows.collect()).unwrap();
        }
        assert_eq!(store.max_superstep(), Some(2));
    };
    let repair_and_reopen = |dir: &PathBuf, action: ScrubAction| {
        let report = scrub_spool(dir, true).unwrap();
        assert!(report.damage.iter().any(|d| d.action == action), "{action}");
        ProvStore::resume_from_spool(StoreConfig::spilling(0, dir.clone())).unwrap()
    };

    // Salvage-to-empty: the whole highest-layer file is one torn
    // record; repair truncates it to zero records and the max drops.
    let dir = temp_dir("maxstep-salvage");
    build(&dir);
    let seg = dir.join("seg-2-value.bin");
    let bytes = std::fs::read(&seg).unwrap();
    std::fs::write(&seg, &bytes[..7]).unwrap(); // mid-header tear at byte 0
    let store = repair_and_reopen(&dir, ScrubAction::Salvaged);
    assert_eq!(
        store.max_superstep(),
        Some(1),
        "drained highest layer must drop out of the max"
    );
    let _ = std::fs::remove_dir_all(&dir);

    // Quarantine: the layer's data existed and was lost, so the layer
    // itself remains addressable (reads of it fail typed) and the max
    // stays put.
    let dir = temp_dir("maxstep-quarantine");
    build(&dir);
    let seg = dir.join("seg-2-value.bin");
    let mut bytes = std::fs::read(&seg).unwrap();
    bytes[20] ^= 0x01; // payload corruption inside a complete frame
    std::fs::write(&seg, &bytes).unwrap();
    let store = repair_and_reopen(&dir, ScrubAction::Quarantined);
    assert_eq!(store.max_superstep(), Some(2), "quarantined layers stay visible");
    assert!(matches!(
        store.layer_read(2, &LayerFilter::all()).unwrap_err(),
        StoreError::Quarantined { .. }
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The repair oracle on the one recovery path: a damaged spool is
/// repaired offline by `scrub_spool(dir, true)` and reopened by
/// `resume_from_spool`. Every layer then reads strictly as one of two
/// outcomes: exactly the undamaged spool's rows (a record prefix of
/// them where a torn tail was salvaged), or `StoreError::Quarantined`
/// naming a file under `quarantine/`. A second scrub comes back clean.
#[test]
fn offline_repair_then_reopen_reads_strictly() {
    fn truncate(path: &Path, len: impl Fn(usize) -> usize) {
        let bytes = std::fs::read(path).unwrap();
        std::fs::write(path, &bytes[..len(bytes.len())]).unwrap();
    }
    fn flip(path: &Path, at: impl Fn(usize) -> usize) {
        let mut bytes = std::fs::read(path).unwrap();
        let at = at(bytes.len());
        bytes[at] ^= 0x01;
        std::fs::write(path, &bytes).unwrap();
    }

    for cell in ["salvage-to-zero", "torn-bin-tail", "flipped-seal", "flipped-generation", "flipped-manifest"] {
        // Three layers of two records each in `value`; `sent` stops a
        // layer early, so draining seg-2-value drains the top layer.
        let build = |dir: &PathBuf| {
            let _ = std::fs::remove_dir_all(dir);
            let durability = match cell {
                "flipped-seal" => Durability::Seal,
                _ => Durability::None,
            };
            let mut store =
                ProvStore::new(StoreConfig::spilling(0, dir.clone()).with_durability(durability));
            for s in 0..3u32 {
                for half in 0..2u64 {
                    let rows = (half * 8..half * 8 + 8).map(|v| vec![Value::Id(v), Value::Int(s as i64)]);
                    store.ingest(s, "value", rows.collect()).unwrap();
                }
                if s < 2 {
                    store.ingest(s, "sent", vec![vec![Value::Id(1), Value::Id(2)]]).unwrap();
                }
            }
            if matches!(cell, "flipped-generation" | "flipped-manifest") {
                store.compact().unwrap();
            }
        };
        let damage = |dir: &PathBuf| match cell {
            "torn-bin-tail" => truncate(&dir.join("seg-1-value.bin"), |len| len - 5),
            "flipped-seal" => flip(&dir.join("seg-1-value.seal"), |_| 20),
            "flipped-generation" => flip(&dir.join("gen-1-0.ars3"), |_| 20),
            "flipped-manifest" => flip(&dir.join("index.ars"), |len| len / 2),
            _ => truncate(&dir.join("seg-2-value.bin"), |_| 7),
        };
        let clean_dir = temp_dir(&format!("repair-{cell}-clean"));
        let dir = temp_dir(&format!("repair-{cell}"));
        build(&clean_dir);
        build(&dir);
        damage(&dir);
        let clean = ProvStore::resume_from_spool(StoreConfig::spilling(0, clean_dir.clone())).unwrap();

        let report = scrub_spool(&dir, true).unwrap();
        assert!(!report.is_clean(), "{cell}: damage went undetected");
        let repaired = ProvStore::resume_from_spool(StoreConfig::spilling(0, dir.clone())).unwrap();
        let mut quarantined_layers = 0;
        for layer in 0..3u32 {
            let want = clean.layer_read(layer, &LayerFilter::all()).unwrap().tuples;
            let salvaged = report.damage.iter().any(|d| d.torn && d.superstep == layer);
            match repaired.layer_read(layer, &LayerFilter::all()) {
                Ok(read) => {
                    assert_eq!(read.tuples.len(), want.len(), "{cell}: layer {layer} predicates");
                    for ((pred, rows), (want_pred, want_rows)) in read.tuples.iter().zip(&want) {
                        assert_eq!(pred, want_pred, "{cell}: layer {layer}");
                        if salvaged {
                            assert!(want_rows.starts_with(rows), "{cell}: layer {layer} {pred}");
                        } else {
                            assert_eq!(rows, want_rows, "{cell}: layer {layer} {pred}");
                        }
                    }
                }
                Err(StoreError::Quarantined { path }) => {
                    assert!(path.starts_with(dir.join("quarantine")), "{cell}: {}", path.display());
                    quarantined_layers += 1;
                }
                Err(e) => panic!("{cell}: layer {layer}: {e}"),
            }
        }
        let quarantined = report.damage.iter().any(|d| d.action == ScrubAction::Quarantined);
        assert_eq!(quarantined_layers > 0, quarantined, "{cell}: quarantined layers");
        assert!(scrub_spool(&dir, false).unwrap().is_clean(), "{cell}: re-scrub");
        let _ = std::fs::remove_dir_all(&clean_dir);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
