//! Decoder robustness fuzzing: randomly mutated record streams and raw
//! byte soup must come back as `Err` (or be cut off by a salvage walk)
//! — never a panic, never an unbounded loop. Deterministically
//! seeded, so a failure reproduces from the printed seed.

use ariadne_pql::Value;
use ariadne_provenance::codec::{decode_tuples, decode_tuples_masked};
use ariadne_provenance::columnar::{decode_columnar, encode_columnar};
use ariadne_provenance::{scrub_spool, LayerFilter, ProvStore, Rows, StoreConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

fn tuple(v: u64, i: i64) -> Vec<Value> {
    vec![
        Value::Id(v),
        Value::Float(1.0 / (v + 1) as f64),
        Value::Int(i),
    ]
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ariadne-fuzz-{tag}-{}", std::process::id()))
}

/// Apply one random mutation to `bytes`: a bit flip, a truncation, a
/// random-length splice of random bytes, or a duplication of a random
/// region. Returns the mutated buffer (possibly empty).
fn mutate(rng: &mut StdRng, bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    if out.is_empty() {
        return (0..rng.gen_range(0usize..64))
            .map(|_| rng.gen::<u64>() as u8)
            .collect();
    }
    match rng.gen_range(0u32..4) {
        0 => {
            let i = rng.gen_range(0..out.len());
            out[i] ^= 1 << rng.gen_range(0u32..8);
        }
        1 => {
            let cut = rng.gen_range(0..out.len());
            out.truncate(cut);
        }
        2 => {
            let at = rng.gen_range(0..=out.len());
            let n = rng.gen_range(1usize..32);
            let junk: Vec<u8> = (0..n).map(|_| rng.gen::<u64>() as u8).collect();
            out.splice(at..at, junk);
        }
        _ => {
            let a = rng.gen_range(0..out.len());
            let b = rng.gen_range(a..=out.len());
            let dup = out[a..b].to_vec();
            let at = rng.gen_range(0..=out.len());
            out.splice(at..at, dup);
        }
    }
    out
}

/// The v1 row decoder and its masked variant return `Err`, never panic,
/// on mutated and on purely random payloads.
#[test]
fn v1_decoder_survives_mutations() {
    let mut rng = StdRng::seed_from_u64(0xA51AD4E);
    let valid =
        ariadne_provenance::codec::encode_tuples(&(0..50).map(|v| tuple(v, 3)).collect::<Vec<_>>());
    for round in 0..600 {
        let bytes = if round % 3 == 0 {
            (0..rng.gen_range(0usize..256))
                .map(|_| rng.gen::<u64>() as u8)
                .collect()
        } else {
            mutate(&mut rng, &valid)
        };
        let _ = decode_tuples(&bytes);
        let _ = decode_tuples_masked(&bytes, Some(&[true, false, true]));
    }
}

/// The v2 columnar decoder (varint, dictionary, delta and raw-float
/// block paths) returns `Err`, never panics and never over-allocates,
/// on mutated and on purely random payloads.
#[test]
fn columnar_decoder_survives_mutations() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    // A batch exercising every encoding: dense ids (delta), a
    // low-cardinality string column (dictionary), floats (raw).
    let batch: Vec<Vec<Value>> = (0..200)
        .map(|v: u64| {
            vec![
                Value::Id(v),
                Value::str(if v.is_multiple_of(3) { "left" } else { "right" }),
                Value::Float(v as f64 * 0.25),
                Value::Int(-(v as i64)),
            ]
        })
        .collect();
    let valid = encode_columnar(&batch).expect("encodable").payload;
    for round in 0..600 {
        let bytes = if round % 3 == 0 {
            (0..rng.gen_range(0usize..256))
                .map(|_| rng.gen::<u64>() as u8)
                .collect()
        } else {
            mutate(&mut rng, &valid)
        };
        let mut out = Vec::new();
        let _ = decode_columnar(&bytes, None, &mut out);
        let mut out = Vec::new();
        let _ = decode_columnar(&bytes, Some(&[true, false, true, false]), &mut out);
    }
}

/// A copy of the committed spool fixture `name`, written by the last
/// v1 or v2 writer (see `tests/fixtures/README.md`), in `dir`.
fn copy_fixture(name: &str, dir: &Path) {
    let src = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::create_dir_all(dir).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
    }
}

/// Whole-spool fuzzing: mutate spilled segment files, then resume,
/// scrub, and read the spool. The v1 and v2 spools are committed
/// fixtures of three layers of 40 rows; the v3 one is written here the
/// same way. Every path must return `Ok` or a typed error — no panics —
/// and reads never yield more tuples than the clean run held.
#[test]
fn mutated_spools_never_panic() {
    let mut rng = StdRng::seed_from_u64(0xD15C0);
    for format in ["v1", "v2", "v3"] {
        let dir = temp_dir(&format!("spool-{format}"));
        std::fs::remove_dir_all(&dir).ok();
        if format == "v3" {
            let mut store = ProvStore::new(StoreConfig::spilling(0, dir.clone()));
            for s in 0..3u32 {
                store
                    .ingest(s, "value", (0..40).map(|v| tuple(v, s as i64)).collect())
                    .unwrap();
            }
        } else {
            copy_fixture(&format!("{format}-fuzz"), &dir);
        }
        let files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        let originals: Vec<Vec<u8>> = files.iter().map(|p| std::fs::read(p).unwrap()).collect();
        let clean_tuples = 3 * 40;

        for round in 0..60 {
            // Mutate one file per round, leave the rest clean.
            let target = rng.gen_range(0..files.len());
            for (i, (path, orig)) in files.iter().zip(&originals).enumerate() {
                if i == target {
                    std::fs::write(path, mutate(&mut rng, orig)).unwrap();
                } else {
                    std::fs::write(path, orig).unwrap();
                }
            }
            // Remove sidecars a previous round's salvage may have left.
            for e in std::fs::read_dir(&dir).unwrap().flatten() {
                let name = e.file_name();
                let name = name.to_string_lossy();
                if name.ends_with(".torn") {
                    std::fs::remove_file(e.path()).ok();
                }
            }

            // Scrub (detection only) always reports, never panics.
            let scrub = scrub_spool(&dir, false);
            assert!(scrub.is_ok(), "round {round}: scrub errored {scrub:?}");

            // Resume either salvages or fails typed.
            // A typed resume failure is acceptable; a panic is not.
            if let Ok(resumed) = ProvStore::resume_from_spool(StoreConfig::spilling(0, dir.clone()))
            {
                assert!(resumed.tuple_count() <= clean_tuples, "round {round}");
                // Reads of every layer terminate, each `Ok` or a typed
                // error, and never exceed the clean tuple count.
                let mut seen = 0usize;
                for s in 0..3u32 {
                    if let Ok(read) = resumed.layer_blocks(s, &LayerFilter::all()) {
                        seen += read.tuples.iter().map(|(_, t)| t.len()).sum::<usize>();
                    }
                }
                assert!(seen <= clean_tuples, "round {round}: {seen} tuples");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
