//! Golden bytes of every stored format: the length and CRC32 of one
//! fixed batch encoded as a v1 payload, a v2 payload using each
//! [`Encoding`], a v3 `ARSZ` frame, a generation-file footer and a spool
//! manifest. The constants were recorded with the binary of the commit
//! *before* the byte readers were unified, so this is the first test
//! that fails when a format byte moves. Every strict prefix of each
//! encoding must also decode to a typed `Err`, never a panic.

use ariadne_pql::{Tuple, Value};
use ariadne_provenance::codec::{decode_tuples, encode_tuples};
use ariadne_provenance::columnar::{decode_columnar, encode_columnar};
use ariadne_provenance::frame::FRAME_MAGICS;
use ariadne_provenance::v3::{
    decode_compressed_payload, encode_footer, encode_manifest, parse_footer, parse_manifest,
    FooterEntry, GenFileInfo, LostKey, Manifest,
};
use ariadne_provenance::{Encoding, ProvStore, SegmentFormat, StoreConfig};
use ariadne_vc::checkpoint::crc32;
use std::sync::Arc;

/// All seven value kinds, a nested list, and rows of differing arity
/// (so the batch has no columnar form and must stay v1).
fn ragged_batch() -> Vec<Tuple> {
    vec![
        vec![
            Value::Id(7),
            Value::Int(-3),
            Value::Float(0.15),
            Value::Bool(true),
            Value::str("héllo"),
            Value::floats(&[1.0, -2.5]),
            Value::Unit,
        ],
        vec![Value::List(Arc::new(vec![
            Value::floats(&[f64::INFINITY]),
            Value::List(Arc::new(vec![Value::str("x"), Value::Id(u64::MAX)])),
        ]))],
        vec![],
        vec![Value::Float(f64::NAN), Value::Int(i64::MIN)],
    ]
}

/// A rectangular batch whose six columns make the stats pass choose, in
/// order, DeltaId, Const, DeltaInt, Dict, FloatRaw and Plain.
fn columnar_batch() -> Vec<Tuple> {
    (0..64u64)
        .map(|k| {
            let mixed = match k % 7 {
                0 => Value::Id(k * 1000),
                1 => Value::Int(-(k as i64)),
                2 => Value::Float(k as f64 + 0.5),
                3 => Value::Bool(k % 2 == 0),
                4 => Value::str(&format!("payload-{k}")),
                5 => Value::List(Arc::new(vec![Value::Int(k as i64), Value::Unit])),
                _ => Value::str(&format!("tail-{k}")),
            };
            vec![
                Value::Id(100 + 3 * k),
                Value::Int(9),
                Value::Int(500 - 17 * k as i64),
                Value::str(if k % 3 == 0 { "ping" } else { "pong" }),
                Value::Float(1.0 / (k + 1) as f64),
                mixed,
            ]
        })
        .collect()
}

fn footer_entries() -> Vec<FooterEntry> {
    vec![
        FooterEntry {
            superstep: 0,
            pred: "value".into(),
            offset: 0,
            len: 100,
            tuples: 12,
            records: 1,
        },
        FooterEntry {
            superstep: 3,
            pred: "send_message".into(),
            offset: 100,
            len: 40,
            tuples: 4,
            records: 2,
        },
    ]
}

#[track_caller]
fn assert_golden(what: &str, bytes: &[u8], len: usize, crc: u32) {
    assert_eq!(
        (bytes.len(), crc32(bytes)),
        (len, crc),
        "{what}: a format byte moved (got len {}, crc {:#010x})",
        bytes.len(),
        crc32(bytes)
    );
}

#[test]
fn v1_payload_is_pinned() {
    let batch = ragged_batch();
    assert!(
        encode_columnar(&batch).is_none(),
        "ragged: no columnar form"
    );
    let bytes = encode_tuples(&batch);
    assert_golden("v1 payload", &bytes, V1_LEN, V1_CRC);
    assert_eq!(decode_tuples(&bytes).unwrap(), batch);
    for cut in 0..bytes.len() {
        assert!(decode_tuples(&bytes[..cut]).is_err(), "v1 cut at {cut}");
    }
}

#[test]
fn v2_payload_is_pinned_and_uses_every_encoding() {
    let batch = columnar_batch();
    let encoded = encode_columnar(&batch).expect("rectangular batch");
    assert_eq!(
        encoded.encodings,
        [
            Encoding::DeltaId,
            Encoding::Const,
            Encoding::DeltaInt,
            Encoding::Dict,
            Encoding::FloatRaw,
            Encoding::Plain,
        ]
    );
    assert_golden("v2 payload", &encoded.payload, V2_LEN, V2_CRC);
    let mut out = Vec::new();
    decode_columnar(&encoded.payload, None, &mut out).unwrap();
    assert_eq!(out, batch);
    for cut in 0..encoded.payload.len() {
        assert!(
            decode_columnar(&encoded.payload[..cut], None, &mut Vec::new()).is_err(),
            "v2 cut at {cut}"
        );
    }
}

#[test]
fn v3_frame_is_pinned() {
    let dir = std::env::temp_dir().join(format!("ariadne-golden-v3-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let batch = columnar_batch();
    let mut store =
        ProvStore::new(StoreConfig::spilling(0, dir.clone()).with_format(SegmentFormat::V3));
    store.ingest(0, "value", batch.clone()).unwrap();
    drop(store);
    let frame = std::fs::read(dir.join("seg-0-value.bin")).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    assert_golden("v3 frame", &frame, V3_LEN, V3_CRC);
    let (open, close) = FRAME_MAGICS[2];
    assert_eq!(
        frame[..4],
        open,
        "the batch compresses, so the frame is ARSZ"
    );
    assert_eq!(frame[frame.len() - 4..], close);
    let payload = &frame[16..frame.len() - 4];
    assert_eq!(frame[4..12], (payload.len() as u64).to_le_bytes());
    assert_eq!(frame[12..16], crc32(payload).to_le_bytes());
    let (inner, raw) = decode_compressed_payload(payload).unwrap();
    assert_eq!(inner, 2);
    assert_eq!(raw, encode_columnar(&batch).unwrap().payload);
    for cut in 0..payload.len() {
        assert!(
            decode_compressed_payload(&payload[..cut]).is_err(),
            "v3 cut at {cut}"
        );
    }
}

#[test]
fn footer_and_manifest_are_pinned() {
    let footer = encode_footer(&footer_entries());
    assert_golden("footer", &footer, FOOTER_LEN, FOOTER_CRC);
    // The footer sits behind a 140-byte record region.
    let mut file = vec![0xAB; 140];
    file.extend_from_slice(&footer);
    assert_eq!(parse_footer(&file).unwrap(), (footer_entries(), 140));
    for cut in 0..file.len() {
        assert!(parse_footer(&file[..cut]).is_err(), "footer cut at {cut}");
    }

    let manifest = Manifest {
        generation: 7,
        live: vec![GenFileInfo {
            name: "gen-7-0.ars3".into(),
            size: 1234,
            entries: footer_entries(),
        }],
        superseded: vec!["seg-0-value.bin".into(), "seg-3-send_message.seal".into()],
        lost: vec![LostKey {
            superstep: 9,
            pred: "value".into(),
            quarantine: "gen-5-0.ars3".into(),
        }],
    };
    let bytes = encode_manifest(&manifest);
    assert_golden("manifest", &bytes, MANIFEST_LEN, MANIFEST_CRC);
    assert_eq!(parse_manifest(&bytes).unwrap(), manifest);
    for cut in 0..bytes.len() {
        assert!(
            parse_manifest(&bytes[..cut]).is_err(),
            "manifest cut at {cut}"
        );
    }
}

const V1_LEN: usize = 141;
const V1_CRC: u32 = 0xb6e0_36ba;
const V2_LEN: usize = 1418;
const V2_CRC: u32 = 0xdf39_9e23;
const V3_LEN: usize = 915;
const V3_CRC: u32 = 0x2588_29e7;
const FOOTER_LEN: usize = 101;
const FOOTER_CRC: u32 = 0x536a_8485;
const MANIFEST_LEN: usize = 207;
const MANIFEST_CRC: u32 = 0xf9a9_e3fb;
