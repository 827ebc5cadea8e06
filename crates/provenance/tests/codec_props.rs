//! Seeded randomized round-trip tests for the spill codec, and the
//! store's byte kernels held to their references: the typed columnar
//! path to the generic `Value` walk, slicing-by-8 CRC-32 to a bitwise
//! loop, and `minilz::compress` to output pinned before its table was
//! reused.

use ariadne_pql::Value;
use ariadne_provenance::codec::{decode_tuples, encode_tuples};
use ariadne_provenance::columnar::{
    decode_columnar, encode_columnar, encode_columnar_reference, ColumnarBatch, DICT_MAX,
};
use ariadne_provenance::Encoding;
use ariadne_vc::checkpoint::crc32;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Run `property` on `cases` generators, case `k` seeded with `seed ^ k`;
/// a failing case panics with its test name, index and seed.
fn check(name: &str, seed: u64, cases: u64, property: impl Fn(&mut StdRng)) {
    for case in 0..cases {
        let seed = seed ^ case;
        let run = || property(&mut StdRng::seed_from_u64(seed));
        if catch_unwind(AssertUnwindSafe(run)).is_err() {
            panic!("{name} failed at case {case} (seed {seed:#x})");
        }
    }
}

/// Mostly finite values with magnitudes from 1e-300 to 1e300; one draw
/// in 16 each is an arbitrary bit pattern, +∞, -∞, NaN, +0 or -0.
fn arb_f64(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..16u32) {
        0 => f64::from_bits(rng.gen()),
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => f64::NAN,
        4 => 0.0,
        5 => -0.0,
        _ => {
            let sign = if rng.gen() { 1.0 } else { -1.0 };
            sign * rng.gen::<f64>() * 10f64.powf(rng.gen_range(-300.0..300.0))
        }
    }
}

/// A string over `[a-zA-Z0-9 _-]{0,24}`.
fn arb_str(rng: &mut StdRng) -> String {
    const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _-";
    let len = rng.gen_range(0..=24usize);
    (0..len)
        .map(|_| CHARS[rng.gen_range(0..CHARS.len())] as char)
        .collect()
}

/// Every `Value` variant. While `depth` remains, one draw in three is a
/// list of up to three values one level shallower.
fn arb_value(rng: &mut StdRng, depth: u32) -> Value {
    if depth > 0 && rng.gen_range(0..3u32) == 0 {
        let len = rng.gen_range(0..4usize);
        return Value::List(Arc::new(
            (0..len).map(|_| arb_value(rng, depth - 1)).collect(),
        ));
    }
    match rng.gen_range(0..6u32) {
        0 => Value::Id(rng.gen()),
        1 => Value::Int(rng.gen()),
        2 => Value::Float(arb_f64(rng)),
        3 => Value::Bool(rng.gen()),
        4 => Value::str(&arb_str(rng)),
        _ => Value::Unit,
    }
}

/// `rows` tuples of `arity` values each, lists nested to depth 2.
fn arb_tuples(rng: &mut StdRng, rows: Range<usize>, arity: Range<usize>) -> Vec<Vec<Value>> {
    let rows = rng.gen_range(rows);
    (0..rows)
        .map(|_| {
            let arity = rng.gen_range(arity.clone());
            (0..arity).map(|_| arb_value(rng, 2)).collect()
        })
        .collect()
}

#[test]
fn tuples_roundtrip() {
    check("tuples_roundtrip", 0xc0de_0001, 64, |rng| {
        let tuples = arb_tuples(rng, 0..20, 0..6);
        let encoded = encode_tuples(&tuples);
        let decoded = decode_tuples(&encoded).unwrap();
        assert_eq!(tuples, decoded);
    });
}

/// Truncating an encoding never panics and never silently succeeds
/// with wrong data of the same tuple count.
#[test]
fn truncation_never_panics() {
    check("truncation_never_panics", 0xc0de_0002, 64, |rng| {
        let tuples = arb_tuples(rng, 1..6, 1..4);
        let cut = rng.gen_range(0..64usize);
        let encoded = encode_tuples(&tuples);
        if cut < encoded.len() {
            // Must error (all our encodings are length-prefixed).
            assert!(decode_tuples(&encoded[..cut]).is_err());
        }
    });
}

/// The scalar kinds the typed encoder path takes.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Id,
    Int,
    Float,
}

/// The value of `kind` whose raw bits are `bits`.
fn scalar(kind: Kind, bits: u64) -> Value {
    match kind {
        Kind::Id => Value::Id(bits),
        Kind::Int => Value::Int(bits as i64),
        Kind::Float => Value::Float(f64::from_bits(bits)),
    }
}

/// Bit patterns on the encoders' edges: the extremes whose deltas wrap,
/// +0.0 and -0.0, NaNs with two payloads, the infinities, and values
/// either side of a varint length step.
fn edge_bits(rng: &mut StdRng) -> u64 {
    const EDGES: [u64; 16] = [
        0,
        1,
        u64::MAX,
        i64::MIN as u64,
        i64::MAX as u64,
        0x8000_0000_0000_0000, // -0.0
        0x7ff8_0000_0000_0000, // NaN
        0x7ff8_0000_0000_0001, // NaN, another payload
        0x7ff0_0000_0000_0000, // +inf
        0xfff0_0000_0000_0000, // -inf
        127,
        128,
        16_383,
        16_384,
        (1 << 56) - 1,
        1 << 56,
    ];
    EDGES[rng.gen_range(0..EDGES.len())]
}

/// Shuffle `items` in place (Fisher-Yates).
fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// `rows` values of one `kind`, in one of the shapes the encoding choice
/// turns on.
fn arb_scalar_column(rng: &mut StdRng, kind: Kind, rows: usize) -> Vec<Value> {
    let bits: Vec<u64> = match rng.gen_range(0..6u32) {
        // Every row equal.
        0 => vec![edge_bits(rng) ^ rng.gen_range(0..3u64); rows],
        // Exactly `distinct` values, each at least once: the dictionary's
        // cap and one past it whenever the rows allow.
        1 => {
            let distinct =
                [DICT_MAX, DICT_MAX + 1, rng.gen_range(2..=8usize)][rng.gen_range(0..3usize)];
            let distinct = distinct.min(rows) as u64;
            let (base, stride) = (rng.gen::<u64>(), rng.gen::<u64>() | 1);
            let mut bits: Vec<u64> = (0..rows as u64)
                .map(|r| {
                    let k = if r < distinct {
                        r
                    } else {
                        rng.gen_range(0..distinct)
                    };
                    base.wrapping_add(k.wrapping_mul(stride))
                })
                .collect();
            shuffle(rng, &mut bits);
            bits
        }
        // Edge patterns throughout.
        2 => (0..rows).map(|_| edge_bits(rng)).collect(),
        // Small steps up or down: delta chains.
        3 | 4 => {
            let (mut x, down) = (rng.gen::<u64>(), rng.gen::<bool>());
            (0..rows)
                .map(|_| {
                    let step = rng.gen_range(0..300u64);
                    x = if down {
                        x.wrapping_sub(step)
                    } else {
                        x.wrapping_add(step)
                    };
                    x
                })
                .collect()
        }
        _ => (0..rows).map(|_| rng.gen()).collect(),
    };
    bits.into_iter().map(|b| scalar(kind, b)).collect()
}

/// Encode `tuples` through the typed path (as tuples and as a strided
/// block) and through the generic reference walk, require the same
/// bytes, encodings and accounting from all three, and decode it back.
fn assert_same_encoding(tuples: &[Vec<Value>]) -> ColumnarBatch {
    let typed = encode_columnar(tuples).expect("a rectangular batch");
    let strided = encode_columnar(&ariadne_provenance::RowBlock::from_tuples(tuples.to_vec()))
        .expect("a rectangular block");
    let reference = encode_columnar_reference(tuples).expect("a rectangular batch");
    for other in [&strided, &reference] {
        assert_eq!(typed.encodings, other.encodings);
        assert_eq!(typed.columns, other.columns);
        assert_eq!(typed.payload, other.payload);
    }
    let mut out = Vec::new();
    decode_columnar(&typed.payload, None, &mut out).unwrap();
    assert_eq!(out, tuples);
    typed
}

/// Random single-kind scalar columns encode to the same payload,
/// encodings and column accounting through the typed path as through
/// the generic `Value` walk, and decode back exactly.
#[test]
fn typed_columns_encode_as_the_generic_walk() {
    check(
        "typed_columns_encode_as_the_generic_walk",
        0xc0de_0003,
        400,
        |rng| {
            let rows = [
                1,
                rng.gen_range(2..40usize),
                DICT_MAX,
                DICT_MAX + 1,
                rng.gen_range(258..700usize),
            ][rng.gen_range(0..5usize)];
            let columns: Vec<Vec<Value>> = (0..rng.gen_range(1..=4usize))
                .map(|_| {
                    let kind = [Kind::Id, Kind::Int, Kind::Float][rng.gen_range(0..3usize)];
                    arb_scalar_column(rng, kind, rows)
                })
                .collect();
            let tuples: Vec<Vec<Value>> = (0..rows)
                .map(|r| columns.iter().map(|c| c[r].clone()).collect())
                .collect();
            assert_same_encoding(&tuples);
        },
    );
}

/// Where encodings tie on size, both paths pick the lowest tag.
#[test]
fn size_ties_go_to_the_lowest_tag() {
    // One Id or Int needing nine varint bytes: Plain, Const and the
    // delta chain all take 9.
    let one_id = vec![vec![Value::Id(1 << 60)]];
    let one_int = vec![vec![Value::Int(1 << 60)]];
    // Seven rows over five distinct floats: FloatRaw takes 7 x 8 = 56,
    // Dict 4 + 5 x 9 + 7 = 56.
    let floats = [0.5, 1.5, 2.5, 3.5, 4.5, 0.5, 1.5]
        .iter()
        .map(|&x| vec![Value::Float(x)])
        .collect();
    for (batch, want) in [
        (one_id, Encoding::Plain),
        (one_int, Encoding::Plain),
        (floats, Encoding::Dict),
    ] {
        assert_eq!(assert_same_encoding(&batch).encodings, [want]);
    }
}

/// CRC-32 one bit at a time: the reference the table-driven kernel is
/// held to.
fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in data {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    !c
}

/// The known answer, and the bitwise loop's value for every length
/// 0..=64 at every start offset 0..8 (and one long input).
#[test]
fn crc32_matches_the_bitwise_loop() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    let mut rng = StdRng::seed_from_u64(0xc0de_0004);
    let data: Vec<u8> = (0..10_000).map(|_| rng.gen::<u64>() as u8).collect();
    for start in 0..8 {
        for len in 0..=64 {
            let bytes = &data[start..start + len];
            assert_eq!(
                crc32(bytes),
                crc32_bitwise(bytes),
                "offset {start}, length {len}"
            );
        }
    }
    assert_eq!(crc32(&data), crc32_bitwise(&data));
}

/// Input `k` of the pinned LZ corpus: noise, phrases repeated with
/// typos (some reaching past the 65,535-byte match window), runs of one
/// byte, and columnar payloads of scalar rows — what the store
/// compresses.
fn lz_input(k: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(0x12a0_0000 + k);
    let rng = &mut rng;
    let byte = |rng: &mut StdRng| rng.gen::<u64>() as u8;
    match k % 4 {
        0 => {
            let len = if k == 0 {
                0
            } else {
                rng.gen_range(1..3000usize)
            };
            (0..len).map(|_| byte(rng)).collect()
        }
        1 => {
            let phrase: Vec<u8> = (0..rng.gen_range(3..48usize))
                .map(|_| b'a' + rng.gen_range(0..26u8))
                .collect();
            let len = if k % 8 == 1 {
                rng.gen_range(70_000..90_000usize)
            } else {
                rng.gen_range(0..20_000usize)
            };
            let mut out: Vec<u8> = phrase.iter().cycle().take(len).copied().collect();
            for _ in 0..len / 200 {
                let at = rng.gen_range(0..len);
                out[at] = byte(rng);
            }
            out
        }
        2 => {
            let mut out = Vec::new();
            for _ in 0..rng.gen_range(0..60u32) {
                let (b, n) = (byte(rng), rng.gen_range(1..=300usize));
                out.extend(std::iter::repeat_n(b, n));
            }
            out
        }
        _ => {
            let mut id = rng.gen_range(0..1000u64);
            let tuples: Vec<Vec<Value>> = (0..rng.gen_range(1..2000u32))
                .map(|_| {
                    id += rng.gen_range(1..4u64);
                    vec![
                        Value::Id(id),
                        Value::Float(rng.gen::<f64>()),
                        Value::Int(rng.gen_range(0..4i64)),
                    ]
                })
                .collect();
            encode_columnar(&tuples).expect("rectangular").payload
        }
    }
}

/// `minilz::compress` output, length and CRC of each of 32 seeded
/// inputs, pinned before the match table became a reused `u32` table:
/// the parse must not move a byte. Each output also decompresses back.
#[test]
fn lz_output_is_pinned() {
    let got: Vec<(usize, u32)> = (0..32)
        .map(|k| {
            let input = lz_input(k);
            let packed = minilz::compress(&input);
            assert_eq!(minilz::decompress(&packed, input.len()).unwrap(), input);
            (packed.len(), crc32(&packed))
        })
        .collect();
    assert_eq!(got, LZ_PINS, "an LZ output byte moved");
}

/// Recorded with the per-call `usize` table the reused one replaced.
const LZ_PINS: [(usize, u32); 32] = [
    (0, 0x0000_0000),
    (4570, 0x2d41_89eb),
    (342, 0x8dcd_174a),
    (5594, 0x84aa_0dac),
    (2031, 0x4657_765e),
    (92, 0x1944_af74),
    (181, 0x97df_3d3b),
    (10277, 0x70c1_1918),
    (3016, 0x8af9_e95d),
    (4437, 0x0050_1b37),
    (256, 0xd9e2_ecfa),
    (1101, 0x60a0_5b31),
    (1764, 0x0e75_1709),
    (640, 0xaf7a_f8c6),
    (385, 0x679d_db3c),
    (294, 0x1d7b_c447),
    (1103, 0x3921_0a16),
    (4694, 0xd1a8_308e),
    (87, 0xd3bc_f8bc),
    (390, 0x57c3_d221),
    (2146, 0xed65_2ea9),
    (168, 0x01fe_17a2),
    (142, 0xf6a5_529f),
    (9623, 0x953b_9f88),
    (2250, 0xf4bd_9160),
    (3761, 0xbca2_ab01),
    (0, 0x0000_0000),
    (2995, 0xda07_2954),
    (2862, 0xc37d_0c02),
    (1175, 0xce23_b712),
    (285, 0x6da0_f780),
    (12255, 0xb148_d4c2),
];
