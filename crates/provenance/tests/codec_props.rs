//! Seeded randomized round-trip tests for the spill codec.

use ariadne_pql::Value;
use ariadne_provenance::codec::{decode_tuples, encode_tuples};
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
