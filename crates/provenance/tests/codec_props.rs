//! Property-based round-trip tests for the spill codec.

use ariadne_pql::Value;
use ariadne_provenance::codec::{decode_tuples, encode_tuples};
use proptest::prelude::*;
use std::sync::Arc;

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        any::<u64>().prop_map(Value::Id),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        any::<bool>().prop_map(Value::Bool),
        "[a-zA-Z0-9 _-]{0,24}".prop_map(|s| Value::str(&s)),
        Just(Value::Unit),
    ];
    leaf.prop_recursive(2, 16, 4, |inner| {
        proptest::collection::vec(inner, 0..4).prop_map(|v| Value::List(Arc::new(v)))
    })
}

proptest! {
    #[test]
    fn tuples_roundtrip(tuples in proptest::collection::vec(
        proptest::collection::vec(arb_value(), 0..6), 0..20)) {
        let encoded = encode_tuples(&tuples);
        let decoded = decode_tuples(&encoded).unwrap();
        prop_assert_eq!(tuples, decoded);
    }

    /// Truncating an encoding never panics and never silently succeeds
    /// with wrong data of the same tuple count.
    #[test]
    fn truncation_never_panics(tuples in proptest::collection::vec(
        proptest::collection::vec(arb_value(), 1..4), 1..6), cut in 0usize..64) {
        let encoded = encode_tuples(&tuples);
        if cut < encoded.len() {
            // Must error (all our encodings are length-prefixed).
            prop_assert!(decode_tuples(&encoded[..cut]).is_err());
        }
    }
}
