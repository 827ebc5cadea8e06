//! An epoch append that adopts a capture's record (copies it instead of
//! encoding its rows again) counts it in the store's ingest, pack and LZ
//! counters as the re-encode it stands in for: the record's bytes are
//! the same either way, so which pairs the append adopts moves none of
//! those counters.
//!
//! Lives in its own test binary: the metric registry is process-wide.

use ariadne_pql::{Tuple, Value};
use ariadne_provenance::ProvStore;
use ariadne_provenance::StoreConfig;

/// The counters an adopted record must move as its re-encode does.
const COUNTED: [&str; 6] = [
    "store_ingest_batches_total",
    "store_ingest_bytes_total",
    "store_packs_total",
    "store_encoded_bytes",
    "store_lz_records_total",
    "store_lz_saved_bytes",
];

fn counter(name: &str) -> u64 {
    ariadne_obs::registry()
        .snapshot()
        .counter(name)
        .unwrap_or(0)
}

/// A capture of `tag`: a compressible columnar segment and a ragged one,
/// one batch each, so each segment is one record. When `adoptable`, both
/// hold their rows in canonical order and the append can adopt them;
/// otherwise both hold them reversed, and both are re-encoded.
fn capture(tag: i64, adoptable: bool) -> ProvStore {
    let mut rows: Vec<Tuple> = (0..300u64)
        .map(|x| vec![Value::Id(x / 4), Value::Int(tag)])
        .collect();
    let mut ragged: Vec<Tuple> = vec![
        vec![Value::Id(1)],
        vec![Value::Id(2), Value::Int(tag)],
        vec![Value::Id(3)],
    ];
    if !adoptable {
        rows.reverse();
        ragged.reverse();
    }
    let mut store = ProvStore::new(StoreConfig::in_memory());
    store.ingest(0, "a", rows).unwrap();
    store.ingest(0, "rg", ragged).unwrap();
    store
}

/// The counter deltas, and the pairs adopted, of appending `next` to a
/// fresh capture of tag 0.
fn append(next: &ProvStore) -> (Vec<u64>, u64) {
    let mut store = capture(0, true);
    let before: Vec<u64> = COUNTED.iter().map(|n| counter(n)).collect();
    let adopted = counter("store_epoch_adopted_total");
    let stats = store.append_epoch(next).unwrap();
    assert_eq!(stats.replaced, 2);
    let deltas = COUNTED.iter().zip(before).map(|(n, b)| counter(n) - b);
    (
        deltas.collect(),
        counter("store_epoch_adopted_total") - adopted,
    )
}

#[test]
fn adopted_records_count_as_their_reencode() {
    let (reencoded, none) = append(&capture(1, false));
    let (adopted, both) = append(&capture(1, true));
    assert_eq!((none, both), (0, 2), "pairs adopted");
    assert!(reencoded[4] > 0, "the columnar record is compressed");
    for (name, (a, r)) in COUNTED.iter().zip(adopted.iter().zip(&reencoded)) {
        assert_eq!(a, r, "{name}: adopted {a}, re-encoded {r}");
    }
}
