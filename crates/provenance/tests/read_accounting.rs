//! Read accounting on a spool: a filtered, masked read of a compacted
//! store moves the extent-read and byte counters by exactly the bytes
//! it pulled from disk, and the deterministic decode and skip counters
//! by what it decoded and skipped.
//!
//! Lives in its own integration-test binary on purpose: the obs
//! registry is process-global, and unit tests of the store crate run in
//! the same process and would race these counter-delta assertions.

use ariadne_pql::Value;
use ariadne_provenance::{LayerFilter, ProvStore, StoreConfig};

/// Current value of a global-registry counter (0 if never registered).
fn counter(name: &str) -> u64 {
    ariadne_obs::registry()
        .snapshot()
        .counter(name)
        .unwrap_or(0)
}

const COUNTERS: [&str; 5] = [
    "store_segments_read_total",
    "store_segments_skipped_total",
    "store_col_bytes_skipped_total",
    "store_extent_reads_total",
    "store_buffered_bytes_total",
];

fn snapshot() -> Vec<u64> {
    COUNTERS.iter().map(|n| counter(n)).collect()
}

#[test]
fn filtered_spool_read_moves_read_counters() {
    let dir = std::env::temp_dir().join(format!("ariadne-read-accounting-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Spool-backed store, compacted so reads seek to generation-file
    // extents and nothing is left in memory.
    let mut store = ProvStore::new(StoreConfig::spilling(0, dir.clone()));
    for superstep in 0..4u32 {
        for v in 0..64u64 {
            let step = Value::Int(i64::from(superstep));
            let rows = [
                ("superstep", vec![Value::Id(v), step.clone()]),
                (
                    "value",
                    vec![Value::Id(v), Value::Float(v as f64), step.clone()],
                ),
                (
                    "send_message",
                    vec![
                        Value::Id(v),
                        Value::Id((v + 1) % 64),
                        Value::Float(0.5),
                        step,
                    ],
                ),
            ];
            for (pred, row) in rows {
                store.ingest(superstep, pred, vec![row]).expect("ingest");
            }
        }
    }
    store.compact().expect("compact the spool");

    // Predicate-filtered to `superstep` + `value`, with `value`'s
    // payload column masked, so every skip counter moves.
    let filter = LayerFilter::for_preds(
        ["superstep".to_string(), "value".to_string()]
            .into_iter()
            .collect(),
    )
    .with_mask("value", vec![true, false, true]);
    let before = snapshot();
    let (mut decoded, mut skipped, mut col_bytes, mut bytes_read) = (0, 0, 0, 0);
    for layer in 0..=store.max_superstep().expect("non-empty store") {
        let read = store.layer_read(layer, &filter).expect("layer read");
        assert_eq!(read.tuples.len(), 2, "layer {layer}: superstep and value");
        decoded += read.segments_read;
        skipped += read.segments_skipped;
        col_bytes += read.col_bytes_skipped;
        bytes_read += read.bytes_read;
    }
    let delta: Vec<u64> = snapshot().iter().zip(&before).map(|(a, b)| a - b).collect();

    assert_eq!(delta[0], decoded as u64, "segments read");
    assert_eq!(delta[1], skipped as u64, "segments skipped");
    assert_eq!(delta[2], col_bytes as u64, "column bytes skipped");
    assert_eq!(
        delta[3], decoded as u64,
        "one extent read per decoded segment"
    );
    assert_eq!(
        delta[4], bytes_read as u64,
        "every byte read came from disk"
    );
    assert!(
        decoded > 0 && skipped > 0,
        "the filter must decode and skip"
    );
    assert!(col_bytes > 0, "the mask must skip column bytes");

    let _ = std::fs::remove_dir_all(&dir);
}
