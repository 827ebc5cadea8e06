//! Epoch layering: append_epoch must make logical reads of the mutated
//! store bit-identical to the fresh capture, while writing only the
//! diff; spool resume must rebuild the epoch table from markers.

use ariadne_pql::{Tuple, Value};
use ariadne_provenance::{ProvStore, StoreConfig, StoreError};
use ariadne_vc::FaultPlan;

fn t(vals: &[i64]) -> Tuple {
    vals.iter().map(|&v| Value::Int(v)).collect()
}

/// One layer as read back: superstep, then (predicate, tuples) pairs.
type Layer = (u32, Vec<(String, Vec<Tuple>)>);

/// Logical content of every layer, materialized.
fn all_layers(store: &ProvStore) -> Vec<Layer> {
    let mut out = Vec::new();
    if let Some(max) = store.max_superstep() {
        for s in 0..=max {
            out.push((s, store.layer(s).expect("layer read")));
        }
    }
    out
}

fn build(layers: u32, rows_per_layer: &[&[i64]]) -> ProvStore {
    let mut store = ProvStore::new(StoreConfig::in_memory());
    for s in 0..layers {
        let rows: Vec<Tuple> = rows_per_layer.iter().map(|r| t(r)).collect();
        let mut rows = rows;
        // Make each layer distinct: tag the layer number into the tuple.
        for r in &mut rows {
            r.push(Value::Int(i64::from(s)));
        }
        store.ingest(s, "value", rows).expect("ingest");
    }
    store
}

#[test]
fn append_epoch_reads_match_fresh_capture() {
    let mut store = build(3, &[&[1], &[2], &[3]]);
    // The "mutated" capture: layer 1 grows (append), layer 2 diverges
    // (replace), and there is a new layer 3.
    let mut next = ProvStore::new(StoreConfig::in_memory());
    next.ingest(0, "value", vec![t(&[1, 0]), t(&[2, 0]), t(&[3, 0])])
        .unwrap(); // identical -> carried
    next.ingest(
        1,
        "value",
        vec![t(&[1, 1]), t(&[2, 1]), t(&[3, 1]), t(&[9, 1])],
    )
    .unwrap(); // prefix-extended -> ~add~
    next.ingest(2, "value", vec![t(&[7, 2])]).unwrap(); // diverged -> replace
    next.ingest(3, "value", vec![t(&[8, 3])]).unwrap(); // new layer

    let stats = store.append_epoch(&next).expect("append epoch");
    assert_eq!(stats.epoch, 1);
    assert_eq!(store.mutation_epoch(), 1);
    assert_eq!(stats.carried, 1, "layer 0 should carry");
    assert_eq!(stats.appended, 1, "layer 1 should append a suffix");
    assert_eq!(stats.replaced, 2, "layers 2 and 3 should replace");
    assert_eq!(stats.tombstoned, 0);
    assert!(
        stats.bytes_appended < stats.cold_bytes,
        "delta ({}) must beat full re-capture ({})",
        stats.bytes_appended,
        stats.cold_bytes
    );

    assert_eq!(store.max_superstep(), Some(3));
    assert_eq!(
        all_layers(&store),
        all_layers(&next),
        "logical reads must be bit-identical to the fresh capture"
    );
    assert_eq!(
        store.to_database().unwrap().sorted("value"),
        next.to_database().unwrap().sorted("value"),
    );
}

#[test]
fn shrinking_run_and_tombstones() {
    let mut store = build(3, &[&[1], &[2]]);
    store.ingest(1, "aux", vec![t(&[42])]).unwrap();
    // New run: fewer supersteps, and `aux` disappears from layer 1.
    let mut next = ProvStore::new(StoreConfig::in_memory());
    next.ingest(0, "value", vec![t(&[1, 0]), t(&[2, 0])])
        .unwrap();
    next.ingest(1, "value", vec![t(&[1, 1]), t(&[2, 1])])
        .unwrap();

    let stats = store.append_epoch(&next).expect("append epoch");
    assert_eq!(stats.tombstoned, 1, "aux@1 must be tombstoned");
    assert_eq!(store.max_superstep(), Some(1), "logical run shrank");
    assert_eq!(all_layers(&store), all_layers(&next));
    // Layer 2 is logically gone even though physical history remains.
    assert!(store.layer(2).unwrap().is_empty());
    assert!(store.segment_index().any(|seg| seg.superstep > 2));
}

#[test]
fn multiple_epochs_chain() {
    let mut store = build(2, &[&[1]]);
    let mut current = build(2, &[&[1]]);
    for round in 0..3i64 {
        // Each round extends layer 1 and rewrites layer 0.
        let mut next = ProvStore::new(StoreConfig::in_memory());
        next.ingest(0, "value", vec![t(&[round, 0])]).unwrap();
        let mut l1: Vec<Tuple> = current.layer(1).unwrap().remove(0).1;
        l1.push(t(&[100 + round, 1]));
        next.ingest(1, "value", l1).unwrap();
        store.append_epoch(&next).expect("append epoch");
        current = next;
        assert_eq!(store.mutation_epoch(), (round + 1) as u64);
        assert_eq!(all_layers(&store), all_layers(&current), "round {round}");
    }
    assert_eq!(store.epoch_table().len(), 4);
}

#[test]
fn epoch_table_survives_spool_resume() {
    let dir = std::env::temp_dir().join(format!("ariadne-epoch-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut store = ProvStore::new(StoreConfig::spilling(0, dir.clone()));
    store.ingest(0, "value", vec![t(&[1, 0])]).unwrap();
    store.ingest(1, "value", vec![t(&[1, 1])]).unwrap();

    let mut next = ProvStore::new(StoreConfig::in_memory());
    next.ingest(0, "value", vec![t(&[1, 0]), t(&[2, 0])])
        .unwrap();
    next.ingest(1, "value", vec![t(&[1, 1])]).unwrap();
    store.append_epoch(&next).expect("append epoch");
    let expect = all_layers(&store);
    drop(store);

    let resumed = ProvStore::resume_from_spool(StoreConfig::spilling(0, dir.clone()))
        .expect("resume from spool");
    assert_eq!(resumed.mutation_epoch(), 1, "epoch table must be rebuilt");
    assert_eq!(resumed.epoch_table().len(), 2);
    assert_eq!(resumed.max_superstep(), Some(1));
    assert_eq!(all_layers(&resumed), expect);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn filtered_and_masked_logical_reads() {
    let mut store = build(2, &[&[1], &[2]]);
    store.ingest(0, "aux", vec![t(&[5, 6])]).unwrap();
    let mut next = ProvStore::new(StoreConfig::in_memory());
    next.ingest(0, "value", vec![t(&[1, 0]), t(&[2, 0]), t(&[3, 0])])
        .unwrap();
    next.ingest(0, "aux", vec![t(&[5, 6])]).unwrap();
    next.ingest(1, "value", vec![t(&[1, 1]), t(&[2, 1])])
        .unwrap();
    store.append_epoch(&next).unwrap();

    // Predicate filter prunes `aux`.
    let preds: std::collections::BTreeSet<String> = ["value".to_string()].into_iter().collect();
    let read = store
        .layer_read(
            0,
            &ariadne_provenance::LayerFilter::for_preds(preds.clone()),
        )
        .unwrap();
    assert_eq!(read.tuples.len(), 1);
    assert_eq!(read.tuples[0].0, "value");
    assert_eq!(read.tuples[0].1.len(), 3);

    // A column mask applies as each segment of the fold decodes: the
    // rows are the unmasked read's with the column blanked, and the
    // masked column is skipped, not decoded and then blanked.
    let filter = ariadne_provenance::LayerFilter::for_preds(preds.clone())
        .with_mask("value", vec![true, false, true]);
    let read = store.layer_read(0, &filter).unwrap();
    let mut want = store
        .layer_read(0, &ariadne_provenance::LayerFilter::for_preds(preds))
        .unwrap()
        .tuples;
    for row in &mut want[0].1 {
        row[1] = Value::Unit;
    }
    assert_eq!(read.tuples, want, "masked column must decode as Unit");
    assert!(read.cols_skipped > 0, "{read:?}");
    assert!(read.col_bytes_skipped > 0, "{read:?}");
}

/// A quarantined diff segment fails a read that wants its base
/// predicate, as a quarantined replacement does: without it the read
/// would answer short of the rows it adds. A read of other predicates
/// does not touch it.
#[test]
fn quarantined_diff_segment_fails_the_read() {
    let dir = std::env::temp_dir().join(format!("ariadne-epoch-quarantine-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = ProvStore::new(StoreConfig::spilling(0, dir.clone()));
    store.ingest(0, "value", vec![t(&[1, 0])]).unwrap();
    store.ingest(0, "aux", vec![t(&[5])]).unwrap();
    let mut next = ProvStore::new(StoreConfig::in_memory());
    next.ingest(0, "value", vec![t(&[1, 0]), t(&[2, 0])])
        .unwrap();
    next.ingest(0, "aux", vec![t(&[5])]).unwrap();
    store.append_epoch(&next).unwrap();
    let name = format!("seg-{}-~add~value.bin", store.epoch_table()[1].base);
    drop(store);

    let victim = dir.join(&name);
    let mut bytes = std::fs::read(&victim).unwrap();
    let at = bytes.len() - 2;
    bytes[at] ^= 0x01;
    std::fs::write(&victim, &bytes).unwrap();
    assert!(
        ariadne_provenance::scrub_spool(&dir, true)
            .unwrap()
            .repaired
    );
    assert!(dir.join("quarantine").join(&name).exists());

    let store = ProvStore::resume_from_spool(StoreConfig::spilling(0, dir.clone())).unwrap();
    let only = |pred: &str| ariadne_provenance::LayerFilter::for_preds([pred.to_string()].into());
    let err = store.layer_read(0, &only("value")).unwrap_err();
    assert!(matches!(err, StoreError::Quarantined { .. }), "{err:?}");
    let aux = store.layer_read(0, &only("aux")).unwrap();
    assert_eq!(aux.tuples, [("aux".to_string(), vec![t(&[5])])]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Ingest a capture of `layers` supersteps into `store`: `value` rows
/// `(v, 10 v + s + bump(s))` and `superstep` rows, except `superstep`
/// at layer `gap`.
fn ingest_capture(store: &mut ProvStore, layers: u32, bump: fn(u32) -> i64, gap: Option<u32>) {
    for s in 0..layers {
        let step = i64::from(s);
        let value = (0..4).map(|v| t(&[v, 10 * v + step + bump(s)])).collect();
        store.ingest(s, "value", value).unwrap();
        if gap != Some(s) {
            let active = (0..4).map(|v| t(&[v, step])).collect();
            store.ingest(s, "superstep", active).unwrap();
        }
    }
}

fn capture(layers: u32, bump: fn(u32) -> i64, gap: Option<u32>) -> ProvStore {
    let mut store = ProvStore::new(StoreConfig::in_memory());
    ingest_capture(&mut store, layers, bump, gap);
    store
}

/// Fail the k-th spill of an append, for every k, of a store's first
/// append and of its second. An append that fails leaves the live store
/// and a store reopened from its spool reading what they read before
/// it; one that returns `Ok` leaves them reading the new capture. A
/// failed first append used to leave diff layers that the reopened
/// spool, finding no epoch marker, read as capture layers.
#[test]
fn failed_append_reads_as_before() {
    // The new run changes layers 1 and 2, drops `superstep` at layer 2
    // and adds layer 3.
    let next = capture(4, |s| if s >= 1 { 100 } else { 0 }, Some(2));
    for prior in 0..2 {
        for k in 0.. {
            let dir = std::env::temp_dir().join(format!(
                "ariadne-epoch-undo-{prior}-{k}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let fault = FaultPlan::new();
            let config = StoreConfig::spilling(0, dir.clone());
            let mut store = ProvStore::new(config.clone().with_fault(fault.clone()));
            ingest_capture(&mut store, 3, |_| 0, None);
            if prior == 1 {
                store
                    .append_epoch(&capture(3, |s| if s == 0 { 7 } else { 0 }, None))
                    .expect("the first append");
            }
            let before = all_layers(&store);
            fault.fail_spill_write(fault.spill_attempts() + k);
            let appended = store.append_epoch(&next);
            let fired = fault.pending() == 0;
            let tag = format!("append {} failing spill {k}", prior + 1);
            let expect = match &appended {
                Ok(_) => all_layers(&next),
                Err(StoreError::InjectedSpillFailure { .. }) => before,
                Err(e) => panic!("{tag}: {e}"),
            };
            assert_eq!(appended.is_err(), fired, "{tag}");
            assert_eq!(all_layers(&store), expect, "{tag}: live store");
            drop(store);

            let mut reopened = ProvStore::resume_from_spool(config).expect("resume");
            assert_eq!(all_layers(&reopened), expect, "{tag}: reopened store");
            reopened.append_epoch(&next).expect("the retried append");
            assert_eq!(all_layers(&reopened), all_layers(&next), "{tag}: retried");
            let _ = std::fs::remove_dir_all(&dir);
            if !fired {
                assert!(k > 1, "{tag}: the append spills");
                break;
            }
        }
    }
}
