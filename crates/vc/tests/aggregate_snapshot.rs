//! Aggregator state in a checkpoint: the bytes are pinned, and so are the
//! edge cases of registration and decoding.
//!
//! `fixtures/checkpoint_aggregates.hex` is a whole versioned checkpoint
//! file (magic, `SNAPSHOT_VERSION` 7, CRC) of a two-vertex run of a
//! program whose identity is `pagerank`, paused at superstep 3 with two
//! aggregators, each with a current and a previous value. A checkpoint built the same way must be byte-identical to it,
//! and reading the fixture must give back an equal state.

use ariadne_graph::VertexId;
use ariadne_vc::checkpoint::{read_checkpoint, write_versioned};
use ariadne_vc::{
    AggOp, AggValue, Aggregates, EngineCheckpoint, Envelope, Inbox, PhaseTimes, RunMetrics,
    SnapError, Snapshot, SuperstepMetrics, SNAPSHOT_VERSION,
};
use std::time::Duration;

const FIXTURE: &str = include_str!("fixtures/checkpoint_aggregates.hex");

/// The checkpoint the fixture holds. Registrations are given out of
/// name order, so the sorted encoding is exercised.
fn checkpoint() -> EngineCheckpoint<f64, f64> {
    let mut aggregates = Aggregates::new([
        ("rank.delta".to_string(), AggOp::Sum),
        ("frontier".to_string(), AggOp::Max),
    ]);
    aggregates.contribute("rank.delta", AggValue::F64(0.25));
    aggregates.contribute("frontier", AggValue::I64(7));
    aggregates.rotate();
    aggregates.contribute("frontier", AggValue::I64(3));
    aggregates.contribute("rank.delta", AggValue::F64(0.5));
    aggregates.contribute("rank.delta", AggValue::F64(0.125));
    let step = SuperstepMetrics {
        superstep: 2,
        active_vertices: 2,
        messages_sent: 1,
        messages_delivered: 1,
        message_bytes: 8,
        buffered_messages: 1,
        buffered_bytes: 8,
        elapsed: Duration::from_nanos(1_500),
        phases: PhaseTimes {
            compute: Duration::from_nanos(700),
            combine: Duration::from_nanos(100),
            scatter: Duration::from_nanos(200),
            barrier: Duration::from_nanos(300),
        },
        checkpoint: Duration::from_nanos(50),
    };
    EngineCheckpoint {
        program: "pagerank".to_string(),
        superstep: 3,
        values: vec![1.5, f64::INFINITY],
        inbox: Inbox::new(vec![0, 0, 1], vec![Envelope::new(VertexId(0), 2.5)]).unwrap(),
        aggregates,
        metrics: RunMetrics {
            supersteps: vec![step],
            elapsed: Duration::from_nanos(4_000),
        },
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    let digits: Vec<u8> = text.bytes().filter(|b| b.is_ascii_hexdigit()).collect();
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

fn scratch_file(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ariadne-agg-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn checkpoint_bytes_match_the_fixture_and_read_back_equal() {
    assert_eq!(SNAPSHOT_VERSION, 7);
    let ckpt = checkpoint();
    let mut payload = Vec::new();
    ckpt.write_snap(&mut payload);
    let written = scratch_file("written.snap");
    write_versioned(&written, &payload).unwrap();
    let bytes = std::fs::read(&written).unwrap();
    assert!(
        bytes == unhex(FIXTURE),
        "checkpoint bytes differ from fixtures/checkpoint_aggregates.hex; now:\n{}",
        hex(&bytes)
    );

    let fixture = scratch_file("fixture.snap");
    std::fs::write(&fixture, unhex(FIXTURE)).unwrap();
    let back: EngineCheckpoint<f64, f64> = read_checkpoint(&fixture).unwrap();
    assert_eq!(back.program, ckpt.program);
    assert_eq!(back.superstep, ckpt.superstep);
    assert_eq!(back.values, ckpt.values);
    assert_eq!(back.inbox, ckpt.inbox);
    assert_eq!(back.aggregates, ckpt.aggregates);
    assert_eq!(back.metrics.supersteps, ckpt.metrics.supersteps);
    assert_eq!(back.metrics.elapsed, ckpt.metrics.elapsed);
    assert_eq!(
        back.aggregates.current("rank.delta"),
        Some(AggValue::F64(0.625))
    );
    assert_eq!(back.aggregates.previous("frontier"), Some(AggValue::I64(7)));
    let _ = std::fs::remove_dir_all(written.parent().unwrap());
}

#[test]
fn a_duplicate_registration_keeps_the_last_op() {
    let mut a = Aggregates::new([
        ("x".to_string(), AggOp::Min),
        ("y".to_string(), AggOp::Sum),
        ("x".to_string(), AggOp::Max),
    ]);
    a.contribute("x", AggValue::I64(2));
    a.contribute("x", AggValue::I64(9));
    assert_eq!(a.current("x"), Some(AggValue::I64(9)));
    let mut bytes = Vec::new();
    a.write_snap(&mut bytes);
    let ops = Vec::<(String, AggOp)>::read_snap(&mut bytes.as_slice()).unwrap();
    assert_eq!(
        ops,
        vec![("x".to_string(), AggOp::Max), ("y".to_string(), AggOp::Sum)]
    );
}

#[test]
#[should_panic(expected = "not registered")]
fn an_unknown_name_panics_on_contribute() {
    let mut a = Aggregates::new([("x".to_string(), AggOp::Sum)]);
    a.contribute("y", AggValue::F64(1.0));
}

#[test]
fn a_value_for_an_unregistered_aggregator_is_a_typed_error() {
    let ops = vec![("x".to_string(), AggOp::Sum)];
    let registered = vec![Some(AggValue::F64(1.0))];
    let stray = vec![Some(AggValue::F64(1.0)), Some(AggValue::F64(1.0))];
    for (current, previous) in [(&stray, &registered), (&registered, &stray)] {
        let mut bytes = Vec::new();
        ops.write_snap(&mut bytes);
        current.write_snap(&mut bytes);
        previous.write_snap(&mut bytes);
        assert_eq!(
            Aggregates::read_snap(&mut bytes.as_slice()),
            Err(SnapError::SlotMismatch {
                registered: 1,
                slots: 2
            })
        );
    }
}
