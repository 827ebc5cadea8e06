//! Checkpoint/restart: survive a mid-run crash and resume bit-identically.
//!
//! ```sh
//! cargo run --release --example checkpoint_resume
//! ```
//!
//! A provenance capture over a big graph is a long-running job; this
//! example shows the recovery story end to end:
//!
//! 1. run PageRank with barrier checkpoints (`SNAPSHOT_VERSION` files:
//!    `"ARSN" | version | payload len | payload | CRC32`, one file per
//!    checkpointed superstep, written atomically);
//! 2. inject a deterministic crash mid-run with a [`FaultPlan`];
//! 3. resume from the latest valid snapshot and verify the result is
//!    **bit-identical** to an uninterrupted run — values, aggregates and
//!    per-superstep message counters all match, because the engine is
//!    deterministic and the barrier state is complete.

use ariadne::session::Ariadne;
use ariadne::{CheckpointConfig, EngineConfig, EngineError, FaultPlan};
use ariadne_analytics::PageRank;
use ariadne_graph::generators::{rmat, RmatConfig};
use ariadne_vc::{Engine, SNAPSHOT_VERSION};

fn main() {
    let graph = rmat(RmatConfig {
        scale: 10,
        edge_factor: 12,
        ..Default::default()
    });
    let analytic = PageRank {
        supersteps: 12,
        ..PageRank::default()
    };
    println!(
        "graph: {} vertices, {} edges; snapshot format v{SNAPSHOT_VERSION}",
        graph.num_vertices(),
        graph.num_edges()
    );

    // Reference: an uninterrupted run (no checkpointing, no disk IO).
    let reference = Ariadne::default().baseline(&analytic, &graph);
    println!(
        "reference: {} supersteps in {:?}",
        reference.supersteps(),
        reference.metrics.elapsed
    );

    let ckpt_dir = std::env::temp_dir().join(format!("ariadne-ckpt-{}", std::process::id()));
    std::fs::remove_dir_all(&ckpt_dir).ok();

    // Crash run: checkpoint every 3 barriers, die at superstep 7.
    let plan = FaultPlan::new();
    plan.kill_at_superstep(7);
    let crashing = Engine::new(EngineConfig {
        checkpoint: Some(CheckpointConfig::new(ckpt_dir.clone(), 3)),
        fault: Some(plan),
        ..EngineConfig::default()
    });
    match crashing.run_checkpointed(&analytic, &graph) {
        Err(EngineError::InjectedCrash { superstep }) => {
            println!("crashed (injected) at superstep {superstep}");
        }
        other => panic!("expected the injected crash, got {other:?}"),
    }
    let snapshots: Vec<_> = std::fs::read_dir(&ckpt_dir)
        .expect("checkpoint dir exists")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    println!("snapshots on disk: {snapshots:?}");

    // Resume: same analytic, graph and engine config, fault plan spent.
    let resuming = Engine::new(EngineConfig {
        checkpoint: Some(CheckpointConfig::new(ckpt_dir.clone(), 3)),
        fault: None,
        ..EngineConfig::default()
    });
    let resumed = resuming
        .resume(&analytic, &graph)
        .expect("resume from latest valid snapshot");
    println!(
        "resumed: {} supersteps total in {:?}",
        resumed.supersteps(),
        resumed.metrics.elapsed
    );

    // Bit-identical recovery: every value, aggregate and per-superstep
    // counter matches the uninterrupted reference.
    assert_eq!(reference.values, resumed.values, "values diverged");
    assert_eq!(
        reference.aggregates, resumed.aggregates,
        "aggregates diverged"
    );
    for (a, b) in reference
        .metrics
        .supersteps
        .iter()
        .zip(&resumed.metrics.supersteps)
    {
        assert_eq!(
            (a.superstep, a.active_vertices, a.messages_sent),
            (b.superstep, b.active_vertices, b.messages_sent),
            "superstep counters diverged"
        );
    }
    println!("resume is bit-identical to the uninterrupted run ✓");

    std::fs::remove_dir_all(&ckpt_dir).ok();
}
