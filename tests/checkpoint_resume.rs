//! Crash/resume determinism: an injected crash at *any* superstep,
//! followed by a resume from the latest valid snapshot, must yield
//! results bit-identical to an uninterrupted run — for the bare engine,
//! the online wrapper and capture runs (store included). Corrupted
//! snapshots fall back or fail with typed errors, never panics.

use ariadne::custom::AlsProv;
use ariadne::session::{Ariadne, AriadneError, RunOptions};
use ariadne::{
    compile_with, queries, CaptureSpec, CheckpointConfig, CompiledQuery, EngineConfig, EngineError,
    FaultPlan, StoreConfig,
};
use ariadne_analytics::als::{Als, AlsConfig};
use ariadne_analytics::{PageRank, Sssp, Wcc};
use ariadne_graph::generators::erdos_renyi::erdos_renyi;
use ariadne_graph::generators::regular::{cycle, path};
use ariadne_graph::generators::{BipartiteRatings, RatingsConfig};
use ariadne_graph::{Csr, VertexId};
use ariadne_pql::{Params, Tuple, UdfRegistry};
use ariadne_provenance::{ProvEncode, ProvStore};
use ariadne_vc::{Engine, RunMetrics, RunResult, VertexProgram};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A unique scratch directory per test invocation.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ariadne-cr-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn ckpt_config(dir: &Path, every: u32, fault: Option<Arc<FaultPlan>>) -> EngineConfig {
    EngineConfig {
        checkpoint: Some(CheckpointConfig::new(dir.to_path_buf(), every)),
        fault,
        ..EngineConfig::default()
    }
}

fn ckpt_session(dir: &Path, every: u32, fault: Option<Arc<FaultPlan>>) -> Ariadne {
    Ariadne {
        engine: ckpt_config(dir, every, fault),
        ..Ariadne::default()
    }
}

/// The bare engine checkpointing every `every` supersteps into `dir`.
fn ckpt_engine(dir: &Path, every: u32, fault: Option<Arc<FaultPlan>>) -> Engine {
    Engine::new(ckpt_config(dir, every, fault))
}

/// Per-superstep deterministic counters.
type Counters = Vec<(u32, usize, usize, usize)>;

/// Everything deterministic about a run (wall-clock times excluded).
fn fingerprint<V: Clone>(r: &RunResult<V>) -> (Vec<V>, Counters) {
    (r.values.clone(), counters(&r.metrics))
}

fn counters(m: &RunMetrics) -> Counters {
    m.supersteps
        .iter()
        .map(|s| (s.superstep, s.active_vertices, s.messages_sent, s.message_bytes))
        .collect()
}

/// Crash at superstep `kill`, resume, and check the result against the
/// uninterrupted reference. Returns whether the fault actually fired
/// (kills beyond the last superstep never trigger).
fn crash_resume_matches<A>(analytic: &A, graph: &Csr, reference: &RunResult<A::V>, kill: u32) -> bool
where
    A: VertexProgram,
    A::V: ariadne::Snapshot + Clone + PartialEq + std::fmt::Debug,
    A::M: ariadne::Snapshot,
{
    let dir = scratch(&format!("k{kill}"));
    let plan = FaultPlan::new();
    plan.kill_at_superstep(kill);
    let crashed = ckpt_engine(&dir, 2, Some(plan)).run_checkpointed(analytic, graph);
    match crashed {
        Err(EngineError::InjectedCrash { superstep }) => {
            assert_eq!(superstep, kill);
        }
        Ok(_) => {
            // The run finished before the fault point; nothing to resume.
            std::fs::remove_dir_all(&dir).ok();
            return false;
        }
        Err(other) => panic!("unexpected failure: {other}"),
    }
    let resumed = ckpt_engine(&dir, 2, None)
        .resume(analytic, graph)
        .expect("resume after crash");
    assert_eq!(
        fingerprint(reference),
        fingerprint(&resumed),
        "kill at superstep {kill} diverged"
    );
    assert_eq!(reference.aggregates, resumed.aggregates);
    std::fs::remove_dir_all(&dir).ok();
    true
}

#[test]
fn pagerank_resume_is_bit_identical_at_every_superstep() {
    let g = erdos_renyi(40, 160, 7);
    let pr = PageRank {
        supersteps: 6,
        ..PageRank::default()
    };
    let reference = Ariadne::default().baseline(&pr, &g);
    let mut fired = 0;
    for kill in 0..reference.supersteps() {
        if crash_resume_matches(&pr, &g, &reference, kill) {
            fired += 1;
        }
    }
    assert!(fired >= 3, "want >=3 exercised fault points, got {fired}");
}

#[test]
fn sssp_resume_is_bit_identical_at_every_superstep() {
    let g = erdos_renyi(40, 160, 11);
    let sssp = Sssp::new(VertexId(0));
    let reference = Ariadne::default().baseline(&sssp, &g);
    let mut fired = 0;
    for kill in 0..reference.supersteps() {
        if crash_resume_matches(&sssp, &g, &reference, kill) {
            fired += 1;
        }
    }
    assert!(fired >= 3, "want >=3 exercised fault points, got {fired}");
}

#[test]
fn wcc_resume_is_bit_identical_at_every_superstep() {
    let g = cycle(16);
    let reference = Ariadne::default().baseline(&Wcc, &g);
    let mut fired = 0;
    for kill in 0..reference.supersteps() {
        if crash_resume_matches(&Wcc, &g, &reference, kill) {
            fired += 1;
        }
    }
    assert!(fired >= 3, "want >=3 exercised fault points, got {fired}");
}

#[test]
fn parallel_resume_matches_sequential_reference() {
    // Crash a 4-worker run and resume with 4 workers: still identical to
    // the sequential uninterrupted reference (engine determinism).
    let g = erdos_renyi(40, 160, 3);
    let pr = PageRank {
        supersteps: 6,
        ..PageRank::default()
    };
    let reference = Ariadne::default().baseline(&pr, &g);
    let dir = scratch("par");
    let plan = FaultPlan::new();
    plan.kill_at_superstep(3);
    let four = |fault| {
        Engine::new(EngineConfig {
            threads: 4,
            ..ckpt_config(&dir, 2, fault)
        })
    };
    assert!(matches!(
        four(Some(plan)).run_checkpointed(&pr, &g),
        Err(EngineError::InjectedCrash { superstep: 3 })
    ));
    let resumed = four(None).resume(&pr, &g).unwrap();
    assert_eq!(fingerprint(&reference), fingerprint(&resumed));
    std::fs::remove_dir_all(&dir).ok();
}

/// Under `with_fsync(true)` each snapshot is synced before its rename
/// publishes it and its directory entry after. A crash and resume still
/// reproduce the uninterrupted run bit for bit.
#[test]
fn fsynced_pagerank_resume_is_bit_identical() {
    let g = erdos_renyi(40, 160, 7);
    let pr = PageRank {
        supersteps: 6,
        ..PageRank::default()
    };
    let reference = Ariadne::default().baseline(&pr, &g);
    let dir = scratch("fsync");
    let fsynced = |fault| {
        let mut config = ckpt_config(&dir, 2, fault);
        config.checkpoint = config.checkpoint.map(|c| c.with_fsync(true));
        Engine::new(config)
    };
    let plan = FaultPlan::new();
    plan.kill_at_superstep(3);
    assert!(matches!(
        fsynced(Some(plan)).run_checkpointed(&pr, &g),
        Err(EngineError::InjectedCrash { superstep: 3 })
    ));
    let resumed = fsynced(None).resume(&pr, &g).unwrap();
    assert_eq!(fingerprint(&reference), fingerprint(&resumed));
    let bits = |r: &RunResult<f64>| r.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&reference), bits(&resumed));
    assert_eq!(reference.aggregates, resumed.aggregates);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn online_run_resumes_with_query_state() {
    // The query partition (database, frontiers, marks) is part of the
    // snapshot: resuming mid-run loses no derived tuples.
    let g = path(8);
    let q = queries::sssp_wcc_no_message_no_change().unwrap();
    let reference = Ariadne::default().online(&Wcc, &g, &q).unwrap();

    let dir = scratch("online");
    let plan = FaultPlan::new();
    plan.kill_at_superstep(2);
    let err = ckpt_session(&dir, 1, Some(plan))
        .online_with(&Wcc, &g, &q, &RunOptions::default())
        .expect_err("fault must fire");
    assert!(matches!(
        err,
        AriadneError::Engine(EngineError::InjectedCrash { superstep: 2 })
    ));
    let resumed = ckpt_session(&dir, 1, None)
        .online_with(
            &Wcc,
            &g,
            &q,
            &RunOptions {
                resume: true,
                ..RunOptions::default()
            },
        )
        .unwrap();
    assert_eq!(reference.values, resumed.values);
    for name in ["no_message", "no_change"] {
        assert_eq!(
            reference.query_results.sorted(name),
            resumed.query_results.sorted(name),
            "relation {name} diverged across resume"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn capture_resume_recovers_an_identical_store() {
    // Crash a spooling capture, resume it, and compare every layer of the
    // recovered store against an uninterrupted capture. Already-spilled
    // layers are re-attached (sealed) and re-ingestions are no-ops.
    let g = path(8);

    let ref_dir = scratch("cap-ref");
    let mut reference_session = ckpt_session(&ref_dir.join("ckpt"), 1, None);
    reference_session.store =
        ariadne::StoreConfig::spilling(1, ref_dir.join("spool"));
    let reference = reference_session
        .capture_with(&Wcc, &g, &CaptureSpec::full(), &RunOptions::default())
        .unwrap();

    let dir = scratch("cap");
    let plan = FaultPlan::new();
    plan.kill_at_superstep(2);
    let mut crashed_session = ckpt_session(&dir.join("ckpt"), 1, Some(plan));
    crashed_session.store = ariadne::StoreConfig::spilling(1, dir.join("spool"));
    let err = crashed_session
        .capture_with(&Wcc, &g, &CaptureSpec::full(), &RunOptions::default())
        .expect_err("fault must fire");
    assert!(matches!(
        err,
        AriadneError::Engine(EngineError::InjectedCrash { superstep: 2 })
    ));

    let mut resume_session = ckpt_session(&dir.join("ckpt"), 1, None);
    resume_session.store = ariadne::StoreConfig::spilling(1, dir.join("spool"));
    let resumed = resume_session
        .capture_with(
            &Wcc,
            &g,
            &CaptureSpec::full(),
            &RunOptions {
                resume: true,
                ..RunOptions::default()
            },
        )
        .unwrap();

    assert_eq!(reference.values, resumed.values);
    assert_eq!(reference.store.tuple_count(), resumed.store.tuple_count());
    assert_eq!(reference.store.max_superstep(), resumed.store.max_superstep());
    if let Some(max) = reference.store.max_superstep() {
        for s in 0..=max {
            let mut a = reference.store.layer(s).unwrap();
            let mut b = resumed.store.layer(s).unwrap();
            for (_, t) in a.iter_mut().chain(b.iter_mut()) {
                t.sort();
            }
            a.sort_by(|x, y| x.0.cmp(&y.0));
            b.sort_by(|x, y| x.0.cmp(&y.0));
            assert_eq!(a, b, "layer {s} diverged across resume");
        }
    }
    std::fs::remove_dir_all(&ref_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// Every layer of `store`, predicates and each predicate's rows sorted.
fn sorted_layers(store: &ProvStore) -> Vec<Vec<(String, Vec<Tuple>)>> {
    let layers = store.max_superstep().map_or(0, |max| max + 1);
    (0..layers)
        .map(|s| {
            let mut layer = store.layer(s).unwrap();
            for (_, rows) in &mut layer {
                rows.sort();
            }
            layer.sort_by(|a, b| a.0.cmp(&b.0));
            layer
        })
        .collect()
}

/// A capture killed at superstep 3 and resumed is the uninterrupted
/// capture row for row, or fails typed — never a store with layers
/// missing. The snapshot's layers are in the spool already (a one-byte
/// budget), get there only because the checkpoint waits for them (a
/// budget nothing reaches), or cannot get there (no spool at all).
#[test]
fn capture_resume_is_complete_or_typed() {
    let g = path(8);
    let spec = CaptureSpec::full();
    let reference = Ariadne::default().capture(&Wcc, &g, &spec).unwrap();
    let want = sorted_layers(&reference.store);
    let resume = RunOptions {
        resume: true,
        ..RunOptions::default()
    };
    for budget in [Some(1), Some(1 << 30), None] {
        let dir = scratch(&format!("complete-{budget:?}"));
        let session = |fault| Ariadne {
            store: match budget {
                Some(budget) => StoreConfig::spilling(budget, dir.join("spool")),
                None => StoreConfig::in_memory(),
            },
            ..ckpt_session(&dir.join("ckpt"), 1, fault)
        };
        let plan = FaultPlan::new();
        plan.kill_at_superstep(3);
        let err = session(Some(plan))
            .capture_with(&Wcc, &g, &spec, &RunOptions::default())
            .expect_err("fault must fire");
        assert!(
            matches!(err, AriadneError::Engine(EngineError::InjectedCrash { superstep: 3 })),
            "{err:?}"
        );
        match session(None).capture_with(&Wcc, &g, &spec, &resume) {
            Ok(run) => {
                assert!(budget.is_some(), "a capture with no spool resumed");
                assert_eq!(reference.values, run.values);
                assert_eq!(reference.store.tuple_count(), run.store.tuple_count());
                assert_eq!(want, sorted_layers(&run.store), "budget {budget:?}");
            }
            Err(err) => {
                assert!(budget.is_none(), "budget {budget:?}: {err}");
                assert!(matches!(err, AriadneError::Store(_)), "{err:?}");
                assert!(err.to_string().contains("spool_dir"), "{err}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Kill `session`'s full capture of `analytic` at superstep `kill` and
/// resume it: the resumed store, or `None` when the run ended first.
fn capture_after_crash<A>(
    session: impl Fn(Option<Arc<FaultPlan>>) -> Ariadne,
    analytic: &A,
    graph: &Csr,
    kill: u32,
) -> Option<ProvStore>
where
    A: VertexProgram,
    A::V: ProvEncode + ariadne::Snapshot,
    A::M: ProvEncode + ariadne::Snapshot,
{
    let plan = FaultPlan::new();
    plan.kill_at_superstep(kill);
    let spec = CaptureSpec::full();
    session(Some(plan))
        .capture_with(analytic, graph, &spec, &RunOptions::default())
        .err()?;
    let resume = RunOptions {
        resume: true,
        ..RunOptions::default()
    };
    Some(session(None).capture_with(analytic, graph, &spec, &resume).unwrap().store)
}

/// A crash between checkpoints: several workers hand the writer a layer
/// in several blocks, and a budget that spills some of them leaves the
/// layer half in the spool unless the barrier waits for the rest. The
/// resume must still equal the uninterrupted capture.
#[test]
fn capture_resumed_between_checkpoints_is_complete() {
    let g = erdos_renyi(60, 240, 5);
    let pr = PageRank {
        supersteps: 6,
        ..PageRank::default()
    };
    let spec = CaptureSpec::full();
    let wcc_want = sorted_layers(&Ariadne::default().capture(&Wcc, &g, &spec).unwrap().store);
    let pr_want = sorted_layers(&Ariadne::default().capture(&pr, &g, &spec).unwrap().store);
    for every in [2, 3] {
        for kill in 3..6 {
            for budget in [512, 2048] {
                let dir = scratch(&format!("between-{every}-{kill}-{budget}"));
                let session = |fault| Ariadne {
                    engine: EngineConfig {
                        threads: 3,
                        ..ckpt_config(&dir.join("ckpt"), every, fault)
                    },
                    store: StoreConfig::spilling(budget, dir.join("spool")),
                    naive_budget: None,
                };
                let case = format!("every {every}, kill {kill}, budget {budget}");
                if let Some(store) = capture_after_crash(session, &Wcc, &g, kill) {
                    assert_eq!(wcc_want, sorted_layers(&store), "wcc, {case}");
                }
                std::fs::remove_dir_all(&dir).ok();
                let store = capture_after_crash(session, &pr, &g, kill).expect("fault must fire");
                assert_eq!(pr_want, sorted_layers(&store), "pagerank, {case}");
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }
}

/// Custom provenance under a checkpointed run: ALS with `AlsProv`,
/// killed at superstep 2 and resumed, gives the uninterrupted run's
/// values and `prov_error` / `prov_prediction` rows bit for bit.
#[test]
fn custom_provenance_online_run_resumes_bit_identical() {
    let ratings = BipartiteRatings::generate(&RatingsConfig {
        users: 30,
        items: 10,
        ratings_per_user: 5,
        planted_rank: 2,
        noise: 0.2,
        seed: 9,
    });
    let mut config = AlsConfig::new(ratings.users, 3);
    config.supersteps = 6;
    let als = Als::new(config);
    let q = compile_with(
        "seen_error(x, y, i, e) :- prov_error(x, y, i, e).
         seen_prediction(x, y, i, p) :- prov_prediction(x, y, i, p).",
        Params::new(),
        &queries::als_catalog(),
        UdfRegistry::standard(),
    )
    .unwrap();
    let fresh = RunOptions {
        custom: Some(Arc::new(AlsProv)),
        resume: false,
    };
    let reference = Ariadne::default()
        .online_with(&als, &ratings.graph, &q, &fresh)
        .unwrap();

    let dir = scratch("als");
    let plan = FaultPlan::new();
    plan.kill_at_superstep(2);
    let err = ckpt_session(&dir, 1, Some(plan))
        .online_with(&als, &ratings.graph, &q, &fresh)
        .expect_err("fault must fire");
    assert!(matches!(
        err,
        AriadneError::Engine(EngineError::InjectedCrash { superstep: 2 })
    ));
    let resumed = ckpt_session(&dir, 1, None)
        .online_with(
            &als,
            &ratings.graph,
            &q,
            &RunOptions {
                custom: Some(Arc::new(AlsProv)),
                resume: true,
            },
        )
        .unwrap();

    let bits = |values: &[Vec<f64>]| -> Vec<Vec<u64>> {
        values.iter().map(|v| v.iter().map(|x| x.to_bits()).collect()).collect()
    };
    assert_eq!(bits(&reference.values), bits(&resumed.values));
    for name in ["seen_error", "seen_prediction"] {
        let rows = reference.query_results.sorted(name);
        assert!(!rows.is_empty(), "{name}: nothing to compare");
        assert_eq!(rows, resumed.query_results.sorted(name), "{name} diverged across resume");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A capture that stores a capture-rule head (`over`, derived from the
/// custom `prov_error` its rule reads) and a custom relation no rule
/// reads (`prov_prediction`), killed at every superstep and resumed from
/// its spool, is the uninterrupted capture row for row.
#[test]
fn head_and_custom_capture_resumes_at_every_superstep() {
    let ratings = BipartiteRatings::generate(&RatingsConfig {
        users: 30,
        items: 10,
        ratings_per_user: 5,
        planted_rank: 2,
        noise: 0.2,
        seed: 9,
    });
    let mut config = AlsConfig::new(ratings.users, 3);
    config.supersteps = 6;
    let als = Als::new(config);
    let rules = compile_with(
        "over(x, y, i) :- prov_error(x, y, i, e), e > 0.",
        Params::new(),
        &queries::als_catalog(),
        UdfRegistry::standard(),
    )
    .unwrap();
    let spec = CaptureSpec::raw(["prov_prediction"]).with_query(rules);
    let options = |resume| RunOptions {
        custom: Some(Arc::new(AlsProv)),
        resume,
    };
    let reference = Ariadne::default()
        .capture_with(&als, &ratings.graph, &spec, &options(false))
        .unwrap();
    let want = sorted_layers(&reference.store);
    for pred in ["over", "prov_prediction"] {
        let stored = want.iter().flatten().any(|(p, rows)| p == pred && !rows.is_empty());
        assert!(stored, "{pred}: nothing to compare");
    }
    let mut fired = 0;
    for kill in 0..reference.metrics.num_supersteps() {
        let dir = scratch(&format!("head-custom-{kill}"));
        let session = |fault| Ariadne {
            store: StoreConfig::spilling(256, dir.join("spool")),
            ..ckpt_session(&dir.join("ckpt"), 1, fault)
        };
        let plan = FaultPlan::new();
        plan.kill_at_superstep(kill);
        let graph = &ratings.graph;
        let crashed = session(Some(plan)).capture_with(&als, graph, &spec, &options(false));
        if let Err(err) = crashed {
            let AriadneError::Engine(EngineError::InjectedCrash { superstep }) = err else {
                panic!("{err:?}");
            };
            assert_eq!(superstep, kill);
            let resumed = session(None)
                .capture_with(&als, &ratings.graph, &spec, &options(true))
                .unwrap();
            assert_eq!(reference.store.tuple_count(), resumed.store.tuple_count(), "kill {kill}");
            assert_eq!(want, sorted_layers(&resumed.store), "kill {kill}");
            fired += 1;
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    assert!(fired >= 3, "want >=3 exercised fault points, got {fired}");
}

/// `online_with` snapshots the run when `EngineConfig::checkpoint` is
/// set; `online`, the infallible path, never writes one.
#[test]
fn only_online_with_writes_snapshots() {
    let g = path(8);
    let q = queries::sssp_wcc_no_message_no_change().unwrap();
    let snapshots = |dir: &Path| match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with("ckpt-") && name.ends_with(".snap"))
            .count(),
        Err(_) => 0,
    };
    let dir = scratch("snaps");
    let session = ckpt_session(&dir, 1, None);
    let plain = session.online(&Wcc, &g, &q).unwrap();
    assert_eq!(snapshots(&dir), 0, "online wrote a snapshot");
    let checkpointed = session
        .online_with(&Wcc, &g, &q, &RunOptions::default())
        .unwrap();
    assert!(snapshots(&dir) > 0, "online_with wrote no snapshot");
    assert_eq!(plain.values, checkpointed.values);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_newest_checkpoint_falls_back_to_older_one() {
    let g = cycle(12);
    let reference = Ariadne::default().baseline(&Wcc, &g);

    let dir = scratch("fallback");
    let plan = FaultPlan::new();
    plan.kill_at_superstep(4).corrupt_checkpoint(3);
    assert!(matches!(
        ckpt_engine(&dir, 1, Some(plan)).run_checkpointed(&Wcc, &g),
        Err(EngineError::InjectedCrash { superstep: 4 })
    ));
    // The superstep-3 snapshot is corrupt; resume silently falls back to
    // the superstep-2 one and still converges to the same result.
    let resumed = ckpt_engine(&dir, 1, None).resume(&Wcc, &g).unwrap();
    assert_eq!(fingerprint(&reference), fingerprint(&resumed));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_newest_checkpoint_falls_back_to_older_one() {
    // A checkpoint truncated mid-write (torn tail, not a flipped byte)
    // must be skipped in favour of the previous complete snapshot.
    let g = cycle(12);
    let reference = Ariadne::default().baseline(&Wcc, &g);

    let dir = scratch("torn");
    let plan = FaultPlan::new();
    plan.kill_at_superstep(4).truncate_checkpoint(3);
    assert!(matches!(
        ckpt_engine(&dir, 1, Some(plan)).run_checkpointed(&Wcc, &g),
        Err(EngineError::InjectedCrash { superstep: 4 })
    ));
    let resumed = ckpt_engine(&dir, 1, None).resume(&Wcc, &g).unwrap();
    assert_eq!(fingerprint(&reference), fingerprint(&resumed));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn all_checkpoints_corrupt_is_a_typed_error() {
    let g = cycle(8);
    let dir = scratch("allbad");
    let plan = FaultPlan::new();
    plan.kill_at_superstep(2);
    assert!(ckpt_engine(&dir, 1, Some(plan))
        .run_checkpointed(&Wcc, &g)
        .is_err());
    // Truncate every snapshot to garbage.
    let mut clobbered = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let p = entry.unwrap().path();
        if p.extension().and_then(|e| e.to_str()) == Some("snap") {
            std::fs::write(&p, b"AR").unwrap();
            clobbered += 1;
        }
    }
    assert!(clobbered > 0, "expected snapshot files in {dir:?}");
    let err = ckpt_engine(&dir, 1, None)
        .resume(&Wcc, &g)
        .expect_err("all-corrupt checkpoints must fail loudly");
    assert!(
        matches!(err, EngineError::Corrupt { .. } | EngineError::Io { .. }),
        "expected typed corruption error, got {err:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_without_checkpoints_is_a_typed_error() {
    let g = cycle(8);
    let dir = scratch("none");
    let err = ckpt_engine(&dir, 1, None)
        .resume(&Wcc, &g)
        .expect_err("nothing to resume from");
    assert!(matches!(
        err,
        EngineError::NoCheckpoint { .. } | EngineError::Io { .. }
    ));
}

#[test]
fn graph_mismatch_on_resume_is_a_typed_error() {
    let g = cycle(12);
    let dir = scratch("mismatch");
    let plan = FaultPlan::new();
    plan.kill_at_superstep(2);
    assert!(ckpt_engine(&dir, 1, Some(plan))
        .run_checkpointed(&Wcc, &g)
        .is_err());
    // Resuming against a differently-sized graph must be rejected, not
    // silently produce garbage.
    let smaller = cycle(6);
    let err = ckpt_engine(&dir, 1, None)
        .resume(&Wcc, &smaller)
        .expect_err("graph mismatch must be rejected");
    assert!(matches!(err, EngineError::GraphMismatch { .. }));
    std::fs::remove_dir_all(&dir).ok();
}

/// Kill an online WCC run of `checkpointed` on `path(8)` at superstep 2,
/// then resume it under `resumed_under`: the error the resume returns.
/// The same snapshot still resumes under the query it was taken with.
fn resume_under_another_query(
    tag: &str,
    checkpointed: &CompiledQuery,
    resumed_under: &CompiledQuery,
) -> AriadneError {
    let g = path(8);
    let dir = scratch(tag);
    let plan = FaultPlan::new();
    plan.kill_at_superstep(2);
    let err = ckpt_session(&dir, 1, Some(plan))
        .online_with(&Wcc, &g, checkpointed, &RunOptions::default())
        .expect_err("fault must fire");
    assert!(matches!(
        err,
        AriadneError::Engine(EngineError::InjectedCrash { superstep: 2 })
    ));
    let resume = RunOptions {
        resume: true,
        ..RunOptions::default()
    };
    let err = ckpt_session(&dir, 1, None)
        .online_with(&Wcc, &g, resumed_under, &resume)
        .expect_err("a snapshot of another query must be refused");
    ckpt_session(&dir, 1, None)
        .online_with(&Wcc, &g, checkpointed, &resume)
        .expect("resume under the checkpointed query");
    std::fs::remove_dir_all(&dir).ok();
    err
}

/// Assert `err` refuses a snapshot of `checkpointed` resumed under
/// `resumed_under` before superstep 0: the query identities differ.
fn assert_program_mismatch(
    err: AriadneError,
    checkpointed: &CompiledQuery,
    resumed_under: &CompiledQuery,
) {
    match err {
        AriadneError::Engine(EngineError::ProgramMismatch { snapshot, program }) => {
            assert_eq!(snapshot, checkpointed.query().identity);
            assert_eq!(program, resumed_under.query().identity);
        }
        other => panic!("expected a typed program mismatch, got {other:?}"),
    }
}

/// A snapshot records the wrapped query, and holds each vertex's delta
/// frontiers positionally, in that query's layout. Resuming under a query
/// that tracks another number of (stratum, predicate) frontiers is
/// refused with a typed error, not evaluated against foreign counts.
#[test]
fn query_layout_mismatch_on_resume_is_a_typed_error() {
    // Two strata: `receive_message`, then `evolution`, `neighbor_change`
    // and `value` — four frontiers.
    let checkpointed = queries::sssp_wcc_no_message_no_change().unwrap();
    // One stratum over `evolution`, `receive_message` and `value` — three.
    let resumed_under = queries::sssp_wcc_value_check().unwrap();
    let err = resume_under_another_query("layout", &checkpointed, &resumed_under);
    assert_program_mismatch(err, &checkpointed, &resumed_under);
}

/// A query with as many frontiers as the checkpointed one is refused
/// too: its layout fits the snapshot, but the restored databases hold
/// none of its rows from before the snapshot, so it would answer short.
#[test]
fn another_query_of_the_same_layout_is_refused_on_resume() {
    let checkpointed = queries::sssp_wcc_no_message_no_change().unwrap();
    // One stratum over `receive_message`, `superstep`, `value` and
    // `evolution` — four frontiers, like the checkpointed query.
    let resumed_under = ariadne::compile(
        "a(x, i) :- receive_message(x, y, m, i), superstep(x, i).
         b(x, i) :- value(x, d, i), evolution(x, j, i).",
        Params::new(),
    )
    .unwrap();
    let err = resume_under_another_query("same-layout", &checkpointed, &resumed_under);
    assert_program_mismatch(err, &checkpointed, &resumed_under);
}
