//! The mutation-equivalence matrix (the PR-10 acceptance contract):
//! random mutation batches (insert-only / delete-only / mixed) ×
//! {PageRank, SSSP, WCC} × threads {1, 2, 3, 7}, checking
//!
//! * **result equivalence** — after `commit()`, the frontier-seeded
//!   incremental re-execution produces values bit-identical to a cold
//!   re-run on the mutated graph, at every thread count, and every
//!   thread count agrees with single-threaded;
//! * **provenance equivalence** — `capture_epoch()` appends a delta
//!   epoch whose *logical* layers read bit-identical to a cold capture
//!   of the mutated graph (same layers, same database), so deletions
//!   leave no ghost provenance: any tuple derived through a removed
//!   edge is absent exactly as it is from the cold capture;
//! * **byte invariance** — the epoch `capture_epoch()` appends writes
//!   the same bytes at every thread count, and its `cold_bytes` is the
//!   size of a cold capture.

use ariadne::session::Ariadne;
use ariadne::{CaptureSpec, MutableSession, StoreConfig};
use ariadne_analytics::{PageRank, Sssp, Wcc};
use ariadne_graph::{generators::erdos_renyi, Csr, GraphDelta, VertexId};
use ariadne_provenance::{ProvEncode, ProvStore};
use ariadne_vc::VertexProgram;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREADS: [usize; 4] = [1, 2, 3, 7];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BatchKind {
    InsertOnly,
    DeleteOnly,
    Mixed,
}

const KINDS: [BatchKind; 3] = [
    BatchKind::InsertOnly,
    BatchKind::DeleteOnly,
    BatchKind::Mixed,
];

/// A random mutation batch of `kind` against `csr`, deterministic in
/// `seed` so every thread count replays the identical batch.
fn random_batch(csr: &Csr, kind: BatchKind, seed: u64) -> GraphDelta {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = csr.num_vertices() as u64;
    let existing: Vec<(VertexId, VertexId, f64)> = csr.edges().collect();
    let mut delta = GraphDelta::new();
    if matches!(kind, BatchKind::InsertOnly | BatchKind::Mixed) {
        for _ in 0..6 {
            let s = VertexId(rng.gen_range(0..n));
            let d = VertexId(rng.gen_range(0..n));
            let w = f64::from(rng.gen_range(1..8u32));
            delta.add_edge(s, d, w);
        }
    }
    if matches!(kind, BatchKind::DeleteOnly | BatchKind::Mixed) {
        for _ in 0..4 {
            let (s, d, _) = existing[rng.gen_range(0..existing.len())];
            delta.remove_edge(s, d);
        }
        if kind == BatchKind::DeleteOnly {
            // Isolate one vertex too: the harshest retraction shape.
            delta.remove_vertex(VertexId(rng.gen_range(0..n)));
        }
    }
    delta
}

/// Incremental values after a commit must be bit-identical to a cold
/// re-run on the mutated graph, per thread count and across them.
fn assert_result_equivalence<A>(analytic: &A, label: &str)
where
    A: VertexProgram,
    A::V: PartialEq + std::fmt::Debug + Sync,
{
    for kind in KINDS {
        for (round, seed) in [11u64, 29, 47].into_iter().enumerate() {
            let mut oracle: Option<Vec<A::V>> = None;
            for threads in THREADS {
                let base = erdos_renyi(36, 120, seed);
                let mut s = MutableSession::new(Ariadne::with_threads(threads), base);
                let prev = s.baseline(analytic);
                s.mutate(random_batch(s.csr(), kind, seed.wrapping_mul(31)));
                s.commit();

                let inc = s.rerun_incremental(analytic, &prev.values).unwrap();
                let cold = s.baseline(analytic);
                assert_eq!(
                    inc.result.values, cold.values,
                    "{label} {kind:?} round {round}: incremental != cold at {threads} threads"
                );
                match &oracle {
                    None => oracle = Some(cold.values),
                    Some(o) => assert_eq!(
                        o, &cold.values,
                        "{label} {kind:?} round {round}: {threads} threads diverged from 1"
                    ),
                }
            }
        }
    }
}

/// One layer as read back: superstep, then (predicate, tuples) pairs.
type Layer = (u32, Vec<(String, Vec<ariadne_pql::Tuple>)>);

/// Logical content of every layer in canonical (sorted) tuple order —
/// the form layer equivalence is defined over: an epoch writes a
/// replaced layer in that order, a cold capture in vertex order.
fn all_layers(store: &ProvStore) -> Vec<Layer> {
    let mut out = Vec::new();
    if let Some(max) = store.max_superstep() {
        for s in 0..=max {
            let mut layer = store.layer(s).expect("layer read");
            for (_, tuples) in &mut layer {
                tuples.sort();
            }
            out.push((s, layer));
        }
    }
    out
}

fn db_snapshot(store: &ProvStore) -> Vec<(String, Vec<ariadne_pql::Tuple>)> {
    let db = store.to_database().expect("to_database");
    let mut out: Vec<_> = db
        .iter()
        .map(|(name, _)| (name.to_string(), db.sorted(name)))
        .collect();
    out.sort();
    out
}

/// After `capture_epoch`, the live store's logical reads must be
/// bit-identical to a cold capture of the mutated graph; for deleting
/// batches, the epoch must actually retract provenance.
fn assert_provenance_equivalence<A>(analytic: &A, label: &str)
where
    A: VertexProgram,
    A::V: ProvEncode + Sync,
    A::M: ProvEncode,
{
    let spec = CaptureSpec::full();
    for kind in KINDS {
        let seed = 53u64;
        for threads in THREADS {
            let base = erdos_renyi(30, 90, seed);
            let session = Ariadne::with_threads(threads);
            let mut store = session
                .capture(analytic, &base, &spec)
                .expect("base capture")
                .store;
            let before = db_snapshot(&store);

            let mut s = MutableSession::new(session, base);
            s.mutate(random_batch(s.csr(), kind, seed.wrapping_mul(7)));
            s.commit();
            let (_, stats) = s
                .capture_epoch(analytic, &spec, &mut store)
                .expect("epoch capture");
            assert_eq!(stats.epoch, 1, "{label} {kind:?}");

            let cold = Ariadne::with_threads(threads)
                .capture(analytic, s.csr(), &spec)
                .expect("cold capture")
                .store;
            assert_eq!(
                all_layers(&store),
                all_layers(&cold),
                "{label} {kind:?} at {threads} threads: logical layers != cold capture"
            );
            let after = db_snapshot(&store);
            assert_eq!(
                after,
                db_snapshot(&cold),
                "{label} {kind:?} at {threads} threads: database != cold capture"
            );
            if kind != BatchKind::InsertOnly {
                // The equality above is the no-ghost guarantee; this
                // checks the retraction was real, not vacuous: some
                // pre-mutation provenance no longer exists.
                let survived = before.iter().all(|(pred, tuples)| {
                    after
                        .iter()
                        .find(|(p, _)| p == pred)
                        .is_some_and(|(_, t)| tuples.iter().all(|x| t.contains(x)))
                });
                assert!(
                    !survived,
                    "{label} {kind:?} at {threads} threads: deletions retracted nothing"
                );
            }
        }
    }
}

/// The epoch `capture_epoch` appends writes the same bytes at every
/// thread count, and its `cold_bytes` is the size of a cold capture at
/// one thread: a capture stores the same bytes at every thread count.
fn assert_epoch_bytes_thread_invariant<A>(analytic: &A, label: &str)
where
    A: VertexProgram,
    A::V: ProvEncode + Sync,
    A::M: ProvEncode,
{
    let spec = CaptureSpec::full();
    let seed = 53u64;
    let session = |threads| Ariadne {
        store: StoreConfig::in_memory(),
        ..Ariadne::with_threads(threads)
    };
    for kind in KINDS {
        let base = erdos_renyi(30, 90, seed);
        let mut oracle = None;
        for threads in THREADS {
            let what = format!("{label} {kind:?} at {threads} threads");
            let capture = |graph: &Csr| session(1).capture(analytic, graph, &spec).unwrap();
            let mut store = capture(&base).store;
            let mut s = MutableSession::new(session(threads), base.clone());
            s.mutate(random_batch(s.csr(), kind, seed.wrapping_mul(7)));
            s.commit();
            let (_, stats) = s
                .capture_epoch(analytic, &spec, &mut store)
                .expect("epoch capture");
            let cold = capture(s.csr()).store;
            assert_eq!(stats.cold_bytes, cold.byte_size(), "{what}: cold_bytes");
            let written = (
                stats.bytes_appended,
                stats.carried,
                stats.appended,
                stats.replaced,
                stats.tombstoned,
                store.byte_size(),
            );
            match &oracle {
                None => oracle = Some(written),
                Some(o) => assert_eq!(o, &written, "{what}: diverged from 1 thread"),
            }
        }
    }
}

#[test]
fn sssp_results_match_cold_rerun() {
    assert_result_equivalence(&Sssp::new(VertexId(0)), "sssp");
}

#[test]
fn wcc_results_match_cold_rerun() {
    assert_result_equivalence(&Wcc, "wcc");
}

#[test]
fn pagerank_results_match_cold_rerun() {
    let pr = PageRank {
        supersteps: 8,
        ..PageRank::default()
    };
    assert_result_equivalence(&pr, "pagerank");
}

#[test]
fn sssp_provenance_matches_cold_capture() {
    assert_provenance_equivalence(&Sssp::new(VertexId(0)), "sssp");
}

#[test]
fn wcc_provenance_matches_cold_capture() {
    assert_provenance_equivalence(&Wcc, "wcc");
}

#[test]
fn pagerank_provenance_matches_cold_capture() {
    let pr = PageRank {
        supersteps: 6,
        ..PageRank::default()
    };
    assert_provenance_equivalence(&pr, "pagerank");
}

#[test]
fn epoch_bytes_are_thread_invariant() {
    assert_epoch_bytes_thread_invariant(&Sssp::new(VertexId(0)), "sssp");
    let pr = PageRank {
        supersteps: 6,
        ..PageRank::default()
    };
    assert_epoch_bytes_thread_invariant(&pr, "pagerank");
}

#[test]
fn multi_epoch_chain_stays_equivalent() {
    // Three successive mutation barriers on one store: the epoch chain
    // folds correctly, not just a single append.
    let spec = CaptureSpec::full();
    let sssp = Sssp::new(VertexId(0));
    let session = Ariadne::with_threads(3);
    let base = erdos_renyi(24, 70, 5);
    let mut store = session.capture(&sssp, &base, &spec).unwrap().store;
    let mut s = MutableSession::new(session, base);
    for (i, kind) in KINDS.into_iter().enumerate() {
        s.mutate(random_batch(s.csr(), kind, 100 + i as u64));
        s.commit();
        let (_, stats) = s.capture_epoch(&sssp, &spec, &mut store).unwrap();
        assert_eq!(stats.epoch as usize, i + 1);
        let cold = Ariadne::with_threads(3)
            .capture(&sssp, s.csr(), &spec)
            .unwrap()
            .store;
        assert_eq!(all_layers(&store), all_layers(&cold), "epoch {}", i + 1);
    }
    assert_eq!(store.mutation_epoch(), 3);
}

// Silence the unused-variant lint if a kind list shrinks in a refactor.
const _: () = {
    assert!(KINDS.len() == 3 && THREADS.len() == 4);
};
