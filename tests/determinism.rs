//! Cross-thread-count determinism of the engine and of layered replay.
//!
//! The engine's contract is that an N-thread run is **bit-identical** to
//! the sequential reference — values, aggregates, superstep counts and
//! the logical per-superstep message traffic (`messages_sent`,
//! `message_bytes`). This holds in baseline mode (combiners honoured;
//! exact combiners fold at the sender) and in capture mode
//! (no combiner, full per-source envelopes), at thread counts
//! that do and do not divide the vertex count.
//!
//! Note what is *not* asserted: `buffered_messages`/`buffered_bytes`
//! measure what the outboxes physically materialized, which legitimately
//! depends on the chunk layout under sender-side combining.

use ariadne_analytics::als::{Als, AlsConfig};
use ariadne_analytics::reference::{dijkstra, pagerank_power_iteration};
use ariadne_analytics::{PageRank, Sssp, Wcc};
use ariadne_graph::generators::{rmat, BipartiteRatings, RatingsConfig, RmatConfig};
use ariadne_graph::{Csr, VertexId};
use ariadne_vc::{
    AggOp, Aggregates, Context, Engine, EngineConfig, Envelope, RunResult, VertexProgram,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// 2 divides n = 256; 3 and 7 do not, so chunk boundaries land unevenly.
const THREADS: [usize; 3] = [2, 3, 7];

fn graph() -> Csr {
    rmat(RmatConfig {
        scale: 8,
        edge_factor: 6,
        seed: 77,
        ..Default::default()
    })
}

/// `P` with its combiner withheld — what a capture run's wrapper does —
/// and every other knob passed through.
struct NoCombiner<'a, P>(&'a P);

impl<P: VertexProgram> VertexProgram for NoCombiner<'_, P> {
    type V = P::V;
    type M = P::M;
    fn init(&self, v: VertexId, graph: &Csr) -> P::V {
        self.0.init(v, graph)
    }
    fn compute(&self, ctx: &mut dyn Context<P::M>, value: &mut P::V, msgs: &[Envelope<P::M>]) {
        self.0.compute(ctx, value, msgs)
    }
    fn aggregators(&self) -> Vec<(String, AggOp)> {
        self.0.aggregators()
    }
    fn always_active(&self) -> bool {
        self.0.always_active()
    }
    fn max_supersteps(&self) -> u32 {
        self.0.max_supersteps()
    }
    fn should_halt(&self, superstep: u32, aggregates: &Aggregates) -> bool {
        self.0.should_halt(superstep, aggregates)
    }
    fn message_bytes(&self, msg: &P::M) -> usize {
        self.0.message_bytes(msg)
    }
}

fn run<P: VertexProgram>(
    program: &P,
    graph: &Csr,
    threads: usize,
    use_combiner: bool,
) -> RunResult<P::V> {
    let engine = Engine::new(EngineConfig::parallel(threads));
    if use_combiner {
        engine.run(program, graph)
    } else {
        engine.run(&NoCombiner(program), graph)
    }
}

/// Assert that a parallel run equals the sequential reference on values,
/// aggregates and per-superstep logical message traffic.
fn assert_matches_sequential<P: VertexProgram>(name: &str, program: &P, graph: &Csr)
where
    P::V: PartialEq + std::fmt::Debug,
{
    for use_combiner in [true, false] {
        let mode = if use_combiner { "baseline" } else { "capture" };
        let seq = run(program, graph, 1, use_combiner);
        for t in THREADS {
            let par = run(program, graph, t, use_combiner);
            assert_eq!(
                seq.values, par.values,
                "{name} [{mode}]: values differ at {t} threads"
            );
            assert_eq!(
                seq.aggregates, par.aggregates,
                "{name} [{mode}]: aggregates differ at {t} threads"
            );
            assert_eq!(
                seq.metrics.num_supersteps(),
                par.metrics.num_supersteps(),
                "{name} [{mode}]: superstep count differs at {t} threads"
            );
            for (a, b) in seq.metrics.supersteps.iter().zip(&par.metrics.supersteps) {
                assert_eq!(
                    (
                        a.superstep,
                        a.active_vertices,
                        a.messages_sent,
                        a.messages_delivered,
                        a.message_bytes
                    ),
                    (
                        b.superstep,
                        b.active_vertices,
                        b.messages_sent,
                        b.messages_delivered,
                        b.message_bytes
                    ),
                    "{name} [{mode}]: superstep {} metrics differ at {t} threads",
                    a.superstep
                );
            }
        }
    }
}

#[test]
fn pagerank_deterministic_across_threads() {
    let g = graph();
    let pr = PageRank {
        supersteps: 12,
        ..Default::default()
    };
    assert_matches_sequential("pagerank", &pr, &g);
    // f64 `==` admits -0.0 == 0.0; pin the actual bit patterns too.
    let seq = run(&pr, &g, 1, true);
    for t in THREADS {
        let par = run(&pr, &g, t, true);
        let a: Vec<u64> = seq.values.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = par.values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b, "pagerank rank bits differ at {t} threads");
    }
}

#[test]
fn sssp_deterministic_across_threads() {
    let mut rng = StdRng::seed_from_u64(41);
    let g = graph().map_weights(|_, _, _| 0.05 + rng.gen::<f64>());
    assert_matches_sequential("sssp", &Sssp::new(VertexId(0)), &g);
}

#[test]
fn wcc_deterministic_across_threads() {
    let g = graph();
    assert_matches_sequential("wcc", &Wcc, &g);
}

/// Message conservation: every message routed into an outbox is observed
/// in a destination inbox — `messages_sent == messages_delivered` per
/// superstep, with and without combiners, at every thread count. Both
/// counters are computed at *independent* sites (routing side vs. inbox
/// occupancy), so this is a real cross-check of the delivery pipeline,
/// not a restatement. The values it delivered are checked against the
/// sequential oracles, which never touch the engine.
#[test]
fn messages_sent_equal_messages_delivered() {
    let g = graph();
    let pr = PageRank {
        supersteps: 8,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(41);
    let weighted = graph().map_weights(|_, _, _| 0.05 + rng.gen::<f64>());
    let sssp = Sssp::new(VertexId(0));
    let oracles = [
        ("pagerank", pagerank_power_iteration(&g, pr.damping, 8)),
        ("sssp", dijkstra(&weighted, VertexId(0))),
    ];

    for use_combiner in [true, false] {
        for t in [1, 2, 7] {
            let runs = [
                run(&pr, &g, t, use_combiner),
                run(&sssp, &weighted, t, use_combiner),
            ];
            for ((name, oracle), r) in oracles.iter().zip(&runs) {
                for s in &r.metrics.supersteps {
                    assert_eq!(
                        s.messages_sent, s.messages_delivered,
                        "{name} [combiner={use_combiner} t={t}]: \
                         superstep {} lost or duplicated messages",
                        s.superstep
                    );
                }
                for (v, (a, b)) in r.values.iter().zip(oracle).enumerate() {
                    assert!(
                        (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-9,
                        "{name} [combiner={use_combiner} t={t}]: vertex {v} is {a}, oracle {b}"
                    );
                }
            }
        }
    }
}

/// Buffered-byte accounting versus logical traffic. With no combiner the
/// outboxes materialize exactly the logical traffic
/// (`buffered_bytes == message_bytes` per superstep). With a combiner,
/// delivery-side folding makes the stored traffic a strict lower bound
/// (`message_bytes < buffered_bytes`), and sender-side combining — which
/// engages only for *exact* combiners like SSSP's min — additionally
/// shrinks what the outboxes ever materialize: SSSP sends the same
/// messages with and without its combiner, so the combined run's
/// `buffered_bytes` must come in strictly below the uncombined run's.
#[test]
fn buffered_bytes_track_combiner_activity() {
    let mut rng = StdRng::seed_from_u64(41);
    let weighted = graph().map_weights(|_, _, _| 0.05 + rng.gen::<f64>());
    let sssp = Sssp::new(VertexId(0));

    // No combiner: buffered == logical, exactly, per superstep.
    let raw = run(&sssp, &weighted, 2, false).metrics;
    for s in &raw.supersteps {
        assert_eq!(
            s.buffered_bytes, s.message_bytes,
            "[capture]: superstep {} buffered more than it sent",
            s.superstep
        );
        assert_eq!(s.buffered_messages, s.messages_sent);
    }

    // Exact combiner active: folding strictly compresses the traffic.
    let combined = run(&sssp, &weighted, 2, true).metrics;
    assert!(
        combined.total_message_bytes() < combined.total_buffered_bytes(),
        "combined stored bytes should be strictly below buffered bytes"
    );
    assert!(
        combined.total_buffered_bytes() < raw.total_buffered_bytes(),
        "sender-side exact combining should shrink outbox materialization \
         (combined {} vs uncombined {})",
        combined.total_buffered_bytes(),
        raw.total_buffered_bytes()
    );
    // Logical traffic agrees with the t=1 run.
    let seq = run(&sssp, &weighted, 1, true).metrics;
    assert_eq!(combined.total_message_bytes(), seq.total_message_bytes());
    assert_eq!(combined.total_messages(), seq.total_messages());
}

/// Run-local deterministic observability counters are bit-identical
/// across thread counts: the per-superstep logical counters recorded by
/// the engine and the query-evaluation counters ([`EvalStats`])
/// accumulated by the online wrapper must not depend on worker count or
/// interleaving. (Global-registry totals are process-wide and shared
/// across concurrently running tests, so determinism is asserted on the
/// run-local surfaces the registry is fed from.)
#[test]
fn online_query_stats_deterministic_across_threads() {
    use ariadne::session::Ariadne;
    use ariadne_pql::Params;

    let mut rng = StdRng::seed_from_u64(41);
    let weighted = graph().map_weights(|_, _, _| 0.05 + rng.gen::<f64>());
    let sssp = Sssp::new(VertexId(0));
    let query = ariadne::compile(
        "seen(x, v, i) :- value(x, v, i), superstep(x, i).",
        Params::new(),
    )
    .expect("monitoring query compiles");

    let seq = Ariadne::with_threads(1)
        .online(&sssp, &weighted, &query)
        .expect("sequential online run");
    assert!(
        seq.query_stats.rule_firings > 0,
        "online run should record rule firings"
    );
    assert!(seq.query_stats.derived_tuples > 0);
    for t in THREADS {
        let par = Ariadne::with_threads(t)
            .online(&sssp, &weighted, &query)
            .expect("parallel online run");
        assert_eq!(
            seq.query_stats, par.query_stats,
            "EvalStats differ at {t} threads"
        );
        assert_eq!(
            seq.metrics.total_messages_delivered(),
            par.metrics.total_messages_delivered(),
            "delivered totals differ at {t} threads"
        );
    }
}

/// Layered replay is bit-identical across thread counts on *every*
/// surface of the run: merged result tables, round structure, work
/// counters, store-read accounting and the chunk-order-merged
/// [`ariadne_pql::EvalStats`]. Thread counts that do not divide the
/// touched-set sizes are included, so chunk boundaries land unevenly.
#[test]
fn layered_deterministic_across_threads() {
    use ariadne::session::Ariadne;
    use ariadne::{queries, run_layered_with, CaptureSpec, CompiledQuery, LayeredConfig};
    use ariadne_pql::Value;
    use ariadne_provenance::ProvStore;

    fn assert_layered_thread_invariant(tag: &str, g: &Csr, store: &ProvStore, q: &CompiledQuery) {
        let seq = run_layered_with(g, store, q, &LayeredConfig::parallel(1)).unwrap();
        for t in THREADS {
            let par = run_layered_with(g, store, q, &LayeredConfig::parallel(t)).unwrap();
            for pred in q.query().idbs.keys() {
                assert_eq!(
                    seq.query_results.sorted(pred),
                    par.query_results.sorted(pred),
                    "{tag}: {pred} differs at {t} threads"
                );
            }
            assert_eq!(
                (seq.layers, seq.flush_rounds),
                (par.layers, par.flush_rounds),
                "{tag}: round structure differs at {t} threads"
            );
            assert_eq!(
                (seq.shipped_tuples, seq.injected_tuples, seq.evaluated_vertices),
                (par.shipped_tuples, par.injected_tuples, par.evaluated_vertices),
                "{tag}: work counters differ at {t} threads"
            );
            assert_eq!(
                (seq.segments_read, seq.segments_skipped, seq.bytes_read, seq.bytes_skipped),
                (par.segments_read, par.segments_skipped, par.bytes_read, par.bytes_skipped),
                "{tag}: store-read accounting differs at {t} threads"
            );
            assert_eq!(
                seq.query_stats, par.query_stats,
                "{tag}: EvalStats differ at {t} threads"
            );
        }
    }

    let mut rng = StdRng::seed_from_u64(41);
    let g = graph().map_weights(|_, _, _| 0.05 + rng.gen::<f64>());
    let ariadne = Ariadne::default();
    let capture = ariadne
        .capture(&Sssp::new(VertexId(0)), &g, &CaptureSpec::full())
        .unwrap();

    // Forward: the apt query ships `change` replicas every layer.
    let apt = queries::apt("udf_diff", Value::Float(0.1)).unwrap();
    assert_layered_thread_invariant("sssp/apt", &g, &capture.store, &apt);

    // Backward: descending replay with layer-0 pre-injection.
    let sigma = capture.store.max_superstep().unwrap();
    let target = capture
        .store
        .layer(sigma)
        .unwrap()
        .into_iter()
        .find(|(p, _)| p == "superstep")
        .and_then(|(_, ts)| ts.first().and_then(|t| t[0].as_id()))
        .expect("someone was active in the last superstep");
    let back = queries::backward_lineage(VertexId(target), sigma).unwrap();
    assert_layered_thread_invariant("sssp/backward", &g, &capture.store, &back);
}

/// The same SSSP capture replays identically however the store holds
/// it: in memory or spilled (the spool compacted into a generation
/// file), at every thread count — result tables, round structure, work
/// counters and [`ariadne_pql::EvalStats`]. Only the bytes read may
/// differ. (The v1 and v2 record formats are decode-only; their spools
/// are read by the store's fixture tests.)
#[test]
fn layered_replay_is_format_and_backend_invariant() {
    use ariadne::session::Ariadne;
    use ariadne::{queries, run_layered_with, CaptureSpec, LayeredConfig, LayeredRun, StoreConfig};
    let mut rng = StdRng::seed_from_u64(41);
    let g = graph().map_weights(|_, _, _| 0.05 + rng.gen::<f64>());
    let alpha = g.max_out_degree_vertex().unwrap();
    let root =
        std::env::temp_dir().join(format!("ariadne-format-invariance-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let mut reference: Option<LayeredRun> = None;
    for spilled in [false, true] {
        let config = if spilled {
            StoreConfig::spilling(0, root.clone())
        } else {
            StoreConfig::in_memory()
        };
        let session = Ariadne {
            store: config,
            ..Ariadne::default()
        };
        let mut store = session
            .capture(&Sssp::new(VertexId(0)), &g, &CaptureSpec::full())
            .unwrap()
            .store;
        if spilled {
            assert!(store.compact().unwrap().tuples > 0);
        }
        let query = queries::backward_lineage(alpha, store.max_superstep().unwrap()).unwrap();
        for t in [1, 2, 3, 7] {
            let tag = format!("spilled={spilled} t={t}");
            let run = run_layered_with(&g, &store, &query, &LayeredConfig::parallel(t)).unwrap();
            let Some(r) = &reference else {
                reference = Some(run);
                continue;
            };
            for pred in query.query().idbs.keys() {
                assert_eq!(
                    run.query_results.sorted(pred),
                    r.query_results.sorted(pred),
                    "{tag}: {pred} differs"
                );
            }
            assert_eq!(
                (run.layers, run.flush_rounds, run.shipped_tuples),
                (r.layers, r.flush_rounds, r.shipped_tuples),
                "{tag}: round structure differs"
            );
            assert_eq!(
                (
                    run.injected_tuples,
                    run.evaluated_vertices,
                    &run.query_stats
                ),
                (r.injected_tuples, r.evaluated_vertices, &r.query_stats),
                "{tag}: work counters differ"
            );
        }
    }
    assert!(reference.unwrap().query_results.len("back_lineage") > 0);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn als_deterministic_across_threads() {
    let br = BipartiteRatings::generate(&RatingsConfig {
        users: 80,
        items: 20,
        ratings_per_user: 10,
        planted_rank: 3,
        noise: 0.2,
        seed: 33,
    });
    let mut cfg = AlsConfig::new(br.users, 4);
    cfg.supersteps = 7;
    let als = Als::new(cfg);
    assert_matches_sequential("als", &als, &br.graph);
    // Factor vectors are f64; pin bit patterns across thread counts.
    let seq = run(&als, &br.graph, 1, true);
    for t in THREADS {
        let par = run(&als, &br.graph, t, true);
        let a: Vec<Vec<u64>> = seq
            .values
            .iter()
            .map(|f| f.iter().map(|x| x.to_bits()).collect())
            .collect();
        let b: Vec<Vec<u64>> = par
            .values
            .iter()
            .map(|f| f.iter().map(|x| x.to_bits()).collect())
            .collect();
        assert_eq!(a, b, "als factor bits differ at {t} threads");
    }
}
