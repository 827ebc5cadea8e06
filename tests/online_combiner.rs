//! The online wrapper keeps the analytic's combiner exactly when the run
//! is blind to senders (`ariadne::online`'s module docs).
//!
//! Queries 5 and 6 read `receive_message` for its existence only, so on
//! SSSP and WCC they run with the min-combiner on: analytic values
//! bit-identical to the bare run, results equal to centralized evaluation
//! over a full capture, and as many messages delivered as the bare run
//! delivers, at every thread count. apt and Query 4 read the sender, and a
//! full capture (Query 2, the store Query 10's backward trace reads)
//! stores it: each of those delivers every message uncombined.

use ariadne::session::Ariadne;
use ariadne::{queries, CaptureSpec, CompiledQuery};
use ariadne_analytics::{PageRank, Sssp, Wcc};
use ariadne_graph::generators::regular::{grid, path};
use ariadne_graph::generators::{rmat, RmatConfig};
use ariadne_graph::{Csr, VertexId};
use ariadne_pql::Value;
use ariadne_provenance::ProvEncode;
use ariadne_vc::{
    AggOp, Aggregates, Context, Engine, EngineConfig, Envelope, RunMetrics, VertexProgram,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREADS: [usize; 4] = [1, 2, 3, 7];

fn rmat7() -> Csr {
    rmat(RmatConfig {
        scale: 7,
        edge_factor: 4,
        seed: 77,
        ..Default::default()
    })
}

/// A path, a grid and a scale-7 R-MAT, with random positive weights.
fn graphs() -> Vec<(&'static str, Csr)> {
    let mut rng = StdRng::seed_from_u64(5);
    [("path", path(24)), ("grid", grid(6, 6)), ("rmat7", rmat7())]
        .into_iter()
        .map(|(name, g)| (name, g.map_weights(|_, _, _| 0.05 + rng.gen::<f64>())))
        .collect()
}

fn delivered(metrics: &RunMetrics) -> usize {
    metrics.total_messages_delivered()
}

/// `query` online with `analytic` keeps the combiner: the run is the bare
/// run, and its results are the offline ones.
fn assert_blind_run<A>(tag: &str, analytic: &A, graph: &Csr, query: &CompiledQuery)
where
    A: VertexProgram,
    A::V: ProvEncode,
    A::M: ProvEncode,
{
    let capture = Ariadne::with_threads(1)
        .capture(analytic, graph, &CaptureSpec::full())
        .unwrap();
    let central = Ariadne::default()
        .centralized(graph, &capture.store, query)
        .unwrap();
    for t in THREADS {
        let session = Ariadne::with_threads(t);
        let bare = session.baseline(analytic, graph);
        let online = session.online(analytic, graph, query).unwrap();
        // `Value` compares floats by bit pattern.
        let bits = |values: &[A::V]| values.iter().map(ProvEncode::encode).collect::<Vec<_>>();
        assert_eq!(
            bits(&online.values),
            bits(&bare.values),
            "{tag} T={t}: values"
        );
        for pred in query.query().idbs.keys() {
            assert_eq!(
                online.query_results.sorted(pred),
                central.sorted(pred),
                "{tag} T={t}: {pred} differs from centralized"
            );
        }
        assert_eq!(
            delivered(&online.metrics),
            delivered(&bare.metrics),
            "{tag} T={t}: the combiner was off"
        );
    }
}

#[test]
fn queries_5_and_6_keep_the_min_combiner() {
    let q5 = queries::sssp_wcc_value_check().unwrap();
    let q6 = queries::sssp_wcc_no_message_no_change().unwrap();
    let sssp = Sssp::new(VertexId(0));
    for (name, g) in graphs() {
        for (q, query) in [("Q5", &q5), ("Q6", &q6)] {
            assert_blind_run(&format!("SSSP {q} {name}"), &sssp, &g, query);
            assert_blind_run(&format!("WCC {q} {name}"), &Wcc, &g, query);
        }
    }
}

/// `P` with its combiner withheld and every other knob passed through:
/// it delivers every message.
struct Uncombined<'a, P>(&'a P);

impl<P: VertexProgram> VertexProgram for Uncombined<'_, P> {
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

/// Messages a run of `analytic` delivers with its combiner off, after
/// checking that its combiner does fold some on `graph`.
fn every_message<P: VertexProgram>(analytic: &P, graph: &Csr) -> usize {
    let engine = Engine::new(EngineConfig::sequential());
    let every = delivered(&engine.run(&Uncombined(analytic), graph).metrics);
    let combined = delivered(&engine.run(analytic, graph).metrics);
    assert!(
        every > combined,
        "the graph gives the combiner nothing to fold"
    );
    every
}

#[test]
fn sender_reading_runs_deliver_every_message() {
    let mut rng = StdRng::seed_from_u64(6);
    let g = rmat7().map_weights(|_, _, _| 0.05 + rng.gen::<f64>());
    let sssp = Sssp::new(VertexId(0));
    let pagerank = PageRank {
        supersteps: 6,
        ..Default::default()
    };
    let (every_sssp, every_pagerank) = (every_message(&sssp, &g), every_message(&pagerank, &g));
    let apt = queries::apt("udf_diff", Value::Float(0.1)).unwrap();
    let check = queries::pagerank_check().unwrap();
    for t in THREADS {
        let session = Ariadne::with_threads(t);
        let runs = [
            (
                "apt",
                delivered(&session.online(&sssp, &g, &apt).unwrap().metrics),
                every_sssp,
            ),
            (
                "pagerank_check",
                delivered(&session.online(&pagerank, &g, &check).unwrap().metrics),
                every_pagerank,
            ),
            (
                "full capture",
                delivered(
                    &session
                        .capture(&sssp, &g, &CaptureSpec::full())
                        .unwrap()
                        .metrics,
                ),
                every_sssp,
            ),
        ];
        for (what, got, every) in runs {
            assert_eq!(got, every, "{what} T={t}: the combiner was on");
        }
    }
}
