//! Alternating Least Squares on a bipartite ratings graph.
//!
//! The paper (§6, ML-20 workload): "the user-movie ratings are represented
//! as a bipartite graph ... At every iteration, only one side of the
//! bipartite graph computes, either the users or the movies since the
//! algorithm optimizes the error function by fixing one set of variables
//! and solving for the other."
//!
//! The vertex-centric formulation realizes that alternation through
//! message-driven activation: at superstep 0 item vertices broadcast their
//! (seeded) feature vectors; users receive them at superstep 1, solve
//! their regularized normal equations, and broadcast back; items solve at
//! superstep 2; and so on. No side ever computes out of turn because it
//! simply has no messages.

use crate::linalg::{axpy, dot, SquareMat};
use ariadne_graph::{Csr, VertexId};
use ariadne_vc::{AggOp, AggValue, Aggregates, Context, Envelope, VertexProgram};

/// Name of the aggregator accumulating the sum of squared prediction
/// errors per superstep.
pub const SSE_AGG: &str = "als.sse";
/// Name of the aggregator counting rated edges contributing to [`SSE_AGG`].
pub const COUNT_AGG: &str = "als.count";

/// ALS configuration.
#[derive(Clone, Debug)]
pub struct AlsConfig {
    /// Vertices `0..users` are users; the rest are items.
    pub users: usize,
    /// Number of latent features (the paper sweeps 5, 10, 15).
    pub rank: usize,
    /// Tikhonov regularization weight.
    pub lambda: f64,
    /// Superstep cap; each pair of supersteps is one ALS iteration.
    pub supersteps: u32,
    /// Seed for the deterministic initial feature vectors.
    pub seed: u64,
    /// Optional RMSE threshold for early convergence.
    pub rmse_target: Option<f64>,
}

impl AlsConfig {
    /// A reasonable default for a ratings graph with `users` user
    /// vertices and `rank` features.
    pub fn new(users: usize, rank: usize) -> Self {
        AlsConfig {
            users,
            rank,
            lambda: 0.1,
            supersteps: 11,
            seed: 0x5EED,
            rmse_target: None,
        }
    }
}

/// The ALS vertex program.
#[derive(Clone, Debug)]
pub struct Als {
    /// Configuration.
    pub config: AlsConfig,
}

impl Als {
    /// Create the program from a configuration.
    pub fn new(config: AlsConfig) -> Self {
        Als { config }
    }

    /// Whether `v` is a user vertex.
    pub fn is_user(&self, v: VertexId) -> bool {
        v.index() < self.config.users
    }

    /// Predicted rating from two feature vectors.
    pub fn predict(user_features: &[f64], item_features: &[f64]) -> f64 {
        dot(user_features, item_features)
    }

    /// Deterministic pseudo-random initial features in `[0, 1)` derived
    /// from the seed and vertex id (splitmix64).
    fn seeded_features(&self, v: VertexId) -> Vec<f64> {
        let mut state = self.config.seed ^ v.0.wrapping_mul(0x9E3779B97F4A7C15);
        (0..self.config.rank)
            .map(|_| {
                state = state.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^= z >> 31;
                (z >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }
}

impl VertexProgram for Als {
    type V = Vec<f64>;
    type M = Vec<f64>;

    fn init(&self, v: VertexId, _g: &Csr) -> Vec<f64> {
        self.seeded_features(v)
    }

    fn compute(
        &self,
        ctx: &mut dyn Context<Vec<f64>>,
        value: &mut Vec<f64>,
        messages: &[Envelope<Vec<f64>>],
    ) {
        let rank = self.config.rank;
        if ctx.superstep() == 0 {
            // Items kick off the alternation.
            if !self.is_user(ctx.vertex()) {
                ctx.send_to_out_neighbors(value.clone());
            }
            return;
        }

        // Solve (sum f f^T + lambda * k * I) x = sum r * f over incoming
        // neighbour features f with ratings r (the edge weights).
        let me = ctx.vertex();
        let mut a =
            SquareMat::scaled_identity(rank, self.config.lambda * messages.len().max(1) as f64);
        let mut b = vec![0.0; rank];
        for e in messages {
            debug_assert!(!e.is_combined(), "ALS requires per-source messages");
            let rating = ctx
                .graph()
                .edge_weight(me, e.src)
                .expect("ALS message from a non-neighbour");
            a.add_outer(&e.msg);
            axpy(&mut b, rating, &e.msg);
        }
        if let Some(x) = a.cholesky_solve(&b) {
            *value = x;
        }

        // Track global squared prediction error over this side's edges.
        let mut sse = 0.0;
        let mut count = 0i64;
        for e in messages {
            let rating = ctx.graph().edge_weight(me, e.src).unwrap_or(0.0);
            let pred = Self::predict(value, &e.msg);
            sse += (pred - rating) * (pred - rating);
            count += 1;
        }
        ctx.aggregate(SSE_AGG, AggValue::F64(sse));
        ctx.aggregate(COUNT_AGG, AggValue::I64(count));

        if ctx.superstep() + 1 < self.config.supersteps {
            ctx.send_to_out_neighbors(value.clone());
        }
    }

    fn aggregators(&self) -> Vec<(String, AggOp)> {
        vec![
            (SSE_AGG.to_string(), AggOp::Sum),
            (COUNT_AGG.to_string(), AggOp::Sum),
        ]
    }

    fn max_supersteps(&self) -> u32 {
        self.config.supersteps
    }

    fn should_halt(&self, superstep: u32, aggregates: &Aggregates) -> bool {
        match self.config.rmse_target {
            Some(target) if superstep > 0 => {
                let sse = aggregates
                    .current(SSE_AGG)
                    .map(|v| v.as_f64())
                    .unwrap_or(f64::MAX);
                let count = aggregates
                    .current(COUNT_AGG)
                    .map(|v| v.as_i64())
                    .unwrap_or(0);
                count > 0 && (sse / count as f64).sqrt() < target
            }
            _ => false,
        }
    }

    fn message_bytes(&self, msg: &Vec<f64>) -> usize {
        msg.len() * std::mem::size_of::<f64>()
    }
}

/// Root-mean-square prediction error of a trained model over all rated
/// edges of the bipartite graph.
pub fn rmse(graph: &Csr, features: &[Vec<f64>], users: usize) -> f64 {
    let mut sse = 0.0;
    let mut count = 0usize;
    for (s, d, rating) in graph.edges() {
        if s.index() < users && d.index() >= users {
            let pred = Als::predict(&features[s.index()], &features[d.index()]);
            sse += (pred - rating) * (pred - rating);
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        (sse / count as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariadne_graph::generators::{BipartiteRatings, RatingsConfig};
    use ariadne_vc::{Engine, EngineConfig};

    fn small_ratings() -> BipartiteRatings {
        BipartiteRatings::generate(&RatingsConfig {
            users: 60,
            items: 15,
            ratings_per_user: 8,
            planted_rank: 3,
            noise: 0.1,
            seed: 42,
        })
    }

    #[test]
    fn rmse_decreases_with_training() {
        let br = small_ratings();
        let als = Als::new(AlsConfig::new(br.users, 4));
        let init: Vec<Vec<f64>> = (0..br.graph.num_vertices())
            .map(|i| als.init(VertexId(i as u64), &br.graph))
            .collect();
        let before = rmse(&br.graph, &init, br.users);
        let r = Engine::new(EngineConfig::sequential()).run(&als, &br.graph);
        let after = rmse(&br.graph, &r.values, br.users);
        assert!(
            after < before * 0.7,
            "rmse did not improve: {before} -> {after}"
        );
        assert!(after < 1.0, "absolute rmse too high: {after}");
    }

    #[test]
    fn alternation_matches_sides() {
        // After superstep 0 only items have sent; users solve at odd
        // supersteps, items at even ones. We verify via activation counts.
        let br = small_ratings();
        let als = Als::new(AlsConfig::new(br.users, 3));
        let r = Engine::new(EngineConfig::sequential()).run(&als, &br.graph);
        let m = &r.metrics.supersteps;
        // Superstep 1 activates (at most) the users, superstep 2 the items.
        assert!(m[1].active_vertices <= br.users);
        assert!(m[2].active_vertices <= br.items);
    }

    #[test]
    fn rmse_target_halts_early() {
        let br = small_ratings();
        let mut cfg = AlsConfig::new(br.users, 4);
        cfg.supersteps = 50;
        cfg.rmse_target = Some(0.8);
        let r = Engine::new(EngineConfig::sequential()).run(&Als::new(cfg), &br.graph);
        assert!(r.supersteps() < 50, "ran {}", r.supersteps());
    }

    #[test]
    fn deterministic_init() {
        let als = Als::new(AlsConfig::new(10, 5));
        let g = Csr::empty(1);
        let a = als.init(VertexId(3), &g);
        let b = als.init(VertexId(3), &g);
        assert_eq!(a, b);
        let c = als.init(VertexId(4), &g);
        assert_ne!(a, c);
        assert!(a.iter().all(|&x| (0.0..1.0).contains(&x)));
    }

    #[test]
    fn parallel_matches_sequential() {
        let br = small_ratings();
        let als = Als::new(AlsConfig::new(br.users, 3));
        let seq = Engine::new(EngineConfig::sequential()).run(&als, &br.graph);
        let par = Engine::new(EngineConfig::parallel(3)).run(&als, &br.graph);
        for (a, b) in seq.values.iter().zip(&par.values) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-9);
            }
        }
    }
}
