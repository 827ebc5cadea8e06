//! Seeded inputs shared by the workloads. Everything a run feeds the
//! program derives from `--seed`: the R-MAT graph, its edge weights, the
//! request schedule and the mutation batches.

use ariadne_graph::generators::rmat::{rmat, RmatConfig};
use ariadne_graph::{Csr, GraphDelta, VertexId};
use ariadne_pql::{Database, Tuple, Value};
use std::path::PathBuf;

/// Edges per vertex of every generated graph.
pub const EDGE_FACTOR: usize = 16;

/// SplitMix64: the benchmark's own generator, so the schedule does not
/// change when a crate of the repository changes its RNG.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// An independent stream for `purpose` under one `--seed`.
pub fn derive(seed: u64, purpose: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for b in purpose.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    Rng(h).next_u64()
}

/// The seeded R-MAT graph at `scale`, unweighted and with seeded weights
/// in `[0.001, 1.001)` (SSSP needs positive weights).
pub fn graphs(seed: u64, scale: u32) -> (Csr, Csr) {
    let plain = rmat(RmatConfig {
        scale,
        edge_factor: EDGE_FACTOR,
        seed: derive(seed, "graph"),
        ..RmatConfig::default()
    });
    let mut rng = Rng::new(derive(seed, "weights"));
    let weighted = plain.map_weights(|_, _, _| 0.001 + rng.unit());
    (plain, weighted)
}

/// The SSSP source: the highest-out-degree vertex, so the run reaches
/// most of the graph whatever the seed.
pub fn hub(graph: &Csr) -> VertexId {
    graph.max_out_degree_vertex().unwrap_or(VertexId(0))
}

pub const BATCH_KINDS: [&str; 3] = ["insert", "delete", "mixed"];

/// A mutation batch of `kind` sized to the graph: about 1 % of its edges
/// inserted (`insert`), as many removed (`delete`), or that many inserted
/// and half as many removed (`mixed`).
pub fn mutation_batch(csr: &Csr, kind: &str, rng: &mut Rng) -> GraphDelta {
    let n = csr.num_vertices() as u64;
    let adds = (csr.num_edges() / 100).clamp(8, 256);
    let mut delta = GraphDelta::new();
    if kind != "delete" {
        for _ in 0..adds {
            delta.add_edge(
                VertexId(rng.below(n)),
                VertexId(rng.below(n)),
                0.001 + rng.unit(),
            );
        }
    }
    if kind != "insert" {
        let existing: Vec<(VertexId, VertexId, f64)> = csr.edges().collect();
        let removals = if kind == "delete" { adds } else { adds / 2 };
        for _ in 0..removals {
            let (s, d, _) = existing[rng.below(existing.len() as u64) as usize];
            delta.remove_edge(s, d);
        }
    }
    delta
}

// ---------------------------------------------------------------------
// Order-independent content fingerprints (oracle comparisons)
// ---------------------------------------------------------------------

fn mix(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(23)
}

fn value_hash(h: u64, v: &Value) -> u64 {
    match v {
        Value::Id(x) => mix(mix(h, 1), *x),
        Value::Int(x) => mix(mix(h, 2), *x as u64),
        Value::Float(x) => mix(mix(h, 3), x.to_bits()),
        Value::Bool(x) => mix(mix(h, 4), u64::from(*x)),
        Value::Str(s) => s.bytes().fold(mix(h, 5), |h, b| mix(h, u64::from(b))),
        Value::List(items) => items.iter().fold(mix(h, 6), value_hash),
        Value::Unit => mix(h, 7),
    }
}

fn tuple_hash(t: &Tuple) -> u64 {
    t.iter().fold(0xcbf2_9ce4_8422_2325, value_hash)
}

/// `(count, sum of tuple hashes)` of a set of tuples: equal for equal
/// sets whatever their order, without sorting or cloning them.
pub fn tuples_fingerprint<'a>(tuples: impl IntoIterator<Item = &'a Tuple>) -> (usize, u64) {
    tuples.into_iter().fold((0, 0u64), |(n, sum), t| {
        (n + 1, sum.wrapping_add(tuple_hash(t)))
    })
}

/// Per-predicate fingerprints of a whole database, in predicate order.
pub fn database_fingerprint(db: &Database) -> Vec<(String, (usize, u64))> {
    db.iter()
        .filter(|(_, rel)| !rel.is_empty())
        .map(|(name, rel)| (name.to_string(), tuples_fingerprint(rel.scan())))
        .collect()
}

// ---------------------------------------------------------------------
// Scratch space inside the checkout
// ---------------------------------------------------------------------

/// Where the benchmark writes: `target/benchmark` under the directory it
/// was started in (the checkout), never outside it.
pub fn output_dir() -> PathBuf {
    PathBuf::from("target").join("benchmark")
}

/// A per-process scratch directory for spools, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(workload: &str) -> std::io::Result<Scratch> {
        let dir = output_dir().join(format!("tmp-{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    /// A fresh, not yet created, sub-directory path.
    pub fn sub(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Bytes of every regular file directly inside `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_seeded_and_independent() {
        assert_eq!(derive(1, "graph"), derive(1, "graph"));
        assert_ne!(derive(1, "graph"), derive(2, "graph"));
        assert_ne!(derive(1, "graph"), derive(1, "weights"));
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            let x = a.below(10);
            assert_eq!(x, b.below(10));
            assert!(x < 10);
        }
        let u = a.unit();
        assert!((0.0..1.0).contains(&u));
    }

    #[test]
    fn fingerprints_ignore_order_but_not_content() {
        let t1: Tuple = vec![Value::Id(1), Value::Float(0.5)];
        let t2: Tuple = vec![Value::Id(2), Value::Int(3)];
        let t3: Tuple = vec![Value::Id(2), Value::Int(4)];
        assert_eq!(
            tuples_fingerprint([&t1, &t2]),
            tuples_fingerprint([&t2, &t1])
        );
        assert_ne!(
            tuples_fingerprint([&t1, &t2]),
            tuples_fingerprint([&t1, &t3])
        );
        assert_ne!(tuples_fingerprint([&t1]), tuples_fingerprint([&t1, &t1]));
        // Id 1 and Int 1 are different values.
        assert_ne!(
            tuples_fingerprint([&vec![Value::Id(1)]]),
            tuples_fingerprint([&vec![Value::Int(1)]])
        );
    }
}
