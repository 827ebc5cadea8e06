//! The seven workloads. Each module's header says why the workload
//! exists, its sizes and which layers it loads. What more than one of
//! them needs is here.

pub mod capture;
pub mod engine;
pub mod mutate;
pub mod online;
pub mod replay;
pub mod serve;

use crate::fixture;
use crate::run::Acc;
use crate::trace::{alloc_snapshot, Tracer};
use ariadne::session::Ariadne;
use ariadne_analytics::PageRank;
use ariadne_graph::{Csr, GraphBuilder};
use ariadne_provenance::ProvStore;
use ariadne_vc::{RunResult, VertexProgram};
use std::collections::BTreeSet;
use std::time::Instant;

pub const PAGERANK_SUPERSTEPS: u32 = 10;
pub fn pagerank() -> PageRank {
    PageRank {
        supersteps: PAGERANK_SUPERSTEPS,
        ..PageRank::default()
    }
}

/// Floats equal up to summation order (the engine sums PageRank
/// contributions in delivery order, the reference in edge order).
pub fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

pub fn all_close(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| close(*x, *y))
}

/// Wall of the two halves of graph set-up, for `graph.*_ns`.
#[derive(Clone, Copy, Default)]
pub struct GraphTimes {
    pub rmat_gen_ns: u64,
    pub csr_build_ns: u64,
}

/// Generates the graphs and times `rmat` (generation plus its own CSR
/// build) and, separately, a CSR build alone from the same edge list.
pub fn timed_graphs(seed: u64, scale: u32) -> (Csr, Csr, GraphTimes) {
    let start = Instant::now();
    let (plain, weighted) = fixture::graphs(seed, scale);
    let rmat_gen_ns = start.elapsed().as_nanos() as u64;
    let mut builder = GraphBuilder::with_capacity(plain.num_vertices(), plain.num_edges());
    for (s, d, w) in plain.edges() {
        builder.add_edge(s, d, w);
    }
    let start = Instant::now();
    let rebuilt = builder.build();
    let csr_build_ns = start.elapsed().as_nanos() as u64;
    assert_eq!(
        rebuilt.num_edges(),
        plain.num_edges(),
        "CSR rebuild lost edges"
    );
    (
        plain,
        weighted,
        GraphTimes {
            rmat_gen_ns,
            csr_build_ns,
        },
    )
}

/// Adds what a bare engine run reports about itself to `acc`.
pub fn account_engine_run<V>(acc: &mut Acc, result: &RunResult<V>, alloc_calls: u64) {
    let m = &result.metrics;
    let phases = m.phase_totals();
    acc.add("vc.phase_compute_ns", phases.compute.as_nanos() as f64);
    acc.add("vc.phase_combine_ns", phases.combine.as_nanos() as f64);
    acc.add("vc.phase_scatter_ns", phases.scatter.as_nanos() as f64);
    acc.add("vc.phase_barrier_ns", phases.barrier.as_nanos() as f64);
    acc.add("vc.supersteps", f64::from(m.num_supersteps()));
    acc.add("vc.messages", m.total_messages() as f64);
    acc.add("vc.message_bytes", m.total_message_bytes() as f64);
    acc.add("vc.peak_buffered_bytes", m.peak_buffered_bytes() as f64);
    acc.add("vc.alloc_calls", alloc_calls as f64);
}

/// One bare run inside a `vc.run` span; returns the result and its wall.
pub fn baseline_run<A: VertexProgram>(
    session: &Ariadne,
    analytic: &A,
    graph: &Csr,
    tr: &mut Tracer,
    acc: &mut Acc,
) -> (RunResult<A::V>, u64) {
    let before = alloc_snapshot();
    let (result, ns) = tr.span("vc.run", |_| session.baseline(analytic, graph));
    if tr.enabled() {
        acc.add("vc.run_ns", ns as f64);
        account_engine_run(acc, &result, alloc_snapshot().0 - before.0);
    }
    (result, ns)
}

/// Every `(vertex, superstep)` evaluation a capture recorded, ascending:
/// the roots a backward-lineage query can start from with a non-empty
/// answer.
pub fn evaluation_pairs(store: &ProvStore) -> Vec<(u64, u32)> {
    let only: BTreeSet<String> = ["superstep".to_string()].into();
    let mut pairs = Vec::new();
    for step in 0..=store.max_superstep().unwrap_or(0) {
        let read = store
            .layer_filtered(step, Some(&only))
            .expect("reading the capture's layers");
        for (_, tuples) in read.tuples {
            pairs.extend(
                tuples
                    .iter()
                    .filter_map(|t| Some((t.first()?.as_id()?, step))),
            );
        }
    }
    pairs.sort_unstable();
    pairs
}

/// `count` items of `items` at a constant stride from a seeded offset.
pub fn stride_sample<T: Copy>(items: &[T], count: usize, rng: &mut fixture::Rng) -> Vec<T> {
    assert!(!items.is_empty(), "nothing to sample from");
    let stride = (items.len() / count).max(1);
    let offset = rng.below(stride as u64) as usize;
    (0..count)
        .map(|i| items[(offset + i * stride) % items.len()])
        .collect()
}
