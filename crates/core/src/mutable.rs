//! The truly-online session: graph mutations between runs, incremental
//! re-execution, and provenance maintained as epoch deltas.
//!
//! [`MutableSession`] wraps an [`Ariadne`] handle around a
//! [`MutableGraph`]. Mutations queue in a [`GraphDelta`] via
//! [`MutableSession::mutate`] and merge at an explicit barrier —
//! [`MutableSession::commit`] — never mid-run, so every run sees one
//! immutable CSR snapshot (the engine's determinism contract is
//! untouched). Each run cuts its own degree-weighted chunk table from
//! the snapshot it runs on.
//!
//! Two re-execution paths after a commit:
//!
//! * [`MutableSession::capture_epoch`] — the **capture-grade** path:
//!   a full re-run of the analytic + capture query over the mutated
//!   graph, appended to a live [`ProvStore`] as a *delta epoch*
//!   ([`ProvStore::append_epoch`]). Results and logical provenance
//!   layers are bit-identical to a cold capture at every thread count
//!   (it *is* a cold capture — only the storage is incremental).
//! * [`MutableSession::rerun_incremental`] — the **result-only** path:
//!   frontier-seeded re-execution reusing previous-epoch values where
//!   the program's [`ariadne_vc::Incrementality`] contract allows,
//!   falling back to a full re-run otherwise. Bit-identical values,
//!   fewer supersteps; no provenance capture.
//!
//! `docs/MUTATIONS.md` walks through the full protocol.

#![warn(missing_docs)]
use crate::capture::{CaptureRun, CaptureSpec};
use crate::session::{Ariadne, AriadneError};
use ariadne_graph::{Csr, GraphDelta, MutableGraph, MutationReport};
use ariadne_provenance::{EpochStats, ProvEncode, ProvStore, StoreConfig};
use ariadne_vc::{Engine, IncrementalRun, RunResult, VertexProgram};

/// An [`Ariadne`] session over a mutable graph. See the module docs.
#[derive(Clone, Debug)]
pub struct MutableSession {
    /// Engine/store configuration.
    pub session: Ariadne,
    graph: MutableGraph,
    pending: GraphDelta,
    /// The last commit's report and its pre-commit snapshot, which backs
    /// the taint closure (incremental re-execution taints over the *old*
    /// graph).
    last_commit: Option<(MutationReport, Csr)>,
}

impl MutableSession {
    /// Wrap `graph` as mutation epoch 0.
    pub fn new(session: Ariadne, graph: Csr) -> Self {
        MutableSession {
            session,
            graph: MutableGraph::new(graph),
            pending: GraphDelta::new(),
            last_commit: None,
        }
    }

    /// The current graph snapshot.
    pub fn csr(&self) -> &Csr {
        self.graph.csr()
    }

    /// The current mutation epoch (0 = initial load, +1 per commit).
    pub fn epoch(&self) -> u64 {
        self.graph.epoch()
    }

    /// Queued-but-uncommitted operations.
    pub fn pending_ops(&self) -> usize {
        self.pending.len()
    }

    /// Queue a mutation batch. Batches accumulate in arrival order and
    /// apply atomically at the next [`MutableSession::commit`].
    pub fn mutate(&mut self, delta: GraphDelta) -> &mut Self {
        self.pending.merge(delta);
        self
    }

    /// The barrier: merge every queued batch into a new CSR snapshot
    /// and bump the epoch. Returns what changed — the report seeds
    /// [`MutableSession::rerun_incremental`].
    pub fn commit(&mut self) -> MutationReport {
        let delta = std::mem::take(&mut self.pending);
        let (report, old) = self.graph.apply_returning_old(&delta);
        self.last_commit = Some((report.clone(), old));
        report
    }

    /// Run the bare analytic on the current snapshot.
    pub fn baseline<A: VertexProgram>(&self, analytic: &A) -> RunResult<A::V> {
        self.session.baseline(analytic, self.graph.csr())
    }

    /// Result-only incremental re-execution after the last commit:
    /// reuse `prev_values` (the previous epoch's final values) where
    /// the analytic's [`ariadne_vc::Incrementality`] contract allows,
    /// re-running only from the mutation's invalidation frontier.
    /// Values are bit-identical to [`MutableSession::baseline`] on the
    /// mutated graph at every thread count; the returned
    /// [`IncrementalRun`] says which path ran and how much was reused.
    ///
    /// Errors if no commit has happened yet.
    pub fn rerun_incremental<A>(
        &self,
        analytic: &A,
        prev_values: &[A::V],
    ) -> Result<IncrementalRun<A::V>, AriadneError>
    where
        A: VertexProgram,
        A::V: Sync,
    {
        let Some((report, old)) = &self.last_commit else {
            return Err(AriadneError::NoCommittedMutation);
        };
        Ok(Engine::new(self.session.engine.clone()).run_incremental(
            analytic,
            old,
            self.graph.csr(),
            prev_values,
            report,
        ))
    }

    /// Capture-grade re-execution after a mutation: full re-run of
    /// analytic + capture query over the current snapshot (bit-identical
    /// to a cold capture — provenance layer identity is the contract,
    /// so no frontier shortcut here) into an in-memory store of
    /// `store`'s own format, which is then appended to `store` as a
    /// delta epoch. `store`'s logical layers afterwards read
    /// bit-identical to the fresh capture while paying only the diff in
    /// storage; `store.mutation_epoch()` advances, which is what
    /// invalidates serve-layer cursors and replay caches. Because the
    /// capture is in the chain's format, [`EpochStats::cold_bytes`] is
    /// what a cold capture in that format writes, and a replaced layer
    /// the capture holds as one in-order record is copied into `store`
    /// rather than re-encoded. The returned run's store is that capture.
    pub fn capture_epoch<A>(
        &self,
        analytic: &A,
        spec: &CaptureSpec,
        store: &mut ProvStore,
    ) -> Result<(CaptureRun<A::V>, EpochStats), AriadneError>
    where
        A: VertexProgram,
        A::V: ProvEncode,
        A::M: ProvEncode,
    {
        let scratch = Ariadne {
            engine: self.session.engine.clone(),
            store: StoreConfig::in_memory(),
            naive_budget: self.session.naive_budget,
        };
        let run = scratch.capture(analytic, self.graph.csr(), spec)?;
        let stats = store.append_epoch(&run.store)?;
        Ok((run, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariadne_analytics::Sssp;
    use ariadne_graph::{GraphBuilder, VertexId};
    use ariadne_vc::IncrementalMode;

    fn chain(n: u64) -> Csr {
        let mut b = GraphBuilder::new();
        for i in 0..n.saturating_sub(1) {
            b.add_edge(VertexId(i), VertexId(i + 1), 1.0);
        }
        b.build()
    }

    #[test]
    fn commit_applies_pending_batches_in_order() {
        let mut s = MutableSession::new(Ariadne::default(), chain(4));
        let mut d1 = GraphDelta::new();
        d1.add_edge(VertexId(0), VertexId(3), 1.0);
        let mut d2 = GraphDelta::new();
        d2.remove_edge(VertexId(0), VertexId(3));
        s.mutate(d1).mutate(d2);
        assert_eq!(s.pending_ops(), 2);
        let report = s.commit();
        assert_eq!(s.epoch(), 1);
        assert_eq!(s.pending_ops(), 0);
        // Normalization applies removals before inserts within one
        // barrier, so the queued add survives the queued remove.
        assert_eq!(report.inserted_edges, 1);
        assert_eq!(s.csr().num_edges(), 4);
    }

    #[test]
    fn rerun_incremental_matches_baseline() {
        let mut s = MutableSession::new(Ariadne::with_threads(3), chain(8));
        let sssp = Sssp::new(VertexId(0));
        let before = s.baseline(&sssp);
        let mut d = GraphDelta::new();
        d.add_edge(VertexId(0), VertexId(5), 1.5);
        s.mutate(d);
        s.commit();
        let inc = s.rerun_incremental(&sssp, &before.values).unwrap();
        assert_eq!(inc.mode, IncrementalMode::Frontier);
        assert_eq!(inc.result.values, s.baseline(&sssp).values);
    }

    #[test]
    fn rerun_incremental_before_commit_errors() {
        let s = MutableSession::new(Ariadne::default(), chain(3));
        let sssp = Sssp::new(VertexId(0));
        assert!(s.rerun_incremental(&sssp, &[0.0, 1.0, 2.0]).is_err());
    }
}
