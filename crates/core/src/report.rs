//! Run introspection: aggregate one run's engine, query and store
//! metrics into a [`RunReport`] that benchmarks and operators can
//! serialize.
//!
//! The report folds three sources:
//!
//! * the engine's per-superstep [`ariadne_vc::SuperstepMetrics`] — message
//!   totals, per-phase wall time (compute / sender-combine / scatter /
//!   barrier) and checkpoint-write time;
//! * the wrapped query's run-local [`EvalStats`] (rule firings, delta
//!   window sizes, evaluation-scratch reuse) accumulated across all vertices;
//! * the provenance store's occupancy counters, when the run captured.
//!
//! Everything here is *run-local*: unlike the process-global
//! `ariadne-obs` registry, a `RunReport` describes exactly one run and
//! is safe to compare across runs in the same process. All the logical
//! counters in it are deterministic across worker-thread counts.

use crate::capture::CaptureRun;
use crate::online::OnlineRun;
use ariadne_pql::EvalStats;
use ariadne_provenance::ProvStore;
use ariadne_vc::{PhaseTimes, RunMetrics};
use std::time::Duration;

/// Provenance-store occupancy at the end of a capture run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreReport {
    /// Tuples ingested across all layers.
    pub tuples: usize,
    /// Bytes held in memory-resident segments.
    pub mem_bytes: usize,
    /// Bytes spilled to disk.
    pub disk_bytes: usize,
    /// Number of spill events.
    pub spills: usize,
    /// Sealed (durable, checksummed) spool segments.
    pub sealed_segments: usize,
    /// Records recovered from torn spool tails on resume (zero on a
    /// clean run).
    pub salvaged_records: usize,
    /// Segments a scrub repair moved into `quarantine/` (zero on a
    /// clean run).
    pub quarantined_segments: usize,
    /// Compaction passes published (each bumped the spool generation).
    pub compactions: usize,
}

impl StoreReport {
    /// Snapshot a store's occupancy counters.
    pub fn from_store(store: &ProvStore) -> Self {
        StoreReport {
            tuples: store.tuple_count(),
            mem_bytes: store.byte_size(),
            disk_bytes: store.disk_bytes(),
            spills: store.spills(),
            sealed_segments: store.sealed_segments(),
            salvaged_records: store.salvaged_records(),
            quarantined_segments: store.quarantined_segments(),
            compactions: store.compactions(),
        }
    }
}

/// One run's aggregated introspection record.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Supersteps executed.
    pub supersteps: usize,
    /// Total wall time of the run.
    pub elapsed: Duration,
    /// Messages routed into outboxes.
    pub messages_sent: usize,
    /// Messages observed in destination inboxes (equals `messages_sent`
    /// when no exact sender-side combiner folded messages in flight).
    pub messages_delivered: usize,
    /// Analytic message payload bytes.
    pub message_bytes: usize,
    /// Messages buffered after sender-side combining.
    pub buffered_messages: usize,
    /// Per-phase wall-time totals across all supersteps.
    pub phases: PhaseTimes,
    /// Total checkpoint snapshot write time (outside `elapsed`).
    pub checkpoint: Duration,
    /// Accumulated query-evaluation counters, when the run carried a
    /// compiled query.
    pub query: Option<EvalStats>,
    /// Store occupancy, when the run captured provenance.
    pub store: Option<StoreReport>,
}

impl RunReport {
    /// Fold the engine half of the report out of run metrics.
    pub fn from_metrics(m: &RunMetrics) -> Self {
        RunReport {
            supersteps: m.supersteps.len(),
            elapsed: m.elapsed,
            messages_sent: m.total_messages(),
            messages_delivered: m.total_messages_delivered(),
            message_bytes: m.total_message_bytes(),
            buffered_messages: m.total_buffered_messages(),
            phases: m.phase_totals(),
            checkpoint: m.total_checkpoint_time(),
            query: None,
            store: None,
        }
    }

    /// Attach accumulated query-evaluation counters.
    pub fn with_query(mut self, stats: EvalStats) -> Self {
        self.query = Some(stats);
        self
    }

    /// Attach store occupancy.
    pub fn with_store(mut self, store: &ProvStore) -> Self {
        self.store = Some(StoreReport::from_store(store));
        self
    }

    /// Serialize as a single JSON object with a fixed key order (the
    /// BENCH files embed this verbatim, and `/report` serves it).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push('{');
        s.push_str(&format!("\"supersteps\":{}", self.supersteps));
        s.push_str(&format!(",\"elapsed_ns\":{}", self.elapsed.as_nanos()));
        s.push_str(&format!(",\"messages_sent\":{}", self.messages_sent));
        s.push_str(&format!(
            ",\"messages_delivered\":{}",
            self.messages_delivered
        ));
        s.push_str(&format!(",\"message_bytes\":{}", self.message_bytes));
        s.push_str(&format!(
            ",\"buffered_messages\":{}",
            self.buffered_messages
        ));
        s.push_str(&format!(
            ",\"phase_compute_ns\":{}",
            self.phases.compute.as_nanos()
        ));
        s.push_str(&format!(
            ",\"phase_combine_ns\":{}",
            self.phases.combine.as_nanos()
        ));
        s.push_str(&format!(
            ",\"phase_scatter_ns\":{}",
            self.phases.scatter.as_nanos()
        ));
        s.push_str(&format!(
            ",\"phase_barrier_ns\":{}",
            self.phases.barrier.as_nanos()
        ));
        s.push_str(&format!(
            ",\"checkpoint_ns\":{}",
            self.checkpoint.as_nanos()
        ));
        match &self.query {
            Some(q) => {
                s.push_str(",\"query\":{");
                s.push_str(&format!("\"rule_firings\":{}", q.rule_firings));
                s.push_str(&format!(",\"derived_tuples\":{}", q.derived_tuples));
                s.push_str(&format!(",\"delta_tuples\":{}", q.delta_tuples));
                s.push_str(&format!(",\"fixpoint_rounds\":{}", q.fixpoint_rounds));
                s.push_str(&format!(",\"scratch_reuse\":{}", q.scratch_reuse));
                s.push_str(&format!(",\"scratch_alloc\":{}", q.scratch_alloc));
                s.push('}');
            }
            None => s.push_str(",\"query\":null"),
        }
        match &self.store {
            Some(st) => {
                s.push_str(",\"store\":{");
                s.push_str(&format!("\"tuples\":{}", st.tuples));
                s.push_str(&format!(",\"mem_bytes\":{}", st.mem_bytes));
                s.push_str(&format!(",\"disk_bytes\":{}", st.disk_bytes));
                s.push_str(&format!(",\"spills\":{}", st.spills));
                s.push_str(&format!(",\"sealed_segments\":{}", st.sealed_segments));
                s.push_str(&format!(",\"salvaged_records\":{}", st.salvaged_records));
                s.push_str(&format!(
                    ",\"quarantined_segments\":{}",
                    st.quarantined_segments
                ));
                s.push_str(&format!(",\"compactions\":{}", st.compactions));
                s.push('}');
            }
            None => s.push_str(",\"store\":null"),
        }
        s.push('}');
        s
    }
}

impl<V> OnlineRun<V> {
    /// Build the run's introspection report.
    pub fn report(&self) -> RunReport {
        RunReport::from_metrics(&self.metrics).with_query(self.query_stats)
    }
}

impl<V> CaptureRun<V> {
    /// Build the run's introspection report.
    pub fn report(&self) -> RunReport {
        RunReport::from_metrics(&self.metrics)
            .with_query(self.query_stats)
            .with_store(&self.store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_fixed_shape() {
        let report = RunReport {
            supersteps: 3,
            query: Some(EvalStats::default()),
            ..RunReport::default()
        };
        let json = report.to_json();
        assert!(json.starts_with("{\"supersteps\":3"));
        assert!(json.contains("\"phase_compute_ns\":0"));
        assert!(json.contains("\"query\":{\"rule_firings\":0"));
        assert!(json.contains("\"store\":null"));
        assert!(json.ends_with('}'));
    }
}
