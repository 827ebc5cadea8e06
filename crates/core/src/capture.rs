//! Declaratively customized provenance capture (§3, §6.1).
//!
//! A [`CaptureSpec`] says *what* goes into the provenance store:
//!
//! * a set of raw Table-1 predicates (`value`, `send_message`, …) — the
//!   paper's Query 2 "capture the full provenance graph" is
//!   [`CaptureSpec::full`], and dropping predicates from the set is the
//!   customization that shrinks Tables 3 → 4;
//! * optionally, a **capture query** whose head relations are persisted —
//!   Query 3's recursive forward lineage and Query 11's
//!   `prov_value`/`prov_send`/`prov_edges` backward-custom capture.
//!
//! Capture runs online: the spec is compiled into the same wrapper as
//! online queries, with persistence enabled and an async store writer
//! draining tuples off the compute path.

use crate::compile::CompiledQuery;
use ariadne_provenance::edb::NeededEdbs;
use std::collections::BTreeSet;

/// What to capture.
#[derive(Clone, Debug, Default)]
pub struct CaptureSpec {
    /// Raw provenance EDB predicates to persist.
    pub edbs: NeededEdbs,
    /// Capture rules; their head relations are persisted too.
    pub query: Option<CompiledQuery>,
}

impl CaptureSpec {
    /// Full provenance graph capture (the paper's Query 2): the
    /// activation records (`superstep`), vertex `value`s, `evolution`
    /// edges and both message directions. This is exactly the compact
    /// representation of the unfolded provenance graph — its nodes
    /// (`superstep` × `value`) and its evolution and message edges.
    ///
    /// `edge_value` is deliberately **not** part of the full capture:
    /// edge weights are static input data, recoverable from the input
    /// graph rather than the store. It is generated (and persisted) on
    /// demand when a capture spec or query reads it — e.g. the ALS
    /// range-check query — like every other Table-1 predicate.
    pub fn full() -> Self {
        CaptureSpec {
            edbs: [
                "superstep",
                "value",
                "evolution",
                "send_message",
                "receive_message",
            ]
            .into_iter()
            .map(String::from)
            .collect(),
            query: None,
        }
    }

    /// Capture only the given raw predicates.
    pub fn raw<I: IntoIterator<Item = S>, S: Into<String>>(preds: I) -> Self {
        CaptureSpec {
            edbs: preds.into_iter().map(Into::into).collect(),
            query: None,
        }
    }

    /// Capture through a query: only its head relations (plus any raw
    /// predicates already in the spec) are persisted.
    pub fn with_query(mut self, query: CompiledQuery) -> Self {
        self.query = Some(query);
        self
    }

    /// EDB predicates that must be *generated* during the run: the raw
    /// set plus whatever the capture query reads.
    pub fn needed(&self) -> NeededEdbs {
        let mut needed = self.edbs.clone();
        if let Some(q) = &self.query {
            needed.extend(q.query().edbs.iter().cloned());
        }
        needed
    }

    /// Predicates persisted to the store: raw EDBs plus query heads.
    pub fn persist_preds(&self) -> BTreeSet<String> {
        let mut preds = self.edbs.clone();
        if let Some(q) = &self.query {
            preds.extend(q.query().idbs.keys().cloned());
        }
        preds
    }

    /// Whether the capture can run online (capture always runs alongside
    /// the analytic, so its query must be forward or local).
    pub fn supports_online(&self) -> bool {
        self.query
            .as_ref()
            .map(|q| q.direction().supports_online())
            .unwrap_or(true)
    }
}

/// The outcome of a capture run.
#[derive(Debug)]
pub struct CaptureRun<V> {
    /// Final analytic values (unchanged by capture).
    pub values: Vec<V>,
    /// The captured provenance store.
    pub store: ariadne_provenance::ProvStore,
    /// Engine metrics for the capture run.
    pub metrics: ariadne_vc::RunMetrics,
    /// Query-evaluation counters accumulated across all vertices (zero
    /// for raw captures with no capture query).
    pub query_stats: ariadne_pql::EvalStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use ariadne_pql::Params;

    #[test]
    fn full_spec_covers_table1() {
        let spec = CaptureSpec::full();
        // The compact representation of the unfolded provenance graph:
        // its nodes and its evolution + message edges.
        for pred in [
            "superstep",
            "value",
            "evolution",
            "send_message",
            "receive_message",
        ] {
            assert!(spec.edbs.contains(pred), "full() must capture {pred}");
        }
        // Static input data is NOT captured: edge weights live in the
        // input graph, and `edge_value` is generated only on demand.
        assert!(!spec.edbs.contains("edge_value"));
        assert!(!spec.edbs.contains("edge"));
        assert!(spec.supports_online());
        assert_eq!(spec.needed(), spec.edbs);
        assert_eq!(spec.persist_preds(), spec.edbs);
    }

    #[test]
    fn query_spec_unions_needs() {
        let q = compile(
            "prov_value(x, i, v) :- value(x, v, i), superstep(x, i).",
            Params::new(),
        )
        .unwrap();
        let spec = CaptureSpec::raw(["evolution"]).with_query(q);
        let needed = spec.needed();
        assert!(needed.contains("value"));
        assert!(needed.contains("superstep"));
        assert!(needed.contains("evolution"));
        let persist = spec.persist_preds();
        assert!(persist.contains("prov_value"));
        assert!(persist.contains("evolution"));
        assert!(!persist.contains("value"));
    }
}
