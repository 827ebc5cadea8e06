//! The paper's queries (1–12) as ready-made builders.
//!
//! Each builder returns a [`CompiledQuery`] or [`CaptureSpec`]; Query 2,
//! full capture, is [`CaptureSpec::full`] itself. The PQL
//! sources follow the paper §4–§6 with two mechanical adaptations:
//! hyphens in names become underscores, and rules are stated with the
//! most selective scan first (identical semantics, better join order).
//! Where the paper's published rules contain small infelicities (Query
//! 7's unsatisfiable range conjunction, Query 4's count-based zero test)
//! we implement the stated intent and note it inline.

use crate::capture::CaptureSpec;
use crate::compile::{compile, compile_with, CompiledQuery};
use ariadne_graph::VertexId;
use ariadne_pql::catalog::MessageKind;
use ariadne_pql::{Catalog, Params, PqlError, UdfRegistry, Value};

/// Query 1 — the apt (approximate-optimization) query of §2.2/§6.2.2.
///
/// `udf` is the vertex-value comparison function: `udf_diff` for
/// PageRank/SSSP/WCC, `udf_euclidean` for ALS; `eps` the threshold.
pub fn apt(udf: &str, eps: Value) -> Result<CompiledQuery, PqlError> {
    let src = format!(
        "change(x, i) :- evolution(x, j, i), value(x, d1, i), value(x, d2, j), {udf}(d1, d2, $eps).
         neighbor_change(x, i) :- receive_message(x, y, m, i), !change(y, j), j = i - 1.
         no_execute(x, i) :- !neighbor_change(x, i), superstep(x, i), i > 0.
         safe(x, i) :- no_execute(x, i), change(x, i).
         unsafe(x, i) :- no_execute(x, i), !change(x, i)."
    );
    compile(&src, Params::new().with("eps", eps))
}

/// Query 3 — custom capture: the forward lineage (set of influenced
/// vertices with their values) of vertex `alpha`.
pub fn capture_forward_lineage(alpha: VertexId) -> Result<CaptureSpec, PqlError> {
    let q = compile(
        "fwd_lineage(x, v, i) :- value(x, v, i), superstep(x, i), x = $alpha, i = 0.
         fwd_lineage(x, v, i) :- receive_message(x, y, m, i), fwd_lineage(y, w, j), value(x, v, i).",
        Params::new().with("alpha", Value::Id(alpha.0)),
    )?;
    Ok(CaptureSpec::default().with_query(q))
}

/// Query 4 — PageRank execution monitoring: a vertex with no incoming
/// edges must never receive a message. (The paper phrases the zero test
/// over `in_degree`; counts never produce zero rows in datalog, so the
/// faithful executable form uses negation. `in_degree` is still
/// computed, as the paper's overhead includes it.)
pub fn pagerank_check() -> Result<CompiledQuery, PqlError> {
    compile(
        "in_degree(x, count(y)) :- in_edge(x, y).
         has_in(x) :- in_edge(x, y).
         check_failed(x, y, i) :- receive_message(x, y, m, i), !has_in(x).",
        Params::new(),
    )
}

/// Query 5 — SSSP/WCC monitoring: a vertex value must never increase
/// (values only shrink toward the fixpoint when messages arrive).
pub fn sssp_wcc_value_check() -> Result<CompiledQuery, PqlError> {
    compile(
        "check_failed(x, i) :- evolution(x, j, i), value(x, d1, i), value(x, d2, j), receive_message(x, y, m, i), d1 > d2.",
        Params::new(),
    )
}

/// Query 6 — SSSP/WCC monitoring: no change without messages.
pub fn sssp_wcc_no_message_no_change() -> Result<CompiledQuery, PqlError> {
    compile(
        "neighbor_change(x, i) :- receive_message(x, y, m, i).
         problem(x, i) :- evolution(x, j, i), value(x, d1, i), value(x, d2, j), !neighbor_change(x, i), d1 != d2.",
        Params::new(),
    )
}

/// The catalog extended with the ALS custom provenance relations.
pub fn als_catalog() -> Catalog {
    let mut c = Catalog::standard();
    c.register(crate::custom::PROV_ERROR, 4);
    c.register(crate::custom::PROV_PREDICTION, 4);
    c
}

/// Query 7 — ALS data/algorithm range check: a failing per-edge error is
/// attributed to the input (rating outside 0–5) or to the algorithm
/// (prediction outside 0–5). The paper's published conjunction `e < 0,
/// e > 5` is unsatisfiable as written; this implements its stated intent
/// with `udf_out_of_range`.
pub fn als_range_check() -> Result<CompiledQuery, PqlError> {
    compile_with(
        "input_failed(x, y, i) :- prov_error(x, y, i, e), edge_value(x, y, w, i), udf_out_of_range(e, -5, 5), udf_out_of_range(w, 0, 5).
         algo_failed(x, y, i) :- prov_error(x, y, i, e), prov_prediction(x, y, i, p), udf_out_of_range(e, -5, 5), udf_out_of_range(p, 0, 5).",
        Params::new(),
        &als_catalog(),
        UdfRegistry::standard(),
    )
}

/// Query 8 — ALS quality monitoring: vertices whose average prediction
/// error increased by more than `eps` between consecutive active
/// supersteps.
pub fn als_error_increase(eps: f64) -> Result<CompiledQuery, PqlError> {
    compile_with(
        "degree(x, count(y)) :- receive_message(x, y, m, i).
         sum_error(x, i, sum(e)) :- prov_error(x, y, i, e).
         avg_error(x, i, s / d) :- sum_error(x, i, s), degree(x, d).
         problem(x, e1, e2, i) :- avg_error(x, i, e1), avg_error(x, j, e2), evolution(x, j, i), e1 > e2 + $eps.",
        Params::new().with("eps", Value::Float(eps)),
        &als_catalog(),
        UdfRegistry::standard(),
    )
}

/// Pruned capture (§7's provenance-pruning idea, expressed in PQL):
/// persist a vertex's value only at supersteps where it actually
/// *changed*. For analytics that recompute without changing (PageRank
/// tails, WCC non-updates) this drops the redundant rows that dominate
/// `value`'s volume, with no loss for queries that only care about
/// change points.
pub fn capture_changed_values() -> Result<CaptureSpec, PqlError> {
    let q = compile(
        "prov_changed(x, i, v) :- value(x, v, i), superstep(x, i), i = 0.
         prov_changed(x, i, v) :- evolution(x, j, i), value(x, v, i), value(x, w, j), v != w.",
        Params::new(),
    )?;
    Ok(CaptureSpec::default().with_query(q))
}

/// Query 10 — backward lineage over the full provenance graph: the
/// superstep-0 ancestors of vertex `alpha`'s value at superstep `sigma`.
pub fn backward_lineage(alpha: VertexId, sigma: u32) -> Result<CompiledQuery, PqlError> {
    compile(
        "back_trace(x, i) :- superstep(x, i), i = $sigma, x = $alpha.
         back_trace(x, i) :- send_message(x, y, m, i), back_trace(y, j), j = i + 1.
         back_lineage(x, d) :- back_trace(x, i), value(x, d, i), i = 0.",
        Params::new()
            .with("alpha", Value::Id(alpha.0))
            .with("sigma", Value::Int(sigma as i64)),
    )
}

/// Query 11 — custom capture for backward lineage: vertex values per
/// superstep, send *activity* (not message payloads), and the static
/// out-edges — everything Query 12 needs, nothing more.
pub fn capture_backward_custom() -> Result<CaptureSpec, PqlError> {
    let q = compile(
        "prov_value(x, i, v) :- value(x, v, i), superstep(x, i).
         prov_send(x, i) :- send_message(x, y, m, i).
         prov_edges(x, y) :- edge(x, y).",
        Params::new(),
    )?;
    Ok(CaptureSpec::default().with_query(q))
}

/// Variant of Query 11 for analytics that message *both* edge directions
/// (WCC): `prov_edges` must cover in-edges too, or Query 12 under-traces.
/// (The paper's out-edge substitution is only valid "for analytics where
/// vertices send messages to all their outgoing neighbors", §6.3.)
pub fn capture_backward_custom_undirected() -> Result<CaptureSpec, PqlError> {
    let q = compile(
        "prov_value(x, i, v) :- value(x, v, i), superstep(x, i).
         prov_send(x, i) :- send_message(x, y, m, i).
         prov_edges(x, y) :- edge(x, y).
         prov_edges(x, y) :- in_edge(x, y).",
        Params::new(),
    )?;
    Ok(CaptureSpec::default().with_query(q))
}

/// The catalog for queries over the Query-11 custom capture:
/// `prov_edges` is registered as communication-certifying so the
/// directedness analysis accepts Query 12 as backward (§6.3).
pub fn backward_custom_catalog() -> Catalog {
    let mut c = Catalog::standard();
    c.register("prov_value", 3);
    c.register("prov_send", 2);
    c.register_message_like("prov_edges", 2, 1, MessageKind::Send);
    c
}

/// Query 12 — backward lineage over the custom capture of Query 11.
pub fn backward_lineage_custom(alpha: VertexId, sigma: u32) -> Result<CompiledQuery, PqlError> {
    compile_with(
        "back_trace(x, i) :- prov_value(x, i, v), i = $sigma, x = $alpha.
         back_trace(x, i) :- prov_edges(x, y), prov_send(x, i), back_trace(y, j), j = i + 1.
         back_lineage(x, d) :- back_trace(x, i), prov_value(x, i, d), i = 0.",
        Params::new()
            .with("alpha", Value::Id(alpha.0))
            .with("sigma", Value::Int(sigma as i64)),
        &backward_custom_catalog(),
        UdfRegistry::standard(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariadne_pql::Direction;

    #[test]
    fn apt_is_forward() {
        let q = apt("udf_diff", Value::Float(0.01)).unwrap();
        assert_eq!(q.direction(), Direction::Forward);
        assert!(q.query().shipped.contains("change"));
    }

    #[test]
    fn monitoring_queries_are_online_capable() {
        for q in [
            pagerank_check().unwrap(),
            sssp_wcc_value_check().unwrap(),
            sssp_wcc_no_message_no_change().unwrap(),
            als_range_check().unwrap(),
            als_error_increase(0.5).unwrap(),
        ] {
            assert!(q.direction().supports_online(), "{:?}", q.direction());
        }
    }

    #[test]
    fn lineage_queries_classify() {
        let fwd = capture_forward_lineage(VertexId(0)).unwrap();
        assert!(fwd.supports_online());
        let bwd = backward_lineage(VertexId(0), 5).unwrap();
        assert_eq!(bwd.direction(), Direction::Backward);
        assert!(!bwd.direction().supports_online());
        let bwd_custom = backward_lineage_custom(VertexId(0), 5).unwrap();
        assert_eq!(bwd_custom.direction(), Direction::Backward);
    }

    #[test]
    fn backward_custom_capture_is_local() {
        let spec = capture_backward_custom().unwrap();
        assert!(spec.supports_online());
        let persist = spec.persist_preds();
        assert!(persist.contains("prov_value"));
        assert!(persist.contains("prov_send"));
        assert!(persist.contains("prov_edges"));
        // It reads message payloads' existence but stores none of them.
        assert!(!persist.contains("send_message"));
    }

    #[test]
    fn capture_specs_need_right_edbs() {
        let spec = capture_forward_lineage(VertexId(3)).unwrap();
        let needed = spec.needed();
        assert!(needed.contains("value"));
        assert!(needed.contains("receive_message"));
        assert!(needed.contains("superstep"));
    }
}
