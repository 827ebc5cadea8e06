//! Analytic-specific custom provenance relations.
//!
//! The paper's ALS queries (7 and 8) read `prov_error(x, y, i, e)` and
//! `prov_prediction(x, y, i, p)` — per-edge prediction errors the vertex
//! program itself never stores. A [`CustomProv`] implementation derives
//! such relations from the analytic's typed state as provenance is
//! generated, without touching the analytic.

use ariadne_analytics::als::Als;
use ariadne_graph::{Csr, VertexId};
use ariadne_pql::{Tuple, Value};
use ariadne_vc::{Envelope, VertexProgram};

/// Generator of analytic-specific provenance tuples, invoked once per
/// vertex per superstep with the analytic's typed state. A query reads
/// its relations once they are in the catalog it compiles against (see
/// [`crate::queries::als_catalog`]).
pub trait CustomProv<A: VertexProgram>: Send + Sync {
    /// Produce tuples for one vertex-superstep. `value` is the vertex
    /// value after computing; `messages` are the envelopes it received.
    /// Each row is located at `vertex` and, like a Table-1 row, carries
    /// `superstep`: a capture keeps set semantics per vertex-step.
    fn tuples(
        &self,
        graph: &Csr,
        vertex: VertexId,
        superstep: u32,
        value: &A::V,
        messages: &[Envelope<A::M>],
    ) -> Vec<(String, Tuple)>;
}

/// ALS custom provenance: per incoming neighbour message, the predicted
/// rating `p = <f_x, f_y>` and its error `e = p - rating(x, y)`.
#[derive(Clone, Debug, Default)]
pub struct AlsProv;

/// Name of the per-edge error relation.
pub const PROV_ERROR: &str = "prov_error";
/// Name of the per-edge prediction relation.
pub const PROV_PREDICTION: &str = "prov_prediction";

impl CustomProv<Als> for AlsProv {
    fn tuples(
        &self,
        graph: &Csr,
        vertex: VertexId,
        superstep: u32,
        value: &Vec<f64>,
        messages: &[Envelope<Vec<f64>>],
    ) -> Vec<(String, Tuple)> {
        let x = Value::Id(vertex.0);
        let i = Value::Int(superstep as i64);
        let mut out = Vec::with_capacity(messages.len() * 2);
        for env in messages {
            if env.is_combined() {
                continue;
            }
            let Some(rating) = graph.edge_weight(vertex, env.src) else {
                continue;
            };
            let prediction = Als::predict(value, &env.msg);
            let y = Value::Id(env.src.0);
            out.push((
                PROV_PREDICTION.to_string(),
                vec![x.clone(), y.clone(), i.clone(), Value::Float(prediction)],
            ));
            out.push((
                PROV_ERROR.to_string(),
                vec![x.clone(), y, i.clone(), Value::Float(prediction - rating)],
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariadne_graph::GraphBuilder;

    #[test]
    fn als_prov_generates_errors_and_predictions() {
        let mut b = GraphBuilder::new();
        b.add_undirected_edge(VertexId(0), VertexId(1), 4.0);
        let g = b.build();
        let prov = AlsProv;
        let value = vec![1.0, 2.0];
        let msgs = vec![Envelope::new(VertexId(1), vec![1.0, 1.0])];
        let tuples = prov.tuples(&g, VertexId(0), 3, &value, &msgs);
        assert_eq!(tuples.len(), 2);
        // prediction = 1*1 + 2*1 = 3, error = 3 - 4 = -1.
        assert_eq!(tuples[0].0, PROV_PREDICTION);
        assert_eq!(tuples[0].1[3], Value::Float(3.0));
        assert_eq!(tuples[1].0, PROV_ERROR);
        assert_eq!(tuples[1].1[3], Value::Float(-1.0));
    }

    #[test]
    fn messages_from_non_neighbours_skipped() {
        let g = GraphBuilder::new().build();
        let prov = AlsProv;
        let msgs = vec![Envelope::new(VertexId(5), vec![1.0])];
        // Vertex 0 doesn't even exist in the empty graph; edge lookup
        // would panic on out-of-range, so use a 1-vertex graph.
        let mut b = GraphBuilder::new();
        b.ensure_vertex(VertexId(5));
        let g1 = b.build();
        drop(g);
        assert!(prov
            .tuples(&g1, VertexId(0), 1, &vec![1.0], &msgs)
            .is_empty());
    }
}
