//! Snapshot codecs for the online wrapper's per-vertex state.
//!
//! The engine's checkpoint machinery ([`ariadne_vc::Snapshot`]) is
//! generic over the vertex value and message types; this module teaches
//! it to serialize [`OnlineState`] and [`OnlineMsg`], so online and
//! capture runs can checkpoint at barriers and resume bit-identically
//! after a crash (the query partition — database, delta frontiers,
//! activation history, shipping marks — is part of the recovered state,
//! not recomputed). The delta frontiers are written positionally, as the
//! evaluator holds them; a resume under a query with another frontier
//! layout is refused at its first step.
//!
//! PQL values are foreign to the engine crate; their tuples are written
//! with the provenance store's row codec ([`ariadne_provenance::codec`]),
//! one length-prefixed batch per relation or message table, so a
//! snapshot and a spilled segment spell a [`Value`](ariadne_pql::Value) the
//! same way.

use crate::online::{OnlineMsg, OnlineState, Payload};
use crate::state::QueryState;
use ariadne_pql::eval::seminaive::EvalState;
use ariadne_pql::{Database, Tuple};
use ariadne_provenance::codec::{decode_tuples, encode_tuples, CodecError};
use ariadne_provenance::edb::EdbTracker;
use ariadne_vc::{SnapError, Snapshot};
use std::sync::Arc;

/// Write `tuples` as one length-prefixed [`encode_tuples`] batch.
fn write_tuples(tuples: &[Tuple], out: &mut Vec<u8>) {
    let batch = encode_tuples(tuples);
    batch.len().write_snap(out);
    out.extend_from_slice(&batch);
}

/// Read a batch written by [`write_tuples`].
fn read_tuples(input: &mut &[u8]) -> Result<Vec<Tuple>, SnapError> {
    let n = usize::read_snap(input)?;
    let Some((batch, rest)) = input.split_at_checked(n) else {
        return Err(SnapError::Truncated);
    };
    *input = rest;
    decode_tuples(batch).map_err(|e| match e {
        CodecError::Truncated => SnapError::Truncated,
        CodecError::BadTag(t) => SnapError::BadTag(t),
        CodecError::BadUtf8 => SnapError::BadUtf8,
    })
}

/// Serialize a database preserving both relation name order and tuple
/// insertion order, so shipping marks (scan indices) stay valid after a
/// restore.
pub fn write_database(db: &Database, out: &mut Vec<u8>) {
    let rels: Vec<_> = db.iter().collect();
    rels.len().write_snap(out);
    for (name, rel) in rels {
        name.to_string().write_snap(out);
        rel.arity().write_snap(out);
        write_tuples(rel.scan(), out);
    }
}

/// Deserialize a database written by [`write_database`].
pub fn read_database(input: &mut &[u8]) -> Result<Database, SnapError> {
    let nrels = usize::read_snap(input)?;
    let mut db = Database::new();
    for _ in 0..nrels {
        let name = String::read_snap(input)?;
        let arity = usize::read_snap(input)?;
        let tuples = read_tuples(input)?;
        let rel = db.relation_mut(&name, arity);
        for t in tuples {
            rel.insert(t);
        }
    }
    Ok(db)
}

impl Snapshot for QueryState {
    fn write_snap(&self, out: &mut Vec<u8>) {
        write_database(&self.db, out);
        self.eval.frontiers().to_vec().write_snap(out);
        self.eval
            .ran_scan_free()
            .collect::<Vec<_>>()
            .write_snap(out);
        self.eval
            .agg_input_sizes()
            .collect::<Vec<_>>()
            .write_snap(out);
        self.tracker.last_active().write_snap(out);
        let marks: Vec<(String, usize)> = self
            .ship_marks
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        marks.write_snap(out);
        self.statics_done.write_snap(out);
    }

    fn read_snap(input: &mut &[u8]) -> Result<Self, SnapError> {
        let db = read_database(input)?;
        let frontiers = Vec::<usize>::read_snap(input)?;
        let scan_free = Vec::<usize>::read_snap(input)?;
        let aggs = Vec::<(usize, usize)>::read_snap(input)?;
        let last_active = Option::<u32>::read_snap(input)?;
        let ship_marks = Vec::<(String, usize)>::read_snap(input)?;
        let statics_done = bool::read_snap(input)?;
        Ok(QueryState {
            db,
            eval: EvalState::restore(frontiers, scan_free, aggs),
            tracker: EdbTracker::from_last_active(last_active),
            ship_marks: ship_marks.into_iter().collect(),
            statics_done,
        })
    }
}

impl<V: Snapshot> Snapshot for OnlineState<V> {
    fn write_snap(&self, out: &mut Vec<u8>) {
        self.value.write_snap(out);
        self.q.write_snap(out);
    }

    fn read_snap(input: &mut &[u8]) -> Result<Self, SnapError> {
        Ok(OnlineState {
            value: V::read_snap(input)?,
            q: QueryState::read_snap(input)?,
        })
    }
}

impl<M: Snapshot> Snapshot for OnlineMsg<M> {
    fn write_snap(&self, out: &mut Vec<u8>) {
        self.msg.write_snap(out);
        (self.tables().len() as u64).write_snap(out);
        for (pred, tuples) in self.tables() {
            pred.write_snap(out);
            write_tuples(tuples, out);
        }
    }

    fn read_snap(input: &mut &[u8]) -> Result<Self, SnapError> {
        let msg = M::read_snap(input)?;
        let n = u64::read_snap(input)? as usize;
        if n > input.len() {
            return Err(SnapError::BadLength(n as u64));
        }
        let mut payload = Vec::with_capacity(n);
        for _ in 0..n {
            let pred = String::read_snap(input)?;
            let tuples = read_tuples(input)?;
            payload.push((pred, tuples));
        }
        Ok(OnlineMsg {
            msg,
            payload: (!payload.is_empty()).then(|| Arc::new(Payload::new(payload))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariadne_graph::VertexId;
    use ariadne_pql::Value;

    fn roundtrip<T: Snapshot>(v: &T) -> T {
        let mut buf = Vec::new();
        v.write_snap(&mut buf);
        let mut input = buf.as_slice();
        let out = T::read_snap(&mut input).expect("roundtrip");
        assert!(input.is_empty(), "trailing bytes after decode");
        out
    }

    #[test]
    fn value_roundtrip_all_variants() {
        let tuples = vec![
            vec![
                Value::Id(7),
                Value::Int(-3),
                Value::Float(2.5),
                Value::Bool(true),
            ],
            vec![
                Value::str("hello"),
                Value::List(Arc::new(vec![Value::Int(1), Value::Unit])),
            ],
            vec![Value::Unit],
        ];
        let mut buf = Vec::new();
        write_tuples(&tuples, &mut buf);
        let mut input = buf.as_slice();
        assert_eq!(read_tuples(&mut input).unwrap(), tuples);
        assert!(input.is_empty());
    }

    #[test]
    fn nan_float_roundtrips_bitwise() {
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        let mut buf = Vec::new();
        write_tuples(&[vec![Value::Float(nan)]], &mut buf);
        match read_tuples(&mut buf.as_slice()).unwrap()[0][0] {
            Value::Float(f) => assert_eq!(f.to_bits(), nan.to_bits()),
            ref other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn database_roundtrip_preserves_order() {
        let mut db = Database::new();
        db.insert("b", vec![Value::Id(2), Value::Int(0)]);
        db.insert("a", vec![Value::Id(9)]);
        db.insert("b", vec![Value::Id(1), Value::Int(5)]);
        let mut buf = Vec::new();
        write_database(&db, &mut buf);
        let mut input = buf.as_slice();
        let back = read_database(&mut input).unwrap();
        assert!(input.is_empty());
        let names: Vec<_> = back.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names, vec!["a", "b"]);
        // Insertion order inside a relation survives (marks depend on it).
        assert_eq!(
            back.relation("b").unwrap().scan(),
            db.relation("b").unwrap().scan()
        );
    }

    #[test]
    fn query_state_roundtrip() {
        let mut q = QueryState::new();
        q.inject("p", &[vec![Value::Id(1)], vec![Value::Id(2)]]);
        let _ = q.take_shippable(["p"], VertexId(1));
        let mut buf = Vec::new();
        q.write_snap(&mut buf);
        let mut input = buf.as_slice();
        let back = QueryState::read_snap(&mut input).unwrap();
        assert!(input.is_empty());
        assert_eq!(back.db.len("p"), 2);
        assert_eq!(back.ship_marks, q.ship_marks);
        assert_eq!(back.statics_done, q.statics_done);
        // A restored state takes nothing new (marks survived).
        let mut restored = back;
        assert!(restored.take_shippable(["p"], VertexId(1)).is_empty());
    }

    #[test]
    fn online_state_and_msg_roundtrip() {
        let st = OnlineState {
            value: 42i64,
            q: QueryState::new(),
        };
        let back = roundtrip(&st);
        assert_eq!(back.value, 42);

        let msg = OnlineMsg {
            msg: 7i64,
            payload: Some(Arc::new(Payload::new(vec![(
                "p".to_string(),
                vec![vec![Value::Id(3)]],
            )]))),
        };
        let back = roundtrip(&msg);
        assert_eq!(back.msg, 7);
        assert_eq!(back.tables().len(), 1);
        assert_eq!(back.tables()[0].1, vec![vec![Value::Id(3)]]);
    }

    #[test]
    fn corrupt_tag_is_typed_error() {
        // One row of arity one whose value carries the unknown tag 0xFF.
        let batch = [1, 0, 0, 0, 1, 0, 0, 0, 0xFF];
        let mut buf = Vec::new();
        batch.len().write_snap(&mut buf);
        buf.extend_from_slice(&batch);
        assert_eq!(
            read_tuples(&mut buf.as_slice()),
            Err(SnapError::BadTag(0xFF))
        );
    }
}
