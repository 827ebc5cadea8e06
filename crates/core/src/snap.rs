//! Snapshot codecs for the online wrapper's per-vertex state.
//!
//! The engine's checkpoint machinery ([`ariadne_vc::Snapshot`]) is
//! generic over the vertex value and message types; this module teaches
//! it to serialize [`OnlineState`] and [`OnlineMsg`], so online and
//! capture runs can checkpoint at barriers and resume bit-identically
//! after a crash (the query partition — database, delta frontiers,
//! activation history, shipping and persistence marks — is part of the
//! recovered state, not recomputed).
//!
//! PQL values are foreign to the engine crate, so their codec lives here
//! as free functions: one tag byte per [`Value`] variant, little-endian
//! fixed-width payloads, length-prefixed strings and lists (same layout
//! conventions as the engine's own snapshot primitives).

use crate::online::{OnlineMsg, OnlineState, Payload};
use crate::state::QueryState;
use ariadne_pql::eval::seminaive::EvalState;
use ariadne_pql::{Database, Tuple, Value};
use ariadne_provenance::edb::EdbTracker;
use ariadne_vc::{SnapError, Snapshot};
use std::sync::Arc;

const TAG_ID: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_BOOL: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_LIST: u8 = 5;
const TAG_UNIT: u8 = 6;

/// Serialize one PQL value.
pub fn write_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Id(x) => {
            TAG_ID.write_snap(out);
            x.write_snap(out);
        }
        Value::Int(x) => {
            TAG_INT.write_snap(out);
            x.write_snap(out);
        }
        Value::Float(x) => {
            TAG_FLOAT.write_snap(out);
            x.write_snap(out);
        }
        Value::Bool(x) => {
            TAG_BOOL.write_snap(out);
            x.write_snap(out);
        }
        Value::Str(s) => {
            TAG_STR.write_snap(out);
            s.to_string().write_snap(out);
        }
        Value::List(items) => {
            TAG_LIST.write_snap(out);
            (items.len() as u64).write_snap(out);
            for item in items.iter() {
                write_value(item, out);
            }
        }
        Value::Unit => TAG_UNIT.write_snap(out),
    }
}

/// Deserialize one PQL value.
pub fn read_value(input: &mut &[u8]) -> Result<Value, SnapError> {
    match u8::read_snap(input)? {
        TAG_ID => Ok(Value::Id(u64::read_snap(input)?)),
        TAG_INT => Ok(Value::Int(i64::read_snap(input)?)),
        TAG_FLOAT => Ok(Value::Float(f64::read_snap(input)?)),
        TAG_BOOL => Ok(Value::Bool(bool::read_snap(input)?)),
        TAG_STR => Ok(Value::str(&String::read_snap(input)?)),
        TAG_LIST => {
            let n = u64::read_snap(input)? as usize;
            if n > input.len() {
                return Err(SnapError::BadLength(n as u64));
            }
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(read_value(input)?);
            }
            Ok(Value::List(Arc::new(items)))
        }
        TAG_UNIT => Ok(Value::Unit),
        t => Err(SnapError::BadTag(t)),
    }
}

fn write_tuple(t: &Tuple, out: &mut Vec<u8>) {
    (t.len() as u64).write_snap(out);
    for v in t {
        write_value(v, out);
    }
}

fn read_tuple(input: &mut &[u8]) -> Result<Tuple, SnapError> {
    let n = u64::read_snap(input)? as usize;
    if n > input.len() {
        return Err(SnapError::BadLength(n as u64));
    }
    let mut t = Vec::with_capacity(n);
    for _ in 0..n {
        t.push(read_value(input)?);
    }
    Ok(t)
}

fn write_tuples(tuples: &[Tuple], out: &mut Vec<u8>) {
    (tuples.len() as u64).write_snap(out);
    for t in tuples {
        write_tuple(t, out);
    }
}

fn read_tuples(input: &mut &[u8]) -> Result<Vec<Tuple>, SnapError> {
    let n = u64::read_snap(input)? as usize;
    if n > input.len() {
        return Err(SnapError::BadLength(n as u64));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(read_tuple(input)?);
    }
    Ok(out)
}

/// Serialize a database preserving both relation name order and tuple
/// insertion order, so shipping/persistence marks (scan indices) stay
/// valid after a restore.
pub fn write_database(db: &Database, out: &mut Vec<u8>) {
    let rels: Vec<_> = db.iter().collect();
    (rels.len() as u64).write_snap(out);
    for (name, rel) in rels {
        name.to_string().write_snap(out);
        (rel.arity() as u64).write_snap(out);
        write_tuples(rel.scan(), out);
    }
}

/// Deserialize a database written by [`write_database`].
pub fn read_database(input: &mut &[u8]) -> Result<Database, SnapError> {
    let nrels = u64::read_snap(input)? as usize;
    if nrels > input.len() {
        return Err(SnapError::BadLength(nrels as u64));
    }
    let mut db = Database::new();
    for _ in 0..nrels {
        let name = String::read_snap(input)?;
        let arity = u64::read_snap(input)? as usize;
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
        let (frontiers, scan_free, aggs) = self.eval.to_parts();
        frontiers.write_snap(out);
        scan_free.write_snap(out);
        aggs.write_snap(out);
        self.tracker.last_active().write_snap(out);
        let marks: Vec<(String, usize)> = self
            .ship_marks
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        marks.write_snap(out);
        let marks: Vec<(String, usize)> = self
            .persist_marks
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        marks.write_snap(out);
        self.statics_done.write_snap(out);
    }

    fn read_snap(input: &mut &[u8]) -> Result<Self, SnapError> {
        let db = read_database(input)?;
        let frontiers = Vec::<(usize, String, usize)>::read_snap(input)?;
        let scan_free = Vec::<usize>::read_snap(input)?;
        let aggs = Vec::<(usize, usize)>::read_snap(input)?;
        let last_active = Option::<u32>::read_snap(input)?;
        let ship_marks = Vec::<(String, usize)>::read_snap(input)?;
        let persist_marks = Vec::<(String, usize)>::read_snap(input)?;
        let statics_done = bool::read_snap(input)?;
        Ok(QueryState {
            db,
            eval: EvalState::from_parts(frontiers, scan_free, aggs),
            tracker: EdbTracker::from_last_active(last_active),
            ship_marks: ship_marks.into_iter().collect(),
            persist_marks: persist_marks.into_iter().collect(),
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
        let vals = vec![
            Value::Id(7),
            Value::Int(-3),
            Value::Float(2.5),
            Value::Bool(true),
            Value::str("hello"),
            Value::List(Arc::new(vec![Value::Int(1), Value::Unit])),
            Value::Unit,
        ];
        for v in &vals {
            let mut buf = Vec::new();
            write_value(v, &mut buf);
            let mut input = buf.as_slice();
            assert_eq!(&read_value(&mut input).unwrap(), v);
            assert!(input.is_empty());
        }
    }

    #[test]
    fn nan_float_roundtrips_bitwise() {
        let mut buf = Vec::new();
        write_value(&Value::Float(f64::NAN), &mut buf);
        let mut input = buf.as_slice();
        match read_value(&mut input).unwrap() {
            Value::Float(f) => assert!(f.is_nan()),
            other => panic!("expected float, got {other:?}"),
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
        let buf = vec![0xFFu8];
        let mut input = buf.as_slice();
        assert!(matches!(
            read_value(&mut input),
            Err(SnapError::BadTag(0xFF))
        ));
    }
}
