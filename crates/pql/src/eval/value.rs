//! The dynamic value type flowing through PQL relations.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A PQL value: vertex ids, numbers, booleans, strings and small vectors
/// (ALS feature vectors travel through provenance as `List`s).
///
/// `Value` implements total `Ord`/`Eq`/`Hash` (floats via
/// [`f64::total_cmp`] / bit patterns) so relations can be deterministic
/// ordered sets.
#[derive(Clone, Debug)]
pub enum Value {
    /// A vertex id (kept distinct from `Int` so ids never mix with
    /// supersteps or data in comparisons).
    Id(u64),
    /// Integer data (supersteps, counts, labels).
    Int(i64),
    /// Floating-point data (ranks, distances, errors).
    Float(f64),
    /// Booleans.
    Bool(bool),
    /// Interned strings.
    Str(Arc<str>),
    /// Vectors (e.g. ALS feature vectors).
    List(Arc<Vec<Value>>),
    /// The unit value used when an analytic's messages carry no payload.
    Unit,
}

impl Value {
    /// String constructor.
    pub fn str(s: &str) -> Value {
        Value::Str(Arc::from(s))
    }

    /// List constructor from f64s (the common ALS case).
    pub fn floats(v: &[f64]) -> Value {
        Value::List(Arc::new(v.iter().map(|&x| Value::Float(x)).collect()))
    }

    /// Numeric view as f64 (Int and Float only).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view (Int only).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Vertex-id view (Id only).
    pub fn as_id(&self) -> Option<u64> {
        match self {
            Value::Id(v) => Some(*v),
            _ => None,
        }
    }

    /// List view.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(v) => Some(v),
            _ => None,
        }
    }

    /// Numeric view for *comparisons*: unlike [`Value::as_f64`], vertex
    /// ids participate, so `x = 0` in query text matches vertex 0.
    fn cmp_f64(&self) -> Option<f64> {
        match self {
            Value::Id(v) => Some(*v as f64),
            _ => self.as_f64(),
        }
    }

    /// Whether two values are numerically equal (Int 1 equals Float 1.0,
    /// and a vertex-id constant written as an integer matches the id).
    pub fn num_eq(&self, other: &Value) -> bool {
        match (self.cmp_f64(), other.cmp_f64()) {
            (Some(a), Some(b)) => a == b,
            _ => self == other,
        }
    }

    /// Numeric comparison with Int/Float/Id promotion; `None` when either
    /// side is non-numeric and the values are not identically typed.
    pub fn num_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self.cmp_f64(), other.cmp_f64()) {
            (Some(a), Some(b)) => Some(a.total_cmp(&b)),
            _ => {
                if std::mem::discriminant(self) == std::mem::discriminant(other) {
                    Some(self.cmp(other))
                } else {
                    None
                }
            }
        }
    }

    /// Approximate heap + inline footprint in bytes, for the provenance
    /// size accounting of Tables 3 and 4.
    pub fn byte_size(&self) -> usize {
        let inline = std::mem::size_of::<Value>();
        match self {
            Value::Str(s) => inline + s.len(),
            Value::List(v) => inline + v.iter().map(Value::byte_size).sum::<usize>(),
            _ => inline,
        }
    }

    fn rank(&self) -> u8 {
        match self {
            Value::Id(_) => 0,
            Value::Int(_) => 1,
            Value::Float(_) => 2,
            Value::Bool(_) => 3,
            Value::Str(_) => 4,
            Value::List(_) => 5,
            Value::Unit => 6,
        }
    }
}

impl PartialEq for Value {
    /// Agrees with [`Ord::cmp`] (`total_cmp` is `Equal` exactly on equal
    /// bit patterns); spelled out because joins and dedup compare values
    /// far more often than anything orders them.
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Id(a), Id(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (Float(a), Float(b)) => a.to_bits() == b.to_bits(),
            (Bool(a), Bool(b)) => a == b,
            (Str(a), Str(b)) => a == b,
            (List(a), List(b)) => a == b,
            (Unit, Unit) => true,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Id(a), Id(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (List(a), List(b)) => a.cmp(b),
            (Unit, Unit) => Ordering::Equal,
            (a, b) => a.rank().cmp(&b.rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.rank().hash(state);
        match self {
            Value::Id(v) => v.hash(state),
            Value::Int(v) => v.hash(state),
            Value::Float(v) => v.to_bits().hash(state),
            Value::Bool(v) => v.hash(state),
            Value::Str(v) => v.hash(state),
            Value::List(v) => v.hash(state),
            Value::Unit => {}
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Id(v) => write!(f, "v{v}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v:?}"),
            Value::List(v) => {
                write!(f, "[")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, "]")
            }
            Value::Unit => write!(f, "()"),
        }
    }
}

/// Arithmetic on values with Int/Float promotion. Division always
/// produces a Float (the paper's `avg_error` divides a sum by a count).
pub fn arith(op: crate::ast::ArithOp, a: &Value, b: &Value) -> Option<Value> {
    use crate::ast::ArithOp::*;
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Some(match op {
            Add => Value::Int(x + y),
            Sub => Value::Int(x - y),
            Mul => Value::Int(x * y),
            Div => Value::Float(*x as f64 / *y as f64),
        }),
        _ => {
            let (x, y) = (a.as_f64()?, b.as_f64()?);
            Some(Value::Float(match op {
                Add => x + y,
                Sub => x - y,
                Mul => x * y,
                Div => x / y,
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ArithOp;

    #[test]
    fn ordering_is_total() {
        let mut vals = [Value::Float(2.0),
            Value::Id(1),
            Value::Int(3),
            Value::Bool(true),
            Value::str("a"),
            Value::Unit,
            Value::Float(f64::NAN)];
        vals.sort(); // must not panic
        assert_eq!(vals[0], Value::Id(1));
    }

    #[test]
    fn float_nan_is_hashable_and_equal_to_itself() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(Value::Float(f64::NAN));
        assert!(!s.insert(Value::Float(f64::NAN)));
    }

    #[test]
    fn id_and_int_are_distinct_for_storage_but_compare_numerically() {
        // Strict equality (joins, dedup) keeps them apart...
        assert_ne!(Value::Id(3), Value::Int(3));
        // ...but comparisons written in query text promote.
        assert!(Value::Id(3).num_eq(&Value::Int(3)));
        assert_eq!(
            Value::Id(1).num_cmp(&Value::Int(2)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn numeric_promotion() {
        assert!(Value::Int(1).num_eq(&Value::Float(1.0)));
        assert_eq!(
            Value::Int(1).num_cmp(&Value::Float(2.0)),
            Some(Ordering::Less)
        );
        assert_eq!(Value::str("a").num_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(
            arith(ArithOp::Sub, &Value::Int(5), &Value::Int(2)),
            Some(Value::Int(3))
        );
        assert_eq!(
            arith(ArithOp::Add, &Value::Float(1.5), &Value::Int(1)),
            Some(Value::Float(2.5))
        );
        assert_eq!(
            arith(ArithOp::Div, &Value::Int(1), &Value::Int(2)),
            Some(Value::Float(0.5))
        );
        assert_eq!(arith(ArithOp::Add, &Value::Bool(true), &Value::Int(1)), None);
    }

    #[test]
    fn byte_sizes() {
        assert!(Value::Int(1).byte_size() > 0);
        assert!(Value::str("hello").byte_size() > Value::Int(1).byte_size());
        assert!(Value::floats(&[1.0, 2.0]).byte_size() > Value::Float(1.0).byte_size());
    }

    #[test]
    fn display() {
        assert_eq!(Value::Id(4).to_string(), "v4");
        assert_eq!(Value::floats(&[1.0]).to_string(), "[1]");
        assert_eq!(Value::Unit.to_string(), "()");
    }
}
