//! A named collection of relations plus the delta bookkeeping the
//! semi-naive evaluator needs.
//!
//! The same `Database` type backs every evaluation mode: the centralized
//! naive evaluator loads all provenance at once; Ariadne's online and
//! layered modes keep one small `Database` per vertex and feed it EDB
//! tuples superstep by superstep (or layer by layer).

use crate::eval::relation::{Relation, Tuple};

/// A database: predicate name → relation.
///
/// Relations sit in one vector sorted by name, so iteration is in name
/// order and a relation also has a *position*. The evaluator resolves the
/// predicates of its rule plans to positions once per step and reaches
/// relations by index from then on; a position stays valid until a
/// relation is added (relations are never removed).
#[derive(Clone, Debug, Default)]
pub struct Database {
    relations: Vec<(String, Relation)>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Where `name` sits (`Ok`) or would be inserted (`Err`).
    fn search(&self, name: &str) -> Result<usize, usize> {
        self.relations.binary_search_by(|(n, _)| n.as_str().cmp(name))
    }

    /// Ensure relation `name` exists with the given arity and return it.
    pub fn relation_mut(&mut self, name: &str, arity: usize) -> &mut Relation {
        let at = match self.search(name) {
            Ok(at) => at,
            Err(at) => {
                self.relations.insert(at, (name.to_string(), Relation::new(arity)));
                at
            }
        };
        &mut self.relations[at].1
    }

    /// The relation named `name`, if it exists.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.position(name).map(|at| self.at(at))
    }

    /// The position of relation `name`, if it exists.
    pub(crate) fn position(&self, name: &str) -> Option<usize> {
        self.search(name).ok()
    }

    /// The name of the relation at `position`, if there is one.
    pub(crate) fn name_at(&self, position: usize) -> Option<&str> {
        self.relations.get(position).map(|(n, _)| n.as_str())
    }

    /// The relation at `position`.
    pub(crate) fn at(&self, position: usize) -> &Relation {
        &self.relations[position].1
    }

    /// The relation at `position`, mutably.
    pub(crate) fn at_mut(&mut self, position: usize) -> &mut Relation {
        &mut self.relations[position].1
    }

    /// Insert a tuple, creating the relation if needed. Returns true if
    /// the tuple was new.
    pub fn insert(&mut self, name: &str, tuple: Tuple) -> bool {
        let arity = tuple.len();
        self.relation_mut(name, arity).insert(tuple)
    }

    /// Number of tuples in `name` (0 if absent).
    pub fn len(&self, name: &str) -> usize {
        self.relation(name).map(Relation::len).unwrap_or(0)
    }

    /// Whether the whole database is empty.
    pub fn is_empty(&self) -> bool {
        self.relations.iter().all(|(_, r)| r.is_empty())
    }

    /// Iterate relations in name order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Relation)> {
        self.relations.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Consume the database into its relations, in name order.
    pub fn into_relations(self) -> impl Iterator<Item = (String, Relation)> {
        self.relations.into_iter()
    }

    /// Sorted copy of a relation's tuples — convenient for assertions
    /// and for presenting query results.
    pub fn sorted(&self, name: &str) -> Vec<Tuple> {
        let mut out = self
            .relation(name)
            .map(|r| r.scan().to_vec())
            .unwrap_or_default();
        out.sort();
        out
    }

    /// Total payload bytes across all relations (Tables 3–4 accounting).
    pub fn byte_size(&self) -> usize {
        self.relations.iter().map(|(_, r)| r.byte_size()).sum()
    }

    /// Total tuple count across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.iter().map(|(_, r)| r.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::value::Value;

    #[test]
    fn insert_and_query() {
        let mut db = Database::new();
        assert!(db.insert("p", vec![Value::Int(1)]));
        assert!(!db.insert("p", vec![Value::Int(1)]));
        assert_eq!(db.len("p"), 1);
        assert_eq!(db.len("q"), 0);
        assert!(!db.is_empty());
        assert_eq!(db.total_tuples(), 1);
    }

    #[test]
    fn sorted_view() {
        let mut db = Database::new();
        db.insert("p", vec![Value::Int(3)]);
        db.insert("p", vec![Value::Int(1)]);
        let s = db.sorted("p");
        assert_eq!(s, vec![vec![Value::Int(1)], vec![Value::Int(3)]]);
        assert!(db.sorted("missing").is_empty());
    }

    #[test]
    fn deterministic_iteration() {
        let mut db = Database::new();
        db.insert("zeta", vec![Value::Int(1)]);
        db.insert("alpha", vec![Value::Int(1)]);
        let names: Vec<_> = db.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }
}
