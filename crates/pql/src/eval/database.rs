//! A named collection of relations plus the delta bookkeeping the
//! semi-naive evaluator needs.
//!
//! The same `Database` type backs every evaluation mode: the centralized
//! naive evaluator loads all provenance at once; Ariadne's online and
//! layered modes keep one small `Database` per vertex and feed it EDB
//! tuples superstep by superstep (or layer by layer).

use crate::eval::relation::{Relation, Tuple};
use std::collections::BTreeMap;

/// A database: predicate name → relation, with per-predicate frontiers
/// that let the evaluator treat "tuples since I last looked" as deltas.
#[derive(Clone, Debug, Default)]
pub struct Database {
    relations: BTreeMap<String, Relation>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensure relation `name` exists with the given arity and return it.
    pub fn relation_mut(&mut self, name: &str, arity: usize) -> &mut Relation {
        // `entry` wants an owned key; only the first insert of a
        // predicate pays for one.
        if !self.relations.contains_key(name) {
            self.relations.insert(name.to_string(), Relation::new(arity));
        }
        self.relations.get_mut(name).expect("present or just inserted")
    }

    /// The relation named `name`, if it exists.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    /// Insert a tuple, creating the relation if needed. Returns true if
    /// the tuple was new.
    pub fn insert(&mut self, name: &str, tuple: Tuple) -> bool {
        let arity = tuple.len();
        self.relation_mut(name, arity).insert(tuple)
    }

    /// Number of tuples in `name` (0 if absent).
    pub fn len(&self, name: &str) -> usize {
        self.relations.get(name).map(Relation::len).unwrap_or(0)
    }

    /// Whether the whole database is empty.
    pub fn is_empty(&self) -> bool {
        self.relations.values().all(Relation::is_empty)
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

    /// Remove tuples failing `keep` from relation `name` (no-op if the
    /// relation is absent). Returns the number of tuples removed. See
    /// [`Relation::retain`] for the frontier-invalidation caveat.
    pub fn retain(&mut self, name: &str, keep: impl FnMut(&Tuple) -> bool) -> usize {
        self.relations
            .get_mut(name)
            .map(|r| r.retain(keep))
            .unwrap_or(0)
    }

    /// Drop every tuple of relation `name`, keeping its arity (no-op if
    /// absent).
    pub fn clear(&mut self, name: &str) {
        if let Some(r) = self.relations.get_mut(name) {
            r.clear();
        }
    }

    /// Remove relation `name` entirely (the maintenance path uses this to
    /// drop its transient `~del~` shadow relations when done).
    pub fn remove_relation(&mut self, name: &str) -> bool {
        self.relations.remove(name).is_some()
    }

    /// Total payload bytes across all relations (Tables 3–4 accounting).
    pub fn byte_size(&self) -> usize {
        self.relations.values().map(Relation::byte_size).sum()
    }

    /// Total tuple count across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
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
