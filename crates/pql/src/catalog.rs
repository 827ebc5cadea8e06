//! The EDB predicate catalog (Table 1 of the paper, plus graph-structure
//! predicates and analytic-specific custom provenance relations).

use std::collections::BTreeMap;

/// Schema of one EDB predicate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdbSchema {
    /// Predicate name.
    pub name: String,
    /// Number of arguments, including the location specifier.
    pub arity: usize,
    /// Which argument is the location specifier (vertex the tuples live
    /// at). Always 0 for the built-ins.
    pub location: usize,
    /// For message predicates: which argument names the *other* endpoint
    /// of the communication (the sender of `receive_message`, the
    /// receiver of `send_message`). Used by the VC-compatibility and
    /// directedness analyses (Definitions 4.1 and 5.2).
    pub peer: Option<usize>,
    /// Whether this predicate certifies communication between its
    /// location and peer, and in which direction. `send_message` and
    /// `receive_message` have this set; custom captured relations that
    /// encode communication (the paper's Query 12 uses `prov_edges` +
    /// `prov_send` in place of `send_message`) can be registered with it.
    pub kind: Option<MessageKind>,
    /// Which argument holds the superstep of the row, for predicates
    /// whose rows a capture stores at the layer of that superstep. Layer
    /// bounds ([`crate::analysis::Layers`]) are inferred through it;
    /// without it a predicate's rows are read at every layer.
    pub superstep: Option<usize>,
    /// One-line description.
    pub doc: &'static str,
}

/// The direction a message predicate grants communication in.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MessageKind {
    /// `receive_message(x, y, m, i)`: x hears from its in-neighbour y.
    Receive,
    /// `send_message(x, y, m, i)`: x spoke to its out-neighbour y.
    Send,
}

/// The catalog of EDB predicates a query may reference.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    edbs: BTreeMap<String, EdbSchema>,
}

impl Catalog {
    /// The standard catalog: the provenance EDBs of Table 1 plus graph
    /// structure (`edge`, `in_edge`) and the raw capture-source
    /// predicates used by capture rules (Query 2).
    pub fn standard() -> Self {
        let mut c = Catalog::default();
        let defs: [(&str, usize, Option<usize>, &'static str); 10] = [
            (
                "superstep",
                2,
                None,
                "superstep(x, i): vertex x was active at superstep i",
            ),
            (
                "value",
                3,
                None,
                "value(x, d, i): vertex x had value d at superstep i",
            ),
            (
                "evolution",
                3,
                None,
                "evolution(x, i, j): x active at supersteps i then j, i the predecessor",
            ),
            (
                "send_message",
                4,
                Some(1),
                "send_message(x, y, m, i): x sent m to out-neighbour y at superstep i",
            ),
            (
                "receive_message",
                4,
                Some(1),
                "receive_message(x, y, m, i): x received m from in-neighbour y at superstep i",
            ),
            (
                "edge_value",
                4,
                Some(1),
                "edge_value(x, y, d, i): the edge x->y had value d at superstep i",
            ),
            ("edge", 2, Some(1), "edge(x, y): the input graph has edge x->y"),
            (
                "in_edge",
                2,
                Some(1),
                "in_edge(x, y): the input graph has edge y->x (stored at x)",
            ),
            (
                "vertex_value",
                2,
                None,
                "vertex_value(x, d): transient current value during capture",
            ),
            (
                "prov_node",
                2,
                None,
                "prov_node(x, i): node (x, i) exists in the unfolded provenance graph",
            ),
        ];
        for (name, arity, peer, doc) in defs {
            let kind = match name {
                "send_message" => Some(MessageKind::Send),
                "receive_message" => Some(MessageKind::Receive),
                _ => None,
            };
            let superstep = match name {
                "superstep" => Some(1),
                "value" | "evolution" => Some(2),
                "send_message" | "receive_message" | "edge_value" => Some(3),
                _ => None,
            };
            c.edbs.insert(
                name.to_string(),
                EdbSchema {
                    name: name.to_string(),
                    arity,
                    location: 0,
                    peer,
                    kind,
                    superstep,
                    doc,
                },
            );
        }
        c
    }

    /// Register a custom EDB (e.g. ALS's `prov_error(x, y, i, e)`).
    pub fn register(&mut self, name: &str, arity: usize) -> &mut Self {
        self.edbs.insert(
            name.to_string(),
            EdbSchema {
                name: name.to_string(),
                arity,
                location: 0,
                peer: None,
                kind: None,
                superstep: None,
                doc: "custom provenance relation",
            },
        );
        self
    }

    /// Register a custom EDB that certifies communication (peer column +
    /// direction), granting it guard status in the directedness analysis.
    /// The paper's Query 12 runs backward lineage over captured
    /// `prov_edges(x, y)` tuples registered this way.
    pub fn register_message_like(
        &mut self,
        name: &str,
        arity: usize,
        peer: usize,
        kind: MessageKind,
    ) -> &mut Self {
        self.edbs.insert(
            name.to_string(),
            EdbSchema {
                name: name.to_string(),
                arity,
                location: 0,
                peer: Some(peer),
                kind: Some(kind),
                superstep: None,
                doc: "custom communication-certifying relation",
            },
        );
        self
    }

    /// Look up a predicate.
    pub fn get(&self, name: &str) -> Option<&EdbSchema> {
        self.edbs.get(name)
    }

    /// Whether `name` is an EDB predicate.
    pub fn is_edb(&self, name: &str) -> bool {
        self.edbs.contains_key(name)
    }

    /// If `name` certifies communication, which kind.
    pub fn message_kind(&self, name: &str) -> Option<MessageKind> {
        self.edbs.get(name).and_then(|s| s.kind)
    }

    /// Iterate all registered EDBs (sorted by name; deterministic).
    pub fn iter(&self) -> impl Iterator<Item = &EdbSchema> {
        self.edbs.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_contains_table1() {
        let c = Catalog::standard();
        for name in [
            "superstep",
            "value",
            "evolution",
            "send_message",
            "receive_message",
        ] {
            assert!(c.is_edb(name), "missing {name}");
        }
        assert_eq!(c.get("value").unwrap().arity, 3);
        assert_eq!(c.get("receive_message").unwrap().peer, Some(1));
    }

    #[test]
    fn superstep_columns_of_table1() {
        let c = Catalog::standard();
        let col = |name: &str| c.get(name).unwrap().superstep;
        assert_eq!(col("superstep"), Some(1));
        assert_eq!(col("value"), Some(2));
        assert_eq!(col("evolution"), Some(2));
        for name in ["send_message", "receive_message", "edge_value"] {
            assert_eq!(col(name), Some(3), "{name}");
        }
        for name in ["edge", "in_edge", "vertex_value", "prov_node"] {
            assert_eq!(col(name), None, "{name}");
        }
        let mut custom = Catalog::standard();
        custom.register("prov_error", 4);
        assert_eq!(custom.get("prov_error").unwrap().superstep, None);
    }

    #[test]
    fn message_kinds() {
        let c = Catalog::standard();
        assert_eq!(c.message_kind("receive_message"), Some(MessageKind::Receive));
        assert_eq!(c.message_kind("send_message"), Some(MessageKind::Send));
        assert_eq!(c.message_kind("value"), None);
    }

    #[test]
    fn custom_registration() {
        let mut c = Catalog::standard();
        c.register("prov_error", 4);
        assert!(c.is_edb("prov_error"));
        assert_eq!(c.get("prov_error").unwrap().arity, 4);
        assert_eq!(c.message_kind("prov_error"), None);
    }

    #[test]
    fn message_like_registration() {
        let mut c = Catalog::standard();
        c.register_message_like("prov_edges", 2, 1, MessageKind::Send);
        assert_eq!(c.message_kind("prov_edges"), Some(MessageKind::Send));
        assert_eq!(c.get("prov_edges").unwrap().peer, Some(1));
    }

    #[test]
    fn iteration_is_sorted() {
        let c = Catalog::standard();
        let names: Vec<_> = c.iter().map(|s| s.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }
}
