//! PQL — the Provenance Query Language (§4 of the paper).
//!
//! PQL is a Datalog dialect over the provenance EDB predicates of Table 1
//! (`superstep`, `value`, `evolution`, `send_message`, `receive_message`,
//! …), extended with:
//!
//! * a **location specifier**: the first term of every predicate names the
//!   graph vertex whose partition holds the tuple (§4.2);
//! * stratified negation, head aggregates (`count/sum/min/max/avg`),
//!   arithmetic comparisons and boolean UDF calls;
//! * `$name` parameters substituted at analysis time (thresholds, source
//!   vertices, supersteps).
//!
//! The crate contains the whole language pipeline:
//! [`lexer`] → [`parser`] → [`analysis`] (safety, stratification,
//! VC-compatibility per Definition 4.1, forward/backward classification
//! per Definition 5.2) → [`eval`] (a semi-naive evaluator usable both
//! centralized — the paper's *naive offline* mode — and per-vertex inside
//! Ariadne's online and layered modes).
//!
//! # Example
//!
//! ```
//! use ariadne_pql::{analyze, parse, Catalog, Params};
//!
//! let query = parse(
//!     "in_degree(x, count(y)) :- in_edge(x, y).
//!      check_failed(x, y, i) :- in_degree(x, d), receive_message(x, y, m, i), d = 0.",
//! )
//! .unwrap();
//! let analyzed = analyze(&query, &Catalog::standard(), &Params::new()).unwrap();
//! assert!(analyzed.direction.supports_online());
//! ```

pub mod analysis;
pub mod ast;
pub mod catalog;
pub mod display;
pub mod error;
pub mod explain;
pub mod eval;
pub mod lexer;
pub mod parser;

pub use analysis::{analyze, AnalyzedQuery, Direction};
pub use ast::{parse_param_value, Params, Program};
pub use catalog::{Catalog, EdbSchema};
pub use error::PqlError;
pub use explain::explain;
pub use eval::database::Database;
pub use eval::relation::{MulHasher, Relation, Tuple};
pub use eval::plan::EvalScratch;
pub use eval::seminaive::{EvalState, EvalStats, Evaluator};
pub use eval::udf::UdfRegistry;
pub use eval::value::Value;
pub use parser::parse;

/// Run `property` on `cases` generators, case `k` seeded with `seed ^ k`;
/// a failing case panics with its test name, index and seed.
#[cfg(test)]
fn check(name: &str, seed: u64, cases: u64, property: impl Fn(&mut rand::rngs::StdRng)) {
    use rand::SeedableRng;
    for case in 0..cases {
        let seed = seed ^ case;
        let run = || property(&mut rand::rngs::StdRng::seed_from_u64(seed));
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).is_err() {
            panic!("{name} failed at case {case} (seed {seed:#x})");
        }
    }
}
