//! Compiling PQL source into an executable query.

use ariadne_obs::trace::{self, Level};
use ariadne_pql::{analyze, parse, Catalog, Evaluator, Params, PqlError, UdfRegistry};
use std::sync::Arc;

/// A compiled PQL query: the analyzed program plus its UDFs, shareable
/// across threads and evaluation modes.
#[derive(Clone, Debug)]
pub struct CompiledQuery {
    evaluator: Arc<Evaluator>,
    source: String,
}

impl CompiledQuery {
    /// The evaluator (analysis results live on `evaluator().query()`).
    pub fn evaluator(&self) -> &Arc<Evaluator> {
        &self.evaluator
    }

    /// The analyzed query.
    pub fn query(&self) -> &ariadne_pql::AnalyzedQuery {
        self.evaluator.query()
    }

    /// The communication classification (which modes are legal).
    pub fn direction(&self) -> ariadne_pql::Direction {
        self.query().direction
    }

    /// The original source text.
    pub fn source(&self) -> &str {
        &self.source
    }
}

/// Compile PQL source with the standard catalog and UDFs.
pub fn compile(source: &str, params: Params) -> Result<CompiledQuery, PqlError> {
    compile_with(
        source,
        params,
        &Catalog::standard(),
        UdfRegistry::standard(),
    )
}

/// Compile PQL source against a custom catalog (extra EDBs registered for
/// analytic-specific provenance or captured relations) and UDF registry.
pub fn compile_with(
    source: &str,
    params: Params,
    catalog: &Catalog,
    udfs: UdfRegistry,
) -> Result<CompiledQuery, PqlError> {
    let _compile_span = trace::span(
        Level::Debug,
        "pql",
        "compile",
        &[("source_bytes", source.len().into())],
    );
    let parse_span = trace::span(Level::Trace, "pql", "parse", &[]);
    let program = parse(source)?;
    drop(parse_span);
    let plan_span = trace::span(Level::Trace, "pql", "plan", &[]);
    let analyzed = analyze(&program, catalog, &params)?;
    drop(plan_span);
    Ok(CompiledQuery {
        evaluator: Arc::new(Evaluator::new(analyzed, udfs)),
        source: source.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariadne_pql::Direction;

    #[test]
    fn compiles_and_classifies() {
        let q = compile(
            "problem(x, i) :- value(x, d1, i), value(x, d2, j), evolution(x, j, i), d1 > d2.",
            Params::new(),
        )
        .unwrap();
        assert_eq!(q.direction(), Direction::Local);
        assert!(q.source().contains("problem"));
    }

    #[test]
    fn bad_source_errors() {
        assert!(compile("nonsense", Params::new()).is_err());
    }

    #[test]
    fn custom_catalog() {
        let mut cat = Catalog::standard();
        cat.register("prov_error", 4);
        let q = compile_with(
            "bad(x, i) :- prov_error(x, y, i, e), e > 5.",
            Params::new(),
            &cat,
            UdfRegistry::standard(),
        )
        .unwrap();
        assert!(q.query().edbs.contains("prov_error"));
    }
}
