//! Query evaluation: values, relations, databases, UDFs, and the
//! semi-naive evaluator shared by every evaluation mode.

pub mod database;
pub mod plan;
pub mod relation;
pub mod seminaive;
pub mod udf;
pub mod value;
