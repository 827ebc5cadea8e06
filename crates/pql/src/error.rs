//! Diagnostics for the PQL pipeline.

use std::fmt;

/// Any error raised while lexing, parsing, analyzing or evaluating a query.
#[derive(Clone, Debug, PartialEq)]
pub enum PqlError {
    /// Lexical error (bad character, malformed number).
    Lex {
        /// 1-based line.
        line: usize,
        /// 1-based column.
        col: usize,
        /// What went wrong.
        message: String,
    },
    /// Syntax error.
    Parse {
        /// 1-based line.
        line: usize,
        /// 1-based column.
        col: usize,
        /// What went wrong.
        message: String,
    },
    /// Semantic error (safety, stratification, unknown predicates, …).
    Analysis {
        /// The rule's 1-based source line, when attributable.
        line: Option<usize>,
        /// What went wrong.
        message: String,
    },
    /// An evaluation state carries delta frontiers laid out for another
    /// query (a checkpoint resumed under a query it was not taken with).
    FrontierMismatch {
        /// Frontiers the evaluator tracks.
        expected: usize,
        /// Frontiers the state carries.
        found: usize,
    },
}

impl PqlError {
    /// Construct an analysis error tied to a rule line.
    pub fn analysis(line: usize, message: impl Into<String>) -> Self {
        PqlError::Analysis {
            line: Some(line),
            message: message.into(),
        }
    }

    /// Construct an analysis error with no specific location.
    pub fn analysis_global(message: impl Into<String>) -> Self {
        PqlError::Analysis {
            line: None,
            message: message.into(),
        }
    }
}

impl fmt::Display for PqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PqlError::Lex { line, col, message } => {
                write!(f, "lex error at {line}:{col}: {message}")
            }
            PqlError::Parse { line, col, message } => {
                write!(f, "parse error at {line}:{col}: {message}")
            }
            PqlError::Analysis { line: Some(l), message } => {
                write!(f, "analysis error in rule at line {l}: {message}")
            }
            PqlError::Analysis { line: None, message } => {
                write!(f, "analysis error: {message}")
            }
            PqlError::FrontierMismatch { expected, found } => {
                write!(f, "state has {found} delta frontiers, the query tracks {expected}")
            }
        }
    }
}

impl std::error::Error for PqlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = PqlError::Lex {
            line: 2,
            col: 5,
            message: "bad char".into(),
        };
        assert!(e.to_string().contains("2:5"));
        let e = PqlError::analysis(3, "unsafe variable");
        assert!(e.to_string().contains("line 3"));
        let e = PqlError::analysis_global("empty program");
        assert!(e.to_string().contains("empty program"));
    }
}
