//! Plain-text edge-list IO.
//!
//! Format: one edge per line, `src dst [weight]`, whitespace separated.
//! Lines starting with `#` or `%` are comments (both conventions appear in
//! the SNAP and WebGraph ecosystems the paper's datasets come from).

use crate::builder::GraphBuilder;
use crate::csr::Csr;
use crate::types::VertexId;
use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Errors from edge-list parsing.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// A line that is neither a comment nor a valid edge.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of what went wrong.
        message: String,
    },
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Parse an edge list from any reader.
pub fn read_edge_list<R: BufRead>(reader: R) -> Result<Csr, IoError> {
    let mut b = GraphBuilder::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let src = parse_vertex(parts.next(), idx + 1, "source")?;
        let dst = parse_vertex(parts.next(), idx + 1, "destination")?;
        let weight = match parts.next() {
            None => 1.0,
            Some(w) => w.parse::<f64>().map_err(|e| IoError::Parse {
                line: idx + 1,
                message: format!("bad weight {w:?}: {e}"),
            })?,
        };
        if parts.next().is_some() {
            return Err(IoError::Parse {
                line: idx + 1,
                message: "trailing fields after weight".into(),
            });
        }
        b.add_edge(src, dst, weight);
    }
    Ok(b.build())
}

fn parse_vertex(tok: Option<&str>, line: usize, what: &str) -> Result<VertexId, IoError> {
    let tok = tok.ok_or_else(|| IoError::Parse {
        line,
        message: format!("missing {what} vertex"),
    })?;
    tok.parse::<u64>()
        .map(VertexId)
        .map_err(|e| IoError::Parse {
            line,
            message: format!("bad {what} vertex {tok:?}: {e}"),
        })
}

/// Load an edge list from a file path.
pub fn load_edge_list<P: AsRef<Path>>(path: P) -> Result<Csr, IoError> {
    read_edge_list(BufReader::new(File::open(path)?))
}

/// Write a graph as an edge list to any writer. Unit weights are omitted.
pub fn write_edge_list<W: Write>(graph: &Csr, mut w: W) -> io::Result<()> {
    writeln!(
        w,
        "# {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    )?;
    for (s, d, weight) in graph.edges() {
        if weight == 1.0 {
            writeln!(w, "{s} {d}")?;
        } else {
            writeln!(w, "{s} {d} {weight}")?;
        }
    }
    Ok(())
}

/// Save a graph as an edge list to a file path.
pub fn save_edge_list<P: AsRef<Path>>(graph: &Csr, path: P) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    write_edge_list(graph, &mut w)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic() {
        let text = "# comment\n0 1\n1 2 0.5\n\n% another comment\n2 0\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.edge_weight(VertexId(1), VertexId(2)), Some(0.5));
        assert_eq!(g.edge_weight(VertexId(0), VertexId(1)), Some(1.0));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = read_edge_list("0 1\nnope 2\n".as_bytes()).unwrap_err();
        match err {
            IoError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn missing_destination_is_an_error() {
        assert!(read_edge_list("0\n".as_bytes()).is_err());
    }

    #[test]
    fn trailing_fields_rejected() {
        assert!(read_edge_list("0 1 2.0 extra\n".as_bytes()).is_err());
    }

    #[test]
    fn roundtrip() {
        let mut b = GraphBuilder::new();
        b.add_edge(VertexId(0), VertexId(1), 1.0);
        b.add_edge(VertexId(1), VertexId(2), 2.5);
        let g = b.build();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(
            g.edges().collect::<Vec<_>>(),
            g2.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("ariadne-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("g.txt");
        let g = crate::generators::regular::cycle(5);
        save_edge_list(&g, &p).unwrap();
        let g2 = load_edge_list(&p).unwrap();
        assert_eq!(g.num_edges(), g2.num_edges());
        std::fs::remove_file(&p).ok();
    }
}
