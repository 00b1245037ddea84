//! Typed errors for the whole Mixen workspace.
//!
//! Every fallible path in ingestion, validation, and supervised execution
//! surfaces a [`GraphError`] instead of panicking; see DESIGN.md §"Error
//! handling & degradation contract" for the full taxonomy.

use std::fmt;
use std::io;

/// Result alias used across the workspace for graph-related fallible APIs.
pub type Result<T> = std::result::Result<T, GraphError>;

/// Everything that can go wrong while ingesting, validating, or running a
/// graph workload.
#[derive(Debug)]
pub enum GraphError {
    /// Underlying I/O failure (missing file, truncated stream, permission).
    Io(io::Error),
    /// The container is not a recognized Mixen format (bad magic, bad
    /// version, malformed header).
    Format(String),
    /// A text edge list failed to parse; `line` is 1-based.
    Parse { line: usize, msg: String },
    /// A structural CSR invariant does not hold (non-monotone `ptr`,
    /// out-of-range `idx`, length mismatch).
    Invariant(String),
    /// An untrusted size declaration exceeds what this build will allocate.
    Capacity {
        what: &'static str,
        requested: u64,
        limit: u64,
    },
    /// Payload checksum mismatch: the bytes were damaged in storage or
    /// transit.
    Checksum { stored: u32, computed: u32 },
    /// A supervised run detected NaN/Inf values or divergence.
    Numeric { iteration: usize, msg: String },
    /// A supervised run exceeded its wall-clock deadline. The run stops
    /// before the next iteration; if checkpointing is enabled the last state
    /// is durable, so the run can be resumed with a fresh budget.
    Deadline { elapsed_ms: u64, budget_ms: u64 },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Io(e) => write!(f, "io error: {e}"),
            GraphError::Format(msg) => write!(f, "format error: {msg}"),
            GraphError::Parse { line, msg } => write!(f, "parse error on line {line}: {msg}"),
            GraphError::Invariant(msg) => write!(f, "invariant violation: {msg}"),
            GraphError::Capacity {
                what,
                requested,
                limit,
            } => write!(
                f,
                "capacity exceeded: {what} declares {requested}, limit is {limit}"
            ),
            GraphError::Checksum { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            GraphError::Numeric { iteration, msg } => {
                write!(f, "numeric fault at iteration {iteration}: {msg}")
            }
            GraphError::Deadline {
                elapsed_ms,
                budget_ms,
            } => write!(
                f,
                "deadline exceeded: {elapsed_ms} ms elapsed against a budget of {budget_ms} ms"
            ),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for GraphError {
    fn from(e: io::Error) -> Self {
        GraphError::Io(e)
    }
}

impl GraphError {
    /// Short machine-friendly tag for logs and CLI messages.
    pub fn kind_name(&self) -> &'static str {
        match self {
            GraphError::Io(_) => "io",
            GraphError::Format(_) => "format",
            GraphError::Parse { .. } => "parse",
            GraphError::Invariant(_) => "invariant",
            GraphError::Capacity { .. } => "capacity",
            GraphError::Checksum { .. } => "checksum",
            GraphError::Numeric { .. } => "numeric",
            GraphError::Deadline { .. } => "deadline",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_context() {
        let e = GraphError::Capacity {
            what: "node count",
            requested: 1 << 40,
            limit: 1 << 31,
        };
        let s = e.to_string();
        assert!(s.contains("node count"), "{s}");
        assert!(s.contains(&(1u64 << 40).to_string()), "{s}");

        let e = GraphError::Parse {
            line: 7,
            msg: "bad token".into(),
        };
        assert!(e.to_string().contains("line 7"));
    }

    #[test]
    fn io_errors_convert_and_chain() {
        let e: GraphError = io::Error::new(io::ErrorKind::UnexpectedEof, "eof").into();
        assert_eq!(e.kind_name(), "io");
        assert!(std::error::Error::source(&e).is_some());
    }
}
