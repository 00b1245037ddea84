//! **Mixen** — connectivity-aware link analysis for skewed graphs.
//!
//! Rust implementation of the framework from *"Connectivity-Aware Link
//! Analysis for Skewed Graphs"* (ICPP 2023). Mixen accelerates iterative
//! link-analysis workloads (SpMV / InDegree, PageRank, Collaborative
//! Filtering) on shared-memory multicores by exploiting the irregular
//! connectivity of power-law graphs:
//!
//! 1. [`filter::FilteredGraph`] relabels nodes by connectivity class
//!    (regular / seed / sink / isolated) and moves hubs to the front,
//!    extracting a mixed CSR/CSC representation in a single scan (§4.1).
//! 2. [`block::BlockedSubgraph`] partitions the regular×regular subgraph
//!    into cache-sized 2-D blocks with propagation bins and edge
//!    compression (§4.2).
//! 3. [`engine::MixenEngine`] schedules the computation into a Pre-Phase
//!    (seed contributions cached into static bins), an iterative Main-Phase
//!    running the Scatter–Cache–Gather–Apply (SCGA) model, and a Post-Phase
//!    that finishes sink nodes once (§4.3).
//! 4. [`model`] provides the paper's §5 analytic memory-traffic and
//!    random-access models.
//!
//! Edge weights are a parameter of that one pipeline ([`weights`]):
//! `MixenEngine::try_weighted` runs the same three phases over a
//! `WGraph` under any `PropValue` semiring.
//!
//! # Quick start
//!
//! ```
//! use mixen_core::{MixenEngine, MixenOpts};
//! use mixen_graph::Graph;
//!
//! // 0,1 regular; 2 seed; 3 sink.
//! let g = Graph::from_pairs(4, &[(0, 1), (1, 0), (2, 0), (1, 3)]);
//! let mut engine = MixenEngine::new(&g, MixenOpts::default());
//! // One InDegree (SpMV) iteration: y = A^T 1.
//! let y = engine.iterate::<f32, _, _>(|_| 1.0, |_, sum| sum, 1);
//! assert_eq!(y, vec![2.0, 1.0, 0.0, 1.0]);
//! ```

pub mod bins;
pub mod block;
pub mod engine;
pub mod filter;
pub mod model;
pub mod obs;
pub mod opts;
pub mod reorder;
pub mod runner;
pub mod scga;
pub mod snap;
pub mod weights;

/// Mutex facade for the concurrency-audited sites (the snapshot and
/// scratch cells): under `model-check` it routes through the `mixen-check`
/// instrumented type so schedule exploration sees every lock; otherwise it
/// is the plain `std::sync::Mutex` re-export and the compiled code is
/// identical to using std directly.
#[cfg(feature = "model-check")]
pub(crate) mod msync {
    pub(crate) use mixen_check::sync::Mutex;
}
#[cfg(not(feature = "model-check"))]
pub(crate) mod msync {
    pub(crate) use std::sync::Mutex;
}

/// Model probes (`model-check` feature): handles that let `mixen-check`
/// tests drive the engine's scratch cell through the instrumented facade.
#[cfg(feature = "model-check")]
pub mod mc {
    pub use crate::engine::mc::ScratchProbe;
}

pub use bins::BinEncoding;
pub use block::BlockedSubgraph;
pub use engine::{MixenEngine, PhaseStats};
pub use filter::FilteredGraph;
pub use model::PerfModel;
pub use obs::{Json, Metrics, MetricsSnapshot, Span};
pub use opts::{MixenOpts, RegularOrdering};
pub use reorder::{ReorderChoice, ReorderPolicy};
pub use runner::{
    DegradationEvent, EngineUsed, NumericIssue, Resumed, RobustRunner, RunFailure, RunReport,
    RunnerOpts, ValueCheck,
};
pub use snap::SnapCell;
pub use weights::{Unweighted, Weighted, Weights};
