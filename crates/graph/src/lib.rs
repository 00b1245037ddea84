//! Graph substrate for the Mixen reproduction.
//!
//! This crate provides everything the Mixen framework and its baseline
//! engines consume:
//!
//! * [`EdgeList`] — a mutable edge buffer with parallel sort/dedup.
//! * [`Csr`] — compressed sparse row storage with parallel construction and
//!   transposition in safe Rust, each task owning a contiguous range of
//!   the output (no atomics). A CSC is simply the [`Csr`] of the transposed
//!   graph.
//! * [`Graph`] — a directed graph holding the out-edge CSR and in-degrees,
//!   with the in-edge CSC built on first use; the unit every engine is
//!   built from.
//! * [`classify`] — connectivity classification (regular / seed / sink /
//!   isolated) and hub detection, per §2.1 of the paper.
//! * [`stats`] — structural statistics reproducing Table 1 and Table 2.
//! * [`gen`] — deterministic graph generators: R-MAT, Kronecker,
//!   uniform-random, road lattices and the profile generator that stands in
//!   for the paper's crawled datasets.
//! * [`datasets`] — the eight named stand-in datasets at selectable scales.
//! * [`io`] — binary CSR (`MXG2`) and text edge-list readers/writers,
//!   hardened against hostile inputs.
//! * [`error`] — the [`GraphError`] type every fallible path returns.
//! * [`faults`] — deterministic I/O fault injection for robustness tests.
//! * [`rng`] — the one seeded splitmix64 generator every stream draws from.
//!
//! Node identifiers are `u32` (the paper uses 32-bit node IDs); edge offsets
//! are `usize` so graphs larger than 4 G edges remain representable.

#![forbid(unsafe_code)]

pub mod ckpt;
pub mod classify;
pub mod components;
pub mod csr;
pub mod datasets;
pub mod degree;
pub mod edgelist;
pub mod error;
pub mod faults;
pub mod gen;
pub mod graph;
pub mod io;
pub mod prop;
pub mod rng;
pub mod stats;
pub mod weighted;

pub use ckpt::{Checkpoint, CkptValue};
pub use classify::{Classification, NodeClass};
pub use components::{weakly_connected_components, Components, UnionFind};
pub use csr::Csr;
pub use datasets::{Dataset, Scale};
pub use degree::{gini_coefficient, DegreeDistribution, Direction};
pub use edgelist::EdgeList;
pub use error::GraphError;
pub use faults::{Fault, FaultPlan, FaultyReader, FaultyWriter};
pub use graph::Graph;
pub use prop::{map_nodes, max_diff, max_distance, pull_sweep, AtomicProp, MinF32, PropValue};
pub use stats::StructuralStats;
pub use weighted::WGraph;

/// Node identifier. 32 bits, matching the paper's data types (§6.1).
pub type NodeId = u32;

/// Debug-checked narrowing of a `usize` index to a [`NodeId`].
///
/// Every node/edge index in the workspace is derived from a graph with
/// `n <= u32::MAX` nodes (enforced by [`Csr`] construction and the io
/// readers), so the narrowing cannot lose information; the debug assertion
/// catches any future violation of that invariant. This is the single
/// audited truncation site — library code must call `nid()` instead of
/// writing bare `as NodeId` casts (enforced by `mixen-lint`'s `truncation`
/// rule).
#[inline(always)]
pub fn nid(i: usize) -> NodeId {
    debug_assert!(
        u32::try_from(i).is_ok(),
        "index {i} exceeds u32::MAX and cannot be a NodeId"
    );
    // lint: allow(truncation) reason=the single audited narrowing site; debug-asserted above
    i as NodeId
}
