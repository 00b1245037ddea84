//! Baseline graph engines for the Mixen evaluation (§6.1).
//!
//! Each engine ports the *execution strategy* of one framework the paper
//! compares against — not its plumbing, which does not affect the ordering
//! the paper reports:
//!
//! | Engine | Framework | Strategy |
//! |--------|-----------|----------|
//! | [`PullEngine`] | GraphMat | dense pulling-flow SpMV over the CSC; BFS as dense per-level pull |
//! | [`PushEngine`] | Ligra | pushing flow over the CSR with atomic combines; direction-optimizing BFS |
//! | [`PartitionedEngine`] | Polymer | destination-partitioned pull (the shared-memory analogue of Polymer's NUMA-local partitions); push-only frontier BFS |
//! | [`BlockEngine`] | GPOP | whole-graph 2-D blocking with Scatter–Gather–Apply and edge compression, no connectivity filtering |
//! | [`ReferenceEngine`] | — | serial pull, the correctness oracle for every test |
//!
//! All engines implement the same synchronous semantics as
//! [`mixen_core::MixenEngine`]: `x'[v] = apply(v, Σ_{u→v} x[u])`, `iters`
//! times, plus a `bfs` driver — so any engine can be swapped under any
//! algorithm in `mixen-algos` and cross-checked value-for-value.

#![forbid(unsafe_code)]

pub mod blocked;
pub mod partitioned;
pub mod pull;
pub mod push;
pub mod reference;
pub mod wpull;

pub use blocked::BlockEngine;
pub use partitioned::PartitionedEngine;
pub use pull::PullEngine;
pub use push::PushEngine;
pub use reference::ReferenceEngine;
pub use wpull::WPullEngine;

/// `f(v)` for every node `v < n`, in node order: one `Vec` per pool part,
/// each built inside its task, concatenated on the caller.
pub(crate) fn map_nodes<V, F>(n: usize, f: F) -> Vec<V>
where
    V: Send,
    F: Fn(mixen_graph::NodeId) -> V + Sync,
{
    mixen_pool::par_parts(n, |part| {
        part.map(|v| f(mixen_graph::nid(v))).collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}
