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
//! | [`WPullEngine`] | — | weighted dense pull, the oracle for the weighted computations |
//! | [`ReferenceEngine`] | — | serial pull, the correctness oracle for every test |
//!
//! Every engine implements [`mixen_core::Engine`], the synchronous
//! contract [`mixen_core::MixenEngine`] implements too, so any engine can
//! be swapped under any algorithm in `mixen-algos` and cross-checked value
//! for value. An engine writes only its sweep (one iteration from `x`) and
//! its BFS; the parallel engines hand the sweep to one crate-private loop,
//! `fixed_point`, which owns the iteration count, the two value buffers and
//! the stop rule. The serial oracle keeps a loop of its own, so it shares
//! no logic with the engines it judges (DESIGN.md DR-15).

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

use mixen_graph::{max_diff, PropValue};

/// Runs at most `iters` sweeps from `x`, stopping after the first whose
/// max-norm change is at most `tol` when one is given; returns the values
/// and the sweeps performed.
///
/// `sweep(x, spare)` returns the values one synchronous iteration after
/// `x`. `spare` is the buffer of the iteration before `x` (empty at first):
/// an engine that writes in place reuses it, one that builds fresh values
/// drops it first, so at most two value vectors are live either way.
pub(crate) fn fixed_point<V, S>(
    mut x: Vec<V>,
    iters: usize,
    tol: Option<f64>,
    mut sweep: S,
) -> (Vec<V>, usize)
where
    V: PropValue,
    S: FnMut(&mut [V], Vec<V>) -> Vec<V>,
{
    let mut spare = Vec::new();
    for t in 0..iters {
        let y = sweep(&mut x, spare);
        spare = std::mem::replace(&mut x, y);
        if tol.is_some_and(|tol| max_diff(&x, &spare) <= tol) {
            return (x, t + 1);
        }
    }
    (x, iters)
}
