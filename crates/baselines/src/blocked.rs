//! GPOP-style whole-graph blocking engine.
//!
//! The same 2-D blocked Scatter–Gather data path Mixen builds on
//! ([`mixen_core::scga`]), applied to the *entire* graph with no
//! connectivity filtering, no hub relocation and no seed caching: every
//! node, including seeds, sinks and isolated nodes, flows through the bins
//! every iteration. This is the "Block" variant of the paper's Fig. 4/5 and
//! the GPOP column of Table 3 — cache-friendly, but paying the full
//! `4m + 3n` GAS traffic and the redundant zero-degree work Mixen removes.

use std::sync::atomic::{AtomicI32, Ordering};
use std::time::Instant;

use mixen_core::bins::DynamicBins;
use mixen_core::{scga, BlockedSubgraph, Engine, MixenOpts};
use mixen_graph::{map_nodes, AtomicProp, Graph, NodeId};

/// Whole-graph blocking engine (GPOP-like).
pub struct BlockEngine<'g> {
    g: &'g Graph,
    blocked: BlockedSubgraph,
    build_seconds: f64,
}

impl<'g> BlockEngine<'g> {
    /// Partitions the whole adjacency into blocks with side `block_side`
    /// nodes (GPOP's "parts").
    pub fn new(g: &'g Graph, block_side: usize) -> Self {
        let t0 = Instant::now();
        let opts = MixenOpts {
            block_side,
            cache_step: false,
            ..MixenOpts::default()
        };
        let blocked = BlockedSubgraph::new(g.out_csr(), &opts, mixen_pool::current_num_threads());
        Self {
            g,
            blocked,
            build_seconds: t0.elapsed().as_secs_f64(),
        }
    }

    /// GPOP with the paper's default 64 Ki-node blocks.
    pub fn with_default_blocks(g: &'g Graph) -> Self {
        Self::new(g, MixenOpts::default().block_side)
    }

    /// Partitioning time (Table 4's GPOP preprocessing).
    pub fn build_seconds(&self) -> f64 {
        self.build_seconds
    }

    /// The blocked structure (for the cache simulator's traced twin).
    pub fn blocked(&self) -> &BlockedSubgraph {
        &self.blocked
    }
}

impl Engine for BlockEngine<'_> {
    /// GAS over the whole graph each sweep: Scatter every node, Gather
    /// fresh sums into the spare buffer, Apply.
    fn run<V, FI, FA>(&self, init: FI, apply: FA, iters: usize, tol: Option<f64>) -> (Vec<V>, usize)
    where
        V: AtomicProp,
        FI: Fn(NodeId) -> V + Sync,
        FA: Fn(NodeId, V) -> V + Sync,
    {
        let n = self.g.n();
        let x = map_nodes(n, &init);
        let mut bins: DynamicBins<V> = DynamicBins::new(&self.blocked);
        crate::fixed_point(x, iters, tol, |x, mut y| {
            scga::try_scatter_with(&self.blocked, x, &mut bins, None, None).unwrap_or_else(|e| {
                // lint: allow(panic) reason=the GPOP bins are full-width, and full-width Scatter never fails
                panic!("gpop scatter: {e}")
            });
            // The spare is empty on the first sweep.
            y.resize(n, V::identity());
            mixen_pool::par_parts_mut(&mut y, |_, part| part.fill(V::identity()));
            scga::gather_with(&self.blocked, &bins, &mut y, &apply, None);
            y
        })
    }

    /// Blocked BFS: frontier-sparse expansion with a dense fallback, over
    /// the unfiltered block structure (GPOP's approach).
    fn bfs(&self, root: NodeId) -> Vec<i32> {
        let n = self.g.n();
        let depth: Vec<AtomicI32> = (0..n).map(|_| AtomicI32::new(-1)).collect();
        // ordering: single-threaded seeding before any parallel level.
        depth[root as usize].store(0, Ordering::Relaxed);
        let mut frontier = vec![root];
        let mut level = 0i32;
        while !frontier.is_empty() {
            frontier = if frontier.len() * 16 > n {
                scga::bfs_level_dense(&self.blocked, &depth, level)
            } else {
                scga::bfs_level_sparse(&self.blocked, &depth, &frontier, level)
            };
            frontier.sort_unstable();
            level += 1;
        }
        depth.into_iter().map(|d| d.into_inner()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReferenceEngine;
    use mixen_graph::PropValue;

    fn mixed() -> Graph {
        Graph::from_pairs(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (1, 0),
                (3, 0),
                (3, 5),
                (4, 1),
                (4, 2),
                (0, 5),
                (2, 6),
            ],
        )
    }

    #[test]
    fn matches_reference_for_many_block_sides() {
        let g = mixed();
        let r = ReferenceEngine::new(&g);
        let want = r.iterate::<f32, _, _>(|v| v as f32, |_, s| 0.5 * s + 1.0, 3);
        for c in [1usize, 2, 3, 8, 64] {
            let e = BlockEngine::new(&g, c);
            let got = e.iterate::<f32, _, _>(|v| v as f32, |_, s| 0.5 * s + 1.0, 3);
            for (a, b) in got.iter().zip(&want) {
                assert!((a - b).abs() < 1e-4, "c = {c}");
            }
        }
    }

    #[test]
    fn bfs_matches_reference_all_roots() {
        let g = mixed();
        let e = BlockEngine::new(&g, 2);
        let r = ReferenceEngine::new(&g);
        for root in 0..g.n() as NodeId {
            assert_eq!(e.bfs(root), r.bfs(root), "root {root}");
        }
    }

    #[test]
    fn zero_iterations_returns_init() {
        let g = mixed();
        let e = BlockEngine::new(&g, 4);
        let got = e.iterate::<f32, _, _>(|v| v as f32, |_, _| f32::NAN, 0);
        assert_eq!(got, (0..8).map(|v| v as f32).collect::<Vec<_>>());
    }

    #[test]
    fn vector_values() {
        let g = mixed();
        let e = BlockEngine::new(&g, 2);
        let r = ReferenceEngine::new(&g);
        let init = |v: NodeId| [v as f32, 1.0];
        let apply = |_: NodeId, s: [f32; 2]| [0.5 * s[0], s[1]];
        let got = e.iterate::<[f32; 2], _, _>(init, apply, 2);
        let want = r.iterate::<[f32; 2], _, _>(init, apply, 2);
        for (a, b) in got.iter().zip(&want) {
            assert!(<[f32; 2]>::abs_diff(*a, *b) < 1e-4);
        }
    }

    #[test]
    fn build_time_recorded() {
        let g = mixed();
        let e = BlockEngine::new(&g, 4);
        assert!(e.build_seconds() >= 0.0);
        assert_eq!(e.blocked().nnz(), g.m());
    }

    #[test]
    fn baseline_partition_is_balanced_and_skip_listed() {
        // One hub node owning most edges: the GPOP engine inherits the
        // §4.2 split and skip lists from the shared blocked layer.
        let mut edges = Vec::new();
        for d in 0..24u32 {
            edges.push((0u32, d % 8));
        }
        for u in 1..8u32 {
            edges.push((u, (u + 1) % 8));
        }
        let g = Graph::from_pairs(8, &edges);
        let e = BlockEngine::new(&g, 2);
        let stats = e.blocked().split_stats();
        assert_eq!(stats.scatter_tasks, e.blocked().rows().len());
        assert!(stats.max_task_nnz() > 0);
        assert!(
            stats.tasks_split() > 0,
            "hub load should force a split, stats: {stats:?}"
        );
        // Skip lists still produce a correct SpMV through the shared kernels.
        let r = ReferenceEngine::new(&g);
        let got = e.iterate::<f32, _, _>(|v| v as f32, |_, s| s, 2);
        let want = r.iterate::<f32, _, _>(|v| v as f32, |_, s| s, 2);
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-4);
        }
    }
}
