//! GraphMat-style pulling-flow engine.
//!
//! Link analysis runs as dense SpMV over the CSC (Algorithm 1, lines 5–7 of
//! the paper): every destination scans its in-neighbours and reads the
//! source values — sequential writes, but up to `m` random reads of `x`,
//! which is exactly the cache behaviour the paper's Fig. 5 attributes to the
//! Pull variant. No atomics are needed.
//!
//! BFS is the dense per-level pull GraphMat's matrix formulation implies:
//! each level scans every unvisited node's in-neighbours, costing `O(m)` per
//! level — the reason GraphMat's road BFS is by far the slowest entry of
//! Table 3.

use mixen_core::Engine;
use mixen_graph::{map_nodes, nid, pull_sweep, AtomicProp, Graph, NodeId};

/// Dense pull engine (GraphMat-like).
pub struct PullEngine<'g> {
    g: &'g Graph,
}

impl<'g> PullEngine<'g> {
    /// Wraps a graph. The CSC already exists inside [`Graph`], so "building"
    /// is free — the conversion cost GraphMat pays from an edge list is
    /// measured by the preprocessing benchmark instead.
    pub fn new(g: &'g Graph) -> Self {
        Self { g }
    }

    /// Framework-internal build time (zero; see [`PullEngine::new`]).
    pub fn build_seconds(&self) -> f64 {
        0.0
    }
}

impl Engine for PullEngine<'_> {
    fn run<V, FI, FA>(&self, init: FI, apply: FA, iters: usize, tol: Option<f64>) -> (Vec<V>, usize)
    where
        V: AtomicProp,
        FI: Fn(NodeId) -> V + Sync,
        FA: Fn(NodeId, V) -> V + Sync,
    {
        let x = map_nodes(self.g.n(), &init);
        crate::fixed_point(x, iters, tol, |x, spare| {
            drop(spare);
            pull_sweep(self.g, x, &apply)
        })
    }

    /// Dense per-level pull BFS.
    fn bfs(&self, root: NodeId) -> Vec<i32> {
        let n = self.g.n();
        let mut depth = vec![-1i32; n];
        depth[root as usize] = 0;
        let mut level = 0i32;
        loop {
            let next: Vec<(usize, i32)> = mixen_pool::par_parts(n, |part| {
                part.filter(|&v| depth[v] < 0)
                    .filter_map(|v| {
                        let hit = self
                            .g
                            .in_neighbors(nid(v))
                            .iter()
                            .any(|&u| depth[u as usize] == level);
                        hit.then_some((v, level + 1))
                    })
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
            if next.is_empty() {
                return depth;
            }
            for (v, d) in next {
                depth[v] = d;
            }
            level += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReferenceEngine;

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
    fn matches_reference_spmv() {
        let g = mixed();
        let e = PullEngine::new(&g);
        let r = ReferenceEngine::new(&g);
        for iters in 0..4 {
            let got = e.iterate::<f32, _, _>(|v| v as f32, |_, s| 0.5 * s + 1.0, iters);
            let want = r.iterate::<f32, _, _>(|v| v as f32, |_, s| 0.5 * s + 1.0, iters);
            for (a, b) in got.iter().zip(&want) {
                assert!((a - b).abs() < 1e-5, "iters {iters}");
            }
        }
    }

    #[test]
    fn bfs_matches_reference() {
        let g = mixed();
        let e = PullEngine::new(&g);
        let r = ReferenceEngine::new(&g);
        for root in 0..g.n() as NodeId {
            assert_eq!(e.bfs(root), r.bfs(root), "root {root}");
        }
    }

    #[test]
    fn until_converges_like_reference() {
        let g = mixed();
        let e = PullEngine::new(&g);
        let r = ReferenceEngine::new(&g);
        let (a, _) = e.iterate_until::<f32, _, _>(|_| 1.0, |_, s| 0.25 * s + 0.5, 1e-8, 100);
        let (b, _) = r.iterate_until::<f32, _, _>(|_| 1.0, |_, s| 0.25 * s + 0.5, 1e-8, 100);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-5);
        }
    }
}
