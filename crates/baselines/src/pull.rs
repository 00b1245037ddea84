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

use std::time::Instant;

use mixen_core::Engine;
use mixen_graph::{map_nodes, nid, pull_sweep, AtomicProp, Graph, NodeId};

/// Dense pull engine (GraphMat-like).
pub struct PullEngine<'g> {
    g: &'g Graph,
    build_seconds: f64,
}

impl<'g> PullEngine<'g> {
    /// Wraps a graph and builds the in-CSC the sweeps read, unless the graph
    /// already holds it: [`Graph`] builds it on first use, and Mixen never
    /// asks for it, so this engine pays for its own transpose.
    pub fn new(g: &'g Graph) -> Self {
        let t0 = Instant::now();
        g.in_csc();
        Self {
            g,
            build_seconds: t0.elapsed().as_secs_f64(),
        }
    }

    /// Wall-clock time [`PullEngine::new`] spent building the in-CSC (near
    /// zero if another consumer of the same graph built it first).
    pub fn build_seconds(&self) -> f64 {
        self.build_seconds
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
        let csc = self.g.in_csc();
        loop {
            let next: Vec<(usize, i32)> = mixen_pool::par_parts(n, |part| {
                part.filter(|&v| depth[v] < 0)
                    .filter_map(|v| {
                        let hit = csc
                            .neighbors(nid(v))
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
    fn new_builds_the_in_csc_and_times_it() {
        let g = mixed();
        assert!(!g.has_in_csc());
        let e = PullEngine::new(&g);
        assert!(g.has_in_csc());
        assert!(e.build_seconds() > 0.0);
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
