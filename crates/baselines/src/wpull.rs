//! Weighted dense pull engine — the baseline/oracle for the weighted
//! (general-semiring) computations: `x'[v] = apply(v, ⊕ x[u] ⊗ w(u,v))`
//! over the weighted CSC, parallel over destinations.

use mixen_core::Engine;
use mixen_graph::{map_nodes, AtomicProp, NodeId, PropValue, WGraph};

use crate::PullEngine;

/// Dense weighted pull engine.
pub struct WPullEngine<'g> {
    wg: &'g WGraph,
}

impl<'g> WPullEngine<'g> {
    /// Wraps a weighted graph (no preprocessing).
    pub fn new(wg: &'g WGraph) -> Self {
        Self { wg }
    }

    /// One weighted sweep, parallel over destinations.
    fn sweep<V, FA>(&self, x: &[V], apply: &FA) -> Vec<V>
    where
        V: PropValue,
        FA: Fn(NodeId, V) -> V + Sync,
    {
        map_nodes(self.wg.n(), |v| {
            let mut sum = V::identity();
            for (u, w) in self.wg.in_edges(v) {
                sum.combine(x[u as usize].scale_edge(w));
            }
            apply(v, sum)
        })
    }
}

impl Engine for WPullEngine<'_> {
    fn run<V, FI, FA>(&self, init: FI, apply: FA, iters: usize, tol: Option<f64>) -> (Vec<V>, usize)
    where
        V: AtomicProp,
        FI: Fn(NodeId) -> V + Sync,
        FA: Fn(NodeId, V) -> V + Sync,
    {
        let x = map_nodes(self.wg.n(), &init);
        crate::fixed_point(x, iters, tol, |x, spare| {
            drop(spare);
            self.sweep(x, &apply)
        })
    }

    /// BFS ignores weights: the dense pull over the topology.
    fn bfs(&self, root: NodeId) -> Vec<i32> {
        PullEngine::new(self.wg.topology()).bfs(root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixen_graph::MinF32;

    #[test]
    fn weighted_spmv_by_hand() {
        let wg = WGraph::from_triples(3, &[(0, 1, 2.0), (2, 1, 0.5), (1, 2, 3.0)]);
        let e = WPullEngine::new(&wg);
        let y = e.iterate::<f32, _, _>(|v| (v + 1) as f32, |_, s| s, 1);
        // y[1] = 2*1 + 0.5*3 = 3.5; y[2] = 3*2 = 6.
        assert_eq!(y, vec![0.0, 3.5, 6.0]);
    }

    #[test]
    fn bfs_ignores_weights() {
        let wg = WGraph::from_triples(4, &[(0, 1, 9.0), (1, 2, 0.5), (0, 3, 2.0)]);
        let e = WPullEngine::new(&wg);
        let r = crate::ReferenceEngine::new(wg.topology());
        for root in 0..4 {
            assert_eq!(e.bfs(root), r.bfs(root), "root {root}");
        }
    }

    #[test]
    fn tropical_relaxation_finds_shortest_paths() {
        // 0 -> 1 (5), 0 -> 2 (1), 2 -> 1 (2): shortest 0->1 is 3.
        let wg = WGraph::from_triples(3, &[(0, 1, 5.0), (0, 2, 1.0), (2, 1, 2.0)]);
        let e = WPullEngine::new(&wg);
        let init = |v: NodeId| {
            if v == 0 {
                MinF32(0.0)
            } else {
                MinF32::identity()
            }
        };
        let apply = |v: NodeId, s: MinF32| {
            let mut out = s;
            out.combine(if v == 0 {
                MinF32(0.0)
            } else {
                MinF32::identity()
            });
            out
        };
        let (dist, iters) = e.iterate_until(init, apply, 0.0, 10);
        assert!(iters <= 4);
        assert_eq!(dist[1].0, 3.0);
        assert_eq!(dist[2].0, 1.0);
    }
}
