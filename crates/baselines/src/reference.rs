//! Serial reference engine — the correctness oracle.
//!
//! Computes the synchronous recurrence with no parallelism, no blocking and
//! a deterministic (in-neighbour order) float summation. Every other engine
//! must agree with it within floating-point reassociation tolerance.

use mixen_core::Engine;
use mixen_graph::{nid, AtomicProp, Graph, NodeId};

/// A single-threaded pull engine.
pub struct ReferenceEngine<'g> {
    g: &'g Graph,
}

impl<'g> ReferenceEngine<'g> {
    /// Wraps a graph (no preprocessing).
    pub fn new(g: &'g Graph) -> Self {
        Self { g }
    }
}

impl Engine for ReferenceEngine<'_> {
    /// The oracle's own loop, serial and in in-neighbour order: it shares
    /// no code with the engines it judges.
    fn run<V, FI, FA>(&self, init: FI, apply: FA, iters: usize, tol: Option<f64>) -> (Vec<V>, usize)
    where
        V: AtomicProp,
        FI: Fn(NodeId) -> V + Sync,
        FA: Fn(NodeId, V) -> V + Sync,
    {
        let n = self.g.n();
        let mut x: Vec<V> = (0..nid(n)).map(&init).collect();
        for t in 0..iters {
            let y: Vec<V> = (0..nid(n))
                .map(|v| {
                    let mut sum = V::identity();
                    for &u in self.g.in_neighbors(v) {
                        sum.combine(x[u as usize]);
                    }
                    apply(v, sum)
                })
                .collect();
            let done = tol.is_some_and(|tol| mixen_graph::max_diff(&y, &x) <= tol);
            x = y;
            if done {
                return (x, t + 1);
            }
        }
        (x, iters)
    }

    /// Textbook queue BFS; depths in original IDs, `-1` unreachable.
    fn bfs(&self, root: NodeId) -> Vec<i32> {
        let mut depth = vec![-1i32; self.g.n()];
        depth[root as usize] = 0;
        let mut queue = std::collections::VecDeque::from([root]);
        while let Some(u) = queue.pop_front() {
            for &v in self.g.out_neighbors(u) {
                if depth[v as usize] < 0 {
                    depth[v as usize] = depth[u as usize] + 1;
                    queue.push_back(v);
                }
            }
        }
        depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spmv_by_hand() {
        let g = Graph::from_pairs(3, &[(0, 1), (2, 1), (1, 2)]);
        let e = ReferenceEngine::new(&g);
        let y = e.iterate::<f32, _, _>(|v| (v + 1) as f32, |_, s| s, 1);
        assert_eq!(y, vec![0.0, 4.0, 2.0]);
    }

    #[test]
    fn bfs_by_hand() {
        let g = Graph::from_pairs(4, &[(0, 1), (1, 2), (0, 3)]);
        let e = ReferenceEngine::new(&g);
        assert_eq!(e.bfs(0), vec![0, 1, 2, 1]);
        assert_eq!(e.bfs(2), vec![-1, -1, 0, -1]);
    }

    #[test]
    fn until_stops_at_fixed_point() {
        let g = Graph::from_pairs(2, &[(0, 1), (1, 0)]);
        let e = ReferenceEngine::new(&g);
        let (x, iters) = e.iterate_until::<f32, _, _>(|_| 1.0, |_, s| 0.5 * s + 0.5, 1e-9, 500);
        assert!(iters < 500);
        assert!((x[0] - 1.0).abs() < 1e-6);
    }
}
