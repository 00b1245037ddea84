//! Weighted dense pull engine — the baseline/oracle for the weighted
//! (general-semiring) computations: `x'[v] = apply(v, ⊕ x[u] ⊗ w(u,v))`
//! over the weighted CSC, parallel over destinations.

use mixen_graph::{NodeId, PropValue, WGraph};

/// Dense weighted pull engine.
pub struct WPullEngine<'g> {
    wg: &'g WGraph,
}

impl<'g> WPullEngine<'g> {
    /// Wraps a weighted graph (no preprocessing).
    pub fn new(wg: &'g WGraph) -> Self {
        Self { wg }
    }

    /// Synchronous weighted iterations.
    pub fn iterate<V, FI, FA>(&self, init: FI, apply: FA, iters: usize) -> Vec<V>
    where
        V: PropValue,
        FI: Fn(NodeId) -> V + Sync,
        FA: Fn(NodeId, V) -> V + Sync,
    {
        let n = self.wg.n();
        let mut x: Vec<V> = crate::map_nodes(n, &init);
        for _ in 0..iters {
            x = self.step(&x, &apply);
        }
        x
    }

    /// Iterates until the max-norm step difference is at most `tol`.
    pub fn iterate_until<V, FI, FA>(
        &self,
        init: FI,
        apply: FA,
        tol: f64,
        max_iters: usize,
    ) -> (Vec<V>, usize)
    where
        V: PropValue,
        FI: Fn(NodeId) -> V + Sync,
        FA: Fn(NodeId, V) -> V + Sync,
    {
        let n = self.wg.n();
        let mut x: Vec<V> = crate::map_nodes(n, &init);
        for t in 0..max_iters {
            let y = self.step(&x, &apply);
            let diff = mixen_graph::max_diff(&y, &x);
            x = y;
            if diff <= tol {
                return (x, t + 1);
            }
        }
        (x, max_iters)
    }

    fn step<V, FA>(&self, x: &[V], apply: &FA) -> Vec<V>
    where
        V: PropValue,
        FA: Fn(NodeId, V) -> V + Sync,
    {
        crate::map_nodes(self.wg.n(), |v| {
            let mut sum = V::identity();
            for (u, w) in self.wg.in_edges(v) {
                sum.combine(x[u as usize].scale_edge(w));
            }
            apply(v, sum)
        })
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
