//! Polymer-style destination-partitioned engine.
//!
//! Polymer improves Ligra on link analysis by redistributing graph data so
//! each NUMA node works on a local partition. On a single shared-memory
//! domain the transferable part of that strategy is the *partition-local
//! pull*: destinations are split into `p` contiguous partitions, each
//! processed as one coarse task pulling over its own in-edge slice — fewer,
//! coarser tasks than the dense pull, with partition-sequential writes (the
//! paper's Table 3: Polymer beats Ligra on link analysis). DESIGN.md §5
//! records this substitution.
//!
//! BFS is a push-only frontier walk with atomic claims and *no* direction
//! optimization — matching Polymer's BFS regression on high-diameter graphs
//! (road: 11.5 s vs Ligra's 0.79 s in Table 3).

use mixen_graph::nid;
use std::sync::atomic::{AtomicI32, Ordering};

use mixen_core::Engine;
use mixen_graph::{map_nodes, AtomicProp, Graph, NodeId, PropValue};

/// Destination-partitioned pull engine (Polymer-like).
pub struct PartitionedEngine<'g> {
    g: &'g Graph,
    /// Partition boundaries over the destination ID space (length `p + 1`).
    bounds: Vec<usize>,
}

impl<'g> PartitionedEngine<'g> {
    /// Partitions the destination space into `partitions` edge-balanced
    /// contiguous ranges (Polymer balances edges, not nodes, across NUMA
    /// domains).
    pub fn new(g: &'g Graph, partitions: usize) -> Self {
        let p = partitions.max(1);
        let n = g.n();
        let m = g.m().max(1);
        let target = m.div_ceil(p);
        let mut bounds = vec![0usize];
        let mut acc = 0usize;
        for v in 0..n {
            acc += g.in_degree(nid(v));
            if acc >= target && bounds.len() < p {
                bounds.push(v + 1);
                acc = 0;
            }
        }
        while bounds.len() < p {
            bounds.push(n);
        }
        bounds.push(n);
        Self { g, bounds }
    }

    /// Default partition count: the pool's own part count for `n` nodes
    /// (coarse NUMA-style chunks with a little slack for load balance).
    pub fn with_default_partitions(g: &'g Graph) -> Self {
        Self::new(g, mixen_pool::split(g.n()).len())
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.bounds.len() - 1
    }

    /// One sweep: each partition is one task pulling over its in-edges.
    fn sweep<V, FA>(&self, x: &[V], apply: &FA) -> Vec<V>
    where
        V: PropValue,
        FA: Fn(NodeId, V) -> V + Sync,
    {
        let mut y = vec![V::identity(); self.g.n()];
        let mut segs: Vec<&mut [V]> = Vec::with_capacity(self.partitions());
        let mut rest: &mut [V] = &mut y;
        for w in self.bounds.windows(2) {
            let (seg, tail) = rest.split_at_mut(w[1] - w[0]);
            segs.push(seg);
            rest = tail;
        }
        mixen_pool::par_parts_mut(&mut segs, |first, segs| {
            for (p, seg) in (first..).zip(segs.iter_mut()) {
                let lo = self.bounds[p];
                for (off, slot) in seg.iter_mut().enumerate() {
                    let v = nid(lo + off);
                    let mut sum = V::identity();
                    for &u in self.g.in_neighbors(v) {
                        sum.combine(x[u as usize]);
                    }
                    *slot = apply(v, sum);
                }
            }
        });
        y
    }
}

impl Engine for PartitionedEngine<'_> {
    fn run<V, FI, FA>(&self, init: FI, apply: FA, iters: usize, tol: Option<f64>) -> (Vec<V>, usize)
    where
        V: AtomicProp,
        FI: Fn(NodeId) -> V + Sync,
        FA: Fn(NodeId, V) -> V + Sync,
    {
        let x = map_nodes(self.g.n(), &init);
        crate::fixed_point(x, iters, tol, |x, spare| {
            drop(spare);
            self.sweep(x, &apply)
        })
    }

    /// Push-only frontier BFS (no direction optimization).
    fn bfs(&self, root: NodeId) -> Vec<i32> {
        let n = self.g.n();
        let depth: Vec<AtomicI32> = (0..n).map(|_| AtomicI32::new(-1)).collect();
        // ordering: single-threaded seeding before any parallel level.
        depth[root as usize].store(0, Ordering::Relaxed);
        let mut frontier = vec![root];
        let mut level = 0i32;
        while !frontier.is_empty() {
            frontier = mixen_pool::par_parts(frontier.len(), |part| {
                part.flat_map(|i| {
                    let u = frontier[i];
                    let mut next = Vec::new();
                    for &v in self.g.out_neighbors(u) {
                        if depth[v as usize]
                            // ordering: the claim needs only same-location
                            // atomicity — the next frontier is consumed
                            // after the pool scope, which orders claims.
                            .compare_exchange(-1, level + 1, Ordering::Relaxed, Ordering::Relaxed)
                            .is_ok()
                        {
                            next.push(v);
                        }
                    }
                    next
                })
                .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
            level += 1;
        }
        depth.into_iter().map(|d| d.into_inner()).collect()
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
    fn matches_reference_for_any_partition_count() {
        let g = mixed();
        let r = ReferenceEngine::new(&g);
        let want = r.iterate::<f32, _, _>(|v| v as f32, |_, s| 0.5 * s + 1.0, 3);
        for p in [1, 2, 3, 8, 100] {
            let e = PartitionedEngine::new(&g, p);
            let got = e.iterate::<f32, _, _>(|v| v as f32, |_, s| 0.5 * s + 1.0, 3);
            for (a, b) in got.iter().zip(&want) {
                assert!((a - b).abs() < 1e-4, "p = {p}");
            }
        }
    }

    #[test]
    fn partition_bounds_cover_all_nodes() {
        let g = mixed();
        for p in [1, 2, 5, 16] {
            let e = PartitionedEngine::new(&g, p);
            assert_eq!(e.bounds.first(), Some(&0));
            assert_eq!(e.bounds.last(), Some(&g.n()));
            assert!(e.bounds.windows(2).all(|w| w[0] <= w[1]));
            assert_eq!(e.partitions(), p);
        }
    }

    #[test]
    fn bfs_matches_reference() {
        let g = mixed();
        let e = PartitionedEngine::new(&g, 3);
        let r = ReferenceEngine::new(&g);
        for root in 0..g.n() as NodeId {
            assert_eq!(e.bfs(root), r.bfs(root), "root {root}");
        }
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_pairs(0, &[]);
        let e = PartitionedEngine::new(&g, 4);
        let got = e.iterate::<f32, _, _>(|_| 1.0, |_, s| s, 2);
        assert!(got.is_empty());
    }
}
