//! Ligra-style pushing-flow engine.
//!
//! Link analysis pushes every source's value along its out-edges into the
//! destinations with atomic combines (Algorithm 1, lines 1–3: `atomAdd`) —
//! the strategy whose atomics and random writes make Ligra the slowest
//! link-analysis entry of Table 3. Atomic combining is done lane-wise over
//! 32-bit slots (see [`mixen_graph::AtomicProp`]).
//!
//! BFS is direction-optimizing [Beamer et al.]: sparse top-down push while
//! the frontier is thin, dense bottom-up pull when it is fat — the reason
//! Ligra wins most BFS rows of Table 3.

use mixen_graph::nid;
use std::sync::atomic::{AtomicI32, AtomicU32, Ordering};

use mixen_core::Engine;
use mixen_graph::{map_nodes, AtomicProp, Graph, NodeId};

/// Push engine with atomic combines (Ligra-like).
pub struct PushEngine<'g> {
    g: &'g Graph,
}

impl<'g> PushEngine<'g> {
    /// Wraps a graph (the CSR already exists inside [`Graph`]).
    pub fn new(g: &'g Graph) -> Self {
        Self { g }
    }

    fn reset_slots<V: AtomicProp>(&self, slots: &[AtomicU32]) {
        let mut id = vec![0u32; V::LANES];
        V::identity().write_lanes(&mut id);
        mixen_pool::par_parts(slots.len(), |part| {
            for i in part {
                // ordering: the reset is published by the pool scope before
                // any push touches the slots.
                slots[i].store(id[i % V::LANES], Ordering::Relaxed);
            }
        });
    }

    fn push_all<V: AtomicProp>(&self, x: &[V], slots: &[AtomicU32]) {
        mixen_pool::par_parts(self.g.n(), |part| {
            for u in part {
                let val = x[u];
                for &v in self.g.out_neighbors(nid(u)) {
                    let base = v as usize * V::LANES;
                    for lane in 0..V::LANES {
                        atomic_fold::<V>(&slots[base + lane], val, lane);
                    }
                }
            }
        });
    }

    fn apply_slots<V, FA>(&self, slots: &[AtomicU32], apply: &FA) -> Vec<V>
    where
        V: AtomicProp,
        FA: Fn(NodeId, V) -> V + Sync,
    {
        map_nodes(self.g.n(), |v| {
            let base = v as usize * V::LANES;
            let lanes: Vec<u32> = (0..V::LANES)
                // ordering: push_all's scope already ordered every fold
                // before this read-only pass.
                .map(|l| slots[base + l].load(Ordering::Relaxed))
                .collect();
            apply(v, V::read_lanes(&lanes))
        })
    }
}

impl Engine for PushEngine<'_> {
    fn run<V, FI, FA>(&self, init: FI, apply: FA, iters: usize, tol: Option<f64>) -> (Vec<V>, usize)
    where
        V: AtomicProp,
        FI: Fn(NodeId) -> V + Sync,
        FA: Fn(NodeId, V) -> V + Sync,
    {
        let n = self.g.n();
        let x = map_nodes(n, &init);
        let slots: Vec<AtomicU32> = (0..n * V::LANES).map(|_| AtomicU32::new(0)).collect();
        crate::fixed_point(x, iters, tol, |x, spare| {
            drop(spare);
            self.reset_slots::<V>(&slots);
            self.push_all(x, &slots);
            self.apply_slots(&slots, &apply)
        })
    }

    /// Direction-optimizing BFS.
    fn bfs(&self, root: NodeId) -> Vec<i32> {
        let n = self.g.n();
        let m = self.g.m();
        let depth: Vec<AtomicI32> = (0..n).map(|_| AtomicI32::new(-1)).collect();
        // ordering: single-threaded seeding before any parallel level.
        depth[root as usize].store(0, Ordering::Relaxed);
        let mut frontier = vec![root];
        let mut level = 0i32;
        while !frontier.is_empty() {
            let frontier_edges: usize = frontier.iter().map(|&u| self.g.out_degree(u)).sum();
            frontier = if frontier_edges * 20 > m.max(1) {
                // Bottom-up: every unvisited node scans its in-neighbours.
                let csc = self.g.in_csc();
                mixen_pool::par_parts(n, |part| {
                    // ordering: depths ≤ level were published by previous
                    // levels' scopes; this level writes only unvisited slots.
                    part.filter(|&v| depth[v].load(Ordering::Relaxed) < 0)
                        .filter_map(|v| {
                            let hit = csc
                                .neighbors(nid(v))
                                .iter()
                                // ordering: same argument as the filter above.
                                .any(|&u| depth[u as usize].load(Ordering::Relaxed) == level);
                            if hit {
                                // ordering: each unvisited v is written by at
                                // most one task (the one that owns v), and the
                                // value is published by this level's scope.
                                depth[v].store(level + 1, Ordering::Relaxed);
                                Some(nid(v))
                            } else {
                                None
                            }
                        })
                        .collect::<Vec<_>>()
                })
                .into_iter()
                .flatten()
                .collect()
            } else {
                // Top-down: push from the frontier with CAS claims.
                mixen_pool::par_parts(frontier.len(), |part| {
                    part.flat_map(|i| {
                        let u = frontier[i];
                        let mut next = Vec::new();
                        for &v in self.g.out_neighbors(u) {
                            if depth[v as usize]
                                .compare_exchange(
                                    -1,
                                    level + 1,
                                    // ordering: the claim needs only
                                    // same-location atomicity — the next
                                    // frontier is consumed after the scope.
                                    Ordering::Relaxed,
                                    // ordering: failure means someone else
                                    // claimed v; nothing further is read.
                                    Ordering::Relaxed,
                                )
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
                .collect()
            };
            level += 1;
        }
        depth.into_iter().map(|d| d.into_inner()).collect()
    }
}

/// CAS loop folding `val`'s lane into a 32-bit atomic slot.
#[inline]
fn atomic_fold<V: AtomicProp>(slot: &AtomicU32, val: V, lane: usize) {
    // ordering: the fold is commutative and touches only this slot; the
    // accumulated result is published to readers by push_all's pool scope,
    // so the CAS loop needs no cross-location ordering.
    let mut cur = slot.load(Ordering::Relaxed);
    loop {
        let new = V::fold_lane(cur, val, lane);
        // ordering: same-slot RMW; see the load above.
        match slot.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(c) => cur = c,
        }
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
    fn matches_reference_scalar() {
        let g = mixed();
        let e = PushEngine::new(&g);
        let r = ReferenceEngine::new(&g);
        for iters in 0..4 {
            let got = e.iterate::<f32, _, _>(|v| v as f32, |_, s| 0.5 * s + 1.0, iters);
            let want = r.iterate::<f32, _, _>(|v| v as f32, |_, s| 0.5 * s + 1.0, iters);
            for (a, b) in got.iter().zip(&want) {
                assert!((a - b).abs() < 1e-4, "iters {iters}: {got:?} vs {want:?}");
            }
        }
    }

    #[test]
    fn matches_reference_vector() {
        let g = mixed();
        let e = PushEngine::new(&g);
        let r = ReferenceEngine::new(&g);
        let init = |v: NodeId| [v as f32, 1.0];
        let apply = |_: NodeId, s: [f32; 2]| [0.5 * s[0], s[1] + 1.0];
        let got = e.iterate::<[f32; 2], _, _>(init, apply, 2);
        let want = r.iterate::<[f32; 2], _, _>(init, apply, 2);
        for (a, b) in got.iter().zip(&want) {
            assert!(<[f32; 2]>::abs_diff(*a, *b) < 1e-4);
        }
    }

    #[test]
    fn bfs_matches_reference_all_roots() {
        let g = mixed();
        let e = PushEngine::new(&g);
        let r = ReferenceEngine::new(&g);
        for root in 0..g.n() as NodeId {
            assert_eq!(e.bfs(root), r.bfs(root), "root {root}");
        }
    }

    #[test]
    fn bfs_dense_switch_on_fat_frontier() {
        // A star from 0: first expansion covers nearly all edges, forcing
        // the bottom-up path.
        let pairs: Vec<_> = (1..64u32).map(|v| (0, v)).collect();
        let g = Graph::from_pairs(64, &pairs);
        let e = PushEngine::new(&g);
        let d = e.bfs(0);
        assert_eq!(d[0], 0);
        assert!(d[1..].iter().all(|&x| x == 1));
    }

    #[test]
    fn until_converges() {
        let g = mixed();
        let e = PushEngine::new(&g);
        let (x, iters) = e.iterate_until::<f32, _, _>(|_| 1.0, |_, s| 0.25 * s + 0.5, 1e-8, 100);
        assert!(iters < 100);
        let r = ReferenceEngine::new(&g);
        let want = r.iterate::<f32, _, _>(|_| 1.0, |_, s| 0.25 * s + 0.5, iters);
        for (a, b) in x.iter().zip(&want) {
            assert!((a - b).abs() < 1e-4);
        }
    }
}
