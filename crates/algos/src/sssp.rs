//! Single-source shortest paths and weighted SpMV — the weighted-graph
//! workloads of the semiring extension.
//!
//! SSSP is Bellman–Ford expressed through the engines' synchronous kernel
//! under the tropical `(min, +)` semiring: each round relaxes every edge
//! once, re-injecting each node's own current bound through the monotone
//! trick used by connected components. Convergence takes at most
//! "longest shortest path in hops" rounds.

use mixen_core::{Engine, MixenEngine, Weighted};
use mixen_graph::{MinF32, NodeId, PropValue, WGraph};

use mixen_baselines::WPullEngine;

/// Shortest-path distances from `root` over non-negative edge weights,
/// computed on a weighted Mixen engine (an unweighted one does not
/// type-check here: with `⊗` erased every reachable node would read 0).
/// `f32::INFINITY` = unreachable.
pub fn sssp(engine: &MixenEngine<Weighted>, root: NodeId, max_iters: usize) -> Vec<f32> {
    let (dist, _) = engine.iterate_until(sssp_init(root), sssp_apply(root), 0.0, max_iters);
    dist.into_iter().map(|MinF32(d)| d).collect()
}

/// SSSP on the dense weighted pull baseline (the oracle for tests).
pub fn sssp_pull(wg: &WGraph, root: NodeId, max_iters: usize) -> Vec<f32> {
    let engine = WPullEngine::new(wg);
    let (dist, _) = engine.iterate_until(sssp_init(root), sssp_apply(root), 0.0, max_iters);
    dist.into_iter().map(|MinF32(d)| d).collect()
}

/// One weighted SpMV, `y[v] = Σ w(u,v) · x[u]`, on the weighted engine.
pub fn weighted_spmv(engine: &MixenEngine<Weighted>, x: &[f32]) -> Vec<f32> {
    engine.iterate(|v: NodeId| x[v as usize], |_, sum| sum, 1)
}

fn sssp_init(root: NodeId) -> impl Fn(NodeId) -> MinF32 + Sync {
    move |v| {
        if v == root {
            MinF32(0.0)
        } else {
            MinF32::identity()
        }
    }
}

fn sssp_apply(root: NodeId) -> impl Fn(NodeId, MinF32) -> MinF32 + Sync {
    move |v, s| {
        let mut out = s;
        out.combine(if v == root {
            MinF32(0.0)
        } else {
            MinF32::identity()
        });
        out
    }
}

/// Serial Dijkstra oracle (binary heap), for validation.
pub fn dijkstra(wg: &WGraph, root: NodeId) -> Vec<f32> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut dist = vec![f32::INFINITY; wg.n()];
    let mut heap: BinaryHeap<Reverse<(ordered, u32)>> = BinaryHeap::new();
    dist[root as usize] = 0.0;
    heap.push(Reverse((ordered::from(0.0), root)));
    while let Some(Reverse((d, u))) = heap.pop() {
        let d = d.0;
        if d > dist[u as usize] {
            continue;
        }
        for (v, w) in wg.out_edges(u) {
            let nd = d + w;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(Reverse((ordered::from(nd), v)));
            }
        }
    }
    dist
}

/// Total-ordered f32 wrapper for the heap (weights are non-negative and
/// finite, so `total_cmp` is safe here).
#[derive(Clone, Copy, PartialEq)]
#[allow(non_camel_case_types)]
struct ordered(f32);

impl From<f32> for ordered {
    fn from(x: f32) -> Self {
        ordered(x)
    }
}
impl Eq for ordered {}
impl PartialOrd for ordered {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ordered {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixen_core::MixenOpts;
    use mixen_graph::{Dataset, Scale};

    fn toy() -> WGraph {
        WGraph::from_triples(
            6,
            &[
                (0, 1, 4.0),
                (0, 2, 1.0),
                (2, 1, 2.0),
                (1, 3, 1.0),
                (2, 3, 5.0),
                (3, 4, 3.0),
            ],
        )
    }

    #[test]
    fn matches_dijkstra_on_toy() {
        let wg = toy();
        let engine = MixenEngine::try_weighted(&wg, MixenOpts::default()).unwrap();
        let got = sssp(&engine, 0, 50);
        let want = dijkstra(&wg, 0);
        assert_eq!(got, want);
        assert_eq!(got[1], 3.0); // via 2
        assert_eq!(got[3], 4.0); // 0-2-1-3
        assert!(got[5].is_infinite());
    }

    #[test]
    fn pull_and_mixen_agree_on_random_weighted_graph() {
        let g = Dataset::Rmat.generate(Scale::Tiny, 33);
        let wg = WGraph::with_hash_weights(&g, 1.0, 10.0, 5);
        let engine = MixenEngine::try_weighted(&wg, MixenOpts::default()).unwrap();
        let root = (0..g.n() as u32).max_by_key(|&v| g.out_degree(v)).unwrap();
        let a = sssp(&engine, root, 200);
        let b = sssp_pull(&wg, root, 200);
        let c = dijkstra(&wg, root);
        for v in 0..g.n() {
            assert!(
                (a[v] - c[v]).abs() < 1e-3 || (a[v].is_infinite() && c[v].is_infinite()),
                "node {v}: mixen {} vs dijkstra {}",
                a[v],
                c[v]
            );
            assert!(
                (b[v] - c[v]).abs() < 1e-3 || (b[v].is_infinite() && c[v].is_infinite()),
                "node {v}: pull {} vs dijkstra {}",
                b[v],
                c[v]
            );
        }
    }

    #[test]
    fn weighted_spmv_is_linear() {
        let wg = toy();
        let engine = MixenEngine::try_weighted(&wg, MixenOpts::default()).unwrap();
        let xa: Vec<f32> = (0..wg.n()).map(|i| i as f32).collect();
        let xb: Vec<f32> = (0..wg.n()).map(|i| (i * i) as f32 * 0.1).collect();
        let sum: Vec<f32> = xa.iter().zip(&xb).map(|(a, b)| a + b).collect();
        let ya = weighted_spmv(&engine, &xa);
        let yb = weighted_spmv(&engine, &xb);
        let ysum = weighted_spmv(&engine, &sum);
        for v in 0..wg.n() {
            assert!((ya[v] + yb[v] - ysum[v]).abs() < 1e-4);
        }
    }

    #[test]
    fn sssp_from_unreachable_root() {
        let wg = toy();
        let engine = MixenEngine::try_weighted(&wg, MixenOpts::default()).unwrap();
        let d = sssp(&engine, 5, 20);
        assert_eq!(d[5], 0.0);
        assert!(d[..5].iter().all(|x| x.is_infinite()));
    }
}
