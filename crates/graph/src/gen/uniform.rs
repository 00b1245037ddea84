//! Uniform-random undirected graph (the paper's *urand*, GAP's `-u`).

use crate::rng::SplitMix64;
use crate::{nid, EdgeList, Graph, NodeId};

/// Generates an undirected uniform-random graph with `n` nodes and roughly
/// `n * degree / 2` undirected edges (each stored in both directions), i.e. a
/// directed edge count near `n * degree`. Every node is guaranteed at least
/// one edge (ring backbone), making all nodes regular as in the paper's
/// Table 1 (urand: 100 % regular).
pub fn uniform(n: usize, degree: usize, seed: u64) -> Graph {
    assert!(n >= 2, "uniform graph needs at least two nodes");
    let target = n * degree / 2;
    const CHUNK: usize = 1 << 16;
    let chunks = target.div_ceil(CHUNK).max(1);
    let mut pairs: Vec<(NodeId, NodeId)> = mixen_pool::par_parts(chunks, |part| {
        part.flat_map(|chunk| {
            let lo = chunk * CHUNK;
            let hi = (lo + CHUNK).min(target);
            let mut rng = SplitMix64::new(seed.wrapping_add(0xA24B * chunk as u64 + 3));
            (lo..hi)
                .map(move |_| {
                    let s = super::node_below(&mut rng, n);
                    let mut d = super::node_below(&mut rng, n - 1);
                    if d >= s {
                        d += 1; // avoid self-loops without rejection
                    }
                    (s, d)
                })
                .collect::<Vec<_>>()
        })
        .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();
    // Ring backbone guarantees no isolated nodes.
    pairs.extend((0..nid(n)).map(|u| (u, nid((u as usize + 1) % n))));
    let mut el = EdgeList::from_pairs(n, pairs);
    el.symmetrize();
    Graph::from_edge_list(&el)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Classification, NodeClass, StructuralStats};

    #[test]
    fn all_nodes_regular() {
        let g = uniform(500, 16, 11);
        let c = Classification::of(&g);
        assert_eq!(c.count(NodeClass::Regular), 500);
    }

    #[test]
    fn is_symmetric_and_not_skewed() {
        let g = uniform(1000, 16, 12);
        assert!(g.is_symmetric());
        let s = StructuralStats::of(&g);
        assert!(!s.is_skewed());
        assert_eq!(s.alpha, 1.0);
        assert_eq!(s.beta, 1.0);
    }

    #[test]
    fn degree_near_target() {
        let g = uniform(2000, 20, 13);
        let avg = g.avg_degree();
        assert!((avg - 20.0).abs() < 3.0, "avg = {avg}");
    }

    #[test]
    fn deterministic() {
        let a = uniform(128, 8, 5);
        let b = uniform(128, 8, 5);
        assert_eq!(a.out_csr(), b.out_csr());
    }

    #[test]
    fn no_self_loops() {
        let g = uniform(300, 10, 17);
        for u in 0..g.n() as u32 {
            assert!(!g.out_neighbors(u).contains(&u));
        }
    }
}
