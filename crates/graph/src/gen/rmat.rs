//! R-MAT and Kronecker generators (Chakrabarti et al., and the GAP benchmark
//! suite's `kron`), parameterized exactly as the paper's synthetic datasets.

use crate::rng::SplitMix64;
use crate::{EdgeList, Graph, NodeId};

/// R-MAT quadrant probabilities. The defaults are the GAP/Graph500 values the
/// paper's *rmat* and *kron* graphs use: `a=0.57, b=0.19, c=0.19, d=0.05`.
#[derive(Clone, Copy, Debug)]
pub struct RmatParams {
    /// Probability of recursing into the top-left quadrant.
    pub a: f64,
    /// Top-right quadrant.
    pub b: f64,
    /// Bottom-left quadrant.
    pub c: f64,
}

impl Default for RmatParams {
    fn default() -> Self {
        Self {
            a: 0.57,
            b: 0.19,
            c: 0.19,
        }
    }
}

impl RmatParams {
    fn d(&self) -> f64 {
        1.0 - self.a - self.b - self.c
    }
}

/// Generates a directed R-MAT graph with `2^scale` nodes and
/// `edge_factor * 2^scale` edges (before deduplication). Isolated nodes
/// arise naturally from the skewed quadrant recursion, exactly as in the
/// paper's *rmat* dataset (59 % isolated at their scale).
pub fn rmat(scale: u32, edge_factor: usize, params: RmatParams, seed: u64) -> Graph {
    let n = 1usize << scale;
    let m = n * edge_factor;
    let pairs = rmat_pairs(scale, m, params, seed);
    let mut el = EdgeList::from_pairs(n, pairs);
    el.dedup();
    Graph::from_edge_list(&el)
}

/// Generates the GAP-style Kronecker graph: R-MAT pairs, self-loops removed,
/// symmetrized (the paper's *kron* is undirected).
pub fn kronecker(scale: u32, edge_factor: usize, seed: u64) -> Graph {
    let n = 1usize << scale;
    let m = n * edge_factor;
    let pairs = rmat_pairs(scale, m, RmatParams::default(), seed);
    let mut el = EdgeList::from_pairs(n, pairs);
    el.drop_self_loops();
    el.symmetrize();
    Graph::from_edge_list(&el)
}

/// Raw R-MAT pair generation, parallel over edge chunks with per-chunk
/// deterministic RNG streams.
fn rmat_pairs(scale: u32, m: usize, params: RmatParams, seed: u64) -> Vec<(NodeId, NodeId)> {
    const CHUNK: usize = 1 << 16;
    let chunks = m.div_ceil(CHUNK);
    mixen_pool::par_parts(chunks, |part| {
        part.flat_map(|chunk| {
            let lo = chunk * CHUNK;
            let hi = (lo + CHUNK).min(m);
            let mut rng = SplitMix64::new(seed.wrapping_add(0x51_7c_c1 * chunk as u64 + 1));
            (lo..hi)
                .map(move |_| sample_edge(scale, params, &mut rng))
                .collect::<Vec<_>>()
        })
        .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

#[inline]
fn sample_edge(scale: u32, p: RmatParams, rng: &mut SplitMix64) -> (NodeId, NodeId) {
    let (mut src, mut dst) = (0u32, 0u32);
    let ab = p.a + p.b;
    let abc = ab + p.c;
    debug_assert!(p.d() >= 0.0);
    for _ in 0..scale {
        src <<= 1;
        dst <<= 1;
        let r = rng.unit_f64();
        if r < p.a {
            // top-left: neither bit set
        } else if r < ab {
            dst |= 1;
        } else if r < abc {
            src |= 1;
        } else {
            src |= 1;
            dst |= 1;
        }
    }
    (src, dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StructuralStats;

    #[test]
    fn rmat_has_expected_size() {
        let g = rmat(10, 8, RmatParams::default(), 42);
        assert_eq!(g.n(), 1024);
        // Dedup removes some edges but most survive at this density.
        assert!(g.m() > 4000 && g.m() <= 8192, "m = {}", g.m());
    }

    #[test]
    fn rmat_is_deterministic() {
        let a = rmat(8, 8, RmatParams::default(), 1);
        let b = rmat(8, 8, RmatParams::default(), 1);
        assert_eq!(a.out_csr(), b.out_csr());
        let c = rmat(8, 8, RmatParams::default(), 2);
        assert_ne!(a.out_csr(), c.out_csr());
    }

    #[test]
    fn rmat_is_skewed_with_isolated_nodes() {
        let g = rmat(12, 16, RmatParams::default(), 7);
        let s = StructuralStats::of(&g);
        assert!(s.is_skewed(), "v_hub={} e_hub={}", s.v_hub, s.e_hub);
        assert!(s.frac_isolated > 0.1, "iso = {}", s.frac_isolated);
    }

    #[test]
    fn kron_is_symmetric_without_self_loops() {
        let g = kronecker(10, 8, 3);
        assert!(g.is_symmetric());
        for u in 0..g.n() as u32 {
            assert!(!g.out_neighbors(u).contains(&u), "self loop at {u}");
        }
    }

    #[test]
    fn kron_nodes_regular_or_isolated_only() {
        use crate::{Classification, NodeClass};
        let g = kronecker(9, 8, 5);
        let c = Classification::of(&g);
        assert_eq!(c.count(NodeClass::Seed), 0);
        assert_eq!(c.count(NodeClass::Sink), 0);
        assert!(c.count(NodeClass::Isolated) > 0);
    }

    #[test]
    fn uniform_quadrants_give_near_uniform_degrees() {
        let p = RmatParams {
            a: 0.25,
            b: 0.25,
            c: 0.25,
        };
        let g = rmat(10, 16, p, 9);
        let s = StructuralStats::of(&g);
        assert!(!s.is_skewed());
    }
}
