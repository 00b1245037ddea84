//! Weighted graphs: the general-SpMV substrate.
//!
//! The paper treats InDegree as `y = Aᵀx` over a 0/1 adjacency (§1) and
//! cites the graph–matrix duality (§7, Kepner & Gilbert); this module adds
//! the general case — a weight per edge — so the same engines can run
//! weighted SpMV (`y[v] = Σ w(u,v)·x[u]`) and, through the tropical
//! semiring, shortest paths.
//!
//! Representation: a [`WGraph`] wraps the unweighted [`Graph`] topology
//! (so all structural machinery — classification, filtering, blocking —
//! applies unchanged) plus two weight arrays aligned index-for-index with
//! the out-CSR and in-CSC adjacency arrays.
//!
//! Weighted graphs are kept *simple*: [`WGraph::from_triples`] sums the
//! weights of duplicate edges, because per-edge weight alignment is
//! ambiguous under multi-edges.

use crate::csr::prefix_sum;
use crate::rng::{mix, GOLDEN};
use crate::{Csr, Graph, NodeId};

/// A directed graph with one `f32` weight per edge.
#[derive(Clone, Debug)]
pub struct WGraph {
    g: Graph,
    /// Weight of out-edge `i` (aligned with `g.out_csr().idx()[i]`).
    wout: Box<[f32]>,
    /// Weight of in-edge `i` (aligned with `g.in_csc().idx()[i]`).
    win: Box<[f32]>,
}

impl WGraph {
    /// Builds from `(src, dst, weight)` triples. Duplicate edges are merged
    /// by *summing* their weights in input order (the sort is stable), so
    /// the result is a pure function of `triples`; self-loops are kept.
    pub fn from_triples(n: usize, triples: &[(NodeId, NodeId, f32)]) -> Self {
        let mut sorted: Vec<(NodeId, NodeId, f32)> = triples.to_vec();
        sorted.sort_by_key(|&(s, d, _)| (s, d));
        // Merge duplicates.
        let mut merged: Vec<(NodeId, NodeId, f32)> = Vec::with_capacity(sorted.len());
        for t in sorted {
            match merged.last_mut() {
                Some(last) if last.0 == t.0 && last.1 == t.1 => last.2 += t.2,
                _ => merged.push(t),
            }
        }
        // `merged` is row-major with ascending, distinct columns — the CSR
        // layout itself — so the out-CSR and its weights are read off it and
        // the in-weights ride along with the transposition.
        let mut degree = vec![0usize; n];
        for &(s, _, _) in &merged {
            degree[s as usize] += 1;
        }
        let idx = merged.iter().map(|&(_, d, _)| d).collect();
        let out = Csr::from_parts(n, prefix_sum(&degree), idx);
        let wout: Box<[f32]> = merged.iter().map(|&(_, _, w)| w).collect();
        let (inn, win) = out.transpose_with(&wout);
        Self {
            g: Graph::from_parts(out, inn),
            wout,
            win,
        }
    }

    /// Attaches weights to an existing (simple) graph via `weight(u, v)`.
    /// Panics if the graph has duplicate edges.
    pub fn from_graph(g: &Graph, weight: impl Fn(NodeId, NodeId) -> f32 + Sync) -> Self {
        let triples: Vec<(NodeId, NodeId, f32)> =
            g.edges().map(|(u, v)| (u, v, weight(u, v))).collect();
        let w = Self::from_triples(g.n(), &triples);
        assert_eq!(
            w.m(),
            g.m(),
            "from_graph requires a simple graph (no duplicate edges)"
        );
        w
    }

    /// Deterministic pseudo-random weights in `[lo, hi)` keyed by the edge
    /// endpoints — the stand-in for edge attributes of real datasets.
    pub fn with_hash_weights(g: &Graph, lo: f32, hi: f32, seed: u64) -> Self {
        Self::from_graph(g, |u, v| {
            let key = (u as u64).wrapping_mul(GOLDEN);
            let z = mix(key.wrapping_add((v as u64) << 32).wrapping_add(seed));
            lo + (hi - lo) * ((z >> 40) as f32 / (1u64 << 24) as f32)
        })
    }

    /// The unweighted topology.
    pub fn topology(&self) -> &Graph {
        &self.g
    }

    /// Node count.
    pub fn n(&self) -> usize {
        self.g.n()
    }

    /// Edge count.
    pub fn m(&self) -> usize {
        self.g.m()
    }

    /// Out-neighbours of `u` with their weights.
    pub fn out_edges(&self, u: NodeId) -> impl Iterator<Item = (NodeId, f32)> + '_ {
        let lo = self.g.out_csr().ptr()[u as usize];
        let hi = self.g.out_csr().ptr()[u as usize + 1];
        self.g.out_csr().idx()[lo..hi]
            .iter()
            .zip(&self.wout[lo..hi])
            .map(|(&v, &w)| (v, w))
    }

    /// In-neighbours of `v` with their weights.
    pub fn in_edges(&self, v: NodeId) -> impl Iterator<Item = (NodeId, f32)> + '_ {
        let csc = self.g.in_csc();
        let (lo, hi) = (csc.ptr()[v as usize], csc.ptr()[v as usize + 1]);
        csc.idx()[lo..hi]
            .iter()
            .zip(&self.win[lo..hi])
            .map(|(&u, &w)| (u, w))
    }

    /// The out-aligned weight slice.
    pub fn out_weights(&self) -> &[f32] {
        &self.wout
    }

    /// The in-aligned weight slice.
    pub fn in_weights(&self) -> &[f32] {
        &self.win
    }

    /// Weight of the edge `u -> v`, if present.
    pub fn weight(&self, u: NodeId, v: NodeId) -> Option<f32> {
        let lo = self.g.out_csr().ptr()[u as usize];
        let row = self.g.out_neighbors(u);
        row.binary_search(&v).ok().map(|i| self.wout[lo + i])
    }

    /// Heap bytes including the weight arrays.
    pub fn memory_bytes(&self) -> usize {
        self.g.memory_bytes() + (self.wout.len() + self.win.len()) * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> WGraph {
        WGraph::from_triples(
            4,
            &[
                (0, 1, 2.0),
                (0, 2, 3.0),
                (2, 1, 0.5),
                (3, 3, 1.0),
                (1, 0, 4.0),
            ],
        )
    }

    #[test]
    fn out_and_in_edges_carry_weights() {
        let w = toy();
        let out0: Vec<(u32, f32)> = w.out_edges(0).collect();
        assert_eq!(out0, vec![(1, 2.0), (2, 3.0)]);
        let in1: Vec<(u32, f32)> = w.in_edges(1).collect();
        assert_eq!(in1, vec![(0, 2.0), (2, 0.5)]);
        assert_eq!(w.weight(3, 3), Some(1.0));
        assert_eq!(w.weight(1, 3), None);
    }

    #[test]
    fn duplicate_edges_merge_by_sum() {
        let w = WGraph::from_triples(2, &[(0, 1, 1.0), (0, 1, 2.5)]);
        assert_eq!(w.m(), 1);
        assert_eq!(w.weight(0, 1), Some(3.5));
        // 4 999 small weights, then a large one: f32 sums in another order
        // round differently. Duplicates sum in input order, so the bits are
        // the same at every lane count.
        let mut triples = vec![(0, 1, 1.0f32); 4_999];
        triples.push((0, 1, 1e8));
        let built = |lanes| {
            mixen_pool::with_threads(lanes, || WGraph::from_triples(2, &triples))
                .weight(0, 1)
                .map(f32::to_bits)
        };
        let want = triples.iter().fold(0f32, |acc, t| acc + t.2);
        assert_eq!(built(1), Some(want.to_bits()));
        assert_eq!(built(4), Some(want.to_bits()));
    }

    #[test]
    fn in_weights_match_out_weights_per_edge() {
        let w = toy();
        for u in 0..w.n() as NodeId {
            for (v, wt) in w.out_edges(u) {
                let found = w
                    .in_edges(v)
                    .find(|&(src, _)| src == u)
                    .map(|(_, x)| x)
                    .unwrap();
                assert_eq!(found, wt, "edge {u}->{v}");
            }
        }
    }

    #[test]
    fn hash_weights_deterministic_and_in_range() {
        let g = Graph::from_pairs(50, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let a = WGraph::with_hash_weights(&g, 1.0, 5.0, 7);
        let b = WGraph::with_hash_weights(&g, 1.0, 5.0, 7);
        for u in 0..g.n() as NodeId {
            let wa: Vec<(u32, f32)> = a.out_edges(u).collect();
            let wb: Vec<(u32, f32)> = b.out_edges(u).collect();
            assert_eq!(wa, wb);
            for (_, w) in wa {
                assert!((1.0..5.0).contains(&w));
            }
        }
    }

    #[test]
    #[should_panic(expected = "simple graph")]
    fn from_graph_rejects_multi_edges() {
        let g = Graph::from_pairs(2, &[(0, 1), (0, 1)]);
        let _ = WGraph::from_graph(&g, |_, _| 1.0);
    }

    #[test]
    fn topology_matches() {
        let w = toy();
        assert_eq!(w.n(), 4);
        assert_eq!(w.m(), 5);
        assert_eq!(w.topology().out_neighbors(0), &[1, 2]);
        w.topology().validate().unwrap();
    }

    #[test]
    fn memory_includes_weights() {
        let w = toy();
        assert_eq!(
            w.memory_bytes(),
            w.topology().memory_bytes() + 2 * w.m() * 4
        );
    }
}
