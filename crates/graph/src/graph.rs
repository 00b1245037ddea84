//! The directed graph type shared by every engine.
//!
//! A [`Graph`] owns the out-edge CSR, mirroring the paper's assumption (§6.5)
//! that frameworks ingest a prebuilt CSR binary, and the in-CSC's row
//! pointers, so in-degrees cost one subtraction. The in-CSC itself (the CSR
//! of the transpose) is filled on first use (DESIGN.md DR-16): Mixen extracts
//! its mixed CSR/CSC representation from the out-CSR and the in-degrees
//! alone (§4.1), so only a consumer that walks in-edges — a pull baseline,
//! the reverse graph of HITS/SALSA — pays for the transpose.

use std::sync::OnceLock;

use crate::nid;
use crate::{Csr, EdgeList, GraphError, NodeId};

/// A directed graph with `n` nodes: out-adjacency, in-degrees, and
/// in-adjacency on demand.
#[derive(Clone, Debug)]
pub struct Graph {
    out: Csr,
    /// Row pointers of the in-CSC: the count half of the transpose.
    in_ptr: Box<[usize]>,
    /// The in-CSC, filled by the first [`Graph::in_csc`].
    inn: OnceLock<Csr>,
}

impl Graph {
    /// Builds a graph from an edge list.
    pub fn from_edge_list(edges: &EdgeList) -> Self {
        Self::from_csr(Csr::from_edges(edges.n(), edges.pairs()))
    }

    /// Builds directly from pairs without normalization.
    pub fn from_pairs(n: usize, pairs: &[(NodeId, NodeId)]) -> Self {
        Self::from_csr(Csr::from_edges(n, pairs))
    }

    /// Wraps an existing out-CSR. Counts in-degrees; the in-CSC is built on
    /// first use.
    pub fn from_csr(out: Csr) -> Self {
        assert_eq!(out.n_rows(), out.n_cols(), "adjacency must be square");
        let in_ptr = out.transpose_ptr().into_boxed_slice();
        Self {
            out,
            in_ptr,
            inn: OnceLock::new(),
        }
    }

    /// Wraps both directions. Panics if they are not transposes of each
    /// other in debug builds (cheap cardinality checks always run).
    pub fn from_parts(out: Csr, inn: Csr) -> Self {
        assert_eq!(out.n_rows(), inn.n_rows());
        assert_eq!(out.nnz(), inn.nnz());
        debug_assert_eq!(inn, out.transpose(), "inn must be the transpose of out");
        Self {
            out,
            in_ptr: inn.ptr().into(),
            inn: OnceLock::from(inn),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.out.n_rows()
    }

    /// Number of directed edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.out.nnz()
    }

    /// Average degree `m / n` (0 for the empty graph).
    pub fn avg_degree(&self) -> f64 {
        if self.n() == 0 {
            0.0
        } else {
            self.m() as f64 / self.n() as f64
        }
    }

    /// Out-edge CSR.
    #[inline]
    pub fn out_csr(&self) -> &Csr {
        &self.out
    }

    /// In-edge CSC (CSR of the transpose), built by the first call. A
    /// consumer that walks in-edges in a loop resolves this once, outside
    /// the loop.
    pub fn in_csc(&self) -> &Csr {
        self.inn.get_or_init(|| {
            let unit = vec![(); self.m()];
            self.out.transpose_fill(self.in_ptr.to_vec(), &unit).0
        })
    }

    /// Whether the in-CSC has been built.
    pub fn has_in_csc(&self) -> bool {
        self.inn.get().is_some()
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.out.degree(u)
    }

    /// In-degree of `u`.
    #[inline]
    pub fn in_degree(&self, u: NodeId) -> usize {
        self.in_ptr[u as usize + 1] - self.in_ptr[u as usize]
    }

    /// Out-neighbours of `u` (sorted).
    #[inline]
    pub fn out_neighbors(&self, u: NodeId) -> &[NodeId] {
        self.out.neighbors(u)
    }

    /// In-neighbours of `u` (sorted). Builds the in-CSC on first use.
    #[inline]
    pub fn in_neighbors(&self, u: NodeId) -> &[NodeId] {
        self.in_csc().neighbors(u)
    }

    /// Iterates all edges in row-major order of the out-CSR.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.out.edges()
    }

    /// Heap bytes of both adjacency structures (the CSR + CSC a
    /// conventional framework keeps resident), counted whether or not the
    /// in-CSC has been built: its size is known from the in-degrees.
    pub fn memory_bytes(&self) -> usize {
        self.out.memory_bytes()
            + self.in_ptr.len() * std::mem::size_of::<usize>()
            + self.m() * std::mem::size_of::<NodeId>()
    }

    /// The reverse graph: every edge `u -> v` becomes `v -> u`. The two
    /// directions swap roles, so this builds the in-CSC if nothing has yet.
    /// Used by algorithms that propagate in both directions (HITS, SALSA).
    pub fn reversed(&self) -> Graph {
        Graph {
            out: self.in_csc().clone(),
            in_ptr: self.out.ptr().into(),
            inn: OnceLock::from(self.out.clone()),
        }
    }

    /// True when for every `u -> v` the edge `v -> u` is also present.
    pub fn is_symmetric(&self) -> bool {
        let inn = self.in_csc();
        (0..nid(self.n())).all(|u| self.out.neighbors(u) == inn.neighbors(u))
    }

    /// Structural validation: the out-CSR, the in-degrees against it, and
    /// the in-CSC if it has been built.
    pub fn validate(&self) -> Result<(), GraphError> {
        self.out.validate()?;
        if self.in_ptr.len() != self.n() + 1
            || self.in_ptr.last() != Some(&self.m())
            || self.in_ptr.windows(2).any(|w| w[0] > w[1])
        {
            return Err(GraphError::Invariant(
                "in-degrees do not sum to the edge count".into(),
            ));
        }
        if let Some(inn) = self.inn.get() {
            inn.validate()?;
            if inn.ptr() != &*self.in_ptr {
                return Err(GraphError::Invariant(
                    "in-CSC row pointers differ from the in-degrees".into(),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Graph {
        Graph::from_pairs(5, &[(0, 1), (0, 2), (1, 2), (3, 0), (2, 4)])
    }

    #[test]
    fn degrees_are_consistent() {
        let g = toy();
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 5);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(2), 2);
        assert_eq!(g.out_degree(4), 0);
        assert_eq!(g.in_degree(3), 0);
        let out_sum: usize = (0..5).map(|u| g.out_degree(u)).sum();
        let in_sum: usize = (0..5).map(|u| g.in_degree(u)).sum();
        assert_eq!(out_sum, g.m());
        assert_eq!(in_sum, g.m());
    }

    #[test]
    fn in_neighbors_match_transposed_edges() {
        let g = toy();
        assert_eq!(g.in_neighbors(2), &[0, 1]);
        assert_eq!(g.in_neighbors(0), &[3]);
        assert_eq!(g.out_neighbors(3), &[0]);
    }

    #[test]
    fn symmetric_detection() {
        let g = toy();
        assert!(!g.is_symmetric());
        let mut e = EdgeList::from_pairs(3, vec![(0, 1), (1, 2)]);
        e.symmetrize();
        let s = Graph::from_edge_list(&e);
        assert!(s.is_symmetric());
    }

    #[test]
    fn validate_ok() {
        toy().validate().unwrap();
    }

    #[test]
    fn reversed_swaps_directions() {
        let g = toy();
        let r = g.reversed();
        assert_eq!(r.out_neighbors(2), g.in_neighbors(2));
        assert_eq!(r.in_neighbors(0), g.out_neighbors(0));
        assert_eq!(r.m(), g.m());
        let rr = r.reversed();
        assert_eq!(rr.out_csr(), g.out_csr());
    }

    #[test]
    fn the_in_csc_is_built_on_first_use_only() {
        let g = toy();
        assert!(!g.has_in_csc());
        let degrees: Vec<usize> = (0..5).map(|u| g.in_degree(u)).collect();
        let bytes = g.memory_bytes();
        g.validate().unwrap();
        assert!(
            !g.has_in_csc(),
            "degrees, memory_bytes and validate read no in-edge"
        );
        assert_eq!(g.in_csc(), &g.out_csr().transpose());
        assert!(g.has_in_csc());
        let built: Vec<usize> = (0..5).map(|u| g.in_csc().degree(u)).collect();
        assert_eq!(degrees, built);
        assert_eq!(bytes, g.memory_bytes());
        g.validate().unwrap();
        // A clone keeps whatever was built.
        assert!(g.clone().has_in_csc());
        assert!(!toy().clone().has_in_csc());
    }

    #[test]
    fn from_parts_and_reversed_hold_both_directions() {
        let g = toy();
        let both = Graph::from_parts(g.out_csr().clone(), g.in_csc().clone());
        assert!(both.has_in_csc());
        assert_eq!(both.in_degree(2), 2);
        let r = toy().reversed();
        assert!(r.has_in_csc());
        assert_eq!(r.in_csc(), g.out_csr());
        assert_eq!(r.in_degree(0), g.out_degree(0));
        r.validate().unwrap();
    }

    #[test]
    fn avg_degree_empty() {
        let g = Graph::from_pairs(0, &[]);
        assert_eq!(g.avg_degree(), 0.0);
    }
}
