//! Mutable edge buffer with parallel normalization.
//!
//! Generators and loaders accumulate `(src, dst)` pairs here, then call
//! [`EdgeList::dedup`] / [`EdgeList::symmetrize`] before building a
//! [`crate::Graph`]. All operations are deterministic.

use crate::NodeId;

/// A growable list of directed edges over `n` nodes.
#[derive(Clone, Debug, Default)]
pub struct EdgeList {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl EdgeList {
    /// Creates an empty edge list over `n` nodes.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            edges: Vec::new(),
        }
    }

    /// Creates an edge list from existing pairs. Out-of-range endpoints panic
    /// here in debug builds only (a check would be one more pass over
    /// `edges`); [`crate::Csr::from_edges`] rejects them in every build.
    pub fn from_pairs(n: usize, edges: Vec<(NodeId, NodeId)>) -> Self {
        debug_assert!(edges
            .iter()
            .all(|&(s, d)| (s as usize) < n && (d as usize) < n));
        Self { n, edges }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges currently stored.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when no edges are stored.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Appends one edge. Panics on an out-of-range endpoint.
    #[inline]
    pub fn push(&mut self, src: NodeId, dst: NodeId) {
        assert!(
            (src as usize) < self.n && (dst as usize) < self.n,
            "edge endpoint out of range: ({src}, {dst}) over {} nodes",
            self.n
        );
        self.edges.push((src, dst));
    }

    /// Extends from an iterator of pairs.
    pub fn extend(&mut self, iter: impl IntoIterator<Item = (NodeId, NodeId)>) {
        self.edges.extend(iter);
    }

    /// Read-only view of the pairs.
    pub fn pairs(&self) -> &[(NodeId, NodeId)] {
        &self.edges
    }

    /// Parallel sort + removal of duplicate edges (keeps self-loops unless
    /// [`EdgeList::drop_self_loops`] is also called).
    pub fn dedup(&mut self) {
        mixen_pool::par_sort_unstable_by(&mut self.edges, Ord::cmp);
        self.edges.dedup();
    }

    /// Removes all `u -> u` edges.
    pub fn drop_self_loops(&mut self) {
        self.edges.retain(|&(s, d)| s != d);
    }

    /// Adds the reverse of every edge, then deduplicates. The result
    /// represents an undirected graph stored as a symmetric directed one,
    /// which is how the paper's undirected datasets (kron, road, urand) are
    /// processed.
    pub fn symmetrize(&mut self) {
        let edges = &self.edges;
        let rev: Vec<_> = mixen_pool::par_parts(edges.len(), |part| {
            edges[part]
                .iter()
                .filter(|&&(s, d)| s != d)
                .map(|&(s, d)| (d, s))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        self.edges.extend(rev);
        self.dedup();
    }

    /// Applies a node relabeling `perm` (old id -> new id) to every endpoint.
    pub fn relabel(&mut self, perm: &[NodeId]) {
        assert_eq!(perm.len(), self.n);
        mixen_pool::par_parts_mut(&mut self.edges, |_, part| {
            for e in part {
                e.0 = perm[e.0 as usize];
                e.1 = perm[e.1 as usize];
            }
        });
    }

    /// Consumes the list, returning the raw pairs.
    pub fn into_pairs(self) -> Vec<(NodeId, NodeId)> {
        self.edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_removes_duplicates_only() {
        let mut e = EdgeList::from_pairs(3, vec![(0, 1), (0, 1), (1, 0), (2, 2)]);
        e.dedup();
        assert_eq!(e.pairs(), &[(0, 1), (1, 0), (2, 2)]);
    }

    #[test]
    fn symmetrize_makes_symmetric() {
        let mut e = EdgeList::from_pairs(4, vec![(0, 1), (2, 3), (3, 2), (1, 1)]);
        e.symmetrize();
        let pairs: std::collections::BTreeSet<_> = e.pairs().iter().copied().collect();
        for &(s, d) in &pairs {
            if s != d {
                assert!(pairs.contains(&(d, s)), "missing reverse of ({s},{d})");
            }
        }
        assert!(pairs.contains(&(1, 1)), "self loop must survive");
    }

    #[test]
    fn drop_self_loops_works() {
        let mut e = EdgeList::from_pairs(2, vec![(0, 0), (0, 1), (1, 1)]);
        e.drop_self_loops();
        assert_eq!(e.pairs(), &[(0, 1)]);
    }

    #[test]
    fn relabel_applies_permutation() {
        let mut e = EdgeList::from_pairs(3, vec![(0, 1), (1, 2)]);
        e.relabel(&[2, 0, 1]);
        assert_eq!(e.pairs(), &[(2, 0), (0, 1)]);
    }

    #[test]
    fn empty_list_operations() {
        let mut e = EdgeList::new(5);
        assert!(e.is_empty());
        e.dedup();
        e.symmetrize();
        assert_eq!(e.len(), 0);
    }
}
