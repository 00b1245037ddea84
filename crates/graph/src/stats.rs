//! Structural statistics reproducing Table 1 and Table 2 of the paper.
//!
//! * Table 1: `V_hub` / `E_hub` percentages and the regular/seed/sink/
//!   isolated split.
//! * Table 2: `n`, `m`, skewness, directedness, `α = r/n` (fraction of
//!   regular nodes) and `β = m̃/m` (fraction of edges inside the regular
//!   subgraph).

use crate::nid;

use crate::{Classification, Graph, NodeClass};

/// All structural attributes the paper reports for a dataset.
#[derive(Clone, Debug, PartialEq)]
pub struct StructuralStats {
    /// Node count.
    pub n: usize,
    /// Directed edge count.
    pub m: usize,
    /// Fraction of nodes that are hubs (Table 1 `V_hub`).
    pub v_hub: f64,
    /// Fraction of edges incident to hubs via their in-side (Table 1 `E_hub`).
    pub e_hub: f64,
    /// Fraction of regular nodes (Table 1 `Reg.`, Table 2 `α`).
    pub frac_regular: f64,
    /// Fraction of seed nodes.
    pub frac_seed: f64,
    /// Fraction of sink nodes.
    pub frac_sink: f64,
    /// Fraction of isolated nodes.
    pub frac_isolated: f64,
    /// `α = r/n` — identical to `frac_regular`, named as in §5.
    pub alpha: f64,
    /// `β = m̃/m` — fraction of edges with both endpoints regular (§5).
    pub beta: f64,
    /// Whether every edge has its reverse (undirected storage).
    pub symmetric: bool,
}

impl StructuralStats {
    /// Computes every statistic in one pass over the graph plus one pass for
    /// `β` (edges whose source *and* destination are regular).
    pub fn of(g: &Graph) -> Self {
        let c = Classification::of(g);
        Self::of_classified(g, &c)
    }

    /// Same as [`StructuralStats::of`] but reuses an existing
    /// [`Classification`].
    pub fn of_classified(g: &Graph, c: &Classification) -> Self {
        let n = g.n();
        let m = g.m();
        let nf = n.max(1) as f64;
        let mf = m.max(1) as f64;
        let classes = c.classes();
        let regular_edges: usize = mixen_pool::par_parts(n, |part| {
            part.map(|u| {
                if classes[u] == NodeClass::Regular {
                    g.out_neighbors(nid(u))
                        .iter()
                        .filter(|&&v| classes[v as usize] == NodeClass::Regular)
                        .count()
                } else {
                    0
                }
            })
            .sum::<usize>()
        })
        .into_iter()
        .sum();
        Self {
            n,
            m,
            v_hub: c.hub_count() as f64 / nf,
            e_hub: c.hub_in_edges() as f64 / mf,
            frac_regular: c.count(NodeClass::Regular) as f64 / nf,
            frac_seed: c.count(NodeClass::Seed) as f64 / nf,
            frac_sink: c.count(NodeClass::Sink) as f64 / nf,
            frac_isolated: c.count(NodeClass::Isolated) as f64 / nf,
            alpha: c.count(NodeClass::Regular) as f64 / nf,
            beta: regular_edges as f64 / mf,
            symmetric: g.is_symmetric(),
        }
    }

    /// The paper's skewness heuristic: a graph is "skewed" when a small
    /// fraction of nodes carries most of the connections. We use the Table 1
    /// observation directly: hubs < 20 % of nodes while owning > 75 % of
    /// edges.
    pub fn is_skewed(&self) -> bool {
        self.v_hub < 0.20 && self.e_hub > 0.75
    }

    /// Formats one Table 1 row: percentages of hubs, hub edges and the four
    /// classes.
    pub fn table1_row(&self, name: &str) -> String {
        format!(
            "{name:>8}  {:>5.0} {:>5.0}  {:>4.0} {:>4.0} {:>4.0} {:>4.0}",
            self.v_hub * 100.0,
            self.e_hub * 100.0,
            self.frac_regular * 100.0,
            self.frac_seed * 100.0,
            self.frac_sink * 100.0,
            self.frac_isolated * 100.0,
        )
    }

    /// Formats one Table 2 row.
    pub fn table2_row(&self, name: &str, real: bool) -> String {
        format!(
            "{name:>8}  {:>9} {:>10}  {:>6} {:>4} {:>8}  {:>5.2} {:>5.2}",
            self.n,
            self.m,
            if self.is_skewed() { "Yes" } else { "No" },
            if real { "Yes" } else { "No" },
            if self.symmetric { "No" } else { "Yes" },
            self.alpha,
            self.beta,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    #[test]
    fn alpha_beta_small_graph() {
        // Nodes: 0 seed, 1 regular, 2 regular, 3 sink.
        // Edges: 0->1 (seed->reg), 1->2 (reg->reg), 2->1 (reg->reg), 2->3 (reg->sink).
        let g = Graph::from_pairs(4, &[(0, 1), (1, 2), (2, 1), (2, 3)]);
        let s = StructuralStats::of(&g);
        assert_eq!(s.n, 4);
        assert_eq!(s.m, 4);
        assert!((s.alpha - 0.5).abs() < 1e-12);
        assert!((s.beta - 0.5).abs() < 1e-12);
        assert!(!s.symmetric);
    }

    #[test]
    fn fractions_sum_to_one() {
        let g = Graph::from_pairs(6, &[(0, 1), (1, 0), (2, 3), (4, 3)]);
        let s = StructuralStats::of(&g);
        let sum = s.frac_regular + s.frac_seed + s.frac_sink + s.frac_isolated;
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn undirected_graph_all_regular() {
        let mut e = crate::EdgeList::from_pairs(4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]);
        e.symmetrize();
        let g = Graph::from_edge_list(&e);
        let s = StructuralStats::of(&g);
        assert_eq!(s.alpha, 1.0);
        assert_eq!(s.beta, 1.0);
        assert!(s.symmetric);
    }

    #[test]
    fn skew_detection_star() {
        // A star: node 0 receives edges from everyone else => extreme skew.
        let n = 100u32;
        let pairs: Vec<_> = (1..n).map(|u| (u, 0)).collect();
        let g = Graph::from_pairs(n as usize, &pairs);
        let s = StructuralStats::of(&g);
        assert!(s.v_hub < 0.05);
        assert!(s.e_hub > 0.99);
        assert!(s.is_skewed());
    }

    #[test]
    fn empty_graph_stats_are_finite() {
        let g = Graph::from_pairs(0, &[]);
        let s = StructuralStats::of(&g);
        assert_eq!(s.n, 0);
        assert!(s.alpha.is_finite() && s.beta.is_finite());
    }
}
