//! Road-network stand-in: a 2-D lattice with sparse extra links.
//!
//! The paper's *road* graph (KONECT) is undirected, non-skewed, entirely
//! regular, with a low maximum degree (~avg 2.4 per direction) and a very
//! large diameter — the combination that makes the Pull variant win in
//! Fig. 4's discussion. A partial grid reproduces all of those properties:
//! a serpentine backbone guarantees connectivity and the huge diameter,
//! while a thinned set of lattice links tunes the average degree.

use crate::rng::SplitMix64;
use crate::{nid, EdgeList, Graph};

/// Generates a `width x height` partial-lattice road network. `keep_prob` is
/// the probability of retaining each non-backbone lattice edge; the paper's
/// road degree (≈2.4 directed edges per node) corresponds to
/// `keep_prob ≈ 0.15`.
pub fn road(width: usize, height: usize, keep_prob: f64, seed: u64) -> Graph {
    assert!(width >= 2 && height >= 1, "lattice too small");
    let n = width * height;
    let id = |x: usize, y: usize| nid(y * width + x);
    let mut rng = SplitMix64::new(seed);
    let mut el = EdgeList::new(n);
    // Serpentine backbone: row-major snake visiting every node once.
    for y in 0..height {
        for x in 0..width - 1 {
            el.push(id(x, y), id(x + 1, y));
        }
        if y + 1 < height {
            let x = if y % 2 == 0 { width - 1 } else { 0 };
            el.push(id(x, y), id(x, y + 1));
        }
    }
    // Thinned lattice links add local shortcuts (intersections).
    for y in 0..height {
        for x in 0..width {
            if y + 1 < height && rng.unit_f64() < keep_prob {
                el.push(id(x, y), id(x, y + 1));
            }
            if x + 1 < width && y % 2 == 1 && rng.unit_f64() < keep_prob {
                el.push(id(x, y), id(x + 1, y));
            }
        }
    }
    el.symmetrize();
    Graph::from_edge_list(&el)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Classification, NodeClass, StructuralStats};

    #[test]
    fn all_regular_symmetric() {
        let g = road(40, 40, 0.15, 21);
        assert!(g.is_symmetric());
        let c = Classification::of(&g);
        assert_eq!(c.count(NodeClass::Regular), g.n());
    }

    #[test]
    fn low_even_degree() {
        let g = road(64, 64, 0.15, 22);
        let s = StructuralStats::of(&g);
        assert!(!s.is_skewed());
        let max_deg = (0..g.n() as u32).map(|u| g.out_degree(u)).max().unwrap();
        assert!(max_deg <= 6, "max degree {max_deg}");
        assert!(g.avg_degree() > 2.0 && g.avg_degree() < 3.5);
    }

    #[test]
    fn backbone_connects_everything() {
        // BFS from node 0 must reach all nodes.
        let g = road(16, 16, 0.0, 23);
        let mut seen = vec![false; g.n()];
        let mut queue = std::collections::VecDeque::from([0u32]);
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = queue.pop_front() {
            for &v in g.out_neighbors(u) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    count += 1;
                    queue.push_back(v);
                }
            }
        }
        assert_eq!(count, g.n());
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            road(20, 20, 0.2, 9).out_csr(),
            road(20, 20, 0.2, 9).out_csr()
        );
    }

    #[test]
    fn single_row_lattice() {
        let g = road(10, 1, 0.5, 1);
        assert_eq!(g.n(), 10);
        assert!(g.m() >= 18); // path both directions
    }
}
