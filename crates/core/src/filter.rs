//! Graph filtering and relabeling (§4.1).
//!
//! In a single logical scan, Mixen classifies every node by connectivity,
//! assigns new IDs in the order `[hub regulars | other regulars | seeds |
//! sinks | isolated]` — preserving relative order inside each bucket, so the
//! original structure is disturbed as little as possible — and extracts the
//! mixed representation:
//!
//! * `reg_csr` — CSR of the regular×regular subgraph (the Main-Phase input),
//! * `seed_csr` — CSR of seed→regular edges (the Pre-Phase input),
//! * `sink_csc` — CSC rows for sink nodes over their in-neighbours
//!   (the Post-Phase input; covers regular→sink *and* seed→sink edges).
//!
//! Every edge of the original graph lands in exactly one of the three
//! sub-structures (verified by tests), so no redundant pointer entries for
//! zero-degree directions are ever scanned again during iteration. All three
//! come from the out-CSR and the in-degrees alone: filtering never builds the
//! graph's in-CSC (DESIGN.md DR-16).

use mixen_graph::csr::prefix_sum;
use mixen_graph::nid;
use mixen_graph::{Classification, Csr, Graph, GraphError, NodeClass, NodeId};

use crate::obs::Span;
use crate::opts::RegularOrdering;
use crate::reorder;

/// The filtered, relabeled form of a graph (Mixen's preprocessing output).
#[derive(Clone, Debug)]
pub struct FilteredGraph {
    n: usize,
    m: usize,
    perm: Vec<NodeId>,
    inv: Vec<NodeId>,
    num_hub: usize,
    num_regular: usize,
    num_seed: usize,
    num_sink: usize,
    num_isolated: usize,
    reg_csr: Csr,
    seed_csr: Csr,
    sink_csc: Csr,
    out_degree: Vec<u32>,
    /// The regular-range ordering this graph was built with; recorded so
    /// [`FilteredGraph::debug_validate`] knows which stability guarantees
    /// apply.
    ordering: RegularOrdering,
    /// Wall-clock cost of the regular-region relabel passes (the
    /// `relabel_micros` obs gauge).
    relabel_seconds: f64,
}

impl FilteredGraph {
    /// Filters `g` with hub relocation enabled (the paper's default).
    pub fn new(g: &Graph) -> Self {
        Self::with_ordering(g, RegularOrdering::HubsFirst)
    }

    /// Filters `g` with an explicit regular-range ordering (step 2 of the
    /// filtering procedure; `Original` ablates hub relocation away).
    pub fn with_ordering(g: &Graph, ordering: RegularOrdering) -> Self {
        let class = Classification::of(g);
        Self::from_classification(g, &class, ordering)
    }

    /// Filters `g` reusing an existing classification.
    pub fn from_classification(
        g: &Graph,
        class: &Classification,
        ordering: RegularOrdering,
    ) -> Self {
        let n = g.n();
        // Class census: regular nodes (in original order) go through the
        // reorder passes; the other classes keep stable cursor assignment.
        let mut regulars: Vec<NodeId> = Vec::new();
        let (mut num_seed, mut num_sink, mut num_isolated) = (0usize, 0usize, 0usize);
        for u in 0..nid(n) {
            match class.class(u) {
                NodeClass::Regular => regulars.push(u),
                NodeClass::Seed => num_seed += 1,
                NodeClass::Sink => num_sink += 1,
                NodeClass::Isolated => num_isolated += 1,
            }
        }
        let num_regular = regulars.len();

        // Only hubs that are also Regular sit at the front of the regular
        // range; `class.hub_count()` would overcount by including hub seeds
        // and hub sinks, which live in their own class ranges. `Original`
        // runs no pass, so no hub prefix exists.
        let num_hub = match ordering {
            RegularOrdering::Original => 0,
            _ => regulars.iter().filter(|&&u| class.is_hub(u)).count(),
        };

        // Apply the ordering's relabel passes left to right (§4.1 step 2 —
        // the composable form of hub relocation; see `crate::reorder`).
        let mut relabel_seconds = 0.0;
        {
            let _span = Span::new(&mut relabel_seconds);
            for pass in reorder::passes(ordering) {
                pass.apply(g, class, num_hub, &mut regulars);
            }
        }

        // Regular new IDs follow the pass output; seed/sink/isolated keep
        // original relative order via stable cursors behind the regulars.
        let mut perm = vec![0 as NodeId; n];
        for (new, &old) in regulars.iter().enumerate() {
            perm[old as usize] = nid(new);
        }
        let mut cursors = [
            num_regular,
            num_regular + num_seed,
            num_regular + num_seed + num_sink,
        ];
        for u in 0..nid(n) {
            let b = match class.class(u) {
                NodeClass::Regular => continue,
                NodeClass::Seed => 0,
                NodeClass::Sink => 1,
                NodeClass::Isolated => 2,
            };
            perm[u as usize] = nid(cursors[b]);
            cursors[b] += 1;
        }
        let mut inv = vec![0 as NodeId; n];
        for (old, &new) in perm.iter().enumerate() {
            inv[new as usize] = nid(old);
        }
        let r = nid(num_regular);

        // Sub-structure extraction straight from the out-CSR.
        let reg_csr = Csr::from_row_fn(num_regular, num_regular, |u_new, out| {
            let old = inv[u_new as usize];
            out.extend(
                g.out_neighbors(old)
                    .iter()
                    .map(|&v| perm[v as usize])
                    .filter(|&v| v < r),
            );
        });
        let seed_csr = Csr::from_row_fn(num_seed, num_regular, |s_local, out| {
            let old = inv[num_regular + s_local as usize];
            out.extend(
                g.out_neighbors(old)
                    .iter()
                    .map(|&v| perm[v as usize])
                    .filter(|&v| v < r),
            );
        });
        // Sink rows from the out-CSR: a sink's row length is its in-degree,
        // so the pointers need no count pass, and DR-11's fill places each
        // source's new ID in the sink rows its out-edges reach. Sinks keep
        // their original relative order, so a task's sink rows are one range
        // of old IDs, found in each sorted out-row by `partition_point`
        // (sinks and isolated nodes have empty out-rows).
        let sink_base = num_regular + num_seed;
        let sink_ptr = prefix_sum(
            &inv[sink_base..sink_base + num_sink]
                .iter()
                .map(|&old| g.in_degree(old))
                .collect::<Vec<_>>(),
        );
        let sink_csc = Csr::from_fill(sink_base, sink_ptr, |rows, cursors, idx| {
            let (lo, hi) = (inv[sink_base + rows.start], inv[sink_base + rows.end - 1]);
            for src in 0..nid(n) {
                let row = g.out_neighbors(src);
                let run = row.partition_point(|&v| v < lo)..row.partition_point(|&v| v <= hi);
                for &v in &row[run] {
                    let k = (perm[v as usize] as usize).wrapping_sub(sink_base + rows.start);
                    if let Some(c) = cursors.get_mut(k) {
                        idx[*c] = perm[src as usize];
                        *c += 1;
                    }
                }
            }
        });

        let mut out_degree = vec![0u32; n];
        for old in 0..n {
            out_degree[perm[old] as usize] = nid(g.out_degree(nid(old)));
        }

        Self {
            n,
            m: g.m(),
            perm,
            inv,
            num_hub,
            num_regular,
            num_seed,
            num_sink,
            num_isolated,
            reg_csr,
            seed_csr,
            sink_csc,
            out_degree,
            ordering,
            relabel_seconds,
        }
    }

    /// Deep structural validation of the relabeling and the mixed
    /// representation (§4.1): perm/inv are mutually inverse, the class
    /// ranges partition the ID space, the three sub-structures have the
    /// advertised shapes and jointly hold every edge, and relabeling is
    /// stable within each class range. Used by the `strict-invariants`
    /// feature at engine construction and callable directly from tests.
    pub fn debug_validate(&self) -> Result<(), GraphError> {
        let invariant = |msg: String| Err(GraphError::Invariant(msg));
        let n = self.n;
        if self.perm.len() != n || self.inv.len() != n || self.out_degree.len() != n {
            return invariant(format!(
                "perm/inv/out_degree lengths {}/{}/{} != n = {n}",
                self.perm.len(),
                self.inv.len(),
                self.out_degree.len()
            ));
        }
        // Bijection: perm and inv are mutual inverses (this also implies
        // each is a permutation of 0..n).
        for old in 0..n {
            let new = self.perm[old] as usize;
            if new >= n || self.inv[new] as usize != old {
                return invariant(format!("perm/inv are not mutual inverses at old id {old}"));
            }
        }
        // Class ranges partition the ID space.
        let (r, s, k, iso) = (
            self.num_regular,
            self.num_seed,
            self.num_sink,
            self.num_isolated,
        );
        if r + s + k + iso != n {
            return invariant(format!(
                "class counts {r}+{s}+{k}+{iso} do not partition n = {n}"
            ));
        }
        if self.num_hub > r {
            return invariant(format!(
                "hub count {} exceeds regular count {r}",
                self.num_hub
            ));
        }
        // Sub-format boundaries: reg r×r, seed s×r, sink k×(r+s).
        for (name, csr, rows, cols) in [
            ("reg_csr", &self.reg_csr, r, r),
            ("seed_csr", &self.seed_csr, s, r),
            ("sink_csc", &self.sink_csc, k, r + s),
        ] {
            if csr.n_rows() != rows || csr.n_cols() != cols {
                return invariant(format!(
                    "{name} is {}x{}, expected {rows}x{cols}",
                    csr.n_rows(),
                    csr.n_cols()
                ));
            }
            csr.validate()?;
        }
        // Every original edge lands in exactly one sub-structure.
        let nnz = self.reg_csr.nnz() + self.seed_csr.nnz() + self.sink_csc.nnz();
        if nnz != self.m {
            return invariant(format!(
                "sub-structures hold {nnz} edges, graph has {}",
                self.m
            ));
        }
        // Stability: within each class range, relabeling preserves the
        // original relative order, i.e. `inv` is strictly increasing. The
        // regular range is checked per hub/non-hub sub-range under
        // `HubsFirst`, as one range under `Original`, and not at all under
        // `ByInDegree` (which re-sorts regulars by in-degree). `Dbg`
        // regroups the non-hub suffix, leaving only the hub prefix stable;
        // `HubSort` re-sorts the hub prefix, leaving only the suffix stable.
        let mut ranges = match self.ordering {
            RegularOrdering::HubsFirst => vec![(0, self.num_hub), (self.num_hub, r)],
            RegularOrdering::Original => vec![(0, r)],
            RegularOrdering::ByInDegree => vec![],
            RegularOrdering::Dbg => vec![(0, self.num_hub)],
            RegularOrdering::HubSort => vec![(self.num_hub, r)],
        };
        ranges.extend([(r, r + s), (r + s, r + s + k), (r + s + k, n)]);
        for (lo, hi) in ranges {
            for new in lo.max(1)..hi {
                if new > lo && self.inv[new - 1] >= self.inv[new] {
                    return invariant(format!(
                        "relabeling is not stable inside class range {lo}..{hi} at new id {new}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// The regular-range ordering this graph was built with.
    pub fn ordering(&self) -> RegularOrdering {
        self.ordering
    }

    /// Wall-clock seconds the regular-region relabel passes took (a subset
    /// of the engine's filter time; stamped into the `relabel_micros` obs
    /// gauge).
    pub fn relabel_seconds(&self) -> f64 {
        self.relabel_seconds
    }

    /// Original node count.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Original edge count.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Hubs (front of the regular range).
    pub fn num_hub(&self) -> usize {
        self.num_hub
    }

    /// Regular nodes `r` (including hubs): new IDs `0..r`.
    pub fn num_regular(&self) -> usize {
        self.num_regular
    }

    /// Seed nodes: new IDs `r..r+s`.
    pub fn num_seed(&self) -> usize {
        self.num_seed
    }

    /// Sink nodes: new IDs `r+s..r+s+k`.
    pub fn num_sink(&self) -> usize {
        self.num_sink
    }

    /// Isolated nodes: the tail of the new ID space.
    pub fn num_isolated(&self) -> usize {
        self.num_isolated
    }

    /// `α = r / n` (§5).
    pub fn alpha(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.num_regular as f64 / self.n as f64
        }
    }

    /// `β = m̃ / m` (§5): fraction of edges inside the regular subgraph.
    pub fn beta(&self) -> f64 {
        if self.m == 0 {
            0.0
        } else {
            self.reg_csr.nnz() as f64 / self.m as f64
        }
    }

    /// Heap bytes of the mixed representation: the three sub-structures
    /// plus the two permutation arrays and the out-degree vector. §4.1
    /// claims this is smaller than keeping the original CSR + CSC resident;
    /// `memory_bytes() < g.memory_bytes()` is asserted by tests for every
    /// directed dataset.
    pub fn memory_bytes(&self) -> usize {
        self.reg_csr.memory_bytes()
            + self.seed_csr.memory_bytes()
            + self.sink_csc.memory_bytes()
            + self.perm.len() * std::mem::size_of::<NodeId>()
            + self.inv.len() * std::mem::size_of::<NodeId>()
            + self.out_degree.len() * std::mem::size_of::<u32>()
    }

    /// New ID of an original node.
    #[inline]
    pub fn to_new(&self, old: NodeId) -> NodeId {
        self.perm[old as usize]
    }

    /// Original ID of a relabeled node.
    #[inline]
    pub fn to_old(&self, new: NodeId) -> NodeId {
        self.inv[new as usize]
    }

    /// The full old→new permutation.
    pub fn perm(&self) -> &[NodeId] {
        &self.perm
    }

    /// The full new→old permutation.
    pub fn inv(&self) -> &[NodeId] {
        &self.inv
    }

    /// CSR of the regular×regular subgraph.
    pub fn reg_csr(&self) -> &Csr {
        &self.reg_csr
    }

    /// CSR of seed→regular edges (rows are seed-local IDs).
    pub fn seed_csr(&self) -> &Csr {
        &self.seed_csr
    }

    /// CSC rows of sink nodes over in-neighbours (rows are sink-local IDs;
    /// columns are new IDs `< r + s`).
    pub fn sink_csc(&self) -> &Csr {
        &self.sink_csc
    }

    /// Full out-degree (in the original graph) of the node with new ID `v`.
    /// Algorithms like PageRank normalize by this, not by the subgraph
    /// degree, because edges to sinks still carry rank away.
    #[inline]
    pub fn out_degree_new(&self, v: NodeId) -> u32 {
        self.out_degree[v as usize]
    }

    /// Out-degree slice indexed by new ID.
    pub fn out_degrees(&self) -> &[u32] {
        &self.out_degree
    }

    /// Scatters a value slice indexed by new IDs back to original IDs.
    pub fn unpermute<V: Copy>(&self, new_vals: &[V]) -> Vec<V> {
        assert_eq!(new_vals.len(), self.n);
        (0..self.n)
            .map(|old| new_vals[self.perm[old] as usize])
            .collect()
    }

    /// Gathers a value slice indexed by original IDs into new-ID order.
    pub fn permute<V: Copy>(&self, old_vals: &[V]) -> Vec<V> {
        assert_eq!(old_vals.len(), self.n);
        (0..self.n)
            .map(|new| old_vals[self.inv[new] as usize])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixen_graph::Graph;

    /// 0 seed, 1 hub-regular, 2 regular, 3 sink, 4 isolated.
    /// Edges: 0->1 0->2 1->2 2->1 1->3 2->3 ... make 1 a hub.
    fn toy() -> Graph {
        Graph::from_pairs(
            5,
            &[
                (0, 1),
                (0, 2),
                (1, 2),
                (2, 1),
                (1, 3),
                (2, 3),
                (0, 1),
                (0, 1),
            ],
        )
    }

    #[test]
    fn boundaries_partition_n() {
        // toy() has duplicate edges; Graph keeps multi-edges, fine here.
        let g = toy();
        let f = FilteredGraph::new(&g);
        assert_eq!(
            f.num_regular() + f.num_seed() + f.num_sink() + f.num_isolated(),
            g.n()
        );
        assert_eq!(f.num_regular(), 2);
        assert_eq!(f.num_seed(), 1);
        assert_eq!(f.num_sink(), 1);
        assert_eq!(f.num_isolated(), 1);
    }

    #[test]
    fn permutation_is_bijective() {
        let g = toy();
        let f = FilteredGraph::new(&g);
        for u in 0..g.n() as NodeId {
            assert_eq!(f.to_old(f.to_new(u)), u);
            assert_eq!(f.to_new(f.to_old(u)), u);
        }
    }

    #[test]
    fn class_ranges_ordered() {
        let g = toy();
        let f = FilteredGraph::new(&g);
        // Seed node 0 must map into the seed range.
        let r = f.num_regular() as NodeId;
        let s = f.num_seed() as NodeId;
        assert!(f.to_new(0) >= r && f.to_new(0) < r + s);
        // Sink node 3 into the sink range.
        assert!(f.to_new(3) >= r + s && f.to_new(3) < r + s + f.num_sink() as NodeId);
        // Isolated node 4 at the tail.
        assert_eq!(f.to_new(4), 4);
    }

    #[test]
    fn hub_goes_first() {
        let g = toy();
        let f = FilteredGraph::new(&g);
        // Node 1 has in-degree 4 (> avg 8/5); node 2 has in-degree 2 (> 1.6
        // too). Both hubs here. With a bigger spread:
        let g2 = Graph::from_pairs(
            6,
            &[
                (0, 1),
                (2, 1),
                (3, 1),
                (4, 1),
                (1, 2),
                (2, 0),
                (0, 2),
                (1, 0),
            ],
        );
        let f2 = FilteredGraph::new(&g2);
        // avg degree = 8/6 = 1.33; node 1 in-deg 4 => hub; nodes 0,2 in-deg 2 => hubs.
        assert!(f2.num_hub() >= 1);
        // Hubs occupy the lowest new IDs among regulars.
        for u in 0..g2.n() as NodeId {
            if f2.to_new(u) < f2.num_hub() as NodeId {
                assert!(g2.in_degree(u) as f64 > g2.avg_degree());
            }
        }
        let _ = f;
    }

    #[test]
    fn edges_partition_across_substructures() {
        let g = toy();
        let f = FilteredGraph::new(&g);
        assert_eq!(
            f.reg_csr().nnz() + f.seed_csr().nnz() + f.sink_csc().nnz(),
            g.m()
        );
    }

    #[test]
    fn reg_csr_edges_match_original() {
        let g = toy();
        let f = FilteredGraph::new(&g);
        // Multiset of regular->regular edges must be preserved under perm.
        let mut want: Vec<(NodeId, NodeId)> = g
            .edges()
            .filter(|&(s, d)| {
                (f.to_new(s) as usize) < f.num_regular() && (f.to_new(d) as usize) < f.num_regular()
            })
            .map(|(s, d)| (f.to_new(s), f.to_new(d)))
            .collect();
        let mut got: Vec<(NodeId, NodeId)> = f.reg_csr().edges().collect();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(want, got);
    }

    #[test]
    fn sink_csc_covers_all_sink_in_edges() {
        let g = toy();
        let f = FilteredGraph::new(&g);
        let sink_old = 3u32;
        let local = f.to_new(sink_old) - (f.num_regular() + f.num_seed()) as NodeId;
        let mut got: Vec<NodeId> = f.sink_csc().neighbors(local).to_vec();
        let mut want: Vec<NodeId> = g
            .in_neighbors(sink_old)
            .iter()
            .map(|&v| f.to_new(v))
            .collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn out_degrees_follow_permutation() {
        let g = toy();
        let f = FilteredGraph::new(&g);
        for u in 0..g.n() as NodeId {
            assert_eq!(f.out_degree_new(f.to_new(u)) as usize, g.out_degree(u));
        }
    }

    #[test]
    fn permute_roundtrip() {
        let g = toy();
        let f = FilteredGraph::new(&g);
        let vals: Vec<f32> = (0..g.n()).map(|i| i as f32).collect();
        let permuted = f.permute(&vals);
        let back = f.unpermute(&permuted);
        assert_eq!(vals, back);
    }

    #[test]
    fn alpha_beta_match_stats() {
        let g = toy();
        let f = FilteredGraph::new(&g);
        let s = mixen_graph::StructuralStats::of(&g);
        assert!((f.alpha() - s.alpha).abs() < 1e-12);
        assert!((f.beta() - s.beta).abs() < 1e-12);
    }

    #[test]
    fn no_hub_sort_keeps_regular_order() {
        let g = toy();
        let f = FilteredGraph::with_ordering(&g, RegularOrdering::Original);
        assert_eq!(f.num_hub(), 0);
        // Regular nodes 1,2 keep relative order.
        assert!(f.to_new(1) < f.to_new(2));
    }

    #[test]
    fn by_in_degree_sorts_regulars_descending() {
        let g = toy();
        let f = FilteredGraph::with_ordering(&g, RegularOrdering::ByInDegree);
        let r = f.num_regular();
        let degs: Vec<usize> = (0..r as NodeId)
            .map(|new| g.in_degree(f.to_old(new)))
            .collect();
        assert!(degs.windows(2).all(|w| w[0] >= w[1]), "degs {degs:?}");
        // Edge partition invariant still holds.
        assert_eq!(
            f.reg_csr().nnz() + f.seed_csr().nnz() + f.sink_csc().nnz(),
            g.m()
        );
    }

    #[test]
    fn mixed_representation_is_smaller_than_csr_plus_csc() {
        use mixen_graph::{Dataset, Scale};
        for d in [Dataset::Weibo, Dataset::Wiki, Dataset::Pld] {
            let g = d.generate(Scale::Tiny, 9);
            let f = FilteredGraph::new(&g);
            assert!(
                f.memory_bytes() < g.memory_bytes(),
                "{}: {} vs {}",
                d.name(),
                f.memory_bytes(),
                g.memory_bytes()
            );
        }
    }

    #[test]
    fn filtering_never_builds_the_in_csc_and_does_not_depend_on_it() {
        use mixen_graph::{Dataset, Scale};
        let mut graphs: Vec<(String, Graph)> = Dataset::ALL
            .iter()
            .map(|d| (d.name().to_string(), d.generate(Scale::Tiny, 5)))
            .collect();
        for (name, n, pairs) in [
            ("empty", 0, &[][..]),
            ("all-sink", 6, &[(0, 1), (0, 2), (0, 5), (3, 5)]),
            ("self-loop", 4, &[(0, 0), (1, 1), (1, 2), (3, 3), (3, 0)]),
            (
                "duplicate-edge",
                5,
                &[(0, 3), (0, 3), (1, 3), (2, 0), (0, 2), (1, 4), (1, 4)],
            ),
        ] {
            graphs.push((name.to_string(), Graph::from_pairs(n, pairs)));
        }
        for (name, cold) in &graphs {
            for ordering in RegularOrdering::ALL {
                for lanes in [1, 3] {
                    let g = cold.clone();
                    let f = mixen_pool::with_threads(lanes, || {
                        FilteredGraph::with_ordering(&g, ordering)
                    });
                    assert!(!g.has_in_csc(), "{name}: filtering built the in-CSC");
                    g.in_csc();
                    let warm = FilteredGraph::with_ordering(&g, ordering);
                    let at = format!("{name}, {ordering:?}, {lanes} lanes");
                    assert_eq!(f.perm(), warm.perm(), "{at}");
                    assert_eq!(f.inv(), warm.inv(), "{at}");
                    assert_eq!(f.reg_csr(), warm.reg_csr(), "{at}");
                    assert_eq!(f.seed_csr(), warm.seed_csr(), "{at}");
                    assert_eq!(f.sink_csc(), warm.sink_csc(), "{at}");
                    assert_eq!(f.out_degrees(), warm.out_degrees(), "{at}");
                    // The rows the in-CSC gives: each sink's in-neighbours,
                    // relabeled and sorted by new ID.
                    let base = f.num_regular() + f.num_seed();
                    let want = Csr::from_row_fn(f.num_sink(), base, |k, out| {
                        let old = f.to_old(nid(base) + k);
                        out.extend(g.in_neighbors(old).iter().map(|&u| f.to_new(u)));
                    });
                    assert_eq!(f.sink_csc(), &want, "{at}");
                    f.debug_validate().unwrap();
                }
            }
        }
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_pairs(0, &[]);
        let f = FilteredGraph::new(&g);
        assert_eq!(f.n(), 0);
        assert_eq!(f.num_regular(), 0);
    }

    #[test]
    fn all_isolated() {
        let g = Graph::from_pairs(4, &[]);
        let f = FilteredGraph::new(&g);
        assert_eq!(f.num_isolated(), 4);
        assert_eq!(f.reg_csr().nnz(), 0);
    }

    #[test]
    fn debug_validate_accepts_every_ordering() {
        let g = toy();
        for ordering in RegularOrdering::ALL {
            let f = FilteredGraph::with_ordering(&g, ordering);
            f.debug_validate().unwrap();
        }
    }

    #[test]
    fn hub_prefix_survives_dbg_and_hubsort() {
        use mixen_graph::{Dataset, Scale};
        let g = Dataset::Rmat.generate(Scale::Tiny, 7);
        let class = mixen_graph::Classification::of(&g);
        for ordering in [RegularOrdering::Dbg, RegularOrdering::HubSort] {
            let f = FilteredGraph::with_ordering(&g, ordering);
            // Every position below num_hub holds a hub, none above does.
            for new in 0..f.num_regular() as NodeId {
                assert_eq!(
                    class.is_hub(f.to_old(new)),
                    (new as usize) < f.num_hub(),
                    "{:?}: new id {new}",
                    ordering
                );
            }
            f.debug_validate().unwrap();
        }
    }

    #[test]
    fn relabel_cost_is_recorded() {
        let g = toy();
        let f = FilteredGraph::new(&g);
        assert!(f.relabel_seconds() >= 0.0);
    }

    #[test]
    fn debug_validate_rejects_corrupt_permutation() {
        let mut f = FilteredGraph::new(&toy());
        f.perm.swap(0, 1);
        let err = f.debug_validate().unwrap_err();
        assert!(err.to_string().contains("mutual inverses"), "{err}");
    }

    #[test]
    fn debug_validate_rejects_broken_partition() {
        let mut f = FilteredGraph::new(&toy());
        f.num_isolated += 1;
        let err = f.debug_validate().unwrap_err();
        assert!(err.to_string().contains("partition"), "{err}");
    }

    #[test]
    fn debug_validate_rejects_hub_overflow() {
        let mut f = FilteredGraph::new(&toy());
        f.num_hub = f.num_regular + 1;
        let err = f.debug_validate().unwrap_err();
        assert!(err.to_string().contains("hub count"), "{err}");
    }

    #[test]
    fn debug_validate_rejects_unstable_relabeling() {
        let mut f = FilteredGraph::new(&toy());
        // Swap two new ids inside the same class range (seed..sink..iso are
        // singletons in toy(), so swap the two regulars and mark the graph
        // Original so the whole regular range must be stable).
        let r = f.num_regular;
        assert_eq!(r, 2);
        f.ordering = RegularOrdering::Original;
        f.num_hub = 0;
        f.inv.swap(0, 1);
        f.perm.swap(f.inv[0] as usize, f.inv[1] as usize);
        let err = f.debug_validate().unwrap_err();
        assert!(err.to_string().contains("not stable"), "{err}");
    }
}
