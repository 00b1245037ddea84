//! Connectivity classification (§2.1 of the paper).
//!
//! Nodes are split into four classes by the presence of incoming/outgoing
//! links, and *hubs* are the nodes whose in-degree exceeds the average degree
//! of the whole graph. Both facts drive Mixen's filtering step (§4.1): the
//! class determines where a node lands in the relabeled ID space, and hubs
//! are additionally moved to the front of the regular range.

use crate::nid;

use crate::{Graph, NodeId};

/// Connectivity class of a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NodeClass {
    /// Both incoming and outgoing links.
    Regular = 0,
    /// Only outgoing links (conventionally "source"; the paper uses "seed").
    Seed = 1,
    /// Only incoming links.
    Sink = 2,
    /// No links at all.
    Isolated = 3,
}

impl NodeClass {
    /// All classes in Mixen's relabeling order.
    pub const ALL: [NodeClass; 4] = [
        NodeClass::Regular,
        NodeClass::Seed,
        NodeClass::Sink,
        NodeClass::Isolated,
    ];

    /// Derives the class from a node's degrees.
    #[inline]
    pub fn from_degrees(in_deg: usize, out_deg: usize) -> Self {
        match (in_deg > 0, out_deg > 0) {
            (true, true) => NodeClass::Regular,
            (false, true) => NodeClass::Seed,
            (true, false) => NodeClass::Sink,
            (false, false) => NodeClass::Isolated,
        }
    }
}

/// The outcome of classifying every node of a graph.
#[derive(Clone, Debug)]
pub struct Classification {
    classes: Vec<NodeClass>,
    hubs: Vec<bool>,
    counts: [usize; 4],
    hub_count: usize,
    hub_in_edges: usize,
    avg_degree: f64,
}

impl Classification {
    /// Classifies all nodes of `g` in one parallel scan and detects hubs
    /// (in-degree strictly greater than the graph's average degree, per the
    /// paper's definition in §2.1).
    pub fn of(g: &Graph) -> Self {
        let avg = g.avg_degree();
        let per_node: Vec<(NodeClass, bool, usize)> = mixen_pool::par_parts(g.n(), |part| {
            part.map(|u| {
                let u = nid(u);
                let ind = g.in_degree(u);
                let outd = g.out_degree(u);
                let class = NodeClass::from_degrees(ind, outd);
                let hub = (ind as f64) > avg;
                (class, hub, if hub { ind } else { 0 })
            })
            .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        let mut counts = [0usize; 4];
        let mut hub_count = 0usize;
        let mut hub_in_edges = 0usize;
        let mut classes = Vec::with_capacity(g.n());
        let mut hubs = Vec::with_capacity(g.n());
        for (class, hub, hub_edges) in per_node {
            counts[class as usize] += 1;
            hub_count += hub as usize;
            hub_in_edges += hub_edges;
            classes.push(class);
            hubs.push(hub);
        }
        Self {
            classes,
            hubs,
            counts,
            hub_count,
            hub_in_edges,
            avg_degree: avg,
        }
    }

    /// The class of node `u`.
    #[inline]
    pub fn class(&self, u: NodeId) -> NodeClass {
        self.classes[u as usize]
    }

    /// Whether node `u` is a hub (in-degree > average degree).
    #[inline]
    pub fn is_hub(&self, u: NodeId) -> bool {
        self.hubs[u as usize]
    }

    /// Per-class node counts, indexed by `NodeClass as usize`.
    pub fn counts(&self) -> [usize; 4] {
        self.counts
    }

    /// Number of nodes in a class.
    pub fn count(&self, class: NodeClass) -> usize {
        self.counts[class as usize]
    }

    /// Number of hubs.
    pub fn hub_count(&self) -> usize {
        self.hub_count
    }

    /// Total in-degree of all hubs (the paper's `E_hub` numerator).
    pub fn hub_in_edges(&self) -> usize {
        self.hub_in_edges
    }

    /// The average degree used as the hub threshold.
    pub fn avg_degree(&self) -> f64 {
        self.avg_degree
    }

    /// Number of nodes classified.
    pub fn n(&self) -> usize {
        self.classes.len()
    }

    /// Slice of all classes.
    pub fn classes(&self) -> &[NodeClass] {
        &self.classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    #[test]
    fn from_degrees_truth_table() {
        assert_eq!(NodeClass::from_degrees(1, 1), NodeClass::Regular);
        assert_eq!(NodeClass::from_degrees(0, 3), NodeClass::Seed);
        assert_eq!(NodeClass::from_degrees(2, 0), NodeClass::Sink);
        assert_eq!(NodeClass::from_degrees(0, 0), NodeClass::Isolated);
    }

    #[test]
    fn classify_small_graph() {
        // 0: seed (out only), 1: regular, 2: sink (in only), 3: isolated.
        let g = Graph::from_pairs(4, &[(0, 1), (1, 2), (0, 2)]);
        let c = Classification::of(&g);
        assert_eq!(c.class(0), NodeClass::Seed);
        assert_eq!(c.class(1), NodeClass::Regular);
        assert_eq!(c.class(2), NodeClass::Sink);
        assert_eq!(c.class(3), NodeClass::Isolated);
        assert_eq!(c.counts(), [1, 1, 1, 1]);
    }

    #[test]
    fn counts_partition_n() {
        let g = Graph::from_pairs(6, &[(0, 1), (1, 0), (2, 3), (4, 3)]);
        let c = Classification::of(&g);
        assert_eq!(c.counts().iter().sum::<usize>(), g.n());
    }

    #[test]
    fn hub_threshold_is_strict_average() {
        // n=4, m=4 => avg degree 1. Node 1 has in-degree 3 (> 1): hub.
        // Node 2 has in-degree 1 (== 1): not a hub.
        let g = Graph::from_pairs(4, &[(0, 1), (2, 1), (3, 1), (1, 2)]);
        let c = Classification::of(&g);
        assert!(c.is_hub(1));
        assert!(!c.is_hub(2));
        assert_eq!(c.hub_count(), 1);
        assert_eq!(c.hub_in_edges(), 3);
    }

    #[test]
    fn empty_graph_classifies() {
        let g = Graph::from_pairs(0, &[]);
        let c = Classification::of(&g);
        assert_eq!(c.n(), 0);
        assert_eq!(c.counts(), [0, 0, 0, 0]);
    }

    #[test]
    fn self_loop_makes_regular() {
        let g = Graph::from_pairs(2, &[(0, 0)]);
        let c = Classification::of(&g);
        assert_eq!(c.class(0), NodeClass::Regular);
        assert_eq!(c.class(1), NodeClass::Isolated);
    }
}
