//! End-to-end exercise of the construction-time validators: in a debug
//! build (the test profile) every engine constructed here runs
//! `FilteredGraph::debug_validate` and `BlockedSubgraph::debug_validate`
//! internally, and every bin allocation the bin-metadata check, and panics on
//! any violated preprocessing invariant, so these tests simply have to build
//! engines over a spread of graph shapes, orderings, and block sides and
//! produce correct results.

use mixen_core::{Engine, MixenEngine, MixenOpts, RegularOrdering};
use mixen_graph::gen::{kronecker, uniform};
use mixen_graph::{Graph, WGraph};

fn orderings() -> [RegularOrdering; 5] {
    RegularOrdering::ALL
}

fn degree_sum(e: &MixenEngine, g: &Graph) -> Vec<f32> {
    e.iterate::<f32, _, _>(|v| g.out_degree(v) as f32, |_, sum| sum, 1)
}

fn reference_degree_sum(g: &Graph) -> Vec<f32> {
    let mut want = vec![0.0f32; g.n()];
    for u in 0..g.n() as u32 {
        for &v in g.out_neighbors(u) {
            want[v as usize] += g.out_degree(u) as f32;
        }
    }
    want
}

#[test]
fn skewed_graph_validates_under_every_ordering() {
    let g = kronecker(9, 8, 42);
    for ordering in orderings() {
        for block_side in [4usize, 64, 1024] {
            let opts = MixenOpts {
                ordering,
                block_side,
                min_tasks_per_thread: 1,
                ..MixenOpts::default()
            };
            let e = MixenEngine::new(&g, opts);
            assert_eq!(degree_sum(&e, &g), reference_degree_sum(&g));
        }
    }
}

#[test]
fn uniform_graph_validates_under_every_ordering() {
    let g = uniform(500, 6, 7);
    for ordering in orderings() {
        let opts = MixenOpts {
            ordering,
            block_side: 32,
            min_tasks_per_thread: 1,
            ..MixenOpts::default()
        };
        let e = MixenEngine::new(&g, opts);
        assert_eq!(degree_sum(&e, &g), reference_degree_sum(&g));
    }
}

#[test]
fn degenerate_graphs_validate() {
    // Empty, edgeless, single-edge, and all-isolated graphs all have
    // boundary-case partitions (r = 0, empty blocks, hub count 0).
    let shapes = [
        Graph::from_pairs(0, &[]),
        Graph::from_pairs(4, &[]),
        Graph::from_pairs(2, &[(0, 1)]),
        Graph::from_pairs(3, &[(0, 1), (1, 2), (2, 0)]),
    ];
    for g in &shapes {
        for ordering in orderings() {
            let opts = MixenOpts {
                ordering,
                block_side: 2,
                min_tasks_per_thread: 1,
                ..MixenOpts::default()
            };
            let e = MixenEngine::new(g, opts);
            assert_eq!(degree_sum(&e, g), reference_degree_sum(g));
        }
    }
}

#[test]
fn weighted_engine_validates() {
    let g = kronecker(8, 6, 3);
    let wg = WGraph::from_graph(&g, |_, _| 1.0);
    for ordering in orderings() {
        let opts = MixenOpts {
            ordering,
            block_side: 64,
            min_tasks_per_thread: 1,
            ..MixenOpts::default()
        };
        // Construction alone triggers both validators.
        MixenEngine::try_weighted(&wg, opts).unwrap();
    }
}
