//! Cross-crate integration tests for the weighted/semiring extension:
//! weighted Mixen vs the weighted pull oracle on every dataset family, and
//! shortest paths verified against Dijkstra.

use mixen_algos::{dijkstra, sssp, sssp_pull, weighted_spmv};
use mixen_baselines::WPullEngine;
use mixen_core::{BinEncoding, Engine, MixenEngine, MixenOpts, RegularOrdering};
use mixen_graph::{Dataset, Graph, GraphError, MinF32, NodeId, PropValue, Scale, WGraph};

fn weighted(d: Dataset, seed: u64) -> WGraph {
    let g = d.generate(Scale::Tiny, seed);
    WGraph::with_hash_weights(&g, 0.5, 4.0, seed ^ 0xABCD)
}

#[test]
fn weighted_engines_agree_on_every_dataset_family() {
    for d in [Dataset::Weibo, Dataset::Wiki, Dataset::Pld, Dataset::Road] {
        let wg = weighted(d, 61);
        let g = wg.topology().clone();
        let mixen = MixenEngine::try_weighted(&wg, MixenOpts::default()).unwrap();
        let pull = WPullEngine::new(&wg);
        // Contract-respecting damped kernel.
        let apply = |_: NodeId, s: f32| 0.2 * s + 1.0;
        let init = move |v: NodeId| if g.in_degree(v) == 0 { 1.0 } else { 0.5 };
        let a = mixen.iterate::<f32, _, _>(&init, apply, 4);
        let b = pull.iterate::<f32, _, _>(&init, apply, 4);
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert!(
                (x - y).abs() < 1e-3 * (1.0 + x.abs()),
                "{}: node {i}: {x} vs {y}",
                d.name()
            );
        }
    }
}

#[test]
fn weighted_spmv_matches_manual_accumulation() {
    let wg = weighted(Dataset::Track, 62);
    let engine = MixenEngine::try_weighted(&wg, MixenOpts::default()).unwrap();
    let x: Vec<f32> = (0..wg.n()).map(|i| ((i % 13) + 1) as f32).collect();
    let y = weighted_spmv(&engine, &x);
    // Manual pull for a sample of nodes.
    for v in (0..wg.n() as u32).step_by(97) {
        let want: f32 = wg.in_edges(v).map(|(u, w)| w * x[u as usize]).sum();
        assert!(
            (y[v as usize] - want).abs() < 1e-2 * (1.0 + want.abs()),
            "node {v}: {} vs {want}",
            y[v as usize]
        );
    }
}

#[test]
fn sssp_on_weighted_road_network_matches_dijkstra() {
    let g = Dataset::Road.generate(Scale::Tiny, 63);
    let wg = WGraph::with_hash_weights(&g, 1.0, 9.0, 8);
    let engine = MixenEngine::try_weighted(&wg, MixenOpts::default()).unwrap();
    let root = 0u32;
    let got = sssp(&engine, root, 1_000_000);
    let pull = sssp_pull(&wg, root, 1_000_000);
    let want = dijkstra(&wg, root);
    for v in 0..wg.n() {
        assert!(
            (got[v] - want[v]).abs() < 1e-2 || (got[v].is_infinite() && want[v].is_infinite()),
            "mixen node {v}: {} vs {}",
            got[v],
            want[v]
        );
        assert!(
            (pull[v] - want[v]).abs() < 1e-2 || (pull[v].is_infinite() && want[v].is_infinite()),
            "pull node {v}: {} vs {}",
            pull[v],
            want[v]
        );
    }
}

#[test]
fn weights_survive_symmetric_datasets() {
    // Undirected datasets keep one weight per direction; the hash keys by
    // (u, v) so directions differ — both must be retrievable.
    let g = Dataset::Urand.generate(Scale::Tiny, 64);
    let wg = WGraph::with_hash_weights(&g, 1.0, 2.0, 9);
    let mut checked = 0;
    for u in (0..g.n() as u32).step_by(53) {
        for (v, w) in wg.out_edges(u) {
            assert!((1.0..2.0).contains(&w));
            assert!(wg.weight(v, u).is_some(), "reverse edge must exist");
            checked += 1;
        }
    }
    assert!(checked > 10);
}

// ---- The weighted engine is the unweighted pipeline plus a parameter ----

/// A graph with every node class whose regular hub column is heavy enough
/// for the gather balancer to chunk it at `block_side = 8`.
fn hub_graph() -> Graph {
    let mut pairs = Vec::new();
    for u in 0..32u32 {
        for d in 0..8u32 {
            if u != d {
                pairs.push((u, d)); // hub column 0..8
            }
        }
        pairs.push((u, 8 + (u * 7 + 3) % 24)); // keeps everyone regular
    }
    for s in 32..36u32 {
        pairs.push((s, (s * 5) % 32)); // seeds
        pairs.push((s, 36 + s % 3)); // seed -> sink
    }
    for u in [1u32, 9, 17] {
        pairs.push((u, 36 + u % 3)); // regular -> sink
    }
    Graph::from_pairs(40, &pairs)
}

fn hub_opts() -> MixenOpts {
    MixenOpts {
        block_side: 8,
        min_tasks_per_thread: 1,
        ..MixenOpts::default()
    }
}

#[test]
fn unit_weights_match_the_unweighted_engine_bit_for_bit() {
    let g = hub_graph();
    let wg = WGraph::from_graph(&g, |_, _| 1.0);
    // Both engines share the same seed semantics, so any init agrees.
    let init = |v: NodeId| (v % 5) as f32 * 0.25 + 0.5;
    let apply = |v: NodeId, s: f32| 0.3 * s + 0.01 * v as f32;
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for ordering in RegularOrdering::ALL {
        for bin_encoding in BinEncoding::ALL {
            for cache_step in [true, false] {
                for lanes in [1usize, 2] {
                    let opts = MixenOpts {
                        ordering,
                        bin_encoding,
                        cache_step,
                        ..hub_opts()
                    };
                    let (a, b) = mixen_pool::with_threads(lanes, || {
                        let weighted = MixenEngine::try_weighted(&wg, opts).unwrap();
                        let unweighted = MixenEngine::new(&g, opts);
                        assert!(unweighted.blocked().split_stats().gather_splits > 0);
                        (
                            weighted.iterate_until(init, apply, 1e-6, 6),
                            unweighted.iterate_until(init, apply, 1e-6, 6),
                        )
                    });
                    assert_eq!(a.1, b.1);
                    assert_eq!(
                        bits(&a.0),
                        bits(&b.0),
                        "{ordering:?} {bin_encoding:?} cache_step={cache_step} lanes={lanes}"
                    );
                }
            }
        }
    }
}

#[test]
fn chunked_hub_column_addresses_weights_in_chunk_order() {
    let g = hub_graph();
    let wg = WGraph::with_hash_weights(&g, 0.5, 4.0, 11);
    let mixen = MixenEngine::try_weighted(&wg, hub_opts()).unwrap();
    assert!(
        mixen.blocked().split_stats().gather_splits > 0,
        "the hub column must be chunked: {:?}",
        mixen.blocked().split_stats()
    );
    let pull = WPullEngine::new(&wg);
    let fixed = |v: NodeId| 0.1 * (v % 7) as f32 + 0.2;
    let apply = move |v: NodeId, s: f32| 0.2 * s + fixed(v);
    let a = mixen.iterate::<f32, _, _>(fixed, apply, 3);
    let b = pull.iterate::<f32, _, _>(fixed, apply, 3);
    for (v, (x, y)) in a.iter().zip(&b).enumerate() {
        assert!(
            (x - y).abs() <= 1e-4 * (1.0 + y.abs()),
            "node {v}: {x} vs {y}"
        );
    }
    // `min` is order-independent, so the tropical run agrees exactly.
    let root = 33u32;
    let init = |v: NodeId| {
        if v == root {
            MinF32(0.0)
        } else {
            MinF32::identity()
        }
    };
    let relax = move |v: NodeId, s: MinF32| {
        let mut out = s;
        out.combine(init(v));
        out
    };
    let (a, _) = mixen.iterate_until(init, relax, 0.0, 50);
    let (b, _) = pull.iterate_until(init, relax, 0.0, 50);
    assert_eq!(a, b);
    assert!(a.iter().filter(|d| d.0.is_finite()).count() > 8);
}

#[test]
fn weighted_f16_overflow_is_a_numeric_error_stamped_with_the_iteration() {
    let wg = WGraph::from_triples(
        5,
        &[
            (0, 1, 2.0),
            (1, 2, 0.5),
            (2, 0, 1.5),
            (3, 0, 4.0),
            (3, 4, 1.0),
            (1, 4, 3.0),
        ],
    );
    let opts = MixenOpts {
        bin_encoding: BinEncoding::F16,
        ..hub_opts()
    };
    let engine = MixenEngine::try_weighted(&wg, opts).unwrap();
    // Values grow ~300x per round: inside the f16 range when rounds 0 and
    // 1 scatter, past 65504 when round 2 does.
    let err = engine
        .try_run::<f32, _, _>(|_| 1.0, |_, s| 300.0 * s + 300.0, 5, None)
        .unwrap_err();
    match err {
        GraphError::Numeric { iteration, .. } => assert_eq!(iteration, 2),
        other => panic!("expected a numeric error, got {other:?}"),
    }
}
