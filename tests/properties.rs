//! Property-based tests over randomly generated graphs: the invariants of
//! DESIGN.md §6, checked with proptest on arbitrary edge sets.

use mixen_baselines::{BlockEngine, PullEngine, PushEngine, ReferenceEngine};
use mixen_core::{FilteredGraph, MixenEngine, MixenOpts};
use mixen_graph::{Classification, Graph, NodeClass, StructuralStats};
use proptest::prelude::*;

/// Arbitrary directed graph: up to 24 nodes, up to 80 edges (duplicates and
/// self-loops allowed — the substrate must cope).
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..24).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..80)
            .prop_map(move |edges| Graph::from_pairs(n, &edges))
    })
}

/// A square CSR whose edge mass leans on destinations `0..4`, so at block
/// side 8 the first block-column is usually chunked by the gather balancer
/// and blocks hold more message slots than one unrolled step consumes.
fn arb_hub_csr() -> impl Strategy<Value = mixen_graph::Csr> {
    (16usize..48).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32, 0..4u32), 0..400).prop_map(
            move |edges| {
                let edges: Vec<(u32, u32)> = edges
                    .into_iter()
                    .map(|(u, v, hub)| (u, if hub == 0 { v } else { v % 4 }))
                    .collect();
                mixen_graph::Csr::from_edges(n, &edges)
            },
        )
    })
}

fn small_opts() -> MixenOpts {
    MixenOpts {
        block_side: 4,
        min_tasks_per_thread: 1,
        ..MixenOpts::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn filtering_is_a_bijection(g in arb_graph()) {
        let f = FilteredGraph::new(&g);
        let mut seen = vec![false; g.n()];
        for old in 0..g.n() as u32 {
            let new = f.to_new(old);
            prop_assert!(!seen[new as usize]);
            seen[new as usize] = true;
            prop_assert_eq!(f.to_old(new), old);
        }
    }

    #[test]
    fn class_boundaries_partition_nodes(g in arb_graph()) {
        let f = FilteredGraph::new(&g);
        let c = Classification::of(&g);
        prop_assert_eq!(
            f.num_regular() + f.num_seed() + f.num_sink() + f.num_isolated(),
            g.n()
        );
        prop_assert_eq!(f.num_regular(), c.count(NodeClass::Regular));
        prop_assert_eq!(f.num_seed(), c.count(NodeClass::Seed));
        prop_assert_eq!(f.num_sink(), c.count(NodeClass::Sink));
        prop_assert_eq!(f.num_isolated(), c.count(NodeClass::Isolated));
    }

    #[test]
    fn every_edge_lands_in_exactly_one_substructure(g in arb_graph()) {
        let f = FilteredGraph::new(&g);
        prop_assert_eq!(
            f.reg_csr().nnz() + f.seed_csr().nnz() + f.sink_csc().nnz(),
            g.m()
        );
    }

    #[test]
    fn blocking_covers_regular_edges_exactly_once(g in arb_graph()) {
        let f = FilteredGraph::new(&g);
        let blocked = mixen_core::BlockedSubgraph::new(f.reg_csr(), &small_opts(), 1);
        prop_assert_eq!(blocked.nnz(), f.reg_csr().nnz());
        // Reconstruct and compare edge multisets.
        let mut got: Vec<(u32, u32)> = Vec::new();
        for row in blocked.rows() {
            for (j, blk) in row.blocks.iter().enumerate() {
                let col_base = (j * blocked.block_side()) as u32;
                for (k, &src) in blk.src_ids.iter().enumerate() {
                    for d in blk.dests_of(k) {
                        got.push((row.src_start + src, col_base + d));
                    }
                }
            }
        }
        got.sort_unstable();
        let mut want: Vec<(u32, u32)> = f.reg_csr().edges().collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn mixen_spmv_equals_reference(g in arb_graph()) {
        let engine = MixenEngine::new(&g, small_opts());
        let reference = ReferenceEngine::new(&g);
        let init = |v: u32| (v % 7) as f32 + 0.5;
        let got = engine.iterate::<f32, _, _>(init, |_, s| s, 1);
        let want = reference.iterate::<f32, _, _>(init, |_, s| s, 1);
        for (a, b) in got.iter().zip(&want) {
            prop_assert!((a - b).abs() < 1e-3, "{:?} vs {:?}", got, want);
        }
    }

    #[test]
    fn all_engines_agree_on_random_graphs(g in arb_graph()) {
        let reference = ReferenceEngine::new(&g);
        let apply = |_: u32, s: f32| 0.5 * s + 1.0;
        let init = |_: u32| 1.0f32;
        let want = reference.iterate::<f32, _, _>(init, apply, 3);
        let engines_out = [
            MixenEngine::new(&g, small_opts()).iterate::<f32, _, _>(init, apply, 3),
            PullEngine::new(&g).iterate::<f32, _, _>(init, apply, 3),
            PushEngine::new(&g).iterate::<f32, _, _>(init, apply, 3),
            BlockEngine::new(&g, 4).iterate::<f32, _, _>(init, apply, 3),
        ];
        for out in &engines_out {
            for (a, b) in out.iter().zip(&want) {
                prop_assert!((a - b).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn bfs_depths_are_consistent(g in arb_graph(), root_seed in 0u32..100) {
        let root = root_seed % g.n() as u32;
        let engine = MixenEngine::new(&g, small_opts());
        let depths = engine.bfs(root);
        prop_assert_eq!(depths[root as usize], 0);
        // Every reached node at depth d > 0 has an in-neighbour at depth d-1,
        // and no edge skips a level downward (BFS optimality).
        for v in 0..g.n() as u32 {
            let d = depths[v as usize];
            if d > 0 {
                let has_parent = g
                    .in_neighbors(v)
                    .iter()
                    .any(|&u| depths[u as usize] == d - 1);
                prop_assert!(has_parent, "node {} depth {} lacks a parent", v, d);
            }
            if d >= 0 {
                for &w in g.out_neighbors(v) {
                    let dw = depths[w as usize];
                    prop_assert!(dw >= 0 && dw <= d + 1, "edge {}->{} skips levels", v, w);
                }
            }
        }
    }

    #[test]
    fn spmv_is_linear(g in arb_graph()) {
        let engine = MixenEngine::new(&g, small_opts());
        let xa: Vec<f32> = (0..g.n()).map(|i| (i % 5) as f32).collect();
        let xb: Vec<f32> = (0..g.n()).map(|i| ((i * 3) % 7) as f32).collect();
        let ya = engine.iterate::<f32, _, _>(|v| xa[v as usize], |_, s| s, 1);
        let yb = engine.iterate::<f32, _, _>(|v| xb[v as usize], |_, s| s, 1);
        let ysum = engine.iterate::<f32, _, _>(|v| xa[v as usize] + xb[v as usize], |_, s| s, 1);
        for i in 0..g.n() {
            prop_assert!((ya[i] + yb[i] - ysum[i]).abs() < 1e-3);
        }
    }

    #[test]
    fn kernels_match_a_scalar_slot_order_walk_bit_for_bit(csr in arb_hub_csr()) {
        // DESIGN.md §11: Gather's flat pass over the flagged destination
        // streams (blocks' own or a chunk's cut) never reorders *combines*,
        // and prefetch is a pure hint — so one Scatter + Gather round must
        // produce exactly the bits of a scalar walk that visits, per
        // block-column, block-rows ascending and message slots ascending.
        // This is the oracle every `// width:` justification in `scga.rs`
        // rests on.
        use mixen_core::bins::{plan_codec, DynamicBins};
        use mixen_core::{scga, BinEncoding, BlockedSubgraph};
        let opts = MixenOpts { block_side: 8, min_tasks_per_thread: 1, ..MixenOpts::default() };
        let b = BlockedSubgraph::new(&csr, &opts, 1);
        let x: Vec<f32> = (0..csr.n_rows()).map(|i| (i as f32).mul_add(0.37, 1.0).sin()).collect();
        for enc in BinEncoding::ALL {
            let codec = plan_codec::<f32>(enc, &x).unwrap();
            let streamed = |v: f32| if enc.is_compressed() { codec.decode(codec.encode(v)) } else { v };
            let mut want = vec![0.0f32; csr.n_cols()];
            for j in 0..b.n_col_blocks() {
                for &ti in b.nonempty_rows(j) {
                    let row = &b.rows()[ti as usize];
                    let blk = &row.blocks[j];
                    for (k, &src) in blk.src_ids.iter().enumerate() {
                        let v = streamed(x[(row.src_start + src) as usize]);
                        for d in blk.dests_of(k) {
                            want[j * b.block_side() + d as usize] += v;
                        }
                    }
                }
            }
            let mut bins: DynamicBins<f32> = DynamicBins::with_encoding(&b, enc);
            let mut got = vec![0.0f32; csr.n_cols()];
            scga::try_scatter_with(&b, &mut x.clone(), &mut bins, None, None).unwrap();
            scga::gather_with(&b, &bins, &mut got, |_, s| s, None);
            for (d, (a, w)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(a.to_bits(), w.to_bits(), "{:?} dest {}: {} vs {}", enc, d, a, w);
            }
        }
    }

    #[test]
    fn weighted_kernels_match_a_scalar_scale_edge_walk_bit_for_bit(
        (n, extra) in (24u32..48).prop_flat_map(|n| {
            (Just(n), proptest::collection::vec((0..n, 0..n), 0..60))
        })
    ) {
        // The weighted twin of the oracle above, through the engine (weight
        // alignment is its business). A ring makes every node regular, so
        // one `iterate` round is exactly one Scatter + Gather over the
        // blocks; every node pointing at 0..4 forces the hub column to
        // chunk, so both weight alignments (block `dests`, chunk `entries`)
        // are walked.
        use mixen_core::bins::plan_codec;
        use mixen_core::BinEncoding;
        use mixen_graph::{PropValue, WGraph};
        let mut pairs = extra;
        for u in 0..n {
            pairs.push((u, (u + 1) % n));
            pairs.extend((0..4).map(|d| (u, d)));
        }
        pairs.sort_unstable();
        pairs.dedup(); // weights need a simple graph
        let g = Graph::from_pairs(n as usize, &pairs);
        let wg = WGraph::with_hash_weights(&g, 0.25, 4.0, 11);
        let x = |v: u32| (v as f32).mul_add(0.37, 1.0).sin();
        for enc in BinEncoding::ALL {
            let opts = MixenOpts { bin_encoding: enc, ..small_opts() };
            let engine = MixenEngine::try_weighted(&wg, opts).unwrap();
            let (f, b) = (engine.filtered(), engine.blocked());
            prop_assert_eq!(f.num_regular(), g.n());
            prop_assert!(b.split_stats().gather_splits > 0);
            let xs: Vec<f32> = (0..n).map(|new| x(f.to_old(new))).collect();
            let codec = plan_codec::<f32>(enc, &xs).unwrap();
            let streamed = |v: f32| if enc.is_compressed() { codec.decode(codec.encode(v)) } else { v };
            let mut want = vec![0.0f32; g.n()];
            for j in 0..b.n_col_blocks() {
                for &ti in b.nonempty_rows(j) {
                    let row = &b.rows()[ti as usize];
                    let blk = &row.blocks[j];
                    for (k, &src) in blk.src_ids.iter().enumerate() {
                        let u = f.to_old(row.src_start + src);
                        let v = streamed(x(u));
                        for d in blk.dests_of(k) {
                            let dst = f.to_old((j * b.block_side()) as u32 + d);
                            want[dst as usize] += v.scale_edge(wg.weight(u, dst).unwrap());
                        }
                    }
                }
            }
            let got = engine.iterate::<f32, _, _>(x, |_, s| s, 1);
            for (d, (a, w)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(a.to_bits(), w.to_bits(), "{:?} node {}: {} vs {}", enc, d, a, w);
            }
        }
    }

    #[test]
    fn compressed_encodings_stay_within_the_accuracy_budget(g in arb_graph()) {
        // F16/Q16 streams trade bits for bandwidth but plan_codec guarantees
        // the per-iteration error stays under ACCURACY_BUDGET; over a short
        // damped run the final ranks must agree to well under 1e-2.
        use mixen_core::BinEncoding;
        let init = |v: u32| (v % 7) as f32 * 0.1 + 0.1;
        let apply = |_: u32, s: f32| 0.85 * s + 0.15;
        let want = MixenEngine::new(&g, small_opts()).iterate::<f32, _, _>(init, apply, 3);
        let scale = want.iter().fold(1e-3f32, |m, v| m.max(v.abs()));
        for enc in [BinEncoding::F16, BinEncoding::Q16] {
            let got = MixenEngine::new(
                &g,
                MixenOpts { bin_encoding: enc, ..small_opts() },
            )
            .iterate::<f32, _, _>(init, apply, 3);
            for (a, b) in got.iter().zip(&want) {
                prop_assert!(
                    (a - b).abs() / scale < 1e-2,
                    "{:?}: {} vs {} (scale {})", enc, a, b, scale
                );
            }
        }
    }

    #[test]
    fn structural_stats_fractions_sum_to_one(g in arb_graph()) {
        let s = StructuralStats::of(&g);
        let sum = s.frac_regular + s.frac_seed + s.frac_sink + s.frac_isolated;
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(s.beta <= 1.0 + 1e-9);
        prop_assert!(s.alpha <= 1.0 + 1e-9);
    }

    #[test]
    fn permute_unpermute_roundtrip(g in arb_graph()) {
        let f = FilteredGraph::new(&g);
        let vals: Vec<u32> = (0..g.n() as u32).map(|i| i * 13 + 1).collect();
        prop_assert_eq!(f.unpermute(&f.permute(&vals)), vals);
    }

    #[test]
    fn csr_transpose_is_involutive(g in arb_graph()) {
        let t = g.out_csr().transpose();
        prop_assert_eq!(&t.transpose(), g.out_csr());
        prop_assert_eq!(&t, g.in_csc());
    }
}
