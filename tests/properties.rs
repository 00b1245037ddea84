//! Property tests over randomly generated graphs: the invariants of
//! DESIGN.md §6, checked on arbitrary edge sets. Case `seed` builds its
//! input from `SplitMix64::new(seed)`, and every assertion names the seed,
//! so a failing case replays from that one number.

use mixen_baselines::{BlockEngine, PullEngine, PushEngine, ReferenceEngine};
use mixen_core::{Engine, FilteredGraph, MixenEngine, MixenOpts};
use mixen_graph::rng::SplitMix64;
use mixen_graph::{Classification, Graph, NodeClass, StructuralStats};

const CASES: u64 = 64;

/// `m` random edges over `n` nodes.
fn edges(rng: &mut SplitMix64, n: u64, m: u64) -> Vec<(u32, u32)> {
    (0..m)
        .map(|_| (rng.below(n) as u32, rng.below(n) as u32))
        .collect()
}

/// Case `seed`'s directed graph: 2 to 23 nodes, up to 79 edges (duplicates
/// and self-loops allowed — the substrate must cope).
fn arb_graph(seed: u64) -> Graph {
    let mut rng = SplitMix64::new(seed);
    let n = 2 + rng.below(22);
    let m = rng.below(80);
    Graph::from_pairs(n as usize, &edges(&mut rng, n, m))
}

/// Runs `check` on every case's graph.
fn for_each_graph(check: impl Fn(u64, &Graph)) {
    for seed in 0..CASES {
        check(seed, &arb_graph(seed));
    }
}

/// Case `seed`'s square CSR whose edge mass leans on destinations `0..4`,
/// so at block side 8 the first block-column is usually chunked by the
/// gather balancer and blocks hold more message slots than one unrolled
/// step consumes.
fn arb_hub_csr(seed: u64) -> mixen_graph::Csr {
    let mut rng = SplitMix64::new(seed);
    let n = 16 + rng.below(32);
    let m = rng.below(400);
    let edges: Vec<(u32, u32)> = (0..m)
        .map(|_| {
            let (u, v) = (rng.below(n) as u32, rng.below(n) as u32);
            (u, if rng.below(4) == 0 { v } else { v % 4 })
        })
        .collect();
    mixen_graph::Csr::from_edges(n as usize, &edges)
}

fn small_opts() -> MixenOpts {
    MixenOpts {
        block_side: 4,
        min_tasks_per_thread: 1,
        ..MixenOpts::default()
    }
}

#[test]
fn filtering_is_a_bijection() {
    for_each_graph(|seed, g| {
        let f = FilteredGraph::new(g);
        let mut seen = vec![false; g.n()];
        for old in 0..g.n() as u32 {
            let new = f.to_new(old);
            assert!(!seen[new as usize], "case seed {seed}: {new} taken twice");
            seen[new as usize] = true;
            assert_eq!(f.to_old(new), old, "case seed {seed}");
        }
    });
}

#[test]
fn class_boundaries_partition_nodes() {
    for_each_graph(|seed, g| {
        let f = FilteredGraph::new(g);
        let c = Classification::of(g);
        let got = [
            f.num_regular(),
            f.num_seed(),
            f.num_sink(),
            f.num_isolated(),
        ];
        assert_eq!(got.iter().sum::<usize>(), g.n(), "case seed {seed}");
        assert_eq!(got, NodeClass::ALL.map(|k| c.count(k)), "case seed {seed}");
    });
}

#[test]
fn every_edge_lands_in_exactly_one_substructure() {
    for_each_graph(|seed, g| {
        let f = FilteredGraph::new(g);
        assert_eq!(
            f.reg_csr().nnz() + f.seed_csr().nnz() + f.sink_csc().nnz(),
            g.m(),
            "case seed {seed}"
        );
    });
}

#[test]
fn blocking_covers_regular_edges_exactly_once() {
    for_each_graph(|seed, g| {
        let f = FilteredGraph::new(g);
        let blocked = mixen_core::BlockedSubgraph::new(f.reg_csr(), &small_opts(), 1);
        assert_eq!(blocked.nnz(), f.reg_csr().nnz(), "case seed {seed}");
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
        assert_eq!(got, want, "case seed {seed}");
    });
}

#[test]
fn mixen_spmv_equals_reference() {
    for_each_graph(|seed, g| {
        let engine = MixenEngine::new(g, small_opts());
        let reference = ReferenceEngine::new(g);
        let init = |v: u32| (v % 7) as f32 + 0.5;
        let got = engine.iterate::<f32, _, _>(init, |_, s| s, 1);
        let want = reference.iterate::<f32, _, _>(init, |_, s| s, 1);
        for (a, b) in got.iter().zip(&want) {
            assert!(
                (a - b).abs() < 1e-3,
                "case seed {seed}: {got:?} vs {want:?}"
            );
        }
    });
}

#[test]
fn all_engines_agree_on_random_graphs() {
    for_each_graph(|seed, g| {
        let reference = ReferenceEngine::new(g);
        let apply = |_: u32, s: f32| 0.5 * s + 1.0;
        let init = |_: u32| 1.0f32;
        let want = reference.iterate::<f32, _, _>(init, apply, 3);
        let engines_out = [
            MixenEngine::new(g, small_opts()).iterate::<f32, _, _>(init, apply, 3),
            PullEngine::new(g).iterate::<f32, _, _>(init, apply, 3),
            PushEngine::new(g).iterate::<f32, _, _>(init, apply, 3),
            BlockEngine::new(g, 4).iterate::<f32, _, _>(init, apply, 3),
        ];
        for out in &engines_out {
            for (a, b) in out.iter().zip(&want) {
                assert!((a - b).abs() < 1e-3, "case seed {seed}: {a} vs {b}");
            }
        }
    });
}

#[test]
fn bfs_depths_are_consistent() {
    for_each_graph(|seed, g| {
        let root = (seed % g.n() as u64) as u32;
        let engine = MixenEngine::new(g, small_opts());
        let depths = engine.bfs(root);
        assert_eq!(depths[root as usize], 0, "case seed {seed}");
        // Every reached node at depth d > 0 has an in-neighbour at depth d-1,
        // and no edge skips a level downward (BFS optimality).
        for v in 0..g.n() as u32 {
            let d = depths[v as usize];
            if d > 0 {
                let has_parent = g
                    .in_neighbors(v)
                    .iter()
                    .any(|&u| depths[u as usize] == d - 1);
                assert!(
                    has_parent,
                    "case seed {seed}: node {v} depth {d} lacks a parent"
                );
            }
            if d >= 0 {
                for &w in g.out_neighbors(v) {
                    let dw = depths[w as usize];
                    let ok = dw >= 0 && dw <= d + 1;
                    assert!(ok, "case seed {seed}: edge {v}->{w} skips levels");
                }
            }
        }
    });
}

#[test]
fn spmv_is_linear() {
    for_each_graph(|seed, g| {
        let engine = MixenEngine::new(g, small_opts());
        let xa: Vec<f32> = (0..g.n()).map(|i| (i % 5) as f32).collect();
        let xb: Vec<f32> = (0..g.n()).map(|i| ((i * 3) % 7) as f32).collect();
        let ya = engine.iterate::<f32, _, _>(|v| xa[v as usize], |_, s| s, 1);
        let yb = engine.iterate::<f32, _, _>(|v| xb[v as usize], |_, s| s, 1);
        let ysum = engine.iterate::<f32, _, _>(|v| xa[v as usize] + xb[v as usize], |_, s| s, 1);
        for i in 0..g.n() {
            assert!(
                (ya[i] + yb[i] - ysum[i]).abs() < 1e-3,
                "case seed {seed}: node {i}"
            );
        }
    });
}

#[test]
fn kernels_match_a_scalar_slot_order_walk_bit_for_bit() {
    // DESIGN.md §11: Gather's flat pass over the flagged destination
    // streams (blocks' own or a chunk's cut) never reorders *combines*,
    // and prefetch is a pure hint — so one Scatter + Gather round must
    // produce exactly the bits of a scalar walk that visits, per
    // block-column, block-rows ascending and message slots ascending.
    // This is the oracle every `// width:` justification in `scga.rs`
    // rests on.
    use mixen_core::bins::{plan_codec, DynamicBins};
    use mixen_core::{scga, BinEncoding, BlockedSubgraph};
    for seed in 0..CASES {
        let csr = arb_hub_csr(seed);
        let opts = MixenOpts {
            block_side: 8,
            min_tasks_per_thread: 1,
            ..MixenOpts::default()
        };
        let b = BlockedSubgraph::new(&csr, &opts, 1);
        let x: Vec<f32> = (0..csr.n_rows())
            .map(|i| (i as f32).mul_add(0.37, 1.0).sin())
            .collect();
        for enc in BinEncoding::ALL {
            let codec = plan_codec::<f32>(enc, &x).unwrap();
            let streamed = |v: f32| {
                if enc.is_compressed() {
                    codec.decode(codec.encode(v))
                } else {
                    v
                }
            };
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
                assert_eq!(
                    a.to_bits(),
                    w.to_bits(),
                    "case seed {seed}: {enc:?} dest {d}: {a} vs {w}"
                );
            }
        }
    }
}

#[test]
fn weighted_kernels_match_a_scalar_scale_edge_walk_bit_for_bit() {
    // The weighted twin of the oracle above, through the engine (weight
    // alignment is its business). A ring makes every node regular, so
    // one `iterate` round is exactly one Scatter + Gather over the
    // blocks; every node pointing at 0..4 forces the hub column to
    // chunk, so both weight alignments (block `dests`, chunk `entries`)
    // are walked.
    use mixen_core::bins::plan_codec;
    use mixen_core::BinEncoding;
    use mixen_graph::{PropValue, WGraph};
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let n = 24 + rng.below(24);
        let m = rng.below(60);
        let mut pairs = edges(&mut rng, n, m);
        let n = n as u32;
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
            let opts = MixenOpts {
                bin_encoding: enc,
                ..small_opts()
            };
            let engine = MixenEngine::try_weighted(&wg, opts).unwrap();
            let (f, b) = (engine.filtered(), engine.blocked());
            assert_eq!(f.num_regular(), g.n(), "case seed {seed}");
            assert!(b.split_stats().gather_splits > 0, "case seed {seed}");
            let xs: Vec<f32> = (0..n).map(|new| x(f.to_old(new))).collect();
            let codec = plan_codec::<f32>(enc, &xs).unwrap();
            let streamed = |v: f32| {
                if enc.is_compressed() {
                    codec.decode(codec.encode(v))
                } else {
                    v
                }
            };
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
                assert_eq!(
                    a.to_bits(),
                    w.to_bits(),
                    "case seed {seed}: {enc:?} node {d}: {a} vs {w}"
                );
            }
        }
    }
}

#[test]
fn compressed_encodings_stay_within_the_accuracy_budget() {
    // F16/Q16 streams trade bits for bandwidth but plan_codec guarantees
    // the per-iteration error stays under ACCURACY_BUDGET; over a short
    // damped run the final ranks must agree to well under 1e-2.
    use mixen_core::BinEncoding;
    for_each_graph(|seed, g| {
        let init = |v: u32| (v % 7) as f32 * 0.1 + 0.1;
        let apply = |_: u32, s: f32| 0.85 * s + 0.15;
        let want = MixenEngine::new(g, small_opts()).iterate::<f32, _, _>(init, apply, 3);
        let scale = want.iter().fold(1e-3f32, |m, v| m.max(v.abs()));
        for enc in [BinEncoding::F16, BinEncoding::Q16] {
            let got = MixenEngine::new(
                g,
                MixenOpts {
                    bin_encoding: enc,
                    ..small_opts()
                },
            )
            .iterate::<f32, _, _>(init, apply, 3);
            for (a, b) in got.iter().zip(&want) {
                assert!(
                    (a - b).abs() / scale < 1e-2,
                    "case seed {seed}: {enc:?}: {a} vs {b} (scale {scale})"
                );
            }
        }
    });
}

#[test]
fn structural_stats_fractions_sum_to_one() {
    for_each_graph(|seed, g| {
        let s = StructuralStats::of(g);
        let sum = s.frac_regular + s.frac_seed + s.frac_sink + s.frac_isolated;
        assert!((sum - 1.0).abs() < 1e-9, "case seed {seed}: {sum}");
        assert!(s.beta <= 1.0 + 1e-9, "case seed {seed}: beta {}", s.beta);
        assert!(s.alpha <= 1.0 + 1e-9, "case seed {seed}: alpha {}", s.alpha);
    });
}

#[test]
fn permute_unpermute_roundtrip() {
    for_each_graph(|seed, g| {
        let f = FilteredGraph::new(g);
        let vals: Vec<u32> = (0..g.n() as u32).map(|i| i * 13 + 1).collect();
        assert_eq!(f.unpermute(&f.permute(&vals)), vals, "case seed {seed}");
    });
}

#[test]
fn csr_transpose_is_involutive() {
    for_each_graph(|seed, g| {
        let t = g.out_csr().transpose();
        assert_eq!(&t.transpose(), g.out_csr(), "case seed {seed}");
        assert_eq!(&t, g.in_csc(), "case seed {seed}");
    });
}
