//! Cross-crate integration: every framework must produce the same results
//! for every algorithm on every dataset family — the load-bearing guarantee
//! that the benchmark tables compare identical computations.

use mixen_algos::{
    bfs, collaborative_filtering, default_root, hits, indegree, pagerank, salsa, AnyEngine, CfOpts,
    Engine, EngineKind, PageRankOpts, LATENT_DIM,
};
use mixen_baselines::ReferenceEngine;
use mixen_core::{MixenEngine, MixenOpts};
use mixen_graph::{Dataset, Graph, Scale};

fn close(a: f32, b: f32, tol: f32) -> bool {
    (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
}

fn check_dataset(d: Dataset) {
    let g = d.generate(Scale::Tiny, 123);
    let reference = ReferenceEngine::new(&g);
    let root = default_root(&g);

    let want_ind = indegree(&reference);
    let want_pr = pagerank(&g, &reference, PageRankOpts::default(), 5);
    let want_cf = collaborative_filtering(
        &g,
        &reference,
        CfOpts {
            blend: 0.5,
            iters: 3,
        },
    );
    let want_bfs = bfs(&reference, root);

    for kind in EngineKind::ALL {
        let engine = AnyEngine::build(kind, &g, MixenOpts::default());
        let name = kind.name();

        let ind = indegree(&engine);
        for (i, (a, b)) in ind.iter().zip(&want_ind).enumerate() {
            assert!(
                close(*a, *b, 1e-4),
                "{name}/{}: indegree node {i}: {a} vs {b}",
                d.name()
            );
        }

        let pr = pagerank(&g, &engine, PageRankOpts::default(), 5);
        for (i, (a, b)) in pr.iter().zip(&want_pr).enumerate() {
            assert!(
                close(*a, *b, 1e-3),
                "{name}/{}: pagerank node {i}: {a} vs {b}",
                d.name()
            );
        }

        let cf = collaborative_filtering(
            &g,
            &engine,
            CfOpts {
                blend: 0.5,
                iters: 3,
            },
        );
        for (i, (a, b)) in cf.iter().zip(&want_cf).enumerate() {
            for k in 0..LATENT_DIM {
                assert!(
                    close(a[k], b[k], 1e-3),
                    "{name}/{}: cf node {i} lane {k}",
                    d.name()
                );
            }
        }

        let depths = bfs(&engine, root);
        assert_eq!(depths, want_bfs, "{name}/{}: bfs", d.name());
    }
}

#[test]
fn engines_agree_on_weibo_like() {
    check_dataset(Dataset::Weibo);
}

#[test]
fn engines_agree_on_wiki_like() {
    check_dataset(Dataset::Wiki);
}

#[test]
fn engines_agree_on_pld_like() {
    check_dataset(Dataset::Pld);
}

#[test]
fn engines_agree_on_rmat() {
    check_dataset(Dataset::Rmat);
}

#[test]
fn engines_agree_on_road() {
    check_dataset(Dataset::Road);
}

#[test]
fn hits_and_salsa_match_reference_on_track() {
    let g = Dataset::Track.generate(Scale::Tiny, 9);
    let rev = g.reversed();
    let ref_fwd = ReferenceEngine::new(&g);
    let ref_rev = ReferenceEngine::new(&rev);
    let mix_fwd = MixenEngine::new(&g, MixenOpts::default());
    let mix_rev = MixenEngine::new(&rev, MixenOpts::default());

    let want = hits(g.n(), &ref_fwd, &ref_rev, 5);
    let got = hits(g.n(), &mix_fwd, &mix_rev, 5);
    for (a, b) in got.authority.iter().zip(&want.authority) {
        assert!(close(*a, *b, 1e-3), "hits authority {a} vs {b}");
    }

    let want = salsa(&g, &ref_fwd, &ref_rev, 5);
    let got = salsa(&g, &mix_fwd, &mix_rev, 5);
    for (a, b) in got.hub.iter().zip(&want.hub) {
        assert!(close(*a, *b, 1e-3), "salsa hub {a} vs {b}");
    }
}

#[test]
fn mixen_block_size_does_not_change_results() {
    let g = Dataset::Wiki.generate(Scale::Tiny, 77);
    let reference = ReferenceEngine::new(&g);
    let want = pagerank(&g, &reference, PageRankOpts::default(), 4);
    for side in [64usize, 1024, 65536] {
        let engine = MixenEngine::new(
            &g,
            MixenOpts {
                block_side: side,
                min_tasks_per_thread: 1,
                ..MixenOpts::default()
            },
        );
        let got = pagerank(&g, &engine, PageRankOpts::default(), 4);
        for (a, b) in got.iter().zip(&want) {
            assert!(close(*a, *b, 1e-3), "side {side}: {a} vs {b}");
        }
    }
}

#[test]
fn bfs_from_many_roots_on_mixed_connectivity() {
    // Hand-built graph covering every class; roots of every class.
    let g = Graph::from_pairs(
        10,
        &[
            (0, 1),
            (1, 2),
            (2, 0),
            (3, 0),
            (3, 7),
            (4, 1),
            (1, 7),
            (2, 8),
            (5, 6),
            (6, 5),
        ],
    );
    let reference = ReferenceEngine::new(&g);
    let mixen = MixenEngine::new(&g, MixenOpts::default());
    for root in 0..g.n() as u32 {
        assert_eq!(
            Engine::bfs(&mixen, root),
            reference.bfs(root),
            "root {root}"
        );
    }
}

#[test]
fn a_nan_vector_never_converges() {
    // A NaN distance is infinitely far: a run whose values went NaN must
    // use every iteration it was given, not stop after the first.
    let g = Dataset::Wiki.generate(Scale::Tiny, 5);
    let (init, apply) = (|_| 1.0f32, |_, _| f32::NAN);
    for kind in EngineKind::ALL {
        let engine = AnyEngine::build(kind, &g, MixenOpts::default());
        let (_, iters) = engine.iterate_until(init, apply, 1e-6, 7);
        assert_eq!(iters, 7, "{}", kind.name());
    }
    let (_, iters) = ReferenceEngine::new(&g).iterate_until(init, apply, 1e-6, 7);
    assert_eq!(iters, 7, "reference");
}

#[test]
fn a_zero_tolerance_runs_every_iteration_and_matches_iterate() {
    // No iteration of this recurrence leaves every value unchanged, so at
    // `tol` 0 the stop rule never fires: `iterate_until` performs exactly
    // `k` iterations and is `iterate(k)` bit for bit. Ligra's atomic float
    // adds follow the schedule, so its bits may differ between two runs;
    // it is compared within tolerance instead.
    let init = |v: u32| (v % 5) as f32;
    let apply = |_, s: f32| 0.25 * s + 1.0;
    for d in [Dataset::Wiki, Dataset::Weibo, Dataset::Pld] {
        let g = d.generate(Scale::Tiny, 11);
        for kind in EngineKind::ALL {
            let engine = AnyEngine::build(kind, &g, MixenOpts::default());
            let name = format!("{}/{}", kind.name(), d.name());
            for k in [0usize, 1, 3] {
                let (until, iters) = engine.iterate_until(init, apply, 0.0, k);
                assert_eq!(iters, k, "{name}: k = {k}");
                let fixed = engine.iterate(init, apply, k);
                if kind == EngineKind::Ligra {
                    for (a, b) in until.iter().zip(&fixed) {
                        assert!(close(*a, *b, 1e-5), "{name}: k = {k}: {a} vs {b}");
                    }
                } else {
                    let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&until), bits(&fixed), "{name}: k = {k}");
                }
            }
        }
    }
}
