//! Cross-policy contracts for the composable reordering passes:
//!
//! 1. every [`RegularOrdering`] produces a bijective relabel permutation
//!    with the hub prefix contiguous (for the hub-preserving policies),
//! 2. iteration results in *original* ID space are independent of the
//!    relabel (within float tolerance — the permutation changes summation
//!    order), and the top-ranked set is identical,
//! 3. each policy is bit-for-bit deterministic at a fixed lane count,
//! 4. the auto-selected policy is visible in the observability counters.

use mixen_core::{Engine, MixenEngine, MixenOpts, PerfModel, RegularOrdering, ReorderChoice};
use mixen_graph::{nid, Classification, Dataset, Graph, Scale};

fn engine_with(g: &Graph, ordering: RegularOrdering) -> MixenEngine {
    MixenEngine::new(
        g,
        MixenOpts {
            ordering,
            ..MixenOpts::default()
        },
    )
}

/// A damped PageRank-shaped recurrence, run entirely through the engine so
/// the whole Pre/Main/Post pipeline participates.
fn ranks(e: &MixenEngine, g: &Graph, iters: usize) -> Vec<f32> {
    let n = g.n().max(1) as f32;
    // Out-degree-normalized contributions keep the recurrence contractive,
    // so a small absolute tolerance is meaningful.
    let scale = |v: u32| g.out_degree(v).max(1) as f32;
    e.iterate::<f32, _, _>(
        |v| (1.0 / n) / scale(v),
        |v, sum| (0.15 / n + 0.85 * sum) / scale(v),
        iters,
    )
}

/// The indices of the `k` largest scores (ties broken by node ID), for the
/// rank-set comparison.
fn top_k(scores: &[f32], k: usize) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..scores.len()).collect();
    ids.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap().then(a.cmp(&b)));
    ids.truncate(k);
    ids
}

#[test]
fn every_policy_emits_a_valid_permutation() {
    let g = Dataset::Rmat.generate(Scale::Tiny, 17);
    let class = Classification::of(&g);
    for ordering in RegularOrdering::ALL {
        let e = engine_with(&g, ordering);
        let f = e.filtered();
        // Bijective: the permutation covers every node exactly once.
        let mut seen = vec![false; g.n()];
        for u in 0..nid(g.n()) {
            let new = f.to_new(u) as usize;
            assert!(
                !seen[new],
                "{}: new ID {new} assigned twice",
                ordering.name()
            );
            seen[new] = true;
            assert_eq!(
                f.to_old(f.to_new(u)),
                u,
                "{}: not invertible",
                ordering.name()
            );
        }
        assert!(
            seen.iter().all(|&s| s),
            "{}: permutation has holes",
            ordering.name()
        );
        // Hub-preserving policies keep hubs exactly in `0..num_hub`.
        if ordering != RegularOrdering::Original && ordering != RegularOrdering::ByInDegree {
            let num_hub = f.num_hub();
            assert!(num_hub > 0, "rmat must classify hubs");
            for u in 0..nid(g.n()) {
                let is_prefix = (f.to_new(u) as usize) < num_hub;
                assert_eq!(
                    class.is_hub(u) && class.class(u) == mixen_graph::NodeClass::Regular,
                    is_prefix,
                    "{}: node {u} breaks the hub prefix",
                    ordering.name()
                );
            }
        }
    }
}

#[test]
fn ranks_are_policy_independent_in_original_id_space() {
    for (d, seed) in [(Dataset::Rmat, 5), (Dataset::Wiki, 6), (Dataset::Urand, 7)] {
        let g = d.generate(Scale::Tiny, seed);
        let reference = ranks(&engine_with(&g, RegularOrdering::Original), &g, 10);
        let ref_top = top_k(&reference, 20);
        for ordering in RegularOrdering::ALL {
            let got = ranks(&engine_with(&g, ordering), &g, 10);
            for (v, (a, b)) in reference.iter().zip(&got).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-5,
                    "{}/{}: node {v} diverges ({a} vs {b})",
                    d.name(),
                    ordering.name()
                );
            }
            assert_eq!(
                top_k(&got, 20),
                ref_top,
                "{}/{}: top-20 set changed",
                d.name(),
                ordering.name()
            );
        }
    }
}

#[test]
fn each_policy_is_bitwise_deterministic() {
    let g = Dataset::Wiki.generate(Scale::Tiny, 9);
    for ordering in RegularOrdering::ALL {
        let a = ranks(&engine_with(&g, ordering), &g, 8);
        let b = ranks(&engine_with(&g, ordering), &g, 8);
        let a_bits: Vec<u32> = a.iter().map(|x| x.to_bits()).collect();
        let b_bits: Vec<u32> = b.iter().map(|x| x.to_bits()).collect();
        assert_eq!(
            a_bits,
            b_bits,
            "{}: reruns differ bit-for-bit",
            ordering.name()
        );
    }
}

#[test]
fn auto_selection_is_visible_in_the_counters() {
    let g = Dataset::Rmat.generate(Scale::Tiny, 21);
    let class = Classification::of(&g);
    let expected = PerfModel::from_classification(&g, &class, MixenOpts::default().block_side)
        .preferred_ordering();
    let ordering = ReorderChoice::Auto.resolve(&g);
    assert_eq!(ordering, expected);
    let e = engine_with(&g, ordering);
    assert_eq!(e.filtered().ordering(), expected);
    let snap = e.metrics().snapshot();
    assert_eq!(snap.get("reorder_policy"), expected.policy_id());
    assert!(snap.get("hub_domain_side") > 0);
    // The relabel timer only ticks when a pass actually runs.
    if expected != RegularOrdering::Original {
        assert!(e.filtered().relabel_seconds() >= 0.0);
    }
}

#[test]
fn hub_domain_sizing_never_grows_the_block_side() {
    // The GRASP-style pinned hub domain can only shrink regular-region
    // blocks, and only when the hub working set leaves room for it.
    let g = Dataset::Wiki.generate(Scale::Tiny, 3);
    for ordering in RegularOrdering::ALL {
        let e = engine_with(&g, ordering);
        let opts = MixenOpts {
            ordering,
            ..MixenOpts::default()
        };
        let plain = opts.effective_block_side(
            e.filtered().num_regular(),
            mixen_pool::current_num_threads(),
        );
        assert!(
            e.blocked().block_side() <= plain,
            "{}: hub-domain sizing grew the block side",
            ordering.name()
        );
    }
}
