//! Every seeded stream the workspace draws from, pinned bit for bit: the
//! eight dataset generators, `random_permutation`, seeded fault plans,
//! sampled Kendall τ, CF anchors and hashed edge weights. All of them come
//! from one splitmix64 (`mixen_graph::rng`), and benchmark graphs are only
//! comparable across builds while these constants hold.

use mixen_algos::{cf::anchor, kendall_tau_sampled};
use mixen_graph::gen::random_permutation;
use mixen_graph::io::{crc32, graph_checksum};
use mixen_graph::{Dataset, FaultPlan, Scale, WGraph};

fn crc_of<T, const N: usize>(items: impl IntoIterator<Item = T>, bytes: fn(T) -> [u8; N]) -> u32 {
    crc32(&items.into_iter().flat_map(bytes).collect::<Vec<u8>>())
}

#[test]
fn seeded_streams_match_the_pinned_values() {
    // `io::graph_checksum` at `Scale::Tiny` for seeds 1 and 42.
    let want = [
        (Dataset::Weibo, 0xb103_467f, 0xf5d5_d19d),
        (Dataset::Track, 0x69e2_a44b, 0x8c5c_3b46),
        (Dataset::Wiki, 0x3c7d_7c22, 0x5231_1b96),
        (Dataset::Pld, 0x9406_f4cc, 0x546c_41de),
        (Dataset::Rmat, 0x34b3_025c, 0xe6f3_3b32),
        (Dataset::Kron, 0x7083_0728, 0x8121_cfca),
        (Dataset::Road, 0x0db5_92fb, 0x9188_3e6d),
        (Dataset::Urand, 0xc309_485a, 0x80c9_81cf),
    ];
    for (d, seed1, seed42) in want {
        let at = |seed| graph_checksum(&d.generate(Scale::Tiny, seed));
        assert_eq!(
            (at(1), at(42)),
            (seed1, seed42),
            "{d:?} tiny, seeds 1 and 42"
        );
    }

    let perm = crc_of(random_permutation(1000, 7), u32::to_le_bytes);
    assert_eq!(perm, 0xc179_b260, "random_permutation(1000, 7)");

    let plans = [
        "FaultPlan { chunk_limit: Some(2), interruptions: 3, truncate_at: None, flips: [(492, 8)] }",
        "FaultPlan { chunk_limit: Some(2), interruptions: 1, truncate_at: Some(2867), flips: [(722, 64)] }",
        "FaultPlan { chunk_limit: Some(1), interruptions: 3, truncate_at: None, flips: [(1636, 2)] }",
        "FaultPlan { chunk_limit: Some(1), interruptions: 2, truncate_at: Some(640), flips: [(2315, 2)] }",
    ];
    for (s, want) in (0..).zip(plans) {
        assert_eq!(
            format!("{:?}", FaultPlan::from_seed(s, 4096)),
            want,
            "seed {s}"
        );
    }

    let a: Vec<f32> = (0..500).map(|i| ((i * 37) % 101) as f32).collect();
    let b: Vec<f32> = (0..500).map(|i| ((i * 53) % 97) as f32).collect();
    let tau = kendall_tau_sampled(&a, &b, 10_000, 5);
    assert_eq!(
        tau.to_bits(),
        0x3fad_1dd5_8e33_0e75,
        "kendall_tau_sampled: {tau}"
    );

    let anchors = crc_of((0..4).flat_map(anchor), |x: f32| x.to_bits().to_le_bytes());
    assert_eq!(anchors, 0xc384_8447, "cf::anchor(0..4)");

    let wiki = Dataset::Wiki.generate(Scale::Tiny, 42);
    let wg = WGraph::with_hash_weights(&wiki, 0.5, 4.0, 11);
    let weights = crc_of(wg.out_weights().iter(), |x: &f32| x.to_bits().to_le_bytes());
    assert_eq!(weights, 0xa316_13cd, "with_hash_weights on wiki tiny");
}
