//! Ranking utilities: top-k selection and rank-agreement metrics.
//!
//! The paper motivates the advanced algorithms by noting they "perform
//! similarly to the InDegree algorithm" (§2.2, citing Borodin et al.) —
//! these helpers quantify that similarity: top-k overlap and Kendall's τ
//! between score vectors, plus the top-k selection the examples and the
//! CLI print.

use mixen_graph::rng::{SplitMix64, GOLDEN};

/// The serving-path rank order: descending score, NaN *last*, ties broken
/// by node ID (ascending) so results are deterministic.
///
/// A plain descending `total_cmp` would sort NaN above every finite score
/// (IEEE total order puts +NaN above +∞), so a single poisoned score would
/// occupy rank 1 of every served top-k. Here NaN of either sign compares
/// after all finite and infinite scores.
fn rank_order(scores: &[f32], i: usize, j: usize) -> std::cmp::Ordering {
    let (a, b) = (scores[i], scores[j]);
    match (a.is_nan(), b.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
        (false, false) => b.total_cmp(&a),
    }
    .then(i.cmp(&j))
}

/// Indices of the `k` largest scores, in descending score order. Ties are
/// broken by node ID (ascending) so results are deterministic; NaN scores
/// rank after every finite score (see `rank_order`).
///
/// This is a per-request hot path in `mixen-serve`, so selection is
/// partial: an O(n) `select_nth_unstable_by` narrows the candidates to `k`
/// before the O(k log k) sort — not the full O(n log n) sort the batch
/// tools used to pay.
pub fn top_k(scores: &[f32], k: usize) -> Vec<usize> {
    let k = k.min(scores.len());
    if k == 0 {
        return Vec::new();
    }
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    if k < idx.len() {
        idx.select_nth_unstable_by(k - 1, |&i, &j| rank_order(scores, i, j));
        idx.truncate(k);
    }
    idx.sort_unstable_by(|&i, &j| rank_order(scores, i, j));
    idx
}

/// Fraction of the top-k sets that two score vectors share, in `[0, 1]`.
/// Inherits [`top_k`]'s NaN-last guard: a poisoned score cannot inflate
/// either top-k set, so the overlap compares the *valid* leaders.
pub fn top_k_overlap(a: &[f32], b: &[f32], k: usize) -> f64 {
    assert_eq!(a.len(), b.len());
    let k = k.min(a.len());
    if k == 0 {
        return 1.0;
    }
    let sa: std::collections::HashSet<usize> = top_k(a, k).into_iter().collect();
    let sb: std::collections::HashSet<usize> = top_k(b, k).into_iter().collect();
    sa.intersection(&sb).count() as f64 / k as f64
}

/// Kendall's τ-a between two score vectors, in `[-1, 1]`: +1 for identical
/// orderings, −1 for reversed. O(n²) — intended for sampled or small `n`;
/// use [`kendall_tau_sampled`] on big graphs.
pub fn kendall_tau(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    for i in 0..n {
        for j in i + 1..n {
            let da = a[i].total_cmp(&a[j]) as i32;
            let db = b[i].total_cmp(&b[j]) as i32;
            match da * db {
                x if x > 0 => concordant += 1,
                x if x < 0 => discordant += 1,
                _ => {}
            }
        }
    }
    let pairs = (n * (n - 1) / 2) as f64;
    (concordant - discordant) as f64 / pairs
}

/// Kendall's τ-a estimated from `samples` random index pairs (deterministic
/// splitmix64 sampling), for vectors too large for the exact O(n²) count.
pub fn kendall_tau_sampled(a: &[f32], b: &[f32], samples: usize, seed: u64) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let mut rng = SplitMix64::new(seed.wrapping_add(GOLDEN));
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    let mut counted = 0i64;
    for _ in 0..samples {
        let i = (rng.next_u64() % n as u64) as usize;
        let j = (rng.next_u64() % n as u64) as usize;
        if i == j {
            continue;
        }
        let da = a[i].total_cmp(&a[j]) as i32;
        let db = b[i].total_cmp(&b[j]) as i32;
        match da * db {
            x if x > 0 => concordant += 1,
            x if x < 0 => discordant += 1,
            _ => {}
        }
        counted += 1;
    }
    if counted == 0 {
        return 1.0;
    }
    (concordant - discordant) as f64 / counted as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_k_orders_descending_with_stable_ties() {
        let scores = [1.0f32, 5.0, 3.0, 5.0, 0.5];
        assert_eq!(top_k(&scores, 3), vec![1, 3, 2]);
        assert_eq!(top_k(&scores, 99).len(), 5);
        assert!(top_k(&scores, 0).is_empty());
    }

    /// Regression: NaN used to sort *above* +∞ under descending
    /// `total_cmp`, so one poisoned score owned rank 1 of every served
    /// top-k. NaN (either sign) must rank last.
    #[test]
    fn top_k_orders_nan_last() {
        let scores = [1.0f32, f32::NAN, 3.0, -f32::NAN, 2.0];
        assert_eq!(top_k(&scores, 3), vec![2, 4, 0]);
        // NaNs only appear once every finite score is exhausted, in
        // node-id order.
        assert_eq!(top_k(&scores, 5), vec![2, 4, 0, 1, 3]);
        let all_nan = [f32::NAN; 3];
        assert_eq!(top_k(&all_nan, 2), vec![0, 1]);
        // -inf still beats NaN.
        let with_inf = [f32::NAN, f32::NEG_INFINITY, f32::INFINITY];
        assert_eq!(top_k(&with_inf, 3), vec![2, 1, 0]);
    }

    /// The partial-selection path must agree with a full sort on every
    /// k, NaN entries included.
    #[test]
    fn top_k_partial_selection_matches_full_sort() {
        let scores: Vec<f32> = (0..257)
            .map(|i| {
                if i % 51 == 0 {
                    f32::NAN
                } else {
                    ((i as f32) * 0.37).sin() * 10.0
                }
            })
            .collect();
        let mut full: Vec<usize> = (0..scores.len()).collect();
        full.sort_by(|&i, &j| rank_order(&scores, i, j));
        for k in [1, 2, 7, 64, 256, 257, 300] {
            assert_eq!(top_k(&scores, k), full[..k.min(scores.len())], "k={k}");
        }
    }

    #[test]
    fn overlap_ignores_nan_poisoning() {
        let clean = [4.0f32, 3.0, 2.0, 1.0];
        let poisoned = [4.0f32, 3.0, f32::NAN, 1.0];
        // Ranks 1–2 are unaffected by the poisoned third entry.
        assert_eq!(top_k_overlap(&clean, &poisoned, 2), 1.0);
    }

    #[test]
    fn overlap_bounds() {
        let a = [3.0f32, 2.0, 1.0, 0.0];
        let b = [0.0f32, 1.0, 2.0, 3.0];
        assert_eq!(top_k_overlap(&a, &a, 2), 1.0);
        assert_eq!(top_k_overlap(&a, &b, 2), 0.0);
        assert_eq!(top_k_overlap(&a, &b, 4), 1.0);
    }

    #[test]
    fn kendall_extremes() {
        let a = [1.0f32, 2.0, 3.0, 4.0];
        let rev = [4.0f32, 3.0, 2.0, 1.0];
        assert_eq!(kendall_tau(&a, &a), 1.0);
        assert_eq!(kendall_tau(&a, &rev), -1.0);
        assert_eq!(kendall_tau(&[1.0], &[2.0]), 1.0);
    }

    #[test]
    fn kendall_partial_agreement() {
        let a = [1.0f32, 2.0, 3.0];
        let b = [1.0f32, 3.0, 2.0]; // one swapped pair of three
        let tau = kendall_tau(&a, &b);
        assert!((tau - 1.0 / 3.0).abs() < 1e-12, "tau = {tau}");
    }

    #[test]
    fn sampled_tau_tracks_exact() {
        let a: Vec<f32> = (0..500).map(|i| (i as f32 * 0.7).sin()).collect();
        let b: Vec<f32> = a.iter().map(|x| x * 0.9 + 0.01).collect();
        let exact = kendall_tau(&a, &b);
        let approx = kendall_tau_sampled(&a, &b, 200_000, 1);
        assert!((exact - approx).abs() < 0.03, "{exact} vs {approx}");
    }

    #[test]
    fn indegree_predicts_pagerank_on_skewed_graph() {
        // The paper's §2.2 claim, quantified on a stand-in.
        use crate::{indegree, pagerank, PageRankOpts};
        use mixen_baselines::ReferenceEngine;
        use mixen_graph::{Dataset, Scale};
        let g = Dataset::Weibo.generate(Scale::Tiny, 12);
        let e = ReferenceEngine::new(&g);
        let ind = indegree(&e);
        let pr = pagerank(&g, &e, PageRankOpts::default(), 20);
        assert!(
            top_k_overlap(&ind, &pr, 20) >= 0.6,
            "overlap = {}",
            top_k_overlap(&ind, &pr, 20)
        );
    }
}
