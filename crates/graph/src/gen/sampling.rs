//! Weighted sampling utilities.
//!
//! The profile generator draws millions of endpoints from power-law weight
//! distributions; Walker's alias method gives O(1) draws after O(n) setup,
//! which keeps dataset generation off the critical path (the paper's
//! preprocessing measurements must not be polluted by slow generation).

use crate::nid;
use crate::rng::SplitMix64;

/// Walker alias table for O(1) sampling from a discrete distribution.
#[derive(Clone, Debug)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl AliasTable {
    /// Builds the table from non-negative weights (not necessarily
    /// normalized). Panics if all weights are zero or the slice is empty.
    pub fn new(weights: &[f64]) -> Self {
        let n = weights.len();
        assert!(n > 0, "alias table needs at least one weight");
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "alias table needs positive total weight");
        assert!(
            weights.iter().all(|&w| w >= 0.0 && w.is_finite()),
            "weights must be finite and non-negative"
        );
        let scale = n as f64 / total;
        let mut prob: Vec<f64> = weights.iter().map(|&w| w * scale).collect();
        let mut alias = vec![0u32; n];
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(nid(i));
            } else {
                large.push(nid(i));
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            alias[s as usize] = l;
            let leftover = prob[l as usize] + prob[s as usize] - 1.0;
            prob[l as usize] = leftover;
            if leftover < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Numerical leftovers land exactly at probability 1.
        for i in small.into_iter().chain(large) {
            prob[i as usize] = 1.0;
        }
        Self { prob, alias }
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True when the table has no outcomes (never constructible — kept for
    /// API completeness).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws one index according to the weights.
    #[inline]
    pub fn sample(&self, rng: &mut SplitMix64) -> u32 {
        let i = rng.below(self.prob.len() as u64) as usize;
        if rng.unit_f64() < self.prob[i] {
            nid(i)
        } else {
            self.alias[i]
        }
    }
}

/// Zipf-like weights `w_i = 1 / (i + 1)^theta` over `n` outcomes. `theta = 0`
/// degenerates to uniform; larger values concentrate mass on low indices
/// (the hub positions of the profile generator).
pub fn zipf_weights(n: usize, theta: f64) -> Vec<f64> {
    (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(theta)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_weights_sample_uniformly() {
        let t = AliasTable::new(&[1.0; 4]);
        let mut rng = SplitMix64::new(1);
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            counts[t.sample(&mut rng) as usize] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "counts {counts:?}");
        }
    }

    #[test]
    fn skewed_weights_respected() {
        let t = AliasTable::new(&[8.0, 1.0, 1.0]);
        let mut rng = SplitMix64::new(2);
        let mut counts = [0usize; 3];
        for _ in 0..50_000 {
            counts[t.sample(&mut rng) as usize] += 1;
        }
        let f0 = counts[0] as f64 / 50_000.0;
        assert!((f0 - 0.8).abs() < 0.02, "f0 = {f0}");
    }

    #[test]
    fn zero_weight_never_sampled() {
        let t = AliasTable::new(&[1.0, 0.0, 1.0]);
        let mut rng = SplitMix64::new(3);
        for _ in 0..10_000 {
            assert_ne!(t.sample(&mut rng), 1);
        }
    }

    #[test]
    fn single_outcome() {
        let t = AliasTable::new(&[0.5]);
        let mut rng = SplitMix64::new(4);
        assert_eq!(t.sample(&mut rng), 0);
    }

    #[test]
    #[should_panic(expected = "positive total weight")]
    fn all_zero_weights_panic() {
        let _ = AliasTable::new(&[0.0, 0.0]);
    }

    #[test]
    fn zipf_weights_monotone() {
        let w = zipf_weights(10, 1.0);
        assert!(w.windows(2).all(|p| p[0] >= p[1]));
        assert_eq!(w[0], 1.0);
        let u = zipf_weights(5, 0.0);
        assert!(u.iter().all(|&x| (x - 1.0).abs() < 1e-12));
    }
}
