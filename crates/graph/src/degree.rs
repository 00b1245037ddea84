//! Degree-distribution analysis.
//!
//! The paper's entire premise rests on skew: "a substantial portion of
//! links is connected by a small fraction of nodes" (§1/§2.1). This module
//! quantifies that skew so the dataset stand-ins can be validated against
//! the published structure: log-binned degree histograms, the Gini
//! coefficient of degree concentration, and a discrete power-law exponent
//! estimate (Clauset-style MLE).

use crate::nid;

use crate::Graph;

/// Which direction's degrees to analyze.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// In-degrees (the hub-defining direction in the paper).
    In,
    /// Out-degrees.
    Out,
}

/// Summary of one degree distribution.
#[derive(Clone, Debug)]
pub struct DegreeDistribution {
    /// Raw degrees (index = node ID).
    pub degrees: Vec<u32>,
    /// Mean degree.
    pub mean: f64,
    /// Maximum degree.
    pub max: u32,
    /// Gini coefficient in `[0, 1]`: 0 = perfectly even, → 1 = all links on
    /// one node.
    pub gini: f64,
    /// MLE power-law exponent `α̂ = 1 + n / Σ ln(d / (d_min - 0.5))` over
    /// degrees `≥ d_min` (None when too few qualifying nodes).
    pub powerlaw_alpha: Option<f64>,
    /// Log₂-binned histogram: `bins[i]` counts nodes with degree in
    /// `[2^i, 2^(i+1))`; `bins[0]` additionally holds degree-0 nodes...
    /// no — degree-0 nodes are counted separately in `zero_count`.
    pub bins: Vec<usize>,
    /// Nodes with degree zero.
    pub zero_count: usize,
}

impl DegreeDistribution {
    /// Analyzes `g`'s degrees in the given direction. `d_min` is the
    /// power-law fit cutoff (a common choice is the mean degree).
    pub fn of(g: &Graph, dir: Direction, d_min: u32) -> Self {
        let degrees: Vec<u32> = mixen_pool::par_parts(g.n(), |part| {
            part.map(|v| match dir {
                Direction::In => nid(g.in_degree(nid(v))),
                Direction::Out => nid(g.out_degree(nid(v))),
            })
            .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        Self::from_degrees(degrees, d_min)
    }

    /// Analyzes a raw degree sequence.
    pub fn from_degrees(degrees: Vec<u32>, d_min: u32) -> Self {
        let n = degrees.len();
        let total: u64 = degrees.iter().map(|&d| d as u64).sum();
        let mean = if n == 0 { 0.0 } else { total as f64 / n as f64 };
        let max = degrees.iter().copied().max().unwrap_or(0);

        // Gini: 1 - 2 * Σ cumulative share / n (over the sorted sequence).
        let gini = gini_coefficient(&degrees);

        // Discrete power-law MLE over the tail d >= d_min (>= 1).
        let d_min = d_min.max(1);
        let tail: Vec<u32> = degrees.iter().copied().filter(|&d| d >= d_min).collect();
        let powerlaw_alpha = if tail.len() >= 10 {
            let s: f64 = tail
                .iter()
                .map(|&d| (d as f64 / (d_min as f64 - 0.5)).ln())
                .sum();
            (s > 0.0).then(|| 1.0 + tail.len() as f64 / s)
        } else {
            None
        };

        let mut bins = vec![0usize; 33];
        let mut zero_count = 0usize;
        for &d in &degrees {
            if d == 0 {
                zero_count += 1;
            } else {
                bins[d.ilog2() as usize] += 1;
            }
        }
        while bins.last() == Some(&0) && bins.len() > 1 {
            bins.pop();
        }

        Self {
            degrees,
            mean,
            max,
            gini,
            powerlaw_alpha,
            bins,
            zero_count,
        }
    }

    /// The fraction of total degree mass held by the top `frac` of nodes
    /// (e.g. `top_share(0.01)` ≈ 0.99 on weibo per Table 1).
    pub fn top_share(&self, frac: f64) -> f64 {
        let total: u64 = self.degrees.iter().map(|&d| d as u64).sum();
        if total == 0 || self.degrees.is_empty() {
            return 0.0;
        }
        let k = ((self.degrees.len() as f64 * frac).ceil() as usize).clamp(1, self.degrees.len());
        let mut sorted = self.degrees.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top: u64 = sorted[..k].iter().map(|&d| d as u64).sum();
        top as f64 / total as f64
    }
}

/// Gini coefficient of a non-negative integer sequence.
pub fn gini_coefficient(values: &[u32]) -> f64 {
    let n = values.len();
    let total: u64 = values.iter().map(|&d| d as u64).sum();
    if n == 0 || total == 0 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    // G = (2 * Σ i*x_i) / (n * Σ x_i) - (n + 1)/n   with 1-based i.
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x as f64)
        .sum();
    (2.0 * weighted) / (n as f64 * total as f64) - (n as f64 + 1.0) / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    #[test]
    fn uniform_degrees_have_zero_gini() {
        assert!(gini_coefficient(&[5, 5, 5, 5]).abs() < 1e-12);
    }

    #[test]
    fn concentrated_degrees_have_high_gini() {
        let mut v = vec![0u32; 99];
        v.push(1000);
        let g = gini_coefficient(&v);
        assert!(g > 0.95, "gini = {g}");
    }

    #[test]
    fn star_graph_distribution() {
        let pairs: Vec<_> = (1..100u32).map(|u| (u, 0)).collect();
        let g = Graph::from_pairs(100, &pairs);
        let d = DegreeDistribution::of(&g, Direction::In, 1);
        assert_eq!(d.max, 99);
        assert_eq!(d.zero_count, 99);
        assert!((d.top_share(0.01) - 1.0).abs() < 1e-12);
        assert!(d.gini > 0.9);
    }

    #[test]
    fn binning_covers_all_nonzero_nodes() {
        let g = Graph::from_pairs(6, &[(0, 1), (2, 1), (3, 1), (4, 1), (1, 0), (5, 0)]);
        let d = DegreeDistribution::of(&g, Direction::In, 1);
        let binned: usize = d.bins.iter().sum();
        assert_eq!(binned + d.zero_count, 6);
    }

    #[test]
    fn powerlaw_alpha_on_synthetic_zipf() {
        // Degrees ~ i^-2 rank sequence => alpha near 1.5 for the rank-size
        // relation; the MLE must at least land in a plausible (1, 4) range
        // and be stable.
        let degrees: Vec<u32> = (1..2000u32).map(|i| (20000 / i).max(1)).collect();
        let d = DegreeDistribution::from_degrees(degrees, 5);
        let alpha = d.powerlaw_alpha.expect("enough tail samples");
        assert!((1.0..4.0).contains(&alpha), "alpha = {alpha}");
    }

    #[test]
    fn skewed_dataset_more_concentrated_than_uniform() {
        use crate::{Dataset, Scale};
        let weibo =
            DegreeDistribution::of(&Dataset::Weibo.generate(Scale::Tiny, 3), Direction::In, 1);
        let urand =
            DegreeDistribution::of(&Dataset::Urand.generate(Scale::Tiny, 3), Direction::In, 1);
        assert!(
            weibo.gini > urand.gini + 0.3,
            "{} vs {}",
            weibo.gini,
            urand.gini
        );
        assert!(weibo.top_share(0.01) > 0.8);
    }

    #[test]
    fn empty_graph_distribution() {
        let g = Graph::from_pairs(0, &[]);
        let d = DegreeDistribution::of(&g, Direction::Out, 1);
        assert_eq!(d.mean, 0.0);
        assert_eq!(d.max, 0);
        assert!(d.powerlaw_alpha.is_none());
    }
}
