//! Sample summaries: median, quartiles, and the highest percentile that
//! still has at least ten samples beyond it.

use mixen_core::Json;

/// Percentiles tried, highest first, when picking the tail statistic.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples required beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// One metric's value: the median of its samples with the spread around it.
/// A single measured number (a count, a size) is a summary of one sample.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Median of the samples.
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    /// The percentile `hi` was read at (50 when no higher one has
    /// [`MIN_BEYOND`] samples beyond it).
    pub hi_pct: f64,
    pub hi: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// A single measured value.
    pub fn scalar(v: f64) -> Self {
        Self {
            value: v,
            q1: v,
            q3: v,
            hi_pct: 50.0,
            hi: v,
            n: 1,
        }
    }

    /// Summarises timing samples (any order). Panics on an empty slice: every
    /// caller measures at least once.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "summary of zero samples");
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let hi_pct = tail_percentile(s.len());
        Self {
            value: quantile(&s, 0.5),
            q1: quantile(&s, 0.25),
            q3: quantile(&s, 0.75),
            hi_pct,
            hi: nearest_rank(&s, hi_pct),
            n: s.len(),
        }
    }

    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.value.abs()
        }
    }

    pub fn to_json(&self, unit: &str) -> Json {
        Json::Obj(vec![
            ("unit".into(), Json::Str(unit.into())),
            ("value".into(), Json::from_f64(self.value)),
            ("q1".into(), Json::from_f64(self.q1)),
            ("q3".into(), Json::from_f64(self.q3)),
            ("hi_pct".into(), Json::from_f64(self.hi_pct)),
            ("hi".into(), Json::from_f64(self.hi)),
            ("n".into(), Json::from_u64(self.n as u64)),
        ])
    }

    /// Reads back [`Summary::to_json`]; non-finite values were written as
    /// strings (`"inf"`) and come back as such.
    pub fn from_json(j: &Json) -> Option<(String, Self)> {
        let num = |key: &str| match j.get(key)? {
            Json::Num(v) => Some(*v),
            Json::Str(s) => s.parse::<f64>().ok(),
            _ => None,
        };
        Some((
            j.get("unit")?.as_str()?.to_string(),
            Self {
                value: num("value")?,
                q1: num("q1")?,
                q3: num("q3")?,
                hi_pct: num("hi_pct")?,
                hi: num("hi")?,
                n: usize::try_from(j.get("n")?.as_u64()?).ok()?,
            },
        ))
    }
}

/// Quantile of sorted samples by the exclusive method Python's
/// `statistics.quantiles` uses, so spreads computed here and by a driver
/// script agree.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = (p * (n + 1) as f64 - 1.0).clamp(0.0, (n - 1) as f64);
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(n - 1);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] of `n` samples
/// beyond it; 50 when none has.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|p| beyond(n, *p) >= MIN_BEYOND)
        .unwrap_or(50.0)
}

/// Samples strictly above the nearest-rank position of percentile `pct`.
fn beyond(n: usize, pct: f64) -> usize {
    n - rank(n, pct)
}

/// 1-based nearest rank of percentile `pct` among `n` samples.
fn rank(n: usize, pct: f64) -> usize {
    // The nudge keeps 99.9% of 10 000 at 9 990 despite binary rounding.
    ((pct / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of sorted samples.
pub fn nearest_rank(sorted: &[f64], pct: f64) -> f64 {
    sorted[rank(sorted.len(), pct) - 1]
}

/// Nearest-rank percentile of unsorted samples (for metrics named after a
/// fixed percentile, such as `serve_p99_ms`).
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    nearest_rank(&s, pct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.value, s.q3), (2.75, 5.5, 8.25));
        // Order of the samples does not matter; odd counts hit a sample.
        let s = Summary::of(&[9.0, 1.0, 5.0]);
        assert_eq!((s.q1, s.value, s.q3), (1.0, 5.0, 9.0));
        assert_eq!(Summary::of(&[4.0]), Summary::scalar(4.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(8_000), 99.0); // 80 beyond p99, 8 beyond p99.9
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(999), 95.0); // p99 leaves 9
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(39), 50.0); // p75 leaves 9
        assert_eq!(tail_percentile(5), 50.0);
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.hi_pct, s.hi, s.n), (90.0, 90.0, 100));
        assert_eq!(percentile(&v, 99.0), 99.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&[8.0, 10.0, 12.0]);
        assert_eq!(s.spread(), 0.4);
        assert_eq!(Summary::scalar(0.0).spread(), 0.0);
    }

    #[test]
    fn summary_round_trips_through_json() {
        let s = Summary::of(&[1.5, 2.5, 4.0, 8.0]);
        let (unit, back) = Summary::from_json(&s.to_json("ms")).unwrap();
        assert_eq!((unit.as_str(), back), ("ms", s));
        let inf = Summary::scalar(f64::INFINITY);
        let (_, back) = Summary::from_json(&inf.to_json("count")).unwrap();
        assert_eq!(back.value, f64::INFINITY);
    }
}
