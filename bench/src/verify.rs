//! Output checks shared by every phase. A failed check is counted, never
//! fatal: the run finishes, reports `failed_share`, and exits non-zero.

use mixen_algos::top_k_overlap;

use crate::algo::{Output, TOP};

/// Mixen and the serial reference may differ by floating-point
/// reassociation: `|a − b| ≤ TOLERANCE · (1 + max(|a|, |b|))`, the bound
/// `tests/cross_engine.rs` uses.
pub const TOLERANCE: f32 = 1e-3;

/// Two engines must agree on at least this share of the top [`TOP`].
pub const MIN_OVERLAP: f64 = 0.99;

pub fn within_tolerance(a: &Output, b: &Output) -> bool {
    let (a, b) = (a.lanes(), b.lanes());
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(&x, &y)| (x - y).abs() <= TOLERANCE * (1.0 + x.abs().max(y.abs())))
}

/// Largest `|a − b| ÷ (1 + max(|a|, |b|))`, the quantity [`TOLERANCE`]
/// bounds.
pub fn max_rel_err(a: &Output, b: &Output) -> f64 {
    a.lanes()
        .iter()
        .zip(b.lanes())
        .map(|(&x, &y)| f64::from((x - y).abs() / (1.0 + x.abs().max(y.abs()))))
        .fold(0.0, f64::max)
}

/// Same bits in every lane (so `-0.0 ≠ 0.0` and NaNs compare by payload).
pub fn bit_identical(a: &Output, b: &Output) -> bool {
    let (a, b) = (a.lanes(), b.lanes());
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// FNV-1a over every output bit: equal digests from two processes mean the
/// same values, since the engine is deterministic at a fixed lane count.
pub fn digest(out: &Output) -> u64 {
    out.lanes().iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        v.to_bits().to_le_bytes().iter().fold(h, |h, b| {
            (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}

pub fn overlap(a: &Output, b: &Output) -> f64 {
    top_k_overlap(&a.scores(), &b.scores(), TOP)
}

/// Operations attempted and failed, with the first few failures described.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one operation; `what` names it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts `ok + failed` operations of one kind.
    pub fn add(&mut self, ok: u64, failed: u64, what: &str) {
        self.attempted += ok + failed;
        if failed > 0 {
            self.failed += failed - 1;
            self.fail(format!("{failed} × {what}"));
        }
    }

    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_and_bits() {
        let a = Output::Scores(vec![1.0, 0.0, 2.0]);
        let near = Output::Scores(vec![1.001, -0.0, 2.0]);
        let far = Output::Scores(vec![1.01, 0.0, 2.0]);
        assert!(within_tolerance(&a, &near) && !within_tolerance(&a, &far));
        assert!(bit_identical(&a, &a.clone()) && !bit_identical(&a, &near));
        assert!(!within_tolerance(&a, &Output::Scores(vec![1.0])));
        assert!((max_rel_err(&a, &far) - 0.01 / 2.01).abs() < 1e-6);
        assert_eq!(digest(&a), digest(&a.clone()));
        assert_ne!(digest(&a), digest(&near));
        let wide = Output::Latent(vec![[1.0; 8], [2.0; 8]]);
        assert_eq!(wide.lanes().len(), 16);
        assert_eq!(wide.scores().as_ref(), [8.0, 16.0]);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        t.check(true, || unreachable!());
        t.check(false, || "round 2".into());
        t.add(7, 1, "bad response");
        assert_eq!((t.attempted, t.failed), (10, 2));
        assert_eq!(t.notes, ["round 2", "1 × bad response"]);
    }
}
