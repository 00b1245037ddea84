//! The workspace's one pseudo-random generator: splitmix64 (Steele, Lea and
//! Flood, *Fast splittable pseudorandom number generators*, 2014).
//!
//! Every generated graph, permutation, seeded fault plan, sampled statistic
//! and property-test case comes from a [`SplitMix64`] stream or the bare
//! [`mix`] finalizer, so any of them replays from its seed alone. The
//! stream offers only the draws its callers make; each one's arithmetic is
//! part of the pinned graph checksums (`tests/generator_streams.rs`).

/// The splitmix64 increment, 2^64 / φ rounded to odd.
pub const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// The splitmix64 finalizer: a bijective avalanche of `z`, usable as a
/// stateless hash of a key.
#[inline]
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded splitmix64 stream: `state += GOLDEN`, then [`mix`] the state.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream whose first draw is `mix(seed + GOLDEN)`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next 64 bits of the stream.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN);
        mix(self.state)
    }

    /// Uniform in `[0, bound)` by multiply-shift: one draw, no rejection,
    /// bias below `bound / 2^64`. `bound` must be positive.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "cannot draw below 0");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)` from the top 53 bits of one draw.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fisher–Yates shuffle, last position first.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_draws_match_the_reference_splitmix64() {
        // Vigna's splitmix64.c seeded with 0 (state 0, increment first).
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(rng.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(mix(GOLDEN), 0xe220_a839_7b1d_cdaf);
    }

    #[test]
    fn draws_stay_in_range_and_reach_every_value() {
        let mut rng = SplitMix64::new(3);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            seen[rng.below(10) as usize] = true;
            assert!((0.0..1.0).contains(&rng.unit_f64()));
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<u32> = (0..50).collect();
        SplitMix64::new(9).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements virtually never shuffle to identity");
    }
}
