//! Property tests of the cache simulator: LRU/working-set laws that must
//! hold for arbitrary access sequences. Each case draws its sequence from
//! its own seed, which every assertion names.

use mixen_cachesim::{CacheConfig, CacheSim};
use mixen_graph::rng::SplitMix64;
use std::ops::Range;

const CASES: u64 = 128;

fn single_level(capacity: usize, ways: usize, line: usize) -> CacheConfig {
    CacheConfig {
        line,
        levels: vec![mixen_cachesim::cache::LevelConfig { capacity, ways }],
    }
}

/// Case `seed`'s addresses: a length drawn from `len`, then each address
/// drawn from `addr`.
fn addrs(seed: u64, addr: Range<u64>, len: Range<u64>) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    let n = len.start + rng.below(len.end - len.start);
    (0..n)
        .map(|_| addr.start + rng.below(addr.end - addr.start))
        .collect()
}

/// Counters are always consistent: refs = hits + misses at each level,
/// and a lower level's references equal the upper level's misses.
#[test]
fn counter_identities() {
    for seed in 0..CASES {
        let mut sim = CacheSim::new(&CacheConfig::tiny_for_tests());
        for (i, a) in addrs(seed, 0..10_000, 1..200).into_iter().enumerate() {
            if i % 3 == 0 {
                sim.write(a, 4);
            } else {
                sim.read(a, 4);
            }
        }
        for s in &sim.level_stats {
            assert_eq!(s.references, s.hits + s.misses, "case seed {seed}");
        }
        for w in sim.level_stats.windows(2) {
            assert_eq!(w[0].misses, w[1].references, "case seed {seed}");
        }
        // DRAM reads = last-level miss fills.
        let llc = sim.level_stats.last().unwrap();
        assert_eq!(sim.dram_read_bytes, llc.misses * 16, "case seed {seed}");
    }
}

/// Immediately repeating an access always hits L1.
#[test]
fn repeat_access_hits() {
    for seed in 0..CASES {
        let mut sim = CacheSim::new(&CacheConfig::tiny_for_tests());
        for a in addrs(seed, 0..100_000, 1..100) {
            sim.read(a, 1);
            let misses_before = sim.level_stats[0].misses;
            sim.read(a, 1);
            let missed = sim.level_stats[0].misses != misses_before;
            assert!(!missed, "case seed {seed}: repeat of {a} missed");
        }
    }
}

/// A fully-associative cache obeys the LRU stack property: any address
/// re-accessed after at most `ways - 1` distinct other lines must hit.
#[test]
fn lru_stack_property() {
    for seed in 0..CASES {
        let others = addrs(seed, 1..1000, 0..3);
        // 4-way fully associative (capacity 64, line 16 -> 4 lines, 1 set).
        let mut sim = CacheSim::new(&single_level(64, 4, 16));
        sim.read(0, 1);
        for &o in &others {
            sim.read(o * 16, 1); // distinct lines, same single set
        }
        let misses_before = sim.level_stats[0].misses;
        sim.read(0, 1);
        assert_eq!(
            sim.level_stats[0].misses,
            misses_before,
            "case seed {seed}: line 0 evicted after only {} intervening lines",
            others.len()
        );
    }
}

/// Traffic is monotone: adding accesses never decreases any counter.
#[test]
fn counters_are_monotone() {
    for seed in 0..CASES {
        let mut sim = CacheSim::new(&CacheConfig::tiny_for_tests());
        let mut last = (0u64, 0u64, 0u64);
        for a in addrs(seed, 0..50_000, 2..100) {
            sim.write(a, 4);
            let now = (
                sim.level_stats[0].references,
                sim.dram_read_bytes + sim.dram_write_bytes,
                sim.logical_bytes,
            );
            let grew = now.0 >= last.0 && now.1 >= last.1 && now.2 > last.2;
            assert!(grew, "case seed {seed}: {last:?} -> {now:?}");
            last = now;
        }
    }
}

/// Jump counting never exceeds the access count and resets cleanly.
#[test]
fn jumps_bounded_by_accesses() {
    for seed in 0..CASES {
        let mut sim = CacheSim::new(&CacheConfig::tiny_for_tests());
        let addrs = addrs(seed, 0..100_000, 1..200);
        for &a in &addrs {
            sim.read(a, 1);
        }
        assert!(sim.random_jumps < addrs.len() as u64, "case seed {seed}");
        sim.reset_stats();
        assert_eq!(sim.random_jumps, 0, "case seed {seed}");
    }
}
