//! Property tests of the dataset generators: arbitrary valid parameters
//! must produce structurally valid graphs whose realized classes match the
//! requested profile. Case `seed` draws its parameters from
//! `SplitMix64::new(seed)` and seeds the generator with `seed`; every
//! assertion names it.

use mixen_graph::gen::{generate_profile, ProfileSpec};
use mixen_graph::rng::SplitMix64;
use mixen_graph::{gen, Classification, NodeClass, StructuralStats};

const CASES: u64 = 24;

/// Uniform in `lo..hi`.
fn draw(rng: &mut SplitMix64, lo: u64, hi: u64) -> u64 {
    lo + rng.below(hi - lo)
}

#[test]
fn profile_generator_respects_any_valid_spec() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        // Arbitrary class mix: four non-negative weights normalized to 1.
        let weights = [1, 0, 0, 0].map(|lo| draw(&mut rng, lo, 100) as f64);
        let total: f64 = weights.iter().sum();
        let fracs = weights.map(|w| w / total);
        let n = draw(&mut rng, 200, 2000) as usize;
        let spec = ProfileSpec {
            n,
            avg_degree: 1.0 + 11.0 * rng.unit_f64(),
            frac_regular: fracs[0],
            frac_seed: fracs[1],
            frac_sink: fracs[2],
            frac_isolated: fracs[3],
            beta: rng.unit_f64(),
            in_skew: 1.3 * rng.unit_f64(),
            out_skew: 0.5,
            seed,
        };
        let g = generate_profile(&spec);
        assert_eq!(g.n(), n, "case seed {seed}");
        g.validate().unwrap();
        let c = Classification::of(&g);
        // Realized class fractions within 5 points of the request.
        for (class, target) in NodeClass::ALL.iter().zip(fracs) {
            let realized = c.count(*class) as f64 / n as f64;
            assert!(
                (realized - target).abs() < 0.05,
                "case seed {seed}: {class:?} realized {realized} vs target {target}"
            );
        }
        // No self loops survive.
        let loops = g.edges().filter(|&(s, d)| s == d).count();
        assert_eq!(loops, 0, "case seed {seed}");
    }
}

#[test]
fn rmat_always_valid() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let scale = draw(&mut rng, 4, 11) as u32;
        let ef = draw(&mut rng, 1, 16) as usize;
        let g = gen::rmat(scale, ef, gen::RmatParams::default(), seed);
        g.validate().unwrap();
        assert_eq!(g.n(), 1usize << scale, "case seed {seed}");
        assert!(g.m() <= (1usize << scale) * ef, "case seed {seed}");
    }
}

#[test]
fn kron_always_symmetric() {
    for seed in 0..CASES {
        let scale = draw(&mut SplitMix64::new(seed), 4, 10) as u32;
        let g = gen::kronecker(scale, 8, seed);
        g.validate().unwrap();
        assert!(g.is_symmetric(), "case seed {seed}");
        let s = StructuralStats::of(&g);
        assert!(s.frac_seed == 0.0 && s.frac_sink == 0.0, "case seed {seed}");
    }
}

#[test]
fn road_always_connected_and_regular() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let w = draw(&mut rng, 3, 40) as usize;
        let h = draw(&mut rng, 3, 40) as usize;
        let g = gen::road(w, h, 0.5 * rng.unit_f64(), seed);
        g.validate().unwrap();
        let comps = mixen_graph::weakly_connected_components(&g);
        assert_eq!(comps.count, 1, "case seed {seed}");
        let c = Classification::of(&g);
        assert_eq!(c.count(NodeClass::Regular), g.n(), "case seed {seed}");
    }
}

#[test]
fn uniform_always_all_regular() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let n = draw(&mut rng, 10, 500) as usize;
        let g = gen::uniform(n, draw(&mut rng, 2, 20) as usize, seed);
        g.validate().unwrap();
        let c = Classification::of(&g);
        assert_eq!(c.count(NodeClass::Regular), n, "case seed {seed}");
        assert!(g.is_symmetric(), "case seed {seed}");
    }
}
