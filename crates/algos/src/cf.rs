//! Collaborative Filtering (§2.2, §6.1).
//!
//! The paper defines CF as "a graph learning algorithm derived from the
//! SpMV form of InDegree" — each iteration propagates latent feature
//! vectors along the links and blends the aggregated neighbourhood signal
//! with a per-node anchor (the SpMV generalization with `[f32; K]` values).
//! This is the computation pattern of GraphMat's CF / ALS smoothing step;
//! K-dimensional values multiply the per-edge traffic by K, which is why
//! Table 3's CF rows are uniformly slower than InDegree's.

use crate::Engine;
use mixen_graph::rng::{mix, GOLDEN};
use mixen_graph::{nid, NodeId};

/// The latent dimensionality used throughout the benchmarks.
pub const LATENT_DIM: usize = 8;

/// Collaborative-filtering parameters.
#[derive(Clone, Copy, Debug)]
pub struct CfOpts {
    /// Blend weight of the aggregated neighbour signal (vs the anchor).
    pub blend: f32,
    /// Propagation rounds.
    pub iters: usize,
}

impl Default for CfOpts {
    fn default() -> Self {
        Self {
            blend: 0.5,
            iters: 1,
        }
    }
}

/// Deterministic pseudo-random anchor vector of node `v` (the splitmix64
/// finalizer over `(v, k)`, identical across engines and runs).
pub fn anchor(v: NodeId) -> [f32; LATENT_DIM] {
    std::array::from_fn(|k| {
        let z = mix((v as u64).wrapping_mul(GOLDEN).wrapping_add(k as u64 + 1));
        // Map to [0, 1).
        (z >> 40) as f32 / (1u64 << 24) as f32
    })
}

/// Runs CF feature propagation; returns the per-node latent vectors.
pub fn collaborative_filtering<E: Engine>(
    g: &mixen_graph::Graph,
    engine: &E,
    opts: CfOpts,
) -> Vec<[f32; LATENT_DIM]> {
    let in_deg: Vec<f32> = (0..nid(g.n()))
        .map(|v| g.in_degree(v).max(1) as f32)
        .collect();
    let blend = opts.blend;
    let apply = move |v: NodeId, sum: [f32; LATENT_DIM]| {
        let a = anchor(v);
        let scale = blend / in_deg[v as usize];
        std::array::from_fn(|k| scale * sum[k] + (1.0 - blend) * a[k])
    };
    // Seed-consistency: in-degree-0 nodes start at their fixed point
    // apply(v, 0) = (1 - blend) * anchor(v).
    let in_zero: Vec<bool> = (0..nid(g.n())).map(|v| g.in_degree(v) == 0).collect();
    let init = move |v: NodeId| {
        let a = anchor(v);
        if in_zero[v as usize] {
            std::array::from_fn(|k| (1.0 - blend) * a[k])
        } else {
            a
        }
    };
    engine.iterate(init, apply, opts.iters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixen_baselines::{PushEngine, ReferenceEngine};
    use mixen_core::{MixenEngine, MixenOpts};
    use mixen_graph::Graph;

    fn toy() -> Graph {
        Graph::from_pairs(6, &[(0, 1), (1, 2), (2, 0), (3, 1), (3, 4), (1, 4), (2, 5)])
    }

    #[test]
    fn anchors_are_deterministic_and_spread() {
        assert_eq!(anchor(7), anchor(7));
        assert_ne!(anchor(7), anchor(8));
        let a = anchor(123);
        assert!(a.iter().all(|&x| (0.0..1.0).contains(&x)));
        // Not all lanes identical.
        assert!(a.iter().any(|&x| (x - a[0]).abs() > 1e-6));
    }

    #[test]
    fn engines_agree_on_cf() {
        let g = toy();
        let opts = CfOpts {
            blend: 0.5,
            iters: 3,
        };
        let want = collaborative_filtering(&g, &ReferenceEngine::new(&g), opts);
        let mixen = collaborative_filtering(
            &g,
            &MixenEngine::new(
                &g,
                MixenOpts {
                    block_side: 2,
                    min_tasks_per_thread: 1,
                    ..MixenOpts::default()
                },
            ),
            opts,
        );
        let push = collaborative_filtering(&g, &PushEngine::new(&g), opts);
        for i in 0..g.n() {
            for k in 0..LATENT_DIM {
                assert!((want[i][k] - mixen[i][k]).abs() < 1e-5, "mixen node {i}");
                assert!((want[i][k] - push[i][k]).abs() < 1e-5, "push node {i}");
            }
        }
    }

    #[test]
    fn blend_zero_returns_anchors() {
        let g = toy();
        let vals = collaborative_filtering(
            &g,
            &ReferenceEngine::new(&g),
            CfOpts {
                blend: 0.0,
                iters: 2,
            },
        );
        for v in 0..g.n() as NodeId {
            assert_eq!(vals[v as usize], anchor(v));
        }
    }

    #[test]
    fn values_stay_bounded() {
        // blend/indeg scaling keeps each lane a convex-ish combination of
        // [0,1) anchors, so values must stay in [0, 1].
        let g = toy();
        let vals = collaborative_filtering(
            &g,
            &ReferenceEngine::new(&g),
            CfOpts {
                blend: 0.9,
                iters: 10,
            },
        );
        for v in vals {
            for x in v {
                assert!((0.0..=1.0).contains(&x), "x = {x}");
            }
        }
    }
}
