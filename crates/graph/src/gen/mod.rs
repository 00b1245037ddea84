//! Deterministic graph generators.
//!
//! Every generator takes an explicit seed and produces identical output for
//! identical parameters, so experiments are reproducible run-to-run. The
//! synthetic generators here stand in for the paper's datasets:
//!
//! * [`rmat`] / [`kronecker`] — the GAP-style recursive generators the paper
//!   uses for its *rmat* and *kron* graphs, with the same parameters.
//! * [`uniform`] — the *urand* uniform-random undirected graph.
//! * [`road`] — a 2-D lattice with road-network characteristics (low, even
//!   degree; enormous diameter; high locality).
//! * [`generate_profile`] — a class-and-skew-targeting generator that reproduces the
//!   published structure (Table 1/2) of the crawled graphs weibo, track,
//!   wiki and pld, which are not redistributable at size.

mod profile;
mod rmat;
mod road;
mod sampling;
mod uniform;

pub use profile::{generate_profile, ProfileSpec};
pub use rmat::{kronecker, rmat, RmatParams};
pub use road::road;
pub use sampling::AliasTable;
pub use uniform::uniform;

use crate::rng::{SplitMix64, GOLDEN};
use crate::{nid, NodeId};

/// A node id drawn uniformly from `0..n`.
fn node_below(rng: &mut SplitMix64, n: usize) -> NodeId {
    nid(rng.below(n as u64) as usize)
}

/// Produces a deterministic pseudo-random permutation of `0..n` used to
/// scramble generator output, so that downstream relabeling (Mixen's filter
/// step) has real work to do instead of receiving class-contiguous IDs.
pub fn random_permutation(n: usize, seed: u64) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..nid(n)).collect();
    SplitMix64::new(seed ^ GOLDEN).shuffle(&mut perm);
    perm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_bijective() {
        let p = random_permutation(1000, 7);
        let mut seen = vec![false; 1000];
        for &x in &p {
            assert!(!seen[x as usize]);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn permutation_deterministic() {
        assert_eq!(random_permutation(64, 3), random_permutation(64, 3));
        assert_ne!(random_permutation(64, 3), random_permutation(64, 4));
    }
}
