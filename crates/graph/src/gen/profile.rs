//! Structure-targeting generator for the paper's crawled datasets.
//!
//! weibo/track/wiki/pld are multi-hundred-megabyte crawls that are not
//! bundled here; what Mixen's behaviour depends on is their *structure*:
//! the regular/seed/sink/isolated mix (Table 1), the fraction `β` of edges
//! inside the regular subgraph (Table 2) and the skew of the in-degree
//! distribution (hub concentration). This generator takes exactly those
//! quantities as targets:
//!
//! 1. Node IDs are split class-contiguously by the target fractions.
//! 2. Each edge draws a class — regular→regular with probability `β`, the
//!    rest split across seed→regular / regular→sink / seed→sink by class
//!    availability — then endpoints from Zipf-weighted alias tables (low
//!    indices are hubs).
//! 3. Degree constraints are repaired so each node's realized class matches
//!    its assigned class exactly.
//! 4. IDs are scrambled by a random permutation so Mixen's relabeling pass
//!    has real work to do.

use super::node_below;
use super::sampling::{zipf_weights, AliasTable};
use crate::rng::SplitMix64;
use crate::{nid, EdgeList, Graph, NodeId};

/// Target structure for [`generate_profile`].
#[derive(Clone, Debug)]
pub struct ProfileSpec {
    /// Node count.
    pub n: usize,
    /// Target average directed degree `m/n`.
    pub avg_degree: f64,
    /// Target class fractions; must sum to ~1.
    pub frac_regular: f64,
    /// Seed (out-only) node fraction.
    pub frac_seed: f64,
    /// Sink (in-only) node fraction.
    pub frac_sink: f64,
    /// Isolated node fraction.
    pub frac_isolated: f64,
    /// Target fraction of edges with both endpoints regular (Table 2 `β`).
    pub beta: f64,
    /// Zipf exponent of the in-degree distribution (hub concentration).
    pub in_skew: f64,
    /// Zipf exponent of the out-degree distribution.
    pub out_skew: f64,
    /// RNG seed.
    pub seed: u64,
}

impl ProfileSpec {
    fn validate(&self) {
        let sum = self.frac_regular + self.frac_seed + self.frac_sink + self.frac_isolated;
        assert!(
            (sum - 1.0).abs() < 1e-6,
            "class fractions must sum to 1, got {sum}"
        );
        assert!((0.0..=1.0).contains(&self.beta));
        assert!(self.n > 0 && self.avg_degree >= 0.0);
    }
}

/// Edge classes in the directed class graph.
#[derive(Clone, Copy, PartialEq, Eq)]
enum EdgeClass {
    RegToReg,
    SeedToReg,
    RegToSink,
    SeedToSink,
}

/// Generates a graph matching `spec`. See the module docs for the algorithm.
pub fn generate_profile(spec: &ProfileSpec) -> Graph {
    spec.validate();
    let n = spec.n;
    // Class counts: round, give the remainder to the largest class, and make
    // sure any class with positive fraction gets at least one node.
    let mut counts = [
        (spec.frac_regular * n as f64).round() as usize,
        (spec.frac_seed * n as f64).round() as usize,
        (spec.frac_sink * n as f64).round() as usize,
        (spec.frac_isolated * n as f64).round() as usize,
    ];
    let fracs = [
        spec.frac_regular,
        spec.frac_seed,
        spec.frac_sink,
        spec.frac_isolated,
    ];
    for i in 0..4 {
        if fracs[i] > 0.0 && counts[i] == 0 {
            counts[i] = 1;
        }
        if fracs[i] == 0.0 {
            counts[i] = 0;
        }
    }
    // Rebalance to sum exactly n, adjusting the largest class (ties pick the
    // last index, matching `max_by_key` semantics).
    let mut largest = 0;
    for i in 1..4 {
        if counts[i] >= counts[largest] {
            largest = i;
        }
    }
    let others: usize = (0..4).filter(|&i| i != largest).map(|i| counts[i]).sum();
    assert!(others <= n, "class fractions infeasible for n = {n}");
    counts[largest] = n - others;
    let [n_reg, n_seed, n_sink, _n_iso] = counts;
    let reg_base = 0u32;
    let seed_base = nid(n_reg);
    let sink_base = nid(n_reg + n_seed);

    let m = (spec.avg_degree * n as f64).round() as usize;

    // Edge-class distribution: β to reg→reg, remainder split by receiver /
    // sender availability. Infeasible classes get zero probability.
    let mut probs = [0.0f64; 4];
    probs[EdgeClass::RegToReg as usize] = if n_reg > 0 { spec.beta } else { 0.0 };
    let rest = 1.0 - probs[EdgeClass::RegToReg as usize];
    let w_sr = if n_seed > 0 && n_reg > 0 {
        n_seed as f64
    } else {
        0.0
    };
    let w_rs = if n_sink > 0 && n_reg > 0 {
        n_sink as f64
    } else {
        0.0
    };
    let w_ss = if n_seed > 0 && n_sink > 0 {
        (n_seed as f64 * n_sink as f64).sqrt() * 0.25
    } else {
        0.0
    };
    let w_total = w_sr + w_rs + w_ss;
    if w_total > 0.0 {
        probs[EdgeClass::SeedToReg as usize] = rest * w_sr / w_total;
        probs[EdgeClass::RegToSink as usize] = rest * w_rs / w_total;
        probs[EdgeClass::SeedToSink as usize] = rest * w_ss / w_total;
    } else {
        // Only regular receivers/senders exist: everything is reg→reg.
        probs[EdgeClass::RegToReg as usize] = if n_reg > 0 { 1.0 } else { 0.0 };
    }
    let class_table = if probs.iter().sum::<f64>() > 0.0 {
        Some(AliasTable::new(&probs))
    } else {
        None
    };

    // Endpoint samplers: Zipf within each class range, hubs at low indices.
    let reg_in = nonempty_table(n_reg, spec.in_skew);
    let reg_out = nonempty_table(n_reg, spec.out_skew);
    let seed_out = nonempty_table(n_seed, spec.out_skew);
    let sink_in = nonempty_table(n_sink, spec.in_skew);

    // Parallel edge sampling with deterministic per-chunk RNG streams.
    const CHUNK: usize = 1 << 15;
    let chunks = m.div_ceil(CHUNK);
    let pairs: Vec<(NodeId, NodeId)> = mixen_pool::par_parts(chunks, |part| {
        part.flat_map(|chunk| {
            let lo = chunk * CHUNK;
            let hi = (lo + CHUNK).min(m);
            let mut rng = SplitMix64::new(spec.seed.wrapping_add(0x1357 * chunk as u64 + 11));
            let class_table = class_table.as_ref();
            let reg_in = reg_in.as_ref();
            let reg_out = reg_out.as_ref();
            let seed_out = seed_out.as_ref();
            let sink_in = sink_in.as_ref();
            (lo..hi)
                .filter_map(move |_| {
                    let class = match class_table?.sample(&mut rng) {
                        0 => EdgeClass::RegToReg,
                        1 => EdgeClass::SeedToReg,
                        2 => EdgeClass::RegToSink,
                        _ => EdgeClass::SeedToSink,
                    };
                    let src = match class {
                        EdgeClass::RegToReg | EdgeClass::RegToSink => {
                            reg_base + reg_out?.sample(&mut rng)
                        }
                        _ => seed_base + seed_out?.sample(&mut rng),
                    };
                    let dst = match class {
                        EdgeClass::RegToReg | EdgeClass::SeedToReg => {
                            reg_base + reg_in?.sample(&mut rng)
                        }
                        _ => sink_base + sink_in?.sample(&mut rng),
                    };
                    Some((src, dst))
                })
                .collect::<Vec<_>>()
        })
        .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();

    let mut el = EdgeList::from_pairs(n, pairs);
    el.drop_self_loops();
    el.dedup();

    // Constraint repair: realized degrees must match assigned classes.
    let pairs = repair_classes(n, n_reg, n_seed, n_sink, el.into_pairs(), spec.seed);
    let mut el = EdgeList::from_pairs(n, pairs);
    el.dedup();

    // Scramble IDs so the generated graph is not pre-sorted by class.
    el.relabel(&super::random_permutation(n, spec.seed ^ 0xDEAD_BEEF));
    Graph::from_edge_list(&el)
}

fn nonempty_table(n: usize, theta: f64) -> Option<AliasTable> {
    (n > 0).then(|| AliasTable::new(&zipf_weights(n, theta)))
}

/// Adds the minimum edges needed so that every node in the regular range has
/// in ≥ 1 and out ≥ 1, every seed has out ≥ 1 and every sink has in ≥ 1.
/// Repair edges respect class constraints (sources are regular/seed,
/// destinations regular/sink) so no node's class is broken by the repair.
fn repair_classes(
    n: usize,
    n_reg: usize,
    n_seed: usize,
    n_sink: usize,
    mut pairs: Vec<(NodeId, NodeId)>,
    seed: u64,
) -> Vec<(NodeId, NodeId)> {
    let mut in_deg = vec![0u32; n];
    let mut out_deg = vec![0u32; n];
    for &(s, d) in &pairs {
        out_deg[s as usize] += 1;
        in_deg[d as usize] += 1;
    }
    let mut rng = SplitMix64::new(seed ^ 0x5EED);
    let reg_range = 0..nid(n_reg);
    let seed_range = nid(n_reg)..nid(n_reg + n_seed);
    let sink_range = nid(n_reg + n_seed)..nid(n_reg + n_seed + n_sink);
    // A receiver for dangling out-edges and a sender for missing in-edges.
    // Prefer regular hubs (index 0 region) so repairs reinforce the skew.
    let pick_receiver = |rng: &mut SplitMix64, avoid: u32| -> Option<u32> {
        if n_reg > 1 || (n_reg == 1 && avoid != 0) {
            let mut v = node_below(rng, n_reg.clamp(1, 8));
            if v == avoid {
                v = (v + 1) % nid(n_reg);
            }
            Some(v)
        } else if n_sink > 0 {
            Some(sink_range.start + node_below(rng, n_sink))
        } else {
            None
        }
    };
    let pick_sender = |rng: &mut SplitMix64, avoid: u32| -> Option<u32> {
        if n_reg > 1 || (n_reg == 1 && avoid != 0) {
            let mut v = node_below(rng, n_reg.clamp(1, 8));
            if v == avoid {
                v = (v + 1) % nid(n_reg);
            }
            Some(v)
        } else if n_seed > 0 {
            Some(seed_range.start + node_below(rng, n_seed))
        } else {
            None
        }
    };
    let mut extra: Vec<(NodeId, NodeId)> = Vec::new();
    for u in reg_range.clone() {
        if out_deg[u as usize] == 0 {
            if let Some(v) = pick_receiver(&mut rng, u) {
                extra.push((u, v));
                out_deg[u as usize] += 1;
                in_deg[v as usize] += 1;
            }
        }
        if in_deg[u as usize] == 0 {
            if let Some(s) = pick_sender(&mut rng, u) {
                extra.push((s, u));
                out_deg[s as usize] += 1;
                in_deg[u as usize] += 1;
            }
        }
    }
    for u in seed_range.clone() {
        if out_deg[u as usize] == 0 {
            if let Some(v) = pick_receiver(&mut rng, u32::MAX) {
                extra.push((u, v));
                out_deg[u as usize] += 1;
                in_deg[v as usize] += 1;
            }
        }
    }
    for u in sink_range.clone() {
        if in_deg[u as usize] == 0 {
            if let Some(s) = pick_sender(&mut rng, u32::MAX) {
                extra.push((s, u));
                out_deg[s as usize] += 1;
                in_deg[u as usize] += 1;
            }
        }
    }
    // Pathological corner: a single regular node with nothing else to link
    // to keeps itself regular through a self-loop.
    if n_reg == 1 && (out_deg[0] == 0 || in_deg[0] == 0) {
        extra.push((0, 0));
    }
    pairs.extend(extra);
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Classification, NodeClass, StructuralStats};

    fn wiki_like(n: usize) -> ProfileSpec {
        ProfileSpec {
            n,
            avg_degree: 9.5,
            frac_regular: 0.22,
            frac_seed: 0.33,
            frac_sink: 0.45,
            frac_isolated: 0.0,
            beta: 0.78,
            in_skew: 0.9,
            out_skew: 0.6,
            seed: 99,
        }
    }

    #[test]
    fn classes_match_targets_exactly() {
        let spec = wiki_like(4000);
        let g = generate_profile(&spec);
        let c = Classification::of(&g);
        let n = g.n() as f64;
        assert!((c.count(NodeClass::Regular) as f64 / n - 0.22).abs() < 0.02);
        assert!((c.count(NodeClass::Seed) as f64 / n - 0.33).abs() < 0.02);
        assert!((c.count(NodeClass::Sink) as f64 / n - 0.45).abs() < 0.02);
        assert_eq!(c.count(NodeClass::Isolated), 0);
    }

    #[test]
    fn beta_near_target() {
        let spec = wiki_like(8000);
        let g = generate_profile(&spec);
        let s = StructuralStats::of(&g);
        assert!((s.beta - 0.78).abs() < 0.12, "beta = {}", s.beta);
    }

    #[test]
    fn isolated_fraction_respected() {
        let spec = ProfileSpec {
            frac_regular: 0.5,
            frac_seed: 0.1,
            frac_sink: 0.2,
            frac_isolated: 0.2,
            beta: 0.8,
            ..wiki_like(3000)
        };
        let g = generate_profile(&spec);
        let c = Classification::of(&g);
        let iso = c.count(NodeClass::Isolated) as f64 / g.n() as f64;
        assert!((iso - 0.2).abs() < 0.03, "iso = {iso}");
    }

    #[test]
    fn weibo_like_extreme_seed_fraction() {
        let spec = ProfileSpec {
            n: 4000,
            avg_degree: 20.0,
            frac_regular: 0.01,
            frac_seed: 0.99,
            frac_sink: 0.0,
            frac_isolated: 0.0,
            beta: 0.06,
            in_skew: 1.2,
            out_skew: 0.8,
            seed: 7,
        };
        let g = generate_profile(&spec);
        let s = StructuralStats::of(&g);
        assert!(s.alpha < 0.03, "alpha = {}", s.alpha);
        assert!(s.e_hub > 0.8, "e_hub = {}", s.e_hub);
        assert!(s.is_skewed());
    }

    #[test]
    fn deterministic() {
        let spec = wiki_like(1000);
        let a = generate_profile(&spec);
        let b = generate_profile(&spec);
        assert_eq!(a.out_csr(), b.out_csr());
    }

    #[test]
    fn tiny_graph_with_one_regular() {
        let spec = ProfileSpec {
            n: 10,
            avg_degree: 2.0,
            frac_regular: 0.1,
            frac_seed: 0.5,
            frac_sink: 0.4,
            frac_isolated: 0.0,
            beta: 0.1,
            in_skew: 0.5,
            out_skew: 0.5,
            seed: 3,
        };
        let g = generate_profile(&spec);
        let c = Classification::of(&g);
        assert_eq!(c.count(NodeClass::Regular), 1);
    }

    #[test]
    fn no_self_loops_in_output_except_degenerate() {
        let g = generate_profile(&wiki_like(2000));
        let loops = g.edges().filter(|&(s, d)| s == d).count();
        assert_eq!(loops, 0);
    }
}
