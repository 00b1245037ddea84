//! Mixen configuration knobs.
//!
//! Defaults follow the paper's evaluation setup (§6.1): 64 Ki-node block
//! side (a 256 KB property segment at 4 bytes per value, the sweet spot of
//! Fig. 6/7), hub relocation on, the Cache step on, and the 2× load-balance
//! split on. Each field is set to a non-default value by a caller that
//! ships — a paper table/figure bin, the CLI, `mixen-serve` or `bench/`;
//! DESIGN.md DR-8 lists who sets what, and what became a constant.

/// How regular nodes are ordered within their relabeled range (step 2 of
/// the filtering procedure, §4.1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RegularOrdering {
    /// Keep original relative order (hub relocation ablated away).
    Original,
    /// The paper's scheme: hubs (in-degree > average) first, original
    /// relative order preserved within hubs and within non-hubs.
    #[default]
    HubsFirst,
    /// Extension: full stable sort by descending in-degree — the
    /// degree-reordering strategy of frameworks like Gorder/DegreeSort,
    /// exposed to compare against the paper's cheaper two-bucket split.
    ByInDegree,
    /// Degree-Based Grouping (Faldu et al.): hub extraction, then the
    /// non-hub suffix regrouped into coarse logarithmic degree classes
    /// (stable within each class). See `crate::reorder::DegreeGroup`.
    Dbg,
    /// HubSort (Faldu et al.): hub extraction, then only the hub prefix
    /// sorted by descending in-degree. See `crate::reorder::HubDegreeSort`.
    HubSort,
}

impl RegularOrdering {
    /// Every policy, in shoot-out table order.
    pub const ALL: [RegularOrdering; 5] = [
        RegularOrdering::Original,
        RegularOrdering::HubsFirst,
        RegularOrdering::ByInDegree,
        RegularOrdering::Dbg,
        RegularOrdering::HubSort,
    ];

    /// The CLI/report name of the policy (the `--reorder` vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            RegularOrdering::Original => "original",
            RegularOrdering::HubsFirst => "hubs-first",
            RegularOrdering::ByInDegree => "by-in-degree",
            RegularOrdering::Dbg => "dbg",
            RegularOrdering::HubSort => "hubsort",
        }
    }

    /// Parses a policy name as accepted by `--reorder` (without `auto`;
    /// see `crate::reorder::ReorderChoice` for the full flag vocabulary).
    pub fn parse(s: &str) -> Option<Self> {
        RegularOrdering::ALL.into_iter().find(|o| o.name() == s)
    }

    /// Stable numeric ID stamped into the `reorder_policy` obs gauge and
    /// folded into checkpoint fingerprints.
    pub fn policy_id(self) -> u64 {
        match self {
            RegularOrdering::Original => 0,
            RegularOrdering::HubsFirst => 1,
            RegularOrdering::ByInDegree => 2,
            RegularOrdering::Dbg => 3,
            RegularOrdering::HubSort => 4,
        }
    }
}

/// How [`crate::bins::DynamicBins`] store streamed values (§4.2 traffic
/// knob): full-width, or one of the 16-bit compressed encodings that
/// roughly halve Main-Phase bin traffic for 4-byte property types.
///
/// Compression applies only to property types that opt in
/// (`PropValue::ENCODABLE`, i.e. `f32`); other types silently keep
/// full-width streams. Lossy encodings are gated by a measured accuracy
/// budget at Scatter time — see `crate::bins::BinEncoding`.
pub use crate::bins::BinEncoding;

/// Configuration for [`crate::MixenEngine`].
#[derive(Clone, Copy, Debug)]
pub struct MixenOpts {
    /// Block side `c` in nodes: each 2-D block spans `c` source nodes by
    /// `c` destination nodes. The paper's default is 64 Ki nodes = 256 KB.
    pub block_side: usize,
    /// Step 2 of filtering: how the regular range is ordered.
    pub ordering: RegularOrdering,
    /// Use static bins to cache seed→regular contributions (the Cache step
    /// of SCGA). When disabled, seed contributions are recomputed and
    /// re-propagated every iteration (the redundancy the paper eliminates).
    pub cache_step: bool,
    /// Split block-rows whose edge count exceeds 2× the average so no
    /// single task dominates (§4.2; the factor is the paper's constant).
    pub load_balance: bool,
    /// §6.4: keep at least `min_tasks_per_thread` block-rows per thread by
    /// shrinking the block side on graphs with few regular nodes.
    pub min_tasks_per_thread: usize,
    /// Value encoding of the dynamic bins (full-width `f32`, IEEE `f16`,
    /// or 16-bit fixed-point `q16`). See [`BinEncoding`].
    pub bin_encoding: BinEncoding,
}

impl Default for MixenOpts {
    fn default() -> Self {
        Self {
            block_side: 64 * 1024,
            ordering: RegularOrdering::HubsFirst,
            cache_step: true,
            load_balance: true,
            min_tasks_per_thread: 4,
            bin_encoding: BinEncoding::F32,
        }
    }
}

impl MixenOpts {
    /// Largest block side: a local destination shares its `u32` with the
    /// message-start flag (`crate::block::MSG_START`), so it must fit 31
    /// bits. The effective side never exceeds the requested one, so bounding
    /// the request bounds every block.
    pub const MAX_BLOCK_SIDE: usize = 1 << 31;

    /// Builder-style override of the block side.
    pub fn with_block_side(mut self, c: usize) -> Self {
        assert!(c > 0, "block side must be positive");
        assert!(
            c <= Self::MAX_BLOCK_SIDE,
            "block side must leave bit 31 free for the message-start flag"
        );
        self.block_side = c;
        self
    }

    /// The block side actually used for a regular subgraph of `r` nodes on
    /// `threads` workers: shrunk when `r` is too small to produce
    /// `min_tasks_per_thread × threads` block-rows (§6.4), floored at 256
    /// nodes so blocks never degenerate.
    pub fn effective_block_side(&self, r: usize, threads: usize) -> usize {
        if r == 0 {
            return self.block_side;
        }
        let want_tasks = (self.min_tasks_per_thread * threads.max(1)).max(1);
        let cap = r.div_ceil(want_tasks).max(256);
        self.block_side.min(cap).max(1)
    }

    /// GRASP-style cache-domain sizing: the hub prefix `0..num_hub` is a
    /// pinned domain whose property values stay hot across every block-row,
    /// so regular-region blocks are sized to the budget left after the hub
    /// working set — `block_side − num_hub` destination values instead of
    /// `block_side`. Pinning engages only while the hub set leaves at least
    /// half the budget (a larger hub set cannot stay resident anyway, and
    /// carving it out would just shred the grid), and the result keeps both
    /// the §6.4 small-graph shrink and the 256-node floor of
    /// [`MixenOpts::effective_block_side`].
    pub fn effective_block_side_domain(&self, r: usize, num_hub: usize, threads: usize) -> usize {
        let base = self.effective_block_side(r, threads);
        if num_hub == 0 || num_hub * 2 > self.block_side {
            return base;
        }
        base.min((self.block_side - num_hub).max(256))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let o = MixenOpts::default();
        assert_eq!(o.block_side, 65536);
        assert_eq!(o.ordering, RegularOrdering::HubsFirst);
        assert!(o.cache_step && o.load_balance);
        assert_eq!(o.bin_encoding, BinEncoding::F32);
    }

    #[test]
    fn effective_side_shrinks_for_small_graphs() {
        let o = MixenOpts::default();
        // 20 threads, 4 tasks each => 80 tasks wanted; r = 100_000 =>
        // side <= 1250, floored at 256.
        let c = o.effective_block_side(100_000, 20);
        assert!((256..=1250).contains(&c), "c = {c}");
    }

    #[test]
    fn effective_side_keeps_default_for_large_graphs() {
        let o = MixenOpts::default();
        assert_eq!(o.effective_block_side(100_000_000, 20), 65536);
    }

    #[test]
    fn effective_side_handles_zero_regular() {
        let o = MixenOpts::default();
        assert_eq!(o.effective_block_side(0, 8), o.block_side);
    }

    #[test]
    #[should_panic(expected = "block side must be positive")]
    fn zero_block_side_rejected() {
        let _ = MixenOpts::default().with_block_side(0);
    }

    #[test]
    fn largest_block_side_is_accepted() {
        let o = MixenOpts::default().with_block_side(MixenOpts::MAX_BLOCK_SIDE);
        assert_eq!(o.block_side, 1 << 31);
        // The effective side never exceeds the request, whatever the graph.
        assert!(o.effective_block_side_domain(usize::MAX, 0, 1) <= MixenOpts::MAX_BLOCK_SIDE);
    }

    #[test]
    #[should_panic(expected = "bit 31")]
    fn block_side_above_the_flag_bit_rejected() {
        let _ = MixenOpts::default().with_block_side(MixenOpts::MAX_BLOCK_SIDE + 1);
    }

    #[test]
    fn policy_names_round_trip() {
        for o in RegularOrdering::ALL {
            assert_eq!(RegularOrdering::parse(o.name()), Some(o));
        }
        assert_eq!(RegularOrdering::parse("auto"), None);
        // IDs are distinct and stable (checkpoint fingerprints rely on
        // them).
        let ids: Vec<u64> = RegularOrdering::ALL.iter().map(|o| o.policy_id()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn hub_domain_shrinks_the_block_side() {
        let o = MixenOpts::default();
        // Large graph, 16 Ki hubs pinned: 64 Ki − 16 Ki = 48 Ki leftover.
        let c = o.effective_block_side_domain(100_000_000, 16 * 1024, 1);
        assert_eq!(c, 48 * 1024);
    }

    #[test]
    fn hub_domain_pinning_disengages_when_hubs_overflow_the_budget() {
        let o = MixenOpts::default();
        // No hubs: identical to the plain sizing.
        assert_eq!(
            o.effective_block_side_domain(100_000_000, 0, 1),
            o.effective_block_side(100_000_000, 1)
        );
        // Hub set above half the budget: pinning off.
        assert_eq!(
            o.effective_block_side_domain(100_000_000, 40 * 1024, 1),
            o.effective_block_side(100_000_000, 1)
        );
    }

    #[test]
    fn hub_domain_respects_the_small_graph_shrink_and_floor() {
        let o = MixenOpts::default();
        // Small-graph cap still applies (and is already below the leftover).
        let plain = o.effective_block_side(100_000, 20);
        assert_eq!(o.effective_block_side_domain(100_000, 1024, 20), plain);
        // The 256-node floor holds even with a near-half-budget hub set.
        let c = o.effective_block_side_domain(100_000_000, 32 * 1024 - 100, 1);
        assert!(c >= 256, "c = {c}");
    }
}
