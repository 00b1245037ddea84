//! Instrumented twins of the per-iteration kernels.
//!
//! Each `trace_*` function replays the exact memory-access stream of one
//! steady-state iteration of the corresponding engine into a [`CacheSim`]:
//! a warm-up iteration fills the caches, counters are reset, and one
//! measured iteration produces the report. The *real* graph/block
//! structures drive the addresses, so skew and locality are genuine.
//!
//! These twins are what regenerate the paper's hardware-counter figures:
//! Fig. 4 (memory traffic), Fig. 5 (L2 references split hit/miss) and
//! Fig. 7 (LLC hits and traffic vs block size).

use mixen_core::block::{entry_dest, entry_step};
use mixen_core::{BlockedSubgraph, MixenEngine};
use mixen_graph::{Csr, Graph};

use crate::cache::{CacheConfig, CacheSim, LevelStats};
use crate::layout::MemLayout;

/// Counter snapshot of one measured iteration.
#[derive(Clone, Debug)]
pub struct TraceReport {
    /// Per-level reference/hit/miss counters (L1 first).
    pub levels: Vec<LevelStats>,
    /// DRAM read traffic in bytes.
    pub dram_read_bytes: u64,
    /// DRAM write traffic in bytes.
    pub dram_write_bytes: u64,
    /// CPU-side logical bytes touched.
    pub logical_bytes: u64,
    /// Per-array non-sequential jumps (the §3/§5 "random memory accesses").
    pub random_jumps: u64,
}

impl TraceReport {
    fn from_sim(sim: &CacheSim) -> Self {
        Self {
            levels: sim.level_stats.clone(),
            dram_read_bytes: sim.dram_read_bytes,
            dram_write_bytes: sim.dram_write_bytes,
            logical_bytes: sim.logical_bytes,
            random_jumps: sim.random_jumps,
        }
    }

    /// Total DRAM traffic in bytes.
    pub fn dram_bytes(&self) -> u64 {
        self.dram_read_bytes + self.dram_write_bytes
    }

    /// L2 statistics (index 1), if the hierarchy has an L2.
    pub fn l2(&self) -> LevelStats {
        self.levels.get(1).copied().unwrap_or_default()
    }

    /// Last-level-cache statistics.
    pub fn llc(&self) -> LevelStats {
        self.levels.last().copied().unwrap_or_default()
    }
}

/// One steady-state iteration of the pulling flow (GraphMat-like):
/// sequential `cscPtr`/`cscIdx`/`y`, random reads of `x` (Algorithm 1,
/// lines 5–7).
pub fn trace_pull(g: &Graph, cfg: &CacheConfig) -> TraceReport {
    let n = g.n();
    let m = g.m();
    let mut layout = MemLayout::new();
    let ptr = layout.array(n + 1, 8);
    let idx = layout.array(m, 4);
    let x = layout.array(n, 4);
    let y = layout.array(n, 4);
    let mut sim = CacheSim::new(cfg);
    sim.set_regions(layout.region_bases());
    for pass in 0..2 {
        if pass == 1 {
            sim.reset_stats();
        }
        let mut edge = 0usize;
        for v in 0..n as u32 {
            sim.read(ptr.addr(v as usize), 8);
            for &u in g.in_neighbors(v) {
                sim.read(idx.addr(edge), 4);
                sim.read(x.addr(u as usize), 4);
                edge += 1;
            }
            sim.write(y.addr(v as usize), 4);
        }
    }
    TraceReport::from_sim(&sim)
}

/// One steady-state iteration of the pushing flow (Ligra-like): sequential
/// `csrPtr`/`csrIdx`/`x`, random atomic read-modify-writes into `y`
/// (Algorithm 1, lines 1–3).
pub fn trace_push(g: &Graph, cfg: &CacheConfig) -> TraceReport {
    let n = g.n();
    let m = g.m();
    let mut layout = MemLayout::new();
    let ptr = layout.array(n + 1, 8);
    let idx = layout.array(m, 4);
    let x = layout.array(n, 4);
    let y = layout.array(n, 4);
    let mut sim = CacheSim::new(cfg);
    sim.set_regions(layout.region_bases());
    for pass in 0..2 {
        if pass == 1 {
            sim.reset_stats();
        }
        let mut edge = 0usize;
        for u in 0..n as u32 {
            sim.read(ptr.addr(u as usize), 8);
            sim.read(x.addr(u as usize), 4);
            for &v in g.out_neighbors(u) {
                sim.read(idx.addr(edge), 4);
                // Atomic add: read-modify-write of the destination.
                sim.read(y.addr(v as usize), 4);
                sim.write(y.addr(v as usize), 4);
                edge += 1;
            }
        }
        // Apply pass: transform sums into next values.
        for v in 0..n {
            sim.read(y.addr(v), 4);
            sim.write(y.addr(v), 4);
        }
    }
    TraceReport::from_sim(&sim)
}

/// One steady-state Scatter+Gather+Apply iteration over a blocked
/// structure. `x_len` is the property-vector length (all nodes for the GPOP
/// variant, regular nodes for Mixen), and `cache_step` adds Mixen's
/// static-bin re-priming stream.
fn trace_blocked(
    blocked: &BlockedSubgraph,
    x_len: usize,
    cache_step: bool,
    seed_push: Option<&Csr>,
    cfg: &CacheConfig,
) -> TraceReport {
    let mut layout = MemLayout::new();
    // Concatenated per-bin arrays, with running offsets mirroring the real
    // allocation (one Vec per (task, col) pair, contiguous).
    let total_slots: usize = blocked.total_msg_slots();
    let total_edges: usize = blocked.nnz();
    let src_ids = layout.array(total_slots, 4);
    let dests = layout.array(total_edges, 4);
    let vals = layout.array(total_slots, 4);
    // Chunked columns: each chunk task's own destination stream and the
    // slot id of every flagged entry, concatenated in task order.
    let chunks = || blocked.chunk_streams().iter().flatten();
    let chunk_entries = layout.array(chunks().map(|cs| cs.entries.len()).sum(), 4);
    let chunk_slot_ids = layout.array(chunks().map(|cs| cs.slot_ids.len()).sum(), 4);
    let x = layout.array(x_len, 4);
    let y = layout.array(x_len, 4);
    let sta = layout.array(if cache_step { x_len } else { 0 }, 4);
    let (seed_vals, seed_idx) = match seed_push {
        Some(csr) => (layout.array(csr.n_rows(), 4), layout.array(csr.nnz(), 4)),
        None => (layout.array(0, 4), layout.array(0, 4)),
    };

    let mut sim = CacheSim::new(cfg);
    sim.set_regions(layout.region_bases());
    for pass in 0..2 {
        if pass == 1 {
            sim.reset_stats();
        }
        // Without the Cache step (ablation), seed contributions are
        // re-pushed every iteration: read each seed's value and index list,
        // read-modify-write the destination properties.
        if let Some(csr) = seed_push {
            let mut e = 0usize;
            for srow in 0..csr.n_rows() as u32 {
                sim.read(seed_vals.addr(srow as usize), 4);
                for &dst in csr.neighbors(srow) {
                    sim.read(seed_idx.addr(e), 4);
                    sim.read(x.addr(dst as usize), 4);
                    sim.write(x.addr(dst as usize), 4);
                    e += 1;
                }
            }
        }
        // Scatter (row-major over tasks).
        let mut slot_off = 0usize;
        for row in blocked.rows() {
            for blk in &row.blocks {
                for (k, &src) in blk.src_ids.iter().enumerate() {
                    sim.read(src_ids.addr(slot_off + k), 4);
                    sim.read(x.addr((row.src_start + src) as usize), 4);
                    sim.write(vals.addr(slot_off + k), 4);
                }
                slot_off += blk.src_ids.len();
            }
            if cache_step {
                // Cache step: re-prime the dead x segment from the static bin.
                for v in row.src_start..row.src_end {
                    sim.read(sta.addr(v as usize), 4);
                    sim.write(x.addr(v as usize), 4);
                }
            }
        }
        // Gather (column-major). Per-bin value offsets must be recomputed in
        // column order.
        let row_slot_offsets: Vec<Vec<usize>> = {
            let mut offs = Vec::with_capacity(blocked.rows().len());
            let mut acc = 0usize;
            for row in blocked.rows() {
                let mut per_col = Vec::with_capacity(row.blocks.len());
                for blk in &row.blocks {
                    per_col.push(acc);
                    acc += blk.src_ids.len();
                }
                offs.push(per_col);
            }
            offs
        };
        let mut edge_off_per_block: Vec<Vec<usize>> = Vec::new();
        {
            let mut acc = 0usize;
            for row in blocked.rows() {
                let mut per_col = Vec::with_capacity(row.blocks.len());
                for blk in &row.blocks {
                    per_col.push(acc);
                    acc += blk.dests.len();
                }
                edge_off_per_block.push(per_col);
            }
        }
        // One flat pass per gather task over its flagged destination
        // stream — `Block::dests` for a full column, the task's own cut for
        // a chunk — reading per entry the stream word, (chunks) the slot id,
        // the streamed value, and read-modify-writing `y`. `dest_ptr` is not
        // part of the walk.
        let (mut entry_off, mut slot_id_off) = (0usize, 0usize);
        for (t, chunk) in blocked.gather_tasks().iter().zip(blocked.chunk_streams()) {
            let j = t.col as usize;
            let y_base = j * blocked.block_side() + t.d_lo as usize;
            let mut m = usize::MAX;
            for (bi, &ti) in blocked.nonempty_rows(j).iter().enumerate() {
                let ti = ti as usize;
                let base_slot = row_slot_offsets[ti][j];
                let (stream, array, at): (&[u32], _, _) = match chunk {
                    None => {
                        m = usize::MAX;
                        let blk = &blocked.rows()[ti].blocks[j];
                        (&blk.dests, &dests, edge_off_per_block[ti][j])
                    }
                    Some(cs) => {
                        let at = entry_off + cs.block_ptr[bi] as usize;
                        (cs.entries_of(bi), &chunk_entries, at)
                    }
                };
                for (i, &e) in stream.iter().enumerate() {
                    m = m.wrapping_add(entry_step(e));
                    sim.read(array.addr(at + i), 4);
                    let slot = match chunk {
                        None => m,
                        Some(cs) => {
                            sim.read(chunk_slot_ids.addr(slot_id_off + m), 4);
                            cs.slot_ids[m] as usize
                        }
                    };
                    sim.read(vals.addr(base_slot + slot), 4);
                    // y[d] += val: read-modify-write.
                    let d = y_base + entry_dest(e) as usize;
                    sim.read(y.addr(d), 4);
                    sim.write(y.addr(d), 4);
                }
            }
            if let Some(cs) = chunk {
                entry_off += cs.entries.len();
                slot_id_off += cs.slot_ids.len();
            }
            // Apply over the task's destination segment.
            for v in y_base..y_base + t.len() {
                sim.read(y.addr(v), 4);
                sim.write(y.addr(v), 4);
            }
        }
    }
    TraceReport::from_sim(&sim)
}

/// One steady-state iteration of whole-graph blocking (GPOP-like): the full
/// adjacency flows through the bins, `x`/`y` span all `n` nodes, no Cache
/// step.
pub fn trace_block(g: &Graph, blocked: &BlockedSubgraph, cfg: &CacheConfig) -> TraceReport {
    trace_blocked(blocked, g.n(), false, None, cfg)
}

/// One steady-state Main-Phase iteration of Mixen: only the regular
/// subgraph flows through the bins, property vectors span `r` nodes, and the
/// Cache step re-primes each source segment from the static bin. (Pre- and
/// Post-Phase run once per execution and amortize to ~0 over the paper's
/// 100 timed iterations.)
pub fn trace_mixen(engine: &MixenEngine, cfg: &CacheConfig) -> TraceReport {
    let cache_step = engine.opts().cache_step;
    trace_blocked(
        engine.blocked(),
        engine.filtered().num_regular(),
        cache_step,
        // With the Cache step ablated away, the seed push recurs each
        // iteration and its traffic must be charged per iteration.
        (!cache_step).then(|| engine.filtered().seed_csr()),
        cfg,
    )
}

/// One steady-state Main-Phase iteration of Mixen under a specific
/// reordering policy: builds a fresh engine with `ordering` applied and
/// replays its memory stream. This is the per-policy probe behind the
/// EXPERIMENTS.md reordering shoot-out — the relabel permutation changes
/// which rows land in which blocks (and, for the hub-domain policies, the
/// block sizing itself), so the miss-rate differences are structural, not
/// synthetic.
pub fn trace_mixen_with_ordering(
    g: &Graph,
    ordering: mixen_core::RegularOrdering,
    cfg: &CacheConfig,
) -> TraceReport {
    let opts = mixen_core::MixenOpts {
        ordering,
        ..Default::default()
    };
    let engine = MixenEngine::new(g, opts);
    trace_mixen(&engine, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixen_core::{MixenOpts, RegularOrdering};
    use mixen_graph::{Dataset, Scale};

    fn cfg() -> CacheConfig {
        // Tiny datasets are 1/1024 of the paper's; scale the hierarchy to
        // match so cache pressure is realistic.
        CacheConfig::scaled_paper(1024)
    }

    #[test]
    fn pull_logical_traffic_matches_model() {
        // 2m + 2n elements (4 B) plus the 8 B pointer scan.
        let g = Dataset::Rmat.generate(Scale::Tiny, 1);
        let rep = trace_pull(&g, &cfg());
        let expected = (2 * g.m() + g.n()) as u64 * 4 + (g.n() as u64) * 8;
        assert_eq!(rep.logical_bytes, expected);
    }

    #[test]
    fn mixen_dram_traffic_below_pull_on_skewed_graph() {
        let g = Dataset::Wiki.generate(Scale::Tiny, 2);
        let pull = trace_pull(&g, &cfg());
        let engine = MixenEngine::new(&g, MixenOpts::default());
        let mixen = trace_mixen(&engine, &cfg());
        assert!(
            mixen.dram_bytes() < pull.dram_bytes(),
            "mixen {} vs pull {}",
            mixen.dram_bytes(),
            pull.dram_bytes()
        );
    }

    #[test]
    fn blocked_l2_miss_ratio_below_pull_on_skewed_graph() {
        use mixen_baselines::BlockEngine;
        let g = Dataset::Rmat.generate(Scale::Tiny, 3);
        let pull = trace_pull(&g, &cfg());
        let be = BlockEngine::with_default_blocks(&g);
        let block = trace_block(&g, be.blocked(), &cfg());
        assert!(
            block.l2().miss_ratio() < pull.l2().miss_ratio(),
            "block {} vs pull {}",
            block.l2().miss_ratio(),
            pull.l2().miss_ratio()
        );
    }

    #[test]
    fn push_random_writes_dominate() {
        // Push's random RMWs into y make its L2 behaviour at least as bad
        // as pull's random reads of x on a skewed graph.
        let g = Dataset::Wiki.generate(Scale::Tiny, 5);
        let push = trace_push(&g, &cfg());
        let pull = trace_pull(&g, &cfg());
        assert!(
            push.l2().miss_ratio() > 0.8 * pull.l2().miss_ratio(),
            "push {} vs pull {}",
            push.l2().miss_ratio(),
            pull.l2().miss_ratio()
        );
        // Random jumps track m (one per edge-destination write).
        assert!(push.random_jumps as f64 > 0.5 * g.m() as f64);
    }

    #[test]
    fn every_policy_traces_the_same_edge_set() {
        // The relabel permutation moves rows between blocks but never adds
        // or drops edges, so per-policy traces agree on the regular-region
        // edge count (dests array length) and all produce live hierarchies.
        let g = Dataset::Rmat.generate(Scale::Tiny, 6);
        let base = MixenEngine::new(&g, MixenOpts::default());
        let nnz = base.blocked().nnz();
        for ordering in RegularOrdering::ALL {
            let engine = MixenEngine::new(
                &g,
                MixenOpts {
                    ordering,
                    ..Default::default()
                },
            );
            assert_eq!(engine.blocked().nnz(), nnz, "{}", ordering.name());
            let rep = trace_mixen_with_ordering(&g, ordering, &cfg());
            assert!(rep.llc().references > 0, "{}", ordering.name());
            assert!(rep.dram_bytes() > 0, "{}", ordering.name());
        }
    }

    #[test]
    fn reports_expose_levels() {
        let g = Dataset::Urand.generate(Scale::Tiny, 4);
        let rep = trace_pull(&g, &cfg());
        assert_eq!(rep.levels.len(), 3);
        assert!(rep.l2().references > 0);
        assert!(rep.llc().references > 0);
    }
}
