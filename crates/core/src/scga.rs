//! Reusable Scatter/Gather kernels over a [`BlockedSubgraph`].
//!
//! [`crate::MixenEngine`] composes these with its Cache step and phase
//! scheduling; the GPOP-style whole-graph blocking baseline uses them
//! directly (its Scatter–Gather–Apply model is the same data path without
//! filtering or seed caching).
//!
//! Parallel safety without atomics:
//! * Scatter parallelizes over block-rows; each task owns a disjoint source
//!   segment of `x` (which it may also overwrite — Mixen's Cache step).
//! * Gather parallelizes over block-columns; each task owns a disjoint
//!   destination segment of `y`.

use mixen_graph::nid;
use mixen_graph::{GraphError, NodeId, PropValue};

use crate::bins::{plan_codec, BinCodec, DynamicBins, TaskBins};
use crate::block::{entry_dest, entry_step, Block, BlockedSubgraph};
use crate::obs::Metrics;
use crate::weights::{Unweighted, WeightRun, Weights};

/// Unroll width of the Scatter copy loops: `UNROLL` independent gathered
/// loads feed one contiguous store. Copies are element-wise, so the unroll
/// cannot change what is stored. (Gather is not unrolled: its loop is one
/// flat pass with no inner trip count to amortize.)
const UNROLL: usize = 4;

/// Software-prefetch look-ahead of the streaming kernels, in entries: the
/// next dynamic-bin segment on Scatter and on the Gather column walk.
const PREFETCH_AHEAD: usize = 1;

/// Best-effort read prefetch of the cache line holding `p`. Compiles to a
/// single `prefetcht0` on x86-64 and to nothing elsewhere (aarch64's
/// `_prefetch` intrinsic is not stable) — a pure latency hint that never
/// reads or writes memory, so it cannot affect results.
#[inline(always)]
pub(crate) fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is a hint instruction; it performs no memory
    // access and is architecturally defined for any address, valid or not.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Read-side view of one (task, column) bin stream, monomorphized per
/// representation so the gather loop stays branch-free: full-width
/// streams read `V` directly, packed streams decode 16-bit words through
/// the Scatter round's codec.
trait BinRead<V>: Copy {
    /// Number of message slots in the stream.
    fn len(self) -> usize;
    /// Reads slot `k`.
    ///
    /// SAFETY: callers must keep `k < self.len()`; the kernels derive `k`
    /// from partition metadata that `debug_validate` checks against the
    /// stream sizes.
    unsafe fn get(self, k: usize) -> V;
    /// Stream base address — a software-prefetch target only.
    fn base_ptr(self) -> *const u8;
}

#[derive(Clone, Copy)]
struct FullRead<'a, V>(&'a [V]);

impl<V: PropValue> BinRead<V> for FullRead<'_, V> {
    #[inline(always)]
    fn len(self) -> usize {
        self.0.len()
    }

    // SAFETY: caller proves `k < self.len()` (the `BinRead::get` contract).
    #[inline(always)]
    unsafe fn get(self, k: usize) -> V {
        *self.0.get_unchecked(k) // width: k < len is the BinRead::get contract, proved at every call site
    }

    #[inline(always)]
    fn base_ptr(self) -> *const u8 {
        self.0.as_ptr() as *const u8
    }
}

#[derive(Clone, Copy)]
struct PackedRead<'a> {
    data: &'a [u16],
    codec: BinCodec,
}

impl<V: PropValue> BinRead<V> for PackedRead<'_> {
    #[inline(always)]
    fn len(self) -> usize {
        self.data.len()
    }

    // SAFETY: caller proves `k < self.len()` (the `BinRead::get` contract).
    #[inline(always)]
    unsafe fn get(self, k: usize) -> V {
        V::from_stream_f32(self.codec.decode(*self.data.get_unchecked(k))) // width: k < len is the BinRead::get contract, proved at every call site
    }

    #[inline(always)]
    fn base_ptr(self) -> *const u8 {
        self.data.as_ptr() as *const u8
    }
}

/// Scatter step: stream each block-row's source values into its dynamic
/// bins (one value per compressed message slot). If `prime` is given, the
/// now-dead source segment is overwritten with the corresponding slice of
/// `prime` afterwards — Mixen's Cache step. Under a compressed bin
/// encoding the round's codec is planned against `x` first ([`plan_codec`])
/// and a violated accuracy budget surfaces as [`GraphError::Numeric`]
/// before anything is streamed; full-width bins never fail.
///
/// `metrics` advances `edges_scattered` by the subgraph's edge count,
/// `bin_bytes_streamed` by the compressed slot bytes actually written (2
/// per slot under a 16-bit encoding), and `bin_bytes_saved` by the traffic
/// a compressed encoding avoided relative to full-width slots. Every
/// nonempty block streams its full slot list per call, so these per-call
/// totals are exact.
pub fn try_scatter_with<V: PropValue>(
    blocked: &BlockedSubgraph,
    x: &mut [V],
    bins: &mut DynamicBins<V>,
    prime: Option<&[V]>,
    metrics: Option<&Metrics>,
) -> Result<(), GraphError> {
    let codec = plan_codec::<V>(bins.encoding(), x)?;
    bins.set_codec(codec);
    if let Some(m) = metrics {
        m.edges_scattered.add(blocked.nnz() as u64);
        let slots = blocked.total_msg_slots() as u64;
        let bps = bins.bytes_per_slot();
        m.bin_bytes_streamed.add(slots * bps as u64);
        let full = std::mem::size_of::<V>();
        if bps < full {
            m.bin_bytes_saved.add(slots * (full - bps) as u64);
        }
    }
    let packed = bins.encoding().is_compressed();
    let rows = blocked.rows();
    // Each task owns its bins and its block-row's source segment.
    let mut rest = x;
    let mut work: Vec<(&mut TaskBins<V>, &mut [V])> = bins
        .tasks_mut()
        .iter_mut()
        .zip(rows)
        .map(|(task, row)| {
            let len = (row.src_end - row.src_start) as usize;
            let (xseg, tail) = std::mem::take(&mut rest).split_at_mut(len);
            rest = tail;
            (task, xseg)
        })
        .collect();
    debug_assert_eq!(work.len(), rows.len());
    mixen_pool::par_parts_mut(&mut work, |first, work| {
        for ((task, xseg), row) in work.iter_mut().zip(&rows[first..]) {
            let cols = &row.nonempty_cols;
            for (i, &j) in cols.iter().enumerate() {
                if let Some(&ja) = cols.get(i + PREFETCH_AHEAD) {
                    // Touch the bin stream this task fills next, hiding
                    // its first-write miss.
                    prefetch_read(task.col_prefetch_ptr(ja as usize));
                }
                let blk = &row.blocks[j as usize];
                if packed {
                    stream_block_packed(blk, xseg, task.packed_col_mut(j as usize), codec);
                } else {
                    stream_block_full(blk, xseg, task.col_mut(j as usize));
                }
            }
            if let Some(p) = prime {
                xseg.copy_from_slice(&p[row.src_start as usize..row.src_end as usize]);
            }
        }
    });
    Ok(())
}

/// Streams one block's source values into its full-width bin slots:
/// `vals[k] = xseg[src_ids[k]]`.
///
/// When the block's active sources form a contiguous run (common in the
/// hub-dense front columns after relocation), the loop collapses to a
/// straight `copy_from_slice`. The general path is [`UNROLL`]-wide chunks
/// of independent unchecked loads feeding one contiguous store, plus a
/// checked scalar tail; copies are element-wise, so the unroll can never
/// change the stored values.
#[inline]
fn stream_block_full<V: PropValue>(blk: &Block, xseg: &[V], vals: &mut [V]) {
    let ids = &blk.src_ids;
    debug_assert_eq!(vals.len(), ids.len());
    debug_assert!(ids.iter().all(|&s| (s as usize) < xseg.len()));
    let len = ids.len();
    // The skip lists name only blocks with at least one message slot.
    let (first, last) = (ids[0], ids[len - 1]);
    if (last - first) as usize + 1 == len {
        // `src_ids` is strictly ascending, so a span equal to the length
        // means every source in `first..=last` is present, in order.
        vals.copy_from_slice(&xseg[first as usize..first as usize + len]);
        return;
    }
    let mut k = 0;
    while k + UNROLL <= len {
        // SAFETY: `BlockedSubgraph` construction guarantees (and
        // `debug_validate` re-checks) that every `src_ids` entry is below
        // the block-row height, which is exactly `xseg.len()`;
        // `k + UNROLL <= len` keeps the id reads in bounds.
        let loaded: [V; UNROLL] = std::array::from_fn(|i| unsafe {
            *xseg.get_unchecked(*ids.get_unchecked(k + i) as usize) // width: UNROLL independent loads under the chunk bound k + UNROLL <= len
        });
        vals[k..k + UNROLL].copy_from_slice(&loaded);
        k += UNROLL;
    }
    for i in k..len {
        vals[i] = xseg[ids[i] as usize];
    }
}

/// [`stream_block_full`] for the 16-bit compressed representation: values
/// are encoded through the Scatter round's codec on the way into the
/// stream. No memcpy fast path exists across representations, so the
/// contiguous-run case goes through the same chunked encode. Encoding is
/// per-element, so the unroll cannot change the stored words.
#[inline]
fn stream_block_packed<V: PropValue>(blk: &Block, xseg: &[V], out: &mut [u16], codec: BinCodec) {
    let ids = &blk.src_ids;
    let len = ids.len();
    debug_assert_eq!(out.len(), len);
    debug_assert!(ids.iter().all(|&s| (s as usize) < xseg.len()));
    let mut k = 0;
    while k + UNROLL <= len {
        // SAFETY: same bounds proof as `stream_block_full` — validated
        // `src_ids` below `xseg.len()`, id reads under the chunk bound.
        let enc: [u16; UNROLL] = std::array::from_fn(|i| {
            codec.encode(
                unsafe { *xseg.get_unchecked(*ids.get_unchecked(k + i) as usize) } // SAFETY: ids validated below xseg.len(); width: UNROLL loads under the chunk bound k + UNROLL <= len
                    .to_stream_f32(),
            )
        });
        out[k..k + UNROLL].copy_from_slice(&enc);
        k += UNROLL;
    }
    for i in k..len {
        out[i] = codec.encode(xseg[ids[i] as usize].to_stream_f32());
    }
}

/// Gather + Apply step: drain the bins column-wise, combining into `y`
/// (which the caller pre-initializes — to the identity for plain GAS, or to
/// the static-bin contents for Mixen), then map every destination through
/// `finish(new_id, accumulated)` in the same parallel region.
///
/// `metrics`, if given, advances `edges_gathered` by the
/// subgraph's edge count (every compressed message fans out to all of its
/// destinations, so the drained-edge total per call is exact) and
/// `bin_bytes_streamed` by the compressed slot bytes drained — the counter
/// tracks bin traffic in *both* directions, see `obs.rs`.
pub fn gather_with<V, F>(
    blocked: &BlockedSubgraph,
    bins: &DynamicBins<V>,
    y: &mut [V],
    finish: F,
    metrics: Option<&Metrics>,
) where
    V: PropValue,
    F: Fn(NodeId, V) -> V + Sync,
{
    gather_weighted(blocked, &Unweighted, bins, y, finish, metrics);
}

/// [`gather_with`] under the engine's edge-weight parameter: every combine
/// is `y[d] ⊕= value ⊗ w(edge)`, which monomorphises to the plain combine
/// for [`Unweighted`].
pub(crate) fn gather_weighted<V, F, W>(
    blocked: &BlockedSubgraph,
    weights: &W,
    bins: &DynamicBins<V>,
    y: &mut [V],
    finish: F,
    metrics: Option<&Metrics>,
) where
    V: PropValue,
    F: Fn(NodeId, V) -> V + Sync,
    W: Weights,
{
    if let Some(m) = metrics {
        m.edges_gathered.add(blocked.nnz() as u64);
        m.bin_bytes_streamed
            .add((blocked.total_msg_slots() * bins.bytes_per_slot()) as u64);
    }
    let bin_tasks = bins.tasks();
    if bins.encoding().is_compressed() {
        let codec = bins.codec();
        gather_walk(blocked, weights, y, finish, |ti, j| PackedRead {
            data: bin_tasks[ti].packed_col(j),
            codec,
        });
    } else {
        gather_walk(blocked, weights, y, finish, |ti, j| {
            FullRead(bin_tasks[ti].col(j))
        });
    }
}

/// Where message `m` of a destination stream finds its streamed value: at
/// slot `m` itself (a full column walks `Block::dests`, one flag per slot)
/// or through a chunk stream's `slot_ids` (messages that miss the chunk
/// leave no flag). The only per-task-kind difference of the gather walk.
trait SlotMap: Copy {
    /// SAFETY: callers must keep `m` below the flag count of the stream(s)
    /// the map belongs to.
    unsafe fn slot(self, m: usize) -> usize;
}

#[derive(Clone, Copy)]
struct IdentitySlots;

impl SlotMap for IdentitySlots {
    // SAFETY: no memory access; the bound matters to `BinRead::get` only.
    #[inline(always)]
    unsafe fn slot(self, m: usize) -> usize {
        m
    }
}

impl SlotMap for &[u32] {
    // SAFETY: caller proves `m < self.len()` (the `SlotMap::slot` contract).
    #[inline(always)]
    unsafe fn slot(self, m: usize) -> usize {
        *self.get_unchecked(m) as usize // width: m < flag count == slot_ids.len(), the SlotMap::slot contract
    }
}

/// The gather task walk, generic over the bin representation (`mk(task,
/// col)` builds the stream reader) and the edge-weight parameter.
///
/// Work is scheduled over [`BlockedSubgraph::gather_tasks`]: one task per
/// block-column, except columns the §4.2 balancer chunked into destination
/// sub-ranges. Tasks tile `0..r` contiguously, so each owns a disjoint
/// `y` segment. Every task is the same flat pass ([`drain`]) over a flagged
/// destination stream — its blocks' own `dests`, or its chunk's cut of
/// them — and per destination the combine order is (block-rows ascending,
/// slots ascending) either way: results are bit-for-bit independent of the
/// split.
fn gather_walk<V, F, W, R, MK>(
    blocked: &BlockedSubgraph,
    weights: &W,
    y: &mut [V],
    finish: F,
    mk: MK,
) where
    V: PropValue,
    F: Fn(NodeId, V) -> V + Sync,
    W: Weights,
    R: BinRead<V>,
    MK: Fn(usize, usize) -> R + Sync,
{
    let rows = blocked.rows();
    let c = blocked.block_side();
    let tasks = blocked.gather_tasks();
    let mut segs: Vec<&mut [V]> = Vec::with_capacity(tasks.len());
    let mut rest = y;
    for t in tasks {
        let (seg, tail) = rest.split_at_mut(t.len());
        segs.push(seg);
        rest = tail;
    }
    let streams = blocked.chunk_streams();
    mixen_pool::par_parts_mut(&mut segs, |first, segs| {
        for (task, yseg) in (first..).zip(segs.iter_mut()) {
            let (t, chunk) = (&tasks[task], &streams[task]);
            let j = t.col as usize;
            let list = blocked.nonempty_rows(j);
            // A chunk's flag count runs across its blocks (it indexes
            // `slot_ids`); −1 so the first flag lands on message 0.
            let mut m = usize::MAX;
            for (bi, &ti) in list.iter().enumerate() {
                if let Some(&ta) = list.get(bi + PREFETCH_AHEAD) {
                    // Touch the bin stream drained next — the following
                    // dynamic-bin segment of this column walk.
                    prefetch_read(mk(ta as usize, j).base_ptr());
                }
                let ti = ti as usize;
                let (r, blk) = (mk(ti, j), &rows[ti].blocks[j]);
                debug_assert_eq!(r.len(), blk.msg_count());
                match chunk {
                    None => {
                        let w = weights.block(ti, j);
                        drain(&blk.dests, r, IdentitySlots, usize::MAX, w, 0, yseg);
                    }
                    Some(cs) => {
                        let (w, at) = (weights.chunk(task), cs.block_ptr[bi] as usize);
                        m = drain(cs.entries_of(bi), r, &*cs.slot_ids, m, w, at, yseg);
                    }
                }
            }
            let base = nid(j * c) + t.d_lo;
            for (d, yv) in yseg.iter_mut().enumerate() {
                *yv = finish(base + nid(d), *yv);
            }
        }
    });
}

/// Gather's one loop (§4.2): a flat pass over a flagged destination stream.
/// Each entry advances the message count by its flag bit, reads that
/// message's streamed value and combines it into the entry's destination —
/// no inner loop, no branch, stream order = slot order. `m` is the count
/// before the first entry (`usize::MAX`, i.e. −1, at a stream's start) and
/// the final count is returned; `w` is aligned with the array `stream` was
/// sliced from at `at`.
#[inline]
fn drain<V: PropValue, R: BinRead<V>, S: SlotMap>(
    stream: &[u32],
    r: R,
    slots: S,
    mut m: usize,
    w: impl WeightRun,
    at: usize,
    yseg: &mut [V],
) -> usize {
    for (i, &e) in stream.iter().enumerate() {
        m = m.wrapping_add(entry_step(e));
        // SAFETY: `debug_validate` proves the bounds. The first entry of a
        // block's stream (or chunk segment) is flagged, so `m` counts this
        // block's messages before any read; a block's flags equal its
        // message count (`r.len()`), and a chunk's flags equal its
        // `slot_ids`, each below its block's message count.
        let v = unsafe { r.get(slots.slot(m)) };
        // SAFETY: masked destinations are validated below the column width
        // (full column) or the task length (chunk) — `yseg.len()` either way.
        let y = unsafe { yseg.get_unchecked_mut(entry_dest(e) as usize) }; // width: masked destination < yseg.len(), validated per stream
        y.combine(w.scale(v, at + i));
    }
    m
}

/// One sparse BFS level over the blocked structure: merge-join the sorted
/// `frontier` against each block's `src_ids`, then relax destinations per
/// block-column with CAS claims on `depth`. Returns the (unsorted) next
/// frontier.
pub fn bfs_level_sparse(
    blocked: &BlockedSubgraph,
    depth: &[std::sync::atomic::AtomicI32],
    frontier: &[u32],
    level: i32,
) -> Vec<u32> {
    use std::sync::atomic::Ordering;
    let rows = blocked.rows();
    // Per row: positions of frontier sources per block-column. A row whose
    // frontier slice is empty contributes an empty outer Vec — no per-block
    // allocations at all; columns the row has no edges into stay `Vec::new`.
    let active: Vec<Vec<Vec<u32>>> = mixen_pool::par_parts(rows.len(), |part| {
        part.map(|t| {
            let row = &rows[t];
            let lo = frontier.partition_point(|&u| u < row.src_start);
            let hi = frontier.partition_point(|&u| u < row.src_end);
            if lo == hi {
                return Vec::new();
            }
            let local: Vec<u32> = frontier[lo..hi]
                .iter()
                .map(|&u| u - row.src_start)
                .collect();
            let mut acts = vec![Vec::new(); row.blocks.len()];
            for &j in row.nonempty_cols.iter() {
                acts[j as usize] = merge_positions(&row.blocks[j as usize].src_ids, &local);
            }
            acts
        })
        .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();
    mixen_pool::par_parts(blocked.n_col_blocks(), |part| {
        part.flat_map(|j| {
            let col_base = nid(j * blocked.block_side());
            let mut next = Vec::new();
            for &ti in blocked.nonempty_rows(j) {
                let acts = &active[ti as usize];
                if acts.is_empty() {
                    continue; // Row had no frontier sources this level.
                }
                let blk = &rows[ti as usize].blocks[j];
                for &k in &acts[j] {
                    for d in blk.dests_of(k as usize) {
                        let v = col_base + d;
                        if depth[v as usize]
                            // ordering: the depth claim only needs
                            // same-location atomicity — the next frontier is
                            // consumed after the pool scope completes, which
                            // orders every claim before any reader.
                            .compare_exchange(-1, level + 1, Ordering::Relaxed, Ordering::Relaxed)
                            .is_ok()
                        {
                            next.push(v);
                        }
                    }
                }
            }
            next
        })
        .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// One dense BFS level: walk every block, activating sources whose depth
/// equals `level`. Returns the (unsorted) next frontier.
pub fn bfs_level_dense(
    blocked: &BlockedSubgraph,
    depth: &[std::sync::atomic::AtomicI32],
    level: i32,
) -> Vec<u32> {
    use std::sync::atomic::Ordering;
    let rows = blocked.rows();
    mixen_pool::par_parts(blocked.n_col_blocks(), |part| {
        part.flat_map(|j| {
            let col_base = nid(j * blocked.block_side());
            let mut next = Vec::new();
            for &ti in blocked.nonempty_rows(j) {
                let row = &rows[ti as usize];
                let blk = &row.blocks[j];
                for (k, &src) in blk.src_ids.iter().enumerate() {
                    let u = row.src_start + src;
                    // ordering: depths at `level` were published by the
                    // previous level's pool scope; this level only claims
                    // unvisited slots, so plain atomicity suffices.
                    if depth[u as usize].load(Ordering::Relaxed) != level {
                        continue;
                    }
                    for d in blk.dests_of(k) {
                        let v = col_base + d;
                        if depth[v as usize]
                            // ordering: same claim protocol as the sparse
                            // level — the scope orders claims before readers.
                            .compare_exchange(-1, level + 1, Ordering::Relaxed, Ordering::Relaxed)
                            .is_ok()
                        {
                            next.push(v);
                        }
                    }
                }
            }
            next
        })
        .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Positions in `src_ids` whose value occurs in the sorted `active` list.
pub fn merge_positions(src_ids: &[u32], active: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < src_ids.len() && j < active.len() {
        match src_ids[i].cmp(&active[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(nid(i));
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MixenOpts;
    use mixen_graph::Csr;

    fn blocked(csr: &Csr, c: usize) -> BlockedSubgraph {
        BlockedSubgraph::new(
            csr,
            &MixenOpts {
                block_side: c,
                min_tasks_per_thread: 1,
                ..MixenOpts::default()
            },
            1,
        )
    }

    #[test]
    fn scatter_gather_computes_transpose_spmv() {
        // y = A^T x over a 6-node graph, c = 2.
        let csr = Csr::from_edges(6, &[(0, 3), (0, 4), (1, 0), (2, 0), (5, 5), (3, 1)]);
        let b = blocked(&csr, 2);
        let mut bins: DynamicBins<f32> = DynamicBins::new(&b);
        let mut x: Vec<f32> = (0..6).map(|i| (i + 1) as f32).collect();
        let mut y = vec![0.0f32; 6];
        try_scatter_with(&b, &mut x, &mut bins, None, None).unwrap();
        gather_with(&b, &bins, &mut y, |_, s| s, None);
        // In-sums: node 0 <- {1,2} = 2+3=5; 1 <- {3} = 4; 3 <- {0} = 1;
        // 4 <- {0} = 1; 5 <- {5} = 6.
        assert_eq!(y, vec![5.0, 4.0, 0.0, 1.0, 1.0, 6.0]);
        // x untouched without priming.
        assert_eq!(x, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn scatter_priming_overwrites_source_segments() {
        let csr = Csr::from_edges(4, &[(0, 1), (2, 3)]);
        let b = blocked(&csr, 2);
        let mut bins: DynamicBins<f32> = DynamicBins::new(&b);
        let mut x = vec![1.0f32, 2.0, 3.0, 4.0];
        let prime = vec![9.0f32, 8.0, 7.0, 6.0];
        try_scatter_with(&b, &mut x, &mut bins, Some(&prime), None).unwrap();
        assert_eq!(x, prime);
    }

    #[test]
    fn gather_finish_sees_new_ids() {
        let csr = Csr::from_edges(3, &[(0, 2)]);
        let b = blocked(&csr, 3);
        let mut bins: DynamicBins<f32> = DynamicBins::new(&b);
        let mut x = vec![5.0f32, 0.0, 0.0];
        let mut y = vec![0.0f32; 3];
        try_scatter_with(&b, &mut x, &mut bins, None, None).unwrap();
        gather_with(&b, &bins, &mut y, |v, s| s + v as f32 * 100.0, None);
        assert_eq!(y, vec![0.0, 100.0, 205.0]);
    }

    /// Reference `y = A^T x` combined serially from the CSR.
    fn spmv_reference(csr: &Csr, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0f32; csr.n_cols()];
        for (u, v) in csr.edges() {
            y[v as usize] += x[u as usize];
        }
        y
    }

    /// Runs one scatter+gather round under `opts` and returns `y`.
    fn spmv_under(csr: &Csr, opts: &MixenOpts, x: &[f32]) -> Vec<f32> {
        let b = BlockedSubgraph::new(csr, opts, 1);
        b.debug_validate(csr, opts).unwrap();
        let mut bins: DynamicBins<f32> = DynamicBins::new(&b);
        let mut xv = x.to_vec();
        let mut y = vec![0.0f32; csr.n_cols()];
        try_scatter_with(&b, &mut xv, &mut bins, None, None).unwrap();
        gather_with(&b, &bins, &mut y, |_, s| s, None);
        y
    }

    #[test]
    fn merge_positions_empty_inputs() {
        assert!(merge_positions(&[], &[]).is_empty());
        assert!(merge_positions(&[1, 2, 3], &[]).is_empty());
        assert!(merge_positions(&[], &[1, 2, 3]).is_empty());
    }

    #[test]
    fn merge_positions_all_match() {
        let ids = [2u32, 5, 9, 11];
        assert_eq!(merge_positions(&ids, &ids), vec![0, 1, 2, 3]);
    }

    #[test]
    fn merge_positions_is_duplicate_free_and_sorted() {
        // Active list with entries absent from src_ids, interleaved.
        let ids = [1u32, 4, 6, 7, 10];
        let active = [0u32, 4, 5, 7, 8, 10, 12];
        let got = merge_positions(&ids, &active);
        assert_eq!(got, vec![1, 3, 4]);
        let mut dedup = got.clone();
        dedup.dedup();
        assert_eq!(got, dedup, "positions must be strictly ascending");
    }

    #[test]
    fn scatter_gather_with_fully_empty_block_rows_and_columns() {
        // 12 nodes, c = 2: edges only touch the first and last block, so
        // block-rows 1..4 and block-columns 1..4 are completely empty.
        let csr = Csr::from_edges(12, &[(0, 1), (1, 0), (10, 11), (11, 10), (0, 11)]);
        let o = MixenOpts {
            block_side: 2,
            min_tasks_per_thread: 1,
            ..MixenOpts::default()
        };
        let b = BlockedSubgraph::new(&csr, &o, 1);
        b.debug_validate(&csr, &o).unwrap();
        // Middle rows/columns really are skipped.
        assert!(b.rows()[2].nonempty_cols.is_empty());
        assert!(b.nonempty_rows(2).is_empty());
        let x: Vec<f32> = (0..12).map(|i| (i + 1) as f32).collect();
        assert_eq!(spmv_under(&csr, &o, &x), spmv_reference(&csr, &x));
    }

    #[test]
    fn chunked_gather_columns_match_reference() {
        // Load one block-column far beyond the 2× cap so it gets chunked,
        // with in-edges spread over many destinations.
        let mut edges = Vec::new();
        for u in 0..32u32 {
            for d in 0..8u32 {
                edges.push((u, d)); // column block 0 holds 256 edges
            }
        }
        edges.push((0, 20));
        edges.push((9, 31));
        let csr = Csr::from_edges(32, &edges);
        let o = MixenOpts {
            block_side: 8,
            min_tasks_per_thread: 1,
            ..MixenOpts::default()
        };
        let b = BlockedSubgraph::new(&csr, &o, 1);
        b.debug_validate(&csr, &o).unwrap();
        assert!(
            b.split_stats().gather_splits > 0,
            "column 0 should have been chunked, stats: {:?}",
            b.split_stats()
        );
        let x: Vec<f32> = (0..32).map(|i| (i as f32 * 0.37).cos()).collect();
        assert_eq!(spmv_under(&csr, &o, &x), spmv_reference(&csr, &x));
    }

    /// The degenerate shapes of a flagged destination stream, each through
    /// the one walk at every encoding, bit-for-bit against a serial
    /// source-ascending sum of the streamed values.
    #[test]
    fn degenerate_destination_streams_match_the_serial_sum() {
        use crate::bins::{plan_codec, BinEncoding};
        use crate::block::MSG_START;
        let flags = |s: &[u32]| s.iter().map(|&e| entry_step(e)).sum::<usize>();
        type Shape = fn(&BlockedSubgraph);
        let ring: Vec<(u32, u32)> = (0..12u32).map(|u| (u, (u + 5) % 12)).collect();
        let mut fan: Vec<(u32, u32)> = (0..4u32).map(|d| (0, d)).collect();
        fan.push((5, 6));
        let ends = [(0, 1), (1, 0), (10, 11), (11, 10), (0, 11)];
        let fixtures: [(&str, Csr, usize, Shape); 5] = [
            ("every entry flagged", Csr::from_edges(12, &ring), 4, |b| {
                let blocks = b.rows().iter().flat_map(|row| row.blocks.iter());
                assert!(blocks
                    .flat_map(|blk| blk.dests.iter())
                    .all(|&e| e >= MSG_START));
            }),
            (
                "one flag for a whole column",
                Csr::from_edges(8, &fan),
                4,
                |b| {
                    let blk = &b.rows()[0].blocks[0];
                    assert_eq!((blk.nnz(), blk.msg_count()), (4, 1));
                    assert_eq!(*blk.dests, [MSG_START, 1, 2, 3]);
                },
            ),
            ("a chunk boundary cuts message runs", skewed_csr(), 8, |b| {
                // A tail chunk opens mid-run: its first entry is a message's
                // second-or-later destination, flagged all the same.
                let (t, cs) = b
                    .gather_tasks()
                    .iter()
                    .zip(b.chunk_streams())
                    .find_map(|(t, cs)| cs.as_ref().filter(|_| t.d_lo > 0).map(|cs| (t, cs)))
                    .expect("a tail chunk");
                let first = &b.rows()[b.nonempty_rows(0)[0] as usize].blocks[0];
                assert!(first.dests_of(cs.slot_ids[0] as usize).next().unwrap() < t.d_lo);
                assert_eq!(cs.entries[0], MSG_START);
            }),
            ("block side 1", skewed_csr(), 1, |b| {
                assert_eq!(b.n_col_blocks(), 32);
                assert!(b.chunk_streams().iter().all(Option::is_none));
            }),
            (
                "an empty middle column",
                Csr::from_edges(12, &ends),
                2,
                |b| {
                    assert!(b.nonempty_rows(2).is_empty());
                },
            ),
        ];
        for (name, csr, c, shape) in fixtures {
            let o = MixenOpts {
                block_side: c,
                min_tasks_per_thread: 1,
                ..MixenOpts::default()
            };
            let b = BlockedSubgraph::new(&csr, &o, 1);
            b.debug_validate(&csr, &o).unwrap();
            shape(&b);
            // Flags count messages, in blocks and in chunk streams alike.
            for blk in b.rows().iter().flat_map(|row| row.blocks.iter()) {
                assert_eq!(flags(&blk.dests), blk.msg_count(), "{name}");
            }
            for cs in b.chunk_streams().iter().flatten() {
                assert_eq!(flags(&cs.entries), cs.slot_ids.len(), "{name}");
            }
            let n = csr.n_rows();
            let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).cos()).collect();
            for enc in BinEncoding::ALL {
                let codec = plan_codec::<f32>(enc, &x).unwrap();
                let streamed: Vec<f32> = if enc.is_compressed() {
                    x.iter().map(|&v| codec.decode(codec.encode(v))).collect()
                } else {
                    x.clone()
                };
                let mut bins: DynamicBins<f32> = DynamicBins::with_encoding(&b, enc);
                let mut y = vec![0.0f32; n];
                try_scatter_with(&b, &mut x.clone(), &mut bins, None, None).unwrap();
                gather_with(&b, &bins, &mut y, |_, s| s, None);
                assert_eq!(y, spmv_reference(&csr, &streamed), "{name}, {}", enc.name());
            }
        }
    }

    #[test]
    fn bfs_sparse_skips_inactive_rows() {
        use std::sync::atomic::{AtomicI32, Ordering};
        // Path graph 0 -> 1 -> ... -> 11 with c = 2: each level activates
        // one row, every other row has an empty frontier slice.
        let edges: Vec<(u32, u32)> = (0..11u32).map(|u| (u, u + 1)).collect();
        let csr = Csr::from_edges(12, &edges);
        let b = blocked(&csr, 2);
        let depth: Vec<AtomicI32> = (0..12).map(|_| AtomicI32::new(-1)).collect();
        depth[0].store(0, Ordering::Relaxed);
        let mut frontier = vec![0u32];
        let mut level = 0;
        while !frontier.is_empty() {
            frontier = bfs_level_sparse(&b, &depth, &frontier, level);
            frontier.sort_unstable();
            level += 1;
        }
        let got: Vec<i32> = depth.iter().map(|d| d.load(Ordering::Relaxed)).collect();
        let want: Vec<i32> = (0..12).collect();
        assert_eq!(got, want);
    }

    /// A skewed fixture exercising both gather stream kinds (chunked hub
    /// column + full-column tasks) and the non-contiguous scatter path.
    fn skewed_csr() -> Csr {
        let mut edges = Vec::new();
        for u in 0..32u32 {
            for d in 0..8u32 {
                edges.push((u, d));
            }
        }
        for u in 0..32u32 {
            edges.push((u, (u * 7 + 3) % 32));
        }
        edges.push((0, 20));
        edges.push((9, 31));
        Csr::from_edges(32, &edges)
    }

    /// One compressed scatter+gather round; returns `y` or the budget error.
    fn spmv_encoded(
        csr: &Csr,
        enc: crate::bins::BinEncoding,
        x: &[f32],
    ) -> Result<Vec<f32>, mixen_graph::GraphError> {
        let o = MixenOpts {
            block_side: 8,
            min_tasks_per_thread: 1,
            ..MixenOpts::default()
        };
        let b = BlockedSubgraph::new(csr, &o, 1);
        let mut bins: DynamicBins<f32> = DynamicBins::with_encoding(&b, enc);
        assert_eq!(bins.encoding(), enc);
        assert_eq!(
            bins.bytes_per_slot(),
            if enc.is_compressed() { 2 } else { 4 }
        );
        let mut xv = x.to_vec();
        let mut y = vec![0.0f32; csr.n_cols()];
        try_scatter_with(&b, &mut xv, &mut bins, None, None)?;
        gather_with(&b, &bins, &mut y, |_, s| s, None);
        Ok(y)
    }

    #[test]
    fn compressed_encodings_stay_within_the_accuracy_budget() {
        let csr = skewed_csr();
        let x: Vec<f32> = (0..32).map(|i| (i as f32 * 0.37).cos()).collect();
        let exact = spmv_reference(&csr, &x);
        let max_mag = exact.iter().fold(0.0f64, |m, &v| m.max(v.abs() as f64));
        for enc in [crate::bins::BinEncoding::F16, crate::bins::BinEncoding::Q16] {
            let y = spmv_encoded(&csr, enc, &x).unwrap();
            // Per-message error is budget-bounded and each destination sums
            // a handful of messages, so the output agreement stays within a
            // small multiple of the budget relative to the output scale.
            let worst = exact
                .iter()
                .zip(&y)
                .map(|(&a, &b)| (a as f64 - b as f64).abs())
                .fold(0.0f64, f64::max);
            assert!(
                worst <= crate::bins::ACCURACY_BUDGET * max_mag.max(1.0) * 16.0,
                "{}: worst deviation {worst:.3e}",
                enc.name()
            );
        }
    }

    #[test]
    fn hostile_value_range_is_rejected_with_a_typed_numeric_error() {
        let csr = skewed_csr();
        // 1e30 overflows f16 to infinity -> round-trip error blows the budget.
        let mut x = vec![1.0f32; 32];
        x[7] = 1.0e30;
        let err = spmv_encoded(&csr, crate::bins::BinEncoding::F16, &x).unwrap_err();
        assert!(
            matches!(err, mixen_graph::GraphError::Numeric { .. }),
            "expected GraphError::Numeric, got {err:?}"
        );
        // Non-finite sources are rejected by every lossy encoding.
        x[7] = f32::NAN;
        for enc in [crate::bins::BinEncoding::F16, crate::bins::BinEncoding::Q16] {
            let err = spmv_encoded(&csr, enc, &x).unwrap_err();
            assert!(matches!(err, mixen_graph::GraphError::Numeric { .. }));
        }
    }

    #[test]
    fn compressed_bins_halve_streamed_bytes_in_metrics() {
        let csr = skewed_csr();
        let o = MixenOpts {
            block_side: 8,
            min_tasks_per_thread: 1,
            ..MixenOpts::default()
        };
        let b = BlockedSubgraph::new(&csr, &o, 1);
        let slots = b.total_msg_slots() as u64;
        let m = crate::obs::Metrics::default();
        let mut x: Vec<f32> = (0..32).map(|i| (i as f32 * 0.5).sin()).collect();
        let mut bins: DynamicBins<f32> =
            DynamicBins::with_encoding(&b, crate::bins::BinEncoding::Q16);
        let mut y = vec![0.0f32; 32];
        try_scatter_with(&b, &mut x, &mut bins, None, Some(&m)).unwrap();
        gather_with(&b, &bins, &mut y, |_, s| s, Some(&m));
        let snap = m.snapshot();
        assert_eq!(snap.get("bin_bytes_streamed"), slots * 2 * 2);
        assert_eq!(snap.get("bin_bytes_saved"), slots * 2);
    }

    #[test]
    fn unencodable_property_types_fall_back_to_full_width() {
        use mixen_graph::MinF32;
        let csr = skewed_csr();
        let o = MixenOpts {
            block_side: 8,
            min_tasks_per_thread: 1,
            ..MixenOpts::default()
        };
        let b = BlockedSubgraph::new(&csr, &o, 1);
        let bins: DynamicBins<MinF32> =
            DynamicBins::with_encoding(&b, crate::bins::BinEncoding::F16);
        assert_eq!(bins.encoding(), crate::bins::BinEncoding::F32);
        assert_eq!(bins.bytes_per_slot(), std::mem::size_of::<MinF32>());
    }
}
