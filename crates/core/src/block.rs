//! 2-D partitioning of the regular subgraph (§4.2).
//!
//! The `r × r` regular adjacency is cut into cache-sized blocks. Block-rows
//! (source ranges) are the parallel unit of the Scatter step; fixed-width
//! block-columns (destination ranges) are the parallel unit of the Gather
//! step. Each block stores a *compressed local CSR*:
//!
//! * `src_ids`  — local source indices with ≥ 1 edge into this block,
//! * `dest_ptr` — per-source offsets into `dests`,
//! * `dests`    — local destination indices, the first of each source's run
//!   flagged with [`MSG_START`].
//!
//! A dynamic bin streams exactly **one value per `src_ids` entry** per
//! iteration — the paper's edge-compression technique [Lakhotia et al.,
//! ATC'18]: messages from one source to many destinations inside a block
//! collapse into a single transmission. `dests` is the paper's §4.2 static
//! index stream: destination IDs stored once, the MSB marking *advance to
//! the next source value*, so Gather is one sequential pass over it and
//! never touches `dest_ptr`. `src_ids` feeds Scatter; `dest_ptr` stays for
//! the per-slot lookup of the sparse BFS frontier traversal
//! ([`Block::dests_of`]).
//!
//! Load balancing (§4.2): block-row heights start at the block side `c`,
//! but any row range whose edge count exceeds `OVERLOAD_FACTOR` (2) × the
//! average block-row load is split greedily, so the number of non-zeros per
//! scatter task stays bounded. The gather side is balanced the same way:
//! block-columns whose edge count exceeds the cap are chunked into several
//! [`GatherTask`]s over disjoint destination sub-ranges, each with its own
//! flagged stream ([`ChunkStream`]).
//!
//! Skew also leaves many `(row, col)` blocks completely empty — in a
//! power-law graph most of the edge mass concentrates in the hub columns.
//! The partition therefore precomputes *nonempty-block skip lists*: per
//! block-row the column indices with at least one edge
//! ([`BlockRow::nonempty_cols`]), and per block-column the row indices with
//! at least one edge ([`BlockedSubgraph::nonempty_rows`]). Scatter, Gather
//! and both BFS level kernels iterate the lists instead of the full grid,
//! so empty blocks cost nothing per iteration.

use mixen_graph::nid;
use mixen_graph::{Csr, GraphError, NodeId};

use crate::MixenOpts;

/// What the block builder cuts blocks from: `r` rows of regular
/// destinations (new IDs below `r`), each ascending, with exact lengths up
/// front — the row split decides the combine order, so the score bits. A
/// [`Csr`] is one (the rows are stored); `FilteredGraph::regular_rows` is
/// the other (the rows are read from the out-CSR through `perm`, DESIGN.md
/// DR-17).
pub trait RowSource: Sync {
    /// Row pointers, `r + 1` of them: row `u` holds `ptr[u + 1] - ptr[u]`
    /// destinations.
    fn ptr(&self) -> &[usize];

    /// The destinations of row `u`, ascending. `scratch` is the caller's,
    /// reused from row to row.
    fn row<'s>(&'s self, u: NodeId, scratch: &'s mut Vec<NodeId>) -> &'s [NodeId];
}

impl RowSource for Csr {
    fn ptr(&self) -> &[usize] {
        assert_eq!(self.n_rows(), self.n_cols(), "regular CSR must be square");
        Csr::ptr(self)
    }

    fn row<'s>(&'s self, u: NodeId, _scratch: &'s mut Vec<NodeId>) -> &'s [NodeId] {
        self.neighbors(u)
    }
}

/// §4.2: a task is overloaded when it holds more than this multiple of the
/// average task's edges; the paper fixes 2× and so does this crate.
const OVERLOAD_FACTOR: f64 = 2.0;

/// Bit 31 of a destination-stream entry: set on the first destination of
/// each message, telling Gather to advance to the next streamed value. The
/// low 31 bits are the local destination, so a block side is at most
/// [`MixenOpts::MAX_BLOCK_SIDE`].
pub const MSG_START: u32 = 1 << 31;

/// The local destination of a stream entry (flag masked off).
#[inline(always)]
pub fn entry_dest(e: u32) -> u32 {
    e & !MSG_START
}

/// 1 for an entry that opens a message, else 0: Gather's message-count step.
#[inline(always)]
pub fn entry_step(e: u32) -> usize {
    (e >> 31) as usize
}

/// The §4.2 edge cap for `parts` tasks sharing `total_nnz` edges.
fn balance_cap(total_nnz: usize, parts: usize) -> usize {
    let avg = (total_nnz as f64 / parts as f64).max(1.0);
    // lint: allow(truncation) reason=guarded: positive finite f64 cap far below 2^53
    (OVERLOAD_FACTOR * avg).ceil() as usize
}

/// One cache-sized block: the edges from a source row range into one
/// destination column range, in compressed-local-CSR form.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Block {
    /// Local source indices (ascending) that own at least one edge here.
    pub src_ids: Box<[u32]>,
    /// Offsets into `dests`; length `src_ids.len() + 1`.
    pub dest_ptr: Box<[u32]>,
    /// Local destination indices, grouped by source, [`MSG_START`] set on
    /// the first of each group. Read single runs through [`Block::dests_of`].
    pub dests: Box<[u32]>,
}

impl Block {
    /// Number of edges stored in the block.
    pub fn nnz(&self) -> usize {
        self.dests.len()
    }

    /// Number of values a dynamic bin streams for this block per iteration
    /// (the compressed message count).
    pub fn msg_count(&self) -> usize {
        self.src_ids.len()
    }

    /// The destinations of the `k`-th active source (ascending), flag bit
    /// masked off.
    #[inline]
    pub fn dests_of(&self, k: usize) -> impl Iterator<Item = u32> + '_ {
        self.dests[self.dest_ptr[k] as usize..self.dest_ptr[k + 1] as usize]
            .iter()
            .map(|&e| entry_dest(e))
    }
}

/// A load-balanced block-row: one scatter task.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockRow {
    /// Source node range (new IDs within the regular subgraph).
    pub src_start: u32,
    /// Exclusive end of the source range.
    pub src_end: u32,
    /// One block per block-column.
    pub blocks: Vec<Block>,
    /// Total edges in this row range.
    pub nnz: usize,
    /// Skip list: indices of block-columns with at least one edge here
    /// (ascending).
    pub nonempty_cols: Box<[u32]>,
}

/// One gather task: a block-column (or, when the column is overloaded, one
/// destination sub-range of it). Tasks tile `0..r` contiguously in
/// `(col, d_lo)` order, so each owns a disjoint destination segment of the
/// accumulator — the no-atomics contract of the Gather step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GatherTask {
    /// Block-column index.
    pub col: u32,
    /// Local destination range start within the column (inclusive).
    pub d_lo: u32,
    /// Local destination range end within the column (exclusive).
    pub d_hi: u32,
    /// Edges this task drains per iteration.
    pub nnz: usize,
}

impl GatherTask {
    /// Destinations this task owns.
    pub fn len(&self) -> usize {
        (self.d_hi - self.d_lo) as usize
    }

    /// Whether the destination range is empty (only on an empty subgraph).
    pub fn is_empty(&self) -> bool {
        self.d_hi == self.d_lo
    }

    /// Whether the task spans its whole block-column of `width`
    /// destinations — the fast path that needs no range filtering.
    #[inline]
    pub fn is_full_column(&self, width: usize) -> bool {
        self.d_lo == 0 && self.d_hi as usize == width
    }
}

/// The destination stream of one *chunked* gather task, built once at
/// partition time: the task's share of its column's [`Block::dests`], block
/// after block in [`BlockedSubgraph::nonempty_rows`] order, with destinations
/// made task-local (`d − d_lo`) and [`MSG_START`] on each message's first
/// in-range destination. A message that misses the chunk leaves no entry,
/// so the flag count no longer equals the slot number; `slot_ids` names the
/// block-local message slot of every flagged entry instead.
///
/// A chunk streams `4 bytes × own edges + 4 bytes × (message, chunk)
/// incidences`, proportional to the work it owns, and per destination the
/// contributions keep the full-column order (block-row ascending, slot
/// ascending) — chunked and unchunked gathers are bit-for-bit identical.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChunkStream {
    /// Offsets into `entries`, parallel to the column's skip list (`+ 1`).
    pub block_ptr: Box<[u32]>,
    /// Flagged task-local destinations, one per edge. A weighted engine
    /// aligns its chunk weights with this array.
    pub entries: Box<[u32]>,
    /// Per flagged entry, in stream order: the message slot (streamed-bin
    /// value index) within its block.
    pub slot_ids: Box<[u32]>,
}

impl ChunkStream {
    /// The entries of the `bi`-th nonempty block-row of the task's column
    /// (`slot_ids` follows the same walk: one running flag count per task).
    #[inline]
    pub fn entries_of(&self, bi: usize) -> &[u32] {
        &self.entries[self.block_ptr[bi] as usize..self.block_ptr[bi + 1] as usize]
    }
}

/// How the §4.2 nnz-proportional split shaped the task lists — the
/// engine-metadata view surfaced as the `tasks_split` / `max_task_nnz`
/// observability counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SplitStats {
    /// Scatter tasks (load-balanced block-rows).
    pub scatter_tasks: usize,
    /// Extra scatter tasks beyond the fixed-height base grid — how many
    /// subdivisions the 2×-average nnz cap forced.
    pub scatter_splits: usize,
    /// Gather tasks (block-columns, possibly chunked).
    pub gather_tasks: usize,
    /// Extra gather tasks beyond one-per-column.
    pub gather_splits: usize,
    /// Heaviest scatter task, in edges.
    pub max_scatter_task_nnz: usize,
    /// Heaviest gather task, in edges.
    pub max_gather_task_nnz: usize,
}

impl SplitStats {
    /// Total subdivisions the balancer performed on either side.
    pub fn tasks_split(&self) -> u64 {
        (self.scatter_splits + self.gather_splits) as u64
    }

    /// Heaviest task on either side, in edges — the straggler bound.
    pub fn max_task_nnz(&self) -> u64 {
        self.max_scatter_task_nnz.max(self.max_gather_task_nnz) as u64
    }
}

/// The blocked regular subgraph.
#[derive(Clone, Debug)]
pub struct BlockedSubgraph {
    r: usize,
    c: usize,
    /// End of the pinned hub domain (`0..hub_end`; 0 = no domain).
    hub_end: usize,
    n_col_blocks: usize,
    rows: Vec<BlockRow>,
    /// Skip list per block-column: indices of block-rows with at least one
    /// edge there (ascending). Mirrors [`BlockRow::nonempty_cols`].
    nonempty_rows: Vec<Box<[u32]>>,
    /// Load-balanced gather task list tiling `0..r` in destination order.
    gather_tasks: Vec<GatherTask>,
    /// Per gather task: `Some` iff the task is a chunk of its column
    /// (full-column tasks walk their blocks' `dests` directly).
    chunk_streams: Vec<Option<ChunkStream>>,
    split_stats: SplitStats,
}

impl BlockedSubgraph {
    /// Partitions the `r × r` regular subgraph `source` (a square [`Csr`], or
    /// `FilteredGraph::regular_rows`) according to `opts`, using `threads`
    /// to pick the effective block side (§6.4). No hub domain:
    /// [`BlockedSubgraph::with_hub_domain`] with `num_hub = 0`.
    pub fn new(source: &impl RowSource, opts: &MixenOpts, threads: usize) -> Self {
        Self::with_hub_domain(source, opts, threads, 0)
    }

    /// Partitions `source` treating the hub prefix `0..num_hub` as a
    /// GRASP-style pinned cache domain: the block side is sized to the
    /// budget left after the hub working set
    /// ([`MixenOpts::effective_block_side_domain`]), and scatter block-rows
    /// are split at the domain boundary and at half the balance cap inside
    /// it, so the hub domain's (heaviest) tasks land on mixen-pool lanes
    /// first and spread across all of them. Each block-row task reads its
    /// rows from `source` into a scratch row of its own, so the blocks are
    /// the same whatever the source.
    pub fn with_hub_domain(
        source: &impl RowSource,
        opts: &MixenOpts,
        threads: usize,
        num_hub: usize,
    ) -> Self {
        let ptr = source.ptr();
        let r = ptr.len() - 1;
        let hub_end = num_hub.min(r);
        let c = opts.effective_block_side_domain(r, hub_end, threads);
        assert!(
            c <= MixenOpts::MAX_BLOCK_SIDE,
            "block side {c} leaves no room for the message-start flag in bit 31"
        );
        let n_col_blocks = if r == 0 { 0 } else { r.div_ceil(c) };

        // Row ranges: start from fixed height c, split overloaded ranges,
        // then refine the hub domain.
        let ranges = plan_row_ranges(ptr, c, opts, hub_end);

        let rows: Vec<BlockRow> = mixen_pool::par_parts(ranges.len(), |part| {
            let mut scratch = Vec::new();
            ranges[part]
                .iter()
                .map(|&(lo, hi)| build_block_row(source, lo, hi, c, n_col_blocks, &mut scratch))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();

        // Column-side skip lists, mirroring the per-row lists.
        let nonempty_rows: Vec<Box<[u32]>> = mixen_pool::par_parts(n_col_blocks, |part| {
            part.map(|j| {
                rows.iter()
                    .enumerate()
                    .filter(|(_, row)| row.blocks[j].msg_count() > 0)
                    .map(|(t, _)| nid(t))
                    .collect::<Vec<u32>>()
                    .into_boxed_slice()
            })
            .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();

        let gather_tasks = plan_gather_tasks(&rows, r, c, n_col_blocks);
        let chunk_streams = build_chunk_streams(&rows, &nonempty_rows, &gather_tasks, r, c);

        let base_rows = if r == 0 { 0 } else { r.div_ceil(c) };
        let split_stats = SplitStats {
            scatter_tasks: rows.len(),
            scatter_splits: rows.len() - base_rows,
            gather_tasks: gather_tasks.len(),
            gather_splits: gather_tasks.len() - n_col_blocks,
            max_scatter_task_nnz: rows.iter().map(|row| row.nnz).max().unwrap_or(0),
            max_gather_task_nnz: gather_tasks.iter().map(|t| t.nnz).max().unwrap_or(0),
        };

        Self {
            r,
            c,
            hub_end,
            n_col_blocks,
            rows,
            nonempty_rows,
            gather_tasks,
            chunk_streams,
            split_stats,
        }
    }

    /// End of the pinned hub domain (`0` when no domain was declared).
    pub fn hub_domain(&self) -> usize {
        self.hub_end
    }

    /// Regular node count.
    pub fn r(&self) -> usize {
        self.r
    }

    /// Effective block side in nodes.
    pub fn block_side(&self) -> usize {
        self.c
    }

    /// Number of block-columns (gather tasks).
    pub fn n_col_blocks(&self) -> usize {
        self.n_col_blocks
    }

    /// The destination node range of block-column `j`.
    pub fn col_range(&self, j: usize) -> std::ops::Range<usize> {
        let lo = j * self.c;
        lo..((lo + self.c).min(self.r))
    }

    /// Block-rows (scatter tasks).
    pub fn rows(&self) -> &[BlockRow] {
        &self.rows
    }

    /// Skip list of block-column `j`: indices of block-rows whose block
    /// `(row, j)` holds at least one edge, ascending.
    #[inline]
    pub fn nonempty_rows(&self, j: usize) -> &[u32] {
        &self.nonempty_rows[j]
    }

    /// Load-balanced gather tasks, tiling `0..r` in destination order. One
    /// per block-column, except columns whose edge count exceeds the
    /// balance cap, which are chunked into several destination sub-ranges.
    pub fn gather_tasks(&self) -> &[GatherTask] {
        &self.gather_tasks
    }

    /// Per-task destination streams, parallel to [`gather_tasks`] (`Some`
    /// exactly for chunk tasks; a full-column task's stream is its blocks'
    /// `dests`).
    ///
    /// [`gather_tasks`]: Self::gather_tasks
    pub fn chunk_streams(&self) -> &[Option<ChunkStream>] {
        &self.chunk_streams
    }

    /// How the §4.2 nnz-proportional split shaped the task lists.
    pub fn split_stats(&self) -> SplitStats {
        self.split_stats
    }

    /// Total edges across all blocks (must equal the regular subgraph nnz).
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(|row| row.nnz).sum()
    }

    /// Total compressed message slots (the per-iteration dynamic-bin value
    /// traffic, in values).
    pub fn total_msg_slots(&self) -> usize {
        self.rows
            .iter()
            .flat_map(|row| row.blocks.iter())
            .map(Block::msg_count)
            .sum()
    }

    /// Deep structural validation of the 2-D partition (§4.2) against the
    /// row pointers and options it was built from (for the engine: the
    /// regular degrees counted from the out-CSR through `perm`,
    /// `FilteredGraph::regular_rows`): row ranges tile `0..r` contiguously,
    /// every block's local-CSR metadata is well-formed and in-bounds,
    /// per-range edge counts match the source, and — when load balancing is
    /// on — no multi-node range exceeds the balance cap. It does not compare
    /// the blocks' entries with the rows; the tests do, against rows
    /// extracted without the builder. Engine construction runs it in debug
    /// builds; tests call it directly.
    pub fn debug_validate(
        &self,
        source: &impl RowSource,
        opts: &MixenOpts,
    ) -> Result<(), GraphError> {
        let invariant = |msg: String| Err(GraphError::Invariant(msg));
        let ptr = source.ptr();
        let nnz = ptr[ptr.len() - 1];
        if ptr.len() != self.r + 1 {
            return invariant(format!(
                "blocked over {} rows but the source has {}",
                self.r,
                ptr.len() - 1
            ));
        }
        let expected_cols = if self.r == 0 {
            0
        } else {
            self.r.div_ceil(self.c)
        };
        if self.n_col_blocks != expected_cols {
            return invariant(format!(
                "{} column blocks for r = {} and c = {}, expected {expected_cols}",
                self.n_col_blocks, self.r, self.c
            ));
        }
        // Row ranges tile 0..r contiguously.
        let mut expected_start = 0u32;
        for (t, row) in self.rows.iter().enumerate() {
            if row.src_start != expected_start || row.src_end <= row.src_start {
                return invariant(format!(
                    "row range {t} is {}..{}, expected to start at {expected_start}",
                    row.src_start, row.src_end
                ));
            }
            expected_start = row.src_end;
            let height = (row.src_end - row.src_start) as usize;
            if row.blocks.len() != self.n_col_blocks {
                return invariant(format!(
                    "row range {t} has {} blocks, expected {}",
                    row.blocks.len(),
                    self.n_col_blocks
                ));
            }
            let mut row_nnz = 0usize;
            for (j, blk) in row.blocks.iter().enumerate() {
                let width = self.col_range(j).len();
                if blk.dest_ptr.len() != blk.src_ids.len() + 1
                    || blk.dest_ptr.first().copied().unwrap_or(0) != 0
                    || blk.dest_ptr.last().copied().unwrap_or(0) as usize != blk.dests.len()
                    || blk.dest_ptr.windows(2).any(|w| w[0] > w[1])
                {
                    return invariant(format!("block ({t},{j}) has malformed dest_ptr metadata"));
                }
                if blk.src_ids.windows(2).any(|w| w[0] >= w[1])
                    || blk.src_ids.iter().any(|&s| s as usize >= height)
                {
                    return invariant(format!(
                        "block ({t},{j}) src_ids not strictly ascending within 0..{height}"
                    ));
                }
                if blk.dests.iter().any(|&e| entry_dest(e) as usize >= width) {
                    return invariant(format!(
                        "block ({t},{j}) has a local destination out of 0..{width}"
                    ));
                }
                // Gather counts messages off the flags alone: they must sit
                // on the run starts and nowhere else.
                let flagged = (0..blk.nnz()).filter(|&p| entry_step(blk.dests[p]) == 1);
                let starts = blk.dest_ptr[..blk.msg_count()].iter();
                if !flagged.eq(starts.map(|&p| p as usize)) {
                    return invariant(format!(
                        "block ({t},{j}) message-start flags are not exactly its run starts"
                    ));
                }
                // Sorted per-source destination runs are what lets the
                // chunk-stream builder slice each run into per-task
                // contiguous sub-runs.
                for k in 0..blk.msg_count() {
                    if !blk.dests_of(k).is_sorted() {
                        return invariant(format!(
                            "block ({t},{j}) destination run for source slot {k} is not sorted"
                        ));
                    }
                }
                row_nnz += blk.nnz();
            }
            let Some(&end) = ptr.get(row.src_end as usize) else {
                return invariant(format!("row range {t} ends past {}", self.r));
            };
            let csr_nnz = end - ptr[row.src_start as usize];
            if row_nnz != row.nnz || row_nnz != csr_nnz {
                return invariant(format!(
                    "row range {t} stores {row_nnz} edges, metadata says {}, the source says {csr_nnz}",
                    row.nnz
                ));
            }
        }
        if expected_start as usize != self.r {
            return invariant(format!(
                "row ranges cover 0..{expected_start}, expected 0..{}",
                self.r
            ));
        }
        // Load-balance cap (§4.2): recompute the cap exactly as planning did.
        if opts.load_balance && !self.rows.is_empty() {
            let cap = balance_cap(nnz, self.r.div_ceil(self.c));
            for (t, row) in self.rows.iter().enumerate() {
                if row.src_end - row.src_start > 1 && row.nnz > cap {
                    return invariant(format!(
                        "row range {t} holds {} edges, above the balance cap {cap}",
                        row.nnz
                    ));
                }
            }
        }
        // Skip lists must name exactly the nonempty blocks.
        for (t, row) in self.rows.iter().enumerate() {
            let expected: Vec<u32> = row
                .blocks
                .iter()
                .enumerate()
                .filter(|(_, blk)| blk.msg_count() > 0)
                .map(|(j, _)| nid(j))
                .collect();
            if row.nonempty_cols.as_ref() != expected.as_slice() {
                return invariant(format!(
                    "row range {t} skip list {:?} disagrees with its blocks (expected {:?})",
                    row.nonempty_cols, expected
                ));
            }
        }
        if self.nonempty_rows.len() != self.n_col_blocks {
            return invariant(format!(
                "{} column skip lists for {} column blocks",
                self.nonempty_rows.len(),
                self.n_col_blocks
            ));
        }
        for (j, list) in self.nonempty_rows.iter().enumerate() {
            let expected: Vec<u32> = self
                .rows
                .iter()
                .enumerate()
                .filter(|(_, row)| row.blocks[j].msg_count() > 0)
                .map(|(t, _)| nid(t))
                .collect();
            if list.as_ref() != expected.as_slice() {
                return invariant(format!(
                    "column {j} skip list {list:?} disagrees with its blocks (expected {expected:?})"
                ));
            }
        }
        // Gather tasks tile every column's destination range contiguously,
        // account for every edge, and respect the balance cap.
        let mut idx = 0usize;
        for j in 0..self.n_col_blocks {
            let width = self.col_range(j).len();
            let col_nnz: usize = self.rows.iter().map(|row| row.blocks[j].nnz()).sum();
            let mut covered = 0u32;
            let mut task_nnz = 0usize;
            while idx < self.gather_tasks.len() && self.gather_tasks[idx].col as usize == j {
                let t = self.gather_tasks[idx];
                idx += 1;
                if t.d_lo != covered || t.d_hi <= t.d_lo || t.d_hi as usize > width {
                    return invariant(format!(
                        "gather task over column {j} spans {}..{}, expected to start at {covered} within 0..{width}",
                        t.d_lo, t.d_hi
                    ));
                }
                covered = t.d_hi;
                task_nnz += t.nnz;
            }
            if covered as usize != width {
                return invariant(format!(
                    "gather tasks cover 0..{covered} of column {j}, expected 0..{width}"
                ));
            }
            if task_nnz != col_nnz {
                return invariant(format!(
                    "gather tasks over column {j} account for {task_nnz} edges, blocks hold {col_nnz}"
                ));
            }
        }
        if idx != self.gather_tasks.len() {
            return invariant("gather task list has tasks beyond the last column".into());
        }
        if self.n_col_blocks > 0 {
            let cap = balance_cap(nnz, self.n_col_blocks);
            for t in &self.gather_tasks {
                if t.d_hi - t.d_lo > 1 && t.nnz > cap {
                    return invariant(format!(
                        "gather task over column {} holds {} edges, above the balance cap {cap}",
                        t.col, t.nnz
                    ));
                }
            }
        }
        // Chunk streams: the gather loop indexes `y`, `slot_ids` and the bin
        // streams unchecked off them, so prove every bound it trusts, then
        // that the content is the blocks' (a rebuild compares equal).
        let (rows, tasks) = (&self.rows, &self.gather_tasks);
        let expected = build_chunk_streams(rows, &self.nonempty_rows, tasks, self.r, self.c);
        if self.chunk_streams.len() != tasks.len() {
            return invariant(format!(
                "{} chunk streams for {} gather tasks",
                self.chunk_streams.len(),
                tasks.len()
            ));
        }
        for (ti, (got, want)) in self.chunk_streams.iter().zip(&expected).enumerate() {
            let (t, j) = (&tasks[ti], tasks[ti].col as usize);
            let blocks = self.nonempty_rows[j]
                .iter()
                .map(|&row| &rows[row as usize].blocks[j]);
            if let Some(Err(why)) = got.as_ref().map(|cs| check_chunk_stream(cs, t, blocks)) {
                return invariant(format!("chunk stream of gather task {ti}: {why}"));
            }
            if got != want {
                return invariant(format!(
                    "chunk stream of gather task {ti} disagrees with a rebuild from its blocks"
                ));
            }
        }
        Ok(())
    }
}

/// The bounds the gather loop trusts of one chunk stream, `blocks` being the
/// task's column in skip-list order: segments tile `entries`, each opens
/// with a flag, every flag has a slot id, slot ids ascend strictly below the
/// block's message count, destinations stay inside the task.
fn check_chunk_stream<'a>(
    cs: &ChunkStream,
    t: &GatherTask,
    blocks: impl ExactSizeIterator<Item = &'a Block>,
) -> Result<(), String> {
    if cs.block_ptr.len() != blocks.len() + 1
        || cs.block_ptr[0] != 0
        || cs.block_ptr[blocks.len()] as usize != cs.entries.len()
        || cs.block_ptr.windows(2).any(|w| w[0] > w[1])
    {
        return Err("malformed block_ptr".into());
    }
    if cs.entries.len() != t.nnz {
        return Err(format!("{} entries for {} edges", cs.entries.len(), t.nnz));
    }
    let outside = |&e: &u32| entry_dest(e) as usize >= t.len();
    if cs.entries.iter().any(outside) {
        return Err(format!("a destination out of 0..{}", t.len()));
    }
    let mut m = 0usize;
    for (bi, blk) in blocks.enumerate() {
        let seg = cs.entries_of(bi);
        if seg.first().is_some_and(|&e| entry_step(e) == 0) {
            return Err(format!("segment {bi} opens without a flag"));
        }
        let flags: usize = seg.iter().map(|&e| entry_step(e)).sum();
        let Some(ids) = cs.slot_ids.get(m..m + flags) else {
            return Err(format!("segment {bi} has more flags than slot ids"));
        };
        if ids.windows(2).any(|w| w[0] >= w[1])
            || ids.last().is_some_and(|&k| k as usize >= blk.msg_count())
        {
            return Err(format!(
                "segment {bi} slot ids not strictly ascending below its block's messages"
            ));
        }
        m += flags;
    }
    if m != cs.slot_ids.len() {
        return Err(format!("{m} flags for {} slot ids", cs.slot_ids.len()));
    }
    Ok(())
}

/// Greedy row-range planning with the 2× overload split, plus the GRASP
/// hub-domain refinement: ranges straddling `hub_end` are cut at the domain
/// boundary, and ranges inside the domain are re-split at half the balance
/// cap, so the pinned domain's tasks are both isolated and fine-grained
/// enough to spread across every mixen-pool lane at dispatch time (they sit
/// at the head of the task list).
fn plan_row_ranges(ptr: &[usize], c: usize, opts: &MixenOpts, hub_end: usize) -> Vec<(u32, u32)> {
    let r = ptr.len() - 1;
    if r == 0 {
        return Vec::new();
    }
    let base: Vec<(u32, u32)> = (0..r.div_ceil(c))
        .map(|i| (nid(i * c), nid(((i + 1) * c).min(r))))
        .collect();
    if !opts.load_balance {
        return base;
    }
    let cap = balance_cap(ptr[r], base.len());
    // Split `(lo, hi)` greedily so no multi-node piece exceeds `limit` (a
    // single huge row still forms its own range — it cannot be split
    // without breaking bin disjointness).
    let split_at = |lo: u32, hi: u32, limit: usize, out: &mut Vec<(u32, u32)>| {
        let range_nnz = ptr[hi as usize] - ptr[lo as usize];
        if range_nnz <= limit {
            out.push((lo, hi));
            return;
        }
        let mut start = lo;
        let mut acc = 0usize;
        for u in lo..hi {
            let deg = ptr[u as usize + 1] - ptr[u as usize];
            if acc > 0 && acc + deg > limit {
                out.push((start, u));
                start = u;
                acc = 0;
            }
            acc += deg;
        }
        if start < hi {
            out.push((start, hi));
        }
    };
    let hub_cap = (cap / 2).max(1);
    let mut out = Vec::with_capacity(base.len());
    for (lo, hi) in base {
        if (lo as usize) >= hub_end {
            split_at(lo, hi, cap, &mut out);
        } else if (hi as usize) <= hub_end {
            split_at(lo, hi, hub_cap, &mut out);
        } else {
            // Straddles the domain boundary: cut there first.
            split_at(lo, nid(hub_end), hub_cap, &mut out);
            split_at(nid(hub_end), hi, cap, &mut out);
        }
    }
    out
}

/// Builds the per-column blocks of one row range in a single pass over the
/// rows, each read from `rows` into `scratch` (rows are ascending, so each
/// contributes one ascending run per touched column block).
fn build_block_row(
    rows: &impl RowSource,
    lo: u32,
    hi: u32,
    c: usize,
    n_col_blocks: usize,
    scratch: &mut Vec<NodeId>,
) -> BlockRow {
    struct Builder {
        src_ids: Vec<u32>,
        dest_ptr: Vec<u32>,
        dests: Vec<u32>,
    }
    let mut builders: Vec<Builder> = (0..n_col_blocks)
        .map(|_| Builder {
            src_ids: Vec::new(),
            dest_ptr: vec![0],
            dests: Vec::new(),
        })
        .collect();
    let mut nnz = 0usize;
    for u in lo..hi {
        let local_src = u - lo;
        let neigh = rows.row(u, scratch);
        nnz += neigh.len();
        let mut k = 0usize;
        while k < neigh.len() {
            let j = neigh[k] as usize / c;
            let col_base = nid(j * c);
            let b = &mut builders[j];
            b.src_ids.push(local_src);
            let start = b.dests.len();
            while k < neigh.len() && (neigh[k] as usize) / c == j {
                b.dests.push(neigh[k] - col_base);
                k += 1;
            }
            b.dests[start] |= MSG_START;
            b.dest_ptr.push(nid(b.dests.len()));
        }
    }
    let blocks: Vec<Block> = builders
        .into_iter()
        .map(|b| Block {
            src_ids: b.src_ids.into_boxed_slice(),
            dest_ptr: b.dest_ptr.into_boxed_slice(),
            dests: b.dests.into_boxed_slice(),
        })
        .collect();
    let nonempty_cols: Box<[u32]> = blocks
        .iter()
        .enumerate()
        .filter(|(_, blk)| blk.msg_count() > 0)
        .map(|(j, _)| nid(j))
        .collect::<Vec<u32>>()
        .into_boxed_slice();
    BlockRow {
        src_start: lo,
        src_end: hi,
        blocks,
        nnz,
        nonempty_cols,
    }
}

/// Plans the gather task list: one task per block-column, except columns
/// whose edge count exceeds `OVERLOAD_FACTOR` (2) × the average column load —
/// those are chunked greedily at the cap along the per-destination in-edge
/// counts, mirroring the scatter-side row split (§4.2).
fn plan_gather_tasks(
    rows: &[BlockRow],
    r: usize,
    c: usize,
    n_col_blocks: usize,
) -> Vec<GatherTask> {
    if n_col_blocks == 0 {
        return Vec::new();
    }
    let col_nnz: Vec<usize> = mixen_pool::par_parts(n_col_blocks, |part| {
        part.map(|j| rows.iter().map(|row| row.blocks[j].nnz()).sum())
            .collect::<Vec<usize>>()
    })
    .into_iter()
    .flatten()
    .collect();
    let cap = balance_cap(col_nnz.iter().sum(), n_col_blocks);
    let mut tasks = Vec::with_capacity(n_col_blocks);
    for (j, &nnz) in col_nnz.iter().enumerate() {
        let lo = j * c;
        let width = nid(((lo + c).min(r)) - lo);
        if nnz <= cap || width <= 1 {
            tasks.push(GatherTask {
                col: nid(j),
                d_lo: 0,
                d_hi: width,
                nnz,
            });
            continue;
        }
        // Per-destination in-edge counts within this column, then the same
        // greedy at-the-cap split as the row planner (a single overloaded
        // destination still forms its own chunk — per-destination combines
        // cannot be split without atomics).
        let mut deg = vec![0usize; width as usize];
        for row in rows {
            for &e in row.blocks[j].dests.iter() {
                deg[entry_dest(e) as usize] += 1;
            }
        }
        let mut start = 0u32;
        let mut acc = 0usize;
        for (d, &cnt) in deg.iter().enumerate() {
            if acc > 0 && acc + cnt > cap {
                tasks.push(GatherTask {
                    col: nid(j),
                    d_lo: start,
                    d_hi: nid(d),
                    nnz: acc,
                });
                start = nid(d);
                acc = 0;
            }
            acc += cnt;
        }
        if start < width {
            tasks.push(GatherTask {
                col: nid(j),
                d_lo: start,
                d_hi: width,
                nnz: acc,
            });
        }
    }
    tasks
}

/// Cuts each chunk task's destination stream out of its column's blocks
/// once, at partition time (see [`ChunkStream`]). Full-column tasks map to
/// `None`. Runs are sorted (`debug_validate`), so a task's share of each is
/// one contiguous sub-run found by two binary searches.
fn build_chunk_streams(
    rows: &[BlockRow],
    nonempty_rows: &[Box<[u32]>],
    tasks: &[GatherTask],
    r: usize,
    c: usize,
) -> Vec<Option<ChunkStream>> {
    mixen_pool::par_parts(tasks.len(), |part| {
        part.map(|task| {
            let t = &tasks[task];
            let j = t.col as usize;
            let lo = j * c;
            let width = (lo + c).min(r) - lo;
            if t.is_full_column(width) {
                return None;
            }
            let list = &nonempty_rows[j];
            let mut block_ptr = Vec::with_capacity(list.len() + 1);
            block_ptr.push(0u32);
            let mut entries = Vec::with_capacity(t.nnz);
            let mut slot_ids = Vec::new();
            for &ti in list.iter() {
                let blk = &rows[ti as usize].blocks[j];
                for k in 0..blk.msg_count() {
                    let run = &blk.dests[blk.dest_ptr[k] as usize..blk.dest_ptr[k + 1] as usize];
                    let a = run.partition_point(|&e| entry_dest(e) < t.d_lo);
                    let b = run.partition_point(|&e| entry_dest(e) < t.d_hi);
                    if a == b {
                        continue;
                    }
                    slot_ids.push(nid(k));
                    let start = entries.len();
                    entries.extend(run[a..b].iter().map(|&e| entry_dest(e) - t.d_lo));
                    entries[start] |= MSG_START;
                }
                block_ptr.push(nid(entries.len()));
            }
            Some(ChunkStream {
                block_ptr: block_ptr.into_boxed_slice(),
                entries: entries.into_boxed_slice(),
                slot_ids: slot_ids.into_boxed_slice(),
            })
        })
        .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixen_graph::Csr;

    fn opts(c: usize) -> MixenOpts {
        MixenOpts {
            block_side: c,
            min_tasks_per_thread: 1,
            ..MixenOpts::default()
        }
    }

    fn grid_csr() -> Csr {
        // 8 nodes; edges spread over two 4-wide column blocks with c = 4.
        Csr::from_edges(
            8,
            &[
                (0, 1),
                (0, 5),
                (1, 4),
                (2, 3),
                (3, 0),
                (5, 6),
                (6, 2),
                (7, 7),
                (0, 2),
            ],
        )
    }

    #[test]
    fn covers_every_edge_exactly_once() {
        let csr = grid_csr();
        let b = BlockedSubgraph::new(&csr, &opts(4), 1);
        assert_eq!(b.nnz(), csr.nnz());
        // Reconstruct the edge multiset from the blocks.
        let mut got: Vec<(u32, u32)> = Vec::new();
        for row in b.rows() {
            for (j, blk) in row.blocks.iter().enumerate() {
                let col_base = (j * b.block_side()) as u32;
                for (k, &src) in blk.src_ids.iter().enumerate() {
                    for d in blk.dests_of(k) {
                        got.push((row.src_start + src, col_base + d));
                    }
                }
            }
        }
        got.sort_unstable();
        let mut want: Vec<(u32, u32)> = csr.edges().collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn block_geometry() {
        let csr = grid_csr();
        let b = BlockedSubgraph::new(&csr, &opts(4), 1);
        assert_eq!(b.n_col_blocks(), 2);
        assert_eq!(b.col_range(0), 0..4);
        assert_eq!(b.col_range(1), 4..8);
        // Local indices stay inside the block.
        for row in b.rows() {
            for blk in &row.blocks {
                assert!(blk
                    .dests
                    .iter()
                    .all(|&e| (entry_dest(e) as usize) < b.block_side()));
                assert!(blk.src_ids.iter().all(|&s| s < row.src_end - row.src_start));
            }
        }
    }

    #[test]
    fn msg_count_compresses_multi_dest_sources() {
        // One source with 3 edges into the same block => 1 message slot.
        let csr = Csr::from_edges(4, &[(0, 0), (0, 1), (0, 2)]);
        let b = BlockedSubgraph::new(&csr, &opts(4), 1);
        assert_eq!(b.total_msg_slots(), 1);
        assert_eq!(b.nnz(), 3);
    }

    #[test]
    fn load_balance_splits_hot_row_ranges() {
        // Node 0 has 12 edges, everyone else 0 or 1: with c = 4 and factor
        // 2, the first range would hold nearly all edges and must split.
        let mut edges = vec![];
        for d in 0..12u32 {
            edges.push((0u32, d % 16));
        }
        for u in 1..16u32 {
            edges.push((u, (u + 1) % 16));
        }
        let csr = Csr::from_edges(16, &edges);
        let balanced = BlockedSubgraph::new(&csr, &opts(4), 1);
        let unbalanced = BlockedSubgraph::new(
            &csr,
            &MixenOpts {
                load_balance: false,
                ..opts(4)
            },
            1,
        );
        assert_eq!(unbalanced.rows().len(), 4);
        assert!(balanced.rows().len() >= unbalanced.rows().len());
        assert_eq!(balanced.nnz(), csr.nnz());
        // No multi-row range exceeds the cap.
        let avg = csr.nnz() as f64 / 4.0;
        for row in balanced.rows() {
            if row.src_end - row.src_start > 1 {
                assert!(row.nnz as f64 <= 2.0 * avg + avg, "row nnz {}", row.nnz);
            }
        }
    }

    #[test]
    fn empty_subgraph() {
        let csr = Csr::empty(0);
        let b = BlockedSubgraph::new(&csr, &opts(4), 1);
        assert_eq!(b.rows().len(), 0);
        assert_eq!(b.n_col_blocks(), 0);
        assert_eq!(b.nnz(), 0);
    }

    #[test]
    fn single_node_self_loop() {
        let csr = Csr::from_edges(1, &[(0, 0)]);
        let b = BlockedSubgraph::new(&csr, &opts(4), 1);
        assert_eq!(b.rows().len(), 1);
        assert_eq!(b.nnz(), 1);
        assert_eq!(b.col_range(0), 0..1);
    }

    #[test]
    fn row_ranges_cover_r_exactly() {
        let csr = grid_csr();
        for c in [1usize, 2, 3, 4, 8, 100] {
            let b = BlockedSubgraph::new(&csr, &opts(c), 1);
            let mut expected_start = 0u32;
            for row in b.rows() {
                assert_eq!(row.src_start, expected_start);
                assert!(row.src_end > row.src_start);
                expected_start = row.src_end;
            }
            assert_eq!(expected_start as usize, csr.n_rows());
        }
    }

    #[test]
    fn debug_validate_accepts_fresh_partitions() {
        let csr = grid_csr();
        for c in [1usize, 2, 4, 100] {
            let o = opts(c);
            let b = BlockedSubgraph::new(&csr, &o, 1);
            b.debug_validate(&csr, &o).unwrap();
        }
    }

    #[test]
    fn debug_validate_rejects_lost_edges() {
        let csr = grid_csr();
        let o = opts(4);
        let mut b = BlockedSubgraph::new(&csr, &o, 1);
        // Drop one destination from the first non-empty block.
        let blk = b
            .rows
            .iter_mut()
            .flat_map(|r| r.blocks.iter_mut())
            .find(|blk| blk.nnz() > 0)
            .unwrap();
        let shorter: Box<[u32]> = blk.dests[..blk.dests.len() - 1].into();
        blk.dests = shorter;
        assert!(b.debug_validate(&csr, &o).is_err());
    }

    #[test]
    fn debug_validate_rejects_wrong_row_tiling() {
        let csr = grid_csr();
        let o = opts(4);
        let mut b = BlockedSubgraph::new(&csr, &o, 1);
        b.rows[0].src_end += 1;
        assert!(b.debug_validate(&csr, &o).is_err());
    }

    #[test]
    fn skip_lists_index_exactly_the_nonempty_blocks() {
        let csr = grid_csr();
        let o = opts(4);
        let b = BlockedSubgraph::new(&csr, &o, 1);
        for row in b.rows() {
            for (j, blk) in row.blocks.iter().enumerate() {
                assert_eq!(
                    row.nonempty_cols.contains(&nid(j)),
                    blk.msg_count() > 0,
                    "row {}..{} col {j}",
                    row.src_start,
                    row.src_end
                );
            }
        }
        for j in 0..b.n_col_blocks() {
            for (t, row) in b.rows().iter().enumerate() {
                assert_eq!(
                    b.nonempty_rows(j).contains(&nid(t)),
                    row.blocks[j].msg_count() > 0
                );
            }
        }
    }

    #[test]
    fn gather_tasks_tile_each_column_and_chunk_hot_ones() {
        // Column block 0 absorbs nearly all edges: every node points at
        // destinations 0..4, so with c = 4 the first column must be chunked.
        let mut edges = Vec::new();
        for u in 0..16u32 {
            for d in 0..4u32 {
                edges.push((u, d));
            }
        }
        edges.push((1, 9));
        let csr = Csr::from_edges(16, &edges);
        let o = opts(4);
        let b = BlockedSubgraph::new(&csr, &o, 1);
        b.debug_validate(&csr, &o).unwrap();
        let stats = b.split_stats();
        assert!(stats.gather_splits > 0, "stats: {stats:?}");
        assert_eq!(stats.gather_tasks, b.gather_tasks().len());
        assert_eq!(
            stats.tasks_split(),
            (stats.scatter_splits + stats.gather_splits) as u64
        );
        // Tasks tile each column contiguously and cover all edges.
        let total: usize = b.gather_tasks().iter().map(|t| t.nnz).sum();
        assert_eq!(total, csr.nnz());
        let covered: usize = b.gather_tasks().iter().map(GatherTask::len).sum();
        assert_eq!(covered, csr.n_rows());
    }

    #[test]
    fn split_stats_track_the_heaviest_tasks() {
        let csr = grid_csr();
        let b = BlockedSubgraph::new(&csr, &opts(4), 1);
        let stats = b.split_stats();
        assert_eq!(stats.scatter_tasks, b.rows().len());
        assert_eq!(
            stats.max_scatter_task_nnz,
            b.rows().iter().map(|r| r.nnz).max().unwrap()
        );
        assert_eq!(
            stats.max_gather_task_nnz,
            b.gather_tasks().iter().map(|t| t.nnz).max().unwrap()
        );
        assert_eq!(
            stats.max_task_nnz(),
            stats.max_scatter_task_nnz.max(stats.max_gather_task_nnz) as u64
        );
    }

    #[test]
    fn debug_validate_rejects_broken_skip_lists_and_gather_tasks() {
        let csr = grid_csr();
        let o = opts(4);
        // Corrupted row skip list.
        let mut b = BlockedSubgraph::new(&csr, &o, 1);
        b.rows[0].nonempty_cols = Box::new([]);
        assert!(b.debug_validate(&csr, &o).is_err());
        // Corrupted column skip list.
        let mut b = BlockedSubgraph::new(&csr, &o, 1);
        b.nonempty_rows[0] = Box::new([]);
        assert!(b.debug_validate(&csr, &o).is_err());
        // Gather task with a hole in its column tiling.
        let mut b = BlockedSubgraph::new(&csr, &o, 1);
        b.gather_tasks[0].d_lo += 1;
        assert!(b.debug_validate(&csr, &o).is_err());
        // Gather task nnz no longer matching its blocks.
        let mut b = BlockedSubgraph::new(&csr, &o, 1);
        b.gather_tasks[0].nnz += 1;
        assert!(b.debug_validate(&csr, &o).is_err());
    }

    /// 16 sources all hitting column block 0 forces the gather balancer to
    /// chunk it (4 single-destination chunks of 16 edges each).
    fn hot_column() -> (Csr, MixenOpts, BlockedSubgraph) {
        let mut edges = Vec::new();
        for u in 0..16u32 {
            for d in 0..4u32 {
                edges.push((u, d));
            }
        }
        let csr = Csr::from_edges(16, &edges);
        let o = opts(4);
        let b = BlockedSubgraph::new(&csr, &o, 1);
        (csr, o, b)
    }

    #[test]
    fn chunk_streams_cut_each_message_run_at_the_task_bounds() {
        let (csr, o, b) = hot_column();
        assert!(b.split_stats().gather_splits > 0);
        b.debug_validate(&csr, &o).expect("partition is valid");
        let mut chunked = 0usize;
        for (t, stream) in b.gather_tasks().iter().zip(b.chunk_streams()) {
            let j = t.col as usize;
            let width = b.col_range(j).len();
            let Some(cs) = stream else {
                assert!(t.is_full_column(width));
                continue;
            };
            chunked += 1;
            assert!(!t.is_full_column(width));
            assert_eq!(cs.block_ptr.len(), b.nonempty_rows(j).len() + 1);
            assert_eq!(cs.entries.len(), t.nnz);
            // Replaying the walk: every entry is a destination of the
            // message its flag count names, and every message that reaches
            // the chunk shows up exactly once per in-range destination.
            let mut m = usize::MAX;
            for (bi, &ti) in b.nonempty_rows(j).iter().enumerate() {
                let blk = &b.rows()[ti as usize].blocks[j];
                let mut got: Vec<(u32, u32)> = Vec::new();
                for &e in cs.entries_of(bi) {
                    m = m.wrapping_add(entry_step(e));
                    got.push((cs.slot_ids[m], t.d_lo + entry_dest(e)));
                }
                let want: Vec<(u32, u32)> = (0..blk.msg_count())
                    .flat_map(|k| blk.dests_of(k).map(move |d| (nid(k), d)))
                    .filter(|&(_, d)| t.d_lo <= d && d < t.d_hi)
                    .collect();
                assert_eq!(got, want);
            }
            assert_eq!(m.wrapping_add(1), cs.slot_ids.len());
        }
        assert!(chunked > 1, "the hot column should yield several chunks");
    }

    #[test]
    fn debug_validate_rejects_broken_destination_streams() {
        let (csr, o, fresh) = hot_column();
        let reject = |what: &str, breakit: &dyn Fn(&mut BlockedSubgraph)| {
            let mut b = fresh.clone();
            breakit(&mut b);
            assert!(b.debug_validate(&csr, &o).is_err(), "{what} accepted");
        };
        let chunk = fresh
            .chunk_streams
            .iter()
            .position(Option::is_some)
            .expect("a chunk task");
        fn stream(b: &mut BlockedSubgraph, task: usize) -> &mut ChunkStream {
            b.chunk_streams[task].as_mut().unwrap()
        }
        // Block streams (what full-column tasks walk).
        reject("cleared first flag of a block", &|b| {
            b.rows[0].blocks[0].dests[0] &= !MSG_START;
        });
        reject("extra flag inside a run", &|b| {
            b.rows[0].blocks[0].dests[1] |= MSG_START;
        });
        reject("out-of-range block destination", &|b| {
            b.rows[0].blocks[0].dests[1] = 4;
        });
        // Chunk streams.
        reject("cleared first flag of a chunk segment", &|b| {
            stream(b, chunk).entries[0] &= !MSG_START;
        });
        reject("out-of-range chunk destination", &|b| {
            let len = nid(b.gather_tasks[chunk].len());
            let e = &mut stream(b, chunk).entries[1];
            *e = (*e & MSG_START) | len;
        });
        reject("slot id past the block's messages", &|b| {
            let ids = &mut stream(b, chunk).slot_ids;
            ids[ids.len() - 1] = u32::MAX >> 1;
        });
        reject("slot id naming another message", &|b| {
            stream(b, chunk).slot_ids[1] = 2;
        });
        reject("truncated stream", &|b| {
            let cs = stream(b, chunk);
            cs.entries = cs.entries[..cs.entries.len() - 1].into();
            let last = cs.block_ptr.len() - 1;
            cs.block_ptr[last] -= 1;
        });
        reject("truncated slot ids", &|b| {
            let cs = stream(b, chunk);
            cs.slot_ids = cs.slot_ids[..cs.slot_ids.len() - 1].into();
        });
        reject("chunk stream on a full-column task", &|b| {
            let full = b.chunk_streams.iter().position(Option::is_none);
            b.chunk_streams[full.unwrap()] = Some(ChunkStream::default());
        });
        reject("chunk task without its stream", &|b| {
            b.chunk_streams[chunk] = None;
        });
    }
}
