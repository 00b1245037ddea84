//! Edge weights as a parameter of the one SCGA pipeline.
//!
//! The engine computes `x'[v] = apply(v, ⊕_{u→v} x[u] ⊗ w(u,v))`, where `⊗`
//! is [`PropValue::scale_edge`]. With `(+, ×)` that is weighted SpMV (the
//! general matrix the paper's §1 SpMV formulation implies); with the
//! tropical `(min, +)` it is shortest-path relaxation; with the zero-sized
//! [`Unweighted`] parameter `⊗` is erased at monomorphisation and the
//! pipeline is the paper's unweighted one.
//!
//! Weights ride along the *static* side of the data path, so all of Mixen's
//! machinery carries over unchanged:
//! * filtering/relabeling only looks at topology,
//! * dynamic bins still stream one (unweighted) value per source per block
//!   — the edge weight is applied at Gather time from a weight array
//!   aligned with each block's destination stream (or, for a chunked hub
//!   column, with the chunk's own stream), preserving the edge compression,
//! * the static bin caches `⊕ seed ⊗ w` — weighted seed contributions are
//!   just as constant as unweighted ones,
//! * the Post-Phase pulls `x ⊗ w` for sinks once.

use mixen_graph::nid;
use mixen_graph::{GraphError, NodeId, PropValue, WGraph};

use crate::block::{entry_dest, entry_step, BlockedSubgraph};
use crate::filter::FilteredGraph;

/// One run of edge weights aligned with a static edge array (a block's
/// `dests`, a chunk's `entries`, the seed CSR or the sink CSC).
pub trait WeightRun: Copy + Send + Sync {
    /// `v ⊗ w`, with `w` the weight at position `edge` of the aligned array.
    fn scale<V: PropValue>(self, v: V, edge: usize) -> V;
}

/// The edge-weight parameter of [`crate::MixenEngine`]: where each static
/// sub-structure finds its aligned weights. Implemented by [`Unweighted`]
/// and [`Weighted`].
pub trait Weights: Send + Sync {
    /// Weights aligned with the `dests` of block `(row, col)`.
    fn block(&self, row: usize, col: usize) -> impl WeightRun + '_;
    /// Weights aligned with the `entries` of chunked gather task `task`.
    fn chunk(&self, task: usize) -> impl WeightRun + '_;
    /// Weights aligned with `FilteredGraph::seed_csr().idx()`.
    fn seed(&self) -> impl WeightRun + '_;
    /// Weights aligned with `FilteredGraph::sink_csc().idx()`.
    fn sink(&self) -> impl WeightRun + '_;
}

/// Every edge weighs the semiring's multiplicative unit: `v ⊗ w = v`.
/// Zero-sized, and its own [`WeightRun`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Unweighted;

impl WeightRun for Unweighted {
    #[inline(always)]
    fn scale<V: PropValue>(self, v: V, _edge: usize) -> V {
        v
    }
}

impl Weights for Unweighted {
    #[inline(always)]
    fn block(&self, _row: usize, _col: usize) -> impl WeightRun + '_ {
        Unweighted
    }

    #[inline(always)]
    fn chunk(&self, _task: usize) -> impl WeightRun + '_ {
        Unweighted
    }

    #[inline(always)]
    fn seed(&self) -> impl WeightRun + '_ {
        Unweighted
    }

    #[inline(always)]
    fn sink(&self) -> impl WeightRun + '_ {
        Unweighted
    }
}

impl WeightRun for &[f32] {
    #[inline(always)]
    fn scale<V: PropValue>(self, v: V, edge: usize) -> V {
        v.scale_edge(self[edge])
    }
}

/// The `f32` weights of a [`WGraph`], aligned once at construction with
/// every static sub-structure of the preprocessed engine.
#[derive(Clone, Debug)]
pub struct Weighted {
    /// Per (block-row, block-column): weights aligned with the block's
    /// `dests`. Empty for chunked columns, which read `chunks` instead.
    blocks: Vec<Vec<Box<[f32]>>>,
    /// Per gather task: weights aligned with the task's
    /// `ChunkStream::entries` (empty for full-column tasks).
    chunks: Vec<Box<[f32]>>,
    seed: Box<[f32]>,
    sink: Box<[f32]>,
}

impl Weighted {
    /// Looks up the weight of every edge of `filtered` / `blocked` (which
    /// must have been built from `wg.topology()`) in the order its kernel
    /// walks it.
    pub(crate) fn align(
        wg: &WGraph,
        filtered: &FilteredGraph,
        blocked: &BlockedSubgraph,
    ) -> Result<Self, GraphError> {
        let weight_of = |new_src: NodeId, new_dst: NodeId| -> Result<f32, GraphError> {
            let (u, v) = (filtered.to_old(new_src), filtered.to_old(new_dst));
            wg.weight(u, v).ok_or_else(|| {
                GraphError::Invariant(format!(
                    "edge {u} -> {v} of the filtered structure has no weight in the graph"
                ))
            })
        };
        let c = blocked.block_side();
        let rows = blocked.rows();
        let tasks = blocked.gather_tasks();
        let streams = blocked.chunk_streams();

        let mut chunked_col = vec![false; blocked.n_col_blocks()];
        for (t, cs) in tasks.iter().zip(streams) {
            chunked_col[t.col as usize] = cs.is_some();
        }

        let blocks = mixen_pool::par_parts(rows.len(), |part| {
            part.map(|t| {
                let row = &rows[t];
                row.blocks
                    .iter()
                    .enumerate()
                    .map(|(j, blk)| {
                        if chunked_col[j] {
                            return Ok(Box::default());
                        }
                        let col_base = nid(j * c);
                        let mut w = Vec::with_capacity(blk.dests.len());
                        for (k, &src) in blk.src_ids.iter().enumerate() {
                            for d in blk.dests_of(k) {
                                w.push(weight_of(row.src_start + src, col_base + d)?);
                            }
                        }
                        Ok(w.into_boxed_slice())
                    })
                    .collect::<Result<Vec<_>, GraphError>>()
            })
            .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect::<Result<Vec<_>, _>>()?;

        let chunks = mixen_pool::par_parts(tasks.len(), |part| {
            part.map(|task| {
                let (t, Some(cs)) = (&tasks[task], &streams[task]) else {
                    return Ok(Box::default());
                };
                let j = t.col as usize;
                let base = nid(j * c) + t.d_lo;
                let mut w = Vec::with_capacity(cs.entries.len());
                // The gather walk: one running flag count names each
                // entry's message slot through `slot_ids`.
                let mut m = usize::MAX;
                for (bi, &ti) in blocked.nonempty_rows(j).iter().enumerate() {
                    let row = &rows[ti as usize];
                    let src_ids = &row.blocks[j].src_ids;
                    for &e in cs.entries_of(bi) {
                        m = m.wrapping_add(entry_step(e));
                        let src = row.src_start + src_ids[cs.slot_ids[m] as usize];
                        w.push(weight_of(src, base + entry_dest(e))?);
                    }
                }
                Ok(w.into_boxed_slice())
            })
            .collect::<Vec<Result<Box<[f32]>, GraphError>>>()
        })
        .into_iter()
        .flatten()
        .collect::<Result<Vec<_>, _>>()?;

        let r = nid(filtered.num_regular());
        let mut seed = Vec::with_capacity(filtered.seed_csr().nnz());
        for s in 0..nid(filtered.num_seed()) {
            for &dst in filtered.seed_csr().neighbors(s) {
                seed.push(weight_of(r + s, dst)?);
            }
        }
        let sink_base = r + nid(filtered.num_seed());
        let mut sink = Vec::with_capacity(filtered.sink_csc().nnz());
        for k in 0..nid(filtered.num_sink()) {
            for &src in filtered.sink_csc().neighbors(k) {
                sink.push(weight_of(src, sink_base + k)?);
            }
        }
        Ok(Self {
            blocks,
            chunks,
            seed: seed.into_boxed_slice(),
            sink: sink.into_boxed_slice(),
        })
    }
}

impl Weights for Weighted {
    #[inline]
    fn block(&self, row: usize, col: usize) -> impl WeightRun + '_ {
        &*self.blocks[row][col]
    }

    #[inline]
    fn chunk(&self, task: usize) -> impl WeightRun + '_ {
        &*self.chunks[task]
    }

    #[inline]
    fn seed(&self) -> impl WeightRun + '_ {
        &*self.seed
    }

    #[inline]
    fn sink(&self) -> impl WeightRun + '_ {
        &*self.sink
    }
}
