//! Dynamic and static propagation bins (§4.2).
//!
//! * [`DynamicBins`] are rewritten every iteration: the Scatter step streams
//!   one value per (source, block) pair into them — sequential writes — and
//!   the Gather step drains them column-wise — sequential reads. They turn
//!   the random memory jumps of direct propagation into streaming accesses.
//! * [`StaticBin`] is written once in the Pre-Phase: it accumulates the
//!   contributions of seed nodes to every regular node. Because seeds never
//!   change, the Cache step of every subsequent iteration simply re-primes
//!   the accumulator from this bin instead of re-propagating seed messages.
//!   It is shared across all blocks of a block-row (the paper allocates it
//!   per block-row as a 1-D vector; a single `r`-length vector segmented by
//!   row ranges is the same layout).

use mixen_graph::nid;
use mixen_graph::{Csr, GraphError, PropValue};

use crate::block::BlockedSubgraph;
use crate::weights::{Unweighted, WeightRun};

/// Value encoding of the dynamic bins.
///
/// `F32` streams full-width property values. The 16-bit encodings halve
/// Main-Phase bin traffic for 4-byte property types — the paper's kernels
/// are bandwidth-bound, so stream bytes translate almost directly into
/// Main-Phase seconds:
///
/// * `F16` — IEEE 754 binary16 (hand-rolled converters, no external
///   dependency). Relative round-trip error ≤ 2⁻¹¹ per value for the
///   normal range; values above 65504 overflow to ∞ and are rejected.
/// * `Q16` — 16-bit fixed point against a per-Scatter global scale
///   (`max |x|`): `q = round(v / scale × 32767)`. Absolute error is
///   bounded by `scale / 65534`, uniformly across the range.
///
/// Both lossy encodings are gated by a measured accuracy budget at
/// Scatter time ([`plan_codec`]): the worst per-value round-trip error
/// relative to the stream's magnitude must stay within
/// [`ACCURACY_BUDGET`], otherwise the Scatter fails with a typed
/// [`GraphError::Numeric`]. Compression applies only to property types
/// that opt in (`PropValue::ENCODABLE`, i.e. `f32`); other types silently
/// keep full-width streams.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BinEncoding {
    /// Full-width values — lossless, the paper's layout.
    #[default]
    F32,
    /// IEEE binary16 values (2 bytes per slot).
    F16,
    /// 16-bit fixed point against a per-Scatter global scale.
    Q16,
}

impl BinEncoding {
    /// Every encoding, in report order.
    pub const ALL: [BinEncoding; 3] = [BinEncoding::F32, BinEncoding::F16, BinEncoding::Q16];

    /// The CLI/report name (`--bin-encoding` vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            BinEncoding::F32 => "f32",
            BinEncoding::F16 => "f16",
            BinEncoding::Q16 => "q16",
        }
    }

    /// Parses an encoding name as accepted by `--bin-encoding`.
    pub fn parse(s: &str) -> Option<Self> {
        BinEncoding::ALL.into_iter().find(|e| e.name() == s)
    }

    /// Stable numeric ID stamped into the `bin_encoding` obs gauge and
    /// folded into checkpoint fingerprints (a resume under a different
    /// encoding changes the numerics and must be rejected).
    pub fn encoding_id(self) -> u64 {
        match self {
            BinEncoding::F32 => 0,
            BinEncoding::F16 => 1,
            BinEncoding::Q16 => 2,
        }
    }

    /// Whether slots are stored as 16-bit words instead of full values.
    pub fn is_compressed(self) -> bool {
        !matches!(self, BinEncoding::F32)
    }

    /// The encoding actually used for property type `V`: types that do not
    /// opt into the 16-bit stream hooks keep full-width bins.
    pub fn effective<V: PropValue>(self) -> Self {
        if V::ENCODABLE {
            self
        } else {
            BinEncoding::F32
        }
    }
}

/// The rank-agreement accuracy budget of the lossy encodings: the worst
/// per-value round-trip error, relative to the stream's maximum
/// magnitude, tolerated before Scatter rejects the encoding with
/// [`GraphError::Numeric`].
pub const ACCURACY_BUDGET: f64 = 1e-3;

/// Encodes an `f32` as IEEE binary16 bits with round-to-nearest-even.
/// Out-of-range magnitudes map to ±∞ (caught by the accuracy gate).
pub fn f16_from_f32(v: f32) -> u16 {
    let bits = v.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let man = bits & 0x007f_ffff;
    if exp == 0xff {
        // Inf / NaN: keep the class (any NaN payload collapses to a quiet
        // one — payloads are never semantically meaningful here).
        return sign | 0x7c00 | if man != 0 { 0x0200 } else { 0 };
    }
    // Unbiased exponent, rebased for binary16 (bias 15).
    let e = exp - 127 + 15;
    if e >= 0x1f {
        return sign | 0x7c00; // overflow to infinity
    }
    if e <= 0 {
        // Subnormal or zero: shift the (implicit-1) mantissa right.
        if e < -10 {
            return sign; // underflows to zero even after rounding
        }
        let man = man | 0x0080_0000; // make the leading 1 explicit
        let shift = 14 - e; // 14..=24
        let half = man >> (shift - 1);
        // Round to nearest, ties to even.
        let rounded = (half >> 1) + (half & (half >> 1) & 1);
        let sticky = (man & ((1u32 << (shift - 1)) - 1)) != 0;
        let rounded = if sticky && half & 1 == 1 && rounded == half >> 1 {
            rounded + 1
        } else {
            rounded
        };
        return sign | rounded as u16;
    }
    // Normal: keep the top 10 mantissa bits, round-to-nearest-even on the
    // 13 dropped bits. Mantissa overflow carries into the exponent, which
    // is exactly the right thing (1.999... rounds up to 2.0).
    // lint: allow(truncation) reason=e is a 5-bit binary16 exponent, not an id
    let base = (e as u32) << 10 | (man >> 13);
    let round_bit = man & 0x1000;
    let sticky = man & 0x0fff;
    let rounded = if round_bit != 0 && (sticky != 0 || base & 1 == 1) {
        base + 1
    } else {
        base
    };
    if rounded >= 0x7c00 {
        return sign | 0x7c00; // rounding overflowed past the max finite
    }
    sign | rounded as u16
}

/// Decodes IEEE binary16 bits to `f32` (exact).
#[inline]
pub fn f16_to_f32(bits: u16) -> f32 {
    // lint: allow(truncation) reason=widening u16 bit-field extractions, not ids
    let sign = ((bits as u32) & 0x8000) << 16;
    // lint: allow(truncation) reason=widening u16 bit-field extractions, not ids
    let exp = ((bits >> 10) & 0x1f) as u32;
    // lint: allow(truncation) reason=widening u16 bit-field extractions, not ids
    let man = (bits & 0x03ff) as u32;
    let out = match (exp, man) {
        (0, 0) => sign,
        (0, _) => {
            // Subnormal: value = man × 2⁻²⁴. Normalize into f32.
            let shift = man.leading_zeros() - 21; // 1..=10
            let man = (man << shift) & 0x03ff;
            let exp = 127 - 15 - shift + 1;
            sign | (exp << 23) | (man << 13)
        }
        (0x1f, 0) => sign | 0x7f80_0000,
        (0x1f, _) => sign | 0x7fc0_0000 | (man << 13),
        _ => sign | ((exp + 127 - 15) << 23) | (man << 13),
    };
    f32::from_bits(out)
}

/// The per-Scatter codec of a compressed bin round: encoding plus the Q16
/// quantization scale measured from that round's source values. Stored in
/// the bins by Scatter so the matching Gather decodes with the same
/// parameters.
#[derive(Clone, Copy, Debug)]
pub struct BinCodec {
    enc: BinEncoding,
    /// Q16 dequantization step, `scale / 32767` (0 on an all-zero round).
    q_step: f32,
    /// Q16 quantization factor, `32767 / scale` (0 on an all-zero round).
    q_inv: f32,
}

impl BinCodec {
    /// The lossless (F32) codec.
    pub fn identity() -> Self {
        Self {
            enc: BinEncoding::F32,
            q_step: 0.0,
            q_inv: 0.0,
        }
    }

    /// The encoding this codec implements.
    pub fn encoding(self) -> BinEncoding {
        self.enc
    }

    /// Encodes one streamed value into its 16-bit slot. Only meaningful
    /// for the compressed encodings.
    #[inline]
    pub fn encode(self, v: f32) -> u16 {
        match self.enc {
            BinEncoding::F32 => 0,
            BinEncoding::F16 => f16_from_f32(v),
            // `as i16` saturates on overflow/NaN in Rust, so a hostile
            // value that slipped past the gate still cannot corrupt
            // neighbouring slots — it just decodes clamped.
            BinEncoding::Q16 => ((v * self.q_inv).round() as i16) as u16,
        }
    }

    /// Decodes one 16-bit slot back to the streamed value.
    #[inline]
    pub fn decode(self, bits: u16) -> f32 {
        match self.enc {
            BinEncoding::F32 => 0.0,
            BinEncoding::F16 => f16_to_f32(bits),
            BinEncoding::Q16 => (bits as i16) as f32 * self.q_step,
        }
    }
}

/// Plans the codec of one Scatter round over the source values it will
/// stream, enforcing the [`ACCURACY_BUDGET`] gate: every streamed slot is
/// some `x[u]`, so scanning `x` bounds the exact per-message round-trip
/// error. Rejections are typed [`GraphError::Numeric`] — non-finite
/// sources, f16 overflow (`|v| > 65504`), or any round-trip error above
/// the budget relative to the stream's maximum magnitude.
pub fn plan_codec<V: PropValue>(enc: BinEncoding, x: &[V]) -> Result<BinCodec, GraphError> {
    let numeric = |msg: String| Err(GraphError::Numeric { iteration: 0, msg });
    let enc = enc.effective::<V>();
    if !enc.is_compressed() {
        return Ok(BinCodec::identity());
    }
    let mut max_abs = 0f32;
    for v in x {
        let f = v.to_stream_f32();
        if !f.is_finite() {
            return numeric(format!(
                "{} bin encoding cannot stream non-finite source value {f}",
                enc.name()
            ));
        }
        max_abs = max_abs.max(f.abs());
    }
    let codec = match enc {
        BinEncoding::F16 => BinCodec {
            enc,
            q_step: 0.0,
            q_inv: 0.0,
        },
        BinEncoding::Q16 => BinCodec {
            enc,
            q_step: max_abs / 32767.0,
            q_inv: if max_abs > 0.0 {
                32767.0 / max_abs
            } else {
                0.0
            },
        },
        BinEncoding::F32 => BinCodec::identity(),
    };
    if max_abs > 0.0 {
        let mut max_err = 0f64;
        for v in x {
            let f = v.to_stream_f32();
            let err = (codec.decode(codec.encode(f)) as f64 - f as f64).abs();
            max_err = max_err.max(err);
        }
        let rel = max_err / max_abs as f64;
        if !rel.is_finite() || rel > ACCURACY_BUDGET {
            return numeric(format!(
                "{} bin encoding round-trip error {rel:.3e} exceeds the {ACCURACY_BUDGET:.0e} \
                 rank-agreement budget (stream magnitude up to {max_abs:.6e})",
                enc.name()
            ));
        }
    }
    Ok(codec)
}

/// Per-iteration value streams, one stream per (block-row task, block-col)
/// — full-width `V` slots under [`BinEncoding::F32`], 16-bit words under
/// the compressed encodings.
#[derive(Clone, Debug)]
pub struct DynamicBins<V> {
    per_task: Vec<TaskBins<V>>,
    /// Effective encoding for `V` (requested encoding, or `F32` when `V`
    /// does not opt into compression).
    encoding: BinEncoding,
    /// The codec of the last Scatter round (carries the Q16 scale).
    codec: BinCodec,
}

/// The bins owned by one scatter task (one stream per block-column;
/// exactly one of `per_col`/`packed` is populated, by encoding).
#[derive(Clone, Debug)]
pub struct TaskBins<V> {
    per_col: Vec<Vec<V>>,
    packed: Vec<Vec<u16>>,
}

impl<V: PropValue> DynamicBins<V> {
    /// Allocates full-width value streams sized to the compressed message
    /// counts of `blocked`. Allocation happens once; iterations only
    /// overwrite.
    pub fn new(blocked: &BlockedSubgraph) -> Self {
        Self::with_encoding(blocked, BinEncoding::F32)
    }

    /// Like [`DynamicBins::new`] with an explicit value encoding. Types
    /// that do not opt into compression (`!V::ENCODABLE`) silently fall
    /// back to full-width streams.
    pub fn with_encoding(blocked: &BlockedSubgraph, encoding: BinEncoding) -> Self {
        let encoding = encoding.effective::<V>();
        let per_task = blocked
            .rows()
            .iter()
            .map(|row| TaskBins {
                per_col: row
                    .blocks
                    .iter()
                    .map(|b| {
                        if encoding.is_compressed() {
                            Vec::new()
                        } else {
                            vec![V::identity(); b.msg_count()]
                        }
                    })
                    .collect(),
                packed: row
                    .blocks
                    .iter()
                    .map(|b| {
                        if encoding.is_compressed() {
                            vec![0u16; b.msg_count()]
                        } else {
                            Vec::new()
                        }
                    })
                    .collect(),
            })
            .collect();
        let bins = Self {
            per_task,
            encoding,
            codec: BinCodec::identity(),
        };
        #[cfg(debug_assertions)]
        if let Err(e) = bins.debug_validate(blocked) {
            // lint: allow(panic) reason=debug builds turn violated bin metadata into loud failures
            panic!("invariant violated at bin allocation: {e}");
        }
        bins
    }

    /// The effective value encoding of these streams.
    pub fn encoding(&self) -> BinEncoding {
        self.encoding
    }

    /// Bytes one slot occupies under the active encoding — the factor the
    /// `bin_bytes_streamed` counter multiplies slot counts by.
    pub fn bytes_per_slot(&self) -> usize {
        if self.encoding.is_compressed() {
            2
        } else {
            std::mem::size_of::<V>()
        }
    }

    /// The codec of the last Scatter round (Gather decodes with it).
    pub(crate) fn codec(&self) -> BinCodec {
        self.codec
    }

    /// Records the codec a Scatter round encoded with.
    pub(crate) fn set_codec(&mut self, codec: BinCodec) {
        self.codec = codec;
    }

    /// Mutable slice of all task bins (scatter side).
    pub fn tasks_mut(&mut self) -> &mut [TaskBins<V>] {
        &mut self.per_task
    }

    /// Shared view of all task bins (gather side).
    pub fn tasks(&self) -> &[TaskBins<V>] {
        &self.per_task
    }

    /// Total buffered values per iteration.
    pub fn total_slots(&self) -> usize {
        self.per_task
            .iter()
            .flat_map(|t| {
                t.per_col
                    .iter()
                    .map(Vec::len)
                    .zip(t.packed.iter().map(Vec::len))
            })
            .map(|(full, packed)| full + packed)
            .sum()
    }

    /// Validates the bin metadata against the partition it was allocated
    /// for: one task per block-row, one stream per block-column, and every
    /// stream (in the representation the encoding selects) sized to its
    /// block's compressed message count. Bin allocation runs it in debug
    /// builds; tests call it directly.
    pub fn debug_validate(&self, blocked: &BlockedSubgraph) -> Result<(), GraphError> {
        let invariant = |msg: String| Err(GraphError::Invariant(msg));
        if self.per_task.len() != blocked.rows().len() {
            return invariant(format!(
                "{} task bins for {} block-rows",
                self.per_task.len(),
                blocked.rows().len()
            ));
        }
        let packed = self.encoding.is_compressed();
        for (t, (task, row)) in self.per_task.iter().zip(blocked.rows()).enumerate() {
            if task.per_col.len() != row.blocks.len() || task.packed.len() != row.blocks.len() {
                return invariant(format!(
                    "task {t} has {} full / {} packed streams for {} blocks",
                    task.per_col.len(),
                    task.packed.len(),
                    row.blocks.len()
                ));
            }
            for (j, blk) in row.blocks.iter().enumerate() {
                let (active, idle) = if packed {
                    (task.packed[j].len(), task.per_col[j].len())
                } else {
                    (task.per_col[j].len(), task.packed[j].len())
                };
                if active != blk.msg_count() || idle != 0 {
                    return invariant(format!(
                        "bin ({t},{j}) holds {active} slots (+{idle} idle), block compresses \
                         to {} messages under {}",
                        blk.msg_count(),
                        self.encoding.name()
                    ));
                }
            }
        }
        Ok(())
    }
}

impl<V: PropValue> TaskBins<V> {
    /// The full-width value stream for block-column `j` (empty under a
    /// compressed encoding — the kernels then read the crate-private
    /// packed stream).
    #[inline]
    pub fn col(&self, j: usize) -> &[V] {
        &self.per_col[j]
    }

    /// Mutable full-width value stream for block-column `j`.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [V] {
        &mut self.per_col[j]
    }

    /// The 16-bit stream for block-column `j` (empty under `F32`).
    #[inline]
    pub(crate) fn packed_col(&self, j: usize) -> &[u16] {
        &self.packed[j]
    }

    /// Mutable 16-bit stream for block-column `j`.
    #[inline]
    pub(crate) fn packed_col_mut(&mut self, j: usize) -> &mut [u16] {
        &mut self.packed[j]
    }

    /// Base address of column `j`'s active stream — a software-prefetch
    /// target only, never dereferenced directly.
    #[inline]
    pub(crate) fn col_prefetch_ptr(&self, j: usize) -> *const u8 {
        if self.packed[j].is_empty() {
            self.per_col[j].as_ptr() as *const u8
        } else {
            self.packed[j].as_ptr() as *const u8
        }
    }
}

/// The seed-contribution cache: `sta[v] = Σ_{seed s → v} value(s)` for every
/// regular node `v`.
#[derive(Clone, Debug)]
pub struct StaticBin<V> {
    vals: Vec<V>,
}

impl<V: PropValue> StaticBin<V> {
    /// Pre-Phase: pushes every seed's value along its seed→regular edges and
    /// accumulates per destination. Seed rows are cut at equal edge counts,
    /// one part per pool lane (`edge_cuts`); each part accumulates into a
    /// vector of its own — the first part's is the result — and the others
    /// are combined into it per destination in part order, so for a given
    /// lane count the bin is reproducible bit for bit.
    pub fn compute(seed_csr: &Csr, seed_vals: &[V], r: usize) -> Self {
        Self::compute_weighted(seed_csr, seed_vals, r, Unweighted)
    }

    /// [`StaticBin::compute`] under an edge-weight run aligned with
    /// `seed_csr.idx()`: caches `⊕ seed ⊗ w`.
    pub(crate) fn compute_weighted(
        seed_csr: &Csr,
        seed_vals: &[V],
        r: usize,
        w: impl WeightRun,
    ) -> Self {
        assert_eq!(seed_csr.n_rows(), seed_vals.len());
        assert_eq!(seed_csr.n_cols(), r);
        let ptr = seed_csr.ptr();
        let parts = edge_cuts(ptr, mixen_pool::current_num_threads());
        // All accumulators come from the calling thread's allocator. A pool
        // worker allocating its own `r`-length vector takes it from that
        // thread's malloc arena, and whether the arena maps and unmaps a
        // sub-heap for it on every call depends on what the worker happened
        // to allocate earlier: the same call then costs 1x or 2x from one
        // process to the next (`results/e2e_ab_pr12.txt`, "Reading").
        let mut accs: Vec<Vec<V>> = parts.iter().map(|_| vec![V::identity(); r]).collect();
        mixen_pool::par_parts_mut(&mut accs, |first, accs| {
            for (acc, part) in accs.iter_mut().zip(&parts[first..]) {
                for s in part.clone() {
                    let v = seed_vals[s];
                    let base = ptr[s];
                    for (i, &d) in seed_csr.neighbors(nid(s)).iter().enumerate() {
                        acc[d as usize].combine(w.scale(v, base + i));
                    }
                }
            }
        });
        let mut accs = accs.into_iter();
        let Some(mut vals) = accs.next() else {
            return Self::zero(r);
        };
        let rest: Vec<Vec<V>> = accs.collect();
        if !rest.is_empty() {
            // Parts ascending for every destination, so a value's bits do
            // not depend on how the destinations are cut.
            mixen_pool::par_parts_mut(&mut vals, |lo, out| {
                for acc in &rest {
                    for (x, &y) in out.iter_mut().zip(&acc[lo..]) {
                        x.combine(y);
                    }
                }
            });
        }
        Self { vals }
    }

    /// An all-identity bin for graphs without seeds (or with the Cache step
    /// disabled at priming time).
    pub fn zero(r: usize) -> Self {
        Self {
            vals: vec![V::identity(); r],
        }
    }

    /// The cached contributions, indexed by regular (new) ID.
    #[inline]
    pub fn values(&self) -> &[V] {
        &self.vals
    }
}

/// The Pre-Phase split: the rows of a CSR row-pointer array (`n_rows + 1`
/// entries) cut into at most `lanes` (the pool's, so at least one) contiguous
/// parts of near-equal *edge* count — part `p` starts at the first
/// row whose edges begin at or after `nnz · p / lanes` — keeping only parts
/// that own an edge. Seeds are as skewed as everything else (one seed row can
/// own most seed edges), so equal row counts would leave one lane the work;
/// and an accumulator costs `r` values to zero and `r` to combine, so there
/// is one per lane, not one per queued part. A pure function of
/// `(ptr, lanes)`.
fn edge_cuts(ptr: &[usize], lanes: usize) -> Vec<std::ops::Range<usize>> {
    let n_rows = ptr.len() - 1;
    let nnz = ptr[n_rows];
    let cut = |p: usize| {
        if p == lanes {
            n_rows
        } else {
            ptr.partition_point(|&e| e < nnz * p / lanes)
        }
    };
    (0..lanes)
        .map(|p| cut(p)..cut(p + 1))
        .filter(|rows| ptr[rows.start] < ptr[rows.end])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MixenOpts;
    use mixen_graph::Csr;

    #[test]
    fn dynamic_bins_match_block_geometry() {
        let csr = Csr::from_edges(8, &[(0, 1), (0, 5), (1, 4), (7, 0), (7, 1)]);
        let blocked = BlockedSubgraph::new(
            &csr,
            &MixenOpts {
                block_side: 4,
                min_tasks_per_thread: 1,
                ..MixenOpts::default()
            },
            1,
        );
        let bins: DynamicBins<f32> = DynamicBins::new(&blocked);
        assert_eq!(bins.total_slots(), blocked.total_msg_slots());
        // Node 0 hits cols {1} and {5}: one slot in each column block.
        // Node 7 hits cols {0,1}: one compressed slot.
        assert_eq!(bins.total_slots(), 4);
    }

    #[test]
    fn debug_validate_rejects_missized_streams() {
        let csr = Csr::from_edges(8, &[(0, 1), (0, 5), (1, 4), (7, 0), (7, 1)]);
        let blocked = BlockedSubgraph::new(
            &csr,
            &MixenOpts {
                block_side: 4,
                min_tasks_per_thread: 1,
                ..MixenOpts::default()
            },
            1,
        );
        let mut bins: DynamicBins<f32> = DynamicBins::new(&blocked);
        bins.debug_validate(&blocked).unwrap();
        let stream = bins.per_task[0]
            .per_col
            .iter_mut()
            .find(|s| !s.is_empty())
            .unwrap();
        stream.push(0.0);
        assert!(bins.debug_validate(&blocked).is_err());
    }

    #[test]
    fn static_bin_accumulates_seed_pushes() {
        // 2 seeds over 3 regular nodes: seed 0 -> {0, 2}, seed 1 -> {2}.
        let seed_csr = Csr::from_edges_rect(2, 3, &[(0, 0), (0, 2), (1, 2)]);
        let sta = StaticBin::compute(&seed_csr, &[1.5f32, 2.0], 3);
        assert_eq!(sta.values(), &[1.5, 0.0, 3.5]);
    }

    #[test]
    fn static_bin_zero() {
        let sta: StaticBin<f32> = StaticBin::zero(4);
        assert_eq!(sta.values(), &[0.0; 4]);
    }

    #[test]
    fn static_bin_no_seeds() {
        let seed_csr = Csr::from_edges_rect(0, 3, &[]);
        let sta = StaticBin::compute(&seed_csr, &[] as &[f32], 3);
        assert_eq!(sta.values(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn static_bin_vector_values() {
        let seed_csr = Csr::from_edges_rect(1, 2, &[(0, 1)]);
        let sta = StaticBin::compute(&seed_csr, &[[1.0f32, 2.0]], 2);
        assert_eq!(sta.values(), &[[0.0, 0.0], [1.0, 2.0]]);
    }

    /// Pins the combine order: seed rows in order within a part, one part
    /// per lane cut at equal edge counts, parts ascending per destination.
    #[test]
    fn static_bin_bits_are_the_ordered_part_fold() {
        let (n, r) = (1003usize, 97usize);
        let mut seed = 0x9e37_79b9u32;
        let mut next = || {
            seed = seed.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            seed >> 8
        };
        let mut edges = Vec::new();
        for s in 0..n {
            // Skewed on purpose: every 97th seed owns a few hundred edges,
            // so equal-edge cuts are far from equal-row cuts.
            let deg = if s % 97 == 5 { 300 } else { next() % 7 };
            for _ in 0..deg {
                edges.push((nid(s), next() % nid(r)));
            }
        }
        let seed_csr = Csr::from_edges_rect(n, r, &edges);
        let ptr = seed_csr.ptr();
        let nnz = seed_csr.nnz();
        let vals: Vec<[f32; 2]> = (0..n)
            .map(|_| [next() as f32 / 3.0e6, 1.0 / (1 + next() % 1000) as f32])
            .collect();
        for lanes in [1usize, 2, 3] {
            let got = mixen_pool::with_threads(lanes, || StaticBin::compute(&seed_csr, &vals, r));
            // Part `p` starts at the first row whose edges begin at or after
            // `nnz * p / lanes`, found here by a linear scan.
            let cut = |p: usize| {
                if p == lanes {
                    n
                } else {
                    (0..=n).find(|&s| ptr[s] >= nnz * p / lanes).unwrap()
                }
            };
            assert!(
                lanes == 1 || cut(1) != n / lanes,
                "cuts must not be row cuts"
            );
            let mut want = vec![<[f32; 2]>::identity(); r];
            for part in 0..lanes {
                let mut acc = vec![<[f32; 2]>::identity(); r];
                let rows = cut(part)..cut(part + 1);
                for (s, &v) in rows.clone().zip(&vals[rows]) {
                    for &d in seed_csr.neighbors(nid(s)) {
                        acc[d as usize].combine(v);
                    }
                }
                for (x, y) in want.iter_mut().zip(acc) {
                    x.combine(y);
                }
            }
            let bits = |v: &[[f32; 2]]| -> Vec<[u32; 2]> {
                v.iter().map(|x| x.map(f32::to_bits)).collect()
            };
            assert_eq!(bits(got.values()), bits(&want), "lanes {lanes}");
        }
    }

    #[test]
    fn edge_cuts_balance_edges_and_drop_edgeless_parts() {
        // Rows of 0, 4, 0, 4 edges: two lanes get four edges each, and the
        // edgeless row between them goes with the part it precedes.
        assert_eq!(edge_cuts(&[0, 0, 4, 4, 8], 2), vec![0..2, 2..4]);
        // One row owns every edge: one part, whatever the lane count (the
        // edgeless row after it belongs to nobody).
        assert_eq!(edge_cuts(&[0, 0, 9, 9], 4), vec![0..2]);
        // More lanes than rows.
        assert_eq!(edge_cuts(&[0, 1, 2], 8), vec![0..1, 1..2]);
        // No rows, or rows without edges: no part at all.
        assert_eq!(edge_cuts(&[0], 3), Vec::<std::ops::Range<usize>>::new());
        assert_eq!(
            edge_cuts(&[0, 0, 0], 3),
            Vec::<std::ops::Range<usize>>::new()
        );
        // Whatever the skew, the parts cover every edge once, in order.
        let ptr = [0usize, 1, 1, 50, 51, 51, 60, 100];
        for lanes in 1..10 {
            let parts = edge_cuts(&ptr, lanes);
            assert!(parts.len() <= lanes);
            let mut edge = 0;
            for rows in parts {
                assert_eq!(ptr[rows.start], edge, "lanes {lanes}");
                edge = ptr[rows.end];
            }
            assert_eq!(edge, 100, "lanes {lanes}");
        }
    }

    /// Degenerate Pre-Phase inputs, at more lanes than most of them have
    /// rows: each must equal the serial row-order sum.
    #[test]
    fn static_bin_degenerate_inputs_match_the_serial_sum() {
        let serial = |csr: &Csr, vals: &[f32], r: usize| {
            let mut want = vec![0f32; r];
            for (s, &v) in vals.iter().enumerate() {
                for &d in csr.neighbors(nid(s)) {
                    want[d as usize] += v;
                }
            }
            want
        };
        let hub: Vec<(u32, u32)> = (0..64).map(|d| (1, d % 5)).collect();
        let cases: Vec<(Csr, Vec<f32>, usize)> = vec![
            // No seeds.
            (Csr::from_edges_rect(0, 5, &[]), vec![], 5),
            // Seeds without a single edge into the regular set.
            (Csr::from_edges_rect(3, 5, &[]), vec![1.0, 2.0, 3.0], 5),
            // One seed owns every edge.
            (Csr::from_edges_rect(3, 5, &hub), vec![1.0, 0.5, 4.0], 5),
            // Fewer seed rows than lanes.
            (
                Csr::from_edges_rect(2, 3, &[(0, 0), (1, 2), (1, 0)]),
                vec![1.5, 2.0],
                3,
            ),
            // No regular node to receive anything.
            (Csr::from_edges_rect(2, 0, &[]), vec![1.0, 2.0], 0),
        ];
        for lanes in [1usize, 2, 4] {
            for (i, (csr, vals, r)) in cases.iter().enumerate() {
                let got = mixen_pool::with_threads(lanes, || StaticBin::compute(csr, vals, *r));
                assert_eq!(
                    got.values(),
                    serial(csr, vals, *r),
                    "case {i}, lanes {lanes}"
                );
            }
        }
    }

    #[test]
    fn f16_round_trip_is_exact_for_representable_values() {
        // Values with <= 10 mantissa bits and in-range exponents survive
        // the f32 -> f16 -> f32 round trip bit-for-bit.
        for v in [
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            0.5,
            0.25,
            1.5,
            65504.0,
            6.1035156e-5,
        ] {
            let back = f16_to_f32(f16_from_f32(v));
            assert_eq!(back.to_bits(), v.to_bits(), "value {v}");
        }
    }

    #[test]
    fn f16_round_trip_error_is_bounded_by_half_ulp() {
        // Relative error for normal f16 values is at most 2^-11 (half an
        // ulp of a 10-bit mantissa) — comfortably inside ACCURACY_BUDGET.
        let mut seed = 0x2545_f491u32;
        for _ in 0..10_000 {
            seed = seed.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let v = (seed as f32 / u32::MAX as f32).mul_add(2000.0, -1000.0);
            let back = f16_to_f32(f16_from_f32(v));
            let rel = ((back - v) / v.abs().max(1e-30)).abs();
            assert!(rel <= 4.8829e-4, "value {v} -> {back}, rel err {rel}");
        }
    }

    #[test]
    fn f16_special_values() {
        assert_eq!(f16_from_f32(f32::INFINITY), 0x7c00);
        assert_eq!(f16_from_f32(f32::NEG_INFINITY), 0xfc00);
        assert!(f16_to_f32(f16_from_f32(f32::NAN)).is_nan());
        // Overflow saturates to infinity, underflow flushes toward zero.
        assert_eq!(f16_from_f32(1.0e6), 0x7c00);
        assert_eq!(f16_to_f32(f16_from_f32(1.0e-10)), 0.0);
    }

    #[test]
    fn q16_round_trip_error_is_bounded_by_the_step() {
        let xs: Vec<f32> = (0..4096)
            .map(|i| ((i as f32).mul_add(0.37, -757.0)).sin() * 900.0)
            .collect();
        let codec = plan_codec::<f32>(BinEncoding::Q16, &xs).unwrap();
        assert_eq!(codec.encoding(), BinEncoding::Q16);
        for &v in &xs {
            let back = codec.decode(codec.encode(v));
            // Half a quantisation step of slack either way.
            assert!(
                (back - v).abs() <= codec.q_step * 0.5 + 1e-9,
                "{v} -> {back}"
            );
        }
    }

    #[test]
    fn codec_planner_rejects_out_of_budget_ranges() {
        // f16 cannot represent 1e30 at all: the round-trip error blows
        // through the budget and the planner must say so, typed.
        let hostile = vec![1.0e30f32, 1.0];
        let err = plan_codec::<f32>(BinEncoding::F16, &hostile).unwrap_err();
        assert_eq!(err.kind_name(), "numeric");
        // Non-finite inputs are rejected by both compressed encodings.
        let nan = vec![f32::NAN, 1.0];
        assert_eq!(
            plan_codec::<f32>(BinEncoding::F16, &nan)
                .unwrap_err()
                .kind_name(),
            "numeric"
        );
        assert_eq!(
            plan_codec::<f32>(BinEncoding::Q16, &nan)
                .unwrap_err()
                .kind_name(),
            "numeric"
        );
        // F32 is lossless and never rejects.
        assert!(plan_codec::<f32>(BinEncoding::F32, &nan).is_ok());
    }

    #[test]
    fn effective_encoding_downgrades_unencodable_types() {
        use mixen_graph::MinF32;
        assert_eq!(BinEncoding::F16.effective::<MinF32>(), BinEncoding::F32);
        assert_eq!(BinEncoding::Q16.effective::<f32>(), BinEncoding::Q16);
    }

    #[test]
    fn encoding_parse_and_names_round_trip() {
        for enc in BinEncoding::ALL {
            assert_eq!(BinEncoding::parse(enc.name()), Some(enc));
        }
        assert_eq!(BinEncoding::parse("brotli"), None);
    }
}
