//! Compressed sparse row storage.
//!
//! A [`Csr`] stores, for each of `n` rows, a sorted run of column indices.
//! Interpreted as a graph it is the out-adjacency of a directed graph; the
//! CSC of the same graph is the [`Csr`] of its transpose (see
//! [`Csr::transpose`]). Construction and transposition run on `mixen-pool`:
//! degree counting uses per-part histograms, placement uses atomic cursors,
//! and per-row sorting is embarrassingly parallel.

use crate::nid;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::error::GraphError;
use crate::NodeId;

/// Compressed sparse row adjacency structure.
///
/// Invariants (checked by [`Csr::validate`] and the test suite):
/// * `ptr.len() == n + 1`, `ptr[0] == 0`, `ptr[n] == idx.len()`,
/// * `ptr` is non-decreasing,
/// * every entry of `idx` is `< n_cols`,
/// * each row's slice of `idx` is sorted ascending.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Csr {
    n_rows: usize,
    n_cols: usize,
    ptr: Box<[usize]>,
    idx: Box<[NodeId]>,
}

impl Csr {
    /// Builds a CSR from an unsorted edge slice. Duplicate edges are kept;
    /// use [`crate::EdgeList`] to deduplicate first if a simple graph is
    /// required. Row/column counts are both `n` (square adjacency).
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        Self::from_edges_rect(n, n, edges)
    }

    /// Builds a rectangular CSR (`n_rows x n_cols`) from an edge slice.
    pub fn from_edges_rect(n_rows: usize, n_cols: usize, edges: &[(NodeId, NodeId)]) -> Self {
        debug_assert!(
            edges
                .iter()
                .all(|&(s, d)| (s as usize) < n_rows && (d as usize) < n_cols),
            "edge endpoint out of range"
        );
        let ptr = prefix_sum(&count_rows(n_rows, edges, |&(s, _)| s));
        let mut idx = vec![0 as NodeId; edges.len()].into_boxed_slice();
        let cursors = row_cursors(&ptr[..n_rows]);
        {
            // SAFETY-free parallel placement: each edge reserves a distinct
            // slot via its row cursor; slots never overlap because cursors
            // start at row offsets and each row's reservation count equals
            // its degree.
            let idx_cell = SliceWriter::new(&mut idx);
            mixen_pool::par_range(0..edges.len(), |e| {
                let (s, d) = edges[e];
                // ordering: the cursor only reserves a unique slot; the
                // written values are published by the pool scope's
                // Release/Acquire completion below.
                let slot = cursors[s as usize].fetch_add(1, Ordering::Relaxed);
                idx_cell.write(slot, d);
            });
        }
        let mut csr = Self {
            n_rows,
            n_cols,
            ptr: ptr.into_boxed_slice(),
            idx,
        };
        csr.sort_rows();
        csr
    }

    /// Builds a CSR by asking `row` to emit the neighbours of each row into a
    /// scratch vector (parallel over rows). Rows are sorted automatically.
    /// This is how Mixen extracts its sub-CSRs directly from an existing
    /// graph without a format conversion.
    pub fn from_row_fn<F>(n_rows: usize, n_cols: usize, row: F) -> Self
    where
        F: Fn(NodeId, &mut Vec<NodeId>) + Sync,
    {
        let rows: Vec<Vec<NodeId>> = mixen_pool::par_parts(n_rows, |part| {
            part.map(|u| {
                let mut scratch = Vec::new();
                row(nid(u), &mut scratch);
                scratch.sort_unstable();
                debug_assert!(scratch.iter().all(|&v| (v as usize) < n_cols));
                scratch
            })
            .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        let mut ptr = Vec::with_capacity(n_rows + 1);
        ptr.push(0usize);
        let mut acc = 0usize;
        for r in &rows {
            acc += r.len();
            ptr.push(acc);
        }
        let mut idx = Vec::with_capacity(acc);
        for r in rows {
            idx.extend_from_slice(&r);
        }
        Self {
            n_rows,
            n_cols,
            ptr: ptr.into_boxed_slice(),
            idx: idx.into_boxed_slice(),
        }
    }

    /// Assembles a CSR from raw parts, checking every structural invariant
    /// (monotone `ptr`, `ptr[0] == 0`, `ptr[n] == idx.len()`, in-range and
    /// row-sorted `idx`). This is the entry point for untrusted data.
    pub fn try_from_parts(
        n_cols: usize,
        ptr: Vec<usize>,
        idx: Vec<NodeId>,
    ) -> Result<Self, GraphError> {
        let csr = Self {
            n_rows: ptr.len().saturating_sub(1),
            n_cols,
            ptr: ptr.into_boxed_slice(),
            idx: idx.into_boxed_slice(),
        };
        csr.validate()?;
        Ok(csr)
    }

    /// Assembles a CSR from raw parts. Panics if the invariants do not hold;
    /// use [`Csr::try_from_parts`] for untrusted data.
    pub fn from_parts(n_cols: usize, ptr: Vec<usize>, idx: Vec<NodeId>) -> Self {
        // lint: allow(panic) reason=documented panicking constructor for trusted inputs
        Self::try_from_parts(n_cols, ptr, idx).expect("invalid CSR parts")
    }

    /// An empty square CSR over `n` nodes.
    pub fn empty(n: usize) -> Self {
        Self {
            n_rows: n,
            n_cols: n,
            ptr: vec![0; n + 1].into_boxed_slice(),
            idx: Box::new([]),
        }
    }

    /// Number of rows (source nodes).
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns (destination nodes).
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored entries (edges).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.idx.len()
    }

    /// Degree of row `u` (out-degree when this CSR stores out-edges).
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.ptr[u as usize + 1] - self.ptr[u as usize]
    }

    /// The sorted neighbours of row `u`.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.idx[self.ptr[u as usize]..self.ptr[u as usize + 1]]
    }

    /// The row-pointer array (`n_rows + 1` entries).
    #[inline]
    pub fn ptr(&self) -> &[usize] {
        &self.ptr
    }

    /// The concatenated column-index array.
    #[inline]
    pub fn idx(&self) -> &[NodeId] {
        &self.idx
    }

    /// Heap bytes used by the pointer and index arrays.
    pub fn memory_bytes(&self) -> usize {
        self.ptr.len() * std::mem::size_of::<usize>()
            + self.idx.len() * std::mem::size_of::<NodeId>()
    }

    /// Iterates all `(row, col)` entries in row-major order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..nid(self.n_rows)).flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Transposes the matrix in parallel: counting pass, prefix sum, atomic
    /// scatter, then per-row sort. The result's rows are the columns of
    /// `self`.
    pub fn transpose(&self) -> Self {
        let ptr = prefix_sum(&count_rows(self.n_cols, &self.idx, |&v| v));
        let mut idx = vec![0 as NodeId; self.nnz()].into_boxed_slice();
        let cursors = row_cursors(&ptr[..self.n_cols]);
        {
            let idx_cell = SliceWriter::new(&mut idx);
            mixen_pool::par_range(0..self.n_rows, |u| {
                for &v in &self.idx[self.ptr[u]..self.ptr[u + 1]] {
                    // ordering: slot reservation only, as in from_edges_rect.
                    let slot = cursors[v as usize].fetch_add(1, Ordering::Relaxed);
                    idx_cell.write(slot, nid(u));
                }
            });
        }
        let mut t = Self {
            n_rows: self.n_cols,
            n_cols: self.n_rows,
            ptr: ptr.into_boxed_slice(),
            idx,
        };
        t.sort_rows();
        t
    }

    /// Checks every structural invariant; reports the first violation as a
    /// [`GraphError::Invariant`].
    pub fn validate(&self) -> Result<(), GraphError> {
        let invariant = |msg: String| Err(GraphError::Invariant(msg));
        if self.ptr.len() != self.n_rows + 1 {
            return invariant(format!(
                "ptr length {} != n_rows + 1 = {}",
                self.ptr.len(),
                self.n_rows + 1
            ));
        }
        if self.ptr[0] != 0 {
            return invariant("ptr[0] != 0".into());
        }
        if self.ptr[self.n_rows] != self.idx.len() {
            return invariant(format!(
                "ptr[n] = {} != nnz = {}",
                self.ptr[self.n_rows],
                self.idx.len()
            ));
        }
        for w in self.ptr.windows(2) {
            if w[0] > w[1] {
                return invariant("ptr not monotone".into());
            }
        }
        if let Some(&bad) = self.idx.iter().find(|&&v| v as usize >= self.n_cols) {
            return invariant(format!("column index {bad} out of range {}", self.n_cols));
        }
        for u in 0..self.n_rows {
            let row = &self.idx[self.ptr[u]..self.ptr[u + 1]];
            if row.windows(2).any(|w| w[0] > w[1]) {
                return invariant(format!("row {u} not sorted"));
            }
        }
        Ok(())
    }

    fn sort_rows(&mut self) {
        let ptr = std::mem::take(&mut self.ptr);
        let idx = &mut self.idx;
        // Split the index array sequentially into per-row `&mut [NodeId]`
        // slices (unsafe-free), then sort the rows independently.
        let mut rows: Vec<&mut [NodeId]> = Vec::with_capacity(self.n_rows);
        let mut rest: &mut [NodeId] = idx;
        let mut prev = 0usize;
        for &p in ptr[1..].iter() {
            let (row, tail) = rest.split_at_mut(p - prev);
            rows.push(row);
            rest = tail;
            prev = p;
        }
        mixen_pool::par_parts_mut(&mut rows, |_, part| {
            part.iter_mut().for_each(|row| row.sort_unstable());
        });
        self.ptr = ptr;
    }
}

/// Shared writable view of a slice used for disjoint-slot parallel writes.
///
/// Every writer must target a distinct index; the constructors in this module
/// guarantee that by reserving slots through atomic cursors.
///
/// Under `debug_assertions` or the `race-detector` feature, a shadow
/// ownership map records every written slot and the writer panics on an
/// overlapping or double write — turning a silent data race into a loud,
/// attributable failure.
pub(crate) struct SliceWriter<'a, T> {
    ptr: *mut T,
    len: usize,
    /// Shadow ownership map, routed through [`crate::msync`] so
    /// `model-check` builds explore the claim protocol itself.
    #[cfg(any(debug_assertions, feature = "race-detector"))]
    claimed: Box<[crate::msync::atomic::AtomicU8]>,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: SliceWriter is a raw-pointer view of a `&mut [T]` whose lifetime it
// captures, so the underlying buffer outlives it; sending it to another
// thread moves only the pointer and is safe whenever `T: Send` (the values
// written cross threads).
unsafe impl<T: Send> Send for SliceWriter<'_, T> {}
// SAFETY: sharing `&SliceWriter` across threads is safe because the only
// mutation path is `write`, which bounds-checks and requires callers to
// reserve distinct slots through atomic cursors — concurrent writes never
// alias, and no method reads the buffer.
unsafe impl<T: Send> Sync for SliceWriter<'_, T> {}

impl<'a, T> SliceWriter<'a, T> {
    pub(crate) fn new(slice: &'a mut [T]) -> Self {
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            #[cfg(any(debug_assertions, feature = "race-detector"))]
            claimed: (0..slice.len())
                .map(|_| crate::msync::atomic::AtomicU8::new(0))
                .collect(),
            _marker: std::marker::PhantomData,
        }
    }

    #[inline]
    pub(crate) fn write(&self, i: usize, value: T) {
        assert!(i < self.len);
        #[cfg(any(debug_assertions, feature = "race-detector"))]
        // ordering: the claim byte is a diagnostic tripwire — the buffer
        // itself is published by the construction's pool scope, so the swap
        // needs only same-location atomicity to expose a double write.
        if self.claimed[i].swap(1, Ordering::Relaxed) != 0 {
            // lint: allow(panic) reason=race detector turning a violated disjoint-write contract into a diagnosable failure
            panic!("SliceWriter race detected: slot {i} written more than once");
        }
        // SAFETY: `i < len` is checked above, and callers reserve distinct
        // slots via atomic fetch_add so no two threads write the same index.
        unsafe { self.ptr.add(i).write(value) }
    }
}

/// One atomic slot cursor per row, starting at the row's `ptr` offset.
fn row_cursors(starts: &[usize]) -> Vec<AtomicUsize> {
    mixen_pool::par_parts(starts.len(), |part| {
        starts[part]
            .iter()
            .map(|&p| AtomicUsize::new(p))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Parallel degree count: one histogram per [`mixen_pool::split`] part of
/// `items`, summed per row. Every histogram comes from the calling thread's
/// allocator, never a pool worker's (see `StaticBin::compute` in
/// `mixen-core` for what worker-side `n`-length allocations cost).
fn count_rows<T: Sync>(n: usize, items: &[T], row_of: impl Fn(&T) -> NodeId + Sync) -> Vec<usize> {
    let parts: Vec<_> = mixen_pool::split(items.len()).collect();
    let mut hists: Vec<Vec<usize>> = parts.iter().map(|_| vec![0usize; n]).collect();
    mixen_pool::par_parts_mut(&mut hists, |first, hists| {
        for (hist, part) in hists.iter_mut().zip(&parts[first..]) {
            for item in &items[part.clone()] {
                hist[row_of(item) as usize] += 1;
            }
        }
    });
    let mut hists = hists.into_iter();
    let mut total = hists.next().unwrap_or_default();
    let rest: Vec<Vec<usize>> = hists.collect();
    if !rest.is_empty() {
        mixen_pool::par_parts_mut(&mut total, |lo, out| {
            for hist in &rest {
                out.iter_mut().zip(&hist[lo..]).for_each(|(x, y)| *x += y);
            }
        });
    }
    total
}

/// Exclusive prefix sum producing a `len + 1` pointer array.
pub fn prefix_sum(counts: &[usize]) -> Vec<usize> {
    let mut ptr = Vec::with_capacity(counts.len() + 1);
    let mut acc = 0usize;
    ptr.push(0);
    for &c in counts {
        acc += c;
        ptr.push(acc);
    }
    ptr
}

/// Model probes over the CSR construction write path, compiled only under
/// `model-check`.
#[cfg(feature = "model-check")]
pub mod mc {
    use super::SliceWriter;

    /// A leaked [`SliceWriter`] over a small `u32` buffer, exposing the
    /// disjoint-slot write contract to `mixen-check` model tests:
    /// concurrent model threads race `try_write` on the same slot and the
    /// checker proves the shadow map catches every overlap under every
    /// schedule.
    #[derive(Clone, Copy)]
    pub struct SliceWriterProbe {
        writer: &'static SliceWriter<'static, u32>,
    }

    impl SliceWriterProbe {
        /// Builds a probe over a fresh leaked `len`-slot buffer (leaking
        /// keeps the probe `'static` and trivially shareable across model
        /// threads; model tests are short-lived processes).
        pub fn new(len: usize) -> Self {
            let buf: &'static mut [u32] = Vec::leak(vec![0; len]);
            let writer = Box::leak(Box::new(SliceWriter::new(buf)));
            SliceWriterProbe { writer }
        }

        /// Writes `value` into `slot` exactly as a construction task would.
        /// Returns `true` when this writer legitimately owned the slot and
        /// `false` when the race detector caught an overlapping write.
        pub fn try_write(&self, slot: usize, value: u32) -> bool {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.writer.write(slot, value);
            }))
            .is_ok()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The race detector must catch an intentionally overlapping write.
    #[test]
    #[cfg(any(debug_assertions, feature = "race-detector"))]
    #[should_panic(expected = "SliceWriter race detected")]
    fn race_detector_catches_double_write() {
        let mut buf = vec![0u32; 8];
        let w = SliceWriter::new(&mut buf);
        w.write(3, 1);
        w.write(3, 2); // same slot twice — a violated disjoint-write contract
    }

    /// Seeded stress: thousands of concurrent disjoint writes through the
    /// shadow map must neither panic nor lose a value.
    #[test]
    fn race_detector_stress_disjoint_writes_are_clean() {
        use rand::prelude::*;
        let n = 1 << 14;
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rng);
        let mut buf = vec![u32::MAX; n];
        {
            let w = SliceWriter::new(&mut buf);
            let cursor = AtomicUsize::new(0);
            mixen_pool::par_range(0..n, |_| {
                let k = cursor.fetch_add(1, Ordering::Relaxed);
                let slot = order[k];
                w.write(slot, nid(slot).wrapping_mul(2654435761));
            });
        }
        for (i, &v) in buf.iter().enumerate() {
            assert_eq!(v, nid(i).wrapping_mul(2654435761));
        }
    }

    fn toy() -> Csr {
        // 0 -> 1, 0 -> 2, 2 -> 0, 3 -> 3 (self loop), plus node 1 with no out.
        Csr::from_edges(4, &[(3, 3), (0, 2), (2, 0), (0, 1)])
    }

    #[test]
    fn builds_sorted_rows() {
        let c = toy();
        assert_eq!(c.n_rows(), 4);
        assert_eq!(c.nnz(), 4);
        assert_eq!(c.neighbors(0), &[1, 2]);
        assert_eq!(c.neighbors(1), &[] as &[NodeId]);
        assert_eq!(c.neighbors(2), &[0]);
        assert_eq!(c.neighbors(3), &[3]);
        c.validate().unwrap();
    }

    #[test]
    fn degree_matches_row_len() {
        let c = toy();
        for u in 0..4u32 {
            assert_eq!(c.degree(u), c.neighbors(u).len());
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let c = toy();
        let t = c.transpose();
        t.validate().unwrap();
        assert_eq!(t.neighbors(0), &[2]);
        assert_eq!(t.neighbors(1), &[0]);
        assert_eq!(t.neighbors(2), &[0]);
        assert_eq!(t.neighbors(3), &[3]);
        let back = t.transpose();
        assert_eq!(back, c);
    }

    #[test]
    fn transpose_preserves_edge_multiset() {
        let edges = vec![(0, 1), (0, 1), (1, 0), (2, 2)];
        let c = Csr::from_edges(3, &edges);
        let t = c.transpose();
        let mut fwd: Vec<_> = c.edges().collect();
        let mut rev: Vec<_> = t.edges().map(|(a, b)| (b, a)).collect();
        fwd.sort_unstable();
        rev.sort_unstable();
        assert_eq!(fwd, rev);
    }

    #[test]
    fn empty_graph() {
        let c = Csr::empty(0);
        c.validate().unwrap();
        assert_eq!(c.nnz(), 0);
        let t = c.transpose();
        assert_eq!(t.n_rows(), 0);
    }

    #[test]
    fn rectangular_build_and_transpose() {
        let c = Csr::from_edges_rect(2, 5, &[(0, 4), (1, 3), (0, 0)]);
        assert_eq!(c.n_rows(), 2);
        assert_eq!(c.n_cols(), 5);
        let t = c.transpose();
        assert_eq!(t.n_rows(), 5);
        assert_eq!(t.n_cols(), 2);
        assert_eq!(t.neighbors(4), &[0]);
    }

    #[test]
    fn prefix_sum_basics() {
        assert_eq!(prefix_sum(&[]), vec![0]);
        assert_eq!(prefix_sum(&[2, 0, 3]), vec![0, 2, 2, 5]);
    }

    #[test]
    fn from_row_fn_matches_from_edges() {
        let edges = vec![(0u32, 2u32), (0, 1), (2, 0), (1, 1)];
        let a = Csr::from_edges(3, &edges);
        let b = Csr::from_row_fn(3, 3, |u, out| {
            out.extend(edges.iter().filter(|&&(s, _)| s == u).map(|&(_, d)| d));
        });
        assert_eq!(a, b);
    }

    #[test]
    fn from_parts_validates() {
        let c = Csr::from_parts(3, vec![0, 1, 1, 2], vec![2, 0]);
        assert_eq!(c.neighbors(0), &[2]);
    }

    #[test]
    #[should_panic(expected = "invalid CSR parts")]
    fn from_parts_rejects_bad_ptr() {
        let _ = Csr::from_parts(3, vec![0, 2, 1, 2], vec![2, 0]);
    }

    #[test]
    fn large_random_build_parallel_consistency() {
        // Deterministic pseudo-random edges; check ptr sums and sortedness.
        let n = 1000usize;
        let mut x = 0x2545F4914F6CDD1Du64;
        let mut edges = Vec::new();
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let s = (x >> 32) as u32 % n as u32;
            let d = x as u32 % n as u32;
            edges.push((s, d));
        }
        let c = Csr::from_edges(n, &edges);
        c.validate().unwrap();
        assert_eq!(c.nnz(), edges.len());
        let mut got: Vec<_> = c.edges().collect();
        let mut want = edges.clone();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }
}
