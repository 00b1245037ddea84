//! Compressed sparse row storage.
//!
//! A [`Csr`] stores, for each of `n` rows, a sorted run of column indices.
//! Interpreted as a graph it is the out-adjacency of a directed graph; the
//! CSC of the same graph is the [`Csr`] of its transpose (see
//! [`Csr::transpose`]).
//!
//! Construction and transposition are count → prefix-sum → fill on
//! `mixen-pool`, race-free by ownership (DESIGN.md DR-11): every task owns one
//! contiguous range of *output* rows, receives that range's counters and
//! entries as `&mut` chunks, and scans the whole input for what lands there.
//! Entries are placed in input order, so the result is a pure function of the
//! input — whatever the lane count or the schedule. The transpose's two
//! halves are separate steps (the column count, `ColumnCounts`, and
//! `transpose_fill`), so a [`crate::Graph`] can hold in-degrees without the
//! in-CSC (DESIGN.md DR-16), and [`Csr::from_fill`] lends the fill step to
//! callers that count their rows themselves.

use std::ops::Range;

use crate::error::GraphError;
use crate::{nid, NodeId};

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
    /// Panics on an endpoint outside the matrix.
    pub fn from_edges_rect(n_rows: usize, n_cols: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let check = |e: &(NodeId, NodeId)| {
            assert!(
                (e.0 as usize) < n_rows && (e.1 as usize) < n_cols,
                "edge endpoint out of range: {e:?} in a {n_rows} x {n_cols} matrix"
            );
        };
        // `get_mut` on the wrapped difference is the ownership test: it is
        // `Some` exactly for sources inside the task's row range.
        let ptr = par_count(n_rows, |first, counts| {
            for e in edges {
                if let Some(c) = counts.get_mut((e.0 as usize).wrapping_sub(first)) {
                    check(e);
                    *c += 1;
                }
            }
        });
        // A source past the last row is owned, and so counted, by no task.
        if ptr[n_rows] != edges.len() {
            edges.iter().for_each(check);
        }
        // The input is unordered, so [`Csr::from_fill`] sorts each row after
        // the task that owns it has placed it.
        Self::from_fill(n_cols, ptr, |rows, cursors, idx| {
            for &(s, d) in edges {
                if let Some(c) = cursors.get_mut((s as usize).wrapping_sub(rows.start)) {
                    idx[*c] = d;
                    *c += 1;
                }
            }
        })
    }

    /// DR-11's fill step as a constructor, for a caller that has already
    /// counted its rows: `ptr` holds the row pointers, and `fill(rows,
    /// cursors, idx)` runs once per pool lane on a contiguous range of rows
    /// cut at near-equal entry counts. `idx` is that range's entries and
    /// `cursors[r - rows.start]` the next free index into `idx` of row `r`.
    /// The fill must place exactly `ptr[r + 1] - ptr[r]` entries below
    /// `n_cols` in every row `r` of its range, in any order: each row is
    /// sorted afterwards, by the task that placed it. `ptr` must be a row
    /// pointer array (`ptr[0] == 0`, non-decreasing); entries are checked
    /// against `n_cols` in debug builds only.
    pub fn from_fill(
        n_cols: usize,
        ptr: Vec<usize>,
        fill: impl Fn(Range<usize>, &mut [usize], &mut [NodeId]) + Sync,
    ) -> Self {
        let nnz = ptr.last().copied().unwrap_or(0);
        let mut idx = vec![0 as NodeId; nnz].into_boxed_slice();
        // No value rides along: the per-entry payload is a slice of `()`.
        par_fill(
            &ptr,
            &mut idx,
            &mut vec![(); nnz],
            |rows, cursors, idx, _| {
                fill(rows.clone(), cursors, idx);
                let (first, base) = (rows.start, ptr[rows.start]);
                for r in rows {
                    debug_assert_eq!(
                        cursors[r - first],
                        ptr[r + 1] - base,
                        "row {r} left unfilled"
                    );
                    idx[ptr[r] - base..ptr[r + 1] - base].sort_unstable();
                }
            },
        );
        debug_assert!(idx.iter().all(|&v| (v as usize) < n_cols));
        Self {
            n_rows: ptr.len() - 1,
            n_cols,
            ptr: ptr.into_boxed_slice(),
            idx,
        }
    }

    /// Builds a CSR by asking `row` to emit the neighbours of each row into a
    /// scratch vector (parallel over rows). Rows are sorted automatically.
    /// This is how Mixen extracts its sub-CSRs directly from an existing
    /// graph without a format conversion.
    pub fn from_row_fn<F>(n_rows: usize, n_cols: usize, row: F) -> Self
    where
        F: Fn(NodeId, &mut Vec<NodeId>) + Sync,
    {
        // One `(row lengths, entries)` buffer per part, not one vector per row.
        let parts = mixen_pool::par_parts(n_rows, |part| {
            let mut lens = Vec::with_capacity(part.len());
            let (mut idx, mut scratch) = (Vec::new(), Vec::new());
            for u in part {
                scratch.clear();
                row(nid(u), &mut scratch);
                scratch.sort_unstable();
                debug_assert!(scratch.iter().all(|&v| (v as usize) < n_cols));
                lens.push(scratch.len());
                idx.extend_from_slice(&scratch);
            }
            (lens, idx)
        });
        let lens: Vec<usize> = parts.iter().flat_map(|(lens, _)| lens).copied().collect();
        let ptr = prefix_sum(&lens);
        let mut idx = Vec::with_capacity(ptr[n_rows]);
        for (_, part) in &parts {
            idx.extend_from_slice(part);
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

    /// Transposes the matrix in parallel. The result's rows are the columns
    /// of `self`.
    pub fn transpose(&self) -> Self {
        self.transpose_with(&vec![(); self.nnz()]).0
    }

    /// [`Csr::transpose`] carrying one value per entry (`vals[e]` belongs to
    /// `idx[e]`) to the entry's place in the transpose.
    pub(crate) fn transpose_with<T>(&self, vals: &[T]) -> (Self, Box<[T]>)
    where
        T: Copy + Default + Send + Sync,
    {
        let mut columns = ColumnCounts::new(self.n_cols);
        columns.add(&self.idx);
        self.transpose_fill(columns.into_ptr(), vals)
    }

    /// The fill half of the transpose, given its row pointers `ptr` (from
    /// [`ColumnCounts`]). Walking the rows in order emits every output row
    /// already sorted.
    pub(crate) fn transpose_fill<T>(&self, ptr: Vec<usize>, vals: &[T]) -> (Self, Box<[T]>)
    where
        T: Copy + Default + Send + Sync,
    {
        assert_eq!(vals.len(), self.nnz());
        let mut idx = vec![0 as NodeId; self.nnz()].into_boxed_slice();
        let mut out = vec![T::default(); self.nnz()].into_boxed_slice();
        par_fill(&ptr, &mut idx, &mut out, |cols, cursors, idx, out| {
            for u in 0..self.n_rows {
                for e in self.col_run(u, &cols) {
                    let c = &mut cursors[self.idx[e] as usize - cols.start];
                    idx[*c] = nid(u);
                    out[*c] = vals[e];
                    *c += 1;
                }
            }
        });
        let t = Self {
            n_rows: self.n_cols,
            n_cols: self.n_rows,
            ptr: ptr.into_boxed_slice(),
            idx,
        };
        (t, out)
    }

    /// Entry positions of row `u` whose column lies in `cols`.
    fn col_run(&self, u: usize, cols: &Range<usize>) -> Range<usize> {
        let lo = self.ptr[u];
        let row = &self.idx[lo..self.ptr[u + 1]];
        lo + row.partition_point(|&v| (v as usize) < cols.start)
            ..lo + row.partition_point(|&v| (v as usize) < cols.end)
    }

    /// Checks every structural invariant; reports the first violation as a
    /// [`GraphError::Invariant`]. The column indices go through the same
    /// row validator (`RowCheck`) the MXG2 loader feeds one slab at a time.
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
        check_ptr_run(&mut 0, &self.ptr)?;
        if self.ptr[self.n_rows] != self.idx.len() {
            return invariant(format!(
                "ptr[n] = {} != nnz = {}",
                self.ptr[self.n_rows],
                self.idx.len()
            ));
        }
        RowCheck::new(&self.ptr, self.n_cols).feed(&self.idx)
    }

    /// Assembles a CSR from parts that have already passed every check
    /// [`Csr::validate`] makes (the MXG2 loader checks them as it decodes).
    pub(crate) fn from_checked_parts(n_cols: usize, ptr: Vec<usize>, idx: Vec<NodeId>) -> Self {
        let csr = Self {
            n_rows: ptr.len() - 1,
            n_cols,
            ptr: ptr.into_boxed_slice(),
            idx: idx.into_boxed_slice(),
        };
        debug_assert!(csr.validate().is_ok());
        csr
    }
}

/// Checks one run of row pointers, `prev` being the pointer before the run:
/// none decreases. Carries `prev` forward, so a pointer array can be checked
/// in pieces; `prev` starts at 0, and the caller checks that `ptr[0]` is 0.
pub(crate) fn check_ptr_run(prev: &mut usize, run: &[usize]) -> Result<(), GraphError> {
    let ok = run.first().is_none_or(|&p| p >= *prev)
        & run.windows(2).fold(true, |ok, w| ok & (w[0] <= w[1]));
    if !ok {
        return Err(GraphError::Invariant("ptr not monotone".into()));
    }
    *prev = run.last().copied().unwrap_or(*prev);
    Ok(())
}

/// The row validator: checks a CSR's column indices in order, run by run
/// (each run is the next stretch of `idx`, of any length): every entry below
/// `n_cols`, every row ascending. A row may span any number of runs. `ptr`
/// must already be checked (monotone, from 0 to at least the last entry fed).
pub(crate) struct RowCheck<'a> {
    ptr: &'a [usize],
    n_cols: usize,
    /// The first row whose start is not before `at`.
    row: usize,
    /// Position in `idx` of the next entry.
    at: usize,
    /// The entry before `at` (the previous run's last).
    last: NodeId,
}

impl<'a> RowCheck<'a> {
    pub(crate) fn new(ptr: &'a [usize], n_cols: usize) -> Self {
        Self {
            ptr,
            n_cols,
            row: 0,
            at: 0,
            last: 0,
        }
    }

    /// Checks the next `run.len()` entries of `idx`.
    ///
    /// Rows are ascending exactly when every *descent* (an entry below the
    /// one before it) opens a row. So the run is walked twice, branch-free
    /// and vectorised — once for the range, once counting descents — and
    /// then only the row starts inside it are visited, counting the descents
    /// there. The two counts are equal exactly when no row holds a descent:
    /// a short row costs one comparison, not a loop of its own (DESIGN.md
    /// DR-17 has the timings against a plain loop).
    pub(crate) fn feed(&mut self, run: &[NodeId]) -> Result<(), GraphError> {
        let Some(&first) = run.first() else {
            return Ok(());
        };
        let (start, end, cols) = (self.at, self.at + run.len(), self.n_cols);
        let in_range = run.iter().fold(true, |ok, &v| ok & ((v as usize) < cols));
        let descents = usize::from(first < self.last)
            + run
                .windows(2)
                .map(|w| usize::from(w[1] < w[0]))
                .sum::<usize>();
        let before = |p: usize| {
            if p == start {
                self.last
            } else {
                run[p - start - 1]
            }
        };
        let (rows, mut row, mut opening) = (self.ptr.len() - 1, self.row, 0);
        while row < rows && self.ptr[row] < end {
            let p = self.ptr[row];
            // An empty row opens nothing: its start is the next row's.
            if self.ptr[row + 1] > p {
                opening += usize::from(run[p - start] < before(p));
            }
            row += 1;
        }
        if !in_range || descents != opening {
            return Err(self.locate(run));
        }
        (self.row, self.at, self.last) = (row, end, run[run.len() - 1]);
        Ok(())
    }

    /// The first defect in `run`, which [`RowCheck::feed`] found to hold
    /// one: the plain entry-by-entry walk, carrying the row that holds each
    /// entry.
    fn locate(&self, run: &[NodeId]) -> GraphError {
        // Every row before `self.row` starts before `at`.
        let (mut row, mut prev) = (self.row.saturating_sub(1), self.last);
        for (p, &v) in (self.at..).zip(run) {
            if v as usize >= self.n_cols {
                return GraphError::Invariant(format!(
                    "column index {v} out of range {}",
                    self.n_cols
                ));
            }
            // Step to the row holding `p`, past any empty rows; the entry
            // that opens a row may be below the one before it.
            while self.ptr[row + 1] <= p {
                row += 1;
            }
            if v < prev && self.ptr[row] != p {
                return GraphError::Invariant(format!("row {row} not sorted"));
            }
            prev = v;
        }
        GraphError::Invariant("rows not sorted".into())
    }
}

/// The one column counter: column indices go in as any number of runs, the
/// transpose's row pointers come out — the in-degrees, prefix-summed, when
/// the matrix is an out-CSR. The MXG2 loader feeds it each slab while the
/// slab is in cache; [`crate::Graph::from_csr`] and [`Csr::transpose_with`]
/// feed it a whole `idx`.
///
/// Counts are `u32`, half the footprint of `usize` on the random increments
/// (DESIGN.md DR-17 has the timings). A count that wraps past `u32::MAX`
/// records its column in `wraps`, once per wrap, so the count is exact at
/// any size; only a column with 2^32 entries can get there.
pub(crate) struct ColumnCounts {
    counts: Vec<u32>,
    wraps: Vec<NodeId>,
}

impl ColumnCounts {
    pub(crate) fn new(n_cols: usize) -> Self {
        Self {
            counts: vec![0; n_cols],
            wraps: Vec::new(),
        }
    }

    /// Counts one run of column indices, each below `n_cols`.
    pub(crate) fn add(&mut self, idx: &[NodeId]) {
        for &v in idx {
            let c = &mut self.counts[v as usize];
            *c = c.wrapping_add(1);
            if *c == 0 {
                self.wraps.push(v);
            }
        }
    }

    /// The transpose's row pointers: the counts, prefix-summed.
    pub(crate) fn into_ptr(self) -> Vec<usize> {
        let mut ptr = Vec::with_capacity(self.counts.len() + 1);
        ptr.push(0);
        let mut acc = 0;
        ptr.extend(self.counts.iter().map(|&c| {
            acc += c as usize;
            acc
        }));
        // A wrap of column v adds 2^32 to every pointer after v.
        for v in self.wraps {
            for p in &mut ptr[v as usize + 1..] {
                *p += u32::MAX as usize + 1;
            }
        }
        ptr
    }
}

/// The counting step: `count(first, counts)` runs once per pool lane on one
/// contiguous chunk of a zeroed `n`-entry array, `first` being the output row
/// of `counts[0]`, and adds what the input holds for those rows. Returns the
/// prefix-summed row pointers.
fn par_count(n: usize, count: impl Fn(usize, &mut [usize]) + Sync) -> Vec<usize> {
    let mut counts = vec![0usize; n];
    let chunk = n.div_ceil(mixen_pool::current_num_threads()).max(1);
    mixen_pool::par_chunks_mut(&mut counts, chunk, |part, counts| {
        count(part * chunk, counts)
    });
    prefix_sum(&counts)
}

/// The fill step: cuts the output rows of `ptr` into one range per pool lane
/// at near-equal *entry* counts (range `p` starts at the first row whose
/// entries begin at or after `nnz · p / lanes`, as `bins::edge_cuts` in
/// `mixen-core` cuts seed rows — one hub column must not be one lane's whole
/// share) and runs `fill(rows, cursors, idx, vals)` on each range that owns
/// an entry. `idx` and `vals` are the range's entries, and
/// `cursors[r - rows.start]` starts at `ptr[r] - ptr[rows.start]`, the index
/// in them of the next free slot of row `r`.
fn par_fill<T: Send>(
    ptr: &[usize],
    idx: &mut [NodeId],
    vals: &mut [T],
    fill: impl Fn(Range<usize>, &mut [usize], &mut [NodeId], &mut [T]) + Sync,
) {
    let (n, nnz) = (ptr.len() - 1, idx.len());
    let lanes = mixen_pool::current_num_threads();
    let cut = |p: usize| {
        if p == lanes {
            n
        } else {
            ptr.partition_point(|&e| e < nnz * p / lanes)
        }
    };
    let mut cursors = ptr[..n].to_vec();
    let (mut cursors, mut idx, mut vals) = (&mut cursors[..], idx, vals);
    mixen_pool::scope(|s| {
        for rows in (0..lanes).map(|p| cut(p)..cut(p + 1)) {
            let (base, len) = (ptr[rows.start], ptr[rows.end] - ptr[rows.start]);
            let (c, i, v);
            (c, cursors) = std::mem::take(&mut cursors).split_at_mut(rows.len());
            (i, idx) = std::mem::take(&mut idx).split_at_mut(len);
            (v, vals) = std::mem::take(&mut vals).split_at_mut(len);
            if len > 0 {
                let fill = &fill;
                s.spawn(move || {
                    c.iter_mut().for_each(|c| *c -= base);
                    fill(rows, c, i, v)
                });
            }
        }
    });
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

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Serial reference the owned placement must reproduce bit for bit: sort
    /// the pairs, read the CSR off them.
    fn by_sorting(n_rows: usize, n_cols: usize, edges: &[(NodeId, NodeId)]) -> Csr {
        let mut sorted = edges.to_vec();
        sorted.sort_unstable();
        let mut counts = vec![0usize; n_rows];
        for &(s, _) in &sorted {
            counts[s as usize] += 1;
        }
        let idx = sorted.iter().map(|&(_, d)| d).collect();
        Csr::from_parts(n_cols, prefix_sum(&counts), idx)
    }

    fn xorshift_edges(n_rows: u32, n_cols: u32, m: usize) -> Vec<(NodeId, NodeId)> {
        let mut x = 0x2545F4914F6CDD1Du64;
        (0..m)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ((x >> 32) as u32 % n_rows, x as u32 % n_cols)
            })
            .collect()
    }

    /// `(n_rows, n_cols, edges)`.
    type Shape = (usize, usize, Vec<(NodeId, NodeId)>);

    /// Shapes that stress the range cuts.
    fn shapes() -> Vec<Shape> {
        let hub_column = (0..40).map(|s| (s, 3)).collect();
        let hub_row = (0..40).map(|d| (3, d)).collect();
        // Columns 0 and 99 hold every edge: both the equal-column cut of the
        // count pass and the equal-entry cut of the fill pass land inside the
        // run of empty columns between them.
        let far_apart = (0..30).map(|s| (s, if s % 2 == 0 { 0 } else { 99 }));
        vec![
            (0, 0, vec![]),
            (0, 5, vec![]),
            (5, 0, vec![]),
            (4, 4, vec![]),
            (1, 1, vec![(0, 0), (0, 0), (0, 0)]),
            (2, 3, vec![(1, 2), (0, 0), (1, 0)]),
            (2, 9, vec![(0, 8), (1, 3), (0, 0), (1, 8)]),
            (9, 2, vec![(8, 0), (3, 1), (0, 0), (8, 1)]),
            (3, 3, vec![(0, 1), (0, 1), (1, 0), (2, 2), (0, 1), (2, 2)]),
            (40, 8, hub_column),
            (8, 40, hub_row),
            (30, 100, far_apart.clone().collect()),
            (100, 30, far_apart.map(|(s, d)| (d, s)).collect()),
            (50, 70, xorshift_edges(50, 70, 3000)),
        ]
    }

    #[test]
    fn construction_is_the_same_at_every_lane_count() {
        for (n_rows, n_cols, edges) in shapes() {
            let want = by_sorting(n_rows, n_cols, &edges);
            let flipped: Vec<_> = edges.iter().map(|&(s, d)| (d, s)).collect();
            let want_t = by_sorting(n_cols, n_rows, &flipped);
            for threads in [1, 2, 4, 7] {
                mixen_pool::with_threads(threads, || {
                    let got = Csr::from_edges_rect(n_rows, n_cols, &edges);
                    got.validate().unwrap();
                    assert_eq!(got, want, "{n_rows} x {n_cols}, {threads} lanes");
                    let t = got.transpose();
                    t.validate().unwrap();
                    assert_eq!(t, want_t, "{n_rows} x {n_cols}, {threads} lanes");
                    assert_eq!(t.transpose(), got, "{n_rows} x {n_cols}, {threads} lanes");
                });
            }
        }
    }

    #[test]
    fn edge_order_does_not_change_the_result() {
        let mut rng = crate::rng::SplitMix64::new(0x5eed);
        for (n_rows, n_cols, mut edges) in shapes() {
            let want = Csr::from_edges_rect(n_rows, n_cols, &edges);
            for _ in 0..3 {
                rng.shuffle(&mut edges);
                let got =
                    mixen_pool::with_threads(2, || Csr::from_edges_rect(n_rows, n_cols, &edges));
                assert_eq!(got, want, "{n_rows} x {n_cols}");
            }
        }
    }

    #[test]
    fn transpose_carries_each_value_to_its_entry() {
        let edges = xorshift_edges(50, 70, 3000);
        let c = Csr::from_edges_rect(50, 70, &edges);
        // The value of an entry names the entry: its (row, column) pair.
        let vals: Vec<(NodeId, NodeId)> = c.edges().collect();
        for threads in [1, 2, 4, 7] {
            let (t, moved) = mixen_pool::with_threads(threads, || c.transpose_with(&vals));
            assert_eq!(t, c.transpose());
            let want: Vec<_> = t.edges().map(|(col, row)| (row, col)).collect();
            assert_eq!(&moved[..], &want[..], "{threads} lanes");
        }
    }

    #[test]
    fn column_counts_stay_exact_past_u32_max() {
        let mut c = ColumnCounts::new(4);
        // Column 1 one short of wrapping, as 2^32 - 1 entries would leave it.
        c.counts[1] = u32::MAX;
        c.add(&[1, 3]);
        c.add(&[1, 1, 0]);
        let wrap = u32::MAX as usize + 1;
        assert_eq!(c.wraps, [1]);
        assert_eq!(c.into_ptr(), [0, 1, wrap + 3, wrap + 3, wrap + 4]);
        // Fed in runs, the counts are the transpose's row pointers.
        let t = Csr::from_edges_rect(50, 70, &xorshift_edges(50, 70, 3000));
        let mut c = ColumnCounts::new(70);
        let (a, b) = t.idx().split_at(1234);
        c.add(a);
        c.add(b);
        let mut want = vec![0; 71];
        for (_, v) in t.edges() {
            want[v as usize + 1] += 1;
        }
        let want: Vec<usize> = want
            .iter()
            .scan(0, |acc, &d| {
                *acc += d;
                Some(*acc)
            })
            .collect();
        assert_eq!(c.into_ptr(), want);
    }

    #[test]
    fn the_row_check_finds_the_same_defects_however_idx_is_cut() {
        let mut rng = crate::rng::SplitMix64::new(0x20c4);
        let c = Csr::from_edges_rect(50, 70, &xorshift_edges(50, 70, 3000));
        let feed = |idx: &[NodeId], cuts: &[usize]| {
            let mut check = RowCheck::new(c.ptr(), c.n_cols());
            cuts.windows(2)
                .try_for_each(|w| check.feed(&idx[w[0]..w[1]]))
        };
        for _ in 0..100 {
            let mut cuts: Vec<usize> = (0..rng.below(8))
                .map(|_| rng.below(c.nnz() as u64 + 1) as usize)
                .collect();
            cuts.extend([0, c.nnz()]);
            cuts.sort_unstable();
            feed(c.idx(), &cuts).unwrap();
            // A descent inside a row, an index past the last column.
            let row = (0..50).find(|&u| c.degree(u) >= 2 && c.neighbors(u)[0] > 0);
            let at = c.ptr()[row.unwrap() as usize] + 1;
            let mut bad = c.idx().to_vec();
            bad[at] = bad[at - 1] - 1;
            let err = feed(&bad, &cuts).unwrap_err();
            assert!(err.to_string().contains("not sorted"), "{err}");
            let mut bad = c.idx().to_vec();
            bad[rng.below(c.nnz() as u64) as usize] = 70;
            let err = feed(&bad, &cuts).unwrap_err();
            assert!(err.to_string().contains("out of range"), "{err}");
        }
    }

    // The two bounds tests hold in every build profile (`cargo test --release`
    // included): an out-of-range endpoint would otherwise reach kernels that
    // index unchecked.
    #[test]
    #[should_panic(expected = "edge endpoint out of range: (1, 3)")]
    fn from_edges_rect_rejects_a_destination_past_the_last_column() {
        let _ = Csr::from_edges_rect(2, 3, &[(0, 1), (1, 3), (1, 0)]);
    }

    #[test]
    #[should_panic(expected = "edge endpoint out of range: (2, 0)")]
    fn from_edges_rect_rejects_a_source_past_the_last_row() {
        let _ = Csr::from_edges_rect(2, 3, &[(0, 1), (2, 0), (1, 0)]);
    }

    #[test]
    fn large_random_build_parallel_consistency() {
        // Deterministic pseudo-random edges; check ptr sums and sortedness.
        let n = 1000usize;
        let edges = xorshift_edges(1000, 1000, 20_000);
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
