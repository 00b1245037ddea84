//! Node property values propagated by the engines.
//!
//! Link-analysis algorithms stream one value per node along the edges and
//! combine arriving values with a commutative monoid. [`PropValue`] captures
//! exactly what every engine (Mixen, Pull, Push, Block, …) needs:
//!
//! * `f32` with `+`/`0` — InDegree, PageRank, HITS, SALSA (the paper's
//!   32-bit property type),
//! * `[f32; K]` with element-wise `+` — Collaborative Filtering's latent
//!   vectors (the SpMV generalization of InDegree, §6.1),
//! * `f32` with `min`/`+inf` — BFS-style distance relaxation (via
//!   [`MinF32`]).

use crate::{nid, Graph, NodeId};

/// A value that can be propagated along edges and combined at destinations.
///
/// The combine operation must be commutative and associative with
/// [`PropValue::identity`] as the neutral element; engines rely on this to
/// reorder and block the reduction freely.
pub trait PropValue: Copy + Send + Sync + PartialEq + std::fmt::Debug + 'static {
    /// Neutral element of [`PropValue::combine`].
    fn identity() -> Self;
    /// Folds `other` into `self`.
    fn combine(&mut self, other: Self);
    /// Distance between two values, used for convergence checks and
    /// cross-engine comparisons.
    fn abs_diff(a: Self, b: Self) -> f64;

    /// Applies an edge weight to a message, paired with this value's
    /// combine monoid to form a semiring: multiplicative for sum-monoids
    /// (weighted SpMV, `(+, ×)`), additive for the min monoid (tropical
    /// `(min, +)` — shortest-path relaxation).
    fn scale_edge(self, w: f32) -> Self;

    /// Whether the value can round-trip through the 16-bit compressed
    /// dynamic-bin encodings (Mixen's `BinEncoding::{F16, Q16}`). Only
    /// single-`f32` property types opt in; for every other type the
    /// engines silently keep full-width streams and never call the
    /// conversion hooks below.
    const ENCODABLE: bool = false;

    /// Projects the value to the `f32` the compressed encodings store.
    /// Meaningful only when [`PropValue::ENCODABLE`]; the default is a
    /// placeholder that is never reached by the engines.
    #[inline]
    fn to_stream_f32(self) -> f32 {
        0.0
    }

    /// Rebuilds a value from a (possibly lossy) streamed `f32`. Meaningful
    /// only when [`PropValue::ENCODABLE`]; see [`PropValue::to_stream_f32`].
    #[inline]
    fn from_stream_f32(_v: f32) -> Self {
        Self::identity()
    }
}

impl PropValue for f32 {
    #[inline]
    fn identity() -> Self {
        0.0
    }

    #[inline]
    fn combine(&mut self, other: Self) {
        *self += other;
    }

    #[inline]
    fn abs_diff(a: Self, b: Self) -> f64 {
        (a as f64 - b as f64).abs()
    }

    #[inline]
    fn scale_edge(self, w: f32) -> Self {
        self * w
    }

    const ENCODABLE: bool = true;

    #[inline]
    fn to_stream_f32(self) -> f32 {
        self
    }

    #[inline]
    fn from_stream_f32(v: f32) -> Self {
        v
    }
}

impl PropValue for f64 {
    #[inline]
    fn identity() -> Self {
        0.0
    }

    #[inline]
    fn combine(&mut self, other: Self) {
        *self += other;
    }

    #[inline]
    fn abs_diff(a: Self, b: Self) -> f64 {
        (a - b).abs()
    }

    #[inline]
    fn scale_edge(self, w: f32) -> Self {
        self * w as f64
    }
}

impl<const K: usize> PropValue for [f32; K] {
    #[inline]
    fn identity() -> Self {
        [0.0; K]
    }

    #[inline]
    fn combine(&mut self, other: Self) {
        for (a, b) in self.iter_mut().zip(other) {
            *a += b;
        }
    }

    #[inline]
    fn abs_diff(a: Self, b: Self) -> f64 {
        max_distance(a.iter().zip(b).map(|(&x, y)| (x as f64 - y as f64).abs()))
    }

    #[inline]
    fn scale_edge(self, w: f32) -> Self {
        self.map(|x| x * w)
    }
}

/// `f32` under the `min` monoid — the relaxation value of BFS/SSSP-style
/// traversals expressed through the same propagation kernels. `Default` is
/// the monoid identity (`+inf` — "unreached").
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MinF32(pub f32);

impl Default for MinF32 {
    fn default() -> Self {
        MinF32(f32::INFINITY)
    }
}

impl PropValue for MinF32 {
    #[inline]
    fn identity() -> Self {
        MinF32(f32::INFINITY)
    }

    #[inline]
    fn combine(&mut self, other: Self) {
        if other.0 < self.0 {
            self.0 = other.0;
        }
    }

    #[inline]
    fn abs_diff(a: Self, b: Self) -> f64 {
        if a.0 == b.0 {
            0.0
        } else if a.0.is_infinite() || b.0.is_infinite() {
            f64::INFINITY
        } else {
            (a.0 as f64 - b.0 as f64).abs()
        }
    }

    #[inline]
    fn scale_edge(self, w: f32) -> Self {
        // Tropical semiring: traversing an edge adds its length.
        MinF32(self.0 + w)
    }
}

/// Property values that can be combined through 32-bit atomic slots — what a
/// pushing-flow engine (Ligra-style, Algorithm 1 lines 1–3 of the paper)
/// needs for its `atomAdd`. Values are split into independent 32-bit lanes;
/// the combine of each lane must depend only on that lane (true for
/// element-wise monoids like `+` and `min` over `f32` lanes).
///
/// `f64` deliberately does not implement this: the paper's property types
/// are 32-bit, and a 64-bit value cannot be combined lane-by-lane.
pub trait AtomicProp: PropValue {
    /// Number of 32-bit lanes.
    const LANES: usize;
    /// Encodes the value into its lanes (`out.len() == LANES`).
    fn write_lanes(self, out: &mut [u32]);
    /// Combines `other`'s lane `lane` into existing lane bits.
    fn fold_lane(bits: u32, other: Self, lane: usize) -> u32;
    /// Decodes a value from its lanes.
    fn read_lanes(lanes: &[u32]) -> Self;
}

impl AtomicProp for f32 {
    const LANES: usize = 1;

    #[inline]
    fn write_lanes(self, out: &mut [u32]) {
        out[0] = self.to_bits();
    }

    #[inline]
    fn fold_lane(bits: u32, other: Self, _lane: usize) -> u32 {
        (f32::from_bits(bits) + other).to_bits()
    }

    #[inline]
    fn read_lanes(lanes: &[u32]) -> Self {
        f32::from_bits(lanes[0])
    }
}

impl AtomicProp for MinF32 {
    const LANES: usize = 1;

    #[inline]
    fn write_lanes(self, out: &mut [u32]) {
        out[0] = self.0.to_bits();
    }

    #[inline]
    fn fold_lane(bits: u32, other: Self, _lane: usize) -> u32 {
        f32::from_bits(bits).min(other.0).to_bits()
    }

    #[inline]
    fn read_lanes(lanes: &[u32]) -> Self {
        MinF32(f32::from_bits(lanes[0]))
    }
}

impl<const K: usize> AtomicProp for [f32; K] {
    const LANES: usize = K;

    #[inline]
    fn write_lanes(self, out: &mut [u32]) {
        for (o, v) in out.iter_mut().zip(self) {
            *o = v.to_bits();
        }
    }

    #[inline]
    fn fold_lane(bits: u32, other: Self, lane: usize) -> u32 {
        (f32::from_bits(bits) + other[lane]).to_bits()
    }

    #[inline]
    fn read_lanes(lanes: &[u32]) -> Self {
        std::array::from_fn(|i| f32::from_bits(lanes[i]))
    }
}

/// The largest of `distances` (0 when empty), reading a NaN as infinitely
/// far. Every convergence fold goes through this: `f64::max` drops a NaN
/// argument, so a NaN vector would otherwise look converged.
#[inline]
pub fn max_distance(distances: impl IntoIterator<Item = f64>) -> f64 {
    // `min` drops the NaN instead: NaN.min(∞) is ∞, and the fold stays a
    // plain (vectorizable) `f64::max` reduction.
    distances
        .into_iter()
        .map(|d| d.min(f64::INFINITY))
        .fold(0.0, f64::max)
}

/// Maximum `abs_diff` over two equally-long value slices (infinite when
/// any pair is NaN, see [`max_distance`]).
pub fn max_diff<V: PropValue>(a: &[V], b: &[V]) -> f64 {
    assert_eq!(a.len(), b.len());
    max_distance(a.iter().zip(b).map(|(&x, &y)| V::abs_diff(x, y)))
}

/// `f(v)` for every node `v < n`, in node order: one `Vec` per pool part,
/// each built inside its task, concatenated on the caller.
pub fn map_nodes<V, F>(n: usize, f: F) -> Vec<V>
where
    V: Send,
    F: Fn(NodeId) -> V + Sync,
{
    mixen_pool::par_parts(n, |part| part.map(|v| f(nid(v))).collect::<Vec<_>>())
        .into_iter()
        .flatten()
        .collect()
}

/// One synchronous pull iteration over the in-CSC,
/// `y[v] = apply(v, Σ_{u→v} x[u])`, built through [`map_nodes`]: the
/// GraphMat-style baseline's sweep, and the supervised runner's fallback
/// when the Mixen engine cannot be built.
pub fn pull_sweep<V, FA>(g: &Graph, x: &[V], apply: &FA) -> Vec<V>
where
    V: PropValue,
    FA: Fn(NodeId, V) -> V + Sync,
{
    let csc = g.in_csc();
    map_nodes(g.n(), |v| {
        let mut sum = V::identity();
        for &u in csc.neighbors(v) {
            sum.combine(x[u as usize]);
        }
        apply(v, sum)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_monoid_laws() {
        let mut x = f32::identity();
        x.combine(2.5);
        x.combine(1.5);
        assert_eq!(x, 4.0);
        let mut y = 4.0f32;
        y.combine(f32::identity());
        assert_eq!(y, 4.0);
    }

    #[test]
    fn array_combines_elementwise() {
        let mut a = [1.0f32, 2.0];
        a.combine([10.0, 20.0]);
        assert_eq!(a, [11.0, 22.0]);
        assert_eq!(<[f32; 2]>::identity(), [0.0, 0.0]);
    }

    #[test]
    fn min_f32_takes_minimum() {
        let mut a = MinF32::identity();
        assert!(a.0.is_infinite());
        a.combine(MinF32(3.0));
        a.combine(MinF32(5.0));
        assert_eq!(a.0, 3.0);
    }

    #[test]
    fn abs_diff_sane() {
        assert_eq!(f32::abs_diff(1.0, 3.5), 2.5);
        assert_eq!(<[f32; 2]>::abs_diff([0.0, 1.0], [0.5, 0.0]), 1.0);
        assert_eq!(MinF32::abs_diff(MinF32(2.0), MinF32(2.0)), 0.0);
        assert!(MinF32::abs_diff(MinF32::identity(), MinF32(2.0)).is_infinite());
    }

    #[test]
    fn atomic_lanes_roundtrip_f32() {
        let mut lanes = [0u32; 1];
        3.5f32.write_lanes(&mut lanes);
        assert_eq!(f32::read_lanes(&lanes), 3.5);
        let folded = f32::fold_lane(lanes[0], 1.5, 0);
        assert_eq!(f32::from_bits(folded), 5.0);
    }

    #[test]
    fn atomic_lanes_array() {
        let mut lanes = [0u32; 3];
        [1.0f32, 2.0, 3.0].write_lanes(&mut lanes);
        assert_eq!(<[f32; 3]>::read_lanes(&lanes), [1.0, 2.0, 3.0]);
        let folded = <[f32; 3]>::fold_lane(lanes[1], [10.0, 20.0, 30.0], 1);
        assert_eq!(f32::from_bits(folded), 22.0);
    }

    #[test]
    fn atomic_lanes_min() {
        let mut lanes = [0u32; 1];
        MinF32(7.0).write_lanes(&mut lanes);
        let folded = MinF32::fold_lane(lanes[0], MinF32(3.0), 0);
        assert_eq!(f32::from_bits(folded), 3.0);
        let folded2 = MinF32::fold_lane(lanes[0], MinF32(9.0), 0);
        assert_eq!(f32::from_bits(folded2), 7.0);
    }

    #[test]
    fn scale_edge_semirings() {
        assert_eq!(3.0f32.scale_edge(2.0), 6.0);
        assert_eq!([1.0f32, 2.0].scale_edge(0.5), [0.5, 1.0]);
        assert_eq!(MinF32(3.0).scale_edge(2.0), MinF32(5.0));
        // Identity stays absorbing under the tropical scale.
        assert!(MinF32::identity().scale_edge(1.0).0.is_infinite());
    }

    #[test]
    fn stream_hooks_round_trip_only_for_f32() {
        fn encodable<V: PropValue>() -> bool {
            V::ENCODABLE
        }
        assert!(encodable::<f32>());
        assert_eq!(3.25f32.to_stream_f32(), 3.25);
        assert_eq!(f32::from_stream_f32(3.25), 3.25);
        // Every other type keeps full-width streams.
        assert!(!encodable::<f64>());
        assert!(!encodable::<[f32; 2]>());
        assert!(!encodable::<MinF32>());
    }

    #[test]
    fn max_diff_over_slices() {
        let a = [1.0f32, 2.0, 3.0];
        let b = [1.0f32, 4.0, 3.5];
        assert_eq!(max_diff(&a, &b), 2.0);
        let nan = [1.0f32, f32::NAN, 3.0];
        assert_eq!(max_diff(&a, &nan), f64::INFINITY);
        assert_eq!(max_diff(&[[f32::NAN; 2]], &[[0.0; 2]]), f64::INFINITY);
    }
}
