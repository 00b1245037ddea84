//! The Mixen execution engine (§4.3).
//!
//! Work is scheduled into three phases:
//!
//! * **Pre-Phase** — seed nodes push their (constant) values once; the
//!   results are cached in the static bin.
//! * **Main-Phase** — the regular subgraph iterates under the
//!   Scatter–Cache–Gather–Apply model. Scatter (parallel over block-rows)
//!   streams source values into the dynamic bins; Cache re-primes the dead
//!   source segment with the static bin so that, after the end-of-iteration
//!   swap, the next accumulator already contains the seed contributions;
//!   Gather (parallel over block-columns) drains the bins into the
//!   accumulator; Apply runs the user function in the same parallel region.
//!   No atomics anywhere: block-rows own disjoint source segments,
//!   block-columns own disjoint destination segments.
//! * **Post-Phase** — sink values are computed once, pull-style, from the
//!   values the other nodes propagated in the final iteration (the paper:
//!   "propagation towards sink nodes can be delayed until the completion of
//!   other nodes in the final iteration"). Consequently Mixen's output is
//!   bit-comparable to a conventional engine running the same number of
//!   synchronous iterations.
//!
//! Edge weights are a parameter of this pipeline, not a second one: see
//! [`crate::weights`] and [`MixenEngine::try_weighted`].
//!
//! A run's cost is meant to be its edges. Serving loops and supervised
//! runners re-enter the driver every few iterations, so what a call needs
//! besides the graph — the two value vectors, the dynamic bins, the static
//! bin with the seed values it was computed from — stays with the engine
//! between calls (DESIGN.md DR-10): a call on a warm engine allocates its
//! result and nothing else, and repeats the Pre-Phase only when the seed
//! values moved.
//!
//! BFS (a non-link-analysis control in the paper) runs on the same blocked
//! structure with frontier-sparse scatter and a dense fallback; it gains
//! nothing from the Cache step, as the paper notes.

use mixen_graph::nid;
use std::any::Any;
use std::sync::atomic::{AtomicI32, Ordering};

use mixen_graph::{AtomicProp, Graph, GraphError, NodeId, PropValue, WGraph};

use crate::bins::{BinEncoding, DynamicBins, StaticBin};
use crate::block::BlockedSubgraph;
use crate::filter::FilteredGraph;
use crate::msync::Mutex;
use crate::obs::{Json, Metrics, Span};
use crate::opts::MixenOpts;
use crate::weights::{Unweighted, WeightRun, Weighted, Weights};

/// The synchronous contract every engine implements, Mixen and each
/// baseline alike (§6.1): `x'[v] = apply(v, ⊕_{u→v} x[u])` from
/// `x[v] = init(v)`, plus BFS. Closures receive original node IDs and
/// results come back in original-ID order. `V` is bounded by [`AtomicProp`]
/// because the pushing-flow baseline combines destinations atomically.
///
/// **Stop rule.** With `tol` given, a run stops after the first iteration
/// whose max-norm change is at most `tol` (a NaN change never is). The
/// baselines measure that change over every node; Mixen over its regular
/// nodes only, since seeds and isolated nodes sit at a fixed point and
/// sinks are finished once in the Post-Phase. The two can therefore stop
/// at different iterations on the same input (DESIGN.md DR-15).
pub trait Engine: Sync {
    /// At most `iters` iterations, stopping early under the stop rule when
    /// `tol` is given (no change is computed when it is not). Returns the
    /// values and the iterations performed.
    fn run<V, FI, FA>(
        &self,
        init: FI,
        apply: FA,
        iters: usize,
        tol: Option<f64>,
    ) -> (Vec<V>, usize)
    where
        V: AtomicProp,
        FI: Fn(NodeId) -> V + Sync,
        FA: Fn(NodeId, V) -> V + Sync;

    /// BFS depths from `root` in original-ID order (`-1` = unreachable).
    fn bfs(&self, root: NodeId) -> Vec<i32>;

    /// Exactly `iters` synchronous iterations.
    fn iterate<V, FI, FA>(&self, init: FI, apply: FA, iters: usize) -> Vec<V>
    where
        V: AtomicProp,
        FI: Fn(NodeId) -> V + Sync,
        FA: Fn(NodeId, V) -> V + Sync,
    {
        self.run(init, apply, iters, None).0
    }

    /// At most `max_iters` iterations under the stop rule.
    fn iterate_until<V, FI, FA>(
        &self,
        init: FI,
        apply: FA,
        tol: f64,
        max_iters: usize,
    ) -> (Vec<V>, usize)
    where
        V: AtomicProp,
        FI: Fn(NodeId) -> V + Sync,
        FA: Fn(NodeId, V) -> V + Sync,
    {
        self.run(init, apply, max_iters, Some(tol))
    }
}

/// Wall-clock breakdown of one [`MixenEngine::iterate_with_stats`] run,
/// following the paper's phase vocabulary (§4.3).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseStats {
    /// Pre-Phase: seed push into the static bins (runs once).
    pub pre_seconds: f64,
    /// Main-Phase Scatter + Cache steps, summed over iterations.
    pub scatter_seconds: f64,
    /// Main-Phase Gather + Apply steps, summed over iterations.
    pub gather_seconds: f64,
    /// Post-Phase: one-shot sink pull + assembly into original IDs.
    pub post_seconds: f64,
    /// Entry cost that is none of the phases: acquiring the resident run
    /// state, evaluating `init` for the seed and regular nodes, priming the
    /// first accumulator.
    pub init_seconds: f64,
    /// Iterations executed.
    pub iterations: usize,
}

impl PhaseStats {
    /// Total Main-Phase time.
    pub fn main_seconds(&self) -> f64 {
        self.scatter_seconds + self.gather_seconds
    }

    /// Fraction of the whole run spent outside the Main-Phase — large on
    /// seed-dominated graphs like weibo, where Mixen schedules most traffic
    /// out of the iteration (Fig. 4 discussion).
    pub fn out_of_main_fraction(&self) -> f64 {
        let outside = self.pre_seconds + self.post_seconds + self.init_seconds;
        let total = outside + self.main_seconds();
        if total <= 0.0 {
            0.0
        } else {
            outside / total
        }
    }

    /// JSON object with every phase timing plus the derived main-phase and
    /// out-of-main aggregates (the `phases` object of DESIGN.md §6d).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("pre_seconds".into(), Json::from_f64(self.pre_seconds)),
            (
                "scatter_seconds".into(),
                Json::from_f64(self.scatter_seconds),
            ),
            ("gather_seconds".into(), Json::from_f64(self.gather_seconds)),
            ("post_seconds".into(), Json::from_f64(self.post_seconds)),
            ("init_seconds".into(), Json::from_f64(self.init_seconds)),
            ("main_seconds".into(), Json::from_f64(self.main_seconds())),
            (
                "out_of_main_fraction".into(),
                Json::from_f64(self.out_of_main_fraction()),
            ),
            ("iterations".into(), Json::from_u64(self.iterations as u64)),
        ])
    }
}

/// The Mixen engine: preprocessed state plus the iteration driver.
///
/// `W` is the edge-weight parameter (see [`crate::weights`]): the default
/// [`Unweighted`] is zero-sized and compiles `⊗` away, [`Weighted`] carries
/// the `f32` weights of a [`WGraph`] and computes
/// `x'[v] = apply(v, ⊕_{u→v} x[u] ⊗ w(u,v))`.
#[derive(Clone, Debug)]
pub struct MixenEngine<W = Unweighted> {
    filtered: FilteredGraph,
    blocked: BlockedSubgraph,
    weights: W,
    opts: MixenOpts,
    filter_seconds: f64,
    partition_seconds: f64,
    metrics: Metrics,
    scratch: ScratchCell,
}

impl MixenEngine {
    /// Preprocesses `g`: filtering/relabeling, then 2-D partitioning.
    pub fn new(g: &Graph, opts: MixenOpts) -> Self {
        let threads = mixen_pool::current_num_threads();
        let mut filter_seconds = 0.0;
        let filtered = {
            let _span = Span::new(&mut filter_seconds);
            FilteredGraph::with_ordering(g, opts.ordering)
        };
        // The blocks are cut straight from the out-CSR through `perm`: no
        // regular CSR is written (DESIGN.md DR-17).
        let mut partition_seconds = 0.0;
        let (blocked, rows) = {
            let _span = Span::new(&mut partition_seconds);
            let rows = filtered.regular_rows();
            let blocked =
                BlockedSubgraph::with_hub_domain(&rows, &opts, threads, filtered.num_hub());
            (blocked, rows)
        };
        #[cfg(debug_assertions)]
        if let Err(e) = filtered
            .debug_validate()
            .and_then(|()| blocked.debug_validate(&rows, &opts))
        {
            // lint: allow(panic) reason=debug builds turn violated preprocessing invariants into loud failures
            panic!("invariant violated at engine construction: {e}");
        }
        drop(rows);
        let engine = Self {
            filtered,
            blocked,
            weights: Unweighted,
            opts,
            filter_seconds,
            partition_seconds,
            metrics: Metrics::default(),
            scratch: ScratchCell::default(),
        };
        engine.stamp_gauges(opts.bin_encoding);
        engine
    }

    /// Like [`MixenEngine::new`], but validates the options and the
    /// preprocessing invariants instead of panicking — the entry point for
    /// supervised execution over untrusted graphs (see `crate::runner`).
    pub fn try_new(g: &Graph, opts: MixenOpts) -> Result<Self, GraphError> {
        if opts.block_side == 0 {
            return Err(GraphError::Invariant("block_side must be positive".into()));
        }
        // The effective side never exceeds the requested one, so this bounds
        // `effective_block_side_domain(..)` for every graph.
        if opts.block_side > MixenOpts::MAX_BLOCK_SIDE {
            return Err(GraphError::Invariant(format!(
                "block_side {} exceeds 2^31: a local destination must leave bit 31 free for the message-start flag",
                opts.block_side
            )));
        }
        let engine = Self::new(g, opts);
        engine.validate()?;
        Ok(engine)
    }
}

impl MixenEngine<Weighted> {
    /// Preprocesses a weighted graph: [`MixenEngine::try_new`] over its
    /// topology (same option checks and invariant validation), then the
    /// weights are aligned with every static sub-structure. The alignment
    /// time is part of [`MixenEngine::partition_seconds`].
    pub fn try_weighted(wg: &WGraph, opts: MixenOpts) -> Result<Self, GraphError> {
        let base = MixenEngine::try_new(wg.topology(), opts)?;
        let mut align_seconds = 0.0;
        let weights = {
            let _span = Span::new(&mut align_seconds);
            Weighted::align(wg, &base.filtered, &base.blocked)?
        };
        Ok(Self {
            filtered: base.filtered,
            blocked: base.blocked,
            weights,
            opts: base.opts,
            filter_seconds: base.filter_seconds,
            partition_seconds: base.partition_seconds + align_seconds,
            metrics: base.metrics,
            scratch: base.scratch,
        })
    }
}

impl<W: Weights> MixenEngine<W> {
    /// Stamps the gauges that describe the (unchanging) partition and
    /// relabel policy, plus `encoding` — the requested bin encoding at
    /// construction, the effective one for the property type at each run.
    /// Runs re-stamp so a per-run `metrics().reset()` does not lose them.
    fn stamp_gauges(&self, encoding: BinEncoding) {
        let split = self.blocked.split_stats();
        self.metrics.tasks_split.set(split.tasks_split());
        self.metrics.max_task_nnz.set(split.max_task_nnz());
        self.metrics
            .reorder_policy
            .set(self.opts.ordering.policy_id());
        self.metrics
            .relabel_micros
            // lint: allow(truncation) reason=guarded: non-negative wall-clock micros far below 2^53
            .set((self.filtered.relabel_seconds() * 1e6) as u64);
        self.metrics
            .hub_domain_side
            .set(self.blocked.block_side() as u64);
        self.metrics.bin_encoding.set(encoding.encoding_id());
    }

    /// Cross-checks the preprocessing invariants the iteration drivers rely
    /// on: the connectivity classes partition the nodes, the relabeling is a
    /// bijection, and blocking preserved every regular edge.
    pub fn validate(&self) -> Result<(), GraphError> {
        let f = &self.filtered;
        let n = f.n();
        let parts = f.num_regular() + f.num_seed() + f.num_sink() + f.num_isolated();
        if parts != n {
            return Err(GraphError::Invariant(format!(
                "connectivity classes cover {parts} nodes, graph has {n}"
            )));
        }
        let mut seen = vec![false; n];
        for new in 0..n {
            let old = f.to_old(nid(new)) as usize;
            if old >= n || seen[old] {
                return Err(GraphError::Invariant(format!(
                    "relabeling is not a bijection at new id {new}"
                )));
            }
            seen[old] = true;
        }
        if self.blocked.nnz() != f.reg_nnz() {
            return Err(GraphError::Invariant(format!(
                "blocked subgraph holds {} edges, the regular subgraph has {}",
                self.blocked.nnz(),
                f.reg_nnz()
            )));
        }
        Ok(())
    }

    /// The filtered graph (exposed for inspection, stats and the cache
    /// simulator's instrumented twin).
    pub fn filtered(&self) -> &FilteredGraph {
        &self.filtered
    }

    /// The blocked regular subgraph.
    pub fn blocked(&self) -> &BlockedSubgraph {
        &self.blocked
    }

    /// The options this engine was built with.
    pub fn opts(&self) -> &MixenOpts {
        &self.opts
    }

    /// Preprocessing time spent in graph filtering (Table 4).
    pub fn filter_seconds(&self) -> f64 {
        self.filter_seconds
    }

    /// Preprocessing time spent in partitioning/binning (Table 4).
    pub fn partition_seconds(&self) -> f64 {
        self.partition_seconds
    }

    /// The engine's live metrics registry. Counters accumulate across all
    /// iteration-driver calls on this engine; `metrics().reset()` starts a
    /// fresh measurement window, `metrics().snapshot()` freezes one.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// [`Engine::iterate`] that also returns the per-phase wall-clock
    /// breakdown.
    ///
    /// Panics if a compressed bin encoding rejects the value range;
    /// fallible callers use [`MixenEngine::try_run`].
    pub fn iterate_with_stats<V, FI, FA>(
        &self,
        init: FI,
        apply: FA,
        iters: usize,
    ) -> (Vec<V>, PhaseStats)
    where
        V: PropValue,
        FI: Fn(NodeId) -> V + Sync,
        FA: Fn(NodeId, V) -> V + Sync,
    {
        infallible(self.try_run(init, apply, iters, None))
    }

    /// The one Pre→Main→Post driver: at most `max_iters` iterations,
    /// stopping early once the regular nodes' values change by at most
    /// `tol` (max-norm) when one is given. Returns the values in
    /// original-ID order and the per-phase breakdown
    /// ([`PhaseStats::iterations`] is the number performed).
    ///
    /// The working vectors, the dynamic bins and the static bin stay with
    /// the engine between calls (`RunScratch`), so a call on a warm engine
    /// allocates only its result, and skips the Pre-Phase when `init` gives
    /// the seeds the values it gave them last time.
    ///
    /// A compressed bin encoding whose measured accuracy budget is violated
    /// surfaces as [`GraphError::Numeric`] stamped with the failing
    /// iteration; infallible under the default `F32` encoding.
    pub fn try_run<V, FI, FA>(
        &self,
        init: FI,
        apply: FA,
        max_iters: usize,
        tol: Option<f64>,
    ) -> Result<(Vec<V>, PhaseStats), GraphError>
    where
        V: PropValue,
        FI: Fn(NodeId) -> V + Sync,
        FA: Fn(NodeId, V) -> V + Sync,
    {
        let mut stats = PhaseStats::default();
        if max_iters == 0 {
            let mut x0 = vec![V::identity(); self.filtered.n()];
            fill(&mut x0, |old| init(nid(old)));
            return Ok((x0, stats));
        }
        let mut scratch: Box<RunScratch<V>> = {
            let _span = Span::new(&mut stats.init_seconds);
            self.scratch.take().unwrap_or_default()
        };
        // A panic in `init` or `apply` unwinds past the `put`: the state is
        // dropped with the frame and the next call starts from an empty cell.
        let out = self.run_on(&mut scratch, &mut stats, &init, &apply, max_iters, tol);
        self.scratch.put(scratch);
        Ok((out?, stats))
    }

    /// [`MixenEngine::try_run`] over the run state it took from the cell.
    fn run_on<V, FI, FA>(
        &self,
        scratch: &mut RunScratch<V>,
        stats: &mut PhaseStats,
        init: &FI,
        apply: &FA,
        max_iters: usize,
        tol: Option<f64>,
    ) -> Result<Vec<V>, GraphError>
    where
        V: PropValue,
        FI: Fn(NodeId) -> V + Sync,
        FA: Fn(NodeId, V) -> V + Sync,
    {
        let f = &self.filtered;
        let r = f.num_regular();
        let RunScratch {
            seed_vals,
            sta,
            x,
            y,
            prev,
            bins,
        } = scratch;

        // Seed values are constant for the whole run.
        let seeds_changed = {
            let _span = Span::new(&mut stats.init_seconds);
            seed_vals.resize(f.num_seed(), V::identity());
            fill(seed_vals, |i| init(f.to_old(nid(r + i))))
        };

        // Pre-Phase: cache seed→regular contributions, unless the bin kept
        // from the last run was computed from these very values. With the
        // Cache step disabled (ablation) there is no bin: the push is redone
        // wherever one would have been read.
        let sta: Option<&StaticBin<V>> = {
            let _span = Span::new(&mut stats.pre_seconds);
            if self.opts.cache_step {
                if seeds_changed || sta.is_none() {
                    *sta = Some(self.seed_push(seed_vals));
                }
                sta.as_ref()
            } else {
                None
            }
        };
        self.metrics.static_bin_entries.set(r as u64);

        let bins = {
            let _span = Span::new(&mut stats.init_seconds);
            x.resize(r, V::identity());
            fill(x, |v| init(f.to_old(nid(v))));
            y.resize(r, V::identity());
            self.prime(y, sta, seed_vals);
            if tol.is_some() {
                prev.resize(r, V::identity());
            }
            // Never re-zeroed: Scatter overwrites every slot before Gather
            // reads one.
            bins.get_or_insert_with(|| {
                DynamicBins::with_encoding(&self.blocked, self.opts.bin_encoding)
            })
        };
        self.metrics
            .dynamic_bin_slots
            .set(self.blocked.total_msg_slots() as u64);
        self.stamp_gauges(bins.encoding());

        for t in 0..max_iters {
            let last_fixed = tol.is_none() && t + 1 == max_iters;
            if tol.is_some() {
                // Scatter's Cache step is about to overwrite `x`, and both
                // the convergence check and the Post-Phase need it.
                par_copy(prev, x);
            }
            // Scatter + Cache (parallel over block-rows).
            let cache_from = if last_fixed {
                None
            } else {
                sta.map(StaticBin::values)
            };
            {
                let _span = Span::new(&mut stats.scatter_seconds);
                crate::scga::try_scatter_with(
                    &self.blocked,
                    x,
                    bins,
                    cache_from,
                    Some(&self.metrics),
                )
                .map_err(|e| stamp_iteration(e, t))?;
                if cache_from.is_some() {
                    self.metrics.static_bin_reuses.inc();
                }
            }
            if !last_fixed && sta.is_none() {
                // Ablation: redo the seed push and re-prime x by hand, the
                // redundant traffic Mixen normally avoids.
                self.prime(x, None, seed_vals);
            }
            // Gather + Apply (parallel over block-columns).
            {
                let _span = Span::new(&mut stats.gather_seconds);
                crate::scga::gather_weighted(
                    &self.blocked,
                    &self.weights,
                    bins,
                    y,
                    |new, sum| apply(f.to_old(new), sum),
                    Some(&self.metrics),
                );
            }
            // The buffer Scatter streamed from is primed already, so after
            // the swap `y` is the next round's accumulator as it stands.
            std::mem::swap(x, y);
            stats.iterations += 1;
            if tol.is_some_and(|tol| par_max_diff(x, prev) <= tol) {
                break;
            }
        }

        // The values regular nodes propagated in the final iteration.
        let x_prev: &[V] = if tol.is_some() { prev } else { y };

        let _span = Span::new(&mut stats.post_seconds);
        Ok(self.assemble(x, x_prev, seed_vals, apply))
    }

    /// The seed push `⊕ seed ⊗ w` into a fresh static bin: in the Pre-Phase
    /// of a run whose seed values are new, or redundantly wherever the Cache
    /// step is ablated.
    fn seed_push<V: PropValue>(&self, seed_vals: &[V]) -> StaticBin<V> {
        self.metrics.static_bin_recomputes.inc();
        StaticBin::compute_weighted(
            self.filtered.seed_csr(),
            seed_vals,
            self.filtered.num_regular(),
            self.weights.seed(),
        )
    }

    /// Primes an accumulator with the static-bin contents (or recomputes the
    /// seed push when the Cache step is ablated away and there is no bin).
    fn prime<V: PropValue>(&self, y: &mut [V], sta: Option<&StaticBin<V>>, seed_vals: &[V]) {
        match sta {
            Some(sta) => {
                self.metrics.static_bin_reuses.inc();
                par_copy(y, sta.values());
            }
            None => par_copy(y, self.seed_push(seed_vals).values()),
        }
    }

    /// Post-Phase plus final assembly, one pass over the result in
    /// original-ID order: a regular node reads its value, a sink pulls once
    /// from the values propagated last, seeds and isolated nodes sit at
    /// their fixed point.
    fn assemble<V, FA>(&self, x: &[V], x_prev: &[V], seed_vals: &[V], apply: &FA) -> Vec<V>
    where
        V: PropValue,
        FA: Fn(NodeId, V) -> V + Sync,
    {
        let f = &self.filtered;
        let r = f.num_regular();
        let sink_base = r + f.num_seed();
        let sinks = sink_base..sink_base + f.num_sink();
        let sink_ptr = f.sink_csc().ptr();
        let w = self.weights.sink();

        let mut out = vec![V::identity(); f.n()];
        mixen_pool::par_parts_mut(&mut out, |lo, out| {
            for (i, val) in out.iter_mut().enumerate() {
                let old = nid(lo + i);
                let new = f.to_new(old) as usize;
                *val = if new < r {
                    x[new]
                } else if sinks.contains(&new) {
                    let k = new - sink_base;
                    let mut sum = V::identity();
                    let base = sink_ptr[k];
                    for (e, &v) in f.sink_csc().neighbors(nid(k)).iter().enumerate() {
                        let msg = if (v as usize) < r {
                            x_prev[v as usize]
                        } else {
                            seed_vals[v as usize - r]
                        };
                        sum.combine(w.scale(msg, base + e));
                    }
                    apply(old, sum)
                } else {
                    // Seeds (in-degree 0) and isolated nodes sit at their
                    // fixed point.
                    apply(old, V::identity())
                };
            }
        });
        out
    }
}

impl<W: Weights> Engine for MixenEngine<W> {
    /// [`MixenEngine::try_run`], with the stop rule measured over the
    /// regular nodes.
    ///
    /// Panics if a compressed bin encoding rejects the value range.
    fn run<V, FI, FA>(&self, init: FI, apply: FA, iters: usize, tol: Option<f64>) -> (Vec<V>, usize)
    where
        V: AtomicProp,
        FI: Fn(NodeId) -> V + Sync,
        FA: Fn(NodeId, V) -> V + Sync,
    {
        let (vals, stats) = infallible(self.try_run(init, apply, iters, tol));
        (vals, stats.iterations)
    }

    /// Breadth-first search from `root`, returning depths in original-ID
    /// order (`-1` = unreachable). Runs frontier-sparse blocked propagation
    /// with a dense fallback for fat frontiers; seeds can only start a
    /// traversal and sinks can only end one, so they are handled in the
    /// Pre-/Post-Phase positions just like link analysis.
    fn bfs(&self, root: NodeId) -> Vec<i32> {
        let f = &self.filtered;
        let n = f.n();
        assert!((root as usize) < n, "root out of range");
        let r = f.num_regular();
        let s = f.num_seed();
        let root_new = f.to_new(root) as usize;

        let reg_depth: Vec<AtomicI32> = (0..r).map(|_| AtomicI32::new(-1)).collect();
        let mut frontier: Vec<u32> = Vec::new();

        if root_new < r {
            // ordering: single-threaded seeding before any parallel level.
            reg_depth[root_new].store(0, Ordering::Relaxed);
            frontier.push(nid(root_new));
        } else if root_new < r + s {
            // Seed root: its regular out-neighbours form level 1.
            let local = nid(root_new - r);
            for &v in f.seed_csr().neighbors(local) {
                if reg_depth[v as usize]
                    // ordering: still the sequential seeding phase; CAS only
                    // dedups multi-edges from the root.
                    .compare_exchange(-1, 1, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                {
                    frontier.push(v);
                }
            }
            frontier.sort_unstable();
        }
        // Sink or isolated roots have no out-edges: nothing to expand.

        let mut level = if root_new < r { 0 } else { 1 };
        while !frontier.is_empty() {
            frontier = if frontier.len() * 16 > r {
                self.metrics.bfs_dense_levels.inc();
                crate::scga::bfs_level_dense(&self.blocked, &reg_depth, level)
            } else {
                self.metrics.bfs_sparse_levels.inc();
                crate::scga::bfs_level_sparse(&self.blocked, &reg_depth, &frontier, level)
            };
            frontier.sort_unstable();
            level += 1;
        }

        // Post-Phase: a sink's depth is 1 + the minimum depth among its
        // in-neighbours (regulars take their BFS depth; the only seed with a
        // depth is the root itself).
        let sink_base = nid(r + s);
        let mut out = vec![-1i32; n];
        out[root as usize] = 0;
        for v in 0..r {
            // ordering: all claims were ordered before this read by the
            // final level's pool scope.
            let d = reg_depth[v].load(Ordering::Relaxed);
            if d >= 0 {
                out[f.to_old(nid(v)) as usize] = d;
            }
        }
        let sink_depths: Vec<i32> = mixen_pool::par_parts(f.num_sink(), |part| {
            part.map(|k| {
                let k = nid(k);
                let mut best = i32::MAX;
                for &v in f.sink_csc().neighbors(k) {
                    let d = if (v as usize) < r {
                        // ordering: read-only Post-Phase after the BFS
                        // levels' scopes; no concurrent writers remain.
                        reg_depth[v as usize].load(Ordering::Relaxed)
                    } else if v as usize == root_new {
                        0
                    } else {
                        -1
                    };
                    if d >= 0 {
                        best = best.min(d + 1);
                    }
                }
                if best == i32::MAX {
                    -1
                } else {
                    best
                }
            })
            .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        for (k, &d) in sink_depths.iter().enumerate() {
            let old = f.to_old(sink_base + nid(k)) as usize;
            if d >= 0 && out[old] < 0 {
                out[old] = d;
            }
        }
        out
    }
}

/// Run state a [`MixenEngine`] keeps between calls, for one property type.
/// Every buffer is overwritten before it is read — `init` rewrites `x`, the
/// seed values and (under `tol`) `prev`, priming rewrites `y`, Scatter
/// rewrites every dynamic-bin slot — so a call on a warm engine allocates and
/// zeroes none of them. Sizes depend on the engine alone, hence a buffer is
/// either empty (first use) or already the right length.
struct RunScratch<V> {
    /// The seed values of the last run and, under the Cache step, the static
    /// bin computed from exactly them.
    seed_vals: Vec<V>,
    sta: Option<StaticBin<V>>,
    x: Vec<V>,
    y: Vec<V>,
    /// `tol` runs only: the values the iteration in flight started from.
    prev: Vec<V>,
    bins: Option<DynamicBins<V>>,
}

impl<V> Default for RunScratch<V> {
    fn default() -> Self {
        Self {
            seed_vals: Vec::new(),
            sta: None,
            x: Vec::new(),
            y: Vec::new(),
            prev: Vec::new(),
            bins: None,
        }
    }
}

/// Where an engine parks its [`RunScratch`] between calls: taken on entry,
/// put back on exit, type-erased because one engine serves every property
/// type. The lock is held for the move alone, never across a run, so
/// callers do not serialize: whoever finds the cell empty — a concurrent
/// caller, or the first one after a run of another type — allocates state of
/// its own, and the last one out leaves its state behind.
struct ScratchCell(Mutex<Option<Box<dyn Any + Send>>>);

impl ScratchCell {
    /// The parked state, if there is one and it is a `T`.
    fn take<T: Any + Send>(&self) -> Option<Box<T>> {
        let parked = crate::snap::lock_recover(&self.0).take();
        parked.and_then(|state| state.downcast().ok())
    }

    /// Parks `state`, replacing (and freeing, outside the lock) what another
    /// caller left meanwhile.
    fn put<T: Any + Send>(&self, state: Box<T>) {
        let replaced = crate::snap::lock_recover(&self.0).replace(state);
        drop(replaced);
    }
}

impl Default for ScratchCell {
    fn default() -> Self {
        Self(Mutex::new(None))
    }
}

/// A clone starts cold: run state is never shared between engines.
impl Clone for ScratchCell {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl std::fmt::Debug for ScratchCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Opaque like `SnapCell`: locking inside Debug could interleave with
        // a model execution.
        f.debug_struct("ScratchCell").finish_non_exhaustive()
    }
}

/// Model probe over the scratch cell, compiled only under `model-check`.
#[cfg(feature = "model-check")]
pub mod mc {
    use std::any::Any;

    /// A [`MixenEngine`](super::MixenEngine)'s scratch cell on its own, so
    /// `mixen-check` can explore callers racing `take` and `put` without
    /// building an engine.
    #[derive(Default)]
    pub struct ScratchProbe(super::ScratchCell);

    impl ScratchProbe {
        /// What `try_run` does on entry.
        pub fn take<T: Any + Send>(&self) -> Option<Box<T>> {
            self.0.take()
        }

        /// What `try_run` does on exit.
        pub fn put<T: Any + Send>(&self, state: Box<T>) {
            self.0.put(state)
        }
    }
}

/// Rewrites `vals[i] = value_of(i)` in place on the pool; reports whether
/// any slot got a value that does not compare equal to the one it held (a
/// `NaN` never compares equal, so it always reports a change).
fn fill<V: PropValue>(vals: &mut [V], value_of: impl Fn(usize) -> V + Sync) -> bool {
    // `par_parts_mut` hands out no results, so each part carries its own
    // flag: (offset, part, changed).
    let mut rest = vals;
    let mut parts: Vec<(usize, &mut [V], bool)> = mixen_pool::split(rest.len())
        .map(|part| {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(part.len());
            rest = tail;
            (part.start, head, false)
        })
        .collect();
    mixen_pool::par_parts_mut(&mut parts, |_, parts| {
        for (lo, part, changed) in parts {
            for (i, slot) in part.iter_mut().enumerate() {
                let v = value_of(*lo + i);
                *changed |= *slot != v;
                *slot = v;
            }
        }
    });
    parts.iter().any(|&(_, _, changed)| changed)
}

/// `dst.copy_from_slice(src)` on the pool.
fn par_copy<V: PropValue>(dst: &mut [V], src: &[V]) {
    assert_eq!(dst.len(), src.len());
    mixen_pool::par_parts_mut(dst, |lo, part| {
        part.copy_from_slice(&src[lo..lo + part.len()])
    });
}

/// [`mixen_graph::max_diff`] on the pool (a maximum, so the cut cannot move
/// its value).
fn par_max_diff<V: PropValue>(a: &[V], b: &[V]) -> f64 {
    assert_eq!(a.len(), b.len());
    mixen_graph::max_distance(mixen_pool::par_parts(a.len(), |part| {
        mixen_graph::max_diff(&a[part.clone()], &b[part])
    }))
}

/// A run under the default `F32` bins cannot fail; compressed encodings
/// surface a violated accuracy budget through [`MixenEngine::try_run`].
fn infallible<T>(run: Result<T, GraphError>) -> T {
    run.unwrap_or_else(|e| {
        // lint: allow(panic) reason=infallible under the default F32 bins; compressed encodings surface budget violations through try_run
        panic!("mixen run: {e}")
    })
}

/// Re-stamps a [`GraphError::Numeric`] raised inside an iteration with the
/// iteration number it failed on. The codec planner runs before the graph
/// walk and reports iteration 0; the engine is the only layer that knows
/// which sweep was in flight.
pub(crate) fn stamp_iteration(e: GraphError, t: usize) -> GraphError {
    match e {
        GraphError::Numeric { msg, .. } => GraphError::Numeric { iteration: t, msg },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// Serial reference: x'[v] = apply(v, Σ_{u→v} x[u]).
    fn reference<V: PropValue>(
        g: &Graph,
        init: impl Fn(NodeId) -> V,
        apply: impl Fn(NodeId, V) -> V,
        iters: usize,
    ) -> Vec<V> {
        let mut x: Vec<V> = (0..g.n() as NodeId).map(&init).collect();
        for _ in 0..iters {
            let mut y = vec![V::identity(); g.n()];
            for u in 0..g.n() as NodeId {
                for &v in g.out_neighbors(u) {
                    y[v as usize].combine(x[u as usize]);
                }
            }
            for v in 0..g.n() as NodeId {
                y[v as usize] = apply(v, y[v as usize]);
            }
            x = y;
        }
        x
    }

    fn serial_bfs(g: &Graph, root: NodeId) -> Vec<i32> {
        let mut depth = vec![-1i32; g.n()];
        depth[root as usize] = 0;
        let mut queue = std::collections::VecDeque::from([root]);
        while let Some(u) = queue.pop_front() {
            for &v in g.out_neighbors(u) {
                if depth[v as usize] < 0 {
                    depth[v as usize] = depth[u as usize] + 1;
                    queue.push_back(v);
                }
            }
        }
        depth
    }

    fn mixed_graph() -> Graph {
        // regular: 0,1,2; seed: 3,4; sink: 5,6; isolated: 7.
        Graph::from_pairs(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (1, 0),
                (3, 0),
                (3, 5),
                (4, 1),
                (4, 2),
                (0, 5),
                (2, 6),
            ],
        )
    }

    fn small_opts() -> MixenOpts {
        MixenOpts {
            block_side: 2,
            min_tasks_per_thread: 1,
            ..MixenOpts::default()
        }
    }

    #[test]
    fn single_spmv_matches_reference() {
        let g = mixed_graph();
        let e = MixenEngine::new(&g, small_opts());
        let got = e.iterate::<f32, _, _>(|v| (v + 1) as f32, |_, sum| sum, 1);
        let want = reference::<f32>(&g, |v| (v + 1) as f32, |_, sum| sum, 1);
        assert_eq!(got, want);
    }

    #[test]
    fn multi_iteration_matches_reference() {
        let g = mixed_graph();
        let e = MixenEngine::new(&g, small_opts());
        // A damped update with per-node offsets; init respects the
        // seed-fixed-point contract: init(v) = apply(v, 0) for seeds.
        let apply = |v: NodeId, sum: f32| 0.5 * sum + 0.1 * (v as f32 + 1.0);
        let init = |v: NodeId| 0.1 * (v as f32 + 1.0);
        for iters in 1..6 {
            let got = e.iterate::<f32, _, _>(init, apply, iters);
            let want = reference::<f32>(&g, init, apply, iters);
            for (a, b) in got.iter().zip(&want) {
                assert!((a - b).abs() < 1e-4, "iters={iters}: {got:?} vs {want:?}");
            }
        }
    }

    #[test]
    fn zero_iterations_returns_init() {
        let g = mixed_graph();
        let e = MixenEngine::new(&g, small_opts());
        let got = e.iterate::<f32, _, _>(|v| v as f32, |_, _| f32::NAN, 0);
        assert_eq!(got, (0..8).map(|v| v as f32).collect::<Vec<_>>());
    }

    #[test]
    fn vector_values_propagate() {
        let g = mixed_graph();
        let e = MixenEngine::new(&g, small_opts());
        let init = |v: NodeId| [v as f32, 1.0];
        let apply = |_: NodeId, sum: [f32; 2]| sum;
        let got = e.iterate::<[f32; 2], _, _>(init, apply, 1);
        let want = reference::<[f32; 2]>(&g, init, apply, 1);
        assert_eq!(got, want);
    }

    #[test]
    fn iterate_until_converges() {
        let g = mixed_graph();
        let e = MixenEngine::new(&g, small_opts());
        // Contraction: converges to a fixed point.
        let apply = |_: NodeId, sum: f32| 0.25 * sum + 1.0;
        let (vals, iters) = e.iterate_until::<f32, _, _>(|_| 1.0, apply, 1e-7, 200);
        assert!(iters < 200, "should converge, took {iters}");
        // Fixed point check on a regular node: x0 = 0.25*(x1 + x2 + seeds...) + 1.
        let again = e.iterate::<f32, _, _>(|_| 1.0, apply, iters + 5);
        for (a, b) in vals.iter().zip(&again) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn ablation_no_cache_step_same_results() {
        let g = mixed_graph();
        let base = MixenEngine::new(&g, small_opts());
        let nocache = MixenEngine::new(
            &g,
            MixenOpts {
                cache_step: false,
                ..small_opts()
            },
        );
        let apply = |_: NodeId, sum: f32| 0.5 * sum + 0.3;
        let init = |_: NodeId| 0.3f32;
        for iters in 1..4 {
            let a = base.iterate::<f32, _, _>(init, apply, iters);
            let b = nocache.iterate::<f32, _, _>(init, apply, iters);
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn ablation_no_hub_sort_same_results() {
        let g = mixed_graph();
        let base = MixenEngine::new(&g, small_opts());
        let nohub = MixenEngine::new(
            &g,
            MixenOpts {
                ordering: crate::opts::RegularOrdering::Original,
                ..small_opts()
            },
        );
        let a = base.iterate::<f32, _, _>(|v| v as f32, |_, s| s, 2);
        let b = nohub.iterate::<f32, _, _>(|v| v as f32, |_, s| s, 2);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn bfs_matches_serial_from_every_root() {
        let g = mixed_graph();
        let e = MixenEngine::new(&g, small_opts());
        for root in 0..g.n() as NodeId {
            assert_eq!(e.bfs(root), serial_bfs(&g, root), "root {root}");
        }
    }

    #[test]
    fn bfs_on_chain_hits_every_level() {
        // 0 -> 1 -> 2 -> ... -> 9: forces many sparse levels.
        let pairs: Vec<_> = (0..9u32).map(|u| (u, u + 1)).collect();
        let g = Graph::from_pairs(10, &pairs);
        let e = MixenEngine::new(&g, small_opts());
        let d = e.bfs(0);
        assert_eq!(d, (0..10).collect::<Vec<i32>>());
    }

    #[test]
    fn engine_on_empty_and_tiny_graphs() {
        for g in [
            Graph::from_pairs(0, &[]),
            Graph::from_pairs(1, &[]),
            Graph::from_pairs(1, &[(0, 0)]),
            Graph::from_pairs(3, &[]),
        ] {
            let e = MixenEngine::new(&g, small_opts());
            let got = e.iterate::<f32, _, _>(|_| 1.0, |_, s| s + 1.0, 2);
            let want = reference::<f32>(&g, |_| 1.0, |_, s| s + 1.0, 2);
            assert_eq!(got, want, "n = {}", g.n());
        }
    }

    #[test]
    fn seed_only_bipartite_graph() {
        // All edges seed -> sink: no regular nodes at all.
        let g = Graph::from_pairs(4, &[(0, 2), (0, 3), (1, 3)]);
        let e = MixenEngine::new(&g, small_opts());
        assert_eq!(e.filtered().num_regular(), 0);
        let got = e.iterate::<f32, _, _>(|v| (v + 1) as f32, |_, s| s, 1);
        let want = reference::<f32>(&g, |v| (v + 1) as f32, |_, s| s, 1);
        assert_eq!(got, want);
    }

    #[test]
    fn phase_stats_are_recorded_and_consistent() {
        let g = mixed_graph();
        let e = MixenEngine::new(&g, small_opts());
        let (vals, stats) = e.iterate_with_stats::<f32, _, _>(|_| 1.0, |_, s| 0.5 * s, 4);
        assert_eq!(stats.iterations, 4);
        assert!(stats.pre_seconds >= 0.0);
        assert!(stats.main_seconds() >= 0.0);
        assert!(stats.post_seconds >= 0.0);
        assert!((0.0..=1.0).contains(&stats.out_of_main_fraction()));
        // Values must match the plain driver.
        let plain = e.iterate::<f32, _, _>(|_| 1.0, |_, s| 0.5 * s, 4);
        assert_eq!(vals, plain);
    }

    #[test]
    fn metrics_track_kernels_and_static_bin_usage() {
        let g = mixed_graph();
        let e = MixenEngine::new(&g, small_opts());
        let reg_nnz = e.filtered().reg_nnz() as u64;
        let iters = 4usize;
        let _ = e.iterate::<f32, _, _>(|_| 1.0, |_, s| 0.5 * s, iters);
        let snap = e.metrics().snapshot();
        assert_eq!(snap.get("edges_scattered"), iters as u64 * reg_nnz);
        assert_eq!(snap.get("edges_gathered"), iters as u64 * reg_nnz);
        assert_eq!(snap.get("static_bin_recomputes"), 1);
        // Initial prime + one Cache-step re-prime per non-final iteration.
        assert_eq!(snap.get("static_bin_reuses"), iters as u64);
        assert!(snap.get("bin_bytes_streamed") > 0);
        assert_eq!(
            snap.get("static_bin_entries"),
            e.filtered().num_regular() as u64
        );
        e.metrics().reset();
        assert_eq!(e.metrics().snapshot().get("edges_scattered"), 0);
    }

    #[test]
    fn ablated_cache_step_counts_redundant_recomputes() {
        let g = mixed_graph();
        let e = MixenEngine::new(
            &g,
            MixenOpts {
                cache_step: false,
                ..small_opts()
            },
        );
        let iters = 3usize;
        let _ = e.iterate::<f32, _, _>(|_| 1.0, |_, s| 0.5 * s, iters);
        let snap = e.metrics().snapshot();
        // One recompute for the initial prime plus one per non-final
        // iteration — the redundant traffic the Cache step exists to avoid.
        assert_eq!(snap.get("static_bin_recomputes"), iters as u64);
        assert_eq!(snap.get("static_bin_reuses"), 0);
    }

    #[test]
    fn bfs_level_choices_are_counted() {
        // 0 -> 1 -> ... -> 9: every level is frontier-sparse... until the
        // dense heuristic kicks in on the tiny regular set.
        let pairs: Vec<_> = (0..9u32).map(|u| (u, u + 1)).collect();
        let g = Graph::from_pairs(10, &pairs);
        let e = MixenEngine::new(&g, small_opts());
        let _ = e.bfs(0);
        let snap = e.metrics().snapshot();
        let levels = snap.get("bfs_sparse_levels") + snap.get("bfs_dense_levels");
        assert!(levels > 0, "a 10-level chain must expand levels: {snap:?}");
    }

    #[test]
    fn preprocessing_times_recorded() {
        let e = MixenEngine::new(&mixed_graph(), small_opts());
        assert!(e.filter_seconds() >= 0.0);
        assert!(e.partition_seconds() >= 0.0);
    }

    // ---- Weighted parameter ----

    /// Serial weighted reference.
    fn weighted_reference<V: PropValue>(
        wg: &WGraph,
        init: impl Fn(NodeId) -> V,
        apply: impl Fn(NodeId, V) -> V,
        iters: usize,
    ) -> Vec<V> {
        let n = wg.n();
        let mut x: Vec<V> = (0..n as NodeId).map(&init).collect();
        for _ in 0..iters {
            x = (0..n as NodeId)
                .map(|v| {
                    let mut sum = V::identity();
                    for (u, w) in wg.in_edges(v) {
                        sum.combine(x[u as usize].scale_edge(w));
                    }
                    apply(v, sum)
                })
                .collect();
        }
        x
    }

    fn weighted_toy() -> WGraph {
        // regular 0,1,2; seed 3; sink 4.
        WGraph::from_triples(
            5,
            &[
                (0, 1, 2.0),
                (1, 2, 0.5),
                (2, 0, 1.5),
                (3, 0, 4.0),
                (3, 4, 1.0),
                (1, 4, 3.0),
            ],
        )
    }

    fn weighted(wg: &WGraph) -> MixenEngine<Weighted> {
        MixenEngine::try_weighted(wg, small_opts()).unwrap()
    }

    #[test]
    fn weighted_spmv_matches_reference() {
        let wg = weighted_toy();
        let e = weighted(&wg);
        // Seed-fixed-point contract: in-degree-0 nodes start at apply(v, 0).
        let g = wg.topology().clone();
        let apply = |_: NodeId, s: f32| 0.5 * s + 1.0;
        let init = move |v: NodeId| {
            if g.in_degree(v) == 0 {
                1.0
            } else {
                (v + 1) as f32
            }
        };
        for iters in 0..5 {
            let got = e.iterate::<f32, _, _>(&init, apply, iters);
            let want = weighted_reference::<f32>(&wg, &init, apply, iters);
            for (a, b) in got.iter().zip(&want) {
                assert!((a - b).abs() < 1e-4, "iters {iters}: {got:?} vs {want:?}");
            }
        }
    }

    #[test]
    fn one_shot_weighted_spmv_by_hand() {
        let wg = weighted_toy();
        let e = weighted(&wg);
        let y = e.iterate::<f32, _, _>(|v| (v + 1) as f32, |_, s| s, 1);
        // y[0] = 1.5*x[2] + 4*x[3] = 4.5 + 16 = 20.5
        // y[1] = 2*x[0] = 2; y[2] = 0.5*x[1] = 1
        // y[4] = 1*x[3] + 3*x[1] = 4 + 6 = 10
        assert_eq!(y, vec![20.5, 2.0, 1.0, 0.0, 10.0]);
    }

    #[test]
    fn tropical_semiring_gives_shortest_paths() {
        use mixen_graph::MinF32;
        let wg = weighted_toy();
        let e = weighted(&wg);
        let root = 3u32;
        let init = |v: NodeId| {
            if v == root {
                MinF32(0.0)
            } else {
                MinF32::identity()
            }
        };
        let apply = move |v: NodeId, s: MinF32| {
            let mut out = s;
            out.combine(if v == root {
                MinF32(0.0)
            } else {
                MinF32::identity()
            });
            out
        };
        let (dist, _) = e.iterate_until(init, apply, 0.0, 50);
        // 3->0 = 4; 3->0->1 = 6; ->2 = 6.5; 3->4 = 1 (vs 3->0->1->4 = 9).
        assert_eq!(dist[3].0, 0.0);
        assert_eq!(dist[0].0, 4.0);
        assert_eq!(dist[1].0, 6.0);
        assert_eq!(dist[2].0, 6.5);
        assert_eq!(dist[4].0, 1.0);
    }

    #[test]
    fn weighted_phase_stats_and_metrics_are_recorded() {
        let wg = weighted_toy();
        let e = weighted(&wg);
        let (vals, stats) = e.iterate_with_stats::<f32, _, _>(|v| (v + 1) as f32, |_, s| s, 3);
        assert_eq!(stats.iterations, 3);
        assert!(stats.pre_seconds >= 0.0);
        assert!(stats.main_seconds() >= 0.0);
        assert!(stats.post_seconds >= 0.0);
        let plain = e.iterate::<f32, _, _>(|v| (v + 1) as f32, |_, s| s, 3);
        assert_eq!(vals, plain);
        let snap = e.metrics().snapshot();
        let reg_nnz = e.filtered().reg_nnz() as u64;
        // Two runs of 3 iterations each hit the gather kernel 6 times.
        assert_eq!(snap.get("edges_gathered"), 6 * reg_nnz);
        assert_eq!(snap.get("edges_scattered"), 6 * reg_nnz);
        // One weighted static-bin build: the second run starts from the same
        // seed values and finds the bin the engine kept.
        assert_eq!(snap.get("static_bin_recomputes"), 1);
    }

    #[test]
    fn weighted_zero_iterations_and_empty_graph() {
        let wg = WGraph::from_triples(0, &[]);
        let e = weighted(&wg);
        assert!(e.iterate::<f32, _, _>(|_| 1.0, |_, s| s, 3).is_empty());
        let wg = weighted_toy();
        let e = weighted(&wg);
        let got = e.iterate::<f32, _, _>(|v| v as f32, |_, _| f32::NAN, 0);
        assert_eq!(got, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn try_weighted_validates_options_like_try_new() {
        let wg = weighted_toy();
        let zero_side = MixenOpts {
            block_side: 0,
            ..small_opts()
        };
        let err = MixenEngine::try_weighted(&wg, zero_side).unwrap_err();
        assert_eq!(err.kind_name(), "invariant");
    }

    #[test]
    fn block_side_must_leave_the_flag_bit_free() {
        let g = mixed_graph();
        let side = |block_side| MixenOpts {
            block_side,
            ..small_opts()
        };
        let err = MixenEngine::try_new(&g, side(MixenOpts::MAX_BLOCK_SIDE + 1)).unwrap_err();
        assert!(
            matches!(&err, GraphError::Invariant(msg) if msg.contains("bit 31")),
            "{err:?}"
        );
        // The largest accepted side: one block, and (integer-valued sums are
        // exact in any order) the same ranks as any other side.
        let e = MixenEngine::try_new(&g, side(MixenOpts::MAX_BLOCK_SIDE)).unwrap();
        let want = MixenEngine::new(&g, small_opts()).iterate::<f32, _, _>(|_| 1.0, |_, s| s, 2);
        assert_eq!(e.iterate::<f32, _, _>(|_| 1.0, |_, s| s, 2), want);
    }

    // ---- Counters under `tol`, entry-cost accounting ----

    #[test]
    fn tol_runs_prime_once_per_iteration() {
        let g = mixed_graph();
        let apply = |_: NodeId, sum: f32| 0.25 * sum + 1.0;
        let e = MixenEngine::new(&g, small_opts());
        let (_, iters) = e.iterate_until::<f32, _, _>(|_| 1.0, apply, 1e-7, 200);
        assert!((2..200).contains(&iters), "took {iters}");
        let snap = e.metrics().snapshot();
        assert_eq!(snap.get("static_bin_recomputes"), 1);
        // The first accumulator, then Scatter's Cache step every iteration
        // (none is known to be the last) — and nothing else.
        assert_eq!(snap.get("static_bin_reuses"), 1 + iters as u64);

        let ablated = MixenEngine::new(
            &g,
            MixenOpts {
                cache_step: false,
                ..small_opts()
            },
        );
        let (_, iters) = ablated.iterate_until::<f32, _, _>(|_| 1.0, apply, 1e-7, 200);
        let snap = ablated.metrics().snapshot();
        // The first accumulator plus one redundant push per iteration.
        assert_eq!(snap.get("static_bin_recomputes"), 1 + iters as u64);
        assert_eq!(snap.get("static_bin_reuses"), 0);
    }

    /// Wherever a `tol` run stops — converged, or cut off by `max_iters` —
    /// the sinks pull from the values propagated in its last iteration.
    #[test]
    fn tol_runs_match_the_reference_wherever_they_stop() {
        let g = skewed_toy();
        let apply = |v: NodeId, sum: f32| 0.125 * sum + 0.01 * (v % 7) as f32;
        // Seed-fixed-point contract: in-degree-0 nodes start at apply(v, 0).
        let init = |v: NodeId| {
            if g.in_degree(v) == 0 {
                apply(v, 0.0)
            } else {
                0.01 * (v % 13) as f32
            }
        };
        for lanes in [1usize, 2] {
            mixen_pool::with_threads(lanes, || {
                let e = MixenEngine::new(&g, toy_opts());
                for (tol, max_iters) in [(0.0, 1), (0.0, 2), (0.0, 5), (1e-6, 40)] {
                    let (got, iters) = e.iterate_until::<f32, _, _>(init, apply, tol, max_iters);
                    assert!(tol > 0.0 || iters == max_iters);
                    assert!(iters < 40, "took {iters}");
                    let want = reference::<f32>(&g, init, apply, iters);
                    for (v, (a, b)) in got.iter().zip(&want).enumerate() {
                        assert!(
                            (a - b).abs() < 1e-5,
                            "node {v}, {iters} iterations: {a} vs {b}"
                        );
                    }
                }
            });
        }
    }

    #[test]
    fn phases_and_init_account_for_a_call() {
        let g = skewed_toy();
        let e = MixenEngine::new(&g, toy_opts());
        let apply = |v: NodeId, sum: f32| 0.5 * sum + 0.1 * (v % 7) as f32;
        for call in 0..2 {
            let clock = std::time::Instant::now();
            let (_, stats) = e.iterate_with_stats::<f32, _, _>(|v| (v % 5) as f32, apply, 4);
            let wall = clock.elapsed().as_secs_f64();
            let parts = [
                stats.pre_seconds,
                stats.scatter_seconds,
                stats.gather_seconds,
                stats.post_seconds,
                stats.init_seconds,
            ];
            assert!(parts.iter().all(|&s| s >= 0.0), "{stats:?}");
            assert!(stats.init_seconds > 0.0, "{stats:?}");
            assert!(parts.iter().sum::<f64>() <= wall, "{stats:?} vs {wall}");
            let json = stats.to_json().render();
            assert!(json.contains("\"init_seconds\""), "{json}");
            // Unchanged seed values: the second call finds the bin.
            let snap = e.metrics().snapshot();
            assert_eq!(snap.get("static_bin_recomputes"), 1, "call {call}");
        }
    }

    // ---- Resident run state ----

    /// 120 regular nodes (a ring plus pseudo-random chords), 30 seeds the
    /// first of which is a hub, 20 sinks fed by regulars and seeds, 2
    /// isolated nodes; `(src, dst, weight)`.
    fn toy_triples() -> (usize, Vec<(NodeId, NodeId, f32)>) {
        let mut state = 0x2545_f491u32;
        let mut next = |m: u32| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (state >> 8) % m
        };
        let mut t = Vec::new();
        for u in 0..120u32 {
            t.push((u, (u + 1) % 120, 0.5));
            for _ in 0..next(4) {
                t.push((u, next(120), 0.25 + next(8) as f32 / 8.0));
            }
        }
        for s in 120..150u32 {
            for _ in 0..if s == 120 { 90 } else { 1 + next(3) } {
                t.push((s, next(120), 0.5 + next(4) as f32 / 4.0));
            }
            t.push((s, 150 + next(20), 1.5));
        }
        for k in 150..170u32 {
            t.push((next(120), k, 0.75));
        }
        (172, t)
    }

    fn skewed_toy() -> Graph {
        let (n, t) = toy_triples();
        let pairs: Vec<_> = t.iter().map(|&(u, v, _)| (u, v)).collect();
        Graph::from_pairs(n, &pairs)
    }

    fn toy_opts() -> MixenOpts {
        MixenOpts {
            block_side: 16,
            min_tasks_per_thread: 1,
            ..MixenOpts::default()
        }
    }

    /// One of four kinds of run — `f32` or `[f32; 8]`, fixed-count or `tol`
    /// — as result bits; `salt` moves every initial value, the seeds'
    /// included.
    fn run_kind<W: Weights>(e: &MixenEngine<W>, kind: usize, salt: u32) -> Vec<u32> {
        let init = move |v: NodeId| 0.01 * ((v + salt) % 13) as f32;
        let apply = |v: NodeId, sum: f32| 0.125 * sum + 0.01 * (v % 7) as f32;
        let init8 = move |v: NodeId| std::array::from_fn(|k| init(v) + 0.001 * k as f32);
        let apply8 =
            |v: NodeId, sum: [f32; 8]| std::array::from_fn(|k| apply(v, sum[k]) + k as f32);
        let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        match kind % 4 {
            0 => bits(e.iterate::<f32, _, _>(init, apply, 3)),
            1 => bits(e.iterate::<[f32; 8], _, _>(init8, apply8, 2).concat()),
            2 => {
                let (vals, iters) = e.iterate_until::<f32, _, _>(init, apply, 1e-6, 40);
                assert!((2..40).contains(&iters), "took {iters}");
                bits(vals)
            }
            _ => {
                // Cut off by `max_iters`, never converged.
                let (vals, iters) = e.iterate_until::<[f32; 8], _, _>(init8, apply8, 0.0, 5);
                assert_eq!(iters, 5);
                bits(vals.concat())
            }
        }
    }

    /// Kinds and salts in an order that has every transition: same type and
    /// same seeds (bin kept), same type and new seeds, another type,
    /// fixed-count after `tol` and back, a `tol` run cut off by `max_iters`.
    const SCHEDULE: [(usize, u32); 12] = [
        (0, 0),
        (0, 0),
        (0, 1),
        (2, 1),
        (1, 1),
        (1, 1),
        (3, 1),
        (3, 2),
        (2, 2),
        (0, 2),
        (1, 0),
        (2, 0),
    ];

    #[test]
    fn a_warm_engine_returns_the_bits_of_a_fresh_one() {
        let (n, triples) = toy_triples();
        let wg = WGraph::from_triples(n, &triples);
        let g = skewed_toy();
        for lanes in [1usize, 2] {
            mixen_pool::with_threads(lanes, || {
                let warm = MixenEngine::new(&g, toy_opts());
                let warm_w = MixenEngine::try_weighted(&wg, toy_opts()).unwrap();
                for (step, (kind, salt)) in SCHEDULE.into_iter().enumerate() {
                    let at = format!("lanes {lanes}, step {step}");
                    let fresh = MixenEngine::new(&g, toy_opts());
                    assert_eq!(
                        run_kind(&warm, kind, salt),
                        run_kind(&fresh, kind, salt),
                        "{at}"
                    );
                    let fresh_w = MixenEngine::try_weighted(&wg, toy_opts()).unwrap();
                    assert_eq!(
                        run_kind(&warm_w, kind, salt),
                        run_kind(&fresh_w, kind, salt),
                        "weighted, {at}"
                    );
                }
            });
        }
    }

    #[test]
    fn concurrent_callers_on_one_engine_both_get_the_fresh_bits() {
        use std::sync::Barrier;
        let g = skewed_toy();
        let init = |v: NodeId| 0.01 * (v % 13) as f32;
        let apply = |v: NodeId, sum: f32| 0.125 * sum + 0.01 * (v % 7) as f32;
        let want = MixenEngine::new(&g, toy_opts()).iterate::<f32, _, _>(init, apply, 3);
        let e = MixenEngine::new(&g, toy_opts());
        assert_eq!(e.iterate::<f32, _, _>(init, apply, 3), want);

        // The first caller stops inside its run — holding the state it took
        // from the warm engine — until the second has run start to finish.
        let (entered, resume) = (Barrier::new(2), Barrier::new(2));
        let first_call = AtomicBool::new(true);
        let gated_init = |v: NodeId| {
            if first_call.swap(false, Ordering::Relaxed) {
                entered.wait();
                resume.wait();
            }
            init(v)
        };
        std::thread::scope(|s| {
            let first = s.spawn(|| e.iterate::<f32, _, _>(gated_init, apply, 3));
            entered.wait();
            assert!(e.scratch.take::<RunScratch<f32>>().is_none());
            assert_eq!(e.iterate::<f32, _, _>(init, apply, 3), want);
            resume.wait();
            assert_eq!(first.join().unwrap(), want);
        });
        assert!(e.scratch.take::<RunScratch<f32>>().is_some());
    }

    #[test]
    fn a_clone_starts_cold_and_shares_nothing() {
        let g = skewed_toy();
        let e = MixenEngine::new(&g, toy_opts());
        let first = run_kind(&e, 0, 0);
        let c = e.clone();
        assert!(c.scratch.take::<RunScratch<f32>>().is_none());
        // The original kept its state, and neither run disturbs the other's.
        let kept = e.scratch.take::<RunScratch<f32>>().unwrap();
        let kept_x = kept.x.as_ptr();
        e.scratch.put(kept);
        assert_eq!(run_kind(&c, 0, 0), first);
        assert_eq!(run_kind(&e, 0, 0), first);
        let mine = c.scratch.take::<RunScratch<f32>>().unwrap();
        let theirs = e.scratch.take::<RunScratch<f32>>().unwrap();
        assert!(mine.x.as_ptr() != theirs.x.as_ptr() && mine.y.as_ptr() != theirs.x.as_ptr());
        assert!([theirs.x.as_ptr(), theirs.y.as_ptr()].contains(&kept_x));
    }

    #[test]
    fn a_warm_call_reuses_every_buffer() {
        let g = skewed_toy();
        let e = MixenEngine::new(&g, toy_opts());
        let first = run_kind(&e, 2, 0);
        let buffers = |s: &RunScratch<f32>| {
            let mut xy = [s.x.as_ptr(), s.y.as_ptr()];
            xy.sort();
            let bins = s.bins.as_ref().unwrap().tasks();
            let first_stream = bins
                .iter()
                .flat_map(|t| (0..e.blocked().n_col_blocks()).map(|j| t.col(j)))
                .find(|col| !col.is_empty())
                .unwrap();
            (
                xy,
                s.prev.as_ptr(),
                s.seed_vals.as_ptr(),
                s.sta.as_ref().unwrap().values().as_ptr(),
                first_stream.as_ptr(),
            )
        };
        let parked = e.scratch.take::<RunScratch<f32>>().unwrap();
        let before = buffers(&parked);
        assert_eq!(parked.x.len(), e.filtered().num_regular());
        e.scratch.put(parked);
        // Fixed-count and `tol`, same seed values: nothing is reallocated
        // (x and y may have traded places).
        assert_eq!(run_kind(&e, 2, 0), first);
        let _ = run_kind(&e, 0, 0);
        let parked = e.scratch.take::<RunScratch<f32>>().unwrap();
        assert_eq!(buffers(&parked), before);
    }

    #[test]
    fn changed_or_nan_seed_values_miss_the_kept_bin() {
        let g = skewed_toy();
        let e = MixenEngine::new(&g, toy_opts());
        let recomputes = || e.metrics().snapshot().get("static_bin_recomputes");
        let seeds_at = |seed_val: f32| {
            let g = &g;
            move |v: NodeId| if g.in_degree(v) == 0 { seed_val } else { 1.0 }
        };
        let run = |seed_val: f32| e.iterate::<f32, _, _>(seeds_at(seed_val), |_, s| 0.1 * s, 2);
        let fresh = |seed_val: f32| {
            let fresh = MixenEngine::new(&g, toy_opts());
            fresh.iterate::<f32, _, _>(seeds_at(seed_val), |_, s| 0.1 * s, 2)
        };
        let a = run(2.0);
        assert_eq!(recomputes(), 1);
        assert_eq!(run(2.0), a);
        assert_eq!(recomputes(), 1, "equal seed values must find the bin");
        // Only the seeds' values moved; the regular nodes start where they did.
        assert_eq!(run(3.0), fresh(3.0));
        assert_eq!(recomputes(), 2, "new seed values must rebuild it");
        assert_eq!(run(2.0), a);
        assert_eq!(recomputes(), 3);
        // NaN never compares equal, not even to the NaN of the last run.
        let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        let nan = bits(run(f32::NAN));
        assert_eq!(recomputes(), 4);
        assert_eq!(bits(run(f32::NAN)), nan);
        assert_eq!(recomputes(), 5);
        assert_eq!(nan, bits(fresh(f32::NAN)));
    }

    #[test]
    fn a_panicking_apply_leaves_the_engine_usable() {
        let g = skewed_toy();
        let e = MixenEngine::new(&g, toy_opts());
        let want = run_kind(&e, 0, 0);
        let blown = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            e.iterate::<f32, _, _>(|_| 1.0, |v, _| panic!("apply blew up at {v}"), 2)
        }));
        assert!(blown.is_err());
        // The run state went down with the panicking call: the cell is
        // empty, not poisoned, and the next call builds its own.
        assert!(e.scratch.take::<RunScratch<f32>>().is_none());
        assert_eq!(run_kind(&e, 0, 0), want);
        assert!(e.scratch.take::<RunScratch<f32>>().is_some());
    }

    #[test]
    fn merge_positions_finds_intersection() {
        use crate::scga::merge_positions;
        assert_eq!(merge_positions(&[1, 3, 5, 7], &[3, 4, 7]), vec![1, 3]);
        assert_eq!(merge_positions(&[], &[1]), Vec::<u32>::new());
        assert_eq!(merge_positions(&[1], &[]), Vec::<u32>::new());
    }
}
