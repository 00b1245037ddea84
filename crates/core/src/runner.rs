//! Supervised execution: numeric health checks, checkpoint/resume, a
//! wall-clock deadline and a pull fallback around the Mixen engine.
//!
//! [`RobustRunner`] wraps one link-analysis run:
//!
//! 1. **Preprocess** — the engine is built through
//!    [`MixenEngine::try_new`]; if that returns an error (invalid options or
//!    a failed preprocessing invariant), the run continues on a dense pull
//!    baseline with the same synchronous semantics instead of aborting.
//! 2. **Iterate** — one engine entry per iteration; after each, the values
//!    are checked through the [`ValueCheck`] trait, and NaN, Inf, or a
//!    magnitude beyond `1e12` stops the run with [`GraphError::Numeric`]
//!    naming that iteration.
//! 3. **Checkpoint** — with [`RunnerOpts::checkpoint_path`] set, the value
//!    vector is snapshotted atomically (`CKPT1`, see [`mixen_graph::ckpt`])
//!    every [`RunnerOpts::checkpoint_every`] iterations, and
//!    [`RobustRunner::resume_from`] warm-starts an interrupted run; at a
//!    fixed lane count the resumed run converges to bit-identical output.
//! 4. **Deadline** — [`RunnerOpts::deadline`] is checked before every
//!    iteration (a running iteration is never interrupted). An overrun
//!    writes a final checkpoint when checkpointing is on and stops the run
//!    with [`GraphError::Deadline`].
//!
//! Every outcome — success or failure — carries a [`RunReport`] recording
//! iterations, the last residual, phase timings, and the fallback if one
//! happened, so operators can see *how* a run succeeded, not just that it
//! did.

// `RunFailure` is deliberately larger than a bare error: it carries the
// report accumulated up to the failure point.
#![allow(clippy::result_large_err)]

use mixen_graph::nid;
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use mixen_graph::ckpt::{Checkpoint, CkptValue};
use mixen_graph::io::graph_checksum;
use mixen_graph::{max_diff, pull_sweep, Graph, GraphError, NodeId, PropValue};

use crate::engine::{stamp_iteration, MixenEngine, PhaseStats};
use crate::obs::{Json, MetricsSnapshot};
use crate::opts::MixenOpts;

/// Values with magnitude above this are treated as divergence.
const DIVERGENCE_LIMIT: f64 = 1e12;

/// A numeric problem found in a value vector.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NumericIssue {
    NaN,
    Infinite,
    /// Finite but with magnitude beyond the divergence limit.
    Diverged(f64),
}

impl fmt::Display for NumericIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumericIssue::NaN => write!(f, "NaN"),
            NumericIssue::Infinite => write!(f, "infinite value"),
            NumericIssue::Diverged(mag) => write!(f, "magnitude {mag:e} beyond limit"),
        }
    }
}

/// Per-value numeric health probe used by the supervised iteration loop.
pub trait ValueCheck: Copy {
    /// Returns the first problem with this value, or `None` when healthy.
    /// `limit` bounds the acceptable magnitude.
    fn issue(&self, limit: f64) -> Option<NumericIssue>;
}

impl ValueCheck for f32 {
    fn issue(&self, limit: f64) -> Option<NumericIssue> {
        (*self as f64).issue(limit)
    }
}

impl ValueCheck for f64 {
    fn issue(&self, limit: f64) -> Option<NumericIssue> {
        if self.is_nan() {
            Some(NumericIssue::NaN)
        } else if self.is_infinite() {
            Some(NumericIssue::Infinite)
        } else if self.abs() > limit {
            Some(NumericIssue::Diverged(self.abs()))
        } else {
            None
        }
    }
}

impl<const K: usize> ValueCheck for [f32; K] {
    fn issue(&self, limit: f64) -> Option<NumericIssue> {
        self.iter().find_map(|v| v.issue(limit))
    }
}

/// Which execution path actually produced the results.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EngineUsed {
    /// The full Mixen engine (filter → block → SCGA).
    #[default]
    Mixen,
    /// The dense pull baseline, after Mixen preprocessing was rejected.
    PullFallback,
}

/// One recorded degradation during a supervised run.
#[derive(Clone, Debug)]
pub enum DegradationEvent {
    /// [`MixenEngine::try_new`] returned an error; the run continued on the
    /// pull baseline.
    EngineFallback { reason: String },
}

impl DegradationEvent {
    /// JSON object for the report's `degradations` array.
    pub fn to_json(&self) -> Json {
        let DegradationEvent::EngineFallback { reason } = self;
        Json::Obj(vec![
            ("kind".into(), Json::Str("engine_fallback".into())),
            ("reason".into(), Json::Str(reason.clone())),
        ])
    }
}

/// What happened during a supervised run — populated on success *and* on
/// failure (see [`RunFailure`]).
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Execution path that produced (or was producing) the values.
    pub engine: EngineUsed,
    /// Iterations completed, including the one a numeric fault was found in.
    pub iterations: usize,
    /// Max-norm change across the last iteration (`∞` until one has run).
    pub residual: f64,
    /// Per-phase wall clock (Mixen path only), normalized across engine
    /// entries (one per iteration): one Pre-Phase (the first entry's),
    /// Scatter/Gather summed over every iteration, and one Post-Phase (the
    /// last entry's). The redundant re-entry work lives in
    /// [`RunReport::reentry_pre_seconds`]/[`RunReport::reentry_post_seconds`]
    /// so `out_of_main_fraction` stays an honest Fig. 4-style number.
    pub phase_stats: PhaseStats,
    /// Every degradation, in order.
    pub degradations: Vec<DegradationEvent>,
    /// Engine entries beyond the first (`iterations - 1` on an engine run
    /// without faults).
    pub batch_reentries: usize,
    /// Pre-Phase seconds burned by engine re-entries — supervision
    /// overhead, not part of the algorithm's phase breakdown.
    pub reentry_pre_seconds: f64,
    /// Post-Phase seconds of superseded intermediate assemblies — likewise
    /// supervision overhead.
    pub reentry_post_seconds: f64,
    /// Counter snapshot: engine kernels merged with runner supervision
    /// events (see [`crate::obs::Metrics`] for the catalogue).
    pub metrics: MetricsSnapshot,
    /// Total lane count the run started with (provenance; 0 until a run
    /// stamps it).
    pub threads: usize,
    /// [`RunnerOpts::fingerprint`] of the run (provenance; the value
    /// checkpoints carry to reject stale resumes).
    pub opts_fingerprint: u64,
}

impl Default for RunReport {
    fn default() -> Self {
        Self {
            engine: EngineUsed::default(),
            iterations: 0,
            // No residual can exist until an iteration has run.
            residual: f64::INFINITY,
            phase_stats: PhaseStats::default(),
            degradations: Vec::new(),
            batch_reentries: 0,
            reentry_pre_seconds: 0.0,
            reentry_post_seconds: 0.0,
            metrics: MetricsSnapshot::default(),
            threads: 0,
            opts_fingerprint: 0,
        }
    }
}

impl RunReport {
    /// Folds one engine entry's stats into the report. The first entry
    /// contributes all four phases; later (re-entry) iterations contribute
    /// only their Main-Phase and their entry cost (`init_seconds`, which
    /// every entry pays) — their Pre-Phase (a lookup of the bin the engine
    /// kept, unless the seed values moved) is booked under
    /// `reentry_pre_seconds`, and the previous entry's Post-Phase (now
    /// superseded by this entry's final assembly) moves to
    /// `reentry_post_seconds`.
    fn absorb(&mut self, s: PhaseStats) {
        if self.phase_stats.iterations == 0 {
            self.phase_stats.pre_seconds += s.pre_seconds;
            self.phase_stats.post_seconds += s.post_seconds;
        } else {
            self.batch_reentries += 1;
            self.metrics.add("batch_reentries", 1);
            self.reentry_pre_seconds += s.pre_seconds;
            self.reentry_post_seconds += self.phase_stats.post_seconds;
            self.phase_stats.post_seconds = s.post_seconds;
        }
        self.phase_stats.scatter_seconds += s.scatter_seconds;
        self.phase_stats.gather_seconds += s.gather_seconds;
        self.phase_stats.init_seconds += s.init_seconds;
        self.phase_stats.iterations += s.iterations;
    }

    /// The complete machine-readable report (DESIGN.md §6d schema): engine,
    /// iterations, residual, phase timings, re-entry accounting, degradation
    /// trail, and the counter snapshot.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "engine".into(),
                Json::Str(
                    match self.engine {
                        EngineUsed::Mixen => "mixen",
                        EngineUsed::PullFallback => "pull_fallback",
                    }
                    .into(),
                ),
            ),
            ("iterations".into(), Json::from_u64(self.iterations as u64)),
            ("residual".into(), Json::from_f64(self.residual)),
            ("phases".into(), self.phase_stats.to_json()),
            (
                "batch_reentries".into(),
                Json::from_u64(self.batch_reentries as u64),
            ),
            (
                "reentry_pre_seconds".into(),
                Json::from_f64(self.reentry_pre_seconds),
            ),
            (
                "reentry_post_seconds".into(),
                Json::from_f64(self.reentry_post_seconds),
            ),
            (
                "degradations".into(),
                Json::Arr(self.degradations.iter().map(|d| d.to_json()).collect()),
            ),
            ("counters".into(), self.metrics.to_json()),
            (
                "provenance".into(),
                Json::Obj(vec![
                    (
                        "crate_version".into(),
                        Json::Str(env!("CARGO_PKG_VERSION").into()),
                    ),
                    ("threads".into(), Json::from_u64(self.threads as u64)),
                    (
                        "opts_fingerprint".into(),
                        Json::Str(format!("{:#018x}", self.opts_fingerprint)),
                    ),
                ]),
            ),
        ])
    }
}

/// A failed supervised run: the typed error plus the report accumulated up
/// to the failure point.
#[derive(Debug)]
pub struct RunFailure {
    pub error: GraphError,
    pub report: RunReport,
}

impl fmt::Display for RunFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "supervised run failed after {} iterations: {}",
            self.report.iterations, self.error
        )
    }
}

impl std::error::Error for RunFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

impl From<RunFailure> for GraphError {
    fn from(f: RunFailure) -> Self {
        f.error
    }
}

/// Supervision policy for [`RobustRunner`].
#[derive(Clone, Debug, Default)]
pub struct RunnerOpts {
    /// Options for the underlying Mixen engine.
    pub mixen: MixenOpts,
    /// Write `CKPT1` snapshots to this path (atomically, temp + rename)
    /// during supervised runs; `None` disables checkpointing.
    pub checkpoint_path: Option<PathBuf>,
    /// Iterations between snapshots (0 and 1 both mean every iteration).
    /// Only consulted when [`RunnerOpts::checkpoint_path`] is set.
    pub checkpoint_every: usize,
    /// Wall-clock budget for the whole run, checked before every iteration
    /// (a running iteration is never interrupted); an overrun surfaces as
    /// [`GraphError::Deadline`].
    pub deadline: Option<Duration>,
    /// Extra value folded into [`RunnerOpts::fingerprint`], for algorithm
    /// parameters the runner cannot see (e.g. the PageRank damping factor).
    pub fingerprint_extra: u64,
}

impl RunnerOpts {
    /// Deterministic FNV-1a fold of every knob that affects the produced
    /// values — the Mixen engine shape, [`RunnerOpts::fingerprint_extra`],
    /// and the lane count. Checkpoints carry this value so
    /// [`RobustRunner::resume_from`] rejects resumes under a configuration
    /// that would break the bit-identical-output contract.
    pub fn fingerprint(&self, lanes: usize) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        // Exhaustive on purpose (no `..`): a field added to `MixenOpts`
        // fails to compile here until it is folded, so `resume_from` can
        // never accept a checkpoint written under a different partition.
        let MixenOpts {
            block_side,
            ordering,
            cache_step,
            load_balance,
            min_tasks_per_thread,
            bin_encoding,
        } = self.mixen;
        fold(block_side as u64);
        fold(ordering.policy_id());
        fold(u64::from(cache_step));
        fold(u64::from(load_balance));
        fold(min_tasks_per_thread as u64);
        // The bin encoding changes the streamed numerics, so a resume under
        // a different one must be rejected.
        fold(bin_encoding.encoding_id());
        fold(self.fingerprint_extra);
        fold(lanes as u64);
        h
    }
}

/// Supervised execution wrapper around [`MixenEngine`]; see the module docs.
#[derive(Clone, Debug, Default)]
pub struct RobustRunner {
    opts: RunnerOpts,
}

impl RobustRunner {
    pub fn new(opts: RunnerOpts) -> Self {
        Self { opts }
    }

    pub fn opts(&self) -> &RunnerOpts {
        &self.opts
    }

    /// Runs `iters` supervised synchronous iterations of
    /// `x'[v] = apply(v, Σ_{u→v} x[u])`; see [`crate::Engine::iterate`] for
    /// the closure contract. Values are health-checked after every
    /// iteration.
    pub fn run<V, FI, FA>(
        &self,
        g: &Graph,
        init: FI,
        apply: FA,
        iters: usize,
    ) -> Result<(Vec<V>, RunReport), RunFailure>
    where
        V: PropValue + ValueCheck + CkptValue,
        FI: Fn(NodeId) -> V + Sync,
        FA: Fn(NodeId, V) -> V + Sync,
    {
        // The initial vector is materialized once so it can be checked as
        // iteration 0. The engine then re-reads these exact values through
        // the prev closure, so the result is bitwise identical to seeding
        // the engine with `init`.
        let cur0: Vec<V> = (0..nid(g.n())).map(&init).collect();
        self.run_inner(g, RunReport::default(), cur0, apply, iters)
    }

    /// Loads and validates a `CKPT1` snapshot for a warm start: the magic,
    /// payload checksum, graph checksum, runner fingerprint (options + lane
    /// count), value width, and value count must all match the live run.
    /// Every mismatch is a typed error naming what went stale.
    pub fn resume_from<V>(&self, g: &Graph, path: &Path) -> Result<Resumed<V>, GraphError>
    where
        V: PropValue + CkptValue,
    {
        let ck = Checkpoint::load(path)?;
        let live_crc = graph_checksum(g);
        if ck.graph_checksum != live_crc {
            return Err(GraphError::Format(format!(
                "stale checkpoint: graph checksum {:#010x} does not match the loaded \
                 graph's {:#010x}",
                ck.graph_checksum, live_crc
            )));
        }
        let lanes = mixen_pool::current_num_threads();
        let fp = self.opts.fingerprint(lanes);
        if ck.fingerprint != fp {
            return Err(GraphError::Format(format!(
                "stale checkpoint: fingerprint {:#018x} does not match the current \
                 configuration's {:#018x} (runner options, algorithm parameters, or \
                 lane count changed since the snapshot)",
                ck.fingerprint, fp
            )));
        }
        let values: Vec<V> = ck.values()?;
        if values.len() != g.n() {
            return Err(GraphError::Format(format!(
                "checkpoint holds {} values for a graph of {} nodes",
                values.len(),
                g.n()
            )));
        }
        let iteration = usize::try_from(ck.iteration).map_err(|_| GraphError::Capacity {
            what: "checkpoint iteration",
            requested: ck.iteration,
            limit: usize::MAX as u64,
        })?;
        Ok(Resumed {
            values,
            iteration,
            residual: ck.residual,
        })
    }

    /// Continues a run from a [`Resumed`] warm start until `total_iters`
    /// iterations have been completed overall (checkpoint iterations
    /// included). A snapshot already at `total_iters` is returned as it is;
    /// one past it is a [`GraphError::Format`] naming both counts. At a
    /// fixed lane count the final values are bit-identical to an
    /// uninterrupted `total_iters`-iteration run whenever the iteration
    /// composition is bitwise associative — true for PageRank-style kernels
    /// whose seed values are at their bitwise fixed point.
    pub fn run_resumed<V, FA>(
        &self,
        g: &Graph,
        resumed: Resumed<V>,
        apply: FA,
        total_iters: usize,
    ) -> Result<(Vec<V>, RunReport), RunFailure>
    where
        V: PropValue + ValueCheck + CkptValue,
        FA: Fn(NodeId, V) -> V + Sync,
    {
        if total_iters < resumed.iteration {
            return Err(RunFailure {
                error: GraphError::Format(format!(
                    "checkpoint is at iteration {}, past the requested total of {total_iters} \
                     iterations",
                    resumed.iteration
                )),
                report: RunReport::default(),
            });
        }
        let mut report = RunReport {
            iterations: resumed.iteration,
            residual: resumed.residual,
            ..RunReport::default()
        };
        report.metrics.add("resumes", 1);
        self.run_inner(g, report, resumed.values, apply, total_iters)
    }

    /// The shared supervised run behind [`RobustRunner::run`] and
    /// [`RobustRunner::run_resumed`]: `cur` holds the values as of
    /// `report.iterations`, whose residual is `report.residual`.
    fn run_inner<V, FA>(
        &self,
        g: &Graph,
        mut report: RunReport,
        mut cur: Vec<V>,
        apply: FA,
        iters: usize,
    ) -> Result<(Vec<V>, RunReport), RunFailure>
    where
        V: PropValue + ValueCheck + CkptValue,
        FA: Fn(NodeId, V) -> V + Sync,
    {
        let lanes = mixen_pool::current_num_threads();
        report.threads = lanes;
        report.opts_fingerprint = self.opts.fingerprint(lanes);
        let engine = match MixenEngine::try_new(g, self.opts.mixen) {
            Ok(e) => Some(e),
            Err(err) => {
                report.degradations.push(DegradationEvent::EngineFallback {
                    reason: err.to_string(),
                });
                report.engine = EngineUsed::PullFallback;
                report.metrics.add("engine_fallbacks", 1);
                None
            }
        };
        // Pool counters are process-global; remember the entry level so the
        // report carries only this run's task delta.
        let pool_tasks_at_entry = mixen_pool::stats().tasks_executed;
        let outcome = self.iterate(g, engine.as_ref(), &mut report, &mut cur, &apply, iters);
        // Merge the engine's kernel counters into the report on every exit,
        // and stamp the executor's shape and work for this run.
        if let Some(e) = &engine {
            report.metrics.merge(&e.metrics().snapshot());
        }
        let pool = mixen_pool::stats();
        report.metrics.set("pool_workers", pool.threads as u64);
        report.metrics.set(
            "pool_tasks_executed",
            pool.tasks_executed.saturating_sub(pool_tasks_at_entry),
        );
        match outcome {
            Ok(()) => Ok((cur, report)),
            Err(error) => Err(RunFailure { error, report }),
        }
    }

    /// Advances `cur` from `report.iterations` to `iters` one iteration at
    /// a time: the deadline is checked before each iteration, the values
    /// after it, and snapshots are written on cadence.
    fn iterate<V, FA>(
        &self,
        g: &Graph,
        engine: Option<&MixenEngine>,
        report: &mut RunReport,
        cur: &mut Vec<V>,
        apply: &FA,
        iters: usize,
    ) -> Result<(), GraphError>
    where
        V: PropValue + ValueCheck + CkptValue,
        FA: Fn(NodeId, V) -> V + Sync,
    {
        let started = Instant::now();
        let mut done = report.iterations;
        if let Some(fault) = scan(cur) {
            return Err(numeric_error(done, fault));
        }
        let ckpt = self
            .opts
            .checkpoint_path
            .as_deref()
            .map(|p| (p, graph_checksum(g)));
        let ckpt_every = self.opts.checkpoint_every.max(1);
        let mut last_ckpt = done;
        while done < iters {
            if let Some(deadline) = self.opts.deadline {
                if started.elapsed() >= deadline {
                    report.metrics.set("deadline_exceeded", 1);
                    // Make the progress so far durable before stopping.
                    if let Some((path, crc)) = ckpt {
                        write_checkpoint(path, crc, cur, report)?;
                    }
                    return Err(GraphError::Deadline {
                        elapsed_ms: dur_ms(started.elapsed()),
                        budget_ms: dur_ms(deadline),
                    });
                }
            }
            done += 1;
            report.iterations = done;
            let next = match engine {
                Some(e) => {
                    let prev = &*cur;
                    let (vals, stats) = e
                        .try_run(|v| prev[v as usize], apply, 1, None)
                        .map_err(|err| stamp_iteration(err, done))?;
                    report.absorb(stats);
                    vals
                }
                None => pull_sweep(g, cur, apply),
            };
            if let Some(fault) = scan(&next) {
                return Err(numeric_error(done, fault));
            }
            report.residual = max_diff(&next, cur);
            *cur = next;
            if let Some((path, crc)) = ckpt {
                if done - last_ckpt >= ckpt_every || done == iters {
                    write_checkpoint(path, crc, cur, report)?;
                    last_ckpt = done;
                }
            }
        }
        Ok(())
    }
}

/// A validated warm start produced by [`RobustRunner::resume_from`]:
/// `values` holds the vector as of completed iteration `iteration`.
#[derive(Clone, Debug)]
pub struct Resumed<V> {
    /// The value vector at the snapshot, one entry per node.
    pub values: Vec<V>,
    /// Completed iterations at the snapshot.
    pub iteration: usize,
    /// The residual (`max_diff`) recorded at the snapshot.
    pub residual: f64,
}

/// Writes one atomic `CKPT1` snapshot of `values` as of the report's
/// iteration and residual, and counts it.
fn write_checkpoint<V: PropValue + CkptValue>(
    path: &Path,
    graph_crc: u32,
    values: &[V],
    report: &mut RunReport,
) -> Result<(), GraphError> {
    let ck = Checkpoint::from_values(
        report.iterations as u64,
        report.residual,
        report.opts_fingerprint,
        graph_crc,
        values,
    );
    let bytes = ck.save_atomic(path)?;
    report.metrics.add("checkpoints_written", 1);
    report.metrics.add("checkpoint_bytes", bytes);
    Ok(())
}

fn dur_ms(d: Duration) -> u64 {
    u64::try_from(d.as_millis()).unwrap_or(u64::MAX)
}

fn scan<V: ValueCheck>(vals: &[V]) -> Option<(usize, NumericIssue)> {
    vals.iter()
        .enumerate()
        .find_map(|(i, v)| v.issue(DIVERGENCE_LIMIT).map(|iss| (i, iss)))
}

fn numeric_error(iteration: usize, (node, issue): (usize, NumericIssue)) -> GraphError {
    GraphError::Numeric {
        iteration,
        msg: format!("node {node}: {issue}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;

    fn mixed_graph() -> Graph {
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

    fn small_runner() -> RobustRunner {
        RobustRunner::new(RunnerOpts {
            mixen: MixenOpts {
                block_side: 2,
                min_tasks_per_thread: 1,
                ..MixenOpts::default()
            },
            ..RunnerOpts::default()
        })
    }

    /// A runner whose engine [`MixenEngine::try_new`] rejects
    /// (`block_side = 0` is a typed `GraphError::Invariant`), so every run
    /// takes the pull fallback.
    fn rejected_engine_runner() -> RobustRunner {
        let mut opts = small_runner().opts().clone();
        opts.mixen.block_side = 0;
        RobustRunner::new(opts)
    }

    #[test]
    fn supervised_matches_unsupervised() {
        let g = mixed_graph();
        let runner = small_runner();
        let apply = |v: NodeId, sum: f32| 0.5 * sum + 0.1 * (v as f32 + 1.0);
        let init = |v: NodeId| 0.1 * (v as f32 + 1.0);
        let engine = MixenEngine::new(&g, runner.opts().mixen);
        for iters in 0..6 {
            let (got, report) = runner.run(&g, init, apply, iters).unwrap();
            let want = engine.iterate::<f32, _, _>(init, apply, iters);
            for (a, b) in got.iter().zip(&want) {
                assert!((a - b).abs() < 1e-5, "iters={iters}: {got:?} vs {want:?}");
            }
            assert_eq!(report.iterations, iters);
            assert_eq!(report.engine, EngineUsed::Mixen);
            assert!(report.degradations.is_empty());
        }
    }

    /// Regression (residual init): the doc promises `∞` until an iteration
    /// has run, so a 0-iteration run must not report 0.0.
    #[test]
    fn zero_iteration_run_reports_infinite_residual() {
        let g = mixed_graph();
        let runner = small_runner();
        let (vals, report) = runner.run::<f32, _, _>(&g, |_| 1.0, |_, s| s, 0).unwrap();
        assert_eq!(vals.len(), g.n());
        assert_eq!(report.iterations, 0);
        assert!(report.residual.is_infinite());
        // A run with iterations does produce a finite residual.
        let (_, report) = runner
            .run::<f32, _, _>(&g, |_| 1.0, |_, s| 0.5 * s, 2)
            .unwrap();
        assert!(report.residual.is_finite());
    }

    /// Every iteration after the first re-enters the engine: the re-entries
    /// are counted, their Pre/Post work is split out of the phase
    /// breakdown, and they find the static bin the engine kept.
    #[test]
    fn reentries_are_accounted_once_per_iteration() {
        let g = mixed_graph();
        let runner = small_runner();
        let apply = |v: NodeId, sum: f32| 0.5 * sum + 0.1 * (v as f32 + 1.0);
        let init = |v: NodeId| 0.1 * (v as f32 + 1.0);
        for iters in [1usize, 3, 7] {
            let (_, report) = runner.run(&g, init, apply, iters).unwrap();
            assert_eq!(report.batch_reentries, iters - 1, "iters={iters}");
            assert_eq!(
                report.metrics.get("batch_reentries"),
                (iters - 1) as u64,
                "iters={iters}"
            );
            // Re-entries start from the seed values the first entry had, so
            // they find the static bin the engine kept.
            assert_eq!(
                report.metrics.get("static_bin_recomputes"),
                1,
                "iters={iters}"
            );
            // The normalized breakdown covers exactly `iters` Main-Phase
            // iterations and books one pre + one post, with re-entry
            // overhead split out rather than inflating the phases.
            assert_eq!(report.phase_stats.iterations, iters, "iters={iters}");
            assert!(report.phase_stats.pre_seconds >= 0.0);
            assert!(report.phase_stats.post_seconds >= 0.0);
            if iters == 1 {
                assert_eq!(report.reentry_pre_seconds, 0.0);
                assert_eq!(report.reentry_post_seconds, 0.0);
            }
            assert!((0.0..=1.0).contains(&report.phase_stats.out_of_main_fraction()));
        }
    }

    /// Satellite 4 (counter exactness): every Main-Phase iteration streams
    /// exactly the regular subgraph's edges.
    #[test]
    fn edges_scattered_matches_regular_nnz_per_iteration() {
        let g = mixed_graph();
        let runner = small_runner();
        let reg_nnz = MixenEngine::new(&g, runner.opts().mixen)
            .filtered()
            .reg_nnz() as u64;
        assert!(reg_nnz > 0);
        for iters in [1usize, 3, 5] {
            let (_, report) = runner
                .run::<f32, _, _>(&g, |_| 1.0, |_, s| 0.5 * s, iters)
                .unwrap();
            assert_eq!(
                report.metrics.get("edges_scattered"),
                iters as u64 * reg_nnz,
                "iters={iters}"
            );
            assert_eq!(
                report.metrics.get("edges_gathered"),
                iters as u64 * reg_nnz,
                "iters={iters}"
            );
        }
    }

    /// The report JSON carries the full schema and survives a round-trip
    /// through the validating parser.
    #[test]
    fn run_report_json_round_trips() {
        let g = mixed_graph();
        let (_, report) = small_runner()
            .run::<f32, _, _>(&g, |_| 1.0, |_, s| 0.5 * s, 7)
            .unwrap();
        let json = report.to_json();
        let parsed = Json::parse(&json.render_pretty()).unwrap();
        assert_eq!(parsed, json);
        assert_eq!(parsed.get("engine").unwrap().as_str(), Some("mixen"));
        assert_eq!(parsed.get("iterations").unwrap().as_u64(), Some(7));
        assert_eq!(parsed.get("batch_reentries").unwrap().as_u64(), Some(6));
        let phases = parsed.get("phases").unwrap();
        assert_eq!(phases.get("iterations").unwrap().as_u64(), Some(7));
        let counters = parsed.get("counters").unwrap();
        assert!(counters.get("edges_scattered").unwrap().as_u64().unwrap() > 0);
        // A fresh report's residual serializes as the string "inf".
        let fresh = RunReport::default().to_json();
        assert_eq!(fresh.get("residual").unwrap().as_f64(), Some(f64::INFINITY));
    }

    /// The pull fallback surfaces in the counter snapshot too.
    #[test]
    fn degradations_are_counted_in_metrics() {
        let g = mixed_graph();
        let (_, report) = rejected_engine_runner()
            .run::<f32, _, _>(&g, |_| 1.0, |_, s| 0.5 * s, 2)
            .unwrap();
        assert_eq!(report.metrics.get("engine_fallbacks"), 1);
        // The pull baseline has no kernel counters.
        assert_eq!(report.metrics.get("edges_scattered"), 0);
    }

    #[test]
    fn nan_poisoned_apply_is_caught_with_report() {
        let g = mixed_graph();
        let runner = small_runner();
        let failure = runner
            .run::<f32, _, _>(&g, |_| 1.0, |_, _| f32::NAN, 5)
            .unwrap_err();
        assert!(matches!(
            failure.error,
            GraphError::Numeric { iteration: 1, .. }
        ));
        assert_eq!(failure.report.iterations, 1);
        assert_eq!(failure.report.engine, EngineUsed::Mixen);
    }

    #[test]
    fn poisoned_init_is_caught_at_iteration_zero() {
        let g = mixed_graph();
        let runner = small_runner();
        let failure = runner
            .run::<f32, _, _>(
                &g,
                |v| if v == 3 { f32::INFINITY } else { 1.0 },
                |_, s| s,
                5,
            )
            .unwrap_err();
        assert!(matches!(
            failure.error,
            GraphError::Numeric { iteration: 0, .. }
        ));
        assert_eq!(failure.report.iterations, 0);
    }

    #[test]
    fn divergence_is_caught() {
        let g = mixed_graph();
        // Growing ~10x per iteration on a cyclic graph passes 1e12 well
        // before f32 overflows.
        let failure = small_runner()
            .run::<f32, _, _>(&g, |_| 100.0, |_, s| 10.0 * s + 100.0, 50)
            .unwrap_err();
        match failure.error {
            GraphError::Numeric { iteration, ref msg } => {
                assert!(iteration >= 1);
                assert!(msg.contains("magnitude"), "{msg}");
            }
            ref other => panic!("expected Numeric, got {other}"),
        }
    }

    /// A real `try_new` error (not an injected one) sends the run to the
    /// pull baseline, which agrees with the Mixen run and is recorded as
    /// exactly one fallback.
    #[test]
    fn fallback_to_pull_matches_mixen_results() {
        let g = mixed_graph();
        let apply = |v: NodeId, sum: f32| 0.5 * sum + 0.1 * (v as f32 + 1.0);
        let init = |v: NodeId| 0.1 * (v as f32 + 1.0);
        let (a, ra) = rejected_engine_runner().run(&g, init, apply, 4).unwrap();
        let (b, rb) = small_runner().run(&g, init, apply, 4).unwrap();
        assert_eq!(ra.engine, EngineUsed::PullFallback);
        assert_eq!(rb.engine, EngineUsed::Mixen);
        match ra.degradations.as_slice() {
            [DegradationEvent::EngineFallback { reason }] => {
                assert!(reason.contains("block_side"), "{reason}")
            }
            other => panic!("expected one fallback, got {other:?}"),
        }
        assert_eq!(ra.metrics.get("engine_fallbacks"), 1);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-5, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn invalid_opts_are_rejected_by_try_new() {
        let g = mixed_graph();
        let err = MixenEngine::try_new(
            &g,
            MixenOpts {
                block_side: 0,
                ..MixenOpts::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, GraphError::Invariant(_)));
        assert!(MixenEngine::try_new(&g, MixenOpts::default()).is_ok());
    }

    fn ckpt_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("mixen_runner_ckpt").join(name);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The fingerprint must react to every knob that changes numeric
    /// behavior — including the lane count, which changes the schedule.
    #[test]
    fn fingerprint_is_sensitive_to_options_and_lanes() {
        let base = small_runner().opts().clone();
        let fp = base.fingerprint(4);
        assert_ne!(fp, base.fingerprint(2), "lane count must be fingerprinted");
        let mut o = base.clone();
        o.fingerprint_extra = 0xdead_beef;
        assert_ne!(fp, o.fingerprint(4));
        // Every `MixenOpts` field shapes the partition or the numerics.
        let flips: [fn(&mut MixenOpts); 6] = [
            |m| m.block_side += 1,
            |m| m.ordering = crate::opts::RegularOrdering::Dbg,
            |m| m.cache_step = !m.cache_step,
            |m| m.load_balance = !m.load_balance,
            |m| m.min_tasks_per_thread += 1,
            |m| m.bin_encoding = crate::opts::BinEncoding::Q16,
        ];
        for (i, flip) in flips.into_iter().enumerate() {
            let mut o = base.clone();
            flip(&mut o.mixen);
            assert_ne!(fp, o.fingerprint(4), "MixenOpts field {i} not folded");
        }
        // Durability plumbing must NOT change the fingerprint: a run with
        // checkpointing on resumes one without, and vice versa.
        let mut o = base.clone();
        o.checkpoint_path = Some(PathBuf::from("/tmp/x.ckpt"));
        o.checkpoint_every = 7;
        o.deadline = Some(Duration::from_secs(1));
        assert_eq!(fp, o.fingerprint(4));
    }

    /// Checkpoint cadence: `checkpoint_every = 2` over 5 iterations writes
    /// at 2, 4, and 5 (final), and the counters record it.
    #[test]
    fn checkpoints_are_written_on_cadence() {
        let g = mixed_graph();
        let dir = ckpt_dir("cadence");
        let path = dir.join("run.ckpt");
        let mut opts = small_runner().opts().clone();
        opts.checkpoint_path = Some(path.clone());
        opts.checkpoint_every = 2;
        let runner = RobustRunner::new(opts);
        let (vals, report) = runner
            .run::<f32, _, _>(&g, |_| 1.0, |_, s| 0.5 * s + 0.1, 5)
            .unwrap();
        assert_eq!(report.metrics.get("checkpoints_written"), 3);
        assert!(report.metrics.get("checkpoint_bytes") > 0);
        assert_eq!(report.metrics.get("resumes"), 0);
        // The surviving snapshot is the final state.
        let resumed: Resumed<f32> = runner.resume_from(&g, &path).unwrap();
        assert_eq!(resumed.iteration, 5);
        assert_eq!(resumed.values, vals);
        assert_eq!(resumed.residual.to_bits(), report.residual.to_bits());
        assert!(!mixen_graph::ckpt::tmp_path(&path).exists());
        std::fs::remove_file(&path).ok();
    }

    /// The durability contract: interrupt a run at iteration 4, resume, and
    /// the final values are bit-identical to the uninterrupted run at the
    /// same lane count.
    #[test]
    fn resumed_run_is_bit_identical_to_uninterrupted() {
        let g = mixed_graph();
        let dir = ckpt_dir("resume");
        let path = dir.join("run.ckpt");
        let apply = |v: NodeId, s: f32| 0.85 * s + 0.01 * (v as f32 + 1.0);
        let init = |v: NodeId| 0.1 * (v as f32 + 1.0);
        let total = 9usize;

        let plain = small_runner();
        let (want, _) = plain.run(&g, init, apply, total).unwrap();

        // "Interrupted" run: stop after 4 iterations, leaving a snapshot.
        let mut opts = plain.opts().clone();
        opts.checkpoint_path = Some(path.clone());
        opts.checkpoint_every = 2;
        let ckpt_runner = RobustRunner::new(opts);
        let (_, report) = ckpt_runner.run(&g, init, apply, 4).unwrap();
        assert!(report.metrics.get("checkpoints_written") >= 2);

        let resumed: Resumed<f32> = ckpt_runner.resume_from(&g, &path).unwrap();
        assert_eq!(resumed.iteration, 4);
        let (got, report) = ckpt_runner.run_resumed(&g, resumed, apply, total).unwrap();
        assert_eq!(report.iterations, total);
        assert_eq!(report.metrics.get("resumes"), 1);
        for (i, (a, b)) in got.iter().zip(&want).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "node {i}: {a} vs {b}");
        }
        std::fs::remove_file(&path).ok();
    }

    /// Resuming at exactly the target iteration count is a no-op returning
    /// the snapshot values unchanged.
    #[test]
    fn resume_past_target_returns_snapshot_values() {
        let g = mixed_graph();
        let dir = ckpt_dir("noop");
        let path = dir.join("run.ckpt");
        let mut opts = small_runner().opts().clone();
        opts.checkpoint_path = Some(path.clone());
        let runner = RobustRunner::new(opts);
        let (want, _) = runner
            .run::<f32, _, _>(&g, |_| 1.0, |_, s| 0.5 * s + 0.1, 6)
            .unwrap();
        let resumed: Resumed<f32> = runner.resume_from(&g, &path).unwrap();
        let (got, report) = runner
            .run_resumed(&g, resumed, |_, s: f32| 0.5 * s + 0.1, 6)
            .unwrap();
        assert_eq!(report.iterations, 6);
        for (a, b) in got.iter().zip(&want) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        std::fs::remove_file(&path).ok();
    }

    /// Regression: a snapshot *past* the requested total used to come back
    /// as the answer, labelled with the snapshot's iteration count. It is a
    /// typed error naming both counts.
    #[test]
    fn resume_beyond_the_requested_total_is_a_format_error() {
        let g = mixed_graph();
        let dir = ckpt_dir("past");
        let path = dir.join("run.ckpt");
        let mut opts = small_runner().opts().clone();
        opts.checkpoint_path = Some(path.clone());
        let runner = RobustRunner::new(opts);
        runner
            .run::<f32, _, _>(&g, |_| 1.0, |_, s| 0.5 * s + 0.1, 10)
            .unwrap();
        let resumed: Resumed<f32> = runner.resume_from(&g, &path).unwrap();
        assert_eq!(resumed.iteration, 10);
        let failure = runner
            .run_resumed(&g, resumed, |_, s: f32| 0.5 * s + 0.1, 6)
            .unwrap_err();
        match &failure.error {
            GraphError::Format(msg) => {
                assert!(msg.contains("10") && msg.contains('6'), "{msg}");
            }
            other => panic!("expected Format, got {other}"),
        }
        assert_eq!(failure.report.iterations, 0);
        std::fs::remove_file(&path).ok();
    }

    /// Staleness rejection: a snapshot must not warm-start a different
    /// graph or a differently-configured runner.
    #[test]
    fn stale_checkpoints_are_rejected() {
        let g = mixed_graph();
        let dir = ckpt_dir("stale");
        let path = dir.join("run.ckpt");
        let mut opts = small_runner().opts().clone();
        opts.checkpoint_path = Some(path.clone());
        let runner = RobustRunner::new(opts.clone());
        runner
            .run::<f32, _, _>(&g, |_| 1.0, |_, s| 0.5 * s, 3)
            .unwrap();

        // Different graph → graph-checksum mismatch.
        let other = Graph::from_pairs(8, &[(0, 1), (1, 2), (2, 3)]);
        let err = runner.resume_from::<f32>(&other, &path).unwrap_err();
        assert!(matches!(err, GraphError::Format(_)), "{err}");
        assert!(err.to_string().contains("graph checksum"), "{err}");

        // Different options → fingerprint mismatch.
        let mut changed = opts.clone();
        changed.fingerprint_extra = 1;
        let err = RobustRunner::new(changed)
            .resume_from::<f32>(&g, &path)
            .unwrap_err();
        assert!(matches!(err, GraphError::Format(_)), "{err}");
        assert!(err.to_string().contains("fingerprint"), "{err}");

        // Different value type → width mismatch from the decoder.
        let err = runner.resume_from::<f64>(&g, &path).unwrap_err();
        assert!(matches!(err, GraphError::Format(_)), "{err}");
        std::fs::remove_file(&path).ok();
    }

    /// A zero deadline trips before the first iteration: typed error,
    /// durable final checkpoint, `deadline_exceeded` stamped.
    #[test]
    fn zero_deadline_fails_typed_and_checkpoints() {
        let g = mixed_graph();
        let dir = ckpt_dir("deadline");
        let path = dir.join("run.ckpt");
        let mut opts = small_runner().opts().clone();
        opts.deadline = Some(Duration::ZERO);
        opts.checkpoint_path = Some(path.clone());
        let runner = RobustRunner::new(opts);
        let failure = runner
            .run::<f32, _, _>(&g, |_| 1.0, |_, s| 0.5 * s, 10)
            .unwrap_err();
        assert!(
            matches!(failure.error, GraphError::Deadline { .. }),
            "{}",
            failure.error
        );
        assert_eq!(failure.report.metrics.get("deadline_exceeded"), 1);
        assert_eq!(failure.report.iterations, 0);
        // The pre-stop snapshot exists and resumes at iteration 0.
        let resumed: Resumed<f32> = runner.resume_from(&g, &path).unwrap();
        assert_eq!(resumed.iteration, 0);
        std::fs::remove_file(&path).ok();
    }

    /// Provenance stamping: threads, fingerprint, and crate version ride in
    /// the report and its JSON.
    #[test]
    fn report_carries_provenance() {
        let g = mixed_graph();
        let runner = small_runner();
        let (_, report) = runner
            .run::<f32, _, _>(&g, |_| 1.0, |_, s| 0.5 * s, 2)
            .unwrap();
        assert_eq!(report.threads, mixen_pool::current_num_threads());
        assert_eq!(
            report.opts_fingerprint,
            runner.opts().fingerprint(report.threads)
        );
        let json = report.to_json();
        let prov = json.get("provenance").expect("provenance object");
        assert_eq!(
            prov.get("crate_version").unwrap().as_str(),
            Some(env!("CARGO_PKG_VERSION"))
        );
        assert_eq!(
            prov.get("threads").unwrap().as_u64(),
            Some(report.threads as u64)
        );
        assert_eq!(
            prov.get("opts_fingerprint").unwrap().as_str(),
            Some(format!("{:#018x}", report.opts_fingerprint).as_str())
        );
    }
}
