//! Supervised execution: retries, numeric health checks, and graceful
//! degradation around the Mixen engine.
//!
//! [`RobustRunner`] wraps the whole lifecycle of a link-analysis run:
//!
//! 1. **Load** — [`RobustRunner::load_graph`] retries transient I/O errors
//!    with exponential backoff before giving up.
//! 2. **Preprocess** — the engine is built through
//!    [`MixenEngine::try_new`]; if a preprocessing invariant fails, the
//!    runner degrades to a dense pull baseline (same synchronous semantics,
//!    none of the Mixen machinery) instead of aborting.
//! 3. **Iterate** — values are re-checked every [`RunnerOpts::check_every`]
//!    iterations through the [`ValueCheck`] trait; NaN, Inf, or magnitudes
//!    beyond [`RunnerOpts::divergence_limit`] stop the run with
//!    [`GraphError::Numeric`].
//! 4. **Checkpoint** — with [`RunnerOpts::checkpoint_path`] set, the value
//!    vector is snapshotted atomically (`CKPT1`, see [`mixen_graph::ckpt`])
//!    every [`RunnerOpts::checkpoint_every`] iterations, and
//!    [`RobustRunner::resume_from`] warm-starts an interrupted run; at a
//!    fixed lane count the resumed run converges to bit-identical output.
//! 5. **Supervise** — a watchdog thread enforces the wall-clock
//!    [`RunnerOpts::deadline`] and flags batches that exceed the
//!    [`RunnerOpts::stall_budget`]. On a stall or a caught pool-worker
//!    panic the runner walks a degradation ladder — full lanes → halved
//!    lanes → single-lane inline → pull baseline — re-running the batch at
//!    each step (batches are pure functions of the previous vector, so the
//!    retry is safe). A deadline overrun stops the run at the next batch
//!    boundary with [`GraphError::Deadline`], after writing a final
//!    checkpoint when checkpointing is on.
//!
//! Every outcome — success or failure — carries a [`RunReport`] recording
//! iterations, the last residual, phase timings, and each degradation event,
//! so operators can see *how* a run succeeded, not just that it did.

// `RunFailure` is deliberately larger than a bare error: it carries the
// report accumulated up to the failure point.
#![allow(clippy::result_large_err)]

use mixen_graph::nid;
use std::fmt;
use std::io::Read;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
// The watchdog handshake atomics route through the crate's model-check
// facade: plain std re-exports in normal builds, instrumented under the
// `model-check` feature so `mixen-check` can explore the protocol.
use crate::msync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mixen_graph::ckpt::{Checkpoint, CkptValue};
use mixen_graph::io::graph_checksum;
use mixen_graph::{max_diff, Graph, GraphError, NodeId, PropValue};

use crate::engine::{MixenEngine, PhaseStats};
use crate::obs::{Json, MetricsSnapshot};
use crate::opts::MixenOpts;

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
    /// A transient load error was retried.
    LoadRetry { attempt: u32, error: String },
    /// Mixen preprocessing failed validation; the run continued on the pull
    /// baseline.
    EngineFallback { reason: String },
    /// A panic escaped a batch (typically a crashed pool worker); the batch
    /// was retried one ladder stage down.
    WorkerPanic { stage: String, message: String },
    /// The watchdog flagged a batch that exceeded the stall budget.
    Stall { elapsed_ms: u64, budget_ms: u64 },
    /// The runner stepped down the lane ladder (halve → single-lane inline
    /// → pull baseline).
    LaneDegraded {
        from_lanes: usize,
        to_lanes: usize,
        reason: String,
    },
}

impl DegradationEvent {
    /// JSON object for the report's `degradations` array.
    pub fn to_json(&self) -> Json {
        match self {
            DegradationEvent::LoadRetry { attempt, error } => Json::Obj(vec![
                ("kind".into(), Json::Str("load_retry".into())),
                ("attempt".into(), Json::from_u64(u64::from(*attempt))),
                ("error".into(), Json::Str(error.clone())),
            ]),
            DegradationEvent::EngineFallback { reason } => Json::Obj(vec![
                ("kind".into(), Json::Str("engine_fallback".into())),
                ("reason".into(), Json::Str(reason.clone())),
            ]),
            DegradationEvent::WorkerPanic { stage, message } => Json::Obj(vec![
                ("kind".into(), Json::Str("worker_panic".into())),
                ("stage".into(), Json::Str(stage.clone())),
                ("message".into(), Json::Str(message.clone())),
            ]),
            DegradationEvent::Stall {
                elapsed_ms,
                budget_ms,
            } => Json::Obj(vec![
                ("kind".into(), Json::Str("stall".into())),
                ("elapsed_ms".into(), Json::from_u64(*elapsed_ms)),
                ("budget_ms".into(), Json::from_u64(*budget_ms)),
            ]),
            DegradationEvent::LaneDegraded {
                from_lanes,
                to_lanes,
                reason,
            } => Json::Obj(vec![
                ("kind".into(), Json::Str("lane_degraded".into())),
                ("from_lanes".into(), Json::from_u64(*from_lanes as u64)),
                ("to_lanes".into(), Json::from_u64(*to_lanes as u64)),
                ("reason".into(), Json::Str(reason.clone())),
            ]),
        }
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
    /// Max-norm change across the last health-check boundary (`∞` until two
    /// checkpoints exist).
    pub residual: f64,
    /// Per-phase wall clock (Mixen path only), normalized across batch
    /// re-entries: one Pre-Phase (the first entry's), Scatter/Gather summed
    /// over every iteration, and one Post-Phase (the last entry's). The
    /// redundant re-entry work lives in
    /// [`RunReport::reentry_pre_seconds`]/[`RunReport::reentry_post_seconds`]
    /// so `out_of_main_fraction` stays an honest Fig. 4-style number.
    pub phase_stats: PhaseStats,
    /// Every degradation, in order.
    pub degradations: Vec<DegradationEvent>,
    /// Transient load errors that were retried.
    pub load_retries: u32,
    /// Supervised batches beyond the first that re-entered the engine
    /// (`ceil(iters / check_every) - 1` on an engine run without faults).
    pub batch_reentries: usize,
    /// Pre-Phase seconds burned by batch re-entries — supervision overhead,
    /// not part of the algorithm's phase breakdown.
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
            // No residual can exist until two checkpoints have been seen.
            residual: f64::INFINITY,
            phase_stats: PhaseStats::default(),
            degradations: Vec::new(),
            load_retries: 0,
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
    /// contributes all four phases; later (re-entry) batches contribute only
    /// their Main-Phase and their entry cost (`init_seconds`, which every
    /// entry pays) — their Pre-Phase (a lookup of the bin the engine kept,
    /// unless the seed values moved) is booked under `reentry_pre_seconds`,
    /// and the previous entry's Post-Phase (now superseded by this entry's
    /// final assembly) moves to `reentry_post_seconds`.
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
                "load_retries".into(),
                Json::from_u64(u64::from(self.load_retries)),
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
#[derive(Clone, Debug)]
pub struct RunnerOpts {
    /// Options for the underlying Mixen engine.
    pub mixen: MixenOpts,
    /// Health-check cadence in iterations (1 = every iteration).
    pub check_every: usize,
    /// Values with magnitude above this are treated as divergence.
    pub divergence_limit: f64,
    /// Transient load errors retried before giving up.
    pub max_load_retries: u32,
    /// Initial backoff between load retries (doubles each attempt).
    pub retry_backoff: Duration,
    /// Degrade to the pull baseline when Mixen preprocessing fails; with
    /// `false` the preprocessing error is returned instead.
    pub allow_fallback: bool,
    /// Fault-injection hook: pretend preprocessing failed with this message.
    /// Used by the robustness test suite to exercise the fallback path on
    /// graphs that preprocess fine.
    pub inject_preprocess_fault: Option<String>,
    /// Write `CKPT1` snapshots to this path (atomically, temp + rename)
    /// during supervised runs; `None` disables checkpointing.
    pub checkpoint_path: Option<PathBuf>,
    /// Iterations between snapshots (effective minimum 1). Only consulted
    /// when [`RunnerOpts::checkpoint_path`] is set.
    pub checkpoint_every: usize,
    /// Wall-clock budget for the whole run. Enforced by the watchdog thread
    /// and checked at batch boundaries (a running batch is never
    /// interrupted); overruns surface as [`GraphError::Deadline`].
    pub deadline: Option<Duration>,
    /// Budget for a single supervised batch. A batch that takes longer is a
    /// *stall*: the run continues, one degradation-ladder stage down.
    pub stall_budget: Option<Duration>,
    /// Extra value folded into [`RunnerOpts::fingerprint`], for algorithm
    /// parameters the runner cannot see (e.g. the PageRank damping factor).
    pub fingerprint_extra: u64,
    /// Fault-injection hook: sleep this long in every `apply` call, making
    /// each batch overrun a small [`RunnerOpts::stall_budget`]
    /// deterministically.
    pub inject_stall: Option<Duration>,
    /// Fault-injection hook: terminate the process (exit code 86) right
    /// after the Nth checkpoint write, simulating a crash for the
    /// kill/resume recovery tests.
    pub inject_exit_after_checkpoints: Option<u32>,
}

impl Default for RunnerOpts {
    fn default() -> Self {
        Self {
            mixen: MixenOpts::default(),
            check_every: 1,
            divergence_limit: 1e12,
            max_load_retries: 3,
            retry_backoff: Duration::from_millis(5),
            allow_fallback: true,
            inject_preprocess_fault: None,
            checkpoint_path: None,
            checkpoint_every: 1,
            deadline: None,
            stall_budget: None,
            fingerprint_extra: 0,
            inject_stall: None,
            inject_exit_after_checkpoints: None,
        }
    }
}

impl RunnerOpts {
    /// Deterministic FNV-1a fold of every knob that affects the produced
    /// values — the Mixen engine shape, the supervision batch size, the
    /// divergence limit, [`RunnerOpts::fingerprint_extra`], and the lane
    /// count. Checkpoints carry this value so [`RobustRunner::resume_from`]
    /// rejects resumes under a configuration that would break the
    /// bit-identical-output contract.
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
        fold(self.check_every as u64);
        fold(self.divergence_limit.to_bits());
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

    /// Loads a binary graph, retrying transient I/O failures with
    /// exponential backoff. The report carries the retry trail.
    pub fn load_graph(&self, path: impl AsRef<Path>) -> Result<(Graph, RunReport), RunFailure> {
        let path = path.as_ref();
        self.load_graph_with(|| std::fs::File::open(path).map(std::io::BufReader::new))
    }

    /// [`RobustRunner::load_graph`] over an arbitrary reusable byte source:
    /// `open` is called once per attempt (so a fresh stream each retry).
    pub fn load_graph_with<R, F>(&self, mut open: F) -> Result<(Graph, RunReport), RunFailure>
    where
        R: Read,
        F: FnMut() -> std::io::Result<R>,
    {
        let mut report = RunReport::default();
        let mut delay = self.opts.retry_backoff;
        let mut attempt = 0u32;
        loop {
            let result = match open() {
                Ok(mut r) => mixen_graph::io::read_csr(&mut r),
                Err(e) => Err(GraphError::Io(e)),
            };
            match result {
                Ok(g) => return Ok((g, report)),
                Err(e) if e.is_transient() && attempt < self.opts.max_load_retries => {
                    attempt += 1;
                    report.load_retries = attempt;
                    report.metrics.add("load_retries", 1);
                    report.degradations.push(DegradationEvent::LoadRetry {
                        attempt,
                        error: e.to_string(),
                    });
                    std::thread::sleep(delay);
                    delay = delay.saturating_mul(2);
                }
                Err(e) => return Err(RunFailure { error: e, report }),
            }
        }
    }

    /// Runs `iters` supervised synchronous iterations of
    /// `x'[v] = apply(v, Σ_{u→v} x[u])`; see [`MixenEngine::iterate`] for
    /// the closure contract. Values are health-checked every
    /// [`RunnerOpts::check_every`] iterations.
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
        self.run_with_report(g, RunReport::default(), init, apply, iters)
    }

    /// [`RobustRunner::run`] continuing a report (e.g. one produced by
    /// [`RobustRunner::load_graph`]), so retry events and iteration stats
    /// end up in a single trail.
    pub fn run_with_report<V, FI, FA>(
        &self,
        g: &Graph,
        report: RunReport,
        init: FI,
        apply: FA,
        iters: usize,
    ) -> Result<(Vec<V>, RunReport), RunFailure>
    where
        V: PropValue + ValueCheck + CkptValue,
        FI: Fn(NodeId) -> V + Sync,
        FA: Fn(NodeId, V) -> V + Sync,
    {
        // The initial vector is materialized sequentially: it is O(n) scalar
        // work, and keeping it off the pool makes iteration 0 immune to
        // worker faults (it is state, not parallel computation). The engine
        // then re-reads these exact values through the prev closure, so the
        // result is bitwise identical to seeding the engine with `init`.
        let cur0: Vec<V> = (0..nid(g.n())).map(&init).collect();
        self.run_inner(g, report, cur0, 0, f64::INFINITY, apply, iters)
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
    /// included). At a fixed lane count the final values are bit-identical
    /// to an uninterrupted `total_iters`-iteration run whenever the batch
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
        let mut report = RunReport::default();
        report.metrics.add("resumes", 1);
        self.run_inner(
            g,
            report,
            resumed.values,
            resumed.iteration,
            resumed.residual,
            apply,
            total_iters,
        )
    }

    /// The shared supervised loop behind [`RobustRunner::run_with_report`]
    /// and [`RobustRunner::run_resumed`]: `cur0` already holds the values
    /// as of iteration `start_iter`.
    #[allow(clippy::too_many_arguments)]
    fn run_inner<V, FA>(
        &self,
        g: &Graph,
        mut report: RunReport,
        cur0: Vec<V>,
        start_iter: usize,
        start_residual: f64,
        apply: FA,
        iters: usize,
    ) -> Result<(Vec<V>, RunReport), RunFailure>
    where
        V: PropValue + ValueCheck + CkptValue,
        FA: Fn(NodeId, V) -> V + Sync,
    {
        let base_lanes = mixen_pool::current_num_threads();
        report.threads = base_lanes;
        report.opts_fingerprint = self.opts.fingerprint(base_lanes);

        let inject_stall = self.opts.inject_stall;
        let apply = move |v: NodeId, s: V| {
            if let Some(d) = inject_stall {
                std::thread::sleep(d);
            }
            apply(v, s)
        };

        // Engine preprocessing runs parallel passes of its own, so a worker
        // panic here is caught like a batch panic: with fallback enabled it
        // degrades to the pull baseline instead of unwinding the caller.
        let built = match catch_unwind(AssertUnwindSafe(|| self.build_engine(g))) {
            Ok(result) => result,
            Err(payload) => {
                let message = panic_message(payload.as_ref());
                if !self.opts.allow_fallback {
                    resume_unwind(payload);
                }
                report.degradations.push(DegradationEvent::WorkerPanic {
                    stage: "preprocess".into(),
                    message: message.clone(),
                });
                Err(GraphError::Invariant(format!(
                    "worker panic during preprocessing: {message}"
                )))
            }
        };
        let engine = match built {
            Ok(e) => Some(e),
            Err(err) if self.opts.allow_fallback => {
                report.degradations.push(DegradationEvent::EngineFallback {
                    reason: err.to_string(),
                });
                report.engine = EngineUsed::PullFallback;
                report.metrics.add("engine_fallbacks", 1);
                None
            }
            Err(error) => return Err(RunFailure { error, report }),
        };
        // Pool counters are process-global; remember the entry level so the
        // report carries only this run's task delta.
        let pool_tasks_at_entry = mixen_pool::stats().tasks_executed;
        let started = Instant::now();
        let watchdog = Watchdog::spawn(started, self.opts.deadline, self.opts.stall_budget);
        // Merge the engine's kernel counters into the report on every exit,
        // and stamp the executor's shape and work for this run.
        let finish = |report: &mut RunReport| {
            if let Some(e) = &engine {
                report.metrics.merge(&e.metrics().snapshot());
            }
            let pool = mixen_pool::stats();
            report.metrics.set("pool_workers", pool.threads as u64);
            report.metrics.set(
                "pool_tasks_executed",
                pool.tasks_executed.saturating_sub(pool_tasks_at_entry),
            );
            if let Some(w) = &watchdog {
                report.metrics.set("watchdog_wakeups", w.wakeups());
            }
        };

        let limit = self.opts.divergence_limit;
        let batch = self.opts.check_every.max(1);
        let ckpt_cfg = self
            .opts
            .checkpoint_path
            .as_deref()
            .map(|p| (p, graph_checksum(g)));
        let ckpt_every = self.opts.checkpoint_every.max(1);
        let mut ckpts_written = 0u32;
        let mut last_ckpt = start_iter;

        let mut cur = cur0;
        report.iterations = start_iter;
        report.residual = start_residual;
        if let Some(fault) = scan(&cur, limit) {
            finish(&mut report);
            return Err(RunFailure {
                error: numeric_error(start_iter, fault),
                report,
            });
        }

        let mut stage = Stage::Full;
        let mut stage_pool: Option<mixen_pool::ThreadPool> = None;
        let mut done = start_iter;
        while done < iters {
            // Deadline enforcement happens at batch boundaries: a durable,
            // clean stop beats tearing down a half-computed batch.
            if let Some(deadline) = self.opts.deadline {
                let elapsed = started.elapsed();
                if elapsed >= deadline || watchdog.as_ref().is_some_and(|w| w.deadline_hit()) {
                    report.metrics.set("deadline_exceeded", 1);
                    if let Some((path, crc)) = ckpt_cfg {
                        // Make the progress so far durable before stopping.
                        if let Err(error) = self.write_checkpoint(
                            path,
                            crc,
                            report.opts_fingerprint,
                            done,
                            report.residual,
                            &cur,
                            &mut report,
                            &mut ckpts_written,
                        ) {
                            finish(&mut report);
                            return Err(RunFailure { error, report });
                        }
                    }
                    finish(&mut report);
                    return Err(RunFailure {
                        error: GraphError::Deadline {
                            elapsed_ms: dur_ms(started.elapsed()),
                            budget_ms: dur_ms(deadline),
                        },
                        report,
                    });
                }
            }

            let step = batch.min(iters - done);
            if let Some(w) = &watchdog {
                w.beat();
            }
            let batch_start = Instant::now();
            // Ladder retry loop: a batch is a pure function of `cur`, so a
            // panicked attempt can be re-run at the next stage down without
            // corrupting state. The ladder is finite; when it is exhausted
            // the panic resumes unwinding (a closure that panics inline has
            // a genuine bug the supervisor must not swallow).
            let next: Vec<V> = loop {
                let eng = match (&engine, stage) {
                    (Some(e), s) if s != Stage::Pull => Some(e),
                    _ => None,
                };
                let outcome = match eng {
                    Some(e) => {
                        let prev = &cur;
                        run_caught(stage_pool.as_ref(), || {
                            let (vals, stats) =
                                e.iterate_with_stats(|v| prev[v as usize], &apply, step);
                            (vals, Some(stats))
                        })
                    }
                    None => run_caught(stage_pool.as_ref(), || {
                        (pull_iterate(g, &cur, &apply, step), None)
                    }),
                };
                match outcome {
                    Ok((vals, stats)) => {
                        if let Some(s) = stats {
                            report.absorb(s);
                        }
                        break vals;
                    }
                    Err(payload) => {
                        let message = panic_message(payload.as_ref());
                        report.degradations.push(DegradationEvent::WorkerPanic {
                            stage: stage.name().into(),
                            message: message.clone(),
                        });
                        if !self.degrade(
                            &mut stage,
                            &mut stage_pool,
                            base_lanes,
                            format!("worker panic: {message}"),
                            &mut report,
                        ) {
                            resume_unwind(payload);
                        }
                    }
                }
            };
            let batch_elapsed = batch_start.elapsed();
            if let Some(w) = &watchdog {
                w.beat();
            }
            // A stall degrades but never aborts: the batch did finish, so
            // the values are good — the run just is not keeping pace.
            let watchdog_stall = watchdog.as_ref().is_some_and(|w| w.take_stall());
            if let Some(budget) = self.opts.stall_budget {
                if watchdog_stall || batch_elapsed > budget {
                    report.degradations.push(DegradationEvent::Stall {
                        elapsed_ms: dur_ms(batch_elapsed),
                        budget_ms: dur_ms(budget),
                    });
                    self.degrade(
                        &mut stage,
                        &mut stage_pool,
                        base_lanes,
                        format!(
                            "batch of {step} iterations took {} ms against a stall budget \
                             of {} ms",
                            dur_ms(batch_elapsed),
                            dur_ms(budget)
                        ),
                        &mut report,
                    );
                }
            }

            if let Some(fault) = scan(&next, limit) {
                // The fault surfaced somewhere inside this batch; replay it
                // one iteration at a time from the pre-batch checkpoint so
                // the error names the first bad iteration, exactly as a
                // `check_every = 1` run would. The replay runs at the
                // current ladder stage so it reproduces the batch exactly.
                let eng = match (&engine, stage) {
                    (Some(e), s) if s != Stage::Pull => Some(e),
                    _ => None,
                };
                let (bad_iter, fault) = on_pool(stage_pool.as_ref(), || {
                    self.locate_fault(eng, g, &cur, &apply, step, done, fault, &mut report)
                });
                report.iterations = bad_iter;
                finish(&mut report);
                return Err(RunFailure {
                    error: numeric_error(bad_iter, fault),
                    report,
                });
            }
            done += step;
            report.iterations = done;
            report.residual = max_diff(&next, &cur);
            cur = next;

            if let Some((path, crc)) = ckpt_cfg {
                if done - last_ckpt >= ckpt_every || done == iters {
                    if let Err(error) = self.write_checkpoint(
                        path,
                        crc,
                        report.opts_fingerprint,
                        done,
                        report.residual,
                        &cur,
                        &mut report,
                        &mut ckpts_written,
                    ) {
                        finish(&mut report);
                        return Err(RunFailure { error, report });
                    }
                    last_ckpt = done;
                }
            }
        }
        finish(&mut report);
        Ok((cur, report))
    }

    /// Writes one atomic `CKPT1` snapshot and updates the durability
    /// counters; honors the crash-simulation hook.
    #[allow(clippy::too_many_arguments)]
    fn write_checkpoint<V: PropValue + CkptValue>(
        &self,
        path: &Path,
        graph_crc: u32,
        fingerprint: u64,
        done: usize,
        residual: f64,
        values: &[V],
        report: &mut RunReport,
        written: &mut u32,
    ) -> Result<(), GraphError> {
        let ck = Checkpoint::from_values(done as u64, residual, fingerprint, graph_crc, values);
        let bytes = ck.save_atomic(path)?;
        report.metrics.add("checkpoints_written", 1);
        report.metrics.add("checkpoint_bytes", bytes);
        *written += 1;
        if let Some(n) = self.opts.inject_exit_after_checkpoints {
            if *written >= n {
                // Crash simulation for the kill/resume recovery tests: die
                // as abruptly as a SIGKILL would, leaving only the durable
                // state behind.
                std::process::exit(86);
            }
        }
        Ok(())
    }

    /// Steps the degradation ladder down one stage, recording the event and
    /// installing the reduced-lane pool. Returns `false` when the ladder is
    /// already exhausted.
    fn degrade(
        &self,
        stage: &mut Stage,
        stage_pool: &mut Option<mixen_pool::ThreadPool>,
        base_lanes: usize,
        reason: String,
        report: &mut RunReport,
    ) -> bool {
        let Some(next) = stage.next() else {
            return false;
        };
        report.metrics.add("lane_degradations", 1);
        report.degradations.push(DegradationEvent::LaneDegraded {
            from_lanes: stage.lanes(base_lanes),
            to_lanes: next.lanes(base_lanes),
            reason,
        });
        if next == Stage::Pull {
            report.engine = EngineUsed::PullFallback;
            report.metrics.add("engine_fallbacks", 1);
        }
        *stage = next;
        *stage_pool = match next {
            Stage::Full => None,
            s => Some(mixen_pool::ThreadPool::new(s.lanes(base_lanes))),
        };
        true
    }

    /// Replays a faulty batch from its healthy checkpoint, one iteration at
    /// a time, to find the first iteration whose values fail the health
    /// check. The replay's phase stats are *not* absorbed (they are
    /// diagnostic re-execution, not algorithm progress); each single-step
    /// replay is counted under `fault_bisect_steps`. Both engines are
    /// deterministic, so the fault reproduces; if it somehow does not, the
    /// end-of-batch attribution is kept.
    #[allow(clippy::too_many_arguments)]
    fn locate_fault<V, FA>(
        &self,
        engine: Option<&MixenEngine>,
        g: &Graph,
        checkpoint: &[V],
        apply: &FA,
        step: usize,
        done: usize,
        batch_fault: (usize, NumericIssue),
        report: &mut RunReport,
    ) -> (usize, (usize, NumericIssue))
    where
        V: PropValue + ValueCheck,
        FA: Fn(NodeId, V) -> V + Sync,
    {
        if step <= 1 {
            return (done + step, batch_fault);
        }
        let limit = self.opts.divergence_limit;
        let mut probe = checkpoint.to_vec();
        for k in 1..=step {
            let next = match engine {
                Some(e) => {
                    let p = &probe;
                    e.iterate::<V, _, _>(|v| p[v as usize], apply, 1)
                }
                None => pull_iterate(g, &probe, apply, 1),
            };
            report.metrics.add("fault_bisect_steps", 1);
            if let Some(fault) = scan(&next, limit) {
                return (done + k, fault);
            }
            probe = next;
        }
        (done + step, batch_fault)
    }

    fn build_engine(&self, g: &Graph) -> Result<MixenEngine, GraphError> {
        if let Some(reason) = &self.opts.inject_preprocess_fault {
            return Err(GraphError::Invariant(reason.clone()));
        }
        MixenEngine::try_new(g, self.opts.mixen)
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

/// The degradation ladder. Each stage is strictly cheaper and more isolated
/// than the one above it; `Pull` is the terminal stage (single-lane pull
/// baseline — no engine machinery left to shed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stage {
    /// All ambient lanes through the Mixen engine.
    Full,
    /// Half the lanes through the Mixen engine.
    Halved,
    /// One lane (inline execution — no pool workers) through the engine.
    Single,
    /// One lane through the pull baseline.
    Pull,
}

impl Stage {
    fn next(self) -> Option<Stage> {
        match self {
            Stage::Full => Some(Stage::Halved),
            Stage::Halved => Some(Stage::Single),
            Stage::Single => Some(Stage::Pull),
            Stage::Pull => None,
        }
    }

    fn lanes(self, base: usize) -> usize {
        match self {
            Stage::Full => base,
            Stage::Halved => (base / 2).max(1),
            Stage::Single | Stage::Pull => 1,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Stage::Full => "full_lanes",
            Stage::Halved => "halved_lanes",
            Stage::Single => "single_lane",
            Stage::Pull => "pull_baseline",
        }
    }
}

/// Shared state between the runner thread and its watchdog thread.
struct WatchdogShared {
    started: Instant,
    /// Runner progress beacon: elapsed ms at the last batch boundary.
    heartbeat_ms: AtomicU64,
    wakeups: AtomicU64,
    stalled: AtomicBool,
    deadline_hit: AtomicBool,
    done: AtomicBool,
}

impl WatchdogShared {
    /// One watchdog observation at wall-clock `now_ms`: compares elapsed
    /// time against the deadline and the heartbeat against the stall budget,
    /// raising the sticky flags the runner polls at batch boundaries.
    /// Factored out of the sampling thread so `model-check` tests can drive
    /// the handshake with synthetic timestamps (see [`mc::WatchdogProbe`]).
    fn observe(&self, now_ms: u64, deadline_ms: Option<u64>, stall_ms: Option<u64>) {
        // ordering: diagnostic tick counter, read only for reporting.
        self.wakeups.fetch_add(1, Ordering::Relaxed);
        if let Some(d) = deadline_ms {
            if now_ms >= d {
                self.deadline_hit.store(true, Ordering::Release);
            }
        }
        if let Some(b) = stall_ms {
            let beat = self.heartbeat_ms.load(Ordering::Acquire);
            // Budgets below watchdog resolution round up to 1 ms.
            if now_ms.saturating_sub(beat) > b.max(1) {
                self.stalled.store(true, Ordering::Release);
            }
        }
    }

    /// Records runner progress as of `now_ms`; pairs with the Acquire
    /// heartbeat load in [`WatchdogShared::observe`].
    fn beat_at(&self, now_ms: u64) {
        self.heartbeat_ms.store(now_ms, Ordering::Release);
    }

    /// Consumes the sticky stall flag, so one stall degrades one stage.
    fn take_stall(&self) -> bool {
        self.stalled.swap(false, Ordering::AcqRel)
    }

    fn deadline_hit(&self) -> bool {
        self.deadline_hit.load(Ordering::Acquire)
    }
}

/// A sampling watchdog: a detached thread that wakes on a short tick,
/// compares wall-clock progress against the deadline and the heartbeat
/// against the stall budget, and raises sticky flags. The runner reads the
/// flags at batch boundaries — the watchdog never interrupts computation,
/// it only observes, so supervision granularity is one batch
/// (`check_every` iterations).
struct Watchdog {
    shared: Arc<WatchdogShared>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    /// Starts the watchdog when any budget is configured. Returns `None`
    /// when there is nothing to watch, or when the thread cannot be spawned
    /// (the runner's direct elapsed-time checks still enforce both budgets;
    /// only the asynchronous sampling is lost).
    fn spawn(
        started: Instant,
        deadline: Option<Duration>,
        stall: Option<Duration>,
    ) -> Option<Self> {
        if deadline.is_none() && stall.is_none() {
            return None;
        }
        // Tick at 1/8 of the tightest budget so a breach is observed well
        // within one budget period, clamped to [1, 25] ms to bound both
        // sampling error and idle wakeup load.
        let tightest = match (deadline, stall) {
            (Some(d), Some(s)) => d.min(s),
            (Some(d), None) => d,
            (None, Some(s)) => s,
            (None, None) => unreachable!("guarded above"),
        };
        let tick = (tightest / 8).clamp(Duration::from_millis(1), Duration::from_millis(25));
        let shared = Arc::new(WatchdogShared {
            started,
            heartbeat_ms: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
            stalled: AtomicBool::new(false),
            deadline_hit: AtomicBool::new(false),
            done: AtomicBool::new(false),
        });
        let s = Arc::clone(&shared);
        let deadline_ms = deadline.map(dur_ms);
        let stall_ms = stall.map(dur_ms);
        let handle = std::thread::Builder::new()
            .name("mixen-watchdog".into())
            .spawn(move || {
                while !s.done.load(Ordering::Acquire) {
                    std::thread::sleep(tick);
                    s.observe(dur_ms(s.started.elapsed()), deadline_ms, stall_ms);
                }
            })
            .ok()?;
        Some(Watchdog {
            shared,
            handle: Some(handle),
        })
    }

    /// Records runner progress; called at batch boundaries.
    fn beat(&self) {
        self.shared.beat_at(dur_ms(self.shared.started.elapsed()));
    }

    fn wakeups(&self) -> u64 {
        // ordering: reporting-only snapshot of the tick counter.
        self.shared.wakeups.load(Ordering::Relaxed)
    }

    /// Consumes the sticky stall flag, so one stall degrades one stage.
    fn take_stall(&self) -> bool {
        self.shared.take_stall()
    }

    fn deadline_hit(&self) -> bool {
        self.shared.deadline_hit()
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.shared.done.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Model probes for the watchdog handshake, compiled only under
/// `model-check`.
#[cfg(feature = "model-check")]
pub mod mc {
    use super::WatchdogShared;
    use crate::msync::atomic::{AtomicBool, AtomicU64};
    use std::sync::Arc;
    use std::time::Instant;

    /// The watchdog's shared state with the clock abstracted away:
    /// `mixen-check` model tests drive [`WatchdogProbe::beat_at`] and
    /// [`WatchdogProbe::observe`] with synthetic timestamps from concurrent
    /// model threads (no sampling thread, no real clock) and assert when
    /// the sticky stall/deadline flags may and may not rise.
    #[derive(Clone)]
    pub struct WatchdogProbe {
        shared: Arc<WatchdogShared>,
    }

    impl WatchdogProbe {
        /// Fresh shared state: no heartbeat yet, no flags raised.
        pub fn new() -> Self {
            WatchdogProbe {
                shared: Arc::new(WatchdogShared {
                    // Never read by the probe paths; observations carry
                    // their own timestamps.
                    started: Instant::now(),
                    heartbeat_ms: AtomicU64::new(0),
                    wakeups: AtomicU64::new(0),
                    stalled: AtomicBool::new(false),
                    deadline_hit: AtomicBool::new(false),
                    done: AtomicBool::new(false),
                }),
            }
        }

        /// The runner side of the handshake: a progress beat at `now_ms`.
        pub fn beat_at(&self, now_ms: u64) {
            self.shared.beat_at(now_ms);
        }

        /// The watchdog side: one observation at `now_ms` against the given
        /// budgets (both in ms).
        pub fn observe(&self, now_ms: u64, deadline_ms: Option<u64>, stall_ms: Option<u64>) {
            self.shared.observe(now_ms, deadline_ms, stall_ms);
        }

        /// Consumes the sticky stall flag, as the runner does at batch
        /// boundaries.
        pub fn take_stall(&self) -> bool {
            self.shared.take_stall()
        }

        /// Reads the sticky deadline flag.
        pub fn deadline_hit(&self) -> bool {
            self.shared.deadline_hit()
        }
    }

    impl Default for WatchdogProbe {
        fn default() -> Self {
            Self::new()
        }
    }
}

fn dur_ms(d: Duration) -> u64 {
    u64::try_from(d.as_millis()).unwrap_or(u64::MAX)
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f` under the stage's lane override, or on the ambient pool when the
/// stage is `Full`.
fn on_pool<R>(pool: Option<&mixen_pool::ThreadPool>, f: impl FnOnce() -> R) -> R {
    match pool {
        Some(p) => p.install(f),
        None => f(),
    }
}

/// [`on_pool`] with a panic boundary, so a worker panic surfaces as an
/// `Err` the degradation ladder can act on instead of unwinding the runner.
fn run_caught<R>(
    pool: Option<&mixen_pool::ThreadPool>,
    f: impl FnOnce() -> R,
) -> std::thread::Result<R> {
    catch_unwind(AssertUnwindSafe(|| on_pool(pool, f)))
}

/// `step` synchronous pull iterations over the in-CSC — the degradation
/// target: same semantics as the Mixen engine, none of its machinery.
fn pull_iterate<V, FA>(g: &Graph, x0: &[V], apply: &FA, step: usize) -> Vec<V>
where
    V: PropValue,
    FA: Fn(NodeId, V) -> V + Sync,
{
    let mut x = x0.to_vec();
    for _ in 0..step {
        x = mixen_pool::par_parts(g.n(), |part| {
            part.map(|v| {
                let v = nid(v);
                let mut sum = V::identity();
                for &u in g.in_csc().neighbors(v) {
                    sum.combine(x[u as usize]);
                }
                apply(v, sum)
            })
            .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
    }
    x
}

fn scan<V: ValueCheck>(vals: &[V], limit: f64) -> Option<(usize, NumericIssue)> {
    vals.iter()
        .enumerate()
        .find_map(|(i, v)| v.issue(limit).map(|iss| (i, iss)))
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

    #[test]
    fn batched_checks_do_not_change_results() {
        let g = mixed_graph();
        let apply = |_: NodeId, sum: f32| 0.5 * sum + 0.3;
        let init = |_: NodeId| 0.3f32;
        let every_iter = small_runner();
        let mut batched_opts = every_iter.opts().clone();
        batched_opts.check_every = 3;
        let batched = RobustRunner::new(batched_opts);
        let (a, _) = every_iter.run(&g, init, apply, 7).unwrap();
        let (b, _) = batched.run(&g, init, apply, 7).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    fn runner_with_check_every(check_every: usize) -> RobustRunner {
        let mut opts = small_runner().opts().clone();
        opts.check_every = check_every;
        RobustRunner::new(opts)
    }

    /// Regression (residual init): the doc promises `∞` until two
    /// checkpoints exist, so a 0-iteration run must not report 0.0.
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

    /// Satellite 4: identical values, re-entry accounting, and phase-stat
    /// consistency across `check_every ∈ {1, 3, 7}`.
    #[test]
    fn check_every_variants_agree_and_account_reentries() {
        let g = mixed_graph();
        let apply = |v: NodeId, sum: f32| 0.5 * sum + 0.1 * (v as f32 + 1.0);
        let init = |v: NodeId| 0.1 * (v as f32 + 1.0);
        let iters = 7usize;
        let mut baseline: Option<Vec<f32>> = None;
        for ce in [1usize, 3, 7] {
            let runner = runner_with_check_every(ce);
            let (vals, report) = runner.run(&g, init, apply, iters).unwrap();
            if let Some(base) = &baseline {
                for (a, b) in vals.iter().zip(base) {
                    assert!((a - b).abs() < 1e-5, "check_every={ce}");
                }
            } else {
                baseline = Some(vals);
            }
            let batches = iters.div_ceil(ce);
            assert_eq!(report.batch_reentries, batches - 1, "check_every={ce}");
            assert_eq!(
                report.metrics.get("batch_reentries"),
                (batches - 1) as u64,
                "check_every={ce}"
            );
            // Re-entries start from the seed values the first entry had, so
            // they find the static bin the engine kept.
            assert_eq!(
                report.metrics.get("static_bin_recomputes"),
                1,
                "check_every={ce}"
            );
            // The normalized breakdown covers exactly `iters` Main-Phase
            // iterations and books one pre + one post, with re-entry
            // overhead split out rather than inflating the phases.
            assert_eq!(report.phase_stats.iterations, iters, "check_every={ce}");
            assert!(report.phase_stats.pre_seconds >= 0.0);
            assert!(report.phase_stats.post_seconds >= 0.0);
            if batches == 1 {
                assert_eq!(report.reentry_pre_seconds, 0.0);
                assert_eq!(report.reentry_post_seconds, 0.0);
            }
            assert!((0.0..=1.0).contains(&report.phase_stats.out_of_main_fraction()));
        }
    }

    /// Satellite 4 (fault attribution): a deterministic divergence must be
    /// pinned to the same first-bad iteration whatever the batch size.
    #[test]
    fn fault_iteration_is_identical_across_check_every() {
        let g = mixed_graph();
        // Values grow ~10x per iteration; with limit 1e3 the first bad
        // iteration is fixed by the dynamics alone.
        let apply = |_: NodeId, s: f32| 10.0 * s + 100.0;
        let init = |_: NodeId| 100.0f32;
        let mut expected: Option<usize> = None;
        for ce in [1usize, 3, 7] {
            let mut opts = runner_with_check_every(ce).opts().clone();
            opts.divergence_limit = 1e3;
            let runner = RobustRunner::new(opts);
            let failure = runner.run::<f32, _, _>(&g, init, apply, 50).unwrap_err();
            let iteration = match failure.error {
                GraphError::Numeric { iteration, .. } => iteration,
                ref other => panic!("expected Numeric, got {other}"),
            };
            assert_eq!(failure.report.iterations, iteration, "check_every={ce}");
            match expected {
                None => expected = Some(iteration),
                Some(want) => assert_eq!(iteration, want, "check_every={ce}"),
            }
            if ce == 1 {
                assert_eq!(failure.report.metrics.get("fault_bisect_steps"), 0);
            } else {
                // The batched runs had to replay to locate the iteration.
                assert_eq!(
                    failure.report.metrics.get("fault_bisect_steps"),
                    iteration as u64 - (iteration - 1) as u64 / ce as u64 * ce as u64,
                    "check_every={ce}"
                );
            }
        }
        // With limit 1e3 and ~10x growth from 100, iteration 1 already
        // overflows the limit on the cyclic core.
        assert_eq!(expected, Some(1));
    }

    /// Satellite 4 (counter exactness): every Main-Phase iteration streams
    /// exactly the regular subgraph's edges.
    #[test]
    fn edges_scattered_matches_regular_nnz_per_iteration() {
        let g = mixed_graph();
        let runner = small_runner();
        let reg_nnz = MixenEngine::new(&g, runner.opts().mixen)
            .filtered()
            .reg_csr()
            .nnz() as u64;
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
        let runner = runner_with_check_every(3);
        let (_, report) = runner
            .run::<f32, _, _>(&g, |_| 1.0, |_, s| 0.5 * s, 7)
            .unwrap();
        let json = report.to_json();
        let parsed = Json::parse(&json.render_pretty()).unwrap();
        assert_eq!(parsed, json);
        assert_eq!(parsed.get("engine").unwrap().as_str(), Some("mixen"));
        assert_eq!(parsed.get("iterations").unwrap().as_u64(), Some(7));
        assert_eq!(parsed.get("batch_reentries").unwrap().as_u64(), Some(2));
        let phases = parsed.get("phases").unwrap();
        assert_eq!(phases.get("iterations").unwrap().as_u64(), Some(7));
        let counters = parsed.get("counters").unwrap();
        assert!(counters.get("edges_scattered").unwrap().as_u64().unwrap() > 0);
        // A fresh report's residual serializes as the string "inf".
        let fresh = RunReport::default().to_json();
        assert_eq!(fresh.get("residual").unwrap().as_f64(), Some(f64::INFINITY));
    }

    /// Runner degradation events surface in the counter snapshot too.
    #[test]
    fn degradations_are_counted_in_metrics() {
        let g = mixed_graph();
        let mut opts = small_runner().opts().clone();
        opts.inject_preprocess_fault = Some("synthetic invariant failure".into());
        let degraded = RobustRunner::new(opts);
        let (_, report) = degraded
            .run::<f32, _, _>(&g, |_| 1.0, |_, s| 0.5 * s, 2)
            .unwrap();
        assert_eq!(report.metrics.get("engine_fallbacks"), 1);
        // The pull baseline has no kernel counters.
        assert_eq!(report.metrics.get("edges_scattered"), 0);

        let mut bytes = Vec::new();
        mixen_graph::io::write_csr(&g, &mut bytes).unwrap();
        let mut attempts = 0;
        let (_, report) = small_runner()
            .load_graph_with(|| {
                attempts += 1;
                if attempts <= 2 {
                    Err(std::io::Error::new(std::io::ErrorKind::TimedOut, "flaky"))
                } else {
                    Ok(bytes.as_slice())
                }
            })
            .unwrap();
        assert_eq!(report.metrics.get("load_retries"), 2);
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
        let mut opts = small_runner().opts().clone();
        opts.divergence_limit = 1e3;
        let runner = RobustRunner::new(opts);
        // Doubling per iteration on a cyclic graph blows past 1e3.
        let failure = runner
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

    #[test]
    fn fallback_to_pull_matches_mixen_results() {
        let g = mixed_graph();
        let mut opts = small_runner().opts().clone();
        opts.inject_preprocess_fault = Some("synthetic invariant failure".into());
        let degraded = RobustRunner::new(opts);
        let healthy = small_runner();
        let apply = |v: NodeId, sum: f32| 0.5 * sum + 0.1 * (v as f32 + 1.0);
        let init = |v: NodeId| 0.1 * (v as f32 + 1.0);
        let (a, ra) = degraded.run(&g, init, apply, 4).unwrap();
        let (b, rb) = healthy.run(&g, init, apply, 4).unwrap();
        assert_eq!(ra.engine, EngineUsed::PullFallback);
        assert_eq!(rb.engine, EngineUsed::Mixen);
        assert!(matches!(
            ra.degradations.as_slice(),
            [DegradationEvent::EngineFallback { .. }]
        ));
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-5, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn fallback_disabled_surfaces_the_error() {
        let g = mixed_graph();
        let mut opts = small_runner().opts().clone();
        opts.inject_preprocess_fault = Some("synthetic invariant failure".into());
        opts.allow_fallback = false;
        let runner = RobustRunner::new(opts);
        let failure = runner
            .run::<f32, _, _>(&g, |_| 1.0, |_, s| s, 2)
            .unwrap_err();
        assert!(matches!(failure.error, GraphError::Invariant(_)));
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

    #[test]
    fn load_retries_transient_errors_then_succeeds() {
        let g = mixed_graph();
        let mut bytes = Vec::new();
        mixen_graph::io::write_csr(&g, &mut bytes).unwrap();
        let mut attempts = 0;
        let runner = small_runner();
        let (loaded, report) = runner
            .load_graph_with(|| {
                attempts += 1;
                if attempts <= 2 {
                    Err(std::io::Error::new(std::io::ErrorKind::TimedOut, "flaky"))
                } else {
                    Ok(bytes.as_slice())
                }
            })
            .unwrap();
        assert_eq!(loaded.n(), g.n());
        assert_eq!(report.load_retries, 2);
        assert_eq!(report.degradations.len(), 2);
    }

    #[test]
    fn load_gives_up_on_persistent_errors() {
        let runner = small_runner();
        let failure = runner
            .load_graph_with(|| -> std::io::Result<&[u8]> {
                Err(std::io::Error::new(std::io::ErrorKind::TimedOut, "flaky"))
            })
            .unwrap_err();
        assert!(matches!(failure.error, GraphError::Io(_)));
        assert_eq!(failure.report.load_retries, runner.opts().max_load_retries);
    }

    #[test]
    fn load_does_not_retry_corruption() {
        let g = mixed_graph();
        let mut bytes = Vec::new();
        mixen_graph::io::write_csr(&g, &mut bytes).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let runner = small_runner();
        let failure = runner.load_graph_with(|| Ok(bytes.as_slice())).unwrap_err();
        assert_eq!(failure.report.load_retries, 0);
        assert!(matches!(
            failure.error,
            GraphError::Checksum { .. } | GraphError::Invariant(_)
        ));
    }

    #[test]
    fn missing_file_fails_without_retry() {
        let runner = small_runner();
        let failure = runner.load_graph("/no/such/file.mxg").unwrap_err();
        assert!(matches!(failure.error, GraphError::Io(_)));
        assert_eq!(failure.report.load_retries, 0);
    }

    fn ckpt_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("mixen_runner_ckpt").join(name);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The fingerprint must react to every knob that changes numeric
    /// behavior — including the lane count, which changes batch scheduling.
    #[test]
    fn fingerprint_is_sensitive_to_options_and_lanes() {
        let base = small_runner().opts().clone();
        let fp = base.fingerprint(4);
        assert_ne!(fp, base.fingerprint(2), "lane count must be fingerprinted");
        let mut o = base.clone();
        o.check_every = base.check_every + 1;
        assert_ne!(fp, o.fingerprint(4));
        let mut o = base.clone();
        o.divergence_limit = base.divergence_limit * 2.0;
        assert_ne!(fp, o.fingerprint(4));
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
        o.stall_budget = Some(Duration::from_secs(1));
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
        opts.check_every = 1;
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

    /// Resuming at-or-past the target iteration count is a no-op returning
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

    /// A zero deadline trips before the first batch: typed error, durable
    /// final checkpoint, `deadline_exceeded` stamped.
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
