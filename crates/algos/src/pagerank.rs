//! PageRank (§2.2, Table 3's PR workload).
//!
//! The pull formulation the paper times:
//! `rank'[v] = (1-d)/n + d · Σ_{u→v} rank[u]/outdeg(u)`.
//!
//! The *propagated* value is `rank/outdeg`, so `apply` folds the damping and
//! the division in one step. Seed nodes (in-degree 0) are initialized at
//! their fixed point `(1-d)/n` — the contract that lets Mixen cache their
//! contribution once and still match a conventional engine at every
//! iteration (see `mixen_core::engine`).
//!
//! Like the paper's implementation, dangling (sink) rank mass leaks: it
//! is not handed back to the other nodes.

use crate::Engine;
use mixen_graph::nid;
use mixen_graph::{Graph, NodeId};

/// PageRank parameters.
#[derive(Clone, Copy, Debug)]
pub struct PageRankOpts {
    /// Damping factor `d` (the usual 0.85).
    pub damping: f32,
}

impl Default for PageRankOpts {
    fn default() -> Self {
        Self { damping: 0.85 }
    }
}

/// The recurrence over propagated values (`rank/outdeg`), stated once; the
/// batch, supervised, resumed and streaming drivers differ only in how
/// they drive it.
struct Terms {
    /// Node count as the recurrence uses it (floored at 1).
    n: f32,
    damping: f32,
    /// `(1-d)/n`: the teleport term, and every seed's fixed point.
    base: f32,
    /// Out-degrees floored at 1 (a sink propagates nothing, so its divisor
    /// never reaches a neighbour).
    out_deg: Vec<u32>,
}

impl Terms {
    fn new(g: &Graph, opts: PageRankOpts) -> Self {
        let n = g.n().max(1) as f32;
        Self {
            n,
            damping: opts.damping,
            base: (1.0 - opts.damping) / n,
            out_deg: (0..nid(g.n()))
                .map(|v| nid(g.out_degree(v).max(1)))
                .collect(),
        }
    }

    /// Iteration-0 propagated value of `v`: seeds start at their fixed
    /// point (the contract Mixen's seed caching relies on), everyone else
    /// at the textbook `1/n`.
    fn init(&self, g: &Graph, v: NodeId) -> f32 {
        let rank0 = if g.in_degree(v) == 0 {
            self.base
        } else {
            1.0 / self.n
        };
        rank0 / self.out_deg[v as usize] as f32
    }

    fn apply(&self, v: NodeId, sum: f32) -> f32 {
        (self.base + self.damping * sum) / self.out_deg[v as usize] as f32
    }

    /// Propagated values back to ranks.
    fn scores(&self, vals: &[f32]) -> Vec<f32> {
        vals.iter()
            .zip(&self.out_deg)
            .map(|(&p, &odeg)| p * odeg as f32)
            .collect()
    }

    /// Max-norm distance between the ranks of two propagated states: what
    /// comparing their [`Terms::scores`] gives, without materialising either.
    fn score_distance(&self, a: &[f32], b: &[f32]) -> f64 {
        let deltas = a.iter().zip(b).zip(&self.out_deg);
        mixen_graph::max_distance(
            deltas.map(|((&p, &q), &odeg)| (p * odeg as f32 - q * odeg as f32).abs() as f64),
        )
    }
}

/// Runs a fixed number of PageRank iterations; returns per-node scores.
pub fn pagerank<E: Engine>(g: &Graph, engine: &E, opts: PageRankOpts, iters: usize) -> Vec<f32> {
    let t = Terms::new(g, opts);
    t.scores(&engine.iterate(|v| t.init(g, v), |v, sum| t.apply(v, sum), iters))
}

/// Runs PageRank until the propagated values change by at most `tol`
/// (max-norm) or `max_iters`; returns scores and iterations.
pub fn pagerank_until<E: Engine>(
    g: &Graph,
    engine: &E,
    opts: PageRankOpts,
    tol: f64,
    max_iters: usize,
) -> (Vec<f32>, usize) {
    let t = Terms::new(g, opts);
    let (vals, performed) =
        engine.iterate_until(|v| t.init(g, v), |v, sum| t.apply(v, sum), tol, max_iters);
    (t.scores(&vals), performed)
}

/// Supervised PageRank through [`mixen_core::RobustRunner`]: per-iteration
/// numeric health checks (NaN / Inf / divergence), the pull baseline when
/// the Mixen engine fails to build, and a populated
/// [`mixen_core::RunReport`] on success *and* failure.
///
/// Returns the scores alongside the report; a numeric fault surfaces as
/// `Err(RunFailure)` whose error is [`mixen_graph::GraphError::Numeric`].
#[allow(clippy::result_large_err)] // RunFailure carries the run report by design
pub fn pagerank_supervised(
    g: &Graph,
    runner: &mixen_core::RobustRunner,
    opts: PageRankOpts,
    iters: usize,
) -> Result<(Vec<f32>, mixen_core::RunReport), mixen_core::RunFailure> {
    let t = Terms::new(g, opts);
    let (vals, report) = runner.run(g, |v| t.init(g, v), |v, sum| t.apply(v, sum), iters)?;
    Ok((t.scores(&vals), report))
}

/// The [`mixen_core::RunnerOpts::fingerprint_extra`] value a supervised
/// PageRank run must carry so its checkpoints bind to the algorithm
/// parameters: resuming with a different damping factor is then rejected as
/// stale instead of silently producing a hybrid of two different chains.
pub fn pagerank_fingerprint_extra(opts: &PageRankOpts) -> u64 {
    u64::from(opts.damping.to_bits())
}

/// Resumes a supervised PageRank run from the `CKPT1` snapshot at the
/// runner's configured [`mixen_core::RunnerOpts::checkpoint_path`], then
/// continues until `iters` *total* iterations (checkpointed ones included);
/// a snapshot already past `iters` is a typed
/// [`mixen_graph::GraphError::Format`].
///
/// The snapshot must have been written by a run with the same graph, the
/// same runner options (including [`pagerank_fingerprint_extra`]), and the
/// same lane count; any mismatch is a typed staleness error. At a fixed
/// lane count the final scores are bit-identical to an uninterrupted
/// `iters`-iteration run.
#[allow(clippy::result_large_err)] // RunFailure carries the run report by design
pub fn pagerank_supervised_resume(
    g: &Graph,
    runner: &mixen_core::RobustRunner,
    opts: PageRankOpts,
    iters: usize,
) -> Result<(Vec<f32>, mixen_core::RunReport), mixen_core::RunFailure> {
    let Some(path) = runner.opts().checkpoint_path.clone() else {
        return Err(mixen_core::RunFailure {
            error: mixen_graph::GraphError::Format(
                "resume requested but the runner has no checkpoint_path configured".into(),
            ),
            report: mixen_core::RunReport::default(),
        });
    };
    let resumed = runner
        .resume_from::<f32>(g, &path)
        .map_err(|error| mixen_core::RunFailure {
            error,
            report: mixen_core::RunReport::default(),
        })?;
    let t = Terms::new(g, opts);
    let (vals, report) = runner.run_resumed(g, resumed, |v, sum| t.apply(v, sum), iters)?;
    Ok((t.scores(&vals), report))
}

/// Incremental PageRank for long-lived services: keeps the chain's state
/// between calls so a serving loop can advance a few iterations, publish a
/// snapshot of the current scores, and continue — following exactly the
/// trajectory of one uninterrupted run.
///
/// The stored state is the engine's *native* state — the propagated values
/// `rank/outdeg` — so a sequence of [`PageRankStream::advance`] calls is
/// bit-identical to a single `pagerank` call for the same total iteration
/// count: no rank↔propagated round-trips are inserted at batch boundaries.
pub struct PageRankStream<'a, E: Engine> {
    engine: &'a E,
    terms: Terms,
    /// Propagated values (`rank/outdeg`).
    state: Vec<f32>,
    iterations: usize,
}

impl<'a, E: Engine> PageRankStream<'a, E> {
    /// A stream positioned at iteration 0 (the textbook initial ranks).
    pub fn new(g: &Graph, engine: &'a E, opts: PageRankOpts) -> Self {
        let terms = Terms::new(g, opts);
        let state = (0..nid(g.n())).map(|v| terms.init(g, v)).collect();
        Self {
            engine,
            terms,
            state,
            iterations: 0,
        }
    }

    /// Total iterations advanced so far.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Advances `iters` more iterations; returns the max-norm score change
    /// across the whole batch. That is no bound on the last iteration's
    /// change (on a period-2 component the scores swing back within the
    /// batch), so a convergence test advances one last iteration on its
    /// own and reads that call's change.
    pub fn advance(&mut self, iters: usize) -> f64 {
        if iters == 0 {
            return 0.0;
        }
        let (state, t) = (&self.state, &self.terms);
        let next = self
            .engine
            .iterate(|v| state[v as usize], |v, sum| t.apply(v, sum), iters);
        let residual = t.score_distance(&next, state);
        self.state = next;
        self.iterations += iters;
        residual
    }

    /// The current per-node scores (rank values).
    pub fn scores(&self) -> Vec<f32> {
        self.terms.scores(&self.state)
    }
}

/// Sum of all PageRank scores — dangling mass leaks, so it lies in
/// `(1-d, 1]`. Exposed for tests and examples.
pub fn total_mass(scores: &[f32]) -> f64 {
    scores.iter().map(|&s| s as f64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixen_baselines::ReferenceEngine;
    use mixen_core::{MixenEngine, MixenOpts};

    fn ring() -> Graph {
        Graph::from_pairs(4, &[(0, 1), (1, 2), (2, 3), (3, 0)])
    }

    #[test]
    fn uniform_on_a_ring() {
        // A symmetric ring must stay uniform at 1/n.
        let g = ring();
        let scores = pagerank(&g, &ReferenceEngine::new(&g), PageRankOpts::default(), 20);
        for &s in &scores {
            assert!((s - 0.25).abs() < 1e-5, "{scores:?}");
        }
        assert!((total_mass(&scores) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn hub_ranks_highest() {
        // Everyone links to node 0; node 0 links to 1.
        let g = Graph::from_pairs(5, &[(1, 0), (2, 0), (3, 0), (4, 0), (0, 1)]);
        let scores = pagerank(&g, &ReferenceEngine::new(&g), PageRankOpts::default(), 30);
        assert!(scores[0] > scores[1]);
        assert!(scores[1] > scores[2]);
        assert!((scores[2] - scores[3]).abs() < 1e-6);
    }

    #[test]
    fn mixen_matches_reference_every_iteration() {
        let g = Graph::from_pairs(
            7,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (3, 0),
                (3, 2),
                (1, 4),
                (2, 5),
                (4, 5),
            ],
        );
        let eng = MixenEngine::new(
            &g,
            MixenOpts {
                block_side: 2,
                min_tasks_per_thread: 1,
                ..MixenOpts::default()
            },
        );
        let reference = ReferenceEngine::new(&g);
        for iters in 1..8 {
            let a = pagerank(&g, &eng, PageRankOpts::default(), iters);
            let b = pagerank(&g, &reference, PageRankOpts::default(), iters);
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() < 1e-5, "iters {iters}: {a:?} vs {b:?}");
            }
        }
    }

    /// The serving loop's contract: advancing in batches reproduces the
    /// single-shot run bit-for-bit, because the stream stores the engine's
    /// native (propagated) state between batches.
    #[test]
    fn stream_batches_match_single_shot_bitwise() {
        use mixen_graph::{Dataset, Scale};
        let g = Dataset::Weibo.generate(Scale::Tiny, 7);
        let engine = MixenEngine::new(&g, MixenOpts::default());
        let opts = PageRankOpts::default();
        let full = pagerank(&g, &engine, opts, 12);
        let mut stream = PageRankStream::new(&g, &engine, opts);
        for batch in [1usize, 3, 8] {
            let residual = stream.advance(batch);
            assert!(residual.is_finite());
        }
        assert_eq!(stream.iterations(), 12);
        let streamed = stream.scores();
        let full_bits: Vec<u32> = full.iter().map(|s| s.to_bits()).collect();
        let stream_bits: Vec<u32> = streamed.iter().map(|s| s.to_bits()).collect();
        assert_eq!(full_bits, stream_bits);
    }

    /// The residual is computed from the two propagated states in one pass;
    /// it must be the very number comparing the two score vectors gives.
    #[test]
    fn stream_residual_is_the_max_norm_of_the_score_change() {
        use mixen_graph::{Dataset, Scale};
        let g = Dataset::Wiki.generate(Scale::Tiny, 7);
        let engine = MixenEngine::new(&g, MixenOpts::default());
        let mut stream = PageRankStream::new(&g, &engine, PageRankOpts::default());
        for batch in [1usize, 2, 4] {
            let before = stream.scores();
            let residual = stream.advance(batch);
            let want = stream
                .scores()
                .iter()
                .zip(&before)
                .map(|(a, b)| (a - b).abs() as f64)
                .fold(0.0, f64::max);
            assert!(want > 0.0);
            assert_eq!(residual.to_bits(), want.to_bits(), "batch {batch}");
        }
    }

    #[test]
    fn stream_residual_shrinks_and_zero_advance_is_free() {
        let g = ring();
        let engine = ReferenceEngine::new(&g);
        let mut stream = PageRankStream::new(&g, &engine, PageRankOpts::default());
        assert_eq!(stream.advance(0), 0.0);
        let early = stream.advance(5);
        let late = stream.advance(5);
        assert!(late <= early, "residual grew: {early} -> {late}");
    }

    #[test]
    fn convergence_variant_stops() {
        let g = ring();
        let (scores, iters) = pagerank_until(
            &g,
            &ReferenceEngine::new(&g),
            PageRankOpts::default(),
            1e-9,
            500,
        );
        assert!(iters < 100);
        assert!((total_mass(&scores) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn dangling_mass_leaks_with_sinks() {
        // Node 2 is a sink; the paper's formulation drops the mass it
        // absorbs, so the total falls below 1 (and stays above 1 - d).
        let g = Graph::from_pairs(3, &[(0, 1), (1, 2), (1, 0)]);
        let leaky = pagerank(&g, &ReferenceEngine::new(&g), PageRankOpts::default(), 50);
        let mass = total_mass(&leaky);
        assert!(mass < 0.999 && mass > 0.15, "mass = {mass}");
    }

    #[test]
    fn supervised_matches_reference() {
        let g = Graph::from_pairs(
            7,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (3, 0),
                (3, 2),
                (1, 4),
                (2, 5),
                (4, 5),
            ],
        );
        let runner = mixen_core::RobustRunner::new(mixen_core::RunnerOpts {
            mixen: MixenOpts {
                block_side: 2,
                min_tasks_per_thread: 1,
                ..MixenOpts::default()
            },
            ..mixen_core::RunnerOpts::default()
        });
        let (scores, report) =
            pagerank_supervised(&g, &runner, PageRankOpts::default(), 10).unwrap();
        let want = pagerank(&g, &ReferenceEngine::new(&g), PageRankOpts::default(), 10);
        for (a, b) in scores.iter().zip(&want) {
            assert!((a - b).abs() < 1e-5, "{scores:?} vs {want:?}");
        }
        assert_eq!(report.iterations, 10);
        assert!(report.degradations.is_empty());
    }

    #[test]
    fn supervised_catches_nan_damping() {
        let g = ring();
        let runner = mixen_core::RobustRunner::new(mixen_core::RunnerOpts::default());
        let failure =
            pagerank_supervised(&g, &runner, PageRankOpts { damping: f32::NAN }, 10).unwrap_err();
        assert!(matches!(
            failure.error,
            mixen_graph::GraphError::Numeric { .. }
        ));
        // The report still describes the run up to the fault.
        assert_eq!(failure.report.engine, mixen_core::EngineUsed::Mixen);
    }

    #[test]
    fn supervised_resume_is_bit_identical() {
        let g = Graph::from_pairs(
            7,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (3, 0),
                (3, 2),
                (1, 4),
                (2, 5),
                (4, 5),
            ],
        );
        let dir = std::env::temp_dir().join("mixen_algos_resume");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pr.ckpt");
        let pr = PageRankOpts::default();
        let opts = mixen_core::RunnerOpts {
            checkpoint_path: Some(path.clone()),
            checkpoint_every: 3,
            fingerprint_extra: pagerank_fingerprint_extra(&pr),
            ..mixen_core::RunnerOpts::default()
        };
        let runner = mixen_core::RobustRunner::new(opts);
        let (want, _) = pagerank_supervised(&g, &runner, pr, 10).unwrap();
        // Simulate an interruption at iteration 6 and resume to 10.
        let (_, report) = pagerank_supervised(&g, &runner, pr, 6).unwrap();
        assert!(report.metrics.get("checkpoints_written") >= 2);
        let (got, report) = pagerank_supervised_resume(&g, &runner, pr, 10).unwrap();
        assert_eq!(report.iterations, 10);
        assert_eq!(report.metrics.get("resumes"), 1);
        for (a, b) in got.iter().zip(&want) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // A different damping factor (wired through fingerprint_extra, as
        // the CLI does) must be rejected as stale.
        let changed = mixen_core::RobustRunner::new(mixen_core::RunnerOpts {
            checkpoint_path: Some(path.clone()),
            fingerprint_extra: pagerank_fingerprint_extra(&PageRankOpts { damping: 0.9 }),
            ..mixen_core::RunnerOpts::default()
        });
        let err = pagerank_supervised_resume(&g, &changed, pr, 10).unwrap_err();
        assert!(matches!(err.error, mixen_graph::GraphError::Format(_)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = Graph::from_pairs(0, &[]);
        let scores = pagerank(&g, &ReferenceEngine::new(&g), PageRankOpts::default(), 3);
        assert!(scores.is_empty());
    }
}
