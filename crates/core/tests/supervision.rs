//! Integration tests for the supervised runner on a pinned pool: a healthy
//! run under a generous deadline, and a deadline that expires mid-run —
//! stopped between iterations, checkpointed, and resumed to the same bits
//! an uninterrupted run produces at that lane count.
//
// RunFailure carries the full RunReport by design (the trail must survive
// the error path), so the closure's Err variant is large.
#![allow(clippy::result_large_err)]

use std::time::Duration;

use mixen_core::{EngineUsed, RobustRunner, RunnerOpts};
use mixen_graph::gen::{rmat, RmatParams};
use mixen_graph::{GraphError, NodeId};

fn skewed_graph() -> mixen_graph::Graph {
    rmat(8, 8, RmatParams::default(), 42)
}

/// A healthy run under a deadline it never reaches records nothing.
#[test]
fn healthy_run_reports_no_degradations() {
    let g = skewed_graph();
    let opts = RunnerOpts {
        deadline: Some(Duration::from_secs(120)),
        ..RunnerOpts::default()
    };
    let runner = RobustRunner::new(opts);
    let (_, report) = mixen_pool::with_threads(4, || {
        runner.run::<f32, _, _>(&g, |_| 1.0, |_: NodeId, s| 0.5 * s + 0.1, 6)
    })
    .unwrap();
    assert_eq!(report.iterations, 6);
    assert!(report.degradations.is_empty());
    assert_eq!(report.metrics.get("deadline_exceeded"), 0);
    assert_eq!(report.engine, EngineUsed::Mixen);
}

/// The deadline is checked between iterations. An `apply` that sleeps
/// 50 µs per node makes every iteration take milliseconds, so a 25 ms budget
/// stops a 400-iteration run part-way; the final snapshot sits at the
/// iteration the report names, and resuming it to the full count (with the
/// fast `apply`, which computes the same values) is bit-identical to an
/// uninterrupted run on the same lanes.
#[test]
fn deadline_mid_run_checkpoints_and_resumes_bit_identical() {
    let g = skewed_graph();
    let total = 400usize;
    let dir = std::env::temp_dir().join("mixen_supervision_deadline");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.ckpt");
    let init = |_: NodeId| 1.0f32;
    // A contraction on any graph: an in-sum is at most `n` times the
    // largest value, so values stay below 0.2.
    let n = g.n() as f32;
    let apply = move |_: NodeId, s: f32| 0.5 * s / n + 0.1;
    let slow_apply = |v: NodeId, s: f32| {
        std::thread::sleep(Duration::from_micros(50));
        apply(v, s)
    };
    let durable = RunnerOpts {
        checkpoint_path: Some(path.clone()),
        // Only the deadline stop writes a snapshot.
        checkpoint_every: total,
        ..RunnerOpts::default()
    };
    let (want, failure, got) = mixen_pool::with_threads(2, || {
        let want = RobustRunner::default()
            .run::<f32, _, _>(&g, init, apply, total)
            .unwrap()
            .0;
        let failure = RobustRunner::new(RunnerOpts {
            deadline: Some(Duration::from_millis(25)),
            ..durable.clone()
        })
        .run::<f32, _, _>(&g, init, slow_apply, total)
        .unwrap_err();
        assert!(
            matches!(failure.error, GraphError::Deadline { .. }),
            "{}",
            failure.error
        );
        // The deadline is not fingerprinted: a runner without one resumes.
        let runner = RobustRunner::new(durable.clone());
        let resumed = runner.resume_from::<f32>(&g, &path).unwrap();
        assert_eq!(resumed.iteration, failure.report.iterations);
        let got = runner.run_resumed(&g, resumed, apply, total).unwrap();
        (want, failure, got)
    });
    let stopped = failure.report.iterations;
    assert!(0 < stopped && stopped < total, "stopped at {stopped}");
    assert_eq!(failure.report.metrics.get("deadline_exceeded"), 1);
    assert_eq!(failure.report.metrics.get("checkpoints_written"), 1);
    let (got, report) = got;
    assert_eq!(report.iterations, total);
    assert_eq!(report.metrics.get("resumes"), 1);
    for (i, (a, b)) in got.iter().zip(&want).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "node {i}: {a} vs {b}");
    }
    std::fs::remove_file(&path).ok();
}
