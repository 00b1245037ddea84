//! Cross-thread-count determinism of the parallel engine (DESIGN.md §7).
//!
//! Two guarantees are pinned here:
//!
//! * **Schedule determinism per thread count** — the engine's results are a
//!   pure function of (input graph, options, thread count). Re-running at
//!   the same lane count reproduces scores bit-for-bit.
//! * **Tolerance across thread counts** — different lane counts may reduce
//!   float sums in a different association order, so scores are only equal
//!   within `CROSS_THREAD_TOLERANCE` (documented in EXPERIMENTS.md; the
//!   measured small-scale deviation is ~3e-7, two orders below the bound).
//!
//! Control-flow decisions (health checks) must not sit inside that
//! tolerance: the supervised runner pins a divergence fault to the same
//! first-bad iteration whatever the thread count.

use mixen_algos::{pagerank, pagerank_supervised, PageRankOpts};
use mixen_core::{MixenEngine, MixenOpts, RobustRunner, RunnerOpts};
use mixen_graph::{Dataset, Graph, NodeId, Scale};

/// Maximum per-node |score| gap tolerated between runs at different thread
/// counts (unit-normalized PageRank mass). Keep in sync with EXPERIMENTS.md
/// ("Thread scaling") and DESIGN.md §7.
const CROSS_THREAD_TOLERANCE: f32 = 1e-5;

fn skewed_graph() -> Graph {
    Dataset::Weibo.generate(Scale::Tiny, 42)
}

fn pagerank_at(g: &Graph, threads: usize) -> Vec<f32> {
    mixen_pool::with_threads(threads, || {
        let engine = MixenEngine::new(g, MixenOpts::default());
        pagerank(g, &engine, PageRankOpts::default(), 20)
    })
}

fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

#[test]
fn pagerank_matches_across_thread_counts_within_tolerance() {
    let g = skewed_graph();
    let base = pagerank_at(&g, 1);
    assert!(base.iter().all(|s| s.is_finite() && *s >= 0.0));
    for threads in [2, 4] {
        let scores = pagerank_at(&g, threads);
        let dev = max_abs_diff(&base, &scores);
        assert!(
            dev <= CROSS_THREAD_TOLERANCE,
            "threads={threads}: max deviation {dev:e} exceeds {CROSS_THREAD_TOLERANCE:e}"
        );
    }
}

#[test]
fn same_thread_count_reproduces_scores_bit_for_bit() {
    let g = skewed_graph();
    for threads in [1, 4] {
        let a = pagerank_at(&g, threads);
        let b = pagerank_at(&g, threads);
        assert_eq!(a, b, "threads={threads} must be schedule-deterministic");
    }
}

/// The first iteration at which some weibo-tiny value passes the runner's
/// `1e12` divergence limit under `x' = 10 Σx + 100` from 100 (captured at
/// one lane).
const FAULT_ITERATION: usize = 4;

#[test]
fn fault_iteration_is_identical_across_thread_counts() {
    let g = skewed_graph();
    // Values grow ~10x per iteration, so the first iteration past the
    // runner's divergence limit is fixed by the dynamics alone and must not
    // depend on how the lanes were scheduled.
    let apply = |_: NodeId, s: f32| 10.0 * s + 100.0;
    let init = |_: NodeId| 100.0f32;
    let mut expected: Option<usize> = None;
    for threads in [1usize, 2, 4] {
        let failure = mixen_pool::with_threads(threads, || {
            RobustRunner::new(RunnerOpts::default())
                .run::<f32, _, _>(&g, init, apply, 50)
                .unwrap_err()
        });
        let iteration = failure.report.iterations;
        match expected {
            None => expected = Some(iteration),
            Some(want) => assert_eq!(
                iteration, want,
                "threads={threads}: fault attribution drifted"
            ),
        }
    }
    assert_eq!(expected, Some(FAULT_ITERATION));
}

#[test]
fn supervised_report_carries_pool_counters() {
    let g = skewed_graph();
    let (scores, report) = mixen_pool::with_threads(4, || {
        pagerank_supervised(
            &g,
            &RobustRunner::new(RunnerOpts::default()),
            PageRankOpts::default(),
            10,
        )
        .expect("supervised pagerank must succeed")
    });
    assert!(scores.iter().all(|s| s.is_finite()));
    assert_eq!(report.metrics.get("pool_workers"), 4);
    assert!(
        report.metrics.get("pool_tasks_executed") > 0,
        "a 4-lane run must have executed pool tasks"
    );
}

/// CRC-32 of the little-endian bytes of `words`.
fn crc_of<T: Copy + Into<u64>>(words: impl Iterator<Item = T>) -> u32 {
    let bytes: Vec<u8> = words.flat_map(|w| w.into().to_le_bytes()).collect();
    mixen_graph::io::crc32(&bytes)
}

/// `(dataset, CRC of transpose().ptr(), CRC of the 20-iteration PageRank
/// score bits at 1 / 2 / 4 lanes)`, captured at the commit *before* the
/// `par_*` call sites were rewritten onto the `mixen-pool` helpers. Part
/// boundaries, in-part order and part-order combination fix every float's
/// bits at a given lane count, so these survive any refactor of how the
/// loops are spelled; a change of split rule or combine order moves them.
///
/// The 2- and 4-lane score CRCs were re-derived once since: the Pre-Phase
/// now folds one accumulator per lane cut at equal edge counts instead of
/// `4 × lanes` cut at equal row counts (DESIGN.md DR-10). The 1-lane CRCs —
/// one part either way — and the `ptr` CRCs did not move, which is the proof
/// that nothing but that combine order did.
const GOLDEN_BITS: [(Dataset, u32, [u32; 3]); 2] = [
    (
        Dataset::Weibo,
        0x0b49_87eb,
        [0x89f1_f105, 0x8536_3d13, 0x86a8_b73f],
    ),
    (
        Dataset::Wiki,
        0xfb11_be72,
        [0x6204_9f94, 0xedfa_2d49, 0xad51_8b49],
    ),
];

#[test]
fn score_bits_at_fixed_lane_counts_match_the_pre_rewrite_capture() {
    for (dataset, want_ptr, want_scores) in GOLDEN_BITS {
        let g = dataset.generate(Scale::Tiny, 42);
        for (threads, want) in [1usize, 2, 4].into_iter().zip(want_scores) {
            let ptr_crc = mixen_pool::with_threads(threads, || {
                crc_of(g.out_csr().transpose().ptr().iter().map(|&p| p as u64))
            });
            assert_eq!(
                ptr_crc, want_ptr,
                "{dataset:?} transpose ptr, threads={threads}"
            );
            let scores = pagerank_at(&g, threads);
            let got = crc_of(scores.iter().map(|s| s.to_bits()));
            assert_eq!(got, want, "{dataset:?} score bits, threads={threads}");
        }
    }
}

/// `(scatter_tasks, gather_tasks, tasks_split, max_task_nnz, per-column
/// nonempty_rows lengths)` of one partition.
type PartitionPin = (usize, usize, u64, u64, &'static [usize]);

/// `(dataset, its [`PartitionPin`] at 1 / 2 / 4 lanes)` for the
/// default-options partition, captured at the commit *before* the
/// gather-chunking, skip-list and overload-factor knobs became
/// unconditional: the always-on paths must cut exactly the tasks the
/// defaults cut. Rmat is here because weibo and wiki chunk no gather
/// column at tiny scale (`gather_tasks` equals the column count).
const GOLDEN_PARTITION: [(Dataset, [PartitionPin; 3]); 3] = [
    (
        Dataset::Weibo,
        [
            (1, 1, 0, 2486, &[1]),
            (1, 1, 0, 2486, &[1]),
            (1, 1, 0, 2486, &[1]),
        ],
    ),
    (
        Dataset::Wiki,
        [
            (8, 4, 4, 34431, &[8; 4]),
            (15, 8, 7, 17771, &[15; 8]),
            (
                29,
                16,
                13,
                12080,
                &[
                    29, 29, 29, 29, 29, 29, 29, 29, 29, 29, 29, 29, 29, 29, 29, 28,
                ],
            ),
        ],
    ),
    (
        Dataset::Rmat,
        [
            (8, 5, 5, 54216, &[8; 4]),
            (14, 10, 8, 27070, &[14; 8]),
            (28, 21, 17, 13546, &[28; 16]),
        ],
    ),
];

#[test]
fn partition_at_fixed_lane_counts_matches_the_pre_removal_capture() {
    for (dataset, pins) in GOLDEN_PARTITION {
        let g = dataset.generate(Scale::Tiny, 42);
        for (threads, want) in [1usize, 2, 4].into_iter().zip(pins) {
            mixen_pool::with_threads(threads, || {
                let engine = MixenEngine::new(&g, MixenOpts::default());
                let b = engine.blocked();
                let s = b.split_stats();
                let lens: Vec<usize> = (0..b.n_col_blocks())
                    .map(|j| b.nonempty_rows(j).len())
                    .collect();
                let got = (
                    s.scatter_tasks,
                    s.gather_tasks,
                    s.tasks_split(),
                    s.max_task_nnz(),
                    lens.as_slice(),
                );
                assert_eq!(got, want, "{dataset:?} partition, threads={threads}");
            });
        }
    }
}
