//! Kernel microbenchmarks and perf-regression baseline (EXPERIMENTS.md
//! "Kernel microbenchmarks" protocol).
//!
//! A/B-compares the bandwidth-tuned blocked data path against the naive
//! walk on the *same* filtered regular subgraph. Both variants run the
//! identical kernel code in `mixen_core::scga`; they differ only in the
//! partition metadata the kernels iterate:
//!
//! * **naive** — `load_balance`, `gather_balance` and `skip_empty_blocks`
//!   all off: one fixed-height task per block-row, one task per
//!   block-column, skip lists that enumerate *every* block.
//! * **tuned** — `MixenOpts::default()`: §4.2 nnz-proportional scatter-row
//!   splits and gather-column chunks, nonempty-block skip lists.
//!
//! The inner loops (4-wide unroll, one-entry prefetch look-ahead) are
//! constants of `scga.rs`, the same on both sides.
//!
//! Per dataset and kernel the table reports naive and tuned seconds per
//! call, the ratio, and the achieved bin bandwidth in GB/s (streamed bin
//! bytes over kernel seconds; blank for BFS, which streams no value bins).
//! A second table sweeps the compressed bin encodings (`f16`, `q16`) on
//! the tuned partition, reporting streamed bytes, the reduction vs `f32`,
//! and the measured rank agreement against the lossless run — checked
//! against the Scatter-time accuracy budget. The JSON sidecar
//! (`results/kernels_small.json`) is the committed regression baseline
//! that CI parses for schema drift. The `identical` flag asserts the two
//! variants produced bit-for-bit equal SpMV outputs — scheduling changes
//! must never leak into the numerics.

use std::sync::atomic::{AtomicI32, Ordering};

use mixen_bench::{geomean, time_per_iter, timed, BenchOpts};
use mixen_core::bins::{DynamicBins, ACCURACY_BUDGET};
use mixen_core::{scga, BinEncoding, BlockedSubgraph, FilteredGraph, Json, Metrics, MixenOpts};

/// Kernels measured per variant, in report order.
const KERNELS: [&str; 4] = ["scatter", "gather", "spmv_round", "bfs_dense_level"];

/// Paired timing rounds per kernel; the per-variant figure is the minimum
/// across rounds (see [`measure_pair`]).
const ROUNDS: usize = 8;

/// Floor on each timed window. A single kernel call at small scale is
/// microseconds — far below scheduler jitter on a quota-throttled host —
/// so the rep count per round is scaled up until one window is at least
/// this long.
const MIN_WINDOW_SECONDS: f64 = 5e-3;

/// Upper bound on the calibrated rep count, so a degenerate (near-empty)
/// kernel cannot spin the bench for seconds per round.
const MAX_REPS: usize = 200_000;

/// Seconds per call for each entry of [`KERNELS`], plus the final SpMV
/// output used for the cross-variant identity check.
struct Measured {
    seconds: [f64; KERNELS.len()],
    spmv_out: Vec<f32>,
}

/// One variant's working set. The input vector is a fixed deterministic
/// ramp so both variants stream identical values.
struct VariantState<'b> {
    blocked: &'b BlockedSubgraph,
    x: Vec<f32>,
    bins: DynamicBins<f32>,
    y: Vec<f32>,
    depth: Vec<AtomicI32>,
}

impl<'b> VariantState<'b> {
    fn new(blocked: &'b BlockedSubgraph) -> Self {
        let r = blocked.r();
        Self {
            blocked,
            x: (0..r)
                .map(|i| (i as f32).mul_add(1e-3, 1.0).sin())
                .collect(),
            bins: DynamicBins::new(blocked),
            y: vec![0.0f32; r],
            depth: (0..r).map(|_| AtomicI32::new(0)).collect(),
        }
    }

    /// Runs `n` calls of kernel `k` (index into [`KERNELS`]).
    fn run(&mut self, k: usize, n: usize) {
        for _ in 0..n {
            match k {
                0 => scga::scatter(self.blocked, &mut self.x, &mut self.bins, None),
                1 => {
                    self.y.fill(0.0);
                    scga::gather(self.blocked, &self.bins, &mut self.y, |_, s| s);
                }
                2 => {
                    scga::scatter(self.blocked, &mut self.x, &mut self.bins, None);
                    self.y.fill(0.0);
                    scga::gather(self.blocked, &self.bins, &mut self.y, |_, s| s);
                }
                _ => {
                    // Reset claims so every call expands the same full
                    // frontier; the O(r) reset is identical across variants.
                    for d in &self.depth {
                        d.store(0, Ordering::Relaxed);
                    }
                    std::hint::black_box(scga::bfs_level_dense(self.blocked, &self.depth, 0).len());
                }
            }
        }
    }

    fn spmv_out(&mut self) -> Vec<f32> {
        self.run(2, 1);
        self.y.clone()
    }
}

/// Times every kernel over both partitions, interleaved: per kernel, one
/// untimed warm-up call per variant, then [`ROUNDS`] paired timing
/// rounds, keeping each variant's minimum. Measuring all of A then all of
/// B is systematically unfair on a throttled shared host (whichever
/// variant runs second absorbs the CPU-quota backoff) — and so is strict
/// A-B alternation, where every B window still follows an A burn. The
/// rounds therefore swap order (A-B, B-A, ...) so residual throttle bias
/// lands on both variants equally, and min-of-rounds drops the windows
/// that paid it.
fn measure_pair(
    naive: &BlockedSubgraph,
    tuned: &BlockedSubgraph,
    iters: usize,
) -> (Measured, Measured) {
    let mut a = VariantState::new(naive);
    let mut b = VariantState::new(tuned);
    let mut sa = [f64::INFINITY; KERNELS.len()];
    let mut sb = [f64::INFINITY; KERNELS.len()];
    // Warm both variants and calibrate a rep count per kernel: `iters`
    // calls of a microsecond kernel is a window far below timer and
    // scheduler granularity, and ratios measured there are noise, not
    // bandwidth.
    let mut reps = [1usize; KERNELS.len()];
    for (k, r) in reps.iter_mut().enumerate() {
        a.run(k, 1);
        b.run(k, 1);
        let (_, probe) = timed(|| a.run(k, 1));
        *r = iters
            .max((MIN_WINDOW_SECONDS / probe.max(1e-9)).ceil() as usize)
            .min(MAX_REPS);
    }
    // Rounds are outermost so one kernel's windows are spread across the
    // whole graph's measurement instead of sitting back-to-back inside a
    // single CPU-quota throttle burst; min-of-rounds then only needs one
    // clean window per variant, not a clean stretch.
    for round in 0..ROUNDS {
        for k in 0..KERNELS.len() {
            if round % 2 == 0 {
                sa[k] = sa[k].min(time_per_iter(reps[k], |n| a.run(k, n)));
                sb[k] = sb[k].min(time_per_iter(reps[k], |n| b.run(k, n)));
            } else {
                sb[k] = sb[k].min(time_per_iter(reps[k], |n| b.run(k, n)));
                sa[k] = sa[k].min(time_per_iter(reps[k], |n| a.run(k, n)));
            }
        }
    }
    let base = Measured {
        seconds: sa,
        spmv_out: a.spmv_out(),
    };
    let best = Measured {
        seconds: sb,
        spmv_out: b.spmv_out(),
    };
    (base, best)
}

/// Bin bytes one call of kernel `k` streams: Scatter writes every dynamic
/// slot once, Gather reads every slot once, a SpMV round does both. BFS
/// propagates levels without touching the value bins at all.
fn bin_bytes_per_call(k: usize, slots: usize, bytes_per_slot: usize) -> Option<u64> {
    match k {
        0 | 1 => Some((slots * bytes_per_slot) as u64),
        2 => Some((slots * bytes_per_slot * 2) as u64),
        _ => None,
    }
}

/// One compressed-encoding measurement on the tuned partition: streamed
/// bin bytes (from the obs counters), the byte reduction vs `f32`, and the
/// rank agreement of a SpMV round against the lossless output.
struct EncodingRun {
    encoding: BinEncoding,
    bin_bytes_streamed: u64,
    bytes_ratio_vs_f32: f64,
    rank_agreement: f64,
    within_budget: bool,
}

/// Sweeps every [`BinEncoding`] over one scatter+gather round on the tuned
/// partition. `f32` runs first and anchors both the byte baseline and the
/// agreement reference.
fn sweep_encodings(tuned: &BlockedSubgraph) -> Vec<EncodingRun> {
    let r = tuned.r();
    let x_init: Vec<f32> = (0..r).map(|i| (i as f32).mul_add(1e-3, 1.0).sin()).collect();
    let mut f32_bytes = 0u64;
    let mut y_ref: Vec<f32> = Vec::new();
    let mut runs = Vec::new();
    for enc in BinEncoding::ALL {
        let metrics = Metrics::default();
        let mut x = x_init.clone();
        let mut bins: DynamicBins<f32> = DynamicBins::with_encoding(tuned, enc);
        let mut y = vec![0.0f32; r];
        let scattered =
            scga::try_scatter_with(tuned, &mut x, &mut bins, None, Some(&metrics)).is_ok();
        let (bytes, agreement) = if scattered {
            scga::gather(tuned, &bins, &mut y, |_, s| s);
            let bytes = metrics.snapshot().get("bin_bytes_streamed");
            if enc == BinEncoding::F32 {
                f32_bytes = bytes;
                y_ref = y.clone();
            }
            let max_ref = y_ref.iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1e-30);
            let max_err = y
                .iter()
                .zip(&y_ref)
                .fold(0.0f32, |m, (a, b)| m.max((a - b).abs()));
            (bytes, f64::from(max_err / max_ref))
        } else {
            // The accuracy gate rejected this encoding for this stream —
            // report it as out of budget with no bytes moved.
            (0, f64::INFINITY)
        };
        runs.push(EncodingRun {
            encoding: enc,
            bin_bytes_streamed: bytes,
            bytes_ratio_vs_f32: f32_bytes as f64 / (bytes as f64).max(1.0),
            rank_agreement: agreement,
            within_budget: scattered && agreement <= ACCURACY_BUDGET,
        });
    }
    runs
}

fn main() {
    let opts = BenchOpts::from_args();
    let threads = mixen_pool::current_num_threads();
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "Scatter/Gather kernel microbenchmarks: naive full-grid walk vs \
         nnz-balanced + skip-list path ({} iterations, {threads} lanes, \
         host parallelism {host})",
        opts.iters
    );
    println!(
        "{:>8} {:>15}  {:>11} {:>11} {:>7} {:>10} {:>10}",
        "graph", "kernel", "naive_s", "tuned_s", "ratio", "naive_gbps", "tuned_gbps"
    );
    let mut graphs_json: Vec<Json> = Vec::new();
    let mut speedups: Vec<Vec<f64>> = vec![Vec::new(); KERNELS.len()];
    let mut all_identical = true;
    for d in &opts.datasets {
        let g = opts.gen(*d);
        // `--reorder` swaps the relabel policy under both variants, so the
        // A/B stays a pure partition-metadata comparison at any ordering.
        let tuned_opts = MixenOpts {
            ordering: opts.ordering_for(&g),
            ..MixenOpts::default()
        };
        let naive_opts = MixenOpts {
            load_balance: false,
            gather_balance: false,
            skip_empty_blocks: false,
            ..tuned_opts
        };
        let filtered = FilteredGraph::with_ordering(&g, tuned_opts.ordering);
        let naive = BlockedSubgraph::new(filtered.reg_csr(), &naive_opts, threads);
        let tuned = BlockedSubgraph::new(filtered.reg_csr(), &tuned_opts, threads);
        let (base, best) = measure_pair(&naive, &tuned, opts.iters);
        let identical = base.spmv_out == best.spmv_out;
        all_identical &= identical;
        let stats = tuned.split_stats();
        // Both timed variants stream full-width (f32) bins; the compressed
        // encodings are swept separately below.
        let slots = tuned.total_msg_slots();
        let mut kernels_json: Vec<Json> = Vec::new();
        for (k, name) in KERNELS.iter().enumerate() {
            let ratio = base.seconds[k] / best.seconds[k].max(1e-12);
            speedups[k].push(ratio);
            let bytes = bin_bytes_per_call(k, slots, std::mem::size_of::<f32>());
            let gbps = |secs: f64| bytes.map(|b| b as f64 / secs.max(1e-12) / 1e9);
            let fmt = |g: Option<f64>| g.map_or("-".into(), |g| format!("{g:.2}"));
            println!(
                "{:>8} {:>15}  {:>11.6} {:>11.6} {:>6.2}x {:>10} {:>10}",
                d.name(),
                name,
                base.seconds[k],
                best.seconds[k],
                ratio,
                fmt(gbps(base.seconds[k])),
                fmt(gbps(best.seconds[k])),
            );
            let jnum = |g: Option<f64>| g.map_or(Json::Null, Json::Num);
            kernels_json.push(Json::Obj(vec![
                ("kernel".into(), Json::Str((*name).into())),
                ("naive_seconds".into(), Json::Num(base.seconds[k])),
                ("tuned_seconds".into(), Json::Num(best.seconds[k])),
                ("speedup".into(), Json::Num(ratio)),
                (
                    "bin_bytes_per_call".into(),
                    bytes.map_or(Json::Null, Json::from_u64),
                ),
                ("naive_gbps".into(), jnum(gbps(base.seconds[k]))),
                ("tuned_gbps".into(), jnum(gbps(best.seconds[k]))),
            ]));
        }
        if !identical {
            eprintln!(
                "warning: {}: tuned SpMV output differs from naive — \
                 the scheduling change leaked into the numerics",
                d.name()
            );
        }
        let enc_runs = sweep_encodings(&tuned);
        let encodings_json: Vec<Json> = enc_runs
            .iter()
            .map(|e| {
                Json::Obj(vec![
                    ("encoding".into(), Json::Str(e.encoding.name().into())),
                    (
                        "bin_bytes_streamed".into(),
                        Json::from_u64(e.bin_bytes_streamed),
                    ),
                    ("bytes_ratio_vs_f32".into(), Json::Num(e.bytes_ratio_vs_f32)),
                    ("rank_agreement".into(), Json::Num(e.rank_agreement)),
                    ("within_budget".into(), Json::Bool(e.within_budget)),
                ])
            })
            .collect();
        for e in &enc_runs {
            println!(
                "{:>8} {:>15}  {:>11} {:>11.2} {:>11.3e} {:>7}",
                d.name(),
                format!("bins[{}]", e.encoding.name()),
                e.bin_bytes_streamed,
                e.bytes_ratio_vs_f32,
                e.rank_agreement,
                if e.within_budget { "ok" } else { "OVER" },
            );
        }
        graphs_json.push(Json::Obj(vec![
            ("graph".into(), Json::Str(d.name().into())),
            (
                "ordering".into(),
                Json::Str(tuned_opts.ordering.name().into()),
            ),
            ("n".into(), Json::from_u64(g.n() as u64)),
            ("m".into(), Json::from_u64(g.m() as u64)),
            ("regular_nnz".into(), Json::from_u64(tuned.nnz() as u64)),
            (
                "partition".into(),
                Json::Obj(vec![
                    (
                        "scatter_tasks".into(),
                        Json::from_u64(stats.scatter_tasks as u64),
                    ),
                    (
                        "gather_tasks".into(),
                        Json::from_u64(stats.gather_tasks as u64),
                    ),
                    ("tasks_split".into(), Json::from_u64(stats.tasks_split())),
                    ("max_task_nnz".into(), Json::from_u64(stats.max_task_nnz())),
                ]),
            ),
            ("kernels".into(), Json::Arr(kernels_json)),
            ("encodings".into(), Json::Arr(encodings_json)),
            ("identical".into(), Json::Bool(identical)),
        ]));
    }
    print!("{:>8} {:>15}  {:>11} {:>11} ", "geomean", "", "", "");
    for s in &speedups {
        print!("{:>6.2}x ", geomean(s));
    }
    println!();
    println!(
        "\n(ratio = naive seconds / tuned seconds per kernel call; both\n\
         variants run identical kernel code over the same filtered subgraph\n\
         and differ only in partition metadata, unroll width and prefetch\n\
         distance. GB/s = streamed bin bytes / kernel seconds. bins[enc]\n\
         rows: streamed bytes, reduction vs f32, and rank agreement of one\n\
         SpMV round against the lossless output, checked against the 1e-3\n\
         accuracy budget.)"
    );
    let geomean_json = Json::Obj(
        KERNELS
            .iter()
            .zip(&speedups)
            .map(|(name, s)| ((*name).into(), Json::Num(geomean(s))))
            .collect(),
    );
    opts.write_json_sidecar(
        "kernels",
        vec![
            ("threads".into(), Json::from_u64(threads as u64)),
            ("host_parallelism".into(), Json::from_u64(host as u64)),
            ("graphs".into(), Json::Arr(graphs_json)),
            ("geomean_speedup".into(), geomean_json),
        ],
    );
    if !all_identical {
        std::process::exit(1);
    }
}
