//! Reordering shoot-out (EXPERIMENTS.md "Reordering shoot-out" protocol).
//!
//! Runs every [`RegularOrdering`] policy over three graph profiles —
//! *urand* (uniform), *rmat* (skewed synthetic) and *wiki* (web-like) by
//! default — and reports, per (graph, policy):
//!
//! * the one-off relabel cost of the pass composition,
//! * simulated L2/LLC miss ratios and DRAM bytes for one steady-state
//!   Main-Phase iteration (the cachesim replays the real blocked
//!   structure, so the differences are structural),
//! * measured PageRank seconds per iteration and the speedup against the
//!   `original` (identity relabel) baseline,
//! * the pinned hub-domain block side the GRASP-style sizing chose,
//!
//! and marks the row the §5 performance model's auto-selector
//! (`PerfModel::preferred_ordering`) would pick. The JSON sidecar
//! (`results/reorder_small.json`) is the committed baseline CI checks for
//! schema drift. Ranks are cross-checked across policies: every relabel
//! must produce the same scores in original ID space (within a float
//! tolerance — summation order changes with the permutation).

use mixen_algos::{pagerank, PageRankOpts};
use mixen_bench::{geomean, time_per_iter, BenchOpts};
use mixen_cachesim::{trace_mixen, CacheConfig};
use mixen_core::{Json, MixenEngine, MixenOpts, PerfModel, RegularOrdering};
use mixen_graph::{Classification, Dataset};

/// Timing rounds per policy; the reported figure is the minimum, which a
/// throttled or preempted round cannot lower.
const ROUNDS: usize = 3;

/// Cross-policy rank agreement tolerance. The permutation changes the
/// float summation order, so bit-for-bit equality only holds *within* a
/// policy (the determinism test pins that); across policies the scores
/// must agree to a small absolute tolerance.
const RANK_TOL: f32 = 1e-4;

fn main() {
    let mut opts = BenchOpts::from_args();
    if opts.datasets.len() == Dataset::ALL.len() {
        // The three profiles of the shoot-out: uniform / skewed / web-like.
        opts.datasets = vec![Dataset::Urand, Dataset::Rmat, Dataset::Wiki];
    }
    let threads = mixen_pool::current_num_threads();
    let cfg = CacheConfig::scaled_paper(opts.divisor());
    println!(
        "Reordering shoot-out: relabel cost, simulated Main-Phase cache \
         behaviour and measured PageRank time per policy ({} iterations, \
         {threads} lanes)",
        opts.iters
    );
    println!(
        "{:>8} {:>12} {:>10} {:>8} {:>8} {:>9} {:>11} {:>8} {:>5}",
        "graph",
        "policy",
        "relabel_s",
        "l2miss",
        "llcmiss",
        "dram_MB",
        "pr_s/iter",
        "speedup",
        "auto"
    );
    let mut graphs_json: Vec<Json> = Vec::new();
    let mut agree = true;
    let mut auto_speedups: Vec<f64> = Vec::new();
    for d in &opts.datasets {
        let g = opts.gen(*d);
        let class = Classification::of(&g);
        let model = PerfModel::from_classification(&g, &class, MixenOpts::default().block_side);
        let auto_pick = model.preferred_ordering();
        // Build one engine per policy up front so the timing loop touches
        // nothing but the iteration itself.
        let engines: Vec<(RegularOrdering, MixenEngine)> = RegularOrdering::ALL
            .into_iter()
            .map(|ordering| {
                let e = MixenEngine::new(
                    &g,
                    MixenOpts {
                        ordering,
                        ..MixenOpts::default()
                    },
                );
                (ordering, e)
            })
            .collect();
        // Interleaved timing: one pass over all policies per round, with
        // the order reversed on odd rounds so host throttle bias cancels.
        let mut secs = vec![f64::INFINITY; engines.len()];
        for (i, (_, e)) in engines.iter().enumerate() {
            // Warm-up.
            std::hint::black_box(pagerank(&g, e, PageRankOpts::default(), 1));
            let _ = i;
        }
        for round in 0..ROUNDS {
            let order: Vec<usize> = if round % 2 == 0 {
                (0..engines.len()).collect()
            } else {
                (0..engines.len()).rev().collect()
            };
            for i in order {
                let e = &engines[i].1;
                let s = time_per_iter(opts.iters, |n| {
                    std::hint::black_box(pagerank(&g, e, PageRankOpts::default(), n));
                });
                secs[i] = secs[i].min(s);
            }
        }
        // Rank agreement: `pagerank` returns scores in original ID space,
        // so every policy must produce (nearly) the same vector.
        let reference = pagerank(&g, &engines[0].1, PageRankOpts::default(), 5);
        let base_secs = secs[0];
        let mut policies_json: Vec<Json> = Vec::new();
        for (i, (ordering, e)) in engines.iter().enumerate() {
            let ranks = pagerank(&g, e, PageRankOpts::default(), 5);
            let max_dev = reference
                .iter()
                .zip(&ranks)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            if max_dev > RANK_TOL {
                agree = false;
                eprintln!(
                    "warning: {}: policy {} deviates from original ranks by {max_dev}",
                    d.name(),
                    ordering.name()
                );
            }
            let report = trace_mixen(e, &cfg);
            let speedup = base_secs / secs[i].max(1e-12);
            let is_auto = *ordering == auto_pick;
            if is_auto {
                auto_speedups.push(speedup);
            }
            println!(
                "{:>8} {:>12} {:>10.6} {:>7.1}% {:>7.1}% {:>9.3} {:>11.6} {:>7.2}x {:>5}",
                d.name(),
                ordering.name(),
                e.filtered().relabel_seconds(),
                report.l2().miss_ratio() * 100.0,
                report.llc().miss_ratio() * 100.0,
                report.dram_bytes() as f64 / 1e6,
                secs[i],
                speedup,
                if is_auto { "*" } else { "" }
            );
            policies_json.push(Json::Obj(vec![
                ("policy".into(), Json::Str(ordering.name().into())),
                (
                    "relabel_seconds".into(),
                    Json::Num(e.filtered().relabel_seconds()),
                ),
                ("l2_miss_ratio".into(), Json::Num(report.l2().miss_ratio())),
                (
                    "llc_miss_ratio".into(),
                    Json::Num(report.llc().miss_ratio()),
                ),
                ("dram_bytes".into(), Json::from_u64(report.dram_bytes())),
                ("pagerank_seconds".into(), Json::Num(secs[i])),
                ("speedup_vs_original".into(), Json::Num(speedup)),
                (
                    "hub_domain_side".into(),
                    Json::from_u64(e.blocked().block_side() as u64),
                ),
                ("auto_pick".into(), Json::Bool(is_auto)),
            ]));
        }
        graphs_json.push(Json::Obj(vec![
            ("graph".into(), Json::Str(d.name().into())),
            ("n".into(), Json::from_u64(g.n() as u64)),
            ("m".into(), Json::from_u64(g.m() as u64)),
            ("alpha".into(), Json::Num(model.alpha)),
            ("beta".into(), Json::Num(model.beta)),
            ("hub_frac".into(), Json::Num(model.hub_frac)),
            ("auto_policy".into(), Json::Str(auto_pick.name().into())),
            ("policies".into(), Json::Arr(policies_json)),
        ]));
    }
    println!(
        "\n(speedup = original seconds / policy seconds for one PageRank\n\
         iteration; '*' marks the policy the §5 model auto-selects from\n\
         (α, β, hub fraction). geomean auto-pick speedup: {:.2}x)",
        geomean(&auto_speedups)
    );
    opts.write_json_sidecar(
        "reorder",
        vec![
            ("threads".into(), Json::from_u64(threads as u64)),
            ("graphs".into(), Json::Arr(graphs_json)),
        ],
    );
    if !agree {
        std::process::exit(1);
    }
}
