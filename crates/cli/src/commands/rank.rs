//! `mixen rank` — run a link-analysis algorithm and print/save the scores.
//!
//! `--supervised true` (PageRank only) routes the computation through
//! [`mixen_core::RobustRunner`]: an engine that fails to build falls back to
//! the pull baseline, values are health-checked every iteration, and a
//! NaN/Inf/divergence fault exits with code 1 and a typed error. All other
//! algorithm/engine combinations get a final non-finite score scan.
//!
//! Durability (all supervised-only):
//!
//! * `--checkpoint PATH [--checkpoint-every N]` snapshots the value vector
//!   atomically every N iterations (`CKPT1`, see `mixen_graph::ckpt`).
//! * `--resume true` warm-starts from that snapshot and continues to
//!   `--iters` total iterations; at a fixed `--threads` the scores are
//!   bit-identical to an uninterrupted run. A snapshot already past
//!   `--iters` is a runtime error (exit 1) naming both counts.
//! * `--deadline-ms N` stops the run before the next iteration once the
//!   wall-clock budget expires — exit code 3, with a final checkpoint when
//!   `--checkpoint` is set, so a scheduler can resume instead of restart.
//!
//! `--metrics-json PATH` (supervised only) writes the full machine-readable
//! [`mixen_core::RunReport`] — phase timings, counters, the fallback — as
//! pretty-printed JSON. The file is written on failed runs too, so a faulted
//! run still leaves its diagnostic trail behind.

use std::io::Write;
use std::path::PathBuf;
use std::time::Duration;

use crate::args::Args;
use crate::commands::{build_engine, load_graph, parse_bin_encoding, parse_damping, parse_reorder};
use crate::error::CliError;
use mixen_algos::{
    collaborative_filtering, hits, indegree, pagerank, pagerank_fingerprint_extra,
    pagerank_supervised, pagerank_supervised_resume, salsa, CfOpts, PageRankOpts,
};
use mixen_core::{DegradationEvent, EngineUsed, MixenOpts, RobustRunner, RunReport, RunnerOpts};
use mixen_graph::GraphError;

/// Writes a supervised run's report as pretty-printed JSON.
fn write_metrics_json(path: &str, report: &RunReport) -> Result<(), CliError> {
    std::fs::write(path, report.to_json().render_pretty())
        .map_err(|e| CliError::runtime(format!("cannot write metrics to '{path}': {e}")))?;
    eprintln!("wrote metrics to {path}");
    Ok(())
}

/// Flags this subcommand accepts; anything else is a usage error.
pub const FLAGS: &[&str] = &[
    "algo",
    "engine",
    "iters",
    "top",
    "out",
    "damping",
    "supervised",
    "metrics-json",
    "threads",
    "affinity",
    "reorder",
    "bin-encoding",
    "checkpoint",
    "checkpoint-every",
    "resume",
    "deadline-ms",
];

pub fn run(args: &Args) -> Result<(), CliError> {
    args.expect_only(FLAGS)?;
    let path = args.positional(0, "graph.mxg")?;
    let damping = parse_damping(args)?;
    let g = load_graph(path)?;
    let iters: usize = args.opt_or("iters", 20)?;
    let top: usize = args.opt_or("top", 10)?;
    let algo = args.opt("algo").unwrap_or("pagerank");
    let supervised: bool = args.opt_or("supervised", false)?;
    let metrics_json = args.opt("metrics-json");
    if supervised && algo != "pagerank" {
        return Err(CliError::usage(format!(
            "--supervised only applies to --algo pagerank, not '{algo}'"
        )));
    }
    if supervised && args.opt("engine").is_some_and(|e| e != "mixen") {
        return Err(CliError::usage(
            "--supervised runs on the mixen engine; drop --engine",
        ));
    }
    if metrics_json.is_some() && !supervised {
        return Err(CliError::usage(
            "--metrics-json requires --supervised true (the report is produced by the supervised runner)",
        ));
    }
    let reorder = parse_reorder(args)?;
    let bin_encoding = parse_bin_encoding(args)?;
    let checkpoint = args.opt("checkpoint").map(PathBuf::from);
    let resume: bool = args.opt_or("resume", false)?;
    let deadline_ms: Option<u64> = args.opt_parse("deadline-ms")?;
    if !supervised {
        for flag in ["checkpoint", "checkpoint-every", "resume", "deadline-ms"] {
            if args.opt(flag).is_some() {
                return Err(CliError::usage(format!(
                    "--{flag} requires --supervised true (it is a supervised-runner feature)"
                )));
            }
        }
    }
    if resume && checkpoint.is_none() {
        return Err(CliError::usage(
            "--resume true requires --checkpoint PATH (the snapshot to warm-start from)",
        ));
    }

    let (label, scores): (&str, Vec<f32>) = if supervised {
        let pr_opts = PageRankOpts { damping };
        let runner_opts = RunnerOpts {
            checkpoint_path: checkpoint,
            checkpoint_every: args.opt_or("checkpoint-every", 5usize)?.max(1),
            deadline: deadline_ms.map(Duration::from_millis),
            fingerprint_extra: pagerank_fingerprint_extra(&pr_opts),
            mixen: {
                let mut m = MixenOpts::default();
                // `auto` resolves against the loaded graph before the
                // runner builds its engine, so the fingerprint (which
                // folds the policy id) stays stable across resumes.
                if let Some(choice) = reorder {
                    m.ordering = choice.resolve(&g);
                }
                // Folded into the fingerprint too: resuming under a
                // different stream encoding changes the numerics.
                if let Some(enc) = bin_encoding {
                    m.bin_encoding = enc;
                }
                m
            },
        };
        let runner = RobustRunner::new(runner_opts);
        let result = if resume {
            pagerank_supervised_resume(&g, &runner, pr_opts, iters)
        } else {
            pagerank_supervised(&g, &runner, pr_opts, iters)
        };
        let (scores, report) = match result {
            Ok(ok) => ok,
            Err(f) => {
                // A faulted run still leaves its report behind.
                if let Some(path) = metrics_json {
                    write_metrics_json(path, &f.report)?;
                }
                let msg = format!(
                    "supervised pagerank failed at iteration {}: {}",
                    f.report.iterations, f.error
                );
                return Err(if matches!(f.error, GraphError::Deadline { .. }) {
                    CliError::deadline(msg)
                } else {
                    CliError::runtime(msg)
                });
            }
        };
        if let Some(path) = metrics_json {
            write_metrics_json(path, &report)?;
        }
        for DegradationEvent::EngineFallback { reason } in &report.degradations {
            eprintln!("warning: degraded to pull baseline: {reason}");
        }
        let engine_name = match report.engine {
            EngineUsed::Mixen => "mixen",
            EngineUsed::PullFallback => "pull-fallback",
        };
        eprintln!(
            "supervised: engine {engine_name}, {} iterations, residual {:.3e}",
            report.iterations, report.residual
        );
        let ckpts = report.metrics.get("checkpoints_written");
        if ckpts > 0 || report.metrics.get("resumes") > 0 {
            eprintln!(
                "durability: {ckpts} checkpoint(s) written ({} bytes), resumed {} time(s)",
                report.metrics.get("checkpoint_bytes"),
                report.metrics.get("resumes")
            );
        }
        ("pagerank", scores)
    } else {
        let engine = build_engine(args.opt("engine"), reorder, bin_encoding, &g)?;
        match algo {
            "indegree" => ("indegree", indegree(&engine)),
            "pagerank" => (
                "pagerank",
                pagerank(&g, &engine, PageRankOpts { damping }, iters),
            ),
            "hits" => {
                let rev = g.reversed();
                let engine_rev = build_engine(args.opt("engine"), reorder, bin_encoding, &rev)?;
                (
                    "hits-authority",
                    hits(g.n(), &engine, &engine_rev, iters).authority,
                )
            }
            "salsa" => {
                let rev = g.reversed();
                let engine_rev = build_engine(args.opt("engine"), reorder, bin_encoding, &rev)?;
                (
                    "salsa-authority",
                    salsa(&g, &engine, &engine_rev, iters).authority,
                )
            }
            "cf" => {
                let vecs = collaborative_filtering(&g, &engine, CfOpts { blend: 0.5, iters });
                // Report the L2 norm of each latent vector as a scalar score.
                (
                    "cf-norm",
                    vecs.iter()
                        .map(|v| v.iter().map(|x| x * x).sum::<f32>().sqrt())
                        .collect(),
                )
            }
            other => return Err(CliError::usage(format!("unknown algorithm '{other}'"))),
        }
    };

    if let Some(bad) = scores.iter().position(|s| !s.is_finite()) {
        return Err(CliError::runtime(format!(
            "{label} produced a non-finite score at node {bad} — refusing to report"
        )));
    }

    if let Some(out) = args.opt("out") {
        let mut w = std::io::BufWriter::new(
            std::fs::File::create(out)
                .map_err(|e| CliError::runtime(format!("cannot create '{out}': {e}")))?,
        );
        writeln!(w, "# node\t{label}").map_err(|e| CliError::runtime(e.to_string()))?;
        for (v, s) in scores.iter().enumerate() {
            writeln!(w, "{v}\t{s}").map_err(|e| CliError::runtime(e.to_string()))?;
        }
        println!("wrote {} scores to {out}", scores.len());
    }

    // The shared top-k: partial selection, NaN-last — the same ordering the
    // serving layer exposes (a poisoned score can no longer claim rank 1).
    let ranked = mixen_algos::top_k(&scores, top);
    println!("top {top} nodes by {label}:");
    for &v in &ranked {
        println!("  {v:>10}  {s:.6}", s = scores[v]);
    }
    Ok(())
}
