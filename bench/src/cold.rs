//! One cold round in a process of its own.
//!
//! Time from file to ranks depends on what the process did before — the
//! allocator's free lists and thresholds, which pages are already mapped —
//! so rounds repeated inside one process drift apart (filter build on
//! `pr-weibo`: 0.02–0.11 s from one round to the next). A user's cold run
//! is a fresh process, and that is what each round measures: the measuring
//! process starts `e2e --cold`, which loads, builds, ranks, prints its
//! timings (and, when staged, its spans) and exits.

use std::path::Path;
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

use mixen_algos::top_k;
use mixen_core::{BlockedSubgraph, FilteredGraph, Metrics, MixenEngine, MixenOpts};
use mixen_graph::io;

use crate::algo::{run_to_ranks, TOP};
use crate::catalogue::Workload;
use crate::measure::{pin_lanes, secs, unpinned};
use crate::spans::{Span, Tracer};
use crate::staged::{self, Stages};
use crate::{host, serve, verify};

/// What one cold round reports back.
pub struct ColdRound {
    pub setup_s: f64,
    pub total_s: f64,
    /// `VmHWM` of the round's process when its ranks were out, MB.
    pub peak_rss_mb: f64,
    /// Iterations to ranks and a digest of every output bit (0 for a serve
    /// workload, whose first ranks are checked by the round itself).
    pub iters: usize,
    pub digest: u64,
    /// The round's own check: first ranks well-formed (serve), staged output
    /// bit-identical to the engine's (staged).
    pub ok: bool,
    /// Spans of a staged round, on the child's clock.
    pub spans: Vec<Span>,
}

/// The child: runs the round and prints `cold <setup_s> <total_s>
/// <peak_rss_mb> <iters> <digest> <ok>`, then one `span <parent> <name>
/// <start_s> <end_s>` line per span.
pub fn run(w: &Workload, path: &Path, lanes: usize, staged: bool) -> Result<(), String> {
    pin_lanes(lanes)?;
    let load = || io::load(path).map_err(|e| format!("{}: {e}", path.display()));
    let opts = MixenOpts::default();
    let mut tr = Tracer::new(w.name);
    let t0 = Instant::now();
    let (setup_s, total_s, iters, digest, ok) = if staged {
        let root = tr.enter("cold");
        let g = tr.span("graph.io.load", load)?;
        let filtered = tr.span("core.filter.build", || {
            FilteredGraph::with_ordering(&g, opts.ordering)
        });
        let blocked = tr.span("core.block.build", || {
            BlockedSubgraph::with_hub_domain(filtered.reg_csr(), &opts, lanes, filtered.num_hub())
        });
        let setup_s = secs(t0);
        let metrics = Metrics::default();
        let st = Stages {
            filtered: &filtered,
            blocked: &blocked,
            opts,
            metrics: &metrics,
        };
        let plan = staged::to_ranks_plan(w.algo, &g);
        let (out, stats) = staged::run_algo(&mut tr, &st, &g, w.algo, plan);
        let top = tr.span("algos.topk", || top_k(&out.scores(), TOP));
        let total_s = secs(t0);
        tr.exit(root);
        std::hint::black_box(top);
        // Untimed: the staged values must be the engine's, bit for bit.
        let (ranks, iters) = run_to_ranks(w.algo, &g, &MixenEngine::new(&g, opts));
        let same = stats.iters == iters && verify::bit_identical(&out, &ranks);
        (setup_s, total_s, stats.iters, verify::digest(&out), same)
    } else if w.serve {
        // A server's threads are not pool lanes.
        unpinned(|| -> Result<_, String> {
            let g = Arc::new(load()?);
            let t1 = Instant::now();
            let server = serve::start(&g, w.refresh)?;
            let setup_s = secs(t1);
            let first = serve::first_ranks(server.addr());
            let total_s = secs(t0);
            server.shutdown_and_join();
            if let Err(e) = &first {
                eprintln!("cold round: {e}");
            }
            Ok((setup_s, total_s, 0, 0, first.is_ok()))
        })?
    } else {
        let g = load()?;
        let engine = MixenEngine::new(&g, opts);
        let setup_s = secs(t0);
        let (out, iters) = run_to_ranks(w.algo, &g, &engine);
        let top = top_k(&out.scores(), TOP);
        let total_s = secs(t0);
        let ok = top.len() == TOP.min(g.n());
        (setup_s, total_s, iters, verify::digest(&out), ok)
    };
    let rss = host::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    println!(
        "cold {setup_s} {total_s} {rss} {iters} {digest} {}",
        u8::from(ok)
    );
    for s in tr.spans() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        println!("span {parent} {} {} {}", s.name, s.start, s.end);
    }
    Ok(())
}

/// The parent: starts one cold round of `w` on the graph in `dir` and
/// reads its report.
pub fn spawn(w: &Workload, dir: &Path, staged: bool) -> Result<ColdRound, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut round = Command::new(exe);
    round
        .env_remove(crate::RETAIN_ENV.0)
        .args([
            "--cold",
            w.name,
            "--trace",
            if staged { "1" } else { "0" },
            "--dir",
        ])
        .arg(dir);
    // A child inherits the CPU mask of the thread that starts it.
    let out = unpinned(|| round.output()).map_err(|e| format!("cannot start a cold round: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "cold round ended with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    parse(&String::from_utf8_lossy(&out.stdout)).ok_or_else(|| "malformed cold-round report".into())
}

fn parse(text: &str) -> Option<ColdRound> {
    let mut round = None;
    let mut spans = Vec::new();
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            ["cold", setup, total, rss, iters, digest, ok] => {
                round = Some(ColdRound {
                    setup_s: setup.parse().ok()?,
                    total_s: total.parse().ok()?,
                    peak_rss_mb: rss.parse().ok()?,
                    iters: iters.parse().ok()?,
                    digest: digest.parse().ok()?,
                    ok: *ok == "1",
                    spans: Vec::new(),
                });
            }
            ["span", parent, name, start, end] => spans.push(Span {
                name: crate::spans::staged_name(name)?,
                start: start.parse().ok()?,
                end: end.parse().ok()?,
                parent: match *parent {
                    "-" => None,
                    p => Some(p.parse().ok()?),
                },
            }),
            _ => return None,
        }
    }
    round.map(|r| ColdRound { spans, ..r })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_lines_parse_back() {
        let text = "cold 0.25 0.5 77.5 29 12345678901234567890 1\n\
                    span - cold 0 0.5\n\
                    span 0 graph.io.load 0.001 0.2\n";
        let r = parse(text).unwrap();
        assert_eq!((r.setup_s, r.total_s, r.iters, r.ok), (0.25, 0.5, 29, true));
        assert_eq!(r.peak_rss_mb, 77.5);
        assert_eq!(r.digest, 12_345_678_901_234_567_890);
        assert_eq!(r.spans.len(), 2);
        assert_eq!(
            r.spans[1],
            Span {
                name: "graph.io.load",
                start: 0.001,
                end: 0.2,
                parent: Some(0)
            }
        );
        assert!(parse("").is_none());
        assert!(parse("cold 1 2 3 4\n").is_none());
        assert!(parse("cold 1 2 3 4 5 1\nspan - not.a.layer 0 1\n").is_none());
    }
}
