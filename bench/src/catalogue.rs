//! The benchmark's vocabulary: the six workloads, the end-to-end metrics
//! with their bounds, and the per-layer metrics with the end-to-end number
//! each is expected to move. `BENCHMARK.json` and `bench/README.md` restate
//! these tables; a test keeps the former in step.

use mixen_graph::Dataset;

/// Which algorithm a workload's batch part runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// PageRank on `f32` values.
    PageRank,
    /// Collaborative filtering on `[f32; 8]` values.
    Cf,
}

/// One named workload. Every workload walks the whole path — file, load,
/// filter, block, iterate, top-k, HTTP response — on its own graph; `serve`
/// says which half gets most of the run's time and defines `setup_s` and
/// `total_s`.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub dataset: Dataset,
    pub algo: Algo,
    /// Serving is the measured subject (most of the run is request load).
    pub serve: bool,
    /// The ranker never converges, so it publishes snapshots for the whole
    /// run beside the reads.
    pub refresh: bool,
    /// Iterations per warm window (`iter_ms` = window ÷ this); Pre and Post
    /// are amortised over it, as in the paper's Table 3.
    pub window_iters: usize,
    /// One line for `BENCHMARK.json` (a test keeps the two in step).
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "pr-pld",
        dataset: Dataset::Pld,
        algo: Algo::PageRank,
        serve: false,
        refresh: false,
        window_iters: 10,
        why: "All four node classes; Gather is most of Main and Main most of the run, so a scga/block change shows here.",
    },
    Workload {
        name: "pr-weibo",
        dataset: Dataset::Weibo,
        algo: Algo::PageRank,
        serve: false,
        refresh: false,
        window_iters: 200,
        why: "99% seeds: load, filter and Pre dominate and an iteration is pool overhead, so it bypasses kernel tuning.",
    },
    Workload {
        name: "pr-urand",
        dataset: Dataset::Urand,
        algo: Algo::PageRank,
        serve: false,
        refresh: false,
        window_iters: 25,
        why: "Non-skewed control: nothing to filter or reorder, so it shows what blocking costs without the paper's premise.",
    },
    Workload {
        name: "cf-pld",
        dataset: Dataset::Pld,
        algo: Algo::Cf,
        serve: false,
        refresh: false,
        window_iters: 4,
        why: "32-byte values push property vectors past L2 and bins toward LLC, so a cache-resident-only or f32-only win shows.",
    },
    Workload {
        name: "serve-steady",
        dataset: Dataset::Wiki,
        algo: Algo::PageRank,
        serve: true,
        refresh: false,
        window_iters: 20,
        why: "Read path alone on a converged snapshot: accept poll, admission, HTTP parse, per-request top-k scan, write.",
    },
    Workload {
        name: "serve-refresh",
        dataset: Dataset::Wiki,
        algo: Algo::PageRank,
        serve: true,
        refresh: true,
        window_iters: 20,
        why: "Writes beside reads: ranking lanes, snapshot publish and request workers contend for the same cores.",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric. `bound` is the share of the old median by which
/// the new one may be worse before the comparator says `worse`. Each is
/// about three times the widest run-to-run spread (inter-quartile distance
/// over ten seeds, as a share of the median) a calm hour showed on any
/// workload of a shared 2-vCPU VM — a busy hour doubles it — and at most
/// the 25% the driver allows; `bench/README.md` has the table.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    /// Listed in `BENCHMARK.json`: measured, and never zero, on every
    /// workload. The others are reported and compared by `e2e` only.
    pub contract: bool,
}

pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", Better::Lower, 0.25, true),
    e2e("total_s", "s", Better::Lower, 0.25, true),
    e2e("iter_ms", "ms", Better::Lower, 0.25, true),
    e2e("speedup_vs_pull", "ratio", Better::Higher, 0.25, true),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.20, true),
    e2e("serve_qps", "1/s", Better::Higher, 0.25, true),
    e2e("serve_p50_ms", "ms", Better::Lower, 0.20, true),
    e2e("serve_p99_ms", "ms", Better::Lower, 0.25, true),
    // Zero while the ranker idles, so it cannot be a contract metric.
    e2e("refresh_iters_per_s", "1/s", Better::Higher, 0.20, false),
    // Zero on a healthy run; the contract carries it as `failed`/`attempted`.
    e2e("failed_share", "fraction", Better::Lower, 0.0, false),
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    contract: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        contract,
    }
}

/// One per-layer metric (`layer.metric`, layer = module name) of the traced
/// run, with the end-to-end metric and workload it is expected to move.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload it is expected to move.
    pub moves: &'static str,
    /// Listed in `BENCHMARK.json`: a finite number on every workload. The
    /// others are reported by `e2e` and kept in the trajectory file only.
    pub contract: bool,
}

const fn lo(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        moves,
        contract: true,
    }
}

const fn hi(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        moves,
        contract: true,
    }
}

const fn e2e_only(m: PerLayer) -> PerLayer {
    PerLayer {
        contract: false,
        ..m
    }
}

const SETUP: &str = "setup_s, total_s: all";
const ITER: &str = "iter_ms, speedup_vs_pull: pr-pld, cf-pld, pr-urand; none on pr-weibo";
const DRIVER: &str = "iter_ms: pr-weibo; refresh_iters_per_s: serve-refresh; none on cf-pld";
const RSS: &str = "peak_rss_mb: all, most on cf-pld";
const TOPK: &str = "serve_p99_ms, serve_qps: serve-*; none on batch total_s";
const FLOOR: &str = "serve_p50_ms: serve-*";
const REFRESH: &str = "refresh_iters_per_s, serve_qps: serve-refresh";
const DESCRIBES: &str = "describes the input; explains the others";
const MODEL: &str = "DRAM-regime prediction beside iter_ms: pr-*, cf-pld";

pub const PER_LAYER: [PerLayer; 87] = [
    lo("graph.io.read_s", "s", SETUP),
    lo("graph.io.read_bytes", "bytes", DESCRIBES),
    hi("graph.io.read_gbps", "GB/s", SETUP),
    lo("graph.io.crc_s", "s", SETUP),
    lo(
        "core.filter.build_s",
        "s",
        "setup_s, total_s: most on pr-pld, pr-weibo",
    ),
    lo("core.filter.relabel_s", "s", "setup_s: pr-pld, pr-weibo"),
    lo("core.filter.alpha", "ratio", DESCRIBES),
    lo("core.filter.beta", "ratio", DESCRIBES),
    lo("core.filter.hub_frac", "ratio", DESCRIBES),
    lo("core.filter.bytes", "bytes", RSS),
    lo(
        "core.reorder.resolve_s",
        "s",
        "none: reported, not used for the run",
    ),
    lo("core.reorder.policy", "id", DESCRIBES),
    lo(
        "core.block.build_s",
        "s",
        "setup_s, total_s: all; about 0 on pr-weibo",
    ),
    lo("core.block.side", "count", ITER),
    lo("core.block.col_blocks", "count", ITER),
    lo("core.block.scatter_tasks", "count", DRIVER),
    lo("core.block.gather_tasks", "count", DRIVER),
    lo("core.block.max_task_nnz", "count", ITER),
    lo("core.block.task_balance", "ratio", ITER),
    lo("core.block.msg_slots", "count", ITER),
    lo(
        "core.bins.pre_s",
        "s",
        "total_s: pr-weibo, pr-pld; none on pr-urand",
    ),
    lo("core.bins.alloc_s", "s", "total_s, iter_ms: cf-pld"),
    lo("core.bins.dyn_bytes", "bytes", RSS),
    lo("core.bins.static_entries", "count", DESCRIBES),
    lo("core.scga.scatter_ms", "ms", ITER),
    lo("core.scga.scatter_p90_ms", "ms", ITER),
    lo("core.scga.gather_ms", "ms", ITER),
    lo("core.scga.gather_p90_ms", "ms", ITER),
    hi("core.scga.scatter_gbps", "GB/s", ITER),
    hi("core.scga.gather_gbps", "GB/s", ITER),
    lo("core.scga.gather_share", "ratio", ITER),
    hi("core.scga.edges_per_s", "1/s", ITER),
    lo("core.scga.edges_scattered", "count", ITER),
    lo("core.scga.edges_gathered", "count", ITER),
    lo("core.scga.bin_bytes_streamed", "bytes", ITER),
    lo("core.engine.build_s", "s", SETUP),
    lo("core.engine.driver_self_ms", "ms", DRIVER),
    lo("core.engine.converge_check_ms", "ms", "total_s: pr-*"),
    lo(
        "core.engine.post_s",
        "s",
        "total_s: pr-pld, serve-* (sinks)",
    ),
    lo("core.engine.iters_to_tol", "count", "total_s: pr-*"),
    lo("core.model.mixen_bytes_iter", "bytes", MODEL),
    lo("core.model.pull_bytes_iter", "bytes", MODEL),
    lo("core.model.error", "ratio", MODEL),
    lo("cachesim.mixen_dram_bytes", "bytes", MODEL),
    lo("cachesim.pull_dram_bytes", "bytes", MODEL),
    lo("cachesim.mixen_llc_miss", "ratio", MODEL),
    hi("pool.lanes", "count", DESCRIBES),
    lo("pool.tasks_per_iter", "count", DRIVER),
    lo("pool.steals_per_iter", "count", DRIVER),
    lo("pool.empty_scope_us", "us", DRIVER),
    lo("pool.t1_iter_ms", "ms", "iter_ms on a one-lane host"),
    hi("pool.s2", "ratio", ITER),
    lo("algos.topk_ms", "ms", TOPK),
    lo("algos.topk10_ms", "ms", TOPK),
    lo("baselines.pull_iter_ms", "ms", "speedup_vs_pull: all"),
    lo(
        "baselines.pull_build_s",
        "s",
        "net time: baselines.payback_per_iter",
    ),
    hi(
        "baselines.payback_per_iter",
        "ratio",
        "net time incl. set-up: pr-*, cf-pld",
    ),
    // Infinite where Mixen is the slower engine (pr-urand), and JSON has no
    // number for that: the contract carries its reciprocal, the line above.
    e2e_only(lo(
        "baselines.break_even_iters",
        "count",
        "net time incl. set-up: pr-*, cf-pld",
    )),
    lo("baselines.ref_max_rel_err", "ratio", "failed_share: all"),
    hi("baselines.top100_overlap", "ratio", "failed_share: all"),
    lo("serve.connect_ms", "ms", FLOOR),
    lo("serve.connect_p99_ms", "ms", "serve_p99_ms: serve-*"),
    lo("serve.ttfb_ms", "ms", FLOOR),
    lo("serve.ttfb_p99_ms", "ms", "serve_p99_ms: serve-*"),
    lo("serve.read_ms", "ms", FLOOR),
    lo("serve.read_p99_ms", "ms", "serve_p99_ms: serve-*"),
    lo("serve.top_p50_ms", "ms", TOPK),
    lo("serve.top_p99_ms", "ms", TOPK),
    lo("serve.score_p50_ms", "ms", FLOOR),
    lo("serve.score_p99_ms", "ms", FLOOR),
    lo("serve.response_bytes", "bytes", DESCRIBES),
    hi("serve.requests_served", "count", "serve_qps: serve-*"),
    lo("serve.requests_rejected", "count", "failed_share: serve-*"),
    lo("serve.request_batches", "count", "serve_qps: serve-*"),
    hi("serve.mean_batch", "ratio", "serve_qps: serve-*"),
    hi("serve.max_batch_size", "count", "serve_p99_ms: serve-*"),
    hi("serve.snapshot_swaps", "count", REFRESH),
    hi("serve.refresh_iters_per_s", "1/s", REFRESH),
    lo("serve.refresh_batch_ms", "ms", REFRESH),
    lo("serve.snap_load_ns", "ns", FLOOR),
    lo("serve.snap_publish_us", "us", REFRESH),
    lo("serve.admission_push_pop_ns", "ns", FLOOR),
    lo(
        "trace.overhead_pct",
        "%",
        "none: cost of the traced run itself",
    ),
    lo(
        "trace.unattributed_setup_s",
        "s",
        "setup_s not explained by the layers",
    ),
    lo(
        "trace.unattributed_total_s",
        "s",
        "total_s not explained by the layers",
    ),
    lo(
        "trace.unattributed_iter_ms",
        "ms",
        "iter_ms not explained by the layers",
    ),
    lo(
        "trace.spans",
        "count",
        "none: spans recorded by the traced run",
    ),
];

const NOT_CONTRACT: &str = " (e2e only, not in BENCHMARK.json)";

/// `e2e --list`: the whole vocabulary, one line each.
pub fn print() {
    for w in &WORKLOADS {
        println!("workload {} ({}): {}", w.name, w.dataset.name(), w.why);
    }
    for m in &END_TO_END {
        println!(
            "end-to-end {} {} {} is better, bound {}%{}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            if m.contract { "" } else { NOT_CONTRACT }
        );
    }
    for m in &PER_LAYER {
        println!(
            "per-layer {} {} {} is better; moves {}{}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves,
            if m.contract { "" } else { NOT_CONTRACT }
        );
    }
}

/// Unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixen_core::Json;
    use std::collections::BTreeSet;

    /// Metric and workload names: 1–64 of `[A-Za-z0-9_.-]`, starting with a
    /// letter or digit.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn name_charset() {
        for ok in ["pr-pld", "core.scga.gather_ms", "p99", "a"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".x", "-x", "a b", "a/b", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }

    /// `BENCHMARK.json` must name exactly what the catalogue (and therefore
    /// the binary) emits. On a mismatch the assertion prints the file the
    /// catalogue expects.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let file = Json::parse(&text).expect("BENCHMARK.json parses");
        let s = |v: &str| Json::Str(v.into());
        let want = Json::Obj(vec![
            ("command".into(), file.get("command").cloned().unwrap()),
            ("paths".into(), Json::Arr(vec![s("bench")])),
            (
                "run_seconds".into(),
                file.get("run_seconds").cloned().unwrap(),
            ),
            (
                "workloads".into(),
                Json::Arr(
                    WORKLOADS
                        .iter()
                        .map(|w| {
                            Json::Obj(vec![("name".into(), s(w.name)), ("why".into(), s(w.why))])
                        })
                        .collect(),
                ),
            ),
            (
                "end_to_end".into(),
                Json::Arr(
                    END_TO_END
                        .iter()
                        .filter(|m| m.contract)
                        .map(|m| {
                            Json::Obj(vec![
                                ("name".into(), s(m.name)),
                                ("unit".into(), s(m.unit)),
                                ("better".into(), s(m.better.as_str())),
                                ("bound".into(), Json::Num(m.bound)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "per_layer".into(),
                Json::Arr(
                    PER_LAYER
                        .iter()
                        .filter(|m| m.contract)
                        .map(|m| {
                            Json::Obj(vec![
                                ("name".into(), s(m.name)),
                                ("unit".into(), s(m.unit)),
                                ("better".into(), s(m.better.as_str())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        assert!(
            file.render() == want.render(),
            "BENCHMARK.json is out of step with bench/src/catalogue.rs; expected:\n{}",
            want.render_pretty()
        );
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.contract && m.unit == "s"));
    }
}
