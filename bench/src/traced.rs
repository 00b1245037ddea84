//! The traced run: a short untraced pass for reference, then the same
//! workload as a staged pipeline with a span around every layer call, a few
//! direct calls into single layers, and a traced request load. Everything
//! `per_layer` comes from here; no end-to-end number does.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use mixen_algos::{top_k, PageRankOpts, PageRankStream};
use mixen_cachesim::{trace_mixen, trace_pull, CacheConfig};
use mixen_core::{Metrics, MixenEngine, MixenOpts, PerfModel, ReorderChoice, SnapCell};
use mixen_graph::{io, Graph};
use mixen_serve::{Admission, ServeOpts};

use crate::algo::{run_fixed, CfTerms, PageRankTerms, TOP};
use crate::catalogue::{Algo, Workload};
use crate::cold;
use crate::measure::{measure, serve_phase, unpinned, Measured, Phases, Warm};
use crate::report::Report;
use crate::spans::Tracer;
use crate::staged::{self, Plan, Stages};
use crate::stats::{percentile, Summary};
use crate::verify::{self, Tally};

/// Cold passes of the staged pipeline (each gives one sample per build
/// layer and a run's worth of per-iteration samples).
const STAGED_PASSES: usize = 3;

fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).value
}

/// Post-Phase seconds as the engine itself reports them for a window.
fn engine_post_seconds(engine: &MixenEngine, g: &Graph, algo: Algo, iters: usize) -> f64 {
    match algo {
        Algo::PageRank => {
            let t = PageRankTerms::new(g);
            engine
                .iterate_with_stats(|v| t.init(v), |v, s: f32| t.apply(v, s), iters)
                .1
        }
        Algo::Cf => {
            let t = CfTerms::new(g);
            engine
                .iterate_with_stats(|v| t.init(v), |v, s| t.apply(v, s), iters)
                .1
        }
    }
    .post_seconds
}

/// Times `batches` batches of `per_batch` calls; returns seconds per call.
fn per_call(batches: usize, per_batch: usize, mut call: impl FnMut()) -> Vec<f64> {
    (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_batch {
                call();
            }
            t.elapsed().as_secs_f64() / per_batch as f64
        })
        .collect()
}

/// What the pinned batch half hands to the serve half and to the
/// attribution at the end.
struct Batch {
    /// Medians of the staged layers, seconds.
    read: f64,
    filter: f64,
    block: f64,
    cold_run: f64,
    topk: f64,
    refresh_batch: f64,
    driver_self_ms: f64,
    /// Pre, bin allocation and Post spread over a window's iterations.
    amortised_ms: f64,
}

/// What the traced run is asked to do.
pub struct Traced<'a> {
    pub workload: &'a Workload,
    /// Holds the generated graph.
    pub dir: &'a Path,
    pub seconds: f64,
    pub clients: usize,
    /// Of the dataset scale, to scale the simulated cache hierarchy alike.
    pub scale_divisor: usize,
    /// Where to dump the raw spans, if anywhere.
    pub spans_out: Option<&'a Path>,
}

pub fn traced(run: &Traced<'_>, report: &mut Report, tally: &mut Tally) -> Result<(), String> {
    let Traced {
        workload: w,
        dir,
        seconds,
        clients,
        ..
    } = *run;
    let (reference, warm) = measure(w, dir, Phases::reference(w, seconds), clients, tally)?;
    report.graph = reference.graph;
    let e2e_setup = median(&reference.setup_s);
    let e2e_total = median(&reference.total_s);

    let mut tr = Tracer::new(w.name);
    let root = tr.enter("workload");

    // Staged cold passes — file → load → filter → block → Pre → iterate →
    // Post → top-k, one span per public call — each in a fresh process like
    // the untraced cold rounds; their spans are grafted in here.
    let want = warm.fingerprint();
    let mut staged_cold_s = Vec::new();
    for pass in 0..STAGED_PASSES {
        let offset = tr.now();
        let cold = cold::spawn(w, dir, true)?;
        tally.check(cold.ok && (cold.iters, cold.digest) == want, || {
            format!("staged cold pass {pass} is not bit-identical to the engine's run")
        });
        staged_cold_s.push(cold.total_s);
        tr.graft(cold.spans, offset);
    }

    // The staged window and the direct layer calls are batch work, on pool
    // lane 0 like the untraced warm windows.
    let batch = batch_layers(run, &reference, &warm, &mut tr, report, tally)?;

    // Traced request load, from the unpinned calling thread.
    let serve_s = if w.serve { 0.45 } else { 0.2 } * seconds;
    let (load, before, after) =
        unpinned(|| serve_phase(w, &warm, clients, serve_s, Some(&mut tr), tally))?;
    tr.exit(root);

    for (name, samples) in [
        ("connect", &load.connect_ms),
        ("ttfb", &load.ttfb_ms),
        ("read", &load.read_ms),
    ] {
        report.put_samples(&format!("serve.{name}_ms"), samples);
        report.put_scalar(&format!("serve.{name}_p99_ms"), percentile(samples, 99.0));
    }
    for (name, samples) in [("top", &load.top_ms), ("score", &load.score_ms)] {
        report.put_samples(&format!("serve.{name}_p50_ms"), samples);
        report.put_scalar(&format!("serve.{name}_p99_ms"), percentile(samples, 99.0));
    }
    report.put_samples("serve.response_bytes", &load.response_bytes);
    let served = after.requests_served - before.requests_served;
    let batches = after.request_batches - before.request_batches;
    report.put_scalar("serve.requests_served", served as f64);
    report.put_scalar(
        "serve.requests_rejected",
        (after.requests_rejected - before.requests_rejected) as f64,
    );
    report.put_scalar("serve.request_batches", batches as f64);
    report.put_scalar("serve.mean_batch", served as f64 / batches.max(1) as f64);
    report.put_scalar("serve.max_batch_size", after.max_batch_size as f64);
    report.put_scalar(
        "serve.snapshot_swaps",
        (after.snapshot_swaps - before.snapshot_swaps) as f64,
    );
    report.put_scalar(
        "serve.refresh_iters_per_s",
        (load.versions * ServeOpts::default().refresh_iters as u64) as f64 / load.wall_s,
    );

    // How much of each end-to-end number the layers account for.
    let traced_qps = load.ok as f64 / load.wall_s;
    let (overhead, explained_setup, explained_total) = if w.serve {
        let untraced = reference
            .load
            .as_ref()
            .ok_or("reference pass ran no load")?;
        let untraced_qps = untraced.ok as f64 / untraced.wall_s;
        (
            untraced_qps / traced_qps - 1.0,
            batch.filter + batch.block + batch.refresh_batch,
            batch.read + e2e_setup + median(&load.top_ms) / 1e3,
        )
    } else {
        (
            median(&staged_cold_s) / e2e_total - 1.0,
            batch.read + batch.filter + batch.block,
            batch.read + batch.filter + batch.block + batch.cold_run + batch.topk,
        )
    };
    let iter_self_ms = tr.totals()["core.engine.iter"].self_s * 1e3
        / tr.durations("core.engine.iter").len() as f64;
    report.put_scalar("trace.overhead_pct", overhead * 100.0);
    report.put_scalar("trace.unattributed_setup_s", e2e_setup - explained_setup);
    report.put_scalar("trace.unattributed_total_s", e2e_total - explained_total);
    report.put_scalar(
        "trace.unattributed_iter_ms",
        batch.driver_self_ms - batch.amortised_ms - iter_self_ms,
    );
    report.put_scalar("trace.spans", tr.spans().len() as f64);

    println!("[{}] span totals (count, total s, self s):", w.name);
    for (name, t) in tr.totals() {
        println!(
            "[{}]   {name} {} {:.6} {:.6}",
            w.name, t.count, t.total_s, t.self_s
        );
    }
    if let Some(out) = run.spans_out {
        std::fs::write(out, tr.dump()).map_err(|e| format!("{}: {e}", out.display()))?;
    }
    Ok(())
}

/// The batch half of the traced run: staged cold passes, one staged window,
/// direct calls into single layers, the model and the cache simulator; puts
/// every batch-layer metric.
#[allow(clippy::too_many_lines)]
fn batch_layers(
    run: &Traced<'_>,
    reference: &Measured,
    warm: &Warm,
    tr: &mut Tracer,
    report: &mut Report,
    tally: &mut Tally,
) -> Result<Batch, String> {
    let (w, dir) = (run.workload, run.dir);
    let e2e_iter_ms = median(&reference.iter_ms);
    let pull_iter_ms = median(&reference.pull_iter_ms);
    let opts = MixenOpts::default();
    let lanes = mixen_pool::current_num_threads();
    let k = w.window_iters;
    let path = crate::graph_path(dir);
    let file_bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    let Warm {
        g, engine, ranks, ..
    } = warm;
    let (g, filtered, blocked) = (&**g, engine.filtered(), engine.blocked());
    let iters_to_tol = reference.iters_to_tol;

    // Off the staged path: checksum and policy resolution.
    tr.span("graph.io.crc", || io::graph_checksum(g));
    let policy = tr.span("core.reorder.resolve", || ReorderChoice::Auto.resolve(g));

    // One staged window of exactly the warm windows' length, for the exact
    // per-iteration counts.
    let metrics = Metrics::default();
    let st = Stages {
        filtered,
        blocked,
        opts,
        metrics: &metrics,
    };
    let (staged_window, win) = staged::run_algo(tr, &st, g, w.algo, Plan::Fixed(k));
    tally.check(
        verify::bit_identical(&staged_window, &run_fixed(w.algo, g, engine, k)),
        || format!("staged window of {k} iterations is not bit-identical to the engine's"),
    );
    let per_iter = |total: u64| -> Result<f64, String> {
        if total.is_multiple_of(k as u64) {
            Ok((total / k as u64) as f64)
        } else {
            Err(format!(
                "a per-iteration count ({total} over {k}) is not whole"
            ))
        }
    };
    let edges_scattered = per_iter(metrics.edges_scattered.get())?;
    let edges_gathered = per_iter(metrics.edges_gathered.get())?;
    let bin_bytes = per_iter(metrics.bin_bytes_streamed.get())?;
    let post_s = engine_post_seconds(engine, g, w.algo, k);

    // Direct calls into single layers.
    let scores = ranks.scores().into_owned();
    let topk100 = per_call(20, 1, || {
        std::hint::black_box(top_k(&scores, TOP));
    });
    let topk10 = per_call(20, 1, || {
        std::hint::black_box(top_k(&scores, crate::serve::MIX_TOP_K));
    });
    let empty_scope = tr.span("pool.empty_scope", || {
        per_call(10, 1_000, || {
            mixen_pool::scope(|s| {
                for _ in 0..lanes {
                    s.spawn(|| {});
                }
            });
        })
    });
    let t1_iter_ms = tr.span("pool.t1", || {
        mixen_pool::with_threads(1, || {
            per_call(3, 1, || {
                std::hint::black_box(run_fixed(w.algo, g, engine, k));
            })
        })
    });
    let t1_iter_ms: Vec<f64> = t1_iter_ms.iter().map(|s| s * 1e3 / k as f64).collect();
    let serve_defaults = ServeOpts::default();
    let refresh_batch = tr.span("serve.refresh_batch", || {
        let pr = PageRankOpts {
            damping: serve_defaults.damping,
            ..PageRankOpts::default()
        };
        let mut stream = PageRankStream::new(g, engine, pr);
        per_call(10, 1, || {
            stream.advance(serve_defaults.refresh_iters);
            std::hint::black_box(stream.scores());
        })
    });
    let cell = SnapCell::new(Arc::new(scores.clone()));
    let snap_load = per_call(10, 100_000, || {
        std::hint::black_box(cell.load());
    });
    let snap_publish = per_call(20, 1, || {
        cell.publish(Arc::new(scores.clone()));
    });
    let admission: Admission<u64> = Admission::new(serve_defaults.queue_cap);
    let push_pop = per_call(10, 20_000, || {
        let _ = admission.try_push(1);
        std::hint::black_box(admission.pop_batch(1));
    });

    // What the §5 model and the cache simulator predict for one iteration.
    let model = PerfModel::from_filtered(filtered, blocked.block_side());
    let cache = CacheConfig::scaled_paper(run.scale_divisor);
    let (sim_mixen, sim_pull) = tr.span("cachesim", || {
        (trace_mixen(engine, &cache), trace_pull(g, &cache))
    });

    // ---- metrics ----
    let ms = |name: &str| -> Vec<f64> { tr.durations(name).iter().map(|s| s * 1e3).collect() };
    let read_s = tr.durations("graph.io.load");
    report.put_samples("graph.io.read_s", &read_s);
    report.put_scalar("graph.io.read_bytes", file_bytes as f64);
    report.put_scalar(
        "graph.io.read_gbps",
        file_bytes as f64 / median(&read_s) / 1e9,
    );
    report.put_samples("graph.io.crc_s", &tr.durations("graph.io.crc"));

    let filter_s = tr.durations("core.filter.build");
    report.put_samples("core.filter.build_s", &filter_s);
    report.put_scalar("core.filter.relabel_s", filtered.relabel_seconds());
    report.put_scalar("core.filter.alpha", filtered.alpha());
    report.put_scalar("core.filter.beta", filtered.beta());
    report.put_scalar("core.filter.hub_frac", model.hub_frac);
    report.put_scalar("core.filter.bytes", filtered.memory_bytes() as f64);
    report.put_samples(
        "core.reorder.resolve_s",
        &tr.durations("core.reorder.resolve"),
    );
    report.put_scalar("core.reorder.policy", policy.policy_id() as f64);

    let block_s = tr.durations("core.block.build");
    let split = blocked.split_stats();
    report.put_samples("core.block.build_s", &block_s);
    report.put_scalar("core.block.side", blocked.block_side() as f64);
    report.put_scalar("core.block.col_blocks", blocked.n_col_blocks() as f64);
    report.put_scalar("core.block.scatter_tasks", split.scatter_tasks as f64);
    report.put_scalar("core.block.gather_tasks", split.gather_tasks as f64);
    report.put_scalar("core.block.max_task_nnz", split.max_task_nnz() as f64);
    let mean_task_nnz = blocked.nnz() as f64 / split.gather_tasks.max(1) as f64;
    report.put_scalar(
        "core.block.task_balance",
        if mean_task_nnz > 0.0 {
            split.max_gather_task_nnz as f64 / mean_task_nnz
        } else {
            1.0
        },
    );
    report.put_scalar("core.block.msg_slots", blocked.total_msg_slots() as f64);

    let pre_s = tr.durations("core.bins.pre");
    let alloc_s = tr.durations("core.bins.alloc");
    report.put_samples("core.bins.pre_s", &pre_s);
    report.put_samples("core.bins.alloc_s", &alloc_s);
    report.put_scalar(
        "core.bins.dyn_bytes",
        (blocked.total_msg_slots() * win.slot_bytes) as f64,
    );
    report.put_scalar("core.bins.static_entries", filtered.num_regular() as f64);

    let (scatter_ms, gather_ms) = (ms("core.scga.scatter"), ms("core.scga.gather"));
    let (scatter_med, gather_med) = (median(&scatter_ms), median(&gather_ms));
    let (scatter_bytes, gather_bytes) =
        staged::computed_bytes(blocked, win.value_bytes, win.slot_bytes);
    report.put_samples("core.scga.scatter_ms", &scatter_ms);
    report.put_scalar("core.scga.scatter_p90_ms", percentile(&scatter_ms, 90.0));
    report.put_samples("core.scga.gather_ms", &gather_ms);
    report.put_scalar("core.scga.gather_p90_ms", percentile(&gather_ms, 90.0));
    report.put_scalar(
        "core.scga.scatter_gbps",
        scatter_bytes as f64 / scatter_med / 1e6,
    );
    report.put_scalar(
        "core.scga.gather_gbps",
        gather_bytes as f64 / gather_med / 1e6,
    );
    report.put_scalar(
        "core.scga.gather_share",
        gather_med / (scatter_med + gather_med),
    );
    report.put_scalar(
        "core.scga.edges_per_s",
        edges_gathered / ((scatter_med + gather_med) / 1e3),
    );
    report.put_scalar("core.scga.edges_scattered", edges_scattered);
    report.put_scalar("core.scga.edges_gathered", edges_gathered);
    report.put_scalar("core.scga.bin_bytes_streamed", bin_bytes);

    let driver_self_ms = e2e_iter_ms - scatter_med - gather_med;
    let converge_ms = ms("core.engine.converge_check");
    report.put_scalar("core.engine.build_s", warm.engine_build_s);
    report.put_scalar("core.engine.driver_self_ms", driver_self_ms);
    if converge_ms.is_empty() {
        report.put_scalar("core.engine.converge_check_ms", 0.0);
    } else {
        report.put_samples("core.engine.converge_check_ms", &converge_ms);
    }
    report.put_scalar("core.engine.post_s", post_s);
    report.put_scalar("core.engine.iters_to_tol", iters_to_tol as f64);

    let model_bytes = model.mixen_traffic_bytes(4);
    report.put_scalar("core.model.mixen_bytes_iter", model_bytes);
    report.put_scalar("core.model.pull_bytes_iter", model.pull_traffic() * 4.0);
    report.put_scalar(
        "core.model.error",
        if model_bytes > 0.0 {
            (scatter_bytes + gather_bytes) as f64 / model_bytes
        } else {
            0.0
        },
    );
    report.put_scalar("cachesim.mixen_dram_bytes", sim_mixen.dram_bytes() as f64);
    report.put_scalar("cachesim.pull_dram_bytes", sim_pull.dram_bytes() as f64);
    report.put_scalar("cachesim.mixen_llc_miss", sim_mixen.llc().miss_ratio());

    let empty_scope_us: Vec<f64> = empty_scope.iter().map(|s| s * 1e6).collect();
    report.put_scalar("pool.lanes", lanes as f64);
    report.put_scalar("pool.tasks_per_iter", win.pool_tasks as f64 / k as f64);
    report.put_scalar("pool.steals_per_iter", win.pool_steals as f64 / k as f64);
    report.put_samples("pool.empty_scope_us", &empty_scope_us);
    report.put_samples("pool.t1_iter_ms", &t1_iter_ms);
    report.put_scalar("pool.s2", median(&t1_iter_ms) / e2e_iter_ms);

    let to_ms = |v: &[f64]| -> Vec<f64> { v.iter().map(|s| s * 1e3).collect() };
    report.put_samples("algos.topk_ms", &to_ms(&topk100));
    report.put_samples("algos.topk10_ms", &to_ms(&topk10));
    report.put_samples("baselines.pull_iter_ms", &reference.pull_iter_ms);
    report.put_scalar("baselines.pull_build_s", reference.pull_build_s);
    // Share of Mixen's extra set-up that one iteration pays back (negative
    // where Mixen is the slower engine), and its reciprocal, the break-even.
    let gain_s = (pull_iter_ms - e2e_iter_ms) / 1e3;
    let extra_setup_s = warm.engine_build_s - reference.pull_build_s;
    report.put_scalar("baselines.payback_per_iter", gain_s / extra_setup_s);
    report.put_scalar(
        "baselines.break_even_iters",
        if gain_s > 0.0 {
            extra_setup_s / gain_s
        } else {
            f64::INFINITY
        },
    );
    report.put_scalar("baselines.ref_max_rel_err", reference.ref_max_rel_err);
    report.put_scalar("baselines.top100_overlap", reference.min_overlap);

    let refresh_batch_ms = to_ms(&refresh_batch);
    report.put_samples("serve.refresh_batch_ms", &refresh_batch_ms);
    report.put_samples(
        "serve.snap_load_ns",
        &snap_load.iter().map(|s| s * 1e9).collect::<Vec<_>>(),
    );
    report.put_samples(
        "serve.snap_publish_us",
        &snap_publish.iter().map(|s| s * 1e6).collect::<Vec<_>>(),
    );
    report.put_samples(
        "serve.admission_push_pop_ns",
        &push_pop.iter().map(|s| s * 1e9).collect::<Vec<_>>(),
    );

    let run_s = tr.durations("core.engine.run");
    Ok(Batch {
        read: median(&read_s),
        filter: median(&filter_s),
        block: median(&block_s),
        cold_run: median(&run_s[..STAGED_PASSES]),
        topk: median(&tr.durations("algos.topk")),
        refresh_batch: median(&refresh_batch_ms) / 1e3,
        driver_self_ms,
        amortised_ms: (median(&pre_s) + median(&alloc_s) + post_s) * 1e3 / k as f64,
    })
}
