//! The untraced run: end-to-end numbers through the entry points users
//! call, with tracing off. Three kinds of work share the run's seconds —
//! cold rounds (file to ranks) taking turns with warm windows (interleaved
//! with the pull baseline), then request load against a live server.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use mixen_baselines::{PullEngine, ReferenceEngine};
use mixen_core::{MixenEngine, MixenOpts};
use mixen_graph::{io, Graph};

use crate::algo::{run_fixed, run_to_ranks, Output, TOP};
use crate::catalogue::Workload;
use crate::report::GraphFacts;
use crate::serve::{self, Expect, Load};
use crate::verify::{self, Tally};
use crate::{cold, host};

/// Seconds each phase may use, and the least samples it must take.
#[derive(Clone, Copy, Debug)]
pub struct Phases {
    /// Shared by the cold rounds and the warm windows, which take turns.
    pub batch_s: f64,
    pub min_cold: usize,
    pub min_pairs: usize,
    /// Zero skips the serve phase.
    pub serve_s: f64,
}

/// Most cold rounds and window pairs worth taking however fast they are.
const MAX_COLD: usize = 12;
const MAX_PAIRS: usize = 40;

impl Phases {
    /// The split of a full untraced run: the half a workload is named for
    /// gets most of the time, the other half enough for a steady median.
    pub fn untraced(w: &Workload, seconds: f64) -> Self {
        let batch = if w.serve { 0.45 } else { 0.75 };
        Self {
            batch_s: batch * seconds,
            // An odd handful, so three slow rounds cannot move the median. On
            // `cf-pld` the round after the first window pairs is slow every
            // time and any other now and then, by 0.4–1.4 s: a fresh process
            // gets guest pages the host has yet to back, and its first touch
            // of the bins pays for that. With five rounds the median moved
            // with them (ten-seed spread of `total_s` 9–17%).
            min_cold: 7,
            min_pairs: 10,
            serve_s: (1.0 - batch) * seconds,
        }
    }

    /// The short untraced pass a traced run compares itself with. Only a
    /// serve workload needs untraced load beside the traced one.
    pub fn reference(w: &Workload, seconds: f64) -> Self {
        Self {
            batch_s: 0.3 * seconds,
            min_cold: 2,
            min_pairs: 4,
            serve_s: if w.serve { 0.12 * seconds } else { 0.0 },
        }
    }
}

/// Raw samples of one untraced run.
#[derive(Default)]
pub struct Measured {
    pub setup_s: Vec<f64>,
    pub total_s: Vec<f64>,
    /// `VmHWM` of each cold round's process, MB.
    pub peak_rss_mb: Vec<f64>,
    /// Per-iteration time of each warm Mixen window, ms.
    pub iter_ms: Vec<f64>,
    pub pull_iter_ms: Vec<f64>,
    /// Pull ÷ Mixen of each interleaved pair.
    pub speedup: Vec<f64>,
    pub iters_to_tol: usize,
    pub graph: GraphFacts,
    pub pull_build_s: f64,
    pub ref_max_rel_err: f64,
    pub min_overlap: f64,
    pub load: Option<Load>,
}

/// Sizes the global pool, pins its workers — lane `i` to CPU `i` — and pins
/// the calling thread to CPU 0 as lane 0. Left to the scheduler, the two
/// lanes of this 2-vCPU host sometimes share a CPU and sometimes do not,
/// and since a wake-up across vCPUs is expensive the same fork-join section
/// takes 1–4x as long from one call to the next. Pinned, every call pays
/// the cross-CPU price and repeats within a few percent.
///
/// Batch work runs on the calling (main) thread, so what it frees stays in
/// the main heap (`RETAIN_ENV` in `main.rs`); servers, clients and child
/// processes start from [`unpinned`] threads. The policy is set from a
/// scratch thread while every CPU is still allowed: `auto` counts the CPUs
/// its caller can run on.
pub fn pin_lanes(lanes: usize) -> Result<(), String> {
    use mixen_pool::affinity::{configure, pin_current_thread, AffinityPolicy};
    std::thread::spawn(|| configure(AffinityPolicy::Auto))
        .join()
        .map_err(|_| "cannot set the affinity policy")?;
    mixen_pool::configure_global(lanes).map_err(|e| e.to_string())?;
    pin_current_thread(0);
    Ok(())
}

/// Runs `f` on a thread that may use every CPU again. Threads and child
/// processes inherit their creator's CPU mask, so whatever must not sit on
/// lane 0's CPU alone — a server and its clients, a cold round's process —
/// starts from here.
pub fn unpinned<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        s.spawn(|| {
            host::allow_all_cpus();
            f()
        })
        .join()
        .expect("the unpinned thread panicked")
    })
}

pub fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// One cold round in a fresh process ([`crate::cold`]). A batch round is
/// file → `io::load` → `MixenEngine::new` (`setup_s`) → run to ranks →
/// `top_k` (`total_s`) and must reproduce `want` (iterations and output
/// digest of the warm engine, which is checked against the reference); a
/// serve round is file → `io::load` → `Server::start` (`setup_s`) → first
/// `GET /rank/top?k=100` answered (`total_s`).
fn cold_round(
    w: &Workload,
    dir: &Path,
    round: usize,
    want: (usize, u64),
    m: &mut Measured,
    tally: &mut Tally,
) -> Result<(), String> {
    let cold = cold::spawn(w, dir, false)?;
    m.setup_s.push(cold.setup_s);
    m.total_s.push(cold.total_s);
    m.peak_rss_mb.push(cold.peak_rss_mb);
    tally.check(
        cold.ok && (w.serve || (cold.iters, cold.digest) == want),
        || format!("cold round {round}: ranks are not the verified engine's"),
    );
    Ok(())
}

/// Warm windows on a resident engine: Mixen and the pull baseline
/// interleaved A-B / B-A, `window_iters` iterations each.
struct Windows<'a> {
    w: &'a Workload,
    g: &'a Graph,
    engine: &'a MixenEngine,
    pull: PullEngine<'a>,
    /// The verified window every later one must reproduce bit for bit.
    first: Output,
}

impl<'a> Windows<'a> {
    /// Builds the baseline and runs, checks and discards one window of each
    /// engine.
    fn warm_up(w: &'a Workload, warm: &'a Warm, m: &mut Measured, tally: &mut Tally) -> Self {
        let (g, engine) = (&*warm.g, &warm.engine);
        let k = w.window_iters;
        let pull = PullEngine::new(g);
        m.pull_build_s = pull.build_seconds();
        let first = run_fixed(w.algo, g, engine, k);
        let window_ok = if k == warm.iters_to_tol {
            verify::within_tolerance(&first, &warm.want_ranks)
        } else {
            verify::within_tolerance(&first, &run_fixed(w.algo, g, &ReferenceEngine::new(g), k))
        };
        tally.check(window_ok, || {
            format!("warm-up window: {k} iterations differ from the reference engine")
        });
        run_fixed(w.algo, g, &pull, k);
        Self {
            w,
            g,
            engine,
            pull,
            first,
        }
    }

    /// One interleaved pair; even pairs run Mixen first, odd ones pull.
    fn pair(&self, pair: usize, m: &mut Measured, tally: &mut Tally) {
        let (w, g, k) = (self.w, self.g, self.w.window_iters);
        let window = |mixen: bool| -> (Output, f64) {
            let t = Instant::now();
            let out = if mixen {
                run_fixed(w.algo, g, self.engine, k)
            } else {
                run_fixed(w.algo, g, &self.pull, k)
            };
            (out, secs(t) * 1e3 / k as f64)
        };
        let ((ours, ours_ms), (theirs, theirs_ms)) = if pair.is_multiple_of(2) {
            let a = window(true);
            (a, window(false))
        } else {
            let b = window(false);
            (window(true), b)
        };
        m.iter_ms.push(ours_ms);
        m.pull_iter_ms.push(theirs_ms);
        m.speedup.push(theirs_ms / ours_ms);
        let overlap = verify::overlap(&ours, &theirs);
        m.min_overlap = m.min_overlap.min(overlap);
        // The engine is deterministic at a fixed lane count, so every window
        // must reproduce the one checked against the reference.
        tally.check(
            verify::bit_identical(&ours, &self.first) && overlap >= verify::MIN_OVERLAP,
            || {
                format!(
                    "window pair {pair}: top-{TOP} overlap with pull {overlap:.3}, or values moved"
                )
            },
        );
    }
}

/// Cold rounds and warm windows, taking turns — a round in its own process,
/// then a few window pairs on pool lane 0 — until each has its minimum and
/// their shared time is used. The speed of this host's vCPUs drifts by a
/// quarter from one stretch of seconds to the next; taking turns spreads
/// the samples of every metric over the whole stretch instead of giving
/// each metric one half of it.
fn batch_phases(
    w: &Workload,
    dir: &Path,
    phases: Phases,
    warm: &Warm,
    m: &mut Measured,
    tally: &mut Tally,
) -> Result<(), String> {
    let windows = Windows::warm_up(w, warm, m, tally);
    let want = warm.fingerprint();
    let burst = phases.min_pairs.div_ceil(phases.min_cold.max(1));
    let started = Instant::now();
    let (mut rounds, mut pairs) = (0, 0);
    loop {
        let spare = secs(started) < phases.batch_s;
        let round_due = rounds < phases.min_cold || (spare && rounds < MAX_COLD);
        let pairs_due = if pairs < phases.min_pairs || spare {
            burst.min(MAX_PAIRS - pairs)
        } else {
            0
        };
        if !round_due && pairs_due == 0 {
            return Ok(());
        }
        if round_due {
            cold_round(w, dir, rounds, want, m, tally)?;
            rounds += 1;
        }
        if pairs_due > 0 {
            for pair in pairs..pairs + pairs_due {
                windows.pair(pair, m, tally);
            }
            pairs += pairs_due;
        }
    }
}

/// The resident state of the warm phases: the graph, an engine, its ranks,
/// and the reference engine's ranks they were checked against.
pub struct Warm {
    pub g: Arc<Graph>,
    pub engine: MixenEngine,
    pub ranks: Output,
    /// Wall clock of `MixenEngine::new` on the freshly loaded graph.
    pub engine_build_s: f64,
    want_ranks: Output,
    iters_to_tol: usize,
}

impl Warm {
    /// Iterations to ranks and digest of the ranks: what a cold round in
    /// another process must reproduce.
    pub fn fingerprint(&self) -> (usize, u64) {
        (self.iters_to_tol, verify::digest(&self.ranks))
    }
}

fn warm_state(w: &Workload, dir: &Path, tally: &mut Tally) -> Result<Warm, String> {
    let path = crate::graph_path(dir);
    let g = Arc::new(io::load(&path).map_err(|e| format!("{}: {e}", path.display()))?);
    let t = Instant::now();
    let engine = MixenEngine::new(&g, MixenOpts::default());
    let engine_build_s = secs(t);
    let (ranks, iters_to_tol) = run_to_ranks(w.algo, &g, &engine);
    let want_ranks = run_fixed(w.algo, &g, &ReferenceEngine::new(&g), iters_to_tol);
    tally.check(verify::within_tolerance(&ranks, &want_ranks), || {
        "ranks differ from the reference engine".into()
    });
    Ok(Warm {
        g,
        engine,
        ranks,
        engine_build_s,
        want_ranks,
        iters_to_tol,
    })
}

/// The batch phases, then the request load. Batch work runs on the calling
/// thread, pool lane 0 ([`pin_lanes`]); the server and its clients start
/// from an [`unpinned`] one. Returns the samples and the warm state.
pub fn measure(
    w: &Workload,
    dir: &Path,
    phases: Phases,
    clients: usize,
    tally: &mut Tally,
) -> Result<(Measured, Warm), String> {
    let warm = warm_state(w, dir, tally)?;
    let mut m = Measured {
        min_overlap: 1.0,
        iters_to_tol: warm.iters_to_tol,
        ref_max_rel_err: verify::max_rel_err(&warm.ranks, &warm.want_ranks),
        graph: GraphFacts {
            n: warm.g.n() as u64,
            m: warm.g.m() as u64,
            alpha: warm.engine.filtered().alpha(),
            beta: warm.engine.filtered().beta(),
        },
        ..Measured::default()
    };

    let started = Instant::now();
    batch_phases(w, dir, phases, &warm, &mut m, tally)?;
    let batch_s = secs(started);

    let started = Instant::now();
    if phases.serve_s > 0.0 {
        let load = unpinned(|| serve_phase(w, &warm, clients, phases.serve_s, None, tally))?;
        m.load = Some(load.0);
    }
    println!(
        "[{}] untraced phases: {} cold rounds and {} window pairs {batch_s:.2} s, {} requests {:.2} s",
        w.name,
        m.setup_s.len(),
        m.speedup.len(),
        m.load.as_ref().map_or(0, |l| l.ok + l.failed),
        secs(started)
    );
    Ok((m, warm))
}

/// Starts a server on the warm graph, waits for a converged snapshot
/// (steady mode), and runs the request load. Returns the load and the server's counter
/// changes over it.
pub fn serve_phase(
    w: &Workload,
    warm: &Warm,
    clients: usize,
    seconds: f64,
    mut trace: Option<&mut crate::spans::Tracer>,
    tally: &mut Tally,
) -> Result<(Load, serve::Counters, serve::Counters), String> {
    let start = trace.as_deref_mut().map(|tr| tr.enter("serve.start"));
    let Warm {
        g, engine, ranks, ..
    } = warm;
    let server = serve::start(g, w.refresh)?;
    if let (Some(tr), Some(id)) = (trace.as_deref_mut(), start) {
        tr.exit(id);
    }
    let expect = if w.refresh {
        // Only PageRank is served; its converged ranks bound what any later
        // snapshot may say.
        match ranks {
            Output::Scores(s) => Expect::near(s.clone()),
            Output::Latent(_) => unreachable!("refresh workloads rank with PageRank"),
        }
    } else {
        Expect::converged(g, engine, serve::wait_converged(server.addr())?)
    };
    let before = serve::counters(server.addr())?;
    let load = serve::run_load(&server, g.n(), clients, seconds, &expect, trace);
    let after = serve::counters(server.addr());
    server.shutdown_and_join();
    tally.add(
        load.ok,
        load.failed,
        "request refused, failed, or answered wrongly",
    );
    Ok((load, before, after?))
}
