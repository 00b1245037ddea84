//! The staged pipeline of the traced run: the same Pre → Scatter / Gather /
//! Apply → Post recurrence `MixenEngine` drives, issued one public layer
//! call at a time with a span around each. Its output is compared bit for
//! bit with the engine's, so the spans provably time the same program.

use mixen_core::bins::{DynamicBins, StaticBin};
use mixen_core::{scga, BlockedSubgraph, FilteredGraph, Metrics, MixenOpts};
use mixen_graph::{max_diff, nid, Graph, NodeId, PropValue};

use crate::algo::{tolerance, CfTerms, Output, PageRankTerms, CF_ROUNDS, MAX_ITERS};
use crate::catalogue::Algo;
use crate::spans::Tracer;

/// How long the staged run iterates.
#[derive(Clone, Copy, Debug)]
pub enum Plan {
    Fixed(usize),
    Until { tol: f64, max_iters: usize },
}

/// Preprocessed state the staged run iterates over, built by the caller
/// with the same public constructors (and arguments) `MixenEngine` uses.
pub struct Stages<'a> {
    pub filtered: &'a FilteredGraph,
    pub blocked: &'a BlockedSubgraph,
    pub opts: MixenOpts,
    /// Receives the exact per-call counts of the Scatter and Gather layers.
    pub metrics: &'a Metrics,
}

/// What one staged run did besides producing values.
#[derive(Clone, Copy, Debug)]
pub struct RunStats {
    pub iters: usize,
    /// Pool tasks executed and stolen during the iteration loop.
    pub pool_tasks: u64,
    pub pool_steals: u64,
    /// Bytes of one property value and of one dynamic-bin slot.
    pub value_bytes: usize,
    pub slot_bytes: usize,
}

/// Runs the recurrence `x'[v] = apply(v, Σ x[u])`; returns the values in
/// original-ID order.
pub fn run<V, FI, FA>(
    tr: &mut Tracer,
    st: &Stages<'_>,
    init: FI,
    apply: FA,
    plan: Plan,
) -> (Vec<V>, RunStats)
where
    V: PropValue,
    FI: Fn(NodeId) -> V + Sync,
    FA: Fn(NodeId, V) -> V + Sync,
{
    assert!(
        st.opts.cache_step,
        "the staged run mirrors the Cache-step driver"
    );
    let f = st.filtered;
    let (r, s) = (f.num_regular(), f.num_seed());
    let (max_iters, tol) = match plan {
        Plan::Fixed(k) => (k, None),
        Plan::Until { tol, max_iters } => (max_iters, Some(tol)),
    };
    assert!(max_iters > 0, "the staged run needs at least one iteration");
    let run = tr.enter("core.engine.run");

    let seed_vals: Vec<V> = (0..s).map(|i| init(f.to_old(nid(r + i)))).collect();
    let sta = tr.span("core.bins.pre", || {
        StaticBin::compute(f.seed_csr(), &seed_vals, r)
    });
    let mut x: Vec<V> = (0..r).map(|v| init(f.to_old(nid(v)))).collect();
    let mut y: Vec<V> = sta.values().to_vec();
    let mut bins: DynamicBins<V> = tr.span("core.bins.alloc", || {
        DynamicBins::with_encoding(st.blocked, st.opts.bin_encoding)
    });
    let mut prev: Vec<V> = if tol.is_some() { x.clone() } else { Vec::new() };

    let slot_bytes = bins.bytes_per_slot();
    let pool_before = mixen_pool::stats();
    let mut performed = 0;
    for t in 0..max_iters {
        let iter = tr.enter("core.engine.iter");
        let last_fixed = tol.is_none() && t + 1 == max_iters;
        if tol.is_some() {
            prev.copy_from_slice(&x);
        }
        let prime = (!last_fixed).then(|| sta.values());
        tr.span("core.scga.scatter", || {
            scga::try_scatter_with(st.blocked, &mut x, &mut bins, prime, Some(st.metrics))
                .expect("full-width bins never reject a value range")
        });
        tr.span("core.scga.gather", || {
            scga::gather_with(
                st.blocked,
                &bins,
                &mut y,
                |new, sum| apply(f.to_old(new), sum),
                Some(st.metrics),
            )
        });
        std::mem::swap(&mut x, &mut y);
        performed += 1;
        let mut done = false;
        if let Some(tol) = tol {
            let diff = tr.span("core.engine.converge_check", || max_diff(&x, &prev));
            y.copy_from_slice(sta.values());
            done = diff <= tol;
        }
        tr.exit(iter);
        if done {
            break;
        }
    }

    let pool_after = mixen_pool::stats();

    let x_prev: &[V] = if tol.is_some() { &prev } else { &y };
    let out = tr.span("core.engine.post", || {
        post(f, &x, x_prev, &seed_vals, &apply)
    });
    tr.exit(run);
    let stats = RunStats {
        iters: performed,
        pool_tasks: pool_after.tasks_executed - pool_before.tasks_executed,
        pool_steals: pool_after.steals - pool_before.steals,
        value_bytes: std::mem::size_of::<V>(),
        slot_bytes,
    };
    (out, stats)
}

/// The staged run of a workload's algorithm, with its `init`/`apply`.
pub fn run_algo(
    tr: &mut Tracer,
    st: &Stages<'_>,
    g: &Graph,
    algo: Algo,
    plan: Plan,
) -> (Output, RunStats) {
    match algo {
        Algo::PageRank => {
            let t = PageRankTerms::new(g);
            let (vals, stats) = run(tr, st, |v| t.init(v), |v, s| t.apply(v, s), plan);
            (Output::Scores(t.scores(&vals)), stats)
        }
        Algo::Cf => {
            let t = CfTerms::new(g);
            let (vals, stats) = run(tr, st, |v| t.init(v), |v, s| t.apply(v, s), plan);
            (Output::Latent(vals), stats)
        }
    }
}

/// The plan of the run a user waits for (`algo::run_to_ranks`).
pub fn to_ranks_plan(algo: Algo, g: &Graph) -> Plan {
    match algo {
        Algo::PageRank => Plan::Until {
            tol: tolerance(g),
            max_iters: MAX_ITERS,
        },
        Algo::Cf => Plan::Fixed(CF_ROUNDS),
    }
}

/// Post-Phase and assembly into original-ID order: sinks pull once from the
/// values regular and seed nodes propagated last; seeds and isolated nodes
/// sit at `apply(v, identity)`.
fn post<V, FA>(f: &FilteredGraph, x: &[V], x_prev: &[V], seed_vals: &[V], apply: &FA) -> Vec<V>
where
    V: PropValue,
    FA: Fn(NodeId, V) -> V + Sync,
{
    let r = f.num_regular();
    let sink_base = r + f.num_seed();
    let mut sink_vals = vec![V::identity(); f.num_sink()];
    let chunk = sink_vals
        .len()
        .div_ceil(mixen_pool::current_num_threads() * 4)
        .max(1);
    mixen_pool::par_chunks_mut(&mut sink_vals, chunk, |part, vals| {
        for (i, val) in vals.iter_mut().enumerate() {
            let k = part * chunk + i;
            let mut sum = V::identity();
            for &v in f.sink_csc().neighbors(nid(k)) {
                sum.combine(if (v as usize) < r {
                    x_prev[v as usize]
                } else {
                    seed_vals[v as usize - r]
                });
            }
            *val = apply(f.to_old(nid(sink_base + k)), sum);
        }
    });
    let mut out = vec![V::identity(); f.n()];
    for new in 0..f.n() {
        let old = f.to_old(nid(new));
        out[old as usize] = if new < r {
            x[new]
        } else if (sink_base..sink_base + sink_vals.len()).contains(&new) {
            sink_vals[new - sink_base]
        } else {
            apply(old, V::identity())
        };
    }
    out
}

/// Bytes one Scatter and one Gather call move, *computed* from array sizes
/// (cache misses and write-allocate traffic are not in it). Scatter reads
/// the regular property vector and the per-slot source index and writes the
/// dynamic bins, then re-primes the vector; Gather reads the bins, the
/// per-slot destination pointers and per-edge destinations, and reads and
/// writes the accumulator.
pub fn computed_bytes(
    blocked: &BlockedSubgraph,
    value_bytes: usize,
    slot_bytes: usize,
) -> (u64, u64) {
    let (r, slots, nnz) = (
        blocked.r() as u64,
        blocked.total_msg_slots() as u64,
        blocked.nnz() as u64,
    );
    let (v, b) = (value_bytes as u64, slot_bytes as u64);
    let scatter = r * v + slots * 4 + slots * b + r * v;
    let gather = slots * b + slots * 4 + nnz * 4 + 2 * r * v;
    (scatter, gather)
}
