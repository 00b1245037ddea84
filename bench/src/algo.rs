//! The two algorithms the benchmark drives, through the public entry
//! points users call, plus the per-node terms the staged pipeline needs to
//! issue the same recurrence layer by layer.

use std::borrow::Cow;

use mixen_algos::cf::anchor;
use mixen_algos::{
    collaborative_filtering, pagerank, pagerank_until, CfOpts, Engine, PageRankOpts, LATENT_DIM,
};
use mixen_graph::{nid, Graph, NodeId};

use crate::catalogue::Algo;

/// Iteration cap of the run to tolerance.
pub const MAX_ITERS: usize = 500;
/// Rounds of the collaborative-filtering run.
pub const CF_ROUNDS: usize = 10;
/// Ranks reported at the end of a run.
pub const TOP: usize = 100;

/// PageRank stops when no propagated value moved by more than this.
pub fn tolerance(g: &Graph) -> f64 {
    1e-5 / g.n().max(1) as f64
}

/// The per-node result of one run.
#[derive(Clone, Debug, PartialEq)]
pub enum Output {
    Scores(Vec<f32>),
    Latent(Vec<[f32; LATENT_DIM]>),
}

impl Output {
    /// Every `f32` lane of the result, for value-by-value comparison.
    pub fn lanes(&self) -> &[f32] {
        match self {
            Output::Scores(s) => s,
            Output::Latent(l) => l.as_flattened(),
        }
    }

    /// One ranking score per node: the PageRank score, or the sum of the
    /// latent vector.
    pub fn scores(&self) -> Cow<'_, [f32]> {
        match self {
            Output::Scores(s) => Cow::Borrowed(s),
            Output::Latent(l) => Cow::Owned(l.iter().map(|v| v.iter().sum()).collect()),
        }
    }
}

fn cf_opts(iters: usize) -> CfOpts {
    CfOpts {
        iters,
        ..CfOpts::default()
    }
}

/// `iters` iterations from the initial state.
pub fn run_fixed<E: Engine>(algo: Algo, g: &Graph, engine: &E, iters: usize) -> Output {
    match algo {
        Algo::PageRank => Output::Scores(pagerank(g, engine, PageRankOpts::default(), iters)),
        Algo::Cf => Output::Latent(collaborative_filtering(g, engine, cf_opts(iters))),
    }
}

/// The run a user waits for: PageRank to tolerance, or ten CF rounds.
/// Returns the result and the iterations performed.
pub fn run_to_ranks<E: Engine>(algo: Algo, g: &Graph, engine: &E) -> (Output, usize) {
    match algo {
        Algo::PageRank => {
            let (scores, iters) =
                pagerank_until(g, engine, PageRankOpts::default(), tolerance(g), MAX_ITERS);
            (Output::Scores(scores), iters)
        }
        Algo::Cf => (run_fixed(algo, g, engine, CF_ROUNDS), CF_ROUNDS),
    }
}

/// PageRank's `init`/`apply` as `mixen_algos::pagerank` builds them
/// (propagated value = rank ÷ out-degree). The staged pipeline's output is
/// compared bit for bit with the public entry point, which keeps these in
/// step.
pub struct PageRankTerms {
    out_deg: Vec<u32>,
    in_zero: Vec<bool>,
    n: f32,
    base: f32,
    damping: f32,
}

impl PageRankTerms {
    pub fn new(g: &Graph) -> Self {
        let n = g.n().max(1) as f32;
        let damping = PageRankOpts::default().damping;
        Self {
            out_deg: (0..nid(g.n()))
                .map(|v| nid(g.out_degree(v).max(1)))
                .collect(),
            in_zero: (0..nid(g.n())).map(|v| g.in_degree(v) == 0).collect(),
            n,
            base: (1.0 - damping) / n,
            damping,
        }
    }

    pub fn init(&self, v: NodeId) -> f32 {
        let rank0 = if self.in_zero[v as usize] {
            self.base
        } else {
            1.0 / self.n
        };
        rank0 / self.out_deg[v as usize] as f32
    }

    pub fn apply(&self, v: NodeId, sum: f32) -> f32 {
        (self.base + self.damping * sum) / self.out_deg[v as usize] as f32
    }

    /// Propagated values back to ranks.
    pub fn scores(&self, vals: &[f32]) -> Vec<f32> {
        vals.iter()
            .zip(&self.out_deg)
            .map(|(&p, &odeg)| p * odeg as f32)
            .collect()
    }
}

/// Collaborative filtering's `init`/`apply` as
/// `mixen_algos::collaborative_filtering` builds them.
pub struct CfTerms {
    in_deg: Vec<f32>,
    in_zero: Vec<bool>,
    blend: f32,
}

impl CfTerms {
    pub fn new(g: &Graph) -> Self {
        Self {
            in_deg: (0..nid(g.n()))
                .map(|v| g.in_degree(v).max(1) as f32)
                .collect(),
            in_zero: (0..nid(g.n())).map(|v| g.in_degree(v) == 0).collect(),
            blend: CfOpts::default().blend,
        }
    }

    pub fn init(&self, v: NodeId) -> [f32; LATENT_DIM] {
        let a = anchor(v);
        if self.in_zero[v as usize] {
            std::array::from_fn(|k| (1.0 - self.blend) * a[k])
        } else {
            a
        }
    }

    pub fn apply(&self, v: NodeId, sum: [f32; LATENT_DIM]) -> [f32; LATENT_DIM] {
        let a = anchor(v);
        let scale = self.blend / self.in_deg[v as usize];
        std::array::from_fn(|k| scale * sum[k] + (1.0 - self.blend) * a[k])
    }
}
