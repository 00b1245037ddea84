//! Rank snapshots and the resident ranking loop.
//!
//! The ranking thread owns a [`MixenEngine`] and a
//! [`mixen_algos::PageRankStream`], advances a few iterations at a time,
//! and publishes the scores through [`SnapCell`] — the atomic swap point
//! request workers read from. Readers therefore never block on ranking and
//! ranking never blocks on readers; the snapshot a worker holds stays
//! immutable for as long as it keeps the `Arc`.

use std::sync::Arc;
use std::time::Duration;

use mixen_algos::{PageRankOpts, PageRankStream};
use mixen_core::{Json, MetricsSnapshot, MixenEngine, SnapCell};
use mixen_graph::Graph;

use crate::server::Shared;

/// One immutable published state of the ranking computation.
#[derive(Debug)]
pub struct RankSnapshot {
    /// Per-node scores, indexed by original node ID.
    pub scores: Vec<f32>,
    /// Total PageRank iterations folded into these scores.
    pub iterations: usize,
    /// Max-norm score change of the last iteration of the refresh batch.
    pub residual: f64,
    /// Whether the residual fell to the configured tolerance.
    pub converged: bool,
    /// Engine counters at publish time, merged into `/metrics`.
    pub engine_counters: MetricsSnapshot,
}

impl RankSnapshot {
    /// The pre-first-publish placeholder. [`crate::Server::start`] blocks
    /// until the ranking loop replaces it, so requests never observe it.
    pub(crate) fn empty(n: usize) -> Self {
        Self {
            scores: vec![0.0; n],
            iterations: 0,
            residual: f64::INFINITY,
            converged: false,
            engine_counters: MetricsSnapshot::default(),
        }
    }

    /// The snapshot header every scoring endpoint embeds in its response.
    pub fn meta_json(&self, version: u64) -> Vec<(String, Json)> {
        vec![
            ("snapshot_version".into(), Json::from_u64(version)),
            ("iterations".into(), Json::from_u64(self.iterations as u64)),
            ("residual".into(), Json::from_f64(self.residual)),
            ("converged".into(), Json::Bool(self.converged)),
        ]
    }
}

/// The resident ranking loop: advance → publish → repeat, until converged
/// or at the iteration cap, then idle; exits when shutdown is requested.
pub(crate) fn ranking_loop(shared: &Shared, graph: &Arc<Graph>, cell: &SnapCell<RankSnapshot>) {
    let opts = &shared.opts;
    let engine = MixenEngine::new(graph, opts.mixen);
    let pr_opts = PageRankOpts {
        damping: opts.damping,
    };
    let mut stream = PageRankStream::new(graph, &engine, pr_opts);
    let refresh = opts.refresh_iters.max(1);
    let max_iters = opts.max_iters.max(refresh);
    let mut converged = false;
    loop {
        if shared.shutdown_requested() {
            return;
        }
        if converged || stream.iterations() >= max_iters {
            // Steady state: nothing to compute, keep the snapshot live and
            // watch for shutdown.
            std::thread::sleep(Duration::from_millis(20));
            continue;
        }
        let batch = refresh.min(max_iters - stream.iterations());
        // A batch's change is no bound on its last step's (a period-2
        // component swings back and forth within one batch), so the stop
        // rule reads the last step alone.
        stream.advance(batch - 1);
        let residual = stream.advance(1);
        converged = residual <= opts.tol;
        cell.publish(Arc::new(RankSnapshot {
            scores: stream.scores(),
            iterations: stream.iterations(),
            residual,
            converged,
            engine_counters: engine.metrics().snapshot(),
        }));
        shared.metrics.snapshot_swaps.inc();
    }
}
