//! Link-analysis algorithms over pluggable engines.
//!
//! The paper evaluates InDegree, PageRank, Collaborative Filtering and BFS
//! (§6.1) on five frameworks; §2.2 additionally discusses HITS and SALSA.
//! This crate writes each algorithm **once** against the [`Engine`] trait,
//! so the exact same algorithm code runs on Mixen and on every baseline —
//! the differences measured by the benchmarks are purely in the engines'
//! execution strategies.
//!
//! [`Engine`] is `mixen_core::Engine`, re-exported: the one synchronous
//! contract (`x'[v] = apply(v, Σ_{u→v} x[u])` plus BFS) that `MixenEngine`
//! and every baseline implement directly, with `run` and `bfs` required
//! and `iterate` / `iterate_until` provided. It makes their outputs
//! comparable value for value; the integration tests exploit this to
//! cross-check every engine × algorithm pair against the serial reference.

#![forbid(unsafe_code)]

pub mod bfs;
pub mod cc;
pub mod cf;
pub mod engine;
pub mod hits;
pub mod indegree;
pub mod pagerank;
pub mod ranking;
pub mod salsa;
pub mod sssp;

pub use bfs::{bfs, default_root, summarize};
pub use cc::connected_components;
pub use cf::{collaborative_filtering, CfOpts, LATENT_DIM};
pub use engine::{AnyEngine, Engine, EngineKind};
pub use hits::{hits, HitsScores};
pub use indegree::{indegree, indegree_iterated, spmv};
pub use pagerank::{
    pagerank, pagerank_fingerprint_extra, pagerank_supervised, pagerank_supervised_resume,
    pagerank_until, PageRankOpts, PageRankStream,
};
pub use ranking::{kendall_tau, kendall_tau_sampled, top_k, top_k_overlap};
pub use salsa::{salsa, SalsaScores};
pub use sssp::{dijkstra, sssp, sssp_pull, weighted_spmv};
