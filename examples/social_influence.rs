//! Social-network influence analysis on a weibo-like graph — the workload
//! the paper's introduction motivates (§1: social network analysis).
//!
//! A microblog follower graph is extremely skewed: ~1 % of accounts
//! (celebrities) receive ~99 % of the follow edges, and 99 % of accounts
//! only follow (seed nodes). This example generates such a graph, shows why
//! it is Mixen's best case (α = 0.01), and ranks influencers with InDegree
//! and PageRank, cross-checking Mixen against the dense-pull baseline.
//!
//! ```sh
//! cargo run --release --example social_influence
//! ```

use mixen_algos::{indegree, pagerank, PageRankOpts};
use mixen_baselines::PullEngine;
use mixen_core::{MixenEngine, MixenOpts, PerfModel};
use mixen_graph::{Dataset, Scale, StructuralStats};
use std::time::Instant;

fn main() {
    let g = Dataset::Weibo.generate(Scale::Tiny, 7);
    let s = StructuralStats::of(&g);
    println!(
        "weibo-like follower graph: n = {}, m = {}, {:.1}% seeds, E_hub = {:.0}%",
        s.n,
        s.m,
        s.frac_seed * 100.0,
        s.e_hub * 100.0
    );

    let t = Instant::now();
    let engine = MixenEngine::new(&g, MixenOpts::default());
    println!(
        "mixen preprocessing: {:.3}s (filter {:.3}s + partition {:.3}s)",
        t.elapsed().as_secs_f64(),
        engine.filter_seconds(),
        engine.partition_seconds()
    );
    println!(
        "regular subgraph kept for iteration: {} of {} nodes (alpha = {:.3}), {} of {} edges (beta = {:.3})",
        engine.filtered().num_regular(),
        g.n(),
        engine.filtered().alpha(),
        engine.filtered().reg_nnz(),
        g.m(),
        engine.filtered().beta()
    );

    // §5 model: why weibo is the best case.
    let model = PerfModel::from_filtered(engine.filtered(), engine.blocked().block_side());
    println!(
        "per-iteration model: Mixen {:.1} MB vs Pull {:.1} MB of element traffic",
        model.mixen_traffic_bytes(4) / 1e6,
        model.pull_traffic() * 4.0 / 1e6
    );

    // Influencer rankings.
    let t = Instant::now();
    let followers = indegree(&engine);
    let rank = pagerank(&g, &engine, PageRankOpts::default(), 20);
    println!("ranking time: {:.3}s", t.elapsed().as_secs_f64());

    // Cross-check against the pull baseline.
    let pull = PullEngine::new(&g);
    let rank_pull = pagerank(&g, &pull, PageRankOpts::default(), 20);
    let drift = rank
        .iter()
        .zip(&rank_pull)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    assert!(drift < 1e-5, "engines disagree: {drift}");

    let mut top: Vec<(usize, f32, f32)> = (0..g.n()).map(|v| (v, followers[v], rank[v])).collect();
    top.sort_by(|a, b| b.2.total_cmp(&a.2));
    println!("top influencers (account, followers, pagerank):");
    for (v, fol, pr) in top.iter().take(5) {
        println!("  #{v:<8} {fol:>8.0} followers   pr = {pr:.5}");
    }
    // Influence concentrates: the top-5 hold a large share of total rank.
    let total: f32 = rank.iter().sum();
    let top5: f32 = top.iter().take(5).map(|t| t.2).sum();
    println!(
        "top-5 accounts hold {:.1}% of total rank mass",
        100.0 * top5 / total
    );
}
