//! Quickstart: build a graph, preprocess it with Mixen, run PageRank, and
//! inspect what the connectivity filter discovered.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use mixen_algos::{pagerank, pagerank_until, PageRankOpts};
use mixen_core::{MixenEngine, MixenOpts, RegularOrdering, ReorderChoice};
use mixen_graph::{Graph, StructuralStats};

fn main() {
    // A small web: 0-2 form a cycle (regular nodes), 3 and 4 only link out
    // (seeds), 5 only receives (sink), 6 is isolated.
    let g = Graph::from_pairs(
        7,
        &[
            (0, 1),
            (1, 2),
            (2, 0),
            (3, 0),
            (3, 2),
            (4, 1),
            (1, 5),
            (2, 5),
        ],
    );

    let stats = StructuralStats::of(&g);
    println!("graph: n = {}, m = {}", stats.n, stats.m);
    println!(
        "classes: {:.0}% regular, {:.0}% seed, {:.0}% sink, {:.0}% isolated",
        stats.frac_regular * 100.0,
        stats.frac_seed * 100.0,
        stats.frac_sink * 100.0,
        stats.frac_isolated * 100.0
    );

    // Preprocess: one scan classifies + relabels, then 2-D blocking. The
    // relabel policy is selectable (`MixenOpts::ordering`, or `--reorder`
    // on the CLI); `ReorderChoice::Auto` lets the §5 performance model pick
    // one from the measured (α, β, hub fraction).
    let engine = MixenEngine::new(
        &g,
        MixenOpts {
            ordering: ReorderChoice::Auto.resolve(&g),
            ..MixenOpts::default()
        },
    );
    let f = engine.filtered();
    println!(
        "reorder: model picked '{}' (relabel took {:.1} µs)",
        f.ordering().name(),
        f.relabel_seconds() * 1e6
    );
    // A fixed policy works too, e.g. Degree-Based Grouping:
    let _dbg_engine = MixenEngine::new(
        &g,
        MixenOpts {
            ordering: RegularOrdering::Dbg,
            ..MixenOpts::default()
        },
    );
    println!(
        "filter: {} regular ({} hubs) / {} seed / {} sink / {} isolated; alpha = {:.2}, beta = {:.2}",
        f.num_regular(),
        f.num_hub(),
        f.num_seed(),
        f.num_sink(),
        f.num_isolated(),
        f.alpha(),
        f.beta()
    );

    // Fixed-iteration PageRank (the paper's timing configuration) ...
    let scores = pagerank(&g, &engine, PageRankOpts::default(), 20);
    // ... and the convergence-driven variant.
    let (converged, iters) = pagerank_until(&g, &engine, PageRankOpts::default(), 1e-9, 100);
    println!("pagerank converged in {iters} iterations");

    let mut ranked: Vec<(usize, f32)> = scores.iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("top nodes by PageRank:");
    for (node, score) in ranked.iter().take(3) {
        println!("  node {node}: {score:.4}");
    }
    let drift: f32 = scores
        .iter()
        .zip(&converged)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f32::max);
    println!("max drift between 20 fixed iterations and convergence: {drift:.2e}");
}
