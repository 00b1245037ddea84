//! Reproduces **Fig. 4**: normalized execution time (bars) and normalized
//! memory traffic (dots) of Mixen vs its Block and Pull variants, PageRank
//! per iteration. Traffic comes from the cache-simulator twins; time from
//! the real engines. Everything is normalized to Mixen (= 1.0).

use mixen_algos::{pagerank, AnyEngine, EngineKind, PageRankOpts};
use mixen_bench::{time_per_iter, BenchOpts};
use mixen_cachesim::{trace_block, trace_mixen, trace_pull, CacheConfig};
use mixen_core::{MixenEngine, MixenOpts};

fn main() {
    let opts = BenchOpts::from_args();
    let cfg = CacheConfig::scaled_paper_aggregate(opts.divisor(), 20);
    println!("Fig 4: normalized execution time / normalized memory traffic (Mixen = 1.0)");
    println!(
        "{:>8}  {:>12} {:>12} {:>12}  {:>12} {:>12} {:>12}  {:>11}",
        "graph",
        "t(Mixen)",
        "t(Block)",
        "t(Pull)",
        "mem(Mixen)",
        "mem(Block)",
        "mem(Pull)",
        "pull MB/it"
    );
    println!("(time normalized to Mixen; traffic normalized to Pull)");
    for d in &opts.datasets {
        let g = opts.gen(*d);

        // Execution time per PageRank iteration.
        let mut times = Vec::new();
        for kind in [EngineKind::Mixen, EngineKind::Gpop, EngineKind::GraphMat] {
            let engine = AnyEngine::build(kind, &g, MixenOpts::default());
            let secs = time_per_iter(opts.iters, |n| {
                std::hint::black_box(pagerank(&g, &engine, PageRankOpts::default(), n));
            });
            times.push(secs);
        }

        // Memory traffic from the instrumented twins.
        let mixen_engine = MixenEngine::new(&g, MixenOpts::default());
        let block_engine = mixen_baselines::BlockEngine::with_default_blocks(&g);
        let traffic = [
            trace_mixen(&mixen_engine, &cfg).dram_bytes() as f64,
            trace_block(&g, block_engine.blocked(), &cfg).dram_bytes() as f64,
            trace_pull(&g, &cfg).dram_bytes() as f64,
        ];

        let tn = mixen_bench::normalize(&times);
        // Normalize traffic against Pull (always nonzero); Mixen's traffic
        // can legitimately be zero when the regular working set fits the
        // scaled LLC (weibo at tiny scales).
        let pull_traffic = traffic[2].max(64.0);
        println!(
            "{:>8}  {:>12.2} {:>12.2} {:>12.2}  {:>12.2} {:>12.2} {:>12.2}  {:>9.2}MB",
            d.name(),
            tn[0],
            tn[1],
            tn[2],
            traffic[0] / pull_traffic,
            traffic[1] / pull_traffic,
            traffic[2] / pull_traffic,
            pull_traffic / 1e6,
        );
    }
    println!(
        "\nExpected shape (paper): Mixen lowest on both axes for skewed graphs;\n\
         Pull's traffic highest except on road, where Pull beats Block."
    );
}
