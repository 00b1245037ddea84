//! Reproduces **Table 4**: preprocessing overheads in seconds.
//!
//! Ligra/Polymer/GraphMat convert a graph from an edge list into their own
//! formats (here: CSR + CSC construction plus each engine's build); GPOP
//! and Mixen ingest a prebuilt CSR binary, so only their partitioning /
//! filtering cost counts. Mixen's total is split into Filter and Partition,
//! as in the paper.

use mixen_baselines::{BlockEngine, PartitionedEngine, PullEngine, PushEngine};
use mixen_bench::{timed, BenchOpts};
use mixen_core::{MixenEngine, MixenOpts};
use mixen_graph::{EdgeList, Graph};

fn main() {
    let opts = BenchOpts::from_args();
    println!("Table 4: preprocessing overheads (seconds)");
    println!(
        "{:>8}  {:>7} {:>7} {:>8} {:>9}  {:>7} {:>9} {:>7}",
        "graph", "GPOP", "Ligra", "Polymer", "GraphMat", "Filter", "Partition", "Mixen"
    );
    for d in &opts.datasets {
        let g = opts.gen(*d);
        // Edge-list-based frameworks rebuild from raw pairs.
        let pairs: Vec<(u32, u32)> = g.edges().collect();
        let n = g.n();

        let (_, ligra) = timed(|| {
            let converted = Graph::from_edge_list(&EdgeList::from_pairs(n, pairs.clone()));
            // Ligra keeps both directions (its bottom-up BFS pulls).
            converted.in_csc();
            let e = PushEngine::new(&converted);
            std::hint::black_box(&e);
            converted
        });
        let (_, polymer) = timed(|| {
            let converted = Graph::from_edge_list(&EdgeList::from_pairs(n, pairs.clone()));
            let e = PartitionedEngine::with_default_partitions(&converted);
            std::hint::black_box(e.partitions());
            converted
        });
        let (_, graphmat) = timed(|| {
            let converted = Graph::from_edge_list(&EdgeList::from_pairs(n, pairs.clone()));
            let e = PullEngine::new(&converted);
            std::hint::black_box(&e);
            converted
        });
        // CSR-binary-based frameworks start from the existing Graph.
        let (gpop_engine, gpop) = timed(|| BlockEngine::with_default_blocks(&g));
        std::hint::black_box(gpop_engine.blocked().nnz());
        let (mixen_engine, _) = timed(|| MixenEngine::new(&g, MixenOpts::default()));
        let filter = mixen_engine.filter_seconds();
        let partition = mixen_engine.partition_seconds();

        println!(
            "{:>8}  {:>7.3} {:>7.3} {:>8.3} {:>9.3}  {:>7.3} {:>9.3} {:>7.3}",
            d.name(),
            gpop,
            ligra,
            polymer,
            graphmat,
            filter,
            partition,
            filter + partition,
        );
    }
    println!(
        "\nNote: edge-list conversion here is in-memory CSR+CSC building; the\n\
         paper's frameworks additionally parse/convert on-disk formats, which\n\
         inflates their absolute numbers. The ordering (conversion >> blocking\n\
         >= filtering+partitioning per edge) is the comparable shape."
    );
}
