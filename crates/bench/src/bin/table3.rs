//! Reproduces **Table 3**: graph-processing time in seconds per iteration
//! (BFS: whole traversal) for {InDegree, PageRank, Collaborative Filtering,
//! BFS} × 8 graphs × 5 frameworks, plus the cross-table speedup summary
//! (the paper: Mixen over GPOP/Ligra/Polymer/GraphMat by
//! 3.42×/7.81×/19.37×/7.74× on average).

use mixen_algos::{
    bfs, collaborative_filtering, default_root, indegree_iterated, pagerank, AnyEngine, CfOpts,
    EngineKind, PageRankOpts,
};
use mixen_bench::{geomean, time_per_iter, timed, BenchOpts};
use mixen_core::{Json, MixenOpts};
use mixen_graph::Graph;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Algo {
    InDegree,
    PageRank,
    Cf,
    Bfs,
}

impl Algo {
    const ALL: [Algo; 4] = [Algo::InDegree, Algo::PageRank, Algo::Cf, Algo::Bfs];

    fn name(self) -> &'static str {
        match self {
            Algo::InDegree => "InDegree",
            Algo::PageRank => "PageRank",
            Algo::Cf => "Collaborative Filtering",
            Algo::Bfs => "Breadth-First Search",
        }
    }
}

/// Seconds per iteration (BFS: per traversal) of `algo` on `engine`.
fn run(algo: Algo, g: &Graph, engine: &AnyEngine<'_>, iters: usize) -> f64 {
    match algo {
        Algo::InDegree => time_per_iter(iters, |n| {
            std::hint::black_box(indegree_iterated(engine, n));
        }),
        Algo::PageRank => time_per_iter(iters, |n| {
            std::hint::black_box(pagerank(g, engine, PageRankOpts::default(), n));
        }),
        Algo::Cf => time_per_iter(iters, |n| {
            std::hint::black_box(collaborative_filtering(
                g,
                engine,
                CfOpts {
                    blend: 0.5,
                    iters: n,
                },
            ));
        }),
        Algo::Bfs => {
            let root = default_root(g);
            let reps = (iters / 2).max(1);
            time_per_iter(reps, |n| {
                for _ in 0..n {
                    std::hint::black_box(bfs(engine, root));
                }
            })
        }
    }
}

fn main() {
    let opts = BenchOpts::from_args();
    let graphs: Vec<(String, Graph)> = opts
        .datasets
        .iter()
        .map(|&d| (d.name().to_string(), opts.gen(d)))
        .collect();

    // speedups[other_kind] collects Mixen_time / other_time per cell.
    let mut ratios: Vec<(EngineKind, Vec<f64>)> = EngineKind::ALL[1..]
        .iter()
        .map(|&k| (k, Vec::new()))
        .collect();

    let mut algos_json: Vec<Json> = Vec::new();
    for algo in Algo::ALL {
        println!("\n=== {} (seconds per iteration) ===", algo.name());
        print!("{:>9}", "Frwk");
        for (name, _) in &graphs {
            print!(" {name:>9}");
        }
        println!();
        let mut table: Vec<(EngineKind, Vec<f64>)> = Vec::new();
        for kind in EngineKind::ALL {
            let mut row = Vec::new();
            for (name, g) in &graphs {
                let (engine, build) = timed(|| AnyEngine::build(kind, g, MixenOpts::default()));
                let secs = run(algo, g, &engine, opts.iters);
                eprintln!(
                    "[table3] {} {} {}: {:.4}s/iter (build {:.2}s)",
                    algo.name(),
                    kind.name(),
                    name,
                    secs,
                    build
                );
                row.push(secs);
            }
            table.push((kind, row));
        }
        for (kind, row) in &table {
            print!("{:>9}", kind.name());
            for secs in row {
                print!(" {secs:>9.4}");
            }
            println!();
        }
        // Accumulate Mixen-vs-other ratios for the summary.
        let mixen_row = table[0].1.clone();
        for (kind, row) in &table[1..] {
            let slot = ratios.iter_mut().find(|(k, _)| k == kind).unwrap();
            for (o, m) in row.iter().zip(&mixen_row) {
                if *m > 0.0 {
                    slot.1.push(o / m);
                }
            }
        }
        // One row object per framework: seconds/iteration keyed by graph name.
        algos_json.push(Json::Obj(vec![
            ("algo".into(), Json::Str(algo.name().into())),
            (
                "rows".into(),
                Json::Arr(
                    table
                        .iter()
                        .map(|(kind, row)| {
                            Json::Obj(vec![
                                ("framework".into(), Json::Str(kind.name().into())),
                                (
                                    "seconds_per_iter".into(),
                                    Json::Obj(
                                        graphs
                                            .iter()
                                            .zip(row)
                                            .map(|((name, _), &secs)| {
                                                (name.clone(), Json::from_f64(secs))
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]));
    }

    println!("\n=== Average speedup of Mixen over each framework ===");
    println!("(paper: GPOP 3.42x, Ligra 7.81x, Polymer 19.37x, GraphMat 7.74x)");
    let mut speedups_json: Vec<(String, Json)> = Vec::new();
    for (kind, r) in &ratios {
        let arith = r.iter().sum::<f64>() / r.len().max(1) as f64;
        println!(
            "  vs {:>9}: {:.2}x arithmetic mean, {:.2}x geometric mean over {} cells",
            kind.name(),
            arith,
            geomean(r),
            r.len()
        );
        speedups_json.push((
            kind.name().to_string(),
            Json::Obj(vec![
                ("arithmetic_mean".into(), Json::from_f64(arith)),
                ("geometric_mean".into(), Json::from_f64(geomean(r))),
                ("cells".into(), Json::from_u64(r.len() as u64)),
            ]),
        ));
    }
    opts.write_json_sidecar(
        "table3",
        vec![
            ("algos".into(), Json::Arr(algos_json)),
            ("speedups_vs_mixen".into(), Json::Obj(speedups_json)),
        ],
    );
}
