//! Weighted-graph workloads: travel-time routing on a road network and
//! weighted influence propagation — the semiring extension of the SpMV
//! formulation (DESIGN.md: `(min,+)` for shortest paths, `(+,×)` for
//! weighted SpMV), running on the weighted Mixen engine.
//!
//! ```sh
//! cargo run --release --example logistics_routing
//! ```

use mixen_algos::{dijkstra, sssp, weighted_spmv};
use mixen_core::{MixenEngine, MixenOpts};
use mixen_graph::{Dataset, Scale, WGraph};
use std::time::Instant;

fn main() {
    // A road network whose edges carry travel times (minutes).
    let g = Dataset::Road.generate(Scale::Tiny, 19);
    let roads = WGraph::with_hash_weights(&g, 1.0, 10.0, 3);
    println!(
        "road network: {} intersections, {} road segments, travel times 1-10 min",
        roads.n(),
        roads.m()
    );

    let t = Instant::now();
    let engine = MixenEngine::try_weighted(&roads, MixenOpts::default())
        .expect("a generated road network preprocesses cleanly");
    println!("weighted preprocessing: {:.3}s", t.elapsed().as_secs_f64());

    // Depot = a busy junction; compute travel times to everywhere.
    let depot = (0..roads.n() as u32)
        .max_by_key(|&v| g.out_degree(v))
        .unwrap();
    let t = Instant::now();
    let times = sssp(&engine, depot, 100_000);
    println!(
        "sssp from depot {depot}: {:.3}s (Bellman-Ford rounds over the blocked engine)",
        t.elapsed().as_secs_f64()
    );

    // Validate against Dijkstra.
    let oracle = dijkstra(&roads, depot);
    let max_dev = times
        .iter()
        .zip(&oracle)
        .filter(|(a, b)| a.is_finite() && b.is_finite())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    assert!(max_dev < 1e-3, "deviation vs Dijkstra: {max_dev}");
    println!("verified against serial Dijkstra (max deviation {max_dev:.1e})");

    let reachable: Vec<f32> = times.iter().copied().filter(|t| t.is_finite()).collect();
    let mean = reachable.iter().sum::<f32>() / reachable.len() as f32;
    let max = reachable.iter().copied().fold(0.0f32, f32::max);
    println!(
        "coverage: {} of {} intersections reachable, mean travel {mean:.0} min, farthest {max:.0} min",
        reachable.len(),
        roads.n()
    );
    // Delivery-window histogram.
    let windows = [30.0f32, 60.0, 120.0, 240.0, f32::INFINITY];
    let mut prev = 0.0;
    for &w in &windows {
        let count = reachable.iter().filter(|&&t| t > prev && t <= w).count();
        let label = if w.is_finite() {
            format!("<= {w:>4.0} min")
        } else {
            "beyond".into()
        };
        println!("  {label:>12}: {count:>6} stops");
        prev = w;
    }

    // Weighted influence: one weighted SpMV spreads depot capacity along
    // road quality (1/time as conductance).
    let conductance = WGraph::from_graph(&g, |u, v| 1.0 / roads.weight(u, v).unwrap_or(1.0));
    let engine2 = MixenEngine::try_weighted(&conductance, MixenOpts::default())
        .expect("same topology, so preprocessing succeeds again");
    let mut x = vec![0.0f32; roads.n()];
    x[depot as usize] = 100.0;
    let spread = weighted_spmv(&engine2, &x);
    let direct: Vec<(usize, f32)> = spread
        .iter()
        .copied()
        .enumerate()
        .filter(|&(_, s)| s > 0.0)
        .collect();
    println!(
        "\nweighted SpMV: depot capacity reaches {} direct neighbours; strongest link gets {:.1} units",
        direct.len(),
        direct.iter().map(|&(_, s)| s).fold(0.0f32, f32::max)
    );
}
