//! End-to-end pipeline tests: generate → serialize → reload → preprocess →
//! analyze, plus consistency between the analytic model, the structural
//! statistics and the cache-simulator twins.

use mixen_algos::{collaborative_filtering, pagerank, pagerank_until, top_k, CfOpts, PageRankOpts};
use mixen_baselines::{PullEngine, ReferenceEngine};
use mixen_cachesim::{trace_mixen, trace_pull, CacheConfig};
use mixen_core::{MixenEngine, MixenOpts, PerfModel};
use mixen_graph::{io, Dataset, Scale, StructuralStats};

#[test]
fn the_cold_mixen_path_never_builds_the_in_csc() {
    let dir = std::env::temp_dir().join("mixen_pipeline_lazy_csc");
    std::fs::create_dir_all(&dir).unwrap();
    for d in [Dataset::Pld, Dataset::Weibo, Dataset::Urand] {
        let path = dir.join(format!("{}.mxg", d.name()));
        io::save(&d.generate(Scale::Tiny, 13), &path).unwrap();
        let g = io::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let engine = MixenEngine::new(&g, MixenOpts::default());
        let (scores, _) = pagerank_until(&g, &engine, PageRankOpts::default(), 1e-6, 50);
        let top = top_k(&scores, 10);
        let cf = collaborative_filtering(&g, &engine, CfOpts::default());
        assert_eq!(top.len(), 10.min(g.n()));
        assert_eq!(cf.len(), g.n());
        assert!(
            !g.has_in_csc(),
            "{}: the Mixen path built the in-CSC",
            d.name()
        );
        // The pull baseline pays for it, once.
        let pull = PullEngine::new(&g);
        assert!(g.has_in_csc() && pull.build_seconds() > 0.0, "{}", d.name());
    }
}

#[test]
fn save_load_analyze_roundtrip() {
    let g = Dataset::Track.generate(Scale::Tiny, 31);
    let dir = std::env::temp_dir().join("mixen_pipeline_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("track.mxg");
    io::save(&g, &path).unwrap();
    let loaded = io::load(&path).unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(g.out_csr(), loaded.out_csr());
    assert_eq!(g.in_csc(), loaded.in_csc());

    // Analysis on the reloaded graph matches the original bit-for-bit.
    let a = pagerank(
        &g,
        &MixenEngine::new(&g, MixenOpts::default()),
        PageRankOpts::default(),
        5,
    );
    let b = pagerank(
        &loaded,
        &MixenEngine::new(&loaded, MixenOpts::default()),
        PageRankOpts::default(),
        5,
    );
    assert_eq!(a, b);
}

#[test]
fn text_edge_list_roundtrip_preserves_analysis() {
    let g = Dataset::Rmat.generate(Scale::Tiny, 3);
    let mut buf = Vec::new();
    io::write_edge_list(&g, &mut buf).unwrap();
    let loaded = io::read_edge_list(buf.as_slice(), g.n()).unwrap();
    let a = pagerank(&g, &ReferenceEngine::new(&g), PageRankOpts::default(), 3);
    let b = pagerank(
        &loaded,
        &ReferenceEngine::new(&loaded),
        PageRankOpts::default(),
        3,
    );
    assert_eq!(a, b);
}

#[test]
fn model_and_stats_and_filter_agree() {
    for d in [Dataset::Weibo, Dataset::Wiki, Dataset::Urand] {
        let g = d.generate(Scale::Tiny, 17);
        let stats = StructuralStats::of(&g);
        let engine = MixenEngine::new(&g, MixenOpts::default());
        let f = engine.filtered();
        assert!((f.alpha() - stats.alpha).abs() < 1e-12, "{}", d.name());
        assert!((f.beta() - stats.beta).abs() < 1e-12, "{}", d.name());
        let model = PerfModel::from_filtered(f, engine.blocked().block_side());
        // Blocked structure realizes exactly m̃ edges (float round-off from
        // the beta*m product aside).
        assert!((engine.blocked().nnz() as f64 - model.m_tilde()).abs() < 1e-6);
        // Block count matches the model's b (per dimension).
        assert_eq!(engine.blocked().n_col_blocks() as f64, model.b());
    }
}

#[test]
fn simulated_traffic_tracks_the_model_ordering() {
    // Across graphs with very different alpha/beta, the simulator and the
    // Eq.(1) model must order Mixen-vs-Pull the same way.
    let cfg = CacheConfig::scaled_paper(1024);
    for d in [Dataset::Weibo, Dataset::Wiki, Dataset::Urand] {
        let g = d.generate(Scale::Tiny, 23);
        let engine = MixenEngine::new(&g, MixenOpts::default());
        let model = PerfModel::from_filtered(engine.filtered(), engine.blocked().block_side());
        let model_says_mixen_cheaper = model.mixen_traffic() < model.pull_traffic();
        let sim_mixen = trace_mixen(&engine, &cfg).logical_bytes;
        let sim_pull = trace_pull(&g, &cfg).logical_bytes;
        let sim_says_mixen_cheaper = sim_mixen < sim_pull;
        assert_eq!(
            model_says_mixen_cheaper,
            sim_says_mixen_cheaper,
            "{}: model {} vs {}, sim {} vs {}",
            d.name(),
            model.mixen_traffic(),
            model.pull_traffic(),
            sim_mixen,
            sim_pull
        );
    }
}

#[test]
fn dram_traffic_shape_weibo_vs_urand() {
    // The paper's headline (Fig. 4): Mixen's advantage is largest on weibo
    // (alpha = 0.01) and absent on undirected all-regular graphs.
    let cfg = CacheConfig::scaled_paper(1024);

    let weibo = Dataset::Weibo.generate(Scale::Tiny, 29);
    let e = MixenEngine::new(&weibo, MixenOpts::default());
    let ratio_weibo = trace_mixen(&e, &cfg).dram_bytes() as f64
        / trace_pull(&weibo, &cfg).dram_bytes().max(1) as f64;

    let urand = Dataset::Urand.generate(Scale::Tiny, 29);
    let e = MixenEngine::new(&urand, MixenOpts::default());
    let ratio_urand = trace_mixen(&e, &cfg).dram_bytes() as f64
        / trace_pull(&urand, &cfg).dram_bytes().max(1) as f64;

    assert!(
        ratio_weibo < 0.5,
        "weibo: Mixen/Pull traffic ratio {ratio_weibo}"
    );
    assert!(
        ratio_weibo < ratio_urand,
        "advantage must shrink as alpha -> 1: {ratio_weibo} vs {ratio_urand}"
    );
}
