//! End-to-end tests of the CLI subcommands through their library entry
//! points (no process spawning): generate → stats → rank → bfs → convert
//! over temp files, plus error paths. A final section spawns the real
//! `mixen` binary to pin down the exit-code contract (0/1/2).

use mixen_cli::args::Args;
use mixen_cli::commands;
use mixen_cli::error::CliError;

fn args(s: &str) -> Args {
    Args::parse(s.split_whitespace().map(String::from)).unwrap()
}

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mixen_cli_test_{name}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn gen_stats_rank_bfs_pipeline() {
    let dir = tmpdir("pipeline");
    let mxg = dir.join("g.mxg");
    let scores = dir.join("scores.tsv");
    let mxg_s = mxg.to_str().unwrap();

    commands::gen::run(&args(&format!(
        "--dataset track --scale tiny --seed 5 --out {mxg_s}"
    )))
    .unwrap();
    assert!(mxg.exists());

    commands::stats::run(&args(mxg_s)).unwrap();

    commands::rank::run(&args(&format!(
        "{mxg_s} --algo pagerank --engine gpop --iters 5 --top 3 --out {}",
        scores.to_str().unwrap()
    )))
    .unwrap();
    let body = std::fs::read_to_string(&scores).unwrap();
    assert!(body.starts_with("# node\tpagerank"));
    // One line per node plus header.
    let g = mixen_graph::io::load(&mxg).unwrap();
    assert_eq!(body.lines().count(), g.n() + 1);

    commands::bfs::run(&args(&format!("{mxg_s} --engine ligra"))).unwrap();

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn convert_roundtrip_is_identical() {
    let dir = tmpdir("convert");
    let mxg = dir.join("a.mxg");
    let txt = dir.join("a.txt");
    let back = dir.join("b.mxg");
    commands::gen::run(&args(&format!(
        "--dataset rmat --scale tiny --seed 2 --out {}",
        mxg.to_str().unwrap()
    )))
    .unwrap();
    commands::convert::run(&args(&format!(
        "{} {}",
        mxg.to_str().unwrap(),
        txt.to_str().unwrap()
    )))
    .unwrap();
    commands::convert::run(&args(&format!(
        "{} {}",
        txt.to_str().unwrap(),
        back.to_str().unwrap()
    )))
    .unwrap();
    let a = std::fs::read(&mxg).unwrap();
    let b = std::fs::read(&back).unwrap();
    assert_eq!(a, b, "binary -> text -> binary must be lossless");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_algo_and_engine_combination_runs() {
    let dir = tmpdir("matrix");
    let mxg = dir.join("g.mxg");
    let mxg_s = mxg.to_str().unwrap();
    commands::gen::run(&args(&format!(
        "--dataset wiki --scale tiny --seed 8 --out {mxg_s}"
    )))
    .unwrap();
    for algo in ["indegree", "pagerank", "hits", "salsa", "cf"] {
        for engine in ["mixen", "gpop", "ligra", "polymer", "graphmat"] {
            commands::rank::run(&args(&format!(
                "{mxg_s} --algo {algo} --engine {engine} --iters 2 --top 1"
            )))
            .unwrap_or_else(|e| panic!("{algo}/{engine}: {e}"));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn error_paths_are_reported() {
    assert!(commands::gen::run(&args("--dataset nope --out /tmp/x.mxg")).is_err());
    assert!(
        commands::gen::run(&args("--dataset wiki")).is_err(),
        "--out required"
    );
    assert!(commands::stats::run(&args("/nonexistent/file.mxg")).is_err());
    assert!(commands::rank::run(&args("/nonexistent.mxg")).is_err());
    assert!(commands::convert::run(&args("only_one_arg")).is_err());

    let dir = tmpdir("errors");
    let mxg = dir.join("g.mxg");
    let mxg_s = mxg.to_str().unwrap();
    commands::gen::run(&args(&format!(
        "--dataset urand --scale tiny --out {mxg_s}"
    )))
    .unwrap();
    assert!(commands::rank::run(&args(&format!("{mxg_s} --algo nope"))).is_err());
    assert!(commands::rank::run(&args(&format!("{mxg_s} --engine nope"))).is_err());
    assert!(commands::bfs::run(&args(&format!("{mxg_s} --root 999999999"))).is_err());
    assert!(
        commands::rank::run(&args(&format!("{mxg_s} --bogus 1"))).is_err(),
        "unknown flags must be rejected"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn errors_pick_the_right_channel() {
    // Bad command lines are usage errors; broken inputs are runtime errors.
    assert!(matches!(
        commands::gen::run(&args("--dataset nope --out /tmp/x.mxg")),
        Err(CliError::Usage(_))
    ));
    assert!(matches!(
        commands::convert::run(&args("only_one_arg")),
        Err(CliError::Usage(_))
    ));
    assert!(matches!(
        commands::stats::run(&args("/nonexistent/file.mxg")),
        Err(CliError::Runtime(_))
    ));

    let dir = tmpdir("channels");
    let mxg = dir.join("g.mxg");
    let mxg_s = mxg.to_str().unwrap();
    commands::gen::run(&args(&format!(
        "--dataset urand --scale tiny --out {mxg_s}"
    )))
    .unwrap();
    assert!(matches!(
        commands::rank::run(&args(&format!("{mxg_s} --algo nope"))),
        Err(CliError::Usage(_))
    ));
    assert!(matches!(
        commands::rank::run(&args(&format!("{mxg_s} --supervised true --algo hits"))),
        Err(CliError::Usage(_))
    ));
    // A corrupt graph file is a runtime error.
    std::fs::write(&mxg, b"MXG2 this is not a graph").unwrap();
    assert!(matches!(
        commands::stats::run(&args(mxg_s)),
        Err(CliError::Runtime(_))
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn supervised_rank_matches_plain_rank() {
    let dir = tmpdir("supervised");
    let mxg = dir.join("g.mxg");
    let plain = dir.join("plain.tsv");
    let sup = dir.join("sup.tsv");
    let mxg_s = mxg.to_str().unwrap();
    commands::gen::run(&args(&format!(
        "--dataset wiki --scale tiny --seed 3 --out {mxg_s}"
    )))
    .unwrap();
    commands::rank::run(&args(&format!(
        "{mxg_s} --algo pagerank --iters 5 --out {}",
        plain.to_str().unwrap()
    )))
    .unwrap();
    commands::rank::run(&args(&format!(
        "{mxg_s} --algo pagerank --iters 5 --supervised true --out {}",
        sup.to_str().unwrap()
    )))
    .unwrap();
    let a = std::fs::read_to_string(&plain).unwrap();
    let b = std::fs::read_to_string(&sup).unwrap();
    assert_eq!(a, b, "supervision must not change the scores");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_json_sidecar_is_written_and_valid() {
    let dir = tmpdir("metrics_json");
    let mxg = dir.join("g.mxg");
    let json = dir.join("report.json");
    let mxg_s = mxg.to_str().unwrap();
    let json_s = json.to_str().unwrap();
    commands::gen::run(&args(&format!(
        "--dataset wiki --scale tiny --seed 3 --out {mxg_s}"
    )))
    .unwrap();

    // Without --supervised the flag is a usage error.
    assert!(matches!(
        commands::rank::run(&args(&format!("{mxg_s} --metrics-json {json_s}"))),
        Err(CliError::Usage(_))
    ));
    assert!(!json.exists());

    commands::rank::run(&args(&format!(
        "{mxg_s} --algo pagerank --iters 5 --supervised true --metrics-json {json_s}"
    )))
    .unwrap();
    let body = std::fs::read_to_string(&json).unwrap();
    let report = mixen_core::Json::parse(&body).expect("sidecar must be valid JSON");
    assert_eq!(report.get("engine").unwrap().as_str(), Some("mixen"));
    assert_eq!(report.get("iterations").unwrap().as_u64(), Some(5));
    assert!(report.get("residual").unwrap().as_f64().is_some());
    let phases = report.get("phases").unwrap();
    assert!(phases.get("pre_seconds").unwrap().as_f64().is_some());
    let counters = report.get("counters").unwrap();
    assert!(counters.get("edges_scattered").unwrap().as_u64().unwrap() > 0);
    assert!(matches!(
        report.get("degradations"),
        Some(mixen_core::Json::Arr(_))
    ));

    // A supervised run that stops early still writes the report.
    let fault_json = dir.join("fault.json");
    let fault_json_s = fault_json.to_str().unwrap();
    let r = commands::rank::run(&args(&format!(
        "{mxg_s} --algo pagerank --deadline-ms 0 --iters 3 --supervised true --metrics-json {fault_json_s}"
    )));
    assert!(matches!(r, Err(CliError::Deadline(_))));
    let body = std::fs::read_to_string(&fault_json).unwrap();
    let report = mixen_core::Json::parse(&body).unwrap();
    assert!(report.get("counters").is_some());
    std::fs::remove_dir_all(&dir).ok();
}

/// `--damping` values `f32` parses but PageRank cannot use: each is exit 2
/// with a message naming the flag, before any run starts.
const BAD_DAMPINGS: [&str; 5] = ["nan", "NaN", "inf", "5", "-0.5"];

fn assert_damping_is_a_usage_error(subcommand: &str, extra: &[&str]) {
    let dir = tmpdir(&format!("damping_{subcommand}"));
    let mxg = dir.join("g.mxg");
    let mxg_s = mxg.to_str().unwrap();
    commands::gen::run(&args(&format!(
        "--dataset urand --scale tiny --out {mxg_s}"
    )))
    .unwrap();
    for bad in BAD_DAMPINGS {
        let out = run_bin(&[&[subcommand, mxg_s, "--damping", bad], extra].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{subcommand} --damping {bad}: {stderr}"
        );
        assert!(
            stderr.contains("--damping"),
            "{subcommand} --damping {bad}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rank_rejects_damping_outside_the_unit_interval() {
    assert_damping_is_a_usage_error("rank", &[]);
    assert_damping_is_a_usage_error("rank", &["--supervised", "true"]);
}

#[test]
fn serve_rejects_damping_outside_the_unit_interval() {
    assert_damping_is_a_usage_error("serve", &["--addr", "127.0.0.1:0"]);
}

// ---------------------------------------------------------------------------
// Exit-code contract of the real binary.
// ---------------------------------------------------------------------------

fn run_bin(cli_args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_mixen"))
        .args(cli_args)
        .output()
        .expect("failed to spawn mixen binary")
}

#[test]
fn binary_exit_codes_follow_the_contract() {
    let dir = tmpdir("exit_codes");
    let good = dir.join("good.mxg");
    let good_s = good.to_str().unwrap();

    // 0: success and help.
    assert_eq!(
        run_bin(&[
            "gen",
            "--dataset",
            "road",
            "--scale",
            "tiny",
            "--out",
            good_s
        ])
        .status
        .code(),
        Some(0)
    );
    assert_eq!(run_bin(&["stats", good_s]).status.code(), Some(0));
    assert_eq!(run_bin(&["help"]).status.code(), Some(0));

    // 2: usage errors.
    assert_eq!(run_bin(&[]).status.code(), Some(2), "no subcommand");
    assert_eq!(
        run_bin(&["frobnicate"]).status.code(),
        Some(2),
        "unknown subcommand"
    );
    assert_eq!(
        run_bin(&["rank", good_s, "--algo", "nope"]).status.code(),
        Some(2),
        "unknown algorithm"
    );
    assert_eq!(
        run_bin(&["stats", good_s, "--bogus", "1"]).status.code(),
        Some(2),
        "unknown flag"
    );

    // 1: runtime errors.
    assert_eq!(
        run_bin(&["stats", "/nonexistent/graph.mxg"]).status.code(),
        Some(1),
        "missing file"
    );
    let corrupt = dir.join("corrupt.mxg");
    let mut bytes = std::fs::read(&good).unwrap();
    let flip = bytes.len() - 3;
    bytes[flip] ^= 0x40;
    std::fs::write(&corrupt, &bytes).unwrap();
    let out = run_bin(&["stats", corrupt.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "corrupt graph");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "stderr: {stderr}");

    let truncated = dir.join("truncated.mxg");
    std::fs::write(&truncated, &std::fs::read(&good).unwrap()[..21]).unwrap();
    assert_eq!(
        run_bin(&["rank", truncated.to_str().unwrap()])
            .status
            .code(),
        Some(1),
        "truncated graph"
    );

    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Durability: crash/recovery through the real binary.
// ---------------------------------------------------------------------------

/// Crash recovery: a 4-iteration run with `--checkpoint-every 4` leaves the
/// same snapshot a 12-iteration run killed right after its first checkpoint
/// leaves (the total iteration count is not fingerprinted). Resumed to 12
/// with `--resume true`, the scores must be byte-identical to an
/// uninterrupted run at the same thread count.
#[test]
fn crashed_run_resumes_bit_identical() {
    let dir = tmpdir("crash_recovery");
    let mxg = dir.join("g.mxg");
    let mxg_s = mxg.to_str().unwrap();
    let ckpt = dir.join("run.ckpt");
    let ckpt_s = ckpt.to_str().unwrap();
    let ref_tsv = dir.join("ref.tsv");
    let res_tsv = dir.join("res.tsv");
    assert_eq!(
        run_bin(&[
            "gen",
            "--dataset",
            "wiki",
            "--scale",
            "tiny",
            "--seed",
            "7",
            "--out",
            mxg_s
        ])
        .status
        .code(),
        Some(0)
    );

    // Uninterrupted reference at 2 threads.
    let common = ["rank", mxg_s, "--supervised", "true", "--threads", "2"];
    let out = run_bin(
        &[
            &common[..],
            &["--iters", "12", "--out", ref_tsv.to_str().unwrap()],
        ]
        .concat(),
    );
    assert_eq!(out.status.code(), Some(0));

    // Interrupted run: what a crash right after the first snapshot
    // (iteration 4) leaves behind.
    let out = run_bin(
        &[
            &common[..],
            &[
                "--iters",
                "4",
                "--checkpoint",
                ckpt_s,
                "--checkpoint-every",
                "4",
            ],
        ]
        .concat(),
    );
    assert_eq!(out.status.code(), Some(0));
    assert!(ckpt.exists(), "the run must leave its snapshot");

    // Resume to completion; scores must match the reference byte-for-byte.
    let json = dir.join("recovery.json");
    let out = run_bin(
        &[
            &common[..],
            &[
                "--iters",
                "12",
                "--checkpoint",
                ckpt_s,
                "--resume",
                "true",
                "--out",
                res_tsv.to_str().unwrap(),
                "--metrics-json",
                json.to_str().unwrap(),
            ],
        ]
        .concat(),
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let a = std::fs::read(&ref_tsv).unwrap();
    let b = std::fs::read(&res_tsv).unwrap();
    assert_eq!(a, b, "resumed scores must be bit-identical");

    // The sidecar records the recovery.
    let report = mixen_core::Json::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
    let counters = report.get("counters").unwrap();
    assert_eq!(counters.get("resumes").unwrap().as_u64(), Some(1));
    assert!(
        counters
            .get("checkpoints_written")
            .unwrap()
            .as_u64()
            .unwrap()
            >= 1
    );
    assert!(report.get("provenance").is_some());
    std::fs::remove_dir_all(&dir).ok();
}

/// Deadline contract: `--deadline-ms 0` exits with code 3 (not 1), writes a
/// final checkpoint, and the run resumes cleanly afterwards.
#[test]
fn deadline_exit_is_code_3_and_resumable() {
    let dir = tmpdir("deadline_exit");
    let mxg = dir.join("g.mxg");
    let mxg_s = mxg.to_str().unwrap();
    let ckpt = dir.join("run.ckpt");
    let ckpt_s = ckpt.to_str().unwrap();
    assert_eq!(
        run_bin(&[
            "gen",
            "--dataset",
            "road",
            "--scale",
            "tiny",
            "--out",
            mxg_s
        ])
        .status
        .code(),
        Some(0)
    );
    let out = run_bin(&[
        "rank",
        mxg_s,
        "--supervised",
        "true",
        "--iters",
        "8",
        "--deadline-ms",
        "0",
        "--checkpoint",
        ckpt_s,
    ]);
    assert_eq!(out.status.code(), Some(3), "deadline exit code");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("deadline"), "stderr: {stderr}");
    assert!(ckpt.exists(), "deadline stop must leave a snapshot");
    let out = run_bin(&[
        "rank",
        mxg_s,
        "--supervised",
        "true",
        "--iters",
        "8",
        "--checkpoint",
        ckpt_s,
        "--resume",
        "true",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Supervised-only flags without `--supervised true` are usage errors.
#[test]
fn durability_flags_require_supervised() {
    let dir = tmpdir("flags_supervised");
    let mxg = dir.join("g.mxg");
    let mxg_s = mxg.to_str().unwrap();
    assert_eq!(
        run_bin(&[
            "gen",
            "--dataset",
            "road",
            "--scale",
            "tiny",
            "--out",
            mxg_s
        ])
        .status
        .code(),
        Some(0)
    );
    for flags in [
        &["--checkpoint", "/tmp/x.ckpt"][..],
        &["--deadline-ms", "100"][..],
        &["--resume", "true"][..],
    ] {
        let out = run_bin(&[&["rank", mxg_s][..], flags].concat());
        assert_eq!(out.status.code(), Some(2), "flags {flags:?}");
    }
    // --resume without --checkpoint is a usage error even when supervised.
    let out = run_bin(&["rank", mxg_s, "--supervised", "true", "--resume", "true"]);
    assert_eq!(out.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}
