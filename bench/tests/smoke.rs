//! Drives the built `e2e` binary end to end at tiny scale: the smoke set,
//! the comparator on its output, and the one-line JSON contract.

use std::process::{Command, Output};
use std::time::Instant;

use mixen_core::Json;

const WORKLOADS: [&str; 6] = [
    "pr-pld",
    "pr-weibo",
    "pr-urand",
    "cf-pld",
    "serve-steady",
    "serve-refresh",
];

fn e2e(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_e2e"))
        .args(args)
        .output()
        .expect("e2e starts")
}

fn text(out: &Output) -> String {
    format!(
        "{}\n--- stderr ---\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    )
}

#[test]
fn smoke_runs_all_six_workloads_and_compares_clean() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let file = dir.join("smoke.json");
    let file = file.to_str().unwrap();

    let started = Instant::now();
    let out = e2e(&["--smoke", "--out", file]);
    let elapsed = started.elapsed().as_secs_f64();
    let stdout = text(&out);
    assert!(out.status.success(), "{stdout}");
    assert!(elapsed < 20.0, "--smoke took {elapsed:.1} s");
    for w in WORKLOADS {
        for metric in [
            "setup_s s",
            "total_s s",
            "iter_ms ms",
            "speedup_vs_pull ratio",
            "peak_rss_mb MB",
            "serve_qps 1/s",
            "serve_p50_ms ms",
            "serve_p99_ms ms",
            "failed_share fraction 0",
            "core.scga.gather_ms ms",
            "serve.ttfb_ms ms",
            "trace.overhead_pct %",
        ] {
            assert!(
                stdout.contains(&format!("[{w}] {metric}")),
                "{w} did not print {metric}\n{stdout}"
            );
        }
    }
    assert!(stdout.contains("[serve-refresh] refresh_iters_per_s 1/s"));
    assert!(!stdout.contains("FAILED"), "{stdout}");

    // The file holds host facts and one entry per workload, and comparing
    // it with itself finds every pair the same.
    let doc = Json::parse(&std::fs::read_to_string(file).unwrap()).unwrap();
    assert!(doc.get("host").and_then(|h| h.get("nproc")).is_some());
    let Some(Json::Arr(workloads)) = doc.get("workloads") else {
        panic!("no workloads array");
    };
    assert_eq!(workloads.len(), WORKLOADS.len());
    let out = e2e(&["--compare", file, file]);
    let stdout = text(&out);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("pr-pld iter_ms ms") && !stdout.contains(" worse"));
}

#[test]
fn one_workload_ends_with_the_contract_json() {
    // The traced run is of the control: there Mixen may never break even,
    // and the line must still hold finite numbers only.
    for (workload, trace, expect) in [
        ("pr-weibo", "0", "setup_s"),
        ("pr-urand", "1", "core.scga.gather_ms"),
    ] {
        let out = e2e(&[
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.5",
            "--trace",
            trace,
            "--scale",
            "tiny",
        ]);
        assert!(out.status.success(), "{}", text(&out));
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = Json::parse(stdout.trim_end().lines().last().unwrap()).unwrap();
        let Json::Obj(members) = &last else {
            panic!("last line is not an object");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
        assert!(last.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
        assert_eq!(last.get("failed").and_then(Json::as_u64), Some(0));
        let value = last
            .get("metrics")
            .and_then(|m| m.get(expect))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        assert!(value.is_some_and(|v| v > 0.0), "{expect}: {value:?}");
        let Some(Json::Obj(metrics)) = last.get("metrics") else {
            panic!("metrics is not an object");
        };
        for (name, m) in metrics {
            let v = m.get("value").and_then(Json::as_f64);
            assert!(v.is_some_and(|v| v.abs() < 1e15), "{name}: {v:?}");
        }
    }
}

#[test]
fn bad_arguments_are_usage_errors() {
    for args in [
        &["--workload", "nope", "--trace", "0"][..],
        &["--workload", "pr-pld"],
        &["--seconds", "0", "--all"],
        &["--frobnicate"],
        &[],
    ] {
        let out = e2e(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", text(&out));
    }
    let out = e2e(&["--compare", "/nonexistent/a.json", "/nonexistent/b.json"]);
    assert_eq!(out.status.code(), Some(1));
}
