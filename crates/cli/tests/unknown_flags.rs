//! Pins the strict unknown-flag contract: *every* subcommand rejects a
//! flag it does not know with exit code 2 and an error naming the flag —
//! before touching any input file, so a typo can never silently run with
//! the option dropped.

use std::process::Command;

fn run_bin(cli_args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_mixen"))
        .args(cli_args)
        .output()
        .expect("failed to spawn mixen binary")
}

const SUBCOMMANDS: &[&str] = &["gen", "convert", "stats", "rank", "bfs", "serve"];

#[test]
fn every_subcommand_rejects_unknown_flags_by_name() {
    for sub in SUBCOMMANDS {
        // The graph path deliberately does not exist: the flag check must
        // fire first, so the error is the named flag — not a missing file.
        let out = run_bin(&[sub, "does-not-exist.mxg", "--bogus-flag", "1"]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{sub}: expected usage exit, got {:?}",
            out.status.code()
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("error: unknown flag --bogus-flag"),
            "{sub}: stderr was:\n{stderr}"
        );
    }
}

#[test]
fn close_typos_get_a_did_you_mean_hint() {
    // The motivating bug: `--dedline-ms` used to run the rank without any
    // deadline at all.
    let out = run_bin(&["rank", "does-not-exist.mxg", "--dedline-ms", "500"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error: unknown flag --dedline-ms (did you mean --deadline-ms?)"),
        "stderr was:\n{stderr}"
    );

    let out = run_bin(&["serve", "does-not-exist.mxg", "--worker", "2"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error: unknown flag --worker (did you mean --workers?)"),
        "stderr was:\n{stderr}"
    );
}

#[test]
fn deleted_supervision_flags_are_unknown() {
    // The stall budget, its injected stall and the crash hook are gone; a
    // script still passing them must fail loudly, not run without them.
    for flag in [
        "--stall-ms",
        "--inject-stall-ms",
        "--exit-after-checkpoints",
    ] {
        let out = run_bin(&[
            "rank",
            "does-not-exist.mxg",
            "--supervised",
            "true",
            flag,
            "1",
        ]);
        assert_eq!(out.status.code(), Some(2), "{flag}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("error: unknown flag {flag}")),
            "{flag}: stderr was:\n{stderr}"
        );
    }
}

#[test]
fn known_flags_still_pass_the_gate() {
    // Same commands with the flag spelled right get past the parser (and
    // then fail on the missing file with a *runtime* exit, code 1).
    let out = run_bin(&[
        "rank",
        "does-not-exist.mxg",
        "--supervised",
        "true",
        "--deadline-ms",
        "500",
    ]);
    assert_eq!(out.status.code(), Some(1), "{:?}", out);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot read graph"),
        "stderr was:\n{stderr}"
    );
}
