//! `mixen` — command-line interface to the Mixen graph-analytics framework.
//!
//! ```text
//! mixen gen     --dataset wiki --scale tiny --seed 42 --out wiki.mxg
//! mixen convert edges.txt graph.mxg          # text edge list -> binary CSR
//! mixen stats   graph.mxg                    # structure, degrees, components
//! mixen rank    graph.mxg --algo pagerank --engine mixen --iters 100 --top 10
//! mixen bfs     graph.mxg --root 0 --engine mixen
//! mixen serve   graph.mxg --addr 127.0.0.1:7464   # online ranking service
//! ```
//!
//! Exit codes: 0 on success, 1 on runtime failure (missing/corrupt graph,
//! numeric fault), 2 on usage error (bad flags, unknown subcommand).

use mixen_cli::args::Args;
use mixen_cli::commands;
use mixen_cli::error::{CliError, EXIT_USAGE};

fn main() {
    let mut argv = std::env::args().skip(1);
    let sub = argv
        .next()
        .unwrap_or_else(|| usage(Some("missing subcommand")));
    let parsed = Args::parse(argv).unwrap_or_else(|e| usage(Some(&e)));
    configure_affinity(&parsed);
    configure_threads(&parsed);
    let result = match sub.as_str() {
        "gen" => commands::gen::run(&parsed),
        "convert" => commands::convert::run(&parsed),
        "stats" => commands::stats::run(&parsed),
        "rank" => commands::rank::run(&parsed),
        "bfs" => commands::bfs::run(&parsed),
        "serve" => commands::serve::run(&parsed),
        "help" | "--help" | "-h" => usage(None),
        other => usage(Some(&format!("unknown subcommand '{other}'"))),
    };
    if let Err(e) = result {
        if let CliError::Usage(msg) = &e {
            usage(Some(msg));
        }
        eprintln!("error: {e}");
        std::process::exit(e.exit_code());
    }
}

/// Applies a global `--threads N` override before any subcommand touches the
/// pool. The flag beats the `MIXEN_THREADS` environment variable because it
/// is resolved first, while the global pool is still unbuilt; `--threads 1`
/// selects the exact sequential execution order.
fn configure_threads(args: &Args) {
    let threads: Option<usize> = args
        .opt_parse("threads")
        .unwrap_or_else(|e| usage(Some(&e)));
    if let Some(n) = threads {
        if n == 0 {
            usage(Some("--threads must be at least 1"));
        }
        if let Err(e) = mixen_pool::configure_global(n) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Applies a global `--affinity <off|auto|list>` override before any pool
/// worker spawns. Must run before `configure_threads`, which may create the
/// global pool — workers pin themselves at spawn. The flag beats the
/// `MIXEN_AFFINITY` environment variable (the env path is consulted only
/// when no explicit policy was configured).
fn configure_affinity(args: &Args) {
    if let Some(spec) = args.opt("affinity") {
        match mixen_pool::affinity::AffinityPolicy::parse(spec) {
            Some(policy) => {
                mixen_pool::affinity::configure(policy);
            }
            None => usage(Some(&format!(
                "bad --affinity '{spec}' (expected off, auto, or a CPU list like 0,2,4)"
            ))),
        }
    }
}

fn usage(err: Option<&str>) -> ! {
    if let Some(e) = err {
        eprintln!("error: {e}\n");
    }
    eprintln!(
        "mixen — connectivity-aware link analysis for skewed graphs\n\
         \n\
         usage: mixen <subcommand> [args]\n\
         \n\
         subcommands:\n\
         \x20 gen      --dataset <name> [--scale tiny|small|medium|large] [--seed N] --out <file.mxg>\n\
         \x20 convert  <in: .txt edge list | .mxg> <out: .mxg | .txt> [--min-nodes N] [--max-nodes N]\n\
         \x20 stats    <graph.mxg>\n\
         \x20 rank     <graph.mxg> [--algo indegree|pagerank|hits|salsa|cf] [--engine mixen|gpop|ligra|polymer|graphmat]\n\
         \x20          [--iters N] [--top K] [--out scores.tsv] [--supervised true] [--metrics-json report.json]\n\
         \x20          [--reorder auto|original|hubs-first|by-in-degree|dbg|hubsort] [--bin-encoding f32|f16|q16]\n\
         \x20          supervised-only: [--checkpoint snap.ckpt] [--checkpoint-every N] [--resume true]\n\
         \x20          [--deadline-ms N]\n\
         \x20 bfs      <graph.mxg> [--root N] [--engine ...]\n\
         \x20 serve    <graph.mxg> [--addr host:port] [--workers N] [--queue-cap N] [--batch-cap N]\n\
         \x20          [--deadline-ms N] [--refresh-every N] [--iters N] [--damping D] [--port-file PATH]\n\
         \n\
         global flags:\n\
         \x20 --threads N   worker lanes for parallel kernels (default: MIXEN_THREADS env,\n\
         \x20               else the host's available parallelism; 1 = exact sequential order)\n\
         \x20 --affinity S  pin pool lanes to CPUs: off (default), auto (lane i -> CPU i),\n\
         \x20               or a comma list like 0,2,4 (default: MIXEN_AFFINITY env; Linux only)\n\
         \n\
         datasets: weibo track wiki pld rmat kron road urand\n\
         exit codes: 0 ok, 1 runtime failure, 2 usage error,\n\
         \x20           3 deadline exceeded (resume with --resume true from the --checkpoint snapshot)"
    );
    std::process::exit(if err.is_some() { EXIT_USAGE } else { 0 })
}
