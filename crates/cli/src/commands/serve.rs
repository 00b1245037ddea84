//! `mixen serve` — run the online ranking service on a graph.
//!
//! Loads the graph, starts `mixen-serve` (resident engine, atomic rank
//! snapshots, admission control), prints the bound address, and blocks
//! until a drain: SIGINT/SIGTERM or `POST /admin/shutdown`. In-flight
//! requests are answered before exit; a clean drain exits 0.
//!
//! `--addr host:0` picks an ephemeral port — combine with `--port-file` so
//! scripts can discover it (the file holds the resolved `host:port`).

use std::sync::Arc;

use crate::args::Args;
use crate::commands::load_graph;
use crate::error::CliError;
use mixen_serve::{signal, ServeOpts, Server};

/// Flags this subcommand accepts; anything else is a usage error.
pub const FLAGS: &[&str] = &[
    "addr",
    "workers",
    "queue-cap",
    "batch-cap",
    "deadline-ms",
    "refresh-every",
    "iters",
    "tol",
    "damping",
    "port-file",
    "threads",
    "affinity",
    "reorder",
];

pub fn run(args: &Args) -> Result<(), CliError> {
    args.expect_only(FLAGS)?;
    let path = args.positional(0, "graph.mxg")?;
    let reorder = crate::commands::parse_reorder(args)?;
    let damping = crate::commands::parse_damping(args)?;
    let g = load_graph(path)?;
    let opts = ServeOpts {
        addr: args.opt("addr").unwrap_or("127.0.0.1:7464").to_string(),
        workers: args.opt_or("workers", 4)?,
        queue_cap: args.opt_or("queue-cap", 128)?,
        batch_cap: args.opt_or("batch-cap", 16)?,
        default_deadline_ms: args.opt_or("deadline-ms", 2_000)?,
        refresh_iters: args.opt_or("refresh-every", 4)?,
        max_iters: args.opt_or("iters", 200)?,
        tol: args.opt_or("tol", 1e-7)?,
        damping,
        honor_signals: true,
        // `auto` resolves against the loaded graph, so the resident engine
        // preprocesses with the model-selected relabel policy.
        mixen: match reorder {
            Some(choice) => mixen_core::MixenOpts {
                ordering: choice.resolve(&g),
                ..mixen_core::MixenOpts::default()
            },
            None => mixen_core::MixenOpts::default(),
        },
    };
    if opts.workers == 0 {
        return Err(CliError::usage("--workers must be at least 1"));
    }
    eprintln!(
        "preparing resident engine over {path}: n = {}, m = {}...",
        g.n(),
        g.m()
    );

    signal::install_handlers();
    let handle = Server::start(Arc::new(g), opts)
        .map_err(|e| CliError::runtime(format!("cannot start server: {e}")))?;
    let addr = handle.addr();
    if let Some(port_file) = args.opt("port-file") {
        std::fs::write(port_file, format!("{addr}\n"))
            .map_err(|e| CliError::runtime(format!("cannot write '{port_file}': {e}")))?;
    }
    println!("serving on http://{addr} (SIGINT/SIGTERM to drain)");

    let (served, rejected) = handle.join_and_report();
    println!("drained cleanly: {served} requests served, {rejected} rejected");
    Ok(())
}
