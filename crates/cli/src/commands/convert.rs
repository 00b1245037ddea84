//! `mixen convert` — convert between the text edge-list format and the
//! binary MXG2 CSR format (either direction, inferred from extensions).
//! A binary input must be MXG2; any other magic is a typed format error.

use std::io::BufReader;

use crate::args::Args;
use crate::error::CliError;

/// Flags this subcommand accepts; anything else is a usage error.
pub const FLAGS: &[&str] = &["min-nodes", "max-nodes", "threads", "affinity"];

pub fn run(args: &Args) -> Result<(), CliError> {
    args.expect_only(FLAGS)?;
    if args.positional_len() != 2 {
        return Err(CliError::usage(
            "convert takes exactly <input> and <output>",
        ));
    }
    let input = args.positional(0, "input")?;
    let output = args.positional(1, "output")?;
    let min_n: usize = args.opt_or("min-nodes", 0)?;
    let max_nodes: u64 = args.opt_or("max-nodes", mixen_graph::io::MAX_NODES)?;

    let g = if input.ends_with(".mxg") {
        mixen_graph::io::load(input)
            .map_err(|e| CliError::runtime(format!("cannot read '{input}': {e}")))?
    } else {
        let file = std::fs::File::open(input)
            .map_err(|e| CliError::runtime(format!("cannot open '{input}': {e}")))?;
        mixen_graph::io::read_edge_list_capped(BufReader::new(file), min_n, max_nodes)
            .map_err(|e| CliError::runtime(format!("cannot parse '{input}': {e}")))?
    };

    if output.ends_with(".mxg") {
        mixen_graph::io::save(&g, output)
            .map_err(|e| CliError::runtime(format!("cannot write '{output}': {e}")))?;
    } else {
        let mut file = std::io::BufWriter::new(
            std::fs::File::create(output)
                .map_err(|e| CliError::runtime(format!("cannot create '{output}': {e}")))?,
        );
        mixen_graph::io::write_edge_list(&g, &mut file)
            .map_err(|e| CliError::runtime(format!("cannot write '{output}': {e}")))?;
    }
    println!(
        "converted {input} -> {output} (n = {}, m = {})",
        g.n(),
        g.m()
    );
    Ok(())
}
