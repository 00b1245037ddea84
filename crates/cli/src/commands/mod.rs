//! Subcommand implementations.
//!
//! Every subcommand returns `Result<(), CliError>`: usage errors (bad flags,
//! unknown names) exit with code 2, runtime errors (missing files, corrupt
//! graphs, numeric faults) with code 1 — see [`crate::error`].

pub mod bfs;
pub mod convert;
pub mod gen;
pub mod rank;
pub mod serve;
pub mod stats;

use crate::error::CliError;
use mixen_algos::{AnyEngine, EngineKind};
use mixen_core::{BinEncoding, MixenOpts, ReorderChoice};
use mixen_graph::{Dataset, Graph, Scale};

/// Loads a binary `.mxg` graph; failures are runtime errors with the typed
/// [`mixen_graph::GraphError`] rendered for the user.
pub fn load_graph(path: &str) -> Result<Graph, CliError> {
    mixen_graph::io::load(path)
        .map_err(|e| CliError::runtime(format!("cannot read graph '{path}': {e}")))
}

/// Parses `--scale`.
pub fn parse_scale(s: Option<&str>) -> Result<Scale, CliError> {
    Ok(match s.unwrap_or("tiny") {
        "tiny" => Scale::Tiny,
        "small" => Scale::Small,
        "medium" => Scale::Medium,
        "large" => Scale::Large,
        other => return Err(CliError::usage(format!("unknown scale '{other}'"))),
    })
}

/// Parses `--dataset`.
pub fn parse_dataset(s: &str) -> Result<Dataset, CliError> {
    Dataset::from_name(s).ok_or_else(|| {
        CliError::usage(format!(
            "unknown dataset '{s}' (expected one of: {})",
            Dataset::ALL.map(|d| d.name()).join(" ")
        ))
    })
}

/// Parses `--reorder`: a regular-region relabel policy name, or `auto` to
/// let the §5 performance model pick from (α, β, hub fraction).
pub fn parse_reorder(args: &crate::args::Args) -> Result<Option<ReorderChoice>, CliError> {
    match args.opt("reorder") {
        None => Ok(None),
        Some(s) => ReorderChoice::parse(s).map(Some).ok_or_else(|| {
            CliError::usage(format!(
                "unknown reorder policy '{s}' (expected auto, original, \
                 hubs-first, by-in-degree, dbg or hubsort)"
            ))
        }),
    }
}

/// Parses `--damping` (default 0.85). `f32` parsing accepts `nan`, `inf`
/// and `5`; anything outside the finite range [0, 1] is a usage error.
pub fn parse_damping(args: &crate::args::Args) -> Result<f32, CliError> {
    let d: f32 = args.opt_or("damping", 0.85)?;
    if (0.0..=1.0).contains(&d) {
        Ok(d)
    } else {
        Err(CliError::usage(format!(
            "--damping must be in [0, 1], got {d}"
        )))
    }
}

/// Parses `--bin-encoding`: the dynamic-bin value encoding (`f32` lossless
/// default, `f16`/`q16` compressed 16-bit streams).
pub fn parse_bin_encoding(args: &crate::args::Args) -> Result<Option<BinEncoding>, CliError> {
    match args.opt("bin-encoding") {
        None => Ok(None),
        Some(s) => BinEncoding::parse(s).map(Some).ok_or_else(|| {
            CliError::usage(format!(
                "unknown bin encoding '{s}' (expected f32, f16 or q16)"
            ))
        }),
    }
}

/// Parses `--engine` and builds it over `g`. `--reorder` and
/// `--bin-encoding` tune the Mixen engine only, so combining either with a
/// baseline engine is a usage error rather than a silent no-op.
pub fn build_engine<'g>(
    s: Option<&str>,
    reorder: Option<ReorderChoice>,
    bin_encoding: Option<BinEncoding>,
    g: &'g Graph,
) -> Result<AnyEngine<'g>, CliError> {
    let name = s.unwrap_or("mixen");
    let kind = EngineKind::parse(name)
        .ok_or_else(|| CliError::usage(format!("unknown engine '{name}'")))?;
    if kind != EngineKind::Mixen {
        if reorder.is_some() {
            return Err(CliError::usage(
                "--reorder applies to the mixen engine only; drop --engine or --reorder",
            ));
        }
        if bin_encoding.is_some() {
            return Err(CliError::usage(
                "--bin-encoding applies to the mixen engine only; drop --engine or --bin-encoding",
            ));
        }
    }
    let mut opts = MixenOpts::default();
    if let Some(choice) = reorder {
        opts.ordering = choice.resolve(g);
    }
    if let Some(enc) = bin_encoding {
        opts.bin_encoding = enc;
    }
    Ok(AnyEngine::build(kind, g, opts))
}
