//! Shared harness for the table/figure reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! or is the sole evidence for a kept option (`ablation`, `reorder`; see
//! DESIGN.md's per-experiment index and DR-7/DR-8). Phase, kernel,
//! lane-scaling and serving numbers are rows of the e2e harness under
//! `bench/`, not bins here. The binaries share:
//!
//! * [`BenchOpts`] — command-line options (`--scale tiny|small|medium|large`,
//!   `--seed N`, `--iters N`, `--datasets a,b,c`),
//! * [`timed`] / [`time_per_iter`] — wall-clock measurement helpers,
//! * [`normalize`] — the "normalized to X" transformation the paper's
//!   figures use.
//!
//! All binaries print plain text tables shaped like the paper's, so
//! paper-vs-measured comparisons (EXPERIMENTS.md) are a visual diff.

#![forbid(unsafe_code)]

use std::time::Instant;

use mixen_graph::{Dataset, Graph, Scale};

/// Command-line options shared by the reproduction binaries.
#[derive(Clone, Debug)]
pub struct BenchOpts {
    /// Dataset scale (default `small`; the paper shape holds from `tiny` up).
    pub scale: Scale,
    /// Generator seed.
    pub seed: u64,
    /// Timed iterations per measurement (the paper uses 100).
    pub iters: usize,
    /// Datasets to run (default: all eight).
    pub datasets: Vec<Dataset>,
    /// Machine-readable sidecar: write the run's results as JSON here, next
    /// to the plain-text table on stdout.
    pub json: Option<String>,
    /// Worker lanes for the parallel kernels (`--threads N`). `None` leaves
    /// the pool at its `MIXEN_THREADS`/host default; `from_args` applies a
    /// given value globally before any kernel runs.
    pub threads: Option<usize>,
}

impl Default for BenchOpts {
    fn default() -> Self {
        Self {
            scale: Scale::Small,
            seed: 42,
            iters: 10,
            datasets: Dataset::ALL.to_vec(),
            json: None,
            threads: None,
        }
    }
}

impl BenchOpts {
    /// Parses `std::env::args`; unknown flags abort with a usage message.
    pub fn from_args() -> Self {
        let mut opts = Self::default();
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let mut value = |name: &str| {
                args.next()
                    .unwrap_or_else(|| usage(&format!("{name} needs a value")))
            };
            match flag.as_str() {
                "--scale" => {
                    opts.scale = match value("--scale").as_str() {
                        "tiny" => Scale::Tiny,
                        "small" => Scale::Small,
                        "medium" => Scale::Medium,
                        "large" => Scale::Large,
                        other => usage(&format!("unknown scale '{other}'")),
                    }
                }
                "--seed" => {
                    opts.seed = value("--seed")
                        .parse()
                        .unwrap_or_else(|_| usage("--seed must be an integer"))
                }
                "--iters" => {
                    opts.iters = value("--iters")
                        .parse()
                        .unwrap_or_else(|_| usage("--iters must be an integer"))
                }
                "--datasets" => {
                    opts.datasets = value("--datasets")
                        .split(',')
                        .map(|name| {
                            Dataset::from_name(name.trim())
                                .unwrap_or_else(|| usage(&format!("unknown dataset '{name}'")))
                        })
                        .collect()
                }
                "--json" => opts.json = Some(value("--json")),
                "--threads" => {
                    let n: usize = value("--threads")
                        .parse()
                        .unwrap_or_else(|_| usage("--threads must be an integer"));
                    if n == 0 {
                        usage("--threads must be at least 1");
                    }
                    opts.threads = Some(n);
                }
                "--affinity" => {
                    let v = value("--affinity");
                    let policy =
                        mixen_pool::affinity::AffinityPolicy::parse(&v).unwrap_or_else(|| {
                            usage(&format!(
                                "bad --affinity '{v}' (off, auto, or a CPU list like 0,2,4)"
                            ))
                        });
                    // Installed immediately — before `--threads` builds the
                    // global pool below — so workers pin at spawn.
                    mixen_pool::affinity::configure(policy);
                }
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag '{other}'")),
            }
        }
        if let Some(n) = opts.threads {
            // Applied before any kernel touches the pool, so the whole run
            // (graph generation included) executes at the requested width.
            if let Err(e) = mixen_pool::configure_global(n) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        opts
    }

    /// Writes a sidecar JSON file when `--json PATH` was given; `body` holds
    /// the bin-specific results and is wrapped with the shared run header
    /// (`scale`, `seed`, `iters`). Aborts with exit code 1 on I/O failure —
    /// a requested-but-missing sidecar must not look like success.
    pub fn write_json_sidecar(&self, bin: &str, body: Vec<(String, mixen_core::Json)>) {
        use mixen_core::Json;
        let Some(path) = &self.json else { return };
        let mut members = vec![
            ("bin".to_string(), Json::Str(bin.to_string())),
            (
                "scale".to_string(),
                Json::Str(format!("{:?}", self.scale).to_lowercase()),
            ),
            ("seed".to_string(), Json::from_u64(self.seed)),
            ("iters".to_string(), Json::from_u64(self.iters as u64)),
        ];
        members.extend(body);
        if let Err(e) = std::fs::write(path, Json::Obj(members).render_pretty()) {
            eprintln!("error: cannot write JSON sidecar '{path}': {e}");
            std::process::exit(1);
        }
        eprintln!("[json] wrote {path}");
    }

    /// The divisor of this run's scale (for cache-hierarchy scaling).
    pub fn divisor(&self) -> usize {
        self.scale.divisor()
    }

    /// Generates one dataset at this run's scale/seed, reporting progress
    /// on stderr.
    pub fn gen(&self, d: Dataset) -> Graph {
        eprintln!("[gen] {} at {:?} scale ...", d.name(), self.scale);
        let t = Instant::now();
        let g = d.generate(self.scale, self.seed);
        eprintln!(
            "[gen] {}: n = {}, m = {} ({:.2}s)",
            d.name(),
            g.n(),
            g.m(),
            t.elapsed().as_secs_f64()
        );
        g
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: <bin> [--scale tiny|small|medium|large] [--seed N] [--iters N] \
         [--datasets weibo,track,...] [--json out.json] [--threads N] \
         [--affinity off|auto|0,2,4]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 })
}

/// Wall-clock of one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Average seconds per iteration of a workload run `iters` times by `f`
/// (which receives the iteration count, runs them all, and returns).
pub fn time_per_iter(iters: usize, f: impl FnOnce(usize)) -> f64 {
    let t = Instant::now();
    f(iters);
    t.elapsed().as_secs_f64() / iters.max(1) as f64
}

/// Normalizes a series to its first element (the paper's figures normalize
/// to Mixen or to the best configuration).
pub fn normalize(series: &[f64]) -> Vec<f64> {
    let base = series.first().copied().unwrap_or(1.0).max(1e-12);
    series.iter().map(|&x| x / base).collect()
}

/// Geometric mean of positive values (the cross-graph speedup summary).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.max(1e-12).ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_to_first() {
        assert_eq!(normalize(&[2.0, 4.0, 1.0]), vec![1.0, 2.0, 0.5]);
        assert!(normalize(&[]).is_empty());
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn timers_return_positive() {
        let (_, secs) = timed(|| std::hint::black_box(1 + 1));
        assert!(secs >= 0.0);
        let per = time_per_iter(4, |n| {
            for _ in 0..n {
                std::hint::black_box(0);
            }
        });
        assert!(per >= 0.0);
    }

    #[test]
    fn default_opts_cover_all_datasets() {
        let o = BenchOpts::default();
        assert_eq!(o.datasets.len(), 8);
        assert_eq!(o.divisor(), 256);
    }
}
