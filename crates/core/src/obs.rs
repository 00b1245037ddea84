//! Observability: counters, span timers, and machine-readable reports.
//!
//! The paper's argument is carried by per-phase and per-kernel accounting
//! (Fig. 4's phase decomposition, Tables 3–4), so this module gives every
//! layer of the engine one dependency-free instrumentation seam:
//!
//! * [`Counter`] / [`Gauge`] — relaxed atomics, safe to bump from inside
//!   the parallel Scatter/Gather regions.
//! * [`Metrics`] — the fixed registry of everything the engines count
//!   (edges scattered/gathered, bin bytes streamed, static-bin reuse vs.
//!   recompute, BFS sparse/dense level choices, supervision events).
//!   [`Metrics::snapshot`] freezes it into a plain [`MetricsSnapshot`]
//!   that reports can carry by value.
//! * [`Span`] — an RAII wall-clock timer accumulating into an `f64` sink;
//!   it replaces the ad-hoc `Instant::now()` pairs the engines used to
//!   scatter around.
//! * [`Json`] — a hand-rolled (offline-safe, no serde) JSON tree with a
//!   renderer and a small validating parser, so `RunReport`, `PhaseStats`
//!   and `MetricsSnapshot` can be emitted as machine-readable sidecars and
//!   round-trip-checked in tests.
//!
//! Counter semantics ("exactness contract"):
//!
//! * `edges_scattered` / `edges_gathered` advance by the regular-subgraph
//!   edge count (`BlockedSubgraph::nnz`) per Main-Phase iteration — every
//!   nonempty block streams its full compressed slot list per call, so
//!   per-call totals are exact, not sampled.
//! * `bin_bytes_streamed` advances by `compressed slots × bytes per slot`
//!   per Scatter *and* per Gather: the counter is total dynamic-bin traffic
//!   in both directions (bytes written into the bins, plus bytes drained
//!   from them), so one full Scatter+Gather round counts the slot bytes
//!   twice. Before PR 5 only the Scatter half was counted, under-reporting
//!   bin traffic by ~2×. A slot is `size_of::<V>()` bytes under the
//!   full-width `F32` bin encoding and 2 bytes under the compressed
//!   (`F16`/`Q16`) encodings; `bin_bytes_saved` counts the difference —
//!   traffic a compressed encoding avoided relative to full-width slots
//!   (Scatter side; the Gather drain saves the same amount again but the
//!   counter tracks the written stream once per round so the ratio
//!   `saved / (saved + streamed_scatter_half)` stays interpretable).
//! * `bin_encoding` is a gauge stamping `BinEncoding::encoding_id` of
//!   `MixenOpts::bin_encoding` — the *effective* one per run, which falls
//!   back to 0/F32 for property types that cannot compress. (Scatter's
//!   unroll width and the prefetch look-ahead are constants of `scga.rs`,
//!   not knobs, so they have no gauge.)
//! * `tasks_split` / `max_task_nnz` are gauges describing the §4.2
//!   nnz-proportional task split of the current partition: how many extra
//!   tasks the balancer carved beyond the base grid (scatter-row splits +
//!   gather-column chunks) and the heaviest single task in edges (the
//!   straggler bound). Stamped at engine construction from
//!   `BlockedSubgraph::split_stats`.
//! * `static_bin_recomputes` counts every `StaticBin::compute`: the
//!   Pre-Phase build of a run whose seed values differ from the last run's
//!   on that engine, and every redundant rebuild of the cache-step
//!   ablation. A re-entry with unchanged seed values (a supervised batch, a
//!   `PageRankStream::advance`) finds the bin the engine kept and adds
//!   nothing. `static_bin_reuses` counts primes from the already-built bin:
//!   the first accumulator of a run plus one Cache step per iteration that
//!   has a successor.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use mixen_graph::GraphError;

// ---------------------------------------------------------------------------
// Counters and gauges
// ---------------------------------------------------------------------------

/// Monotonic event counter; relaxed atomics, cheap enough for kernel code.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        // ordering: statistics counter — totals matter, ordering does not.
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        // ordering: snapshots are read at quiescent points (after joins).
        self.0.load(Ordering::Relaxed)
    }

    fn set(&self, v: u64) {
        // ordering: merge/override path, only used between runs.
        self.0.store(v, Ordering::Relaxed);
    }
}

/// Last-write-wins level indicator (sizes, lengths); same storage as
/// [`Counter`], different semantics.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Records the current level.
    #[inline]
    pub fn set(&self, v: u64) {
        // ordering: last-write-wins level indicator; any ordering is fine.
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> u64 {
        // ordering: snapshots are read at quiescent points (after joins).
        self.0.load(Ordering::Relaxed)
    }

    /// Raises the level to `v` if it is higher than the current one —
    /// high-water-mark semantics for values raced by several threads
    /// (e.g. the largest request batch any serve worker drained).
    #[inline]
    pub fn max(&self, v: u64) {
        // ordering: high-water mark — only the final maximum matters.
        self.0.fetch_max(v, Ordering::Relaxed);
    }
}

/// The fixed counter catalogue. Names are the JSON keys of the `counters`
/// object in every report; see DESIGN.md §6d for the full schema.
///
/// The `pool_*` entries and the durability block (`checkpoints_written` …
/// `deadline_exceeded`) are *report-level* counters: they describe the
/// process-wide `mixen-pool` executor or supervision events of one run
/// rather than one engine, so they are written into report snapshots by the
/// supervised runner (`pool_workers` with gauge semantics, the rest as
/// per-run counts) and have no field in the live [`Metrics`] registry.
///
/// The serving block (`requests_served` … `max_batch_size`) is owned by the
/// `mixen-serve` request path: the server keeps its own [`Metrics`] registry
/// and exposes it at `/metrics`, merged with the resident engine's kernel
/// counters (which use the same catalogue, so the merge is by name).
pub const COUNTER_NAMES: [&str; 29] = [
    "edges_scattered",
    "edges_gathered",
    "bin_bytes_streamed",
    "bin_bytes_saved",
    "dynamic_bin_slots",
    "tasks_split",
    "max_task_nnz",
    "reorder_policy",
    "relabel_micros",
    "hub_domain_side",
    "bin_encoding",
    "static_bin_entries",
    "static_bin_reuses",
    "static_bin_recomputes",
    "bfs_sparse_levels",
    "bfs_dense_levels",
    "engine_fallbacks",
    "batch_reentries",
    "pool_workers",
    "pool_tasks_executed",
    "checkpoints_written",
    "checkpoint_bytes",
    "resumes",
    "deadline_exceeded",
    "requests_served",
    "requests_rejected",
    "snapshot_swaps",
    "request_batches",
    "max_batch_size",
];

/// The live metrics registry one engine (or runner) owns. All fields are
/// interior-mutable so `&Metrics` can be threaded through parallel kernels.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Regular edges whose messages entered the dynamic bins (per Scatter).
    pub edges_scattered: Counter,
    /// Regular edges drained from the bins into accumulators (per Gather).
    pub edges_gathered: Counter,
    /// Bytes written into the dynamic bins (compressed slots × bytes per
    /// slot under the active bin encoding).
    pub bin_bytes_streamed: Counter,
    /// Bytes a compressed bin encoding avoided writing relative to
    /// full-width slots (per Scatter).
    pub bin_bytes_saved: Counter,
    /// Compressed message slots of the current dynamic bins.
    pub dynamic_bin_slots: Gauge,
    /// §4.2 balancer subdivisions of the current partition (scatter-row
    /// splits + gather-column chunks beyond the base grid).
    pub tasks_split: Gauge,
    /// Heaviest scatter or gather task of the current partition, in edges.
    pub max_task_nnz: Gauge,
    /// Relabel policy the engine was built with
    /// (`RegularOrdering::policy_id`: 0 original, 1 hubs-first,
    /// 2 by-in-degree, 3 dbg, 4 hubsort).
    pub reorder_policy: Gauge,
    /// Wall-clock cost of the regular-region relabel passes, in
    /// microseconds.
    pub relabel_micros: Gauge,
    /// Effective block side after GRASP hub-domain pinning, in nodes
    /// (equals the plain effective side when pinning is disengaged).
    pub hub_domain_side: Gauge,
    /// Effective dynamic-bin value encoding
    /// (`BinEncoding::encoding_id`: 0 f32, 1 f16, 2 q16).
    pub bin_encoding: Gauge,
    /// Entries in the current static (seed-cache) bin.
    pub static_bin_entries: Gauge,
    /// Cache-step re-primes served from the static bin.
    pub static_bin_reuses: Counter,
    /// `StaticBin::compute` invocations (first build + redundant rebuilds).
    pub static_bin_recomputes: Counter,
    /// BFS levels expanded with the frontier-sparse kernel.
    pub bfs_sparse_levels: Counter,
    /// BFS levels expanded with the dense fallback kernel.
    pub bfs_dense_levels: Counter,
    /// Mixen-to-pull-baseline degradations (runner).
    pub engine_fallbacks: Counter,
    /// Supervised engine re-entries beyond the first iteration (runner).
    pub batch_reentries: Counter,
    /// Requests answered with any response, including error statuses
    /// (serve).
    pub requests_served: Counter,
    /// Requests turned away by admission control with a 429 (serve).
    pub requests_rejected: Counter,
    /// Rank snapshots published to the readers, the initial one included
    /// (serve).
    pub snapshot_swaps: Counter,
    /// Batches of queued requests drained by the workers (serve);
    /// `requests_served / request_batches` is the mean batch size.
    pub request_batches: Counter,
    /// Largest single batch any worker drained (serve, high-water mark).
    pub max_batch_size: Gauge,
}

impl Metrics {
    /// Freezes the registry into a plain value snapshot. The snapshot always
    /// carries the full [`COUNTER_NAMES`] catalogue: entries with no live
    /// field (the report-level `pool_*` pair) stay zero until the supervised
    /// runner stamps them.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for (name, value) in self.entries() {
            snap.add(name, value);
        }
        snap
    }

    /// `(name, value)` pairs in catalogue order.
    pub fn entries(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        [
            ("edges_scattered", self.edges_scattered.get()),
            ("edges_gathered", self.edges_gathered.get()),
            ("bin_bytes_streamed", self.bin_bytes_streamed.get()),
            ("bin_bytes_saved", self.bin_bytes_saved.get()),
            ("dynamic_bin_slots", self.dynamic_bin_slots.get()),
            ("tasks_split", self.tasks_split.get()),
            ("max_task_nnz", self.max_task_nnz.get()),
            ("reorder_policy", self.reorder_policy.get()),
            ("relabel_micros", self.relabel_micros.get()),
            ("hub_domain_side", self.hub_domain_side.get()),
            ("bin_encoding", self.bin_encoding.get()),
            ("static_bin_entries", self.static_bin_entries.get()),
            ("static_bin_reuses", self.static_bin_reuses.get()),
            ("static_bin_recomputes", self.static_bin_recomputes.get()),
            ("bfs_sparse_levels", self.bfs_sparse_levels.get()),
            ("bfs_dense_levels", self.bfs_dense_levels.get()),
            ("engine_fallbacks", self.engine_fallbacks.get()),
            ("batch_reentries", self.batch_reentries.get()),
            ("requests_served", self.requests_served.get()),
            ("requests_rejected", self.requests_rejected.get()),
            ("snapshot_swaps", self.snapshot_swaps.get()),
            ("request_batches", self.request_batches.get()),
            ("max_batch_size", self.max_batch_size.get()),
        ]
        .into_iter()
    }

    /// Zeroes every counter and gauge (per-run measurements on a long-lived
    /// engine).
    pub fn reset(&self) {
        self.edges_scattered.set(0);
        self.edges_gathered.set(0);
        self.bin_bytes_streamed.set(0);
        self.bin_bytes_saved.set(0);
        self.dynamic_bin_slots.set(0);
        self.tasks_split.set(0);
        self.max_task_nnz.set(0);
        self.reorder_policy.set(0);
        self.relabel_micros.set(0);
        self.hub_domain_side.set(0);
        self.bin_encoding.set(0);
        self.static_bin_entries.set(0);
        self.static_bin_reuses.set(0);
        self.static_bin_recomputes.set(0);
        self.bfs_sparse_levels.set(0);
        self.bfs_dense_levels.set(0);
        self.engine_fallbacks.set(0);
        self.batch_reentries.set(0);
        self.requests_served.set(0);
        self.requests_rejected.set(0);
        self.snapshot_swaps.set(0);
        self.request_batches.set(0);
        self.max_batch_size.set(0);
    }
}

impl Clone for Metrics {
    /// Clones current values into a fresh, independent registry (a cloned
    /// engine keeps its history but stops sharing it).
    fn clone(&self) -> Self {
        let m = Metrics::default();
        m.edges_scattered.set(self.edges_scattered.get());
        m.edges_gathered.set(self.edges_gathered.get());
        m.bin_bytes_streamed.set(self.bin_bytes_streamed.get());
        m.bin_bytes_saved.set(self.bin_bytes_saved.get());
        m.dynamic_bin_slots.set(self.dynamic_bin_slots.get());
        m.tasks_split.set(self.tasks_split.get());
        m.max_task_nnz.set(self.max_task_nnz.get());
        m.reorder_policy.set(self.reorder_policy.get());
        m.relabel_micros.set(self.relabel_micros.get());
        m.hub_domain_side.set(self.hub_domain_side.get());
        m.bin_encoding.set(self.bin_encoding.get());
        m.static_bin_entries.set(self.static_bin_entries.get());
        m.static_bin_reuses.set(self.static_bin_reuses.get());
        m.static_bin_recomputes
            .set(self.static_bin_recomputes.get());
        m.bfs_sparse_levels.set(self.bfs_sparse_levels.get());
        m.bfs_dense_levels.set(self.bfs_dense_levels.get());
        m.engine_fallbacks.set(self.engine_fallbacks.get());
        m.batch_reentries.set(self.batch_reentries.get());
        m.requests_served.set(self.requests_served.get());
        m.requests_rejected.set(self.requests_rejected.get());
        m.snapshot_swaps.set(self.snapshot_swaps.get());
        m.request_batches.set(self.request_batches.get());
        m.max_batch_size.set(self.max_batch_size.get());
        m
    }
}

/// A frozen, plain-value view of a [`Metrics`] registry — what reports carry
/// and serialize. Also the accumulator the supervised runner adds its own
/// (single-threaded) events into.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsSnapshot {
    counters: Vec<(&'static str, u64)>,
}

impl Default for MetricsSnapshot {
    /// The full catalogue, all zeros — so JSON output always carries every
    /// key, even for runs that never touched the engine.
    fn default() -> Self {
        Self {
            counters: COUNTER_NAMES.iter().map(|&n| (n, 0)).collect(),
        }
    }
}

impl MetricsSnapshot {
    /// Value of `name` (0 when absent).
    pub fn get(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Adds `delta` to `name`, inserting it when new.
    pub fn add(&mut self, name: &'static str, delta: u64) {
        match self.counters.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v += delta,
            None => self.counters.push((name, delta)),
        }
    }

    /// Overwrites `name` with `value` (gauge semantics), inserting it when
    /// new. Used for level-style entries such as `pool_workers`.
    pub fn set(&mut self, name: &'static str, value: u64) {
        match self.counters.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = value,
            None => self.counters.push((name, value)),
        }
    }

    /// Adds every counter of `other` into `self` (gauges included —
    /// merging distinct runs is the caller's judgement call).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for &(name, v) in &other.counters {
            self.add(name, v);
        }
    }

    /// `(name, value)` pairs in catalogue order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().copied()
    }

    /// The `counters` JSON object (`{"edges_scattered": 123, ...}`).
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.counters
                .iter()
                .map(|&(n, v)| (n.to_string(), Json::from_u64(v)))
                .collect(),
        )
    }
}

// ---------------------------------------------------------------------------
// Span timers
// ---------------------------------------------------------------------------

/// RAII wall-clock span: accumulates elapsed seconds into its sink on drop.
///
/// ```
/// # use mixen_core::obs::Span;
/// let mut scatter_seconds = 0.0;
/// {
///     let _span = Span::new(&mut scatter_seconds);
///     // ... timed region ...
/// }
/// assert!(scatter_seconds >= 0.0);
/// ```
#[derive(Debug)]
pub struct Span<'a> {
    start: Instant,
    sink: &'a mut f64,
}

impl<'a> Span<'a> {
    /// Starts timing; the elapsed seconds are added to `sink` when the span
    /// drops.
    pub fn new(sink: &'a mut f64) -> Self {
        Self {
            start: Instant::now(),
            sink,
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        *self.sink += self.start.elapsed().as_secs_f64();
    }
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

/// A JSON value tree. Hand-rolled because the build environment is offline:
/// no serde, no external crates — just enough JSON for reports and their
/// round-trip tests.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// All numbers are `f64`; non-finite values render as the strings
    /// `"inf"` / `"-inf"` / `"nan"` (bare tokens would not be valid JSON).
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered members (reports keep a stable key order).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A number from an unsigned counter (u64 → f64; counters in practice
    /// stay far below 2^53, where the mapping is exact).
    pub fn from_u64(v: u64) -> Json {
        Json::Num(v as f64)
    }

    /// A number that may be non-finite (`∞` residuals serialize as `"inf"`).
    pub fn from_f64(v: f64) -> Json {
        if v.is_finite() {
            Json::Num(v)
        } else if v.is_nan() {
            Json::Str("nan".into())
        } else if v > 0.0 {
            Json::Str("inf".into())
        } else {
            Json::Str("-inf".into())
        }
    }

    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, decoding the non-finite string spellings.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::Str(s) => match s.as_str() {
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                "nan" => Some(f64::NAN),
                _ => None,
            },
            _ => None,
        }
    }

    /// The numeric value as an exact unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) => {
                // lint: allow(truncation) reason=guarded: non-negative integral f64 within 2^53
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with 2-space indentation and a trailing newline —
    /// the sidecar-file format.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_num(out, *v),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].write(out, indent, d);
                })
            }
            Json::Obj(members) => {
                write_seq(out, indent, depth, '{', '}', members.len(), |out, i, d| {
                    let (k, v) = &members[i];
                    write_str(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, d);
                })
            }
        }
    }

    /// Parses `src` as a single JSON value (trailing whitespace allowed).
    /// This is the validating half of the round-trip tests and of the CI
    /// smoke check; it accepts standard JSON, nothing more.
    ///
    /// Nesting is capped at [`MAX_JSON_DEPTH`]: the parser recurses per
    /// container level, so an unbounded input like `[[[[…` would otherwise
    /// overflow the stack — remotely reachable once bodies arrive over the
    /// network in `mixen-serve`. Hostile depth surfaces as a typed
    /// [`GraphError::Capacity`], never a crash.
    pub fn parse(src: &str) -> Result<Json, GraphError> {
        let bytes = src.as_bytes();
        let mut pos = 0usize;
        let val = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(parse_err(pos, "trailing content after JSON value"));
        }
        Ok(val)
    }
}

/// Deepest container nesting [`Json::parse`] accepts. Far above anything a
/// report produces (reports nest 3–4 levels), far below stack exhaustion.
pub const MAX_JSON_DEPTH: usize = 96;

fn write_num(out: &mut String, v: f64) {
    if !v.is_finite() {
        // Normalized by from_f64; direct Num(non-finite) still must emit
        // valid JSON.
        Json::from_f64(v).write(out, None, 0);
    } else if v.fract() == 0.0 && v.abs() < 2f64.powi(53) {
        // lint: allow(truncation) reason=guarded: integral f64 within 2^53 renders exactly
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            // lint: allow(truncation) reason=char→u32 is a lossless widening (scalar values are 21-bit)
            c if (c as u32) < 0x20 => {
                // lint: allow(truncation) reason=char→u32 is a lossless widening (scalar values are 21-bit)
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            for _ in 0..w * (depth + 1) {
                out.push(' ');
            }
        }
        item(out, i, depth + 1);
    }
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
    out.push(close);
}

// --- parser ----------------------------------------------------------------

fn parse_err(pos: usize, msg: &str) -> GraphError {
    GraphError::Format(format!("json: {msg} at byte {pos}"))
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), GraphError> {
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(parse_err(*pos, &format!("expected '{}'", c as char)))
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, GraphError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(parse_err(*pos, "unexpected end of input")),
        Some(b'{') => parse_obj(b, pos, depth),
        Some(b'[') => parse_arr(b, pos, depth),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, val: Json) -> Result<Json, GraphError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(val)
    } else {
        Err(parse_err(*pos, &format!("expected '{lit}'")))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, GraphError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos])
        .map_err(|_| parse_err(start, "invalid utf-8 in number"))?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| parse_err(start, "invalid number"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, GraphError> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(parse_err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| parse_err(*pos, "truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| parse_err(*pos, "invalid \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| parse_err(*pos, "invalid \\u escape"))?;
                        // Surrogates are not produced by our renderer;
                        // reject rather than mis-decode them.
                        let c = char::from_u32(code)
                            .ok_or_else(|| parse_err(*pos, "\\u escape is not a scalar value"))?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(parse_err(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte sequences included).
                let rest = std::str::from_utf8(&b[*pos..])
                    .map_err(|_| parse_err(*pos, "invalid utf-8 in string"))?;
                let c = rest
                    .chars()
                    .next()
                    .ok_or_else(|| parse_err(*pos, "unterminated string"))?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

/// Rejects a container opening beyond [`MAX_JSON_DEPTH`] levels.
fn check_depth(depth: usize) -> Result<(), GraphError> {
    if depth >= MAX_JSON_DEPTH {
        return Err(GraphError::Capacity {
            what: "json nesting depth",
            requested: depth as u64 + 1,
            limit: MAX_JSON_DEPTH as u64,
        });
    }
    Ok(())
}

fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, GraphError> {
    check_depth(depth)?;
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth + 1)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(parse_err(*pos, "expected ',' or ']'")),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, GraphError> {
    check_depth(depth)?;
    expect(b, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let val = parse_value(b, pos, depth + 1)?;
        members.push((key, val));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(parse_err(*pos, "expected ',' or '}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_update() {
        let m = Metrics::default();
        m.edges_scattered.add(10);
        m.edges_scattered.inc();
        m.dynamic_bin_slots.set(7);
        assert_eq!(m.edges_scattered.get(), 11);
        assert_eq!(m.dynamic_bin_slots.get(), 7);
        let snap = m.snapshot();
        assert_eq!(snap.get("edges_scattered"), 11);
        assert_eq!(snap.get("dynamic_bin_slots"), 7);
        assert_eq!(snap.get("no_such_counter"), 0);
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn snapshot_covers_the_whole_catalogue() {
        let snap = Metrics::default().snapshot();
        let names: Vec<&str> = snap.iter().map(|(n, _)| n).collect();
        assert_eq!(names, COUNTER_NAMES.to_vec());
        assert_eq!(MetricsSnapshot::default(), snap);
    }

    #[test]
    fn snapshot_merge_adds_by_name() {
        let mut a = MetricsSnapshot::default();
        a.add("edges_scattered", 5);
        let mut b = MetricsSnapshot::default();
        b.add("edges_scattered", 2);
        b.add("engine_fallbacks", 1);
        a.merge(&b);
        assert_eq!(a.get("edges_scattered"), 7);
        assert_eq!(a.get("engine_fallbacks"), 1);
    }

    #[test]
    fn metrics_clone_is_independent() {
        let a = Metrics::default();
        a.edges_gathered.add(3);
        let b = a.clone();
        assert_eq!(b.edges_gathered.get(), 3);
        a.edges_gathered.add(1);
        assert_eq!(b.edges_gathered.get(), 3);
    }

    #[test]
    fn span_accumulates_on_drop() {
        let mut sink = 0.0;
        {
            let _s = Span::new(&mut sink);
            std::hint::black_box(0);
        }
        let first = sink;
        assert!(first >= 0.0);
        {
            let _s = Span::new(&mut sink);
            std::hint::black_box(0);
        }
        assert!(sink >= first);
    }

    #[test]
    fn json_renders_compact_and_pretty() {
        let j = Json::Obj(vec![
            ("a".into(), Json::Num(1.0)),
            ("b".into(), Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("c".into(), Json::Str("x\"y".into())),
        ]);
        assert_eq!(j.render(), r#"{"a":1,"b":[true,null],"c":"x\"y"}"#);
        let pretty = j.render_pretty();
        assert!(pretty.contains("\n  \"a\": 1,"));
        assert!(pretty.ends_with("}\n"));
        assert_eq!(Json::parse(&pretty).unwrap(), j);
    }

    #[test]
    fn json_numbers_render_integers_exactly() {
        assert_eq!(Json::from_u64(0).render(), "0");
        assert_eq!(Json::from_u64(123_456_789).render(), "123456789");
        assert_eq!(Json::Num(0.5).render(), "0.5");
        assert_eq!(Json::Num(-3.0).render(), "-3");
    }

    #[test]
    fn json_non_finite_numbers_stay_valid() {
        assert_eq!(Json::from_f64(f64::INFINITY).render(), r#""inf""#);
        assert_eq!(Json::from_f64(f64::NEG_INFINITY).render(), r#""-inf""#);
        assert_eq!(Json::from_f64(f64::NAN).render(), r#""nan""#);
        assert_eq!(
            Json::parse(r#""inf""#).unwrap().as_f64(),
            Some(f64::INFINITY)
        );
        // Even a raw Num(inf) must not emit an invalid bare token.
        assert_eq!(Json::Num(f64::INFINITY).render(), r#""inf""#);
    }

    #[test]
    fn json_round_trips_escapes_and_unicode() {
        let j = Json::Obj(vec![
            ("tab\t".into(), Json::Str("line1\nline2\\end\u{1}".into())),
            ("ünïcode".into(), Json::Str("héllo → wörld".into())),
        ]);
        assert_eq!(Json::parse(&j.render()).unwrap(), j);
        assert_eq!(Json::parse(&j.render_pretty()).unwrap(), j);
    }

    #[test]
    fn json_parse_rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "{\"a\":1}x",
            "\"unterminated",
            "{\"a\" 1}",
            "[1 2]",
            "nan",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn gauge_max_is_a_high_water_mark() {
        let g = Gauge::default();
        g.max(5);
        g.max(3);
        assert_eq!(g.get(), 5);
        g.max(9);
        assert_eq!(g.get(), 9);
    }

    /// A remote body of pathological nesting must come back as a typed
    /// capacity error, not a stack overflow — `Json::parse` fronts network
    /// input in `mixen-serve`.
    #[test]
    fn json_parse_caps_hostile_nesting_depth() {
        for hostile in [
            "[".repeat(100_000),
            format!("{}1{}", "[".repeat(100_000), "]".repeat(100_000)),
            "{\"a\":".repeat(100_000),
            format!("{}[{{\"deep\": true}}]{}", "[".repeat(200), "]".repeat(200)),
        ] {
            match Json::parse(&hostile) {
                Err(GraphError::Capacity {
                    what,
                    requested,
                    limit,
                }) => {
                    assert_eq!(what, "json nesting depth");
                    assert_eq!(limit, MAX_JSON_DEPTH as u64);
                    assert!(requested > limit);
                }
                other => panic!("expected a capacity error, got {other:?}"),
            }
        }
    }

    #[test]
    fn json_parse_accepts_depths_below_the_cap() {
        let deep = format!(
            "{}42{}",
            "[".repeat(MAX_JSON_DEPTH - 1),
            "]".repeat(MAX_JSON_DEPTH - 1)
        );
        let mut expect = Json::Num(42.0);
        for _ in 0..MAX_JSON_DEPTH - 1 {
            expect = Json::Arr(vec![expect]);
        }
        assert_eq!(Json::parse(&deep).unwrap(), expect);
    }

    #[test]
    fn json_parse_accepts_standard_forms() {
        assert_eq!(
            Json::parse(" { \"k\" : [ -1.5e3 , 2 ] } ").unwrap(),
            Json::Obj(vec![(
                "k".into(),
                Json::Arr(vec![Json::Num(-1500.0), Json::Num(2.0)])
            )])
        );
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(r#""Aé""#).unwrap(), Json::Str("Aé".into()));
    }

    #[test]
    fn json_accessors() {
        let j = Json::Obj(vec![
            ("n".into(), Json::Num(42.0)),
            ("s".into(), Json::Str("hi".into())),
        ]);
        assert_eq!(j.get("n").unwrap().as_u64(), Some(42));
        assert_eq!(j.get("s").unwrap().as_str(), Some("hi"));
        assert_eq!(j.get("missing"), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }

    #[test]
    fn snapshot_to_json_is_an_object_of_integers() {
        let m = Metrics::default();
        m.edges_scattered.add(9);
        let j = m.snapshot().to_json();
        assert_eq!(j.get("edges_scattered").unwrap().as_u64(), Some(9));
        let parsed = Json::parse(&j.render_pretty()).unwrap();
        assert_eq!(parsed, j);
    }
}
