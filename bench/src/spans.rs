//! In-memory spans around the calls into each layer.
//!
//! The benchmark records a span (name, start, end, parent, workload) around
//! every public call of the staged pipeline and every client request; the
//! program itself is not instrumented. Spans stay in memory and are
//! aggregated — and optionally dumped — when the traced run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are seconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the span this one ran inside; `None` for a root.
    pub parent: Option<usize>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// Span names a staged cold round may report from its own process; the
/// parent maps each back to the static name before grafting the spans in.
const STAGED_NAMES: [&str; 13] = [
    "cold",
    "graph.io.load",
    "core.filter.build",
    "core.block.build",
    "core.engine.run",
    "core.bins.pre",
    "core.bins.alloc",
    "core.engine.iter",
    "core.scga.scatter",
    "core.scga.gather",
    "core.engine.converge_check",
    "core.engine.post",
    "algos.topk",
];

pub fn staged_name(name: &str) -> Option<&'static str> {
    STAGED_NAMES.into_iter().find(|n| *n == name)
}

/// Per-name totals over a trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub count: usize,
    pub total_s: f64,
    /// Total minus the part of each span its children cover.
    pub self_s: f64,
}

/// Records nested spans on one thread; traces of other threads and
/// processes are merged in with [`Tracer::graft`].
pub struct Tracer {
    workload: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &str) -> Self {
        Self::with_epoch(workload, Instant::now())
    }

    /// A tracer sharing another's clock, for a client thread whose spans are
    /// grafted in later.
    pub fn with_epoch(workload: &str, epoch: Instant) -> Self {
        Self {
            workload: workload.to_string(),
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Seconds since the epoch.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Opens a span inside the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes `id` (which must be the innermost open span) and returns its
    /// duration in seconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end = self.now();
        self.spans[id].seconds()
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Records an already-timed interval as a child of the innermost open
    /// span (client threads time with `Instant`s and report afterwards).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: start.duration_since(self.epoch).as_secs_f64(),
            end: end.duration_since(self.epoch).as_secs_f64(),
            parent: self.open.last().copied(),
        });
        id
    }

    /// Like [`Tracer::record`] but under an explicit parent.
    pub fn record_under(
        &mut self,
        parent: usize,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let id = self.record(name, start, end);
        self.spans[id].parent = Some(parent);
    }

    /// Adds the finished spans of another tracer — a client thread's (same
    /// clock, `offset` 0) or a child process's (its clock started `offset`
    /// seconds after this one's): its roots become children of the
    /// innermost open span.
    pub fn graft(&mut self, spans: Vec<Span>, offset: f64) {
        let base = self.spans.len();
        let under = self.open.last().copied();
        self.spans.extend(spans.into_iter().map(|s| Span {
            start: s.start + offset,
            end: s.end + offset,
            parent: s.parent.map(|p| p + base).or(under),
            ..s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    /// Durations (seconds) of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Self time of every span: its duration minus the part of its interval
    /// that its children cover (children on several threads may overlap, so
    /// the cover is the union of their intervals clipped to the parent).
    pub fn self_seconds(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let (lo, hi) = (s.start.max(parent.start), s.end.min(parent.end));
                if hi > lo {
                    children[p].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut covered = 0.0;
                let mut reach = f64::NEG_INFINITY;
                for (lo, hi) in kids {
                    if hi > reach {
                        covered += hi - lo.max(reach);
                        reach = hi;
                    }
                }
                s.seconds() - covered
            })
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, self_s) in self.spans.iter().zip(self.self_seconds()) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += s.seconds();
            t.self_s += self_s;
        }
        out
    }

    /// The raw spans as tab-separated lines
    /// (`id parent workload name start_us end_us`), for `--spans PATH`.
    pub fn dump(&self) -> String {
        let mut out = String::from("id\tparent\tworkload\tname\tstart_us\tend_us\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{:.3}\t{:.3}",
                self.workload,
                s.name,
                s.start * 1e6,
                s.end * 1e6
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(t: &Tracer, ms: u64) -> Instant {
        t.epoch() + Duration::from_millis(ms)
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn self_time_subtracts_sequential_children() {
        let mut t = Tracer::new("w");
        let root = t.record("root", at(&t, 0), at(&t, 100));
        t.record_under(root, "a", at(&t, 10), at(&t, 30));
        t.record_under(root, "b", at(&t, 50), at(&t, 90));
        let own = t.self_seconds();
        assert!(close(own[root], 0.040), "{own:?}");
        assert!(close(own[1], 0.020) && close(own[2], 0.040));
        let totals = t.totals();
        assert_eq!(totals["root"].count, 1);
        assert!(close(totals["root"].total_s, 0.100));
        assert!(close(totals["root"].self_s, 0.040));
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let mut t = Tracer::new("w");
        let root = t.record("load", at(&t, 0), at(&t, 100));
        // Two client threads busy at the same time, one running past the end.
        t.record_under(root, "req", at(&t, 10), at(&t, 60));
        t.record_under(root, "req", at(&t, 40), at(&t, 80));
        t.record_under(root, "req", at(&t, 90), at(&t, 130));
        let own = t.self_seconds();
        // Cover = [10,80] ∪ [90,100] = 80 ms.
        assert!(close(own[root], 0.020), "{own:?}");
        assert_eq!(t.durations("req").len(), 3);
    }

    #[test]
    fn enter_exit_nest_and_graft_reparents() {
        let mut t = Tracer::new("w");
        let outer = t.enter("outer");
        t.span("inner", || std::hint::black_box(1));
        let mut client = Tracer::with_epoch("w", t.epoch());
        let req = client.enter("req");
        client.span("connect", || ());
        client.exit(req);
        t.graft(client.into_spans(), 0.0);
        t.exit(outer);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(outer));
        assert_eq!((s[2].name, s[2].parent), ("req", Some(outer)));
        assert_eq!((s[3].name, s[3].parent), ("connect", Some(2)));
        assert!(s[0].end >= s[3].end);
        assert!(t.self_seconds().iter().all(|v| *v >= -1e-9));
        assert_eq!(t.dump().lines().count(), 5);
    }

    #[test]
    fn graft_shifts_a_child_process_onto_this_clock() {
        let mut t = Tracer::new("w");
        let root = t.enter("workload");
        let child = vec![
            Span {
                name: staged_name("cold").unwrap(),
                start: 0.0,
                end: 2.0,
                parent: None,
            },
            Span {
                name: staged_name("graph.io.load").unwrap(),
                start: 0.5,
                end: 1.0,
                parent: Some(0),
            },
        ];
        t.graft(child, 10.0);
        t.exit(root);
        let s = t.spans();
        assert_eq!(
            (s[1].start, s[1].end, s[1].parent),
            (10.0, 12.0, Some(root))
        );
        assert_eq!((s[2].start, s[2].parent), (10.5, Some(1)));
        assert!(staged_name("serve.load").is_none());
    }
}
