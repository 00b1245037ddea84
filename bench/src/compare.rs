//! The comparator: applies each end-to-end metric's bound and direction to
//! two sets of runs, one row per (metric, workload).

use crate::catalogue::{Better, EndToEnd, END_TO_END};
use crate::report::Report;
use crate::stats::Summary;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The inter-quartile spread exceeds the bound and the two runs'
    /// quartile ranges overlap: the runs cannot tell the sides apart.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `new` against `old` for one metric.
pub fn verdict(def: &EndToEnd, old: &Summary, new: &Summary) -> Verdict {
    if def.bound == 0.0 {
        // "May not rise": any change in the bad direction is worse.
        return match (def.better, new.value.total_cmp(&old.value)) {
            (_, std::cmp::Ordering::Equal) => Verdict::Same,
            (Better::Lower, std::cmp::Ordering::Greater)
            | (Better::Higher, std::cmp::Ordering::Less) => Verdict::Worse,
            _ => Verdict::Better,
        };
    }
    let overlap = old.q1 <= new.q3 && new.q1 <= old.q3;
    if old.spread().max(new.spread()) > def.bound && overlap {
        return Verdict::Unresolved;
    }
    // Share of the old median by which the new one is worse.
    let worse_by = match def.better {
        Better::Lower => (new.value - old.value) / old.value,
        Better::Higher => (old.value - new.value) / old.value,
    };
    if worse_by > def.bound {
        Verdict::Worse
    } else if worse_by < -def.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub old: Summary,
    pub new: Summary,
    pub verdict: Verdict,
}

/// One row per end-to-end metric both sides report, per workload both
/// sides ran.
pub fn compare(old: &[Report], new: &[Report]) -> Vec<Row> {
    let mut rows = Vec::new();
    for o in old {
        let Some(n) = new.iter().find(|n| n.workload == o.workload) else {
            continue;
        };
        for def in &END_TO_END {
            if let (Some(a), Some(b)) = (o.get(def.name), n.get(def.name)) {
                rows.push(Row {
                    workload: o.workload.clone(),
                    metric: def.name,
                    unit: def.unit,
                    old: a.clone(),
                    new: b.clone(),
                    verdict: verdict(def, a, b),
                });
            }
        }
    }
    rows
}

pub fn print(rows: &[Row]) {
    println!("workload metric unit old_median [q1 q3] new_median [q1 q3] verdict");
    for r in rows {
        println!(
            "{} {} {} {:.6} [{:.6} {:.6}] {:.6} [{:.6} {:.6}] {}",
            r.workload,
            r.metric,
            r.unit,
            r.old.value,
            r.old.q1,
            r.old.q3,
            r.new.value,
            r.new.q1,
            r.new.q3,
            r.verdict.as_str()
        );
    }
}

pub fn any_worse(rows: &[Row]) -> bool {
    rows.iter().any(|r| r.verdict == Verdict::Worse)
}

/// Per-layer counts that must repeat exactly between two runs of the same
/// code on the same inputs.
pub const EXACT_COUNTS: [&str; 11] = [
    "core.scga.edges_scattered",
    "core.scga.edges_gathered",
    "core.scga.bin_bytes_streamed",
    "core.engine.iters_to_tol",
    "core.block.side",
    "core.block.col_blocks",
    "core.block.scatter_tasks",
    "core.block.gather_tasks",
    "core.block.max_task_nnz",
    "core.block.task_balance",
    "core.block.msg_slots",
];

/// `workload metric first second` for every exact count that differs.
pub fn inexact_counts(first: &[Report], second: &[Report]) -> Vec<String> {
    let mut out = Vec::new();
    for a in first {
        let Some(b) = second.iter().find(|b| b.workload == a.workload) else {
            continue;
        };
        for name in EXACT_COUNTS {
            let (x, y) = (a.value(name), b.value(name));
            if x.to_bits() != y.to_bits() {
                out.push(format!("{} {name} {x} {y}", a.workload));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    /// A tight run around `v` (spread 2%).
    fn tight(v: f64) -> Summary {
        Summary::of(&[v * 0.99, v, v * 1.01])
    }

    #[test]
    fn lower_is_better_metrics() {
        let d = def("iter_ms"); // bound 25%
        assert_eq!(verdict(d, &tight(10.0), &tight(12.0)), Verdict::Same);
        assert_eq!(verdict(d, &tight(10.0), &tight(13.0)), Verdict::Worse);
        assert_eq!(verdict(d, &tight(10.0), &tight(7.0)), Verdict::Better);
    }

    #[test]
    fn higher_is_better_metrics() {
        let d = def("speedup_vs_pull"); // bound 25%
        assert_eq!(verdict(d, &tight(2.0), &tight(1.6)), Verdict::Same);
        assert_eq!(verdict(d, &tight(2.0), &tight(1.4)), Verdict::Worse);
        assert_eq!(verdict(d, &tight(2.0), &tight(2.6)), Verdict::Better);
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved() {
        let d = def("iter_ms");
        let noisy_old = Summary::of(&[8.0, 10.0, 12.0]); // spread 40%
        let noisy_new = Summary::of(&[9.0, 11.5, 13.0]);
        assert_eq!(verdict(d, &noisy_old, &noisy_new), Verdict::Unresolved);
        // Wide but disjoint: every quartile of the new run is beyond the old.
        let far = Summary::of(&[18.0, 20.0, 24.0]); // +100%, quartiles disjoint
        assert_eq!(verdict(d, &noisy_old, &far), Verdict::Worse);
        assert_eq!(verdict(d, &far, &noisy_old), Verdict::Better);
    }

    #[test]
    fn failed_share_may_not_rise() {
        let d = def("failed_share");
        let (zero, some) = (Summary::scalar(0.0), Summary::scalar(0.001));
        assert_eq!(verdict(d, &zero, &zero), Verdict::Same);
        assert_eq!(verdict(d, &zero, &some), Verdict::Worse);
        assert_eq!(verdict(d, &some, &zero), Verdict::Better);
    }

    #[test]
    fn rows_pair_workloads_and_flag_regressions() {
        let report = |iter_ms: f64, gathered: f64| {
            let mut r = Report {
                workload: "pr-pld".into(),
                ..Report::default()
            };
            r.put("iter_ms", tight(iter_ms));
            r.put_scalar("failed_share", 0.0);
            r.put_scalar("core.scga.edges_gathered", gathered);
            r
        };
        let (old, new) = ([report(10.0, 7.0)], [report(13.0, 7.0)]);
        let rows = compare(&old, &new);
        assert_eq!(rows.len(), 2);
        assert_eq!(
            (rows[0].metric, rows[0].verdict),
            ("iter_ms", Verdict::Worse)
        );
        assert!(any_worse(&rows) && !any_worse(&compare(&old, &old)));
        // Only the count that moved is listed; absent ones (NaN both sides) agree.
        assert!(inexact_counts(&old, &new).is_empty());
        assert_eq!(
            inexact_counts(&old, &[report(10.0, 8.0)]),
            ["pr-pld core.scga.edges_gathered 7 8"]
        );
        let other = Report {
            workload: "cf-pld".into(),
            ..Report::default()
        };
        assert!(compare(&old, &[other]).is_empty());
    }
}
