//! One workload's measured metrics, as handed from the measuring process to
//! the orchestrator and written into the trajectory file.

use mixen_core::Json;

use crate::catalogue::unit_of;
use crate::stats::Summary;
use crate::verify::Tally;

/// Shape of the generated input, recorded beside the numbers it explains.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GraphFacts {
    pub n: u64,
    pub m: u64,
    pub alpha: f64,
    pub beta: f64,
}

#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    pub workload: String,
    pub graph: GraphFacts,
    pub lanes: u64,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failed checks, in words.
    pub notes: Vec<String>,
    /// `(name, summary)` in emission order; units come from the catalogue.
    pub metrics: Vec<(String, Summary)>,
}

impl Report {
    /// Adds a metric. Panics on a name the catalogue does not know, so the
    /// binary cannot emit what `BENCHMARK.json` does not list.
    pub fn put(&mut self, name: &str, summary: Summary) {
        assert!(unit_of(name).is_some(), "metric {name} is not catalogued");
        assert!(self.get(name).is_none(), "metric {name} emitted twice");
        self.metrics.push((name.to_string(), summary));
    }

    pub fn put_scalar(&mut self, name: &str, value: f64) {
        self.put(name, Summary::scalar(value));
    }

    /// Adds the median (with spread) of `samples`.
    pub fn put_samples(&mut self, name: &str, samples: &[f64]) {
        self.put(name, Summary::of(samples));
    }

    pub fn get(&self, name: &str) -> Option<&Summary> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    pub fn value(&self, name: &str) -> f64 {
        self.get(name).map_or(f64::NAN, |s| s.value)
    }

    pub fn absorb_tally(&mut self, tally: Tally) {
        self.attempted += tally.attempted;
        self.failed += tally.failed;
        self.notes.extend(tally.notes);
    }

    /// Folds another report of the same workload (the traced run's) in.
    pub fn merge(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        for (name, summary) in other.metrics {
            self.put(&name, summary);
        }
    }

    /// Every metric as `name unit value`, then its spread.
    pub fn print(&self) {
        for (name, s) in &self.metrics {
            let unit = unit_of(name).unwrap_or("?");
            if s.n > 1 {
                println!(
                    "[{}] {name} {unit} {} (q1 {} q3 {} p{} {} n {})",
                    self.workload,
                    fmt(s.value),
                    fmt(s.q1),
                    fmt(s.q3),
                    s.hi_pct,
                    fmt(s.hi),
                    s.n
                );
            } else {
                println!("[{}] {name} {unit} {}", self.workload, fmt(s.value));
            }
        }
        for note in &self.notes {
            println!("[{}] FAILED: {note}", self.workload);
        }
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            (
                "graph".into(),
                Json::Obj(vec![
                    ("n".into(), Json::from_u64(self.graph.n)),
                    ("m".into(), Json::from_u64(self.graph.m)),
                    ("alpha".into(), Json::from_f64(self.graph.alpha)),
                    ("beta".into(), Json::from_f64(self.graph.beta)),
                ]),
            ),
            ("lanes".into(), Json::from_u64(self.lanes)),
            ("attempted".into(), Json::from_u64(self.attempted)),
            ("failed".into(), Json::from_u64(self.failed)),
            (
                "notes".into(),
                Json::Arr(self.notes.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "metrics".into(),
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, s)| (name.clone(), s.to_json(unit_of(name).unwrap_or("?"))))
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(j: &Json) -> Option<Self> {
        let graph = j.get("graph")?;
        let Json::Obj(metrics) = j.get("metrics")? else {
            return None;
        };
        let Json::Arr(notes) = j.get("notes")? else {
            return None;
        };
        Some(Self {
            workload: j.get("workload")?.as_str()?.to_string(),
            graph: GraphFacts {
                n: graph.get("n")?.as_u64()?,
                m: graph.get("m")?.as_u64()?,
                alpha: graph.get("alpha")?.as_f64()?,
                beta: graph.get("beta")?.as_f64()?,
            },
            lanes: j.get("lanes")?.as_u64()?,
            attempted: j.get("attempted")?.as_u64()?,
            failed: j.get("failed")?.as_u64()?,
            notes: notes
                .iter()
                .map(|n| n.as_str().map(str::to_string))
                .collect::<Option<_>>()?,
            metrics: metrics
                .iter()
                .map(|(name, s)| Some((name.clone(), Summary::from_json(s)?.1)))
                .collect::<Option<_>>()?,
        })
    }
}

/// Six significant digits: enough to tell runs apart, short enough to read.
fn fmt(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    // Truncation is of a small floor'd exponent.
    let digits = (5 - v.abs().log10().floor() as i32).clamp(0, 12) as usize;
    format!("{v:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_json() {
        let mut r = Report {
            workload: "pr-pld".into(),
            graph: GraphFacts {
                n: 10,
                m: 20,
                alpha: 0.5,
                beta: 0.25,
            },
            lanes: 2,
            attempted: 5,
            failed: 1,
            notes: vec!["window 3: overlap 0.5".into()],
            metrics: Vec::new(),
        };
        r.put_samples("iter_ms", &[1.0, 2.0, 3.0]);
        r.put_scalar("baselines.break_even_iters", f64::INFINITY);
        let text = r.to_json().render();
        let back = Report::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.value("iter_ms"), 2.0);
        assert!(back.value("absent").is_nan());
    }

    #[test]
    #[should_panic(expected = "not catalogued")]
    fn unknown_metric_names_are_refused() {
        Report::default().put_scalar("made.up", 1.0);
    }

    #[test]
    fn six_significant_digits() {
        assert_eq!(fmt(1234.56789), "1234.57");
        assert_eq!(fmt(0.001234567), "0.00123457");
        assert_eq!(fmt(9_189_209.0), "9189209");
        assert_eq!(fmt(f64::INFINITY), "inf");
    }
}
