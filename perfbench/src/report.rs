//! The run's result: human-readable metric lines, then one JSON object as
//! the last line of standard output.

use std::fmt::Write as _;

use crate::stats::Tally;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Number of samples the value summarises.
    pub samples: usize,
}

/// Metrics of one run, in the order they were added.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl Report {
    /// Adds a metric summarising `samples` samples.
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        let name = name.into();
        debug_assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Adds a free-form line printed with the metrics.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Orders the metrics as `names` lists them, checking each reported
    /// name and unit against the list.  A listed metric that was not
    /// reported is added as `0` with no samples when `fill_missing` (a
    /// layer the workload never calls), and is a bug otherwise.
    pub fn conform(&mut self, names: &[(&str, &'static str)], fill_missing: bool) {
        for m in &self.metrics {
            assert!(
                names.iter().any(|(n, u)| *n == m.name && *u == m.unit),
                "metric {} ({}) is not listed",
                m.name,
                m.unit
            );
        }
        let mut ordered = Vec::with_capacity(names.len());
        for &(name, unit) in names {
            match self.metrics.iter().position(|m| m.name == name) {
                Some(at) => ordered.push(self.metrics.swap_remove(at)),
                None => {
                    assert!(fill_missing, "metric {name} was not reported");
                    ordered.push(Metric {
                        name: name.to_string(),
                        value: 0.0,
                        unit,
                        samples: 0,
                    });
                }
            }
        }
        self.metrics = ordered;
    }

    /// Prints the notes and metric lines, then the JSON result line.
    pub fn print(&self, tally: &Tally) {
        for line in &self.notes {
            println!("{line}");
        }
        for m in &self.metrics {
            println!(
                "metric {:<44} {:>16} {:<6} samples {}",
                m.name,
                format_value(m.value),
                m.unit,
                m.samples
            );
        }
        println!(
            "metric {:<44} {:>16} {:<6} samples {}",
            "failed_frac",
            format_value(tally.failed_frac()),
            "ratio",
            tally.attempted
        );
        println!("{}", self.json(tally));
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self, tally: &Tally) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            tally.failed == 0 && tally.attempted > 0,
            tally.attempted.max(1),
            tally.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                format_value(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Formats a value with all its digits (JSON has no NaN or infinity; those
/// print as 0 and never come from a well-formed run).
fn format_value(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Outcome;

    #[test]
    fn json_line_has_the_four_keys_and_full_digits() {
        let mut report = Report::default();
        report.add("latency_ms_p50", 1.203_456_789, "ms", 10);
        report.add("setup_s", 0.5, "s", 5);
        let mut tally = Tally::default();
        tally.record(Outcome::Exact, 0.1, 1.0);
        assert_eq!(
            report.json(&tally),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"latency_ms_p50\": {\"value\": 1.203456789, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        tally.record(Outcome::Failed, 0.1, 1.0);
        assert!(report
            .json(&tally)
            .starts_with("{\"correct\": false, \"attempted\": 2"));
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
