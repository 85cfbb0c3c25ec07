//! The repository benchmark.
//!
//! `benchmark` runs each named [`workload::Workload`] in a child process
//! of its own, one at a time, and aggregates what the children print into
//! medians and quartiles per metric. `benchmark-trace` is the traced child:
//! it counts allocations, times the calls into each layer's public
//! functions, and reports the per-layer metrics. Both run the study through
//! [`run::run_workload`]. `BENCHMARK.json` at the repository root declares
//! the workloads and every metric's unit, direction and bound.

pub mod catalog;
pub mod compare;
pub mod digest;
pub mod probe;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;

use digest::Digests;
use std::collections::BTreeMap;

/// What one child process measured and checked. Children print it on
/// stdout, one item per line, and `benchmark` parses it back.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Digests of the run's outputs.
    pub digests: Digests,
    /// Output checks as (name, passed).
    pub checks: Vec<(String, bool)>,
}

impl Sample {
    /// The line protocol: `metric NAME VALUE`, `digest REPORT CSV METRICS`
    /// (hex) and `check PASSED NAME`.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.metrics {
            out.push_str(&format!("metric {name} {value}\n"));
        }
        let [r, c, m] = self.digests.values();
        out.push_str(&format!("digest {r:016x} {c:016x} {m:016x}\n"));
        for (name, ok) in &self.checks {
            out.push_str(&format!("check {} {name}\n", u8::from(*ok)));
        }
        out
    }

    /// Parse [`Sample::to_text`] output.
    pub fn parse(text: &str) -> Result<Sample, String> {
        let (mut metrics, mut digests, mut checks) = (BTreeMap::new(), None, Vec::new());
        for line in text.lines() {
            let bad = || format!("malformed child output line: {line:?}");
            let mut words = line.splitn(3, ' ');
            match (words.next(), words.next(), words.next()) {
                (Some("metric"), Some(name), Some(value)) => {
                    metrics.insert(name.to_string(), value.parse().map_err(|_| bad())?);
                }
                (Some("digest"), Some(report), Some(rest)) => {
                    let hex = |s: &str| u64::from_str_radix(s, 16).map_err(|_| bad());
                    let (csv, metrics) = rest.split_once(' ').ok_or_else(bad)?;
                    digests = Some(Digests::from_values([hex(report)?, hex(csv)?, hex(metrics)?]));
                }
                (Some("check"), Some(ok @ ("0" | "1")), Some(name)) => {
                    checks.push((name.to_string(), ok == "1"));
                }
                _ => return Err(bad()),
            }
        }
        let digests = digests.ok_or("child output has no digest line")?;
        Ok(Sample { metrics, digests, checks })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_round_trips_through_the_line_protocol() {
        let sample = Sample {
            metrics: [("wall_s".into(), 5.123456789012345), ("records_per_s".into(), 6.5e6)].into(),
            digests: Digests::from_values([1, u64::MAX, 0xabc]),
            checks: vec![("records > 0".into(), true), ("spill.error is None".into(), false)],
        };
        assert_eq!(Sample::parse(&sample.to_text()), Ok(sample));
        assert!(Sample::parse("metric wall_s 1.5\n").is_err(), "no digest line");
        assert!(Sample::parse("metric wall_s fast\n").is_err());
        assert!(Sample::parse("hello\n").is_err());
    }
}
