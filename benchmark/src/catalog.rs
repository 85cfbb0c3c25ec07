//! `BENCHMARK.json`: the declared workloads and metrics. The benchmark
//! prints exactly the metrics declared there, with their units, and
//! judges comparisons by their direction and bound.

use serde::value::Value;

/// The declaration, compiled in so a built benchmark always agrees with
/// the file it was built from.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit, as printed.
    pub unit: String,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
    /// Share of the base median by which the metric may worsen before a
    /// change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// Everything `BENCHMARK.json` declares that the benchmark uses.
#[derive(Debug, Clone)]
pub struct Catalog {
    /// Workload names with the reason each was chosen.
    pub workloads: Vec<(String, String)>,
    /// Metrics measured with tracing off.
    pub end_to_end: Vec<Metric>,
    /// Metrics from the traced run.
    pub per_layer: Vec<Metric>,
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("BENCHMARK.json: missing key {key:?}"))
}

fn text(v: &Value, key: &str) -> String {
    field(v, key)
        .as_str()
        .unwrap_or_else(|| panic!("BENCHMARK.json: {key:?} is not a string"))
        .to_string()
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    field(v, key).as_seq().unwrap_or_else(|| panic!("BENCHMARK.json: {key:?} is not a list"))
}

fn metrics(doc: &Value, key: &str) -> Vec<Metric> {
    list(doc, key)
        .iter()
        .map(|m| Metric {
            name: text(m, "name"),
            unit: text(m, "unit"),
            higher_is_better: text(m, "better") == "higher",
            bound: m.as_map().and_then(|e| e.iter().find(|(k, _)| k == "bound")).map(|(_, b)| {
                match b {
                    Value::Float(f) => *f,
                    Value::UInt(u) => *u as f64,
                    other => panic!("BENCHMARK.json: bound {other:?} is not a number"),
                }
            }),
        })
        .collect()
}

impl Catalog {
    /// Parse the compiled-in `BENCHMARK.json`.
    pub fn load() -> Catalog {
        Catalog::parse(BENCHMARK_JSON)
    }

    /// Parse a `BENCHMARK.json` document.
    pub fn parse(json: &str) -> Catalog {
        let doc: Value = serde_json::from_str(json).expect("BENCHMARK.json parses");
        Catalog {
            workloads: list(&doc, "workloads")
                .iter()
                .map(|w| (text(w, "name"), text(w, "why")))
                .collect(),
            end_to_end: metrics(&doc, "end_to_end"),
            per_layer: metrics(&doc, "per_layer"),
        }
    }

    /// The declared metric with this name, in either list.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end.iter().chain(&self.per_layer).find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn declared_workloads_are_the_ones_the_benchmark_runs() {
        let catalog = Catalog::load();
        let declared: Vec<&str> = catalog.workloads.iter().map(|(n, _)| n.as_str()).collect();
        let runs: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(declared, runs);
        assert!(catalog.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(catalog.per_layer.iter().all(|m| m.bound.is_none()));
        assert!(catalog.metric("setup_s").is_some());
    }
}
