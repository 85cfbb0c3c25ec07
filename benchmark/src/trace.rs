//! In-memory spans around the calls the benchmark makes into each layer,
//! written out at exit in Chrome trace format.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One timed interval: a layer call, or a phase the study reports.
#[derive(Debug)]
struct Span {
    /// Layer-qualified name, e.g. `household.build_deployment`.
    name: String,
    /// Offset of the start from the trace origin.
    start: Duration,
    /// Offset of the end from the trace origin.
    end: Duration,
    /// Index of the enclosing span.
    parent: Option<usize>,
}

/// Every span of one run, in the order they were opened.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Trace {
        Trace { origin: Instant::now(), spans: Vec::new() }
    }
}

impl Trace {
    /// Open a span now; close it with [`Trace::end`].
    pub fn start(&mut self, name: &str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent)
    }

    /// Close a span opened with [`Trace::start`].
    pub fn end(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed();
    }

    /// Add a span whose bounds were measured elsewhere (a phase timing
    /// the study reports, placed where it ran).
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
            parent,
        });
        self.spans.len() - 1
    }

    /// Self time per span name: each span's duration minus the part of it
    /// its children cover, summed over spans of that name.
    pub fn self_times(&self) -> BTreeMap<String, Duration> {
        let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start, span.end));
            }
        }
        let mut out = BTreeMap::new();
        for (span, mut kids) in self.spans.iter().zip(children) {
            kids.sort();
            let mut covered = Duration::ZERO;
            let mut reach = span.start;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(span.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            let own = span.end.saturating_sub(span.start).saturating_sub(covered);
            *out.entry(span.name.clone()).or_insert(Duration::ZERO) += own;
        }
        out
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto): one
    /// complete event per span, its parent named in `args`.
    pub fn to_chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("", |p| self.spans[p].name.as_str());
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                     \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"parent\":\"{parent}\"}}}}",
                    s.name,
                    s.start.as_secs_f64() * 1e6,
                    s.end.saturating_sub(s.start).as_secs_f64() * 1e6
                )
            })
            .collect();
        format!("{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut trace = Trace { origin: t0, spans: Vec::new() };
        let root = trace.record("root", at(0), at(100), None);
        trace.record("a", at(10), at(40), Some(root));
        // Overlaps `a` by 10 ms and runs past the parent's end.
        trace.record("b", at(30), at(120), Some(root));
        let own = trace.self_times();
        assert_eq!(own["root"], Duration::from_millis(10));
        assert_eq!(own["a"], Duration::from_millis(30));
        assert_eq!(own["b"], Duration::from_millis(90));
        assert!(trace.to_chrome_json().contains("\"parent\":\"root\""));
    }
}
