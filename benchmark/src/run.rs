//! One run of a workload: the study call, the report built from it, and
//! the timings every metric is derived from.

use crate::probe;
use crate::trace::Trace;
use crate::workload::{Scale, Workload};
use analysis::StudyReport;
use bismark::study::{run_study, run_study_stream, StudyOutput};
use std::time::{Duration, Instant};

/// What one stream window cost, taken in the window callback.
#[derive(Debug, Clone, Copy)]
pub struct WindowCost {
    /// When the window's callback ran.
    pub closed: Instant,
    /// Folding the window's delta into the incremental state.
    pub update: Duration,
    /// Finalizing the rolling report.
    pub finalize: Duration,
}

/// A finished run of one workload.
#[derive(Debug)]
pub struct Run {
    /// The study's output.
    pub output: StudyOutput,
    /// The rendered report.
    pub rendered: String,
    /// Per-window costs (stream workloads only).
    pub windows: Vec<WindowCost>,
    /// The study call through the rendered report.
    pub wall: Duration,
    /// The study call alone.
    pub study: Duration,
    /// `StudyReport::compute` (batch workloads only; a stream already
    /// holds its rolling report).
    pub compute: Duration,
    /// `StudyReport::render`.
    pub render: Duration,
    /// CPU time spent in the study call, all threads.
    pub study_cpu_s: f64,
    /// Allocations and bytes allocated during the study call, as counted
    /// by the caller's allocator hook.
    pub study_allocs: [u64; 2],
}

impl Run {
    /// Σ(update + finalize) over the stream windows.
    pub fn incremental(&self) -> Duration {
        self.windows.iter().map(|w| w.update + w.finalize).sum()
    }

    /// The study call minus simulate, snapshot and the incremental
    /// report: deployment, plans, collector set-up and teardown.
    pub fn setup(&self) -> Duration {
        let t = self.output.timings;
        self.study.saturating_sub(t.simulate + t.snapshot + self.incremental())
    }

    /// Records across all data sets.
    pub fn records(&self) -> u64 {
        self.output.datasets.record_count() as u64
    }

    /// The checks a run makes on its own output, as (name, passed).
    pub fn checks(&self) -> Vec<(String, bool)> {
        let mut checks = vec![("records > 0".to_string(), self.records() > 0)];
        if let Some(spill) = &self.output.spill {
            checks.push(("spill.error is None".to_string(), spill.error.is_none()));
        }
        checks
    }
}

/// Run `workload` once: the study call, then the report, recording a
/// span per layer call under `parent`. `allocs` reads the caller's
/// allocation counters (zeros where nothing counts).
pub fn run_workload(
    workload: Workload,
    seed: u64,
    scale: Scale,
    trace: &mut Trace,
    parent: usize,
    allocs: fn() -> [u64; 2],
) -> Run {
    let config = workload.config(seed, scale);
    let started = Instant::now();
    let cpu_before = probe::cpu_seconds();
    let allocs_before = allocs();
    let study_span = trace.start("study", Some(parent));
    let mut windows = Vec::new();
    let (output, streamed) = match workload.cadence() {
        Some(cadence) => {
            let out = run_study_stream(&config, cadence, |w| {
                windows.push(WindowCost {
                    closed: Instant::now(),
                    update: w.update_cost,
                    finalize: w.finalize_cost,
                });
            });
            (out.study, Some(out.report))
        }
        None => (run_study(&config), None),
    };
    trace.end(study_span);
    let study_end = Instant::now();
    let study_cpu_s = probe::cpu_seconds() - cpu_before;
    let allocs_after = allocs();
    place_study_phases(trace, study_span, started, study_end, &output, &windows);

    let compute_start = Instant::now();
    let report = match streamed {
        Some(report) => report,
        None => {
            let span = trace.start("analysis.compute", Some(parent));
            let report = StudyReport::compute(&output.datasets, output.windows.report_windows());
            trace.end(span);
            report
        }
    };
    let render_start = Instant::now();
    let span = trace.start("analysis.render", Some(parent));
    let rendered = report.render(&output.datasets);
    trace.end(span);
    let end = Instant::now();
    Run {
        output,
        rendered,
        windows,
        wall: end - started,
        study: study_end - started,
        compute: render_start - compute_start,
        render: end - render_start,
        study_cpu_s,
        study_allocs: [allocs_after[0] - allocs_before[0], allocs_after[1] - allocs_before[1]],
    }
}

/// Add the phases the study reports as child spans of the study call.
/// Batch: simulate then snapshot, placed at the end of the call. Stream:
/// one span per window from the previous callback to this one, holding
/// its update and finalize. Durations are exact; an update is placed just
/// before its finalize, although the absorb step runs between the two.
fn place_study_phases(
    trace: &mut Trace,
    study: usize,
    start: Instant,
    end: Instant,
    output: &StudyOutput,
    windows: &[WindowCost],
) {
    if windows.is_empty() {
        let snapshot_start = end - output.timings.snapshot;
        trace.record(
            "study.simulate",
            snapshot_start - output.timings.simulate,
            snapshot_start,
            Some(study),
        );
        trace.record("study.snapshot", snapshot_start, end, Some(study));
        return;
    }
    let mut previous = start;
    for w in windows {
        let window = trace.record("stream.window", previous, w.closed, Some(study));
        let finalize_start = w.closed - w.finalize;
        trace.record("analysis.update", finalize_start - w.update, finalize_start, Some(window));
        trace.record("analysis.finalize", finalize_start, w.closed, Some(window));
        previous = w.closed;
    }
}
