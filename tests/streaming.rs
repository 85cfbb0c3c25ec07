//! Continuous-operation mode, end to end: the differential harness that
//! proves streaming ingestion plus incremental reporting is *batch-exact*.
//!
//! The contract, clause by clause:
//!
//! * after the final window a streamed study's accumulated datasets, its
//!   rolling report, and every public export are byte-identical to a batch
//!   run of the same config — the headline guarantee;
//! * the guarantee holds at any thread count, with the spill budget armed
//!   or not, and with the CGN tier injecting NAT probe tables;
//! * mid-stream, every window callback sees a consistent prefix: indices
//!   are sequential, window ends advance by the cadence, and the rolling
//!   artifacts only ever grow;
//! * faultlab scenarios double as live chaos drills: a flapping collector
//!   or churning routers mid-stream must converge to the batch-faulted
//!   run once the store-and-forward queue drains, and router churn's
//!   losses must surface as explicit gap declarations in the windowed
//!   datasets — not silently missing rows.

use bismark::study::{run_study, run_study_stream, StudyConfig};
use collector::SpillConfig;
use faultlab::FaultScenario;
use simnet::time::SimDuration;

/// The headline differential: quick(7, 20) streamed at a 3-day cadence is
/// byte-identical to the batch run — datasets, rendered report, JSON and
/// CSV exports — while the per-window callbacks observe a monotonically
/// growing prefix.
#[test]
fn streamed_quick_study_is_byte_identical_to_batch() {
    let config = StudyConfig::quick(7, 20);
    let batch = run_study(&config);

    let mut seen = Vec::new();
    let streamed = run_study_stream(&config, SimDuration::from_days(3), |w| {
        seen.push((w.index, w.window.end, w.datasets.record_count(), w.report.routers.len()));
    });

    // 20 days at a 3-day cadence: six full windows plus a 2-day remainder.
    assert_eq!(streamed.windows_run, 7);
    assert_eq!(seen.len(), 7);
    for (i, (index, end, records, routers)) in seen.iter().enumerate() {
        assert_eq!(*index as usize, i, "window indices must be sequential");
        assert!(*routers > 0, "every window must already see registered routers");
        if i > 0 {
            assert!(*end > seen[i - 1].1, "window ends must advance");
            assert!(
                *records >= seen[i - 1].2,
                "the accumulated record count may never shrink"
            );
        }
    }
    let last = seen.last().expect("at least one window");
    assert_eq!(last.1, config.windows.span.end, "final window ends at span end");
    assert_eq!(last.2, streamed.study.datasets.record_count());

    // The headline guarantee, strongest form first: raw datasets...
    assert!(
        batch.datasets == streamed.study.datasets,
        "streamed datasets diverged from batch"
    );
    // ...the rolling report against the batch recompute...
    let report_batch = batch.report().render(&batch.datasets);
    let report_streamed = streamed.report.render(&streamed.study.datasets);
    assert_eq!(report_batch, report_streamed, "reports must match byte for byte");
    // ...and both public exports.
    let json_batch = collector::export::to_json(&batch.datasets).expect("export");
    let json_streamed = collector::export::to_json(&streamed.study.datasets).expect("export");
    assert_eq!(json_batch, json_streamed, "JSON exports must match byte for byte");
    let csv_batch = collector::export::to_csv(&batch.datasets);
    let csv_streamed = collector::export::to_csv(&streamed.study.datasets);
    assert_eq!(csv_batch, csv_streamed, "CSV exports must match byte for byte");
}

/// Thread-count invariance: the stream loop partitions homes across worker
/// threads per window, so the sealed deltas arrive in a thread-dependent
/// interleaving — and the incremental state must not care.
#[test]
fn streamed_studies_are_deterministic_across_thread_counts() {
    let mut one = StudyConfig::quick(3, 5);
    one.threads = 1;
    let mut eight = StudyConfig::quick(3, 5);
    eight.threads = 8;
    let cadence = SimDuration::from_hours(30);
    let a = run_study_stream(&one, cadence, |_| {});
    let b = run_study_stream(&eight, cadence, |_| {});
    assert_eq!(a.windows_run, b.windows_run);
    assert!(a.study.datasets == b.study.datasets);
    assert_eq!(
        a.report.render(&a.study.datasets),
        b.report.render(&b.study.datasets),
        "rolling reports must not depend on the thread count"
    );
}

/// Streaming composes with the out-of-core spill: window deltas may be
/// disk-backed when they cross the watermark, and the final output must
/// still be byte-identical to the *unwindowed* spilled run.
#[test]
fn streamed_spilled_study_matches_unwindowed_spilled_run() {
    let days = 10;
    let mut spilled_cfg = StudyConfig::quick(7, days);
    // Windowed draining keeps the collector's resident footprint small, so
    // the budget must be tight enough (16 KiB) that traffic tables seal
    // segments *inside* individual stream windows, before each drain.
    spilled_cfg.spill = Some(SpillConfig { budget_bytes: 1 << 14, dir: None });
    let batch = run_study(&spilled_cfg);
    // No other test in this binary arms a spill budget, so the counter
    // moves only with the runs in this test.
    let written = || obs::snapshot().counters.get("spill_segments_written_total").copied();
    let before = written().unwrap_or(0);
    let streamed = run_study_stream(&spilled_cfg, SimDuration::from_days(2), |_| {});

    let stats = streamed.study.spill.as_ref().expect("spill stats present when armed");
    assert!(stats.segments > 0, "the budget must force segment seals mid-stream");
    assert_eq!(stats.error, None, "segment I/O must not fail");
    // The published counter carries the stream's totals, not the empty
    // collector left after the final drain.
    let published = written().expect("an armed stream registers its spill counters") - before;
    assert_eq!(published, stats.segments, "spill_segments_written_total");

    assert!(batch.datasets == streamed.study.datasets);
    let report_batch = batch.report().render(&batch.datasets);
    let report_streamed = streamed.report.render(&streamed.study.datasets);
    assert_eq!(report_batch, report_streamed, "spilled stream must match spilled batch");
    let json_batch = collector::export::to_json(&batch.datasets).expect("export");
    let json_streamed = collector::export::to_json(&streamed.study.datasets).expect("export");
    assert_eq!(json_batch, json_streamed);
}

/// Streaming composes with the CGN tier: NAT probes and punch trials ride
/// the window deltas, and the rolling report's NAT characterization —
/// including the port-allocation table — finalizes to the batch section.
#[test]
fn streamed_cgn_study_matches_batch_nat_characterization() {
    let mut config = StudyConfig::quick(7, 10);
    config.cgn = Some(cgn::CgnScenario::IspMix);
    let batch = run_study(&config);
    let streamed = run_study_stream(&config, SimDuration::from_days(2), |_| {});

    assert!(!streamed.study.datasets.nat_probes.is_empty(), "armed run collects probes");
    assert!(batch.datasets == streamed.study.datasets);

    let report_batch = batch.report().render(&batch.datasets);
    let report_streamed = streamed.report.render(&streamed.study.datasets);
    assert!(
        report_streamed.contains("NAT characterization"),
        "streamed CGN report must include the NAT section"
    );
    assert_eq!(report_batch, report_streamed, "CGN reports must match byte for byte");
}

/// Chaos drill #1 — flapping collector. Uploads are nacked during the
/// announced downtime and retried across window boundaries; once the
/// queue drains the streamed study must converge to the batch-faulted
/// run exactly, delivery accounting included.
#[test]
fn collector_flap_drill_converges_to_batch_exact() {
    let mut config = StudyConfig::quick(7, 6);
    config.faults = Some(FaultScenario::CollectorFlap);
    let batch = run_study(&config);
    let streamed = run_study_stream(&config, SimDuration::from_hours(36), |_| {});

    // The drill was real: downtime was injected and uploads bounced.
    assert!(!streamed.study.fault_plan.is_empty());
    assert!(streamed.study.upload_counters.rejected > 0);
    assert!(streamed.study.upload_counters.retried_accepted > 0);
    assert!(streamed.study.dropped_in_downtime > 0);

    // Convergence: datasets, delivery accounting, and the report all match
    // the batch-faulted run byte for byte.
    assert!(batch.datasets == streamed.study.datasets);
    assert_eq!(batch.upload_counters, streamed.study.upload_counters);
    assert_eq!(batch.dropped_in_downtime, streamed.study.dropped_in_downtime);
    assert_eq!(
        batch.report().render(&batch.datasets),
        streamed.report.render(&streamed.study.datasets)
    );
}

/// Chaos drill #2 — router churn. Flash wipes destroy spooled data, and
/// the stream must account every loss as an explicit gap declaration in
/// the windowed datasets (visible live, not only at study end) while the
/// final state still matches the batch-churned run.
#[test]
fn router_churn_drill_ledgers_gaps_in_windowed_datasets() {
    let mut config = StudyConfig::quick(7, 6);
    config.faults = Some(FaultScenario::RouterChurn);
    let batch = run_study(&config);

    let mut gap_windows = Vec::new();
    let streamed = run_study_stream(&config, SimDuration::from_hours(36), |w| {
        if !w.datasets.upload_gaps.is_empty() {
            gap_windows.push((w.index, w.datasets.upload_gaps.len()));
        }
    });

    assert!(streamed.study.fault_plan.flash_wipe_count() > 0);
    assert!(
        !streamed.study.datasets.upload_gaps.is_empty(),
        "wipes must appear on the gap ledger"
    );
    // The ledger surfaces live: some window *before the last* already
    // carries gap declarations, and the per-window counts only grow.
    assert!(
        gap_windows.iter().any(|(index, _)| *index + 1 < streamed.windows_run),
        "gap declarations must be visible mid-stream, not only at study end: {gap_windows:?}"
    );
    for pair in gap_windows.windows(2) {
        assert!(pair[1].1 >= pair[0].1, "the gap ledger may never shrink");
    }

    // Convergence with the batch-churned run: identical ledger, datasets,
    // and report.
    assert_eq!(batch.datasets.upload_gaps, streamed.study.datasets.upload_gaps);
    assert!(batch.datasets == streamed.study.datasets);
    assert_eq!(
        batch.report().render(&batch.datasets),
        streamed.report.render(&streamed.study.datasets)
    );
}
