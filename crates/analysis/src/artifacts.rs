//! Measurement-artifact detection: telling collector-side failures apart
//! from genuine home downtime.
//!
//! §3.3 admits that "various outages and failures — both of the routers
//! themselves and of the collection infrastructure — introduced
//! interruptions in our collection". A collector outage looks, in any one
//! router's log, exactly like that router going down; but *across* routers
//! it has a fingerprint no household behavior can produce: the gaps are
//! simultaneous everywhere. This module scans the heartbeat logs for
//! instants where an abnormal fraction of otherwise-reporting routers went
//! silent together and flags them, so the availability analysis can be
//! audited for infrastructure artifacts.

use collector::windows::Window;
use collector::Datasets;
use simnet::time::{SimDuration, SimTime, MICROS_PER_MIN};

/// A window flagged as a probable collector-side outage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorrelatedGap {
    /// Start of the flagged window.
    pub start: SimTime,
    /// End of the flagged window.
    pub end: SimTime,
    /// Fraction of (otherwise reporting) routers silent during it.
    pub silent_fraction: f64,
}

/// Scan for correlated gaps: minutes where at least `threshold` of the
/// routers that reported both before and after were simultaneously silent
/// for `min_len` or longer.
///
/// The scan works on a per-minute silence bitmap derived from the run
/// logs, so its cost is `O(routers × window-minutes)`.
pub fn correlated_gaps(
    data: &Datasets,
    window: Window,
    threshold: f64,
    min_len: SimDuration,
) -> Vec<CorrelatedGap> {
    let minutes = (window.duration().as_micros() / MICROS_PER_MIN) as usize;
    if minutes == 0 || data.heartbeats.is_empty() {
        return Vec::new();
    }
    // For each minute, count routers whose log has coverage there among
    // routers active in the window at all.
    let mut silent = vec![0u32; minutes];
    let mut active_routers = 0u32;
    for log in data.heartbeats.values() {
        let Some((first, last)) = log.extent() else { continue };
        if first >= window.end || last <= window.start {
            continue;
        }
        active_routers += 1;
        // Mark silent minutes: those not covered by any run, clipped to
        // the router's own extent (a router not yet deployed is not
        // "silent").
        let lo = first.max(window.start);
        let hi = last.min(window.end);
        let mut idx = ((lo.as_micros() - window.start.as_micros()) / MICROS_PER_MIN) as usize;
        let end_idx = ((hi.as_micros() - window.start.as_micros()) / MICROS_PER_MIN) as usize;
        let mut runs = log.runs().iter().peekable();
        while idx < end_idx.min(minutes) {
            let t = window.start + SimDuration::from_micros(idx as u64 * MICROS_PER_MIN);
            // Advance runs past t.
            while let Some(run) = runs.peek() {
                if run.last < t {
                    runs.next();
                } else {
                    break;
                }
            }
            let covered = runs
                .peek()
                .is_some_and(|run| run.first <= t + SimDuration::from_mins(1) && run.last >= t);
            if !covered {
                silent[idx] += 1;
            }
            idx += 1;
        }
    }
    if active_routers == 0 {
        return Vec::new();
    }
    // Collect maximal runs of minutes above the threshold.
    let needed = (threshold * f64::from(active_routers)).ceil() as u32;
    let min_minutes = (min_len.as_mins() as usize).max(1);
    let mut out = Vec::new();
    let mut run_start: Option<usize> = None;
    for (idx, &count) in silent.iter().enumerate() {
        if count >= needed {
            run_start.get_or_insert(idx);
        } else if let Some(start_idx) = run_start.take() {
            if idx - start_idx >= min_minutes {
                out.push(make_gap(window, start_idx, idx, &silent, active_routers));
            }
        }
    }
    if let Some(start_idx) = run_start {
        if minutes - start_idx >= min_minutes {
            out.push(make_gap(window, start_idx, minutes, &silent, active_routers));
        }
    }
    out
}

/// How well a set of flagged gaps matches ground-truth outage windows.
///
/// Counterpart to the fault-injection subsystem: a study run under a
/// `faultlab` scenario knows exactly when the collector was down, so the
/// detector stops being a heuristic and becomes a measurable instrument.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionScore {
    /// Ground-truth windows matched by at least one flagged gap.
    pub detected: usize,
    /// Flagged gaps matching no ground-truth window.
    pub false_positives: usize,
    /// Ground-truth windows no flagged gap matched.
    pub missed: usize,
    /// Fraction of flagged gaps that are real (1.0 when nothing flagged).
    pub precision: f64,
    /// Fraction of ground-truth windows detected (1.0 when none exist).
    pub recall: f64,
}

/// Score `flagged` against ground-truth outage `truth` windows. A flag and
/// a truth window match when they overlap after widening both ends by
/// `slack` (the per-minute bitmap and the run-length tolerance blur edges
/// by a few minutes; slack keeps the score about detection, not rounding).
pub fn score_against_truth(
    flagged: &[CorrelatedGap],
    truth: &[Window],
    slack: SimDuration,
) -> DetectionScore {
    let matches =
        |g: &CorrelatedGap, w: &Window| g.start <= w.end + slack && w.start <= g.end + slack;
    let true_flags = flagged.iter().filter(|g| truth.iter().any(|w| matches(g, w))).count();
    let detected = truth.iter().filter(|w| flagged.iter().any(|g| matches(g, w))).count();
    DetectionScore {
        detected,
        false_positives: flagged.len() - true_flags,
        missed: truth.len() - detected,
        precision: if flagged.is_empty() {
            1.0
        } else {
            true_flags as f64 / flagged.len() as f64
        },
        recall: if truth.is_empty() { 1.0 } else { detected as f64 / truth.len() as f64 },
    }
}

fn make_gap(
    window: Window,
    start_idx: usize,
    end_idx: usize,
    silent: &[u32],
    active: u32,
) -> CorrelatedGap {
    let peak = silent[start_idx..end_idx].iter().max().copied().unwrap_or(0);
    CorrelatedGap {
        start: window.start + SimDuration::from_micros(start_idx as u64 * MICROS_PER_MIN),
        end: window.start + SimDuration::from_micros(end_idx as u64 * MICROS_PER_MIN),
        silent_fraction: f64::from(peak) / f64::from(active),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collector::{Collector, RouterMeta};
    use firmware::records::{HeartbeatRecord, RouterId};
    use household::Country;

    fn m(mins: u64) -> SimTime {
        SimTime::EPOCH + SimDuration::from_mins(mins)
    }

    /// Ten routers reporting continuously, with a collector outage at
    /// minutes 100..130 and one router individually down 300..340.
    fn synthetic() -> Datasets {
        let collector = Collector::new();
        collector.set_outages(vec![Window { start: m(100), end: m(130) }]);
        for router in 0..10u32 {
            collector.register(RouterMeta {
                router: RouterId(router),
                country: Country::UnitedStates,
                traffic_consent: false,
            });
        }
        for minute in 0..500u64 {
            for router in 0..10u32 {
                if router == 3 && (300..340).contains(&minute) {
                    continue; // a genuine single-home outage
                }
                collector
                    .ingest_heartbeat(HeartbeatRecord { router: RouterId(router), at: m(minute) });
            }
        }
        collector.drain_delta()
    }

    #[test]
    fn collector_outage_flagged_individual_outage_not() {
        let data = synthetic();
        let window = Window { start: m(0), end: m(500) };
        let flagged = correlated_gaps(&data, window, 0.8, SimDuration::from_mins(10));
        assert_eq!(flagged.len(), 1, "exactly the collector outage: {flagged:?}");
        let gap = flagged[0];
        assert!(gap.start >= m(95) && gap.start <= m(105), "start {:?}", gap.start);
        assert!(gap.end >= m(125) && gap.end <= m(135), "end {:?}", gap.end);
        assert!(gap.silent_fraction >= 0.99);
    }

    #[test]
    fn clean_data_has_no_flags() {
        let collector = Collector::new();
        collector.register(RouterMeta {
            router: RouterId(0),
            country: Country::UnitedStates,
            traffic_consent: false,
        });
        for minute in 0..200u64 {
            collector.ingest_heartbeat(HeartbeatRecord { router: RouterId(0), at: m(minute) });
        }
        let data = collector.drain_delta();
        let flagged = correlated_gaps(
            &data,
            Window { start: m(0), end: m(200) },
            0.8,
            SimDuration::from_mins(10),
        );
        assert!(flagged.is_empty(), "{flagged:?}");
    }

    /// The end-to-end ground-truth check: compile the `collector-flap`
    /// scenario from faultlab, let the collector drop heartbeat datagrams
    /// during the planned downtime exactly as the fault pipeline does, mix
    /// in genuine single-home outages, and score the detector. Precision
    /// and recall must both clear 0.9: every planned window flagged, the
    /// per-home outages not.
    #[test]
    fn detector_scores_against_faultlab_ground_truth() {
        let days = 20u64;
        let span = Window { start: m(0), end: m(days * 24 * 60) };
        let routers: Vec<RouterId> = (0..12u32).map(RouterId).collect();
        let plan = faultlab::FaultPlan::scenario(
            faultlab::FaultScenario::CollectorFlap,
            11,
            span,
            &routers,
        );
        assert!(plan.collector_downtime.len() >= 2, "scenario must inject outages");
        let collector = Collector::new();
        collector.set_downtime(plan.collector_downtime.clone());
        for &router in &routers {
            collector.register(RouterMeta {
                router,
                country: Country::UnitedStates,
                traffic_consent: false,
            });
        }
        for minute in 0..days * 24 * 60 {
            for &router in &routers {
                // Router 3 takes a genuine 4-hour nap each day; router 7
                // has one long multi-day outage. Neither is correlated.
                let daily = minute % (24 * 60);
                if router == RouterId(3) && (120..360).contains(&daily) {
                    continue;
                }
                if router == RouterId(7) && (10_000..14_000).contains(&minute) {
                    continue;
                }
                collector.ingest_heartbeat(HeartbeatRecord { router, at: m(minute) });
            }
        }
        assert!(collector.dropped_in_downtime() > 0, "downtime must drop datagrams");
        let data = collector.drain_delta();
        let flagged = correlated_gaps(&data, span, 0.8, SimDuration::from_mins(15));
        let score = score_against_truth(
            &flagged,
            &plan.collector_downtime,
            SimDuration::from_mins(5),
        );
        assert!(
            score.precision >= 0.9,
            "precision {:.2} ({} false positives): {flagged:?}",
            score.precision,
            score.false_positives
        );
        assert!(
            score.recall >= 0.9,
            "recall {:.2} ({} of {} missed)",
            score.recall,
            score.missed,
            plan.collector_downtime.len()
        );
        // The genuine per-home outages must not be among the flags.
        for gap in &flagged {
            assert!(
                plan.collector_downtime.iter().any(|w| gap.start <= w.end && w.start <= gap.end),
                "flagged a window outside every planned outage: {gap:?}"
            );
        }
    }

    #[test]
    fn score_handles_empty_sides() {
        let none: [CorrelatedGap; 0] = [];
        let s = score_against_truth(&none, &[], SimDuration::from_mins(5));
        assert_eq!((s.precision, s.recall), (1.0, 1.0));
        let truth = [Window { start: m(10), end: m(40) }];
        let s = score_against_truth(&none, &truth, SimDuration::from_mins(5));
        assert_eq!(s.recall, 0.0);
        assert_eq!(s.missed, 1);
        assert_eq!(s.precision, 1.0, "nothing flagged, nothing wrong");
        let flag = [CorrelatedGap { start: m(100), end: m(130), silent_fraction: 1.0 }];
        let s = score_against_truth(&flag, &truth, SimDuration::from_mins(5));
        assert_eq!((s.detected, s.false_positives), (0, 1));
        assert_eq!(s.precision, 0.0);
    }

    #[test]
    fn empty_data_is_fine() {
        let data = Datasets::default();
        assert!(correlated_gaps(
            &data,
            Window { start: m(0), end: m(10) },
            0.5,
            SimDuration::from_mins(5)
        )
        .is_empty());
    }
}
