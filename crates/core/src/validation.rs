//! Measurement validation: how close does the *measured* world come to the
//! simulated ground truth?
//!
//! The paper's §3.3 is explicit that heartbeats are an imperfect
//! instrument: they conflate "router off" with "path lossy", and lost
//! packets can masquerade as downtime. In the reproduction we hold the
//! ground truth (the generative availability schedule), so we can quantify
//! exactly how biased the instrument is — something the deployment never
//! could. This module recomputes each home's true reachable intervals with
//! the same derivation the simulation ran ([`HomeSchedules::derive`],
//! injected power cycles included) and compares them with what the
//! heartbeat log measured.

use crate::homesim::HomeSchedules;
use crate::study::{StudyOutput, StudyWindows};
use collector::windows::Window;
use faultlab::HomeFaults;
use firmware::records::RouterId;
use household::interval::{intersect, subtract, total_duration, Interval};
use household::HomeConfig;

/// Ground-truth reachable intervals for one home: powered and not in an
/// ISP outage, under the schedules its simulation derived from `seed` and
/// its slice of the fault plan.
pub fn ground_truth_up(
    cfg: &HomeConfig,
    windows: &StudyWindows,
    seed: u64,
    faults: Option<&HomeFaults>,
) -> Vec<Interval> {
    let span = windows.span;
    let schedules = HomeSchedules::derive(cfg, span, seed, faults);
    let isp_up = subtract(&[Interval::new(span.start, span.end)], &schedules.outages);
    intersect(&schedules.powered, &isp_up)
}

/// One home's measured-vs-truth comparison.
#[derive(Debug, Clone, Copy)]
pub struct HomeValidation {
    /// The home.
    pub router: RouterId,
    /// True fraction of the span the router was reachable.
    pub true_up_fraction: f64,
    /// Fraction the heartbeat log measured.
    pub measured_coverage: f64,
    /// Downtime events (≥10 min) in the ground truth.
    pub true_downtimes: usize,
    /// Downtime events the heartbeat analysis found.
    pub measured_downtimes: usize,
}

impl HomeValidation {
    /// Absolute coverage error of the instrument for this home.
    pub fn coverage_error(&self) -> f64 {
        (self.true_up_fraction - self.measured_coverage).abs()
    }
}

/// The full validation report.
#[derive(Debug, Clone)]
pub struct ValidationReport {
    /// Per-home rows.
    pub homes: Vec<HomeValidation>,
    /// Mean absolute coverage error across homes.
    pub mean_coverage_error: f64,
    /// Mean |measured − true| downtime-count error, in events.
    pub mean_downtime_count_error: f64,
}

/// Validate a study's heartbeat instrument against ground truth.
pub fn validate_availability(output: &StudyOutput, seed: u64) -> ValidationReport {
    let span = output.windows.span;
    let window = Window { start: span.start, end: span.end };
    let threshold = analysis::availability::DOWNTIME_THRESHOLD;
    let mut homes = Vec::with_capacity(output.homes.len());
    for cfg in &output.homes {
        let router = RouterId(cfg.id.0);
        let faults = output.fault_plan.for_router(router);
        let truth = ground_truth_up(cfg, &output.windows, seed, faults);
        let true_up = total_duration(&truth) / span.duration();
        let true_gaps = household::interval::gaps_within(
            &truth,
            Interval::new(window.start, window.end),
        )
        .into_iter()
        .filter(|g| g.duration() >= threshold)
        .count();
        let Some(log) = output.datasets.heartbeats.get(&router) else {
            continue;
        };
        let measured = log.coverage(window.start, window.end);
        let measured_gaps = log.downtimes(window.start, window.end, threshold).len();
        homes.push(HomeValidation {
            router,
            true_up_fraction: true_up,
            measured_coverage: measured,
            true_downtimes: true_gaps,
            measured_downtimes: measured_gaps,
        });
    }
    let n = homes.len().max(1) as f64;
    ValidationReport {
        mean_coverage_error: homes.iter().map(HomeValidation::coverage_error).sum::<f64>() / n,
        mean_downtime_count_error: homes
            .iter()
            .map(|h| (h.true_downtimes as f64 - h.measured_downtimes as f64).abs())
            .sum::<f64>()
            / n,
        homes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::{run_study, StudyConfig};

    #[test]
    fn heartbeat_instrument_tracks_ground_truth() {
        // Fault-free, and under router churn, whose injected power cycles
        // the truth must follow just as each simulation did.
        for (seed, days, faults) in
            [(31337, 8, None), (7, 20, Some(faultlab::FaultScenario::RouterChurn))]
        {
            let mut config = StudyConfig::quick(seed, days);
            config.faults = faults;
            let output = run_study(&config);
            let report = validate_availability(&output, seed);
            assert!(report.homes.len() > 100, "most homes validated");
            // The instrument is good: a minute-level sampler with
            // sub-percent loss should track coverage within a couple of
            // percent on average.
            assert!(
                report.mean_coverage_error < 0.03,
                "{faults:?}: mean coverage error {}",
                report.mean_coverage_error
            );
            // Downtime counts line up within a few events (boundary
            // effects: boot jitter, losses adjacent to real gaps).
            assert!(
                report.mean_downtime_count_error < 3.0,
                "{faults:?}: mean downtime count error {}",
                report.mean_downtime_count_error
            );
        }
    }

    #[test]
    fn lossy_paths_bias_toward_overcounted_downtime() {
        // With heavy WAN loss, measured coverage must drop below truth —
        // the §3.3 bias made quantitative. We rebuild one home with an
        // extreme loss probability and compare.
        use crate::homesim::{HomeSim, SimParams};
        use collector::{Collector, RouterMeta};
        use household::domains::DomainUniverse;
        use simnet::rng::DetRng;
        let seed = 77;
        let windows = StudyWindows::scaled(Window {
            start: simnet::time::SimTime::EPOCH,
            end: simnet::time::SimTime::EPOCH + simnet::time::SimDuration::from_days(10),
        });
        let universe = DomainUniverse::standard();
        let zone = universe.build_zone();
        let root = DetRng::new(seed);
        let mut cfg = household::HomeConfig::sample(
            household::HomeId(0),
            household::Country::UnitedStates,
            &root.derive_indexed("home", 0),
            &universe,
        );
        cfg.traffic_consent = false;
        cfg.heartbeat_loss_prob = 0.35; // pathologically lossy path
        let collector = Collector::new();
        collector.register(RouterMeta {
            router: RouterId(0),
            country: cfg.country,
            traffic_consent: false,
        });
        HomeSim::new(SimParams {
            cfg: &cfg,
            universe: &universe,
            zone: &zone,
            windows: &windows,
            seed,
            reliable_upload: false,
            faults: None,
            cgn: None,
        })
        .run(&collector);
        let data = collector.drain_delta();
        let truth = ground_truth_up(&cfg, &windows, seed, None);
        let true_up = total_duration(&truth) / windows.span.duration();
        let measured = data.heartbeats[&RouterId(0)]
            .coverage(windows.span.start, windows.span.end);
        // 35% independent loss still rarely produces 3-minute holes, but
        // the measured coverage cannot exceed the truth.
        assert!(measured <= true_up + 1e-9, "measured {measured} vs true {true_up}");
    }
}
