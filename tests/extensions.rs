//! End-to-end tests for the beyond-the-paper extensions: latency probing,
//! the uCap manager, device fingerprinting, and instrument validation, all
//! over one shared reduced study.

use analysis::caps::{account, Plan};
use analysis::fingerprint::{evaluate_labeled, features, Features};
use bismark::study::{run_study, StudyConfig, StudyOutput};
use bismark::validation;
use household::DeviceType;
use std::sync::OnceLock;

const SEED: u64 = 90210;

fn study() -> &'static StudyOutput {
    static STUDY: OnceLock<StudyOutput> = OnceLock::new();
    STUDY.get_or_init(|| run_study(&StudyConfig::quick(SEED, 16)))
}

#[test]
fn latency_dataset_is_regional_and_sane() {
    let output = study();
    assert!(!output.datasets.latency.is_empty(), "latency probes collected");
    for rec in &output.datasets.latency {
        assert!(rec.rtt_min <= rec.rtt_median && rec.rtt_median <= rec.rtt_max);
        assert!(rec.rtt_min.as_secs_f64() > 0.005, "RTT above 5 ms");
        assert!(rec.rtt_max.as_secs_f64() < 30.0, "RTT below 30 s");
    }
    let regions = output.report().latency;
    let developed = regions
        .iter()
        .find(|r| r.region == household::Region::Developed)
        .expect("developed row");
    let developing = regions
        .iter()
        .find(|r| r.region == household::Region::Developing)
        .expect("developing row");
    assert!(developed.homes > 50 && developing.homes > 20);
    assert!(
        developing.median_rtt_ms > 1.5 * developed.median_rtt_ms,
        "the US-hosted server is farther from developing homes: {} vs {}",
        developing.median_rtt_ms,
        developed.median_rtt_ms
    );
}

#[test]
fn caps_manager_accounts_every_traffic_home() {
    let output = study();
    let windows = output.windows.report_windows();
    let plan = Plan::monthly(10 * 1_000_000_000, windows.traffic);
    let usage = account(&output.datasets, windows.traffic, &plan);
    assert!(!usage.is_empty());
    // Descending order, consistent per-device sums.
    for pair in usage.windows(2) {
        assert!(pair[0].total_bytes >= pair[1].total_bytes);
    }
    for home in &usage {
        let device_sum: u64 = home.per_device.iter().map(|(_, b)| *b).sum();
        assert_eq!(device_sum, home.total_bytes, "device breakdown must sum to total");
        // Alerts are ordered by threshold and usage at the alert is at or
        // past the mark.
        for alert in &home.alerts {
            assert!(alert.usage_bytes as f64 >= plan.cap_bytes as f64 * alert.threshold - 1.0);
        }
    }
}

#[test]
fn fingerprinting_beats_chance_on_type_labels() {
    let output = study();
    let devices: Vec<_> =
        output.report().fig20.into_iter().filter(|d| d.total_bytes >= 200 * 1024).collect();
    // Survey-style labels: unambiguous OUI matches within each home.
    let mut labeled: Vec<(DeviceType, Features)> = Vec::new();
    for observed in &devices {
        let home = &output.homes[observed.router.0 as usize];
        let candidates: Vec<_> =
            home.devices.iter().filter(|d| d.mac.oui() == observed.device.oui).collect();
        if let [only] = candidates.as_slice() {
            labeled.push((only.kind, features(observed)));
        }
    }
    assert!(labeled.len() >= 20, "enough survey-labeled devices: {}", labeled.len());
    let eval = evaluate_labeled(&labeled, 4).expect("multiple device types present");
    assert!(
        eval.accuracy > 1.5 * eval.baseline,
        "traffic features must beat chance: {:.2} vs {:.2}",
        eval.accuracy,
        eval.baseline
    );
}

#[test]
fn clean_study_has_no_correlated_gaps() {
    // The artifact detector flags nothing in a study without collector
    // downtime; that it finds injected downtime is checked against
    // faultlab's collector-flap plan (tests/faultlab.rs).
    use simnet::time::SimDuration;
    let clean = study();
    let flags = analysis::artifacts::correlated_gaps(
        &clean.datasets,
        clean.windows.span,
        0.7,
        SimDuration::from_mins(20),
    );
    assert!(flags.is_empty(), "{flags:?}");
}

#[test]
fn instrument_validation_within_tolerance() {
    let output = study();
    let report = validation::validate_availability(output, SEED);
    assert!(report.homes.len() > 100);
    assert!(
        report.mean_coverage_error < 0.03,
        "coverage error {}",
        report.mean_coverage_error
    );
    for home in &report.homes {
        // The instrument can only under-measure availability (losses), up
        // to boundary effects from boot jitter and run tolerance.
        assert!(
            home.measured_coverage <= home.true_up_fraction + 0.02,
            "{}: measured {} > true {}",
            home.router,
            home.measured_coverage,
            home.true_up_fraction
        );
    }
}

#[test]
fn handshake_classification_over_study_traffic() {
    // Re-derive connection endpoints from flow records and check the
    // handshake layer classifies fresh SYNs for them — the mechanism the
    // sim exercises for every TCP session.
    use netstack::handshake::{classify, open_connection, SegmentKind};
    use simnet::packet::{Endpoint, IpProtocol};
    use simnet::rng::DetRng;
    use simnet::time::{SimDuration, SimTime};
    let output = study();
    let mut rng = DetRng::new(5);
    let mut checked = 0;
    for flow in output.datasets.flows.iter().take(50) {
        if flow.proto != IpProtocol::Tcp {
            continue;
        }
        let client = Endpoint::new(std::net::Ipv4Addr::new(192, 168, 1, 10), 40_000);
        let server = Endpoint::new(std::net::Ipv4Addr::new(23, 64, 1, 10), flow.remote_port);
        let trace = open_connection(
            SimTime::EPOCH,
            client,
            server,
            SimDuration::from_millis(60),
            &mut rng,
        );
        let kinds: Vec<SegmentKind> = trace
            .segments
            .iter()
            .map(|(_, wire)| classify(wire).expect("valid handshake segment"))
            .collect();
        assert_eq!(kinds[0], SegmentKind::Syn);
        assert_eq!(kinds[1], SegmentKind::SynAck);
        checked += 1;
    }
    assert!(checked > 10, "TCP flows exist to check: {checked}");
}
