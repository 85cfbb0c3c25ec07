//! End-to-end pipeline tests: single homes driven through the full stack
//! (behavior → gateway firmware → wire → collector → analysis), checking
//! that each measurement path produces coherent data.

use bismark::homesim::{HomeSim, SimParams};
use bismark::study::StudyWindows;
use collector::windows::Window;
use collector::{Collector, Datasets, RouterMeta};
use firmware::records::RouterId;
use household::availability::PowerMode;
use household::domains::DomainUniverse;
use household::{Country, HomeConfig, HomeId};
use simnet::rng::DetRng;
use simnet::time::{SimDuration, SimTime};

fn run_one(mut mutate: impl FnMut(&mut HomeConfig), days: u64, seed: u64) -> (Datasets, Window) {
    let span = Window {
        start: SimTime::EPOCH,
        end: SimTime::EPOCH + SimDuration::from_days(days),
    };
    let windows = StudyWindows::scaled(span);
    let universe = DomainUniverse::standard();
    let zone = universe.build_zone();
    let root = DetRng::new(seed);
    let mut cfg = HomeConfig::sample(HomeId(0), Country::UnitedStates, &root.derive("home"), &universe);
    mutate(&mut cfg);
    let collector = Collector::new();
    collector.register(RouterMeta {
        router: RouterId(0),
        country: cfg.country,
        traffic_consent: cfg.traffic_consent,
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
    (collector.drain_delta(), span)
}

#[test]
fn heartbeats_arrive_once_a_minute_while_up() {
    let (data, span) = run_one(
        |cfg| {
            cfg.availability.power = PowerMode::AlwaysOn { reboot_rate_per_month: 0.0, extended_off_rate_per_month: 0.0 };
            cfg.availability.outage_rate_per_day = 0.0;
            cfg.traffic_consent = false;
        },
        10,
        1,
    );
    let log = &data.heartbeats[&RouterId(0)];
    let expected = span.duration().as_mins();
    let received = log.total_heartbeats();
    // Allow for WAN loss (~0.2%) and boot jitter.
    assert!(
        received as f64 > 0.98 * expected as f64 && received <= expected,
        "{received} heartbeats vs {expected} minutes"
    );
    assert!(log.coverage(span.start, span.end) > 0.999);
}

#[test]
fn outages_produce_matching_heartbeat_gaps() {
    let (data, span) = run_one(
        |cfg| {
            cfg.availability.power = PowerMode::AlwaysOn { reboot_rate_per_month: 0.0, extended_off_rate_per_month: 0.0 };
            cfg.availability.outage_rate_per_day = 1.0;
            cfg.availability.outage_median_mins = 45.0;
            cfg.availability.outage_sigma = 0.5;
            cfg.traffic_consent = false;
        },
        15,
        2,
    );
    let log = &data.heartbeats[&RouterId(0)];
    let gaps = log.downtimes(span.start, span.end, SimDuration::from_mins(10));
    // ~15 outages expected; jitter allows a broad band, but they must exist
    // and have plausible lengths.
    assert!((4..=40).contains(&gaps.len()), "{} gaps", gaps.len());
    for (s, e) in &gaps {
        let dur = e.since(*s);
        assert!(dur >= SimDuration::from_mins(10));
        assert!(dur < SimDuration::from_days(3));
    }
}

#[test]
fn appliance_home_reports_low_coverage_and_short_uptimes() {
    let (data, span) = run_one(
        |cfg| {
            cfg.availability.power = PowerMode::Appliance {
                weekday_on_hour: 18.0,
                weekday_hours: 3.0,
                weekend_on_hour: 12.0,
                weekend_hours: 6.0,
                skip_day_prob: 0.1,
            };
            cfg.availability.outage_rate_per_day = 0.0;
            cfg.traffic_consent = false;
        },
        20,
        3,
    );
    let log = &data.heartbeats[&RouterId(0)];
    let coverage = log.coverage(span.start, span.end);
    assert!(coverage < 0.4, "appliance coverage {coverage}");
    // Uptime reports (12-hourly) can only catch the router on; when they
    // do, the reported uptime must be shorter than a day's window.
    for report in &data.uptime {
        assert!(report.uptime < SimDuration::from_hours(24), "uptime {}", report.uptime);
    }
}

#[test]
fn capacity_estimates_match_link_and_detect_shaping() {
    let (data, _) = run_one(
        |cfg| {
            cfg.availability.power = PowerMode::AlwaysOn { reboot_rate_per_month: 0.0, extended_off_rate_per_month: 0.0 };
            cfg.availability.outage_rate_per_day = 0.0;
            cfg.down_link = simnet::link::LinkConfig::shaped(
                20_000_000,
                40_000_000,
                192 * 1024,
                SimDuration::from_millis(10),
                256 * 1024,
            );
            cfg.up_link = simnet::link::LinkConfig::simple(
                2_000_000,
                SimDuration::from_millis(10),
                256 * 1024,
            );
            cfg.traffic_consent = false;
        },
        20,
        4,
    );
    assert!(!data.capacity.is_empty());
    for rec in &data.capacity {
        let down_err = (rec.down_bps as f64 - 20e6).abs() / 20e6;
        let up_err = (rec.up_bps as f64 - 2e6).abs() / 2e6;
        assert!(down_err < 0.1, "down estimate {}", rec.down_bps);
        assert!(up_err < 0.1, "up estimate {}", rec.up_bps);
        assert!(rec.shaping_detected, "burst shaping must be detected");
    }
}

#[test]
fn traffic_pipeline_attributes_flows_to_devices_and_domains() {
    let (data, _) = run_one(|cfg| cfg.traffic_consent = true, 20, 5);
    assert!(!data.flows.is_empty(), "flows recorded");
    assert!(!data.dns.is_empty(), "dns samples recorded");
    // Every flow is attributed to a device whose OUI is a known vendor.
    let mut clear_domains = 0;
    for flow in &data.flows {
        assert!(flow.total_bytes() > 0);
        assert!(
            household::VendorClass::from_oui(flow.device.oui).is_some(),
            "unknown OUI {:06x}",
            flow.device.oui
        );
        if flow.domain.is_clear() {
            clear_domains += 1;
        }
    }
    assert!(clear_domains > 0, "whitelisted domains appear in clear");
    assert!(
        clear_domains < data.flows.len(),
        "non-whitelisted domains must be obfuscated sometimes"
    );
    // Packet statistics exist and are internally consistent.
    for stats in &data.packet_stats {
        assert!(stats.peak_down_1s <= stats.bytes_down.max(stats.peak_down_1s));
        assert!(stats.bytes_down + stats.bytes_up > 0);
    }
}

#[test]
fn non_consenting_home_never_uploads_traffic_records() {
    let (data, _) = run_one(|cfg| cfg.traffic_consent = false, 12, 6);
    assert!(data.flows.is_empty());
    assert!(data.dns.is_empty());
    assert!(data.packet_stats.is_empty());
    assert!(data.macs.is_empty());
    // The consent-free data sets still flow.
    assert!(!data.devices.is_empty());
    assert!(!data.wifi.is_empty());
    assert!(!data.capacity.is_empty());
}

#[test]
fn wifi_scans_respect_throttle_and_see_neighbors() {
    let (data, _) = run_one(
        |cfg| {
            cfg.traffic_consent = false;
            cfg.availability.power = PowerMode::AlwaysOn { reboot_rate_per_month: 0.0, extended_off_rate_per_month: 0.0 };
            cfg.availability.outage_rate_per_day = 0.0;
        },
        20,
        7,
    );
    let scans_24: Vec<_> = data
        .wifi
        .iter()
        .filter(|s| s.band == simnet::wifi::Band::Ghz24)
        .collect();
    assert!(!scans_24.is_empty());
    // With clients typically associated, the throttle caps scan frequency:
    // the number of scans must be well below one per 10-minute slot.
    let window_slots = data
        .wifi
        .iter()
        .map(|s| s.at)
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    assert!(window_slots > 10);
    // Any sighted APs have sane fields.
    for scan in &data.wifi {
        for ap in &scan.aps {
            assert!((-92..=-30).contains(&ap.signal_dbm));
        }
    }
}

#[test]
fn public_release_excludes_traffic() {
    let (data, _) = run_one(|cfg| cfg.traffic_consent = true, 12, 8);
    assert!(!data.flows.is_empty(), "precondition: traffic exists");
    let json = collector::export::to_json(&data).expect("export serializes");
    assert!(!json.contains("remote_ip_hash"));
    assert!(!json.contains("suffix_hash"));
    assert!(json.contains("heartbeats"));
}

// ---- CLI deployment scaling (--homes) ---------------------------------

const BIN: &str = env!("CARGO_BIN_EXE_bismark-study");

fn run_cli(args: &[&str]) -> std::process::Output {
    std::process::Command::new(BIN).args(args).output().expect("spawn bismark-study")
}

/// Strict-parser contract from the observability PR, extended to the
/// scaling axis: every bad `--homes` spelling exits 2 and names the flag.
#[test]
fn cli_rejects_bad_homes_values_by_name_with_exit_2() {
    for args in [
        &["run", "--homes", "0"][..],
        &["run", "--homes", "many"][..],
        &["run", "--homes"][..],
        &["run", "--homes", "500", "--full"][..],
        &["run", "--full", "--homes", "500"][..],
    ] {
        let out = run_cli(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--homes"), "stderr must name the flag for {args:?}: {stderr}");
    }
    // The --full conflict names both sides.
    let out = run_cli(&["run", "--homes", "500", "--full"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--full"), "conflict error must also name --full: {stderr}");
}

/// Strict-parser contract for the spill axis: `--spill-dir` without
/// `--spill-budget` is a configuration that silently never spills, so it
/// exits 2 and the error names both flags.
#[test]
fn cli_rejects_spill_dir_without_budget_by_name_with_exit_2() {
    for args in [
        &["run", "--spill-dir", "/tmp/spill"][..],
        &["run", "--homes", "50", "--spill-dir", "/tmp/spill"][..],
    ] {
        let out = run_cli(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--spill-dir"), "stderr must name --spill-dir for {args:?}: {stderr}");
        assert!(stderr.contains("--spill-budget"), "stderr must name --spill-budget for {args:?}: {stderr}");
    }
}

/// A generatively scaled study runs end to end: 1000 synthetic homes,
/// every one of them reporting through the full pipeline.
#[test]
fn cli_scales_the_deployment_to_1000_homes() {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("scaling");
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    let report = dir.join("homes1000.report");
    let metrics = dir.join("homes1000.metrics");
    let out = run_cli(&[
        "run", "--seed", "7", "--days", "2", "--homes", "1000",
        "--report", report.to_str().unwrap(), "--metrics", metrics.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "scaled run failed: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("across 1000 homes"), "progress line: {stderr}");
    // The manifest pins the deployment size; the reporter count in the
    // progress line can be a handful lower (appliance-mode homes that
    // never power on inside a 2-day window).
    let manifest = std::fs::read_to_string(&metrics).expect("read metrics");
    assert!(manifest.contains("\"homes\":\"1000\""), "meta homes: {manifest}");
    assert!(manifest.contains("\"study_homes\":1000"), "study_homes gauge");
    let rendered = std::fs::read_to_string(&report).expect("read report");
    assert!(!rendered.is_empty(), "scaled report renders");
}

/// Strict-parser contract for the CGN axis: every bad `--cgn` spelling —
/// unknown scenario, missing value, combination with `--faults` — exits 2
/// and names the flag.
#[test]
fn cli_rejects_bad_cgn_values_by_name_with_exit_2() {
    for args in [
        &["run", "--cgn", "bogus"][..],
        &["run", "--cgn"][..],
        &["run", "--cgn", "isp-mix", "--faults", "lossy-wan"][..],
        &["run", "--faults", "lossy-wan", "--cgn", "isp-mix"][..],
    ] {
        let out = run_cli(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--cgn"), "stderr must name the flag for {args:?}: {stderr}");
    }
    // The unknown-scenario error teaches the valid spellings.
    let out = run_cli(&["run", "--cgn", "bogus"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("isp-mix"), "error must list valid scenarios: {stderr}");
    // The --faults conflict names both sides.
    let out = run_cli(&["run", "--cgn", "isp-mix", "--faults", "lossy-wan"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--faults"), "conflict error must also name --faults: {stderr}");
}
