//! End-to-end tests for the fault-injection subsystem and the reliable
//! store-and-forward upload pipeline.
//!
//! The contract under test, scenario by scenario:
//!
//! * no faults → the upload queue is disengaged and nothing changes;
//!   engaging the queue *without* faults still yields identical datasets
//!   (the pipeline is lossless, not merely usually-lossless);
//! * `lossy-wan` → retries absorb every WAN loss: datasets byte-identical
//!   to the fault-free run;
//! * `collector-flap` → zero batch records lost, the announced downtime is
//!   recorded exactly, only heartbeat datagrams die — and the artifacts
//!   detector finds the outages from the data alone;
//! * `router-churn` → flash wipes destroy data but every loss is accounted
//!   on the gap ledger.

use bismark::homesim::{HomeSim, SimParams};
use bismark::study::{run_study, StudyConfig, StudyWindows};
use collector::windows::Window;
use collector::{Collector, RouterMeta};
use faultlab::FaultScenario;
use firmware::records::RouterId;
use household::domains::DomainUniverse;
use household::Country;
use simnet::time::{SimDuration, SimTime};

fn quick(seed: u64, days: u64, faults: Option<FaultScenario>) -> StudyConfig {
    let mut config = StudyConfig::quick(seed, days);
    config.faults = faults;
    config
}

/// The store-and-forward queue without any faults is invisible: one home
/// run through the uploader produces byte-identical datasets to the legacy
/// direct-flush path.
#[test]
fn unfaulted_upload_queue_is_invisible() {
    let universe = DomainUniverse::standard();
    let zone = universe.build_zone();
    let windows = StudyWindows::scaled(Window {
        start: SimTime::EPOCH,
        end: SimTime::EPOCH + SimDuration::from_days(8),
    });
    let root = simnet::rng::DetRng::new(5);
    let cfg = household::HomeConfig::sample(
        household::HomeId(1),
        Country::UnitedStates,
        &root.derive("h"),
        &universe,
    );
    let run = |reliable_upload: bool| {
        let collector = Collector::new();
        collector.register(RouterMeta {
            router: RouterId(1),
            country: cfg.country,
            traffic_consent: cfg.traffic_consent,
        });
        HomeSim::new(SimParams {
            cfg: &cfg,
            universe: &universe,
            zone: &zone,
            windows: &windows,
            seed: 5,
            reliable_upload,
            faults: None,
            cgn: None,
        })
        .run(&collector);
        collector.drain_delta()
    };
    let direct = run(false);
    let queued = run(true);
    assert!(direct == queued, "upload queue changed the data");
    assert!(queued.upload_gaps.is_empty());
}

#[test]
fn lossy_wan_delivers_everything() {
    let baseline = run_study(&quick(7, 6, None));
    let lossy = run_study(&quick(7, 6, Some(FaultScenario::LossyWan)));
    assert!(!lossy.fault_plan.is_empty());
    // Retries happened — the impairment was real...
    assert!(lossy.upload_counters.accepted > 0);
    assert!(
        lossy.upload_counters.retried_accepted > 0,
        "lossy WAN must force at least one retry: {:?}",
        lossy.upload_counters
    );
    // ...and absorbed: every table, byte for byte.
    assert!(baseline.datasets == lossy.datasets, "lossy WAN lost or altered records");
}

#[test]
fn collector_flap_loses_no_batch_records_and_ledgers_downtime_exactly() {
    let baseline = run_study(&quick(7, 6, None));
    let flap = run_study(&quick(7, 6, Some(FaultScenario::CollectorFlap)));
    let plan = &flap.fault_plan;
    assert!(plan.collector_downtime.len() >= 2);
    // The announced downtime is recorded in the datasets exactly as
    // injected — this is the gap ledger for infrastructure outages.
    assert_eq!(flap.datasets.collector_downtime, plan.collector_downtime);
    // Batch uploads were nacked during downtime and retried to success:
    // zero loss, so every batch-carried table matches the baseline.
    assert!(flap.upload_counters.rejected > 0, "{:?}", flap.upload_counters);
    assert!(flap.upload_counters.retried_accepted > 0);
    assert!(flap.datasets.upload_gaps.is_empty(), "no batch data may be lost");
    assert_eq!(baseline.datasets.uptime, flap.datasets.uptime);
    assert_eq!(baseline.datasets.capacity, flap.datasets.capacity);
    assert_eq!(baseline.datasets.devices, flap.datasets.devices);
    assert_eq!(baseline.datasets.wifi, flap.datasets.wifi);
    assert_eq!(baseline.datasets.associations, flap.datasets.associations);
    assert_eq!(baseline.datasets.flows, flap.datasets.flows);
    assert_eq!(baseline.datasets.dns, flap.datasets.dns);
    assert_eq!(baseline.datasets.macs, flap.datasets.macs);
    assert_eq!(baseline.datasets.packet_stats, flap.datasets.packet_stats);
    assert_eq!(baseline.datasets.latency, flap.datasets.latency);
    // Heartbeat datagrams are the one casualty.
    assert!(flap.dropped_in_downtime > 0);
    let base_beats: u64 =
        baseline.datasets.heartbeats.values().map(|l| l.total_heartbeats()).sum();
    let flap_beats: u64 = flap.datasets.heartbeats.values().map(|l| l.total_heartbeats()).sum();
    assert_eq!(base_beats, flap_beats + flap.dropped_in_downtime);
}

#[test]
fn collector_flap_outages_are_detectable_from_data_alone() {
    let flap = run_study(&quick(7, 6, Some(FaultScenario::CollectorFlap)));
    let flagged = analysis::artifacts::correlated_gaps(
        &flap.datasets,
        flap.windows.span,
        0.8,
        SimDuration::from_mins(15),
    );
    let score = analysis::artifacts::score_against_truth(
        &flagged,
        &flap.fault_plan.collector_downtime,
        SimDuration::from_mins(5),
    );
    assert!(score.precision >= 0.9, "precision {:.2}: {flagged:?}", score.precision);
    assert!(
        score.recall >= 0.9,
        "recall {:.2} ({} of {} missed)",
        score.recall,
        score.missed,
        flap.fault_plan.collector_downtime.len()
    );
}

#[test]
fn router_churn_accounts_every_wipe_on_the_gap_ledger() {
    let churn = run_study(&quick(7, 6, Some(FaultScenario::RouterChurn)));
    let wipes = churn.fault_plan.flash_wipe_count();
    assert!(wipes > 0, "scenario must inject flash wipes");
    assert!(!churn.datasets.upload_gaps.is_empty(), "wipes must appear on the ledger");
    for gap in &churn.datasets.upload_gaps {
        assert!(gap.last_seq >= gap.first_seq);
        assert!(gap.to >= gap.from);
        // Every ledger entry names a router the plan actually afflicts.
        assert!(
            churn.fault_plan.for_router(gap.router).is_some(),
            "ledger names unafflicted router {:?}",
            gap.router
        );
    }
    // Wipes only destroy spooled/unsealed data; everything that survived
    // the reboots was still delivered (no silent loss on top of the
    // declared one).
    assert!(churn.upload_counters.accepted > 0);
    assert_eq!(churn.upload_counters.duplicates, 0);
}

#[test]
fn faulted_studies_are_deterministic_across_thread_counts() {
    let mut a_cfg = quick(3, 5, Some(FaultScenario::CollectorFlap));
    a_cfg.threads = 1;
    let mut b_cfg = quick(3, 5, Some(FaultScenario::CollectorFlap));
    b_cfg.threads = 8;
    let a = run_study(&a_cfg);
    let b = run_study(&b_cfg);
    assert!(a.datasets == b.datasets);
    assert_eq!(a.upload_counters, b.upload_counters);
    assert_eq!(a.dropped_in_downtime, b.dropped_in_downtime);
    assert_eq!(a.fault_plan, b.fault_plan);
}
