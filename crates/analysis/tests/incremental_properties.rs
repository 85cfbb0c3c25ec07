//! Property-based differential testing for [`analysis::IncrementalReport`]:
//! for *arbitrary* record soups, *arbitrary* window boundaries, *arbitrary*
//! ingest orderings, and duplicated records, folding the stream window by
//! window must finalize to exactly the report the fold over one window
//! (`StudyReport::compute`) produces. That is the property a fold must
//! have: any number of cuts gives the bytes of one.
//!
//! This is the generalization of the fixed-cut unit test in
//! `analysis::incremental`: proptest explores the partition space (empty
//! windows, one-record windows, windows straddling every sub-window
//! boundary) that hand-picked cuts cannot. Records arrive up to
//! [`MAX_LAG_MINS`] after their timestamp, so a window can hold records
//! older than its predecessor's, and the two band scans of one instant
//! can land in different windows.

use analysis::{IncrementalReport, ReportWindows, StudyReport};
use collector::windows::Window;
use collector::{Collector, DatasetsAbsorber, RouterMeta};
use firmware::anonymize::{AnonMac, ReportedDomain};
use firmware::latency::LatencyRecord;
use firmware::records::{
    ApSighting, AssociationRecord, CapacityRecord, DeviceCensusRecord, DnsSampleRecord,
    FlowRecord, HeartbeatRecord, MacSightingRecord, Medium, NatProbeRecord, NatType,
    PacketStatsRecord, PunchTrialRecord, Record, RouterId, UptimeRecord, WifiScanRecord,
};
use household::Country;
use proptest::prelude::*;
use simnet::dns::DomainName;
use simnet::packet::IpProtocol;
use simnet::time::{SimDuration, SimTime};
use simnet::wifi::Band;

/// Two simulated days, in minutes: long enough that generated cuts can
/// land on either side of every figure's activity, short enough that 64
/// cases stay cheap.
const TOTAL_MINS: u64 = 2 * 24 * 60;
const ROUTERS: u32 = 3;
/// The longest a record waits between its timestamp and its arrival at
/// the collector: 15 hours.
const MAX_LAG_MINS: u64 = 900;

fn t(mins: u64) -> SimTime {
    SimTime::EPOCH + SimDuration::from_mins(mins)
}

fn mac(n: u32) -> AnonMac {
    AnonMac { oui: household::VendorClass::Apple.oui(), suffix_hash: n }
}

/// One generated event, materialized into a record. All fields derive
/// deterministically from the tuple, so a duplicated event is a truly
/// duplicated record — the dedup paths (Fig 12 sightings, Table 5
/// presence) see identical bytes twice.
fn materialize(router: u32, minute: u64, kind: u8, a: u8, b: u8) -> Record {
    let r = RouterId(router);
    let at = t(minute);
    match kind % 13 {
        0 => Record::Heartbeat(HeartbeatRecord { router: r, at }),
        1 => Record::Uptime(UptimeRecord {
            router: r,
            at,
            uptime: SimDuration::from_mins(minute.min(u64::from(a) * 60)),
        }),
        2 => Record::Capacity(CapacityRecord {
            router: r,
            at,
            down_bps: 5_000_000 + u64::from(a) * 1_000_000,
            up_bps: 500_000 + u64::from(b) * 100_000,
            shaping_detected: a.is_multiple_of(2),
        }),
        3 => Record::DeviceCensus(DeviceCensusRecord {
            router: r,
            at,
            wired: a % 3,
            wireless_24: b % 4,
            wireless_5: a % 2,
        }),
        4 => {
            let band = if a.is_multiple_of(2) { Band::Ghz24 } else { Band::Ghz5 };
            wifi_scan(router, minute, band, a, b)
        }
        5 => Record::Association(AssociationRecord {
            router: r,
            at,
            device: mac(router * 10 + u32::from(a % 5)),
            medium: match b % 3 {
                0 => Medium::Wired,
                1 => Medium::Wireless24,
                _ => Medium::Wireless5,
            },
        }),
        6 => Record::PacketStats(PacketStatsRecord {
            router: r,
            at,
            bytes_down: 1_000_000 + minute * 1_000,
            bytes_up: 50_000 + u64::from(b) * 100,
            pkts_down: 700,
            pkts_up: 100,
            peak_down_1s: 200_000 + u64::from(a) * 10_000,
            peak_up_1s: 20_000 + u64::from(b) * 1_000,
        }),
        7 => Record::Flow(FlowRecord {
            router: r,
            started: t(minute.saturating_sub(u64::from(a % 3))),
            ended: at,
            device: mac(router * 10 + u32::from(b % 4)),
            remote_ip_hash: minute ^ u64::from(a),
            remote_port: 443,
            proto: IpProtocol::Tcp,
            domain: match a % 3 {
                0 => ReportedDomain::Clear(DomainName::new("netflix.com").unwrap()),
                1 => ReportedDomain::Clear(DomainName::new("youtube.com").unwrap()),
                _ => ReportedDomain::Obfuscated(u64::from(b)),
            },
            bytes_down: 50_000 + u64::from(b) * 60_000,
            bytes_up: 9_000,
        }),
        8 => Record::MacSighting(MacSightingRecord {
            router: r,
            first_seen: at,
            device: mac(router * 10 + u32::from(a % 4)),
            // Straddle the 100 KiB prevalence threshold from both sides.
            bytes_total: if a.is_multiple_of(2) { 500_000 } else { 50_000 },
        }),
        9 => Record::Latency(LatencyRecord {
            router: r,
            at,
            rtt_min: SimDuration::from_millis(20),
            rtt_median: SimDuration::from_millis(30 + u64::from(b)),
            rtt_max: SimDuration::from_millis(200),
            lost: a % 3,
        }),
        10 => Record::NatProbe(NatProbeRecord {
            router: r,
            at,
            nat_type: NatType::ALL[(a % 5) as usize],
            mapped_ip_hash: u64::from(b),
            mapped_port: 1_024 + u16::from(a) * 97,
            cgn_detected: b.is_multiple_of(2),
        }),
        11 => Record::PunchTrial(PunchTrialRecord {
            router: r,
            at,
            peer: RouterId((router + 1) % ROUTERS),
            local_type: NatType::ALL[(a % 5) as usize],
            peer_type: NatType::ALL[(b % 5) as usize],
            success: (a ^ b).is_multiple_of(2),
        }),
        _ => Record::DnsSample(DnsSampleRecord {
            router: r,
            at,
            device: mac(router * 10 + u32::from(a % 4)),
            name: match b % 2 {
                0 => ReportedDomain::Clear(DomainName::new("netflix.com").unwrap()),
                _ => ReportedDomain::Obfuscated(u64::from(a)),
            },
            cname_links: b % 4,
            resolved: a.is_multiple_of(2),
        }),
    }
}

/// One WiFi scan on `band`; `a` and `b` pick its stations and its one
/// neighbouring AP.
fn wifi_scan(router: u32, minute: u64, band: Band, a: u8, b: u8) -> Record {
    Record::WifiScan(WifiScanRecord {
        router: RouterId(router),
        at: t(minute),
        band,
        aps: vec![ApSighting {
            bssid_hash: 100 + u64::from(b),
            channel_number: 1 + a % 11,
            signal_dbm: -40 - (b % 50) as i8,
        }],
        associated_stations: a % 4,
    })
}

fn register(c: &Collector) {
    for (router, country) in
        [(0u32, Country::UnitedStates), (1, Country::UnitedStates), (2, Country::India)]
    {
        c.register(RouterMeta { router: RouterId(router), country, traffic_consent: true });
    }
}

/// The record's stream-arrival minute, which assigns it to a window: the
/// instant the firmware emits it (flows end then), plus `lag`. Heartbeats
/// feed an RLE run log and must arrive in time order per router, so they
/// never lag.
fn arrival(record: Record, lag: u64) -> (u64, Record) {
    let lag = if matches!(record, Record::Heartbeat(_)) { 0 } else { lag };
    (record.at().since(SimTime::EPOCH).as_mins() + lag, record)
}

proptest! {
    #[test]
    fn incremental_equals_batch_for_arbitrary_windows_orderings_and_dups(
        events in proptest::collection::vec(
            (0u32..ROUTERS, 0u64..TOTAL_MINS, 0u8..26, 0u8..=255, 0u8..=255, 0u64..=MAX_LAG_MINS),
            1..160,
        ),
        scan_pairs in proptest::collection::vec(
            (
                0u32..ROUTERS,
                0u64..TOTAL_MINS,
                0u8..=255,
                0u8..=255,
                0u64..=MAX_LAG_MINS,
                0u64..=MAX_LAG_MINS,
            ),
            0..4,
        ),
        dups in proptest::collection::vec(0usize..1_000, 0..12),
        cut_mins in proptest::collection::vec(1u64..TOTAL_MINS + MAX_LAG_MINS, 0..6),
        order_seed in any::<u64>(),
    ) {
        // Materialize each event with its own arrival lag, plus same-instant
        // 2.4 + 5 GHz scan pairs whose scans lag independently (and report
        // different station counts). Duplicate a few records verbatim,
        // arrival included, then shuffle.
        let mut records: Vec<(u64, Record)> = events
            .iter()
            .map(|&(router, minute, kind, a, b, lag)| {
                arrival(materialize(router, minute, kind, a, b), lag)
            })
            .collect();
        for &(router, minute, a, b, lag24, lag5) in &scan_pairs {
            records.push(arrival(wifi_scan(router, minute, Band::Ghz24, a, b), lag24));
            records.push(arrival(wifi_scan(router, minute, Band::Ghz5, b, a), lag5));
        }
        let originals = records.len();
        for d in &dups {
            let copy = records[d % originals].clone();
            records.push(copy);
        }
        let mut order: Vec<usize> = (0..records.len()).collect();
        let mut rng = simnet::rng::DetRng::new(order_seed);
        rng.shuffle(&mut order);
        let mut records: Vec<(u64, Record)> =
            order.into_iter().map(|i| records[i].clone()).collect();
        // The collector sees records in arrival order; within one arrival
        // minute the shuffle's order stands.
        records.sort_by_key(|&(arrival, _)| arrival);

        let windows = ReportWindows::spanning(Window { start: t(0), end: t(TOTAL_MINS) });

        // One window: every record through one collector, one fold.
        let batch = Collector::new();
        register(&batch);
        batch.ingest_batch(records.iter().map(|(_, rec)| rec.clone()).collect());
        let data = batch.drain_delta();
        let expected = StudyReport::compute(&data, windows);

        // N windows: the same arrival sequence partitioned at arbitrary cut
        // points (dedup'd and sorted; empty windows are legal and must be
        // no-ops). Each window's delta feeds `update`, then is absorbed
        // into the accumulated snapshot exactly as `run_study_stream` does.
        let mut cuts = vec![0u64];
        cuts.extend(cut_mins.iter().copied());
        cuts.push(TOTAL_MINS + MAX_LAG_MINS);
        cuts.sort_unstable();
        cuts.dedup();

        let mut inc = IncrementalReport::new(windows);
        let mut acc = collector::Datasets::default();
        let mut absorber = DatasetsAbsorber::default();
        for pair in cuts.windows(2) {
            let delta = Collector::new();
            register(&delta);
            delta.ingest_batch(
                records
                    .iter()
                    .filter(|(arrival, _)| (pair[0]..pair[1]).contains(arrival))
                    .map(|(_, rec)| rec.clone())
                    .collect(),
            );
            let delta = delta.drain_delta();
            inc.update(&delta);
            acc.absorb(delta, &mut absorber);
        }

        // The windowed partition reassembles the batch snapshot exactly...
        prop_assert!(acc == data, "absorbed windows diverged from the batch datasets");
        // ...and the N-window fold finalizes to the one-window report,
        // byte for byte in its rendered form.
        let streamed = inc.finalize(&acc);
        prop_assert_eq!(expected.render(&data), streamed.render(&acc));
    }
}
