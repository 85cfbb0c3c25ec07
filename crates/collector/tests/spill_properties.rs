//! Property-based tests for the out-of-core spill path and for draining
//! a collector: a collector that seals columnar segments to disk whenever
//! its memory estimate crosses an arbitrary budget must produce data sets
//! *identical* to the unbounded in-memory collector, for arbitrary record
//! mixes over all 13 record kinds, batch arrival orders, and shard
//! collision patterns.
//!
//! The unbounded collector's single `drain_delta()` is the specification:
//! spilling is purely a storage decision, and draining once or at cut
//! points with each delta folded by `Datasets::absorb` are routes to the
//! same merge. Each must equal the model as a whole `Datasets` —
//! including at the degenerate budget of zero bytes, where every batch
//! seals its own segment, and for drains at arbitrary cut points. Either
//! way every table's `router(r)` reads exactly `r`'s arrivals, stably
//! sorted by the table's key.

use collector::{Collector, Datasets, DatasetsAbsorber, RouterMeta, SpillConfig};
use firmware::anonymize::{AnonMac, ReportedDomain};
use firmware::latency::LatencyRecord;
use firmware::records::{
    ApSighting, AssociationRecord, CapacityRecord, DeviceCensusRecord, DnsSampleRecord, FlowRecord,
    HeartbeatRecord, MacSightingRecord, Medium, NatProbeRecord, NatType, PacketStatsRecord,
    PunchTrialRecord, Record, RouterId, UptimeRecord, WifiScanRecord,
};
use household::Country;
use proptest::prelude::*;
use simnet::dns::DomainName;
use simnet::packet::IpProtocol;
use simnet::time::{SimDuration, SimTime};
use simnet::wifi::Band;

/// Compact generated form of one record: (router selector, kind selector,
/// time µs, device seed, domain selector, bytes). Expanded by
/// [`record_from`].
type RecordSpec = (u8, u8, u64, u8, u8, u64);

/// Router IDs chosen so the specs cover single-router shards, two routers
/// colliding on one shard (1 and 129, 2 and 130), and a far shard.
const ROUTERS: [u32; 6] = [1, 2, 7, 129, 130, 257];

fn device_from(seed: u8) -> AnonMac {
    AnonMac { oui: u32::from(seed % 5) * 0x0001_0203, suffix_hash: u32::from(seed) }
}

fn domain_from(selector: u8) -> ReportedDomain {
    match selector % 4 {
        0 => ReportedDomain::Clear(DomainName::new("example.com").unwrap()),
        1 => ReportedDomain::Clear(DomainName::new("video.example.net").unwrap()),
        2 => ReportedDomain::Obfuscated(7),
        _ => ReportedDomain::Obfuscated(u64::from(selector)),
    }
}

/// Expand the `index`-th spec into a record; the kind selector cycles
/// through the twelve uploaded tables, so every segment carries a mix, and
/// heartbeats. Heartbeats take their time from `index` instead of
/// the spec: run logs require each router's heartbeats in order.
fn record_from(index: usize, spec: RecordSpec) -> Record {
    let (router_sel, kind, at_us, dev, dom, bytes) = spec;
    let router = RouterId(ROUTERS[usize::from(router_sel) % ROUTERS.len()]);
    let at = SimTime::from_micros(at_us);
    match kind % 13 {
        0 => Record::PacketStats(PacketStatsRecord {
            router,
            at,
            bytes_down: bytes,
            bytes_up: bytes / 2,
            pkts_down: bytes / 1500 + 1,
            pkts_up: bytes / 3000,
            peak_down_1s: u64::from(dev) * 1000,
            peak_up_1s: u64::from(dev) * 250,
        }),
        1 => Record::Flow(FlowRecord {
            router,
            started: at,
            ended: SimTime::from_micros(at_us.saturating_add(u64::from(dom) * 1_000_000)),
            device: device_from(dev),
            remote_ip_hash: u64::from(dev) << 8 | u64::from(dom),
            remote_port: u16::from(dom) | 443,
            proto: if dom % 2 == 0 { IpProtocol::Tcp } else { IpProtocol::Udp },
            domain: domain_from(dom),
            bytes_down: bytes,
            bytes_up: bytes / 3,
        }),
        2 => Record::DnsSample(DnsSampleRecord {
            router,
            at,
            device: device_from(dev),
            name: domain_from(dom),
            cname_links: dom % 3,
            resolved: bytes % 2 == 0,
        }),
        3 => Record::MacSighting(MacSightingRecord {
            router,
            first_seen: at,
            device: device_from(dev),
            bytes_total: bytes,
        }),
        4 => Record::WifiScan(WifiScanRecord {
            router,
            at,
            band: if dom % 2 == 0 { Band::Ghz24 } else { Band::Ghz5 },
            // AP lists of varying length, including empty, so the
            // flattened AP columns cross record boundaries.
            aps: (0..dev % 4)
                .map(|i| ApSighting {
                    bssid_hash: u64::from(dom) << 16 | u64::from(i),
                    channel_number: 1 + (i % 11),
                    signal_dbm: -30 - (dev % 60) as i8,
                })
                .collect(),
            associated_stations: dev % 9,
        }),
        5 => Record::Association(AssociationRecord {
            router,
            at,
            device: device_from(dev),
            medium: match dom % 3 {
                0 => Medium::Wired,
                1 => Medium::Wireless24,
                _ => Medium::Wireless5,
            },
        }),
        6 => Record::Latency(LatencyRecord {
            router,
            at,
            rtt_min: SimDuration::from_micros(u64::from(dev) * 997),
            rtt_median: SimDuration::from_micros(u64::from(dev) * 997 + u64::from(dom) * 131),
            // Cross the narrow-column escape for some specs.
            rtt_max: SimDuration::from_micros(bytes),
            lost: dom % 5,
        }),
        7 => Record::NatProbe(NatProbeRecord {
            router,
            at,
            nat_type: NatType::from_code(dom % 5).expect("codes 0..5 are valid"),
            mapped_ip_hash: bytes ^ (u64::from(dev) << 32),
            mapped_port: 1024 | u16::from(dom) << 4,
            cgn_detected: dev % 2 == 0,
        }),
        8 => Record::PunchTrial(PunchTrialRecord {
            router,
            at,
            peer: RouterId(ROUTERS[usize::from(dev) % ROUTERS.len()]),
            local_type: NatType::from_code(dom % 5).expect("codes 0..5 are valid"),
            peer_type: NatType::from_code(dev % 5).expect("codes 0..5 are valid"),
            success: bytes % 2 == 1,
        }),
        // One minute per spec index: a router's gap to its previous
        // heartbeat is however many specs lie between, so runs both
        // continue and break.
        9 => Record::Heartbeat(HeartbeatRecord {
            router,
            at: SimTime::from_micros(index as u64 * 60_000_000),
        }),
        10 => Record::Uptime(UptimeRecord {
            router,
            at,
            uptime: SimDuration::from_micros(bytes),
        }),
        11 => Record::Capacity(CapacityRecord {
            router,
            at,
            down_bps: bytes,
            up_bps: bytes / 8,
            shaping_detected: dev % 2 == 0,
        }),
        _ => Record::DeviceCensus(DeviceCensusRecord {
            router,
            at,
            wired: dev % 4,
            wireless_24: dom,
            wireless_5: dev / 4,
        }),
    }
}

fn records_from(specs: Vec<RecordSpec>) -> Vec<Record> {
    specs.into_iter().enumerate().map(|(i, spec)| record_from(i, spec)).collect()
}

/// Arbitrary record specs: timestamps mix in-order and out-of-order
/// arrivals and byte counts cross the narrow-column escape threshold.
fn specs() -> impl Strategy<Value = Vec<RecordSpec>> {
    proptest::collection::vec(
        (0u8..6, 0u8..13, 0u64..20_000_000_000, 0u8..20, 0u8..16, 0u64..1 << 40),
        0..300,
    )
}

fn register_all(collector: &Collector) {
    for router in ROUTERS {
        collector.register(RouterMeta {
            router: RouterId(router),
            country: Country::UnitedStates,
            traffic_consent: true,
        });
    }
}

/// Ingest the same stream into a spilled and an unbounded collector in the
/// same chunked arrival order, then assert the merged data sets agree.
fn assert_spill_matches_memory(specs: Vec<RecordSpec>, batch: usize, budget: u64) {
    let records = records_from(specs);
    let spilled = Collector::new();
    spilled
        .set_spill(&SpillConfig { budget_bytes: budget, dir: None })
        .expect("spill dir creation");
    let unbounded = Collector::new();
    for c in [&spilled, &unbounded] {
        register_all(c);
        for chunk in records.chunks(batch.max(1)) {
            c.ingest_batch(chunk.to_vec());
        }
    }
    let stats = spilled.spill_stats().expect("spilling armed");
    assert_eq!(stats.error, None, "segment I/O must not fail");
    if budget == 0 && !records.is_empty() {
        assert!(stats.segments > 0, "budget 0 must seal every non-empty batch");
    }

    // One drain must equal the in-memory model, table for table.
    let drained = spilled.drain_delta();
    let model = unbounded.drain_delta();
    assert_eq!(drained, model, "take path, one drain");
    assert_eq!(
        drained.flows.iter().collect::<Vec<_>>(),
        model.flows.iter().collect::<Vec<_>>(),
        "spilled per-row iteration must match the in-memory merge"
    );
    for router in ROUTERS {
        assert_eq!(
            drained.packet_stats.router(RouterId(router)).collect::<Vec<_>>(),
            model.packet_stats.router(RouterId(router)).collect::<Vec<_>>(),
        );
        assert_eq!(
            drained.wifi.router(RouterId(router)).collect::<Vec<_>>(),
            model.wifi.router(RouterId(router)).collect::<Vec<_>>(),
        );
        assert_eq!(
            drained.latency.router(RouterId(router)).collect::<Vec<_>>(),
            model.latency.router(RouterId(router)).collect::<Vec<_>>(),
        );
        assert_eq!(
            drained.nat_probes.router(RouterId(router)).collect::<Vec<_>>(),
            model.nat_probes.router(RouterId(router)).collect::<Vec<_>>(),
        );
        assert_eq!(
            drained.punch_trials.router(RouterId(router)).collect::<Vec<_>>(),
            model.punch_trials.router(RouterId(router)).collect::<Vec<_>>(),
        );
    }
}

/// The take path: one live, spill-armed collector drained with
/// `drain_delta` after every batch whose `cuts` entry is set (and once at
/// the end), each delta folded into an accumulator with
/// `Datasets::absorb`, must equal the unbounded model's single drain.
fn assert_drained_stream_matches_memory(
    specs: Vec<RecordSpec>,
    batch: usize,
    budget: u64,
    cuts: Vec<bool>,
) {
    let records = records_from(specs);
    let stream = Collector::new();
    stream
        .set_spill(&SpillConfig { budget_bytes: budget, dir: None })
        .expect("spill dir creation");
    let unbounded = Collector::new();
    register_all(&stream);
    register_all(&unbounded);
    let mut acc = Datasets::default();
    let mut absorber = DatasetsAbsorber::default();
    for (i, chunk) in records.chunks(batch.max(1)).enumerate() {
        stream.ingest_batch(chunk.to_vec());
        unbounded.ingest_batch(chunk.to_vec());
        if cuts.get(i % cuts.len().max(1)).copied().unwrap_or(false) {
            acc.absorb(stream.drain_delta(), &mut absorber);
        }
    }
    acc.absorb(stream.drain_delta(), &mut absorber);
    let stats = stream.spill_stats().expect("spilling armed");
    assert_eq!(stats.error, None, "segment I/O must not fail");
    assert_eq!(stats.segments, 0, "every sealed segment moved into a delta");
    assert_eq!(acc.spilled_bytes(), 0, "the accumulator stays resident");
    assert_eq!(acc, unbounded.drain_delta(), "take path");
}

/// Routers that never report.
const ABSENT: [u32; 3] = [0, 3, u32::MAX];

/// Every table's `router(r)` must return exactly `r`'s arrivals of that
/// record kind stably sorted by the table's key, and the rows a linear
/// filter of the flat iteration finds, for every router in `ROUTERS` and
/// `ABSENT`. `arrivals` is every record ingested, in arrival order.
fn assert_router_runs_match_arrivals(data: &Datasets, arrivals: &[Record]) {
    macro_rules! check {
        ($($field:ident: $Kind:ident |$r:ident| $key:expr;)*) => {$(
            for router in ROUTERS.into_iter().chain(ABSENT).map(RouterId) {
                let got: Vec<_> = data.$field.router(router).collect();
                let mut want: Vec<_> = arrivals
                    .iter()
                    .filter_map(|record| match record {
                        Record::$Kind(row) if row.router == router => Some(row.clone()),
                        _ => None,
                    })
                    .collect();
                want.sort_by_key(|$r| $key);
                assert_eq!(got, want, "{} rows of {router:?}", stringify!($field));
                let filtered: Vec<_> =
                    data.$field.iter().filter(|row| row.router == router).collect();
                assert_eq!(got, filtered, "{} filter of {router:?}", stringify!($field));
            }
        )*};
    }
    check! {
        packet_stats: PacketStats |r| r.at;
        flows: Flow |r| (r.ended, r.started, r.device);
        dns: DnsSample |r| (r.at, r.device);
        macs: MacSighting |r| (r.first_seen, r.device);
        wifi: WifiScan |r| (r.at, r.band);
        associations: Association |r| (r.at, r.device, r.medium);
        latency: Latency |r| r.at;
        nat_probes: NatProbe |r| r.at;
        punch_trials: PunchTrial |r| (r.at, r.peer);
        uptime: Uptime |r| r.at;
        capacity: Capacity |r| r.at;
        devices: DeviceCensus |r| r.at;
    }
    // Batches carry no gap declarations here, so the ledger stays empty.
    for router in ROUTERS.into_iter().chain(ABSENT).map(RouterId) {
        assert_eq!(data.upload_gaps.router(router).count(), 0);
    }
}

/// The same arrivals taken out of one collector by a single drain and
/// out of another at cut points, each delta absorbed as a stream window.
/// Spec times are drawn independently of arrival order, so a router's
/// later windows often step back before its absorbed tail.
fn assert_router_runs_hold(specs: Vec<RecordSpec>, batch: usize, cuts: Vec<bool>) {
    let records = records_from(specs);
    let single = Collector::new();
    let stream = Collector::new();
    let mut acc = Datasets::default();
    let mut absorber = DatasetsAbsorber::default();
    for (i, chunk) in records.chunks(batch.max(1)).enumerate() {
        single.ingest_batch(chunk.to_vec());
        stream.ingest_batch(chunk.to_vec());
        if cuts.get(i % cuts.len().max(1)).copied().unwrap_or(false) {
            acc.absorb(stream.drain_delta(), &mut absorber);
        }
    }
    acc.absorb(stream.drain_delta(), &mut absorber);
    assert_router_runs_match_arrivals(&single.drain_delta(), &records);
    assert_router_runs_match_arrivals(&acc, &records);
}

proptest! {
    #[test]
    fn router_accessors_equal_a_linear_filter(
        specs in specs(),
        batch in 1usize..64,
        cuts in proptest::collection::vec(any::<bool>(), 0..16),
    ) {
        assert_router_runs_hold(specs, batch, cuts);
    }

    #[test]
    fn drained_stream_equals_in_memory_model(
        specs in specs(),
        batch in 1usize..64,
        budget in prop_oneof![Just(0u64), 1u64..8192, Just(1u64 << 30)],
        cuts in proptest::collection::vec(any::<bool>(), 0..16),
    ) {
        assert_drained_stream_matches_memory(specs, batch, budget, cuts);
    }

    #[test]
    fn spill_merge_equals_in_memory_model(
        specs in specs(),
        batch in 1usize..64,
        budget in prop_oneof![Just(0u64), 1u64..8192],
    ) {
        assert_spill_matches_memory(specs, batch, budget);
    }

    #[test]
    fn spill_everything_budget_zero_equals_in_memory_model(
        specs in specs(),
        batch in 1usize..16,
    ) {
        assert_spill_matches_memory(specs, batch, 0);
    }
}
