//! Property-based tests for the columnar dataset tables: pushing rows and
//! iterating them back must be exactly the legacy row-of-structs
//! representation, and merging columnar shards must equal merging the
//! equivalent row tables.
//!
//! The "legacy row representation" of a columnar table is its row model:
//! records grouped by ascending router, push order preserved within each
//! router. Merge equivalence is stated against the row-table merge
//! semantics the collector has always had — all chunks' rows, stably
//! sorted by (router, per-table subkey).

use collector::{
    AssociationTable, CapacityTable, CensusTable, DnsTable, FlowTable, LatencyTable, MacTable,
    NatProbeTable, PacketStatsTable, PunchTrialTable, UploadGapRecord, UploadGapTable,
    UptimeTable, WifiTable,
};
use firmware::anonymize::{AnonMac, ReportedDomain};
use firmware::records::{
    ApSighting, AssociationRecord, CapacityRecord, DeviceCensusRecord, DnsSampleRecord,
    FlowRecord, LatencyRecord, MacSightingRecord, Medium, NatProbeRecord, NatType,
    PacketStatsRecord, PunchTrialRecord, RouterId, UptimeRecord, WifiScanRecord,
};
use firmware::uploader::GapCause;
use proptest::prelude::*;
use simnet::dns::DomainName;
use simnet::packet::IpProtocol;
use simnet::time::{SimDuration, SimTime};
use simnet::wifi::Band;

/// Compact generated form of one flow: (router, start µs, duration µs,
/// device seed, domain selector, bytes). Expanded by [`flow_from`].
type FlowSpec = (u32, u64, u64, u8, u8, u64);

fn device_from(seed: u8) -> AnonMac {
    AnonMac { oui: u32::from(seed % 5) * 0x0001_0203, suffix_hash: u32::from(seed) }
}

/// A small closed set of domains so interning sees plenty of repeats, with
/// both clear and obfuscated variants.
fn domain_from(selector: u8) -> ReportedDomain {
    match selector % 4 {
        0 => ReportedDomain::Clear(DomainName::new("example.com").unwrap()),
        1 => ReportedDomain::Clear(DomainName::new("video.example.net").unwrap()),
        2 => ReportedDomain::Obfuscated(7),
        _ => ReportedDomain::Obfuscated(u64::from(selector)),
    }
}

fn flow_from(spec: FlowSpec) -> FlowRecord {
    let (router, start_us, dur_us, dev, dom, bytes) = spec;
    FlowRecord {
        router: RouterId(router),
        started: SimTime::from_micros(start_us),
        ended: SimTime::from_micros(start_us.saturating_add(dur_us)),
        device: device_from(dev),
        remote_ip_hash: u64::from(dev) << 8 | u64::from(dom),
        remote_port: u16::from(dom) | 443,
        proto: if dom % 2 == 0 { IpProtocol::Tcp } else { IpProtocol::Udp },
        domain: domain_from(dom),
        bytes_down: bytes,
        bytes_up: bytes / 3,
    }
}

fn dns_from(spec: FlowSpec) -> DnsSampleRecord {
    let (router, at_us, _, dev, dom, bytes) = spec;
    DnsSampleRecord {
        router: RouterId(router),
        at: SimTime::from_micros(at_us),
        device: device_from(dev),
        name: domain_from(dom),
        cname_links: dom % 3,
        resolved: bytes % 2 == 0,
    }
}

fn stats_from(spec: FlowSpec) -> PacketStatsRecord {
    let (router, at_us, _, dev, _, bytes) = spec;
    PacketStatsRecord {
        router: RouterId(router),
        at: SimTime::from_micros(at_us),
        bytes_down: bytes,
        bytes_up: bytes / 2,
        pkts_down: bytes / 1500 + 1,
        pkts_up: bytes / 3000,
        peak_down_1s: u64::from(dev) * 1000,
        peak_up_1s: u64::from(dev) * 250,
    }
}

/// The row model of a columnar table: group by ascending router, keep push
/// order within each router.
fn row_model<T: Clone>(rows: &[T], router: impl Fn(&T) -> RouterId) -> Vec<T> {
    let mut out = rows.to_vec();
    out.sort_by_key(&router); // stable: preserves push order per router
    out
}

/// Arbitrary flow specs over a handful of routers, with timestamps that
/// mix in-order and out-of-order arrivals and durations that cross the
/// narrow-column escape threshold (`u32::MAX` µs ≈ 71 minutes).
fn specs() -> impl Strategy<Value = Vec<FlowSpec>> {
    proptest::collection::vec(
        (0u32..6, 0u64..20_000_000_000, 0u64..8_000_000_000, 0u8..20, 0u8..16, 0u64..1 << 40),
        0..200,
    )
}

/// Compact generated form of one record of the other ten tables:
/// (router, time µs, a full-range `u64`, a selector, a flag, AP
/// sightings). The selector picks devices, media and NAT types; the wide
/// value crosses every narrow lane's escape threshold.
type RecordSpec = (u32, u64, u64, u8, bool, Vec<(u64, u8, i8)>);

/// Times mix exact ties (so merges must be stable) with spread-out,
/// out-of-order and far-apart arrivals.
fn record_specs() -> impl Strategy<Value = Vec<RecordSpec>> {
    proptest::collection::vec(
        (
            0u32..6,
            prop_oneof![0u64..4, 0u64..20_000_000_000],
            any::<u64>(),
            any::<u8>(),
            any::<bool>(),
            proptest::collection::vec((any::<u64>(), any::<u8>(), any::<i8>()), 0..4),
        ),
        0..120,
    )
}

fn nat_type(selector: u8) -> NatType {
    NatType::ALL[usize::from(selector) % NatType::ALL.len()]
}

fn mac_from(spec: &RecordSpec) -> MacSightingRecord {
    let (router, at_us, wide, sel, _, _) = *spec;
    MacSightingRecord {
        router: RouterId(router),
        first_seen: SimTime::from_micros(at_us),
        device: device_from(sel),
        bytes_total: wide,
    }
}

fn wifi_from(spec: &RecordSpec) -> WifiScanRecord {
    let (router, at_us, _, sel, flag, ref aps) = *spec;
    WifiScanRecord {
        router: RouterId(router),
        at: SimTime::from_micros(at_us),
        band: if flag { Band::Ghz5 } else { Band::Ghz24 },
        aps: aps
            .iter()
            .map(|&(bssid_hash, channel_number, signal_dbm)| ApSighting {
                bssid_hash,
                channel_number,
                signal_dbm,
            })
            .collect(),
        associated_stations: sel,
    }
}

fn association_from(spec: &RecordSpec) -> AssociationRecord {
    let (router, at_us, _, sel, _, _) = *spec;
    AssociationRecord {
        router: RouterId(router),
        at: SimTime::from_micros(at_us),
        device: device_from(sel / 3),
        medium: [Medium::Wired, Medium::Wireless24, Medium::Wireless5][usize::from(sel % 3)],
    }
}

fn latency_from(spec: &RecordSpec) -> LatencyRecord {
    let (router, at_us, wide, sel, _, _) = *spec;
    LatencyRecord {
        router: RouterId(router),
        at: SimTime::from_micros(at_us),
        rtt_min: SimDuration::from_micros(wide % 8_000_000_000),
        rtt_median: SimDuration::from_micros(wide / 2),
        rtt_max: SimDuration::from_micros(wide),
        lost: sel,
    }
}

fn nat_probe_from(spec: &RecordSpec) -> NatProbeRecord {
    let (router, at_us, wide, sel, flag, _) = *spec;
    NatProbeRecord {
        router: RouterId(router),
        at: SimTime::from_micros(at_us),
        nat_type: nat_type(sel),
        mapped_ip_hash: wide,
        mapped_port: (wide >> 48) as u16,
        cgn_detected: flag,
    }
}

fn punch_trial_from(spec: &RecordSpec) -> PunchTrialRecord {
    let (router, at_us, wide, sel, flag, _) = *spec;
    PunchTrialRecord {
        router: RouterId(router),
        at: SimTime::from_micros(at_us),
        peer: RouterId(wide as u32),
        local_type: nat_type(sel),
        peer_type: nat_type(sel / 5),
        success: flag,
    }
}

fn uptime_from(spec: &RecordSpec) -> UptimeRecord {
    let (router, at_us, wide, _, _, _) = *spec;
    UptimeRecord {
        router: RouterId(router),
        at: SimTime::from_micros(at_us),
        uptime: SimDuration::from_micros(wide),
    }
}

fn capacity_from(spec: &RecordSpec) -> CapacityRecord {
    let (router, at_us, wide, sel, flag, _) = *spec;
    CapacityRecord {
        router: RouterId(router),
        at: SimTime::from_micros(at_us),
        down_bps: wide,
        up_bps: u64::from(sel),
        shaping_detected: flag,
    }
}

fn census_from(spec: &RecordSpec) -> DeviceCensusRecord {
    let (router, at_us, wide, sel, _, _) = *spec;
    DeviceCensusRecord {
        router: RouterId(router),
        at: SimTime::from_micros(at_us),
        wired: sel % 5,
        wireless_24: sel,
        wireless_5: wide as u8,
    }
}

/// A ledger row keyed by a small first sequence number, so ties occur.
fn upload_gap_from(spec: &RecordSpec) -> UploadGapRecord {
    let (router, at_us, wide, sel, flag, _) = *spec;
    UploadGapRecord {
        router: RouterId(router),
        first_seq: at_us % 8,
        last_seq: wide,
        records_lost: u64::from(sel),
        from: SimTime::from_micros(at_us),
        to: SimTime::from_micros(wide),
        cause: if flag { GapCause::FlashWipe } else { GapCause::Evicted },
    }
}

fn expand<T>(specs: &[RecordSpec], record: fn(&RecordSpec) -> T) -> Vec<T> {
    specs.iter().map(record).collect()
}

/// Push `rows` into a `$Table` and into two router-parity shards, then
/// check iteration, per-router access and the shard merge against the
/// row model; the merge's row-table twin is a stable sort by
/// (router, `$key`).
macro_rules! prop_assert_matches_rows {
    ($Table:ty, $rows:expr, |$r:ident| $key:expr) => {{
        let rows = $rows;
        let mut table = <$Table>::default();
        let mut shards = [<$Table>::default(), <$Table>::default()];
        for r in &rows {
            table.push(r.clone());
            shards[(r.router.0 % 2) as usize].push(r.clone());
        }
        prop_assert_eq!(table.len(), rows.len());
        prop_assert_eq!(table.iter().collect::<Vec<_>>(), row_model(&rows, |r| r.router));
        for router in (0..6).map(RouterId) {
            let expect: Vec<_> = rows.iter().filter(|r| r.router == router).cloned().collect();
            prop_assert_eq!(table.router(router).collect::<Vec<_>>(), expect);
        }
        let merged = <$Table>::merge(Vec::from(shards));
        let mut legacy = rows.clone();
        legacy.sort_by_key(|$r| ($r.router, $key));
        prop_assert_eq!(merged.iter().collect::<Vec<_>>(), legacy);
    }};
}

proptest! {
    #[test]
    fn flow_push_iterate_equals_legacy_rows(specs in specs()) {
        let rows: Vec<FlowRecord> = specs.into_iter().map(flow_from).collect();
        let mut table = FlowTable::default();
        for r in &rows {
            table.push(r.clone());
        }
        prop_assert_eq!(table.len(), rows.len());
        let legacy = row_model(&rows, |r: &FlowRecord| r.router);
        let back: Vec<FlowRecord> = table.iter().collect();
        prop_assert_eq!(back, legacy);
        // Per-router access is exactly the row filter, in push order.
        for router in (0..6).map(RouterId) {
            let expect: Vec<FlowRecord> =
                rows.iter().filter(|r| r.router == router).cloned().collect();
            let got: Vec<FlowRecord> = table.router(router).collect();
            prop_assert_eq!(got, expect);
        }
    }

    #[test]
    fn dns_and_stats_round_trip_equals_legacy_rows(specs in specs()) {
        let dns_rows: Vec<DnsSampleRecord> = specs.iter().map(|s| dns_from(*s)).collect();
        let stat_rows: Vec<PacketStatsRecord> = specs.iter().map(|s| stats_from(*s)).collect();
        let mut dns = DnsTable::default();
        let mut stats = PacketStatsTable::default();
        for r in &dns_rows {
            dns.push(r.clone());
        }
        for r in &stat_rows {
            stats.push(*r);
        }
        let dns_back: Vec<DnsSampleRecord> = dns.iter().collect();
        let stats_back: Vec<PacketStatsRecord> = stats.iter().collect();
        prop_assert_eq!(dns_back, row_model(&dns_rows, |r: &DnsSampleRecord| r.router));
        prop_assert_eq!(stats_back, row_model(&stat_rows, |r: &PacketStatsRecord| r.router));
    }

    #[test]
    fn shard_merge_equals_row_table_merge(specs in specs()) {
        // Two shards partitioned by router parity — faithful to the real
        // collector, where a router's records never span shards.
        let rows: Vec<FlowRecord> = specs.into_iter().map(flow_from).collect();
        let mut shard_a = FlowTable::default();
        let mut shard_b = FlowTable::default();
        for r in &rows {
            if r.router.0 % 2 == 0 {
                shard_a.push(r.clone());
            } else {
                shard_b.push(r.clone());
            }
        }
        let merged = FlowTable::merge(vec![shard_a, shard_b]);
        prop_assert_eq!(merged.len(), rows.len());

        // Row-table merge: every chunk's rows, stably sorted by
        // (router, ended, started, device).
        let mut legacy = rows.clone();
        legacy.sort_by_key(|r| (r.router, r.ended, r.started, r.device));
        let back: Vec<FlowRecord> = merged.iter().collect();
        prop_assert_eq!(back, legacy);
    }

    #[test]
    fn merge_of_presorted_shards_is_identity_on_order(specs in specs()) {
        // When each shard's per-router columns are already subkey-sorted
        // (the hot path: simulation time advances monotonically), merge
        // must concatenate without reordering anything.
        let mut rows: Vec<FlowRecord> = specs.into_iter().map(flow_from).collect();
        rows.sort_by_key(|r| (r.router, r.ended, r.started, r.device));
        let mut shard_a = FlowTable::default();
        let mut shard_b = FlowTable::default();
        for r in &rows {
            if r.router.0 % 2 == 0 {
                shard_a.push(r.clone());
            } else {
                shard_b.push(r.clone());
            }
        }
        let merged = FlowTable::merge(vec![shard_a, shard_b]);
        let back: Vec<FlowRecord> = merged.iter().collect();
        prop_assert_eq!(back, rows);
    }

    #[test]
    fn other_six_tables_round_trip_and_merge_like_their_rows(specs in record_specs()) {
        let s = &specs;
        prop_assert_matches_rows!(MacTable, expand(s, mac_from), |r| (r.first_seen, r.device));
        prop_assert_matches_rows!(WifiTable, expand(s, wifi_from), |r| (r.at, r.band));
        prop_assert_matches_rows!(
            AssociationTable,
            expand(s, association_from),
            |r| (r.at, r.device, r.medium)
        );
        prop_assert_matches_rows!(LatencyTable, expand(s, latency_from), |r| r.at);
        prop_assert_matches_rows!(NatProbeTable, expand(s, nat_probe_from), |r| r.at);
        prop_assert_matches_rows!(PunchTrialTable, expand(s, punch_trial_from), |r| (r.at, r.peer));
        prop_assert_matches_rows!(UptimeTable, expand(s, uptime_from), |r| r.at);
        prop_assert_matches_rows!(CapacityTable, expand(s, capacity_from), |r| r.at);
        prop_assert_matches_rows!(CensusTable, expand(s, census_from), |r| r.at);
        prop_assert_matches_rows!(UploadGapTable, expand(s, upload_gap_from), |r| r.first_seq);
    }
}
