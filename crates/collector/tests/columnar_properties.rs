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

use collector::{DnsTable, FlowTable, PacketStatsTable};
use firmware::anonymize::{AnonMac, ReportedDomain};
use firmware::records::{DnsSampleRecord, FlowRecord, PacketStatsRecord, RouterId};
use proptest::prelude::*;
use simnet::dns::DomainName;
use simnet::packet::IpProtocol;
use simnet::time::SimTime;

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
}
