//! §6 — Usage: diurnal patterns, link saturation, per-device consumption,
//! and domain popularity (Figs 13–20).

use crate::stats::{mean, median, Cdf};
use collector::windows::Window;
use collector::Datasets;
use firmware::anonymize::{AnonMac, ReportedDomain};
use firmware::records::{FlowRecord, RouterId};
use household::VendorClass;
use simnet::time::SimTime;
use std::collections::{BTreeMap, HashMap};

/// Figure 13: mean wireless stations per local hour of day, weekday vs
/// weekend, from the WiFi scans.
#[derive(Debug, Clone)]
pub struct Fig13 {
    /// Mean stations at local hour `h`, Monday–Friday.
    pub weekday: [f64; 24],
    /// Mean stations at local hour `h`, Saturday–Sunday.
    pub weekend: [f64; 24],
}

impl Fig13 {
    /// Peak-to-trough spread of one curve, the "diurnality" scalar.
    pub fn spread(curve: &[f64; 24]) -> f64 {
        let max = curve.iter().cloned().fold(f64::MIN, f64::max);
        let min = curve.iter().cloned().fold(f64::MAX, f64::min);
        max - min
    }
}

/// Figure 13's partial state, folded scan by scan: per (weekday or
/// weekend, local hour) bucket, the integer station sum and the number of
/// distinct scan instants. An instant's 2.4 GHz and 5 GHz scans add
/// stations to one bucket, and the fold counts the instant once, when it
/// first enters its router's run of instants, whichever window that is.
#[derive(Debug, Default)]
pub(crate) struct Fig13Buckets {
    /// `[weekend][local hour]`: (station sum, scan instants).
    buckets: [[(u64, u64); 24]; 2],
}

impl Fig13Buckets {
    /// The bucket of instant `at` at a router `utc_offset` hours from UTC.
    fn bucket(&mut self, at: SimTime, utc_offset: i32) -> &mut (u64, u64) {
        let local = at.to_local(utc_offset);
        &mut self.buckets[usize::from(local.weekday().is_weekend())][local.hour_of_day() as usize]
    }

    /// Add the stations of one in-window scan taken at `at`.
    pub(crate) fn add_stations(&mut self, at: SimTime, utc_offset: i32, stations: u8) {
        self.bucket(at, utc_offset).0 += u64::from(stations);
    }

    /// Count one scan instant, the first time its router sees it.
    pub(crate) fn add_instant(&mut self, at: SimTime, utc_offset: i32) {
        self.bucket(at, utc_offset).1 += 1;
    }

    /// The mean stations per scan instant in each bucket. Integer sums
    /// below 2^53 convert to the same `f64` an in-order float sum of the
    /// per-instant counts reaches.
    pub(crate) fn finish(&self) -> Fig13 {
        let curve = |day: &[(u64, u64); 24]| {
            day.map(|(stations, instants)| match instants {
                0 => 0.0,
                n => stations as f64 / n as f64,
            })
        };
        Fig13 { weekday: curve(&self.buckets[0]), weekend: curve(&self.buckets[1]) }
    }
}

/// Figure 14: one home's utilization/capacity timeseries over the Traffic
/// window.
#[derive(Debug, Clone)]
pub struct Fig14 {
    /// The home shown.
    pub router: RouterId,
    /// `(minute, peak upstream bps)` samples.
    pub up_series: Vec<(SimTime, f64)>,
    /// `(minute, peak downstream bps)` samples.
    pub down_series: Vec<(SimTime, f64)>,
    /// Median measured upstream capacity (the dashed line).
    pub up_capacity_bps: f64,
    /// Median measured downstream capacity.
    pub down_capacity_bps: f64,
}

/// Median capacity for one router within `window`, from its capacity rows.
pub(crate) fn capacity_of(data: &Datasets, window: Window, router: RouterId) -> Option<(f64, f64)> {
    let mut down = Vec::new();
    let mut up = Vec::new();
    for rec in data.capacity.router(router) {
        if window.contains(rec.at) {
            down.push(rec.down_bps as f64);
            up.push(rec.up_bps as f64);
        }
    }
    if down.is_empty() {
        return None;
    }
    Some((median(&down), median(&up)))
}

/// Compute Figure 14 for `router` (typically a busy, ordinary home) from
/// its capacity and packet-stats slices alone.
pub fn fig14_with(data: &Datasets, window: Window, router: RouterId) -> Option<Fig14> {
    let (down_cap, up_cap) = capacity_of(data, window, router)?;
    let mut up_series = Vec::new();
    let mut down_series = Vec::new();
    for stats in data.packet_stats.router(router) {
        if window.contains(stats.at) {
            up_series.push((stats.at, stats.peak_up_bps() as f64));
            down_series.push((stats.at, stats.peak_down_bps() as f64));
        }
    }
    if up_series.is_empty() {
        return None;
    }
    Some(Fig14 {
        router,
        up_series,
        down_series,
        up_capacity_bps: up_cap,
        down_capacity_bps: down_cap,
    })
}

/// One home's point in Figure 15: capacity vs 95th-percentile utilization.
#[derive(Debug, Clone, Copy)]
pub struct Fig15Point {
    /// The home.
    pub router: RouterId,
    /// Median measured downstream capacity (bits/s).
    pub down_capacity_bps: f64,
    /// p95 of per-minute peak downstream throughput ÷ capacity.
    pub down_utilization: f64,
    /// Median measured upstream capacity (bits/s).
    pub up_capacity_bps: f64,
    /// p95 of per-minute peak upstream throughput ÷ capacity.
    pub up_utilization: f64,
}

/// Compute Figure 15 over all Traffic homes: only minutes with traffic
/// count ("we only consider instances when there is some device exchanging
/// traffic with the Internet"). Walks each registered router's
/// packet-stats slice in ID order, so the output needs no final sort and
/// the accumulation order is independent of hash layout; only one
/// router's samples are held at a time.
pub fn fig15_with(data: &Datasets, window: Window) -> Vec<Fig15Point> {
    let mut out = Vec::new();
    for meta in &data.routers {
        let router = meta.router;
        let mut down = Vec::new();
        let mut up = Vec::new();
        for stats in data.packet_stats.router(router) {
            if window.contains(stats.at) {
                down.push(stats.peak_down_bps() as f64);
                up.push(stats.peak_up_bps() as f64);
            }
        }
        if down.len() < 10 {
            continue;
        }
        let Some((down_cap, up_cap)) = capacity_of(data, window, router) else {
            continue;
        };
        if down_cap <= 0.0 || up_cap <= 0.0 {
            continue;
        }
        let p95_down = Cdf::from_samples(down).quantile(0.95);
        let p95_up = Cdf::from_samples(up).quantile(0.95);
        out.push(Fig15Point {
            router,
            down_capacity_bps: down_cap,
            down_utilization: p95_down / down_cap,
            up_capacity_bps: up_cap,
            up_utilization: p95_up / up_cap,
        });
    }
    out
}

/// Figure 16: the homes whose p95 uplink utilization exceeds measured
/// capacity, with their timeseries, from Figure 15's points (the report
/// shares one Figure 15 result between Figures 14, 15, 16, and Table 6).
pub fn fig16_from(data: &Datasets, window: Window, points: &[Fig15Point]) -> Vec<Fig14> {
    points
        .iter()
        .filter(|p| p.up_utilization > 1.0)
        .filter_map(|p| fig14_with(data, window, p.router))
        .collect()
}

/// Figure 17: per-home device shares of total traffic, ranked.
#[derive(Debug, Clone)]
pub struct Fig17 {
    /// Per home: shares of total home bytes by device rank (descending).
    pub per_home: Vec<(RouterId, Vec<f64>)>,
    /// Mean share of the top device across homes.
    pub mean_top_share: f64,
    /// Mean share of the second device.
    pub mean_second_share: f64,
}

/// Compute Figure 17 from each home's per-device byte totals over the
/// flows in the Traffic window, homes in router order.
pub(crate) fn fig17_from_tallies<'a>(
    homes: impl Iterator<Item = (RouterId, &'a TrafficTally)>,
) -> Fig17 {
    let mut rows = Vec::new();
    for (router, tally) in homes {
        let mut volumes: Vec<u64> = tally.devices.iter().map(|(_, d)| d.values().sum()).collect();
        volumes.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = volumes.iter().sum();
        if total == 0 {
            continue;
        }
        rows.push((router, volumes.iter().map(|v| *v as f64 / total as f64).collect::<Vec<f64>>()));
    }
    let tops: Vec<f64> = rows.iter().filter_map(|(_, s)| s.first().copied()).collect();
    let seconds: Vec<f64> = rows.iter().filter_map(|(_, s)| s.get(1).copied()).collect();
    Fig17 { mean_top_share: mean(&tops), mean_second_share: mean(&seconds), per_home: rows }
}

/// Figure 18: for each whitelisted domain, in how many homes it ranks
/// top-5 / top-10 by volume.
#[derive(Debug, Clone)]
pub struct Fig18Row {
    /// The domain (named only when whitelisted).
    pub domain: String,
    /// Homes where it is top-5 by volume.
    pub top5_homes: usize,
    /// Homes where it is top-10 by volume.
    pub top10_homes: usize,
}

pub(crate) fn domain_key(d: &ReportedDomain) -> String {
    match d {
        ReportedDomain::Clear(name) => name.as_str().to_string(),
        ReportedDomain::Obfuscated(token) => format!("anon-{token:016x}"),
    }
}

/// One home's domain → (bytes, connections) tally over the flows in the
/// Traffic window. The map is ordered so the rank sorts below see ties in
/// one deterministic order however the flows were folded.
pub type DomainTally = BTreeMap<String, (u64, u64)>;

/// One home's flow tallies over the Traffic window: its domain tally
/// (Figs 18/19) and, per device in device order, the device's bytes per
/// domain (Figs 17/20). A device's byte total is the sum of its domains'.
#[derive(Debug, Default)]
pub(crate) struct TrafficTally {
    /// Domain → (bytes, connections).
    pub(crate) domains: DomainTally,
    /// Each device's domain → bytes, ascending by device.
    pub(crate) devices: Vec<(AnonMac, HashMap<String, u64>)>,
}

impl TrafficTally {
    /// Tally one in-window flow of this home.
    pub(crate) fn add(&mut self, flow: &FlowRecord) {
        let bytes = flow.total_bytes();
        let domain = domain_key(&flow.domain);
        let entry = self.domains.entry(domain.clone()).or_default();
        entry.0 += bytes;
        entry.1 += 1;
        let at = match self.devices.binary_search_by_key(&flow.device, |(device, _)| *device) {
            Ok(at) => at,
            Err(at) => {
                self.devices.insert(at, (flow.device, HashMap::new()));
                at
            }
        };
        *self.devices[at].1.entry(domain).or_default() += bytes;
    }
}

/// Compute Figure 18 (whitelisted names only, as the paper plots names)
/// from the per-home domain tallies, in router order.
pub fn fig18_from(tallies: &[&DomainTally]) -> Vec<Fig18Row> {
    let mut top5: HashMap<String, usize> = HashMap::new();
    let mut top10: HashMap<String, usize> = HashMap::new();
    for per_domain in tallies {
        let mut ranked: Vec<(&String, u64)> =
            per_domain.iter().map(|(d, (bytes, _))| (d, *bytes)).collect();
        ranked.sort_by_key(|(_, bytes)| std::cmp::Reverse(*bytes));
        for (i, (domain, _)) in ranked.iter().enumerate().take(10) {
            if domain.starts_with("anon-") {
                continue;
            }
            if i < 5 {
                *top5.entry((*domain).clone()).or_default() += 1;
            }
            *top10.entry((*domain).clone()).or_default() += 1;
        }
    }
    let mut rows: Vec<Fig18Row> = top10
        .into_iter()
        .map(|(domain, top10_homes)| Fig18Row {
            top5_homes: top5.get(&domain).copied().unwrap_or(0),
            domain,
            top10_homes,
        })
        .collect();
    rows.sort_by(|a, b| {
        b.top5_homes
            .cmp(&a.top5_homes)
            .then(b.top10_homes.cmp(&a.top10_homes))
            .then(a.domain.cmp(&b.domain))
    });
    rows
}

/// Figure 19: domain-rank distributions of volume and connections.
#[derive(Debug, Clone)]
pub struct Fig19 {
    /// (a) mean fraction of home volume by volume-rank (index 0 = rank 1).
    pub volume_share_by_rank: Vec<f64>,
    /// (b) mean fraction of home connections by connection-rank.
    pub connection_share_by_rank: Vec<f64>,
    /// (c) mean fraction of home connections for domains ranked by volume.
    pub connections_of_volume_rank: Vec<f64>,
    /// Mean fraction of bytes that went to whitelisted domains ("Total" in
    /// the paper's plots, ≈ 65%).
    pub whitelisted_byte_fraction: f64,
}

/// Compute Figure 19 from the per-home domain tallies, in router order,
/// averaging per-home fractions over the first `max_rank` ranks.
pub fn fig19_from(tallies: &[&DomainTally], max_rank: usize) -> Fig19 {
    let mut vol_shares = vec![Vec::new(); max_rank];
    let mut conn_shares = vec![Vec::new(); max_rank];
    let mut conn_of_vol = vec![Vec::new(); max_rank];
    let mut whitelisted = Vec::new();
    for per_domain in tallies {
        let total_bytes: u64 = per_domain.values().map(|(b, _)| *b).sum();
        let total_conns: u64 = per_domain.values().map(|(_, c)| *c).sum();
        if total_bytes == 0 || total_conns == 0 {
            continue;
        }
        let clear_bytes: u64 = per_domain
            .iter()
            .filter(|(d, _)| !d.starts_with("anon-"))
            .map(|(_, (b, _))| *b)
            .sum();
        whitelisted.push(clear_bytes as f64 / total_bytes as f64);
        let mut by_volume: Vec<(u64, u64)> = per_domain.values().copied().collect();
        by_volume.sort_by(|a, b| b.cmp(a));
        for (i, (bytes, conns)) in by_volume.iter().take(max_rank).enumerate() {
            vol_shares[i].push(*bytes as f64 / total_bytes as f64);
            conn_of_vol[i].push(*conns as f64 / total_conns as f64);
        }
        let mut by_conns: Vec<(u64, u64)> = per_domain.values().copied().collect();
        by_conns.sort_by_key(|&(bytes, conns)| std::cmp::Reverse((conns, bytes)));
        for (i, (_, conns)) in by_conns.iter().take(max_rank).enumerate() {
            conn_shares[i].push(*conns as f64 / total_conns as f64);
        }
    }
    Fig19 {
        volume_share_by_rank: vol_shares.iter().map(|v| mean(v)).collect(),
        connection_share_by_rank: conn_shares.iter().map(|v| mean(v)).collect(),
        connections_of_volume_rank: conn_of_vol.iter().map(|v| mean(v)).collect(),
        whitelisted_byte_fraction: mean(&whitelisted),
    }
}

/// Figure 20: a device's domain mix — top domains by share of that
/// device's bytes.
#[derive(Debug, Clone)]
pub struct Fig20Device {
    /// The home.
    pub router: RouterId,
    /// The device.
    pub device: AnonMac,
    /// Its manufacturer class, if the OUI is known.
    pub vendor: Option<VendorClass>,
    /// `(domain, share of device bytes)`, descending, top 8.
    pub domains: Vec<(String, f64)>,
    /// The device's total bytes.
    pub total_bytes: u64,
}

/// Compute the domain mix for every Traffic-home device above a volume
/// floor, from each home's per-device domain volumes; callers pick
/// exemplars (e.g. a streaming box vs a desktop).
pub(crate) fn fig20_from_tallies<'a>(
    homes: impl Iterator<Item = (RouterId, &'a TrafficTally)>,
    min_bytes: u64,
) -> Vec<Fig20Device> {
    let mut out = Vec::new();
    for (router, tally) in homes {
        for (device, domains) in &tally.devices {
            let total: u64 = domains.values().sum();
            if total < min_bytes {
                continue;
            }
            let mut ranked: Vec<(String, f64)> = domains
                .iter()
                .map(|(d, &b)| (d.clone(), b as f64 / total as f64))
                .collect();
            ranked.sort_by(|a, b| {
                b.1.partial_cmp(&a.1).expect("finite shares").then_with(|| a.0.cmp(&b.0))
            });
            ranked.truncate(8);
            out.push(Fig20Device {
                router,
                device: *device,
                vendor: VendorClass::from_oui(device.oui),
                domains: ranked,
                total_bytes: total,
            });
        }
    }
    // Tie-break by (router, device) so equal-volume devices keep one
    // order however the flows were folded.
    out.sort_by_key(|d| {
        (std::cmp::Reverse(d.total_bytes), d.router, d.device.oui, d.device.suffix_hash)
    });
    out
}

/// Find a streaming-box exemplar and a computer exemplar for Figure 20's
/// two panels.
pub fn fig20_exemplars(devices: &[Fig20Device]) -> (Option<&Fig20Device>, Option<&Fig20Device>) {
    let streamer = devices.iter().find(|d| d.vendor == Some(VendorClass::InternetTv));
    let computer = devices.iter().find(|d| {
        matches!(d.vendor, Some(VendorClass::Apple | VendorClass::Intel))
            && d.domains.iter().any(|(name, _)| name == "dropbox.com")
    });
    let computer = computer.or_else(|| {
        devices
            .iter()
            .find(|d| matches!(d.vendor, Some(VendorClass::Apple | VendorClass::Intel)))
    });
    (computer, streamer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{ReportWindows, StudyReport};
    use collector::{Collector, Datasets, RouterMeta};
    use firmware::records::{FlowRecord, PacketStatsRecord, Record, WifiScanRecord};
    use household::Country;
    use simnet::dns::DomainName;
    use simnet::packet::IpProtocol;
    use simnet::time::SimDuration;
    use simnet::wifi::Band;

    fn t(mins: u64) -> SimTime {
        SimTime::EPOCH + SimDuration::from_mins(mins)
    }

    fn window(days: u64) -> Window {
        Window { start: SimTime::EPOCH, end: SimTime::EPOCH + SimDuration::from_days(days) }
    }

    fn report(data: &Datasets, days: u64) -> StudyReport {
        StudyReport::compute(data, ReportWindows::spanning(window(days)))
    }

    fn mac(n: u32) -> AnonMac {
        AnonMac { oui: VendorClass::Apple.oui(), suffix_hash: n }
    }

    fn clear(name: &str) -> ReportedDomain {
        ReportedDomain::Clear(DomainName::new(name).unwrap())
    }

    fn flow(
        router: u32,
        device: AnonMac,
        domain: ReportedDomain,
        bytes: u64,
        end_min: u64,
    ) -> Record {
        Record::Flow(FlowRecord {
            router: RouterId(router),
            started: t(end_min.saturating_sub(1)),
            ended: t(end_min),
            device,
            remote_ip_hash: 1,
            remote_port: 443,
            proto: IpProtocol::Tcp,
            domain,
            bytes_down: bytes,
            bytes_up: bytes / 20,
        })
    }

    fn register(collector: &Collector, n: u32) {
        for i in 0..n {
            collector.register(RouterMeta {
                router: RouterId(i),
                country: Country::UnitedStates,
                traffic_consent: true,
            });
        }
    }

    #[test]
    fn fig13_buckets_by_local_hour() {
        let collector = Collector::new();
        register(&collector, 1);
        // US offset is -5: scans at UTC hour 1 land at local hour 20 of the
        // previous day. Day 1 (Tuesday) maps to Monday evening (weekday);
        // day 6 (Sunday) maps to Saturday evening (weekend).
        for (day, stations) in [(1u64, 4u8), (6, 2)] {
            collector.ingest(Record::WifiScan(WifiScanRecord {
                router: RouterId(0),
                at: t(day * 1440 + 60),
                band: Band::Ghz24,
                aps: vec![],
                associated_stations: stations,
            }));
        }
        let fig = report(&collector.drain_delta(), 7).fig13;
        assert_eq!(fig.weekday[20], 4.0);
        assert_eq!(fig.weekend[20], 2.0);
        assert_eq!(fig.weekday.iter().sum::<f64>(), 4.0);
        assert_eq!(fig.weekend.iter().sum::<f64>(), 2.0);
    }

    #[test]
    fn fig17_dominant_device() {
        let collector = Collector::new();
        register(&collector, 2);
        collector.ingest_batch(vec![
            flow(0, mac(1), clear("netflix.com"), 6_000, 10),
            flow(0, mac(2), clear("google.com"), 3_000, 11),
            flow(0, mac(3), clear("google.com"), 1_000, 12),
            flow(1, mac(4), clear("hulu.com"), 500, 13),
        ]);
        let fig = report(&collector.drain_delta(), 1).fig17;
        assert_eq!(fig.per_home.len(), 2);
        let home0 = &fig.per_home.iter().find(|(r, _)| *r == RouterId(0)).unwrap().1;
        assert!((home0[0] - 0.6).abs() < 0.01);
        assert!((home0[1] - 0.3).abs() < 0.01);
        assert_eq!(fig.per_home.iter().find(|(r, _)| *r == RouterId(1)).unwrap().1, vec![1.0]);
    }

    #[test]
    fn fig18_top5_counts() {
        let collector = Collector::new();
        register(&collector, 3);
        for router in 0..3 {
            collector.ingest(flow(router, mac(1), clear("google.com"), 1_000, 5));
            collector.ingest(flow(router, mac(1), clear("netflix.com"), 5_000, 6));
        }
        collector.ingest(flow(0, mac(1), ReportedDomain::Obfuscated(77), 9_000, 7));
        let rows = report(&collector.drain_delta(), 1).fig18;
        let netflix = rows.iter().find(|r| r.domain == "netflix.com").unwrap();
        assert_eq!(netflix.top5_homes, 3);
        assert!(rows.iter().all(|r| !r.domain.starts_with("anon-")));
    }

    #[test]
    fn fig19_shares() {
        let collector = Collector::new();
        register(&collector, 1);
        // One home: netflix 8000 bytes / 1 conn, google 2000 bytes / 3 conns.
        collector.ingest(flow(0, mac(1), clear("netflix.com"), 8_000, 5));
        for i in 0..3 {
            collector.ingest(flow(0, mac(1), clear("google.com"), 667, 6 + i));
        }
        let fig = report(&collector.drain_delta(), 1).fig19;
        // Volume rank 1 = netflix: 8400/10401 ≈ 0.807 of bytes.
        assert!(fig.volume_share_by_rank[0] > 0.75);
        // Connection rank 1 = google with 3 of 4 connections.
        assert!((fig.connection_share_by_rank[0] - 0.75).abs() < 0.01);
        // Connections of the top-by-volume domain = netflix's 1 of 4.
        assert!((fig.connections_of_volume_rank[0] - 0.25).abs() < 0.01);
        assert!((fig.whitelisted_byte_fraction - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fig15_utilization_and_fig16_oversaturation() {
        let collector = Collector::new();
        register(&collector, 2);
        for router in 0..2u32 {
            collector.ingest(Record::Capacity(firmware::records::CapacityRecord {
                router: RouterId(router),
                at: t(1),
                down_bps: 10_000_000,
                up_bps: 1_000_000,
                shaping_detected: false,
            }));
            for minute in 0..30 {
                let peak_up = if router == 1 { 160_000 } else { 20_000 }; // bytes/s
                collector.ingest(Record::PacketStats(PacketStatsRecord {
                    router: RouterId(router),
                    at: t(10 + minute),
                    bytes_down: 1_000_000,
                    bytes_up: peak_up * 60,
                    pkts_down: 700,
                    pkts_up: 100,
                    peak_down_1s: 250_000,
                    peak_up_1s: peak_up,
                }));
            }
        }
        let report = report(&collector.drain_delta(), 1);
        let points = &report.fig15;
        assert_eq!(points.len(), 2);
        let normal = points.iter().find(|p| p.router == RouterId(0)).unwrap();
        let uploader = points.iter().find(|p| p.router == RouterId(1)).unwrap();
        assert!((normal.down_utilization - 0.2).abs() < 0.01);
        assert!(normal.up_utilization < 0.2);
        assert!(uploader.up_utilization > 1.2, "uploader exceeds capacity");
        let over = &report.fig16;
        assert_eq!(over.len(), 1);
        assert_eq!(over[0].router, RouterId(1));
    }

    #[test]
    fn fig20_device_mixes() {
        let collector = Collector::new();
        register(&collector, 1);
        let roku = AnonMac { oui: VendorClass::InternetTv.oui(), suffix_hash: 9 };
        collector.ingest_batch(vec![
            flow(0, roku, clear("netflix.com"), 800_000, 5),
            flow(0, roku, clear("pandora.com"), 150_000, 6),
            flow(0, mac(1), clear("dropbox.com"), 500_000, 7),
            flow(0, mac(1), clear("google.com"), 200_000, 8),
        ]);
        let devices = report(&collector.drain_delta(), 1).fig20;
        assert_eq!(devices.len(), 2);
        let (computer, streamer) = fig20_exemplars(&devices);
        let streamer = streamer.expect("roku found");
        assert_eq!(streamer.domains[0].0, "netflix.com");
        assert!(streamer.domains[0].1 > 0.7);
        let computer = computer.expect("desktop found");
        assert_eq!(computer.domains[0].0, "dropbox.com");
    }
}
