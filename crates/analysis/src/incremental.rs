//! Stream-mode incremental report state.
//!
//! Batch mode computes every figure from the final snapshot in one pass
//! ([`StudyReport::compute`]). Stream mode instead folds each window's
//! sealed-behind-the-watermark delta into per-figure partial state as it
//! arrives ([`IncrementalReport::update`]) and materializes the report
//! from that state at any window boundary ([`IncrementalReport::finalize`])
//! — without ever re-scanning the nine high-volume columnar tables that
//! dominate batch-compute cost.
//!
//! # Why the result is *identical* to batch, not merely close
//!
//! Every partial state kept here is either a set, an integer sum, or a
//! sample multiset feeding an aggregate that sorts its inputs
//! ([`crate::stats::Cdf`], medians). Sets and integer sums are fold-order
//! independent outright; sample vectors only ever feed order-insensitive
//! aggregates, and window deltas arrive in arrival order so even
//! order-sensitive consumers would see the batch order. Finalization then
//! funnels each state through the *same* `*_from_*` constructor the batch
//! path uses (`fig13_from_scans`, `table5_from_parts`, …), so the two
//! paths cannot diverge in the aggregation step either. The cheap
//! artifacts that derive from the run-length-encoded heartbeat logs and
//! the small row tables (availability, Figs 8/9, Tables 1/3, and the row
//! halves of Table 2) are recomputed from the accumulated snapshot at
//! finalize — their cost is negligible and recomputing sidesteps the one
//! genuinely order-sensitive aggregate in the report (the population
//! standard deviation of Figs 8/9, whose squared-residual sum is a float
//! fold in table order).
//!
//! The differential harness in `tests/streaming.rs` and the property
//! tests in `tests/incremental_properties.rs` hold this module to
//! byte-identical output against batch at every window split.

use crate::availability;
use crate::highlights;
use crate::index::DataIndex;
use crate::infrastructure;
use crate::latency;
use crate::natchar;
use crate::report::{ReportWindows, StudyReport};
use crate::stats::Cdf;
use crate::usage::{self, DomainTally};
use collector::Datasets;
use firmware::anonymize::AnonMac;
use firmware::records::{Medium, RouterId};
use household::VendorClass;
use simnet::time::SimTime;
use simnet::wifi::Band;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// One device within one home: router, OUI and anonymized NIC suffix.
type DeviceKey = (RouterId, u32, u32);

/// Mergeable per-figure partial state for a streaming study.
///
/// Feed every window's drained delta to [`IncrementalReport::update`]
/// *before* absorbing it into the accumulated snapshot, then call
/// [`IncrementalReport::finalize`] with the accumulator whenever a
/// report is due. Updates scan only the delta; finalize touches only
/// the heartbeat logs, the small row tables, and a handful of
/// single-router columnar slices.
#[derive(Debug, Default)]
pub struct IncrementalReport {
    windows: Option<ReportWindows>,

    // §5 infrastructure (associations / wifi scans / mac sightings).
    fig7_devices: HashMap<RouterId, HashSet<AnonMac>>,
    fig10_homes: HashSet<RouterId>,
    fig10_band_devices: HashMap<(RouterId, Band), HashSet<AnonMac>>,
    fig11_scanned: HashSet<RouterId>,
    fig11_neighbors: HashMap<RouterId, HashSet<u64>>,
    fig12_seen: HashSet<DeviceKey>,
    fig12_counts: HashMap<VendorClass, usize>,
    /// Presence count per (home, device), plus the maximal `(at, medium)`
    /// stamp seen — equal to the batch path's "last medium in table
    /// order" because the association table is sorted by that very key.
    presence: HashMap<DeviceKey, (usize, (SimTime, Medium))>,

    // §6 usage (wifi scans / packet stats / flows).
    per_scan: BTreeMap<(RouterId, SimTime), u32>,
    peaks: HashMap<RouterId, (Vec<f64>, Vec<f64>)>,
    device_bytes: HashMap<(RouterId, AnonMac), u64>,
    domain_bytes: BTreeMap<RouterId, DomainTally>,
    device_domains: HashMap<(RouterId, AnonMac), HashMap<String, u64>>,

    // Deployment tables and the companion latency set.
    wifi_routers: HashSet<RouterId>,
    traffic_routers: HashSet<RouterId>,
    latency_samples: HashMap<RouterId, (Vec<f64>, Vec<f64>)>,

    // NAT characterization (nat probes / punch trials; unwindowed).
    nat_tally: BTreeMap<RouterId, ([usize; 5], usize, usize)>,
    nat_ports: BTreeMap<RouterId, BTreeSet<u16>>,
    punch_cells: BTreeMap<(u8, u8), (usize, usize)>,
    nat_probes_total: usize,
    punch_trials_total: usize,
}

impl IncrementalReport {
    /// Fresh state for a study reporting over `windows`. The windows are
    /// fixed up front: every delta record is bucketed against them at
    /// update time, exactly as the batch figures filter at compute time.
    pub fn new(windows: ReportWindows) -> IncrementalReport {
        IncrementalReport { windows: Some(windows), ..IncrementalReport::default() }
    }

    /// The windows this report accumulates over.
    pub fn windows(&self) -> ReportWindows {
        self.windows.expect("IncrementalReport::new sets the windows")
    }

    /// Fold one window's drained delta into the partial state. Cost is
    /// one pass over the delta's records; the accumulated history is
    /// never touched. Call this before absorbing the delta into the
    /// accumulated snapshot (absorption consumes it).
    pub fn update(&mut self, delta: &Datasets) {
        let w = self.windows();

        for assoc in &delta.associations {
            if !w.devices.contains(assoc.at) {
                continue;
            }
            self.fig7_devices.entry(assoc.router).or_default().insert(assoc.device);
            self.fig10_homes.insert(assoc.router);
            if let Some(band) = assoc.medium.band() {
                self.fig10_band_devices
                    .entry((assoc.router, band))
                    .or_default()
                    .insert(assoc.device);
            }
            let stamp = (assoc.at, assoc.medium);
            let entry = self
                .presence
                .entry((assoc.router, assoc.device.oui, assoc.device.suffix_hash))
                .or_insert((0, stamp));
            entry.0 += 1;
            if stamp >= entry.1 {
                entry.1 = stamp;
            }
        }

        for scan in &delta.wifi {
            if !w.wifi.contains(scan.at) {
                continue;
            }
            self.wifi_routers.insert(scan.router);
            *self.per_scan.entry((scan.router, scan.at)).or_default() +=
                u32::from(scan.associated_stations);
            if scan.band == Band::Ghz24 {
                self.fig11_scanned.insert(scan.router);
                for ap in &scan.aps {
                    self.fig11_neighbors.entry(scan.router).or_default().insert(ap.bssid_hash);
                }
            }
        }

        for stats in &delta.packet_stats {
            if w.traffic.contains(stats.at) {
                let entry = self.peaks.entry(stats.router).or_default();
                entry.0.push(stats.peak_down_bps() as f64);
                entry.1.push(stats.peak_up_bps() as f64);
            }
        }

        for flow in &delta.flows {
            if !w.traffic.contains(flow.ended) {
                continue;
            }
            self.traffic_routers.insert(flow.router);
            let bytes = flow.total_bytes();
            *self.device_bytes.entry((flow.router, flow.device)).or_default() += bytes;
            let domain = usage::domain_key(&flow.domain);
            let tally = self.domain_bytes.entry(flow.router).or_default();
            let entry = tally.entry(domain.clone()).or_default();
            entry.0 += bytes;
            entry.1 += 1;
            *self
                .device_domains
                .entry((flow.router, flow.device))
                .or_default()
                .entry(domain)
                .or_default() += bytes;
        }

        for sighting in &delta.macs {
            if sighting.bytes_total < 100 * 1024 {
                continue;
            }
            let key = (sighting.router, sighting.device.oui, sighting.device.suffix_hash);
            if !self.fig12_seen.insert(key) {
                continue;
            }
            if let Some(vendor) = VendorClass::from_oui(sighting.device.oui) {
                *self.fig12_counts.entry(vendor).or_default() += 1;
            }
        }

        for rec in &delta.latency {
            if w.heartbeats.contains(rec.at) {
                let entry = self.latency_samples.entry(rec.router).or_default();
                entry.0.push(rec.rtt_median.as_secs_f64() * 1e3);
                entry.1.push(rec.rtt_max.as_secs_f64() * 1e3);
            }
        }

        for probe in &delta.nat_probes {
            let entry = self.nat_tally.entry(probe.router).or_insert(([0; 5], 0, 0));
            entry.0[probe.nat_type.code() as usize] += 1;
            entry.1 += usize::from(probe.cgn_detected);
            entry.2 += 1;
            self.nat_ports.entry(probe.router).or_default().insert(probe.mapped_port);
            self.nat_probes_total += 1;
        }

        for trial in &delta.punch_trials {
            let cell = self
                .punch_cells
                .entry((trial.local_type.code(), trial.peer_type.code()))
                .or_insert((0, 0));
            cell.0 += 1;
            cell.1 += usize::from(trial.success);
            self.punch_trials_total += 1;
        }
    }

    /// Materialize the full report from the partial state plus the
    /// accumulated snapshot (needed for registration metadata, heartbeat
    /// logs, the small row tables, and the per-router capacity and
    /// packet-stats slices of the few Fig 14/16 exemplar homes).
    pub fn finalize(&self, acc: &Datasets) -> StudyReport {
        let w = self.windows();
        let idx = DataIndex::new(acc);

        // §4 availability: RLE heartbeat logs, cheap to refold entirely.
        let routers = availability::per_router(acc, w.heartbeats);
        let fig3 = availability::fig3(&routers);
        let fig4 = availability::fig4(&routers);
        let fig5 = availability::fig5(&routers);
        let fig6 = availability::fig6_archetypes_with(&idx, &routers);
        let table3 = highlights::table3(&routers);
        let coverage = availability::median_coverage_by_country(&routers);

        // §5 infrastructure from the partial sets (Figs 8/9 refold the
        // small census row table: their standard deviations are float
        // folds in table order, so recomputing is the exact-match path).
        let fig7 = infrastructure::fig7_from_sets(&self.fig7_devices);
        let fig8 = infrastructure::fig8_with(&idx, w.devices);
        let fig9 = infrastructure::fig9(acc, w.devices);
        let fig10 = infrastructure::fig10_from_sets(&self.fig10_homes, &self.fig10_band_devices);
        let fig11 = infrastructure::fig11_from_sets(&idx, &self.fig11_scanned, &self.fig11_neighbors);
        let fig12 = infrastructure::fig12_from_counts(&self.fig12_counts);
        let census_count = infrastructure::census_counts(acc, w.devices);
        let presence: HashMap<DeviceKey, (usize, Medium)> = self
            .presence
            .iter()
            .map(|(&key, &(count, (_, medium)))| (key, (count, medium)))
            .collect();
        let table5 = infrastructure::table5_from_parts(&idx, w.devices, &census_count, &presence);
        let table4 = highlights::table4_from(&table5, &fig10, &fig11);

        // §6 usage from the partial maps.
        let fig13 = usage::fig13_from_scans(&idx, &self.per_scan);
        let mut fig15 = Vec::new();
        for meta in idx.routers() {
            let router = meta.router;
            let Some((down, up)) = self.peaks.get(&router) else { continue };
            if down.len() < 10 {
                continue;
            }
            let Some((down_cap, up_cap)) = usage::capacity_of(&idx, w.traffic, router) else {
                continue;
            };
            if down_cap <= 0.0 || up_cap <= 0.0 {
                continue;
            }
            let p95_down = Cdf::from_samples(down.iter().copied()).quantile(0.95);
            let p95_up = Cdf::from_samples(up.iter().copied()).quantile(0.95);
            fig15.push(usage::Fig15Point {
                router,
                down_capacity_bps: down_cap,
                down_utilization: p95_down / down_cap,
                up_capacity_bps: up_cap,
                up_utilization: p95_up / up_cap,
            });
        }
        let fig14_home = fig15
            .iter()
            .filter(|p| p.up_utilization <= 1.0)
            .min_by(|a, b| {
                (a.down_utilization - 0.5)
                    .abs()
                    .partial_cmp(&(b.down_utilization - 0.5).abs())
                    .expect("finite")
            })
            .map(|p| p.router);
        let fig14 = fig14_home.and_then(|r| usage::fig14_with(&idx, w.traffic, r));
        let fig16 = usage::fig16_from(&idx, w.traffic, &fig15);
        let fig17 = usage::fig17_from_device_bytes(&self.device_bytes);
        let mut per_home = Vec::new();
        for meta in idx.routers() {
            if let Some(tally) = self.domain_bytes.get(&meta.router) {
                if !tally.is_empty() {
                    per_home.push((meta.router, tally.clone()));
                }
            }
        }
        let tallies = usage::DomainTallies { per_home };
        let fig18 = usage::fig18_from(&tallies);
        let fig19 = usage::fig19_from(&tallies, 15);
        let fig20 = usage::fig20_from_device_domains(&self.device_domains, 100 * 1024);
        let table6 = highlights::table6_from(&fig13, &fig15, &fig17, &fig19);

        // Deployment tables: row-table sets refolded from the
        // accumulator, columnar sets from the partial state.
        let table1 = highlights::table1(acc);
        let heartbeat_routers: HashSet<RouterId> = acc
            .heartbeats
            .iter()
            .filter(|(_, log)| {
                log.extent()
                    .is_some_and(|(first, _)| w.heartbeats.contains(first) || first < w.heartbeats.end)
            })
            .map(|(r, _)| *r)
            .collect();
        let capacity_routers: HashSet<RouterId> =
            acc.capacity.iter().filter(|r| w.capacity.contains(r.at)).map(|r| r.router).collect();
        let uptime_routers: HashSet<RouterId> =
            acc.uptime.iter().filter(|r| w.uptime.contains(r.at)).map(|r| r.router).collect();
        let devices_routers: HashSet<RouterId> =
            acc.devices.iter().filter(|r| w.devices.contains(r.at)).map(|r| r.router).collect();
        let table2 = vec![
            highlights::table2_row(acc, "Heartbeats", w.heartbeats, &heartbeat_routers),
            highlights::table2_row(acc, "Capacity", w.capacity, &capacity_routers),
            highlights::table2_row(acc, "Uptime", w.uptime, &uptime_routers),
            highlights::table2_row(acc, "Devices", w.devices, &devices_routers),
            highlights::table2_row(acc, "WiFi", w.wifi, &self.wifi_routers),
            highlights::table2_row(acc, "Traffic", w.traffic, &self.traffic_routers),
        ];
        let latency = latency::by_region_from(acc, &self.latency_samples);
        let natchar = (self.nat_probes_total > 0).then(|| {
            natchar::characterize_from_parts(
                acc,
                &self.nat_tally,
                &self.punch_cells,
                self.nat_probes_total,
                self.punch_trials_total,
                &self.nat_ports,
            )
        });

        StudyReport {
            windows: w,
            routers,
            fig3,
            fig4,
            fig5,
            fig6,
            fig7,
            fig8,
            fig9,
            fig10,
            fig11,
            fig12,
            fig13,
            fig14,
            fig15,
            fig16,
            fig17,
            fig18,
            fig19,
            fig20,
            table1,
            table2,
            table3,
            table4,
            table5,
            table6,
            coverage,
            latency,
            natchar,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collector::windows::Window;
    use collector::{Collector, RouterMeta};
    use firmware::anonymize::ReportedDomain;
    use firmware::latency::LatencyRecord;
    use firmware::records::{
        ApSighting, AssociationRecord, CapacityRecord, DeviceCensusRecord, FlowRecord,
        HeartbeatRecord, MacSightingRecord, NatProbeRecord, NatType, PacketStatsRecord,
        PunchTrialRecord, Record, UptimeRecord, WifiScanRecord,
    };
    use household::Country;
    use simnet::dns::DomainName;
    use simnet::packet::IpProtocol;
    use simnet::time::SimDuration;

    fn t(mins: u64) -> SimTime {
        SimTime::EPOCH + SimDuration::from_mins(mins)
    }

    fn mac(n: u32) -> AnonMac {
        AnonMac { oui: household::VendorClass::Apple.oui(), suffix_hash: n }
    }

    /// A little of every record type for `router`, timestamped inside
    /// `[lo, hi)` minutes — enough signal that most figures are non-empty.
    fn records(router: u32, lo: u64, hi: u64) -> Vec<Record> {
        let r = RouterId(router);
        let mut out = Vec::new();
        for m in lo..hi {
            out.push(Record::Heartbeat(HeartbeatRecord { router: r, at: t(m) }));
            if m % 30 == 0 {
                out.push(Record::PacketStats(PacketStatsRecord {
                    router: r,
                    at: t(m),
                    bytes_down: 1_000_000 + m * 1_000,
                    bytes_up: 50_000,
                    pkts_down: 700,
                    pkts_up: 100,
                    peak_down_1s: 250_000 + (m % 7) * 10_000,
                    peak_up_1s: 20_000 + (m % 3) * 1_000,
                }));
                out.push(Record::Flow(FlowRecord {
                    router: r,
                    started: t(m.saturating_sub(1)),
                    ended: t(m),
                    device: mac(router * 10 + (m % 2) as u32),
                    remote_ip_hash: m,
                    remote_port: 443,
                    proto: IpProtocol::Tcp,
                    domain: if m % 60 == 0 {
                        ReportedDomain::Clear(DomainName::new("netflix.com").unwrap())
                    } else {
                        ReportedDomain::Obfuscated(m)
                    },
                    bytes_down: 200_000 + m,
                    bytes_up: 9_000,
                }));
            }
            if m % 60 == 0 {
                let hour = m / 60;
                out.push(Record::Association(AssociationRecord {
                    router: r,
                    at: t(m),
                    device: mac(router * 10 + (hour % 3) as u32),
                    medium: if hour % 2 == 0 { Medium::Wireless24 } else { Medium::Wired },
                }));
                out.push(Record::DeviceCensus(DeviceCensusRecord {
                    router: r,
                    at: t(m),
                    wired: 1,
                    wireless_24: (hour % 3) as u8,
                    wireless_5: 0,
                }));
                out.push(Record::WifiScan(WifiScanRecord {
                    router: r,
                    at: t(m),
                    band: Band::Ghz24,
                    aps: vec![ApSighting {
                        bssid_hash: 100 + (hour % 4),
                        channel_number: 6,
                        signal_dbm: -60,
                    }],
                    associated_stations: 1 + (hour % 2) as u8,
                }));
                out.push(Record::Uptime(UptimeRecord {
                    router: r,
                    at: t(m),
                    uptime: SimDuration::from_mins(m),
                }));
                out.push(Record::Latency(LatencyRecord {
                    router: r,
                    at: t(m),
                    rtt_min: SimDuration::from_millis(20),
                    rtt_median: SimDuration::from_millis(40 + (hour % 5)),
                    rtt_max: SimDuration::from_millis(200),
                    lost: 0,
                }));
            }
            if m % 360 == 0 {
                out.push(Record::Capacity(CapacityRecord {
                    router: r,
                    at: t(m),
                    down_bps: 10_000_000,
                    up_bps: 1_000_000,
                    shaping_detected: false,
                }));
                out.push(Record::MacSighting(MacSightingRecord {
                    router: r,
                    first_seen: t(m),
                    device: mac(router * 10 + (m / 360 % 2) as u32),
                    bytes_total: 500_000,
                }));
                out.push(Record::NatProbe(NatProbeRecord {
                    router: r,
                    at: t(m),
                    nat_type: NatType::PortRestricted,
                    mapped_ip_hash: 7,
                    mapped_port: 2_048 + (m / 360 % 2) as u16 * 600,
                    cgn_detected: router.is_multiple_of(2),
                }));
                out.push(Record::PunchTrial(PunchTrialRecord {
                    router: r,
                    at: t(m),
                    peer: RouterId(router ^ 1),
                    local_type: NatType::PortRestricted,
                    peer_type: NatType::FullCone,
                    success: m % 720 == 0,
                }));
            }
        }
        out
    }

    fn register(c: &Collector) {
        for (router, country) in
            [(0u32, Country::UnitedStates), (1, Country::UnitedStates), (2, Country::India)]
        {
            c.register(RouterMeta { router: RouterId(router), country, traffic_consent: true });
        }
    }

    #[test]
    fn windowed_updates_finalize_to_the_batch_report() {
        const TOTAL_MINS: u64 = 4 * 24 * 60;
        let span = Window { start: t(0), end: t(TOTAL_MINS) };
        let windows = ReportWindows {
            heartbeats: span,
            uptime: span,
            devices: span,
            wifi: span,
            capacity: span,
            traffic: span,
        };

        // Batch: everything through one collector.
        let batch = Collector::new();
        register(&batch);
        for router in 0..3u32 {
            batch.ingest_batch(records(router, 0, TOTAL_MINS));
        }
        let data = batch.into_datasets();
        let expected = StudyReport::compute(&data, windows);

        // Stream: the same records split at three uneven window
        // boundaries, each window folded through its own delta snapshot.
        let mut inc = IncrementalReport::new(windows);
        let cuts = [0, 1_000, 1_440, 3_000, TOTAL_MINS];
        for pair in cuts.windows(2) {
            let delta = Collector::new();
            register(&delta);
            for router in 0..3u32 {
                delta.ingest_batch(records(router, pair[0], pair[1]));
            }
            inc.update(&delta.into_datasets());
        }
        let streamed = inc.finalize(&data);

        assert_eq!(expected.fig15.len(), streamed.fig15.len());
        assert_eq!(expected.fig18.len(), streamed.fig18.len());
        assert_eq!(expected.table2[5].routers, streamed.table2[5].routers);
        assert_eq!(expected.natchar, streamed.natchar);
        assert_eq!(expected.render(&data), streamed.render(&data));
    }
}
