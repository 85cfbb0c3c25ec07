//! The report engine: per-figure partial state folded delta by delta,
//! then finished into a [`StudyReport`].
//!
//! There is one report path. [`IncrementalReport::update`] folds a
//! snapshot's columnar tables into partial state, one scan per table, and
//! [`IncrementalReport::finalize`] funnels that state, the accumulated
//! snapshot and its per-router [`DataIndex`] through one finisher per
//! figure. A stream study calls `update` with each window's drained
//! delta and `finalize` at every window boundary; a batch report
//! ([`StudyReport::compute`]) is the same fold over one window holding
//! the whole snapshot.
//!
//! # Why any split of the stream finalizes to the same bytes
//!
//! Every partial state kept here is a set or an integer sum, and both are
//! fold-order independent. `finalize` then reads the rest from the
//! accumulated snapshot:
//! * availability, Figs 8/9, Tables 1/3 and the row halves of Table 2
//!   refold the run-length-encoded heartbeat logs and the small row
//!   tables. Refolding sidesteps the one order-sensitive aggregate in the
//!   report: the population standard deviation of Figs 8/9, whose
//!   squared-residual sum is a float fold in table order.
//! * Fig 15's peak samples and the latency samples are read per router
//!   from the index, so no partial state grows with every record. Each
//!   feeds only medians and quantiles, which sort their inputs.
//!
//! The fixed-cut unit test below, the property tests in
//! `tests/incremental_properties.rs` and the stream differential harness
//! in `tests/streaming.rs` hold any number of windows to the bytes of
//! one.

use crate::availability;
use crate::highlights;
use crate::index::DataIndex;
use crate::infrastructure;
use crate::latency;
use crate::natchar;
use crate::report::{ReportWindows, StudyReport};
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

/// Compute one artifact while measuring its wall-clock cost into the named
/// `obs` wall span. The artifact is a pure function of its inputs and the
/// span is write-only host profiling (it reaches the manifest's text
/// summary, never `metrics.json` or the report), so timing cannot perturb
/// results.
fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    // simlint: allow(wall-clock) — per-figure host profiling recorded into obs wall spans; never feeds figures or exports
    let start = std::time::Instant::now();
    let value = f();
    obs::wall_span(name).record_micros(start.elapsed().as_micros() as u64);
    value
}

/// Mergeable per-figure partial state for one study's report.
///
/// Feed every delta to [`IncrementalReport::update`] *before* absorbing
/// it into the accumulated snapshot, then call
/// [`IncrementalReport::finalize`] with the accumulator whenever a
/// report is due.
#[derive(Debug)]
pub struct IncrementalReport {
    windows: ReportWindows,
    folded: Folded,
}

/// The state `update` folds: one field group per table it scans.
#[derive(Debug, Default)]
struct Folded {
    // §5 infrastructure (associations / wifi scans / mac sightings).
    fig7_devices: HashMap<RouterId, HashSet<AnonMac>>,
    fig10_homes: HashSet<RouterId>,
    fig10_band_devices: HashMap<(RouterId, Band), HashSet<AnonMac>>,
    fig11_scanned: HashSet<RouterId>,
    fig11_neighbors: HashMap<RouterId, HashSet<u64>>,
    fig12_seen: HashSet<DeviceKey>,
    fig12_counts: HashMap<VendorClass, usize>,
    /// Presence count per (home, device), plus the maximal `(at, medium)`
    /// stamp seen: the device's last medium in association-table order,
    /// because the table is sorted by that very key.
    presence: HashMap<DeviceKey, (usize, (SimTime, Medium))>,

    // §6 usage (wifi scans / flows).
    per_scan: BTreeMap<(RouterId, SimTime), u32>,
    device_bytes: HashMap<(RouterId, AnonMac), u64>,
    domain_bytes: BTreeMap<RouterId, DomainTally>,
    device_domains: HashMap<(RouterId, AnonMac), HashMap<String, u64>>,

    // Table 2's columnar data sets.
    wifi_routers: HashSet<RouterId>,
    traffic_routers: HashSet<RouterId>,

    // NAT characterization (nat probes / punch trials; unwindowed).
    nat_tally: BTreeMap<RouterId, ([usize; 5], usize, usize)>,
    nat_ports: BTreeMap<RouterId, BTreeSet<u16>>,
    punch_cells: BTreeMap<(u8, u8), (usize, usize)>,
    nat_probes_total: usize,
    punch_trials_total: usize,
}

impl IncrementalReport {
    /// Fresh state for a study reporting over `windows`. The windows are
    /// fixed up front: every record is bucketed against them as it is
    /// folded.
    pub fn new(windows: ReportWindows) -> IncrementalReport {
        IncrementalReport { windows, folded: Folded::default() }
    }

    /// Fold one delta into the partial state: one pass over each of its
    /// columnar tables the state derives from. The accumulated history is
    /// never touched. Call this before absorbing the delta into the
    /// accumulated snapshot (absorption consumes it).
    pub fn update(&mut self, delta: &Datasets) {
        timed("analysis_update", || self.folded.fold(delta, self.windows));
    }

    /// Materialize the full report from the partial state plus the
    /// accumulated snapshot: registration metadata, heartbeat logs, the
    /// small row tables, and per-router slices of the packet-stats and
    /// latency tables.
    pub fn finalize(&self, acc: &Datasets) -> StudyReport {
        let w = self.windows;
        let s = &self.folded;
        let idx = &timed("analysis_index", || DataIndex::new(acc));

        // §4 availability: RLE heartbeat logs, cheap to refold entirely.
        let routers = timed("analysis_availability_per_router", || {
            availability::per_router(acc, w.heartbeats)
        });
        let fig3 = timed("analysis_fig3", || availability::fig3(&routers));
        let fig4 = timed("analysis_fig4", || availability::fig4(&routers));
        let fig5 = timed("analysis_fig5", || availability::fig5(&routers));
        let fig6 = timed("analysis_fig6", || availability::fig6_archetypes_with(idx, &routers));
        let table3 = timed("analysis_table3", || highlights::table3(&routers));
        let coverage =
            timed("analysis_coverage", || availability::median_coverage_by_country(&routers));

        // §5 infrastructure from the folded sets; Figs 8/9 and Table 5's
        // census counts refold the small census row table.
        let fig7 = timed("analysis_fig7", || infrastructure::fig7_from_sets(&s.fig7_devices));
        let fig8 = timed("analysis_fig8", || infrastructure::fig8_with(idx, w.devices));
        let fig9 = timed("analysis_fig9", || infrastructure::fig9(acc, w.devices));
        let fig10 = timed("analysis_fig10", || {
            infrastructure::fig10_from_sets(&s.fig10_homes, &s.fig10_band_devices)
        });
        let fig11 = timed("analysis_fig11", || {
            infrastructure::fig11_from_sets(idx, &s.fig11_scanned, &s.fig11_neighbors)
        });
        let fig12 = timed("analysis_fig12", || infrastructure::fig12_from_counts(&s.fig12_counts));
        let table5 = timed("analysis_table5", || {
            let census_count = infrastructure::census_counts(acc, w.devices);
            let presence: HashMap<DeviceKey, (usize, Medium)> = s
                .presence
                .iter()
                .map(|(&key, &(count, (_, medium)))| (key, (count, medium)))
                .collect();
            infrastructure::table5_from_parts(idx, w.devices, &census_count, &presence)
        });
        let table4 = timed("analysis_table4", || highlights::table4_from(&table5, &fig10, &fig11));

        // §6 usage. Figs 14-16 read each router's packet-stats and
        // capacity slices; the rest finish the folded maps.
        let fig13 = timed("analysis_fig13", || usage::fig13_from_scans(idx, &s.per_scan));
        let fig15 = timed("analysis_fig15", || usage::fig15_with(idx, w.traffic));
        // Fig 14 exemplar: an ordinary busy home — meaningful utilization
        // with clear headroom, as in the paper's example (its Fig 14 home
        // peaks well below capacity on most days).
        let fig14 = timed("analysis_fig14", || {
            fig15
                .iter()
                .filter(|p| p.up_utilization <= 1.0)
                .min_by(|a, b| {
                    (a.down_utilization - 0.5)
                        .abs()
                        .partial_cmp(&(b.down_utilization - 0.5).abs())
                        .expect("finite")
                })
                .and_then(|p| usage::fig14_with(idx, w.traffic, p.router))
        });
        let fig16 = timed("analysis_fig16", || usage::fig16_from(idx, w.traffic, &fig15));
        let fig17 =
            timed("analysis_fig17", || usage::fig17_from_device_bytes(&s.device_bytes));
        // Per-home domain tallies in router order, so the figures derived
        // from them accumulate deterministically.
        let tallies: Vec<&DomainTally> = timed("analysis_domain_tallies", || {
            idx.routers().iter().filter_map(|meta| s.domain_bytes.get(&meta.router)).collect()
        });
        let fig18 = timed("analysis_fig18", || usage::fig18_from(&tallies));
        let fig19 = timed("analysis_fig19", || usage::fig19_from(&tallies, 15));
        let fig20 = timed("analysis_fig20", || {
            usage::fig20_from_device_domains(&s.device_domains, 100 * 1024)
        });
        let table6 =
            timed("analysis_table6", || highlights::table6_from(&fig13, &fig15, &fig17, &fig19));

        // Deployment tables: row-table sets refolded from the
        // accumulator, columnar sets from the partial state.
        let table1 = timed("analysis_table1", || highlights::table1(acc));
        let table2 = timed("analysis_table2", || {
            let heartbeat_routers: HashSet<RouterId> = acc
                .heartbeats
                .iter()
                .filter(|(_, log)| {
                    log.extent().is_some_and(|(first, _)| {
                        w.heartbeats.contains(first) || first < w.heartbeats.end
                    })
                })
                .map(|(r, _)| *r)
                .collect();
            let capacity_routers: HashSet<RouterId> =
                acc.capacity.iter().filter(|r| w.capacity.contains(r.at)).map(|r| r.router).collect();
            let uptime_routers: HashSet<RouterId> =
                acc.uptime.iter().filter(|r| w.uptime.contains(r.at)).map(|r| r.router).collect();
            let devices_routers: HashSet<RouterId> =
                acc.devices.iter().filter(|r| w.devices.contains(r.at)).map(|r| r.router).collect();
            vec![
                highlights::table2_row(acc, "Heartbeats", w.heartbeats, &heartbeat_routers),
                highlights::table2_row(acc, "Capacity", w.capacity, &capacity_routers),
                highlights::table2_row(acc, "Uptime", w.uptime, &uptime_routers),
                highlights::table2_row(acc, "Devices", w.devices, &devices_routers),
                highlights::table2_row(acc, "WiFi", w.wifi, &s.wifi_routers),
                highlights::table2_row(acc, "Traffic", w.traffic, &s.traffic_routers),
            ]
        });
        let latency = timed("analysis_latency", || latency::by_region_with(idx, w.heartbeats));
        let natchar = timed("analysis_natchar", || {
            (s.nat_probes_total > 0).then(|| {
                natchar::characterize_from_parts(
                    acc,
                    &s.nat_tally,
                    &s.punch_cells,
                    s.nat_probes_total,
                    s.punch_trials_total,
                    &s.nat_ports,
                )
            })
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

impl Folded {
    fn fold(&mut self, delta: &Datasets, w: ReportWindows) {
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
        let windows = ReportWindows::spanning(Window { start: t(0), end: t(TOTAL_MINS) });

        // One window: every record through one collector, one fold.
        let batch = Collector::new();
        register(&batch);
        for router in 0..3u32 {
            batch.ingest_batch(records(router, 0, TOTAL_MINS));
        }
        let data = batch.into_datasets();
        let expected = StudyReport::compute(&data, windows);

        // Four windows: the same records split at three uneven
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
