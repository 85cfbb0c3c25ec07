//! The report engine: per-figure partial state folded delta by delta,
//! then finished into a [`StudyReport`].
//!
//! There is one report path. [`IncrementalReport::update`] folds a
//! delta's columnar tables into partial state, one scan per table, and
//! [`IncrementalReport::finalize`] funnels that state and the accumulated
//! [`Datasets`] through one finisher per figure. The finishers read a
//! router's rows only through `Datasets`: its registration by
//! [`Datasets::meta`] and its rows of each record table by that table's
//! `router` iterator, one lookup in the per-router layout the collector's
//! drain keeps. A stream study calls `update` with
//! each window's drained delta and `finalize` at every window boundary;
//! a batch report ([`StudyReport::compute`]) is the same fold over one
//! window holding the whole drain.
//!
//! # Why any split of the stream finalizes to the same bytes
//!
//! Every partial state kept here is a per-router sorted run, a flag or an
//! integer sum, and all three are fold-order independent. `update` walks
//! each table's own routers, sorts and deduplicates what the delta brings
//! for one router, and merges that into the router's held run: a sorted
//! run holds the same items in the same order whatever order they arrived
//! in, and the merge appends when every new item lands past the held end.
//! Nothing a scan, a neighbour sighting or an association report brings
//! is hashed. Per router, one record (160 B, plus its 4 B id) holds:
//! * its devices in association reports (24 B per device), each with its
//!   report count, its last `(at, medium)` stamp and the bands it was seen
//!   on: Fig 7 reads the run's length, Fig 10 its bands and Table 5 its
//!   counts and last media;
//! * its distinct 2.4 GHz neighbour BSSIDs (8 B each), for Fig 11;
//! * its distinct scan instants (8 B each). Fig 13 keeps integer station
//!   sums and instant counts per (weekday or weekend, local hour) bucket,
//!   and an instant counts once, when it first enters its router's run.
//!   Integer sums below 2^53 convert to the same `f64` an in-order float
//!   sum reaches;
//! * its RTT medians and maxima as two ascending runs of integer
//!   microseconds (16 B per latency record, outside the spill budget),
//!   from which `finalize` reads each router's medians in router order;
//! * its distinct devices sighted moving at least 100 KiB (8 B each),
//!   each bumping Fig 12's vendor count once;
//! * flags for Table 2's WiFi row and Fig 11's homes, and the flow
//!   tallies of Figs 17–20, held only once the router carried traffic.
//!
//! A router missing from a table holds an empty run there and adds
//! nothing to the figures that table feeds. The finishers read the
//! records in router order, and each figure built from them sorts its
//! samples, or its rows by a full key. At seed 2013 the runs hold 2.8 MB
//! for `paper-49d`'s 126 homes, and 3.9 MB beside 1.5 MB of records for
//! the 9,070 homes of `homes-10k` with records in these tables.
//!
//! `finalize` reads neither the WiFi nor the latency rows. It reads the
//! rest from the accumulated snapshot:
//! * availability, Figs 8/9, Tables 1/3 and the heartbeat, capacity,
//!   uptime and census rows of Table 2 refold the run-length-encoded
//!   heartbeat logs and the small uptime, capacity and census tables.
//!   Refolding sidesteps the one order-sensitive aggregate in the
//!   report: the population standard deviation of Figs 8/9, whose
//!   squared-residual sum is a float fold in table order.
//! * Fig 15's peak samples are read per router from the packet-stats
//!   table, so no partial state grows with every packet-stat record.
//!   They feed only medians and quantiles, which sort their inputs.
//!
//! The fixed-cut unit test below, the property tests in
//! `tests/incremental_properties.rs` and the stream differential harness
//! in `tests/streaming.rs` hold any number of windows to the bytes of
//! one.

use crate::availability;
use crate::highlights;
use crate::infrastructure::{self, DeviceRun};
use crate::latency::{self, RttSamples};
use crate::natchar;
use crate::report::{ReportWindows, StudyReport};
use crate::runs::merge_run;
use crate::usage::{self, DomainTally, Fig13Buckets, TrafficTally};
use collector::Datasets;
use firmware::anonymize::AnonMac;
use firmware::records::RouterId;
use household::VendorClass;
use simnet::time::SimTime;
use simnet::wifi::Band;
use std::collections::{BTreeMap, BTreeSet, HashMap};

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

/// The state `update` folds: one record per router, beside the
/// study-wide Fig 12/13 counts and the NAT/punch tallies.
#[derive(Debug, Default)]
struct Folded {
    homes: Homes,
    // Study-wide counts: Fig 12's distinct devices per vendor and Fig
    // 13's buckets, each bumped as an item first enters its router's run.
    fig12_counts: HashMap<VendorClass, usize>,
    fig13: Fig13Buckets,

    // NAT characterization (nat probes / punch trials; unwindowed).
    nat_tally: BTreeMap<RouterId, ([usize; 5], usize, usize)>,
    nat_ports: BTreeMap<RouterId, BTreeSet<u16>>,
    punch_cells: BTreeMap<(u8, u8), (usize, usize)>,
    nat_probes_total: usize,
    punch_trials_total: usize,
}

/// One router's folded state: sorted runs, flags and tallies. Each run
/// holds what the router's records brought within their data set's
/// window, once per item, ascending.
#[derive(Debug, Default)]
struct Home {
    /// Devices in association reports (Figs 7 and 10, Table 5).
    devices: Vec<DeviceRun>,
    /// Neighbor BSSIDs in 2.4 GHz scans (Fig 11).
    bssids: Vec<u64>,
    /// Scan instants (Fig 13's instant counts).
    instants: Vec<SimTime>,
    /// Latency probe samples, heartbeat window (the latency summary).
    rtts: RttSamples,
    /// Devices sighted moving at least 100 KiB, any time (Fig 12).
    macs: Vec<AnonMac>,
    /// It scanned, on any band (Table 2's WiFi row).
    scanned: bool,
    /// It scanned on 2.4 GHz (Fig 11's homes).
    scanned_24: bool,
    /// Flow tallies, held only once the router carried traffic (Table
    /// 2's Traffic row, Figs 17–20).
    traffic: Option<Box<TrafficTally>>,
}

/// The per-router records in router order: two parallel vectors, so a
/// lookup is a binary search over the ids alone.
#[derive(Debug, Default)]
struct Homes {
    routers: Vec<RouterId>,
    records: Vec<Home>,
}

impl Homes {
    /// Give every router of `routers` a record, if it has none yet.
    fn admit(&mut self, routers: &BTreeSet<RouterId>) {
        let held = &self.routers;
        let absent = routers.iter().filter(|r| held.binary_search(r).is_err()).count();
        if absent == 0 {
            return;
        }
        let mut ids = Vec::with_capacity(held.len() + absent);
        let mut records = Vec::with_capacity(held.len() + absent);
        let mut old = std::mem::take(&mut self.routers)
            .into_iter()
            .zip(std::mem::take(&mut self.records))
            .peekable();
        for &router in routers {
            while let Some((id, home)) = old.next_if(|(id, _)| *id <= router) {
                ids.push(id);
                records.push(home);
            }
            if ids.last() != Some(&router) {
                ids.push(router);
                records.push(Home::default());
            }
        }
        for (id, home) in old {
            ids.push(id);
            records.push(home);
        }
        self.routers = ids;
        self.records = records;
    }

    /// The record of an admitted router.
    fn get_mut(&mut self, router: RouterId) -> &mut Home {
        let at = self.routers.binary_search(&router).expect("router admitted");
        &mut self.records[at]
    }

    /// The record of `router`, if any table of any delta named it.
    fn get(&self, router: RouterId) -> Option<&Home> {
        self.routers.binary_search(&router).ok().map(|at| &self.records[at])
    }

    /// Every record, in router order.
    fn iter(&self) -> impl Iterator<Item = (RouterId, &Home)> {
        self.routers.iter().copied().zip(&self.records)
    }

    /// The homes that carried traffic, with their tallies, in router
    /// order.
    fn traffic(&self) -> impl Iterator<Item = (RouterId, &TrafficTally)> {
        self.iter().filter_map(|(router, home)| Some((router, home.traffic.as_deref()?)))
    }
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
    /// small uptime, capacity and census tables, and per-router slices of
    /// the packet-stats table.
    pub fn finalize(&self, acc: &Datasets) -> StudyReport {
        let w = self.windows;
        let s = &self.folded;

        // §4 availability: RLE heartbeat logs, cheap to refold entirely.
        let routers = timed("analysis_availability_per_router", || {
            availability::per_router(acc, w.heartbeats)
        });
        let fig3 = timed("analysis_fig3", || availability::fig3(&routers));
        let fig4 = timed("analysis_fig4", || availability::fig4(&routers));
        let fig5 = timed("analysis_fig5", || availability::fig5(&routers));
        let fig6 = timed("analysis_fig6", || availability::fig6_archetypes(acc, &routers));
        let table3 = timed("analysis_table3", || highlights::table3(&routers));
        let coverage =
            timed("analysis_coverage", || availability::median_coverage_by_country(&routers));

        // §5 infrastructure from the per-router runs; Figs 8/9 and Table
        // 5's census counts refold the small census table.
        let homes = &s.homes;
        let device_runs = || homes.records.iter().map(|home| home.devices.as_slice());
        let fig7 = timed("analysis_fig7", || infrastructure::fig7_from_runs(device_runs()));
        let fig8 = timed("analysis_fig8", || infrastructure::fig8_with(acc, w.devices));
        let fig9 = timed("analysis_fig9", || infrastructure::fig9(acc, w.devices));
        let fig10 = timed("analysis_fig10", || infrastructure::fig10_from_runs(device_runs()));
        let fig11 = timed("analysis_fig11", || {
            let scanned_24 = homes.iter().filter(|(_, home)| home.scanned_24);
            let neighbors = scanned_24.map(|(router, home)| (router, home.bssids.len()));
            infrastructure::fig11_from_counts(acc, neighbors)
        });
        let fig12 = timed("analysis_fig12", || infrastructure::fig12_from_counts(&s.fig12_counts));
        let table5 = timed("analysis_table5", || {
            infrastructure::table5_from_runs(acc, w.devices, |router| {
                homes.get(router).map_or(&[], |home| home.devices.as_slice())
            })
        });
        let table4 = timed("analysis_table4", || highlights::table4_from(&table5, &fig10, &fig11));

        // §6 usage. Figs 14-16 read each router's packet-stats and
        // capacity slices; the rest finish the folded maps.
        let fig13 = timed("analysis_fig13", || s.fig13.finish());
        let fig15 = timed("analysis_fig15", || usage::fig15_with(acc, w.traffic));
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
                .and_then(|p| usage::fig14_with(acc, w.traffic, p.router))
        });
        let fig16 = timed("analysis_fig16", || usage::fig16_from(acc, w.traffic, &fig15));
        let fig17 = timed("analysis_fig17", || usage::fig17_from_tallies(homes.traffic()));
        // Registered homes' domain tallies in router order, so the
        // figures derived from them accumulate deterministically.
        let tallies: Vec<&DomainTally> = timed("analysis_domain_tallies", || {
            homes
                .traffic()
                .filter(|(router, _)| acc.meta(*router).is_some())
                .map(|(_, tally)| &tally.domains)
                .collect()
        });
        let fig18 = timed("analysis_fig18", || usage::fig18_from(&tallies));
        let fig19 = timed("analysis_fig19", || usage::fig19_from(&tallies, 15));
        let fig20 =
            timed("analysis_fig20", || usage::fig20_from_tallies(homes.traffic(), 100 * 1024));
        let table6 =
            timed("analysis_table6", || highlights::table6_from(&fig13, &fig15, &fig17, &fig19));

        // Deployment tables: the uptime, capacity and census sets
        // refolded from the accumulator, the rest from the partial state.
        let table1 = timed("analysis_table1", || highlights::table1(acc));
        let table2 = timed("analysis_table2", || {
            let heartbeat_routers = acc
                .heartbeats
                .iter()
                .filter(|(_, log)| {
                    log.extent().is_some_and(|(first, _)| {
                        w.heartbeats.contains(first) || first < w.heartbeats.end
                    })
                })
                .map(|(r, _)| *r);
            let capacity_routers = distinct(
                acc.capacity.iter().filter(|r| w.capacity.contains(r.at)).map(|r| r.router),
            );
            let uptime_routers =
                distinct(acc.uptime.iter().filter(|r| w.uptime.contains(r.at)).map(|r| r.router));
            let devices_routers =
                distinct(acc.devices.iter().filter(|r| w.devices.contains(r.at)).map(|r| r.router));
            let wifi_routers = homes.iter().filter(|(_, home)| home.scanned).map(|(r, _)| r);
            let traffic_routers = homes.traffic().map(|(r, _)| r);
            vec![
                highlights::table2_row(acc, "Heartbeats", w.heartbeats, heartbeat_routers),
                highlights::table2_row(acc, "Capacity", w.capacity, capacity_routers),
                highlights::table2_row(acc, "Uptime", w.uptime, uptime_routers),
                highlights::table2_row(acc, "Devices", w.devices, devices_routers),
                highlights::table2_row(acc, "WiFi", w.wifi, wifi_routers),
                highlights::table2_row(acc, "Traffic", w.traffic, traffic_routers),
            ]
        });
        let latency = timed("analysis_latency", || {
            latency::by_region(&acc.routers, |router| homes.get(router).map(|home| &home.rtts))
        });
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

/// The distinct routers of `routers`, ascending.
fn distinct(routers: impl Iterator<Item = RouterId>) -> Vec<RouterId> {
    let mut out: Vec<RouterId> = routers.collect();
    out.sort_unstable();
    out.dedup();
    out
}

impl Folded {
    /// Walk each table's own routers: sort and dedup what the delta
    /// brings for one router, then merge it into that router's runs.
    fn fold(&mut self, delta: &Datasets, w: ReportWindows) {
        let Folded { homes, fig12_counts, fig13, .. } = self;

        let routers = delta.associations.routers();
        homes.admit(&routers);
        let mut devices = Vec::new();
        for &router in &routers {
            devices.clear();
            devices.extend(
                delta
                    .associations
                    .router(router)
                    .filter(|assoc| w.devices.contains(assoc.at))
                    .map(|assoc| DeviceRun::of(&assoc)),
            );
            devices.sort_unstable_by_key(|d: &DeviceRun| d.device);
            devices.dedup_by(|next, kept| {
                let twin = next.device == kept.device;
                if twin {
                    kept.absorb(next);
                }
                twin
            });
            let home = homes.get_mut(router);
            merge_run(&mut home.devices, &devices, |d| d.device, DeviceRun::absorb, |_| {});
        }

        let routers = delta.wifi.routers();
        homes.admit(&routers);
        let (mut instants, mut bssids) = (Vec::new(), Vec::new());
        for &router in &routers {
            // Every drain carries the full registration, so the delta
            // knows every scanning router's offset.
            let offset = delta.meta(router).map_or(0, |m| m.country.utc_offset_hours());
            let home = homes.get_mut(router);
            instants.clear();
            bssids.clear();
            for scan in delta.wifi.router(router) {
                if !w.wifi.contains(scan.at) {
                    continue;
                }
                home.scanned = true;
                fig13.add_stations(scan.at, offset, scan.associated_stations);
                instants.push(scan.at);
                if scan.band == Band::Ghz24 {
                    home.scanned_24 = true;
                    for ap in &scan.aps {
                        if let Err(at) = bssids.binary_search(&ap.bssid_hash) {
                            bssids.insert(at, ap.bssid_hash);
                        }
                    }
                }
            }
            instants.sort_unstable();
            instants.dedup();
            merge_run(
                &mut home.instants,
                &instants,
                |&at| at,
                |_, _| {},
                |&at| fig13.add_instant(at, offset),
            );
            merge_run(&mut home.bssids, &bssids, |&bssid| bssid, |_, _| {}, |_| {});
        }

        let routers = delta.flows.routers();
        homes.admit(&routers);
        for &router in &routers {
            let home = homes.get_mut(router);
            for flow in delta.flows.router(router) {
                if w.traffic.contains(flow.ended) {
                    home.traffic.get_or_insert_default().add(&flow);
                }
            }
        }

        let routers = delta.latency.routers();
        homes.admit(&routers);
        let (mut medians, mut maxima) = (Vec::new(), Vec::new());
        for &router in &routers {
            medians.clear();
            maxima.clear();
            for probe in delta.latency.router(router) {
                if w.heartbeats.contains(probe.at) {
                    medians.push(probe.rtt_median.as_micros());
                    maxima.push(probe.rtt_max.as_micros());
                }
            }
            homes.get_mut(router).rtts.merge(&mut medians, &mut maxima);
        }

        let routers = delta.macs.routers();
        homes.admit(&routers);
        let mut macs = Vec::new();
        for &router in &routers {
            macs.clear();
            macs.extend(
                delta
                    .macs
                    .router(router)
                    .filter(|sighting| sighting.bytes_total >= 100 * 1024)
                    .map(|sighting| sighting.device),
            );
            macs.sort_unstable();
            macs.dedup();
            merge_run(
                &mut homes.get_mut(router).macs,
                &macs,
                |&d| d,
                |_, _| {},
                |device| {
                    if let Some(vendor) = VendorClass::from_oui(device.oui) {
                        *fig12_counts.entry(vendor).or_default() += 1;
                    }
                },
            );
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
        HeartbeatRecord, MacSightingRecord, Medium, NatProbeRecord, NatType, PacketStatsRecord,
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

    /// Four registered homes, each missing from some tables, with one
    /// record of each kind per hour in `[lo, hi)` minutes: home 0 only
    /// probes latency and carries traffic, home 1 has only wired devices
    /// (a NAS every hour, a desktop every other hour), home 2 scans only
    /// on 5 GHz, and home 3's 2.4 GHz scans list no AP. Homes 1 and 2 are
    /// censused every hour.
    fn sparse_records(lo: u64, hi: u64) -> Vec<Record> {
        let mut out = Vec::new();
        for m in (lo..hi).filter(|m| m % 60 == 0) {
            let (at, hour) = (t(m), m / 60);
            out.push(Record::Latency(LatencyRecord {
                router: RouterId(0),
                at,
                rtt_min: SimDuration::from_millis(10),
                rtt_median: SimDuration::from_millis(30 + hour % 4),
                rtt_max: SimDuration::from_millis(90),
                lost: 0,
            }));
            out.push(Record::Flow(FlowRecord {
                router: RouterId(0),
                started: t(m.saturating_sub(1)),
                ended: at,
                device: mac(1),
                remote_ip_hash: hour,
                remote_port: 443,
                proto: IpProtocol::Tcp,
                domain: ReportedDomain::Clear(DomainName::new("netflix.com").unwrap()),
                bytes_down: 300_000,
                bytes_up: 1_000,
            }));
            let mut devices = vec![mac(11)];
            if hour % 2 == 0 {
                devices.push(mac(12));
            }
            for device in devices {
                out.push(Record::Association(AssociationRecord {
                    router: RouterId(1),
                    at,
                    device,
                    medium: Medium::Wired,
                }));
            }
            for router in [1, 2] {
                out.push(Record::DeviceCensus(DeviceCensusRecord {
                    router: RouterId(router),
                    at,
                    wired: 2 - router as u8,
                    wireless_24: 0,
                    wireless_5: 0,
                }));
            }
            out.push(Record::WifiScan(WifiScanRecord {
                router: RouterId(2),
                at,
                band: Band::Ghz5,
                aps: vec![ApSighting {
                    bssid_hash: 500 + hour % 3,
                    channel_number: 36,
                    signal_dbm: -70,
                }],
                associated_stations: 1,
            }));
            out.push(Record::WifiScan(WifiScanRecord {
                router: RouterId(3),
                at,
                band: Band::Ghz24,
                aps: Vec::new(),
                associated_stations: 0,
            }));
        }
        out
    }

    fn register_sparse(c: &Collector) {
        for (router, country) in [
            (0u32, Country::UnitedStates),
            (1, Country::UnitedStates),
            (2, Country::India),
            (3, Country::India),
        ] {
            c.register(RouterMeta { router: RouterId(router), country, traffic_consent: true });
        }
    }

    #[test]
    fn held_bytes_match_the_module_docs() {
        assert_eq!(std::mem::size_of::<Home>(), 160);
        assert_eq!(std::mem::size_of::<DeviceRun>(), 24);
    }

    /// Hand-derived: a home missing from a table contributes nothing to
    /// the figures that table feeds, whether the records come in one
    /// window or in several.
    #[test]
    fn homes_present_in_only_some_tables() {
        const TOTAL_MINS: u64 = 4 * 24 * 60;
        let windows = ReportWindows::spanning(Window { start: t(0), end: t(TOTAL_MINS) });
        let batch = Collector::new();
        register_sparse(&batch);
        batch.ingest_batch(sparse_records(0, TOTAL_MINS));
        let data = batch.drain_delta();

        let mut inc = IncrementalReport::new(windows);
        for pair in [0, 1_000, 1_440, 3_000, TOTAL_MINS].windows(2) {
            let delta = Collector::new();
            register_sparse(&delta);
            delta.ingest_batch(sparse_records(pair[0], pair[1]));
            inc.update(&delta.drain_delta());
        }

        for report in [StudyReport::compute(&data, windows), inc.finalize(&data)] {
            // Only home 1 reported associations: two wired devices.
            assert_eq!(report.fig7.samples(), [2.0]);
            assert_eq!(report.fig10.ghz24.samples(), [0.0]);
            assert_eq!(report.fig10.ghz5.samples(), [0.0]);
            // Only home 3 scanned on 2.4 GHz, and saw no AP.
            assert!(report.fig11.developed.is_empty());
            assert_eq!(report.fig11.developing.samples(), [0.0]);
            let row = |name: &str| {
                let row = report.table2.iter().find(|row| row.dataset == name).unwrap();
                (row.routers, row.countries)
            };
            assert_eq!(row("WiFi"), (2, 1), "homes 2 and 3, both in India");
            assert_eq!(row("Traffic"), (1, 1), "home 0");
            // Homes 1 and 2 were censused; home 1's NAS never left.
            assert_eq!(
                report.table5,
                [
                    infrastructure::Table5Row {
                        region: household::Region::Developed,
                        total: 1,
                        wired: 1,
                        wireless: 0,
                    },
                    infrastructure::Table5Row {
                        region: household::Region::Developing,
                        total: 1,
                        wired: 0,
                        wireless: 0,
                    },
                ]
            );
            let homes: Vec<usize> = report.latency.iter().map(|region| region.homes).collect();
            assert_eq!(homes, [1, 0], "only home 0 probed latency");
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
        let data = batch.drain_delta();
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
            inc.update(&delta.drain_delta());
        }
        let streamed = inc.finalize(&data);

        assert_eq!(expected.fig15.len(), streamed.fig15.len());
        assert_eq!(expected.fig18.len(), streamed.fig18.len());
        assert_eq!(expected.table2[5].routers, streamed.table2[5].routers);
        assert_eq!(expected.natchar, streamed.natchar);
        assert_eq!(expected.render(&data), streamed.render(&data));

        // The latency summary and Fig 13 come from the folded state
        // alone: finalize never reads the latency or WiFi rows.
        let mut stripped = data.clone();
        stripped.latency = Default::default();
        stripped.wifi = Default::default();
        assert_eq!(expected.render(&data), inc.finalize(&stripped).render(&stripped));
    }
}
