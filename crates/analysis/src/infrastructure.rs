//! §5 — Infrastructure: device counts, wired vs wireless, spectrum
//! occupancy, neighboring APs, and device vendors (Figs 7–12, Tables 4–5).

use crate::index::DataIndex;
use crate::stats::{Cdf, MeanStd};
use collector::windows::Window;
use collector::Datasets;
use firmware::anonymize::AnonMac;
use firmware::records::{Medium, RouterId};
use household::{Region, VendorClass};
use simnet::wifi::Band;
use std::collections::{HashMap, HashSet};

/// Figure 7: CDF of unique devices per home, from each home's set of
/// devices in the hourly association reports within the Devices window.
pub(crate) fn fig7_from_sets(per_home: &HashMap<RouterId, HashSet<AnonMac>>) -> Cdf {
    Cdf::from_samples(per_home.values().map(|set| set.len() as f64))
}

/// Figure 8: average simultaneously connected devices, wired vs wireless,
/// by region, with standard deviations.
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// Developed: (wired, wireless).
    pub developed: (MeanStd, MeanStd),
    /// Developing: (wired, wireless).
    pub developing: (MeanStd, MeanStd),
}

/// Compute Figure 8 from the census records in `window`: one pass over
/// the censuses with a run-cached region lookup (the table is
/// router-sorted), instead of a registration scan per record per region.
pub fn fig8_with(idx: &DataIndex, window: Window) -> Fig8 {
    let mut buckets = [(Vec::new(), Vec::new()), (Vec::new(), Vec::new())];
    let mut current: Option<(RouterId, Option<Region>)> = None;
    for census in &idx.data().devices {
        if !window.contains(census.at) {
            continue;
        }
        let region = match current {
            Some((router, region)) if router == census.router => region,
            _ => {
                let region = idx.region(census.router);
                current = Some((census.router, region));
                region
            }
        };
        let bucket = match region {
            Some(Region::Developed) => &mut buckets[0],
            Some(Region::Developing) => &mut buckets[1],
            None => continue,
        };
        bucket.0.push(f64::from(census.wired));
        bucket.1.push(f64::from(census.wireless_total()));
    }
    let stats = |b: &(Vec<f64>, Vec<f64>)| (MeanStd::of(&b.0), MeanStd::of(&b.1));
    Fig8 { developed: stats(&buckets[0]), developing: stats(&buckets[1]) }
}

/// Figure 9: average simultaneously connected wireless stations per band,
/// with standard deviations.
#[derive(Debug, Clone)]
pub struct Fig9 {
    /// 2.4 GHz stations.
    pub ghz24: MeanStd,
    /// 5 GHz stations.
    pub ghz5: MeanStd,
}

/// Compute Figure 9 from the census records in `window`.
pub fn fig9(data: &Datasets, window: Window) -> Fig9 {
    let mut g24 = Vec::new();
    let mut g5 = Vec::new();
    for census in &data.devices {
        if window.contains(census.at) {
            g24.push(f64::from(census.wireless_24));
            g5.push(f64::from(census.wireless_5));
        }
    }
    Fig9 { ghz24: MeanStd::of(&g24), ghz5: MeanStd::of(&g5) }
}

/// Figure 10: CDFs of unique devices per household per band.
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// 2.4 GHz distribution.
    pub ghz24: Cdf,
    /// 5 GHz distribution.
    pub ghz5: Cdf,
}

/// Compute Figure 10 from the homes with association reports in the
/// Devices window and each home's per-band device sets.
pub(crate) fn fig10_from_sets(
    homes: &HashSet<RouterId>,
    per_home: &HashMap<(RouterId, Band), HashSet<AnonMac>>,
) -> Fig10 {
    let collect = |band: Band| {
        Cdf::from_samples(homes.iter().map(|router| {
            per_home.get(&(*router, band)).map_or(0.0, |set| set.len() as f64)
        }))
    };
    Fig10 { ghz24: collect(Band::Ghz24), ghz5: collect(Band::Ghz5) }
}

/// Figure 11: CDFs of unique 2.4 GHz neighbor APs per home, by region.
#[derive(Debug, Clone)]
pub struct Fig11 {
    /// Developed-country distribution.
    pub developed: Cdf,
    /// Developing-country distribution.
    pub developing: Cdf,
}

/// Compute Figure 11 from the homes with 2.4 GHz scans in the WiFi window
/// and each home's set of neighbor BSSIDs.
pub(crate) fn fig11_from_sets(
    idx: &DataIndex,
    scanned: &HashSet<RouterId>,
    per_home: &HashMap<RouterId, HashSet<u64>>,
) -> Fig11 {
    let collect = |region: Region| {
        Cdf::from_samples(
            scanned
                .iter()
                .filter(|router| idx.region(**router) == Some(region))
                .map(|router| per_home.get(router).map_or(0.0, |s| s.len() as f64)),
        )
    };
    Fig11 { developed: collect(Region::Developed), developing: collect(Region::Developing) }
}

/// Figure 12: the vendor histogram over Traffic-home devices that moved at
/// least 100 KB, ranked from per-vendor counts of distinct devices (the
/// vendor comes from an OUI lookup on the anonymized MAC).
pub(crate) fn fig12_from_counts(counts: &HashMap<VendorClass, usize>) -> Vec<(VendorClass, usize)> {
    let mut out: Vec<(VendorClass, usize)> = counts.iter().map(|(&v, &n)| (v, n)).collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    out
}

/// Table 5: households with at least one always-connected wired/wireless
/// device over a five-week stretch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table5Row {
    /// Region.
    pub region: Region,
    /// Total households observed.
    pub total: usize,
    /// Households with an always-connected wired device.
    pub wired: usize,
    /// Households with an always-connected wireless device.
    pub wireless: usize,
}

/// Census count per home within `window` (Table 5's denominator).
pub(crate) fn census_counts(data: &Datasets, window: Window) -> HashMap<RouterId, usize> {
    let mut census_count: HashMap<RouterId, usize> = HashMap::new();
    for census in &data.devices {
        if window.contains(census.at) {
            *census_count.entry(census.router).or_default() += 1;
        }
    }
    census_count
}

/// Compute Table 5 from census counts and per-device presence tallies
/// (association count and last medium within the window): a device
/// counts as always-connected when it appears in at least 99% of the
/// home's censuses within the window (the window approximates the
/// paper's five weeks) and the home has a meaningful number of censuses.
pub(crate) fn table5_from_parts(
    idx: &DataIndex,
    window: Window,
    census_count: &HashMap<RouterId, usize>,
    presence: &HashMap<(RouterId, u32, u32), (usize, Medium)>,
) -> Vec<Table5Row> {
    // A home must have been censused a reasonable number of times.
    let min_censuses =
        (window.duration().as_hours() as usize / 4).max(24);
    let mut wired_homes: HashSet<RouterId> = HashSet::new();
    let mut wireless_homes: HashSet<RouterId> = HashSet::new();
    for ((router, _, _), (count, medium)) in presence {
        let total = census_count.get(router).copied().unwrap_or(0);
        if total < min_censuses {
            continue;
        }
        if *count as f64 >= 0.99 * total as f64 {
            match medium {
                Medium::Wired => {
                    wired_homes.insert(*router);
                }
                _ => {
                    wireless_homes.insert(*router);
                }
            }
        }
    }
    let mut rows = Vec::new();
    for region in [Region::Developed, Region::Developing] {
        let homes: Vec<RouterId> = census_count
            .iter()
            .filter(|(router, count)| {
                **count >= min_censuses && idx.region(**router) == Some(region)
            })
            .map(|(router, _)| *router)
            .collect();
        rows.push(Table5Row {
            region,
            total: homes.len(),
            wired: homes.iter().filter(|h| wired_homes.contains(h)).count(),
            wireless: homes.iter().filter(|h| wireless_homes.contains(h)).count(),
        });
    }
    rows
}

/// §5.2's port-usage aside: the fraction of homes that ever used all four
/// Ethernet ports within the window.
pub fn all_four_ports_fraction(data: &Datasets, window: Window) -> f64 {
    let mut homes: HashSet<RouterId> = HashSet::new();
    let mut full: HashSet<RouterId> = HashSet::new();
    for census in &data.devices {
        if window.contains(census.at) {
            homes.insert(census.router);
            if census.wired >= 4 {
                full.insert(census.router);
            }
        }
    }
    if homes.is_empty() {
        0.0
    } else {
        full.len() as f64 / homes.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{ReportWindows, StudyReport};
    use collector::{Collector, RouterMeta};
    use firmware::records::{AssociationRecord, DeviceCensusRecord, Record};
    use firmware::AnonMac;
    use household::Country;
    use simnet::time::{SimDuration, SimTime};

    fn hours(h: u64) -> SimTime {
        SimTime::EPOCH + SimDuration::from_hours(h)
    }

    fn window(hours_total: u64) -> Window {
        Window { start: SimTime::EPOCH, end: hours(hours_total) }
    }

    fn report(data: &Datasets, hours_total: u64) -> StudyReport {
        StudyReport::compute(data, ReportWindows::spanning(window(hours_total)))
    }

    fn mac(n: u32) -> AnonMac {
        AnonMac { oui: 0x00_17_F2, suffix_hash: n }
    }

    /// Two homes: US home with 3 devices (one always-connected wired),
    /// India home with 2 devices that come and go.
    fn synthetic(total_hours: u64) -> Datasets {
        let collector = Collector::new();
        collector.register(RouterMeta {
            router: RouterId(0),
            country: Country::UnitedStates,
            traffic_consent: false,
        });
        collector.register(RouterMeta {
            router: RouterId(1),
            country: Country::India,
            traffic_consent: false,
        });
        for h in 0..total_hours {
            let at = hours(h);
            // US: always-connected wired NAS + wireless laptop (evening
            // only) + wireless phone (always).
            let evening = h % 24 >= 18;
            let mut us_records = vec![Record::Association(AssociationRecord {
                router: RouterId(0),
                at,
                device: mac(1),
                medium: Medium::Wired,
            })];
            us_records.push(Record::Association(AssociationRecord {
                router: RouterId(0),
                at,
                device: mac(2),
                medium: Medium::Wireless24,
            }));
            if evening {
                us_records.push(Record::Association(AssociationRecord {
                    router: RouterId(0),
                    at,
                    device: mac(3),
                    medium: Medium::Wireless5,
                }));
            }
            let us_wireless = if evening { 2 } else { 1 };
            us_records.push(Record::DeviceCensus(DeviceCensusRecord {
                router: RouterId(0),
                at,
                wired: 1,
                wireless_24: 1,
                wireless_5: us_wireless - 1,
            }));
            collector.ingest_batch(us_records);
            // India: a phone on 2.4 GHz in the evening only.
            let mut in_records = vec![Record::DeviceCensus(DeviceCensusRecord {
                router: RouterId(1),
                at,
                wired: 0,
                wireless_24: u8::from(evening),
                wireless_5: 0,
            })];
            if evening {
                in_records.push(Record::Association(AssociationRecord {
                    router: RouterId(1),
                    at,
                    device: mac(9),
                    medium: Medium::Wireless24,
                }));
            }
            collector.ingest_batch(in_records);
        }
        collector.snapshot()
    }

    #[test]
    fn fig7_unique_devices() {
        let data = synthetic(48);
        let cdf = report(&data, 48).fig7;
        assert_eq!(cdf.len(), 2);
        // US home saw 3 distinct devices, India 1.
        assert_eq!(cdf.quantile(1.0), 3.0);
        assert_eq!(cdf.quantile(0.0), 1.0);
    }

    #[test]
    fn fig8_region_split() {
        let data = synthetic(48);
        let fig = report(&data, 48).fig8;
        assert!(fig.developed.0.mean > fig.developing.0.mean, "US has more wired");
        assert!(fig.developed.1.mean > fig.developing.1.mean);
        assert!(fig.developing.1.std > 0.0, "evening-only presence has variance");
    }

    #[test]
    fn fig9_band_split() {
        let data = synthetic(48);
        let fig = report(&data, 48).fig9;
        assert!(fig.ghz24.mean > fig.ghz5.mean);
    }

    #[test]
    fn fig10_per_band_uniques() {
        let data = synthetic(48);
        let fig = report(&data, 48).fig10;
        // Homes: US (one 2.4 device, one 5 GHz device), India (one 2.4).
        assert_eq!(fig.ghz24.len(), 2);
        assert_eq!(fig.ghz24.quantile(1.0), 1.0);
        assert_eq!(fig.ghz5.quantile(1.0), 1.0);
        assert_eq!(fig.ghz5.quantile(0.0), 0.0, "India saw nothing on 5 GHz");
    }

    #[test]
    fn table5_always_connected() {
        let data = synthetic(24 * 8);
        let rows = report(&data, 24 * 8).table5;
        let developed = rows.iter().find(|r| r.region == Region::Developed).unwrap();
        let developing = rows.iter().find(|r| r.region == Region::Developing).unwrap();
        assert_eq!(developed.total, 1);
        assert_eq!(developed.wired, 1, "the NAS never disconnects");
        assert_eq!(developed.wireless, 1, "the phone never disconnects");
        assert_eq!(developing.wired, 0);
        assert_eq!(developing.wireless, 0, "evening-only phone is not always-connected");
    }

    #[test]
    fn four_port_fraction() {
        let data = synthetic(48);
        assert_eq!(all_four_ports_fraction(&data, window(48)), 0.0);
    }

    #[test]
    fn fig12_counts_vendors_above_threshold() {
        let collector = Collector::new();
        collector.register(RouterMeta {
            router: RouterId(0),
            country: Country::UnitedStates,
            traffic_consent: true,
        });
        let mk = |oui: u32, nic: u32, bytes: u64| {
            Record::MacSighting(firmware::records::MacSightingRecord {
                router: RouterId(0),
                first_seen: SimTime::EPOCH,
                device: AnonMac { oui, suffix_hash: nic },
                bytes_total: bytes,
            })
        };
        collector.ingest_batch(vec![
            mk(VendorClass::Apple.oui(), 1, 500_000),
            mk(VendorClass::Apple.oui(), 2, 500_000),
            mk(VendorClass::Intel.oui(), 3, 500_000),
            mk(VendorClass::Samsung.oui(), 4, 10_000), // below 100 KB: dropped
            mk(0x12_34_56, 5, 500_000),                // unknown OUI: dropped
        ]);
        let hist = report(&collector.snapshot(), 1).fig12;
        assert_eq!(hist[0], (VendorClass::Apple, 2));
        assert_eq!(hist[1], (VendorClass::Intel, 1));
        assert_eq!(hist.len(), 2);
    }
}
