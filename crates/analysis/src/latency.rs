//! Latency analysis over the platform's companion RTT data set: per-region
//! baseline RTTs and the bufferbloat signature (how far loaded RTTs stretch
//! above the idle baseline). Not a figure in the IMC'13 paper — it belongs
//! to the platform's companion performance study — but it closes the loop
//! on the §6.2 bufferbloat discussion with direct evidence.

use crate::index::DataIndex;
use crate::stats::{median, Cdf};
use collector::windows::Window;
use collector::Datasets;
use firmware::records::RouterId;
use household::Region;

/// Per-region latency summary.
#[derive(Debug, Clone, Copy)]
pub struct RegionLatency {
    /// The region.
    pub region: Region,
    /// Median of per-home median RTTs, in milliseconds.
    pub median_rtt_ms: f64,
    /// Median of per-home *maximum* RTTs, in milliseconds — the bufferbloat
    /// signal (pings queued behind bulk uploads).
    pub median_peak_rtt_ms: f64,
    /// Homes contributing.
    pub homes: usize,
}

/// Summarize latency per region over `window`: one pass over each
/// registered router's latency slice, holding one router's samples at a
/// time. Every aggregate is a median, which sorts its inputs, so the
/// result depends only on the per-home sample multisets.
pub(crate) fn by_region_with(idx: &DataIndex, window: Window) -> Vec<RegionLatency> {
    // Per region: each home's median RTT and median peak RTT.
    let mut homes: [(Vec<f64>, Vec<f64>); 2] = Default::default();
    let mut med = Vec::new();
    let mut max = Vec::new();
    for meta in idx.routers() {
        med.clear();
        max.clear();
        for rec in idx.latency(meta.router) {
            if window.contains(rec.at) {
                med.push(rec.rtt_median.as_secs_f64() * 1e3);
                max.push(rec.rtt_max.as_secs_f64() * 1e3);
            }
        }
        if med.is_empty() {
            continue;
        }
        let bucket = match meta.country.region() {
            Region::Developed => &mut homes[0],
            Region::Developing => &mut homes[1],
        };
        bucket.0.push(median(&med));
        bucket.1.push(median(&max));
    }
    [Region::Developed, Region::Developing]
        .into_iter()
        .zip(homes)
        .map(|(region, (medians, peaks))| RegionLatency {
            region,
            median_rtt_ms: median(&medians),
            median_peak_rtt_ms: median(&peaks),
            homes: medians.len(),
        })
        .collect()
}

/// The bufferbloat stretch for one home: ratio of its p95 max-RTT to its
/// median RTT. Values well above 1 indicate pings regularly queueing
/// behind bulk traffic.
pub fn bloat_stretch(data: &Datasets, window: Window, router: RouterId) -> Option<f64> {
    let medians: Vec<f64> = data
        .latency
        .iter()
        .filter(|r| r.router == router && window.contains(r.at))
        .map(|r| r.rtt_median.as_secs_f64())
        .collect();
    let maxes: Vec<f64> = data
        .latency
        .iter()
        .filter(|r| r.router == router && window.contains(r.at))
        .map(|r| r.rtt_max.as_secs_f64())
        .collect();
    if medians.len() < 10 {
        return None;
    }
    let base = median(&medians);
    let p95_max = Cdf::from_samples(maxes).quantile(0.95);
    (base > 0.0).then(|| p95_max / base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{ReportWindows, StudyReport};
    use collector::{Collector, RouterMeta};
    use firmware::latency::LatencyRecord;
    use firmware::records::Record;
    use household::Country;
    use simnet::time::{SimDuration, SimTime};

    fn t(h: u64) -> SimTime {
        SimTime::EPOCH + SimDuration::from_hours(h)
    }

    fn rec(router: u32, at: SimTime, med_ms: u64, max_ms: u64) -> Record {
        Record::Latency(LatencyRecord {
            router: RouterId(router),
            at,
            rtt_min: SimDuration::from_millis(med_ms / 2),
            rtt_median: SimDuration::from_millis(med_ms),
            rtt_max: SimDuration::from_millis(max_ms),
            lost: 0,
        })
    }

    #[test]
    fn region_split_and_bloat() {
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
        for h in 0..48 {
            collector.ingest(rec(0, t(h), 45, if h % 6 == 0 { 900 } else { 50 }));
            collector.ingest(rec(1, t(h), 120, 150));
        }
        let data = collector.snapshot();
        let window = Window { start: t(0), end: t(48) };
        let regions = StudyReport::compute(&data, ReportWindows::spanning(window)).latency;
        let developed = regions.iter().find(|r| r.region == Region::Developed).unwrap();
        let developing = regions.iter().find(|r| r.region == Region::Developing).unwrap();
        assert!(developing.median_rtt_ms > developed.median_rtt_ms);
        assert_eq!(developed.homes, 1);
        // Home 0 shows a heavy bufferbloat stretch; home 1 does not.
        let s0 = bloat_stretch(&data, window, RouterId(0)).unwrap();
        let s1 = bloat_stretch(&data, window, RouterId(1)).unwrap();
        assert!(s0 > 10.0, "stretch {s0}");
        assert!(s1 < 2.0, "stretch {s1}");
    }

    #[test]
    fn too_few_samples_yield_none() {
        let collector = Collector::new();
        collector.register(RouterMeta {
            router: RouterId(0),
            country: Country::UnitedStates,
            traffic_consent: false,
        });
        collector.ingest(rec(0, t(0), 40, 50));
        let data = collector.snapshot();
        assert!(bloat_stretch(&data, Window { start: t(0), end: t(10) }, RouterId(0)).is_none());
    }
}
