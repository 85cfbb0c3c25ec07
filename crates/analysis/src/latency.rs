//! Latency analysis over the platform's companion RTT data set: per-region
//! baseline RTTs and the bufferbloat signature (how far loaded RTTs stretch
//! above the idle baseline). Not a figure in the IMC'13 paper — it belongs
//! to the platform's companion performance study — but it closes the loop
//! on the §6.2 bufferbloat discussion with direct evidence.

use crate::stats::{median, sorted_quantile, Cdf};
use collector::windows::Window;
use collector::{Datasets, RouterMeta};
use firmware::latency::LatencyRecord;
use firmware::records::RouterId;
use household::Region;
use std::collections::HashMap;

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

/// One home's latency samples, in milliseconds: its probes' RTT medians
/// and RTT maxima, each kept as one ascending run so a median is a read,
/// not a sort. 16 bytes per probe.
#[derive(Debug, Default)]
pub(crate) struct RttSamples {
    median_ms: Vec<f64>,
    max_ms: Vec<f64>,
}

impl RttSamples {
    /// Append one probe's samples. Call [`RttSamples::restore_order`]
    /// once a delta's probes are all in.
    pub(crate) fn push(&mut self, probe: &LatencyRecord) {
        self.median_ms.push(probe.rtt_median.as_secs_f64() * 1e3);
        self.max_ms.push(probe.rtt_max.as_secs_f64() * 1e3);
    }

    /// Re-sort both runs after a batch of pushes. The stable sort finds
    /// the sorted prefix as one run, so `k` new samples behind `n` sorted
    /// ones cost about `n + k log k`.
    pub(crate) fn restore_order(&mut self) {
        self.median_ms.sort_by(f64::total_cmp);
        self.max_ms.sort_by(f64::total_cmp);
    }
}

/// Summarize latency per region from each registered home's samples, in
/// registration (router) order. Every aggregate is a median of sorted
/// inputs, so the result depends only on the per-home sample multisets.
pub(crate) fn by_region(
    routers: &[RouterMeta],
    samples: &HashMap<RouterId, RttSamples>,
) -> Vec<RegionLatency> {
    // Per region: each home's median RTT and median peak RTT.
    let mut homes: [(Vec<f64>, Vec<f64>); 2] = Default::default();
    for meta in routers {
        // A home has an entry only once a probe was pushed.
        let Some(home) = samples.get(&meta.router) else { continue };
        let bucket = match meta.country.region() {
            Region::Developed => &mut homes[0],
            Region::Developing => &mut homes[1],
        };
        bucket.0.push(sorted_quantile(&home.median_ms, 0.5));
        bucket.1.push(sorted_quantile(&home.max_ms, 0.5));
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
