//! Latency analysis over the platform's companion RTT data set: per-region
//! baseline RTTs and the bufferbloat signature (how far loaded RTTs stretch
//! above the idle baseline). Not a figure in the IMC'13 paper — it belongs
//! to the platform's companion performance study — but it closes the loop
//! on the §6.2 bufferbloat discussion with direct evidence.

use crate::runs::merge_samples;
use crate::stats::{median, quantile_of, Cdf};
use collector::windows::Window;
use collector::{Datasets, RouterMeta};
use firmware::records::RouterId;
use household::Region;
use simnet::time::SimDuration;

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

/// One home's latency samples: its probes' RTT medians and RTT maxima
/// in microseconds, each kept as one ascending run so a median is a read,
/// not a sort. Integer microseconds sort faster than float milliseconds
/// and convert to them in the same order, so a run's median is the median
/// of the home's millisecond samples. 16 bytes per probe.
#[derive(Debug, Default)]
pub(crate) struct RttSamples {
    median_us: Vec<u64>,
    max_us: Vec<u64>,
}

impl RttSamples {
    /// Fold one delta's samples of this home in: sort the new medians and
    /// maxima alone, then merge each into its held run.
    pub(crate) fn merge(&mut self, medians: &mut [u64], maxima: &mut [u64]) {
        medians.sort_unstable();
        maxima.sort_unstable();
        merge_samples(&mut self.median_us, medians);
        merge_samples(&mut self.max_us, maxima);
    }

    /// True until a probe has been folded in.
    pub(crate) fn is_empty(&self) -> bool {
        self.median_us.is_empty()
    }

    /// The median of one run, in milliseconds.
    fn median_ms(run: &[u64]) -> f64 {
        quantile_of(run.len(), 0.5, |i| SimDuration::from_micros(run[i]).as_secs_f64() * 1e3)
    }
}

/// Summarize latency per region from each registered home's samples, in
/// registration (router) order. `samples` yields a home's samples, if it
/// has any. Every aggregate is a median of sorted inputs, so the result
/// depends only on the per-home sample multisets.
pub(crate) fn by_region<'a>(
    routers: &[RouterMeta],
    samples: impl Fn(RouterId) -> Option<&'a RttSamples>,
) -> Vec<RegionLatency> {
    // Per region: each home's median RTT and median peak RTT.
    let mut homes: [(Vec<f64>, Vec<f64>); 2] = Default::default();
    for meta in routers {
        let Some(home) = samples(meta.router).filter(|home| !home.is_empty()) else { continue };
        let bucket = match meta.country.region() {
            Region::Developed => &mut homes[0],
            Region::Developing => &mut homes[1],
        };
        bucket.0.push(RttSamples::median_ms(&home.median_us));
        bucket.1.push(RttSamples::median_ms(&home.max_us));
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
        let data = collector.drain_delta();
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
        let data = collector.drain_delta();
        assert!(bloat_stretch(&data, Window { start: t(0), end: t(10) }, RouterId(0)).is_none());
    }
}
