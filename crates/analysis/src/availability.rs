//! §4 — Availability: downtime frequency and duration from the Heartbeats
//! data set, exactly as the paper defines them: a *downtime* is a gap of
//! ten minutes or more in a router's heartbeat log.

use crate::stats::Cdf;
use collector::windows::Window;
use collector::Datasets;
use firmware::records::RouterId;
use household::{Country, Region};
use simnet::time::{SimDuration, SimTime};

/// The paper's downtime threshold.
pub const DOWNTIME_THRESHOLD: SimDuration = SimDuration::from_mins(10);
/// Minimum observed fraction of the window for a router to be analyzed
/// (the paper required ≥ 25 days of the ~197-day window).
pub const MIN_OBSERVED_FRACTION: f64 = 25.0 / 197.0;

/// Per-router downtime summary.
#[derive(Debug, Clone)]
pub struct RouterAvailability {
    /// The router.
    pub router: RouterId,
    /// Its country.
    pub country: Country,
    /// Developed or developing.
    pub region: Region,
    /// Observation span: first to last heartbeat within the window.
    pub observed: SimDuration,
    /// Downtime events (gaps ≥ 10 min) within the observation span.
    pub downtimes: Vec<(SimTime, SimTime)>,
    /// Average downtimes per observed day.
    pub downtimes_per_day: f64,
    /// Fraction of the observation span covered by heartbeats (§4.2's
    /// "router on X% of the time").
    pub coverage: f64,
}

impl RouterAvailability {
    /// Downtime durations in seconds.
    pub fn durations_secs(&self) -> impl Iterator<Item = f64> + '_ {
        self.downtimes.iter().map(|(s, e)| e.since(*s).as_secs_f64())
    }
}

/// Compute per-router availability over `window`, applying the paper's
/// minimum-observation filter.
pub fn per_router(data: &Datasets, window: Window) -> Vec<RouterAvailability> {
    let mut out = Vec::new();
    for meta in &data.routers {
        let Some(log) = data.heartbeats.get(&meta.router) else {
            continue;
        };
        let Some((first, last)) = log.extent() else {
            continue;
        };
        let start = first.max(window.start);
        let end = last.min(window.end);
        if end <= start {
            continue;
        }
        let observed = end.since(start);
        if observed.as_secs_f64() < window.duration().as_secs_f64() * MIN_OBSERVED_FRACTION {
            continue;
        }
        let downtimes = log.downtimes(start, end, DOWNTIME_THRESHOLD);
        let days = observed.as_days_f64();
        out.push(RouterAvailability {
            router: meta.router,
            country: meta.country,
            region: meta.country.region(),
            observed,
            downtimes_per_day: downtimes.len() as f64 / days,
            coverage: log.coverage(start, end),
            downtimes,
        });
    }
    out
}

/// Figure 3: CDFs of average downtimes per day, by region.
#[derive(Debug, Clone)]
pub struct Fig3 {
    /// Developed-country distribution.
    pub developed: Cdf,
    /// Developing-country distribution.
    pub developing: Cdf,
}

/// Compute Figure 3.
pub fn fig3(routers: &[RouterAvailability]) -> Fig3 {
    let split = |region: Region| {
        Cdf::from_samples(
            routers.iter().filter(|r| r.region == region).map(|r| r.downtimes_per_day),
        )
    };
    Fig3 { developed: split(Region::Developed), developing: split(Region::Developing) }
}

/// Figure 4: CDFs of downtime duration (seconds), by region.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// Developed-country distribution.
    pub developed: Cdf,
    /// Developing-country distribution.
    pub developing: Cdf,
}

/// Compute Figure 4.
pub fn fig4(routers: &[RouterAvailability]) -> Fig4 {
    let split = |region: Region| {
        Cdf::from_samples(
            routers
                .iter()
                .filter(|r| r.region == region)
                .flat_map(|r| r.durations_secs().collect::<Vec<_>>()),
        )
    };
    Fig4 { developed: split(Region::Developed), developing: split(Region::Developing) }
}

/// One country's point in Figure 5's scatter.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Point {
    /// ISO code, as the paper labels markers.
    pub code: &'static str,
    /// Per-capita GDP (PPP, international dollars).
    pub gdp: u32,
    /// Median over the country's routers of the number of downtimes.
    pub median_downtimes: f64,
    /// Median downtime duration in seconds (marker size in the paper).
    pub median_duration_secs: f64,
    /// Routers contributing.
    pub routers: usize,
    /// Region (the paper draws a dividing line).
    pub region: Region,
}

/// Figure 5: median downtime count vs per-capita GDP, for countries with
/// at least three analyzable routers.
pub fn fig5(routers: &[RouterAvailability]) -> Vec<Fig5Point> {
    let mut points = Vec::new();
    for country in Country::ALL {
        let group: Vec<&RouterAvailability> =
            routers.iter().filter(|r| r.country == country).collect();
        if group.len() < 3 {
            continue;
        }
        let counts: Vec<f64> = group.iter().map(|r| r.downtimes.len() as f64).collect();
        let durations: Vec<f64> =
            group.iter().flat_map(|r| r.durations_secs().collect::<Vec<_>>()).collect();
        points.push(Fig5Point {
            code: country.code(),
            gdp: country.gdp_ppp_per_capita(),
            median_downtimes: crate::stats::median(&counts),
            median_duration_secs: crate::stats::median(&durations),
            routers: group.len(),
            region: country.region(),
        });
    }
    points.sort_by_key(|p| p.gdp);
    points
}

/// Figure 6: an availability timeline for one router — the intervals when
/// heartbeats were arriving, for rendering as the paper's green bars.
pub fn fig6_timeline(data: &Datasets, router: RouterId, window: Window) -> Vec<(SimTime, SimTime)> {
    let Some(log) = data.heartbeats.get(&router) else {
        return Vec::new();
    };
    log.runs()
        .iter()
        .filter(|r| r.last > window.start && r.first < window.end)
        .map(|r| (r.first.max(window.start), r.last.min(window.end)))
        .collect()
}

/// Pick the three archetype homes of Figure 6 from the data alone:
/// (a) an always-on home (highest coverage), (b) an appliance-mode home
/// (lowest coverage with many distinct runs), (c) a flaky-connectivity
/// home (mid coverage, many downtimes, but whose Uptime reports prove the
/// router stayed powered). The flaky-home check reads each candidate's
/// own uptime rows instead of re-scanning the table.
pub fn fig6_archetypes(
    data: &Datasets,
    routers: &[RouterAvailability],
) -> (Option<RouterId>, Option<RouterId>, Option<RouterId>) {
    let always_on = routers
        .iter()
        .max_by(|a, b| a.coverage.partial_cmp(&b.coverage).expect("finite"))
        .map(|r| r.router);
    let appliance = routers
        .iter()
        .filter(|r| r.coverage < 0.6 && r.downtimes.len() > 10)
        .min_by(|a, b| a.coverage.partial_cmp(&b.coverage).expect("finite"))
        .map(|r| r.router);
    // Flaky: many downtimes yet the router reports long uptimes (powered
    // through the outages).
    let flaky = routers
        .iter()
        .filter(|r| r.downtimes_per_day > 0.2 && r.coverage > 0.6)
        .filter(|r| data.uptime.router(r.router).any(|u| u.uptime > SimDuration::from_days(7)))
        .max_by(|a, b| {
            a.downtimes_per_day.partial_cmp(&b.downtimes_per_day).expect("finite")
        })
        .map(|r| r.router);
    (always_on, appliance, flaky)
}

/// §4.2's coverage-by-country medians (e.g. "the median US user has his
/// router on 98.25% of the time").
pub fn median_coverage_by_country(routers: &[RouterAvailability]) -> Vec<(Country, f64, usize)> {
    let mut out = Vec::new();
    for country in Country::ALL {
        let cov: Vec<f64> =
            routers.iter().filter(|r| r.country == country).map(|r| r.coverage).collect();
        if !cov.is_empty() {
            out.push((country, crate::stats::median(&cov), cov.len()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use collector::{Collector, RouterMeta};
    use firmware::records::HeartbeatRecord;

    fn mins(m: u64) -> SimTime {
        SimTime::EPOCH + SimDuration::from_mins(m)
    }

    /// Build a small synthetic dataset: router 0 (US) with one 30-minute
    /// gap; router 1 (IN) with gaps every few hours.
    fn synthetic() -> Datasets {
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
        let total_mins = 10 * 24 * 60;
        for i in 0..total_mins {
            // US: continuous except minutes 1000..1030.
            if !(1_000..1_030).contains(&i) {
                collector
                    .ingest_heartbeat(HeartbeatRecord { router: RouterId(0), at: mins(i) });
            }
            // India: 20-minute outage at the top of every 6 hours.
            if i % 360 >= 20 {
                collector
                    .ingest_heartbeat(HeartbeatRecord { router: RouterId(1), at: mins(i) });
            }
        }
        collector.drain_delta()
    }

    fn window() -> Window {
        Window { start: SimTime::EPOCH, end: mins(10 * 24 * 60) }
    }

    #[test]
    fn downtime_counting() {
        let data = synthetic();
        let routers = per_router(&data, window());
        assert_eq!(routers.len(), 2);
        let us = routers.iter().find(|r| r.country == Country::UnitedStates).unwrap();
        let india = routers.iter().find(|r| r.country == Country::India).unwrap();
        assert_eq!(us.downtimes.len(), 1);
        assert_eq!(india.downtimes.len(), 10 * 4 - 1, "one 20-min gap per 6h, minus the leading one");
        assert!(us.coverage > india.coverage);
        assert!(india.downtimes_per_day > 3.0);
        assert!(us.downtimes_per_day < 0.2);
    }

    #[test]
    fn fig3_separates_regions() {
        let data = synthetic();
        let routers = per_router(&data, window());
        let fig = fig3(&routers);
        assert!(fig.developing.median() > 10.0 * fig.developed.median().max(0.01));
    }

    #[test]
    fn fig4_durations() {
        let data = synthetic();
        let routers = per_router(&data, window());
        let fig = fig4(&routers);
        // US gap: 30 minutes plus the heartbeat spacing on each side.
        assert!((fig.developed.median() - 30.0 * 60.0).abs() < 120.0);
        assert!((fig.developing.median() - 20.0 * 60.0).abs() < 120.0);
    }

    #[test]
    fn fig5_requires_three_routers() {
        let data = synthetic();
        let routers = per_router(&data, window());
        assert!(fig5(&routers).is_empty(), "no country reaches three routers");
    }

    #[test]
    fn short_lived_routers_filtered() {
        let collector = Collector::new();
        collector.register(RouterMeta {
            router: RouterId(5),
            country: Country::Brazil,
            traffic_consent: false,
        });
        // Only 10 minutes of heartbeats in a 10-day window.
        for i in 0..10 {
            collector.ingest_heartbeat(HeartbeatRecord { router: RouterId(5), at: mins(i) });
        }
        let data = collector.drain_delta();
        assert!(per_router(&data, window()).is_empty());
    }

    #[test]
    fn timeline_matches_runs() {
        let data = synthetic();
        let tl = fig6_timeline(&data, RouterId(0), window());
        assert_eq!(tl.len(), 2, "one gap splits the timeline in two");
        assert_eq!(tl[0].0, mins(0));
        assert_eq!(tl[1].0, mins(1_030));
    }

    #[test]
    fn coverage_by_country_ordering() {
        let data = synthetic();
        let routers = per_router(&data, window());
        let cov = median_coverage_by_country(&routers);
        let us = cov.iter().find(|(c, ..)| *c == Country::UnitedStates).unwrap().1;
        let india = cov.iter().find(|(c, ..)| *c == Country::India).unwrap().1;
        assert!(us > 0.99);
        assert!(india < 0.96);
    }
}
