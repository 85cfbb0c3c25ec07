//! The paper's tables: the static deployment tables (1 and 2) and the
//! computed highlight tables (3, 4, and 6), each expressed as data the
//! renderer can print and tests can assert on.

use crate::availability::{self, RouterAvailability};
use crate::infrastructure;
use crate::usage;
use collector::windows::Window;
use collector::Datasets;
use firmware::records::RouterId;
use household::{Country, Region};
use simnet::time::SimDuration;

/// Table 1: the country classification with router counts.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Country.
    pub country: Country,
    /// Developed/developing.
    pub region: Region,
    /// Routers deployed (from registration metadata).
    pub routers: usize,
}

/// Compute Table 1 from the collector's registration metadata.
pub fn table1(data: &Datasets) -> Vec<Table1Row> {
    Country::ALL
        .iter()
        .map(|&country| Table1Row {
            country,
            region: country.region(),
            routers: data.routers.iter().filter(|m| m.country == country).count(),
        })
        .filter(|row| row.routers > 0)
        .collect()
}

/// Table 2: data-set summary — routers and countries contributing to each
/// set within its window.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Data-set name.
    pub dataset: &'static str,
    /// Routers contributing at least one record.
    pub routers: usize,
    /// Countries contributing.
    pub countries: usize,
    /// The collection window.
    pub window: Window,
}

/// One Table 2 row from the routers contributing to the data set within
/// its window, ascending and each named once: one walk beside the
/// registration list, which is sorted the same way, finds their
/// countries.
pub(crate) fn table2_row(
    data: &Datasets,
    dataset: &'static str,
    window: Window,
    routers: impl IntoIterator<Item = RouterId>,
) -> Table2Row {
    let mut registered = data.routers.iter().peekable();
    let mut count = 0;
    let mut countries = Vec::new();
    for router in routers {
        count += 1;
        while registered.next_if(|meta| meta.router < router).is_some() {}
        if let Some(meta) = registered.peek().filter(|meta| meta.router == router) {
            countries.push(meta.country);
        }
    }
    countries.sort_unstable();
    countries.dedup();
    Table2Row { dataset, routers: count, countries: countries.len(), window }
}

/// Table 3: §4's highlight numbers.
#[derive(Debug, Clone, Copy)]
pub struct Table3 {
    /// Median time between downtimes, developed countries.
    pub developed_median_time_between: SimDuration,
    /// Median time between downtimes, developing countries.
    pub developing_median_time_between: SimDuration,
    /// ISO codes of the two countries with the most frequent downtime.
    pub worst_two: [&'static str; 2],
    /// Whether at least one home shows appliance-style power cycling
    /// (coverage under 40% with many distinct on-periods).
    pub appliance_mode_observed: bool,
}

/// Compute Table 3 from the per-router availability.
pub fn table3(routers: &[RouterAvailability]) -> Table3 {
    let med_gap = |region: Region| {
        let rates: Vec<f64> = routers
            .iter()
            .filter(|r| r.region == region)
            .map(|r| r.downtimes_per_day)
            .collect();
        let med_rate = crate::stats::median(&rates);
        if med_rate <= 0.0 {
            // No downtime at the median: report the observation span as a
            // lower bound (the paper reports "more than a month").
            SimDuration::from_days(365)
        } else {
            SimDuration::from_secs_f64(86_400.0 / med_rate)
        }
    };
    let points = availability::fig5(routers);
    let mut worst: Vec<&availability::Fig5Point> = points.iter().collect();
    worst.sort_by(|a, b| {
        b.median_downtimes.partial_cmp(&a.median_downtimes).expect("finite medians")
    });
    let worst_two = match worst.as_slice() {
        [a, b, ..] => [a.code, b.code],
        [a] => [a.code, a.code],
        [] => ["--", "--"],
    };
    let appliance_mode_observed =
        routers.iter().any(|r| r.coverage < 0.4 && r.downtimes.len() > 10);
    Table3 {
        developed_median_time_between: med_gap(Region::Developed),
        developing_median_time_between: med_gap(Region::Developing),
        worst_two,
        appliance_mode_observed,
    }
}

/// Table 4: §5's highlight numbers.
#[derive(Debug, Clone, Copy)]
pub struct Table4 {
    /// Fraction of developed homes with an always-on wired device.
    pub developed_always_on_wired: f64,
    /// Fraction of developing homes with an always-on wired device.
    pub developing_always_on_wired: f64,
    /// Median unique devices on 2.4 GHz.
    pub median_devices_24: f64,
    /// Median unique devices on 5 GHz.
    pub median_devices_5: f64,
    /// Median visible APs, developed homes.
    pub median_aps_developed: f64,
    /// Median visible APs, developing homes.
    pub median_aps_developing: f64,
}

/// Compute Table 4 from the figures it summarizes: Table 5 and Figures
/// 10/11.
pub fn table4_from(
    table5: &[infrastructure::Table5Row],
    fig10: &infrastructure::Fig10,
    fig11: &infrastructure::Fig11,
) -> Table4 {
    let frac = |region: Region| {
        table5
            .iter()
            .find(|row| row.region == region)
            .map_or(0.0, |row| {
                if row.total == 0 {
                    0.0
                } else {
                    row.wired as f64 / row.total as f64
                }
            })
    };
    let safe_median = |cdf: &crate::stats::Cdf| if cdf.is_empty() { 0.0 } else { cdf.median() };
    Table4 {
        developed_always_on_wired: frac(Region::Developed),
        developing_always_on_wired: frac(Region::Developing),
        median_devices_24: safe_median(&fig10.ghz24),
        median_devices_5: safe_median(&fig10.ghz5),
        median_aps_developed: safe_median(&fig11.developed),
        median_aps_developing: safe_median(&fig11.developing),
    }
}

/// Table 6: §6's highlight numbers.
#[derive(Debug, Clone, Copy)]
pub struct Table6 {
    /// Weekday diurnal spread vs weekend (Fig 13 summary).
    pub weekday_spread: f64,
    /// Weekend spread.
    pub weekend_spread: f64,
    /// Number of homes whose p95 uplink utilization exceeds capacity.
    pub oversaturating_homes: usize,
    /// Mean share of home traffic from the single heaviest device.
    pub dominant_device_share: f64,
    /// Mean share of home volume from the top domain.
    pub top_domain_volume_share: f64,
    /// Mean share of home connections from the top-by-volume domain.
    pub top_domain_connection_share: f64,
    /// Mean fraction of bytes to whitelisted domains.
    pub whitelisted_byte_fraction: f64,
}

/// Compute Table 6 from the figures it summarizes. Only each figure's
/// rank-1 entries are read, so any `max_rank >= 1` Figure 19 works.
pub fn table6_from(
    fig13: &usage::Fig13,
    fig15: &[usage::Fig15Point],
    fig17: &usage::Fig17,
    fig19: &usage::Fig19,
) -> Table6 {
    Table6 {
        weekday_spread: usage::Fig13::spread(&fig13.weekday),
        weekend_spread: usage::Fig13::spread(&fig13.weekend),
        oversaturating_homes: fig15.iter().filter(|p| p.up_utilization > 1.0).count(),
        dominant_device_share: fig17.mean_top_share,
        top_domain_volume_share: fig19.volume_share_by_rank.first().copied().unwrap_or(0.0),
        top_domain_connection_share: fig19
            .connections_of_volume_rank
            .first()
            .copied()
            .unwrap_or(0.0),
        whitelisted_byte_fraction: fig19.whitelisted_byte_fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collector::{Collector, RouterMeta};
    use firmware::records::{HeartbeatRecord, RouterId};
    use simnet::time::SimTime;

    fn mins(m: u64) -> SimTime {
        SimTime::EPOCH + SimDuration::from_mins(m)
    }

    #[test]
    fn table1_counts_registrations() {
        let collector = Collector::new();
        for (i, country) in [Country::UnitedStates, Country::UnitedStates, Country::India]
            .iter()
            .enumerate()
        {
            collector.register(RouterMeta {
                router: RouterId(i as u32),
                country: *country,
                traffic_consent: false,
            });
        }
        let rows = table1(&collector.drain_delta());
        assert_eq!(rows.len(), 2);
        let us = rows.iter().find(|r| r.country == Country::UnitedStates).unwrap();
        assert_eq!(us.routers, 2);
        assert_eq!(us.region, Region::Developed);
    }

    #[test]
    fn table3_reports_gap_medians() {
        // Two developed routers with no downtime, two developing with many.
        let collector = Collector::new();
        for i in 0..4u32 {
            collector.register(RouterMeta {
                router: RouterId(i),
                country: if i < 2 { Country::UnitedStates } else { Country::Pakistan },
                traffic_consent: false,
            });
        }
        let total = 20 * 24 * 60;
        for m in 0..total {
            for i in 0..2u32 {
                collector.ingest_heartbeat(HeartbeatRecord { router: RouterId(i), at: mins(m) });
            }
            if m % 720 >= 15 {
                for i in 2..4u32 {
                    collector
                        .ingest_heartbeat(HeartbeatRecord { router: RouterId(i), at: mins(m) });
                }
            }
        }
        let data = collector.drain_delta();
        let window = Window { start: SimTime::EPOCH, end: mins(total) };
        let routers = availability::per_router(&data, window);
        let t3 = table3(&routers);
        assert!(t3.developed_median_time_between > SimDuration::from_days(19));
        assert!(t3.developing_median_time_between < SimDuration::from_hours(13));
    }
}
