//! Usage-cap management — the uCap tool the BISmark firmware shipped
//! (the paper's reference \[24\], "Communicating with caps: managing usage
//! caps in home networks") as a library feature.
//!
//! Given the Traffic data set, a plan cap, and a billing window, the
//! manager replays the flow timeline per home: cumulative usage, the
//! per-device breakdown users saw in the router's web UI, and the alert
//! instants at which usage crossed the plan's thresholds.

use collector::windows::Window;
use collector::Datasets;
use firmware::anonymize::AnonMac;
use firmware::records::RouterId;
use simnet::time::SimTime;
use std::collections::HashMap;

/// Default alert thresholds, as fractions of the cap.
pub const DEFAULT_THRESHOLDS: [f64; 3] = [0.5, 0.9, 1.0];

/// A billing plan.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Cap over the billing window, in bytes.
    pub cap_bytes: u64,
    /// Alert thresholds as fractions of the cap, ascending.
    pub thresholds: [f64; 3],
}

impl Plan {
    /// A monthly plan prorated to an arbitrary window.
    pub fn monthly(cap_bytes_per_month: u64, window: Window) -> Plan {
        let days = window.duration().as_days_f64();
        Plan {
            cap_bytes: (cap_bytes_per_month as f64 * days / 30.0) as u64,
            thresholds: DEFAULT_THRESHOLDS,
        }
    }
}

/// One fired alert.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alert {
    /// The threshold crossed (fraction of cap).
    pub threshold: f64,
    /// When the crossing flow completed.
    pub at: SimTime,
    /// Cumulative bytes at that instant.
    pub usage_bytes: u64,
}

/// One home's cap accounting.
#[derive(Debug, Clone)]
pub struct HomeUsage {
    /// The home.
    pub router: RouterId,
    /// Total bytes in the window.
    pub total_bytes: u64,
    /// Per-device bytes, descending.
    pub per_device: Vec<(AnonMac, u64)>,
    /// Alerts fired, in threshold order.
    pub alerts: Vec<Alert>,
}

impl HomeUsage {
    /// Fraction of the cap consumed.
    pub fn cap_fraction(&self, plan: &Plan) -> f64 {
        self.total_bytes as f64 / plan.cap_bytes.max(1) as f64
    }

    /// Whether the plan was exhausted.
    pub fn exhausted(&self, plan: &Plan) -> bool {
        self.total_bytes >= plan.cap_bytes
    }
}

/// Replay the Traffic flows of every consenting home against `plan`.
/// Homes are returned in descending usage order.
pub fn account(data: &Datasets, window: Window, plan: &Plan) -> Vec<HomeUsage> {
    let mut totals: HashMap<RouterId, u64> = HashMap::new();
    let mut devices: HashMap<(RouterId, AnonMac), u64> = HashMap::new();
    let mut alerts: HashMap<RouterId, Vec<Alert>> = HashMap::new();
    // Flows in a snapshot are sorted by (router, ended), so a running total
    // per router replays the billing timeline faithfully.
    for flow in &data.flows {
        if !window.contains(flow.ended) {
            continue;
        }
        let total = totals.entry(flow.router).or_default();
        let before = *total;
        *total += flow.total_bytes();
        *devices.entry((flow.router, flow.device)).or_default() += flow.total_bytes();
        for threshold in plan.thresholds {
            let mark = (plan.cap_bytes as f64 * threshold) as u64;
            if before < mark && *total >= mark {
                alerts.entry(flow.router).or_default().push(Alert {
                    threshold,
                    at: flow.ended,
                    usage_bytes: *total,
                });
            }
        }
    }
    let mut out: Vec<HomeUsage> = totals
        .into_iter()
        .map(|(router, total_bytes)| {
            let mut per_device: Vec<(AnonMac, u64)> = devices
                .iter()
                .filter(|((r, _), _)| *r == router)
                .map(|((_, mac), bytes)| (*mac, *bytes))
                .collect();
            per_device.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            HomeUsage {
                router,
                total_bytes,
                per_device,
                alerts: alerts.remove(&router).unwrap_or_default(),
            }
        })
        .collect();
    out.sort_by(|a, b| b.total_bytes.cmp(&a.total_bytes).then(a.router.cmp(&b.router)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use collector::{Collector, RouterMeta};
    use firmware::anonymize::ReportedDomain;
    use firmware::records::{FlowRecord, Record};
    use household::Country;
    use simnet::packet::IpProtocol;
    use simnet::time::SimDuration;

    fn t(mins: u64) -> SimTime {
        SimTime::EPOCH + SimDuration::from_mins(mins)
    }

    fn mac(n: u32) -> AnonMac {
        AnonMac { oui: 0x00_17_F2, suffix_hash: n }
    }

    fn flow(router: u32, device: AnonMac, bytes: u64, end_min: u64) -> Record {
        Record::Flow(FlowRecord {
            router: RouterId(router),
            started: t(end_min.saturating_sub(1)),
            ended: t(end_min),
            device,
            remote_ip_hash: 0,
            remote_port: 443,
            proto: IpProtocol::Tcp,
            domain: ReportedDomain::Obfuscated(1),
            bytes_down: bytes,
            bytes_up: 0,
        })
    }

    fn window() -> Window {
        Window { start: t(0), end: t(10_000) }
    }

    #[test]
    fn totals_and_device_breakdown() {
        let collector = Collector::new();
        collector.register(RouterMeta {
            router: RouterId(0),
            country: Country::UnitedStates,
            traffic_consent: true,
        });
        collector.ingest_batch(vec![
            flow(0, mac(1), 600, 10),
            flow(0, mac(2), 300, 20),
            flow(0, mac(1), 100, 30),
        ]);
        let plan = Plan { cap_bytes: 10_000, thresholds: DEFAULT_THRESHOLDS };
        let usage = account(&collector.snapshot(), window(), &plan);
        assert_eq!(usage.len(), 1);
        assert_eq!(usage[0].total_bytes, 1_000);
        assert_eq!(usage[0].per_device[0], (mac(1), 700));
        assert_eq!(usage[0].per_device[1], (mac(2), 300));
        assert!(usage[0].alerts.is_empty(), "far from any threshold");
        assert!(!usage[0].exhausted(&plan));
        assert!((usage[0].cap_fraction(&plan) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn alerts_fire_once_in_order() {
        let collector = Collector::new();
        collector.register(RouterMeta {
            router: RouterId(0),
            country: Country::UnitedStates,
            traffic_consent: true,
        });
        // Cap 1000: cross 50% at t=10, 90% and 100% at t=20.
        collector.ingest_batch(vec![
            flow(0, mac(1), 600, 10),
            flow(0, mac(1), 500, 20),
            flow(0, mac(1), 500, 30),
        ]);
        let plan = Plan { cap_bytes: 1_000, thresholds: DEFAULT_THRESHOLDS };
        let usage = account(&collector.snapshot(), window(), &plan);
        let alerts = &usage[0].alerts;
        assert_eq!(alerts.len(), 3);
        assert_eq!(alerts[0].threshold, 0.5);
        assert_eq!(alerts[0].at, t(10));
        assert_eq!(alerts[1].threshold, 0.9);
        assert_eq!(alerts[2].threshold, 1.0);
        assert_eq!(alerts[1].at, t(20));
        assert!(usage[0].exhausted(&plan));
    }

    #[test]
    fn homes_sorted_by_usage() {
        let collector = Collector::new();
        for router in 0..3u32 {
            collector.register(RouterMeta {
                router: RouterId(router),
                country: Country::UnitedStates,
                traffic_consent: true,
            });
        }
        collector.ingest_batch(vec![
            flow(0, mac(1), 100, 5),
            flow(1, mac(1), 900, 6),
            flow(2, mac(1), 400, 7),
        ]);
        let plan = Plan { cap_bytes: 10_000, thresholds: DEFAULT_THRESHOLDS };
        let usage = account(&collector.snapshot(), window(), &plan);
        let order: Vec<u32> = usage.iter().map(|u| u.router.0).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn monthly_proration() {
        let window = Window { start: t(0), end: t(15 * 24 * 60) };
        let plan = Plan::monthly(30_000_000_000, window);
        assert_eq!(plan.cap_bytes, 15_000_000_000);
    }
}
