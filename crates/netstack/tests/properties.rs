//! Property-based tests for the flow layer: max-min fairness axioms and
//! flow-scheduler conservation laws under arbitrary workloads, plus
//! differential tests showing that the allocator's and the scheduler's
//! reused buffers give exactly what fresh ones give.

use netstack::fair::{max_min_fair, max_min_fair_into, Demand};
use netstack::{AppKind, Flow, FlowId, FlowScheduler};
use proptest::prelude::*;
use simnet::dns::DomainName;
use simnet::packet::{Endpoint, MacAddr};
use simnet::time::SimTime;
use std::net::Ipv4Addr;

fn arb_demands() -> impl Strategy<Value = Vec<Demand>> {
    proptest::collection::vec(
        prop_oneof![
            (1.0f64..1e8).prop_map(|cap| Demand { rate_cap_bps: cap }),
            Just(Demand { rate_cap_bps: f64::INFINITY }),
            Just(Demand { rate_cap_bps: 0.0 }),
        ],
        0..24,
    )
}

fn bits(rates: &[f64]) -> Vec<u64> {
    rates.iter().map(|r| r.to_bits()).collect()
}

const KINDS: [AppKind; 8] = [
    AppKind::Web,
    AppKind::StreamingVideo,
    AppKind::StreamingAudio,
    AppKind::Voip,
    AppKind::BulkUpload,
    AppKind::CloudSync,
    AppKind::Background,
    AppKind::Gaming,
];

/// One step of a scheduler's life: `Start` opens a flow, `Tick` advances
/// one second against the given capacities and optional per-flow cap.
#[derive(Debug)]
enum Step {
    Start { down: u64, up: u64, caps: u8, kind: usize, saturated: u32 },
    Tick { down_mbps: u64, up_mbps: u64, per_flow_cap_mbps: Option<u64> },
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    let start = (0u64..3_000_000, 0u64..1_500_000, 0u8..4, 0usize..KINDS.len(), 0u32..200);
    let tick = (1u64..60, 1u64..20, 0u64..30);
    proptest::collection::vec(
        (0u8..5, start, tick).prop_map(
            |(pick, (down, up, caps, kind, saturated), (down_mbps, up_mbps, cap))| {
                // Two starts in five steps: bursts of starts grow the active
                // set, runs of ticks drain it.
                if pick < 2 {
                    Step::Start { down, up, caps, kind, saturated }
                } else {
                    // A zero cap turns the per-flow cap off.
                    Step::Tick { down_mbps, up_mbps, per_flow_cap_mbps: (cap > 0).then_some(cap) }
                }
            },
        ),
        1..120,
    )
}

fn step_flow(id: FlowId, down: u64, up: u64, caps: u8, kind: usize, saturated: u32) -> Flow {
    let (rate_cap_bps, rate_cap_up_bps) = match caps {
        0 => (None, None),
        1 => (Some(4_000_000), Some(400_000)),
        2 => (Some(0), None), // an idle-but-open connection
        _ => (Some(2_000_000), None),
    };
    Flow {
        id,
        device: MacAddr::from_oui_nic(0x00_17_F2, id.0 as u32),
        local: Endpoint::new(Ipv4Addr::new(192, 168, 1, 10), 40_000 + id.0 as u16),
        remote: Endpoint::new(Ipv4Addr::new(23, 64, 1, 10), 443),
        domain: DomainName::new("example.com").unwrap(),
        kind: KINDS[kind],
        started: SimTime::EPOCH,
        remaining_down: down,
        remaining_up: up,
        rate_cap_bps,
        rate_cap_up_bps,
        saturated_ticks: saturated,
    }
}

proptest! {
    #[test]
    fn fair_into_on_dirty_buffers_matches_fresh(
        first_capacity in 0.0f64..1e9,
        first in arb_demands(),
        capacity in prop_oneof![Just(0.0f64), 0.0f64..1e9],
        demands in arb_demands(),
    ) {
        let mut rates = Vec::new();
        let mut order = Vec::new();
        max_min_fair_into(first_capacity, &first, &mut rates, &mut order);
        max_min_fair_into(capacity, &demands, &mut rates, &mut order);
        prop_assert_eq!(bits(&rates), bits(&max_min_fair(capacity, &demands)));
    }

    #[test]
    fn long_lived_scheduler_ticks_like_a_fresh_one(steps in arb_steps()) {
        let mut sched = FlowScheduler::new();
        for step in &steps {
            match *step {
                Step::Start { down, up, caps, kind, saturated } => {
                    let id = sched.next_id();
                    sched.start(step_flow(id, down, up, caps, kind, saturated));
                }
                Step::Tick { down_mbps, up_mbps, per_flow_cap_mbps } => {
                    let mut fresh = FlowScheduler::new();
                    for flow in sched.active() {
                        fresh.start(flow.clone());
                    }
                    let args = (
                        down_mbps * 1_000_000,
                        up_mbps * 1_000_000,
                        per_flow_cap_mbps.map(|m| m * 1_000_000),
                        256 * 1024,
                    );
                    let want = fresh.tick(args.0, args.1, args.2, args.3);
                    let got = sched.tick(args.0, args.1, args.2, args.3);
                    prop_assert_eq!(&got.progress, &want.progress);
                    prop_assert_eq!(got.total_down, want.total_down);
                    prop_assert_eq!(got.total_up_offered, want.total_up_offered);
                    let ids = |flows: &[Flow]| flows.iter().map(|f| f.id).collect::<Vec<_>>();
                    prop_assert_eq!(ids(&got.completed), ids(&want.completed));
                    let state = |flows: &[Flow]| {
                        flows
                            .iter()
                            .map(|f| (f.id, f.remaining_down, f.remaining_up, f.saturated_ticks))
                            .collect::<Vec<_>>()
                    };
                    prop_assert_eq!(state(sched.active()), state(fresh.active()));
                }
            }
        }
    }

    #[test]
    fn fairness_axioms(capacity in 0.0f64..1e9, demands in arb_demands()) {
        let rates = max_min_fair(capacity, &demands);
        prop_assert_eq!(rates.len(), demands.len());
        let total: f64 = rates.iter().sum();
        prop_assert!(total <= capacity * (1.0 + 1e-9) + 1e-6, "over-allocation: {total} > {capacity}");
        for (rate, demand) in rates.iter().zip(&demands) {
            prop_assert!(*rate >= 0.0);
            prop_assert!(*rate <= demand.rate_cap_bps * (1.0 + 1e-12) + 1e-9, "cap violated");
        }
        // Pareto efficiency: if any flow is unsatisfied, capacity is used up.
        let unsatisfied = rates
            .iter()
            .zip(&demands)
            .any(|(r, d)| *r + 1e-6 < d.rate_cap_bps.min(1e18));
        if unsatisfied && !demands.is_empty() {
            prop_assert!(total >= capacity - 1e-3, "waste with unsatisfied demand");
        }
        // Symmetry: equal caps get equal rates.
        for i in 0..demands.len() {
            for j in (i + 1)..demands.len() {
                if demands[i].rate_cap_bps == demands[j].rate_cap_bps {
                    prop_assert!((rates[i] - rates[j]).abs() < 1e-6);
                }
            }
        }
    }

    #[test]
    fn scheduler_conserves_bytes(flows in proptest::collection::vec((1u64..5_000_000, 0u64..2_000_000), 1..12),
                                 down_mbps in 1u64..100, up_mbps in 1u64..20, ticks in 1usize..30) {
        let mut sched = FlowScheduler::new();
        let mut expected_total = 0u64;
        for (i, (down, up)) in flows.iter().enumerate() {
            expected_total += down + up;
            sched.start(Flow {
                id: FlowId(i as u64),
                device: MacAddr::from_oui_nic(0x00_17_F2, i as u32),
                local: Endpoint::new(Ipv4Addr::new(192, 168, 1, 10), 40_000 + i as u16),
                remote: Endpoint::new(Ipv4Addr::new(23, 64, 1, 10), 443),
                domain: DomainName::new("example.com").unwrap(),
                kind: netstack::AppKind::Web,
                started: SimTime::EPOCH,
                remaining_down: *down,
                remaining_up: *up,
                rate_cap_bps: None,
                rate_cap_up_bps: None,
                saturated_ticks: 0,
            });
        }
        let mut moved = 0u64;
        let mut completed = 0usize;
        for _ in 0..ticks {
            let out = sched.tick(
                down_mbps * 1_000_000,
                up_mbps * 1_000_000,
                None,
                256 * 1024,
            );
            for p in &out.progress {
                moved += p.bytes_down + p.bytes_up;
            }
            completed += out.completed.len();
            // Drained downstream never exceeds capacity × dt.
            prop_assert!(out.total_down <= down_mbps * 1_000_000 / 8 + 1);
        }
        prop_assert!(moved <= expected_total, "moved more bytes than existed");
        prop_assert!(completed <= flows.len());
        // Remaining bytes + moved bytes == total.
        let remaining: u64 = sched
            .active()
            .iter()
            .map(|f| f.remaining_down + f.remaining_up)
            .sum();
        prop_assert_eq!(moved + remaining, expected_total);
    }

    #[test]
    fn abort_returns_every_active_flow(n in 1usize..20) {
        let mut sched = FlowScheduler::new();
        for i in 0..n {
            sched.start(Flow {
                id: FlowId(i as u64),
                device: MacAddr::from_oui_nic(0x00_17_F2, i as u32),
                local: Endpoint::new(Ipv4Addr::new(192, 168, 1, 10), 40_000 + i as u16),
                remote: Endpoint::new(Ipv4Addr::new(23, 64, 1, 10), 443),
                domain: DomainName::new("example.com").unwrap(),
                kind: netstack::AppKind::Web,
                started: SimTime::EPOCH,
                remaining_down: 1_000,
                remaining_up: 0,
                rate_cap_bps: None,
                rate_cap_up_bps: None,
                saturated_ticks: 0,
            });
        }
        let aborted = sched.abort_all();
        prop_assert_eq!(aborted.len(), n);
        prop_assert_eq!(sched.active_count(), 0);
    }
}
