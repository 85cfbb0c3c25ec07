//! Differential property for traffic by rate epoch: a flow scheduler and
//! traffic monitor driven one second at a time, the way each second used to
//! be simulated, against the same pair driven by epochs: count the steady
//! seconds, advance them in one step, replay them into the monitor, then run
//! the boundary second alone. Every drained record, every completion, and
//! every live flow's remaining bytes and saturation count must agree.
//!
//! Cases draw flow mixes (capped, uncapped, idle, download-only,
//! upload-only and endless uploads whose saturation crosses the
//! standing-queue threshold), link capacities and per-flow caps, epochs
//! from one second to many minutes, chains that start on a minute edge or
//! anywhere inside a minute, gaps between chains, and extra cuts where the
//! epoch driver stops early, as a simulation does when another event
//! touches the flows mid-epoch.

use firmware::records::{Record, RouterId};
use firmware::{Anonymizer, TrafficMonitor};
use netstack::{AppKind, Flow, FlowId, FlowScheduler, TickOutcome};
use proptest::prelude::*;
use simnet::dns::DomainName;
use simnet::packet::{Endpoint, MacAddr};
use simnet::time::{SimDuration, SimTime};
use std::net::Ipv4Addr;

const SECOND: SimDuration = SimDuration::from_secs(1);
const KINDS: [AppKind; 4] = [
    AppKind::Web,
    AppKind::Voip,
    AppKind::Gaming,
    AppKind::BulkUpload,
];

/// The home's link: downstream and upstream capacity, the per-station radio
/// cap and the CPE upstream queue.
#[derive(Debug, Clone, Copy)]
struct Link {
    down_bps: u64,
    up_bps: u64,
    per_flow_bps: Option<u64>,
    queue_bytes: u64,
}

#[derive(Debug, Clone)]
struct FlowSpec {
    down: u64,
    up: u64,
    cap_down: Option<u64>,
    cap_up: Option<u64>,
    kind: usize,
    device: u32,
    saturated: u32,
}

/// A run of consecutive lattice seconds, like one traffic chain of a home.
#[derive(Debug, Clone)]
struct Chain {
    /// Microseconds from the previous chain's last second to this chain's
    /// first (at least one second).
    after_us: u64,
    /// Round the first second up to the next minute edge.
    on_minute_edge: bool,
    seconds: u64,
    /// Flows starting before the given second (an index into the chain).
    arrivals: Vec<(u64, FlowSpec)>,
    /// Seconds before which the epoch driver must stop and resume.
    cuts: Vec<u64>,
}

fn arb_link() -> impl Strategy<Value = Link> {
    (
        1_000_000u64..60_000_000,
        200_000u64..20_000_000,
        prop_oneof![Just(None), (1_000_000u64..40_000_000).prop_map(Some)],
        8_192u64..1_048_576,
    )
        .prop_map(|(down_bps, up_bps, per_flow_bps, queue_bytes)| Link {
            down_bps,
            up_bps,
            per_flow_bps,
            queue_bytes,
        })
}

fn arb_bytes() -> impl Strategy<Value = u64> {
    prop_oneof![
        1u64..50_000,
        50_000u64..5_000_000,
        5_000_000u64..200_000_000
    ]
}

fn arb_cap() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), (10_000u64..8_000_000).prop_map(Some)]
}

fn arb_flow() -> impl Strategy<Value = FlowSpec> {
    let metered = (1_000u64..100_000, 1u64..2_000, 100u64..10_000, 1u64..2_000);
    (
        0u8..7,
        (arb_bytes(), arb_bytes()),
        (arb_cap(), arb_cap()),
        metered,
        (0usize..KINDS.len(), 0u32..3),
        0u32..400,
    )
        .prop_map(
            |(mix, (down, up), (cap_down, cap_up), metered, (kind, device), saturated)| {
                let (down, up, cap_down, cap_up) = match mix {
                    0 => (down, up, None, None),
                    1 => (
                        down,
                        up,
                        cap_down.or(Some(1_000_000)),
                        cap_up.or(Some(100_000)),
                    ),
                    // An idle-but-open connection.
                    2 => (down, up, Some(0), Some(0)),
                    3 => (down, 0, cap_down, cap_up),
                    4 => (down % 2, up, cap_down, None),
                    // The scientific uploader's endless upload.
                    5 => (down, u64::MAX / 4, cap_down, None),
                    // Whole seconds of bytes at the cap, so the last second can
                    // move a full share and still empty the direction.
                    _ => {
                        let (per_down, secs_down, per_up, secs_up) = metered;
                        (
                            per_down * secs_down,
                            per_up * secs_up,
                            Some(per_down * 8),
                            Some(per_up * 8),
                        )
                    }
                };
                FlowSpec {
                    down,
                    up,
                    cap_down,
                    cap_up,
                    kind,
                    device,
                    saturated,
                }
            },
        )
}

fn arb_chain() -> impl Strategy<Value = Chain> {
    (
        prop_oneof![1_000_000u64..2_000_000, 1_000_000u64..600_000_000],
        any::<bool>(),
        prop_oneof![1u64..10, 10u64..300, 300u64..3_000],
        proptest::collection::vec((0u64..1_000, arb_flow()), 1..6),
        proptest::collection::vec(0u64..1_000, 0..4),
    )
        .prop_map(|(after_us, on_minute_edge, seconds, arrivals, cuts)| {
            // Positions are drawn per mille of the chain; the first flow
            // opens it.
            let at = |per_mille: u64| per_mille * seconds / 1_000;
            let mut arrivals: Vec<(u64, FlowSpec)> = arrivals
                .into_iter()
                .map(|(p, flow)| (at(p), flow))
                .collect();
            arrivals[0].0 = 0;
            arrivals.sort_by_key(|(second, _)| *second);
            Chain {
                after_us,
                on_minute_edge,
                seconds,
                arrivals,
                cuts: cuts.into_iter().map(at).collect(),
            }
        })
}

fn monitor() -> TrafficMonitor {
    TrafficMonitor::new(
        RouterId(3),
        Anonymizer::new(
            0xE90C,
            [DomainName::new("example.com").expect("valid name")],
        ),
    )
}

/// What one driver leaves behind: drained records, completions in order,
/// and each chain's live flows just before it is cut off.
#[derive(Debug, Default, PartialEq)]
struct Log {
    records: Vec<Record>,
    completions: Vec<(SimTime, FlowId)>,
    live: Vec<Vec<(FlowId, u64, u64, u32)>>,
}

fn start(sched: &mut FlowScheduler, mon: &mut TrafficMonitor, spec: &FlowSpec, now: SimTime) {
    let id = sched.next_id();
    let flow = Flow {
        id,
        device: MacAddr::from_oui_nic(0x00_17_F2, spec.device),
        local: Endpoint::new(Ipv4Addr::new(192, 168, 1, 10), 40_000 + id.0 as u16),
        remote: Endpoint::new(Ipv4Addr::new(198, 51, 100, 7), 443),
        domain: DomainName::new("example.com").expect("valid name"),
        kind: KINDS[spec.kind],
        started: now,
        remaining_down: spec.down,
        remaining_up: spec.up,
        rate_cap_bps: spec.cap_down,
        rate_cap_up_bps: spec.cap_up,
        saturated_ticks: spec.saturated,
    };
    mon.on_flow_start(&flow);
    sched.start(flow);
}

/// How a driver hands the monitor one second's outcome.
type Capture = fn(&mut TrafficMonitor, SimTime, &TickOutcome);

/// Each flow's progress and the uplink burst, as every second was
/// accounted before epochs.
fn per_entry(mon: &mut TrafficMonitor, window: SimTime, outcome: &TickOutcome) {
    let mut drained_up = 0;
    for progress in &outcome.progress {
        drained_up += progress.bytes_up;
        mon.on_flow_progress(window, progress);
    }
    mon.add_uplink_burst(window, outcome.total_up_offered.saturating_sub(drained_up));
}

/// A run of one second, as a boundary second is accounted.
fn as_run(mon: &mut TrafficMonitor, window: SimTime, outcome: &TickOutcome) {
    mon.on_seconds(window, 1, outcome);
}

/// One second through the scheduler's tick.
fn one_second(
    sched: &mut FlowScheduler,
    mon: &mut TrafficMonitor,
    link: Link,
    now: SimTime,
    log: &mut Log,
    capture: Capture,
) {
    let outcome = sched.tick(
        link.down_bps,
        link.up_bps,
        link.per_flow_bps,
        link.queue_bytes,
    );
    capture(mon, now.align_down(SECOND), outcome);
    for flow in &outcome.completed {
        mon.on_flow_end(now, flow.id);
        log.completions.push((now, flow.id));
    }
    if !outcome.completed.is_empty() {
        mon.drain_into(&mut log.records);
    }
}

/// `seconds` steady seconds from `now` on in one step.
fn steady(
    sched: &mut FlowScheduler,
    mon: &mut TrafficMonitor,
    link: Link,
    now: SimTime,
    seconds: u64,
) {
    let outcome = sched.advance_steady(
        seconds,
        link.down_bps,
        link.up_bps,
        link.per_flow_bps,
        link.queue_bytes,
    );
    assert!(
        outcome.completed.is_empty(),
        "a steady run completes nothing"
    );
    mon.on_seconds(now.align_down(SECOND), seconds, outcome);
}

/// Cut a chain off: abort what is live and hand the records over.
fn cut_off(sched: &mut FlowScheduler, mon: &mut TrafficMonitor, now: SimTime, log: &mut Log) {
    log.live.push(
        sched
            .active()
            .iter()
            .map(|f| (f.id, f.remaining_down, f.remaining_up, f.saturated_ticks))
            .collect(),
    );
    for flow in sched.abort_all() {
        mon.on_flow_end(now, flow.id);
    }
    mon.drain_into(&mut log.records);
}

/// Each chain's first second.
fn chain_starts(chains: &[Chain]) -> Vec<SimTime> {
    let mut last = SimTime::EPOCH + SimDuration::from_mins(90);
    chains
        .iter()
        .map(|chain| {
            let mut first = last + SimDuration::from_micros(chain.after_us);
            if chain.on_minute_edge {
                let minute = SimDuration::from_mins(1);
                first = first.align_down(minute) + minute;
            }
            last = first + SECOND * (chain.seconds - 1);
            first
        })
        .collect()
}

fn run_per_second(link: Link, chains: &[Chain]) -> (Log, u64) {
    let (mut sched, mut mon, mut log) = (FlowScheduler::new(), monitor(), Log::default());
    let mut end = SimTime::EPOCH;
    for (chain, first) in chains.iter().zip(chain_starts(chains)) {
        for second in 0..chain.seconds {
            let now = first + SECOND * second;
            for (_, spec) in chain.arrivals.iter().filter(|(at, _)| *at == second) {
                start(&mut sched, &mut mon, spec, now);
            }
            if sched.active_count() > 0 {
                one_second(&mut sched, &mut mon, link, now, &mut log, per_entry);
            }
        }
        end = first + SECOND * chain.seconds;
        cut_off(&mut sched, &mut mon, end, &mut log);
    }
    mon.finalize(end);
    mon.drain_into(&mut log.records);
    (log, sched.completed_total())
}

fn run_by_epoch(link: Link, chains: &[Chain]) -> (Log, u64, u64) {
    let (mut sched, mut mon, mut log) = (FlowScheduler::new(), monitor(), Log::default());
    let mut end = SimTime::EPOCH;
    let mut boundaries = 0;
    for (chain, first) in chains.iter().zip(chain_starts(chains)) {
        let mut second = 0;
        while second < chain.seconds {
            let now = first + SECOND * second;
            for (_, spec) in chain.arrivals.iter().filter(|(at, _)| *at == second) {
                start(&mut sched, &mut mon, spec, now);
            }
            if sched.active_count() == 0 {
                second += 1;
                continue;
            }
            // The next second at which something outside the flows happens.
            let stop = chain
                .arrivals
                .iter()
                .map(|(at, _)| *at)
                .chain(chain.cuts.iter().copied())
                .filter(|&at| at > second)
                .fold(chain.seconds, u64::min);
            let run = sched
                .steady_seconds(
                    link.down_bps,
                    link.up_bps,
                    link.per_flow_bps,
                    link.queue_bytes,
                )
                .min(stop - second);
            if run > 0 {
                steady(&mut sched, &mut mon, link, now, run);
                second += run;
            } else {
                one_second(&mut sched, &mut mon, link, now, &mut log, as_run);
                boundaries += 1;
                second += 1;
            }
        }
        end = first + SECOND * chain.seconds;
        cut_off(&mut sched, &mut mon, end, &mut log);
    }
    mon.finalize(end);
    mon.drain_into(&mut log.records);
    (log, sched.completed_total(), boundaries)
}

proptest! {
    #[test]
    fn epochs_account_exactly_like_single_seconds(
        link in arb_link(),
        chains in proptest::collection::vec(arb_chain(), 1..4),
    ) {
        let (want, want_completed) = run_per_second(link, &chains);
        let (got, got_completed, boundaries) = run_by_epoch(link, &chains);
        prop_assert_eq!(&got.completions, &want.completions);
        prop_assert_eq!(&got.live, &want.live);
        prop_assert_eq!(got_completed, want_completed);
        prop_assert_eq!(got.records.len(), want.records.len());
        for (i, (g, w)) in got.records.iter().zip(&want.records).enumerate() {
            prop_assert_eq!(g, w, "record {} of {}", i, want.records.len());
        }
        let seconds: u64 = chains.iter().map(|c| c.seconds).sum();
        prop_assert!(boundaries <= seconds);
    }
}

/// The property is only as strong as the epochs it cuts: on a plain mix
/// the epoch driver must run far fewer boundary seconds than seconds.
#[test]
fn steady_runs_cover_most_seconds() {
    let link = Link {
        down_bps: 20_000_000,
        up_bps: 2_000_000,
        per_flow_bps: None,
        queue_bytes: 256 * 1024,
    };
    let flow = |down, up, cap_down, cap_up| FlowSpec {
        down,
        up,
        cap_down,
        cap_up,
        kind: 0,
        device: 1,
        saturated: 0,
    };
    let chains = vec![Chain {
        after_us: 1_500_000,
        on_minute_edge: false,
        seconds: 3_600,
        arrivals: vec![
            (
                0,
                flow(400_000_000, 2_000_000, Some(4_000_000), Some(100_000)),
            ),
            (100, flow(50_000_000, 0, None, None)),
            (700, flow(1_000, u64::MAX / 4, None, None)),
        ],
        cuts: vec![1_000, 2_000],
    }];
    let (want, _) = run_per_second(link, &chains);
    let (got, _, boundaries) = run_by_epoch(link, &chains);
    assert_eq!(got, want);
    assert!(
        boundaries < 20,
        "{boundaries} boundary seconds in an hour of three flows"
    );
    assert!(want.records.len() > 60, "a packet-stat record per minute");
}
