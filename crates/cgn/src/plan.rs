//! The CGN deployment plan: pure data, compiled once from the seed.
//!
//! Like `faultlab`'s fault plan, the CGN plan is a deterministic function
//! of `(scenario, seed, span, deployment)` — same inputs, same plan, bit
//! for bit. It decides which homes each ISP fronts with carrier-grade
//! NAT (per-region fractions), groups fronted homes behind boxes, draws
//! each box's RFC 4787 behavior, replays the shared pool's port-block
//! allocation history (including exhaustion and oldest-first eviction),
//! and schedules every home's pairwise hole-punch trials. An empty plan
//! means the subsystem is fully disengaged: the study runner must produce
//! byte-identical output to a build without this crate at all.

use collector::Window;
use firmware::natprobe::NatType;
use firmware::records::RouterId;
use household::{Country, Region};
use simnet::rng::DetRng;
use simnet::time::{SimDuration, SimTime};
use std::net::Ipv4Addr;

use crate::allocator::{self, BlockSupply};
use crate::hop::BoxBehavior;
use crate::scenarios::CgnScenario;

/// One period during which a subscriber holds a port block on a shared
/// pool address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockLease {
    /// When the block is held (half-open).
    pub window: Window,
    /// The shared pool address.
    pub addr: Ipv4Addr,
    /// First port of the block.
    pub port_start: u16,
    /// Ports in the block.
    pub port_len: u16,
    /// Whether the lease ended by eviction (vs. running to span end).
    pub evicted: bool,
}

/// A fronted home's CGN assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CgnAssignment {
    /// Which box fronts this home.
    pub box_id: u32,
    /// The box's translation behavior.
    pub behavior: BoxBehavior,
    /// The home's port-block lease history, time-ordered.
    pub leases: Vec<BlockLease>,
}

/// One scheduled pairwise hole-punch trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PunchTrialPlan {
    /// When the trial runs.
    pub at: SimTime,
    /// The peer home on the other side.
    pub peer: RouterId,
    /// The peer's CGN box behavior (`None`: peer is behind a plain home
    /// NAT only). Denormalized so the trial needs no cross-home state.
    pub peer_behavior: Option<BoxBehavior>,
}

/// Everything the CGN tier does to one home.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HomeCgn {
    /// The home.
    pub router: RouterId,
    /// CGN fronting, if this home drew it (`None`: plain home NAT, which
    /// still runs probes — the detection experiment needs negatives).
    pub assignment: Option<CgnAssignment>,
    /// Scheduled hole-punch trials, time-ordered.
    pub punches: Vec<PunchTrialPlan>,
}

impl HomeCgn {
    /// Is this home actually behind carrier-grade NAT?
    pub fn is_fronted(&self) -> bool {
        self.assignment.is_some()
    }

    /// The NAT type a correct probe must conclude for this home — the
    /// scoring ground truth. Unfronted homes sit behind the (full-cone)
    /// home NAT alone.
    pub fn truth_nat_type(&self) -> NatType {
        self.assignment.as_ref().map_or(NatType::FullCone, |a| a.behavior.nat_type())
    }
}

/// Aggregate compile-time facts about a plan, for metrics and reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Homes behind CGN.
    pub fronted_homes: u64,
    /// Shared pool addresses across all boxes.
    pub pool_addrs: u64,
    /// Port blocks available across all boxes.
    pub blocks: u64,
    /// Block leases granted over the span.
    pub leases: u64,
    /// Leases ended early by eviction.
    pub evictions: u64,
    /// Arrivals that found the pool exhausted.
    pub exhaustion_events: u64,
}

/// The complete CGN plan for one study run. `homes` is sorted by router
/// ID; when the plan is armed it has an entry for *every* home (unfronted
/// homes still probe and punch).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CgnPlan {
    /// The compiled scenario, if armed.
    pub scenario: Option<CgnScenario>,
    /// Per-home entries, sorted by router ID.
    pub homes: Vec<HomeCgn>,
    /// Boxes deployed.
    pub boxes: u32,
    /// Compile-time aggregates.
    pub stats: PlanStats,
}

impl CgnPlan {
    /// The plan that deploys nothing.
    pub fn empty() -> CgnPlan {
        CgnPlan::default()
    }

    /// Is the CGN subsystem entirely disengaged?
    pub fn is_empty(&self) -> bool {
        self.scenario.is_none()
    }

    /// This router's entry, if the plan is armed.
    pub fn for_router(&self, router: RouterId) -> Option<&HomeCgn> {
        self.homes
            .binary_search_by_key(&router, |h| h.router)
            .ok()
            .map(|i| &self.homes[i])
    }

    /// Publish plan-level gauges. Only called on armed runs, so the CGN
    /// key family never appears in a baseline `metrics.json`.
    pub fn publish_metrics(&self) {
        obs::gauge("cgn_fronted_homes").set(self.stats.fronted_homes);
        obs::gauge("cgn_boxes").set(u64::from(self.boxes));
        obs::gauge("cgn_pool_addrs").set(self.stats.pool_addrs);
        obs::gauge("cgn_blocks").set(self.stats.blocks);
        obs::gauge("cgn_block_leases").set(self.stats.leases);
        obs::gauge("cgn_block_evictions").set(self.stats.evictions);
        obs::gauge("cgn_exhaustion_events").set(self.stats.exhaustion_events);
    }

    /// Compile a shipped scenario for the given seed, study span, and
    /// deployment. Pure: same inputs, same plan, bit for bit.
    pub fn scenario(
        scenario: CgnScenario,
        seed: u64,
        span: Window,
        homes: &[(RouterId, Country)],
    ) -> CgnPlan {
        let p = scenario.params();
        let root = DetRng::new(seed).derive("cgn").derive(scenario.name());

        // Pass 1: per-home CGN membership and pool-arrival time. The
        // arrival jitter window shrinks with tiny test spans so arrivals
        // always land inside the span.
        let arrival_mins = (span.duration().as_mins() / 4).clamp(1, 12 * 60);
        let mut fronted: Vec<usize> = Vec::new();
        let mut arrival: Vec<SimTime> = vec![span.start; homes.len()];
        for (i, &(router, country)) in homes.iter().enumerate() {
            let mut hrng = root.derive_indexed("home", u64::from(router.0));
            let fraction = match country.region() {
                Region::Developed => p.developed_fraction,
                Region::Developing => p.developing_fraction,
            };
            if hrng.chance(fraction) {
                fronted.push(i);
                arrival[i] = span.start + SimDuration::from_mins(hrng.uniform_int(0, arrival_mins));
            }
        }

        // Pass 2: group fronted homes into boxes (deployment order), draw
        // each box's behavior, and replay its pool allocation history.
        let mut assignment: Vec<Option<CgnAssignment>> = vec![None; homes.len()];
        let mut stats = PlanStats { fronted_homes: fronted.len() as u64, ..PlanStats::default() };
        let mut boxes = 0u32;
        let mut addr_counter = 0u32;
        for chunk in fronted.chunks(p.subscribers_per_box) {
            let mut brng = root.derive_indexed("box", u64::from(boxes));
            let behavior = [
                BoxBehavior::FULL_CONE,
                BoxBehavior::RESTRICTED,
                BoxBehavior::PORT_RESTRICTED,
                BoxBehavior::SYMMETRIC,
            ][brng.weighted_index(&p.behavior_weights)];
            let addrs: Vec<Ipv4Addr> = (0..p.pool_addrs_per_box)
                .map(|_| {
                    let a = pool_addr(addr_counter);
                    addr_counter += 1;
                    a
                })
                .collect();
            let supply = BlockSupply { addrs, block_ports: p.block_ports };
            let arrivals: Vec<SimTime> = chunk.iter().map(|&i| arrival[i]).collect();
            let alloc = allocator::allocate(span, &supply, &arrivals, p.retry, p.max_leases);
            stats.pool_addrs += supply.addrs.len() as u64;
            stats.blocks += supply.count() as u64;
            stats.evictions += alloc.evictions;
            stats.exhaustion_events += alloc.exhaustion_events;
            for (slot, &i) in chunk.iter().enumerate() {
                let leases = alloc.leases[slot].clone();
                stats.leases += leases.len() as u64;
                assignment[i] = Some(CgnAssignment { box_id: boxes, behavior, leases });
            }
            boxes += 1;
        }

        // Pass 3: pairwise hole-punch schedules for every home (fronted
        // or not — punch success between two plain full cones is the
        // matrix's easy corner and belongs in the data).
        let behaviors: Vec<Option<BoxBehavior>> =
            assignment.iter().map(|a| a.as_ref().map(|x| x.behavior)).collect();
        let days = span.duration().as_micros() / SimDuration::from_days(1).as_micros();
        let trials = ((days / 5) as usize).clamp(2, 8);
        let usable_start = span.start + SimDuration::from_micros(span.duration().as_micros() / 10);
        let usable = span.duration().as_micros() * 8 / 10;
        let slot = usable / trials as u64;
        let plan_homes = homes
            .iter()
            .enumerate()
            .map(|(i, &(router, _))| {
                let mut prng = root.derive_indexed("punch", u64::from(router.0));
                let punches = if homes.len() > 1 {
                    (0..trials)
                        .map(|k| {
                            let offset = prng.uniform_int(0, slot.max(1));
                            let at = usable_start
                                + SimDuration::from_micros(slot * k as u64 + offset);
                            let mut peer = prng.index(homes.len());
                            if peer == i {
                                peer = (peer + 1) % homes.len();
                            }
                            PunchTrialPlan {
                                at,
                                peer: homes[peer].0,
                                peer_behavior: behaviors[peer],
                            }
                        })
                        .collect()
                } else {
                    Vec::new()
                };
                HomeCgn { router, assignment: assignment[i].take(), punches }
            })
            .collect();

        let mut plan =
            CgnPlan { scenario: Some(scenario), homes: plan_homes, boxes, stats };
        plan.homes.sort_by_key(|h| h.router);
        plan
    }
}

/// The shared pool draws from 198.18.0.0/15 (RFC 2544 benchmarking
/// space), disjoint from home WAN space (100.64/10) and the STUN servers
/// (TEST-NET-1) by construction.
fn pool_addr(idx: u32) -> Ipv4Addr {
    let i = idx % (1 << 17);
    Ipv4Addr::new(
        198,
        18 + ((i >> 16) & 1) as u8,
        ((i >> 8) & 0xff) as u8,
        (i & 0xff) as u8,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(days: u64) -> Window {
        Window { start: SimTime::EPOCH, end: SimTime::EPOCH + SimDuration::from_days(days) }
    }

    fn deployment(n: u32) -> Vec<(RouterId, Country)> {
        (1..=n)
            .map(|i| {
                let c = if i % 3 == 0 { Country::UnitedStates } else { Country::India };
                (RouterId(i), c)
            })
            .collect()
    }

    #[test]
    fn empty_plan_is_empty() {
        assert!(CgnPlan::empty().is_empty());
        assert!(CgnPlan::empty().for_router(RouterId(1)).is_none());
    }

    #[test]
    fn compilation_is_deterministic() {
        for sc in CgnScenario::ALL {
            let a = CgnPlan::scenario(sc, 42, span(20), &deployment(50));
            let b = CgnPlan::scenario(sc, 42, span(20), &deployment(50));
            assert_eq!(a, b, "{sc} not deterministic");
            let c = CgnPlan::scenario(sc, 43, span(20), &deployment(50));
            assert_ne!(a, c, "{sc} ignores the seed");
        }
    }

    #[test]
    fn armed_plan_covers_every_home() {
        let homes = deployment(40);
        let plan = CgnPlan::scenario(CgnScenario::IspMix, 7, span(20), &homes);
        assert!(!plan.is_empty());
        assert_eq!(plan.homes.len(), homes.len(), "negatives probe too");
        for &(router, _) in &homes {
            let h = plan.for_router(router).expect("entry for every home");
            assert!(!h.punches.is_empty());
            for p in &h.punches {
                assert!(p.at >= span(20).start && p.at < span(20).end);
                assert_ne!(p.peer, router, "never punch yourself");
            }
        }
        let fronted = plan.homes.iter().filter(|h| h.is_fronted()).count() as u64;
        assert_eq!(fronted, plan.stats.fronted_homes);
        assert!(fronted > 0 && fronted < homes.len() as u64, "isp-mix is a mix");
    }

    #[test]
    fn all_cgn_fronts_everyone_with_leases_inside_span() {
        let homes = deployment(30);
        let plan = CgnPlan::scenario(CgnScenario::AllCgn, 7, span(20), &homes);
        for h in &plan.homes {
            let a = h.assignment.as_ref().expect("all-cgn fronts everyone");
            assert!(!a.leases.is_empty());
            for l in &a.leases {
                assert!(l.window.start >= span(20).start && l.window.end <= span(20).end);
                assert!(l.port_start >= allocator::BLOCK_PORT_BASE);
                assert_eq!(l.addr.octets()[0], 198, "pool space");
            }
            assert_ne!(h.truth_nat_type(), NatType::Open);
        }
        assert_eq!(plan.stats.fronted_homes, 30);
        assert!(plan.boxes >= 1);
    }

    #[test]
    fn port_starved_churns() {
        // 96+ fronted homes on one starved box forces evictions.
        let homes: Vec<(RouterId, Country)> =
            (1..=130).map(|i| (RouterId(i), Country::India)).collect();
        let plan = CgnPlan::scenario(CgnScenario::PortStarved, 7, span(20), &homes);
        assert!(plan.stats.exhaustion_events > 0, "starved scenario never exhausted");
        assert!(plan.stats.evictions > 0);
        assert!(plan.homes.iter().any(|h| {
            h.assignment
                .as_ref()
                .is_some_and(|a| a.leases.iter().any(|l| l.evicted))
        }));
    }

    #[test]
    fn unfronted_homes_keep_full_cone_truth() {
        let homes = deployment(40);
        let plan = CgnPlan::scenario(CgnScenario::IspMix, 7, span(20), &homes);
        let unfronted = plan.homes.iter().find(|h| !h.is_fronted()).expect("mix has negatives");
        assert_eq!(unfronted.truth_nat_type(), NatType::FullCone);
    }

    #[test]
    fn short_quick_spans_still_compile() {
        for sc in CgnScenario::ALL {
            let plan = CgnPlan::scenario(sc, 3, span(2), &deployment(5));
            assert_eq!(plan.homes.len(), 5);
        }
    }

    #[test]
    fn pool_addresses_stay_in_benchmarking_space() {
        for idx in [0u32, 255, 256, 65_535, 65_536, 131_071, 131_072] {
            let a = pool_addr(idx).octets();
            assert_eq!(a[0], 198);
            assert!(a[1] == 18 || a[1] == 19, "{:?} outside 198.18/15", a);
        }
    }
}
