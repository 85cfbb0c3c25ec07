//! The compile-time port-block allocator for one CGN box.
//!
//! Each box owns a handful of shared pool addresses, cut into fixed-size
//! port blocks. Subscribers arrive (deterministic times from the plan
//! RNG), take the lowest free block, and hold it until the study ends —
//! unless the supply runs out, in which case the *oldest* lease is
//! evicted to serve the newcomer and the victim re-applies after a
//! deterministic back-off, up to a per-subscriber lease budget. The whole
//! allocation history is replayed here at plan-compile time, so the
//! runtime hop just walks a precomputed lease list.
//!
//! Determinism: the event queue is a `BTreeMap` keyed by `(time, seq)`,
//! the free list a `BTreeSet` (lowest block first), and eviction picks
//! the minimum `(since, block)` pair — every tie has a total order.

use collector::Window;
use simnet::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use crate::plan::BlockLease;

/// First usable port on a pool address (below are reserved, mirroring the
/// home NAT's range).
pub const BLOCK_PORT_BASE: u16 = 1_024;

/// The block supply one box draws from.
#[derive(Debug, Clone)]
pub(crate) struct BlockSupply {
    /// The shared pool addresses this box owns.
    pub addrs: Vec<Ipv4Addr>,
    /// Ports per block.
    pub block_ports: u16,
}

impl BlockSupply {
    pub(crate) fn blocks_per_addr(&self) -> usize {
        ((u16::MAX - BLOCK_PORT_BASE) / self.block_ports) as usize
    }

    /// Total blocks the box can hand out at once.
    pub(crate) fn count(&self) -> usize {
        self.addrs.len() * self.blocks_per_addr()
    }

    /// Address and first port of block `idx`.
    pub(crate) fn locate(&self, idx: usize) -> (Ipv4Addr, u16) {
        let per = self.blocks_per_addr();
        let addr = self.addrs[idx / per];
        let port_start = BLOCK_PORT_BASE + (idx % per) as u16 * self.block_ports;
        (addr, port_start)
    }
}

/// The replayed allocation history for one box.
#[derive(Debug, Clone, Default)]
pub(crate) struct BoxAllocation {
    /// Per-subscriber lease lists, time-ordered and non-overlapping.
    pub leases: Vec<Vec<BlockLease>>,
    /// Leases ended early to serve a newcomer.
    pub evictions: u64,
    /// Arrivals that found no free block (each either evicted someone or,
    /// with an empty supply, went unserved).
    pub exhaustion_events: u64,
}

/// Replay the box's allocation history across `span`.
pub(crate) fn allocate(
    span: Window,
    supply: &BlockSupply,
    arrivals: &[SimTime],
    retry: SimDuration,
    max_leases: usize,
) -> BoxAllocation {
    let n = arrivals.len();
    let mut out = BoxAllocation { leases: vec![Vec::new(); n], ..BoxAllocation::default() };
    // (time, seq) → subscriber. Initial arrivals use their index as the
    // sequence number; re-arrivals take fresh ascending sequence numbers,
    // so same-instant events process in a fixed order.
    let mut events: BTreeMap<(SimTime, u64), usize> = arrivals
        .iter()
        .enumerate()
        .map(|(i, &at)| ((at, i as u64), i))
        .collect();
    let mut seq = n as u64;
    let mut free: BTreeSet<usize> = (0..supply.count()).collect();
    // block → (lease start, subscriber); mirror ordered oldest-first.
    let mut held: BTreeMap<usize, (SimTime, usize)> = BTreeMap::new();
    let mut oldest: BTreeSet<(SimTime, usize)> = BTreeSet::new();
    // Subscriber → its currently open lease (start, block).
    let mut open: Vec<Option<(SimTime, usize)>> = vec![None; n];

    while let Some((&(at, s), &sub)) = events.iter().next() {
        events.remove(&(at, s));
        if at >= span.end {
            continue; // re-arrival past the study: never served
        }
        let block = if let Some(&b) = free.iter().next() {
            free.remove(&b);
            b
        } else {
            out.exhaustion_events += 1;
            let Some(&(since, b)) = oldest.iter().next() else {
                continue; // zero-block supply: nothing to evict, unserved
            };
            oldest.remove(&(since, b));
            let (_, victim) = held.remove(&b).expect("held mirrors oldest");
            let (start, vb) = open[victim].take().expect("victim had an open lease");
            debug_assert_eq!(vb, b);
            let (addr, port_start) = supply.locate(b);
            out.leases[victim].push(BlockLease {
                window: Window { start, end: at },
                addr,
                port_start,
                port_len: supply.block_ports,
                evicted: true,
            });
            out.evictions += 1;
            if out.leases[victim].len() < max_leases {
                events.insert((at + retry, seq), victim);
                seq += 1;
            }
            b
        };
        held.insert(block, (at, sub));
        oldest.insert((at, block));
        open[sub] = Some((at, block));
    }

    // Whatever is still held runs to the end of the study.
    for (sub, slot) in open.iter_mut().enumerate() {
        if let Some((start, b)) = slot.take() {
            let (addr, port_start) = supply.locate(b);
            out.leases[sub].push(BlockLease {
                window: Window { start, end: span.end },
                addr,
                port_start,
                port_len: supply.block_ports,
                evicted: false,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(mins: u64) -> SimTime {
        SimTime::EPOCH + SimDuration::from_mins(mins)
    }

    fn span(days: u64) -> Window {
        Window { start: SimTime::EPOCH, end: SimTime::EPOCH + SimDuration::from_days(days) }
    }

    fn supply(addrs: u8, block_ports: u16) -> BlockSupply {
        BlockSupply {
            addrs: (1..=addrs).map(|i| Ipv4Addr::new(198, 18, 0, i)).collect(),
            block_ports,
        }
    }

    /// No two leases on the same (addr, port_start) may overlap in time.
    fn assert_no_double_allocation(alloc: &BoxAllocation) {
        let mut all: Vec<&BlockLease> = alloc.leases.iter().flatten().collect();
        // Tie-break same-start leases by end: a grant-and-evict at the same
        // instant yields a zero-length lease that must sort first.
        all.sort_by_key(|l| (l.addr, l.port_start, l.window.start, l.window.end));
        for pair in all.windows(2) {
            if pair[0].addr == pair[1].addr && pair[0].port_start == pair[1].port_start {
                assert!(
                    pair[0].window.end <= pair[1].window.start,
                    "block {}:{} double-allocated",
                    pair[0].addr,
                    pair[0].port_start
                );
            }
        }
    }

    #[test]
    fn ample_supply_gives_everyone_one_lease() {
        let s = supply(4, 2_048);
        let arrivals: Vec<SimTime> = (0..16).map(|i| t(i * 7)).collect();
        let alloc = allocate(span(20), &s, &arrivals, SimDuration::from_hours(6), 3);
        assert_eq!(alloc.evictions, 0);
        assert_eq!(alloc.exhaustion_events, 0);
        for (i, leases) in alloc.leases.iter().enumerate() {
            assert_eq!(leases.len(), 1, "subscriber {i}");
            assert_eq!(leases[0].window.start, t(i as u64 * 7));
            assert_eq!(leases[0].window.end, span(20).end);
            assert!(!leases[0].evicted);
        }
        assert_no_double_allocation(&alloc);
    }

    #[test]
    fn lowest_block_first() {
        let s = supply(2, 16_128); // 4 blocks per addr, 8 total
        let alloc = allocate(span(5), &s, &[t(0), t(1)], SimDuration::from_hours(6), 3);
        assert_eq!(alloc.leases[0][0].addr, Ipv4Addr::new(198, 18, 0, 1));
        assert_eq!(alloc.leases[0][0].port_start, BLOCK_PORT_BASE);
        assert_eq!(alloc.leases[1][0].port_start, BLOCK_PORT_BASE + 16_128);
    }

    #[test]
    fn starved_supply_evicts_oldest_first() {
        // One address, two blocks, three subscribers.
        let s = supply(1, 32_000);
        assert_eq!(s.count(), 2);
        let alloc = allocate(span(10), &s, &[t(0), t(10), t(20)], SimDuration::from_hours(6), 2);
        // Subscriber 0 (oldest) is evicted at t(20) to serve subscriber 2.
        assert!(alloc.evictions >= 1);
        let first = &alloc.leases[0][0];
        assert!(first.evicted, "oldest lease evicted");
        assert_eq!(first.window.end, t(20));
        // The victim re-applies 6h later and (evicting subscriber 1 in
        // turn) gets a block back.
        assert_eq!(alloc.leases[0].len(), 2);
        assert_eq!(alloc.leases[0][1].window.start, t(20) + SimDuration::from_hours(6));
        assert_no_double_allocation(&alloc);
    }

    #[test]
    fn lease_budget_bounds_rearrivals() {
        let s = supply(1, 32_000); // 2 blocks
        let arrivals: Vec<SimTime> = (0..6).map(t).collect();
        let alloc = allocate(span(10), &s, &arrivals, SimDuration::from_mins(1), 2);
        for leases in &alloc.leases {
            assert!(leases.len() <= 2, "lease budget exceeded");
        }
        assert_no_double_allocation(&alloc);
    }

    #[test]
    fn zero_supply_serves_nobody() {
        let s = BlockSupply { addrs: Vec::new(), block_ports: 2_048 };
        let alloc = allocate(span(5), &s, &[t(0), t(1)], SimDuration::from_hours(1), 3);
        assert!(alloc.leases.iter().all(Vec::is_empty));
        assert_eq!(alloc.exhaustion_events, 2);
    }

    #[test]
    fn allocation_is_deterministic() {
        let s = supply(1, 16_128);
        let arrivals: Vec<SimTime> = (0..40).map(|i| t(i * 3)).collect();
        let a = allocate(span(20), &s, &arrivals, SimDuration::from_hours(4), 3);
        let b = allocate(span(20), &s, &arrivals, SimDuration::from_hours(4), 3);
        assert_eq!(a.leases, b.leases);
        assert_eq!(a.evictions, b.evictions);
    }
}
