//! The discrete-event core: a time-ordered event queue with stable tie
//! ordering and cancellation that costs nothing until it is used.
//!
//! Following the event-driven style of small embedded TCP/IP stacks, the
//! queue does not own a run loop or callbacks. A simulation owns an
//! [`EventQueue`] plus its state, and drives itself:
//!
//! ```
//! use simnet::event::EventQueue;
//! use simnet::time::{SimDuration, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Tick }
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_micros(10), Ev::Tick);
//! let end = SimTime::from_micros(100);
//! while let Some((t, ev)) = q.pop_if_before(end) {
//!     assert_eq!(ev, Ev::Tick);
//!     // A handler may schedule follow-up events here: `q.schedule(...)`.
//!     let _ = t;
//! }
//! assert!(q.is_empty());
//! ```
//!
//! Two events at the same instant are delivered in the order they were
//! scheduled (FIFO tie-break via a sequence number), which keeps runs
//! deterministic regardless of heap internals.
//!
//! Cancellation is on demand. Events pop in strictly increasing
//! `(time, sequence)` order, and an [`EventId`] carries that key, so an
//! event has already fired exactly when its key is at or below the last
//! popped one. Only cancelled keys are tracked: schedule and pop touch no
//! per-event bookkeeping, and a run that never cancels pays one
//! emptiness check per pop.

use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

/// Opaque handle for a scheduled event, used for cancellation. It is the
/// event's heap key, `(time, sequence)`, and orders like one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId {
    at: SimTime,
    seq: u64,
}

#[derive(Debug)]
struct Entry<E> {
    id: EventId,
    event: E,
}

// Ordering is by the key; the payload never participates.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.id.cmp(&other.id)
    }
}

/// A deterministic future-event list.
///
/// The queue tracks the current virtual time ([`EventQueue::now`]), which
/// advances to each event's timestamp as it is popped. Scheduling strictly
/// in the past panics — that is always a simulation bug, not a recoverable
/// condition.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    /// Cancelled events the pop cursor has not passed yet. Heap entries
    /// whose id is in here are tombstones to skip. Keys below
    /// `last_popped` are pruned: the fired test covers them.
    cancelled: BTreeSet<EventId>,
    /// Key of the most recently popped event.
    last_popped: Option<EventId>,
    /// Pending events that are neither delivered nor cancelled.
    live: usize,
    next_seq: u64,
    now: SimTime,
    processed: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue positioned at the study epoch.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            cancelled: BTreeSet::new(),
            last_popped: None,
            live: 0,
            next_seq: 0,
            now: SimTime::EPOCH,
            processed: 0,
        }
    }

    /// Current virtual time: the timestamp of the most recently popped
    /// event, or the epoch before any event has run.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events delivered so far (cancelled events excluded).
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of live (not cancelled) pending events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedule `event` at the absolute instant `at`.
    ///
    /// # Panics
    /// Panics if `at` is before the current virtual time.
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventId {
        assert!(at >= self.now, "scheduling into the past: {} < {}", at, self.now);
        let id = EventId { at, seq: self.next_seq };
        self.heap.push(Reverse(Entry { id, event }));
        self.next_seq += 1;
        self.live += 1;
        id
    }

    /// Schedule `event` at `now + delay`.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) -> EventId {
        self.schedule(self.now + delay, event)
    }

    /// Cancel a previously scheduled event. Returns `true` if the event was
    /// still pending (it will now never be delivered), `false` if it had
    /// already fired, been cancelled, or never existed.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let issued = id.seq < self.next_seq;
        let fired = self.last_popped.is_some_and(|last| id <= last);
        // Lazy deletion: the heap entry becomes a tombstone discarded when
        // it surfaces. Clearing dead heads here keeps the invariant that
        // the heap head, if any, is always live — which is what lets
        // `peek_time` take `&self`.
        if !issued || fired || !self.cancelled.insert(id) {
            return false;
        }
        self.live -= 1;
        self.drop_dead_heads();
        true
    }

    /// Discard tombstones sitting at the heap head and forget
    /// cancellations the pop cursor has passed. Called after every
    /// mutation that can expose one, so the head is live between calls.
    fn drop_dead_heads(&mut self) {
        if self.cancelled.is_empty() {
            return;
        }
        if let Some(last) = self.last_popped {
            // A cancelled key below the cursor left the heap before the
            // cursor passed it (it was a dead head then).
            while self.cancelled.first().is_some_and(|&id| id < last) {
                self.cancelled.pop_first();
            }
        }
        while let Some(Reverse(entry)) = self.heap.peek() {
            if !self.cancelled.contains(&entry.id) {
                break;
            }
            self.heap.pop();
        }
    }

    /// Pop the next event if its timestamp is strictly before `end`,
    /// advancing the virtual clock to it. Returns `None` — leaving the event
    /// queued — when the next event is at or after `end`, or the queue is
    /// empty. On `None` the clock does not move.
    pub fn pop_if_before(&mut self, end: SimTime) -> Option<(SimTime, E)> {
        // The head is live by invariant (see `drop_dead_heads`).
        let head_at = match self.heap.peek() {
            Some(Reverse(entry)) => entry.id.at,
            None => return None,
        };
        if head_at >= end {
            return None;
        }
        let Reverse(entry) = self.heap.pop().expect("peeked entry exists");
        debug_assert!(entry.id.at >= self.now, "event queue time went backwards");
        self.last_popped = Some(entry.id);
        self.live -= 1;
        self.now = entry.id.at;
        self.processed += 1;
        // Popping may expose buried tombstones; restore the invariant.
        self.drop_dead_heads();
        Some((entry.id.at, entry.event))
    }

    /// Pop the next event unconditionally (if any).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_if_before(SimTime::from_micros(u64::MAX))
    }

    /// Timestamp of the next live event without popping it. Read-only:
    /// cancellation tombstones are cleared from the heap head eagerly by
    /// `cancel` and `pop_if_before`, so the head is always live here.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(entry)| {
            debug_assert!(
                !self.cancelled.contains(&entry.id),
                "heap head must never be a tombstone"
            );
            entry.id.at
        })
    }

    /// Advance the clock to `to` without delivering anything.
    ///
    /// # Panics
    /// Panics if `to` is in the past or if a live event is pending before
    /// `to` (skipping scheduled work is a simulation bug).
    pub fn fast_forward(&mut self, to: SimTime) {
        assert!(to >= self.now, "fast_forward into the past");
        if let Some(at) = self.peek_time() {
            assert!(at >= to, "fast_forward would skip a pending event at {}", at);
        }
        self.now = to;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Ev {
        A,
        B,
        C,
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn delivers_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), Ev::C);
        q.schedule(t(10), Ev::A);
        q.schedule(t(20), Ev::B);
        let order: Vec<Ev> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![Ev::A, Ev::B, Ev::C]);
        assert_eq!(q.processed(), 3);
    }

    #[test]
    fn fifo_tie_break_at_same_instant() {
        let mut q = EventQueue::new();
        q.schedule(t(5), Ev::A);
        q.schedule(t(5), Ev::B);
        q.schedule(t(5), Ev::C);
        let order: Vec<Ev> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![Ev::A, Ev::B, Ev::C]);
    }

    #[test]
    fn pop_if_before_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule(t(10), Ev::A);
        q.schedule(t(50), Ev::B);
        assert_eq!(q.pop_if_before(t(50)), Some((t(10), Ev::A)));
        assert_eq!(q.pop_if_before(t(50)), None);
        assert_eq!(q.len(), 1, "event at the horizon stays queued");
        assert_eq!(q.pop_if_before(t(51)), Some((t(50), Ev::B)));
    }

    #[test]
    fn clock_advances_with_pops_only() {
        let mut q = EventQueue::new();
        q.schedule(t(40), Ev::A);
        assert_eq!(q.now(), SimTime::EPOCH);
        assert_eq!(q.pop_if_before(t(30)), None);
        assert_eq!(q.now(), SimTime::EPOCH);
        q.pop().unwrap();
        assert_eq!(q.now(), t(40));
    }

    #[test]
    fn cancellation_suppresses_delivery() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(10), Ev::A);
        q.schedule(t(20), Ev::B);
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(20), Ev::B)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut q: EventQueue<Ev> = EventQueue::new();
        assert!(!q.cancel(EventId { at: t(0), seq: 999 }));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(10), Ev::A);
        q.schedule(t(20), Ev::B);
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(20)));
    }

    #[test]
    fn peek_time_is_read_only() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(10), Ev::A);
        q.schedule(t(20), Ev::B);
        q.cancel(a);
        // peek_time takes &self: observable through a shared reference.
        let shared: &EventQueue<Ev> = &q;
        assert_eq!(shared.peek_time(), Some(t(20)));
        assert_eq!(shared.peek_time(), Some(t(20)));
    }

    #[test]
    fn buried_tombstone_cleared_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(10), Ev::A);
        let b = q.schedule(t(20), Ev::B);
        q.schedule(t(30), Ev::C);
        q.cancel(b); // not at the head yet: becomes a buried tombstone
        assert_eq!(q.pop(), Some((t(10), Ev::A)));
        // Popping A exposed B's tombstone; the head must already be live.
        assert_eq!((&q).peek_time(), Some(t(30)));
        assert_eq!(q.pop(), Some((t(30), Ev::C)));
    }

    #[test]
    fn schedule_after_uses_current_time() {
        let mut q = EventQueue::new();
        q.schedule(t(100), Ev::A);
        q.pop().unwrap();
        q.schedule_after(SimDuration::from_micros(5), Ev::B);
        assert_eq!(q.pop(), Some((t(105), Ev::B)));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_in_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(t(100), Ev::A);
        q.pop().unwrap();
        q.schedule(t(50), Ev::B);
    }

    #[test]
    fn fast_forward_moves_clock() {
        let mut q: EventQueue<Ev> = EventQueue::new();
        q.fast_forward(t(500));
        assert_eq!(q.now(), t(500));
    }

    #[test]
    #[should_panic(expected = "would skip a pending event")]
    fn fast_forward_cannot_skip_events() {
        let mut q = EventQueue::new();
        q.schedule(t(10), Ev::A);
        q.fast_forward(t(20));
    }

    #[test]
    fn cancelled_dead_head_cannot_be_cancelled_again() {
        let mut q = EventQueue::new();
        q.schedule(t(10), Ev::A);
        let b = q.schedule(t(20), Ev::B);
        q.schedule(t(30), Ev::C);
        assert_eq!(q.pop(), Some((t(10), Ev::A)));
        // B is the head: cancelling drops it from the heap at once, but its
        // key is still above the pop cursor.
        assert!(q.cancel(b));
        assert!(!q.cancel(b), "a dropped tombstone is still cancelled");
        assert_eq!(q.pop(), Some((t(30), Ev::C)));
        assert!(!q.cancel(b), "below the cursor it reads as done");
        assert!(q.is_empty());
    }

    #[test]
    fn handler_reschedule_pattern() {
        // The idiomatic driver loop: pop, then handle (handler may schedule).
        let mut q = EventQueue::new();
        q.schedule(t(0), Ev::A);
        let end = t(100);
        let mut ticks = 0;
        while let Some((at, Ev::A)) = q.pop_if_before(end) {
            ticks += 1;
            q.schedule(at + SimDuration::from_micros(10), Ev::A);
        }
        assert_eq!(ticks, 10);
        assert_eq!(q.len(), 1, "next tick remains queued past the horizon");
    }

    /// Model check against a `BTreeMap` keyed `(time, sequence)`: random
    /// interleavings of schedule, cancel and bounded pop. Cancels pick
    /// pending, fired and already-cancelled ids alike, plus ids the queue
    /// never issued. After every step `len` and `peek_time` must agree
    /// with the model, and at the end the rest must drain in key order.
    mod model {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        proptest! {
            #[test]
            fn queue_matches_btreemap_model(
                ops in proptest::collection::vec((0u8..4, 0u64..40, any::<u16>()), 1..300)
            ) {
                let mut q = EventQueue::new();
                let mut model: BTreeMap<(SimTime, u64), usize> = BTreeMap::new();
                let mut issued: Vec<EventId> = Vec::new();
                for (step, &(kind, delta, pick)) in ops.iter().enumerate() {
                    let later = q.now() + SimDuration::from_micros(delta);
                    match kind {
                        0 | 1 => {
                            let id = q.schedule(later, step);
                            model.insert((later, issued.len() as u64), step);
                            issued.push(id);
                        }
                        2 => {
                            // One cancel in eight names an id never issued.
                            let id = if issued.is_empty() || pick % 8 == 0 {
                                EventId { at: later, seq: issued.len() as u64 + u64::from(pick) }
                            } else {
                                issued[usize::from(pick) % issued.len()]
                            };
                            let pending = model.remove(&(id.at, id.seq)).is_some();
                            prop_assert_eq!(q.cancel(id), pending, "cancel of {:?}", id);
                        }
                        _ => {
                            let head = model.first_key_value().map(|(&key, &ev)| (key, ev));
                            match head {
                                Some(((at, seq), ev)) if at < later => {
                                    model.remove(&(at, seq));
                                    prop_assert_eq!(q.pop_if_before(later), Some((at, ev)));
                                    prop_assert_eq!(q.now(), at);
                                }
                                _ => prop_assert_eq!(q.pop_if_before(later), None),
                            }
                        }
                    }
                    prop_assert_eq!(q.len(), model.len());
                    prop_assert_eq!(q.peek_time(), model.keys().next().map(|&(at, _)| at));
                }
                let rest: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, ev)| ev)).collect();
                prop_assert_eq!(rest, model.into_values().collect::<Vec<_>>());
            }
        }
    }
}
