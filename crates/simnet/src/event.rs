//! The discrete-event core: a time-ordered event queue with stable tie
//! ordering.
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
//! deterministic regardless of heap internals. Nothing is ever cancelled
//! and nothing is scheduled before the clock, so keys never fall below
//! the last pop: the queue is a monotone `(time, sequence)` queue.
//!
//! In front of the heap sits a one-entry slot holding an entry whose key
//! is below every other pending key. `schedule` fills it when the new key
//! is the smallest pending one, moving any displaced occupant into the
//! heap, and every read looks at the slot first. Pop order is therefore
//! key order by construction, and an event queued ahead of everything
//! else pending, such as a traffic epoch's boundary a few seconds out,
//! never touches the heap. A home's heartbeat run ends at the next
//! pending event, so the run's own next event lands behind it, in the
//! heap.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[derive(Debug)]
struct Entry<E> {
    /// The heap key: `(time, sequence)`.
    key: (SimTime, u64),
    event: E,
}

// Ordering is by the key; the payload never participates.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
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
        self.key.cmp(&other.key)
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
    /// When occupied, the entry with the smallest pending key: its key is
    /// below every key in `heap`.
    front: Option<Entry<E>>,
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue positioned at the study epoch.
    pub fn new() -> Self {
        EventQueue { front: None, heap: BinaryHeap::new(), next_seq: 0, now: SimTime::EPOCH }
    }

    /// Current virtual time: the timestamp of the most recently popped
    /// event, or the epoch before any event has run.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        usize::from(self.front.is_some()) + self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.front.is_none() && self.heap.is_empty()
    }

    /// Schedule `event` at the absolute instant `at`.
    ///
    /// # Panics
    /// Panics if `at` is before the current virtual time.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "scheduling into the past: {} < {}", at, self.now);
        let entry = Entry { key: (at, self.next_seq), event };
        self.next_seq += 1;
        // The new sequence number exceeds every pending one, so the new
        // key is the smallest exactly when its time is strictly earliest.
        let smallest = match &self.front {
            Some(front) => entry.key < front.key,
            None => self.heap.peek().is_none_or(|Reverse(head)| entry.key < head.key),
        };
        if smallest {
            if let Some(displaced) = self.front.replace(entry) {
                self.heap.push(Reverse(displaced));
            }
        } else {
            self.heap.push(Reverse(entry));
        }
    }

    /// Pop the next event if its timestamp is strictly before `end`,
    /// advancing the virtual clock to it. Returns `None` — leaving the event
    /// queued — when the next event is at or after `end`, or the queue is
    /// empty. On `None` the clock does not move.
    pub fn pop_if_before(&mut self, end: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? >= end {
            return None;
        }
        let entry = match self.front.take() {
            Some(front) => front,
            None => self.heap.pop().expect("peeked entry exists").0,
        };
        let at = entry.key.0;
        debug_assert!(at >= self.now, "event queue time went backwards");
        self.now = at;
        Some((at, entry.event))
    }

    /// Pop the next event unconditionally (if any).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_if_before(SimTime::from_micros(u64::MAX))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        match &self.front {
            Some(front) => Some(front.key.0),
            None => self.heap.peek().map(|Reverse(entry)| entry.key.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

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
    fn peek_time_is_read_only() {
        let mut q = EventQueue::new();
        q.schedule(t(20), Ev::B);
        q.schedule(t(10), Ev::A);
        // peek_time takes &self: observable through a shared reference.
        let shared: &EventQueue<Ev> = &q;
        assert_eq!(shared.peek_time(), Some(t(10)));
        assert_eq!(shared.peek_time(), Some(t(10)));
        assert_eq!(q.len(), 2);
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
    /// interleavings of schedule and bounded pop. After every step `len`
    /// and `peek_time` must agree with the model, and at the end the rest
    /// must drain in key order.
    mod model {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        proptest! {
            #[test]
            fn queue_matches_btreemap_model(
                ops in proptest::collection::vec((0u8..3, 0u64..40), 1..300)
            ) {
                let mut q = EventQueue::new();
                let mut model: BTreeMap<(SimTime, u64), usize> = BTreeMap::new();
                for (step, &(kind, delta)) in ops.iter().enumerate() {
                    let later = q.now() + SimDuration::from_micros(delta);
                    if kind < 2 {
                        q.schedule(later, step);
                        model.insert((later, step as u64), step);
                    } else {
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
                    prop_assert_eq!(q.len(), model.len());
                    prop_assert_eq!(q.peek_time(), model.keys().next().map(|&(at, _)| at));
                }
                let rest: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, ev)| ev)).collect();
                prop_assert_eq!(rest, model.into_values().collect::<Vec<_>>());
            }
        }
    }
}
