//! Discrete-event scheduling: the substrate of the concurrent session
//! engine.
//!
//! The serial workflow advanced one global
//! [`SimClock`](crate::clock::SimClock) through every
//! participant's actions in turn, so a 20-owner session took 20× the
//! blockchain time it should. The event queue here lets each actor accrue
//! its own local time on a [`Timeline`] and the world advance to the
//! *earliest pending event* instead: owners train, upload, and submit
//! transactions in overlapping windows, and their transactions land in
//! shared 12-second blocks.
//!
//! Determinism: events firing at the same instant are delivered in the
//! order they were scheduled (a monotone sequence number breaks ties), so
//! a run is a pure function of its inputs.

use crate::clock::{SimDuration, SimInstant};
use std::collections::BinaryHeap;

/// An event queue ordered by firing instant, then by scheduling order.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    last_popped: SimInstant,
}

#[derive(Debug)]
struct Entry<E> {
    at: SimInstant,
    seq: u64,
    event: E,
}

// `BinaryHeap` is a max-heap; reverse the ordering so the earliest instant
// (and, at equal instants, the earliest scheduled) pops first.
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            last_popped: SimInstant(0),
        }
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> EventQueue<E> {
        EventQueue::default()
    }

    /// Schedules `event` to fire at `at`. Scheduling into the past (before
    /// the last popped event) is a logic error and panics, because it would
    /// make virtual time non-monotone.
    pub fn schedule(&mut self, at: SimInstant, event: E) {
        assert!(
            at >= self.last_popped,
            "scheduled event at {:?} before current time {:?}",
            at,
            self.last_popped
        );
        self.heap.push(Entry {
            at,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Schedules `event` at `now + delay`.
    pub fn schedule_after(&mut self, now: SimInstant, delay: SimDuration, event: E) {
        self.schedule(SimInstant(now.0 + delay.0), event);
    }

    /// Removes and returns the earliest event with its firing instant.
    pub fn pop(&mut self) -> Option<(SimInstant, E)> {
        let entry = self.heap.pop()?;
        self.last_popped = entry.at;
        Some((entry.at, entry.event))
    }

    /// Firing instant of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimInstant> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// One participant's local time. A timeline only moves forward; it tracks
/// when the participant becomes free, independent of the global clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Timeline {
    now: SimInstant,
}

impl Timeline {
    /// A timeline starting at `start`.
    pub fn starting_at(start: SimInstant) -> Timeline {
        Timeline { now: start }
    }

    /// The participant's local time.
    pub fn now(&self) -> SimInstant {
        self.now
    }

    /// Charges `d` of local work; returns the completion instant.
    pub fn advance(&mut self, d: SimDuration) -> SimInstant {
        self.now = SimInstant(self.now.0 + d.0);
        self.now
    }

    /// Moves local time forward to `t` (no-op if already past it) — e.g.
    /// when the participant was blocked waiting for a shared resource.
    pub fn advance_to(&mut self, t: SimInstant) -> SimInstant {
        if t > self.now {
            self.now = t;
        }
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimInstant(30), "c");
        q.schedule(SimInstant(10), "a");
        q.schedule(SimInstant(20), "b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((SimInstant(10), "a")));
        assert_eq!(q.pop(), Some((SimInstant(20), "b")));
        assert_eq!(q.pop(), Some((SimInstant(30), "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn simultaneous_events_keep_schedule_order() {
        let mut q = EventQueue::new();
        for label in ["first", "second", "third"] {
            q.schedule(SimInstant(5), label);
        }
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.pop().unwrap().1, "third");
    }

    #[test]
    fn ten_thousand_same_instant_events_pop_in_schedule_order() {
        // Fleet-scale slot barriers put thousands of owner events on the
        // same SimInstant; tie-breaking by sequence number must hold at
        // that density, not just for three events.
        let mut q = EventQueue::new();
        for i in 0..10_000u32 {
            q.schedule(SimInstant(42), i);
        }
        assert_eq!(q.len(), 10_000);
        for expect in 0..10_000u32 {
            let (at, got) = q.pop().unwrap();
            assert_eq!(at, SimInstant(42));
            assert_eq!(got, expect);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn schedule_after_offsets_from_now() {
        let mut q = EventQueue::new();
        q.schedule_after(SimInstant(100), SimDuration(50), "x");
        assert_eq!(q.peek_time(), Some(SimInstant(150)));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimInstant(10), "a");
        q.pop();
        q.schedule(SimInstant(5), "late");
    }

    #[test]
    fn timeline_accrues_local_time() {
        let mut t = Timeline::default();
        assert_eq!(t.now(), SimInstant(0));
        assert_eq!(t.advance(SimDuration::from_secs(3)), SimInstant(3_000_000));
        // Blocked until t=10s.
        assert_eq!(t.advance_to(SimInstant(10_000_000)), SimInstant(10_000_000));
        // advance_to never rewinds.
        assert_eq!(t.advance_to(SimInstant(1)), SimInstant(10_000_000));
    }

    #[test]
    fn timelines_are_independent() {
        let mut a = Timeline::default();
        let mut b = Timeline::starting_at(SimInstant(500));
        a.advance(SimDuration(100));
        assert_eq!(a.now(), SimInstant(100));
        assert_eq!(b.now(), SimInstant(500));
        b.advance(SimDuration(1));
        assert_eq!(b.now(), SimInstant(501));
    }
}
