//! The event calendar: a priority queue of `(time, seq, payload)` triples.
//!
//! Determinism is a hard requirement for this reproduction — the evaluation
//! harness compares latency decompositions at nanosecond granularity and the
//! property-test suite replays interleavings — so ordering is total: events
//! at the same instant fire in the order they were scheduled (FIFO by a
//! monotonically increasing sequence number).
//!
//! ## Structure
//!
//! One `BinaryHeap` of 24-byte `(time, seq, slot)` keys, popped min-first,
//! over a payload slab with a free list. Heap sifts move small `Copy` keys,
//! never the payload, and a schedule reuses a freed slot instead of
//! allocating. Pop order is ascending `(time, seq)` over the pending set by
//! construction: it is the heap's own order, and `seq` is unique.
//! `tests/proptest_calendar.rs` checks it against a reference model.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A calendar key: the ordering `(at, seq)` plus the slab slot of the
/// payload. `seq` is unique, so `slot` never decides an order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

/// Result of [`EventQueue::pop_at_most`].
///
/// # Horizon semantics (normative)
///
/// The horizon is **inclusive**: an event timestamped *exactly* at the
/// horizon pops; only events *strictly after* it report [`PopAtMost::Later`].
/// [`crate::engine::Engine::run_until`] inherits this one semantic. A caller
/// that needs an exclusive bound passes `bound - 1 ps`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PopAtMost<E> {
    /// No events are pending.
    Empty,
    /// The earliest pending event fires strictly after the horizon; it
    /// stays queued. Carries its timestamp.
    Later(SimTime),
    /// The earliest pending event, at or before the horizon (inclusive).
    Popped(SimTime, E),
}

/// A deterministic min-queue of timestamped events.
///
/// This is deliberately separate from [`crate::engine::Engine`] so it can be
/// property-tested in isolation.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Pending keys; `Reverse` turns the max-heap into a min-heap.
    heap: BinaryHeap<Reverse<Key>>,
    /// Payload slab, indexed by `Key::slot`.
    payloads: Vec<Option<E>>,
    /// Free slots in `payloads`.
    free: Vec<u32>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            payloads: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedule `payload` to fire at absolute instant `at`.
    #[inline]
    pub fn push(&mut self, at: SimTime, payload: E) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.payloads[slot as usize] = Some(payload);
                slot
            }
            None => {
                let slot = u32::try_from(self.payloads.len()).expect("slab slot overflow");
                self.payloads.push(Some(payload));
                slot
            }
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Key { at, seq, slot }));
    }

    /// Remove and return the earliest event, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let at = self.peek_time()?;
        Some((at, self.take_earliest()))
    }

    /// Pop the earliest key and move its payload out of the slab: the
    /// payload's one copy. The caller has seen the queue non-empty.
    #[inline]
    pub(crate) fn take_earliest(&mut self) -> E {
        let Reverse(next) = self.heap.pop().expect("take_earliest on an empty queue");
        let payload = self.payloads[next.slot as usize]
            .take()
            .expect("slab slot empty on pop");
        self.free.push(next.slot);
        payload
    }

    /// Pop the earliest event **iff** its timestamp is at or before
    /// `horizon`; otherwise report why not. The pop itself is
    /// `take_earliest`, the same one `Engine::step` makes.
    #[inline]
    pub fn pop_at_most(&mut self, horizon: SimTime) -> PopAtMost<E> {
        match self.peek_time() {
            None => PopAtMost::Empty,
            Some(at) if at > horizon => PopAtMost::Later(at),
            Some(at) => PopAtMost::Popped(at, self.take_earliest()),
        }
    }

    /// The timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|&Reverse(k)| k.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The step and window span of the ladder calendar this queue
    /// replaced. Timestamps on and around its boundaries stay as regression
    /// data for the pop order.
    const STEP_PS: u64 = 8192;
    const SPAN_PS: u64 = 1024 * STEP_PS;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(30), "c");
        q.push(SimTime::from_ns(10), "a");
        q.push(SimTime::from_ns(20), "b");
        assert_eq!(q.pop(), Some((SimTime::from_ns(10), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_ns(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_ns(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_fifo_within_instant() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(1);
        q.push(t, 0);
        q.push(t, 1);
        assert_eq!(q.pop().unwrap().1, 0);
        q.push(t, 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_ns(7), ());
        q.push(SimTime::from_ns(3), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(3)));
        assert_eq!(q.pop(), Some((SimTime::from_ns(3), ())));
        assert_eq!(q.pop(), Some((SimTime::from_ns(7), ())));
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_cross_the_overflow_tier() {
        let mut q = EventQueue::new();
        // Milliseconds apart, interleaved with a nanosecond event.
        q.push(SimTime::from_ms(5), "far");
        q.push(SimTime::from_ns(1), "near");
        q.push(SimTime::from_ms(7), "farther");
        assert_eq!(q.pop(), Some((SimTime::from_ns(1), "near")));
        assert_eq!(q.pop(), Some((SimTime::from_ms(5), "far")));
        // Schedule between the popped and the pending far event.
        q.push(SimTime::from_ms(6), "mid");
        assert_eq!(q.pop(), Some((SimTime::from_ms(6), "mid")));
        assert_eq!(q.pop(), Some((SimTime::from_ms(7), "farther")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_before_window_still_pops_first() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ms(1), "late");
        assert_eq!(q.peek_time(), Some(SimTime::from_ms(1)));
        // A standalone queue may still push an earlier timestamp.
        q.push(SimTime::from_ns(3), "early");
        assert_eq!(q.pop(), Some((SimTime::from_ns(3), "early")));
        assert_eq!(q.pop(), Some((SimTime::from_ms(1), "late")));
    }

    #[test]
    fn slab_reuses_slots() {
        let mut q = EventQueue::new();
        for round in 0..10u64 {
            for i in 0..100u64 {
                q.push(SimTime::from_ns(round * 1000 + i), i);
            }
            for _ in 0..100 {
                q.pop().unwrap();
            }
        }
        // 1000 events total, but never more than 100 alive at once.
        assert!(q.payloads.len() <= 100, "slab grew: {}", q.payloads.len());
    }

    #[test]
    fn event_at_exact_window_span_boundary_lands_in_overflow() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ps(0), "filler");
        q.push(SimTime::from_ps(SPAN_PS), "boundary");
        q.push(SimTime::from_ps(SPAN_PS - 1), "last-in-window");
        assert_eq!(q.pop(), Some((SimTime::from_ps(0), "filler")));
        assert_eq!(
            q.pop(),
            Some((SimTime::from_ps(SPAN_PS - 1), "last-in-window"))
        );
        assert_eq!(q.pop(), Some((SimTime::from_ps(SPAN_PS), "boundary")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn window_boundary_after_slide_still_routes_to_overflow() {
        // The same boundary, measured from an unaligned later start.
        let mut q = EventQueue::new();
        let base = 5_000_000_123u64; // deliberately not step-aligned
        q.push(SimTime::from_ps(base), 0u32);
        q.push(SimTime::from_ps(base + 10), 1);
        assert_eq!(q.pop(), Some((SimTime::from_ps(base), 0)));
        let start = base & !(STEP_PS - 1);
        q.push(SimTime::from_ps(start + SPAN_PS), 2);
        q.push(SimTime::from_ps(start + SPAN_PS - 1), 3);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, vec![1, 3, 2]);
    }

    #[test]
    fn window_advance_near_u64_max_does_not_wrap() {
        // Timestamps in the last representable span, where `at + span`
        // would overflow: the order must stay exact.
        let mut q = EventQueue::new();
        let max = u64::MAX;
        let w = STEP_PS;
        let f = max - 2000 * w;
        let a = max - 900 * w;
        let b = max - (w - 1);
        q.push(SimTime::from_ps(f), "f");
        q.push(SimTime::from_ps(a), "a");
        q.push(SimTime::from_ps(b), "b");
        q.push(SimTime::MAX, "end");
        assert_eq!(q.pop(), Some((SimTime::from_ps(f), "f")));
        assert_eq!(q.pop(), Some((SimTime::from_ps(a), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_ps(b), "b")));
        assert_eq!(q.pop(), Some((SimTime::MAX, "end")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_at_most_horizon_is_inclusive_in_both_branches() {
        // A single pending event exactly at the horizon.
        let mut q = EventQueue::new();
        let h = SimTime::from_ns(100);
        q.push(h, "front");
        assert_eq!(q.pop_at_most(h), PopAtMost::Popped(h, "front"));
        // Several pending events, one before and one after the horizon.
        let mut q = EventQueue::new();
        q.push(h, "at-horizon");
        q.push(SimTime::from_ns(200), "after");
        q.push(SimTime::from_ns(50), "before");
        assert_eq!(
            q.pop_at_most(h),
            PopAtMost::Popped(SimTime::from_ns(50), "before")
        );
        assert_eq!(q.pop_at_most(h), PopAtMost::Popped(h, "at-horizon"));
        // Strictly-after stays queued and is reported with its timestamp.
        assert_eq!(q.pop_at_most(h), PopAtMost::Later(SimTime::from_ns(200)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn max_timestamp_is_representable() {
        let mut q = EventQueue::new();
        q.push(SimTime::MAX, "end");
        q.push(SimTime::ZERO, "start");
        assert_eq!(q.pop(), Some((SimTime::ZERO, "start")));
        assert_eq!(q.pop(), Some((SimTime::MAX, "end")));
        assert_eq!(q.pop(), None);
    }
}
