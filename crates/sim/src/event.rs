//! The event calendar: a priority queue of `(time, seq, payload)` triples.
//!
//! Determinism is a hard requirement for this reproduction — the evaluation
//! harness compares latency decompositions at nanosecond granularity and the
//! property-test suite replays interleavings — so ordering is total: events
//! at the same instant fire in the order they were scheduled (FIFO by a
//! monotonically increasing sequence number).
//!
//! ## Two-tier structure
//!
//! The calendar used to be a single `BinaryHeap`, which costs `O(log n)`
//! sift work (and the attendant cache misses) on *every* schedule and pop.
//! Simulation wall-clock is the limiting factor on sweep size, so the hot
//! path is now a **bucket ladder** backed by a **far-future overflow heap**:
//!
//! - **Near tier.** A ring of `N_BUCKETS` (1024) buckets, each covering
//!   `BUCKET_WIDTH_PS` (8192) picoseconds, spans a sliding window starting at
//!   `window_start`. An event inside the window is appended to its bucket in
//!   O(1). A bucket is only sorted (by `(time, seq)`, descending so pops
//!   come off the tail) when the cursor reaches it, so the common case is
//!   append + one amortized sort instead of per-event heap sifts.
//! - **Far tier.** Events beyond the window land in a small binary heap.
//!   Whenever the window slides forward, every overflow event that now
//!   falls inside it migrates into its bucket — each event migrates at most
//!   once, so the far tier costs what the old heap did and the near tier
//!   costs O(1) amortized.
//! - **Payload slab.** Bucket entries and heap nodes are 24-byte
//!   `(time, seq, slot)` keys; payloads live in a slab with a free list.
//!   Sorting and sifting move small `Copy` keys, never the payload, and a
//!   schedule reuses a freed slot instead of allocating.
//!
//! ## Ordering invariant
//!
//! The pop order is **exactly** the old heap's: ascending `(time, seq)`
//! over the pending set. This holds because (a) every ladder event precedes
//! every overflow event in time (the window is contiguous and overflow is
//! strictly beyond it), (b) buckets drain in window order and each bucket
//! is sorted by `(time, seq)` before draining, and (c) an event pushed with
//! a timestamp *before* the window (legal for a standalone queue; the
//! engine clamps to `now` first) is placed in the cursor bucket, which is
//! the next to drain and is kept sorted, so it still pops ahead of every
//! later-timestamped pending event. `tests/proptest_calendar.rs` checks
//! this equivalence against a reference `BinaryHeap` model.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Number of buckets in the near-future ladder (must be a power of two).
const N_BUCKETS: usize = 1024;

/// log2 of the bucket width in picoseconds: 8192 ps ≈ 8 ns per bucket,
/// so the ladder window spans ~8.4 µs — wide enough that NIC pollers, ARQ
/// timers, and link/DMA latencies all take the O(1) path, while multi-µs
/// wire times for large messages fall through to the overflow heap.
const BUCKET_SHIFT: u32 = 13;

/// Width of one ladder bucket in picoseconds.
const BUCKET_WIDTH_PS: u64 = 1 << BUCKET_SHIFT;

/// Total picosecond span of the ladder window. An event at exactly
/// `window_start + WINDOW_SPAN_PS` is the first timestamp *outside* the
/// window: it must route to the overflow heap, never wrap into a ring
/// bucket that still covers older times (`insert` checks `rel < N_BUCKETS`,
/// and `rel == N_BUCKETS` is precisely this boundary).
pub const WINDOW_SPAN_PS: u64 = N_BUCKETS as u64 * BUCKET_WIDTH_PS;

/// Words in the bucket-occupancy bitmap.
const BITMAP_WORDS: usize = N_BUCKETS / 64;

/// A calendar entry: the ordering key plus the slab slot of the payload.
#[derive(Debug, Clone, Copy)]
struct Entry {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl Entry {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first from the overflow tier.
        other.key().cmp(&self.key())
    }
}

/// Result of [`EventQueue::pop_at_most`].
///
/// # Horizon semantics (normative)
///
/// The horizon is **inclusive**: an event timestamped *exactly* at the
/// horizon pops; only events *strictly after* it report [`PopAtMost::Later`].
/// Both branches of the fused hot loop (the front cache and the tier path)
/// implement this one semantic, and [`crate::engine::Engine::run_until`]
/// inherits it. A caller that needs an exclusive bound passes
/// `bound - 1 ps`.
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

/// One ladder bucket: entries plus a lazily-maintained sort flag.
///
/// `sorted` means "descending by `(time, seq)`" — the minimum is at the
/// tail so draining is `Vec::pop`. Future buckets accumulate unsorted
/// appends; the flag is set when the cursor reaches the bucket (one
/// `sort_unstable` amortized over its contents) and cleared when the
/// bucket empties so a reused bucket starts cheap again.
#[derive(Debug, Default)]
struct Bucket {
    entries: Vec<Entry>,
    sorted: bool,
}

impl Bucket {
    #[inline]
    fn place(&mut self, e: Entry) {
        if self.sorted {
            // Already draining: keep the descending order intact.
            let pos = self.entries.partition_point(|x| x.key() > e.key());
            self.entries.insert(pos, e);
        } else {
            self.entries.push(e);
        }
    }
}

/// A deterministic min-queue of timestamped events.
///
/// This is deliberately separate from [`crate::engine::Engine`] so it can be
/// property-tested in isolation and reused by components that keep private
/// sub-calendars (the NIC's trigger FIFO replays through one).
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Front cache: filled only when a push finds the queue empty, holding
    /// that event inline (no slab slot, no bucket entry). The dominant
    /// one-pending-event self-reschedule pattern (a poller re-arming
    /// itself) therefore never touches the tiers at all. The front event
    /// is *not* guaranteed to be the minimum — pops compare its
    /// `(time, seq)` key against the tier minimum and take the smaller.
    front: Option<(SimTime, u64, E)>,
    /// Near tier: ring of buckets over `[window_start, window_start + 1024·8192 ps)`.
    buckets: Vec<Bucket>,
    /// Occupancy bitmap over `buckets` (physical ring indices).
    occupied: [u64; BITMAP_WORDS],
    /// Physical ring index of the bucket covering `window_start`.
    cursor: usize,
    /// Picosecond timestamp of the start of the cursor bucket.
    window_start: u64,
    /// Events currently in the ladder.
    ladder_len: usize,
    /// Far tier: events beyond the ladder window.
    overflow: BinaryHeap<Entry>,
    /// Payload slab, indexed by `Entry::slot`.
    payloads: Vec<Option<E>>,
    /// Free slots in `payloads`.
    free: Vec<u32>,
    next_seq: u64,
    len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue with pre-reserved payload capacity.
    pub fn with_capacity(cap: usize) -> Self {
        let mut buckets = Vec::with_capacity(N_BUCKETS);
        buckets.resize_with(N_BUCKETS, Bucket::default);
        EventQueue {
            front: None,
            buckets,
            occupied: [0; BITMAP_WORDS],
            cursor: 0,
            window_start: 0,
            ladder_len: 0,
            overflow: BinaryHeap::new(),
            payloads: Vec::with_capacity(cap),
            free: Vec::new(),
            next_seq: 0,
            len: 0,
        }
    }

    /// Schedule `payload` to fire at absolute instant `at`.
    #[inline]
    pub fn push(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        if self.len == 1 {
            // Queue was empty: cache the event inline. The dominant
            // self-reschedule pattern (one pending poller/timer event)
            // stays entirely within this slot.
            self.front = Some((at, seq, payload));
            return;
        }
        let slot = self.alloc(payload);
        self.insert(Entry { at, seq, slot });
    }

    /// Schedule alias used by the engine's self-reschedule fast path
    /// ([`crate::engine::Engine::schedule_after`]). Ordering-equivalent to
    /// [`EventQueue::push`]; the fast path itself is the front cache plus
    /// the O(1) ladder bucket placement.
    #[inline]
    pub fn push_near(&mut self, at: SimTime, payload: E) {
        self.push(at, payload);
    }

    /// Place an already-keyed entry into the correct tier.
    #[inline]
    fn insert(&mut self, e: Entry) {
        let t = e.at.as_ps();
        if t >= self.window_start {
            let rel = (t - self.window_start) >> BUCKET_SHIFT;
            if (rel as usize) < N_BUCKETS {
                let idx = (self.cursor + rel as usize) & (N_BUCKETS - 1);
                self.buckets[idx].place(e);
                self.occupied[idx / 64] |= 1 << (idx % 64);
                self.ladder_len += 1;
            } else {
                self.overflow.push(e);
            }
        } else {
            // Before the window: legal for a standalone queue (the engine
            // clamps to `now` first). The cursor bucket drains next and is
            // kept sorted, so placing the entry there preserves the global
            // ascending-(time, seq) pop order over the pending set.
            self.buckets[self.cursor].place(e);
            self.occupied[self.cursor / 64] |= 1 << (self.cursor % 64);
            self.ladder_len += 1;
        }
    }

    #[inline]
    fn alloc(&mut self, payload: E) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.payloads[slot as usize] = Some(payload);
                slot
            }
            None => {
                let slot = u32::try_from(self.payloads.len()).expect("slab slot overflow");
                self.payloads.push(Some(payload));
                slot
            }
        }
    }

    /// Advance the window/cursor so the cursor bucket holds the earliest
    /// pending event, sorted and ready to drain. No-op when empty.
    #[inline]
    fn normalize(&mut self) {
        if self.ladder_len == 0 && self.overflow.is_empty() {
            return;
        }
        if self.ladder_len == 0 {
            // Jump the window to the earliest overflow event.
            let t_min = self.overflow.peek().expect("len>0 with empty tiers").at;
            self.window_start = t_min.as_ps() & !(BUCKET_WIDTH_PS - 1);
            self.cursor = 0;
            self.migrate_overflow();
        } else if self.buckets[self.cursor].entries.is_empty() {
            let next = self
                .next_occupied_after_cursor()
                .expect("ladder_len>0 with empty bitmap");
            let advanced = (next + N_BUCKETS - self.cursor) & (N_BUCKETS - 1);
            self.cursor = next;
            // The advance lands `window_start` on the base of an occupied
            // bucket, which holds at least one entry with `t >= new start`
            // (a before-window entry can only sit in the *old* cursor
            // bucket, and that one is empty or we would not advance) — so
            // the add cannot exceed `u64::MAX`. A silent `saturating_add`
            // here would break the `window_start`/bucket alignment and
            // wrap later inserts into stale buckets; fail loudly instead.
            self.window_start = self
                .window_start
                .checked_add(advanced as u64 * BUCKET_WIDTH_PS)
                .expect("ladder window advanced past u64::MAX ps");
            self.migrate_overflow();
        }
        let cur = &mut self.buckets[self.cursor];
        if !cur.sorted {
            if cur.entries.len() > 1 {
                cur.entries
                    .sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
            }
            cur.sorted = true;
        }
    }

    /// Pull every overflow event that now falls inside the window into its
    /// bucket. Migrated events are always later than every ladder event
    /// that predates the slide, so the drain order is unaffected.
    fn migrate_overflow(&mut self) {
        while let Some(top) = self.overflow.peek() {
            let t = top.at.as_ps();
            // Overflow events are strictly beyond the pre-slide window, and
            // the window only moves forward to at most the earliest pending
            // timestamp, so t can never precede the new window. If that
            // invariant ever broke, a wrapping subtraction would scatter the
            // entry into an arbitrary stale bucket; route it to the cursor
            // bucket instead (rel = 0), which is sorted before draining and
            // therefore preserves the global pop order — the same treatment
            // `insert` gives a before-window push.
            debug_assert!(t >= self.window_start, "overflow entry precedes window");
            let rel = t.saturating_sub(self.window_start) >> BUCKET_SHIFT;
            if rel as usize >= N_BUCKETS {
                break;
            }
            let e = self.overflow.pop().expect("peeked entry vanished");
            let idx = (self.cursor + rel as usize) & (N_BUCKETS - 1);
            self.buckets[idx].place(e);
            self.occupied[idx / 64] |= 1 << (idx % 64);
            self.ladder_len += 1;
        }
    }

    /// First occupied physical bucket strictly or equal after the cursor in
    /// ring order (the cursor bucket itself is known empty when called).
    fn next_occupied_after_cursor(&self) -> Option<usize> {
        let start = self.cursor;
        // Search the word containing `start` masked to bits >= start,
        // then subsequent words, wrapping once.
        let (sw, sb) = (start / 64, start % 64);
        let first = self.occupied[sw] & (!0u64 << sb);
        if first != 0 {
            return Some(sw * 64 + first.trailing_zeros() as usize);
        }
        for step in 1..=BITMAP_WORDS {
            let w = (sw + step) % BITMAP_WORDS;
            let bits = if w == sw {
                // Wrapped to the starting word: only bits < start remain.
                self.occupied[sw] & !(!0u64 << sb)
            } else {
                self.occupied[w]
            };
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        match self.pop_at_most(SimTime::MAX) {
            PopAtMost::Popped(at, payload) => Some((at, payload)),
            PopAtMost::Empty => None,
            PopAtMost::Later(_) => unreachable!("nothing is later than SimTime::MAX"),
        }
    }

    /// Pop the earliest pending entry from the (normalized) cursor bucket.
    #[inline]
    fn pop_cursor(&mut self) -> (SimTime, E) {
        let cur = &mut self.buckets[self.cursor];
        let e = cur.entries.pop().expect("normalize left cursor empty");
        if cur.entries.is_empty() {
            cur.sorted = false;
            self.occupied[self.cursor / 64] &= !(1 << (self.cursor % 64));
        }
        self.ladder_len -= 1;
        self.len -= 1;
        let payload = self.payloads[e.slot as usize]
            .take()
            .expect("slab slot empty on pop");
        self.free.push(e.slot);
        (e.at, payload)
    }

    /// Pop the earliest event **iff** its timestamp is at or before
    /// `horizon`; otherwise report why not. This fuses the engine's
    /// peek-then-pop loop into one calendar normalization per event — the
    /// run loop's hot path.
    #[inline]
    pub fn pop_at_most(&mut self, horizon: SimTime) -> PopAtMost<E> {
        if let Some(&(fat, fseq, _)) = self.front.as_ref() {
            // Tiers are non-empty iff another event exists besides front.
            if self.len > 1 {
                self.normalize();
                let tail = *self.buckets[self.cursor]
                    .entries
                    .last()
                    .expect("normalize left cursor empty");
                if (tail.at, tail.seq) < (fat, fseq) {
                    if tail.at > horizon {
                        return PopAtMost::Later(tail.at);
                    }
                    let (at, payload) = self.pop_cursor();
                    return PopAtMost::Popped(at, payload);
                }
            }
            if fat > horizon {
                return PopAtMost::Later(fat);
            }
            let (at, _, payload) = self.front.take().expect("front vanished");
            self.len -= 1;
            return PopAtMost::Popped(at, payload);
        }
        if self.len == 0 {
            return PopAtMost::Empty;
        }
        self.normalize();
        let next = self.buckets[self.cursor]
            .entries
            .last()
            .expect("normalize left cursor empty")
            .at;
        if next > horizon {
            return PopAtMost::Later(next);
        }
        let (at, payload) = self.pop_cursor();
        PopAtMost::Popped(at, payload)
    }

    /// The timestamp of the earliest pending event.
    ///
    /// Takes `&mut self` because peeking may slide the ladder window to the
    /// next occupied bucket (an internal reorganisation; the pending set
    /// and its pop order are unchanged).
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if let Some(&(fat, _, _)) = self.front.as_ref() {
            if self.len > 1 {
                self.normalize();
                let tier = self.buckets[self.cursor]
                    .entries
                    .last()
                    .expect("normalize left cursor empty")
                    .at;
                return Some(tier.min(fat));
            }
            return Some(fat);
        }
        if self.len == 0 {
            return None;
        }
        self.normalize();
        self.buckets[self.cursor].entries.last().map(|e| e.at)
    }

    /// The earliest pending event's timestamp and a borrow of its payload,
    /// without removing it. The entry returned is exactly the one the next
    /// [`EventQueue::pop`] would yield (minimum `(time, seq)`).
    ///
    /// Takes `&mut self` for the same reason as [`EventQueue::peek_time`]:
    /// peeking may slide the ladder window (pending set unchanged).
    pub fn peek(&mut self) -> Option<(SimTime, &E)> {
        if self.front.is_some() {
            if self.len > 1 {
                self.normalize();
                let tail = *self.buckets[self.cursor]
                    .entries
                    .last()
                    .expect("normalize left cursor empty");
                let &(fat, fseq, _) = self.front.as_ref().expect("front vanished");
                if (tail.at, tail.seq) < (fat, fseq) {
                    let payload = self.payloads[tail.slot as usize]
                        .as_ref()
                        .expect("slab slot empty on peek");
                    return Some((tail.at, payload));
                }
            }
            return self.front.as_ref().map(|(at, _, p)| (*at, p));
        }
        if self.len == 0 {
            return None;
        }
        self.normalize();
        let tail = *self.buckets[self.cursor]
            .entries
            .last()
            .expect("normalize left cursor empty");
        let payload = self.payloads[tail.slot as usize]
            .as_ref()
            .expect("slab slot empty on peek");
        Some((tail.at, payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever scheduled (the next sequence number).
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Drop all pending events (sequence numbering continues).
    pub fn clear(&mut self) {
        self.front = None;
        for b in &mut self.buckets {
            b.entries.clear();
            b.sorted = false;
        }
        self.occupied = [0; BITMAP_WORDS];
        self.overflow.clear();
        self.payloads.clear();
        self.free.clear();
        self.ladder_len = 0;
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn far_future_events_cross_the_overflow_tier() {
        let mut q = EventQueue::new();
        // Far beyond the ~8.4 µs ladder window.
        q.push(SimTime::from_ms(5), "far");
        q.push(SimTime::from_ns(1), "near");
        q.push(SimTime::from_ms(7), "farther");
        assert_eq!(q.pop(), Some((SimTime::from_ns(1), "near")));
        assert_eq!(q.pop(), Some((SimTime::from_ms(5), "far")));
        // After the window jumped to 5 ms, schedule nearby again.
        q.push(SimTime::from_ms(6), "mid");
        assert_eq!(q.pop(), Some((SimTime::from_ms(6), "mid")));
        assert_eq!(q.pop(), Some((SimTime::from_ms(7), "farther")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_before_window_still_pops_first() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ms(1), "late");
        // Peeking slides the window to ~1 ms.
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
        assert_eq!(q.scheduled_total(), 1000);
        assert!(q.payloads.len() <= 100, "slab grew: {}", q.payloads.len());
    }

    #[test]
    fn push_near_matches_push_ordering() {
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        let times = [5u64, 1, 9, 1, 5_000_000, 3, 5_000_000, 2];
        for (i, &t) in times.iter().enumerate() {
            a.push(SimTime::from_ns(t), i);
            b.push_near(SimTime::from_ns(t), i);
        }
        loop {
            let (x, y) = (a.pop(), b.pop());
            assert_eq!(x, y);
            if x.is_none() {
                break;
            }
        }
    }

    #[test]
    fn event_at_exact_window_span_boundary_lands_in_overflow() {
        // Fresh queue: window starts at 0. The first timestamp outside the
        // ladder is exactly WINDOW_SPAN_PS; it must go to the overflow heap
        // (rel == N_BUCKETS), never wrap into ring bucket 0.
        let mut q = EventQueue::new();
        q.push(SimTime::from_ps(0), "filler"); // occupy front cache
        q.push(SimTime::from_ps(WINDOW_SPAN_PS), "boundary");
        q.push(SimTime::from_ps(WINDOW_SPAN_PS - 1), "last-in-window");
        assert_eq!(q.overflow.len(), 1, "boundary event must be in overflow");
        assert_eq!(q.pop(), Some((SimTime::from_ps(0), "filler")));
        assert_eq!(
            q.pop(),
            Some((SimTime::from_ps(WINDOW_SPAN_PS - 1), "last-in-window"))
        );
        assert_eq!(
            q.pop(),
            Some((SimTime::from_ps(WINDOW_SPAN_PS), "boundary"))
        );
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn window_boundary_after_slide_still_routes_to_overflow() {
        // Slide the window to an arbitrary (unaligned) time first, then
        // exercise the boundary relative to the *slid* window.
        let mut q = EventQueue::new();
        let base = 5_000_000_123u64; // deliberately not bucket-aligned
        q.push(SimTime::from_ps(base), 0u32);
        q.push(SimTime::from_ps(base + 10), 1);
        // Draining the first event jumps the window to the earliest
        // remaining event: start = base rounded down to a bucket boundary.
        assert_eq!(q.pop(), Some((SimTime::from_ps(base), 0)));
        let start = base & !(BUCKET_WIDTH_PS - 1);
        // The first ps past the slid window is start + WINDOW_SPAN_PS.
        q.push(SimTime::from_ps(start + WINDOW_SPAN_PS), 2);
        q.push(SimTime::from_ps(start + WINDOW_SPAN_PS - 1), 3);
        assert_eq!(q.overflow.len(), 1);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, vec![1, 3, 2]);
    }

    #[test]
    fn window_advance_near_u64_max_does_not_wrap() {
        // Jump the window into the last representable span (its nominal end
        // lies beyond u64::MAX), then force a cursor *advance* inside it:
        // the window-start arithmetic must stay exact, not saturate or wrap.
        let mut q = EventQueue::new();
        let max = u64::MAX;
        let w = BUCKET_WIDTH_PS;
        let f = max - 2000 * w; // front cache (earliest)
        let a = max - 900 * w; // overflow; the jump target
        let b = max - (w - 1); // overflow; bucket 900 after the jump
        q.push(SimTime::from_ps(f), "f");
        q.push(SimTime::from_ps(a), "a");
        q.push(SimTime::from_ps(b), "b");
        q.push(SimTime::MAX, "end");
        assert_eq!(q.overflow.len(), 3);
        assert_eq!(q.pop(), Some((SimTime::from_ps(f), "f")));
        assert_eq!(q.pop(), Some((SimTime::from_ps(a), "a")));
        // Bucket 0 just drained; this pop advances the cursor ~900 buckets,
        // landing window_start at max - (w - 1) without overflow.
        assert_eq!(q.pop(), Some((SimTime::from_ps(b), "b")));
        assert_eq!(q.pop(), Some((SimTime::MAX, "end")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_at_most_horizon_is_inclusive_in_both_branches() {
        // Front-cache branch: single pending event exactly at the horizon.
        let mut q = EventQueue::new();
        let h = SimTime::from_ns(100);
        q.push(h, "front");
        assert_eq!(q.pop_at_most(h), PopAtMost::Popped(h, "front"));
        // Tier branch: several pending events force the ladder path.
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
    fn peek_matches_pop_across_tiers_and_ties() {
        let mut q = EventQueue::new();
        let times = [7u64, 3, 3, 9_000_000, 3, 12, 9_000_000, 1];
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_ns(t), i);
        }
        while !q.is_empty() {
            let (pt, &pv) = q.peek().expect("non-empty");
            let (at, v) = q.pop().expect("non-empty");
            assert_eq!((pt, pv), (at, v));
        }
        assert_eq!(q.peek(), None);
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
