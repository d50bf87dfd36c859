//! The simulation run loop.
//!
//! [`Engine`] owns the clock and the calendar. The *world* (component state)
//! lives outside the engine and is threaded through the handler closure, so
//! components never need shared ownership of the engine — the handler
//! receives `&mut Engine` and may schedule freely while it runs. This is the
//! sans-IO shape used throughout the workspace.

use crate::event::{EventQueue, PopAtMost};
use crate::time::{SimDuration, SimTime};

/// Why a [`Engine::run`] call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The calendar drained: no events remain.
    Drained,
    /// [`Engine::stop`] was called from inside a handler.
    Stopped,
    /// The time horizon passed; remaining events are still queued.
    HorizonReached,
    /// The event-count safety limit was hit (almost certainly a livelock,
    /// e.g. a poller that never observes its flag).
    EventLimit,
}

/// Deterministic discrete-event engine.
///
/// ```
/// use gtn_sim::{Engine, SimTime, SimDuration};
///
/// // Count down from 3, rescheduling ourselves 10ns apart.
/// let mut engine: Engine<u32> = Engine::new();
/// engine.schedule_at(SimTime::ZERO, 3);
/// let mut fired = Vec::new();
/// engine.run(|eng, n| {
///     fired.push((eng.now(), n));
///     if n > 1 {
///         eng.schedule_after(SimDuration::from_ns(10), n - 1);
///     }
/// });
/// assert_eq!(fired.len(), 3);
/// assert_eq!(engine.now(), SimTime::from_ns(20));
/// ```
#[derive(Debug)]
pub struct Engine<E> {
    queue: EventQueue<E>,
    now: SimTime,
    processed: u64,
    stop_requested: bool,
    /// Hard cap on processed events per `run` family call; guards against
    /// pathological poll loops in misconfigured experiments.
    event_limit: u64,
    /// Events passed to [`Engine::schedule_at`] with a timestamp in the
    /// past. Debug builds assert; release builds clamp to `now` but count
    /// here so harnesses can surface the component bug instead of silently
    /// reordering causality.
    clamped_past_events: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Default per-run event cap. High enough for the 32-node Allreduce
    /// sweep, low enough to fail fast on a livelocked poller.
    pub const DEFAULT_EVENT_LIMIT: u64 = 500_000_000;

    /// A fresh engine at t = 0.
    pub fn new() -> Self {
        Engine {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
            stop_requested: false,
            event_limit: Self::DEFAULT_EVENT_LIMIT,
            clamped_past_events: 0,
        }
    }

    /// Override the safety event limit (mostly for tests).
    pub fn set_event_limit(&mut self, limit: u64) {
        self.event_limit = limit;
    }

    /// Current simulated time. Advances only as events fire.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of events currently pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Number of events scheduled with a timestamp in the past (and clamped
    /// to `now`). Always 0 in a healthy run; nonzero means a component
    /// computed a retro-causal delay somewhere.
    pub fn clamped_past_events(&self) -> u64 {
        self.clamped_past_events
    }

    /// Schedule `payload` at the absolute instant `at`.
    ///
    /// # Panics
    /// Debug-asserts that `at` is not in the past: retro-causal scheduling is
    /// always a component bug.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: {at} < {}",
            self.now
        );
        if at < self.now {
            self.clamped_past_events += 1;
        }
        self.queue.push(at.max(self.now), payload);
    }

    /// Schedule `payload` to fire `delay` after the current instant.
    pub fn schedule_after(&mut self, delay: SimDuration, payload: E) {
        self.queue.push(self.now + delay, payload);
    }

    /// Schedule `payload` to fire at the current instant, after every event
    /// already queued for this instant (FIFO).
    pub fn schedule_now(&mut self, payload: E) {
        self.queue.push(self.now, payload);
    }

    /// Request that the current `run` call return after this handler.
    pub fn stop(&mut self) {
        self.stop_requested = true;
    }

    /// Pop the next event, advancing the clock to its timestamp. The
    /// payload moves out of the calendar once, straight into the result.
    #[inline]
    pub fn step(&mut self) -> Option<(SimTime, E)> {
        let at = self.queue.peek_time()?;
        debug_assert!(at >= self.now, "calendar went backwards");
        self.now = at;
        self.processed += 1;
        Some((at, self.queue.take_earliest()))
    }

    /// Run until the calendar drains or a handler calls [`Engine::stop`].
    pub fn run(&mut self, mut handler: impl FnMut(&mut Self, E)) -> RunOutcome {
        self.run_until(SimTime::MAX, &mut handler)
    }

    /// Run until the calendar drains, `stop` is called, or the next event
    /// would fire strictly after `horizon`.
    ///
    /// # Horizon semantics (normative)
    ///
    /// The horizon is **inclusive**: an event timestamped *exactly* at
    /// `horizon` fires; the first event strictly after it stays queued and
    /// the clock parks at `horizon` so back-to-back calls compose. This is
    /// the single documented semantic shared with the calendar's
    /// [`crate::event::EventQueue::pop_at_most`] — callers that need an
    /// *exclusive* bound pass `bound - 1 ps` rather than relying on any
    /// off-by-one here. Each event is popped the way [`Engine::step`] pops
    /// it.
    pub fn run_until(
        &mut self,
        horizon: SimTime,
        mut handler: impl FnMut(&mut Self, E),
    ) -> RunOutcome {
        self.stop_requested = false;
        let budget_start = self.processed;
        loop {
            let payload = match self.queue.pop_at_most(horizon) {
                PopAtMost::Empty => return RunOutcome::Drained,
                PopAtMost::Later(_) => {
                    // Leave the pending events queued; advance the clock to
                    // the horizon so back-to-back `run_until` calls compose.
                    self.now = horizon.max(self.now);
                    return RunOutcome::HorizonReached;
                }
                PopAtMost::Popped(at, payload) => {
                    debug_assert!(at >= self.now, "calendar went backwards");
                    self.now = at;
                    self.processed += 1;
                    payload
                }
            };
            handler(self, payload);
            if self.stop_requested {
                return RunOutcome::Stopped;
            }
            if self.processed - budget_start >= self.event_limit {
                return RunOutcome::EventLimit;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drains_in_order_and_advances_clock() {
        let mut eng: Engine<u8> = Engine::new();
        eng.schedule_at(SimTime::from_ns(20), 2);
        eng.schedule_at(SimTime::from_ns(10), 1);
        let mut seen = Vec::new();
        let outcome = eng.run(|e, v| seen.push((e.now(), v)));
        assert_eq!(outcome, RunOutcome::Drained);
        assert_eq!(
            seen,
            vec![(SimTime::from_ns(10), 1), (SimTime::from_ns(20), 2)]
        );
        assert_eq!(eng.events_processed(), 2);
    }

    #[test]
    fn handler_can_schedule_more() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule_at(SimTime::ZERO, 0);
        let mut count = 0;
        eng.run(|e, v| {
            count += 1;
            if v < 9 {
                e.schedule_after(SimDuration::from_ns(1), v + 1);
            }
        });
        assert_eq!(count, 10);
        assert_eq!(eng.now(), SimTime::from_ns(9));
    }

    #[test]
    fn stop_returns_early() {
        let mut eng: Engine<u32> = Engine::new();
        for i in 0..10 {
            eng.schedule_at(SimTime::from_ns(i), i as u32);
        }
        let mut seen = 0;
        let outcome = eng.run(|e, v| {
            seen += 1;
            if v == 4 {
                e.stop();
            }
        });
        assert_eq!(outcome, RunOutcome::Stopped);
        assert_eq!(seen, 5);
        assert_eq!(eng.pending(), 5);
    }

    #[test]
    fn horizon_is_inclusive_and_composes() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule_at(SimTime::from_ns(10), 1);
        eng.schedule_at(SimTime::from_ns(20), 2);
        let mut seen = Vec::new();
        let outcome = eng.run_until(SimTime::from_ns(10), |_, v| seen.push(v));
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert_eq!(seen, vec![1]);
        assert_eq!(eng.now(), SimTime::from_ns(10));
        let outcome = eng.run_until(SimTime::from_ns(30), |_, v| seen.push(v));
        assert_eq!(outcome, RunOutcome::Drained);
        assert_eq!(seen, vec![1, 2]);
    }

    #[test]
    fn event_exactly_at_lookahead_horizon_fires_in_both_calendar_branches() {
        // Regression for the horizon boundary: an event timestamped
        // exactly at the horizon must fire (inclusive), and one at
        // horizon + 1 ps must not — with a single pending event and with
        // several.
        let horizon = SimTime::from_ns(200);
        // A single pending event.
        let mut eng: Engine<&str> = Engine::new();
        eng.schedule_at(horizon, "at");
        let mut seen = Vec::new();
        assert_eq!(
            eng.run_until(horizon, |_, v| seen.push(v)),
            RunOutcome::Drained
        );
        assert_eq!(seen, vec!["at"]);
        // Several, with a strictly-later event that must stay queued.
        let mut eng: Engine<&str> = Engine::new();
        eng.schedule_at(SimTime::from_ns(10), "early");
        eng.schedule_at(horizon, "at");
        eng.schedule_at(SimTime::from_ps(horizon.as_ps() + 1), "after");
        let mut seen = Vec::new();
        assert_eq!(
            eng.run_until(horizon, |_, v| seen.push(v)),
            RunOutcome::HorizonReached
        );
        assert_eq!(seen, vec!["early", "at"]);
        assert_eq!(eng.pending(), 1);
        assert_eq!(eng.now(), horizon);
        // The exclusive-bound idiom: bound - 1 ps leaves the
        // exactly-at-bound event for the next call.
        let mut eng: Engine<&str> = Engine::new();
        eng.schedule_at(horizon, "at-bound");
        let mut seen = Vec::new();
        let before = SimTime::from_ps(horizon.as_ps() - 1);
        assert_eq!(
            eng.run_until(before, |_, v| seen.push(v)),
            RunOutcome::HorizonReached
        );
        assert!(seen.is_empty());
        assert_eq!(eng.pending(), 1);
    }

    #[test]
    fn event_limit_detects_livelock() {
        let mut eng: Engine<()> = Engine::new();
        eng.set_event_limit(1000);
        eng.schedule_at(SimTime::ZERO, ());
        let outcome = eng.run(|e, ()| e.schedule_after(SimDuration::from_ns(1), ()));
        assert_eq!(outcome, RunOutcome::EventLimit);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduled in the past")]
    fn retro_causal_schedule_asserts_in_debug() {
        let mut eng: Engine<u8> = Engine::new();
        eng.schedule_at(SimTime::from_ns(10), 1);
        eng.run(|e, _| e.schedule_at(SimTime::from_ns(5), 2));
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn retro_causal_schedule_is_clamped_and_counted_in_release() {
        let mut eng: Engine<u8> = Engine::new();
        eng.schedule_at(SimTime::from_ns(10), 1);
        let mut seen = Vec::new();
        eng.run(|e, v| {
            seen.push((e.now(), v));
            if v == 1 {
                e.schedule_at(SimTime::from_ns(5), 2); // 5ns < now=10ns
            }
        });
        assert_eq!(eng.clamped_past_events(), 1);
        // The clamped event fired at `now`, not in the past.
        assert_eq!(
            seen,
            vec![(SimTime::from_ns(10), 1), (SimTime::from_ns(10), 2)]
        );
    }

    #[test]
    fn clamped_counter_starts_at_zero_and_ignores_valid_schedules() {
        let mut eng: Engine<u8> = Engine::new();
        eng.schedule_at(SimTime::from_ns(1), 1);
        eng.schedule_after(SimDuration::from_ns(2), 2);
        eng.run(|_, _| {});
        assert_eq!(eng.clamped_past_events(), 0);
    }

    #[test]
    fn schedule_now_fires_fifo_after_current_instant_events() {
        let mut eng: Engine<&'static str> = Engine::new();
        eng.schedule_at(SimTime::ZERO, "first");
        eng.schedule_at(SimTime::ZERO, "second");
        let mut seen = Vec::new();
        eng.run(|e, v| {
            seen.push(v);
            if v == "first" {
                e.schedule_now("injected");
            }
        });
        assert_eq!(seen, vec!["first", "second", "injected"]);
    }
}
