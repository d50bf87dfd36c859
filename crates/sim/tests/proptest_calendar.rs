//! Property tests pinning the calendar (`EventQueue`) and the `Engine` run
//! loop to a reference model: a plain pending set popped in ascending
//! `(time, seq)` order. That order is the simulator's one ordering
//! contract; every latency decomposition depends on it.
//!
//! Timestamps mix a near range (many ties within 20 ns) with a far one (up
//! to 0.5 ms). The boundary generator keeps the timestamps that straddled
//! the window edges of the bucket ladder the heap replaced, and the top of
//! the `u64` range.

use gtn_sim::engine::{Engine, RunOutcome};
use gtn_sim::event::{EventQueue, PopAtMost};
use gtn_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

/// Reference model: the pending set, popped min-first by `(time, seq)`.
struct Reference {
    pending: Vec<(SimTime, u64, usize)>,
    next_seq: u64,
}

impl Reference {
    fn new() -> Self {
        Reference {
            pending: Vec::new(),
            next_seq: 0,
        }
    }

    fn push(&mut self, at: SimTime, payload: usize) {
        self.pending.push((at, self.next_seq, payload));
        self.next_seq += 1;
    }

    fn min_key(&self) -> Option<(SimTime, u64)> {
        self.pending.iter().map(|&(t, s, _)| (t, s)).min()
    }

    fn pop(&mut self) -> Option<(SimTime, usize)> {
        let key = self.min_key()?;
        let i = self
            .pending
            .iter()
            .position(|&(t, s, _)| (t, s) == key)
            .unwrap();
        let (t, _, p) = self.pending.remove(i);
        Some((t, p))
    }
}

/// Mixed near/far timestamp: `!far` lands within 20 ns with many ties,
/// `far` anywhere in the first 0.5 ms.
fn at(raw: u64, far: bool) -> SimTime {
    if far {
        SimTime::from_ps(raw % 500_000_000)
    } else {
        SimTime::from_ps(raw % 20_000)
    }
}

proptest! {
    /// Drain-after-fill: arbitrary schedules (ties, both tiers) pop in
    /// exactly the reference order.
    #[test]
    fn pops_match_reference_model(
        events in prop::collection::vec((0u64..u64::MAX, any::<bool>()), 1..300),
    ) {
        let mut q = EventQueue::new();
        let mut model = Reference::new();
        for (i, &(raw, far)) in events.iter().enumerate() {
            q.push(at(raw, far), i);
            model.push(at(raw, far), i);
        }
        loop {
            let got = q.pop();
            let want = model.pop();
            prop_assert_eq!(got, want);
            if want.is_none() {
                break;
            }
        }
        prop_assert!(q.is_empty());
    }

    /// Interleaved pushes and pops (the standalone-queue contract, which is
    /// broader than the engine's monotonic use: pushes may land before
    /// already-popped instants and must still pop in pending-set order).
    #[test]
    fn interleaved_push_pop_matches_reference(
        ops in prop::collection::vec((0u64..u64::MAX, any::<bool>(), any::<bool>()), 1..300),
    ) {
        let mut q = EventQueue::new();
        let mut model = Reference::new();
        let mut payload = 0usize;
        for &(raw, far, is_pop) in &ops {
            if is_pop {
                prop_assert_eq!(q.pop(), model.pop());
            } else {
                q.push(at(raw, far), payload);
                model.push(at(raw, far), payload);
                payload += 1;
            }
            prop_assert_eq!(q.len(), model.pending.len());
            prop_assert_eq!(q.peek_time(), model.min_key().map(|(t, _)| t));
        }
        while let Some(want) = model.pop() {
            prop_assert_eq!(q.pop(), Some(want));
        }
        prop_assert_eq!(q.pop(), None);
    }

    /// `pop_at_most` agrees with the reference at every horizon: it pops
    /// exactly the events at or before the horizon (in order), reports the
    /// earliest later event otherwise, and drains to `Empty`.
    #[test]
    fn pop_at_most_respects_horizon_boundary(
        events in prop::collection::vec((0u64..u64::MAX, any::<bool>()), 1..200),
        step in 1u64..3_000,
    ) {
        let mut q = EventQueue::new();
        let mut model = Reference::new();
        for (i, &(raw, far)) in events.iter().enumerate() {
            q.push(at(raw, far), i);
            model.push(at(raw, far), i);
        }
        let mut horizon = SimTime::ZERO;
        let mut probed = false;
        loop {
            match q.pop_at_most(horizon) {
                PopAtMost::Empty => {
                    prop_assert!(model.min_key().is_none());
                    break;
                }
                PopAtMost::Later(next) => {
                    let (t, _) = model.min_key().expect("model has a later event too");
                    prop_assert_eq!(next, t);
                    prop_assert!(t > horizon);
                    // Probe one horizon strictly between here and the next
                    // event (must pop nothing), then jump to it exactly.
                    let probe = SimTime::from_ps(horizon.as_ps().saturating_add(step));
                    if probe < t && !probed {
                        horizon = probe;
                        probed = true;
                    } else {
                        horizon = t;
                        probed = false;
                    }
                }
                PopAtMost::Popped(t2, p) => {
                    prop_assert!(t2 <= horizon);
                    prop_assert_eq!(Some((t2, p)), model.pop());
                    probed = false;
                }
            }
        }
        prop_assert!(q.is_empty());
    }
}

/// Timestamps clustered on multiples of the old ladder window span
/// (1024 buckets of 8192 ps), nudged by a few ps either side, plus the top
/// of the u64 range, where `at + span` is unrepresentable.
fn boundary_at(k: u64, delta: i64, near_max: bool) -> SimTime {
    const SPAN_PS: u64 = 1024 * 8192;
    let base = if near_max {
        u64::MAX - (k % 4) * SPAN_PS
    } else {
        (k % 8) * SPAN_PS
    };
    let ps = if delta < 0 {
        base.saturating_sub(delta.unsigned_abs())
    } else {
        base.saturating_add(delta as u64)
    };
    SimTime::from_ps(ps)
}

proptest! {
    /// Interleaved boundary-timestamp pushes and pops match the reference
    /// pending set exactly, including in the last representable span.
    #[test]
    fn window_boundary_timestamps_match_reference(
        ops in prop::collection::vec(
            (0u64..16, -3i64..4, any::<bool>(), any::<bool>()),
            1..250,
        ),
    ) {
        let mut q = EventQueue::new();
        let mut model = Reference::new();
        let mut payload = 0usize;
        for &(k, delta, near_max, is_pop) in &ops {
            if is_pop {
                prop_assert_eq!(q.pop(), model.pop());
            } else {
                let t = boundary_at(k, delta, near_max);
                q.push(t, payload);
                model.push(t, payload);
                payload += 1;
            }
            prop_assert_eq!(q.peek_time(), model.min_key().map(|(t, _)| t));
        }
        while let Some(want) = model.pop() {
            prop_assert_eq!(q.pop(), Some(want));
        }
        prop_assert_eq!(q.pop(), None);
    }
}

/// A child's delay: `!far` is a multiple of 1024 ps below 16 ns (so
/// siblings and cousins tie often), `far` anywhere in the first 0.5 ms.
fn delay(raw: u64, far: bool) -> SimDuration {
    if far {
        SimDuration::from_ps(raw % 500_000_000)
    } else {
        SimDuration::from_ps((raw % 16) * 1024)
    }
}

/// How a fired event spawns a child, through each `Engine` entry point.
#[derive(Debug, Clone, Copy)]
enum Spawn {
    At(SimDuration),
    After(SimDuration),
    Now,
    Nothing,
}

fn spawn() -> impl Strategy<Value = Spawn> {
    (0u8..4, any::<u64>(), any::<bool>()).prop_map(|(kind, raw, far)| match kind {
        0 => Spawn::At(delay(raw, far)),
        1 => Spawn::After(delay(raw, far)),
        2 => Spawn::Now,
        _ => Spawn::Nothing,
    })
}

/// Events one engine run may create, initial schedule included.
const SPAWN_CAP: usize = 600;

proptest! {
    /// The engine fires every event in the reference model's order: each
    /// `(now, payload)` equals the model's next pop, while handlers spawn
    /// children through `schedule_at`, `schedule_after` and `schedule_now`.
    /// A misordering that repeats run after run fails here, not only a
    /// nondeterministic one.
    #[test]
    fn engine_fires_in_reference_order(
        initial in prop::collection::vec((any::<u64>(), any::<bool>()), 1..100),
        rules in prop::collection::vec(spawn(), 1..12),
    ) {
        let mut eng: Engine<usize> = Engine::new();
        let mut model = Reference::new();
        for (i, &(raw, far)) in initial.iter().enumerate() {
            let t = SimTime::ZERO + delay(raw, far);
            eng.schedule_at(t, i);
            model.push(t, i);
        }
        let mut next = initial.len();
        let mut fired = Vec::new();
        let outcome = eng.run(|e, p| {
            let now = e.now();
            fired.push(((now, p), model.pop()));
            // Two rules per event, so the schedule branches until the cap.
            for rule in [rules[p % rules.len()], rules[(p / rules.len()) % rules.len()]] {
                if next >= SPAWN_CAP {
                    break;
                }
                let at = match rule {
                    Spawn::At(d) => {
                        e.schedule_at(now + d, next);
                        now + d
                    }
                    Spawn::After(d) => {
                        e.schedule_after(d, next);
                        now + d
                    }
                    Spawn::Now => {
                        e.schedule_now(next);
                        now
                    }
                    Spawn::Nothing => continue,
                };
                model.push(at, next);
                next += 1;
            }
        });
        prop_assert_eq!(outcome, RunOutcome::Drained);
        prop_assert_eq!(fired.len(), next);
        for (got, want) in fired {
            prop_assert_eq!(Some(got), want);
        }
        prop_assert!(model.pop().is_none());
    }
}
