//! Property tests for the event calendar and engine: total ordering,
//! determinism, and FIFO-within-instant — the invariants every other crate
//! in the workspace silently relies on — and the agreement of the engine's
//! two ways of running, `step` and `run_until`.

use gtn_sim::engine::{Engine, RunOutcome};
use gtn_sim::event::EventQueue;
use gtn_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    /// Popping always yields non-decreasing timestamps, and events that share
    /// a timestamp come out in insertion order.
    #[test]
    fn queue_pops_sorted_and_stable(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_ns(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, idx)) = q.pop() {
            if let Some((lt, lidx)) = last {
                prop_assert!(t >= lt, "time went backwards");
                if t == lt {
                    prop_assert!(idx > lidx, "FIFO violated at equal timestamps");
                }
            }
            last = Some((t, idx));
        }
    }

    /// Two engines fed the same schedule fire the same sequence.
    #[test]
    fn engine_is_deterministic(times in prop::collection::vec(0u64..500, 1..100)) {
        let run = || {
            let mut eng: Engine<usize> = Engine::new();
            for (i, &t) in times.iter().enumerate() {
                eng.schedule_at(SimTime::from_ns(t), i);
            }
            let mut order = Vec::new();
            eng.run(|e, v| {
                order.push((e.now(), v));
                // Deterministic feedback: even payloads spawn a child.
                if v % 2 == 0 && v < 1_000 {
                    e.schedule_after(SimDuration::from_ns(3), v + 1_001);
                }
            });
            order
        };
        prop_assert_eq!(run(), run());
    }

    /// Splitting a run at an arbitrary horizon never changes the event order.
    #[test]
    fn horizon_split_is_transparent(
        times in prop::collection::vec(0u64..400, 1..80),
        cut in 0u64..400,
    ) {
        let schedule = |eng: &mut Engine<usize>| {
            for (i, &t) in times.iter().enumerate() {
                eng.schedule_at(SimTime::from_ns(t), i);
            }
        };
        let mut whole: Engine<usize> = Engine::new();
        schedule(&mut whole);
        let mut a = Vec::new();
        whole.run(|e, v| a.push((e.now(), v)));

        let mut split: Engine<usize> = Engine::new();
        schedule(&mut split);
        let mut b = Vec::new();
        let out = split.run_until(SimTime::from_ns(cut), |e, v| b.push((e.now(), v)));
        prop_assert!(matches!(out, RunOutcome::Drained | RunOutcome::HorizonReached));
        split.run(|e, v| b.push((e.now(), v)));
        prop_assert_eq!(a, b);
    }

    /// The clock never runs backwards under any interleaving of
    /// schedule_after calls from inside handlers.
    #[test]
    fn clock_is_monotonic(seed_events in prop::collection::vec((0u64..100, 0u64..50), 1..50)) {
        let mut eng: Engine<u64> = Engine::new();
        for &(t, d) in &seed_events {
            eng.schedule_at(SimTime::from_ns(t), d);
        }
        let mut prev = SimTime::ZERO;
        eng.run(|e, d| {
            assert!(e.now() >= prev);
            prev = e.now();
            if d > 0 {
                e.schedule_after(SimDuration::from_ns(d), d / 2);
            }
        });
    }
}

/// Events one schedule may create in all, children included.
const EVENT_CAP: u64 = 400;

/// What handling an event schedules, by the `(code, d)` a case drew for
/// it: nothing, a child `d` ns later (0 ties with the current instant), a
/// child at the current instant, or a child `d` ns in the past. Release
/// builds clamp a past schedule to now and count it; debug builds assert
/// on one, so there the child is scheduled at now instead.
fn spawn(eng: &mut Engine<u64>, (code, d): (u8, u64), next_id: &mut u64) {
    if code == 0 || *next_id >= EVENT_CAP {
        return;
    }
    let child = *next_id;
    *next_id += 1;
    match code {
        1 => eng.schedule_after(SimDuration::from_ns(d), child),
        2 => eng.schedule_now(child),
        _ => {
            let back = if cfg!(debug_assertions) { 0 } else { d * 1_000 };
            let at = SimTime::from_ps(eng.now().as_ps().saturating_sub(back));
            eng.schedule_at(at, child);
        }
    }
}

proptest! {
    /// `step` and `run_until` (cut at arbitrary horizons) drive the same
    /// schedule — same-instant ties, handler-spawned children and
    /// past-time clamps — through the same `(time, payload)` sequence,
    /// and agree on `events_processed` and `clamped_past_events`. The
    /// clamp case is exercised only in release builds (see [`spawn`]);
    /// CI runs this file in both.
    #[test]
    fn step_and_run_until_fire_the_same_sequence(
        times in prop::collection::vec(0u64..40, 1..60),
        spawns in prop::collection::vec((0u8..4, 0u64..12), 1..16),
        cuts in prop::collection::vec(0u64..200, 0..6),
    ) {
        let start = |eng: &mut Engine<u64>| {
            for (i, &t) in times.iter().enumerate() {
                eng.schedule_at(SimTime::from_ns(t), i as u64);
            }
        };
        let plan = |v: u64| spawns[v as usize % spawns.len()];

        let mut stepped: Engine<u64> = Engine::new();
        start(&mut stepped);
        let (mut a, mut next_a) = (Vec::new(), times.len() as u64);
        while let Some((at, v)) = stepped.step() {
            prop_assert_eq!(at, stepped.now());
            a.push((at, v));
            spawn(&mut stepped, plan(v), &mut next_a);
        }

        let mut ran: Engine<u64> = Engine::new();
        start(&mut ran);
        let (mut b, mut next_b) = (Vec::new(), times.len() as u64);
        let mut cuts = cuts.clone();
        cuts.sort_unstable();
        for cut in cuts {
            ran.run_until(SimTime::from_ns(cut), |e, v| {
                b.push((e.now(), v));
                spawn(e, plan(v), &mut next_b);
            });
        }
        let out = ran.run(|e, v| {
            b.push((e.now(), v));
            spawn(e, plan(v), &mut next_b);
        });
        prop_assert_eq!(out, RunOutcome::Drained);

        prop_assert_eq!(&a, &b);
        prop_assert_eq!(stepped.events_processed(), a.len() as u64);
        prop_assert_eq!(stepped.events_processed(), ran.events_processed());
        prop_assert_eq!(stepped.clamped_past_events(), ran.clamped_past_events());
    }
}
