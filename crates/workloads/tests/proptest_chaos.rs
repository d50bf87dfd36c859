//! Crash-stop chaos properties, end to end:
//!
//! 1. **Bounded termination** — with a peer silently dropped and the
//!    failure detector *off*, every networked workload under every
//!    strategy still terminates: either it completes (the crash landed
//!    after the work) or the stall watchdog/deadlock detector returns a
//!    structured failure within a bounded event count. Chaos never hangs
//!    the calendar.
//! 2. **Detection soundness** — the heartbeat/lease detector at its
//!    default cadence never declares a live peer dead, no matter what
//!    seeded packet loss (up to 20%) and NIC resource pressure do to the
//!    data plane. Losing heartbeats to congestion is not death.
//! 3. **Detection determinism** — a crash scenario replays bit-identically:
//!    same verdict, same detection time, same culprit.

use gtn_core::scenario::ConfigPatch;
use gtn_core::{RecoveryPolicy, StallReason, Strategy};
use gtn_workloads::harness::{all_workloads, JobFailure, ResourceLimits, ScenarioParams, Workload};
use gtn_workloads::jacobi::Jacobi;
use proptest::prelude::*;

/// No terminated run may consume more events than this — the liveness
/// contract the chaos campaign also enforces per cell.
const EVENT_BUDGET: u64 = 20_000_000;

fn strategy_from(ix: u8) -> Strategy {
    Strategy::all()[ix as usize % 4]
}

proptest! {
    // Every case is several full cluster runs (some of which must spin all
    // the way into the watchdog); keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Silent crash, detection off: the watchdog (or calendar drain) fires
    /// within the event budget for every networked workload x strategy,
    /// and never misattributes the stall to a dead-peer declaration.
    #[test]
    fn silent_crash_terminates_every_workload_within_budget(
        strategy_ix in 0u8..4,
        crash_at_us in 1u64..50,
    ) {
        let strategy = strategy_from(strategy_ix);
        for w in all_workloads() {
            if !w.strategies().contains(&strategy) {
                continue; // launch_study has no peers to kill
            }
            let params = w
                .smoke_scenario(strategy)
                .patch(ConfigPatch::crash_node(1, crash_at_us * 1_000));
            match w.run(&params) {
                // The crash landed after the workload finished.
                Ok(r) => prop_assert!(r.total.as_ps() > 0),
                Err(JobFailure::Stalled { report, events, .. }) => {
                    prop_assert!(
                        events <= EVENT_BUDGET,
                        "{} {strategy}: {} events blew the budget",
                        w.name(), events
                    );
                    prop_assert!(
                        !matches!(report.reason, StallReason::PeerDead { .. }),
                        "{} {strategy}: PeerDead with detection off",
                        w.name()
                    );
                }
                Err(other) => prop_assert!(false, "{} {strategy}: {other}", w.name()),
            }
        }
    }

    /// Detector soundness: seeded loss (up to 20%) plus tiny NIC resources
    /// may slow or even abandon the data plane, but the default leases
    /// never declare a live peer dead — heartbeats ride the control lane
    /// and only a real crash silences them past the lease.
    #[test]
    fn loss_and_pressure_never_false_positive_the_detector(
        strategy_ix in 0u8..4,
        fault_seed in 0u64..10_000,
        loss_milli in 1u64..200,
    ) {
        let strategy = strategy_from(strategy_ix);
        let params = ScenarioParams::new(strategy)
            .grid(2, 2)
            .size(6)
            .iters(2)
            .seed(0xA11CE)
            .patch(
                ConfigPatch::loss(fault_seed, loss_milli as f64 / 1000.0)
                    .with_pressure(ResourceLimits::tiny(2, 4))
                    .with_detection(RecoveryPolicy::Abort),
            );
        match Jacobi.run(&params) {
            Ok(_) => {}
            Err(failure) => prop_assert!(
                matches!(&failure, JobFailure::Stalled { report, .. }
                    if !matches!(report.reason, StallReason::PeerDead { .. })),
                "{strategy} loss={loss_milli}milli seed={fault_seed}: \
                 live peer declared dead, or a wrong answer\n{failure}"
            ),
        }
    }

    /// A reached verdict stops the control plane: once the detector
    /// declares a peer dead (Abort policy), heartbeat/lease probe traffic
    /// ceases and the calendar drains instead of ticking to the event cap,
    /// so detected aborts terminate with a wide event-budget headroom.
    #[test]
    fn verdicts_leave_event_budget_headroom(
        crash_at_us in 10u64..60,
        seed in 0u64..10_000,
    ) {
        let params = ScenarioParams::new(Strategy::GpuTn)
            .nodes(4)
            .size(64 * 1024)
            .seed(seed)
            .patch(
                ConfigPatch::crash_node(2, crash_at_us * 1_000)
                    .with_detection(RecoveryPolicy::Abort),
            );
        match gtn_workloads::allreduce::Allreduce.run(&params) {
            Ok(_) => {}
            Err(JobFailure::Stalled { report, events, .. }) => {
                prop_assert!(
                    matches!(report.reason, StallReason::PeerDead { peer: 2, .. }),
                    "wrong diagnosis: {}", report.reason
                );
                prop_assert!(
                    events < EVENT_BUDGET / 10,
                    "verdict at {} events — probes kept ticking after the \
                     verdict instead of draining (budget {})",
                    events, EVENT_BUDGET
                );
            }
            Err(other) => prop_assert!(false, "{other}"),
        }
    }

    /// A detected crash replays bit-identically: same structured reason
    /// (peer and detector included), same detection time, same event count.
    #[test]
    fn detected_crashes_are_replay_deterministic(
        strategy_ix in 0u8..4,
        crash_at_us in 10u64..60,
    ) {
        let strategy = strategy_from(strategy_ix);
        let params = ScenarioParams::new(strategy)
            .nodes(4)
            .size(64 * 1024)
            .seed(0xBEEF)
            .patch(
                ConfigPatch::crash_node(2, crash_at_us * 1_000)
                    .with_detection(RecoveryPolicy::Abort),
            );
        let a = gtn_workloads::allreduce::Allreduce.run(&params);
        let b = gtn_workloads::allreduce::Allreduce.run(&params);
        match (a, b) {
            (Ok(ra), Ok(rb)) => prop_assert_eq!(ra.total, rb.total),
            (
                Err(JobFailure::Stalled { report: fa, events: ea, .. }),
                Err(JobFailure::Stalled { report: fb, events: eb, .. }),
            ) => {
                prop_assert_eq!(&fa.reason, &fb.reason);
                prop_assert_eq!(fa.at, fb.at);
                prop_assert_eq!(ea, eb);
                prop_assert!(matches!(
                    fa.reason,
                    StallReason::PeerDead { peer: 2, .. }
                ), "wrong culprit: {}", fa.reason);
            }
            _ => prop_assert!(false, "replay changed the verdict"),
        }
    }
}

// Gray-failure properties: the degraded (but alive) end of the spectrum,
// with the adaptive detector armed, plus engine-structure invariance of
// the route-around failover path.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Gray degradations — extra latency, jitter, bursty loss, flapping —
    /// under an armed φ-accrual detector running hot (10 µs probes, so the
    /// adaptive path is past warm-up and under live fire mid-run): the run
    /// may slow, but a limping peer must never be declared dead, and a
    /// same-seed rerun reproduces the identical result.
    #[test]
    fn gray_degradations_never_false_positive_the_phi_detector(
        strategy_ix in 0u8..4,
        target_nic in 0u8..2,
        latency_us in 0u64..5,
        jitter_us in 0u64..3,
        loss_milli in 0u64..80,
        flap_sel in 0u8..2,
    ) {
        use gtn_core::membership::FailureConfig;
        use gtn_fabric::DegradeSpec;
        let strategy = strategy_from(strategy_ix);
        // Star of 4 hosts (switch vertex 4): degrade either host 1's NIC
        // or host 2's uplink edge, composing every gray effect drawn.
        let mut spec = if target_nic == 0 {
            DegradeSpec::nic(1)
        } else {
            DegradeSpec::edge(2, 4)
        };
        spec = spec
            .latency(latency_us * 1_000)
            .jitter(jitter_us * 1_000)
            .lossy(loss_milli as f64 / 1000.0, 2);
        if flap_sel == 1 {
            spec = spec.flapping(70_000, 12_000);
        }
        let phi_hot = FailureConfig {
            heartbeat_period_ns: 10_000,
            suspect_after_ns: 60_000,
            dead_after_ns: 200_000,
            ..FailureConfig::phi_accrual()
        };
        let params = ScenarioParams::new(strategy)
            .nodes(4)
            .size(256 * 1024)
            .seed(0xF1A6)
            .patch(ConfigPatch::NONE.with_degrade(spec).with_failure(phi_hot));
        let w = gtn_workloads::allreduce::Allreduce;
        match w.run(&params) {
            Ok(r) => {
                let again = w.run(&params).expect("rerun verdict flipped");
                prop_assert_eq!(r.total, again.total, "gray rerun diverged");
            }
            Err(failure) => prop_assert!(
                matches!(&failure, JobFailure::Stalled { report, .. }
                    if !matches!(report.reason, StallReason::PeerDead { .. })),
                "{strategy} lat={latency_us}us jit={jitter_us}us \
                 loss={loss_milli}milli flap={flap_sel}: \
                 limping peer declared dead, or a wrong answer\n{failure}"
            ),
        }
    }

    /// Route-around failover survives and replays: a fat-tree
    /// aggregation-edge crash recovers with verified output and at least
    /// one reroute, and a rerun reports the identical verdict, end-to-end
    /// time, and reroute count.
    #[test]
    fn route_around_recovery_survives_and_replays(
        crash_at_us in 20u64..45,
        seed in 0u64..1_000,
    ) {
        use gtn_fabric::{Fabric, FabricConfig, Topology};
        use gtn_workloads::chaos::{self, Verdict};
        let ft = Topology::FatTree { k: 4 };
        let probe = Fabric::new(8, FabricConfig { topology: ft, ..FabricConfig::default() });
        let route = probe.graph().route(gtn_mem::NodeId(1), gtn_mem::NodeId(2));
        let (a, b) = probe.graph().edge_endpoints(route[1]);
        let scenario = ScenarioParams::new(Strategy::GpuTn)
            .nodes(8)
            .size(64 * 1024)
            .seed(seed)
            .patch(
                ConfigPatch::crash_edge(a, b, crash_at_us * 1_000)
                    .with_topology(ft)
                    .with_detection(RecoveryPolicy::RouteAround),
            );
        let w = gtn_workloads::allreduce::Allreduce;
        let first = chaos::run_cell(&scenario, &w).expect("verdict");
        prop_assert_eq!(first.verdict, Verdict::Recovered, "fat tree did not survive");
        prop_assert!(first.reroutes > 0 && first.verified);
        let again = chaos::run_cell(&scenario, &w).expect("verdict");
        prop_assert_eq!(again.verdict, first.verdict, "verdict diverged on replay");
        prop_assert_eq!(again.total_ns, first.total_ns, "timing diverged on replay");
        prop_assert_eq!(again.reroutes, first.reroutes, "reroutes diverged on replay");
    }
}
