//! Cross-workload invariants, driven generically through the `Workload`
//! trait — one suite instead of a copy per workload: functional
//! correctness (every strategy, lossless and under seeded loss), the
//! paper's qualitative ordering (GPU-TN < GDS < HDN, Figs. 8–10), and
//! stats-snapshot consistency.
use gtn_core::{RecoveryPolicy, StallReason, Strategy};
use gtn_workloads::allreduce::Allreduce;
use gtn_workloads::chaos::{self, Recoverable, Verdict};
use gtn_workloads::harness::{
    all_workloads, ConfigPatch, JobFailure, ResourceLimits, ScenarioParams,
};
use gtn_workloads::jacobi::Jacobi;
use gtn_workloads::pingpong::Pingpong;

#[test]
fn every_workload_verifies_on_its_smoke_scenario_under_every_strategy() {
    for w in all_workloads() {
        for strategy in w.strategies() {
            let params = w.smoke_scenario(strategy);
            let r = w
                .run(&params)
                .unwrap_or_else(|e| panic!("{} {strategy}: {e}", w.name()));
            assert_eq!(r.workload, w.name());
            assert_eq!(r.strategy, strategy);
            assert_eq!(r.nodes, params.node_count());
            assert!(r.total.as_ps() > 0, "{} {strategy}: zero runtime", w.name());
        }
    }
}

#[test]
fn gputn_beats_gds_beats_hdn_on_every_networked_workload() {
    for w in all_workloads() {
        if w.strategies().len() < 2 {
            continue; // launch_study measures the scheduler, not networking
        }
        let per_iter = |s: Strategy| {
            w.run(&w.smoke_scenario(s))
                .unwrap_or_else(|e| panic!("{} {s}: {e}", w.name()))
                .per_iter
        };
        let hdn = per_iter(Strategy::Hdn);
        let gds = per_iter(Strategy::Gds);
        let tn = per_iter(Strategy::GpuTn);
        assert!(tn < gds, "{}: GPU-TN {tn} vs GDS {gds}", w.name());
        assert!(gds < hdn, "{}: GDS {gds} vs HDN {hdn}", w.name());
    }
}

#[test]
fn seeded_loss_never_changes_a_verified_answer() {
    // The ConfigPatch lane: the same smoke scenarios, 1% seeded loss with
    // the ARQ layer on, under every strategy each workload compares.
    // Verification must still pass and no message may exhaust its retry
    // budget; loss can only cost time, and across the sweep the injected
    // drops must force at least one retransmission. A workload that moves
    // fabric traffic must also show the patch reaching the fault plan.
    let mut total_retransmits = 0;
    for w in all_workloads() {
        for strategy in w.strategies() {
            let lossless = w.smoke_scenario(strategy);
            let lossy = lossless.patch(ConfigPatch::loss(2, 0.01));
            let base = w
                .run(&lossless)
                .unwrap_or_else(|e| panic!("{} {strategy} lossless: {e}", w.name()));
            let r = w
                .run(&lossy)
                .unwrap_or_else(|e| panic!("{} {strategy} lossy: {e}", w.name()));
            assert_eq!(
                r.delivery_failures,
                0,
                "{} {strategy}: retry budget exhausted",
                w.name()
            );
            assert!(
                r.total >= base.total,
                "{} {strategy}: loss sped the run up",
                w.name()
            );
            if base.stats.counter("fabric", "messages_sent") > 0 {
                assert!(
                    r.stats.counter("fabric", "messages_judged") > 0,
                    "{} {strategy}: the loss patch never reached the fabric",
                    w.name()
                );
            }
            total_retransmits += r.retransmits;
        }
    }
    assert!(
        total_retransmits > 0,
        "seeded 1% loss must force at least one retransmit across the sweep"
    );
}

#[test]
fn resource_pressure_degrades_gracefully_never_fatally() {
    // Shrink every NIC to a 1-way trigger CAM and a 2-entry bounded CQ:
    // far below what any smoke scenario needs concurrently. Registration
    // pressure must spill to the host overflow table (and promote back as
    // entries retire) instead of erroring, CQ pressure must park commits
    // behind the modeled consumer instead of overwriting, and every
    // workload must still verify bit-exactly under every strategy.
    let limits = ResourceLimits::tiny(1, 2);
    let (mut spills, mut promotions) = (0, 0);
    for w in all_workloads() {
        for strategy in w.strategies() {
            let params = w
                .smoke_scenario(strategy)
                .patch(ConfigPatch::pressure(limits));
            let r = w
                .run(&params)
                .unwrap_or_else(|e| panic!("{} {strategy} under pressure: {e}", w.name()));
            assert_eq!(
                r.stats.counter_across("nic", "trigger_errors"),
                0,
                "{} {strategy}: pressure surfaced a trigger error",
                w.name()
            );
            spills += r.stats.counter_across("nic", "trigger_spills");
            promotions += r.stats.counter_across("nic", "trigger_promotions");

            // Determinism survives the degraded paths: an identical rerun
            // reports identical timing and identical counters.
            let again = w.run(&params).expect("rerun verifies");
            assert_eq!(again.total, r.total, "{} {strategy}", w.name());
            assert_eq!(
                format!("{:?}", again.stats),
                format!("{:?}", r.stats),
                "{} {strategy}: stats diverged across reruns",
                w.name()
            );
        }
    }
    // The shrunken CAM must actually have been exercised somewhere.
    assert!(spills > 0, "no workload spilled trigger entries");
    assert!(promotions > 0, "no spilled entry was ever promoted");
}

#[test]
fn crash_mid_iteration_aborts_with_a_structured_peer_dead_diagnosis() {
    // Kill node 1 at ~30% of each workload's healthy runtime with the
    // failure detector armed under the Abort policy: every networked
    // workload, under every strategy, must terminate with a structured
    // PeerDead diagnosis naming the culprit — never a hang, never an
    // unattributed wedge — within a bounded event count.
    for w in all_workloads() {
        if w.strategies().len() < 2 {
            continue; // launch_study has no peers to kill
        }
        for strategy in w.strategies() {
            let healthy = w
                .run(&w.smoke_scenario(strategy))
                .unwrap_or_else(|e| panic!("{} {strategy}: {e}", w.name()));
            let crash_at_ns = (healthy.total.as_ps() / 1000) * 3 / 10;
            let params = w.smoke_scenario(strategy).patch(
                ConfigPatch::crash_node(1, crash_at_ns).with_detection(RecoveryPolicy::Abort),
            );
            let failure = w
                .run(&params)
                .expect_err("a mid-run crash under Abort must terminate the job");
            let JobFailure::Stalled { report, events, .. } = &failure else {
                panic!("{} {strategy}: not a stall: {failure}", w.name());
            };
            assert!(
                matches!(
                    report.reason,
                    StallReason::PeerDead {
                        peer: 1,
                        culprit: Some(gtn_fabric::CrashComponent::Node(1)),
                        ..
                    }
                ),
                "{} {strategy}: wrong diagnosis: {}",
                w.name(),
                report.reason
            );
            assert!(
                *events < 2_000_000,
                "{} {strategy}: {} events blew the liveness budget",
                w.name(),
                events
            );
            // The rendered report reads like a diagnosis.
            let text = failure.to_string();
            assert!(
                text.contains("node 1 declared dead"),
                "{} {strategy}: {text}",
                w.name()
            );
        }
    }
}

#[test]
fn crash_recovery_policies_verify_and_replay_bit_identically() {
    // The recovering policies on the same mid-run crash: every cell must
    // come back Recovered with a verified result, and a same-seed rerun
    // must reproduce the identical report — detection time, recovery
    // cost, and event count included.
    let cells: [(&dyn Recoverable, ScenarioParams); 3] = [
        (&Pingpong, ScenarioParams::new(Strategy::GpuTn).seed(3)),
        (
            &Jacobi,
            ScenarioParams::new(Strategy::GpuTn)
                .grid(2, 2)
                .size(16)
                .iters(4)
                .seed(0xA11CE),
        ),
        (
            &Allreduce,
            ScenarioParams::new(Strategy::Hdn)
                .nodes(4)
                .size(64 * 1024)
                .seed(0xBEEF),
        ),
    ];
    for (w, base) in cells {
        let name = w.name();
        for policy in [
            RecoveryPolicy::CheckpointRestart,
            RecoveryPolicy::RebuildCollective,
        ] {
            let params = base.patch(ConfigPatch::crash_node(1, 2_000).with_detection(policy));
            let report = chaos::run_cell(&params, w).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(
                report.verdict,
                Verdict::Recovered,
                "{name} {}: {:?}",
                policy.name(),
                report
            );
            assert!(report.verified, "{name} {}", policy.name());
            assert!(report.detect_ns > 0 && report.recovery_ns > 0);
            assert_eq!(report.total_ns, report.detect_ns + report.recovery_ns);
            let again = chaos::run_cell(&params, w).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(again.verdict, report.verdict, "{name} {}", policy.name());
            assert_eq!(
                (
                    again.detect_ns,
                    again.recovery_ns,
                    again.total_ns,
                    again.events
                ),
                (
                    report.detect_ns,
                    report.recovery_ns,
                    report.total_ns,
                    report.events
                ),
                "{name} {}: recovery is not replay-deterministic",
                policy.name()
            );
        }
    }
}

#[test]
fn stats_snapshot_is_namespaced_and_agrees_with_summary_counters() {
    for w in all_workloads() {
        let strategy = *w.strategies().last().unwrap();
        let r = w
            .run(&w.smoke_scenario(strategy))
            .unwrap_or_else(|e| panic!("{} {strategy}: {e}", w.name()));
        for nd in 0..r.nodes {
            assert!(
                r.stats.get(&format!("node{nd}.nic")).is_some(),
                "{}: missing node{nd}.nic namespace",
                w.name()
            );
        }
        assert_eq!(r.retransmits, r.stats.counter_across("nic", "retransmits"));
        assert!(
            r.stats.counter("engine", "events_processed") > 0,
            "{}",
            w.name()
        );
        if r.nodes > 1 {
            // Networked workloads move traffic and record wire latencies.
            assert!(
                r.stats.counter("fabric", "messages_sent") > 0,
                "{}",
                w.name()
            );
            let nic = r.stats.merged("nic");
            assert!(nic.histogram("stage_wire").is_some_and(|h| h.count() > 0));
        }
    }
}
