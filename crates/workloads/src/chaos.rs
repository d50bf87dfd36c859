//! Chaos orchestration: run one crash-stop scenario end-to-end under a
//! recovery policy and report what happened as data.
//!
//! A *chaos cell* is a [`ScenarioParams`] whose [`ConfigPatch`] carries a
//! crash injection (and usually arms the failure detector with a
//! [`RecoveryPolicy`]). [`run_cell`] runs the cell through
//! [`Workload::run`], then interprets the outcome:
//!
//! - **Completed** — the crash never bit (it landed after the workload
//!   finished, or severed a link the schedule doesn't use). The result is
//!   verified like any healthy run.
//! - **Aborted** — the run terminated with [`JobFailure::Stalled`]
//!   (`PeerDead` from the detector, or a watchdog diagnosis when detection
//!   is off) and the policy is [`RecoveryPolicy::Abort`]: the failure *is*
//!   the result.
//! - **Recovered** — the policy re-ran the work around the failure, as the
//!   workload's [`Recoverable`] impl says:
//!   - [`RecoveryPolicy::CheckpointRestart`] restarts from the last
//!     checkpoint on a clean cluster (the crashed component rebooted).
//!     Jacobi checkpoints its interiors at the halfway sweep and replays
//!     the remainder through `jacobi::run_from_checkpoint`;
//!     workloads whose inputs are regenerable (allreduce, pingpong) treat
//!     the inputs as the checkpoint and re-run in full.
//!   - [`RecoveryPolicy::RebuildCollective`] re-forms the allreduce ring
//!     from the survivors (NCCL-communicator style) and reduces exactly
//!     the surviving contributions, verified against
//!     [`crate::allreduce::reference_ranks`]. Workloads without a
//!     re-formable ring (pingpong's fixed pair, Jacobi's fixed
//!     decomposition) degrade to checkpoint-restart.
//!   - [`RecoveryPolicy::RouteAround`] arms the *fabric's* failover
//!     instead of re-running anything: a crashed edge is withdrawn from
//!     the routing tables after a switch-local detection delay, and on a
//!     multipath topology the run simply completes over the surviving
//!     wires (verdict `Recovered`, `recovery_ns = 0`, `reroutes > 0`).
//!     When no surviving path exists (a star uplink, a partitioned pair),
//!     the end-to-end detector still fires and the cell reports `Aborted`
//!     — route-around cannot invent wires.
//!
//! A cell that cannot reach a verdict — invalid params, a result that
//! diverges from its reference, a recovery run that fails — returns its
//! [`JobFailure`] instead: chaos may fail a run, it may not corrupt one.
//!
//! Every quantity in the [`ChaosReport`] is an integer, so the chaos
//! campaign bench can emit it into byte-identical JSON.

use crate::allreduce::{self, Allreduce, AllreduceParams};
use crate::harness::{JobFailure, ScenarioParams, ScenarioResult, Workload};
use crate::jacobi::{self, Jacobi, JacobiParams};
use crate::pingpong::Pingpong;
use gtn_core::scenario::ConfigPatch;
use gtn_core::RecoveryPolicy;

/// How a chaos cell ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The run completed (and verified) despite the injection.
    Completed,
    /// The run terminated with a structured failure under `Abort`.
    Aborted,
    /// A recovery policy re-ran the work and the result verified.
    Recovered,
}

impl Verdict {
    /// Stable lower-case name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Verdict::Completed => "completed",
            Verdict::Aborted => "aborted",
            Verdict::Recovered => "recovered",
        }
    }
}

/// The outcome of one chaos cell, integer-valued for deterministic JSON.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// How the cell ended.
    pub verdict: Verdict,
    /// Sim time (ns) at which the first run terminated — the time-to-detect
    /// for aborted/recovered cells, `0` for completed ones (including
    /// route-around recoveries, which never terminate the run).
    pub detect_ns: u64,
    /// Sim time (ns) at which the detector first saw a peer leave `Alive`
    /// (`0` when nothing was suspected or the run completed). With
    /// `injected_ns` and `detect_ns` this is the
    /// `injection → suspect → dead` detection-latency timeline.
    pub suspect_ns: u64,
    /// When the injected fault bites, ns of sim time (`0` when the cell
    /// carries no injection): the crash instant, or the degrade onset.
    pub injected_ns: u64,
    /// Sim time (ns) the recovery run took (`0` unless recovered).
    pub recovery_ns: u64,
    /// End-to-end sim time (ns): a completed run's total, an aborted run's
    /// termination time, or detect + recovery for a recovered one.
    pub total_ns: u64,
    /// Events the *terminated* run consumed before giving up (`0` for
    /// completed cells) — the liveness contract bounds this.
    pub events: u64,
    /// Routing-table rows the fabric's route-around failover rewired
    /// (`0` unless the patch armed failover and a withdrawal bit).
    pub reroutes: u64,
    /// Whether the surviving result verified against its reference. Always
    /// `true` for completed/recovered verdicts (a mismatch is an `Err`, not
    /// a verdict); `false` for aborts.
    pub verified: bool,
    /// The rendered [`JobFailure`] of the terminated run, when there was
    /// one.
    pub failure: Option<String>,
}

/// Integer ns of a sim time.
fn ns_of(t: gtn_sim::time::SimTime) -> u64 {
    t.as_ps() / 1000
}

/// A workload a chaos cell can run: [`Workload::run`] for the injected
/// run, and the re-run each recovery policy makes on a clean cluster. The
/// defaults suit workloads whose inputs are regenerable: the inputs are
/// the checkpoint, so both policies re-run the work in full.
pub trait Recoverable: Workload {
    /// Checkpoint-restart under `clean` (the crashed component rebooted),
    /// verified against the full run's reference.
    fn restart(&self, clean: &ScenarioParams) -> Result<ScenarioResult, JobFailure> {
        self.run(clean)
    }

    /// Rebuild-collective without `culprit`. The default has no smaller
    /// shape to re-form, so it restarts from the checkpoint.
    fn rebuild(&self, clean: &ScenarioParams, culprit: u32) -> Result<ScenarioResult, JobFailure> {
        let _ = culprit;
        self.restart(clean)
    }
}

impl Recoverable for Pingpong {}

/// Jacobi restarts from its halfway-sweep checkpoint (the interiors the
/// surviving nodes would have persisted) and replays the remaining sweeps,
/// verified bit-exactly against the full-run reference.
impl Recoverable for Jacobi {
    fn restart(&self, clean: &ScenarioParams) -> Result<ScenarioResult, JobFailure> {
        let full = JacobiParams::new(
            clean.rows,
            clean.cols,
            clean.size as u32,
            clean.iters,
            clean.strategy,
            clean.seed,
        );
        let ckpt = full.iters / 2;
        let snapshot = jacobi::reference(full.rows, full.cols, full.n_local, ckpt, full.seed);
        let rest = JacobiParams {
            iters: full.iters - ckpt,
            ..full
        };
        let r = jacobi::run_from_checkpoint(rest, &snapshot, |config| clean.patch.apply(config))?;
        jacobi::check(&r, &full)?;
        Ok(r.scenario)
    }
}

/// Allreduce re-forms its ring from the survivors and reduces exactly
/// their contributions; a ring of three or fewer restarts instead.
impl Recoverable for Allreduce {
    fn rebuild(&self, clean: &ScenarioParams, culprit: u32) -> Result<ScenarioResult, JobFailure> {
        if clean.node_count() <= 3 {
            return self.restart(clean);
        }
        let survivors: Vec<u32> = (0..clean.node_count()).filter(|&n| n != culprit).collect();
        let ap = AllreduceParams::new(
            survivors.len() as u32,
            clean.size,
            clean.strategy,
            clean.seed,
        );
        let r = allreduce::run_with_ranks(ap, &survivors, |config| clean.patch.apply(config))?;
        if r.result != allreduce::reference_ranks(&survivors, clean.size, clean.seed) {
            return Err(JobFailure::Diverged(format!(
                "the rebuilt {}-node ring",
                survivors.len()
            )));
        }
        Ok(r.scenario)
    }
}

/// Run one chaos cell: run `workload` under `params` (whose patch carries
/// the injection), and apply the patch's recovery policy to the outcome.
pub fn run_cell(
    params: &ScenarioParams,
    workload: &dyn Recoverable,
) -> Result<ChaosReport, JobFailure> {
    let injected_ns = injection_onset_ns(&params.patch);
    let policy = params.patch.detect.unwrap_or(RecoveryPolicy::Abort);
    let failure = match workload.run(params) {
        Ok(result) => {
            // A completed run under `RouteAround` whose fabric actually
            // rewired routes *is* the recovery: the work finished over the
            // surviving wires with no re-run (`recovery_ns = 0`).
            let reroutes = result.stats.counter("fabric", "reroutes");
            let verdict = if policy == RecoveryPolicy::RouteAround && reroutes > 0 {
                Verdict::Recovered
            } else {
                Verdict::Completed
            };
            return Ok(ChaosReport {
                verdict,
                detect_ns: 0,
                suspect_ns: 0,
                injected_ns,
                recovery_ns: 0,
                total_ns: ns_of(result.total),
                events: 0,
                reroutes,
                verified: true,
                failure: None,
            });
        }
        Err(failure) => failure,
    };
    let JobFailure::Stalled {
        ref report,
        events,
        suspect_ns,
    } = failure
    else {
        return Err(failure);
    };
    let detect_ns = ns_of(report.at);
    // The recovery run's environment: same loss/pressure, but the crashed
    // component rebooted (no crash) and detection disarmed (the recovery
    // run is measured, not chaos-tested).
    let clean = ScenarioParams {
        patch: ConfigPatch {
            crash: None,
            detect: None,
            ..params.patch
        },
        ..*params
    };
    let recovery = match (policy, params.patch.crash) {
        // Under route-around, failover was armed but the run still died:
        // the withdrawal left the pair partitioned (no surviving path).
        // The structured abort is the honest verdict — route-around cannot
        // invent wires.
        (RecoveryPolicy::Abort | RecoveryPolicy::RouteAround, _) => None,
        (RecoveryPolicy::RebuildCollective, Some(crash)) => {
            Some(workload.rebuild(&clean, crash.culprit())?)
        }
        (RecoveryPolicy::CheckpointRestart | RecoveryPolicy::RebuildCollective, _) => {
            Some(workload.restart(&clean)?)
        }
    };
    let (verdict, recovery_ns) = match recovery {
        Some(r) => (Verdict::Recovered, ns_of(r.total)),
        None => (Verdict::Aborted, 0),
    };
    Ok(ChaosReport {
        verdict,
        detect_ns,
        suspect_ns: suspect_ns.unwrap_or(0),
        injected_ns,
        recovery_ns,
        total_ns: detect_ns + recovery_ns,
        events,
        reroutes: 0,
        verified: verdict == Verdict::Recovered,
        failure: Some(failure.to_string()),
    })
}

/// When the cell's injected fault starts to bite: the crash instant, or
/// the degrade onset, whichever the patch carries (the earlier of the two
/// when both ride along). `0` for injection-free cells.
fn injection_onset_ns(patch: &ConfigPatch) -> u64 {
    let crash = patch.crash.map(|c| c.at_ns);
    let degrade = patch.degrade.map(|d| d.from_ns);
    match (crash, degrade) {
        (Some(c), Some(d)) => c.min(d),
        (Some(c), None) => c,
        (None, Some(d)) => d,
        (None, None) => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtn_core::Strategy;

    #[test]
    fn healthy_cell_completes() {
        let params = ScenarioParams::new(Strategy::GpuTn)
            .nodes(3)
            .size(256)
            .seed(7)
            .patch(ConfigPatch::NONE.with_detection(RecoveryPolicy::Abort));
        let report = run_cell(&params, &Allreduce).expect("verdict");
        assert_eq!(report.verdict, Verdict::Completed);
        assert!(report.verified);
        assert_eq!(report.detect_ns, 0);
        assert!(report.total_ns > 0);
        assert!(report.failure.is_none());
    }

    #[test]
    fn abort_cell_terminates_with_peer_dead() {
        let params = ScenarioParams::new(Strategy::GpuTn)
            .nodes(4)
            .size(64 * 1024)
            .seed(7)
            .patch(ConfigPatch::crash_node(2, 50_000).with_detection(RecoveryPolicy::Abort));
        let report = run_cell(&params, &Allreduce).expect("verdict");
        assert_eq!(report.verdict, Verdict::Aborted);
        assert!(!report.verified);
        assert!(report.detect_ns > 50_000, "{}", report.detect_ns);
        assert_eq!(report.total_ns, report.detect_ns);
        assert!(report.events > 0);
        // Detection-latency timeline: injection, then suspicion, then the
        // death verdict, in order.
        assert_eq!(report.injected_ns, 50_000);
        assert!(report.suspect_ns > report.injected_ns, "{report:?}");
        assert!(report.suspect_ns <= report.detect_ns, "{report:?}");
        let failure = report.failure.expect("aborts carry the failure");
        assert!(failure.contains("node 2 declared dead"), "{failure}");
        assert!(failure.contains("culprit node 2"), "{failure}");
    }

    #[test]
    fn route_around_cell_survives_a_fat_tree_edge_crash() {
        use gtn_fabric::{Fabric, FabricConfig, Topology};
        // Discover the aggregation uplink the 1 -> 2 ring flow uses (hosts
        // 1 and 2 sit under different edge switches of pod 0 in a k = 4
        // fat-tree, so the route crosses an ECMP-chosen aggregation hop).
        let ft = Topology::FatTree { k: 4 };
        let probe = Fabric::new(
            8,
            FabricConfig {
                topology: ft,
                ..FabricConfig::default()
            },
        );
        let route = probe.graph().route(gtn_mem::NodeId(1), gtn_mem::NodeId(2));
        let (a, b) = probe.graph().edge_endpoints(route[1]); // edge-sw -> agg
        let cell = |policy| {
            ScenarioParams::new(Strategy::GpuTn)
                .nodes(8)
                .size(64 * 1024)
                .seed(7)
                .patch(
                    ConfigPatch::crash_edge(a, b, 50_000)
                        .with_topology(ft)
                        .with_detection(policy),
                )
        };
        // Same injection, policy the only variable: route-around completes
        // the collective over the surviving wires...
        let survived = run_cell(&cell(RecoveryPolicy::RouteAround), &Allreduce).expect("verdict");
        assert_eq!(survived.verdict, Verdict::Recovered, "{survived:?}");
        assert!(survived.verified);
        assert!(survived.reroutes > 0, "{survived:?}");
        assert_eq!(survived.recovery_ns, 0, "no re-run: the fabric healed");
        assert!(survived.failure.is_none());
        // ...while Abort rides the dead wire into a PeerDead verdict.
        let aborted = run_cell(&cell(RecoveryPolicy::Abort), &Allreduce).expect("verdict");
        assert_eq!(aborted.verdict, Verdict::Aborted, "{aborted:?}");
        let failure = aborted.failure.expect("aborts carry the failure");
        assert!(failure.contains("declared dead"), "{failure}");
        assert!(failure.contains("culprit graph edge"), "{failure}");
    }

    #[test]
    fn route_around_cannot_save_a_partitioned_star_host() {
        // A star host's uplink is its only wire: withdrawal under
        // route-around leaves the pair partitioned and the end-to-end
        // detector still aborts the run. 4 hosts: vertex 4 is the switch.
        let params = ScenarioParams::new(Strategy::GpuTn)
            .nodes(4)
            .size(64 * 1024)
            .seed(7)
            .patch(
                ConfigPatch::crash_edge(2, 4, 20_000).with_detection(RecoveryPolicy::RouteAround),
            );
        let report = run_cell(&params, &Allreduce).expect("verdict");
        assert_eq!(report.verdict, Verdict::Aborted, "{report:?}");
        assert!(!report.verified);
        assert!(report.failure.is_some());
    }

    #[test]
    fn rebuild_cell_recovers_on_the_survivor_ring() {
        let params = ScenarioParams::new(Strategy::GpuTn)
            .nodes(4)
            .size(64 * 1024)
            .seed(7)
            .patch(
                ConfigPatch::crash_node(2, 50_000)
                    .with_detection(RecoveryPolicy::RebuildCollective),
            );
        let report = run_cell(&params, &Allreduce).expect("verdict");
        assert_eq!(report.verdict, Verdict::Recovered);
        assert!(report.verified);
        assert!(report.recovery_ns > 0);
        assert_eq!(report.total_ns, report.detect_ns + report.recovery_ns);
    }

    #[test]
    fn checkpoint_cell_replays_jacobi_from_the_halfway_sweep() {
        let params = ScenarioParams::new(Strategy::GpuTn)
            .grid(2, 2)
            .size(16)
            .iters(4)
            .seed(0xA11CE)
            .patch(
                ConfigPatch::crash_node(3, 2_000).with_detection(RecoveryPolicy::CheckpointRestart),
            );
        let report = run_cell(&params, &Jacobi).expect("verdict");
        assert_eq!(report.verdict, Verdict::Recovered);
        assert!(report.verified);
        assert!(report.recovery_ns > 0);
    }
}
