//! The workload harness: one parameter vocabulary, one result shape, one
//! way to run a workload and one error for every way a run can fail.
//!
//! The vocabulary types — [`ScenarioParams`], [`ScenarioResult`], and
//! [`ConfigPatch`] — live in [`gtn_core::scenario`] and are re-exported
//! here. This module adds what is workload-shaped:
//!
//! - [`Workload`] — the trait the evaluation workloads implement. Its one
//!   runner, [`Workload::run`], builds the scenario, runs it and checks the
//!   output against the workload's reference, which is what lets one
//!   generic invariant test suite (and one strategy-subset bench filter)
//!   drive all of them.
//! - [`JobFailure`] — the error every runner returns: the input was
//!   [`Invalid`](JobFailure::Invalid), the run
//!   [`Stalled`](JobFailure::Stalled), or its output
//!   [`Diverged`](JobFailure::Diverged) from the reference.
//! - [`Harness`] — cluster execution (build → run → collect, or the stall
//!   diagnosis) plus the `GTN_STRATEGIES` env filter benches use to run a
//!   strategy subset.

use gtn_core::cluster::Cluster;
use gtn_core::config::ClusterConfig;
use gtn_core::{StallReport, Strategy};
use gtn_host::HostProgram;
use gtn_mem::MemPool;
use std::fmt;

pub use gtn_core::scenario::{ConfigPatch, ResourceLimits, ScenarioParams, ScenarioResult};

/// Why a workload run produced no result. Every runner returns it, so bad
/// input, a stuck run and a wrong answer each surface as data, never as a
/// panic or a hang.
#[derive(Debug, Clone)]
pub enum JobFailure {
    /// The params or the cluster config were rejected before any memory
    /// or program was built (a 1-node ring, fewer elements than chunks, a
    /// zero poll interval, …).
    Invalid(String),
    /// The run terminated without completing. This is the *expected*
    /// outcome of a chaos scenario under the `Abort` recovery policy: a
    /// crash-stop failure surfaces as the structured diagnosis plus the
    /// event cost of finding out.
    Stalled {
        /// Who is stuck, on what, and why the loop stopped (e.g.
        /// [`gtn_core::StallReason::PeerDead`] naming the culprit).
        report: StallReport,
        /// Events the engine processed before giving up (the liveness
        /// contract: bounded, never a hang).
        events: u64,
        /// When the failure detector first saw a peer leave `Alive`, sim
        /// ns (`None` when detection is off or nothing was ever
        /// suspected). With the report's termination time this gives the
        /// `injection → suspect → dead` detection-latency timeline.
        suspect_ns: Option<u64>,
    },
    /// A completed run's output differs from its reference computation.
    Diverged(String),
}

impl fmt::Display for JobFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobFailure::Invalid(why) => write!(f, "invalid scenario: {why}"),
            JobFailure::Stalled { report, events, .. } => {
                write!(f, "{report} (after {events} events)")
            }
            JobFailure::Diverged(what) => write!(f, "result diverges from its reference: {what}"),
        }
    }
}

/// Env var naming a strategy subset for benches, e.g.
/// `GTN_STRATEGIES=hdn,gpu-tn` (comma- or whitespace-separated, any case
/// [`Strategy`]'s `FromStr` accepts). Unset or empty means all four.
pub const STRATEGIES_ENV: &str = "GTN_STRATEGIES";

/// A paper evaluation workload, drivable generically: the invariant test
/// suite, the chaos cells and the strategy-filtered benches only speak
/// this trait.
pub trait Workload {
    /// Short name used in results and failure messages.
    fn name(&self) -> &'static str;

    /// The strategies this workload compares (presentation order). The
    /// launch study overrides this — it measures the GPU scheduler, not a
    /// networking strategy.
    fn strategies(&self) -> Vec<Strategy> {
        Strategy::all().to_vec()
    }

    /// A seconds-scale scenario of `strategy` on which this workload's
    /// qualitative orderings (GPU-TN ≤ GDS ≤ HDN) are expected to hold.
    fn smoke_scenario(&self, strategy: Strategy) -> ScenarioParams;

    /// Run one scenario and check its output against the workload's
    /// reference computation. `Ok` carries a completed, verified result;
    /// `Err` says whether the params were [`JobFailure::Invalid`], the run
    /// [`JobFailure::Stalled`] (a crash under the failure detector, or a
    /// watchdog diagnosis), or a completed run [`JobFailure::Diverged`].
    fn run(&self, params: &ScenarioParams) -> Result<ScenarioResult, JobFailure>;
}

/// Every [`Workload`] the evaluation drives, in figure order.
pub fn all_workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(crate::launch_study::LaunchStudy),
        Box::new(crate::pingpong::Pingpong),
        Box::new(crate::jacobi::Jacobi),
        Box::new(crate::allreduce::Allreduce),
        Box::new(crate::allreduce::HierAllreduce),
        Box::new(crate::allgather::Allgather),
    ]
}

/// Shared execution and strategy-filter plumbing.
pub struct Harness;

impl Harness {
    /// The strategy sweep benches should run: [`Strategy::all`] unless
    /// the `GTN_STRATEGIES` env var names a subset.
    ///
    /// # Panics
    /// Panics on an unparseable spec (a bench typo should fail loudly,
    /// not silently run the wrong sweep).
    pub fn strategies() -> Vec<Strategy> {
        match std::env::var(STRATEGIES_ENV) {
            Ok(spec) => Self::parse_filter(&spec).expect("invalid GTN_STRATEGIES"),
            Err(_) => Strategy::all().to_vec(),
        }
    }

    /// Parse a strategy-subset spec: comma- or whitespace-separated
    /// [`Strategy`] names, deduplicated and normalized to the
    /// [`Strategy::all`] presentation order. Empty means all four.
    pub fn parse_filter(spec: &str) -> Result<Vec<Strategy>, String> {
        let mut picked = Vec::new();
        for token in spec.split([',', ' ', '\t']).filter(|t| !t.is_empty()) {
            let s: Strategy = token.parse()?;
            if !picked.contains(&s) {
                picked.push(s);
            }
        }
        if picked.is_empty() {
            return Ok(Strategy::all().to_vec());
        }
        Ok(Strategy::all()
            .into_iter()
            .filter(|s| picked.contains(s))
            .collect())
    }

    /// Build the cluster, run it, and snapshot the unified result. An
    /// uncompleted run comes back as [`JobFailure::Stalled`] for the
    /// chaos/recovery layers to interpret; its rendered report reads like a
    /// diagnosis, not a debug dump. The caller has validated `config`.
    pub fn try_execute(
        workload: &'static str,
        params: &ScenarioParams,
        config: ClusterConfig,
        mem: MemPool,
        programs: Vec<HostProgram>,
    ) -> Result<(Cluster, ScenarioResult), JobFailure> {
        let mut cluster = Cluster::new(config, mem, programs);
        let result = cluster.run();
        if !result.completed {
            let report = result
                .stall
                .clone()
                .expect("uncompleted runs carry a stall report");
            return Err(JobFailure::Stalled {
                report,
                events: result.events,
                suspect_ns: cluster.first_suspect().map(|(_, at)| at.as_ps() / 1000),
            });
        }
        let scenario = ScenarioResult::collect(workload, params, &cluster, &result);
        Ok((cluster, scenario))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_filter_accepts_separators_and_normalizes_order() {
        let both = vec![Strategy::Hdn, Strategy::GpuTn];
        assert_eq!(Harness::parse_filter("hdn,gpu-tn").unwrap(), both);
        assert_eq!(Harness::parse_filter("gpu-tn hdn").unwrap(), both);
        assert_eq!(Harness::parse_filter("GPU-TN,\thdn,hdn").unwrap(), both);
    }

    #[test]
    fn parse_filter_empty_means_all() {
        assert_eq!(Harness::parse_filter("").unwrap(), Strategy::all().to_vec());
        assert_eq!(
            Harness::parse_filter(" , ").unwrap(),
            Strategy::all().to_vec()
        );
    }

    #[test]
    fn parse_filter_rejects_unknown_names() {
        assert!(Harness::parse_filter("hdn,warp-drive").is_err());
    }

    #[test]
    fn registry_names_are_unique_and_cover_the_figures() {
        let names: Vec<&str> = all_workloads().iter().map(|w| w.name()).collect();
        assert_eq!(
            names,
            [
                "launch_study",
                "pingpong",
                "jacobi",
                "allreduce",
                "allreduce_hier",
                "allgather"
            ]
        );
    }
}
