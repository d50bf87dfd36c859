//! Ring AllGather (§5.4.1's "other collectives" point, made concrete).
//!
//! Each rank contributes chunk `rank` of the vector; after `P−1` rounds of
//! neighbor forwarding every rank holds all `P` contributions. Unlike
//! Allreduce there is no arithmetic at all — every inbound segment is a
//! `Replace`, so the workload isolates the *pure messaging* cost of the
//! four strategies: HDN still pays a kernel boundary per forwarded round,
//! GDS forwards at kernel-boundary doorbells, and GPU-TN's persistent
//! kernel polls the round flag and releases the next trigger with no host
//! involvement.
//!
//! The schedule is [`gtn_host::nbc::ring_allgather`], lowered by the
//! generic [`collective`] executor. Verification is exact: element `j` of
//! chunk `c` on every rank must equal rank `c`'s deterministic input —
//! bit-for-bit, since the payload is only ever copied.

use crate::allreduce::input_value;
use crate::collective::{self, Collective, CollectiveParams, CollectiveResult};
use crate::harness::{JobFailure, ScenarioParams, ScenarioResult, Workload};
use gtn_core::config::ClusterConfig;
use gtn_host::nbc::chunk_range;

/// Run one ring AllGather and check that every rank's chunk `c` is rank
/// `c`'s input, untouched. Rejected params come back as
/// [`JobFailure::Invalid`], a terminated run as [`JobFailure::Stalled`]
/// and a wrong element as [`JobFailure::Diverged`].
pub fn try_run_with_config(
    params: CollectiveParams,
    mutate: impl FnOnce(&mut ClusterConfig),
) -> Result<CollectiveResult, JobFailure> {
    let r =
        collective::try_run_with_config("allgather", Collective::RingAllgather, params, mutate)?;
    for (rank, v) in r.vectors.iter().enumerate() {
        for c in 0..params.nodes {
            let (off, len) = chunk_range(c, params.elems, params.nodes);
            for j in off..off + len {
                let want = input_value(params.seed, c, j);
                if v[j as usize] != want {
                    return Err(JobFailure::Diverged(format!(
                        "{} rank {rank} chunk {c} element {j}: got {}, want {want}",
                        params.strategy, v[j as usize]
                    )));
                }
            }
        }
    }
    Ok(r)
}

/// Ring AllGather as a first-class workload.
#[derive(Debug, Default)]
pub struct Allgather;

impl Workload for Allgather {
    fn name(&self) -> &'static str {
        "allgather"
    }

    fn smoke_scenario(&self, strategy: gtn_core::Strategy) -> ScenarioParams {
        ScenarioParams::new(strategy)
            .nodes(5)
            .size(16 * 1024)
            .seed(0xBEEF)
    }

    fn run(&self, params: &ScenarioParams) -> Result<ScenarioResult, JobFailure> {
        let cp = CollectiveParams {
            nodes: params.node_count(),
            elems: params.size,
            strategy: params.strategy,
            seed: params.seed,
        };
        try_run_with_config(cp, |config| params.patch.apply(config)).map(|r| r.scenario)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtn_core::Strategy;

    #[test]
    fn gather_is_exact_on_ragged_chunks() {
        for strategy in [Strategy::Cpu, Strategy::GpuTn] {
            let cp = CollectiveParams {
                nodes: 5,
                elems: 1001,
                strategy,
                seed: 17,
            };
            try_run_with_config(cp, |_| {}).unwrap_or_else(|f| panic!("{strategy}: {f}"));
        }
    }

    #[test]
    fn workload_frame_verifies_the_smoke_scenario() {
        let w = Allgather;
        let p = w.smoke_scenario(Strategy::Gds);
        let scenario = w.run(&p).expect("smoke verifies");
        assert_eq!(scenario.workload, "allgather");
    }
}
