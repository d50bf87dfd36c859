//! Ring Allreduce (Fig. 2, Fig. 10, §5.4.1).
//!
//! The libNBC-style schedule ([`gtn_host::nbc::ring_allreduce`]) runs
//! `2(P−1)` rounds: a reduce-scatter phase (each round sends a vector chunk
//! to the ring successor, receives one from the predecessor, and folds it
//! in) followed by an allgather phase (fully-reduced chunks circulate).
//!
//! The ring is lowered by the generic executor ([`crate::collective`],
//! [`Collective::RingAllreduce`]), which maps the schedule onto each
//! strategy exactly as §5.4.1 describes:
//! - **CPU** — sends/recvs via the eager MPI layer, reductions on the CPU.
//! - **HDN** — same messaging; each reduction is its own GPU kernel, so
//!   every round pays the kernel boundary.
//! - **GDS** — puts are pre-registered; a kernel per round whose boundary
//!   doorbell launches the next round's send.
//! - **GPU-TN** — "the entire collective operation is performed from
//!   within a single GPU kernel. The GPU kernel polls on a memory location
//!   to know when an adjacent node has contributed data for the reduction
//!   ... and triggers the GPU to send data for the next phase."
//!
//! Results are verified against the exact ring-order chain sum (bit-exact
//! f32), and all nodes must agree.

use crate::collective::{self, Collective, CollectiveParams};
use crate::harness::{JobFailure, ScenarioParams, ScenarioResult, Workload};
use gtn_core::config::ClusterConfig;
use gtn_core::Strategy;
use gtn_host::compute::CpuCompute;
use gtn_host::nbc::chunk_range;
use gtn_mem::latency::MemHierarchy;
use gtn_sim::rng::SimRng;
use gtn_sim::time::SimDuration;

/// Parameters of one Allreduce run.
#[derive(Debug, Clone, Copy)]
pub struct AllreduceParams {
    /// Participating nodes (Fig. 10 sweeps 2..=32).
    pub nodes: u32,
    /// Elements of the f32 vector (Fig. 10: 8 MB = 2 Mi elements).
    pub elems: u64,
    /// Strategy.
    pub strategy: Strategy,
    /// Seed for the input vectors.
    pub seed: u64,
}

impl AllreduceParams {
    /// Assemble params field-by-field.
    pub fn new(nodes: u32, elems: u64, strategy: Strategy, seed: u64) -> Self {
        AllreduceParams {
            nodes,
            elems,
            strategy,
            seed,
        }
    }
}

/// Result of one run.
#[derive(Debug)]
pub struct AllreduceResult {
    /// The unified result; its `total` is the completion time of the
    /// slowest node (the Fig. 10 quantity).
    pub scenario: ScenarioResult,
    /// Final vector of node 0 (all nodes are asserted identical).
    pub result: Vec<f32>,
}

/// Deterministic input element `j` of rank `i`: the first `[-1, 1)` draw
/// of the stream seeded by `seed ^ rank << 40 ^ j`, in closed form.
#[inline]
pub(crate) fn input_value(seed: u64, rank: u32, j: u64) -> f32 {
    SimRng::keyed_f32(input_base(seed, rank) ^ j, -1.0, 1.0)
}

/// Rank `rank`'s whole input vector, [`input_value`] for `j = 0, 1, …`,
/// written into `out` as little-endian `f32` bytes by the bulk kernel.
pub(crate) fn fill_input(seed: u64, rank: u32, out: &mut [u8]) {
    SimRng::keyed_f32_fill(input_base(seed, rank), 0, -1.0, 1.0, out)
}

/// The part of an input key that names the rank's stream.
fn input_base(seed: u64, rank: u32) -> u64 {
    seed ^ ((rank as u64) << 40)
}

/// Exact expected result: for chunk `c`, the partial starts at rank `c`
/// and folds ranks `c+1, c+2, …` in ring order (`acc = v_j + acc`),
/// matching the distributed arithmetic bit-for-bit.
pub fn reference(nodes: u32, elems: u64, seed: u64) -> Vec<f32> {
    let ranks: Vec<u32> = (0..nodes).collect();
    reference_ranks(&ranks, elems, seed)
}

/// [`reference()`] over an explicit rank list: position `k` of the ring
/// contributes rank `ranks[k]`'s input vector. The rebuild-collective
/// recovery policy verifies its survivor ring against this — the dead
/// rank's contribution is (correctly) absent.
pub fn reference_ranks(ranks: &[u32], elems: u64, seed: u64) -> Vec<f32> {
    let p = ranks.len() as u32;
    let mut out = vec![0f32; elems as usize];
    for c in 0..p {
        let (off, len) = chunk_range(c, elems, p);
        for j in off..off + len {
            let mut acc = input_value(seed, ranks[c as usize], j);
            for step in 1..p {
                let pos = (c + step) % p;
                acc += input_value(seed, ranks[pos as usize], j);
            }
            out[j as usize] = acc;
        }
    }
    out
}

/// GPU time to fold one chunk (`dst += src`): ~12 B/element of traffic on
/// the shared DDR4.
pub(crate) fn gpu_reduce_time(elems: u64) -> SimDuration {
    MemHierarchy::table2_gpu().sweep_time(12 * elems) + SimDuration::from_ns(200)
}

/// CPU time to fold one chunk. Calibrated to ~80 GB/s effective — well
/// below the 136 GB/s channel peak, because the MPI-side reduction is a
/// read-modify-write chain over cold eager-buffer data (this constant
/// places the Fig. 10 HDN/CPU crossover near the paper's ~24 nodes; see
/// EXPERIMENTS.md).
pub(crate) fn cpu_reduce_time(cpu: &CpuCompute, elems: u64) -> SimDuration {
    SimDuration::from_ns_f64(12.0 * elems as f64 / 80.0) + cpu.fork_join()
}

/// Run one configuration with the default (lossless) cluster config.
pub fn run(params: AllreduceParams) -> AllreduceResult {
    try_run_with_config(params, |_| {})
        .unwrap_or_else(|failure| panic!("allreduce did not complete\n{failure}"))
}

/// Run one configuration, applying `mutate` to the cluster config after
/// the workload's defaults are set (fault-injection studies hook in
/// here). Rejected params come back as [`JobFailure::Invalid`], a run the
/// failure detector or watchdog terminated as [`JobFailure::Stalled`], and
/// nodes that finish with different vectors as [`JobFailure::Diverged`].
pub fn try_run_with_config(
    params: AllreduceParams,
    mutate: impl FnOnce(&mut ClusterConfig),
) -> Result<AllreduceResult, JobFailure> {
    run_ring(params, None, mutate)
}

/// Run a rebuilt ring: `params.nodes` positions whose inputs are the
/// original vectors of `ranks` (so a `p−1`-node ring of survivors reduces
/// exactly the surviving contributions); a list of another length than
/// `params.nodes` is [`JobFailure::Invalid`]. Verify against
/// [`reference_ranks`] with the same list.
pub(crate) fn run_with_ranks(
    params: AllreduceParams,
    ranks: &[u32],
    mutate: impl FnOnce(&mut ClusterConfig),
) -> Result<AllreduceResult, JobFailure> {
    run_ring(params, Some(ranks), mutate)
}

fn run_ring(
    params: AllreduceParams,
    ranks: Option<&[u32]>,
    mutate: impl FnOnce(&mut ClusterConfig),
) -> Result<AllreduceResult, JobFailure> {
    let cp = CollectiveParams {
        nodes: params.nodes,
        elems: params.elems,
        strategy: params.strategy,
        seed: params.seed,
    };
    let (cluster, vecs, scenario) =
        collective::execute("allreduce", Collective::RingAllreduce, cp, ranks, mutate)?;
    // All nodes must agree, compared in place; return node 0's vector.
    let mem = cluster.mem();
    let bytes = params.elems * 4;
    let v0 = mem.read(vecs[0], bytes);
    for (node, &v) in vecs.iter().enumerate().skip(1) {
        if mem.read(v, bytes) != v0 {
            return Err(JobFailure::Diverged(format!(
                "node {node} disagrees with node 0"
            )));
        }
    }
    Ok(AllreduceResult {
        scenario,
        result: mem.read_f32s(vecs[0], params.elems as usize),
    })
}

/// Run the [`collective`] schedule family behind `params.variant` and
/// check every rank against the lock-step replay, bit for bit.
fn run_variant(name: &'static str, params: &ScenarioParams) -> Result<ScenarioResult, JobFailure> {
    let kind = match params.variant {
        0 => Collective::RingAllreduce,
        1 => Collective::TreeAllreduce,
        2 => Collective::HierAllreduce { group_size: 0 },
        v => return Err(JobFailure::Invalid(format!("unknown {name} variant {v}"))),
    };
    let cp = CollectiveParams {
        nodes: params.node_count(),
        elems: params.size,
        strategy: params.strategy,
        seed: params.seed,
    };
    let r = collective::try_run_with_config(name, kind, cp, |config| params.patch.apply(config))?;
    let expect = collective::reference(kind, cp.nodes, cp.elems, cp.seed);
    match r.vectors.iter().zip(&expect).position(|(v, e)| v != e) {
        Some(rank) => Err(JobFailure::Diverged(format!(
            "{} {kind:?} rank {rank} differs from the lock-step replay",
            params.strategy
        ))),
        None => Ok(r.scenario),
    }
}

/// Fig. 10's workload, adapted to the shared [`Workload`] frame.
///
/// Variant 0 (the default) runs the ring schedule of Fig. 10, variant 1
/// the binomial-tree schedule and variant 2 the hierarchical schedule, all
/// through [`collective`].
#[derive(Debug, Default)]
pub struct Allreduce;

impl Workload for Allreduce {
    fn name(&self) -> &'static str {
        "allreduce"
    }

    fn smoke_scenario(&self, strategy: Strategy) -> ScenarioParams {
        ScenarioParams::new(strategy)
            .nodes(5)
            .size(64 * 1024)
            .seed(0xBEEF)
    }

    fn run(&self, params: &ScenarioParams) -> Result<ScenarioResult, JobFailure> {
        run_variant(self.name(), params)
    }
}

/// The hierarchical (group-then-leader-ring) Allreduce as a first-class
/// workload: intra-group binomial reduce, ring Allreduce among the group
/// leaders, intra-group broadcast. Smoke uses 8 nodes in groups of 2 so
/// every phase — including a leader ring wider than two — is exercised.
#[derive(Debug, Default)]
pub struct HierAllreduce;

impl Workload for HierAllreduce {
    fn name(&self) -> &'static str {
        "allreduce_hier"
    }

    fn smoke_scenario(&self, strategy: Strategy) -> ScenarioParams {
        ScenarioParams::new(strategy)
            .nodes(8)
            .size(4 * 1024)
            .seed(0xBEEF)
            .variant(2)
    }

    fn run(&self, params: &ScenarioParams) -> Result<ScenarioResult, JobFailure> {
        if params.variant != 2 {
            return Err(JobFailure::Invalid(format!(
                "allreduce_hier is variant 2, got {}",
                params.variant
            )));
        }
        run_variant(self.name(), params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(strategy: Strategy, nodes: u32, elems: u64) -> AllreduceParams {
        AllreduceParams::new(nodes, elems, strategy, 0xBEEF)
    }

    fn total_us(p: AllreduceParams) -> f64 {
        run(p).scenario.total.as_us_f64()
    }

    #[test]
    fn input_stream_is_pinned() {
        // Bit patterns of the seeded `SimRng` stream: a change to the
        // closed form or to the vendored generator fails here by name.
        let pins = [
            (4u32, 1000u64, 0xBEEFu64, 0usize, 0xbf83_4ac6u32),
            (4, 1000, 0xBEEF, 1, 0x3f49_64b6),
            (4, 1000, 0xBEEF, 499, 0xbeb4_9578),
            (4, 1000, 0xBEEF, 999, 0x3f98_ab5c),
            (32, 64, 7, 0, 0xc035_4da5),
            (32, 64, 7, 31, 0xbfdc_551a),
            (32, 64, 7, 63, 0xbfe1_d665),
        ];
        for (nodes, elems, seed, j, bits) in pins {
            let v = reference(nodes, elems, seed)[j];
            assert_eq!(
                v.to_bits(),
                bits,
                "reference({nodes}, {elems}, {seed:#x})[{j}]"
            );
        }
        assert_eq!(input_value(0xBEEF, 31, 1 << 20).to_bits(), 0x3d4c_80e0);
        assert_eq!(input_value(u64::MAX, 17, 3).to_bits(), 0x3e9b_4cf8);
    }

    #[test]
    fn ragged_chunks_and_edge_node_counts_work() {
        // 5 nodes, 1001 elements: chunks of 201/200/200/200/200 — and the
        // 2-node minimum.
        for (nodes, elems, seed) in [(5u32, 1001u64, 1u64), (2, 512, 3)] {
            let expect = reference(nodes, elems, seed);
            for strategy in [Strategy::Hdn, Strategy::GpuTn] {
                let r = run(AllreduceParams::new(nodes, elems, strategy, seed));
                assert_eq!(r.result, expect, "{strategy} P={nodes}");
            }
        }
    }

    #[test]
    fn one_sided_rings_stay_exact_under_loss() {
        // 1% loss with ARQ: a retransmit holds back a sender's in-order
        // stream, then releases several rounds in a burst. Without the
        // receiver's credits the burst overwrote a staging slot before its
        // fold, on exactly these cells (input seed = loss seed).
        use crate::harness::ConfigPatch;
        let cells = [
            (
                Strategy::GpuTn,
                16u32,
                4 * 1024u64,
                &[1u64, 2, 3, 4, 5, 6][..],
            ),
            (Strategy::Gds, 32, 16 * 1024, &[1, 5][..]),
        ];
        for (strategy, nodes, elems, seeds) in cells {
            for &seed in seeds {
                let patch = ConfigPatch::loss(seed, 0.01);
                let r =
                    try_run_with_config(AllreduceParams::new(nodes, elems, strategy, seed), |c| {
                        patch.apply(c)
                    })
                    .unwrap_or_else(|f| panic!("{strategy} {nodes}x{elems} seed {seed}: {f}"));
                assert!(
                    r.scenario.retransmits > 0,
                    "{strategy} seed {seed} lost nothing"
                );
                assert_eq!(
                    r.result,
                    reference(nodes, elems, seed),
                    "{strategy} {nodes}x{elems} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn gputn_scales_better_than_hdn() {
        // Strong scaling at a small vector (compressed version of the
        // Fig. 10 effect): as nodes grow, HDN's per-round kernel overheads
        // bite and GPU-TN's advantage widens.
        let elems = 64 * 1024; // 256 kB
        let ratio = |p: u32| {
            total_us(params(Strategy::Hdn, p, elems)) / total_us(params(Strategy::GpuTn, p, elems))
        };
        let small = ratio(2);
        let large = ratio(8);
        assert!(
            large > small,
            "advantage should widen: P=2 {small}, P=8 {large}"
        );
        assert!(large > 1.0);
    }

    #[test]
    fn hdn_eventually_loses_to_cpu_while_gputn_does_not() {
        // The Fig. 10 crossover, compressed: with many nodes and small
        // chunks, HDN's kernel-boundary overhead drops it below the CPU
        // baseline; GPU-TN stays ahead.
        let elems = 32 * 1024; // small chunks at P=16
        let cpu = total_us(params(Strategy::Cpu, 16, elems));
        let hdn = total_us(params(Strategy::Hdn, 16, elems));
        let tn = total_us(params(Strategy::GpuTn, 16, elems));
        assert!(hdn > cpu, "HDN {hdn} should fall below CPU {cpu} at scale");
        assert!(tn < cpu, "GPU-TN {tn} should stay ahead of CPU {cpu}");
    }
}
