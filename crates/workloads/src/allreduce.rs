//! Ring Allreduce (Fig. 2, Fig. 10, §5.4.1).
//!
//! The libNBC-style schedule ([`gtn_host::nbc::ring_allreduce`]) runs
//! `2(P−1)` rounds: a reduce-scatter phase (each round sends a vector chunk
//! to the ring successor, receives one from the predecessor, and folds it
//! in) followed by an allgather phase (fully-reduced chunks circulate).
//!
//! Strategy mapping, exactly as §5.4.1 describes:
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
use crate::harness::{Harness, JobFailure, ScenarioParams, ScenarioResult, Workload};
use gtn_core::comm::{self, GpuTnDriver};
use gtn_core::config::ClusterConfig;
use gtn_core::Strategy;
use gtn_gpu::kernel::ProgramBuilder;
use gtn_gpu::KernelLaunch;
use gtn_host::compute::CpuCompute;
use gtn_host::nbc::chunk_range;
use gtn_host::HostProgram;
use gtn_mem::latency::MemHierarchy;
use gtn_mem::scope::{MemOrdering, MemScope};
use gtn_mem::{Addr, MemPool, NodeId};
use gtn_nic::lookup::LookupKind;
use gtn_nic::op::{NetOp, Notify};
use gtn_nic::Tag;
use gtn_sim::rng::SimRng;
use gtn_sim::time::SimDuration;

/// Staging slots for in-flight reduce-scatter chunks (ring flow control).
const STAGE_SLOTS: u64 = 4;

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

#[derive(Debug, Clone, Copy)]
struct NodeBufs {
    vec: Addr,
    stage: Addr,
    stage_slot_bytes: u64,
    flag: Addr,
    comp: Addr,
}

/// Deterministic input element `j` of rank `i`.
pub(crate) fn input_value(seed: u64, rank: u32, j: u64) -> f32 {
    let mut rng = SimRng::seeded(seed ^ ((rank as u64) << 40) ^ j);
    rng.range_f32(-1.0, 1.0)
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
    run_with_config(params, |_| {})
}

/// Run one configuration, applying `mutate` to the cluster config after
/// the workload's defaults are set (fault-injection studies hook in here).
pub fn run_with_config(
    params: AllreduceParams,
    mutate: impl FnOnce(&mut ClusterConfig),
) -> AllreduceResult {
    run_inner(params, None, mutate)
        .unwrap_or_else(|failure| panic!("allreduce did not complete\n{failure}"))
}

/// [`run_with_config`] with structured failure: a run the failure detector
/// or watchdog terminated comes back as `Err(JobFailure)`.
pub fn try_run_with_config(
    params: AllreduceParams,
    mutate: impl FnOnce(&mut ClusterConfig),
) -> Result<AllreduceResult, JobFailure> {
    run_inner(params, None, mutate)
}

/// Run a rebuilt ring: `params.nodes` positions whose inputs are the
/// original vectors of `ranks` (so a `p−1`-node ring of survivors reduces
/// exactly the surviving contributions). `ranks.len()` must equal
/// `params.nodes`. Verify against [`reference_ranks`] with the same list.
pub fn run_with_ranks(
    params: AllreduceParams,
    ranks: &[u32],
    mutate: impl FnOnce(&mut ClusterConfig),
) -> Result<AllreduceResult, JobFailure> {
    run_inner(params, Some(ranks), mutate)
}

fn run_inner(
    params: AllreduceParams,
    ranks: Option<&[u32]>,
    mutate: impl FnOnce(&mut ClusterConfig),
) -> Result<AllreduceResult, JobFailure> {
    let p = params.nodes;
    if let Some(map) = ranks {
        assert_eq!(map.len(), p as usize, "one original rank per position");
    }
    assert!(p >= 2, "allreduce needs at least 2 nodes");
    assert!(params.elems >= p as u64, "fewer elements than chunks");

    let mut config = ClusterConfig::table2(p);
    config.log_events = false;
    config.nic.lookup = LookupKind::HashTable;
    // Chunk flights are tens to hundreds of microseconds; a 500 ns poll
    // quantum is invisible in the results and keeps event counts sane on
    // the 32-node sweep.
    config.gpu.poll_interval_ns = 500;
    config.host.poll_interval_ns = 500;
    mutate(&mut config);

    let max_chunk = (0..p)
        .map(|c| chunk_range(c, params.elems, p).1)
        .max()
        .unwrap();
    let chunk_bytes = max_chunk * 4;

    let mut mem = MemPool::new(p as usize);
    let bufs: Vec<NodeBufs> = (0..p)
        .map(|node| {
            let id = NodeId(node);
            let b = NodeBufs {
                vec: Addr::base(id, mem.alloc(id, params.elems * 4, "ar.vec")),
                stage: Addr::base(id, mem.alloc(id, chunk_bytes * STAGE_SLOTS, "ar.stage")),
                stage_slot_bytes: chunk_bytes,
                flag: Addr::base(id, mem.alloc(id, 8, "ar.flag")),
                comp: Addr::base(id, mem.alloc(id, 8, "ar.comp")),
            };
            // Fill the input vector (under a rank map, position `node`
            // carries its original rank's data).
            let rank = ranks.map_or(node, |m| m[node as usize]);
            let vals: Vec<f32> = (0..params.elems)
                .map(|j| input_value(params.seed, rank, j))
                .collect();
            mem.write_f32s(b.vec, &vals);
            b
        })
        .collect();

    let rounds = 2 * (p - 1);
    let md = |x: i64| ((x % p as i64 + p as i64) % p as i64) as u32;
    // Rank i's per-round geometry, same for every strategy, as
    // (send_chunk, recv_chunk, reduce):
    //   RS round r (0..P-1):  send (i−r), recv (i−r−1) → reduce.
    //   AG round r' (0..P-1): send (i+1−r'), recv (i−r') → in place.
    let geometry = |i: i64, r: u32| -> (u32, u32, bool) {
        if r < p - 1 {
            (md(i - r as i64), md(i - r as i64 - 1), true)
        } else {
            let rp = (r - (p - 1)) as i64;
            (md(i + 1 - rp), md(i - rp), false)
        }
    };

    // Two-sided drivers build their MPI lane here from the ring's traffic
    // (every round, rank i sends one chunk to i+1); one-sided drivers need
    // no setup.
    let mut messages = Vec::with_capacity((p * rounds) as usize);
    for node in 0..p {
        for r in 0..rounds {
            let (send_chunk, _, _) = geometry(node as i64, r);
            let bytes = chunk_range(send_chunk, params.elems, p).1 * 4;
            messages.push((node, (node + 1) % p, bytes));
        }
    }
    let mut driver = comm::driver(params.strategy);
    driver.setup(&config, &mut mem, chunk_bytes, &messages);
    let cpu_model = CpuCompute::new(config.host.clone());

    let mut programs = Vec::with_capacity(p as usize);

    for node in 0..p {
        let i = node as i64;
        let b = bufs[node as usize];
        let next = (node + 1) % p;
        let prev = (node + p - 1) % p;
        let nb = bufs[next as usize];
        let round_info = |r: u32| geometry(i, r);

        // Where does round r's put land on the *receiver* (`next`'s view
        // with its own indices)? The receiver (i+1) computes the same
        // round structure; its recv chunk equals our send chunk, so:
        let put_for_round = |r: u32, completion: bool| -> NetOp {
            let (send_chunk, _, _) = round_info(r);
            let (off, len) = chunk_range(send_chunk, params.elems, p);
            let dst = if r < p - 1 {
                nb.stage
                    .offset_by((r as u64 % STAGE_SLOTS) * nb.stage_slot_bytes)
            } else {
                nb.vec.offset_by(off * 4)
            };
            NetOp::Put {
                src: b.vec.offset_by(off * 4),
                len: len * 4,
                target: NodeId(next),
                dst,
                notify: Some(Notify {
                    flag: nb.flag,
                    add: 1,
                    chain: None,
                }),
                completion: completion.then_some(b.comp),
            }
        };

        let reduce_fn = move |mem: &mut MemPool, chunk: u32, slot: u64, elems: u64, p: u32| {
            let (off, len) = chunk_range(chunk, elems, p);
            let stage = b.stage.offset_by(slot * b.stage_slot_bytes);
            // acc_new = local + incoming (matches `reference`).
            mem.zip_f32s(
                b.vec.offset_by(off * 4),
                stage,
                len as usize,
                |local, incoming| local + incoming,
            )
            .expect("reduce in bounds");
        };

        let mut prog = HostProgram::new();
        match params.strategy {
            Strategy::Cpu | Strategy::Hdn => {
                for r in 0..rounds {
                    let (send_chunk, recv_chunk, reduce) = round_info(r);
                    let (soff, slen) = chunk_range(send_chunk, params.elems, p);
                    let (roff, rlen) = chunk_range(recv_chunk, params.elems, p);
                    driver.send(
                        &mut prog,
                        NodeId(node),
                        NodeId(next),
                        b.vec.offset_by(soff * 4),
                        slen * 4,
                    );
                    if reduce {
                        // Receive into staging slot 0, then fold.
                        driver.recv(&mut prog, NodeId(prev), NodeId(node), b.stage, rlen * 4);
                        let chunk = recv_chunk;
                        let elems = params.elems;
                        if params.strategy == Strategy::Cpu {
                            prog.compute(cpu_reduce_time(&cpu_model, rlen));
                            prog.func(move |mem| reduce_fn(mem, chunk, 0, elems, p));
                        } else {
                            let label = format!("red{r}");
                            let kernel = ProgramBuilder::new()
                                .compute(gpu_reduce_time(rlen))
                                .func(move |mem, _| reduce_fn(mem, chunk, 0, elems, p))
                                .build()
                                .expect("valid kernel");
                            prog.launch(KernelLaunch::new(kernel, 1, 64, &label));
                            prog.wait_kernel(&label);
                        }
                    } else {
                        // Allgather: receive straight into place.
                        driver.recv(
                            &mut prog,
                            NodeId(prev),
                            NodeId(node),
                            b.vec.offset_by(roff * 4),
                            rlen * 4,
                        );
                        if params.strategy == Strategy::Hdn {
                            // §5.4.1/§5.3: HDN "exits the kernel and
                            // returns to the host ... after every round" —
                            // the GPU re-enters a (trivial) kernel each
                            // allgather round too, paying the boundary.
                            let label = format!("fwd{r}");
                            let kernel = ProgramBuilder::new()
                                .compute(SimDuration::from_ns(100))
                                .build()
                                .expect("valid kernel");
                            prog.launch(KernelLaunch::new(kernel, 1, 64, &label));
                            prog.wait_kernel(&label);
                        }
                    }
                }
            }
            Strategy::Gds => {
                // Round 0's send moves initial data: CPU posts it directly.
                driver.post(&mut prog, put_for_round(0, false));
                for r in 0..rounds {
                    let (_, recv_chunk, reduce) = round_info(r);
                    // Pre-post the next round's send; it fires at this
                    // round's kernel boundary.
                    if r + 1 < rounds {
                        driver.register(
                            &mut prog,
                            Tag((r + 1) as u64),
                            1,
                            put_for_round(r + 1, false),
                        );
                    }
                    prog.poll(b.flag, (r + 1) as u64);
                    let label = format!("k{r}");
                    let elems = params.elems;
                    let (_, rlen) = chunk_range(recv_chunk, params.elems, p);
                    let builder = if reduce {
                        let (chunk, slot) = (recv_chunk, r as u64 % STAGE_SLOTS);
                        ProgramBuilder::new()
                            .compute(gpu_reduce_time(rlen))
                            .func(move |mem, _| reduce_fn(mem, chunk, slot, elems, p))
                            .fence(MemScope::System, MemOrdering::Release)
                    } else {
                        // Allgather: payload landed in place; the kernel
                        // exists to give the next send its boundary.
                        ProgramBuilder::new().compute(SimDuration::from_ns(100))
                    };
                    let kernel = builder.build().expect("valid kernel");
                    prog.launch(KernelLaunch::new(kernel, 1, 64, &label));
                    prog.wait_kernel(&label);
                    if r + 1 < rounds {
                        driver.on_kernel_done(node, &label, Tag((r + 1) as u64));
                    }
                }
            }
            Strategy::GpuTn => {
                // One persistent kernel for the whole collective.
                let mut builder = ProgramBuilder::new();
                for r in 0..rounds {
                    let (_, recv_chunk, reduce) = round_info(r);
                    let elems = params.elems;
                    let (_, rlen) = chunk_range(recv_chunk, params.elems, p);
                    builder = GpuTnDriver::release_trigger(builder, Tag(r as u64))
                        .poll(move |_| b.flag, (r + 1) as u64);
                    if reduce {
                        let chunk = recv_chunk;
                        let slot = r as u64 % STAGE_SLOTS;
                        builder = builder
                            .compute(gpu_reduce_time(rlen))
                            .func(move |mem, _| reduce_fn(mem, chunk, slot, elems, p));
                    }
                }
                let kernel = builder.build().expect("valid persistent kernel");
                prog.launch(KernelLaunch::new(kernel, 1, 64, "persistent"));
                // Just-in-time posting throttled by local completions.
                for r in 0..rounds {
                    driver.register(&mut prog, Tag(r as u64), 1, put_for_round(r, true));
                    prog.poll(b.comp, (r + 1) as u64);
                }
                prog.wait_kernel("persistent");
            }
        }
        programs.push(prog);
    }

    let sparams = ScenarioParams::new(params.strategy)
        .nodes(p)
        .size(params.elems)
        .seed(params.seed);
    let (cluster, scenario) =
        Harness::try_execute("allreduce", &sparams, config, mem, programs, &mut *driver)?;

    // All nodes must agree; return node 0's vector.
    let v0 = cluster.mem().read_f32s(bufs[0].vec, params.elems as usize);
    for node in 1..p {
        let v = cluster
            .mem()
            .read_f32s(bufs[node as usize].vec, params.elems as usize);
        assert_eq!(v, v0, "node {node} disagrees with node 0");
    }

    Ok(AllreduceResult {
        scenario,
        result: v0,
    })
}

/// The [`collective`] schedule family behind a non-zero scenario variant.
fn variant_kind(variant: u32) -> Collective {
    match variant {
        1 => Collective::TreeAllreduce,
        2 => Collective::HierAllreduce { group_size: 0 },
        v => panic!("unknown allreduce variant {v}"),
    }
}

fn collective_params(params: &ScenarioParams) -> CollectiveParams {
    CollectiveParams {
        nodes: params.node_count(),
        elems: params.size,
        strategy: params.strategy,
        seed: params.seed,
    }
}

/// Strict verification of a collective-executor variant: every rank must
/// reproduce the lock-step replay bit-for-bit.
fn verify_variant(name: &'static str, params: &ScenarioParams) -> Result<ScenarioResult, String> {
    let patch = params.patch;
    let kind = variant_kind(params.variant);
    let r = collective::run_with_config(name, kind, collective_params(params), |config| {
        patch.apply(config)
    });
    let expect = collective::reference(kind, params.node_count(), params.size, params.seed);
    for (rank, v) in r.vectors.iter().enumerate() {
        if v != &expect[rank] {
            return Err(format!(
                "{} rank {rank} diverges from the lock-step replay",
                params.strategy
            ));
        }
    }
    Ok(r.scenario)
}

/// Lenient run of a collective-executor variant: structured failures pass
/// through, completed runs must still be bit-exact.
fn run_variant_lenient(
    name: &'static str,
    params: &ScenarioParams,
) -> Result<ScenarioResult, JobFailure> {
    let patch = params.patch;
    let kind = variant_kind(params.variant);
    let r = collective::try_run_with_config(name, kind, collective_params(params), |config| {
        patch.apply(config)
    })?;
    let expect = collective::reference(kind, params.node_count(), params.size, params.seed);
    for (rank, v) in r.vectors.iter().enumerate() {
        assert_eq!(v, &expect[rank], "completed {kind:?} run diverges");
    }
    Ok(r.scenario)
}

/// Fig. 10's workload, adapted to the shared [`Workload`] frame.
///
/// Variant 0 (the default) is the hand-lowered ring of this module — the
/// Fig. 10 golden path, untouched by the generic executor. Variant 1 runs
/// the binomial-tree schedule and variant 2 the hierarchical schedule
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

    fn verify(&self, params: &ScenarioParams) -> Result<ScenarioResult, String> {
        if params.variant != 0 {
            return verify_variant(self.name(), params);
        }
        let patch = params.patch;
        let r = run_with_config(
            AllreduceParams {
                nodes: params.node_count(),
                elems: params.size,
                strategy: params.strategy,
                seed: params.seed,
            },
            |config| patch.apply(config),
        );
        let expect = reference(params.node_count(), params.size, params.seed);
        if r.result != expect {
            return Err(format!(
                "{} ring sum diverges from the sequential reference",
                params.strategy
            ));
        }
        Ok(r.scenario)
    }

    fn run_lenient(&self, params: &ScenarioParams) -> Result<ScenarioResult, JobFailure> {
        if params.variant != 0 {
            return run_variant_lenient(self.name(), params);
        }
        let patch = params.patch;
        let r = try_run_with_config(
            AllreduceParams {
                nodes: params.node_count(),
                elems: params.size,
                strategy: params.strategy,
                seed: params.seed,
            },
            |config| patch.apply(config),
        )?;
        let expect = reference(params.node_count(), params.size, params.seed);
        assert_eq!(r.result, expect, "completed allreduce run diverges");
        Ok(r.scenario)
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

    fn verify(&self, params: &ScenarioParams) -> Result<ScenarioResult, String> {
        assert_eq!(params.variant, 2, "allreduce_hier is variant 2");
        verify_variant(self.name(), params)
    }

    fn run_lenient(&self, params: &ScenarioParams) -> Result<ScenarioResult, JobFailure> {
        assert_eq!(params.variant, 2, "allreduce_hier is variant 2");
        run_variant_lenient(self.name(), params)
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
