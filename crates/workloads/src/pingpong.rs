//! The Fig. 8 latency microbenchmark — extended to the full Table 1
//! taxonomy.
//!
//! "A kernel executing on an initiator node sends a message to a target
//! node. The kernel executed by the GPU in this case is a simple vector
//! copy operation of a single cache line." We run that experiment under
//! HDN, GDS, and GPU-TN and report the target-side completion time plus the
//! full phase decomposition, reproducing both the ~25%/~35% headline
//! improvements and the qualitative phenomenon that under GPU-TN the target
//! receives the data *before* the initiator's kernel completes.
//!
//! Every flavor runs through one body ([`run_flavor`]): the flavors differ
//! only in the kernel they build and in who rings the NIC — the CPU posting
//! the put, the GPU front-end's doorbell after the kernel, or a trigger
//! store inside it.

use crate::harness::{ConfigPatch, Harness, JobFailure, ScenarioParams, ScenarioResult, Workload};
use gtn_core::cluster::LogKind;
use gtn_core::config::ClusterConfig;
use gtn_core::timeline::decompose_pingpong;
use gtn_core::Strategy;
use gtn_gpu::kernel::ProgramBuilder;
use gtn_gpu::KernelLaunch;
use gtn_host::HostProgram;
use gtn_mem::scope::{MemOrdering, MemScope};
use gtn_mem::{Addr, MemPool, NodeId};
use gtn_nic::nic::NicCommand;
use gtn_nic::op::{NetOp, Notify};
use gtn_nic::Tag;
use gtn_sim::time::{SimDuration, SimTime};
use gtn_sim::trace::Trace;

/// Payload: one cache line.
pub const PAYLOAD: u64 = 64;
/// The vector-copy kernel's compute phase (64 B copy: a handful of
/// wavefront instructions; dominated by memory latency).
const COPY_KERNEL_NS: u64 = 430;

/// Result of one microbenchmark run.
#[derive(Debug)]
pub struct PingResult {
    /// The unified result; its `total` is the **target-side completion**
    /// (the Fig. 8 number), not the makespan.
    pub scenario: ScenarioResult,
    /// When the payload was committed at the target (the Fig. 8 number).
    pub target_completion: SimTime,
    /// When the initiator's kernel (incl. teardown) completed.
    pub initiator_kernel_done: SimTime,
    /// Fig. 8-style phase decomposition.
    pub trace: Trace,
}

impl PingResult {
    /// The Fig. 8 intra-kernel phenomenon: did the target complete before
    /// the initiator's kernel?
    pub fn delivered_intra_kernel(&self) -> bool {
        self.target_completion < self.initiator_kernel_done
    }
}

/// Run any §5.1 strategy, including the CPU baseline (no GPU at all: the
/// host performs the vector copy itself, then sends through the full
/// network stack — the Fig. 8 figure decomposes only the GPU strategies,
/// but the four-way `BENCH_*` reports include the CPU row too).
pub fn run_any(strategy: Strategy) -> PingResult {
    run_flavor(Flavor::Std(strategy))
}

/// The full Table 1 taxonomy: the paper's four strategies plus the two
/// intra-kernel alternatives it describes but does not implement (§5.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    /// One of the paper's evaluated strategies.
    Std(Strategy),
    /// **GPU Host Networking** [13, 21, 26, 36]: the kernel writes the
    /// payload to a bounce buffer and hands it to a CPU helper thread,
    /// which builds the command packet (full network stack) and posts it.
    /// Intra-kernel, but the CPU helper sits on the critical path.
    GpuHost,
    /// **GPU Native Networking** [8, 22, 23, 30, 31]: the kernel itself
    /// constructs the network command (serial scalar work the GPU is bad
    /// at) and rings the NIC directly. Intra-kernel, no CPU — but the
    /// GPU-side stack costs latency and divergence.
    GpuNative,
}

impl Flavor {
    /// Display name (Table 1 row).
    pub fn name(self) -> &'static str {
        match self {
            Flavor::Std(s) => s.name(),
            Flavor::GpuHost => "GPU-Host",
            Flavor::GpuNative => "GPU-Native",
        }
    }

    /// Table 1 "Intra-Kernel" column.
    pub fn intra_kernel(self) -> bool {
        match self {
            Flavor::Std(s) => s.intra_kernel(),
            Flavor::GpuHost | Flavor::GpuNative => true,
        }
    }

    /// Table 1 "GPU Triggered" column.
    pub fn gpu_triggered(self) -> bool {
        match self {
            Flavor::Std(s) => s.gpu_triggered(),
            Flavor::GpuHost => false, // the CPU helper rings the NIC
            Flavor::GpuNative => true,
        }
    }

    /// Does a CPU (helper) thread sit on the per-message critical path?
    pub fn cpu_on_critical_path(self) -> bool {
        matches!(self, Flavor::Std(Strategy::Hdn) | Flavor::GpuHost)
    }

    /// All five Table 1 rows we can measure (CPU-only is not a GPU
    /// networking strategy).
    pub fn taxonomy() -> [Flavor; 5] {
        use {Flavor::*, Strategy::*};
        [Std(Hdn), Std(Gds), GpuHost, GpuNative, Std(GpuTn)]
    }

    /// The §5.1 strategy whose wire mechanics this flavor reports as: the
    /// GPU Host model rides the host-driven path, GPU Native rides a
    /// direct doorbell.
    fn reported_strategy(self) -> Strategy {
        match self {
            Flavor::Std(s) => s,
            Flavor::GpuHost => Strategy::Hdn,
            Flavor::GpuNative => Strategy::GpuTn,
        }
    }
}

/// Serial command-packet construction on a 1 GHz scalar GPU thread: ~4x
/// the 4 GHz CPU's 300 ns stack (§5.1.1: "the serial task of creating a
/// network compatible command packet" is what GPU-TN offloads).
const GPU_NATIVE_STACK_NS: u64 = 1_200;
/// Extra bounce-buffer copy the GPU Host model pays (payload staged for
/// the helper).
const BOUNCE_COPY_NS: u64 = 60;

/// Run a Table 1 flavor of the microbenchmark: one body for the whole
/// taxonomy — flavors differ only in the kernel they build and in who
/// launches the put.
pub fn run_flavor(flavor: Flavor) -> PingResult {
    try_run_flavor(flavor, ConfigPatch::NONE)
        .unwrap_or_else(|failure| panic!("pingpong {} did not complete\n{failure}", flavor.name()))
}

/// [`run_flavor`] with config overrides and structured failure: a patch
/// the config rejects comes back as [`JobFailure::Invalid`], a crash
/// scenario as [`JobFailure::Stalled`], and a payload that arrives
/// corrupted as [`JobFailure::Diverged`].
pub fn try_run_flavor(flavor: Flavor, patch: ConfigPatch) -> Result<PingResult, JobFailure> {
    let strategy = flavor.reported_strategy();
    let params = ScenarioParams::new(strategy).size(PAYLOAD).patch(patch);
    let mut config = ClusterConfig::table2(2);
    patch.apply(&mut config);
    config.validate().map_err(JobFailure::Invalid)?;
    let mut mem = MemPool::new(2);
    // `src` doubles as the GPU Host flavor's bounce buffer: in both roles
    // it is the staging area the NIC reads the payload from.
    let src = Addr::base(NodeId(0), mem.alloc(NodeId(0), PAYLOAD, "pp.src"));
    let input = Addr::base(NodeId(0), mem.alloc(NodeId(0), PAYLOAD, "pp.input"));
    let request = (flavor == Flavor::GpuHost)
        .then(|| Addr::base(NodeId(0), mem.alloc(NodeId(0), 8, "pp.request")));
    let dst = Addr::base(NodeId(1), mem.alloc(NodeId(1), PAYLOAD, "pp.dst"));
    let flag = Addr::base(NodeId(1), mem.alloc(NodeId(1), 8, "pp.flag"));
    mem.write(input, &[0xC5; PAYLOAD as usize]);

    let put = NetOp::Put {
        src,
        len: PAYLOAD,
        target: NodeId(1),
        dst,
        notify: Some(Notify {
            flag,
            add: 1,
            chain: None,
        }),
        completion: None,
    };

    // The vector-copy body shared by every strategy: copy one cache line
    // from `input` to the send buffer (`ns` varies for the GPU Host
    // flavor's extra bounce copy).
    let copy_body = move |b: ProgramBuilder, ns: u64| -> ProgramBuilder {
        b.compute(SimDuration::from_ns(ns)).func(move |mem, _| {
            let bytes = mem.read(input, PAYLOAD).to_vec();
            mem.write(src, &bytes);
        })
    };

    // For the flavors where the GPU side fires the put: the CPU
    // pre-registers it under tag 1.
    let register = |op| NicCommand::TriggeredPut {
        tag: Tag(1),
        threshold: 1,
        op,
    };
    let mut p0 = HostProgram::new();
    let mut p1 = HostProgram::new();
    p1.poll(flag, 1);

    match flavor {
        Flavor::Std(Strategy::Cpu) => {
            // The host performs the copy itself, then sends (full stack).
            p0.compute(SimDuration::from_ns(COPY_KERNEL_NS))
                .func(move |mem| {
                    let bytes = mem.read(input, PAYLOAD).to_vec();
                    mem.write(src, &bytes);
                })
                .nic_post(NicCommand::Put(put));
        }
        Flavor::Std(Strategy::Hdn) => {
            // Launch, wait the kernel boundary, then the CPU sends (full
            // stack) — the classic coprocessor flow.
            let kernel = copy_body(ProgramBuilder::new(), COPY_KERNEL_NS)
                .build()
                .expect("valid");
            p0.launch(KernelLaunch::new(kernel, 1, 64, "pp"))
                .wait_kernel("pp")
                .nic_post(NicCommand::Put(put));
        }
        Flavor::Std(Strategy::Gds) => {
            // CPU pre-posts; the GPU front-end rings the doorbell at the
            // kernel boundary.
            let kernel = copy_body(ProgramBuilder::new(), COPY_KERNEL_NS)
                .build()
                .expect("valid");
            p0.nic_post(register(put))
                .launch(KernelLaunch::new(kernel, 1, 64, "pp").ring_on_done([Tag(1)]))
                .wait_kernel("pp");
        }
        Flavor::Std(Strategy::GpuTn) => {
            // CPU pre-registers; the kernel triggers mid-execution after a
            // system-scope release (Fig. 7 / §4.2.6).
            let kernel = copy_body(ProgramBuilder::new(), COPY_KERNEL_NS)
                .release_triggers(&[Tag(1)])
                .build()
                .expect("valid");
            p0.nic_post(register(put))
                .launch(KernelLaunch::new(kernel, 1, 64, "pp"))
                .wait_kernel("pp");
        }
        Flavor::GpuHost => {
            // Kernel stages the payload and raises a request flag; node
            // 0's host program doubles as the helper thread: it polls the
            // flag (the helper's service loop) and performs the full send.
            let request = request.expect("request flag allocated");
            let kernel = copy_body(ProgramBuilder::new(), COPY_KERNEL_NS + BOUNCE_COPY_NS)
                .fence(MemScope::System, MemOrdering::Release)
                .atomic_store(move |_| request, 1)
                .build()
                .expect("valid");
            p0.launch(KernelLaunch::new(kernel, 1, 64, "pp"))
                .poll(request, 1)
                .nic_post(NicCommand::Put(put))
                .wait_kernel("pp");
        }
        Flavor::GpuNative => {
            // The kernel builds the command packet itself (serial GPU-side
            // stack) and rings the NIC directly — modelled as a pre-armed
            // trigger fired after the in-kernel stack cost.
            let kernel = copy_body(ProgramBuilder::new(), COPY_KERNEL_NS)
                .fence(MemScope::System, MemOrdering::Release)
                // The in-kernel network stack: serial WQE construction.
                .compute(SimDuration::from_ns(GPU_NATIVE_STACK_NS))
                .trigger_store(|_| Tag(1))
                .build()
                .expect("valid");
            p0.nic_post(register(put))
                .launch(KernelLaunch::new(kernel, 1, 64, "pp"))
                .wait_kernel("pp");
        }
    }

    let (cluster, mut scenario) =
        Harness::try_execute("pingpong", &params, config, mem, vec![p0, p1])?;
    if cluster.mem().read(dst, PAYLOAD) != [0xC5; PAYLOAD as usize] {
        return Err(JobFailure::Diverged(format!(
            "{} payload corrupted",
            flavor.name()
        )));
    }

    let target_completion = cluster
        .log()
        .iter()
        .find(|r| r.node == 1 && r.kind == LogKind::MessageCommitted)
        .expect("message committed")
        .at;
    // With no kernel, the CPU baseline's work is done when it rings the
    // doorbell.
    let initiator_kernel_done = cluster
        .log()
        .iter()
        .find_map(|r| match &r.kind {
            LogKind::KernelDone { .. } if r.node == 0 => Some(r.at),
            LogKind::DoorbellRung if r.node == 0 && strategy == Strategy::Cpu => Some(r.at),
            _ => None,
        })
        .expect("initiator completed");
    let trace = decompose_pingpong(cluster.log(), 0, 1, cluster.config());
    scenario.set_total(target_completion);

    Ok(PingResult {
        scenario,
        target_completion,
        initiator_kernel_done,
        trace,
    })
}

/// Run all three Fig. 8 strategies.
pub fn run_all() -> Vec<PingResult> {
    [Strategy::Hdn, Strategy::Gds, Strategy::GpuTn]
        .into_iter()
        .map(run_any)
        .collect()
}

/// The Fig. 8 microbenchmark as a harness [`Workload`].
pub struct Pingpong;

impl Workload for Pingpong {
    fn name(&self) -> &'static str {
        "pingpong"
    }

    fn smoke_scenario(&self, strategy: Strategy) -> ScenarioParams {
        ScenarioParams::new(strategy).size(PAYLOAD)
    }

    fn run(&self, params: &ScenarioParams) -> Result<ScenarioResult, JobFailure> {
        try_run_flavor(Flavor::Std(params.strategy), params.patch).map(|r| r.scenario)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn magnitudes_match_paper_band() {
        // Paper: GPU-TN 2.71 us, GDS 3.76 us, HDN 4.21 us — require the
        // same microsecond regime, and ~25%/~35% headline improvements
        // within a generous band (the substrate differs, the shape must
        // not).
        let hdn = run_any(Strategy::Hdn).target_completion.as_us_f64();
        let gds = run_any(Strategy::Gds).target_completion.as_us_f64();
        let tn = run_any(Strategy::GpuTn).target_completion.as_us_f64();
        assert!((2.0..3.5).contains(&tn), "GPU-TN {tn}");
        assert!((3.0..4.5).contains(&gds), "GDS {gds}");
        assert!((3.5..5.0).contains(&hdn), "HDN {hdn}");
        let (vs_gds, vs_hdn) = (1.0 - tn / gds, 1.0 - tn / hdn);
        assert!((0.15..0.40).contains(&vs_gds), "vs GDS {vs_gds:.3}");
        assert!((0.25..0.50).contains(&vs_hdn), "vs HDN {vs_hdn:.3}");
    }

    #[test]
    fn decomposition_has_gpu_phases() {
        let r = run_any(Strategy::GpuTn);
        assert!(r.trace.find("initiator.GPU", "Launch").is_some());
        assert!(r.trace.find("initiator.GPU", "Kernel").is_some());
        assert!(r.trace.find("initiator.GPU", "Teardown").is_some());
        assert!(r.trace.find("initiator.NIC", "Put").is_some());
    }

    #[test]
    fn cpu_baseline_is_never_intra_kernel() {
        // For a 64 B copy the CPU path is actually quick (no kernel-launch
        // overhead) — the interesting property is structural: nothing
        // overlaps, and no trigger machinery is involved.
        let cpu = run_any(Strategy::Cpu);
        assert_eq!(cpu.scenario.strategy, Strategy::Cpu);
        assert!(!cpu.delivered_intra_kernel());
        assert_eq!(
            cpu.scenario.stats.counter("node0.nic", "posts_triggered"),
            0
        );
        assert_eq!(
            cpu.scenario.stats.counter("node0.nic", "posts_immediate"),
            1
        );
    }

    #[test]
    fn stage_decomposition_tiles_the_end_to_end_latency() {
        for strategy in [Strategy::Cpu, Strategy::Hdn, Strategy::Gds, Strategy::GpuTn] {
            let r = run_any(strategy);
            let names: Vec<&str> = r.scenario.stages.iter().map(|(n, _)| *n).collect();
            assert_eq!(
                names,
                gtn_core::timeline::STAGE_NAMES.to_vec(),
                "{strategy:?}"
            );
            // Stages through `commit` must sum exactly to the measured
            // target completion (cq_poll extends past it to the poll hit).
            let through_commit: SimDuration = r
                .scenario
                .stages
                .iter()
                .take_while(|(n, _)| *n != "cq_poll")
                .map(|(_, d)| *d)
                .sum();
            assert_eq!(
                SimTime::ZERO + through_commit,
                r.target_completion,
                "{strategy:?}: stages must tile the latency"
            );
            // Only the triggered strategies have a trigger-wait stage.
            let trig_wait = r
                .scenario
                .stages
                .iter()
                .find(|(n, _)| *n == "trigger_wait")
                .unwrap()
                .1;
            let triggered = matches!(strategy, Strategy::Gds | Strategy::GpuTn);
            assert_eq!(trig_wait > SimDuration::ZERO, triggered, "{strategy:?}");
        }
    }

    #[test]
    fn cluster_stats_ride_along_with_the_result() {
        let r = run_any(Strategy::GpuTn);
        assert_eq!(r.scenario.stats.counter("node0.nic", "fired_at_trigger"), 1);
        let nic = r.scenario.stats.merged("nic");
        assert_eq!(nic.histogram("stage_wire").unwrap().count(), 1);
        assert_eq!(nic.counter("retransmits"), 0, "lossless run");
    }

    #[test]
    fn scenario_total_is_the_target_completion() {
        let r = run_any(Strategy::GpuTn);
        assert_eq!(r.scenario.total, r.target_completion);
        assert_eq!(r.scenario.workload, "pingpong");
        assert_eq!(r.scenario.nodes, 2);
        assert_eq!(r.scenario.size, PAYLOAD);
    }

    #[test]
    fn table1_taxonomy_latency_ordering() {
        // §5.1.1 expectations, quantified: GPU-TN beats GPU-Native (the
        // serial stack moved off the GPU) and beats GPU-Host (no helper
        // thread on the critical path); all intra-kernel flavors beat the
        // kernel-boundary ones.
        let t = |f: Flavor| run_flavor(f).target_completion;
        let tn = t(Flavor::Std(Strategy::GpuTn));
        let native = t(Flavor::GpuNative);
        let host = t(Flavor::GpuHost);
        let gds = t(Flavor::Std(Strategy::Gds));
        let hdn = t(Flavor::Std(Strategy::Hdn));
        assert!(tn < native, "GPU-TN {tn} vs GPU-Native {native}");
        assert!(tn < host, "GPU-TN {tn} vs GPU-Host {host}");
        assert!(native < gds, "intra-kernel beats kernel boundary");
        assert!(host < gds, "intra-kernel beats kernel boundary");
        assert!(gds < hdn);
        // No golden covers these two rows: pin them exactly.
        assert_eq!(host.as_ps(), 3_205_982, "GPU-Host {host}");
        assert_eq!(native.as_ps(), 4_159_982, "GPU-Native {native}");
    }

    #[test]
    fn table1_columns_match_the_paper() {
        use Flavor::*;
        // Paper Table 1 rows: (GPU Triggered, Intra-Kernel).
        let expect = [
            (Std(Strategy::Hdn), false, false),
            (Std(Strategy::Gds), true, false),
            (GpuHost, false, true),
            (GpuNative, true, true),
            (Std(Strategy::GpuTn), true, true),
        ];
        for (f, trig, intra) in expect {
            assert_eq!(f.gpu_triggered(), trig, "{}", f.name());
            assert_eq!(f.intra_kernel(), intra, "{}", f.name());
        }
        assert!(Flavor::GpuHost.cpu_on_critical_path());
        assert!(!Flavor::GpuNative.cpu_on_critical_path());
        assert_eq!(Flavor::taxonomy().len(), 5);
    }

    #[test]
    fn intra_kernel_flavors_deliver_before_kernel_end() {
        // Exactly the Table 1 rows marked intra-kernel deliver before the
        // initiator's kernel ends; every kernel-boundary strategy after.
        let std = Strategy::all().map(Flavor::Std);
        for f in std.into_iter().chain([Flavor::GpuHost, Flavor::GpuNative]) {
            let r = run_flavor(f);
            assert_eq!(r.delivered_intra_kernel(), f.intra_kernel(), "{}", f.name());
        }
    }
}
