//! The strategy-driver layer: every §5.1 communication idiom in one place.
//!
//! Each evaluated strategy (CPU, HDN, GDS, GPU-TN) maps a workload's
//! communication phases onto the simulated hardware in its own way:
//!
//! - **CPU / HDN** own a two-sided [`MpiWorld`] lane — matched eager /
//!   rendezvous send-recv pairs built at [`CommDriver::setup`] time.
//! - **GDS** pre-registers one-sided puts and arms a *kernel-boundary
//!   doorbell* ([`GdsHook`]) per dependent kernel: the GPU front-end
//!   writes the trigger tag when the named kernel completes.
//! - **GPU-TN** pre-registers [`NicCommand::TriggeredPut`] entries that
//!   the kernel itself fires mid-execution through a system-scope release
//!   fence followed by a trigger store (Fig. 7 / §4.2.6) — including the
//!   §3.4 dynamic variant where the kernel also supplies [`DynFields`]
//!   patching the CPU-registered template.
//!
//! Before this module existed those idioms were copy-pasted across every
//! workload's `match strategy` arms. A workload now asks
//! [`driver`] for a boxed [`CommDriver`] and speaks one vocabulary:
//! `setup` → `send`/`recv` (two-sided lane) or `post`/`register` +
//! `on_kernel_done` (one-sided lanes) → `install` on the built cluster.
//! Kernel-side GPU-TN fragments (fence + trigger stores) come from the
//! [`GpuTnDriver`] helpers so the release-then-trigger ordering contract
//! is written down exactly once.

use crate::cluster::Cluster;
use crate::config::ClusterConfig;
use crate::strategy::Strategy;
use gtn_gpu::kernel::ProgramBuilder;
use gtn_host::config::HostConfig;
use gtn_host::mpi::MpiWorld;
use gtn_host::HostProgram;
use gtn_mem::scope::{MemOrdering, MemScope};
use gtn_mem::{Addr, MemPool, NodeId};
use gtn_nic::dynamic::DynFields;
use gtn_nic::nic::NicCommand;
use gtn_nic::op::NetOp;
use gtn_nic::Tag;

/// A GDS kernel-boundary doorbell registration: when the kernel labelled
/// `kernel` completes on `node`, the GPU front-end writes `tag` to the
/// NIC's trigger address, firing whatever was registered under it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GdsHook {
    /// Node whose GPU front-end rings the doorbell.
    pub node: u32,
    /// Label of the kernel launch whose completion fires the doorbell.
    pub kernel: String,
    /// Trigger tag the doorbell writes.
    pub tag: Tag,
}

/// One networking strategy's communication idioms behind a uniform
/// vocabulary.
///
/// Lifecycle: construct (via [`driver`]), [`setup`](CommDriver::setup)
/// once against the config and memory pool, emit per-phase operations
/// into each node's [`HostProgram`], then
/// [`install`](CommDriver::install) on the built [`Cluster`] before
/// running it.
///
/// Two-sided drivers (CPU, HDN) implement [`send`](CommDriver::send) /
/// [`recv`](CommDriver::recv); one-sided drivers (GDS, GPU-TN) implement
/// [`post`](CommDriver::post) / [`register`](CommDriver::register) and
/// panic on the matched pair — a workload mixing vocabularies has a bug,
/// and the panic says which.
pub trait CommDriver {
    /// The strategy this driver realizes.
    fn strategy(&self) -> Strategy;

    /// One-time world setup from the run's declared two-sided traffic:
    /// every message the workload will [`send`](CommDriver::send), as
    /// `(src, dst, bytes)`. A message of at most `eager_limit` bytes goes
    /// eager, a larger one rendezvous. Two-sided drivers build their
    /// [`MpiWorld`] here, with one channel per pair in `messages` and eager
    /// buffers sized by that pair's messages; one-sided drivers need
    /// nothing and use the default no-op.
    fn setup(
        &mut self,
        config: &ClusterConfig,
        mem: &mut MemPool,
        eager_limit: u64,
        messages: &[(u32, u32, u64)],
    ) {
        let _ = (config, mem, eager_limit, messages);
    }

    /// Emit a matched two-sided send of `len` bytes from `src` on node
    /// `from` toward `to` into `prog`.
    ///
    /// # Panics
    /// Panics on one-sided drivers (GDS, GPU-TN).
    fn send(&mut self, prog: &mut HostProgram, from: NodeId, to: NodeId, src: Addr, len: u64) {
        let _ = (prog, from, to, src, len);
        panic!(
            "{} is one-sided: use post/register, not matched send/recv",
            self.strategy()
        );
    }

    /// Emit the matching two-sided receive of `len` bytes from `from`
    /// into `dst` on node `to`.
    ///
    /// # Panics
    /// Panics on one-sided drivers (GDS, GPU-TN).
    fn recv(&mut self, prog: &mut HostProgram, from: NodeId, to: NodeId, dst: Addr, len: u64) {
        let _ = (prog, from, to, dst, len);
        panic!(
            "{} is one-sided: use post/register, not matched send/recv",
            self.strategy()
        );
    }

    /// Emit an immediate one-sided put: the NIC fires `op` as soon as the
    /// host program reaches the post.
    fn post(&mut self, prog: &mut HostProgram, op: NetOp) {
        prog.nic_post(NicCommand::Put(op));
    }

    /// Register `op` under `tag` to fire once the NIC's trigger counter
    /// for `tag` reaches `threshold`. Who writes the tag differs by
    /// strategy: GDS arms a kernel-boundary doorbell
    /// ([`on_kernel_done`](CommDriver::on_kernel_done)); GPU-TN lets the
    /// kernel trigger mid-execution ([`GpuTnDriver::release_triggers`]).
    fn register(&mut self, prog: &mut HostProgram, tag: Tag, threshold: u64, op: NetOp) {
        prog.nic_post(NicCommand::TriggeredPut { tag, threshold, op });
    }

    /// Arm a kernel-boundary doorbell: when the kernel labelled `label`
    /// completes on `node`, write `tag` to the trigger address.
    ///
    /// # Panics
    /// Panics on every driver but GDS — the doorbell *is* the GDS
    /// mechanism (§5.1); the other strategies have no kernel-boundary
    /// trigger path.
    fn on_kernel_done(&mut self, node: u32, label: &str, tag: Tag) {
        let _ = (node, label, tag);
        panic!(
            "{} has no kernel-boundary doorbell (GDS only)",
            self.strategy()
        );
    }

    /// Apply accumulated cluster-side registrations (GDS doorbell hooks)
    /// to the built cluster. Call after [`Cluster::new`], before
    /// [`Cluster::run`]. Default: nothing to install.
    fn install(&mut self, cluster: &mut Cluster) {
        let _ = cluster;
    }
}

/// Shared two-sided lane: an [`MpiWorld`] plus the host config its
/// receive-side copies are costed against.
#[derive(Debug, Default)]
struct MpiLane {
    world: Option<MpiWorld>,
    host: Option<HostConfig>,
}

impl MpiLane {
    fn setup(
        &mut self,
        config: &ClusterConfig,
        mem: &mut MemPool,
        eager_limit: u64,
        messages: &[(u32, u32, u64)],
    ) {
        self.world = Some(MpiWorld::new(mem, eager_limit, messages));
        self.host = Some(config.host.clone());
    }

    fn world(&mut self) -> &mut MpiWorld {
        self.world
            .as_mut()
            .expect("CommDriver::setup must run before send/recv")
    }

    fn send(&mut self, prog: &mut HostProgram, from: NodeId, to: NodeId, src: Addr, len: u64) {
        let ops = self.world().send_ops(from, to, src, len);
        prog.extend(ops);
    }

    fn recv(&mut self, prog: &mut HostProgram, from: NodeId, to: NodeId, dst: Addr, len: u64) {
        let host = self
            .host
            .clone()
            .expect("CommDriver::setup must run before send/recv");
        let ops = self.world().recv_ops(&host, from, to, dst, len);
        prog.extend(ops);
    }
}

/// The pure-CPU baseline (§5.1): full network stack on the host, matched
/// MPI semantics, no GPU anywhere in the communication path.
#[derive(Debug, Default)]
pub struct CpuMpiDriver {
    lane: MpiLane,
}

impl CpuMpiDriver {
    /// A driver with no world yet; call [`CommDriver::setup`] before use.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CommDriver for CpuMpiDriver {
    fn strategy(&self) -> Strategy {
        Strategy::Cpu
    }

    fn setup(
        &mut self,
        config: &ClusterConfig,
        mem: &mut MemPool,
        eager_limit: u64,
        messages: &[(u32, u32, u64)],
    ) {
        self.lane.setup(config, mem, eager_limit, messages);
    }

    fn send(&mut self, prog: &mut HostProgram, from: NodeId, to: NodeId, src: Addr, len: u64) {
        self.lane.send(prog, from, to, src, len);
    }

    fn recv(&mut self, prog: &mut HostProgram, from: NodeId, to: NodeId, dst: Addr, len: u64) {
        self.lane.recv(prog, from, to, dst, len);
    }
}

/// Host-driven networking (§5.1): the same two-sided MPI lane as the CPU
/// baseline, but compute runs in GPU kernels — so every communication
/// round pays a kernel boundary while the CPU messages in between.
#[derive(Debug, Default)]
pub struct HdnDriver {
    lane: MpiLane,
}

impl HdnDriver {
    /// A driver with no world yet; call [`CommDriver::setup`] before use.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CommDriver for HdnDriver {
    fn strategy(&self) -> Strategy {
        Strategy::Hdn
    }

    fn setup(
        &mut self,
        config: &ClusterConfig,
        mem: &mut MemPool,
        eager_limit: u64,
        messages: &[(u32, u32, u64)],
    ) {
        self.lane.setup(config, mem, eager_limit, messages);
    }

    fn send(&mut self, prog: &mut HostProgram, from: NodeId, to: NodeId, src: Addr, len: u64) {
        self.lane.send(prog, from, to, src, len);
    }

    fn recv(&mut self, prog: &mut HostProgram, from: NodeId, to: NodeId, dst: Addr, len: u64) {
        self.lane.recv(prog, from, to, dst, len);
    }
}

/// GPUDirect-Async-style networking (§5.1): the CPU pre-registers puts,
/// and the GPU front-end rings the trigger doorbell at kernel boundaries.
/// Hooks accumulate in the driver ([`CommDriver::on_kernel_done`]) and
/// apply to the cluster in [`CommDriver::install`].
#[derive(Debug, Default)]
pub struct GdsDriver {
    hooks: Vec<GdsHook>,
}

impl GdsDriver {
    /// A driver with no doorbell hooks yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// The doorbell hooks armed so far, in registration order.
    pub fn hooks(&self) -> &[GdsHook] {
        &self.hooks
    }
}

impl CommDriver for GdsDriver {
    fn strategy(&self) -> Strategy {
        Strategy::Gds
    }

    fn on_kernel_done(&mut self, node: u32, label: &str, tag: Tag) {
        self.hooks.push(GdsHook {
            node,
            kernel: label.to_owned(),
            tag,
        });
    }

    fn install(&mut self, cluster: &mut Cluster) {
        for h in &self.hooks {
            cluster.gds_doorbell_on_done(h.node, &h.kernel, h.tag);
        }
    }
}

/// GPU triggered networking — the paper's contribution. The CPU
/// pre-registers triggered operations; the *kernel* fires them
/// mid-execution via a system-scope release fence followed by trigger
/// stores (Fig. 7 / §4.2.6). The kernel-side fragments live here as
/// builder helpers so the ordering contract (release *before* trigger)
/// is encoded once.
#[derive(Debug, Default)]
pub struct GpuTnDriver;

impl GpuTnDriver {
    /// A stateless GPU-TN driver.
    pub fn new() -> Self {
        Self
    }

    /// Kernel fragment: system-scope release fence, then one trigger
    /// store for `tag` — "the data is globally visible before the NIC is
    /// told to move it" (§4.2.6).
    pub fn release_trigger(builder: ProgramBuilder, tag: Tag) -> ProgramBuilder {
        Self::release_triggers(builder, &[tag])
    }

    /// Kernel fragment: one release fence covering a batch of trigger
    /// stores (e.g. all four halo directions of a Jacobi iteration).
    pub fn release_triggers(builder: ProgramBuilder, tags: &[Tag]) -> ProgramBuilder {
        let mut b = builder.fence(MemScope::System, MemOrdering::Release);
        for &tag in tags {
            b = b.trigger_store(move |_| tag);
        }
        b
    }

    /// Kernel fragment for the §3.4 dynamic extension: release fence,
    /// then a trigger store that also supplies GPU-computed `fields`
    /// patching the CPU-registered template operation.
    pub fn release_trigger_dyn(
        builder: ProgramBuilder,
        tag: Tag,
        fields: DynFields,
    ) -> ProgramBuilder {
        builder
            .fence(MemScope::System, MemOrdering::Release)
            .trigger_store_dyn(move |_| tag, move |_| fields)
    }
}

impl CommDriver for GpuTnDriver {
    fn strategy(&self) -> Strategy {
        Strategy::GpuTn
    }
}

/// The driver realizing `strategy`.
pub fn driver(strategy: Strategy) -> Box<dyn CommDriver> {
    match strategy {
        Strategy::Cpu => Box::new(CpuMpiDriver::new()),
        Strategy::Hdn => Box::new(HdnDriver::new()),
        Strategy::Gds => Box::new(GdsDriver::new()),
        Strategy::GpuTn => Box::new(GpuTnDriver::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(mem: &mut MemPool) -> NetOp {
        NetOp::Put {
            src: Addr::base(NodeId(0), mem.alloc(NodeId(0), 8, "comm.src")),
            len: 8,
            target: NodeId(1),
            dst: Addr::base(NodeId(1), mem.alloc(NodeId(1), 8, "comm.dst")),
            notify: None,
            completion: None,
        }
    }

    #[test]
    fn factory_covers_every_strategy() {
        for s in Strategy::all() {
            assert_eq!(driver(s).strategy(), s);
        }
    }

    #[test]
    fn one_sided_drivers_emit_posts_and_registrations() {
        let mut mem = MemPool::new(2);
        for s in [Strategy::Gds, Strategy::GpuTn] {
            let mut d = driver(s);
            let mut prog = HostProgram::new();
            d.post(&mut prog, put(&mut mem));
            d.register(&mut prog, Tag(7), 1, put(&mut mem));
            assert_eq!(prog.len(), 2, "{s}");
        }
    }

    #[test]
    fn two_sided_drivers_build_an_mpi_lane_on_setup() {
        let config = ClusterConfig::table2(2);
        for s in [Strategy::Cpu, Strategy::Hdn] {
            let mut mem = MemPool::new(2);
            let src = Addr::base(NodeId(0), mem.alloc(NodeId(0), 64, "t.src"));
            let dst = Addr::base(NodeId(1), mem.alloc(NodeId(1), 64, "t.dst"));
            let mut d = driver(s);
            d.setup(&config, &mut mem, 64, &[(0, 1, 64)]);
            let (mut p0, mut p1) = (HostProgram::new(), HostProgram::new());
            d.send(&mut p0, NodeId(0), NodeId(1), src, 64);
            d.recv(&mut p1, NodeId(0), NodeId(1), dst, 64);
            assert!(!p0.is_empty() && !p1.is_empty(), "{s}");
        }
    }

    #[test]
    #[should_panic(expected = "no channel n0->n2")]
    fn setup_builds_channels_for_declared_pairs_only() {
        let config = ClusterConfig::table2(4);
        let mut mem = MemPool::new(4);
        let src = Addr::base(NodeId(0), mem.alloc(NodeId(0), 64, "t.src"));
        let mut d = driver(Strategy::Cpu);
        d.setup(&config, &mut mem, 64, &[(0, 1, 64), (1, 0, 64)]);
        let mut p0 = HostProgram::new();
        d.send(&mut p0, NodeId(0), NodeId(1), src, 64);
        assert!(!p0.is_empty());
        d.send(&mut p0, NodeId(0), NodeId(2), src, 64);
    }

    #[test]
    fn one_sided_drivers_ignore_the_traffic() {
        let config = ClusterConfig::table2(2);
        for s in [Strategy::Gds, Strategy::GpuTn] {
            let mut mem = MemPool::new(2);
            driver(s).setup(&config, &mut mem, 64, &[(0, 1, 64)]);
            // No eager buffers were allocated.
            assert!(
                mem.region_len(NodeId(1), gtn_mem::RegionId(0)).is_err(),
                "{s}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "one-sided")]
    fn send_on_a_one_sided_driver_panics() {
        let mut mem = MemPool::new(2);
        let src = Addr::base(NodeId(0), mem.alloc(NodeId(0), 8, "comm.src"));
        let mut d = driver(Strategy::GpuTn);
        let mut prog = HostProgram::new();
        d.send(&mut prog, NodeId(0), NodeId(1), src, 8);
    }

    #[test]
    #[should_panic(expected = "GDS only")]
    fn doorbell_on_a_non_gds_driver_panics() {
        driver(Strategy::Hdn).on_kernel_done(0, "k", Tag(1));
    }

    #[test]
    fn gds_hooks_accumulate_in_registration_order() {
        let mut d = GdsDriver::new();
        d.on_kernel_done(0, "k0", Tag(1));
        d.on_kernel_done(1, "k0", Tag(2));
        assert_eq!(
            d.hooks(),
            &[
                GdsHook {
                    node: 0,
                    kernel: "k0".into(),
                    tag: Tag(1)
                },
                GdsHook {
                    node: 1,
                    kernel: "k0".into(),
                    tag: Tag(2)
                },
            ]
        );
    }

    #[test]
    fn release_trigger_fragments_build_valid_kernels() {
        let k = GpuTnDriver::release_triggers(ProgramBuilder::new(), &[Tag(1), Tag(2)])
            .build()
            .expect("valid kernel");
        assert!(k.len() >= 3, "fence + two trigger stores");
        let dynk = GpuTnDriver::release_trigger_dyn(ProgramBuilder::new(), Tag(3), DynFields::NONE)
            .build()
            .expect("valid kernel");
        assert_eq!(dynk.len(), 2, "fence + dynamic trigger store");
    }
}
