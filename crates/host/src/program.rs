//! The host-op DSL and CPU state machine.
//!
//! Host code in the evaluation — the Fig. 6 GPU-TN host sequence, the HDN
//! launch/wait/send loop, the GDS pre-post pattern, and the pure-CPU
//! baselines — is expressed as a [`HostProgram`]: a sequence of [`HostOp`]s
//! executed serially by one [`Cpu`] with simulated costs from
//! [`crate::HostConfig`]. The CPU is sans-IO like every other component:
//! kernel launches, NIC doorbells, and trigger-address writes surface as
//! [`CpuOutput`]s for the cluster glue to route.

use crate::config::HostConfig;
use gtn_gpu::KernelLaunch;
use gtn_mem::{Addr, MemPool};
use gtn_nic::nic::NicCommand;
use gtn_nic::Tag;
use gtn_sim::hash::HashSet;
use gtn_sim::stats::StatSet;
use gtn_sim::time::{SimDuration, SimTime};
use std::fmt;
use std::sync::Arc;

/// A functional effect on simulated memory executed by host code.
pub type HostFn = Arc<dyn Fn(&mut MemPool) + Send + Sync>;
/// A NIC command constructed from memory contents at execution time
/// (e.g. a rendezvous sender building its payload put from the receive
/// address the CTS message carried).
pub type CmdFn = Arc<dyn Fn(&MemPool) -> NicCommand + Send + Sync>;

/// One host operation.
#[derive(Clone)]
pub enum HostOp {
    /// Spend CPU time (compute regions, stack costs not covered below).
    Compute(SimDuration),
    /// Apply a functional memory effect (zero time; pair with `Compute`).
    Func(HostFn),
    /// Enqueue a kernel on the local GPU (costs `kernel_dispatch_ns`, then
    /// the GPU's own launch pipeline takes over).
    LaunchKernel(KernelLaunch),
    /// Block until the kernel with this label completes (including
    /// teardown).
    WaitKernel(String),
    /// Ring the local NIC's doorbell with a command. An immediate
    /// [`NicCommand::Put`] costs the full send stack; a
    /// [`NicCommand::TriggeredPut`] costs the cheaper triggered-post path.
    NicPost(NicCommand),
    /// Ring the doorbell with a command **built from memory at execution
    /// time** — the rendezvous-protocol sender's payload put, whose
    /// destination arrives in the CTS message.
    NicPostDynamic(CmdFn),
    /// Write a tag to the local NIC's trigger address from the CPU
    /// (GDS-style doorbell by proxy, and useful in tests).
    TriggerWrite(Tag),
    /// Spin on a 64-bit flag until it reaches `at_least`.
    Poll {
        /// Flag address (usually an MPI mailbox arrival counter).
        addr: Addr,
        /// Wake condition.
        at_least: u64,
    },
}

impl fmt::Debug for HostOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostOp::Compute(d) => write!(f, "Compute({d})"),
            HostOp::Func(_) => write!(f, "Func(..)"),
            HostOp::LaunchKernel(k) => write!(f, "LaunchKernel({})", k.label),
            HostOp::WaitKernel(l) => write!(f, "WaitKernel({l})"),
            HostOp::NicPost(c) => write!(f, "NicPost({c:?})"),
            HostOp::NicPostDynamic(_) => write!(f, "NicPostDynamic(..)"),
            HostOp::TriggerWrite(t) => write!(f, "TriggerWrite({t})"),
            HostOp::Poll { at_least, .. } => write!(f, "Poll(>={at_least})"),
        }
    }
}

/// An executable host program.
#[derive(Debug, Clone, Default)]
pub struct HostProgram {
    ops: Vec<HostOp>,
}

impl HostProgram {
    /// Empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append any op.
    pub fn push(&mut self, op: HostOp) -> &mut Self {
        self.ops.push(op);
        self
    }

    /// Append a compute phase.
    pub fn compute(&mut self, d: SimDuration) -> &mut Self {
        self.push(HostOp::Compute(d))
    }

    /// Append a functional effect.
    pub fn func(&mut self, f: impl Fn(&mut MemPool) + Send + Sync + 'static) -> &mut Self {
        self.push(HostOp::Func(Arc::new(f)))
    }

    /// Append a kernel launch.
    pub fn launch(&mut self, k: KernelLaunch) -> &mut Self {
        self.push(HostOp::LaunchKernel(k))
    }

    /// Append a kernel wait.
    pub fn wait_kernel(&mut self, label: &str) -> &mut Self {
        self.push(HostOp::WaitKernel(label.to_owned()))
    }

    /// Append a NIC post.
    pub fn nic_post(&mut self, cmd: NicCommand) -> &mut Self {
        self.push(HostOp::NicPost(cmd))
    }

    /// Append a flag poll.
    pub fn poll(&mut self, addr: Addr, at_least: u64) -> &mut Self {
        self.push(HostOp::Poll { addr, at_least })
    }

    /// Append all ops of another fragment.
    pub fn extend(&mut self, ops: Vec<HostOp>) -> &mut Self {
        self.ops.extend(ops);
        self
    }

    /// The op sequence.
    pub fn ops(&self) -> &[HostOp] {
        &self.ops
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Events the CPU reacts to.
#[derive(Debug)]
pub enum CpuEvent {
    /// Begin / resume program execution.
    Step,
    /// The local GPU finished the kernel with this label.
    KernelDone(String),
}

/// Follow-ups for the cluster glue.
#[derive(Debug)]
pub enum CpuOutput {
    /// Schedule `ev` back on this CPU at `at`.
    Local {
        /// Fire time.
        at: SimTime,
        /// Event.
        ev: CpuEvent,
    },
    /// Enqueue `launch` on the local GPU at `at`.
    EnqueueKernel {
        /// Time the runtime call completes.
        at: SimTime,
        /// The kernel.
        launch: KernelLaunch,
    },
    /// Ring the local NIC doorbell at `at`.
    Doorbell {
        /// Time the doorbell store issues.
        at: SimTime,
        /// The command.
        cmd: NicCommand,
    },
    /// The CPU stored `tag` to the local NIC's trigger address at `at`.
    TriggerWrite {
        /// Store time.
        at: SimTime,
        /// Tag written.
        tag: Tag,
    },
    /// The program ran to completion at `at`.
    Finished {
        /// Completion time.
        at: SimTime,
    },
}

/// One node's host CPU executing a [`HostProgram`].
#[derive(Debug)]
pub struct Cpu {
    cfg: HostConfig,
    program: HostProgram,
    pc: usize,
    completed_kernels: HashSet<String>,
    waiting_on: Option<String>,
    finished: bool,
    /// First unsatisfied check of the poll currently spinning, if any;
    /// feeds the `poll_wait` histogram (the CQ-poll stage of the Fig. 8
    /// decomposition) when the poll finally hits.
    poll_started: Option<SimTime>,
    stats: StatSet,
}

impl Cpu {
    /// A CPU that will execute `program`.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(cfg: HostConfig, program: HostProgram) -> Self {
        cfg.validate().expect("invalid host config");
        Cpu {
            cfg,
            program,
            pc: 0,
            completed_kernels: HashSet::default(),
            waiting_on: None,
            finished: false,
            poll_started: None,
            stats: StatSet::new(),
        }
    }

    /// Whether the program has run to completion.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Program counter: index of the op currently executing or blocked.
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Total ops in the program.
    pub fn program_len(&self) -> usize {
        self.program.len()
    }

    /// The kernel label this CPU is blocked on, if any.
    pub fn waiting_on(&self) -> Option<&str> {
        self.waiting_on.as_deref()
    }

    /// The op at the current program counter (None once finished). Stall
    /// diagnostics render this to say what a stuck node was doing.
    pub fn current_op(&self) -> Option<&HostOp> {
        self.program.ops().get(self.pc)
    }

    /// Activity counters.
    pub fn stats(&self) -> &StatSet {
        &self.stats
    }

    /// Handle one event at `now`.
    pub fn handle(&mut self, now: SimTime, ev: CpuEvent, mem: &mut MemPool) -> Vec<CpuOutput> {
        match ev {
            CpuEvent::Step => self.step(now, mem),
            CpuEvent::KernelDone(label) => {
                self.completed_kernels.insert(label.clone());
                if self.waiting_on.as_deref() == Some(label.as_str()) {
                    self.waiting_on = None;
                    // The wait op itself completes: advance past it.
                    self.pc += 1;
                    self.step(now, mem)
                } else {
                    Vec::new()
                }
            }
        }
    }

    fn step(&mut self, now: SimTime, mem: &mut MemPool) -> Vec<CpuOutput> {
        debug_assert!(self.waiting_on.is_none(), "stepping a blocked CPU");
        let mut out = Vec::new();
        loop {
            if self.pc >= self.program.len() {
                if !self.finished {
                    self.finished = true;
                    out.push(CpuOutput::Finished { at: now });
                }
                return out;
            }
            // Clone the op handle (cheap: Arc'd closures / small data).
            let op = self.program.ops()[self.pc].clone();
            match op {
                HostOp::Compute(d) => {
                    self.pc += 1;
                    self.stats.inc("compute_phases");
                    out.push(CpuOutput::Local {
                        at: now + d,
                        ev: CpuEvent::Step,
                    });
                    return out;
                }
                HostOp::Func(f) => {
                    f(mem);
                    self.stats.inc("func_ops");
                    self.pc += 1;
                }
                HostOp::LaunchKernel(launch) => {
                    let at = now + self.cfg.kernel_dispatch();
                    self.stats.inc("kernel_launches");
                    out.push(CpuOutput::EnqueueKernel { at, launch });
                    self.pc += 1;
                    out.push(CpuOutput::Local {
                        at,
                        ev: CpuEvent::Step,
                    });
                    return out;
                }
                HostOp::WaitKernel(label) => {
                    if self.completed_kernels.contains(&label) {
                        self.pc += 1;
                        continue;
                    }
                    self.stats.inc("kernel_waits");
                    self.waiting_on = Some(label);
                    return out;
                }
                HostOp::NicPostDynamic(f) => {
                    let cmd = f(mem);
                    let cost = match &cmd {
                        NicCommand::Put(_) => {
                            self.stats.inc("sends_posted");
                            self.cfg.send_stack()
                        }
                        NicCommand::TriggeredPut { .. } => {
                            self.stats.inc("triggered_posted");
                            self.cfg.post_triggered()
                        }
                    };
                    let at = now + cost;
                    out.push(CpuOutput::Doorbell { at, cmd });
                    self.pc += 1;
                    out.push(CpuOutput::Local {
                        at,
                        ev: CpuEvent::Step,
                    });
                    return out;
                }
                HostOp::NicPost(cmd) => {
                    let cost = match &cmd {
                        NicCommand::Put(_) => {
                            self.stats.inc("sends_posted");
                            self.cfg.send_stack()
                        }
                        NicCommand::TriggeredPut { .. } => {
                            self.stats.inc("triggered_posted");
                            self.cfg.post_triggered()
                        }
                    };
                    let at = now + cost;
                    out.push(CpuOutput::Doorbell { at, cmd });
                    self.pc += 1;
                    out.push(CpuOutput::Local {
                        at,
                        ev: CpuEvent::Step,
                    });
                    return out;
                }
                HostOp::TriggerWrite(tag) => {
                    let at = now + SimDuration::from_ns(10);
                    self.stats.inc("trigger_writes");
                    out.push(CpuOutput::TriggerWrite { at, tag });
                    self.pc += 1;
                    out.push(CpuOutput::Local {
                        at,
                        ev: CpuEvent::Step,
                    });
                    return out;
                }
                HostOp::Poll { addr, at_least } => {
                    if mem.read_u64(addr) >= at_least {
                        self.stats.inc("poll_hits");
                        // CQ-poll stage: time from the first unsatisfied
                        // check to the hit (0 when satisfied immediately).
                        let started = self.poll_started.take().unwrap_or(now);
                        self.stats.record("poll_wait", now - started);
                        self.pc += 1;
                        continue;
                    }
                    self.stats.inc("poll_retries");
                    self.poll_started.get_or_insert(now);
                    out.push(CpuOutput::Local {
                        at: now + SimDuration::from_ns(self.cfg.poll_interval_ns),
                        ev: CpuEvent::Step,
                    });
                    return out;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtn_mem::NodeId;
    use gtn_sim::Engine;

    struct Harness {
        cpu: Cpu,
        mem: MemPool,
        engine: Engine<CpuEvent>,
        doorbells: Vec<(SimTime, NicCommand)>,
        launches: Vec<(SimTime, String)>,
        finished_at: Option<SimTime>,
    }

    impl Harness {
        fn new(program: HostProgram) -> Self {
            Harness {
                cpu: Cpu::new(HostConfig::default(), program),
                mem: MemPool::new(1),
                engine: Engine::new(),
                doorbells: Vec::new(),
                launches: Vec::new(),
                finished_at: None,
            }
        }

        fn run(&mut self) {
            self.engine.schedule_at(SimTime::ZERO, CpuEvent::Step);
            let cpu = &mut self.cpu;
            let mem = &mut self.mem;
            let doorbells = &mut self.doorbells;
            let launches = &mut self.launches;
            let finished = &mut self.finished_at;
            self.engine.run(|eng, ev| {
                for out in cpu.handle(eng.now(), ev, mem) {
                    match out {
                        CpuOutput::Local { at, ev } => eng.schedule_at(at, ev),
                        CpuOutput::Doorbell { at, cmd } => doorbells.push((at, cmd)),
                        CpuOutput::EnqueueKernel { at, launch } => {
                            launches.push((at, launch.label))
                        }
                        CpuOutput::TriggerWrite { .. } => {}
                        CpuOutput::Finished { at } => *finished = Some(at),
                    }
                }
            });
        }
    }

    fn put_cmd() -> NicCommand {
        NicCommand::Put(gtn_nic::NetOp::Put {
            src: Addr::base(NodeId(0), gtn_mem::RegionId(0)),
            len: 8,
            target: NodeId(0),
            dst: Addr::base(NodeId(0), gtn_mem::RegionId(0)),
            notify: None,
            completion: None,
        })
    }

    #[test]
    fn compute_phases_accumulate() {
        let mut p = HostProgram::new();
        p.compute(SimDuration::from_ns(100))
            .compute(SimDuration::from_ns(200));
        let mut h = Harness::new(p);
        h.run();
        assert_eq!(h.finished_at, Some(SimTime::from_ns(300)));
    }

    #[test]
    fn send_costs_full_stack_and_triggered_costs_less() {
        let mut p = HostProgram::new();
        p.nic_post(put_cmd());
        let mut h = Harness::new(p);
        h.run();
        assert_eq!(h.doorbells.len(), 1);
        assert_eq!(h.doorbells[0].0, SimTime::from_ns(300));

        let mut p = HostProgram::new();
        p.nic_post(NicCommand::TriggeredPut {
            tag: Tag(0),
            threshold: 1,
            op: match put_cmd() {
                NicCommand::Put(op) => op,
                _ => unreachable!(),
            },
        });
        let mut h = Harness::new(p);
        h.run();
        assert_eq!(h.doorbells[0].0, SimTime::from_ns(150));
    }

    #[test]
    fn wait_kernel_blocks_until_done_event() {
        let mut p = HostProgram::new();
        p.launch(KernelLaunch::empty("k"))
            .wait_kernel("k")
            .compute(SimDuration::from_ns(50));
        let mut h = Harness::new(p);
        // Run: CPU dispatches the kernel then blocks.
        h.run();
        assert!(h.finished_at.is_none());
        assert_eq!(h.launches.len(), 1);
        assert_eq!(h.launches[0].0, SimTime::from_ns(150), "dispatch cost");
        // Deliver completion at 5 us.
        h.engine
            .schedule_at(SimTime::from_us(5), CpuEvent::KernelDone("k".into()));
        h.run2();
        assert_eq!(h.finished_at, Some(SimTime::from_ns(5_050)));
    }

    impl Harness {
        /// Re-run after injecting more events (the engine retains state).
        fn run2(&mut self) {
            let cpu = &mut self.cpu;
            let mem = &mut self.mem;
            let doorbells = &mut self.doorbells;
            let launches = &mut self.launches;
            let finished = &mut self.finished_at;
            self.engine.run(|eng, ev| {
                for out in cpu.handle(eng.now(), ev, mem) {
                    match out {
                        CpuOutput::Local { at, ev } => eng.schedule_at(at, ev),
                        CpuOutput::Doorbell { at, cmd } => doorbells.push((at, cmd)),
                        CpuOutput::EnqueueKernel { at, launch } => {
                            launches.push((at, launch.label))
                        }
                        CpuOutput::TriggerWrite { .. } => {}
                        CpuOutput::Finished { at } => *finished = Some(at),
                    }
                }
            });
        }
    }

    #[test]
    fn kernel_done_before_wait_does_not_block() {
        let mut p = HostProgram::new();
        p.wait_kernel("early");
        let mut h = Harness::new(p);
        h.engine
            .schedule_at(SimTime::ZERO, CpuEvent::KernelDone("early".into()));
        h.run();
        assert!(h.finished_at.is_some());
    }

    #[test]
    fn poll_spins_until_flag() {
        let mut p = HostProgram::new();
        let mut h;
        {
            let flag = Addr::base(NodeId(0), gtn_mem::RegionId(0));
            p.poll(flag, 1).compute(SimDuration::from_ns(10));
            h = Harness::new(p);
            let r = h.mem.alloc(NodeId(0), 8, "flag");
            assert_eq!(r, gtn_mem::RegionId(0));
        }
        // Run a bounded slice: CPU should still be polling.
        h.engine.schedule_at(SimTime::ZERO, CpuEvent::Step);
        let cpu = &mut h.cpu;
        let mem = &mut h.mem;
        let mut steps = 0;
        h.engine.run_until(SimTime::from_ns(500), |eng, ev| {
            steps += 1;
            for out in cpu.handle(eng.now(), ev, mem) {
                if let CpuOutput::Local { at, ev } = out {
                    eng.schedule_at(at, ev);
                }
            }
            // Set the flag at ~200 ns.
            if eng.now() >= SimTime::from_ns(200)
                && mem.read_u64(Addr::base(NodeId(0), gtn_mem::RegionId(0))) == 0
            {
                mem.write_u64(Addr::base(NodeId(0), gtn_mem::RegionId(0)), 1);
            }
        });
        assert!(cpu.stats().counter("poll_retries") >= 4);
        assert_eq!(cpu.stats().counter("poll_hits"), 1);
        assert!(cpu.is_finished());
        // The CQ-poll stage: spin time from first check to the hit.
        let wait = cpu
            .stats()
            .histogram("poll_wait")
            .expect("poll_wait recorded");
        assert_eq!(wait.count(), 1);
        assert!(
            wait.mean() >= SimDuration::from_ns(200),
            "flag was set at ~200ns: {:?}",
            wait.mean()
        );
    }

    #[test]
    fn immediately_satisfied_poll_records_zero_wait() {
        let mut p = HostProgram::new();
        let flag = Addr::base(NodeId(0), gtn_mem::RegionId(0));
        p.poll(flag, 1);
        let mut h = Harness::new(p);
        h.mem.alloc(NodeId(0), 8, "flag");
        h.mem.write_u64(flag, 1);
        h.run();
        let wait = h.cpu.stats().histogram("poll_wait").expect("recorded");
        assert_eq!(wait.count(), 1);
        assert_eq!(wait.mean(), SimDuration::ZERO);
    }

    #[test]
    fn func_mutates_memory_in_program_order() {
        let mut p = HostProgram::new();
        let flag = Addr::base(NodeId(0), gtn_mem::RegionId(0));
        p.func(move |mem| mem.write_u64(flag, 7))
            .compute(SimDuration::from_ns(1))
            .func(move |mem| {
                let v = mem.read_u64(flag);
                mem.write_u64(flag, v * 6);
            });
        let mut h = Harness::new(p);
        h.mem.alloc(NodeId(0), 8, "flag");
        h.run();
        assert_eq!(h.mem.read_u64(flag), 42);
    }

    #[test]
    fn empty_program_finishes_immediately() {
        let mut h = Harness::new(HostProgram::new());
        h.run();
        assert_eq!(h.finished_at, Some(SimTime::ZERO));
        assert!(h.cpu.is_finished());
    }
}
