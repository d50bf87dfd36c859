//! The assembled cluster: one deterministic event loop over every node's
//! CPU, GPU, and NIC, a shared memory pool, and the fabric.
//!
//! `Cluster` is the only place components meet. It routes each component's
//! sans-IO outputs to their destinations with the configured interconnect
//! delays (host doorbell → NIC, GPU MMIO trigger store → NIC trigger FIFO,
//! NIC → remote NIC via the fabric, GPU kernel completion → host runtime),
//! and — when enabled — records an **activity log** of the protocol-level
//! moments the evaluation decomposes (kernel enqueue/dispatch/done, doorbell
//! rings, trigger writes, DMA completion, message arrival/commit). The
//! Fig. 8 latency decomposition and several integration tests read that log.

use crate::config::ClusterConfig;
use crate::membership::{Liveness, MembershipView};
use crate::observe::ClusterStats;
use crate::stall::{BlockedOn, NodeStall, StallReason, StallReport};
use gtn_fabric::{CrashComponent, Delivery, Fabric};
use gtn_gpu::{Gpu, GpuEvent, GpuOutput};
use gtn_host::{Cpu, CpuEvent, CpuOutput, HostOp, HostProgram};
use gtn_mem::{MemPool, NodeId};
use gtn_nic::nic::{Nic, NicEvent, NicNote, NicOutput};
use gtn_nic::DeliveryCause;
use gtn_sim::stats::StatSet;
use gtn_sim::time::{SimDuration, SimTime};
use gtn_sim::Engine;

/// Wire size of one liveness probe: a header-only control message. Charged
/// real fabric latency/bandwidth like everything else, but small enough that
/// heartbeating never meaningfully perturbs data traffic.
const HEARTBEAT_BYTES: u64 = 16;

/// One logged protocol moment.
#[derive(Debug, Clone, PartialEq)]
pub struct LogRecord {
    /// When.
    pub at: SimTime,
    /// Which node.
    pub node: u32,
    /// What.
    pub kind: LogKind,
}

/// The protocol moments the evaluation cares about.
#[derive(Debug, Clone, PartialEq)]
pub enum LogKind {
    /// Host runtime finished the launch call; front-end launch begins.
    KernelEnqueued,
    /// Front-end finished launching kernel `kid`; work-groups start.
    KernelDispatched(u64),
    /// Kernel fully complete (teardown included).
    KernelDone {
        /// GPU-assigned kernel id.
        kid: u64,
        /// Launch label.
        label: String,
    },
    /// Host rang the NIC doorbell.
    DoorbellRung,
    /// A trigger-address write was issued (by a kernel, the CPU, or the
    /// GPU front-end's GDS doorbell) carrying this tag.
    TriggerWrite(u64),
    /// Initiator NIC finished DMA-reading a put's payload (injection
    /// begins; send buffer reusable).
    PutDmaDone,
    /// A message's last packet arrived at this node's NIC.
    MessageArrived,
    /// Payload committed to this node's memory (flags visible).
    MessageCommitted,
    /// This node's host program ran to completion.
    CpuFinished,
    /// The fault plan dropped an attempt of tracked message `seq`.
    MessageDropped {
        /// ARQ sequence number.
        seq: u64,
    },
    /// A retry timer expired and attempt `attempt` of `seq` was sent.
    Retransmitted {
        /// ARQ sequence number.
        seq: u64,
        /// Send attempt just made (2 = first retransmit).
        attempt: u32,
    },
    /// Message `seq` was abandoned: its retry budget ran out, or its target
    /// was declared dead and the pending send was failed fast.
    DeliveryFailed {
        /// ARQ sequence number.
        seq: u64,
        /// Total attempts made.
        attempts: u32,
        /// Why delivery was given up on.
        cause: DeliveryCause,
    },
    /// The NIC rejected a trigger registration (rendered error).
    TriggerRejected(String),
    /// A receive commit parked on a full bounded completion queue resumed
    /// after waiting this long (the `cq_stall` stage).
    CqStalled {
        /// Picoseconds the commit was parked.
        waited_ps: u64,
    },
}

/// Outcome of a cluster run.
#[derive(Debug)]
pub struct ClusterResult {
    /// Per-node host-program completion times.
    pub finish_times: Vec<Option<SimTime>>,
    /// Latest completion across nodes (the experiment's measured time).
    pub makespan: SimTime,
    /// True if every node's host program completed. False means deadlock —
    /// a poll that never satisfied, a wait on a kernel that never ran.
    pub completed: bool,
    /// Total events processed.
    pub events: u64,
    /// Structured diagnosis when `completed` is false: who is stuck, on
    /// what, and what the NICs were still doing. `None` iff completed.
    pub stall: Option<StallReport>,
}

impl ClusterResult {
    /// Makespan, asserting completion (panics with diagnostics otherwise).
    pub fn expect_completed(&self) -> SimTime {
        if !self.completed {
            match &self.stall {
                Some(report) => panic!("cluster did not complete\n{report}"),
                None => panic!(
                    "cluster did not complete: finish_times = {:?}",
                    self.finish_times
                ),
            }
        }
        self.makespan
    }
}

#[derive(Debug)]
enum Event {
    Cpu(u32, CpuEvent),
    Gpu(u32, GpuEvent),
    Nic(u32, NicEvent),
    /// Node's host agent broadcasts liveness probes and re-arms (failure
    /// detection only; never scheduled when `config.failure` is off).
    HbTick(u32),
    /// A liveness probe from `from` reaches `to`'s host agent.
    HbArrive {
        to: u32,
        from: u32,
    },
}

/// A simulated cluster mid-experiment.
pub struct Cluster {
    config: ClusterConfig,
    mem: MemPool,
    fabric: Fabric,
    cpus: Vec<Cpu>,
    gpus: Vec<Gpu>,
    nics: Vec<Nic>,
    engine: Engine<Event>,
    log: Vec<LogRecord>,
    finish_times: Vec<Option<SimTime>>,
    /// Per-observer failure-detector state: one view per node when
    /// `config.failure` is enabled, none otherwise (the tables grow with
    /// the node count squared).
    views: Vec<MembershipView>,
    /// First death detection: `(peer, detector)`. Set by a detector's lease
    /// sweep, consumed by the run loop to terminate with
    /// [`StallReason::PeerDead`].
    dead_detected: Option<(u32, u32)>,
    /// First suspicion: `(peer, when)` — the first lease sweep that saw any
    /// peer leave [`Liveness::Alive`]. Detection-latency studies read the
    /// `injection → suspect → dead` timeline from this plus
    /// [`Cluster::dead_detected`].
    first_suspect: Option<(u32, SimTime)>,
    /// When the death verdict was reached, for the same timeline.
    dead_at: Option<SimTime>,
    /// Precomputed crash schedule: when each node's *compute* (CPU+GPU)
    /// dies, from `config.fabric.faults` Node specs.
    node_down: Vec<Option<SimTime>>,
    /// When each node's NIC dies (Node or Nic specs — a whole-node crash
    /// takes its NIC with it).
    nic_down: Vec<Option<SimTime>>,
    /// Events silently dropped because their component had crashed.
    crash_suppressed: u64,
}

impl Cluster {
    /// Assemble a cluster.
    ///
    /// `mem` is the pre-populated memory pool (workloads allocate buffers
    /// and write initial data before construction); `programs` holds one
    /// host program per node, started at t = 0.
    ///
    /// # Panics
    /// Panics if the configuration is invalid, `mem` has the wrong node
    /// count, or `programs.len() != n_nodes`.
    pub fn new(config: ClusterConfig, mut mem: MemPool, programs: Vec<HostProgram>) -> Self {
        config.validate().expect("invalid cluster config");
        let n = config.n_nodes as usize;
        assert_eq!(mem.node_count(), n, "memory pool node count mismatch");
        assert_eq!(programs.len(), n, "one host program per node required");

        let cpus: Vec<Cpu> = programs
            .into_iter()
            .map(|p| Cpu::new(config.host.clone(), p))
            .collect();
        let gpus: Vec<Gpu> = (0..n).map(|_| Gpu::new(config.gpu.clone())).collect();
        let mut nics: Vec<Nic> = (0..n)
            .map(|i| Nic::new(NodeId(i as u32), config.nic.clone()))
            .collect();
        // Bounded-CQ mode: every NIC gets a `depth`-entry completion ring
        // with backpressure (full ring parks commits instead of
        // overwriting) and a modeled host consumer (`cq_drain_ns`).
        if let Some(depth) = config.nic.cq_capacity {
            for (i, nic) in nics.iter_mut().enumerate() {
                let cq = gtn_nic::cq::CqDesc::alloc(&mut mem, NodeId(i as u32), depth);
                nic.attach_cq(cq);
            }
        }
        let fabric = Fabric::new(n, config.fabric.clone());

        let mut engine = Engine::new();
        for node in 0..n as u32 {
            engine.schedule_at(SimTime::ZERO, Event::Cpu(node, CpuEvent::Step));
        }
        // Failure detection: every host agent starts probing at t = 0.
        // Nothing is scheduled when detection is off, so those runs are
        // event-for-event identical to a build without the detector.
        if config.failure.enabled() && n > 1 {
            for node in 0..n as u32 {
                engine.schedule_at(SimTime::ZERO, Event::HbTick(node));
            }
        }
        let node_down = (0..n as u32)
            .map(|i| config.fabric.faults.node_down_at(i).map(SimTime::from_ns))
            .collect();
        let nic_down = (0..n as u32)
            .map(|i| config.fabric.faults.nic_down_at(i).map(SimTime::from_ns))
            .collect();

        let views = if config.failure.enabled() {
            (0..n as u32)
                .map(|i| MembershipView::new(i, n as u32))
                .collect()
        } else {
            Vec::new()
        };

        Cluster {
            views,
            config,
            mem,
            fabric,
            cpus,
            gpus,
            nics,
            engine,
            log: Vec::new(),
            finish_times: vec![None; n],
            dead_detected: None,
            first_suspect: None,
            dead_at: None,
            node_down,
            nic_down,
            crash_suppressed: 0,
        }
    }

    /// Attach a completion queue to node `n`'s NIC (the conventional
    /// notification channel; see [`gtn_nic::cq`]).
    pub fn attach_cq(&mut self, n: u32, cq: gtn_nic::cq::CqDesc) {
        self.nics[n as usize].attach_cq(cq);
    }

    /// The shared memory pool.
    pub fn mem(&self) -> &MemPool {
        &self.mem
    }

    /// The configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Node `n`'s NIC (stats, trigger diagnostics).
    pub fn nic(&self, n: u32) -> &Nic {
        &self.nics[n as usize]
    }

    /// Node `n`'s GPU.
    pub fn gpu(&self, n: u32) -> &Gpu {
        &self.gpus[n as usize]
    }

    /// Node `n`'s CPU.
    pub fn cpu(&self, n: u32) -> &Cpu {
        &self.cpus[n as usize]
    }

    /// The activity log (empty unless `config.log_events`).
    pub fn log(&self) -> &[LogRecord] {
        &self.log
    }

    /// Node `n`'s failure-detector view of the cluster, or `None` when
    /// `config.failure` is disabled (no tables are built then).
    pub fn membership(&self, n: u32) -> Option<&MembershipView> {
        self.views.get(n as usize)
    }

    /// The first death detection, if any: `(peer, detector)`.
    pub fn dead_detected(&self) -> Option<(u32, u32)> {
        self.dead_detected
    }

    /// The first suspicion, if any: `(peer, when)` — the first lease sweep
    /// that saw a peer leave `Alive`. Always at or before the death
    /// verdict; the gap between the two is the detector's confirmation
    /// time.
    pub fn first_suspect(&self) -> Option<(u32, SimTime)> {
        self.first_suspect
    }

    /// When the death verdict was reached, if any.
    pub fn dead_at(&self) -> Option<SimTime> {
        self.dead_at
    }

    /// Ground truth for a death verdict on `peer`: the injected crash the
    /// verdict traces back to. Prefers a spec that names the peer directly
    /// (its node, its NIC, a link or graph edge it terminates); falls back
    /// to the earliest edge crash — a severed interior wire can partition
    /// a peer no spec names. `None` when nothing was injected (a detector
    /// false positive, which the soundness tests assert never happens).
    pub fn resolve_culprit(&self, peer: u32) -> Option<CrashComponent> {
        let crashes = &self.config.fabric.faults.crashes;
        crashes
            .iter()
            .find(|c| match c.component {
                CrashComponent::Node(n) | CrashComponent::Nic(n) => n == peer,
                CrashComponent::Link { a, b } | CrashComponent::Edge { a, b } => {
                    a == peer || b == peer
                }
            })
            .or_else(|| {
                crashes
                    .iter()
                    .filter(|c| matches!(c.component, CrashComponent::Edge { .. }))
                    .min_by_key(|c| c.at_ns)
            })
            .map(|c| c.component)
    }

    /// Events dropped because their component had crashed by the time they
    /// fired (a crashed CPU does not step; a crashed NIC does not match).
    pub fn crash_suppressed(&self) -> u64 {
        self.crash_suppressed
    }

    /// The fabric's route-around log (empty unless `reroute_delay_ns` armed
    /// failover): one record per `(src, dst)` pair whose route changed when
    /// a failed edge was withdrawn.
    pub fn reroutes(&self) -> &[gtn_fabric::RerouteRecord] {
        self.fabric.reroutes()
    }

    /// Directed pairs left with no surviving path after withdrawals.
    pub fn partitioned_pairs(&self) -> u64 {
        self.fabric.partitioned_pairs()
    }

    /// Is node `n`'s compute (CPU + GPU) dead at `now`?
    fn compute_down(&self, n: u32, now: SimTime) -> bool {
        self.node_down[n as usize].is_some_and(|t| now >= t)
    }

    /// Is node `n`'s NIC dead at `now` (its own crash or its node's)?
    fn nic_is_down(&self, n: u32, now: SimTime) -> bool {
        self.nic_down[n as usize].is_some_and(|t| now >= t)
    }

    /// Snapshot every component's stats into a namespaced registry:
    /// `node{N}.cpu` / `node{N}.gpu` / `node{N}.nic` per node, `fabric`
    /// for the interconnect's fault counters, and `engine` for run
    /// counters (`events_processed`, `clamped_past_events`, pending).
    /// Deterministic: namespaces and their contents iterate in name order.
    pub fn collect_stats(&self) -> ClusterStats {
        let mut out = ClusterStats::new();
        for n in 0..self.config.n_nodes {
            let i = n as usize;
            out.insert(&format!("node{n}.cpu"), self.cpus[i].stats());
            out.insert(&format!("node{n}.gpu"), self.gpus[i].stats());
            out.insert(&format!("node{n}.nic"), self.nics[i].stats());
        }
        let mut fabric = StatSet::new();
        fabric.absorb(self.fabric.fault_stats());
        fabric.add("messages_sent", self.fabric.messages_sent());
        // Per-link utilization rollups over the topology graph: the
        // heaviest link is the congestion hot spot a scaling sweep reports.
        fabric.add("max_link_bytes", self.fabric.max_link_bytes());
        fabric.add("max_link_packets", self.fabric.max_link_packets());
        fabric.add("wire_bytes", self.fabric.total_wire_bytes());
        fabric.add("links", self.fabric.link_count() as u64);
        // Failover counters exist only when route-around is armed, so
        // baseline runs (and their goldens) never see the keys.
        if self.fabric.reroute_armed() {
            fabric.add("reroutes", self.fabric.reroutes().len() as u64);
            fabric.add("partitioned_pairs", self.fabric.partitioned_pairs());
        }
        out.insert("fabric", &fabric);
        let mut engine = StatSet::new();
        engine.add("events_processed", self.engine.events_processed());
        engine.add("clamped_past_events", self.engine.clamped_past_events());
        engine.add("events_pending", self.engine.pending() as u64);
        out.insert("engine", &engine);
        out
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    fn record(&mut self, at: SimTime, node: u32, kind: LogKind) {
        if self.config.log_events {
            self.log.push(LogRecord { at, node, kind });
        }
    }

    /// Run to completion (calendar drain). Returns per-node finish times
    /// and whether every host program completed.
    ///
    /// A stall watchdog supervises the loop: every dispatched event is
    /// classified as *progress* (a CPU pc moved, a GPU retired an op, any
    /// NIC activity) or an *idle poll retry*. Once
    /// `config.stall_timeout_ns` of simulated time passes without progress,
    /// the run is declared livelocked and aborted with a [`StallReport`]
    /// instead of spinning until the absolute event cap.
    pub fn run(&mut self) -> ClusterResult {
        // The engine and the component vectors are disjoint fields, but the
        // handler closure needs `&mut self`-ish access to all of them, so we
        // drive the loop manually via `step`.
        let horizon = SimDuration::from_ns(self.config.stall_timeout_ns);
        let mut last_progress = SimTime::ZERO;
        let mut abort: Option<StallReason> = None;
        loop {
            let Some((now, ev)) = self.engine.step() else {
                break; // calendar drained: completion or deadlock
            };
            if self.dispatch(now, ev) {
                last_progress = now;
            } else if now.since(last_progress) > horizon {
                abort = Some(StallReason::Livelock {
                    idle_ns: now.since(last_progress).as_ns_f64() as u64,
                });
                break;
            }
            if let Some((peer, detector)) = self.dead_detected {
                // A lease expired on an unfinished peer: terminate with a
                // structured verdict. Pending sends toward the corpse are
                // failed fast so the report names them as PeerDead, not as
                // mysterious in-flight retries.
                self.dead_at = Some(now);
                self.fail_dead_peer(now, peer);
                abort = Some(StallReason::PeerDead {
                    peer,
                    detector,
                    culprit: self.resolve_culprit(peer),
                });
                break;
            }
            if self.engine.events_processed() >= 400_000_000 {
                abort = Some(StallReason::EventCap); // absolute backstop
                break;
            }
        }
        let completed = self.finish_times.iter().all(Option::is_some);
        let makespan = self
            .finish_times
            .iter()
            .flatten()
            .copied()
            .max()
            .unwrap_or(SimTime::ZERO);
        let stall = if completed {
            None
        } else {
            let reason = abort.unwrap_or_else(|| {
                // A drained calendar with commits parked on exhausted NIC
                // resources is starvation, not a protocol deadlock: the
                // work exists, the resources to finish it don't.
                let starved = (0..self.config.n_nodes).any(|n| {
                    let nic = &self.nics[n as usize];
                    nic.cq_parked() > 0 || nic.flow_queued() > 0
                });
                if starved {
                    StallReason::ResourceStarvation
                } else {
                    StallReason::Deadlock
                }
            });
            Some(self.stall_report(reason))
        };
        ClusterResult {
            finish_times: self.finish_times.clone(),
            makespan,
            completed,
            events: self.engine.events_processed(),
            stall,
        }
    }

    /// Diagnose every unfinished node (see [`StallReport`]).
    fn stall_report(&self, reason: StallReason) -> StallReport {
        let nodes = (0..self.config.n_nodes)
            .filter(|&n| self.finish_times[n as usize].is_none())
            .map(|n| {
                let cpu = &self.cpus[n as usize];
                let blocked_on = if let Some(label) = cpu.waiting_on() {
                    BlockedOn::Kernel {
                        label: label.to_owned(),
                    }
                } else {
                    match cpu.current_op() {
                        Some(HostOp::Poll { addr, at_least }) => BlockedOn::Poll {
                            addr: *addr,
                            at_least: *at_least,
                            current: self.mem.read_u64(*addr),
                        },
                        Some(op) => BlockedOn::Op {
                            desc: format!("{op:?}"),
                        },
                        None => BlockedOn::Op {
                            desc: "<program end>".into(),
                        },
                    }
                };
                let nic = &self.nics[n as usize];
                NodeStall {
                    node: n,
                    blocked_on,
                    pc: cpu.pc(),
                    program_len: cpu.program_len(),
                    kernels_in_flight: self.gpus[n as usize].kernels_in_flight(),
                    pending_triggers: nic.triggers().pending_entries(),
                    in_flight_retries: nic.pending_retries(),
                    delivery_failures: nic.delivery_failures().to_vec(),
                    trigger_overflow: nic.triggers().overflow_len(),
                    cq_parked: nic.cq_parked(),
                    flow_queued: nic.flow_queued(),
                    admission_shed: nic.triggers().admission_shed(),
                }
            })
            .collect();
        let tail = self.log.len().saturating_sub(16);
        StallReport {
            at: self.engine.now(),
            reason,
            nodes,
            clamped_past_events: self.engine.clamped_past_events(),
            recent: self.log[tail..].to_vec(),
        }
    }

    /// Dispatch one event; returns true if it made progress (anything
    /// beyond re-checking a still-unsatisfied poll).
    fn dispatch(&mut self, now: SimTime, ev: Event) -> bool {
        // Crash-stop suppression: a dead component's pending events fire
        // into the void. The fabric already black-holes its traffic; this
        // is the compute side of the same silence.
        let crashed = match &ev {
            Event::Cpu(n, _) | Event::Gpu(n, _) => self.compute_down(*n, now),
            Event::Nic(n, _) => self.nic_is_down(*n, now),
            Event::HbTick(_) | Event::HbArrive { .. } => false, // handled below
        };
        if crashed {
            self.crash_suppressed += 1;
            return false;
        }
        match ev {
            Event::Cpu(n, ev) => {
                let i = n as usize;
                let before = (self.cpus[i].pc(), self.cpus[i].is_finished());
                let outs = self.cpus[i].handle(now, ev, &mut self.mem);
                let progress = (self.cpus[i].pc(), self.cpus[i].is_finished()) != before;
                for out in outs {
                    self.route_cpu(n, out);
                }
                progress
            }
            Event::Gpu(n, ev) => {
                // Log the protocol-relevant internal transitions.
                if let GpuEvent::Dispatch(kid) = &ev {
                    self.record(now, n, LogKind::KernelDispatched(kid.0));
                }
                let i = n as usize;
                let idle_before = self.gpus[i].idle_polls();
                let outs = self.gpus[i].handle(now, ev, &mut self.mem);
                let progress = self.gpus[i].idle_polls() == idle_before;
                for out in outs {
                    self.route_gpu(n, out);
                }
                progress
            }
            Event::Nic(n, ev) => {
                match &ev {
                    NicEvent::DmaReadDone(_) => self.record(now, n, LogKind::PutDmaDone),
                    NicEvent::RxArrive(_) => self.record(now, n, LogKind::MessageArrived),
                    NicEvent::RxDone(_) => self.record(now, n, LogKind::MessageCommitted),
                    _ => {}
                }
                let outs = self.nics[n as usize].handle(now, ev, &mut self.mem, &mut self.fabric);
                for out in outs {
                    self.route_nic(n, out);
                }
                self.drain_nic_notes(n);
                // NIC activity is always progress: it is bounded (retry
                // budgets exhaust; nothing in the NIC self-perpetuates
                // indefinitely) and usually exactly what pollers wait on.
                true
            }
            // Heartbeats are deliberately NOT progress: a wedged cluster
            // that still exchanges probes is exactly as wedged, and the
            // livelock watchdog must still be able to fire.
            Event::HbTick(s) => {
                self.heartbeat_tick(now, s);
                false
            }
            Event::HbArrive { to, from } => {
                if !self.compute_down(to, now) {
                    self.views[to as usize].record_alive(from, now);
                }
                false
            }
        }
    }

    /// One node's probe broadcast + lease sweep + re-arm. Probes travel on
    /// the control lane: straight from host agent to fabric, charged real
    /// latency and judged by the fault plan (loss, crashes, degrades), but
    /// bypassing the NIC's CQ/CAM/flow-control — resource pressure can
    /// never starve detection, which is what keeps the detector sound
    /// under pure loss/pressure.
    fn heartbeat_tick(&mut self, now: SimTime, s: u32) {
        // Stop the daemon once the run is decided: all programs finished
        // (let the calendar drain), a death verdict was already reached
        // (the run loop is about to terminate — not re-arming lets the
        // calendar drain cleanly instead of ticking against the event
        // budget), or the probing node itself is dead.
        if self.finish_times.iter().all(Option::is_some)
            || self.dead_detected.is_some()
            || self.compute_down(s, now)
        {
            return;
        }
        // A retired (finished) node stops *probing*: no lease sweep ever
        // targets a finished peer, so its probes confirm nothing and only
        // burn event budget. It keeps sweeping below — it may be the only
        // survivor left to notice a dead peer. Probes toward finished
        // nodes continue for the same reason: their sweeps are still live,
        // and going silent toward them would read as a false death.
        if self.finish_times[s as usize].is_none() {
            for d in 0..self.config.n_nodes {
                if d == s {
                    continue;
                }
                let (timing, delivery) =
                    self.fabric
                        .send_message_faulty(now, NodeId(s), NodeId(d), HEARTBEAT_BYTES);
                if matches!(delivery, Delivery::Delivered) {
                    self.engine
                        .schedule_at(timing.last_arrival, Event::HbArrive { to: d, from: s });
                }
            }
        }
        // Lease sweep over this observer's own view. A peer whose program
        // already finished is left alone: its silence is retirement, not
        // death, and the run can still complete without it.
        if self.dead_detected.is_none() {
            for p in 0..self.config.n_nodes {
                if self.finish_times[p as usize].is_some() {
                    continue;
                }
                match self.views[s as usize].liveness(p, now, &self.config.failure) {
                    Liveness::Dead => {
                        if self.first_suspect.is_none() {
                            self.first_suspect = Some((p, now));
                        }
                        self.dead_detected = Some((p, s));
                        break;
                    }
                    Liveness::Suspect => {
                        if self.first_suspect.is_none() {
                            self.first_suspect = Some((p, now));
                        }
                    }
                    Liveness::Alive => {}
                }
            }
        }
        let period = SimDuration::from_ns(self.config.failure.heartbeat_period_ns);
        self.engine.schedule_at(now + period, Event::HbTick(s));
    }

    /// Fail every surviving NIC's pending sends toward a declared-dead peer
    /// (CQ error entries with cause `PeerDead`). Runs at termination, so
    /// follow-up events the NICs would emit are irrelevant and dropped.
    fn fail_dead_peer(&mut self, now: SimTime, peer: u32) {
        let culprit = self.resolve_culprit(peer);
        for n in 0..self.config.n_nodes {
            if n == peer || self.nic_is_down(n, now) {
                continue;
            }
            let _ = self.nics[n as usize].mark_peer_dead(now, NodeId(peer), culprit, &mut self.mem);
            self.drain_nic_notes(n);
        }
    }

    /// Fold the NIC's fault/reliability journal into the activity log.
    /// Drained unconditionally so the journal never grows unbounded.
    fn drain_nic_notes(&mut self, n: u32) {
        let notes = self.nics[n as usize].take_notes();
        if !self.config.log_events {
            return;
        }
        for (at, note) in notes {
            let kind = match note {
                NicNote::MessageDropped { seq, .. } => LogKind::MessageDropped { seq },
                NicNote::Retransmitted { seq, attempt, .. } => {
                    LogKind::Retransmitted { seq, attempt }
                }
                NicNote::DeliveryFailed {
                    seq,
                    attempts,
                    cause,
                    ..
                } => LogKind::DeliveryFailed {
                    seq,
                    attempts,
                    cause,
                },
                NicNote::TriggerRejected(e) => LogKind::TriggerRejected(e.to_string()),
                NicNote::CqStalled { waited } => LogKind::CqStalled {
                    waited_ps: waited.as_ps(),
                },
            };
            self.log.push(LogRecord { at, node: n, kind });
        }
    }

    fn route_cpu(&mut self, n: u32, out: CpuOutput) {
        match out {
            CpuOutput::Local { at, ev } => self.engine.schedule_at(at, Event::Cpu(n, ev)),
            CpuOutput::EnqueueKernel { at, launch } => {
                self.record(at, n, LogKind::KernelEnqueued);
                self.engine
                    .schedule_at(at, Event::Gpu(n, GpuEvent::Enqueue(launch)));
            }
            CpuOutput::Doorbell { at, cmd } => {
                self.record(at, n, LogKind::DoorbellRung);
                let delay = self.nics[n as usize].doorbell_delay();
                self.engine
                    .schedule_at(at + delay, Event::Nic(n, NicEvent::Doorbell(cmd)));
            }
            CpuOutput::TriggerWrite { at, tag } => {
                self.record(at, n, LogKind::TriggerWrite(tag.0));
                let delay = self.nics[n as usize].trigger_route_delay();
                self.engine
                    .schedule_at(at + delay, Event::Nic(n, NicEvent::TriggerWrite(tag)));
            }
            CpuOutput::Finished { at } => {
                self.record(at, n, LogKind::CpuFinished);
                self.finish_times[n as usize] = Some(at);
            }
        }
    }

    fn route_gpu(&mut self, n: u32, out: GpuOutput) {
        match out {
            GpuOutput::Local { at, ev } => self.engine.schedule_at(at, Event::Gpu(n, ev)),
            GpuOutput::TriggerWrite { at, tag } => {
                self.record(at, n, LogKind::TriggerWrite(tag.0));
                let delay = self.nics[n as usize].trigger_route_delay();
                self.engine
                    .schedule_at(at + delay, Event::Nic(n, NicEvent::TriggerWrite(tag)));
            }
            GpuOutput::TriggerWriteDyn { at, tag, fields } => {
                self.record(at, n, LogKind::TriggerWrite(tag.0));
                let delay = self.nics[n as usize].trigger_route_delay();
                self.engine.schedule_at(
                    at + delay,
                    Event::Nic(n, NicEvent::TriggerWriteDyn(tag, fields)),
                );
            }
            GpuOutput::KernelDone { kid, at, label } => {
                self.record(
                    at,
                    n,
                    LogKind::KernelDone {
                        kid: kid.0,
                        label: label.clone(),
                    },
                );
                // Host runtime observes completion.
                self.engine
                    .schedule_at(at, Event::Cpu(n, CpuEvent::KernelDone(label)));
            }
        }
    }

    fn route_nic(&mut self, n: u32, out: NicOutput) {
        match out {
            NicOutput::Local { at, ev } => self.engine.schedule_at(at, Event::Nic(n, ev)),
            NicOutput::Remote { node, at, ev } => {
                self.engine.schedule_at(at, Event::Nic(node.0, ev));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtn_gpu::kernel::ProgramBuilder;
    use gtn_gpu::KernelLaunch;
    use gtn_mem::scope::{MemOrdering, MemScope};
    use gtn_mem::Addr;
    use gtn_nic::nic::NicCommand;
    use gtn_nic::op::{NetOp, Notify};
    use gtn_nic::Tag;

    /// End-to-end GPU-TN ping: node 0's CPU registers a triggered put and
    /// launches a kernel that fills the buffer and triggers mid-kernel;
    /// node 1's CPU polls for the payload.
    fn gputn_ping() -> (Cluster, Addr, Addr) {
        let config = ClusterConfig::table2(2);
        let mut mem = MemPool::new(2);
        let src = Addr::base(NodeId(0), mem.alloc(NodeId(0), 64, "src"));
        let dst = Addr::base(NodeId(1), mem.alloc(NodeId(1), 64, "dst"));
        let flag = Addr::base(NodeId(1), mem.alloc(NodeId(1), 8, "flag"));
        let comp = Addr::base(NodeId(0), mem.alloc(NodeId(0), 8, "comp"));

        let kernel = ProgramBuilder::new()
            .compute(gtn_sim::time::SimDuration::from_ns(430))
            .func(move |mem, _| mem.write(src, &[0x42; 64]))
            .fence(MemScope::System, MemOrdering::Release)
            .trigger_store(|_| Tag(1))
            .build()
            .expect("valid kernel");

        let mut p0 = HostProgram::new();
        p0.nic_post(NicCommand::TriggeredPut {
            tag: Tag(1),
            threshold: 1,
            op: NetOp::Put {
                src,
                len: 64,
                target: NodeId(1),
                dst,
                notify: Some(Notify {
                    flag,
                    add: 1,
                    chain: None,
                }),
                completion: Some(comp),
            },
        })
        .launch(KernelLaunch::new(kernel, 1, 64, "ping"))
        .wait_kernel("ping");

        let mut p1 = HostProgram::new();
        p1.poll(flag, 1);

        (Cluster::new(config, mem, vec![p0, p1]), dst, flag)
    }

    #[test]
    fn gputn_ping_delivers_payload() {
        let (mut cluster, dst, flag) = gputn_ping();
        let result = cluster.run();
        assert!(result.completed, "{result:?}");
        assert_eq!(cluster.mem().read(dst, 64), &[0x42; 64]);
        assert_eq!(cluster.mem().read_u64(flag), 1);
        assert!(
            result.makespan < SimTime::from_us(10),
            "{}",
            result.makespan
        );
        assert_eq!(cluster.nic(0).stats().counter("fired_at_trigger"), 1);
    }

    #[test]
    fn gputn_target_completes_before_initiator_kernel_ends() {
        // The Fig. 8 phenomenon: "the target node receives the network data
        // before the kernel on the initiator completes."
        let (mut cluster, _, _) = gputn_ping();
        cluster.run();
        let commit = cluster
            .log()
            .iter()
            .find(|r| r.node == 1 && r.kind == LogKind::MessageCommitted)
            .expect("message committed")
            .at;
        let kernel_done = cluster
            .log()
            .iter()
            .find_map(|r| match &r.kind {
                LogKind::KernelDone { label, .. } if r.node == 0 && label == "ping" => Some(r.at),
                _ => None,
            })
            .expect("kernel done");
        assert!(
            commit < kernel_done,
            "GPU-TN should deliver intra-kernel: commit {commit} vs done {kernel_done}"
        );
    }

    #[test]
    fn gds_hook_rings_doorbell_at_kernel_boundary() {
        let config = ClusterConfig::table2(2);
        let mut mem = MemPool::new(2);
        let src = Addr::base(NodeId(0), mem.alloc(NodeId(0), 64, "src"));
        let dst = Addr::base(NodeId(1), mem.alloc(NodeId(1), 64, "dst"));
        let flag = Addr::base(NodeId(1), mem.alloc(NodeId(1), 8, "flag"));
        mem.write(src, &[7; 64]);

        let kernel = ProgramBuilder::new()
            .compute(gtn_sim::time::SimDuration::from_ns(430))
            .build()
            .unwrap();
        // One half of the payload per doorbell tag.
        let half = |tag: u64, off: u64| NicCommand::TriggeredPut {
            tag: Tag(tag),
            threshold: 1,
            op: NetOp::Put {
                src: src.offset_by(off),
                len: 32,
                target: NodeId(1),
                dst: dst.offset_by(off),
                notify: Some(Notify {
                    flag,
                    add: 1,
                    chain: None,
                }),
                completion: None,
            },
        };

        let mut p0 = HostProgram::new();
        p0.nic_post(half(9, 0))
            .nic_post(half(8, 32))
            .launch(KernelLaunch::new(kernel.clone(), 1, 64, "gdsk").ring_on_done([Tag(9), Tag(8)]))
            .wait_kernel("gdsk")
            // Same label, no doorbells: this completion rings nothing.
            .launch(KernelLaunch::new(kernel, 1, 64, "gdsk"));
        let mut p1 = HostProgram::new();
        p1.poll(flag, 2);

        let mut cluster = Cluster::new(config, mem, vec![p0, p1]);
        let result = cluster.run();
        assert!(result.completed);
        assert_eq!(cluster.mem().read(dst, 64), &[7; 64]);

        let log = cluster.log();
        let done: Vec<SimTime> = log
            .iter()
            .filter_map(|r| match &r.kind {
                LogKind::KernelDone { .. } if r.node == 0 => Some(r.at),
                _ => None,
            })
            .collect();
        assert_eq!(done.len(), 2, "both kernels completed");
        // The launch's tags ring once, in the order it lists them, one
        // doorbell cost after the first kernel's boundary.
        let rings: Vec<(SimTime, u64)> = log
            .iter()
            .filter_map(|r| match r.kind {
                LogKind::TriggerWrite(tag) if r.node == 0 => Some((r.at, tag)),
                _ => None,
            })
            .collect();
        let ring = done[0] + SimDuration::from_ns(gtn_gpu::gpu::GDS_DOORBELL_NS);
        assert_eq!(rings, [(ring, 9), (ring, 8)]);

        // GDS delivers only after the kernel boundary.
        let commit = log
            .iter()
            .find(|r| r.node == 1 && r.kind == LogKind::MessageCommitted)
            .unwrap()
            .at;
        assert!(commit > done[0], "GDS is kernel-boundary");
    }

    #[test]
    fn deadlock_is_reported_not_hung() {
        let config = ClusterConfig::table2(1);
        let mut mem = MemPool::new(1);
        let flag = Addr::base(NodeId(0), mem.alloc(NodeId(0), 8, "never"));
        let mut p0 = HostProgram::new();
        // Wait for a kernel nobody launches: CPU blocks, engine drains.
        p0.wait_kernel("ghost");
        let mut cluster = Cluster::new(config, mem, vec![p0]);
        let result = cluster.run();
        assert!(!result.completed);
        assert_eq!(result.finish_times, vec![None]);
        let report = result.stall.as_ref().expect("stall report for deadlock");
        assert_eq!(report.reason, crate::stall::StallReason::Deadlock);
        assert_eq!(report.nodes.len(), 1);
        assert_eq!(
            report.nodes[0].blocked_on,
            crate::stall::BlockedOn::Kernel {
                label: "ghost".into()
            }
        );
        let _ = flag;
    }

    #[test]
    fn livelock_polling_is_caught_by_watchdog() {
        let mut config = ClusterConfig::table2(1);
        config.stall_timeout_ns = 100_000; // fast test: 100 us of spinning
        let mut mem = MemPool::new(1);
        let flag = Addr::base(NodeId(0), mem.alloc(NodeId(0), 8, "never"));
        let mut p0 = HostProgram::new();
        // Poll a flag nobody ever sets: the CPU reschedules itself forever,
        // so the calendar never drains — only the watchdog can end this.
        p0.poll(flag, 1);
        let mut cluster = Cluster::new(config, mem, vec![p0]);
        let result = cluster.run();
        assert!(!result.completed);
        let report = result.stall.as_ref().expect("stall report for livelock");
        assert!(
            matches!(report.reason, crate::stall::StallReason::Livelock { .. }),
            "{:?}",
            report.reason
        );
        assert_eq!(report.nodes.len(), 1);
        match report.nodes[0].blocked_on {
            crate::stall::BlockedOn::Poll {
                at_least, current, ..
            } => {
                assert_eq!(at_least, 1);
                assert_eq!(current, 0);
            }
            ref other => panic!("expected Poll, got {other:?}"),
        }
        // Orders of magnitude below the 400M-event backstop.
        assert!(result.events < 100_000, "{}", result.events);
        // And the rendering names the essentials.
        let text = report.to_string();
        assert!(text.contains("livelock"), "{text}");
        assert!(text.contains("node 0"), "{text}");
    }

    #[test]
    #[should_panic(expected = "cluster did not complete")]
    fn expect_completed_panics_with_report() {
        let mut config = ClusterConfig::table2(1);
        config.stall_timeout_ns = 100_000;
        let mut mem = MemPool::new(1);
        let flag = Addr::base(NodeId(0), mem.alloc(NodeId(0), 8, "never"));
        let mut p0 = HostProgram::new();
        p0.poll(flag, 1);
        let mut cluster = Cluster::new(config, mem, vec![p0]);
        cluster.run().expect_completed();
    }

    #[test]
    fn collect_stats_namespaces_every_component() {
        let (mut cluster, _, _) = gputn_ping();
        cluster.run();
        let stats = cluster.collect_stats();
        let names: Vec<&str> = stats.namespaces().collect();
        assert_eq!(
            names,
            vec![
                "engine",
                "fabric",
                "node0.cpu",
                "node0.gpu",
                "node0.nic",
                "node1.cpu",
                "node1.gpu",
                "node1.nic",
            ]
        );
        assert_eq!(stats.counter("node0.nic", "fired_at_trigger"), 1);
        assert_eq!(stats.counter("engine", "clamped_past_events"), 0);
        assert!(stats.counter("engine", "events_processed") > 0);
        // Stage histograms flow through: initiator injected, target committed.
        assert!(stats
            .get("node0.nic")
            .unwrap()
            .histogram("stage_injection")
            .is_some());
        assert!(stats
            .get("node1.nic")
            .unwrap()
            .histogram("stage_commit")
            .is_some());
        // Cross-node merge sees both sides' wire stage.
        let nic = stats.merged("nic");
        assert_eq!(nic.histogram("stage_wire").unwrap().count(), 1);
        // Target CPU's poll wait (the CQ-poll stage).
        assert_eq!(
            stats
                .get("node1.cpu")
                .unwrap()
                .histogram("poll_wait")
                .unwrap()
                .count(),
            1
        );
    }

    #[test]
    fn log_records_protocol_moments_in_order() {
        let (mut cluster, _, _) = gputn_ping();
        cluster.run();
        let kinds: Vec<&LogKind> = cluster.log().iter().map(|r| &r.kind).collect();
        // Doorbell (post) precedes trigger write precedes commit.
        let pos = |pred: &dyn Fn(&LogKind) -> bool| kinds.iter().position(|k| pred(k)).unwrap();
        let doorbell = pos(&|k| matches!(k, LogKind::DoorbellRung));
        let trig = pos(&|k| matches!(k, LogKind::TriggerWrite(1)));
        let commit = pos(&|k| matches!(k, LogKind::MessageCommitted));
        assert!(doorbell < trig && trig < commit, "{kinds:?}");
    }

    #[test]
    fn node_crash_is_detected_and_aborts_with_peer_dead() {
        use crate::membership::FailureConfig;
        use gtn_fabric::FaultConfig;
        let mut config = ClusterConfig::table2(2);
        config.failure = FailureConfig::detection();
        config.fabric.faults = FaultConfig::crash(1, 1_000_000); // dies at 1 ms
        let mut mem = MemPool::new(2);
        let flag = Addr::base(NodeId(0), mem.alloc(NodeId(0), 8, "flag"));
        let mut p0 = HostProgram::new();
        p0.poll(flag, 1); // waits on node 1, who dies before delivering
        let mut p1 = HostProgram::new();
        p1.compute(gtn_sim::time::SimDuration::from_us(10_000));

        let mut cluster = Cluster::new(config, mem, vec![p0, p1]);
        let result = cluster.run();
        assert!(!result.completed);
        let report = result.stall.as_ref().expect("stall report");
        assert_eq!(
            report.reason,
            crate::stall::StallReason::PeerDead {
                peer: 1,
                detector: 0,
                culprit: Some(gtn_fabric::CrashComponent::Node(1)),
            }
        );
        // Last probe from node 1 lands just after 0.9 ms; the 2 ms lease
        // expires by node 0's 3.0 ms sweep. Detection is prompt: well
        // before the 50 ms stall watchdog, in a bounded event count.
        assert_eq!(report.at, SimTime::from_us(3_000), "{}", report.at);
        assert!(result.events < 100_000, "{}", result.events);
        assert_eq!(cluster.dead_detected(), Some((1, 0)));
        // The suspicion → death timeline is recorded: suspect strictly
        // after the injection, death strictly after (or at) suspicion.
        let (sus_peer, sus_at) = cluster.first_suspect().expect("suspected");
        assert_eq!(sus_peer, 1);
        assert!(sus_at > SimTime::from_us(1_000), "{sus_at}");
        assert_eq!(cluster.dead_at(), Some(report.at));
        assert!(sus_at <= report.at, "{sus_at} vs {}", report.at);
        let text = report.to_string();
        assert!(text.contains("node 1 declared dead by node 0"), "{text}");
        assert!(text.contains("culprit node 1"), "{text}");
    }

    #[test]
    fn detection_on_healthy_run_completes_with_fresh_leases() {
        use crate::membership::{FailureConfig, Liveness};
        let mut config = ClusterConfig::table2(2);
        config.failure = FailureConfig::detection();
        let mem = MemPool::new(2);
        let mut p0 = HostProgram::new();
        p0.compute(gtn_sim::time::SimDuration::from_us(500));
        let mut p1 = HostProgram::new();
        p1.compute(gtn_sim::time::SimDuration::from_us(500));
        let mut cluster = Cluster::new(config, mem, vec![p0, p1]);
        let result = cluster.run();
        assert!(result.completed, "{result:?}");
        assert_eq!(cluster.dead_detected(), None);
        // Both observers heard from each other and hold fresh leases.
        let now = cluster.now();
        let failure = cluster.config().failure;
        for (me, peer) in [(0u32, 1u32), (1, 0)] {
            let view = cluster.membership(me).expect("detection builds views");
            assert!(view.last_heard(peer) > SimTime::ZERO);
            assert_eq!(view.liveness(peer, now, &failure), Liveness::Alive);
        }
    }

    #[test]
    fn detection_off_builds_no_membership_tables() {
        let config = ClusterConfig::table2(4);
        assert!(!config.failure.enabled());
        let mem = MemPool::new(4);
        let programs = (0..4).map(|_| HostProgram::new()).collect();
        let mut cluster = Cluster::new(config, mem, programs);
        assert!(cluster.views.is_empty());
        assert!((0..4).all(|n| cluster.membership(n).is_none()));
        // No heartbeat is ever scheduled: the empty programs are all there is.
        let result = cluster.run();
        assert!(result.completed, "{result:?}");
        assert_eq!(result.events, 4, "one CPU step per node, no heartbeats");
    }

    #[test]
    fn crash_after_finish_is_retirement_not_death() {
        use crate::membership::FailureConfig;
        use gtn_fabric::FaultConfig;
        let mut config = ClusterConfig::table2(2);
        config.failure = FailureConfig::detection();
        config.fabric.faults = FaultConfig::crash(1, 1_000_000);
        let mem = MemPool::new(2);
        let mut p0 = HostProgram::new();
        // Node 0 outlives node 1's crash by far: leases on node 1 expire
        // while node 0 still runs, but node 1's program already finished.
        p0.compute(gtn_sim::time::SimDuration::from_us(5_000));
        let p1 = HostProgram::new(); // empty: finishes at t = 0, then dies
        let mut cluster = Cluster::new(config, mem, vec![p0, p1]);
        let result = cluster.run();
        assert!(result.completed, "{result:?}");
        assert_eq!(cluster.dead_detected(), None);
    }

    #[test]
    fn crashed_node_stops_spinning_and_drains() {
        use gtn_fabric::FaultConfig;
        let mut config = ClusterConfig::table2(1);
        config.fabric.faults = FaultConfig::crash(0, 500_000);
        let mut mem = MemPool::new(1);
        let flag = Addr::base(NodeId(0), mem.alloc(NodeId(0), 8, "never"));
        let mut p0 = HostProgram::new();
        p0.poll(flag, 1); // would spin forever — but the node dies
        let mut cluster = Cluster::new(config, mem, vec![p0]);
        let result = cluster.run();
        assert!(!result.completed);
        // The corpse's poll retry is suppressed, so the calendar drains
        // quickly instead of spinning to the livelock watchdog.
        assert!(cluster.crash_suppressed() >= 1);
        assert!(result.events < 100_000, "{}", result.events);
        let report = result.stall.as_ref().unwrap();
        assert_eq!(report.reason, crate::stall::StallReason::Deadlock);
    }

    #[test]
    fn relaxed_sync_overlap_post_after_trigger_still_delivers() {
        // §3.2/§4.1: launch the kernel FIRST, post the triggered op LATER.
        let config = ClusterConfig::table2(2);
        let mut mem = MemPool::new(2);
        let src = Addr::base(NodeId(0), mem.alloc(NodeId(0), 64, "src"));
        let dst = Addr::base(NodeId(1), mem.alloc(NodeId(1), 64, "dst"));
        let flag = Addr::base(NodeId(1), mem.alloc(NodeId(1), 8, "flag"));

        let kernel = ProgramBuilder::new()
            .func(move |mem, _| mem.write(src, &[0x99; 64]))
            .fence(MemScope::System, MemOrdering::Release)
            .trigger_store(|_| Tag(5))
            .build()
            .unwrap();

        let mut p0 = HostProgram::new();
        p0.launch(KernelLaunch::new(kernel, 1, 64, "k"))
            // Give the kernel a head start so its trigger lands first.
            .compute(gtn_sim::time::SimDuration::from_us(10))
            .nic_post(NicCommand::TriggeredPut {
                tag: Tag(5),
                threshold: 1,
                op: NetOp::Put {
                    src,
                    len: 64,
                    target: NodeId(1),
                    dst,
                    notify: Some(Notify {
                        flag,
                        add: 1,
                        chain: None,
                    }),
                    completion: None,
                },
            })
            .wait_kernel("k");
        let mut p1 = HostProgram::new();
        p1.poll(flag, 1);

        let mut cluster = Cluster::new(config, mem, vec![p0, p1]);
        let result = cluster.run();
        assert!(result.completed);
        assert_eq!(cluster.mem().read(dst, 64), &[0x99; 64]);
        assert_eq!(cluster.nic(0).triggers().early_allocations(), 1);
        assert_eq!(cluster.nic(0).stats().counter("fired_at_post"), 1);
    }
}
