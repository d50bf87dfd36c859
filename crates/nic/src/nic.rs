//! The NIC state machine: command processor, trigger FIFO, DMA engine, and
//! target-side delivery.
//!
//! One [`Nic`] instance per node. The cluster glue schedules
//! [`NicEvent`]s on the simulation engine and routes the [`NicOutput`]s a
//! handler returns — `Local` back onto this NIC, `Remote` onto the
//! destination node's NIC (the fabric model has already computed the
//! arrival time).
//!
//! ### Pipelines modelled
//!
//! - **Command processor** (`cmd_busy`): host doorbells are processed
//!   serially, `cmd_process_ns` each. Posts either execute immediately
//!   ([`NicCommand::Put`]) or register a trigger entry
//!   ([`NicCommand::TriggeredPut`], §3.1 step 1).
//! - **Trigger FIFO** (§3.1 step 3): GPU MMIO writes of tags "are routed to
//!   the NIC and placed in a FIFO associated with the trigger address. The
//!   NIC pops entries from the FIFO and searches the trigger list for a tag
//!   match". Drain rate is set by the lookup implementation's match cost —
//!   the §3.3 ablation.
//! - **DMA engine** (`dma_busy`): serial, `dma_setup_ns` + payload at
//!   `dma_gbps`. Payload bytes are snapshotted at DMA time, so the send
//!   buffer is genuinely reusable at local completion (§4.2.4) — a test
//!   overwrites it and the in-flight message is unaffected.
//! - **Receive path**: arrived messages spend `rx_process_ns` (+ payload
//!   write time), then payload bytes land in target memory and the optional
//!   notification flag is bumped (§4.2.5). Get requests execute a reply put
//!   on the target NIC.

use crate::config::NicConfig;
use crate::cq::{CqDesc, CqKind};
use crate::dynamic::DynFields;
use crate::op::{NetOp, Notify, OpId, Tag};
use crate::reliability::{Accept, DeliveryCause, DeliveryFailure, Reliability, TimerVerdict};
use crate::trigger::{TriggerError, TriggerList};
use bytes::Bytes;
use gtn_fabric::{Delivery, Fabric};
use gtn_mem::{Addr, MemPool, NodeId};
use gtn_sim::stats::StatSet;
use gtn_sim::time::{SimDuration, SimTime};
use std::collections::{HashMap, VecDeque};

/// A command the host posts to the NIC by ringing its doorbell.
#[derive(Debug, Clone, PartialEq)]
pub enum NicCommand {
    /// Execute this operation as soon as the command processor reaches it
    /// (classic host-driven post).
    Put(NetOp),
    /// Register a triggered operation: execute `op` once `threshold`
    /// matching tag writes have been collected (Fig. 6 `TrigPut`).
    TriggeredPut {
        /// Tag identifying the trigger entry.
        tag: Tag,
        /// Writes to collect before firing.
        threshold: u64,
        /// The pre-built operation.
        op: NetOp,
    },
}

/// A message in flight between two NICs (scheduled by the initiator's NIC
/// to arrive on the target's).
#[derive(Debug, Clone, PartialEq)]
pub struct RxMessage {
    /// Initiating node.
    pub origin: NodeId,
    /// When this attempt left the origin NIC (re-stamped per retransmit).
    /// The receiver derives the wire-stage latency from it.
    pub injected_at: SimTime,
    /// Sequence number assigned by the origin's reliability layer; `None`
    /// when ARQ is disabled or the message is not tracked (loopback, ACKs).
    pub seq: Option<u64>,
    /// What arrived.
    pub kind: RxKind,
}

/// Payload vs. get-request arrivals.
#[derive(Debug, Clone, PartialEq)]
pub enum RxKind {
    /// A put payload: write `payload` at `dst`, then apply `notify`.
    Put {
        /// Destination address on this node.
        dst: Addr,
        /// The payload bytes (snapshotted at initiator DMA time).
        payload: Bytes,
        /// Optional target-side notification flag.
        notify: Option<Notify>,
    },
    /// A get request: DMA `len` bytes from local `src` and put them back to
    /// `reply_dst` on `origin`, bumping `reply_notify` there when they land.
    GetRequest {
        /// Source address on this node.
        src: Addr,
        /// Bytes requested.
        len: u64,
        /// Where the reply payload goes on the requesting node.
        reply_dst: Addr,
        /// Completion flag on the requesting node.
        reply_notify: Option<Notify>,
    },
    /// Acknowledgement of a tracked message: the receiver committed (or
    /// had already committed) sequence `seq` from this ACK's destination.
    Ack {
        /// The acknowledged sequence number.
        seq: u64,
        /// Flow-control credits the receiver advertises: reorder-buffer
        /// room left for the ACK's destination. `0` when flow control is
        /// off (ignored by the receiver of the ACK then).
        credits: u64,
    },
}

/// Events the NIC reacts to.
#[derive(Debug, Clone, PartialEq)]
pub enum NicEvent {
    /// Host doorbell: a command has been written to the command queue. The
    /// glue schedules this `doorbell_ns` after the host's store.
    Doorbell(NicCommand),
    /// Command processor finished decoding a command.
    CmdReady(NicCommand),
    /// A tag store reached the trigger FIFO (`trigger_route_ns` after the
    /// GPU's MMIO write).
    TriggerWrite(Tag),
    /// A *dynamic* trigger descriptor reached the FIFO (§3.4 extension):
    /// tag plus GPU-supplied operation-field overrides.
    TriggerWriteDyn(Tag, DynFields),
    /// Drain one entry from the trigger FIFO.
    FifoDrain,
    /// The DMA engine finished reading an op's send buffer.
    DmaReadDone(OpId),
    /// A message arrived from the fabric.
    RxArrive(RxMessage),
    /// Receive processing finished: commit payload and flags.
    RxDone(RxMessage),
    /// A retransmit timer set when sequence `seq` toward `target` was sent
    /// for the `attempt`-th time expired. Stale timers (message since
    /// ACKed, or a newer attempt outstanding) are ignored.
    RetryTimer {
        /// Destination node of the guarded message (sequence spaces are
        /// per directed pair).
        target: NodeId,
        /// Tracked sequence number.
        seq: u64,
        /// The send attempt this timer guards (1 = original send).
        attempt: u32,
    },
    /// The modeled host consumer of a *bounded* completion queue retires
    /// one entry (every `cq_drain_ns`), unblocking parked commits.
    CqDrain,
}

/// Out-of-band journal records describing fault and reliability activity.
/// The cluster glue drains these with [`Nic::take_notes`] and folds them
/// into its activity log; standalone users may ignore them.
#[derive(Debug, Clone, PartialEq)]
pub enum NicNote {
    /// The fault plan dropped this attempt of a tracked message.
    MessageDropped {
        /// Tracked sequence number.
        seq: u64,
        /// Destination node.
        target: NodeId,
    },
    /// A retry timer expired and the message was retransmitted.
    Retransmitted {
        /// Tracked sequence number.
        seq: u64,
        /// Send attempt just made (2 = first retransmit).
        attempt: u32,
        /// Destination node.
        target: NodeId,
    },
    /// Delivery abandoned permanently — the retry budget ran out, or the
    /// failure detector declared the peer dead and pending messages toward
    /// it were failed fast.
    DeliveryFailed {
        /// Tracked sequence number.
        seq: u64,
        /// Destination it never confirmably reached.
        target: NodeId,
        /// Total sends attempted.
        attempts: u32,
        /// Why delivery was abandoned.
        cause: DeliveryCause,
    },
    /// A trigger registration or tag write was rejected.
    TriggerRejected(TriggerError),
    /// A receive commit parked on a full bounded completion queue resumed
    /// after `waited` (the `cq_stall` stage).
    CqStalled {
        /// How long the commit was parked.
        waited: SimDuration,
    },
}

/// Follow-up events for the glue to schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum NicOutput {
    /// Schedule `ev` on this same NIC at `at`.
    Local {
        /// Absolute fire time.
        at: SimTime,
        /// The event.
        ev: NicEvent,
    },
    /// Schedule `ev` on node `node`'s NIC at `at`.
    Remote {
        /// Destination node.
        node: NodeId,
        /// Absolute fire time.
        at: SimTime,
        /// The event.
        ev: NicEvent,
    },
}

#[derive(Debug)]
struct InFlight {
    op: NetOp,
    /// When the op entered the DMA engine (injection-stage start).
    started: SimTime,
}

/// One node's network interface.
#[derive(Debug)]
pub struct Nic {
    node: NodeId,
    config: NicConfig,
    triggers: TriggerList,
    /// Pending tag writes with their FIFO-arrival instant, so the drain can
    /// attribute queueing + match time to the trigger-match stage.
    fifo: VecDeque<(Tag, DynFields, SimTime)>,
    fifo_draining: bool,
    cmd_busy: SimTime,
    dma_busy: SimTime,
    inflight: HashMap<u64, InFlight>,
    next_op: u64,
    stats: StatSet,
    errors: Vec<(SimTime, TriggerError)>,
    /// Optional memory-resident completion queue (the conventional
    /// notification channel GPU-TN's flags replace; see [`crate::cq`]).
    cq: Option<CqDesc>,
    /// ARQ state (sequence numbers, unacked messages, receive dedupe).
    rel: Reliability<RxMessage>,
    /// Flow control: new sends queued per target while that target's
    /// credit grant is zero; drained FIFO as ACKs restore credit, so
    /// sequence numbers stay in send order.
    flow_queue: HashMap<u32, VecDeque<(u64, RxMessage)>>,
    /// Bounded CQ: receive commits parked (with their park instant)
    /// because the ring was full; resumed FIFO by [`NicEvent::CqDrain`].
    cq_waiting: VecDeque<(SimTime, RxMessage)>,
    /// Bounded CQ: send/error completion entries that found the ring full
    /// — `(completed_at, kind, tag, bytes)` — flushed before parked
    /// commits when the consumer frees slots. Never overwritten, never
    /// dropped.
    cq_backlog: VecDeque<(SimTime, CqKind, u64, u64)>,
    /// Whether a [`NicEvent::CqDrain`] is already scheduled.
    cq_drain_scheduled: bool,
    /// Trigger-list spill/promotion/shed totals already folded into
    /// `stats`.
    spills_synced: u64,
    promotions_synced: u64,
    shed_synced: u64,
    /// Journal of fault/reliability activity, drained by the cluster glue.
    notes: Vec<(SimTime, NicNote)>,
}

impl Nic {
    /// A NIC for `node` with the given configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(node: NodeId, config: NicConfig) -> Self {
        config.validate().expect("invalid NIC config");
        let triggers = TriggerList::with_partitions(
            config.lookup,
            config.trigger_overflow_capacity,
            config.trigger_partitions,
        );
        let rel = Reliability::new(config.reliability.clone());
        Nic {
            node,
            config,
            triggers,
            fifo: VecDeque::new(),
            fifo_draining: false,
            cmd_busy: SimTime::ZERO,
            dma_busy: SimTime::ZERO,
            inflight: HashMap::new(),
            next_op: 0,
            stats: StatSet::new(),
            errors: Vec::new(),
            cq: None,
            rel,
            flow_queue: HashMap::new(),
            cq_waiting: VecDeque::new(),
            cq_backlog: VecDeque::new(),
            cq_drain_scheduled: false,
            spills_synced: 0,
            promotions_synced: 0,
            shed_synced: 0,
            notes: Vec::new(),
        }
    }

    /// Attach a completion queue: from now on the NIC reports send
    /// completions (DMA done) and receive completions (payload commit)
    /// into the ring, in addition to any per-operation flags.
    pub fn attach_cq(&mut self, cq: CqDesc) {
        self.cq = Some(cq);
    }

    /// The node this NIC belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The active configuration.
    pub fn config(&self) -> &NicConfig {
        &self.config
    }

    /// Activity counters (commands, trigger writes, fires, rx messages…).
    pub fn stats(&self) -> &StatSet {
        &self.stats
    }

    /// Trigger-list diagnostics.
    pub fn triggers(&self) -> &TriggerList {
        &self.triggers
    }

    /// Trigger errors recorded so far (a healthy run has none). Each entry
    /// models a dropped MMIO write or rejected post.
    pub fn errors(&self) -> &[(SimTime, TriggerError)] {
        &self.errors
    }

    /// Drain the fault/reliability journal accumulated since the last call.
    pub fn take_notes(&mut self) -> Vec<(SimTime, NicNote)> {
        std::mem::take(&mut self.notes)
    }

    /// Messages sent but not yet acknowledged: `(seq, target, attempts)`.
    /// Nonzero entries in a quiescent cluster mean someone is retrying.
    pub fn pending_retries(&self) -> Vec<(u64, NodeId, u32)> {
        self.rel.pending()
    }

    /// Messages abandoned after exhausting the retry budget.
    pub fn delivery_failures(&self) -> &[DeliveryFailure] {
        self.rel.failures()
    }

    /// Commits and completion entries currently parked on a full bounded
    /// CQ. Nonzero in a quiescent cluster means the consumer starved.
    pub fn cq_parked(&self) -> usize {
        self.cq_waiting.len() + self.cq_backlog.len()
    }

    /// New sends queued for flow-control credit across all targets.
    pub fn flow_queued(&self) -> usize {
        self.flow_queue.values().map(VecDeque::len).sum()
    }

    fn note(&mut self, at: SimTime, note: NicNote) {
        self.notes.push((at, note));
    }

    /// Delay the glue should apply between a host doorbell store and the
    /// [`NicEvent::Doorbell`] event.
    pub fn doorbell_delay(&self) -> SimDuration {
        SimDuration::from_ns(self.config.doorbell_ns)
    }

    /// Delay the glue should apply between an agent's MMIO tag store and the
    /// [`NicEvent::TriggerWrite`] event.
    pub fn trigger_route_delay(&self) -> SimDuration {
        SimDuration::from_ns(self.config.trigger_route_ns)
    }

    /// Handle one event at `now`, mutating memory and fabric state, and
    /// return the follow-up events to schedule.
    pub fn handle(
        &mut self,
        now: SimTime,
        ev: NicEvent,
        mem: &mut MemPool,
        fabric: &mut Fabric,
    ) -> Vec<NicOutput> {
        match ev {
            NicEvent::Doorbell(cmd) => self.on_doorbell(now, cmd),
            NicEvent::CmdReady(cmd) => self.on_cmd_ready(now, cmd, mem, fabric),
            NicEvent::TriggerWrite(tag) => self.on_trigger_write(now, tag, DynFields::NONE),
            NicEvent::TriggerWriteDyn(tag, fields) => self.on_trigger_write(now, tag, fields),
            NicEvent::FifoDrain => self.on_fifo_drain(now, mem, fabric),
            NicEvent::DmaReadDone(op) => self.on_dma_done(now, op, mem, fabric),
            NicEvent::RxArrive(msg) => self.on_rx_arrive(now, msg, fabric),
            NicEvent::RxDone(msg) => self.on_rx_done(now, msg, mem, fabric),
            NicEvent::RetryTimer {
                target,
                seq,
                attempt,
            } => self.on_retry_timer(now, target, seq, attempt, mem, fabric),
            NicEvent::CqDrain => self.on_cq_drain(now, mem, fabric),
        }
    }

    // ---- command path ----------------------------------------------------

    fn on_doorbell(&mut self, now: SimTime, cmd: NicCommand) -> Vec<NicOutput> {
        self.stats.inc("doorbells");
        let start = now.max(self.cmd_busy);
        let ready = start + SimDuration::from_ns(self.config.cmd_process_ns);
        // Doorbell stage: command-queue wait + decode.
        self.stats.record("stage_doorbell", ready - now);
        self.cmd_busy = ready;
        vec![NicOutput::Local {
            at: ready,
            ev: NicEvent::CmdReady(cmd),
        }]
    }

    fn on_cmd_ready(
        &mut self,
        now: SimTime,
        cmd: NicCommand,
        mem: &mut MemPool,
        fabric: &mut Fabric,
    ) -> Vec<NicOutput> {
        match cmd {
            NicCommand::Put(op) => {
                self.stats.inc("posts_immediate");
                self.exec_op(now, op, mem, fabric)
            }
            NicCommand::TriggeredPut { tag, threshold, op } => {
                self.stats.inc("posts_triggered");
                let res = self.triggers.register(tag, op, threshold);
                self.sync_trigger_pressure_stats();
                match res {
                    Ok(Some(fired)) => {
                        // Relaxed sync (§3.2): counter already met the
                        // threshold when the post arrived.
                        self.stats.inc("fired_at_post");
                        self.exec_op(now, fired.op, mem, fabric)
                    }
                    Ok(None) => Vec::new(),
                    Err(e) => {
                        self.note(now, NicNote::TriggerRejected(e.clone()));
                        self.errors.push((now, e));
                        self.stats.inc("trigger_errors");
                        Vec::new()
                    }
                }
            }
        }
    }

    // ---- trigger FIFO (§3.1 step 3) ---------------------------------------

    fn on_trigger_write(&mut self, now: SimTime, tag: Tag, fields: DynFields) -> Vec<NicOutput> {
        self.stats.inc("trigger_writes");
        if !fields.is_empty() {
            self.stats.inc("trigger_writes_dyn");
        }
        self.fifo.push_back((tag, fields, now));
        if !self.fifo_draining {
            self.fifo_draining = true;
            let cost = self.head_match_cost();
            vec![NicOutput::Local {
                at: now + cost,
                ev: NicEvent::FifoDrain,
            }]
        } else {
            Vec::new()
        }
    }

    /// Match cost for the FIFO head: the lookup cost plus the descriptor
    /// parse surcharge when the head is a dynamic write, plus the
    /// host-memory walk surcharge when the tag resolves to the overflow
    /// (spill) table rather than the CAM.
    fn head_match_cost(&self) -> SimDuration {
        let mut cost = self.triggers.match_cost();
        if let Some((tag, fields, _)) = self.fifo.front() {
            if !fields.is_empty() {
                cost += SimDuration::from_ns(self.config.dyn_match_extra_ns);
            }
            if self.triggers.resolves_to_overflow(*tag) {
                cost += SimDuration::from_ns(self.config.spill_match_extra_ns);
            }
        }
        cost
    }

    /// Fold new trigger-list spill/promotion activity into the stat set.
    /// Counters appear only once the first spill happens, so unpressured
    /// runs keep their exact stat schema.
    fn sync_trigger_pressure_stats(&mut self) {
        let spills = self.triggers.spills();
        if spills > self.spills_synced {
            self.stats
                .add("trigger_spills", spills - self.spills_synced);
            self.spills_synced = spills;
        }
        let promotions = self.triggers.promotions();
        if promotions > self.promotions_synced {
            self.stats
                .add("trigger_promotions", promotions - self.promotions_synced);
            self.promotions_synced = promotions;
        }
        let shed = self.triggers.admission_shed();
        if shed > self.shed_synced {
            self.stats.add("admission_shed", shed - self.shed_synced);
            self.shed_synced = shed;
        }
    }

    fn on_fifo_drain(
        &mut self,
        now: SimTime,
        mem: &mut MemPool,
        fabric: &mut Fabric,
    ) -> Vec<NicOutput> {
        let Some((tag, fields, enqueued)) = self.fifo.pop_front() else {
            self.fifo_draining = false;
            return Vec::new();
        };
        // Trigger-match stage: FIFO queueing + list lookup for this tag.
        self.stats.record("stage_trigger_match", now - enqueued);
        let res = self.triggers.trigger_dyn(tag, fields);
        self.sync_trigger_pressure_stats();
        let mut out = match res {
            Ok(Some(fired)) => {
                self.stats.inc("fired_at_trigger");
                self.exec_op(now, fired.op, mem, fabric)
            }
            Ok(None) => Vec::new(),
            Err(e) => {
                self.note(now, NicNote::TriggerRejected(e.clone()));
                self.errors.push((now, e));
                self.stats.inc("trigger_errors");
                Vec::new()
            }
        };
        if self.fifo.is_empty() {
            self.fifo_draining = false;
        } else {
            let cost = self.head_match_cost();
            out.push(NicOutput::Local {
                at: now + cost,
                ev: NicEvent::FifoDrain,
            });
        }
        out
    }

    // ---- initiator side ---------------------------------------------------

    /// Begin executing a network operation (§3.1 step 4).
    fn exec_op(
        &mut self,
        now: SimTime,
        op: NetOp,
        mem: &mut MemPool,
        fabric: &mut Fabric,
    ) -> Vec<NicOutput> {
        match op {
            put @ NetOp::Put { .. } => {
                let id = OpId(self.next_op);
                self.next_op += 1;
                let len = put.len();
                self.inflight.insert(
                    id.0,
                    InFlight {
                        op: put,
                        started: now,
                    },
                );
                // Serial DMA engine.
                let start = now.max(self.dma_busy);
                let done = start
                    + SimDuration::from_ns(self.config.dma_setup_ns)
                    + SimDuration::for_bytes_at_gbps(len, self.config.dma_gbps * 8.0);
                self.dma_busy = done;
                let _ = mem; // bytes are snapshotted at DMA completion
                vec![NicOutput::Local {
                    at: done,
                    ev: NicEvent::DmaReadDone(id),
                }]
            }
            NetOp::Get {
                src,
                len,
                target,
                dst,
                completion,
            } => {
                self.stats.inc("gets_sent");
                // A get request is a small control message; payload flows
                // back as a put from the target.
                let msg = RxMessage {
                    origin: self.node,
                    injected_at: now,
                    seq: None,
                    kind: RxKind::GetRequest {
                        src,
                        len,
                        reply_dst: dst,
                        reply_notify: completion.map(|flag| Notify {
                            flag,
                            add: 1,
                            chain: None,
                        }),
                    },
                };
                self.send_remote(now, target, 16, msg, fabric)
            }
        }
    }

    /// Ship a non-loopback message to `target`, through the ARQ layer when
    /// it is enabled (sequence number, fault judgement, retry timer); the
    /// lossless path is the seed model's, unchanged.
    fn send_remote(
        &mut self,
        now: SimTime,
        target: NodeId,
        bytes: u64,
        msg: RxMessage,
        fabric: &mut Fabric,
    ) -> Vec<NicOutput> {
        if !self.rel.enabled() {
            let timing = fabric.send_message(now, self.node, target, bytes);
            return vec![NicOutput::Remote {
                node: target,
                at: timing.last_arrival,
                ev: NicEvent::RxArrive(msg),
            }];
        }
        let queued = self
            .flow_queue
            .get(&target.0)
            .is_some_and(|q| !q.is_empty());
        if queued || !self.rel.may_send(target) {
            // Zero credit toward this target (or older sends already
            // waiting): stall the send until an ACK restores the grant.
            // Sequence numbers are allocated at transmit time, so the
            // queue's FIFO order keeps each pair's sequence space dense.
            self.stats.inc("credit_stalls");
            self.flow_queue
                .entry(target.0)
                .or_default()
                .push_back((bytes, msg));
            return Vec::new();
        }
        self.send_tracked_now(now, target, bytes, msg, fabric)
    }

    /// Allocate a sequence, hold for retransmission (consuming one credit
    /// grant), transmit, and arm the retry timer.
    fn send_tracked_now(
        &mut self,
        now: SimTime,
        target: NodeId,
        bytes: u64,
        mut msg: RxMessage,
        fabric: &mut Fabric,
    ) -> Vec<NicOutput> {
        let seq = self.rel.alloc_seq(target);
        msg.seq = Some(seq);
        self.rel.hold(seq, target, bytes, msg.clone());
        let mut out = self.transmit_tracked(now, target, bytes, msg, fabric);
        out.push(NicOutput::Local {
            at: now + self.config.reliability.rto(1, bytes),
            ev: NicEvent::RetryTimer {
                target,
                seq,
                attempt: 1,
            },
        });
        out
    }

    /// Transmit queued sends toward `target` while credit lasts.
    fn drain_flow_queue(
        &mut self,
        now: SimTime,
        target: NodeId,
        fabric: &mut Fabric,
    ) -> Vec<NicOutput> {
        let mut out = Vec::new();
        while self.rel.may_send(target) {
            let Some((bytes, msg)) = self
                .flow_queue
                .get_mut(&target.0)
                .and_then(VecDeque::pop_front)
            else {
                break;
            };
            self.stats.inc("credit_resumes");
            out.extend(self.send_tracked_now(now, target, bytes, msg, fabric));
        }
        if self
            .flow_queue
            .get(&target.0)
            .is_some_and(VecDeque::is_empty)
        {
            self.flow_queue.remove(&target.0);
        }
        out
    }

    /// One wire attempt of a tracked message: charge the fabric, judge the
    /// fault plan, and schedule the arrival (or not).
    fn transmit_tracked(
        &mut self,
        now: SimTime,
        target: NodeId,
        bytes: u64,
        mut msg: RxMessage,
        fabric: &mut Fabric,
    ) -> Vec<NicOutput> {
        let (timing, verdict) = fabric.send_message_faulty(now, self.node, target, bytes);
        msg.injected_at = now; // each attempt re-stamps its wire-stage start
        let seq = msg.seq.expect("tracked messages carry a sequence");
        if verdict == Delivery::Dropped {
            self.stats.inc("tx_dropped");
            self.note(now, NicNote::MessageDropped { seq, target });
            return Vec::new();
        }
        vec![NicOutput::Remote {
            node: target,
            at: timing.last_arrival,
            ev: NicEvent::RxArrive(msg),
        }]
    }

    /// Acknowledge sequence `seq` back to `to`, advertising the
    /// reorder-buffer credits left for that origin. ACKs are
    /// fire-and-forget: a lost ACK just means the origin retransmits and
    /// we re-ACK.
    fn send_ack(
        &mut self,
        now: SimTime,
        to: NodeId,
        seq: u64,
        fabric: &mut Fabric,
    ) -> Vec<NicOutput> {
        let bytes = self.config.reliability.ack_bytes;
        let credits = self.rel.rx_credits(to);
        let (timing, verdict) = fabric.send_message_faulty(now, self.node, to, bytes);
        self.stats.inc("acks_tx");
        if verdict != Delivery::Delivered {
            self.stats.inc("acks_lost");
            return Vec::new();
        }
        vec![NicOutput::Remote {
            node: to,
            at: timing.last_arrival,
            ev: NicEvent::RxArrive(RxMessage {
                origin: self.node,
                injected_at: now,
                seq: None,
                kind: RxKind::Ack { seq, credits },
            }),
        }]
    }

    fn on_retry_timer(
        &mut self,
        now: SimTime,
        target: NodeId,
        seq: u64,
        attempt: u32,
        mem: &mut MemPool,
        fabric: &mut Fabric,
    ) -> Vec<NicOutput> {
        let decision = match self.rel.timer_fired(now, target, seq, attempt) {
            TimerVerdict::Stale => return Vec::new(),
            TimerVerdict::Retransmit(p) => Ok((p.target, p.bytes, p.msg.clone(), p.attempts)),
            TimerVerdict::Exhausted(f) => Err(f),
        };
        match decision {
            Ok((target, bytes, msg, attempts)) => {
                self.stats.inc("timeouts");
                self.stats.inc("retransmits");
                self.note(
                    now,
                    NicNote::Retransmitted {
                        seq,
                        attempt: attempts,
                        target,
                    },
                );
                let mut out = self.transmit_tracked(now, target, bytes, msg, fabric);
                out.push(NicOutput::Local {
                    at: now + self.config.reliability.rto(attempts, bytes),
                    ev: NicEvent::RetryTimer {
                        target,
                        seq,
                        attempt: attempts,
                    },
                });
                out
            }
            Err(failure) => {
                self.stats.inc("exhausted_retries");
                let mut out = self.cq_push(CqKind::Error, failure.seq, failure.bytes, now, mem);
                self.note(
                    now,
                    NicNote::DeliveryFailed {
                        seq,
                        target: failure.target,
                        attempts: failure.attempts,
                        cause: failure.cause,
                    },
                );
                // The dead message's credit grant will never be refreshed
                // by an ACK; release it so queued sends keep draining.
                self.rel.release_grant(failure.target);
                out.extend(self.drain_flow_queue(now, failure.target, fabric));
                out
            }
        }
    }

    /// The cluster's failure detector declared `peer` dead: abandon every
    /// pending (unACKed) message toward it immediately — each surfaces as a
    /// [`CqKind::Error`] entry and a [`NicNote::DeliveryFailed`] with cause
    /// [`DeliveryCause::PeerDead`] — instead of burning the remaining retry
    /// budget against a corpse. Credit grants toward the peer are released
    /// so unrelated queued work cannot wedge behind it. `culprit` is the
    /// injected component the detector blamed (stamped onto every
    /// failure). Idempotent: with nothing pending toward `peer` this does
    /// nothing.
    pub fn mark_peer_dead(
        &mut self,
        now: SimTime,
        peer: NodeId,
        culprit: Option<gtn_fabric::CrashComponent>,
        mem: &mut MemPool,
    ) -> Vec<NicOutput> {
        let failures = self.rel.fail_peer_dead(peer, now, culprit);
        let mut out = Vec::new();
        for f in &failures {
            self.stats.inc("peer_dead_failures");
            out.extend(self.cq_push(CqKind::Error, f.seq, f.bytes, now, mem));
            self.note(
                now,
                NicNote::DeliveryFailed {
                    seq: f.seq,
                    target: f.target,
                    attempts: f.attempts,
                    cause: f.cause,
                },
            );
            self.rel.release_grant(f.target);
        }
        out
    }

    // ---- completion queue (bounded discipline) ----------------------------

    /// True when the bounded CQ cannot accept another commit right now —
    /// either the ring is full or older commits are already parked
    /// (ordering). Always false with an unbounded (or absent) CQ.
    fn cq_blocked(&self, mem: &MemPool) -> bool {
        if self.config.cq_capacity.is_none() {
            return false;
        }
        let Some(cq) = self.cq else { return false };
        !self.cq_waiting.is_empty() || cq.depth(mem) >= cq.capacity
    }

    /// Record a completion. Unbounded CQs push unconditionally (the seed
    /// discipline: overwrite on overrun, detected by the consumer).
    /// Bounded CQs never overwrite: entries that find the ring full go to
    /// a backlog flushed by the drain consumer. May return a scheduled
    /// [`NicEvent::CqDrain`].
    fn cq_push(
        &mut self,
        kind: CqKind,
        tag: u64,
        bytes: u64,
        now: SimTime,
        mem: &mut MemPool,
    ) -> Vec<NicOutput> {
        let Some(cq) = self.cq else {
            return Vec::new();
        };
        if self.config.cq_capacity.is_none() {
            cq.push(mem, kind, tag, bytes, now);
            self.stats.inc("cq_entries");
            return Vec::new();
        }
        if cq.try_push(mem, kind, tag, bytes, now).is_some() {
            self.stats.inc("cq_entries");
        } else {
            self.stats.inc("cq_stalls");
            self.cq_backlog.push_back((now, kind, tag, bytes));
        }
        self.maybe_schedule_cq_drain(now).into_iter().collect()
    }

    /// Arm the modeled host consumer if the bounded CQ has work and no
    /// drain is already scheduled. `cq_drain_ns == 0` models a consumer
    /// that never drains: the ring stays full and the run ends in a
    /// resource-starvation stall.
    fn maybe_schedule_cq_drain(&mut self, now: SimTime) -> Option<NicOutput> {
        if self.cq_drain_scheduled
            || self.config.cq_drain_ns == 0
            || self.config.cq_capacity.is_none()
            || self.cq.is_none()
        {
            return None;
        }
        self.cq_drain_scheduled = true;
        Some(NicOutput::Local {
            at: now + SimDuration::from_ns(self.config.cq_drain_ns),
            ev: NicEvent::CqDrain,
        })
    }

    /// The modeled host consumer retires one CQ entry, then the freed
    /// slots are refilled from the entry backlog and parked commits, in
    /// that (FIFO) order.
    fn on_cq_drain(
        &mut self,
        now: SimTime,
        mem: &mut MemPool,
        fabric: &mut Fabric,
    ) -> Vec<NicOutput> {
        self.cq_drain_scheduled = false;
        let Some(cq) = self.cq else {
            return Vec::new();
        };
        let mut out = Vec::new();
        if cq.depth(mem) > 0 {
            cq.consume_to(mem, cq.consumed(mem) + 1);
            self.stats.inc("cq_drained");
        }
        while cq.depth(mem) < cq.capacity {
            let Some((at, kind, tag, bytes)) = self.cq_backlog.pop_front() else {
                break;
            };
            cq.try_push(mem, kind, tag, bytes, at)
                .expect("slot free: depth checked");
            self.stats.inc("cq_entries");
        }
        while cq.depth(mem) < cq.capacity && self.cq_backlog.is_empty() {
            let Some((parked_at, msg)) = self.cq_waiting.pop_front() else {
                break;
            };
            let waited = now - parked_at;
            self.stats.record("stage_cq_stall", waited);
            self.note(now, NicNote::CqStalled { waited });
            out.extend(self.commit_rx(now, msg, mem, fabric));
        }
        if cq.depth(mem) > 0 || !self.cq_backlog.is_empty() || !self.cq_waiting.is_empty() {
            out.extend(self.maybe_schedule_cq_drain(now));
        }
        out
    }

    fn on_dma_done(
        &mut self,
        now: SimTime,
        id: OpId,
        mem: &mut MemPool,
        fabric: &mut Fabric,
    ) -> Vec<NicOutput> {
        let inflight = self
            .inflight
            .remove(&id.0)
            .unwrap_or_else(|| panic!("unknown in-flight op {id:?}"));
        // Injection stage: DMA-engine wait + setup + payload read.
        self.stats.record("stage_injection", now - inflight.started);
        let NetOp::Put {
            src,
            len,
            target,
            dst,
            notify,
            completion,
        } = inflight.op
        else {
            unreachable!("only puts enter the DMA engine");
        };
        // Snapshot the payload: from here on the app may reuse the buffer.
        let payload = Bytes::copy_from_slice(mem.read(src, len));
        if let Some(flag) = completion {
            // Local completion (§4.2.4): the send buffer is reusable.
            mem.fetch_add_u64(flag, 1);
            self.stats.inc("local_completions");
        }
        let mut pre = self.cq_push(CqKind::SendComplete, 0, len, now, mem);
        self.stats.inc("puts_injected");
        self.stats.add("bytes_tx", len);
        let msg = RxMessage {
            origin: self.node,
            injected_at: now,
            seq: None,
            kind: RxKind::Put {
                dst,
                payload,
                notify,
            },
        };
        if target == self.node {
            // Loopback never crosses the fabric and never faults.
            let timing = fabric.send_message(now, self.node, target, len);
            pre.push(NicOutput::Local {
                at: timing.last_arrival,
                ev: NicEvent::RxArrive(msg),
            });
        } else {
            pre.extend(self.send_remote(now, target, len, msg, fabric));
        }
        pre
    }

    // ---- target side ------------------------------------------------------

    fn on_rx_arrive(
        &mut self,
        now: SimTime,
        msg: RxMessage,
        fabric: &mut Fabric,
    ) -> Vec<NicOutput> {
        if let RxKind::Ack { seq, credits } = msg.kind {
            // Sender side: retire the pending message. The ACK's origin is
            // the node that committed it — the key into our per-target
            // sequence space. Stale ACKs (already retired by an earlier
            // duplicate's ACK) are harmless.
            if self.rel.ack(msg.origin, seq) {
                self.stats.inc("acks_rx");
            } else {
                self.stats.inc("acks_stale");
            }
            // Flow control: refresh this target's grant from the
            // advertised credits and resume any credit-stalled sends.
            self.rel.refresh_grant(msg.origin, credits);
            return self.drain_flow_queue(now, msg.origin, fabric);
        }
        self.stats.inc("rx_messages");
        // Wire stage: injection on the origin to last-packet arrival here.
        self.stats.record("stage_wire", now - msg.injected_at);
        let payload_len = match &msg.kind {
            RxKind::Put { payload, .. } => payload.len() as u64,
            RxKind::GetRequest { .. } => 0,
            RxKind::Ack { .. } => unreachable!("ACKs are handled above"),
        };
        // Payload commit cost: fixed processing plus the memory-write time.
        let done = now
            + SimDuration::from_ns(self.config.rx_process_ns)
            + SimDuration::for_bytes_at_gbps(payload_len, self.config.dma_gbps * 8.0);
        // Commit stage: receive processing + payload write to memory.
        self.stats.record("stage_commit", done - now);
        vec![NicOutput::Local {
            at: done,
            ev: NicEvent::RxDone(msg),
        }]
    }

    fn on_rx_done(
        &mut self,
        now: SimTime,
        msg: RxMessage,
        mem: &mut MemPool,
        fabric: &mut Fabric,
    ) -> Vec<NicOutput> {
        let mut outputs = Vec::new();
        if let Some(seq) = msg.seq {
            // ACK every accepted arrival — a duplicate means the origin
            // missed the first ACK — but commit strictly in per-origin
            // sequence order, so a retransmit that lands late can never
            // clobber fresher data or fire a notify for the wrong payload.
            // Shed arrivals (beyond the flow-control window) are the one
            // exception: no ACK, so the origin retransmits them later.
            let origin = msg.origin;
            let verdict = self.rel.accept(origin, seq, msg);
            if verdict == Accept::Shed {
                self.stats.inc("rx_shed");
                return outputs;
            }
            outputs.extend(self.send_ack(now, origin, seq, fabric));
            match verdict {
                Accept::Duplicate => {
                    // The payload was already committed (or is already
                    // parked) and any notify / chained trigger already ran
                    // or will run exactly once. Trigger entries are
                    // one-shot (§3.1): a retransmit replays the wire
                    // operation, never the trigger match.
                    self.stats.inc("rx_duplicates");
                }
                Accept::Held => {
                    // Ahead of the expected sequence: parked until the gap
                    // fills. The origin's retry timer is re-sending the
                    // missing message.
                    self.stats.inc("rx_held");
                }
                Accept::Deliver(run) => {
                    for m in run {
                        let out = self.commit_or_park(now, m, mem, fabric);
                        outputs.extend(out);
                    }
                }
                Accept::Shed => unreachable!("handled above"),
            }
            return outputs;
        }
        outputs.extend(self.commit_or_park(now, msg, mem, fabric));
        outputs
    }

    /// Commit a received message unless the bounded CQ is full, in which
    /// case the commit parks (the `cq_stall` stage) until the consumer
    /// frees a slot.
    fn commit_or_park(
        &mut self,
        now: SimTime,
        msg: RxMessage,
        mem: &mut MemPool,
        fabric: &mut Fabric,
    ) -> Vec<NicOutput> {
        if self.cq_blocked(mem) {
            self.stats.inc("cq_stalls");
            self.cq_waiting.push_back((now, msg));
            return self.maybe_schedule_cq_drain(now).into_iter().collect();
        }
        self.commit_rx(now, msg, mem, fabric)
    }

    /// Commit one received message's effects: payload write, CQ entry,
    /// notify flag, chained trigger, or get service.
    fn commit_rx(
        &mut self,
        now: SimTime,
        msg: RxMessage,
        mem: &mut MemPool,
        fabric: &mut Fabric,
    ) -> Vec<NicOutput> {
        match msg.kind {
            RxKind::Put {
                dst,
                payload,
                notify,
            } => {
                self.stats.add("bytes_rx", payload.len() as u64);
                mem.write(dst, &payload);
                let mut out = self.cq_push(CqKind::RecvComplete, 0, payload.len() as u64, now, mem);
                if let Some(n) = notify {
                    // Flag is written flag_write_ns later, but the value must
                    // be visible when any poller at that instant reads it;
                    // commit now and account the cost in stats only.
                    mem.fetch_add_u64(n.flag, n.add);
                    self.stats.inc("notifies");
                    if let Some(tag) = n.chain {
                        // Portals-4 counter chaining ([40]): the arrival
                        // itself progresses this NIC's trigger list — no
                        // CPU, no GPU, no kernel boundary.
                        self.stats.inc("chained_triggers");
                        out.push(NicOutput::Local {
                            at: now + SimDuration::from_ns(self.config.flag_write_ns),
                            ev: NicEvent::TriggerWrite(tag),
                        });
                    }
                }
                out
            }
            RxKind::GetRequest {
                src,
                len,
                reply_dst,
                reply_notify,
            } => {
                self.stats.inc("gets_served");
                // Serve the get: put the requested bytes back to the origin.
                let reply = NetOp::Put {
                    src,
                    len,
                    target: msg.origin,
                    dst: reply_dst,
                    notify: reply_notify,
                    completion: None,
                };
                self.exec_op(now, reply, mem, fabric)
            }
            RxKind::Ack { .. } => unreachable!("ACKs never reach RxDone"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtn_fabric::FabricConfig;
    use gtn_sim::Engine;

    /// Minimal two-node harness: routes NIC outputs through a real engine.
    struct Harness {
        nics: Vec<Nic>,
        mem: MemPool,
        fabric: Fabric,
        engine: Engine<(usize, NicEvent)>,
    }

    impl Harness {
        fn new(n: usize) -> Self {
            Self::new_with(n, NicConfig::default(), FabricConfig::default())
        }

        /// Harness with explicit configs (reliability / fault-injection
        /// tests).
        fn new_with(n: usize, nic: NicConfig, fabric: FabricConfig) -> Self {
            Harness {
                nics: (0..n)
                    .map(|i| Nic::new(NodeId(i as u32), nic.clone()))
                    .collect(),
                mem: MemPool::new(n),
                fabric: Fabric::new(n, fabric),
                engine: Engine::new(),
            }
        }

        fn doorbell(&mut self, node: usize, cmd: NicCommand) {
            let d = self.nics[node].doorbell_delay();
            self.engine
                .schedule_after(d, (node, NicEvent::Doorbell(cmd)));
        }

        fn trigger(&mut self, node: usize, tag: Tag) {
            let d = self.nics[node].trigger_route_delay();
            self.engine
                .schedule_after(d, (node, NicEvent::TriggerWrite(tag)));
        }

        fn run(&mut self) -> SimTime {
            let nics = &mut self.nics;
            let mem = &mut self.mem;
            let fabric = &mut self.fabric;
            self.engine.run(|eng, (node, ev)| {
                for out in nics[node].handle(eng.now(), ev, mem, fabric) {
                    match out {
                        NicOutput::Local { at, ev } => eng.schedule_at(at, (node, ev)),
                        NicOutput::Remote { node, at, ev } => {
                            eng.schedule_at(at, (node.index(), ev))
                        }
                    }
                }
            });
            self.engine.now()
        }
    }

    fn put(h: &mut Harness, len: u64) -> (Addr, Addr, Addr, Addr) {
        let src = Addr::base(NodeId(0), h.mem.alloc(NodeId(0), len.max(8), "src"));
        let dst = Addr::base(NodeId(1), h.mem.alloc(NodeId(1), len.max(8), "dst"));
        let comp = Addr::base(NodeId(0), h.mem.alloc(NodeId(0), 8, "comp"));
        let flag = Addr::base(NodeId(1), h.mem.alloc(NodeId(1), 8, "flag"));
        (src, dst, comp, flag)
    }

    fn put_op(src: Addr, dst: Addr, len: u64, comp: Addr, flag: Addr) -> NetOp {
        NetOp::Put {
            src,
            len,
            target: NodeId(1),
            dst,
            notify: Some(Notify {
                flag,
                add: 1,
                chain: None,
            }),
            completion: Some(comp),
        }
    }

    #[test]
    fn immediate_put_delivers_payload_and_flags() {
        let mut h = Harness::new(2);
        let (src, dst, comp, flag) = put(&mut h, 64);
        h.mem.write(src, &[0xAB; 64]);
        h.doorbell(0, NicCommand::Put(put_op(src, dst, 64, comp, flag)));
        let end = h.run();
        assert_eq!(h.mem.read(dst, 64), &[0xAB; 64]);
        assert_eq!(h.mem.read_u64(flag), 1, "target notify");
        assert_eq!(h.mem.read_u64(comp), 1, "local completion");
        // Sanity on the latency scale: sub-microsecond for 64 B.
        assert!(end < SimTime::from_us(2), "end {end}");
        assert!(end > SimTime::from_ns(500), "end {end}");
        assert_eq!(h.nics[1].stats().counter("rx_messages"), 1);
        assert_eq!(h.nics[0].stats().counter("puts_injected"), 1);
    }

    #[test]
    fn triggered_put_waits_for_tag_write() {
        let mut h = Harness::new(2);
        let (src, dst, comp, flag) = put(&mut h, 64);
        h.mem.write(src, &[7; 64]);
        h.doorbell(
            0,
            NicCommand::TriggeredPut {
                tag: Tag(3),
                threshold: 1,
                op: put_op(src, dst, 64, comp, flag),
            },
        );
        // Run with no trigger: nothing must be delivered.
        h.run();
        assert_eq!(h.mem.read_u64(flag), 0);
        assert_eq!(h.nics[0].triggers().active(), 1);
        // Now the GPU writes the tag.
        h.trigger(0, Tag(3));
        h.run();
        assert_eq!(h.mem.read(dst, 64), &[7; 64]);
        assert_eq!(h.mem.read_u64(flag), 1);
        assert_eq!(h.nics[0].stats().counter("fired_at_trigger"), 1);
        assert!(h.nics[0].errors().is_empty());
    }

    #[test]
    fn stage_histograms_cover_the_message_pipeline() {
        let mut h = Harness::new(2);
        let (src, dst, comp, flag) = put(&mut h, 64);
        h.mem.write(src, &[1; 64]);
        h.doorbell(
            0,
            NicCommand::TriggeredPut {
                tag: Tag(7),
                threshold: 1,
                op: put_op(src, dst, 64, comp, flag),
            },
        );
        h.run();
        h.trigger(0, Tag(7));
        h.run();
        // Initiator-side stages.
        for stage in ["stage_doorbell", "stage_trigger_match", "stage_injection"] {
            let hist = h.nics[0]
                .stats()
                .histogram(stage)
                .unwrap_or_else(|| panic!("missing {stage}"));
            assert_eq!(hist.count(), 1, "{stage}");
        }
        // Target-side stages.
        for stage in ["stage_wire", "stage_commit"] {
            let hist = h.nics[1]
                .stats()
                .histogram(stage)
                .unwrap_or_else(|| panic!("missing {stage}"));
            assert_eq!(hist.count(), 1, "{stage}");
            assert!(hist.mean().as_ps() > 0, "{stage} must have real latency");
        }
        // The wire stage is bounded below by the fabric's base latency.
        let wire = h.nics[1].stats().histogram("stage_wire").unwrap();
        assert!(
            wire.mean() >= SimDuration::from_ns(100),
            "{:?}",
            wire.mean()
        );
    }

    #[test]
    fn retransmit_restamps_wire_stage_per_attempt() {
        // With loss, the delivered attempt's wire time must be measured
        // from ITS injection, not the first attempt's — so the wire-stage
        // mean stays at the one-attempt scale even after retries.
        let mut h = Harness::new_with(2, reliable_nic(8), lossy_fabric(12, 0.4));
        let (src, dst, comp, flag) = put(&mut h, 64);
        h.mem.write(src, &[2; 64]);
        h.doorbell(0, NicCommand::Put(put_op(src, dst, 64, comp, flag)));
        h.run();
        assert_eq!(h.mem.read_u64(flag), 1);
        assert!(
            h.nics[0].stats().counter("retransmits") > 0,
            "loss must retry"
        );
        let wire = h.nics[1]
            .stats()
            .histogram("stage_wire")
            .expect("wire stage");
        // One-attempt wire time is well under 10us; a first-attempt stamp
        // would include the >=2us RTO backoff.
        assert!(wire.max() < SimDuration::from_us(2), "{:?}", wire.max());
    }

    #[test]
    fn relaxed_sync_trigger_first_post_later() {
        let mut h = Harness::new(2);
        let (src, dst, comp, flag) = put(&mut h, 32);
        h.mem.write(src, &[1; 32]);
        // GPU triggers before the CPU post (§3.2).
        h.trigger(0, Tag(10));
        h.run();
        assert_eq!(h.nics[0].triggers().early_allocations(), 1);
        h.doorbell(
            0,
            NicCommand::TriggeredPut {
                tag: Tag(10),
                threshold: 1,
                op: put_op(src, dst, 32, comp, flag),
            },
        );
        h.run();
        assert_eq!(h.mem.read_u64(flag), 1);
        assert_eq!(h.nics[0].stats().counter("fired_at_post"), 1);
    }

    #[test]
    fn threshold_counts_across_many_trigger_writes() {
        let mut h = Harness::new(2);
        let (src, dst, comp, flag) = put(&mut h, 16);
        h.doorbell(
            0,
            NicCommand::TriggeredPut {
                tag: Tag(0),
                threshold: 8,
                op: put_op(src, dst, 16, comp, flag),
            },
        );
        h.run();
        for _ in 0..7 {
            h.trigger(0, Tag(0));
        }
        h.run();
        assert_eq!(h.mem.read_u64(flag), 0, "7 of 8 writes: not yet");
        h.trigger(0, Tag(0));
        h.run();
        assert_eq!(h.mem.read_u64(flag), 1);
    }

    #[test]
    fn send_buffer_snapshot_makes_local_completion_safe() {
        let mut h = Harness::new(2);
        let (src, dst, comp, flag) = put(&mut h, 64);
        h.mem.write(src, &[0x11; 64]);
        h.doorbell(0, NicCommand::Put(put_op(src, dst, 64, comp, flag)));
        // Drive until local completion, then trash the buffer before
        // delivery completes.
        let mem_comp = comp;
        let nics = &mut h.nics;
        let mem = &mut h.mem;
        let fabric = &mut h.fabric;
        let mut trashed = false;
        h.engine.run(|eng, (node, ev)| {
            for out in nics[node].handle(eng.now(), ev, mem, fabric) {
                match out {
                    NicOutput::Local { at, ev } => eng.schedule_at(at, (node, ev)),
                    NicOutput::Remote { node, at, ev } => eng.schedule_at(at, (node.index(), ev)),
                }
            }
            if !trashed && mem.read_u64(mem_comp) == 1 {
                mem.write(src, &[0xFF; 64]);
                trashed = true;
            }
        });
        assert!(trashed, "local completion observed");
        assert_eq!(h.mem.read(dst, 64), &[0x11; 64], "snapshot, not live read");
    }

    #[test]
    fn get_round_trip_fetches_remote_bytes() {
        let mut h = Harness::new(2);
        let remote = Addr::base(NodeId(1), h.mem.alloc(NodeId(1), 64, "remote"));
        let local = Addr::base(NodeId(0), h.mem.alloc(NodeId(0), 64, "local"));
        let comp = Addr::base(NodeId(0), h.mem.alloc(NodeId(0), 8, "comp"));
        h.mem.write(remote, &[0x5A; 64]);
        h.doorbell(
            0,
            NicCommand::Put(NetOp::Get {
                src: remote,
                len: 64,
                target: NodeId(1),
                dst: local,
                completion: Some(comp),
            }),
        );
        h.run();
        assert_eq!(h.mem.read(local, 64), &[0x5A; 64]);
        assert_eq!(h.mem.read_u64(comp), 1);
        assert_eq!(h.nics[1].stats().counter("gets_served"), 1);
    }

    #[test]
    fn fifo_storm_drains_in_order_and_completely() {
        let mut h = Harness::new(2);
        let (src, dst, comp, flag) = put(&mut h, 8);
        h.doorbell(
            0,
            NicCommand::TriggeredPut {
                tag: Tag(0),
                threshold: 64,
                op: put_op(src, dst, 8, comp, flag),
            },
        );
        h.run();
        // 64 near-simultaneous writes (a wavefront's worth).
        for _ in 0..64 {
            h.trigger(0, Tag(0));
        }
        h.run();
        assert_eq!(h.mem.read_u64(flag), 1);
        assert_eq!(h.nics[0].stats().counter("trigger_writes"), 64);
        assert!(h.nics[0].errors().is_empty());
    }

    #[test]
    fn capacity_overflow_spills_to_host_memory_not_error() {
        let mut h = Harness::new(2);
        h.nics[0] = Nic::new(
            NodeId(0),
            NicConfig {
                lookup: crate::lookup::LookupKind::Associative { ways: 2 },
                ..NicConfig::default()
            },
        );
        // Three early triggers with distinct tags: the third exceeds the
        // CAM and spills to the host-memory overflow table — no error.
        h.trigger(0, Tag(1));
        h.trigger(0, Tag(2));
        h.trigger(0, Tag(3));
        h.run();
        assert!(h.nics[0].errors().is_empty());
        assert_eq!(h.nics[0].stats().counter("trigger_errors"), 0);
        assert_eq!(h.nics[0].stats().counter("trigger_spills"), 1);
        assert_eq!(h.nics[0].triggers().overflow_len(), 1);
        // The spilled entry still matches; a post over it fires normally
        // and the retirement path keeps promotion counters in sync.
        let (src, dst, comp, flag) = put(&mut h, 16);
        h.mem.write(src, &[8; 16]);
        h.doorbell(
            0,
            NicCommand::TriggeredPut {
                tag: Tag(1),
                threshold: 1,
                op: put_op(src, dst, 16, comp, flag),
            },
        );
        h.run();
        assert_eq!(h.mem.read_u64(flag), 1);
        assert_eq!(h.nics[0].stats().counter("trigger_promotions"), 1);
    }

    #[test]
    fn exhausted_cam_and_overflow_is_recorded_not_fatal() {
        let mut h = Harness::new(2);
        h.nics[0] = Nic::new(
            NodeId(0),
            NicConfig {
                lookup: crate::lookup::LookupKind::Associative { ways: 1 },
                trigger_overflow_capacity: 1,
                ..NicConfig::default()
            },
        );
        h.trigger(0, Tag(1));
        h.trigger(0, Tag(2)); // spills
        h.trigger(0, Tag(3)); // both tiers full: rejected
        h.run();
        assert_eq!(h.nics[0].errors().len(), 1);
        assert_eq!(h.nics[0].stats().counter("trigger_errors"), 1);
    }

    fn bounded_cq_nic(capacity: u64, drain_ns: u64) -> NicConfig {
        NicConfig {
            cq_capacity: Some(capacity),
            cq_drain_ns: drain_ns,
            ..NicConfig::default()
        }
    }

    #[test]
    fn bounded_cq_backpressure_parks_commits_and_recovers() {
        // A 1-slot CQ on the receiver with a slow consumer: a burst of
        // puts must all still deliver (commits park instead of
        // overwriting), with the stall accounted.
        let mut h = Harness::new(2);
        h.nics[1] = Nic::new(NodeId(1), bounded_cq_nic(1, 400));
        let cq = CqDesc::alloc(&mut h.mem, NodeId(1), 1);
        h.nics[1].attach_cq(cq);
        let (src, dst, comp, flag) = put(&mut h, 32);
        h.mem.write(src, &[6; 32]);
        for _ in 0..4 {
            h.doorbell(0, NicCommand::Put(put_op(src, dst, 32, comp, flag)));
        }
        h.run();
        assert_eq!(h.mem.read_u64(flag), 4, "every put commits eventually");
        assert!(
            h.nics[1].stats().counter("cq_stalls") > 0,
            "a 1-slot ring under a 4-put burst must stall"
        );
        assert_eq!(h.nics[1].cq_parked(), 0, "drained clean at quiescence");
        let stall = h.nics[1]
            .stats()
            .histogram("stage_cq_stall")
            .expect("stall stage recorded");
        assert!(stall.mean().as_ps() > 0);
    }

    #[test]
    fn starved_cq_consumer_parks_forever_without_panicking() {
        // cq_drain_ns = 0 models a consumer that never drains: commits
        // park permanently and the run ends quiescent (the cluster layer
        // classifies this as resource starvation) — but nothing panics
        // and nothing is overwritten.
        let mut h = Harness::new(2);
        h.nics[1] = Nic::new(NodeId(1), bounded_cq_nic(1, 0));
        let cq = CqDesc::alloc(&mut h.mem, NodeId(1), 1);
        h.nics[1].attach_cq(cq);
        let (src, dst, comp, flag) = put(&mut h, 32);
        h.mem.write(src, &[6; 32]);
        for _ in 0..3 {
            h.doorbell(0, NicCommand::Put(put_op(src, dst, 32, comp, flag)));
        }
        h.run();
        assert_eq!(h.mem.read_u64(flag), 1, "only the first commit fit");
        assert_eq!(h.nics[1].cq_parked(), 2, "the rest are parked, not lost");
        assert_eq!(cq.head(&h.mem), 1, "never overwritten");
    }

    #[test]
    fn zero_credit_sends_queue_and_resume_on_ack() {
        // Window of 1: the second and third puts must wait for the first
        // ACK, then drain in order. Everything still delivers.
        let nic = NicConfig {
            reliability: crate::reliability::ReliabilityConfig::bounded(1),
            ..NicConfig::default()
        };
        let mut h = Harness::new_with(2, nic, FabricConfig::default());
        let (src, dst, comp, flag) = put(&mut h, 32);
        h.mem.write(src, &[7; 32]);
        for _ in 0..3 {
            h.doorbell(0, NicCommand::Put(put_op(src, dst, 32, comp, flag)));
        }
        h.run();
        assert_eq!(h.mem.read_u64(flag), 3, "all deliveries complete");
        assert!(
            h.nics[0].stats().counter("credit_stalls") > 0,
            "window 1 must stall a 3-put burst"
        );
        assert_eq!(
            h.nics[0].stats().counter("credit_stalls"),
            h.nics[0].stats().counter("credit_resumes"),
            "every stalled send eventually resumed"
        );
        assert_eq!(h.nics[0].flow_queued(), 0);
        assert!(h.nics[0].pending_retries().is_empty());
    }

    #[test]
    fn bounded_window_survives_loss_with_identical_payloads() {
        // Seeded loss + window 2: the ARQ must still deliver the exact
        // payload, shedding over-window arrivals without ACKing them.
        let nic = NicConfig {
            reliability: crate::reliability::ReliabilityConfig {
                window: 2,
                ..crate::reliability::ReliabilityConfig::on()
            },
            ..NicConfig::default()
        };
        let mut h = Harness::new_with(2, nic, lossy_fabric(12, 0.4));
        let (src, dst, comp, flag) = put(&mut h, 64);
        h.mem.write(src, &[0x5A; 64]);
        for _ in 0..6 {
            h.doorbell(0, NicCommand::Put(put_op(src, dst, 64, comp, flag)));
        }
        h.run();
        assert_eq!(h.mem.read(dst, 64), &[0x5A; 64]);
        assert_eq!(h.mem.read_u64(flag), 6, "all six puts committed");
        assert!(h.nics[0].delivery_failures().is_empty());
        assert!(h.nics[0].pending_retries().is_empty());
        assert_eq!(h.nics[0].flow_queued(), 0);
    }

    #[test]
    fn self_put_loops_back() {
        let mut h = Harness::new(2);
        let src = Addr::base(NodeId(0), h.mem.alloc(NodeId(0), 32, "src"));
        let dst = Addr::base(NodeId(0), h.mem.alloc(NodeId(0), 32, "dst"));
        h.mem.write(src, &[3; 32]);
        h.doorbell(
            0,
            NicCommand::Put(NetOp::Put {
                src,
                len: 32,
                target: NodeId(0),
                dst,
                notify: None,
                completion: None,
            }),
        );
        h.run();
        assert_eq!(h.mem.read(dst, 32), &[3; 32]);
    }

    fn reliable_nic(max_retries: u32) -> NicConfig {
        NicConfig {
            reliability: crate::reliability::ReliabilityConfig {
                max_retries,
                ..crate::reliability::ReliabilityConfig::on()
            },
            ..NicConfig::default()
        }
    }

    fn lossy_fabric(seed: u64, loss: f64) -> FabricConfig {
        FabricConfig {
            faults: gtn_fabric::FaultConfig::loss(seed, loss),
            ..FabricConfig::default()
        }
    }

    #[test]
    fn lossy_triggered_put_retransmits_until_delivered() {
        // Heavy seeded loss: the ARQ layer must carry the put through, and
        // the trigger entry must fire exactly once — retransmits replay the
        // wire op, they never re-arm the (one-shot, §3.1) trigger match.
        let mut h = Harness::new_with(2, reliable_nic(8), lossy_fabric(12, 0.4));
        let (src, dst, comp, flag) = put(&mut h, 64);
        h.mem.write(src, &[0x5A; 64]);
        h.doorbell(
            0,
            NicCommand::TriggeredPut {
                tag: Tag(3),
                threshold: 1,
                op: put_op(src, dst, 64, comp, flag),
            },
        );
        h.run(); // register the entry first, then fire it
        h.trigger(0, Tag(3));
        h.run();
        assert_eq!(h.mem.read(dst, 64), &[0x5A; 64]);
        assert_eq!(
            h.mem.read_u64(flag),
            1,
            "notify exactly once despite duplicates"
        );
        assert_eq!(h.nics[0].stats().counter("fired_at_trigger"), 1, "one-shot");
        assert!(
            h.nics[0].stats().counter("retransmits") > 0,
            "seed 12 at 40% loss must force at least one retransmit"
        );
        assert!(h.nics[0].delivery_failures().is_empty());
        assert!(h.nics[0].pending_retries().is_empty(), "everything acked");
    }

    #[test]
    fn dead_link_exhausts_retries_and_posts_cq_error() {
        // 100% loss: no attempt can succeed. The send must not hang —
        // after 1 + max_retries attempts the NIC abandons the message,
        // records a DeliveryFailure, and posts a CqKind::Error completion.
        let mut h = Harness::new_with(2, reliable_nic(3), lossy_fabric(1, 1.0));
        let (src, dst, comp, flag) = put(&mut h, 64);
        let cq = CqDesc::alloc(&mut h.mem, NodeId(0), 8);
        h.nics[0].attach_cq(cq);
        h.mem.write(src, &[1; 64]);
        h.doorbell(0, NicCommand::Put(put_op(src, dst, 64, comp, flag)));
        h.run();

        assert_eq!(h.mem.read_u64(flag), 0, "nothing ever delivered");
        let failures = h.nics[0].delivery_failures().to_vec();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].attempts, 4, "1 original + 3 retries");
        assert_eq!(failures[0].target, NodeId(1));
        assert_eq!(h.nics[0].stats().counter("exhausted_retries"), 1);
        assert!(
            h.nics[0].pending_retries().is_empty(),
            "nothing left in flight"
        );
        let entries = cq.drain_from(&h.mem, 0);
        assert!(
            entries
                .iter()
                .any(|e| e.kind == CqKind::Error && e.tag == failures[0].seq),
            "CQ must carry the error completion: {entries:?}"
        );
    }

    #[test]
    fn reliability_off_matches_lossless_wire_exactly() {
        // Faults configured but the ARQ layer disabled: the NIC never
        // routes through the faulty path, so timing and stats are identical
        // to a run with no faults at all (the seed's exact behavior).
        let run_one = |fabric: FabricConfig| {
            let mut h = Harness::new_with(2, NicConfig::default(), fabric);
            let (src, dst, comp, flag) = put(&mut h, 256);
            h.mem.write(src, &[9; 256]);
            h.doorbell(0, NicCommand::Put(put_op(src, dst, 256, comp, flag)));
            let end = h.run();
            (end, h.mem.read(dst, 256).to_vec())
        };
        let (end_clean, data_clean) = run_one(FabricConfig::default());
        let (end_faulty, data_faulty) = run_one(lossy_fabric(42, 0.9));
        assert_eq!(
            end_clean, end_faulty,
            "disabled ARQ must not consult the fault plan"
        );
        assert_eq!(data_clean, data_faulty);
    }
}
