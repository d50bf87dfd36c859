//! End-to-end reliability: sequence numbers, ACKs, retransmit timers with
//! exponential backoff, and a bounded retry budget.
//!
//! The paper's fabric is lossless, so the seed model could treat every
//! injected message as delivered. Once the fabric can drop messages (see
//! `gtn_fabric::faults`), the NIC needs an ARQ layer or any loss becomes a
//! silent hang: GPU-TN's whole premise is kernels blocking on notification
//! flags that only message arrivals bump.
//!
//! Protocol (selective-repeat ARQ with in-order commit, the RC-queue-pair
//! contract RDMA software is written against):
//!
//! - Every non-loopback message carries a sequence number from a
//!   per-`(sender, target)` space, so each directed pair sees the dense
//!   stream 0, 1, 2, …
//! - The receiver ACKs every arrival — including duplicates, which mean
//!   the sender missed the first ACK — but *commits* strictly in sequence
//!   order per origin. An arrival past the expected sequence is held in a
//!   reorder buffer until the gap fills. Without this, a retransmitted
//!   halo put can land *after* the next iteration's put to the same
//!   buffer: the notify counter advances for the wrong payload and the
//!   stale retransmit then overwrites the fresh data — a silent wrong
//!   answer, not a hang. In-order commit makes loss invisible to the
//!   flag-polling programming model (§4.2) except in time.
//! - Duplicates do **not** re-run notifies or chained triggers: a trigger
//!   entry that fired stays fired (§3.1 one-shot semantics); the retry
//!   replays the *wire* operation only.
//! - The sender holds the payload snapshot until ACKed. A retransmit timer
//!   (exponential backoff, capped) re-sends on expiry; after
//!   `max_retries` unacknowledged sends the message is abandoned: a
//!   [`crate::cq::CqKind::Error`] completion is pushed and a delivery
//!   failure is recorded for the cluster's stall report.
//!
//! ### Bounded memory: window + credits
//!
//! The seed ARQ grows without bound in two places: the sender's pending
//! table and the receiver's reorder buffer. With
//! [`ReliabilityConfig::window`] set to `W > 0` both get hard bounds:
//!
//! - The receiver only buffers arrivals with `seq < expected + W`;
//!   anything further ahead is **shed** ([`Accept::Shed`]) — not ACKed,
//!   not buffered — so the sender's retransmit timer replays it later.
//!   The reorder buffer thus never holds more than `W` entries per
//!   origin.
//! - Every ACK advertises **credits** = `W − held(origin)`, the room left
//!   in the reorder buffer. The sender keeps a per-target *grant*: each
//!   newly tracked message consumes one grant, and each ACK refreshes the
//!   grant to `credits − still-unACKed messages toward that target`. At
//!   zero grant the NIC queues new sends instead of transmitting
//!   (stall-and-back-off) until an ACK restores credit.
//!
//! Deadlock-freedom: a zero grant implies unACKed messages in flight, and
//! every one of those has a live retransmit timer; receivers ACK every
//! non-shed arrival including duplicates, so an ACK (and with it a grant
//! refresh) always eventually arrives. `W = 0` (the default) keeps the
//! unbounded seed behaviour bit-for-bit.
//!
//! This module is pure bookkeeping — [`crate::nic::Nic`] drives it and owns
//! all timing/fabric effects — so budget and backoff arithmetic is unit
//! testable in isolation.

use gtn_fabric::CrashComponent;
use gtn_mem::NodeId;
use gtn_sim::hash::HashMap;
use gtn_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Reliability-layer parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReliabilityConfig {
    /// Master switch. Disabled (the default) keeps the NIC's wire path
    /// byte-identical to the lossless model: no sequence numbers, no ACK
    /// traffic, no timers.
    pub enabled: bool,
    /// Fixed component of the first retransmit timeout, nanoseconds. Must
    /// cover the fixed round-trip (links, switch, rx processing, ACK).
    pub base_timeout_ns: u64,
    /// Payload-proportional timeout component, picoseconds per byte. Covers
    /// serialization of large messages (a byte takes 80 ps at 100 Gbps; the
    /// default leaves ~5x slack for contention).
    pub per_byte_ps: u64,
    /// Backoff cap, nanoseconds. The effective cap never drops below the
    /// size-dependent base timeout, so huge transfers still get a sane RTO.
    pub max_timeout_ns: u64,
    /// Retry budget: maximum *additional* sends after the first. Once the
    /// budget is spent and the timer expires again, delivery fails.
    pub max_retries: u32,
    /// Wire size of an ACK control message, bytes.
    pub ack_bytes: u64,
    /// Flow-control window, messages per directed pair. `0` (default)
    /// disables flow control: unbounded reorder buffer and no credit
    /// gating, exactly the seed behaviour. `W > 0` bounds the receiver's
    /// reorder buffer to `W` entries per origin and gates new sends on
    /// credits advertised in ACKs (see the module docs).
    pub window: u64,
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        ReliabilityConfig {
            enabled: false,
            base_timeout_ns: 10_000,
            per_byte_ps: 400,
            max_timeout_ns: 1_000_000,
            max_retries: 8,
            ack_bytes: 16,
            window: 0,
        }
    }
}

impl ReliabilityConfig {
    /// Enabled with default timing — the standard way to switch ARQ on.
    pub fn on() -> Self {
        ReliabilityConfig {
            enabled: true,
            ..ReliabilityConfig::default()
        }
    }

    /// Enabled with a `window`-message flow-control bound per directed
    /// pair (credit-based; see the module docs).
    pub fn bounded(window: u64) -> Self {
        ReliabilityConfig {
            enabled: true,
            window,
            ..ReliabilityConfig::default()
        }
    }

    /// Validate invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.enabled && self.base_timeout_ns == 0 {
            return Err("base_timeout_ns must be nonzero when reliability is enabled".into());
        }
        Ok(())
    }

    /// Retransmit timeout for send attempt `attempt` (1-based) of a
    /// `bytes`-byte payload: size-scaled base, doubled per attempt, capped.
    pub fn rto(&self, attempt: u32, bytes: u64) -> SimDuration {
        let base_ns = self.base_timeout_ns + bytes.saturating_mul(self.per_byte_ps) / 1000;
        let shift = (attempt.saturating_sub(1)).min(16);
        let backed_off = base_ns.saturating_mul(1u64 << shift);
        SimDuration::from_ns(backed_off.min(self.max_timeout_ns.max(base_ns)))
    }
}

/// One unacknowledged message held for possible retransmission. The generic
/// parameter is the wire-message type ([`crate::nic::RxMessage`]); keeping
/// it generic here avoids a module cycle and keeps this file unit-testable.
#[derive(Debug, Clone)]
pub struct Pending<M> {
    /// Destination node.
    pub target: NodeId,
    /// Payload bytes on the wire (drives both fabric charge and RTO).
    pub bytes: u64,
    /// The exact message to replay on retransmit.
    pub msg: M,
    /// Sends so far (1 = original send).
    pub attempts: u32,
}

/// Why a tracked message was abandoned — congestion and death need
/// different post-mortems (and different recoveries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryCause {
    /// The retry budget ran out with the peer still presumed alive: the
    /// path was too lossy (or too slow) for the configured budget.
    RetriesExhausted,
    /// The cluster's failure detector declared the peer dead; pending
    /// messages toward it were failed fast instead of burning retries.
    PeerDead,
}

impl std::fmt::Display for DeliveryCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeliveryCause::RetriesExhausted => write!(f, "retries exhausted"),
            DeliveryCause::PeerDead => write!(f, "peer dead"),
        }
    }
}

/// A message abandoned without confirmation of delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveryFailure {
    /// When the message was abandoned.
    pub at: SimTime,
    /// Sequence number of the abandoned message.
    pub seq: u64,
    /// Destination it never (confirmably) reached.
    pub target: NodeId,
    /// Total sends attempted.
    pub attempts: u32,
    /// Payload size.
    pub bytes: u64,
    /// Why it was abandoned.
    pub cause: DeliveryCause,
    /// The injected fault the abandonment traces back to, when the caller
    /// knows it (`PeerDead` failures carry the crashed component the
    /// cluster blamed; timer exhaustion cannot name one — the path was
    /// merely lossy).
    pub culprit: Option<CrashComponent>,
}

/// Receiver verdict for one tracked arrival: what [`Reliability::accept`]
/// tells the NIC to do with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Accept<M> {
    /// The arrival was the next expected sequence: commit these messages,
    /// in order — the arrival itself first, then any buffered successors
    /// its sequence unblocked.
    Deliver(Vec<M>),
    /// The arrival is ahead of the expected sequence; it is buffered and
    /// will be delivered when the gap fills. ACK it (it did arrive), but
    /// commit nothing yet.
    Held,
    /// Already committed (or already buffered): re-ACK, commit nothing.
    Duplicate,
    /// The arrival is beyond the flow-control window — the reorder buffer
    /// has no room for it. Do **not** ACK and do **not** buffer: the
    /// sender's retransmit timer will replay it once the window opens.
    Shed,
}

/// Sender- and receiver-side ARQ state for one NIC.
#[derive(Debug)]
pub struct Reliability<M> {
    config: ReliabilityConfig,
    /// Next sequence per *target* node: each directed pair has its own
    /// dense sequence space, the precondition for in-order commit.
    next_seq: HashMap<u32, u64>,
    /// Unacknowledged messages, keyed `(target, seq)`.
    pending: HashMap<(u32, u64), Pending<M>>,
    /// Receiver: next sequence to commit, per origin node.
    next_commit: HashMap<u32, u64>,
    /// Receiver: arrivals ahead of `next_commit`, per origin, ordered so
    /// gap-fills drain them in sequence.
    held: HashMap<u32, BTreeMap<u64, M>>,
    /// Sender: remaining send grant per target (flow control). Absent
    /// means "never refreshed": a full window's worth of initial credit.
    grants: HashMap<u32, u64>,
    failures: Vec<DeliveryFailure>,
}

impl<M> Reliability<M> {
    /// Fresh state.
    pub fn new(config: ReliabilityConfig) -> Self {
        Reliability {
            config,
            next_seq: HashMap::default(),
            pending: HashMap::default(),
            next_commit: HashMap::default(),
            held: HashMap::default(),
            grants: HashMap::default(),
            failures: Vec::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ReliabilityConfig {
        &self.config
    }

    /// True when the ARQ layer is active.
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// Sender: allocate the next sequence number toward `target` (the
    /// message itself is registered with [`Reliability::hold`] once it
    /// carries the sequence).
    pub fn alloc_seq(&mut self, target: NodeId) -> u64 {
        let next = self.next_seq.entry(target.0).or_insert(0);
        let seq = *next;
        *next += 1;
        seq
    }

    /// Sender: hold `msg` under (`target`, `seq`) until ACKed. Consumes
    /// one unit of send grant toward `target` when flow control is on.
    pub fn hold(&mut self, seq: u64, target: NodeId, bytes: u64, msg: M) {
        if self.config.window > 0 {
            let g = self.grants.entry(target.0).or_insert(self.config.window);
            *g = g.saturating_sub(1);
        }
        self.pending.insert(
            (target.0, seq),
            Pending {
                target,
                bytes,
                msg,
                attempts: 1,
            },
        );
    }

    /// Sender: allocate the next sequence number toward `target` and track
    /// the message until ACKed. Returns the sequence.
    pub fn track(&mut self, target: NodeId, bytes: u64, msg: M) -> u64 {
        let seq = self.alloc_seq(target);
        self.hold(seq, target, bytes, msg);
        seq
    }

    /// Sender: an ACK for `seq` arrived from `from`. Returns true if it
    /// retired a pending message (false = stale/duplicate ACK).
    pub fn ack(&mut self, from: NodeId, seq: u64) -> bool {
        self.pending.remove(&(from.0, seq)).is_some()
    }

    /// Sender: may a *new* message toward `target` be transmitted now?
    /// Always true with flow control off; otherwise true while grant
    /// remains. Retransmits are never gated (they already hold grant).
    pub fn may_send(&self, target: NodeId) -> bool {
        self.config.window == 0 || *self.grants.get(&target.0).unwrap_or(&self.config.window) > 0
    }

    /// Sender: current grant toward `target`, for diagnostics.
    pub fn grant(&self, target: NodeId) -> u64 {
        if self.config.window == 0 {
            u64::MAX
        } else {
            *self.grants.get(&target.0).unwrap_or(&self.config.window)
        }
    }

    /// Sender: an ACK from `target` advertised `credits` of reorder-buffer
    /// room. Refresh the grant to that, minus the messages still unACKed
    /// toward `target` (they will occupy buffer room the receiver hasn't
    /// seen yet).
    pub fn refresh_grant(&mut self, target: NodeId, credits: u64) {
        if self.config.window == 0 {
            return;
        }
        let in_flight = self.pending.keys().filter(|&&(t, _)| t == target.0).count() as u64;
        self.grants
            .insert(target.0, credits.saturating_sub(in_flight));
    }

    /// Sender: a message toward `target` was abandoned (retry budget
    /// exhausted) — no ACK will ever refresh its grant, so return the
    /// unit it consumed to keep the flow queue draining.
    pub fn release_grant(&mut self, target: NodeId) {
        if self.config.window > 0 {
            let g = self.grants.entry(target.0).or_insert(self.config.window);
            *g += 1;
        }
    }

    /// Receiver: credits to advertise on an ACK toward `origin` — the
    /// reorder-buffer room left for that origin. Zero with flow control
    /// off (the field is ignored then).
    pub fn rx_credits(&self, origin: NodeId) -> u64 {
        if self.config.window == 0 {
            return 0;
        }
        let held = self.held.get(&origin.0).map_or(0, |b| b.len() as u64);
        self.config.window.saturating_sub(held)
    }

    /// Sender: the retry timer for (`target`, `seq`, `attempt`) fired.
    /// Decides what to do; the NIC performs the wire effects.
    pub fn timer_fired(
        &mut self,
        now: SimTime,
        target: NodeId,
        seq: u64,
        attempt: u32,
    ) -> TimerVerdict<'_, M> {
        let key = (target.0, seq);
        let Some(p) = self.pending.get_mut(&key) else {
            return TimerVerdict::Stale; // ACKed since the timer was set.
        };
        if p.attempts != attempt {
            return TimerVerdict::Stale; // A newer send owns a newer timer.
        }
        if p.attempts > self.config.max_retries {
            let p = self.pending.remove(&key).expect("checked above");
            let failure = DeliveryFailure {
                at: now,
                seq,
                target: p.target,
                attempts: p.attempts,
                bytes: p.bytes,
                cause: DeliveryCause::RetriesExhausted,
                culprit: None,
            };
            self.failures.push(failure.clone());
            return TimerVerdict::Exhausted(failure);
        }
        p.attempts += 1;
        TimerVerdict::Retransmit(self.pending.get(&key).expect("still present"))
    }

    /// Receiver: a tracked message with `seq` from `origin` finished rx
    /// processing. Decide whether to commit it now (possibly together with
    /// buffered successors), hold it for ordering, or drop it as a
    /// duplicate. Every verdict should still be ACKed by the caller.
    pub fn accept(&mut self, origin: NodeId, seq: u64, msg: M) -> Accept<M> {
        let expected = self.next_commit.entry(origin.0).or_insert(0);
        if seq < *expected {
            return Accept::Duplicate;
        }
        let window = self.config.window;
        let buffer = self.held.entry(origin.0).or_default();
        if seq > *expected {
            if buffer.contains_key(&seq) {
                return Accept::Duplicate;
            }
            if window > 0 && seq >= *expected + window {
                // Beyond the reorder window: no room is reserved for this
                // sequence. Shed it (no ACK) — the sender retransmits.
                return Accept::Shed;
            }
            buffer.insert(seq, msg);
            return Accept::Held;
        }
        // The expected sequence: commit it and drain the run of buffered
        // successors it unblocks.
        let mut ready = vec![msg];
        let mut next = seq + 1;
        while let Some(m) = buffer.remove(&next) {
            ready.push(m);
            next += 1;
        }
        *expected = next;
        Accept::Deliver(ready)
    }

    /// Receiver: arrivals currently parked for ordering, for diagnostics.
    pub fn held_count(&self) -> usize {
        self.held.values().map(BTreeMap::len).sum()
    }

    /// Unacknowledged messages, for diagnostics: `(seq, target, attempts)`.
    pub fn pending(&self) -> Vec<(u64, NodeId, u32)> {
        let mut v: Vec<_> = self
            .pending
            .iter()
            .map(|(&(_, seq), p)| (seq, p.target, p.attempts))
            .collect();
        v.sort_unstable_by_key(|&(seq, target, _)| (target.0, seq));
        v
    }

    /// Messages abandoned after exhausting the retry budget.
    pub fn failures(&self) -> &[DeliveryFailure] {
        &self.failures
    }

    /// Sender: the failure detector declared `peer` dead — abandon every
    /// pending message toward it *now* (cause [`DeliveryCause::PeerDead`])
    /// instead of burning the remaining retry budget against a corpse.
    /// `culprit` is the injected component the detector blamed (ground
    /// truth from the fault plan), stamped onto every failure so stall
    /// reports can name the broken hardware. Returns the failures in
    /// sequence order.
    pub fn fail_peer_dead(
        &mut self,
        peer: NodeId,
        now: SimTime,
        culprit: Option<CrashComponent>,
    ) -> Vec<DeliveryFailure> {
        let mut seqs: Vec<u64> = self
            .pending
            .keys()
            .filter(|&&(t, _)| t == peer.0)
            .map(|&(_, seq)| seq)
            .collect();
        seqs.sort_unstable();
        let mut out = Vec::with_capacity(seqs.len());
        for seq in seqs {
            let p = self.pending.remove(&(peer.0, seq)).expect("keyed above");
            let failure = DeliveryFailure {
                at: now,
                seq,
                target: p.target,
                attempts: p.attempts,
                bytes: p.bytes,
                cause: DeliveryCause::PeerDead,
                culprit,
            };
            self.failures.push(failure.clone());
            out.push(failure);
        }
        out
    }
}

/// Outcome of a retry-timer expiry.
#[derive(Debug)]
pub enum TimerVerdict<'a, M> {
    /// The message was ACKed (or superseded) — ignore the timer.
    Stale,
    /// Send the message again; `attempts` has been bumped.
    Retransmit(&'a Pending<M>),
    /// Budget exhausted; the message is abandoned.
    Exhausted(DeliveryFailure),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(max_retries: u32) -> Reliability<&'static str> {
        Reliability::new(ReliabilityConfig {
            enabled: true,
            max_retries,
            ..ReliabilityConfig::default()
        })
    }

    #[test]
    fn rto_scales_with_bytes_and_backs_off_exponentially() {
        let c = ReliabilityConfig::on();
        let small = c.rto(1, 64);
        assert_eq!(small, SimDuration::from_ns(10_000 + 64 * 400 / 1000));
        assert_eq!(c.rto(2, 64), SimDuration::from_ns(2 * (10_000 + 25)));
        assert_eq!(c.rto(3, 64), SimDuration::from_ns(4 * (10_000 + 25)));
        // The cap binds eventually…
        assert_eq!(c.rto(12, 64), SimDuration::from_ns(1_000_000));
        // …but never below the size-dependent base for huge payloads.
        let huge = c.rto(1, 8 << 20);
        assert!(huge > SimDuration::from_ns(1_000_000), "{huge}");
        assert_eq!(c.rto(9, 8 << 20), huge, "cap floors at the base");
    }

    #[test]
    fn sequences_are_per_target_and_acked_once() {
        let mut r = rel(3);
        let a = r.track(NodeId(1), 64, "a");
        let b = r.track(NodeId(2), 64, "b");
        // Each directed pair owns its own dense sequence space.
        assert_eq!(a, 0);
        assert_eq!(b, 0);
        assert_eq!(r.track(NodeId(1), 64, "a2"), 1);
        assert_eq!(r.pending().len(), 3);
        assert!(r.ack(NodeId(1), a));
        assert!(!r.ack(NodeId(1), a), "second ACK is stale");
        assert_eq!(r.pending().len(), 2, "target 2's seq 0 is untouched");
        assert!(r.ack(NodeId(2), b));
    }

    #[test]
    fn timer_lifecycle_retransmit_then_exhaust() {
        let mut r = rel(2);
        let t = NodeId(1);
        let seq = r.track(t, 100, "msg");
        // Attempt 1 times out -> retransmit (attempts becomes 2).
        match r.timer_fired(SimTime::from_us(1), t, seq, 1) {
            TimerVerdict::Retransmit(p) => assert_eq!(p.attempts, 2),
            v => panic!("expected retransmit, got {v:?}"),
        }
        // The old timer for attempt 1 is stale now.
        assert!(matches!(
            r.timer_fired(SimTime::from_us(2), t, seq, 1),
            TimerVerdict::Stale
        ));
        match r.timer_fired(SimTime::from_us(3), t, seq, 2) {
            TimerVerdict::Retransmit(p) => assert_eq!(p.attempts, 3),
            v => panic!("expected retransmit, got {v:?}"),
        }
        // Budget (max_retries = 2 extra sends) is now spent.
        match r.timer_fired(SimTime::from_us(4), t, seq, 3) {
            TimerVerdict::Exhausted(f) => {
                assert_eq!(f.seq, seq);
                assert_eq!(f.attempts, 3);
                assert_eq!(f.at, SimTime::from_us(4));
            }
            v => panic!("expected exhausted, got {v:?}"),
        }
        assert!(r.pending().is_empty());
        assert_eq!(r.failures().len(), 1);
    }

    #[test]
    fn ack_beats_timer() {
        let mut r = rel(2);
        let t = NodeId(1);
        let seq = r.track(t, 100, "msg");
        assert!(r.ack(t, seq));
        assert!(matches!(
            r.timer_fired(SimTime::from_us(1), t, seq, 1),
            TimerVerdict::Stale
        ));
        assert!(r.failures().is_empty());
    }

    #[test]
    fn receiver_commits_in_order_per_origin() {
        let mut r = rel(1);
        assert_eq!(r.accept(NodeId(3), 0, "a"), Accept::Deliver(vec!["a"]));
        assert_eq!(r.accept(NodeId(3), 0, "a"), Accept::Duplicate);
        assert_eq!(
            r.accept(NodeId(4), 0, "x"),
            Accept::Deliver(vec!["x"]),
            "same seq, different origin is new"
        );
        assert_eq!(r.accept(NodeId(3), 1, "b"), Accept::Deliver(vec!["b"]));
    }

    #[test]
    fn out_of_order_arrivals_are_held_until_the_gap_fills() {
        let mut r = rel(1);
        // seq 1 and 2 race past a dropped seq 0: both are parked.
        assert_eq!(r.accept(NodeId(7), 1, "b"), Accept::Held);
        assert_eq!(r.accept(NodeId(7), 2, "c"), Accept::Held);
        assert_eq!(r.held_count(), 2);
        // A duplicate of a parked arrival is still a duplicate.
        assert_eq!(r.accept(NodeId(7), 1, "b"), Accept::Duplicate);
        // The retransmitted seq 0 unblocks the whole run, in order.
        assert_eq!(
            r.accept(NodeId(7), 0, "a"),
            Accept::Deliver(vec!["a", "b", "c"])
        );
        assert_eq!(r.held_count(), 0);
        // And the stream continues normally after the drain.
        assert_eq!(r.accept(NodeId(7), 3, "d"), Accept::Deliver(vec!["d"]));
    }

    #[test]
    fn window_sheds_arrivals_beyond_reorder_room() {
        let mut r: Reliability<&str> = Reliability::new(ReliabilityConfig::bounded(2));
        let o = NodeId(9);
        // expected = 0, window = 2: seqs 0 and 1 fit, seq 2 does not.
        assert_eq!(r.accept(o, 1, "b"), Accept::Held);
        assert_eq!(r.accept(o, 2, "c"), Accept::Shed);
        assert_eq!(r.held_count(), 1, "shed arrivals are not buffered");
        assert_eq!(r.rx_credits(o), 1);
        // Filling the gap drains the run and reopens the window.
        assert_eq!(r.accept(o, 0, "a"), Accept::Deliver(vec!["a", "b"]));
        assert_eq!(r.rx_credits(o), 2);
        assert_eq!(r.accept(o, 2, "c"), Accept::Deliver(vec!["c"]));
    }

    #[test]
    fn grants_gate_new_sends_and_refresh_from_credits() {
        let mut r: Reliability<&str> = Reliability::new(ReliabilityConfig::bounded(2));
        let t = NodeId(1);
        assert!(r.may_send(t));
        let s0 = r.track(t, 8, "a");
        let s1 = r.track(t, 8, "b");
        assert!(!r.may_send(t), "window's worth of grant consumed");
        // ACK for s0 advertises 2 credits; one message (s1) still unACKed.
        assert!(r.ack(t, s0));
        r.refresh_grant(t, 2);
        assert_eq!(r.grant(t), 1);
        assert!(r.may_send(t));
        // Exhaustion releases the grant a dead message consumed.
        let s2 = r.track(t, 8, "c");
        assert!(!r.may_send(t));
        assert!(matches!(
            r.timer_fired(SimTime::from_us(1), t, s1, 1),
            TimerVerdict::Retransmit(_)
        ));
        let _ = s2;
        r.release_grant(t);
        assert!(r.may_send(t));
        // Flow control off: everything is always allowed.
        let off: Reliability<&str> = Reliability::new(ReliabilityConfig::on());
        assert!(off.may_send(t));
        assert_eq!(off.grant(t), u64::MAX);
        assert_eq!(off.rx_credits(t), 0);
    }

    #[test]
    fn disabled_default_and_validation() {
        assert!(!ReliabilityConfig::default().enabled);
        assert!(ReliabilityConfig::on().enabled);
        assert!(ReliabilityConfig::default().validate().is_ok());
        assert!(ReliabilityConfig {
            enabled: true,
            base_timeout_ns: 0,
            ..ReliabilityConfig::default()
        }
        .validate()
        .is_err());
    }
}
