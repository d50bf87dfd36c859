//! Two-sided messaging over one-sided puts: an eager-protocol MPI layer.
//!
//! The HDN and CPU configurations use "two sided send/recv semantics"
//! (§5.1). We implement the standard eager protocol: every directed pair of
//! nodes that communicates shares a *channel* on the receiver — a ring of
//! mailbox slots plus an arrival counter. `send` is a NIC put into the next
//! slot that bumps the counter; `recv` polls the counter, then copies the
//! slot into the user buffer (paying the receive stack and memcpy time).
//! The world is built from the run's declared messages, so mailbox memory
//! scales with the traffic, not with the node count squared.
//!
//! Slots rotate (`seq % n_slots`) with no credit from the receiver, so
//! nothing bounds the sender's run-ahead: a sender more than `n_slots`
//! messages ahead of its receiver's copies overwrites an unread slot. A
//! lock-step lossless run never gets that far ahead. Under loss it can:
//! the ARQ holds back a retransmitted message and then commits the ones
//! behind it in a burst. The 1%-loss ring Allreduce shows it at 8 and 32
//! nodes on CPU and at 32 nodes on HDN (ranks disagree).
//!
//! Messages larger than the eager limit use the **rendezvous protocol**:
//! the sender puts a ready-to-send (RTS) record; the receiver answers with
//! a clear-to-send (CTS) carrying its user-buffer address; the sender then
//! puts the payload **directly into the user buffer** (zero-copy), exactly
//! like real MPI rendezvous over RDMA.
//!
//! Functional correctness is end-to-end: the payload bytes genuinely travel
//! user buffer → mailbox → user buffer (or straight into the user buffer
//! on the rendezvous path), so the workload tests (Jacobi convergence,
//! exact Allreduce sums) validate this layer too.

use crate::compute::CpuCompute;
use crate::config::HostConfig;
use crate::program::HostOp;
use gtn_mem::{Addr, MemPool, NodeId, RegionId};
use gtn_nic::nic::NicCommand;
use gtn_nic::op::{NetOp, Notify};
use std::collections::HashMap;

/// Most mailbox slots a directed channel gets. Lock-step round-based
/// patterns (halo exchange, ring collectives) stay within four messages
/// of their receiver on a lossless fabric, but nothing enforces it: the
/// slots carry no receiver credit (see the module doc). A channel that
/// carries fewer eager messages gets one slot per message, so no slot is
/// ever reused.
pub const SLOTS: u64 = 4;

#[derive(Debug)]
struct Channel {
    /// Base of the slot ring (on the receiver).
    slots: Addr,
    /// Slots in the ring: the pair's eager message count, capped at
    /// [`SLOTS`].
    n_slots: u64,
    /// Bytes per slot: the pair's largest eager message.
    slot_bytes: u64,
    /// Arrival counter (on the receiver), bumped by the NIC notify.
    flag: Addr,
    /// Messages sent so far (sender-side sequence).
    sent: u64,
    /// Messages received so far (receiver-side sequence).
    received: u64,
    /// Rendezvous: RTS arrival counter (on the receiver).
    rts_flag: Addr,
    /// Rendezvous: CTS slot ring (on the **sender**), 16 B records.
    cts_slots: Addr,
    /// Rendezvous: CTS arrival counter (on the sender).
    cts_flag: Addr,
    /// Rendezvous: CTS staging record (on the receiver, put to the sender).
    cts_out: Addr,
    /// Rendezvous: payload arrival counter (on the receiver).
    payload_flag: Addr,
    /// Rendezvous messages sent (sender side).
    rdv_sent: u64,
    /// Rendezvous messages received (receiver side).
    rdv_received: u64,
}

impl Channel {
    /// The slot carrying eager message `seq` (0-based) of `bytes` bytes.
    ///
    /// # Panics
    /// Panics if the message was not declared to [`MpiWorld::new`]: it
    /// does not fit the slots, or it is one more than a channel with
    /// fewer than [`SLOTS`] slots was sized for.
    fn slot(&self, seq: u64, bytes: u64, src: NodeId, dst: NodeId) -> Addr {
        assert!(
            bytes <= self.slot_bytes && (seq < self.n_slots || self.n_slots == SLOTS),
            "eager message #{seq} of {bytes} B on {src}->{dst} was not declared \
             ({} slots of {} B)",
            self.n_slots,
            self.slot_bytes
        );
        self.slots.offset_by(seq % self.n_slots * self.slot_bytes)
    }
}

/// Bytes of one CTS record: (region id, offset).
const CTS_BYTES: u64 = 16;

/// The directed channels a run's traffic uses.
#[derive(Debug)]
pub struct MpiWorld {
    channels: HashMap<(u32, u32), Channel>,
    eager_limit: u64,
}

impl MpiWorld {
    /// Allocate one channel per directed pair that `messages` uses, in
    /// first-seen order. Each message is `(src, dst, bytes)`; self-messages
    /// are ignored.
    ///
    /// A message of at most `eager_limit` bytes goes eager, a larger one
    /// rendezvous. A channel's slots each hold its largest eager message,
    /// and it gets one slot per eager message, up to [`SLOTS`]. Mailbox
    /// memory thus follows the traffic: a pair that carries two small
    /// messages costs two small slots, and a pair that is never used costs
    /// nothing.
    pub fn new(mem: &mut MemPool, eager_limit: u64, messages: &[(u32, u32, u64)]) -> Self {
        // (pair, eager message count, largest eager message), first-seen order.
        let mut shapes: Vec<((u32, u32), u64, u64)> = Vec::new();
        let mut index: HashMap<(u32, u32), usize> = HashMap::new();
        for &(src, dst, bytes) in messages {
            if src == dst {
                continue;
            }
            let i = *index.entry((src, dst)).or_insert_with(|| {
                shapes.push(((src, dst), 0, 0));
                shapes.len() - 1
            });
            if bytes <= eager_limit {
                shapes[i].1 += 1;
                shapes[i].2 = shapes[i].2.max(bytes);
            }
        }
        let mut channels = HashMap::with_capacity(shapes.len());
        for ((src, dst), eager, slot_bytes) in shapes {
            let n_slots = eager.min(SLOTS);
            let slots_region = mem.alloc(NodeId(dst), slot_bytes * n_slots, "mpi.slots");
            let flag_region = mem.alloc(NodeId(dst), 8, "mpi.flag");
            channels.insert(
                (src, dst),
                Channel {
                    slots: Addr::base(NodeId(dst), slots_region),
                    n_slots,
                    slot_bytes,
                    flag: Addr::base(NodeId(dst), flag_region),
                    sent: 0,
                    received: 0,
                    rts_flag: Addr::base(NodeId(dst), mem.alloc(NodeId(dst), 8, "mpi.rts_flag")),
                    cts_slots: Addr::base(
                        NodeId(src),
                        mem.alloc(NodeId(src), CTS_BYTES * SLOTS, "mpi.cts_slots"),
                    ),
                    cts_flag: Addr::base(NodeId(src), mem.alloc(NodeId(src), 8, "mpi.cts_flag")),
                    cts_out: Addr::base(
                        NodeId(dst),
                        mem.alloc(NodeId(dst), CTS_BYTES, "mpi.cts_out"),
                    ),
                    payload_flag: Addr::base(
                        NodeId(dst),
                        mem.alloc(NodeId(dst), 8, "mpi.payload_flag"),
                    ),
                    rdv_sent: 0,
                    rdv_received: 0,
                },
            );
        }
        MpiWorld {
            channels,
            eager_limit,
        }
    }

    /// Largest message that goes eager; larger ones go rendezvous.
    pub fn eager_limit(&self) -> u64 {
        self.eager_limit
    }

    fn channel_mut(&mut self, src: NodeId, dst: NodeId) -> &mut Channel {
        self.channels
            .get_mut(&(src.0, dst.0))
            .unwrap_or_else(|| panic!("no channel {src}->{dst}"))
    }

    /// Host ops for `src` to send `bytes` from `user_buf` to `dst`.
    ///
    /// One op: a NIC post (the [`crate::program::Cpu`] charges the full send
    /// stack for immediate puts).
    pub fn send_ops(
        &mut self,
        src: NodeId,
        dst: NodeId,
        user_buf: Addr,
        bytes: u64,
    ) -> Vec<HostOp> {
        if bytes > self.eager_limit {
            return self.send_ops_rendezvous(src, dst, user_buf, bytes);
        }
        let ch = self.channel_mut(src, dst);
        let dst_addr = ch.slot(ch.sent, bytes, src, dst);
        ch.sent += 1;
        let flag = ch.flag;
        vec![HostOp::NicPost(NicCommand::Put(NetOp::Put {
            src: user_buf,
            len: bytes,
            target: dst,
            dst: dst_addr,
            notify: Some(Notify {
                flag,
                add: 1,
                chain: None,
            }),
            completion: None,
        }))]
    }

    /// Host ops for `dst` to receive the next message from `src` into
    /// `user_buf`: poll the arrival counter, pay the receive stack, copy the
    /// slot out.
    pub fn recv_ops(
        &mut self,
        cfg: &HostConfig,
        src: NodeId,
        dst: NodeId,
        user_buf: Addr,
        bytes: u64,
    ) -> Vec<HostOp> {
        if bytes > self.eager_limit {
            return self.recv_ops_rendezvous(cfg, src, dst, user_buf, bytes);
        }
        let compute = CpuCompute::new(cfg.clone());
        let ch = self.channel_mut(src, dst);
        let slot_addr = ch.slot(ch.received, bytes, src, dst);
        ch.received += 1;
        let seq = ch.received;
        let flag = ch.flag;
        vec![
            HostOp::Poll {
                addr: flag,
                at_least: seq,
            },
            HostOp::Compute(cfg.recv_stack() + compute.memcpy(bytes)),
            HostOp::Func(std::sync::Arc::new(move |mem: &mut MemPool| {
                mem.copy(slot_addr, user_buf, bytes);
            })),
        ]
    }
    /// Rendezvous sender: RTS → wait CTS → zero-copy payload put into the
    /// address the CTS carried.
    fn send_ops_rendezvous(
        &mut self,
        src: NodeId,
        dst: NodeId,
        user_buf: Addr,
        bytes: u64,
    ) -> Vec<HostOp> {
        let ch = self.channel_mut(src, dst);
        let seq = ch.rdv_sent + 1;
        ch.rdv_sent += 1;
        let cts_slot = ch.cts_slots.offset_by(((seq - 1) % SLOTS) * CTS_BYTES);
        let rts_flag = ch.rts_flag;
        let cts_flag = ch.cts_flag;
        let payload_flag = ch.payload_flag;
        vec![
            // RTS: a zero-payload control put that bumps the receiver's
            // RTS counter ("I have `bytes` for you").
            HostOp::NicPost(NicCommand::Put(NetOp::Put {
                src: user_buf, // no bytes travel (len 0); src is nominal
                len: 0,
                target: dst,
                dst: cts_slot, // nominal; zero-length
                notify: Some(Notify::count(rts_flag)),
                completion: None,
            })),
            // Wait for the CTS.
            HostOp::Poll {
                addr: cts_flag,
                at_least: seq,
            },
            // Decode the receive address from the CTS record and put the
            // payload straight into the user buffer (zero-copy).
            HostOp::NicPostDynamic(std::sync::Arc::new(move |mem: &MemPool| {
                let region = RegionId(mem.read_u64(cts_slot) as u32);
                let offset = mem.read_u64(cts_slot.offset_by(8));
                NicCommand::Put(NetOp::Put {
                    src: user_buf,
                    len: bytes,
                    target: dst,
                    dst: Addr {
                        node: dst,
                        region,
                        offset,
                    },
                    notify: Some(Notify::count(payload_flag)),
                    completion: None,
                })
            })),
        ]
    }

    /// Rendezvous receiver: wait RTS → send CTS carrying the user-buffer
    /// address → wait for the payload to land in place.
    fn recv_ops_rendezvous(
        &mut self,
        cfg: &HostConfig,
        src: NodeId,
        dst: NodeId,
        user_buf: Addr,
        _bytes: u64,
    ) -> Vec<HostOp> {
        let ch = self.channel_mut(src, dst);
        let seq = ch.rdv_received + 1;
        ch.rdv_received += 1;
        let cts_slot = ch.cts_slots.offset_by(((seq - 1) % SLOTS) * CTS_BYTES);
        let rts_flag = ch.rts_flag;
        let cts_flag = ch.cts_flag;
        let cts_out = ch.cts_out;
        let payload_flag = ch.payload_flag;
        vec![
            HostOp::Poll {
                addr: rts_flag,
                at_least: seq,
            },
            // Matching + CTS build on the receive stack.
            HostOp::Compute(cfg.recv_stack()),
            HostOp::Func(std::sync::Arc::new(move |mem: &mut MemPool| {
                mem.write_u64(cts_out, user_buf.region.0 as u64);
                mem.write_u64(cts_out.offset_by(8), user_buf.offset);
            })),
            HostOp::NicPost(NicCommand::Put(NetOp::Put {
                src: cts_out,
                len: CTS_BYTES,
                target: src,
                dst: cts_slot,
                notify: Some(Notify::count(cts_flag)),
                completion: None,
            })),
            // Zero-copy: the payload lands directly in `user_buf`.
            HostOp::Poll {
                addr: payload_flag,
                at_least: seq,
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nbc::{self, chunk_range, NbcOp, Schedule};

    /// Eager mailbox bytes the world holds, as its channels describe them.
    fn mailbox_bytes(w: &MpiWorld) -> u64 {
        w.channels.values().map(|c| c.n_slots * c.slot_bytes).sum()
    }

    /// `n` messages of `bytes` from node 0 to node 1.
    fn zero_to_one(n: usize, bytes: u64) -> Vec<(u32, u32, u64)> {
        vec![(0, 1, bytes); n]
    }

    /// The traffic of per-rank schedules over `elems` f32s: one message per
    /// (rank, round, peer), the sends of a round to one peer coalesced.
    fn traffic(schedules: &[Schedule], elems: u64) -> Vec<(u32, u32, u64)> {
        let mut messages = Vec::new();
        for s in schedules {
            for round in &s.rounds {
                let mut per_peer: Vec<(u32, u64)> = Vec::new();
                for op in &round.0 {
                    if let NbcOp::Send { peer, chunk } = *op {
                        let bytes = chunk_range(chunk, elems, s.n_chunks).1 * 4;
                        match per_peer.iter_mut().find(|(p, _)| *p == peer) {
                            Some(entry) => entry.1 += bytes,
                            None => per_peer.push((peer, bytes)),
                        }
                    }
                }
                messages.extend(per_peer.into_iter().map(|(peer, b)| (s.rank, peer, b)));
            }
        }
        messages
    }

    #[test]
    fn channels_exist_only_for_declared_pairs_on_the_receiver() {
        let mut mem = MemPool::new(4);
        // Duplicates and self-messages are ignored.
        let messages = [(0, 1, 64), (1, 0, 64), (0, 1, 64), (2, 2, 64), (3, 1, 64)];
        let w = MpiWorld::new(&mut mem, 1024, &messages);
        assert_eq!(w.channels.len(), 3);
        assert_eq!(w.eager_limit(), 1024);
        assert!(w.channels.contains_key(&(3, 1)));
        assert!(!w.channels.contains_key(&(1, 3)));
        // Slots live on the receiver.
        let ch = &w.channels[&(0, 1)];
        assert_eq!(ch.slots.node, NodeId(1));
        assert_eq!(ch.flag.node, NodeId(1));
        // Node 2 only appeared as a self-message: nothing was placed on it.
        assert!(mem.region_len(NodeId(2), RegionId(0)).is_err());
    }

    #[test]
    fn ring_traffic_builds_one_four_slot_channel_per_rank() {
        let p = 32;
        let elems = 8 * 1024;
        let schedules: Vec<Schedule> = (0..p).map(|r| nbc::ring_allreduce(r, p)).collect();
        let chunk = chunk_range(0, elems, p).1 * 4;
        let mut mem = MemPool::new(p as usize);
        let w = MpiWorld::new(&mut mem, chunk, &traffic(&schedules, elems));
        assert_eq!(w.channels.len(), 32);
        for (&(src, dst), ch) in &w.channels {
            assert_eq!(dst, (src + 1) % p);
            assert_eq!((ch.n_slots, ch.slot_bytes), (4, chunk));
        }
    }

    #[test]
    fn halving_doubling_traffic_builds_two_slots_per_channel() {
        let p = 512;
        let elems = 4 * 1024;
        let schedules: Vec<Schedule> = (0..p).map(|r| nbc::rhd_allreduce(r, p)).collect();
        let messages = traffic(&schedules, elems);
        let largest = messages.iter().map(|m| m.2).max().unwrap();
        assert_eq!(
            largest,
            elems * 4 / 2,
            "round one exchanges half the vector"
        );
        let mut mem = MemPool::new(p as usize);
        let w = MpiWorld::new(&mut mem, largest, &messages);
        // Nine partners per rank, one message each way per phase.
        assert_eq!(w.channels.len(), 512 * 9);
        assert!(w.channels.values().all(|ch| ch.n_slots == 2));
        // Every pair's slots are sized by its own messages: far below the
        // 4 x 8 KB a channel used to get whatever it carried.
        assert!(mailbox_bytes(&w) < 512 * 9 * 4 * largest / 8);
    }

    #[test]
    fn mailbox_bytes_sum_slot_bytes_times_slots() {
        let mut mem = MemPool::new(3);
        let messages = [
            (0, 1, 100),
            (0, 1, 300),
            (0, 1, 200), // 3 slots of 300 B
            (1, 2, 50),  // 1 slot of 50 B
            (2, 0, 4096),
            (2, 0, 8), // the rendezvous message is not slotted: 1 slot of 8 B
        ];
        let w = MpiWorld::new(&mut mem, 1024, &messages);
        assert_eq!(mailbox_bytes(&w), 3 * 300 + 50 + 8);
        // The slot regions the pool holds are exactly that size.
        let allocated: u64 = w
            .channels
            .values()
            .map(|c| mem.region_len(c.slots.node, c.slots.region).unwrap())
            .sum();
        assert_eq!(allocated, mailbox_bytes(&w));
    }

    #[test]
    fn send_targets_rotating_slots() {
        let mut mem = MemPool::new(2);
        let mut w = MpiWorld::new(&mut mem, 256, &zero_to_one(6, 100));
        let buf = Addr::base(NodeId(0), mem.alloc(NodeId(0), 256, "buf"));
        let mut offsets = Vec::new();
        for _ in 0..6 {
            let ops = w.send_ops(NodeId(0), NodeId(1), buf, 100);
            assert_eq!(ops.len(), 1);
            match &ops[0] {
                HostOp::NicPost(NicCommand::Put(NetOp::Put { dst, notify, .. })) => {
                    offsets.push(dst.offset);
                    assert!(notify.is_some());
                }
                other => panic!("unexpected op {other:?}"),
            }
        }
        assert_eq!(offsets, vec![0, 100, 200, 300, 0, 100]);
    }

    #[test]
    fn few_messages_get_one_slot_each() {
        let mut mem = MemPool::new(2);
        let mut w = MpiWorld::new(&mut mem, 256, &zero_to_one(2, 64));
        let buf = Addr::base(NodeId(0), mem.alloc(NodeId(0), 64, "buf"));
        let offsets: Vec<u64> = (0..2)
            .map(|_| match &w.send_ops(NodeId(0), NodeId(1), buf, 64)[0] {
                HostOp::NicPost(NicCommand::Put(NetOp::Put { dst, .. })) => dst.offset,
                other => panic!("unexpected op {other:?}"),
            })
            .collect();
        assert_eq!(offsets, vec![0, 64]);
    }

    #[test]
    #[should_panic(expected = "was not declared")]
    fn an_undeclared_extra_eager_message_panics() {
        let mut mem = MemPool::new(2);
        let mut w = MpiWorld::new(&mut mem, 256, &zero_to_one(2, 64));
        let buf = Addr::base(NodeId(0), mem.alloc(NodeId(0), 64, "buf"));
        for _ in 0..3 {
            w.send_ops(NodeId(0), NodeId(1), buf, 64);
        }
    }

    #[test]
    #[should_panic(expected = "was not declared")]
    fn an_eager_message_larger_than_declared_panics() {
        let mut mem = MemPool::new(2);
        let mut w = MpiWorld::new(&mut mem, 256, &zero_to_one(4, 64));
        let buf = Addr::base(NodeId(0), mem.alloc(NodeId(0), 128, "buf"));
        w.send_ops(NodeId(0), NodeId(1), buf, 128);
    }

    #[test]
    #[should_panic(expected = "no channel n0->n2")]
    fn a_send_on_an_undeclared_pair_panics() {
        let mut mem = MemPool::new(3);
        let mut w = MpiWorld::new(&mut mem, 256, &zero_to_one(1, 64));
        let buf = Addr::base(NodeId(0), mem.alloc(NodeId(0), 64, "buf"));
        w.send_ops(NodeId(0), NodeId(2), buf, 64);
    }

    #[test]
    fn recv_polls_increasing_sequence() {
        let mut mem = MemPool::new(2);
        let mut w = MpiWorld::new(&mut mem, 256, &zero_to_one(3, 64));
        let cfg = HostConfig::default();
        let buf = Addr::base(NodeId(1), mem.alloc(NodeId(1), 256, "buf"));
        for expected in 1..=3u64 {
            let ops = w.recv_ops(&cfg, NodeId(0), NodeId(1), buf, 64);
            assert_eq!(ops.len(), 3);
            match ops[0] {
                HostOp::Poll { at_least, .. } => assert_eq!(at_least, expected),
                ref other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn a_message_above_the_eager_limit_goes_rendezvous() {
        let mut mem = MemPool::new(2);
        let mut w = MpiWorld::new(&mut mem, 64, &zero_to_one(1, 128));
        // A rendezvous-only channel has no eager slots at all.
        assert_eq!(mailbox_bytes(&w), 0);
        let buf = Addr::base(NodeId(0), mem.alloc(NodeId(0), 256, "buf"));
        let ops = w.send_ops(NodeId(0), NodeId(1), buf, 128);
        // RTS put, CTS poll, dynamic payload put.
        assert_eq!(ops.len(), 3);
        assert!(matches!(
            ops[0],
            HostOp::NicPost(NicCommand::Put(NetOp::Put { len: 0, .. }))
        ));
        assert!(matches!(ops[1], HostOp::Poll { at_least: 1, .. }));
        assert!(matches!(ops[2], HostOp::NicPostDynamic(_)));

        let rops = w.recv_ops(&HostConfig::default(), NodeId(0), NodeId(1), buf, 128);
        // RTS poll, recv stack, CTS build, CTS put, payload poll.
        assert_eq!(rops.len(), 5);
        assert!(matches!(rops[0], HostOp::Poll { at_least: 1, .. }));
        assert!(matches!(rops[4], HostOp::Poll { at_least: 1, .. }));
    }

    #[test]
    fn rendezvous_sequences_advance_independently_of_eager() {
        let mut mem = MemPool::new(2);
        let traffic = [(0, 1, 32), (0, 1, 128), (0, 1, 32), (0, 1, 128)];
        let mut w = MpiWorld::new(&mut mem, 64, &traffic);
        let buf = Addr::base(NodeId(0), mem.alloc(NodeId(0), 1024, "buf"));
        // Interleave eager and rendezvous sends; each protocol keeps its
        // own sequence numbers.
        let _ = w.send_ops(NodeId(0), NodeId(1), buf, 32); // eager #1
        let big1 = w.send_ops(NodeId(0), NodeId(1), buf, 128); // rdv #1
        let _ = w.send_ops(NodeId(0), NodeId(1), buf, 32); // eager #2
        let big2 = w.send_ops(NodeId(0), NodeId(1), buf, 128); // rdv #2
        let seq_of = |ops: &[HostOp]| match ops[1] {
            HostOp::Poll { at_least, .. } => at_least,
            _ => panic!("expected poll"),
        };
        assert_eq!(seq_of(&big1), 1);
        assert_eq!(seq_of(&big2), 2);
    }

    #[test]
    fn recv_copy_moves_slot_payload() {
        let mut mem = MemPool::new(2);
        let mut w = MpiWorld::new(&mut mem, 128, &zero_to_one(1, 16));
        let cfg = HostConfig::default();
        let user = Addr::base(NodeId(1), mem.alloc(NodeId(1), 128, "user"));
        let ops = w.recv_ops(&cfg, NodeId(0), NodeId(1), user, 16);
        // Simulate the NIC having deposited into slot 0.
        let slot0 = w.channels[&(0, 1)].slots;
        mem.write(slot0, &[9u8; 16]);
        if let HostOp::Func(f) = &ops[2] {
            f(&mut mem);
        } else {
            panic!("expected copy func");
        }
        assert_eq!(mem.read(user, 16), &[9u8; 16]);
    }
}
