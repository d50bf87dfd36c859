//! Generic collective executor: any lock-step NBC schedule, all four
//! strategies.
//!
//! The libNBC framing of §5.4.1 says a collective *is* its schedule: rounds
//! of send / recv / reduce subtasks that "map perfectly to the triggered
//! operation semantics". This module takes that literally. It consumes the
//! per-rank [`Schedule`]s emitted by [`gtn_host::nbc`] (ring, binomial
//! tree, hierarchical Allreduce, ring AllGather — or anything else obeying
//! the lock-step contract) and lowers them onto the simulated cluster
//! once, instead of once per collective:
//!
//! - Per `(node, round)` the ops are coalesced into **segments**: runs of
//!   contiguous chunks to/from one peer become a single message. A tree
//!   round that moves the whole vector is one put, not `n_chunks` puts.
//! - Each node owns a per-round flag array; every inbound segment's put
//!   notifies `flags[round]`, so "round r's data is here" is one counter
//!   compare regardless of schedule shape.
//! - Incoming `Reduce` segments land in staging slots: each (receiver,
//!   sender) pair gets `min(STAGE_SLOTS, n)` slots for its `n` Reduce
//!   segments, each sized by the pair's largest one, and segment `k` uses
//!   slot `k % slots`. `Replace` segments land directly in the destination
//!   vector.
//!
//! Strategy lowerings: CPU/HDN speak matched send/recv over [`MpiWorld`]'s
//! eager channels (HDN folds in per-round kernels), GDS pre-registers each
//! round's puts to fire at the previous round's kernel-boundary doorbell
//! ([`KernelLaunch::ring_on_done`]), and GPU-TN runs the whole schedule
//! inside one persistent kernel that releases triggers, polls the round
//! flags, and reduces in place. The ring Allreduce of Fig. 10
//! ([`crate::allreduce`]) is this lowering of [`Collective::RingAllreduce`].
//!
//! A reused slot is safe on CPU/HDN because `recv` is program-ordered after
//! the previous occupant's fold. A one-sided put lands whenever the sender
//! fires it, so on GDS/GPU-TN a put into a reused slot waits for a
//! **credit**: once the receiver has folded the slot's previous occupant it
//! fires a 0-byte put back to the sender whose notify chains a trigger
//! write ([`Notify::count_then_trigger`]) onto the tag of the gated put,
//! registered with threshold 2 (the sender's own trigger plus the credit).
//! GDS fires credits from the fold kernel's doorbell; GPU-TN releases them
//! in the persistent kernel right after the next round's data triggers.
//!
//! Verification is a bit-exact sequential replay ([`replay`]): the same
//! schedules executed lock-step on plain `f32` vectors, with every Recv
//! paired with a Send of its round and sends read from a round-start
//! snapshot. Every strategy must reproduce the replay exactly —
//! float-for-float, not within a tolerance. The replay allocates nothing
//! per chunk, so checking a 512-rank run costs a fraction of simulating it.

use crate::allreduce::{cpu_reduce_time, fill_input, gpu_reduce_time, input_value};
use crate::harness::{Harness, JobFailure, ScenarioParams, ScenarioResult};
use gtn_core::cluster::Cluster;
use gtn_core::config::ClusterConfig;
use gtn_core::Strategy;
use gtn_gpu::kernel::ProgramBuilder;
use gtn_gpu::KernelLaunch;
use gtn_host::compute::CpuCompute;
use gtn_host::mpi::MpiWorld;
use gtn_host::nbc::{self, chunk_range, NbcOp, Schedule};
use gtn_host::HostProgram;
use gtn_mem::scope::{MemOrdering, MemScope};
use gtn_mem::{Addr, MemPool, NodeId};
use gtn_nic::lookup::LookupKind;
use gtn_nic::nic::NicCommand;
use gtn_nic::op::{NetOp, Notify};
use gtn_nic::Tag;
use gtn_sim::hash::{HashMap, HashSet, MixState};
use gtn_sim::time::SimDuration;
use std::collections::BTreeMap;

/// Most staging slots a (receiver, sender) pair gets. A ring runs at most
/// a few rounds ahead of its successor's folds; the credits keep a
/// one-sided sender from overrunning a slot that is still unfolded.
const STAGE_SLOTS: usize = 4;

/// Cap on the two-sided lane's eager limit. Segments above this go through
/// the MPI rendezvous protocol (RTS/CTS, zero-copy) instead of consuming
/// up to `4×` their size in mailbox memory per channel — a whole-vector
/// tree round at 512 nodes must not allocate gigabytes of eager buffers.
/// Exchange rounds (a rank both sends and receives) are exempt: their
/// segments always go eager, because a rendezvous cycle (everyone
/// blocked polling CTS from a peer that is itself blocked) would deadlock.
const EAGER_CAP: u64 = 16 * 1024;

/// The schedule families the executor knows how to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Collective {
    /// [`nbc::ring_allreduce`]: `2(P−1)` rounds of `N/P`-element chunks.
    RingAllreduce,
    /// [`nbc::tree_allreduce`]: binomial reduce + broadcast, whole-vector
    /// moves.
    TreeAllreduce,
    /// [`nbc::hierarchical_allreduce`] with the given group size (0 means
    /// [`nbc::auto_group_size`]).
    HierAllreduce {
        /// Ranks per group; must divide the node count (0 = auto).
        group_size: u32,
    },
    /// [`nbc::rhd_allreduce`]: recursive halving-doubling, `2·log₂P`
    /// pairwise-exchange rounds (power-of-two `P` only).
    RhdAllreduce,
    /// [`nbc::ring_allgather`]: `P−1` rounds, rank `i` contributes chunk
    /// `i`.
    RingAllgather,
}

impl Collective {
    /// The schedule of `rank` among `n` ranks.
    pub fn schedule(&self, rank: u32, n: u32) -> Schedule {
        match *self {
            Collective::RingAllreduce => nbc::ring_allreduce(rank, n),
            Collective::TreeAllreduce => nbc::tree_allreduce(rank, n),
            Collective::HierAllreduce { group_size } => {
                let m = if group_size == 0 {
                    nbc::auto_group_size(n)
                } else {
                    group_size
                };
                nbc::hierarchical_allreduce(rank, n, m)
            }
            Collective::RhdAllreduce => nbc::rhd_allreduce(rank, n),
            Collective::RingAllgather => nbc::ring_allgather(rank, n),
        }
    }

    /// All ranks' schedules, lock-step checked.
    pub fn schedules(&self, n: u32) -> Vec<Schedule> {
        let out: Vec<Schedule> = (0..n).map(|r| self.schedule(r, n)).collect();
        for s in &out[1..] {
            assert_eq!(s.rounds.len(), out[0].rounds.len(), "lock-step rounds");
            assert_eq!(s.n_chunks, out[0].n_chunks, "uniform chunking");
        }
        out
    }
}

/// Parameters of one collective run.
#[derive(Debug, Clone, Copy)]
pub struct CollectiveParams {
    /// Participating nodes.
    pub nodes: u32,
    /// Elements of the f32 vector.
    pub elems: u64,
    /// Strategy.
    pub strategy: Strategy,
    /// Seed for the input vectors.
    pub seed: u64,
}

/// Result of one run.
#[derive(Debug)]
pub struct CollectiveResult {
    /// The unified result (total = slowest node's completion).
    pub scenario: ScenarioResult,
    /// Final vector of every rank.
    pub vectors: Vec<Vec<f32>>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Disposition {
    Reduce,
    Replace,
}

/// One coalesced inbound message: contiguous chunks from one peer, all
/// with the same commit disposition.
#[derive(Debug, Clone, Copy)]
struct InSeg {
    peer: u32,
    first_chunk: u32,
    n_chunks: u32,
    elem_off: u64,
    elems: u64,
    disp: Disposition,
    /// Byte offset of the segment's staging slot (Reduce segments only).
    stage_off: u64,
    /// The slot held an earlier segment of this pair: a one-sided put
    /// into it waits for the receiver's credit.
    gated: bool,
    /// `(round, tag)`: the pair's segment of `round` reuses this slot next,
    /// so once this one is folded the receiver credits that put, firing
    /// the credit under its own trigger `tag`.
    credit: Option<(usize, Tag)>,
}

/// One coalesced outbound message.
#[derive(Debug, Clone, Copy)]
struct OutSeg {
    peer: u32,
    first_chunk: u32,
    n_chunks: u32,
    elem_off: u64,
    elems: u64,
    /// Trigger tag of the put, unique across the node's schedule (the
    /// trigger list holds one op per tag).
    tag: Tag,
}

#[derive(Debug, Default)]
struct RoundPlan {
    out: Vec<OutSeg>,
    inb: Vec<InSeg>,
    /// Total elements folded by this round's Reduce segments.
    reduce_elems: u64,
}

#[derive(Debug)]
struct NodePlan {
    rounds: Vec<RoundPlan>,
    /// Staging bytes: every pair's slots.
    stage_bytes: u64,
}

/// Element range `[off, off+len)` covered by chunks `first..first+n`.
fn seg_range(first: u32, n: u32, elems: u64, n_chunks: u32) -> (u64, u64) {
    let (off, _) = chunk_range(first, elems, n_chunks);
    let (last_off, last_len) = chunk_range(first + n - 1, elems, n_chunks);
    (off, last_off + last_len - off)
}

/// Compile one rank's schedule into per-round message segments.
fn plan_node(s: &Schedule, elems: u64) -> NodePlan {
    let nc = s.n_chunks;
    let mut next_tag = 0u64;
    let mut rounds = Vec::with_capacity(s.rounds.len());
    for round in &s.rounds {
        // One map per round, sized for its folds: each map draws the next
        // keys in the thread's `MixState` sequence, so building fewer would
        // re-key every map built after this plan.
        let folds = round
            .0
            .iter()
            .filter(|op| matches!(op, NbcOp::Reduce { .. } | NbcOp::Replace { .. }))
            .count();
        let mut disp: HashMap<u32, Disposition> =
            HashMap::with_capacity_and_hasher(folds, MixState::default());
        for op in &round.0 {
            match *op {
                NbcOp::Reduce { chunk } => {
                    disp.insert(chunk, Disposition::Reduce);
                }
                NbcOp::Replace { chunk } => {
                    disp.insert(chunk, Disposition::Replace);
                }
                _ => {}
            }
        }
        let mut rp = RoundPlan::default();
        for op in &round.0 {
            match *op {
                NbcOp::Send { peer, chunk } => {
                    if let Some(last) = rp.out.last_mut() {
                        if last.peer == peer && last.first_chunk + last.n_chunks == chunk {
                            last.n_chunks += 1;
                            continue;
                        }
                    }
                    rp.out.push(OutSeg {
                        peer,
                        first_chunk: chunk,
                        n_chunks: 1,
                        elem_off: 0,
                        elems: 0,
                        tag: Tag(next_tag),
                    });
                    next_tag += 1;
                }
                NbcOp::Recv { peer, chunk } => {
                    let d = *disp
                        .get(&chunk)
                        .expect("recv chunk has no reduce/replace in its round");
                    if let Some(last) = rp.inb.last_mut() {
                        if last.peer == peer
                            && last.first_chunk + last.n_chunks == chunk
                            && last.disp == d
                        {
                            last.n_chunks += 1;
                            continue;
                        }
                    }
                    rp.inb.push(InSeg {
                        peer,
                        first_chunk: chunk,
                        n_chunks: 1,
                        elem_off: 0,
                        elems: 0,
                        disp: d,
                        stage_off: 0,
                        gated: false,
                        credit: None,
                    });
                }
                _ => {}
            }
        }
        // The MPI channel carries messages in round order; with more than
        // one segment per (round, peer) the sender's and receiver's
        // within-round orders could disagree. No generator emits that
        // shape; fail loudly if one ever does.
        let mut peers = HashSet::default();
        for o in &rp.out {
            assert!(peers.insert(o.peer), "two outbound segments to one peer");
        }
        peers.clear();
        for i in &rp.inb {
            assert!(peers.insert(i.peer), "two inbound segments from one peer");
        }
        for o in &mut rp.out {
            let (off, len) = seg_range(o.first_chunk, o.n_chunks, elems, nc);
            o.elem_off = off;
            o.elems = len;
        }
        for i in &mut rp.inb {
            let (off, len) = seg_range(i.first_chunk, i.n_chunks, elems, nc);
            i.elem_off = off;
            i.elems = len;
            if i.disp == Disposition::Reduce {
                rp.reduce_elems += len;
            }
        }
        rounds.push(rp);
    }

    // Staging: each sender's Reduce segments, in round order, take turns
    // in that pair's slots.
    let mut pairs: BTreeMap<u32, Vec<(usize, usize)>> = BTreeMap::new();
    for (r, rp) in rounds.iter().enumerate() {
        for (k, i) in rp.inb.iter().enumerate() {
            if i.disp == Disposition::Reduce {
                pairs.entry(i.peer).or_default().push((r, k));
            }
        }
    }
    let mut stage_bytes = 0u64;
    for segs in pairs.values() {
        let slots = segs.len().min(STAGE_SLOTS);
        let slot_bytes = segs
            .iter()
            .map(|&(r, k)| rounds[r].inb[k].elems * 4)
            .max()
            .unwrap_or(0);
        for (n, &(r, k)) in segs.iter().enumerate() {
            let i = &mut rounds[r].inb[k];
            i.stage_off = stage_bytes + (n % slots) as u64 * slot_bytes;
            i.gated = n >= slots;
            i.credit = segs.get(n + slots).map(|&(later, _)| {
                next_tag += 1;
                (later, Tag(next_tag - 1))
            });
        }
        stage_bytes += slots as u64 * slot_bytes;
    }
    NodePlan {
        rounds,
        stage_bytes,
    }
}

#[derive(Debug, Clone, Copy)]
struct NodeBufs {
    vec: Addr,
    stage: Addr,
    flags: Addr,
    comp: Addr,
    /// Arrival counter of the credits this node receives.
    credit: Addr,
}

/// Sequential lock-step replay of `schedules` on plain vectors: the
/// bit-exact reference every strategy must reproduce. `state[i]` holds rank
/// `i`'s input; it is folded in place and returned as the rank's result.
///
/// Each round runs in three steps:
/// 1. Every chunk a rank sends is copied into a round-start snapshot, so a
///    send carries the sender's state as the round began.
/// 2. Every Recv must pair with a Send: the `(sender, receiver, chunk)`
///    keys of both sides are packed into `u64`s, sorted and merged.
/// 3. Each rank walks its ops in order. A Reduce folds `local + incoming`
///    into the rank's live vector, exactly like the simulated `zip_f32s`,
///    and a Replace copies incoming over it. Incoming is the snapshot
///    taken at the peer of the chunk's last Recv before the op.
///
/// Rounds reuse the snapshot and the two key buffers, and allocate nothing
/// per chunk. A round costs one chunk copy per Send, one chunk fold or copy
/// per Reduce or Replace, and a sort of its Send and Recv keys.
pub fn replay(schedules: &[Schedule], mut state: Vec<Vec<f32>>) -> Vec<Vec<f32>> {
    assert_eq!(schedules.len(), state.len());
    let nc = schedules[0].n_chunks;
    let elems = state[0].len() as u64;
    // Chunk `c` spans elements `bounds[c]..bounds[c + 1]`.
    let bounds: Vec<usize> = (0..=nc)
        .map(|c| chunk_range(c, elems, nc).0 as usize)
        .collect();
    let span = |chunk: u32| bounds[chunk as usize]..bounds[chunk as usize + 1];
    let key = |from: u32, to: u32, chunk: u32| {
        assert!(
            from.max(to).max(chunk) < 1 << 21,
            "ranks and chunks fit 21 bits"
        );
        u64::from(from) << 42 | u64::from(to) << 21 | u64::from(chunk)
    };
    let mut snap: Vec<Vec<f32>> = state.iter().map(|v| vec![0.0; v.len()]).collect();
    let (mut sends, mut recvs) = (Vec::new(), Vec::new());
    // Per chunk, the walk (one rank's ops in one round) of its last Recv,
    // and that Recv's peer.
    let mut pending = vec![(usize::MAX, 0u32); nc as usize];
    let mut walk = 0;
    for r in 0..schedules[0].rounds.len() {
        sends.clear();
        recvs.clear();
        for s in schedules {
            let rank = s.rank as usize;
            for op in &s.rounds[r].0 {
                match *op {
                    NbcOp::Send { peer, chunk } => {
                        sends.push(key(s.rank, peer, chunk));
                        let c = span(chunk);
                        snap[rank][c.clone()].copy_from_slice(&state[rank][c]);
                    }
                    NbcOp::Recv { peer, chunk } => recvs.push(key(peer, s.rank, chunk)),
                    NbcOp::Reduce { .. } | NbcOp::Replace { .. } => {}
                }
            }
        }
        sends.sort_unstable();
        recvs.sort_unstable();
        let mut i = 0;
        for k in &recvs {
            while sends.get(i).is_some_and(|s| s < k) {
                i += 1;
            }
            assert!(sends.get(i) == Some(k), "every recv has a matching send");
        }
        for s in schedules {
            walk += 1;
            let live = &mut state[s.rank as usize];
            for op in &s.rounds[r].0 {
                match *op {
                    NbcOp::Recv { peer, chunk } => pending[chunk as usize] = (walk, peer),
                    NbcOp::Reduce { chunk } => {
                        let (w, peer) = pending[chunk as usize];
                        assert!(w == walk, "recv precedes reduce");
                        let c = span(chunk);
                        for (d, v) in live[c.clone()].iter_mut().zip(&snap[peer as usize][c]) {
                            *d += *v;
                        }
                    }
                    NbcOp::Replace { chunk } => {
                        let (w, peer) = pending[chunk as usize];
                        assert!(w == walk, "recv precedes replace");
                        let c = span(chunk);
                        live[c.clone()].copy_from_slice(&snap[peer as usize][c]);
                    }
                    NbcOp::Send { .. } => {}
                }
            }
        }
    }
    state
}

/// The expected per-rank result of `kind` on the deterministic inputs.
pub fn reference(kind: Collective, nodes: u32, elems: u64, seed: u64) -> Vec<Vec<f32>> {
    let inputs = (0..nodes)
        .map(|r| (0..elems).map(|j| input_value(seed, r, j)).collect())
        .collect();
    replay(&kind.schedules(nodes), inputs)
}

/// Run `kind`, applying `mutate` to the cluster config after the
/// executor's defaults are set. Rejected params or config come back as
/// [`JobFailure::Invalid`], a run the failure detector or watchdog
/// terminated as [`JobFailure::Stalled`].
pub fn try_run_with_config(
    name: &'static str,
    kind: Collective,
    params: CollectiveParams,
    mutate: impl FnOnce(&mut ClusterConfig),
) -> Result<CollectiveResult, JobFailure> {
    let (cluster, vecs, scenario) = execute(name, kind, params, None, mutate)?;
    let vectors = vecs
        .iter()
        .map(|&v| cluster.mem().read_f32s(v, params.elems as usize))
        .collect();
    Ok(CollectiveResult { scenario, vectors })
}

/// Lower `kind` onto the cluster and run it. Position `k` contributes
/// rank `ranks[k]`'s input vector (rank `k`'s without a map). Returns the
/// finished cluster, every position's vector address and the result.
pub(crate) fn execute(
    name: &'static str,
    kind: Collective,
    params: CollectiveParams,
    ranks: Option<&[u32]>,
    mutate: impl FnOnce(&mut ClusterConfig),
) -> Result<(Cluster, Vec<Addr>, ScenarioResult), JobFailure> {
    let p = params.nodes;
    let invalid = |why: String| Err(JobFailure::Invalid(why));
    if p < 2 {
        return invalid(format!("collectives need at least 2 nodes, got {p}"));
    }
    match kind {
        Collective::RhdAllreduce if !p.is_power_of_two() => {
            return invalid(format!(
                "halving-doubling needs a power-of-two node count, got {p}"
            ));
        }
        Collective::HierAllreduce { group_size }
            if group_size != 0 && !p.is_multiple_of(group_size) =>
        {
            return invalid(format!("group size {group_size} does not divide {p} nodes"));
        }
        _ => {}
    }
    if let Some(map) = ranks {
        if map.len() != p as usize {
            return invalid(format!("{} original ranks for {p} positions", map.len()));
        }
    }
    let schedules = kind.schedules(p);
    let nc = schedules[0].n_chunks;
    let rcount = schedules[0].rounds.len();
    if params.elems < nc as u64 {
        return invalid(format!("{} elements cannot fill {nc} chunks", params.elems));
    }

    let mut config = ClusterConfig::table2(p);
    config.log_events = false;
    config.nic.lookup = LookupKind::HashTable;
    // Segment flights are microseconds; a 500 ns poll quantum is invisible
    // in the results and keeps event counts sane at scale.
    config.gpu.poll_interval_ns = 500;
    config.host.poll_interval_ns = 500;
    mutate(&mut config);
    config.validate().map_err(JobFailure::Invalid)?;

    let plans: Vec<NodePlan> = schedules
        .iter()
        .map(|s| plan_node(s, params.elems))
        .collect();

    let mut mem = MemPool::new(p as usize);
    let bufs: Vec<NodeBufs> = (0..p)
        .map(|node| {
            let id = NodeId(node);
            let b = NodeBufs {
                vec: Addr::base(id, mem.alloc(id, params.elems * 4, "col.vec")),
                stage: Addr::base(
                    id,
                    mem.alloc(id, plans[node as usize].stage_bytes, "col.stage"),
                ),
                flags: Addr::base(id, mem.alloc(id, rcount as u64 * 8, "col.flags")),
                comp: Addr::base(id, mem.alloc(id, 8, "col.comp")),
                credit: Addr::base(id, mem.alloc(id, 8, "col.credit")),
            };
            // The input vector, written straight into `col.vec`.
            let rank = ranks.map_or(node, |m| m[node as usize]);
            let vec = mem
                .try_read_mut(b.vec, params.elems * 4)
                .expect("col.vec holds the whole vector");
            fill_input(params.seed, rank, vec);
            b
        })
        .collect();

    // Eager limit: cap at EAGER_CAP, but exchange rounds (send and
    // recv in the same round) must stay eager — see the cap's doc.
    let mut max_seg = 4u64;
    let mut max_exchange_seg = 0u64;
    let mut messages: Vec<(u32, u32, u64)> = Vec::new();
    for (node, plan) in plans.iter().enumerate() {
        for rp in &plan.rounds {
            for o in &rp.out {
                max_seg = max_seg.max(o.elems * 4);
                if !rp.inb.is_empty() {
                    max_exchange_seg = max_exchange_seg.max(o.elems * 4);
                }
                messages.push((node as u32, o.peer, o.elems * 4));
            }
        }
    }
    let eager_limit = max_seg.min(EAGER_CAP).max(max_exchange_seg);

    let mut world = matches!(params.strategy, Strategy::Cpu | Strategy::Hdn)
        .then(|| MpiWorld::new(&mut mem, eager_limit, &messages));
    let cpu_model = CpuCompute::new(config.host.clone());

    let mut programs = Vec::with_capacity(p as usize);
    for node in 0..p {
        let plan = &plans[node as usize];
        let b = bufs[node as usize];

        // The put realizing outbound segment `o` of round `r`, with its
        // trigger threshold: destination and notify flag come from the
        // receiver's mirrored inbound plan, and a put into a reused slot
        // also waits for the receiver's credit.
        let put_for = |r: usize, o: &OutSeg, completion: bool| -> (NetOp, u64) {
            let mirror = plans[o.peer as usize].rounds[r]
                .inb
                .iter()
                .find(|i| i.peer == node)
                .expect("receiver's schedule mirrors this send");
            assert_eq!(
                (mirror.first_chunk, mirror.n_chunks),
                (o.first_chunk, o.n_chunks),
                "send/recv segments must mirror"
            );
            let pb = bufs[o.peer as usize];
            let dst = match mirror.disp {
                Disposition::Reduce => pb.stage.offset_by(mirror.stage_off),
                Disposition::Replace => pb.vec.offset_by(mirror.elem_off * 4),
            };
            let put = NetOp::Put {
                src: b.vec.offset_by(o.elem_off * 4),
                len: o.elems * 4,
                target: NodeId(o.peer),
                dst,
                notify: Some(Notify::count(pb.flags.offset_by(r as u64 * 8))),
                completion: completion.then_some(b.comp),
            };
            (put, if mirror.gated { 2 } else { 1 })
        };
        // The same put pre-registered under its segment's tag.
        let register = |r: usize, o: &OutSeg, completion: bool| {
            let (op, threshold) = put_for(r, o, completion);
            NicCommand::TriggeredPut {
                tag: o.tag,
                threshold,
                op,
            }
        };

        // The credits this node owes once round `r` is folded: 0-byte puts
        // to the sender, registered under this node's own trigger tag. The
        // put bumps the sender's credit counter and chains the tag of the
        // gated put.
        let credits = |r: usize| -> Vec<NicCommand> {
            plan.rounds[r]
                .inb
                .iter()
                .filter_map(|i| {
                    let (later, tag) = i.credit?;
                    let sender = bufs[i.peer as usize];
                    let gated_put = plans[i.peer as usize].rounds[later]
                        .out
                        .iter()
                        .find(|o| o.peer == node)
                        .expect("sender's schedule mirrors this recv");
                    Some(NicCommand::TriggeredPut {
                        tag,
                        threshold: 1,
                        op: NetOp::Put {
                            src: b.credit,
                            len: 0,
                            target: NodeId(i.peer),
                            dst: sender.credit,
                            notify: Some(Notify::count_then_trigger(sender.credit, gated_put.tag)),
                            completion: None,
                        },
                    })
                })
                .collect()
        };
        let credit_tags = |r: usize| {
            plan.rounds[r]
                .inb
                .iter()
                .filter_map(|i| i.credit.map(|(_, tag)| tag))
        };

        // The fold list of round `r`: (vec dst, stage src, elements).
        let reduce_list = |r: usize| -> Vec<(Addr, Addr, u64)> {
            plan.rounds[r]
                .inb
                .iter()
                .filter(|i| i.disp == Disposition::Reduce)
                .map(|i| {
                    (
                        b.vec.offset_by(i.elem_off * 4),
                        b.stage.offset_by(i.stage_off),
                        i.elems,
                    )
                })
                .collect()
        };
        let apply_reduces = |mem: &mut MemPool, list: &[(Addr, Addr, u64)]| {
            for &(dst, src, n) in list {
                // acc_new = local + incoming (matches `replay`).
                mem.zip_f32s(dst, src, n as usize, |local, incoming| local + incoming)
                    .expect("reduce in bounds");
            }
        };

        let mut prog = HostProgram::new();
        match params.strategy {
            Strategy::Cpu | Strategy::Hdn => {
                let world = world.as_mut().expect("two-sided strategies build a world");
                for r in 0..rcount {
                    let rp = &plan.rounds[r];
                    for o in &rp.out {
                        prog.extend(world.send_ops(
                            NodeId(node),
                            NodeId(o.peer),
                            b.vec.offset_by(o.elem_off * 4),
                            o.elems * 4,
                        ));
                    }
                    for i in &rp.inb {
                        let dst = match i.disp {
                            Disposition::Reduce => b.stage.offset_by(i.stage_off),
                            Disposition::Replace => b.vec.offset_by(i.elem_off * 4),
                        };
                        prog.extend(world.recv_ops(
                            &config.host,
                            NodeId(i.peer),
                            NodeId(node),
                            dst,
                            i.elems * 4,
                        ));
                    }
                    if params.strategy == Strategy::Cpu {
                        if rp.reduce_elems > 0 {
                            let list = reduce_list(r);
                            prog.compute(cpu_reduce_time(&cpu_model, rp.reduce_elems));
                            prog.func(move |mem| apply_reduces(mem, &list));
                        }
                    } else if !rp.inb.is_empty() {
                        // §5.3: HDN re-enters a kernel every communication
                        // round, paying the boundary even when the round
                        // only forwards data.
                        let label = format!("r{r}");
                        let builder = if rp.reduce_elems > 0 {
                            let list = reduce_list(r);
                            ProgramBuilder::new()
                                .compute(gpu_reduce_time(rp.reduce_elems))
                                .func(move |mem, _| apply_reduces(mem, &list))
                        } else {
                            ProgramBuilder::new().compute(SimDuration::from_ns(100))
                        };
                        let kernel = builder.build().expect("valid kernel");
                        prog.launch(KernelLaunch::new(kernel, 1, 64, &label));
                        prog.wait_kernel(&label);
                    }
                }
            }
            Strategy::Gds => {
                // Round 0's sends move initial data: the CPU posts them
                // directly. Every later round's sends are pre-registered
                // and fire at the previous round's kernel boundary; each
                // round's credits fire at its fold kernel's boundary.
                for o in &plan.rounds[0].out {
                    prog.nic_post(NicCommand::Put(put_for(0, o, false).0));
                }
                for r in 0..rcount {
                    let next = plan.rounds.get(r + 1).map_or(&[][..], |rp| &rp.out[..]);
                    for o in next {
                        prog.nic_post(register(r + 1, o, false));
                    }
                    for credit in credits(r) {
                        prog.nic_post(credit);
                    }
                    let rp = &plan.rounds[r];
                    if !rp.inb.is_empty() {
                        prog.poll(b.flags.offset_by(r as u64 * 8), rp.inb.len() as u64);
                    }
                    let label = format!("k{r}");
                    let builder = if rp.reduce_elems > 0 {
                        let list = reduce_list(r);
                        ProgramBuilder::new()
                            .compute(gpu_reduce_time(rp.reduce_elems))
                            .func(move |mem, _| apply_reduces(mem, &list))
                            .fence(MemScope::System, MemOrdering::Release)
                    } else {
                        // Idle or forward round: the kernel exists to give
                        // the next round's sends their boundary.
                        ProgramBuilder::new().compute(SimDuration::from_ns(100))
                    };
                    let kernel = builder.build().expect("valid kernel");
                    let rings = next.iter().map(|o| o.tag).chain(credit_tags(r));
                    prog.launch(KernelLaunch::new(kernel, 1, 64, &label).ring_on_done(rings));
                    prog.wait_kernel(&label);
                }
            }
            Strategy::GpuTn => {
                // One persistent kernel for the node's whole schedule. Each
                // round releases its data triggers, then the credits for
                // the previous round's folds.
                let mut builder = ProgramBuilder::new();
                let mut any = false;
                for (r, rp) in plan.rounds.iter().enumerate() {
                    let mut tags: Vec<Tag> = rp.out.iter().map(|o| o.tag).collect();
                    if r > 0 {
                        tags.extend(credit_tags(r - 1));
                    }
                    if !tags.is_empty() {
                        builder = builder.release_triggers(&tags);
                        any = true;
                    }
                    if !rp.inb.is_empty() {
                        let flag = b.flags.offset_by(r as u64 * 8);
                        builder = builder.poll(move |_| flag, rp.inb.len() as u64);
                        any = true;
                    }
                    if rp.reduce_elems > 0 {
                        let list = reduce_list(r);
                        builder = builder
                            .compute(gpu_reduce_time(rp.reduce_elems))
                            .func(move |mem, _| apply_reduces(mem, &list));
                    }
                }
                if any {
                    let kernel = builder.build().expect("valid persistent kernel");
                    prog.launch(KernelLaunch::new(kernel, 1, 64, "persistent"));
                }
                // Just-in-time posting throttled by local completions.
                let mut posted = 0u64;
                for (r, rp) in plan.rounds.iter().enumerate() {
                    for o in &rp.out {
                        prog.nic_post(register(r, o, true));
                    }
                    if r > 0 {
                        for credit in credits(r - 1) {
                            prog.nic_post(credit);
                        }
                    }
                    posted += rp.out.len() as u64;
                    if !rp.out.is_empty() {
                        prog.poll(b.comp, posted);
                    }
                }
                if any {
                    prog.wait_kernel("persistent");
                }
            }
        }
        programs.push(prog);
    }

    let sparams = ScenarioParams::new(params.strategy)
        .nodes(p)
        .size(params.elems)
        .seed(params.seed);
    let (cluster, scenario) = Harness::try_execute(name, &sparams, config, mem, programs)?;
    Ok((cluster, bufs.iter().map(|b| b.vec).collect(), scenario))
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: [Collective; 5] = [
        Collective::RingAllreduce,
        Collective::TreeAllreduce,
        Collective::HierAllreduce { group_size: 0 },
        Collective::RhdAllreduce,
        Collective::RingAllgather,
    ];

    #[test]
    fn replay_of_the_ring_matches_the_specialized_reference() {
        // The generic replay and the ring workload's chain-sum reference
        // are independent derivations of the same arithmetic.
        for (nodes, elems) in [(5u32, 1001u64), (4, 64), (2, 16)] {
            let got = reference(Collective::RingAllreduce, nodes, elems, 7);
            let want = crate::allreduce::reference(nodes, elems, 7);
            for (rank, v) in got.iter().enumerate() {
                assert_eq!(v, &want, "rank {rank} P={nodes}");
            }
        }
    }

    #[test]
    fn allreduce_kinds_replay_to_rank_identical_results() {
        for kind in [
            Collective::RingAllreduce,
            Collective::TreeAllreduce,
            Collective::HierAllreduce { group_size: 0 },
            Collective::RhdAllreduce,
        ] {
            let vs = reference(kind, 8, 64, 3);
            for (rank, v) in vs.iter().enumerate() {
                assert_eq!(v, &vs[0], "{kind:?} rank {rank}");
            }
        }
    }

    #[test]
    fn allgather_replay_collects_every_contribution() {
        let (nodes, elems, seed) = (5u32, 101u64, 9);
        let vs = reference(Collective::RingAllgather, nodes, elems, seed);
        for rank in 0..nodes {
            for c in 0..nodes {
                let (off, len) = chunk_range(c, elems, nodes);
                for j in off..off + len {
                    assert_eq!(
                        vs[rank as usize][j as usize],
                        input_value(seed, c, j),
                        "rank {rank} chunk {c}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_kind_and_strategy_reproduces_the_replay_bit_exactly() {
        // Small configs keep this fast; the smoke-scale runs live in the
        // workload invariants suite.
        for kind in KINDS {
            let (nodes, elems, seed) = (4u32, 256u64, 0xC0FFEE);
            let expect = reference(kind, nodes, elems, seed);
            for strategy in Strategy::all() {
                let r = try_run_with_config(
                    "collective_test",
                    kind,
                    CollectiveParams {
                        nodes,
                        elems,
                        strategy,
                        seed,
                    },
                    |_| {},
                )
                .unwrap_or_else(|f| panic!("{kind:?} {strategy}: {f}"));
                for (rank, v) in r.vectors.iter().enumerate() {
                    assert_eq!(v, &expect[rank], "{kind:?} {strategy} rank {rank}");
                }
            }
        }
    }

    #[test]
    fn odd_node_counts_and_ragged_chunks_verify() {
        for (kind, nodes, elems) in [
            (Collective::TreeAllreduce, 5u32, 77u64),
            (Collective::HierAllreduce { group_size: 3 }, 9, 130),
            (Collective::RhdAllreduce, 8, 77),
            (Collective::RingAllgather, 3, 31),
        ] {
            let expect = reference(kind, nodes, elems, 11);
            for strategy in [Strategy::Cpu, Strategy::GpuTn] {
                let r = try_run_with_config(
                    "collective_test",
                    kind,
                    CollectiveParams {
                        nodes,
                        elems,
                        strategy,
                        seed: 11,
                    },
                    |_| {},
                )
                .unwrap_or_else(|f| panic!("{kind:?} {strategy}: {f}"));
                for (rank, v) in r.vectors.iter().enumerate() {
                    assert_eq!(v, &expect[rank], "{kind:?} {strategy} rank {rank}");
                }
            }
        }
    }

    /// One rank's plan as `(stage bytes, gated segments, credits, bytes
    /// its Reduce segments carry)`.
    fn staging(plan: &NodePlan) -> (u64, usize, usize, u64) {
        let segs = || plan.rounds.iter().flat_map(|rp| &rp.inb);
        let reduce_bytes = segs()
            .filter(|i| i.disp == Disposition::Reduce)
            .map(|i| i.elems * 4)
            .sum();
        let gated = segs().filter(|i| i.gated).count();
        let credits = segs().filter(|i| i.credit.is_some()).count();
        (plan.stage_bytes, gated, credits, reduce_bytes)
    }

    #[test]
    fn ring_reuses_four_slots_per_pair_and_credits_every_reuse() {
        // 31 Reduce segments per pair: slots 0..3 take turns, segment k >= 4
        // waits for the credit its slot's previous occupant (k - 4) sends.
        let (nodes, elems) = (32u32, 32 * 1024u64);
        let chunk_bytes = elems / nodes as u64 * 4;
        for rank in [0, 17, 31] {
            let plan = plan_node(&nbc::ring_allreduce(rank, nodes), elems);
            let (stage, gated, credits, _) = staging(&plan);
            assert_eq!(stage, 4 * chunk_bytes, "rank {rank} stages 4 slots");
            assert_eq!((gated, credits), (27, 27), "rank {rank}");
            for (r, rp) in plan.rounds.iter().enumerate() {
                let rs = r < nodes as usize - 1;
                for i in &rp.inb {
                    assert_eq!(i.gated, rs && r >= 4, "rank {rank} round {r}");
                    let credited = rs && r + 4 < nodes as usize - 1;
                    assert_eq!(i.credit.map(|c| c.0), credited.then_some(r + 4));
                    if rs {
                        assert_eq!(i.stage_off, (r as u64 % 4) * chunk_bytes);
                    }
                }
            }
        }
    }

    #[test]
    fn halving_doubling_and_tree_take_no_credits() {
        // One Reduce segment per pair: one slot each, the same bytes the
        // segments themselves carry.
        for (kind, nodes) in [
            (Collective::RhdAllreduce, 16u32),
            (Collective::TreeAllreduce, 5),
            (Collective::TreeAllreduce, 16),
        ] {
            for s in kind.schedules(nodes) {
                let (stage, gated, credits, reduce_bytes) = staging(&plan_node(&s, 1000));
                assert_eq!((gated, credits), (0, 0), "{kind:?} rank {}", s.rank);
                assert_eq!(stage, reduce_bytes, "{kind:?} rank {}", s.rank);
            }
        }
    }

    #[test]
    fn whole_vector_segments_coalesce_to_one_message() {
        // Hierarchical phase 1 moves all G chunks to the leader as ONE
        // put, not G puts.
        let s = nbc::hierarchical_allreduce(1, 8, 4);
        let plan = plan_node(&s, 1024);
        let first = &plan.rounds[0];
        assert_eq!(first.out.len(), 1, "one coalesced segment");
        assert_eq!(first.out[0].elems, 1024, "whole vector");
    }
}
