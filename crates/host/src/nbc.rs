//! libNBC-style non-blocking collective schedules (§5.4.1).
//!
//! "When a collective application is called from the application, libNBC
//! creates a schedule of subtasks that completely define all operations and
//! dependencies" — and that schedule shape "maps perfectly to the triggered
//! operation semantics in GPU-TN". This module is that schedule generator:
//! collectives compile to [`Round`]s of send / recv / reduce subtasks, which
//! the strategy layer lowers to host programs (CPU/HDN), pre-posted
//! operations plus kernel-boundary doorbells (GDS), or pre-registered
//! triggered puts driven from a single persistent kernel (GPU-TN).
//!
//! Three Allreduce generators and one AllGather are implemented:
//!
//! * [`ring_allreduce`] — the ring of Fig. 2/Fig. 10: a reduce-scatter
//!   phase followed by an allgather phase, `2(P−1)` rounds total, each
//!   moving `N/P` elements to the ring successor.
//! * [`tree_allreduce`] — a binomial reduce onto rank 0 followed by the
//!   mirrored broadcast, `2⌈log₂P⌉` rounds moving the whole vector;
//!   latency-optimal for small vectors, bandwidth-poor for large ones.
//! * [`hierarchical_allreduce`] — Rabenseifner-style: binomial reduce
//!   inside each group onto its leader, a ring allreduce among the
//!   leaders (one chunk per group), then the mirrored intra-group
//!   broadcast. On a multi-tier fabric the leader ring is the only
//!   cross-group traffic.
//! * [`rhd_allreduce`] — recursive halving-doubling (power-of-two `P`):
//!   a reduce-scatter of `log₂P` pairwise exchanges at distances
//!   `P/2, P/4, …, 1` with message sizes `N/2, N/4, …, N/P`, mirrored
//!   into the allgather. Bandwidth-optimal like the ring but in
//!   logarithmic rounds — and maximally bisection-hungry: the first
//!   round crosses half the machine with half the vector from every
//!   rank at once.
//! * [`ring_allgather`] — each rank contributes one chunk and after
//!   `P−1` rounds every rank holds all of them.
//!
//! All generators emit globally lock-step rounds: every rank's schedule
//! has the same round count (a rank idle in a round has an empty round),
//! so strategy lowerings can index per-round completion flags uniformly.

use serde::{Deserialize, Serialize};

/// One subtask of a schedule round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NbcOp {
    /// Send `chunk` (by index) to `peer`.
    Send {
        /// Destination rank.
        peer: u32,
        /// Chunk index within the vector.
        chunk: u32,
    },
    /// Receive `chunk` from `peer` into the staging area.
    Recv {
        /// Source rank.
        peer: u32,
        /// Chunk index within the vector.
        chunk: u32,
    },
    /// Combine the received copy of `chunk` into the local vector
    /// (the user-specified binary op; `+` in the evaluation).
    Reduce {
        /// Chunk index.
        chunk: u32,
    },
    /// Overwrite the local copy of `chunk` with the received (already fully
    /// reduced) copy — the allgather phase's commit.
    Replace {
        /// Chunk index.
        chunk: u32,
    },
}

/// A set of subtasks that may proceed once the previous round completed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Round(pub Vec<NbcOp>);

/// A complete collective schedule for one rank.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    /// Rank this schedule belongs to.
    pub rank: u32,
    /// Participating ranks.
    pub n_ranks: u32,
    /// How many chunks the vector is split into for this schedule (the
    /// `chunk` indices in ops range over `0..n_chunks`): `P` for the ring
    /// schedules, `1` for the binomial tree (whole-vector moves), the
    /// group count for the hierarchical schedule.
    pub n_chunks: u32,
    /// The rounds, in dependency order.
    pub rounds: Vec<Round>,
}

/// Element range `[offset, offset+len)` of chunk `c` when `total` elements
/// are split across `p` chunks (remainder spread over the leading chunks).
pub fn chunk_range(c: u32, total: u64, p: u32) -> (u64, u64) {
    let p64 = p as u64;
    let c64 = c as u64;
    let base = total / p64;
    let rem = total % p64;
    let len = base + u64::from(c64 < rem);
    let offset = c64 * base + c64.min(rem);
    (offset, len)
}

/// The ring Allreduce schedule for `rank` of `n_ranks`.
///
/// Reduce-scatter rounds `r = 0..P−1`: rank `i` sends chunk `(i − r) mod P`
/// to `(i+1) mod P` and receives+reduces chunk `(i − r − 1) mod P`.
/// Allgather rounds: rank `i` sends chunk `(i + 1 − r) mod P` and
/// receives+replaces chunk `(i − r) mod P`.
pub fn ring_allreduce(rank: u32, n_ranks: u32) -> Schedule {
    assert!(n_ranks >= 2, "allreduce needs at least 2 ranks");
    assert!(rank < n_ranks);
    let p = n_ranks;
    let next = (rank + 1) % p;
    let prev = (rank + p - 1) % p;
    let md = |x: i64| ((x % p as i64 + p as i64) % p as i64) as u32;

    let mut rounds = Vec::with_capacity(2 * (p as usize - 1));
    for r in 0..p - 1 {
        let send_chunk = md(rank as i64 - r as i64);
        let recv_chunk = md(rank as i64 - r as i64 - 1);
        rounds.push(Round(vec![
            NbcOp::Send {
                peer: next,
                chunk: send_chunk,
            },
            NbcOp::Recv {
                peer: prev,
                chunk: recv_chunk,
            },
            NbcOp::Reduce { chunk: recv_chunk },
        ]));
    }
    for r in 0..p - 1 {
        let send_chunk = md(rank as i64 + 1 - r as i64);
        let recv_chunk = md(rank as i64 - r as i64);
        rounds.push(Round(vec![
            NbcOp::Send {
                peer: next,
                chunk: send_chunk,
            },
            NbcOp::Recv {
                peer: prev,
                chunk: recv_chunk,
            },
            NbcOp::Replace { chunk: recv_chunk },
        ]));
    }
    Schedule {
        rank,
        n_ranks,
        n_chunks: p,
        rounds,
    }
}

/// Rounds of a binomial tree over `m` leaves (0 when `m == 1`).
fn tree_rounds(m: u32) -> u32 {
    32 - (m - 1).leading_zeros().min(32)
}

/// The binomial-tree Allreduce schedule for `rank` of `n_ranks`: reduce
/// onto rank 0 in `⌈log₂P⌉` rounds, then the mirrored broadcast. The
/// whole vector moves as a single chunk (`n_chunks == 1`), so the tree is
/// latency-optimal (fewest rounds) but moves `P·N` bytes total. Works for
/// any `P ≥ 2`, power of two or not.
pub fn tree_allreduce(rank: u32, n_ranks: u32) -> Schedule {
    assert!(n_ranks >= 2, "allreduce needs at least 2 ranks");
    assert!(rank < n_ranks);
    let depth = tree_rounds(n_ranks);
    let mut rounds = Vec::with_capacity(2 * depth as usize);
    for r in 0..depth {
        rounds.push(Round(tree_round_ops(rank, n_ranks, r, false)));
    }
    for r in (0..depth).rev() {
        rounds.push(Round(tree_round_ops(rank, n_ranks, r, true)));
    }
    Schedule {
        rank,
        n_ranks,
        n_chunks: 1,
        rounds,
    }
}

/// Ops of binomial round `r` for `rank` of `n`: in the reduce direction
/// ranks with bit `r` set (and bits below clear) send the vector to their
/// parent `rank − 2^r`, which receives and reduces; `broadcast` mirrors
/// the edge (parent sends, child replaces).
fn tree_round_ops(rank: u32, n: u32, r: u32, broadcast: bool) -> Vec<NbcOp> {
    let span = 1u32 << (r + 1);
    let half = 1u32 << r;
    let mut ops = Vec::new();
    if rank % span == half {
        let parent = rank - half;
        if broadcast {
            ops.push(NbcOp::Recv {
                peer: parent,
                chunk: 0,
            });
            ops.push(NbcOp::Replace { chunk: 0 });
        } else {
            ops.push(NbcOp::Send {
                peer: parent,
                chunk: 0,
            });
        }
    } else if rank.is_multiple_of(span) && rank + half < n {
        let child = rank + half;
        if broadcast {
            ops.push(NbcOp::Send {
                peer: child,
                chunk: 0,
            });
        } else {
            ops.push(NbcOp::Recv {
                peer: child,
                chunk: 0,
            });
            ops.push(NbcOp::Reduce { chunk: 0 });
        }
    }
    ops
}

/// The largest divisor of `n` no bigger than `⌊√n⌋` — the default group
/// size for [`hierarchical_allreduce`] (primes degrade to 1, i.e. a pure
/// leader ring).
pub fn auto_group_size(n: u32) -> u32 {
    let mut best = 1;
    let mut d = 1;
    while d * d <= n {
        if n.is_multiple_of(d) {
            best = d;
        }
        d += 1;
    }
    best
}

/// The hierarchical (Rabenseifner-style) Allreduce for `rank` of
/// `n_ranks`, with `group_size` consecutive ranks per group (`n_ranks`
/// must divide evenly). Three phases under one global round numbering:
///
/// 1. `⌈log₂m⌉` rounds of binomial reduce inside each group onto its
///    leader (the group's first rank), moving the whole vector;
/// 2. `2(G−1)` rounds of ring Allreduce among the `G` leaders over
///    `n_chunks == G` chunks — the only cross-group traffic;
/// 3. the mirrored intra-group broadcast.
///
/// Non-leaders idle (empty rounds) through phase 2.
pub fn hierarchical_allreduce(rank: u32, n_ranks: u32, group_size: u32) -> Schedule {
    assert!(n_ranks >= 2, "allreduce needs at least 2 ranks");
    assert!(rank < n_ranks);
    assert!(group_size >= 1, "group_size must be at least 1");
    assert!(
        n_ranks.is_multiple_of(group_size),
        "group_size {group_size} must divide n_ranks {n_ranks}"
    );
    let m = group_size;
    let groups = n_ranks / m;
    let local = rank % m;
    let leader = rank - local;
    let depth = tree_rounds(m);
    let g = rank / m;
    let md = |x: i64| ((x % groups as i64 + groups as i64) % groups as i64) as u32;

    let mut rounds = Vec::new();
    // Phase 1: intra-group binomial reduce onto the leader. The whole
    // vector moves, expressed as every chunk so the chunk math stays
    // uniform across phases.
    for r in 0..depth {
        let mut ops = Vec::new();
        for op in tree_round_ops(local, m, r, false) {
            for c in 0..groups {
                ops.push(retarget(op, leader, c));
            }
        }
        rounds.push(Round(ops));
    }
    // Phase 2: ring Allreduce among leaders over G chunks (empty for
    // non-leaders, absent entirely for a single group).
    if groups >= 2 {
        let next = md(g as i64 + 1) * m;
        let prev = md(g as i64 - 1) * m;
        for r in 0..groups - 1 {
            let mut ops = Vec::new();
            if local == 0 {
                let send_chunk = md(g as i64 - r as i64);
                let recv_chunk = md(g as i64 - r as i64 - 1);
                ops.push(NbcOp::Send {
                    peer: next,
                    chunk: send_chunk,
                });
                ops.push(NbcOp::Recv {
                    peer: prev,
                    chunk: recv_chunk,
                });
                ops.push(NbcOp::Reduce { chunk: recv_chunk });
            }
            rounds.push(Round(ops));
        }
        for r in 0..groups - 1 {
            let mut ops = Vec::new();
            if local == 0 {
                let send_chunk = md(g as i64 + 1 - r as i64);
                let recv_chunk = md(g as i64 - r as i64);
                ops.push(NbcOp::Send {
                    peer: next,
                    chunk: send_chunk,
                });
                ops.push(NbcOp::Recv {
                    peer: prev,
                    chunk: recv_chunk,
                });
                ops.push(NbcOp::Replace { chunk: recv_chunk });
            }
            rounds.push(Round(ops));
        }
    }
    // Phase 3: intra-group broadcast, the reduce phase mirrored.
    for r in (0..depth).rev() {
        let mut ops = Vec::new();
        for op in tree_round_ops(local, m, r, true) {
            for c in 0..groups {
                ops.push(retarget(op, leader, c));
            }
        }
        rounds.push(Round(ops));
    }
    Schedule {
        rank,
        n_ranks,
        n_chunks: groups,
        rounds,
    }
}

/// Rebase a local-rank op onto absolute ranks (`+ leader`) and chunk `c`.
fn retarget(op: NbcOp, leader: u32, c: u32) -> NbcOp {
    match op {
        NbcOp::Send { peer, .. } => NbcOp::Send {
            peer: peer + leader,
            chunk: c,
        },
        NbcOp::Recv { peer, .. } => NbcOp::Recv {
            peer: peer + leader,
            chunk: c,
        },
        NbcOp::Reduce { .. } => NbcOp::Reduce { chunk: c },
        NbcOp::Replace { .. } => NbcOp::Replace { chunk: c },
    }
}

/// The recursive halving-doubling Allreduce for `rank` of `n_ranks`
/// (`n_ranks` must be a power of two). Over `n_chunks == P` chunks:
///
/// * Reduce-scatter rounds `j = 0..log₂P`: exchange with the partner at
///   distance `P/2^(j+1)` (`rank XOR stride`). Each side sends the half
///   of its current segment the partner is responsible for and reduces
///   the received half, so segments halve every round; after the last
///   round rank `i` owns the fully reduced chunk `i`.
/// * Allgather rounds mirror the reduce-scatter in reverse: the same
///   partners at doubling distances, each side replacing the partner's
///   segment, so segments double back to the whole vector.
///
/// Every round is a symmetric pairwise exchange, and the largest
/// messages travel the largest distances — the opposite locality profile
/// from [`hierarchical_allreduce`], which keeps bulk traffic inside a
/// group.
pub fn rhd_allreduce(rank: u32, n_ranks: u32) -> Schedule {
    assert!(n_ranks >= 2, "allreduce needs at least 2 ranks");
    assert!(
        n_ranks.is_power_of_two(),
        "halving-doubling needs a power-of-two rank count, got {n_ranks}"
    );
    assert!(rank < n_ranks);
    let p = n_ranks;
    let k = p.trailing_zeros();
    let mut rounds = Vec::with_capacity(2 * k as usize);

    // Reduce-scatter: vector halving, distance halving. Track the chunk
    // segment `[lo, lo+sz)` this rank still owns; keep the half that
    // contains chunk `rank`, send the other half to the partner.
    let mut lo = 0u32;
    let mut sz = p;
    for j in 0..k {
        let stride = p >> (j + 1);
        let partner = rank ^ stride;
        let half = sz / 2;
        let (keep_lo, send_lo) = if rank & stride == 0 {
            (lo, lo + half)
        } else {
            (lo + half, lo)
        };
        let mut ops = Vec::with_capacity(3 * half as usize);
        for c in send_lo..send_lo + half {
            ops.push(NbcOp::Send {
                peer: partner,
                chunk: c,
            });
        }
        for c in keep_lo..keep_lo + half {
            ops.push(NbcOp::Recv {
                peer: partner,
                chunk: c,
            });
            ops.push(NbcOp::Reduce { chunk: c });
        }
        rounds.push(Round(ops));
        lo = keep_lo;
        sz = half;
    }

    // Allgather: the reduce-scatter mirrored — same partners, reverse
    // order, segments doubling from `[rank, rank+1)` back to the vector.
    for j in (0..k).rev() {
        let stride = p >> (j + 1);
        let partner = rank ^ stride;
        let partner_lo = if rank & stride == 0 { lo + sz } else { lo - sz };
        let mut ops = Vec::with_capacity(3 * sz as usize);
        for c in lo..lo + sz {
            ops.push(NbcOp::Send {
                peer: partner,
                chunk: c,
            });
        }
        for c in partner_lo..partner_lo + sz {
            ops.push(NbcOp::Recv {
                peer: partner,
                chunk: c,
            });
            ops.push(NbcOp::Replace { chunk: c });
        }
        rounds.push(Round(ops));
        lo = lo.min(partner_lo);
        sz *= 2;
    }
    Schedule {
        rank,
        n_ranks,
        n_chunks: p,
        rounds,
    }
}

/// The ring AllGather for `rank` of `n_ranks`: rank `i` contributes chunk
/// `i`; in round `r` it sends chunk `(i − r) mod P` to its successor and
/// replaces chunk `(i − r − 1) mod P` from its predecessor. After `P−1`
/// rounds every rank holds every chunk.
pub fn ring_allgather(rank: u32, n_ranks: u32) -> Schedule {
    assert!(n_ranks >= 2, "allgather needs at least 2 ranks");
    assert!(rank < n_ranks);
    let p = n_ranks;
    let next = (rank + 1) % p;
    let prev = (rank + p - 1) % p;
    let md = |x: i64| ((x % p as i64 + p as i64) % p as i64) as u32;

    let mut rounds = Vec::with_capacity(p as usize - 1);
    for r in 0..p - 1 {
        let send_chunk = md(rank as i64 - r as i64);
        let recv_chunk = md(rank as i64 - r as i64 - 1);
        rounds.push(Round(vec![
            NbcOp::Send {
                peer: next,
                chunk: send_chunk,
            },
            NbcOp::Recv {
                peer: prev,
                chunk: recv_chunk,
            },
            NbcOp::Replace { chunk: recv_chunk },
        ]));
    }
    Schedule {
        rank,
        n_ranks,
        n_chunks: p,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn chunk_ranges_partition_the_vector() {
        for (total, p) in [(100u64, 4u32), (7, 3), (8 * 1024 * 1024 / 4, 32), (5, 8)] {
            let mut covered = 0u64;
            let mut next_offset = 0u64;
            for c in 0..p {
                let (off, len) = chunk_range(c, total, p);
                assert_eq!(off, next_offset, "chunks contiguous");
                next_offset = off + len;
                covered += len;
            }
            assert_eq!(covered, total, "total={total} p={p}");
        }
    }

    #[test]
    fn schedule_has_2p_minus_2_rounds() {
        for p in [2u32, 3, 8, 32] {
            let s = ring_allreduce(0, p);
            assert_eq!(s.rounds.len(), 2 * (p as usize - 1));
        }
    }

    /// Symbolic replay of a lock-step schedule set: track, per rank and
    /// chunk, the set of ranks whose contribution is folded in. Rounds
    /// gather all sends first, then every recv must match exactly one
    /// in-flight message; Reduce unions the sender's set, Replace adopts
    /// it. Returns the final `state[rank][chunk]` contributor sets.
    fn replay(schedules: &[Schedule]) -> Vec<Vec<BTreeSet<u32>>> {
        let chunks = schedules[0].n_chunks;
        let n_rounds = schedules[0].rounds.len();
        for s in schedules {
            assert_eq!(s.rounds.len(), n_rounds, "rounds must be lock-step");
            assert_eq!(s.n_chunks, chunks, "chunk split must agree");
        }
        // state[rank][chunk] = contributor set
        let mut state: Vec<Vec<BTreeSet<u32>>> = (0..schedules.len() as u32)
            .map(|r| (0..chunks).map(|_| BTreeSet::from([r])).collect())
            .collect();
        for round in 0..n_rounds {
            let mut in_flight: Vec<(u32, u32, BTreeSet<u32>)> = Vec::new(); // (to, chunk, set)
            for s in schedules {
                for op in &s.rounds[round].0 {
                    if let NbcOp::Send { peer, chunk } = op {
                        in_flight.push((
                            *peer,
                            *chunk,
                            state[s.rank as usize][*chunk as usize].clone(),
                        ));
                    }
                }
            }
            for s in schedules {
                for op in &s.rounds[round].0 {
                    match op {
                        NbcOp::Recv { peer, chunk } => {
                            let matches: Vec<_> = in_flight
                                .iter()
                                .filter(|(to, c, _)| *to == s.rank && c == chunk)
                                .collect();
                            assert_eq!(
                                matches.len(),
                                1,
                                "round={round} rank={} chunk={chunk} peer={peer}",
                                s.rank
                            );
                        }
                        NbcOp::Reduce { chunk } => {
                            let (_, _, set) = in_flight
                                .iter()
                                .find(|(to, c, _)| *to == s.rank && c == chunk)
                                .unwrap()
                                .clone();
                            state[s.rank as usize][*chunk as usize].extend(set);
                        }
                        NbcOp::Replace { chunk } => {
                            let (_, _, set) = in_flight
                                .iter()
                                .find(|(to, c, _)| *to == s.rank && c == chunk)
                                .unwrap()
                                .clone();
                            state[s.rank as usize][*chunk as usize] = set;
                        }
                        NbcOp::Send { .. } => {}
                    }
                }
            }
        }
        state
    }

    /// Every rank ends up holding every chunk with contributions from
    /// every rank (the Allreduce postcondition).
    fn assert_full_reduction(schedules: &[Schedule], label: &str) {
        let p = schedules.len() as u32;
        let state = replay(schedules);
        let full: BTreeSet<u32> = (0..p).collect();
        for (r, chunks) in state.iter().enumerate() {
            for (c, set) in chunks.iter().enumerate() {
                assert_eq!(set, &full, "{label} p={p} rank={r} chunk={c} incomplete");
            }
        }
    }

    #[test]
    fn symbolic_replay_produces_full_reduction_everywhere() {
        for p in [2u32, 3, 4, 5, 8, 16] {
            let schedules: Vec<Schedule> = (0..p).map(|r| ring_allreduce(r, p)).collect();
            assert_full_reduction(&schedules, "ring");
        }
    }

    #[test]
    fn tree_allreduce_reduces_fully_in_logarithmic_rounds() {
        for p in [2u32, 3, 4, 5, 7, 8, 13, 16, 31] {
            let schedules: Vec<Schedule> = (0..p).map(|r| tree_allreduce(r, p)).collect();
            let depth = (p as f64).log2().ceil() as usize;
            assert_eq!(schedules[0].rounds.len(), 2 * depth, "p={p}");
            assert_eq!(schedules[0].n_chunks, 1);
            assert_full_reduction(&schedules, "tree");
        }
    }

    #[test]
    fn hierarchical_allreduce_reduces_fully_for_all_group_shapes() {
        for (p, m) in [
            (4u32, 2u32),
            (6, 2),
            (6, 3),
            (8, 2),
            (8, 4),
            (8, 8),
            (12, 3),
            (16, 4),
            (9, 3),
            (5, 1),
        ] {
            let schedules: Vec<Schedule> =
                (0..p).map(|r| hierarchical_allreduce(r, p, m)).collect();
            assert_full_reduction(&schedules, "hier");
            // Non-leaders idle through the leader-ring phase.
            let groups = p / m;
            let depth = if m == 1 {
                0
            } else {
                (m as f64).log2().ceil() as usize
            };
            let ring_rounds = if groups >= 2 {
                2 * (groups as usize - 1)
            } else {
                0
            };
            assert_eq!(
                schedules[0].rounds.len(),
                2 * depth + ring_rounds,
                "p={p} m={m}"
            );
            for s in &schedules {
                if s.rank % m != 0 {
                    for round in &s.rounds[depth..depth + ring_rounds] {
                        assert!(round.0.is_empty(), "non-leader active in ring phase");
                    }
                }
            }
        }
    }

    #[test]
    fn hierarchical_rejects_non_dividing_group_size() {
        let r = std::panic::catch_unwind(|| hierarchical_allreduce(0, 8, 3));
        assert!(r.is_err());
    }

    #[test]
    fn auto_group_size_picks_the_largest_divisor_below_sqrt() {
        assert_eq!(auto_group_size(8), 2);
        assert_eq!(auto_group_size(16), 4);
        assert_eq!(auto_group_size(36), 6);
        assert_eq!(auto_group_size(512), 16);
        assert_eq!(auto_group_size(13), 1); // prime: leader ring
        assert_eq!(auto_group_size(2), 1);
    }

    #[test]
    fn halving_doubling_reduces_fully_in_logarithmic_rounds() {
        for p in [2u32, 4, 8, 16, 32] {
            let schedules: Vec<Schedule> = (0..p).map(|r| rhd_allreduce(r, p)).collect();
            let k = p.trailing_zeros() as usize;
            assert_eq!(schedules[0].rounds.len(), 2 * k, "p={p}");
            assert_eq!(schedules[0].n_chunks, p);
            assert_full_reduction(&schedules, "rhd");
        }
    }

    #[test]
    fn halving_doubling_messages_halve_with_doubling_reach() {
        // Round j of the reduce-scatter moves P/2^(j+1) chunks between
        // partners P/2^(j+1) apart: the biggest messages travel farthest.
        let p = 16u32;
        for rank in 0..p {
            let s = rhd_allreduce(rank, p);
            for (j, round) in s.rounds[..4].iter().enumerate() {
                let stride = p >> (j + 1);
                let sends = round
                    .0
                    .iter()
                    .filter(|op| matches!(op, NbcOp::Send { .. }))
                    .count();
                assert_eq!(sends as u32, stride, "rank={rank} round={j}");
                for op in &round.0 {
                    if let NbcOp::Send { peer, .. } = op {
                        assert_eq!(*peer, rank ^ stride, "rank={rank} round={j}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn halving_doubling_rejects_non_power_of_two() {
        let _ = rhd_allreduce(0, 6);
    }

    #[test]
    fn allgather_distributes_every_chunk_to_every_rank() {
        for p in [2u32, 3, 4, 8, 16] {
            let schedules: Vec<Schedule> = (0..p).map(|r| ring_allgather(r, p)).collect();
            assert_eq!(schedules[0].rounds.len(), p as usize - 1);
            let state = replay(&schedules);
            // Chunk c everywhere holds exactly rank c's contribution.
            for (r, chunks) in state.iter().enumerate() {
                for c in 0..p {
                    assert_eq!(
                        chunks[c as usize],
                        BTreeSet::from([c]),
                        "p={p} rank={r} chunk={c}"
                    );
                }
            }
        }
    }

    #[test]
    fn sends_go_to_ring_successor_only() {
        let p = 8;
        for r in 0..p {
            let s = ring_allreduce(r, p);
            for round in &s.rounds {
                for op in &round.0 {
                    match op {
                        NbcOp::Send { peer, .. } => assert_eq!(*peer, (r + 1) % p),
                        NbcOp::Recv { peer, .. } => assert_eq!(*peer, (r + p - 1) % p),
                        _ => {}
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least 2 ranks")]
    fn single_rank_rejected() {
        let _ = ring_allreduce(0, 1);
    }
}
