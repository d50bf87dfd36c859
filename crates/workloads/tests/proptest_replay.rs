//! Contract of the collective oracle, `collective::replay`:
//!
//! 1. **Equivalence** — on every schedule family (ring, tree, hierarchical,
//!    halving-doubling Allreduce and ring AllGather) at 2–64 ranks, and on
//!    two hand-built lock-step sets no generator emits, `replay` returns
//!    the same `f32` bits as the per-chunk `HashMap` replay it replaced,
//!    kept here verbatim as the model.
//! 2. **Failures** — a Recv with no matching Send, and a Reduce or Replace
//!    with no Recv before it in its round, panic with their messages.
//! 3. **Pinned outputs** — two `reference` results hash to digests
//!    recorded before the rewrite.

use gtn_host::nbc::{chunk_range, NbcOp, Round, Schedule};
use gtn_sim::rng::SimRng;
use gtn_workloads::collective::{reference, replay, Collective};
use proptest::prelude::*;
use std::collections::HashMap;

/// The replay before the round-start snapshot: every round clones each
/// sent chunk into a map keyed by `(sender, receiver, chunk)`, and each
/// received chunk again into a per-rank `pending` map.
fn model_replay(schedules: &[Schedule], inputs: &[Vec<f32>]) -> Vec<Vec<f32>> {
    assert_eq!(schedules.len(), inputs.len());
    let nc = schedules[0].n_chunks;
    let elems = inputs[0].len() as u64;
    let mut state = inputs.to_vec();
    for r in 0..schedules[0].rounds.len() {
        let mut msgs: HashMap<(u32, u32, u32), Vec<f32>> = HashMap::new();
        for s in schedules {
            for op in &s.rounds[r].0 {
                if let NbcOp::Send { peer, chunk } = *op {
                    let (off, len) = chunk_range(chunk, elems, nc);
                    let v = state[s.rank as usize][off as usize..(off + len) as usize].to_vec();
                    msgs.insert((s.rank, peer, chunk), v);
                }
            }
        }
        for s in schedules {
            let mut pending: HashMap<u32, Vec<f32>> = HashMap::new();
            for op in &s.rounds[r].0 {
                match *op {
                    NbcOp::Recv { peer, chunk } => {
                        let m = msgs
                            .get(&(peer, s.rank, chunk))
                            .expect("every recv has a matching send")
                            .clone();
                        pending.insert(chunk, m);
                    }
                    NbcOp::Reduce { chunk } => {
                        let m = pending.get(&chunk).expect("recv precedes reduce");
                        let (off, _) = chunk_range(chunk, elems, nc);
                        for (j, v) in m.iter().enumerate() {
                            let d = &mut state[s.rank as usize][off as usize + j];
                            *d += *v;
                        }
                    }
                    NbcOp::Replace { chunk } => {
                        let m = pending.get(&chunk).expect("recv precedes replace");
                        let (off, _) = chunk_range(chunk, elems, nc);
                        state[s.rank as usize][off as usize..off as usize + m.len()]
                            .copy_from_slice(m);
                    }
                    NbcOp::Send { .. } => {}
                }
            }
        }
    }
    state
}

/// `n` random input vectors of `elems` values in `[-1, 1)`.
fn inputs(n: usize, elems: u64, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = SimRng::seeded(seed);
    (0..n)
        .map(|_| (0..elems).map(|_| rng.range_f32(-1.0, 1.0)).collect())
        .collect()
}

/// `replay` and the model agree on every element's bits.
fn check(schedules: &[Schedule], elems: u64, seed: u64) -> Result<(), TestCaseError> {
    let input = inputs(schedules.len(), elems, seed);
    let want = model_replay(schedules, &input);
    let got = replay(schedules, input);
    for (rank, (g, w)) in got.iter().zip(&want).enumerate() {
        prop_assert_eq!(g.len(), w.len(), "rank {} length", rank);
        for (j, (x, y)) in g.iter().zip(w).enumerate() {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "rank {} element {}", rank, j);
        }
    }
    Ok(())
}

/// Kind `k` of the five families at about `n` ranks: halving-doubling
/// rounds `n` to a power of two, and the hierarchical group size is
/// automatic (`g == 0`) or the largest divisor of `n` not above `g`.
fn family(k: usize, n: u32, g: u32) -> (Collective, u32) {
    match k {
        0 => (Collective::RingAllreduce, n),
        1 => (Collective::TreeAllreduce, n),
        2 => {
            let group_size = (1..=g.min(n))
                .rev()
                .find(|&d| n.is_multiple_of(d))
                .unwrap_or(0);
            (Collective::HierAllreduce { group_size }, n)
        }
        3 => (Collective::RhdAllreduce, n.next_power_of_two()),
        _ => (Collective::RingAllgather, n),
    }
}

fn schedule(rank: u32, n_ranks: u32, n_chunks: u32, rounds: Vec<Vec<NbcOp>>) -> Schedule {
    Schedule {
        rank,
        n_ranks,
        n_chunks,
        rounds: rounds.into_iter().map(Round).collect(),
    }
}

fn send(peer: u32, chunk: u32) -> NbcOp {
    NbcOp::Send { peer, chunk }
}

fn recv(peer: u32, chunk: u32) -> NbcOp {
    NbcOp::Recv { peer, chunk }
}

fn reduce(chunk: u32) -> NbcOp {
    NbcOp::Reduce { chunk }
}

fn replace(chunk: u32) -> NbcOp {
    NbcOp::Replace { chunk }
}

/// Two ranks that each send a chunk and reduce into it in the same round,
/// with the Send before and after the fold: every send must carry the
/// round-start state, not the peer's already-folded chunk.
fn exchange_into_sent_chunks() -> Vec<Schedule> {
    vec![
        schedule(
            0,
            2,
            2,
            vec![
                vec![send(1, 0), recv(1, 0), reduce(0)],
                vec![recv(1, 1), reduce(1), send(1, 1)],
                vec![recv(1, 0), replace(0), send(1, 0), send(1, 1)],
            ],
        ),
        schedule(
            1,
            2,
            2,
            vec![
                vec![recv(0, 0), reduce(0), send(0, 0)],
                vec![send(0, 1), recv(0, 1), reduce(1)],
                vec![send(0, 0), recv(0, 0), reduce(0), recv(0, 1), replace(1)],
            ],
        ),
    ]
}

/// Rank 0 reduces chunk 0 from two peers in one round, then takes the
/// last of two Recvs of chunk 1 in a later round.
fn reduce_from_two_peers() -> Vec<Schedule> {
    vec![
        schedule(
            0,
            3,
            2,
            vec![
                vec![recv(1, 0), reduce(0), recv(2, 0), reduce(0)],
                vec![send(1, 0), send(2, 0)],
                vec![recv(1, 1), recv(2, 1), reduce(1)],
            ],
        ),
        schedule(
            1,
            3,
            2,
            vec![
                vec![send(0, 0)],
                vec![recv(0, 0), replace(0)],
                vec![send(0, 1)],
            ],
        ),
        schedule(
            2,
            3,
            2,
            vec![
                vec![send(0, 0)],
                vec![recv(0, 0), replace(0)],
                vec![send(0, 1)],
            ],
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn replay_matches_the_hash_map_model_on_every_family(
        k in 0usize..5,
        n in 2u32..65,
        g in 0u32..9,
        extra in 0u64..3000,
        seed in any::<u64>(),
    ) {
        let (kind, n) = family(k, n, g);
        let schedules = kind.schedules(n);
        check(&schedules, u64::from(schedules[0].n_chunks) + extra, seed)?;
    }

    #[test]
    fn replay_matches_the_model_on_hand_built_sets(
        extra in 0u64..200,
        seed in any::<u64>(),
    ) {
        // Two chunks: even sizes and ragged ones (the first chunk longer).
        check(&exchange_into_sent_chunks(), 2 + extra, seed)?;
        check(&reduce_from_two_peers(), 2 + extra, seed)?;
    }
}

#[test]
#[should_panic(expected = "every recv has a matching send")]
fn recv_without_a_send_panics() {
    // Rank 0's Recv pairs with rank 1's Send; rank 1's Recv pairs with none.
    let schedules = [
        schedule(0, 2, 1, vec![vec![recv(1, 0), reduce(0)]]),
        schedule(1, 2, 1, vec![vec![send(0, 0), recv(0, 0), reduce(0)]]),
    ];
    replay(&schedules, inputs(2, 8, 1));
}

#[test]
#[should_panic(expected = "recv precedes reduce")]
fn reduce_of_a_chunk_only_another_rank_received_panics() {
    let schedules = [
        schedule(0, 2, 1, vec![vec![recv(1, 0), reduce(0)]]),
        schedule(1, 2, 1, vec![vec![send(0, 0), reduce(0)]]),
    ];
    replay(&schedules, inputs(2, 8, 1));
}

#[test]
#[should_panic(expected = "recv precedes replace")]
fn replace_without_a_recv_before_it_in_its_round_panics() {
    // Rank 0's Recvs of chunk 0 come a round early and an op late.
    let schedules = [
        schedule(
            0,
            2,
            1,
            vec![vec![recv(1, 0)], vec![replace(0), recv(1, 0)]],
        ),
        schedule(1, 2, 1, vec![vec![send(0, 0)], vec![send(0, 0)]]),
    ];
    replay(&schedules, inputs(2, 8, 1));
}

/// FNV-1a over the `f32` bits of every rank's result, one word per value.
fn digest(vectors: &[Vec<f32>]) -> u64 {
    vectors
        .iter()
        .flatten()
        .fold(0xCBF2_9CE4_8422_2325, |h, x| {
            (h ^ u64::from(x.to_bits())).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

#[test]
fn reference_outputs_are_pinned() {
    // Recorded with the per-chunk `HashMap` replay.
    let rhd = reference(Collective::RhdAllreduce, 64, 1000, 7);
    assert_eq!(digest(&rhd), 0x7a8b_c9ba_d629_bb25);
    let hier = reference(Collective::HierAllreduce { group_size: 3 }, 9, 999, 3);
    assert_eq!(digest(&hier), 0x463b_e080_c6e2_1039);
}
