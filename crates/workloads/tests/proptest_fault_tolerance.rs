//! End-to-end fault-tolerance properties: whatever seeded loss the fabric
//! draws (below certainty) and whichever strategy runs, Jacobi with the
//! ARQ layer on completes with the *same bits* as the lossless run — loss
//! may only cost time — and the whole lossy run is replay-deterministic.

use gtn_core::Strategy;
use gtn_fabric::FaultConfig;
use gtn_nic::reliability::ReliabilityConfig;
use gtn_workloads::jacobi::{run, try_run_with_config, JacobiParams, JacobiResult};
use proptest::prelude::*;

fn params(strategy: Strategy, n_local: u32) -> JacobiParams {
    JacobiParams::square4(n_local, 2, strategy, 0xA11CE)
}

/// A lossy run that must complete: seeded `loss_milli`/1000 loss with ARQ
/// on (`window == 0`) or a bounded window, and a 16-try retry budget.
fn lossy(
    strategy: Strategy,
    n_local: u32,
    fault_seed: u64,
    loss_milli: u64,
    window: u64,
) -> JacobiResult {
    try_run_with_config(params(strategy, n_local), |config| {
        config.fabric.faults = FaultConfig::loss(fault_seed, loss_milli as f64 / 1000.0);
        config.nic.reliability = if window == 0 {
            ReliabilityConfig::on()
        } else {
            ReliabilityConfig::bounded(window)
        };
        config.nic.reliability.max_retries = 16;
    })
    .unwrap_or_else(|f| panic!("{strategy} seed {fault_seed} loss {loss_milli}milli: {f}"))
}

fn strategy_from(ix: u8) -> Strategy {
    Strategy::all()[ix as usize % 4]
}

proptest! {
    // Each case is four full cluster runs; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Seeded loss below certainty plus a sufficient retry budget never
    /// changes the answer, only the clock: interiors match the lossless
    /// run bit-for-bit, nothing exhausts its budget.
    #[test]
    fn lossy_runs_are_bitexact_with_lossless(
        strategy_ix in 0u8..4,
        fault_seed in 0u64..10_000,
        loss_milli in 1u64..200,
        n_local in 4u32..9,
    ) {
        let strategy = strategy_from(strategy_ix);
        let baseline = run(params(strategy, n_local));
        let lossy = lossy(strategy, n_local, fault_seed, loss_milli, 0);
        prop_assert_eq!(lossy.scenario.delivery_failures, 0, "retry budget exhausted");
        prop_assert_eq!(&lossy.interiors, &baseline.interiors, "loss changed the answer");
        prop_assert!(lossy.scenario.total >= baseline.scenario.total, "loss cannot speed a run up");
    }

    /// Bounding the ARQ reorder buffer (with the matching credit-based
    /// flow control gating the sender) delivers the identical byte stream
    /// as the unbounded layer under the same seeded loss: the receiver
    /// sheds out-of-window arrivals instead of buffering without bound,
    /// the sender stalls at zero credit instead of overrunning, and none
    /// of it may change the computed answer or abandon a message.
    #[test]
    fn bounded_window_is_bitexact_with_unbounded_arq(
        strategy_ix in 0u8..4,
        fault_seed in 0u64..10_000,
        loss_milli in 1u64..200,
        window in 1u64..5,
    ) {
        let strategy = strategy_from(strategy_ix);
        let lossy = |window: u64| lossy(strategy, 6, fault_seed, loss_milli, window);
        let unbounded = lossy(0);
        let bounded = lossy(window);
        prop_assert_eq!(bounded.scenario.delivery_failures, 0, "retry budget exhausted");
        prop_assert_eq!(&bounded.interiors, &unbounded.interiors, "window changed the answer");
        // Bounded memory stays bounded *and* deterministic: a replay is
        // bit-identical in both time and counters.
        let again = lossy(window);
        prop_assert_eq!(again.scenario.total, bounded.scenario.total);
        prop_assert_eq!(again.scenario.retransmits, bounded.scenario.retransmits);
        prop_assert_eq!(&again.interiors, &bounded.interiors);
    }

    /// The same fault seed replays the same run exactly: same retransmit
    /// count, same makespan, same bits.
    #[test]
    fn lossy_runs_are_replay_deterministic(
        strategy_ix in 0u8..4,
        fault_seed in 0u64..10_000,
        loss_milli in 1u64..200,
    ) {
        let strategy = strategy_from(strategy_ix);
        let go = || lossy(strategy, 6, fault_seed, loss_milli, 0);
        let a = go();
        let b = go();
        prop_assert_eq!(a.scenario.retransmits, b.scenario.retransmits);
        prop_assert_eq!(a.scenario.total, b.scenario.total);
        prop_assert_eq!(&a.interiors, &b.interiors);
    }
}
