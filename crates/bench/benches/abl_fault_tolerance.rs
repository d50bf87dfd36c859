//! Robustness ablation — Jacobi makespan under seeded packet loss with the
//! NIC reliability layer (retry/timeout/backoff) absorbing the drops.
//!
//! The paper's fabric is lossless; this extension asks what each strategy
//! pays when it is not. Every cell is the same Fig. 9 Jacobi problem,
//! bit-exact against the lossless run (the ARQ layer commits in order, so
//! loss shows up only in time), at increasing packet-loss rates. The
//! retransmit column shows how many wire ops the loss actually cost.
//!
//! Expected shape: at these message counts 0.1% loss is usually invisible
//! (no drop drawn, or the retransmit hides behind compute); 1% stretches
//! the makespan by roughly one RTO per drop on the critical path. The
//! strategies with more messages per iteration have more chances to lose
//! one — the GPU-TN single-kernel pipeline keeps more slack to hide a
//! retransmit than the kernel-boundary strategies.

use gtn_bench::sweep;
use gtn_core::Strategy;
use gtn_workloads::harness::{ConfigPatch, Harness};
use gtn_workloads::jacobi::{try_run_with_config, JacobiParams};

const N_LOCAL: u32 = 64;
const ITERS: u32 = 4;
const SEED: u64 = 0xF19;
const FAULT_SEED: u64 = 2;
const LOSS: [f64; 5] = [0.0, 0.001, 0.01, 0.05, 0.10];

/// One cell: microseconds per iteration, retransmits and the final
/// per-node interiors.
fn cell(strategy: Strategy, loss: f64) -> (f64, u64, Vec<Vec<f32>>) {
    let patch = ConfigPatch::loss(FAULT_SEED, loss);
    let r = try_run_with_config(
        JacobiParams::square4(N_LOCAL, ITERS, strategy, SEED),
        |config| patch.apply(config),
    )
    .unwrap_or_else(|f| panic!("{strategy} loss {loss}: {f}"));
    assert_eq!(
        r.scenario.delivery_failures, 0,
        "{strategy} exhausted a retry budget"
    );
    (
        r.scenario.per_iter.as_us_f64(),
        r.scenario.retransmits,
        r.interiors,
    )
}

fn main() {
    gtn_bench::header(
        "Ablation: Jacobi under seeded packet loss, ARQ reliability on (ext)",
        "LeBeane et al., SC'17 (lossless fabric assumption relaxed)",
    );
    println!(
        "{:<10} {:>12} {:>14} {:>12} {:>12}",
        "strategy", "loss", "us/iter", "slowdown", "retransmits"
    );
    // Each (strategy, loss) cell is an independent simulation; LOSS[0] is
    // the lossless baseline, so the slowdown denominator comes straight out
    // of the reassembled grid (no extra sequential run needed).
    let strategies = Harness::strategies();
    let descriptors: Vec<(Strategy, f64)> = strategies
        .iter()
        .flat_map(|&strategy| LOSS.iter().map(move |&loss| (strategy, loss)))
        .collect();
    let cells = sweep::run(descriptors, |(strategy, loss)| cell(strategy, loss));
    for (rows, strategy) in cells.chunks(LOSS.len()).zip(strategies) {
        let (base, _, lossless) = &rows[0];
        for (&loss, (us, retx, interiors)) in LOSS.iter().zip(rows) {
            assert!(
                interiors == lossless,
                "{strategy} at {}% loss diverges from its lossless grid",
                loss * 100.0
            );
            println!(
                "{:<10} {:>11.1}% {:>14.2} {:>11.2}x {:>12}",
                strategy.name(),
                loss * 100.0,
                us,
                us / base,
                retx
            );
        }
    }
    println!("\nevery lossy cell still matches the lossless grid bit-exactly: the ARQ");
    println!("layer turns loss into latency (one RTO per drop on the critical path),");
    println!("never into wrong answers or hangs.");
}
