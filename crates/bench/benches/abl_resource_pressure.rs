//! Robustness ablation — Jacobi under NIC resource exhaustion: shrinking
//! associative trigger CAMs (entries spill to the host overflow table)
//! crossed with shrinking bounded completion queues (full rings park
//! commits behind the modeled consumer).
//!
//! The paper's prototype holds 16 simultaneously-active trigger entries
//! (§3.3) and never models CQ depth; this extension asks what each
//! strategy pays when those resources are scarce. Every cell is the same
//! Fig. 9 Jacobi problem, bit-exact against the unpressured run — the
//! spill table and CQ backpressure preserve semantics, so pressure shows
//! up only in time (the spill-match surcharge and `cq_stall` waits) and
//! in the exhaustion counters reported alongside.
//!
//! Expected shape: a 1-way CAM forces nearly every registration through
//! the overflow table (spills ≈ promotions, a fixed surcharge per match);
//! a 2-entry CQ parks bursts of completions behind the drain cadence. The
//! GPU-TN persistent kernel, holding the most concurrently-armed
//! triggers, leans hardest on the spill path.
//!
//! Emits `BENCH_abl_resource_pressure.json`. `GTN_BENCH_SMOKE` shrinks
//! the sweep for CI.

use gtn_bench::report::{self, obj, s, Json};
use gtn_bench::sweep;
use gtn_core::Strategy;
use gtn_workloads::harness::{ConfigPatch, Harness, ResourceLimits};
use gtn_workloads::jacobi::{try_run_with_config, JacobiParams, JacobiResult};

const N_LOCAL: u32 = 64;
const ITERS: u32 = 4;
const SEED: u64 = 0xF19;

/// (trigger CAM ways, CQ depth); `0` means unbounded (the seed model).
const CELLS: [(u32, u64); 7] = [(0, 0), (16, 16), (16, 2), (4, 8), (2, 4), (1, 2), (1, 0)];
const SMOKE_CELLS: [(u32, u64); 3] = [(0, 0), (16, 2), (1, 2)];

/// Interval of the modeled CQ consumer in the bounded-CQ cells, ns per
/// entry retired. Deliberately slow (the default is 250 ns) so a shallow
/// ring actually fills and parks commits — the pressure under test.
const CQ_DRAIN_NS: u64 = 2_000;

fn limits(ways: u32, cq: u64) -> ConfigPatch {
    let mut l = ResourceLimits::default();
    if ways > 0 {
        l.trigger_ways = Some(ways);
    }
    if cq > 0 {
        l.cq_capacity = Some(cq);
        l.cq_drain_ns = Some(CQ_DRAIN_NS);
    }
    ConfigPatch::pressure(l)
}

fn cell(strategy: Strategy, ways: u32, cq: u64) -> JacobiResult {
    let patch = limits(ways, cq);
    let r = try_run_with_config(
        JacobiParams::square4(N_LOCAL, ITERS, strategy, SEED),
        |config| patch.apply(config),
    )
    .unwrap_or_else(|f| panic!("{strategy} ways={ways} cq={cq}: {f}"));
    assert_eq!(
        r.scenario.stats.counter_across("nic", "trigger_errors"),
        0,
        "{strategy} ways={ways} cq={cq}: pressure surfaced a trigger error"
    );
    r
}

fn main() {
    gtn_bench::header(
        "Ablation: Jacobi under trigger-CAM / CQ-depth exhaustion (ext)",
        "LeBeane et al., SC'17 (16-entry associative list of 3.3, resources made scarce)",
    );
    let cells: &[(u32, u64)] = if report::smoke() {
        &SMOKE_CELLS
    } else {
        &CELLS
    };
    let strategies = Harness::strategies();
    println!(
        "{:<10} {:>6} {:>6} {:>12} {:>10} {:>8} {:>10} {:>10} {:>10}",
        "strategy",
        "ways",
        "cq",
        "us/iter",
        "slowdown",
        "spills",
        "promoted",
        "cq_stalls",
        "cr_stalls"
    );
    // Each (strategy, ways, cq) cell is an independent simulation; the
    // (0, 0) cell is the unbounded baseline for the slowdown column.
    let descriptors: Vec<(Strategy, u32, u64)> = strategies
        .iter()
        .flat_map(|&strategy| cells.iter().map(move |&(w, c)| (strategy, w, c)))
        .collect();
    let points = sweep::run(descriptors.clone(), |(strategy, ways, cq)| {
        cell(strategy, ways, cq)
    });
    for (rows, strategy) in points.chunks(cells.len()).zip(strategies.iter()) {
        let base = rows[0].scenario.per_iter;
        for (&(ways, cq), r) in cells.iter().zip(rows) {
            // Scarce resources may only cost time, never change the grid.
            assert_eq!(
                r.interiors, rows[0].interiors,
                "{strategy} ways={ways} cq={cq}: pressure changed the answer"
            );
            let nic = &r.scenario.stats;
            println!(
                "{:<10} {:>6} {:>6} {:>12.2} {:>9.2}x {:>8} {:>10} {:>10} {:>10}",
                strategy.name(),
                ways,
                cq,
                r.scenario.per_iter.as_us_f64(),
                r.scenario.per_iter.as_ns_f64() / base.as_ns_f64(),
                nic.counter_across("nic", "trigger_spills"),
                nic.counter_across("nic", "trigger_promotions"),
                nic.counter_across("nic", "cq_stalls"),
                nic.counter_across("nic", "credit_stalls"),
            );
        }
    }
    println!("\nevery pressured cell still matches the unbounded grid bit-exactly:");
    println!("trigger-list exhaustion spills to host memory (slower matches, same");
    println!("semantics) and CQ exhaustion parks commits behind the consumer —");
    println!("never an error, an overwrite, or a hang.");

    let json = obj(vec![
        ("bench", s("abl_resource_pressure")),
        (
            "workload",
            obj(vec![
                ("rows", Json::U64(2)),
                ("cols", Json::U64(2)),
                ("n_local", Json::U64(N_LOCAL as u64)),
                ("iters", Json::U64(ITERS as u64)),
                ("seed", Json::U64(SEED)),
                ("cq_drain_ns", Json::U64(CQ_DRAIN_NS)),
            ]),
        ),
        (
            "points",
            Json::Arr(
                descriptors
                    .iter()
                    .zip(&points)
                    .map(|(&(strategy, ways, cq), r)| {
                        let st = &r.scenario.stats;
                        obj(vec![
                            ("strategy", s(strategy.name())),
                            ("trigger_ways", Json::U64(ways as u64)),
                            ("cq_capacity", Json::U64(cq)),
                            ("per_iter_ps", Json::U64(r.scenario.per_iter.as_ps())),
                            ("total_ps", Json::U64(r.scenario.total.as_ps())),
                            (
                                "trigger_spills",
                                Json::U64(st.counter_across("nic", "trigger_spills")),
                            ),
                            (
                                "trigger_promotions",
                                Json::U64(st.counter_across("nic", "trigger_promotions")),
                            ),
                            (
                                "cq_stalls",
                                Json::U64(st.counter_across("nic", "cq_stalls")),
                            ),
                            (
                                "credit_stalls",
                                Json::U64(st.counter_across("nic", "credit_stalls")),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    report::write("abl_resource_pressure", &json);
}
