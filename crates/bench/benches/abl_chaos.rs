//! Robustness ablation — the chaos campaign: ring Allreduce under
//! crash-stop injections, swept over failure time × failed component ×
//! strategy × recovery policy × seed on the parallel sweep runner.
//!
//! Every cell injects one permanent crash (a whole node, its NIC, or one
//! ring link) at a fraction of the healthy run's duration, arms the
//! heartbeat/lease failure detector, and applies one recovery policy:
//!
//! - **abort** — terminate with a structured `PeerDead` diagnosis naming
//!   the culprit; the failure is the result.
//! - **checkpoint-restart** — regenerate the inputs (the checkpoint) and
//!   re-run the collective on a clean cluster.
//! - **rebuild-collective** — re-form the ring from the survivors and
//!   reduce exactly the surviving contributions (NCCL-communicator style),
//!   verified against the survivor-ranks reference.
//!
//! The liveness contract is asserted cell by cell: every run either
//! completes verified or terminates with a structured verdict within a
//! bounded event budget — chaos never hangs the calendar. Reported per
//! cell: time-to-detect, recovery cost, end-to-end time, and goodput
//! retained (healthy-run time over end-to-end time, per mille).
//!
//! Emits `BENCH_abl_chaos.json`. `GTN_BENCH_SMOKE` shrinks the sweep for
//! CI.

use gtn_bench::report::{self, obj, s, Json};
use gtn_bench::sweep;
use gtn_core::scenario::ConfigPatch;
use gtn_core::{RecoveryPolicy, Strategy};
use gtn_fabric::CrashComponent;
use gtn_workloads::allreduce::{self, Allreduce, AllreduceParams};
use gtn_workloads::chaos::{self, ChaosReport, Verdict};
use gtn_workloads::harness::ScenarioParams;

const NODES: u32 = 4;
const ELEMS: u64 = 64 * 1024;
/// The node (or link endpoint) the injections target — a mid-ring rank,
/// so both its predecessor and successor feel the loss.
const CULPRIT: u32 = 2;
/// Liveness budget: no cell may consume more events than this before
/// producing a structured verdict.
const EVENT_BUDGET: u64 = 2_000_000;

const STRATEGIES: [Strategy; 2] = [Strategy::Hdn, Strategy::GpuTn];
const POLICIES: [RecoveryPolicy; 3] = [
    RecoveryPolicy::Abort,
    RecoveryPolicy::CheckpointRestart,
    RecoveryPolicy::RebuildCollective,
];
const COMPONENTS: [&str; 3] = ["node", "nic", "link"];
const CRASH_PCT: [u64; 2] = [35, 70];
const SEEDS: [u64; 3] = [0xC4A05, 0xC4A06, 0xC4A07];

const SMOKE_COMPONENTS: [&str; 2] = ["node", "link"];
const SMOKE_CRASH_PCT: [u64; 1] = [35];
const SMOKE_SEEDS: [u64; 3] = SEEDS;

fn component(kind: &str) -> CrashComponent {
    match kind {
        "node" => CrashComponent::Node(CULPRIT),
        "nic" => CrashComponent::Nic(CULPRIT),
        "link" => CrashComponent::Link {
            a: CULPRIT,
            b: (CULPRIT + 1) % NODES,
        },
        other => panic!("unknown component {other:?}"),
    }
}

#[derive(Clone, Copy)]
struct Cell {
    strategy: Strategy,
    seed: u64,
    comp: &'static str,
    pct: u64,
    policy: RecoveryPolicy,
    crash_at_ns: u64,
    baseline_ns: u64,
}

fn run_cell(cell: Cell) -> ChaosReport {
    let params = ScenarioParams::new(cell.strategy)
        .nodes(NODES)
        .size(ELEMS)
        .seed(cell.seed)
        .patch(
            ConfigPatch::NONE
                .with_crash(component(cell.comp), cell.crash_at_ns)
                .with_detection(cell.policy),
        );
    let report = chaos::run_cell(&params, &Allreduce).unwrap_or_else(|f| {
        panic!(
            "{} {} {}% {}: {f}",
            cell.strategy,
            cell.comp,
            cell.pct,
            cell.policy.name()
        )
    });
    // The liveness contract: structured verdicts only, within budget.
    assert!(
        report.events <= EVENT_BUDGET,
        "{} {} {}% {}: {} events blew the liveness budget",
        cell.strategy,
        cell.comp,
        cell.pct,
        cell.policy.name(),
        report.events
    );
    assert!(
        report.verified || report.verdict == Verdict::Aborted,
        "{} {} {}% {}: unverified non-abort verdict",
        cell.strategy,
        cell.comp,
        cell.pct,
        cell.policy.name()
    );
    report
}

/// Goodput retained, per mille: healthy-run time over end-to-end time for
/// verified cells (capped at 1000), zero for aborts (no result survived).
fn goodput_milli(cell: &Cell, r: &ChaosReport) -> u64 {
    if !r.verified || r.total_ns == 0 {
        return 0;
    }
    (1000 * cell.baseline_ns / r.total_ns).min(1000)
}

fn main() {
    gtn_bench::header(
        "Ablation: Allreduce chaos campaign — crash-stop failures x recovery policies (ext)",
        "LeBeane et al., SC'17 (evaluation workload of 5.4.1, made crash-tolerant)",
    );
    let smoke = report::smoke();
    let components: &[&'static str] = if smoke {
        &SMOKE_COMPONENTS
    } else {
        &COMPONENTS
    };
    let pcts: &[u64] = if smoke { &SMOKE_CRASH_PCT } else { &CRASH_PCT };
    let seeds: &[u64] = if smoke { &SMOKE_SEEDS } else { &SEEDS };

    // Healthy baselines per (strategy, seed): the crash times are fractions
    // of these, and the goodput column divides by them.
    let base_descriptors: Vec<(Strategy, u64)> = STRATEGIES
        .iter()
        .flat_map(|&strategy| seeds.iter().map(move |&seed| (strategy, seed)))
        .collect();
    let baselines = sweep::run(base_descriptors.clone(), |(strategy, seed)| {
        let r = allreduce::run(AllreduceParams::new(NODES, ELEMS, strategy, seed));
        r.scenario.total.as_ps() / 1000
    });
    let baseline_ns = |strategy: Strategy, seed: u64| -> u64 {
        base_descriptors
            .iter()
            .zip(&baselines)
            .find(|((st, sd), _)| *st == strategy && *sd == seed)
            .map(|(_, &ns)| ns)
            .expect("baseline computed for every (strategy, seed)")
    };

    let cells: Vec<Cell> = STRATEGIES
        .iter()
        .flat_map(|&strategy| {
            seeds.iter().flat_map(move |&seed| {
                let base = baseline_ns(strategy, seed);
                pcts.iter().flat_map(move |&pct| {
                    components.iter().flat_map(move |&comp| {
                        POLICIES.iter().map(move |&policy| Cell {
                            strategy,
                            seed,
                            comp,
                            pct,
                            policy,
                            crash_at_ns: base * pct / 100,
                            baseline_ns: base,
                        })
                    })
                })
            })
        })
        .collect();

    let reports = sweep::run(cells.clone(), run_cell);

    println!(
        "{:<8} {:>10} {:<5} {:>4} {:<18} {:<10} {:>10} {:>11} {:>10} {:>8}",
        "strategy",
        "seed",
        "comp",
        "t%",
        "policy",
        "verdict",
        "detect_us",
        "recover_us",
        "total_us",
        "goodput"
    );
    for (cell, r) in cells.iter().zip(&reports) {
        println!(
            "{:<8} {:>10x} {:<5} {:>4} {:<18} {:<10} {:>10} {:>11} {:>10} {:>7}‰",
            cell.strategy.name(),
            cell.seed,
            cell.comp,
            cell.pct,
            cell.policy.name(),
            r.verdict.name(),
            r.detect_ns / 1000,
            r.recovery_ns / 1000,
            r.total_ns / 1000,
            goodput_milli(cell, r),
        );
    }
    println!("\nevery cell terminated with a structured verdict within the event budget:");
    println!("aborts name the dead peer and its detector; checkpoint-restart and");
    println!("rebuild-collective re-verify against the (survivor) reference bit-exactly.");

    let json = obj(vec![
        ("bench", s("abl_chaos")),
        (
            "workload",
            obj(vec![
                ("name", s("allreduce")),
                ("nodes", Json::U64(NODES as u64)),
                ("elems", Json::U64(ELEMS)),
                ("culprit", Json::U64(CULPRIT as u64)),
                ("event_budget", Json::U64(EVENT_BUDGET)),
            ]),
        ),
        (
            "baselines",
            Json::Arr(
                base_descriptors
                    .iter()
                    .zip(&baselines)
                    .map(|(&(strategy, seed), &ns)| {
                        obj(vec![
                            ("strategy", s(strategy.name())),
                            ("seed", Json::U64(seed)),
                            ("total_ns", Json::U64(ns)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "points",
            Json::Arr(
                cells
                    .iter()
                    .zip(&reports)
                    .map(|(cell, r)| {
                        obj(vec![
                            ("strategy", s(cell.strategy.name())),
                            ("seed", Json::U64(cell.seed)),
                            ("component", s(cell.comp)),
                            ("crash_pct", Json::U64(cell.pct)),
                            ("crash_at_ns", Json::U64(cell.crash_at_ns)),
                            ("policy", s(cell.policy.name())),
                            ("verdict", s(r.verdict.name())),
                            ("detect_ns", Json::U64(r.detect_ns)),
                            ("suspect_ns", Json::U64(r.suspect_ns)),
                            ("recovery_ns", Json::U64(r.recovery_ns)),
                            ("total_ns", Json::U64(r.total_ns)),
                            ("events", Json::U64(r.events)),
                            ("verified", Json::Bool(r.verified)),
                            ("goodput_milli", Json::U64(goodput_milli(cell, r))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    report::write("abl_chaos", &json);
}
