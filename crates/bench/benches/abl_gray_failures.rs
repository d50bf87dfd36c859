//! Robustness ablation — gray failures: degraded links, adaptive
//! detection, and route-around failover.
//!
//! The chaos campaign (`abl_chaos`) kills components outright; real
//! fabrics mostly *limp* instead — a flaky optic adds jitter, a sick NIC
//! drags, a port flaps. This bench sweeps the gray end of the failure
//! spectrum in four sections:
//!
//! 1. **Failover demo** — the same aggregation-edge crash, policy the only
//!    variable: on a k = 4 fat-tree the `route-around` policy withdraws
//!    the dead edge and the collective completes verified over the
//!    surviving wires (`recovered`, `reroutes > 0`, zero re-run cost),
//!    where `abort` rides the dead wire into a `PeerDead` verdict. The
//!    star control shows the honest limit: a host's only uplink severed
//!    under `route-around` still ends `aborted` — failover cannot invent
//!    wires.
//! 2. **Detector comparison** — one true node crash landing mid-run,
//!    detector the only variable: the adaptive φ-accrual detector reaches
//!    its death verdict strictly inside the fixed 2 ms lease, because the
//!    observed inter-arrival model prices 100 µs probes far tighter than
//!    the 20-miss lease does.
//! 3. **Gray sweep** — slow-NIC, bursty-loss, and flapping injections per
//!    strategy with the φ-accrual detector armed: every cell must end
//!    `completed` (a gray fault may slow a run, it must never be
//!    *mis-declared* a death — zero false positives), and the slowdown
//!    over the healthy baseline is the cost column.
//! 4. **Serving under degradation** — the open-loop serving model
//!    calibrated under each environment: p50/p99/p99.9 sojourn per
//!    strategy for healthy, slow-NIC, and lossy fabrics, showing how much
//!    of a gray fault the tail absorbs before the SLO story changes.
//!
//! Emits `BENCH_abl_gray_failures.json` (integer fields only,
//! bit-identical across reruns and `GTN_SWEEP_THREADS`).
//! `GTN_BENCH_SMOKE` shrinks the sweep for CI.

use gtn_bench::report::{self, obj, s, Json};
use gtn_bench::sweep;
use gtn_core::membership::FailureConfig;
use gtn_core::scenario::ConfigPatch;
use gtn_core::{RecoveryPolicy, Strategy};
use gtn_fabric::{DegradeSpec, Fabric, FabricConfig, Topology};
use gtn_workloads::allreduce::Allreduce;
use gtn_workloads::chaos::{self, ChaosReport, Recoverable, Verdict};
use gtn_workloads::harness::ScenarioParams;
use gtn_workloads::jacobi::Jacobi;
use gtn_workloads::serving::{self, ArrivalProcess, ServingParams};

const SEED: u64 = 0x6EA1;

/// Star cluster for the gray sweep and the partition control: hosts
/// `0..NODES`, switch vertex `NODES`.
const NODES: u32 = 4;
/// Fat-tree for the failover demo: k = 4 pods, 8 hosts used.
const DEMO_NODES: u32 = 8;
const DEMO_ELEMS: u64 = 64 * 1024;
/// Detector-comparison workload: a long Jacobi run whose sparse halo
/// exchanges leave the fabric calm, so φ-accrual's observed inter-arrival
/// scale stays near the 100 µs probe period (a saturating collective
/// would jitter the probes and — correctly — make the adaptive detector
/// conservative instead of fast; the gray sweep covers that regime).
/// Iterations are sized so the crash at `CRASH_AT_NS` lands well after
/// φ's warm-up (8 probes ≈ 800 µs) and well before the healthy finish.
const DETECT_ITERS: u32 = 2_000;
const DETECT_INTERIOR: u64 = 16;
const CRASH_AT_NS: u64 = 1_200_000;
/// The fixed lease the φ detector must beat (`FailureConfig::detection`).
const LEASE_DEAD_NS: u64 = 2_000_000;

const GRAY_ELEMS: u64 = 512 * 1024;
const SMOKE_GRAY_ELEMS: u64 = 256 * 1024;
const GRAY_STRATEGIES: [Strategy; 2] = [Strategy::Hdn, Strategy::GpuTn];
const SMOKE_GRAY_STRATEGIES: [Strategy; 1] = [Strategy::GpuTn];

const SERVING_LOADS: [u64; 2] = [400_000, 900_000];
const SMOKE_SERVING_LOADS: [u64; 1] = [400_000];
const SERVING_POPULATION: (u32, u64) = (1000, 10_000_000);
const SMOKE_SERVING_POPULATION: (u32, u64) = (200, 2_000_000);

/// φ-accrual detection on a 10× tighter cadence (10 µs probes, 200 µs
/// lease fallback), so the gray sweep's shorter runs still put the
/// adaptive detector past its warm-up and under live fire.
fn fast_phi() -> FailureConfig {
    FailureConfig {
        heartbeat_period_ns: 10_000,
        suspect_after_ns: 60_000,
        dead_after_ns: 200_000,
        ..FailureConfig::phi_accrual()
    }
}

/// The gray injections swept: name × spec. Every spec starts at t = 0 and
/// never heals; the flap period (70 µs) is deliberately coprime-ish to
/// the probe cadence so the detector sees scattered losses, not a
/// phase-locked blackout.
fn gray_specs() -> Vec<(&'static str, DegradeSpec)> {
    vec![
        ("slow_nic", DegradeSpec::nic(1).latency(2_000).jitter(1_000)),
        ("lossy_edge", DegradeSpec::edge(2, NODES).lossy(0.05, 2)),
        (
            "flapping_edge",
            DegradeSpec::edge(1, NODES).flapping(70_000, 15_000),
        ),
    ]
}

fn run_chaos_cell(params: &ScenarioParams, workload: &dyn Recoverable, what: &str) -> ChaosReport {
    let report = chaos::run_cell(params, workload).unwrap_or_else(|f| panic!("{what}: {f}"));
    assert!(
        report.verified || report.verdict == Verdict::Aborted,
        "{what}: unverified non-abort verdict: {report:?}"
    );
    report
}

fn main() {
    gtn_bench::header(
        "Ablation: gray failures — degraded links, adaptive detection, route-around (ext)",
        "LeBeane et al., SC'17 (evaluation fabric of 5.4.1 under partial failures)",
    );
    let smoke = report::smoke();
    let gray_elems = if smoke { SMOKE_GRAY_ELEMS } else { GRAY_ELEMS };
    let gray_strategies: &[Strategy] = if smoke {
        &SMOKE_GRAY_STRATEGIES
    } else {
        &GRAY_STRATEGIES
    };
    let serving_loads: &[u64] = if smoke {
        &SMOKE_SERVING_LOADS
    } else {
        &SERVING_LOADS
    };
    let (tenants, duration_ns) = if smoke {
        SMOKE_SERVING_POPULATION
    } else {
        SERVING_POPULATION
    };

    // ---- 1. Failover demo: fat-tree route-around vs abort, star control.
    // Discover the aggregation uplink the 1 -> 2 ring flow crosses (hosts
    // 1 and 2 sit under different edge switches of pod 0, so route hop 1
    // is an ECMP-chosen edge-switch -> aggregation wire with alternates).
    let ft = Topology::FatTree { k: 4 };
    let probe = Fabric::new(
        DEMO_NODES as usize,
        FabricConfig {
            topology: ft,
            ..FabricConfig::default()
        },
    );
    let route = probe.graph().route(gtn_mem::NodeId(1), gtn_mem::NodeId(2));
    let (agg_a, agg_b) = probe.graph().edge_endpoints(route[1]);
    let fat_tree_cell = |policy| {
        ScenarioParams::new(Strategy::GpuTn)
            .nodes(DEMO_NODES)
            .size(DEMO_ELEMS)
            .seed(SEED)
            .patch(
                ConfigPatch::crash_edge(agg_a, agg_b, 50_000)
                    .with_topology(ft)
                    .with_detection(policy),
            )
    };
    // The star control severs a host's only uplink (host 2 -> switch)
    // early enough to bite mid-run.
    let star_cell = ScenarioParams::new(Strategy::GpuTn)
        .nodes(NODES)
        .size(DEMO_ELEMS)
        .seed(SEED)
        .patch(
            ConfigPatch::crash_edge(2, NODES, 20_000).with_detection(RecoveryPolicy::RouteAround),
        );
    let failover_cells: Vec<(&'static str, &'static str, ScenarioParams)> = vec![
        (
            "fat_tree",
            "route-around",
            fat_tree_cell(RecoveryPolicy::RouteAround),
        ),
        ("fat_tree", "abort", fat_tree_cell(RecoveryPolicy::Abort)),
        ("star", "route-around", star_cell),
    ];
    let failover_reports = sweep::run(failover_cells.clone(), |(topo, policy, params)| {
        run_chaos_cell(&params, &Allreduce, &format!("failover {topo} {policy}"))
    });
    // The headline contract: same injection, policy the only variable —
    // the fat-tree collective survives under route-around (no re-run,
    // the fabric healed) where abort dies, and the star control proves
    // failover never fakes a recovery it cannot route.
    assert_eq!(failover_reports[0].verdict, Verdict::Recovered);
    assert!(failover_reports[0].reroutes > 0 && failover_reports[0].recovery_ns == 0);
    assert_eq!(failover_reports[1].verdict, Verdict::Aborted);
    assert_eq!(failover_reports[2].verdict, Verdict::Aborted);

    println!("failover: one aggregation-edge crash on the k=4 fat-tree (allreduce, 8 hosts)");
    println!(
        "{:<10} {:<14} {:<10} {:>10} {:>9} {:>10}",
        "topology", "policy", "verdict", "total_us", "reroutes", "detect_us"
    );
    for ((topo, policy, _), r) in failover_cells.iter().zip(&failover_reports) {
        println!(
            "{:<10} {:<14} {:<10} {:>10} {:>9} {:>10}",
            topo,
            policy,
            r.verdict.name(),
            r.total_ns / 1000,
            r.reroutes,
            r.detect_ns / 1000
        );
    }

    // ---- 2. Detector comparison: fixed lease vs φ-accrual on a true crash.
    let detector_cells: Vec<(&'static str, FailureConfig)> = vec![
        ("fixed_lease", FailureConfig::detection()),
        ("phi_accrual", FailureConfig::phi_accrual()),
    ];
    let detector_reports = sweep::run(detector_cells.clone(), |(name, failure)| {
        let params = ScenarioParams::new(Strategy::GpuTn)
            .grid(2, 2)
            .size(DETECT_INTERIOR)
            .iters(DETECT_ITERS)
            .seed(SEED)
            .patch(ConfigPatch::crash_node(2, CRASH_AT_NS).with_failure(failure));
        run_chaos_cell(&params, &Jacobi, &format!("detector {name}"))
    });
    println!(
        "\ndetectors: node 2 crashes at {} us into a {}-iter Jacobi sweep",
        CRASH_AT_NS / 1000,
        DETECT_ITERS
    );
    println!(
        "{:<12} {:<10} {:>11} {:>10} {:>9} {:>11}",
        "detector", "verdict", "injected_us", "suspect_us", "dead_us", "latency_us"
    );
    for ((name, _), r) in detector_cells.iter().zip(&detector_reports) {
        assert_eq!(r.verdict, Verdict::Aborted, "{name}: {r:?}");
        assert!(
            r.injected_ns < r.suspect_ns && r.suspect_ns <= r.detect_ns,
            "{name}: timeline out of order: {r:?}"
        );
        println!(
            "{:<12} {:<10} {:>11} {:>10} {:>9} {:>11}",
            name,
            r.verdict.name(),
            r.injected_ns / 1000,
            r.suspect_ns / 1000,
            r.detect_ns / 1000,
            (r.detect_ns - r.injected_ns) / 1000
        );
    }
    let lease_latency = detector_reports[0].detect_ns - detector_reports[0].injected_ns;
    let phi_latency = detector_reports[1].detect_ns - detector_reports[1].injected_ns;
    assert!(
        phi_latency < lease_latency && phi_latency < LEASE_DEAD_NS,
        "φ-accrual ({phi_latency} ns) must beat the {LEASE_DEAD_NS} ns lease ({lease_latency} ns)"
    );
    println!(
        "φ-accrual beat the fixed lease by {} us",
        (lease_latency - phi_latency) / 1000
    );

    // ---- 3. Gray sweep: degradations under the armed adaptive detector.
    // Healthy baselines carry the same detector so the slowdown column
    // charges the fault, not the heartbeat traffic.
    let baselines = sweep::run(gray_strategies.to_vec(), |strategy| {
        let params = ScenarioParams::new(strategy)
            .nodes(NODES)
            .size(gray_elems)
            .seed(SEED)
            .patch(ConfigPatch::NONE.with_failure(fast_phi()));
        run_chaos_cell(&params, &Allreduce, &format!("baseline {strategy}")).total_ns
    });
    let gray_cells: Vec<(Strategy, u64, &'static str, DegradeSpec)> = gray_strategies
        .iter()
        .zip(&baselines)
        .flat_map(|(&strategy, &base)| {
            gray_specs()
                .into_iter()
                .map(move |(name, spec)| (strategy, base, name, spec))
        })
        .collect();
    let gray_reports = sweep::run(gray_cells.clone(), |(strategy, _, name, spec)| {
        let params = ScenarioParams::new(strategy)
            .nodes(NODES)
            .size(gray_elems)
            .seed(SEED)
            .patch(
                ConfigPatch::NONE
                    .with_degrade(spec)
                    .with_failure(fast_phi()),
            );
        run_chaos_cell(&params, &Allreduce, &format!("gray {strategy} {name}"))
    });
    println!("\ngray sweep: {gray_elems}-elem allreduce, φ-accrual armed (10 us probes)");
    println!(
        "{:<10} {:<14} {:<10} {:>10} {:>11} {:>9}",
        "strategy", "degrade", "verdict", "total_us", "baseline_us", "slowdown"
    );
    for ((strategy, base, name, _), r) in gray_cells.iter().zip(&gray_reports) {
        // Zero false positives: a gray fault slows the run, the adaptive
        // detector must never declare a limping peer dead.
        assert_eq!(
            r.verdict,
            Verdict::Completed,
            "{strategy} {name}: gray fault mis-declared a death: {r:?}"
        );
        assert!(
            r.total_ns >= *base,
            "{strategy} {name}: degradation sped the run up ({} < {base})",
            r.total_ns
        );
        println!(
            "{:<10} {:<14} {:<10} {:>10} {:>11} {:>8}‰",
            strategy.name(),
            name,
            r.verdict.name(),
            r.total_ns / 1000,
            base / 1000,
            1000 * r.total_ns / base
        );
    }

    // ---- 4. Serving under degradation: tail latency per environment.
    let serving_envs: Vec<(&'static str, ConfigPatch)> = vec![
        ("healthy", ConfigPatch::NONE),
        (
            "slow_nic",
            ConfigPatch::NONE.with_degrade(DegradeSpec::nic(1).latency(2_000).jitter(500)),
        ),
        ("lossy", ConfigPatch::loss(2, 0.05)),
    ];
    let serving_cells: Vec<(Strategy, &'static str, ConfigPatch, u64)> = GRAY_STRATEGIES
        .iter()
        .flat_map(|&strategy| {
            serving_envs.iter().flat_map(move |&(env, patch)| {
                serving_loads
                    .iter()
                    .map(move |&jps| (strategy, env, patch, jps))
            })
        })
        .collect();
    let serving_reports = sweep::run(serving_cells.clone(), |(strategy, env, patch, jps)| {
        let params = ServingParams::new(strategy)
            .tenants(tenants)
            .duration_ns(duration_ns)
            .offered(jps)
            .process(ArrivalProcess::Poisson)
            .seed(SEED)
            .patch(patch);
        let r = serving::run(&params);
        assert!(r.conserved(), "{strategy} {env} @{jps}: jobs leaked");
        assert!(
            r.completed > 0,
            "{strategy} {env} @{jps}: nothing completed"
        );
        r
    });
    println!("\nserving: calibrated open-loop tails per environment (Poisson arrivals)");
    println!(
        "{:<10} {:<10} {:>10} {:>10} {:>10} {:>10} {:>7} {:>7}",
        "strategy", "env", "offered/s", "p50 ns", "p99 ns", "p99.9 ns", "shed", "failed"
    );
    for ((strategy, env, _, jps), r) in serving_cells.iter().zip(&serving_reports) {
        println!(
            "{:<10} {:<10} {:>10} {:>10} {:>10} {:>10} {:>7} {:>7}",
            strategy.name(),
            env,
            jps,
            r.percentile_ps(50.0) / 1000,
            r.percentile_ps(99.0) / 1000,
            r.percentile_ps(99.9) / 1000,
            r.shed(),
            r.failed
        );
    }

    let chaos_point = |r: &ChaosReport| {
        vec![
            ("verdict", s(r.verdict.name())),
            ("injected_ns", Json::U64(r.injected_ns)),
            ("suspect_ns", Json::U64(r.suspect_ns)),
            ("detect_ns", Json::U64(r.detect_ns)),
            ("total_ns", Json::U64(r.total_ns)),
            ("reroutes", Json::U64(r.reroutes)),
            ("events", Json::U64(r.events)),
            ("verified", Json::Bool(r.verified)),
        ]
    };
    let json = obj(vec![
        ("bench", s("abl_gray_failures")),
        (
            "workload",
            obj(vec![
                ("name", s("allreduce")),
                ("nodes", Json::U64(NODES as u64)),
                ("demo_nodes", Json::U64(DEMO_NODES as u64)),
                ("gray_elems", Json::U64(gray_elems)),
                ("detect_iters", Json::U64(DETECT_ITERS as u64)),
                ("crash_at_ns", Json::U64(CRASH_AT_NS)),
                ("seed", Json::U64(SEED)),
            ]),
        ),
        (
            "failover",
            Json::Arr(
                failover_cells
                    .iter()
                    .zip(&failover_reports)
                    .map(|((topo, policy, _), r)| {
                        let mut fields = vec![("topology", s(*topo)), ("policy", s(*policy))];
                        fields.extend(chaos_point(r));
                        obj(fields)
                    })
                    .collect(),
            ),
        ),
        (
            "detectors",
            Json::Arr(
                detector_cells
                    .iter()
                    .zip(&detector_reports)
                    .map(|((name, _), r)| {
                        let mut fields = vec![
                            ("detector", s(*name)),
                            ("latency_ns", Json::U64(r.detect_ns - r.injected_ns)),
                        ];
                        fields.extend(chaos_point(r));
                        obj(fields)
                    })
                    .collect(),
            ),
        ),
        (
            "gray",
            Json::Arr(
                gray_cells
                    .iter()
                    .zip(&gray_reports)
                    .map(|((strategy, base, name, _), r)| {
                        let mut fields = vec![
                            ("strategy", s(strategy.name())),
                            ("degrade", s(*name)),
                            ("baseline_ns", Json::U64(*base)),
                            ("slowdown_milli", Json::U64(1000 * r.total_ns / base)),
                        ];
                        fields.extend(chaos_point(r));
                        obj(fields)
                    })
                    .collect(),
            ),
        ),
        (
            "serving",
            Json::Arr(
                serving_cells
                    .iter()
                    .zip(&serving_reports)
                    .map(|((strategy, env, _, jps), r)| {
                        obj(vec![
                            ("strategy", s(strategy.name())),
                            ("env", s(*env)),
                            ("offered_jps", Json::U64(*jps)),
                            ("p50_ps", Json::U64(r.percentile_ps(50.0))),
                            ("p99_ps", Json::U64(r.percentile_ps(99.0))),
                            ("p999_ps", Json::U64(r.percentile_ps(99.9))),
                            ("completed", Json::U64(r.completed)),
                            ("shed", Json::U64(r.shed())),
                            ("failed", Json::U64(r.failed)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    report::write("abl_gray_failures", &json);
}
