//! Production-serving SLO sweep — open-loop offered load × strategy,
//! reporting tail latency and goodput.
//!
//! Every other bench here closes the loop: it runs a job, waits, and
//! times it. This one asks the production question instead: when
//! thousands of tenants offer small independent jobs (pingpong-style
//! RPCs plus small collectives) at a rate that does *not* back off, what
//! do p50/p99/p99.9 sojourn latency and goodput look like per strategy,
//! and where does admission control start shedding?
//!
//! Each cell calibrates per-job service cost from real cluster runs of
//! the strategy under test, then drives the calibrated open-loop queueing
//! model over a seeded arrival trace (Poisson and bounded-Pareto) with
//! per-tenant trigger-list partitions and a bounded admission queue — see
//! `gtn_workloads::serving`. Sheds are counted, never a panic, and every
//! cell asserts strict conservation: completed + shed + failed ==
//! offered.
//!
//! Expected shape: below saturation goodput tracks offered load and the
//! strategies order as in Fig. 8 (GPU-TN < GDS < HDN at the tail); past
//! saturation goodput flattens at capacity, the queue sheds the excess,
//! and p99/p99.9 stretch toward the queue-depth bound. The heavy-tailed
//! process drags the high percentiles at loads the Poisson process still
//! absorbs.
//!
//! Emits `BENCH_serving_slo.json` (integer fields only, bit-identical
//! across reruns and `GTN_SWEEP_THREADS`).
//! `GTN_BENCH_SMOKE` shrinks the sweep for CI.

use gtn_bench::report::{self, obj, s, Json};
use gtn_bench::sweep;
use gtn_core::Strategy;
use gtn_workloads::harness::Harness;
use gtn_workloads::serving::{self, ArrivalProcess, ServingParams, ServingReport};

const SEED: u64 = 0x510;

/// Offered loads swept, jobs/s aggregate across all tenants.
const LOADS: [u64; 4] = [100_000, 400_000, 800_000, 1_200_000];
const SMOKE_LOADS: [u64; 3] = [100_000, 400_000, 900_000];

const PROCESSES: [ArrivalProcess; 2] = [ArrivalProcess::Poisson, ArrivalProcess::Pareto];

/// (tenants, trace horizon ns): the full sweep holds thousands of
/// tenants over a long horizon; smoke keeps CI inside seconds.
const POPULATION: (u32, u64) = (2000, 20_000_000);
const SMOKE_POPULATION: (u32, u64) = (200, 2_000_000);

fn cell(strategy: Strategy, process: ArrivalProcess, offered_jps: u64) -> ServingReport {
    let (tenants, duration_ns) = if report::smoke() {
        SMOKE_POPULATION
    } else {
        POPULATION
    };
    let params = ServingParams::new(strategy)
        .tenants(tenants)
        .duration_ns(duration_ns)
        .offered(offered_jps)
        .process(process)
        .seed(SEED);
    let r = serving::run(&params);
    assert!(
        r.conserved(),
        "{strategy} {} @{offered_jps} jps: completed {} + shed {} + failed {} != offered {}",
        process.name(),
        r.completed,
        r.shed(),
        r.failed,
        r.offered
    );
    assert!(
        r.completed > 0,
        "{strategy} {} @{offered_jps} jps: nothing completed",
        process.name()
    );
    r
}

fn main() {
    gtn_bench::header(
        "Serving SLO: open-loop offered load vs tail latency and goodput (ext)",
        "LeBeane et al., SC'17 (small-message strategies of 5.1 under production serving)",
    );
    let loads: &[u64] = if report::smoke() {
        &SMOKE_LOADS
    } else {
        &LOADS
    };
    let strategies = Harness::strategies();
    println!(
        "{:<10} {:<8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>7} {:>7}",
        "strategy",
        "process",
        "offered/s",
        "p50 ns",
        "p99 ns",
        "p99.9 ns",
        "goodput/s",
        "shed",
        "failed"
    );
    // Each (strategy, process, load) cell is an independent calibration +
    // queueing simulation; sweep::run keeps descriptor order regardless
    // of GTN_SWEEP_THREADS.
    let descriptors: Vec<(Strategy, ArrivalProcess, u64)> = strategies
        .iter()
        .flat_map(|&strategy| {
            PROCESSES
                .iter()
                .flat_map(move |&process| loads.iter().map(move |&jps| (strategy, process, jps)))
        })
        .collect();
    let points = sweep::run(descriptors.clone(), |(strategy, process, jps)| {
        cell(strategy, process, jps)
    });
    for (&(strategy, process, jps), r) in descriptors.iter().zip(&points) {
        println!(
            "{:<10} {:<8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>7} {:>7}",
            strategy.name(),
            process.name(),
            jps,
            r.percentile_ps(50.0) / 1_000,
            r.percentile_ps(99.0) / 1_000,
            r.percentile_ps(99.9) / 1_000,
            r.goodput_jps,
            r.shed(),
            r.failed,
        );
    }
    println!("\nopen-loop arrivals do not back off: past saturation the offered");
    println!("excess is shed by the admission queue (and the NIC's per-tenant");
    println!("trigger partitions), goodput flattens at capacity, and the tail");
    println!("percentiles stretch toward the queue-depth bound.");

    let (tenants, duration_ns) = if report::smoke() {
        SMOKE_POPULATION
    } else {
        POPULATION
    };
    let defaults = ServingParams::new(Strategy::GpuTn);
    let json = obj(vec![
        ("bench", s("serving_slo")),
        (
            "workload",
            obj(vec![
                ("tenants", Json::U64(u64::from(tenants))),
                ("duration_ns", Json::U64(duration_ns)),
                ("servers", Json::U64(u64::from(defaults.servers))),
                ("queue_depth", Json::U64(defaults.queue_depth as u64)),
                ("partitions", Json::U64(u64::from(defaults.partitions))),
                (
                    "partition_depth",
                    Json::U64(defaults.partition_depth.unwrap_or(0)),
                ),
                (
                    "collective_pct",
                    Json::U64(u64::from(defaults.collective_pct)),
                ),
                ("seed", Json::U64(SEED)),
            ]),
        ),
        (
            "points",
            Json::Arr(
                descriptors
                    .iter()
                    .zip(&points)
                    .map(|(&(strategy, process, jps), r)| {
                        obj(vec![
                            ("strategy", s(strategy.name())),
                            ("process", s(process.name())),
                            ("offered_jps", Json::U64(jps)),
                            ("offered", Json::U64(r.offered)),
                            ("completed", Json::U64(r.completed)),
                            ("shed_queue", Json::U64(r.shed_queue)),
                            ("shed_nic", Json::U64(r.shed_nic)),
                            ("failed", Json::U64(r.failed)),
                            ("goodput_jps", Json::U64(r.goodput_jps)),
                            ("p50_ps", Json::U64(r.percentile_ps(50.0))),
                            ("p99_ps", Json::U64(r.percentile_ps(99.0))),
                            ("p999_ps", Json::U64(r.percentile_ps(99.9))),
                            ("queue_wait_mean_ps", Json::U64(r.queue_wait.mean().as_ps())),
                            ("service_mean_ps", Json::U64(r.service.mean().as_ps())),
                            ("rpc_service_ps", Json::U64(r.model.rpc_ps)),
                            ("collective_service_ps", Json::U64(r.model.coll_ps)),
                            ("peak_waiting", Json::U64(r.peak_waiting as u64)),
                            ("trigger_spills", Json::U64(r.spills)),
                            ("makespan_ps", Json::U64(r.makespan_ps)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    report::write("serving_slo", &json);
}
