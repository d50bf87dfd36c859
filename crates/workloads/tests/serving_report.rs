//! Pins the whole serving report on two overloaded cells that spill and
//! promote trigger entries, so any change to the queueing core, the
//! partitioned trigger list or the stage summaries that moves a simulated
//! value fails here, in tier-1, rather than only in the smoke golden.

use gtn_core::Strategy;
use gtn_workloads::serving::{run, ArrivalProcess, ServingParams, ServingReport};

/// 200 tenants offering 900k jobs/s of heavy-tailed traffic over a 2 ms
/// horizon: past the four servers' capacity, so the queue and the NIC's
/// partition depth both shed and the 16-way CAM spills and promotes.
fn overloaded(strategy: Strategy) -> ServingParams {
    ServingParams::new(strategy)
        .tenants(200)
        .duration_ns(2_000_000)
        .offered(900_000)
        .process(ArrivalProcess::Pareto)
}

/// Every pinned value of one report.
#[derive(Debug, PartialEq, Eq)]
struct Pins {
    offered: u64,
    completed: u64,
    shed_queue: u64,
    shed_nic: u64,
    failed: u64,
    spills: u64,
    promotions: u64,
    makespan_ps: u64,
    /// Sojourn p50, p99 and p99.9, ps.
    sojourn_ps: [u64; 3],
    /// Queue wait count, mean, min and max (ps).
    queue_wait: [u64; 4],
    /// Service count, mean, min and max (ps).
    service: [u64; 4],
}

fn pins(r: &ServingReport) -> Pins {
    Pins {
        offered: r.offered,
        completed: r.completed,
        shed_queue: r.shed_queue,
        shed_nic: r.shed_nic,
        failed: r.failed,
        spills: r.spills,
        promotions: r.promotions,
        makespan_ps: r.makespan_ps,
        sojourn_ps: [50.0, 99.0, 99.9].map(|p| r.percentile_ps(p)),
        queue_wait: [
            r.queue_wait.count(),
            r.queue_wait.mean().as_ps(),
            r.queue_wait.min().as_ps(),
            r.queue_wait.max().as_ps(),
        ],
        service: [
            r.service.count(),
            r.service.mean().as_ps(),
            r.service.min().as_ps(),
            r.service.max().as_ps(),
        ],
    }
}

/// Recorded at the commit before the trigger list's spill queues and the
/// stage summaries landed; neither may move a value.
const PINNED: [(Strategy, Pins); 2] = [
    (
        Strategy::Hdn,
        Pins {
            offered: 2195,
            completed: 1052,
            shed_queue: 1143,
            shed_nic: 0,
            failed: 0,
            spills: 1020,
            promotions: 1020,
            makespan_ps: 2_120_089_502,
            sojourn_ps: [125_064_835, 170_816_147, 181_670_539],
            queue_wait: [1052, 117_650_487, 0, 155_829_142],
            service: [1052, 7_737_772, 4_603_449, 34_280_057],
        },
    ),
    (
        Strategy::GpuTn,
        Pins {
            offered: 2195,
            completed: 1964,
            shed_queue: 231,
            shed_nic: 0,
            failed: 0,
            spills: 1911,
            promotions: 1911,
            makespan_ps: 2_070_253_125,
            sojourn_ps: [64_341_948, 78_380_703, 82_250_292],
            queue_wait: [1964, 59_285_887, 0, 75_389_927],
            service: [1964, 4_057_039, 2_964_639, 12_151_919],
        },
    ),
];

#[test]
fn overloaded_cells_are_pinned() {
    for (strategy, want) in PINNED {
        let r = run(&overloaded(strategy));
        assert!(r.conserved(), "{strategy}: counts do not conserve");
        assert_eq!(pins(&r), want, "{strategy}: serving report drifted");
    }
}
