//! The serving SLO sweep is bit-identical under the parallel sweep
//! runner: running the same (strategy, process, load) cells on one
//! worker thread and on several reproduces every report field exactly —
//! the `GTN_SWEEP_THREADS` determinism the `serving_slo` bench (and its
//! recorded golden) depends on. The rerun-under-loss twin of this
//! property lives in `gtn-workloads/tests/proptest_serving.rs`.

use gtn_bench::sweep;
use gtn_core::Strategy;
use gtn_workloads::serving::{self, ArrivalProcess, ServingParams, ServingReport};

fn cell((strategy, process, offered_jps): (Strategy, ArrivalProcess, u64)) -> ServingReport {
    serving::run(
        &ServingParams::new(strategy)
            .tenants(60)
            .duration_ns(300_000)
            .offered(offered_jps)
            .process(process)
            .seed(0x510),
    )
}

/// Everything a report carries that the bench serializes, one comparable
/// string per cell.
fn fingerprint(r: &ServingReport) -> String {
    format!(
        "{} {} {} {} {} {} {} {} {} {} {} {}",
        r.offered,
        r.completed,
        r.shed_queue,
        r.shed_nic,
        r.failed,
        r.goodput_jps,
        r.percentile_ps(50.0),
        r.percentile_ps(99.0),
        r.percentile_ps(99.9),
        r.makespan_ps,
        r.model.rpc_ps,
        r.model.coll_ps,
    )
}

#[test]
fn serving_sweep_is_thread_count_invariant() {
    let descriptors: Vec<(Strategy, ArrivalProcess, u64)> = Strategy::all()
        .iter()
        .flat_map(|&s| {
            [ArrivalProcess::Poisson, ArrivalProcess::Pareto]
                .into_iter()
                .flat_map(move |p| {
                    [150_000u64, 900_000]
                        .into_iter()
                        .map(move |jps| (s, p, jps))
                })
        })
        .collect();
    let sequential: Vec<String> = sweep::run_with_threads(descriptors.clone(), 1, cell)
        .iter()
        .map(fingerprint)
        .collect();
    for threads in [2, 4] {
        let parallel: Vec<String> = sweep::run_with_threads(descriptors.clone(), threads, cell)
            .iter()
            .map(fingerprint)
            .collect();
        assert_eq!(
            sequential, parallel,
            "{threads} sweep threads changed a serving report"
        );
    }
}
