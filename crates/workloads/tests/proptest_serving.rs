//! End-to-end properties of the open-loop serving workload:
//!
//! 1. **Trace discipline** — for any seed, population, load, and
//!    interarrival process, the generated trace is sorted by arrival
//!    time, stays inside the horizon, and regenerating it is
//!    bit-identical. Different seeds produce different traces.
//! 2. **Count conservation** — under any mix of seeded packet loss, NIC
//!    resource pressure, tight admission queues, and tight per-partition
//!    trigger depths, every offered job is exactly one of completed,
//!    shed, or failed; overload sheds, it never panics.
//! 3. **Shed honesty** — sheds only happen when a bound is actually
//!    binding: an effectively unbounded queue and partition depth shed
//!    nothing.
//! 4. **Replay under loss** — with seeded packet loss on the calibration
//!    runs, rerunning the same parameters reproduces the full serving
//!    report (counters, tail percentiles, stage summaries, calibration
//!    stats) bit for bit. The thread-axis twin of this property lives in
//!    `gtn-bench`'s sweep tests, next to the runner it exercises.

use gtn_core::scenario::ConfigPatch;
use gtn_core::Strategy;
use gtn_workloads::harness::ResourceLimits;
use gtn_workloads::serving::{
    generate_arrivals, run, ArrivalProcess, ServingParams, ServingReport,
};
use proptest::prelude::*;

fn strategy_from(ix: u8) -> Strategy {
    Strategy::all()[ix as usize % 4]
}

fn process_from(heavy_tailed: bool) -> ArrivalProcess {
    if heavy_tailed {
        ArrivalProcess::Pareto
    } else {
        ArrivalProcess::Poisson
    }
}

/// Everything a serving run reports, rendered to one comparable string —
/// two runs are "bit-identical" iff their fingerprints match.
fn fingerprint(r: &ServingReport) -> String {
    format!(
        "offered={} completed={} shed_queue={} shed_nic={} failed={} \
         peak={} spills={} promotions={} makespan={} goodput={} \
         p50={} p99={} p999={} \
         sojourn=({},{:?},{:?},{:?}) wait=({},{:?},{:?},{:?}) \
         service=({},{:?},{:?},{:?}) \
         model=({},{}) stats={:?}",
        r.offered,
        r.completed,
        r.shed_queue,
        r.shed_nic,
        r.failed,
        r.peak_waiting,
        r.spills,
        r.promotions,
        r.makespan_ps,
        r.goodput_jps,
        r.percentile_ps(50.0),
        r.percentile_ps(99.0),
        r.percentile_ps(99.9),
        r.sojourn.count(),
        r.sojourn.mean(),
        r.sojourn.min(),
        r.sojourn.max(),
        r.queue_wait.count(),
        r.queue_wait.mean(),
        r.queue_wait.min(),
        r.queue_wait.max(),
        r.service.count(),
        r.service.mean(),
        r.service.min(),
        r.service.max(),
        r.model.rpc_ps,
        r.model.coll_ps,
        r.stats,
    )
}

proptest! {
    // Trace generation is pure arithmetic — cheap enough for many cases.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any trace is sorted, in-horizon, and regenerates bit-identically.
    #[test]
    fn arrival_traces_are_sorted_seeded_and_bounded(
        seed in any::<u64>(),
        tenants in 1u32..300,
        offered_jps in 1_000u64..5_000_000,
        duration_ns in 10_000u64..2_000_000,
        heavy_tailed in any::<bool>(),
        collective_pct in 0u32..101,
    ) {
        let params = ServingParams::new(Strategy::GpuTn)
            .tenants(tenants)
            .offered(offered_jps)
            .duration_ns(duration_ns)
            .process(process_from(heavy_tailed))
            .seed(seed);
        let mut params = params;
        params.collective_pct = collective_pct;
        let trace = generate_arrivals(&params);
        prop_assert!(
            trace.windows(2).all(|w| (w[0].at_ns, w[0].tenant) <= (w[1].at_ns, w[1].tenant)),
            "trace out of order"
        );
        prop_assert!(trace.iter().all(|a| a.at_ns < duration_ns && a.tenant < tenants));
        prop_assert_eq!(&trace, &generate_arrivals(&params), "regeneration drifted");
        let other = generate_arrivals(&params.seed(seed ^ 0xDEAD_BEEF));
        if !trace.is_empty() {
            prop_assert!(trace != other, "seed does not reach the trace");
        }
    }
}

proptest! {
    // Every case below is one or more full serving runs (each with two
    // calibration cluster sims); keep the count modest, as the other
    // end-to-end suites do.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// completed + shed + failed == offered under loss, pressure, and
    /// tight queue/partition bounds — overload sheds, never panics.
    #[test]
    fn counts_conserve_under_pressure_and_loss(
        // strategy (x4), pressured (x2), heavy-tailed (x2), partition
        // depth selector (x6, 0 = unbounded) packed into one draw — the
        // vendored proptest caps tuples at six strategies.
        knobs in 0u64..96,
        seed in 0u64..10_000,
        offered_jps in 50_000u64..2_000_000,
        queue_depth in 1usize..48,
        partitions in 1u32..24,
        loss_milli in 0u64..200,
    ) {
        let (strategy_ix, pressured, heavy_tailed, depth_sel) =
            (knobs % 4, (knobs / 4) % 2 == 1, (knobs / 8) % 2 == 1, knobs / 16);
        let mut patch = ConfigPatch::loss(seed, loss_milli as f64 / 1000.0);
        if pressured {
            patch = patch.with_pressure(ResourceLimits::tiny(2, 4));
        }
        let params = ServingParams::new(strategy_from(strategy_ix as u8))
            .tenants(60)
            .duration_ns(300_000)
            .offered(offered_jps)
            .process(process_from(heavy_tailed))
            .queue_depth(queue_depth)
            .partitions(partitions, if depth_sel == 0 { None } else { Some(depth_sel) })
            .seed(seed)
            .patch(patch);
        let r = run(&params);
        prop_assert!(
            r.conserved(),
            "{}: completed {} + shed {} + failed {} != offered {}",
            params.strategy, r.completed, r.shed(), r.failed, r.offered
        );
        prop_assert!(r.offered > 0 && r.completed > 0);
        // Stats mirror the report exactly.
        prop_assert_eq!(r.stats.counter("serving", "offered"), r.offered);
        prop_assert_eq!(
            r.stats.counter("serving", "shed_queue") + r.stats.counter("serving", "shed_nic"),
            r.shed()
        );
        prop_assert_eq!(r.stats.counter("serving", "failed"), r.failed);
    }

    /// Sheds only happen when a bound binds: with an effectively
    /// unbounded queue and no partition depth, nothing is shed, and the
    /// failure count is exactly the seeded deadline misses.
    #[test]
    fn nothing_sheds_when_no_bound_binds(
        strategy_ix in 0u8..4,
        seed in 0u64..10_000,
        offered_jps in 50_000u64..1_000_000,
        heavy_tailed in any::<bool>(),
    ) {
        let params = ServingParams::new(strategy_from(strategy_ix))
            .tenants(60)
            .duration_ns(300_000)
            .offered(offered_jps)
            .process(process_from(heavy_tailed))
            .queue_depth(usize::MAX)
            .partitions(16, None)
            .seed(seed);
        let r = run(&params);
        prop_assert_eq!(r.shed_queue, 0, "unbounded queue shed");
        prop_assert_eq!(r.shed_nic, 0, "depthless partitions shed");
        prop_assert_eq!(r.failed, 0, "no loss injected, nothing may fail");
        prop_assert_eq!(r.completed, r.offered);
    }

    /// A lossy serving run replays: the same seed and loss rate
    /// reproduce the whole report.
    #[test]
    fn serving_report_replays_under_seeded_loss(
        strategy_ix in 0u8..4,
        seed in 0u64..10_000,
        loss_milli in 1u64..100,
        heavy_tailed in any::<bool>(),
    ) {
        let params = ServingParams::new(strategy_from(strategy_ix))
            .tenants(60)
            .duration_ns(300_000)
            .offered(400_000)
            .process(process_from(heavy_tailed))
            .seed(seed)
            .patch(ConfigPatch::loss(seed, loss_milli as f64 / 1000.0));
        let first = run(&params);
        let again = run(&params);
        prop_assert_eq!(
            fingerprint(&first),
            fingerprint(&again),
            "a lossy serving run did not replay"
        );
    }
}
