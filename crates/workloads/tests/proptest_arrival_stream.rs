//! Contract of the serving arrival stream, `serving::ArrivalStream`:
//!
//! 1. **Equivalence** — over 1–300 tenants, horizons from 1 ns to 50 ms,
//!    loads from one expected arrival per horizon to many per window,
//!    both arrival processes and `collective_pct` 0–100,
//!    `generate_arrivals` (the stream collected) returns exactly the
//!    trace of the generator it replaced: every tenant's arrivals drawn
//!    tenant-major into one `Vec`, then sorted by `(at_ns, tenant)`,
//!    kept here verbatim as the model.
//! 2. **Edge cases** — a tenant with no arrival, a horizon that is a
//!    single window, and one tenant arriving several times in one window
//!    each occur in a pinned case, and each case matches the model.

use gtn_core::Strategy;
use gtn_sim::rng::SimRng;
use gtn_workloads::serving::{
    generate_arrivals, Arrival, ArrivalProcess, ArrivalStream, JobKind, ServingParams,
};
use proptest::prelude::*;
use std::collections::HashSet;

/// Pareto shape and bound the model draws with (`serving.rs`' constants).
const PARETO_ALPHA: f64 = 1.5;
const PARETO_BOUND_FACTOR: f64 = 1000.0;

fn model_gap_ns(rng: &mut SimRng, process: ArrivalProcess, mean_ns: f64) -> u64 {
    let u = rng.unit_f64();
    let gap = match process {
        ArrivalProcess::Poisson => -(1.0 - u).ln() * mean_ns,
        ArrivalProcess::Pareto => {
            let x_m = mean_ns * (PARETO_ALPHA - 1.0) / PARETO_ALPHA;
            let x = x_m / (1.0 - u).powf(1.0 / PARETO_ALPHA);
            x.min(mean_ns * PARETO_BOUND_FACTOR)
        }
    };
    (gap as u64).max(1)
}

/// The trace generator before the stream: tenant-major generation into
/// one buffer, then one global sort.
fn model_trace(params: &ServingParams) -> Vec<Arrival> {
    assert!(params.tenants >= 1, "need at least one tenant");
    assert!(params.offered_jps >= 1, "need a positive offered load");
    let mean_gap_ns = params.tenants as f64 * 1e9 / params.offered_jps as f64;
    let root = SimRng::seeded(params.seed);
    let mut trace = Vec::new();
    for tenant in 0..params.tenants {
        let mut rng = root.fork(u64::from(tenant));
        let mut t = 0u64;
        loop {
            let gap = model_gap_ns(&mut rng, params.process, mean_gap_ns);
            t = t.saturating_add(gap);
            if t >= params.duration_ns {
                break;
            }
            let kind = if rng.unit_f64() * 100.0 < f64::from(params.collective_pct) {
                JobKind::Collective
            } else {
                JobKind::Rpc
            };
            let jitter = rng.unit_f64();
            let fail = rng.unit_f64();
            trace.push(Arrival {
                at_ns: t,
                tenant,
                kind,
                jitter,
                fail,
            });
        }
    }
    trace.sort_unstable_by_key(|a| (a.at_ns, a.tenant));
    trace
}

/// Params with `expected` arrivals over `duration_ns` on average.
fn params(
    tenants: u32,
    duration_ns: u64,
    expected: u64,
    process: ArrivalProcess,
    collective_pct: u32,
    seed: u64,
) -> ServingParams {
    let offered = (expected as f64 * 1e9 / duration_ns as f64).max(1.0) as u64;
    let mut p = ServingParams::new(Strategy::GpuTn)
        .tenants(tenants)
        .duration_ns(duration_ns)
        .offered(offered)
        .process(process)
        .seed(seed);
    p.collective_pct = collective_pct;
    p
}

/// How many times some tenant arrives more than once in one window.
fn repeats_in_a_window(p: &ServingParams) -> usize {
    let window_ns = ArrivalStream::new(p).window_ns();
    let mut seen = HashSet::new();
    generate_arrivals(p)
        .iter()
        .filter(|a| !seen.insert((a.tenant, a.at_ns / window_ns)))
        .count()
}

proptest! {
    // Each case is two generations of at most ~16k arrivals.
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_stream_is_the_sorted_trace(
        tenants in 1u32..301,
        horizon in prop_oneof![1u64..64, 64u64..100_000, 100_000u64..50_000_000],
        load_log2 in 0u32..14,
        heavy_tailed in any::<bool>(),
        collective_pct in 0u32..101,
        seed in any::<u64>(),
    ) {
        let process = if heavy_tailed { ArrivalProcess::Pareto } else { ArrivalProcess::Poisson };
        let p = params(tenants, horizon, 1 << load_log2, process, collective_pct, seed);
        let trace = generate_arrivals(&p);
        prop_assert_eq!(&trace, &model_trace(&p), "{:?}", p);
        prop_assert_eq!(trace.len(), ArrivalStream::new(&p).count());
    }
}

#[test]
fn pinned_edge_cases_match_the_model() {
    let poisson = ArrivalProcess::Poisson;
    // One expected arrival over 300 tenants: almost every tenant has none.
    let sparse = params(300, 1_000_000, 1, poisson, 10, 7);
    let trace = generate_arrivals(&sparse);
    assert_eq!(trace, model_trace(&sparse));
    let active: HashSet<u32> = trace.iter().map(|a| a.tenant).collect();
    assert!(active.len() < 300, "every tenant arrived");

    // Under four expected arrivals the whole horizon is one window.
    let mut most = 0;
    for seed in 0..50 {
        let single = params(3, 1_000, 3, ArrivalProcess::Pareto, 50, seed);
        assert!(ArrivalStream::new(&single).window_ns() >= single.duration_ns);
        let trace = generate_arrivals(&single);
        assert_eq!(trace, model_trace(&single));
        most = most.max(trace.len());
    }
    assert!(most >= 3, "no seed put three arrivals in the window");

    // One tenant, a thousand arrivals: the window cap (64 per tenant)
    // puts many of them in each window.
    let dense = params(1, 5_000_000, 1_000, poisson, 100, 3);
    assert!(repeats_in_a_window(&dense) > 500);
    assert_eq!(generate_arrivals(&dense), model_trace(&dense));

    // Several tenants, several arrivals per window each.
    let busy = params(4, 2_000_000, 4_000, ArrivalProcess::Pareto, 0, 5);
    assert!(repeats_in_a_window(&busy) > 0);
    assert_eq!(generate_arrivals(&busy), model_trace(&busy));

    // A 1-ns horizon holds no arrival: every gap is at least 1 ns.
    let instant = params(5, 1, 1, poisson, 10, 1);
    assert!(generate_arrivals(&instant).is_empty());
    assert!(model_trace(&instant).is_empty());
}
