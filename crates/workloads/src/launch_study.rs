//! The Fig. 1 kernel-launch-latency study.
//!
//! "Our experiments quantify the overheads associated with the GPUs'
//! hardware scheduling logic when presented with a variable length sequence
//! of empty kernels." We reproduce the study against the three anonymized
//! scheduler profiles: enqueue `K` empty kernels at once and report the
//! average per-kernel launch latency observed by the front-end.

use crate::harness::{Harness, JobFailure, ScenarioParams, ScenarioResult, Workload};
use gtn_core::cluster::Cluster;
use gtn_core::config::ClusterConfig;
use gtn_core::Strategy;
use gtn_gpu::config::LaunchModel;
use gtn_gpu::{KernelLaunch, SchedulerProfile};
use gtn_host::HostProgram;
use gtn_mem::MemPool;
use gtn_sim::stats::DurationHistogram;
use gtn_sim::time::SimDuration;

/// The batch sizes Fig. 1 sweeps.
pub const BATCH_SIZES: [u32; 5] = [1, 4, 16, 64, 256];

/// One measured point.
#[derive(Debug, Clone)]
pub struct LaunchPoint {
    /// Profile name.
    pub gpu: String,
    /// Kernel commands queued at once.
    pub queued: u32,
    /// Average per-kernel launch latency.
    pub avg_latency: SimDuration,
    /// Median per-kernel launch latency.
    pub p50_latency: SimDuration,
    /// 99th-percentile per-kernel launch latency.
    pub p99_latency: SimDuration,
}

/// Enqueue `k` empty kernels at once on a GPU with `profile` and return
/// the per-kernel launch-latency histogram (simulation, not the closed
/// form — the two are cross-checked in tests).
///
/// # Panics
/// Panics if `k` is 0 or the batch does not complete.
pub fn measure_hist(profile: &SchedulerProfile, k: u32) -> DurationHistogram {
    let params = ScenarioParams::new(Strategy::Hdn).nodes(1).size(k as u64);
    let (cluster, _) = run_batch(profile, &params)
        .unwrap_or_else(|failure| panic!("launch batch of {k} failed\n{failure}"));
    let hist = cluster
        .gpu(0)
        .stats()
        .histogram("launch_latency")
        .expect("launch latencies recorded");
    assert_eq!(hist.count(), k as u64);
    hist.clone()
}

/// Enqueue a batch of `params.size` empty kernels on one node with the
/// given scheduler profile and run it through the shared harness.
fn run_batch(
    profile: &SchedulerProfile,
    params: &ScenarioParams,
) -> Result<(Cluster, ScenarioResult), JobFailure> {
    let k = match u32::try_from(params.size) {
        Ok(k) if k >= 1 => k,
        _ => {
            return Err(JobFailure::Invalid(format!(
                "a launch batch of {} kernels",
                params.size
            )))
        }
    };
    let mut config = ClusterConfig::table2(1);
    config.gpu.launch = LaunchModel::Profile(profile.clone());
    config.log_events = false;
    params.patch.apply(&mut config);
    config.validate().map_err(JobFailure::Invalid)?;

    let mem = MemPool::new(1);
    let mut p = HostProgram::new();
    // Enqueue the whole batch without waiting (a stream of empty kernels
    // presented to the scheduler at once), then wait for the last.
    for i in 0..k {
        p.launch(KernelLaunch::empty(&format!("k{i}")));
    }
    p.wait_kernel(&format!("k{}", k - 1));
    Harness::try_execute("launch_study", params, config, mem, vec![p])
}

/// The full Fig. 1 sweep: three profiles × five batch sizes.
pub fn figure1() -> Vec<LaunchPoint> {
    let mut out = Vec::new();
    for profile in SchedulerProfile::all() {
        for &k in &BATCH_SIZES {
            let hist = measure_hist(&profile, k);
            out.push(LaunchPoint {
                gpu: profile.name.clone(),
                queued: k,
                avg_latency: hist.mean(),
                p50_latency: hist.percentile(50.0),
                p99_latency: hist.percentile(99.0),
            });
        }
    }
    out
}

/// Fig. 1's study, adapted to the shared [`Workload`] frame: `variant`
/// selects the scheduler profile, `size` the batch length.
#[derive(Debug, Default)]
pub struct LaunchStudy;

impl Workload for LaunchStudy {
    fn name(&self) -> &'static str {
        "launch_study"
    }

    fn strategies(&self) -> Vec<Strategy> {
        // The study has no networking dimension; one strategy suffices.
        vec![Strategy::Hdn]
    }

    fn smoke_scenario(&self, strategy: Strategy) -> ScenarioParams {
        ScenarioParams::new(strategy).nodes(1).size(16)
    }

    fn run(&self, params: &ScenarioParams) -> Result<ScenarioResult, JobFailure> {
        let profiles = SchedulerProfile::all();
        let profile = profiles.get(params.variant as usize).ok_or_else(|| {
            JobFailure::Invalid(format!("no scheduler profile {}", params.variant))
        })?;
        let (cluster, scenario) = run_batch(profile, params)?;
        let hist = cluster
            .gpu(0)
            .stats()
            .histogram("launch_latency")
            .expect("a completed batch records its launch latencies");
        let sim = hist.mean().as_ns_f64();
        let analytic = profile.average_over_batch(params.size as u32).as_ns_f64();
        let err = (sim - analytic).abs() / analytic;
        if err >= 0.02 {
            return Err(JobFailure::Diverged(format!(
                "{} k={}: sim {sim} ns vs analytic {analytic} ns",
                profile.name, params.size
            )));
        }
        Ok(scenario)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulated_average_matches_closed_form() {
        // The dispatch pipeline charges each kernel the marginal profile
        // latency; host-side enqueue costs do not count as launch latency.
        for profile in SchedulerProfile::all() {
            for k in [1u32, 4, 16] {
                let sim = measure_hist(&profile, k).mean().as_ns_f64();
                let analytic = profile.average_over_batch(k).as_ns_f64();
                let err = (sim - analytic).abs() / analytic;
                assert!(
                    err < 0.02,
                    "{} k={k}: sim {sim} vs analytic {analytic}",
                    profile.name
                );
            }
        }
    }

    #[test]
    fn measured_histogram_quotes_sane_percentiles() {
        let profile = &SchedulerProfile::all()[0];
        let hist = measure_hist(profile, 16);
        assert_eq!(hist.count(), 16);
        let (p50, p99) = (hist.percentile(50.0), hist.percentile(99.0));
        assert!(hist.min() <= p50 && p50 <= p99 && p99 <= hist.max());
        // The first launch in a batch pays the full pipeline, later ones
        // only the marginal interval — so the tail sits above the median.
        assert!(p99 > p50, "p99 {p99} vs p50 {p50}");
    }

    #[test]
    fn figure1_shape_latencies_decline_and_span_3_to_20us() {
        let points = figure1();
        assert_eq!(points.len(), 15);
        // Declining within each GPU.
        for profile in SchedulerProfile::all() {
            let series: Vec<f64> = points
                .iter()
                .filter(|p| p.gpu == profile.name)
                .map(|p| p.avg_latency.as_us_f64())
                .collect();
            for w in series.windows(2) {
                assert!(w[1] < w[0], "{}: {series:?}", profile.name);
            }
        }
        // Envelope: 3 us to 20 us.
        let max = points
            .iter()
            .map(|p| p.avg_latency.as_us_f64())
            .fold(0.0, f64::max);
        let min = points
            .iter()
            .map(|p| p.avg_latency.as_us_f64())
            .fold(f64::INFINITY, f64::min);
        assert!((19.0..21.0).contains(&max), "max {max}");
        assert!((3.0..4.0).contains(&min), "min {min}");
    }
}
