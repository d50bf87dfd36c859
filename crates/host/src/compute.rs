//! CPU compute-cost model (the OpenMP baseline of §5.3/§5.4).
//!
//! The CPU configuration exists in the paper to (a) sanity-check problem
//! sizes where GPU offload stops making sense (small Jacobi grids win on
//! the CPU because they dodge kernel overheads, Fig. 9 left edge) and (b)
//! anchor the Fig. 10/11 speedups. First-order throughput is what matters:
//! a roofline blend of FLOP rate and memory bandwidth.

use crate::config::HostConfig;
use gtn_mem::latency::MemHierarchy;
use gtn_sim::time::SimDuration;

/// Compute-time estimator for parallel-for style CPU regions.
#[derive(Debug, Clone)]
pub struct CpuCompute {
    cfg: HostConfig,
    mem: MemHierarchy,
}

impl CpuCompute {
    /// Model for the given host configuration with the Table 2 memory
    /// hierarchy.
    pub fn new(cfg: HostConfig) -> Self {
        CpuCompute {
            cfg,
            mem: MemHierarchy::table2_cpu(),
        }
    }

    /// Aggregate FP32 rate in GFLOP/s across all cores, derated by parallel
    /// efficiency.
    pub fn gflops(&self) -> f64 {
        self.cfg.clock_ghz
            * self.cfg.cores as f64
            * self.cfg.flops_per_cycle as f64
            * self.cfg.parallel_efficiency
    }

    /// Time of an elementwise parallel region: `items` elements, each
    /// `flops` FP32 ops and `bytes_per_item` of memory traffic. Roofline:
    /// the slower of the compute and bandwidth terms, plus a fixed fork-join
    /// overhead.
    pub fn elementwise(&self, items: u64, flops: u64, bytes_per_item: u64) -> SimDuration {
        let compute_ns = (items * flops) as f64 / self.gflops();
        let traffic_ns = self.mem.sweep_time(items * bytes_per_item).as_ns_f64();
        let region_ns = compute_ns.max(traffic_ns);
        SimDuration::from_ns_f64(region_ns) + self.fork_join()
    }

    /// Fixed cost of entering/leaving a parallel region (thread wake +
    /// barrier).
    pub fn fork_join(&self) -> SimDuration {
        // ~1.5 us is typical for an 8-thread OpenMP region.
        SimDuration::from_ns(1_500)
    }

    /// Time to memcpy `bytes` (e.g. draining an MPI mailbox into the user
    /// buffer).
    pub fn memcpy(&self, bytes: u64) -> SimDuration {
        SimDuration::from_ns_f64(bytes as f64 / self.cfg.memcpy_gbps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CpuCompute {
        CpuCompute::new(HostConfig::default())
    }

    #[test]
    fn gflops_is_plausible_for_8_core_4ghz() {
        let g = model().gflops();
        // 4 GHz * 8 cores * 16 flops * 0.85 = 435 GFLOP/s.
        assert!((g - 435.2).abs() < 0.1, "{g}");
    }

    #[test]
    fn elementwise_scales_linearly_at_large_sizes() {
        let m = model();
        let t1 = m.elementwise(1 << 22, 2, 8) - m.fork_join();
        let t2 = m.elementwise(1 << 23, 2, 8) - m.fork_join();
        let ratio = t2.as_ns_f64() / t1.as_ns_f64();
        assert!((ratio - 2.0).abs() < 0.01, "{ratio}");
    }

    #[test]
    fn small_regions_are_forkjoin_dominated() {
        let m = model();
        let t = m.elementwise(16, 5, 12);
        assert!(t < SimDuration::from_us(2), "{t}");
        assert!(t >= m.fork_join());
    }

    #[test]
    fn bandwidth_bound_work_ignores_flops() {
        let m = model();
        // 1 flop vs 2 flops per item at heavy traffic: same time.
        let a = m.elementwise(1 << 22, 1, 64);
        let b = m.elementwise(1 << 22, 2, 64);
        assert_eq!(a, b);
    }

    #[test]
    fn memcpy_time() {
        let m = model();
        // 20 GB/s: 1 MB in ~52.4 us.
        let t = m.memcpy(1 << 20);
        assert!((t.as_us_f64() - 52.4).abs() < 0.2, "{t}");
    }
}
