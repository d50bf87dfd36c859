//! Host CPU configuration (Table 2, "CPU and Memory Configuration") plus
//! runtime-call costs.
//!
//! The cost split mirrors Table 1's overhead taxonomy: HDN pays the **full
//! network stack** per message on the critical path (`send_stack_ns`);
//! GDS and GPU-TN pay only a **partial network stack** up front
//! (`post_triggered_ns`), off the critical path.

use gtn_sim::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Parameters of the host CPU and its runtimes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HostConfig {
    /// Core clock, GHz. Paper: 4 GHz.
    pub clock_ghz: f64,
    /// Core count. Paper: 8.
    pub cores: u32,
    /// FP32 operations per cycle per core (SIMD width × FMA).
    pub flops_per_cycle: u32,
    /// Parallel efficiency of OpenMP-style regions (synchronization and
    /// imbalance losses).
    pub parallel_efficiency: f64,
    /// Sustained memcpy bandwidth, GB/s (share of the DDR4 channels).
    pub memcpy_gbps: f64,
    /// Full network-stack cost of initiating one two-sided message
    /// (marshalling, tag matching, command build, doorbell) — the HDN
    /// critical-path "Send" of Fig. 8.
    pub send_stack_ns: u64,
    /// Receive-side stack cost per message (progress + matching).
    pub recv_stack_ns: u64,
    /// Cost of posting one pre-built triggered operation / pre-registered
    /// put (the "partial network stack" of Table 1).
    pub post_triggered_ns: u64,
    /// Runtime cost of enqueuing a kernel to the GPU (driver + queue write),
    /// before the GPU's own launch latency.
    pub kernel_dispatch_ns: u64,
    /// CPU flag-poll interval, nanoseconds.
    pub poll_interval_ns: u64,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            clock_ghz: 4.0,
            cores: 8,
            flops_per_cycle: 16, // AVX2-class FMA on f32
            parallel_efficiency: 0.85,
            memcpy_gbps: 20.0,
            send_stack_ns: 300,
            recv_stack_ns: 150,
            post_triggered_ns: 150,
            kernel_dispatch_ns: 150,
            poll_interval_ns: 40,
        }
    }
}

impl HostConfig {
    /// Duration of the full send stack.
    pub fn send_stack(&self) -> SimDuration {
        SimDuration::from_ns(self.send_stack_ns)
    }

    /// Duration of the receive stack.
    pub fn recv_stack(&self) -> SimDuration {
        SimDuration::from_ns(self.recv_stack_ns)
    }

    /// Duration of posting a triggered/pre-registered operation.
    pub fn post_triggered(&self) -> SimDuration {
        SimDuration::from_ns(self.post_triggered_ns)
    }

    /// Duration of a kernel dispatch call.
    pub fn kernel_dispatch(&self) -> SimDuration {
        SimDuration::from_ns(self.kernel_dispatch_ns)
    }

    /// Validate invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.clock_ghz <= 0.0 || self.cores == 0 {
            return Err("clock and cores must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.parallel_efficiency) || self.parallel_efficiency == 0.0 {
            return Err(format!(
                "parallel_efficiency must be in (0,1]: {}",
                self.parallel_efficiency
            ));
        }
        if !(self.memcpy_gbps.is_finite() && self.memcpy_gbps > 0.0) {
            return Err(format!(
                "memcpy_gbps must be finite and positive, got {}",
                self.memcpy_gbps
            ));
        }
        if self.poll_interval_ns == 0 {
            return Err("poll_interval_ns must be nonzero".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table2() {
        let c = HostConfig::default();
        assert_eq!(c.clock_ghz, 4.0);
        assert_eq!(c.cores, 8);
        assert!(c.validate().is_ok());
        assert_eq!(c.send_stack(), SimDuration::from_ns(300));
        assert!(
            c.post_triggered() < c.send_stack(),
            "Table 1: partial < full stack"
        );
    }

    #[test]
    fn validation() {
        let c = HostConfig {
            parallel_efficiency: 0.0,
            ..HostConfig::default()
        };
        assert!(c.validate().is_err());
        let c = HostConfig {
            cores: 0,
            ..HostConfig::default()
        };
        assert!(c.validate().is_err());
        let c = HostConfig {
            poll_interval_ns: 0,
            ..HostConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn memcpy_bandwidth_must_be_finite_and_positive() {
        for memcpy_gbps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let c = HostConfig {
                memcpy_gbps,
                ..HostConfig::default()
            };
            assert!(c.validate().is_err(), "{memcpy_gbps}");
        }
    }
}
