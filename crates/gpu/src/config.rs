//! GPU configuration (Table 2, "GPU Configuration") and derived timing
//! helpers.

use crate::frontend::SchedulerProfile;
use gtn_mem::scope::FenceCosts;
use gtn_sim::time::SimDuration;
use serde::{Deserialize, Serialize};

/// How kernel launch latency is determined.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum LaunchModel {
    /// Fixed launch latency — the paper's calibrated evaluation setting
    /// ("3 µs of kernel overhead evenly divided between the launch and
    /// teardown phases", §5.1).
    Fixed {
        /// Launch latency in nanoseconds.
        ns: u64,
    },
    /// Queue-depth-dependent latency from a Fig. 1 scheduler profile.
    Profile(SchedulerProfile),
}

/// Parameters of the simulated GPU.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GpuConfig {
    /// Core clock, GHz. Paper: 1 GHz.
    pub clock_ghz: f64,
    /// Number of compute units. Paper: 24.
    pub num_cus: u32,
    /// Wavefront width (work-items executing in lockstep). 64 on AMD GPUs.
    pub wavefront_size: u32,
    /// Launch latency model. Paper evaluation: fixed 1.5 µs.
    pub launch: LaunchModel,
    /// Kernel teardown latency, nanoseconds. Paper evaluation: 1.5 µs.
    pub teardown_ns: u64,
    /// Scoped-fence costs (§4.2.6).
    pub fences: FenceCosts,
    /// Interval between successive checks of a polled flag, nanoseconds.
    pub poll_interval_ns: u64,
    /// Issue cost of one MMIO trigger store, nanoseconds (posted write;
    /// the latency to the NIC is the NIC's `trigger_route_ns`).
    pub trigger_store_ns: u64,
    /// Cost of a work-group barrier, nanoseconds.
    pub barrier_ns: u64,
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig {
            clock_ghz: 1.0,
            num_cus: 24,
            wavefront_size: 64,
            launch: LaunchModel::Fixed { ns: 1_500 },
            teardown_ns: 1_500,
            fences: FenceCosts {
                workgroup_ns: 10.0,
                device_ns: 25.0,
                system_ns: 50.0,
            },
            poll_interval_ns: 40,
            trigger_store_ns: 10,
            barrier_ns: 20,
        }
    }
}

impl GpuConfig {
    /// Launch latency when `queued` kernel commands (including this one) are
    /// visible to the front-end scheduler.
    pub fn launch_latency(&self, queued: u32) -> SimDuration {
        match &self.launch {
            LaunchModel::Fixed { ns } => SimDuration::from_ns(*ns),
            LaunchModel::Profile(p) => p.latency_at_depth(queued),
        }
    }

    /// Teardown latency.
    pub fn teardown_latency(&self) -> SimDuration {
        SimDuration::from_ns(self.teardown_ns)
    }

    /// Validate invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.clock_ghz <= 0.0 {
            return Err(format!("clock_ghz must be positive: {}", self.clock_ghz));
        }
        if self.num_cus == 0 || self.wavefront_size == 0 {
            return Err("num_cus and wavefront_size must be nonzero".into());
        }
        if self.poll_interval_ns == 0 {
            return Err("poll_interval_ns must be nonzero (livelock)".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table2() {
        let c = GpuConfig::default();
        assert_eq!(c.clock_ghz, 1.0);
        assert_eq!(c.num_cus, 24);
        assert_eq!(c.wavefront_size, 64);
        assert_eq!(c.launch_latency(1), SimDuration::from_us(1).times(3) / 2);
        assert_eq!(c.teardown_latency(), SimDuration::from_ns(1_500));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_nonsense() {
        let c = GpuConfig {
            num_cus: 0,
            ..GpuConfig::default()
        };
        assert!(c.validate().is_err());
        let c = GpuConfig {
            poll_interval_ns: 0,
            ..GpuConfig::default()
        };
        assert!(c.validate().is_err());
    }
}
