//! The four evaluated networking strategies (§5.1).
//!
//! | Strategy | Who computes | Who initiates network | When |
//! |---|---|---|---|
//! | [`Strategy::Cpu`]   | CPU (OpenMP) | CPU full stack | inline |
//! | [`Strategy::Hdn`]   | GPU | CPU full stack | kernel boundary |
//! | [`Strategy::Gds`]   | GPU | GPU front-end doorbell (CPU pre-posts) | kernel boundary |
//! | [`Strategy::GpuTn`] | GPU | GPU trigger store (CPU pre-registers) | **intra-kernel** |
//!
//! The mechanics live in the hardware vocabulary, and each workload lowers
//! every strategy onto it directly:
//!
//! - CPU and HDN are ordinary host programs over
//!   [`gtn_host::mpi::MpiWorld`]'s matched send/recv;
//! - GDS pre-registers [`gtn_nic::nic::NicCommand::TriggeredPut`]s and has
//!   the GPU front-end ring them after a kernel
//!   ([`gtn_gpu::KernelLaunch::ring_on_done`]);
//! - GPU-TN pre-registers the same puts and fires them from inside the
//!   kernel ([`gtn_gpu::kernel::ProgramBuilder::release_triggers`], or the
//!   [`crate::kernel_api`] trigger plans).
//!
//! This module only names the strategies and their Table 1 properties.

use serde::{Deserialize, Serialize};
use std::fmt;

/// One of the paper's four evaluated configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Strategy {
    /// All computation and communication on the CPU (sanity baseline).
    Cpu,
    /// Host-Driven Networking: GPU compute, CPU-initiated messaging at
    /// kernel boundaries (the classic coprocessor model).
    Hdn,
    /// GPUDirect-Async-like: CPU pre-posts, GPU front-end rings the
    /// doorbell at kernel boundaries.
    Gds,
    /// GPU Triggered Networking: CPU pre-registers triggered operations,
    /// GPU fires them from inside the kernel.
    GpuTn,
}

impl Strategy {
    /// All strategies in the paper's presentation order.
    pub fn all() -> [Strategy; 4] {
        [Strategy::Cpu, Strategy::Hdn, Strategy::Gds, Strategy::GpuTn]
    }

    /// The GPU-accelerated strategies (Fig. 10's speedup-vs-CPU set).
    pub fn gpu_strategies() -> [Strategy; 3] {
        [Strategy::Hdn, Strategy::Gds, Strategy::GpuTn]
    }

    /// Paper name.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Cpu => "CPU",
            Strategy::Hdn => "HDN",
            Strategy::Gds => "GDS",
            Strategy::GpuTn => "GPU-TN",
        }
    }

    /// Does this strategy run workload compute on the GPU?
    pub fn uses_gpu(self) -> bool {
        !matches!(self, Strategy::Cpu)
    }

    /// Can this strategy initiate messages from inside a kernel? (Table 1's
    /// "Intra-Kernel" column.)
    pub fn intra_kernel(self) -> bool {
        matches!(self, Strategy::GpuTn)
    }

    /// Is the network trigger issued by the GPU? (Table 1's "GPU Triggered"
    /// column.)
    pub fn gpu_triggered(self) -> bool {
        matches!(self, Strategy::Gds | Strategy::GpuTn)
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Strategy {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "cpu" => Ok(Strategy::Cpu),
            "hdn" => Ok(Strategy::Hdn),
            "gds" => Ok(Strategy::Gds),
            "gpu-tn" | "gputn" | "gpu_tn" => Ok(Strategy::GpuTn),
            other => Err(format!("unknown strategy '{other}' (cpu|hdn|gds|gpu-tn)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_columns() {
        // Table 1 rows for the strategies we implement.
        assert!(!Strategy::Hdn.gpu_triggered() && !Strategy::Hdn.intra_kernel());
        assert!(Strategy::Gds.gpu_triggered() && !Strategy::Gds.intra_kernel());
        assert!(Strategy::GpuTn.gpu_triggered() && Strategy::GpuTn.intra_kernel());
        assert!(!Strategy::Cpu.uses_gpu());
        assert!(Strategy::Hdn.uses_gpu());
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for s in Strategy::all() {
            let parsed: Strategy = s.name().parse().unwrap();
            assert_eq!(parsed, s);
        }
        assert!("warp-drive".parse::<Strategy>().is_err());
    }

    #[test]
    fn ordering_matches_paper() {
        assert_eq!(
            Strategy::all().map(|s| s.name()),
            ["CPU", "HDN", "GDS", "GPU-TN"]
        );
        assert_eq!(Strategy::gpu_strategies().len(), 3);
    }
}
