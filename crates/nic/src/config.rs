//! NIC timing configuration.
//!
//! First-order costs of each stage of the NIC pipeline. Defaults are
//! calibrated so the Fig. 8 microbenchmark decomposition reproduces the
//! paper's 2.71 µs (GPU-TN) / 3.76 µs (GDS) / 4.21 µs (HDN) target-side
//! completion times; see EXPERIMENTS.md for the calibration trace.

use crate::lookup::LookupKind;
use crate::reliability::ReliabilityConfig;
use crate::trigger::TriggerPartitions;
use serde::{Deserialize, Serialize};

/// Timing and structural parameters of one NIC.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NicConfig {
    /// Host doorbell -> command visible at NIC, nanoseconds (SoC fabric
    /// write, not PCIe).
    pub doorbell_ns: u64,
    /// Command-processor occupancy per host command, nanoseconds.
    pub cmd_process_ns: u64,
    /// GPU MMIO store -> trigger FIFO entry, nanoseconds (§3.1 step 3).
    pub trigger_route_ns: u64,
    /// DMA engine setup per operation, nanoseconds.
    pub dma_setup_ns: u64,
    /// DMA streaming bandwidth from local memory, GB/s (shares the DDR4
    /// channels of Table 2).
    pub dma_gbps: f64,
    /// Target-side processing of an arrived message before payload bytes are
    /// visible in memory, nanoseconds.
    pub rx_process_ns: u64,
    /// Cost of the NIC writing a completion/notification flag, nanoseconds.
    pub flag_write_ns: u64,
    /// Trigger-list lookup implementation (§3.3).
    pub lookup: LookupKind,
    /// Surcharge for parsing a *dynamic* trigger descriptor (§3.4
    /// extension): the write carries operation fields, not just a tag.
    pub dyn_match_extra_ns: u64,
    /// Surcharge for a tag match that resolves to the host-memory
    /// overflow (spill) table instead of the CAM: the CAM-vs-memory
    /// trade-off of §3.3, paid only under trigger-list pressure.
    pub spill_match_extra_ns: u64,
    /// Capacity of the host-memory overflow table backing a full CAM.
    /// Registrations fail with `CapacityExceeded` only once *both* tiers
    /// are full.
    pub trigger_overflow_capacity: usize,
    /// Static multi-tenant partitioning of the trigger CAM plus an
    /// optional per-partition admission depth (entries past it are shed,
    /// never a panic). The default ([`TriggerPartitions::NONE`]) is
    /// bit-identical to an unpartitioned list.
    pub trigger_partitions: TriggerPartitions,
    /// Bounded completion queue: `Some(depth)` makes the cluster glue
    /// attach a `depth`-entry CQ with backpressure to every NIC — a full
    /// ring parks receive commits (the `cq_stall` stage) instead of
    /// overwriting. `None` (default) leaves CQ use to the caller
    /// (`attach_cq`), unbounded as in the seed model.
    pub cq_capacity: Option<u64>,
    /// Modeled host consumer for the bounded CQ: one entry is retired
    /// every `cq_drain_ns`. `0` models a consumer that never drains —
    /// a full ring then starves the receive path permanently (for
    /// resource-starvation diagnostics tests).
    pub cq_drain_ns: u64,
    /// End-to-end ARQ layer (sequence numbers, ACKs, retransmits).
    /// Disabled by default; required when the fabric injects faults.
    pub reliability: ReliabilityConfig,
}

impl Default for NicConfig {
    fn default() -> Self {
        NicConfig {
            doorbell_ns: 100,
            cmd_process_ns: 100,
            trigger_route_ns: 150,
            dma_setup_ns: 100,
            dma_gbps: 136.0,
            rx_process_ns: 100,
            flag_write_ns: 50,
            // The paper's prototype needs <= 16 simultaneous entries, so it
            // adopts the associative lookup (§3.3); that is our default too.
            lookup: LookupKind::Associative { ways: 16 },
            dyn_match_extra_ns: 20,
            // A host-memory table walk costs roughly a DDR round-trip more
            // than the CAM's parallel compare.
            spill_match_extra_ns: 200,
            trigger_overflow_capacity: crate::trigger::DEFAULT_OVERFLOW_CAPACITY,
            trigger_partitions: TriggerPartitions::NONE,
            cq_capacity: None,
            cq_drain_ns: 250,
            reliability: ReliabilityConfig::default(),
        }
    }
}

impl NicConfig {
    /// Validate invariants.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.dma_gbps.is_finite() && self.dma_gbps > 0.0) {
            return Err(format!(
                "dma_gbps must be finite and positive, got {}",
                self.dma_gbps
            ));
        }
        if let LookupKind::Associative { ways: 0 } = self.lookup {
            return Err("associative lookup needs at least one way".into());
        }
        if self.cq_capacity == Some(0) {
            return Err("bounded CQ needs at least one slot".into());
        }
        self.trigger_partitions.validate()?;
        self.reliability.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_associative_16() {
        let c = NicConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.lookup, LookupKind::Associative { ways: 16 });
    }

    #[test]
    fn dma_bandwidth_must_be_finite_and_positive() {
        for dma_gbps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let c = NicConfig {
                dma_gbps,
                ..NicConfig::default()
            };
            assert!(c.validate().is_err(), "{dma_gbps}");
        }
    }

    #[test]
    fn validation_catches_bad_values() {
        let c = NicConfig {
            dma_gbps: -1.0,
            ..NicConfig::default()
        };
        assert!(c.validate().is_err());
        let c = NicConfig {
            lookup: LookupKind::Associative { ways: 0 },
            ..NicConfig::default()
        };
        assert!(c.validate().is_err());
        let c = NicConfig {
            cq_capacity: Some(0),
            ..NicConfig::default()
        };
        assert!(c.validate().is_err());
        let c = NicConfig {
            trigger_partitions: TriggerPartitions {
                partitions: 0,
                depth: None,
            },
            ..NicConfig::default()
        };
        assert!(c.validate().is_err());
    }
}
