//! The full Table 2 configuration, aggregated.

use crate::membership::FailureConfig;
use gtn_fabric::FabricConfig;
use gtn_gpu::GpuConfig;
use gtn_host::HostConfig;
use gtn_nic::NicConfig;
use serde::{Deserialize, Serialize};

/// Configuration of a simulated cluster.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of nodes (each a CPU+GPU+NIC SoC).
    pub n_nodes: u32,
    /// Host CPU parameters.
    pub host: HostConfig,
    /// GPU parameters.
    pub gpu: GpuConfig,
    /// NIC parameters (including the trigger-list lookup kind).
    pub nic: NicConfig,
    /// Interconnect parameters.
    pub fabric: FabricConfig,
    /// Record the activity log (on for experiments that decompose
    /// latencies; off for large sweeps).
    pub log_events: bool,
    /// Stall watchdog horizon, simulated nanoseconds: if this much
    /// simulated time passes with every dispatched event classified as an
    /// idle poll retry (no CPU pc movement, no GPU op retired, no NIC
    /// activity), the run is declared stalled and a
    /// [`crate::stall::StallReport`] is produced instead of spinning to
    /// the event cap. Must comfortably exceed the longest legitimate gap
    /// between progress events (compute phases, retransmit timeouts).
    pub stall_timeout_ns: u64,
    /// Failure detection (heartbeats/leases) and the recovery policy. Off
    /// by default: no probe events exist, so runs without it are
    /// bit-identical to the pre-detection model.
    pub failure: FailureConfig,
}

impl ClusterConfig {
    /// The paper's Table 2 configuration for `n_nodes` nodes.
    pub fn table2(n_nodes: u32) -> Self {
        assert!(n_nodes >= 1);
        ClusterConfig {
            n_nodes,
            host: HostConfig::default(),
            gpu: GpuConfig::default(),
            nic: NicConfig::default(),
            fabric: FabricConfig::default(),
            log_events: true,
            // 50 ms of simulated dead air: >10x the largest retransmit
            // timeout an 8 MiB transfer can back off to, so the watchdog
            // never fires on a run that is still (slowly) making progress.
            stall_timeout_ns: 50_000_000,
            failure: FailureConfig::off(),
        }
    }

    /// Validate all component configurations.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_nodes == 0 {
            return Err("cluster needs at least one node".into());
        }
        self.host.validate()?;
        self.gpu.validate()?;
        self.nic.validate()?;
        self.fabric.validate()?;
        if let Some(cap) = self.fabric.topology.capacity() {
            if u64::from(self.n_nodes) > cap {
                return Err(format!(
                    "{} supports at most {cap} hosts, asked for {}",
                    self.fabric.topology.label(),
                    self.n_nodes
                ));
            }
        }
        // Without ARQ the NIC never consults the fault plan, so a plan that
        // can drop would run silently lossless. Crash-stop alone is fine:
        // the cluster suppresses a dead component's traffic itself.
        if self.fabric.faults.can_drop() && !self.nic.reliability.enabled {
            return Err(
                "fabric.faults can drop messages (seeded loss, or a lossy or flapping \
                 degrade) but nic.reliability is disabled; enable the ARQ layer"
                    .into(),
            );
        }
        if self.stall_timeout_ns == 0 {
            return Err("stall_timeout_ns must be nonzero (watchdog would fire instantly)".into());
        }
        self.failure.validate()?;
        Ok(())
    }

    /// Render the configuration as a Table 2-style report (used by the
    /// `table2_config` bench to print paper-vs-model side by side). A
    /// trailing `*` marks the values that are printed only: no cost model
    /// a figure runs reads host cores or clock, or GPU CUs or clock.
    pub fn render_table2(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "CPU and Memory Configuration");
        let _ = writeln!(
            s,
            "  Type               {} cores @ {} GHz (paper: 8 wide OOO, 4GHz, 8 cores) *",
            self.host.cores, self.host.clock_ghz
        );
        let _ = writeln!(s, "GPU Configuration");
        let _ = writeln!(
            s,
            "  Type               {} CUs @ {} GHz (paper: 1 GHz, 24 Compute Units) *",
            self.gpu.num_cus, self.gpu.clock_ghz
        );
        let _ = writeln!(
            s,
            "  Kernel Latencies   {:?} launch / {} ns teardown (paper: 1.5us / 1.5us)",
            self.gpu.launch, self.gpu.teardown_ns
        );
        let _ = writeln!(s, "Network Configuration");
        let _ = writeln!(
            s,
            "  Latency            {} ns link, {} ns switch (paper: 100ns / 100ns)",
            self.fabric.link_latency_ns, self.fabric.switch_latency_ns
        );
        let _ = writeln!(
            s,
            "  Bandwidth          {} Gbps (paper: 100 Gbps)",
            self.fabric.link_gbps
        );
        let _ = writeln!(
            s,
            "  Topology           {:?} (paper: star, single switch)",
            self.fabric.topology
        );
        let _ = writeln!(
            s,
            "  Trigger lookup     {} (paper prototype: <=16 active, associative)",
            self.nic.lookup.name()
        );
        let _ = writeln!(
            s,
            "* printed only: host cores and clock and GPU CUs and clock set no time in any figure"
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_is_valid_and_matches_paper_constants() {
        let c = ClusterConfig::table2(8);
        assert!(c.validate().is_ok());
        assert_eq!(c.n_nodes, 8);
        assert_eq!(c.gpu.num_cus, 24);
        assert_eq!(c.host.cores, 8);
        assert_eq!(c.fabric.link_gbps, 100.0);
    }

    #[test]
    fn render_mentions_all_sections() {
        let s = ClusterConfig::table2(4).render_table2();
        for needle in [
            "CPU and Memory",
            "GPU Configuration",
            "Network Configuration",
            "100 Gbps",
            "* printed only: host cores and clock and GPU CUs and clock",
        ] {
            assert!(s.contains(needle), "missing {needle}:\n{s}");
        }
    }

    #[test]
    fn droppable_faults_need_the_arq_layer() {
        use gtn_fabric::{DegradeSpec, FaultConfig};
        use gtn_nic::ReliabilityConfig;
        let with = |faults: FaultConfig, reliability: ReliabilityConfig| {
            let mut c = ClusterConfig::table2(2);
            c.fabric.faults = faults;
            c.nic.reliability = reliability;
            c.validate()
        };
        let off = ReliabilityConfig::default();
        let err = with(FaultConfig::loss(1, 0.01), off.clone()).unwrap_err();
        assert!(
            err.contains("fabric.faults") && err.contains("nic.reliability"),
            "{err}"
        );
        assert!(with(FaultConfig::loss(1, 0.01), ReliabilityConfig::on()).is_ok());
        let slow = DegradeSpec::edge(0, 2).latency(500).jitter(100);
        assert!(with(FaultConfig::degrade(1, slow), off.clone()).is_ok());
        let flap = DegradeSpec::edge(0, 2).flapping(1_000, 200);
        assert!(with(FaultConfig::degrade(1, flap), off.clone()).is_err());
        assert!(with(FaultConfig::crash(1, 5_000), off).is_ok());
    }

    #[test]
    fn zero_nodes_invalid() {
        let mut c = ClusterConfig::table2(1);
        c.n_nodes = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn a_topology_smaller_than_the_cluster_is_invalid() {
        // A k = 2 fat-tree holds two hosts.
        let mut c = ClusterConfig::table2(2);
        c.fabric.topology = gtn_fabric::Topology::FatTree { k: 2 };
        assert!(c.validate().is_ok());
        c.n_nodes = 3;
        assert!(c.validate().is_err());
    }
}
