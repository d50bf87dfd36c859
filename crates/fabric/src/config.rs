//! Fabric configuration (Table 2, "Network Configuration").

use crate::faults::FaultConfig;
use crate::topology::Topology;
use serde::{Deserialize, Serialize};

/// Parameters of the interconnect.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FabricConfig {
    /// Link bandwidth, gigabits per second. Paper: 100 Gbps.
    pub link_gbps: f64,
    /// Per-link wire latency, nanoseconds. Paper: 100 ns.
    pub link_latency_ns: u64,
    /// Switch traversal latency, nanoseconds. Paper: 100 ns.
    pub switch_latency_ns: u64,
    /// Maximum transmission unit in bytes; messages are segmented into
    /// packets of at most this size. InfiniBand-class fabrics use 2–4 kB.
    pub mtu_bytes: u64,
    /// Per-packet header/CRC overhead on the wire, bytes.
    pub header_bytes: u64,
    /// Interconnect shape. The paper evaluates a star (single switch).
    pub topology: Topology,
    /// Seed for ECMP tie-breaking between equal-cost paths (fat-tree and
    /// dragonfly; star and full mesh have single-candidate routes and
    /// ignore it). The same seed reproduces the same flow placement.
    #[serde(default)]
    pub ecmp_seed: u64,
    /// Latency of a loopback (self-send) through the local NIC, nanoseconds.
    pub loopback_latency_ns: u64,
    /// Fault-injection plan; [`FaultConfig::none`] (the default) disables
    /// injection and leaves the lossless path untouched.
    pub faults: FaultConfig,
    /// Route-around failover: when set, a crashed or persistently degraded
    /// (`route_around`) graph edge is withdrawn from the routing tables
    /// this many ns after its failure onset — a switch-local BFD-style
    /// detection delay, deliberately much shorter than the end-to-end
    /// heartbeat lease. `None` (the default) disables failover entirely:
    /// routes are frozen at construction, exactly the pre-gray-failure
    /// behaviour.
    #[serde(default)]
    pub reroute_delay_ns: Option<u64>,
}

/// Default switch-local failure-detection delay used when the
/// `RouteAround` recovery policy arms failover without an explicit delay:
/// 10 µs, an optical-loss/BFD-fast detection scale — far under the
/// end-to-end heartbeat lease, far over per-hop latencies.
pub const DEFAULT_REROUTE_DELAY_NS: u64 = 10_000;

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            link_gbps: 100.0,
            link_latency_ns: 100,
            switch_latency_ns: 100,
            mtu_bytes: 4096,
            header_bytes: 30, // IB-like LRH+BTH+ICRC order of magnitude
            topology: Topology::Star,
            ecmp_seed: 0,
            loopback_latency_ns: 150,
            faults: FaultConfig::none(),
            reroute_delay_ns: None,
        }
    }
}

impl FabricConfig {
    /// Validate invariants; called by [`crate::Fabric::new`].
    pub fn validate(&self) -> Result<(), String> {
        if !(self.link_gbps.is_finite() && self.link_gbps > 0.0) {
            return Err(format!(
                "link_gbps must be finite and positive, got {}",
                self.link_gbps
            ));
        }
        if self.mtu_bytes == 0 {
            return Err("mtu_bytes must be nonzero".into());
        }
        self.topology.validate()?;
        self.faults.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table2() {
        let c = FabricConfig::default();
        assert_eq!(c.link_gbps, 100.0);
        assert_eq!(c.link_latency_ns, 100);
        assert_eq!(c.switch_latency_ns, 100);
        assert_eq!(c.topology, Topology::Star);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn link_bandwidth_must_be_finite_and_positive() {
        for link_gbps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let c = FabricConfig {
                link_gbps,
                ..FabricConfig::default()
            };
            assert!(c.validate().is_err(), "{link_gbps}");
        }
    }

    #[test]
    fn validation_rejects_nonsense() {
        let c = FabricConfig {
            link_gbps: 0.0,
            ..FabricConfig::default()
        };
        assert!(c.validate().is_err());
        let c = FabricConfig {
            mtu_bytes: 0,
            ..FabricConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn clone_preserves_all_fields() {
        let c = FabricConfig::default();
        let d = c.clone();
        assert_eq!(format!("{c:?}"), format!("{d:?}"));
    }
}
