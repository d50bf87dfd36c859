//! The shared scenario vocabulary: one parameter struct and one result
//! shape for every evaluation workload.
//!
//! The paper's figures are *controlled comparisons* — the same workload
//! under the four §5.1 strategies — so the knobs (strategy, node
//! geometry, size, iterations, seed, config overrides) and the reported
//! quantities (total / per-iteration time, stage decomposition, stats,
//! reliability counters) are the same across workloads. The `Workload`
//! trait and `Harness` in `gtn-workloads` drive these types generically.

use crate::cluster::{Cluster, ClusterResult};
use crate::config::ClusterConfig;
use crate::membership::{FailureConfig, RecoveryPolicy};
use crate::timeline::stage_breakdown;
use crate::{ClusterStats, Strategy};
use gtn_fabric::{CrashComponent, CrashSpec, DegradeSpec};
use gtn_sim::time::{SimDuration, SimTime};

/// Declarative cluster-config overrides a scenario carries with it, so
/// ablations (seeded loss, reliability) ride the same parameter struct as
/// everything else instead of bespoke closure plumbing.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ConfigPatch {
    /// Seeded packet loss `(fault_seed, rate)`; a rate of `0.0` is the
    /// lossless baseline (no fault injection, reliability layer off).
    pub loss: Option<(u64, f64)>,
    /// Shrunk NIC resource limits, to force the graceful-degradation
    /// machinery (trigger spill, bounded CQ, flow-control credits) under
    /// workloads that would never pressure the defaults.
    pub pressure: Option<ResourceLimits>,
    /// A permanent crash-stop injection: which component dies, and when.
    /// Implies the reliability layer (so pending sends toward the corpse
    /// end in structured delivery failures, not silence).
    pub crash: Option<CrashSpec>,
    /// Arm the heartbeat/lease failure detector with this recovery policy
    /// (see [`crate::membership::FailureConfig::detection`] for the
    /// cadence). `None` leaves detection off: a crash then surfaces only
    /// through the stall watchdog.
    pub detect: Option<RecoveryPolicy>,
    /// Replace the physical interconnect shape (`None` keeps the
    /// workload's default, the paper's star). The fabric expands the shape
    /// into an explicit switch/link graph, so the same workload sweeps
    /// across star / full-mesh / fat-tree / dragonfly fabrics.
    pub topo: Option<gtn_fabric::Topology>,
    /// A gray-failure injection: one component degrades (latency, jitter,
    /// loss bursts, flapping) without dying. Layers onto whatever fault
    /// plan is in place; specs that can *drop* traffic (loss or flap)
    /// imply the reliability layer, latency-only ones leave it alone.
    pub degrade: Option<DegradeSpec>,
    /// Replace the failure-detector tuning wholesale (heartbeat cadence,
    /// lease thresholds, detector kind, φ thresholds). Composes with
    /// `detect`: this sets the cadence/detector, `detect` still picks the
    /// recovery policy on top of it.
    pub failure: Option<crate::membership::FailureConfig>,
    /// Arm route-around failover with an explicit switch-local detection
    /// delay, ns. `None` + `detect == Some(RouteAround)` uses
    /// [`gtn_fabric::DEFAULT_REROUTE_DELAY_NS`].
    pub reroute_delay_ns: Option<u64>,
}

/// NIC resource bounds a scenario can shrink to provoke exhaustion.
/// Every field is optional; `None` leaves the workload's default alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceLimits {
    /// Use an associative trigger CAM of this many ways (overflow beyond
    /// it spills to the host-memory table).
    pub trigger_ways: Option<u32>,
    /// Cap the host-memory trigger overflow table (entries beyond CAM +
    /// overflow are rejected).
    pub trigger_overflow: Option<usize>,
    /// Bound the completion queue to this many entries, with a modeled
    /// host consumer draining it (backpressure parks commits when full).
    pub cq_capacity: Option<u64>,
    /// Interval of the modeled CQ consumer, ns per entry retired. Larger
    /// values model a slower host poller; `0` models one that never polls
    /// (runs then stall with a `ResourceStarvation` diagnosis).
    pub cq_drain_ns: Option<u64>,
    /// ARQ reorder-buffer window / flow-control credit pool per peer.
    /// Implies the reliability layer is on.
    pub arq_window: Option<u64>,
    /// Slice the trigger CAM into this many per-tenant partitions
    /// (multi-tenant serving; tags map to partition `tag % partitions`).
    pub trigger_partitions: Option<u32>,
    /// Per-partition admission depth: active trigger entries past it are
    /// shed (counted, never a panic). Requires `trigger_partitions`.
    pub partition_depth: Option<u64>,
}

impl ResourceLimits {
    /// The canonical "tiny everything" pressure cell used by tests: a
    /// `ways`-way trigger CAM and a `cq`-entry completion queue.
    pub fn tiny(ways: u32, cq: u64) -> Self {
        ResourceLimits {
            trigger_ways: Some(ways),
            trigger_overflow: None,
            cq_capacity: Some(cq),
            cq_drain_ns: None,
            arq_window: None,
            trigger_partitions: None,
            partition_depth: None,
        }
    }

    /// Partition the trigger CAM into `partitions` tenant shares with an
    /// optional per-partition admission `depth` (serving scenarios).
    pub fn partitioned(partitions: u32, depth: Option<u64>) -> Self {
        ResourceLimits {
            trigger_partitions: Some(partitions),
            partition_depth: depth,
            ..ResourceLimits::default()
        }
    }
}

impl ConfigPatch {
    /// No overrides: the workload's default (lossless) configuration.
    pub const NONE: ConfigPatch = ConfigPatch {
        loss: None,
        pressure: None,
        crash: None,
        detect: None,
        topo: None,
        degrade: None,
        failure: None,
        reroute_delay_ns: None,
    };

    /// Seeded packet loss at `rate`, with the NIC reliability layer (ARQ
    /// retry/timeout/backoff) enabled to absorb the drops.
    pub fn loss(seed: u64, rate: f64) -> Self {
        ConfigPatch {
            loss: Some((seed, rate)),
            ..ConfigPatch::NONE
        }
    }

    /// Shrunk NIC resource limits (see [`ResourceLimits`]).
    pub fn pressure(limits: ResourceLimits) -> Self {
        ConfigPatch {
            pressure: Some(limits),
            ..ConfigPatch::NONE
        }
    }

    /// Combine this patch with shrunk resource limits.
    pub fn with_pressure(mut self, limits: ResourceLimits) -> Self {
        self.pressure = Some(limits);
        self
    }

    /// Crash the whole node `node` (CPU, GPU, NIC) at `at_ns`.
    pub fn crash_node(node: u32, at_ns: u64) -> Self {
        ConfigPatch::NONE.with_crash(CrashComponent::Node(node), at_ns)
    }

    /// Crash only node `node`'s NIC at `at_ns` (compute survives).
    pub fn crash_nic(node: u32, at_ns: u64) -> Self {
        ConfigPatch::NONE.with_crash(CrashComponent::Nic(node), at_ns)
    }

    /// Sever the undirected link between `a` and `b` at `at_ns`.
    pub fn crash_link(a: u32, b: u32, at_ns: u64) -> Self {
        ConfigPatch::NONE.with_crash(CrashComponent::Link { a, b }, at_ns)
    }

    /// Sever the undirected topology-graph edge between vertices `a` and
    /// `b` at `at_ns` (hosts number below switches; only pairs whose
    /// routes cross the edge lose connectivity).
    pub fn crash_edge(a: u32, b: u32, at_ns: u64) -> Self {
        ConfigPatch::NONE.with_crash(CrashComponent::Edge { a, b }, at_ns)
    }

    /// Combine this patch with a replaced interconnect shape.
    pub fn with_topology(mut self, topo: gtn_fabric::Topology) -> Self {
        self.topo = Some(topo);
        self
    }

    /// Combine this patch with a crash-stop injection.
    pub fn with_crash(mut self, component: CrashComponent, at_ns: u64) -> Self {
        self.crash = Some(CrashSpec { component, at_ns });
        self
    }

    /// Combine this patch with failure detection under `policy`.
    pub fn with_detection(mut self, policy: RecoveryPolicy) -> Self {
        self.detect = Some(policy);
        self
    }

    /// Combine this patch with a gray-failure injection.
    pub fn with_degrade(mut self, spec: DegradeSpec) -> Self {
        self.degrade = Some(spec);
        self
    }

    /// Combine this patch with replaced failure-detector tuning (cadence,
    /// lease thresholds, detector kind).
    pub fn with_failure(mut self, failure: crate::membership::FailureConfig) -> Self {
        self.failure = Some(failure);
        self
    }

    /// Combine this patch with an explicit route-around detection delay.
    pub fn with_reroute_delay(mut self, delay_ns: u64) -> Self {
        self.reroute_delay_ns = Some(delay_ns);
        self
    }

    /// Apply the overrides to a cluster config (after workload defaults).
    pub fn apply(&self, config: &mut ClusterConfig) {
        if let Some(topo) = self.topo {
            config.fabric.topology = topo;
        }
        if let Some((seed, rate)) = self.loss {
            if rate > 0.0 {
                config.fabric.faults = gtn_fabric::FaultConfig::loss(seed, rate);
                config.nic.reliability = gtn_nic::reliability::ReliabilityConfig::on();
            }
        }
        if let Some(spec) = self.crash {
            // Layer the crash onto whatever fault plan is already in place
            // (seeded loss keeps its seed; crash checks draw no randomness).
            config.fabric.faults.crashes.push(spec);
            config.nic.reliability = gtn_nic::reliability::ReliabilityConfig::on();
        }
        if let Some(spec) = self.degrade {
            // Layer the gray failure onto the existing plan (loss keeps its
            // seed; each degrade owns a forked stream, so healthy-path
            // draws are untouched). Only specs that can drop traffic need
            // the ARQ layer — a latency-only straggler must not change the
            // wire protocol of the run it rides along with.
            config.fabric.faults.degrades.push(spec);
            if spec.loss > 0.0 || spec.flap_period_ns > 0 {
                config.nic.reliability = gtn_nic::reliability::ReliabilityConfig::on();
            }
        }
        if let Some(failure) = self.failure {
            config.failure = failure;
        }
        if let Some(policy) = self.detect {
            if self.failure.is_some() {
                // Explicit detector tuning keeps its cadence/thresholds;
                // `detect` only picks the recovery policy on top of it.
                config.failure.recovery = policy;
            } else {
                config.failure = FailureConfig::with_recovery(policy);
            }
            if policy == RecoveryPolicy::RouteAround && config.fabric.reroute_delay_ns.is_none() {
                config.fabric.reroute_delay_ns = Some(gtn_fabric::DEFAULT_REROUTE_DELAY_NS);
            }
        }
        if let Some(delay) = self.reroute_delay_ns {
            config.fabric.reroute_delay_ns = Some(delay);
        }
        if let Some(limits) = self.pressure {
            if let Some(ways) = limits.trigger_ways {
                config.nic.lookup = gtn_nic::lookup::LookupKind::Associative { ways };
            }
            if let Some(cap) = limits.trigger_overflow {
                config.nic.trigger_overflow_capacity = cap;
            }
            if let Some(depth) = limits.cq_capacity {
                config.nic.cq_capacity = Some(depth);
            }
            if let Some(drain) = limits.cq_drain_ns {
                config.nic.cq_drain_ns = drain;
            }
            if let Some(window) = limits.arq_window {
                config.nic.reliability = gtn_nic::reliability::ReliabilityConfig::bounded(window);
            }
            if let Some(partitions) = limits.trigger_partitions {
                config.nic.trigger_partitions = gtn_nic::TriggerPartitions {
                    partitions,
                    depth: limits.partition_depth,
                };
            }
        }
    }
}

/// Unified scenario parameters. Each workload reads the fields it needs:
/// Jacobi uses `rows`×`cols` nodes with a `size`×`size` local grid;
/// Allreduce uses `node_count()` ranks reducing `size` elements; pingpong
/// is fixed two-node; the launch study maps `variant` to a scheduler
/// profile and `size` to the queued batch.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioParams {
    /// Networking strategy under test.
    pub strategy: Strategy,
    /// Node-grid rows (1 for non-grid workloads).
    pub rows: u32,
    /// Node-grid columns (the node count for non-grid workloads).
    pub cols: u32,
    /// Payload / grid size in workload units (elements, local edge,
    /// batch size…).
    pub size: u64,
    /// Iterations (sweeps, rounds) the workload should report per-`iter`
    /// times over.
    pub iters: u32,
    /// Workload-specific variant selector (e.g. scheduler profile index).
    pub variant: u32,
    /// Deterministic input seed.
    pub seed: u64,
    /// Cluster-config overrides.
    pub patch: ConfigPatch,
}

impl ScenarioParams {
    /// A two-node scenario of `strategy` with every other field at its
    /// neutral default; chain the builder methods to specialize.
    pub fn new(strategy: Strategy) -> Self {
        ScenarioParams {
            strategy,
            rows: 1,
            cols: 2,
            size: 0,
            iters: 1,
            variant: 0,
            seed: 0,
            patch: ConfigPatch::NONE,
        }
    }

    /// Use `nodes` ranks in a flat (1×`nodes`) arrangement.
    pub fn nodes(mut self, nodes: u32) -> Self {
        self.rows = 1;
        self.cols = nodes;
        self
    }

    /// Use an `rows`×`cols` node grid.
    pub fn grid(mut self, rows: u32, cols: u32) -> Self {
        self.rows = rows;
        self.cols = cols;
        self
    }

    /// Set the workload size.
    pub fn size(mut self, size: u64) -> Self {
        self.size = size;
        self
    }

    /// Set the iteration count.
    pub fn iters(mut self, iters: u32) -> Self {
        self.iters = iters;
        self
    }

    /// Set the variant selector.
    pub fn variant(mut self, variant: u32) -> Self {
        self.variant = variant;
        self
    }

    /// Set the input seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attach config overrides.
    pub fn patch(mut self, patch: ConfigPatch) -> Self {
        self.patch = patch;
        self
    }

    /// Total participating nodes.
    pub fn node_count(&self) -> u32 {
        self.rows * self.cols
    }
}

/// What every workload reports, regardless of strategy: the timing
/// quantities the figures plot, the stage decomposition (two-node logged
/// runs only), and the stats/reliability counters the reports quote.
#[derive(Debug)]
pub struct ScenarioResult {
    /// Workload name.
    pub workload: &'static str,
    /// Strategy echoed.
    pub strategy: Strategy,
    /// Node count echoed.
    pub nodes: u32,
    /// Workload size echoed.
    pub size: u64,
    /// Iterations echoed.
    pub iters: u32,
    /// The workload's headline completion time (each workload documents
    /// which event this is — e.g. pingpong reports target-side delivery,
    /// the collectives report the slowest node's finish).
    pub total: SimTime,
    /// `total` divided by `iters` (the Fig. 9 quantity).
    pub per_iter: SimDuration,
    /// Fig. 8 stage decomposition from the activity log; empty when the
    /// run disabled event logging or has more than two nodes.
    pub stages: Vec<(&'static str, SimDuration)>,
    /// Every component's stats, namespaced (`node{N}.nic` etc.).
    pub stats: ClusterStats,
    /// Total retransmissions across all NICs (zero unless the run enabled
    /// the reliability layer and the fabric dropped something).
    pub retransmits: u64,
    /// Messages abandoned after retry exhaustion, across all NICs. A
    /// completed run should always report zero.
    pub delivery_failures: u64,
}

impl ScenarioResult {
    /// Snapshot a finished cluster into the unified shape. `total` is the
    /// makespan; workloads reporting a different headline event overwrite
    /// [`total`](ScenarioResult::total) / [`per_iter`](ScenarioResult::per_iter)
    /// via [`set_total`](ScenarioResult::set_total).
    pub fn collect(
        workload: &'static str,
        params: &ScenarioParams,
        cluster: &Cluster,
        result: &ClusterResult,
    ) -> Self {
        let nodes = params.node_count();
        let stats = cluster.collect_stats();
        let retransmits = stats.counter_across("nic", "retransmits");
        let delivery_failures = (0..nodes)
            .map(|nd| cluster.nic(nd).delivery_failures().len() as u64)
            .sum();
        let stages = if cluster.config().log_events && nodes == 2 {
            stage_breakdown(cluster.log(), 0, 1)
        } else {
            Vec::new()
        };
        let mut out = ScenarioResult {
            workload,
            strategy: params.strategy,
            nodes,
            size: params.size,
            iters: params.iters,
            total: SimTime::ZERO,
            per_iter: SimDuration::ZERO,
            stages,
            stats,
            retransmits,
            delivery_failures,
        };
        out.set_total(result.makespan);
        out
    }

    /// Set the headline completion time, recomputing `per_iter`.
    pub fn set_total(&mut self, total: SimTime) {
        self.total = total;
        self.per_iter = SimDuration::from_ps(total.as_ps() / self.iters.max(1) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_params_builder_composes() {
        let p = ScenarioParams::new(Strategy::GpuTn)
            .grid(2, 3)
            .size(64)
            .iters(4)
            .seed(7)
            .patch(ConfigPatch::loss(2, 0.01));
        assert_eq!(p.node_count(), 6);
        assert_eq!((p.size, p.iters, p.seed), (64, 4, 7));
        assert_eq!(p.patch.loss, Some((2, 0.01)));
        assert_eq!(ScenarioParams::new(Strategy::Cpu).nodes(5).node_count(), 5);
    }

    #[test]
    fn pressure_patch_shrinks_the_nic_resources() {
        let mut config = ClusterConfig::table2(2);
        let limits = ResourceLimits {
            trigger_ways: Some(4),
            trigger_overflow: Some(32),
            cq_capacity: Some(8),
            cq_drain_ns: Some(1_000),
            arq_window: Some(2),
            trigger_partitions: Some(2),
            partition_depth: Some(4),
        };
        ConfigPatch::loss(9, 0.1)
            .with_pressure(limits)
            .apply(&mut config);
        assert_eq!(
            config.nic.lookup,
            gtn_nic::lookup::LookupKind::Associative { ways: 4 }
        );
        assert_eq!(config.nic.trigger_overflow_capacity, 32);
        assert_eq!(config.nic.cq_capacity, Some(8));
        assert_eq!(config.nic.cq_drain_ns, 1_000);
        assert!(config.nic.reliability.enabled);
        assert_eq!(config.nic.reliability.window, 2);
        assert_eq!(
            config.nic.trigger_partitions,
            gtn_nic::TriggerPartitions {
                partitions: 2,
                depth: Some(4),
            }
        );
        // tiny() fills only the CAM and CQ bounds.
        let t = ResourceLimits::tiny(2, 4);
        assert_eq!(t.trigger_ways, Some(2));
        assert_eq!(t.cq_capacity, Some(4));
        assert_eq!(t.arq_window, None);
        assert_eq!(t.trigger_partitions, None);
        // partitioned() fills only the tenancy bounds.
        let p = ResourceLimits::partitioned(8, Some(16));
        assert_eq!(p.trigger_partitions, Some(8));
        assert_eq!(p.partition_depth, Some(16));
        assert_eq!(p.trigger_ways, None);
    }

    #[test]
    fn crash_patch_layers_onto_loss_and_arms_detection() {
        let mut config = ClusterConfig::table2(4);
        ConfigPatch::loss(7, 0.05)
            .with_crash(CrashComponent::Nic(2), 40_000)
            .with_detection(RecoveryPolicy::CheckpointRestart)
            .apply(&mut config);
        // Loss keeps its seed; the crash rides the same plan.
        assert!(config.fabric.faults.packet_loss > 0.0);
        assert_eq!(config.fabric.faults.crashes.len(), 1);
        assert_eq!(config.fabric.faults.nic_down_at(2), Some(40_000));
        assert_eq!(config.fabric.faults.node_down_at(2), None);
        assert!(config.nic.reliability.enabled);
        assert!(config.failure.enabled());
        assert_eq!(config.failure.recovery, RecoveryPolicy::CheckpointRestart);
        assert!(config.validate().is_ok());

        // Constructor shorthands target the right component.
        assert_eq!(
            ConfigPatch::crash_node(1, 5).crash.unwrap().component,
            CrashComponent::Node(1)
        );
        assert_eq!(
            ConfigPatch::crash_link(0, 3, 5).crash.unwrap().component,
            CrashComponent::Link { a: 0, b: 3 }
        );
        // A crash without detection still stays a valid, Copy patch.
        let p = ConfigPatch::crash_nic(0, 9);
        let q = p; // Copy
        assert_eq!(p, q);
        assert_eq!(p.detect, None);
    }

    #[test]
    fn topology_patch_replaces_the_shape() {
        let mut config = ClusterConfig::table2(16);
        assert_eq!(config.fabric.topology, gtn_fabric::Topology::Star);
        ConfigPatch::NONE
            .with_topology(gtn_fabric::Topology::FatTree { k: 4 })
            .apply(&mut config);
        assert_eq!(
            config.fabric.topology,
            gtn_fabric::Topology::FatTree { k: 4 }
        );
        // The edge-crash shorthand addresses graph vertices.
        assert_eq!(
            ConfigPatch::crash_edge(0, 16, 5).crash.unwrap().component,
            CrashComponent::Edge { a: 0, b: 16 }
        );
        // The patch stays Copy + PartialEq with the new knob aboard.
        let p = ConfigPatch::NONE.with_topology(gtn_fabric::Topology::FullMesh);
        let q = p;
        assert_eq!(p, q);
    }

    #[test]
    fn degrade_patch_layers_and_only_drops_imply_arq() {
        // Latency-only straggler: rides the plan without touching the ARQ.
        let mut config = ClusterConfig::table2(4);
        let slow = DegradeSpec::nic(2).latency(5_000).jitter(500);
        ConfigPatch::NONE.with_degrade(slow).apply(&mut config);
        assert_eq!(config.fabric.faults.degrades, vec![slow]);
        assert!(!config.nic.reliability.enabled);
        assert!(config.validate().is_ok());

        // Lossy degrade implies the reliability layer, and layers onto
        // seeded loss without replacing it.
        let mut config = ClusterConfig::table2(4);
        let lossy = DegradeSpec::edge(1, 4).lossy(0.2, 3);
        ConfigPatch::loss(7, 0.01)
            .with_degrade(lossy)
            .apply(&mut config);
        assert_eq!(config.fabric.faults.packet_loss, 0.01);
        assert_eq!(config.fabric.faults.seed, 7);
        assert_eq!(config.fabric.faults.degrades, vec![lossy]);
        assert!(config.nic.reliability.enabled);

        // Flapping drops traffic too, so it also arms the ARQ.
        let mut config = ClusterConfig::table2(4);
        let flappy = DegradeSpec::edge(0, 4).flapping(100_000, 20_000);
        ConfigPatch::NONE.with_degrade(flappy).apply(&mut config);
        assert!(config.nic.reliability.enabled);

        // The patch stays Copy + PartialEq with the new knobs aboard.
        let p = ConfigPatch::NONE.with_degrade(lossy).with_reroute_delay(5);
        let q = p;
        assert_eq!(p, q);
    }

    #[test]
    fn route_around_detection_arms_fabric_failover() {
        let mut config = ClusterConfig::table2(8);
        ConfigPatch::crash_edge(2, 8, 50_000)
            .with_detection(RecoveryPolicy::RouteAround)
            .apply(&mut config);
        assert_eq!(config.failure.recovery, RecoveryPolicy::RouteAround);
        assert_eq!(
            config.fabric.reroute_delay_ns,
            Some(gtn_fabric::DEFAULT_REROUTE_DELAY_NS)
        );
        assert!(config.validate().is_ok());

        // An explicit delay wins over the default.
        let mut config = ClusterConfig::table2(8);
        ConfigPatch::crash_edge(2, 8, 50_000)
            .with_detection(RecoveryPolicy::RouteAround)
            .with_reroute_delay(25_000)
            .apply(&mut config);
        assert_eq!(config.fabric.reroute_delay_ns, Some(25_000));

        // Other policies leave failover unarmed.
        let mut config = ClusterConfig::table2(8);
        ConfigPatch::crash_node(1, 50_000)
            .with_detection(RecoveryPolicy::Abort)
            .apply(&mut config);
        assert_eq!(config.fabric.reroute_delay_ns, None);
    }

    #[test]
    fn failure_patch_overrides_cadence_and_composes_with_detect() {
        use crate::membership::{DetectorKind, FailureConfig};
        // Wholesale detector tuning: the φ-accrual preset rides the patch
        // through validation.
        let mut config = ClusterConfig::table2(4);
        ConfigPatch::crash_node(2, 1_000_000)
            .with_failure(FailureConfig::phi_accrual())
            .with_detection(RecoveryPolicy::RouteAround)
            .apply(&mut config);
        assert_eq!(config.failure.detector, DetectorKind::PhiAccrual);
        assert_eq!(config.failure.recovery, RecoveryPolicy::RouteAround);
        assert_eq!(
            config.failure.heartbeat_period_ns,
            FailureConfig::detection().heartbeat_period_ns,
            "detect must not clobber the explicit cadence"
        );
        assert!(config.validate().is_ok());

        // failure alone keeps its own recovery policy.
        let mut config = ClusterConfig::table2(4);
        ConfigPatch::NONE
            .with_failure(FailureConfig::phi_accrual())
            .apply(&mut config);
        assert_eq!(config.failure.recovery, RecoveryPolicy::Abort);
        assert!(config.failure.enabled());
    }

    #[test]
    fn zero_rate_loss_patch_is_the_lossless_baseline() {
        let mut config = ClusterConfig::table2(2);
        let before = format!("{:?}", config.fabric.faults);
        ConfigPatch::loss(2, 0.0).apply(&mut config);
        assert_eq!(format!("{:?}", config.fabric.faults), before);
        assert!(!config.nic.reliability.enabled);
    }
}
