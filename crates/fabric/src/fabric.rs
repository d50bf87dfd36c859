//! The assembled interconnect: topology graph + per-edge links.
//!
//! [`Fabric::send_message`] segments a message, walks each packet edge by
//! edge across the precomputed route updating per-link occupancy, and
//! reports when the first and last packets land at the destination NIC;
//! [`Fabric::send_message_faulty`] makes the same walk and adds the fault
//! plan's verdict. Packets of one message pipeline (packet *k+1*
//! serializes on the first edge while packet *k* crosses the last), which
//! is what lets an 8 MB transfer approach line rate instead of paying
//! per-hop latency per packet. Because every directed edge owns exactly
//! one serializing [`Link`], congestion emerges wherever routes share an
//! edge — a fat-tree core link or dragonfly global link contends exactly
//! like the star's downlinks always have.

use crate::config::FabricConfig;
use crate::faults::{
    CrashComponent, DegradeComponent, DegradeDrop, DegradeEffect, Delivery, FaultPlan,
};
use crate::graph::FabricGraph;
use crate::link::Link;
use crate::packet::segment;
use gtn_mem::NodeId;
use gtn_sim::time::{SimDuration, SimTime};

/// Timing of one message through the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageTiming {
    /// When the first packet's payload is available at the destination NIC.
    pub first_arrival: SimTime,
    /// When the last packet (i.e. the whole message) has arrived.
    pub last_arrival: SimTime,
    /// Number of packets the message was segmented into.
    pub packets: u64,
}

/// What one walk of a message through the fabric found: its timing plus
/// the route facts the fault verdict needs.
struct Walk {
    timing: MessageTiming,
    /// The gray-failure drop verdict drawn for the route, if any.
    degrade_drop: Option<DegradeDrop>,
    /// Withdrawals left the pair with no surviving route.
    unroutable: bool,
}

/// One route repaired by route-around failover: emitted per affected host
/// pair when a withdrawn edge forces its routing-table row to change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RerouteRecord {
    /// When the withdrawal took effect (the failure onset plus the
    /// configured `reroute_delay_ns` — the scheduled time, not the
    /// discovery time).
    pub at: SimTime,
    /// Source host.
    pub src: u32,
    /// Destination host.
    pub dst: u32,
    /// The edge-id path before the withdrawal.
    pub old_path: Vec<u32>,
    /// The repaired path, or `None` when the surviving graph no longer
    /// connects the pair (truly partitioned — the `PeerDead` fallback).
    pub new_path: Option<Vec<u32>>,
}

/// The cluster interconnect.
#[derive(Debug)]
pub struct Fabric {
    config: FabricConfig,
    n_nodes: usize,
    graph: FabricGraph,
    /// One serializing link per directed graph edge, indexed by edge id.
    links: Vec<Link>,
    /// Crash-stop death time per edge (graph-edge faults only); `None`
    /// everywhere unless the fault plan names [`CrashComponent::Edge`]s.
    edge_dead_at: Vec<Option<SimTime>>,
    /// Fast gate: skip the per-message route-death walk entirely when no
    /// edge crash is configured, keeping the common path byte-identical.
    has_edge_crashes: bool,
    /// Degrade-spec indices per directed edge (gray failures riding this
    /// wire); all empty unless the fault plan names edge degrades.
    edge_degrades: Vec<Vec<u32>>,
    /// Degrade-spec indices per host NIC (slow-NIC stragglers).
    nic_degrades: Vec<Vec<u32>>,
    /// Fast gate for the gray-failure path.
    has_degrades: bool,
    /// Scheduled route withdrawals, sorted by (time, edge): edge crashes
    /// and persistent degrades each withdraw both directed edges at onset
    /// plus the configured reroute delay. Applied lazily — fabric calls
    /// arrive in deterministic time order, so the first call at or past
    /// the deadline applies it identically on every rerun.
    pending_withdrawals: Vec<(SimTime, u32)>,
    /// Structured failover log, one record per repaired (or partitioned)
    /// host pair.
    reroute_log: Vec<RerouteRecord>,
    /// Host pairs left with no surviving route after withdrawals.
    partitioned_pairs: u64,
    messages_sent: u64,
    faults: FaultPlan,
}

impl Fabric {
    /// Build a fabric for `n_nodes` nodes.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see
    /// [`FabricConfig::validate`]), the topology's capacity is below
    /// `n_nodes`, or a configured [`CrashComponent::Edge`] names an edge
    /// that does not exist in the expanded graph.
    pub fn new(n_nodes: usize, config: FabricConfig) -> Self {
        config.validate().expect("invalid fabric config");
        let graph = FabricGraph::build(config.topology, n_nodes, config.ecmp_seed);
        let latency = SimDuration::from_ns(config.link_latency_ns);
        let links = (0..graph.edge_count())
            .map(|_| Link::new(config.link_gbps, latency))
            .collect();

        let mut edge_dead_at = vec![None; graph.edge_count()];
        let mut has_edge_crashes = false;
        for crash in &config.faults.crashes {
            if let CrashComponent::Edge { a, b } = crash.component {
                let dead = SimTime::from_ns(crash.at_ns);
                for (from, to) in [(a, b), (b, a)] {
                    let e = graph.edge_between(from, to).unwrap_or_else(|| {
                        panic!(
                            "CrashComponent::Edge {{ a: {a}, b: {b} }} names no edge of the \
                             {} graph ({} vertices)",
                            config.topology.label(),
                            graph.vertex_count()
                        )
                    });
                    let slot = &mut edge_dead_at[e as usize];
                    *slot = Some(slot.map_or(dead, |t: SimTime| t.min(dead)));
                }
                has_edge_crashes = true;
            }
        }

        // Resolve gray failures: edge degrades must name real wires (both
        // directions suffer), NIC degrades must name attached hosts.
        let mut edge_degrades = vec![Vec::new(); graph.edge_count()];
        let mut nic_degrades = vec![Vec::new(); n_nodes];
        let mut has_degrades = false;
        for (idx, spec) in config.faults.degrades.iter().enumerate() {
            has_degrades = true;
            match spec.component {
                DegradeComponent::Edge { a, b } => {
                    for (from, to) in [(a, b), (b, a)] {
                        let e = graph.edge_between(from, to).unwrap_or_else(|| {
                            panic!(
                                "DegradeComponent::Edge {{ a: {a}, b: {b} }} names no edge of \
                                 the {} graph ({} vertices)",
                                config.topology.label(),
                                graph.vertex_count()
                            )
                        });
                        edge_degrades[e as usize].push(idx as u32);
                    }
                }
                DegradeComponent::Nic(n) => {
                    assert!(
                        (n as usize) < n_nodes,
                        "DegradeComponent::Nic({n}) names no attached host (n_nodes = {n_nodes})"
                    );
                    nic_degrades[n as usize].push(idx as u32);
                }
            }
        }

        // Route-around failover: schedule the withdrawal of every crashed
        // edge and every persistent (route_around) degraded edge, at the
        // failure onset plus the switch-local detection delay.
        let mut pending_withdrawals = Vec::new();
        if let Some(delay) = config.reroute_delay_ns {
            let withdraw_at = |onset_ns: u64| SimTime::from_ns(onset_ns.saturating_add(delay));
            for crash in &config.faults.crashes {
                if let CrashComponent::Edge { a, b } = crash.component {
                    for (from, to) in [(a, b), (b, a)] {
                        let e = graph.edge_between(from, to).expect("resolved above");
                        pending_withdrawals.push((withdraw_at(crash.at_ns), e));
                    }
                }
            }
            for spec in &config.faults.degrades {
                if !spec.route_around {
                    continue;
                }
                if let DegradeComponent::Edge { a, b } = spec.component {
                    for (from, to) in [(a, b), (b, a)] {
                        let e = graph.edge_between(from, to).expect("resolved above");
                        pending_withdrawals.push((withdraw_at(spec.from_ns), e));
                    }
                }
            }
            pending_withdrawals.sort_unstable();
            pending_withdrawals.dedup();
        }

        let faults = FaultPlan::new(config.faults.clone());
        Fabric {
            config,
            n_nodes,
            graph,
            links,
            edge_dead_at,
            has_edge_crashes,
            edge_degrades,
            nic_degrades,
            has_degrades,
            pending_withdrawals,
            reroute_log: Vec::new(),
            partitioned_pairs: 0,
            messages_sent: 0,
            faults,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.config
    }

    /// Number of nodes attached.
    pub fn node_count(&self) -> usize {
        self.n_nodes
    }

    /// The expanded topology graph and routing tables.
    pub fn graph(&self) -> &FabricGraph {
        &self.graph
    }

    /// Messages carried so far.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Send `bytes` of payload from `src` to `dst`, the first bit ready at
    /// `now`. Updates link occupancy and returns the delivery timing. Gray
    /// failures on the route delay the message but never drop it here;
    /// [`Fabric::send_message_faulty`] is the path that judges drops.
    pub fn send_message(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) -> MessageTiming {
        self.walk(now, src, dst, bytes).timing
    }

    /// Like [`Fabric::send_message`], but additionally judges the message
    /// against the configured fault plan. The links are charged either way
    /// (a dropped packet still occupied the wire up to the point of loss;
    /// modelling full occupancy is a conservative simplification), so
    /// contention behaviour matches the lossless fabric exactly. Loopback
    /// never faults: it does not cross the fabric.
    pub fn send_message_faulty(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) -> (MessageTiming, Delivery) {
        let walk = self.walk(now, src, dst, bytes);
        if src == dst {
            return (walk.timing, Delivery::Delivered);
        }
        // A pair the withdrawals partitioned black-holes like a crash (the
        // `PeerDead` fallback); otherwise walk the (possibly repaired)
        // route against the edge-crash times.
        let route_dead =
            walk.unroutable || (self.has_edge_crashes && self.route_dead(now, src, dst));
        let verdict = self.faults.judge(
            now,
            src,
            dst,
            walk.timing.packets,
            route_dead,
            walk.degrade_drop,
        );
        (walk.timing, verdict)
    }

    /// Segment the message, draw its route's gray-failure effect, and walk
    /// each packet edge by edge, charging link occupancy.
    fn walk(&mut self, now: SimTime, src: NodeId, dst: NodeId, bytes: u64) -> Walk {
        assert!(src.index() < self.n_nodes, "src {src} out of range");
        assert!(dst.index() < self.n_nodes, "dst {dst} out of range");
        self.messages_sent += 1;

        if src == dst {
            // Loopback through the local NIC: fixed small latency plus a
            // single serialization charge (the DMA engines still move the
            // bytes). Never crosses the fabric, so gray failures (even a
            // slow local NIC's — a simplification) do not apply.
            let d = SimDuration::from_ns(self.config.loopback_latency_ns)
                + SimDuration::for_bytes_at_gbps(bytes, self.config.link_gbps);
            let t = now + d;
            return Walk {
                timing: MessageTiming {
                    first_arrival: t,
                    last_arrival: t,
                    packets: 1,
                },
                degrade_drop: None,
                unroutable: false,
            };
        }

        if !self.pending_withdrawals.is_empty() {
            self.apply_due_withdrawals(now);
        }

        // Gray failures: resolve the specs this message's route crosses,
        // draw their combined effect once per message (not per packet —
        // the ARQ layer judges whole messages), and start the walk after
        // the extra latency. The drop verdict goes back to the caller.
        let mut inject = now;
        let mut degrade_drop = None;
        if self.has_degrades {
            let effect = self.route_degrade_effect(now, src, dst);
            degrade_drop = effect.drop;
            inject = now + SimDuration::from_ns(effect.extra_ns);
        }

        let switch_latency = SimDuration::from_ns(self.config.switch_latency_ns);
        let packets = segment(bytes, self.config.mtu_bytes);
        let n_packets = packets.len() as u64;

        let mut first_arrival = SimTime::MAX;
        let mut last_arrival = SimTime::ZERO;
        for payload in packets {
            let wire_bytes = payload + self.config.header_bytes;
            // Walk this packet edge by edge, store-and-forward: each
            // intermediate vertex is a switch and charges its traversal
            // latency before the next serialization.
            let mut head = inject;
            let mut at = src.0;
            let mut hops = 0u32;
            while at != dst.0 {
                let Some(e) = self.graph.try_next_edge(at, src.0, dst.0) else {
                    // Withdrawals partitioned the pair: nothing transits,
                    // no link is charged; the faulty path turns this into
                    // a crash drop and the lossless path cannot get here
                    // (failover implies the ARQ layer is on).
                    return Walk {
                        timing: MessageTiming {
                            first_arrival: now,
                            last_arrival: now,
                            packets: n_packets,
                        },
                        degrade_drop,
                        unroutable: true,
                    };
                };
                if hops > 0 {
                    head += switch_latency;
                }
                let (_, arrive) = self.links[e as usize].transmit(head, wire_bytes);
                head = arrive;
                at = self.graph.edge_endpoints(e).1;
                hops += 1;
            }
            first_arrival = first_arrival.min(head);
            last_arrival = last_arrival.max(head);
        }
        Walk {
            timing: MessageTiming {
                first_arrival,
                last_arrival,
                packets: n_packets,
            },
            degrade_drop,
            unroutable: false,
        }
    }

    /// Combined gray-failure effect on one `src -> dst` message: the
    /// degrade specs of both endpoint NICs plus every spec riding an edge
    /// of the (flow-pinned) route.
    fn route_degrade_effect(&mut self, now: SimTime, src: NodeId, dst: NodeId) -> DegradeEffect {
        let mut specs: Vec<u32> = Vec::new();
        specs.extend_from_slice(&self.nic_degrades[src.index()]);
        let mut at = src.0;
        while at != dst.0 {
            let Some(e) = self.graph.try_next_edge(at, src.0, dst.0) else {
                break; // partitioned: the send walk reports it
            };
            specs.extend_from_slice(&self.edge_degrades[e as usize]);
            at = self.graph.edge_endpoints(e).1;
        }
        specs.extend_from_slice(&self.nic_degrades[dst.index()]);
        self.faults.judge_degrades(now, specs)
    }

    /// Apply every scheduled withdrawal whose deadline has passed,
    /// rebuilding the routing tables once per deadline group and logging a
    /// [`RerouteRecord`] for each host pair whose route crossed a
    /// withdrawn wire.
    fn apply_due_withdrawals(&mut self, now: SimTime) {
        while let Some(&(deadline, _)) = self.pending_withdrawals.first() {
            if now < deadline {
                return;
            }
            let mut due = Vec::new();
            while let Some(&(at, e)) = self.pending_withdrawals.first() {
                if at != deadline {
                    break;
                }
                due.push(e);
                self.pending_withdrawals.remove(0);
            }
            // Snapshot the routes that are about to change, then rebuild.
            let n = self.n_nodes as u32;
            let mut affected = Vec::new();
            for s in 0..n {
                for d in 0..n {
                    if s == d {
                        continue;
                    }
                    if let Some(old) = self.graph.try_route(NodeId(s), NodeId(d)) {
                        if old.iter().any(|e| due.contains(e)) {
                            affected.push((s, d, old));
                        }
                    }
                }
            }
            self.graph.withdraw_edges(due);
            for (src, dst, old_path) in affected {
                let new_path = self.graph.try_route(NodeId(src), NodeId(dst));
                if new_path.is_none() {
                    self.partitioned_pairs += 1;
                }
                self.reroute_log.push(RerouteRecord {
                    at: deadline,
                    src,
                    dst,
                    old_path,
                    new_path,
                });
            }
        }
    }

    /// Does the (deterministic) `src -> dst` route cross an edge whose
    /// crash-stop time is at or before `now`? (A withdrawn-route partition
    /// is caught earlier, by the send walk itself.)
    fn route_dead(&self, now: SimTime, src: NodeId, dst: NodeId) -> bool {
        let mut at = src.0;
        while at != dst.0 {
            let Some(e) = self.graph.try_next_edge(at, src.0, dst.0) else {
                return true;
            };
            if self.edge_dead_at[e as usize].is_some_and(|t| now >= t) {
                return true;
            }
            at = self.graph.edge_endpoints(e).1;
        }
        false
    }

    /// Is route-around failover armed (a reroute delay configured)?
    pub fn reroute_armed(&self) -> bool {
        self.config.reroute_delay_ns.is_some()
    }

    /// The structured failover log: one record per host pair whose route
    /// a withdrawal changed (or severed).
    pub fn reroutes(&self) -> &[RerouteRecord] {
        &self.reroute_log
    }

    /// Host pairs left unroutable by withdrawals so far.
    pub fn partitioned_pairs(&self) -> u64 {
        self.partitioned_pairs
    }

    /// Fault counters (see [`FaultPlan::stats`]). Empty with faults
    /// disabled.
    pub fn fault_stats(&self) -> &gtn_sim::stats::StatSet {
        self.faults.stats()
    }

    /// Bytes delivered into `node`: total carried by its in-edges
    /// (diagnostics; the star's old per-downlink counter generalized).
    pub fn ingress_bytes(&self, node: NodeId) -> u64 {
        self.graph
            .in_edge_ids(node.0)
            .iter()
            .map(|&e| self.links[e as usize].bytes_carried())
            .sum()
    }

    /// The heaviest link's carried bytes — the congestion hot spot.
    pub fn max_link_bytes(&self) -> u64 {
        self.links
            .iter()
            .map(Link::bytes_carried)
            .max()
            .unwrap_or(0)
    }

    /// The heaviest link's carried packets.
    pub fn max_link_packets(&self) -> u64 {
        self.links
            .iter()
            .map(Link::packets_carried)
            .max()
            .unwrap_or(0)
    }

    /// Total wire bytes (payload + headers) across every link.
    pub fn total_wire_bytes(&self) -> u64 {
        self.links.iter().map(Link::bytes_carried).sum()
    }

    /// Number of serializing links (directed graph edges).
    pub fn link_count(&self) -> usize {
        self.links.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultConfig;
    use crate::topology::Topology;

    fn fabric(n: usize) -> Fabric {
        Fabric::new(n, FabricConfig::default())
    }

    #[test]
    fn small_message_end_to_end_latency() {
        let mut f = fabric(4);
        let t = f.send_message(SimTime::ZERO, NodeId(0), NodeId(1), 64);
        // (64+30) B at 100 Gbps = 7.52 ns per link; two links + 2×100 ns wire
        // + 100 ns switch = 315.04 ns.
        let expect_ns = 2.0 * (94.0 * 8.0 / 100.0) + 300.0;
        assert!(
            (t.last_arrival.as_ns_f64() - expect_ns).abs() < 0.1,
            "got {} expect {expect_ns}",
            t.last_arrival.as_ns_f64()
        );
        assert_eq!(t.packets, 1);
        assert_eq!(t.first_arrival, t.last_arrival);
    }

    #[test]
    fn large_message_approaches_line_rate() {
        let mut f = fabric(2);
        let bytes = 8 * 1024 * 1024u64;
        let t = f.send_message(SimTime::ZERO, NodeId(0), NodeId(1), bytes);
        let ideal_us = bytes as f64 * 8.0 / 100e3; // 671.09 us
        let got_us = t.last_arrival.as_us_f64();
        assert!(got_us > ideal_us, "can't beat line rate");
        assert!(
            got_us < ideal_us * 1.02,
            "pipelining should keep overhead <2%: {got_us} vs {ideal_us}"
        );
        assert!(t.first_arrival < t.last_arrival);
        assert_eq!(t.packets, bytes.div_ceil(4096));
    }

    #[test]
    fn two_senders_one_target_contend_on_downlink() {
        let mut f = fabric(3);
        let solo = {
            let mut f2 = fabric(3);
            f2.send_message(SimTime::ZERO, NodeId(0), NodeId(2), 1 << 20)
                .last_arrival
        };
        let a = f.send_message(SimTime::ZERO, NodeId(0), NodeId(2), 1 << 20);
        let b = f.send_message(SimTime::ZERO, NodeId(1), NodeId(2), 1 << 20);
        // The second message shares node 2's downlink: it must finish later
        // than the uncontended case by roughly one message's serialization.
        assert!(b.last_arrival > solo);
        assert!(b.last_arrival > a.last_arrival);
        let spacing = b.last_arrival.as_us_f64() - solo.as_us_f64();
        let one_msg_us = (1u64 << 20) as f64 * 8.0 / 100e3;
        assert!(
            spacing > one_msg_us * 0.8,
            "downlink contention should serialize: spacing {spacing} vs {one_msg_us}"
        );
    }

    #[test]
    fn disjoint_pairs_do_not_contend() {
        let mut f = fabric(4);
        let a = f.send_message(SimTime::ZERO, NodeId(0), NodeId(1), 1 << 20);
        let b = f.send_message(SimTime::ZERO, NodeId(2), NodeId(3), 1 << 20);
        assert_eq!(a.last_arrival, b.last_arrival, "independent links");
    }

    #[test]
    fn loopback_is_cheap_and_local() {
        let mut f = fabric(2);
        let t = f.send_message(SimTime::from_us(1), NodeId(1), NodeId(1), 4096);
        assert!(t.last_arrival < SimTime::from_us(2));
        assert_eq!(t.packets, 1);
    }

    #[test]
    fn full_mesh_skips_the_switch() {
        let mut star = Fabric::new(2, FabricConfig::default());
        let mut mesh = Fabric::new(
            2,
            FabricConfig {
                topology: Topology::FullMesh,
                ..FabricConfig::default()
            },
        );
        let ts = star.send_message(SimTime::ZERO, NodeId(0), NodeId(1), 64);
        let tm = mesh.send_message(SimTime::ZERO, NodeId(0), NodeId(1), 64);
        assert!(tm.last_arrival < ts.last_arrival);
        // Mesh saves one serialization + switch latency + one wire latency.
        let diff = ts.last_arrival.as_ns_f64() - tm.last_arrival.as_ns_f64();
        assert!((diff - 207.52).abs() < 0.1, "diff {diff}");
    }

    #[test]
    fn zero_byte_put_still_travels() {
        let mut f = fabric(2);
        let t = f.send_message(SimTime::ZERO, NodeId(0), NodeId(1), 0);
        assert!(t.last_arrival > SimTime::from_ns(300));
        assert_eq!(t.packets, 1);
    }

    #[test]
    fn message_counter_and_ingress_stats() {
        let mut f = fabric(2);
        f.send_message(SimTime::ZERO, NodeId(0), NodeId(1), 100);
        f.send_message(SimTime::ZERO, NodeId(0), NodeId(1), 100);
        assert_eq!(f.messages_sent(), 2);
        assert_eq!(f.ingress_bytes(NodeId(1)), 2 * 130);
        assert_eq!(f.ingress_bytes(NodeId(0)), 0);
        assert_eq!(f.max_link_bytes(), 2 * 130);
        assert_eq!(f.max_link_packets(), 2);
        // Both the uplink and the downlink carried every wire byte.
        assert_eq!(f.total_wire_bytes(), 2 * 2 * 130);
        assert_eq!(f.link_count(), 4);
    }

    #[test]
    fn fat_tree_cross_pod_is_slower_than_same_edge_switch() {
        let ft = || {
            Fabric::new(
                16,
                FabricConfig {
                    topology: Topology::FatTree { k: 4 },
                    ..FabricConfig::default()
                },
            )
        };
        let near = ft().send_message(SimTime::ZERO, NodeId(0), NodeId(1), 64);
        let far = ft().send_message(SimTime::ZERO, NodeId(0), NodeId(15), 64);
        // 2 hops (1 switch) vs 6 hops (5 switches).
        assert!(far.last_arrival > near.last_arrival);
        let diff = far.last_arrival.as_ns_f64() - near.last_arrival.as_ns_f64();
        // 4 extra serializations (7.52 ns each) + 4 wires + 4 switches.
        assert!((diff - (4.0 * 7.52 + 800.0)).abs() < 0.1, "diff {diff}");
    }

    #[test]
    fn shared_core_links_contend_in_a_fat_tree() {
        // Hosts 0 and 1 share an edge switch; its single uplink pair toward
        // any other pod serializes when both target the same remote host
        // region. Compare against disjoint-pod traffic.
        let mut f = Fabric::new(
            16,
            FabricConfig {
                topology: Topology::FatTree { k: 4 },
                ..FabricConfig::default()
            },
        );
        let solo = {
            let mut f2 = Fabric::new(
                16,
                FabricConfig {
                    topology: Topology::FatTree { k: 4 },
                    ..FabricConfig::default()
                },
            );
            f2.send_message(SimTime::ZERO, NodeId(0), NodeId(15), 1 << 20)
                .last_arrival
        };
        f.send_message(SimTime::ZERO, NodeId(0), NodeId(15), 1 << 20);
        let b = f.send_message(SimTime::ZERO, NodeId(1), NodeId(15), 1 << 20);
        assert!(
            b.last_arrival > solo,
            "shared path must serialize: {} vs solo {solo}",
            b.last_arrival
        );
    }

    #[test]
    fn edge_crash_black_holes_routed_pairs_only() {
        // Star over 4 nodes: sever the undirected edge between the switch
        // (vertex 4) and host 2 — that is host 2's downlink AND uplink, so
        // host 2 is fully cut off while every other pair keeps working.
        let mut f = Fabric::new(
            4,
            FabricConfig {
                faults: FaultConfig::none().with_crash(CrashComponent::Edge { a: 4, b: 2 }, 1_000),
                ..FabricConfig::default()
            },
        );
        let at = |ns| SimTime::from_ns(ns);
        assert_eq!(
            f.send_message_faulty(at(500), NodeId(0), NodeId(2), 64).1,
            Delivery::Delivered
        );
        assert_eq!(
            f.send_message_faulty(at(2_000), NodeId(0), NodeId(2), 64).1,
            Delivery::Dropped
        );
        assert_eq!(
            f.send_message_faulty(at(2_000), NodeId(1), NodeId(2), 64).1,
            Delivery::Dropped
        );
        assert_eq!(
            f.send_message_faulty(at(2_000), NodeId(2), NodeId(1), 64).1,
            Delivery::Dropped
        );
        // Pairs avoiding the dead edge are untouched.
        assert_eq!(
            f.send_message_faulty(at(2_000), NodeId(0), NodeId(1), 64).1,
            Delivery::Delivered
        );
        assert_eq!(f.fault_stats().counter("crash_drops"), 3);
    }

    #[test]
    fn degraded_edge_adds_latency_and_heals_outside_its_window() {
        use crate::faults::DegradeSpec;
        let degraded = |spec| {
            Fabric::new(
                4,
                FabricConfig {
                    faults: FaultConfig::degrade(1, spec),
                    ..FabricConfig::default()
                },
            )
        };
        // Star: vertex 4 is the switch; degrade host 1's downlink wire.
        let spec = DegradeSpec::edge(4, 1).latency(5_000).window(1_000, 10_000);
        let mut f = degraded(spec);
        let mut clean = fabric(4);
        let base = clean
            .send_message(SimTime::ZERO, NodeId(0), NodeId(1), 64)
            .last_arrival;
        // Before the window: unaffected.
        let t0 = f.send_message(SimTime::ZERO, NodeId(0), NodeId(1), 64);
        assert_eq!(t0.last_arrival, base);
        // Inside: the route crosses the sick wire and pays the 5 µs.
        let t1 = f.send_message(SimTime::from_ns(2_000), NodeId(0), NodeId(1), 64);
        let shift = t1.last_arrival.as_ns_f64() - 2_000.0 - base.as_ns_f64();
        assert!((shift - 5_000.0).abs() < 0.1, "shift {shift}");
        // A pair avoiding the wire entirely is untouched (the degrade is
        // undirected, so 1 -> 0 would cross it via host 1's uplink)...
        let t2 = f.send_message(SimTime::from_ns(2_000), NodeId(2), NodeId(3), 64);
        assert_eq!(
            t2.last_arrival,
            SimTime::from_ns(2_000) + (base - SimTime::ZERO)
        );
        // ...and the window closing heals the pair.
        let t3 = f.send_message(SimTime::from_ns(20_000), NodeId(0), NodeId(1), 64);
        assert_eq!(
            t3.last_arrival,
            SimTime::from_ns(20_000) + (base - SimTime::ZERO)
        );
        assert_eq!(f.fault_stats().counter("degraded_messages"), 1);
    }

    #[test]
    fn slow_nic_straggles_both_directions_but_not_third_parties() {
        use crate::faults::DegradeSpec;
        // Fresh fabric per send so link contention cannot muddy the
        // comparison against the clean baseline.
        let send = |s: u32, d: u32| {
            let mut f = Fabric::new(
                4,
                FabricConfig {
                    faults: FaultConfig::degrade(1, DegradeSpec::nic(2).latency(1_000)),
                    ..FabricConfig::default()
                },
            );
            f.send_message(SimTime::ZERO, NodeId(s), NodeId(d), 64)
                .last_arrival
        };
        let base = fabric(4)
            .send_message(SimTime::ZERO, NodeId(0), NodeId(1), 64)
            .last_arrival;
        assert_eq!(send(0, 1), base);
        for t in [send(0, 2), send(2, 1)] {
            let shift = t.as_ns_f64() - base.as_ns_f64();
            assert!((shift - 1_000.0).abs() < 0.1, "shift {shift}");
        }
    }

    #[test]
    fn degrade_drops_surface_only_through_the_faulty_path() {
        use crate::faults::DegradeSpec;
        let mut f = Fabric::new(
            4,
            FabricConfig {
                faults: FaultConfig::degrade(1, DegradeSpec::edge(0, 4).lossy(1.0, 0)),
                ..FabricConfig::default()
            },
        );
        let (_, verdict) = f.send_message_faulty(SimTime::ZERO, NodeId(0), NodeId(1), 64);
        assert_eq!(verdict, Delivery::Dropped);
        assert_eq!(f.fault_stats().counter("degrade_drops"), 1);
        // A pair avoiding host 0's (undirected) wire is untouched.
        let (_, verdict) = f.send_message_faulty(SimTime::ZERO, NodeId(1), NodeId(2), 64);
        assert_eq!(verdict, Delivery::Delivered);
    }

    #[test]
    fn fat_tree_edge_crash_reroutes_after_the_convergence_window() {
        // Crash the aggregation uplink the 0 -> 4 flow actually uses and
        // arm failover: drops during the 10 µs convergence window, then a
        // repaired route that avoids the dead wire.
        let ft_config = FabricConfig {
            topology: Topology::FatTree { k: 4 },
            ..FabricConfig::default()
        };
        let probe = Fabric::new(8, ft_config.clone());
        let route = probe.graph().route(NodeId(0), NodeId(4));
        let (a, b) = probe.graph().edge_endpoints(route[1]); // edge-sw -> agg
        let mut f = Fabric::new(
            8,
            FabricConfig {
                faults: FaultConfig::none().with_crash(CrashComponent::Edge { a, b }, 5_000),
                reroute_delay_ns: Some(10_000),
                ..ft_config
            },
        );
        assert!(f.reroute_armed());
        let send = |f: &mut Fabric, ns| {
            f.send_message_faulty(SimTime::from_ns(ns), NodeId(0), NodeId(4), 64)
                .1
        };
        assert_eq!(send(&mut f, 1_000), Delivery::Delivered);
        assert_eq!(send(&mut f, 6_000), Delivery::Dropped); // converging
        assert_eq!(send(&mut f, 14_999), Delivery::Dropped);
        assert_eq!(send(&mut f, 15_000), Delivery::Delivered); // repaired
        assert_eq!(f.partitioned_pairs(), 0);
        let log = f.reroutes();
        assert!(!log.is_empty());
        for r in log {
            assert_eq!(r.at, SimTime::from_ns(15_000));
            assert!(r.old_path.iter().any(|&e| {
                let ep = f.graph().edge_endpoints(e);
                ep == (a, b) || ep == (b, a)
            }));
            let new = r.new_path.as_ref().expect("fat-tree never partitions here");
            assert!(new.iter().all(|&e| {
                let ep = f.graph().edge_endpoints(e);
                ep != (a, b) && ep != (b, a)
            }));
        }
        // The repaired flow must include the 0 -> 4 pair itself.
        assert!(log.iter().any(|r| (r.src, r.dst) == (0, 4)));
    }

    #[test]
    fn star_edge_crash_with_failover_partitions_the_host() {
        // A star has no alternate path: failover withdraws the wire and
        // honestly reports the partition instead of inventing a route.
        let mut f = Fabric::new(
            4,
            FabricConfig {
                faults: FaultConfig::none().with_crash(CrashComponent::Edge { a: 2, b: 4 }, 1_000),
                reroute_delay_ns: Some(10_000),
                ..FabricConfig::default()
            },
        );
        let send = |f: &mut Fabric, ns, s, d| {
            f.send_message_faulty(SimTime::from_ns(ns), NodeId(s), NodeId(d), 64)
                .1
        };
        assert_eq!(send(&mut f, 20_000, 0, 2), Delivery::Dropped);
        assert_eq!(send(&mut f, 20_000, 2, 0), Delivery::Dropped);
        assert_eq!(send(&mut f, 20_000, 0, 1), Delivery::Delivered);
        // 3 pairs each way lost their only route.
        assert_eq!(f.partitioned_pairs(), 6);
        assert!(f.reroutes().iter().all(|r| r.new_path.is_none()));
    }

    #[test]
    #[should_panic(expected = "names no edge")]
    fn edge_crash_on_a_missing_edge_panics() {
        // Star has no host-to-host edge 0<->1.
        Fabric::new(
            4,
            FabricConfig {
                faults: FaultConfig::none().with_crash(CrashComponent::Edge { a: 0, b: 1 }, 0),
                ..FabricConfig::default()
            },
        );
    }
}
