//! Severing a routed link must be *diagnosed*, never hung on.
//!
//! Property: pick any host, any strategy, and any switched topology; run
//! the ring Allreduce with that host's uplink severed mid-run (crash-stop
//! on the graph edge) and the failure detector armed under Abort. The job
//! must terminate with a structured `PeerDead` naming the now-unreachable
//! host, within the liveness event budget — a dead wire is indistinguishable
//! from a dead peer at the endpoints, and the fabric must surface it the
//! same way instead of spinning the calendar forever.

use gtn_core::scenario::ConfigPatch;
use gtn_core::{RecoveryPolicy, StallReason, Strategy};
use gtn_fabric::{FabricGraph, Topology};
use gtn_mem::NodeId;
use gtn_workloads::allreduce::Allreduce;
use gtn_workloads::harness::{JobFailure, Workload};
use proptest::prelude::*;

/// No terminated run may consume more events than this.
const EVENT_BUDGET: u64 = 20_000_000;

/// The smoke Allreduce node count.
const NODES: u32 = 5;

proptest! {
    // Every case is two full cluster runs; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn severed_routed_uplink_is_diagnosed_as_peer_dead(
        host in 1u32..NODES,
        strat_ix in 0u8..4,
        topo_ix in 0u8..3,
    ) {
        let strategy = Strategy::all()[strat_ix as usize % 4];
        let topo = match topo_ix {
            0 => Topology::Star,
            1 => Topology::fat_tree_for(NODES as usize),
            _ => Topology::dragonfly_for(NODES as usize),
        };
        let w = Allreduce;

        // In every switched shape a host has exactly one uplink, so the
        // first hop of any of its routes names it regardless of ECMP seed.
        let g = FabricGraph::build(topo, NODES as usize, 0);
        let first = g.route(NodeId(host), NodeId((host + 1) % NODES))[0];
        let (a, b) = g.edge_endpoints(first);
        prop_assert_eq!(a, host, "first hop leaves the host");

        // Sever it at ~30% of the healthy runtime on the same topology.
        let base = w
            .smoke_scenario(strategy)
            .patch(ConfigPatch::NONE.with_topology(topo));
        let healthy = w.run(&base).expect("the healthy run verifies");
        let crash_at_ns = (healthy.total.as_ps() / 1000) * 3 / 10;

        let params = w.smoke_scenario(strategy).patch(
            ConfigPatch::crash_edge(a, b, crash_at_ns)
                .with_topology(topo)
                .with_detection(RecoveryPolicy::Abort),
        );
        let Err(JobFailure::Stalled { report, events, .. }) = w.run(&params) else {
            panic!("a severed routed link under Abort must terminate the job");
        };
        prop_assert!(
            matches!(report.reason, StallReason::PeerDead { peer, .. } if peer == host),
            "{} {strategy}: wrong diagnosis for severed uplink of host {host}: {}",
            topo.label(),
            report.reason
        );
        prop_assert!(
            events < EVENT_BUDGET,
            "{} {strategy}: {} events blew the liveness budget",
            topo.label(),
            events
        );
    }
}
