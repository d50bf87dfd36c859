//! Route-around failover properties on the topology graph:
//!
//! 1. **Withdrawal soundness** — after withdrawing an arbitrary edge set,
//!    every still-routable host pair gets a path that touches no withdrawn
//!    edge, chains hop to hop, is a *shortest path* of the surviving graph
//!    (verified against an independent BFS), and stays within the repair
//!    bound of diameter + 2 hops per cut (each severed edge can force at
//!    most one bounce — through a sibling switch or an intermediate
//!    dragonfly group). Pairs the surviving graph no longer connects are
//!    reported as partitioned, not routed through the dead wire.
//! 2. **Repair determinism** — the rebuilt tables are a pure function of
//!    `(topology, n, seed, withdrawn set)`: withdrawing the same edges in
//!    any order, with duplicates, on a fresh graph reproduces identical
//!    routes for every pair — the property that makes lazy reroute
//!    application replay bit-identically.
//! 3. **Monotone damage** — withdrawals only ever shrink reachability;
//!    a pair disconnected by a smaller withdrawn set stays disconnected
//!    under any superset.

use gtn_fabric::{FabricGraph, Topology};
use gtn_mem::NodeId;
use proptest::prelude::*;

/// Worst-case hop count per multipath shape (see `proptest_topology.rs`).
fn diameter_bound(topo: Topology) -> usize {
    match topo {
        Topology::Star => 2,
        Topology::FullMesh => 1,
        Topology::FatTree { .. } => 6,
        Topology::Dragonfly { .. } => 5,
    }
}

/// Multipath shapes only: withdrawing from a star just partitions, which
/// property 1 covers via the fat-tree's host uplinks anyway.
fn shape_of(ix: u8, raw: u64, fill: f64) -> (Topology, usize) {
    let fill_to = |cap: usize| 2 + ((fill * (cap - 1) as f64) as usize).min(cap - 2);
    if ix == 0 {
        let k = 4 + 2 * (raw % 2) as u32; // k in {4, 6}
        let cap = (k as usize).pow(3) / 4;
        (Topology::FatTree { k }, fill_to(cap))
    } else {
        let topo = Topology::Dragonfly {
            routers: 2 + (raw % 2) as u32,
            hosts: 2,
            globals: 1 + ((raw >> 8) % 2) as u32,
        };
        let cap = (topo.capacity().unwrap() as usize).min(24);
        (topo, fill_to(cap))
    }
}

/// Independent shortest-path distance (in edges) from `s` to `d` over the
/// surviving graph — plain BFS over `out_edge_ids`, ignoring withdrawn
/// edges, sharing no code with the candidate tables under test.
fn bfs_dist(g: &FabricGraph, s: u32, d: u32) -> Option<usize> {
    let mut dist = vec![usize::MAX; g.vertex_count() as usize];
    let mut queue = std::collections::VecDeque::new();
    dist[s as usize] = 0;
    queue.push_back(s);
    while let Some(v) = queue.pop_front() {
        if v == d {
            return Some(dist[v as usize]);
        }
        for &e in g.out_edge_ids(v) {
            if g.edge_withdrawn(e) {
                continue;
            }
            let (_, to) = g.edge_endpoints(e);
            if dist[to as usize] == usize::MAX {
                dist[to as usize] = dist[v as usize] + 1;
                queue.push_back(to);
            }
        }
    }
    None
}

/// Pick `count` distinct edge ids from the graph, seeded.
fn pick_edges(g: &FabricGraph, seed: u64, count: usize) -> Vec<u32> {
    let total = g.edge_count() as u64;
    let mut picked = Vec::new();
    let mut x = seed | 1;
    while picked.len() < count.min(g.edge_count()) {
        // Cheap deterministic LCG walk over the edge ids.
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let e = (x >> 33) % total;
        if !picked.contains(&(e as u32)) {
            picked.push(e as u32);
        }
    }
    picked
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every route the repaired tables produce avoids the withdrawn edges,
    /// chains correctly, is a shortest path of the survivors, and pays at
    /// most one detour bounce (two hops) per cut over the healthy
    /// diameter; unroutable pairs are reported as partitioned.
    #[test]
    fn rerouted_paths_avoid_withdrawn_edges_and_stay_shortest(
        ix in 0u8..2,
        raw in any::<u64>(),
        fill in 0.0f64..1.0,
        seed in any::<u64>(),
        cut_seed in any::<u64>(),
        cuts in 1usize..6,
    ) {
        let (topo, n) = shape_of(ix, raw, fill);
        let mut g = FabricGraph::build(topo, n, seed);
        let withdrawn = pick_edges(&g, cut_seed, cuts);
        g.withdraw_edges(withdrawn.iter().copied());
        let bound = diameter_bound(topo) + 2 * withdrawn.len();
        for s in 0..n as u32 {
            for d in 0..n as u32 {
                if s == d {
                    continue;
                }
                match g.try_route(NodeId(s), NodeId(d)) {
                    None => prop_assert!(
                        !g.has_route(s, d),
                        "{topo:?} n={n}: try_route None but has_route true for {s}->{d}"
                    ),
                    Some(route) => {
                        prop_assert!(
                            route.len() <= bound,
                            "{topo:?} n={n}: {s}->{d} takes {} hops (bound {bound})",
                            route.len()
                        );
                        // The repair is a shortest path of the survivors,
                        // not merely *a* path.
                        prop_assert_eq!(
                            Some(route.len()),
                            bfs_dist(&g, s, d),
                            "{:?} n={}: {}->{} repair is not shortest", topo, n, s, d
                        );
                        let mut at = s;
                        for &e in &route {
                            prop_assert!(
                                !g.edge_withdrawn(e),
                                "{topo:?} n={n}: {s}->{d} routed through withdrawn edge {e}"
                            );
                            let (from, to) = g.edge_endpoints(e);
                            prop_assert_eq!(from, at, "route hop does not chain");
                            at = to;
                        }
                        prop_assert_eq!(at, d, "route does not end at the destination");
                    }
                }
            }
        }
    }

    /// The repaired tables are a pure function of the withdrawn *set*:
    /// order and duplicates are irrelevant, and a fresh graph withdrawn
    /// identically reproduces every route bit for bit.
    #[test]
    fn withdrawal_repair_is_a_pure_function_of_the_set(
        ix in 0u8..2,
        raw in any::<u64>(),
        fill in 0.0f64..1.0,
        seed in any::<u64>(),
        cut_seed in any::<u64>(),
        cuts in 1usize..6,
    ) {
        let (topo, n) = shape_of(ix, raw, fill);
        let mut a = FabricGraph::build(topo, n, seed);
        let mut b = FabricGraph::build(topo, n, seed);
        let withdrawn = pick_edges(&a, cut_seed, cuts);
        a.withdraw_edges(withdrawn.iter().copied());
        // Reverse order, one at a time, each twice (idempotence).
        for &e in withdrawn.iter().rev() {
            b.withdraw_edges([e]);
            b.withdraw_edges([e]);
        }
        prop_assert_eq!(a.withdrawn_count(), b.withdrawn_count());
        for s in 0..n as u32 {
            for d in 0..n as u32 {
                prop_assert_eq!(
                    a.try_route(NodeId(s), NodeId(d)),
                    b.try_route(NodeId(s), NodeId(d)),
                    "{:?} n={}: repaired route diverged for {}->{}", topo, n, s, d
                );
            }
        }
    }

    /// Reachability shrinks monotonically under withdrawal: any pair
    /// partitioned by the first half of the cut set stays partitioned
    /// after the full set is withdrawn.
    #[test]
    fn withdrawals_never_resurrect_reachability(
        ix in 0u8..2,
        raw in any::<u64>(),
        fill in 0.0f64..1.0,
        seed in any::<u64>(),
        cut_seed in any::<u64>(),
        cuts in 2usize..8,
    ) {
        let (topo, n) = shape_of(ix, raw, fill);
        let mut g = FabricGraph::build(topo, n, seed);
        let withdrawn = pick_edges(&g, cut_seed, cuts);
        let (first, rest) = withdrawn.split_at(withdrawn.len() / 2);
        g.withdraw_edges(first.iter().copied());
        let gone: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|s| (0..n as u32).map(move |d| (s, d)))
            .filter(|&(s, d)| s != d && !g.has_route(s, d))
            .collect();
        g.withdraw_edges(rest.iter().copied());
        for (s, d) in gone {
            prop_assert!(
                !g.has_route(s, d),
                "{topo:?} n={n}: withdrawing more edges resurrected {s}->{d}"
            );
        }
    }
}
