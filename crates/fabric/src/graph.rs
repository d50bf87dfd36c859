//! The materialized switch/link graph and its routing tables.
//!
//! [`FabricGraph::build`] expands a [`Topology`] into explicit vertices
//! (hosts first, then switches) and directed edges, then runs a reverse BFS
//! from every destination host to precompute, for each `(dst, vertex)`
//! pair, the set of out-edges that lie on a shortest path — the equal-cost
//! candidates. Per-message path lookup is then allocation-free: the fabric
//! walks `try_next_edge` hop by hop, and when several candidates tie, a
//! deterministic seeded hash of `(src, dst, vertex)` picks one (flow-pinned
//! ECMP: every packet of a pair takes the same path, and the same seed
//! reproduces the same paths bit-for-bit).
//!
//! Because the tables are derived by BFS on the generic edge list, the same
//! machinery routes every shape: the star and full mesh reproduce their old
//! hard-coded routes exactly, and fat-tree/dragonfly get correct up/down
//! and minimal routing with no shape-specific code.

use crate::topology::Topology;
use gtn_mem::NodeId;

/// The expanded interconnect graph with precomputed routing tables.
///
/// Vertices `0..n_nodes` are hosts (their ids equal [`NodeId`] values);
/// vertices `n_nodes..n_vertices` are switches/routers. Each directed edge
/// owns one serializing link in [`crate::Fabric`].
#[derive(Debug)]
pub struct FabricGraph {
    n_nodes: u32,
    n_vertices: u32,
    /// Edge id -> (from, to).
    edges: Vec<(u32, u32)>,
    /// CSR adjacency: out-edge ids of vertex `v` are
    /// `out_edges[out_off[v]..out_off[v+1]]`.
    out_off: Vec<u32>,
    out_edges: Vec<u32>,
    /// CSR reverse adjacency (in-edges), same layout.
    in_off: Vec<u32>,
    in_edges: Vec<u32>,
    /// Shortest-path candidate table: for destination host `d` and current
    /// vertex `v`, the equal-cost next edges are
    /// `cands[cand_off[d*n_vertices+v]..cand_off[d*n_vertices+v+1]]`.
    cand_off: Vec<u32>,
    cands: Vec<u32>,
    /// Edges withdrawn from routing (diagnosed dead or persistently
    /// degraded). Withdrawn edges keep their ids — links and stats stay
    /// index-aligned — but no candidate table row ever names them.
    dead: Vec<bool>,
    ecmp_seed: u64,
}

impl FabricGraph {
    /// Expand `topo` for `n_nodes` hosts and precompute routing tables.
    ///
    /// # Panics
    /// Panics if the shape parameters are invalid, the shape's capacity is
    /// below `n_nodes`, or some host pair would be unreachable (a
    /// construction bug, not a configuration error).
    pub fn build(topo: Topology, n_nodes: usize, ecmp_seed: u64) -> Self {
        topo.validate().expect("invalid topology parameters");
        if let Some(cap) = topo.capacity() {
            assert!(
                n_nodes as u64 <= cap,
                "{} supports at most {cap} hosts, asked for {n_nodes}",
                topo.label()
            );
        }
        let n = n_nodes as u32;
        let (n_vertices, edges) = match topo {
            Topology::Star => build_star(n),
            Topology::FullMesh => build_full_mesh(n),
            Topology::FatTree { k } => build_fat_tree(n, k),
            Topology::Dragonfly {
                routers,
                hosts,
                globals,
            } => build_dragonfly(n, routers, hosts, globals),
        };
        let (out_off, out_edges) = adjacency(n_vertices, &edges, |e| e.0);
        let (in_off, in_edges) = adjacency(n_vertices, &edges, |e| e.1);
        let dead = vec![false; edges.len()];
        let mut g = FabricGraph {
            n_nodes: n,
            n_vertices,
            edges,
            out_off,
            out_edges,
            in_off,
            in_edges,
            cand_off: Vec::new(),
            cands: Vec::new(),
            dead,
            ecmp_seed,
        };
        g.build_candidates();
        g
    }

    /// Fill the per-destination candidate tables by reverse BFS from every
    /// destination host over the *surviving* (non-withdrawn) edges: an
    /// out-edge `v -> u` is a candidate for `dst` iff
    /// `dist(u, dst) == dist(v, dst) - 1`. On an intact graph every host
    /// pair must be connected (a construction bug otherwise); once edges
    /// have been withdrawn, partition is a legitimate outcome — the
    /// affected rows simply go empty and [`FabricGraph::try_next_edge`]
    /// reports `None`.
    fn build_candidates(&mut self) {
        let nv = self.n_vertices as usize;
        let intact = !self.dead.iter().any(|&d| d);
        let mut cand_off = Vec::with_capacity(self.n_nodes as usize * nv + 1);
        cand_off.push(0u32);
        let mut cands = Vec::new();
        let mut dist = vec![u32::MAX; nv];
        let mut queue = Vec::with_capacity(nv);
        for dst in 0..self.n_nodes {
            dist.fill(u32::MAX);
            queue.clear();
            dist[dst as usize] = 0;
            queue.push(dst);
            let mut head = 0;
            while head < queue.len() {
                let u = queue[head];
                head += 1;
                let du = dist[u as usize];
                for &e in self.in_edge_ids(u) {
                    if self.dead[e as usize] {
                        continue;
                    }
                    let v = self.edges[e as usize].0;
                    if dist[v as usize] == u32::MAX {
                        dist[v as usize] = du + 1;
                        queue.push(v);
                    }
                }
            }
            for v in 0..self.n_vertices {
                if v != dst && dist[v as usize] != u32::MAX {
                    for &e in self.out_edge_ids(v) {
                        if self.dead[e as usize] {
                            continue;
                        }
                        let u = self.edges[e as usize].1;
                        if dist[u as usize] == dist[v as usize].wrapping_sub(1) {
                            cands.push(e);
                        }
                    }
                }
                cand_off.push(cands.len() as u32);
            }
            if intact {
                for host in 0..self.n_nodes {
                    assert!(
                        dist[host as usize] != u32::MAX,
                        "host {host} cannot reach host {dst}: disconnected topology"
                    );
                }
            }
        }
        self.cand_off = cand_off;
        self.cands = cands;
    }

    /// Withdraw directed edges from routing and rebuild the candidate
    /// tables over the survivors — the route-around primitive. The rerun
    /// BFS uses the same deterministic order and the same ECMP seed as
    /// construction, so the repaired tables are a pure function of
    /// (topology, seed, withdrawn set): bit-identical across reruns.
    /// Withdrawing an already-withdrawn edge is a no-op; the rebuild is
    /// skipped when nothing changed.
    pub fn withdraw_edges(&mut self, edge_ids: impl IntoIterator<Item = u32>) {
        let mut changed = false;
        for e in edge_ids {
            if !self.dead[e as usize] {
                self.dead[e as usize] = true;
                changed = true;
            }
        }
        if changed {
            self.build_candidates();
        }
    }

    /// Has edge `e` been withdrawn from routing?
    pub fn edge_withdrawn(&self, e: u32) -> bool {
        self.dead[e as usize]
    }

    /// Number of withdrawn edges.
    pub fn withdrawn_count(&self) -> usize {
        self.dead.iter().filter(|&&d| d).count()
    }

    /// Number of hosts.
    pub fn node_count(&self) -> u32 {
        self.n_nodes
    }

    /// Total vertices (hosts + switches).
    pub fn vertex_count(&self) -> u32 {
        self.n_vertices
    }

    /// Number of switch/router vertices.
    pub fn switch_count(&self) -> u32 {
        self.n_vertices - self.n_nodes
    }

    /// Number of directed edges (= serializing links).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Endpoints `(from, to)` of edge `e`.
    pub fn edge_endpoints(&self, e: u32) -> (u32, u32) {
        self.edges[e as usize]
    }

    /// The directed edge `a -> b`, if it exists.
    pub fn edge_between(&self, a: u32, b: u32) -> Option<u32> {
        if a >= self.n_vertices {
            return None;
        }
        self.out_edge_ids(a)
            .iter()
            .copied()
            .find(|&e| self.edges[e as usize].1 == b)
    }

    /// In-edge ids of vertex `v` (edges whose head is `v`).
    pub fn in_edge_ids(&self, v: u32) -> &[u32] {
        &self.in_edges[self.in_off[v as usize] as usize..self.in_off[v as usize + 1] as usize]
    }

    /// Out-edge ids of vertex `v`.
    pub fn out_edge_ids(&self, v: u32) -> &[u32] {
        &self.out_edges[self.out_off[v as usize] as usize..self.out_off[v as usize + 1] as usize]
    }

    /// The next edge on the `src -> dst` path when standing at vertex `at`,
    /// or `None` when no surviving edge leads toward `dst` (the partitioned
    /// case after withdrawals). Allocation-free; ties between equal-cost
    /// candidates are broken by a seeded hash of `(src, dst, at)`, so a
    /// flow's path is stable.
    #[inline]
    pub fn try_next_edge(&self, at: u32, src: u32, dst: u32) -> Option<u32> {
        let idx = dst as usize * self.n_vertices as usize + at as usize;
        let lo = self.cand_off[idx] as usize;
        let hi = self.cand_off[idx + 1] as usize;
        if hi == lo {
            return None;
        }
        if hi - lo == 1 {
            Some(self.cands[lo])
        } else {
            let h = ecmp_hash(self.ecmp_seed, src, dst, at);
            Some(self.cands[lo + (h % (hi - lo) as u64) as usize])
        }
    }

    /// Can `src` still reach `dst` over the surviving edges? Loopback is
    /// always reachable.
    pub fn has_route(&self, src: u32, dst: u32) -> bool {
        if src == dst {
            return true;
        }
        let idx = dst as usize * self.n_vertices as usize + src as usize;
        self.cand_off[idx + 1] > self.cand_off[idx]
    }

    /// The full edge-id route `src -> dst` under the current ECMP seed.
    /// Diagnostics/tests only — the send hot path never materializes it.
    /// Loopback (`src == dst`) is the empty route.
    ///
    /// # Panics
    /// Panics when the pair is partitioned (use [`FabricGraph::try_route`]
    /// after withdrawals).
    pub fn route(&self, src: NodeId, dst: NodeId) -> Vec<u32> {
        self.try_route(src, dst)
            .unwrap_or_else(|| panic!("no route from {} to {}", src.0, dst.0))
    }

    /// [`FabricGraph::route`], returning `None` when the surviving graph
    /// no longer connects the pair.
    pub fn try_route(&self, src: NodeId, dst: NodeId) -> Option<Vec<u32>> {
        let (s, d) = (src.0, dst.0);
        let mut route = Vec::new();
        let mut v = s;
        while v != d {
            let e = self.try_next_edge(v, s, d)?;
            route.push(e);
            v = self.edges[e as usize].1;
            assert!(
                route.len() <= self.n_vertices as usize,
                "routing loop from {s} to {d}"
            );
        }
        Some(route)
    }
}

/// Deterministic flow hash for ECMP tie-breaking (splitmix64 finalizer).
fn ecmp_hash(seed: u64, src: u32, dst: u32, at: u32) -> u64 {
    let mut x = seed ^ ((src as u64) << 42) ^ ((dst as u64) << 21) ^ at as u64;
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// CSR adjacency over `edges`, keyed by `side` (0 = out, 1 = in).
fn adjacency(
    n_vertices: u32,
    edges: &[(u32, u32)],
    side: impl Fn(&(u32, u32)) -> u32,
) -> (Vec<u32>, Vec<u32>) {
    let nv = n_vertices as usize;
    let mut counts = vec![0u32; nv + 1];
    for e in edges {
        counts[side(e) as usize + 1] += 1;
    }
    for i in 0..nv {
        counts[i + 1] += counts[i];
    }
    let off = counts.clone();
    let mut slots = vec![0u32; edges.len()];
    let mut cursor = off.clone();
    for (id, e) in edges.iter().enumerate() {
        let v = side(e) as usize;
        slots[cursor[v] as usize] = id as u32;
        cursor[v] += 1;
    }
    (off, slots)
}

/// Star: one central switch (vertex `n`), an uplink and a downlink per host.
/// Edge ids: `0..n` are uplinks `i -> switch`, `n..2n` are downlinks
/// `switch -> i` (the same link set the pre-graph fabric used).
fn build_star(n: u32) -> (u32, Vec<(u32, u32)>) {
    let sw = n;
    let mut edges = Vec::with_capacity(2 * n as usize);
    for i in 0..n {
        edges.push((i, sw));
    }
    for i in 0..n {
        edges.push((sw, i));
    }
    (n + 1, edges)
}

/// Full mesh: a direct link per ordered host pair, no switches.
fn build_full_mesh(n: u32) -> (u32, Vec<(u32, u32)>) {
    let mut edges = Vec::with_capacity(n as usize * (n as usize - 1));
    for s in 0..n {
        for d in 0..n {
            if s != d {
                edges.push((s, d));
            }
        }
    }
    (n, edges)
}

/// Three-tier k-ary fat-tree: `k` pods x (`k/2` edge + `k/2` aggregation
/// switches) + `(k/2)^2` cores. Host `h` sits in pod `h / (k/2)^2` under
/// edge switch `(h % (k/2)^2) / (k/2)`. Aggregation switch `a` of every pod
/// uplinks to cores `a*k/2 .. (a+1)*k/2`.
fn build_fat_tree(n: u32, k: u32) -> (u32, Vec<(u32, u32)>) {
    let half = k / 2;
    let edge_base = n;
    let agg_base = edge_base + k * half;
    let core_base = agg_base + k * half;
    let n_vertices = core_base + half * half;
    let edge_sw = |pod: u32, e: u32| edge_base + pod * half + e;
    let agg_sw = |pod: u32, a: u32| agg_base + pod * half + a;
    let core_sw = |c: u32| core_base + c;

    let mut edges = Vec::new();
    for h in 0..n {
        let pod = h / (half * half);
        let e = (h % (half * half)) / half;
        edges.push((h, edge_sw(pod, e)));
        edges.push((edge_sw(pod, e), h));
    }
    for pod in 0..k {
        for e in 0..half {
            for a in 0..half {
                edges.push((edge_sw(pod, e), agg_sw(pod, a)));
                edges.push((agg_sw(pod, a), edge_sw(pod, e)));
            }
        }
        for a in 0..half {
            for c in a * half..(a + 1) * half {
                edges.push((agg_sw(pod, a), core_sw(c)));
                edges.push((core_sw(c), agg_sw(pod, a)));
            }
        }
    }
    (n_vertices, edges)
}

/// Dragonfly(`a` routers/group, `p` hosts/router, `h` globals/router):
/// `g = a*h + 1` groups, routers within a group all-to-all, and exactly one
/// global link per group pair. Group `gi`'s global port `d` (of `a*h`)
/// lands on group `(gi + d + 1) mod g`; port `d` lives on router `d / h`.
fn build_dragonfly(n: u32, a: u32, p: u32, h: u32) -> (u32, Vec<(u32, u32)>) {
    let g = a * h + 1;
    let router = |gi: u32, r: u32| n + gi * a + r;
    let n_vertices = n + g * a;

    let mut edges = Vec::new();
    for host in 0..n {
        let gi = host / (a * p);
        let r = (host % (a * p)) / p;
        edges.push((host, router(gi, r)));
        edges.push((router(gi, r), host));
    }
    for gi in 0..g {
        for r1 in 0..a {
            for r2 in 0..a {
                if r1 != r2 {
                    edges.push((router(gi, r1), router(gi, r2)));
                }
            }
        }
        // One directed global edge per ordered group pair: looping `gi`
        // over all groups emits both directions of each physical link.
        for d in 0..a * h {
            let gj = (gi + d + 1) % g;
            let back = (gi + g - gj - 1) % g; // gj's port toward gi
            edges.push((router(gi, d / h), router(gj, back / h)));
        }
    }
    (n_vertices, edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn route_len(g: &FabricGraph, s: u32, d: u32) -> usize {
        g.route(NodeId(s), NodeId(d)).len()
    }

    #[test]
    fn star_matches_the_analytic_shape() {
        let g = FabricGraph::build(Topology::Star, 4, 0);
        assert_eq!(g.switch_count(), 1);
        assert_eq!(g.edge_count(), 8);
        // Route 0 -> 3: uplink edge 0 then downlink edge 4+3.
        assert_eq!(g.route(NodeId(0), NodeId(3)), vec![0, 7]);
        assert_eq!(g.route(NodeId(5), NodeId(5)), Vec::<u32>::new());
    }

    #[test]
    fn full_mesh_is_single_direct_edges() {
        let g = FabricGraph::build(Topology::FullMesh, 4, 0);
        assert_eq!(g.switch_count(), 0);
        assert_eq!(g.edge_count(), 12);
        for s in 0..4 {
            for d in 0..4 {
                if s != d {
                    let r = g.route(NodeId(s), NodeId(d));
                    assert_eq!(r.len(), 1);
                    assert_eq!(g.edge_endpoints(r[0]), (s, d));
                }
            }
        }
    }

    #[test]
    fn fat_tree_route_lengths_follow_the_tiers() {
        // k=4: 16 hosts, pods of 4, edge switches covering 2 hosts each.
        let g = FabricGraph::build(Topology::FatTree { k: 4 }, 16, 0);
        assert_eq!(g.switch_count(), 4 * 2 + 4 * 2 + 4);
        assert_eq!(route_len(&g, 0, 1), 2); // same edge switch
        assert_eq!(route_len(&g, 0, 2), 4); // same pod, different edge
        assert_eq!(route_len(&g, 0, 15), 6); // cross-pod, via core
    }

    #[test]
    fn fat_tree_partial_fill_routes_everywhere() {
        let g = FabricGraph::build(Topology::FatTree { k: 4 }, 11, 7);
        for s in 0..11 {
            for d in 0..11 {
                if s != d {
                    assert!(route_len(&g, s, d) <= 6);
                }
            }
        }
    }

    #[test]
    fn dragonfly_every_group_pair_has_one_global_link_each_way() {
        let (a, p, h) = (4, 2, 2);
        let g_count = a * h + 1;
        let n = g_count * a * p;
        let g = FabricGraph::build(
            Topology::Dragonfly {
                routers: a,
                hosts: p,
                globals: h,
            },
            n as usize,
            0,
        );
        let group_of = |v: u32| (v - n) / a;
        let mut cross = std::collections::HashMap::new();
        for e in 0..g.edge_count() as u32 {
            let (from, to) = g.edge_endpoints(e);
            if from >= n && to >= n && group_of(from) != group_of(to) {
                *cross.entry((group_of(from), group_of(to))).or_insert(0u32) += 1;
            }
        }
        for gi in 0..g_count {
            for gj in 0..g_count {
                if gi != gj {
                    assert_eq!(cross.get(&(gi, gj)), Some(&1), "groups {gi}->{gj}");
                }
            }
        }
        // Diameter bound: host-router, <=1 local, global, <=1 local,
        // router-host.
        for s in 0..n {
            for d in 0..n {
                if s != d {
                    assert!(route_len(&g, s, d) <= 5);
                }
            }
        }
    }

    #[test]
    fn ecmp_is_deterministic_and_seed_sensitive() {
        let a = FabricGraph::build(Topology::FatTree { k: 4 }, 16, 42);
        let b = FabricGraph::build(Topology::FatTree { k: 4 }, 16, 42);
        let mut any_seed_diff = false;
        let c = FabricGraph::build(Topology::FatTree { k: 4 }, 16, 43);
        for s in 0..16 {
            for d in 0..16 {
                let ra = a.route(NodeId(s), NodeId(d));
                assert_eq!(ra, b.route(NodeId(s), NodeId(d)), "same seed, same path");
                if ra != c.route(NodeId(s), NodeId(d)) {
                    any_seed_diff = true;
                }
            }
        }
        assert!(any_seed_diff, "a different seed should move some flow");
    }

    #[test]
    fn withdrawing_a_fat_tree_uplink_reroutes_around_it() {
        // k=4, 8 hosts: host 0 hangs off edge switch 8, which uplinks to
        // aggs 16 and 17. Withdraw both directions of the 8 <-> 16 wire:
        // every route must avoid it, and everyone stays connected.
        let mut g = FabricGraph::build(Topology::FatTree { k: 4 }, 8, 42);
        let up = g.edge_between(8, 16).unwrap();
        let down = g.edge_between(16, 8).unwrap();
        g.withdraw_edges([up, down]);
        assert_eq!(g.withdrawn_count(), 2);
        for s in 0..8 {
            for d in 0..8 {
                if s == d {
                    continue;
                }
                let r = g
                    .try_route(NodeId(s), NodeId(d))
                    .unwrap_or_else(|| panic!("{s} -> {d} partitioned"));
                assert!(
                    r.iter().all(|&e| e != up && e != down),
                    "{s} -> {d} still crosses the withdrawn wire"
                );
                assert!(r.len() <= 6, "{s} -> {d} blew the diameter");
            }
        }
    }

    #[test]
    fn withdrawing_a_star_uplink_partitions_only_that_host() {
        let mut g = FabricGraph::build(Topology::Star, 4, 0);
        // Edge 0 is host 0's uplink; no alternate path exists on a star.
        g.withdraw_edges([0u32]);
        assert!(!g.has_route(0, 3));
        assert!(g.has_route(3, 0)); // the downlink is still up
        assert!(g.has_route(1, 2));
        assert_eq!(g.try_route(NodeId(0), NodeId(3)), None);
        assert!(g.try_route(NodeId(3), NodeId(0)).is_some());
        assert_eq!(g.try_next_edge(0, 0, 3), None);
    }

    #[test]
    fn withdrawal_is_idempotent_and_deterministic() {
        let build = || {
            let mut g = FabricGraph::build(Topology::FatTree { k: 4 }, 8, 7);
            let up = g.edge_between(8, 16).unwrap();
            let down = g.edge_between(16, 8).unwrap();
            g.withdraw_edges([up, down, up]); // repeat entries are no-ops
            g
        };
        let (a, b) = (build(), build());
        for s in 0..8 {
            for d in 0..8 {
                assert_eq!(
                    a.try_route(NodeId(s), NodeId(d)),
                    b.try_route(NodeId(s), NodeId(d))
                );
            }
        }
    }

    #[test]
    fn overfilled_shape_panics() {
        let r = std::panic::catch_unwind(|| FabricGraph::build(Topology::FatTree { k: 4 }, 17, 0));
        assert!(r.is_err());
    }
}
