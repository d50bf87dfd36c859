//! Topology scaling — node count × physical topology × collective schedule
//! × strategy, the sweep the paper's single-switch gem5 setup could not
//! run (ROADMAP open item 1).
//!
//! Grid: {star, fat-tree, dragonfly} × {ring, tree, hierarchical,
//! halving-doubling} Allreduce schedules × all four strategies, at node
//! counts up to 512 (all counts are powers of two, as halving-doubling
//! requires).
//! The star gives every host a dedicated up/downlink pair, so it is the
//! contention-free baseline; the fat-tree and dragonfly share core/global
//! links between flows, so congestion emerges from the per-link
//! serialization queues rather than being modeled. Each cell reports the
//! completion time and the heaviest link's carried bytes (`max_link_bytes`
//! — the congestion hot spot).
//!
//! The interesting output is the **reordering report**: cells where the
//! strategy ranking differs from the star baseline at the same node count
//! and schedule — i.e., where per-link contention changes which strategy
//! wins, not just by how much.
//!
//! Emits `BENCH_topology_scaling.json` (integers only — deterministic and
//! diffable). `GTN_BENCH_SMOKE` shrinks the grid to 16 nodes / 16 kB for
//! CI.

use gtn_bench::report::{self, obj, s, Json};
use gtn_bench::sweep;
use gtn_core::Strategy;
use gtn_fabric::Topology;
use gtn_sim::time::SimTime;
use gtn_workloads::collective::{self, Collective, CollectiveParams};
use gtn_workloads::harness::Harness;

const ELEMS: u64 = 256 * 1024; // 1 MB of f32
const NODES: [u32; 2] = [128, 512];
const SMOKE_ELEMS: u64 = 4 * 1024; // 16 kB
const SMOKE_NODES: [u32; 1] = [16];
const SEED: u64 = 0x7090;

const TOPOS: [&str; 3] = ["star", "fat_tree", "dragonfly"];
const SCHEDS: [&str; 4] = ["ring", "tree", "hier", "rhd"];

fn topology_of(name: &str, nodes: u32) -> Topology {
    match name {
        "star" => Topology::Star,
        "fat_tree" => Topology::fat_tree_for(nodes as usize),
        "dragonfly" => Topology::dragonfly_for(nodes as usize),
        other => panic!("unknown topology family {other:?}"),
    }
}

fn kind_of(name: &str) -> Collective {
    match name {
        "ring" => Collective::RingAllreduce,
        "tree" => Collective::TreeAllreduce,
        "hier" => Collective::HierAllreduce { group_size: 0 },
        "rhd" => Collective::RhdAllreduce,
        other => panic!("unknown schedule {other:?}"),
    }
}

/// What the report keeps of one cell. Each cell is reduced to these
/// scalars inside the sweep, so its per-rank vectors and full stats are
/// dropped as soon as it finishes instead of living until the report.
struct Point {
    total_ps: u64,
    max_link_bytes: u64,
    messages_sent: u64,
    retransmits: u64,
}

#[derive(Clone, Copy)]
struct Cell {
    nodes: u32,
    topo: &'static str,
    sched: &'static str,
    strategy: Strategy,
}

fn main() {
    gtn_bench::header(
        "Topology scaling: collective schedule x fabric shape x strategy",
        "beyond the paper's star — where CPU-bypass wins or collapses under link contention",
    );
    let (elems, nodes): (u64, &[u32]) = if report::smoke() {
        (SMOKE_ELEMS, &SMOKE_NODES)
    } else {
        (ELEMS, &NODES)
    };
    let strategies = Harness::strategies();

    let mut cells: Vec<Cell> = Vec::new();
    for &n in nodes {
        for &topo in &TOPOS {
            for &sched in &SCHEDS {
                for &strategy in &strategies {
                    cells.push(Cell {
                        nodes: n,
                        topo,
                        sched,
                        strategy,
                    });
                }
            }
        }
    }
    let points: Vec<Point> = sweep::run(cells.clone(), |c| {
        let topo = topology_of(c.topo, c.nodes);
        let r = collective::try_run_with_config(
            "topology_scaling",
            kind_of(c.sched),
            CollectiveParams {
                nodes: c.nodes,
                elems,
                strategy: c.strategy,
                seed: SEED,
            },
            |config| config.fabric.topology = topo,
        )
        .unwrap_or_else(|f| panic!("{} nodes {}: {f}", c.nodes, c.strategy));
        Point {
            total_ps: r.scenario.total.as_ps(),
            max_link_bytes: r.scenario.stats.counter("fabric", "max_link_bytes"),
            messages_sent: r.scenario.stats.counter("fabric", "messages_sent"),
            retransmits: r.scenario.retransmits,
        }
    });

    println!(
        "{:<7}{:<11}{:<6}{:>12}{:>14}",
        "nodes", "topology", "sched", "strategy us", "max_link_kB"
    );
    for (c, r) in cells.iter().zip(&points) {
        println!(
            "{:<7}{:<11}{:<6}{:>6} {:>9.1}{:>14}",
            c.nodes,
            c.topo,
            c.sched,
            c.strategy.name(),
            SimTime::from_ps(r.total_ps).as_us_f64(),
            r.max_link_bytes / 1024,
        );
    }

    // Reordering report: strategy ranking (fastest first) per cell group,
    // compared to the star baseline at the same (nodes, schedule).
    let ranking = |nodes: u32, topo: &str, sched: &str| -> Vec<&'static str> {
        let mut group: Vec<(&Point, &Cell)> = points
            .iter()
            .zip(&cells)
            .filter(|(_, c)| c.nodes == nodes && c.topo == topo && c.sched == sched)
            .collect();
        group.sort_by_key(|(r, _)| r.total_ps);
        group.iter().map(|(_, c)| c.strategy.name()).collect()
    };
    let mut reordered: Vec<(u32, &'static str, &'static str, String, String)> = Vec::new();
    for &n in nodes {
        for &sched in &SCHEDS {
            let star = ranking(n, "star", sched);
            for &topo in &TOPOS[1..] {
                let here = ranking(n, topo, sched);
                if here != star {
                    reordered.push((n, topo, sched, here.join(">"), star.join(">")));
                }
            }
        }
    }
    println!("\ncontention-reordered cells (ranking fastest-first, vs star):");
    if reordered.is_empty() {
        println!("  none at this scale");
    }
    for (n, topo, sched, here, star) in &reordered {
        println!("  {n} nodes {topo} {sched}: {here}  (star: {star})");
    }

    let json = obj(vec![
        ("bench", s("topology_scaling")),
        (
            "workload",
            obj(vec![
                ("elems", Json::U64(elems)),
                ("bytes", Json::U64(elems * 4)),
                ("seed", Json::U64(SEED)),
            ]),
        ),
        (
            "points",
            Json::Arr(
                cells
                    .iter()
                    .zip(&points)
                    .map(|(c, r)| {
                        obj(vec![
                            ("nodes", Json::U64(c.nodes as u64)),
                            ("topology", s(c.topo)),
                            ("schedule", s(c.sched)),
                            ("strategy", s(c.strategy.name())),
                            ("total_ps", Json::U64(r.total_ps)),
                            ("max_link_bytes", Json::U64(r.max_link_bytes)),
                            ("fabric_messages", Json::U64(r.messages_sent)),
                            ("retransmits", Json::U64(r.retransmits)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "reordered_cells",
            Json::Arr(
                reordered
                    .iter()
                    .map(|(n, topo, sched, here, star)| {
                        obj(vec![
                            ("nodes", Json::U64(*n as u64)),
                            ("topology", s(*topo)),
                            ("schedule", s(*sched)),
                            ("ranking", Json::Str(here.clone())),
                            ("star_ranking", Json::Str(star.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    report::write("topology_scaling", &json);
}
