//! The four workloads: their fixed cell lists, the reference digests a
//! cell's output is checked against, and per-cell verification.
//!
//! A cell is one full simulation and counts as one operation. Every cell
//! is closed-loop: the next starts when the previous one has been
//! verified, reduced to scalars, and dropped — a 512-node result is never
//! kept alive while the next one runs.

use gtn_core::{ClusterConfig, ClusterStats, Strategy};
use gtn_fabric::Topology;
use gtn_nic::{LookupKind, NicConfig};
use gtn_workloads::allreduce::{self, AllreduceParams, AllreduceResult};
use gtn_workloads::collective::{self, Collective, CollectiveParams, CollectiveResult};
use gtn_workloads::harness::{ConfigPatch, JobFailure};
use gtn_workloads::pingpong::{self, Flavor, PingResult};
use gtn_workloads::serving::{self, ArrivalProcess, ServingParams, ServingReport};

/// The six Table 1 flavors the pingpong campaign cycles through.
const FLAVORS: [Flavor; 6] = [
    Flavor::Std(Strategy::Cpu),
    Flavor::Std(Strategy::Hdn),
    Flavor::Std(Strategy::Gds),
    Flavor::Std(Strategy::GpuTn),
    Flavor::GpuHost,
    Flavor::GpuNative,
];
/// Seeded loss of the lossy pingpong cells (the NIC's ARQ path).
const PING_LOSS: f64 = 0.05;
/// Pingpong cells per pass: about 0.75 s, so a run makes some twenty
/// passes.
const PING_CELLS: u64 = 20_000;
/// 512-node dragonfly vector: 16 KB of f32. Small enough that three cells
/// fit a pass of under a second; the cell is still event- and
/// memory-bound (the per-channel eager mailboxes dominate its footprint).
const DRAGONFLY_ELEMS: u64 = 4 * 1024;
/// Ring Allreduce vector: 1 MB of f32 (Fig. 10 uses 8 MB; 1 MB keeps a
/// pass near a second and the 32-node cells payload-heavy).
const RING_ELEMS: u64 = 256 * 1024;
/// Serving trace horizon: 200 ms keeps a pass near 1.5 s while every cell
/// still overflows the 65,536-sample histogram reservoirs.
const SERVING_TRACE_NS: u64 = 200_000_000;

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 8 two-node runs, cycling the Table 1 flavors.
    PingpongCells,
    /// The Fig. 10 hand-rolled ring on the star.
    AllreduceRing,
    /// Halving-doubling on a 512-node dragonfly, generic executor.
    Dragonfly512,
    /// Open-loop multi-tenant serving.
    ServingOpenLoop,
}

impl Workload {
    /// Every workload, in the order the default run executes them.
    pub const ALL: [Workload; 4] = [
        Workload::PingpongCells,
        Workload::AllreduceRing,
        Workload::Dragonfly512,
        Workload::ServingOpenLoop,
    ];

    /// Name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PingpongCells => "pingpong_cells",
            Workload::AllreduceRing => "allreduce_ring",
            Workload::Dragonfly512 => "dragonfly_512",
            Workload::ServingOpenLoop => "serving_open_loop",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Percentile reported as `cell_us_tail`: the highest one with at
    /// least ten cells beyond it in a default-length run — except on
    /// pingpong, where p99.9 (and above) of a 40 µs cell reads the shared
    /// box's interrupts more than the simulator (quartile spread 9-36%
    /// over ten runs), so p99 stands in.
    pub fn tail_pct(self) -> f64 {
        match self {
            Workload::PingpongCells => 99.0,
            Workload::AllreduceRing | Workload::ServingOpenLoop => 90.0,
            Workload::Dragonfly512 => 80.0,
        }
    }

    /// The fixed cell list of one pass. The seed picks input vectors,
    /// loss patterns and arrival traces; it never changes how much work a
    /// pass holds, so runs with different seeds time the same work.
    pub fn cells(self, seed: u64, smoke: bool) -> Vec<Cell> {
        match self {
            Workload::PingpongCells => {
                let n = if smoke { 240 } else { PING_CELLS };
                (0..n)
                    .map(|i: u64| Cell::Ping {
                        flavor: FLAVORS[(i % 6) as usize],
                        // Every fourth round of the six flavors is lossy,
                        // so each flavor takes the ARQ path.
                        loss_seed: ((i / 6) % 4 == 3).then(|| mix(seed, i)),
                    })
                    .collect()
            }
            Workload::AllreduceRing => {
                let (nodes, elems): (&[u32], u64) = if smoke {
                    (&[4, 6, 8], 1024)
                } else {
                    (&[8, 16, 32], RING_ELEMS)
                };
                nodes
                    .iter()
                    .flat_map(|&nodes| {
                        Strategy::all().map(|strategy| Cell::Ring {
                            nodes,
                            elems,
                            strategy,
                            seed,
                        })
                    })
                    .collect()
            }
            Workload::Dragonfly512 => {
                let (nodes, elems) = if smoke {
                    (16, 256)
                } else {
                    (512, DRAGONFLY_ELEMS)
                };
                [Strategy::Hdn, Strategy::Gds, Strategy::GpuTn]
                    .into_iter()
                    .map(|strategy| Cell::Dragonfly {
                        nodes,
                        elems,
                        strategy,
                        seed,
                    })
                    .collect()
            }
            Workload::ServingOpenLoop => {
                let (tenants, horizon) = if smoke {
                    (200, 2_000_000)
                } else {
                    (2000, SERVING_TRACE_NS)
                };
                let mut cells = Vec::new();
                // Three load levels, so the median cell sits inside the
                // middle level rather than on the edge between two.
                for offered in [400_000, 800_000, 1_200_000] {
                    for process in [ArrivalProcess::Poisson, ArrivalProcess::Pareto] {
                        for strategy in Strategy::all() {
                            cells.push(Cell::Serve(Box::new(
                                ServingParams::new(strategy)
                                    .tenants(tenants)
                                    .duration_ns(horizon)
                                    .offered(offered)
                                    .process(process)
                                    .seed(seed),
                            )));
                        }
                    }
                }
                cells
            }
        }
    }
}

/// splitmix64 finalizer: derives per-cell seeds from the workload seed.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-sensitive 64-bit digest (FNV-1a over words).
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn digest_f32s<'a>(vectors: impl IntoIterator<Item = &'a [f32]>) -> u64 {
    digest(
        vectors
            .into_iter()
            .flat_map(|v| v.iter().map(|x| u64::from(x.to_bits()))),
    )
}

/// One simulation of a workload.
#[derive(Debug, Clone)]
pub enum Cell {
    /// `pingpong::try_run_flavor`, lossless or with seeded loss.
    Ping {
        /// Table 1 flavor.
        flavor: Flavor,
        /// Seed of the 5% loss pattern; `None` is lossless.
        loss_seed: Option<u64>,
    },
    /// `allreduce::try_run_with_config` on the star.
    Ring {
        /// Ranks.
        nodes: u32,
        /// f32 elements.
        elems: u64,
        /// Strategy.
        strategy: Strategy,
        /// Input seed.
        seed: u64,
    },
    /// `collective::try_run_with_config`, halving-doubling on a dragonfly.
    Dragonfly {
        /// Ranks.
        nodes: u32,
        /// f32 elements.
        elems: u64,
        /// Strategy.
        strategy: Strategy,
        /// Input seed.
        seed: u64,
    },
    /// `serving::try_run` (boxed: the params carry a whole `ConfigPatch`,
    /// which would otherwise size every pingpong cell).
    Serve(Box<ServingParams>),
}

/// A cell's raw result, alive only between the timed call and its check.
// One `Raw` lives at a time; boxing the large variants would add an
// allocation inside the timed call.
#[allow(clippy::large_enum_variant)]
pub enum Raw {
    /// Pingpong result.
    Ping(PingResult),
    /// Ring Allreduce result (node 0's vector; ranks were checked equal).
    Ring(AllreduceResult),
    /// Collective result (every rank's vector).
    Coll(CollectiveResult),
    /// Serving report.
    Serve(ServingReport),
}

/// The simulated cluster a cell ran on, as the layer probes replay it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Nodes.
    pub nodes: u32,
    /// Interconnect.
    pub topo: Topology,
    /// NIC trigger-list lookup.
    pub lookup: LookupKind,
}

impl Shape {
    fn star(nodes: u32, lookup: LookupKind) -> Shape {
        Shape {
            nodes,
            topo: Topology::Star,
            lookup,
        }
    }

    /// A cluster config of this shape (Table 2 defaults otherwise).
    pub fn config(self) -> ClusterConfig {
        let mut config = ClusterConfig::table2(self.nodes);
        config.fabric.topology = self.topo;
        config.nic.lookup = self.lookup;
        config
    }
}

/// One cluster simulation inside a cell (a serving cell runs two: its
/// calibration RPC and collective).
#[derive(Debug, Clone, Copy)]
pub struct SimRun {
    /// Where it ran.
    pub shape: Shape,
    /// Events the engine processed.
    pub events: u64,
    /// Messages the fabric carried.
    pub messages: u64,
}

/// Per-layer counters, summed over cells (`max_link_bytes` takes the max).
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub events: u64,
    pub messages: u64,
    pub wire_bytes: u64,
    pub max_link_bytes: u64,
    pub drops: u64,
    pub puts: u64,
    pub bytes_tx: u64,
    pub retransmits: u64,
    pub trigger_fires: u64,
    pub trigger_spills: u64,
    pub kernels: u64,
    pub trigger_stores: u64,
    pub poll_hits: u64,
    pub poll_retries: u64,
}

impl Counts {
    fn from_stats(s: &ClusterStats) -> Counts {
        Counts {
            events: s.counter_across("engine", "events_processed"),
            messages: s.counter_across("fabric", "messages_sent"),
            wire_bytes: s.counter_across("fabric", "wire_bytes"),
            max_link_bytes: s.counter_across("fabric", "max_link_bytes"),
            drops: s.counter_across("fabric", "drops"),
            puts: s.counter_across("nic", "puts_injected"),
            bytes_tx: s.counter_across("nic", "bytes_tx"),
            retransmits: s.counter_across("nic", "retransmits"),
            trigger_fires: s.counter_across("nic", "fired_at_trigger")
                + s.counter_across("nic", "fired_at_post"),
            trigger_spills: s.counter_across("nic", "trigger_spills"),
            kernels: s.counter_across("gpu", "kernels_completed"),
            trigger_stores: s.counter_across("gpu", "trigger_stores"),
            poll_hits: s.counter_across("cpu", "poll_hits"),
            poll_retries: s.counter_across("cpu", "poll_retries"),
        }
    }

    /// Fold another cell's counters in.
    pub fn add(&mut self, o: &Counts) {
        self.events += o.events;
        self.messages += o.messages;
        self.wire_bytes += o.wire_bytes;
        self.max_link_bytes = self.max_link_bytes.max(o.max_link_bytes);
        self.drops += o.drops;
        self.puts += o.puts;
        self.bytes_tx += o.bytes_tx;
        self.retransmits += o.retransmits;
        self.trigger_fires += o.trigger_fires;
        self.trigger_spills += o.trigger_spills;
        self.kernels += o.kernels;
        self.trigger_stores += o.trigger_stores;
        self.poll_hits += o.poll_hits;
        self.poll_retries += o.poll_retries;
    }
}

/// A verified cell reduced to scalars.
#[derive(Debug, Clone, Copy)]
pub struct CellOut {
    /// Simulated digest: completion time, events, retransmits and the
    /// output (vectors, or serving counts). Identical on every pass and
    /// every run with the same seed.
    pub digest: u64,
    /// Per-layer counters of the cell.
    pub counts: Counts,
    /// The cluster simulations the cell ran.
    pub sims: [Option<SimRun>; 2],
}

/// Expected-output digests, computed once per distinct input during
/// set-up so checking a cell hashes its output instead of replaying the
/// reference.
#[derive(Debug, Default)]
pub struct Refs(Vec<(RefKey, u64)>);

type RefKey = (bool, u32, u64, u64);

impl Refs {
    /// Digest the reference output of every distinct ring and dragonfly
    /// input among `cells`.
    pub fn build(cells: &[Cell]) -> Refs {
        let mut refs = Refs::default();
        for cell in cells {
            let Some(key) = cell.ref_key() else { continue };
            if refs.get(key).is_some() {
                continue;
            }
            let (dragonfly, nodes, elems, seed) = key;
            let d = if dragonfly {
                let expect = collective::reference(Collective::RhdAllreduce, nodes, elems, seed);
                digest_f32s(expect.iter().map(Vec::as_slice))
            } else {
                digest_f32s([allreduce::reference(nodes, elems, seed).as_slice()])
            };
            refs.0.push((key, d));
        }
        refs
    }

    fn get(&self, key: RefKey) -> Option<u64> {
        self.0.iter().find(|(k, _)| *k == key).map(|&(_, d)| d)
    }
}

impl Cell {
    fn ref_key(&self) -> Option<RefKey> {
        match *self {
            Cell::Ring {
                nodes, elems, seed, ..
            } => Some((false, nodes, elems, seed)),
            Cell::Dragonfly {
                nodes, elems, seed, ..
            } => Some((true, nodes, elems, seed)),
            Cell::Ping { .. } | Cell::Serve(_) => None,
        }
    }

    /// Run the cell's simulation: the timed call.
    pub fn simulate(&self) -> Result<Raw, JobFailure> {
        match *self {
            Cell::Ping { flavor, loss_seed } => {
                let patch =
                    loss_seed.map_or(ConfigPatch::NONE, |s| ConfigPatch::loss(s, PING_LOSS));
                pingpong::try_run_flavor(flavor, patch).map(Raw::Ping)
            }
            Cell::Ring {
                nodes,
                elems,
                strategy,
                seed,
            } => allreduce::try_run_with_config(
                AllreduceParams::new(nodes, elems, strategy, seed),
                |_| {},
            )
            .map(Raw::Ring),
            Cell::Dragonfly {
                nodes,
                elems,
                strategy,
                seed,
            } => {
                let topo = Topology::dragonfly_for(nodes as usize);
                collective::try_run_with_config(
                    "dragonfly_512",
                    Collective::RhdAllreduce,
                    CollectiveParams {
                        nodes,
                        elems,
                        strategy,
                        seed,
                    },
                    |config| config.fabric.topology = topo,
                )
                .map(Raw::Coll)
            }
            Cell::Serve(ref params) => serving::try_run(params).map(Raw::Serve),
        }
    }

    /// Verify `raw` against the workload's reference, reduce it to
    /// scalars, and drop it.
    pub fn check(&self, raw: Raw, refs: &Refs) -> Result<CellOut, String> {
        let expected = |key: Option<RefKey>| {
            key.and_then(|k| refs.get(k))
                .ok_or("no reference digest for this cell")
        };
        match (self, raw) {
            (Cell::Ping { flavor, loss_seed }, Raw::Ping(r)) => {
                // The payload itself is asserted inside the run.
                if loss_seed.is_none() && r.delivered_intra_kernel() != flavor.intra_kernel() {
                    return Err(format!(
                        "{}: intra-kernel delivery {}",
                        flavor.name(),
                        r.delivered_intra_kernel()
                    ));
                }
                let counts = Counts::from_stats(&r.scenario.stats);
                let shape = Shape::star(2, NicConfig::default().lookup);
                Ok(CellOut {
                    digest: digest([
                        r.target_completion.as_ps(),
                        counts.events,
                        r.scenario.retransmits,
                    ]),
                    counts,
                    sims: [Some(sim(shape, &counts)), None],
                })
            }
            (
                &Cell::Ring {
                    nodes, strategy, ..
                },
                Raw::Ring(r),
            ) => {
                let out = digest_f32s([r.result.as_slice()]);
                if out != expected(self.ref_key())? {
                    return Err(format!(
                        "{strategy} ring on {nodes} ranks diverges from allreduce::reference"
                    ));
                }
                let counts = Counts::from_stats(&r.scenario.stats);
                Ok(CellOut {
                    digest: digest([
                        r.scenario.total.as_ps(),
                        counts.events,
                        r.scenario.retransmits,
                        out,
                    ]),
                    counts,
                    sims: [
                        Some(sim(Shape::star(nodes, LookupKind::HashTable), &counts)),
                        None,
                    ],
                })
            }
            (
                &Cell::Dragonfly {
                    nodes, strategy, ..
                },
                Raw::Coll(r),
            ) => {
                let out = digest_f32s(r.vectors.iter().map(Vec::as_slice));
                if out != expected(self.ref_key())? {
                    return Err(format!(
                        "{strategy} halving-doubling diverges from collective::reference"
                    ));
                }
                let counts = Counts::from_stats(&r.scenario.stats);
                let shape = Shape {
                    nodes,
                    topo: Topology::dragonfly_for(nodes as usize),
                    lookup: LookupKind::HashTable,
                };
                Ok(CellOut {
                    digest: digest([
                        r.scenario.total.as_ps(),
                        counts.events,
                        r.scenario.retransmits,
                        out,
                    ]),
                    counts,
                    sims: [Some(sim(shape, &counts)), None],
                })
            }
            (Cell::Serve(p), Raw::Serve(r)) => {
                if !r.conserved() || r.offered == 0 {
                    return Err(format!(
                        "{} serving: offered {} != completed {} + shed {} + failed {}",
                        p.strategy,
                        r.offered,
                        r.completed,
                        r.shed(),
                        r.failed
                    ));
                }
                let mut counts = Counts::from_stats(&r.stats);
                // The serving NIC's own partitioned trigger list: every job
                // that entered service fired one entry.
                counts.trigger_fires += r.completed + r.failed;
                counts.trigger_spills += r.spills;
                let calib = |ns: &str, shape: Shape| SimRun {
                    shape,
                    events: r.stats.counter(&format!("{ns}.engine"), "events_processed"),
                    messages: r.stats.counter(&format!("{ns}.fabric"), "messages_sent"),
                };
                Ok(CellOut {
                    digest: digest([
                        r.makespan_ps,
                        counts.events,
                        r.offered,
                        r.completed,
                        r.shed(),
                        r.failed,
                        r.percentile_ps(99.9),
                    ]),
                    counts,
                    sims: [
                        Some(calib(
                            "calib_rpc",
                            Shape::star(2, NicConfig::default().lookup),
                        )),
                        Some(calib("calib_coll", Shape::star(4, LookupKind::HashTable))),
                    ],
                })
            }
            _ => Err("result kind does not match the cell".into()),
        }
    }
}

fn sim(shape: Shape, counts: &Counts) -> SimRun {
    SimRun {
        shape,
        events: counts.events,
        messages: counts.messages,
    }
}
