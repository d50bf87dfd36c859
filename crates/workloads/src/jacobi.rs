//! 2-D Jacobi relaxation with halo exchange (Fig. 9, §5.3).
//!
//! An `R×C` grid of nodes each owns an `N×N` interior (stored with a ghost
//! ring). Every iteration: pack boundary edges into send buffers, exchange
//! with up to four neighbours, scatter into ghosts, sweep
//! (`new = 0.25·((up+down)+(left+right))`). The global boundary is
//! Dirichlet zero. The paper's figure uses a fixed decomposition and sweeps
//! the local size; the generalized decomposition here additionally enables
//! the strong/weak-scaling studies §5.3 describes ("when strong scaling
//! Jacobi, one would move 'left' on the graph, while weak scaling would
//! stay at the same point") — see the `ext_jacobi_scaling` bench.
//!
//! Strategy mapping, exactly as §5.3 describes:
//! - **CPU** — OpenMP-style sweeps, MPI halo exchange.
//! - **HDN** — "exiting the kernel and returning to the host for MPI
//!   send/receives after every round": a sweep kernel per iteration, CPU
//!   messaging between kernels.
//! - **GDS** — communication pre-registered; the GPU front-end rings the
//!   doorbell at each kernel boundary; still a kernel per iteration.
//! - **GPU-TN** — "a single kernel for the entire duration of the
//!   program": one persistent kernel packs, triggers puts mid-kernel,
//!   polls for the neighbours' halos, and sweeps — across all iterations.
//!
//! Functional correctness is checked bit-exactly against a sequential
//! sweep of the assembled `(R·N)×(C·N)` global grid.

use crate::harness::{Harness, JobFailure, ScenarioParams, ScenarioResult, Workload};
use gtn_core::config::ClusterConfig;
use gtn_core::Strategy;
use gtn_gpu::kernel::ProgramBuilder;
use gtn_gpu::{KernelLaunch, WgCtx};
use gtn_host::compute::CpuCompute;
use gtn_host::mpi::MpiWorld;
use gtn_host::HostProgram;
use gtn_mem::latency::MemHierarchy;
use gtn_mem::scope::{MemOrdering, MemScope};
use gtn_mem::{Addr, MemPool, NodeId};
use gtn_nic::lookup::LookupKind;
use gtn_nic::nic::NicCommand;
use gtn_nic::op::{NetOp, Notify};
use gtn_nic::Tag;
use gtn_sim::rng::SimRng;
use gtn_sim::time::SimDuration;

/// Halo directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Toward row − 1.
    North = 0,
    /// Toward row + 1.
    South = 1,
    /// Toward col − 1.
    West = 2,
    /// Toward col + 1.
    East = 3,
}

impl Dir {
    /// All four directions.
    pub const ALL: [Dir; 4] = [Dir::North, Dir::South, Dir::West, Dir::East];

    /// The direction a message sent toward `self` arrives *from* at the
    /// receiver (N↔S, W↔E: flip the low bit).
    pub fn opposite(self) -> Dir {
        Dir::ALL[self as usize ^ 1]
    }
}

/// Parameters of one Jacobi run.
#[derive(Debug, Clone, Copy)]
pub struct JacobiParams {
    /// Node-grid rows.
    pub rows: u32,
    /// Node-grid columns.
    pub cols: u32,
    /// Local grid edge (the Fig. 9 x-axis: N×N per node).
    pub n_local: u32,
    /// Iterations (sweeps). Fig. 9 reports per-iteration time.
    pub iters: u32,
    /// Strategy.
    pub strategy: Strategy,
    /// RNG seed for the initial grid.
    pub seed: u64,
}

impl JacobiParams {
    /// Assemble params field-by-field.
    #[rustfmt::skip]
    pub fn new(rows: u32, cols: u32, n_local: u32, iters: u32, strategy: Strategy, seed: u64) -> Self {
        JacobiParams { rows, cols, n_local, iters, strategy, seed }
    }

    /// The paper's figure configuration: 4 nodes in a 2×2 decomposition.
    pub fn square4(n_local: u32, iters: u32, strategy: Strategy, seed: u64) -> Self {
        Self::new(2, 2, n_local, iters, strategy, seed)
    }

    /// Total nodes.
    pub fn nodes(&self) -> u32 {
        self.rows * self.cols
    }
}

/// Result of one run.
#[derive(Debug)]
pub struct JacobiResult {
    /// The unified result; its `size` is the local grid edge and its
    /// `per_iter` is the Fig. 9 quantity.
    pub scenario: ScenarioResult,
    /// Final interior values per node, row-major `n_local × n_local`.
    pub interiors: Vec<Vec<f32>>,
}

/// Per-node memory layout: ghosted grid, scratch, and per-direction
/// send/stage/flag buffers.
///
/// Stage buffers are *double-buffered* by arrival parity: with the one-sided
/// strategies (GDS, GPU-TN) a neighbour's next halo put can land while this
/// node is still scattering the previous one — the flag-poll dependency
/// chain only guarantees that arrivals **two** apart never overlap, so two
/// slots per direction make the reuse race-free under any timing skew
/// (e.g. a retransmit delaying one neighbour while another runs ahead).
/// The MPI strategies copy out synchronously at recv time and only ever use
/// slot 0.
#[derive(Debug, Clone)]
struct NodeBufs {
    grid: Addr,
    scratch: Addr,
    send: [Addr; 4],
    stage: [[Addr; 2]; 4],
    flag: [Addr; 4],
    comp: Addr,
}

const SEND_LABELS: [&str; 4] = [
    "jacobi.send_n",
    "jacobi.send_s",
    "jacobi.send_w",
    "jacobi.send_e",
];
const STAGE_LABELS: [[&str; 2]; 4] = [
    ["jacobi.stage_n0", "jacobi.stage_n1"],
    ["jacobi.stage_s0", "jacobi.stage_s1"],
    ["jacobi.stage_w0", "jacobi.stage_w1"],
    ["jacobi.stage_e0", "jacobi.stage_e1"],
];
const FLAG_LABELS: [&str; 4] = [
    "jacobi.flag_n",
    "jacobi.flag_s",
    "jacobi.flag_w",
    "jacobi.flag_e",
];

fn alloc_node(mem: &mut MemPool, node: u32, n: u64) -> NodeBufs {
    let id = NodeId(node);
    let cells = (n + 2) * (n + 2) * 4;
    fn edge(mem: &mut MemPool, id: NodeId, n: u64, label: &'static str) -> Addr {
        Addr::base(id, mem.alloc(id, n * 4, label))
    }
    let send = std::array::from_fn(|d| edge(mem, id, n, SEND_LABELS[d]));
    let stage = std::array::from_fn(|d| STAGE_LABELS[d].map(|l| edge(mem, id, n, l)));
    let flag = std::array::from_fn(|d| Addr::base(id, mem.alloc(id, 8, FLAG_LABELS[d])));
    NodeBufs {
        grid: Addr::base(id, mem.alloc(id, cells, "jacobi.grid")),
        scratch: Addr::base(id, mem.alloc(id, cells, "jacobi.scratch")),
        send,
        stage,
        flag,
        comp: Addr::base(id, mem.alloc(id, 8, "jacobi.comp")),
    }
}

/// Byte offset of ghosted-grid cell (row, col).
fn gidx(n: u64, row: u64, col: u64) -> u64 {
    (row * (n + 2) + col) * 4
}

/// Initial interior value at *global* cell (gr, gc): deterministic in the
/// seed, independent of the decomposition.
fn init_value(seed: u64, gr: u64, gc: u64) -> f32 {
    let mut rng = SimRng::seeded(seed ^ (gr << 20) ^ gc);
    rng.range_f32(-1.0, 1.0)
}

/// The neighbours of node (r, c) in an R×C grid, as (direction, peer id).
fn neighbors(r: u32, c: u32, rows: u32, cols: u32) -> Vec<(Dir, u32)> {
    let mut out = Vec::with_capacity(4);
    if r > 0 {
        out.push((Dir::North, (r - 1) * cols + c));
    }
    if r + 1 < rows {
        out.push((Dir::South, (r + 1) * cols + c));
    }
    if c > 0 {
        out.push((Dir::West, r * cols + (c - 1)));
    }
    if c + 1 < cols {
        out.push((Dir::East, r * cols + (c + 1)));
    }
    out
}

/// The functional sweep: relax into scratch, copy back. Arithmetic order
/// fixed for bit-exact comparison with the reference.
fn sweep(mem: &mut MemPool, grid: Addr, scratch: Addr, n: u64) {
    for row in 1..=n {
        for col in 1..=n {
            let up = mem.read_f32(grid.offset_by(gidx(n, row - 1, col)));
            let down = mem.read_f32(grid.offset_by(gidx(n, row + 1, col)));
            let left = mem.read_f32(grid.offset_by(gidx(n, row, col - 1)));
            let right = mem.read_f32(grid.offset_by(gidx(n, row, col + 1)));
            let v = 0.25 * ((up + down) + (left + right));
            mem.write_f32(scratch.offset_by(gidx(n, row, col)), v);
        }
    }
    for row in 1..=n {
        for col in 1..=n {
            let v = mem.read_f32(scratch.offset_by(gidx(n, row, col)));
            mem.write_f32(grid.offset_by(gidx(n, row, col)), v);
        }
    }
}

/// The two edge moves, unified over direction geometry: with `slot:
/// None`, pack the interior edge facing `dir` into that direction's send
/// buffer; with `Some(slot)`, scatter the halo that arrived *from* `dir`
/// (staged in parity `slot`) into the ghost ring.
fn edge_copy(mem: &mut MemPool, b: &NodeBufs, dir: Dir, slot: Option<usize>, n: u64) {
    // Packing reads the interior edge line (1 / n); scattering writes the
    // ghost line (0 / n+1).
    let line = match (slot, matches!(dir, Dir::North | Dir::West)) {
        (None, true) => 1,
        (None, false) => n,
        (Some(_), true) => 0,
        (Some(_), false) => n + 1,
    };
    for i in 1..=n {
        let cell = if matches!(dir, Dir::North | Dir::South) {
            gidx(n, line, i)
        } else {
            gidx(n, i, line)
        };
        match slot {
            None => {
                let v = mem.read_f32(b.grid.offset_by(cell));
                mem.write_f32(b.send[dir as usize].offset_by((i - 1) * 4), v);
            }
            Some(s) => {
                let v = mem.read_f32(b.stage[dir as usize][s].offset_by((i - 1) * 4));
                mem.write_f32(b.grid.offset_by(cell), v);
            }
        }
    }
}

/// GPU sweep time: bandwidth-bound on the shared DDR4 (~12 B/cell
/// effective traffic) plus a small fixed phase cost.
fn gpu_sweep_time(n: u64) -> SimDuration {
    MemHierarchy::table2_gpu().sweep_time(12 * n * n) + SimDuration::from_ns(200)
}

/// CPU sweep time: same roofline, worse reuse (~15 B/cell) plus fork/join.
fn cpu_sweep_time(cpu: &CpuCompute, n: u64) -> SimDuration {
    cpu.elementwise(n * n, 5, 15)
}

/// Pack/scatter cost for `k` edges of N f32.
fn edge_time(n: u64, k: u64) -> SimDuration {
    SimDuration::from_ns(100) + MemHierarchy::table2_gpu().sweep_time(k * 4 * n)
}

/// The put a node issues toward `dir` each exchange, landing in the peer's
/// parity-`slot` stage buffer.
fn put_for(
    b: &NodeBufs,
    peer_bufs: &NodeBufs,
    dir: Dir,
    peer: u32,
    slot: usize,
    n: u64,
    comp: Option<Addr>,
) -> NetOp {
    let from = dir.opposite() as usize;
    NetOp::Put {
        src: b.send[dir as usize],
        len: n * 4,
        target: NodeId(peer),
        dst: peer_bufs.stage[from][slot],
        notify: Some(Notify {
            flag: peer_bufs.flag[from],
            add: 1,
            chain: None,
        }),
        completion: comp,
    }
}

/// Run one configuration with the default (lossless) cluster config.
pub fn run(params: JacobiParams) -> JacobiResult {
    run_with_config(params, |_| {})
}

/// Run one configuration, applying `mutate` to the cluster config after the
/// workload's defaults are set. The fault-tolerance studies use this to
/// inject seeded loss and enable the NIC reliability layer without
/// disturbing the lossless default path.
pub fn run_with_config(
    params: JacobiParams,
    mutate: impl FnOnce(&mut ClusterConfig),
) -> JacobiResult {
    run_inner(params, None, mutate)
        .unwrap_or_else(|failure| panic!("jacobi did not complete\n{failure}"))
}

/// [`run_with_config`] with structured failure: a run the failure detector
/// or watchdog terminated comes back as `Err(JobFailure)`.
pub fn try_run_with_config(
    params: JacobiParams,
    mutate: impl FnOnce(&mut ClusterConfig),
) -> Result<JacobiResult, JobFailure> {
    run_inner(params, None, mutate)
}

/// Restart from a checkpoint: seed every node's interior from
/// `initial` (per-node row-major `n_local × n_local`, as
/// [`JacobiResult::interiors`] reports them) instead of the seeded initial
/// grid, then run `params.iters` further sweeps. The checkpoint-restart
/// recovery policy re-runs the remaining iterations through here.
pub fn run_from_checkpoint(
    params: JacobiParams,
    initial: &[Vec<f32>],
    mutate: impl FnOnce(&mut ClusterConfig),
) -> Result<JacobiResult, JobFailure> {
    run_inner(params, Some(initial), mutate)
}

fn run_inner(
    params: JacobiParams,
    initial: Option<&[Vec<f32>]>,
    mutate: impl FnOnce(&mut ClusterConfig),
) -> Result<JacobiResult, JobFailure> {
    let n = params.n_local as u64;
    let nodes = params.nodes();
    assert!(n >= 2, "grid too small");
    assert!(params.iters >= 1);
    assert!(nodes >= 2, "need at least two nodes for an exchange");

    let mut config = ClusterConfig::table2(nodes);
    config.log_events = false;
    // GDS pre-posts an iteration ahead and multi-iteration runs cycle many
    // tags; the hash lookup removes the associative capacity ceiling
    // (§3.3) without changing functional behaviour.
    config.nic.lookup = LookupKind::HashTable;
    mutate(&mut config);

    let mut mem = MemPool::new(nodes as usize);
    let bufs: Vec<NodeBufs> = (0..nodes).map(|nd| alloc_node(&mut mem, nd, n)).collect();
    if let Some(init) = initial {
        assert_eq!(init.len(), nodes as usize, "one interior per node");
    }
    for nd in 0..nodes {
        let (r, c) = (nd / params.cols, nd % params.cols);
        for row in 1..=n {
            for col in 1..=n {
                let v = match initial {
                    Some(init) => init[nd as usize][((row - 1) * n + (col - 1)) as usize],
                    None => {
                        let gr = r as u64 * n + (row - 1);
                        let gc = c as u64 * n + (col - 1);
                        init_value(params.seed, gr, gc)
                    }
                };
                mem.write_f32(bufs[nd as usize].grid.offset_by(gidx(n, row, col)), v);
            }
        }
    }

    // CPU/HDN exchange halos over MPI: one channel per neighbour pair,
    // with eager buffers for one edge per iteration.
    let mut world = matches!(params.strategy, Strategy::Cpu | Strategy::Hdn).then(|| {
        let mut messages = Vec::new();
        for node in 0..nodes {
            for (_, peer) in neighbors(
                node / params.cols,
                node % params.cols,
                params.rows,
                params.cols,
            ) {
                messages.extend((0..params.iters).map(|_| (node, peer, n * 4)));
            }
        }
        MpiWorld::new(&mut mem, n * 4, &messages)
    });
    let cpu_model = CpuCompute::new(config.host.clone());

    let mut programs: Vec<HostProgram> = Vec::with_capacity(nodes as usize);

    for node in 0..nodes {
        let b = bufs[node as usize].clone();
        let (r, c) = (node / params.cols, node % params.cols);
        let nbrs = neighbors(r, c, params.rows, params.cols);
        let deg = nbrs.len() as u64;
        // Tag space: iter * 4 + dir, unique per (node-local) direction.
        let tag_of = |iter: u32, dir: Dir| Tag((iter * 4 + dir as u32) as u64);
        // One kernel fragment moving every neighbour edge at once: pack
        // (`None`) or scatter from parity `slot`.
        let edges_fragment = |slot: Option<usize>| {
            let bb = b.clone();
            let nb = nbrs.clone();
            move |mem: &mut MemPool, _: &WgCtx| {
                for &(dir, _) in &nb {
                    edge_copy(mem, &bb, dir, slot, n);
                }
            }
        };
        // The host-side mirror of `edges_fragment`: the CPU pays the same
        // edge-move cost, one host func per neighbour direction.
        let host_edges = |p: &mut HostProgram, slot: Option<usize>| {
            p.compute(edge_time(n, deg));
            for &(dir, _) in &nbrs {
                let bb = b.clone();
                p.func(move |mem| edge_copy(mem, &bb, dir, slot, n));
            }
        };
        // Register every neighbour's put for exchange `iter` (arrival
        // iter + 1 at the peer → parity slot (iter + 1) % 2), optionally
        // with a local completion for just-in-time throttling.
        let register_exchange = |p: &mut HostProgram, iter: u32, comp: Option<Addr>| {
            for &(dir, peer) in &nbrs {
                let slot = ((iter + 1) % 2) as usize;
                p.nic_post(NicCommand::TriggeredPut {
                    tag: tag_of(iter, dir),
                    threshold: 1,
                    op: put_for(&b, &bufs[peer as usize], dir, peer, slot, n, comp),
                });
            }
        };

        let mut p = HostProgram::new();
        match params.strategy {
            Strategy::Cpu | Strategy::Hdn => {
                let world = world.as_mut().expect("two-sided strategies build a world");
                for iter in 0..params.iters {
                    host_edges(&mut p, None);
                    for &(dir, peer) in &nbrs {
                        p.extend(world.send_ops(
                            NodeId(node),
                            NodeId(peer),
                            b.send[dir as usize],
                            n * 4,
                        ));
                    }
                    for &(dir, peer) in &nbrs {
                        p.extend(world.recv_ops(
                            &config.host,
                            NodeId(peer),
                            NodeId(node),
                            b.stage[dir as usize][0],
                            n * 4,
                        ));
                    }
                    host_edges(&mut p, Some(0));
                    if params.strategy == Strategy::Cpu {
                        p.compute(cpu_sweep_time(&cpu_model, n));
                        let bb = b.clone();
                        p.func(move |mem| sweep(mem, bb.grid, bb.scratch, n));
                    } else {
                        let label = format!("sweep{iter}");
                        let bb = b.clone();
                        let kernel = ProgramBuilder::new()
                            .compute(gpu_sweep_time(n))
                            .func(move |mem, _| sweep(mem, bb.grid, bb.scratch, n))
                            .build()
                            .expect("valid kernel");
                        p.launch(KernelLaunch::new(kernel, 1, 64, &label));
                        p.wait_kernel(&label);
                    }
                }
            }
            Strategy::Gds => {
                // Exchange e_0 moves the initial edges: CPU packs and posts
                // directly, so GDS launches one kernel per iteration.
                host_edges(&mut p, None);
                for &(dir, peer) in &nbrs {
                    // The initial exchange is arrival 1 -> slot 1.
                    let put = put_for(&b, &bufs[peer as usize], dir, peer, 1, n, None);
                    p.nic_post(NicCommand::Put(put));
                }
                for iter in 1..=params.iters {
                    let last = iter == params.iters;
                    if !last {
                        // Arrival a lands in stage slot a % 2; the put the
                        // k{iter} doorbell fires is arrival iter + 1.
                        register_exchange(&mut p, iter, None);
                    }
                    for &(dir, _) in &nbrs {
                        p.poll(b.flag[dir as usize], iter as u64);
                    }
                    let label = format!("k{iter}");
                    // k{iter} consumes arrival `iter` from slot iter % 2.
                    let bb = b.clone();
                    let mut builder = ProgramBuilder::new()
                        .compute(edge_time(n, deg))
                        .func(edges_fragment(Some((iter % 2) as usize)))
                        .compute(gpu_sweep_time(n))
                        .func(move |mem, _| sweep(mem, bb.grid, bb.scratch, n));
                    if !last {
                        builder = builder
                            .compute(edge_time(n, deg))
                            .func(edges_fragment(None))
                            .fence(MemScope::System, MemOrdering::Release);
                    }
                    let mut kernel =
                        KernelLaunch::new(builder.build().expect("valid"), 1, 64, &label);
                    if !last {
                        // The boundary doorbell fires exchange `iter`.
                        kernel =
                            kernel.ring_on_done(nbrs.iter().map(|&(dir, _)| tag_of(iter, dir)));
                    }
                    p.launch(kernel);
                    p.wait_kernel(&label);
                }
            }
            Strategy::GpuTn => {
                let mut builder = ProgramBuilder::new();
                for iter in 0..params.iters {
                    let it64 = iter as u64;
                    builder = builder
                        .compute(edge_time(n, deg))
                        .func(edges_fragment(None));
                    let tags: Vec<Tag> = nbrs.iter().map(|&(dir, _)| tag_of(iter, dir)).collect();
                    builder = builder.release_triggers(&tags);
                    for &(dir, _) in &nbrs {
                        let flag = b.flag[dir as usize];
                        builder = builder.poll(move |_| flag, it64 + 1);
                    }
                    // Kernel-iteration `iter` consumes arrival iter + 1,
                    // staged in slot (iter + 1) % 2.
                    let bb = b.clone();
                    builder = builder
                        .compute(edge_time(n, deg))
                        .func(edges_fragment(Some(((iter + 1) % 2) as usize)))
                        .compute(gpu_sweep_time(n))
                        .func(move |mem, _| sweep(mem, bb.grid, bb.scratch, n));
                }
                let kernel = builder.build().expect("valid persistent kernel");
                p.launch(KernelLaunch::new(kernel, 1, 64, "persistent"));
                // Just-in-time posting, throttled by local completions.
                for iter in 0..params.iters {
                    register_exchange(&mut p, iter, Some(b.comp));
                    p.poll(b.comp, deg * (iter as u64 + 1));
                }
                p.wait_kernel("persistent");
            }
        }
        programs.push(p);
    }

    let sparams = ScenarioParams::new(params.strategy)
        .grid(params.rows, params.cols)
        .size(params.n_local as u64)
        .iters(params.iters)
        .seed(params.seed);
    let (cluster, scenario) = Harness::try_execute("jacobi", &sparams, config, mem, programs)?;

    let interiors = (0..nodes)
        .map(|nd| {
            let b = &bufs[nd as usize];
            let mut out = Vec::with_capacity((n * n) as usize);
            for row in 1..=n {
                for col in 1..=n {
                    out.push(cluster.mem().read_f32(b.grid.offset_by(gidx(n, row, col))));
                }
            }
            out
        })
        .collect();
    Ok(JacobiResult {
        scenario,
        interiors,
    })
}

/// Fig. 9's workload, adapted to the shared [`Workload`] frame.
#[derive(Debug, Default)]
pub struct Jacobi;

impl Workload for Jacobi {
    fn name(&self) -> &'static str {
        "jacobi"
    }

    fn smoke_scenario(&self, strategy: Strategy) -> ScenarioParams {
        // The Fig. 9 decomposition at a medium local size.
        ScenarioParams::new(strategy)
            .grid(2, 2)
            .size(64)
            .iters(4)
            .seed(0xA11CE)
    }

    fn verify(&self, params: &ScenarioParams) -> Result<ScenarioResult, String> {
        let patch = params.patch;
        let r = run_with_config(
            JacobiParams {
                rows: params.rows,
                cols: params.cols,
                n_local: params.size as u32,
                iters: params.iters,
                strategy: params.strategy,
                seed: params.seed,
            },
            |config| patch.apply(config),
        );
        let expect = reference(
            params.rows,
            params.cols,
            params.size as u32,
            params.iters,
            params.seed,
        );
        if r.interiors != expect {
            return Err(format!(
                "{} diverges from the sequential sweep",
                params.strategy
            ));
        }
        Ok(r.scenario)
    }

    fn run_lenient(&self, params: &ScenarioParams) -> Result<ScenarioResult, JobFailure> {
        let patch = params.patch;
        let r = try_run_with_config(
            JacobiParams {
                rows: params.rows,
                cols: params.cols,
                n_local: params.size as u32,
                iters: params.iters,
                strategy: params.strategy,
                seed: params.seed,
            },
            |config| patch.apply(config),
        )?;
        // A run that completed must still be correct — chaos scenarios may
        // fail, they may not corrupt.
        let expect = reference(
            params.rows,
            params.cols,
            params.size as u32,
            params.iters,
            params.seed,
        );
        assert_eq!(r.interiors, expect, "completed jacobi run diverges");
        Ok(r.scenario)
    }
}

/// Sequential reference: sweep the assembled `(R·N)×(C·N)` global grid and
/// return per-node interiors in node order.
pub fn reference(rows: u32, cols: u32, n_local: u32, iters: u32, seed: u64) -> Vec<Vec<f32>> {
    let n = n_local as u64;
    let gr_max = rows as u64 * n;
    let gc_max = cols as u64 * n;
    let stride = gc_max + 2;
    let mut a = vec![0f32; ((gr_max + 2) * stride) as usize];
    let mut s = vec![0f32; ((gr_max + 2) * stride) as usize];
    for gr in 0..gr_max {
        for gc in 0..gc_max {
            a[((gr + 1) * stride + gc + 1) as usize] = init_value(seed, gr, gc);
        }
    }
    for _ in 0..iters {
        for gr in 1..=gr_max {
            for gc in 1..=gc_max {
                let up = a[((gr - 1) * stride + gc) as usize];
                let down = a[((gr + 1) * stride + gc) as usize];
                let left = a[(gr * stride + gc - 1) as usize];
                let right = a[(gr * stride + gc + 1) as usize];
                s[(gr * stride + gc) as usize] = 0.25 * ((up + down) + (left + right));
            }
        }
        for gr in 1..=gr_max {
            for gc in 1..=gc_max {
                a[(gr * stride + gc) as usize] = s[(gr * stride + gc) as usize];
            }
        }
    }
    (0..rows * cols)
        .map(|node| {
            let (r, c) = (node / cols, node % cols);
            let mut out = Vec::with_capacity((n * n) as usize);
            for row in 0..n {
                for col in 0..n {
                    let gr = r as u64 * n + row + 1;
                    let gc = c as u64 * n + col + 1;
                    out.push(a[(gr * stride + gc) as usize]);
                }
            }
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(strategy: Strategy, n: u32, iters: u32) -> JacobiParams {
        JacobiParams::square4(n, iters, strategy, 0xA11CE)
    }

    #[test]
    fn non_square_decompositions_match_reference() {
        // 1×2 (one neighbour each), 2×3 (mixed degrees incl. 4-neighbour
        // interior-free shapes), 3×3 (a true 4-neighbour centre node).
        for (rows, cols) in [(1u32, 2u32), (2, 3), (3, 3)] {
            let expect = reference(rows, cols, 6, 2, 42);
            for strategy in [Strategy::Hdn, Strategy::GpuTn, Strategy::Gds] {
                let r = run(JacobiParams::new(rows, cols, 6, 2, strategy, 42));
                assert_eq!(r.interiors, expect, "{strategy} {rows}x{cols}");
            }
        }
    }

    #[test]
    fn single_iteration_matches_reference_too() {
        let reference = reference(2, 2, 16, 1, 7);
        for strategy in [Strategy::Hdn, Strategy::GpuTn] {
            let r = run(JacobiParams::square4(16, 1, strategy, 7));
            assert_eq!(r.interiors, reference, "{strategy}");
        }
    }

    #[test]
    fn cpu_wins_small_grids_loses_large_ones() {
        let small_cpu = run(params(Strategy::Cpu, 16, 2)).scenario.per_iter;
        let small_hdn = run(params(Strategy::Hdn, 16, 2)).scenario.per_iter;
        assert!(small_cpu < small_hdn, "cpu {small_cpu} hdn {small_hdn}");
        let large_cpu = run(params(Strategy::Cpu, 512, 2)).scenario.per_iter;
        let large_hdn = run(params(Strategy::Hdn, 512, 2)).scenario.per_iter;
        assert!(large_cpu > large_hdn, "cpu {large_cpu} hdn {large_hdn}");
    }

    #[test]
    fn advantage_shrinks_as_grids_grow() {
        let pi = |s, n| run(params(s, n, 2)).scenario.per_iter.as_ns_f64();
        let ratio = |n: u32| pi(Strategy::Hdn, n) / pi(Strategy::GpuTn, n);
        let small = ratio(32);
        let large = ratio(512);
        assert!(small > large, "small {small} large {large}");
        assert!(large < 1.35, "should converge toward 1.0: {large}");
        assert!(large >= 1.0, "GPU-TN never loses: {large}");
    }

    #[test]
    fn weak_scaling_keeps_per_iteration_time_flat() {
        // §5.3: "weak scaling would stay at the same point" — fixed local
        // N, growing node grid: per-iteration time barely moves.
        let t = |rows, cols| {
            run(JacobiParams::new(rows, cols, 64, 3, Strategy::GpuTn, 1))
                .scenario
                .per_iter
                .as_us_f64()
        };
        let small = t(1, 2);
        let large = t(3, 3);
        assert!(
            large < small * 1.8,
            "weak scaling should stay near-flat: {small} -> {large}"
        );
    }

    #[test]
    fn neighbor_degrees_are_correct() {
        // 3×3: corners 2, edges 3, centre 4.
        let deg = |r, c| neighbors(r, c, 3, 3).len();
        assert_eq!(deg(0, 0), 2);
        assert_eq!(deg(0, 1), 3);
        assert_eq!(deg(1, 1), 4);
        assert_eq!(deg(2, 2), 2);
        // Opposites pair up.
        for d in Dir::ALL {
            assert_eq!(d.opposite().opposite(), d);
        }
    }
}
