//! Open-loop "production serving" workload with SLO percentiles.
//!
//! Every other workload here is closed-loop: it iterates, waits, and
//! verifies. Production serving is the opposite regime — thousands of
//! tenants offer small independent jobs (pingpong-style RPCs and small
//! collectives) at a rate that does *not* slow down when the cluster
//! saturates. The figure of merit is the tail: p50/p99/p99.9 sojourn
//! latency and goodput versus offered load, per strategy.
//!
//! ### How it is simulated
//!
//! The arrival side is an **arrival stream** ([`ArrivalStream`]):
//! per-tenant seeded streams ([`gtn_sim::rng::SimRng::fork`], one fork
//! per tenant so the arrivals of tenant *k* never change when tenants are
//! added) draw interarrival gaps from a Poisson (exponential) or
//! heavy-tailed bounded-Pareto process, streamed in time order. Each
//! tenant holds only its next arrival, waiting on the list of the time
//! window that arrival falls in, so the stream never stores or sorts the
//! trace: its memory is O(tenants) (at most 64 four-byte window heads per
//! tenant), whatever the horizon and the load.
//!
//! The service side is **calibrated from real cluster runs**: one
//! pingpong run ([`crate::pingpong::try_run_flavor`]) prices an RPC and
//! one small ring Allreduce ([`crate::allreduce::try_run_with_config`])
//! prices a collective, both under the scenario's exact
//! [`ConfigPatch`] (seeded loss, resource pressure).
//! Those per-job costs then drive an integer-picosecond multi-server
//! queueing simulation in which every in-system job holds a real entry
//! in a **partitioned** [`gtn_nic::TriggerList`] — so CAM pressure,
//! host-memory spill surcharges, and per-tenant partition bounds shape
//! the tail exactly as the NIC model defines them.
//!
//! The report keeps a reservoir [`DurationHistogram`] only for sojourn,
//! whose p50/p99/p99.9 are the SLO; the queue-wait and service stages
//! keep exact [`DurationSummary`] aggregates, because only their counts
//! and means are read.
//!
//! Overload is shed, never a panic, at two levels: a global bounded
//! queue ([`gtn_core::tenancy::Admission`], the admission-control knob)
//! and the NIC's per-partition depth
//! ([`gtn_nic::TriggerPartitions::depth`]). Both sheds are counted and
//! the counters satisfy strict conservation:
//! `completed + shed + failed == offered`.
//!
//! Everything — arrivals, calibration, queueing — derives from the
//! scenario seed and integer arithmetic, so reports are bit-identical
//! across reruns and `GTN_SWEEP_THREADS` (the queueing layer is pure
//! sequential code).
//!
//! [`Serving`] implements [`Workload`] for the harness/bench plumbing
//! (strategy filters, unified results) but is deliberately **not** in
//! [`crate::harness::all_workloads`]: the generic invariant suite
//! assumes closed-loop iteration scenarios (e.g. it derives crash times
//! from a fraction of total runtime, which for an open-loop trace is
//! dominated by the trace horizon, not by protocol work). Serving has
//! its own property suite in `tests/proptest_serving.rs`.

use crate::allreduce::{self, AllreduceParams};
use crate::harness::{ConfigPatch, JobFailure, ScenarioParams, ScenarioResult, Workload};
use crate::pingpong::{self, Flavor};
use gtn_core::tenancy::{Admission, TenantMap};
use gtn_core::{ClusterStats, Strategy};
use gtn_mem::{Addr, NodeId, RegionId};
use gtn_nic::lookup::LookupKind;
use gtn_nic::trigger::DEFAULT_OVERFLOW_CAPACITY;
use gtn_nic::{NetOp, NicConfig, TriggerError, TriggerList, TriggerPartitions};
use gtn_sim::rng::SimRng;
use gtn_sim::stats::{DurationHistogram, DurationSummary, StatSet};
use gtn_sim::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Ring size of the calibration Allreduce (a "small collective").
const COLL_NODES: u32 = 4;
/// Elements of the calibration Allreduce vector.
const COLL_ELEMS: u64 = 256;
/// Service jitter span as a divisor of the base service time: per-job
/// jitter is uniform in `[0, base/JITTER_DIV)`, modeling scheduling and
/// cache variation the single calibration run cannot capture.
const JITTER_DIV: u64 = 5;
/// Pareto shape for the heavy-tailed process (finite mean, infinite
/// variance — the classic serving-traffic tail).
const PARETO_ALPHA: f64 = 1.5;
/// Bounded-Pareto cap, as a multiple of the mean interarrival gap.
const PARETO_BOUND_FACTOR: f64 = 1000.0;
/// Expected arrivals the stream sizes each time window for; rounding the
/// width up to a power of two holds one to two times as many.
const ARRIVALS_PER_WINDOW: f64 = 2.0;
/// Cap on the stream's time windows per tenant, which bounds its memory
/// by the population rather than the horizon.
const WINDOWS_PER_TENANT: u64 = 64;

/// Interarrival process of one tenant's job stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Memoryless Poisson arrivals (exponential gaps).
    Poisson,
    /// Heavy-tailed bounded-Pareto gaps (shape `PARETO_ALPHA`, capped
    /// at `PARETO_BOUND_FACTOR`× the mean): long quiet spells broken
    /// by bursts, the tail-latency stress case.
    Pareto,
}

impl ArrivalProcess {
    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            ArrivalProcess::Poisson => "poisson",
            ArrivalProcess::Pareto => "pareto",
        }
    }
}

/// What a job asks of the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// A pingpong-style two-node RPC.
    Rpc,
    /// A small `COLL_NODES`-node ring Allreduce.
    Collective,
}

/// Parameters of one open-loop serving scenario.
#[derive(Debug, Clone, Copy)]
pub struct ServingParams {
    /// Networking strategy serving the traffic.
    pub strategy: Strategy,
    /// Simulated tenant population (each with an independent seeded
    /// arrival stream).
    pub tenants: u32,
    /// Trace horizon: arrivals are generated over `[0, duration_ns)`.
    pub duration_ns: u64,
    /// Aggregate offered load, jobs per second across all tenants.
    pub offered_jps: u64,
    /// Interarrival process.
    pub process: ArrivalProcess,
    /// Percent of jobs that are small collectives (the rest are RPCs).
    pub collective_pct: u32,
    /// Independent service channels (the cluster serves this many jobs
    /// concurrently; queued jobs wait FIFO).
    pub servers: u32,
    /// Global admission-control knob: arrivals finding this many jobs
    /// already waiting are shed.
    pub queue_depth: usize,
    /// Trigger-list partitions the tenants are pinned onto.
    pub partitions: u32,
    /// Per-partition admission depth in the NIC (active trigger entries
    /// past it are shed); `None` disables the NIC-level bound.
    pub partition_depth: Option<u64>,
    /// Seed for the whole scenario (arrival trace + calibration inputs).
    pub seed: u64,
    /// Cluster-config overrides applied to the calibration runs.
    pub patch: ConfigPatch,
}

impl ServingParams {
    /// A moderate-load default scenario of `strategy`; chain the builder
    /// methods to specialize.
    pub fn new(strategy: Strategy) -> Self {
        ServingParams {
            strategy,
            tenants: 1000,
            duration_ns: 2_000_000,
            offered_jps: 200_000,
            process: ArrivalProcess::Poisson,
            collective_pct: 10,
            servers: 4,
            queue_depth: 64,
            partitions: 16,
            partition_depth: Some(32),
            seed: 42,
            patch: ConfigPatch::NONE,
        }
    }

    /// Set the aggregate offered load (jobs/s).
    pub fn offered(mut self, jps: u64) -> Self {
        self.offered_jps = jps;
        self
    }

    /// Set the interarrival process.
    pub fn process(mut self, process: ArrivalProcess) -> Self {
        self.process = process;
        self
    }

    /// Set the tenant population.
    pub fn tenants(mut self, tenants: u32) -> Self {
        self.tenants = tenants;
        self
    }

    /// Set the trace horizon in nanoseconds.
    pub fn duration_ns(mut self, ns: u64) -> Self {
        self.duration_ns = ns;
        self
    }

    /// Set the global admission queue depth.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Set the trigger-partition count and per-partition depth.
    pub fn partitions(mut self, partitions: u32, depth: Option<u64>) -> Self {
        self.partitions = partitions;
        self.partition_depth = depth;
        self
    }

    /// Set the scenario seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attach cluster-config overrides.
    pub fn patch(mut self, patch: ConfigPatch) -> Self {
        self.patch = patch;
        self
    }

    /// Check the params before anything runs: a scenario needs tenants,
    /// load, a horizon and a server, `collective_pct` is a percentage,
    /// and the trigger partitions must be valid
    /// ([`TriggerPartitions::validate`]). Allocates nothing on success.
    pub fn validate(&self) -> Result<(), String> {
        for (name, value) in [
            ("tenants", u64::from(self.tenants)),
            ("offered_jps", self.offered_jps),
            ("duration_ns", self.duration_ns),
            ("servers", u64::from(self.servers)),
        ] {
            if value == 0 {
                return Err(format!("serving {name} must be >= 1"));
            }
        }
        if self.collective_pct > 100 {
            return Err(format!(
                "serving collective_pct must be <= 100, not {}",
                self.collective_pct
            ));
        }
        TriggerPartitions {
            partitions: self.partitions,
            depth: self.partition_depth,
        }
        .validate()
    }
}

/// One job of the arrival stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Arrival instant, ns from trace start.
    pub at_ns: u64,
    /// Originating tenant.
    pub tenant: u32,
    /// RPC or small collective.
    pub kind: JobKind,
    /// Per-job service-jitter draw in `[0, 1)`.
    pub jitter: f64,
    /// Per-job failure draw in `[0, 1)` (compared against the loss-derived
    /// deadline-miss probability).
    pub fail: f64,
}

/// The whole arrival trace for `params`: [`ArrivalStream`] collected.
///
/// Each tenant draws from its own forked stream in a fixed order (gap,
/// kind, jitter, fail per job), so the trace is a pure function of
/// `(seed, tenants, duration_ns, offered_jps, process, collective_pct)`
/// — bit-identical across reruns, and unperturbed for existing tenants
/// when the population grows at constant per-tenant rate (the per-tenant
/// mean gap `tenants / offered_jps` is what each stream consumes). Ties
/// in arrival time are ordered by tenant id, making the total order (and
/// everything downstream) deterministic.
pub fn generate_arrivals(params: &ServingParams) -> Vec<Arrival> {
    ArrivalStream::new(params).collect()
}

/// How each tenant draws its arrivals.
#[derive(Debug, Clone, Copy)]
struct ArrivalDraw {
    process: ArrivalProcess,
    /// Mean interarrival gap per tenant, ns.
    mean_gap_ns: f64,
    collective_pct: f64,
    duration_ns: u64,
}

impl ArrivalDraw {
    /// `tenant`'s next arrival after `after_ns`, or `None` once its next
    /// gap leaves the horizon (the kind, jitter and fail draws of that
    /// last gap are never made).
    #[inline]
    fn next(&self, rng: &mut SimRng, tenant: u32, after_ns: u64) -> Option<Arrival> {
        let gap = sample_gap_ns(rng, self.process, self.mean_gap_ns);
        let at_ns = after_ns.saturating_add(gap);
        if at_ns >= self.duration_ns {
            return None;
        }
        let kind = if rng.unit_f64() * 100.0 < self.collective_pct {
            JobKind::Collective
        } else {
            JobKind::Rpc
        };
        let jitter = rng.unit_f64();
        let fail = rng.unit_f64();
        Some(Arrival {
            at_ns,
            tenant,
            kind,
            jitter,
            fail,
        })
    }
}

/// Link value that ends a window's tenant list.
const NO_TENANT: u32 = u32::MAX;

/// One tenant of the stream: its forked generator and its next arrival.
#[derive(Debug)]
struct TenantHead {
    rng: SimRng,
    next: Arrival,
}

/// The arrival trace of a [`ServingParams`], yielded in `(at_ns, tenant)`
/// order without being stored.
///
/// The horizon is cut into equal windows of `2^shift` ns, sized from the
/// expected arrival count to hold one to two times
/// `ARRIVALS_PER_WINDOW` each (the width is rounded up to a power of
/// two), with at most `WINDOWS_PER_TENANT` windows per tenant: the
/// benchmark's serving cells hold 2.5–3.3. Every tenant with an arrival left
/// waits on the intrusive list of the window that arrival falls in (a
/// `u32` head per window, a `u32` link per tenant). The stream takes the
/// next non-empty window's list, sorts it, and yields it in order; each
/// yielded tenant draws its next arrival at once and joins that window's
/// list, or the current batch when it lands in the same window. A
/// tenant's arrivals strictly increase (every gap is at least 1 ns), so
/// the keys are unique and the stream yields exactly the order of the
/// sorted trace, with the same values.
#[derive(Debug)]
pub struct ArrivalStream {
    draw: ArrivalDraw,
    tenants: Vec<TenantHead>,
    /// The next tenant waiting on the same window as each tenant, or
    /// [`NO_TENANT`].
    links: Vec<u32>,
    /// First tenant waiting on each window, or [`NO_TENANT`].
    windows: Vec<u32>,
    /// Window width: `at_ns >> shift` is an arrival's window.
    shift: u32,
    /// The window the next batch is taken from.
    cursor: usize,
    /// The current window's `(at_ns, tenant)` keys, latest first, so the
    /// earliest pops off the end.
    batch: Vec<(u64, u32)>,
}

impl ArrivalStream {
    /// The stream of `params`' arrivals over `[0, duration_ns)`. Empty
    /// when there are no tenants, no load or no horizon.
    pub fn new(params: &ServingParams) -> Self {
        // No load, no arrivals: the mean gap would be infinite, and a
        // uniform draw of 0 would turn it into a NaN gap, cast to 1 ns.
        let duration_ns = if params.offered_jps == 0 {
            0
        } else {
            params.duration_ns
        };
        let draw = ArrivalDraw {
            process: params.process,
            mean_gap_ns: params.tenants as f64 * 1e9 / params.offered_jps as f64,
            collective_pct: f64::from(params.collective_pct),
            duration_ns,
        };
        // Saturating float-to-int casts keep every input finite here.
        let expected = params.offered_jps as f64 * duration_ns as f64 / 1e9;
        let cap = WINDOWS_PER_TENANT * u64::from(params.tenants.max(1));
        let target = ((expected / ARRIVALS_PER_WINDOW) as u64).clamp(1, cap);
        let width = duration_ns.div_ceil(target).max(1);
        // The smallest power of two >= width, so there are at most
        // `target` windows.
        let shift = (u64::BITS - (width - 1).leading_zeros()).min(u64::BITS - 1);
        let n_windows = match duration_ns {
            0 => 0,
            d => ((d - 1) >> shift) as usize + 1,
        };
        let mut stream = ArrivalStream {
            draw,
            tenants: Vec::new(),
            links: Vec::new(),
            windows: vec![NO_TENANT; n_windows],
            shift,
            cursor: 0,
            batch: Vec::new(),
        };
        if n_windows == 0 {
            return stream;
        }
        stream.tenants.reserve_exact(params.tenants as usize);
        stream.links = vec![NO_TENANT; params.tenants as usize];
        let root = SimRng::seeded(params.seed);
        for tenant in 0..params.tenants {
            let mut rng = root.fork(u64::from(tenant));
            let first = draw.next(&mut rng, tenant, 0);
            // A tenant with no arrival waits on no list, so its `next`
            // is never read.
            let next = first.unwrap_or(Arrival {
                at_ns: duration_ns,
                tenant,
                kind: JobKind::Rpc,
                jitter: 0.0,
                fail: 0.0,
            });
            stream.tenants.push(TenantHead { rng, next });
            if first.is_some() {
                stream.wait(tenant, next.at_ns);
            }
        }
        stream
    }

    /// Width of the stream's time windows, ns.
    pub fn window_ns(&self) -> u64 {
        1 << self.shift
    }

    /// Put `tenant`, whose next arrival is at `at_ns`, on its window's list.
    #[inline]
    fn wait(&mut self, tenant: u32, at_ns: u64) {
        let window = &mut self.windows[(at_ns >> self.shift) as usize];
        self.links[tenant as usize] = *window;
        *window = tenant;
    }
}

impl Iterator for ArrivalStream {
    type Item = Arrival;

    #[inline]
    fn next(&mut self) -> Option<Arrival> {
        while self.batch.is_empty() {
            // Take the next non-empty window's list as the batch.
            let window = self.windows.get_mut(self.cursor)?;
            let mut tenant = std::mem::replace(window, NO_TENANT);
            self.cursor += 1;
            while tenant != NO_TENANT {
                self.batch
                    .push((self.tenants[tenant as usize].next.at_ns, tenant));
                tenant = self.links[tenant as usize];
            }
            self.batch.sort_unstable_by(|a, b| b.cmp(a));
        }
        let (_, tenant) = self.batch.pop()?;
        let head = &mut self.tenants[tenant as usize];
        let arrival = head.next;
        if let Some(next) = self.draw.next(&mut head.rng, tenant, arrival.at_ns) {
            head.next = next;
            if (next.at_ns >> self.shift) as usize + 1 == self.cursor {
                // Still inside the current window: insert into the batch.
                let key = (next.at_ns, tenant);
                let at = self.batch.partition_point(|&k| k > key);
                self.batch.insert(at, key);
            } else {
                self.wait(tenant, next.at_ns);
            }
        }
        Some(arrival)
    }
}

/// One interarrival gap in whole nanoseconds (>= 1, so a tenant's
/// arrivals are strictly ordered in time).
fn sample_gap_ns(rng: &mut SimRng, process: ArrivalProcess, mean_ns: f64) -> u64 {
    let u = rng.unit_f64();
    let gap = match process {
        // Inverse-CDF exponential; u in [0, 1) keeps the ln argument in
        // (0, 1].
        ArrivalProcess::Poisson => -(1.0 - u).ln() * mean_ns,
        ArrivalProcess::Pareto => {
            // Scale chosen so the *unbounded* Pareto mean matches
            // `mean_ns` (alpha/(alpha-1) * x_m); the bound trims the far
            // tail so one draw cannot swallow the whole horizon.
            let x_m = mean_ns * (PARETO_ALPHA - 1.0) / PARETO_ALPHA;
            let x = x_m / (1.0 - u).powf(1.0 / PARETO_ALPHA);
            x.min(mean_ns * PARETO_BOUND_FACTOR)
        }
    };
    (gap as u64).max(1)
}

/// Per-job service costs calibrated from real cluster runs.
#[derive(Debug, Clone, Copy)]
pub struct ServiceModel {
    /// Target-side completion of one pingpong RPC, ps.
    pub rpc_ps: u64,
    /// Makespan of one small ring Allreduce, ps.
    pub coll_ps: u64,
}

/// Everything one serving run reports.
#[derive(Debug)]
pub struct ServingReport {
    /// Strategy echoed.
    pub strategy: Strategy,
    /// Offered load echoed (jobs/s).
    pub offered_jps: u64,
    /// Arrival process echoed.
    pub process: ArrivalProcess,
    /// Calibrated per-job costs.
    pub model: ServiceModel,
    /// Jobs the trace offered.
    pub offered: u64,
    /// Jobs shed by the global admission queue.
    pub shed_queue: u64,
    /// Jobs shed by the NIC's per-partition depth.
    pub shed_nic: u64,
    /// Jobs that completed in SLO terms.
    pub completed: u64,
    /// Jobs that entered service but missed their deadline (seeded-loss
    /// deadline-miss model).
    pub failed: u64,
    /// High-water mark of the admission queue.
    pub peak_waiting: usize,
    /// Trigger entries that spilled to the host overflow table.
    pub spills: u64,
    /// Spilled entries promoted back into the CAM.
    pub promotions: u64,
    /// Last job completion instant, ps from trace start (0 when nothing
    /// completed).
    pub makespan_ps: u64,
    /// Completed jobs per second of makespan — the goodput the SLO curve
    /// plots against offered load.
    pub goodput_jps: u64,
    /// Sojourn (arrival → completion) latency distribution; the only
    /// stage whose percentiles are reported.
    pub sojourn: DurationHistogram,
    /// Queue-wait stage: exact count, mean, min and max.
    pub queue_wait: DurationSummary,
    /// Service stage: exact count, mean, min and max.
    pub service: DurationSummary,
    /// Serving counters plus both calibration runs' component stats
    /// (namespaced `serving`, `calib_rpc.*`, `calib_coll.*`).
    pub stats: ClusterStats,
}

impl ServingReport {
    /// Sojourn percentile in picoseconds (e.g. `50.0`, `99.0`, `99.9`).
    pub fn percentile_ps(&self, p: f64) -> u64 {
        self.sojourn.percentile(p).as_ps()
    }

    /// Total sheds across both levels.
    pub fn shed(&self) -> u64 {
        self.shed_queue + self.shed_nic
    }

    /// Strict count conservation: every offered job is exactly one of
    /// completed, shed, or failed.
    pub fn conserved(&self) -> bool {
        self.completed + self.shed() + self.failed == self.offered
    }
}

/// Calibrate the per-job service model by running the real cluster once
/// per job kind under the scenario's exact patch.
fn calibrate(params: &ServingParams) -> Result<(ServiceModel, ClusterStats), JobFailure> {
    let rpc = pingpong::try_run_flavor(Flavor::Std(params.strategy), params.patch)?;
    let coll = allreduce::try_run_with_config(
        AllreduceParams::new(COLL_NODES, COLL_ELEMS, params.strategy, params.seed),
        |config| params.patch.apply(config),
    )?;
    let model = ServiceModel {
        rpc_ps: rpc.target_completion.as_ps(),
        coll_ps: coll.scenario.total.as_ps(),
    };
    let mut stats = ClusterStats::new();
    for (ns, set) in rpc.scenario.stats.iter() {
        stats.insert(&format!("calib_rpc.{ns}"), set);
    }
    for (ns, set) in coll.scenario.stats.iter() {
        stats.insert(&format!("calib_coll.{ns}"), set);
    }
    Ok((model, stats))
}

/// The placeholder operation armed for each in-system job (the trigger
/// list prices matching by tag and occupancy, not by op contents).
fn job_op() -> NetOp {
    NetOp::Put {
        src: Addr::base(NodeId(0), RegionId(0)),
        len: 64,
        target: NodeId(1),
        dst: Addr::base(NodeId(1), RegionId(0)),
        notify: None,
        completion: None,
    }
}

/// Run one serving scenario, panicking with the [`JobFailure`] if
/// [`try_run`] returns one (invalid params or a failed calibration run).
pub fn run(params: &ServingParams) -> ServingReport {
    try_run(params)
        .unwrap_or_else(|failure| panic!("serving {} run failed\n{failure}", params.strategy))
}

/// Run one serving scenario. Params that fail
/// [`ServingParams::validate`] come back as `Err(JobFailure::Invalid)`
/// before any cluster runs; a failed calibration run (e.g. an injected
/// crash under the `Abort` policy) comes back as its `JobFailure`.
pub fn try_run(params: &ServingParams) -> Result<ServingReport, JobFailure> {
    params.validate().map_err(JobFailure::Invalid)?;
    let (model, mut stats) = calibrate(params)?;
    let map = TenantMap::new(params.tenants, params.partitions);

    // The serving NIC's trigger list, shaped by the same pressure knobs
    // the calibration runs saw.
    let pressure = params.patch.pressure.unwrap_or_default();
    let lookup = match pressure.trigger_ways {
        Some(ways) => LookupKind::Associative { ways },
        None => NicConfig::default().lookup,
    };
    let overflow_capacity = pressure
        .trigger_overflow
        .unwrap_or(DEFAULT_OVERFLOW_CAPACITY);
    let mut triggers = TriggerList::with_partitions(
        lookup,
        overflow_capacity,
        TriggerPartitions {
            partitions: params.partitions,
            depth: params.partition_depth,
        },
    );
    let spill_extra_ps = NicConfig::default().spill_match_extra_ns * 1_000;

    // Seeded loss translates to a deadline-miss probability: one drop is
    // absorbed by ARQ inside the budget, two consecutive drops blow it.
    let fail_prob = params
        .patch
        .loss
        .map(|(_, rate)| rate * rate)
        .unwrap_or(0.0);

    let mut adm = Admission::new(params.queue_depth);
    let mut shed_queue = 0u64;
    let mut shed_nic = 0u64;
    let mut sojourn = DurationHistogram::default();
    let mut queue_wait = DurationSummary::new();
    let mut service = DurationSummary::new();

    // Multi-server FIFO queueing core, integer picoseconds throughout.
    // A job is known by its arrival index `seq`. `busy` orders in-service
    // jobs by (completion, seq), so simultaneous completions pop
    // deterministically, and carries each job's arrival instant and
    // failure flag; `waiting` carries each queued job's arrival.
    let mut busy: BinaryHeap<Reverse<(u64, u64, u64, bool)>> = BinaryHeap::new();
    let mut idle = params.servers;
    let mut waiting: VecDeque<(u64, Arrival)> = VecDeque::new();
    let mut makespan_ps = 0u64;

    // Start job `seq` on a free server at `now_ps`: fire its trigger
    // (promoting that partition's spills) and price the match exactly as
    // the NIC would — lookup cost at current occupancy plus the
    // host-memory surcharge when the tag resolves to the overflow table.
    macro_rules! start_service {
        ($seq:expr, $job:expr, $now_ps:expr) => {{
            let seq: u64 = $seq;
            let job: Arrival = $job;
            let now_ps: u64 = $now_ps;
            let tag = map.tag(job.tenant, seq);
            let mut match_ps = triggers.match_cost().as_ps();
            if triggers.resolves_to_overflow(tag) {
                match_ps += spill_extra_ps;
            }
            let fired = triggers
                .trigger(tag)
                .expect("armed entry accepts its trigger write")
                .expect("threshold-1 entry fires on first write");
            debug_assert_eq!(fired.tag, tag);
            let base_ps = match job.kind {
                JobKind::Rpc => model.rpc_ps,
                JobKind::Collective => model.coll_ps,
            };
            let jitter_ps = ((base_ps / JITTER_DIV) as f64 * job.jitter) as u64;
            let service_ps = base_ps + match_ps + jitter_ps;
            let arrival_ps = job.at_ns * 1_000;
            queue_wait.record(SimDuration::from_ps(now_ps - arrival_ps));
            service.record(SimDuration::from_ps(service_ps));
            idle -= 1;
            busy.push(Reverse((
                now_ps + service_ps,
                seq,
                arrival_ps,
                job.fail < fail_prob,
            )));
        }};
    }

    // Retire every job completing at or before `horizon_ps`, handing
    // freed servers to the FIFO queue.
    macro_rules! advance {
        ($horizon_ps:expr) => {{
            let horizon_ps: u64 = $horizon_ps;
            while let Some(&Reverse((done_ps, _, arrival_ps, failed))) = busy.peek() {
                if done_ps > horizon_ps {
                    break;
                }
                busy.pop();
                idle += 1;
                adm.finish(!failed);
                makespan_ps = makespan_ps.max(done_ps);
                sojourn.record(SimDuration::from_ps(done_ps - arrival_ps));
                if let Some((seq, job)) = waiting.pop_front() {
                    adm.start();
                    start_service!(seq, job, done_ps);
                }
            }
        }};
    }

    for (seq, job) in (0u64..).zip(ArrivalStream::new(params)) {
        let now_ps = job.at_ns * 1_000;
        advance!(now_ps);
        if !adm.offer() {
            shed_queue += 1;
            continue;
        }
        let tag = map.tag(job.tenant, seq);
        match triggers.register(tag, job_op(), 1) {
            Ok(None) => {}
            Ok(Some(_)) => unreachable!("fresh tags cannot have early counts"),
            Err(TriggerError::AdmissionShed { .. })
            | Err(TriggerError::CapacityExceeded { .. }) => {
                adm.shed_admitted();
                shed_nic += 1;
                continue;
            }
            Err(e) => panic!("unexpected trigger rejection: {e}"),
        }
        if idle > 0 {
            adm.start();
            start_service!(seq, job, now_ps);
        } else {
            waiting.push_back((seq, job));
        }
    }
    advance!(u64::MAX);
    assert!(
        busy.is_empty() && waiting.is_empty() && idle == params.servers,
        "drain left jobs in the system"
    );
    debug_assert!(adm.conserved(), "admission counters must conserve");

    let goodput_jps = if makespan_ps == 0 {
        0
    } else {
        // completed jobs per second of makespan, integer.
        adm.completed() * 1_000_000_000 / (makespan_ps / 1_000).max(1)
    };

    let mut set = StatSet::new();
    adm.publish(&mut set);
    set.add("shed_queue", shed_queue);
    set.add("shed_nic", shed_nic);
    set.add("trigger_spills", triggers.spills());
    set.add("trigger_promotions", triggers.promotions());
    set.add("admission_shed", triggers.admission_shed());
    stats.insert("serving", &set);

    Ok(ServingReport {
        strategy: params.strategy,
        offered_jps: params.offered_jps,
        process: params.process,
        model,
        offered: adm.offered(),
        shed_queue,
        shed_nic,
        completed: adm.completed(),
        failed: adm.failed(),
        peak_waiting: adm.peak_waiting(),
        spills: triggers.spills(),
        promotions: triggers.promotions(),
        makespan_ps,
        goodput_jps,
        sojourn,
        queue_wait,
        service,
        stats,
    })
}

/// The serving workload, drivable through the [`Workload`] harness
/// vocabulary (see the module docs for why it is not in the registry).
pub struct Serving;

impl Serving {
    /// Translate harness scenario params into [`ServingParams`]: `size`
    /// is the offered load (jobs/s, 0 = default), `variant` selects the
    /// process (0 = Poisson, 1 = Pareto), `seed`/`patch` pass through.
    pub fn params_from(sp: &ScenarioParams) -> ServingParams {
        let mut p = ServingParams::new(sp.strategy)
            .seed(sp.seed)
            .patch(sp.patch);
        if sp.size > 0 {
            p = p.offered(sp.size);
        }
        if sp.variant == 1 {
            p = p.process(ArrivalProcess::Pareto);
        }
        p
    }
}

impl Workload for Serving {
    fn name(&self) -> &'static str {
        "serving"
    }

    fn smoke_scenario(&self, strategy: Strategy) -> ScenarioParams {
        ScenarioParams::new(strategy)
            .nodes(2)
            .size(200_000)
            .seed(42)
    }

    fn run(&self, params: &ScenarioParams) -> Result<ScenarioResult, JobFailure> {
        let sp = Self::params_from(params);
        let report = try_run(&sp)?;
        unified_result(&sp, report).map_err(JobFailure::Diverged)
    }
}

/// Fold a [`ServingReport`] into the harness's unified result shape,
/// checking the serving invariants (conservation, monotone percentiles)
/// on the way.
fn unified_result(sp: &ServingParams, report: ServingReport) -> Result<ScenarioResult, String> {
    if !report.conserved() {
        return Err(format!(
            "count conservation violated: {} completed + {} shed + {} failed != {} offered",
            report.completed,
            report.shed(),
            report.failed,
            report.offered
        ));
    }
    if report.completed == 0 {
        return Err("no job completed".into());
    }
    let (p50, p99, p999) = (
        report.percentile_ps(50.0),
        report.percentile_ps(99.0),
        report.percentile_ps(99.9),
    );
    if !(p50 <= p99 && p99 <= p999) {
        return Err(format!(
            "percentiles not monotone: p50 {p50} p99 {p99} p99.9 {p999}"
        ));
    }
    let mut result = ScenarioResult {
        workload: "serving",
        strategy: sp.strategy,
        nodes: 2,
        size: sp.offered_jps,
        iters: 1,
        total: SimTime::ZERO,
        per_iter: SimDuration::ZERO,
        stages: vec![
            ("queue_wait", report.queue_wait.mean()),
            ("service", report.service.mean()),
            ("sojourn", report.sojourn.mean()),
        ],
        stats: report.stats,
        retransmits: 0,
        delivery_failures: 0,
    };
    result.retransmits = result.stats.counter_across("nic", "retransmits");
    result.set_total(SimTime::from_ps(report.makespan_ps));
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::ResourceLimits;

    #[test]
    fn arrivals_are_sorted_seeded_and_inside_the_horizon() {
        let params = ServingParams::new(Strategy::GpuTn)
            .tenants(50)
            .duration_ns(500_000);
        let a = generate_arrivals(&params);
        let b = generate_arrivals(&params);
        assert_eq!(a, b, "same seed, same trace");
        assert!(!a.is_empty());
        assert!(a
            .windows(2)
            .all(|w| (w[0].at_ns, w[0].tenant) <= (w[1].at_ns, w[1].tenant)));
        assert!(a.iter().all(|j| j.at_ns < params.duration_ns));
        let c = generate_arrivals(&params.seed(43));
        assert_ne!(a, c, "different seed, different trace");
    }

    #[test]
    fn pareto_trace_is_burstier_than_poisson() {
        // Single tenant so superposition cannot wash the tail out of the
        // gap sequence.
        let base = ServingParams::new(Strategy::GpuTn)
            .tenants(1)
            .offered(200)
            .duration_ns(2_000_000_000);
        let poisson = generate_arrivals(&base.process(ArrivalProcess::Poisson));
        let pareto = generate_arrivals(&base.process(ArrivalProcess::Pareto));
        let max_gap = |t: &[Arrival]| {
            t.windows(2)
                .map(|w| w[1].at_ns - w[0].at_ns)
                .max()
                .unwrap_or(0)
        };
        // The heavy tail shows up as much longer quiet spells at the same
        // offered load.
        assert!(
            max_gap(&pareto) > max_gap(&poisson),
            "pareto {} <= poisson {}",
            max_gap(&pareto),
            max_gap(&poisson)
        );
    }

    #[test]
    fn growing_the_population_keeps_existing_tenant_streams() {
        let small = ServingParams::new(Strategy::GpuTn)
            .tenants(10)
            .duration_ns(1_000_000);
        // Constant per-tenant rate: double the population, double the
        // aggregate offered load, so each tenant's mean gap is unchanged.
        let large = small.tenants(20).offered(small.offered_jps * 2);
        let pick = |t: Vec<Arrival>, tenant: u32| -> Vec<Arrival> {
            t.into_iter().filter(|a| a.tenant == tenant).collect()
        };
        for tenant in [0, 7, 9] {
            assert_eq!(
                pick(generate_arrivals(&small), tenant),
                pick(generate_arrivals(&large), tenant),
                "tenant {tenant}'s stream changed when the population grew"
            );
        }
    }

    #[test]
    fn smoke_run_conserves_and_reports_percentiles() {
        let params = ServingParams::new(Strategy::GpuTn)
            .tenants(100)
            .duration_ns(500_000)
            .offered(300_000);
        let report = run(&params);
        assert!(report.conserved());
        assert!(report.completed > 0);
        assert!(report.goodput_jps > 0);
        assert!(report.percentile_ps(50.0) <= report.percentile_ps(99.9));
        assert_eq!(
            report.offered,
            report.completed + report.shed() + report.failed
        );
        assert_eq!(report.stats.counter("serving", "offered"), report.offered);
    }

    #[test]
    fn overload_sheds_at_the_queue_and_recovers_goodput() {
        // Far past saturation: the queue must shed, and never panic.
        let params = ServingParams::new(Strategy::Hdn)
            .tenants(100)
            .duration_ns(500_000)
            .offered(5_000_000)
            .queue_depth(16);
        let report = run(&params);
        assert!(report.shed_queue > 0, "overload must shed");
        assert!(report.conserved());
        // The queue bound also bounds the worst sojourn: every served job
        // waited at most depth * max-service behind the queue.
        assert!(report.peak_waiting <= 16);
    }

    #[test]
    fn partition_depth_sheds_at_the_nic() {
        // One partition of depth 1 with many servers: the second
        // concurrent job cannot arm its trigger and is shed by the NIC.
        let params = ServingParams::new(Strategy::GpuTn)
            .tenants(10)
            .duration_ns(500_000)
            .offered(2_000_000)
            .partitions(1, Some(1));
        let report = run(&params);
        assert!(report.shed_nic > 0, "partition depth must shed");
        assert!(report.conserved());
    }

    #[test]
    fn seeded_loss_inflates_service_and_can_fail_jobs() {
        let base = ServingParams::new(Strategy::GpuTn)
            .tenants(100)
            .duration_ns(500_000);
        let clean = run(&base);
        let lossy = run(&base.patch(ConfigPatch::loss(7, 0.2)));
        assert!(
            lossy.model.rpc_ps >= clean.model.rpc_ps,
            "loss cannot make the calibrated RPC faster"
        );
        assert!(lossy.conserved());
        // rate^2 = 4% deadline misses over ~100 jobs: overwhelmingly
        // likely to fail at least one (and conservation still holds).
        assert!(lossy.failed > 0, "expected deadline misses under 20% loss");
    }

    #[test]
    fn pressure_patch_shapes_the_serving_trigger_list() {
        let params = ServingParams::new(Strategy::GpuTn)
            .tenants(100)
            .duration_ns(500_000)
            .offered(1_000_000)
            .partitions(4, None)
            .patch(ConfigPatch::pressure(ResourceLimits::tiny(4, 64)));
        let report = run(&params);
        // A 4-way CAM over 4 partitions leaves one way per partition:
        // concurrent jobs spill and later promote.
        assert!(report.spills > 0);
        assert!(report.conserved());
    }

    #[test]
    fn strategies_order_sanely_at_moderate_load() {
        let base = ServingParams::new(Strategy::GpuTn)
            .tenants(100)
            .duration_ns(500_000)
            .offered(100_000);
        let p99 = |s: Strategy| {
            run(&ServingParams {
                strategy: s,
                ..base
            })
            .percentile_ps(99.0)
        };
        let (hdn, gds, tn) = (p99(Strategy::Hdn), p99(Strategy::Gds), p99(Strategy::GpuTn));
        assert!(tn < gds && gds < hdn, "GPU-TN {tn} < GDS {gds} < HDN {hdn}");
    }

    #[test]
    fn workload_verify_builds_a_unified_result() {
        let w = Serving;
        let sp = w.smoke_scenario(Strategy::GpuTn).size(100_000);
        let r = w.run(&sp).expect("verifies");
        assert_eq!(r.workload, "serving");
        assert_eq!(r.size, 100_000);
        assert!(r.total > SimTime::ZERO);
        assert!(r.stats.get("serving").is_some());
        assert!(r
            .stages
            .iter()
            .any(|&(name, d)| name == "sojourn" && d > SimDuration::ZERO));
    }
}
