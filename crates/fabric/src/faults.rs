//! Deterministic fault injection: seeded packet loss, permanent crash-stop
//! failures, and gray degradation.
//!
//! Every fault decision draws from [`SimRng`] streams forked from a single
//! seed, so a run with the same seed (and the same event order, which the
//! discrete-event engine guarantees) injects *exactly* the same faults.
//! With [`FaultConfig::none`] (the default) the plan draws nothing and
//! touches no state, so the lossless path is bit-identical to a build that
//! has never heard of faults.
//!
//! The plan judges at *message* granularity on top of the fabric's packet
//! segmentation: a message is dropped if any of its packets is lost (i.i.d.
//! per-packet Bernoulli).
//!
//! A [`CrashSpec`] kills a whole node, a node's NIC, a host pair's link, or
//! a single graph edge at a fixed sim time, and it never comes back. From
//! that instant the fabric black-holes every message that touches the dead
//! component (counted in `crash_drops`); detection and recovery are the
//! cluster layer's problem, not the fabric's. Crash checks consume no
//! randomness, so adding a crash to a seeded-loss run does not reshuffle
//! the loss stream.
//!
//! A [`DegradeSpec`] keeps its component up but makes it misbehave for a
//! window: extra latency, seeded jitter, bursty loss, periodic flap-down.
//! The fabric draws a message's degrade effect first
//! ([`FaultPlan::judge_degrades`]), because extra latency shifts the
//! packet walk; [`FaultPlan::judge`] then gives the message its one
//! verdict.

use gtn_mem::NodeId;
use gtn_sim::rng::SimRng;
use gtn_sim::stats::StatSet;
use gtn_sim::time::SimTime;
use serde::{Deserialize, Serialize};

/// Which component a crash-stop failure takes out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrashComponent {
    /// The whole node: CPU, GPU, and NIC all stop; nothing it hosts ever
    /// runs again and nothing reaches or leaves it.
    Node(u32),
    /// Only the node's NIC: local compute continues (and may block forever
    /// on network flags), but no traffic enters or leaves the node.
    Nic(u32),
    /// One undirected link: the two endpoints can no longer exchange
    /// messages (either direction) but both keep talking to everyone else.
    Link {
        /// One endpoint.
        a: u32,
        /// The other endpoint.
        b: u32,
    },
    /// One undirected *graph edge*, addressed by topology-graph vertex ids
    /// (hosts first, then switches — see [`crate::graph::FabricGraph`]).
    /// Unlike [`CrashComponent::Link`], which severs a host *pair*
    /// regardless of routing, an edge crash kills a physical wire: only
    /// pairs whose routes actually cross it lose connectivity. The fabric
    /// resolves routes and passes the verdict to [`FaultPlan::judge`].
    Edge {
        /// One endpoint (graph vertex id).
        a: u32,
        /// The other endpoint (graph vertex id).
        b: u32,
    },
}

impl std::fmt::Display for CrashComponent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CrashComponent::Node(n) => write!(f, "node {n}"),
            CrashComponent::Nic(n) => write!(f, "nic {n}"),
            CrashComponent::Link { a, b } => write!(f, "link {a}<->{b}"),
            CrashComponent::Edge { a, b } => write!(f, "graph edge {a}<->{b}"),
        }
    }
}

/// A permanent crash-stop failure: `component` dies at `at_ns` and never
/// recovers (contrast with a flapping [`DegradeSpec`], which comes back).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashSpec {
    /// What dies.
    pub component: CrashComponent,
    /// When it dies, ns of sim time.
    pub at_ns: u64,
}

impl CrashSpec {
    /// The node a recovery layer should treat as the *culprit*: the crashed
    /// node for node/NIC crashes, the lower-numbered endpoint for a link or
    /// graph-edge crash (a deterministic convention — with only
    /// connectivity lost, either end could equally be blamed; for a graph
    /// edge the lower endpoint is the host side whenever one endpoint is a
    /// host, since hosts number below switches).
    pub fn culprit(&self) -> u32 {
        match self.component {
            CrashComponent::Node(n) | CrashComponent::Nic(n) => n,
            CrashComponent::Link { a, b } | CrashComponent::Edge { a, b } => a.min(b),
        }
    }
}

/// Which component a gray failure degrades (without killing it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DegradeComponent {
    /// One undirected *graph edge* (topology vertex ids, like
    /// [`CrashComponent::Edge`]): every message whose route crosses the
    /// wire suffers the degradation, in either direction.
    Edge {
        /// One endpoint (graph vertex id).
        a: u32,
        /// The other endpoint (graph vertex id).
        b: u32,
    },
    /// One node's NIC is a straggler: every non-loopback message it sends
    /// *or* receives suffers the degradation (slow DMA engine, overheating
    /// SerDes — the component is sick, not dead).
    Nic(u32),
}

/// A gray failure: the component stays up but misbehaves — elevated
/// latency, seeded jitter, loss bursts, periodic flapping. All effects are
/// optional and compose; an all-zero spec is a no-op. Deterministic under
/// the plan seed: each spec owns a forked [`SimRng`] stream, so adding a
/// degrade never reshuffles the loss draws of healthy paths (and two
/// degrades never reshuffle each other).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegradeSpec {
    /// What is sick.
    pub component: DegradeComponent,
    /// When the degradation starts, ns of sim time.
    pub from_ns: u64,
    /// When it ends (exclusive), ns. Zero means it never recovers.
    pub until_ns: u64,
    /// Fixed extra latency added to every affected message, ns.
    pub extra_latency_ns: u64,
    /// Uniform jitter bound: each affected message additionally waits
    /// `U[0, jitter_ns)` drawn from the spec's own seeded stream.
    pub jitter_ns: u64,
    /// Per-message loss probability in `[0, 1]` while degraded.
    pub loss: f64,
    /// Burst length: once a loss draw fires, the next `burst_len - 1`
    /// affected messages are dropped without drawing (correlated loss).
    /// Zero or one means i.i.d. losses.
    pub burst_len: u64,
    /// Flap period, ns: the component cycles up for
    /// `flap_period_ns - flap_down_ns`, then hard-down for `flap_down_ns`
    /// (drops everything, no randomness), phase-locked to `from_ns`.
    /// Zero disables flapping.
    pub flap_period_ns: u64,
    /// Down portion of each flap period, ns.
    pub flap_down_ns: u64,
    /// Advertise this degrade to the routing layer as *persistent*: a
    /// fabric with route-around armed withdraws the edge from its
    /// candidate tables (at the degrade onset plus the reroute delay)
    /// instead of routing through the sick wire forever. Ignored for NIC
    /// degrades — there is no alternate path to a host's own NIC.
    pub route_around: bool,
}

impl DegradeSpec {
    /// A no-op degrade of graph edge `a — b`; chain effect builders.
    pub fn edge(a: u32, b: u32) -> Self {
        DegradeSpec {
            component: DegradeComponent::Edge { a, b },
            from_ns: 0,
            until_ns: 0,
            extra_latency_ns: 0,
            jitter_ns: 0,
            loss: 0.0,
            burst_len: 0,
            flap_period_ns: 0,
            flap_down_ns: 0,
            route_around: false,
        }
    }

    /// A no-op slow-NIC degrade of `node`; chain effect builders.
    pub fn nic(node: u32) -> Self {
        DegradeSpec {
            component: DegradeComponent::Nic(node),
            ..DegradeSpec::edge(0, 0)
        }
    }

    /// Add fixed extra latency per affected message.
    pub fn latency(mut self, extra_ns: u64) -> Self {
        self.extra_latency_ns = extra_ns;
        self
    }

    /// Add seeded uniform jitter in `[0, jitter_ns)` per affected message.
    pub fn jitter(mut self, jitter_ns: u64) -> Self {
        self.jitter_ns = jitter_ns;
        self
    }

    /// Add bursty loss: probability `loss` per message, each hit extending
    /// into a burst of `burst_len` consecutive drops.
    pub fn lossy(mut self, loss: f64, burst_len: u64) -> Self {
        self.loss = loss;
        self.burst_len = burst_len;
        self
    }

    /// Flap: up for `period_ns - down_ns`, hard-down for `down_ns`.
    pub fn flapping(mut self, period_ns: u64, down_ns: u64) -> Self {
        self.flap_period_ns = period_ns;
        self.flap_down_ns = down_ns;
        self
    }

    /// Restrict the degradation to `[from_ns, until_ns)` (until 0 = ∞).
    pub fn window(mut self, from_ns: u64, until_ns: u64) -> Self {
        self.from_ns = from_ns;
        self.until_ns = until_ns;
        self
    }

    /// Mark the degrade persistent for the route-around layer.
    pub fn persistent(mut self) -> Self {
        self.route_around = true;
        self
    }

    /// Is the degrade window open at `now_ns`?
    pub fn active_at(&self, now_ns: u64) -> bool {
        now_ns >= self.from_ns && (self.until_ns == 0 || now_ns < self.until_ns)
    }

    /// Can this degrade drop traffic (seeded loss or flap-down windows)?
    /// Latency and jitter alone only delay it.
    pub fn can_drop(&self) -> bool {
        self.loss > 0.0 || self.flap_period_ns > 0
    }

    /// Is the component flap-down at `now_ns`? (Requires the window open.)
    pub fn flap_down_at(&self, now_ns: u64) -> bool {
        if self.flap_period_ns == 0 || self.flap_down_ns == 0 {
            return false;
        }
        let phase = (now_ns - self.from_ns) % self.flap_period_ns;
        phase >= self.flap_period_ns - self.flap_down_ns
    }

    /// Validate invariants; called from [`FaultConfig::validate`].
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.loss) {
            return Err(format!("degrade loss must be in [0,1], got {}", self.loss));
        }
        if self.until_ns != 0 && self.until_ns <= self.from_ns {
            return Err(format!(
                "degrade window empty: until_ns {} <= from_ns {}",
                self.until_ns, self.from_ns
            ));
        }
        if self.flap_down_ns > 0 && self.flap_period_ns <= self.flap_down_ns {
            return Err(format!(
                "flap_down_ns {} must be < flap_period_ns {} (the link must \
                 come up between flaps; use a crash for a permanent cut)",
                self.flap_down_ns, self.flap_period_ns
            ));
        }
        if self.flap_period_ns > 0 && self.flap_down_ns == 0 {
            return Err("flap_period_ns without flap_down_ns never flaps".into());
        }
        Ok(())
    }
}

/// Why a degraded message was dropped — flap-down windows are
/// deterministic (no randomness), loss/burst drops are seeded draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeDrop {
    /// The component was in a flap-down window.
    Flap,
    /// A loss draw (or the burst it started) fired.
    Loss,
}

/// Combined gray-failure effect on one message, accumulated over every
/// spec that applies to its route.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DegradeEffect {
    /// Total extra latency (fixed + jitter) across applicable specs, ns.
    pub extra_ns: u64,
    /// The first drop verdict, if any spec dropped the message.
    pub drop: Option<DegradeDrop>,
}

/// Fault-injection parameters. All-zero (see [`FaultConfig::none`]) disables
/// injection entirely.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Seed for the fault streams. Independent of workload seeds so the
    /// same traffic can be replayed under different fault draws.
    pub seed: u64,
    /// Per-packet i.i.d. loss probability in `[0, 1]` (1.0 is a dead link,
    /// used to exhaust retry budgets).
    pub packet_loss: f64,
    /// Permanent crash-stop failures, in no particular order. Empty (the
    /// default) means no component ever dies.
    pub crashes: Vec<CrashSpec>,
    /// Gray failures: components that stay up but misbehave. Empty (the
    /// default) means nothing is degraded. `serde(default)` keeps configs
    /// recorded before gray failures existed loadable.
    #[serde(default)]
    pub degrades: Vec<DegradeSpec>,
}

impl FaultConfig {
    /// No faults at all; the plan becomes a no-op.
    pub fn none() -> Self {
        FaultConfig {
            seed: 0,
            packet_loss: 0.0,
            crashes: Vec::new(),
            degrades: Vec::new(),
        }
    }

    /// Uniform packet loss at probability `p`, seeded.
    pub fn loss(seed: u64, p: f64) -> Self {
        FaultConfig {
            seed,
            packet_loss: p,
            ..FaultConfig::none()
        }
    }

    /// A single whole-node crash at `at_ns`.
    pub fn crash(node: u32, at_ns: u64) -> Self {
        FaultConfig::none().with_crash(CrashComponent::Node(node), at_ns)
    }

    /// A single NIC crash at `at_ns` (the node's compute survives).
    pub fn crash_nic(node: u32, at_ns: u64) -> Self {
        FaultConfig::none().with_crash(CrashComponent::Nic(node), at_ns)
    }

    /// A single undirected link crash at `at_ns`.
    pub fn crash_link(a: u32, b: u32, at_ns: u64) -> Self {
        FaultConfig::none().with_crash(CrashComponent::Link { a, b }, at_ns)
    }

    /// Append one crash-stop failure (builder style, composes with loss).
    pub fn with_crash(mut self, component: CrashComponent, at_ns: u64) -> Self {
        self.crashes.push(CrashSpec { component, at_ns });
        self
    }

    /// Append one gray failure (builder style, composes with everything).
    pub fn with_degrade(mut self, spec: DegradeSpec) -> Self {
        self.degrades.push(spec);
        self
    }

    /// A single degraded graph edge, seeded (for seeded jitter/loss draws).
    pub fn degrade(seed: u64, spec: DegradeSpec) -> Self {
        FaultConfig {
            seed,
            ..FaultConfig::none()
        }
        .with_degrade(spec)
    }

    /// True when no fault class is enabled (the default).
    pub fn is_none(&self) -> bool {
        self.packet_loss == 0.0 && self.crashes.is_empty() && self.degrades.is_empty()
    }

    /// Can the plan drop messages that a retransmit would recover: seeded
    /// loss, or a lossy or flapping degrade? Crash-stop drops are not
    /// counted: no retransmit crosses a dead component.
    pub fn can_drop(&self) -> bool {
        self.packet_loss > 0.0 || self.degrades.iter().any(DegradeSpec::can_drop)
    }

    /// When `node`'s compute (CPU/GPU) dies, if ever: the earliest
    /// whole-node crash naming it.
    pub fn node_down_at(&self, node: u32) -> Option<u64> {
        self.crashes
            .iter()
            .filter(|c| c.component == CrashComponent::Node(node))
            .map(|c| c.at_ns)
            .min()
    }

    /// When `node` leaves the network, if ever: the earliest whole-node
    /// *or* NIC crash naming it.
    pub fn nic_down_at(&self, node: u32) -> Option<u64> {
        self.crashes
            .iter()
            .filter(|c| {
                c.component == CrashComponent::Node(node)
                    || c.component == CrashComponent::Nic(node)
            })
            .map(|c| c.at_ns)
            .min()
    }

    /// When the `src → dst` path dies, if ever: either endpoint leaving the
    /// network, or a link crash naming the (undirected) pair.
    pub fn link_down_at(&self, src: u32, dst: u32) -> Option<u64> {
        let link = self
            .crashes
            .iter()
            .filter(|c| match c.component {
                CrashComponent::Link { a, b } => (a, b) == (src, dst) || (a, b) == (dst, src),
                _ => false,
            })
            .map(|c| c.at_ns)
            .min();
        [self.nic_down_at(src), self.nic_down_at(dst), link]
            .into_iter()
            .flatten()
            .min()
    }

    /// Validate invariants; called by [`crate::Fabric::new`].
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.packet_loss) {
            return Err(format!(
                "packet_loss must be in [0,1], got {}",
                self.packet_loss
            ));
        }
        for spec in &self.degrades {
            spec.validate()?;
        }
        Ok(())
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// Verdict for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Arrives intact.
    Delivered,
    /// Never arrives (crash, degrade drop, or packet loss).
    Dropped,
}

/// The seeded fault plan. Owned by [`crate::Fabric`]; judged per message via
/// [`crate::Fabric::send_message_faulty`].
#[derive(Debug)]
pub struct FaultPlan {
    config: FaultConfig,
    packet_rng: SimRng,
    /// One seeded stream per [`DegradeSpec`] (index-aligned with
    /// `config.degrades`), so degrades never reshuffle each other's draws
    /// or the loss stream.
    degrade_rngs: Vec<SimRng>,
    /// Remaining forced drops of an in-progress loss burst, per spec.
    degrade_burst: Vec<u64>,
    stats: StatSet,
}

impl FaultPlan {
    /// Build a plan from its configuration.
    pub fn new(config: FaultConfig) -> Self {
        let root = SimRng::seeded(config.seed);
        let degrade_root = root.fork(4);
        let degrade_rngs = (0..config.degrades.len())
            .map(|i| degrade_root.fork(i as u64))
            .collect();
        FaultPlan {
            packet_rng: root.fork(1),
            degrade_rngs,
            degrade_burst: vec![0; config.degrades.len()],
            config,
            stats: StatSet::new(),
        }
    }

    /// Fault counters: `messages_judged`, `drops`, `packets_dropped`,
    /// `crash_drops` (messages black-holed by a crash-stop failure), and
    /// the gray-failure family: `degraded_messages` (messages that crossed
    /// an active degrade, delivered or not), `degrade_extra_ns` (total
    /// added latency), `degrade_drops` (seeded loss/burst drops),
    /// `flap_drops` (deterministic flap-down drops).
    pub fn stats(&self) -> &StatSet {
        &self.stats
    }

    /// Judge one message against every degrade spec in `spec_idxs`
    /// (indices into `config.degrades`, resolved by the fabric from the
    /// message's route). Accumulates extra latency across specs; the
    /// first drop verdict wins but later specs still draw, so verdicts on
    /// one spec never depend on another's outcome. Counts
    /// `degraded_messages`/`degrade_extra_ns` here; drop counting is
    /// deferred to [`FaultPlan::judge`], because the lossless fabric path
    /// applies latency only and must not count drops it does not take.
    pub fn judge_degrades(
        &mut self,
        now: SimTime,
        spec_idxs: impl IntoIterator<Item = u32>,
    ) -> DegradeEffect {
        let now_ns = now.as_ps() / 1000;
        let mut effect = DegradeEffect::default();
        let mut touched = false;
        for idx in spec_idxs {
            let idx = idx as usize;
            let spec = self.config.degrades[idx];
            if !spec.active_at(now_ns) {
                continue;
            }
            touched = true;
            if spec.flap_down_at(now_ns) {
                // Hard-down window: deterministic, no randomness consumed,
                // and no latency charged (nothing transits).
                effect.drop = effect.drop.or(Some(DegradeDrop::Flap));
                continue;
            }
            if self.degrade_burst[idx] > 0 {
                self.degrade_burst[idx] -= 1;
                effect.drop = effect.drop.or(Some(DegradeDrop::Loss));
                continue;
            }
            if spec.loss > 0.0 && self.degrade_rngs[idx].unit_f64() < spec.loss {
                self.degrade_burst[idx] = spec.burst_len.saturating_sub(1);
                effect.drop = effect.drop.or(Some(DegradeDrop::Loss));
                continue;
            }
            let mut extra = spec.extra_latency_ns;
            if spec.jitter_ns > 0 {
                extra += (self.degrade_rngs[idx].unit_f64() * spec.jitter_ns as f64) as u64;
            }
            effect.extra_ns += extra;
        }
        if touched {
            self.stats.inc("degraded_messages");
            if effect.extra_ns > 0 {
                self.stats.add("degrade_extra_ns", effect.extra_ns);
            }
        }
        effect
    }

    /// The one verdict on a non-loopback message of `packets` packets sent
    /// at `now`, given the route facts the fabric resolved: `route_dead`
    /// (the route crosses a crashed graph edge, or withdrawals left the
    /// pair unroutable) and `degrade_drop` (the drop verdict
    /// [`FaultPlan::judge_degrades`] already drew). Precedence: a crash on
    /// the route or the pair, then the degrade drop, then the loss draw.
    /// Only the loss draw consumes randomness here, so layering a crash
    /// onto a seeded-loss run leaves every surviving path's draws
    /// untouched. With faults disabled this draws nothing and mutates
    /// nothing.
    pub fn judge(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        packets: u64,
        route_dead: bool,
        degrade_drop: Option<DegradeDrop>,
    ) -> Delivery {
        if self.config.is_none() {
            return Delivery::Delivered;
        }
        self.stats.inc("messages_judged");

        if route_dead || (!self.config.crashes.is_empty() && self.link_dead(now, src, dst)) {
            self.stats.inc("drops");
            self.stats.inc("crash_drops");
            return Delivery::Dropped;
        }

        if let Some(kind) = degrade_drop {
            self.stats.inc("drops");
            self.stats.inc(match kind {
                DegradeDrop::Flap => "flap_drops",
                DegradeDrop::Loss => "degrade_drops",
            });
            return Delivery::Dropped;
        }

        if self.config.packet_loss > 0.0 {
            let mut lost = 0u64;
            for _ in 0..packets {
                if self.packet_rng.unit_f64() < self.config.packet_loss {
                    lost += 1;
                }
            }
            if lost > 0 {
                self.stats.inc("drops");
                self.stats.add("packets_dropped", lost);
                return Delivery::Dropped;
            }
        }

        Delivery::Delivered
    }

    /// Has the `src → dst` path been severed by a crash at or before `now`?
    pub fn link_dead(&self, now: SimTime, src: NodeId, dst: NodeId) -> bool {
        self.config
            .link_down_at(src.0, dst.0)
            .is_some_and(|at| now >= SimTime::from_ns(at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Judge one message on a route with no crashed edge and no degrade
    /// drop.
    fn judge(plan: &mut FaultPlan, ns: u64, src: u32, dst: u32, packets: u64) -> Delivery {
        plan.judge(
            SimTime::from_ns(ns),
            NodeId(src),
            NodeId(dst),
            packets,
            false,
            None,
        )
    }

    fn judge_n(plan: &mut FaultPlan, n: usize) -> Vec<Delivery> {
        (0..n as u64)
            .map(|i| judge(plan, i * 500, 0, 1, 4))
            .collect()
    }

    #[test]
    fn culprit_extraction_covers_every_component() {
        let culprit = |component| {
            CrashSpec {
                component,
                at_ns: 0,
            }
            .culprit()
        };
        assert_eq!(culprit(CrashComponent::Node(3)), 3);
        assert_eq!(culprit(CrashComponent::Nic(1)), 1);
        assert_eq!(culprit(CrashComponent::Link { a: 4, b: 2 }), 2);
        assert_eq!(culprit(CrashComponent::Edge { a: 9, b: 5 }), 5);
    }

    #[test]
    fn disabled_plan_never_faults_and_never_counts() {
        let mut plan = FaultPlan::new(FaultConfig::none());
        assert!(judge_n(&mut plan, 1000)
            .iter()
            .all(|&d| d == Delivery::Delivered));
        assert_eq!(plan.stats().counters().count(), 0);
    }

    #[test]
    fn same_seed_same_verdicts() {
        let cfg = FaultConfig::loss(42, 0.05);
        let mut a = FaultPlan::new(cfg.clone());
        let mut b = FaultPlan::new(cfg);
        assert_eq!(judge_n(&mut a, 2000), judge_n(&mut b, 2000));
    }

    #[test]
    fn loss_rate_is_roughly_honoured() {
        let mut plan = FaultPlan::new(FaultConfig::loss(7, 0.01));
        let verdicts = judge_n(&mut plan, 10_000);
        let dropped = verdicts.iter().filter(|&&d| d == Delivery::Dropped).count();
        // 4 packets/message at 1%: P(drop) ≈ 3.94%. Allow wide slack.
        assert!((200..=600).contains(&dropped), "dropped {dropped}");
        assert_eq!(plan.stats().counter("drops"), dropped as u64);
        assert!(plan.stats().counter("packets_dropped") >= dropped as u64);
    }

    #[test]
    fn node_crash_black_holes_both_directions_from_its_time() {
        let mut plan = FaultPlan::new(FaultConfig::crash(1, 5_000));
        assert_eq!(judge(&mut plan, 4_999, 0, 1, 4), Delivery::Delivered);
        assert_eq!(judge(&mut plan, 5_000, 0, 1, 4), Delivery::Dropped);
        assert_eq!(judge(&mut plan, 9_000, 1, 0, 4), Delivery::Dropped);
        // Paths not touching the dead node survive.
        assert_eq!(judge(&mut plan, 9_000, 0, 2, 4), Delivery::Delivered);
        assert_eq!(plan.stats().counter("crash_drops"), 2);
        assert_eq!(plan.stats().counter("drops"), 2);
    }

    #[test]
    fn link_crash_kills_only_the_named_pair() {
        let mut plan = FaultPlan::new(FaultConfig::crash_link(0, 2, 1_000));
        assert_eq!(judge(&mut plan, 2_000, 0, 2, 1), Delivery::Dropped);
        assert_eq!(judge(&mut plan, 2_000, 2, 0, 1), Delivery::Dropped);
        assert_eq!(judge(&mut plan, 2_000, 0, 1, 1), Delivery::Delivered);
        assert_eq!(judge(&mut plan, 2_000, 2, 1, 1), Delivery::Delivered);
    }

    #[test]
    fn crash_queries_distinguish_nic_from_node() {
        let cfg = FaultConfig::crash_nic(3, 7_000);
        // A NIC crash severs the network but leaves compute alive.
        assert_eq!(cfg.node_down_at(3), None);
        assert_eq!(cfg.nic_down_at(3), Some(7_000));
        assert_eq!(cfg.link_down_at(3, 0), Some(7_000));
        assert_eq!(cfg.link_down_at(0, 3), Some(7_000));
        assert_eq!(cfg.link_down_at(0, 1), None);
        let whole = FaultConfig::crash(3, 7_000);
        assert_eq!(whole.node_down_at(3), Some(7_000));
        assert_eq!(whole.nic_down_at(3), Some(7_000));
        // Earliest crash wins when several name the same component.
        let twice = FaultConfig::crash(3, 9_000).with_crash(CrashComponent::Node(3), 4_000);
        assert_eq!(twice.node_down_at(3), Some(4_000));
    }

    #[test]
    fn crash_layered_on_loss_leaves_surviving_draws_untouched() {
        // The same seeded loss stream, with and without an added crash on
        // an *unrelated* pair: verdicts on the surviving pair must match
        // draw-for-draw (crashes consume no randomness).
        let mut plain = FaultPlan::new(FaultConfig::loss(9, 0.2));
        let mut crashed = FaultPlan::new(FaultConfig {
            crashes: vec![CrashSpec {
                component: CrashComponent::Node(5),
                at_ns: 0,
            }],
            ..FaultConfig::loss(9, 0.2)
        });
        for i in 0..500u64 {
            assert_eq!(
                judge(&mut plain, i * 100, 0, 1, 4),
                judge(&mut crashed, i * 100, 0, 1, 4),
                "draw {i} diverged"
            );
        }
    }

    #[test]
    fn degrade_effects_are_seed_deterministic() {
        let spec = DegradeSpec::edge(8, 16).latency(500).jitter(2_000);
        let cfg = FaultConfig::degrade(17, spec);
        let mut a = FaultPlan::new(cfg.clone());
        let mut b = FaultPlan::new(cfg);
        let draw = |plan: &mut FaultPlan| {
            (0..500)
                .map(|i| plan.judge_degrades(SimTime::from_ns(i * 300), [0u32]))
                .collect::<Vec<_>>()
        };
        let ea = draw(&mut a);
        assert_eq!(ea, draw(&mut b));
        // Fixed latency is a floor; jitter stays under its bound.
        assert!(ea.iter().all(|e| e.drop.is_none()));
        assert!(ea.iter().all(|e| (500..2_500).contains(&e.extra_ns)));
        assert!(ea.iter().any(|e| e.extra_ns > 500), "jitter never fired");
        assert_eq!(a.stats().counter("degraded_messages"), 500);
    }

    #[test]
    fn flap_windows_are_phase_locked_and_random_free() {
        // 10 µs period, last 2 µs down, starting at 1 µs.
        let spec = DegradeSpec::edge(1, 2)
            .flapping(10_000, 2_000)
            .window(1_000, 0);
        let mut plan = FaultPlan::new(FaultConfig::degrade(0, spec));
        let down = |plan: &mut FaultPlan, ns: u64| {
            plan.judge_degrades(SimTime::from_ns(ns), [0u32]).drop == Some(DegradeDrop::Flap)
        };
        assert!(!down(&mut plan, 500)); // before the window opens
        assert!(!down(&mut plan, 1_000)); // phase 0: up
        assert!(!down(&mut plan, 8_999)); // phase 7999: still up
        assert!(down(&mut plan, 9_000)); // phase 8000: down
        assert!(down(&mut plan, 10_999)); // phase 9999: down
        assert!(!down(&mut plan, 11_000)); // next period, up again
        assert!(down(&mut plan, 19_000)); // and down again
        assert_eq!(plan.stats().counter("degraded_messages"), 6);
    }

    #[test]
    fn loss_bursts_extend_a_hit_into_consecutive_drops() {
        let spec = DegradeSpec::edge(1, 2).lossy(0.05, 4);
        let mut plan = FaultPlan::new(FaultConfig::degrade(23, spec));
        let drops: Vec<bool> = (0..4_000u64)
            .map(|i| {
                plan.judge_degrades(SimTime::from_ns(i * 100), [0u32])
                    .drop
                    .is_some()
            })
            .collect();
        // Every drop run is a multiple-of-burst length (back-to-back
        // bursts merge, so check divisibility, not equality).
        let mut run = 0u64;
        let mut total = 0u64;
        for &d in drops.iter().chain([false].iter()) {
            if d {
                run += 1;
                total += 1;
            } else {
                assert_eq!(run % 4, 0, "burst of length {run}");
                run = 0;
            }
        }
        // ~5% trigger × 4-long bursts ≈ 18% drop rate; allow wide slack.
        assert!((400..=1_200).contains(&total), "dropped {total}");
        assert_eq!(plan.stats().counter("degraded_messages"), 4_000);
    }

    #[test]
    fn degrade_window_closes_and_the_link_heals() {
        let spec = DegradeSpec::edge(1, 2).latency(1_000).window(2_000, 5_000);
        let mut plan = FaultPlan::new(FaultConfig::degrade(0, spec));
        let extra = |plan: &mut FaultPlan, ns: u64| {
            plan.judge_degrades(SimTime::from_ns(ns), [0u32]).extra_ns
        };
        assert_eq!(extra(&mut plan, 1_999), 0);
        assert_eq!(extra(&mut plan, 2_000), 1_000);
        assert_eq!(extra(&mut plan, 4_999), 1_000);
        assert_eq!(extra(&mut plan, 5_000), 0);
    }

    #[test]
    fn degrades_do_not_reshuffle_loss_draws_on_healthy_paths() {
        // Same loss seed, one plan with an added (never-routed-over)
        // degrade: verdicts on the healthy pair must match draw-for-draw,
        // because each degrade owns a forked stream.
        let mut plain = FaultPlan::new(FaultConfig::loss(9, 0.2));
        let mut degraded = FaultPlan::new(
            FaultConfig::loss(9, 0.2).with_degrade(DegradeSpec::edge(3, 4).jitter(5_000)),
        );
        for i in 0..500u64 {
            // The degraded plan keeps drawing jitter on its own stream...
            degraded.judge_degrades(SimTime::from_ns(i * 100), [0u32]);
            // ...while the shared pair's loss verdicts stay identical.
            assert_eq!(
                judge(&mut plain, i * 100, 0, 1, 4),
                judge(&mut degraded, i * 100, 0, 1, 4),
                "draw {i} diverged"
            );
        }
    }

    #[test]
    fn degraded_drop_verdicts_count_by_kind_and_crash_outranks() {
        let cfg = FaultConfig::degrade(0, DegradeSpec::edge(1, 2).lossy(1.0, 0))
            .with_crash(CrashComponent::Node(5), 1_000);
        let mut plan = FaultPlan::new(cfg);
        let now = SimTime::from_ns(2_000);
        // Degrade drop on a surviving pair: counted as degrade_drops.
        let effect = plan.judge_degrades(now, [0u32]);
        assert_eq!(effect.drop, Some(DegradeDrop::Loss));
        assert_eq!(
            plan.judge(now, NodeId(0), NodeId(1), 1, false, effect.drop),
            Delivery::Dropped
        );
        assert_eq!(plan.stats().counter("degrade_drops"), 1);
        // Same drop verdict on a crashed pair: the crash takes the blame.
        assert_eq!(
            plan.judge(now, NodeId(0), NodeId(5), 1, false, effect.drop),
            Delivery::Dropped
        );
        assert_eq!(plan.stats().counter("crash_drops"), 1);
        assert_eq!(plan.stats().counter("degrade_drops"), 1);
        // So does a dead route on a surviving pair.
        assert_eq!(
            plan.judge(now, NodeId(0), NodeId(1), 1, true, effect.drop),
            Delivery::Dropped
        );
        assert_eq!(plan.stats().counter("crash_drops"), 2);
        assert_eq!(plan.stats().counter("degrade_drops"), 1);
        // Flap drops are tallied separately.
        assert_eq!(
            plan.judge(now, NodeId(0), NodeId(1), 1, false, Some(DegradeDrop::Flap)),
            Delivery::Dropped
        );
        assert_eq!(plan.stats().counter("flap_drops"), 1);
        assert_eq!(plan.stats().counter("drops"), 4);
        assert_eq!(plan.stats().counter("messages_judged"), 4);
    }

    #[test]
    fn degrade_validation_rejects_bad_specs() {
        let ok = |s: DegradeSpec| FaultConfig::none().with_degrade(s).validate();
        assert!(ok(DegradeSpec::edge(0, 1).latency(100).jitter(50)).is_ok());
        assert!(ok(DegradeSpec::nic(3).lossy(0.2, 8)).is_ok());
        assert!(ok(DegradeSpec::edge(0, 1).flapping(1_000, 200)).is_ok());
        assert!(ok(DegradeSpec::edge(0, 1).lossy(1.5, 0)).is_err());
        assert!(ok(DegradeSpec::edge(0, 1).window(500, 500)).is_err());
        // Down ≥ period would be a permanent cut wearing a flap costume.
        assert!(ok(DegradeSpec::edge(0, 1).flapping(200, 200)).is_err());
        assert!(ok(DegradeSpec::edge(0, 1).flapping(200, 0)).is_err());
    }

    #[test]
    fn validation_rejects_bad_probabilities() {
        // 1.0 is legal (a dead link, used to test retry exhaustion)...
        assert!(FaultConfig {
            packet_loss: 1.0,
            ..FaultConfig::none()
        }
        .validate()
        .is_ok());
        // ...but beyond-certainty and negative probabilities are not.
        assert!(FaultConfig {
            packet_loss: 1.1,
            ..FaultConfig::none()
        }
        .validate()
        .is_err());
        assert!(FaultConfig {
            packet_loss: -0.1,
            ..FaultConfig::none()
        }
        .validate()
        .is_err());
        assert!(FaultConfig::none().validate().is_ok());
        assert!(FaultConfig::loss(1, 0.01).validate().is_ok());
    }
}
