//! The trigger list: tag-matched counters gating pre-registered operations.
//!
//! This module implements the semantics of §3.1 (tag / counter / threshold
//! matching) and §3.2 (relaxed synchronization — GPU triggers may precede
//! the CPU post). It is pure state: the [`crate::nic::Nic`] wraps it with
//! FIFO timing and DMA/fabric effects, so every matching rule is unit- and
//! property-testable here in isolation.
//!
//! ### Spill to host memory
//!
//! A capacity-bounded lookup (the paper's 16-way CAM, §3.3) no longer
//! rejects inserts outright: entries beyond the CAM's capacity **spill**
//! into a host-memory overflow table, matching Portals-4's
//! spill-to-host handling of resource exhaustion. Spilled entries keep
//! exact tag-match semantics — only the *match cost* differs (the NIC
//! charges [`crate::config::NicConfig::spill_match_extra_ns`] for tags
//! that resolve to the overflow table). As CAM entries retire, spilled
//! entries are **promoted** back in, lowest tag first (deterministic).
//! Only when the overflow table itself is full does registration fail
//! with [`TriggerError::CapacityExceeded`].
//!
//! Each partition keeps its spilled tags in a sorted deque, boxed on its
//! first spill, so a promotion pops the lowest tag instead of scanning
//! the overflow table. Tags that arrive in rising order, as the serving
//! workload's do (`gtn_core::tenancy::TenantMap` numbers each partition's
//! jobs in arrival order), spill onto the back and promote or fire off
//! the front, O(1) each; any other tag takes a binary-search insert or
//! removal. Unbounded lookups never spill and never box one. Both tiers
//! hash tags with the simulator's keyed mix
//! ([`gtn_sim::hash::MixState`]), one SplitMix64 round per tag, with keys
//! drawn per list from a sequence that every process repeats.

use crate::dynamic::DynFields;
use crate::lookup::LookupKind;
use crate::op::{NetOp, Tag};
use gtn_sim::hash::HashMap;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// One partition's spilled tags, ascending: the front is the next to
/// promote. Rising tags push and pop at the ends; others binary-search.
#[derive(Debug, Clone, Default)]
struct SpillQueue(VecDeque<u64>);

impl SpillQueue {
    /// Queue `tag`, which is not queued yet.
    fn insert(&mut self, tag: u64) {
        match self.0.back() {
            Some(&last) if last > tag => {
                let at = self.0.partition_point(|&t| t < tag);
                debug_assert_ne!(self.0.get(at), Some(&tag), "{tag} queued twice");
                self.0.insert(at, tag);
            }
            _ => {
                debug_assert_ne!(self.0.back(), Some(&tag), "{tag} queued twice");
                self.0.push_back(tag);
            }
        }
    }

    /// Dequeue `tag`; false when it was not queued.
    fn remove(&mut self, tag: u64) -> bool {
        if self.0.front() == Some(&tag) {
            self.0.pop_front();
            return true;
        }
        match self.0.binary_search(&tag) {
            Ok(at) => {
                self.0.remove(at);
                true
            }
            Err(_) => false,
        }
    }
}

/// Static partitioning of the trigger list across tenants.
///
/// Multi-tenant serving slices the CAM into `partitions` equal shares
/// (ways are distributed round-robin, lowest partitions first when they
/// do not divide evenly) so one tenant's burst cannot evict another
/// tenant's armed entries. A tag belongs to partition `tag % partitions`
/// — tenancy layers encode the tenant's partition into the tag's low
/// bits (see `gtn_core::tenancy`). `depth` is an admission-control bound
/// on *active* entries (CAM + overflow) per partition: inserts past it
/// are **shed** — counted, reported, never a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TriggerPartitions {
    /// Number of equal CAM shares (>= 1). `1` means unpartitioned.
    pub partitions: u32,
    /// Max active entries per partition before new inserts are shed;
    /// `None` disables admission control (spill/reject semantics only).
    pub depth: Option<u64>,
}

impl TriggerPartitions {
    /// The unpartitioned configuration: one partition, no admission bound.
    /// Behavior is bit-identical to a pre-partitioning trigger list.
    pub const NONE: TriggerPartitions = TriggerPartitions {
        partitions: 1,
        depth: None,
    };

    /// Validate invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.partitions == 0 {
            return Err("trigger partitions must be >= 1".into());
        }
        if self.depth == Some(0) {
            return Err("partition admission depth must be >= 1 (or None)".into());
        }
        Ok(())
    }
}

impl Default for TriggerPartitions {
    fn default() -> Self {
        TriggerPartitions::NONE
    }
}

/// One trigger entry (§3.1): "Network Operation, Tag, Counter, Threshold".
///
/// Under relaxed synchronization the operation and threshold may be absent:
/// the entry then only accumulates counts until the CPU's post arrives.
#[derive(Debug, Clone, PartialEq)]
pub struct TriggerEntry {
    /// Unique identifier for this entry.
    pub tag: Tag,
    /// Number of matching trigger-address writes collected so far.
    pub counter: u64,
    /// Writes to collect before initiating the operation; `None` until the
    /// CPU registers the operation (§3.2).
    pub threshold: Option<u64>,
    /// The pre-built network operation; `None` until registered.
    pub op: Option<NetOp>,
    /// Field overrides accumulated from dynamic trigger writes (§3.4
    /// extension); applied to `op` at fire time.
    pub overrides: DynFields,
}

impl TriggerEntry {
    /// True if the entry is armed (has an operation) and its counter has
    /// reached the threshold.
    fn ready(&self) -> bool {
        match (self.threshold, &self.op) {
            (Some(t), Some(_)) => self.counter >= t,
            _ => false,
        }
    }
}

/// A trigger entry whose condition has been met: the NIC should now execute
/// `op`.
#[derive(Debug, Clone, PartialEq)]
pub struct Fired {
    /// Tag of the entry that fired.
    pub tag: Tag,
    /// Counter value at fire time.
    pub counter: u64,
    /// The operation to execute.
    pub op: NetOp,
}

/// Registration/trigger failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TriggerError {
    /// An armed entry with this tag already exists; tags identify entries
    /// uniquely (§3.1).
    DuplicateTag(Tag),
    /// Both the associative lookup (§3.3) *and* the host-memory overflow
    /// table are full: the NIC genuinely has nowhere left to put the
    /// entry.
    CapacityExceeded {
        /// Total capacity (CAM ways + overflow table).
        capacity: usize,
        /// The tag that could not be inserted.
        tag: Tag,
    },
    /// A registration supplied a zero threshold, which would make the
    /// operation fire before any trigger — use a direct post instead.
    ZeroThreshold(Tag),
    /// The tag's partition is at its admission-control depth
    /// ([`TriggerPartitions::depth`]): the entry was shed to protect
    /// already-admitted work. Expected under overload — count it, back
    /// off, retry later.
    AdmissionShed {
        /// The tag that was shed.
        tag: Tag,
        /// Partition the tag maps to (`tag % partitions`).
        partition: u32,
        /// The configured per-partition depth that was reached.
        depth: u64,
    },
}

impl fmt::Display for TriggerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TriggerError::DuplicateTag(t) => write!(f, "trigger entry {t} already armed"),
            TriggerError::CapacityExceeded { capacity, tag } => write!(
                f,
                "trigger list full (CAM + overflow, {capacity} entries) inserting {tag}; \
                 raise the overflow capacity or retire entries first"
            ),
            TriggerError::ZeroThreshold(t) => {
                write!(f, "{t}: threshold must be >= 1 (use a direct post)")
            }
            TriggerError::AdmissionShed {
                tag,
                partition,
                depth,
            } => write!(
                f,
                "{tag} shed: trigger partition {partition} at admission depth {depth}"
            ),
        }
    }
}

impl std::error::Error for TriggerError {}

/// Default capacity of the host-memory overflow (spill) table. Host
/// memory is cheap: generous enough that only a pathological workload
/// ever sees [`TriggerError::CapacityExceeded`].
pub const DEFAULT_OVERFLOW_CAPACITY: usize = 65_536;

/// The NIC's list of registered trigger entries.
///
/// Functionally a map from tag to entry regardless of [`LookupKind`]; the
/// lookup kind contributes the per-match *cost* (consumed by the NIC's FIFO
/// drain loop) and the *capacity* of the fast CAM tier. Entries past that
/// capacity live in the host-memory overflow table (see the module docs).
#[derive(Debug)]
pub struct TriggerList {
    entries: HashMap<u64, TriggerEntry>,
    /// Host-memory spill table: same semantics, slower matches.
    overflow: HashMap<u64, TriggerEntry>,
    overflow_capacity: usize,
    kind: LookupKind,
    parts: TriggerPartitions,
    /// CAM-resident entries per partition (indexes `0..parts.partitions`).
    cam_counts: Vec<usize>,
    /// Overflow-resident tags per partition; `None` until its first spill.
    spill_queues: Vec<Option<Box<SpillQueue>>>,
    fired_total: u64,
    early_allocations: u64,
    spills: u64,
    promotions: u64,
    shed: u64,
    rejected_capacity: u64,
    rejected_duplicate: u64,
    rejected_zero_threshold: u64,
}

impl TriggerList {
    /// An empty list using `kind` for lookups, with the default overflow
    /// table capacity.
    pub fn new(kind: LookupKind) -> Self {
        Self::with_overflow(kind, DEFAULT_OVERFLOW_CAPACITY)
    }

    /// An empty list with an explicit overflow-table capacity (tests and
    /// resource-pressure scenarios shrink it to force exhaustion).
    pub fn with_overflow(kind: LookupKind, overflow_capacity: usize) -> Self {
        Self::with_partitions(kind, overflow_capacity, TriggerPartitions::NONE)
    }

    /// An empty list whose CAM is statically partitioned (multi-tenant
    /// serving). With [`TriggerPartitions::NONE`] this is bit-identical
    /// to [`TriggerList::with_overflow`].
    pub fn with_partitions(
        kind: LookupKind,
        overflow_capacity: usize,
        parts: TriggerPartitions,
    ) -> Self {
        assert!(parts.partitions >= 1, "trigger partitions must be >= 1");
        let n = parts.partitions as usize;
        TriggerList {
            entries: HashMap::default(),
            overflow: HashMap::default(),
            overflow_capacity,
            kind,
            parts,
            cam_counts: vec![0; n],
            spill_queues: vec![None; n],
            fired_total: 0,
            early_allocations: 0,
            spills: 0,
            promotions: 0,
            shed: 0,
            rejected_capacity: 0,
            rejected_duplicate: 0,
            rejected_zero_threshold: 0,
        }
    }

    /// Number of simultaneously active entries (CAM + overflow).
    pub fn active(&self) -> usize {
        self.entries.len() + self.overflow.len()
    }

    /// Entries currently resident in the fast (CAM) tier.
    pub fn cam_len(&self) -> usize {
        self.entries.len()
    }

    /// Entries currently spilled to the host-memory overflow table.
    pub fn overflow_len(&self) -> usize {
        self.overflow.len()
    }

    /// Total entries that spilled to the overflow table.
    pub fn spills(&self) -> u64 {
        self.spills
    }

    /// Total entries promoted from the overflow table back into the CAM.
    pub fn promotions(&self) -> u64 {
        self.promotions
    }

    /// Total operations fired since construction.
    pub fn fired_total(&self) -> u64 {
        self.fired_total
    }

    /// Entries allocated by GPU writes before the CPU post (relaxed-sync
    /// path, §3.2).
    pub fn early_allocations(&self) -> u64 {
        self.early_allocations
    }

    /// Cost of one tag match at the current occupancy.
    pub fn match_cost(&self) -> gtn_sim::time::SimDuration {
        self.kind.match_cost(self.active())
    }

    /// True if matching `tag` would touch the host-memory overflow table:
    /// either the entry lives there, or the tag is unknown and a full
    /// partition would force its allocation to spill. The NIC charges the
    /// spill surcharge for such matches.
    pub fn resolves_to_overflow(&self, tag: Tag) -> bool {
        if self.entries.contains_key(&tag.0) {
            return false;
        }
        self.overflow.contains_key(&tag.0) || self.cam_full_in(self.partition_of(tag))
    }

    /// The partition `tag` maps to: `tag % partitions`.
    pub fn partition_of(&self, tag: Tag) -> u32 {
        (tag.0 % u64::from(self.parts.partitions)) as u32
    }

    /// The partition configuration in effect.
    pub fn partitions(&self) -> TriggerPartitions {
        self.parts
    }

    /// CAM ways assigned to partition `p`: the total ways divided evenly,
    /// with the first `ways % partitions` partitions taking one extra.
    /// Unbounded lookup kinds have no CAM tier, so every partition is
    /// unbounded too.
    pub fn cam_capacity_of(&self, p: u32) -> usize {
        match self.kind.capacity() {
            None => usize::MAX,
            Some(ways) => {
                let n = self.parts.partitions as usize;
                ways / n + usize::from((p as usize) < ways % n)
            }
        }
    }

    /// Active entries (CAM + overflow) currently held by partition `p`.
    pub fn active_in_partition(&self, p: u32) -> usize {
        let spilled = self.spill_queues[p as usize]
            .as_ref()
            .map_or(0, |q| q.0.len());
        self.cam_counts[p as usize] + spilled
    }

    fn cam_full_in(&self, p: u32) -> bool {
        self.cam_counts[p as usize] >= self.cam_capacity_of(p)
    }

    /// Borrow an entry (tests and diagnostics).
    pub fn entry(&self, tag: Tag) -> Option<&TriggerEntry> {
        self.entries
            .get(&tag.0)
            .or_else(|| self.overflow.get(&tag.0))
    }

    /// Rejected registrations and writes, by cause:
    /// `(capacity_exceeded, duplicate_tag, zero_threshold)`.
    pub fn rejections(&self) -> (u64, u64, u64) {
        (
            self.rejected_capacity,
            self.rejected_duplicate,
            self.rejected_zero_threshold,
        )
    }

    /// Entries shed by per-partition admission control
    /// ([`TriggerPartitions::depth`]). Deliberately *not* part of
    /// [`TriggerList::rejections`]: a shed is expected overload behavior,
    /// not a resource-model error.
    pub fn admission_shed(&self) -> u64 {
        self.shed
    }

    /// Snapshot of the still-pending entries for diagnostics, sorted by
    /// tag: `(tag, counter, threshold, armed)`. A stalled node's list shows
    /// exactly which matches it is still waiting for.
    pub fn pending_entries(&self) -> Vec<(Tag, u64, Option<u64>, bool)> {
        let mut v: Vec<_> = self
            .entries
            .values()
            .chain(self.overflow.values())
            .map(|e| (e.tag, e.counter, e.threshold, e.op.is_some()))
            .collect();
        v.sort_unstable_by_key(|&(tag, ..)| tag.0);
        v
    }

    fn entry_mut(&mut self, tag: Tag) -> Option<&mut TriggerEntry> {
        let TriggerList {
            entries, overflow, ..
        } = self;
        entries.get_mut(&tag.0).or_else(|| overflow.get_mut(&tag.0))
    }

    /// Place a brand-new entry in its tag's partition: admission check
    /// first, then CAM while the partition has room, otherwise spill to
    /// the overflow table, otherwise reject.
    fn insert_new(&mut self, tag: Tag, entry: TriggerEntry) -> Result<(), TriggerError> {
        let p = self.partition_of(tag);
        if let Some(depth) = self.parts.depth {
            if self.active_in_partition(p) as u64 >= depth {
                self.shed += 1;
                return Err(TriggerError::AdmissionShed {
                    tag,
                    partition: p,
                    depth,
                });
            }
        }
        if !self.cam_full_in(p) {
            self.entries.insert(tag.0, entry);
            self.cam_counts[p as usize] += 1;
            return Ok(());
        }
        if self.overflow.len() < self.overflow_capacity {
            self.spills += 1;
            self.overflow.insert(tag.0, entry);
            self.spill_queues[p as usize]
                .get_or_insert_with(Box::default)
                .insert(tag.0);
            return Ok(());
        }
        self.rejected_capacity += 1;
        Err(TriggerError::CapacityExceeded {
            capacity: self.kind.capacity().unwrap_or(0) + self.overflow_capacity,
            tag,
        })
    }

    /// Retiring a CAM entry frees slots in its partition: move that
    /// partition's overflow entries back into the fast tier, lowest tag
    /// first (deterministic order).
    fn promote_in(&mut self, p: u32) {
        let cap = self.cam_capacity_of(p);
        let Some(queue) = self.spill_queues[p as usize].as_deref_mut() else {
            return;
        };
        while self.cam_counts[p as usize] < cap {
            let Some(tag) = queue.0.pop_front() else {
                break;
            };
            let e = self.overflow.remove(&tag).expect("queued tag is spilled");
            self.entries.insert(tag, e);
            self.cam_counts[p as usize] += 1;
            self.promotions += 1;
        }
    }

    /// CPU-side registration of a triggered operation (§3.1 step 1 /
    /// Fig. 6 `TrigPut`).
    ///
    /// If a counter-only entry for `tag` already exists (the GPU triggered
    /// early — §3.2), the operation attaches to the existing counter; if
    /// that counter has already reached `threshold`, the operation fires
    /// immediately and `Ok(Some(Fired))` is returned.
    pub fn register(
        &mut self,
        tag: Tag,
        op: NetOp,
        threshold: u64,
    ) -> Result<Option<Fired>, TriggerError> {
        if threshold == 0 {
            self.rejected_zero_threshold += 1;
            return Err(TriggerError::ZeroThreshold(tag));
        }
        match self.entry_mut(tag) {
            Some(e) if e.op.is_some() => {
                self.rejected_duplicate += 1;
                Err(TriggerError::DuplicateTag(tag))
            }
            Some(e) => {
                // §3.2: "the new triggered operation is associated with the
                // existing counter. If the counter value is already greater
                // than or equal to the threshold, the network operation is
                // executed immediately."
                e.threshold = Some(threshold);
                e.op = Some(op);
                if e.ready() {
                    let fired = self.take_fired(tag);
                    Ok(Some(fired))
                } else {
                    Ok(None)
                }
            }
            None => {
                self.insert_new(
                    tag,
                    TriggerEntry {
                        tag,
                        counter: 0,
                        threshold: Some(threshold),
                        op: Some(op),
                        overrides: DynFields::NONE,
                    },
                )?;
                Ok(None)
            }
        }
    }

    /// A tag write popped out of the trigger FIFO (§3.1 step 3).
    ///
    /// Increments the matching entry's counter, allocating a counter-only
    /// entry if the tag is unknown (§3.2). Returns the fired operation if
    /// the threshold is met.
    pub fn trigger(&mut self, tag: Tag) -> Result<Option<Fired>, TriggerError> {
        self.trigger_dyn(tag, DynFields::NONE)
    }

    /// A *dynamic* tag write (§3.4 extension): like [`TriggerList::trigger`]
    /// but carrying field overrides that are merged into the entry and
    /// applied to the template operation at fire time. Later writes win
    /// field-wise.
    pub fn trigger_dyn(
        &mut self,
        tag: Tag,
        fields: DynFields,
    ) -> Result<Option<Fired>, TriggerError> {
        match self.entry_mut(tag) {
            Some(e) => {
                e.counter += 1;
                e.overrides.merge(fields);
                if e.ready() {
                    Ok(Some(self.take_fired(tag)))
                } else {
                    Ok(None)
                }
            }
            None => {
                // §3.2: "the NIC allocates a trigger entry for this tag
                // without a corresponding network operation or threshold."
                self.insert_new(
                    tag,
                    TriggerEntry {
                        tag,
                        counter: 1,
                        threshold: None,
                        op: None,
                        overrides: fields,
                    },
                )?;
                self.early_allocations += 1;
                Ok(None)
            }
        }
    }

    /// Remove a ready entry and produce its `Fired` record. Entries are
    /// one-shot: a fired tag leaves the list (re-triggering the same tag
    /// later allocates a fresh counter-only entry). Retiring a CAM entry
    /// promotes waiting overflow entries into the freed slots.
    fn take_fired(&mut self, tag: Tag) -> Fired {
        let p = self.partition_of(tag);
        let e = if let Some(e) = self.entries.remove(&tag.0) {
            self.cam_counts[p as usize] -= 1;
            self.promote_in(p);
            e
        } else {
            let e = self.overflow.remove(&tag.0).expect("ready entry exists");
            let queued = self.spill_queues[p as usize]
                .as_deref_mut()
                .is_some_and(|q| q.remove(tag.0));
            debug_assert!(queued, "spilled {tag} missing from its queue");
            e
        };
        self.fired_total += 1;
        let mut op = e.op.expect("ready entry has op");
        e.overrides.apply(&mut op);
        Fired {
            tag,
            counter: e.counter,
            op,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtn_mem::{Addr, NodeId, RegionId};
    use gtn_sim::hash::MixState;
    use std::collections::hash_map::RandomState;
    use std::hash::BuildHasher;

    fn put() -> NetOp {
        NetOp::Put {
            src: Addr::base(NodeId(0), RegionId(0)),
            len: 64,
            target: NodeId(1),
            dst: Addr::base(NodeId(1), RegionId(0)),
            notify: None,
            completion: None,
        }
    }

    fn list() -> TriggerList {
        TriggerList::new(LookupKind::Associative { ways: 16 })
    }

    #[test]
    fn threshold_one_fires_on_first_trigger() {
        let mut l = list();
        assert_eq!(l.register(Tag(1), put(), 1), Ok(None));
        let fired = l.trigger(Tag(1)).unwrap().expect("fires");
        assert_eq!(fired.tag, Tag(1));
        assert_eq!(fired.counter, 1);
        assert_eq!(l.active(), 0, "entries are one-shot");
        assert_eq!(l.fired_total(), 1);
    }

    #[test]
    fn threshold_n_counts_writes() {
        let mut l = list();
        l.register(Tag(5), put(), 3).unwrap();
        assert_eq!(l.trigger(Tag(5)).unwrap(), None);
        assert_eq!(l.trigger(Tag(5)).unwrap(), None);
        let fired = l.trigger(Tag(5)).unwrap().expect("third write fires");
        assert_eq!(fired.counter, 3);
    }

    #[test]
    fn relaxed_sync_trigger_before_post() {
        // §3.2 scenario: GPU triggers twice, then the CPU posts with
        // threshold 2 -> fires immediately at registration.
        let mut l = list();
        assert_eq!(l.trigger(Tag(9)).unwrap(), None);
        assert_eq!(l.trigger(Tag(9)).unwrap(), None);
        assert_eq!(l.early_allocations(), 1);
        assert_eq!(l.entry(Tag(9)).unwrap().counter, 2);
        assert_eq!(l.entry(Tag(9)).unwrap().op, None);
        let fired = l
            .register(Tag(9), put(), 2)
            .unwrap()
            .expect("fires at post");
        assert_eq!(fired.counter, 2);
        assert_eq!(l.active(), 0);
    }

    #[test]
    fn relaxed_sync_partial_count_waits_for_remaining_triggers() {
        let mut l = list();
        l.trigger(Tag(9)).unwrap();
        assert_eq!(l.register(Tag(9), put(), 3).unwrap(), None, "1 of 3");
        assert_eq!(l.trigger(Tag(9)).unwrap(), None, "2 of 3");
        assert!(l.trigger(Tag(9)).unwrap().is_some(), "3 of 3 fires");
    }

    #[test]
    fn counter_overshoot_fires_once_at_post() {
        let mut l = list();
        for _ in 0..10 {
            l.trigger(Tag(2)).unwrap();
        }
        let fired = l.register(Tag(2), put(), 4).unwrap().expect("fires");
        assert_eq!(fired.counter, 10, "counter may exceed threshold");
        assert_eq!(l.fired_total(), 1);
    }

    #[test]
    fn duplicate_armed_tag_rejected() {
        let mut l = list();
        l.register(Tag(1), put(), 1).unwrap();
        assert_eq!(
            l.register(Tag(1), put(), 1),
            Err(TriggerError::DuplicateTag(Tag(1)))
        );
    }

    #[test]
    fn zero_threshold_rejected() {
        let mut l = list();
        assert_eq!(
            l.register(Tag(1), put(), 0),
            Err(TriggerError::ZeroThreshold(Tag(1)))
        );
    }

    #[test]
    fn associative_overflow_spills_instead_of_rejecting() {
        let mut l = TriggerList::new(LookupKind::Associative { ways: 2 });
        l.register(Tag(1), put(), 1).unwrap();
        l.register(Tag(2), put(), 1).unwrap();
        // Third post and an early trigger both land in the overflow table.
        assert_eq!(l.register(Tag(3), put(), 1), Ok(None));
        assert_eq!(l.trigger(Tag(4)).unwrap(), None);
        assert_eq!((l.cam_len(), l.overflow_len()), (2, 2));
        assert_eq!(l.spills(), 2);
        assert!(l.resolves_to_overflow(Tag(3)));
        assert!(!l.resolves_to_overflow(Tag(1)));
        // Spilled entries keep exact match semantics, firing straight from
        // the overflow table (retiring an overflow entry frees no CAM slot,
        // so nothing promotes yet).
        let fired = l.trigger(Tag(3)).unwrap().expect("spilled entry fires");
        assert_eq!(fired.tag, Tag(3));
        assert_eq!(l.promotions(), 0);
        assert_eq!((l.cam_len(), l.overflow_len()), (2, 1));
        // Retiring a CAM entry promotes the waiting overflow tag into it.
        l.trigger(Tag(1)).unwrap().expect("fires");
        assert_eq!(l.promotions(), 1);
        assert_eq!((l.cam_len(), l.overflow_len()), (2, 0));
        assert!(!l.resolves_to_overflow(Tag(4)));
    }

    #[test]
    fn exhausted_overflow_table_still_rejects() {
        let mut l = TriggerList::with_overflow(LookupKind::Associative { ways: 2 }, 1);
        l.register(Tag(1), put(), 1).unwrap();
        l.register(Tag(2), put(), 1).unwrap();
        l.register(Tag(3), put(), 1).unwrap(); // spills
        assert_eq!(
            l.register(Tag(4), put(), 1),
            Err(TriggerError::CapacityExceeded {
                capacity: 3,
                tag: Tag(4)
            })
        );
        assert!(matches!(
            l.trigger(Tag(5)),
            Err(TriggerError::CapacityExceeded { .. })
        ));
        assert_eq!(l.rejections().0, 2);
        // Firing a CAM entry frees a slot (promoting the spilled entry),
        // after which a new registration fits again.
        l.trigger(Tag(1)).unwrap().expect("fires");
        assert_eq!(l.promotions(), 1);
        assert!(l.register(Tag(4), put(), 1).is_ok());
    }

    #[test]
    fn promotion_preserves_counter_and_overrides() {
        let mut l = TriggerList::new(LookupKind::Associative { ways: 1 });
        l.register(Tag(1), put(), 1).unwrap();
        // Early triggers accumulate in a spilled counter-only entry.
        l.trigger(Tag(7)).unwrap();
        l.trigger(Tag(7)).unwrap();
        assert_eq!(l.overflow_len(), 1);
        // Retire the CAM entry: the spilled counter promotes intact.
        l.trigger(Tag(1)).unwrap().expect("fires");
        assert_eq!((l.cam_len(), l.overflow_len()), (1, 0));
        assert_eq!(l.entry(Tag(7)).unwrap().counter, 2);
        // A late post over the promoted counter fires immediately.
        let fired = l.register(Tag(7), put(), 2).unwrap().expect("fires");
        assert_eq!(fired.counter, 2);
    }

    #[test]
    fn unbounded_lookups_accept_many_entries() {
        for kind in [LookupKind::LinearList, LookupKind::HashTable] {
            let mut l = TriggerList::new(kind);
            for i in 0..1000 {
                l.register(Tag(i), put(), 1).unwrap();
            }
            assert_eq!(l.active(), 1000);
            assert!(l.match_cost() >= kind.match_cost(0));
        }
    }

    #[test]
    fn retrigger_after_fire_allocates_fresh_counter_entry() {
        let mut l = list();
        l.register(Tag(1), put(), 1).unwrap();
        l.trigger(Tag(1)).unwrap().expect("fires");
        // Late/extra write: becomes an early allocation for a future post.
        assert_eq!(l.trigger(Tag(1)).unwrap(), None);
        assert_eq!(l.entry(Tag(1)).unwrap().counter, 1);
        assert_eq!(l.entry(Tag(1)).unwrap().op, None);
    }

    #[test]
    fn partitioned_cam_splits_ways_and_isolates_tenants() {
        // 4 ways over 2 partitions: 2 ways each. Even tags -> partition 0,
        // odd tags -> partition 1.
        let parts = TriggerPartitions {
            partitions: 2,
            depth: None,
        };
        let mut l = TriggerList::with_partitions(LookupKind::Associative { ways: 4 }, 64, parts);
        assert_eq!(l.cam_capacity_of(0), 2);
        assert_eq!(l.cam_capacity_of(1), 2);
        // Fill partition 0 (even tags): the third even entry spills even
        // though partition 1's CAM share is empty — isolation.
        for t in [0, 2, 4] {
            l.register(Tag(t), put(), 1).unwrap();
        }
        assert_eq!(l.spills(), 1);
        assert!(l.resolves_to_overflow(Tag(4)));
        assert_eq!(l.active_in_partition(0), 3);
        // Partition 1 still has CAM room.
        l.register(Tag(1), put(), 1).unwrap();
        assert!(!l.resolves_to_overflow(Tag(1)));
        assert_eq!(l.spills(), 1);
        // Retiring a partition-0 CAM entry promotes partition 0's spill.
        l.trigger(Tag(0)).unwrap().expect("fires");
        assert_eq!(l.promotions(), 1);
        assert!(!l.resolves_to_overflow(Tag(4)));
    }

    #[test]
    fn uneven_ways_distribute_extra_to_low_partitions() {
        let parts = TriggerPartitions {
            partitions: 3,
            depth: None,
        };
        let l = TriggerList::with_partitions(LookupKind::Associative { ways: 16 }, 64, parts);
        assert_eq!(
            (
                l.cam_capacity_of(0),
                l.cam_capacity_of(1),
                l.cam_capacity_of(2)
            ),
            (6, 5, 5)
        );
        assert_eq!(l.partition_of(Tag(7)), 1);
    }

    #[test]
    fn admission_depth_sheds_new_entries_never_panics() {
        let parts = TriggerPartitions {
            partitions: 2,
            depth: Some(2),
        };
        let mut l = TriggerList::with_partitions(LookupKind::Associative { ways: 4 }, 64, parts);
        l.register(Tag(0), put(), 2).unwrap();
        l.register(Tag(2), put(), 1).unwrap();
        // Partition 0 is at depth: new registrations and early triggers
        // are shed; partition 1 is unaffected.
        assert_eq!(
            l.register(Tag(4), put(), 1),
            Err(TriggerError::AdmissionShed {
                tag: Tag(4),
                partition: 0,
                depth: 2,
            })
        );
        assert!(matches!(
            l.trigger(Tag(6)),
            Err(TriggerError::AdmissionShed { .. })
        ));
        assert_eq!(l.admission_shed(), 2);
        assert_eq!(l.rejections(), (0, 0, 0), "shed is not a rejection");
        l.register(Tag(1), put(), 1).unwrap();
        // Writes to *existing* entries are never shed.
        assert_eq!(l.trigger(Tag(0)).unwrap(), None);
        // Retiring an entry frees admission room again.
        l.trigger(Tag(2)).unwrap().expect("fires");
        assert!(l.register(Tag(4), put(), 1).is_ok());
    }

    #[test]
    fn zero_way_partitions_are_spill_only() {
        // More partitions than ways: partition 2 has no CAM share, so its
        // entries live (and fire) entirely from the overflow table.
        let parts = TriggerPartitions {
            partitions: 3,
            depth: None,
        };
        let mut l = TriggerList::with_partitions(LookupKind::Associative { ways: 2 }, 64, parts);
        assert_eq!(l.cam_capacity_of(2), 0);
        l.register(Tag(2), put(), 1).unwrap();
        assert!(l.resolves_to_overflow(Tag(2)));
        assert_eq!(l.spills(), 1);
        let fired = l.trigger(Tag(2)).unwrap().expect("fires from overflow");
        assert_eq!(fired.tag, Tag(2));
    }

    #[test]
    fn single_partition_matches_unpartitioned_behavior() {
        // TriggerPartitions::NONE must be bit-identical to the plain
        // constructor across a mixed spill/promote/fire interleaving.
        let mut a = TriggerList::with_overflow(LookupKind::Associative { ways: 2 }, 4);
        let mut b = TriggerList::with_partitions(
            LookupKind::Associative { ways: 2 },
            4,
            TriggerPartitions::NONE,
        );
        for l in [&mut a, &mut b] {
            for t in 0..5 {
                l.register(Tag(t), put(), 1).unwrap();
            }
            l.trigger(Tag(0)).unwrap().expect("fires");
            l.trigger(Tag(3)).unwrap().expect("fires");
        }
        assert_eq!(a.pending_entries(), b.pending_entries());
        assert_eq!(a.spills(), b.spills());
        assert_eq!(a.promotions(), b.promotions());
        assert_eq!(
            (a.cam_len(), a.overflow_len()),
            (b.cam_len(), b.overflow_len())
        );
    }

    #[test]
    fn partition_config_validation() {
        assert!(TriggerPartitions::NONE.validate().is_ok());
        assert!(TriggerPartitions {
            partitions: 0,
            depth: None
        }
        .validate()
        .is_err());
        assert!(TriggerPartitions {
            partitions: 4,
            depth: Some(0)
        }
        .validate()
        .is_err());
    }

    /// Fullest of `2^12` buckets over `tags`, indexed by the hash's low
    /// bits (the table's slot) and by its top bits (the control byte).
    fn fullest_buckets(hash: &MixState, tags: impl Iterator<Item = u64>) -> (usize, usize) {
        let (mut low, mut high) = (vec![0usize; 1 << 12], vec![0usize; 1 << 12]);
        for t in tags {
            let h = hash.hash_one(t);
            low[(h & 0xFFF) as usize] += 1;
            high[(h >> 52) as usize] += 1;
        }
        (
            low.into_iter().max().unwrap(),
            high.into_iter().max().unwrap(),
        )
    }

    #[test]
    fn tag_hash_spreads_serving_and_collective_tags() {
        // 2^16 tags over 2^12 buckets: a mean of 16 per bucket.
        let hash = MixState::default();
        let seqs = 0..1u64 << 16;
        for (name, (low, high)) in [
            // Serving: `seq * partitions + p`, one tenant partition...
            (
                "serving, one partition",
                fullest_buckets(&hash, seqs.clone().map(|seq| seq * 16)),
            ),
            // ...or all sixteen in turn.
            (
                "serving, 16 partitions",
                fullest_buckets(&hash, seqs.clone().map(|seq| seq * 16 + seq % 16)),
            ),
            // The collective executor numbers a rank's tags from zero.
            ("collective", fullest_buckets(&hash, seqs.clone())),
        ] {
            assert!(low <= 48 && high <= 48, "{name}: fullest {low}/{high}");
        }
    }

    #[test]
    fn tag_hashes_built_in_turn_get_different_keys() {
        let (a, b) = (MixState::default(), MixState::default());
        assert_ne!(a.hash_one(7u64), b.hash_one(7u64));
        // Same footprint as the default hasher, so no map or NIC grows.
        use std::mem::size_of;
        assert_eq!(size_of::<MixState>(), size_of::<RandomState>());
        assert_eq!(
            size_of::<HashMap<u64, TriggerEntry>>(),
            size_of::<std::collections::HashMap<u64, TriggerEntry>>()
        );
    }

    #[test]
    fn mixed_granularity_pairs_example() {
        // §4.2.3: one message per *pair* of work-items — threshold 2, half
        // as many tags. Simulate 8 work-items over 4 tags.
        let mut l = list();
        for t in 0..4 {
            l.register(Tag(t), put(), 2).unwrap();
        }
        let mut fired = 0;
        for wi in 0..8u64 {
            if l.trigger(Tag(wi / 2)).unwrap().is_some() {
                fired += 1;
            }
        }
        assert_eq!(fired, 4);
        assert_eq!(l.active(), 0);
    }
}
