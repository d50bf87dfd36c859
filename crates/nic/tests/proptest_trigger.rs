//! Property tests for the §3.1/§3.2 trigger semantics: under **any**
//! interleaving of CPU posts and GPU trigger writes, each registered
//! operation fires exactly once, exactly when its counter first reaches the
//! threshold — the core correctness claim of the GPU-TN NIC extension.
//!
//! The last two properties pin the spill and promotion contract of a
//! partitioned CAM against [`ScanModel`], the earlier implementation kept
//! verbatim: which spilled entry promotes, and every counter and
//! occupancy the NIC and the serving workload read — over random scripts,
//! and over tags spilled in ascending, descending and shuffled order.

use gtn_mem::{Addr, NodeId, RegionId};
use gtn_nic::dynamic::DynFields;
use gtn_nic::lookup::LookupKind;
use gtn_nic::op::{NetOp, Tag};
use gtn_nic::trigger::{Fired, TriggerEntry, TriggerError, TriggerList, TriggerPartitions};
use proptest::prelude::*;
use std::collections::HashMap;

fn dummy_put() -> NetOp {
    NetOp::Put {
        src: Addr::base(NodeId(0), RegionId(0)),
        len: 8,
        target: NodeId(1),
        dst: Addr::base(NodeId(1), RegionId(0)),
        notify: None,
        completion: None,
    }
}

/// One step of an interleaving.
#[derive(Debug, Clone)]
enum Step {
    /// CPU posts (tag_idx, threshold).
    Post(usize, u64),
    /// GPU writes tag_idx to the trigger address.
    Trigger(usize),
}

fn steps(n_tags: usize) -> impl Strategy<Value = Vec<Step>> {
    let step = prop_oneof![
        (0..n_tags, 1u64..6).prop_map(|(t, th)| Step::Post(t, th)),
        (0..n_tags).prop_map(Step::Trigger),
    ];
    prop::collection::vec(step, 1..120)
}

proptest! {
    /// Replaying any interleaving against a reference model: an op fires
    /// exactly once, at the first instant (post or trigger) where an armed
    /// entry's counter >= threshold.
    #[test]
    fn fires_exactly_once_at_threshold(script in steps(6)) {
        for kind in [LookupKind::LinearList, LookupKind::HashTable] {
            let mut list = TriggerList::new(kind);
            // Reference: per-tag (counter, threshold if armed, fired count).
            let mut counter = [0u64; 6];
            let mut armed: Vec<Option<u64>> = vec![None; 6];
            let mut fired = [0u32; 6];

            for step in &script {
                match *step {
                    Step::Post(t, th) => {
                        let res = list.register(Tag(t as u64), dummy_put(), th);
                        if armed[t].is_some() {
                            prop_assert!(res.is_err(), "duplicate armed tag must be rejected");
                            continue;
                        }
                        armed[t] = Some(th);
                        let r = res.unwrap();
                        if counter[t] >= th {
                            prop_assert!(r.is_some(), "late post over met counter fires");
                            prop_assert_eq!(r.unwrap().counter, counter[t]);
                            fired[t] += 1;
                            counter[t] = 0;
                            armed[t] = None;
                        } else {
                            prop_assert!(r.is_none());
                        }
                    }
                    Step::Trigger(t) => {
                        let r = list.trigger(Tag(t as u64)).unwrap();
                        counter[t] += 1;
                        match armed[t] {
                            Some(th) if counter[t] >= th => {
                                prop_assert!(r.is_some(), "threshold met must fire");
                                prop_assert_eq!(r.unwrap().counter, counter[t]);
                                fired[t] += 1;
                                counter[t] = 0;
                                armed[t] = None;
                            }
                            _ => prop_assert!(r.is_none(), "must not fire early"),
                        }
                    }
                }
            }
            prop_assert_eq!(list.fired_total(), fired.iter().map(|&f| f as u64).sum::<u64>());
        }
    }

    /// The lookup implementation never changes *functional* outcomes, only
    /// cost/capacity: linear and hash agree on every script.
    #[test]
    fn lookup_kinds_agree_functionally(script in steps(4)) {
        let run = |kind: LookupKind| {
            let mut list = TriggerList::new(kind);
            let mut log = Vec::new();
            for step in &script {
                let r = match *step {
                    Step::Post(t, th) => list
                        .register(Tag(t as u64), dummy_put(), th)
                        .map(|o| o.map(|f| (f.tag, f.counter)))
                        .map_err(|_| ()),
                    Step::Trigger(t) => list
                        .trigger(Tag(t as u64))
                        .map(|o| o.map(|f| (f.tag, f.counter)))
                        .map_err(|_| ()),
                };
                log.push(r);
            }
            (log, list.fired_total(), list.active())
        };
        prop_assert_eq!(run(LookupKind::LinearList), run(LookupKind::HashTable));
    }

    /// With a big-enough associative lookup, capacity never bites and the
    /// behaviour matches the unbounded kinds.
    #[test]
    fn associative_with_headroom_matches(script in steps(4)) {
        let run = |kind: LookupKind| {
            let mut list = TriggerList::new(kind);
            let mut log = Vec::new();
            for step in &script {
                let r = match *step {
                    Step::Post(t, th) => list
                        .register(Tag(t as u64), dummy_put(), th)
                        .map(|o| o.is_some())
                        .map_err(|_| ()),
                    Step::Trigger(t) => {
                        list.trigger(Tag(t as u64)).map(|o| o.is_some()).map_err(|_| ())
                    }
                };
                log.push(r);
            }
            log
        };
        prop_assert_eq!(
            run(LookupKind::Associative { ways: 16 }),
            run(LookupKind::HashTable)
        );
    }

    /// A CAM far too small for the script still agrees *functionally* with
    /// the unbounded hash lookup on every step — spilling to the host
    /// overflow table and promoting back as entries retire must preserve
    /// exact tag-match semantics (early triggers spill counter-only
    /// entries, late posts land on spilled counters, fire order and
    /// counters are identical). Only cost differs, and that is not
    /// modelled here.
    #[test]
    fn spilled_cam_matches_unbounded_reference(script in steps(8), ways in 1u32..4) {
        let run = |kind: LookupKind| {
            let mut list = TriggerList::new(kind);
            let mut log = Vec::new();
            let mut max_active = 0;
            for step in &script {
                let r = match *step {
                    Step::Post(t, th) => list
                        .register(Tag(t as u64), dummy_put(), th)
                        .map(|o| o.map(|f| (f.tag, f.counter)))
                        .map_err(|_| ()),
                    Step::Trigger(t) => list
                        .trigger(Tag(t as u64))
                        .map(|o| o.map(|f| (f.tag, f.counter)))
                        .map_err(|_| ()),
                };
                max_active = max_active.max(list.active());
                log.push(r);
            }
            (log, list.fired_total(), list.pending_entries(), max_active)
        };
        let bounded = run(LookupKind::Associative { ways });
        let reference = run(LookupKind::HashTable);
        prop_assert_eq!(&bounded, &reference);
        // And whenever the script exceeded the CAM, the overflow table
        // (not an error) is what absorbed the pressure.
        let mut list = TriggerList::new(LookupKind::Associative { ways });
        for step in &script {
            let _ = match *step {
                Step::Post(t, th) => list.register(Tag(t as u64), dummy_put(), th).map(|_| ()),
                Step::Trigger(t) => list.trigger(Tag(t as u64)).map(|_| ()),
            };
        }
        if bounded.3 > ways as usize {
            prop_assert!(list.spills() > 0, "pressure without spills");
        }
        prop_assert_eq!(list.rejections().0, 0, "no capacity rejection may surface");
    }
}

/// The trigger list as it was before per-partition spill queues: two
/// SipHash maps, a spill count per partition, a two-lookup `entry_mut`,
/// and a promotion that scans the whole overflow table for the
/// partition's lowest tag. The matching and spill logic is kept verbatim.
struct ScanModel {
    entries: HashMap<u64, TriggerEntry>,
    overflow: HashMap<u64, TriggerEntry>,
    overflow_capacity: usize,
    kind: LookupKind,
    parts: TriggerPartitions,
    cam_counts: Vec<usize>,
    overflow_counts: Vec<usize>,
    fired_total: u64,
    early_allocations: u64,
    spills: u64,
    promotions: u64,
    shed: u64,
    rejected_capacity: u64,
    rejected_duplicate: u64,
    rejected_zero_threshold: u64,
}

fn ready(e: &TriggerEntry) -> bool {
    match (e.threshold, &e.op) {
        (Some(t), Some(_)) => e.counter >= t,
        _ => false,
    }
}

impl ScanModel {
    fn with_partitions(
        kind: LookupKind,
        overflow_capacity: usize,
        parts: TriggerPartitions,
    ) -> Self {
        let n = parts.partitions as usize;
        ScanModel {
            entries: HashMap::new(),
            overflow: HashMap::new(),
            overflow_capacity,
            kind,
            parts,
            cam_counts: vec![0; n],
            overflow_counts: vec![0; n],
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

    fn resolves_to_overflow(&self, tag: Tag) -> bool {
        if self.entries.contains_key(&tag.0) {
            return false;
        }
        self.overflow.contains_key(&tag.0) || self.cam_full_in(self.partition_of(tag))
    }

    fn partition_of(&self, tag: Tag) -> u32 {
        (tag.0 % u64::from(self.parts.partitions)) as u32
    }

    fn cam_capacity_of(&self, p: u32) -> usize {
        match self.kind.capacity() {
            None => usize::MAX,
            Some(ways) => {
                let n = self.parts.partitions as usize;
                ways / n + usize::from((p as usize) < ways % n)
            }
        }
    }

    fn active_in_partition(&self, p: u32) -> usize {
        self.cam_counts[p as usize] + self.overflow_counts[p as usize]
    }

    fn cam_full_in(&self, p: u32) -> bool {
        self.cam_counts[p as usize] >= self.cam_capacity_of(p)
    }

    fn pending_entries(&self) -> Vec<(Tag, u64, Option<u64>, bool)> {
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
        if self.entries.contains_key(&tag.0) {
            self.entries.get_mut(&tag.0)
        } else {
            self.overflow.get_mut(&tag.0)
        }
    }

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
            self.overflow_counts[p as usize] += 1;
            return Ok(());
        }
        self.rejected_capacity += 1;
        Err(TriggerError::CapacityExceeded {
            capacity: self.kind.capacity().unwrap_or(0) + self.overflow_capacity,
            tag,
        })
    }

    fn promote_in(&mut self, p: u32) {
        while !self.cam_full_in(p) && self.overflow_counts[p as usize] > 0 {
            let tag = self
                .overflow
                .keys()
                .copied()
                .filter(|&t| self.partition_of(Tag(t)) == p)
                .min()
                .expect("partition overflow count is non-zero");
            let e = self.overflow.remove(&tag).expect("key just found");
            self.entries.insert(tag, e);
            self.overflow_counts[p as usize] -= 1;
            self.cam_counts[p as usize] += 1;
            self.promotions += 1;
        }
    }

    fn register(
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
                e.threshold = Some(threshold);
                e.op = Some(op);
                if ready(e) {
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

    fn trigger_dyn(&mut self, tag: Tag, fields: DynFields) -> Result<Option<Fired>, TriggerError> {
        match self.entry_mut(tag) {
            Some(e) => {
                e.counter += 1;
                e.overrides.merge(fields);
                if ready(e) {
                    Ok(Some(self.take_fired(tag)))
                } else {
                    Ok(None)
                }
            }
            None => {
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

    fn take_fired(&mut self, tag: Tag) -> Fired {
        let p = self.partition_of(tag);
        let e = if let Some(e) = self.entries.remove(&tag.0) {
            self.cam_counts[p as usize] -= 1;
            self.promote_in(p);
            e
        } else {
            let e = self.overflow.remove(&tag.0).expect("ready entry exists");
            self.overflow_counts[p as usize] -= 1;
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

/// Tags in play for the spill property: enough per partition that a
/// small CAM share spills several entries at once.
const SPILL_TAGS: u64 = 14;

/// One step of a spill script.
#[derive(Debug, Clone)]
enum SpillStep {
    /// CPU posts (tag, threshold); threshold 0 exercises the rejection.
    Register(u64, u64),
    /// A plain GPU tag write.
    Trigger(u64),
    /// A dynamic tag write overriding the payload length.
    TriggerDyn(u64, u64),
}

fn spill_steps() -> impl Strategy<Value = Vec<SpillStep>> {
    let step = prop_oneof![
        (0..SPILL_TAGS, 0u64..4).prop_map(|(t, th)| SpillStep::Register(t, th)),
        (0..SPILL_TAGS).prop_map(SpillStep::Trigger),
        (0..SPILL_TAGS, 1u64..512).prop_map(|(t, len)| SpillStep::TriggerDyn(t, len)),
    ];
    prop::collection::vec(step, 1..160)
}

/// Everything observable about a list after one step, in comparable form.
type Observed = (
    Vec<bool>,
    usize,
    usize,
    Vec<usize>,
    (u64, u64, u64, u64, u64),
    Vec<(Tag, u64, Option<u64>, bool)>,
);

fn observe_list(l: &TriggerList, partitions: u32) -> Observed {
    (
        (0..SPILL_TAGS)
            .map(|t| l.resolves_to_overflow(Tag(t)))
            .collect(),
        l.cam_len(),
        l.overflow_len(),
        (0..partitions).map(|p| l.active_in_partition(p)).collect(),
        (
            l.spills(),
            l.promotions(),
            l.admission_shed(),
            l.fired_total(),
            l.early_allocations(),
        ),
        l.pending_entries(),
    )
}

fn observe_model(m: &ScanModel, partitions: u32) -> Observed {
    (
        (0..SPILL_TAGS)
            .map(|t| m.resolves_to_overflow(Tag(t)))
            .collect(),
        m.entries.len(),
        m.overflow.len(),
        (0..partitions).map(|p| m.active_in_partition(p)).collect(),
        (
            m.spills,
            m.promotions,
            m.shed,
            m.fired_total,
            m.early_allocations,
        ),
        m.pending_entries(),
    )
}

proptest! {
    /// A partitioned, spilling CAM behaves exactly like the scanning
    /// model after every step of any script: the same fire log (tag,
    /// counter, patched op) and errors, the same tags resolving to the
    /// overflow table (so the same entry promoted), the same occupancy
    /// per tier and partition, and the same counters and pending entries.
    #[test]
    fn spill_queues_match_the_scanning_model(
        script in spill_steps(),
        partitions in 1u32..5,
        ways in 0u32..5,
        depth in 0u64..4,
        overflow_capacity in 1usize..16,
    ) {
        let kind = LookupKind::Associative { ways };
        let parts = TriggerPartitions {
            partitions,
            depth: if depth == 0 { None } else { Some(depth) },
        };
        let mut list = TriggerList::with_partitions(kind, overflow_capacity, parts);
        let mut model = ScanModel::with_partitions(kind, overflow_capacity, parts);
        for (i, step) in script.iter().enumerate() {
            let (got, want) = match *step {
                SpillStep::Register(t, th) => (
                    list.register(Tag(t), dummy_put(), th),
                    model.register(Tag(t), dummy_put(), th),
                ),
                SpillStep::Trigger(t) => (
                    list.trigger(Tag(t)),
                    model.trigger_dyn(Tag(t), DynFields::NONE),
                ),
                SpillStep::TriggerDyn(t, len) => {
                    let fields = DynFields {
                        len: Some(len),
                        ..DynFields::NONE
                    };
                    (list.trigger_dyn(Tag(t), fields), model.trigger_dyn(Tag(t), fields))
                }
            };
            prop_assert_eq!(&got, &want, "step {}: {:?}", i, step);
            prop_assert_eq!(
                observe_list(&list, partitions),
                observe_model(&model, partitions),
                "state after step {}: {:?}",
                i,
                step
            );
        }
        prop_assert_eq!(
            list.rejections(),
            (model.rejected_capacity, model.rejected_duplicate, model.rejected_zero_threshold)
        );
    }
}

/// `0..n` in ascending (`order` 0), descending (1) or shuffled (2, tags
/// sorted by their draw in `keys`) order.
fn tag_order(n: u64, order: u8, keys: &[u64]) -> Vec<u64> {
    let mut tags: Vec<u64> = (0..n).collect();
    match order {
        0 => {}
        1 => tags.reverse(),
        _ => tags.sort_by_key(|&t| (keys[t as usize], t)),
    }
    tags
}

proptest! {
    /// Spill queues keep their order whatever order tags spill in: every
    /// tag registers in ascending, descending or shuffled order (past a
    /// small CAM share, so most spill), then every tag fires in its own
    /// such order, promoting as CAM entries retire. The list matches the
    /// scanning model after each step.
    #[test]
    fn spill_orders_match_the_scanning_model(
        n in 1u64..SPILL_TAGS + 1,
        orders in 0u8..9,
        reg_keys in prop::collection::vec(any::<u64>(), SPILL_TAGS as usize..SPILL_TAGS as usize + 1),
        fire_keys in prop::collection::vec(any::<u64>(), SPILL_TAGS as usize..SPILL_TAGS as usize + 1),
        partitions in 1u32..4,
        ways in 0u32..4,
    ) {
        let kind = LookupKind::Associative { ways };
        let parts = TriggerPartitions { partitions, depth: None };
        let capacity = SPILL_TAGS as usize;
        let mut list = TriggerList::with_partitions(kind, capacity, parts);
        let mut model = ScanModel::with_partitions(kind, capacity, parts);
        let registers = tag_order(n, orders % 3, &reg_keys)
            .into_iter()
            .map(|t| SpillStep::Register(t, 1));
        let fires = tag_order(n, orders / 3, &fire_keys).into_iter().map(SpillStep::Trigger);
        for (i, step) in registers.chain(fires).enumerate() {
            let (got, want) = match step {
                SpillStep::Register(t, th) => (
                    list.register(Tag(t), dummy_put(), th),
                    model.register(Tag(t), dummy_put(), th),
                ),
                SpillStep::Trigger(t) => (
                    list.trigger(Tag(t)),
                    model.trigger_dyn(Tag(t), DynFields::NONE),
                ),
                SpillStep::TriggerDyn(..) => unreachable!("orders only register and fire"),
            };
            prop_assert_eq!(&got, &want, "step {}: {:?}", i, step);
            prop_assert_eq!(
                observe_list(&list, partitions),
                observe_model(&model, partitions),
                "state after step {}: {:?}",
                i,
                step
            );
        }
        prop_assert_eq!(list.active(), 0, "every tag fired");
        prop_assert_eq!(list.spills(), model.spills);
    }
}
