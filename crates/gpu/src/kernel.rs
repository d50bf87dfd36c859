//! The kernel-op DSL (§4.2, Fig. 7).
//!
//! Kernels are sequences of [`KernelOp`]s executed by each work-group.
//! The vocabulary covers everything the paper's kernels do:
//!
//! - timed compute phases and work-group barriers,
//! - functional data operations against simulated memory (so Jacobi
//!   actually relaxes and Allreduce actually reduces),
//! - scoped fences and atomics (§4.2.6),
//! - **trigger stores** to the NIC's memory-mapped trigger address, at
//!   work-group granularity (one store by the leader work-item, Fig. 7b/c)
//!   or per work-item (Fig. 7a),
//! - flag polls, the intra-kernel wait primitive GPU-TN kernels use to
//!   observe neighbour contributions (§5.4.1).
//!
//! Per-work-group parameters (tags, poll addresses, tile coordinates) are
//! closures over [`WgCtx`]. Programs are validated against the §4.2.6 fence
//! discipline at construction: a kernel that forgets the system-scope
//! release before its trigger store does not launch, mirroring the
//! correctness pitfalls of relaxed GPU memory models.

use gtn_mem::scope::{check_fence_discipline, MemOrdering, MemScope, ScopeViolation, ScopedOp};
use gtn_mem::{Addr, MemPool};
use gtn_nic::{DynFields, Tag};
use gtn_sim::time::SimDuration;
use std::fmt;
use std::sync::Arc;

/// Execution context of one work-group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WgCtx {
    /// This work-group's id (`get_group_id`).
    pub wg: u32,
    /// Total work-groups in the kernel.
    pub n_wgs: u32,
    /// Work-items per work-group.
    pub items: u32,
}

/// Per-work-group tag selector.
pub type TagFn = Arc<dyn Fn(&WgCtx) -> Tag + Send + Sync>;
/// Per-(work-group, work-item) tag selector for Fig. 7a-style kernels.
pub type ItemTagFn = Arc<dyn Fn(&WgCtx, u32) -> Tag + Send + Sync>;
/// Per-work-group address selector.
pub type AddrFn = Arc<dyn Fn(&WgCtx) -> Addr + Send + Sync>;
/// A functional data operation executed by the work-group.
pub type FuncFn = Arc<dyn Fn(&mut MemPool, &WgCtx) + Send + Sync>;
/// Per-work-group dynamic-descriptor selector (§3.4 extension).
pub type DynFn = Arc<dyn Fn(&WgCtx) -> DynFields + Send + Sync>;

/// One operation of a kernel program.
#[derive(Clone)]
pub enum KernelOp {
    /// A timed compute phase (duration precomputed by the workload via
    /// [`crate::GpuConfig::wg_compute_time`]).
    Compute(SimDuration),
    /// A functional effect on simulated memory, attributed zero time (pair
    /// it with a [`KernelOp::Compute`] for its cost).
    Func(FuncFn),
    /// An explicit memory fence.
    Fence(MemScope, MemOrdering),
    /// Work-group execution barrier (`work_group_barrier`).
    Barrier,
    /// Leader work-item stores a tag to the NIC trigger address
    /// (Fig. 7b/7c pattern).
    TriggerStore {
        /// Tag to write.
        tag: TagFn,
        /// Scope of the store — must be system for the NIC to see it.
        scope: MemScope,
        /// Ordering of the store.
        ordering: MemOrdering,
    },
    /// Leader work-item stores a tag **plus a dynamic descriptor** (§3.4
    /// extension): the GPU contributes operation fields (target node,
    /// buffer pointer, length) at trigger time. Costs more issue time than
    /// a plain store (wider MMIO transaction + the control-flow divergence
    /// the paper warns about).
    TriggerStoreDyn {
        /// Tag to write.
        tag: TagFn,
        /// Dynamic field overrides.
        fields: DynFn,
        /// Scope of the store — must be system for the NIC to see it.
        scope: MemScope,
        /// Ordering of the store.
        ordering: MemOrdering,
    },
    /// Every work-item stores its own tag (Fig. 7a pattern): `count` stores
    /// issued back-to-back.
    TriggerStoreEach {
        /// Number of stores (work-items participating).
        count: u32,
        /// Tag for work-item `i`.
        tag: ItemTagFn,
        /// Scope of the stores.
        scope: MemScope,
        /// Ordering of the stores.
        ordering: MemOrdering,
    },
    /// Atomic store of a 64-bit value to memory (e.g. publishing a
    /// ready-flag for a neighbour).
    AtomicStore {
        /// Destination.
        addr: AddrFn,
        /// Value written.
        value: u64,
        /// Scope.
        scope: MemScope,
        /// Ordering.
        ordering: MemOrdering,
    },
    /// Spin on a 64-bit flag until it is `>= at_least` (intra-kernel wait;
    /// §5.4.1 "The GPU kernel polls on a memory location").
    Poll {
        /// Flag address.
        addr: AddrFn,
        /// Wake condition.
        at_least: u64,
        /// Ordering of the polling load (needs acquire semantics before
        /// reading the delivered data).
        ordering: MemOrdering,
    },
}

impl fmt::Debug for KernelOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelOp::Compute(d) => write!(f, "Compute({d})"),
            KernelOp::Func(_) => write!(f, "Func(..)"),
            KernelOp::Fence(s, o) => write!(f, "Fence({s:?}, {o:?})"),
            KernelOp::Barrier => write!(f, "Barrier"),
            KernelOp::TriggerStore {
                scope, ordering, ..
            } => {
                write!(f, "TriggerStore({scope:?}, {ordering:?})")
            }
            KernelOp::TriggerStoreDyn {
                scope, ordering, ..
            } => {
                write!(f, "TriggerStoreDyn({scope:?}, {ordering:?})")
            }
            KernelOp::TriggerStoreEach { count, scope, .. } => {
                write!(f, "TriggerStoreEach(x{count}, {scope:?})")
            }
            KernelOp::AtomicStore { value, scope, .. } => {
                write!(f, "AtomicStore(={value}, {scope:?})")
            }
            KernelOp::Poll { at_least, .. } => write!(f, "Poll(>={at_least})"),
        }
    }
}

impl KernelOp {
    /// Lower to the abstract memory-model ops the §4.2.6 checker consumes.
    fn scoped_ops(&self) -> Vec<ScopedOp> {
        match self {
            KernelOp::Compute(_) => vec![],
            // A functional op both reads and writes global memory.
            KernelOp::Func(_) => vec![ScopedOp::GlobalRead, ScopedOp::GlobalWrite],
            KernelOp::Fence(s, o) => vec![ScopedOp::Fence(*s, *o)],
            KernelOp::Barrier => vec![ScopedOp::Barrier],
            KernelOp::TriggerStore {
                scope, ordering, ..
            } => {
                vec![ScopedOp::TriggerStore(*scope, *ordering)]
            }
            KernelOp::TriggerStoreDyn {
                scope, ordering, ..
            } => {
                vec![ScopedOp::TriggerStore(*scope, *ordering)]
            }
            KernelOp::TriggerStoreEach {
                scope, ordering, ..
            } => {
                vec![ScopedOp::TriggerStore(*scope, *ordering)]
            }
            KernelOp::AtomicStore {
                scope, ordering, ..
            } => {
                vec![ScopedOp::AtomicStore(*scope, *ordering)]
            }
            // Polls are loads of NIC/peer-published flags: system scope.
            KernelOp::Poll { ordering, .. } => {
                vec![ScopedOp::AtomicLoad(MemScope::System, *ordering)]
            }
        }
    }
}

/// An immutable, validated kernel program shared by all work-groups.
#[derive(Debug, Clone)]
pub struct KernelProgram {
    ops: Arc<Vec<KernelOp>>,
}

impl KernelProgram {
    /// Validate `ops` against the fence discipline and build the program.
    pub fn new(ops: Vec<KernelOp>) -> Result<Self, ScopeViolation> {
        let lowered: Vec<ScopedOp> = ops.iter().flat_map(KernelOp::scoped_ops).collect();
        check_fence_discipline(&lowered)?;
        Ok(KernelProgram { ops: Arc::new(ops) })
    }

    /// The operation sequence.
    pub fn ops(&self) -> &[KernelOp] {
        &self.ops
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True for the empty kernel (used by the Fig. 1 launch study).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Builder for kernel programs; mirrors how the Fig. 7 kernels read.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    ops: Vec<KernelOp>,
}

impl ProgramBuilder {
    /// Start an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a timed compute phase.
    pub fn compute(mut self, d: SimDuration) -> Self {
        self.ops.push(KernelOp::Compute(d));
        self
    }

    /// Append a functional data operation.
    pub fn func(mut self, f: impl Fn(&mut MemPool, &WgCtx) + Send + Sync + 'static) -> Self {
        self.ops.push(KernelOp::Func(Arc::new(f)));
        self
    }

    /// Append a fence.
    pub fn fence(mut self, scope: MemScope, ordering: MemOrdering) -> Self {
        self.ops.push(KernelOp::Fence(scope, ordering));
        self
    }

    /// Append a work-group barrier.
    pub fn barrier(mut self) -> Self {
        self.ops.push(KernelOp::Barrier);
        self
    }

    /// Append a leader-work-item trigger store (system scope, relaxed; pair
    /// with a preceding release fence, as in Fig. 7b).
    pub fn trigger_store(mut self, tag: impl Fn(&WgCtx) -> Tag + Send + Sync + 'static) -> Self {
        self.ops.push(KernelOp::TriggerStore {
            tag: Arc::new(tag),
            scope: MemScope::System,
            ordering: MemOrdering::Relaxed,
        });
        self
    }

    /// Append a trigger store with explicit scope/ordering (for negative
    /// tests and the release-store idiom).
    pub fn trigger_store_scoped(
        mut self,
        tag: impl Fn(&WgCtx) -> Tag + Send + Sync + 'static,
        scope: MemScope,
        ordering: MemOrdering,
    ) -> Self {
        self.ops.push(KernelOp::TriggerStore {
            tag: Arc::new(tag),
            scope,
            ordering,
        });
        self
    }

    /// Append a dynamic trigger store (§3.4 extension): the work-group
    /// leader writes the tag plus GPU-computed operation fields.
    pub fn trigger_store_dyn(
        mut self,
        tag: impl Fn(&WgCtx) -> Tag + Send + Sync + 'static,
        fields: impl Fn(&WgCtx) -> DynFields + Send + Sync + 'static,
    ) -> Self {
        self.ops.push(KernelOp::TriggerStoreDyn {
            tag: Arc::new(tag),
            fields: Arc::new(fields),
            scope: MemScope::System,
            ordering: MemOrdering::Relaxed,
        });
        self
    }

    /// Append per-work-item trigger stores (Fig. 7a).
    pub fn trigger_store_each(
        mut self,
        count: u32,
        tag: impl Fn(&WgCtx, u32) -> Tag + Send + Sync + 'static,
    ) -> Self {
        self.ops.push(KernelOp::TriggerStoreEach {
            count,
            tag: Arc::new(tag),
            scope: MemScope::System,
            ordering: MemOrdering::Relaxed,
        });
        self
    }

    /// Append an atomic flag store.
    pub fn atomic_store(
        mut self,
        addr: impl Fn(&WgCtx) -> Addr + Send + Sync + 'static,
        value: u64,
    ) -> Self {
        self.ops.push(KernelOp::AtomicStore {
            addr: Arc::new(addr),
            value,
            scope: MemScope::System,
            ordering: MemOrdering::Release,
        });
        self
    }

    /// Append a flag poll with acquire semantics.
    pub fn poll(
        mut self,
        addr: impl Fn(&WgCtx) -> Addr + Send + Sync + 'static,
        at_least: u64,
    ) -> Self {
        self.ops.push(KernelOp::Poll {
            addr: Arc::new(addr),
            at_least,
            ordering: MemOrdering::Acquire,
        });
        self
    }

    /// Append the GPU-TN send fragment: one system-scope release fence,
    /// then a trigger store per tag — the data is globally visible before
    /// the NIC is told to move it (§4.2.6). One fence covers the batch
    /// (e.g. all four halo directions of a Jacobi iteration).
    pub fn release_triggers(self, tags: &[Tag]) -> Self {
        let mut b = self.fence(MemScope::System, MemOrdering::Release);
        for &tag in tags {
            b = b.trigger_store(move |_| tag);
        }
        b
    }

    /// Validate and build.
    pub fn build(self) -> Result<KernelProgram, ScopeViolation> {
        KernelProgram::new(self.ops)
    }
}

/// A kernel ready to enqueue: program + dispatch geometry.
#[derive(Debug, Clone)]
pub struct KernelLaunch {
    /// The validated program.
    pub program: KernelProgram,
    /// Number of work-groups.
    pub n_wgs: u32,
    /// Work-items per work-group.
    pub items_per_wg: u32,
    /// Label for traces and completion matching.
    pub label: String,
    /// Trigger tags the GPU front-end writes to the NIC, in order, once
    /// this kernel completes (the GDS doorbell; see
    /// [`KernelLaunch::ring_on_done`]).
    pub(crate) doorbells: Vec<Tag>,
}

impl KernelLaunch {
    /// Build a launch descriptor.
    ///
    /// # Panics
    /// Panics if `n_wgs == 0` — a kernel with no work-groups never
    /// completes.
    pub fn new(program: KernelProgram, n_wgs: u32, items_per_wg: u32, label: &str) -> Self {
        assert!(n_wgs > 0, "kernel must have at least one work-group");
        KernelLaunch {
            program,
            n_wgs,
            items_per_wg,
            label: label.to_owned(),
            doorbells: Vec::new(),
        }
    }

    /// Have the front-end ring the NIC with `tags`, in order,
    /// [`GDS_DOORBELL_NS`](crate::gpu::GDS_DOORBELL_NS) after this kernel
    /// completes: the GPUDirect Async doorbell. No CPU sits on the path,
    /// but the puts it fires wait for the kernel boundary.
    pub fn ring_on_done(mut self, tags: impl IntoIterator<Item = Tag>) -> Self {
        self.doorbells.extend(tags);
        self
    }

    /// The empty kernel of the Fig. 1 study.
    pub fn empty(label: &str) -> Self {
        Self::new(
            KernelProgram::new(Vec::new()).expect("empty program is valid"),
            1,
            1,
            label,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtn_mem::{NodeId, RegionId};

    fn addr() -> Addr {
        Addr::base(NodeId(0), RegionId(0))
    }

    #[test]
    fn figure7b_builder_program_validates() {
        // do work; fence(release, system); barrier; leader trigger store.
        let p = ProgramBuilder::new()
            .compute(SimDuration::from_ns(100))
            .func(|_, _| {})
            .fence(MemScope::System, MemOrdering::Release)
            .barrier()
            .trigger_store(|ctx| Tag(ctx.wg as u64))
            .build();
        assert!(p.is_ok());
        assert_eq!(p.unwrap().len(), 5);
    }

    #[test]
    fn missing_release_fails_validation() {
        let p = ProgramBuilder::new()
            .func(|_, _| {})
            .trigger_store(|_| Tag(0))
            .build();
        assert!(matches!(
            p,
            Err(ScopeViolation::UnreleasedWritesBeforeTrigger { .. })
        ));
    }

    #[test]
    fn device_scope_trigger_store_fails_validation() {
        let p = ProgramBuilder::new()
            .trigger_store_scoped(|_| Tag(0), MemScope::Device, MemOrdering::Release)
            .build();
        assert!(matches!(
            p,
            Err(ScopeViolation::TriggerNotSystemScope { .. })
        ));
    }

    #[test]
    fn poll_with_acquire_then_func_validates() {
        let p = ProgramBuilder::new()
            .poll(|_| addr(), 1)
            .func(|_, _| {})
            .build();
        assert!(p.is_ok());
    }

    #[test]
    fn relaxed_poll_then_func_fails() {
        let ops = vec![
            KernelOp::Poll {
                addr: Arc::new(|_: &WgCtx| addr()),
                at_least: 1,
                ordering: MemOrdering::Relaxed,
            },
            KernelOp::Func(Arc::new(|_: &mut MemPool, _: &WgCtx| {})),
        ];
        assert!(matches!(
            KernelProgram::new(ops),
            Err(ScopeViolation::UnacquiredReadAfterPoll { .. })
        ));
    }

    #[test]
    fn work_item_granularity_program_validates() {
        let p = ProgramBuilder::new()
            .func(|_, _| {})
            .fence(MemScope::System, MemOrdering::Release)
            .trigger_store_each(64, |ctx, item| Tag((ctx.wg * 64 + item) as u64))
            .build();
        assert!(p.is_ok());
    }

    #[test]
    fn release_triggers_is_one_fence_then_a_store_per_tag() {
        let k = ProgramBuilder::new()
            .func(|_, _| {})
            .release_triggers(&[Tag(1), Tag(2), Tag(3)])
            .build()
            .expect("valid kernel");
        let ops: Vec<String> = k.ops().iter().map(|op| format!("{op:?}")).collect();
        assert_eq!(
            ops,
            [
                "Func(..)",
                "Fence(System, Release)",
                "TriggerStore(System, Relaxed)",
                "TriggerStore(System, Relaxed)",
                "TriggerStore(System, Relaxed)",
            ]
        );
    }

    #[test]
    fn empty_kernel_for_launch_study() {
        let k = KernelLaunch::empty("fig1");
        assert!(k.program.is_empty());
        assert_eq!(k.n_wgs, 1);
        assert_eq!(k.label, "fig1");
    }

    #[test]
    #[should_panic(expected = "at least one work-group")]
    fn zero_wgs_rejected() {
        let p = ProgramBuilder::new().build().unwrap();
        let _ = KernelLaunch::new(p, 0, 64, "bad");
    }

    #[test]
    fn debug_formats_are_informative() {
        let op = KernelOp::TriggerStore {
            tag: Arc::new(|_: &WgCtx| Tag(0)),
            scope: MemScope::System,
            ordering: MemOrdering::Relaxed,
        };
        assert!(format!("{op:?}").contains("TriggerStore"));
        let op = KernelOp::Poll {
            addr: Arc::new(|_: &WgCtx| addr()),
            at_least: 3,
            ordering: MemOrdering::Acquire,
        };
        assert_eq!(format!("{op:?}"), "Poll(>=3)");
    }
}
