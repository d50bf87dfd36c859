//! Property tests for the memory substrate: byte-level roundtrips, copy and
//! fold semantics (across nodes, across regions of one node, and within
//! one region), and the fence-discipline checker.

use gtn_mem::addr::{Addr, NodeId};
use gtn_mem::pool::MemPool;
use gtn_mem::scope::{check_fence_discipline, MemOrdering, MemScope, ScopedOp};
use gtn_mem::view::F32_BYTES;
use proptest::prelude::*;

proptest! {
    /// Any write is read back exactly, and bytes outside the window are
    /// untouched.
    #[test]
    fn write_read_roundtrip(
        data in prop::collection::vec(any::<u8>(), 1..256),
        offset in 0u64..256,
    ) {
        let mut p = MemPool::new(1);
        let r = p.alloc(NodeId(0), 512, "t");
        let base = Addr::base(NodeId(0), r);
        let addr = base.offset_by(offset);
        p.write(addr, &data);
        prop_assert_eq!(p.read(addr, data.len() as u64), &data[..]);
        // Prefix untouched.
        prop_assert!(p.read(base, offset).iter().all(|&b| b == 0));
    }

    /// Cross-region copy equals a read-then-write, for any geometry: across
    /// nodes in both index orders, and between two regions of one node.
    /// Only the destination window changes.
    #[test]
    fn copy_matches_read_write(
        data in prop::collection::vec(any::<u8>(), 1..200),
        src_off in 0u64..56,
        dst_off in 0u64..56,
        src_at in 0usize..4,
        dst_step in 1usize..4,
    ) {
        let (mut p, bases) = grid_2x2();
        let dst_at = (src_at + dst_step) % 4;
        let (src, dst) = (bases[src_at].offset_by(src_off), bases[dst_at].offset_by(dst_off));
        p.write(src, &data);
        let mut expect: Vec<Vec<u8>> = bases.iter().map(|&b| p.read(b, REGION).to_vec()).collect();
        expect[dst_at][dst_off as usize..dst_off as usize + data.len()].copy_from_slice(&data);

        p.copy(src, dst, data.len() as u64);
        for (i, &b) in bases.iter().enumerate() {
            prop_assert_eq!(p.read(b, REGION), &expect[i][..], "position {}", i);
        }
    }

    /// `zip_f32s` between distinct regions folds like a scalar loop over
    /// the same geometries as the copy, and touches nothing else.
    #[test]
    fn zip_matches_scalar_fold(
        vals in prop::collection::vec(-1e3f32..1e3, 1..48),
        src_elem in 0u64..16,
        dst_elem in 0u64..16,
        src_at in 0usize..4,
        dst_step in 1usize..4,
    ) {
        let (mut p, bases) = grid_2x2();
        let dst_at = (src_at + dst_step) % 4;
        let src = bases[src_at].element(src_elem, F32_BYTES);
        let dst = bases[dst_at].element(dst_elem, F32_BYTES);
        p.write_f32s(src, &vals);
        let mut expect: Vec<Vec<f32>> = bases.iter().map(|&b| p.read_f32s(b, ELEMS)).collect();
        for (i, &v) in vals.iter().enumerate() {
            let d = &mut expect[dst_at][dst_elem as usize + i];
            *d = fold(*d, v);
        }

        p.zip_f32s(dst, src, vals.len(), fold).unwrap();
        for (i, &b) in bases.iter().enumerate() {
            prop_assert_eq!(p.read_f32s(b, ELEMS), expect[i].clone(), "position {}", i);
        }
    }

    /// Within one region, `zip_f32s` folds from a snapshot of `src`: an
    /// overlapping `dst` never reads back an element it already rewrote.
    #[test]
    fn same_region_zip_reads_a_snapshot(
        n in 1usize..32,
        src_elem in 0u64..32,
        dst_elem in 0u64..32,
    ) {
        let (mut p, bases) = grid_2x2();
        let region = bases[0];
        let mut expect = p.read_f32s(region, ELEMS);
        let snapshot = expect[src_elem as usize..src_elem as usize + n].to_vec();
        for (i, &v) in snapshot.iter().enumerate() {
            let d = &mut expect[dst_elem as usize + i];
            *d = fold(*d, v);
        }

        let (src, dst) = (region.element(src_elem, F32_BYTES), region.element(dst_elem, F32_BYTES));
        p.zip_f32s(dst, src, n, fold).unwrap();
        prop_assert_eq!(p.read_f32s(region, ELEMS), expect);
    }

    /// Same-region overlapping copy behaves like memmove.
    #[test]
    fn overlapping_copy_is_memmove(
        len in 1usize..64,
        src_off in 0u64..32,
        dst_off in 0u64..32,
    ) {
        let mut p = MemPool::new(1);
        let r = p.alloc(NodeId(0), 128, "t");
        let base = Addr::base(NodeId(0), r);
        let init: Vec<u8> = (0..128u32).map(|i| i as u8).collect();
        p.write(base, &init);

        let mut expect = init.clone();
        expect.copy_within(
            src_off as usize..src_off as usize + len,
            dst_off as usize,
        );
        p.copy(base.offset_by(src_off), base.offset_by(dst_off), len as u64);
        prop_assert_eq!(p.read(base, 128), &expect[..]);
    }

    /// f32 slices roundtrip through the byte store.
    #[test]
    fn f32_roundtrip(vals in prop::collection::vec(-1e6f32..1e6, 1..128)) {
        let mut p = MemPool::new(1);
        let r = p.alloc(NodeId(0), 1024, "t");
        let a = Addr::base(NodeId(0), r);
        p.write_f32s(a, &vals);
        prop_assert_eq!(p.read_f32s(a, vals.len()), vals);
    }

    /// Inserting a system-release fence immediately before a trigger store
    /// always repairs an UnreleasedWrites violation, and never introduces
    /// a new one.
    #[test]
    fn release_fence_repairs_any_program(ops in arb_ops(12)) {
        let mut repaired = Vec::with_capacity(ops.len() * 2);
        for op in &ops {
            if matches!(op, ScopedOp::TriggerStore(..)) {
                repaired.push(ScopedOp::Fence(MemScope::System, MemOrdering::Release));
                // Also normalize the trigger store itself to system scope.
                repaired.push(ScopedOp::TriggerStore(
                    MemScope::System,
                    MemOrdering::Relaxed,
                ));
            } else {
                repaired.push(*op);
            }
        }
        match check_fence_discipline(&repaired) {
            Ok(()) => {}
            Err(e) => prop_assert!(
                matches!(e, gtn_mem::scope::ScopeViolation::UnacquiredReadAfterPoll { .. }),
                "only acquire-side violations may remain: {e}"
            ),
        }
    }
}

/// Bytes per region of [`grid_2x2`].
const REGION: u64 = 256;
/// `f32` elements per region of [`grid_2x2`].
const ELEMS: usize = (REGION / F32_BYTES) as usize;

/// Two nodes with two regions each: position `i` is node `i / 2`, region
/// `i % 2`. Every region starts with its own distinct `f32` values.
fn grid_2x2() -> (MemPool, [Addr; 4]) {
    let mut p = MemPool::new(2);
    let bases: [Addr; 4] = std::array::from_fn(|i| {
        let node = NodeId((i / 2) as u32);
        Addr::base(node, p.alloc(node, REGION, "r"))
    });
    for (i, &b) in bases.iter().enumerate() {
        let init: Vec<f32> = (0..ELEMS)
            .map(|k| (i * ELEMS + k) as f32 * 0.75 - 90.0)
            .collect();
        p.write_f32s(b, &init);
    }
    (p, bases)
}

/// A fold that is neither commutative nor exact, so a swapped or repeated
/// operand changes the bits.
fn fold(dst: f32, src: f32) -> f32 {
    dst * 0.7 - src
}

fn arb_ops(max_len: usize) -> impl Strategy<Value = Vec<ScopedOp>> {
    let scope = prop_oneof![
        Just(MemScope::WorkGroup),
        Just(MemScope::Device),
        Just(MemScope::System)
    ];
    let ord = prop_oneof![
        Just(MemOrdering::Relaxed),
        Just(MemOrdering::Acquire),
        Just(MemOrdering::Release),
        Just(MemOrdering::AcqRel)
    ];
    let op = prop_oneof![
        Just(ScopedOp::GlobalWrite),
        Just(ScopedOp::GlobalRead),
        (scope.clone(), ord.clone()).prop_map(|(s, o)| ScopedOp::Fence(s, o)),
        (scope.clone(), ord.clone()).prop_map(|(s, o)| ScopedOp::AtomicStore(s, o)),
        (scope.clone(), ord.clone()).prop_map(|(s, o)| ScopedOp::AtomicLoad(s, o)),
        (scope, ord).prop_map(|(s, o)| ScopedOp::TriggerStore(s, o)),
        Just(ScopedOp::Barrier),
    ];
    prop::collection::vec(op, 0..max_len)
}
