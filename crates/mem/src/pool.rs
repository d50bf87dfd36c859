//! The backing store: per-node allocatable byte regions.
//!
//! `MemPool` is the single owner of all simulated memory in a cluster. The
//! cluster glue hands components `&mut MemPool` when their events fire, so
//! there is exactly one writer at any simulated instant and the borrow
//! checker enforces what a coherence protocol would.
//!
//! All accesses are bounds-checked: a bad descriptor from a simulated
//! program surfaces as a [`MemError`] (the checked `try_*` API) or a panic
//! with a precise address (the convenience API used by trusted internal
//! paths, equivalent to a simulated machine check).

use crate::addr::{Addr, NodeId, RegionId};
use std::fmt;
use std::ops::Range;

/// Access failure: the simulated analogue of a segfault / bad DMA descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// Node index out of range.
    NoSuchNode(NodeId),
    /// Region not allocated on that node.
    NoSuchRegion(NodeId, RegionId),
    /// Access of `len` bytes at `addr` falls outside the region (which has
    /// the given size).
    OutOfBounds {
        /// Faulting address.
        addr: Addr,
        /// Access length in bytes.
        len: u64,
        /// Actual region size in bytes.
        region_size: u64,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::NoSuchNode(n) => write!(f, "no such node {n}"),
            MemError::NoSuchRegion(n, r) => write!(f, "no region r{} on node {n}", r.0),
            MemError::OutOfBounds {
                addr,
                len,
                region_size,
            } => write!(
                f,
                "access of {len} bytes at {addr} exceeds region size {region_size}"
            ),
        }
    }
}

impl std::error::Error for MemError {}

#[derive(Debug)]
struct Region {
    label: &'static str,
    data: Vec<u8>,
}

impl Region {
    /// The byte range of `len` bytes at `addr`, if it lies in this region.
    fn span(&self, addr: Addr, len: u64) -> Result<Range<usize>, MemError> {
        let size = self.data.len() as u64;
        match addr.offset.checked_add(len) {
            Some(end) if end <= size => Ok(addr.offset as usize..end as usize),
            _ => Err(MemError::OutOfBounds {
                addr,
                len,
                region_size: size,
            }),
        }
    }
}

/// Whether `a` and `b` name the same region (and so may overlap).
pub(crate) fn same_region(a: Addr, b: Addr) -> bool {
    a.node == b.node && a.region == b.region
}

/// `(&v[a], &mut v[b])` for `a != b`, split without `unsafe`.
fn pair_mut<T>(v: &mut [T], a: usize, b: usize) -> (&T, &mut T) {
    if a < b {
        let (lo, hi) = v.split_at_mut(b);
        (&lo[a], &mut hi[0])
    } else {
        let (lo, hi) = v.split_at_mut(a);
        (&hi[0], &mut lo[b])
    }
}

#[derive(Debug, Default)]
struct NodeMem {
    regions: Vec<Region>,
}

/// All simulated memory in the cluster.
#[derive(Debug)]
pub struct MemPool {
    nodes: Vec<NodeMem>,
    bytes_allocated: u64,
}

impl MemPool {
    /// A pool for a cluster of `n_nodes` nodes with no regions allocated.
    pub fn new(n_nodes: usize) -> Self {
        MemPool {
            nodes: (0..n_nodes).map(|_| NodeMem::default()).collect(),
            bytes_allocated: 0,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total bytes allocated across the cluster.
    pub fn bytes_allocated(&self) -> u64 {
        self.bytes_allocated
    }

    /// Allocate a zero-initialized region of `len` bytes on `node`.
    ///
    /// `label` is purely diagnostic (it shows up in panic messages and the
    /// memory map dump).
    pub fn alloc(&mut self, node: NodeId, len: u64, label: &'static str) -> RegionId {
        let nm = self
            .nodes
            .get_mut(node.index())
            .unwrap_or_else(|| panic!("alloc on nonexistent node {node}"));
        nm.regions.push(Region {
            label,
            data: vec![0u8; len as usize],
        });
        self.bytes_allocated += len;
        RegionId((nm.regions.len() - 1) as u32)
    }

    /// Size in bytes of the region containing `addr`.
    pub fn region_len(&self, node: NodeId, region: RegionId) -> Result<u64, MemError> {
        Ok(self.region(node, region)?.data.len() as u64)
    }

    /// Diagnostic label of a region.
    pub fn region_label(&self, node: NodeId, region: RegionId) -> Result<&'static str, MemError> {
        Ok(self.region(node, region)?.label)
    }

    fn region(&self, node: NodeId, region: RegionId) -> Result<&Region, MemError> {
        let nm = self
            .nodes
            .get(node.index())
            .ok_or(MemError::NoSuchNode(node))?;
        nm.regions
            .get(region.0 as usize)
            .ok_or(MemError::NoSuchRegion(node, region))
    }

    fn region_mut(&mut self, node: NodeId, region: RegionId) -> Result<&mut Region, MemError> {
        let nm = self
            .nodes
            .get_mut(node.index())
            .ok_or(MemError::NoSuchNode(node))?;
        nm.regions
            .get_mut(region.0 as usize)
            .ok_or(MemError::NoSuchRegion(node, region))
    }

    /// Borrow `len` bytes at `addr`.
    pub fn try_read(&self, addr: Addr, len: u64) -> Result<&[u8], MemError> {
        let region = self.region(addr.node, addr.region)?;
        Ok(&region.data[region.span(addr, len)?])
    }

    /// Mutably borrow `len` bytes at `addr`.
    pub fn try_read_mut(&mut self, addr: Addr, len: u64) -> Result<&mut [u8], MemError> {
        let region = self.region_mut(addr.node, addr.region)?;
        let span = region.span(addr, len)?;
        Ok(&mut region.data[span])
    }

    /// Borrow `len` bytes at `src` and, mutably, `len` bytes at `dst` at
    /// once. The two must lie in distinct regions ([`same_region`] is
    /// false); faults are reported for `src` first, as a read followed by
    /// a write would report them.
    pub(crate) fn split_mut(
        &mut self,
        src: Addr,
        dst: Addr,
        len: u64,
    ) -> Result<(&[u8], &mut [u8]), MemError> {
        debug_assert!(!same_region(src, dst), "split borrow of one region");
        let s_span = self.region(src.node, src.region)?.span(src, len)?;
        let d_span = self.region(dst.node, dst.region)?.span(dst, len)?;
        let (si, di) = (src.region.0 as usize, dst.region.0 as usize);
        let (s, d) = if src.node == dst.node {
            pair_mut(&mut self.nodes[src.node.index()].regions, si, di)
        } else {
            let (sn, dn) = pair_mut(&mut self.nodes, src.node.index(), dst.node.index());
            (&sn.regions[si], &mut dn.regions[di])
        };
        Ok((&s.data[s_span], &mut d.data[d_span]))
    }

    /// Copy `src` into memory at `addr`.
    pub fn try_write(&mut self, addr: Addr, src: &[u8]) -> Result<(), MemError> {
        self.try_read_mut(addr, src.len() as u64)?
            .copy_from_slice(src);
        Ok(())
    }

    /// Panicking read (trusted internal paths).
    #[track_caller]
    pub fn read(&self, addr: Addr, len: u64) -> &[u8] {
        match self.try_read(addr, len) {
            Ok(b) => b,
            Err(e) => panic!("simulated memory fault: {e}"),
        }
    }

    /// Panicking write (trusted internal paths).
    #[track_caller]
    pub fn write(&mut self, addr: Addr, src: &[u8]) {
        if let Err(e) = self.try_write(addr, src) {
            panic!("simulated memory fault: {e}");
        }
    }

    /// Copy `len` bytes from `src` to `dst`, possibly across nodes. This is
    /// the primitive beneath RDMA put delivery and local DMA.
    pub fn try_copy(&mut self, src: Addr, dst: Addr, len: u64) -> Result<(), MemError> {
        // Regions are distinct allocations, so only a same-region copy can
        // overlap: it moves bytes with memmove semantics.
        if same_region(src, dst) {
            let region = self.region_mut(src.node, src.region)?;
            let s_span = region.span(src, len)?;
            let d_span = region.span(dst, len)?;
            region.data.copy_within(s_span, d_span.start);
            return Ok(());
        }
        let (s, d) = self.split_mut(src, dst, len)?;
        d.copy_from_slice(s);
        Ok(())
    }

    /// Panicking cross-node copy.
    #[track_caller]
    pub fn copy(&mut self, src: Addr, dst: Addr, len: u64) {
        if let Err(e) = self.try_copy(src, dst, len) {
            panic!("simulated memory fault: {e}");
        }
    }

    /// Render the cluster memory map (for debugging / the quickstart
    /// example).
    pub fn memory_map(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (n, nm) in self.nodes.iter().enumerate() {
            let _ = writeln!(out, "node {n}:");
            for (r, region) in nm.regions.iter().enumerate() {
                let _ = writeln!(out, "  r{r}: {:>10} B  {}", region.data.len(), region.label);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool2() -> (MemPool, Addr, Addr) {
        let mut p = MemPool::new(2);
        let r0 = p.alloc(NodeId(0), 128, "a");
        let r1 = p.alloc(NodeId(1), 128, "b");
        (p, Addr::base(NodeId(0), r0), Addr::base(NodeId(1), r1))
    }

    #[test]
    fn alloc_zeroes_and_tracks() {
        let (p, a, _) = pool2();
        assert_eq!(p.bytes_allocated(), 256);
        assert!(p.read(a, 128).iter().all(|&b| b == 0));
        assert_eq!(p.region_len(a.node, a.region).unwrap(), 128);
        assert_eq!(p.region_label(a.node, a.region).unwrap(), "a");
    }

    #[test]
    fn write_then_read_roundtrips() {
        let (mut p, a, _) = pool2();
        p.write(a.offset_by(8), &[1, 2, 3, 4]);
        assert_eq!(p.read(a.offset_by(8), 4), &[1, 2, 3, 4]);
        assert_eq!(p.read(a, 1), &[0]);
    }

    #[test]
    fn cross_node_copy_moves_bytes() {
        let (mut p, a, b) = pool2();
        p.write(a, &[9; 32]);
        p.copy(a, b.offset_by(16), 32);
        assert_eq!(p.read(b.offset_by(16), 32), &[9; 32]);
        assert_eq!(p.read(b, 16), &[0; 16]);
    }

    #[test]
    fn same_region_overlapping_copy_is_correct() {
        let (mut p, a, _) = pool2();
        p.write(a, &[1, 2, 3, 4, 5, 6, 7, 8]);
        p.copy(a, a.offset_by(2), 6); // overlap: memmove semantics
        assert_eq!(p.read(a, 8), &[1, 2, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn out_of_bounds_is_reported_precisely() {
        let (p, a, _) = pool2();
        let err = p.try_read(a.offset_by(120), 16).unwrap_err();
        match err {
            MemError::OutOfBounds {
                len, region_size, ..
            } => {
                assert_eq!(len, 16);
                assert_eq!(region_size, 128);
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn bad_node_and_region_errors() {
        let (p, _, _) = pool2();
        assert_eq!(
            p.try_read(Addr::base(NodeId(7), RegionId(0)), 1)
                .unwrap_err(),
            MemError::NoSuchNode(NodeId(7))
        );
        assert_eq!(
            p.try_read(Addr::base(NodeId(0), RegionId(9)), 1)
                .unwrap_err(),
            MemError::NoSuchRegion(NodeId(0), RegionId(9))
        );
    }

    #[test]
    #[should_panic(expected = "simulated memory fault")]
    fn panicking_api_names_the_fault() {
        let (p, a, _) = pool2();
        let _ = p.read(a.offset_by(1000), 1);
    }

    #[test]
    fn offset_overflow_is_oob_not_panic() {
        let (p, _, _) = pool2();
        let weird = Addr {
            node: NodeId(0),
            region: RegionId(0),
            offset: u64::MAX - 1,
        };
        assert!(matches!(
            p.try_read(weird, 4).unwrap_err(),
            MemError::OutOfBounds { .. }
        ));
    }

    #[test]
    fn memory_map_lists_regions() {
        let (p, _, _) = pool2();
        let map = p.memory_map();
        assert!(map.contains("node 0"));
        assert!(map.contains("r0:"));
        assert!(map.contains('a'));
    }
}
