//! Typed views over raw regions: `f32` vectors and `u64` flags.
//!
//! The evaluation workloads are single-precision (the 8 MB Allreduce is
//! "single-precision floating point", §5.4.1; Jacobi grids are f32 here),
//! and both the GPU-TN completion hooks (§4.2.4) and PGAS-style target-side
//! notification (§4.2.5) poll 64-bit flags. All multi-byte values are
//! little-endian, matching the simulated hosts.

use crate::addr::Addr;
use crate::pool::{same_region, MemError, MemPool};

/// Size of an `f32` element in bytes.
pub const F32_BYTES: u64 = 4;
/// Size of a `u64` flag in bytes.
pub const U64_BYTES: u64 = 8;

impl MemPool {
    /// Read a single `f32`.
    pub fn read_f32(&self, addr: Addr) -> f32 {
        let b = self.read(addr, F32_BYTES);
        f32::from_le_bytes([b[0], b[1], b[2], b[3]])
    }

    /// Write a single `f32`.
    pub fn write_f32(&mut self, addr: Addr, v: f32) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Read `n` consecutive `f32`s starting at `addr`.
    pub fn read_f32s(&self, addr: Addr, n: usize) -> Vec<f32> {
        let bytes = self.read(addr, n as u64 * F32_BYTES);
        bytes
            .chunks_exact(F32_BYTES as usize)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect()
    }

    /// Write a slice of `f32`s starting at `addr`.
    #[track_caller]
    pub fn write_f32s(&mut self, addr: Addr, vals: &[f32]) {
        let bytes = match self.try_read_mut(addr, vals.len() as u64 * F32_BYTES) {
            Ok(b) => b,
            Err(e) => panic!("simulated memory fault: {e}"),
        };
        for (c, v) in bytes.chunks_exact_mut(F32_BYTES as usize).zip(vals) {
            c.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Apply `op` elementwise: `dst[i] = op(dst[i], src[i])` for `n` f32
    /// elements. This is the reduction primitive beneath Allreduce.
    ///
    /// Within one region, `src` is read from a snapshot taken before the
    /// first write, so an overlapping `dst` never folds an element it has
    /// already rewritten.
    pub fn zip_f32s(
        &mut self,
        dst: Addr,
        src: Addr,
        n: usize,
        op: impl Fn(f32, f32) -> f32,
    ) -> Result<(), MemError> {
        let len = n as u64 * F32_BYTES;
        if same_region(src, dst) {
            let s = self.try_read(src, len)?.to_vec();
            fold_f32s(self.try_read_mut(dst, len)?, &s, op);
        } else {
            let (s, d) = self.split_mut(src, dst, len)?;
            fold_f32s(d, s, op);
        }
        Ok(())
    }

    /// Read a 64-bit flag.
    pub fn read_u64(&self, addr: Addr) -> u64 {
        let b = self.read(addr, U64_BYTES);
        u64::from_le_bytes(b.try_into().expect("8-byte read"))
    }

    /// Write a 64-bit flag.
    pub fn write_u64(&mut self, addr: Addr, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Atomically (at event granularity — events are serialized) add to a
    /// 64-bit flag, returning the new value.
    pub fn fetch_add_u64(&mut self, addr: Addr, delta: u64) -> u64 {
        let v = self.read_u64(addr).wrapping_add(delta);
        self.write_u64(addr, v);
        v
    }
}

/// `dst[i] = op(dst[i], src[i])` over little-endian `f32` bytes.
fn fold_f32s(dst: &mut [u8], src: &[u8], op: impl Fn(f32, f32) -> f32) {
    for (dc, sc) in dst
        .chunks_exact_mut(F32_BYTES as usize)
        .zip(src.chunks_exact(F32_BYTES as usize))
    {
        let dv = f32::from_le_bytes([dc[0], dc[1], dc[2], dc[3]]);
        let sv = f32::from_le_bytes([sc[0], sc[1], sc[2], sc[3]]);
        dc.copy_from_slice(&op(dv, sv).to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::NodeId;

    fn pool() -> (MemPool, Addr) {
        let mut p = MemPool::new(1);
        let r = p.alloc(NodeId(0), 1024, "t");
        (p, Addr::base(NodeId(0), r))
    }

    #[test]
    fn f32_scalar_roundtrip() {
        let (mut p, a) = pool();
        p.write_f32(a.offset_by(4), 3.25);
        assert_eq!(p.read_f32(a.offset_by(4)), 3.25);
        assert_eq!(p.read_f32(a), 0.0);
    }

    #[test]
    fn f32_slice_roundtrip() {
        let (mut p, a) = pool();
        let vals: Vec<f32> = (0..100).map(|i| i as f32 * 0.5).collect();
        p.write_f32s(a, &vals);
        assert_eq!(p.read_f32s(a, 100), vals);
    }

    #[test]
    fn zip_is_elementwise_reduce() {
        let (mut p, a) = pool();
        let dst = a;
        let src = a.offset_by(512);
        p.write_f32s(dst, &[1.0, 2.0, 3.0]);
        p.write_f32s(src, &[10.0, 20.0, 30.0]);
        p.zip_f32s(dst, src, 3, |x, y| x + y).unwrap();
        assert_eq!(p.read_f32s(dst, 3), vec![11.0, 22.0, 33.0]);
        assert_eq!(p.read_f32s(src, 3), vec![10.0, 20.0, 30.0], "src untouched");
    }

    #[test]
    fn zip_propagates_bounds_errors() {
        let (mut p, a) = pool();
        assert!(p.zip_f32s(a, a.offset_by(1020), 10, |x, _| x).is_err());
    }

    #[test]
    fn u64_flags_and_fetch_add() {
        let (mut p, a) = pool();
        let flag = a.offset_by(64);
        assert_eq!(p.read_u64(flag), 0);
        p.write_u64(flag, 41);
        assert_eq!(p.fetch_add_u64(flag, 1), 42);
        assert_eq!(p.read_u64(flag), 42);
    }

    #[test]
    fn fetch_add_wraps() {
        let (mut p, a) = pool();
        p.write_u64(a, u64::MAX);
        assert_eq!(p.fetch_add_u64(a, 2), 1);
    }
}
