//! Reproducible hashing for every hash map the simulator keeps.
//!
//! std's `RandomState` seeds each thread's keys from the OS, so a map's
//! iteration order, and the order in which dropping it frees its values,
//! changed from one run of the same configuration to the next. Simulated
//! results never leaned on that order, but the host did: which heap chunks
//! a run left fragmented, and so the peak RSS that glibc reached, varied
//! from process to process. [`MixState`] keeps `RandomState`'s shape, new
//! keys for every map a thread builds, but counts them from a fixed start,
//! so the n-th map a thread builds hashes alike in every process. Two runs
//! of one configuration in one process still iterate their maps in
//! different orders, so a result that leaned on that order would differ
//! between them (the benchmark checks every cell's digest across passes).
//!
//! The hash is the SplitMix64 finalizer over `(k0 ^ state ^ word) + k1`.
//! An integer of any width up to 64 bits is one word, zero-extended; a byte
//! slice folds in eight bytes per word. On little-endian targets the two
//! agree: an integer hashes as its bytes would. Keys are simulator-chosen
//! integers (tags, node ids, sequence numbers), not attacker input, so
//! SipHash's flooding resistance buys nothing here.

use crate::rng::splitmix_mix;
use std::cell::Cell;
use std::hash::{BuildHasher, Hasher};

/// A `HashMap` hashed with [`MixState`].
pub type HashMap<K, V> = std::collections::HashMap<K, V, MixState>;

/// A `HashSet` hashed with [`MixState`].
pub type HashSet<T> = std::collections::HashSet<T, MixState>;

/// Builds [`MixHasher`]s. Its two keys give it the size of std's
/// `RandomState`, so a map, and any struct that holds one, keeps its size.
#[derive(Debug, Clone, Copy)]
pub struct MixState {
    k0: u64,
    k1: u64,
}

thread_local! {
    /// States this thread has built so far.
    static BUILT: Cell<u64> = const { Cell::new(0) };
}

impl Default for MixState {
    /// The next keys in this thread's sequence.
    fn default() -> Self {
        let n = BUILT.with(|built| built.replace(built.get() + 1));
        MixState {
            k0: splitmix_mix(2 * n),
            k1: splitmix_mix(2 * n + 1),
        }
    }
}

impl BuildHasher for MixState {
    type Hasher = MixHasher;

    #[inline]
    fn build_hasher(&self) -> MixHasher {
        MixHasher {
            keys: *self,
            state: 0,
        }
    }
}

/// One [`MixState`] hash computation. An integer key up to 64 bits wide,
/// and each such field of a tuple or a `derive(Hash)` struct, is one
/// `write_u64` of the zero-extended value; a byte slice folds in eight
/// bytes at a time.
#[derive(Debug)]
pub struct MixHasher {
    keys: MixState,
    state: u64,
}

impl Hasher for MixHasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.state = splitmix_mix((self.keys.k0 ^ self.state ^ x).wrapping_add(self.keys.k1));
    }

    // Signed widths, `bool`, `char`, enum discriminants and length prefixes
    // reach these through `Hasher`'s defaults.
    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u16(&mut self, x: u16) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_thread_builds_the_same_maps() {
        // A fresh thread stands in for a fresh process: both start counting
        // from zero.
        let orders = || {
            std::thread::spawn(|| {
                (0..3)
                    .map(|_| {
                        let map: HashMap<u64, u64> = (0..1_000).map(|k| (k * 7_919, k)).collect();
                        map.keys().copied().collect::<Vec<_>>()
                    })
                    .collect::<Vec<_>>()
            })
            .join()
            .expect("the thread builds its maps")
        };
        let (first, second) = (orders(), orders());
        assert_eq!(first, second);
        assert_ne!(first[0], first[1], "maps built in turn iterate differently");
    }

    /// Taking an integer whole must not move any key's hash: bucket layout,
    /// iteration order and drop order, and so the heap history a run
    /// repeats, all follow from it. Sign-extending a narrow key, say, would
    /// fail here.
    #[cfg(target_endian = "little")]
    #[test]
    fn integer_writes_hash_as_their_le_bytes() {
        use std::fmt::Debug;
        use std::hash::Hash;

        /// A hasher with only `write`: every integer reaches the byte-chunk
        /// fold as its native bytes, which is how `MixHasher` hashed
        /// integers before it took them whole.
        struct BytesOnly(MixHasher);

        impl Hasher for BytesOnly {
            fn write(&mut self, bytes: &[u8]) {
                self.0.write(bytes);
            }

            fn finish(&self) -> u64 {
                self.0.finish()
            }
        }

        #[derive(Debug, Hash)]
        enum Kind {
            Reduce,
            Replace,
            Skip,
        }

        fn check<T: Hash + Debug>(state: &MixState, key: T) {
            let mut model = BytesOnly(state.build_hasher());
            key.hash(&mut model);
            assert_eq!(state.hash_one(&key), model.finish(), "{key:?}");
        }

        let state = MixState::default();
        let kinds = [Kind::Reduce, Kind::Replace, Kind::Skip];
        let edges = [
            0,
            1,
            0x7f,
            0x80,
            0xff,
            0x100,
            0x7fff,
            0x8000,
            0xffff,
            0x7fff_ffff,
            0x8000_0000,
            0xffff_ffff,
            0x1_0000_0000,
            i64::MAX as u64,
            1 << 63,
            u64::MAX - 1,
            u64::MAX,
        ];
        let random = (0..10_000).map(|i| splitmix_mix(0x6861_7368 + i));
        for w in edges.into_iter().chain(random) {
            check(&state, w as u8);
            check(&state, w as u16);
            check(&state, w as u32);
            check(&state, w);
            check(&state, w as usize);
            check(&state, w as i32);
            check(&state, w as i64);
            check(&state, (w as u32, (w >> 32) as u32));
            check(&state, ((w >> 32) as u32, w.rotate_left(17)));
            let text = format!("{w:x}");
            check(&state, text.as_str());
            check(&state, text);
            check(&state, &kinds[(w % 3) as usize]);
        }
    }
}
