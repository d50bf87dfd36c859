//! Seeded randomness for reproducible experiments.
//!
//! Every stochastic choice in the workspace (workload data, gradient sizes
//! for the deep-learning projection, jitter in ablation studies) draws from a
//! [`SimRng`] created from an explicit seed, so any figure in EXPERIMENTS.md
//! can be regenerated bit-for-bit.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The SplitMix64 increment (2^64 / φ, odd).
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output mix: a bijection on `u64` whose every output bit
/// depends on every input bit. It expands seeds here, and derives the keys
/// of every hash map and hashes with them ([`crate::hash::MixState`]).
#[inline]
pub fn splitmix_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small, fast, explicitly-seeded RNG.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: SmallRng,
}

impl SimRng {
    /// Deterministic RNG from a 64-bit seed.
    pub fn seeded(seed: u64) -> Self {
        SimRng {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// The first draw of `SimRng::seeded(key).range_f32(lo, hi)`, computed
    /// without building the generator: a keyed hash for per-element
    /// workload inputs, bit-identical to the seeded stream.
    ///
    /// Two state words are enough. The first xoshiro256++ output is
    /// `rotl(s0 + s3, 23) + s0`, and the SplitMix64 seed expansion derives
    /// `s0` from `key + γ` and `s3` from `key + 4γ`. The all-zero-state
    /// guard in `SmallRng::seed_from_u64` never fires, so it needs no
    /// counterpart here: the SplitMix64 mix is a bijection, and its four
    /// inputs `key + γ … key + 4γ` are distinct (γ is odd), so at most one
    /// state word can be zero.
    #[inline]
    pub fn keyed_f32(key: u64, lo: f32, hi: f32) -> f32 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        keyed(key, lo, hi - lo)
    }

    /// [`keyed_f32`](Self::keyed_f32) over consecutive keys, in bulk:
    /// writes `keyed_f32(base ^ j, lo, hi)` for `j = start, start + 1, …`
    /// (wrapping) into `out`, one little-endian `f32` per four bytes.
    ///
    /// The loop body is `keyed_f32`'s formula, compiled for AVX-512 and
    /// AVX2 as well as portably; each call runs the widest form the CPU
    /// supports. All three write the scalar form's bits: the formula is
    /// integer mixing, an exact conversion of a 24-bit integer, and one
    /// IEEE multiply and one add per element, which Rust never contracts
    /// into a fused multiply-add.
    pub fn keyed_f32_fill(base: u64, start: u64, lo: f32, hi: f32, out: &mut [u8]) {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let (words, rest) = out.as_chunks_mut::<4>();
        assert!(rest.is_empty(), "`out` ends in a partial f32");
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq") {
                // SAFETY: `fill_avx512` needs avx512f and avx512dq, and the
                // check above found both on this CPU.
                return unsafe { fill_avx512(base, start, lo, hi, words) };
            }
            if is_x86_feature_detected!("avx2") {
                // SAFETY: `fill_avx2` needs avx2, and the check above found
                // it on this CPU.
                return unsafe { fill_avx2(base, start, lo, hi, words) };
            }
        }
        fill_portable(base, start, lo, hi, words)
    }

    /// Derive an independent child stream, e.g. one per node, so adding a
    /// node does not perturb the streams of existing nodes.
    pub fn fork(&self, stream: u64) -> Self {
        // SplitMix64 finalizer over (base, stream): cheap, well-distributed.
        let z = self
            .base_seed()
            .wrapping_add(stream.wrapping_mul(GOLDEN_GAMMA));
        SimRng::seeded(splitmix_mix(z))
    }

    fn base_seed(&self) -> u64 {
        // SmallRng is not introspectable; clone and draw one value as a
        // stream identity. The clone leaves `self` untouched.
        self.inner.clone().gen()
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform `u64` in `[lo, hi)`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        self.inner.gen_range(lo..hi)
    }

    /// Uniform `usize` in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index into empty collection");
        self.inner.gen_range(0..n)
    }

    /// Uniform `f32` in `[lo, hi)`.
    pub fn range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        self.inner.gen_range(lo..hi)
    }

    /// Approximately log-normally distributed positive value with the given
    /// median and multiplicative spread (`sigma` in natural-log space).
    ///
    /// Used to synthesize Allreduce message-size distributions for the
    /// deep-learning projection (Table 3 substitution).
    pub fn lognormal(&mut self, median: f64, sigma: f64) -> f64 {
        // Box–Muller from two uniforms.
        let u1: f64 = self.unit_f64().max(f64::MIN_POSITIVE);
        let u2: f64 = self.unit_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        median * (sigma * z).exp()
    }
}

/// The closed form behind [`SimRng::keyed_f32`], with `span = hi - lo`.
#[inline(always)]
fn keyed(key: u64, lo: f32, span: f32) -> f32 {
    let s0 = splitmix_mix(key.wrapping_add(GOLDEN_GAMMA));
    let s3 = splitmix_mix(key.wrapping_add(GOLDEN_GAMMA.wrapping_mul(4)));
    let word = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
    // `Rng::gen_range` over f32: 24 high bits to [0, 1), then scale.
    let unit = (word >> 40) as f32 * (1.0 / (1u64 << 24) as f32);
    lo + unit * span
}

/// The loop of [`SimRng::keyed_f32_fill`], written once and inlined into
/// each instantiation below.
#[inline(always)]
fn fill(base: u64, start: u64, lo: f32, hi: f32, out: &mut [[u8; 4]]) {
    let span = hi - lo;
    for (i, w) in (0u64..).zip(out) {
        *w = keyed(base ^ start.wrapping_add(i), lo, span).to_le_bytes();
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
fn fill_avx512(base: u64, start: u64, lo: f32, hi: f32, out: &mut [[u8; 4]]) {
    fill(base, start, lo, hi, out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn fill_avx2(base: u64, start: u64, lo: f32, hi: f32, out: &mut [[u8; 4]]) {
    fill(base, start, lo, hi, out)
}

fn fill_portable(base: u64, start: u64, lo: f32, hi: f32, out: &mut [[u8; 4]]) {
    fill(base, start, lo, hi, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seeded(42);
        let mut b = SimRng::seeded(42);
        for _ in 0..100 {
            assert_eq!(a.range_u64(0, 1_000_000), b.range_u64(0, 1_000_000));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seeded(1);
        let mut b = SimRng::seeded(2);
        let same = (0..64)
            .filter(|_| a.range_u64(0, 1 << 32) == b.range_u64(0, 1 << 32))
            .count();
        assert!(same < 4, "streams suspiciously correlated");
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let root = SimRng::seeded(7);
        let mut a1 = root.fork(1);
        let mut a2 = root.fork(1);
        let mut b = root.fork(2);
        assert_eq!(a1.range_u64(0, u64::MAX / 2), a2.range_u64(0, u64::MAX / 2));
        // Fork 2 diverges from fork 1.
        let mut a3 = root.fork(1);
        let x = a3.range_u64(0, u64::MAX / 2);
        let y = b.range_u64(0, u64::MAX / 2);
        assert_ne!(x, y);
    }

    #[test]
    fn keyed_f32_is_the_first_seeded_draw() {
        let check = |key: u64| {
            for (lo, hi) in [(-1.0f32, 1.0f32), (-0.25, 3.5)] {
                let want = SimRng::seeded(key).range_f32(lo, hi);
                let got = SimRng::keyed_f32(key, lo, hi);
                assert_eq!(got.to_bits(), want.to_bits(), "key {key:#x} [{lo}, {hi})");
            }
        };
        for key in [0, 1, u64::MAX, 1 << 63, (1 << 63) - 1] {
            check(key);
        }
        // Keys that zero one SplitMix64 state word (s0 .. s3 in turn).
        for k in 1..=4u64 {
            check(0u64.wrapping_sub(GOLDEN_GAMMA.wrapping_mul(k)));
        }
        // Workload keys: `seed ^ rank << 40 ^ j` with high rank bits.
        for rank in [1u64, 31, 1023, (1 << 24) - 1] {
            for j in [0u64, 1, 1 << 20, (1 << 40) - 1] {
                check(0xBEEF ^ (rank << 40) ^ j);
                check(u64::MAX ^ (rank << 40) ^ j);
            }
        }
        let mut keys = SimRng::seeded(0x5EED);
        for _ in 0..1_000_000 {
            check(keys.inner.gen());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every instantiation of the bulk kernel this CPU can run, called
        /// directly, and the dispatching entry point against per-element
        /// `keyed_f32`. Lengths up to 300 leave vector-loop tails of every
        /// size.
        #[test]
        fn keyed_f32_fill_is_keyed_f32_bit_for_bit(
            base in any::<u64>(),
            start in prop_oneof![any::<u64>(), (u64::MAX - 300)..u64::MAX],
            len in 0usize..301,
            lo in prop_oneof![Just(-1.0f32), -4.0f32..4.0],
            width in prop_oneof![Just(2.0f32), 0.001f32..8.0],
        ) {
            let hi = lo + width;
            let want: Vec<[u8; 4]> = (0..len as u64)
                .map(|i| SimRng::keyed_f32(base ^ start.wrapping_add(i), lo, hi).to_le_bytes())
                .collect();
            // A NaN pattern no element can take, so unwritten words show.
            let unwritten = [0xff; 4];
            let mut out = vec![unwritten; len];
            fill_portable(base, start, lo, hi, &mut out);
            prop_assert_eq!(&out, &want, "portable");
            #[cfg(target_arch = "x86_64")]
            {
                if is_x86_feature_detected!("avx2") {
                    out.fill(unwritten);
                    // SAFETY: the check above found avx2 on this CPU.
                    unsafe { fill_avx2(base, start, lo, hi, &mut out) };
                    prop_assert_eq!(&out, &want, "avx2");
                }
                if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq") {
                    out.fill(unwritten);
                    // SAFETY: the check above found avx512f and avx512dq on
                    // this CPU.
                    unsafe { fill_avx512(base, start, lo, hi, &mut out) };
                    prop_assert_eq!(&out, &want, "avx512");
                }
            }
            let mut bytes = vec![0xff; 4 * len];
            SimRng::keyed_f32_fill(base, start, lo, hi, &mut bytes);
            prop_assert_eq!(bytes, want.concat(), "dispatched");
        }
    }

    #[test]
    fn lognormal_is_positive_with_sane_median() {
        let mut r = SimRng::seeded(99);
        let mut vals: Vec<f64> = (0..2001).map(|_| r.lognormal(1000.0, 0.5)).collect();
        assert!(vals.iter().all(|&v| v > 0.0));
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = vals[vals.len() / 2];
        assert!((median / 1000.0 - 1.0).abs() < 0.15, "median {median}");
    }

    #[test]
    fn unit_f64_in_range() {
        let mut r = SimRng::seeded(3);
        for _ in 0..1000 {
            let v = r.unit_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }
}
