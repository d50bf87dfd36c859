//! Simulated time: picosecond-resolution instants and durations.
//!
//! The paper's latency landscape spans five orders of magnitude — from the
//! ~5 ns serialization time of a single cache-line packet on a 100 Gbps link
//! up to multi-millisecond Allreduce sweeps — so the clock must be integral
//! (no accumulation error across millions of events) and fine enough that
//! bandwidth math does not round to zero. Integer picoseconds satisfy both:
//! `u64` picoseconds covers ~213 days of simulated time.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulated clock, in picoseconds since simulation start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, in picoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; useful as an "infinite" deadline.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Construct from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Construct from microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Construct from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000_000)
    }

    /// Raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Value in nanoseconds (lossy, for reporting).
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Value in microseconds (lossy, for reporting).
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration elapsed since `earlier`. Saturates at zero rather than
    /// panicking, because component state machines occasionally compare an
    /// event timestamp against a deadline that has already passed.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Construct from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns * 1_000)
    }

    /// Construct from microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * 1_000_000)
    }

    /// Construct from a (possibly fractional) nanosecond count, rounding to
    /// the nearest picosecond. Used when deriving delays from calibrated
    /// floating-point models (e.g. cycles at a given clock rate).
    pub fn from_ns_f64(ns: f64) -> Self {
        debug_assert!(ns >= 0.0, "negative duration: {ns} ns");
        SimDuration((ns * 1e3).round() as u64)
    }

    /// Serialization time of `bytes` on a link of `gbps` gigabits per second.
    ///
    /// This is the standard store-and-forward occupancy: `8·bytes / rate`.
    /// 64 B at 100 Gbps → 5.12 ns.
    pub fn for_bytes_at_gbps(bytes: u64, gbps: f64) -> Self {
        debug_assert!(gbps > 0.0, "non-positive bandwidth: {gbps} Gbps");
        let ns = (bytes as f64 * 8.0) / gbps;
        Self::from_ns_f64(ns)
    }

    /// Duration of `cycles` ticks of a `ghz` clock.
    pub fn from_cycles(cycles: u64, ghz: f64) -> Self {
        debug_assert!(ghz > 0.0, "non-positive clock: {ghz} GHz");
        Self::from_ns_f64(cycles as f64 / ghz)
    }

    /// Raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Value in nanoseconds (lossy, for reporting).
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Value in microseconds (lossy, for reporting).
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Multiply by an integer count (e.g. per-element costs).
    pub fn times(self, n: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(n).expect("duration overflow"))
    }

    /// Scale by a floating factor, rounding to the nearest picosecond.
    pub fn scale(self, f: f64) -> SimDuration {
        debug_assert!(f >= 0.0, "negative scale factor: {f}");
        SimDuration((self.0 as f64 * f).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("simulated clock overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("simulated clock underflow"),
        )
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("negative duration"))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("duration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("negative duration"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        self.times(rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps >= 1_000_000_000 {
            write!(f, "{:.3}ms", ps as f64 / 1e9)
        } else if ps >= 1_000_000 {
            write!(f, "{:.3}us", ps as f64 / 1e6)
        } else if ps >= 1_000 {
            write!(f, "{:.3}ns", ps as f64 / 1e3)
        } else {
            write!(f, "{ps}ps")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors_agree() {
        assert_eq!(SimTime::from_ns(1).as_ps(), 1_000);
        assert_eq!(SimTime::from_us(1).as_ps(), 1_000_000);
        assert_eq!(SimTime::from_ms(1).as_ps(), 1_000_000_000);
        assert_eq!(SimDuration::from_us(3).as_ns_f64(), 3_000.0);
    }

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_us(10);
        let d = SimDuration::from_ns(250);
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d) - t, d);
        assert_eq!(t.since(t + d), SimDuration::ZERO, "since saturates");
    }

    #[test]
    fn serialization_delay_matches_hand_math() {
        // 64 bytes at 100 Gbps = 512 bits / 100e9 bps = 5.12 ns.
        let d = SimDuration::for_bytes_at_gbps(64, 100.0);
        assert_eq!(d.as_ps(), 5_120);
        // 8 MB at 100 Gbps = 671.1 us.
        let d = SimDuration::for_bytes_at_gbps(8 * 1024 * 1024, 100.0);
        assert!((d.as_us_f64() - 671.088).abs() < 0.01, "{d}");
    }

    #[test]
    fn cycles_at_clock() {
        // 1000 cycles at 1 GHz = 1 us.
        assert_eq!(SimDuration::from_cycles(1000, 1.0), SimDuration::from_us(1));
        // 4 cycles at 4 GHz = 1 ns.
        assert_eq!(SimDuration::from_cycles(4, 4.0), SimDuration::from_ns(1));
    }

    #[test]
    fn display_picks_sane_units() {
        assert_eq!(SimDuration::from_ns(5).to_string(), "5.000ns");
        assert_eq!(SimDuration::from_us(1).to_string(), "1.000us");
        assert_eq!(SimDuration::from_ps(999).to_string(), "999ps");
        assert_eq!(SimTime::from_ms(2).to_string(), "2.000ms");
    }

    #[test]
    fn scale_and_times() {
        let d = SimDuration::from_ns(100);
        assert_eq!(d.times(3), SimDuration::from_ns(300));
        assert_eq!(d.scale(0.5), SimDuration::from_ns(50));
        assert_eq!(d / 4, SimDuration::from_ns(25));
        let total: SimDuration = [d, d, d].into_iter().sum();
        assert_eq!(total, SimDuration::from_ns(300));
    }

    #[test]
    #[should_panic(expected = "negative duration")]
    fn instant_subtraction_panics_when_reversed() {
        let _ = SimTime::from_ns(1) - SimTime::from_ns(2);
    }
}
