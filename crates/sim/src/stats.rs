//! Lightweight statistics: counters, scalar gauges, and latency histograms.
//!
//! The evaluation harness reports means and tail percentiles of simulated
//! latencies (Fig. 8's decomposition, the launch-latency study of Fig. 1),
//! so the histogram keeps exact samples up to a bound and switches to
//! reservoir sampling beyond it — percentile error stays negligible at the
//! sample counts these experiments produce. A stream whose percentiles
//! nobody reads keeps only its exact aggregates in a [`DurationSummary`].

use crate::rng::SimRng;
use crate::time::SimDuration;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;

/// A monotonically increasing event counter.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Increment by one.
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Increment by `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    pub fn get(self) -> u64 {
        self.0
    }
}

/// Exact aggregates of a duration stream: count, sum, min and max, in
/// constant memory. Mean, min and max read as zero while it is empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurationSummary {
    count: u64,
    sum_ps: u128,
    min: SimDuration,
    max: SimDuration,
}

impl DurationSummary {
    /// No observations yet.
    pub const fn new() -> Self {
        DurationSummary {
            count: 0,
            sum_ps: 0,
            min: SimDuration::from_ps(u64::MAX),
            max: SimDuration::ZERO,
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, d: SimDuration) {
        self.count += 1;
        self.sum_ps += d.as_ps() as u128;
        self.min = self.min.min(d);
        self.max = self.max.max(d);
    }

    /// Fold another summary into this one, exactly.
    pub fn merge(&mut self, other: &DurationSummary) {
        self.count += other.count;
        self.sum_ps += other.sum_ps;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (truncated to whole picoseconds), or zero if empty.
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_ps((self.sum_ps / self.count as u128) as u64)
    }

    /// Smallest observation, or zero if empty.
    pub fn min(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            self.min
        }
    }

    /// Largest observation, or zero if empty.
    pub fn max(&self) -> SimDuration {
        self.max
    }
}

impl Default for DurationSummary {
    fn default() -> Self {
        Self::new()
    }
}

/// Exact-then-reservoir sample set over durations.
#[derive(Debug, Clone)]
pub struct DurationHistogram {
    samples: Vec<SimDuration>,
    /// Exact aggregates over every observation, including those not
    /// retained.
    summary: DurationSummary,
    cap: usize,
    rng: SimRng,
    /// Sorted view of `samples`, rebuilt lazily on the first percentile
    /// query after a mutation (`None` = stale).
    sorted: RefCell<Option<Vec<SimDuration>>>,
}

impl DurationHistogram {
    /// Default retained-sample bound.
    pub const DEFAULT_CAP: usize = 65_536;

    /// New histogram with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAP)
    }

    /// New histogram retaining at most `cap` samples exactly (reservoir
    /// thereafter).
    pub fn with_capacity(cap: usize) -> Self {
        assert!(cap > 0, "histogram capacity must be positive");
        DurationHistogram {
            samples: Vec::new(),
            summary: DurationSummary::new(),
            cap,
            rng: SimRng::seeded(0xDEC0DE),
            sorted: RefCell::new(None),
        }
    }

    /// Record one observation.
    pub fn record(&mut self, d: SimDuration) {
        self.summary.record(d);
        self.retain_sample(d);
        *self.sorted.borrow_mut() = None;
    }

    /// Reservoir step only (Vitter's Algorithm R, weighted by the total
    /// observation count): aggregates are *not* touched.
    fn retain_sample(&mut self, d: SimDuration) {
        if self.samples.len() < self.cap {
            self.samples.push(d);
        } else {
            let j = self.rng.range_u64(0, self.summary.count) as usize;
            if j < self.cap {
                self.samples[j] = d;
            }
        }
    }

    /// Merge another histogram into this one. The exact aggregates are
    /// combined from the source's summary — the reservoir is only
    /// consulted for percentile samples, so the merge stays correct even
    /// when `other` evicted samples past its cap.
    pub fn merge(&mut self, other: &DurationHistogram) {
        if other.summary.count == 0 {
            return;
        }
        self.summary.merge(&other.summary);
        for i in 0..other.samples.len() {
            self.retain_sample(other.samples[i]);
        }
        *self.sorted.borrow_mut() = None;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.summary.count()
    }

    /// Arithmetic mean, or zero if empty.
    pub fn mean(&self) -> SimDuration {
        self.summary.mean()
    }

    /// Smallest observation, or zero if empty.
    pub fn min(&self) -> SimDuration {
        self.summary.min()
    }

    /// Largest observation.
    pub fn max(&self) -> SimDuration {
        self.summary.max()
    }

    /// Percentile in `[0, 100]` over retained samples (nearest-rank). The
    /// sorted view is cached and rebuilt only after a mutation, so repeated
    /// queries (`Display` alone asks twice) sort at most once.
    pub fn percentile(&self, p: f64) -> SimDuration {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        let mut cache = self.sorted.borrow_mut();
        let sorted = cache.get_or_insert_with(|| {
            let mut s = self.samples.clone();
            s.sort_unstable();
            s
        });
        let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank]
    }

    /// Convenience: the median.
    pub fn median(&self) -> SimDuration {
        self.percentile(50.0)
    }
}

impl Default for DurationHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for DurationHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} min={} mean={} p50={} p99={} max={}",
            self.count(),
            self.min(),
            self.mean(),
            self.percentile(50.0),
            self.percentile(99.0),
            self.max()
        )
    }
}

/// A named bundle of counters and histograms, used by components to publish
/// their internal activity (trigger matches, packets injected, polls retried)
/// to the harness without coupling to it.
#[derive(Debug, Default, Clone)]
pub struct StatSet {
    counters: BTreeMap<&'static str, Counter>,
    histograms: BTreeMap<&'static str, DurationHistogram>,
}

impl StatSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bump counter `name` by one (creating it on first use).
    pub fn inc(&mut self, name: &'static str) {
        self.counters.entry(name).or_default().inc();
    }

    /// Bump counter `name` by `n`.
    pub fn add(&mut self, name: &'static str, n: u64) {
        self.counters.entry(name).or_default().add(n);
    }

    /// Read counter `name` (zero if never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).map(|c| c.get()).unwrap_or(0)
    }

    /// Record a duration sample under `name`.
    pub fn record(&mut self, name: &'static str, d: SimDuration) {
        self.histograms.entry(name).or_default().record(d);
    }

    /// Read histogram `name`, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&DurationHistogram> {
        self.histograms.get(name)
    }

    /// Iterate counters in name order (deterministic for reports).
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, v.get()))
    }

    /// Iterate histograms in name order (deterministic for reports).
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &DurationHistogram)> + '_ {
        self.histograms.iter().map(|(k, v)| (*k, v))
    }

    /// Merge another set into this one: counters add, histograms merge
    /// exactly (see [`DurationHistogram::merge`] — aggregates are combined
    /// field-wise, so `count`/`mean`/`min`/`max` stay exact regardless of
    /// reservoir eviction in the source).
    pub fn absorb(&mut self, other: &StatSet) {
        for (k, v) in &other.counters {
            self.counters.entry(k).or_default().add(v.get());
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k).or_default().merge(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn histogram_exact_stats() {
        let mut h = DurationHistogram::new();
        for ns in [10u64, 20, 30, 40, 50] {
            h.record(SimDuration::from_ns(ns));
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.mean(), SimDuration::from_ns(30));
        assert_eq!(h.min(), SimDuration::from_ns(10));
        assert_eq!(h.max(), SimDuration::from_ns(50));
        assert_eq!(h.median(), SimDuration::from_ns(30));
        assert_eq!(h.percentile(0.0), SimDuration::from_ns(10));
        assert_eq!(h.percentile(100.0), SimDuration::from_ns(50));
    }

    #[test]
    fn histogram_reservoir_keeps_totals_exact() {
        let mut h = DurationHistogram::with_capacity(64);
        for i in 1..=10_000u64 {
            h.record(SimDuration::from_ns(i));
        }
        assert_eq!(h.count(), 10_000);
        // Mean of 1..=10000 ns is 5000.5 ns; sum is exact regardless of
        // reservoir eviction.
        assert_eq!(h.mean().as_ps(), 5_000_500);
        assert_eq!(h.max(), SimDuration::from_ns(10_000));
        assert_eq!(h.min(), SimDuration::from_ns(1));
        // Median estimate from the reservoir should land mid-range.
        let med = h.median().as_ns_f64();
        assert!((2_000.0..8_000.0).contains(&med), "median {med}");
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = DurationHistogram::new();
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.min(), SimDuration::ZERO);
        assert_eq!(h.median(), SimDuration::ZERO);
    }

    #[test]
    fn absorb_is_exact_past_the_reservoir_cap() {
        // Regression: the old absorb re-recorded only *retained* samples,
        // so merging a histogram that had evicted past its cap undercounted
        // count/sum and could lose the true min/max entirely.
        let mut src = StatSet::new();
        {
            let mut h = DurationHistogram::with_capacity(32);
            for i in 1..=1_000u64 {
                h.record(SimDuration::from_ns(i));
            }
            assert_eq!(h.samples.len(), 32, "reservoir capped");
            // Smuggle the capped histogram into a StatSet.
            src.histograms.insert("lat", h);
        }
        let mut dst = StatSet::new();
        dst.record("lat", SimDuration::from_ns(2_000));
        dst.absorb(&src);
        let h = dst.histogram("lat").unwrap();
        assert_eq!(h.count(), 1_001, "exact count despite eviction");
        // sum = 2000 + 1..=1000 = 2000 + 500500 ns; mean = 502500/1001 ns.
        assert_eq!(h.mean().as_ps(), 502_500_000 / 1_001, "exact mean");
        assert_eq!(h.min(), SimDuration::from_ns(1), "true min survives");
        assert_eq!(h.max(), SimDuration::from_ns(2_000), "true max survives");
    }

    #[test]
    fn merge_of_empty_histogram_is_identity() {
        let mut a = DurationHistogram::new();
        a.record(SimDuration::from_ns(5));
        let b = DurationHistogram::new();
        a.merge(&b);
        assert_eq!(a.count(), 1);
        assert_eq!(a.min(), SimDuration::from_ns(5));
        let mut c = DurationHistogram::new();
        c.merge(&a);
        assert_eq!(c.count(), 1);
        assert_eq!(c.mean(), SimDuration::from_ns(5));
        assert_eq!(c.min(), SimDuration::from_ns(5));
        assert_eq!(c.max(), SimDuration::from_ns(5));
    }

    #[test]
    fn percentile_cache_is_stable_and_invalidated_on_record() {
        let mut h = DurationHistogram::with_capacity(16);
        for i in [30u64, 10, 50, 20, 40] {
            h.record(SimDuration::from_ns(i));
        }
        let p50 = h.percentile(50.0);
        // Repeated queries hit the cache and agree exactly.
        for _ in 0..10 {
            assert_eq!(h.percentile(50.0), p50);
        }
        assert_eq!(format!("{h}"), format!("{h}"), "Display sorts once, stable");
        // A new sample invalidates the cache.
        h.record(SimDuration::from_ns(60));
        assert_eq!(h.percentile(100.0), SimDuration::from_ns(60));
        // Nearest-rank over 6 samples: rank round(0.5 * 5) = 3 -> 40 ns.
        assert_eq!(h.median(), SimDuration::from_ns(40));
    }

    #[test]
    fn summary_matches_the_histogram_aggregates() {
        let agg = |count, mean, min, max| (count, mean, min, max);
        let mut summary = DurationSummary::new();
        let mut hist = DurationHistogram::new();
        // Empty: everything reads zero.
        assert_eq!(
            agg(
                summary.count(),
                summary.mean(),
                summary.min(),
                summary.max()
            ),
            agg(0, SimDuration::ZERO, SimDuration::ZERO, SimDuration::ZERO)
        );
        assert_eq!(
            agg(
                summary.count(),
                summary.mean(),
                summary.min(),
                summary.max()
            ),
            agg(hist.count(), hist.mean(), hist.min(), hist.max())
        );
        // Well past the reservoir cap, with a non-integral mean.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..DurationHistogram::DEFAULT_CAP + 34_465 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let d = SimDuration::from_ps(x % 1_000_000_007);
            summary.record(d);
            hist.record(d);
        }
        assert_eq!(summary.count(), 100_001);
        assert_eq!(
            agg(
                summary.count(),
                summary.mean(),
                summary.min(),
                summary.max()
            ),
            agg(hist.count(), hist.mean(), hist.min(), hist.max())
        );
        // Merging splits of the stream gives the same aggregates.
        let mut halves = [DurationSummary::default(); 2];
        for (i, ps) in (1..=1_001u64).enumerate() {
            halves[i % 2].record(SimDuration::from_ps(ps));
        }
        let [mut a, b] = halves;
        a.merge(&b);
        assert_eq!(a.count(), 1_001);
        assert_eq!(a.mean(), SimDuration::from_ps(501));
        assert_eq!((a.min().as_ps(), a.max().as_ps()), (1, 1_001));
    }

    #[test]
    fn embedding_the_summary_keeps_the_histogram_size() {
        // Every cell's `StatSet` B-tree nodes hold histograms, so their
        // size is an allocation size. This is the pre-summary layout.
        #[allow(dead_code)]
        struct Flat {
            samples: Vec<SimDuration>,
            count: u64,
            sum_ps: u128,
            min: SimDuration,
            max: SimDuration,
            cap: usize,
            rng: SimRng,
            sorted: RefCell<Option<Vec<SimDuration>>>,
        }
        assert_eq!(
            std::mem::size_of::<DurationHistogram>(),
            std::mem::size_of::<Flat>()
        );
    }

    #[test]
    fn histograms_iterate_in_name_order() {
        let mut s = StatSet::new();
        s.record("z", SimDuration::from_ns(1));
        s.record("a", SimDuration::from_ns(2));
        let names: Vec<_> = s.histograms().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["a", "z"]);
    }

    #[test]
    fn statset_counters_and_merge() {
        let mut a = StatSet::new();
        a.inc("puts");
        a.add("bytes", 64);
        a.record("latency", SimDuration::from_ns(100));
        let mut b = StatSet::new();
        b.inc("puts");
        b.record("latency", SimDuration::from_ns(300));
        a.absorb(&b);
        assert_eq!(a.counter("puts"), 2);
        assert_eq!(a.counter("bytes"), 64);
        assert_eq!(a.counter("missing"), 0);
        let h = a.histogram("latency").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.mean(), SimDuration::from_ns(200));
        let names: Vec<_> = a.counters().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["bytes", "puts"], "deterministic order");
    }
}
