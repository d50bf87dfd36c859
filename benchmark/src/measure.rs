//! Measurement plumbing: host-speed calibration, per-cell latency
//! histogram, quartiles, peak RSS, the counting allocator, and the
//! in-memory span recorder.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Seconds [`calibrate`] takes on the reference box (2-vCPU Xeon VM, see
/// the README) while no other tenant slows it. Host times are reported in
/// reference seconds: measured seconds × `CALIB_REF_S / calibrate()`.
pub const CALIB_REF_S: f64 = 0.036;

/// Time a fixed piece of host work shaped like the simulator's own and
/// return its seconds: a binary-heap event loop with hash-map updates and
/// small allocations, then random read-modify-writes over an 8 MB table
/// (past L2, like a 512-node cell's state).
///
/// The boxes this benchmark runs on are shared: for minutes at a time a
/// neighbour can slow every core by 1.5× or more. Dividing a pass's time
/// by calibrations taken around it cancels most of that (measured over
/// 20-second windows: quartile spread 15-17% raw, 3-7% scaled). The
/// memory half tracks the slow spells of the memory-heavy workloads
/// better than the event loop alone. The kernel lives in the benchmark,
/// so no change to the simulator moves it.
pub fn calibrate() -> f64 {
    const TABLE: usize = 1 << 20;
    let t = Instant::now();
    let mut heap = BinaryHeap::new();
    let mut seen: HashMap<u64, u64> = HashMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for n in 0..512u64 {
        heap.push(Reverse((n, n)));
    }
    for _ in 0..250_000 {
        let Reverse((at, n)) = heap.pop().expect("the loop keeps 512 events queued");
        let r = next();
        *seen.entry(n ^ (r & 0xFFF)).or_insert(0) += 1;
        let payload = vec![at; (r % 8) as usize + 1];
        acc = acc.wrapping_add(payload.iter().sum::<u64>());
        heap.push(Reverse((at + 50 + r % 2_000, n)));
    }
    let mut table: Vec<u64> = (0..TABLE as u64).collect();
    for _ in 0..1_200_000 {
        let j = next() as usize % TABLE;
        table[j] = table[j].wrapping_add(acc);
        acc = acc.wrapping_add(table[j.wrapping_mul(7) % TABLE]);
    }
    black_box((acc, seen.len(), table));
    t.elapsed().as_secs_f64()
}

/// Factor that turns host seconds measured now into reference seconds.
pub fn host_scale() -> f64 {
    CALIB_REF_S / calibrate()
}

/// Sub-buckets per power of two: 0.4% relative resolution.
const SUB_BITS: u32 = 8;
const SUB: u64 = 1 << SUB_BITS;

/// Log-linear latency histogram in constant memory, so the samples a long
/// run records never show up in the peak RSS it reports. Values below
/// `2·SUB` ns are exact; above, each power of two splits into `SUB`
/// buckets. Percentiles interpolate by rank inside a bucket.
pub struct LogHist {
    counts: Vec<u64>,
    total: u64,
}

impl LogHist {
    /// Empty histogram covering every `u64` nanosecond count.
    pub fn new() -> LogHist {
        let mut counts = vec![0; ((65 - SUB_BITS as u64) * SUB) as usize];
        // Touch every page now: left to calloc, pages would fault in as
        // outliers land, and the peak RSS would depend on the latencies.
        for c in &mut counts {
            *c = black_box(0);
        }
        LogHist { counts, total: 0 }
    }

    fn index(ns: u64) -> usize {
        if ns < 2 * SUB {
            return ns as usize;
        }
        let shift = 63 - ns.leading_zeros() - SUB_BITS;
        ((shift as u64 + 1) * SUB + ((ns >> shift) - SUB)) as usize
    }

    /// `(lower bound, width)` of bucket `idx`, in ns.
    fn bucket(idx: usize) -> (f64, f64) {
        let idx = idx as u64;
        if idx < 2 * SUB {
            return (idx as f64, 1.0);
        }
        let shift = idx / SUB - 1;
        let lower = (idx % SUB + SUB) << shift;
        (lower as f64, (1u64 << shift) as f64)
    }

    /// Record one sample.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    /// Record a failed cell: ranked above every successful latency.
    pub fn record_failed(&mut self) {
        self.record(u64::MAX);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `p`-th percentile in ns (0 when empty).
    pub fn percentile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = p / 100.0 * (self.total - 1) as f64;
        let mut below = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + c) as f64 > rank {
                let (lower, width) = Self::bucket(idx);
                return lower + width * ((rank - below as f64 + 0.5) / c as f64);
            }
            below += c;
        }
        unreachable!("rank lies below the total count")
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles, computed exactly like Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static LIVE_PEAK: AtomicI64 = AtomicI64::new(0);

/// The system allocator plus counters that only run while a traced pass
/// has switched them on; otherwise each call pays one relaxed load.
/// The atomics publish no other data, so `Relaxed` is enough.
pub struct CountingAlloc;

fn note_alloc(size: usize) {
    if COUNTING.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(size as u64, Relaxed);
        let live = LIVE.fetch_add(size as i64, Relaxed) + size as i64;
        LIVE_PEAK.fetch_max(live, Relaxed);
    }
}

fn note_free(size: usize) {
    if COUNTING.load(Relaxed) {
        LIVE.fetch_sub(size as i64, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping around
// the calls touches only atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size());
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as a fresh allocation of the new size; forwarding keeps
        // `System`'s in-place growth, which the default impl would lose.
        note_free(layout.size());
        note_alloc(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation totals of one counting window.
#[derive(Debug, Default, Clone, Copy)]
pub struct AllocStats {
    /// Allocations (reallocations included).
    pub count: u64,
    /// Bytes requested.
    pub bytes: u64,
    /// Peak of live bytes above the window's start.
    pub live_peak: u64,
}

/// Start counting allocations from zero.
pub fn alloc_counting_start() {
    ALLOCS.store(0, Relaxed);
    ALLOC_BYTES.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    LIVE_PEAK.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
}

/// Stop counting and return the window's totals.
pub fn alloc_counting_stop() -> AllocStats {
    COUNTING.store(false, Relaxed);
    AllocStats {
        count: ALLOCS.load(Relaxed),
        bytes: ALLOC_BYTES.load(Relaxed),
        live_peak: LIVE_PEAK.load(Relaxed).max(0) as u64,
    }
}

/// Spans kept for the Chrome trace; later spans still count towards
/// self time but are not written, which bounds the file.
const SPAN_CAP: usize = 20_000;

#[derive(Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    cell: u64,
}

#[derive(Debug)]
struct Open {
    name: &'static str,
    start_ns: u64,
    cell: u64,
    child_ns: u64,
    kept: Option<usize>,
}

/// In-memory span recorder. Spans nest strictly (begin/end pairs), share
/// the id of the cell they belong to, and are written out at the end.
/// While off, `begin`/`end` return at once.
pub struct Tracer {
    /// Record spans?
    pub on: bool,
    epoch: Instant,
    open: Vec<Open>,
    spans: Vec<Span>,
    /// Per span name: (spans closed, total self ns).
    self_ns: BTreeMap<&'static str, (u64, u64)>,
}

impl Tracer {
    /// A recorder, initially off.
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
            self_ns: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` for cell `cell` under the innermost one.
    pub fn begin(&mut self, name: &'static str, cell: u64) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.open.push(Open {
            name,
            start_ns,
            cell,
            child_ns: 0,
            kept: None,
        });
        if self.spans.len() < SPAN_CAP {
            let parent = self.open.iter().rev().nth(1).and_then(|o| o.kept);
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                cell,
            });
            self.open.last_mut().expect("just pushed").kept = Some(self.spans.len() - 1);
        }
    }

    /// Close the innermost span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let o = self.open.pop().expect("end without begin");
        let dur = end_ns - o.start_ns;
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
        let agg = self.self_ns.entry(o.name).or_default();
        agg.0 += 1;
        agg.1 += dur.saturating_sub(o.child_ns);
        if let Some(i) = o.kept {
            self.spans[i].end_ns = end_ns;
            debug_assert_eq!(self.spans[i].cell, o.cell);
        }
    }

    /// `(name, spans, self seconds)` per span name, in name order.
    pub fn self_times(&self) -> Vec<(&'static str, u64, f64)> {
        self.self_ns
            .iter()
            .map(|(&n, &(c, ns))| (n, c, ns as f64 / 1e9))
            .collect()
    }

    /// The kept spans as Chrome-trace JSON (`chrome://tracing`, Perfetto).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"span\": {i}, \"parent\": {parent}, \"cell\": {}}}}}{}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.cell,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_track_exact_ranks() {
        let mut h = LogHist::new();
        for ns in 1..=100_000u64 {
            h.record(ns * 10);
        }
        let p50 = h.percentile(50.0);
        assert!((p50 / 500_000.0 - 1.0).abs() < 0.005, "{p50}");
        let p999 = h.percentile(99.9);
        assert!((p999 / 999_000.0 - 1.0).abs() < 0.005, "{p999}");
        h.record_failed();
        assert!(h.percentile(100.0) > 1e18, "a failed cell ranks last");
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.on = true;
        t.begin("cell", 0);
        t.begin("run", 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end();
        t.end();
        let times = t.self_times();
        let cell = times.iter().find(|x| x.0 == "cell").unwrap().2;
        let run = times.iter().find(|x| x.0 == "run").unwrap().2;
        assert!(run >= 0.002 && cell < run, "cell {cell} run {run}");
        assert!(t.chrome_json().contains("\"parent\": 0"));
    }
}
