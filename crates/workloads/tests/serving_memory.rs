//! Serving memory does not grow with the horizon: arrivals are streamed,
//! never stored, so at a fixed load the live-heap peak of a serving run
//! stays put when the horizon quadruples.
//!
//! A counting `#[global_allocator]` tracks live bytes. This file holds one
//! test, so no other test's allocations run in the window it measures.

use gtn_core::Strategy;
use gtn_workloads::serving::{self, ServingParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// `System`, counting the bytes it holds and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        new
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes the run's live heap peaked at above its starting level, and the
/// jobs it offered.
fn live_peak_of(params: &ServingParams) -> (usize, u64) {
    let start = LIVE.load(Relaxed);
    PEAK.store(start, Relaxed);
    let report = serving::try_run(params).expect("serving run completes");
    let peak = PEAK.load(Relaxed) - start;
    (peak, report.offered)
}

#[test]
fn live_peak_does_not_grow_with_the_horizon() {
    let at = |duration_ns| {
        ServingParams::new(Strategy::GpuTn)
            .tenants(200)
            .offered(1_200_000)
            .duration_ns(duration_ns)
            .seed(1)
    };
    let (short, short_jobs) = live_peak_of(&at(100_000_000));
    let (long, long_jobs) = live_peak_of(&at(400_000_000));
    // Both horizons are past the sojourn reservoir's 65,536 samples, so
    // it is full in both runs.
    assert!(short_jobs > 65_536, "{short_jobs} jobs");
    assert!(
        long_jobs > 3 * short_jobs,
        "{long_jobs} vs {short_jobs} jobs"
    );
    assert!(
        long <= short + 256 * 1024,
        "live peak grew with the horizon: {short} B at 100 ms, {long} B at 400 ms"
    );
}
