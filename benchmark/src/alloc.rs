//! A counting global allocator for the benchmark binary.
//!
//! Counting is off by default: the end-to-end runs pay one relaxed load
//! per allocation. The traced run switches it on around a repetition to
//! report allocations and bytes per confirmed block, and the peak of
//! live bytes allocated since it was switched on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

pub struct Counting;

// Statistics only: none of these publishes other data, so `Relaxed`.
static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

// SAFETY: every call forwards to `System` with the caller's layout and
// pointer unchanged; the counters never touch the allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            let size = layout.size() as i64;
            COUNT.fetch_add(1, Relaxed);
            BYTES.fetch_add(size as u64, Relaxed);
            let live = LIVE.fetch_add(size, Relaxed) + size;
            PEAK.fetch_max(live, Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ENABLED.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
        // SAFETY: `ptr` was returned by `System.alloc` (or `realloc`)
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            let grow = new_size as i64 - layout.size() as i64;
            COUNT.fetch_add(1, Relaxed);
            BYTES.fetch_add(grow.max(0) as u64, Relaxed);
            let live = LIVE.fetch_add(grow, Relaxed) + grow;
            PEAK.fetch_max(live, Relaxed);
        }
        // SAFETY: `ptr`/`layout` describe a live `System` allocation and
        // `new_size` is the caller's, all passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation totals since [`start`].
#[derive(Clone, Copy, Default, Debug)]
pub struct AllocStats {
    /// `alloc` + `realloc` calls.
    pub count: u64,
    /// Bytes requested (a `realloc` counts its growth).
    pub bytes: u64,
    /// Peak of bytes allocated since `start` and not yet freed. Memory
    /// allocated before `start` and freed after it lowers the figure.
    pub peak_live_bytes: u64,
}

impl AllocStats {
    /// Calls and bytes of `self - earlier`; the peak stays `self`'s.
    pub fn since(&self, earlier: &Self) -> Self {
        Self {
            count: self.count - earlier.count,
            bytes: self.bytes - earlier.bytes,
            peak_live_bytes: self.peak_live_bytes,
        }
    }
}

/// Zeroes the counters and switches counting on.
pub fn start() {
    for c in [&COUNT, &BYTES] {
        c.store(0, Relaxed);
    }
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ENABLED.store(true, Relaxed);
}

/// The totals so far (all zero while counting has never been on).
pub fn now() -> AllocStats {
    AllocStats {
        count: COUNT.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak_live_bytes: PEAK.load(Relaxed).max(0) as u64,
    }
}

/// Switches counting off and returns the totals.
pub fn stop() -> AllocStats {
    ENABLED.store(false, Relaxed);
    now()
}
