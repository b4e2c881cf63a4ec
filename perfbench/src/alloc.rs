//! A counting global allocator.
//!
//! Every allocation updates the live-byte total. Counts, bytes and the
//! high-water mark are recorded only while a [`measure`] window is open,
//! so the benchmark's own inputs (matrices, request lines) stay out of
//! the figures. The high-water mark is the largest growth of live bytes
//! above the level at which its window opened.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicU64, Ordering::Relaxed};

/// The allocator installed as `#[global_allocator]` in `main.rs`.
pub struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static BASE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn on_alloc(size: usize) {
    let live = LIVE.fetch_add(size as isize, Relaxed) + size as isize;
    if ARMED.load(Relaxed) {
        COUNT.fetch_add(1, Relaxed);
        BYTES.fetch_add(size as u64, Relaxed);
        PEAK.fetch_max(live - BASE.load(Relaxed), Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counters are statistics only and never affect
// the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as isize, Relaxed);
            on_alloc(new_size);
        }
        p
    }
}

/// Run `f` inside a measurement window.
pub fn measure<T>(f: impl FnOnce() -> T) -> T {
    BASE.store(LIVE.load(Relaxed), Relaxed);
    ARMED.store(true, Relaxed);
    let out = f();
    ARMED.store(false, Relaxed);
    out
}

/// What the windows since the last [`take`] recorded.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Allocations (a `realloc` counts as one).
    pub count: u64,
    /// Bytes requested.
    pub bytes: u64,
    /// Largest growth of live bytes within one window.
    pub peak_bytes: u64,
}

/// Read and reset the window counters.
pub fn take() -> Totals {
    Totals {
        count: COUNT.swap(0, Relaxed),
        bytes: BYTES.swap(0, Relaxed),
        peak_bytes: PEAK.swap(0, Relaxed).max(0) as u64,
    }
}
