//! A counting global allocator. It counts only while a measurement window
//! is open ([`start`]..[`stop`]), so untraced runs pay one relaxed load per
//! allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// Wraps the system allocator with window-scoped counters.
pub struct Counting;

static OPEN: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated minus bytes freed since the window opened (negative when
/// the window frees memory that was allocated before it).
static NET: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

// The counters are statistics: they publish no other data, so relaxed
// ordering suffices, and threads of the engine's worker pool add to them
// concurrently.
fn note(allocations: u64, delta: i64) {
    if OPEN.load(Ordering::Relaxed) {
        COUNT.fetch_add(allocations, Ordering::Relaxed);
        let net = NET.fetch_add(delta, Ordering::Relaxed) + delta;
        PEAK.fetch_max(net, Ordering::Relaxed);
    }
}

fn size(bytes: usize) -> i64 {
    i64::try_from(bytes).unwrap_or(i64::MAX)
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters never touch the memory being managed.
// `alloc_zeroed` and `realloc` forward too (rather than taking the trait's
// alloc-and-copy defaults), so the benchmark allocates exactly as the
// system allocator would.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, size(layout.size()));
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, size(layout.size()));
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -size(layout.size()));
        // SAFETY: forwarded verbatim; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, size(new_size) - size(layout.size()));
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Opens a counting window, resetting the counters.
pub fn start() {
    COUNT.store(0, Ordering::Relaxed);
    NET.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    OPEN.store(true, Ordering::SeqCst);
}

/// What a closed window saw.
#[derive(Default)]
pub struct Window {
    /// Allocations and reallocations made inside the window.
    pub count: u64,
    /// High-water mark of bytes allocated minus bytes freed inside the window.
    pub peak_bytes: u64,
}

/// Closes the counting window and returns its counters.
pub fn stop() -> Window {
    OPEN.store(false, Ordering::SeqCst);
    Window {
        count: COUNT.load(Ordering::Relaxed),
        peak_bytes: u64::try_from(PEAK.load(Ordering::Relaxed)).unwrap_or(0),
    }
}
