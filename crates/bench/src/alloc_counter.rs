//! A counting wrapper around the system allocator.
//!
//! The perf baseline reports *allocations per broadcast* to catch
//! regressions on the zero-clone message hot path: a broadcast performs one
//! payload allocation (the `Arc`) regardless of fan-out, so a jump in this
//! ratio means per-destination clones crept back in.
//!
//! The wrapper only counts when installed, which binaries opt into:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: bft_sim_bench::alloc_counter::CountingAllocator = CountingAllocator;
//! ```
//!
//! The `bft-sim` binary installs it; library unit tests do not, and
//! [`allocations`] simply stays at zero there.
//!
//! Beside the count it keeps the bytes live on the heap and their peak
//! ([`peak_live_bytes`], re-armed by [`reset_peak_live_bytes`]), which is
//! how `crates/bench/tests/footprint.rs` tells a run that holds each
//! decision once from one that holds it twice.
//!
//! The counters are **process-global**, not per-thread: a delta between two
//! [`allocations`] reads attributes every allocation on every thread to the
//! interval. Allocation-measuring baseline cases therefore run on the serial
//! path only (`BENCH_baseline.json` records this in `alloc_note`), while
//! multi-threaded sweeps — which would pollute the deltas — report no
//! allocation figures. (Per-thread tallies would need thread-local state
//! inside the allocator, which risks recursion during TLS initialisation.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus relaxed atomic counters: allocations, live
/// heap bytes and their peak.
pub struct CountingAllocator;

/// `bytes` more are live; raises the peak when they pass it.
fn grow(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    if live > PEAK_LIVE_BYTES.load(Ordering::Relaxed) {
        PEAK_LIVE_BYTES.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrink(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: defers entirely to `System`; the counters have no
// allocator-visible side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc may move, i.e. allocate; count it as one.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        if new_size > layout.size() {
            grow(new_size - layout.size());
        } else {
            shrink(layout.size() - new_size);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Total allocations since process start (0 when the counting allocator is
/// not installed as the global allocator).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// The most heap bytes live at once since the last
/// [`reset_peak_live_bytes`] (or process start), as requested sizes: what
/// the program asked for, not what the system allocator rounded it to. 0
/// when the counting allocator is not installed.
pub fn peak_live_bytes() -> u64 {
    PEAK_LIVE_BYTES.load(Ordering::Relaxed)
}

/// Restarts the peak from the bytes live now, and returns them.
pub fn reset_peak_live_bytes() -> u64 {
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_LIVE_BYTES.store(live, Ordering::Relaxed);
    live
}

/// Whether the counting allocator is installed and counting.
pub(crate) fn is_counting() -> bool {
    allocations() > 0
}
