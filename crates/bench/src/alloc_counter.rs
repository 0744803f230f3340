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
//! The counter is **process-global**, not per-thread: a delta between two
//! [`allocations`] reads attributes every allocation on every thread to the
//! interval. Allocation-measuring baseline cases therefore run on the serial
//! path only (`BENCH_baseline.json` records this in `alloc_note`), while
//! multi-threaded sweeps — which would pollute the deltas — report no
//! allocation figures. (Per-thread tallies would need thread-local state
//! inside the allocator, which risks recursion during TLS initialisation.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus a relaxed atomic allocation counter.
pub struct CountingAllocator;

// SAFETY: defers entirely to `System`; the counter has no allocator-visible
// side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc may move, i.e. allocate; count it as one.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Total allocations since process start (0 when the counting allocator is
/// not installed as the global allocator).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Whether the counting allocator is installed and counting.
pub(crate) fn is_counting() -> bool {
    allocations() > 0
}
