//! Opt-in counting global allocator.
//!
//! A thin wrapper around [`std::alloc::System`] that counts every
//! allocation and its size into process-global relaxed atomics. Binaries
//! opt in with:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: emx_hostprof::CountingAlloc = emx_hostprof::CountingAlloc::new();
//! ```
//!
//! The raw totals are monotone for the life of the process (frees are
//! not subtracted — this measures allocation *work*, not residency).
//! [`crate::reset`] records a baseline so report snapshots cover only the
//! profiled region; [`alloc_totals`] returns totals relative to that
//! baseline. Counting is unconditional (not gated on the profiling flag)
//! because the gate itself would cost as much as the count: two relaxed
//! `fetch_add`s per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The two counters every allocation bumps. Every allocating thread writes
/// them, so they get 128 bytes of their own (a cache line plus the one an
/// adjacent-line prefetcher pairs with it). Otherwise the linker may place
/// a read-mostly static beside them, such as the kill switch that every
/// simulated event reads, and each of those reads then misses while another
/// sweep worker allocates.
#[repr(align(128))]
struct Counts {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

static COUNTS: Counts = Counts {
    allocs: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
};
static BASE_ALLOCS: AtomicU64 = AtomicU64::new(0);
static BASE_BYTES: AtomicU64 = AtomicU64::new(0);

/// Counting wrapper around the system allocator. See the module docs.
#[derive(Debug, Default)]
pub struct CountingAlloc;

impl CountingAlloc {
    /// Const constructor for `#[global_allocator]` statics.
    pub const fn new() -> Self {
        CountingAlloc
    }

    /// Process-lifetime totals `(allocations, bytes)` — monotone
    /// non-decreasing, independent of the profiling gate and baseline.
    pub fn raw_totals() -> (u64, u64) {
        (
            COUNTS.allocs.load(Ordering::Relaxed),
            COUNTS.bytes.load(Ordering::Relaxed),
        )
    }
}

#[allow(unsafe_code)]
// SAFETY: pure pass-through to `System`; the only added behavior is
// relaxed counter arithmetic, which cannot violate allocator contracts.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        COUNTS.allocs.fetch_add(1, Ordering::Relaxed);
        COUNTS
            .bytes
            .fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        COUNTS.allocs.fetch_add(1, Ordering::Relaxed);
        COUNTS.bytes.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Record the current totals as the baseline future [`alloc_totals`]
/// reads subtract. Called by [`crate::reset`].
pub(crate) fn rebaseline() {
    BASE_ALLOCS.store(COUNTS.allocs.load(Ordering::Relaxed), Ordering::Relaxed);
    BASE_BYTES.store(COUNTS.bytes.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Totals `(allocations, bytes)` since the last [`crate::reset`]. Zero
/// in binaries that did not install [`CountingAlloc`].
pub fn alloc_totals() -> (u64, u64) {
    let a = COUNTS.allocs.load(Ordering::Relaxed);
    let b = COUNTS.bytes.load(Ordering::Relaxed);
    (
        a.saturating_sub(BASE_ALLOCS.load(Ordering::Relaxed)),
        b.saturating_sub(BASE_BYTES.load(Ordering::Relaxed)),
    )
}
