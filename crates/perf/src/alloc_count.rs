//! Counting global allocator for allocation-budget tests.
//!
//! The arena-backed replay core (DESIGN.md §13) promises a steady-state
//! event loop that touches the heap zero times per event once its
//! buffers are warm. That promise is cheap to break silently — one
//! stray `collect()` in a hot path and every event allocates again —
//! so it is pinned by counting: install [`CountingAllocator`] as the
//! `#[global_allocator]` in a dedicated integration test, warm the
//! simulator, and assert the allocation count does not grow with the
//! event count.
//!
//! ```ignore
//! use gsf_perf::alloc_count::CountingAllocator;
//!
//! #[global_allocator]
//! static ALLOC: CountingAllocator = CountingAllocator::new();
//!
//! let before = ALLOC.allocations();
//! // ... hot loop ...
//! assert_eq!(ALLOC.allocations() - before, 0);
//! ```
//!
//! The counter is a relaxed atomic: the harness measures totals between
//! two points on one thread, so no ordering stronger than the counter's
//! own consistency is needed, and the measurement overhead stays one
//! fetch-add per heap call. Reallocations count as one event (they may
//! move memory but represent a single heap round-trip); deallocations
//! are not counted — a hot loop that frees without allocating cannot
//! grow its footprint, and the budget being pinned is allocation
//! pressure, not traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A [`System`]-backed allocator that counts every allocation.
///
/// Install one as the `#[global_allocator]` of a test binary
/// and read [`Self::allocations`] around the region under measurement.
#[derive(Debug)]
pub struct CountingAllocator {
    allocations: AtomicU64,
}

impl CountingAllocator {
    /// Creates an allocator with a zeroed counter (`const`, so it can
    /// initialize a `static`).
    #[must_use]
    pub const fn new() -> Self {
        Self { allocations: AtomicU64::new(0) }
    }

    /// Total allocations (including zeroed and reallocations) since
    /// construction.
    pub fn allocations(&self) -> u64 {
        self.allocations.load(Ordering::Relaxed)
    }
}

impl Default for CountingAllocator {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: delegates every contract-bearing operation to `System`
// unchanged; the only addition is a relaxed counter bump, which cannot
// affect the returned pointers or layouts.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The allocator is not installed globally here (that requires a
    // dedicated binary), so exercise it directly.
    #[test]
    fn counts_alloc_and_realloc_but_not_dealloc() {
        let a = CountingAllocator::new();
        let layout = Layout::from_size_align(64, 8).expect("valid layout");
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            assert_eq!(a.allocations(), 1);
            let p2 = a.realloc(p, layout, 128);
            assert!(!p2.is_null());
            assert_eq!(a.allocations(), 2);
            let grown = Layout::from_size_align(128, 8).expect("valid layout");
            a.dealloc(p2, grown);
            assert_eq!(a.allocations(), 2, "dealloc must not count");
            let pz = a.alloc_zeroed(layout);
            assert!(!pz.is_null());
            assert_eq!(a.allocations(), 3);
            a.dealloc(pz, layout);
        }
    }
}
