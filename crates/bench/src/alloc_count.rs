//! Heap-allocation counting for the `zero_alloc_*` tests.
//!
//! With the `alloc-count` feature enabled this module installs a global
//! allocator that wraps [`std::alloc::System`] and counts every
//! allocation (plus reallocations and zeroed allocations — anything that
//! can acquire memory). The count is process-wide and monotonic; callers
//! measure deltas around a region of interest:
//!
//! ```ignore
//! let before = lease_bench::allocations();
//! hot_loop();
//! let during = lease_bench::allocations().zip(before).map(|(a, b)| a - b);
//! ```
//!
//! Without the feature nothing is installed and [`allocations`] returns
//! `None`, so callers can report "not measured" instead of a misleading
//! zero. The counter uses a relaxed atomic: the cost is one uncontended
//! fetch-add per allocation, which is noise next to the allocation
//! itself, so numbers gathered with the feature on remain comparable.

#[cfg(feature = "alloc-count")]
mod imp {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    struct CountingAlloc;

    // SAFETY: defers every operation to `System`; only bookkeeping added.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    pub fn allocations() -> Option<u64> {
        Some(ALLOCS.load(Ordering::Relaxed))
    }
}

#[cfg(not(feature = "alloc-count"))]
mod imp {
    pub fn allocations() -> Option<u64> {
        None
    }
}

/// The process-wide allocation count so far, or `None` when the binary
/// was built without the `alloc-count` feature.
pub fn allocations() -> Option<u64> {
    imp::allocations()
}

#[cfg(all(test, feature = "alloc-count"))]
mod tests {
    use super::allocations;

    #[test]
    fn counter_observes_a_boxed_allocation() {
        let before = allocations().unwrap();
        let b = std::hint::black_box(Box::new(42u64));
        let after = allocations().unwrap();
        assert!(after > before, "Box::new must register");
        drop(b);
    }
}
