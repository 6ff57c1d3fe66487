//! Heap-allocation counting for the `zero_alloc_*` and `server_bytes`
//! tests.
//!
//! With the `alloc-count` feature enabled this module installs a global
//! allocator that wraps [`std::alloc::System`] and counts every
//! allocation (plus reallocations and zeroed allocations — anything that
//! can acquire memory), and keeps the bytes currently allocated. Both are
//! process-wide; callers measure deltas around a region of interest:
//!
//! ```ignore
//! let before = lease_bench::allocations();
//! hot_loop();
//! let during = lease_bench::allocations().zip(before).map(|(a, b)| a - b);
//! ```
//!
//! [`live_bytes`] goes up by the size of each allocation and down by the
//! size of each deallocation (a reallocation adds the difference), so its
//! delta over a region is what the region retained.
//!
//! Without the feature nothing is installed and both return `None`, so
//! callers can report "not measured" instead of a misleading zero. The
//! counters use relaxed atomics: the cost is two uncontended fetch-adds
//! per allocation, which is noise next to the allocation itself, so
//! numbers gathered with the feature on remain comparable.

#[cfg(feature = "alloc-count")]
mod imp {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    static LIVE: AtomicI64 = AtomicI64::new(0);

    struct CountingAlloc;

    // SAFETY: defers every operation to `System`; only bookkeeping added.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            let p = System.alloc(layout);
            if !p.is_null() {
                LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
            System.dealloc(ptr, layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            let p = System.alloc_zeroed(layout);
            if !p.is_null() {
                LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
            }
            p
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            let p = System.realloc(ptr, layout, new_size);
            if !p.is_null() {
                LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
            }
            p
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    pub fn allocations() -> Option<u64> {
        Some(ALLOCS.load(Ordering::Relaxed))
    }

    pub fn live_bytes() -> Option<i64> {
        Some(LIVE.load(Ordering::Relaxed))
    }
}

#[cfg(not(feature = "alloc-count"))]
mod imp {
    pub fn allocations() -> Option<u64> {
        None
    }

    pub fn live_bytes() -> Option<i64> {
        None
    }
}

/// The process-wide allocation count so far, or `None` when the binary
/// was built without the `alloc-count` feature.
pub fn allocations() -> Option<u64> {
    imp::allocations()
}

/// Heap bytes allocated and not yet freed, counted since the process
/// started, or `None` without the `alloc-count` feature. Only deltas
/// mean anything: the counter starts at zero, not at the heap's size.
pub fn live_bytes() -> Option<i64> {
    imp::live_bytes()
}

#[cfg(all(test, feature = "alloc-count"))]
mod tests {
    use super::{allocations, live_bytes};

    #[test]
    fn counter_observes_a_boxed_allocation() {
        let before = allocations().unwrap();
        let b = std::hint::black_box(Box::new(42u64));
        let after = allocations().unwrap();
        assert!(after > before, "Box::new must register");
        drop(b);
    }

    #[test]
    fn live_bytes_follow_a_vec_through_growth_and_drop() {
        // Other tests of this binary may run concurrently; 1 MB dwarfs
        // whatever they hold at any instant.
        const MB: i64 = 1 << 20;
        let before = live_bytes().unwrap();
        let mut v: Vec<u8> = Vec::with_capacity(MB as usize);
        v.reserve_exact(2 * MB as usize); // realloc 1 MB -> 2 MB
        let held = live_bytes().unwrap() - before;
        assert!((held - 2 * MB).abs() < MB / 2, "held {held}");
        drop(std::hint::black_box(v));
        let left = live_bytes().unwrap() - before;
        assert!(left.abs() < MB / 2, "left {left}");
    }
}
