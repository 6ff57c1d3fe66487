//! A counting global allocator for the benchmark binary.
//!
//! Counting is off until [`set_counting`] turns it on, and a traced run
//! is the only caller that does: with it off the wrapper adds one
//! relaxed load of a read-mostly flag per allocation, so end-to-end
//! numbers are not taxed by two contended fetch-adds per `malloc`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static FREED: AtomicU64 = AtomicU64::new(0);

pub struct Counting;

#[inline]
fn note(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every operation is forwarded unchanged to `System`; the
// wrapper only keeps statistics, in atomics that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Ordering::Relaxed) {
            FREED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            FREED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Turns counting on or off for the whole process.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocator totals since the process started (while counting was on).
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocStats {
    /// Calls that can acquire memory: alloc, alloc_zeroed, realloc.
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Bytes given back (dealloc, and the old size of each realloc).
    pub freed: u64,
}

impl AllocStats {
    pub fn since(self, earlier: AllocStats) -> AllocStats {
        AllocStats {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
            freed: self.freed - earlier.freed,
        }
    }

    /// Bytes still held out of those requested in this interval.
    pub fn live_bytes(self) -> u64 {
        self.bytes.saturating_sub(self.freed)
    }
}

pub fn stats() -> AllocStats {
    AllocStats {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        freed: FREED.load(Ordering::Relaxed),
    }
}
