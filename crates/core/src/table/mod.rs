//! The server's lease table.
//!
//! The paper sizes lease soft state at "a couple of pointers" per lease
//! (§2). [`slab::SlabTable`] is the table: every record lives in a
//! generational slab (`Vec` + free list, `u32` index + `u32` generation
//! handles), each resource's holders form an intrusive doubly-linked list
//! threaded through the slab, and expiry ordering is delegated to the
//! hierarchical [`crate::wheel::TimerWheel`]. Grant, extend, and release
//! are O(1) with zero allocation in steady state, and renewals presenting
//! a valid [`LeaseHandle`] skip hashing entirely.
//!
//! Its specification is test code: the original map-plus-`BTreeSet`
//! table lives in `tests/reference/`, and the equivalence property test
//! (`tests/table_equiv.rs`) drives both through random
//! grant/extend/release/prune/crash scripts and demands identical
//! answers to every query.

pub mod slab;

/// The specification's own unit tests run with this crate's. Its
/// `extend` is exercised by `tests/table_equiv.rs`, not by them.
#[cfg(test)]
#[allow(dead_code)]
#[path = "../../tests/reference/mod.rs"]
mod reference;

pub use crate::types::LeaseHandle;
pub use slab::{SlabTable, ORPHAN_SLACK};

/// The lease table the server uses: the slab implementation.
pub type LeaseTable<R> = SlabTable<R>;
