//! Protocol identifiers shared by client and server.

use std::fmt;
use std::hash::Hash;

use serde::{Deserialize, Serialize};

/// Identifies a client cache to the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ClientId(pub u32);

/// A client-local operation id: one logical read or write submitted by the
/// application. Several ops may wait on one network request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct OpId(pub u64);

/// A client-local request id, carried on the wire and echoed in replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ReqId(pub u64);

/// A server-assigned id for a write awaiting approval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct WriteId(pub u64);

/// An opaque cookie naming one lease record inside the server's slab
/// table: a slot index plus the slot's generation at grant time.
///
/// The server returns a handle with every grant; a client that echoes it
/// on renewal lets the server extend the lease with one slab load instead
/// of two hash probes (the paper's "couple of pointers" record, §2,
/// addressed directly). Handles are *hints*, never authority: the table
/// validates generation, resource, and holder before using one, so a
/// stale handle — slot recycled, server restarted, or a forged value —
/// degrades to the keyed lookup path and can never touch the wrong
/// record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LeaseHandle {
    /// Slab slot index (`u32::MAX` = null).
    pub(crate) idx: u32,
    /// Slot generation at grant time (odd while the slot is occupied).
    pub(crate) gen: u32,
}

impl LeaseHandle {
    /// The null handle: names no record, always takes the keyed path.
    pub const NULL: LeaseHandle = LeaseHandle {
        idx: u32::MAX,
        gen: 0,
    };

    /// Whether this is the null handle.
    pub fn is_null(self) -> bool {
        self.idx == u32::MAX
    }

    /// Splits the handle into its `(idx, gen)` raw parts for wire
    /// transport. Safe to expose: handles are hints, and the table
    /// validates generation/resource/holder before honoring one, so a
    /// forged or corrupted pair degrades to the keyed lookup path.
    pub fn to_raw(self) -> (u32, u32) {
        (self.idx, self.gen)
    }

    /// Rebuilds a handle from [`LeaseHandle::to_raw`] parts (the wire
    /// decode path).
    pub fn from_raw(idx: u32, gen: u32) -> LeaseHandle {
        LeaseHandle { idx, gen }
    }
}

impl Default for LeaseHandle {
    fn default() -> LeaseHandle {
        LeaseHandle::NULL
    }
}

/// A monotonically increasing per-resource version. Version 0 means "never
/// written".
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Version(pub u64);

impl Version {
    /// The next version.
    pub fn next(self) -> Version {
        Version(self.0 + 1)
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// The datum a lease covers.
///
/// The paper leases file contents, but also name-to-file bindings and
/// permission information (§2), and whole directories of installed files
/// (§4) — so the protocol core is generic over the resource key. Anything
/// cheap to copy, hash, and order qualifies; `Default` fills the empty
/// buckets of the server's flat indexes ([`crate::flat::FlatMap`]).
pub trait Resource: Copy + Default + Eq + Hash + Ord + fmt::Debug + Send + 'static {}

impl<T: Copy + Default + Eq + Hash + Ord + fmt::Debug + Send + 'static> Resource for T {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_ordering_and_next() {
        assert!(Version(2) > Version(1));
        assert_eq!(Version::default(), Version(0));
        assert_eq!(Version(7).next(), Version(8));
        assert_eq!(format!("{}", Version(3)), "v3");
    }

    fn takes_resource<R: Resource>(_r: R) {}

    #[test]
    fn blanket_resource_impl() {
        takes_resource(5u64);
        takes_resource((1u32, 2u32));
        takes_resource('x');
    }
}
