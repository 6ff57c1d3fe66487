#![warn(missing_docs)]

//! Comparison consistency protocols (§6 of the paper).
//!
//! Each baseline runs on the *same* harness as the lease system — same
//! simulated network, same client caches and workload driver, same
//! measurements, same consistency oracle — with only the server's protocol
//! swapped out. A baseline server is a sans-IO `SimServer` that
//! `lease_vsys::assemble` hands to the one `ServerActor`, which also runs
//! the lease server: it routes, records each commit in the history and
//! counts every message by the lease protocol's own traffic classes.
//!
//! * [`AndrewServer`] — the revised Andrew file system: effectively
//!   infinite-term leases ("callback promises"). On a write the server
//!   notifies holders but **does not wait**: if the invalidation is lost
//!   (partition, crash), the client keeps serving stale data until its
//!   next poll — the fault-tolerance gap §6 points out. A configurable
//!   poll (Andrew used ten minutes) bounds the staleness window.
//! * [`NfsServer`] — NFS-style TTL hints: the server is stateless;
//!   clients cache for a fixed time-to-live and writes invalidate nobody.
//!   Consistency is simply not guaranteed.
//! * Zero-term leases (check on every open — Sprite, RFS, and the Andrew
//!   prototype) and Xerox DFS breakable locks (which §6 argues degenerate
//!   to zero-term leasing) are the lease system itself at term 0, so
//!   [`Baseline::run`] just delegates to `lease-vsys` for those.
//!
//! # Examples
//!
//! ```
//! use lease_clock::Dur;
//! use lease_baselines::Baseline;
//! use lease_vsys::SystemConfig;
//! use lease_workload::PoissonWorkload;
//!
//! let trace = PoissonWorkload::v_rates(2, 2, Dur::from_secs(60), 1).generate();
//! let (report, _history) =
//!     Baseline::NfsTtl { ttl: Dur::from_secs(30) }.run(&SystemConfig::default(), &trace);
//! assert!(report.hits > 0);
//! ```

pub mod andrew;
pub mod harness;
pub mod nfs;

pub use andrew::AndrewServer;
pub use harness::Baseline;
pub use nfs::NfsServer;

use lease_clock::Dur;
use lease_core::{Grant, LeaseHandle, Storage, Version};
use lease_vsys::{Data, Res, Store};

/// A grant of `resource` for `term`, carrying the data unless the
/// client's `cached` version is current; `None` if there is no such file.
fn grant(
    storage: &Store,
    resource: Res,
    cached: Option<Version>,
    term: Dur,
) -> Option<Grant<Res, Data>> {
    let (data, version) = storage.read(&resource)?;
    Some(Grant {
        resource,
        version,
        data: (cached != Some(version)).then_some(data),
        term,
        handle: LeaseHandle::NULL,
    })
}
