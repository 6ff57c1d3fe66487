#![warn(missing_docs)]

//! Fault-tolerance analysis for the leases reproduction.
//!
//! Section 5 of the paper claims that leases "ensure consistency provided
//! that the hosts and network do not suffer certain Byzantine failures
//! including clock failure": message loss, partitions, and crashes cost
//! only delay, while a fast server clock or slow client clock can produce
//! genuinely stale reads. This crate provides the instrument that makes
//! those claims checkable:
//!
//! * [`check_history`] — the consistency oracle. It replays a recorded
//!   [`History`](lease_vsys::History) against single-copy semantics: every
//!   read must return a version that was current at some instant during
//!   the read's lifetime, commits must be monotone, and every completed
//!   write must correspond to a commit. The oracle judges executions on
//!   the *true* timeline, which the protocol itself never sees.
//! * [`staleness_of`] — how stale each violating read was, the measure the
//!   paper's TTL/callback baselines trade away.
//! * [`check_goodput`] — the overload-liveness oracle: after an overload
//!   burst ends, completed-operation throughput must recover to a
//!   fraction of its pre-overload baseline within a bounded number of
//!   lease-term windows, or the run is flagged as a congestion collapse.
//!
//! # Examples
//!
//! ```
//! use lease_clock::Time;
//! use lease_core::{ClientId, OpId, Version};
//! use lease_faults::check_history;
//! use lease_vsys::{History, HistoryEvent};
//!
//! let mut h = History::new();
//! h.push(HistoryEvent::ReadStart {
//!     client: ClientId(0), op: OpId(0), resource: 1, at: Time::from_secs(1),
//! });
//! h.push(HistoryEvent::ReadDone {
//!     client: ClientId(0), op: OpId(0), resource: 1, version: Version(1),
//!     at: Time::from_secs(1), from_cache: false,
//! });
//! assert!(check_history(&h).is_ok());
//! ```

pub mod oracle;

pub use oracle::{
    check_goodput, check_history, grantor_claims, staleness_of, Claim, GoodputSpec, Violation,
};
