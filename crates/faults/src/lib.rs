#![warn(missing_docs)]

//! The failure model of the leases reproduction: what may go wrong in a
//! run, what the run did, and whether that was consistent.
//!
//! Section 5 of the paper claims that leases "ensure consistency provided
//! that the hosts and network do not suffer certain Byzantine failures
//! including clock failure": message loss, partitions, and crashes cost
//! only delay, while a fast server clock or slow client clock can produce
//! genuinely stale reads. This crate holds what makes those claims
//! checkable, below every world that runs the protocol (the
//! simulator in `lease-vsys`, the threaded service in `lease-svc` and its
//! runtimes):
//!
//! * [`FaultPlan`] — the one fault vocabulary: a seeded schedule of
//!   kills, message loss, duplication and delay, cut links and clock
//!   models, with deterministic per-link dice ([`LinkChaos`]). Beside it,
//!   [`OverloadPlan`] is a load generator's open-loop schedule.
//! * [`History`] — the one record of a run: every read, write, commit and
//!   grantor claim, stamped with *true* time.
//! * [`check_history`] — the consistency oracle. It replays a recorded
//!   [`History`] against single-copy semantics: every read must return a
//!   version that was current at some instant during the read's lifetime,
//!   commits must be monotone, and every completed write must correspond
//!   to a commit. The oracle judges executions on the *true* timeline,
//!   which the protocol itself never sees.
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
//! use lease_faults::{check_history, History, HistoryEvent};
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

mod chaos;
pub mod history;
pub mod oracle;

pub use chaos::{
    Arrivals, Delivery, FaultPlan, LinkChaos, OverloadPlan, OVERLOAD_STREAM, REPLICA_STREAM,
};
pub use history::{History, HistoryEvent, Res, SharedHistory};
pub use oracle::{
    check_goodput, check_history, grantor_claims, staleness_of, Claim, GoodputSpec, Violation,
};
