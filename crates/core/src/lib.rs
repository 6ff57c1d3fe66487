#![warn(missing_docs)]

//! Leases: an efficient fault-tolerant mechanism for distributed cache
//! consistency.
//!
//! This crate implements the mechanism of Gray & Cheriton's SOSP 1989
//! paper. A *lease* is a contract the server grants a caching client over a
//! datum for a limited *term*: while any client holds an unexpired lease,
//! the server must obtain that client's approval (or wait for the lease to
//! expire) before the datum may be written. Reads served from cache require
//! a valid lease; writes are write-through. Because leases expire by the
//! passage of physical time, host crashes and message loss cost only
//! bounded delay — never consistency.
//!
//! The implementation is a pair of sans-IO state machines:
//!
//! * [`LeaseServer`] — grants and extends leases (with a pluggable
//!   [`TermPolicy`] that keeps whatever access statistics it reads; the
//!   server keeps none), runs the write-approval protocol with the
//!   write-starvation guard, manages installed files by periodic multicast
//!   extension and delayed update (§4), and recovers from crashes either
//!   by honouring the persisted maximum term or from persistent lease
//!   records (§2, §5).
//! * [`LeaseClient`] — the write-through cache: read fast path under a
//!   valid lease, batched extension, conservative effective-term
//!   accounting (`t_c = t_s − (m_prop + 2·m_proc) − ε`, §3.1), approval
//!   callbacks, anticipatory renewal, LRU relinquish.
//!
//! Both are generic over the resource key `R` (file, name binding,
//! installed-file directory — anything `Copy + Default + Eq + Hash +
//! Ord`) and the datum `D: Clone`, and perform no I/O: every call takes
//! `now` and returns the sends, timers, and persistence actions for the
//! harness to apply. The same machines run under the deterministic simulator (`lease-vsys`)
//! and under real threads and wall clocks (`lease-rt`).
//!
//! # Examples
//!
//! A single client reading through a server, driven by hand:
//!
//! ```
//! use lease_clock::{Dur, Time};
//! use lease_core::{
//!     ClientConfig, ClientInput, LeaseClient, LeaseServer, MemStorage, Op, OpId,
//!     ServerConfig, ServerInput, ClientId, ClientOutput, ServerOutput, ToServer,
//! };
//!
//! let mut store = MemStorage::new();
//! store.insert(7u64, "contents".to_string());
//! let mut server = LeaseServer::new(ServerConfig::fixed(Dur::from_secs(10)));
//! let mut client = LeaseClient::new(ClientId(0), ClientConfig::default());
//!
//! // The client misses and emits a Fetch...
//! let out = client.handle(Time::ZERO, ClientInput::Op { op: OpId(1), kind: Op::Read(7) });
//! let fetch = out.iter().find_map(|o| match o {
//!     ClientOutput::Send(m) => Some(m.clone()),
//!     _ => None,
//! }).unwrap();
//!
//! // ...the server grants a 10-second lease with the data...
//! let replies = server.handle(
//!     Time::from_millis(2),
//!     ServerInput::Msg { from: ClientId(0), msg: fetch },
//!     &mut store,
//! );
//! let grant = replies.into_iter().find_map(|o| match o {
//!     ServerOutput::Send { msg, .. } => Some(msg),
//!     _ => None,
//! }).unwrap();
//!
//! // ...and the client caches it: the next read is a local hit.
//! client.handle(Time::from_millis(4), ClientInput::Msg(grant));
//! assert!(client.lease_valid(7, Time::from_secs(5)));
//! ```

// The reference table (`tests/reference/`), compiled into this crate's
// unit tests, names its imports the way an integration test does.
#[cfg(test)]
extern crate self as lease_core;

pub mod affinity;
pub mod client;
pub mod flat;
pub mod hash;
pub mod msg;
pub mod policy;
pub mod ring;
pub mod server;
pub mod stats;
pub mod storage;
pub mod table;
pub mod types;
pub mod wheel;

pub use client::{
    Backoff, ClientConfig, ClientCounters, ClientInput, ClientOutput, ClientTimer, LeaseClient, Op,
    OpError, OpOutcome, OpResult, RetryBudget,
};
pub use hash::{fx_hash, FxHasher, FxMap, FxSet};
pub use msg::{ErrorReason, Grant, ToClient, ToServer};
pub use policy::{AdaptiveTerm, CompensatedTerm, FixedTerm, Observation, TermPolicy};
pub use server::{
    LeaseServer, RecoveryMode, ServerConfig, ServerCounters, ServerInput, ServerOutput, ServerTimer,
};
pub use stats::ResourceStats;
pub use storage::{MemStorage, Storage};
pub use table::{LeaseTable, SlabTable};
pub use types::{ClientId, LeaseHandle, OpId, ReqId, Resource, Version, WriteId};
pub use wheel::TimerWheel;
