#![warn(missing_docs)]

//! Non-write-through leases: the paper's noted extension.
//!
//! Section 2 limits the presentation to write-through caches ("extending
//! the mechanism to support non-write-through caches is straightforward"),
//! and §6 points at Burrows's MFS and the Echo file system, whose *tokens*
//! "can be regarded as limited-term leases, but supporting non-write-through
//! caches". This crate builds that extension:
//!
//! * leases come in two modes — shared **read** leases (as in
//!   `lease-core`) and exclusive **write** leases (tokens);
//! * a write-lease holder buffers writes locally and completes them
//!   without any server round trip: the fast path the paper's
//!   write-through design gives up;
//! * the server hands each write lease a pre-allocated **version range**,
//!   so locally-assigned versions stay globally unique even when a crash
//!   burns part of a range;
//! * dirty data is written back on recall (when another client wants the
//!   resource), periodically, on release, and on eviction;
//! * a crash while dirty **loses the buffered writes** — exactly the
//!   failure semantics §2's write-through choice avoids ("no write that
//!   has been made visible to any client can be lost; applications must
//!   otherwise be prepared to recover from lost writes"). The execution
//!   history records these as
//!   [`Discard`](lease_vsys::HistoryEvent::Discard) events, and the
//!   consistency oracle verifies that *only* the crashed writer ever saw
//!   the lost versions.
//!
//! Because a write lease is exclusive, local writes are genuine
//! linearization points: nobody else can read the resource while the
//! token is held, so buffering preserves single-copy semantics for all
//! *surviving* data.
//!
//! Scope: the write-back harness models host crashes and recalls; message
//! loss and server recovery are studied on the write-through system in
//! `lease-vsys` (this crate's transport is reliable), which is also where
//! the paper's own evaluation lives. A run's caches are built from
//! [`WbConfig::client`], one [`WbClientConfig`] handed to every
//! [`WbClient`] unchanged.
//!
//! # Examples
//!
//! ```
//! use lease_clock::Dur;
//! use lease_wb::{run_wb_with_history, WbConfig};
//! use lease_workload::PoissonWorkload;
//!
//! let trace = PoissonWorkload { n: 2, r: 0.5, w: 0.5, s: 2,
//!     duration: Dur::from_secs(60), seed: 1 }.generate();
//! let (report, _history) = run_wb_with_history(&WbConfig::default(), &trace);
//! assert_eq!(report.op_failures, 0);
//! ```

pub mod actors;
pub mod client;
pub mod harness;
pub mod msg;
pub mod server;

pub use client::{WbClient, WbClientConfig, WbClientOutput, WbClientTimer, WbInput};
pub use harness::{run_wb_with_history, WbConfig};
pub use msg::{Mode, Reservation, WbToClient, WbToServer};
pub use server::{WbServer, WbServerConfig, WbServerInput, WbServerOutput};
