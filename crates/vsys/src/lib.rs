#![warn(missing_docs)]

//! The assembled V-style distributed file system.
//!
//! This crate wires the pieces together the way the paper's evaluation did
//! (§3.2): a file server running the lease protocol, `N` client caches, a
//! simulated V-style network (`lease-net`), per-host clocks, and a workload
//! driver that replays a trace open-loop into the caches, measuring
//!
//! * the server's consistency message load (extension requests and replies,
//!   approval callbacks and approvals, installed-file multicasts), and
//! * the delay consistency adds to each read and write.
//!
//! The same harness runs the lease protocol at any term — including zero
//! (check-on-every-read, the Sprite/Andrew-prototype configuration) and
//! infinity — under scheduled crashes and under a [`FaultPlan`] (loss,
//! duplication, jitter, cut links, client and server clocks): the plan
//! type the real-time runtime reads, so one plan describes a fault in
//! both worlds. It records a global [`History`] that the consistency
//! oracle in `lease-faults` checks against single-copy semantics.
//! [`assemble`] is the one builder: the §6 baselines reuse it with their
//! own server.
//!
//! # Examples
//!
//! Reproducing one point of Figure 1's *Trace* curve:
//!
//! ```
//! use lease_clock::Dur;
//! use lease_vsys::{SystemConfig, TermSpec, run_trace};
//! use lease_workload::VTrace;
//!
//! let trace = VTrace::calibrated(1).generate();
//! let cfg = SystemConfig { term: TermSpec::Fixed(Dur::from_secs(10)), ..SystemConfig::default() };
//! let report = run_trace(&cfg, &trace);
//! assert!(report.hit_rate() > 0.5, "a 10 s lease should serve most reads locally");
//! ```

pub mod client_actor;
pub mod config;
pub mod driver;
pub mod harness;
pub mod history;
pub mod report;
pub mod server_actor;
pub mod types;

pub use client_actor::ClientActor;
pub use config::{CrashEvent, InstalledMode, NodeSel, SystemConfig, TermSpec};
pub use harness::{assemble, build_world, run_trace, run_trace_with_history, RunHandle};
pub use history::{History, HistoryEvent, SharedHistory};
pub use lease_svc::chaos::FaultPlan;
pub use report::RunReport;
pub use server_actor::ServerActor;
pub use types::{Data, NetMsg, Res};
