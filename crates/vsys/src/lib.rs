#![warn(missing_docs)]

//! The assembled V-style distributed file system.
//!
//! This crate wires the pieces together the way the paper's evaluation did
//! (§3.2): a file server running the lease protocol, `N` client caches, a
//! simulated V-style network ([`SimNet`]), per-host clocks, and a workload
//! driver that replays a trace open-loop into the caches, measuring
//!
//! * the server's consistency message load (extension requests and replies,
//!   approval callbacks and approvals, installed-file multicasts), and
//! * the delay consistency adds to each read and write.
//!
//! The same harness runs the lease protocol at any term — including zero
//! (check-on-every-read, the Sprite/Andrew-prototype configuration) and
//! infinity — under scheduled crashes and under a `lease-faults`
//! [`FaultPlan`](lease_faults::FaultPlan) (loss, duplication, jitter, cut
//! links, client and server clocks, kills of the server's one shard): the
//! plan type the real-time runtime reads, so one plan describes a fault
//! in both worlds. The lease server runs as a `lease_core::ShardCore`,
//! the shard step `lease-svc`'s threads drive too. It records a
//! global [`History`] that the consistency oracle in `lease-faults`
//! checks against single-copy semantics. With
//! [`SystemConfig::quorum`] the one server becomes a quorum of grantor
//! replicas, each running a `lease-quorum` node beside its lease server
//! over the same network (the [`replica`] module), so one run covers the
//! election and the file leases together.
//! [`assemble`] is the one builder, and [`ClientActor`] and
//! [`ServerActor`] are the one client and the one server actor: the §6
//! baselines run their callback and TTL servers on them through
//! [`SimServer`], and `lease-wb` its write-back tokens through
//! [`SimCache`] and [`SimServer`]. The actors count what a [`RunReport`]
//! reports into one typed [`Tally`], classifying each server message by
//! its [`TrafficClass`]. Here every cache is a `lease-core`
//! [`LeaseClient`](lease_core::LeaseClient) built from
//! [`SystemConfig::client`], a whole [`ClientConfig`] passed on
//! unchanged, so the simulator reaches every client option the
//! real-time runtime does.
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
pub mod params;
pub mod replica;
pub mod report;
pub mod server_actor;
pub mod simnet;
pub mod types;

pub use client_actor::{CacheEffect, CacheEvent, ClientActor, SimCache};
pub use config::{CrashEvent, InstalledMode, NodeSel, SystemConfig, TermSpec};
pub use harness::{assemble, build_world, run_trace, run_trace_with_history, RunHandle};
pub use lease_core::ClientConfig;
/// `lease-faults`' history types, re-exported only because the benchmark
/// (`benchmark/src/cache_mix.rs`, which does not change) names
/// `lease_vsys::HistoryEvent`; everything else imports them from
/// `lease_faults`.
pub use lease_faults::{History, HistoryEvent};
pub use params::NetParams;
pub use replica::Grantors;
pub use report::{RunReport, SharedTally, Tally, Traffic, TrafficClass};
pub use server_actor::{Disk, ServerActor, ServerEffect, ServerEvent, SharedDisk, SimServer};
pub use simnet::SimNet;
pub use types::{Data, NetMsg, Res, Store};
