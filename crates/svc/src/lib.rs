#![warn(missing_docs)]

//! A sharded, batched, timer-wheel-driven lease service runtime.
//!
//! The paper's server is one lease table probed on every read, write, and
//! expiry — fine for the 1989 V file server, but a single mailbox in front
//! of a single state machine is the bottleneck of the real-time deployment
//! at scale. This crate turns the *unmodified* sans-IO `lease-core` server
//! into a horizontally partitioned service component:
//!
//! * **Sharding** — resources are partitioned by key hash ([`shard_of`])
//!   across N single-threaded shard workers, each owning its slice of the
//!   lease table. Distinct files never contend; the paper's per-datum
//!   protocol makes the partition exact.
//! * **One message path** — a message reaches a shard one way: the
//!   bounded SPSC ring lane its [`SvcHandle`] owns into that shard
//!   (protocol inputs, stats requests, injected kills and shutdown
//!   alike). A reply leaves one way: the private [`WorkerSink`] each
//!   worker got from [`ClientSink::attach_worker`] — [`EgressWorker`]'s
//!   per-(shard→client) lanes, or a transport's filter in front of them.
//!   The protocol asks its transport for nothing but lossy datagrams plus
//!   retransmission, so a dropped, delayed or fenced message is a filter
//!   before a lane, never a second transport.
//! * **A thread frees what it allocates; a lane carries plain data** —
//!   a reply lane's slot is a fixed-size [`Reply`]: a one-grant fetch
//!   reply rides inline, converted on the shard's thread, so the grant
//!   `Vec` the state machine allocated is freed where it was allocated
//!   and the consumer frees nothing of the shard's. [`EgressRx`] hands
//!   out either the rebuilt [`ToClient`](lease_core::ToClient)s or the
//!   lane form itself. Inside the shard, one output buffer serves every
//!   `LeaseServer::handle_into` call.
//! * **Batching** — batched end to end. Ingress: [`SvcHandle::try_send_batch`]
//!   routes a whole [`BatchBuf`] in one pass and publishes one run per
//!   touched shard with a single `Release` store. Worker: a shard drains
//!   its lanes in batches, so one wakeup amortizes grant/extend/approval
//!   processing and timer maintenance. Egress: replies accumulate across
//!   the whole wakeup and leave through a single
//!   [`WorkerSink::deliver_batch`] call.
//! * **Adaptive parking** — a loaded shard spins briefly
//!   (a fixed budget of polls) for its next batch before falling back to
//!   a timed park on its doorbell, keeping the hot path off the futex
//!   without burning an idle core.
//! * **Timer wheel** — lease expirations and write deadlines are driven by
//!   a hierarchical [`TimerWheel`] (O(1) amortized per timer) instead of a
//!   heap or a table scan; the table's own expiry index is consulted only
//!   to arm a single `Prune` entry at the earliest expiry.
//! * **Cross-shard coordination** — the [`SvcHandle`] router splits
//!   batched extensions along shard boundaries, fans approval requests out
//!   with service-global write ids, and routes each approval back to the
//!   shard that is collecting it (the §3.1 multicast approval path,
//!   partitioned).
//! * **Backpressure is loss** — lanes are bounded (`SvcConfig::mailbox`
//!   slots each) and every send refuses, never blocks, when the handle's
//!   lane into a shard is full ([`SvcError::Backpressure`]). Nothing is
//!   queued for the refused message: to the sender it was lost, and the
//!   client's retransmission is its one retry schedule.
//! * **Admission control** — beyond transport backpressure, a shard over
//!   its [`AdmissionControl`] watermark sheds cold fetches with an
//!   explicit `Shed { retry_after }` reply (renewals, writes, and
//!   approvals keep flowing), and drops inputs whose propagated op
//!   deadline has already passed. Granted terms are the policy's, however
//!   hot the shard runs: pacing is the client's, through `retry_after`.
//! * **Supervision** — each shard worker runs under a supervisor that
//!   catches panics and restarts the shard through §5 MaxTerm recovery on
//!   the *same* lanes; restart epochs are folded into global write ids
//!   so approvals addressed to a dead incarnation are dropped, not
//!   misapplied ([`SvcHandle::kill_shard`] injects such a crash on
//!   purpose).
//! * **Chaos** — seeded, deterministic fault plans ([`chaos::FaultPlan`])
//!   describe shard kills, message drop/delay/duplication, link cuts, and
//!   clock faults for transports and harnesses to replay.
//!
//! Protocol semantics are untouched: each shard runs the same
//! `LeaseServer` the simulator and `lease-rt` run, so every consistency
//! argument (and the oracle test suites) carries over shard by shard.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//! use lease_clock::Dur;
//! use lease_core::{
//!     ClientId, LeaseServer, MemStorage, ReqId, ServerConfig, Storage, ToClient, ToServer,
//! };
//! use lease_svc::{Egress, EgressSink, LeaseService, SvcConfig, SvcHooks};
//!
//! // Replies leave over per-client ring lanes; this is client 0's end.
//! let egress: Egress<u64, String> = Egress::new(1, 64);
//! let mut replies = egress.rx(0);
//!
//! let svc = LeaseService::spawn(
//!     SvcConfig { shards: 4, ..SvcConfig::default() },
//!     Arc::new(EgressSink::new(egress.clone())),
//!     SvcHooks::default(),
//!     |_shard| {
//!         let mut store = MemStorage::new();
//!         store.insert(7u64, "contents".to_string());
//!         (
//!             LeaseServer::new(ServerConfig::fixed(Dur::from_secs(10))),
//!             Box::new(store) as Box<dyn Storage<u64, String> + Send>,
//!         )
//!     },
//! );
//! let h = svc.handle();
//! // An empty lane takes it; a full one would refuse (`Backpressure`).
//! h.try_send_at(ClientId(0), ToServer::Fetch {
//!     req: ReqId(1), resource: 7, cached: None, also_extend: vec![],
//! }, None).unwrap();
//! // Ticket before the poll, so a publish can never slip past the park.
//! let mut got = Vec::new();
//! while got.is_empty() {
//!     let ticket = replies.bell().ticket();
//!     if replies.drain_into(&mut got, 16) == 0 {
//!         replies.bell().wait(ticket, Duration::from_millis(100));
//!     }
//! }
//! assert!(matches!(got[0], ToClient::Grants { .. }));
//! svc.shutdown();
//! ```

pub mod chaos;
pub mod egress;
pub mod service;
mod shard;

/// The hierarchical timer wheel, re-exported from `lease_core`.
///
/// The wheel moved down into dep-free `lease-core` so the slab lease
/// table could delegate expiry ordering to it; this alias keeps the
/// `lease_svc::wheel` path (and every import in the shard worker and the
/// wheel property tests) working unchanged.
pub use lease_core::wheel;

pub use chaos::{
    Arrivals, Delivery, FaultPlan, LinkChaos, OverloadPlan, OVERLOAD_STREAM, REPLICA_STREAM,
};
pub use egress::{Egress, EgressRx, EgressSink, EgressWorker, Reply};
pub use service::{
    shard_of, AdmissionControl, BatchBuf, ClientSink, LeaseService, ShardGauges, SvcConfig,
    SvcError, SvcHandle, SvcHooks, SvcStats, WorkerSink,
};
pub use shard::INJECTED_KILL;
pub use wheel::TimerWheel;
