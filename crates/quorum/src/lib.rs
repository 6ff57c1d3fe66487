#![warn(missing_docs)]

//! A diskless replicated lease grantor: PaxosLease-style grantor election
//! layered under the sharded lease service.
//!
//! The paper's single lease server is the availability ceiling of the
//! whole system: §5 argues every fault away by waiting for *the* server
//! to come back. This crate replaces it with N grantor replicas that
//! elect a **grantor-leaseholder** by majority, using nothing but the
//! machinery the paper already trusts:
//!
//! * **The grantor lease is itself a lease.** A proposer runs plain Paxos
//!   phase 1/2 ([`QuorumMsg`]), but the accepted value expires on each
//!   acceptor's local clock after [`QuorumConfig::term`]. Expiry *is* the
//!   release protocol, so acceptors never need to adopt, forward, or
//!   garbage-collect values.
//! * **Diskless acceptors.** Classic Paxos persists `promised`/`accepted`
//!   across crashes; here a restarted replica simply stays silent for
//!   [`QuorumConfig::max_term`] of local time ([`Acceptor::restart`]) —
//!   the §5 MaxTerm trick, applied to the election. Anything the crash
//!   forgot has expired by the time the replica speaks again.
//! * **Conservative timers.** The holder starts its lease at the
//!   *prepare-send* instant and trusts only
//!   [`QuorumConfig::usable_term`] — the granted term discounted by
//!   *both* edges of the clock-drift bound, `term * (1 - d) / (1 + d)`,
//!   covering a slow holder clock paired with fast acceptor clocks —
//!   while acceptors hold the full term from the (strictly later) accept
//!   instant. A holder with a clock within the bound therefore always
//!   stops serving before any correct acceptor lets a rival in.
//! * **Quorum intersection masks bad minority clocks.** One 2×-fast
//!   acceptor forgets early, but a new proposer still needs a majority,
//!   and some correct acceptor in any majority still remembers the live
//!   lease. Only a *majority* of broken clocks (or the holder's own clock
//!   running slow beyond the bound) can produce two grantors — which the
//!   `lease-faults` oracle's at-most-one-grantor invariant is built to
//!   catch.
//!
//! The crate is layered like `lease-core`: [`GrantorNode`] is sans-IO
//! (explicit `now`, messages in/out); [`sim`] runs N nodes as actors on
//! `lease-sim`'s `World` — the event loop the file-system simulator runs
//! on — under the same [`FaultPlan`](lease_svc::chaos::FaultPlan) the
//! runtime reads, for deterministic seed sweeps; [`runtime`]
//! runs real threads with a [`GrantorGate`](runtime::GrantorGate) for the
//! service path to consult on every grant (`lease-rt` wires that gate into
//! its replicated topology).

mod acceptor;
mod msg;
mod node;
mod proposer;
pub mod runtime;
pub mod sim;

pub use acceptor::Acceptor;
pub use msg::{Ballot, QuorumMsg};
pub use node::{GrantorNode, NodeOut, QuorumConfig};
pub use proposer::{PropAction, Proposer};
pub use runtime::{GrantorGate, KillHandle, QuorumHooks, QuorumRuntime};
