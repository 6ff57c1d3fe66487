#![warn(missing_docs)]

//! The socket transport of the leases reproduction: [`NetServer`] carries
//! `lease-wire` frames between a `lease-svc` service and clients in other
//! processes over TCP, and [`connect_as`] opens a client's side of it
//! (`lease-rt`'s `NetClient` is the client that uses it). See [`tcp`]
//! for the ingress, deadline and egress contracts.
//!
//! The simulated network the paper's figures run on is not here:
//! `lease-vsys` owns it, next to the simulator that drives it.

pub mod tcp;

pub use tcp::{connect_as, FrameAccum, NetCounters, NetCountersSnapshot, NetServer};
