#![warn(missing_docs)]

//! Simulated network substrate for the leases reproduction.
//!
//! The paper (Gray & Cheriton, SOSP 1989, §3.1) charges communication with
//! two parameters: a propagation delay `m_prop` and a per-message processing
//! time `m_proc` spent on the critical path at both sender and receiver, so
//! that a unicast request–response costs `2·m_prop + 4·m_proc` and a
//! multicast with `n` replies costs `2·m_prop + (n+3)·m_proc` — the replies
//! serialize through the originator's CPU ("implosion of responses", §4).
//!
//! [`SimNet`] reproduces exactly that cost model by giving every host a CPU
//! that processes one message at a time, plus per-host extra propagation
//! delay for wide-area experiments (§3.3). Its failure modes — loss,
//! duplication, delay jitter and cut links — come from the same
//! [`FaultPlan`](lease_svc::chaos::FaultPlan) the real-time runtime reads,
//! so one plan describes a fault in both worlds.
//!
//! # Examples
//!
//! ```
//! use lease_clock::{Dur, Time};
//! use lease_net::{NetParams, SimNet};
//! use lease_sim::{Dest, Medium, SimRng};
//! use lease_sim::ActorId;
//!
//! let params = NetParams { m_prop: Dur::from_micros(500), m_proc: Dur::from_micros(500) };
//! let mut net = SimNet::new(params);
//! let mut rng = SimRng::seed(0);
//! let mut d = Vec::new();
//! net.route(Time::ZERO, &mut rng, ActorId(0), Dest::One(ActorId(1)), (), &mut d);
//! // One m_proc at the sender, m_prop on the wire, one m_proc at the receiver.
//! assert_eq!(d[0].at, Time::from_micros(1500));
//! ```

pub mod params;
pub mod simnet;
pub mod tcp;

pub use params::NetParams;
pub use simnet::SimNet;
pub use tcp::{connect_as, FrameAccum, NetCounters, NetCountersSnapshot, NetServer};
