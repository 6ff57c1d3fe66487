#![warn(missing_docs)]

//! Deterministic discrete-event simulation kernel.
//!
//! This crate is the substrate on which the leases reproduction runs its
//! experiments: a single-threaded, fully deterministic discrete-event
//! simulator. The paper's evaluation (Gray & Cheriton, SOSP 1989, §3.2)
//! used a trace-driven simulation of the V file cache and server; ours is a
//! general actor-based kernel so that the *same* protocol state machines can
//! run under simulated time here and under wall-clock time in `lease-rt`.
//!
//! Pieces:
//!
//! * [`EventQueue`] — a time-ordered queue with FIFO tie-breaking, the heart
//!   of the kernel: one binary heap.
//! * [`Actor`] / [`World`] — the actor layer: actors receive messages and
//!   timer callbacks through a [`Ctx`] that lets them send, multicast, set
//!   timers, and record metrics.
//! * [`Medium`] — the pluggable network model; `lease-net` supplies the
//!   realistic implementation, and [`PerfectMedium`] delivers instantly for
//!   unit tests.
//! * [`SimRng`] — seeded, forkable randomness so every run is reproducible.
//! * [`Metrics`] — counters and sample histograms harvested by experiments.
//!
//! # Examples
//!
//! A two-actor ping-pong over a perfect network:
//!
//! ```
//! use lease_clock::{Dur, Time};
//! use lease_sim::{Actor, ActorId, Ctx, PerfectMedium, World};
//!
//! struct Pinger { peer: ActorId, count: u32 }
//!
//! impl Actor<u32> for Pinger {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
//!         ctx.send(self.peer, 0);
//!     }
//!     fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, from: ActorId, msg: u32) {
//!         self.count += 1;
//!         if msg < 10 {
//!             ctx.send(from, msg + 1);
//!         }
//!     }
//! }
//!
//! let mut world = World::new(42, PerfectMedium::default());
//! let a = world.add_actor(Pinger { peer: ActorId(1), count: 0 });
//! let _b = world.add_actor(Pinger { peer: a, count: 0 });
//! world.run_until(Time::from_secs(1));
//! ```

pub mod actor;
pub mod event;
pub mod medium;
pub mod metrics;
pub mod rng;
pub mod world;

pub use actor::{Actor, ActorId, Ctx, TimerId};
pub use event::{EventHandle, EventQueue};
pub use medium::{Delivery, Dest, Medium, PerfectMedium};
pub use metrics::{Histogram, HistogramSummary, Metrics};
pub use rng::SimRng;
pub use world::World;

pub use lease_clock::{Dur, Time};
