#![warn(missing_docs)]

//! Real-time deployment of the lease protocol.
//!
//! The state machines in `lease-core` are sans-IO, so the same code that
//! runs under the deterministic simulator runs here under wall clocks: the
//! server side runs on the sharded `lease-svc` runtime (the lease table
//! partitioned by file-id hash across worker threads, expirations driven
//! by its timer wheel), each client cache is a driver behind one lock —
//! hits are served on the application's own thread, an IO thread per
//! client keeps replies, timers and resends — the "network" is the
//! service's SPSC ring lanes in both directions (with the cut, fence and
//! chaos filters in front of them), and the primary copies live in a
//! real `lease-store` file store shared by every shard.
//!
//! This is the deployment a downstream user would embed: short leases over
//! real time, write-through to a durable store, approval callbacks between
//! live threads, and fault injection (drop a client's traffic) to watch a
//! write stall for exactly one lease term and then proceed.
//!
//! A client's options are `lease-core`'s [`ClientConfig`], carried whole:
//! [`RtSystemBuilder::client`] edits the in-process clients' copy in
//! place, [`NetClientConfig::client`] is the socket clients', and each
//! is handed to the cache unchanged.
//!
//! # Examples
//!
//! ```
//! use bytes::Bytes;
//! use lease_clock::Dur;
//! use lease_rt::RtSystem;
//!
//! let mut sys = RtSystem::builder()
//!     .term(Dur::from_millis(200))
//!     .client(|c| c.epsilon = Dur::from_millis(5))
//!     .file("/etc/motd", b"hello".as_ref())
//!     .clients(2)
//!     .start();
//! let motd = sys.lookup("/etc/motd").unwrap();
//! let c0 = sys.client(0);
//! assert_eq!(c0.read(motd).unwrap(), Bytes::from_static(b"hello"));
//! // A second read inside the term is served from the local cache.
//! assert_eq!(c0.read(motd).unwrap(), Bytes::from_static(b"hello"));
//! sys.shutdown();
//! ```

pub mod client;
pub mod naming;
pub mod net;
pub mod record;
pub mod server;
pub mod system;

pub use client::{RtClientHandle, RtError};
pub use lease_core::ClientConfig;
pub use lease_quorum::QuorumConfig;
pub use naming::{Binding, NameOp};
pub use net::{NetClient, NetClientConfig, TcpPort};
pub use record::Recorder;
pub use server::Port;
pub use system::{RtSystem, RtSystemBuilder};
