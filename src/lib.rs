#![warn(missing_docs)]

//! # leases
//!
//! A production-quality Rust reproduction of **Gray & Cheriton, "Leases:
//! An Efficient Fault-Tolerant Mechanism for Distributed File Cache
//! Consistency" (SOSP 1989)** — the paper that introduced the lease, the
//! time-bounded contract that now underpins consistency in systems from
//! Chubby and ZooKeeper to etcd and every modern distributed cache.
//!
//! This crate is a facade over the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `lease-core` | the lease protocol: sans-IO server and client-cache state machines, term policies, installed-file optimization, crash recovery |
//! | [`analytic`] | `lease-analytic` | the §3 model: consistency load, added delay, benefit factor α, term selection |
//! | [`sim`] | `lease-sim` | deterministic discrete-event kernel (actors, timers, histograms) |
//! | [`net`] | `lease-net` | simulated V-style network: `m_prop`/`m_proc` cost model, multicast, loss, partitions |
//! | [`clock`] | `lease-clock` | time types and per-host clock models, including the §5 failure modes |
//! | [`store`] | `lease-store` | file-server substrate: versioned files, directories, durable slots |
//! | [`workload`] | `lease-workload` | Poisson/bursty generators and the synthetic V compile trace |
//! | [`vsys`] | `lease-vsys` | the assembled distributed file system on the simulator, with measurements and history recording |
//! | [`baselines`] | `lease-baselines` | §6 comparison protocols: Andrew callbacks, NFS TTL, check-on-read |
//! | [`faults`] | `lease-faults` | the single-copy consistency oracle and staleness analysis |
//! | [`svc`] | `lease-svc` | service runtime: the lease table sharded across single-threaded workers with batched mailboxes and a hierarchical timer wheel; supervised shard crash/restart (§5 MaxTerm recovery) and seeded chaos plans |
//! | [`rt`] | `lease-rt` | real-time deployment on the service runtime: threads, channels, wall clocks, a real file store; retry backoff with per-op deadlines, chaos fault injection, and true-time history recording for the oracle |
//! | [`quorum`] | `lease-quorum` | replicated grantor: the right to grant is itself a lease, held PaxosLease-style by a majority of diskless acceptors; sans-IO nodes, a wall-clock runtime with per-replica gates, and a deterministic virtual-time simulation |
//! | [`wb`] | `lease-wb` | the non-write-through extension: exclusive write tokens, local buffering, write-back, lost-write semantics |
//!
//! # Quickstart
//!
//! Run a lease-caching file system in real time:
//!
//! ```
//! use leases::clock::Dur;
//! use leases::rt::RtSystem;
//!
//! let sys = RtSystem::builder()
//!     .term(Dur::from_millis(200))
//!     .file("/etc/motd", b"hello, leases".as_ref())
//!     .clients(2)
//!     .start();
//! let motd = sys.lookup("/etc/motd").unwrap();
//! let data = sys.client(0).read(motd).unwrap();
//! assert_eq!(&data[..], b"hello, leases");
//! sys.shutdown();
//! ```
//!
//! Or reproduce a paper result on the simulator:
//!
//! ```
//! use leases::analytic::Params;
//!
//! // Section 3.2: a 10-second term cuts consistency traffic to ~10%.
//! let rel = Params::v_system().relative_load(10.0);
//! assert!((rel - 0.10).abs() < 0.01);
//! ```
//!
//! See `examples/` for runnable scenarios, DESIGN.md for the architecture
//! and experiment index, and EXPERIMENTS.md for paper-vs-measured results.

pub use lease_analytic as analytic;
pub use lease_baselines as baselines;
pub use lease_clock as clock;
pub use lease_core as core;
pub use lease_faults as faults;
pub use lease_net as net;
pub use lease_quorum as quorum;
pub use lease_rt as rt;
pub use lease_sim as sim;
pub use lease_store as store;
pub use lease_svc as svc;
pub use lease_vsys as vsys;
pub use lease_wb as wb;
pub use lease_wire as wire;
pub use lease_workload as workload;
