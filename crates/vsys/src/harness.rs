//! Building and running a complete simulated system.

use lease_clock::{Dur, Time};
use lease_core::{
    AdaptiveTerm, ClientId, CompensatedTerm, LeaseClient, LeaseServer, RecoveryMode, ServerConfig,
    ShardCore,
};
use lease_faults::{history, FaultPlan, SharedHistory};
use lease_quorum::GrantorNode;
use lease_sim::{ActorId, World};
use lease_workload::{FileClass, Trace};

use crate::client_actor::{ClientActor, SimCache};
use crate::config::{InstalledMode, NodeSel, SystemConfig, TermSpec};
use crate::driver::OpDriver;
use crate::replica::Grantors;
use crate::report::{RunReport, SharedTally, Tally};
use crate::server_actor::{ServerActor, SharedDisk, SimServer};
use crate::simnet::SimNet;
use crate::types::NetMsg;

/// A built, ready-to-run system whose network carries `M`.
pub struct RunHandle<M = NetMsg> {
    /// The world (the server, or under a quorum its replicas, first, then
    /// the clients).
    pub world: World<M>,
    /// The server's actor id (replica 0's under a quorum).
    pub server: ActorId,
    /// Client actor ids, indexed by client id.
    pub clients: Vec<ActorId>,
    /// The shared execution history for the oracle.
    pub history: SharedHistory,
    /// What the actors count, read by [`RunHandle::run`].
    pub tally: SharedTally,
    /// Time of the last trace record.
    pub trace_end: Time,
    /// Measurements before this instant are discarded.
    pub warmup: Time,
}

/// The plan fields the simulator cannot honour yet, checked so that no
/// fault is silently left out of a run: its server is one shard, shard 0
/// (whose kills it honours), no shard of it runs slow, and without a
/// quorum it is one server, replica 0 (whose kill, cut and clock it
/// honours).
fn refuse_unsupported(plan: &FaultPlan, replicated: bool) {
    let other = |replica| !replicated && replica != 0;
    let refused = [
        ("kills", plan.kills.iter().any(|k| k.1 != 0)),
        ("slow_shard", plan.slow_shard.is_some()),
        (
            "replica_kills",
            plan.replica_kills.iter().any(|k| other(k.1)),
        ),
        ("replica_cuts", plan.replica_cuts.iter().any(|c| other(c.2))),
        (
            "replica_clocks",
            plan.replica_clocks.iter().any(|c| other(c.0)),
        ),
    ];
    if let Some((field, _)) = refused.iter().find(|r| r.1) {
        panic!(
            "the simulator cannot honour FaultPlan::{field} yet \
             (one shard, never slow; without a quorum one server, replica 0)"
        );
    }
}

/// Builds the world every simulated system shares: the [`SimNet`] over
/// `cfg.faults` and `cfg.extra_prop`; one [`ServerActor`] (actor 0)
/// driving the server `new_server` builds over the primary storage on the
/// plan's replica 0 clock, or under [`SystemConfig::quorum`] one per
/// replica `r` (actor `r`) on replica `r`'s clock, all over one
/// [`Disk`](crate::Disk);
/// one [`ClientActor`] per trace client driving the cache `new_cache`
/// builds (client `i` is the actor after the replicas, `i` on) on
/// [`SystemConfig::client_clock`], sending to the server or to the
/// replica that serves; and the crash schedule, the plan's replica kills
/// among it. The plan's kills of shard 0 restart every server actor's
/// server. Every actor counts into one [`Tally`]. [`build_world`]
/// passes the lease server and lease caches; the §6 baselines pass their
/// callback or TTL server with the same caches, and `lease-wb` its token
/// server and caches, so all run on the same actors, driver and
/// measurements.
///
/// # Panics
///
/// If `cfg.faults` names a fault the simulator cannot honour yet (a kill
/// of a shard other than 0, a slow shard, and without a quorum a kill, cut
/// or clock of a replica other than 0), or if a quorum's server is not the
/// lease server ([`SimServer::REPLICA`]).
pub fn assemble<C: SimCache, S: SimServer<Up = C::Up, Down = C::Down>>(
    cfg: &SystemConfig,
    trace: &Trace,
    mut new_cache: impl FnMut(ClientId) -> C,
    mut new_server: impl FnMut() -> S,
) -> RunHandle<NetMsg<C::Up, C::Down>> {
    let replicated = cfg.quorum.is_some();
    refuse_unsupported(&cfg.faults, replicated);
    assert!(!replicated || S::REPLICA, "replicas are lease servers");
    let replicas = cfg.quorum.as_ref().map_or(1, |q| q.replicas as usize);
    let n = trace.client_count().max(1);
    let mut net = SimNet::new(cfg.net).with_faults(cfg.faults.clone(), replicas);
    for (client, extra) in &cfg.extra_prop {
        net = net.with_extra_prop(ActorId(replicas + *client as usize), *extra);
    }
    let mut world = World::new(cfg.seed, net);
    let history = history::shared();
    let tally = Tally::shared();
    let warmup = Time::ZERO + cfg.warmup;

    // Ids are deterministic: server replicas first, then clients.
    let client_ids: Vec<ActorId> = (0..n).map(|i| ActorId(replicas + i as usize)).collect();
    // Primary storage: every trace file exists at version 1.
    let disk = SharedDisk::default();
    for f in &trace.files {
        disk.borrow_mut().storage.insert(f.id, 0);
    }
    let grantors = Grantors::new(cfg);
    let kills: Vec<Time> = cfg.faults.kills.iter().map(|k| Time::ZERO + k.0).collect();
    for r in 0..replicas {
        let mut server = ServerActor::new(
            new_server(),
            disk.clone(),
            cfg.faults.replica_clock(r).unwrap_or_default(),
            client_ids.clone(),
            history.clone(),
            tally.clone(),
            warmup,
        );
        if let Some(g) = &grantors {
            let node = GrantorNode::new(r as u32, g.quorum.clone());
            server.grantor = Some((node, g.clone()));
        }
        server.kills = kills.clone();
        let id = world.add_actor(server);
        debug_assert_eq!(id, ActorId(r));
    }

    for i in 0..n {
        let id = world.add_actor(ClientActor::new(
            ClientId(i),
            new_cache(ClientId(i)),
            OpDriver::new(trace, i, warmup),
            cfg.client_clock(i as usize),
            grantors.clone(),
            history.clone(),
            tally.clone(),
        ));
        debug_assert_eq!(id, client_ids[i as usize]);
    }

    for crash in &cfg.crashes {
        let victim = match crash.node {
            NodeSel::Server => ActorId(0),
            NodeSel::Client(i) => client_ids[i as usize],
        };
        world.schedule_crash(crash.at, victim);
        if let Some(r) = crash.recover_at {
            world.schedule_recover(r, victim);
        }
    }
    // A replica kill is a crash and a restart at one instant (without a
    // quorum, replica 0's is the server's).
    for &(when, r) in cfg.faults.replica_kills.iter().filter(|k| k.1 < replicas) {
        world.schedule_crash(Time::ZERO + when, ActorId(r));
        world.schedule_recover(Time::ZERO + when, ActorId(r));
    }

    RunHandle {
        world,
        server: ActorId(0),
        clients: client_ids,
        history,
        tally,
        trace_end: Time::ZERO + trace.duration(),
        warmup,
    }
}

/// Builds the world for `cfg` and `trace` without running it.
pub fn build_world(cfg: &SystemConfig, trace: &Trace) -> RunHandle {
    let new_cache = |id| LeaseClient::new(id, cfg.client.clone());
    assemble(cfg, trace, new_cache, || lease_server(cfg, trace))
}

/// The lease server `cfg` asks for, over the files of `trace`, as shard 0
/// of 1.
fn lease_server(cfg: &SystemConfig, trace: &Trace) -> ShardCore<u64, u64> {
    let n = trace.client_count().max(1);
    let mut sc: ServerConfig<u64> = match &cfg.term {
        TermSpec::Fixed(d) => ServerConfig::fixed(*d),
        TermSpec::Adaptive { theta, min, max } => {
            let mut c = ServerConfig::fixed(Dur::ZERO);
            c.policy = Box::new(AdaptiveTerm::new(*theta, *min, *max));
            c
        }
        TermSpec::Compensated { base, extra } => {
            let mut c = ServerConfig::fixed(*base);
            let mut policy = CompensatedTerm::new(Box::new(lease_core::FixedTerm(*base)));
            for (client, add) in extra {
                policy = policy.compensate(ClientId(*client), *add);
            }
            c.policy = Box::new(policy);
            c
        }
    };
    sc.recovery = if cfg.persistent_leases {
        RecoveryMode::PersistentRecords
    } else {
        RecoveryMode::MaxTerm
    };
    if let InstalledMode::Multicast { tick, term } = cfg.installed {
        sc.installed_tick = tick;
        sc.installed_term = term;
    }
    let mut server: LeaseServer<u64, u64> = LeaseServer::new(sc);
    if matches!(cfg.installed, InstalledMode::Multicast { .. }) {
        for f in &trace.files {
            if f.class == FileClass::Installed {
                server.add_installed(f.id);
            }
        }
        server.set_installed_group((0..n).map(ClientId).collect());
    }
    ShardCore::new(server, 0, 1, 0, 0)
}

impl<M: 'static> RunHandle<M> {
    /// Runs to the trace end plus `drain` and reports on the window after
    /// the warm-up.
    pub fn run(&mut self, drain: Dur) -> RunReport {
        let end = self.trace_end + drain;
        self.world.run_until(end);
        let window = end.saturating_since(self.warmup).as_secs_f64();
        let events = self.world.events_processed();
        RunReport::from_tally(&mut self.tally.borrow_mut(), window, events)
    }
}

/// Builds, runs to completion (trace end plus drain), and reports.
pub fn run_trace(cfg: &SystemConfig, trace: &Trace) -> RunReport {
    build_world(cfg, trace).run(cfg.drain)
}

/// Builds and runs, returning both the report and the handle (for history
/// inspection by the oracle).
pub fn run_trace_with_history(cfg: &SystemConfig, trace: &Trace) -> (RunReport, RunHandle) {
    let mut h = build_world(cfg, trace);
    let report = h.run(cfg.drain);
    (report, h)
}
