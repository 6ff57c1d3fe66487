//! Building and running a complete simulated system.

use lease_clock::{Dur, Time};
use lease_core::{
    AdaptiveTerm, ClientId, CompensatedTerm, LeaseClient, LeaseServer, RecoveryMode, ServerConfig,
};
use lease_faults::{history, FaultPlan, SharedHistory};
use lease_sim::{ActorId, World};
use lease_workload::{FileClass, Trace};

use crate::client_actor::{ClientActor, SimCache};
use crate::config::{InstalledMode, NodeSel, SystemConfig, TermSpec};
use crate::driver::OpDriver;
use crate::report::{RunReport, SharedTally, Tally};
use crate::server_actor::{ServerActor, SimServer};
use crate::simnet::SimNet;
use crate::types::{NetMsg, Store};

/// A built, ready-to-run system whose network carries `M`.
pub struct RunHandle<M = NetMsg> {
    /// The world (server is actor 0, client `i` is actor `i + 1`).
    pub world: World<M>,
    /// The server's actor id.
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
/// fault is silently left out of a run.
fn refuse_unsupported(plan: &FaultPlan) {
    let refused = [
        ("kills", !plan.kills.is_empty()),
        ("slow_shard", plan.slow_shard.is_some()),
        ("replica_kills", !plan.replica_kills.is_empty()),
        ("replica_cuts", plan.replica_cuts.iter().any(|c| c.2 != 0)),
        (
            "replica_clocks",
            plan.replica_clocks.iter().any(|c| c.0 != 0),
        ),
    ];
    if let Some((field, _)) = refused.iter().find(|r| r.1) {
        panic!(
            "the simulator cannot honour FaultPlan::{field} yet \
             (it has one server, replica 0, and no shards)"
        );
    }
}

/// Builds the world every simulated system shares: the [`SimNet`] over
/// `cfg.faults` and `cfg.extra_prop`, one [`ServerActor`] (actor 0)
/// driving `server` over the primary storage on the plan's replica 0
/// clock, one [`ClientActor`] per trace client
/// driving the cache `new_cache` builds (client `i` is actor `i + 1`) on
/// [`SystemConfig::client_clock`], and the crash schedule. Every actor
/// counts into one [`Tally`]. [`build_world`] passes the lease server and
/// lease caches; the §6 baselines pass their callback or TTL server with
/// the same caches, and `lease-wb` its token server and caches, so all
/// run on the same actors, driver and measurements.
///
/// # Panics
///
/// If `cfg.faults` names a fault the simulator cannot honour yet (shard
/// or replica kills, a slow shard, or a cut or clock of a replica other
/// than 0).
pub fn assemble<C: SimCache, S: SimServer<Up = C::Up, Down = C::Down>>(
    cfg: &SystemConfig,
    trace: &Trace,
    mut new_cache: impl FnMut(ClientId) -> C,
    server: S,
) -> RunHandle<NetMsg<C::Up, C::Down>> {
    refuse_unsupported(&cfg.faults);
    let n = trace.client_count().max(1);
    let mut net = SimNet::new(cfg.net).with_faults(cfg.faults.clone());
    for (client, extra) in &cfg.extra_prop {
        net = net.with_extra_prop(ActorId(1 + *client as usize), *extra);
    }
    let mut world = World::new(cfg.seed, net);
    let history = history::shared();
    let tally = Tally::shared();
    let warmup = Time::ZERO + cfg.warmup;

    // Ids are deterministic: server first, then clients.
    let client_ids: Vec<ActorId> = (0..n).map(|i| ActorId(1 + i as usize)).collect();
    // Primary storage: every trace file exists at version 1.
    let mut storage = Store::default();
    for f in &trace.files {
        storage.insert(f.id, 0);
    }
    let server_id = world.add_actor(ServerActor::new(
        server,
        storage,
        cfg.faults.replica_clock(0).unwrap_or_default(),
        client_ids.clone(),
        history.clone(),
        tally.clone(),
        warmup,
    ));
    debug_assert_eq!(server_id, ActorId(0));

    for i in 0..n {
        let id = world.add_actor(ClientActor::new(
            ClientId(i),
            new_cache(ClientId(i)),
            OpDriver::new(trace, i, warmup),
            cfg.client_clock(i as usize),
            server_id,
            history.clone(),
            tally.clone(),
        ));
        debug_assert_eq!(id, client_ids[i as usize]);
    }

    for crash in &cfg.crashes {
        let victim = match crash.node {
            NodeSel::Server => server_id,
            NodeSel::Client(i) => client_ids[i as usize],
        };
        world.schedule_crash(crash.at, victim);
        if let Some(r) = crash.recover_at {
            world.schedule_recover(r, victim);
        }
    }

    RunHandle {
        world,
        server: server_id,
        clients: client_ids,
        history,
        tally,
        trace_end: Time::ZERO + trace.duration(),
        warmup,
    }
}

/// Builds the world for `cfg` and `trace` without running it.
pub fn build_world(cfg: &SystemConfig, trace: &Trace) -> RunHandle {
    let n = trace.client_count().max(1);
    // Server configuration.
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
    let new_cache = |id| LeaseClient::new(id, cfg.client.clone());
    assemble(cfg, trace, new_cache, server)
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
