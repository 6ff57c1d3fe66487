//! Building and running a complete simulated system.

use lease_clock::{Dur, Time};
use lease_core::{
    AdaptiveTerm, ClientConfig, ClientId, CompensatedTerm, LeaseClient, LeaseServer, MemStorage,
    RecoveryMode, ServerConfig,
};
use lease_net::{FaultPlanNet, SimNet};
use lease_sim::{ActorId, World};
use lease_workload::{FileClass, Trace};

use crate::client_actor::ClientActor;
use crate::config::{InstalledMode, NodeSel, SystemConfig, TermSpec};
use crate::driver::OpDriver;
use crate::history::{self, SharedHistory};
use crate::report::RunReport;
use crate::server_actor::ServerActor;
use crate::types::NetMsg;

/// A built, ready-to-run system.
pub struct RunHandle {
    /// The world (server is actor 0, client `i` is actor `i + 1`).
    pub world: World<NetMsg>,
    /// The server's actor id.
    pub server: ActorId,
    /// Client actor ids, indexed by client id.
    pub clients: Vec<ActorId>,
    /// The shared execution history for the oracle.
    pub history: SharedHistory,
    /// Time of the last trace record.
    pub trace_end: Time,
    /// The configuration used.
    pub warmup: Time,
}

/// Adds the standard lease-cache client actors for every client in
/// `trace` to a world whose server is `server_id`. Returns their actor
/// ids (client `i` gets the next free slot, in order). Exposed so baseline
/// protocols can reuse the exact same cache, driver, and measurement code
/// against a different server.
pub fn add_clients(
    world: &mut World<NetMsg>,
    cfg: &SystemConfig,
    trace: &Trace,
    server_id: ActorId,
    history: &SharedHistory,
) -> Vec<ActorId> {
    let n = trace.client_count().max(1);
    let warmup = Time::ZERO + cfg.warmup;
    let mut ids = Vec::with_capacity(n as usize);
    for i in 0..n {
        let cc = ClientConfig {
            epsilon: cfg.epsilon,
            retry_interval: cfg.retry_interval,
            max_retries: cfg.max_retries,
            batch_extensions: cfg.batch_extensions,
            anticipatory: cfg.anticipatory,
            capacity: cfg.cache_capacity,
            ..ClientConfig::default()
        };
        let cache = LeaseClient::new(ClientId(i), cc);
        let driver = OpDriver::new(trace, i, warmup);
        ids.push(world.add_actor(ClientActor::new(
            cache,
            driver,
            cfg.client_clock(i as usize),
            server_id,
            history.clone(),
            warmup,
        )));
    }
    ids
}

/// Builds the world for `cfg` and `trace` without running it.
pub fn build_world(cfg: &SystemConfig, trace: &Trace) -> RunHandle {
    let n = trace.client_count().max(1);
    let mut net = SimNet::new(cfg.net)
        .with_faults(FaultPlanNet {
            loss_prob: cfg.loss,
            duplicate_prob: cfg.duplicate,
            partitions: cfg.partitions.clone(),
        })
        .with_jitter(cfg.jitter);
    for (client, extra) in &cfg.extra_prop {
        net = net.with_extra_prop(ActorId(1 + *client as usize), *extra);
    }
    let mut world: World<NetMsg> = World::new(cfg.seed, net);
    let history = history::shared();
    let warmup = Time::ZERO + cfg.warmup;

    // Ids are deterministic: server first, then clients.
    let server_id = ActorId(0);
    let client_ids: Vec<ActorId> = (0..n).map(|i| ActorId(1 + i as usize)).collect();

    // Primary storage: every trace file exists at version 1.
    let mut storage = MemStorage::new();
    for f in &trace.files {
        storage.insert(f.id, 0);
    }

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

    let sid = world.add_actor(ServerActor::new(
        server,
        storage,
        cfg.server_clock.clone(),
        client_ids.clone(),
        history.clone(),
        warmup,
    ));
    debug_assert_eq!(sid, server_id);

    let added = add_clients(&mut world, cfg, trace, server_id, &history);
    debug_assert_eq!(added, client_ids);

    // Schedule faults.
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

    let trace_end = Time::ZERO + trace.duration();
    RunHandle {
        world,
        server: server_id,
        clients: client_ids,
        history,
        trace_end,
        warmup,
    }
}

/// Builds, runs to completion (trace end plus drain), and reports.
pub fn run_trace(cfg: &SystemConfig, trace: &Trace) -> RunReport {
    let mut h = build_world(cfg, trace);
    let end = h.trace_end + cfg.drain;
    h.world.run_until(end);
    let window = end.saturating_since(h.warmup).as_secs_f64();
    RunReport::from_world(&mut h.world, window)
}

/// Builds and runs, returning both the report and the handle (for history
/// inspection by the oracle).
pub fn run_trace_with_history(cfg: &SystemConfig, trace: &Trace) -> (RunReport, RunHandle) {
    let mut h = build_world(cfg, trace);
    let end = h.trace_end + cfg.drain;
    h.world.run_until(end);
    let window = end.saturating_since(h.warmup).as_secs_f64();
    let report = RunReport::from_world(&mut h.world, window);
    (report, h)
}
