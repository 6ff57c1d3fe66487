//! Building and running a write-back system on the simulator.

use lease_clock::{Dur, Time};
use lease_core::{ClientId, MemStorage};
use lease_net::{NetParams, SimNet};
use lease_sim::{ActorId, World};
use lease_vsys::driver::OpDriver;
use lease_vsys::{history, CrashEvent, NodeSel, RunReport, SharedHistory};
use lease_workload::Trace;

use crate::actors::{WbClientActor, WbNetMsg, WbServerActor};
use crate::client::{WbClient, WbClientConfig};
use crate::server::{WbServer, WbServerConfig};

/// Configuration of a write-back run.
#[derive(Debug, Clone)]
pub struct WbConfig {
    /// Lease term for reads and tokens.
    pub term: Dur,
    /// Every client cache's configuration, handed to each [`WbClient`]
    /// unchanged.
    pub client: WbClientConfig,
    /// Network timing (the transport is reliable; see the crate docs).
    pub net: NetParams,
    /// Measurements before this instant are discarded.
    pub warmup: Dur,
    /// Scheduled crashes.
    pub crashes: Vec<CrashEvent>,
    /// Extra run time after the last record.
    pub drain: Dur,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WbConfig {
    fn default() -> WbConfig {
        WbConfig {
            term: Dur::from_secs(10),
            client: WbClientConfig::default(),
            net: NetParams::v_lan(),
            warmup: Dur::ZERO,
            crashes: Vec::new(),
            drain: Dur::from_secs(120),
            seed: 42,
        }
    }
}

/// Builds and runs a write-back system over `trace`; returns the standard
/// run report plus the execution history (with Commit and Discard events)
/// for the oracle.
pub fn run_wb_with_history(cfg: &WbConfig, trace: &Trace) -> (RunReport, SharedHistory) {
    let n = trace.client_count().max(1);
    let net = SimNet::new(cfg.net);
    let mut world: World<WbNetMsg> = World::new(cfg.seed, net);
    let hist = history::shared();
    let warmup = Time::ZERO + cfg.warmup;

    let client_ids: Vec<ActorId> = (0..n).map(|i| ActorId(1 + i as usize)).collect();
    let mut storage = MemStorage::new();
    for f in &trace.files {
        storage.insert(f.id, 0);
    }
    let server = WbServer::new(WbServerConfig {
        term: cfg.term,
        reservation_range: 1 << 20,
    });
    let sid = world.add_actor(WbServerActor::new(
        server,
        storage,
        client_ids.clone(),
        warmup,
    ));
    debug_assert_eq!(sid, ActorId(0));

    for i in 0..n {
        let cache = WbClient::new(ClientId(i), cfg.client);
        let driver = OpDriver::new(trace, i, warmup);
        let cid = world.add_actor(WbClientActor::new(cache, driver, sid, hist.clone(), warmup));
        debug_assert_eq!(cid, client_ids[i as usize]);
    }

    for crash in &cfg.crashes {
        let victim = match crash.node {
            NodeSel::Server => sid,
            NodeSel::Client(i) => client_ids[i as usize],
        };
        if let NodeSel::Client(i) = crash.node {
            // Stamp the crash instant so Discard events carry real times.
            if let Some(actor) = world.actor_mut::<WbClientActor>(client_ids[i as usize]) {
                actor.set_crash_stamp(crash.at);
            }
        }
        world.schedule_crash(crash.at, victim);
        if let Some(r) = crash.recover_at {
            world.schedule_recover(r, victim);
        }
    }

    let end = Time::ZERO + trace.duration() + cfg.drain;
    world.run_until(end);
    let window = end.saturating_since(warmup).as_secs_f64();
    (RunReport::from_world(&mut world, window), hist)
}
