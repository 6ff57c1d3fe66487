//! Running the write-back system on `lease-vsys`'s simulator: the token
//! cache and server plug into its client and server actors, and the world
//! is built by [`lease_vsys::assemble`].

use lease_clock::{ClockModel, Dur, Time};
use lease_core::Version;
use lease_net::NetParams;
use lease_vsys::{
    assemble, CacheEffect, CacheEvent, CrashEvent, Data, NodeSel, Res, RunReport, ServerActor,
    ServerEffect, ServerEvent, SharedHistory, SimCache, SimServer, Store, SystemConfig,
};
use lease_workload::Trace;

use crate::client::{WbClient, WbClientConfig, WbClientOutput, WbClientTimer, WbInput};
use crate::msg::{WbToClient, WbToServer};
use crate::server::{WbServer, WbServerConfig, WbServerInput, WbServerOutput};

/// Configuration of a write-back run.
#[derive(Debug, Clone)]
pub struct WbConfig {
    /// Lease term for reads and tokens.
    pub term: Dur,
    /// Every client cache's configuration, handed to each [`WbClient`]
    /// unchanged.
    pub client: WbClientConfig,
    /// Network timing (the plan is fault-free; see the crate docs).
    pub net: NetParams,
    /// Measurements before this instant are discarded.
    pub warmup: Dur,
    /// Scheduled client crashes (a server crash is refused).
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
///
/// # Panics
///
/// If `cfg.crashes` crashes the server: [`WbServer`] has no §5 MaxTerm
/// recovery yet, so a restart would keep its whole token table.
pub fn run_wb_with_history(cfg: &WbConfig, trace: &Trace) -> (RunReport, SharedHistory) {
    if cfg.crashes.iter().any(|c| c.node == NodeSel::Server) {
        panic!(
            "the write-back simulator cannot crash its server: WbServer has no \
             §5 MaxTerm recovery yet"
        );
    }
    // The lease server's term and cache options stay at their defaults:
    // `assemble` reads neither.
    let sys = SystemConfig {
        net: cfg.net,
        warmup: cfg.warmup,
        crashes: cfg.crashes.clone(),
        seed: cfg.seed,
        drain: cfg.drain,
        ..SystemConfig::default()
    };
    let server = WbServer::new(WbServerConfig {
        term: cfg.term,
        reservation_range: 1 << 20,
    });
    let warmup = Time::ZERO + cfg.warmup;
    let new_cache = |id| WbClient::new(id, cfg.client);
    let mut h = assemble(
        &sys,
        trace,
        new_cache,
        |world, storage, clients, history| {
            world.add_actor(ServerActor::new(
                server,
                storage,
                ClockModel::perfect(),
                clients,
                history.clone(),
                warmup,
            ))
        },
    );
    (h.run(cfg.drain), h.history)
}

impl SimCache for WbClient<Res, Data> {
    type Up = WbToServer<Res, Data>;
    type Down = WbToClient<Res, Data>;
    type Output = WbClientOutput<Res, Data>;

    fn start(&mut self, now: Time) -> Vec<Self::Output> {
        WbClient::start(self, now)
    }

    fn handle(&mut self, now: Time, event: CacheEvent<Self::Down>) -> Vec<Self::Output> {
        let input = match event {
            CacheEvent::Read(op, resource) => WbInput::Read { op, resource },
            CacheEvent::Write(op, resource, data) => WbInput::Write { op, resource, data },
            CacheEvent::Msg(msg) => WbInput::Msg(msg),
            CacheEvent::Timer(_) => WbInput::Timer(WbClientTimer::Flush),
        };
        WbClient::handle(self, now, input)
    }

    fn crash(&mut self) -> Vec<(Res, Version, Version)> {
        let lost = self.dirty_state();
        WbClient::crash(self);
        lost
    }

    fn effect(out: Self::Output) -> CacheEffect<Self::Up> {
        match out {
            WbClientOutput::Send(msg) => CacheEffect::Send(msg),
            WbClientOutput::SetTimer { at, .. } => CacheEffect::SetTimer(at, 1),
            WbClientOutput::Done { op, result } => CacheEffect::Done(op, result),
            WbClientOutput::LocalCommit { resource, version } => {
                CacheEffect::Commit(resource, version)
            }
            WbClientOutput::Lost {
                resource,
                last_durable,
                last_lost,
            } => CacheEffect::Discard(resource, last_durable, last_lost),
        }
    }
}

impl SimServer for WbServer<Res, Data> {
    type Up = WbToServer<Res, Data>;
    type Down = WbToClient<Res, Data>;
    type Output = WbServerOutput<Res, Data>;

    fn handle(
        &mut self,
        now: Time,
        event: ServerEvent<Self::Up>,
        storage: &mut Store,
    ) -> Vec<Self::Output> {
        let input = match event {
            ServerEvent::Msg(from, msg) => WbServerInput::Msg { from, msg },
            ServerEvent::Timer(resource) => WbServerInput::RecallTimer(resource),
        };
        WbServer::handle(self, now, input, storage)
    }

    fn rx_metric(msg: &Self::Up) -> &'static str {
        match msg {
            WbToServer::Acquire { .. } => "srv.rx.fetch",
            WbToServer::WriteBack { .. } => "srv.rx.write",
            WbToServer::Release { .. } => "srv.rx.approve",
        }
    }

    fn tx_metric(msg: &Self::Down) -> &'static str {
        match msg {
            WbToClient::Granted { .. } => "srv.tx.grants",
            WbToClient::Flushed { .. } | WbToClient::FlushRejected { .. } => "srv.tx.write_done",
            WbToClient::Recall { .. } => "srv.tx.approval_req",
            WbToClient::Error { .. } => "srv.tx.error",
        }
    }

    fn effect(out: Self::Output) -> ServerEffect<Self::Down> {
        match out {
            WbServerOutput::Send { to, msg } => ServerEffect::Send(to, msg),
            WbServerOutput::SetRecallTimer { at, resource } => ServerEffect::SetTimer(at, resource),
            // Durability only; visibility was logged at the client.
            WbServerOutput::Durable { .. } => ServerEffect::Nothing,
        }
    }
}
