//! Running the write-back system on `lease-vsys`'s simulator: the token
//! cache and server plug into its client and server actors, and the world
//! is built by [`lease_vsys::assemble`].

use lease_clock::{Dur, Time};
use lease_core::Version;
use lease_faults::SharedHistory;
use lease_vsys::{
    assemble, CacheEffect, CacheEvent, CrashEvent, Data, NetParams, NodeSel, Res, RunReport,
    ServerEffect, ServerEvent, SimCache, SimServer, Store, SystemConfig, Traffic, TrafficClass,
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
    let new_cache = |id| WbClient::new(id, cfg.client);
    let mut h = assemble(&sys, trace, new_cache, server);
    (h.run(cfg.drain), h.history)
}

impl SimCache for WbClient<Res, Data> {
    type Up = WbToServer<Res, Data>;
    type Down = WbToClient<Res, Data>;
    type Output = WbClientOutput<Res, Data>;

    fn start(&mut self, now: Time) -> Vec<Self::Output> {
        WbClient::start(self, now)
    }

    fn handle_into(
        &mut self,
        now: Time,
        event: CacheEvent<Self::Down>,
        out: &mut Vec<Self::Output>,
    ) {
        let input = match event {
            CacheEvent::Read(op, resource) => WbInput::Read { op, resource },
            CacheEvent::Write(op, resource, data) => WbInput::Write { op, resource, data },
            CacheEvent::Msg(msg) => WbInput::Msg(msg),
            CacheEvent::Timer(_) => WbInput::Timer(WbClientTimer::Flush),
        };
        WbClient::handle_into(self, now, input, out)
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

    fn handle_into(
        &mut self,
        now: Time,
        event: ServerEvent<Self::Up>,
        storage: &mut Store,
        out: &mut Vec<Self::Output>,
    ) {
        let input = match event {
            ServerEvent::Msg(from, msg) => WbServerInput::Msg { from, msg },
            ServerEvent::Timer(resource) => WbServerInput::RecallTimer(resource),
        };
        WbServer::handle_into(self, now, input, storage, out)
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

/// A token request is a lease request, a write-back a write and a release
/// an approval: each counts as the lease message it stands for.
impl<R, D> TrafficClass for WbToServer<R, D> {
    fn traffic(&self) -> Traffic {
        match self {
            WbToServer::Acquire { .. } => Traffic::Consistency,
            WbToServer::WriteBack { .. } => Traffic::Data,
            WbToServer::Release { .. } => Traffic::Approval,
        }
    }
}

/// A grant and an error are consistency traffic, a flush reply is a
/// write's reply and a recall an approval callback.
impl<R, D> TrafficClass for WbToClient<R, D> {
    fn traffic(&self) -> Traffic {
        match self {
            WbToClient::Granted { .. } | WbToClient::Error { .. } => Traffic::Consistency,
            WbToClient::Flushed { .. } | WbToClient::FlushRejected { .. } => Traffic::Data,
            WbToClient::Recall { .. } => Traffic::Approval,
        }
    }
}
