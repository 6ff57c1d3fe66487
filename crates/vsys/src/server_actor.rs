//! The file-server actor: the lease server wired to the simulator.

use lease_clock::{ClockModel, Time};
use lease_core::{
    ClientId, FxMap, LeaseServer, MemStorage, ServerInput, ServerOutput, ServerTimer, ToServer,
};
use lease_sim::{Actor, ActorId, Ctx, TimerId};

use crate::history::{HistoryEvent, SharedHistory};
use crate::types::{Data, NetMsg, Res};

/// The server actor: owns the lease server state machine, the primary
/// storage (durable across crashes), the server's clock model, and the
/// durable recovery slots.
pub struct ServerActor {
    /// The protocol state machine.
    pub server: LeaseServer<Res, Data>,
    /// Primary storage: models the disk, so it survives crashes.
    pub storage: MemStorage<Res, Data>,
    clock: ClockModel,
    /// ClientId -> ActorId mapping (dense).
    clients: Vec<ActorId>,
    history: SharedHistory,
    warmup: Time,
    /// Durable slot: the maximum granted term (MaxTerm recovery, §2).
    durable_max_term: Option<lease_clock::Dur>,
    /// Durable slot: lease records (PersistentRecords recovery).
    durable_leases: Vec<(Res, ClientId, Time)>,
    timer_ids: FxMap<u64, TimerId>,
}

impl ServerActor {
    /// Creates the actor. `clients[i]` must be the ActorId of client `i`.
    pub fn new(
        server: LeaseServer<Res, Data>,
        storage: MemStorage<Res, Data>,
        clock: ClockModel,
        clients: Vec<ActorId>,
        history: SharedHistory,
        warmup: Time,
    ) -> ServerActor {
        ServerActor {
            server,
            storage,
            clock,
            clients,
            history,
            warmup,
            durable_max_term: None,
            durable_leases: Vec::new(),
            timer_ids: FxMap::default(),
        }
    }

    fn actor_of(&self, c: ClientId) -> ActorId {
        self.clients[c.0 as usize]
    }

    fn client_of(&self, a: ActorId) -> Option<ClientId> {
        self.clients
            .iter()
            .position(|x| *x == a)
            .map(|i| ClientId(i as u32))
    }

    fn timer_key(t: ServerTimer) -> u64 {
        match t {
            ServerTimer::InstalledTick => 0,
            ServerTimer::WriteDeadline(w) => w.0 + 1,
        }
    }

    fn timer_of_key(key: u64) -> ServerTimer {
        if key == 0 {
            ServerTimer::InstalledTick
        } else {
            ServerTimer::WriteDeadline(lease_core::WriteId(key - 1))
        }
    }

    fn apply(&mut self, ctx: &mut Ctx<'_, NetMsg>, outputs: Vec<ServerOutput<Res, Data>>) {
        let measuring = ctx.now() >= self.warmup;
        for o in outputs {
            match o {
                ServerOutput::Send { to, msg } => {
                    if measuring {
                        let name = match &msg {
                            lease_core::ToClient::Grants { .. } => "srv.tx.grants",
                            lease_core::ToClient::WriteDone { .. } => "srv.tx.write_done",
                            lease_core::ToClient::ApprovalRequest { .. } => "srv.tx.approval_req",
                            lease_core::ToClient::InstalledExtend { .. } => "srv.tx.installed",
                            lease_core::ToClient::Error { .. } => "srv.tx.error",
                        };
                        ctx.metrics().inc(name);
                    }
                    let to = self.actor_of(to);
                    ctx.send(to, NetMsg::ToClient(msg));
                }
                ServerOutput::Multicast { to, msg } => {
                    if measuring {
                        let name = match &msg {
                            lease_core::ToClient::ApprovalRequest { .. } => "srv.tx.approval_req",
                            lease_core::ToClient::InstalledExtend { .. } => "srv.tx.installed",
                            _ => "srv.tx.grants",
                        };
                        ctx.metrics().inc(name);
                    }
                    let actors: Vec<ActorId> = to.iter().map(|c| self.actor_of(*c)).collect();
                    ctx.multicast(actors, NetMsg::ToClient(msg));
                }
                ServerOutput::SetTimer { at, timer } => {
                    let key = Self::timer_key(timer);
                    if let Some(old) = self.timer_ids.remove(&key) {
                        ctx.cancel_timer(old);
                    }
                    // `at` is in server-local time; convert to true time.
                    let local_now = self.clock.local(ctx.now());
                    let local_dur = at.saturating_since(local_now);
                    let true_at = self.clock.true_after(ctx.now(), local_dur);
                    let id = ctx.set_timer_at(true_at, key);
                    self.timer_ids.insert(key, id);
                }
                ServerOutput::PersistMaxTerm(d) => {
                    self.durable_max_term = Some(d);
                    ctx.metrics().inc("srv.persist.max_term");
                }
                ServerOutput::PersistLease {
                    resource,
                    client,
                    expiry,
                } => {
                    self.durable_leases.push((resource, client, expiry));
                    ctx.metrics().inc("srv.persist.lease");
                }
                ServerOutput::Committed {
                    resource,
                    version,
                    writer,
                } => {
                    self.history.borrow_mut().push(HistoryEvent::Commit {
                        resource,
                        version,
                        writer,
                        at: ctx.now(),
                    });
                }
            }
        }
    }

    /// Issues an administrative write (installing a new file version, §4).
    pub fn local_write(&mut self, ctx: &mut Ctx<'_, NetMsg>, resource: Res, data: Data) {
        let local = self.clock.local(ctx.now());
        let out = self.server.handle(
            local,
            ServerInput::LocalWrite { resource, data },
            &mut self.storage,
        );
        self.apply(ctx, out);
    }
}

impl Actor<NetMsg> for ServerActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_, NetMsg>) {
        let local = self.clock.local(ctx.now());
        let out = self.server.start(local, &self.storage);
        self.apply(ctx, out);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, NetMsg>, from: ActorId, msg: NetMsg) {
        let NetMsg::ToServer(msg) = msg else {
            return; // Stray message; the server only speaks ToServer.
        };
        let Some(client) = self.client_of(from) else {
            return;
        };
        if ctx.now() >= self.warmup {
            let name = match &msg {
                ToServer::Fetch { .. } => "srv.rx.fetch",
                ToServer::Renew { .. } => "srv.rx.renew",
                ToServer::Write { .. } => "srv.rx.write",
                ToServer::Approve { .. } => "srv.rx.approve",
                ToServer::Relinquish { .. } => "srv.rx.relinquish",
            };
            ctx.metrics().inc(name);
        }
        let local = self.clock.local(ctx.now());
        let out = self.server.handle(
            local,
            ServerInput::Msg { from: client, msg },
            &mut self.storage,
        );
        self.apply(ctx, out);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, NetMsg>, _timer: TimerId, key: u64) {
        self.timer_ids.remove(&key);
        let local = self.clock.local(ctx.now());
        let out = self.server.handle(
            local,
            ServerInput::Timer(Self::timer_of_key(key)),
            &mut self.storage,
        );
        self.apply(ctx, out);
    }

    fn on_crash(&mut self) {
        // Volatile protocol state dies; storage and durable slots survive.
        self.server.crash();
        self.timer_ids.clear();
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_, NetMsg>) {
        let local = self.clock.local(ctx.now());
        let leases = self.durable_leases.clone();
        let out = self
            .server
            .recover(local, self.durable_max_term, leases, &self.storage);
        self.apply(ctx, out);
    }
}
