//! The file-server actor: a sans-IO server wired to the simulator.

use lease_clock::{ClockModel, Dur, Time};
use lease_core::{
    ClientId, FxMap, LeaseServer, ServerInput, ServerOutput, ServerTimer, ToClient, ToServer,
    Version, WriteId,
};
use lease_faults::{HistoryEvent, SharedHistory};
use lease_sim::{Actor, ActorId, Ctx, TimerId};

use crate::report::{SharedTally, TrafficClass};
use crate::types::{Data, NetMsg, Res, Store};

/// A sans-IO file server the [`ServerActor`] can drive: the lease server
/// of `lease-core`, the write-back token server of `lease-wb` and the §6
/// baselines' callback and TTL servers.
///
/// As with [`SimCache`](crate::SimCache), the actor hands the server
/// [`ServerEvent`]s and maps each output, by value, to a [`ServerEffect`].
/// The actor counts every message the server receives and sends by its
/// [`TrafficClass`].
pub trait SimServer: 'static {
    /// Client-to-server message.
    type Up: Clone + TrafficClass + 'static;
    /// Server-to-client message.
    type Down: Clone + TrafficClass + 'static;
    /// What the server asks for.
    type Output;

    /// Starts at local time `now` over the primary storage.
    fn start(&mut self, _now: Time, _storage: &Store) -> Vec<Self::Output> {
        Vec::new()
    }
    /// Handles one event at local time `now`, appending what it asks for
    /// to `out`: the actor drains `out` after each call, so one buffer
    /// serves every event.
    fn handle_into(
        &mut self,
        now: Time,
        event: ServerEvent<Self::Up>,
        storage: &mut Store,
        out: &mut Vec<Self::Output>,
    );
    /// Wipes the volatile state. A server without §5 recovery refuses.
    fn crash(&mut self) {
        panic!("this server has no §5 crash recovery");
    }
    /// Restarts from the durable slots the actor kept (§5).
    fn recover(
        &mut self,
        _now: Time,
        _max_term: Option<Dur>,
        _leases: Vec<(Res, ClientId, Time)>,
        _storage: &Store,
    ) -> Vec<Self::Output> {
        panic!("this server has no §5 crash recovery");
    }
    /// What the simulator does with one output.
    fn effect(out: Self::Output) -> ServerEffect<Self::Down>;
}

/// What the simulator hands a server.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerEvent<U> {
    /// A message from a client.
    Msg(ClientId, U),
    /// The timer with this key fired.
    Timer(u64),
}

/// One server output as the simulator applies it.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerEffect<D> {
    /// Send `.1` to client `.0`.
    Send(ClientId, D),
    /// One multicast send of `.1` to the clients `.0`.
    Multicast(Vec<ClientId>, D),
    /// Arm the timer with key `.1` at server-local time `.0`, replacing a
    /// pending one.
    SetTimer(Time, u64),
    /// Record the maximum granted term in the durable slot.
    PersistMaxTerm(Dur),
    /// Record a lease `(resource, holder, expiry)` in the durable slot.
    PersistLease(Res, ClientId, Time),
    /// A write `(resource, version, writer)` became visible: the history's
    /// `Commit`.
    Commit(Res, Version, Option<ClientId>),
    /// Nothing the simulator models.
    Nothing,
}

impl SimServer for LeaseServer<Res, Data> {
    type Up = ToServer<Res, Data>;
    type Down = ToClient<Res, Data>;
    type Output = ServerOutput<Res, Data>;

    fn start(&mut self, now: Time, storage: &Store) -> Vec<Self::Output> {
        LeaseServer::start(self, now, storage)
    }

    fn handle_into(
        &mut self,
        now: Time,
        event: ServerEvent<Self::Up>,
        storage: &mut Store,
        out: &mut Vec<Self::Output>,
    ) {
        let input = match event {
            ServerEvent::Msg(from, msg) => ServerInput::Msg { from, msg },
            ServerEvent::Timer(0) => ServerInput::Timer(ServerTimer::InstalledTick),
            ServerEvent::Timer(key) => {
                ServerInput::Timer(ServerTimer::WriteDeadline(WriteId(key - 1)))
            }
        };
        LeaseServer::handle_into(self, now, input, storage, out)
    }

    fn crash(&mut self) {
        LeaseServer::crash(self);
    }

    fn recover(
        &mut self,
        now: Time,
        max_term: Option<Dur>,
        leases: Vec<(Res, ClientId, Time)>,
        storage: &Store,
    ) -> Vec<Self::Output> {
        LeaseServer::recover(self, now, max_term, leases, storage)
    }

    fn effect(out: Self::Output) -> ServerEffect<Self::Down> {
        match out {
            ServerOutput::Send { to, msg } => ServerEffect::Send(to, msg),
            ServerOutput::Multicast { to, msg } => ServerEffect::Multicast(to, msg),
            ServerOutput::SetTimer { at, timer } => ServerEffect::SetTimer(
                at,
                match timer {
                    ServerTimer::InstalledTick => 0,
                    ServerTimer::WriteDeadline(w) => w.0 + 1,
                },
            ),
            ServerOutput::PersistMaxTerm(d) => ServerEffect::PersistMaxTerm(d),
            ServerOutput::PersistLease {
                resource,
                client,
                expiry,
            } => ServerEffect::PersistLease(resource, client, expiry),
            ServerOutput::Committed {
                resource,
                version,
                writer,
            } => ServerEffect::Commit(resource, version, writer),
        }
    }
}

/// The network message of the protocol `S` speaks.
type Wire<S> = NetMsg<<S as SimServer>::Up, <S as SimServer>::Down>;

/// The server actor: owns the server state machine, the primary storage
/// (durable across crashes), the server's clock model, and the durable
/// recovery slots; counts the server's traffic after the warm-up into the
/// run's tally.
pub struct ServerActor<S: SimServer = LeaseServer<Res, Data>> {
    /// The protocol state machine.
    pub server: S,
    /// Primary storage: models the disk, so it survives crashes.
    pub storage: Store,
    clock: ClockModel,
    /// ClientId -> ActorId mapping (dense).
    clients: Vec<ActorId>,
    history: SharedHistory,
    tally: SharedTally,
    warmup: Time,
    /// Durable slot: the maximum granted term (MaxTerm recovery, §2).
    durable_max_term: Option<Dur>,
    /// Durable slot: lease records (PersistentRecords recovery).
    durable_leases: Vec<(Res, ClientId, Time)>,
    timer_ids: FxMap<u64, TimerId>,
    /// The server's outputs for the event at hand; empty between events.
    out: Vec<S::Output>,
}

impl<S: SimServer> ServerActor<S> {
    /// Creates the actor. `clients[i]` must be the ActorId of client `i`.
    pub fn new(
        server: S,
        storage: Store,
        clock: ClockModel,
        clients: Vec<ActorId>,
        history: SharedHistory,
        tally: SharedTally,
        warmup: Time,
    ) -> ServerActor<S> {
        ServerActor {
            server,
            storage,
            clock,
            clients,
            history,
            tally,
            warmup,
            durable_max_term: None,
            durable_leases: Vec::new(),
            timer_ids: FxMap::default(),
            out: Vec::new(),
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

    /// Hands the server one event at its local time and applies what it
    /// asks for.
    fn handle(&mut self, ctx: &mut Ctx<'_, Wire<S>>, event: ServerEvent<S::Up>) {
        let local = self.clock.local(ctx.now());
        let mut out = std::mem::take(&mut self.out);
        self.server
            .handle_into(local, event, &mut self.storage, &mut out);
        self.apply(ctx, &mut out);
        self.out = out;
    }

    fn apply(&mut self, ctx: &mut Ctx<'_, Wire<S>>, outputs: &mut Vec<S::Output>) {
        let measuring = ctx.now() >= self.warmup;
        for o in outputs.drain(..) {
            match S::effect(o) {
                ServerEffect::Send(to, msg) => {
                    if measuring {
                        self.tally.borrow_mut().message(msg.traffic());
                    }
                    ctx.send(self.actor_of(to), NetMsg::ToClient(msg));
                }
                ServerEffect::Multicast(to, msg) => {
                    if measuring {
                        self.tally.borrow_mut().message(msg.traffic());
                    }
                    let actors: Vec<ActorId> = to.iter().map(|c| self.actor_of(*c)).collect();
                    ctx.multicast(actors, NetMsg::ToClient(msg));
                }
                ServerEffect::SetTimer(at, key) => {
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
                ServerEffect::PersistMaxTerm(d) => self.durable_max_term = Some(d),
                ServerEffect::PersistLease(resource, client, expiry) => {
                    self.durable_leases.push((resource, client, expiry));
                }
                ServerEffect::Commit(resource, version, writer) => {
                    self.history.borrow_mut().push(HistoryEvent::Commit {
                        resource,
                        version,
                        writer,
                        at: ctx.now(),
                    });
                }
                ServerEffect::Nothing => {}
            }
        }
    }
}

impl<S: SimServer> Actor<Wire<S>> for ServerActor<S> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Wire<S>>) {
        let local = self.clock.local(ctx.now());
        let mut out = self.server.start(local, &self.storage);
        self.apply(ctx, &mut out);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Wire<S>>, from: ActorId, msg: Wire<S>) {
        let NetMsg::ToServer(msg) = msg else {
            return; // Stray message; the server only speaks ToServer.
        };
        let Some(client) = self.client_of(from) else {
            return;
        };
        if ctx.now() >= self.warmup {
            self.tally.borrow_mut().message(msg.traffic());
        }
        self.handle(ctx, ServerEvent::Msg(client, msg));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Wire<S>>, _timer: TimerId, key: u64) {
        self.timer_ids.remove(&key);
        self.handle(ctx, ServerEvent::Timer(key));
    }

    fn on_crash(&mut self, _at: Time) {
        // Volatile protocol state dies; storage and durable slots survive.
        self.server.crash();
        self.timer_ids.clear();
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_, Wire<S>>) {
        let local = self.clock.local(ctx.now());
        let leases = self.durable_leases.clone();
        let mut out = self
            .server
            .recover(local, self.durable_max_term, leases, &self.storage);
        self.apply(ctx, &mut out);
    }
}
