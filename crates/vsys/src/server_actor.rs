//! The file-server actor: a sans-IO server wired to the simulator, and
//! under a quorum one grantor replica.

use std::cell::RefCell;
use std::rc::Rc;

use lease_clock::{ClockModel, Dur, Time};
use lease_core::shard::Persisted;
use lease_core::{
    ClientId, FxMap, ServerInput, ServerOutput, ServerTimer, ShardCore, ToClient, ToServer,
    Version, WriteId,
};
use lease_faults::{HistoryEvent, SharedHistory};
use lease_quorum::{GrantorNode, NodeOut};
use lease_sim::{Actor, ActorId, Ctx, TimerId};

use crate::replica::{Grantors, GRANTOR_TICK, TICK};
use crate::report::{SharedTally, TrafficClass};
use crate::types::{Data, NetMsg, Res, Store};

/// A sans-IO file server the [`ServerActor`] can drive: the lease server
/// of `lease-core` as one [`ShardCore`], the write-back token server of
/// `lease-wb` and the §6 baselines' callback and TTL servers.
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
    /// Whether the server can be a grantor replica: its §5 recovery makes
    /// a fresh acquisition safe. Only the lease server's does.
    const REPLICA: bool = false;

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
    /// Crashes and restarts at local time `now` (§5): the volatile state
    /// is wiped and the server recovers from the durable slots the actor
    /// kept. Nothing reaches a crashed server, so the actor restarts it
    /// when it comes back. A server without §5 recovery refuses.
    fn restart(
        &mut self,
        _now: Time,
        _persisted: Persisted<Res>,
        _storage: &Store,
    ) -> Vec<Self::Output> {
        panic!("this server has no §5 crash recovery");
    }
    /// The session check of a grantor replica's server: once `session`
    /// is not the one it answers for, it restarts (§5) from what
    /// `persisted` reads back and returns what the restart asks for. Only
    /// a [`Self::REPLICA`] server is asked.
    fn check_session(
        &mut self,
        _now: Time,
        _session: u64,
        _persisted: impl FnOnce() -> Persisted<Res>,
        _storage: &Store,
    ) -> Option<Vec<Self::Output>> {
        panic!("only a grantor replica answers for a session");
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

/// The simulated lease server is shard 0 of 1: the plan's shard-0 kills
/// restart it, and a replica's fresh acquisition is its session check.
impl SimServer for ShardCore<Res, Data> {
    type Up = ToServer<Res, Data>;
    type Down = ToClient<Res, Data>;
    type Output = ServerOutput<Res, Data>;
    const REPLICA: bool = true;

    fn start(&mut self, now: Time, storage: &Store) -> Vec<Self::Output> {
        self.server.start(now, storage)
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
        ShardCore::handle_into(self, now, input, storage, out)
    }

    fn restart(
        &mut self,
        now: Time,
        persisted: Persisted<Res>,
        storage: &Store,
    ) -> Vec<Self::Output> {
        ShardCore::restart(self, now, persisted, storage)
    }

    fn check_session(
        &mut self,
        now: Time,
        session: u64,
        persisted: impl FnOnce() -> Persisted<Res>,
        storage: &Store,
    ) -> Option<Vec<Self::Output>> {
        ShardCore::check_session(self, now, session, persisted, storage)
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

/// The timer key of the plan's shard kills; no server's own key.
const SHARD_KILL: u64 = u64::MAX - 1;

/// What survives a server's crash: the primary storage and the durable
/// recovery slots. The replicas of a quorum share one, as the real-time
/// runtime's replicas share one store.
#[derive(Default)]
pub struct Disk {
    /// Primary storage.
    pub storage: Store,
    /// The maximum granted term (MaxTerm recovery, §2).
    max_term: Option<Dur>,
    /// Lease records (PersistentRecords recovery).
    leases: Vec<(Res, ClientId, Time)>,
}

/// The one disk of a world's server replicas.
pub type SharedDisk = Rc<RefCell<Disk>>;

/// The server actor: owns the server state machine and the server's clock
/// model, writes through the disk, and under a quorum runs its replica's
/// grantor node; restarts the server at the plan's shard-0 kills; counts
/// the server's traffic after the warm-up into the run's tally.
pub struct ServerActor<S: SimServer = ShardCore<Res, Data>> {
    /// The protocol state machine.
    pub server: S,
    disk: SharedDisk,
    clock: ClockModel,
    /// ClientId -> ActorId mapping (dense).
    clients: Vec<ActorId>,
    history: SharedHistory,
    tally: SharedTally,
    warmup: Time,
    /// Under a quorum, this replica's node and the claims it publishes.
    pub(crate) grantor: Option<(GrantorNode, Rc<Grantors>)>,
    /// The node's fresh acquisitions: the session the server answers for.
    sessions: u64,
    /// The plan's kills of shard 0, in true time. One the server is down
    /// for is skipped.
    pub(crate) kills: Vec<Time>,
    timer_ids: FxMap<u64, TimerId>,
    /// The server's outputs for the event at hand; empty between events.
    out: Vec<S::Output>,
}

impl<S: SimServer> ServerActor<S> {
    /// Creates the actor. `clients[i]` must be the ActorId of client `i`.
    pub fn new(
        server: S,
        disk: SharedDisk,
        clock: ClockModel,
        clients: Vec<ActorId>,
        history: SharedHistory,
        tally: SharedTally,
        warmup: Time,
    ) -> ServerActor<S> {
        ServerActor {
            server,
            disk,
            clock,
            clients,
            history,
            tally,
            warmup,
            grantor: None,
            sessions: 0,
            kills: Vec::new(),
            timer_ids: FxMap::default(),
            out: Vec::new(),
        }
    }

    /// Whether the server acts at `now`: always, unless it is a replica
    /// whose node holds no claim. Refusing every client message and server
    /// timer then fences what the replica takes in, sends and commits.
    fn serving(&self, now: Time) -> bool {
        self.grantor
            .as_ref()
            .is_none_or(|(node, _)| node.is_serving(self.clock.local(now)))
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
            .handle_into(local, event, &mut self.disk.borrow_mut().storage, &mut out);
        self.apply(ctx, &mut out);
        self.out = out;
    }

    /// Crashes the server and restarts it from the disk (§5), or with a
    /// `session` lets the server's session check decide whether to; the
    /// old incarnation's timers go with it.
    fn restart(&mut self, ctx: &mut Ctx<'_, Wire<S>>, session: Option<u64>) {
        let local = self.clock.local(ctx.now());
        let d = self.disk.borrow();
        let persisted = || (d.max_term, d.leases.clone());
        let restarted = match session {
            Some(s) => self.server.check_session(local, s, persisted, &d.storage),
            None => Some(self.server.restart(local, persisted(), &d.storage)),
        };
        drop(d);
        if let Some(mut out) = restarted {
            for (_, id) in self.timer_ids.drain() {
                ctx.cancel_timer(id);
            }
            self.apply(ctx, &mut out);
        }
    }

    /// Arms a timer for each shard kill still ahead: at the start, and
    /// again at a recovery, since the world drops a crashed actor's timers.
    fn arm_kills(&self, ctx: &mut Ctx<'_, Wire<S>>) {
        let now = ctx.now();
        for &at in self.kills.iter().filter(|&&at| at >= now) {
            ctx.set_timer_at(at, SHARD_KILL);
        }
    }

    /// Ticks the node and re-arms its timer, if the server is a replica.
    fn tick(&mut self, ctx: &mut Ctx<'_, Wire<S>>) {
        if self.grantor.is_some() {
            ctx.set_timer_in(TICK, GRANTOR_TICK);
            self.elect(ctx, GrantorNode::tick);
        }
    }

    /// Runs `step` on the replica's node, if the server is one, at its
    /// local time and carries out what the node asks for. A fresh
    /// acquisition starts a new serving session that can trust nothing
    /// the server knew before: the server's session check crash-recovers
    /// it through the §5 path, at the instant a shard thread would after
    /// its next gather.
    fn elect(
        &mut self,
        ctx: &mut Ctx<'_, Wire<S>>,
        step: impl FnOnce(&mut GrantorNode, Time) -> Vec<NodeOut>,
    ) {
        let Some((node, grantors)) = self.grantor.as_mut() else {
            return;
        };
        let local = self.clock.local(ctx.now());
        let (outs, grantors) = (step(node, local), Rc::clone(grantors));
        let (me, now) = (ctx.me().0, ctx.now());
        for o in outs {
            let (acquired, ballot, at) = match o {
                NodeOut::Send { to, msg } => {
                    self.tally.borrow_mut().quorum_msgs += 1;
                    ctx.send(ActorId(to as usize), NetMsg::Quorum(msg));
                    continue;
                }
                NodeOut::Acquired { ballot, fresh } => {
                    if fresh {
                        self.sessions += 1;
                        self.restart(ctx, Some(self.sessions));
                    }
                    (true, ballot, now)
                }
                // Noticed `overshoot` (local time) after it happened:
                // backdated onto the true timeline through the clock.
                NodeOut::Ceded { ballot, overshoot } => {
                    (false, ballot, self.clock.true_before(now, overshoot))
                }
            };
            grantors.held[me].set(acquired);
            let (replica, ballot) = (me as u32, ballot.as_u64());
            self.history.borrow_mut().push(if acquired {
                HistoryEvent::GrantorAcquired {
                    replica,
                    ballot,
                    at,
                }
            } else {
                HistoryEvent::GrantorCeded {
                    replica,
                    ballot,
                    at,
                }
            });
        }
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
                ServerEffect::PersistMaxTerm(d) => self.disk.borrow_mut().max_term = Some(d),
                ServerEffect::PersistLease(resource, client, expiry) => {
                    let lease = (resource, client, expiry);
                    self.disk.borrow_mut().leases.push(lease);
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
        let mut out = self.server.start(local, &self.disk.borrow().storage);
        self.apply(ctx, &mut out);
        self.tick(ctx);
        self.arm_kills(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Wire<S>>, from: ActorId, msg: Wire<S>) {
        let msg = match msg {
            NetMsg::ToServer(msg) => msg,
            NetMsg::Quorum(msg) => {
                // A cut severs delivery too: a message in flight when
                // either end's cut begins is lost.
                let cut = |g: &Rc<Grantors>| g.cut(from.0, ctx.me().0, ctx.now());
                if self.grantor.as_ref().is_some_and(|(_, g)| !cut(g)) {
                    self.elect(ctx, |node, local| node.handle(local, from.0 as u32, msg));
                }
                return;
            }
            NetMsg::ToClient(_) => return, // Stray; the server speaks ToServer.
        };
        let Some(client) = self.client_of(from) else {
            return;
        };
        if !self.serving(ctx.now()) {
            return;
        }
        if ctx.now() >= self.warmup {
            self.tally.borrow_mut().message(msg.traffic());
        }
        self.handle(ctx, ServerEvent::Msg(client, msg));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Wire<S>>, _timer: TimerId, key: u64) {
        if key == GRANTOR_TICK {
            return self.tick(ctx);
        }
        if key == SHARD_KILL {
            return self.restart(ctx, None);
        }
        self.timer_ids.remove(&key);
        if self.serving(ctx.now()) {
            self.handle(ctx, ServerEvent::Timer(key));
        }
    }

    fn on_crash(&mut self, _at: Time) {
        // The world drops a crashed actor's timers; its server's volatile
        // state dies at the restart, as nothing reaches it before.
        self.timer_ids.clear();
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_, Wire<S>>) {
        self.restart(ctx, None);
        // A replica's node restarts with it, silent for its MaxTerm.
        self.elect(ctx, GrantorNode::restart);
        self.tick(ctx);
        self.arm_kills(ctx);
    }
}
