//! The client-cache actor: a sans-IO cache plus the workload driver.

use std::rc::Rc;

use lease_clock::{ClockModel, Time};
use lease_core::{
    ClientId, ClientInput, ClientOutput, ClientTimer, FxMap, LeaseClient, Op, OpId, OpOutcome,
    ReqId, ToClient, ToServer, Version,
};
use lease_faults::{HistoryEvent, SharedHistory};
use lease_sim::{Actor, ActorId, Ctx, TimerId};
use lease_workload::TraceOp;

use crate::driver::{OpDriver, DRIVER_TIMER_KEY};
use crate::replica::Grantors;
use crate::report::SharedTally;
use crate::types::{Data, NetMsg, Res};

/// A sans-IO client cache the [`ClientActor`] can drive: the lease cache
/// of `lease-core` and the write-back token cache of `lease-wb`.
///
/// The actor hands the cache [`CacheEvent`]s and maps each output, by
/// value, to a [`CacheEffect`]. Timer keys are the cache's own and must
/// not be [`DRIVER_TIMER_KEY`].
pub trait SimCache: 'static {
    /// Client-to-server message.
    type Up: Clone + 'static;
    /// Server-to-client message.
    type Down: Clone + 'static;
    /// What the cache asks for.
    type Output;

    /// Starts (or restarts after a crash) at local time `now`.
    fn start(&mut self, now: Time) -> Vec<Self::Output>;
    /// Handles one event at local time `now`, appending what it asks for
    /// to `out`: the actor drains `out` after each call, so one buffer
    /// serves every event.
    fn handle_into(
        &mut self,
        now: Time,
        event: CacheEvent<Self::Down>,
        out: &mut Vec<Self::Output>,
    );
    /// Wipes the volatile state and returns the buffered writes lost
    /// with it, each as `(resource, last_durable, last_lost)`.
    fn crash(&mut self) -> Vec<(Res, Version, Version)>;
    /// What the simulator does with one output.
    fn effect(out: Self::Output) -> CacheEffect<Self::Up>;
}

/// What the simulator hands a cache.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheEvent<D> {
    /// The application reads a resource.
    Read(OpId, Res),
    /// The application writes `.2` to a resource.
    Write(OpId, Res, Data),
    /// A server message arrived.
    Msg(D),
    /// The timer with this key fired.
    Timer(u64),
}

/// One cache output as the simulator applies it.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheEffect<U> {
    /// Send to the server.
    Send(U),
    /// Arm the timer with key `.1` at cache-local time `.0`, replacing a
    /// pending one.
    SetTimer(Time, u64),
    /// Cancel the timer with this key.
    CancelTimer(u64),
    /// Operation `.0` finished; `None` means it failed.
    Done(OpId, Option<OpOutcome<Data>>),
    /// A buffered write `(resource, version)` became visible: the
    /// history's `Commit`.
    Commit(Res, Version),
    /// The buffered writes `(last_durable, last_lost]` of a resource, given
    /// as `(resource, last_durable, last_lost)`, were lost.
    Discard(Res, Version, Version),
}

impl SimCache for LeaseClient<Res, Data> {
    type Up = ToServer<Res, Data>;
    type Down = ToClient<Res, Data>;
    type Output = ClientOutput<Res, Data>;

    fn start(&mut self, now: Time) -> Vec<Self::Output> {
        LeaseClient::start(self, now)
    }

    fn handle_into(
        &mut self,
        now: Time,
        event: CacheEvent<Self::Down>,
        out: &mut Vec<Self::Output>,
    ) {
        let input = match event {
            CacheEvent::Read(op, resource) => ClientInput::Op {
                op,
                kind: Op::Read(resource),
            },
            CacheEvent::Write(op, resource, data) => ClientInput::Op {
                op,
                kind: Op::Write(resource, data),
            },
            CacheEvent::Msg(msg) => ClientInput::Msg(msg),
            CacheEvent::Timer(1) => ClientInput::Timer(ClientTimer::Renewal),
            CacheEvent::Timer(key) => ClientInput::Timer(ClientTimer::Retry(ReqId(key - 2))),
        };
        LeaseClient::handle_into(self, now, input, out)
    }

    fn crash(&mut self) -> Vec<(Res, Version, Version)> {
        // Write-through: nothing was buffered, so nothing is lost.
        LeaseClient::crash(self);
        Vec::new()
    }

    fn effect(out: Self::Output) -> CacheEffect<Self::Up> {
        let key = |t| match t {
            ClientTimer::Renewal => 1,
            ClientTimer::Retry(r) => r.0 + 2,
        };
        match out {
            ClientOutput::Send(msg) => CacheEffect::Send(msg),
            ClientOutput::SetTimer { at, timer } => CacheEffect::SetTimer(at, key(timer)),
            ClientOutput::CancelTimer(timer) => CacheEffect::CancelTimer(key(timer)),
            ClientOutput::Done { op, result } => CacheEffect::Done(op, result.ok()),
        }
    }
}

/// The network message of the protocol `C` speaks.
type Wire<C> = NetMsg<<C as SimCache>::Up, <C as SimCache>::Down>;

/// The client actor: a cache driven open-loop by its trace slice.
pub struct ClientActor<C: SimCache = LeaseClient<Res, Data>> {
    /// The cache state machine.
    pub cache: C,
    /// The workload driver.
    pub driver: OpDriver,
    clock: ClockModel,
    /// Under a quorum, the replicas; without one, the server is actor 0.
    grantors: Option<Rc<Grantors>>,
    id: ClientId,
    history: SharedHistory,
    tally: SharedTally,
    timer_ids: FxMap<u64, TimerId>,
    next_data: u64,
    /// The cache's outputs for the event at hand; empty between events.
    out: Vec<C::Output>,
}

impl<C: SimCache> ClientActor<C> {
    /// Creates the actor for client `id`, sending to the server (actor 0)
    /// or under a quorum to the replica `grantors` routes to; its driver
    /// counts into `tally`.
    pub fn new(
        id: ClientId,
        cache: C,
        driver: OpDriver,
        clock: ClockModel,
        grantors: Option<Rc<Grantors>>,
        history: SharedHistory,
        tally: SharedTally,
    ) -> ClientActor<C> {
        ClientActor {
            cache,
            driver,
            clock,
            grantors,
            id,
            history,
            tally,
            timer_ids: FxMap::default(),
            next_data: 0,
            out: Vec::new(),
        }
    }

    fn schedule_driver(&mut self, ctx: &mut Ctx<'_, Wire<C>>) {
        if let Some(at) = self.driver.next_due() {
            ctx.set_timer_at(at, DRIVER_TIMER_KEY);
        }
    }

    fn issue_due(&mut self, ctx: &mut Ctx<'_, Wire<C>>) {
        let due = self
            .driver
            .take_due(ctx.now(), &mut self.tally.borrow_mut());
        for (op, trace_op) in due {
            let now = ctx.now();
            let input = match trace_op {
                TraceOp::Read { file } => {
                    self.history.borrow_mut().push(HistoryEvent::ReadStart {
                        client: self.id,
                        op,
                        resource: file,
                        at: now,
                    });
                    CacheEvent::Read(op, file)
                }
                TraceOp::Write { file } => {
                    self.history.borrow_mut().push(HistoryEvent::WriteStart {
                        client: self.id,
                        op,
                        resource: file,
                        at: now,
                    });
                    let token = ((self.id.0 as u64) << 32) | self.next_data;
                    self.next_data += 1;
                    CacheEvent::Write(op, file, token)
                }
            };
            self.handle(ctx, input);
        }
        self.schedule_driver(ctx);
    }

    /// Hands the cache one event at this host's local time and applies
    /// what it asks for.
    fn handle(&mut self, ctx: &mut Ctx<'_, Wire<C>>, event: CacheEvent<C::Down>) {
        let local = self.clock.local(ctx.now());
        let mut out = std::mem::take(&mut self.out);
        self.cache.handle_into(local, event, &mut out);
        self.apply(ctx, &mut out);
        self.out = out;
    }

    fn apply(&mut self, ctx: &mut Ctx<'_, Wire<C>>, outputs: &mut Vec<C::Output>) {
        for o in outputs.drain(..) {
            match C::effect(o) {
                CacheEffect::Send(msg) => {
                    if let Some(to) = Grantors::route(&self.grantors, ctx.now()) {
                        ctx.send(to, NetMsg::ToServer(msg));
                    }
                }
                CacheEffect::SetTimer(at, key) => {
                    if let Some(old) = self.timer_ids.remove(&key) {
                        ctx.cancel_timer(old);
                    }
                    let local_now = self.clock.local(ctx.now());
                    let local_dur = at.saturating_since(local_now);
                    let true_at = self.clock.true_after(ctx.now(), local_dur);
                    let id = ctx.set_timer_at(true_at, key);
                    self.timer_ids.insert(key, id);
                }
                CacheEffect::CancelTimer(key) => {
                    if let Some(id) = self.timer_ids.remove(&key) {
                        ctx.cancel_timer(id);
                    }
                }
                CacheEffect::Done(op, None) => {
                    self.driver.fail(op, &mut self.tally.borrow_mut());
                }
                CacheEffect::Done(op, Some(outcome)) => self.done(ctx, op, outcome),
                CacheEffect::Commit(resource, version) => {
                    self.history.borrow_mut().push(HistoryEvent::Commit {
                        resource,
                        version,
                        writer: Some(self.id),
                        at: ctx.now(),
                    });
                }
                CacheEffect::Discard(resource, last_durable, last_lost) => {
                    self.discard(resource, last_durable, last_lost, ctx.now())
                }
            }
        }
    }

    fn done(&mut self, ctx: &mut Ctx<'_, Wire<C>>, op: OpId, outcome: OpOutcome<Data>) {
        let resource = self
            .driver
            .complete(ctx.now(), op, &outcome, &mut self.tally.borrow_mut());
        let Some(resource) = resource else {
            return;
        };
        let (client, at) = (self.id, ctx.now());
        self.history.borrow_mut().push(match outcome {
            OpOutcome::Read {
                version,
                from_cache,
                ..
            } => HistoryEvent::ReadDone {
                client,
                op,
                resource,
                version,
                at,
                from_cache,
            },
            OpOutcome::Write { version } => HistoryEvent::WriteDone {
                client,
                op,
                resource,
                version,
                at,
            },
        });
    }

    fn discard(&mut self, resource: Res, last_durable: Version, last_lost: Version, at: Time) {
        self.history.borrow_mut().push(HistoryEvent::Discard {
            resource,
            last_durable,
            last_lost,
            at,
        });
    }
}

impl<C: SimCache> Actor<Wire<C>> for ClientActor<C> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Wire<C>>) {
        let local = self.clock.local(ctx.now());
        let mut out = self.cache.start(local);
        self.apply(ctx, &mut out);
        self.schedule_driver(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Wire<C>>, _from: ActorId, msg: Wire<C>) {
        let NetMsg::ToClient(msg) = msg else {
            return;
        };
        self.handle(ctx, CacheEvent::Msg(msg));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Wire<C>>, _timer: TimerId, key: u64) {
        if key == DRIVER_TIMER_KEY {
            self.issue_due(ctx);
            return;
        }
        self.timer_ids.remove(&key);
        self.handle(ctx, CacheEvent::Timer(key));
    }

    fn on_crash(&mut self, at: Time) {
        // Buffered writes die with the host, stamped with this crash.
        for (resource, last_durable, last_lost) in self.cache.crash() {
            self.discard(resource, last_durable, last_lost, at);
        }
        self.driver.crash();
        self.timer_ids.clear();
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_, Wire<C>>) {
        // Operations that should have run while down are lost, not replayed.
        self.driver.skip_until(ctx.now());
        let local = self.clock.local(ctx.now());
        let mut out = self.cache.start(local);
        self.apply(ctx, &mut out);
        self.schedule_driver(ctx);
    }
}
