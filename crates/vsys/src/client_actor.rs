//! The client-cache actor: the lease cache plus the workload driver.

use lease_clock::{ClockModel, Time};
use lease_core::{
    ClientId, ClientInput, ClientOutput, ClientTimer, FxMap, LeaseClient, Op, OpId, OpOutcome,
};
use lease_sim::{Actor, ActorId, Ctx, TimerId};
use lease_workload::TraceOp;

use crate::driver::{OpDriver, DRIVER_TIMER_KEY};
use crate::history::{HistoryEvent, SharedHistory};
use crate::types::{Data, NetMsg, Res};

/// The client actor: a lease cache driven open-loop by its trace slice.
pub struct ClientActor {
    /// The cache state machine.
    pub cache: LeaseClient<Res, Data>,
    /// The workload driver.
    pub driver: OpDriver,
    clock: ClockModel,
    server: ActorId,
    id: ClientId,
    history: SharedHistory,
    /// op -> (resource, is_read), for history completion records.
    op_meta: FxMap<OpId, (Res, bool)>,
    timer_ids: FxMap<u64, TimerId>,
    next_data: u64,
    warmup: Time,
}

impl ClientActor {
    /// Creates the actor.
    pub fn new(
        cache: LeaseClient<Res, Data>,
        driver: OpDriver,
        clock: ClockModel,
        server: ActorId,
        history: SharedHistory,
        warmup: Time,
    ) -> ClientActor {
        let id = cache.id();
        ClientActor {
            cache,
            driver,
            clock,
            server,
            id,
            history,
            op_meta: FxMap::default(),
            timer_ids: FxMap::default(),
            next_data: 0,
            warmup,
        }
    }

    fn timer_key(t: ClientTimer) -> u64 {
        match t {
            ClientTimer::Renewal => 1,
            ClientTimer::Retry(r) => r.0 + 2,
        }
    }

    fn timer_of_key(key: u64) -> ClientTimer {
        if key == 1 {
            ClientTimer::Renewal
        } else {
            ClientTimer::Retry(lease_core::ReqId(key - 2))
        }
    }

    fn schedule_driver(&mut self, ctx: &mut Ctx<'_, NetMsg>) {
        if let Some(at) = self.driver.next_due() {
            ctx.set_timer_at(at, DRIVER_TIMER_KEY);
        }
    }

    fn issue_due(&mut self, ctx: &mut Ctx<'_, NetMsg>) {
        let due = self.driver.take_due(ctx.now(), ctx.metrics());
        for (op, trace_op) in due {
            let resource = trace_op.file();
            let now = ctx.now();
            let input = match trace_op {
                TraceOp::Read { file } => {
                    self.history.borrow_mut().push(HistoryEvent::ReadStart {
                        client: self.id,
                        op,
                        resource: file,
                        at: now,
                    });
                    self.op_meta.insert(op, (resource, true));
                    ClientInput::Op {
                        op,
                        kind: Op::Read(file),
                    }
                }
                TraceOp::Write { file } => {
                    self.history.borrow_mut().push(HistoryEvent::WriteStart {
                        client: self.id,
                        op,
                        resource: file,
                        at: now,
                    });
                    self.op_meta.insert(op, (resource, false));
                    let token = ((self.id.0 as u64) << 32) | self.next_data;
                    self.next_data += 1;
                    ClientInput::Op {
                        op,
                        kind: Op::Write(file, token),
                    }
                }
            };
            let local = self.clock.local(ctx.now());
            let out = self.cache.handle(local, input);
            self.apply(ctx, out);
        }
        self.schedule_driver(ctx);
    }

    fn apply(&mut self, ctx: &mut Ctx<'_, NetMsg>, outputs: Vec<ClientOutput<Res, Data>>) {
        for o in outputs {
            match o {
                ClientOutput::Send(msg) => {
                    ctx.send(self.server, NetMsg::ToServer(msg));
                }
                ClientOutput::SetTimer { at, timer } => {
                    let key = Self::timer_key(timer);
                    if let Some(old) = self.timer_ids.remove(&key) {
                        ctx.cancel_timer(old);
                    }
                    let local_now = self.clock.local(ctx.now());
                    let local_dur = at.saturating_since(local_now);
                    let true_at = self.clock.true_after(ctx.now(), local_dur);
                    let id = ctx.set_timer_at(true_at, key);
                    self.timer_ids.insert(key, id);
                }
                ClientOutput::CancelTimer(timer) => {
                    if let Some(id) = self.timer_ids.remove(&Self::timer_key(timer)) {
                        ctx.cancel_timer(id);
                    }
                }
                ClientOutput::Done { op, result } => {
                    let meta = self.op_meta.remove(&op);
                    match result {
                        Ok(outcome) => {
                            self.driver.complete(ctx.now(), op, ctx.metrics());
                            if ctx.now() >= self.warmup {
                                match &outcome {
                                    OpOutcome::Read {
                                        from_cache: true, ..
                                    } => ctx.metrics().inc("client.hit"),
                                    OpOutcome::Read {
                                        from_cache: false, ..
                                    } => ctx.metrics().inc("client.remote_read"),
                                    OpOutcome::Write { .. } => {
                                        ctx.metrics().inc("client.write_done")
                                    }
                                }
                            }
                            if let Some((resource, _)) = meta {
                                let ev = match outcome {
                                    OpOutcome::Read {
                                        version,
                                        from_cache,
                                        ..
                                    } => HistoryEvent::ReadDone {
                                        client: self.id,
                                        op,
                                        resource,
                                        version,
                                        at: ctx.now(),
                                        from_cache,
                                    },
                                    OpOutcome::Write { version } => HistoryEvent::WriteDone {
                                        client: self.id,
                                        op,
                                        resource,
                                        version,
                                        at: ctx.now(),
                                    },
                                };
                                self.history.borrow_mut().push(ev);
                            }
                        }
                        Err(_) => {
                            self.driver.fail(op, ctx.metrics());
                        }
                    }
                }
            }
        }
    }
}

impl Actor<NetMsg> for ClientActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_, NetMsg>) {
        let local = self.clock.local(ctx.now());
        let out = self.cache.start(local);
        self.apply(ctx, out);
        self.schedule_driver(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, NetMsg>, _from: ActorId, msg: NetMsg) {
        let NetMsg::ToClient(msg) = msg else {
            return;
        };
        let local = self.clock.local(ctx.now());
        let out = self.cache.handle(local, ClientInput::Msg(msg));
        self.apply(ctx, out);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, NetMsg>, _timer: TimerId, key: u64) {
        if key == DRIVER_TIMER_KEY {
            self.issue_due(ctx);
            return;
        }
        self.timer_ids.remove(&key);
        let local = self.clock.local(ctx.now());
        let out = self
            .cache
            .handle(local, ClientInput::Timer(Self::timer_of_key(key)));
        self.apply(ctx, out);
    }

    fn on_crash(&mut self) {
        self.cache.crash();
        self.driver.crash();
        self.op_meta.clear();
        self.timer_ids.clear();
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_, NetMsg>) {
        // Operations that should have run while down are lost, not replayed.
        self.driver.skip_until(ctx.now());
        let local = self.clock.local(ctx.now());
        let out = self.cache.start(local);
        self.apply(ctx, out);
        self.schedule_driver(ctx);
    }
}
