//! The world: actors, the event loop, and fault scheduling.

use std::any::Any;
use std::collections::HashSet;

use lease_clock::Time;

use crate::actor::{Actor, ActorId, Cmd, Ctx, TimerId};
use crate::event::EventQueue;
use crate::medium::{Delivery, Dest, Medium};
use crate::metrics::Metrics;
use crate::rng::SimRng;

enum WorldEvent<M> {
    Start(ActorId),
    Deliver {
        from: ActorId,
        to: ActorId,
        msg: M,
    },
    Timer {
        actor: ActorId,
        id: TimerId,
        key: u64,
        epoch: u32,
    },
    Crash(ActorId),
    Recover(ActorId),
}

struct Slot<M> {
    actor: Box<dyn Actor<M>>,
    crashed: bool,
    /// Incremented on every crash so stale timers can be discarded.
    epoch: u32,
    /// This actor's private random stream, forked from the world seed by
    /// actor id. Streams are splittable and per-actor, so the draws one
    /// actor sees depend only on (seed, its id, its own draw count) —
    /// never on how its handlers interleave with other actors'.
    rng: SimRng,
}

/// The simulation world: owns the actors, the clock, the event queue, the
/// network medium, randomness, and metrics.
///
/// Construction order fixes actor ids: the first [`World::add_actor`] call
/// returns `ActorId(0)`, the next `ActorId(1)`, and so on. Runs are
/// deterministic functions of (seed, actors, scheduled faults).
pub struct World<M> {
    now: Time,
    queue: EventQueue<WorldEvent<M>>,
    actors: Vec<Option<Slot<M>>>,
    medium: Box<dyn Medium<M>>,
    next_timer: u64,
    cancelled: HashSet<u64>,
    /// The medium's stream (the historical root stream, so network draws
    /// are unchanged by the introduction of per-actor streams).
    rng: SimRng,
    metrics: Metrics,
    stopped: bool,
    events_processed: u64,
    /// Scratch reused across [`World::route`] calls so steady-state
    /// routing never allocates a deliveries vector.
    route_buf: Vec<Delivery<M>>,
    /// Scratch reused across actor handler invocations for buffered
    /// commands.
    cmd_buf: Vec<Cmd<M>>,
}

impl<M: 'static> World<M> {
    /// Creates an empty world with the given seed and network medium.
    pub fn new(seed: u64, medium: impl Medium<M> + 'static) -> World<M> {
        World {
            now: Time::ZERO,
            queue: EventQueue::new(),
            actors: Vec::new(),
            medium: Box::new(medium),
            next_timer: 0,
            cancelled: HashSet::new(),
            rng: SimRng::seed(seed),
            metrics: Metrics::new(),
            stopped: false,
            events_processed: 0,
            route_buf: Vec::new(),
            cmd_buf: Vec::new(),
        }
    }

    /// Registers an actor; its `on_start` runs at the current time, before
    /// any later-scheduled event.
    pub fn add_actor(&mut self, actor: impl Actor<M>) -> ActorId {
        let id = ActorId(self.actors.len());
        self.actors.push(Some(Slot {
            actor: Box::new(actor),
            crashed: false,
            epoch: 0,
            rng: self.rng.fork(id.0 as u64),
        }));
        self.queue.push(self.now, WorldEvent::Start(id));
        id
    }

    /// The current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable access to the metrics registry (for harness bookkeeping).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Number of events the loop has processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Borrows a registered actor, downcast to its concrete type.
    ///
    /// Returns `None` if the id is unknown or the type does not match.
    pub fn actor<T: Actor<M>>(&self, id: ActorId) -> Option<&T> {
        let slot = self.actors.get(id.0)?.as_ref()?;
        let any: &dyn Any = slot.actor.as_ref();
        any.downcast_ref::<T>()
    }

    /// Mutably borrows a registered actor, downcast to its concrete type.
    pub fn actor_mut<T: Actor<M>>(&mut self, id: ActorId) -> Option<&mut T> {
        let slot = self.actors.get_mut(id.0)?.as_mut()?;
        let any: &mut dyn Any = slot.actor.as_mut();
        any.downcast_mut::<T>()
    }

    /// Whether the actor is currently crashed.
    pub fn is_crashed(&self, id: ActorId) -> bool {
        self.actors
            .get(id.0)
            .and_then(|s| s.as_ref())
            .map(|s| s.crashed)
            .unwrap_or(false)
    }

    /// Schedules a crash of `actor` at time `at`: its volatile state is
    /// dropped (via [`Actor::on_crash`]), pending timers die, and messages
    /// delivered while crashed are lost.
    pub fn schedule_crash(&mut self, at: Time, actor: ActorId) {
        self.queue.push(at, WorldEvent::Crash(actor));
    }

    /// Schedules a restart of `actor` at time `at`; [`Actor::on_recover`]
    /// runs then.
    pub fn schedule_recover(&mut self, at: Time, actor: ActorId) {
        self.queue.push(at, WorldEvent::Recover(actor));
    }

    /// Processes a single event. Returns `false` when the queue is empty or
    /// the world has been stopped.
    pub fn step(&mut self) -> bool {
        if self.stopped {
            return false;
        }
        let Some((at, ev)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.events_processed += 1;
        match ev {
            WorldEvent::Start(id) => self.with_actor(id, |actor, ctx| actor.on_start(ctx)),
            WorldEvent::Deliver { from, to, msg } => {
                if self.is_crashed(to) {
                    self.metrics.inc("sim.dropped_to_crashed");
                } else {
                    self.with_actor(to, |actor, ctx| actor.on_message(ctx, from, msg));
                }
            }
            WorldEvent::Timer {
                actor,
                id,
                key,
                epoch,
            } => {
                if self.cancelled.remove(&id.0) {
                    // Cancelled before firing.
                } else if let Some(slot) = self.actors.get(actor.0).and_then(|s| s.as_ref()) {
                    if !slot.crashed && slot.epoch == epoch {
                        self.with_actor(actor, |a, ctx| a.on_timer(ctx, id, key));
                    }
                }
            }
            WorldEvent::Crash(id) => {
                if let Some(slot) = self.actors.get_mut(id.0).and_then(|s| s.as_mut()) {
                    if !slot.crashed {
                        slot.crashed = true;
                        slot.epoch += 1;
                        slot.actor.on_crash();
                        self.metrics.inc("sim.crashes");
                    }
                }
            }
            WorldEvent::Recover(id) => {
                let recovered = match self.actors.get_mut(id.0).and_then(|s| s.as_mut()) {
                    Some(slot) if slot.crashed => {
                        slot.crashed = false;
                        true
                    }
                    _ => false,
                };
                if recovered {
                    self.metrics.inc("sim.recoveries");
                    self.with_actor(id, |a, ctx| a.on_recover(ctx));
                }
            }
        }
        !self.stopped
    }

    /// Runs until the queue drains, the world stops, or `limit` events have
    /// been processed. Returns the number of events processed.
    pub fn run(&mut self, limit: u64) -> u64 {
        let mut n = 0;
        while n < limit && self.step() {
            n += 1;
        }
        n
    }

    /// Runs until simulated time reaches `t` (events strictly after `t` are
    /// left pending), the queue drains, or the world stops. The clock ends
    /// at `t` unless stopped earlier.
    pub fn run_until(&mut self, t: Time) {
        while !self.stopped {
            match self.queue.peek_time() {
                Some(at) if at <= t => {
                    self.step();
                }
                _ => break,
            }
        }
        if !self.stopped && self.now < t {
            self.now = t;
        }
    }

    /// Runs an actor handler with a fresh context, then applies the
    /// commands it buffered. The command buffer is world-owned scratch:
    /// handlers and `apply` never allocate it in steady state.
    fn with_actor(&mut self, id: ActorId, f: impl FnOnce(&mut dyn Actor<M>, &mut Ctx<'_, M>)) {
        let Some(mut slot) = self.actors.get_mut(id.0).and_then(Option::take) else {
            return;
        };
        debug_assert!(self.cmd_buf.is_empty());
        let mut ctx = Ctx {
            now: self.now,
            me: id,
            next_timer: &mut self.next_timer,
            cmds: std::mem::take(&mut self.cmd_buf),
            rng: &mut slot.rng,
            metrics: &mut self.metrics,
        };
        f(slot.actor.as_mut(), &mut ctx);
        let cmds = ctx.cmds;
        let epoch = slot.epoch;
        self.actors[id.0] = Some(slot);
        self.apply(id, epoch, cmds);
    }

    fn apply(&mut self, from: ActorId, epoch: u32, mut cmds: Vec<Cmd<M>>) {
        for cmd in cmds.drain(..) {
            match cmd {
                Cmd::Send { to, msg } => self.route(from, Dest::One(to), msg),
                Cmd::Multicast { to, msg } => self.route(from, Dest::Many(to), msg),
                Cmd::SetTimer { id, at, key } => {
                    self.queue.push(
                        at,
                        WorldEvent::Timer {
                            actor: from,
                            id,
                            key,
                            epoch,
                        },
                    );
                }
                Cmd::CancelTimer { id } => {
                    self.cancelled.insert(id.0);
                }
                Cmd::Stop => self.stopped = true,
            }
        }
        // Hand the drained buffer back for the next handler.
        self.cmd_buf = cmds;
    }

    fn route(&mut self, from: ActorId, dest: Dest, msg: M) {
        let mut buf = std::mem::take(&mut self.route_buf);
        debug_assert!(buf.is_empty());
        self.medium
            .route(self.now, &mut self.rng, from, dest, msg, &mut buf);
        for Delivery { at, to, msg } in buf.drain(..) {
            debug_assert!(at >= self.now);
            self.queue.push(at, WorldEvent::Deliver { from, to, msg });
        }
        self.route_buf = buf;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::medium::PerfectMedium;
    use lease_clock::Dur;

    /// Echoes every message back and counts what it saw.
    struct Echo {
        seen: u32,
    }
    impl Actor<u32> for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, from: ActorId, msg: u32) {
            self.seen += 1;
            if msg > 0 {
                ctx.send(from, msg - 1);
            }
        }
    }

    struct Kickoff {
        peer: ActorId,
        n: u32,
        seen: u32,
    }
    impl Actor<u32> for Kickoff {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            ctx.send(self.peer, self.n);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, from: ActorId, msg: u32) {
            self.seen += 1;
            if msg > 0 {
                ctx.send(from, msg - 1);
            } else {
                ctx.stop();
            }
        }
    }

    #[test]
    fn ping_pong_until_stop() {
        let mut w = World::new(1, PerfectMedium);
        let echo = w.add_actor(Echo { seen: 0 });
        let _k = w.add_actor(Kickoff {
            peer: echo,
            n: 9,
            seen: 0,
        });
        w.run(10_000);
        let echo_ref: &Echo = w.actor(echo).unwrap();
        assert_eq!(echo_ref.seen, 5);
    }

    struct TimerUser {
        fired: Vec<u64>,
        cancelled: Option<TimerId>,
    }
    impl Actor<()> for TimerUser {
        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            ctx.set_timer_in(Dur::from_secs(1), 1);
            let t = ctx.set_timer_in(Dur::from_secs(2), 2);
            ctx.set_timer_in(Dur::from_secs(3), 3);
            self.cancelled = Some(t);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: ActorId, _: ()) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, _t: TimerId, key: u64) {
            self.fired.push(key);
            if key == 1 {
                ctx.cancel_timer(self.cancelled.unwrap());
            }
        }
    }

    #[test]
    fn timers_fire_and_cancel() {
        let mut w = World::new(1, PerfectMedium);
        let id = w.add_actor(TimerUser {
            fired: vec![],
            cancelled: None,
        });
        w.run_until(Time::from_secs(10));
        let a: &TimerUser = w.actor(id).unwrap();
        assert_eq!(a.fired, vec![1, 3]);
        assert_eq!(w.now(), Time::from_secs(10));
    }

    struct Crashable {
        timers_fired: u32,
        crashes: u32,
        recoveries: u32,
    }
    impl Actor<()> for Crashable {
        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            for i in 1..=5 {
                ctx.set_timer_in(Dur::from_secs(i), i);
            }
        }
        fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: ActorId, _: ()) {}
        fn on_timer(&mut self, _: &mut Ctx<'_, ()>, _: TimerId, _: u64) {
            self.timers_fired += 1;
        }
        fn on_crash(&mut self) {
            self.crashes += 1;
        }
        fn on_recover(&mut self, ctx: &mut Ctx<'_, ()>) {
            self.recoveries += 1;
            ctx.set_timer_in(Dur::from_secs(1), 99);
        }
    }

    #[test]
    fn crash_kills_pending_timers_and_recover_restarts() {
        let mut w = World::new(1, PerfectMedium);
        let id = w.add_actor(Crashable {
            timers_fired: 0,
            crashes: 0,
            recoveries: 0,
        });
        // Crash at 2.5 s: timers at 1 s and 2 s fire, 3/4/5 s die.
        w.schedule_crash(Time::from_millis(2500), id);
        w.schedule_recover(Time::from_secs(4), id);
        w.run_until(Time::from_secs(20));
        let a: &Crashable = w.actor(id).unwrap();
        assert_eq!(a.crashes, 1);
        assert_eq!(a.recoveries, 1);
        // 2 before the crash + 1 set by on_recover.
        assert_eq!(a.timers_fired, 3);
    }

    struct Sender {
        to: ActorId,
    }
    impl Actor<u32> for Sender {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            ctx.send(self.to, 42);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, u32>, _: ActorId, _: u32) {}
    }

    #[test]
    fn messages_to_crashed_actor_are_dropped() {
        let mut w = World::new(1, PerfectMedium);
        let echo = w.add_actor(Echo { seen: 0 });
        w.schedule_crash(Time::ZERO, echo);
        let _s = w.add_actor(Sender { to: echo });
        w.run(1000);
        assert_eq!(w.actor::<Echo>(echo).unwrap().seen, 0);
        assert_eq!(w.metrics().counter("sim.dropped_to_crashed"), 1);
    }

    #[test]
    fn determinism_same_seed_same_event_count() {
        let run = |seed| {
            let mut w = World::new(seed, PerfectMedium);
            let echo = w.add_actor(Echo { seen: 0 });
            let _k = w.add_actor(Kickoff {
                peer: echo,
                n: 100,
                seen: 0,
            });
            w.run(100_000);
            w.events_processed()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn downcast_wrong_type_is_none() {
        let mut w = World::new(1, PerfectMedium);
        let echo = w.add_actor(Echo { seen: 0 });
        assert!(w.actor::<Kickoff>(echo).is_none());
        assert!(w.actor::<Echo>(ActorId(99)).is_none());
    }

    #[test]
    fn run_until_does_not_consume_later_events() {
        let mut w = World::new(1, PerfectMedium);
        let id = w.add_actor(TimerUser {
            fired: vec![],
            cancelled: None,
        });
        w.run_until(Time::from_millis(1500));
        assert_eq!(w.actor::<TimerUser>(id).unwrap().fired, vec![1]);
        w.run_until(Time::from_secs(10));
        assert_eq!(w.actor::<TimerUser>(id).unwrap().fired, vec![1, 3]);
    }
}
