//! Actors and the context they run in.

use std::any::Any;

use lease_clock::{Dur, Time};

use crate::rng::SimRng;

/// Identifies an actor within a [`World`](crate::World).
///
/// Ids are assigned densely in registration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(pub usize);

/// Identifies a pending timer; returned by [`Ctx::set_timer_at`] and
/// accepted by [`Ctx::cancel_timer`]: a slot of the world's timer slab and
/// the slot's generation when the timer was set. The timer's firing or
/// cancellation moves the generation on, so an id that outlived its timer
/// cancels nothing, even once the slot holds a newer timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(u32, u64);

/// The world's timer slab: each slot's generation, and the free slots. A
/// slot is held from [`Ctx::set_timer_at`] until its timer fires or is
/// cancelled, so the slab grows to the most timers pending at once.
#[derive(Debug, Default)]
pub(crate) struct Timers {
    gens: Vec<u64>,
    free: Vec<u32>,
}

impl Timers {
    /// Frees `id`'s slot if `id` is still pending; returns whether it was.
    pub(crate) fn release(&mut self, TimerId(slot, gen): TimerId) -> bool {
        let pending = self.gens[slot as usize] == gen;
        if pending {
            self.gens[slot as usize] += 1;
            self.free.push(slot);
        }
        pending
    }

    /// Slots ever allocated: the high-water mark of pending timers.
    #[cfg(test)]
    pub(crate) fn slots(&self) -> usize {
        self.gens.len()
    }
}

/// A simulated process: receives messages and timer callbacks.
///
/// All side effects flow through the [`Ctx`]; actors must not hold clocks or
/// randomness of their own, or determinism is lost.
pub trait Actor<M>: Any {
    /// Called once when the world starts (or when the actor is added to a
    /// running world).
    fn on_start(&mut self, _ctx: &mut Ctx<'_, M>) {}

    /// Called for each delivered message.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: ActorId, msg: M);

    /// Called when a timer set through the context fires. `key` is the
    /// caller-chosen discriminator passed at [`Ctx::set_timer_at`].
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, M>, _timer: TimerId, _key: u64) {}

    /// Called when the harness crashes this actor at true time `at`.
    /// Volatile state should be discarded here; anything modelling durable
    /// storage may be kept.
    fn on_crash(&mut self, _at: Time) {}

    /// Called when the harness restarts this actor after a crash.
    fn on_recover(&mut self, _ctx: &mut Ctx<'_, M>) {}
}

/// A side effect requested by an actor, applied by the world after the
/// handler returns.
#[derive(Debug)]
pub(crate) enum Cmd<M> {
    Send { to: ActorId, msg: M },
    Multicast { to: Vec<ActorId>, msg: M },
    SetTimer { id: TimerId, at: Time, key: u64 },
    Stop,
}

/// The capabilities handed to an actor while it runs.
///
/// Sends and timers are buffered and applied by the world after the handler
/// returns, in order, so an actor observes deterministic behaviour even when
/// it sends to itself.
pub struct Ctx<'a, M> {
    pub(crate) now: Time,
    pub(crate) me: ActorId,
    pub(crate) timers: &'a mut Timers,
    pub(crate) cmds: Vec<Cmd<M>>,
    pub(crate) rng: &'a mut SimRng,
}

impl<'a, M> Ctx<'a, M> {
    /// The current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// This actor's id.
    pub fn me(&self) -> ActorId {
        self.me
    }

    /// Sends `msg` to another actor through the network medium.
    pub fn send(&mut self, to: ActorId, msg: M) {
        self.cmds.push(Cmd::Send { to, msg });
    }

    /// Multicasts `msg` to a set of actors: the medium charges one send and
    /// per-recipient deliveries, matching the paper's V multicast model.
    pub fn multicast(&mut self, to: Vec<ActorId>, msg: M) {
        self.cmds.push(Cmd::Multicast { to, msg });
    }

    /// Schedules a timer to fire at absolute time `at` with a
    /// caller-chosen `key`; returns its id for cancellation.
    ///
    /// Timers set in the past fire at the current instant (after the
    /// current handler completes).
    pub fn set_timer_at(&mut self, at: Time, key: u64) -> TimerId {
        let t = &mut *self.timers;
        let slot = t.free.pop().unwrap_or_else(|| {
            t.gens.push(0);
            (t.gens.len() - 1) as u32
        });
        let id = TimerId(slot, t.gens[slot as usize]);
        self.cmds.push(Cmd::SetTimer {
            id,
            at: at.max(self.now),
            key,
        });
        id
    }

    /// Schedules a timer `d` from now.
    pub fn set_timer_in(&mut self, d: Dur, key: u64) -> TimerId {
        self.set_timer_at(self.now + d, key)
    }

    /// Cancels a pending timer: it will not fire. Cancelling a timer that
    /// already fired or was already cancelled is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.timers.release(id);
    }

    /// Stops the world after this handler returns.
    pub fn stop(&mut self) {
        self.cmds.push(Cmd::Stop);
    }

    /// The world's deterministic randomness.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }
}
