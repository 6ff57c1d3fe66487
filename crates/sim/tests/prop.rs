//! Property tests for the simulation kernel.

use lease_clock::{Dur, Time};
use lease_sim::{Actor, ActorId, Ctx, EventQueue, PerfectMedium, SimRng, World};
use proptest::prelude::*;

proptest! {
    /// The event queue pops in non-decreasing time order, FIFO on ties.
    #[test]
    fn queue_pops_sorted_fifo(times in proptest::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.push(Time(*t), i);
        }
        let mut last: Option<(Time, usize)> = None;
        while let Some((at, seq)) = q.pop() {
            if let Some((lat, lseq)) = last {
                prop_assert!(at >= lat);
                if at == lat {
                    prop_assert!(seq > lseq, "ties must pop FIFO");
                }
            }
            last = Some((at, seq));
        }
    }

    /// The queue is observationally equivalent to the obvious model — a
    /// `Vec` of `(at, push seq, value)` scanned for its `(at, seq)`-least
    /// entry — under arbitrary push/pop/cancel/peek interleavings, including
    /// same-instant FIFO tie-breaks, nanosecond-apart instants, and
    /// end-of-time deadlines (the determinism contract documented in
    /// `event.rs`).
    #[test]
    fn queue_matches_sorted_model(
        ops in proptest::collection::vec((0u8..8, any::<u64>()), 1..400),
    ) {
        /// Removes and returns the model's `(at, seq)`-least entry.
        fn pop_min(model: &mut Vec<(Time, u64, u64)>) -> Option<(Time, u64)> {
            let i = (0..model.len()).min_by_key(|&i| (model[i].0, model[i].1))?;
            let (at, _, v) = model.remove(i);
            Some((at, v))
        }
        let mut q = EventQueue::new();
        let mut model: Vec<(Time, u64, u64)> = Vec::new();
        let mut handles = Vec::new();
        for (op, x) in ops {
            match op {
                // Pushes dominate so the drain below has work to compare.
                0..=3 => {
                    // A mix of dense ties, microsecond-aligned, scattered,
                    // and end-of-time instants.
                    let at = match x % 4 {
                        0 => Time(x % 100),
                        1 => Time((x % 50) * 1_000),
                        2 => Time(x % 10_000_000),
                        _ => Time(u64::MAX - (x % 1000)),
                    };
                    // A handle's index is its event's push sequence number.
                    model.push((at, handles.len() as u64, x));
                    handles.push(q.push(at, x));
                }
                4 | 5 => prop_assert_eq!(q.pop(), pop_min(&mut model)),
                6 => {
                    if !handles.is_empty() {
                        // May name an already-popped or already-cancelled
                        // event: a no-op on both sides.
                        let i = (x as usize) % handles.len();
                        q.cancel(handles[i]);
                        model.retain(|e| e.1 != i as u64);
                    }
                }
                _ => prop_assert_eq!(q.peek_time(), model.iter().map(|e| e.0).min()),
            }
        }
        loop {
            let (a, b) = (q.pop(), pop_min(&mut model));
            prop_assert_eq!(&a, &b, "drain order must match");
            if a.is_none() {
                break;
            }
        }
        prop_assert!(q.is_empty());
    }

    /// Forked RNG streams are independent of sibling draw order.
    #[test]
    fn rng_fork_streams_stable(seed in any::<u64>(), labels in proptest::collection::vec(0u64..64, 1..10)) {
        let root = SimRng::seed(seed);
        // Draw from children in listed order...
        let first: Vec<u64> = labels.iter().map(|l| root.fork(*l).next_u64()).collect();
        // ...and again in reverse order: same per-label values.
        let mut second: Vec<u64> =
            labels.iter().rev().map(|l| root.fork(*l).next_u64()).collect();
        second.reverse();
        prop_assert_eq!(first, second);
    }

    /// chance(p) frequency tracks p.
    #[test]
    fn chance_tracks_probability(seed in any::<u64>(), p in 0.0f64..1.0) {
        let mut rng = SimRng::seed(seed);
        let n = 4000;
        let hits = (0..n).filter(|_| rng.chance(p)).count() as f64 / n as f64;
        prop_assert!((hits - p).abs() < 0.05, "p={p} measured={hits}");
    }
}

/// An actor ring that passes a token `hops` times.
struct Ring {
    next: ActorId,
    seen: u64,
}

impl Actor<u64> for Ring {
    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, _from: ActorId, hops: u64) {
        self.seen += 1;
        if hops > 0 {
            ctx.send(self.next, hops - 1);
        } else {
            ctx.stop();
        }
    }
}

struct Kick {
    to: ActorId,
    hops: u64,
}
impl Actor<u64> for Kick {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.send(self.to, self.hops);
    }
    fn on_message(&mut self, _: &mut Ctx<'_, u64>, _: ActorId, _: u64) {}
}

proptest! {
    /// Rings of any size conserve the token: total receives = hops + 1.
    #[test]
    fn ring_conserves_messages(n in 1usize..8, hops in 0u64..200, seed in any::<u64>()) {
        let mut w = World::new(seed, PerfectMedium);
        let ring_ids: Vec<ActorId> = (0..n).map(ActorId).collect();
        for i in 0..n {
            w.add_actor(Ring { next: ring_ids[(i + 1) % n], seen: 0 });
        }
        let kick = Kick { to: ring_ids[0], hops };
        w.add_actor(kick);
        w.run(10_000_000);
        let total: u64 = (0..n).map(|i| w.actor::<Ring>(ActorId(i)).unwrap().seen).sum();
        prop_assert_eq!(total, hops + 1);
    }

    /// Timers fire in order regardless of insertion order.
    #[test]
    fn timers_fire_in_order(delays in proptest::collection::vec(1u64..10_000, 1..40)) {
        struct T {
            delays: Vec<u64>,
            fired: Vec<u64>,
        }
        impl Actor<()> for T {
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                for d in &self.delays {
                    ctx.set_timer_in(Dur::from_micros(*d), *d);
                }
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: ActorId, _: ()) {}
            fn on_timer(&mut self, _: &mut Ctx<'_, ()>, _: lease_sim::TimerId, key: u64) {
                self.fired.push(key);
            }
        }
        let mut w = World::new(0, PerfectMedium);
        let id = w.add_actor(T { delays: delays.clone(), fired: vec![] });
        w.run(1_000_000);
        let fired = &w.actor::<T>(id).unwrap().fired;
        let mut expected = delays;
        expected.sort_unstable();
        // Equal delays keep insertion order; sorting both is enough here.
        let mut got = fired.clone();
        got.sort_unstable();
        prop_assert_eq!(&got, &expected);
        // And the firing sequence itself is non-decreasing.
        prop_assert!(fired.windows(2).all(|w| w[0] <= w[1]));
    }
}
