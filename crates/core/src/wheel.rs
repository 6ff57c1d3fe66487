//! A hierarchical timer wheel (Varghese & Lauck style).
//!
//! The seed runtime kept server timers in a binary heap and found lease
//! expirations by scanning the table index. The wheel replaces both:
//! scheduling and firing are O(1) amortized per timer regardless of how
//! many are pending, which is what lets a shard worker carry millions of
//! leases without its expiry path growing with table size.
//!
//! The wheel started life in `lease-svc`; it now lives in dep-free
//! `lease-core` (re-exported by svc) because the slab lease table
//! ([`crate::table::SlabTable`]) delegates its expiry ordering to it
//! instead of keeping a `BTreeSet` index.
//!
//! Semantics:
//!
//! * Timers never fire early. An entry scheduled at `at` is placed on the
//!   tick boundary at or after `at` (round up) and [`TimerWheel::advance`]
//!   only releases ticks fully covered by `now` (round down), so an entry
//!   fires at most one tick late and never before `at` — firing a write
//!   deadline before the blocking lease expired would break the protocol.
//! * `advance` returns the due batch sorted by `(at, key)`, so timers with
//!   distinct deadlines fire in deadline order and ties break by key —
//!   exactly the order a naive scan of an expiry-ordered index produces
//!   (the property test in `lease-svc/tests/wheel_prop.rs` pins this
//!   down).
//! * The wheel does not cancel; callers cancel lazily, when an entry
//!   fires. A caller whose deadlines only move *later* keeps one entry
//!   per object and never re-schedules on extension: the fired entry is
//!   checked against the object's current deadline and put back if that
//!   has not passed (the lazy-timer rule — the slab table, one entry per
//!   lease however often it is renewed). A caller whose deadlines move
//!   either way re-schedules and keeps a `key -> latest deadline` map,
//!   dropping fired entries that no longer match (the shard's `Prune` and
//!   `InstalledTick` keys), at the price of one entry per re-schedule.
//!
//! Steady-state behaviour: redistribution buffers are recycled between
//! cascades and [`TimerWheel::advance_into`] reuses a caller-owned output
//! vector, so a warmed wheel schedules and fires without touching the
//! allocator; empty stretches of time are skipped level-by-level instead
//! of tick-by-tick, so advancing an idle wheel across hours costs a
//! handful of boundary hops.

use lease_clock::{Dur, Time};

/// Slots per level. With 4 levels the horizon is `64^4` ticks; anything
/// farther out parks in an overflow list and is re-examined on cascade.
const SLOTS: usize = 64;
/// Hierarchy depth.
const LEVELS: usize = 4;
/// log2(SLOTS), for slot arithmetic.
const SLOT_BITS: u32 = 6;

#[derive(Debug, Clone)]
struct Entry<K> {
    /// The requested deadline (not quantized; used for ordering).
    at: Time,
    /// Deadline rounded up to a tick count.
    tick: u64,
    /// Insertion order, the final tie-break.
    seq: u64,
    key: K,
}

/// A hierarchical timer wheel over keys of type `K`.
///
/// `K: Ord` only so the due batch can be deterministically ordered; the
/// wheel itself never compares keys.
#[derive(Debug, Clone)]
pub struct TimerWheel<K> {
    tick_ns: u64,
    /// The last tick fully covered by `advance`.
    now_tick: u64,
    /// `levels[l][s]`: entries due in slot `s` of level `l`. Level 0 slots
    /// span one tick, level `l` slots span `64^l` ticks.
    levels: Vec<Vec<Vec<Entry<K>>>>,
    /// Entries beyond the wheel horizon.
    overflow: Vec<Entry<K>>,
    /// Entries already due when scheduled (or cascaded onto `now_tick`).
    due: Vec<Entry<K>>,
    len: usize,
    /// Entries per level — lets `advance` skip whole empty blocks (a
    /// level-sized hop when only outer levels hold entries) instead of
    /// stepping tick by tick.
    lens: [usize; LEVELS],
    /// Per-level slot-occupancy bitmaps: bit `s` of `occ[l]` is set iff
    /// `levels[l][s]` is non-empty. `SLOTS == 64` makes a level exactly
    /// one machine word, so "first occupied slot past the current
    /// position" — the inner loop of both [`TimerWheel::next_deadline`]
    /// and the level-0 advance — is a rotate plus `trailing_zeros`
    /// instead of a 64-slot scan.
    occ: [u64; LEVELS],
    seq: u64,
    /// Fired-entry scratch reused across `advance_into` calls.
    fired: Vec<Entry<K>>,
    /// Redistribution scratch reused across cascades, so a warmed wheel
    /// cascades without allocating.
    spare: Vec<Entry<K>>,
}

impl<K: Ord> TimerWheel<K> {
    /// A wheel with the given tick quantum, started at `now`.
    ///
    /// Panics if `tick` is zero.
    pub fn new(tick: Dur, now: Time) -> TimerWheel<K> {
        assert!(tick.0 > 0, "timer wheel tick must be non-zero");
        TimerWheel {
            tick_ns: tick.0,
            now_tick: now.0 / tick.0,
            levels: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| Vec::new()).collect())
                .collect(),
            overflow: Vec::new(),
            due: Vec::new(),
            len: 0,
            lens: [0; LEVELS],
            occ: [0; LEVELS],
            seq: 0,
            fired: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// Pending entries (including already-due ones not yet collected).
    pub fn len(&self) -> usize {
        self.len
    }

    /// The tick an entry scheduled at `at` occupies (deadline rounded up
    /// to the tick boundary at or after it, the same quantization
    /// [`TimerWheel::schedule`] applies).
    fn tick_of(&self, at: Time) -> u64 {
        at.0.div_ceil(self.tick_ns)
    }

    /// Whether nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops every pending entry, keeping the wheel's position and the
    /// already-allocated slot buffers (a crash wipes a lease table without
    /// paying to rebuild its wheel).
    pub fn clear(&mut self) {
        for level in &mut self.levels {
            for slot in level {
                slot.clear();
            }
        }
        self.overflow.clear();
        self.due.clear();
        self.len = 0;
        self.lens = [0; LEVELS];
        self.occ = [0; LEVELS];
    }

    /// Schedules `key` to fire once `advance` is called with a time at or
    /// after `at`. Scheduling in the past fires on the next `advance`.
    pub fn schedule(&mut self, at: Time, key: K) {
        let tick = at.0.div_ceil(self.tick_ns);
        let e = Entry {
            at,
            tick,
            seq: self.seq,
            key,
        };
        self.seq += 1;
        self.len += 1;
        self.place(e);
    }

    fn place(&mut self, e: Entry<K>) {
        let delta = e.tick.saturating_sub(self.now_tick);
        if delta == 0 {
            self.due.push(e);
            return;
        }
        for l in 0..LEVELS {
            // Level `l` covers deadlines up to `64^(l+1)` ticks out.
            if delta < 1u64 << (SLOT_BITS * (l as u32 + 1)) {
                let slot = ((e.tick >> (SLOT_BITS * l as u32)) % SLOTS as u64) as usize;
                self.levels[l][slot].push(e);
                self.lens[l] += 1;
                self.occ[l] |= 1 << slot;
                return;
            }
        }
        self.overflow.push(e);
    }

    /// Collects every entry due at or before `now`, sorted by
    /// `(at, key, seq)`.
    pub fn advance(&mut self, now: Time) -> Vec<(Time, K)> {
        let mut out = Vec::new();
        self.advance_into(now, &mut out);
        out
    }

    /// Like [`TimerWheel::advance`], but appends into a caller-owned
    /// vector so steady-state callers (the slab table's prune path) fire
    /// timers without allocating.
    pub fn advance_into(&mut self, now: Time, out: &mut Vec<(Time, K)>) {
        self.advance_ticks_into(now.0 / self.tick_ns, out)
    }

    /// [`TimerWheel::advance_into`] in ticks: fires everything whose tick
    /// is at or before `target`.
    fn advance_ticks_into(&mut self, target: u64, out: &mut Vec<(Time, K)>) {
        debug_assert!(self.fired.is_empty());
        self.fired.append(&mut self.due);
        while self.now_tick < target {
            if self.len == self.fired.len() {
                // Nothing on the wheel: jump straight to the target.
                self.now_tick = target;
                break;
            }
            if self.lens[0] > 0 {
                // Jump straight to the next occupied level-0 slot, capped
                // at the wrap boundary (where a cascade may refill level
                // 0) and at the target; the slots in between are known
                // empty, so stepping through them would only burn checks.
                let cur = self.now_tick % SLOTS as u64;
                let jump = self
                    .first_occupied_off(0, cur)
                    .unwrap_or(u64::MAX)
                    .min(SLOTS as u64 - cur)
                    .min(target - self.now_tick);
                self.now_tick += jump;
                let s0 = (self.now_tick % SLOTS as u64) as usize;
                {
                    let TimerWheel {
                        levels,
                        fired,
                        lens,
                        occ,
                        ..
                    } = &mut *self;
                    let slot = &mut levels[0][s0];
                    lens[0] -= slot.len();
                    fired.append(slot);
                    occ[0] &= !(1 << s0);
                }
                if s0 == 0 {
                    self.cascade();
                }
                continue;
            }
            // Level 0 is empty: nothing can fire before the next boundary
            // of the innermost *occupied* level (or, with only overflow
            // pending, the next full wrap), so hop there directly.
            let shift = match (1..LEVELS).find(|&l| self.lens[l] > 0) {
                Some(l) => SLOT_BITS * l as u32,
                None => SLOT_BITS * LEVELS as u32,
            };
            let step = 1u64 << shift;
            let next_boundary = (self.now_tick - self.now_tick % step) + step;
            if next_boundary > target {
                self.now_tick = target;
                break;
            }
            self.now_tick = next_boundary;
            self.cascade();
        }
        self.len -= self.fired.len();
        // Unstable sort: `seq` is unique, so the key is a total order and
        // stability buys nothing — and sort_unstable never allocates,
        // which keeps the steady-state fire path allocation-free.
        self.fired
            .sort_unstable_by(|a, b| (a.at, &a.key, a.seq).cmp(&(b.at, &b.key, b.seq)));
        out.extend(self.fired.drain(..).map(|e| (e.at, e.key)));
    }

    /// Offset in `1..=SLOTS` from ring position `cur` of level `l` to its
    /// first occupied slot, or `None` when the level is empty. Ring order
    /// from the current position is tick order within level 0 and block
    /// order in higher levels.
    fn first_occupied_off(&self, l: usize, cur: u64) -> Option<u64> {
        if self.occ[l] == 0 {
            return None;
        }
        // Rotate so slot `cur + 1` lands at bit 0; the trailing zero
        // count is then the offset past 1.
        let rot = self.occ[l].rotate_right(((cur + 1) % SLOTS as u64) as u32);
        Some(1 + u64::from(rot.trailing_zeros()))
    }

    /// Redistributes the expiring slot of each higher level whose block
    /// boundary `now_tick` just crossed, innermost first. Entries landing
    /// on `now_tick` go to [`TimerWheel::fired`].
    fn cascade(&mut self) {
        for l in 1..LEVELS {
            let shift = SLOT_BITS * l as u32;
            if !self.now_tick.is_multiple_of(1u64 << shift) {
                return;
            }
            let slot = ((self.now_tick >> shift) % SLOTS as u64) as usize;
            let mut block =
                std::mem::replace(&mut self.levels[l][slot], std::mem::take(&mut self.spare));
            self.lens[l] -= block.len();
            self.occ[l] &= !(1 << slot);
            for e in block.drain(..) {
                if e.tick <= self.now_tick {
                    self.fired.push(e);
                } else {
                    self.place(e);
                }
            }
            // Recycle the drained block's capacity for the next cascade.
            // (An entry can never re-place into the slot it came from: it
            // would need `delta >= 64^(l+1)`, past the level's span.)
            self.spare = block;
        }
        // Every level wrapped: overflow entries may now be in range.
        let mut over = std::mem::replace(&mut self.overflow, std::mem::take(&mut self.spare));
        for e in over.drain(..) {
            if e.tick <= self.now_tick {
                self.fired.push(e);
            } else {
                self.place(e);
            }
        }
        self.spare = over;
    }

    /// A lower bound on when the next entry fires: exact when every
    /// pending entry sits in the innermost level, otherwise capped at the
    /// first occupied block's cascade boundary (the caller wakes, the
    /// block cascades inward, and the caller asks again). `None` when
    /// nothing is pending.
    ///
    /// The cap applies even when level 0 is non-empty: an entry parked in
    /// an outer level (placed when it was still far out) can come due
    /// *before* a level-0 entry that lies beyond the next wrap, so the
    /// level-0 minimum alone would be too late a wake-up. Bounding at the
    /// first *occupied* block (rather than the next level-0 wrap) is what
    /// lets a wake/re-ask loop cross an idle stretch in block-sized
    /// strides.
    pub fn next_deadline(&self) -> Option<Time> {
        if let Some(min) = self.due.iter().map(|e| e.at).min() {
            return Some(min);
        }
        if self.len == 0 {
            return None;
        }
        // Level-0 slots in ring order are tick order, so the first
        // non-empty slot holds the level-0 minimum.
        let l0_min = self
            .first_occupied_off(0, self.now_tick % SLOTS as u64)
            .and_then(|off| {
                let slot = ((self.now_tick + off) % SLOTS as u64) as usize;
                self.levels[0][slot].iter().map(|e| e.at).min()
            });
        // A level-`l` entry cannot fire before the start of the block
        // holding it (its tick is inside that block, and the block only
        // cascades inward when `advance` crosses the block's start). The
        // slots of a level in ring order from the current position are
        // block order, so the first occupied slot gives the earliest
        // cascade boundary; advancing to exactly that boundary performs
        // the cascade, so the wake/re-ask loop always makes progress.
        let mut bound = u64::MAX;
        for l in 1..LEVELS {
            let shift = SLOT_BITS * l as u32;
            let step = 1u64 << shift;
            let cur = (self.now_tick >> shift) % SLOTS as u64;
            if let Some(off) = self.first_occupied_off(l, cur) {
                let base = self.now_tick - self.now_tick % step;
                bound = bound.min(base + off * step);
            }
        }
        if !self.overflow.is_empty() {
            // Overflow is re-examined when every level wraps at once.
            let step = 1u64 << (SLOT_BITS * LEVELS as u32);
            bound = bound.min(self.now_tick - self.now_tick % step + step);
        }
        let bound_t = Time(bound.saturating_mul(self.tick_ns));
        Some(l0_min.map_or(bound_t, |m| m.min(bound_t)))
    }

    /// The earliest `now` at which [`TimerWheel::advance`] can release
    /// anything: [`TimerWheel::next_deadline`] rounded up to its tick
    /// boundary. This, not the bare deadline, is what a thread should
    /// sleep until — woken at the deadline it is one partial tick short,
    /// finds nothing due, re-asks, gets the same (now past) deadline and
    /// spins until the boundary.
    pub fn next_fire(&self) -> Option<Time> {
        self.next_deadline()
            .map(|at| Time(self.tick_of(at).saturating_mul(self.tick_ns)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wheel() -> TimerWheel<u32> {
        TimerWheel::new(Dur(1000), Time::ZERO)
    }

    #[test]
    fn fires_in_deadline_order_never_early() {
        let mut w = wheel();
        w.schedule(Time(5500), 1);
        w.schedule(Time(2500), 2);
        w.schedule(Time(2500), 0);
        assert!(w.advance(Time(2499)).is_empty());
        // 2500 rounds up to tick 3: not due until now covers tick 3.
        assert!(w.advance(Time(2999)).is_empty());
        assert_eq!(
            w.advance(Time(3000)),
            vec![(Time(2500), 0), (Time(2500), 2)]
        );
        assert_eq!(w.advance(Time(10_000)), vec![(Time(5500), 1)]);
        assert!(w.is_empty());
    }

    #[test]
    fn past_deadlines_fire_immediately() {
        let mut w = wheel();
        let _ = w.advance(Time(50_000));
        w.schedule(Time(10), 9);
        assert_eq!(w.advance(Time(50_000)), vec![(Time(10), 9)]);
    }

    #[test]
    fn cascades_across_levels_and_overflow() {
        let mut w = wheel();
        // One entry per level, plus one past the horizon.
        let deadlines = [
            Time(63 * 1000),                  // level 0
            Time(300 * 1000),                 // level 1
            Time(5000 * 1000),                // level 2
            Time(300_000 * 1000),             // level 3
            Time(64u64.pow(4) * 1000 + 1000), // overflow
        ];
        for (i, at) in deadlines.iter().enumerate() {
            w.schedule(*at, i as u32);
        }
        let mut fired = Vec::new();
        let mut now = Time::ZERO;
        while !w.is_empty() {
            now = w.next_deadline().expect("pending");
            fired.extend(w.advance(now));
        }
        assert_eq!(
            fired,
            deadlines
                .iter()
                .copied()
                .enumerate()
                .map(|(i, at)| (at, i as u32))
                .collect::<Vec<_>>()
        );
        assert!(now >= deadlines[4]);
    }

    #[test]
    fn next_deadline_is_a_usable_wakeup_bound() {
        let mut w = wheel();
        assert_eq!(w.next_deadline(), None);
        w.schedule(Time(7300), 1);
        // Exact when the entry sits in level 0.
        assert_eq!(w.next_deadline(), Some(Time(7300)));
        w.schedule(Time(1_000_000), 2);
        let _ = w.advance(Time(8000));
        // Far entry: bound is the next wrap, never past the deadline.
        let d = w.next_deadline().unwrap();
        assert!(d <= Time(1_000_000));
    }

    #[test]
    fn next_fire_is_the_instant_the_next_entry_can_be_released() {
        let mut w = wheel();
        assert_eq!(w.next_fire(), None);
        w.schedule(Time(7300), 1);
        // Sleeping until the deadline itself wakes a partial tick early...
        assert!(w.advance(w.next_deadline().unwrap()).is_empty());
        assert_eq!(w.next_deadline(), Some(Time(7300))); // ...and re-asks in vain.
        assert_eq!(w.next_fire(), Some(Time(8000)));
        assert_eq!(w.advance(Time(8000)), vec![(Time(7300), 1)]);
        // An overdue entry can go at once.
        w.schedule(Time(10), 2);
        assert!(w.next_fire().unwrap() <= Time(8000));
    }

    #[test]
    fn next_deadline_caps_at_wrap_when_outer_levels_hold_earlier_entries() {
        // A level-1 entry can come due before a level-0 entry when the
        // level-0 one lies beyond the next wrap: the bound must not skip
        // past the cascade boundary to the (later) level-0 deadline.
        let mut w = TimerWheel::new(Dur(1), Time::ZERO);
        assert!(w.advance(Time(874)).is_empty());
        // 1051 is 177 ticks out: parked in level 1 (block [1024, 1088)).
        w.schedule(Time(1051), 1);
        // Stop mid-block, before the 1024 cascade boundary.
        assert!(w.advance(Time(1018)).is_empty());
        // 1067 is 49 ticks out: level 0, but past the wrap at 1024.
        w.schedule(Time(1067), 2);
        let d = w.next_deadline().expect("two entries pending");
        assert!(d <= Time(1051), "bound {d:?} is past the level-1 deadline");
        // Waking at the bound and re-asking converges on both, in order.
        let mut fired = Vec::new();
        while !w.is_empty() {
            let now = w.next_deadline().expect("pending");
            fired.extend(w.advance(now));
        }
        assert_eq!(fired, vec![(Time(1051), 1), (Time(1067), 2)]);
    }

    #[test]
    fn many_random_timers_fire_exactly_once_in_order() {
        // Cheap LCG so the test is deterministic without dev-deps.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut w = wheel();
        let mut expect = Vec::new();
        for i in 0..5000u32 {
            let at = Time(next() % 2_000_000);
            w.schedule(at, i);
            expect.push((at, i));
        }
        let mut fired = Vec::new();
        let mut now = 0u64;
        while !w.is_empty() {
            now += 1 + next() % 100_000;
            fired.extend(w.advance(Time(now)));
        }
        expect.sort();
        assert_eq!(fired.len(), expect.len());
        assert_eq!(fired, expect);
    }

    #[test]
    fn sparse_far_future_advance_hops_not_steps() {
        // One entry a virtual hour out: advancing to it must terminate
        // promptly (level hops, not 3.6M tick steps) and still fire.
        let mut w = wheel();
        let hour = Time(3_600_000_000_000);
        w.schedule(hour, 7);
        assert!(w.advance(Time(hour.0 - 1)).is_empty());
        assert_eq!(w.advance(hour), vec![(hour, 7)]);
        assert!(w.is_empty());
    }

    #[test]
    fn clear_keeps_position_and_drops_entries() {
        let mut w = wheel();
        w.schedule(Time(5_000), 1);
        let _ = w.advance(Time(2_000));
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.next_deadline(), None);
        // Position survived: an old deadline is still "past".
        w.schedule(Time(1_000), 2);
        assert_eq!(w.advance(Time(2_000)), vec![(Time(1_000), 2)]);
    }

    #[test]
    fn advance_into_reuses_buffers() {
        let mut w = wheel();
        let mut out = Vec::new();
        for round in 0..10u64 {
            for i in 0..100u32 {
                w.schedule(Time((round + 1) * 100_000 + u64::from(i) * 500), i);
            }
            out.clear();
            w.advance_into(Time((round + 2) * 100_000), &mut out);
            assert_eq!(out.len(), 100);
        }
        assert!(w.is_empty());
    }
}
