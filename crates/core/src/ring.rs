//! Bounded single-producer/single-consumer rings and the doorbell wake
//! protocol for thread-per-core ingress and egress.
//!
//! The sharded service used to funnel every producer through one shared
//! MPSC channel per shard: each send took the channel mutex and (when the
//! worker was parked) a condvar signal — a futex wakeup per operation.
//! On the hot path that lock is pure overhead: the routing layer already
//! knows which shard a message is for, and each client thread is a single
//! producer. This module replaces the shared channel with one bounded
//! SPSC ring **per (producer, shard) pair**:
//!
//! * [`spsc`] — a lock-free bounded ring. Head and tail live on separate
//!   cache lines; the producer batches writes and publishes them with one
//!   `Release` store of the tail, the consumer drains a run and retires
//!   it with one `Release` store of the head. No lock, no syscall, no
//!   allocation after construction.
//! * [`Doorbell`] — an eventcount. The consumer takes a [`Doorbell::ticket`],
//!   polls its rings, and only then parks in [`Doorbell::wait`]; a
//!   producer publishes and then [`Doorbell::ring`]s. The `SeqCst`
//!   seq/sleepers handshake guarantees a publish after the consumer's
//!   last poll either flips the ticket (the wait returns immediately) or
//!   finds the sleeper registered (the notify reaches it) — a wakeup is
//!   never lost, and ringing with no sleeper is two uncontended atomic
//!   ops, not a futex call.
//!
//! Ends are [`Send`] but deliberately `!Sync` (they cache their peer's
//! position in [`Cell`]s): the type system enforces single-producer /
//! single-consumer, which is exactly the per-producer-handle discipline
//! the service's ingress wants.
//!
//! Because an end is owned by one thread, a consumer fed by *many*
//! producers needs a hand-off point where each producer's freshly made
//! lane can be deposited for the consumer to pick up. [`Inbox`] is that
//! point — one doorbell plus a mutex-guarded registry of consumer ends
//! awaiting adoption (the mutex is touched only at registration, never
//! per message) — and [`Lanes`] is the consumer-side set of adopted
//! lanes with the round-robin drain both the shard workers and the
//! egress clients use.
//!
//! # Examples
//!
//! ```
//! use lease_core::ring::spsc;
//!
//! let (tx, rx) = spsc::<u32>(8);
//! let mut batch = vec![1, 2, 3];
//! assert_eq!(tx.push_from(&mut batch), 3); // one Release publish
//! let mut out = Vec::new();
//! assert_eq!(rx.drain_into(&mut out, 16), 3); // one Release retire
//! assert_eq!(out, [1, 2, 3]);
//! ```

use std::cell::{Cell, UnsafeCell};
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Pads (and aligns) a value to a cache line so the producer's tail and
/// the consumer's head never share one — a store to either would
/// otherwise ping-pong the line between cores on every publish.
#[repr(align(64))]
struct CachePadded<T>(T);

/// The shared ring state. Positions are monotonically increasing
/// counters; the slot for position `p` is `buf[p & mask]`. `tail` is
/// written only by the producer, `head` only by the consumer.
struct Shared<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    head: CachePadded<AtomicUsize>,
    tail: CachePadded<AtomicUsize>,
    producer_alive: AtomicBool,
    consumer_alive: AtomicBool,
}

// SAFETY: the SPSC discipline (enforced by Producer/Consumer being the
// only accessors and each being !Sync) means every slot is written by
// exactly one thread before the Release tail store and read by exactly
// one thread after the Acquire tail load — the usual message-passing
// pairing. T itself only ever moves between threads, so `T: Send`
// suffices.
unsafe impl<T: Send> Send for Shared<T> {}
unsafe impl<T: Send> Sync for Shared<T> {}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        // Both ends are gone (this is the last Arc), so plain loads are
        // fine: drop whatever was published but never drained.
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Relaxed);
        for p in head..tail {
            // SAFETY: positions head..tail hold initialized values the
            // consumer never read; we have exclusive access in Drop.
            unsafe { (*self.buf[p & self.mask].get()).assume_init_drop() };
        }
    }
}

/// The sending half of an [`spsc`] ring. `Send` but `!Sync`: exactly one
/// thread may produce.
pub struct Producer<T> {
    ring: Arc<Shared<T>>,
    /// Producer-private tail mirror: lets a batch write its slots with
    /// plain stores and publish them with a single `Release` store.
    tail: Cell<usize>,
    /// Cached consumer head; refreshed (one `Acquire` load) only when
    /// the ring looks full against the stale value.
    head: Cell<usize>,
}

/// The receiving half of an [`spsc`] ring. `Send` but `!Sync`: exactly
/// one thread may consume.
pub struct Consumer<T> {
    ring: Arc<Shared<T>>,
    /// Consumer-private head mirror.
    head: Cell<usize>,
    /// Cached producer tail; refreshed only when the ring looks empty.
    tail: Cell<usize>,
}

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The ring is full; the value is handed back.
    Full(T),
    /// The consumer is gone; the value is handed back.
    Closed(T),
}

/// Creates a bounded SPSC ring with at least `capacity` slots (rounded
/// up to a power of two, minimum 2).
pub fn spsc<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let cap = capacity.max(2).next_power_of_two();
    let buf = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let ring = Arc::new(Shared {
        buf,
        mask: cap - 1,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
        producer_alive: AtomicBool::new(true),
        consumer_alive: AtomicBool::new(true),
    });
    (
        Producer {
            ring: Arc::clone(&ring),
            tail: Cell::new(0),
            head: Cell::new(0),
        },
        Consumer {
            ring,
            head: Cell::new(0),
            tail: Cell::new(0),
        },
    )
}

impl<T> Producer<T> {
    /// Number of slots (a power of two).
    pub fn capacity(&self) -> usize {
        self.ring.mask + 1
    }

    /// True once the consumer end has been dropped.
    pub fn is_closed(&self) -> bool {
        !self.ring.consumer_alive.load(Ordering::Acquire)
    }

    /// Occupied slots (refreshes the cached head — one `Acquire` load;
    /// the publish fast path uses `free`, which refreshes
    /// only when the cached view looks too full).
    pub fn len(&self) -> usize {
        self.head.set(self.ring.head.0.load(Ordering::Acquire));
        self.tail.get().wrapping_sub(self.head.get())
    }

    /// True when no published item is outstanding.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Free slots after refreshing the cached head if needed to show at
    /// least `want` of them.
    fn free(&self, want: usize) -> usize {
        let cap = self.capacity();
        let used = self.tail.get().wrapping_sub(self.head.get());
        if cap - used < want {
            self.head.set(self.ring.head.0.load(Ordering::Acquire));
        }
        cap - self.tail.get().wrapping_sub(self.head.get())
    }

    /// Pushes one value, publishing immediately.
    pub fn try_push(&self, v: T) -> Result<(), PushError<T>> {
        if self.is_closed() {
            return Err(PushError::Closed(v));
        }
        if self.free(1) == 0 {
            return Err(PushError::Full(v));
        }
        let tail = self.tail.get();
        // SAFETY: `free(1) > 0` means slot `tail` is past the consumer's
        // head, so no other access to it exists until we publish.
        unsafe { (*self.ring.buf[tail & self.ring.mask].get()).write(v) };
        let next = tail.wrapping_add(1);
        self.tail.set(next);
        self.ring.tail.0.store(next, Ordering::Release);
        Ok(())
    }

    /// Moves as many items as fit from the **front** of `items` into the
    /// ring (preserving order), publishing them with a single `Release`
    /// store. Returns how many were taken; `items` keeps the rest.
    /// Returns 0 without draining when the consumer is gone — check
    /// [`Producer::is_closed`] to tell that from a full ring.
    pub fn push_from(&self, items: &mut Vec<T>) -> usize {
        if items.is_empty() || self.is_closed() {
            return 0;
        }
        let n = self.free(items.len()).min(items.len());
        if n == 0 {
            return 0;
        }
        let tail = self.tail.get();
        for (i, v) in items.drain(..n).enumerate() {
            // SAFETY: slots tail..tail+n are free (free() >= n) and
            // unpublished until the single store below.
            unsafe { (*self.ring.buf[tail.wrapping_add(i) & self.ring.mask].get()).write(v) };
        }
        let next = tail.wrapping_add(n);
        self.tail.set(next);
        self.ring.tail.0.store(next, Ordering::Release);
        n
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        self.ring.producer_alive.store(false, Ordering::Release);
    }
}

impl<T> Consumer<T> {
    /// Occupied slots, from the consumer's view (refreshes the cached
    /// tail: one `Acquire` load, no lock).
    pub fn len(&self) -> usize {
        self.tail.set(self.ring.tail.0.load(Ordering::Acquire));
        self.tail.get().wrapping_sub(self.head.get())
    }

    /// True when nothing is queued (refreshes the cached tail).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True once the producer end is gone **and** everything it
    /// published has been drained.
    pub fn is_disconnected(&self) -> bool {
        // Order matters: check aliveness before emptiness, else a push
        // racing a producer drop could slip between the two loads.
        let alive = self.ring.producer_alive.load(Ordering::Acquire);
        !alive && self.is_empty()
    }

    /// Pops one value.
    pub fn try_pop(&self) -> Option<T> {
        let head = self.head.get();
        if self.tail.get() == head {
            self.tail.set(self.ring.tail.0.load(Ordering::Acquire));
            if self.tail.get() == head {
                return None;
            }
        }
        // SAFETY: head < tail, so the slot holds a published value the
        // producer will not touch until we advance the shared head.
        let v = unsafe { (*self.ring.buf[head & self.ring.mask].get()).assume_init_read() };
        let next = head.wrapping_add(1);
        self.head.set(next);
        self.ring.head.0.store(next, Ordering::Release);
        Some(v)
    }

    /// Drains up to `max` items into `out` (appending, preserving FIFO
    /// order) and retires them with a single `Release` store. Returns
    /// how many were moved.
    pub fn drain_into(&self, out: &mut Vec<T>, max: usize) -> usize {
        let head = self.head.get();
        if self.tail.get().wrapping_sub(head) < max {
            self.tail.set(self.ring.tail.0.load(Ordering::Acquire));
        }
        let n = self.tail.get().wrapping_sub(head).min(max);
        if n == 0 {
            return 0;
        }
        out.reserve(n);
        for i in 0..n {
            // SAFETY: positions head..head+n are published (<= tail) and
            // each is read exactly once before the head advances.
            let v = unsafe {
                (*self.ring.buf[head.wrapping_add(i) & self.ring.mask].get()).assume_init_read()
            };
            out.push(v);
        }
        let next = head.wrapping_add(n);
        self.head.set(next);
        self.ring.head.0.store(next, Ordering::Release);
        n
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        self.ring.consumer_alive.store(false, Ordering::Release);
    }
}

/// An eventcount: the park/wake half of the ring ingress.
///
/// The consumer side runs `let t = bell.ticket(); poll rings; if empty {
/// bell.wait(t, timeout); }`; every producer runs `publish;
/// bell.ring();`. The `SeqCst` ordering on `seq` and `sleepers` makes
/// the classic lost-wakeup interleaving impossible: if the producer's
/// `sleepers` load misses the registering consumer, then in the `SeqCst`
/// total order the consumer's registration came later, so its seq
/// re-check (still later) must see the bump and skips the sleep; if the
/// load sees it, the producer takes the mutex — and since the consumer
/// registers and re-checks *under* that mutex before waiting, the
/// notify cannot land in the gap.
#[derive(Default)]
pub struct Doorbell {
    seq: AtomicU64,
    sleepers: AtomicUsize,
    /// Rings that found a registered sleeper and issued a real (futex)
    /// notify — the expensive case the coalesced-egress design exists to
    /// avoid. Purely observational; see [`Doorbell::wakes`].
    wakes: AtomicU64,
    lock: Mutex<()>,
    cvar: Condvar,
}

impl Doorbell {
    /// A fresh doorbell.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot the event count. Take the ticket **before** the final
    /// poll of whatever state the wait is about.
    pub fn ticket(&self) -> u64 {
        self.seq.load(Ordering::SeqCst)
    }

    /// Announce an event (call **after** publishing it). Two uncontended
    /// atomics when nobody is parked; takes the mutex only to pin a
    /// registered sleeper down for the notify.
    pub fn ring(&self) {
        self.seq.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            self.wakes.fetch_add(1, Ordering::Relaxed);
            let _g = self.lock.lock().expect("doorbell mutex poisoned");
            self.cvar.notify_all();
        }
    }

    /// How many rings actually woke a sleeper (took the mutex + notified)
    /// rather than finding the consumer awake. `wakes / ops` is the
    /// wakes-per-operation figure the egress benchmarks record: a
    /// coalesced flush that lands while the consumer is draining or
    /// spinning costs two uncontended atomics and counts nothing here.
    pub fn wakes(&self) -> u64 {
        self.wakes.load(Ordering::Relaxed)
    }

    /// Park until the count moves past `ticket` or `timeout` elapses.
    /// Returns `true` when (probably) woken by a ring, `false` on a
    /// clean timeout; either way the caller re-polls, so a spurious
    /// `true` is harmless.
    pub fn wait(&self, ticket: u64, timeout: Duration) -> bool {
        let guard = self.lock.lock().expect("doorbell mutex poisoned");
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let woke = if self.seq.load(Ordering::SeqCst) != ticket {
            true
        } else {
            let (_guard, to) = self
                .cvar
                .wait_timeout(guard, timeout)
                .expect("doorbell mutex poisoned");
            !to.timed_out() || self.seq.load(Ordering::SeqCst) != ticket
        };
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        woke
    }
}

/// The many-producers side of a one-consumer mailbox built from SPSC
/// lanes: one [`Doorbell`] the consumer parks on, plus the hand-off
/// point where each producer deposits the consumer end of its freshly
/// made lane for the owning thread to adopt.
///
/// This is the registration/adoption pattern the sharded service's
/// ingress introduced (every `SvcHandle` clone attaches a fresh lane per
/// shard), hoisted here so the egress direction — every shard worker
/// attaches a fresh lane per *client* — reuses it instead of cloning it.
/// The mutex is taken once per lane registration and once per adoption
/// of a non-empty pending set; the per-message hot path never sees it
/// (the `has_pending` flag is a single `Acquire` load when quiet).
pub struct Inbox<T> {
    bell: Doorbell,
    /// Consumer ends registered by producers, awaiting adoption.
    pending: Mutex<Vec<Consumer<T>>>,
    /// Lock-free "pending is non-empty" flag, so the consumer's hot loop
    /// never touches the mutex when nothing registered.
    has_pending: AtomicBool,
    /// Set when the consumer is gone for good: late registrations are
    /// dropped on the spot so their producers observe `Closed` instead
    /// of publishing forever into a lane nobody will ever drain.
    closed: AtomicBool,
}

impl<T> Default for Inbox<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Inbox<T> {
    /// A fresh inbox with no lanes.
    pub fn new() -> Inbox<T> {
        Inbox {
            bell: Doorbell::new(),
            pending: Mutex::new(Vec::new()),
            has_pending: AtomicBool::new(false),
            closed: AtomicBool::new(false),
        }
    }

    /// The doorbell the consumer parks on. Producers ring it after
    /// publishing (to a lane or to any side channel whose traffic the
    /// consumer also polls).
    pub fn bell(&self) -> &Doorbell {
        &self.bell
    }

    /// Deposits a fresh lane's consumer end for the owner to adopt, and
    /// rings the bell so a parked owner picks it up promptly. If the
    /// inbox is already [closed](Inbox::close), the end is dropped here
    /// and the producer observes `Closed` on its next push.
    pub fn register(&self, rx: Consumer<T>) {
        {
            let mut p = self.pending.lock().expect("inbox mutex poisoned");
            if self.closed.load(Ordering::Relaxed) {
                return; // rx drops here; the producer sees Closed.
            }
            p.push(rx);
            self.has_pending.store(true, Ordering::Release);
        }
        self.bell.ring();
    }

    /// Moves every pending consumer into the owner's adopted set. One
    /// `Acquire` load when there is nothing pending — cheap enough for
    /// every poll of a spin loop.
    pub fn adopt_into(&self, lanes: &mut Vec<Consumer<T>>) {
        if self.has_pending.load(Ordering::Acquire)
            && self.has_pending.swap(false, Ordering::Acquire)
        {
            let mut p = self.pending.lock().expect("inbox mutex poisoned");
            lanes.append(&mut p);
        }
    }

    /// Marks the consumer gone and drops any not-yet-adopted ends, so
    /// their producers observe `Closed`.
    pub fn close(&self) {
        let mut p = self.pending.lock().expect("inbox mutex poisoned");
        self.closed.store(true, Ordering::Relaxed);
        p.clear();
    }

    /// Whether [`Inbox::close`] has run.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Relaxed)
    }
}

/// The consumer side of an [`Inbox`]: the adopted lane set plus the
/// round-robin cursor, owned by the one draining thread.
///
/// Dropping a `Lanes` closes its inbox — the consumer thread exiting is
/// what "consumer gone" means, and the close keeps late registrations
/// from stranding producers (see [`Inbox::register`]).
pub struct Lanes<T> {
    inbox: Arc<Inbox<T>>,
    lanes: Vec<Consumer<T>>,
    rr: usize,
}

impl<T> Lanes<T> {
    /// Takes ownership of the consumer side of `inbox`. Make exactly one
    /// per inbox: two `Lanes` over one inbox would split adopted lanes
    /// between them arbitrarily.
    pub fn new(inbox: Arc<Inbox<T>>) -> Lanes<T> {
        Lanes {
            inbox,
            lanes: Vec::new(),
            rr: 0,
        }
    }

    /// The doorbell to park on (ticket-before-final-poll, as ever).
    pub fn bell(&self) -> &Doorbell {
        self.inbox.bell()
    }

    /// One round-robin sweep over the adopted lanes (adopting any newly
    /// registered ones first), draining at most `max` items into `out`.
    /// The starting lane rotates sweep to sweep so a chatty producer
    /// cannot starve the others. Every poll is a couple of `Acquire`
    /// loads — no lock, no syscall — which is what makes spinning on
    /// this affordable.
    pub fn drain_into(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        self.inbox.adopt_into(&mut self.lanes);
        let k = self.lanes.len();
        if k == 0 || max == 0 {
            return 0;
        }
        let start = self.rr % k;
        self.rr = (start + 1) % k;
        let mut got = 0;
        for j in 0..k {
            if got >= max {
                break;
            }
            got += self.lanes[(start + j) % k].drain_into(out, max - got);
        }
        got
    }

    /// Drains exactly what is *visible now* in every lane into `out`,
    /// with no cap — the snapshot barrier the service's stats path uses
    /// ("everything published before this call is in the batch").
    pub fn snapshot_into(&mut self, out: &mut Vec<T>) {
        self.inbox.adopt_into(&mut self.lanes);
        for c in &self.lanes {
            let visible = c.len();
            c.drain_into(out, visible);
        }
    }

    /// How many lanes are adopted right now (pending registrations and
    /// pruned lanes excluded).
    pub fn adopted(&self) -> usize {
        self.lanes.len()
    }

    /// Total items currently visible across the adopted lanes (occupancy
    /// for admission pressure).
    pub fn queued(&self) -> usize {
        self.lanes.iter().map(|c| c.len()).sum()
    }

    /// Forgets lanes whose producer is gone and which are drained dry.
    /// Called off the hot path (before parking); a disconnected lane is
    /// harmless to keep polling, just wasted loads.
    pub fn prune_disconnected(&mut self) {
        self.lanes.retain(|c| !c.is_disconnected());
    }
}

impl<T> Drop for Lanes<T> {
    fn drop(&mut self) {
        self.inbox.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::time::Instant;

    #[test]
    fn fifo_through_push_and_drain() {
        let (tx, rx) = spsc::<u32>(4);
        for i in 0..4 {
            tx.try_push(i).unwrap();
        }
        assert!(matches!(tx.try_push(99), Err(PushError::Full(99))));
        let mut out = Vec::new();
        assert_eq!(rx.drain_into(&mut out, 3), 3);
        assert_eq!(out, [0, 1, 2]);
        // Space freed by the drain is visible to the producer.
        tx.try_push(4).unwrap();
        tx.try_push(5).unwrap();
        assert_eq!(rx.drain_into(&mut out, 16), 3);
        assert_eq!(out, [0, 1, 2, 3, 4, 5]);
        assert!(rx.is_empty());
    }

    #[test]
    fn push_from_takes_a_prefix_and_keeps_the_rest() {
        let (tx, rx) = spsc::<u32>(4);
        let mut batch: Vec<u32> = (0..7).collect();
        assert_eq!(tx.push_from(&mut batch), 4);
        assert_eq!(batch, [4, 5, 6]);
        let mut out = Vec::new();
        rx.drain_into(&mut out, 16);
        assert_eq!(out, [0, 1, 2, 3]);
        assert_eq!(tx.push_from(&mut batch), 3);
        assert!(batch.is_empty());
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let (tx, _rx) = spsc::<u8>(5);
        assert_eq!(tx.capacity(), 8);
        let (tx, _rx) = spsc::<u8>(0);
        assert_eq!(tx.capacity(), 2);
    }

    #[test]
    fn disconnect_is_observable_from_both_ends() {
        let (tx, rx) = spsc::<u32>(4);
        tx.try_push(1).unwrap();
        drop(tx);
        // Producer gone but an item remains: not yet disconnected.
        assert!(!rx.is_disconnected());
        assert_eq!(rx.try_pop(), Some(1));
        assert!(rx.is_disconnected());

        let (tx, rx) = spsc::<u32>(4);
        drop(rx);
        assert!(tx.is_closed());
        assert!(matches!(tx.try_push(7), Err(PushError::Closed(7))));
        let mut batch = vec![1, 2];
        assert_eq!(tx.push_from(&mut batch), 0);
        assert_eq!(batch.len(), 2);
    }

    #[test]
    fn undrained_items_are_dropped_exactly_once() {
        static DROPS: AtomicU32 = AtomicU32::new(0);
        #[derive(Debug)]
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (tx, rx) = spsc::<D>(8);
        for _ in 0..5 {
            tx.try_push(D).unwrap();
        }
        assert_eq!(rx.try_pop().map(drop), Some(())); // 1 drop
        drop(tx);
        drop(rx); // 4 published-but-undrained drops via Shared
        assert_eq!(DROPS.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn two_thread_stress_preserves_order_and_counts() {
        const N: u64 = 200_000;
        let (tx, rx) = spsc::<u64>(64);
        let bell = Arc::new(Doorbell::new());
        let bell2 = Arc::clone(&bell);
        let consumer = std::thread::spawn(move || {
            let mut expect = 0u64;
            let mut buf = Vec::with_capacity(64);
            while expect < N {
                let t = bell2.ticket();
                if rx.drain_into(&mut buf, 64) == 0 {
                    bell2.wait(t, Duration::from_millis(50));
                    continue;
                }
                for v in buf.drain(..) {
                    assert_eq!(v, expect);
                    expect += 1;
                }
            }
            expect
        });
        let mut pending: Vec<u64> = Vec::new();
        let mut next = 0u64;
        while next < N || !pending.is_empty() {
            while pending.len() < 32 && next < N {
                pending.push(next);
                next += 1;
            }
            if tx.push_from(&mut pending) > 0 {
                bell.ring();
            } else {
                std::hint::spin_loop();
            }
        }
        assert_eq!(consumer.join().unwrap(), N);
    }

    #[test]
    fn inbox_adoption_round_robin_and_close() {
        let inbox = Arc::new(Inbox::<u32>::new());
        let mut lanes = Lanes::new(Arc::clone(&inbox));

        let (a_tx, a_rx) = spsc::<u32>(8);
        let (b_tx, b_rx) = spsc::<u32>(8);
        inbox.register(a_rx);
        inbox.register(b_rx);
        a_tx.try_push(1).unwrap();
        a_tx.try_push(2).unwrap();
        b_tx.try_push(10).unwrap();

        let mut out = Vec::new();
        assert_eq!(lanes.drain_into(&mut out, 16), 3);
        out.sort_unstable();
        assert_eq!(out, [1, 2, 10]);
        assert_eq!(lanes.queued(), 0);

        // Capped drain leaves the rest visible.
        a_tx.try_push(3).unwrap();
        a_tx.try_push(4).unwrap();
        out.clear();
        assert_eq!(lanes.drain_into(&mut out, 1), 1);
        assert_eq!(lanes.queued(), 1);
        out.clear();
        lanes.snapshot_into(&mut out);
        assert_eq!(out.len(), 1);

        // Dropping the consumer side closes the inbox: late registrations
        // drop their end, so the producer observes Closed.
        drop(lanes);
        assert!(inbox.is_closed());
        let (c_tx, c_rx) = spsc::<u32>(8);
        inbox.register(c_rx);
        assert!(matches!(c_tx.try_push(9), Err(PushError::Closed(9))));
    }

    #[test]
    fn doorbell_counts_only_sleeper_wakes() {
        let bell = Arc::new(Doorbell::new());
        bell.ring(); // Nobody parked: no futex, no count.
        assert_eq!(bell.wakes(), 0);
        let b2 = Arc::clone(&bell);
        // A ring that lands between the parker's ticket and its wait sends
        // it straight back out without being counted, so it parks again
        // until one is.
        let parker = std::thread::spawn(move || {
            while b2.wakes() == 0 {
                let t = b2.ticket();
                b2.wait(t, Duration::from_secs(5));
            }
        });
        // Ring until the sleeper registers and the wake is counted.
        while bell.wakes() == 0 {
            bell.ring();
            std::thread::yield_now();
        }
        parker.join().unwrap();
        assert!(bell.wakes() >= 1);
    }

    // The lost-wakeup hammer: a parker that polls-then-waits races a
    // ringer that publishes-then-rings, across many short rounds with
    // jittered timing. If a ring after the parker's last poll could be
    // lost, some round would stall for the full (long) wait timeout and
    // blow the liveness budget.
    #[test]
    fn doorbell_never_loses_a_wakeup() {
        const ROUNDS: u64 = 3_000;
        let bell = Arc::new(Doorbell::new());
        let flag = Arc::new(AtomicU32::new(0));
        let started = Instant::now();
        let (b2, f2) = (Arc::clone(&bell), Arc::clone(&flag));
        let parker = std::thread::spawn(move || {
            for _ in 0..ROUNDS {
                loop {
                    let t = b2.ticket();
                    if f2.load(Ordering::SeqCst) > 0 {
                        f2.fetch_sub(1, Ordering::SeqCst);
                        break;
                    }
                    // A lost wakeup would eat the whole 2s here.
                    b2.wait(t, Duration::from_secs(2));
                }
            }
        });
        for i in 0..ROUNDS {
            flag.fetch_add(1, Ordering::SeqCst);
            bell.ring();
            if i % 7 == 0 {
                std::thread::yield_now();
            }
        }
        parker.join().unwrap();
        // Liveness: 3000 rounds of an intact protocol take well under a
        // second; a single lost wakeup alone would cost 2s.
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "doorbell rounds took {:?} — lost wakeups?",
            started.elapsed()
        );
    }
}
