//! The time-ordered event queue.
//!
//! One `BinaryHeap` of `(at, seq)`-ordered entries: pop order is
//! `(at, push order)`, same-instant events FIFO. A simulation's pending
//! set is a few hundred events (one timer or in-flight message per actor,
//! plus the lease expirations not yet reached), so the heap's `O(log n)`
//! sift is a handful of comparisons on cache-resident entries — there is
//! no log factor for a bucketed scheduler's O(1) to delete (DESIGN.md §2c
//! records the measurement that retired the timer-wheel backend).
//!
//! The queue cannot cancel: a pushed event pops. The [`World`](crate::World)
//! cancels a timer in its timer slab, so no pop probes a cancelled set.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use lease_clock::Time;

/// A pending event: payload `E` scheduled at an instant.
struct Entry<E> {
    at: Time,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed so the BinaryHeap (a max-heap) pops the earliest event;
        // sequence numbers break ties FIFO for determinism.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A deterministic time-ordered queue of events.
///
/// Events scheduled for the same instant pop in the order they were pushed,
/// which makes simulation runs reproducible bit-for-bit given the same seed
/// and inputs.
///
/// # Examples
///
/// ```
/// use lease_clock::Time;
/// use lease_sim::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.push(Time::from_secs(2), "later");
/// q.push(Time::from_secs(1), "sooner");
/// q.push(Time::from_secs(1), "sooner-but-second");
/// assert_eq!(q.pop(), Some((Time::from_secs(1), "sooner")));
/// assert_eq!(q.pop(), Some((Time::from_secs(1), "sooner-but-second")));
/// assert_eq!(q.pop(), Some((Time::from_secs(2), "later")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `ev` at instant `at`.
    pub fn push(&mut self, at: Time, ev: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, ev });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.heap.pop().map(|e| (e.at, e.ev))
    }

    /// The instant of the earliest pending event.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled.
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> EventQueue<E> {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(Time::from_secs(3), 3);
        q.push(Time::from_secs(1), 1);
        q.push(Time::from_secs(2), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        let t = Time::from_secs(1);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sub_tick_instants_keep_exact_times_and_order() {
        // Instants a microsecond apart pop in time order at their exact
        // requested times: nothing is bucketed.
        let mut q = EventQueue::new();
        q.push(Time(999), 2);
        q.push(Time(5), 1);
        q.push(Time(1_001), 3);
        assert_eq!(q.pop(), Some((Time(5), 1)));
        assert_eq!(q.pop(), Some((Time(999), 2)));
        assert_eq!(q.pop(), Some((Time(1_001), 3)));
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(Time::from_secs(5), 0);
        assert_eq!(q.peek_time(), Some(Time::from_secs(5)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn counts_scheduled() {
        let mut q = EventQueue::new();
        q.push(Time::ZERO, 0);
        q.push(Time::ZERO, 0);
        q.pop();
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(Time::from_secs(10), 10);
        q.push(Time::from_secs(1), 1);
        assert_eq!(q.pop(), Some((Time::from_secs(1), 1)));
        q.push(Time::from_secs(5), 5);
        q.push(Time::from_secs(2), 2);
        assert_eq!(q.pop(), Some((Time::from_secs(2), 2)));
        assert_eq!(q.pop(), Some((Time::from_secs(5), 5)));
        assert_eq!(q.pop(), Some((Time::from_secs(10), 10)));
    }

    #[test]
    fn push_earlier_than_already_surfaced_events() {
        // Re-pushing at the current instant is routine (an actor reacting
        // to a delivery with a zero-delay timer): it must pop before the
        // pending later event.
        let mut q = EventQueue::new();
        q.push(Time::from_secs(2), 2);
        q.push(Time::from_secs(3), 3);
        assert_eq!(q.pop(), Some((Time::from_secs(2), 2)));
        q.push(Time::from_secs(2), 20);
        assert_eq!(q.pop(), Some((Time::from_secs(2), 20)));
        assert_eq!(q.pop(), Some((Time::from_secs(3), 3)));
    }

    #[test]
    fn far_future_events_fire_in_order() {
        // An infinite-term lease sets a timer at the end of time: it pops
        // in exact (at, seq) order after everything nearer.
        let mut q = EventQueue::new();
        let far = 1u64 << 48;
        q.push(Time(u64::MAX), 9);
        q.push(Time(far + 5), 5);
        q.push(Time(far + 5), 6);
        q.push(Time::from_secs(1), 1);
        assert_eq!(q.pop(), Some((Time::from_secs(1), 1)));
        assert_eq!(q.pop(), Some((Time(far + 5), 5)));
        assert_eq!(q.pop(), Some((Time(far + 5), 6)));
        assert_eq!(q.peek_time(), Some(Time(u64::MAX)));
        assert_eq!(q.pop(), Some((Time(u64::MAX), 9)));
    }
}
