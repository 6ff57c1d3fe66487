//! History recording: the real-time runtime's perfect observer.
//!
//! The simulator gets its consistency verdicts by logging every operation
//! into a `lease_vsys::History` and handing it to
//! `lease_faults::check_history`. This module closes the same loop for
//! real-time runs: clients log each completed operation and the storage
//! backend logs commits, all timestamped by one shared *true* wall clock —
//! even when chaos gives individual hosts skewed
//! [`ModelClock`](lease_clock::ModelClock)s. The checker may use a perfect
//! observer even though the protocol cannot; that asymmetry is exactly
//! what lets the oracle catch a fast server clock breaking §5's
//! assumptions while the protocol itself never notices.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use lease_clock::{Clock, Time, WallClock};
use lease_core::{ClientId, OpId, Version};
use lease_vsys::{History, HistoryEvent};

use crate::server::Res;

/// How many completed operations the recorder keeps; older ones are
/// overwritten. A cache hit costs well under a microsecond, so a log of
/// every op ever run would grow by tens of megabytes a second.
const OP_CAPACITY: usize = 1 << 20;

/// One completed client operation: the `Start`/`Done` event pair of a
/// [`History`], folded into a single fixed-size record.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpRecord {
    pub client: ClientId,
    pub op: OpId,
    pub resource: Res,
    /// The version read, or the version the write committed.
    pub version: Version,
    /// True time at entry to the application's call.
    pub start: Time,
    /// True time of the validity check (hit) or of completion.
    pub done: Time,
    /// `None` for a write, `Some(from_cache)` for a read.
    pub read_from_cache: Option<bool>,
}

const _: () = assert!(std::mem::size_of::<OpRecord>() <= 48);

struct Log {
    /// Everything that is not a client operation — commits, grantor
    /// claims — in append order. Grows with writes, not with reads.
    other: Vec<HistoryEvent>,
    /// The newest [`OP_CAPACITY`] completed operations, allocated once so
    /// that recording an op never touches the allocator.
    ops: Vec<OpRecord>,
    /// Once `ops` is full: the oldest record, overwritten next.
    oldest: usize,
}

/// A thread-safe, true-time-stamped history log.
///
/// Cheap to share: one mutex-guarded store per recorded operation. Every
/// timestamp comes from the one true clock the recorder owns, so events
/// from differently-skewed hosts still land on a single timeline. Client
/// operations are kept in a ring of the newest 2^20 *completed* ones (an
/// op that never completed leaves no trace); commits and grantor claims
/// are all kept.
pub struct Recorder {
    truth: Arc<dyn Clock>,
    log: Mutex<Log>,
}

impl Recorder {
    /// Creates a recorder observing through `truth`.
    pub(crate) fn new(truth: WallClock) -> Recorder {
        Recorder::with_clock(Arc::new(truth))
    }

    /// A recorder observing through an arbitrary clock.
    ///
    /// The multi-process harness uses this with a
    /// [`SysClock`](lease_clock::SysClock) sharing one parent-chosen unix
    /// epoch across processes, so the client processes' operation events
    /// and the server process's commit events land on a single true-time
    /// axis the oracle can check.
    pub fn with_clock(truth: Arc<dyn Clock>) -> Recorder {
        Recorder {
            truth,
            log: Mutex::new(Log {
                other: Vec::new(),
                ops: Vec::with_capacity(OP_CAPACITY),
                oldest: 0,
            }),
        }
    }

    /// The current true time (not any host's skewed view).
    pub fn now(&self) -> Time {
        self.truth.now()
    }

    // Every update is a single push or store, so the log is valid even if
    // a holder panicked.
    fn log(&self) -> MutexGuard<'_, Log> {
        self.log.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends one event that is not a client operation (a commit, a
    /// grantor claim). These are never dropped.
    pub fn push(&self, ev: HistoryEvent) {
        self.log().other.push(ev);
    }

    /// Records one completed client operation, overwriting the oldest
    /// once the ring is full.
    pub(crate) fn push_op(&self, rec: OpRecord) {
        let mut log = self.log();
        if log.ops.len() < OP_CAPACITY {
            log.ops.push(rec);
        } else {
            let at = log.oldest;
            log.ops[at] = rec;
            log.oldest = (at + 1) % OP_CAPACITY;
        }
    }

    /// Everything recorded so far as a [`History`]: the non-operation
    /// events in append order, then each kept operation, oldest first,
    /// expanded to its `Start`/`Done` pair. Events of different clients
    /// are therefore not interleaved by time; the oracle orders by the
    /// stamps, never by position.
    pub fn snapshot(&self) -> History {
        let log = self.log();
        let mut events = log.other.clone();
        events.reserve(2 * log.ops.len());
        let (newer, older) = log.ops.split_at(log.oldest);
        for r in older.iter().chain(newer) {
            let (client, op, resource, version) = (r.client, r.op, r.resource, r.version);
            let (start, done) = match r.read_from_cache {
                Some(from_cache) => (
                    HistoryEvent::ReadStart {
                        client,
                        op,
                        resource,
                        at: r.start,
                    },
                    HistoryEvent::ReadDone {
                        client,
                        op,
                        resource,
                        version,
                        at: r.done,
                        from_cache,
                    },
                ),
                None => (
                    HistoryEvent::WriteStart {
                        client,
                        op,
                        resource,
                        at: r.start,
                    },
                    HistoryEvent::WriteDone {
                        client,
                        op,
                        resource,
                        version,
                        at: r.done,
                    },
                ),
            };
            events.push(start);
            events.push(done);
        }
        History { events }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Capacity + k operations leave exactly capacity of them, the newest,
    /// each `Done` right after its own `Start`; the non-operation events
    /// recorded before the ring wrapped all survive.
    #[test]
    fn ring_keeps_the_newest_capacity_ops_as_start_done_pairs() {
        const EXTRA: u64 = 1000;
        let rec = Recorder::new(WallClock::new());
        rec.push(HistoryEvent::Commit {
            resource: 7,
            version: Version(2),
            writer: None,
            at: Time::ZERO,
        });
        let total = OP_CAPACITY as u64 + EXTRA;
        for n in 0..total {
            rec.push_op(OpRecord {
                client: ClientId((n % 3) as u32),
                op: OpId(n),
                resource: n % 8,
                version: Version(n),
                start: Time(2 * n),
                done: Time(2 * n + 1),
                read_from_cache: (n % 5 != 0).then_some(n % 4 < 2),
            });
        }

        let hist = rec.snapshot();
        assert!(matches!(hist.events[0], HistoryEvent::Commit { .. }));
        let ops = &hist.events[1..];
        assert_eq!(ops.len(), 2 * OP_CAPACITY);
        for (k, pair) in ops.chunks(2).enumerate() {
            let n = EXTRA + k as u64; // oldest kept op first
            match (&pair[0], &pair[1]) {
                (
                    HistoryEvent::ReadStart { op, at, .. },
                    HistoryEvent::ReadDone {
                        op: done_op,
                        at: done_at,
                        version,
                        from_cache,
                        ..
                    },
                ) => {
                    assert_ne!(n % 5, 0);
                    assert_eq!((*op, *done_op, *version), (OpId(n), OpId(n), Version(n)));
                    assert_eq!((*at, *done_at), (Time(2 * n), Time(2 * n + 1)));
                    assert_eq!(*from_cache, n % 4 < 2);
                }
                (
                    HistoryEvent::WriteStart { op, at, .. },
                    HistoryEvent::WriteDone {
                        op: done_op,
                        at: done_at,
                        ..
                    },
                ) => {
                    assert_eq!(n % 5, 0);
                    assert_eq!((*op, *done_op), (OpId(n), OpId(n)));
                    assert_eq!((*at, *done_at), (Time(2 * n), Time(2 * n + 1)));
                }
                other => panic!("op {n}: not a start/done pair: {other:?}"),
            }
        }
    }
}
