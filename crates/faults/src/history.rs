//! The global execution history the consistency oracle checks.
//!
//! Every actor appends to one shared log, timestamped with *true*
//! (simulation) time — even when the actor's own clock is skewed — so the
//! oracle can judge the execution against a single global timeline. This is
//! the standard move in consistency checking: the checker may use a perfect
//! observer even though the protocol cannot.

use std::cell::RefCell;
use std::rc::Rc;

use lease_clock::Time;
use lease_core::{ClientId, OpId, Version};

/// The resource key a history names: the trace's file id (regular files,
/// installed files, and directories alike). `lease_vsys::Res` is this
/// alias.
pub type Res = u64;

/// One observed event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HistoryEvent {
    /// A client issued a read.
    ReadStart {
        /// The reader.
        client: ClientId,
        /// Operation id (unique per client).
        op: OpId,
        /// The resource.
        resource: Res,
        /// True time of issue.
        at: Time,
    },
    /// A read completed.
    ReadDone {
        /// The reader.
        client: ClientId,
        /// Operation id.
        op: OpId,
        /// The resource.
        resource: Res,
        /// The version the read returned.
        version: Version,
        /// True completion time.
        at: Time,
        /// Whether the cache served it locally.
        from_cache: bool,
    },
    /// A client issued a write.
    WriteStart {
        /// The writer.
        client: ClientId,
        /// Operation id.
        op: OpId,
        /// The resource.
        resource: Res,
        /// True time of issue.
        at: Time,
    },
    /// The server committed a write to primary storage.
    Commit {
        /// The resource.
        resource: Res,
        /// The new version.
        version: Version,
        /// The writing client, if any (none for administrative installs).
        writer: Option<ClientId>,
        /// True commit time.
        at: Time,
    },
    /// A crash destroyed locally-buffered (never written back) versions:
    /// everything above `last_durable` on this resource vanished at `at`.
    /// Only non-write-through (write-back) caches produce this event — the
    /// lost-write semantics the paper's write-through choice avoids (§2).
    Discard {
        /// The resource whose buffered tail was lost.
        resource: Res,
        /// The last version that survives (already written back).
        last_durable: Version,
        /// The highest buffered version destroyed: the loss covers
        /// exactly `(last_durable, last_lost]`.
        last_lost: Version,
        /// The crash instant (true time).
        at: Time,
    },
    /// A write operation completed at its client.
    WriteDone {
        /// The writer.
        client: ClientId,
        /// Operation id.
        op: OpId,
        /// The resource.
        resource: Res,
        /// The committed version.
        version: Version,
        /// True completion time.
        at: Time,
    },
    /// A grantor replica began *serving* under a quorum-granted grantor
    /// lease (the PaxosLease ballot it won). Recorded by replicated
    /// topologies; single-server runs never emit it. Plain integers keep
    /// the history independent of the quorum crate's types.
    GrantorAcquired {
        /// The replica that became the grantor.
        replica: u32,
        /// The winning ballot, packed `(round << 32) | replica`.
        ballot: u64,
        /// True time at which serving began.
        at: Time,
    },
    /// A grantor replica stopped serving — its grantor lease expired on
    /// its own clock, it was killed, or it observed a higher ballot. `at`
    /// is the (backdated) true instant the claim ended; paired with the
    /// matching [`HistoryEvent::GrantorAcquired`] it closes a half-open
    /// serving interval `[acquired, ceded)`.
    GrantorCeded {
        /// The replica that ceded.
        replica: u32,
        /// The ballot it held.
        ballot: u64,
        /// True end of the claim.
        at: Time,
    },
}

impl HistoryEvent {
    /// The event's true time.
    pub fn at(&self) -> Time {
        match self {
            HistoryEvent::ReadStart { at, .. }
            | HistoryEvent::ReadDone { at, .. }
            | HistoryEvent::WriteStart { at, .. }
            | HistoryEvent::Commit { at, .. }
            | HistoryEvent::Discard { at, .. }
            | HistoryEvent::WriteDone { at, .. }
            | HistoryEvent::GrantorAcquired { at, .. }
            | HistoryEvent::GrantorCeded { at, .. } => *at,
        }
    }
}

/// The append-only event log.
#[derive(Debug, Clone, Default)]
pub struct History {
    /// The events, in append order (which is time order: the simulator is
    /// single-threaded).
    pub events: Vec<HistoryEvent>,
}

impl History {
    /// Creates an empty history.
    pub fn new() -> History {
        History::default()
    }

    /// Appends an event.
    pub fn push(&mut self, ev: HistoryEvent) {
        self.events.push(ev);
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the history is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Commits for one resource, in time order.
    pub fn commits_of(&self, resource: Res) -> Vec<(Time, Version)> {
        let mut v: Vec<(Time, Version)> = self
            .events
            .iter()
            .filter_map(|e| match e {
                HistoryEvent::Commit {
                    resource: r,
                    version,
                    at,
                    ..
                } if *r == resource => Some((*at, *version)),
                _ => None,
            })
            .collect();
        v.sort();
        v
    }
}

/// The shared handle actors hold (the simulator is single-threaded).
pub type SharedHistory = Rc<RefCell<History>>;

/// Creates a fresh shared history.
pub fn shared() -> SharedHistory {
    Rc::new(RefCell::new(History::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_query_commits() {
        let mut h = History::new();
        h.push(HistoryEvent::Commit {
            resource: 1,
            version: Version(2),
            writer: None,
            at: Time::from_secs(5),
        });
        h.push(HistoryEvent::Commit {
            resource: 2,
            version: Version(1),
            writer: Some(ClientId(0)),
            at: Time::from_secs(1),
        });
        h.push(HistoryEvent::Commit {
            resource: 1,
            version: Version(3),
            writer: None,
            at: Time::from_secs(9),
        });
        assert_eq!(h.len(), 3);
        assert_eq!(
            h.commits_of(1),
            vec![
                (Time::from_secs(5), Version(2)),
                (Time::from_secs(9), Version(3))
            ]
        );
        assert_eq!(h.commits_of(99), vec![]);
    }

    #[test]
    fn event_time_accessor() {
        let e = HistoryEvent::ReadStart {
            client: ClientId(1),
            op: OpId(1),
            resource: 1,
            at: Time::from_secs(3),
        };
        assert_eq!(e.at(), Time::from_secs(3));
    }
}
