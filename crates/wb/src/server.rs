//! The write-back lease (token) server.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::hash::BuildHasher;

use lease_clock::{Dur, Time};
use lease_core::{ClientId, LeaseTable, MemStorage, ReqId, Resource, Version};

use crate::msg::{Mode, Reservation, WbToClient, WbToServer};

/// Server configuration.
#[derive(Debug, Clone, Copy)]
pub struct WbServerConfig {
    /// Term for every lease (read and write).
    pub term: Dur,
    /// Size of each write lease's version range.
    pub reservation_range: u64,
}

/// Inputs to the server.
#[derive(Debug, Clone)]
pub enum WbServerInput<R, D> {
    /// A client message.
    Msg {
        /// Sender.
        from: ClientId,
        /// Message.
        msg: WbToServer<R, D>,
    },
    /// A recall deadline fired.
    RecallTimer(R),
}

/// Effects the harness applies.
#[derive(Debug, Clone)]
pub enum WbServerOutput<R, D> {
    /// Send a message.
    Send {
        /// Recipient.
        to: ClientId,
        /// Message.
        msg: WbToClient<R, D>,
    },
    /// Arm (or re-arm) the recall deadline for a resource.
    SetRecallTimer {
        /// Fire time.
        at: Time,
        /// The recalled resource.
        resource: R,
    },
    /// A write-back landed durably (not a visibility event — the client
    /// already recorded the commit when it buffered the write).
    Durable {
        /// The resource.
        resource: R,
        /// The version now durable.
        version: Version,
    },
}

#[derive(Debug, Clone)]
struct WriteGrant {
    client: ClientId,
    resv_id: u64,
    expiry: Time,
}

#[derive(Debug, Clone)]
struct PendingAcquire {
    client: ClientId,
    req: ReqId,
    mode: Mode,
    cached: Option<Version>,
}

/// The token server: shared read leases, exclusive write leases with
/// version reservations, recall on conflict.
pub struct WbServer<R: Resource, D: Clone> {
    cfg: WbServerConfig,
    readers: LeaseTable<R>,
    writers: HashMap<R, WriteGrant>,
    /// Highest version ever committed or reserved, per resource: ranges
    /// are never reused, so a burned range just leaves a gap.
    high: HashMap<R, Version>,
    queue: HashMap<R, VecDeque<PendingAcquire>>,
    /// Clients a recall is still waiting on, per resource.
    recalling: HashMap<R, BTreeSet<ClientId>>,
    next_resv: u64,
    /// Write-backs rejected as stale (lost writes).
    pub flushes_rejected: u64,
    _data: std::marker::PhantomData<D>,
}

impl<R: Resource, D: Clone + Default> WbServer<R, D> {
    /// Creates a server.
    pub fn new(cfg: WbServerConfig) -> WbServer<R, D> {
        WbServer {
            cfg,
            readers: LeaseTable::new(),
            writers: HashMap::new(),
            high: HashMap::new(),
            queue: HashMap::new(),
            recalling: HashMap::new(),
            next_resv: 0,
            flushes_rejected: 0,
            _data: std::marker::PhantomData,
        }
    }

    /// Handles one input against the primary storage.
    pub fn handle<H: BuildHasher>(
        &mut self,
        now: Time,
        input: WbServerInput<R, D>,
        store: &mut MemStorage<R, D, H>,
    ) -> Vec<WbServerOutput<R, D>> {
        let mut out = Vec::new();
        match input {
            WbServerInput::Msg { from, msg } => match msg {
                WbToServer::Acquire {
                    req,
                    resource,
                    mode,
                    cached,
                } => {
                    self.queue
                        .entry(resource)
                        .or_default()
                        .push_back(PendingAcquire {
                            client: from,
                            req,
                            mode,
                            cached,
                        });
                    self.pump(now, resource, store, &mut out);
                }
                WbToServer::WriteBack {
                    req,
                    resource,
                    reservation,
                    version,
                    data,
                } => {
                    let dirty = (version, data);
                    self.write_back(
                        from,
                        req,
                        resource,
                        Some(reservation),
                        dirty,
                        store,
                        &mut out,
                    );
                }
                WbToServer::Release {
                    req,
                    resource,
                    reservation,
                    dirty,
                } => {
                    // Commit the dirty tail if the reservation is current;
                    // the outcome is acknowledged so the client can account
                    // for lost writes.
                    if let Some(dirty) = dirty {
                        self.write_back(from, req, resource, reservation, dirty, store, &mut out);
                    }
                    if self
                        .writers
                        .get(&resource)
                        .is_some_and(|w| w.client == from)
                    {
                        self.writers.remove(&resource);
                    }
                    self.readers.release(resource, from);
                    if let Some(waiting) = self.recalling.get_mut(&resource) {
                        waiting.remove(&from);
                    }
                    self.pump(now, resource, store, &mut out);
                }
            },
            WbServerInput::RecallTimer(resource) => {
                self.pump(now, resource, store, &mut out);
            }
        }
        out
    }

    /// Commits `from`'s write-back if it holds the write lease under
    /// `reservation`, and acknowledges it either way.
    #[allow(clippy::too_many_arguments)] // private helper: one flush's fields
    fn write_back<H: BuildHasher>(
        &mut self,
        from: ClientId,
        req: ReqId,
        resource: R,
        reservation: Option<u64>,
        (version, data): (Version, D),
        store: &mut MemStorage<R, D, H>,
        out: &mut Vec<WbServerOutput<R, D>>,
    ) {
        let live = self
            .writers
            .get(&resource)
            .is_some_and(|w| w.client == from && Some(w.resv_id) == reservation);
        let msg = if live {
            self.commit(resource, data, version, store, out);
            WbToClient::Flushed { req, resource }
        } else {
            self.flushes_rejected += 1;
            WbToClient::FlushRejected { req, resource }
        };
        out.push(WbServerOutput::Send { to: from, msg });
    }

    /// Commits a write-back idempotently: a flush and the release-time
    /// flush of the same version may both arrive.
    fn commit<H: BuildHasher>(
        &mut self,
        resource: R,
        data: D,
        version: Version,
        store: &mut MemStorage<R, D, H>,
        out: &mut Vec<WbServerOutput<R, D>>,
    ) {
        use lease_core::Storage;
        if store.version(&resource).is_some_and(|v| version <= v) {
            return; // Already durable at this version or newer.
        }
        store.set(resource, data, version);
        let h = self.high.entry(resource).or_insert(version);
        *h = (*h).max(version);
        out.push(WbServerOutput::Durable { resource, version });
    }

    /// Tries to grant the head of `resource`'s queue, recalling conflicting
    /// holders if needed.
    fn pump<H: BuildHasher>(
        &mut self,
        now: Time,
        resource: R,
        store: &mut MemStorage<R, D, H>,
        out: &mut Vec<WbServerOutput<R, D>>,
    ) {
        loop {
            let Some(head) = self.queue.get(&resource).and_then(|q| q.front()).cloned() else {
                self.recalling.remove(&resource);
                return;
            };
            // Who conflicts with the head request?
            let writer = self
                .writers
                .get(&resource)
                .filter(|w| w.expiry > now)
                .map(|w| w.client);
            let mut conflicts: BTreeSet<ClientId> = writer.into_iter().collect();
            if head.mode == Mode::Write {
                conflicts.extend(self.readers.holders_at(resource, now));
            }
            conflicts.remove(&head.client);
            if conflicts.is_empty() {
                let head = self
                    .queue
                    .get_mut(&resource)
                    .and_then(|q| q.pop_front())
                    .expect("head exists");
                self.grant(now, resource, head, store, out);
                continue; // Several reads may be grantable back-to-back.
            }
            // Recall whoever we have not asked yet; wait for the rest.
            let asked = self.recalling.entry(resource).or_default();
            for c in &conflicts {
                if asked.insert(*c) {
                    out.push(WbServerOutput::Send {
                        to: *c,
                        msg: WbToClient::Recall { resource },
                    });
                }
            }
            // The recall deadline: when the last conflicting lease lapses.
            let writer_expiry = self.writers.get(&resource).map(|w| w.expiry);
            let deadline = [writer_expiry, self.readers.max_expiry(resource, now)]
                .into_iter()
                .flatten()
                .fold(now, Time::max);
            out.push(WbServerOutput::SetRecallTimer {
                at: deadline,
                resource,
            });
            return;
        }
    }

    fn grant<H: BuildHasher>(
        &mut self,
        now: Time,
        resource: R,
        head: PendingAcquire,
        store: &mut MemStorage<R, D, H>,
        out: &mut Vec<WbServerOutput<R, D>>,
    ) {
        use lease_core::Storage;
        let Some((data, version)) = store.read(&resource) else {
            out.push(WbServerOutput::Send {
                to: head.client,
                msg: WbToClient::Error { req: head.req },
            });
            return;
        };
        let data = (head.cached != Some(version)).then_some(data);
        // Any grant supersedes a lapsed write token: kill its reservation
        // so late flushes from the old holder bounce instead of resurfacing
        // data the resource has moved past.
        self.writers.remove(&resource);
        let reservation = match head.mode {
            Mode::Read => {
                self.readers
                    .grant(resource, head.client, now + self.cfg.term);
                None
            }
            Mode::Write => {
                // Upgrades drop the requester's read lease.
                self.readers.release(resource, head.client);
                let h = self.high.entry(resource).or_insert(version);
                *h = (*h).max(version);
                let first = Version(h.0 + 1);
                let last = Version(h.0 + self.cfg.reservation_range);
                *h = last;
                let id = self.next_resv;
                self.next_resv += 1;
                self.writers.insert(
                    resource,
                    WriteGrant {
                        client: head.client,
                        resv_id: id,
                        expiry: now + self.cfg.term,
                    },
                );
                Some(Reservation { id, first, last })
            }
        };
        out.push(WbServerOutput::Send {
            to: head.client,
            msg: WbToClient::Granted {
                req: head.req,
                resource,
                mode: head.mode,
                version,
                data,
                term: self.cfg.term,
                reservation,
            },
        });
    }

    /// Whether a write lease is currently recorded for `resource`.
    pub fn has_writer(&self, resource: R) -> bool {
        self.writers.contains_key(&resource)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type S = WbServer<u64, u64>;

    const C0: ClientId = ClientId(0);
    const C1: ClientId = ClientId(1);

    fn t(ms: u64) -> Time {
        Time::from_millis(ms)
    }

    fn setup() -> (S, MemStorage<u64, u64>) {
        let mut store = MemStorage::new();
        store.insert(7, 100);
        (
            WbServer::new(WbServerConfig {
                term: Dur::from_secs(10),
                reservation_range: 16,
            }),
            store,
        )
    }

    fn acquire(
        s: &mut S,
        store: &mut MemStorage<u64, u64>,
        now: Time,
        from: ClientId,
        req: u64,
        mode: Mode,
    ) -> Vec<WbServerOutput<u64, u64>> {
        s.handle(
            now,
            WbServerInput::Msg {
                from,
                msg: WbToServer::Acquire {
                    req: ReqId(req),
                    resource: 7,
                    mode,
                    cached: None,
                },
            },
            store,
        )
    }

    fn granted(out: &[WbServerOutput<u64, u64>]) -> Option<(ClientId, Mode, Option<Reservation>)> {
        out.iter().find_map(|o| match o {
            WbServerOutput::Send {
                to,
                msg:
                    WbToClient::Granted {
                        mode, reservation, ..
                    },
            } => Some((*to, *mode, *reservation)),
            _ => None,
        })
    }

    fn recalled(out: &[WbServerOutput<u64, u64>]) -> Vec<ClientId> {
        out.iter()
            .filter_map(|o| match o {
                WbServerOutput::Send {
                    to,
                    msg: WbToClient::Recall { .. },
                } => Some(*to),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn read_leases_are_shared() {
        let (mut s, mut store) = setup();
        assert!(granted(&acquire(&mut s, &mut store, t(0), C0, 1, Mode::Read)).is_some());
        assert!(granted(&acquire(&mut s, &mut store, t(1), C1, 1, Mode::Read)).is_some());
    }

    #[test]
    fn write_lease_carries_a_fresh_range() {
        let (mut s, mut store) = setup();
        let out = acquire(&mut s, &mut store, t(0), C0, 1, Mode::Write);
        let (_, mode, resv) = granted(&out).unwrap();
        assert_eq!(mode, Mode::Write);
        let r = resv.unwrap();
        assert_eq!(r.first, Version(2)); // storage is at version 1
        assert_eq!(r.last, Version(17));
        assert!(s.has_writer(7));
    }

    #[test]
    fn conflicting_write_recalls_readers() {
        let (mut s, mut store) = setup();
        acquire(&mut s, &mut store, t(0), C0, 1, Mode::Read);
        let out = acquire(&mut s, &mut store, t(1), C1, 1, Mode::Write);
        assert!(granted(&out).is_none(), "must wait for the reader");
        assert_eq!(recalled(&out), vec![C0]);
        // The reader releases; the write grant goes out.
        let out = s.handle(
            t(2),
            WbServerInput::Msg {
                from: C0,
                msg: WbToServer::Release {
                    req: ReqId(90),
                    resource: 7,
                    reservation: None,
                    dirty: None,
                },
            },
            &mut store,
        );
        let (to, mode, _) = granted(&out).unwrap();
        assert_eq!((to, mode), (C1, Mode::Write));
    }

    #[test]
    fn read_during_write_lease_recalls_the_writer() {
        let (mut s, mut store) = setup();
        let out = acquire(&mut s, &mut store, t(0), C0, 1, Mode::Write);
        let resv = granted(&out).unwrap().2.unwrap();
        let out = acquire(&mut s, &mut store, t(1), C1, 1, Mode::Read);
        assert_eq!(recalled(&out), vec![C0]);
        // Writer flushes its dirty tail on the way out.
        let out = s.handle(
            t(2),
            WbServerInput::Msg {
                from: C0,
                msg: WbToServer::Release {
                    req: ReqId(91),
                    resource: 7,
                    reservation: Some(resv.id),
                    dirty: Some((resv.first, 999)),
                },
            },
            &mut store,
        );
        // The queued read is granted the flushed data.
        let g = out.iter().find_map(|o| match o {
            WbServerOutput::Send {
                to,
                msg: WbToClient::Granted { version, data, .. },
            } => Some((*to, *version, *data)),
            _ => None,
        });
        assert_eq!(g, Some((C1, resv.first, Some(999))));
    }

    #[test]
    fn stale_writeback_is_rejected_and_counted() {
        let (mut s, mut store) = setup();
        let out = acquire(&mut s, &mut store, t(0), C0, 1, Mode::Write);
        let resv = granted(&out).unwrap().2.unwrap();
        // The lease lapses (10 s term) and another client takes over
        // immediately: expired holders are no obstacle.
        let out = acquire(&mut s, &mut store, t(20_000), C1, 1, Mode::Write);
        let resv2 = granted(&out).unwrap().2.unwrap();
        assert!(resv2.first > resv.last, "burned range is never reused");
        // The old writer's late flush bounces.
        let out = s.handle(
            t(20_100),
            WbServerInput::Msg {
                from: C0,
                msg: WbToServer::WriteBack {
                    req: ReqId(9),
                    resource: 7,
                    reservation: resv.id,
                    version: resv.first,
                    data: 111,
                },
            },
            &mut store,
        );
        assert!(out.iter().any(|o| matches!(
            o,
            WbServerOutput::Send {
                msg: WbToClient::FlushRejected { .. },
                ..
            }
        )));
        assert_eq!(s.flushes_rejected, 1);
        use lease_core::Storage;
        assert_eq!(store.read(&7).unwrap().0, 100, "stale data must not land");
    }

    #[test]
    fn writeback_updates_storage_and_acks() {
        let (mut s, mut store) = setup();
        let out = acquire(&mut s, &mut store, t(0), C0, 1, Mode::Write);
        let resv = granted(&out).unwrap().2.unwrap();
        let out = s.handle(
            t(100),
            WbServerInput::Msg {
                from: C0,
                msg: WbToServer::WriteBack {
                    req: ReqId(2),
                    resource: 7,
                    reservation: resv.id,
                    version: Version(resv.first.0 + 3),
                    data: 555,
                },
            },
            &mut store,
        );
        assert!(out.iter().any(|o| matches!(
            o,
            WbServerOutput::Send {
                msg: WbToClient::Flushed { .. },
                ..
            }
        )));
        assert!(out
            .iter()
            .any(|o| matches!(o, WbServerOutput::Durable { .. })));
        use lease_core::Storage;
        assert_eq!(store.read(&7).unwrap(), (555, Version(resv.first.0 + 3)));
    }

    #[test]
    fn unknown_resource_errors() {
        let (mut s, mut store) = setup();
        let out = s.handle(
            t(0),
            WbServerInput::Msg {
                from: C0,
                msg: WbToServer::Acquire {
                    req: ReqId(1),
                    resource: 99,
                    mode: Mode::Read,
                    cached: None,
                },
            },
            &mut store,
        );
        assert!(out.iter().any(|o| matches!(
            o,
            WbServerOutput::Send {
                msg: WbToClient::Error { .. },
                ..
            }
        )));
    }

    #[test]
    fn upgrade_drops_own_read_lease() {
        let (mut s, mut store) = setup();
        acquire(&mut s, &mut store, t(0), C0, 1, Mode::Read);
        let out = acquire(&mut s, &mut store, t(1), C0, 2, Mode::Write);
        assert!(
            granted(&out).is_some(),
            "own read lease must not block the upgrade"
        );
        assert!(s.readers.holders_at(7, t(1)).is_empty());
    }

    #[test]
    fn queued_acquires_grant_in_order_after_recall() {
        let (mut s, mut store) = setup();
        let out = acquire(&mut s, &mut store, t(0), C0, 1, Mode::Write);
        let resv = granted(&out).unwrap().2.unwrap();
        // Two readers queue behind the writer.
        assert!(granted(&acquire(&mut s, &mut store, t(1), C1, 1, Mode::Read)).is_none());
        assert!(granted(&acquire(
            &mut s,
            &mut store,
            t(2),
            ClientId(2),
            1,
            Mode::Read
        ))
        .is_none());
        let out = s.handle(
            t(3),
            WbServerInput::Msg {
                from: C0,
                msg: WbToServer::Release {
                    req: ReqId(92),
                    resource: 7,
                    reservation: Some(resv.id),
                    dirty: None,
                },
            },
            &mut store,
        );
        // Both queued reads are granted together (shared mode).
        let grants = out
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    WbServerOutput::Send {
                        msg: WbToClient::Granted { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(grants, 2);
    }
}
