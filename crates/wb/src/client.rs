//! The write-back (token) client cache.

use lease_clock::{Dur, Time};
use lease_core::{ClientId, FxMap, OpId, OpOutcome, ReqId, Resource, Version};

use crate::msg::{Mode, Reservation, WbToClient, WbToServer};

/// Client configuration.
#[derive(Debug, Clone, Copy)]
pub struct WbClientConfig {
    /// Clock allowance ε subtracted from every term.
    pub epsilon: Dur,
    /// How often dirty entries are written back in the background.
    pub flush_interval: Dur,
}

impl Default for WbClientConfig {
    fn default() -> WbClientConfig {
        WbClientConfig {
            epsilon: Dur::from_millis(100),
            flush_interval: Dur::from_secs(2),
        }
    }
}

/// Client timers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WbClientTimer {
    /// Periodic background flush of dirty entries.
    Flush,
}

/// Inputs to the client.
#[derive(Debug, Clone)]
pub enum WbInput<R, D> {
    /// The application reads.
    Read {
        /// Completion id.
        op: OpId,
        /// The resource.
        resource: R,
    },
    /// The application writes (buffered locally under a write lease).
    Write {
        /// Completion id.
        op: OpId,
        /// The resource.
        resource: R,
        /// New contents.
        data: D,
    },
    /// A server message.
    Msg(WbToClient<R, D>),
    /// A timer fired.
    Timer(WbClientTimer),
}

/// Effects the harness applies.
#[derive(Debug, Clone)]
pub enum WbClientOutput<R, D> {
    /// Send to the server.
    Send(WbToServer<R, D>),
    /// Arm a timer.
    SetTimer {
        /// Fire time.
        at: Time,
        /// Which timer.
        timer: WbClientTimer,
    },
    /// An operation completed.
    Done {
        /// The operation.
        op: OpId,
        /// Its result (None = resource unknown). A read is `from_cache`
        /// when served without server contact.
        result: Option<OpOutcome<D>>,
    },
    /// A buffered write became visible (the history's Commit event): with
    /// an exclusive token, the local apply is the linearization point.
    LocalCommit {
        /// The resource.
        resource: R,
        /// The locally-assigned version.
        version: Version,
    },
    /// Buffered writes were lost (stale reservation on flush): the
    /// versions in `(last_durable, last_lost]` are gone.
    Lost {
        /// The resource.
        resource: R,
        /// The last surviving (written back) version.
        last_durable: Version,
        /// The highest buffered version destroyed.
        last_lost: Version,
    },
}

#[derive(Debug, Clone)]
struct WbEntry<D> {
    data: D,
    version: Version,
    expiry: Time,
    mode: Mode,
    dirty: bool,
    resv: Option<Resv>,
    /// Highest version known durable at the server.
    durable: Version,
    /// A flush is in flight (do not double-send).
    flushing: bool,
}

impl<D> WbEntry<D> {
    /// Dirty under a token, and no write-back in flight.
    fn needs_flush(&self) -> bool {
        self.dirty && !self.flushing && self.mode == Mode::Write
    }
}

#[derive(Debug, Clone, Copy)]
struct Resv {
    id: u64,
    next: Version,
    last: Version,
}

#[derive(Debug, Clone, Copy)]
struct FlushRecord<R> {
    resource: R,
    version: Version,
    durable_before: Version,
}

/// An acquire in flight and the ops waiting for its grant; writes carry
/// their payloads.
#[derive(Debug, Clone)]
struct Acquire<R, D> {
    resource: R,
    reads: Vec<OpId>,
    writes: Vec<(OpId, D)>,
    first_sent: Time,
}

/// Per-client counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct WbCounters {
    /// Reads served locally.
    pub local_reads: u64,
    /// Writes applied locally without server contact.
    pub local_writes: u64,
    /// Recalls honoured.
    pub recalls: u64,
    /// Background flushes sent.
    pub flushes: u64,
    /// Flushes rejected (lost writes).
    pub lost_flushes: u64,
}

/// The token client cache.
pub struct WbClient<R: Resource, D: Clone> {
    id: ClientId,
    cfg: WbClientConfig,
    entries: FxMap<R, WbEntry<D>>,
    acquires: FxMap<ReqId, Acquire<R, D>>,
    /// One outstanding acquire per resource.
    acq_inflight: FxMap<R, ReqId>,
    flush_reqs: FxMap<ReqId, FlushRecord<R>>,
    next_req: u64,
    /// Counters for experiments.
    pub counters: WbCounters,
}

impl<R: Resource, D: Clone> WbClient<R, D> {
    /// Creates a client cache.
    pub fn new(id: ClientId, cfg: WbClientConfig) -> WbClient<R, D> {
        WbClient {
            id,
            cfg,
            entries: FxMap::default(),
            acquires: FxMap::default(),
            acq_inflight: FxMap::default(),
            flush_reqs: FxMap::default(),
            next_req: 0,
            counters: WbCounters::default(),
        }
    }

    /// This cache's id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Arms the periodic flush; call once at startup.
    pub fn start(&mut self, now: Time) -> Vec<WbClientOutput<R, D>> {
        vec![WbClientOutput::SetTimer {
            at: now + self.cfg.flush_interval,
            timer: WbClientTimer::Flush,
        }]
    }

    /// The dirty (not yet durable) state, for crash accounting: each entry
    /// is `(resource, last_durable, last_buffered)`.
    pub fn dirty_state(&self) -> Vec<(R, Version, Version)> {
        self.entries
            .iter()
            .filter(|(_, e)| e.dirty)
            .map(|(r, e)| (*r, e.durable, e.version))
            .collect()
    }

    /// Wipes all volatile state (crash). The harness should first record
    /// [`WbClient::dirty_state`] as Discard history events.
    pub fn crash(&mut self) {
        self.entries.clear();
        self.acquires.clear();
        self.acq_inflight.clear();
        self.flush_reqs.clear();
    }

    fn fresh_req(&mut self) -> ReqId {
        let r = ReqId(self.next_req);
        self.next_req += 1;
        r
    }

    fn valid(&self, resource: R, now: Time) -> Option<&WbEntry<D>> {
        self.entries.get(&resource).filter(|e| e.expiry > now)
    }

    /// Handles one input.
    pub fn handle(&mut self, now: Time, input: WbInput<R, D>) -> Vec<WbClientOutput<R, D>> {
        let mut out = Vec::new();
        self.handle_into(now, input, &mut out);
        out
    }

    /// Handles one input, appending the effects to apply to `out`.
    pub fn handle_into(
        &mut self,
        now: Time,
        input: WbInput<R, D>,
        out: &mut Vec<WbClientOutput<R, D>>,
    ) {
        match input {
            WbInput::Read { op, resource } => self.on_read(now, op, resource, out),
            WbInput::Write { op, resource, data } => self.on_write(now, op, resource, data, out),
            WbInput::Msg(m) => self.on_msg(now, m, out),
            WbInput::Timer(WbClientTimer::Flush) => {
                self.flush_dirty(out);
                out.push(WbClientOutput::SetTimer {
                    at: now + self.cfg.flush_interval,
                    timer: WbClientTimer::Flush,
                });
            }
        }
    }

    fn on_read(&mut self, now: Time, op: OpId, resource: R, out: &mut Vec<WbClientOutput<R, D>>) {
        if let Some(e) = self.valid(resource, now) {
            let (data, version) = (e.data.clone(), e.version);
            self.counters.local_reads += 1;
            out.push(WbClientOutput::Done {
                op,
                result: Some(OpOutcome::Read {
                    data,
                    version,
                    from_cache: true,
                }),
            });
            return;
        }
        self.enqueue(now, resource, Mode::Read, Some(op), None, out);
    }

    fn on_write(
        &mut self,
        now: Time,
        op: OpId,
        resource: R,
        data: D,
        out: &mut Vec<WbClientOutput<R, D>>,
    ) {
        if let Some(e) = self.entries.get_mut(&resource) {
            if e.expiry > now && e.mode == Mode::Write {
                if let Some(resv) = e.resv.as_mut() {
                    if resv.next <= resv.last {
                        // The token fast path: apply locally, no round trip.
                        let version = resv.next;
                        resv.next = Version(resv.next.0 + 1);
                        e.data = data;
                        e.version = version;
                        e.dirty = true;
                        self.counters.local_writes += 1;
                        out.push(WbClientOutput::LocalCommit { resource, version });
                        out.push(WbClientOutput::Done {
                            op,
                            result: Some(OpOutcome::Write { version }),
                        });
                        return;
                    }
                }
            }
        }
        self.enqueue(now, resource, Mode::Write, None, Some((op, data)), out);
    }

    /// Queues an op behind (or starts) an acquire for `resource`.
    fn enqueue(
        &mut self,
        now: Time,
        resource: R,
        mode: Mode,
        read: Option<OpId>,
        write: Option<(OpId, D)>,
        out: &mut Vec<WbClientOutput<R, D>>,
    ) {
        let inflight = self.acq_inflight.get(&resource);
        if let Some(acq) = inflight.and_then(|req| self.acquires.get_mut(req)) {
            // A write queued behind a read acquire re-acquires in Write
            // mode once the grant lands (see the grant handler).
            acq.reads.extend(read);
            acq.writes.extend(write);
            return;
        }
        // A dirty tail under a lapsed token is flushed *before* the new
        // acquire: the server still honours our reservation unless someone
        // else has taken the resource over (in which case the flush
        // bounces and the writes are genuinely lost).
        if self
            .entries
            .get(&resource)
            .is_some_and(WbEntry::needs_flush)
        {
            self.flush(resource, out);
        }
        let req = self.fresh_req();
        let mode = if write.is_some() { Mode::Write } else { mode };
        let cached = self.entries.get(&resource).map(|e| e.version);
        self.acq_inflight.insert(resource, req);
        self.acquires.insert(
            req,
            Acquire {
                resource,
                reads: read.into_iter().collect(),
                writes: write.into_iter().collect(),
                first_sent: now,
            },
        );
        out.push(WbClientOutput::Send(WbToServer::Acquire {
            req,
            resource,
            mode,
            cached,
        }));
    }

    fn on_msg(&mut self, now: Time, msg: WbToClient<R, D>, out: &mut Vec<WbClientOutput<R, D>>) {
        match msg {
            WbToClient::Granted {
                req,
                resource,
                mode,
                version,
                data,
                term,
                reservation,
            } => {
                let Some(Acquire {
                    reads,
                    writes,
                    first_sent,
                    ..
                }) = self.acquires.remove(&req)
                else {
                    return;
                };
                self.acq_inflight.remove(&resource);
                let expiry = first_sent + term.saturating_sub(self.cfg.epsilon);
                let cached = || self.entries.get(&resource).map(|e| e.data.clone());
                let Some(data) = data.or_else(cached) else {
                    return; // Cannot happen: we sent `cached`.
                };
                // A dirty tail buffered under an expired token that never
                // made it back is lost the moment we accept fresher state.
                if let Some(old) = self.entries.get(&resource) {
                    if old.dirty && old.version > version {
                        self.counters.lost_flushes += 1;
                        out.push(WbClientOutput::Lost {
                            resource,
                            last_durable: old.durable,
                            last_lost: old.version,
                        });
                    }
                }
                self.entries.insert(
                    resource,
                    WbEntry {
                        data: data.clone(),
                        version,
                        expiry,
                        mode,
                        dirty: false,
                        resv: reservation.map(|r: Reservation| Resv {
                            id: r.id,
                            next: r.first,
                            last: r.last,
                        }),
                        durable: version,
                        flushing: false,
                    },
                );
                // Serve the queued reads from the fresh grant.
                for op in reads {
                    out.push(WbClientOutput::Done {
                        op,
                        result: Some(OpOutcome::Read {
                            data: data.clone(),
                            version,
                            from_cache: false,
                        }),
                    });
                }
                // Apply the queued writes locally (we may have been granted
                // Read while writes queued later; re-enter to upgrade).
                for (op, d) in writes {
                    self.on_write(now, op, resource, d, out);
                }
            }
            WbToClient::Flushed { req, resource } => {
                if let Some(rec) = self.flush_reqs.remove(&req) {
                    debug_assert_eq!(rec.resource, resource);
                    if let Some(e) = self.entries.get_mut(&resource) {
                        e.durable = e.durable.max(rec.version);
                        e.flushing = false;
                        if e.version <= rec.version {
                            e.dirty = false;
                        }
                    }
                }
            }
            WbToClient::FlushRejected { req, resource } => {
                self.counters.lost_flushes += 1;
                let rec = self.flush_reqs.remove(&req);
                let (durable, lost) = match (self.entries.remove(&resource), rec) {
                    (Some(e), _) => (e.durable, e.version),
                    (None, Some(rec)) => (rec.durable_before, rec.version),
                    (None, None) => return,
                };
                out.push(WbClientOutput::Lost {
                    resource,
                    last_durable: durable,
                    last_lost: lost,
                });
            }
            WbToClient::Recall { resource } => {
                self.counters.recalls += 1;
                // Nothing held (already released or expired): the server's
                // deadline covers it; no reply needed.
                if let Some(e) = self.entries.remove(&resource) {
                    let req = self.fresh_req();
                    let dirty = if e.dirty {
                        self.flush_reqs.insert(
                            req,
                            FlushRecord {
                                resource,
                                version: e.version,
                                durable_before: e.durable,
                            },
                        );
                        Some((e.version, e.data))
                    } else {
                        None
                    };
                    out.push(WbClientOutput::Send(WbToServer::Release {
                        req,
                        resource,
                        reservation: e.resv.map(|r| r.id),
                        dirty,
                    }));
                }
            }
            WbToClient::Error { req } => {
                if let Some(Acquire {
                    resource,
                    reads,
                    writes,
                    ..
                }) = self.acquires.remove(&req)
                {
                    self.acq_inflight.remove(&resource);
                    let writes = writes.into_iter().map(|(op, _)| op);
                    for op in reads.into_iter().chain(writes) {
                        out.push(WbClientOutput::Done { op, result: None });
                    }
                }
            }
        }
    }

    fn flush_dirty(&mut self, out: &mut Vec<WbClientOutput<R, D>>) {
        // Expired entries are flushed too: the server accepts a write-back
        // for as long as our reservation has not been superseded, and
        // rejects it (-> Lost) otherwise.
        let dirty: Vec<R> = self
            .entries
            .iter()
            .filter(|(_, e)| e.needs_flush())
            .map(|(r, _)| *r)
            .collect();
        for resource in dirty {
            self.flush(resource, out);
        }
    }

    /// Writes `resource`'s dirty tail back, keeping the token.
    fn flush(&mut self, resource: R, out: &mut Vec<WbClientOutput<R, D>>) {
        let req = self.fresh_req();
        let e = self.entries.get_mut(&resource).expect("present");
        e.flushing = true;
        self.counters.flushes += 1;
        self.flush_reqs.insert(
            req,
            FlushRecord {
                resource,
                version: e.version,
                durable_before: e.durable,
            },
        );
        out.push(WbClientOutput::Send(WbToServer::WriteBack {
            req,
            resource,
            reservation: e.resv.expect("write lease").id,
            version: e.version,
            data: e.data.clone(),
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type C = WbClient<u64, u64>;

    fn client() -> C {
        WbClient::new(
            ClientId(1),
            WbClientConfig {
                epsilon: Dur::from_millis(10),
                flush_interval: Dur::from_secs(2),
            },
        )
    }

    fn t(ms: u64) -> Time {
        Time::from_millis(ms)
    }

    fn grant(
        resource: u64,
        mode: Mode,
        version: u64,
        data: u64,
        resv: Option<Reservation>,
    ) -> WbToClient<u64, u64> {
        WbToClient::Granted {
            req: ReqId(0),
            resource,
            mode,
            version: Version(version),
            data: Some(data),
            term: Dur::from_secs(10),
            reservation: resv,
        }
    }

    fn resv(id: u64, first: u64, last: u64) -> Reservation {
        Reservation {
            id,
            first: Version(first),
            last: Version(last),
        }
    }

    #[test]
    fn read_acquires_then_hits() {
        let mut c = client();
        let out = c.handle(
            t(0),
            WbInput::Read {
                op: OpId(1),
                resource: 7,
            },
        );
        assert!(matches!(
            &out[0],
            WbClientOutput::Send(WbToServer::Acquire {
                mode: Mode::Read,
                ..
            })
        ));
        let out = c.handle(t(3), WbInput::Msg(grant(7, Mode::Read, 1, 42, None)));
        assert!(out.iter().any(|o| matches!(
            o,
            WbClientOutput::Done {
                result: Some(OpOutcome::Read {
                    from_cache: false,
                    ..
                }),
                ..
            }
        )));
        let out = c.handle(
            t(100),
            WbInput::Read {
                op: OpId(2),
                resource: 7,
            },
        );
        assert!(matches!(
            &out[0],
            WbClientOutput::Done {
                result: Some(OpOutcome::Read {
                    from_cache: true,
                    ..
                }),
                ..
            }
        ));
        assert_eq!(c.counters.local_reads, 1);
    }

    #[test]
    fn writes_buffer_locally_under_the_token() {
        let mut c = client();
        let out = c.handle(
            t(0),
            WbInput::Write {
                op: OpId(1),
                resource: 7,
                data: 10,
            },
        );
        assert!(matches!(
            &out[0],
            WbClientOutput::Send(WbToServer::Acquire {
                mode: Mode::Write,
                ..
            })
        ));
        let out = c.handle(
            t(2),
            WbInput::Msg(grant(7, Mode::Write, 1, 42, Some(resv(5, 2, 100)))),
        );
        // The queued write applies with the first reserved version.
        assert!(out.iter().any(|o| matches!(
            o,
            WbClientOutput::LocalCommit {
                version: Version(2),
                ..
            }
        )));
        // Further writes are pure local operations.
        let out = c.handle(
            t(10),
            WbInput::Write {
                op: OpId(2),
                resource: 7,
                data: 11,
            },
        );
        assert!(matches!(
            &out[0],
            WbClientOutput::LocalCommit {
                version: Version(3),
                ..
            }
        ));
        assert!(matches!(
            &out[1],
            WbClientOutput::Done {
                result: Some(OpOutcome::Write {
                    version: Version(3)
                }),
                ..
            }
        ));
        assert_eq!(out.len(), 2, "no server contact");
        assert_eq!(c.counters.local_writes, 2);
        // Reading our own buffered data is a local hit at the new version.
        let out = c.handle(
            t(11),
            WbInput::Read {
                op: OpId(3),
                resource: 7,
            },
        );
        assert!(matches!(
            &out[0],
            WbClientOutput::Done {
                result: Some(OpOutcome::Read {
                    data: 11,
                    version: Version(3),
                    from_cache: true
                }),
                ..
            }
        ));
    }

    #[test]
    fn flush_timer_writes_back_and_clears_dirty() {
        let mut c = client();
        c.handle(
            t(0),
            WbInput::Write {
                op: OpId(1),
                resource: 7,
                data: 10,
            },
        );
        c.handle(
            t(2),
            WbInput::Msg(grant(7, Mode::Write, 1, 42, Some(resv(5, 2, 100)))),
        );
        let out = c.handle(t(2000), WbInput::Timer(WbClientTimer::Flush));
        let wb = out.iter().find_map(|o| match o {
            WbClientOutput::Send(WbToServer::WriteBack {
                req, version, data, ..
            }) => Some((*req, *version, *data)),
            _ => None,
        });
        let (req, version, data) = wb.expect("flush sent");
        assert_eq!((version, data), (Version(2), 10));
        // And it re-arms the timer.
        assert!(out
            .iter()
            .any(|o| matches!(o, WbClientOutput::SetTimer { .. })));
        // The ack clears the dirty bit.
        c.handle(
            t(2005),
            WbInput::Msg(WbToClient::Flushed { req, resource: 7 }),
        );
        assert!(c.dirty_state().is_empty());
        // A second tick has nothing to send but re-arms.
        let out = c.handle(t(4000), WbInput::Timer(WbClientTimer::Flush));
        assert!(!out.iter().any(|o| matches!(o, WbClientOutput::Send(_))));
    }

    #[test]
    fn write_between_flush_and_ack_stays_dirty() {
        let mut c = client();
        c.handle(
            t(0),
            WbInput::Write {
                op: OpId(1),
                resource: 7,
                data: 10,
            },
        );
        c.handle(
            t(2),
            WbInput::Msg(grant(7, Mode::Write, 1, 42, Some(resv(5, 2, 100)))),
        );
        let out = c.handle(t(2000), WbInput::Timer(WbClientTimer::Flush));
        let req = out
            .iter()
            .find_map(|o| match o {
                WbClientOutput::Send(WbToServer::WriteBack { req, .. }) => Some(*req),
                _ => None,
            })
            .unwrap();
        // Another write lands while the flush is in flight.
        c.handle(
            t(2001),
            WbInput::Write {
                op: OpId(2),
                resource: 7,
                data: 11,
            },
        );
        c.handle(
            t(2005),
            WbInput::Msg(WbToClient::Flushed { req, resource: 7 }),
        );
        // v2 is durable but v3 is still dirty.
        assert_eq!(c.dirty_state(), vec![(7, Version(2), Version(3))]);
    }

    #[test]
    fn recall_flushes_dirty_and_releases() {
        let mut c = client();
        c.handle(
            t(0),
            WbInput::Write {
                op: OpId(1),
                resource: 7,
                data: 10,
            },
        );
        c.handle(
            t(2),
            WbInput::Msg(grant(7, Mode::Write, 1, 42, Some(resv(5, 2, 100)))),
        );
        let out = c.handle(t(50), WbInput::Msg(WbToClient::Recall { resource: 7 }));
        let released = out.iter().find_map(|o| match o {
            WbClientOutput::Send(WbToServer::Release {
                reservation, dirty, ..
            }) => Some((*reservation, *dirty)),
            _ => None,
        });
        assert_eq!(released, Some((Some(5), Some((Version(2), 10)))));
        assert_eq!(c.counters.recalls, 1);
        // Subsequent reads must re-acquire.
        let out = c.handle(
            t(60),
            WbInput::Read {
                op: OpId(2),
                resource: 7,
            },
        );
        assert!(matches!(
            &out[0],
            WbClientOutput::Send(WbToServer::Acquire { .. })
        ));
    }

    #[test]
    fn flush_rejection_reports_lost_writes() {
        let mut c = client();
        c.handle(
            t(0),
            WbInput::Write {
                op: OpId(1),
                resource: 7,
                data: 10,
            },
        );
        c.handle(
            t(2),
            WbInput::Msg(grant(7, Mode::Write, 1, 42, Some(resv(5, 2, 100)))),
        );
        let out = c.handle(t(2000), WbInput::Timer(WbClientTimer::Flush));
        let req = out
            .iter()
            .find_map(|o| match o {
                WbClientOutput::Send(WbToServer::WriteBack { req, .. }) => Some(*req),
                _ => None,
            })
            .unwrap();
        let out = c.handle(
            t(2005),
            WbInput::Msg(WbToClient::FlushRejected { req, resource: 7 }),
        );
        assert!(matches!(
            &out[0],
            WbClientOutput::Lost {
                resource: 7,
                last_durable: Version(1),
                last_lost: Version(2)
            }
        ));
        assert_eq!(c.counters.lost_flushes, 1);
    }

    #[test]
    fn dirty_state_reports_for_crash_accounting() {
        let mut c = client();
        c.handle(
            t(0),
            WbInput::Write {
                op: OpId(1),
                resource: 7,
                data: 10,
            },
        );
        c.handle(
            t(2),
            WbInput::Msg(grant(7, Mode::Write, 1, 42, Some(resv(5, 2, 100)))),
        );
        assert_eq!(c.dirty_state(), vec![(7, Version(1), Version(2))]);
        c.crash();
        assert!(c.dirty_state().is_empty());
        // Post-crash reads re-acquire from scratch.
        let out = c.handle(
            t(10),
            WbInput::Read {
                op: OpId(2),
                resource: 7,
            },
        );
        assert!(matches!(
            &out[0],
            WbClientOutput::Send(WbToServer::Acquire { .. })
        ));
    }

    #[test]
    fn reads_and_writes_coalesce_onto_one_acquire() {
        let mut c = client();
        c.handle(
            t(0),
            WbInput::Read {
                op: OpId(1),
                resource: 7,
            },
        );
        // A write joins the in-flight (read) acquire; the grant handler
        // re-acquires in write mode for it.
        let out = c.handle(
            t(1),
            WbInput::Write {
                op: OpId(2),
                resource: 7,
                data: 9,
            },
        );
        assert!(out.is_empty(), "queued behind the in-flight acquire");
        let out = c.handle(t(3), WbInput::Msg(grant(7, Mode::Read, 1, 42, None)));
        // Read completes; the write triggers a write-mode acquire.
        assert!(out
            .iter()
            .any(|o| matches!(o, WbClientOutput::Done { op: OpId(1), .. })));
        assert!(out.iter().any(|o| matches!(
            o,
            WbClientOutput::Send(WbToServer::Acquire {
                mode: Mode::Write,
                ..
            })
        )));
    }

    #[test]
    fn expired_token_reacquires_before_writing() {
        let mut c = client();
        c.handle(
            t(0),
            WbInput::Write {
                op: OpId(1),
                resource: 7,
                data: 10,
            },
        );
        c.handle(
            t(2),
            WbInput::Msg(grant(7, Mode::Write, 1, 42, Some(resv(5, 2, 100)))),
        );
        // Far past the 10 s term: the dirty tail is flushed under the old
        // reservation first, then a fresh token is acquired.
        let out = c.handle(
            t(60_000),
            WbInput::Write {
                op: OpId(2),
                resource: 7,
                data: 11,
            },
        );
        assert!(matches!(
            &out[0],
            WbClientOutput::Send(WbToServer::WriteBack {
                version: Version(2),
                ..
            })
        ));
        assert!(matches!(
            &out[1],
            WbClientOutput::Send(WbToServer::Acquire {
                mode: Mode::Write,
                ..
            })
        ));
    }
}
