//! Server bring-up through the program's public functions, and the two
//! pieces both raw-protocol generators (`wire_batched`, `svc_depth`)
//! need: the table of ops in flight and the output checker.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use lease_clock::{Clock, Dur, WallClock};
use lease_core::{LeaseServer, ReqId, ServerConfig, Storage, ToClient, ToServer, WriteId};
use lease_net::NetServer;
use lease_svc::{Egress, EgressSink, LeaseService, SvcConfig, SvcHooks};
use lease_wire::WireValue;

use crate::gen::Op;
use crate::procstat;
use crate::report::Outcome;

/// Reply lanes hold this many messages per client: deeper than anything
/// a generator keeps in flight, so a lane never stalls the shard.
const LANE_CAP: usize = 4096;

/// The accept loop polls its listener every 100 ms. A connect issued
/// right after `bind` races the loop's first poll and is served either
/// at once or 100 ms later; waiting this long first always lands it on
/// the second poll, so set-up time is one number and not two.
pub const ACCEPT_SETTLE: std::time::Duration = std::time::Duration::from_millis(20);

/// The two "hosts" of a run, as cores: (client side, server). The client
/// side is generator or application threads and the client runtime; the
/// server is every thread the service and its TCP front start. Nothing
/// the generator does can then take time from the program it measures,
/// and no thread wanders between cores from one run to the next. They are
/// the first two CPUs the process was allowed at its start (0 and 1 when
/// the kernel does not say); with one CPU both sides share it.
pub fn cores() -> (usize, usize) {
    static CORES: OnceLock<(usize, usize)> = OnceLock::new();
    *CORES.get_or_init(|| match procstat::allowed_cpus()[..] {
        [] => (0, 1),
        [only] => (only, only),
        [client, server, ..] => (client, server),
    })
}

/// Pins the calling thread to the client side's core.
pub fn pin_client_side() {
    lease_core::affinity::pin_to_core(cores().0);
}

/// A one-shard service started in this process, with or without its TCP
/// front.
pub struct Server<D: Clone + Send + 'static> {
    pub service: LeaseService<u64, D>,
    pub egress: Egress<u64, D>,
    pub net: Option<NetServer>,
    pub clock: Arc<dyn Clock>,
}

impl<D: Clone + Send + WireValue + 'static> Server<D> {
    /// Starts the service for `clients` client ids. `store` builds the
    /// shard's primary storage (on the shard's thread). With `net` the
    /// service is bound to a loopback port and the caller connects to
    /// `self.addr()`; without it the caller owns the egress lanes.
    pub fn start<S>(
        clients: usize,
        term: Dur,
        net: bool,
        store: impl Fn(&Arc<dyn Clock>) -> S + Send + Sync + 'static,
    ) -> Server<D>
    where
        S: Storage<u64, D> + Send + 'static,
    {
        // Threads inherit their creator's affinity, so bringing the
        // server up from a thread pinned to the server's core puts every
        // thread it ever starts there: shard, accept loop, readers, writers.
        std::thread::scope(|s| {
            s.spawn(move || {
                lease_core::affinity::pin_to_core(cores().1);
                Server::bring_up(clients, term, net, store)
            })
            .join()
            .expect("server bring-up does not panic")
        })
    }

    fn bring_up<S>(
        clients: usize,
        term: Dur,
        net: bool,
        store: impl Fn(&Arc<dyn Clock>) -> S + Send + Sync + 'static,
    ) -> Server<D>
    where
        S: Storage<u64, D> + Send + 'static,
    {
        let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
        let egress: Egress<u64, D> = Egress::new(clients, LANE_CAP);
        let store_clock = Arc::clone(&clock);
        let service = LeaseService::spawn(
            SvcConfig {
                shards: 1,
                pin: Some(cores().1),
                ..SvcConfig::default()
            },
            Arc::new(EgressSink::new(egress.clone())),
            SvcHooks {
                clock: Some(Arc::clone(&clock)),
                ..SvcHooks::default()
            },
            move |_| {
                (
                    LeaseServer::new(ServerConfig::fixed(term)),
                    Box::new(store(&store_clock)) as Box<dyn Storage<u64, D> + Send>,
                )
            },
        );
        let net = net.then(|| {
            let server =
                NetServer::bind("127.0.0.1:0", service.handle(), &egress, Arc::clone(&clock))
                    .expect("bind a loopback port");
            std::thread::sleep(ACCEPT_SETTLE);
            server
        });
        Server {
            service,
            egress,
            net,
            clock,
        }
    }

    pub fn addr(&self) -> std::net::SocketAddr {
        self.net.as_ref().expect("started with net").local_addr()
    }

    /// Service-side counters, read from outside, over a life in which
    /// `ops` completed.
    pub fn put_counters(&self, out: &mut Outcome, ops: u64) {
        let ops = ops.max(1) as f64;
        let stats = self.service.stats().expect("the shard answers");
        let c = &stats.counters;
        out.put_value("svc.wakes_per_op", self.egress.wakes() as f64 / ops);
        out.put_value("svc.sheds", c.sheds as f64);
        out.put_value("svc.expired_drops", c.expired_drops as f64);
        out.put_value("svc.restarts", stats.restarts.iter().sum::<u64>() as f64);
        out.put_value("core.server.grants_per_op", c.grants as f64 / ops);
        out.put_value(
            "core.server.writes_deferred_share",
            c.writes_deferred as f64 / c.writes_rx.max(1) as f64,
        );
        out.put_value(
            "core.server.approvals_per_write",
            c.approvals_rx as f64 / c.writes_rx.max(1) as f64,
        );
    }

    pub fn shutdown(self) {
        if let Some(net) = self.net {
            net.shutdown();
        }
        self.service.shutdown();
    }
}

/// Low bits of a `u64` datum name its file; the rest is the write's
/// sequence number (0 for a file's initial contents).
pub const FILE_BITS: u32 = 20;
pub const FILE_MASK: u64 = (1 << FILE_BITS) - 1;

pub fn datum(write_seq: u64, file: u64) -> u64 {
    debug_assert!(file <= FILE_MASK);
    (write_seq << FILE_BITS) | file
}

/// One op in flight.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pending {
    pub file: u32,
    /// The write's sequence number; 0 for a fetch.
    pub write_seq: u64,
    /// When the op was due (paced) — ns on the generator's clock.
    pub due_ns: u64,
}

/// Ops in flight, keyed by the request id the server echoes. A slot's
/// generation rides in the id's high half, so a reply to a request whose
/// slot was since reused is recognised and ignored.
#[derive(Default)]
pub struct InFlight {
    slots: Vec<(u32, Option<Pending>)>,
    free: Vec<u32>,
    live: usize,
}

impl InFlight {
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn insert(&mut self, p: Pending) -> u64 {
        let idx = self.free.pop().unwrap_or_else(|| {
            self.slots.push((0, None));
            (self.slots.len() - 1) as u32
        });
        let slot = &mut self.slots[idx as usize];
        slot.0 = slot.0.wrapping_add(1);
        slot.1 = Some(p);
        self.live += 1;
        (u64::from(slot.0) << 32) | u64::from(idx)
    }

    pub fn get(&self, req: u64) -> Option<&Pending> {
        let (gen, p) = self.slots.get((req & 0xFFFF_FFFF) as usize)?;
        (u64::from(*gen) == req >> 32)
            .then_some(p.as_ref())
            .flatten()
    }

    pub fn remove(&mut self, req: u64) -> Option<Pending> {
        self.get(req)?;
        let idx = (req & 0xFFFF_FFFF) as u32;
        self.free.push(idx);
        self.live -= 1;
        self.slots[idx as usize].1.take()
    }
}

/// The output check of the raw-protocol workloads. Every datum written
/// carries its file and a sequence number, so each grant can be held to:
/// the version a client sees for a file never goes backwards, the data
/// belongs to that file, and it is exactly what was committed at that
/// version.
pub struct Checker {
    /// Last version seen, per `file * clients + client`.
    seen: Vec<u32>,
    clients: usize,
    /// Version each write committed at, by write sequence number
    /// (0 until its `WriteDone` arrives).
    committed: Vec<u32>,
    /// Grants that arrived before their write's `WriteDone` (another
    /// client's reply lane can be faster): write seq → version granted.
    early: HashMap<u64, u32>,
    pub violations: u64,
}

impl Checker {
    pub fn new(files: u64, clients: usize) -> Checker {
        Checker {
            seen: vec![0; files as usize * clients],
            clients,
            committed: vec![0],
            early: HashMap::new(),
            violations: 0,
        }
    }

    /// Registers a write about to be issued; returns its sequence number.
    pub fn next_write(&mut self) -> u64 {
        self.committed.push(0);
        (self.committed.len() - 1) as u64
    }

    fn advance(&mut self, client: usize, file: u64, version: u64) {
        let seen = &mut self.seen[file as usize * self.clients + client];
        if version < u64::from(*seen) {
            self.violations += 1;
        }
        *seen = version as u32;
    }

    pub fn on_grant(&mut self, client: usize, file: u64, version: u64, data: Option<u64>) {
        self.advance(client, file, version);
        let Some(data) = data else { return };
        let seq = data >> FILE_BITS;
        if data & FILE_MASK != file || (seq == 0) != (version == 1) {
            self.violations += 1;
        } else if seq != 0 {
            match self.committed.get(seq as usize).copied() {
                None => self.violations += 1,
                Some(0) => {
                    self.early.insert(seq, version as u32);
                }
                Some(v) => self.violations += u64::from(u64::from(v) != version),
            }
        }
    }

    pub fn on_write_done(&mut self, client: usize, file: u64, version: u64, write_seq: u64) {
        self.advance(client, file, version);
        self.committed[write_seq as usize] = version as u32;
        if let Some(v) = self.early.remove(&write_seq) {
            self.violations += u64::from(u64::from(v) != version);
        }
    }
}

/// Registers `op` as in flight and builds its request.
pub fn request(
    in_flight: &mut InFlight,
    checker: &mut Checker,
    op: Op,
    due_ns: u64,
) -> ToServer<u64, u64> {
    let file = op.file();
    let write_seq = if op.is_write() {
        checker.next_write()
    } else {
        0
    };
    let req = ReqId(in_flight.insert(Pending {
        file: file as u32,
        write_seq,
        due_ns,
    }));
    if op.is_write() {
        ToServer::Write {
            req,
            resource: file,
            data: datum(write_seq, file),
        }
    } else {
        ToServer::Fetch {
            req,
            resource: file,
            cached: None,
            also_extend: Vec::new(),
        }
    }
}

/// What a reply did to the ops in flight.
pub enum Settled {
    /// It completed this op (and passed through the checker).
    Done(Pending),
    /// It asks `client` to approve a write.
    Approve(WriteId),
    /// The server refused an op.
    Failed,
    /// It answered nothing still in flight.
    Nothing,
}

/// Matches a reply on `client`'s lane against the ops in flight.
pub fn settle(
    in_flight: &mut InFlight,
    checker: &mut Checker,
    client: usize,
    m: ToClient<u64, u64>,
) -> Settled {
    match m {
        ToClient::Grants { req, grants } => {
            let Some(p) = in_flight.get(req.0).copied() else {
                return Settled::Nothing;
            };
            // A fetch parked behind a write can be answered in two parts;
            // only the grant of its own file completes it.
            let Some(g) = grants.iter().find(|g| g.resource == u64::from(p.file)) else {
                return Settled::Nothing;
            };
            checker.on_grant(client, g.resource, g.version.0, g.data);
            in_flight.remove(req.0);
            Settled::Done(p)
        }
        ToClient::WriteDone {
            req,
            resource,
            version,
            ..
        } => match in_flight.remove(req.0) {
            Some(p) => {
                checker.on_write_done(client, resource, version.0, p.write_seq);
                Settled::Done(p)
            }
            None => Settled::Nothing,
        },
        ToClient::ApprovalRequest { write_id, .. } => Settled::Approve(write_id),
        ToClient::Error { req, .. } => match in_flight.remove(req.0) {
            Some(_) => Settled::Failed,
            None => Settled::Nothing,
        },
        ToClient::InstalledExtend { .. } => Settled::Nothing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_flight_ids_do_not_alias_after_reuse() {
        let mut f = InFlight::default();
        let a = f.insert(Pending {
            file: 1,
            ..Pending::default()
        });
        assert_eq!(f.get(a).map(|p| p.file), Some(1));
        assert_eq!(f.remove(a).map(|p| p.file), Some(1));
        assert_eq!(f.len(), 0);
        let b = f.insert(Pending {
            file: 2,
            ..Pending::default()
        });
        assert_ne!(a, b);
        assert_eq!(a & 0xFFFF_FFFF, b & 0xFFFF_FFFF, "the slot is reused");
        assert!(f.get(a).is_none() && f.remove(a).is_none());
        assert_eq!(f.remove(b).map(|p| p.file), Some(2));
        assert!(f.remove(b).is_none());
    }

    #[test]
    fn checker_accepts_a_legal_history() {
        let mut c = Checker::new(4, 2);
        c.on_grant(0, 3, 1, Some(datum(0, 3)));
        c.on_grant(1, 3, 1, Some(datum(0, 3)));
        let w = c.next_write();
        // Client 1 sees the new version before client 0 hears WriteDone.
        c.on_grant(1, 3, 2, Some(datum(w, 3)));
        c.on_write_done(0, 3, 2, w);
        c.on_grant(0, 3, 2, Some(datum(w, 3)));
        c.on_grant(0, 3, 2, None);
        assert_eq!(c.violations, 0);
    }

    #[test]
    fn checker_catches_each_kind_of_damage() {
        let mut c = Checker::new(4, 2);
        let w = c.next_write();
        c.on_write_done(0, 1, 2, w);
        c.on_grant(0, 1, 1, Some(datum(0, 1)));
        assert_eq!(c.violations, 1, "version went backwards");
        c.on_grant(1, 1, 2, Some(datum(w, 2)));
        assert_eq!(c.violations, 2, "data of another file");
        c.on_grant(1, 1, 3, Some(datum(w, 1)));
        assert_eq!(c.violations, 3, "data of another version");
        c.on_grant(1, 2, 1, Some(datum(w, 2)));
        assert_eq!(c.violations, 4, "written data at the initial version");
        c.on_grant(1, 0, 5, Some(datum(99, 0)));
        assert_eq!(c.violations, 5, "data nobody wrote");
        let w2 = c.next_write();
        c.on_grant(1, 3, 2, Some(datum(w2, 3)));
        c.on_write_done(0, 3, 3, w2);
        assert_eq!(c.violations, 6, "early grant disagrees with the commit");
    }
}
