//! The server side: storage backend and `lease-svc` runtime adapters.
//!
//! The seed ran one server state machine on one dedicated thread behind
//! one channel. The real-time deployment now runs on the sharded
//! `lease-svc` runtime instead: the pieces here adapt it to this crate's
//! world — the durable [`StoreBackend`] shared by every shard, the
//! `RtSink` whose per-worker halves filter shard output (replica fence,
//! and the cuts and dice of the run's one [`LiveFaults`]) in front of the
//! per-client ring lanes, and the `RtPort` clients use to submit
//! protocol messages to whichever replica is serving — the one there is,
//! or under a grantor quorum the one whose gate is open.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use bytes::Bytes;
use lease_clock::{Clock, Time, WallClock};
use lease_core::{ClientId, Storage, ToClient, ToServer, Version};
use lease_faults::{Delivery, HistoryEvent};
use lease_quorum::GrantorGate;
use lease_store::{FileId, Store};
use lease_svc::{ClientSink, Egress, LiveFaults, SvcError, SvcHandle, WorkerSink};

use crate::record::Recorder;

/// The resource key in the real-time system: the store's file id, as u64.
pub type Res = u64;

/// Adapts `lease_store::Store` to the protocol's storage interface.
pub struct StoreBackend {
    /// The underlying durable store.
    pub store: Store,
    clock: WallClock,
    /// Logs every committed version for the consistency oracle.
    pub(crate) recorder: Option<Arc<Recorder>>,
}

impl StoreBackend {
    /// Wraps a store.
    pub fn new(store: Store, clock: WallClock) -> StoreBackend {
        StoreBackend {
            store,
            clock,
            recorder: None,
        }
    }
}

impl Storage<Res, Bytes> for StoreBackend {
    fn read(&self, resource: &Res) -> Option<(Bytes, Version)> {
        if let Ok((data, v)) = self.store.read(FileId(*resource)) {
            return Some((data.clone(), Version(v.0)));
        }
        // Directory resources serve their serialized name bindings (§2:
        // the name-to-file information is leased like any datum).
        let dir = lease_store::DirId(*resource);
        let v = self.store.dir_version(dir)?;
        Some((
            crate::naming::encode_listing(&self.store, dir),
            Version(v.0),
        ))
    }

    fn version(&self, resource: &Res) -> Option<Version> {
        if let Some(f) = self.store.file(FileId(*resource)) {
            return Some(Version(f.version.0));
        }
        self.store
            .dir_version(lease_store::DirId(*resource))
            .map(|v| Version(v.0))
    }

    fn write(&mut self, resource: &Res, data: Bytes) -> Version {
        let now = self.clock.now();
        let before = self.version(resource);
        let committed = if self.store.file(FileId(*resource)).is_some() {
            let v = self
                .store
                .install(FileId(*resource), data, now)
                .expect("file exists");
            Version(v.0)
        } else {
            // A write to a directory resource carries an encoded namespace
            // mutation; it lands here only after the lease protocol
            // collected every binding-holder's approval.
            let dir = lease_store::DirId(*resource);
            if let Some(op) = crate::naming::NameOp::decode(&data) {
                // An op that no longer applies (its name vanished while
                // the write waited for approvals, say) fails in the store
                // and changes nothing: the version stays, no `Commit` is
                // recorded below, and the caches revalidate all the same
                // through the approvals the write already collected.
                let _ = match op {
                    crate::naming::NameOp::Rename { from, to } => {
                        self.store.rename(dir, &from, dir, &to, now).map(|_| ())
                    }
                    crate::naming::NameOp::Unlink { name } => {
                        self.store.unlink(dir, &name, now).map(|_| ())
                    }
                    crate::naming::NameOp::Create { name } => self
                        .store
                        .create_file(
                            dir,
                            &name,
                            lease_store::FileKind::Regular,
                            lease_store::Perms::rw(),
                            now,
                        )
                        .map(|_| ()),
                };
            }
            Version(self.store.dir_version(dir).map(|v| v.0).unwrap_or(0))
        };
        // Only a version that actually advanced is a commit on the
        // oracle's timeline (a no-op name mutation leaves it unchanged).
        if before != Some(committed) {
            if let Some(rec) = &self.recorder {
                rec.push(HistoryEvent::Commit {
                    resource: *resource,
                    version: committed,
                    writer: None,
                    at: rec.now(),
                });
            }
        }
        committed
    }
}

/// The one durable backend, shared by every shard worker. Resources are
/// partitioned by shard, so two shards never write the same file; the
/// mutex only serializes unrelated accesses.
///
/// The lock recovers from poisoning: the store is only ever mutated
/// through committed writes, which either complete before a panic or were
/// never observable, so a holder dying mid-critical-section (a supervised
/// shard crash) must not cascade into whole-server failure.
pub(crate) struct SharedBackend {
    pub store: Arc<Mutex<StoreBackend>>,
    /// Under a quorum, the replica's gate: while it is closed a commit is
    /// refused, so a stale grantor's deferred write cannot mutate the
    /// shared store after its lease lapsed. A refused write returns the
    /// current version; the reply built from it is dropped by the egress
    /// fence anyway, so the client retries against the live grantor.
    pub gate: Option<Arc<GrantorGate>>,
}

/// Locks a possibly-poisoned mutex, accepting the poison: what this
/// crate keeps under one is consistent between any two calls — the store
/// (see [`SharedBackend`]), or a producer's lanes shared with the run's
/// sleeper.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Storage<Res, Bytes> for SharedBackend {
    fn read(&self, resource: &Res) -> Option<(Bytes, Version)> {
        lock(&self.store).read(resource)
    }

    fn version(&self, resource: &Res) -> Option<Version> {
        lock(&self.store).version(resource)
    }

    fn write(&mut self, resource: &Res, data: Bytes) -> Version {
        let mut store = lock(&self.store);
        if self.gate.as_ref().is_none_or(|g| g.is_open()) {
            store.write(resource, data)
        } else {
            store.version(resource).unwrap_or(Version(0))
        }
    }
}

/// What stands between one replica and the clients, checked on every
/// message in both directions: which replica this is, and under a quorum
/// the grantor gate its traffic must pass.
#[derive(Clone)]
pub(crate) struct RtFence {
    /// This service's replica index (for plan-relative cut windows).
    pub replica: usize,
    /// The replica's serving gate: while it is closed — never elected,
    /// lease lapsed, stale after a partition — nothing is submitted to it
    /// and every reply is dropped, so a stale grantor's grants and
    /// approvals cannot reach clients. `None` without a quorum: the one
    /// server always serves, and nothing is checked.
    pub gate: Option<Arc<GrantorGate>>,
}

impl RtFence {
    /// Whether the replica may exchange a message with a client right
    /// now: its gate is open and no plan window cuts it off.
    fn admits(&self, faults: &LiveFaults) -> bool {
        self.gate.as_ref().is_none_or(|g| g.is_open())
            && !faults.replica_cut(self.replica, self.replica)
    }
}

/// What every shard worker's egress half is built from: the per-client
/// ring-lane registry, the replica's fence, and the run's faults.
pub(crate) struct RtSink {
    /// The per-client lane registry.
    pub egress: Egress<Res, Bytes>,
    /// The replica this sink's service is, and its gate.
    pub fence: RtFence,
    /// Cuts, dice and the sleeper.
    pub faults: Arc<LiveFaults>,
}

impl ClientSink<Res, Bytes> for RtSink {
    fn attach_worker(&self) -> Box<dyn WorkerSink<Res, Bytes>> {
        Box::new(RtWorkerSink {
            worker: Arc::new(Mutex::new(Box::new(self.egress.worker()))),
            fence: self.fence.clone(),
            faults: Arc::clone(&self.faults),
        })
    }
}

/// One shard worker's egress half: a filter in front of the worker's
/// ring lanes. Each message passes the replica fence, the client's cut
/// and the chaos dice — all of which can change between two messages of
/// one flush — and is dropped, handed to the sleeper, or left in the
/// flush the lanes then publish one same-client run at a time.
///
/// The lanes are shared with the sleeper: a delayed reply leaves, when
/// due, through the lanes of the worker that held it back, so delaying
/// one costs a map entry — no thread, no lane of its own.
struct RtWorkerSink {
    worker: Arc<Mutex<Box<dyn WorkerSink<Res, Bytes>>>>,
    fence: RtFence,
    faults: Arc<LiveFaults>,
}

impl RtWorkerSink {
    /// Whether `msg` may go out to `to` right now. A message chaos delays
    /// or duplicates is handed to the sleeper and refused here.
    fn admit(&self, to: ClientId, msg: &ToClient<Res, Bytes>) -> bool {
        let c = to.0 as usize;
        // The gate can lapse mid-batch: re-check per message.
        if !self.fence.admits(&self.faults) || self.faults.cut(c) {
            return false;
        }
        match self.faults.s2c(c) {
            Delivery::Drop => false,
            Delivery::Deliver { delay, copies } if !delay.is_zero() || copies != 1 => {
                // Must not block the shard worker: the sleeper publishes
                // it when due, re-checking nothing.
                let (worker, msg) = (Arc::clone(&self.worker), msg.clone());
                self.faults.sleeper().after(delay, move || {
                    let mut run: Vec<_> = (0..copies).map(|_| (to, msg.clone())).collect();
                    lock(&worker).deliver_batch(&mut run);
                });
                false
            }
            Delivery::Deliver { .. } => true,
        }
    }
}

impl WorkerSink<Res, Bytes> for RtWorkerSink {
    fn deliver_batch(&mut self, msgs: &mut Vec<(ClientId, ToClient<Res, Bytes>)>) {
        // A refused message is discarded here, before anything is staged
        // into a lane.
        msgs.retain(|(to, msg)| self.admit(*to, msg));
        lock(&self.worker).deliver_batch(msgs);
    }
}

/// Where a client thread submits protocol messages: the in-process
/// `RtPort`, or a socket ([`TcpPort`](crate::net::TcpPort)).
/// Implementations never block, never hold a message for later and
/// report nothing back: a full lane, a cut link or an unreachable server
/// is a lost message, and the client's retransmission backoff is the one
/// retry schedule for all of them.
///
/// Each client **owns** its port (`Box<dyn Port>`, inside its driver):
/// a [`SvcHandle`] is a per-producer object (one SPSC lane per shard),
/// so ports are cloned per client rather than shared behind an `Arc`.
/// `send` is called only with that client's driver lock held — by the
/// application thread starting a miss or a write, by the client's IO
/// thread retransmitting or (in process) approving, or by a socket
/// client's reader approving or retransmitting into a fresh connection;
/// never two at once. The lock, not thread identity, is what keeps the
/// lanes single-producer; hence `Send` and not `Sync`.
pub trait Port: Send {
    /// Submits one client message, unless faults interfere. `deadline` is
    /// the originating op's drop-dead time, propagated so the service can
    /// discard the work if it drains it too late.
    fn send(&self, from: ClientId, msg: ToServer<Res, Bytes>, deadline: Option<Time>);
}

/// One replica as one producer sees it: the producer's own handle clone
/// (a [`SvcHandle`] is one SPSC lane per shard, single-producer) and the
/// replica's fence.
#[derive(Clone)]
struct Target {
    svc: SvcHandle<Res, Bytes>,
    fence: RtFence,
}

/// The routing core: finds the replica that is serving and submits to it.
/// Without a quorum that is a loop of one with nothing to check. Under
/// one this is **ingress fencing** — a message goes only to a replica
/// whose gate is open, trying the candidates at most once each; with no
/// grantor visible it is dropped and the sender's retransmission backoff
/// is the retry schedule, so failover is free: the next retransmission
/// simply lands on the new grantor.
///
/// Cloning attaches a new producer — fresh lanes into every replica —
/// so every client's port, each plan kill and the system's own admin
/// path hold their own router; all that is shared is the hint of which
/// replica answered last (grantorship is a property of the cluster, not
/// of one cache) and the run's faults.
#[derive(Clone)]
pub(crate) struct Router {
    targets: Vec<Target>,
    current: Arc<AtomicUsize>,
    faults: Arc<LiveFaults>,
}

impl Router {
    /// A router over `replicas`, in replica order.
    pub fn new(
        replicas: impl IntoIterator<Item = (SvcHandle<Res, Bytes>, RtFence)>,
        faults: Arc<LiveFaults>,
    ) -> Router {
        Router {
            targets: replicas
                .into_iter()
                .map(|(svc, fence)| Target { svc, fence })
                .collect(),
            current: Arc::new(AtomicUsize::new(0)),
            faults,
        }
    }

    /// Number of replicas.
    pub fn replicas(&self) -> usize {
        self.targets.len()
    }

    /// This router's handle into replica `i`.
    pub fn svc(&self, i: usize) -> &SvcHandle<Res, Bytes> {
        &self.targets[i].svc
    }

    /// The replicas willing to serve right now — gate open, not cut off —
    /// starting from the last one that answered; one rotation, each with
    /// whether it is the rotation's last. Lazy, so each is checked only
    /// when the one before it fell through.
    fn willing(&self) -> impl Iterator<Item = (usize, bool)> + '_ {
        let n = self.targets.len();
        let start = if n > 1 {
            self.current.load(Ordering::Relaxed)
        } else {
            0
        };
        (0..n)
            .map(move |k| ((start + k) % n, k + 1 == n))
            .filter(|&(i, _)| self.targets[i].fence.admits(&self.faults))
    }

    /// Remembers that replica `i` answered, for every router of the
    /// system. Written only when it moves: every client reads the hint on
    /// every submission.
    fn prefer(&self, i: usize) {
        if self.targets.len() > 1 && self.current.load(Ordering::Relaxed) != i {
            self.current.store(i, Ordering::Relaxed);
        }
    }

    /// The replica that would be tried first, if any is willing.
    pub fn serving(&self) -> Option<usize> {
        self.willing().next().map(|(i, _)| i)
    }

    /// Submits one client message to the first willing replica that takes
    /// it. Never blocks. A dead shard fails the send and, like a closed
    /// gate or a cut, moves on to the next candidate; a full lane is the
    /// serving replica's answer, and the message is lost. Only the
    /// rotation's last candidate (the only one, without a quorum) is not
    /// given a copy.
    pub fn route(&self, from: ClientId, msg: ToServer<Res, Bytes>, deadline: Option<Time>) {
        let mut msg = Some(msg);
        for (i, last) in self.willing() {
            let this = if last { msg.take() } else { msg.clone() }.expect("taken last");
            match self.targets[i].svc.try_send_at(from, this, deadline) {
                Ok(()) | Err(SvcError::Backpressure) => {
                    self.prefer(i);
                    return;
                }
                Err(_) => continue,
            }
        }
    }
}

/// What a client's driver holds instead of a channel to a server thread:
/// its own [`Router`], shared with the sleeper. A submission chaos delays
/// or duplicates leaves, when due, through this same router — so it costs
/// a map entry, no thread and no lane — and goes to whichever replica
/// serves then.
pub(crate) struct RtPort(pub Arc<Mutex<Router>>);

impl Port for RtPort {
    fn send(&self, from: ClientId, msg: ToServer<Res, Bytes>, deadline: Option<Time>) {
        let router = lock(&self.0);
        let (c, faults) = (from.0 as usize, &router.faults);
        if faults.cut(c) {
            return;
        }
        // The uplink dice roll once per submission, not per candidate:
        // the fault lives on the client's link, not on the rotation.
        match faults.c2s(c) {
            Delivery::Drop => {}
            Delivery::Deliver { delay, copies } if !delay.is_zero() || copies != 1 => {
                let late = Arc::clone(&self.0);
                faults.sleeper().after(delay, move || {
                    let router = lock(&late);
                    for _ in 0..copies {
                        router.route(from, msg.clone(), deadline);
                    }
                });
            }
            Delivery::Deliver { .. } => router.route(from, msg, deadline),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use lease_clock::Dur;
    use lease_core::{LeaseServer, MemStorage, ReqId, ServerConfig};
    use lease_faults::FaultPlan;
    use lease_svc::{EgressRx, EgressSink, LeaseService, SvcConfig, SvcHooks};

    use super::*;

    fn reply(n: u64) -> ToClient<Res, Bytes> {
        ToClient::WriteDone {
            req: ReqId(n),
            resource: n,
            version: Version(n),
            term: Dur::from_secs(1),
        }
    }

    fn req_of(m: &ToClient<Res, Bytes>) -> u64 {
        match m {
            ToClient::WriteDone { req, .. } => req.0,
            other => panic!("unexpected message {other:?}"),
        }
    }

    /// The faults of a run over `clients` clients under `plan`.
    fn faults(plan: FaultPlan, clients: usize) -> Arc<LiveFaults> {
        Arc::new(LiveFaults::new(plan, Arc::new(WallClock::new()), clients))
    }

    /// A two-client sink with the given cut switches and chaos plan.
    fn sink(egress: &Egress<Res, Bytes>, cut: [bool; 2], plan: FaultPlan) -> RtSink {
        let faults = faults(plan, 2);
        for (c, on) in cut.into_iter().enumerate() {
            faults.set_cut(c, on);
        }
        RtSink {
            egress: egress.clone(),
            fence: RtFence {
                replica: 0,
                gate: None,
            },
            faults,
        }
    }

    fn drain(rx: &mut EgressRx<Res, Bytes>) -> Vec<u64> {
        let mut out = Vec::new();
        while rx.drain_into(&mut out, 1024) > 0 {}
        out.iter().map(req_of).collect()
    }

    /// The filter sits in front of the lanes: a reply refused by a cut
    /// switch or eaten by the chaos dice is never staged — the refused
    /// client's inbox does not even see a lane registered.
    #[test]
    fn a_cut_or_chaos_dropped_reply_never_reaches_a_lane() {
        let egress: Egress<Res, Bytes> = Egress::new(2, 16);
        let (mut rx0, mut rx1) = (egress.rx(0), egress.rx(1));
        let mut batch: Vec<(ClientId, ToClient<Res, Bytes>)> =
            (0..8).map(|n| (ClientId(n as u32 % 2), reply(n))).collect();

        let mut cut0 = sink(&egress, [true, false], FaultPlan::new(0)).attach_worker();
        cut0.deliver_batch(&mut batch);
        assert!(batch.is_empty());
        assert_eq!(
            drain(&mut rx1),
            [1, 3, 5, 7],
            "client 1 gets its run, in order"
        );
        assert!(drain(&mut rx0).is_empty());
        assert_eq!(
            rx0.adopted(),
            0,
            "nothing was ever staged for the cut client"
        );

        let lossy = FaultPlan::new(7).drop_messages(1.0);
        let mut dropper = sink(&egress, [false, false], lossy).attach_worker();
        batch.extend((8..16).map(|n| (ClientId(0), reply(n))));
        dropper.deliver_batch(&mut batch);
        assert!(drain(&mut rx0).is_empty());
        assert_eq!(
            rx0.adopted(),
            0,
            "nothing was ever staged for a dropped reply"
        );
    }

    /// A chaos-delayed reply leaves on the sleeper, through the lane of
    /// the worker that refused it: one lane, however many replies are
    /// delayed, and one sleeper.
    #[test]
    fn delayed_replies_arrive_through_the_one_sleeper() {
        let egress: Egress<Res, Bytes> = Egress::new(2, 16);
        let mut rx0 = egress.rx(0);
        let slow = FaultPlan::new(3).delay_messages(Dur::from_millis(2));
        let sink = sink(&egress, [false, false], slow);
        let mut worker = sink.attach_worker();
        let mut batch: Vec<_> = (0..200).map(|n| (ClientId(0), reply(n))).collect();
        worker.deliver_batch(&mut batch);

        let mut got = Vec::new();
        let t0 = Instant::now();
        while got.len() < 200 {
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "{} of 200",
                got.len()
            );
            let ticket = rx0.bell().ticket();
            let fresh = drain(&mut rx0);
            if fresh.is_empty() {
                rx0.bell().wait(ticket, Duration::from_millis(50));
            }
            got.extend(fresh);
        }
        got.sort_unstable();
        assert_eq!(got, (0..200).collect::<Vec<u64>>());
        assert_eq!(rx0.adopted(), 1, "only the refusing worker's lane");
        // The faults and their one sleeper thread: nothing else holds it.
        assert_eq!(Arc::strong_count(sink.faults.sleeper()), 2);
    }

    /// The bug this pins: every chaos-delayed submission used to spawn a
    /// thread and clone the service handle — a fresh ring per shard, per
    /// message. Now a thousand of them leave the adopted-lane gauge where
    /// it started.
    #[test]
    fn delayed_submissions_cost_no_thread_and_no_lane() {
        const N: u64 = 1000;
        let egress: Egress<Res, Bytes> = Egress::new(2, 2048);
        let _rx0 = egress.rx(0);
        let service = LeaseService::spawn(
            SvcConfig {
                shards: 2,
                mailbox: 2048,
                ..SvcConfig::default()
            },
            Arc::new(EgressSink::new(egress.clone())),
            SvcHooks::default(),
            |_| {
                let mut store: MemStorage<Res, Bytes> = MemStorage::new();
                for r in 0..16 {
                    store.insert(r, Bytes::new());
                }
                (
                    LeaseServer::new(ServerConfig::fixed(Dur::from_secs(10))),
                    Box::new(store) as Box<dyn Storage<Res, Bytes> + Send>,
                )
            },
        );
        let faults = faults(FaultPlan::new(5).delay_messages(Dur::from_millis(2)), 1);
        let fence = RtFence {
            replica: 0,
            gate: None,
        };
        let port = RtPort(Arc::new(Mutex::new(Router::new(
            [(service.handle(), fence)],
            Arc::clone(&faults),
        ))));
        let lanes_before = service.stats().expect("stats").gauges.ingress_lanes;

        for n in 0..N {
            let fetch = ToServer::Fetch {
                req: ReqId(n),
                resource: n % 16,
                cached: None,
                also_extend: Vec::new(),
            };
            port.send(ClientId(0), fetch, None);
        }
        let t0 = Instant::now();
        loop {
            let stats = service.stats().expect("stats");
            assert_eq!(stats.gauges.ingress_lanes, lanes_before);
            if stats.counters.fetch_rx == N {
                break;
            }
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "{} of {N} delayed submissions arrived",
                stats.counters.fetch_rx
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(
            Arc::strong_count(faults.sleeper()),
            2,
            "one sleeper, no more"
        );
        drop((port, faults));
        service.shutdown();
    }
}
