//! The server side: storage backend and `lease-svc` runtime adapters.
//!
//! The seed ran one server state machine on one dedicated thread behind
//! one channel. The real-time deployment now runs on the sharded
//! `lease-svc` runtime instead: the pieces here adapt it to this crate's
//! world — the durable [`StoreBackend`] shared by every shard, the
//! [`RtSink`] whose per-worker halves filter shard output (cut switches,
//! replica fence, seeded chaos dice) in front of the per-client ring
//! lanes, and the [`RtPort`] clients use to submit protocol messages to
//! whichever replica is serving — the one there is, or under a grantor
//! quorum the one whose gate is open.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use bytes::Bytes;
use lease_clock::{Clock, Dur, Time, WallClock};
use lease_core::{ClientId, ServerCounters, Storage, ToClient, ToServer, Version};
use lease_quorum::GrantorGate;
use lease_store::{FileId, Store};
use lease_svc::{
    chaos::Delivery, ClientSink, Egress, FaultPlan, LinkChaos, SvcError, SvcHandle, WorkerSink,
};
use lease_vsys::HistoryEvent;

use crate::record::Recorder;

/// The resource key in the real-time system: the store's file id, as u64.
pub type Res = u64;

/// Observable server statistics.
#[derive(Debug, Clone)]
pub struct ServerStats {
    /// Protocol counters, merged across every shard.
    pub counters: ServerCounters,
    /// Committed writes in the store.
    pub writes_committed: u64,
    /// Crash/restart count per shard.
    pub shard_restarts: Vec<u64>,
}

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
pub(crate) struct SharedBackend(pub Arc<Mutex<StoreBackend>>);

/// Locks a possibly-poisoned backend mutex, accepting the poison: the
/// data under it is consistent by construction (see [`SharedBackend`]).
pub(crate) fn lock_backend(m: &Mutex<StoreBackend>) -> MutexGuard<'_, StoreBackend> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Storage<Res, Bytes> for SharedBackend {
    fn read(&self, resource: &Res) -> Option<(Bytes, Version)> {
        lock_backend(&self.0).read(resource)
    }

    fn version(&self, resource: &Res) -> Option<Version> {
        lock_backend(&self.0).version(resource)
    }

    fn write(&mut self, resource: &Res, data: Bytes) -> Version {
        lock_backend(&self.0).write(resource, data)
    }
}

/// Storage wrapper that refuses commits while the replica's gate is
/// closed: a stale grantor's deferred write must not mutate the shared
/// store after its lease lapsed. A refused write returns the current
/// version; the reply built from it is dropped by the egress fence
/// anyway, so the client retries against the live grantor.
pub(crate) struct GatedBackend {
    pub inner: SharedBackend,
    pub gate: Arc<GrantorGate>,
}

impl Storage<Res, Bytes> for GatedBackend {
    fn read(&self, resource: &Res) -> Option<(Bytes, Version)> {
        self.inner.read(resource)
    }

    fn version(&self, resource: &Res) -> Option<Version> {
        self.inner.version(resource)
    }

    fn write(&mut self, resource: &Res, data: Bytes) -> Version {
        if self.gate.is_open() {
            self.inner.write(resource, data)
        } else {
            self.inner.version(resource).unwrap_or(Version(0))
        }
    }
}

/// Seeded chaos applied to the client↔server transport: per-link
/// deterministic drop/delay/duplicate dice plus plan-relative cut windows,
/// generalizing the boolean cut switches.
pub(crate) struct ChaosNet {
    plan: FaultPlan,
    truth: WallClock,
    /// Server→client fault dice, one stream per client.
    s2c: Vec<LinkChaos>,
    /// Client→server fault dice, one stream per client.
    c2s: Vec<LinkChaos>,
}

/// Stream-id bit distinguishing the client→server direction.
const C2S_STREAM: u64 = 1 << 32;

impl ChaosNet {
    pub fn new(plan: FaultPlan, truth: WallClock, clients: usize) -> ChaosNet {
        let s2c = (0..clients).map(|i| plan.link(i as u64)).collect();
        let c2s = (0..clients)
            .map(|i| plan.link(i as u64 | C2S_STREAM))
            .collect();
        ChaosNet {
            plan,
            truth,
            s2c,
            c2s,
        }
    }

    /// Elapsed run time on the true clock (plans are start-relative).
    fn elapsed(&self) -> Dur {
        self.truth.now().saturating_since(Time::ZERO)
    }

    /// Whether a plan cut window covers `client` right now.
    pub fn cut(&self, client: usize) -> bool {
        self.plan.cut_active(client, self.elapsed())
    }

    /// Whether a plan cut window covers server replica `replica` now
    /// (a host-level partition).
    pub fn replica_cut(&self, replica: usize) -> bool {
        self.plan.replica_cut_active(replica, self.elapsed())
    }

    pub fn s2c(&self, client: usize) -> Delivery {
        self.s2c[client].next()
    }

    pub fn c2s(&self, client: usize) -> Delivery {
        self.c2s[client].next()
    }
}

/// A protocol message held back by chaos, in either direction.
pub(crate) enum Delayed {
    /// Server→client: published into the sleeper's own egress lanes.
    Reply(ClientId, ToClient<Res, Bytes>),
    /// Client→server: routed, when due, to whichever replica serves then.
    Submission(ClientId, ToServer<Res, Bytes>, Option<Time>),
}

/// One shared sleeper thread servicing every chaos-delayed (or
/// duplicated) message of a system, both directions: entries wait in a
/// map ordered by deadline, the sleeper parks until the earliest one
/// is due and then sends it through its *own* sending halves — an
/// [`Egress`] worker for replies, a [`Router`] for submissions — so
/// a delayed message costs a map entry: no thread, no handle clone, no
/// lane registration. The thread is spawned lazily on the first delayed
/// message (fault-free runs never pay for it) and is stopped and joined
/// when the pool drops, discarding whatever is still pending — an
/// undelivered delayed message is indistinguishable from a dropped one,
/// which chaos already models.
pub(crate) struct DelayPool {
    inner: Arc<DelayShared>,
}

struct DelayShared {
    state: Mutex<DelayState>,
    cvar: Condvar,
    /// The sleeper's sending halves. Locked by the sleeper per delivery
    /// and by [`DelayPool::route_submissions`] once, at set-up.
    io: Mutex<DelayIo>,
}

struct DelayIo {
    replies: Box<dyn WorkerSink<Res, Bytes>>,
    submit: Option<Router>,
}

struct DelayState {
    /// Pending messages by `(due, insertion order)`, so the earliest
    /// deadline comes first and equal deadlines deliver FIFO; the value is
    /// the message and how many copies of it to send.
    pending: BTreeMap<(Instant, u64), (Delayed, u32)>,
    seq: u64,
    sleeper: Option<JoinHandle<()>>,
    closed: bool,
}

impl DelayPool {
    /// A pool whose delayed replies reach clients through `egress`.
    /// Delayed submissions are dropped until
    /// [`DelayPool::route_submissions`] says where they go.
    pub fn new(egress: &Egress<Res, Bytes>) -> DelayPool {
        DelayPool {
            inner: Arc::new(DelayShared {
                state: Mutex::new(DelayState {
                    pending: BTreeMap::new(),
                    seq: 0,
                    sleeper: None,
                    closed: false,
                }),
                cvar: Condvar::new(),
                io: Mutex::new(DelayIo {
                    replies: Box::new(egress.worker()),
                    submit: None,
                }),
            }),
        }
    }

    /// Installs the client→server route (the services it needs exist only
    /// after the sinks holding this pool do). [`Router::route`] never
    /// blocks, which the sleeper — it serves every link — relies on.
    pub fn route_submissions(&self, route: Router) {
        self.inner
            .io
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .submit = Some(route);
    }

    /// Queues `copies` of `what` to be sent once `delay` has passed.
    pub fn schedule(&self, delay: Dur, what: Delayed, copies: u32) {
        let due = Instant::now() + std::time::Duration::from(delay);
        let mut st = self
            .inner
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if st.closed {
            return;
        }
        let seq = st.seq;
        st.seq += 1;
        st.pending.insert((due, seq), (what, copies));
        if st.sleeper.is_none() {
            let inner = Arc::clone(&self.inner);
            st.sleeper = Some(
                std::thread::Builder::new()
                    .name("rt-chaos-delay".into())
                    .spawn(move || inner.run())
                    .expect("spawn chaos delay sleeper"),
            );
        }
        drop(st);
        self.inner.cvar.notify_one();
    }
}

impl Drop for DelayPool {
    fn drop(&mut self) {
        let mut st = self
            .inner
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        st.closed = true;
        st.pending.clear();
        let sleeper = st.sleeper.take();
        drop(st);
        self.inner.cvar.notify_all();
        if let Some(t) = sleeper {
            let _ = t.join();
        }
    }
}

impl DelayShared {
    fn run(&self) {
        let mut run: Vec<(ClientId, ToClient<Res, Bytes>)> = Vec::new();
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if st.closed {
                return;
            }
            let Some((&(due, _), _)) = st.pending.first_key_value() else {
                st = self.cvar.wait(st).unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            let now = Instant::now();
            if due > now {
                st = self
                    .cvar
                    .wait_timeout(st, due - now)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
                continue;
            }
            let (_, (what, copies)) = st.pending.pop_first().expect("peeked");
            // Deliver outside the lock: schedulers must never block
            // behind a slow client's full lane.
            drop(st);
            let mut io = self.io.lock().unwrap_or_else(PoisonError::into_inner);
            match what {
                Delayed::Reply(to, msg) => {
                    run.extend((0..copies).map(|_| (to, msg.clone())));
                    io.replies.deliver_batch(&mut run);
                }
                Delayed::Submission(from, msg, deadline) => {
                    if let Some(submit) = &io.submit {
                        for _ in 0..copies {
                            submit.route(from, msg.clone(), deadline);
                        }
                    }
                }
            }
            drop(io);
            st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
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
    fn admits(&self, chaos: Option<&ChaosNet>) -> bool {
        self.gate.as_ref().is_none_or(|g| g.is_open())
            && !chaos.is_some_and(|c| c.replica_cut(self.replica))
    }
}

/// What every shard worker's egress half is built from: the per-client
/// ring-lane registry plus the filters that sit in front of it.
pub(crate) struct RtSink {
    /// The per-client lane registry.
    pub egress: Egress<Res, Bytes>,
    /// Per-client cut switches, which fault injection can flip at any
    /// moment.
    pub cuts: Vec<Arc<AtomicBool>>,
    pub chaos: Option<Arc<ChaosNet>>,
    /// The replica this sink's service is, and its gate.
    pub fence: RtFence,
    /// The system's shared sleeper for chaos-delayed messages.
    pub delay: Arc<DelayPool>,
}

impl ClientSink<Res, Bytes> for RtSink {
    fn attach_worker(&self) -> Box<dyn WorkerSink<Res, Bytes>> {
        Box::new(RtWorkerSink {
            worker: Box::new(self.egress.worker()),
            cuts: self.cuts.clone(),
            chaos: self.chaos.clone(),
            fence: self.fence.clone(),
            delay: Arc::clone(&self.delay),
        })
    }
}

/// One shard worker's egress half: a filter in front of the worker's
/// ring lanes. Each message passes the replica fence, the client's cut
/// switch and the chaos dice — all of which can change between two
/// messages of one flush — and is dropped, handed to the [`DelayPool`]
/// sleeper, or left in the flush the lanes then publish one same-client
/// run at a time.
struct RtWorkerSink {
    worker: Box<dyn WorkerSink<Res, Bytes>>,
    cuts: Vec<Arc<AtomicBool>>,
    chaos: Option<Arc<ChaosNet>>,
    fence: RtFence,
    delay: Arc<DelayPool>,
}

impl RtWorkerSink {
    /// Whether `msg` may go out to `to` right now. A message chaos delays
    /// or duplicates is handed to the sleeper and refused here.
    fn admit(&self, to: ClientId, msg: &ToClient<Res, Bytes>) -> bool {
        let c = to.0 as usize;
        // The gate can lapse mid-batch: re-check per message.
        if !self.fence.admits(self.chaos.as_deref()) {
            return false;
        }
        if self.cuts[c].load(Ordering::Relaxed) {
            return false;
        }
        let Some(chaos) = &self.chaos else {
            return true;
        };
        if chaos.cut(c) {
            return false;
        }
        match chaos.s2c(c) {
            Delivery::Drop => false,
            Delivery::Deliver { delay, copies } if !delay.is_zero() || copies != 1 => {
                // Must not block the shard worker: the shared sleeper
                // publishes it when due.
                let held = Delayed::Reply(to, msg.clone());
                self.delay.schedule(delay, held, copies);
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
        self.worker.deliver_batch(msgs);
    }
}

/// Where a client thread submits protocol messages: the in-process
/// [`RtPort`], or a socket ([`TcpPort`](crate::net::TcpPort)).
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
/// so every client's port, the [`DelayPool`] sleeper, the kill driver and
/// the system's own admin path each hold their own router; all that is
/// shared is the hint of which replica answered last (grantorship is a
/// property of the cluster, not of one cache).
#[derive(Clone)]
pub(crate) struct Router {
    targets: Vec<Target>,
    current: Arc<AtomicUsize>,
    chaos: Option<Arc<ChaosNet>>,
}

impl Router {
    /// A router over `replicas`, in replica order.
    pub fn new(
        replicas: impl IntoIterator<Item = (SvcHandle<Res, Bytes>, RtFence)>,
        chaos: Option<Arc<ChaosNet>>,
    ) -> Router {
        Router {
            targets: replicas
                .into_iter()
                .map(|(svc, fence)| Target { svc, fence })
                .collect(),
            current: Arc::new(AtomicUsize::new(0)),
            chaos,
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
    /// starting from the last one that answered; one rotation. Lazy, so
    /// each is checked only when the one before it fell through.
    fn willing(&self) -> impl Iterator<Item = usize> + '_ {
        let n = self.targets.len();
        let start = if n > 1 {
            self.current.load(Ordering::Relaxed)
        } else {
            0
        };
        (0..n)
            .map(move |k| (start + k) % n)
            .filter(|&i| self.targets[i].fence.admits(self.chaos.as_deref()))
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
        self.willing().next()
    }

    /// Submits one client message to the first willing replica that takes
    /// it. Never blocks. A dead shard fails the send and, like a closed
    /// gate or a cut, moves on to the next candidate; a full lane is the
    /// serving replica's answer, and the message is lost.
    pub fn route(&self, from: ClientId, msg: ToServer<Res, Bytes>, deadline: Option<Time>) {
        for i in self.willing() {
            match self.targets[i].svc.try_send_at(from, msg.clone(), deadline) {
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
/// its own [`Router`], the cut switches, and — for the inbound direction
/// of the chaos dice (the router carries them) — the sleeper.
pub(crate) struct RtPort {
    pub router: Router,
    pub cuts: Arc<Vec<Arc<AtomicBool>>>,
    pub delay: Arc<DelayPool>,
}

impl Port for RtPort {
    fn send(&self, from: ClientId, msg: ToServer<Res, Bytes>, deadline: Option<Time>) {
        if self.cuts[from.0 as usize].load(Ordering::Relaxed) {
            return; // Fault injection: drop inbound too.
        }
        if let Some(chaos) = &self.router.chaos {
            if chaos.cut(from.0 as usize) {
                return;
            }
            // The uplink dice roll once per submission, not per candidate:
            // the fault lives on the client's link, not on the rotation.
            match chaos.c2s(from.0 as usize) {
                Delivery::Drop => return,
                Delivery::Deliver { delay, copies } => {
                    if !delay.is_zero() || copies != 1 {
                        // A late (or duplicated) submission leaves off the
                        // client thread, on the system's one sleeper, which
                        // resolves the serving replica at delivery time.
                        let held = Delayed::Submission(from, msg, deadline);
                        self.delay.schedule(delay, held, copies);
                        return;
                    }
                }
            }
        }
        self.router.route(from, msg, deadline)
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use lease_core::{LeaseServer, MemStorage, ReqId, ServerConfig};
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

    /// A two-client sink with the given cut switches and chaos plan.
    fn sink(egress: &Egress<Res, Bytes>, cut: [bool; 2], plan: Option<FaultPlan>) -> RtSink {
        RtSink {
            egress: egress.clone(),
            cuts: cut.map(|c| Arc::new(AtomicBool::new(c))).to_vec(),
            chaos: plan.map(|p| Arc::new(ChaosNet::new(p, WallClock::new(), 2))),
            fence: RtFence {
                replica: 0,
                gate: None,
            },
            delay: Arc::new(DelayPool::new(egress)),
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

        let mut cut0 = sink(&egress, [true, false], None).attach_worker();
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
        let mut dropper = sink(&egress, [false, false], Some(lossy)).attach_worker();
        batch.extend((8..16).map(|n| (ClientId(0), reply(n))));
        dropper.deliver_batch(&mut batch);
        assert!(drain(&mut rx0).is_empty());
        assert_eq!(
            rx0.adopted(),
            0,
            "nothing was ever staged for a dropped reply"
        );
    }

    /// A chaos-delayed reply leaves through the sleeper's own lane: the
    /// worker that refused it registers nothing, and however many replies
    /// are delayed there is one sleeper.
    #[test]
    fn delayed_replies_arrive_through_the_one_sleeper() {
        let egress: Egress<Res, Bytes> = Egress::new(2, 16);
        let mut rx0 = egress.rx(0);
        let slow = FaultPlan::new(3).delay_messages(Dur::from_millis(2));
        let sink = sink(&egress, [false, false], Some(slow));
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
        assert_eq!(rx0.adopted(), 1, "only the sleeper's lane");
        // The pool and its one sleeper thread: nothing else holds it.
        assert_eq!(Arc::strong_count(&sink.delay.inner), 2);
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
        let delay = Arc::new(DelayPool::new(&egress));
        let slow = FaultPlan::new(5).delay_messages(Dur::from_millis(2));
        let fence = RtFence {
            replica: 0,
            gate: None,
        };
        let port = RtPort {
            router: Router::new(
                [(service.handle(), fence)],
                Some(Arc::new(ChaosNet::new(slow, WallClock::new(), 1))),
            ),
            cuts: Arc::new(vec![Arc::new(AtomicBool::new(false))]),
            delay: Arc::clone(&delay),
        };
        delay.route_submissions(port.router.clone());
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
        assert_eq!(Arc::strong_count(&delay.inner), 2, "one sleeper, no more");
        drop((port, delay));
        service.shutdown();
    }
}
