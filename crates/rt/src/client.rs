//! One client cache: the driver behind its lock, the application-facing
//! handle that serves hits on the caller's own thread, and the IO thread
//! that keeps what no caller is there for — timers, and the lanes of an
//! in-process system. A socket's reader resolves its replies (`Feed`).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use lease_clock::{Clock, Time};
use lease_core::ring::{Inbox, Lanes};
use lease_core::{
    ClientConfig, ClientCounters, ClientId, ClientInput, ClientOutput, ClientTimer, FxMap,
    LeaseClient, Op, OpError, OpId, OpOutcome, ToClient, ToServer, Version,
};
use lease_svc::Reply;

use crate::record::{OpRecord, Recorder};
use crate::server::{Port, Res};

/// An error from a real-time cache operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RtError {
    /// The resource does not exist at the server.
    NoSuchResource,
    /// The server was unreachable until the retry budget (or the per-op
    /// deadline) ran out. For a write, the outcome is unknown.
    Timeout,
    /// The system has shut down.
    Closed,
}

impl std::fmt::Display for RtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RtError::NoSuchResource => write!(f, "no such resource"),
            RtError::Timeout => write!(f, "timed out"),
            RtError::Closed => write!(f, "system closed"),
        }
    }
}

impl std::error::Error for RtError {}

type OpReply = Result<(Bytes, Version, bool), RtError>;

/// Where the caller of a miss or a write parks: filled exactly once, by
/// whichever thread resolves the op (a reply, a retry timer, shutdown).
#[derive(Default)]
struct Completion {
    reply: Mutex<Option<OpReply>>,
    filled: Condvar,
}

impl Completion {
    // The slot only ever goes from `None` to `Some`, so a poisoned lock
    // still guards a valid value.
    fn fill(&self, reply: OpReply) {
        *self.reply.lock().unwrap_or_else(PoisonError::into_inner) = Some(reply);
        self.filled.notify_one();
    }

    fn wait(&self) -> OpReply {
        let mut slot = self.reply.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(reply) = slot.take() {
                return reply;
            }
            slot = self
                .filled
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// What a client's handles, its IO thread and its socket reader share.
struct Shared {
    /// The driver lock: cache, port and timers change only under it,
    /// whichever thread is driving.
    driver: Mutex<Worker>,
    /// The IO thread parks on this inbox's doorbell.
    inbox: Arc<Inbox<Reply<Res, Bytes>>>,
    /// For the true-time stamp taken before the lock.
    recorder: Arc<Recorder>,
}

impl Shared {
    /// The driver, or `Closed` once the client has shut down or a thread
    /// died holding the lock.
    fn lock(&self) -> Result<MutexGuard<'_, Worker>, RtError> {
        match self.driver.lock() {
            Ok(w) if !w.closed => Ok(w),
            _ => Err(RtError::Closed),
        }
    }

    /// Fails every parked caller, refuses every later op and sends the
    /// IO thread home. Also runs when the lock is poisoned: it only sets
    /// the flag and empties the waiting map, and nothing reads the rest
    /// afterwards.
    fn close(&self) {
        let mut w = self.driver.lock().unwrap_or_else(PoisonError::into_inner);
        w.closed = true;
        for (_, waiting) in w.waiting.drain() {
            waiting.done.fill(Err(RtError::Closed));
        }
        drop(w);
        self.inbox.bell().ring();
    }

    /// Rings the IO thread if a live timer is due before it would wake.
    fn wake_if_due(&self, w: &mut Worker) {
        if w.next_due().is_some_and(|d| Instant::now() + d < w.io_wake) {
            self.inbox.bell().ring();
        }
    }
}

/// The application-facing handle to one client cache.
///
/// Cloneable and cheap. A read under a valid lease is served right here,
/// on the calling thread: take the driver lock, compare the lease's
/// expiry with this host's clock, stamp the recorder's true time, clone
/// the bytes, return — no other thread is involved and nothing is
/// allocated. That stamp, taken under the lock that also serializes
/// approval handling, is the read's linearization point. A miss or a
/// write sends its request from the calling thread under the same lock
/// (so the client's [`Port`] still has one sender at a time) and then
/// blocks until the reply's reader or a retry timer resolves it.
#[derive(Clone)]
pub struct RtClientHandle {
    shared: Arc<Shared>,
}

impl RtClientHandle {
    fn run(&self, resource: Res, data: Option<Bytes>) -> OpReply {
        let start = self.shared.recorder.now();
        let mut w = self.shared.lock()?;
        let now = w.clock.now();
        if data.is_none() {
            if let Some((data, version)) = w.cache.read_hit(now, resource) {
                let op = w.fresh_op();
                w.record(op, resource, version, start, Some(true));
                return Ok((data, version, true));
            }
        }
        let done = w.start_op(now, start, resource, data);
        self.shared.wake_if_due(&mut w);
        drop(w);
        done.wait()
    }

    /// Reads a file through the cache.
    pub fn read(&self, resource: Res) -> Result<Bytes, RtError> {
        self.run(resource, None).map(|(data, _, _)| data)
    }

    /// Reads and also reports the version and whether the cache served it.
    pub fn read_detailed(&self, resource: Res) -> Result<(Bytes, Version, bool), RtError> {
        self.run(resource, None)
    }

    /// Write-through write; returns the committed version.
    pub fn write(&self, resource: Res, data: impl Into<Bytes>) -> Result<Version, RtError> {
        self.run(resource, Some(data.into())).map(|(_, v, _)| v)
    }

    /// Opens `name` in a leased directory: reads the directory's bindings
    /// (a cache hit on repeated opens, §2) and resolves the name. Returns
    /// `Ok(None)` when the name is not bound.
    pub fn open(&self, dir: Res, name: &str) -> Result<Option<Res>, RtError> {
        let listing = self.read(dir)?;
        Ok(crate::naming::parse_listing(&listing)
            .into_iter()
            .find(|b| b.name == name)
            .map(|b| b.id))
    }

    /// Snapshot of the cache's counters.
    pub fn stats(&self) -> Result<ClientCounters, RtError> {
        Ok(self.shared.lock()?.cache.counters)
    }

    /// Shuts the client down: parked callers and later ops get
    /// [`RtError::Closed`], and the IO thread exits.
    pub(crate) fn close(&self) {
        self.shared.close();
    }

    /// What this client's socket reader holds.
    pub(crate) fn feed(&self) -> Feed {
        Feed(Arc::downgrade(&self.shared))
    }
}

/// A socket reader's hold on its client — a `Weak`, like the IO thread's.
/// What it decodes is resolved on its own thread, under the driver lock;
/// lock order is driver, then the port's connection.
pub(crate) struct Feed(Weak<Shared>);

impl Feed {
    /// Runs `f` under the driver lock, unless the client is closed or gone.
    fn drive(&self, f: impl FnOnce(&mut Worker)) {
        if let Some(shared) = self.0.upgrade() {
            if let Ok(mut w) = shared.lock() {
                f(&mut w);
                shared.wake_if_due(&mut w);
            }
        }
    }

    /// Feeds server messages to the cache, leaving `msgs` empty: replies
    /// fill their callers' completions and approvals go out from here.
    pub(crate) fn deliver(&self, msgs: &mut Vec<ToClient<Res, Bytes>>) {
        self.drive(|w| msgs.drain(..).for_each(|m| w.handle_msg(m)));
        msgs.clear();
    }

    /// A fresh connection is installed: retransmit what is pending now.
    pub(crate) fn connected(&self) {
        self.drive(Worker::retry_pending);
    }
}

/// Timer-key encoding: timers live in one heap keyed by u64.
fn key(t: ClientTimer) -> u64 {
    match t {
        ClientTimer::Renewal => 1u64,
        ClientTimer::Retry(r) => r.0 + 2,
    }
}

fn timer_of(k: u64) -> ClientTimer {
    if k == 1 {
        ClientTimer::Renewal
    } else {
        ClientTimer::Retry(lease_core::ReqId(k - 2))
    }
}

/// What the worker remembers about an operation in flight, so the reply
/// can be routed and the completion recorded.
struct Waiting {
    done: Arc<Completion>,
    resource: Res,
    /// True time at entry to the application's call.
    start: Time,
}

/// One client cache's driver: everything behind the driver lock.
struct Worker {
    id: ClientId,
    cache: LeaseClient<Res, Bytes>,
    port: Box<dyn Port>,
    /// This host's clock — possibly a skewed chaos model.
    clock: Arc<dyn Clock>,
    /// The perfect observer, and the source of true time.
    recorder: Arc<Recorder>,
    timers: BinaryHeap<Reverse<(Time, u64)>>,
    live_timers: FxMap<u64, Time>,
    waiting: FxMap<OpId, Waiting>,
    next_op: u64,
    /// When the IO thread, if parked, wakes by itself.
    io_wake: Instant,
    closed: bool,
}

impl Worker {
    fn new(
        id: ClientId,
        cfg: ClientConfig,
        port: Box<dyn Port>,
        clock: Arc<dyn Clock>,
        recorder: Arc<Recorder>,
    ) -> Worker {
        let mut w = Worker {
            id,
            cache: LeaseClient::new(id, cfg),
            port,
            clock,
            recorder,
            timers: BinaryHeap::new(),
            live_timers: FxMap::default(),
            waiting: FxMap::default(),
            next_op: 0,
            io_wake: Instant::now(),
            closed: false,
        };
        let outs = w.cache.start(w.clock.now());
        w.apply(outs);
        w
    }

    fn fresh_op(&mut self) -> OpId {
        let op = OpId(self.next_op);
        self.next_op += 1;
        op
    }

    /// Records a completed op, stamping its completion now — so call it
    /// at the op's linearization point, under the driver lock.
    fn record(
        &self,
        op: OpId,
        resource: Res,
        version: Version,
        start: Time,
        read_from_cache: Option<bool>,
    ) {
        self.recorder.push_op(OpRecord {
            client: self.id,
            op,
            resource,
            version,
            start,
            done: self.recorder.now(),
            read_from_cache,
        });
    }

    /// Hands one message to the port, with the deadline of the request it
    /// belongs to ([`LeaseClient::deadline`]), so the service can drop
    /// work whose caller has given up. What does not go out — the link
    /// dropped it, the lane was full — is lost like a datagram: the
    /// cache's retransmission timer is the one retry schedule, and the op
    /// deadline bounds it.
    fn submit(&mut self, msg: ToServer<Res, Bytes>) {
        let deadline = msg.req().and_then(|req| self.cache.deadline(req));
        self.port.send(self.id, msg, deadline);
    }

    fn apply(&mut self, outs: Vec<ClientOutput<Res, Bytes>>) {
        for o in outs {
            match o {
                ClientOutput::Send(msg) => self.submit(msg),
                ClientOutput::SetTimer { at, timer } => {
                    let k = key(timer);
                    self.live_timers.insert(k, at);
                    self.timers.push(Reverse((at, k)));
                }
                ClientOutput::CancelTimer(timer) => {
                    self.live_timers.remove(&key(timer));
                }
                ClientOutput::Done { op, result } => {
                    let Some(w) = self.waiting.remove(&op) else {
                        continue;
                    };
                    w.done.fill(match result {
                        Ok(OpOutcome::Read {
                            data,
                            version,
                            from_cache,
                        }) => {
                            self.record(op, w.resource, version, w.start, Some(from_cache));
                            Ok((data, version, from_cache))
                        }
                        Ok(OpOutcome::Write { version }) => {
                            self.record(op, w.resource, version, w.start, None);
                            Ok((Bytes::new(), version, false))
                        }
                        Err(OpError::NoSuchResource) => Err(RtError::NoSuchResource),
                        Err(OpError::Timeout) => Err(RtError::Timeout),
                    });
                }
            }
        }
    }

    /// Starts a miss or a write on the calling thread (which holds the
    /// driver lock): registers the completion, runs the cache and sends
    /// what it asks for. `now` is the host-clock reading the caller's hit
    /// check just failed at; `start` the true time it entered the call.
    fn start_op(
        &mut self,
        now: Time,
        start: Time,
        resource: Res,
        data: Option<Bytes>,
    ) -> Arc<Completion> {
        let op = self.fresh_op();
        let done = Arc::new(Completion::default());
        self.waiting.insert(
            op,
            Waiting {
                done: Arc::clone(&done),
                resource,
                start,
            },
        );
        let kind = match data {
            Some(d) => Op::Write(resource, d),
            None => Op::Read(resource),
        };
        let outs = self.cache.handle(now, ClientInput::Op { op, kind });
        self.apply(outs);
        done
    }

    /// Fires due timers, skipping cancelled ones.
    fn fire_timers(&mut self) {
        let now = self.clock.now();
        while let Some(Reverse((at, k))) = self.timers.peek().copied() {
            if at > now {
                break;
            }
            self.timers.pop();
            if self.live_timers.get(&k) != Some(&at) {
                continue; // Cancelled or superseded.
            }
            self.fire(k);
        }
    }

    fn fire(&mut self, k: u64) {
        self.live_timers.remove(&k);
        let outs = self
            .cache
            .handle(self.clock.now(), ClientInput::Timer(timer_of(k)));
        self.apply(outs);
    }

    /// Fires the retry timer of every request still pending, now rather
    /// than when it is due: the port has a fresh connection, and what was
    /// submitted while it had none went nowhere. This is the ordinary
    /// [`ClientTimer::Retry`] path, so the attempt limit, the retry
    /// budget and the op deadline bound it like any retransmission, and
    /// the cache repeats on each what the lost transmission piggybacked.
    /// A request that went out on the new connection in the microseconds
    /// between its installation and this call is repeated with the rest,
    /// at the price of one duplicate the server answers and one of that
    /// request's attempts.
    fn retry_pending(&mut self) {
        let mut retries: Vec<u64> = self
            .live_timers
            .keys()
            .copied()
            .filter(|&k| k != key(ClientTimer::Renewal))
            .collect();
        retries.sort_unstable();
        for k in retries {
            self.fire(k);
        }
    }

    /// How long until the next live timer is due, if any is; cancelled or
    /// superseded heap tops (`fire_timers`' test) are popped on the way.
    fn next_due(&mut self) -> Option<Duration> {
        while let Some(&Reverse((at, k))) = self.timers.peek() {
            if self.live_timers.get(&k) == Some(&at) {
                return Some(Duration::from(at.saturating_since(self.clock.now())));
            }
            self.timers.pop();
        }
        None
    }

    /// How long the IO thread parks: 20 ms with no live timer.
    fn next_wait(&mut self) -> Duration {
        self.next_due().unwrap_or(Duration::from_millis(20))
    }

    /// Feeds one server message to the cache, which is also what paces a
    /// shed request: its retry timer moves to the reply's `retry_after`.
    fn handle_msg(&mut self, m: ToClient<Res, Bytes>) {
        let now = self.clock.now();
        let outs = self.cache.handle(now, ClientInput::Msg(m));
        self.apply(outs);
    }
}

/// How many lane messages one poll drains before taking the driver lock.
const LANE_BATCH: usize = 64;

/// Closes the client when the IO thread leaves, however it leaves: with
/// nobody left to resolve them, parked callers must not wait forever.
struct CloseOnExit(Weak<Shared>);

impl Drop for CloseOnExit {
    fn drop(&mut self) {
        if let Some(shared) = self.0.upgrade() {
            shared.close();
        }
    }
}

/// Starts one client: its driver, the handle applications call, and the
/// `lease-client-N` IO thread. Every topology's clients come from here.
/// A socket client's `inbox` has no lanes: its reader resolves replies
/// ([`Feed`]).
pub(crate) fn spawn_client(
    id: ClientId,
    cfg: ClientConfig,
    inbox: Arc<Inbox<Reply<Res, Bytes>>>,
    port: Box<dyn Port>,
    clock: Arc<dyn Clock>,
    recorder: Arc<Recorder>,
) -> (RtClientHandle, JoinHandle<()>) {
    let lanes = Lanes::new(Arc::clone(&inbox));
    let worker = Worker::new(id, cfg, port, clock, Arc::clone(&recorder));
    let shared = Arc::new(Shared {
        driver: Mutex::new(worker),
        inbox,
        recorder,
    });
    // The thread holds no strong reference while parked, so a fleet
    // dropped without `shutdown` still lets it go.
    let weak = Arc::downgrade(&shared);
    let thread = std::thread::Builder::new()
        .name(format!("lease-client-{}", id.0))
        .spawn(move || io_loop(weak, lanes))
        .expect("spawn client thread");
    (RtClientHandle { shared }, thread)
}

/// The IO thread: fires timers, retransmissions included, and feeds the
/// cache whatever its lanes carry (an in-process system's replies, each
/// turned from its lane form back into a `ToClient` here, on this thread;
/// a socket client has no lanes). It takes the driver lock for each batch
/// and parks without it, on the inbox doorbell: every lane publish rings
/// it, and so does any thread whose work under the lock left a live timer
/// due before [`Worker::io_wake`]. Ticket-before-final-poll makes the
/// park race-free, and a short spin after a hot iteration catches
/// back-to-back replies without a futex round trip (skipped on a single
/// core, where spinning only steals the producer's timeslice).
fn io_loop(shared: Weak<Shared>, mut lanes: Lanes<Reply<Res, Bytes>>) {
    let _close = CloseOnExit(Weak::clone(&shared));
    let spin: u32 = if std::thread::available_parallelism().map_or(1, |n| n.get()) > 1 {
        128
    } else {
        0
    };
    let mut net_buf: Vec<Reply<Res, Bytes>> = Vec::new();
    let mut hot = false;
    loop {
        let ticket = lanes.bell().ticket();
        let mut got = lanes.drain_into(&mut net_buf, LANE_BATCH);
        if hot {
            for _ in 0..spin {
                if got > 0 {
                    break;
                }
                std::hint::spin_loop();
                got = lanes.drain_into(&mut net_buf, LANE_BATCH);
            }
        }
        hot = got > 0;
        let Some(shared) = shared.upgrade() else {
            return; // Every handle is gone.
        };
        let Ok(mut w) = shared.lock() else {
            return;
        };
        for m in net_buf.drain(..) {
            w.handle_msg(m.into_msg());
        }
        w.fire_timers();
        if hot {
            continue; // Poll the lanes again before parking.
        }
        let wait = w.next_wait();
        w.io_wake = Instant::now() + wait;
        drop(w);
        drop(shared);
        lanes.bell().wait(ticket, wait);
    }
}

#[cfg(test)]
mod tests {
    use lease_clock::{Dur, ManualClock};
    use lease_core::Backoff;

    use super::*;

    /// A port whose every submission finds a full lane, recording the
    /// (manual) clock reading and the propagated deadline of each.
    struct JamPort {
        clock: Arc<ManualClock>,
        sends: Mutex<Vec<(Time, Option<Time>)>>,
    }

    impl Port for Arc<JamPort> {
        fn send(&self, _from: ClientId, _msg: ToServer<Res, Bytes>, deadline: Option<Time>) {
            self.sends
                .lock()
                .unwrap()
                .push((self.clock.now(), deadline));
        }
    }

    /// A refused request has no resend path of its own: it goes out again
    /// exactly when the cache's retransmission timer fires (5 ms, then
    /// doubling), each time as a counted attempt carrying the deadline
    /// fixed at first transmission; nothing is sent at or past that
    /// deadline, and the retry that finds it passed (at 80 ms) ends the
    /// op.
    #[test]
    fn paced_resubmission_respects_op_deadline() {
        let clock = Arc::new(ManualClock::new(Time::ZERO));
        let port = Arc::new(JamPort {
            clock: clock.clone(),
            sends: Mutex::new(Vec::new()),
        });
        let deadline = Time::ZERO + Dur::from_millis(50);
        let cfg = ClientConfig {
            op_deadline: Some(Dur::from_millis(50)),
            retry_interval: Dur::from_millis(5),
            backoff: Backoff {
                multiplier: 2.0,
                cap: Dur::from_secs(1),
                jitter: 0.0,
            },
            ..ClientConfig::default()
        };
        let mut w = Worker::new(
            ClientId(0),
            cfg,
            Box::new(port.clone()),
            clock.clone(),
            Arc::new(Recorder::with_clock(clock.clone())),
        );

        let done = w.start_op(clock.now(), clock.now(), 7, None);
        for _ in 0..100 {
            clock.advance(Dur::from_millis(1));
            w.fire_timers();
        }
        assert_eq!(
            done.reply.lock().unwrap().take().expect("op resolved"),
            Err(RtError::Timeout)
        );
        let sends = port.sends.lock().unwrap();
        let at: Vec<u64> = sends
            .iter()
            .map(|(t, _)| t.saturating_since(Time::ZERO).as_nanos() / 1_000_000)
            .collect();
        assert_eq!(
            at,
            [0, 5, 10, 20, 40],
            "one send per retransmission instant"
        );
        assert!(sends
            .iter()
            .all(|&(t, d)| t < deadline && d == Some(deadline)));
        assert_eq!(
            w.cache.counters.retries, 4,
            "each retransmission is an attempt"
        );
        assert_eq!(w.cache.counters.timeouts, 1);
    }

    /// A port that takes every submission and keeps it.
    #[derive(Default)]
    struct LogPort {
        sent: Mutex<Vec<ToServer<Res, Bytes>>>,
    }

    impl Port for Arc<LogPort> {
        fn send(&self, _from: ClientId, msg: ToServer<Res, Bytes>, _deadline: Option<Time>) {
            self.sent.lock().unwrap().push(msg);
        }
    }

    /// A reply cancels its request's retry timer but leaves the heap entry
    /// behind. After N completed misses the IO thread parks for the idle
    /// wait — not until the first cancelled retry's instant, once per
    /// completed op — while a live retry still fires exactly on time.
    #[test]
    fn cancelled_retries_wake_nobody() {
        const N: u64 = 32;
        let clock = Arc::new(ManualClock::new(Time::ZERO));
        let port = Arc::new(LogPort::default());
        let cfg = ClientConfig {
            retry_interval: Dur::from_millis(100),
            ..ClientConfig::default()
        };
        let mut w = Worker::new(
            ClientId(0),
            cfg,
            Box::new(port.clone()),
            clock.clone(),
            Arc::new(Recorder::with_clock(clock.clone())),
        );
        let last_req = || match port.sent.lock().unwrap().last() {
            Some(ToServer::Fetch { req, .. }) => *req,
            other => panic!("expected a fetch, got {other:?}"),
        };

        for r in 0..N {
            let done = w.start_op(clock.now(), clock.now(), r, None);
            let grant = lease_core::Grant {
                resource: r,
                version: Version(1),
                data: Some(Bytes::new()),
                term: Dur::from_secs(10),
                handle: lease_core::LeaseHandle::NULL,
            };
            w.handle_msg(ToClient::Grants {
                req: last_req(),
                grants: vec![grant],
            });
            assert!(done.reply.lock().unwrap().take().expect("resolved").is_ok());
            clock.advance(Dur::from_millis(1));
        }
        assert_eq!(
            w.next_wait(),
            Duration::from_millis(20),
            "the idle wait: only cancelled retries are left"
        );
        assert!(w.timers.is_empty(), "and they were popped on the way");

        // A miss whose reply never comes: its retry is live and due in
        // one retry interval, and it goes out at that instant, not before.
        let _pending = w.start_op(clock.now(), clock.now(), N, None);
        let first = last_req();
        assert_eq!(w.next_wait(), Duration::from_millis(100));
        let sent = port.sent.lock().unwrap().len();
        clock.advance(Dur::from_millis(99));
        w.fire_timers();
        assert_eq!(
            port.sent.lock().unwrap().len(),
            sent,
            "not before it is due"
        );
        clock.advance(Dur::from_millis(1));
        w.fire_timers();
        assert_eq!(port.sent.lock().unwrap().len(), sent + 1);
        assert_eq!(last_req(), first, "the same request, sent again");
        assert_eq!(w.cache.counters.retries, 1);
    }
}
