//! One client cache: the driver behind its lock, the application-facing
//! handle that serves hits on the caller's own thread, and the IO thread
//! that keeps what no caller is there for — replies, timers, resends.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use lease_clock::{Clock, Dur, Time};
use lease_core::ring::{Inbox, Lanes};
use lease_core::{
    Backoff, ClientConfig, ClientCounters, ClientId, ClientInput, ClientOutput, ClientTimer,
    ErrorReason, LeaseClient, Op, OpError, OpId, OpOutcome, ToClient, ToServer, Version,
};

use crate::breaker::CircuitBreaker;
use crate::record::{OpRecord, Recorder};
use crate::server::{Port, PortVerdict, Res, RETRY_AFTER};

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

/// What a client's handles and its IO thread share.
struct Shared {
    /// The driver lock: cache, port, timers and resend queue change only
    /// under it, whichever thread is driving.
    driver: Mutex<Worker>,
    /// The IO thread parks on this inbox's doorbell.
    inbox: Arc<Inbox<ToClient<Res, Bytes>>>,
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
/// blocks until the IO thread resolves it.
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
        // The IO thread fires timers and resends; wake it only if this op
        // left one due before it would wake by itself.
        if Instant::now() + w.next_wait() < w.io_wake {
            self.shared.inbox.bell().ring();
        }
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

/// One backpressure-paced message awaiting resubmission.
struct Resend {
    /// True time at which to resubmit.
    due: Time,
    /// The originating op's deadline; once passed, the message is dropped
    /// and the op is failed fast instead of resubmitted.
    deadline: Option<Time>,
    /// How many times this message has been refused so far (the backoff
    /// attempt number).
    attempt: u32,
    msg: ToServer<Res, Bytes>,
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
    live_timers: HashMap<u64, Time>,
    waiting: HashMap<OpId, Waiting>,
    /// Messages the service refused under backpressure, awaiting their
    /// backoff-paced resubmission instants.
    resend: VecDeque<Resend>,
    /// Backoff policy pacing those resubmissions (base [`RETRY_AFTER`]) —
    /// the same `lease_core::Backoff` that paces retransmissions, so
    /// repeated refusals spread out instead of hammering a fixed cadence.
    pacing: Backoff,
    /// Per-op deadline; also propagated with every submission so the
    /// service can drop work whose caller has already timed out.
    op_deadline: Option<Dur>,
    /// First-transmission deadline per request id, anchoring paced
    /// resubmissions and the propagated deadline to the op's start rather
    /// than to each retry.
    deadlines: HashMap<u64, Time>,
    /// Half-open circuit breaker on this client's path to the server.
    breaker: CircuitBreaker,
    next_op: u64,
    /// When the IO thread, if parked, wakes by itself.
    io_wake: Instant,
    closed: bool,
}

impl Worker {
    fn new(
        id: ClientId,
        cfg: ClientConfig,
        breaker: Option<(u32, Dur)>,
        port: Box<dyn Port>,
        clock: Arc<dyn Clock>,
        recorder: Arc<Recorder>,
    ) -> Worker {
        let mut w = Worker {
            id,
            pacing: cfg.backoff,
            op_deadline: cfg.op_deadline,
            cache: LeaseClient::new(id, cfg),
            port,
            clock,
            recorder,
            timers: BinaryHeap::new(),
            live_timers: HashMap::new(),
            waiting: HashMap::new(),
            resend: VecDeque::new(),
            deadlines: HashMap::new(),
            breaker: breaker
                .map_or_else(CircuitBreaker::disabled, |(t, c)| CircuitBreaker::new(t, c)),
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

    fn true_now(&self) -> Time {
        self.recorder.now()
    }

    /// The deadline riding with `msg`: the op's first-transmission time
    /// plus the configured per-op deadline, remembered per request id so
    /// retransmissions and paced resubmissions keep the original anchor.
    fn deadline_of(&mut self, msg: &ToServer<Res, Bytes>) -> Option<Time> {
        let req = msg.req()?;
        if let Some(&d) = self.deadlines.get(&req.0) {
            return Some(d);
        }
        let d = self.true_now() + self.op_deadline?;
        if self.deadlines.len() >= 1024 {
            // Requests that never saw a reply (e.g. abandoned renewals)
            // leave entries behind; sweep the dead ones.
            let now = self.true_now();
            self.deadlines.retain(|_, d| *d > now);
        }
        self.deadlines.insert(req.0, d);
        Some(d)
    }

    fn submit_paced(&mut self, msg: ToServer<Res, Bytes>, attempt: u32) {
        let deadline = self.deadline_of(&msg);
        let now = self.true_now();
        if !self.breaker.allow(now) {
            // Circuit open: drop locally, costing the server nothing.
            // The cache's retransmission timer is the retry schedule, and
            // each firing re-probes the breaker.
            return;
        }
        let salt = (u64::from(self.id.0) << 48) ^ msg.req().map_or(0, |r| r.0 << 8);
        match self.port.send(self.id, msg, deadline) {
            PortVerdict::Sent => self.breaker.on_success(),
            PortVerdict::Dropped => {}
            PortVerdict::RetryAfter(msg) => {
                self.breaker.on_failure(now);
                let attempt = attempt.saturating_add(1);
                let pause = self
                    .pacing
                    .interval(RETRY_AFTER, attempt, salt ^ u64::from(attempt));
                self.resend.push_back(Resend {
                    due: now + pause,
                    deadline,
                    attempt,
                    msg,
                });
            }
        }
    }

    /// Resubmits backpressured messages whose pause has elapsed. A
    /// message whose op deadline has passed is *never* resubmitted:
    /// instead its retry timer is fired early so the cache fails the op
    /// now (`Timeout`) rather than after more dead retries.
    fn flush_resend(&mut self) {
        for _ in 0..self.resend.len() {
            let Some(r) = self.resend.pop_front() else {
                break;
            };
            let now = self.true_now();
            if r.deadline.is_some_and(|d| now > d) {
                if let Some(req) = r.msg.req() {
                    let outs = self.cache.handle(
                        self.clock.now(),
                        ClientInput::Timer(ClientTimer::Retry(req)),
                    );
                    self.apply(outs);
                }
                continue;
            }
            if r.due <= now {
                self.submit_paced(r.msg, r.attempt);
            } else {
                self.resend.push_back(r);
            }
        }
    }

    fn apply(&mut self, outs: Vec<ClientOutput<Res, Bytes>>) {
        for o in outs {
            match o {
                ClientOutput::Send(msg) => self.submit_paced(msg, 0),
                ClientOutput::SetTimer { at, timer } => {
                    let k = key(timer);
                    self.live_timers.insert(k, at);
                    self.timers.push(Reverse((at, k)));
                }
                ClientOutput::CancelTimer(timer) => {
                    if let ClientTimer::Retry(r) = timer {
                        // The request resolved; its deadline anchor dies
                        // with it.
                        self.deadlines.remove(&r.0);
                    }
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
    /// All the driver hears is that bit: a request that went out on the
    /// new connection in the microseconds before the bit was read is
    /// repeated with the rest, at the price of one duplicate the server
    /// answers and one of that request's attempts.
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

    /// How long until the next timer or paced resubmission is due.
    fn next_wait(&self) -> Duration {
        let mut wait = self
            .timers
            .peek()
            .map(|Reverse((at, _))| Duration::from(at.saturating_since(self.clock.now())))
            .unwrap_or(Duration::from_millis(20));
        if let Some(due) = self
            .resend
            .iter()
            .map(|r| r.deadline.map_or(r.due, |d| r.due.min(d)))
            .min()
        {
            // Wake in time for the next backpressure resubmission (or the
            // fail-fast instant of an entry whose deadline lands first).
            wait = wait.min(Duration::from(due.saturating_since(self.true_now())));
        }
        wait
    }

    /// Feeds one server message to the cache.
    fn handle_msg(&mut self, m: ToClient<Res, Bytes>) {
        if let ToClient::Error {
            reason: ErrorReason::Shed { .. },
            ..
        } = &m
        {
            // An explicit shed is an overload signal for the breaker,
            // same as backpressure.
            self.breaker.on_failure(self.true_now());
        }
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
/// `cfg.backoff` also paces backpressure resubmissions (base
/// [`RETRY_AFTER`]), `cfg.op_deadline` also rides with every submission,
/// and `breaker` is the circuit breaker's `(threshold, cooldown)`.
pub(crate) fn spawn_client(
    id: ClientId,
    cfg: ClientConfig,
    breaker: Option<(u32, Dur)>,
    inbox: Arc<Inbox<ToClient<Res, Bytes>>>,
    port: Box<dyn Port>,
    clock: Arc<dyn Clock>,
    recorder: Arc<Recorder>,
) -> (RtClientHandle, JoinHandle<()>) {
    let lanes = Lanes::new(Arc::clone(&inbox));
    let worker = Worker::new(id, cfg, breaker, port, clock, Arc::clone(&recorder));
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

/// The IO thread: feeds server messages to the cache, fires timers and
/// resubmits what backpressure refused. It takes the driver lock for
/// each batch and parks without it, on the inbox doorbell: every lane
/// publish rings it, and so do a caller whose op left something due
/// before [`Worker::io_wake`] and a port whose connection just came up
/// ([`Port::reconnected`]). Ticket-before-final-poll makes the park
/// race-free, and a short spin after a hot iteration catches
/// back-to-back replies without a futex round trip (skipped on a single
/// core, where spinning only steals the producer's timeslice).
fn io_loop(shared: Weak<Shared>, mut lanes: Lanes<ToClient<Res, Bytes>>) {
    let _close = CloseOnExit(Weak::clone(&shared));
    let spin: u32 = if std::thread::available_parallelism().map_or(1, |n| n.get()) > 1 {
        128
    } else {
        0
    };
    let mut net_buf: Vec<ToClient<Res, Bytes>> = Vec::new();
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
            w.handle_msg(m);
        }
        w.flush_resend();
        if w.port.reconnected() {
            w.retry_pending();
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
    use lease_clock::ManualClock;

    use super::*;

    /// A port that refuses every submission with backpressure, recording
    /// the (manual) clock reading of each attempt.
    struct JamPort {
        clock: Arc<ManualClock>,
        sends: Mutex<Vec<Time>>,
    }

    impl Port for Arc<JamPort> {
        fn send(
            &self,
            _from: ClientId,
            msg: ToServer<Res, Bytes>,
            _deadline: Option<Time>,
        ) -> PortVerdict {
            self.sends.lock().unwrap().push(self.clock.now());
            PortVerdict::RetryAfter(msg)
        }
    }

    /// Pins the backpressure-pacing contract: a message parked for paced
    /// resubmission is never resubmitted past its op deadline — the op
    /// fails fast with `Timeout` instead, and no submission reaches the
    /// port at or after the deadline instant.
    #[test]
    fn paced_resubmission_respects_op_deadline() {
        let clock = Arc::new(ManualClock::new(Time::ZERO));
        let port = Arc::new(JamPort {
            clock: clock.clone(),
            sends: Mutex::new(Vec::new()),
        });
        let deadline = Dur::from_millis(50);
        let cfg = ClientConfig {
            op_deadline: Some(deadline),
            retry_interval: Dur::from_millis(5),
            ..ClientConfig::default()
        };
        let mut w = Worker::new(
            ClientId(0),
            cfg,
            None,
            Box::new(port.clone()),
            clock.clone(),
            Arc::new(Recorder::with_clock(clock.clone())),
        );

        let done = w.start_op(clock.now(), clock.now(), 7, None);
        assert_eq!(port.sends.lock().unwrap().len(), 1, "first transmission");
        assert_eq!(w.resend.len(), 1, "refused and parked for pacing");

        // Inside the deadline the paced resubmissions keep coming (and
        // keep being refused).
        clock.advance(Dur::from_millis(10));
        w.flush_resend();
        assert_eq!(port.sends.lock().unwrap().len(), 2);
        assert_eq!(w.resend.len(), 1);
        assert!(done.reply.lock().unwrap().is_none(), "still pending");

        // Past the deadline: the parked message must not be resubmitted —
        // the op fails fast instead.
        clock.advance(Dur::from_millis(41));
        w.flush_resend();
        assert_eq!(
            done.reply.lock().unwrap().take().expect("op resolved"),
            Err(RtError::Timeout),
            "fail fast once the deadline passed"
        );
        assert!(w.resend.is_empty(), "nothing left parked");
        let sends = port.sends.lock().unwrap();
        assert_eq!(sends.len(), 2, "no resubmission past the deadline");
        assert!(sends.iter().all(|t| *t < Time::ZERO + deadline));
    }
}
