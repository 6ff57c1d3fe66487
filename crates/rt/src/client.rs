//! The client-cache thread and its application-facing handle.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;
use std::thread::JoinHandle;

use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, Sender, TryRecvError};
use lease_clock::{Clock, Dur, Time};
use lease_core::ring::Inbox;
use lease_core::{
    Backoff, ClientCounters, ClientId, ClientInput, ClientOutput, ClientTimer, ErrorReason,
    LeaseClient, Op, OpError, OpId, OpOutcome, ReqId, ToClient, ToServer, Version,
};
use lease_svc::EgressRx;
use lease_vsys::HistoryEvent;

use crate::breaker::CircuitBreaker;
use crate::record::Recorder;
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

pub(crate) enum ClientCmd {
    Read(Res, Sender<OpReply>),
    Write(Res, Bytes, Sender<OpReply>),
    Stats(Sender<ClientCounters>),
    Shutdown,
}

/// The application-facing handle to one client cache.
///
/// Cloneable and cheap; operations block the calling thread until the
/// cache completes them (immediately on a cache hit).
#[derive(Clone)]
pub struct RtClientHandle {
    pub(crate) tx: Sender<ClientCmd>,
    /// The client thread parks on its egress inbox's one doorbell for
    /// *all* inputs; every command send must ring it.
    pub(crate) inbox: Arc<Inbox<ToClient<Res, Bytes>>>,
}

impl RtClientHandle {
    fn cmd(&self, cmd: ClientCmd) -> Result<(), RtError> {
        self.tx.send(cmd).map_err(|_| RtError::Closed)?;
        self.inbox.bell().ring();
        Ok(())
    }

    /// Reads a file through the cache.
    pub fn read(&self, resource: Res) -> Result<Bytes, RtError> {
        let (tx, rx) = bounded(1);
        self.cmd(ClientCmd::Read(resource, tx))?;
        rx.recv()
            .map_err(|_| RtError::Closed)?
            .map(|(data, _, _)| data)
    }

    /// Reads and also reports the version and whether the cache served it.
    pub fn read_detailed(&self, resource: Res) -> Result<(Bytes, Version, bool), RtError> {
        let (tx, rx) = bounded(1);
        self.cmd(ClientCmd::Read(resource, tx))?;
        rx.recv().map_err(|_| RtError::Closed)?
    }

    /// Write-through write; returns the committed version.
    pub fn write(&self, resource: Res, data: impl Into<Bytes>) -> Result<Version, RtError> {
        let (tx, rx) = bounded(1);
        self.cmd(ClientCmd::Write(resource, data.into(), tx))?;
        rx.recv().map_err(|_| RtError::Closed)?.map(|(_, v, _)| v)
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
        let (tx, rx) = bounded(1);
        self.cmd(ClientCmd::Stats(tx))?;
        rx.recv().map_err(|_| RtError::Closed)
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
    reply: Sender<OpReply>,
    resource: Res,
    is_write: bool,
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

/// The request id a wire message answers to, if it carries one.
fn req_of(msg: &ToServer<Res, Bytes>) -> Option<ReqId> {
    match msg {
        ToServer::Fetch { req, .. } | ToServer::Renew { req, .. } | ToServer::Write { req, .. } => {
            Some(*req)
        }
        ToServer::Approve { .. } | ToServer::Relinquish { .. } => None,
    }
}

/// One client cache's event loop state.
struct Worker {
    id: ClientId,
    cache: LeaseClient<Res, Bytes>,
    port: Box<dyn Port>,
    /// This host's clock — possibly a skewed chaos model.
    clock: Arc<dyn Clock>,
    /// The perfect observer (true time), if history is being recorded.
    recorder: Option<Arc<Recorder>>,
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
}

impl Worker {
    fn record(&self, ev: HistoryEvent) {
        if let Some(rec) = &self.recorder {
            rec.push(ev);
        }
    }

    /// True time for history stamps; falls back to the local clock when
    /// nothing records (the value is then never read).
    fn true_now(&self) -> Time {
        self.recorder
            .as_ref()
            .map_or_else(|| self.clock.now(), |r| r.now())
    }

    /// The deadline riding with `msg`: the op's first-transmission time
    /// plus the configured per-op deadline, remembered per request id so
    /// retransmissions and paced resubmissions keep the original anchor.
    fn deadline_of(&mut self, msg: &ToServer<Res, Bytes>) -> Option<Time> {
        let req = req_of(msg)?;
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

    fn submit(&mut self, msg: ToServer<Res, Bytes>) {
        self.submit_paced(msg, 0);
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
        let salt = (u64::from(self.id.0) << 48) ^ req_of(&msg).map_or(0, |r| r.0 << 8);
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
                if let Some(req) = req_of(&r.msg) {
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
                ClientOutput::Send(msg) => self.submit(msg),
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
                    let mapped = match result {
                        Ok(OpOutcome::Read {
                            data,
                            version,
                            from_cache,
                        }) => {
                            self.record(HistoryEvent::ReadDone {
                                client: self.id,
                                op,
                                resource: w.resource,
                                version,
                                at: self.true_now(),
                                from_cache,
                            });
                            Ok((data, version, from_cache))
                        }
                        Ok(OpOutcome::Write { version }) => {
                            self.record(HistoryEvent::WriteDone {
                                client: self.id,
                                op,
                                resource: w.resource,
                                version,
                                at: self.true_now(),
                            });
                            Ok((Bytes::new(), version, false))
                        }
                        Err(OpError::NoSuchResource) => Err(RtError::NoSuchResource),
                        Err(OpError::Timeout) => Err(RtError::Timeout),
                    };
                    debug_assert_eq!(
                        matches!(mapped, Ok((_, _, false)) if w.is_write),
                        w.is_write && mapped.is_ok()
                    );
                    let _ = w.reply.send(mapped);
                }
            }
        }
    }

    fn start_op(&mut self, resource: Res, data: Option<Bytes>, reply: Sender<OpReply>) {
        let op = OpId(self.next_op);
        self.next_op += 1;
        let is_write = data.is_some();
        self.waiting.insert(
            op,
            Waiting {
                reply,
                resource,
                is_write,
            },
        );
        let ev_at = self.true_now();
        let kind = match data {
            Some(d) => {
                self.record(HistoryEvent::WriteStart {
                    client: self.id,
                    op,
                    resource,
                    at: ev_at,
                });
                Op::Write(resource, d)
            }
            None => {
                self.record(HistoryEvent::ReadStart {
                    client: self.id,
                    op,
                    resource,
                    at: ev_at,
                });
                Op::Read(resource)
            }
        };
        let outs = self
            .cache
            .handle(self.clock.now(), ClientInput::Op { op, kind });
        self.apply(outs);
    }

    /// Fires due timers (skipping cancelled ones) and returns how long to
    /// wait for the next one.
    fn run_timers(&mut self) -> std::time::Duration {
        let now = self.clock.now();
        while let Some(Reverse((at, k))) = self.timers.peek().copied() {
            if at > now {
                break;
            }
            self.timers.pop();
            if self.live_timers.get(&k) != Some(&at) {
                continue; // Cancelled or superseded.
            }
            self.live_timers.remove(&k);
            let outs = self
                .cache
                .handle(self.clock.now(), ClientInput::Timer(timer_of(k)));
            self.apply(outs);
        }
        let mut wait = self
            .timers
            .peek()
            .map(|Reverse((at, _))| {
                std::time::Duration::from(at.saturating_since(self.clock.now()))
            })
            .unwrap_or(std::time::Duration::from_millis(20));
        if let Some(due) = self
            .resend
            .iter()
            .map(|r| r.deadline.map_or(r.due, |d| r.due.min(d)))
            .min()
        {
            // Wake in time for the next backpressure resubmission (or the
            // fail-fast instant of an entry whose deadline lands first).
            wait = wait.min(std::time::Duration::from(
                due.saturating_since(self.true_now()),
            ));
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

/// How many lane messages one poll drains before re-checking commands
/// and timers.
const LANE_BATCH: usize = 64;

#[allow(clippy::too_many_arguments)]
pub(crate) fn spawn_client(
    cache: LeaseClient<Res, Bytes>,
    cmd_rx: Receiver<ClientCmd>,
    mut lanes: EgressRx<Res, Bytes>,
    port: Box<dyn Port>,
    clock: Arc<dyn Clock>,
    recorder: Option<Arc<Recorder>>,
    pacing: Backoff,
    op_deadline: Option<Dur>,
    breaker: CircuitBreaker,
) -> JoinHandle<()> {
    let id = cache.id();
    std::thread::Builder::new()
        .name(format!("lease-client-{}", id.0))
        .spawn(move || {
            let mut w = Worker {
                id,
                cache,
                port,
                clock,
                recorder,
                timers: BinaryHeap::new(),
                live_timers: HashMap::new(),
                waiting: HashMap::new(),
                resend: VecDeque::new(),
                pacing,
                op_deadline,
                deadlines: HashMap::new(),
                breaker,
                next_op: 0,
            };
            let outs = w.cache.start(w.clock.now());
            w.apply(outs);

            // The client parks on its egress inbox's one doorbell for
            // both inputs: every command send and every lane publish
            // rings it. Ticket-before-final-poll makes the
            // park race-free, and a short spin after a hot iteration
            // catches back-to-back replies without a futex round trip
            // (skipped on a single core, where spinning only steals the
            // producer's timeslice).
            let spin: u32 = if std::thread::available_parallelism().map_or(1, |n| n.get()) > 1 {
                128
            } else {
                0
            };
            let mut net_buf: Vec<ToClient<Res, Bytes>> = Vec::new();
            let mut hot = false;
            'main: loop {
                w.flush_resend();
                let wait = w.run_timers();
                let ticket = lanes.bell().ticket();
                let mut did = false;
                loop {
                    match cmd_rx.try_recv() {
                        Ok(ClientCmd::Read(r, reply)) => {
                            did = true;
                            w.start_op(r, None, reply);
                        }
                        Ok(ClientCmd::Write(r, data, reply)) => {
                            did = true;
                            w.start_op(r, Some(data), reply);
                        }
                        Ok(ClientCmd::Stats(reply)) => {
                            did = true;
                            let _ = reply.send(w.cache.counters);
                        }
                        Ok(ClientCmd::Shutdown) | Err(TryRecvError::Disconnected) => break 'main,
                        Err(TryRecvError::Empty) => break,
                    }
                }
                if lanes.drain_into(&mut net_buf, LANE_BATCH) > 0 {
                    did = true;
                    for m in net_buf.drain(..) {
                        w.handle_msg(m);
                    }
                }
                if did {
                    hot = true;
                    continue;
                }
                if hot && spin > 0 {
                    let mut found = false;
                    for _ in 0..spin {
                        if lanes.drain_into(&mut net_buf, LANE_BATCH) > 0 {
                            found = true;
                            break;
                        }
                        if !cmd_rx.is_empty() {
                            found = true;
                            break;
                        }
                        std::hint::spin_loop();
                    }
                    if found {
                        for m in net_buf.drain(..) {
                            w.handle_msg(m);
                        }
                        continue;
                    }
                }
                hot = false;
                lanes.bell().wait(ticket, wait);
            }
        })
        .expect("spawn client thread")
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use lease_clock::ManualClock;
    use lease_core::ClientConfig;

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
        let cache = LeaseClient::new(
            ClientId(0),
            ClientConfig {
                op_deadline: Some(deadline),
                retry_interval: Dur::from_millis(5),
                ..ClientConfig::default()
            },
        );
        let mut w = Worker {
            id: ClientId(0),
            cache,
            port: Box::new(port.clone()),
            clock: clock.clone(),
            recorder: None,
            timers: BinaryHeap::new(),
            live_timers: HashMap::new(),
            waiting: HashMap::new(),
            resend: VecDeque::new(),
            pacing: Backoff::default(),
            op_deadline: Some(deadline),
            deadlines: HashMap::new(),
            breaker: CircuitBreaker::disabled(),
            next_op: 0,
        };
        let outs = w.cache.start(clock.now());
        w.apply(outs);

        let (tx, rx) = bounded(1);
        w.start_op(7, None, tx);
        assert_eq!(port.sends.lock().unwrap().len(), 1, "first transmission");
        assert_eq!(w.resend.len(), 1, "refused and parked for pacing");

        // Inside the deadline the paced resubmissions keep coming (and
        // keep being refused).
        clock.advance(Dur::from_millis(10));
        w.flush_resend();
        assert_eq!(port.sends.lock().unwrap().len(), 2);
        assert_eq!(w.resend.len(), 1);

        // Past the deadline: the parked message must not be resubmitted —
        // the op fails fast instead.
        clock.advance(Dur::from_millis(41));
        w.flush_resend();
        assert_eq!(
            rx.try_recv().expect("op resolved"),
            Err(RtError::Timeout),
            "fail fast once the deadline passed"
        );
        assert!(w.resend.is_empty(), "nothing left parked");
        let sends = port.sends.lock().unwrap();
        assert_eq!(sends.len(), 2, "no resubmission past the deadline");
        assert!(sends.iter().all(|t| *t < Time::ZERO + deadline));
    }
}
