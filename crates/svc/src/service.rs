//! The sharded lease service: router, client handle, and lifecycle.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lease_clock::{Clock, Dur, Time, WallClock};
use lease_core::ring::{spsc, Producer, PushError};
use lease_core::{
    ClientId, FxHasher, LeaseServer, Resource, ServerCounters, ServerInput, Storage, ToClient,
    ToServer, WriteId,
};

use crate::shard::{spawn_shard, ShardCtx, ShardIngress, ShardMsg};

/// Where shard workers deliver protocol messages bound for clients.
///
/// The service owns routing *into* shards; delivery back out is the
/// embedder's transport (ring lanes to client threads in `lease-rt`, to
/// socket writers in `lease-net`), so it is abstracted behind the one
/// thing every sink must do: hand each shard worker its own sending half.
pub trait ClientSink<R, D>: Send + Sync {
    /// Called once by every shard worker, at thread start: the *private*
    /// sending half that worker flushes through for its whole life,
    /// restarts included.
    ///
    /// Private because a ring [`lease_core::ring::Producer`] is
    /// deliberately `!Sync` — per-(shard→client) SPSC egress lanes cannot
    /// live behind the shared `&self` of a sink every worker holds one
    /// `Arc` of. A transport that drops, delays or fences messages does so
    /// inside its [`WorkerSink`], in front of the lanes.
    fn attach_worker(&self) -> Box<dyn WorkerSink<R, D>>;
}

/// One shard worker's private egress half, produced by
/// [`ClientSink::attach_worker`]: `Send` but not `Sync`, owned by the
/// worker thread, so it can hold per-client ring producers and reusable
/// scratch buffers without a lock.
pub trait WorkerSink<R, D>: Send {
    /// Delivers one whole egress flush — everything the worker
    /// accumulated across a drain plus wheel advance — draining `msgs` in
    /// order (per-client order must be preserved). Must not block
    /// indefinitely: a blocked sink stalls the shard worker that called
    /// it.
    fn deliver_batch(&mut self, msgs: &mut Vec<(ClientId, ToClient<R, D>)>);
}

/// Watermark-driven admission control for shard workers.
///
/// Backpressure (a full mailbox) is the *transport* saying no; admission
/// control is the *server* saying no. A shard whose mailbox occupancy
/// crosses [`AdmissionControl::shed_watermark`] refuses the lowest-priority
/// work it drains — cold fetches, i.e. brand-new grants with nothing cached
/// and no piggybacked extensions — with an explicit
/// [`lease_core::ErrorReason::Shed`] reply carrying a server-suggested
/// pause. Renewals, extensions, writes, approvals, relinquishes, and timer
/// work are never shed: expiry processing and lease continuity outrank new
/// admissions, which outrank stats. Shedding a fetch is always
/// consistency-safe — no lease is granted, so no stale cache can be read
/// under it.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionControl {
    /// Mailbox occupancy in `[0, 1]` at or above which a draining shard
    /// sheds cold fetches instead of granting them.
    pub shed_watermark: f64,
    /// Occupancy at or above which a `Stats` request is answered *without*
    /// the egress-flush barrier first (the counters are still exact; only
    /// the flushed-egress certification is skipped). Stats are the lowest
    /// priority — under overload the barrier would stall the drain.
    pub stats_watermark: f64,
    /// The pause suggested to shed clients (`Shed { retry_after }`).
    pub retry_after: Dur,
}

impl Default for AdmissionControl {
    fn default() -> AdmissionControl {
        AdmissionControl {
            shed_watermark: 0.75,
            stats_watermark: 0.9,
            retry_after: Dur::from_millis(10),
        }
    }
}

/// Tuning knobs for a [`LeaseService`].
#[derive(Debug, Clone, Copy)]
pub struct SvcConfig {
    /// Shard worker count. Resources are partitioned by key hash.
    pub shards: usize,
    /// Capacity of each handle's ring lane into each shard — how much one
    /// submitter may have in flight per shard. A full lane refuses the
    /// send ([`SvcError::Backpressure`]), which to the sender is a lost
    /// message, and admission control measures a shard's occupancy
    /// (everything queued across its lanes) against this number.
    pub mailbox: usize,
    /// Max messages drained per wakeup, amortizing timer/wheel work.
    pub batch: usize,
    /// Watermark-driven admission control; `None` disables it (every
    /// drained input is processed, the pre-existing behaviour).
    pub admission: Option<AdmissionControl>,
    /// Chaos injection: make shard `.0` sleep `.1` after every processed
    /// input, modelling a degraded worker with bounded throughput. Shed
    /// and expired-dropped inputs pay nothing — that is the point of
    /// shedding. `None` disables.
    pub slow_shard: Option<(usize, Dur)>,
    /// Pin shard worker `i` to core `base + i` (best effort, Linux only,
    /// via [`lease_core::affinity::pin_to_core`]). `None` leaves
    /// placement to the scheduler. Thread-per-core deployments set this
    /// so a shard's cache-resident lease table stays on one core.
    pub pin: Option<usize>,
}

impl Default for SvcConfig {
    fn default() -> SvcConfig {
        SvcConfig {
            shards: 1,
            mailbox: 1024,
            batch: 64,
            admission: None,
            slow_shard: None,
            pin: None,
        }
    }
}

/// Side-effect hooks a deployment can install on every shard.
#[derive(Clone, Default)]
pub struct SvcHooks {
    /// Called when a shard needs its maximum granted term made durable
    /// (MaxTerm crash recovery, §5). `None` drops the persistence output.
    pub persist_max_term: Option<Arc<dyn Fn(Dur) + Send + Sync>>,
    /// Called when a shard restarts after a crash to read back whatever
    /// [`SvcHooks::persist_max_term`] made durable; the restarted server
    /// defers writes (§5) for that long. `None` (or a `None` return)
    /// restarts without a recovery window — only safe if no lease can have
    /// been outstanding.
    pub recover_max_term: Option<Arc<dyn Fn() -> Option<Dur> + Send + Sync>>,
    /// Observation hook: a shard finished restarting after a crash;
    /// arguments are the shard index and its new epoch. Chaos harnesses
    /// record these to correlate fault schedules with history.
    pub on_restart: Option<Arc<dyn Fn(usize, u64) + Send + Sync>>,
    /// The clock shard workers read. `None` uses a fresh [`WallClock`];
    /// chaos harnesses inject a skewed/drifting model clock here to subject
    /// the *server* to the §5 clock-failure modes.
    pub clock: Option<Arc<dyn Clock>>,
}

/// The shard that owns `resource`: a stable hash of the key, mod `shards`.
///
/// Embedders that pre-partition state (e.g. installed files per shard)
/// must use the same function the router uses.
///
/// **Stability guarantee:** the mapping is a pure function of the key and
/// the shard count — stable across process restarts, Rust releases, and
/// platforms. It is [`lease_core::FxHasher`] (a documented multiply-xor
/// hash, pinned by golden-vector tests) rather than
/// `std::collections::hash_map::DefaultHasher`, which is explicitly
/// allowed to change between Rust releases and would silently re-partition
/// any persisted shard-keyed state on a toolchain upgrade. A golden test
/// below pins `shard_of` outputs directly; changing this mapping is a
/// breaking change to every embedder that persists per-shard state.
#[inline]
pub fn shard_of<R: Hash>(resource: &R, shards: usize) -> usize {
    let mut h = FxHasher::new();
    resource.hash(&mut h);
    (h.finish() % shards as u64) as usize
}

/// Why a call into the service failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SvcError {
    /// The handle's lane into a shard is full and the message was not
    /// taken. Nothing is queued for it: to the sender it is a lost
    /// message, which the client's retransmission recovers.
    Backpressure,
    /// The service has shut down.
    Closed,
    /// A shard worker is gone: its lanes are closed, or it died while
    /// holding a request. Distinct from [`SvcError::Timeout`] — the
    /// shard will not answer, ever.
    ShardDown(usize),
    /// A shard did not answer within the deadline; it may merely be busy.
    Timeout(usize),
}

impl std::fmt::Display for SvcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SvcError::Backpressure => write!(f, "shard mailbox full"),
            SvcError::Closed => write!(f, "service closed"),
            SvcError::ShardDown(s) => write!(f, "shard {s} is down"),
            SvcError::Timeout(s) => write!(f, "shard {s} did not answer in time"),
        }
    }
}

impl std::error::Error for SvcError {}

/// Point-in-time sizes of one shard (or, merged, of the service) — what
/// it holds now, where [`ServerCounters`] say what it has done.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardGauges {
    /// Lease records in the table, expired-but-unpruned included.
    pub leases_live: u64,
    /// Pending timer-wheel entries: the table's (one per live record, plus
    /// released tenancies whose entry has not fired yet) and the shard's
    /// own (prune, installed tick, one per deferred write for a term).
    pub timer_entries: u64,
    /// Ingress lanes the worker has adopted: one per live handle (the
    /// service's own included). A producer that clones a handle per
    /// message shows up here.
    pub ingress_lanes: u64,
    /// Messages waiting in those lanes when the snapshot was taken —
    /// where ops queue in front of this shard.
    pub ingress_queued: u64,
}

/// Merged counters across shards, with the per-shard breakdown.
#[derive(Debug, Clone)]
pub struct SvcStats {
    /// All shards merged.
    pub counters: ServerCounters,
    /// One entry per shard, in shard order.
    pub per_shard: Vec<ServerCounters>,
    /// All shards' gauges summed.
    pub gauges: ShardGauges,
    /// One entry per shard, in shard order.
    pub per_shard_gauges: Vec<ShardGauges>,
    /// Crash/restart count per shard, in shard order. Counters in
    /// [`SvcStats::per_shard`] reset when a shard restarts; this says how
    /// often that happened.
    pub restarts: Vec<u64>,
}

/// A cloneable, backpressure-aware handle into the service.
///
/// The handle is the cross-shard coordinator: it routes every message to
/// the shard that owns its resource, splitting batched requests along
/// shard boundaries and translating write ids so approvals triggered by
/// one shard's multicast find their way back to it from any client.
///
/// # Per-producer ingress
///
/// Every handle owns one private SPSC ring *lane* per shard: hot sends
/// publish into the lane with no lock and wake the shard through its
/// doorbell (two uncontended atomics when the worker is spinning, one
/// futex signal only when it is parked). Cloning a handle therefore
/// creates and registers a fresh set of lanes — clone **once per
/// producer thread**, not per message. The handle is deliberately
/// `Send` but `!Sync`: one thread per handle is what makes the lanes
/// single-producer. To share a handle across threads (e.g. in a slot a
/// failover path swaps), wrap it in a `Mutex` — `Mutex<SvcHandle>` is
/// `Sync` — or give each thread its own clone. The lanes are the only
/// way into a shard: the service's own stats, kill and shutdown messages
/// ride the lanes of the handle [`LeaseService`] keeps for itself.
pub struct SvcHandle<R: Resource, D> {
    shared: Arc<HandleShared<R, D>>,
    /// This handle's private SPSC lane into each shard, in shard order.
    lanes: Box<[Producer<ShardMsg<R, D>>]>,
}

/// The per-service state every handle shares.
pub(crate) struct HandleShared<R: Resource, D> {
    /// Each shard's doorbell + lane registry.
    ingress: Box<[Arc<ShardIngress<R, D>>]>,
    /// Capacity of each newly attached lane.
    lane_cap: usize,
}

impl<R: Resource, D> SvcHandle<R, D> {
    /// Builds a handle with a fresh set of registered lanes.
    pub(crate) fn attach(shared: Arc<HandleShared<R, D>>) -> SvcHandle<R, D> {
        let lanes = shared
            .ingress
            .iter()
            .map(|ing| {
                let (tx, rx) = spsc(shared.lane_cap);
                ing.register(rx);
                tx
            })
            .collect();
        SvcHandle { shared, lanes }
    }

    /// Rings shard `s`'s doorbell (call after publishing to its lane).
    fn wake(&self, s: usize) {
        self.shared.ingress[s].bell().ring();
    }

    /// Non-blocking push of one message into this handle's lane for
    /// shard `s`.
    fn lane_try_push(&self, s: usize, msg: ShardMsg<R, D>) -> Result<(), SvcError> {
        match self.lanes[s].try_push(msg) {
            Ok(()) => {
                self.wake(s);
                Ok(())
            }
            Err(PushError::Full(_)) => Err(SvcError::Backpressure),
            Err(PushError::Closed(_)) => Err(SvcError::Closed),
        }
    }

    /// Blocking push: yields until the lane has room. The worker never
    /// parks while this lane is non-empty (it polls lanes before taking
    /// a doorbell ticket), so spinning here cannot deadlock.
    fn lane_push(&self, s: usize, msg: ShardMsg<R, D>) -> Result<(), SvcError> {
        self.lane_push_until(s, msg, None)
    }

    /// [`Self::lane_push`] that gives up with [`SvcError::Timeout`] once
    /// `deadline` passes — a worker stuck in its sink drains nothing, and
    /// a caller with a deadline of its own must not wait on it forever.
    fn lane_push_until(
        &self,
        s: usize,
        mut msg: ShardMsg<R, D>,
        deadline: Option<Instant>,
    ) -> Result<(), SvcError> {
        loop {
            match self.lanes[s].try_push(msg) {
                Ok(()) => {
                    self.wake(s);
                    return Ok(());
                }
                Err(PushError::Closed(_)) => return Err(SvcError::Closed),
                Err(PushError::Full(back)) => {
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        return Err(SvcError::Timeout(s));
                    }
                    msg = back;
                    std::thread::yield_now();
                }
            }
        }
    }
}

impl<R: Resource, D> Clone for SvcHandle<R, D> {
    /// Attaches a new producer: fresh lanes, registered with every
    /// shard. Clone once per producer thread, not per message — a
    /// clone's cost is `shards` ring allocations.
    fn clone(&self) -> Self {
        SvcHandle::attach(self.shared.clone())
    }
}

/// A caller-side, reusable buffer of protocol messages bound for the
/// service — the unit of [`SvcHandle::try_send_batch`].
///
/// Callers push `(from, msg)` pairs between submits; the handle routes the
/// whole buffer in one pass (one [`shard_of`] per message, one lane
/// publish per *touched shard* instead of one per message) so the per-op
/// submission cost under load is a ring slot.
/// The buffer retains its allocations across submits — a steady-state
/// producer reuses one `BatchBuf` indefinitely.
pub struct BatchBuf<R: Resource, D> {
    /// Unrouted messages with their op deadlines, in push order.
    msgs: Vec<(ClientId, ToServer<R, D>, Option<Time>)>,
    /// Per-shard staging, reused flush to flush.
    staged: Vec<Vec<ShardMsg<R, D>>>,
    /// Messages dropped at staging time because their deadline had
    /// already passed (only by [`SvcHandle::try_send_batch_at`] with a
    /// `now`). Cumulative; callers may reset it between reads.
    pub expired: u64,
}

impl<R: Resource, D> Default for BatchBuf<R, D> {
    fn default() -> Self {
        BatchBuf::new()
    }
}

impl<R: Resource, D> BatchBuf<R, D> {
    /// An empty buffer.
    pub fn new() -> BatchBuf<R, D> {
        BatchBuf {
            msgs: Vec::new(),
            staged: Vec::new(),
            expired: 0,
        }
    }

    /// Queues one message for the next [`SvcHandle::try_send_batch`].
    pub fn push(&mut self, from: ClientId, msg: ToServer<R, D>) {
        self.msgs.push((from, msg, None));
    }

    /// Like [`BatchBuf::push`] with the originating op's deadline: every
    /// later hop — staging, the shard's lanes, the drain — may drop the
    /// message once the deadline passes instead of doing dead work for a
    /// caller that has already timed out.
    pub fn push_deadline(&mut self, from: ClientId, msg: ToServer<R, D>, deadline: Option<Time>) {
        self.msgs.push((from, msg, deadline));
    }

    /// Messages currently buffered (un-submitted).
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// Whether the buffer holds no messages.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    /// Drops all buffered messages (allocations retained).
    pub fn clear(&mut self) {
        self.msgs.clear();
        for s in &mut self.staged {
            s.clear();
        }
    }

    /// Routes every buffered message into the per-shard staging lists;
    /// with a `now`, messages whose deadline has already passed are
    /// dropped (counted in [`BatchBuf::expired`]) instead of routed.
    fn stage(&mut self, n: usize, now: Option<Time>) {
        if self.staged.len() < n {
            self.staged.resize_with(n, Vec::new);
        }
        let BatchBuf {
            msgs,
            staged,
            expired,
        } = self;
        for (from, msg, deadline) in msgs.drain(..) {
            if let (Some(now), Some(d)) = (now, deadline) {
                if now > d {
                    *expired += 1;
                    continue;
                }
            }
            route_into(from, msg, deadline, n, staged);
        }
    }

    /// Moves refused staged parts back into `msgs` for resubmission.
    fn unstage_refused(&mut self) {
        let BatchBuf { msgs, staged, .. } = self;
        for stage in staged {
            for m in stage.drain(..) {
                if let ShardMsg::Input {
                    input: ServerInput::Msg { from, msg },
                    deadline,
                } = m
                {
                    msgs.push((from, msg, deadline));
                }
            }
        }
    }
}

impl<R: Resource, D: Clone> SvcHandle<R, D> {
    /// The shard count.
    pub fn shards(&self) -> usize {
        self.shared.ingress.len()
    }

    /// Routes `msg` to its shard(s) with the originating op's deadline
    /// attached: the owning shard drops the input unprocessed (counting
    /// it) if the deadline has passed by the time it drains it. A
    /// single-destination message costs one routing hash, one lock-free
    /// ring publish and one doorbell ring.
    ///
    /// Never blocks: a full lane refuses with [`SvcError::Backpressure`]
    /// and keeps nothing, so to the sender the message is lost and its
    /// retransmission is the retry. A split message may be partially
    /// delivered before the refusal; that is safe because the client
    /// retransmits the whole request and the server deduplicates.
    pub fn try_send_at(
        &self,
        from: ClientId,
        msg: ToServer<R, D>,
        deadline: Option<Time>,
    ) -> Result<(), SvcError> {
        let n = self.shards();
        match route_single(msg, n) {
            Ok((s, msg)) => self.lane_try_push(
                s,
                ShardMsg::Input {
                    input: ServerInput::Msg { from, msg },
                    deadline,
                },
            ),
            Err(msg) => {
                let mut staged: Vec<Vec<ShardMsg<R, D>>> = (0..n).map(|_| Vec::new()).collect();
                route_into(from, msg, deadline, n, &mut staged);
                for (s, stage) in staged.iter_mut().enumerate() {
                    for m in stage.drain(..) {
                        self.lane_try_push(s, m)?;
                    }
                }
                Ok(())
            }
        }
    }

    /// Submits every message in `buf` without blocking. One routing pass
    /// pre-sorts the batch by destination shard (shard-affine batching);
    /// each touched shard then accepts the prefix of its sub-batch that
    /// fits this handle's lane right now as one contiguous pre-routed run
    /// — a single ring publish and at most one doorbell ring per touched
    /// shard — so N messages cost `O(touched shards)` wakes, not `O(N)`.
    ///
    /// Returns how many routed parts were accepted; the refused remainder
    /// is put **back into `buf`** (as individually resubmittable
    /// messages, split parts included). `buf.is_empty()` afterwards means
    /// everything went through. A caller may drop the remainder (a loss
    /// its client's retransmission recovers) or resubmit it: refused
    /// parts are self-contained (a per-shard `Renew`/`Relinquish` slice
    /// is itself a valid request), so resubmitting exactly the refusals
    /// duplicates nothing.
    pub fn try_send_batch(&self, buf: &mut BatchBuf<R, D>) -> Result<usize, SvcError> {
        self.try_send_batch_at(buf, None)
    }

    /// [`SvcHandle::try_send_batch`] with deadline enforcement at the
    /// door: given `now`, buffered messages whose
    /// [`BatchBuf::push_deadline`] deadline has already passed are
    /// dropped at staging time (tallied in [`BatchBuf::expired`]) rather
    /// than submitted — a caller resubmitting under backpressure stops
    /// queueing work whose caller has already timed out.
    pub fn try_send_batch_at(
        &self,
        buf: &mut BatchBuf<R, D>,
        now: Option<Time>,
    ) -> Result<usize, SvcError> {
        let n = self.shards();
        buf.stage(n, now);
        let mut accepted = 0;
        let mut closed = false;
        for (s, stage) in buf.staged.iter_mut().enumerate() {
            if stage.is_empty() {
                continue;
            }
            let k = self.lanes[s].push_from(stage);
            if k > 0 {
                self.wake(s);
                accepted += k;
            } else if self.lanes[s].is_closed() {
                closed = true;
            }
        }
        buf.unstage_refused();
        if closed {
            return Err(SvcError::Closed);
        }
        Ok(accepted)
    }

    /// An administrative write originating at the server (install, §4).
    pub fn local_write(&self, resource: R, data: D) -> Result<(), SvcError> {
        let s = shard_of(&resource, self.shards());
        self.lane_push(
            s,
            ShardMsg::Input {
                input: ServerInput::LocalWrite { resource, data },
                deadline: None,
            },
        )
    }

    /// Fault injection: panic shard `shard`'s worker. The supervisor
    /// catches the panic and restarts the shard through §5 MaxTerm
    /// recovery, so this models a server crash, not a shutdown.
    ///
    /// The kill travels through **this handle's lane**, so it is ordered
    /// after everything this handle already submitted: chaos plans that
    /// interleave kills with traffic from the same producer replay
    /// identically on the ring ingress (the crash boundary stays
    /// message-aligned — see the shard worker's stash).
    pub fn kill_shard(&self, shard: usize) -> Result<(), SvcError> {
        if shard >= self.shards() {
            return Err(SvcError::ShardDown(shard));
        }
        self.lane_push(shard, ShardMsg::Kill)
    }
}

/// Routes a message that targets exactly one shard, or gives it back.
///
/// The hot per-op wire messages — a fetch with no piggybacked extensions,
/// a write, an approval — always have a single destination; resolving
/// them here keeps the single-message [`SvcHandle::try_send_at`] path
/// free of staging entirely. `Approve` is rewritten from the service-global write
/// id back to the owning shard's local id space.
fn route_single<R: Resource, D>(
    msg: ToServer<R, D>,
    n: usize,
) -> Result<(usize, ToServer<R, D>), ToServer<R, D>> {
    if n == 1 {
        return Ok((0, msg));
    }
    match msg {
        ToServer::Fetch {
            ref resource,
            ref also_extend,
            ..
        } if also_extend.is_empty() => {
            let s = shard_of(resource, n);
            Ok((s, msg))
        }
        ToServer::Write { ref resource, .. } => Ok((shard_of(resource, n), msg)),
        ToServer::Approve { write_id } => Ok((
            (write_id.0 % n as u64) as usize,
            ToServer::Approve {
                write_id: WriteId(write_id.0 / n as u64),
            },
        )),
        other => Err(other),
    }
}

/// Splits one wire message into per-shard sub-messages, pushing each into
/// its shard's staging list.
///
/// * `Fetch` goes to the target's shard; piggybacked `also_extend`
///   entries for other shards are re-expressed as `Renew` under the same
///   request id (the client treats grants lacking its fetch target as
///   partial replies).
/// * `Renew` and `Relinquish` partition by resource, preserving relative
///   order within each shard; when every entry maps to one shard the
///   original vector is forwarded without re-bucketing.
/// * `Approve` carries a service-global write id minted by a shard
///   (`global = local * nshards + shard`, epoch-tagged) and routes
///   straight back.
fn route_into<R: Resource, D>(
    from: ClientId,
    msg: ToServer<R, D>,
    deadline: Option<Time>,
    n: usize,
    staged: &mut [Vec<ShardMsg<R, D>>],
) {
    let input = |msg: ToServer<R, D>| ShardMsg::Input {
        input: ServerInput::Msg { from, msg },
        deadline,
    };
    let msg = match route_single(msg, n) {
        Ok((s, msg)) => {
            staged[s].push(input(msg));
            return;
        }
        Err(msg) => msg,
    };
    match msg {
        ToServer::Fetch {
            req,
            resource,
            cached,
            also_extend,
        } => {
            let primary = shard_of(&resource, n);
            let mut per = partition(also_extend, n, |(r, _, _)| r);
            staged[primary].push(input(ToServer::Fetch {
                req,
                resource,
                cached,
                also_extend: std::mem::take(&mut per[primary]),
            }));
            for (s, resources) in per.into_iter().enumerate() {
                if !resources.is_empty() {
                    staged[s].push(input(ToServer::Renew { req, resources }));
                }
            }
        }
        ToServer::Renew { req, resources } => {
            if let Some(s) = sole_shard(&resources, n, |(r, _, _)| r) {
                staged[s].push(input(ToServer::Renew { req, resources }));
                return;
            }
            for (s, resources) in partition(resources, n, |(r, _, _)| r)
                .into_iter()
                .enumerate()
            {
                if !resources.is_empty() {
                    staged[s].push(input(ToServer::Renew { req, resources }));
                }
            }
        }
        ToServer::Relinquish { resources } => {
            if let Some(s) = sole_shard(&resources, n, |r| r) {
                staged[s].push(input(ToServer::Relinquish { resources }));
                return;
            }
            for (s, resources) in partition(resources, n, |r| r).into_iter().enumerate() {
                if !resources.is_empty() {
                    staged[s].push(input(ToServer::Relinquish { resources }));
                }
            }
        }
        // route_single handled these.
        ToServer::Write { .. } | ToServer::Approve { .. } => unreachable!(),
    }
}

/// The single shard every item maps to, if there is one (`None` for an
/// empty list or a genuinely split one).
fn sole_shard<T, K: Hash>(items: &[T], n: usize, key: impl Fn(&T) -> &K) -> Option<usize> {
    let first = items.first()?;
    let s = shard_of(key(first), n);
    items[1..]
        .iter()
        .all(|it| shard_of(key(it), n) == s)
        .then_some(s)
}

/// Partitions `items` into `n` buckets by the shard of `key(item)`,
/// preserving relative order within each bucket.
fn partition<T, K: Hash>(items: Vec<T>, n: usize, key: impl Fn(&T) -> &K) -> Vec<Vec<T>> {
    let mut per: Vec<Vec<T>> = (0..n).map(|_| Vec::new()).collect();
    for it in items {
        let s = shard_of(key(&it), n);
        per[s].push(it);
    }
    per
}

/// A running sharded lease service: N supervised shard worker threads,
/// each owning the slice of the lease table whose resources hash to it.
pub struct LeaseService<R: Resource, D> {
    handle: SvcHandle<R, D>,
    threads: Vec<JoinHandle<()>>,
    restarts: Vec<Arc<AtomicU64>>,
}

impl<R: Resource, D: Clone + Send + 'static> LeaseService<R, D> {
    /// Spawns the shard workers.
    ///
    /// `make_shard(i)` builds shard `i`'s state machine and storage; use
    /// [`shard_of`] to pre-partition any per-resource server state (e.g.
    /// installed files). The state machines are unmodified `lease-core`
    /// servers — the service only partitions, supervises, and schedules
    /// them. The factory is retained for the life of the service: each
    /// crash of shard `i` calls `make_shard(i)` again to build the
    /// replacement incarnation, which then runs §5 MaxTerm recovery from
    /// [`SvcHooks::recover_max_term`].
    pub fn spawn<F>(
        cfg: SvcConfig,
        sink: Arc<dyn ClientSink<R, D>>,
        hooks: SvcHooks,
        make_shard: F,
    ) -> LeaseService<R, D>
    where
        F: Fn(usize) -> (LeaseServer<R, D>, Box<dyn Storage<R, D> + Send>) + Send + Sync + 'static,
    {
        assert!(cfg.shards >= 1, "a service needs at least one shard");
        // On a single hardware thread, spin-waiting is provably useless:
        // the producer cannot run while this worker spins, so no poll can
        // ever observe a new publish — parking immediately hands the core
        // to whoever has work. Spin only buys latency when another core
        // can publish concurrently.
        let spin = if std::thread::available_parallelism().map_or(1, |n| n.get()) > 1 {
            crate::shard::SPIN
        } else {
            0
        };
        let clock: Arc<dyn Clock> = hooks
            .clock
            .clone()
            .unwrap_or_else(|| Arc::new(WallClock::new()));
        let factory: crate::shard::ShardFactory<R, D> = Arc::new(make_shard);
        let restarts: Vec<Arc<AtomicU64>> = (0..cfg.shards)
            .map(|_| Arc::new(AtomicU64::new(0)))
            .collect();
        let shared = Arc::new(HandleShared {
            ingress: (0..cfg.shards)
                .map(|_| Arc::new(ShardIngress::new()))
                .collect(),
            // Each producer lane gets the mailbox's capacity: the knob
            // keeps its meaning as "how much one submitter may have in
            // flight per shard before backpressure".
            lane_cap: cfg.mailbox.max(1),
        });
        let threads = restarts
            .iter()
            .enumerate()
            .map(|(i, shard_restarts)| {
                spawn_shard(ShardCtx {
                    index: i as u64,
                    nshards: cfg.shards as u64,
                    batch: cfg.batch.max(1),
                    spin,
                    mailbox: cfg.mailbox.max(1),
                    ingress: shared.ingress[i].clone(),
                    handles: Arc::downgrade(&shared),
                    pin: cfg.pin,
                    admission: cfg.admission,
                    slow: cfg.slow_shard.and_then(|(s, d)| (s == i).then_some(d)),
                    sink: sink.clone(),
                    hooks: hooks.clone(),
                    clock: clock.clone(),
                    factory: factory.clone(),
                    restarts: shard_restarts.clone(),
                    stash: std::sync::Mutex::new(Vec::new()),
                })
            })
            .collect();
        LeaseService {
            handle: SvcHandle::attach(shared),
            threads,
            restarts,
        }
    }

    /// A handle for submitting client traffic.
    pub fn handle(&self) -> SvcHandle<R, D> {
        self.handle.clone()
    }

    /// Snapshots and merges every shard's counters.
    ///
    /// Fails with [`SvcError::ShardDown`] when a shard's worker is gone
    /// (its lanes are closed or it died holding the request) and with
    /// [`SvcError::Timeout`] when a shard is merely too busy — or too
    /// stuck in its sink — to take or answer the request within 5
    /// seconds: callers can tell a dead shard from a slow one.
    ///
    /// Every shard's `Stats` request is issued before any reply is
    /// awaited, and the replies are collected against one shared
    /// deadline, so the shards snapshot concurrently and a stats call
    /// costs the *slowest* shard's latency, not the sum of all of them.
    /// A shard answers stats only after flushing its pending egress, so a
    /// successful snapshot also means every reply to earlier-submitted
    /// input has left the service.
    pub fn stats(&self) -> Result<SvcStats, SvcError> {
        self.stats_within(Duration::from_secs(5))
    }

    fn stats_within(&self, patience: Duration) -> Result<SvcStats, SvcError> {
        let shards = self.handle.shards();
        let deadline = Instant::now() + patience;
        let mut replies = Vec::with_capacity(shards);
        for i in 0..shards {
            let (reply, rx) = sync_channel(1);
            let request = ShardMsg::Stats {
                reply,
                barriered: false,
            };
            self.handle
                .lane_push_until(i, request, Some(deadline))
                .map_err(|e| match e {
                    SvcError::Closed => SvcError::ShardDown(i),
                    other => other,
                })?;
            replies.push(rx);
        }
        let mut counters = ServerCounters::default();
        let mut per_shard = Vec::with_capacity(shards);
        let mut gauges = ShardGauges::default();
        let mut per_shard_gauges = Vec::with_capacity(shards);
        for (i, rx) in replies.into_iter().enumerate() {
            let (c, g) = rx
                .recv_timeout(deadline.saturating_duration_since(Instant::now()))
                .map_err(|e| match e {
                    RecvTimeoutError::Timeout => SvcError::Timeout(i),
                    RecvTimeoutError::Disconnected => SvcError::ShardDown(i),
                })?;
            counters.merge(&c);
            per_shard.push(c);
            gauges.leases_live += g.leases_live;
            gauges.timer_entries += g.timer_entries;
            gauges.ingress_lanes += g.ingress_lanes;
            gauges.ingress_queued += g.ingress_queued;
            per_shard_gauges.push(g);
        }
        Ok(SvcStats {
            counters,
            per_shard,
            gauges,
            per_shard_gauges,
            restarts: self
                .restarts
                .iter()
                .map(|r| r.load(Ordering::Relaxed))
                .collect(),
        })
    }

    /// Stops every shard worker and waits for them. (Dropping the service
    /// and every handle stops the workers too, without the wait: a worker
    /// whose producers are all gone exits once its lanes are dry.)
    pub fn shutdown(mut self) {
        for i in 0..self.handle.shards() {
            let _ = self.handle.lane_push(i, ShardMsg::Shutdown);
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lease_core::{Grant, MemStorage, ReqId, ServerConfig};
    use std::sync::mpsc::{channel as unbounded, Receiver};

    type Msg = (ClientId, ToClient<u64, String>);

    /// A plain-FIFO test sink: every worker forwards each reply, in
    /// order, through its own clone of `send` (a channel sender — a
    /// `sync_channel` one jams the worker once full).
    struct FifoSink<F>(F);

    impl<F> ClientSink<u64, String> for FifoSink<F>
    where
        F: Fn(Msg) + Clone + Send + Sync + 'static,
    {
        fn attach_worker(&self) -> Box<dyn WorkerSink<u64, String>> {
            Box::new(FifoSink(self.0.clone()))
        }
    }

    impl<F: Fn(Msg) + Send> WorkerSink<u64, String> for FifoSink<F> {
        fn deliver_batch(&mut self, msgs: &mut Vec<Msg>) {
            msgs.drain(..).for_each(&self.0);
        }
    }

    /// A service over 64 resources (`r` holds `"v{r}"`, 10 s terms) whose
    /// workers hand every reply to a clone of `send`.
    fn spawn<F>(cfg: SvcConfig, hooks: SvcHooks, send: F) -> LeaseService<u64, String>
    where
        F: Fn(Msg) + Clone + Send + Sync + 'static,
    {
        LeaseService::spawn(cfg, Arc::new(FifoSink(send)), hooks, |_| {
            let mut store = MemStorage::new();
            for r in 0..64u64 {
                store.insert(r, format!("v{r}"));
            }
            (
                LeaseServer::new(ServerConfig::fixed(Dur::from_secs(10))),
                Box::new(store) as Box<dyn Storage<u64, String> + Send>,
            )
        })
    }

    fn service(shards: usize) -> (LeaseService<u64, String>, Receiver<Msg>) {
        let (tx, rx) = unbounded();
        let svc = spawn(
            SvcConfig {
                shards,
                ..SvcConfig::default()
            },
            SvcHooks::default(),
            move |m| {
                let _ = tx.send(m);
            },
        );
        (svc, rx)
    }

    fn recv(rx: &Receiver<Msg>) -> Msg {
        rx.recv_timeout(std::time::Duration::from_secs(5))
            .expect("reply")
    }

    /// Submits `msg`, spinning while the lane is full: a closed-loop test
    /// producer's wait, which the handle itself does not offer.
    fn send(
        h: &SvcHandle<u64, String>,
        from: ClientId,
        msg: ToServer<u64, String>,
    ) -> Result<(), SvcError> {
        loop {
            match h.try_send_at(from, msg.clone(), None) {
                Err(SvcError::Backpressure) => std::thread::yield_now(),
                sent => return sent,
            }
        }
    }

    #[test]
    fn fetches_are_granted_across_shards() {
        let (svc, rx) = service(4);
        let h = svc.handle();
        for r in 0..16u64 {
            send(
                &h,
                ClientId(0),
                ToServer::Fetch {
                    req: ReqId(r),
                    resource: r,
                    cached: None,
                    also_extend: vec![],
                },
            )
            .unwrap();
        }
        let mut seen = std::collections::HashSet::new();
        for _ in 0..16 {
            let (to, msg) = recv(&rx);
            assert_eq!(to, ClientId(0));
            match msg {
                ToClient::Grants { grants, .. } => {
                    for Grant { resource, data, .. } in grants {
                        assert_eq!(data.as_deref(), Some(format!("v{resource}").as_str()));
                        seen.insert(resource);
                    }
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
        assert_eq!(seen.len(), 16);
        let stats = svc.stats().unwrap();
        assert_eq!(stats.counters.fetch_rx, 16);
        assert_eq!(stats.per_shard.len(), 4);
        // The merged view is exactly the sum of the shards.
        let sum: u64 = stats.per_shard.iter().map(|c| c.fetch_rx).sum();
        assert_eq!(sum, stats.counters.fetch_rx);
        // Gauges: 16 leases held, one table-wheel entry each, plus each
        // holding shard's armed prune.
        assert_eq!(stats.gauges.leases_live, 16);
        assert!((16..=20).contains(&stats.gauges.timer_entries));
        let live: u64 = stats.per_shard_gauges.iter().map(|g| g.leases_live).sum();
        assert_eq!(live, 16);
        // Two handles (the service's own and `h`), one lane each per
        // shard, and the barrier left nothing waiting in them.
        assert!(stats.per_shard_gauges.iter().all(|g| g.ingress_lanes == 2));
        assert_eq!(stats.gauges.ingress_lanes, 8);
        assert_eq!(stats.gauges.ingress_queued, 0);
        svc.shutdown();
    }

    #[test]
    fn batched_extension_splits_into_renewals() {
        let (svc, rx) = service(4);
        let h = svc.handle();
        // Take leases on every resource first, remembering versions.
        let mut versions = std::collections::HashMap::new();
        for r in 0..8u64 {
            send(
                &h,
                ClientId(0),
                ToServer::Fetch {
                    req: ReqId(r),
                    resource: r,
                    cached: None,
                    also_extend: vec![],
                },
            )
            .unwrap();
        }
        for _ in 0..8 {
            let (_, msg) = recv(&rx);
            let ToClient::Grants { grants, .. } = msg else {
                panic!("expected grants, got {msg:?}");
            };
            for g in grants {
                versions.insert(g.resource, g.version);
            }
        }
        // One fetch piggybacking extension of all the others: the router
        // splits the batch across every shard that holds a piece.
        send(
            &h,
            ClientId(0),
            ToServer::Fetch {
                req: ReqId(100),
                resource: 0,
                cached: Some(versions[&0]),
                also_extend: (1..8u64)
                    .map(|r| (r, versions[&r], lease_core::LeaseHandle::NULL))
                    .collect(),
            },
        )
        .unwrap();
        let mut extended = std::collections::HashSet::new();
        while extended.len() < 8 {
            let (_, msg) = recv(&rx);
            match msg {
                ToClient::Grants { req, grants } => {
                    assert_eq!(req, ReqId(100));
                    for g in grants {
                        extended.insert(g.resource);
                    }
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
        let stats = svc.stats().unwrap();
        assert_eq!(stats.counters.fetch_rx, 9);
        assert!(stats.counters.renew_rx >= 1);
        svc.shutdown();
    }

    #[test]
    fn write_approval_round_trips_through_global_write_ids() {
        let (svc, rx) = service(4);
        let h = svc.handle();
        // Client 1 takes a lease on every resource, so every write below
        // needs its approval — wherever the resource's shard is.
        for r in 0..8u64 {
            send(
                &h,
                ClientId(1),
                ToServer::Fetch {
                    req: ReqId(r),
                    resource: r,
                    cached: None,
                    also_extend: vec![],
                },
            )
            .unwrap();
            recv(&rx);
        }
        for r in 0..8u64 {
            send(
                &h,
                ClientId(0),
                ToServer::Write {
                    req: ReqId(100 + r),
                    resource: r,
                    data: format!("w{r}"),
                },
            )
            .unwrap();
            // The approval request reaches client 1 with a global id...
            let (to, msg) = recv(&rx);
            assert_eq!(to, ClientId(1));
            let ToClient::ApprovalRequest {
                write_id, resource, ..
            } = msg
            else {
                panic!("expected approval request, got {msg:?}");
            };
            assert_eq!(resource, r);
            // ...which routes the approval back to the owning shard.
            send(&h, ClientId(1), ToServer::Approve { write_id }).unwrap();
            let (to, msg) = recv(&rx);
            assert_eq!(to, ClientId(0));
            let ToClient::WriteDone { resource, .. } = msg else {
                panic!("expected write done, got {msg:?}");
            };
            assert_eq!(resource, r);
        }
        let stats = svc.stats().unwrap();
        assert_eq!(stats.counters.writes_rx, 8);
        assert_eq!(stats.counters.approvals_rx, 8);
        svc.shutdown();
    }

    #[test]
    fn backpressure_is_reported_not_dropped() {
        // A 1-slot mailbox feeding a shard whose sink quickly jams: once
        // the worker blocks delivering a reply and the mailbox is full,
        // try_send_at must refuse rather than block.
        let (tx, rx) = sync_channel(1);
        let svc = spawn(
            SvcConfig {
                shards: 1,
                mailbox: 1,
                ..SvcConfig::default()
            },
            SvcHooks::default(),
            move |m| {
                let _ = tx.send(m);
            },
        );
        let h = svc.handle();
        let fetch = |r| ToServer::Fetch {
            req: ReqId(r),
            resource: r,
            cached: None,
            also_extend: vec![],
        };
        let mut refused = false;
        for r in 0..1000u64 {
            if h.try_send_at(ClientId(0), fetch(r), None) == Err(SvcError::Backpressure) {
                refused = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(
            refused,
            "a 1-slot mailbox behind a jammed sink never refused"
        );
        // Unjam the sink so the worker can drain and shut down.
        let drainer = std::thread::spawn(move || while rx.recv().is_ok() {});
        svc.shutdown();
        drainer.join().unwrap();
    }

    /// Golden routing vectors: `shard_of` is a persistence contract (see
    /// its docs) — embedders pre-partition durable state by it. If this
    /// test fails, the routing changed; fix the hash, never the vectors.
    #[test]
    fn shard_of_is_pinned() {
        let route = |n: usize| -> Vec<usize> { (0..16u64).map(|r| shard_of(&r, n)).collect() };
        assert_eq!(route(1), vec![0; 16]);
        assert_eq!(
            route(2),
            vec![0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1]
        );
        assert_eq!(
            route(4),
            vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3]
        );
        assert_eq!(
            route(8),
            vec![0, 5, 2, 7, 4, 1, 6, 3, 0, 5, 2, 7, 4, 1, 6, 3]
        );
        assert_eq!(shard_of(&0xdead_beefu64, 4), 3);
        assert_eq!(shard_of(&u64::MAX, 8), 3);
        assert_eq!(shard_of(&(1u64 << 40), 8), 0);
    }

    #[test]
    fn try_send_batch_round_trips_across_shards() {
        let (svc, rx) = service(4);
        let h = svc.handle();
        let mut buf = BatchBuf::new();
        for r in 0..32u64 {
            buf.push(
                ClientId(0),
                ToServer::Fetch {
                    req: ReqId(r),
                    resource: r,
                    cached: None,
                    also_extend: vec![],
                },
            );
        }
        assert_eq!(buf.len(), 32);
        assert_eq!(h.try_send_batch(&mut buf).unwrap(), 32);
        assert!(buf.is_empty(), "empty lanes take the whole buffer");
        let mut seen = std::collections::HashSet::new();
        for _ in 0..32 {
            let (_, msg) = recv(&rx);
            let ToClient::Grants { grants, .. } = msg else {
                panic!("expected grants, got {msg:?}");
            };
            for g in grants {
                seen.insert(g.resource);
            }
        }
        assert_eq!(seen.len(), 32);
        let stats = svc.stats().unwrap();
        assert_eq!(stats.counters.fetch_rx, 32);
        svc.shutdown();
    }

    #[test]
    fn overloaded_shard_sheds_cold_fetches_but_not_renewals() {
        // One slow-ish path to overload: a tiny mailbox plus a jammed
        // sink. With admission control on, drains that see a backlogged
        // mailbox answer cold fetches with Shed instead of granting.
        use lease_core::ErrorReason;
        let (tx, rx) = unbounded();
        let svc = spawn(
            SvcConfig {
                shards: 1,
                mailbox: 8,
                batch: 2,
                admission: Some(AdmissionControl {
                    shed_watermark: 0.25, // >= 2 of 8 slots still queued
                    stats_watermark: 2.0,
                    retry_after: Dur::from_millis(7),
                }),
                slow_shard: Some((0, Dur::from_millis(2))),
                ..SvcConfig::default()
            },
            SvcHooks::default(),
            move |m| {
                let _ = tx.send(m);
            },
        );
        let h = svc.handle();
        // Grant one lease while the service is idle (never shed).
        send(
            &h,
            ClientId(0),
            ToServer::Fetch {
                req: ReqId(0),
                resource: 0,
                cached: None,
                also_extend: vec![],
            },
        )
        .unwrap();
        let (_, first) = recv(&rx);
        let ToClient::Grants { grants, .. } = first else {
            panic!("expected idle-path grant, got {first:?}");
        };
        let handle = grants[0].handle;
        let version = grants[0].version;
        // Now pile on cold fetches faster than the 2ms/input slow shard
        // can drain, with renewals of resource 0 interleaved.
        for r in 1..32u64 {
            send(
                &h,
                ClientId(0),
                ToServer::Fetch {
                    req: ReqId(r),
                    resource: 1 + (r % 7),
                    cached: None,
                    also_extend: vec![],
                },
            )
            .unwrap();
            send(
                &h,
                ClientId(0),
                ToServer::Renew {
                    req: ReqId(1000 + r),
                    resources: vec![(0u64, version, handle)],
                },
            )
            .unwrap();
        }
        let mut sheds = 0u64;
        let mut renew_grants = 0u64;
        for _ in 0..62 {
            let (_, msg) = recv(&rx);
            match msg {
                ToClient::Error {
                    reason: ErrorReason::Shed { retry_after },
                    ..
                } => {
                    assert_eq!(retry_after, Dur::from_millis(7));
                    sheds += 1;
                }
                ToClient::Grants { req, .. } if req.0 >= 1000 => renew_grants += 1,
                ToClient::Grants { .. } => {}
                other => panic!("unexpected reply {other:?}"),
            }
        }
        assert!(sheds > 0, "a backlogged shard never shed a cold fetch");
        assert_eq!(renew_grants, 31, "renewals must never be shed");
        let stats = svc.stats().unwrap();
        assert_eq!(stats.counters.sheds, sheds);
        svc.shutdown();
    }

    #[test]
    fn expired_deadlines_are_dropped_not_processed() {
        let (svc, rx) = service(1);
        let h = svc.handle();
        // A deadline far in the past: the shard must drop the input.
        h.try_send_at(
            ClientId(0),
            ToServer::Fetch {
                req: ReqId(1),
                resource: 1,
                cached: None,
                also_extend: vec![],
            },
            Some(Time::ZERO),
        )
        .unwrap();
        // And one with no deadline right behind it, to order the check.
        send(
            &h,
            ClientId(0),
            ToServer::Fetch {
                req: ReqId(2),
                resource: 2,
                cached: None,
                also_extend: vec![],
            },
        )
        .unwrap();
        let (_, msg) = recv(&rx);
        let ToClient::Grants { req, .. } = msg else {
            panic!("expected a grant, got {msg:?}");
        };
        assert_eq!(req, ReqId(2), "the expired fetch must not be answered");
        let stats = svc.stats().unwrap();
        assert_eq!(stats.counters.expired_drops, 1);
        assert_eq!(stats.counters.fetch_rx, 1);
        svc.shutdown();
    }

    #[test]
    fn try_send_batch_at_drops_expired_at_the_door() {
        let (svc, rx) = service(1);
        let h = svc.handle();
        let mut buf = BatchBuf::new();
        buf.push_deadline(
            ClientId(0),
            ToServer::Fetch {
                req: ReqId(1),
                resource: 1,
                cached: None,
                also_extend: vec![],
            },
            Some(Time::from_millis(5)),
        );
        buf.push_deadline(
            ClientId(0),
            ToServer::Fetch {
                req: ReqId(2),
                resource: 2,
                cached: None,
                also_extend: vec![],
            },
            Some(Time::from_secs(1_000_000)),
        );
        let n = h
            .try_send_batch_at(&mut buf, Some(Time::from_millis(10)))
            .unwrap();
        assert_eq!(n, 1, "only the live fetch is submitted");
        assert_eq!(buf.expired, 1, "the dead fetch is tallied, not queued");
        assert!(buf.is_empty());
        let (_, msg) = recv(&rx);
        let ToClient::Grants { req, .. } = msg else {
            panic!("expected a grant, got {msg:?}");
        };
        assert_eq!(req, ReqId(2));
        svc.shutdown();
    }

    #[test]
    fn try_send_batch_returns_refusals_for_resubmission() {
        // A 1-slot mailbox behind a jammed sink: try_send_batch must
        // accept what fits and hand the refused remainder back in the
        // buffer, self-contained, so resubmitting exactly `buf` is
        // enough.
        let (tx, rx) = sync_channel(1);
        let svc = spawn(
            SvcConfig {
                shards: 1,
                mailbox: 1,
                ..SvcConfig::default()
            },
            SvcHooks::default(),
            move |m| {
                let _ = tx.send(m);
            },
        );
        let h = svc.handle();
        let fill = |buf: &mut BatchBuf<u64, String>, lo: u64, hi: u64| {
            for r in lo..hi {
                buf.push(
                    ClientId(0),
                    ToServer::Fetch {
                        req: ReqId(r),
                        resource: r,
                        cached: None,
                        also_extend: vec![],
                    },
                );
            }
        };
        let mut buf = BatchBuf::new();
        let mut accepted = 0u64;
        let mut drained = 0u64;
        let mut refused_once = false;
        while accepted < 64 {
            if buf.is_empty() {
                fill(&mut buf, accepted, 64);
            }
            let before = buf.len();
            let n = h.try_send_batch(&mut buf).unwrap();
            assert_eq!(before, n + buf.len(), "accepted + refused must tally");
            accepted += n as u64;
            if !buf.is_empty() {
                refused_once = true;
                // Drain a reply to make room, then resubmit the refusals.
                if rx.recv_timeout(std::time::Duration::from_secs(5)).is_ok() {
                    drained += 1;
                }
            }
        }
        assert!(refused_once, "a 1-slot mailbox never refused a 64-batch");
        // Keep the sink flowing so the worker can answer stats and drain.
        let drainer = std::thread::spawn(move || {
            let mut got = 0u64;
            while rx.recv().is_ok() {
                got += 1;
            }
            got
        });
        let stats = svc.stats().unwrap();
        assert_eq!(stats.counters.fetch_rx, 64);
        svc.shutdown();
        // Every accepted fetch was answered exactly once.
        assert_eq!(drained + drainer.join().unwrap(), 64);
    }

    fn fetch(r: u64) -> ToServer<u64, String> {
        ToServer::Fetch {
            req: ReqId(r),
            resource: r,
            cached: None,
            also_extend: vec![],
        }
    }

    #[test]
    fn stats_times_out_on_a_jammed_shard_even_with_a_full_control_lane() {
        // The sink takes one reply and then blocks for good, so the
        // worker stops draining. The service's own lane (2 slots at
        // mailbox 1) absorbs two stats requests; the third finds it
        // full. Every call must give up at its deadline.
        let (tx, rx) = sync_channel(1);
        let svc = spawn(
            SvcConfig {
                shards: 1,
                mailbox: 1,
                ..SvcConfig::default()
            },
            SvcHooks::default(),
            move |m| {
                let _ = tx.send(m);
            },
        );
        let h = svc.handle();
        let mut jammed = false;
        for r in 0..1000u64 {
            if h.try_send_at(ClientId(0), fetch(r % 16), None) == Err(SvcError::Backpressure) {
                jammed = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(jammed, "the worker never jammed in its sink");
        for _ in 0..3 {
            let t0 = Instant::now();
            let patience = Duration::from_millis(200);
            assert_eq!(svc.stats_within(patience).err(), Some(SvcError::Timeout(0)));
            assert!(t0.elapsed() < patience + Duration::from_secs(2));
        }
        // Unjammed, the shard answers again (the abandoned requests are
        // answered into dropped receivers, harmlessly).
        let drainer = std::thread::spawn(move || while rx.recv().is_ok() {});
        assert!(svc.stats().is_ok());
        svc.shutdown();
        drainer.join().unwrap();
    }

    #[test]
    fn a_dead_shard_reports_shard_down_not_timeout() {
        // An `on_restart` hook that panics takes the supervisor itself
        // down with the next injected kill: the thread is gone for good.
        crate::chaos::silence_injected_kills();
        let svc = spawn(
            SvcConfig::default(),
            SvcHooks {
                on_restart: Some(Arc::new(|_, _| {
                    panic!("{}: the supervisor dies too", crate::INJECTED_KILL)
                })),
                ..SvcHooks::default()
            },
            |_| {},
        );
        let h = svc.handle();
        h.kill_shard(0).unwrap();
        let t0 = Instant::now();
        while h.try_send_at(ClientId(0), fetch(0), None) != Err(SvcError::Closed) {
            assert!(t0.elapsed() < Duration::from_secs(5), "shard never died");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(svc.stats().err(), Some(SvcError::ShardDown(0)));
        svc.shutdown();
    }

    #[test]
    fn stats_barrier_covers_lane_traffic_from_other_handles() {
        // The stats request rides the service's own lane; the fetches
        // ride two other handles' lanes. Whatever order the gather met
        // them in, every reply is in the sink when `stats` returns.
        let (svc, rx) = service(4);
        let (a, b) = (svc.handle(), svc.handle());
        for round in 0..20u64 {
            for r in 0..32u64 {
                send(&a, ClientId(0), fetch(r)).unwrap();
                send(&b, ClientId(1), fetch(32 + r)).unwrap();
            }
            let stats = svc.stats().unwrap();
            assert_eq!(stats.counters.fetch_rx, 64 * (round + 1));
            assert_eq!(rx.try_iter().count(), 64, "round {round}");
        }
        svc.shutdown();
    }

    #[test]
    fn stats_and_shutdown_are_not_starved_by_saturated_data_lanes() {
        // Three producers keep their 4-slot lanes full for the whole
        // test; control messages share the round-robin with them.
        let svc = spawn(
            SvcConfig {
                shards: 1,
                mailbox: 4,
                batch: 4,
                ..SvcConfig::default()
            },
            SvcHooks::default(),
            |_| {},
        );
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let producers: Vec<_> = (0..3u32)
            .map(|c| {
                let (h, stop) = (svc.handle(), stop.clone());
                std::thread::spawn(move || {
                    let mut r = 0u64;
                    while !stop.load(Ordering::Relaxed) && send(&h, ClientId(c), fetch(r)).is_ok() {
                        r = (r + 1) % 16;
                    }
                })
            })
            .collect();
        let mut seen = 0;
        for _ in 0..20 {
            let stats = svc
                .stats_within(Duration::from_secs(2))
                .expect("stats starved");
            assert!(stats.counters.fetch_rx >= seen);
            seen = stats.counters.fetch_rx;
        }
        assert!(seen > 0, "the producers never got through");
        // Shutdown rides the same round-robin, past still-full lanes.
        svc.shutdown();
        stop.store(true, Ordering::Relaxed);
        for p in producers {
            p.join().unwrap();
        }
    }

    #[test]
    fn workers_stop_once_the_service_and_every_handle_are_dropped() {
        // No `shutdown()`: the workers notice their producers are gone,
        // drain what those left behind, and exit — dropping the sink,
        // which is what disconnects `rx`.
        let (svc, rx) = service(2);
        let h = svc.handle();
        for r in 0..64u64 {
            send(&h, ClientId(0), fetch(r)).unwrap();
        }
        drop(h);
        drop(svc);
        let mut replies = 0;
        loop {
            match rx.recv_timeout(Duration::from_secs(5)) {
                Ok(_) => replies += 1,
                Err(RecvTimeoutError::Disconnected) => break,
                Err(RecvTimeoutError::Timeout) => panic!("workers still running"),
            }
        }
        assert_eq!(
            replies, 64,
            "input queued at drop time must still be answered"
        );
    }
}
