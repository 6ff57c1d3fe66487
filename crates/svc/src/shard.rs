//! One shard worker: a supervised thread owning a slice of the lease table.
//!
//! Each worker runs an unmodified `lease-core` [`LeaseServer`] over the
//! resources that hash to its shard, inside the sans-IO [`ShardCore`]
//! that the simulator drives too. Everything it is told arrives one
//! way: per-producer SPSC ring *lanes* (one per live [`crate::SvcHandle`],
//! adopted through the shard's [`lease_core::ring::Inbox`] and drained
//! round-robin with pure atomic loads). Protocol inputs, stats requests,
//! injected kills and shutdown all ride them — the service's control
//! messages travel the lane of its own handle, and because the sweep's
//! starting lane rotates every gather, a control message waits at most
//! one gather per adopted lane however saturated the others are. The
//! worker gathers one batch per wakeup, accumulates every reply those
//! inputs and the timer advance produce into an outbox that leaves
//! through a single flush per wakeup — via the private [`WorkerSink`] the
//! sink handed it at [`ClientSink::attach_worker`](crate::ClientSink) —
//! drives the core's timers and the table's expiry pruning from a
//! hierarchical [`TimerWheel`]. The core tags outbound approval requests
//! with global write ids, so approvals route back to the owning shard
//! from anywhere.
//!
//! Between batches the worker parks *adaptively*: after a non-empty drain
//! it polls its lanes up to [`SPIN`] times (lock-free `Acquire`
//! loads with a spin-loop hint) before falling back to a timed park on
//! the shard's [`lease_core::ring::Doorbell`]. The eventcount ticket is
//! taken before the last poll, so a producer's publish-then-ring can
//! never fall between the worker's final look and its sleep — the
//! lost-wakeup hole a bare spin-then-park would have.
//!
//! # Restarts and supervision
//!
//! A shard restarts as a §5 server crash in three ways: an injected
//! [`ShardMsg::Kill`], a move of [`SvcHooks::session`] seen after a
//! gather, and a panic. The first two are a [`ShardCore`] step inside the
//! loop: the core crash-recovers from whatever
//! [`SvcHooks::recover_max_term`] persisted, the old incarnation's timers
//! are dropped, and the rest of the batch goes on under the new
//! incarnation. A kill is therefore message-aligned: its observable effect
//! does not depend on how the lanes were chunked into batches, so seeded
//! chaos plans replay identically.
//!
//! A panic is the third way. The worker runs inside
//! [`std::panic::catch_unwind`] under a *supervisor loop*, which rebuilds
//! the state machine and storage from the shard factory and brings the
//! next incarnation up through the same recovery on the *same* lanes, so
//! [`crate::SvcHandle`]s held by clients stay valid. Such a crash may lose
//! its in-flight batch and outbox, as a real one would.
//!
//! Every incarnation has its own *epoch*, folded into outbound global
//! write ids: an approval addressed to a dead incarnation is dropped on
//! arrival instead of being misapplied to an unrelated post-restart write
//! with the same local id. The shard's restart count is that epoch, so the
//! supervisor keeps it across a panic.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;

use lease_clock::{Clock, Dur, Time};
use lease_core::ring::{Inbox, Lanes};
use lease_core::table::ORPHAN_SLACK;
use lease_core::{
    ClientId, ErrorReason, LeaseServer, Resource, ServerCounters, ServerInput, ServerOutput,
    ServerTimer, ShardCore, Storage, ToClient, ToServer, WriteId,
};

use crate::service::{
    AdmissionControl, ClientSink, HandleShared, ShardGauges, SvcHooks, WorkerSink,
};
use crate::wheel::TimerWheel;

/// Timer-wheel quantum. Timers fire at most one tick late, never early.
const WHEEL_TICK: Dur = Dur::from_millis(1);

/// Max sleep when no timer is pending.
const IDLE_WAIT: Dur = Dur::from_millis(50);

/// Under admission control, the occupancy at or above which a `Stats`
/// request is answered *without* the egress-flush barrier first (the
/// counters are still exact; only the flushed-egress certification is
/// skipped). Stats are the lowest priority — under overload the barrier
/// would stall the drain.
const STATS_WATERMARK: f64 = 0.9;

/// Adaptive-park spin budget: a shard worker whose last drain was
/// non-empty polls its lanes up to this many times (`Acquire` loads with
/// a spin-loop hint) before falling back to the timed park, so shards
/// under sustained load never touch the futex. Idle shards (empty last
/// drain) park immediately. The service spawns its workers with a budget
/// of 0 on a single hardware thread, where no poll can see a new publish.
pub(crate) const SPIN: usize = 256;

/// Look-ahead distances of the batch loop: before handling input `i` the
/// worker prefetches the index buckets (lease table and store) of input
/// `i + INDEX_AHEAD` and the first holder's lease record of input
/// `i + HOLDER_AHEAD`, whose index bucket the first hint has brought in
/// by then. On a table past the cache this keeps a batch's misses in
/// flight together; on a small one both hints return before hashing.
const INDEX_AHEAD: usize = 16;
const HOLDER_AHEAD: usize = 8;

/// Messages into one shard worker.
pub(crate) enum ShardMsg<R, D> {
    /// A routed protocol input, carrying the originating op's deadline
    /// (if the submitter propagated one): the worker drops the input
    /// unprocessed once the deadline has passed — the caller has already
    /// timed out, so the work is dead.
    Input {
        /// The routed input.
        input: ServerInput<R, D>,
        /// Drop-dead time; `None` means never expire.
        deadline: Option<Time>,
    },
    /// Snapshot this shard's counters and gauges.
    Stats {
        /// Where to send the snapshot.
        reply: SyncSender<(ServerCounters, ShardGauges)>,
        /// Set once the worker has run the ring barrier for this request
        /// (drained and re-queued everything published before it), so a
        /// re-queued stats request is answered instead of re-barriered.
        barriered: bool,
    },
    /// Chaos injection: restart the shard (§5) before its next input.
    Kill,
    /// Stop the worker.
    Shutdown,
}

/// The ingress side of one shard, shared between the worker and every
/// [`crate::SvcHandle`]: the doorbell the worker parks on, plus the
/// hand-off point where freshly cloned handles deposit the consumer end
/// of their per-producer SPSC lane for the worker to adopt. Since the
/// registration/adoption machinery moved down into `lease_core::ring`
/// (the egress direction reuses it per client), this is just that
/// [`Inbox`] over the shard's message type.
pub(crate) type ShardIngress<R, D> = Inbox<ShardMsg<R, D>>;

/// The timer-wheel key space of one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum WheelKey {
    /// Prune the lease table (armed at the table's earliest expiry).
    Prune,
    /// The core server's installed-file extension tick.
    InstalledTick,
    /// The core server's deadline for one deferred write.
    WriteDeadline(WriteId),
}

/// The shard's timers: the wheel, plus the latest armed deadline of the
/// two keys that re-arm (a fired `Prune` or `InstalledTick` entry that no
/// longer matches was superseded and is dropped). A write id is armed
/// once, and `LeaseServer::on_timer` ignores the deadline of a write that
/// already committed; a write committed by its approvals therefore
/// orphans its 24-byte entry. Only their number is kept: once the armed
/// deadlines outnumber twice the server's writes in flight plus
/// [`ORPHAN_SLACK`], the wheel keeps the deadlines of writes the server
/// still holds and drops the rest ([`Timers::compact_if_due`]).
struct Timers {
    wheel: TimerWheel<WheelKey>,
    prune_at: Option<Time>,
    installed_at: Option<Time>,
    /// `WriteDeadline` entries on the wheel, live or orphaned.
    deadlines: usize,
}

impl Timers {
    fn new(tick: Dur, now: Time) -> Timers {
        Timers {
            wheel: TimerWheel::new(tick, now),
            prune_at: None,
            installed_at: None,
            deadlines: 0,
        }
    }

    fn set(&mut self, at: Time, timer: ServerTimer) {
        let k = match timer {
            ServerTimer::InstalledTick => {
                self.installed_at = Some(at);
                WheelKey::InstalledTick
            }
            ServerTimer::WriteDeadline(w) => {
                self.deadlines += 1;
                WheelKey::WriteDeadline(w)
            }
        };
        self.wheel.schedule(at, k);
    }

    /// Keeps one `Prune` entry armed at the table's earliest expiry, so
    /// expirations cost a wheel fire instead of periodic table walks.
    /// `next` may be early (see `SlabTable::next_expiry`): the worker
    /// wakes, prunes, and asks again.
    fn arm_prune(&mut self, next: Option<Time>) {
        let Some(t) = next else { return };
        if self.prune_at.is_none_or(|p| p > t) {
            self.prune_at = Some(t);
            self.wheel.schedule(t, WheelKey::Prune);
        }
    }

    /// Whether the entry `(at, k)` that just fired is still wanted;
    /// consumes the key's armed deadline if so.
    fn claim(&mut self, at: Time, k: WheelKey) -> bool {
        let armed = match k {
            WheelKey::Prune => &mut self.prune_at,
            WheelKey::InstalledTick => &mut self.installed_at,
            WheelKey::WriteDeadline(_) => {
                self.deadlines -= 1;
                return true;
            }
        };
        let current = *armed == Some(at);
        if current {
            *armed = None;
        }
        current
    }

    /// Drops the wheel's dead entries once the armed write deadlines
    /// outnumber twice the writes `server` holds plus [`ORPHAN_SLACK`]:
    /// each such compaction removes more entries than it keeps, so it is
    /// paid for by the commits that orphaned them. A dead entry is a
    /// deadline of a write the server no longer holds, or a superseded
    /// `Prune` / `InstalledTick`.
    fn compact_if_due<R: Resource, D: Clone>(&mut self, server: &LeaseServer<R, D>) {
        if self.deadlines > 2 * server.writes_in_flight() + ORPHAN_SLACK {
            self.compact(server);
        }
    }

    /// The compaction itself: rare, so kept out of the input loop.
    #[cold]
    fn compact<R: Resource, D: Clone>(&mut self, server: &LeaseServer<R, D>) {
        let (prune_at, installed_at) = (self.prune_at, self.installed_at);
        let mut deadlines = 0;
        self.wheel.retain(|at, k| match *k {
            WheelKey::Prune => prune_at == Some(at),
            WheelKey::InstalledTick => installed_at == Some(at),
            WheelKey::WriteDeadline(w) => {
                let held = server.holds_write(w);
                deadlines += usize::from(held);
                held
            }
        });
        self.deadlines = deadlines;
    }
}

/// Builds one shard's state machine and storage; called once at spawn and
/// again after every panic.
pub(crate) type ShardFactory<R, D> =
    Arc<dyn Fn(usize) -> (LeaseServer<R, D>, Box<dyn Storage<R, D> + Send>) + Send + Sync>;

/// Everything a worker needs besides its state machine and storage.
pub(crate) struct ShardCtx<R: Resource, D> {
    pub index: u64,
    pub nshards: u64,
    pub batch: usize,
    /// Adaptive-park spin budget: [`SPIN`], or 0 on one hardware thread.
    pub spin: usize,
    /// Mailbox capacity, for computing occupancy (admission pressure).
    pub mailbox: usize,
    /// Doorbell + lane hand-off shared with every handle.
    pub ingress: Arc<ShardIngress<R, D>>,
    /// The state every handle holds strongly: once it is gone no producer
    /// exists and none can appear, so a worker with dry lanes exits.
    pub handles: Weak<HandleShared<R, D>>,
    /// Pin this worker to core `base + index` (best effort, Linux).
    pub pin: Option<usize>,
    /// Watermark-driven shedding; `None` processes everything.
    pub admission: Option<AdmissionControl>,
    /// Chaos: sleep this long after every *processed* input (shed or
    /// expired-dropped inputs pay nothing), modelling a degraded worker.
    pub slow: Option<Dur>,
    pub sink: Arc<dyn ClientSink<R, D>>,
    pub hooks: SvcHooks,
    pub clock: Arc<dyn Clock>,
    pub factory: ShardFactory<R, D>,
    /// Completed restarts of this shard, shared with the service for
    /// stats: the epoch of the incarnation running now.
    pub restarts: Arc<AtomicU64>,
}

/// Applies (and drains) the effects one input produced. `outs` is the
/// worker's one output buffer, lent to `ShardCore::handle_into` for every
/// input and emptied here, so its capacity is allocated once per
/// incarnation.
fn apply<R, D>(
    outs: &mut Vec<ServerOutput<R, D>>,
    timers: &mut Timers,
    outbox: &mut Vec<(ClientId, ToClient<R, D>)>,
    ctx: &ShardCtx<R, D>,
) where
    R: Resource,
    D: Clone,
{
    for o in outs.drain(..) {
        match o {
            // Outbound protocol messages accumulate in the worker's
            // outbox and leave in one flush per wakeup, so the sink's
            // per-call cost is paid per flush, not per message.
            ServerOutput::Send { to, msg } => outbox.push((to, msg)),
            ServerOutput::Multicast { to, msg } => {
                for c in to {
                    outbox.push((c, msg.clone()));
                }
            }
            ServerOutput::SetTimer { at, timer } => timers.set(at, timer),
            ServerOutput::PersistMaxTerm(d) => {
                if let Some(f) = &ctx.hooks.persist_max_term {
                    f(d);
                }
            }
            // The service recovers via MaxTerm, like lease-rt.
            ServerOutput::PersistLease { .. } | ServerOutput::Committed { .. } => {}
        }
    }
}

/// One egress flush: everything the wakeup accumulated leaves through
/// the worker's private sink.
fn flush_outbox<R, D>(
    wsink: &mut dyn WorkerSink<R, D>,
    outbox: &mut Vec<(ClientId, ToClient<R, D>)>,
) {
    if outbox.is_empty() {
        return;
    }
    wsink.deliver_batch(outbox);
    outbox.clear(); // In case a custom sink did not drain fully.
}

/// One incarnation of the worker, built from the shard factory: runs
/// until shutdown, disconnect, or panic, restarting its [`ShardCore`] in
/// place on a kill or a moved session. `lanes` (the adopted per-producer
/// ring consumers with their round-robin cursor) and `wsink` (the
/// per-worker egress sink) live in the supervisor so queued ring traffic
/// — and established egress lanes — survive a panic.
fn run<R, D>(
    ctx: &ShardCtx<R, D>,
    lanes: &mut Lanes<ShardMsg<R, D>>,
    wsink: &mut dyn WorkerSink<R, D>,
    panicked: bool,
) where
    R: Resource,
    D: Clone + Send + 'static,
{
    let session = || ctx.hooks.session.as_ref().map_or(0, |f| f());
    // §5 crash recovery: the previous incarnation's lease grants are
    // unknown, so the server recovers from the persisted maximum term and
    // stalls writes (and, when configured, refuses grants) until every
    // possibly-outstanding lease has expired.
    let persisted = || {
        let max_term = ctx.hooks.recover_max_term.as_ref().and_then(|f| f());
        (max_term, Vec::new())
    };
    // After a panic the rebuilt shard comes up as the incarnation that
    // died, and restarts from it as after a kill.
    let (server, mut storage) = (ctx.factory)(ctx.index as usize);
    let epoch = ctx.restarts.load(Ordering::Relaxed);
    let mut core = ShardCore::new(server, ctx.index, ctx.nshards, epoch, session());
    let now = ctx.clock.now();
    let mut outs = if panicked {
        ctx.restarts.fetch_add(1, Ordering::Relaxed);
        core.restart(now, persisted(), &*storage)
    } else {
        core.server.start(now, &*storage)
    };
    let mut timers = Timers::new(WHEEL_TICK, now);
    // Fired-entry scratch reused across wakeups.
    let mut fired: Vec<(Time, WheelKey)> = Vec::new();
    let mut outbox: Vec<(ClientId, ToClient<R, D>)> = Vec::new();
    apply(&mut outs, &mut timers, &mut outbox, ctx);

    let mut batch: Vec<ShardMsg<R, D>> = Vec::with_capacity(ctx.batch);
    // Whether the last wakeup drained any input — the adaptive-park
    // signal: loaded shards spin briefly for the next batch, idle shards
    // park on the condvar exactly as before.
    let mut hot = false;
    loop {
        // One egress flush per wakeup: everything the last batch and wheel
        // advance produced leaves in a single sink call.
        flush_outbox(wsink, &mut outbox);

        // Gather input. Ticket first, then poll: any publish after a poll
        // bumps the ticket and makes the park below return immediately, so
        // a producer's publish-then-ring can never slip between the
        // worker's last look and its sleep (the lost-wakeup hole a bare
        // spin-then-park has).
        let ticket = ctx.ingress.bell().ticket();
        lanes.prune_disconnected();
        lanes.drain_into(&mut batch, ctx.batch);
        if batch.is_empty() && hot && ctx.spin > 0 {
            // Adaptive spin: a loaded shard polls its lanes (pure Acquire
            // loads) up to `spin` times before conceding the park.
            for _ in 0..ctx.spin {
                if lanes.drain_into(&mut batch, ctx.batch) > 0 {
                    break;
                }
                std::hint::spin_loop();
            }
        }
        if batch.is_empty() {
            if ctx.handles.strong_count() == 0 {
                // Every handle is gone. The fence pairs with the Release
                // decrement of the last handle's `Arc` drop, so whatever
                // that handle registered or published before it died is
                // visible to this final look.
                fence(Ordering::Acquire);
                if lanes.drain_into(&mut batch, ctx.batch) == 0 {
                    return;
                }
            } else {
                // Until the next entry can fire — its tick boundary, not
                // its bare deadline, which under a steady stream of write
                // deadlines would have the worker spin between the two.
                let wait = std::time::Duration::from(
                    timers
                        .wheel
                        .next_fire()
                        .map(|at| at.saturating_since(ctx.clock.now()))
                        .map_or(IDLE_WAIT, |d| d.min(IDLE_WAIT)),
                );
                ctx.ingress.bell().wait(ticket, wait);
                // Woken or timed out either way: loop back through the
                // wheel advance and re-gather.
            }
        }
        // The session, before any timer fires or input is handled: input a
        // new session let in carries its number (published before the gate
        // opened, read after the drain), so the batch goes to the new
        // incarnation. A restart's host half: the old incarnation's timers
        // go, the restart is counted, and what the new one asks for is
        // applied.
        let now = ctx.clock.now();
        if let Some(restart) = core.check_session(now, session(), persisted, &*storage) {
            (outs, timers) = (restart, Timers::new(WHEEL_TICK, now));
            ctx.restarts.fetch_add(1, Ordering::Relaxed);
            apply(&mut outs, &mut timers, &mut outbox, ctx);
        }
        // Fire due wheel entries, skipping superseded ones.
        fired.clear();
        timers.wheel.advance_into(now, &mut fired);
        for &(at, k) in &fired {
            if !timers.claim(at, k) {
                continue;
            }
            let timer = match k {
                WheelKey::Prune => {
                    core.server.prune(ctx.clock.now());
                    continue;
                }
                WheelKey::InstalledTick => ServerTimer::InstalledTick,
                WheelKey::WriteDeadline(w) => ServerTimer::WriteDeadline(w),
            };
            let input = ServerInput::Timer(timer);
            core.handle_into(ctx.clock.now(), input, &mut *storage, &mut outs);
            apply(&mut outs, &mut timers, &mut outbox, ctx);
        }
        timers.compact_if_due(&core.server);
        hot = !batch.is_empty();
        // Admission pressure: occupancy *behind* this drain — what is
        // still queued in the adopted lanes after we took our batch,
        // against the nominal mailbox capacity. Only admission control
        // reads it, so without that the lanes are not walked.
        let (shed, stats_skip_flush) = match ctx.admission {
            Some(a) => {
                let occ = lanes.queued() as f64 / ctx.mailbox as f64;
                (
                    (occ >= a.shed_watermark).then_some(a),
                    occ >= STATS_WATERMARK,
                )
            }
            None => (None, false),
        };
        // The look-ahead's prologue: the first inputs' index buckets.
        for m in batch.iter().take(INDEX_AHEAD) {
            if let ShardMsg::Input { input, .. } = m {
                core.server.prefetch(input, &*storage);
            }
        }
        // Indexed iteration with a cheap placeholder swap, and a `while`
        // rather than a `for`: the Stats barrier may splice a lane
        // snapshot into the unprocessed tail, growing the batch
        // mid-iteration.
        let mut i = 0;
        while i < batch.len() {
            if let Some(ShardMsg::Input { input, .. }) = batch.get(i + INDEX_AHEAD) {
                core.server.prefetch(input, &*storage);
            }
            if let Some(ShardMsg::Input { input, .. }) = batch.get(i + HOLDER_AHEAD) {
                core.server.prefetch_holder(input);
            }
            let m = std::mem::replace(&mut batch[i], ShardMsg::Kill);
            i += 1;
            match m {
                ShardMsg::Input { input, deadline } => {
                    if deadline.is_some_and(|d| ctx.clock.now() > d) {
                        // The caller already timed out; processing the
                        // input would be dead work at the worst time.
                        core.server.counters.expired_drops += 1;
                        continue;
                    }
                    if let Some(a) = shed {
                        // Over the shed watermark: refuse the
                        // lowest-priority class — cold fetches, i.e.
                        // brand-new grants with nothing cached and no
                        // piggybacked extensions. Renewals, writes,
                        // approvals, and relinquishes keep flowing (lease
                        // continuity and expiry outrank new admissions). A
                        // client piggybacks only the leases that are due,
                        // so most of its cold fetches are of this class; a
                        // shed one has put no renewal off, and its
                        // retransmission builds the list afresh, so
                        // whatever came due meanwhile rides it and is
                        // admitted. Refusing a grant is always
                        // consistency-safe: no lease comes into existence.
                        if let ServerInput::Msg {
                            from,
                            msg:
                                ToServer::Fetch {
                                    req,
                                    cached: None,
                                    also_extend,
                                    ..
                                },
                        } = &input
                        {
                            if also_extend.is_empty() {
                                core.server.counters.sheds += 1;
                                outbox.push((
                                    *from,
                                    ToClient::Error {
                                        req: *req,
                                        reason: ErrorReason::Shed {
                                            retry_after: a.retry_after,
                                        },
                                    },
                                ));
                                continue;
                            }
                        }
                    }
                    core.handle_into(ctx.clock.now(), input, &mut *storage, &mut outs);
                    apply(&mut outs, &mut timers, &mut outbox, ctx);
                    timers.compact_if_due(&core.server);
                    if let Some(d) = ctx.slow {
                        // Injected degradation: bound this worker's
                        // throughput to ~1/d inputs per second.
                        std::thread::sleep(std::time::Duration::from(d));
                    }
                }
                ShardMsg::Stats { reply, barriered } => {
                    // The stats barrier: a stats reply certifies that
                    // every reply to input submitted before the stats
                    // request has left the service (the contract
                    // `LeaseService::stats` documents and the equivalence
                    // tests rely on). The request rode one lane; input
                    // submitted before it on *other* lanes may still be
                    // queued there, or sit behind it in `batch`. So take
                    // a snapshot of everything still visible in the
                    // lanes, append it to the end of the batch, and
                    // re-queue the request (marked) behind all of it.
                    // Above the stats watermark both the barrier and the
                    // egress flush are skipped — stats are the
                    // lowest-priority work and must not stall an
                    // overloaded drain; the counters stay exact.
                    if !stats_skip_flush && !barriered {
                        lanes.snapshot_into(&mut batch);
                        batch.push(ShardMsg::Stats {
                            reply,
                            barriered: true,
                        });
                        continue;
                    }
                    if !stats_skip_flush {
                        flush_outbox(wsink, &mut outbox);
                    }
                    let server = &core.server;
                    let table = server.table();
                    let gauges = ShardGauges {
                        leases_live: table.len() as u64,
                        timer_entries: (table.timer_entries() + timers.wheel.len()) as u64,
                        ingress_lanes: lanes.adopted() as u64,
                        ingress_queued: lanes.queued() as u64,
                    };
                    let _ = reply.send((server.counters, gauges));
                }
                ShardMsg::Kill => {
                    // A §5 crash at exactly this message, whatever the
                    // batch chunking: what the batch computed so far
                    // stays in the outbox, and the rest of the batch goes
                    // to the new incarnation, as after a moved session.
                    let now = ctx.clock.now();
                    outs = core.restart(now, persisted(), &*storage);
                    timers = Timers::new(WHEEL_TICK, now);
                    ctx.restarts.fetch_add(1, Ordering::Relaxed);
                    apply(&mut outs, &mut timers, &mut outbox, ctx);
                }
                ShardMsg::Shutdown => {
                    // Deliver what this batch already produced; what is
                    // still queued is abandoned with the service.
                    flush_outbox(wsink, &mut outbox);
                    return;
                }
            }
        }
        batch.clear();
        timers.arm_prune(core.server.table().next_expiry());
    }
}

/// Spawns the supervisor thread for one shard.
pub(crate) fn spawn_shard<R, D>(ctx: ShardCtx<R, D>) -> JoinHandle<()>
where
    R: Resource,
    D: Clone + Send + 'static,
{
    std::thread::Builder::new()
        .name(format!("lease-shard-{}", ctx.index))
        .spawn(move || {
            if let Some(base) = ctx.pin {
                lease_core::affinity::pin_to_core(base + ctx.index as usize);
            }
            // Adopted lanes (with their round-robin cursor) and the
            // per-worker egress sink live here, outside the incarnation,
            // so ring traffic queued at crash time is handled by the next
            // incarnation (dropping the consumers would instead sever
            // every live handle), and established egress lanes survive
            // the restart.
            let mut lanes: Lanes<ShardMsg<R, D>> = Lanes::new(Arc::clone(&ctx.ingress));
            let mut wsink: Box<dyn WorkerSink<R, D>> = ctx.sink.attach_worker();
            // A panic restarts the shard on the same lanes as the next
            // epoch; the unprocessed inputs queued behind it are answered
            // by the new incarnation with fresh (post-recovery) state.
            let mut panicked = false;
            while catch_unwind(AssertUnwindSafe(|| {
                run(&ctx, &mut lanes, &mut *wsink, panicked)
            }))
            .is_err()
            {
                panicked = true;
            }
            // Sever the producers: dropping `lanes` closes the inbox —
            // adopted lanes drop with it, and pending (never-adopted)
            // ones are dropped under the closed flag so a handle cloned
            // after shutdown cannot block forever.
            drop(lanes);
        })
        .expect("spawn shard worker")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lease_core::{MemStorage, ReqId, ServerConfig, Version};

    /// Write deadlines are armed once and only counted, so a run of
    /// deferred writes, each committed by its approval long before its
    /// deadline, orphans one wheel entry per write — and the compaction
    /// keeps those under the slack however many writes there are. Firing
    /// the ones left late changes nothing.
    #[test]
    fn committed_deferred_writes_leave_at_most_the_slack_on_the_wheel() {
        const WRITES: u64 = 1000;
        let (reader, writer) = (ClientId(1), ClientId(2));
        let mut server: LeaseServer<u64, u64> =
            LeaseServer::new(ServerConfig::fixed(Dur::from_secs(10)));
        let mut store = MemStorage::new();
        store.insert(7, 0);
        let mut timers = Timers::new(Dur::from_millis(1), Time::ZERO);
        let mut step = |server: &mut LeaseServer<u64, u64>, now: Time, from, msg| {
            let mut approve = None;
            for o in server.handle(now, ServerInput::Msg { from, msg }, &mut store) {
                match o {
                    ServerOutput::SetTimer { at, timer } => timers.set(at, timer),
                    ServerOutput::Multicast {
                        msg: ToClient::ApprovalRequest { write_id, .. },
                        ..
                    } => approve = Some(write_id),
                    _ => {}
                }
            }
            timers.compact_if_due(server);
            timers.arm_prune(server.table().next_expiry());
            approve
        };
        for i in 0..WRITES {
            let now = Time::from_millis(i);
            let fetch = ToServer::Fetch {
                req: ReqId(i),
                resource: 7,
                cached: None,
                also_extend: vec![],
            };
            step(&mut server, now, reader, fetch);
            let write = ToServer::Write {
                req: ReqId(i),
                resource: 7,
                data: i,
            };
            let write_id = step(&mut server, now, writer, write).expect("deferred");
            step(&mut server, now, reader, ToServer::Approve { write_id });
        }
        assert_eq!(server.counters.writes_deferred, WRITES);
        assert_eq!(store.version(&7), Some(Version(WRITES + 1)));
        // No write is in flight, so at most the slack of orphaned
        // deadlines is left, plus at most one armed prune.
        assert_eq!(server.writes_in_flight(), 0);
        assert!(timers.deadlines <= ORPHAN_SLACK);
        assert!(timers.wheel.len() <= ORPHAN_SLACK + 1);
        let late = Time::from_secs(60);
        let mut deadlines = 0;
        for (at, k) in timers.wheel.advance(late) {
            if let WheelKey::WriteDeadline(w) = k {
                assert!(timers.claim(at, k));
                let timer = ServerInput::Timer(ServerTimer::WriteDeadline(w));
                assert!(server.handle(late, timer, &mut store).is_empty());
                deadlines += 1;
            }
        }
        assert_eq!(
            (deadlines, timers.deadlines),
            (WRITES as usize % (ORPHAN_SLACK + 1), 0)
        );
        assert_eq!(store.version(&7), Some(Version(WRITES + 1)));
    }
}
