//! One shard worker: a supervised thread owning a slice of the lease table.
//!
//! Each worker runs an unmodified `lease-core` [`LeaseServer`] over the
//! resources that hash to its shard. Everything it is told arrives one
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
//! hierarchical [`TimerWheel`], and rewrites write ids on outbound
//! approval requests so that approvals can be routed back to the owning
//! shard from anywhere.
//!
//! Between batches the worker parks *adaptively*: after a non-empty drain
//! it polls its lanes up to [`SPIN`] times (lock-free `Acquire`
//! loads with a spin-loop hint) before falling back to a timed park on
//! the shard's [`lease_core::ring::Doorbell`]. The eventcount ticket is
//! taken before the last poll, so a producer's publish-then-ring can
//! never fall between the worker's final look and its sleep — the
//! lost-wakeup hole a bare spin-then-park would have.
//!
//! # Supervision
//!
//! The thread is a *supervisor loop*: the worker proper runs inside
//! [`std::panic::catch_unwind`], and a panic — organic or injected via
//! [`ShardMsg::Kill`] — is a §5 server crash, and so, with no panic, is
//! a move of [`SvcHooks::session`] seen after a gather. The supervisor
//! rebuilds the state machine from the shard factory, replays MaxTerm
//! recovery from whatever [`SvcHooks::recover_max_term`] persisted, and
//! resumes on the *same* lanes, so [`crate::SvcHandle`]s held by clients
//! stay valid across the crash. Every incarnation gets a new *epoch*,
//! folded into outbound global write ids; approvals addressed to a dead
//! incarnation carry its old epoch and are dropped on arrival instead of
//! being misapplied to an unrelated post-restart write with the same local
//! id — in-flight cross-shard write ids fail cleanly rather than leak.
//!
//! An *injected* kill is message-aligned: the dying worker flushes replies
//! it already computed and stashes the drained-but-unprocessed tail of its
//! batch for the next incarnation to replay first, so a kill's observable
//! effect does not depend on how the lanes were chunked into batches
//! (seeded chaos plans replay identically). Organic panics make no such
//! promise — a real crash may lose its in-flight batch and outbox.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;

use lease_clock::{Clock, Dur, Time};
use lease_core::ring::{Inbox, Lanes};
use lease_core::{
    ClientId, ErrorReason, LeaseServer, Resource, ServerCounters, ServerInput, ServerOutput,
    ServerTimer, Storage, ToClient, ToServer, WriteId,
};

use crate::service::{
    AdmissionControl, ClientSink, HandleShared, ShardGauges, SvcHooks, WorkerSink,
};
use crate::wheel::TimerWheel;

/// Bits of a global write id reserved for the shard's restart epoch.
///
/// Global ids are `((local << EPOCH_BITS) | epoch) * nshards + shard`;
/// 10 bits lets approvals distinguish the last 1024 incarnations, far more
/// than can be in flight at once.
pub(crate) const EPOCH_BITS: u32 = 10;
pub(crate) const EPOCH_MASK: u64 = (1 << EPOCH_BITS) - 1;

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

/// The panic message of a shard killed on purpose
/// ([`SvcHandle::kill_shard`](crate::SvcHandle::kill_shard)); chaos
/// harnesses install a panic hook that recognizes it to keep
/// injected-crash logs quiet.
pub const INJECTED_KILL: &str = "injected shard kill (chaos)";

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
    /// Chaos injection: panic the worker; the supervisor restarts it.
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
/// longer matches was superseded and is dropped). Write deadlines are not
/// tracked: a write id is armed once, and `LeaseServer::on_timer` ignores
/// the deadline of a write that already committed. The known residual is
/// that write's wheel entry itself: 40 B per deferred write, for one term.
struct Timers {
    wheel: TimerWheel<WheelKey>,
    prune_at: Option<Time>,
    installed_at: Option<Time>,
}

impl Timers {
    fn new(tick: Dur, now: Time) -> Timers {
        Timers {
            wheel: TimerWheel::new(tick, now),
            prune_at: None,
            installed_at: None,
        }
    }

    fn set(&mut self, at: Time, timer: ServerTimer) {
        let k = match timer {
            ServerTimer::InstalledTick => {
                self.installed_at = Some(at);
                WheelKey::InstalledTick
            }
            ServerTimer::WriteDeadline(w) => WheelKey::WriteDeadline(w),
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
            WheelKey::WriteDeadline(_) => return true,
        };
        let current = *armed == Some(at);
        if current {
            *armed = None;
        }
        current
    }
}

/// Builds one shard's state machine and storage; called once at spawn and
/// again after every crash.
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
    /// Completed restarts of this shard, shared with the service for stats.
    pub restarts: Arc<AtomicU64>,
    /// Messages an injected kill had already drained but not yet
    /// processed, handed across the panic to the next incarnation (which
    /// replays them before touching the lanes, preserving FIFO order).
    /// Keeps the kill's crash boundary message-aligned no matter how the
    /// lanes were chunked into batches; organic panics don't use it — a
    /// real crash may lose its in-flight batch.
    pub stash: Mutex<Vec<ShardMsg<R, D>>>,
}

/// Rewrites a shard-local write id into the service-global namespace
/// (`global = ((local << EPOCH_BITS) | epoch) * nshards + shard`) so
/// [`crate::SvcHandle`] can route the matching `Approve` straight back to
/// this shard, and this shard can tell which incarnation minted it.
fn globalize<R, D>(mut msg: ToClient<R, D>, ctx: &ShardCtx<R, D>, epoch: u64) -> ToClient<R, D>
where
    R: Resource,
{
    if let ToClient::ApprovalRequest { write_id, .. } = &mut msg {
        let tagged = (write_id.0 << EPOCH_BITS) | (epoch & EPOCH_MASK);
        *write_id = WriteId(tagged * ctx.nshards + ctx.index);
    }
    msg
}

/// Applies (and drains) the effects one input produced. `outs` is the
/// worker's one output buffer, lent to `LeaseServer::handle_into` for every
/// input and emptied here, so its capacity is allocated once per
/// incarnation.
fn apply<R, D>(
    outs: &mut Vec<ServerOutput<R, D>>,
    timers: &mut Timers,
    outbox: &mut Vec<(ClientId, ToClient<R, D>)>,
    ctx: &ShardCtx<R, D>,
    epoch: u64,
) where
    R: Resource,
    D: Clone,
{
    for o in outs.drain(..) {
        match o {
            // Outbound protocol messages accumulate in the worker's
            // outbox and leave in one flush per wakeup, so the sink's
            // per-call cost is paid per flush, not per message.
            ServerOutput::Send { to, msg } => outbox.push((to, globalize(msg, ctx, epoch))),
            ServerOutput::Multicast { to, msg } => {
                let msg = globalize(msg, ctx, epoch);
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
            ServerOutput::PersistLease { .. } => {
                // The service recovers via MaxTerm, like lease-rt.
            }
            ServerOutput::Committed { .. } => {}
        }
    }
}

/// Why one incarnation's run loop returned (panics don't return — they
/// unwind into the supervisor).
enum Exit {
    /// [`ShardMsg::Shutdown`] received.
    Shutdown,
    /// Every handle is gone and the lanes are dry.
    Disconnected,
    /// The serving session moved: restart as after a crash.
    Succession,
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

/// One incarnation of the worker: runs until shutdown, disconnect, or
/// panic. `lanes` (the adopted per-producer ring consumers with their
/// round-robin cursor) and `wsink` (the per-worker egress sink) live in
/// the supervisor so queued ring traffic — and established egress lanes
/// — survive a crash.
fn run<R, D>(
    ctx: &ShardCtx<R, D>,
    lanes: &mut Lanes<ShardMsg<R, D>>,
    wsink: &mut dyn WorkerSink<R, D>,
    epoch: u64,
) -> Exit
where
    R: Resource,
    D: Clone + Send + 'static,
{
    // The session this incarnation answers for, read before it is built.
    let session = || ctx.hooks.session.as_ref().map_or(0, |f| f());
    let mine = session();
    let (mut server, mut storage) = (ctx.factory)(ctx.index as usize);
    let now = ctx.clock.now();
    let mut timers = Timers::new(WHEEL_TICK, now);
    // Fired-entry scratch reused across wakeups.
    let mut fired: Vec<(Time, WheelKey)> = Vec::new();
    let mut outbox: Vec<(ClientId, ToClient<R, D>)> = Vec::new();
    let mut outs = if epoch == 0 {
        server.start(now, &*storage)
    } else {
        // §5 crash recovery: the previous incarnation's lease grants are
        // unknown, so recover from the persisted maximum term and let the
        // server stall writes (and, when configured, refuse grants) until
        // every possibly-outstanding lease has expired.
        let max_term = ctx.hooks.recover_max_term.as_ref().and_then(|f| f());
        server.recover(now, max_term, Vec::new(), &*storage)
    };
    apply(&mut outs, &mut timers, &mut outbox, ctx, epoch);

    // Start from whatever an injected kill left half-drained: those
    // messages precede everything still in the lanes, so the new
    // incarnation replays them first, preserving FIFO order.
    let mut batch: Vec<ShardMsg<R, D>> = std::mem::take(&mut *ctx.stash.lock().unwrap());
    batch.reserve(ctx.batch.saturating_sub(batch.len()));
    // Whether the last wakeup drained any input — the adaptive-park
    // signal: loaded shards spin briefly for the next batch, idle shards
    // park on the condvar exactly as before.
    let mut hot = false;
    loop {
        // One egress flush per wakeup: everything the last batch and wheel
        // advance produced leaves in a single sink call.
        flush_outbox(wsink, &mut outbox);

        // Gather input (unless a replayed stash is already pending).
        // Ticket first, then poll: any publish after a poll bumps the
        // ticket and makes the park below return immediately, so a
        // producer's publish-then-ring can never slip between the
        // worker's last look and its sleep (the lost-wakeup hole a bare
        // spin-then-park has).
        if batch.is_empty() {
            let ticket = ctx.ingress.bell().ticket();
            lanes.prune_disconnected();
            lanes.drain_into(&mut batch, ctx.batch);
            if batch.is_empty() && hot && ctx.spin > 0 {
                // Adaptive spin: a loaded shard polls its lanes (pure
                // Acquire loads) up to `spin` times before conceding
                // the park.
                for _ in 0..ctx.spin {
                    if lanes.drain_into(&mut batch, ctx.batch) > 0 {
                        break;
                    }
                    std::hint::spin_loop();
                }
            }
            if batch.is_empty() {
                if ctx.handles.strong_count() == 0 {
                    // Every handle is gone. The fence pairs with the
                    // Release decrement of the last handle's `Arc` drop,
                    // so whatever that handle registered or published
                    // before it died is visible to this final look.
                    fence(Ordering::Acquire);
                    if lanes.drain_into(&mut batch, ctx.batch) == 0 {
                        return Exit::Disconnected;
                    }
                } else {
                    // Until the next entry can fire — its tick boundary,
                    // not its bare deadline, which under a steady stream
                    // of write deadlines would have the worker spin
                    // between the two.
                    let wait = std::time::Duration::from(
                        timers
                            .wheel
                            .next_fire()
                            .map(|at| at.saturating_since(ctx.clock.now()))
                            .map_or(IDLE_WAIT, |d| d.min(IDLE_WAIT)),
                    );
                    ctx.ingress.bell().wait(ticket, wait);
                    // Woken or timed out either way: loop back through
                    // the wheel advance and re-gather.
                }
            }
        }
        // The session, before any timer fires or input is handled: input a
        // new session let in carries its number (published before the gate
        // opened, read after the drain). The batch goes to the next one.
        if session() != mine {
            *ctx.stash.lock().expect("never held across a panic") = std::mem::take(&mut batch);
            return Exit::Succession;
        }
        // Fire due wheel entries, skipping superseded ones.
        fired.clear();
        timers.wheel.advance_into(ctx.clock.now(), &mut fired);
        for &(at, k) in &fired {
            if !timers.claim(at, k) {
                continue;
            }
            let timer = match k {
                WheelKey::Prune => {
                    server.prune(ctx.clock.now());
                    continue;
                }
                WheelKey::InstalledTick => ServerTimer::InstalledTick,
                WheelKey::WriteDeadline(w) => ServerTimer::WriteDeadline(w),
            };
            let input = ServerInput::Timer(timer);
            server.handle_into(ctx.clock.now(), input, &mut *storage, &mut outs);
            apply(&mut outs, &mut timers, &mut outbox, ctx, epoch);
        }
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
                server.prefetch(input, &*storage);
            }
        }
        {
            // Indexed iteration (with a cheap placeholder swap) so the
            // Kill arm can move the unprocessed tail into the stash. A
            // `while` rather than `for`: the Stats barrier may splice a
            // lane snapshot into the unprocessed tail, growing the batch
            // mid-iteration.
            let mut i = 0;
            while i < batch.len() {
                if let Some(ShardMsg::Input { input, .. }) = batch.get(i + INDEX_AHEAD) {
                    server.prefetch(input, &*storage);
                }
                if let Some(ShardMsg::Input { input, .. }) = batch.get(i + HOLDER_AHEAD) {
                    server.prefetch_holder(input);
                }
                let m = std::mem::replace(&mut batch[i], ShardMsg::Kill);
                i += 1;
                match m {
                    ShardMsg::Input { input, deadline } => {
                        if deadline.is_some_and(|d| ctx.clock.now() > d) {
                            // The caller already timed out; processing the
                            // input would be dead work at the worst time.
                            server.counters.expired_drops += 1;
                            continue;
                        }
                        if let Some(a) = shed {
                            // Over the shed watermark: refuse the
                            // lowest-priority class — cold fetches, i.e.
                            // brand-new grants with nothing cached and no
                            // piggybacked extensions. Renewals, writes,
                            // approvals, and relinquishes keep flowing
                            // (lease continuity and expiry outrank new
                            // admissions). A client piggybacks only the
                            // leases that are due, so most of its cold
                            // fetches are of this class; a shed one has
                            // put no renewal off, and its retransmission
                            // builds the list afresh, so whatever came due
                            // meanwhile rides it and is admitted. Refusing
                            // a grant is always consistency-safe: no lease
                            // comes into existence.
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
                                    server.counters.sheds += 1;
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
                        let input = match input {
                            ServerInput::Msg {
                                from,
                                msg: ToServer::Approve { write_id },
                            } => {
                                // Strip the epoch tag; an approval minted
                                // by a previous incarnation approves
                                // nothing now — its write died with the
                                // crash and the writer will retransmit.
                                if write_id.0 & EPOCH_MASK != epoch & EPOCH_MASK {
                                    continue;
                                }
                                ServerInput::Msg {
                                    from,
                                    msg: ToServer::Approve {
                                        write_id: WriteId(write_id.0 >> EPOCH_BITS),
                                    },
                                }
                            }
                            other => other,
                        };
                        server.handle_into(ctx.clock.now(), input, &mut *storage, &mut outs);
                        apply(&mut outs, &mut timers, &mut outbox, ctx, epoch);
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
                        // `LeaseService::stats` documents and the
                        // equivalence tests rely on). The request rode one
                        // lane; input submitted before it on *other*
                        // lanes may still be queued there, or sit behind
                        // it in `batch`. So take a snapshot of
                        // everything still visible in the lanes, append
                        // it to the end of the batch, and re-queue the
                        // request (marked) behind all of it. Above the
                        // stats watermark both the barrier and the egress
                        // flush are skipped — stats are the
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
                        // Make the injected crash boundary exactly this
                        // message, independent of batch chunking: flush
                        // replies already computed for earlier inputs,
                        // and hand the drained-but-unprocessed tail to
                        // the next incarnation via the stash. Seeded
                        // chaos plans (and the batch-equivalence tests)
                        // rely on a kill's observable effect not
                        // depending on how the lanes happened to be
                        // chunked into batches.
                        flush_outbox(wsink, &mut outbox);
                        *ctx.stash.lock().unwrap() = batch.drain(i..).collect();
                        panic!("{INJECTED_KILL}")
                    }
                    ShardMsg::Shutdown => {
                        // Deliver what this batch already produced; what
                        // is still queued is abandoned with the service.
                        flush_outbox(wsink, &mut outbox);
                        return Exit::Shutdown;
                    }
                }
            }
            batch.clear();
        }
        timers.arm_prune(server.table().next_expiry());
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
            let mut epoch: u64 = 0;
            // Adopted lanes (with their round-robin cursor) and the
            // per-worker egress sink live here, outside the incarnation,
            // so ring traffic queued at crash time is replayed by the
            // next incarnation (dropping the consumers would instead
            // sever every live handle), and established egress lanes
            // survive the restart.
            let mut lanes: Lanes<ShardMsg<R, D>> = Lanes::new(Arc::clone(&ctx.ingress));
            let mut wsink: Box<dyn WorkerSink<R, D>> = ctx.sink.attach_worker();
            loop {
                match catch_unwind(AssertUnwindSafe(|| {
                    run(&ctx, &mut lanes, &mut *wsink, epoch)
                })) {
                    Ok(Exit::Shutdown) | Ok(Exit::Disconnected) => break,
                    Ok(Exit::Succession) | Err(_) => {
                        // Restart on the same lanes with the next epoch.
                        // Unprocessed inputs queued behind the crash are
                        // handled by the new incarnation, which answers
                        // them with fresh (post-recovery) state.
                        epoch = epoch.wrapping_add(1);
                        ctx.restarts.fetch_add(1, Ordering::Relaxed);
                    }
                }
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

    /// Write deadlines are armed once and never tracked, so a run of
    /// deferred writes, each committed by its approval long before its
    /// deadline, leaves nothing behind but one wheel entry per write (for
    /// a term) — and firing those late changes nothing.
    #[test]
    fn committed_deferred_writes_leave_only_their_wheel_entries() {
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
        // The known residual: the deadlines plus at most one armed prune.
        assert!((WRITES..=WRITES + 1).contains(&(timers.wheel.len() as u64)));
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
        assert_eq!(deadlines, WRITES);
        assert_eq!(store.version(&7), Some(Version(WRITES + 1)));
    }
}
