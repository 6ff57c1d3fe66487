//! The lease server state machine.
//!
//! This is the server side of §2 of the paper: it grants leases on reads,
//! collects leaseholder approvals (or waits out lease expiry) before
//! committing writes, avoids write starvation by deferring new grants on a
//! resource with a write pending (footnote 1), optimizes installed files
//! with periodic multicast extensions and delayed update (§4), and recovers
//! from crashes by honouring the maximum term it ever granted (§2).
//!
//! The machine is sans-IO: every call takes `now` (the server's local
//! clock) and a [`Storage`] for the primary copies, and returns the
//! messages, timers, and persistence actions the harness must perform.

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

use lease_clock::{Dur, Time};

use crate::hash::FxMap;
use crate::msg::{ErrorReason, Grant, ToClient, ToServer};
use crate::policy::{Observation, TermPolicy};
use crate::storage::Storage;
use crate::table::LeaseTable;
use crate::types::{ClientId, LeaseHandle, ReqId, Resource, Version, WriteId};

/// How many recent write replies the server remembers, across all
/// clients, for at-most-once retransmission handling.
const DEDUP_CAPACITY: usize = 64;

/// How the server survives a crash (§2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryMode {
    /// Persist only the maximum term ever granted; after a restart, defer
    /// every write until that much time has passed ("it delays writes to
    /// all files for that period").
    MaxTerm,
    /// Persist each lease record; after a restart, writes wait only on the
    /// actual unexpired leases. Costs one persistence action per grant.
    PersistentRecords,
}

/// Server configuration.
pub struct ServerConfig<R: Resource> {
    /// Term policy for ordinary grants, told of every read, write, crash.
    pub policy: Box<dyn TermPolicy<R>>,
    /// Crash-recovery mode.
    pub recovery: RecoveryMode,
    /// Period of the installed-file multicast extension (§4).
    pub installed_tick: Dur,
    /// Term carried by each multicast extension.
    pub installed_term: Dur,
    /// Refuse new grants (drop Fetch/Renew without reply) while the
    /// post-crash recovery window is open, instead of only stalling writes.
    ///
    /// §5 requires only that *writes* wait out the maximum term after a
    /// restart, so this defaults to `false`; deployments turn it on so a
    /// freshly restarted shard sheds read load until its lease knowledge is
    /// trustworthy again, letting client backoff spread the re-fetch storm.
    pub defer_grants_in_recovery: bool,
}

impl<R: Resource> ServerConfig<R> {
    /// A configuration with a fixed term and sensible defaults.
    pub fn fixed(term: Dur) -> ServerConfig<R> {
        ServerConfig {
            policy: Box::new(crate::policy::FixedTerm(term)),
            recovery: RecoveryMode::MaxTerm,
            installed_tick: Dur::from_secs(30),
            installed_term: Dur::from_secs(60),
            defer_grants_in_recovery: false,
        }
    }
}

/// Timers the server asks the harness to arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServerTimer {
    /// A pending write's lease-expiry deadline.
    WriteDeadline(WriteId),
    /// The periodic installed-file multicast.
    InstalledTick,
}

/// Inputs to the server state machine.
#[derive(Debug, Clone)]
pub enum ServerInput<R, D> {
    /// A message from a client cache.
    Msg {
        /// The sender.
        from: ClientId,
        /// The message.
        msg: ToServer<R, D>,
    },
    /// A timer armed by an earlier output fired.
    Timer(ServerTimer),
    /// An administrative write with no requesting client (installing a new
    /// version of a system file, §4).
    LocalWrite {
        /// The resource to write.
        resource: R,
        /// The new contents.
        data: D,
    },
}

/// Effects the harness must apply after a `handle` call.
#[derive(Debug, Clone)]
pub enum ServerOutput<R, D> {
    /// Send a unicast message.
    Send {
        /// Recipient.
        to: ClientId,
        /// Message.
        msg: ToClient<R, D>,
    },
    /// Send one multicast message to a host group.
    Multicast {
        /// Recipients.
        to: Vec<ClientId>,
        /// Message.
        msg: ToClient<R, D>,
    },
    /// Arm a timer (re-arming an existing key replaces it).
    SetTimer {
        /// When it should fire.
        at: Time,
        /// Which timer.
        timer: ServerTimer,
    },
    /// Durably record the new maximum granted term (MaxTerm recovery).
    PersistMaxTerm(Dur),
    /// Durably record a lease (PersistentRecords recovery).
    PersistLease {
        /// Covered resource.
        resource: R,
        /// Holder.
        client: ClientId,
        /// Expiry on the server clock.
        expiry: Time,
    },
    /// A write committed to primary storage (for history/oracle hooks).
    Committed {
        /// Written resource.
        resource: R,
        /// New version.
        version: Version,
        /// The writing client, if any.
        writer: Option<ClientId>,
    },
}

/// Message and decision counters, exposed for experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerCounters {
    /// Fetch requests received.
    pub fetch_rx: u64,
    /// Renew requests received.
    pub renew_rx: u64,
    /// Individual grants issued.
    pub grants: u64,
    /// Grants that carried data.
    pub grants_with_data: u64,
    /// Grants answered "unchanged" (version match, no data).
    pub grants_no_data: u64,
    /// Writes received (deduplicated retransmissions excluded).
    pub writes_rx: u64,
    /// Writes committed without waiting.
    pub writes_immediate: u64,
    /// Writes that had to wait for approvals or expiry.
    pub writes_deferred: u64,
    /// Approval-request multicasts sent.
    pub approval_multicasts: u64,
    /// Approvals received.
    pub approvals_rx: u64,
    /// Installed-file extension multicasts sent.
    pub installed_multicasts: u64,
    /// Retransmitted writes answered from the dedup cache.
    pub dedup_hits: u64,
    /// Error replies sent.
    pub errors: u64,
    /// Relinquish messages received.
    pub relinquish_rx: u64,
    /// Fetch/Renew requests dropped because the post-crash recovery window
    /// was still open (only with
    /// [`ServerConfig::defer_grants_in_recovery`]).
    pub recovery_refusals: u64,
    /// Requests refused with `Shed` by admission control (mutated by the
    /// hosting runtime, which owns the admission decision).
    pub sheds: u64,
    /// Inputs dropped because their propagated deadline had already passed
    /// when the worker drained them (mutated by the hosting runtime).
    pub expired_drops: u64,
}

impl ServerCounters {
    /// Adds `other`'s counts into `self` — aggregation across independent
    /// server instances (e.g. the shards of a partitioned deployment).
    pub fn merge(&mut self, other: &ServerCounters) {
        self.fetch_rx += other.fetch_rx;
        self.renew_rx += other.renew_rx;
        self.grants += other.grants;
        self.grants_with_data += other.grants_with_data;
        self.grants_no_data += other.grants_no_data;
        self.writes_rx += other.writes_rx;
        self.writes_immediate += other.writes_immediate;
        self.writes_deferred += other.writes_deferred;
        self.approval_multicasts += other.approval_multicasts;
        self.approvals_rx += other.approvals_rx;
        self.installed_multicasts += other.installed_multicasts;
        self.dedup_hits += other.dedup_hits;
        self.errors += other.errors;
        self.relinquish_rx += other.relinquish_rx;
        self.recovery_refusals += other.recovery_refusals;
        self.sheds += other.sheds;
        self.expired_drops += other.expired_drops;
    }
}

#[derive(Debug, Clone)]
struct PendingWrite<D> {
    id: WriteId,
    writer: Option<(ClientId, ReqId)>,
    data: D,
    /// Leaseholders whose approval is still outstanding.
    awaiting: BTreeSet<ClientId>,
    /// When the last blocking lease expires (activated writes only).
    deadline: Time,
    /// Whether the write has been activated (front of its queue).
    active: bool,
}

#[derive(Debug, Clone, Copy)]
struct QueuedFetch {
    client: ClientId,
    req: ReqId,
    cached: Option<Version>,
}

/// The lease server.
///
/// See the [module documentation](self) for the protocol description and
/// [`ServerInput`]/[`ServerOutput`] for the I/O contract.
pub struct LeaseServer<R: Resource, D> {
    cfg: ServerConfig<R>,
    table: LeaseTable<R>,
    // RandomState: a client picks the resource ids it writes.
    pending: HashMap<R, VecDeque<PendingWrite<D>>>,
    /// Keyed by the `WriteId`s this server mints.
    write_index: FxMap<WriteId, R>,
    // RandomState: a client picks the resource ids it reads and writes.
    queued_fetches: HashMap<R, Vec<QueuedFetch>>,
    /// Resources managed by multicast extension instead of per-client
    /// leases (§4 installed files).
    // RandomState: a client picks the resource ids it reads and writes.
    installed: HashSet<R>,
    /// Per-installed-resource latest expiry the server must honour.
    // RandomState: a client picks the resource ids it reads and writes.
    installed_expiry: HashMap<R, Time>,
    /// The host group receiving installed multicasts.
    installed_group: Vec<ClientId>,
    next_write: u64,
    /// Client writes currently queued or awaiting approval, for
    /// at-most-once handling of retransmissions that arrive mid-flight.
    // RandomState: each client picks its own `ReqId`s.
    inflight_writes: HashSet<(ClientId, ReqId)>,
    // RandomState: each client picks its own `ReqId`s.
    dedup: HashMap<(ClientId, ReqId), ToClient<R, D>>,
    dedup_order: VecDeque<(ClientId, ReqId)>,
    max_term_granted: Dur,
    /// Writes are deferred until this instant after a crash (MaxTerm mode).
    recovering_until: Option<Time>,
    /// Counters for experiments.
    pub counters: ServerCounters,
}

impl<R: Resource, D: Clone> LeaseServer<R, D> {
    /// Creates a server with the given configuration.
    pub fn new(cfg: ServerConfig<R>) -> LeaseServer<R, D> {
        LeaseServer {
            cfg,
            table: LeaseTable::new(),
            pending: HashMap::new(),
            write_index: FxMap::default(),
            queued_fetches: HashMap::new(),
            installed: HashSet::new(),
            installed_expiry: HashMap::new(),
            installed_group: Vec::new(),
            next_write: 0,
            inflight_writes: HashSet::new(),
            dedup: HashMap::new(),
            dedup_order: VecDeque::new(),
            max_term_granted: Dur::ZERO,
            recovering_until: None,
            counters: ServerCounters::default(),
        }
    }

    /// Declares `resource` an installed file: covered by periodic multicast
    /// extensions, no per-client lease records, writes via delayed update.
    pub fn add_installed(&mut self, resource: R) {
        self.installed.insert(resource);
    }

    /// Sets the host group that receives installed-file multicasts.
    pub fn set_installed_group(&mut self, group: Vec<ClientId>) {
        self.installed_group = group;
    }

    /// Arms initial timers; call once when the server comes up.
    pub fn start(&mut self, now: Time, store: &dyn Storage<R, D>) -> Vec<ServerOutput<R, D>> {
        let mut out = Vec::new();
        if !self.installed.is_empty() {
            // First multicast goes out immediately so caches start covered.
            self.installed_multicast(now, store, &mut out);
        }
        out
    }

    /// The lease table (for inspection in tests and experiments).
    pub fn table(&self) -> &LeaseTable<R> {
        &self.table
    }

    /// The maximum term ever granted (what MaxTerm recovery persists).
    pub fn max_term_granted(&self) -> Dur {
        self.max_term_granted
    }

    /// Whether a write is pending on `resource`.
    pub fn write_pending(&self, resource: R) -> bool {
        self.pending.get(&resource).is_some_and(|q| !q.is_empty())
    }

    /// Starts loading the index buckets `input` will probe first — its
    /// resource's in the lease table and in `store` — into the cache. A
    /// pure hint: it changes no state and produces no output. A fetch or
    /// a write names its primary resource; any other input does nothing,
    /// and so does a table or store too small to miss the cache.
    ///
    /// A batch-draining harness calls it some inputs ahead of
    /// [`Self::handle_into`], so the misses of a whole batch are in
    /// flight together instead of one after another.
    pub fn prefetch(&self, input: &ServerInput<R, D>, store: &dyn Storage<R, D>) {
        if let Some(r) = primary_resource(input) {
            self.table.prefetch(r);
            store.prefetch(&r);
        }
    }

    /// Starts loading the lease record of `input`'s first holder into the
    /// cache: the step after [`Self::prefetch`], worth issuing once its
    /// index bucket has arrived. A pure hint, like it.
    pub fn prefetch_holder(&self, input: &ServerInput<R, D>) {
        if let Some(r) = primary_resource(input) {
            self.table.prefetch_holder(r);
        }
    }

    /// Handles one input; returns the effects to apply.
    pub fn handle(
        &mut self,
        now: Time,
        input: ServerInput<R, D>,
        store: &mut dyn Storage<R, D>,
    ) -> Vec<ServerOutput<R, D>> {
        let mut out = Vec::new();
        self.handle_into(now, input, store, &mut out);
        out
    }

    /// Handles one input, appending the effects to apply to `out` — so a
    /// caller that drains `out` between calls reuses one buffer for every
    /// input.
    pub fn handle_into(
        &mut self,
        now: Time,
        input: ServerInput<R, D>,
        store: &mut dyn Storage<R, D>,
        out: &mut Vec<ServerOutput<R, D>>,
    ) {
        match input {
            ServerInput::Msg { from, msg } => self.on_msg(now, from, msg, store, out),
            ServerInput::Timer(t) => self.on_timer(now, t, store, out),
            ServerInput::LocalWrite { resource, data } => {
                self.start_write(now, None, resource, data, store, out)
            }
        }
    }

    /// Wipes volatile state (host crash). Durable state — primary copies
    /// and whatever was persisted through outputs — is the harness's to
    /// keep.
    pub fn crash(&mut self) {
        self.table.clear();
        self.cfg.policy.observe(Observation::Crash);
        self.pending.clear();
        self.write_index.clear();
        self.queued_fetches.clear();
        self.inflight_writes.clear();
        self.installed_expiry.clear();
        self.dedup.clear();
        self.dedup_order.clear();
        self.max_term_granted = Dur::ZERO;
        self.recovering_until = None;
    }

    /// Restarts after a crash.
    ///
    /// In [`RecoveryMode::MaxTerm`], pass the persisted maximum term; all
    /// writes are deferred until `now + max_term`. In
    /// [`RecoveryMode::PersistentRecords`], pass the persisted lease
    /// records; expired ones are discarded and writes wait only on live
    /// leases.
    pub fn recover(
        &mut self,
        now: Time,
        persisted_max_term: Option<Dur>,
        persisted_leases: Vec<(R, ClientId, Time)>,
        store: &dyn Storage<R, D>,
    ) -> Vec<ServerOutput<R, D>> {
        match self.cfg.recovery {
            RecoveryMode::MaxTerm => {
                if let Some(t) = persisted_max_term {
                    if !t.is_zero() {
                        self.recovering_until = Some(now + t);
                    }
                    self.max_term_granted = t;
                }
            }
            RecoveryMode::PersistentRecords => {
                for (r, c, expiry) in persisted_leases {
                    if expiry > now {
                        self.table.grant(r, c, expiry);
                    }
                }
                if let Some(t) = persisted_max_term {
                    self.max_term_granted = t;
                }
            }
        }
        self.start(now, store)
    }

    fn on_msg(
        &mut self,
        now: Time,
        from: ClientId,
        msg: ToServer<R, D>,
        store: &mut dyn Storage<R, D>,
        out: &mut Vec<ServerOutput<R, D>>,
    ) {
        // Grant refusal during the §5 recovery window: a just-restarted
        // server does not know which leases its predecessor granted, so
        // (when configured) it answers no lease traffic at all until the
        // maximum term has drained. Dropping silently — rather than
        // replying with an error — leaves the client's retry/backoff
        // machinery to re-ask after the window, exactly as if the request
        // had been lost in transit.
        if self.cfg.defer_grants_in_recovery
            && matches!(msg, ToServer::Fetch { .. } | ToServer::Renew { .. })
        {
            if let Some(rec) = self.recovering_until {
                if now < rec {
                    self.counters.recovery_refusals += 1;
                    return;
                }
            }
        }
        match msg {
            ToServer::Fetch {
                req,
                resource,
                cached,
                also_extend,
            } => {
                self.counters.fetch_rx += 1;
                let mut grants = Vec::with_capacity(also_extend.len() + 1);
                for (r, v, h) in also_extend {
                    self.try_grant(now, from, r, Some(v), h, store, &mut grants, out);
                }
                if self.write_pending(resource) {
                    // Write-starvation guard (footnote 1): park the fetch
                    // (once; retransmissions collapse onto the first copy).
                    let parked = self.queued_fetches.entry(resource).or_default();
                    if !parked.iter().any(|q| q.client == from && q.req == req) {
                        parked.push(QueuedFetch {
                            client: from,
                            req,
                            cached,
                        });
                    }
                    if !grants.is_empty() {
                        out.push(ServerOutput::Send {
                            to: from,
                            msg: ToClient::Grants { req, grants },
                        });
                    }
                    return;
                }
                let granted = self.grant(
                    now,
                    from,
                    resource,
                    cached,
                    LeaseHandle::NULL,
                    store,
                    &mut grants,
                    out,
                );
                if granted {
                    out.push(ServerOutput::Send {
                        to: from,
                        msg: ToClient::Grants { req, grants },
                    });
                } else {
                    if !grants.is_empty() {
                        out.push(ServerOutput::Send {
                            to: from,
                            msg: ToClient::Grants { req, grants },
                        });
                    }
                    self.counters.errors += 1;
                    out.push(ServerOutput::Send {
                        to: from,
                        msg: ToClient::Error {
                            req,
                            reason: ErrorReason::NoSuchResource,
                        },
                    });
                }
            }
            ToServer::Renew { req, resources } => {
                self.counters.renew_rx += 1;
                let mut grants = Vec::with_capacity(resources.len());
                for (r, v, h) in resources {
                    self.try_grant(now, from, r, Some(v), h, store, &mut grants, out);
                }
                if !grants.is_empty() {
                    out.push(ServerOutput::Send {
                        to: from,
                        msg: ToClient::Grants { req, grants },
                    });
                }
            }
            ToServer::Write {
                req,
                resource,
                data,
            } => {
                if let Some(reply) = self.dedup.get(&(from, req)) {
                    self.counters.dedup_hits += 1;
                    out.push(ServerOutput::Send {
                        to: from,
                        msg: reply.clone(),
                    });
                    return;
                }
                if self.inflight_writes.contains(&(from, req)) {
                    // A retransmission of a write still awaiting approval:
                    // it is already queued, do not queue it twice.
                    self.counters.dedup_hits += 1;
                    return;
                }
                self.counters.writes_rx += 1;
                self.start_write(now, Some((from, req)), resource, data, store, out);
            }
            ToServer::Approve { write_id } => {
                self.counters.approvals_rx += 1;
                self.on_approve(now, from, write_id, store, out);
            }
            ToServer::Relinquish { resources } => {
                self.counters.relinquish_rx += 1;
                for r in resources {
                    self.table.release(r, from);
                }
            }
        }
    }

    /// Grants a lease on `resource` to `from`, pushing the grant onto the
    /// reply's `grants`; returns `false`, and pushes nothing, if the
    /// resource is unknown or blocked by a pending write.
    ///
    /// `handle` is the client-echoed hint from the lease's last grant
    /// ([`LeaseHandle::NULL`] when the client has none): a renewal that
    /// presents a still-valid handle extends the record with one slab
    /// load instead of a keyed lookup.
    #[allow(clippy::too_many_arguments)] // one protocol input per argument
    fn try_grant(
        &mut self,
        now: Time,
        from: ClientId,
        resource: R,
        cached: Option<Version>,
        handle: LeaseHandle,
        store: &mut dyn Storage<R, D>,
        grants: &mut Vec<Grant<R, D>>,
        out: &mut Vec<ServerOutput<R, D>>,
    ) -> bool {
        if self.write_pending(resource) {
            return false;
        }
        self.grant(now, from, resource, cached, handle, store, grants, out)
    }

    /// [`Self::try_grant`] for a caller that has already checked that no
    /// write is pending on `resource` (a fetch's primary resource).
    ///
    /// The grant is built in place in `grants` rather than returned by
    /// value: copying a just-returned 48-byte grant into the reply reloads
    /// bytes still in the store buffer, a store-forwarding stall on every
    /// renewal.
    #[allow(clippy::too_many_arguments)] // one protocol input per argument
    fn grant(
        &mut self,
        now: Time,
        from: ClientId,
        resource: R,
        cached: Option<Version>,
        handle: LeaseHandle,
        store: &mut dyn Storage<R, D>,
        grants: &mut Vec<Grant<R, D>>,
        out: &mut Vec<ServerOutput<R, D>>,
    ) -> bool {
        let Some((data, version)) = store.read(&resource) else {
            return false;
        };
        self.cfg.policy.observe(Observation::Read(resource, now));
        let mut rec_handle = LeaseHandle::NULL;
        let term = if self.installed.contains(&resource) {
            // Installed files: no per-client record; remember only the
            // latest expiry the server must honour on write.
            let exp = now + self.cfg.installed_term;
            let e = self.installed_expiry.entry(resource).or_insert(exp);
            *e = (*e).max(exp);
            self.cfg.installed_term
        } else {
            let term = self.cfg.policy.term(&resource, from);
            if !term.is_zero() {
                let expiry = now.saturating_add(term);
                rec_handle = self.table.extend(handle, resource, from, expiry);
                if self.cfg.recovery == RecoveryMode::PersistentRecords {
                    out.push(ServerOutput::PersistLease {
                        resource,
                        client: from,
                        expiry,
                    });
                }
            }
            term
        };
        if term > self.max_term_granted {
            self.max_term_granted = term;
            if self.cfg.recovery == RecoveryMode::MaxTerm {
                out.push(ServerOutput::PersistMaxTerm(term));
            }
        }
        self.counters.grants += 1;
        let data = if cached == Some(version) {
            self.counters.grants_no_data += 1;
            None
        } else {
            self.counters.grants_with_data += 1;
            Some(data)
        };
        grants.push(Grant {
            resource,
            version,
            data,
            term,
            handle: rec_handle,
        });
        true
    }

    fn start_write(
        &mut self,
        now: Time,
        writer: Option<(ClientId, ReqId)>,
        resource: R,
        data: D,
        store: &mut dyn Storage<R, D>,
        out: &mut Vec<ServerOutput<R, D>>,
    ) {
        let id = WriteId(self.next_write);
        self.next_write += 1;
        let holders = self.table.holder_count_at(resource, now);
        self.cfg
            .policy
            .observe(Observation::Write(resource, now, holders));
        if let Some(w) = writer {
            self.inflight_writes.insert(w);
        }
        let pw = PendingWrite {
            id,
            writer,
            data,
            awaiting: BTreeSet::new(),
            deadline: now,
            active: false,
        };
        self.write_index.insert(id, resource);
        let queue = self.pending.entry(resource).or_default();
        queue.push_back(pw);
        if queue.len() == 1 {
            self.activate_front(now, resource, store, out);
        } else {
            self.counters.writes_deferred += 1;
        }
    }

    /// Activates the front pending write on `resource`: computes blockers,
    /// sends approval callbacks, and commits immediately if unblocked.
    fn activate_front(
        &mut self,
        now: Time,
        resource: R,
        store: &mut dyn Storage<R, D>,
        out: &mut Vec<ServerOutput<R, D>>,
    ) {
        let Some(queue) = self.pending.get_mut(&resource) else {
            return;
        };
        let Some(front) = queue.front_mut() else {
            return;
        };
        front.active = true;
        let id = front.id;
        let writer = front.writer.map(|(c, _)| c);

        let mut deadline = now;
        let mut awaiting: BTreeSet<ClientId> = BTreeSet::new();

        if self.installed.contains(&resource) {
            // Delayed update (§4): stop extending the file, wait out the
            // latest multicast expiry, never contact leaseholders.
            if let Some(exp) = self.installed_expiry.get(&resource) {
                deadline = deadline.max(*exp);
            }
        } else {
            self.table.for_each_holder_at(resource, now, |holder| {
                // The write request carries the writer's implicit
                // approval (footnote 5).
                if Some(holder) != writer {
                    awaiting.insert(holder);
                }
            });
            if let Some(exp) = self.table.max_expiry(resource, now) {
                if !awaiting.is_empty() {
                    deadline = deadline.max(exp);
                }
            }
        }
        if let Some(rec) = self.recovering_until {
            // Post-crash: unknown leaseholders may exist until `rec`.
            deadline = deadline.max(rec);
        }

        let to: Vec<ClientId> = awaiting.iter().copied().collect();
        let front = self
            .pending
            .get_mut(&resource)
            .and_then(|q| q.front_mut())
            .expect("front exists");
        front.awaiting = awaiting;
        front.deadline = deadline;

        if to.is_empty() && deadline <= now {
            self.counters.writes_immediate += 1;
            self.commit_front(now, resource, store, out);
            return;
        }
        self.counters.writes_deferred += 1;
        if !to.is_empty() {
            self.counters.approval_multicasts += 1;
            let replaces = store.version(&resource).unwrap_or(Version(0));
            out.push(ServerOutput::Multicast {
                to,
                msg: ToClient::ApprovalRequest {
                    write_id: id,
                    resource,
                    replaces,
                },
            });
        }
        out.push(ServerOutput::SetTimer {
            at: deadline,
            timer: ServerTimer::WriteDeadline(id),
        });
    }

    fn on_approve(
        &mut self,
        now: Time,
        from: ClientId,
        write_id: WriteId,
        store: &mut dyn Storage<R, D>,
        out: &mut Vec<ServerOutput<R, D>>,
    ) {
        let Some(&resource) = self.write_index.get(&write_id) else {
            return; // Already resolved; duplicate or late approval.
        };
        // Approval invalidates the approver's copy, which releases its
        // lease on the datum.
        self.table.release(resource, from);
        let Some(front) = self.pending.get_mut(&resource).and_then(|q| q.front_mut()) else {
            return;
        };
        if front.id != write_id || !front.active {
            return;
        }
        front.awaiting.remove(&from);
        if front.awaiting.is_empty() {
            self.commit_front(now, resource, store, out);
        }
    }

    fn on_timer(
        &mut self,
        now: Time,
        timer: ServerTimer,
        store: &mut dyn Storage<R, D>,
        out: &mut Vec<ServerOutput<R, D>>,
    ) {
        match timer {
            ServerTimer::WriteDeadline(write_id) => {
                let Some(&resource) = self.write_index.get(&write_id) else {
                    return; // Committed before the deadline.
                };
                let front_ok = self
                    .pending
                    .get(&resource)
                    .and_then(|q| q.front())
                    .is_some_and(|f| f.id == write_id && f.active);
                if !front_ok {
                    return;
                }
                // All blocking leases have expired by their terms; any
                // holder that never approved is unreachable or crashed and
                // its lease no longer protects it.
                self.commit_front(now, resource, store, out);
            }
            ServerTimer::InstalledTick => {
                self.installed_multicast(now, store, out);
            }
        }
    }

    fn installed_multicast(
        &mut self,
        now: Time,
        store: &dyn Storage<R, D>,
        out: &mut Vec<ServerOutput<R, D>>,
    ) {
        let mut covered: Vec<(R, Version)> = self
            .installed
            .iter()
            .copied()
            .filter(|r| !self.write_pending(*r))
            .filter_map(|r| store.version(&r).map(|v| (r, v)))
            .collect();
        covered.sort_unstable_by_key(|(r, _)| *r);
        if !covered.is_empty() && !self.installed_group.is_empty() {
            for (r, _) in &covered {
                let exp = now + self.cfg.installed_term;
                let e = self.installed_expiry.entry(*r).or_insert(exp);
                *e = (*e).max(exp);
            }
            if self.cfg.installed_term > self.max_term_granted {
                self.max_term_granted = self.cfg.installed_term;
                if self.cfg.recovery == RecoveryMode::MaxTerm {
                    out.push(ServerOutput::PersistMaxTerm(self.cfg.installed_term));
                }
            }
            self.counters.installed_multicasts += 1;
            out.push(ServerOutput::Multicast {
                to: self.installed_group.clone(),
                msg: ToClient::InstalledExtend {
                    resources: covered,
                    term: self.cfg.installed_term,
                    sent_at: now,
                },
            });
        }
        if !self.installed.is_empty() {
            out.push(ServerOutput::SetTimer {
                at: now + self.cfg.installed_tick,
                timer: ServerTimer::InstalledTick,
            });
        }
    }

    fn commit_front(
        &mut self,
        now: Time,
        resource: R,
        store: &mut dyn Storage<R, D>,
        out: &mut Vec<ServerOutput<R, D>>,
    ) {
        let Some(pw) = self.pending.get_mut(&resource).and_then(|q| q.pop_front()) else {
            return;
        };
        self.write_index.remove(&pw.id);
        let version = store.write(&resource, pw.data);
        out.push(ServerOutput::Committed {
            resource,
            version,
            writer: pw.writer.map(|(c, _)| c),
        });
        if let Some((client, req)) = pw.writer {
            self.inflight_writes.remove(&(client, req));
            // The writer gets a fresh lease over its new copy.
            let term = if self.installed.contains(&resource) {
                Dur::ZERO
            } else {
                let term = self.cfg.policy.term(&resource, client);
                if !term.is_zero() {
                    let expiry = now.saturating_add(term);
                    self.table.grant(resource, client, expiry);
                    if self.cfg.recovery == RecoveryMode::PersistentRecords {
                        out.push(ServerOutput::PersistLease {
                            resource,
                            client,
                            expiry,
                        });
                    }
                    if term > self.max_term_granted {
                        self.max_term_granted = term;
                        if self.cfg.recovery == RecoveryMode::MaxTerm {
                            out.push(ServerOutput::PersistMaxTerm(term));
                        }
                    }
                }
                term
            };
            let reply = ToClient::WriteDone {
                req,
                resource,
                version,
                term,
            };
            self.remember_reply(client, req, reply.clone());
            out.push(ServerOutput::Send {
                to: client,
                msg: reply,
            });
        }
        // Next queued write, if any, becomes active against the current
        // leaseholder set.
        if self.pending.get(&resource).is_some_and(|q| !q.is_empty()) {
            self.activate_front(now, resource, store, out);
            return;
        }
        self.pending.remove(&resource);
        // The starvation guard lifts: serve parked fetches.
        if let Some(parked) = self.queued_fetches.remove(&resource) {
            for qf in parked {
                let (to, req) = (qf.client, qf.req);
                let mut grants = Vec::with_capacity(1);
                let granted = self.try_grant(
                    now,
                    to,
                    resource,
                    qf.cached,
                    LeaseHandle::NULL,
                    store,
                    &mut grants,
                    out,
                );
                let msg = if granted {
                    ToClient::Grants { req, grants }
                } else {
                    self.counters.errors += 1;
                    ToClient::Error {
                        req,
                        reason: ErrorReason::NoSuchResource,
                    }
                };
                out.push(ServerOutput::Send { to, msg });
            }
        }
    }

    fn remember_reply(&mut self, client: ClientId, req: ReqId, reply: ToClient<R, D>) {
        while self.dedup_order.len() >= DEDUP_CAPACITY {
            if let Some(old) = self.dedup_order.pop_front() {
                self.dedup.remove(&old);
            }
        }
        self.dedup.insert((client, req), reply);
        self.dedup_order.push_back((client, req));
    }

    /// Lazily prunes expired leases; harnesses may call this periodically
    /// to bound table size (short terms keep it small, §2).
    pub fn prune(&mut self, now: Time) -> usize {
        self.table.prune(now)
    }
}

/// The resource a fetch or a write is about: what [`LeaseServer::prefetch`]
/// warms. Other inputs name none worth warming: a renewal names many, and
/// an approval's write touched its resource when it arrived.
fn primary_resource<R: Copy, D>(input: &ServerInput<R, D>) -> Option<R> {
    match input {
        ServerInput::Msg {
            msg: ToServer::Fetch { resource, .. } | ToServer::Write { resource, .. },
            ..
        }
        | ServerInput::LocalWrite { resource, .. } => Some(*resource),
        _ => None,
    }
}
