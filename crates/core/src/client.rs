//! The client file-cache state machine.
//!
//! A cache "requires a valid lease on the datum (in addition to holding the
//! datum) before it returns the datum in response to a read, or modifies
//! the datum in response to a write" (§2). This module implements that
//! cache: the read fast path, lease extension with batching, write-through
//! writes carrying the writer's implicit approval, approval callbacks that
//! invalidate the local copy, the client side of the effective-term rule
//! `t_c = t_s - (m_prop + 2·m_proc) - ε`, anticipatory renewal (§4), and
//! LRU eviction with voluntary relinquish.
//!
//! # Effective term
//!
//! The client never learns the server-clock instant its lease started, so
//! it anchors expiry to the time it *first sent* the request:
//! `expiry = first_send + t_s − ε`. The server granted at some instant no
//! earlier than the send, so the client's view is conservative by at least
//! the in-flight delay — exactly the `t_c` shortening the paper models.
//! This rule needs only bounded clock *drift*, not synchronized clocks
//! (§5); the one message that does rely on ε-synchronization is the
//! installed-file multicast, whose term is anchored to a server timestamp.
//!
//! # Renewal
//!
//! §3.1 has a cache "extend together all leases over all files that it
//! still holds" whenever it must contact the server anyway. Taken on every
//! miss that is work proportional to held × miss rate for almost no gain:
//! a lease extended a millisecond ago gains a millisecond. So each entry
//! remembers when extension next *gains* something, an eighth of a term
//! after the anchor its expiry is counted from (`renew_after`), and a
//! fetch piggybacks exactly the entries that are due. Everything due
//! still rides in one message (the paper's batch); what is bounded is the
//! rate, at 8 extensions per lease per term whatever the miss rate. There
//! is no cap on the list: the rate bound alone keeps a request small, and
//! a cap would let leases lapse in a cache that holds more than the cap.
//!
//! What is due is found by one pass over the entries, O(held) on a miss:
//! beside the round trip that is under a microsecond at 256 entries and
//! some 20 µs at 4 096. Nothing orders the entries by `renew_after`; an
//! index that does is only worth its upkeep to a cache of many thousands
//! (DESIGN.md, "Client-side renewal", has the measurement).

use std::collections::HashMap;

use lease_clock::{Dur, Time};

use crate::msg::{ErrorReason, Grant, ToClient, ToServer};
use crate::types::{ClientId, LeaseHandle, OpId, ReqId, Resource, Version};

/// Client cache configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Clock-skew/drift allowance ε subtracted from every term.
    pub epsilon: Dur,
    /// Base retransmission interval for outstanding requests (the first
    /// retry fires this long after the original send; [`Backoff`] scales
    /// subsequent ones).
    pub retry_interval: Dur,
    /// Retransmissions before an op fails with [`OpError::Timeout`].
    pub max_retries: u32,
    /// How retry intervals grow across attempts; the default is a fixed
    /// interval (multiplier 1, no jitter).
    pub backoff: Backoff,
    /// Wall-time budget per operation: once this much time has passed since
    /// the op was first sent, the next retry opportunity fails it with
    /// [`OpError::Timeout`] even if retransmissions remain. `None` = only
    /// the retry budget bounds the op.
    pub op_deadline: Option<Dur>,
    /// Token-bucket cap on retransmission work across *all* this client's
    /// in-flight requests. Backoff paces each request individually; the
    /// budget bounds the client's aggregate retry rate, so N clients
    /// cannot amplify a server brownout into a retry storm. `None` = no
    /// budget (retries limited only by backoff and `max_retries`).
    pub retry_budget: Option<RetryBudget>,
    /// Piggyback extension of every held lease that is due on every fetch
    /// (§3.1: batch extensions; see the module's *Renewal* section for
    /// "due"). `false` = never piggyback.
    pub batch_extensions: bool,
    /// Renew all held leases every interval without waiting for a miss
    /// (§4 anticipatory extension); `None` = on-demand only.
    pub anticipatory: Option<Dur>,
    /// Cache capacity in entries (0 = unbounded); LRU beyond that.
    pub capacity: usize,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            epsilon: Dur::from_millis(100),
            retry_interval: Dur::from_millis(500),
            max_retries: 20,
            backoff: Backoff::default(),
            op_deadline: None,
            retry_budget: None,
            batch_extensions: true,
            anticipatory: None,
            capacity: 0,
        }
    }
}

/// Exponential-backoff shape for request retransmissions.
///
/// The nominal interval before retry `attempt` (1-based) is
/// `base * multiplier^(attempt-1)`, capped at `cap`. Jitter then subtracts a
/// deterministic pseudo-random fraction of up to `jitter * nominal`, so the
/// actual interval always lies in `[nominal * (1 - jitter), nominal]`.
/// Jitter is derived by hashing a caller-supplied salt — the state machine
/// stays sans-IO and seed-stable, yet distinct clients desynchronize their
/// retry storms.
///
/// # Examples
///
/// ```
/// use lease_clock::Dur;
/// use lease_core::Backoff;
///
/// let b = Backoff { multiplier: 2.0, cap: Dur::from_secs(1), jitter: 0.0 };
/// let base = Dur::from_millis(100);
/// assert_eq!(b.nominal(base, 1), Dur::from_millis(100));
/// assert_eq!(b.nominal(base, 3), Dur::from_millis(400));
/// assert_eq!(b.nominal(base, 20), Dur::from_secs(1)); // capped
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Backoff {
    /// Growth factor per retry; values ≤ 1.0 mean a fixed interval.
    pub multiplier: f64,
    /// Upper bound on the nominal interval.
    pub cap: Dur,
    /// Fraction of the nominal interval that jitter may subtract, in
    /// `[0, 1]`; 0 disables jitter.
    pub jitter: f64,
}

impl Default for Backoff {
    fn default() -> Backoff {
        Backoff {
            multiplier: 1.0,
            cap: Dur::MAX,
            jitter: 0.0,
        }
    }
}

impl Backoff {
    /// An exponential schedule: doubling, capped at `cap`, with 25% jitter.
    pub fn exponential(cap: Dur) -> Backoff {
        Backoff {
            multiplier: 2.0,
            cap,
            jitter: 0.25,
        }
    }

    /// The nominal (pre-jitter) interval before retry `attempt` (1-based;
    /// attempt 0 is treated as the first retry).
    pub fn nominal(&self, base: Dur, attempt: u32) -> Dur {
        let mut d = base;
        if self.multiplier > 1.0 {
            for _ in 1..attempt.max(1) {
                if d >= self.cap {
                    break;
                }
                d = d.mul_f64(self.multiplier);
            }
        }
        d.min(self.cap)
    }

    /// The jittered interval before retry `attempt`: the nominal interval
    /// minus a salt-determined fraction of up to `jitter * nominal`.
    pub fn interval(&self, base: Dur, attempt: u32, salt: u64) -> Dur {
        let nominal = self.nominal(base, attempt);
        if self.jitter <= 0.0 {
            return nominal;
        }
        // 53 uniform mantissa bits in [0, 1), derived from the salt.
        let unit = (splitmix64(salt) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        nominal.saturating_sub(nominal.mul_f64(self.jitter.min(1.0) * unit))
    }
}

/// A token-bucket retry budget: at most `burst` retransmissions at once,
/// refilling at `rate` per second.
///
/// A retry that finds the bucket empty is *deferred* (re-checked once a
/// token would be available), not dropped — it consumes no attempt from
/// `max_retries`, though the per-op deadline still bounds total waiting.
/// The budget is per client and shared across all its in-flight requests:
/// it caps the aggregate retransmission load this client can put on a
/// struggling server.
#[derive(Debug, Clone, Copy)]
pub struct RetryBudget {
    /// Tokens added per second.
    pub rate: f64,
    /// Bucket capacity (maximum saved-up retries).
    pub burst: f64,
}

impl RetryBudget {
    /// A budget of `rate` retries per second with a one-second burst.
    pub fn per_sec(rate: f64) -> RetryBudget {
        RetryBudget {
            rate,
            burst: rate.max(1.0),
        }
    }
}

/// SplitMix64 finalizer: a well-mixed 64-bit hash of the input.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An application-level cache operation.
#[derive(Debug, Clone)]
pub enum Op<R, D> {
    /// Read the resource.
    Read(R),
    /// Write-through new contents.
    Write(R, D),
}

/// Timers the client asks the harness to arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClientTimer {
    /// Retransmission timer for a request.
    Retry(ReqId),
    /// The periodic anticipatory-renewal tick.
    Renewal,
}

/// Inputs to the client state machine.
#[derive(Debug, Clone)]
pub enum ClientInput<R, D> {
    /// The application submits an operation.
    Op {
        /// Caller-chosen id reported back in [`ClientOutput::Done`].
        op: OpId,
        /// The operation.
        kind: Op<R, D>,
    },
    /// A message from the server.
    Msg(ToClient<R, D>),
    /// A timer fired.
    Timer(ClientTimer),
}

/// How a completed operation went.
#[derive(Debug, Clone, PartialEq)]
pub enum OpOutcome<D> {
    /// A read completed.
    Read {
        /// The data.
        data: D,
        /// Its version.
        version: Version,
        /// Whether the cache served it without contacting the server.
        from_cache: bool,
    },
    /// A write committed.
    Write {
        /// The committed version.
        version: Version,
    },
}

/// Why an operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpError {
    /// The server does not know the resource.
    NoSuchResource,
    /// Retransmissions exhausted, server unreachable. For writes this
    /// means the outcome is *unknown*: the server may still commit.
    Timeout,
}

/// The result delivered with [`ClientOutput::Done`].
pub type OpResult<D> = Result<OpOutcome<D>, OpError>;

/// Effects the harness must apply after a `handle` call.
#[derive(Debug, Clone)]
pub enum ClientOutput<R, D> {
    /// Send a message to the server.
    Send(ToServer<R, D>),
    /// Arm a timer (re-arming an existing key replaces it).
    SetTimer {
        /// When it should fire.
        at: Time,
        /// Which timer.
        timer: ClientTimer,
    },
    /// Cancel a timer by key.
    CancelTimer(ClientTimer),
    /// An operation completed.
    Done {
        /// The operation.
        op: OpId,
        /// Its result.
        result: OpResult<D>,
    },
}

/// Cache behaviour counters, exposed for experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientCounters {
    /// Reads served from cache under a valid lease.
    pub hits: u64,
    /// Reads that needed a lease extension (data was cached).
    pub misses_extend: u64,
    /// Reads that needed data (nothing cached).
    pub misses_cold: u64,
    /// Write operations submitted.
    pub writes: u64,
    /// Approval callbacks honoured.
    pub approvals: u64,
    /// Cache entries invalidated by approvals.
    pub invalidations: u64,
    /// Retransmissions sent.
    pub retries: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Operations failed by retry exhaustion.
    pub timeouts: u64,
    /// `Shed` refusals received from an overloaded server.
    pub sheds: u64,
    /// Retries deferred by the [`RetryBudget`] (re-attempted later; not
    /// counted against `max_retries`).
    pub budget_deferred: u64,
    /// Held leases put on fetches for extension (`also_extend` entries
    /// sent, retransmissions included): at most 8 per lease per term plus
    /// what retransmissions repeat.
    pub renewals_piggybacked: u64,
}

#[derive(Debug, Clone)]
struct Entry<D> {
    data: D,
    version: Version,
    /// Conservative client-clock expiry of the lease.
    expiry: Time,
    /// When extending this lease next gains something: a fetch sent at or
    /// after this instant piggybacks the entry. Set with `expiry` from the
    /// same grant, and moved to a carrying request's next retry instant
    /// while that request is in flight. [`Time::MAX`] = never.
    renew_after: Time,
    last_used: Time,
    /// The server's cookie from the last grant, echoed on renewals so the
    /// server can take its slab fast path. Opaque; NULL when the lease
    /// came without one (e.g. a write completion).
    handle: LeaseHandle,
}

impl<D> Entry<D> {
    /// Moves the lease forward to `lease` if that outlasts what the entry
    /// has: a grant that does not advance `expiry` does not move
    /// `renew_after` either.
    fn extend(&mut self, lease: Lease) {
        if lease.expiry > self.expiry {
            self.expiry = lease.expiry;
            self.renew_after = lease.renew_after;
        }
    }
}

#[derive(Debug, Clone)]
enum Pending<R, D> {
    Fetch {
        resource: R,
        waiters: Vec<(OpId, Time)>,
        originals: usize,
        first_sent: Time,
        retries: u32,
        /// The retry instant of the last transmission: the entries it
        /// piggybacked wait until then, or until it is itself repeated.
        retry_at: Time,
    },
    Write {
        resource: R,
        data: D,
        op: OpId,
        first_sent: Time,
        retries: u32,
    },
    Renew {
        first_sent: Time,
    },
}

/// The client cache.
///
/// See the [module documentation](self) for the protocol description and
/// [`ClientInput`]/[`ClientOutput`] for the I/O contract.
pub struct LeaseClient<R: Resource, D: Clone> {
    id: ClientId,
    cfg: ClientConfig,
    entries: HashMap<R, Entry<D>>,
    /// In-flight fetch per resource (ops pile onto it).
    fetch_inflight: HashMap<R, ReqId>,
    requests: HashMap<ReqId, Pending<R, D>>,
    /// Per-resource version floor: the highest version this cache has
    /// observed (through grants, write completions, installed extensions),
    /// raised past the replaced version on every approval. Nothing below
    /// the floor may ever be cached — the defence against delayed,
    /// duplicated, or reordered replies re-installing stale data.
    floor: HashMap<R, Version>,
    next_req: u64,
    /// Retry-budget bucket level; meaningless when `cfg.retry_budget` is
    /// `None`. `budget_at` is the instant of the last refill (`None` =
    /// bucket starts full on first use).
    budget_tokens: f64,
    budget_at: Option<Time>,
    /// Counters for experiments.
    pub counters: ClientCounters,
}

impl<R: Resource, D: Clone> LeaseClient<R, D> {
    /// Creates a cache for client `id`.
    pub fn new(id: ClientId, cfg: ClientConfig) -> LeaseClient<R, D> {
        LeaseClient {
            id,
            cfg,
            entries: HashMap::new(),
            fetch_inflight: HashMap::new(),
            requests: HashMap::new(),
            floor: HashMap::new(),
            next_req: 0,
            budget_tokens: 0.0,
            budget_at: None,
            counters: ClientCounters::default(),
        }
    }

    /// This cache's client id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Arms initial timers; call once when the client comes up.
    pub fn start(&mut self, now: Time) -> Vec<ClientOutput<R, D>> {
        let mut out = Vec::new();
        if let Some(interval) = self.cfg.anticipatory {
            out.push(ClientOutput::SetTimer {
                at: now + interval,
                timer: ClientTimer::Renewal,
            });
        }
        out
    }

    /// Whether the cache holds `resource` under a lease valid at `now`.
    pub fn lease_valid(&self, resource: R, now: Time) -> bool {
        self.entries.get(&resource).is_some_and(|e| e.expiry > now)
    }

    /// The cached version of `resource`, if any (lease may be expired).
    pub fn cached_version(&self, resource: R) -> Option<Version> {
        self.entries.get(&resource).map(|e| e.version)
    }

    /// Number of cached entries.
    pub fn cached_count(&self) -> usize {
        self.entries.len()
    }

    /// The instant request `req` fails at: its first transmission plus
    /// [`ClientConfig::op_deadline`], on this cache's clock — the instant
    /// a retry timer firing at or after it ends the op with
    /// [`OpError::Timeout`] instead of retransmitting. Fixed when the
    /// request is first sent and unchanged by its retransmissions; `None`
    /// without an `op_deadline` or once the request has resolved. A
    /// runtime sends it along with every transmission of `req`, so the
    /// server can drop work whose caller has given up.
    pub fn deadline(&self, req: ReqId) -> Option<Time> {
        let first_sent = match self.requests.get(&req)? {
            Pending::Fetch { first_sent, .. }
            | Pending::Write { first_sent, .. }
            | Pending::Renew { first_sent } => *first_sent,
        };
        Some(first_sent + self.cfg.op_deadline?)
    }

    /// Handles one input; returns the effects to apply.
    pub fn handle(&mut self, now: Time, input: ClientInput<R, D>) -> Vec<ClientOutput<R, D>> {
        let mut out = Vec::new();
        match input {
            ClientInput::Op { op, kind } => match kind {
                Op::Read(r) => self.on_read(now, op, r, &mut out),
                Op::Write(r, d) => self.on_write(now, op, r, d, &mut out),
            },
            ClientInput::Msg(msg) => self.on_msg(now, msg, &mut out),
            ClientInput::Timer(t) => self.on_timer(now, t, &mut out),
        }
        out
    }

    /// Wipes all volatile state (host crash). A restarted cache is empty.
    pub fn crash(&mut self) {
        self.entries.clear();
        self.fetch_inflight.clear();
        self.requests.clear();
        self.floor.clear();
        self.budget_tokens = 0.0;
        self.budget_at = None;
    }

    fn fresh_req(&mut self) -> ReqId {
        let r = ReqId(self.next_req);
        self.next_req += 1;
        r
    }

    /// The hit fast path (§2): if `resource` is cached under a lease valid
    /// at `now`, counts the hit and returns the data and its version — no
    /// server contact, no allocation. `None` means a miss, which goes
    /// through [`LeaseClient::handle`]. The one implementation of a hit:
    /// `handle` calls this for every read, and a runtime may call it
    /// directly to serve a hit on the application's own thread.
    pub fn read_hit(&mut self, now: Time, resource: R) -> Option<(D, Version)> {
        let e = self.entries.get_mut(&resource)?;
        if e.expiry <= now {
            return None;
        }
        e.last_used = now;
        self.counters.hits += 1;
        Some((e.data.clone(), e.version))
    }

    fn on_read(&mut self, now: Time, op: OpId, resource: R, out: &mut Vec<ClientOutput<R, D>>) {
        if let Some((data, version)) = self.read_hit(now, resource) {
            out.push(ClientOutput::Done {
                op,
                result: Ok(OpOutcome::Read {
                    data,
                    version,
                    from_cache: true,
                }),
            });
            return;
        }
        if self.entries.contains_key(&resource) {
            self.counters.misses_extend += 1;
        } else {
            self.counters.misses_cold += 1;
        }
        if let Some(req) = self.fetch_inflight.get(&resource) {
            // Another op already asked; wait with it.
            if let Some(Pending::Fetch { waiters, .. }) = self.requests.get_mut(req) {
                waiters.push((op, now));
                return;
            }
        }
        self.send_fetch(now, resource, vec![(op, now)], out);
    }

    /// Sends a fresh fetch for `resource` on behalf of `waiters`, all of
    /// them original requesters.
    fn send_fetch(
        &mut self,
        now: Time,
        resource: R,
        waiters: Vec<(OpId, Time)>,
        out: &mut Vec<ClientOutput<R, D>>,
    ) {
        let req = self.fresh_req();
        let retry_at = now + self.cfg.retry_interval;
        let msg = self.build_fetch(now, retry_at, None, req, resource);
        self.fetch_inflight.insert(resource, req);
        let originals = waiters.len();
        self.requests.insert(
            req,
            Pending::Fetch {
                resource,
                waiters,
                originals,
                first_sent: now,
                retries: 0,
                retry_at,
            },
        );
        out.push(ClientOutput::Send(msg));
        out.push(ClientOutput::SetTimer {
            at: retry_at,
            timer: ClientTimer::Retry(req),
        });
    }

    /// Builds the fetch for `resource` sent at `now`, piggybacking every
    /// other entry that is due (`renew_after <= now`), sorted by resource.
    /// Each due entry — the target too, which the fetch itself extends —
    /// then waits until `retry_at`, this transmission's retry instant,
    /// before it is due again: a concurrent miss does not repeat it, the
    /// retransmission does. `repeats` is the retry instant of the
    /// transmission this one repeats (`None` for a first one): a retry may
    /// fire before that instant — a shed reply's pace, a runtime that
    /// hears its connection came back — and still carries what the
    /// transmission it replaces carried.
    fn build_fetch(
        &mut self,
        now: Time,
        retry_at: Time,
        repeats: Option<Time>,
        req: ReqId,
        resource: R,
    ) -> ToServer<R, D> {
        let cached = self.entries.get(&resource).map(|e| e.version);
        let mut also_extend = Vec::new();
        for (r, e) in &mut self.entries {
            let at = e.renew_after;
            // `Time::MAX` is "never", not an instant a retry could repeat.
            if at <= now || (Some(at) == repeats && at != Time::MAX) {
                e.renew_after = retry_at;
                if *r != resource {
                    also_extend.push((*r, e.version, e.handle));
                }
            }
        }
        also_extend.sort_unstable_by_key(|(r, _, _)| *r);
        self.counters.renewals_piggybacked += also_extend.len() as u64;
        ToServer::Fetch {
            req,
            resource,
            cached,
            also_extend,
        }
    }

    /// The two instants a grant of `term`, anchored at `anchor`, fixes for
    /// its entry.
    fn lease(&self, anchor: Time, term: Dur) -> Lease {
        Lease {
            expiry: lease_expiry(anchor, term, self.cfg.epsilon),
            renew_after: if self.cfg.batch_extensions {
                renew_after(anchor, term)
            } else {
                Time::MAX
            },
        }
    }

    fn on_write(
        &mut self,
        now: Time,
        op: OpId,
        resource: R,
        data: D,
        out: &mut Vec<ClientOutput<R, D>>,
    ) {
        self.counters.writes += 1;
        // Write-through: the request carries our implicit approval, so the
        // server may commit while our old lease is still live — the old
        // copy must go now.
        self.entries.remove(&resource);
        let req = self.fresh_req();
        self.requests.insert(
            req,
            Pending::Write {
                resource,
                data: data.clone(),
                op,
                first_sent: now,
                retries: 0,
            },
        );
        out.push(ClientOutput::Send(ToServer::Write {
            req,
            resource,
            data,
        }));
        out.push(ClientOutput::SetTimer {
            at: now + self.cfg.retry_interval,
            timer: ClientTimer::Retry(req),
        });
    }

    fn on_msg(&mut self, now: Time, msg: ToClient<R, D>, out: &mut Vec<ClientOutput<R, D>>) {
        match msg {
            ToClient::Grants { req, grants } => self.on_grants(now, req, grants, out),
            ToClient::WriteDone {
                req,
                resource,
                version,
                term,
            } => {
                let Some(pending) = self.requests.remove(&req) else {
                    return; // Duplicate reply.
                };
                let Pending::Write {
                    data,
                    op,
                    first_sent,
                    ..
                } = pending
                else {
                    self.requests.insert(req, pending);
                    return;
                };
                out.push(ClientOutput::CancelTimer(ClientTimer::Retry(req)));
                let lease = self.lease(first_sent, term);
                // Version-floor check: a delayed (retransmission-replayed)
                // WriteDone must never re-install data older than anything
                // this cache has already observed or approved away.
                let below_floor = self.floor.get(&resource).is_some_and(|f| version < *f);
                // While ANY other of our writes to this resource is still
                // in flight, nothing may be cached: retransmissions can
                // commit in arbitrary order at the server, so any pending
                // write may yet supersede this version.
                let another_pending = self
                    .requests
                    .values()
                    .any(|p| matches!(p, Pending::Write { resource: r, .. } if *r == resource));
                if !below_floor {
                    self.observe(resource, version);
                }
                if !below_floor && !another_pending {
                    // WriteDone carries no handle; the first renewal takes
                    // the keyed path and picks one up.
                    self.insert_entry(now, resource, data, version, lease, LeaseHandle::NULL, out);
                }
                out.push(ClientOutput::Done {
                    op,
                    result: Ok(OpOutcome::Write { version }),
                });
            }
            ToClient::ApprovalRequest {
                write_id,
                resource,
                replaces,
            } => {
                self.counters.approvals += 1;
                if self.entries.remove(&resource).is_some() {
                    self.counters.invalidations += 1;
                }
                // Anything at or below the superseded version is stale:
                // raise the floor past it.
                self.observe(resource, replaces.next());
                out.push(ClientOutput::Send(ToServer::Approve { write_id }));
            }
            ToClient::InstalledExtend {
                resources,
                term,
                sent_at,
            } => {
                // Anchored to the server's clock; relies on ε-synchronized
                // clocks (§5).
                let lease = self.lease(sent_at, term);
                for (r, version) in resources {
                    if let Some(e) = self.entries.get_mut(&r) {
                        if e.version == version {
                            e.extend(lease);
                        } else if e.version < version {
                            // The datum changed while our lease was lapsed
                            // (delayed update, §4): drop the stale copy.
                            self.entries.remove(&r);
                            self.counters.invalidations += 1;
                            self.observe(r, version);
                        }
                    }
                }
            }
            ToClient::Error {
                req,
                reason: ErrorReason::Shed { retry_after },
            } => {
                // The server refused to *process* the request (overload),
                // not to serve the resource: the op stays pending and its
                // retry timer is re-armed at the server's suggested pace.
                // The next retry fire still applies the deadline, retry
                // budget, and max_retries — shedding never grants an op
                // extra lifetime.
                if !self.requests.contains_key(&req) {
                    return; // Completed meanwhile; stale shed.
                }
                self.counters.sheds += 1;
                if matches!(self.requests.get(&req), Some(Pending::Renew { .. })) {
                    // Renewals are fire-and-forget; a shed one just ends.
                    self.requests.remove(&req);
                    return;
                }
                out.push(ClientOutput::SetTimer {
                    at: now + retry_after,
                    timer: ClientTimer::Retry(req),
                });
            }
            ToClient::Error {
                req,
                reason: ErrorReason::NoSuchResource,
            } => {
                let Some(pending) = self.requests.remove(&req) else {
                    return;
                };
                out.push(ClientOutput::CancelTimer(ClientTimer::Retry(req)));
                match pending {
                    Pending::Fetch {
                        resource, waiters, ..
                    } => {
                        self.fetch_inflight.remove(&resource);
                        for (op, _) in waiters {
                            out.push(ClientOutput::Done {
                                op,
                                result: Err(OpError::NoSuchResource),
                            });
                        }
                    }
                    Pending::Write { op, .. } => {
                        out.push(ClientOutput::Done {
                            op,
                            result: Err(OpError::NoSuchResource),
                        });
                    }
                    Pending::Renew { .. } => {}
                }
            }
        }
    }

    fn on_grants(
        &mut self,
        now: Time,
        req: ReqId,
        grants: Vec<Grant<R, D>>,
        out: &mut Vec<ClientOutput<R, D>>,
    ) {
        let Some(pending) = self.requests.get(&req) else {
            return; // Late duplicate; anchor unknown, ignore.
        };
        let (first_sent, target) = match pending {
            Pending::Fetch {
                first_sent,
                resource,
                ..
            } => (*first_sent, Some(*resource)),
            Pending::Renew { first_sent } => (*first_sent, None),
            Pending::Write { .. } => return,
        };
        let mut target_grant: Option<Grant<R, D>> = None;
        for g in grants {
            if Some(g.resource) == target {
                target_grant = Some(g.clone());
            }
            self.apply_grant(now, first_sent, g, out);
        }
        match (target, target_grant) {
            (Some(resource), Some(g)) => {
                // The fetch is answered.
                let Some(Pending::Fetch {
                    waiters, originals, ..
                }) = self.requests.remove(&req)
                else {
                    unreachable!("checked above");
                };
                self.fetch_inflight.remove(&resource);
                out.push(ClientOutput::CancelTimer(ClientTimer::Retry(req)));
                let data = match g.data {
                    Some(d) => d,
                    None => match self.entries.get(&resource) {
                        Some(e) => e.data.clone(),
                        None => {
                            // A no-data grant but our copy is gone (an
                            // approval raced with the reply): start over
                            // with a fresh fetch carrying the same waiters.
                            self.send_fetch(now, resource, waiters, out);
                            return;
                        }
                    },
                };
                // Linearizability of coalesced waiters: if the (freshly
                // applied) lease is valid right now, the data is provably
                // current at this instant, which lies inside every
                // waiter's interval — serve them all. Otherwise only the
                // *original* requesters (already waiting when the request
                // was sent) may use this reply: the grant is at least as
                // fresh as their start. Later joiners re-fetch, because
                // the data may predate them.
                let lease_ok = self.lease_valid(resource, now);
                let mut refetch = Vec::new();
                for (i, (op, joined)) in waiters.into_iter().enumerate() {
                    if lease_ok || i < originals {
                        out.push(ClientOutput::Done {
                            op,
                            result: Ok(OpOutcome::Read {
                                data: data.clone(),
                                version: g.version,
                                from_cache: false,
                            }),
                        });
                    } else {
                        refetch.push((op, joined));
                    }
                }
                if !refetch.is_empty() {
                    self.send_fetch(now, resource, refetch, out);
                }
            }
            (None, _) => {
                // A renewal: grants applied, request done.
                self.requests.remove(&req);
            }
            (Some(_), None) => {
                // Partial reply (extensions only; target parked behind a
                // pending write). Keep waiting.
            }
        }
    }

    fn apply_grant(
        &mut self,
        now: Time,
        first_sent: Time,
        g: Grant<R, D>,
        out: &mut Vec<ClientOutput<R, D>>,
    ) {
        let lease = self.lease(first_sent, g.term);
        // Version-floor check: data below anything we have observed (or
        // approved the replacement of) is stale; it may still be served to
        // waiting ops (their intervals overlap its validity) but must
        // never be cached.
        if self.floor.get(&g.resource).is_some_and(|f| g.version < *f) {
            return;
        }
        self.observe(g.resource, g.version);
        // Our own in-flight write carries our implicit approval: the
        // server may commit it at any moment without asking us, so no
        // grant may (re)establish a cached copy until the write resolves
        // — the submit-time invalidation, extended to in-flight grants.
        let own_write_pending = self
            .requests
            .values()
            .any(|p| matches!(p, Pending::Write { resource: r, .. } if *r == g.resource));
        if own_write_pending {
            return;
        }
        match self.entries.get_mut(&g.resource) {
            Some(e) => {
                if g.version < e.version {
                    return; // Regressive grant (reordered network); drop.
                }
                if let Some(d) = g.data {
                    e.data = d;
                }
                e.version = g.version;
                e.last_used = now;
                e.handle = g.handle;
                e.extend(lease);
            }
            None => {
                // Create an entry only if we actually asked for this
                // resource: an unsolicited or stale-request grant (e.g.
                // one racing our own eviction/relinquish) must not
                // resurrect a cache entry the server no longer tracks.
                if self.fetch_inflight.contains_key(&g.resource) {
                    if let Some(d) = g.data {
                        self.insert_entry(now, g.resource, d, g.version, lease, g.handle, out);
                    }
                }
                // A no-data grant for something we no longer hold: useless.
            }
        }
    }

    /// Raises the version floor for `resource` to at least `version`.
    fn observe(&mut self, resource: R, version: Version) {
        let f = self.floor.entry(resource).or_insert(version);
        *f = (*f).max(version);
    }

    #[allow(clippy::too_many_arguments)] // the fields of one new Entry
    fn insert_entry(
        &mut self,
        now: Time,
        resource: R,
        data: D,
        version: Version,
        lease: Lease,
        handle: LeaseHandle,
        out: &mut Vec<ClientOutput<R, D>>,
    ) {
        self.entries.insert(
            resource,
            Entry {
                data,
                version,
                expiry: lease.expiry,
                renew_after: lease.renew_after,
                last_used: now,
                handle,
            },
        );
        if self.cfg.capacity > 0 && self.entries.len() > self.cfg.capacity {
            // Evict the least-recently-used other entry and give the lease
            // back so the server can forget us (§4: relinquish option).
            let victim = self
                .entries
                .iter()
                .filter(|(r, _)| **r != resource && !self.fetch_inflight.contains_key(*r))
                .min_by_key(|(r, e)| (e.last_used, **r))
                .map(|(r, _)| *r);
            if let Some(v) = victim {
                self.entries.remove(&v);
                self.counters.evictions += 1;
                out.push(ClientOutput::Send(ToServer::Relinquish {
                    resources: vec![v],
                }));
            }
        }
    }

    fn on_timer(&mut self, now: Time, timer: ClientTimer, out: &mut Vec<ClientOutput<R, D>>) {
        match timer {
            ClientTimer::Retry(req) => self.on_retry(now, req, out),
            ClientTimer::Renewal => {
                if let Some(interval) = self.cfg.anticipatory {
                    if !self.entries.is_empty() {
                        let req = self.fresh_req();
                        let mut resources: Vec<(R, Version, LeaseHandle)> = self
                            .entries
                            .iter()
                            .map(|(r, e)| (*r, e.version, e.handle))
                            .collect();
                        resources.sort_unstable_by_key(|(r, _, _)| *r);
                        self.requests
                            .insert(req, Pending::Renew { first_sent: now });
                        out.push(ClientOutput::Send(ToServer::Renew { req, resources }));
                    }
                    out.push(ClientOutput::SetTimer {
                        at: now + interval,
                        timer: ClientTimer::Renewal,
                    });
                }
            }
        }
    }

    /// Takes one retry token, refilling the bucket for the time elapsed
    /// since the last take. `Err` carries how long until a token would be
    /// available (bounded, so a zero-rate budget still re-checks).
    fn budget_take(&mut self, now: Time, b: RetryBudget) -> Result<(), Dur> {
        match self.budget_at {
            None => self.budget_tokens = b.burst.max(1.0), // Starts full.
            Some(last) => {
                let refill = now.saturating_since(last).as_secs_f64() * b.rate;
                self.budget_tokens = (self.budget_tokens + refill).min(b.burst.max(1.0));
            }
        }
        self.budget_at = Some(now);
        if self.budget_tokens >= 1.0 {
            self.budget_tokens -= 1.0;
            Ok(())
        } else if b.rate > 0.0 {
            Err(Dur::from_secs_f64(
                ((1.0 - self.budget_tokens) / b.rate).min(60.0),
            ))
        } else {
            Err(Dur::from_secs(60))
        }
    }

    fn on_retry(&mut self, now: Time, req: ReqId, out: &mut Vec<ClientOutput<R, D>>) {
        let Some(pending) = self.requests.get(&req) else {
            return; // Completed; stale timer.
        };
        // Exhaustion first (read-only): deadline and attempt limits
        // dominate everything else, including budget deferrals.
        let exhausted = match pending {
            Pending::Fetch {
                retries,
                first_sent,
                ..
            }
            | Pending::Write {
                retries,
                first_sent,
                ..
            } => {
                let over_deadline = self
                    .cfg
                    .op_deadline
                    .is_some_and(|d| now.saturating_since(*first_sent) >= d);
                *retries >= self.cfg.max_retries || over_deadline
            }
            Pending::Renew { .. } => true, // Renewals are not retried.
        };
        if exhausted {
            let pending = self.requests.remove(&req).expect("present");
            match pending {
                Pending::Fetch {
                    resource, waiters, ..
                } => {
                    self.fetch_inflight.remove(&resource);
                    for (op, _) in waiters {
                        self.counters.timeouts += 1;
                        out.push(ClientOutput::Done {
                            op,
                            result: Err(OpError::Timeout),
                        });
                    }
                }
                Pending::Write { op, .. } => {
                    self.counters.timeouts += 1;
                    out.push(ClientOutput::Done {
                        op,
                        result: Err(OpError::Timeout),
                    });
                }
                Pending::Renew { .. } => {}
            }
            return;
        }
        // Budget gate: an empty bucket defers the retry (no attempt
        // consumed) until a token is due — the deadline check above still
        // bounds how long an op can keep deferring.
        if let Some(b) = self.cfg.retry_budget {
            if let Err(wait) = self.budget_take(now, b) {
                self.counters.budget_deferred += 1;
                out.push(ClientOutput::SetTimer {
                    at: now + wait,
                    timer: ClientTimer::Retry(req),
                });
                return;
            }
        }
        // Commit the attempt.
        let attempt = match self.requests.get_mut(&req).expect("still present") {
            Pending::Fetch { retries, .. } | Pending::Write { retries, .. } => {
                *retries += 1;
                *retries
            }
            Pending::Renew { .. } => unreachable!("renewals are not retried"),
        };
        self.counters.retries += 1;
        // The next retry follows the backoff schedule; the salt folds in
        // the client, request, and attempt so concurrent retriers
        // desynchronize while each individual schedule stays deterministic.
        let salt = (u64::from(self.id.0) << 48) ^ (req.0 << 8) ^ u64::from(attempt);
        let retry_at = now
            + self
                .cfg
                .backoff
                .interval(self.cfg.retry_interval, attempt, salt);
        let msg = match self.requests.get_mut(&req).expect("still present") {
            Pending::Fetch {
                resource,
                retry_at: armed,
                ..
            } => {
                let resource = *resource;
                let repeats = std::mem::replace(armed, retry_at);
                self.build_fetch(now, retry_at, Some(repeats), req, resource)
            }
            Pending::Write { resource, data, .. } => ToServer::Write {
                req,
                resource: *resource,
                data: data.clone(),
            },
            Pending::Renew { .. } => unreachable!("renewals are not retried"),
        };
        out.push(ClientOutput::Send(msg));
        out.push(ClientOutput::SetTimer {
            at: retry_at,
            timer: ClientTimer::Retry(req),
        });
    }
}

/// The conservative client-side lease expiry: `anchor + term − ε`,
/// saturating; an infinite term never expires.
fn lease_expiry(anchor: Time, term: Dur, epsilon: Dur) -> Time {
    if term.is_infinite() {
        return Time::MAX;
    }
    anchor + term.saturating_sub(epsilon)
}

/// A lease is worth extending again once this fraction of its term has
/// run. It bounds renewal work at this many extensions per lease per
/// term whatever the miss rate, and each extension still gains at least
/// an eighth of a term. A constant, not an option: 1/2 and 1/8 gave the
/// same speed, and 1/8 moves the simulated Fig. 1 curve less (a lease
/// extended early in its term and not again lapses sooner).
const RENEW_DIVISOR: u64 = 8;

/// When a lease granted for `term` at `anchor` next gains from extension:
/// `anchor + term / 8`. Never ([`Time::MAX`]) for an infinite term, which
/// cannot gain, and for a zero term, which is no lease.
fn renew_after(anchor: Time, term: Dur) -> Time {
    if term.is_infinite() || term.is_zero() {
        return Time::MAX;
    }
    anchor + term / RENEW_DIVISOR
}

/// The two instants one grant fixes, both from the same anchor.
#[derive(Debug, Clone, Copy)]
struct Lease {
    expiry: Time,
    renew_after: Time,
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    type C = LeaseClient<u64, String>;

    fn cfg() -> ClientConfig {
        ClientConfig {
            epsilon: Dur::from_millis(10),
            ..ClientConfig::default()
        }
    }

    fn client() -> C {
        LeaseClient::new(ClientId(1), cfg())
    }

    fn t(ms: u64) -> Time {
        Time::from_millis(ms)
    }

    fn grant(resource: u64, version: u64, data: &str, term_ms: u64) -> Grant<u64, String> {
        Grant {
            resource,
            version: Version(version),
            data: Some(data.to_string()),
            term: Dur::from_millis(term_ms),
            handle: LeaseHandle::NULL,
        }
    }

    /// Drives a read miss to the point where the fetch is on the wire;
    /// returns the request id.
    fn start_read(c: &mut C, now: Time, op: u64, resource: u64) -> ReqId {
        let out = c.handle(
            now,
            ClientInput::Op {
                op: OpId(op),
                kind: Op::Read(resource),
            },
        );
        for o in &out {
            if let ClientOutput::Send(ToServer::Fetch { req, .. }) = o {
                return *req;
            }
        }
        panic!("no fetch sent: {out:?}");
    }

    fn deliver_grants(
        c: &mut C,
        now: Time,
        req: ReqId,
        grants: Vec<Grant<u64, String>>,
    ) -> Vec<ClientOutput<u64, String>> {
        c.handle(now, ClientInput::Msg(ToClient::Grants { req, grants }))
    }

    #[test]
    fn cold_miss_then_hit_then_expiry() {
        let mut c = client();
        let req = start_read(&mut c, t(0), 1, 7);
        let out = deliver_grants(&mut c, t(3), req, vec![grant(7, 1, "data", 10_000)]);
        assert!(out.iter().any(|o| matches!(
            o,
            ClientOutput::Done {
                op: OpId(1),
                result: Ok(OpOutcome::Read {
                    from_cache: false,
                    ..
                })
            }
        )));
        assert_eq!(c.counters.misses_cold, 1);

        // Within the term (minus epsilon): cache hit, no messages.
        let out = c.handle(
            t(5000),
            ClientInput::Op {
                op: OpId(2),
                kind: Op::Read(7),
            },
        );
        assert_eq!(out.len(), 1);
        assert!(matches!(
            &out[0],
            ClientOutput::Done {
                result: Ok(OpOutcome::Read {
                    from_cache: true,
                    ..
                }),
                ..
            }
        ));
        assert_eq!(c.counters.hits, 1);

        // Effective expiry is first_sent + term - epsilon = 9990 ms.
        assert!(c.lease_valid(7, t(9989)));
        assert!(!c.lease_valid(7, t(9990)));

        // After expiry: extension miss.
        let out = c.handle(
            t(12_000),
            ClientInput::Op {
                op: OpId(3),
                kind: Op::Read(7),
            },
        );
        assert!(out.iter().any(|o| matches!(
            o,
            ClientOutput::Send(ToServer::Fetch {
                cached: Some(Version(1)),
                ..
            })
        )));
        assert_eq!(c.counters.misses_extend, 1);
    }

    #[test]
    fn no_data_grant_serves_cached_copy() {
        let mut c = client();
        let req = start_read(&mut c, t(0), 1, 7);
        deliver_grants(&mut c, t(1), req, vec![grant(7, 3, "v3", 1000)]);
        // Lease expires; read again; server says "unchanged".
        let req2 = start_read(&mut c, t(5000), 2, 7);
        let g = Grant {
            resource: 7u64,
            version: Version(3),
            data: None,
            term: Dur::from_millis(1000),
            handle: LeaseHandle::NULL,
        };
        let out = deliver_grants(&mut c, t(5003), req2, vec![g]);
        let done = out.iter().find_map(|o| match o {
            ClientOutput::Done {
                result:
                    Ok(OpOutcome::Read {
                        data, from_cache, ..
                    }),
                ..
            } => Some((data.clone(), *from_cache)),
            _ => None,
        });
        assert_eq!(done, Some(("v3".to_string(), false)));
    }

    #[test]
    fn concurrent_reads_share_one_fetch() {
        let mut c = client();
        let req = start_read(&mut c, t(0), 1, 7);
        let out = c.handle(
            t(1),
            ClientInput::Op {
                op: OpId(2),
                kind: Op::Read(7),
            },
        );
        assert!(out.is_empty(), "second read should wait: {out:?}");
        let out = deliver_grants(&mut c, t(3), req, vec![grant(7, 1, "x", 1000)]);
        let done: Vec<u64> = out
            .iter()
            .filter_map(|o| match o {
                ClientOutput::Done { op, .. } => Some(op.0),
                _ => None,
            })
            .collect();
        assert_eq!(done, vec![1, 2]);
    }

    #[test]
    fn approval_invalidates_and_replies() {
        let mut c = client();
        let req = start_read(&mut c, t(0), 1, 7);
        deliver_grants(&mut c, t(1), req, vec![grant(7, 1, "old", 60_000)]);
        assert!(c.lease_valid(7, t(100)));
        let out = c.handle(
            t(200),
            ClientInput::Msg(ToClient::ApprovalRequest {
                write_id: WriteIdT(5),
                resource: 7,
                replaces: Version(1),
            }),
        );
        assert!(out
            .iter()
            .any(|o| matches!(o, ClientOutput::Send(ToServer::Approve { .. }))));
        assert!(!c.lease_valid(7, t(201)));
        assert_eq!(c.counters.invalidations, 1);
    }

    // Local alias so the test reads naturally.
    #[allow(non_snake_case)]
    fn WriteIdT(n: u64) -> crate::types::WriteId {
        crate::types::WriteId(n)
    }

    #[test]
    fn write_invalidates_local_copy_until_done() {
        let mut c = client();
        let req = start_read(&mut c, t(0), 1, 7);
        deliver_grants(&mut c, t(1), req, vec![grant(7, 1, "old", 60_000)]);
        let out = c.handle(
            t(100),
            ClientInput::Op {
                op: OpId(2),
                kind: Op::Write(7, "new".into()),
            },
        );
        let wreq = out
            .iter()
            .find_map(|o| match o {
                ClientOutput::Send(ToServer::Write { req, .. }) => Some(*req),
                _ => None,
            })
            .expect("write sent");
        // Local copy gone while the write is in flight.
        assert!(!c.lease_valid(7, t(101)));
        let out = c.handle(
            t(105),
            ClientInput::Msg(ToClient::WriteDone {
                req: wreq,
                resource: 7,
                version: Version(2),
                term: Dur::from_secs(10),
            }),
        );
        assert!(out.iter().any(|o| matches!(
            o,
            ClientOutput::Done {
                op: OpId(2),
                result: Ok(OpOutcome::Write {
                    version: Version(2)
                })
            }
        )));
        // The writer now caches its own data under a fresh lease.
        assert!(c.lease_valid(7, t(200)));
        assert_eq!(c.cached_version(7), Some(Version(2)));
    }

    #[test]
    fn barrier_blocks_stale_grant_after_approval() {
        let mut c = client();
        // Fetch in flight...
        let req = start_read(&mut c, t(0), 1, 7);
        // ...approval for a write arrives first.
        c.handle(
            t(5),
            ClientInput::Msg(ToClient::ApprovalRequest {
                write_id: WriteIdT(9),
                resource: 7,
                replaces: Version(1),
            }),
        );
        // The (stale) grant from before the write finally lands.
        deliver_grants(&mut c, t(6), req, vec![grant(7, 1, "stale", 60_000)]);
        // It must not be cached.
        assert!(!c.lease_valid(7, t(7)));
        assert_eq!(c.cached_version(7), None);
    }

    #[test]
    fn retry_retransmits_then_times_out() {
        let mut c = LeaseClient::<u64, String>::new(
            ClientId(1),
            ClientConfig {
                max_retries: 2,
                ..cfg()
            },
        );
        let req = start_read(&mut c, t(0), 1, 7);
        let out = c.handle(t(500), ClientInput::Timer(ClientTimer::Retry(req)));
        assert!(out
            .iter()
            .any(|o| matches!(o, ClientOutput::Send(ToServer::Fetch { .. }))));
        let out = c.handle(t(1000), ClientInput::Timer(ClientTimer::Retry(req)));
        assert!(out.iter().any(|o| matches!(o, ClientOutput::Send(_))));
        // Third fire exhausts the budget.
        let out = c.handle(t(1500), ClientInput::Timer(ClientTimer::Retry(req)));
        assert!(out.iter().any(|o| matches!(
            o,
            ClientOutput::Done {
                result: Err(OpError::Timeout),
                ..
            }
        )));
        assert_eq!(c.counters.retries, 2);
        assert_eq!(c.counters.timeouts, 1);
        // A late reply after failure is ignored.
        let out = deliver_grants(&mut c, t(2000), req, vec![grant(7, 1, "late", 1000)]);
        assert!(out.is_empty());
    }

    /// The `also_extend` list of the one fetch in `out`.
    fn piggybacked(out: &[ClientOutput<u64, String>]) -> Vec<(u64, Version, LeaseHandle)> {
        out.iter()
            .find_map(|o| match o {
                ClientOutput::Send(ToServer::Fetch { also_extend, .. }) => {
                    Some(also_extend.clone())
                }
                _ => None,
            })
            .unwrap_or_else(|| panic!("no fetch sent: {out:?}"))
    }

    fn read(c: &mut C, now: Time, op: u64, resource: u64) -> Vec<ClientOutput<u64, String>> {
        c.handle(
            now,
            ClientInput::Op {
                op: OpId(op),
                kind: Op::Read(resource),
            },
        )
    }

    /// Caches `resource` (version 1) under a lease of `term` anchored at
    /// `at`.
    fn hold(c: &mut C, at: Time, resource: u64, term: Dur) {
        let req = start_read(c, at, 1000 + resource, resource);
        let g = Grant {
            term,
            ..grant(resource, 1, "d", 0)
        };
        deliver_grants(c, at, req, vec![g]);
    }

    #[test]
    fn batched_fetch_carries_the_leases_that_are_due() {
        let mut c = client();
        hold(&mut c, t(0), 13, Dur::from_secs(120));
        hold(&mut c, t(1), 11, Dur::from_millis(100));
        hold(&mut c, t(2), 10, Dur::from_millis(100));
        // 10 and 11 have long expired; a read of 12 piggybacks them, in
        // resource order. 13 is younger than an eighth of its term and
        // would gain nothing yet: it stays off the list.
        let out = read(&mut c, t(10_000), 9, 12);
        assert_eq!(
            piggybacked(&out),
            vec![
                (10, Version(1), LeaseHandle::NULL),
                (11, Version(1), LeaseHandle::NULL)
            ]
        );
        assert_eq!(c.counters.renewals_piggybacked, 2);
        // Once an eighth of 13's term has run it rides too.
        let out = read(&mut c, t(15_000), 10, 14);
        assert!(piggybacked(&out).iter().any(|(r, _, _)| *r == 13));
    }

    #[test]
    fn without_batching_nothing_is_piggybacked() {
        let mut c = LeaseClient::<u64, String>::new(
            ClientId(1),
            ClientConfig {
                batch_extensions: false,
                ..cfg()
            },
        );
        hold(&mut c, t(1), 10, Dur::from_millis(100));
        assert_eq!(piggybacked(&read(&mut c, t(10_000), 9, 12)), vec![]);
    }

    /// Misses every 100 µs for three terms: each held lease is extended
    /// at most eight times a term, and none lapses.
    #[test]
    fn renewals_are_bounded_per_term_whatever_the_miss_rate() {
        const HELD: u64 = 16;
        let term = Dur::from_secs(1);
        let mut c = client();
        for r in 0..HELD {
            hold(&mut c, t(0), r, term);
        }
        // Resource 99 is granted a zero term, so every read of it misses.
        let mut listed = [0u32; HELD as usize];
        let step = Dur::from_micros(100);
        let mut now = t(0);
        let mut op = 0;
        while now < t(3_000) {
            now += step;
            op += 1;
            let out = read(&mut c, now, op, 99);
            let req = out.iter().find_map(|o| match o {
                ClientOutput::Send(m) => m.req(),
                _ => None,
            });
            let mut grants = vec![Grant {
                term: Dur::ZERO,
                ..grant(99, 1, "d", 0)
            }];
            for (r, version, handle) in piggybacked(&out) {
                listed[r as usize] += 1;
                grants.push(Grant {
                    resource: r,
                    version,
                    data: None,
                    term,
                    handle,
                });
            }
            deliver_grants(&mut c, now + Dur::from_micros(50), req.unwrap(), grants);
            for r in 0..HELD {
                assert!(c.lease_valid(r, now), "lease on {r} lapsed at {now:?}");
            }
        }
        for (r, n) in listed.iter().enumerate() {
            assert!((20..=8 * 3 + 1).contains(n), "resource {r}: {n} extensions");
        }
        assert!(c.counters.renewals_piggybacked <= HELD * (8 * 3 + 1));
    }

    #[test]
    fn an_entry_on_a_request_in_flight_waits_for_its_retransmission() {
        let mut c = client();
        hold(&mut c, t(0), 10, Dur::from_millis(800));
        let ten = vec![(10, Version(1), LeaseHandle::NULL)];
        // Due from t = 100 ms: the first miss carries it ...
        let out = read(&mut c, t(200), 1, 12);
        assert_eq!(piggybacked(&out), ten);
        let req = out.iter().find_map(|o| match o {
            ClientOutput::Send(m) => m.req(),
            _ => None,
        });
        // ... a concurrent miss does not repeat it ...
        assert_eq!(piggybacked(&read(&mut c, t(201), 2, 13)), vec![]);
        // ... and the retransmission of the request that carries it does.
        let out = c.handle(t(700), ClientInput::Timer(ClientTimer::Retry(req.unwrap())));
        assert_eq!(piggybacked(&out), ten);
        assert_eq!(c.counters.renewals_piggybacked, 2);
    }

    #[test]
    fn zero_and_infinite_terms_are_never_listed() {
        let mut c = client();
        hold(&mut c, t(0), 20, Dur::ZERO);
        hold(&mut c, t(0), 21, Dur::MAX);
        assert_eq!(piggybacked(&read(&mut c, t(3_600_000), 1, 22)), vec![]);
    }

    #[test]
    fn a_grant_that_does_not_advance_expiry_does_not_move_renew_after() {
        let mut c = client();
        hold(&mut c, t(0), 7, Dur::from_secs(10));
        assert_eq!(c.entries[&7].renew_after, t(1_250));
        let extend = |c: &mut C, now: Time, term: Dur| {
            c.handle(
                now,
                ClientInput::Msg(ToClient::InstalledExtend {
                    resources: vec![(7, Version(1))],
                    term,
                    sent_at: now,
                }),
            );
        };
        // A shorter lease from a later anchor ends earlier: ignored whole.
        extend(&mut c, t(100), Dur::from_secs(5));
        assert_eq!(c.entries[&7].renew_after, t(1_250));
        assert_eq!(piggybacked(&read(&mut c, t(1_249), 1, 8)), vec![]);
        // One that outlasts it moves both instants, from its own anchor.
        extend(&mut c, t(200), Dur::from_secs(16));
        assert_eq!(c.entries[&7].renew_after, t(2_200));
        assert!(c.lease_valid(7, t(16_000)));
    }

    /// A retry may fire before its instant (a shed reply's pace, a runtime
    /// whose connection just came back): it still repeats what the
    /// transmission it replaces carried, and the entries then wait for
    /// the new retry instant.
    #[test]
    fn an_early_retransmission_repeats_the_list() {
        let mut c = client();
        hold(&mut c, t(0), 10, Dur::from_millis(800));
        hold(&mut c, t(0), 11, Dur::MAX);
        let ten = vec![(10, Version(1), LeaseHandle::NULL)];
        let out = read(&mut c, t(200), 1, 12);
        assert_eq!(piggybacked(&out), ten);
        let req = out.iter().find_map(|o| match o {
            ClientOutput::Send(m) => m.req(),
            _ => None,
        });
        let retry = ClientInput::Timer(ClientTimer::Retry(req.unwrap()));
        // Due at 700 ms, fired at 250 ms.
        assert_eq!(piggybacked(&c.handle(t(250), retry.clone())), ten);
        assert_eq!(piggybacked(&read(&mut c, t(251), 2, 13)), vec![]);
        // The second retry is early too, and repeats the first.
        assert_eq!(piggybacked(&c.handle(t(300), retry)), ten);
        assert_eq!(c.counters.renewals_piggybacked, 3);
    }

    /// After a long silence everything is due at once and rides one
    /// fetch, each entry once — also when the retry instant is not in the
    /// future, so that what the fetch lists is due again at once.
    #[test]
    fn everything_due_at_once_rides_one_fetch() {
        for retry_interval in [Dur::from_millis(500), Dur::ZERO] {
            let mut c = LeaseClient::<u64, String>::new(
                ClientId(1),
                ClientConfig {
                    retry_interval,
                    ..cfg()
                },
            );
            for r in 0..64 {
                hold(&mut c, t(r), r, Dur::from_secs(8));
            }
            let all = piggybacked(&read(&mut c, t(5_000), 1, 99));
            assert_eq!(all.len(), 64);
            assert!(
                all.windows(2).all(|w| w[0].0 < w[1].0),
                "sorted by resource, none twice"
            );
            assert_eq!(c.counters.renewals_piggybacked, 64);
            // On the wire, none of them is repeated by the next miss ...
            let next = piggybacked(&read(&mut c, t(5_001), 2, 98)).len();
            assert_eq!(next, if retry_interval.is_zero() { 64 } else { 0 });
            // ... and unanswered, all of them are due again at the retry.
            assert_eq!(piggybacked(&read(&mut c, t(5_500), 3, 97)).len(), 64);
        }
    }

    /// What the rule says a fetch of `target` sent at `now` piggybacks:
    /// the entries that are due, and, when it repeats a transmission
    /// whose retry instant was `repeats`, the entries waiting for that
    /// instant.
    fn naive_due(
        c: &C,
        now: Time,
        target: u64,
        repeats: Option<Time>,
    ) -> Vec<(u64, Version, LeaseHandle)> {
        let mut v: Vec<_> = c
            .entries
            .iter()
            .filter(|(r, e)| **r != target && e.renew_after != Time::MAX)
            .filter(|(_, e)| e.renew_after <= now || Some(e.renew_after) == repeats)
            .map(|(r, e)| (*r, e.version, e.handle))
            .collect();
        v.sort_unstable_by_key(|(r, _, _)| *r);
        v
    }

    #[derive(Debug, Clone)]
    enum Step {
        Advance(u64),
        Read(u64),
        Write(u64),
        /// Answer the `n`th request still outstanding, every grant at the
        /// `term`th of [`TERMS`].
        Reply(usize, usize),
        /// Fire the `n`th outstanding request's retry timer.
        Retry(usize),
        Approval(u64),
        Installed(u64, usize),
        Crash,
    }

    const FILES: u64 = 8;
    const TERMS: [Dur; 5] = [
        Dur::ZERO,
        Dur::from_millis(40),
        Dur::from_secs(1),
        Dur::from_secs(8),
        Dur::MAX,
    ];

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            (0u64..2_000).prop_map(Step::Advance),
            (0u64..2_000).prop_map(Step::Advance),
            (0..FILES).prop_map(Step::Read),
            (0..FILES).prop_map(Step::Read),
            (0..FILES).prop_map(Step::Read),
            (0..FILES).prop_map(Step::Write),
            (0usize..8, 0..TERMS.len()).prop_map(|(n, term)| Step::Reply(n, term)),
            (0usize..8, 0..TERMS.len()).prop_map(|(n, term)| Step::Reply(n, term)),
            (0usize..8).prop_map(Step::Retry),
            (0..FILES).prop_map(Step::Approval),
            (0..FILES, 0..TERMS.len()).prop_map(|(r, term)| Step::Installed(r, term)),
            (0u64..40).prop_map(|n| if n == 0 {
                Step::Crash
            } else {
                Step::Advance(n)
            }),
        ]
    }

    proptest! {
        /// Whatever the interleaving of grants, misses, approvals,
        /// evictions, crashes and retries fired early, on time or late, a
        /// fetch piggybacks exactly what the rule says (never missing a
        /// due lease, never naming a dropped or not-yet-due one), and
        /// what it lists then waits for the retry timer it armed.
        #[test]
        fn a_fetch_lists_what_is_due_whatever_came_before(
            steps in proptest::collection::vec(step(), 1..300),
        ) {
            let mut c = LeaseClient::<u64, String>::new(
                ClientId(1),
                ClientConfig { capacity: 5, ..cfg() },
            );
            let mut now = t(0);
            // Requests on the wire, as the server would see them, each
            // with the retry instant its last transmission armed.
            let mut outstanding: Vec<(ToServer<u64, String>, Time)> = Vec::new();
            let mut next_op = 0;
            let mut next_version = 1;
            for s in steps {
                // `Some((target, repeats))` when the step sends its fetch
                // from the state it starts in, so the list it must carry
                // can be taken beforehand.
                let (scanned, input) = match s {
                    Step::Advance(ms) => {
                        now += Dur::from_millis(ms);
                        continue;
                    }
                    Step::Crash => {
                        c.crash();
                        outstanding.clear();
                        continue;
                    }
                    Step::Read(r) => {
                        next_op += 1;
                        let kind = Op::Read(r);
                        (Some((r, None)), ClientInput::Op { op: OpId(next_op), kind })
                    }
                    Step::Write(r) => {
                        next_op += 1;
                        let kind = Op::Write(r, "w".into());
                        (None, ClientInput::Op { op: OpId(next_op), kind })
                    }
                    Step::Retry(n) => {
                        let Some((m, armed)) = outstanding.get(n) else { continue };
                        let scanned = match m {
                            ToServer::Fetch { resource, .. } => Some((*resource, Some(*armed))),
                            _ => None,
                        };
                        let req = m.req().expect("only requests are kept");
                        (scanned, ClientInput::Timer(ClientTimer::Retry(req)))
                    }
                    Step::Reply(n, term) => {
                        if n >= outstanding.len() {
                            continue;
                        }
                        let term = TERMS[term];
                        next_version += 1;
                        let msg = match outstanding.swap_remove(n).0 {
                            ToServer::Fetch { req, resource, also_extend, .. } => {
                                let mut grants: Vec<_> = also_extend
                                    .into_iter()
                                    .map(|(resource, version, handle)| Grant {
                                        resource, version, data: None, term, handle,
                                    })
                                    .collect();
                                grants.push(Grant {
                                    term,
                                    ..grant(resource, next_version, "d", 0)
                                });
                                ToClient::Grants { req, grants }
                            }
                            ToServer::Write { req, resource, .. } => ToClient::WriteDone {
                                req, resource, version: Version(next_version), term,
                            },
                            other => panic!("not a request: {other:?}"),
                        };
                        (None, ClientInput::Msg(msg))
                    }
                    Step::Approval(resource) => {
                        let replaces = c.cached_version(resource).unwrap_or(Version(0));
                        (None, ClientInput::Msg(ToClient::ApprovalRequest {
                            write_id: WriteIdT(0), resource, replaces,
                        }))
                    }
                    Step::Installed(r, term) => {
                        let Some(version) = c.cached_version(r) else { continue };
                        (None, ClientInput::Msg(ToClient::InstalledExtend {
                            resources: vec![(r, version)], term: TERMS[term], sent_at: now,
                        }))
                    }
                };
                let expect = scanned
                    .map(|(target, repeats)| naive_due(&c, now, target, repeats));
                let out = c.handle(now, input);
                for o in &out {
                    let ClientOutput::Send(m) = o else { continue };
                    let Some(req) = m.req() else { continue };
                    let armed = out.iter().find_map(|o| match o {
                        ClientOutput::SetTimer { at, timer: ClientTimer::Retry(r) }
                            if *r == req => Some(*at),
                        _ => None,
                    });
                    let armed = armed.expect("a request goes out with its retry timer");
                    if let ToServer::Fetch { also_extend, .. } = m {
                        if let Some(expect) = &expect {
                            prop_assert_eq!(also_extend, expect, "at {:?}", now);
                        }
                        for (r, _, _) in also_extend {
                            prop_assert_eq!(c.entries[r].renew_after, armed);
                        }
                    }
                    outstanding.retain(|(o, _)| o.req() != Some(req));
                    outstanding.push((m.clone(), armed));
                }
            }
        }
    }

    #[test]
    fn installed_extend_pushes_expiry_forward() {
        let mut c = client();
        let req = start_read(&mut c, t(0), 1, 7);
        deliver_grants(&mut c, t(1), req, vec![grant(7, 1, "bin", 1000)]);
        assert!(!c.lease_valid(7, t(2000)));
        c.handle(
            t(2000),
            ClientInput::Msg(ToClient::InstalledExtend {
                // 99 is not cached: ignored.
                resources: vec![(7, Version(1)), (99, Version(1))],
                term: Dur::from_secs(60),
                sent_at: t(1990),
            }),
        );
        // Expiry = sent_at + 60 s - epsilon.
        assert!(c.lease_valid(7, t(61_979)));
        assert!(!c.lease_valid(7, t(61_990)));
        assert_eq!(c.cached_count(), 1);
    }

    #[test]
    fn lru_eviction_relinquishes() {
        let mut c = LeaseClient::<u64, String>::new(
            ClientId(1),
            ClientConfig {
                capacity: 2,
                ..cfg()
            },
        );
        for (i, r) in [(1u64, 10u64), (2, 11), (3, 12)] {
            let req = start_read(&mut c, t(i * 100), i, r);
            let out = deliver_grants(&mut c, t(i * 100 + 1), req, vec![grant(r, 1, "d", 60_000)]);
            if r == 12 {
                // Inserting the third entry evicts resource 10 (the LRU).
                assert!(out.iter().any(|o| matches!(
                    o,
                    ClientOutput::Send(ToServer::Relinquish { resources }) if resources == &vec![10]
                )));
            }
        }
        assert_eq!(c.cached_count(), 2);
        assert!(c.lease_valid(11, t(500)));
        assert!(c.lease_valid(12, t(500)));
        assert!(!c.lease_valid(10, t(500)));
        assert_eq!(c.counters.evictions, 1);
    }

    #[test]
    fn anticipatory_renewal_fires_periodically() {
        let mut c = LeaseClient::<u64, String>::new(
            ClientId(1),
            ClientConfig {
                anticipatory: Some(Dur::from_secs(5)),
                ..cfg()
            },
        );
        let out = c.start(t(0));
        assert!(out.iter().any(|o| matches!(
            o,
            ClientOutput::SetTimer {
                timer: ClientTimer::Renewal,
                ..
            }
        )));
        let req = start_read(&mut c, t(100), 1, 7);
        deliver_grants(&mut c, t(101), req, vec![grant(7, 1, "d", 60_000)]);
        let out = c.handle(t(5000), ClientInput::Timer(ClientTimer::Renewal));
        let sent = out.iter().any(|o| {
            matches!(o, ClientOutput::Send(ToServer::Renew { resources, .. }) if resources == &vec![(7, Version(1), LeaseHandle::NULL)])
        });
        assert!(sent, "{out:?}");
        // And it re-arms itself.
        assert!(out.iter().any(|o| matches!(
            o,
            ClientOutput::SetTimer { timer: ClientTimer::Renewal, at } if *at == t(10_000)
        )));
    }

    #[test]
    fn zero_term_grant_serves_read_but_never_caches_validly() {
        let mut c = client();
        let req = start_read(&mut c, t(0), 1, 7);
        let g = Grant {
            resource: 7u64,
            version: Version(1),
            data: Some("d".into()),
            term: Dur::ZERO,
            handle: LeaseHandle::NULL,
        };
        let out = deliver_grants(&mut c, t(1), req, vec![g]);
        assert!(out
            .iter()
            .any(|o| matches!(o, ClientOutput::Done { result: Ok(_), .. })));
        // Data is stored but the lease is never valid.
        assert!(!c.lease_valid(7, t(1)));
        assert_eq!(c.cached_version(7), Some(Version(1)));
    }

    #[test]
    fn crash_wipes_cache() {
        let mut c = client();
        let req = start_read(&mut c, t(0), 1, 7);
        deliver_grants(&mut c, t(1), req, vec![grant(7, 1, "d", 60_000)]);
        c.crash();
        assert_eq!(c.cached_count(), 0);
        assert!(!c.lease_valid(7, t(2)));
    }

    #[test]
    fn late_write_done_does_not_clobber_newer_version() {
        // Regression: a retransmission-replayed WriteDone (old version)
        // arriving after a newer version was cached must not regress the
        // cache.
        let mut c = client();
        let out = c.handle(
            t(0),
            ClientInput::Op {
                op: OpId(1),
                kind: Op::Write(7, "w1".into()),
            },
        );
        let req1 = out
            .iter()
            .find_map(|o| match o {
                ClientOutput::Send(ToServer::Write { req, .. }) => Some(*req),
                _ => None,
            })
            .unwrap();
        // A fetch observes version 5 (not cached: our own write is still
        // in flight, and its commit point is unknown).
        let fr = start_read(&mut c, t(100), 2, 7);
        deliver_grants(&mut c, t(101), fr, vec![grant(7, 5, "v5", 10_000)]);
        assert_eq!(c.cached_version(7), None);
        // The delayed WriteDone for version 2 finally lands: the version
        // floor (5) keeps the stale data out of the cache.
        c.handle(
            t(200),
            ClientInput::Msg(ToClient::WriteDone {
                req: req1,
                resource: 7,
                version: Version(2),
                term: Dur::from_secs(10),
            }),
        );
        assert_eq!(c.cached_version(7), None);
        // A fresh fetch with the current version caches normally again.
        let fr = start_read(&mut c, t(300), 3, 7);
        deliver_grants(&mut c, t(301), fr, vec![grant(7, 5, "v5", 10_000)]);
        assert_eq!(c.cached_version(7), Some(Version(5)));
    }

    #[test]
    fn out_of_order_write_done_replies_keep_latest_write() {
        // Two of our own writes in flight; their WriteDone replies arrive
        // out of order. The cache must end at the later write's version.
        let mut c = client();
        let send_write = |c: &mut C, now: Time, op: u64, data: &str| {
            let out = c.handle(
                now,
                ClientInput::Op {
                    op: OpId(op),
                    kind: Op::Write(7, data.into()),
                },
            );
            out.iter()
                .find_map(|o| match o {
                    ClientOutput::Send(ToServer::Write { req, .. }) => Some(*req),
                    _ => None,
                })
                .unwrap()
        };
        let r1 = send_write(&mut c, t(0), 1, "w1");
        let r2 = send_write(&mut c, t(10), 2, "w2");
        // The second write's reply arrives first: while the other write is
        // still in flight, nothing may be cached (it could commit later).
        c.handle(
            t(20),
            ClientInput::Msg(ToClient::WriteDone {
                req: r2,
                resource: 7,
                version: Version(3),
                term: Dur::from_secs(10),
            }),
        );
        assert_eq!(c.cached_version(7), None);
        // Now the first write's (older) reply lands: below the version
        // floor (3), so it must not be cached either.
        c.handle(
            t(30),
            ClientInput::Msg(ToClient::WriteDone {
                req: r1,
                resource: 7,
                version: Version(2),
                term: Dur::from_secs(10),
            }),
        );
        assert_eq!(c.cached_version(7), None);

        // And the in-order case: first reply arrives while the second
        // write is still pending -> not cached; second reply caches.
        let mut c = client();
        let r1 = send_write(&mut c, t(0), 1, "w1");
        let r2 = send_write(&mut c, t(10), 2, "w2");
        c.handle(
            t(20),
            ClientInput::Msg(ToClient::WriteDone {
                req: r1,
                resource: 7,
                version: Version(2),
                term: Dur::from_secs(10),
            }),
        );
        assert_eq!(
            c.cached_version(7),
            None,
            "superseded by our own pending write"
        );
        c.handle(
            t(30),
            ClientInput::Msg(ToClient::WriteDone {
                req: r2,
                resource: 7,
                version: Version(3),
                term: Dur::from_secs(10),
            }),
        );
        assert_eq!(c.cached_version(7), Some(Version(3)));
    }

    #[test]
    fn shed_reply_paces_retry_instead_of_failing() {
        let mut c = client();
        let req = start_read(&mut c, t(0), 1, 7);
        let out = c.handle(
            t(10),
            ClientInput::Msg(ToClient::Error {
                req,
                reason: ErrorReason::Shed {
                    retry_after: Dur::from_millis(250),
                },
            }),
        );
        // No failure; the retry timer is re-armed at the server's pace.
        assert!(
            !out.iter().any(|o| matches!(o, ClientOutput::Done { .. })),
            "{out:?}"
        );
        assert!(out.iter().any(|o| matches!(
            o,
            ClientOutput::SetTimer { timer: ClientTimer::Retry(r), at } if *r == req && *at == t(260)
        )));
        assert_eq!(c.counters.sheds, 1);
        // The paced retry then retransmits and the op still completes.
        let out = c.handle(t(260), ClientInput::Timer(ClientTimer::Retry(req)));
        assert!(out
            .iter()
            .any(|o| matches!(o, ClientOutput::Send(ToServer::Fetch { .. }))));
        let out = deliver_grants(&mut c, t(270), req, vec![grant(7, 1, "d", 1000)]);
        assert!(out
            .iter()
            .any(|o| matches!(o, ClientOutput::Done { result: Ok(_), .. })));
    }

    #[test]
    fn shed_never_outlives_deadline_or_attempts() {
        let mut c = LeaseClient::<u64, String>::new(
            ClientId(1),
            ClientConfig {
                op_deadline: Some(Dur::from_millis(400)),
                ..cfg()
            },
        );
        let req = start_read(&mut c, t(0), 1, 7);
        c.handle(
            t(10),
            ClientInput::Msg(ToClient::Error {
                req,
                reason: ErrorReason::Shed {
                    retry_after: Dur::from_millis(500),
                },
            }),
        );
        // The shed-paced retry fires past the deadline: fail, don't resend.
        let out = c.handle(t(510), ClientInput::Timer(ClientTimer::Retry(req)));
        assert!(out.iter().any(|o| matches!(
            o,
            ClientOutput::Done {
                result: Err(OpError::Timeout),
                ..
            }
        )));
        assert!(!out.iter().any(|o| matches!(o, ClientOutput::Send(_))));
    }

    #[test]
    fn deadline_is_fixed_at_first_transmission() {
        let mut c = LeaseClient::<u64, String>::new(
            ClientId(1),
            ClientConfig {
                op_deadline: Some(Dur::from_millis(400)),
                ..cfg()
            },
        );
        let req = start_read(&mut c, t(100), 1, 7);
        assert_eq!(c.deadline(req), Some(t(500)));
        // A retransmission goes out and leaves the deadline where it was.
        let out = c.handle(t(300), ClientInput::Timer(ClientTimer::Retry(req)));
        assert!(out.iter().any(|o| matches!(o, ClientOutput::Send(_))));
        assert_eq!(c.deadline(req), Some(t(500)));
        // Resolved: no deadline any more.
        deliver_grants(&mut c, t(310), req, vec![grant(7, 1, "d", 1000)]);
        assert_eq!(c.deadline(req), None);
        assert_eq!(c.deadline(ReqId(999)), None, "never sent");
        // Without an op deadline there is none to report.
        let mut c = client();
        let req = start_read(&mut c, t(0), 1, 7);
        assert_eq!(c.deadline(req), None);
    }

    #[test]
    fn retry_budget_defers_without_consuming_attempts() {
        let mut c = LeaseClient::<u64, String>::new(
            ClientId(1),
            ClientConfig {
                max_retries: 3,
                retry_budget: Some(RetryBudget {
                    rate: 2.0,
                    burst: 1.0,
                }),
                ..cfg()
            },
        );
        let req = start_read(&mut c, t(0), 1, 7);
        // First retry: bucket starts full, token taken, retransmits.
        let out = c.handle(t(500), ClientInput::Timer(ClientTimer::Retry(req)));
        assert!(out.iter().any(|o| matches!(o, ClientOutput::Send(_))));
        assert_eq!(c.counters.retries, 1);
        // Immediate second fire: bucket empty -> deferred, not sent, no
        // attempt consumed; re-armed when a token is due (0.5 s at 2/s).
        let out = c.handle(t(500), ClientInput::Timer(ClientTimer::Retry(req)));
        assert!(!out.iter().any(|o| matches!(o, ClientOutput::Send(_))));
        assert!(out.iter().any(|o| matches!(
            o,
            ClientOutput::SetTimer { timer: ClientTimer::Retry(r), at } if *r == req && *at == t(1000)
        )));
        assert_eq!(c.counters.retries, 1);
        assert_eq!(c.counters.budget_deferred, 1);
        // When the deferred fire lands, the refilled bucket admits it.
        let out = c.handle(t(1000), ClientInput::Timer(ClientTimer::Retry(req)));
        assert!(out.iter().any(|o| matches!(o, ClientOutput::Send(_))));
        assert_eq!(c.counters.retries, 2);
    }

    #[test]
    fn regressive_grant_is_ignored() {
        let mut c = client();
        let req = start_read(&mut c, t(0), 1, 7);
        deliver_grants(&mut c, t(1), req, vec![grant(7, 5, "v5", 1000)]);
        // An old, reordered grant with version 3 must not clobber v5.
        let req2 = start_read(&mut c, t(5000), 2, 7);
        deliver_grants(&mut c, t(5001), req2, vec![grant(7, 3, "v3", 1000)]);
        assert_eq!(c.cached_version(7), Some(Version(5)));
    }
}
