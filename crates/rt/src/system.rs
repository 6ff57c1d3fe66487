//! Assembling a real-time lease system on the `lease-svc` runtime.
//!
//! There is one assembly. The paper's arrangement — *the* server — is its
//! quorum-less case: one replica, nothing elected, nothing gated. That
//! server is the availability ceiling of the whole design (§5 rides out
//! every fault by waiting for it to come back), and
//! [`RtSystemBuilder::quorum`] removes the ceiling: N replicas each run
//! their own sharded lease service over the one durable store, a
//! `lease-quorum` grantor election decides which replica may grant, and
//! clients fail over to whichever replica currently holds the grantor
//! lease.
//!
//! The safety chain under a quorum, layer by layer:
//!
//! * **Ingress fencing** — the `Router` every producer submits through
//!   (server module) hands a client message only to a replica whose
//!   [`GrantorGate`](lease_quorum::GrantorGate) is open, trying the
//!   candidates at most once per submission. With no
//!   grantor visible the message is dropped and the client's
//!   retransmission backoff provides the retry schedule (failover is
//!   *free*: the next retransmission simply lands on the new grantor).
//! * **Egress fencing** — each replica's sink drops every reply while its
//!   gate is closed, so a grantor whose lease lapsed mid-batch cannot
//!   leak grants or write approvals (see `RtFence` in the server module).
//! * **Commit fencing** — the storage each service writes through is
//!   gated too: a stale grantor's deferred write is refused at the store,
//!   not just silenced on the wire.
//! * **Takeover recovery** — a *fresh* grantor acquisition (not a
//!   renewal) crash-restarts the new grantor's own service shards, which
//!   re-enter §5 MaxTerm recovery: grants are deferred and writes held
//!   until every lease the previous grantor could have granted has
//!   expired, and the epoch bump fences that incarnation's write-approval
//!   ids — the exact machinery a single server's restart already uses,
//!   reused for succession.
//!
//! Lease state is never replicated or persisted: the old grantor's grants
//! die by expiry, exactly as §5 argues for crash recovery.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use bytes::Bytes;
use lease_clock::{Clock, ClockModel, Dur, ModelClock, Time, WallClock};
use lease_core::{
    Backoff, ClientConfig, ClientId, LeaseServer, RetryBudget, ServerConfig, Storage,
};
use lease_quorum::{KillHandle, QuorumConfig, QuorumHooks, QuorumRuntime};
use lease_store::{DirId, FileKind, Perms, Store};
use lease_svc::{
    chaos::silence_injected_kills, shard_of, AdmissionControl, Egress, FaultPlan, LeaseService,
    SvcConfig, SvcHandle, SvcHooks,
};
use lease_vsys::{History, HistoryEvent};

use crate::client::{spawn_client, RtClientHandle};
use crate::record::Recorder;
use crate::server::{
    lock_backend, ChaosNet, DelayPool, GatedBackend, Res, Router, RtFence, RtPort, RtSink,
    ServerStats, SharedBackend, StoreBackend,
};

/// Builder for an [`RtSystem`].
pub struct RtSystemBuilder {
    term: Dur,
    epsilon: Dur,
    retry_interval: Dur,
    max_retries: u32,
    backoff: Backoff,
    op_deadline: Option<Dur>,
    retry_budget: Option<RetryBudget>,
    admission: Option<AdmissionControl>,
    mailbox: Option<usize>,
    clients: u32,
    shards: usize,
    quorum: Option<QuorumConfig>,
    files: Vec<(String, Bytes, FileKind)>,
    installed_tick: Option<(Dur, Dur)>,
    chaos: Option<FaultPlan>,
}

impl RtSystemBuilder {
    /// The lease term the server grants.
    pub fn term(mut self, term: Dur) -> Self {
        self.term = term;
        self
    }

    /// The client's clock allowance ε.
    pub fn epsilon(mut self, epsilon: Dur) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Client retransmission interval (the backoff base) — under a
    /// quorum also the failover probe cadence while no grantor is
    /// reachable.
    pub fn retry_interval(mut self, d: Dur) -> Self {
        self.retry_interval = d;
        self
    }

    /// Client retry budget.
    pub fn max_retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    /// Retransmission backoff policy (multiplier, cap, jitter) applied on
    /// top of [`RtSystemBuilder::retry_interval`].
    pub fn backoff(mut self, b: Backoff) -> Self {
        self.backoff = b;
        self
    }

    /// Per-operation deadline: a pending op fails with `Timeout` once this
    /// much has elapsed since its first transmission, even if retries
    /// remain. The deadline also rides along with every submission so the
    /// service drops already-dead work instead of processing it.
    pub fn op_deadline(mut self, d: Dur) -> Self {
        self.op_deadline = Some(d);
        self
    }

    /// Client-side retry budget: a token bucket metering how many *extra*
    /// (retry) transmissions each client may add per second.
    pub fn retry_budget(mut self, b: RetryBudget) -> Self {
        self.retry_budget = Some(b);
        self
    }

    /// Server-side admission control: shard occupancy watermarks at which
    /// cold fetches are shed with a `retry_after` hint.
    pub fn admission(mut self, a: AdmissionControl) -> Self {
        self.admission = Some(a);
        self
    }

    /// Per-shard mailbox capacity — the bound admission control's
    /// occupancy watermarks are measured against (default 1024). A client
    /// whose lane into a shard is full has its send refused: a lost
    /// message, which its retransmission timer recovers.
    pub fn mailbox(mut self, n: usize) -> Self {
        self.mailbox = Some(n.max(1));
        self
    }

    /// Number of client caches.
    pub fn clients(mut self, n: u32) -> Self {
        self.clients = n;
        self
    }

    /// Lease-service shard count, per replica (default 1). Resources are
    /// partitioned by file-id hash; the protocol is per-datum, so any
    /// count preserves semantics.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n.max(1);
        self
    }

    /// Replaces *the* server by `q.replicas` grantor replicas over the
    /// one store, the right to grant held from a majority of them (see
    /// the module documentation). Without this there is one server and no
    /// election.
    pub fn quorum(mut self, q: QuorumConfig) -> Self {
        self.quorum = Some(q);
        self
    }

    /// Pre-creates a file (path must be absolute; directories are made).
    pub fn file(mut self, path: &str, data: impl Into<Bytes>) -> Self {
        self.files
            .push((path.to_owned(), data.into(), FileKind::Regular));
        self
    }

    /// Pre-creates an installed (read-mostly system) file.
    pub fn installed_file(mut self, path: &str, data: impl Into<Bytes>) -> Self {
        self.files
            .push((path.to_owned(), data.into(), FileKind::Installed));
        self
    }

    /// Enables the §4 installed-file multicast with (tick, term).
    pub fn installed_multicast(mut self, tick: Dur, term: Dur) -> Self {
        self.installed_tick = Some((tick, term));
        self
    }

    /// Installs a seeded chaos plan: shard and replica kills, message
    /// drop / delay / duplication, cut windows, and skewed clocks, all
    /// replayed deterministically from the plan's seed. The server of a
    /// system without a quorum is replica 0 of the plan.
    pub fn chaos(mut self, plan: FaultPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Builds and starts every thread: the quorum if one is configured,
    /// one service per replica, the clients, and the kill driver if the
    /// plan has kills.
    pub fn start(self) -> RtSystem {
        // One true clock: history timestamps, chaos schedules and every
        // host's (possibly skewed) model clock all derive from it.
        let truth = WallClock::new();
        let recorder = Arc::new(Recorder::new(truth.clone()));
        // Injected kills panic on purpose — and under a quorum so does
        // every takeover, which crash-restarts shards as a matter of
        // course.
        if self.chaos.is_some() || self.quorum.is_some() {
            silence_injected_kills();
        }
        let plan = self.chaos.clone().unwrap_or_else(|| FaultPlan::new(0));
        let replicas = self.quorum.as_ref().map_or(1, |q| q.replicas as usize);
        // A host's clock: the truth, seen through the plan's model for it.
        let host_clock = |model: Option<ClockModel>| -> Arc<dyn Clock> {
            match model {
                Some(model) => Arc::new(ModelClock::new(truth.clone(), model)),
                None => Arc::new(truth.clone()),
            }
        };

        let mut store = Store::new();
        let mut names = HashMap::new();
        let mut dirs: HashMap<String, u64> = HashMap::new();
        dirs.insert("/".to_string(), DirId::ROOT.0);
        let mut installed_resources = Vec::new();
        for (path, data, kind) in &self.files {
            let (dir_path, name) = match path.rfind('/') {
                Some(0) => ("/".to_string(), &path[1..]),
                Some(i) => (path[..i].to_string(), &path[i + 1..]),
                None => panic!("file path must be absolute: {path}"),
            };
            let dir = if dir_path == "/" {
                DirId::ROOT
            } else {
                store.mkdir_p(&dir_path).unwrap()
            };
            dirs.insert(dir_path.clone(), dir.0);
            let perms = if *kind == FileKind::Installed {
                Perms::rx()
            } else {
                Perms::rw()
            };
            let id = store
                .create_file(dir, name, *kind, perms, truth.now())
                .unwrap();
            store.write(id, data.clone(), truth.now()).unwrap();
            names.insert(path.clone(), id.0);
            if *kind == FileKind::Installed {
                installed_resources.push(id.0);
            }
        }

        // The reply path first: the services' sinks need it. Each client
        // gets an inbox of ring lanes whose doorbell is the one thing its
        // thread parks on — every replica's shard workers register their
        // own lanes into it, behind that replica's fence — and a cut
        // switch both directions consult.
        let base_cfg = SvcConfig::default();
        let mailbox = self.mailbox.unwrap_or(base_cfg.mailbox);
        let egress: Egress<Res, Bytes> = Egress::new(self.clients as usize, mailbox);
        let cuts: Vec<Arc<AtomicBool>> = (0..self.clients)
            .map(|_| Arc::new(AtomicBool::new(false)))
            .collect();
        let delay = Arc::new(DelayPool::new(&egress));

        // The one durable backend, shared by every shard of every replica
        // (resources are partitioned, so a replica's writers never
        // collide, and only the grantor's get through its gate).
        let mut raw_backend = StoreBackend::new(store, truth.clone());
        raw_backend.recorder = Some(recorder.clone());
        let backend = Arc::new(Mutex::new(raw_backend));

        // Seed the oracle's commit timeline: every pre-created resource
        // already carries a version > 1 (create + write each bump it), so
        // without a synthetic commit the checker would flag the first read
        // as returning an unknown version.
        {
            let b = lock_backend(&backend);
            for r in names.values().chain(dirs.values()) {
                if let Some(v) = b.version(r) {
                    recorder.push(HistoryEvent::Commit {
                        resource: *r,
                        version: v,
                        writer: None,
                        at: recorder.now(),
                    });
                }
            }
        }

        let chaos_net = self.chaos.as_ref().map(|p| {
            Arc::new(ChaosNet::new(
                p.clone(),
                truth.clone(),
                self.clients as usize,
            ))
        });

        // The quorum spawns first (services need its gates). Its takeover
        // hook reads the service registry, filled in below; an acquisition
        // racing the fill is harmless — a service that has not started yet
        // has no stale lease state to recover from. The registry's lock is
        // taken once per fresh acquisition, never per message.
        let shards = self.shards;
        let takeover: Arc<Mutex<Vec<SvcHandle<Res, Bytes>>>> = Arc::default();
        let quorum = self.quorum.clone().map(|cfg| {
            let on_acquire = {
                let takeover = Arc::clone(&takeover);
                Arc::new(move |replica: u32, fresh: bool| {
                    if !fresh {
                        return;
                    }
                    // A fresh grantor session cannot trust any file-lease
                    // state its service accumulated earlier — and knows
                    // nothing of what the previous grantor granted. Crash-
                    // restart every shard so it re-enters §5 MaxTerm
                    // recovery: grants deferred, writes held, epoch bumped
                    // (stale write-approval ids fenced).
                    let services = takeover.lock().unwrap_or_else(PoisonError::into_inner);
                    if let Some(svc) = services.get(replica as usize) {
                        for s in 0..shards {
                            let _ = svc.kill_shard(s);
                        }
                    }
                })
            };
            let observer = {
                let rec = recorder.clone();
                Arc::new(move |e: HistoryEvent| rec.push(e))
            };
            QuorumRuntime::spawn(
                cfg,
                plan.clone(),
                Arc::new(truth.clone()),
                QuorumHooks {
                    on_acquire: Some(on_acquire),
                    observer: Some(observer),
                },
            )
        });
        let fence_of = |replica: usize| RtFence {
            replica,
            gate: quorum.as_ref().map(|q| q.gate(replica)),
        };

        // §5 MaxTerm recovery reads and writes one slot of the store.
        let persist_max_term: Arc<dyn Fn(Dur) + Send + Sync> = Arc::new({
            let backend = backend.clone();
            move |d: Dur| {
                lock_backend(&backend)
                    .store
                    .put_slot("max_lease_term", d.as_nanos().to_le_bytes().to_vec());
            }
        });
        let recover_max_term: Arc<dyn Fn() -> Option<Dur> + Send + Sync> = Arc::new({
            let backend = backend.clone();
            move || {
                lock_backend(&backend)
                    .store
                    .get_slot("max_lease_term")
                    .and_then(|b| <[u8; 8]>::try_from(b).ok())
                    .map(|b| Dur(u64::from_le_bytes(b)))
            }
        });

        // One sharded lease service per replica, on the replica's own
        // (possibly skewed) clock — the one its gate reads too — writing
        // through its (under a quorum, gated) view of the shared store.
        let term = self.term;
        let installed_tick = self.installed_tick;
        let installed_group: Vec<ClientId> = (0..self.clients).map(ClientId).collect();
        let services: Vec<LeaseService<Res, Bytes>> = (0..replicas)
            .map(|r| {
                let fence = fence_of(r);
                let clock = host_clock(plan.replica_clock(r));
                let gate = fence.gate.clone();
                let backend = backend.clone();
                let installed_resources = installed_resources.clone();
                let installed_group = installed_group.clone();
                LeaseService::spawn(
                    SvcConfig {
                        shards,
                        mailbox,
                        admission: self.admission,
                        slow_shard: plan.slow_shard,
                        ..base_cfg
                    },
                    Arc::new(RtSink {
                        egress: egress.clone(),
                        cuts: cuts.clone(),
                        chaos: chaos_net.clone(),
                        fence,
                        delay: Arc::clone(&delay),
                    }),
                    SvcHooks {
                        persist_max_term: Some(persist_max_term.clone()),
                        recover_max_term: Some(recover_max_term.clone()),
                        on_restart: None,
                        clock: Some(clock),
                    },
                    move |i| {
                        let mut sc: ServerConfig<Res> = ServerConfig::fixed(term);
                        // §5: a restarted server also refuses *grants* until
                        // the recovery window passes, not just writes.
                        sc.defer_grants_in_recovery = true;
                        let mine: Vec<Res> = installed_resources
                            .iter()
                            .copied()
                            .filter(|r| shard_of(r, shards) == i)
                            .collect();
                        if let Some((tick, iterm)) = installed_tick {
                            if !mine.is_empty() {
                                sc.installed_tick = tick;
                                sc.installed_term = iterm;
                            }
                        }
                        let mut server: LeaseServer<Res, Bytes> = LeaseServer::new(sc);
                        if installed_tick.is_some() {
                            for r in &mine {
                                server.add_installed(*r);
                            }
                            server.set_installed_group(installed_group.clone());
                        }
                        let inner = SharedBackend(backend.clone());
                        let storage: Box<dyn Storage<Res, Bytes> + Send> = match &gate {
                            Some(gate) => Box::new(GatedBackend {
                                inner,
                                gate: Arc::clone(gate),
                            }),
                            None => Box::new(inner),
                        };
                        (server, storage)
                    },
                )
            })
            .collect();
        *takeover.lock().unwrap_or_else(PoisonError::into_inner) =
            services.iter().map(|s| s.handle()).collect();

        // Every producer gets its own router — its own handle clone, so
        // its own SPSC lane, per shard per replica: this one stays with
        // the system (admin writes, kills), and each client's port, the
        // sleeper and the kill driver clone theirs from it.
        let router = Router::new(
            services
                .iter()
                .enumerate()
                .map(|(r, s)| (s.handle(), fence_of(r))),
            chaos_net,
        );
        if self.chaos.is_some() {
            // What chaos delays leaves the sleeper through the same core,
            // resolving the serving replica when it is due; a lane too
            // full to take it drops it, like any other datagram chaos
            // loses.
            delay.route_submissions(router.clone());
        }

        // The kill driver replays the plan's shard and replica kills, on
        // one timeline, at their plan-relative instants on the true clock.
        let mut threads: Vec<JoinHandle<()>> = Vec::new();
        let mut chaos_stop = None;
        let mut kills: Vec<(Dur, Crash)> = plan
            .kills
            .iter()
            .map(|&(at, s)| (at, Crash::Shard(s)))
            .chain(
                plan.replica_kills
                    .iter()
                    .map(|&(at, r)| (at, Crash::Replica(r))),
            )
            .collect();
        if !kills.is_empty() {
            kills.sort_by_key(|(at, _)| *at);
            let (stop_tx, stop_rx) = sync_channel::<()>(0);
            chaos_stop = Some(stop_tx);
            let router = router.clone();
            let nodes = quorum.as_ref().map(QuorumRuntime::kill_handle);
            let truth = truth.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("lease-chaos".into())
                    .spawn(move || {
                        for (at, what) in kills {
                            let elapsed = truth.now().saturating_since(Time::ZERO);
                            let wait = std::time::Duration::from(at.saturating_sub(elapsed));
                            match stop_rx.recv_timeout(wait) {
                                Err(RecvTimeoutError::Timeout) => {
                                    crash(&router, nodes.as_ref(), what)
                                }
                                _ => return, // Shutdown.
                            }
                        }
                    })
                    .expect("spawn chaos driver"),
            );
        }

        // Each client owns its port — its own router — used only under
        // that client's driver lock: one producer at a time, whichever
        // thread it is.
        let port_cuts = Arc::new(cuts.clone());
        let client_cfg = ClientConfig {
            epsilon: self.epsilon,
            retry_interval: self.retry_interval,
            max_retries: self.max_retries,
            backoff: self.backoff,
            op_deadline: self.op_deadline,
            retry_budget: self.retry_budget,
            ..ClientConfig::default()
        };
        let mut client_handles = Vec::new();
        for i in 0..self.clients as usize {
            let (handle, thread) = spawn_client(
                ClientId(i as u32),
                client_cfg.clone(),
                egress.inbox(i),
                Box::new(RtPort {
                    router: router.clone(),
                    cuts: Arc::clone(&port_cuts),
                    delay: Arc::clone(&delay),
                }),
                host_clock(plan.client_clock(i)),
                recorder.clone(),
            );
            client_handles.push(handle);
            threads.push(thread);
        }

        RtSystem {
            services,
            router,
            quorum,
            backend,
            recorder,
            client_handles,
            cuts,
            names,
            dirs,
            threads,
            chaos_stop,
        }
    }
}

/// A crash to inject into the server side.
#[derive(Clone, Copy)]
enum Crash {
    /// One shard's worker — on every replica: a non-grantor's restart is
    /// invisible to clients.
    Shard(usize),
    /// A whole host: every service shard of one replica and, under a
    /// quorum, its grantor node with them.
    Replica(usize),
}

/// Crash injection, for the plan's kill driver and for
/// [`RtSystem::kill_shard`] / [`RtSystem::kill_replica`] alike, each
/// through its own `router`; `nodes` are the quorum's, if there is one.
fn crash(router: &Router, nodes: Option<&KillHandle>, what: Crash) {
    match what {
        Crash::Shard(s) => {
            for r in 0..router.replicas() {
                let _ = router.svc(r).kill_shard(s);
            }
        }
        Crash::Replica(r) if r < router.replicas() => {
            if let Some(nodes) = nodes {
                nodes.kill(r);
            }
            let svc = router.svc(r);
            for s in 0..svc.shards() {
                let _ = svc.kill_shard(s);
            }
        }
        Crash::Replica(_) => {} // The plan names a host this system lacks.
    }
}

/// A running real-time lease system: one server — or, under a quorum, N
/// grantor replicas — of sharded workers under the `lease-svc` runtime
/// over one durable store, M client threads, and (optionally) a kill
/// driver replaying a seeded fault plan.
pub struct RtSystem {
    services: Vec<LeaseService<Res, Bytes>>,
    /// The system's own producer side: admin writes and kills.
    router: Router,
    quorum: Option<QuorumRuntime>,
    backend: Arc<Mutex<StoreBackend>>,
    recorder: Arc<Recorder>,
    client_handles: Vec<RtClientHandle>,
    cuts: Vec<Arc<AtomicBool>>,
    names: HashMap<String, Res>,
    dirs: HashMap<String, Res>,
    threads: Vec<JoinHandle<()>>,
    chaos_stop: Option<SyncSender<()>>,
}

impl RtSystem {
    /// Starts building a system.
    pub fn builder() -> RtSystemBuilder {
        RtSystemBuilder {
            term: Dur::from_millis(500),
            epsilon: Dur::from_millis(10),
            retry_interval: Dur::from_millis(50),
            max_retries: 40,
            backoff: Backoff::default(),
            op_deadline: None,
            retry_budget: None,
            admission: None,
            mailbox: None,
            clients: 1,
            shards: 1,
            quorum: None,
            files: Vec::new(),
            installed_tick: None,
            chaos: None,
        }
    }

    /// Resolves a pre-created path to its resource id.
    pub fn lookup(&self, path: &str) -> Option<Res> {
        self.names.get(path).copied()
    }

    /// Resolves a pre-created directory path to its (leasable) resource.
    pub fn dir(&self, path: &str) -> Option<Res> {
        self.dirs.get(path).copied()
    }

    /// A write originating at the server, handed to the replica that is
    /// serving. Like a client's message it is dropped when none is (no
    /// grantor in sight) — and unlike a client, nothing retransmits it.
    fn admin_write(&self, resource: Res, data: Bytes) {
        if let Some(i) = self.router.serving() {
            let _ = self.router.svc(i).local_write(resource, data);
        }
    }

    /// Renames an entry within a directory: a write to the name binding,
    /// run through the full lease protocol (§2: "renaming the file would
    /// constitute a write").
    pub fn rename(&self, dir: Res, from: &str, to: &str) {
        let op = crate::naming::NameOp::Rename {
            from: from.into(),
            to: to.into(),
        };
        self.admin_write(dir, op.encode());
    }

    /// Removes a file entry from a directory (a name-binding write).
    pub fn unlink(&self, dir: Res, name: &str) {
        let op = crate::naming::NameOp::Unlink { name: name.into() };
        self.admin_write(dir, op.encode());
    }

    /// Creates an empty regular file in a directory (a name-binding write).
    pub fn create(&self, dir: Res, name: &str) {
        let op = crate::naming::NameOp::Create { name: name.into() };
        self.admin_write(dir, op.encode());
    }

    /// Performs an administrative write (installing a new version, §4).
    pub fn install(&self, resource: Res, data: impl Into<Bytes>) {
        self.admin_write(resource, data.into());
    }

    /// The handle for client `i`.
    pub fn client(&self, i: usize) -> RtClientHandle {
        self.client_handles[i].clone()
    }

    /// Cuts (or restores) all traffic to and from client `i` — the
    /// partition / crashed-client fault.
    pub fn set_cut(&self, i: usize, cut: bool) {
        self.cuts[i].store(cut, Ordering::Relaxed);
    }

    /// Number of server replicas: 1 unless a quorum was configured.
    pub fn replicas(&self) -> usize {
        self.services.len()
    }

    /// The replica currently entitled to grant, if any is visible. The
    /// server of a system without a quorum always is.
    pub fn current_grantor(&self) -> Option<usize> {
        match &self.quorum {
            Some(q) => q.current_grantor().map(|(r, _)| r as usize),
            None => Some(0),
        }
    }

    /// Kills shard `shard`'s worker (a supervised crash) on every
    /// replica: it restarts through §5 MaxTerm recovery, refusing grants
    /// and deferring writes for the persisted maximum term.
    pub fn kill_shard(&self, shard: usize) {
        silence_injected_kills();
        crash(&self.router, None, Crash::Shard(shard));
    }

    /// Crash-restarts replica `i` as one host failure: every service
    /// shard together — the paper's whole-server crash — and, under a
    /// quorum, the grantor node in front of them (volatile state lost,
    /// MaxTerm silence).
    pub fn kill_replica(&self, i: usize) {
        silence_injected_kills();
        let nodes = self.quorum.as_ref().map(QuorumRuntime::kill_handle);
        crash(&self.router, nodes.as_ref(), Crash::Replica(i));
    }

    /// Statistics snapshot of the serving replica, merged across its
    /// shards. `None` when no replica is serving, or a shard of the one
    /// that is is down or unresponsive.
    pub fn server_stats(&self) -> Option<ServerStats> {
        let serving = self.router.serving()?;
        let stats = self.services[serving].stats().ok()?;
        Some(ServerStats {
            counters: stats.counters,
            writes_committed: lock_backend(&self.backend).store.writes_committed(),
            shard_restarts: stats.restarts,
        })
    }

    /// Everything the perfect observer saw so far: operation starts and
    /// completions from every client, commits from the store and (under a
    /// quorum) grantor claims, all on one true-time axis. Feed it to
    /// `lease_faults::check_history`.
    pub fn history(&self) -> History {
        self.recorder.snapshot()
    }

    /// Stops every thread and waits for them.
    pub fn shutdown(mut self) {
        self.chaos_stop.take(); // Dropping it stops the kill driver.
        for h in &self.client_handles {
            h.close();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        if let Some(q) = self.quorum.take() {
            q.shutdown();
        }
        for s in self.services.drain(..) {
            s.shutdown();
        }
    }
}
