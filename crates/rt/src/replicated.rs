//! The replicated deployment: N grantor replicas instead of *the* server.
//!
//! The paper's single lease server is the availability ceiling of the
//! whole design — §5 rides out every fault by waiting for it to come
//! back. This topology removes the ceiling: each replica runs its own
//! sharded lease service over the one durable store, a `lease-quorum`
//! grantor election decides which replica may grant, and clients fail
//! over to whichever replica currently holds the grantor lease.
//!
//! The safety chain, layer by layer:
//!
//! * **Ingress fencing** — [`ReplicaPort`](self) submits a client message
//!   only to a replica whose [`GrantorGate`] is open, rotating through
//!   the candidates at most once per submission. With no grantor visible
//!   the message is dropped and the client's retransmission backoff
//!   provides the retry schedule (failover is *free*: the next
//!   retransmission simply lands on the new grantor).
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
//!   ids — the exact machinery single-server restart already uses, reused
//!   for succession.
//!
//! Lease state is never replicated or persisted: the old grantor's grants
//! die by expiry, exactly as §5 argues for crash recovery.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use bytes::Bytes;
use crossbeam::channel::{bounded, Sender};
use lease_clock::{Clock, Dur, ModelClock, Time, WallClock};
use lease_core::{
    Backoff, ClientConfig, ClientId, LeaseServer, ServerConfig, Storage, ToServer, Version,
};
use lease_quorum::{GrantorGate, KillHandle, QuorumConfig, QuorumHooks, QuorumRuntime};
use lease_store::{DirId, FileKind, Perms, Store};
use lease_svc::{
    chaos::silence_injected_kills, chaos::Delivery, Egress, FaultPlan, LeaseService, SvcConfig,
    SvcError, SvcHandle, SvcHooks,
};
use lease_vsys::{History, HistoryEvent};

use crate::client::{spawn_client, RtClientHandle};
use crate::record::Recorder;
use crate::server::{
    lock_backend, ChaosNet, DelayPool, Delayed, Port, PortVerdict, Res, RtFence, RtSink,
    SharedBackend, StoreBackend,
};

/// The service registry the takeover hook reads: one handle slot per
/// replica, filled once the services spawn.
type ServiceSlots = Arc<Mutex<Vec<Option<SvcHandle<Res, Bytes>>>>>;

/// Storage wrapper that refuses commits while the replica's gate is
/// closed: a stale grantor's deferred write must not mutate the shared
/// store after its lease lapsed. A refused write returns the current
/// version; the reply built from it is dropped by the egress fence
/// anyway, so the client retries against the live grantor.
struct GatedBackend {
    inner: SharedBackend,
    gate: Arc<GrantorGate>,
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

/// One replica as the failover port sees it.
///
/// The handle sits behind a mutex because the failover routing core is
/// *shared* state — the current-grantor hint is a property of the whole
/// cluster, and the chaos-delay sleeper re-resolves it at delivery time
/// — so every client submits through the same lanes. A lock per
/// submission is the price; the replicated topology is the
/// fault-tolerance subsystem, not the throughput path, and keeps it.
struct ReplicaTarget {
    svc: Mutex<SvcHandle<Res, Bytes>>,
    gate: Arc<GrantorGate>,
}

/// The routing core of the failover port, shared with the chaos-delay
/// sleeper.
struct PortState {
    replicas: Vec<ReplicaTarget>,
    /// The last replica that accepted traffic. Shared across clients:
    /// grantorship is a property of the cluster, not of one cache.
    current: AtomicUsize,
    chaos: Option<Arc<ChaosNet>>,
}

impl PortState {
    /// Routes one message to the first willing replica, starting from the
    /// last success; at most one full rotation.
    fn route(
        &self,
        from: ClientId,
        msg: ToServer<Res, Bytes>,
        deadline: Option<Time>,
    ) -> PortVerdict {
        let n = self.replicas.len();
        let start = self.current.load(Ordering::Relaxed);
        for k in 0..n {
            let i = (start + k) % n;
            let r = &self.replicas[i];
            // A closed gate is a refusal (not the grantor); a cut replica
            // is unreachable; a dead shard fails the send. All three move
            // on to the next candidate.
            if !r.gate.is_open() {
                continue;
            }
            if self.chaos.as_ref().is_some_and(|c| c.replica_cut(i)) {
                continue;
            }
            match r
                .svc
                .lock()
                .unwrap()
                .try_send_at(from, msg.clone(), deadline)
            {
                Ok(()) => {
                    self.current.store(i, Ordering::Relaxed);
                    return PortVerdict::Sent;
                }
                Err(SvcError::Backpressure) => {
                    self.current.store(i, Ordering::Relaxed);
                    return PortVerdict::RetryAfter(msg);
                }
                Err(_) => continue,
            }
        }
        PortVerdict::Dropped
    }
}

/// The client-side failover port of the replicated topology. Cloned
/// per client thread (every field is a shared `Arc` — the routing core
/// really is cluster-wide state).
#[derive(Clone)]
pub(crate) struct ReplicaPort {
    state: Arc<PortState>,
    cuts: Arc<Vec<Arc<AtomicBool>>>,
    delay: Arc<DelayPool>,
}

impl Port for ReplicaPort {
    fn send(
        &self,
        from: ClientId,
        msg: ToServer<Res, Bytes>,
        deadline: Option<Time>,
    ) -> PortVerdict {
        if self.cuts[from.0 as usize].load(Ordering::Relaxed) {
            return PortVerdict::Dropped;
        }
        if let Some(chaos) = &self.state.chaos {
            if chaos.cut(from.0 as usize) {
                return PortVerdict::Dropped;
            }
            // The uplink dice roll once per submission, not per candidate:
            // the fault lives on the client's link, not on the rotation.
            match chaos.c2s(from.0 as usize) {
                Delivery::Drop => return PortVerdict::Dropped,
                Delivery::Deliver { delay, copies } => {
                    if !delay.is_zero() || copies != 1 {
                        // Late (or duplicated) submissions re-resolve the
                        // grantor at delivery time, on the sleeper.
                        let held = Delayed::Submission(from, msg, deadline);
                        self.delay.schedule(delay, held, copies);
                        return PortVerdict::Sent;
                    }
                }
            }
        }
        self.state.route(from, msg, deadline)
    }
}

/// Builder for a [`ReplicatedSystem`].
pub struct ReplicatedSystemBuilder {
    term: Dur,
    epsilon: Dur,
    retry_interval: Dur,
    max_retries: u32,
    backoff: Backoff,
    op_deadline: Option<Dur>,
    clients: u32,
    shards: usize,
    quorum: QuorumConfig,
    files: Vec<(String, Bytes)>,
    chaos: Option<FaultPlan>,
}

impl ReplicatedSystemBuilder {
    /// The file-lease term every replica's service grants.
    pub fn term(mut self, term: Dur) -> Self {
        self.term = term;
        self
    }

    /// The client's clock allowance ε.
    pub fn epsilon(mut self, epsilon: Dur) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Client retransmission interval (the backoff base) — also the
    /// failover probe cadence while no grantor is reachable.
    pub fn retry_interval(mut self, d: Dur) -> Self {
        self.retry_interval = d;
        self
    }

    /// Client retry budget.
    pub fn max_retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    /// Retransmission backoff policy.
    pub fn backoff(mut self, b: Backoff) -> Self {
        self.backoff = b;
        self
    }

    /// Per-operation deadline.
    pub fn op_deadline(mut self, d: Dur) -> Self {
        self.op_deadline = Some(d);
        self
    }

    /// Number of client caches.
    pub fn clients(mut self, n: u32) -> Self {
        self.clients = n;
        self
    }

    /// Lease-service shard count *per replica* (default 1).
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n.max(1);
        self
    }

    /// The grantor-quorum tuning; `quorum.replicas` is the replica count.
    pub fn quorum(mut self, q: QuorumConfig) -> Self {
        self.quorum = q;
        self
    }

    /// Pre-creates a file (path must be absolute; directories are made).
    pub fn file(mut self, path: &str, data: impl Into<Bytes>) -> Self {
        self.files.push((path.to_owned(), data.into()));
        self
    }

    /// Installs a seeded chaos plan. Replica-level faults (`kill_replica`,
    /// `cut_replica`, `with_replica_clock`) apply to grantor replicas and
    /// their services; client-level faults behave as in the single-server
    /// topology.
    pub fn chaos(mut self, plan: FaultPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Builds and starts every thread: the quorum, one service per
    /// replica, the clients, and (if chaos is configured) the fault
    /// driver.
    pub fn start(self) -> ReplicatedSystem {
        let truth = WallClock::new();
        let recorder = Arc::new(Recorder::new(truth.clone()));
        // Takeovers crash-restart shards as a matter of course here, so
        // the injected-kill panics are always silenced.
        silence_injected_kills();
        let replicas = self.quorum.replicas as usize;
        let plan = self.chaos.clone().unwrap_or_else(|| FaultPlan::new(0));

        // The one durable store, pre-populated.
        let mut store = Store::new();
        let mut names = HashMap::new();
        let mut dirs: HashMap<String, u64> = HashMap::new();
        dirs.insert("/".to_string(), DirId::ROOT.0);
        for (path, data) in &self.files {
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
            let id = store
                .create_file(dir, name, FileKind::Regular, Perms::rw(), truth.now())
                .unwrap();
            store.write(id, data.clone(), truth.now()).unwrap();
            names.insert(path.clone(), id.0);
        }
        let mut raw_backend = StoreBackend::new(store, truth.clone());
        raw_backend.recorder = Some(recorder.clone());
        let backend = Arc::new(Mutex::new(raw_backend));
        {
            // Seed the oracle's commit timeline (see RtSystemBuilder).
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

        // The per-client reply lanes, shared by every replica's sink:
        // each replica's shard workers register their own lanes into the
        // client's one inbox, behind that replica's fence.
        let egress: Egress<Res, Bytes> =
            Egress::new(self.clients as usize, SvcConfig::default().mailbox);
        let cuts: Vec<Arc<AtomicBool>> = (0..self.clients)
            .map(|_| Arc::new(AtomicBool::new(false)))
            .collect();
        let delay = Arc::new(DelayPool::new(&egress));
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
        // has no stale lease state to recover from.
        let services: ServiceSlots = Arc::new(Mutex::new(vec![None; replicas]));
        let shards = self.shards;
        let on_acquire = {
            let services = Arc::clone(&services);
            Arc::new(move |replica: u32, fresh: bool| {
                if !fresh {
                    return;
                }
                // A fresh grantor session cannot trust any file-lease
                // state its service accumulated earlier — and knows
                // nothing of what the previous grantor granted. Crash-
                // restart every shard so it re-enters §5 MaxTerm recovery:
                // grants deferred, writes held, epoch bumped (stale
                // write-approval ids fenced).
                let svc = services.lock().unwrap()[replica as usize].clone();
                if let Some(svc) = svc {
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
        let quorum = QuorumRuntime::spawn(
            self.quorum.clone(),
            plan.clone(),
            Arc::new(truth.clone()),
            QuorumHooks {
                on_acquire: Some(on_acquire),
                observer: Some(observer),
            },
        );
        let kill = quorum.kill_handle();

        // One sharded lease service per replica, on the replica's own
        // (possibly skewed) clock, writing through its gated view of the
        // shared store.
        let mut service_objs = Vec::with_capacity(replicas);
        let mut service_handles = Vec::with_capacity(replicas);
        for r in 0..replicas {
            let gate = quorum.gate(r);
            let replica_clock: Arc<dyn Clock> = match plan.replica_clock(r) {
                Some(model) => Arc::new(ModelClock::new(truth.clone(), model)),
                None => Arc::new(truth.clone()),
            };
            let hooks = SvcHooks {
                persist_max_term: Some(Arc::new({
                    let backend = backend.clone();
                    move |d: Dur| {
                        lock_backend(&backend)
                            .store
                            .put_slot("max_lease_term", d.as_nanos().to_le_bytes().to_vec());
                    }
                })),
                recover_max_term: Some(Arc::new({
                    let backend = backend.clone();
                    move || {
                        lock_backend(&backend)
                            .store
                            .get_slot("max_lease_term")
                            .and_then(|b| <[u8; 8]>::try_from(b).ok())
                            .map(|b| Dur(u64::from_le_bytes(b)))
                    }
                })),
                on_restart: None,
                clock: Some(replica_clock),
            };
            let sink = Arc::new(RtSink {
                egress: egress.clone(),
                cuts: cuts.clone(),
                chaos: chaos_net.clone(),
                fence: Some(RtFence {
                    replica: r,
                    gate: Arc::clone(&gate),
                }),
                delay: Arc::clone(&delay),
            });
            let term = self.term;
            let factory_backend = backend.clone();
            let factory_gate = Arc::clone(&gate);
            let service = LeaseService::spawn(
                SvcConfig {
                    shards,
                    ..SvcConfig::default()
                },
                sink,
                hooks,
                move |_| {
                    let mut sc: ServerConfig<Res> = ServerConfig::fixed(term);
                    sc.defer_grants_in_recovery = true;
                    let server: LeaseServer<Res, Bytes> = LeaseServer::new(sc);
                    (
                        server,
                        Box::new(GatedBackend {
                            inner: SharedBackend(factory_backend.clone()),
                            gate: Arc::clone(&factory_gate),
                        }) as Box<dyn Storage<Res, Bytes> + Send>,
                    )
                },
            );
            service_handles.push(service.handle());
            service_objs.push(service);
        }
        *services.lock().unwrap() = service_handles.iter().cloned().map(Some).collect();

        // The chaos driver replays replica kills: quorum node and service
        // shards die together — a replica kill is a whole-host crash.
        let mut threads: Vec<JoinHandle<()>> = Vec::new();
        let mut chaos_stop = None;
        if !plan.replica_kills.is_empty() {
            let mut kills = plan.replica_kills.clone();
            kills.sort_by_key(|(at, _)| *at);
            let (stop_tx, stop_rx) = bounded::<()>(0);
            chaos_stop = Some(stop_tx);
            let kill = kill.clone();
            let handles = service_handles.clone();
            let truth2 = truth.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("lease-replica-chaos".into())
                    .spawn(move || {
                        for (at, replica) in kills {
                            let elapsed = truth2.now().saturating_since(Time::ZERO);
                            let wait = std::time::Duration::from(at.saturating_sub(elapsed));
                            match stop_rx.recv_timeout(wait) {
                                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                                    if replica < handles.len() {
                                        kill.kill(replica);
                                        for s in 0..shards {
                                            let _ = handles[replica].kill_shard(s);
                                        }
                                    }
                                }
                                _ => return, // Shutdown.
                            }
                        }
                    })
                    .expect("spawn replica chaos driver"),
            );
        }

        // Clients, submitting through the failover port; the sleeper
        // routes what chaos delayed through the same core.
        let state = Arc::new(PortState {
            replicas: service_handles
                .iter()
                .enumerate()
                .map(|(r, svc)| ReplicaTarget {
                    svc: Mutex::new(svc.clone()),
                    gate: quorum.gate(r),
                })
                .collect(),
            current: AtomicUsize::new(0),
            chaos: chaos_net,
        });
        delay.route_submissions(Box::new({
            let state = Arc::clone(&state);
            move |from, msg, deadline| {
                let _ = state.route(from, msg, deadline);
            }
        }));
        let port = ReplicaPort {
            state,
            cuts: Arc::new(cuts.clone()),
            delay,
        };
        let client_cfg = ClientConfig {
            epsilon: self.epsilon,
            retry_interval: self.retry_interval,
            max_retries: self.max_retries,
            backoff: self.backoff,
            op_deadline: self.op_deadline,
            ..ClientConfig::default()
        };
        let mut client_handles = Vec::new();
        for i in 0..self.clients as usize {
            let client_clock: Arc<dyn Clock> =
                match self.chaos.as_ref().and_then(|p| p.client_clock(i)) {
                    Some(model) => Arc::new(ModelClock::new(truth.clone(), model)),
                    None => Arc::new(truth.clone()),
                };
            let (handle, thread) = spawn_client(
                ClientId(i as u32),
                client_cfg.clone(),
                None,
                egress.inbox(i),
                Box::new(port.clone()),
                client_clock,
                recorder.clone(),
            );
            client_handles.push(handle);
            threads.push(thread);
        }

        ReplicatedSystem {
            services: service_objs,
            service_handles,
            quorum: Some(quorum),
            kill,
            shards,
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

/// A running replicated lease system: a grantor quorum, one sharded lease
/// service per replica over a shared durable store, and client caches
/// that fail over to the current grantor.
pub struct ReplicatedSystem {
    services: Vec<LeaseService<Res, Bytes>>,
    service_handles: Vec<SvcHandle<Res, Bytes>>,
    quorum: Option<QuorumRuntime>,
    kill: KillHandle,
    shards: usize,
    recorder: Arc<Recorder>,
    client_handles: Vec<RtClientHandle>,
    cuts: Vec<Arc<AtomicBool>>,
    names: HashMap<String, Res>,
    dirs: HashMap<String, Res>,
    threads: Vec<JoinHandle<()>>,
    chaos_stop: Option<Sender<()>>,
}

impl ReplicatedSystem {
    /// Starts building a system (3 replicas by default).
    pub fn builder() -> ReplicatedSystemBuilder {
        ReplicatedSystemBuilder {
            term: Dur::from_millis(500),
            epsilon: Dur::from_millis(10),
            retry_interval: Dur::from_millis(50),
            max_retries: 40,
            backoff: Backoff::default(),
            op_deadline: None,
            clients: 1,
            shards: 1,
            quorum: QuorumConfig::default(),
            files: Vec::new(),
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

    /// The handle for client `i`.
    pub fn client(&self, i: usize) -> RtClientHandle {
        self.client_handles[i].clone()
    }

    /// Number of grantor replicas.
    pub fn replicas(&self) -> usize {
        self.service_handles.len()
    }

    /// The replica currently claiming grantorship, if any is visible.
    pub fn current_grantor(&self) -> Option<usize> {
        self.quorum
            .as_ref()
            .and_then(|q| q.current_grantor())
            .map(|(r, _)| r as usize)
    }

    /// Cuts (or restores) all traffic to and from client `i`.
    pub fn set_cut(&self, i: usize, cut: bool) {
        self.cuts[i].store(cut, Ordering::Relaxed);
    }

    /// Crash-restarts replica `i` — its grantor node (volatile state
    /// lost, MaxTerm silence) and every service shard it fronts, together,
    /// as one host failure.
    pub fn kill_replica(&self, i: usize) {
        self.kill.kill(i);
        for s in 0..self.shards {
            let _ = self.service_handles[i].kill_shard(s);
        }
    }

    /// Everything the perfect observer saw: client operations, store
    /// commits, and grantor claims, on one true-time axis. Feed it to
    /// `lease_faults::check_history`.
    pub fn history(&self) -> History {
        self.recorder.snapshot()
    }

    /// Stops every thread and waits for them.
    pub fn shutdown(mut self) {
        self.chaos_stop.take(); // Dropping it stops the chaos driver.
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
