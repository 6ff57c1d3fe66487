//! Assembling a real-time lease system on the `lease-svc` runtime.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use bytes::Bytes;
use crossbeam::channel::{bounded, Sender};
use lease_clock::{Clock, Dur, ModelClock, Time, WallClock};
use lease_core::{
    Backoff, ClientConfig, ClientId, LeaseServer, RetryBudget, ServerConfig, Storage,
    TermController,
};
use lease_store::{DirId, FileKind, Perms, Store};
use lease_svc::{
    chaos::silence_injected_kills, shard_of, AdmissionControl, Egress, FaultPlan, LeaseService,
    SvcConfig, SvcHandle, SvcHooks,
};
use lease_vsys::{History, HistoryEvent};

use crate::client::{spawn_client, RtClientHandle};
use crate::record::Recorder;
use crate::server::{
    lock_backend, ChaosNet, DelayPool, Res, RtSink, ServerPort, ServerStats, SharedBackend,
    StoreBackend,
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
    breaker: Option<(u32, Dur)>,
    admission: Option<AdmissionControl>,
    overload: Option<TermController>,
    mailbox: Option<usize>,
    clients: u32,
    shards: usize,
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

    /// Client retransmission interval (the backoff base).
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

    /// Per-client circuit breaker: after `threshold` consecutive overload
    /// signals (backpressure, `Shed`) the client stops submitting for
    /// `cooldown`, then probes half-open.
    pub fn breaker(mut self, threshold: u32, cooldown: Dur) -> Self {
        self.breaker = Some((threshold, cooldown));
        self
    }

    /// Server-side admission control: shard occupancy watermarks at which
    /// cold fetches are shed with a `retry_after` hint.
    pub fn admission(mut self, a: AdmissionControl) -> Self {
        self.admission = Some(a);
        self
    }

    /// Server-side adaptive term degradation: every shard runs this
    /// controller, shortening granted terms as pressure rises.
    pub fn overload_control(mut self, c: TermController) -> Self {
        self.overload = Some(c);
        self
    }

    /// Per-shard mailbox capacity — the bound admission control's
    /// occupancy watermarks are measured against (default 1024).
    pub fn mailbox(mut self, n: usize) -> Self {
        self.mailbox = Some(n.max(1));
        self
    }

    /// Number of client caches.
    pub fn clients(mut self, n: u32) -> Self {
        self.clients = n;
        self
    }

    /// Lease-service shard count (default 1). Resources are partitioned
    /// by file-id hash; the protocol is per-datum, so any count preserves
    /// semantics.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n.max(1);
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

    /// Installs a seeded chaos plan: shard kills, message drop / delay /
    /// duplication, cut windows, and skewed clocks, all replayed
    /// deterministically from the plan's seed.
    pub fn chaos(mut self, plan: FaultPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Builds and starts every thread.
    pub fn start(self) -> RtSystem {
        // One true clock: history timestamps, chaos schedules and every
        // host's (possibly skewed) model clock all derive from it.
        let truth = WallClock::new();
        let recorder = Arc::new(Recorder::new(truth.clone()));
        if self.chaos.is_some() {
            silence_injected_kills();
        }

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

        // The reply path first: the service's sink needs it. Each client
        // gets an inbox of ring lanes whose doorbell is the one thing its
        // thread parks on, and a cut switch both directions consult.
        let base_cfg = SvcConfig::default();
        let mailbox = self.mailbox.unwrap_or(base_cfg.mailbox);
        let egress: Egress<Res, Bytes> = Egress::new(self.clients as usize, mailbox);
        let cuts: Vec<Arc<AtomicBool>> = (0..self.clients)
            .map(|_| Arc::new(AtomicBool::new(false)))
            .collect();
        let delay = Arc::new(DelayPool::new(&egress));

        // The sharded lease service, every shard sharing the one durable
        // backend (resources are partitioned, so writers never collide).
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
        let server_clock: Arc<dyn Clock> =
            match self.chaos.as_ref().and_then(|p| p.server_clock.clone()) {
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
            clock: Some(server_clock),
        };
        let shards = self.shards;
        let term = self.term;
        let installed_tick = self.installed_tick;
        let installed_group: Vec<ClientId> = (0..self.clients).map(ClientId).collect();
        let factory_backend = backend.clone();
        let overload = self.overload;
        let service = LeaseService::spawn(
            SvcConfig {
                shards,
                mailbox,
                admission: self.admission,
                slow_shard: self.chaos.as_ref().and_then(|p| p.slow_shard),
                ..base_cfg
            },
            Arc::new(RtSink {
                egress: egress.clone(),
                cuts: cuts.clone(),
                chaos: chaos_net.clone(),
                fence: None,
                delay: Arc::clone(&delay),
            }),
            hooks,
            move |i| {
                let mut sc: ServerConfig<Res> = ServerConfig::fixed(term);
                // §5: a restarted server also refuses *grants* until the
                // recovery window passes, not just writes.
                sc.defer_grants_in_recovery = true;
                sc.overload = overload;
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
                (
                    server,
                    Box::new(SharedBackend(factory_backend.clone()))
                        as Box<dyn Storage<Res, Bytes> + Send>,
                )
            },
        );
        let svc = service.handle();
        if self.chaos.is_some() {
            // Chaos-delayed submissions leave the sleeper through its one
            // handle clone; a lane too full to take one drops it, like
            // any other datagram chaos loses.
            let svc = svc.clone();
            delay.route_submissions(Box::new(move |from, msg, deadline| {
                let _ = svc.try_send_at(from, msg, deadline);
            }));
        }

        // The chaos driver replays the plan's shard kills at their
        // plan-relative instants on the true clock.
        let mut threads: Vec<JoinHandle<()>> = Vec::new();
        let mut chaos_stop = None;
        if let Some(plan) = &self.chaos {
            if !plan.kills.is_empty() {
                let mut kills = plan.kills.clone();
                kills.sort_by_key(|(at, _)| *at);
                let (stop_tx, stop_rx) = bounded::<()>(0);
                chaos_stop = Some(stop_tx);
                let svc = svc.clone();
                let truth = truth.clone();
                threads.push(
                    std::thread::Builder::new()
                        .name("lease-chaos".into())
                        .spawn(move || {
                            for (at, shard) in kills {
                                let elapsed = truth.now().saturating_since(Time::ZERO);
                                let wait = std::time::Duration::from(at.saturating_sub(elapsed));
                                match stop_rx.recv_timeout(wait) {
                                    Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                                        let _ = svc.kill_shard(shard);
                                    }
                                    _ => return, // Shutdown.
                                }
                            }
                        })
                        .expect("spawn chaos driver"),
                );
            }
        }

        // Clients submit through the service handle. Each client gets
        // its own port (and so its own handle clone — one SPSC lane per
        // shard), used only under that client's driver lock: one
        // producer at a time, whichever thread it is.
        let port = ServerPort {
            svc: svc.clone(),
            cuts: Arc::new(cuts.clone()),
            chaos: chaos_net,
            delay,
        };
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
            let client_clock: Arc<dyn Clock> =
                match self.chaos.as_ref().and_then(|p| p.client_clock(i)) {
                    Some(model) => Arc::new(ModelClock::new(truth.clone(), model)),
                    None => Arc::new(truth.clone()),
                };
            let (handle, thread) = spawn_client(
                ClientId(i as u32),
                client_cfg.clone(),
                self.breaker,
                egress.inbox(i),
                Box::new(port.clone()),
                client_clock,
                recorder.clone(),
            );
            client_handles.push(handle);
            threads.push(thread);
        }

        RtSystem {
            service: Some(service),
            svc,
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

/// A running real-time lease system: N shard workers under the
/// `lease-svc` runtime, M client threads, and (optionally) a chaos driver
/// replaying a seeded fault plan.
pub struct RtSystem {
    service: Option<LeaseService<Res, Bytes>>,
    svc: SvcHandle<Res, Bytes>,
    backend: Arc<Mutex<StoreBackend>>,
    recorder: Arc<Recorder>,
    client_handles: Vec<RtClientHandle>,
    cuts: Vec<Arc<AtomicBool>>,
    names: HashMap<String, Res>,
    dirs: HashMap<String, Res>,
    threads: Vec<JoinHandle<()>>,
    chaos_stop: Option<Sender<()>>,
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
            breaker: None,
            admission: None,
            overload: None,
            mailbox: None,
            clients: 1,
            shards: 1,
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

    /// Renames an entry within a directory: a write to the name binding,
    /// run through the full lease protocol (§2: "renaming the file would
    /// constitute a write").
    pub fn rename(&self, dir: Res, from: &str, to: &str) {
        let op = crate::naming::NameOp::Rename {
            from: from.into(),
            to: to.into(),
        };
        let _ = self.svc.local_write(dir, op.encode());
    }

    /// Removes a file entry from a directory (a name-binding write).
    pub fn unlink(&self, dir: Res, name: &str) {
        let op = crate::naming::NameOp::Unlink { name: name.into() };
        let _ = self.svc.local_write(dir, op.encode());
    }

    /// Creates an empty regular file in a directory (a name-binding write).
    pub fn create(&self, dir: Res, name: &str) {
        let op = crate::naming::NameOp::Create { name: name.into() };
        let _ = self.svc.local_write(dir, op.encode());
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

    /// Kills shard `shard`'s worker (a supervised crash): it restarts
    /// through §5 MaxTerm recovery, refusing grants and deferring writes
    /// for the persisted maximum term.
    pub fn kill_shard(&self, shard: usize) {
        silence_injected_kills();
        let _ = self.svc.kill_shard(shard);
    }

    /// Performs an administrative write (installing a new version, §4).
    pub fn install(&self, resource: Res, data: impl Into<Bytes>) {
        let _ = self.svc.local_write(resource, data.into());
    }

    /// Server statistics snapshot, merged across shards. `None` when a
    /// shard is down or unresponsive.
    pub fn server_stats(&self) -> Option<ServerStats> {
        let stats = self.service.as_ref()?.stats().ok()?;
        Some(ServerStats {
            counters: stats.counters,
            writes_committed: lock_backend(&self.backend).store.writes_committed(),
            shard_restarts: stats.restarts,
        })
    }

    /// Everything the perfect observer saw so far: operation starts and
    /// completions from every client, commits from the store, all on one
    /// true-time axis. Feed it to `lease_faults::check_history`.
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
        if let Some(service) = self.service.take() {
            service.shutdown();
        }
    }
}
