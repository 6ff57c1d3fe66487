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
//! The safety chain under a quorum, each layer kept for a fault only it
//! stops (DESIGN.md §2d):
//!
//! * **Ingress fencing** — the `Router` every producer submits through
//!   (server module) hands a client message only to a replica whose
//!   [`GrantorGate`](lease_quorum::GrantorGate) is open; with none open
//!   the message is dropped and the client's retransmission is the retry,
//!   so failover is free: the next one lands on the new grantor.
//! * **Egress fencing** — each replica's sink drops every reply while its
//!   gate is closed: a lapsed grantor's mid-batch replies, and the §4
//!   installed-file multicasts every non-grantor's shards keep ticking.
//! * **Commit fencing** — the store refuses a write while the gate is
//!   closed: a deposed grantor's deferred write comes due too late.
//! * **Takeover recovery** — a *fresh* acquisition (not a renewal) bumps
//!   the gate's session before the gate opens, and each of the replica's
//!   shards, reading it after every gather, restarts into §5 MaxTerm
//!   recovery before it fires a timer or answers an input of the new
//!   session: grants deferred and writes held until every lease the
//!   previous grantor could have granted has expired, old write-approval
//!   ids fenced by the epoch bump — a single server's restart, reused.
//!
//! Lease state is never replicated or persisted: the old grantor's grants
//! die by expiry, exactly as §5 argues for crash recovery.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use bytes::Bytes;
use lease_clock::{Clock, ClockModel, Dur, ModelClock, WallClock};
use lease_core::{ClientConfig, ClientId, LeaseServer, ServerConfig, Storage};
use lease_faults::{FaultPlan, History, HistoryEvent};
use lease_quorum::{KillHandle, QuorumConfig, QuorumHooks, QuorumRuntime};
use lease_store::{DirId, FileKind, Perms, Store};
use lease_svc::{
    chaos::silence_injected_kills, shard_of, AdmissionControl, Egress, LeaseService, LiveFaults,
    SvcConfig, SvcHooks, SvcStats,
};

use crate::client::{spawn_client, RtClientHandle};
use crate::record::Recorder;
use crate::server::{lock, Res, Router, RtFence, RtPort, RtSink, SharedBackend, StoreBackend};

/// Builder for an [`RtSystem`].
pub struct RtSystemBuilder {
    term: Dur,
    client: ClientConfig,
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

    /// Every client cache's configuration, changed in place by `f` and
    /// handed to each client unchanged. The builder starts from 10 ms ε,
    /// a 50 ms retransmission interval and 40 retries, the rest at
    /// [`ClientConfig::default`]. Under a quorum `retry_interval` is also
    /// the failover probe cadence while no grantor is reachable, and
    /// `op_deadline` rides with every submission so the service drops
    /// already-dead work.
    pub fn client(mut self, f: impl FnOnce(&mut ClientConfig)) -> Self {
        f(&mut self.client);
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
    /// one service per replica and the clients; the plan's kills wait on
    /// the run's sleeper.
    pub fn start(self) -> RtSystem {
        // One true clock: history timestamps, chaos schedules and every
        // host's (possibly skewed) model clock all derive from it.
        let truth = WallClock::new();
        let recorder = Arc::new(Recorder::new(truth.clone()));
        // Injected kills panic on purpose.
        if self.chaos.is_some() {
            silence_injected_kills();
        }
        // The one reader of the plan, shared by every sink, port and
        // replica; without a plan, a fault-free one.
        let faults = Arc::new(LiveFaults::new(
            self.chaos.clone().unwrap_or_else(|| FaultPlan::new(0)),
            Arc::new(truth.clone()),
            self.clients as usize,
        ));
        let plan = faults.plan();
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
        // own lanes into it, behind that replica's fence.
        let base_cfg = SvcConfig::default();
        let mailbox = self.mailbox.unwrap_or(base_cfg.mailbox);
        let egress: Egress<Res, Bytes> = Egress::new(self.clients as usize, mailbox);

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
            let b = lock(&backend);
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

        // The quorum spawns first: the services need its gates.
        let quorum = self.quorum.clone().map(|cfg| {
            let rec = recorder.clone();
            QuorumRuntime::spawn(
                cfg,
                Arc::clone(&faults),
                QuorumHooks {
                    observer: Some(Arc::new(move |e: HistoryEvent| rec.push(e))),
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
                lock(&backend)
                    .store
                    .put_slot("max_lease_term", d.as_nanos().to_le_bytes().to_vec());
            }
        });
        let recover_max_term: Arc<dyn Fn() -> Option<Dur> + Send + Sync> = Arc::new({
            let backend = backend.clone();
            move || {
                lock(&backend)
                    .store
                    .get_slot("max_lease_term")
                    .and_then(|b| <[u8; 8]>::try_from(b).ok())
                    .map(|b| Dur(u64::from_le_bytes(b)))
            }
        });

        // One sharded lease service per replica, on the replica's own
        // (possibly skewed) clock — the one its gate reads too — writing
        // through its (under a quorum, gated) view of the shared store.
        let (term, shards) = (self.term, self.shards);
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
                        fence,
                        faults: Arc::clone(&faults),
                    }),
                    SvcHooks {
                        persist_max_term: Some(persist_max_term.clone()),
                        recover_max_term: Some(recover_max_term.clone()),
                        clock: Some(clock),
                        // A fresh acquisition restarts every shard into §5
                        // recovery before it answers for the new grantor.
                        session: gate.clone().map(|g| {
                            Arc::new(move || g.session()) as Arc<dyn Fn() -> u64 + Send + Sync>
                        }),
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
                        let storage = SharedBackend {
                            store: backend.clone(),
                            gate: gate.clone(),
                        };
                        (
                            server,
                            Box::new(storage) as Box<dyn Storage<Res, Bytes> + Send>,
                        )
                    },
                )
            })
            .collect();

        // Every producer gets its own router — its own handle clone, so
        // its own SPSC lane, per shard per replica: this one stays with
        // the system (admin writes, kills), and each client's port and
        // each plan kill clone theirs from it.
        let router = Router::new(
            services
                .iter()
                .enumerate()
                .map(|(r, s)| (s.handle(), fence_of(r))),
            Arc::clone(&faults),
        );

        // The plan's shard and replica kills wait on the sleeper, at
        // their plan instants on the true clock.
        let nodes = quorum.as_ref().map(QuorumRuntime::kill_handle);
        let kills = plan.kills.iter().map(|&(at, s)| (at, Crash::Shard(s)));
        let replica_kills = plan
            .replica_kills
            .iter()
            .map(|&(at, r)| (at, Crash::Replica(r)));
        for (at, what) in kills.chain(replica_kills) {
            let (router, nodes) = (router.clone(), nodes.clone());
            faults
                .sleeper()
                .at(at, move || crash(&router, nodes.as_ref(), what));
        }

        // Each client owns its port — its own router — used only under
        // that client's driver lock and by the sleeper, one at a time.
        let mut threads: Vec<JoinHandle<()>> = Vec::new();
        let mut client_handles = Vec::new();
        for i in 0..self.clients as usize {
            let (handle, thread) = spawn_client(
                ClientId(i as u32),
                self.client.clone(),
                egress.inbox(i),
                Box::new(RtPort(Arc::new(Mutex::new(router.clone())))),
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
            faults,
            names,
            dirs,
            threads,
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

/// Crash injection, for the plan's kills and for
/// [`RtSystem::kill_shard`] / [`RtSystem::kill_replica`] alike, each
/// through its own `router`; `nodes` are the quorum's, if there is one.
fn crash(router: &Router, nodes: Option<&KillHandle>, what: Crash) {
    let (replicas, shards) = match what {
        Crash::Shard(s) => (0..router.replicas(), s..s + 1),
        Crash::Replica(r) if r < router.replicas() => {
            if let Some(nodes) = nodes {
                nodes.kill(r);
            }
            (r..r + 1, 0..router.svc(r).shards())
        }
        Crash::Replica(_) => return, // The plan names a host this system lacks.
    };
    for r in replicas {
        for s in shards.clone() {
            let _ = router.svc(r).kill_shard(s);
        }
    }
}

/// A running real-time lease system: one server — or, under a quorum, N
/// grantor replicas — of sharded workers under the `lease-svc` runtime
/// over one durable store, M client threads, and the run's faults: a
/// seeded plan (fault-free without one) whose sleeper replays what it
/// schedules for later.
pub struct RtSystem {
    services: Vec<LeaseService<Res, Bytes>>,
    /// The system's own producer side: admin writes and kills.
    router: Router,
    quorum: Option<QuorumRuntime>,
    backend: Arc<Mutex<StoreBackend>>,
    recorder: Arc<Recorder>,
    client_handles: Vec<RtClientHandle>,
    faults: Arc<LiveFaults>,
    names: HashMap<String, Res>,
    dirs: HashMap<String, Res>,
    threads: Vec<JoinHandle<()>>,
}

impl RtSystem {
    /// Starts building a system.
    pub fn builder() -> RtSystemBuilder {
        RtSystemBuilder {
            term: Dur::from_millis(500),
            client: ClientConfig {
                epsilon: Dur::from_millis(10),
                retry_interval: Dur::from_millis(50),
                max_retries: 40,
                ..ClientConfig::default()
            },
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
        self.faults.set_cut(i, cut);
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

    /// Statistics snapshot of the serving replica's service. `None` when
    /// no replica is serving, or a shard of the one that is is down or
    /// unresponsive.
    pub fn server_stats(&self) -> Option<SvcStats> {
        let serving = self.router.serving()?;
        self.services[serving].stats().ok()
    }

    /// Writes committed to the one durable store, by any replica.
    pub fn writes_committed(&self) -> u64 {
        lock(&self.backend).store.writes_committed()
    }

    /// Everything the perfect observer saw so far: operation starts and
    /// completions from every client, commits from the store and (under a
    /// quorum) grantor claims, all on one true-time axis. Feed it to
    /// `lease_faults::check_history`.
    pub fn history(&self) -> History {
        self.recorder.snapshot()
    }

    /// Stops every thread and waits for them. What the plan still had
    /// scheduled — a delayed message, a kill — is discarded with the
    /// sleeper.
    pub fn shutdown(mut self) {
        self.faults.sleeper().close();
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_in_process_client_defaults_to_10_50_40() {
        let b = RtSystem::builder();
        assert_eq!(
            b.client,
            ClientConfig {
                epsilon: Dur::from_millis(10),
                retry_interval: Dur::from_millis(50),
                max_retries: 40,
                ..ClientConfig::default()
            },
            "backoff, deadline and budget at their defaults"
        );
        let b = b.client(|c| c.max_retries = 7);
        assert_eq!(b.client.max_retries, 7);
        assert_eq!(b.client.epsilon, Dur::from_millis(10), "other fields kept");
    }
}
