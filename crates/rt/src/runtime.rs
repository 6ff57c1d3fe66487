//! Wall-clock quorum runtime: one thread per grantor replica, plus the
//! serving gate the file-lease path consults.
//!
//! The sans-IO [`GrantorNode`] does all protocol reasoning; this module
//! supplies threads, channels and clocks, and reads the run's faults —
//! replica cuts, link dice, delays — through the one
//! [`LiveFaults`] the rest of the run reads. Its one load-bearing
//! export is [`GrantorGate`]: a lock-free cell each replica keeps up to
//! date with its current claim, which the *service* side reads on every
//! file-lease grant/extend to decide whether this replica is allowed to
//! answer. The gate re-checks expiry against the replica's own (possibly
//! skewed) clock on every read, so a grantor whose lease lapsed mid-batch
//! refuses the rest of the batch — unless fencing is disabled, which is
//! the injectable split-brain bug the oracle sweep must catch.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use lease_clock::{Clock, ClockModel, ModelClock, Time};
use lease_faults::{Delivery, HistoryEvent, LinkChaos};
use lease_quorum::{Ballot, GrantorNode, NodeOut, QuorumConfig, QuorumMsg};
use lease_svc::chaos::LiveFaults;

/// The serving gate: the replicated analogue of "am I the server?".
///
/// Writers are the replica's quorum thread (claim open/close); readers are
/// the service ingress/egress on every request. Reads are two relaxed
/// atomic loads plus a clock read — cheap enough for the hot grant path.
///
/// Every fresh acquisition (not a renewal) bumps the gate's
/// [`session`](GrantorGate::session) before the gate opens, so whoever
/// sees the gate open also sees the session that opened it; the service's
/// shards read it to know when to restart into §5 recovery.
pub struct GrantorGate {
    /// `ballot.as_u64() + 1` while a claim is held, `0` otherwise (real
    /// ballots have `round >= 1`, so the offset never collides).
    serving: AtomicU64,
    /// Local-clock expiry of the claim, nanoseconds.
    expires: AtomicU64,
    /// Fresh acquisitions so far: the serving session.
    session: AtomicU64,
    /// Whether expiry closes the gate (false = the injected bug).
    fence: bool,
    /// The replica's own clock, skew included.
    clock: Arc<dyn Clock>,
}

impl GrantorGate {
    fn new(fence: bool, clock: Arc<dyn Clock>) -> GrantorGate {
        GrantorGate {
            serving: AtomicU64::new(0),
            expires: AtomicU64::new(0),
            session: AtomicU64::new(0),
            fence,
            clock,
        }
    }

    /// Opens the gate under `b` until `expires`, a `fresh` claim in a new
    /// session.
    fn open(&self, b: Ballot, expires: Time, fresh: bool) {
        if fresh {
            self.session.fetch_add(1, Ordering::Release);
        }
        self.expires.store(expires.as_nanos(), Ordering::Release);
        self.serving.store(b.as_u64() + 1, Ordering::Release);
    }

    fn close(&self, b: Ballot) {
        // Only the matching claim closes the gate: a renewal may already
        // have replaced it.
        let _ =
            self.serving
                .compare_exchange(b.as_u64() + 1, 0, Ordering::AcqRel, Ordering::Relaxed);
    }

    /// The ballot this replica is currently entitled to serve under, or
    /// `None` if it must refuse file-lease traffic. Checks the claim's
    /// local-clock expiry on every call (when fencing is on).
    pub fn serving(&self) -> Option<Ballot> {
        let s = self.serving.load(Ordering::Acquire);
        if s == 0 {
            return None;
        }
        if self.fence && self.clock.now().as_nanos() >= self.expires.load(Ordering::Acquire) {
            return None;
        }
        Some(Ballot::unpack(s - 1))
    }

    /// Whether the gate is open at all.
    pub fn is_open(&self) -> bool {
        self.serving().is_some()
    }

    /// How many fresh acquisitions this replica has made (renewals keep it).
    pub fn session(&self) -> u64 {
        self.session.load(Ordering::Acquire)
    }
}

/// Host-side hooks into the quorum runtime.
#[derive(Clone, Default)]
pub struct QuorumHooks {
    /// Observer of grantor claim events, stamped on the *true* timeline
    /// (cede overshoots already backdated through the clock model).
    pub observer: Option<Arc<dyn Fn(HistoryEvent) + Send + Sync>>,
}

enum Input {
    Msg(u32, QuorumMsg),
    Kill,
    Shutdown,
}

/// A clonable handle that can crash-restart replicas — what chaos drivers
/// hold so the runtime itself can keep sole ownership of its threads.
#[derive(Clone)]
pub struct KillHandle {
    inputs: Vec<SyncSender<Input>>,
}

impl KillHandle {
    /// Crash-restarts replica `i` (volatile state lost, MaxTerm silence).
    pub fn kill(&self, i: usize) {
        let _ = self.inputs[i].send(Input::Kill);
    }
}

/// A running quorum of grantor replicas.
pub struct QuorumRuntime {
    gates: Vec<Arc<GrantorGate>>,
    inputs: Vec<SyncSender<Input>>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl QuorumRuntime {
    /// Spawns `cfg.replicas` replica threads under the run's `faults`:
    /// their truth clock is the shared true clock (the same one the
    /// recorder stamps with), per-replica skew comes from the plan's
    /// replica clocks, cuts and dice from its replica windows and links,
    /// and a delayed message waits on its sleeper. The plan's replica
    /// kills are *not* driven here — hosts kill through a
    /// [`QuorumRuntime::kill_handle`] so they can coordinate service
    /// shard kills with quorum restarts.
    pub fn spawn(cfg: QuorumConfig, faults: Arc<LiveFaults>, hooks: QuorumHooks) -> QuorumRuntime {
        let n = cfg.replicas as usize;
        let mut txs = Vec::with_capacity(n);
        let mut rxs = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = sync_channel::<Input>(1024);
            txs.push(tx);
            rxs.push(rx);
        }
        let mut gates = Vec::with_capacity(n);
        let mut threads = Vec::with_capacity(n);
        for (i, rx) in rxs.into_iter().enumerate() {
            let model = faults
                .plan()
                .replica_clock(i)
                .unwrap_or_else(ClockModel::perfect);
            let local: Arc<dyn Clock> =
                Arc::new(ModelClock::new(Arc::clone(faults.truth()), model.clone()));
            let gate = Arc::new(GrantorGate::new(cfg.fence, Arc::clone(&local)));
            gates.push(Arc::clone(&gate));
            let worker = Replica {
                id: i as u32,
                node: GrantorNode::new(i as u32, cfg.clone()),
                rx,
                peers: txs.clone(),
                links: (0..n).map(|j| faults.plan().replica_link(i, j)).collect(),
                faults: Arc::clone(&faults),
                model,
                gate,
                hooks: hooks.clone(),
            };
            threads.push(
                thread::Builder::new()
                    .name(format!("grantor-{i}"))
                    .spawn(move || worker.run())
                    .expect("spawn grantor replica"),
            );
        }
        QuorumRuntime {
            gates,
            inputs: txs,
            threads,
        }
    }

    /// The serving gate of replica `i`.
    pub fn gate(&self, i: usize) -> Arc<GrantorGate> {
        Arc::clone(&self.gates[i])
    }

    /// The replica currently claiming grantorship, if any is visible.
    pub fn current_grantor(&self) -> Option<(u32, Ballot)> {
        self.gates
            .iter()
            .enumerate()
            .find_map(|(i, g)| g.serving().map(|b| (i as u32, b)))
    }

    /// A detached handle for killing replicas (see [`KillHandle`]).
    pub fn kill_handle(&self) -> KillHandle {
        KillHandle {
            inputs: self.inputs.clone(),
        }
    }

    /// Stops all replica threads.
    pub fn shutdown(self) {
        for tx in &self.inputs {
            let _ = tx.send(Input::Shutdown);
        }
        for t in self.threads {
            let _ = t.join();
        }
    }
}

struct Replica {
    id: u32,
    node: GrantorNode,
    rx: Receiver<Input>,
    peers: Vec<SyncSender<Input>>,
    links: Vec<LinkChaos>,
    faults: Arc<LiveFaults>,
    model: ClockModel,
    gate: Arc<GrantorGate>,
    hooks: QuorumHooks,
}

impl Replica {
    fn run(mut self) {
        loop {
            match self.rx.recv_timeout(Duration::from_millis(1)) {
                Ok(Input::Shutdown) => return,
                Ok(Input::Kill) => {
                    let local = self.model.local(self.now());
                    let outs = self.node.restart(local);
                    self.dispatch(outs);
                }
                Ok(Input::Msg(from, msg)) => {
                    // A cut replica neither hears nor is heard.
                    if !self.faults.replica_cut(self.id as usize, from as usize) {
                        let outs = self.node.handle(self.model.local(self.now()), from, msg);
                        self.dispatch(outs);
                    }
                }
                Err(_) => {}
            }
            let outs = self.node.tick(self.model.local(self.now()));
            self.dispatch(outs);
        }
    }

    fn now(&self) -> Time {
        self.faults.truth().now()
    }

    fn dispatch(&mut self, outs: Vec<NodeOut>) {
        let t = self.now();
        for o in outs {
            match o {
                NodeOut::Send { to, msg } => {
                    if self.faults.replica_cut(self.id as usize, to as usize) {
                        continue;
                    }
                    let (from, peer) = (self.id, &self.peers[to as usize]);
                    match self.links[to as usize].next() {
                        Delivery::Drop => {}
                        Delivery::Deliver { delay, copies } if delay.is_zero() => {
                            for _ in 0..copies {
                                let _ = peer.try_send(Input::Msg(from, msg));
                            }
                        }
                        Delivery::Deliver { delay, copies } => {
                            // Held back on the run's sleeper, and cut
                            // at delivery if either end is cut by then.
                            let (faults, peer) = (Arc::clone(&self.faults), peer.clone());
                            self.faults.sleeper().after(delay, move || {
                                if !faults.replica_cut(from as usize, to as usize) {
                                    for _ in 0..copies {
                                        let _ = peer.try_send(Input::Msg(from, msg));
                                    }
                                }
                            });
                        }
                    }
                }
                NodeOut::Acquired { ballot, fresh } => {
                    let expires = self
                        .node
                        .claim_expires()
                        .expect("acquired claim has an expiry");
                    self.gate.open(ballot, expires, fresh);
                    if let Some(obs) = &self.hooks.observer {
                        obs(HistoryEvent::GrantorAcquired {
                            replica: self.id,
                            ballot: ballot.as_u64(),
                            at: t,
                        });
                    }
                }
                NodeOut::Ceded { ballot, overshoot } => {
                    self.gate.close(ballot);
                    if let Some(obs) = &self.hooks.observer {
                        obs(HistoryEvent::GrantorCeded {
                            replica: self.id,
                            ballot: ballot.as_u64(),
                            at: self.model.true_before(t, overshoot),
                        });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lease_clock::{Dur, WallClock};
    use lease_faults::FaultPlan;

    fn wait_for<F: Fn() -> bool>(what: &str, timeout: Duration, f: F) {
        let start = std::time::Instant::now();
        while !f() {
            assert!(start.elapsed() < timeout, "timed out waiting for {what}");
            thread::sleep(Duration::from_millis(5));
        }
    }

    /// The faults of a run with no clients under `plan`, on `truth`.
    fn faults(plan: FaultPlan, truth: WallClock) -> Arc<LiveFaults> {
        Arc::new(LiveFaults::new(plan, Arc::new(truth), 0))
    }

    #[test]
    fn elects_a_grantor_and_survives_killing_it() {
        let events: Arc<std::sync::Mutex<Vec<HistoryEvent>>> = Arc::default();
        let obs = Arc::clone(&events);
        let rt = QuorumRuntime::spawn(
            QuorumConfig::quick(),
            faults(FaultPlan::new(3), WallClock::new()),
            QuorumHooks {
                observer: Some(Arc::new(move |e| obs.lock().unwrap().push(e))),
            },
        );
        wait_for("first grantor", Duration::from_secs(5), || {
            rt.current_grantor().is_some()
        });
        let (first, _) = rt.current_grantor().unwrap();
        rt.kill_handle().kill(first as usize);
        wait_for(
            "successor grantor",
            Duration::from_secs(10),
            || matches!(rt.current_grantor(), Some((id, _)) if id != first),
        );
        rt.shutdown();
        // The recorded claims satisfy the at-most-one-grantor invariant.
        let history = lease_faults::History {
            events: events.lock().unwrap().clone(),
        };
        let res = lease_faults::check_history(&history);
        assert!(res.is_ok(), "violations: {:?}", res.err());
    }

    /// The session counts fresh acquisitions: the first grantor opens
    /// session 1 and its renewals (new ballots, same replica) keep it;
    /// the successor of a killed grantor opens its own first session.
    #[test]
    fn a_fresh_acquisition_bumps_the_session_and_a_renewal_does_not() {
        let rt = QuorumRuntime::spawn(
            QuorumConfig::default(),
            faults(FaultPlan::new(3), WallClock::new()),
            QuorumHooks::default(),
        );
        let claim = |pred: &dyn Fn(u32, Ballot) -> bool| {
            let start = std::time::Instant::now();
            loop {
                match rt.current_grantor() {
                    Some((id, b)) if pred(id, b) => return (id, b),
                    _ => {}
                }
                assert!(start.elapsed() < Duration::from_secs(10), "timed out");
                thread::sleep(Duration::from_millis(2));
            }
        };
        let (first, mut ballot) = claim(&|_, _| true);
        let sessions = || (0..3).map(|i| rt.gate(i).session()).collect::<Vec<u64>>();
        let mut want = vec![0; 3];
        want[first as usize] = 1;
        assert_eq!(sessions(), want);
        for _ in 0..2 {
            let (id, b) = claim(&|_, b| b != ballot);
            assert_eq!(id, first, "leadership moved in a quiet cluster");
            assert_eq!(sessions(), want, "a renewal opened a session");
            ballot = b;
        }
        rt.kill_handle().kill(first as usize);
        let (next, _) = claim(&|id, _| id != first);
        want[next as usize] = 1;
        assert_eq!(sessions(), want);
        rt.shutdown();
    }

    /// A replica cut is a plan window on the truth clock, measured from
    /// its zero like every other plan instant — not from the quorum's
    /// spawn. A window that closed before the quorum started cuts
    /// nothing.
    #[test]
    fn replica_cuts_are_measured_from_the_truth_clocks_zero() {
        let truth = WallClock::new();
        thread::sleep(Duration::from_secs(1));
        let window = Dur::from_millis(900);
        let plan = (0..3).fold(FaultPlan::new(4), |p, r| {
            p.cut_replica(Dur::ZERO, window, r)
        });
        let spawned = std::time::Instant::now();
        let rt = QuorumRuntime::spawn(
            QuorumConfig::quick(),
            faults(plan, truth),
            QuorumHooks::default(),
        );
        wait_for("a grantor", Duration::from_millis(500), || {
            rt.current_grantor().is_some()
        });
        assert!(spawned.elapsed() < Duration::from_millis(500));
        rt.shutdown();
    }

    #[test]
    fn gate_closes_at_local_expiry() {
        let clock = Arc::new(lease_clock::ManualClock::new(Time::ZERO));
        let gate = GrantorGate::new(true, clock.clone() as Arc<dyn Clock>);
        let b = Ballot::new(1, 0);
        gate.open(b, Time::from_millis(100), true);
        assert_eq!(gate.serving(), Some(b));
        clock.advance(Dur::from_millis(99));
        assert!(gate.is_open());
        clock.advance(Dur::from_millis(1));
        assert_eq!(gate.serving(), None, "expired claim must close the gate");
        // Without fencing the stale claim stays visible — the bug the
        // oracle exists to catch.
        let unfenced = GrantorGate::new(false, clock as Arc<dyn Clock>);
        unfenced.open(b, Time::from_millis(150), true);
        clock_independent_check(&unfenced, b);
    }

    fn clock_independent_check(gate: &GrantorGate, b: Ballot) {
        assert_eq!(gate.serving(), Some(b));
    }

    #[test]
    fn gate_close_is_claim_scoped() {
        let clock = Arc::new(lease_clock::ManualClock::new(Time::ZERO));
        let gate = GrantorGate::new(true, clock as Arc<dyn Clock>);
        let old = Ballot::new(1, 0);
        let new = Ballot::new(2, 0);
        gate.open(old, Time::from_millis(100), true);
        gate.open(new, Time::from_millis(200), false); // renewal replaced it
        gate.close(old); // late close of the old claim must not shut the new one
        assert_eq!(gate.serving(), Some(new));
        gate.close(new);
        assert_eq!(gate.serving(), None);
    }
}
