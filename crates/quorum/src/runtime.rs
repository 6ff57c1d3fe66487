//! Wall-clock quorum runtime: one thread per grantor replica, plus the
//! serving gate the file-lease path consults.
//!
//! The sans-IO [`GrantorNode`] does all protocol reasoning; this module
//! supplies threads, channels, clocks, and chaos. Its one load-bearing
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
use lease_svc::chaos::{Delivery, FaultPlan, LinkChaos};
use lease_vsys::HistoryEvent;

use crate::msg::{Ballot, QuorumMsg};
use crate::node::{GrantorNode, NodeOut, QuorumConfig};

/// The serving gate: the replicated analogue of "am I the server?".
///
/// Writers are the replica's quorum thread (claim open/close); readers are
/// the service ingress/egress on every request. Reads are two relaxed
/// atomic loads plus a clock read — cheap enough for the hot grant path.
pub struct GrantorGate {
    /// `ballot.as_u64() + 1` while a claim is held, `0` otherwise (real
    /// ballots have `round >= 1`, so the offset never collides).
    serving: AtomicU64,
    /// Local-clock expiry of the claim, nanoseconds.
    expires: AtomicU64,
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
            fence,
            clock,
        }
    }

    fn open(&self, b: Ballot, expires: Time) {
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
}

/// Host-side hooks into the quorum runtime.
#[derive(Clone, Default)]
pub struct QuorumHooks {
    /// Called (from the replica's thread) right after its gate opens,
    /// with `(replica, fresh)` — `fresh` is false for seamless renewals.
    /// The replicated topology uses a fresh acquisition to push the
    /// replica's service shards through §5 MaxTerm recovery before they
    /// answer anything.
    pub on_acquire: Option<Arc<dyn Fn(u32, bool) + Send + Sync>>,
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
    /// Spawns `cfg.replicas` replica threads. `truth` is the shared true
    /// clock (the same one the recorder stamps with); per-replica skew
    /// comes from `plan.replica_clocks`, chaos from the plan's replica
    /// links, and `plan.replica_kills` is *not* driven here — hosts kill
    /// through a [`QuorumRuntime::kill_handle`] so they can coordinate
    /// service shard kills with quorum restarts.
    pub fn spawn(
        cfg: QuorumConfig,
        plan: FaultPlan,
        truth: Arc<dyn Clock>,
        hooks: QuorumHooks,
    ) -> QuorumRuntime {
        let n = cfg.replicas as usize;
        let start = truth.now();
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
            let model = plan.replica_clock(i).unwrap_or_else(ClockModel::perfect);
            let local: Arc<dyn Clock> =
                Arc::new(ModelClock::new(Arc::clone(&truth), model.clone()));
            let gate = Arc::new(GrantorGate::new(cfg.fence, Arc::clone(&local)));
            gates.push(Arc::clone(&gate));
            let worker = Replica {
                id: i as u32,
                node: GrantorNode::new(i as u32, cfg.clone()),
                rx,
                peers: txs.clone(),
                links: (0..n).map(|j| plan.replica_link(i, j)).collect(),
                plan: plan.clone(),
                truth: Arc::clone(&truth),
                model,
                start,
                gate,
                hooks: hooks.clone(),
                pending: Vec::new(),
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

    /// Number of replicas.
    pub fn replicas(&self) -> usize {
        self.gates.len()
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
    plan: FaultPlan,
    truth: Arc<dyn Clock>,
    model: ClockModel,
    start: Time,
    gate: Arc<GrantorGate>,
    hooks: QuorumHooks,
    /// Chaos-delayed sends held back by the sender: `(deliver_at true
    /// time, to, msg)`.
    pending: Vec<(Time, u32, QuorumMsg)>,
}

impl Replica {
    fn run(mut self) {
        loop {
            match self.rx.recv_timeout(Duration::from_millis(1)) {
                Ok(Input::Shutdown) => return,
                Ok(Input::Kill) => {
                    let local = self.model.local(self.truth.now());
                    let outs = self.node.restart(local);
                    self.dispatch(outs);
                }
                Ok(Input::Msg(from, msg)) => {
                    let t = self.truth.now();
                    // A cut replica neither hears nor is heard.
                    if !self.cut(self.id, t) && !self.cut(from, t) {
                        let outs = self.node.handle(self.model.local(t), from, msg);
                        self.dispatch(outs);
                    }
                }
                Err(_) => {}
            }
            let t = self.truth.now();
            let outs = self.node.tick(self.model.local(t));
            self.dispatch(outs);
            self.flush(t);
        }
    }

    fn cut(&self, replica: u32, t: Time) -> bool {
        self.plan
            .replica_cut_active(replica as usize, t.saturating_since(self.start))
    }

    fn dispatch(&mut self, outs: Vec<NodeOut>) {
        let t = self.truth.now();
        for o in outs {
            match o {
                NodeOut::Send { to, msg } => {
                    if self.cut(self.id, t) || self.cut(to, t) {
                        continue;
                    }
                    match self.links[to as usize].next() {
                        Delivery::Drop => {}
                        Delivery::Deliver { delay, copies } => {
                            for _ in 0..copies {
                                if delay.is_zero() {
                                    let _ =
                                        self.peers[to as usize].try_send(Input::Msg(self.id, msg));
                                } else {
                                    self.pending.push((t + delay, to, msg));
                                }
                            }
                        }
                    }
                }
                NodeOut::Acquired { ballot, fresh } => {
                    let expires = self
                        .node
                        .claim_expires()
                        .expect("acquired claim has an expiry");
                    self.gate.open(ballot, expires);
                    if let Some(obs) = &self.hooks.observer {
                        obs(HistoryEvent::GrantorAcquired {
                            replica: self.id,
                            ballot: ballot.as_u64(),
                            at: t,
                        });
                    }
                    if let Some(f) = &self.hooks.on_acquire {
                        f(self.id, fresh);
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

    /// Delivers chaos-delayed messages whose time has come.
    fn flush(&mut self, now: Time) {
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].0 <= now {
                let (_, to, msg) = self.pending.swap_remove(i);
                if !self.cut(self.id, now) && !self.cut(to, now) {
                    let _ = self.peers[to as usize].try_send(Input::Msg(self.id, msg));
                }
            } else {
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lease_clock::{Dur, WallClock};

    fn wait_for<F: Fn() -> bool>(what: &str, timeout: Duration, f: F) {
        let start = std::time::Instant::now();
        while !f() {
            assert!(start.elapsed() < timeout, "timed out waiting for {what}");
            thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn elects_a_grantor_and_survives_killing_it() {
        let truth: Arc<dyn Clock> = Arc::new(WallClock::new());
        let events: Arc<std::sync::Mutex<Vec<HistoryEvent>>> = Arc::default();
        let obs = Arc::clone(&events);
        let rt = QuorumRuntime::spawn(
            QuorumConfig::quick(),
            FaultPlan::new(3),
            truth,
            QuorumHooks {
                on_acquire: None,
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
        let history = lease_vsys::History {
            events: events.lock().unwrap().clone(),
        };
        let res = lease_faults::check_history(&history);
        assert!(res.is_ok(), "violations: {:?}", res.err());
    }

    #[test]
    fn gate_closes_at_local_expiry() {
        let clock = Arc::new(lease_clock::ManualClock::new(Time::ZERO));
        let gate = GrantorGate::new(true, clock.clone() as Arc<dyn Clock>);
        let b = Ballot::new(1, 0);
        gate.open(b, Time::from_millis(100));
        assert_eq!(gate.serving(), Some(b));
        clock.advance(Dur::from_millis(99));
        assert!(gate.is_open());
        clock.advance(Dur::from_millis(1));
        assert_eq!(gate.serving(), None, "expired claim must close the gate");
        // Without fencing the stale claim stays visible — the bug the
        // oracle exists to catch.
        let unfenced = GrantorGate::new(false, clock as Arc<dyn Clock>);
        unfenced.open(b, Time::from_millis(150));
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
        gate.open(old, Time::from_millis(100));
        gate.open(new, Time::from_millis(200)); // renewal replaced it
        gate.close(old); // late close of the old claim must not shut the new one
        assert_eq!(gate.serving(), Some(new));
        gate.close(new);
        assert_eq!(gate.serving(), None);
    }
}
