//! One grantor replica: an acceptor and a proposer wired back-to-back.

use lease_clock::{Dur, Time};
use lease_core::Backoff;

use crate::acceptor::Acceptor;
use crate::msg::{Ballot, QuorumMsg};
use crate::proposer::{PropAction, Proposer};

/// Tuning for one grantor quorum.
#[derive(Debug, Clone)]
pub struct QuorumConfig {
    /// Number of replicas (= acceptors = potential proposers).
    pub replicas: u32,
    /// Grantor-lease term, as granted to acceptors.
    pub term: Dur,
    /// Restart silence window (§5 MaxTerm): must cover the longest time
    /// any promise or accepted lease from a dead incarnation can matter.
    /// [`QuorumConfig::validate`] requires `max_term >= term * (1 +
    /// drift_bound) / (1 - drift_bound)`: the restarting replica may wait
    /// on a fast clock while the lease it enabled lives on a slow one.
    pub max_term: Dur,
    /// Fraction of the usable term after which the holder renews.
    pub renew_frac: f64,
    /// The clock-rate error (ppm) the protocol tolerates on *any*
    /// replica's clock, leader and acceptors alike: every clock's rate is
    /// assumed within `[1 - bound, 1 + bound]` of true rate. The leader
    /// only trusts [`QuorumConfig::usable_term`] of its lease, which
    /// discounts both a slow leader clock and fast acceptor clocks. A
    /// clock outside the bound is outside the fault model and may produce
    /// two grantors — the oracle's job to catch.
    pub drift_bound_ppm: f64,
    /// Abort a prepare/propose round not done within this local span.
    pub op_timeout: Dur,
    /// Base pause between proposer attempts.
    pub retry_base: Dur,
    /// The jittered exponential backoff applied to `retry_base`.
    pub backoff: Backoff,
    /// Whether the holder *fences itself* at local lease expiry (cedes and
    /// stops serving). Disabling this is the canonical injected bug: a
    /// partitioned ex-leader keeps serving while its successor takes over.
    pub fence: bool,
    /// Boot stagger: replica `i` may first propose at `i * stagger`,
    /// making the initial election deterministic and stampede-free.
    pub stagger: Dur,
}

impl Default for QuorumConfig {
    fn default() -> QuorumConfig {
        QuorumConfig {
            replicas: 3,
            term: Dur::from_millis(1000),
            max_term: Dur::from_millis(2200),
            renew_frac: 0.5,
            drift_bound_ppm: 100_000.0, // 10%
            op_timeout: Dur::from_millis(150),
            retry_base: Dur::from_millis(25),
            backoff: Backoff::exponential(Dur::from_millis(400)),
            fence: true,
            stagger: Dur::from_millis(20),
        }
    }
}

impl QuorumConfig {
    /// The default quorum on a quarter-second grantor term, for
    /// wall-clock harnesses: elections and takeovers resolve well inside
    /// a test's budget or a sweep's window.
    pub fn quick() -> QuorumConfig {
        QuorumConfig {
            term: Dur::from_millis(250),
            max_term: Dur::from_millis(550),
            op_timeout: Dur::from_millis(60),
            retry_base: Dur::from_millis(10),
            stagger: Dur::from_millis(15),
            ..QuorumConfig::default()
        }
    }

    /// Quorum size: a strict majority of the replicas.
    pub fn majority(&self) -> u32 {
        self.replicas / 2 + 1
    }

    /// The portion of the term the *holder* may trust: `term * (1 - d) /
    /// (1 + d)`, discounting both ends of the fault model at once. A
    /// leader clock at the slow edge (`1 - d`) stretches a local span by
    /// `1 / (1 - d)` in true time, so the leader's view lives
    /// `term * (1 - d) / (1 + d) / (1 - d) = term / (1 + d)` of true time
    /// — exactly when an acceptor clock at the fast edge (`1 + d`)
    /// forgets its accepted lease, which started no earlier than the
    /// leader's timer. Discounting only the slow side (`term * (1 - d)`)
    /// would leave a `~term * 2d / (1 + d)` window where a fast acceptor
    /// has forgotten while the slow leader still serves.
    pub fn usable_term(&self) -> Dur {
        let d = self.drift_bound_ppm / 1e6;
        self.term.mul_f64((1.0 - d) / (1.0 + d))
    }

    /// Checks internal consistency (quorum arithmetic and MaxTerm cover).
    pub fn validate(&self) -> Result<(), String> {
        if self.replicas == 0 || self.replicas > 63 {
            return Err(format!("replicas must be in 1..=63, got {}", self.replicas));
        }
        if !(0.0..1.0).contains(&self.renew_frac) {
            return Err(format!(
                "renew_frac must be in [0,1), got {}",
                self.renew_frac
            ));
        }
        if !(0.0..1e6).contains(&self.drift_bound_ppm) {
            return Err(format!(
                "drift_bound_ppm must be in [0, 1e6), got {}",
                self.drift_bound_ppm
            ));
        }
        // A restarting replica may wait out max_term on a fast clock
        // (true wait max_term / (1 + d)) while a lease it promised or
        // accepted lives out its term on a slow peer's clock (true life
        // term / (1 - d)); the silence must cover the life.
        let d = self.drift_bound_ppm / 1e6;
        let cover = self.term.mul_f64((1.0 + d) / (1.0 - d));
        if self.max_term < cover {
            return Err(format!(
                "max_term {} does not cover term*(1+drift)/(1-drift) = {}",
                self.max_term, cover
            ));
        }
        Ok(())
    }
}

/// What a node asks its host to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeOut {
    /// Send `msg` to replica `to`.
    Send {
        /// Destination replica.
        to: u32,
        /// The message.
        msg: QuorumMsg,
    },
    /// This replica became the grantor under `ballot`; the host should
    /// open the serving gate (and record the claim).
    Acquired {
        /// The winning ballot.
        ballot: Ballot,
        /// Whether this starts a new serving session (`false` = seamless
        /// renewal by the same replica). A fresh session means any
        /// grantor-side state from an earlier session is untrustworthy.
        fresh: bool,
    },
    /// This replica's claim under `ballot` ended; `overshoot` is how far
    /// past the true end the noticing instant lies on the local clock
    /// (for backdating the record).
    Ceded {
        /// The ended ballot.
        ballot: Ballot,
        /// Local-clock overshoot past the claim end.
        overshoot: Dur,
    },
}

/// One replica of the grantor quorum: the sans-IO composition of an
/// [`Acceptor`] and a [`Proposer`]. The host owns the clock and the
/// network; the node is driven by [`GrantorNode::tick`] and
/// [`GrantorNode::handle`], with self-addressed messages short-circuited
/// internally (a replica never talks to itself over the wire).
#[derive(Debug, Clone)]
pub struct GrantorNode {
    id: u32,
    cfg: QuorumConfig,
    acceptor: Acceptor,
    proposer: Proposer,
}

impl GrantorNode {
    /// Creates replica `id` of the quorum.
    ///
    /// # Panics
    ///
    /// Panics if the config fails [`QuorumConfig::validate`].
    pub fn new(id: u32, cfg: QuorumConfig) -> GrantorNode {
        if let Err(e) = cfg.validate() {
            panic!("invalid QuorumConfig: {e}");
        }
        let first = Time::ZERO + cfg.stagger * u64::from(id);
        GrantorNode {
            id,
            proposer: Proposer::new(id, cfg.clone(), first),
            acceptor: Acceptor::new(),
            cfg,
        }
    }

    /// Whether this replica currently claims grantorship at local `now`.
    pub fn is_serving(&self, now: Time) -> bool {
        self.proposer.is_serving(now)
    }

    /// The local expiry of the current claim, if one is held.
    pub fn claim_expires(&self) -> Option<Time> {
        self.proposer.claim_expires()
    }

    /// Advances timers at local time `now`.
    pub fn tick(&mut self, now: Time) -> Vec<NodeOut> {
        let actions = self.proposer.tick(now);
        self.run(now, actions)
    }

    /// Handles a message from replica `from` at local time `now`.
    pub fn handle(&mut self, now: Time, from: u32, msg: QuorumMsg) -> Vec<NodeOut> {
        match msg {
            QuorumMsg::Prepare { .. } | QuorumMsg::Propose { .. } => {
                match self.acceptor.handle(now, msg) {
                    Some(reply) => vec![NodeOut::Send {
                        to: from,
                        msg: reply,
                    }],
                    None => Vec::new(),
                }
            }
            _ => {
                let actions = self.proposer.on_reply(now, from, msg);
                self.run(now, actions)
            }
        }
    }

    /// Crash-restarts the whole replica: acceptor and proposer lose all
    /// volatile state and sit out the MaxTerm window on the local clock.
    pub fn restart(&mut self, now: Time) -> Vec<NodeOut> {
        self.acceptor.restart(now, self.cfg.max_term);
        let actions = self.proposer.restart(now, self.cfg.max_term);
        self.run(now, actions)
    }

    /// Executes proposer actions, looping self-addressed traffic through
    /// the local acceptor synchronously.
    fn run(&mut self, now: Time, actions: Vec<PropAction>) -> Vec<NodeOut> {
        let mut out = Vec::new();
        let mut queue = actions;
        while !queue.is_empty() {
            let mut next = Vec::new();
            for a in queue {
                match a {
                    PropAction::Broadcast(msg) => {
                        for to in (0..self.cfg.replicas).filter(|r| *r != self.id) {
                            out.push(NodeOut::Send { to, msg });
                        }
                        // Self-delivery: acceptor first, then feed the
                        // reply straight back to the proposer.
                        if let Some(reply) = self.acceptor.handle(now, msg) {
                            next.extend(self.proposer.on_reply(now, self.id, reply));
                        }
                    }
                    PropAction::Acquired { b, fresh } => {
                        out.push(NodeOut::Acquired { ballot: b, fresh })
                    }
                    PropAction::Ceded(ballot, overshoot) => {
                        out.push(NodeOut::Ceded { ballot, overshoot })
                    }
                }
            }
            queue = next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> QuorumConfig {
        QuorumConfig::default()
    }

    /// A zero-latency, lossless 3-replica harness for unit tests.
    struct Mesh {
        nodes: Vec<GrantorNode>,
    }

    impl Mesh {
        fn new(n: u32, cfg: QuorumConfig) -> Mesh {
            Mesh {
                nodes: (0..n).map(|i| GrantorNode::new(i, cfg.clone())).collect(),
            }
        }

        /// Ticks every node at `now` and drains all traffic to quiescence.
        fn step(&mut self, now: Time) -> Vec<(u32, NodeOut)> {
            let mut events = Vec::new();
            let mut pending: Vec<(u32, u32, QuorumMsg)> = Vec::new(); // (from, to, msg)
            for i in 0..self.nodes.len() {
                let outs = self.nodes[i].tick(now);
                route(i as u32, outs, &mut pending, &mut events);
            }
            while let Some((from, to, msg)) = pending.pop() {
                let outs = self.nodes[to as usize].handle(now, from, msg);
                route(to, outs, &mut pending, &mut events);
            }
            events
        }
    }

    fn route(
        src: u32,
        outs: Vec<NodeOut>,
        pending: &mut Vec<(u32, u32, QuorumMsg)>,
        events: &mut Vec<(u32, NodeOut)>,
    ) {
        for o in outs {
            match o {
                NodeOut::Send { to, msg } => pending.push((src, to, msg)),
                other => events.push((src, other)),
            }
        }
    }

    fn serving(mesh: &Mesh, now: Time) -> Vec<u32> {
        (0..mesh.nodes.len() as u32)
            .filter(|&i| mesh.nodes[i as usize].is_serving(now))
            .collect()
    }

    #[test]
    fn first_boot_elects_exactly_one_grantor() {
        let mut m = Mesh::new(3, cfg());
        let t = Time::ZERO;
        let events = m.step(t);
        // Replica 0's stagger slot is 0, so it wins the first election
        // synchronously in a lossless mesh.
        assert!(events
            .iter()
            .any(|(id, e)| *id == 0 && matches!(e, NodeOut::Acquired { .. })));
        assert_eq!(serving(&m, t), vec![0]);
        // Later stagger slots don't produce a second grantor: replicas 1
        // and 2 observe the live lease and stand down.
        for ms in 1..200u64 {
            m.step(Time::from_millis(ms));
            assert_eq!(serving(&m, Time::from_millis(ms)), vec![0]);
        }
    }

    #[test]
    fn leader_renews_before_expiry_and_keeps_the_lease() {
        let mut m = Mesh::new(3, cfg());
        let mut acquired = 0u32;
        for ms in 0..3000u64 {
            let t = Time::from_millis(ms);
            for (id, e) in m.step(t) {
                if matches!(e, NodeOut::Acquired { .. }) {
                    assert_eq!(id, 0, "leadership must not move in a quiet cluster");
                    acquired += 1;
                }
            }
            assert_eq!(serving(&m, t), vec![0], "at {t}");
        }
        // Initial election + at least one renewal per term.
        assert!(
            acquired >= 3,
            "expected renewals, saw {acquired} acquisitions"
        );
    }

    #[test]
    fn killed_leader_is_replaced_after_its_lease_expires() {
        let mut m = Mesh::new(3, cfg());
        m.step(Time::ZERO);
        assert_eq!(serving(&m, Time::ZERO), vec![0]);
        // Kill the leader at 100 ms; its claim closes immediately.
        let outs = m.nodes[0].restart(Time::from_millis(100));
        assert!(outs.iter().any(|o| matches!(o, NodeOut::Ceded { .. })));
        let mut new_leader = None;
        for ms in 100..4000u64 {
            let t = Time::from_millis(ms);
            for (id, e) in m.step(t) {
                if matches!(e, NodeOut::Acquired { .. }) && new_leader.is_none() {
                    new_leader = Some((id, ms));
                }
            }
        }
        let (leader, at_ms) = new_leader.expect("a successor must be elected");
        assert_ne!(leader, 0, "the restarted replica must not win first");
        // The successor cannot acquire before the dead leader's accepted
        // lease has expired on the surviving acceptors (~term after the
        // last renewal's accept).
        assert!(
            at_ms >= 1000,
            "successor acquired at {at_ms} ms, inside the old lease term"
        );
    }

    #[test]
    fn config_validation_catches_uncovered_max_term() {
        let bad = QuorumConfig {
            max_term: Dur::from_millis(900), // < term * 1.1
            ..cfg()
        };
        assert!(bad.validate().is_err());
        assert!(cfg().validate().is_ok());
    }
}
