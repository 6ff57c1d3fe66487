//! The proposer half of a grantor replica: acquires and renews the
//! grantor lease.

use lease_clock::{Dur, Time};

use crate::msg::{Ballot, QuorumMsg};
use crate::node::QuorumConfig;

/// What the proposer wants done after handling an input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropAction {
    /// Send `msg` to every acceptor (including the proposer's own).
    Broadcast(QuorumMsg),
    /// The proposer now holds the grantor lease under `b`. `fresh` is
    /// false only for a seamless renewal — the old claim was still live on
    /// this clock when the new one took over. Hosts use it to decide
    /// whether grantor-side serving state must be rebuilt.
    Acquired {
        /// The winning ballot.
        b: Ballot,
        /// Whether this acquisition starts a new serving session.
        fresh: bool,
    },
    /// The proposer's claim under `ballot` ended. The overshoot is how far
    /// past the claim's true end the *noticing* instant lies on the local
    /// clock (zero except for expiry ticks); recorders backdate by it.
    Ceded(Ballot, Dur),
}

/// The grantor-lease claim this proposer currently holds.
#[derive(Debug, Clone, Copy)]
struct Claim {
    b: Ballot,
    /// Conservative local expiry: prepare-send instant + usable term.
    expires: Time,
    /// When to start the renewal round.
    renew_at: Time,
}

#[derive(Debug, Clone, Copy)]
enum Phase {
    Idle,
    /// Phase 1 in flight; `sent` is the prepare-send instant — the
    /// conservative start of any lease this round wins.
    Preparing {
        b: Ballot,
        sent: Time,
        promises: u64,
    },
    /// Phase 2 in flight; `sent` still names the *prepare*-send instant.
    Proposing {
        b: Ballot,
        sent: Time,
        accepts: u64,
    },
}

/// A PaxosLease proposer.
///
/// The critical safety choice is where the proposer's lease timer starts:
/// at the **prepare-send instant**, not at the accept-quorum instant. Every
/// acceptor starts its own timer at acceptance, which is strictly later,
/// so the proposer's view of its lease always expires first (assuming
/// clock rates within [`QuorumConfig::drift_bound_ppm`], which the usable
/// term already discounts). A proposer that learns of a *live* accepted
/// lease held by someone else simply aborts and retries after the reported
/// remainder — values need never be adopted, because they expire on their
/// own. That is the entire diskless argument.
#[derive(Debug, Clone)]
pub struct Proposer {
    id: u32,
    cfg: QuorumConfig,
    round: u32,
    phase: Phase,
    claim: Option<Claim>,
    attempt: u32,
    /// Local instant before which no new round may start (backoff,
    /// observed remote lease, or restart recovery).
    next_attempt: Time,
}

impl Proposer {
    /// A proposer for replica `id`. `first_attempt` staggers the initial
    /// round so replicas don't stampede at boot.
    pub fn new(id: u32, cfg: QuorumConfig, first_attempt: Time) -> Proposer {
        Proposer {
            id,
            cfg,
            round: 0,
            phase: Phase::Idle,
            claim: None,
            attempt: 0,
            next_attempt: first_attempt,
        }
    }

    /// Whether this proposer currently claims the grantor lease at `now`.
    /// With fencing disabled (the injectable bug) an expired claim is
    /// still asserted.
    pub fn is_serving(&self, now: Time) -> bool {
        self.claim
            .is_some_and(|c| !self.cfg.fence || now < c.expires)
    }

    /// The local expiry of the current claim, if one is held.
    pub fn claim_expires(&self) -> Option<Time> {
        self.claim.map(|c| c.expires)
    }

    /// Crash-restart: all volatile state (round included) is lost, and no
    /// new round may start until `now + wait` of local time. Pass the same
    /// MaxTerm wait the acceptor uses.
    pub fn restart(&mut self, now: Time, wait: Dur) -> Vec<PropAction> {
        let mut out = Vec::new();
        if let Some(c) = self.claim.take() {
            // The claim truly ends at the crash: a dead grantor serves
            // nothing.
            out.push(PropAction::Ceded(c.b, Dur::ZERO));
        }
        self.round = 0;
        self.phase = Phase::Idle;
        self.attempt = 0;
        self.next_attempt = now + wait;
        out
    }

    /// Advances timers: expiry fencing, round timeouts, and round starts.
    pub fn tick(&mut self, now: Time) -> Vec<PropAction> {
        let mut out = Vec::new();
        if let Some(c) = self.claim {
            if self.cfg.fence && now >= c.expires {
                self.claim = None;
                out.push(PropAction::Ceded(c.b, now.saturating_since(c.expires)));
            }
        }
        if let Phase::Preparing { sent, .. } | Phase::Proposing { sent, .. } = self.phase {
            if now >= sent + self.cfg.op_timeout {
                self.back_off(now, Dur::ZERO);
            }
        }
        if matches!(self.phase, Phase::Idle) && now >= self.next_attempt {
            let renewal_due = self.claim.is_some_and(|c| now >= c.renew_at);
            if self.claim.is_none() || renewal_due {
                out.push(self.start_round(now));
            }
        }
        out
    }

    /// Handles a reply from acceptor `from`.
    pub fn on_reply(&mut self, now: Time, from: u32, msg: QuorumMsg) -> Vec<PropAction> {
        let mut out = Vec::new();
        match (msg, self.phase) {
            (
                QuorumMsg::Promise { b, accepted },
                Phase::Preparing {
                    b: cur,
                    sent,
                    mut promises,
                },
            ) if b == cur => {
                if let Some((_, holder, remaining)) = accepted {
                    if holder != self.id && !remaining.is_zero() {
                        // Someone else's grantor lease is live: stand down
                        // for at least its remainder. No adoption needed —
                        // it expires by itself.
                        self.back_off(now, remaining);
                        return out;
                    }
                }
                promises |= 1 << from;
                if promises.count_ones() >= self.cfg.majority() {
                    self.phase = Phase::Proposing {
                        b,
                        sent,
                        accepts: 0,
                    };
                    out.push(PropAction::Broadcast(QuorumMsg::Propose {
                        b,
                        holder: self.id,
                        term: self.cfg.term,
                    }));
                } else {
                    self.phase = Phase::Preparing { b, sent, promises };
                }
            }
            (
                QuorumMsg::Accept { b },
                Phase::Proposing {
                    b: cur,
                    sent,
                    mut accepts,
                },
            ) if b == cur => {
                accepts |= 1 << from;
                if accepts.count_ones() >= self.cfg.majority() {
                    let usable = self.cfg.usable_term();
                    let fresh = match self.claim.take() {
                        Some(old) => {
                            // Renewal: a still-live claim hands over to the
                            // new one with no gap (same replica, so no
                            // hazard either way; overshoot zero). A claim
                            // that had already lapsed does not chain — that
                            // serving session broke at its expiry, so the
                            // cede is backdated to the true lapse instant,
                            // not the (later) accept-quorum instant.
                            out.push(PropAction::Ceded(old.b, now.saturating_since(old.expires)));
                            now >= old.expires
                        }
                        None => true,
                    };
                    self.claim = Some(Claim {
                        b,
                        expires: sent + usable,
                        renew_at: sent + usable.mul_f64(self.cfg.renew_frac),
                    });
                    self.phase = Phase::Idle;
                    self.attempt = 0;
                    out.push(PropAction::Acquired { b, fresh });
                } else {
                    self.phase = Phase::Proposing { b, sent, accepts };
                }
            }
            (QuorumMsg::PrepareNack { b, promised }, Phase::Preparing { b: cur, .. })
            | (QuorumMsg::ProposeNack { b, promised }, Phase::Proposing { b: cur, .. })
                if b == cur =>
            {
                // Adopt the competing round so the next attempt outbids it.
                self.round = self.round.max(promised.round);
                self.back_off(now, Dur::ZERO);
            }
            // Stale replies (finished or aborted rounds) are dropped.
            _ => {}
        }
        out
    }

    fn start_round(&mut self, now: Time) -> PropAction {
        self.round += 1;
        let b = Ballot::new(self.round, self.id);
        self.phase = Phase::Preparing {
            b,
            sent: now,
            promises: 0,
        };
        PropAction::Broadcast(QuorumMsg::Prepare { b })
    }

    /// Aborts the in-flight round and schedules the next attempt after the
    /// jittered backoff — or after an observed remote lease's remainder,
    /// whichever is longer.
    fn back_off(&mut self, now: Time, hold: Dur) {
        self.phase = Phase::Idle;
        self.attempt = self.attempt.saturating_add(1);
        let salt = (u64::from(self.id) << 32) | u64::from(self.attempt);
        let pause = self
            .cfg
            .backoff
            .interval(self.cfg.retry_base, self.attempt, salt);
        self.next_attempt = now + pause.max(hold);
    }
}
