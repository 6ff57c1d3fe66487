//! The grantor quorum as the simulator hosts it.
//!
//! Under [`SystemConfig::quorum`](crate::SystemConfig::quorum) actors
//! `0..replicas` are [`ServerActor`](crate::ServerActor)s, each running a
//! `lease-quorum` [`GrantorNode`](lease_quorum::GrantorNode) beside its
//! lease server, and the
//! election rides the one [`SimNet`](crate::SimNet) as
//! [`NetMsg::Quorum`](crate::NetMsg::Quorum). A replica handles no client
//! message and fires no server timer while its node holds no claim. What
//! the replicas share with the clients is [`Grantors`]: which replica
//! holds a claim, read by each client to pick where its message goes.

use std::cell::Cell;
use std::rc::Rc;

use lease_clock::{Dur, Time};
use lease_faults::FaultPlan;
use lease_quorum::QuorumConfig;
use lease_sim::ActorId;

use crate::SystemConfig;

/// The timer key a replica's node ticks on; no server's own key.
pub(crate) const GRANTOR_TICK: u64 = u64::MAX;

/// How often a replica's node ticks, in true time.
pub(crate) const TICK: Dur = Dur::from_millis(1);

/// The quorum of one run: its tuning, the plan's cuts, and which replica
/// holds a grantor claim, as each replica publishes its own.
pub struct Grantors {
    pub(crate) quorum: QuorumConfig,
    plan: FaultPlan,
    /// Whether each replica holds a claim, from its acquisition to the
    /// cede its node notices (at the latest one tick after expiry); the
    /// replica writes its own.
    pub(crate) held: Vec<Cell<bool>>,
}

impl Grantors {
    /// The quorum `cfg` asks for, none of its replicas holding a claim
    /// yet; `None` without one.
    pub(crate) fn new(cfg: &SystemConfig) -> Option<Rc<Grantors>> {
        let quorum = cfg.quorum.clone()?;
        let held = vec![Cell::new(false); quorum.replicas as usize];
        let plan = cfg.faults.clone();
        Some(Rc::new(Grantors { quorum, plan, held }))
    }

    /// Whether the link between replicas `a` and `b` is cut at `now`.
    pub(crate) fn cut(&self, a: usize, b: usize, now: Time) -> bool {
        self.plan
            .replica_link_cut(a, b, now.saturating_since(Time::ZERO))
    }

    /// Where a client's message sent at `now` goes: to the server (actor
    /// 0), or under a quorum to the first replica that holds a claim and
    /// whose link is up (the real-time runtime's router tries the one that
    /// answered last first). `None` drops it, and the client's
    /// retransmission is the failover.
    pub(crate) fn route(quorum: &Option<Rc<Grantors>>, now: Time) -> Option<ActorId> {
        let Some(g) = quorum else {
            return Some(ActorId(0));
        };
        (0..g.held.len())
            .find(|&r| g.held[r].get() && !g.cut(r, r, now))
            .map(ActorId)
    }
}
