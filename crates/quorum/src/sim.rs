//! Deterministic virtual-time simulation of a grantor quorum under a
//! fault plan.
//!
//! The real-time runtime can only *approximately* replay a
//! [`FaultPlan`] (thread scheduling adds noise); this harness replays it
//! exactly on `lease-sim`'s [`World`], the event loop the file-system
//! simulator runs on: each replica is an actor around its
//! [`GrantorNode`] and [`ClockModel`], and a small [`Medium`] applies the
//! plan's replica cuts and deterministic per-link dice. The same
//! `(plan, config)` pair always yields the same [`History`], which makes
//! ≥100-seed sweeps cheap enough for CI and lets a failing seed be
//! replayed under a debugger.

use lease_clock::{ClockModel, Dur, Time};
use lease_faults::{history, Delivery, FaultPlan, History, HistoryEvent, LinkChaos, SharedHistory};
use lease_sim::{Actor, ActorId, Ctx, Dest, Medium, SimRng, TimerId, World};

use crate::msg::QuorumMsg;
use crate::node::{GrantorNode, NodeOut, QuorumConfig};

/// Node timer granularity.
const TICK: Dur = Dur::from_millis(1);
/// Base one-way propagation delay between replicas.
const WIRE: Dur = Dur::from_millis(1);

/// One simulated run's shape.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The quorum tuning (replica count included).
    pub quorum: QuorumConfig,
    /// The fault schedule; only its replica-level faults and seed apply.
    pub plan: FaultPlan,
    /// How much true time to simulate.
    pub duration: Dur,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            quorum: QuorumConfig::default(),
            plan: FaultPlan::new(0),
            duration: Dur::from_secs(10),
        }
    }
}

/// What a simulated run produced.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// The grantor claim history, on the true timeline — feed it to
    /// `lease_faults::check_history`.
    pub history: History,
    /// Protocol messages sent (before drops/duplication).
    pub messages_sent: u64,
    /// Successful grantor(-lease) acquisitions, renewals included.
    pub acquisitions: u32,
}

/// The replica network: send-time cuts, the plan's per-directed-pair
/// dice, then the wire.
struct ReplicaNet {
    plan: FaultPlan,
    links: Vec<Vec<LinkChaos>>,
}

impl Medium<QuorumMsg> for ReplicaNet {
    fn route(
        &mut self,
        now: Time,
        _rng: &mut SimRng,
        from: ActorId,
        dest: Dest,
        msg: QuorumMsg,
        out: &mut Vec<lease_sim::Delivery<QuorumMsg>>,
    ) {
        let Dest::One(to) = dest else {
            unreachable!("replicas only unicast")
        };
        let elapsed = now.saturating_since(Time::ZERO);
        if self.plan.replica_link_cut(from.0, to.0, elapsed) {
            return;
        }
        if let Delivery::Deliver { delay, copies } = self.links[from.0][to.0].next() {
            for _ in 0..copies {
                out.push(lease_sim::Delivery {
                    at: now + WIRE + delay,
                    to,
                    msg,
                });
            }
        }
    }
}

/// One replica as a world actor.
struct Replica {
    node: GrantorNode,
    clock: ClockModel,
    plan: FaultPlan,
    history: SharedHistory,
    /// Protocol messages this replica sent, crashes included.
    sent: u64,
}

impl Replica {
    fn tick(&mut self, ctx: &mut Ctx<'_, QuorumMsg>) {
        ctx.set_timer_in(TICK, 0);
        let outs = self.node.tick(self.clock.local(ctx.now()));
        self.emit(ctx, outs);
    }

    fn emit(&mut self, ctx: &mut Ctx<'_, QuorumMsg>, outs: Vec<NodeOut>) {
        let (replica, at) = (ctx.me().0 as u32, ctx.now());
        for o in outs {
            let event = match o {
                NodeOut::Send { to, msg } => {
                    self.sent += 1;
                    ctx.send(ActorId(to as usize), msg);
                    continue;
                }
                NodeOut::Acquired { ballot, .. } => HistoryEvent::GrantorAcquired {
                    replica,
                    ballot: ballot.as_u64(),
                    at,
                },
                // The node noticed the end `overshoot` (local time) after
                // it happened; backdate onto the true timeline through the
                // replica's clock model.
                NodeOut::Ceded { ballot, overshoot } => HistoryEvent::GrantorCeded {
                    replica,
                    ballot: ballot.as_u64(),
                    at: self.clock.true_before(at, overshoot),
                },
            };
            self.history.borrow_mut().push(event);
        }
    }
}

impl Actor<QuorumMsg> for Replica {
    fn on_start(&mut self, ctx: &mut Ctx<'_, QuorumMsg>) {
        self.tick(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, QuorumMsg>, _: TimerId, _: u64) {
        self.tick(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, QuorumMsg>, from: ActorId, msg: QuorumMsg) {
        // A cut severs delivery too: messages in flight when the
        // partition drops are lost at the cut endpoint.
        let elapsed = ctx.now().saturating_since(Time::ZERO);
        if self.plan.replica_link_cut(from.0, ctx.me().0, elapsed) {
            return;
        }
        let local = self.clock.local(ctx.now());
        let outs = self.node.handle(local, from.0 as u32, msg);
        self.emit(ctx, outs);
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_, QuorumMsg>) {
        let outs = self.node.restart(self.clock.local(ctx.now()));
        self.emit(ctx, outs);
        // The crash discarded the pending tick.
        ctx.set_timer_in(TICK, 0);
    }
}

/// Runs one simulation to completion.
pub fn run(cfg: &SimConfig) -> SimOutcome {
    let n = cfg.quorum.replicas as usize;
    let net = ReplicaNet {
        plan: cfg.plan.clone(),
        links: (0..n)
            .map(|i| (0..n).map(|j| cfg.plan.replica_link(i, j)).collect())
            .collect(),
    };
    let mut world = World::new(cfg.plan.seed, net);
    let history = history::shared();
    for i in 0..n {
        world.add_actor(Replica {
            node: GrantorNode::new(i as u32, cfg.quorum.clone()),
            clock: cfg.plan.replica_clock(i).unwrap_or_default(),
            plan: cfg.plan.clone(),
            history: history.clone(),
            sent: 0,
        });
    }
    // A kill is a crash and a restart at one instant.
    for &(when, replica) in cfg.plan.replica_kills.iter().filter(|k| k.1 < n) {
        world.schedule_crash(Time::ZERO + when, ActorId(replica));
        world.schedule_recover(Time::ZERO + when, ActorId(replica));
    }
    world.run_until(Time::ZERO + cfg.duration);

    let history = history.borrow().clone();
    let acquisitions = history
        .events
        .iter()
        .filter(|e| matches!(e, HistoryEvent::GrantorAcquired { .. }))
        .count() as u32;
    let sent = |i| world.actor::<Replica>(ActorId(i)).map_or(0, |r| r.sent);
    SimOutcome {
        messages_sent: (0..n).map(sent).sum(),
        acquisitions,
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_run_elects_and_renews_one_grantor() {
        let out = run(&SimConfig::default());
        assert!(out.acquisitions >= 2, "election plus renewals expected");
        // All claims belong to replica 0 (the stagger winner) and close
        // cleanly or run to the end.
        for e in &out.history.events {
            match e {
                HistoryEvent::GrantorAcquired { replica, .. }
                | HistoryEvent::GrantorCeded { replica, .. } => assert_eq!(*replica, 0),
                other => panic!("unexpected event {other:?}"),
            }
        }
    }

    #[test]
    fn same_seed_same_history() {
        let cfg = SimConfig {
            plan: FaultPlan::new(1234)
                .kill_replica(Dur::from_millis(700), 0)
                .drop_messages(0.1)
                .delay_messages(Dur::from_millis(5)),
            ..SimConfig::default()
        };
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.history.events, b.history.events);
        assert_eq!(a.messages_sent, b.messages_sent);
    }

    fn acquired_after(out: &SimOutcome, after: Time) -> Vec<u32> {
        out.history
            .events
            .iter()
            .filter_map(|e| match e {
                HistoryEvent::GrantorAcquired { replica, at, .. } if *at > after => Some(*replica),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn killed_leader_hands_over() {
        let cfg = SimConfig {
            plan: FaultPlan::new(7).kill_replica(Dur::from_millis(300), 0),
            ..SimConfig::default()
        };
        let out = run(&cfg);
        let successors = acquired_after(&out, Time::from_millis(300));
        assert!(
            successors.iter().any(|r| *r != 0),
            "another replica must take over: {:?}",
            out.history.events
        );
    }

    /// Replica 0 broadcasts its first prepare at 0 and it lands at 1 ms.
    /// Cutting both receivers from 0.5 ms loses it in flight: neither
    /// answers, so only the two prepares were ever sent.
    #[test]
    fn a_message_in_flight_when_its_receivers_cut_begins_is_lost() {
        let sent = |plan: FaultPlan| {
            run(&SimConfig {
                plan,
                duration: Dur::from_micros(1500),
                ..SimConfig::default()
            })
            .messages_sent
        };
        assert_eq!(sent(FaultPlan::new(0)), 4, "two prepares, two promises");
        let (from, until) = (Dur::from_micros(500), Dur::from_millis(100));
        let plan = FaultPlan::new(0)
            .cut_replica(from, until, 1)
            .cut_replica(from, until, 2);
        assert_eq!(sent(plan), 2, "the prepares were lost in flight");
    }

    /// With every replica restarted at once, nobody may promise for
    /// `max_term`; after that the restarted ticks must elect again.
    #[test]
    fn killing_every_replica_still_elects_after_max_term() {
        let kill = Dur::from_millis(500);
        let plan = (0..3).fold(FaultPlan::new(3), |p, r| p.kill_replica(kill, r));
        let out = run(&SimConfig {
            plan,
            duration: Dur::from_secs(4),
            ..SimConfig::default()
        });
        let after = Time::ZERO + kill + QuorumConfig::default().max_term;
        assert!(
            !acquired_after(&out, after).is_empty(),
            "no grantor after {after}: {:?}",
            out.history.events
        );
    }
}
