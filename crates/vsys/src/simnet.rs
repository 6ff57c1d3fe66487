//! The simulated network medium.
//!
//! The paper (Gray & Cheriton, SOSP 1989, §3.1) charges communication with
//! two parameters: a propagation delay `m_prop` and a per-message processing
//! time `m_proc` spent on the critical path at both sender and receiver, so
//! that a unicast request–response costs `2·m_prop + 4·m_proc` and a
//! multicast with `n` replies costs `2·m_prop + (n+3)·m_proc` — the replies
//! serialize through the originator's CPU ("implosion of responses", §4).
//!
//! [`SimNet`] reproduces exactly that cost model by giving every host a CPU
//! that processes one message at a time, plus per-host extra propagation
//! delay for wide-area experiments (§3.3). Its failure modes — loss,
//! duplication, delay jitter and cut links — come from the same
//! [`FaultPlan`] the real-time runtime reads, so one plan describes a fault
//! in both worlds.

use lease_clock::{Dur, Time};
use lease_core::FxMap;
use lease_faults::FaultPlan;
use lease_sim::{ActorId, Delivery, Dest, Medium, SimRng};

use crate::params::NetParams;

/// A network medium with the paper's `m_prop`/`m_proc` cost model.
///
/// Every host owns a CPU that handles one message at a time: a send costs
/// `m_proc` at the sender, the wire costs `m_prop` (plus any per-host extra
/// propagation), and a receive costs `m_proc` at the receiver, queued behind
/// whatever the receiver's CPU is already doing. A multicast pays the send
/// `m_proc` once, which is what makes multicast approval requests cheaper
/// than per-holder unicasts (§3.1, footnote 6).
///
/// Faults are applied per message at send time from the attached
/// [`FaultPlan`], the plan the real-time runtime reads: its client `cuts`
/// and replica 0's cuts (actor 0 is the server, actor `1 + i` client
/// `i`), `drop_prob`, `delay_max` as extra propagation uniform in
/// `[0, delay_max)`, and `dup_prob`. The draws come from the world's
/// stream, not the plan's seed.
///
/// # Examples
///
/// ```
/// use lease_clock::{Dur, Time};
/// use lease_vsys::{NetParams, SimNet};
/// use lease_sim::{Dest, Medium, SimRng};
/// use lease_sim::ActorId;
///
/// let params = NetParams { m_prop: Dur::from_micros(500), m_proc: Dur::from_micros(500) };
/// let mut net = SimNet::new(params);
/// let mut rng = SimRng::seed(0);
/// let mut d = Vec::new();
/// net.route(Time::ZERO, &mut rng, ActorId(0), Dest::One(ActorId(1)), (), &mut d);
/// // One m_proc at the sender, m_prop on the wire, one m_proc at the receiver.
/// assert_eq!(d[0].at, Time::from_micros(1500));
/// ```
pub struct SimNet {
    params: NetParams,
    faults: FaultPlan,
    /// Extra one-way propagation applied to any message to or from a host
    /// (models distant clients, §3.3/§4).
    extra_prop: FxMap<ActorId, Dur>,
    /// When each host's CPU becomes free.
    cpu_free: FxMap<ActorId, Time>,
    /// Sends routed (unicast counts 1, multicast counts 1).
    pub sends: u64,
    /// Deliveries scheduled.
    pub deliveries: u64,
    /// Messages lost to probabilistic loss or partitions.
    pub lost: u64,
}

impl SimNet {
    /// Creates a fault-free network with the given timing parameters.
    pub fn new(params: NetParams) -> SimNet {
        SimNet {
            params,
            faults: FaultPlan::default(),
            extra_prop: FxMap::default(),
            cpu_free: FxMap::default(),
            sends: 0,
            deliveries: 0,
            lost: 0,
        }
    }

    /// Attaches a fault plan. Jittered deliveries on one link may
    /// reorder.
    pub fn with_faults(mut self, faults: FaultPlan) -> SimNet {
        self.faults = faults;
        self
    }

    /// Adds extra one-way propagation for messages to or from `host`.
    pub fn with_extra_prop(mut self, host: ActorId, extra: Dur) -> SimNet {
        self.extra_prop.insert(host, extra);
        self
    }

    /// The timing parameters in force.
    pub fn params(&self) -> NetParams {
        self.params
    }

    fn prop_between(&self, a: ActorId, b: ActorId) -> Dur {
        let extra = self.extra_prop.get(&a).copied().unwrap_or(Dur::ZERO)
            + self.extra_prop.get(&b).copied().unwrap_or(Dur::ZERO);
        self.params.m_prop + extra
    }

    /// Whether `host`'s link is cut at `now`: the server is replica 0,
    /// actor `1 + i` is client `i`.
    fn cut(&self, now: Time, host: ActorId) -> bool {
        let elapsed = now.saturating_since(Time::ZERO);
        match host.0 {
            0 => self.faults.replica_link_cut(0, 0, elapsed),
            a => self.faults.cut_active(a - 1, elapsed),
        }
    }

    fn occupy_cpu(&mut self, host: ActorId, ready: Time) -> Time {
        let free = self.cpu_free.entry(host).or_insert(Time::ZERO);
        let start = ready.max(*free);
        let done = start + self.params.m_proc;
        *free = done;
        done
    }

    /// Routes one recipient's share of a send: cut, loss, timing,
    /// duplication. The fault dice roll in a fixed order per recipient
    /// (loss, then jitter, then duplication) so runs are bit-identical
    /// whatever the message type or copy strategy.
    #[allow(clippy::too_many_arguments)] // private helper: every arg is hot-path state
    fn route_one<M: Clone>(
        &mut self,
        now: Time,
        rng: &mut SimRng,
        from: ActorId,
        to: ActorId,
        send_done: Time,
        msg: M,
        out: &mut Vec<Delivery<M>>,
    ) {
        if self.cut(now, from) || self.cut(now, to) || rng.chance(self.faults.drop_prob) {
            self.lost += 1;
            return;
        }
        if to == from {
            // Loopback: no wire, but still a receive-side processing slot.
            let at = self.occupy_cpu(to, send_done);
            self.deliveries += 1;
            out.push(Delivery { at, to, msg });
            return;
        }
        let mut arrive = send_done + self.prop_between(from, to);
        if !self.faults.delay_max.is_zero() {
            arrive += Dur(rng.below(self.faults.delay_max.as_nanos()));
        }
        let at = self.occupy_cpu(to, arrive);
        self.deliveries += 1;
        if rng.chance(self.faults.dup_prob) {
            // The only unicast case that genuinely needs a copy.
            let dup_at = self.occupy_cpu(to, at);
            self.deliveries += 1;
            out.push(Delivery {
                at,
                to,
                msg: msg.clone(),
            });
            out.push(Delivery {
                at: dup_at,
                to,
                msg,
            });
        } else {
            out.push(Delivery { at, to, msg });
        }
    }
}

impl<M: Clone> Medium<M> for SimNet {
    fn route(
        &mut self,
        now: Time,
        rng: &mut SimRng,
        from: ActorId,
        dest: Dest,
        msg: M,
        out: &mut Vec<Delivery<M>>,
    ) {
        self.sends += 1;
        // One send-side m_proc, paid once even for multicast.
        let send_done = self.occupy_cpu(from, now);
        match dest {
            // The unicast fast path moves the message: zero clones unless
            // a duplication fault fires.
            Dest::One(to) => self.route_one(now, rng, from, to, send_done, msg, out),
            Dest::Many(tos) => {
                // n recipients cost n-1 clones: the last takes the original.
                let mut msg = Some(msg);
                let last = tos.len().wrapping_sub(1);
                for (i, to) in tos.into_iter().enumerate() {
                    let m = if i == last {
                        msg.take().expect("original still held")
                    } else {
                        msg.clone().expect("original still held")
                    };
                    self.route_one(now, rng, from, to, send_done, m, out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> SimNet {
        SimNet::new(NetParams::v_lan())
    }

    fn rng() -> SimRng {
        SimRng::seed(42)
    }

    /// Collects the out-buffer form back into a `Vec` for assertions.
    fn send<M: Clone>(
        n: &mut SimNet,
        now: Time,
        r: &mut SimRng,
        from: ActorId,
        dest: Dest,
        msg: M,
    ) -> Vec<Delivery<M>> {
        let mut out = Vec::new();
        n.route(now, r, from, dest, msg, &mut out);
        out
    }

    const A: ActorId = ActorId(0);
    const B: ActorId = ActorId(1);
    const C: ActorId = ActorId(2);

    #[test]
    fn unicast_latency_is_prop_plus_two_proc() {
        let mut n = net();
        let d = send(&mut n, Time::ZERO, &mut rng(), A, Dest::One(B), ());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].at, Time::ZERO + NetParams::v_lan().one_way());
    }

    #[test]
    fn request_response_costs_paper_round_trip() {
        // A sends to B at t0; B replies the instant it processes the message.
        let mut n = net();
        let mut r = rng();
        let d1 = send(&mut n, Time::ZERO, &mut r, A, Dest::One(B), ());
        let got = d1[0].at;
        let d2 = send(&mut n, got, &mut r, B, Dest::One(A), ());
        assert_eq!(d2[0].at, Time::ZERO + NetParams::v_lan().round_trip());
    }

    #[test]
    fn multicast_replies_serialize_at_originator() {
        // A multicasts to n hosts; all reply. The last reply lands at
        // 2*m_prop + (n+3)*m_proc, the paper's multicast cost.
        let n_replies = 5u64;
        let mut n = net();
        let mut r = rng();
        let members: Vec<ActorId> = (1..=n_replies as usize).map(ActorId).collect();
        let reqs = send(
            &mut n,
            Time::ZERO,
            &mut r,
            A,
            Dest::Many(members.clone()),
            (),
        );
        assert_eq!(reqs.len(), n_replies as usize);
        let mut last = Time::ZERO;
        for d in reqs {
            let replies = send(&mut n, d.at, &mut r, d.to, Dest::One(A), ());
            last = last.max(replies[0].at);
        }
        assert_eq!(
            last,
            Time::ZERO + NetParams::v_lan().multicast_round(n_replies)
        );
    }

    #[test]
    fn sender_cpu_serializes_back_to_back_sends() {
        let mut n = net();
        let mut r = rng();
        let d1 = send(&mut n, Time::ZERO, &mut r, A, Dest::One(B), ());
        let d2 = send(&mut n, Time::ZERO, &mut r, A, Dest::One(C), ());
        // The second send waits for the sender CPU to finish the first.
        assert_eq!(d2[0].at, d1[0].at + NetParams::v_lan().m_proc);
    }

    #[test]
    fn loopback_skips_the_wire() {
        let mut n = net();
        let d = send(&mut n, Time::ZERO, &mut rng(), A, Dest::One(A), ());
        // Send m_proc + receive m_proc, no m_prop.
        assert_eq!(d[0].at, Time::ZERO + NetParams::v_lan().m_proc * 2);
    }

    #[test]
    fn total_loss_drops_everything() {
        let mut n = net().with_faults(FaultPlan::new(0).drop_messages(1.0));
        let d = send(&mut n, Time::ZERO, &mut rng(), A, Dest::One(B), ());
        assert!(d.is_empty());
        assert_eq!(n.lost, 1);
    }

    #[test]
    fn partition_blocks_cross_island_traffic() {
        // B is client 0: cutting it isolates it in both directions.
        let plan = FaultPlan::new(0).cut(Dur::ZERO, Dur::from_secs(10), 0);
        let mut n = net().with_faults(plan);
        let mut r = rng();
        assert!(send(&mut n, Time::from_secs(1), &mut r, A, Dest::One(B), ()).is_empty());
        assert!(send(&mut n, Time::from_secs(1), &mut r, B, Dest::One(A), ()).is_empty());
        // Traffic of a client outside the cut flows.
        assert_eq!(
            send(&mut n, Time::from_secs(1), &mut r, A, Dest::One(C), ()).len(),
            1
        );
        // After healing, traffic flows again.
        assert_eq!(
            send(&mut n, Time::from_secs(11), &mut r, A, Dest::One(B), ()).len(),
            1
        );
    }

    #[test]
    fn a_server_cut_is_replica_zeros() {
        let plan = FaultPlan::new(0).cut_replica(Dur::ZERO, Dur::from_secs(10), 0);
        let mut n = net().with_faults(plan);
        let mut r = rng();
        assert!(send(&mut n, Time::from_secs(1), &mut r, B, Dest::One(A), ()).is_empty());
        assert_eq!(n.lost, 1);
        // Another replica's cut is not the server's.
        let plan = FaultPlan::new(0).cut_replica(Dur::ZERO, Dur::from_secs(10), 1);
        let mut n = net().with_faults(plan);
        assert_eq!(
            send(&mut n, Time::from_secs(1), &mut r, B, Dest::One(A), ()).len(),
            1
        );
    }

    #[test]
    fn duplication_delivers_twice() {
        let mut n = net().with_faults(FaultPlan::new(0).duplicate_messages(1.0));
        let d = send(&mut n, Time::ZERO, &mut rng(), A, Dest::One(B), ());
        assert_eq!(d.len(), 2);
        assert!(d[1].at > d[0].at);
    }

    #[test]
    fn extra_prop_slows_distant_host() {
        let mut n = net().with_extra_prop(B, Dur::from_millis(50));
        let mut r = rng();
        let d = send(&mut n, Time::ZERO, &mut r, A, Dest::One(B), ());
        assert_eq!(
            d[0].at,
            Time::ZERO + NetParams::v_lan().one_way() + Dur::from_millis(50)
        );
        // C is unaffected: only its own CPU contention applies.
        let d2 = send(&mut n, Time::from_secs(1), &mut r, A, Dest::One(C), ());
        assert_eq!(d2[0].at, Time::from_secs(1) + NetParams::v_lan().one_way());
    }

    #[test]
    fn jitter_spreads_and_can_reorder_deliveries() {
        let mut n = net().with_faults(FaultPlan::new(0).delay_messages(Dur::from_millis(20)));
        let mut r = rng();
        let mut times = Vec::new();
        for i in 0..40u64 {
            let d = send(
                &mut n,
                Time::from_millis(i * 100),
                &mut r,
                A,
                Dest::One(B),
                (),
            );
            times.push(d[0].at);
        }
        // All deliveries respect the floor (base latency, no negative jitter).
        for (i, t) in times.iter().enumerate() {
            assert!(*t >= Time::from_millis(i as u64 * 100) + NetParams::v_lan().one_way());
        }
        // And the added jitter is not constant.
        let gaps: std::collections::BTreeSet<u64> = times
            .iter()
            .enumerate()
            .map(|(i, t)| t.as_nanos() - (i as u64 * 100_000_000))
            .collect();
        assert!(gaps.len() > 5, "jitter should vary");
    }

    #[test]
    fn counters_track_traffic() {
        let mut n = net();
        let mut r = rng();
        send(&mut n, Time::ZERO, &mut r, A, Dest::Many(vec![B, C]), ());
        assert_eq!(n.sends, 1);
        assert_eq!(n.deliveries, 2);
    }

    /// A payload whose clones tattle: cloning it is observable.
    #[derive(Debug)]
    struct Tattle(std::rc::Rc<std::cell::Cell<u32>>);
    impl Clone for Tattle {
        fn clone(&self) -> Tattle {
            self.0.set(self.0.get() + 1);
            Tattle(std::rc::Rc::clone(&self.0))
        }
    }

    #[test]
    fn unicast_moves_the_message_without_cloning() {
        let clones = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut n = net();
        let d = send(
            &mut n,
            Time::ZERO,
            &mut rng(),
            A,
            Dest::One(B),
            Tattle(std::rc::Rc::clone(&clones)),
        );
        assert_eq!(d.len(), 1);
        assert_eq!(clones.get(), 0, "a single recipient needs no copy");
    }

    #[test]
    fn duplication_fault_costs_exactly_one_clone() {
        let clones = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut n = net().with_faults(FaultPlan::new(0).duplicate_messages(1.0));
        let d = send(
            &mut n,
            Time::ZERO,
            &mut rng(),
            A,
            Dest::One(B),
            Tattle(std::rc::Rc::clone(&clones)),
        );
        assert_eq!(d.len(), 2);
        assert_eq!(clones.get(), 1, "only the duplicate is a copy");
    }

    #[test]
    fn multicast_clones_exactly_recipients_minus_one() {
        let clones = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut n = net();
        let d = send(
            &mut n,
            Time::ZERO,
            &mut rng(),
            A,
            Dest::Many(vec![B, C, ActorId(3)]),
            Tattle(std::rc::Rc::clone(&clones)),
        );
        assert_eq!(d.len(), 3);
        assert_eq!(clones.get(), 2, "the last recipient takes the original");
    }
}
