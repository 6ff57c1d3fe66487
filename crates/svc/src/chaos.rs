//! Deterministic, seeded fault plans: the one fault vocabulary of the
//! repo, read by the real-time runtime and by both simulators.
//!
//! The simulators get determinism for free — one event queue, one RNG.
//! The real-time runtime does not, so this module makes its fault
//! *decisions* deterministic even though thread interleavings are not:
//! every per-link coin flip is a pure function of `(seed, stream,
//! counter)`, kills fire at plan-relative instants, and clock faults are
//! `lease-clock` models applied to whole hosts. Re-running a seed replays
//! the same fault pattern modulo scheduling noise, and sweeping seeds
//! explores distinct patterns.
//!
//! `lease-quorum`'s virtual-time sim replays a plan's replica kills,
//! cuts, clocks and per-link dice exactly. `lease-net`'s `SimNet` (under
//! `lease-vsys`) reads its loss, duplication, delay and client / replica-0
//! cuts, drawing from the world's own stream, and `lease-vsys` refuses
//! the fields it cannot honour yet rather than ignore them.
//!
//! The plan is deliberately transport-agnostic: `lease-rt` consults
//! [`LinkChaos`] on every client↔server delivery and a driver thread
//! replays [`FaultPlan::kills`] through
//! [`SvcHandle::kill_shard`](crate::SvcHandle::kill_shard), while the
//! clock models ride into the service via
//! [`SvcHooks::clock`](crate::SvcHooks) and into clients via their clock
//! parameter.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Once;

use lease_clock::{ClockModel, Dur};

use crate::shard::INJECTED_KILL;

/// A seeded schedule of faults to inject into one run.
///
/// All instants are relative to the start of the run. The default plan is
/// fault-free; builders add one fault class at a time.
///
/// Faults come at two granularities:
///
/// * **shard-level** ([`FaultPlan::kill_shard`]) — panic the worker that
///   owns one shard (on every replica, where there are several); the
///   supervisor restarts it through §5 MaxTerm recovery.
/// * **host-level** ([`FaultPlan::kill_replica`], [`FaultPlan::cut_replica`],
///   [`FaultPlan::with_replica_clock`]) — crash, isolate, or clock-skew a
///   whole server. A deployment without a grantor quorum has one, and it
///   is replica 0. Replica indices live in their own namespace; they are
///   **not** shard ids.
///
/// # Examples
///
/// ```
/// use lease_clock::Dur;
/// use lease_svc::chaos::FaultPlan;
///
/// let plan = FaultPlan::new(42)
///     .kill_shard(Dur::from_millis(300), 0)
///     .drop_messages(0.05)
///     .delay_messages(Dur::from_millis(10));
/// let link = plan.link(7);
/// // Deterministic: the same seed and stream give the same decisions.
/// assert_eq!(link.next(), FaultPlan::new(42).drop_messages(0.05)
///     .delay_messages(Dur::from_millis(10)).link(7).next());
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Root seed; every derived decision stream mixes it in.
    pub seed: u64,
    /// `(when, shard)`: panic shard `shard`'s worker at `when`.
    pub kills: Vec<(Dur, usize)>,
    /// Probability a delivered message is silently dropped.
    pub drop_prob: f64,
    /// Probability a delivered message is delivered twice.
    pub dup_prob: f64,
    /// Extra latency per delivery, uniform in `[0, delay_max]`.
    pub delay_max: Dur,
    /// `(from, until, client)`: windows in which `client`'s link is cut in
    /// both directions — the generalization of the boolean cut switch.
    pub cuts: Vec<(Dur, Dur, usize)>,
    /// Per-client clock models as `(client index, model)` pairs.
    pub client_clocks: Vec<(usize, ClockModel)>,
    /// Open-loop overload scenario driving the load generator, if any.
    pub overload: Option<OverloadPlan>,
    /// `(shard, per_input)`: make one shard worker sleep `per_input`
    /// after every processed input, bounding its throughput — the
    /// slow-shard injection behind
    /// [`SvcConfig::slow_shard`](crate::SvcConfig).
    pub slow_shard: Option<(usize, Dur)>,
    /// `(when, replica)`: crash-restart server replica `replica` at
    /// `when`. Host-level — distinct from [`FaultPlan::kills`], whose
    /// indices name shards *within* a server.
    pub replica_kills: Vec<(Dur, usize)>,
    /// `(from, until, replica)`: windows in which `replica` is partitioned
    /// from every peer (and from clients routed to it).
    pub replica_cuts: Vec<(Dur, Dur, usize)>,
    /// Per-replica clock models as `(replica index, model)` pairs; the
    /// server of a deployment without a quorum is replica 0.
    pub replica_clocks: Vec<(usize, ClockModel)>,
}

/// High bit namespace for replica↔replica decision streams, so quorum
/// traffic never collides with the client link streams (`client` and
/// `client | 1<<32`). See [`FaultPlan::replica_link`].
pub const REPLICA_STREAM: u64 = 1 << 33;

/// High bit namespace for open-loop arrival streams, independent of every
/// link stream. See [`FaultPlan::arrivals`].
pub const OVERLOAD_STREAM: u64 = 1 << 34;

/// An open-loop overload scenario: a load generator submits ops with
/// Poisson (exponential-gap) arrivals at `base_rate` ops/sec per stream,
/// surging to `burst_rate` during `[burst_at, burst_at + burst_len)`.
///
/// Open loop is the point: unlike a closed-loop generator, arrivals do
/// **not** slow down when the server does, so queues genuinely build and
/// shedding/pacing behaviour is observable. With `herd` set, every
/// arrival stream additionally aligns one arrival at exactly `burst_at`
/// — a thundering herd on top of the rate surge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadPlan {
    /// Steady-state arrival rate per stream, ops/sec.
    pub base_rate: f64,
    /// Arrival rate during the burst window, ops/sec.
    pub burst_rate: f64,
    /// Burst window start, relative to run start.
    pub burst_at: Dur,
    /// Burst window length.
    pub burst_len: Dur,
    /// Align one arrival of every stream at exactly `burst_at`.
    pub herd: bool,
}

impl OverloadPlan {
    /// The arrival rate in force at `elapsed` since run start.
    pub fn rate_at(&self, elapsed: Dur) -> f64 {
        if elapsed >= self.burst_at && elapsed < self.burst_at + self.burst_len {
            self.burst_rate
        } else {
            self.base_rate
        }
    }
}

/// One deterministic open-loop Poisson arrival stream (see
/// [`FaultPlan::arrivals`]): arrival `k` of stream `s` under seed `q` is
/// the same instant in every run.
#[derive(Debug)]
pub struct Arrivals {
    key: u64,
    counter: u64,
    plan: OverloadPlan,
    at: Dur,
    herded: bool,
}

impl Arrivals {
    /// The next arrival instant (relative to run start). Monotone
    /// non-decreasing; gaps are exponential with the rate in force at the
    /// previous arrival.
    pub fn next_at(&mut self) -> Dur {
        let rate = self.plan.rate_at(self.at);
        let u = unit(mix(self.key ^ self.counter));
        self.counter += 1;
        let gap = if rate > 0.0 {
            // Exponential inter-arrival gap; (1 - u) keeps ln away from 0.
            Dur::from_secs_f64((-(1.0 - u).ln() / rate).min(3600.0))
        } else {
            Dur::from_secs(3600)
        };
        let mut next = self.at + gap;
        // Thundering herd: the first gap that would step across the burst
        // start is clamped to it, so every stream fires together there.
        if self.plan.herd && !self.herded && self.at < self.plan.burst_at {
            self.herded = next >= self.plan.burst_at;
            if self.herded {
                next = self.plan.burst_at;
            }
        }
        self.at = next;
        next
    }
}

impl FaultPlan {
    /// A fault-free plan with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Adds a shard-level kill at `when`: panic the worker that owns
    /// shard `shard`, on every replica there is. For crashing a whole
    /// server, use [`FaultPlan::kill_replica`].
    pub fn kill_shard(mut self, when: Dur, shard: usize) -> FaultPlan {
        self.kills.push((when, shard));
        self
    }

    /// Adds a host-level kill at `when`: crash-restart replica `replica`,
    /// every service shard at once — and, under a grantor quorum, its
    /// quorum node with them (it forgets all volatile ballot state and
    /// must wait out MaxTerm before re-promising).
    pub fn kill_replica(mut self, when: Dur, replica: usize) -> FaultPlan {
        self.replica_kills.push((when, replica));
        self
    }

    /// Partitions replica `replica` from all peers during `[from, until)`.
    pub fn cut_replica(mut self, from: Dur, until: Dur, replica: usize) -> FaultPlan {
        self.replica_cuts.push((from, until, replica));
        self
    }

    /// Subjects grantor replica `replica` to `model`.
    pub fn with_replica_clock(mut self, replica: usize, model: ClockModel) -> FaultPlan {
        self.replica_clocks.push((replica, model));
        self
    }

    /// Sets the message-drop probability.
    pub fn drop_messages(mut self, p: f64) -> FaultPlan {
        self.drop_prob = p;
        self
    }

    /// Sets the message-duplication probability.
    pub fn duplicate_messages(mut self, p: f64) -> FaultPlan {
        self.dup_prob = p;
        self
    }

    /// Sets the maximum injected delivery delay.
    pub fn delay_messages(mut self, max: Dur) -> FaultPlan {
        self.delay_max = max;
        self
    }

    /// Cuts `client`'s link (both directions) during `[from, until)`.
    pub fn cut(mut self, from: Dur, until: Dur, client: usize) -> FaultPlan {
        self.cuts.push((from, until, client));
        self
    }

    /// Installs an open-loop overload scenario (see [`OverloadPlan`]).
    pub fn with_overload(mut self, plan: OverloadPlan) -> FaultPlan {
        self.overload = Some(plan);
        self
    }

    /// Makes shard `shard` sleep `per_input` after every processed input,
    /// bounding its throughput to roughly `1 / per_input` inputs/sec.
    pub fn with_slow_shard(mut self, shard: usize, per_input: Dur) -> FaultPlan {
        self.slow_shard = Some((shard, per_input));
        self
    }

    /// The deterministic open-loop arrival schedule for load stream
    /// `stream` (one per generator client), or `None` when the plan has
    /// no overload scenario. Distinct streams draw independent Poisson
    /// gaps from the same seed.
    pub fn arrivals(&self, stream: u64) -> Option<Arrivals> {
        self.overload.map(|plan| Arrivals {
            key: mix(self.seed ^ mix(stream ^ OVERLOAD_STREAM)),
            counter: 0,
            plan,
            at: Dur::ZERO,
            herded: false,
        })
    }

    /// Subjects the server to `model`: the server is replica 0, so this
    /// is [`FaultPlan::with_replica_clock`]`(0, model)`.
    pub fn with_server_clock(self, model: ClockModel) -> FaultPlan {
        self.with_replica_clock(0, model)
    }

    /// Subjects client `client` to `model`.
    pub fn with_client_clock(mut self, client: usize, model: ClockModel) -> FaultPlan {
        self.client_clocks.push((client, model));
        self
    }

    /// The deterministic fault decider for one link. `stream` names the
    /// link (e.g. `client_index` for server→client, `client_index | HI`
    /// for client→server); distinct streams draw independent decisions.
    pub fn link(&self, stream: u64) -> LinkChaos {
        LinkChaos {
            drop_prob: self.drop_prob,
            dup_prob: self.dup_prob,
            delay_max: self.delay_max,
            key: mix(self.seed ^ mix(stream)),
            counter: AtomicU64::new(0),
        }
    }

    /// Whether some cut window covers `client` at `elapsed` since start.
    pub fn cut_active(&self, client: usize, elapsed: Dur) -> bool {
        self.cuts
            .iter()
            .any(|&(from, until, c)| c == client && elapsed >= from && elapsed < until)
    }

    /// The clock model for client `client`, if the plan sets one.
    pub fn client_clock(&self, client: usize) -> Option<ClockModel> {
        self.client_clocks
            .iter()
            .find(|(c, _)| *c == client)
            .map(|(_, m)| m.clone())
    }

    /// Whether some replica-cut window covers `replica` at `elapsed`.
    /// Half-open like [`FaultPlan::cut_active`]: a link between replicas
    /// `i` and `j` is severed while *either* endpoint is cut.
    pub fn replica_cut_active(&self, replica: usize, elapsed: Dur) -> bool {
        self.replica_cuts
            .iter()
            .any(|&(from, until, r)| r == replica && elapsed >= from && elapsed < until)
    }

    /// The clock model for grantor replica `replica`, if the plan sets one.
    pub fn replica_clock(&self, replica: usize) -> Option<ClockModel> {
        self.replica_clocks
            .iter()
            .find(|(r, _)| *r == replica)
            .map(|(_, m)| m.clone())
    }

    /// The deterministic fault decider for the directed replica link
    /// `from → to`, in the [`REPLICA_STREAM`] namespace. Direction matters:
    /// `replica_link(0, 1)` and `replica_link(1, 0)` draw independently.
    pub fn replica_link(&self, from: usize, to: usize) -> LinkChaos {
        self.link(REPLICA_STREAM | ((from as u64) << 16) | to as u64)
    }
}

/// What a transport should do with one message on a chaotic link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Drop the message silently.
    Drop,
    /// Deliver after `delay`, `copies` times (1 = normal, 2 = duplicated).
    Deliver {
        /// Injected extra latency.
        delay: Dur,
        /// How many copies to deliver.
        copies: u32,
    },
}

/// Deterministic per-link fault dice: decision `k` on stream `s` of seed
/// `q` is the same in every run, regardless of thread interleaving on
/// *other* links.
#[derive(Debug)]
pub struct LinkChaos {
    drop_prob: f64,
    dup_prob: f64,
    delay_max: Dur,
    key: u64,
    counter: AtomicU64,
}

impl LinkChaos {
    /// Decides the fate of the next message on this link.
    pub fn next(&self) -> Delivery {
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        // Independent sub-draws for each decision from one counter value.
        if unit(mix(self.key ^ n.wrapping_mul(3))) < self.drop_prob {
            return Delivery::Drop;
        }
        let copies = if unit(mix(self.key ^ n.wrapping_mul(3).wrapping_add(1))) < self.dup_prob {
            2
        } else {
            1
        };
        let delay = if self.delay_max.is_zero() {
            Dur::ZERO
        } else {
            self.delay_max
                .mul_f64(unit(mix(self.key ^ n.wrapping_mul(3).wrapping_add(2))))
        };
        Delivery::Deliver { delay, copies }
    }
}

/// SplitMix64 finalizer.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from 64 random bits.
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Installs a process-wide panic hook that swallows the panics
/// [`SvcHandle::kill_shard`](crate::SvcHandle::kill_shard) injects —
/// they are expected and supervised, and a chaos sweep would otherwise
/// bury real output under backtraces. All other panics still reach the
/// previous hook. Safe to call repeatedly; only the first call installs.
pub fn silence_injected_kills() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.contains(INJECTED_KILL))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<&str>()
                        .map(|s| s.contains(INJECTED_KILL))
                })
                .unwrap_or(false);
            if !injected {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_decisions_are_deterministic_per_stream() {
        let plan = FaultPlan::new(9)
            .drop_messages(0.3)
            .duplicate_messages(0.2)
            .delay_messages(Dur::from_millis(50));
        let a: Vec<Delivery> = {
            let l = plan.link(1);
            (0..256).map(|_| l.next()).collect()
        };
        let b: Vec<Delivery> = {
            let l = plan.link(1);
            (0..256).map(|_| l.next()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<Delivery> = {
            let l = plan.link(2);
            (0..256).map(|_| l.next()).collect()
        };
        assert_ne!(a, c, "distinct streams should diverge");
        // Frequencies are in the right ballpark.
        let drops = a.iter().filter(|d| **d == Delivery::Drop).count();
        assert!((30..130).contains(&drops), "drops = {drops} of 256");
    }

    #[test]
    fn delays_are_bounded() {
        let plan = FaultPlan::new(5).delay_messages(Dur::from_millis(20));
        let l = plan.link(0);
        for _ in 0..1000 {
            match l.next() {
                Delivery::Deliver { delay, copies } => {
                    assert!(delay <= Dur::from_millis(20));
                    assert_eq!(copies, 1);
                }
                Delivery::Drop => panic!("no drops configured"),
            }
        }
    }

    #[test]
    fn cut_windows_cover_half_open_ranges() {
        let plan = FaultPlan::new(0).cut(Dur::from_millis(100), Dur::from_millis(200), 3);
        assert!(!plan.cut_active(3, Dur::from_millis(99)));
        assert!(plan.cut_active(3, Dur::from_millis(100)));
        assert!(plan.cut_active(3, Dur::from_millis(199)));
        assert!(!plan.cut_active(3, Dur::from_millis(200)));
        assert!(!plan.cut_active(2, Dur::from_millis(150)));
    }

    #[test]
    fn replica_faults_live_in_their_own_namespace() {
        let plan = FaultPlan::new(1)
            .kill_shard(Dur::from_millis(10), 2)
            .kill_replica(Dur::from_millis(20), 2)
            .cut_replica(Dur::from_millis(50), Dur::from_millis(60), 1)
            .with_replica_clock(0, ClockModel::drifting(1_000_000.0));
        // Shard kill and replica kill with the same index are distinct
        // faults in distinct schedules.
        assert_eq!(plan.kills, vec![(Dur::from_millis(10), 2)]);
        assert_eq!(plan.replica_kills, vec![(Dur::from_millis(20), 2)]);
        // Replica cuts are half-open like client cuts.
        assert!(!plan.replica_cut_active(1, Dur::from_millis(49)));
        assert!(plan.replica_cut_active(1, Dur::from_millis(50)));
        assert!(plan.replica_cut_active(1, Dur::from_millis(59)));
        assert!(!plan.replica_cut_active(1, Dur::from_millis(60)));
        assert!(!plan.replica_cut_active(0, Dur::from_millis(55)));
        // Replica clocks resolve per index; clients are unaffected.
        assert!(plan.replica_clock(0).is_some());
        assert!(plan.replica_clock(1).is_none());
        assert!(plan.client_clock(0).is_none());
        // The server is replica 0: its clock fault is that replica's.
        let fast = FaultPlan::new(1).with_server_clock(ClockModel::drifting(1_000_000.0));
        assert!(fast.replica_clock(0).is_some());
        assert!(fast.replica_clock(1).is_none());
    }

    #[test]
    fn arrivals_are_deterministic_and_rate_shaped() {
        let plan = FaultPlan::new(11).with_overload(OverloadPlan {
            base_rate: 100.0,
            burst_rate: 1000.0,
            burst_at: Dur::from_secs(2),
            burst_len: Dur::from_secs(1),
            herd: false,
        });
        let take = |stream: u64| -> Vec<Dur> {
            let mut a = plan.arrivals(stream).unwrap();
            (0..2000).map(|_| a.next_at()).collect()
        };
        assert_eq!(take(0), take(0), "same stream must replay");
        assert_ne!(take(0), take(1), "distinct streams must diverge");
        let ts = take(0);
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "monotone arrivals");
        // ~100/s outside the burst, ~1000/s inside: count the window.
        let in_burst = ts
            .iter()
            .filter(|t| **t >= Dur::from_secs(2) && **t < Dur::from_secs(3))
            .count();
        assert!(
            (600..1600).contains(&in_burst),
            "burst second saw {in_burst} arrivals, expected ~1000"
        );
        let first_two_secs = ts.iter().filter(|t| **t < Dur::from_secs(2)).count();
        assert!(
            (100..350).contains(&first_two_secs),
            "first two seconds saw {first_two_secs} arrivals, expected ~200"
        );
    }

    #[test]
    fn herd_aligns_every_stream_at_the_burst_start() {
        let plan = FaultPlan::new(3).with_overload(OverloadPlan {
            base_rate: 2.0,
            burst_rate: 50.0,
            burst_at: Dur::from_secs(5),
            burst_len: Dur::from_secs(1),
            herd: true,
        });
        for stream in 0..32u64 {
            let mut a = plan.arrivals(stream).unwrap();
            let mut hit = false;
            for _ in 0..200 {
                let t = a.next_at();
                if t == Dur::from_secs(5) {
                    hit = true;
                }
                if t > Dur::from_secs(6) {
                    break;
                }
            }
            assert!(hit, "stream {stream} missed the herd instant");
        }
    }

    /// Pins full-plan replay determinism: rebuilding the same plan from
    /// the same seed replays identical decision streams across shard,
    /// client, and replica links — and the replica-link namespace never
    /// collides with client streams even at the same numeric index.
    #[test]
    fn chaos_plan_replay_is_deterministic() {
        let build = || {
            FaultPlan::new(0xfeed)
                .kill_shard(Dur::from_millis(5), 1)
                .kill_replica(Dur::from_millis(7), 0)
                .drop_messages(0.2)
                .duplicate_messages(0.1)
                .delay_messages(Dur::from_millis(15))
        };
        let (a, b) = (build(), build());
        for stream in [0u64, 1, 1 << 32, REPLICA_STREAM | 3] {
            let (la, lb) = (a.link(stream), b.link(stream));
            let da: Vec<Delivery> = (0..128).map(|_| la.next()).collect();
            let db: Vec<Delivery> = (0..128).map(|_| lb.next()).collect();
            assert_eq!(da, db, "stream {stream:#x} must replay identically");
        }
        for (from, to) in [(0usize, 1usize), (1, 0), (1, 2)] {
            let (la, lb) = (a.replica_link(from, to), b.replica_link(from, to));
            let da: Vec<Delivery> = (0..128).map(|_| la.next()).collect();
            let db: Vec<Delivery> = (0..128).map(|_| lb.next()).collect();
            assert_eq!(da, db, "replica link {from}->{to} must replay identically");
        }
        // Directionality: the two directions of one replica pair diverge.
        let fwd: Vec<Delivery> = {
            let l = a.replica_link(0, 1);
            (0..128).map(|_| l.next()).collect()
        };
        let rev: Vec<Delivery> = {
            let l = a.replica_link(1, 0);
            (0..128).map(|_| l.next()).collect()
        };
        assert_ne!(fwd, rev, "directed replica links draw independently");
        // Replica stream 0->1 differs from the client-1 s2c stream.
        let client1: Vec<Delivery> = {
            let l = a.link(1);
            (0..128).map(|_| l.next()).collect()
        };
        assert_ne!(fwd, client1, "replica links must not alias client links");
    }
}
