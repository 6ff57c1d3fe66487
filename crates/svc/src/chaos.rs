//! A fault plan on the wall clock: the machinery a threaded run reads its
//! [`FaultPlan`] through.
//!
//! The plan itself — its vocabulary, its seeded per-link dice and the
//! open-loop load schedule beside it — is `lease-faults`'; the simulators
//! read it on their own virtual clocks. A wall-clock run reads it through
//! one [`LiveFaults`]: `lease-rt`'s sinks and ports ask it for cuts and
//! dice on every client↔server delivery, `lease-quorum`'s runtime for
//! replica cuts, and both hand what a plan schedules for later — delayed
//! and duplicated messages, shard and replica kills — to its one
//! [`Sleeper`]. Every plan instant is an offset from the truth clock's
//! zero, as the simulators measure from theirs. Clock models ride into the
//! service via [`SvcHooks::clock`](crate::SvcHooks) and into clients via
//! their clock parameter.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, PoisonError};
use std::thread::JoinHandle;

use lease_clock::{Clock, Dur, Time};
use lease_faults::{Delivery, FaultPlan, LinkChaos};

use crate::shard::INJECTED_KILL;

/// Stream-id bit distinguishing a client's client→server link from its
/// server→client one.
const C2S_STREAM: u64 = 1 << 32;

/// A [`FaultPlan`] as a wall-clock run reads it: the plan, the truth
/// clock every plan instant is measured on (from its zero, as the
/// simulators measure from theirs), the per-client cut switches a test
/// flips at run time, the client links' dice, and the one [`Sleeper`]
/// that runs whatever the plan schedules for later.
///
/// Every reader of a live run's faults holds the same `Arc<LiveFaults>`:
/// `lease-rt`'s sinks, ports and kill schedule, and `lease-quorum`'s
/// replicas. A run without a plan gets a fault-free one, whose checks
/// roll no dice.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use lease_clock::{Dur, WallClock};
/// use lease_faults::FaultPlan;
/// use lease_svc::chaos::LiveFaults;
///
/// let plan = FaultPlan::new(1).cut(Dur::ZERO, Dur::from_secs(60), 1);
/// let faults = LiveFaults::new(plan, Arc::new(WallClock::new()), 2);
/// assert!(faults.cut(1), "the plan's window");
/// assert!(!faults.cut(0));
/// faults.set_cut(0, true);
/// assert!(faults.cut(0), "the switch");
/// ```
pub struct LiveFaults {
    plan: FaultPlan,
    truth: Arc<dyn Clock>,
    /// Per-client cut switches, answered together with the plan's windows.
    cuts: Vec<AtomicBool>,
    /// Server→client dice, one stream per client; empty when the plan
    /// injects no message faults.
    s2c: Vec<LinkChaos>,
    /// Client→server dice, likewise.
    c2s: Vec<LinkChaos>,
    sleeper: Arc<Sleeper>,
}

impl LiveFaults {
    /// `plan` over `clients` clients, its instants measured on `truth`.
    pub fn new(plan: FaultPlan, truth: Arc<dyn Clock>, clients: usize) -> LiveFaults {
        let dice = plan.drop_prob > 0.0 || plan.dup_prob > 0.0 || !plan.delay_max.is_zero();
        let links = |bit: u64| -> Vec<LinkChaos> {
            if !dice {
                return Vec::new();
            }
            (0..clients).map(|c| plan.link(c as u64 | bit)).collect()
        };
        let (s2c, c2s) = (links(0), links(C2S_STREAM));
        LiveFaults {
            cuts: (0..clients).map(|_| AtomicBool::new(false)).collect(),
            s2c,
            c2s,
            sleeper: Sleeper::new(Arc::clone(&truth)),
            truth,
            plan,
        }
    }

    /// The plan itself: its clock models and slow shard.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The truth clock; plan instants are offsets from its zero.
    pub fn truth(&self) -> &Arc<dyn Clock> {
        &self.truth
    }

    /// The run's one sleeper.
    pub fn sleeper(&self) -> &Arc<Sleeper> {
        &self.sleeper
    }

    /// Cuts (or restores) all of `client`'s traffic from now on,
    /// whatever the plan's windows say.
    pub fn set_cut(&self, client: usize, cut: bool) {
        self.cuts[client].store(cut, Ordering::Relaxed);
    }

    /// Whether `client`'s link is cut right now: by its switch or by a
    /// plan window.
    pub fn cut(&self, client: usize) -> bool {
        self.cuts[client].load(Ordering::Relaxed)
            || (!self.plan.cuts.is_empty() && self.plan.cut_active(client, self.elapsed()))
    }

    /// Whether a plan window severs the link between server replicas `a`
    /// and `b` right now: [`FaultPlan::replica_link_cut`] on the truth
    /// clock (`a == b` asks whether replica `a` is cut).
    pub fn replica_cut(&self, a: usize, b: usize) -> bool {
        !self.plan.replica_cuts.is_empty() && self.plan.replica_link_cut(a, b, self.elapsed())
    }

    /// The fate of the next server→client message to `client`.
    pub fn s2c(&self, client: usize) -> Delivery {
        roll(&self.s2c, client)
    }

    /// The fate of the next client→server message from `client`.
    pub fn c2s(&self, client: usize) -> Delivery {
        roll(&self.c2s, client)
    }

    fn elapsed(&self) -> Dur {
        self.truth.now().saturating_since(Time::ZERO)
    }
}

impl Drop for LiveFaults {
    fn drop(&mut self) {
        self.sleeper.close();
    }
}

/// One decision from `links[client]`, or a plain delivery when the plan
/// rolls no dice.
fn roll(links: &[LinkChaos], client: usize) -> Delivery {
    links.get(client).map_or(
        Delivery::Deliver {
            delay: Dur::ZERO,
            copies: 1,
        },
        LinkChaos::next,
    )
}

/// Work a [`Sleeper`] runs when it falls due.
type Action = Box<dyn FnOnce() + Send>;

/// The one thread a live run's faults schedule onto: every action —
/// a delayed or duplicated message in either direction, a quorum
/// replica's delayed message, a plan kill — waits in one map ordered by
/// its due instant, and the thread parks until the earliest is due, then
/// runs it. An action that sends must not block for long: it holds up
/// every other.
///
/// The thread starts with the first action scheduled (a run whose plan
/// schedules nothing never has one). [`Sleeper::close`] stops it and
/// discards what is pending: an undelivered delayed message is
/// indistinguishable from a dropped one, which chaos already models, and
/// a kill that never fired is a fault that never happened. The thread
/// holds the sleeper only, never the [`LiveFaults`] around it, so an
/// action holding that (through a router, say) keeps nothing alive once
/// it has run or been discarded.
pub struct Sleeper {
    truth: Arc<dyn Clock>,
    state: Mutex<SleeperState>,
    cvar: Condvar,
}

struct SleeperState {
    /// Pending actions by `(due, insertion order)`: the earliest first,
    /// equal instants in the order they were scheduled.
    pending: BTreeMap<(Time, u64), Action>,
    seq: u64,
    thread: Option<JoinHandle<()>>,
    closed: bool,
}

impl Sleeper {
    fn new(truth: Arc<dyn Clock>) -> Arc<Sleeper> {
        Arc::new(Sleeper {
            truth,
            state: Mutex::new(SleeperState {
                pending: BTreeMap::new(),
                seq: 0,
                thread: None,
                closed: false,
            }),
            cvar: Condvar::new(),
        })
    }

    /// Runs `action` at plan instant `when`, an offset from the truth
    /// clock's zero; at once if that has passed. Ignored once closed.
    pub fn at(self: &Arc<Self>, when: Dur, action: impl FnOnce() + Send + 'static) {
        let mut st = self.lock();
        if st.closed {
            return;
        }
        let seq = st.seq;
        st.seq += 1;
        st.pending
            .insert((Time::ZERO + when, seq), Box::new(action));
        if st.thread.is_none() {
            let me = Arc::clone(self);
            st.thread = Some(
                std::thread::Builder::new()
                    .name("chaos-sleeper".into())
                    .spawn(move || me.run())
                    .expect("spawn the chaos sleeper"),
            );
        }
        drop(st);
        self.cvar.notify_one();
    }

    /// Runs `action` once `delay` has passed.
    pub fn after(self: &Arc<Self>, delay: Dur, action: impl FnOnce() + Send + 'static) {
        self.at(
            self.truth.now().saturating_since(Time::ZERO) + delay,
            action,
        );
    }

    /// Stops the thread, waits for the action it may be running, and
    /// discards every pending one. Idempotent.
    pub fn close(&self) {
        let mut st = self.lock();
        st.closed = true;
        let pending = std::mem::take(&mut st.pending);
        let thread = st.thread.take();
        drop(st);
        self.cvar.notify_all();
        // Outside the lock: a discarded action may hold the last
        // reference to whatever owns this sleeper.
        drop(pending);
        if let Some(t) = thread {
            if t.thread().id() != std::thread::current().id() {
                let _ = t.join();
            }
        }
    }

    fn lock(&self) -> MutexGuard<'_, SleeperState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn run(&self) {
        let mut st = self.lock();
        loop {
            if st.closed {
                return;
            }
            let Some(&(due, _)) = st.pending.keys().next() else {
                st = self.cvar.wait(st).unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            let now = self.truth.now();
            if due > now {
                let wait = std::time::Duration::from(due.saturating_since(now));
                st = self
                    .cvar
                    .wait_timeout(st, wait)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
                continue;
            }
            let (_, action) = st.pending.pop_first().expect("peeked");
            // Run outside the lock: schedulers never wait behind an
            // action.
            drop(st);
            action();
            st = self.lock();
        }
    }
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
    use lease_clock::WallClock;

    /// Actions run in due order, whatever order they were scheduled in,
    /// on one thread.
    #[test]
    fn the_sleeper_runs_actions_in_due_order() {
        let faults = LiveFaults::new(FaultPlan::new(0), Arc::new(WallClock::new()), 0);
        let (tx, rx) = std::sync::mpsc::channel();
        for (n, ms) in [(2u32, 20u64), (0, 0), (1, 10), (3, 20)] {
            let tx = tx.clone();
            faults
                .sleeper()
                .after(Dur::from_millis(ms), move || tx.send(n).unwrap());
        }
        drop(tx);
        let got: Vec<u32> = rx.iter().take(4).collect();
        assert_eq!(got, [0, 1, 2, 3], "equal instants keep their order");
        assert_eq!(Arc::strong_count(faults.sleeper()), 2, "one thread");
    }

    /// Closing returns at once, and what was pending never runs: its
    /// captures are dropped with it.
    #[test]
    fn close_discards_a_pending_action() {
        let faults = LiveFaults::new(FaultPlan::new(0), Arc::new(WallClock::new()), 0);
        let witness = Arc::new(AtomicBool::new(false));
        let fired = Arc::clone(&witness);
        faults.sleeper().at(Dur::from_secs(60), move || {
            fired.store(true, Ordering::Relaxed);
        });
        assert_eq!(Arc::strong_count(&witness), 2, "held by the pending action");
        let t0 = std::time::Instant::now();
        faults.sleeper().close();
        assert!(t0.elapsed() < std::time::Duration::from_secs(1));
        assert_eq!(Arc::strong_count(&witness), 1, "the action was dropped");
        assert!(!witness.load(Ordering::Relaxed));
        assert_eq!(Arc::strong_count(faults.sleeper()), 1, "the thread is gone");
        // Closed for good: a later action is refused, not run.
        let late = Arc::clone(&witness);
        faults
            .sleeper()
            .after(Dur::ZERO, move || late.store(true, Ordering::Relaxed));
        assert_eq!(Arc::strong_count(&witness), 1);
    }

    /// A fault-free plan rolls no dice; a live cut answers for the
    /// switch and the plan's windows together.
    #[test]
    fn live_faults_answer_for_switches_windows_and_dice() {
        let truth: Arc<dyn Clock> = Arc::new(WallClock::new());
        let quiet = LiveFaults::new(FaultPlan::new(1), Arc::clone(&truth), 2);
        let pass = Delivery::Deliver {
            delay: Dur::ZERO,
            copies: 1,
        };
        assert_eq!((quiet.s2c(1), quiet.c2s(1)), (pass, pass));
        quiet.set_cut(1, true);
        assert!(quiet.cut(1) && !quiet.cut(0));
        quiet.set_cut(1, false);
        assert!(!quiet.cut(1));

        let plan = FaultPlan::new(1)
            .drop_messages(1.0)
            .cut(Dur::ZERO, Dur::from_secs(60), 0)
            .cut_replica(Dur::ZERO, Dur::from_secs(60), 2);
        let live = LiveFaults::new(plan, truth, 2);
        assert_eq!((live.s2c(1), live.c2s(0)), (Delivery::Drop, Delivery::Drop));
        assert!(live.cut(0) && !live.cut(1));
        assert!(live.replica_cut(2, 2) && !live.replica_cut(0, 0));
    }
}
