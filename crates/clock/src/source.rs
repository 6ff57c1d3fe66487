//! Clock sources: where protocol code gets "now" from.
//!
//! The lease state machines in `lease-core` are sans-IO and receive `now` as
//! an explicit argument, so most code never touches a [`Clock`] directly.
//! The trait exists for the edges: the real-time runtime (`lease-rt`) reads
//! a [`WallClock`], tests drive a [`ManualClock`], and harnesses can wrap
//! either in a [`ClockModel`](crate::ClockModel) to inject skew.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::time::Time;

/// A source of the current local time.
pub trait Clock: Send + Sync {
    /// The current reading of this clock.
    fn now(&self) -> Time;
}

/// A shared clock reads like the clock it shares, so an
/// `Arc<dyn Clock>` can sit wherever a `C: Clock` is asked for (the inner
/// clock of a [`ModelClock`], say).
impl<C: Clock + ?Sized> Clock for Arc<C> {
    fn now(&self) -> Time {
        (**self).now()
    }
}

/// A wall clock: nanoseconds since this clock was created.
///
/// Backed by [`std::time::Instant`], so it is monotone.
///
/// # Examples
///
/// ```
/// use lease_clock::{Clock, WallClock};
///
/// let c = WallClock::new();
/// let a = c.now();
/// let b = c.now();
/// assert!(b >= a);
/// ```
#[derive(Debug, Clone)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// Creates a wall clock whose epoch is now.
    pub fn new() -> WallClock {
        WallClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> WallClock {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> Time {
        Time(u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }
}

/// A system clock anchored at a caller-chosen unix-nanosecond epoch —
/// the one clock whose readings are comparable **across processes** on
/// the same host.
///
/// [`WallClock`]'s epoch is process start, so two processes' readings
/// share no origin. For the multi-process chaos harness the parent picks
/// one epoch (its own `SystemTime::now()` as unix nanos), passes it to
/// every child on the command line, and all processes then report
/// events — commits, reads — on the same true-time axis for the oracle.
///
/// Backed by [`std::time::SystemTime`], so it is *not* guaranteed
/// monotone under NTP steps; on the bench/CI hosts this drives (seconds
/// of runtime, no clock daemon churn) that is acceptable for an oracle
/// time axis, and protocol code keeps using monotone clocks.
#[derive(Debug, Clone, Copy)]
pub struct SysClock {
    epoch_unix_ns: u64,
}

impl SysClock {
    /// A clock reading nanoseconds since the unix-epoch instant
    /// `epoch_unix_ns` (saturating at zero for readings before it).
    pub fn new(epoch_unix_ns: u64) -> SysClock {
        SysClock { epoch_unix_ns }
    }

    /// The current unix time in nanoseconds — what a parent process
    /// passes to [`SysClock::new`] in each child to share an epoch.
    pub fn unix_now_ns() -> u64 {
        u64::try_from(
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("system clock before unix epoch")
                .as_nanos(),
        )
        .unwrap_or(u64::MAX)
    }
}

impl Clock for SysClock {
    fn now(&self) -> Time {
        Time(Self::unix_now_ns().saturating_sub(self.epoch_unix_ns))
    }
}

/// A hand-advanced clock for unit tests.
///
/// Cloning shares the underlying time cell, so a test can hold one handle
/// while the code under test holds another.
///
/// # Examples
///
/// ```
/// use lease_clock::{Clock, Dur, ManualClock, Time};
///
/// let c = ManualClock::new(Time::ZERO);
/// let held = c.clone();
/// c.advance(Dur::from_secs(5));
/// assert_eq!(held.now(), Time::from_secs(5));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ManualClock {
    nanos: Arc<AtomicU64>,
}

impl ManualClock {
    /// Creates a manual clock reading `start`.
    pub fn new(start: Time) -> ManualClock {
        ManualClock {
            nanos: Arc::new(AtomicU64::new(start.as_nanos())),
        }
    }

    /// Moves the clock forward by `d`.
    pub fn advance(&self, d: crate::time::Dur) {
        self.nanos.fetch_add(d.as_nanos(), Ordering::SeqCst);
    }

    /// Sets the clock to an absolute reading.
    ///
    /// Allows moving backwards; tests use this to model faulty clocks.
    pub fn set(&self, t: Time) {
        self.nanos.store(t.as_nanos(), Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now(&self) -> Time {
        Time(self.nanos.load(Ordering::SeqCst))
    }
}

/// A clock viewed through a [`ClockModel`](crate::ClockModel): the inner
/// clock supplies *true* time, the model maps it to the host's (possibly
/// skewed, drifting, or stepping) local reading.
///
/// This is how the §5 clock-failure modes are injected into real-time
/// deployments: give one host a `ModelClock` over the shared wall clock
/// and its protocol code experiences a fast or slow clock while every
/// observer (and the consistency oracle) keeps the true timeline.
///
/// # Examples
///
/// ```
/// use lease_clock::{Clock, ClockModel, ManualClock, ModelClock, Time};
///
/// let truth = ManualClock::new(Time::from_secs(10));
/// let fast = ModelClock::new(truth.clone(), ClockModel::drifting(1_000_000.0));
/// assert_eq!(fast.now(), Time::from_secs(20)); // 2x speed
/// ```
#[derive(Debug, Clone)]
pub struct ModelClock<C> {
    inner: C,
    model: crate::ClockModel,
}

impl<C: Clock> ModelClock<C> {
    /// Views `inner` through `model`.
    pub fn new(inner: C, model: crate::ClockModel) -> ModelClock<C> {
        ModelClock { inner, model }
    }

    /// The model applied to the inner clock.
    pub fn model(&self) -> &crate::ClockModel {
        &self.model
    }
}

impl<C: Clock> Clock for ModelClock<C> {
    fn now(&self) -> Time {
        self.model.local(self.inner.now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;

    #[test]
    fn wall_clock_monotone() {
        let c = WallClock::new();
        let mut last = c.now();
        for _ in 0..100 {
            let t = c.now();
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn manual_clock_shared() {
        let c = ManualClock::new(Time::from_secs(1));
        let other = c.clone();
        assert_eq!(other.now(), Time::from_secs(1));
        c.advance(Dur::from_millis(500));
        assert_eq!(other.now(), Time::from_millis(1500));
        other.set(Time::ZERO);
        assert_eq!(c.now(), Time::ZERO);
    }

    #[test]
    fn clock_trait_object() {
        let c: Box<dyn Clock> = Box::new(ManualClock::new(Time::from_secs(7)));
        assert_eq!(c.now(), Time::from_secs(7));
        let shared: Arc<dyn Clock> = Arc::new(ManualClock::new(Time::from_secs(3)));
        let model = ModelClock::new(shared, crate::ClockModel::perfect());
        assert_eq!(model.now(), Time::from_secs(3));
    }
}
