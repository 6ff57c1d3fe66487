//! A half-open circuit breaker for a client's path to the server.
//!
//! Retry budgets bound how much *extra* load one client adds under
//! failure; the breaker bounds how long a client keeps probing a target
//! that is refusing everything. After `threshold` consecutive failures
//! (refused submissions and observed `Shed` replies) the circuit opens:
//! submissions are dropped locally — costing the server nothing — until
//! `cooldown` elapses, at which point exactly one probe is let through.
//! A successful probe closes the circuit; a failed one re-opens it for
//! another cooldown.
//!
//! Dropping a submission is always safe in this protocol: every request
//! is driven by the sans-IO client's retransmission schedule, so a
//! locally-dropped send is indistinguishable from a lost message and the
//! next retry (or the op deadline) resolves it.

use lease_clock::{Dur, Time};

/// Breaker state: closed (normal), open (refusing), or half-open (one
/// probe in flight).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Closed,
    Open { until: Time },
    HalfOpen,
}

/// A consecutive-failure circuit breaker (see the module docs).
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    /// Consecutive failures that trip the circuit; `0` disables the
    /// breaker entirely (every submission is allowed).
    threshold: u32,
    /// How long the circuit stays open before the half-open probe.
    cooldown: Dur,
    consec: u32,
    state: State,
}

impl CircuitBreaker {
    /// A breaker tripping after `threshold` consecutive failures and
    /// cooling down for `cooldown`. `threshold == 0` disables it.
    pub fn new(threshold: u32, cooldown: Dur) -> CircuitBreaker {
        CircuitBreaker {
            threshold,
            cooldown,
            consec: 0,
            state: State::Closed,
        }
    }

    /// A breaker that never trips.
    pub fn disabled() -> CircuitBreaker {
        CircuitBreaker::new(0, Dur::ZERO)
    }

    /// Whether a submission may go out now. In the open state this flips
    /// to half-open once the cooldown elapses, admitting exactly one
    /// probe until its outcome is reported.
    pub fn allow(&mut self, now: Time) -> bool {
        if self.threshold == 0 {
            return true;
        }
        match self.state {
            State::Closed => true,
            State::Open { until } => {
                if now >= until {
                    self.state = State::HalfOpen;
                    true
                } else {
                    false
                }
            }
            State::HalfOpen => false,
        }
    }

    /// Reports a successful submission: the circuit closes.
    pub fn on_success(&mut self) {
        self.consec = 0;
        self.state = State::Closed;
    }

    /// Reports a failed submission or an observed overload signal
    /// (a refused send, `Shed`): in the closed state this counts toward the
    /// threshold; a failed half-open probe re-opens immediately.
    pub fn on_failure(&mut self, now: Time) {
        if self.threshold == 0 {
            return;
        }
        match self.state {
            State::Closed => {
                self.consec += 1;
                if self.consec >= self.threshold {
                    self.state = State::Open {
                        until: now + self.cooldown,
                    };
                }
            }
            State::HalfOpen => {
                self.state = State::Open {
                    until: now + self.cooldown,
                };
            }
            State::Open { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_after_threshold_and_probes_after_cooldown() {
        let mut b = CircuitBreaker::new(3, Dur::from_millis(100));
        let t0 = Time::ZERO;
        assert!(b.allow(t0));
        b.on_failure(t0);
        b.on_failure(t0);
        assert!(b.allow(t0), "below threshold stays closed");
        b.on_failure(t0);
        assert!(!b.allow(t0), "third consecutive failure trips it");
        assert!(!b.allow(t0 + Dur::from_millis(99)), "still cooling down");
        // Cooldown over: exactly one probe goes through.
        let t1 = t0 + Dur::from_millis(100);
        assert!(b.allow(t1), "half-open admits the probe");
        assert!(!b.allow(t1), "but only one");
        // A failed probe re-opens for another full cooldown.
        b.on_failure(t1);
        assert!(!b.allow(t1 + Dur::from_millis(99)));
        let t2 = t1 + Dur::from_millis(100);
        assert!(b.allow(t2));
        b.on_success();
        assert!(b.allow(t2), "a successful probe closes the circuit");
        // Closed again: the consecutive count restarted from zero.
        b.on_failure(t2);
        b.on_failure(t2);
        assert!(b.allow(t2));
    }

    #[test]
    fn zero_threshold_disables() {
        let mut b = CircuitBreaker::disabled();
        for _ in 0..1000 {
            b.on_failure(Time::ZERO);
            assert!(b.allow(Time::ZERO));
        }
    }
}
