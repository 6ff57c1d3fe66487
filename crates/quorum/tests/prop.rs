//! Property tests for the grantor quorum's diskless-restart argument. The
//! adversarial two-proposer race under clock skew runs in the simulator
//! that hosts the quorum (`lease-vsys`'s `tests/prop.rs`).

use lease_clock::{Dur, Time};
use lease_quorum::{Acceptor, Ballot, QuorumMsg};
use proptest::prelude::*;

/// Case count: 24 by default (CI-friendly), override with LEASE_PROP_CASES.
fn cases() -> u32 {
    std::env::var("LEASE_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(), ..ProptestConfig::default() })]

    /// The §5 MaxTerm restart argument, as a property: an acceptor that
    /// accepted a grantor lease and then crash-restarted stays silent for
    /// the entire remaining life of that lease — so a restart can never
    /// help elect a second grantor inside a live term. (`max_term >=
    /// term * (1 + drift_bound) / (1 - drift_bound)` makes the local
    /// window cover the true one under worst-case cross-replica rates;
    /// clock-rate effects are exercised by the sim sweeps. This test runs
    /// drift-free, so the plain `1.1x` margin below suffices.)
    #[test]
    fn acceptor_restart_never_repromises_inside_a_live_lease(
        term_ms in 100u64..5_000,
        accept_at_ms in 0u64..10_000,
        crash_dt_ms in 0u64..5_000,
        probe_dt_ms in 0u64..5_000,
        round in 1u32..1000,
    ) {
        let term = Dur::from_millis(term_ms);
        let max_term = term.mul_f64(1.1);
        let accept_at = Time::from_millis(accept_at_ms);
        let mut a = Acceptor::new();
        let b = Ballot::new(round, 0);
        a.handle(accept_at, QuorumMsg::Prepare { b });
        a.handle(accept_at, QuorumMsg::Propose { b, holder: 0, term });
        let lease_expires = accept_at + term;
        // Crash anywhere inside the lease.
        let crash_at = accept_at + Dur::from_millis(crash_dt_ms.min(term_ms.saturating_sub(1)));
        a.restart(crash_at, max_term);
        // Probe anywhere from the crash to the end of the old lease: the
        // acceptor must stay silent (silence cannot form a quorum).
        let probe = crash_at + Dur::from_millis(probe_dt_ms);
        let reply = a.handle(
            probe.min(lease_expires - Dur::from_millis(1)),
            QuorumMsg::Prepare { b: Ballot::new(round + 1, 1) },
        );
        prop_assert!(
            reply.is_none() || probe >= lease_expires,
            "restarted acceptor replied {reply:?} inside the old lease"
        );
        // And the silence window covers the whole lease by construction.
        prop_assert!(crash_at + max_term >= lease_expires);
    }
}
