//! Property tests for the grantor quorum: the diskless-restart argument
//! and the adversarial two-proposer race under clock skew.

use lease_clock::{ClockModel, Dur, Time};
use lease_faults::{check_history, FaultPlan};
use lease_quorum::sim::{run, SimConfig};
use lease_quorum::{Acceptor, Ballot, QuorumConfig, QuorumMsg};
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

    /// The adversarial race: two (or three) proposers contending through
    /// kills, a partition, message chaos, and per-replica clock skew
    /// *within the tolerated bound* — at most one grantor at any true
    /// time, every seed.
    #[test]
    fn skewed_proposer_races_never_elect_two_grantors(
        seed in 0u64..10_000,
        skew0_ppm in -100_000.0f64..100_000.0,
        skew1_ppm in -100_000.0f64..100_000.0,
        skew2_ppm in -100_000.0f64..100_000.0,
        kill_at_ms in 200u64..4_000,
        victim in 0usize..3,
        cut_from_ms in 200u64..4_000,
        cut_len_ms in 100u64..2_000,
        cut_who in 0usize..3,
    ) {
        let plan = FaultPlan::new(seed)
            .with_replica_clock(0, ClockModel::drifting(skew0_ppm))
            .with_replica_clock(1, ClockModel::drifting(skew1_ppm))
            .with_replica_clock(2, ClockModel::drifting(skew2_ppm))
            .kill_replica(Dur::from_millis(kill_at_ms), victim)
            .cut_replica(
                Dur::from_millis(cut_from_ms),
                Dur::from_millis(cut_from_ms + cut_len_ms),
                cut_who,
            )
            .drop_messages(0.05)
            .duplicate_messages(0.05)
            .delay_messages(Dur::from_millis(5));
        let out = run(&SimConfig {
            // The 10% drift bound covers the full sampled skew range:
            // usable_term = term * (1 - d) / (1 + d) discounts a slow
            // leader AND fast acceptors, so even the worst pairing (leader
            // at -100k ppm, acceptors at +100k ppm) cannot overlap.
            quorum: QuorumConfig::default(),
            plan,
            duration: Dur::from_secs(6),
        });
        let res = check_history(&out.history);
        prop_assert!(res.is_ok(), "violations: {:?}", res.err());
    }
}
