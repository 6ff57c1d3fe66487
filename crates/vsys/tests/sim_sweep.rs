//! Deterministic chaos sweeps over the 3-replica grantor quorum, and the
//! negative controls proving the oracle can actually catch split brain.
//!
//! Every run is a pure function of its plan and its world seed: the
//! file-system simulator, serving as the quorum's host, rolls the message
//! dice from the world's stream and replays the plan's kills, cuts and
//! per-replica clocks in virtual time, so a failing seed here is a
//! complete reproducer.

mod common;

use common::{config, run, run_cfg, run_default};
use lease_clock::{ClockModel, Dur, Time};
use lease_faults::{check_history, staleness_of, FaultPlan, HistoryEvent, Violation};
use lease_quorum::QuorumConfig;
use lease_vsys::SystemConfig;

fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// ≥100 seeds of kill + cut + drop/dup/delay chaos, with a 2×-fast clock
/// on one (minority) replica every fourth seed: the quorum must never
/// produce two grantors.
#[test]
fn hundred_seed_chaos_sweep_has_no_violations() {
    for seed in 0..100u64 {
        let kill_at = 300 + mix(seed) % 3000;
        let victim = (mix(seed ^ 1) % 3) as usize;
        let cut_from = 500 + mix(seed ^ 2) % 3000;
        let cut_len = 200 + mix(seed ^ 3) % 1500;
        let cut_who = (mix(seed ^ 4) % 3) as usize;
        let mut plan = FaultPlan::new(seed)
            .kill_replica(Dur::from_millis(kill_at), victim)
            .cut_replica(
                Dur::from_millis(cut_from),
                Dur::from_millis(cut_from + cut_len),
                cut_who,
            )
            .drop_messages(0.02 + (mix(seed ^ 5) % 5) as f64 * 0.02)
            .duplicate_messages(0.05)
            .delay_messages(Dur::from_millis(4));
        if seed % 4 == 0 {
            // One fast clock is a *minority* fault: quorum intersection
            // masks it while a correct acceptor is in every accepting
            // majority (the known fault below is where one is not).
            plan = plan.with_replica_clock((seed % 3) as usize, ClockModel::drifting(1_000_000.0));
        }
        let out = run_default(plan, Dur::from_secs(8));
        let res = check_history(&out.history);
        assert!(
            res.is_ok(),
            "seed {seed}: violations {:?}\nhistory: {:?}",
            res.as_ref().err(),
            out.history.events
        );
    }
}

/// A single 2×-fast replica — acceptor or leader — is inside the fault
/// model and gets masked: one correct acceptor in every majority still
/// remembers the live lease, and a fast *leader* merely cedes early.
#[test]
fn single_fast_replica_clock_is_masked() {
    for fast in 0..3usize {
        let plan = FaultPlan::new(11).with_replica_clock(fast, ClockModel::drifting(1_000_000.0));
        let out = run_default(plan, Dur::from_secs(10));
        let res = check_history(&out.history);
        assert!(res.is_ok(), "fast replica {fast}: {:?}", res.err());
        assert!(out.acquisitions >= 2, "the quorum must still make progress");
    }
}

/// A partitioned leader with correct clocks self-fences at its local
/// expiry, strictly before the surviving majority can elect a successor.
#[test]
fn partitioned_leader_with_correct_clocks_is_safe() {
    let plan = FaultPlan::new(5).cut_replica(Dur::from_millis(300), Dur::from_secs(4), 0);
    let out = run_default(plan, Dur::from_secs(8));
    let res = check_history(&out.history);
    assert!(res.is_ok(), "violations: {:?}", res.err());
    // And the cluster did fail over while replica 0 was cut off.
    let successor = out.history.events.iter().any(|e| {
        matches!(e, HistoryEvent::GrantorAcquired { replica, at, .. }
            if *replica != 0 && *at < Time::from_secs(4))
    });
    assert!(successor, "a successor must be elected during the cut");
}

/// The acceptance-criterion negative control: disable self-fencing (the
/// injected bug) and the partitioned ex-leader keeps serving while its
/// successor takes over — the oracle must flag TwoGrantors.
#[test]
fn fencing_disabled_split_brain_is_caught() {
    let plan = FaultPlan::new(5).cut_replica(Dur::from_millis(300), Dur::from_secs(6), 0);
    let unfenced = QuorumConfig {
        fence: false,
        ..QuorumConfig::default()
    };
    let out = run(unfenced, plan, Dur::from_secs(8));
    let violations = check_history(&out.history).expect_err("split brain must be detected");
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, Violation::TwoGrantors { .. })),
        "expected TwoGrantors, got {violations:?}"
    );
    // staleness_of reports the split-brain window for the new variant.
    assert!(!staleness_of(&violations).is_empty());
}

/// A *majority* of 2×-fast acceptor clocks is outside the fault model:
/// they forget the live lease at half its true term, letting a successor
/// in while the correctly-clocked leader still serves. The oracle must
/// catch it — this is the grantor-level analogue of the PR 2 fast
/// server-clock test.
#[test]
fn majority_fast_acceptor_clocks_split_brain_is_caught() {
    let plan = FaultPlan::new(9)
        // Cut the leader so it cannot renew (renewal would re-arm the fast
        // acceptors and hide the hazard)...
        .cut_replica(Dur::from_millis(300), Dur::from_secs(6), 0)
        // ...while the other two replicas run 2× fast.
        .with_replica_clock(1, ClockModel::drifting(1_000_000.0))
        .with_replica_clock(2, ClockModel::drifting(1_000_000.0));
    let out = run_default(plan, Dur::from_secs(8));
    let violations = check_history(&out.history).expect_err("majority clock failure must surface");
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, Violation::TwoGrantors { .. })),
        "expected TwoGrantors, got {violations:?}"
    );
}

/// The worst *in-bound* pairing: leader clock at the slow edge
/// (−100k ppm) while both other replicas run at the fast edge
/// (+100k ppm), with the leader cut off across its claim's tail so it
/// rides the lease out alone. A one-sided discount (`term · (1 − d)`)
/// leaves a ~`term · 2d / (1 + d)` split-brain window here; the
/// two-sided `usable_term` must leave none, for every seed and cut
/// placement.
#[test]
fn slow_leader_fast_acceptors_within_bound_are_safe() {
    for seed in 0..10u64 {
        for cut_ms in [450u64, 500, 700, 900, 1300, 1800, 2400] {
            let plan = FaultPlan::new(seed)
                .with_replica_clock(0, ClockModel::drifting(-100_000.0))
                .with_replica_clock(1, ClockModel::drifting(100_000.0))
                .with_replica_clock(2, ClockModel::drifting(100_000.0))
                .cut_replica(Dur::from_millis(cut_ms), Dur::from_secs(6), 0);
            let out = run_default(plan, Dur::from_secs(8));
            let res = check_history(&out.history);
            assert!(
                res.is_ok(),
                "seed {seed} cut {cut_ms}: {:?}\nhistory: {:?}",
                res.as_ref().err(),
                out.history.events
            );
        }
    }
}

/// A leader whose clock runs slower than the tolerated drift bound trusts
/// its lease for longer (in true time) than the acceptors hold it: caught.
#[test]
fn slow_leader_clock_beyond_bound_is_caught() {
    let plan = FaultPlan::new(13)
        .cut_replica(Dur::from_millis(300), Dur::from_secs(6), 0)
        // 0.4× speed — far beyond the 10% bound the config discounts.
        .with_replica_clock(0, ClockModel::drifting(-600_000.0));
    let out = run_default(plan, Dur::from_secs(8));
    let violations = check_history(&out.history).expect_err("slow leader must overshoot");
    assert!(violations
        .iter()
        .any(|v| matches!(v, Violation::TwoGrantors { .. })));
}

/// Crash-restarting every replica in sequence never breaks the invariant:
/// MaxTerm silence keeps each rebooted node out of elections its old
/// promises could poison.
#[test]
fn rolling_replica_restarts_are_safe() {
    for seed in 0..20u64 {
        let plan = FaultPlan::new(seed)
            .kill_replica(Dur::from_millis(800), 0)
            .kill_replica(Dur::from_millis(2600), 1)
            .kill_replica(Dur::from_millis(4400), 2)
            .delay_messages(Dur::from_millis(3));
        let out = run_default(plan, Dur::from_secs(8));
        let res = check_history(&out.history);
        assert!(res.is_ok(), "seed {seed}: {:?}", res.err());
    }
}

/// A known fault: one 2×-fast clock is outside the drift bound, and the
/// quorum masks it only while a correct acceptor sits in every majority
/// that accepted the live grantor lease. Here replica 2 is cut while
/// replica 1 renews, so the renewal's majority is replica 1 and the fast
/// replica 0, which forgets the lease after half its term. When the cut
/// heals, replica 0's prepare reaches replica 2 (which never accepted the
/// renewal) and its promise lands before replica 1's: replica 0 and 2
/// elect replica 0 while replica 1 still serves. The hundred-seed
/// sweep's seed-60 plan on a world seeded by 60. A fix that makes the
/// quorum mask a fast clock turns this test red on purpose.
#[test]
fn known_fault_a_fast_acceptor_alone_with_the_leader_lets_a_rival_in() {
    let plan = FaultPlan::new(60)
        .kill_replica(Dur::from_millis(2955), 2)
        .cut_replica(Dur::from_millis(1262), Dur::from_millis(2207), 2)
        .drop_messages(0.08)
        .duplicate_messages(0.05)
        .delay_messages(Dur::from_millis(4))
        .with_replica_clock(0, ClockModel::drifting(1_000_000.0));
    let cfg = config(QuorumConfig::default(), plan, Dur::from_secs(8));
    let out = run_cfg(&SystemConfig { seed: 60, ..cfg });
    let violations = check_history(&out.history).expect_err("the fast acceptor lets a rival in");
    assert!(
        violations.iter().any(|v| matches!(
            v,
            Violation::TwoGrantors {
                replica_a: 1,
                replica_b: 0,
                ..
            }
        )),
        "expected replicas 1 and 0 to overlap, got {violations:?}"
    );
}
