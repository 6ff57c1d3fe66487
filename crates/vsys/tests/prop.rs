//! Property-based end-to-end checking: random workloads, random faults,
//! random terms — every execution must satisfy single-copy semantics.

mod common;

use lease_clock::{ClockModel, Dur, Time};
use lease_faults::{check_history, FaultPlan, History, HistoryEvent, Violation};
use lease_quorum::QuorumConfig;
use lease_vsys::{
    run_trace_with_history, ClientConfig, CrashEvent, NodeSel, SystemConfig, TermSpec,
};
use lease_workload::{BurstyWorkload, PoissonWorkload, Trace};
use proptest::prelude::*;

fn poisson(n: u32, s: u32, seed: u64) -> Trace {
    PoissonWorkload {
        n,
        r: 1.2,
        w: 0.15,
        s,
        duration: Dur::from_secs(120),
        seed,
    }
    .generate()
}

/// Case count: 24 by default (CI-friendly), override with LEASE_PROP_CASES.
fn cases() -> u32 {
    std::env::var("LEASE_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(), ..ProptestConfig::default() })]

    /// Random sharing degree, lease term, and loss rate: consistent.
    #[test]
    fn random_poisson_runs_are_consistent(
        seed in 0u64..1000,
        term_ms in prop_oneof![Just(0u64), 500u64..30_000],
        s in 1u32..5,
        loss in 0.0f64..0.25,
    ) {
        let n = s * 2;
        let trace = poisson(n, s, seed);
        let cfg = SystemConfig {
            term: TermSpec::Fixed(Dur::from_millis(term_ms)),
            faults: FaultPlan::default().drop_messages(loss),
            client: ClientConfig {
                retry_interval: Dur::from_millis(250),
                max_retries: 2000,
                ..ClientConfig::default()
            },
            seed: seed.wrapping_mul(31),
            ..SystemConfig::default()
        };
        let (_, h) = run_trace_with_history(&cfg, &trace);
        let res = check_history(&h.history.borrow());
        prop_assert!(res.is_ok(), "violations: {:?}", res.err());
    }

    /// Random crash/recovery schedules on clients and the server.
    #[test]
    fn random_crash_schedules_are_consistent(
        seed in 0u64..1000,
        crash_at in 10u64..100,
        down_secs in 1u64..40,
        victim in 0u32..5u32,
        term_s in 1u64..20,
    ) {
        let trace = poisson(4, 2, seed);
        let node = if victim == 4 { NodeSel::Server } else { NodeSel::Client(victim % 4) };
        let cfg = SystemConfig {
            term: TermSpec::Fixed(Dur::from_secs(term_s)),
            crashes: vec![CrashEvent {
                at: Time::from_secs(crash_at),
                node,
                recover_at: Some(Time::from_secs(crash_at + down_secs)),
            }],
            client: ClientConfig {
                max_retries: 2000,
                ..ClientConfig::default()
            },
            seed,
            ..SystemConfig::default()
        };
        let (_, h) = run_trace_with_history(&cfg, &trace);
        let res = check_history(&h.history.borrow());
        prop_assert!(res.is_ok(), "violations: {:?}", res.err());
    }

    /// Random partitions: any island, any window.
    #[test]
    fn random_partitions_are_consistent(
        seed in 0u64..1000,
        from in 10u64..80,
        len in 5u64..50,
        island_bits in 1u32..15u32, // nonempty strict subset of 4 clients
    ) {
        let trace = poisson(4, 2, seed);
        let (from, until) = (Dur::from_secs(from), Dur::from_secs(from + len));
        let faults = (0..4)
            .filter(|i| island_bits & (1 << i) != 0)
            .fold(FaultPlan::default(), |p, client| p.cut(from, until, client));
        let cfg = SystemConfig {
            term: TermSpec::Fixed(Dur::from_secs(8)),
            faults,
            client: ClientConfig {
                retry_interval: Dur::from_millis(250),
                max_retries: 2000,
                ..ClientConfig::default()
            },
            seed,
            ..SystemConfig::default()
        };
        let (_, h) = run_trace_with_history(&cfg, &trace);
        let res = check_history(&h.history.borrow());
        prop_assert!(res.is_ok(), "violations: {:?}", res.err());
    }

    /// Clock skew within epsilon plus bursty traffic: consistent.
    #[test]
    fn skew_within_epsilon_and_bursts_are_consistent(
        seed in 0u64..1000,
        skew_ms in -90i64..90,
        term_s in 1u64..15,
    ) {
        let trace = BurstyWorkload {
            n: 4,
            r: 1.0,
            w: 0.1,
            s: 2,
            on: Dur::from_secs(3),
            off: Dur::from_secs(10),
            duration: Dur::from_secs(120),
            seed,
        }
        .generate();
        let cfg = SystemConfig {
            term: TermSpec::Fixed(Dur::from_secs(term_s)),
            client: ClientConfig {
                epsilon: Dur::from_millis(100),
                max_retries: 2000,
                ..ClientConfig::default()
            },
            faults: (0..4).fold(FaultPlan::default(), |p, i| {
                p.with_client_clock(i, lease_clock::ClockModel::skewed(skew_ms * 1_000_000 * if i % 2 == 0 { 1 } else { -1 }))
            }),
            seed,
            ..SystemConfig::default()
        };
        let (_, h) = run_trace_with_history(&cfg, &trace);
        let res = check_history(&h.history.borrow());
        prop_assert!(res.is_ok(), "violations: {:?}", res.err());
    }

    /// Jitter (reordering) and duplication stress the at-most-once and
    /// version-floor machinery: still consistent.
    #[test]
    fn jitter_and_duplication_are_consistent(
        seed in 0u64..1000,
        jitter_ms in 0u64..50,
        duplicate in 0.0f64..0.3,
        loss in 0.0f64..0.15,
        term_s in 1u64..15,
    ) {
        let trace = poisson(4, 2, seed);
        let cfg = SystemConfig {
            term: TermSpec::Fixed(Dur::from_secs(term_s)),
            faults: FaultPlan::default()
                .delay_messages(Dur::from_millis(jitter_ms))
                .duplicate_messages(duplicate)
                .drop_messages(loss),
            client: ClientConfig {
                retry_interval: Dur::from_millis(250),
                max_retries: 2000,
                ..ClientConfig::default()
            },
            seed,
            ..SystemConfig::default()
        };
        let (_, h) = run_trace_with_history(&cfg, &trace);
        let res = check_history(&h.history.borrow());
        prop_assert!(res.is_ok(), "violations: {:?}", res.err());
    }

    /// The at-most-one-grantor check agrees with a brute-force interval
    /// reference on random grantor claim schedules: a TwoGrantors
    /// violation is reported iff two claims of distinct replicas overlap
    /// in true time, and the reported windows match.
    #[test]
    fn grantor_overlap_check_matches_reference(
        seed in 0u64..100_000,
        n_claims in 1usize..8,
    ) {
        // Derive the claim schedule from the seed (the proptest shim has
        // no vec strategy).
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut draw = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        // (replica, ballot, from, until): until == Time::MAX when never ceded.
        let mut claims: Vec<(u32, u64, Time, Time)> = Vec::new();
        let mut h = History::new();
        for i in 0..n_claims {
            let replica = (draw() % 3) as u32;
            let ballot = i as u64; // unique per claim
            let from = Time::from_secs(draw() % 100);
            let closed = draw() % 4 != 0; // 1 in 4 claims never cedes
            let until = if closed {
                from + Dur::from_secs(draw() % 30)
            } else {
                Time::MAX
            };
            h.push(HistoryEvent::GrantorAcquired { replica, ballot, at: from });
            if closed {
                h.push(HistoryEvent::GrantorCeded { replica, ballot, at: until });
            }
            claims.push((replica, ballot, from, until));
        }
        let mut expected = 0usize;
        for i in 0..claims.len() {
            for j in i + 1..claims.len() {
                let (ra, _, fa, ua) = claims[i];
                let (rb, _, fb, ub) = claims[j];
                if ra != rb && fa.max(fb) < ua.min(ub) {
                    expected += 1;
                }
            }
        }
        let found = match check_history(&h) {
            Ok(()) => Vec::new(),
            Err(v) => v,
        };
        let two_grantors: Vec<&Violation> = found
            .iter()
            .filter(|v| matches!(v, Violation::TwoGrantors { .. }))
            .collect();
        prop_assert_eq!(
            two_grantors.len(),
            expected,
            "claims: {:?}, violations: {:?}",
            claims,
            two_grantors
        );
        for v in &two_grantors {
            if let Violation::TwoGrantors { overlap_from, overlap_until, .. } = v {
                prop_assert!(overlap_from < overlap_until);
            }
        }
    }

    /// The adaptive policy is as safe as any fixed term.
    #[test]
    fn adaptive_policy_is_consistent(seed in 0u64..1000, loss in 0.0f64..0.15) {
        let trace = poisson(4, 2, seed);
        let cfg = SystemConfig {
            term: TermSpec::Adaptive {
                theta: 0.1,
                min: Dur::from_secs(1),
                max: Dur::from_secs(60),
            },
            faults: FaultPlan::default().drop_messages(loss),
            client: ClientConfig {
                retry_interval: Dur::from_millis(250),
                max_retries: 2000,
                ..ClientConfig::default()
            },
            seed,
            ..SystemConfig::default()
        };
        let (_, h) = run_trace_with_history(&cfg, &trace);
        let res = check_history(&h.history.borrow());
        prop_assert!(res.is_ok(), "violations: {:?}", res.err());
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
        // The 10% drift bound covers the full sampled skew range:
        // usable_term = term * (1 - d) / (1 + d) discounts a slow leader
        // AND fast acceptors, so even the worst pairing (leader at -100k
        // ppm, acceptors at +100k ppm) cannot overlap.
        // The case's seed seeds the world, whose stream rolls the dice.
        let cfg = common::config(QuorumConfig::default(), plan, Dur::from_secs(6));
        let out = common::run_cfg(&SystemConfig { seed, ..cfg });
        let res = check_history(&out.history);
        prop_assert!(res.is_ok(), "violations: {:?}", res.err());
    }
}
