//! Section 6 head-to-head: leases vs callbacks vs TTL vs check-on-read.

use lease_baselines::Baseline;
use lease_clock::{Dur, Time};
use lease_faults::{check_history, staleness_of, FaultPlan, Violation};
use lease_vsys::{ClientConfig, SystemConfig};
use lease_workload::{PoissonWorkload, Trace};

fn cfg() -> SystemConfig {
    SystemConfig {
        client: ClientConfig {
            max_retries: 500,
            ..ClientConfig::default()
        },
        ..SystemConfig::default()
    }
}

fn workload(seed: u64) -> Trace {
    PoissonWorkload {
        n: 6,
        r: 0.8,
        w: 0.05,
        s: 3,
        duration: Dur::from_secs(300),
        seed,
    }
    .generate()
}

#[test]
fn all_baselines_complete_the_workload() {
    let trace = workload(1);
    for b in [
        Baseline::Leases {
            term: Dur::from_secs(10),
        },
        Baseline::CheckOnEveryRead,
        Baseline::AndrewCallbacks {
            poll: Some(Dur::from_secs(600)),
        },
        Baseline::NfsTtl {
            ttl: Dur::from_secs(30),
        },
    ] {
        let (r, _) = b.run(&cfg(), &trace);
        assert_eq!(r.op_failures, 0, "{}", b.label());
        let done = r.hits + r.remote_reads + r.writes;
        assert_eq!(done, trace.records.len() as u64, "{}", b.label());
    }
}

#[test]
fn fault_free_andrew_and_leases_are_consistent_but_nfs_is_not() {
    let trace = workload(2);
    let (_, h) = Baseline::Leases {
        term: Dur::from_secs(10),
    }
    .run(&cfg(), &trace);
    check_history(&h.borrow()).expect("leases consistent");

    // Andrew commits *before* the invalidations land, so even fault-free
    // it has a staleness window of one message flight — unlike leases,
    // which wait for approvals. Anything beyond a few milliseconds would
    // be a bug.
    let (_, h) = Baseline::AndrewCallbacks { poll: None }.run(&cfg(), &trace);
    let outcome = check_history(&h.borrow());
    if let Err(violations) = outcome {
        let worst = staleness_of(&violations).into_iter().max().unwrap();
        assert!(
            worst < Dur::from_millis(50),
            "fault-free Andrew staleness must be one message flight, got {worst}"
        );
    }

    let (_, h) = Baseline::CheckOnEveryRead.run(&cfg(), &trace);
    check_history(&h.borrow()).expect("check-on-read consistent");

    let (_, h) = Baseline::NfsTtl {
        ttl: Dur::from_secs(30),
    }
    .run(&cfg(), &trace);
    let violations = check_history(&h.borrow()).expect_err("TTL caching must go stale");
    assert!(violations
        .iter()
        .any(|v| matches!(v, Violation::StaleRead { .. })));
    let worst = staleness_of(&violations).into_iter().max().unwrap();
    assert!(
        worst > Dur::from_secs(1),
        "NFS staleness is seconds-scale, got {worst}"
    );
}

#[test]
fn nfs_staleness_is_bounded_by_ttl() {
    let trace = workload(3);
    let ttl = Dur::from_secs(20);
    let (_, h) = Baseline::NfsTtl { ttl }.run(&cfg(), &trace);
    let violations = check_history(&h.borrow()).unwrap_err();
    let worst = staleness_of(&violations).into_iter().max().unwrap();
    assert!(
        worst <= ttl + Dur::from_secs(1),
        "staleness {worst} exceeds the TTL bound {ttl}"
    );
}

#[test]
fn partition_makes_andrew_stale_but_not_leases() {
    // The §6 punchline: under a partition, Andrew's server "allows updates
    // to proceed, possibly leaving the client operating on stale data";
    // leases convert the same failure into bounded write delay.
    // Client 0 reads file 1 every second and never writes; client 1
    // writes it during client 0's partition (100-160 s). With callbacks
    // the invalidation is lost and client 0 keeps serving its stale copy;
    // with leases the write stalls until client 0's lease expires.
    use lease_workload::{FileClass, FileSpec, TraceOp, TraceRecord};
    let mut records = Vec::new();
    for s in 1..300u64 {
        records.push(TraceRecord {
            at: Time::from_secs(s),
            client: 0,
            op: TraceOp::Read { file: 1 },
        });
    }
    records.push(TraceRecord {
        at: Time::from_secs(110),
        client: 1,
        op: TraceOp::Write { file: 1 },
    });
    let trace = Trace::new(
        vec![FileSpec {
            id: 1,
            class: FileClass::Regular,
            path: None,
        }],
        records,
    );

    let mut c = cfg();
    // Client 0 is cut off for 60 s.
    c.faults = FaultPlan::default().cut(Dur::from_secs(100), Dur::from_secs(160), 0);

    let (_, h) = Baseline::AndrewCallbacks { poll: None }.run(&c, &trace);
    let violations =
        check_history(&h.borrow()).expect_err("lost invalidations must leave stale caches");
    assert!(violations
        .iter()
        .any(|v| matches!(v, Violation::StaleRead { .. })));
    let worst = staleness_of(&violations).into_iter().max().unwrap();
    assert!(
        worst > Dur::from_secs(1),
        "partition staleness is seconds-scale, got {worst}"
    );

    let (r, h) = Baseline::Leases {
        term: Dur::from_secs(10),
    }
    .run(&c, &trace);
    check_history(&h.borrow()).expect("leases stay consistent under partition");
    // The price: writes during the partition stall up to a lease term.
    assert!(
        r.write_delay.max <= 11.0,
        "stall bounded by term: {}",
        r.write_delay.max
    );
}

#[test]
fn andrew_poll_bounds_staleness() {
    let trace = workload(5);
    let mut c = cfg();
    c.faults = (0..3).fold(FaultPlan::default(), |p, client| {
        p.cut(Dur::from_secs(100), Dur::from_secs(160), client)
    });
    let poll = Dur::from_secs(30);
    let (_, h) = Baseline::AndrewCallbacks { poll: Some(poll) }.run(&c, &trace);
    let outcome = check_history(&h.borrow());
    match outcome {
        Ok(()) => {} // The poll can mask all staleness at this granularity.
        Err(violations) => {
            let worst = staleness_of(&violations).into_iter().max().unwrap();
            // Staleness is bounded by the partition length: once healed,
            // the next poll (or the partition itself ending) refreshes.
            assert!(
                worst <= Dur::from_secs(60) + poll,
                "staleness {worst} not bounded by partition + poll"
            );
        }
    }
}

#[test]
fn consistency_message_counts_order_as_expected() {
    // check-on-read > leases(10 s) > Andrew callbacks (no extensions at
    // all): the §6 efficiency ordering for read-dominated workloads.
    let trace = workload(6);
    let (zero, _) = Baseline::CheckOnEveryRead.run(&cfg(), &trace);
    let (leases, _) = Baseline::Leases {
        term: Dur::from_secs(10),
    }
    .run(&cfg(), &trace);
    let (andrew, _) = Baseline::AndrewCallbacks { poll: None }.run(&cfg(), &trace);
    assert!(
        zero.consistency_msgs > leases.consistency_msgs,
        "zero {} vs leases {}",
        zero.consistency_msgs,
        leases.consistency_msgs
    );
    assert!(
        leases.consistency_msgs > andrew.consistency_msgs,
        "leases {} vs andrew {}",
        leases.consistency_msgs,
        andrew.consistency_msgs
    );
}

#[test]
fn andrew_server_crash_loses_callback_state_and_goes_stale() {
    // Our Andrew model drops callback promises on a crash without
    // rebuilding them: clients that cached before the crash never hear
    // about later writes. Leases survive the same schedule.
    let trace = workload(7);
    let mut c = cfg();
    c.crashes = vec![lease_vsys::CrashEvent {
        at: Time::from_secs(100),
        node: lease_vsys::NodeSel::Server,
        recover_at: Some(Time::from_secs(101)),
    }];
    let (_, h) = Baseline::AndrewCallbacks { poll: None }.run(&c, &trace);
    let violations = check_history(&h.borrow());
    assert!(
        violations.is_err(),
        "lost callback state must surface as staleness"
    );

    let (_, h) = Baseline::Leases {
        term: Dur::from_secs(10),
    }
    .run(&c, &trace);
    check_history(&h.borrow()).expect("leases survive the server crash");
}

/// The custom-server baselines run on the shared network: a distant
/// client's extra propagation slows an NFS client's reads too.
#[test]
fn a_distant_client_slows_the_nfs_baseline() {
    let trace = workload(9);
    let nfs = Baseline::NfsTtl {
        ttl: Dur::from_secs(3),
    };
    let (lan, _) = nfs.run(&cfg(), &trace);
    let far = SystemConfig {
        extra_prop: vec![(0, Dur::from_millis(400))],
        ..cfg()
    };
    let (wan, _) = nfs.run(&far, &trace);
    assert!(
        wan.mean_delay_ms() > lan.mean_delay_ms(),
        "client 0 at +400 ms: {} ms vs {} ms on the LAN",
        wan.mean_delay_ms(),
        lan.mean_delay_ms()
    );
}

/// Only the lease server can be a grantor replica: a quorum of callback or
/// TTL servers is refused, not run down a second path.
#[test]
fn a_quorum_of_baseline_servers_is_refused() {
    let trace = workload(1);
    let quorum = SystemConfig {
        quorum: Some(lease_quorum::QuorumConfig::default()),
        ..cfg()
    };
    for b in [
        Baseline::AndrewCallbacks { poll: None },
        Baseline::NfsTtl {
            ttl: Dur::from_secs(30),
        },
    ] {
        let refused =
            std::panic::catch_unwind(|| b.run(&quorum, &trace).0.writes).expect_err(&b.label());
        let message = refused.downcast_ref::<&str>().expect("a static message");
        assert!(
            message.contains("lease servers"),
            "{}: {message}",
            b.label()
        );
    }
}
