//! End-to-end tests of the assembled system.

use lease_clock::{ClockModel, Dur, Time};
use lease_faults::{check_history, FaultPlan, HistoryEvent};
use lease_vsys::{
    build_world, run_trace, run_trace_with_history, ClientConfig, CrashEvent, InstalledMode,
    NodeSel, SystemConfig, TermSpec,
};
use lease_workload::{FileClass, FileSpec, PoissonWorkload, Trace, TraceOp, TraceRecord, VTrace};

fn fixed(term_secs: u64) -> SystemConfig {
    SystemConfig {
        term: TermSpec::Fixed(Dur::from_secs(term_secs)),
        ..SystemConfig::default()
    }
}

/// A tiny two-client trace with genuine write sharing.
fn shared_trace() -> Trace {
    let mut records = Vec::new();
    // Both clients read file 1 every second; client 0 writes at t = 20 s.
    for s in 1..40u64 {
        records.push(TraceRecord {
            at: Time::from_secs(s),
            client: 0,
            op: TraceOp::Read { file: 1 },
        });
        records.push(TraceRecord {
            at: Time::from_millis(s * 1000 + 17),
            client: 1,
            op: TraceOp::Read { file: 1 },
        });
    }
    records.push(TraceRecord {
        at: Time::from_millis(20_500),
        client: 0,
        op: TraceOp::Write { file: 1 },
    });
    Trace::new(
        vec![FileSpec {
            id: 1,
            class: FileClass::Regular,
            path: None,
        }],
        records,
    )
}

#[test]
fn all_ops_complete_without_faults() {
    let trace = PoissonWorkload::v_rates(4, 2, Dur::from_secs(300), 5).generate();
    let r = run_trace(&fixed(10), &trace);
    assert_eq!(r.op_failures, 0);
    let total_ops = r.hits + r.remote_reads + r.writes;
    let expected = trace.records.len() as u64;
    assert_eq!(total_ops, expected, "every trace op completes");
}

#[test]
fn zero_term_checks_every_read() {
    let trace = shared_trace();
    let r = run_trace(&fixed(0), &trace);
    assert_eq!(r.hits, 0, "no caching rights at term zero");
    // Every read is a fetch+grant pair.
    assert_eq!(r.consistency_msgs, 2 * r.remote_reads);
}

#[test]
fn longer_terms_mean_fewer_consistency_messages() {
    let trace = VTrace::calibrated(3).generate();
    let mut last = u64::MAX;
    for term in [0u64, 2, 10, 60] {
        let r = run_trace(&fixed(term), &trace);
        assert!(
            r.consistency_msgs < last,
            "term {term}: {} not below {last}",
            r.consistency_msgs
        );
        last = r.consistency_msgs;
    }
}

#[test]
fn shared_write_invalidates_other_cache() {
    let (r, h) = run_trace_with_history(&fixed(30), &shared_trace());
    assert_eq!(r.op_failures, 0);
    let history = h.history.borrow();
    // The write committed version 2.
    let commits = history.commits_of(1);
    assert_eq!(commits.len(), 1);
    // Reads after the commit see version 2.
    let commit_at = commits[0].0;
    for e in &history.events {
        if let HistoryEvent::ReadDone { version, at, .. } = e {
            if *at > commit_at + Dur::from_secs(1) {
                assert_eq!(version.0, 2, "stale read at {at:?}");
            }
        }
    }
}

#[test]
fn write_sharing_costs_approval_messages() {
    let trace = shared_trace();
    let with_sharing = run_trace(&fixed(30), &trace);
    // Same trace but the write goes to an unshared file.
    let mut unshared = shared_trace();
    unshared.files.push(FileSpec {
        id: 2,
        class: FileClass::Regular,
        path: None,
    });
    for rec in &mut unshared.records {
        if !rec.op.is_read() {
            rec.op = TraceOp::Write { file: 2 };
        }
    }
    let without = run_trace(&fixed(30), &unshared);
    assert!(
        with_sharing.write_delay.mean > without.write_delay.mean,
        "approval callback must delay the shared write: {} vs {}",
        with_sharing.write_delay.mean,
        without.write_delay.mean
    );
}

#[test]
fn client_crash_delays_writes_by_at_most_the_term() {
    // Client 1 holds a 10 s lease and crashes; client 0's write must wait
    // for lease expiry, not forever (§5: availability is not reduced).
    let mut records = vec![
        TraceRecord {
            at: Time::from_secs(1),
            client: 1,
            op: TraceOp::Read { file: 1 },
        },
        TraceRecord {
            at: Time::from_secs(2),
            client: 0,
            op: TraceOp::Write { file: 1 },
        },
    ];
    records.push(TraceRecord {
        at: Time::from_secs(30),
        client: 0,
        op: TraceOp::Read { file: 1 },
    });
    let trace = Trace::new(
        vec![FileSpec {
            id: 1,
            class: FileClass::Regular,
            path: None,
        }],
        records,
    );
    let mut cfg = fixed(10);
    cfg.crashes = vec![CrashEvent {
        at: Time::from_millis(1500),
        node: NodeSel::Client(1),
        recover_at: None,
    }];
    cfg.client.max_retries = 100;
    let r = run_trace(&cfg, &trace);
    assert_eq!(r.op_failures, 0);
    // The write waited for the lease granted at ~1 s to expire at ~11 s:
    // around 9 s of delay, never more than the full term.
    assert!(
        r.write_delay.max > 8.0 && r.write_delay.max < 10.5,
        "write delay {}",
        r.write_delay.max
    );
}

#[test]
fn server_crash_recovery_blocks_writes_for_max_term() {
    let records = vec![
        TraceRecord {
            at: Time::from_secs(1),
            client: 0,
            op: TraceOp::Read { file: 1 },
        },
        TraceRecord {
            at: Time::from_secs(12),
            client: 0,
            op: TraceOp::Write { file: 1 },
        },
        TraceRecord {
            at: Time::from_secs(40),
            client: 0,
            op: TraceOp::Read { file: 1 },
        },
    ];
    let trace = Trace::new(
        vec![FileSpec {
            id: 1,
            class: FileClass::Regular,
            path: None,
        }],
        records,
    );
    let mut cfg = fixed(10);
    cfg.crashes = vec![CrashEvent {
        at: Time::from_secs(10),
        node: NodeSel::Server,
        recover_at: Some(Time::from_secs(11)),
    }];
    cfg.client.max_retries = 100;
    let r = run_trace(&cfg, &trace);
    assert_eq!(r.op_failures, 0);
    // The write at 12 s waits until recovery window ends at 11 + 10 = 21 s.
    assert!(
        r.write_delay.max > 8.0 && r.write_delay.max < 10.0,
        "write delay {}",
        r.write_delay.max
    );
}

#[test]
fn persistent_lease_records_avoid_the_recovery_stall() {
    let records = vec![
        TraceRecord {
            at: Time::from_secs(1),
            client: 0,
            op: TraceOp::Read { file: 1 },
        },
        // By 12 s the 10 s lease from t=1 has expired on its own.
        TraceRecord {
            at: Time::from_secs(12),
            client: 0,
            op: TraceOp::Write { file: 1 },
        },
    ];
    let trace = Trace::new(
        vec![FileSpec {
            id: 1,
            class: FileClass::Regular,
            path: None,
        }],
        records,
    );
    let mut cfg = fixed(10);
    cfg.persistent_leases = true;
    cfg.crashes = vec![CrashEvent {
        at: Time::from_secs(10),
        node: NodeSel::Server,
        recover_at: Some(Time::from_secs(11)),
    }];
    cfg.client.max_retries = 100;
    let r = run_trace(&cfg, &trace);
    assert_eq!(r.op_failures, 0);
    // No stall: the only lease record expired before the write arrived.
    assert!(r.write_delay.max < 1.0, "write delay {}", r.write_delay.max);
}

#[test]
fn an_op_deadline_fails_a_cut_off_read_before_its_retries_run_out() {
    // Client 0 misses at 2 s while it is cut off from 1 s to 8 s. Forty
    // retransmissions 500 ms apart outlast the cut, so without a deadline
    // the read completes once it heals; a 2 s deadline fails it first.
    let trace = Trace::new(
        vec![FileSpec {
            id: 1,
            class: FileClass::Regular,
            path: None,
        }],
        vec![TraceRecord {
            at: Time::from_secs(2),
            client: 0,
            op: TraceOp::Read { file: 1 },
        }],
    );
    let mut cfg = fixed(10);
    cfg.faults = cfg.faults.cut(Dur::from_secs(1), Dur::from_secs(8), 0);
    let patient = run_trace(&cfg, &trace);
    assert_eq!((patient.op_failures, patient.remote_reads), (0, 1));
    cfg.client.op_deadline = Some(Dur::from_secs(2));
    let bounded = run_trace(&cfg, &trace);
    assert_eq!((bounded.op_failures, bounded.remote_reads), (1, 0));
}

#[test]
fn partition_heals_and_ops_resume() {
    let trace = PoissonWorkload::v_rates(2, 1, Dur::from_secs(120), 9).generate();
    let mut cfg = fixed(5);
    // Client 1 is cut off from 20 s to 40 s.
    cfg.faults = cfg.faults.cut(Dur::from_secs(20), Dur::from_secs(40), 1);
    cfg.client.max_retries = 200;
    cfg.client.retry_interval = Dur::from_millis(500);
    let r = run_trace(&cfg, &trace);
    // Reads during the partition either hit the local cache, stall until
    // healing, or exhaust retries; nothing hangs forever.
    let done = r.hits + r.remote_reads + r.writes + r.op_failures;
    assert_eq!(done, trace.records.len() as u64);
}

#[test]
fn installed_mode_eliminates_per_file_extensions() {
    // Without batching, a client extends each installed file's lease
    // individually; the §4 multicast covers them all with a handful of
    // periodic messages and keeps their leases from ever expiring.
    let trace = VTrace::calibrated(5).generate();
    let mut base = fixed(10);
    base.client.batch_extensions = false;
    let per_client = run_trace(&base, &trace);
    let mut cfg = base.clone();
    cfg.installed = InstalledMode::Multicast {
        tick: Dur::from_secs(30),
        term: Dur::from_secs(60),
    };
    let multicast = run_trace(&cfg, &trace);
    assert!(
        multicast.consistency_msgs < per_client.consistency_msgs,
        "multicast {} should beat per-client {}",
        multicast.consistency_msgs,
        per_client.consistency_msgs
    );
    assert!(multicast.hit_rate() > per_client.hit_rate());
}

#[test]
fn fast_server_clock_is_the_dangerous_failure() {
    // §5: a fast server clock can let a write proceed while a client still
    // trusts its lease. Build the race: client 1 reads (10 s lease), the
    // server clock runs 3x fast so the server thinks the lease expired
    // after ~3.3 s, client 0 writes at 5 s, client 1 reads from cache at
    // 6 s — and sees stale data.
    let records = vec![
        TraceRecord {
            at: Time::from_secs(1),
            client: 1,
            op: TraceOp::Read { file: 1 },
        },
        TraceRecord {
            at: Time::from_secs(5),
            client: 0,
            op: TraceOp::Write { file: 1 },
        },
        TraceRecord {
            at: Time::from_secs(6),
            client: 1,
            op: TraceOp::Read { file: 1 },
        },
    ];
    let trace = Trace::new(
        vec![FileSpec {
            id: 1,
            class: FileClass::Regular,
            path: None,
        }],
        records,
    );
    let mut cfg = fixed(10);
    cfg.faults = cfg
        .faults
        .with_server_clock(ClockModel::drifting(2_000_000.0)); // 3x fast
    let (r, h) = run_trace_with_history(&cfg, &trace);
    assert_eq!(r.op_failures, 0);
    let history = h.history.borrow();
    // The read at 6 s returned version 1 from cache although version 2
    // committed at ~5 s: the §5 inconsistency, visible in the history.
    let stale = history.events.iter().any(|e| {
        matches!(e, HistoryEvent::ReadDone { version, from_cache: true, at, .. }
            if version.0 == 1 && *at >= Time::from_secs(6))
    });
    assert!(stale, "expected the fast-server-clock anomaly to manifest");
}

#[test]
fn message_loss_is_survived_by_retransmission() {
    let trace = PoissonWorkload::v_rates(2, 1, Dur::from_secs(200), 13).generate();
    let mut cfg = fixed(10);
    cfg.faults = cfg.faults.drop_messages(0.05);
    cfg.client.max_retries = 50;
    let r = run_trace(&cfg, &trace);
    assert_eq!(r.op_failures, 0, "5% loss must not fail ops");
    let done = r.hits + r.remote_reads + r.writes;
    assert_eq!(done, trace.records.len() as u64);
}

#[test]
fn adaptive_policy_zeroes_write_hot_files() {
    // One file written constantly by two clients and read by both: alpha
    // < 1, so the adaptive policy should fall back to zero-term behaviour
    // and keep approval traffic off the wire.
    let mut records = Vec::new();
    for s in 1..200u64 {
        let c = (s % 2) as u32;
        records.push(TraceRecord {
            at: Time::from_millis(s * 500),
            client: c,
            op: if s % 3 == 0 {
                TraceOp::Write { file: 1 }
            } else {
                TraceOp::Read { file: 1 }
            },
        });
    }
    let trace = Trace::new(
        vec![FileSpec {
            id: 1,
            class: FileClass::Regular,
            path: None,
        }],
        records,
    );
    let adaptive = SystemConfig {
        term: TermSpec::Adaptive {
            theta: 0.1,
            min: Dur::from_secs(1),
            max: Dur::from_secs(60),
        },
        ..SystemConfig::default()
    };
    let fixed_cfg = fixed(30);
    let a = run_trace(&adaptive, &trace);
    let f = run_trace(&fixed_cfg, &trace);
    assert_eq!(a.op_failures, 0);
    assert!(
        a.write_delay.mean <= f.write_delay.mean,
        "adaptive {} vs fixed {}",
        a.write_delay.mean,
        f.write_delay.mean
    );
}

#[test]
fn determinism_same_seed_same_report() {
    // The whole report, not a few fields. The V trace has one client and
    // no approvals, so a shared Poisson workload with writes covers
    // approvals and several requests in flight per cache.
    let vtrace = VTrace::calibrated(17).generate();
    let shared = PoissonWorkload::v_rates(4, 4, Dur::from_secs(300), 21).generate();
    for (name, trace) in [("vtrace", &vtrace), ("poisson", &shared)] {
        let r1 = run_trace(&fixed(10), trace);
        let r2 = run_trace(&fixed(10), trace);
        assert_eq!(format!("{r1:?}"), format!("{r2:?}"), "{name}");
    }
    let r = run_trace(&fixed(10), &shared);
    assert!(r.writes > 0 && r.approval_msgs > 0, "{r:?}");
}

#[test]
fn distant_client_compensation_restores_effective_term() {
    // §4: "A lease given to a distant client could be increased to
    // compensate for the amount the lease term is reduced by the
    // propagation delay and for the extra delay incurred by the client to
    // extend the lease." Client 1 sits behind 400 ms of extra one-way
    // propagation; with a 1 s base term its effective window shrinks
    // noticeably, and compensating restores its hit rate.
    let mut records = Vec::new();
    for s in 1..400u64 {
        records.push(TraceRecord {
            at: Time::from_millis(s * 450),
            client: 0,
            op: TraceOp::Read { file: 1 },
        });
        records.push(TraceRecord {
            at: Time::from_millis(s * 450 + 100),
            client: 1,
            op: TraceOp::Read { file: 2 },
        });
    }
    let trace = Trace::new(
        vec![
            FileSpec {
                id: 1,
                class: FileClass::Regular,
                path: None,
            },
            FileSpec {
                id: 2,
                class: FileClass::Regular,
                path: None,
            },
        ],
        records,
    );
    let base = Dur::from_millis(1000);
    let extra_prop = vec![(1u32, Dur::from_millis(400))];

    let run = |term: TermSpec| {
        let cfg = SystemConfig {
            term,
            extra_prop: extra_prop.clone(),
            warmup: Dur::from_secs(10),
            client: ClientConfig {
                max_retries: 200,
                ..ClientConfig::default()
            },
            ..SystemConfig::default()
        };
        lease_vsys::run_trace_with_history(&cfg, &trace)
    };

    let (plain, h1) = run(TermSpec::Fixed(base));
    let (comp, h2) = run(TermSpec::Compensated {
        base,
        // Compensate for the extra round trip (2 x 400 ms) on extensions.
        extra: vec![(1, Dur::from_millis(800))],
    });
    // Compensation buys the distant client a real effective term: overall
    // hit rate improves materially and delay falls.
    assert!(
        comp.hit_rate() > plain.hit_rate() + 0.1,
        "hit rate {} vs {}",
        comp.hit_rate(),
        plain.hit_rate()
    );
    assert!(comp.mean_delay_ms() < plain.mean_delay_ms());
    // And it stays consistent, of course.
    for h in [&h1, &h2] {
        let res = check_history(&h.history.borrow());
        assert!(res.is_ok(), "violations: {:?}", res.err());
    }
}

/// No plan field is silently left out of a run: each one the simulator
/// cannot honour yet stops `build_world` with a message naming it.
#[test]
fn plan_fields_the_simulator_cannot_honour_are_refused() {
    let trace = PoissonWorkload::v_rates(1, 1, Dur::from_secs(1), 1).generate();
    let d = Dur::from_millis(1);
    let plan = FaultPlan::default();
    for (field, faults) in [
        ("kills", plan.clone().kill_shard(d, 0)),
        ("slow_shard", plan.clone().with_slow_shard(0, d)),
        ("replica_kills", plan.clone().kill_replica(d, 0)),
        ("replica_cuts", plan.clone().cut_replica(d, d, 1)),
        (
            "replica_clocks",
            plan.clone().with_replica_clock(1, ClockModel::perfect()),
        ),
    ] {
        let cfg = SystemConfig {
            faults,
            ..SystemConfig::default()
        };
        let refused =
            std::panic::catch_unwind(|| build_world(&cfg, &trace).trace_end).expect_err(field);
        let message = refused
            .downcast_ref::<String>()
            .expect("a formatted message");
        assert!(
            message.contains(&format!("FaultPlan::{field} ")),
            "{field}: {message}"
        );
    }
    // Replica 0 is the server: its cut and clock are honoured.
    let cfg = SystemConfig {
        faults: plan
            .cut_replica(d, d, 0)
            .with_server_clock(ClockModel::perfect()),
        ..SystemConfig::default()
    };
    build_world(&cfg, &trace);
}
