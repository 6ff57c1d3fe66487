//! Section 5 end-to-end: non-Byzantine failures cost delay, never
//! consistency; broken clocks break consistency — and the oracle sees it.

use lease_clock::{ClockModel, Dur, Time};
use lease_faults::{check_history, staleness_of, Violation};
use lease_vsys::{run_trace_with_history, CrashEvent, FaultPlan, NodeSel, SystemConfig, TermSpec};
use lease_workload::{PoissonWorkload, Trace, VTrace};

fn fixed(term_secs: u64) -> SystemConfig {
    SystemConfig {
        term: TermSpec::Fixed(Dur::from_secs(term_secs)),
        max_retries: 500,
        ..SystemConfig::default()
    }
}

fn shared_workload(seed: u64) -> Trace {
    // 6 clients in groups of 3, with real write sharing.
    PoissonWorkload {
        n: 6,
        r: 0.8,
        w: 0.05,
        s: 3,
        duration: Dur::from_secs(400),
        seed,
    }
    .generate()
}

#[test]
fn fault_free_run_is_consistent() {
    let (_, h) = run_trace_with_history(&fixed(10), &shared_workload(1));
    check_history(&h.history.borrow()).expect("consistent");
}

#[test]
fn consistent_across_terms_including_zero_and_infinite() {
    for term in [Dur::ZERO, Dur::from_secs(1), Dur::from_secs(30), Dur::MAX] {
        let cfg = SystemConfig {
            term: TermSpec::Fixed(term),
            max_retries: 500,
            ..Default::default()
        };
        let (_, h) = run_trace_with_history(&cfg, &shared_workload(2));
        check_history(&h.history.borrow())
            .unwrap_or_else(|v| panic!("term {term:?}: violations {v:?}"));
    }
}

#[test]
fn message_loss_never_breaks_consistency() {
    for loss in [0.02, 0.10, 0.25] {
        let mut cfg = fixed(10);
        cfg.faults = cfg.faults.drop_messages(loss);
        cfg.retry_interval = Dur::from_millis(300);
        let (_, h) = run_trace_with_history(&cfg, &shared_workload(3));
        check_history(&h.history.borrow())
            .unwrap_or_else(|v| panic!("loss {loss}: violations {v:?}"));
    }
}

#[test]
fn heavy_loss_stress_sweep_stays_consistent() {
    // Aggressive retransmission under heavy loss produces exactly the
    // duplicate/replay races that once broke the protocol (in-flight write
    // duplication, out-of-order WriteDone replays); sweep seeds to keep
    // them covered.
    for seed in [31u64, 33, 35, 37] {
        for loss in [0.30, 0.45] {
            let mut cfg = fixed(10);
            cfg.faults = cfg.faults.drop_messages(loss);
            cfg.retry_interval = Dur::from_millis(300);
            let (_, h) = run_trace_with_history(&cfg, &shared_workload(seed));
            check_history(&h.history.borrow())
                .unwrap_or_else(|v| panic!("loss {loss} seed {seed}: violations {v:?}"));
        }
    }
}

#[test]
fn client_crashes_never_break_consistency() {
    let mut cfg = fixed(10);
    cfg.crashes = vec![
        CrashEvent {
            at: Time::from_secs(50),
            node: NodeSel::Client(0),
            recover_at: Some(Time::from_secs(120)),
        },
        CrashEvent {
            at: Time::from_secs(200),
            node: NodeSel::Client(3),
            recover_at: None,
        },
    ];
    let (_, h) = run_trace_with_history(&cfg, &shared_workload(4));
    check_history(&h.history.borrow()).expect("client crashes are safe");
}

#[test]
fn server_crash_and_recovery_never_breaks_consistency() {
    let mut cfg = fixed(10);
    cfg.crashes = vec![CrashEvent {
        at: Time::from_secs(100),
        node: NodeSel::Server,
        recover_at: Some(Time::from_secs(103)),
    }];
    let (_, h) = run_trace_with_history(&cfg, &shared_workload(5));
    check_history(&h.history.borrow()).expect("server recovery is safe");
}

#[test]
fn recovery_window_stalls_writes_deterministically() {
    use lease_workload::{FileClass, FileSpec, TraceOp, TraceRecord};
    // One read to set max_term = 10 s, a server crash, then a write that
    // lands inside the recovery window: it must stall until the window
    // closes (§2), and the run must stay consistent.
    let records = vec![
        TraceRecord {
            at: Time::from_secs(1),
            client: 0,
            op: TraceOp::Read { file: 1 },
        },
        TraceRecord {
            at: Time::from_secs(15),
            client: 0,
            op: TraceOp::Write { file: 1 },
        },
    ];
    let trace = lease_workload::Trace::new(
        vec![FileSpec {
            id: 1,
            class: FileClass::Regular,
            path: None,
        }],
        records,
    );
    let mut cfg = fixed(10);
    cfg.crashes = vec![CrashEvent {
        at: Time::from_secs(12),
        node: NodeSel::Server,
        recover_at: Some(Time::from_secs(13)),
    }];
    let (r, h) = run_trace_with_history(&cfg, &trace);
    check_history(&h.history.borrow()).expect("consistent");
    // Write at 15 s waits for recovery window end at 13 + 10 = 23 s.
    assert!(
        r.write_delay.max > 7.0 && r.write_delay.max < 9.0,
        "recovery stall {}",
        r.write_delay.max
    );
}

#[test]
fn partition_never_breaks_consistency() {
    let mut cfg = fixed(10);
    // Clients 0-2 cut off for 60 s.
    cfg.faults = (0..3).fold(cfg.faults, |p, client| {
        p.cut(Dur::from_secs(100), Dur::from_secs(160), client)
    });
    cfg.retry_interval = Dur::from_millis(400);
    let (_, h) = run_trace_with_history(&cfg, &shared_workload(6));
    check_history(&h.history.borrow()).expect("partitions are safe");
}

#[test]
fn compile_trace_with_everything_thrown_at_it_is_consistent() {
    let trace = VTrace::calibrated(99).generate();
    let mut cfg = fixed(10);
    cfg.faults = cfg.faults.drop_messages(0.05);
    cfg.crashes = vec![CrashEvent {
        at: Time::from_secs(300),
        node: NodeSel::Server,
        recover_at: Some(Time::from_secs(302)),
    }];
    let (_, h) = run_trace_with_history(&cfg, &trace);
    check_history(&h.history.borrow()).expect("combined faults are safe");
}

#[test]
fn fast_server_clock_breaks_consistency_and_oracle_catches_it() {
    // The one §5 failure mode leases cannot survive: the server's clock
    // races ahead, it considers leases expired early, and commits writes
    // while clients still trust their copies.
    let mut cfg = fixed(10);
    cfg.faults = cfg
        .faults
        .with_server_clock(ClockModel::drifting(2_000_000.0)); // 3x fast
    let (_, h) = run_trace_with_history(&cfg, &shared_workload(7));
    let violations = check_history(&h.history.borrow())
        .expect_err("a 3x-fast server clock must produce stale reads");
    assert!(violations
        .iter()
        .any(|v| matches!(v, Violation::StaleRead { .. })));
    let st = staleness_of(&violations);
    assert!(!st.is_empty());
}

#[test]
fn slow_client_clock_breaks_consistency() {
    // The dual failure: a client whose clock runs slow keeps using leases
    // the server already considers expired.
    let mut cfg = fixed(10);
    cfg.faults = cfg
        .faults
        .with_client_clock(0, ClockModel::drifting(-600_000.0)); // 0.4x speed
    let (_, h) = run_trace_with_history(&cfg, &shared_workload(8));
    let violations =
        check_history(&h.history.borrow()).expect_err("a slow client clock must go stale");
    assert!(violations
        .iter()
        .any(|v| matches!(v, Violation::StaleRead { .. })));
}

#[test]
fn harmless_clock_errors_slow_server_fast_client() {
    // §5: "The opposite errors — a slow server clock or fast client clock
    // — do not result in inconsistencies, but do generate extra traffic."
    let mut cfg = fixed(10);
    cfg.faults = (0..6).fold(
        cfg.faults
            .with_server_clock(ClockModel::drifting(-300_000.0)), // slow server
        |p, c| p.with_client_clock(c, ClockModel::drifting(300_000.0)), // fast clients
    );
    let (_, h) = run_trace_with_history(&cfg, &shared_workload(9));
    check_history(&h.history.borrow()).expect("conservative clock errors are safe");
}

#[test]
fn small_skew_within_epsilon_is_safe() {
    let mut cfg = fixed(10);
    cfg.epsilon = Dur::from_millis(100);
    // Clients skewed by up to ±50 ms: inside the allowance.
    cfg.faults = (0..6).fold(cfg.faults, |p, i| {
        p.with_client_clock(
            i,
            ClockModel::skewed(if i % 2 == 0 { 50_000_000 } else { -50_000_000 }),
        )
    });
    let (_, h) = run_trace_with_history(&cfg, &shared_workload(10));
    check_history(&h.history.borrow()).expect("skew within epsilon is safe");
}

#[test]
fn shorter_terms_bound_crash_induced_write_delay() {
    use lease_workload::{FileClass, FileSpec, TraceOp, TraceRecord};
    // §2: short terms "minimize the delay resulting from client and server
    // failures". Client 1 takes a lease just before crashing; client 0's
    // write then stalls for the lease's remaining term.
    let records = vec![
        TraceRecord {
            at: Time::from_secs(59),
            client: 1,
            op: TraceOp::Read { file: 1 },
        },
        TraceRecord {
            at: Time::from_secs(61),
            client: 0,
            op: TraceOp::Write { file: 1 },
        },
    ];
    let trace = lease_workload::Trace::new(
        vec![FileSpec {
            id: 1,
            class: FileClass::Regular,
            path: None,
        }],
        records,
    );
    let mut delays = Vec::new();
    for term in [5u64, 20] {
        let mut cfg = fixed(term);
        cfg.crashes = vec![CrashEvent {
            at: Time::from_secs(60),
            node: NodeSel::Client(1),
            recover_at: None,
        }];
        let (r, h) = run_trace_with_history(&cfg, &trace);
        check_history(&h.history.borrow()).expect("crash is safe");
        delays.push(r.write_delay.max);
    }
    // Term 5: lease from 59 s expires at 64 s -> ~3 s stall.
    // Term 20: expires at 79 s -> ~18 s stall.
    assert!(
        delays[0] < delays[1],
        "5 s term stall {} should be below 20 s term stall {}",
        delays[0],
        delays[1]
    );
    assert!(
        delays[0] > 2.0 && delays[0] <= 5.5,
        "stall bounded by the term: {}",
        delays[0]
    );
    assert!(
        delays[1] > 15.0 && delays[1] <= 20.5,
        "stall bounded by the term: {}",
        delays[1]
    );
}

#[test]
fn kitchen_sink_configuration_is_consistent() {
    // Everything at once: adaptive terms, batched extensions, anticipatory
    // renewal, the installed-file multicast, message loss, a crash, and a
    // partition — still single-copy.
    use lease_vsys::{InstalledMode, TermSpec};
    use lease_workload::{FileClass, FileSpec, Trace, TraceOp, TraceRecord};

    // Mixed workload: shared regular file + installed pool.
    let mut records = Vec::new();
    for s in 1..250u64 {
        let c = (s % 4) as u32;
        records.push(TraceRecord {
            at: Time::from_millis(s * 800),
            client: c,
            op: if s % 9 == 0 {
                TraceOp::Write { file: 1 }
            } else {
                TraceOp::Read { file: 1 }
            },
        });
        records.push(TraceRecord {
            at: Time::from_millis(s * 800 + 200),
            client: (c + 1) % 4,
            op: TraceOp::Read { file: 2 + (s % 3) },
        });
    }
    let mut files = vec![FileSpec {
        id: 1,
        class: FileClass::Regular,
        path: None,
    }];
    for id in 2..5u64 {
        files.push(FileSpec {
            id,
            class: FileClass::Installed,
            path: None,
        });
    }
    let trace = Trace::new(files, records);

    let cfg = SystemConfig {
        term: TermSpec::Adaptive {
            theta: 0.1,
            min: Dur::from_secs(1),
            max: Dur::from_secs(30),
        },
        installed: InstalledMode::Multicast {
            tick: Dur::from_secs(15),
            term: Dur::from_secs(40),
        },
        anticipatory: Some(Dur::from_secs(7)),
        batch_extensions: true,
        faults: FaultPlan::default().drop_messages(0.05).cut(
            Dur::from_secs(140),
            Dur::from_secs(170),
            0,
        ),
        retry_interval: Dur::from_millis(300),
        max_retries: 1000,
        crashes: vec![CrashEvent {
            at: Time::from_secs(90),
            node: NodeSel::Client(2),
            recover_at: Some(Time::from_secs(120)),
        }],
        ..SystemConfig::default()
    };
    let (r, h) = run_trace_with_history(&cfg, &trace);
    check_history(&h.history.borrow()).expect("kitchen sink stays single-copy");
    // The crashed client skips the ops that were due while it was down
    // (30 s of its quarter of the trace), so allow for that gap.
    let done = r.hits + r.remote_reads + r.writes + r.op_failures;
    let total = trace.records.len() as u64;
    assert!(
        done >= total - 40 && done <= total,
        "done {done} of {total}"
    );
}
