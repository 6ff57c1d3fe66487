//! End-to-end tests of the write-back (token) system, judged by the same
//! single-copy oracle as the write-through system — with Discard events
//! accounting for crash-lost buffered writes.

use lease_clock::{Dur, Time};
use lease_faults::{check_history, HistoryEvent};
use lease_vsys::{run_trace, CrashEvent, NodeSel, SystemConfig, TermSpec};
use lease_wb::{run_wb_with_history, WbClientConfig, WbConfig};
use lease_workload::{FileClass, FileSpec, PoissonWorkload, Trace, TraceOp, TraceRecord};

fn shared_workload(seed: u64) -> Trace {
    PoissonWorkload {
        n: 4,
        r: 0.8,
        w: 0.3,
        s: 2,
        duration: Dur::from_secs(300),
        seed,
    }
    .generate()
}

#[test]
fn fault_free_writeback_is_consistent() {
    let (r, h) = run_wb_with_history(&WbConfig::default(), &shared_workload(1));
    assert_eq!(r.op_failures, 0);
    check_history(&h.borrow()).expect("consistent");
}

#[test]
fn consistent_across_terms_and_flush_intervals() {
    for (term, flush) in [(2u64, 1u64), (10, 2), (10, 30), (30, 5)] {
        let cfg = WbConfig {
            term: Dur::from_secs(term),
            client: WbClientConfig {
                flush_interval: Dur::from_secs(flush),
                ..WbClientConfig::default()
            },
            ..WbConfig::default()
        };
        let (r, h) = run_wb_with_history(&cfg, &shared_workload(2));
        assert_eq!(r.op_failures, 0, "term {term} flush {flush}");
        check_history(&h.borrow()).unwrap_or_else(|v| panic!("term {term} flush {flush}: {v:?}"));
    }
}

#[test]
fn writeback_collapses_write_traffic() {
    // A write-heavy single-client workload: write-through pays one server
    // round trip per write; the token buffers them and flushes a handful
    // of collapsed write-backs.
    let trace = PoissonWorkload {
        n: 1,
        r: 0.2,
        w: 2.0,
        s: 1,
        duration: Dur::from_secs(300),
        seed: 3,
    }
    .generate();

    let wt = run_trace(
        &SystemConfig {
            term: TermSpec::Fixed(Dur::from_secs(10)),
            warmup: Dur::from_secs(30),
            ..SystemConfig::default()
        },
        &trace,
    );
    let (wb, h) = run_wb_with_history(
        &WbConfig {
            warmup: Dur::from_secs(30),
            client: WbClientConfig {
                flush_interval: Dur::from_secs(5),
                ..WbClientConfig::default()
            },
            ..WbConfig::default()
        },
        &trace,
    );
    check_history(&h.borrow()).expect("consistent");
    assert!(
        wb.data_msgs * 5 < wt.data_msgs,
        "write-back {} data msgs should be well under write-through's {}",
        wb.data_msgs,
        wt.data_msgs
    );
    // And local writes complete with no added delay.
    assert!(
        wb.write_delay.mean < wt.write_delay.mean / 2.0,
        "buffered writes ({:.6}s) should beat write-through ({:.6}s)",
        wb.write_delay.mean,
        wt.write_delay.mean
    );
}

#[test]
fn recall_moves_fresh_data_between_caches() {
    // Client 0 buffers writes; client 1 then reads and must see them: the
    // recall forces the flush before the read grant.
    let records = vec![
        TraceRecord {
            at: Time::from_secs(1),
            client: 0,
            op: TraceOp::Write { file: 1 },
        },
        TraceRecord {
            at: Time::from_secs(2),
            client: 0,
            op: TraceOp::Write { file: 1 },
        },
        TraceRecord {
            at: Time::from_secs(3),
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
    // Long flush interval: only the recall can move the data.
    let cfg = WbConfig {
        client: WbClientConfig {
            flush_interval: Dur::from_secs(600),
            ..WbClientConfig::default()
        },
        ..WbConfig::default()
    };
    let (r, h) = run_wb_with_history(&cfg, &trace);
    assert_eq!(r.op_failures, 0);
    check_history(&h.borrow()).expect("consistent");
    let hist = h.borrow();
    // The read saw the second buffered write's version (v3: base 1 + two).
    let read_version = hist.events.iter().find_map(|e| match e {
        HistoryEvent::ReadDone {
            client, version, ..
        } if client.0 == 1 => Some(version.0),
        _ => None,
    });
    assert_eq!(read_version, Some(3));
}

#[test]
fn crash_loses_buffered_writes_but_stays_single_copy() {
    // Client 0 buffers a write and crashes before any flush; the write is
    // lost (the §2 hazard write-through avoids). Client 1 then reads the
    // *old* data — legally, which the Discard-aware oracle confirms.
    let records = vec![
        TraceRecord {
            at: Time::from_secs(1),
            client: 0,
            op: TraceOp::Write { file: 1 },
        },
        TraceRecord {
            at: Time::from_secs(30),
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
    let cfg = WbConfig {
        client: WbClientConfig {
            flush_interval: Dur::from_secs(600), // never flushes in time
            ..WbClientConfig::default()
        },
        crashes: vec![CrashEvent {
            at: Time::from_secs(2),
            node: NodeSel::Client(0),
            recover_at: None,
        }],
        ..WbConfig::default()
    };
    let (_, h) = run_wb_with_history(&cfg, &trace);
    let hist = h.borrow();
    // The buffered commit and its discard are both on record.
    assert!(hist
        .events
        .iter()
        .any(|e| matches!(e, HistoryEvent::Commit { version, .. } if version.0 > 1)));
    assert!(hist
        .events
        .iter()
        .any(|e| matches!(e, HistoryEvent::Discard { last_durable, .. } if last_durable.0 == 1)));
    // Client 1 read the old version 1 — fine after the discard.
    let read_version = hist.events.iter().find_map(|e| match e {
        HistoryEvent::ReadDone {
            client, version, ..
        } if client.0 == 1 => Some(version.0),
        _ => None,
    });
    assert_eq!(read_version, Some(1));
    check_history(&hist).expect("lost writes are not an inconsistency under discard semantics");
}

#[test]
fn without_discard_accounting_the_lost_write_would_be_flagged() {
    // Sanity-check the oracle itself: stripping the Discard events from
    // the same history must produce violations (the reader of v1 after
    // the buffered v2 commit would look stale).
    let records = vec![
        TraceRecord {
            at: Time::from_secs(1),
            client: 0,
            op: TraceOp::Write { file: 1 },
        },
        TraceRecord {
            at: Time::from_secs(30),
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
    let cfg = WbConfig {
        client: WbClientConfig {
            flush_interval: Dur::from_secs(600),
            ..WbClientConfig::default()
        },
        crashes: vec![CrashEvent {
            at: Time::from_secs(2),
            node: NodeSel::Client(0),
            recover_at: None,
        }],
        ..WbConfig::default()
    };
    let (_, h) = run_wb_with_history(&cfg, &trace);
    let mut stripped = lease_faults::History::new();
    for e in &h.borrow().events {
        if !matches!(e, HistoryEvent::Discard { .. }) {
            stripped.push(*e);
        }
    }
    assert!(
        check_history(&stripped).is_err(),
        "discards are load-bearing"
    );
}

#[test]
fn writer_ping_pong_serializes_through_recalls() {
    // Two clients alternately writing the same file: every handover goes
    // through recall + flush, versions never collide, and the oracle is
    // satisfied.
    let mut records = Vec::new();
    for s in 1..60u64 {
        records.push(TraceRecord {
            at: Time::from_secs(s),
            client: (s % 2) as u32,
            op: TraceOp::Write { file: 1 },
        });
        records.push(TraceRecord {
            at: Time::from_millis(s * 1000 + 500),
            client: ((s + 1) % 2) as u32,
            op: TraceOp::Read { file: 1 },
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
    let (r, h) = run_wb_with_history(&WbConfig::default(), &trace);
    assert_eq!(r.op_failures, 0);
    check_history(&h.borrow()).expect("consistent");
    // Handover happened via recalls, visible as approval-channel traffic.
    assert!(
        r.approval_msgs > 10,
        "expected recall traffic, got {}",
        r.approval_msgs
    );
}

#[test]
fn deterministic_runs() {
    let trace = shared_workload(9);
    let (a, _) = run_wb_with_history(&WbConfig::default(), &trace);
    let (b, _) = run_wb_with_history(&WbConfig::default(), &trace);
    assert_eq!(a.consistency_msgs, b.consistency_msgs);
    assert_eq!(a.hits, b.hits);
}

/// One file, written by client 0 at each instant in `writes`.
fn writes_by_client_0(writes: &[u64]) -> Trace {
    let records = writes
        .iter()
        .map(|s| TraceRecord {
            at: Time::from_secs(*s),
            client: 0,
            op: TraceOp::Write { file: 1 },
        })
        .collect();
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
fn each_lost_write_is_stamped_with_its_own_crash() {
    // Client 0 buffers a write and crashes at 2 s, recovers at 10 s,
    // buffers another under a fresh token and crashes again at 40 s. The
    // oracle judges each loss over the window its Discard opens, so each
    // must carry the instant of the crash that lost it.
    let crash = |at: u64, recover_at: Option<u64>| CrashEvent {
        at: Time::from_secs(at),
        node: NodeSel::Client(0),
        recover_at: recover_at.map(Time::from_secs),
    };
    let cfg = WbConfig {
        client: WbClientConfig {
            flush_interval: Dur::from_secs(600),
            ..WbClientConfig::default()
        },
        crashes: vec![crash(2, Some(10)), crash(40, None)],
        ..WbConfig::default()
    };
    let (_, h) = run_wb_with_history(&cfg, &writes_by_client_0(&[1, 20]));
    let hist = h.borrow();
    let discarded_at: Vec<Time> = hist
        .events
        .iter()
        .filter_map(|e| match e {
            HistoryEvent::Discard { at, .. } => Some(*at),
            _ => None,
        })
        .collect();
    assert_eq!(discarded_at, vec![Time::from_secs(2), Time::from_secs(40)]);
    check_history(&hist).expect("consistent");
}

#[test]
#[should_panic(expected = "MaxTerm recovery")]
fn a_server_crash_is_refused() {
    let cfg = WbConfig {
        crashes: vec![CrashEvent {
            at: Time::from_secs(2),
            node: NodeSel::Server,
            recover_at: Some(Time::from_secs(3)),
        }],
        ..WbConfig::default()
    };
    run_wb_with_history(&cfg, &writes_by_client_0(&[1]));
}
