//! The file-system simulator serving as a replicated grantor: the
//! election on the one simulated network, and file leases under it.

mod common;

use common::{acquired_after, run_default};
use lease_clock::{ClockModel, Dur, Time};
use lease_faults::{check_history, grantor_claims, FaultPlan, HistoryEvent, Violation};
use lease_quorum::QuorumConfig;
use lease_vsys::{run_trace_with_history, ClientConfig, SystemConfig, TermSpec};
use lease_workload::{FileClass, FileSpec, Trace, TraceOp, TraceRecord};

#[test]
fn quiet_run_elects_and_renews_one_grantor() {
    let out = run_default(FaultPlan::new(0), Dur::from_secs(10));
    assert!(out.acquisitions >= 2, "election plus renewals expected");
    // All claims belong to replica 0 (the stagger winner) and close
    // cleanly or run to the end.
    for e in &out.history.events {
        match e {
            HistoryEvent::GrantorAcquired { replica, .. }
            | HistoryEvent::GrantorCeded { replica, .. } => assert_eq!(*replica, 0),
            other => panic!("unexpected event {other:?}"),
        }
    }
}

#[test]
fn same_seed_same_history() {
    let plan = FaultPlan::new(1234)
        .kill_replica(Dur::from_millis(700), 0)
        .drop_messages(0.1)
        .delay_messages(Dur::from_millis(5));
    let a = run_default(plan.clone(), Dur::from_secs(10));
    let b = run_default(plan, Dur::from_secs(10));
    assert_eq!(a.history.events, b.history.events);
    assert_eq!(a.messages_sent, b.messages_sent);
}

#[test]
fn killed_leader_hands_over() {
    let plan = FaultPlan::new(7).kill_replica(Dur::from_millis(300), 0);
    let out = run_default(plan, Dur::from_secs(10));
    let successors = acquired_after(&out.history, Time::from_millis(300));
    assert!(
        successors.iter().any(|r| *r != 0),
        "another replica must take over: {:?}",
        out.history.events
    );
}

/// Replica 0 sends its first two prepares at 0; on the simulated LAN
/// they land at 1.5 ms and 2 ms, and the promises leave as they land.
/// Cutting both receivers from 0.5 ms loses the prepares in flight:
/// neither answers, so only the two prepares were ever sent.
#[test]
fn a_message_in_flight_when_its_receivers_cut_begins_is_lost() {
    let sent = |plan| run_default(plan, Dur::from_micros(2500)).messages_sent;
    assert_eq!(sent(FaultPlan::new(0)), 4, "two prepares, two promises");
    let (from, until) = (Dur::from_micros(500), Dur::from_millis(100));
    let plan = FaultPlan::new(0)
        .cut_replica(from, until, 1)
        .cut_replica(from, until, 2);
    assert_eq!(sent(plan), 2, "the prepares were lost in flight");
}

/// With every replica restarted at once, nobody may promise for
/// `max_term`; after that the restarted ticks must elect again.
#[test]
fn killing_every_replica_still_elects_after_max_term() {
    let kill = Dur::from_millis(500);
    let plan = (0..3).fold(FaultPlan::new(3), |p, r| p.kill_replica(kill, r));
    let out = run_default(plan, Dur::from_secs(4));
    let after = Time::ZERO + kill + QuorumConfig::default().max_term;
    assert!(
        !acquired_after(&out.history, after).is_empty(),
        "no grantor after {after}: {:?}",
        out.history.events
    );
}

/// The plan `chaos replicated` runs for seed 3 over a window of
/// `CHAOS_MS`: message faults on every link, replica 0 killed a third of
/// the way in, replica 1 cut for 250 ms at two thirds, and replica 2's
/// clock at twice the true rate.
fn seed_3_plan() -> FaultPlan {
    FaultPlan::new(3)
        .drop_messages(0.05)
        .duplicate_messages(0.02)
        .delay_messages(Dur::from_millis(4))
        .kill_replica(Dur::from_millis(CHAOS_MS / 3), 0)
        .cut_replica(
            Dur::from_millis(2 * CHAOS_MS / 3),
            Dur::from_millis(2 * CHAOS_MS / 3 + 250),
            1,
        )
        .with_replica_clock(2, ClockModel::drifting(1_000_000.0))
}

const CHAOS_MS: u64 = 1500;

/// Two clients over two files, every `period_ms`: one reads a file and
/// the other then writes it, the roles and the file swapping each round.
fn each_writes_what_the_other_read(period_ms: u64) -> Trace {
    let files = (0..2)
        .map(|id| FileSpec {
            id,
            class: FileClass::Regular,
            path: None,
        })
        .collect();
    let records = (0..CHAOS_MS / period_ms)
        .flat_map(|k| {
            let (reader, file) = ((k % 2) as u32, k % 2);
            let at = |ms| Time::from_millis(k * period_ms + ms);
            [
                TraceRecord {
                    at: at(0),
                    client: reader,
                    op: TraceOp::Read { file },
                },
                TraceRecord {
                    at: at(period_ms / 2),
                    client: 1 - reader,
                    op: TraceOp::Write { file },
                },
            ]
        })
        .collect();
    Trace::new(files, records)
}

/// Runs the seed-3 plan under `chaos replicated`'s quorum, file-lease
/// term and client settings, a round every 40 ms, the world seeded by the
/// plan's seed.
fn seed_3_history() -> lease_faults::History {
    let cfg = SystemConfig {
        term: TermSpec::Fixed(Dur::from_millis(150)),
        client: ClientConfig {
            epsilon: Dur::from_millis(5),
            retry_interval: Dur::from_millis(15),
            max_retries: 800,
            ..ClientConfig::default()
        },
        faults: seed_3_plan(),
        quorum: Some(QuorumConfig::quick()),
        drain: Dur::from_secs(2),
        seed: 3,
        ..SystemConfig::default()
    };
    let (_, h) = run_trace_with_history(&cfg, &each_writes_what_the_other_read(40));
    let history = h.history.borrow().clone();
    history
}

/// A known fault (ROADMAP, "A fast-clocked replica must not serve file
/// leases"): a grantor whose clock runs 2× fast serves file leases.
/// Replica 2 takes over after the kill and the cut; its §5 recovery and
/// its leases end after half their true length, so it commits a write
/// while a reader still holds a lease that it or its predecessor
/// granted, and the reader reads its cached copy. This is `chaos
/// replicated` seed 3, deterministic. The fix for that item turns this
/// test red on purpose.
#[test]
fn known_fault_seed_3_a_fast_grantor_serves_stale_reads() {
    let history = seed_3_history();
    assert_eq!(history.events, seed_3_history().events, "not deterministic");
    let claims = grantor_claims(&history);
    let violations = check_history(&history).expect_err("the fast grantor serves a stale read");
    let under_replica_2 = violations.iter().any(|v| match v {
        Violation::StaleRead { valid_until, .. } => claims
            .iter()
            .any(|c| c.replica == 2 && c.from <= *valid_until && *valid_until < c.until),
        _ => false,
    });
    assert!(
        under_replica_2,
        "expected a StaleRead under replica 2's claim, got {violations:?}"
    );
}
