//! Chaos tests: supervised shard crashes and seeded fault plans against
//! the real-time deployment, judged by the consistency oracle.
//!
//! These are the rt analogues of the simulator's fault-plan tests: the
//! recorded true-time history must satisfy `lease_faults::check_history`
//! under every injected fault the protocol claims to tolerate — and must
//! *fail* it when a fault the protocol does NOT tolerate (a fast server
//! clock breaking §5's assumptions) is injected.

use std::time::{Duration, Instant};

use bytes::Bytes;
use lease_clock::{ClockModel, Dur};
use lease_faults::{check_history, Violation};
use lease_rt::{FaultPlan, RtSystem};

/// Tentpole acceptance: kill the (only) shard mid-workload. The
/// supervisor restarts it through §5 MaxTerm recovery; during the
/// recovery window grants are refused and writes stall, and afterwards
/// everything proceeds — with a history the oracle accepts.
#[test]
fn shard_crash_recovers_within_max_term_and_history_is_consistent() {
    crash_recovers_within_max_term(1, |sys| sys.kill_shard(0));
}

/// The same through the paper's own crash: the whole server at once,
/// every shard of it.
#[test]
fn server_crash_recovers_within_max_term_and_history_is_consistent() {
    crash_recovers_within_max_term(2, |sys| sys.kill_replica(0));
}

fn crash_recovers_within_max_term(shards: usize, crash: impl FnOnce(&RtSystem)) {
    let term = 300u64;
    let sys = RtSystem::builder()
        .term(Dur::from_millis(term))
        .epsilon(Dur::from_millis(5))
        .retry_interval(Dur::from_millis(20))
        .max_retries(200)
        .file("/data/a", b"alpha".as_ref())
        .clients(2)
        .shards(shards)
        .start();
    let a = sys.lookup("/data/a").unwrap();
    let (c0, c1) = (sys.client(0), sys.client(1));

    // Warm up: a grant makes the max term durable, and both clients hold
    // leases the crash will wipe.
    assert_eq!(c0.read(a).unwrap(), Bytes::from_static(b"alpha"));
    c1.read(a).unwrap();

    crash(&sys);
    std::thread::sleep(Duration::from_millis(30)); // Let the supervisor restart it.

    // A fetch during the recovery window is refused (silently — the
    // client's retransmission machinery rides it out), and a write
    // stalls until the window passes, then completes.
    let reader = {
        let c1 = c1.clone();
        std::thread::spawn(move || {
            // c1's lease is still live on its own clock, so force a fresh
            // fetch by asking for a resource state only the server knows.
            c1.write(a, b"from-c1".as_ref()).unwrap();
        })
    };
    let start = Instant::now();
    let v = c0.write(a, b"post-crash".as_ref()).unwrap();
    let waited = start.elapsed();
    // c0's and c1's writes serialize in either order: versions {2, 3}.
    assert!(v.0 >= 2, "write must commit a fresh version, got {v:?}");
    assert!(
        waited >= Duration::from_millis(term / 2),
        "write must stall for the §5 recovery window, waited {waited:?}"
    );
    assert!(
        waited < Duration::from_millis(3 * term),
        "recovery stall must be bounded by the max term, waited {waited:?}"
    );
    reader.join().unwrap();

    // Post-recovery reads see the latest committed data.
    let (data, _, _) = c0.read_detailed(a).unwrap();
    assert!(
        data == Bytes::from_static(b"post-crash") || data == Bytes::from_static(b"from-c1"),
        "read must return a committed post-crash value, got {data:?}"
    );

    let stats = sys.server_stats().expect("restarted shard answers stats");
    assert_eq!(
        stats.shard_restarts,
        vec![1; shards],
        "exactly one supervised restart of each crashed shard"
    );

    let history = sys.history();
    sys.shutdown();
    assert!(!history.is_empty());
    check_history(&history).expect("crash/restart must not break consistency");
}

/// Grants are refused (not just writes deferred) during the recovery
/// window when the deployment asks for it.
#[test]
fn recovery_window_refuses_grants() {
    let term = 250u64;
    let sys = RtSystem::builder()
        .term(Dur::from_millis(term))
        .retry_interval(Dur::from_millis(15))
        .max_retries(200)
        .file("/data/a", b"alpha".as_ref())
        .clients(2)
        .start();
    let a = sys.lookup("/data/a").unwrap();
    let (c0, c1) = (sys.client(0), sys.client(1));
    c0.read(a).unwrap(); // Persist the max term.

    sys.kill_shard(0);
    std::thread::sleep(Duration::from_millis(30));

    // c1 never held a lease, so this read needs a fresh grant — which the
    // recovering server refuses until the window passes.
    let start = Instant::now();
    assert_eq!(c1.read(a).unwrap(), Bytes::from_static(b"alpha"));
    let waited = start.elapsed();
    assert!(
        waited >= Duration::from_millis(term / 3),
        "grant should have been deferred by recovery, waited {waited:?}"
    );

    let stats = sys.server_stats().unwrap();
    assert!(
        stats.counters.recovery_refusals >= 1,
        "the recovering shard must have refused at least one grant, got {}",
        stats.counters.recovery_refusals
    );
    let history = sys.history();
    sys.shutdown();
    check_history(&history).expect("recovery refusals must not break consistency");
}

/// A seeded plan of message drops, duplicates and delays: the protocol's
/// retransmission and approval machinery must keep the history clean.
#[test]
fn seeded_message_chaos_preserves_consistency() {
    let plan = FaultPlan::new(0xC0FFEE)
        .drop_messages(0.05)
        .duplicate_messages(0.05)
        .delay_messages(Dur::from_millis(5));
    let sys = RtSystem::builder()
        .term(Dur::from_millis(250))
        .epsilon(Dur::from_millis(10))
        .retry_interval(Dur::from_millis(20))
        .max_retries(400)
        .file("/data/a", b"a0".as_ref())
        .file("/data/b", b"b0".as_ref())
        .clients(2)
        .chaos(plan)
        .start();
    let a = sys.lookup("/data/a").unwrap();
    let b = sys.lookup("/data/b").unwrap();
    let (c0, c1) = (sys.client(0), sys.client(1));

    for k in 0..6 {
        c0.read(a).unwrap();
        c1.read(b).unwrap();
        c0.write(b, format!("b{}", k + 1).into_bytes()).unwrap();
        c1.read(b).unwrap();
        c1.write(a, format!("a{}", k + 1).into_bytes()).unwrap();
        c0.read(a).unwrap();
    }

    let history = sys.history();
    sys.shutdown();
    check_history(&history).expect("drop/dup/delay chaos must not break consistency");
}

/// Companion negative test: a server clock running 2x fast breaks §5's
/// clock assumption — the server expires leases early and commits writes
/// while a (truthfully timed) client still serves its cache. The perfect
/// observer must catch the resulting stale read even though the protocol
/// participants never notice.
#[test]
fn fast_server_clock_is_caught_by_the_oracle() {
    let term = 400u64;
    let plan = FaultPlan::new(7).with_server_clock(ClockModel::drifting(1_000_000.0)); // 2x speed
    let sys = RtSystem::builder()
        .term(Dur::from_millis(term))
        .epsilon(Dur::from_millis(5))
        .retry_interval(Dur::from_millis(20))
        .max_retries(100)
        .file("/data/a", b"v-old".as_ref())
        .clients(2)
        .chaos(plan)
        .start();
    let a = sys.lookup("/data/a").unwrap();
    let (c0, c1) = (sys.client(0), sys.client(1));

    // c1 takes a lease it will (correctly, on true time) hold for ~400 ms.
    // The fast server clock expires the grant after only ~200 ms of true
    // time, so the write below commits without c1's approval.
    let (_, v_old, _) = c1.read_detailed(a).unwrap();
    std::thread::sleep(Duration::from_millis(term * 5 / 8));
    c0.write(a, b"v-new".as_ref()).unwrap();

    // Still inside c1's true-time lease: a cache hit serving stale data.
    let (_, v_seen, from_cache) = c1.read_detailed(a).unwrap();
    assert!(from_cache, "c1's lease must still be live on its own clock");
    assert_eq!(
        v_seen, v_old,
        "the stale cache still serves the old version"
    );

    let history = sys.history();
    sys.shutdown();
    let violations = check_history(&history).expect_err("the oracle must flag the stale read");
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, Violation::StaleRead { .. })),
        "expected a StaleRead violation, got {violations:?}"
    );
}
