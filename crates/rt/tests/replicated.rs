//! End-to-end tests of a system under a grantor quorum: N replicas over
//! one durable store, clients failing over to the current grantor.
//!
//! The acceptance bar is the satellite requirement: killing the grantor
//! produces zero oracle violations and a bounded added delay — the next
//! retransmission simply lands on the successor once its takeover
//! recovery completes.

use std::time::{Duration, Instant};

use bytes::Bytes;
use lease_clock::Dur;
use lease_faults::check_history;
use lease_rt::{FaultPlan, QuorumConfig, RtSystem};

fn wait_for<F: Fn() -> bool>(what: &str, timeout: Duration, f: F) {
    let start = Instant::now();
    while !f() {
        assert!(start.elapsed() < timeout, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The quiet path: one replica wins the election and serves reads and
/// writes exactly like the single server, cache hits included.
#[test]
fn replicated_system_serves_reads_and_writes() {
    let sys = RtSystem::builder()
        .term(Dur::from_millis(200))
        .retry_interval(Dur::from_millis(20))
        .max_retries(100)
        .quorum(QuorumConfig::quick())
        .clients(2)
        .file("/data/a", b"v0".as_ref())
        .start();
    let a = sys.lookup("/data/a").unwrap();
    let (c0, c1) = (sys.client(0), sys.client(1));

    assert_eq!(c0.read(a).unwrap(), Bytes::from_static(b"v0"));
    let (_, _, from_cache) = c0.read_detailed(a).unwrap();
    assert!(
        from_cache,
        "second read inside the term must be a cache hit"
    );

    c1.write(a, b"v1".as_ref()).unwrap();
    assert_eq!(c0.read(a).unwrap(), Bytes::from_static(b"v1"));
    assert!(sys.current_grantor().is_some());

    let history = sys.history();
    sys.shutdown();
    let res = check_history(&history);
    assert!(res.is_ok(), "violations: {:?}", res.err());
}

/// Satellite acceptance: kill the grantor mid-workload. A successor takes
/// over, clients fail over through retransmission alone, the post-kill
/// write completes within a bounded delay, and the oracle accepts the
/// whole history.
#[test]
fn killed_grantor_fails_over_with_no_violations_and_bounded_delay() {
    let sys = RtSystem::builder()
        .term(Dur::from_millis(150))
        .retry_interval(Dur::from_millis(20))
        .max_retries(200)
        .quorum(QuorumConfig::quick())
        .clients(2)
        .file("/data/a", b"v0".as_ref())
        .start();
    let a = sys.lookup("/data/a").unwrap();
    let (c0, c1) = (sys.client(0), sys.client(1));

    // Warm up through the first grantor: both clients hold leases its
    // death will orphan.
    assert_eq!(c0.read(a).unwrap(), Bytes::from_static(b"v0"));
    c1.write(a, b"v1".as_ref()).unwrap();
    let first = sys.current_grantor().expect("a grantor served the warmup");

    sys.kill_replica(first);

    // The write straddling the takeover: it must reach the successor via
    // ordinary retransmission and commit once §5 recovery lets writes
    // through. Budget = grantor-lease expiry on the surviving acceptors
    // (~250 ms) + election + the successor's recovery window (~150 ms
    // file term), with generous headroom for load.
    let t0 = Instant::now();
    c0.write(a, b"v2".as_ref()).unwrap();
    let delay = t0.elapsed();
    assert!(
        delay < Duration::from_secs(4),
        "failover took {delay:?}, expected bounded takeover"
    );

    wait_for(
        "successor grantor",
        Duration::from_secs(5),
        || matches!(sys.current_grantor(), Some(g) if g != first),
    );

    // Post-takeover reads see the committed write (the successor granted
    // nothing until every lease of its predecessor could have expired).
    assert_eq!(c1.read(a).unwrap(), Bytes::from_static(b"v2"));

    let history = sys.history();
    sys.shutdown();
    let res = check_history(&history);
    assert!(res.is_ok(), "violations: {:?}", res.err());
}

/// Killing grantors repeatedly — every replica in turn — never corrupts
/// the history: each successor defers until its predecessor's grants are
/// dead, and clients just keep retrying.
#[test]
fn rolling_grantor_kills_keep_history_consistent() {
    let sys = RtSystem::builder()
        .term(Dur::from_millis(120))
        .retry_interval(Dur::from_millis(15))
        .max_retries(300)
        .quorum(QuorumConfig::quick())
        .clients(2)
        .file("/data/a", b"r0".as_ref())
        .start();
    let a = sys.lookup("/data/a").unwrap();
    let (c0, c1) = (sys.client(0), sys.client(1));

    assert_eq!(c0.read(a).unwrap(), Bytes::from_static(b"r0"));
    for round in 1..=3u32 {
        if let Some(g) = sys.current_grantor() {
            sys.kill_replica(g);
        }
        let data = format!("r{round}");
        c1.write(a, data.clone().into_bytes()).unwrap();
        assert_eq!(c0.read(a).unwrap(), Bytes::from(data.into_bytes()));
    }

    let history = sys.history();
    sys.shutdown();
    let res = check_history(&history);
    assert!(res.is_ok(), "violations: {:?}", res.err());
}

/// A plan's shard-level faults act under a quorum too: the kill names a
/// shard, and that shard restarts on every replica — the grantor's once
/// more than its takeover recovery alone accounts for.
#[test]
fn a_plans_shard_kill_restarts_that_shard_under_a_quorum() {
    let sys = RtSystem::builder()
        .term(Dur::from_millis(150))
        .retry_interval(Dur::from_millis(20))
        .max_retries(200)
        .quorum(QuorumConfig::quick())
        .clients(1)
        .shards(2)
        .file("/data/a", b"v0".as_ref())
        .chaos(FaultPlan::new(1).kill_shard(Dur::from_millis(600), 0))
        .start();
    let a = sys.lookup("/data/a").unwrap();
    let c0 = sys.client(0);
    assert_eq!(c0.read(a).unwrap(), Bytes::from_static(b"v0"));

    // Takeover recovery restarted both shards of the grantor alike; only
    // the plan's kill tells them apart.
    wait_for("the plan's kill of shard 0", Duration::from_secs(5), || {
        sys.server_stats()
            .is_some_and(|s| s.shard_restarts[0] > s.shard_restarts[1])
    });
    assert_eq!(c0.read(a).unwrap(), Bytes::from_static(b"v0"));

    let history = sys.history();
    sys.shutdown();
    let res = check_history(&history);
    assert!(res.is_ok(), "violations: {:?}", res.err());
}
