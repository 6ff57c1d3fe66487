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
use lease_faults::FaultPlan;
use lease_rt::{QuorumConfig, RtSystem};

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
        .client(|c| {
            c.retry_interval = Dur::from_millis(20);
            c.max_retries = 100;
        })
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
        .client(|c| {
            c.retry_interval = Dur::from_millis(20);
            c.max_retries = 200;
        })
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
        .client(|c| {
            c.retry_interval = Dur::from_millis(15);
            c.max_retries = 300;
        })
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

/// A new grantor's shards restart into §5 recovery themselves, before
/// they answer anything for it, so no request can be granted by the
/// incarnation from before the election and then wait behind that
/// incarnation's restart. Twenty systems, each used the moment a
/// grantor is visible (polled without sleeping, so the first request
/// races the acquisition): both clients' first opens answer in well
/// under half a (10 s) term.
#[test]
fn first_ops_after_an_election_never_wait_out_a_term() {
    let term = Dur::from_secs(10);
    let half = Duration::from(term) / 2;
    for start in 0..20 {
        let sys = RtSystem::builder()
            .term(term)
            .quorum(QuorumConfig::quick())
            .clients(2)
            .file("/doc/draft.tex", b"x".as_ref())
            .start();
        let t0 = Instant::now();
        while sys.current_grantor().is_none() {
            assert!(t0.elapsed() < Duration::from_secs(5), "no grantor");
            std::thread::yield_now();
        }
        let dir = sys.dir("/doc").unwrap();
        for c in 0..2 {
            let t0 = Instant::now();
            assert!(sys.client(c).open(dir, "draft.tex").unwrap().is_some());
            let took = t0.elapsed();
            assert!(
                took < half,
                "start {start}: client {c}'s first open took {took:?}"
            );
        }
        sys.shutdown();
    }
}

/// Only the grantor extends installed-file leases. Every replica's shards
/// tick the §4 multicast, but a non-grantor's is dropped at its egress
/// fence: otherwise it would go on extending the old version up to the
/// grantor's delayed commit of an install, and a cached read between
/// that commit and the next tick would be stale.
#[test]
fn only_the_grantor_extends_installed_leases() {
    let sys = RtSystem::builder()
        .term(Dur::from_millis(200))
        .quorum(QuorumConfig::quick())
        .installed_file("/bin/latex", b"v1".as_ref())
        .installed_multicast(Dur::from_millis(20), Dur::from_millis(200))
        .start();
    wait_for("a grantor", Duration::from_secs(5), || {
        sys.current_grantor().is_some()
    });
    let latex = sys.lookup("/bin/latex").unwrap();
    let c0 = sys.client(0);
    // The grant is anchored at the op's first send, before the grantor's
    // recovery: the multicast is what makes the copy a hit.
    wait_for("an installed lease", Duration::from_secs(5), || {
        c0.read_detailed(latex).unwrap().2
    });
    sys.install(latex, b"v2".as_ref());
    // Read as the cache answers, well inside every tick, until v2 shows.
    let t0 = Instant::now();
    while c0.read(latex).unwrap() != Bytes::from_static(b"v2") {
        assert!(t0.elapsed() < Duration::from_secs(5), "v2 never arrived");
        std::thread::sleep(Duration::from_micros(200));
    }
    let history = sys.history();
    sys.shutdown();
    let res = check_history(&history);
    assert!(res.is_ok(), "violations: {:?}", res.err());
}

/// A deposed grantor commits nothing. Replica 0 is cut off just after an
/// install reached it, so the install's delayed commit comes due after
/// its gate has closed — and after its successor, opening its own
/// session, has multicast the old version's installed lease from its
/// recovery start. A commit then would make cached reads stale until the
/// successor's next tick; the store fence refuses it, and the install is
/// lost like any other message of a deposed server.
#[test]
fn a_deposed_grantor_commits_nothing() {
    const CUT_AT: Duration = Duration::from_secs(2);
    for _ in 0..10 {
        let started = Instant::now();
        let cut = FaultPlan::new(1).cut_replica(CUT_AT.into(), (CUT_AT * 2).into(), 0);
        let sys = RtSystem::builder()
            .term(Dur::from_millis(200))
            .client(|c| c.max_retries = 200)
            .quorum(QuorumConfig::quick())
            .installed_file("/bin/latex", b"v1".as_ref())
            .installed_multicast(Dur::from_millis(20), Dur::from_secs(1))
            .chaos(cut)
            .start();
        wait_for("a grantor", Duration::from_secs(5), || {
            sys.current_grantor().is_some()
        });
        if sys.current_grantor() != Some(0) {
            sys.shutdown(); // The plan cuts replica 0: try again.
            continue;
        }
        let latex = sys.lookup("/bin/latex").unwrap();
        let c0 = sys.client(0);
        // Granted once the grantor's recovery (the 1 s installed term)
        // is over.
        assert_eq!(c0.read(latex).unwrap(), Bytes::from_static(b"v1"));
        let install_at = started + CUT_AT - Duration::from_millis(50);
        std::thread::sleep(install_at.saturating_duration_since(Instant::now()));
        sys.install(latex, b"v2".as_ref());
        // Through the cut, the succession and the deposed deadline.
        while started.elapsed() < CUT_AT + Duration::from_millis(1_500) {
            let _ = c0.read(latex);
            std::thread::sleep(Duration::from_micros(200));
        }
        let history = sys.history();
        sys.shutdown();
        let res = check_history(&history);
        assert!(res.is_ok(), "violations: {:?}", res.err());
        return;
    }
    panic!("replica 0 never won the first election");
}

/// A plan's shard-level faults act under a quorum too: the kill names a
/// shard, and that shard restarts on every replica — the grantor's once
/// more than its takeover recovery alone accounts for.
#[test]
fn a_plans_shard_kill_restarts_that_shard_under_a_quorum() {
    let sys = RtSystem::builder()
        .term(Dur::from_millis(150))
        .client(|c| {
            c.retry_interval = Dur::from_millis(20);
            c.max_retries = 200;
        })
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
            .is_some_and(|s| s.restarts[0] > s.restarts[1])
    });
    assert_eq!(c0.read(a).unwrap(), Bytes::from_static(b"v0"));

    let history = sys.history();
    sys.shutdown();
    let res = check_history(&history);
    assert!(res.is_ok(), "violations: {:?}", res.err());
}
