//! End-to-end tests of the real-time (threads + wall clock) deployment.
//!
//! Terms are hundreds of milliseconds so the suite stays fast while still
//! exercising genuine timer expiry. The arrangement is one more input:
//! what the protocol promises of *the* server it promises of the grantor
//! of a quorum, so the tests of those promises run under both.

use std::time::{Duration, Instant};

use bytes::Bytes;
use lease_clock::Dur;
use lease_rt::{QuorumConfig, RtSystem, RtSystemBuilder};

/// One server, and three replicas on the quick quorum.
fn arrangements() -> [Option<QuorumConfig>; 2] {
    [None, Some(QuorumConfig::quick())]
}

/// Starts `b` in the given arrangement. Under a quorum the test is held
/// until the first grantor is elected and its takeover restart has run: a
/// request that slips in between the gate opening and that restart is
/// granted, which makes the term durable and turns the restart into a
/// full-term §5 stall — safe, but at these terms longer than the test.
fn start(b: RtSystemBuilder, quorum: Option<QuorumConfig>) -> RtSystem {
    let Some(q) = quorum else {
        return b.start();
    };
    let sys = b.quorum(q).start();
    let deadline = Instant::now() + Duration::from_secs(5);
    while sys.current_grantor().is_none() {
        assert!(Instant::now() < deadline, "no grantor was elected");
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(50));
    sys
}

fn two_client_system(term_ms: u64, quorum: Option<QuorumConfig>) -> RtSystem {
    let b = RtSystem::builder()
        .term(Dur::from_millis(term_ms))
        .epsilon(Dur::from_millis(5))
        .retry_interval(Dur::from_millis(30))
        .max_retries(100)
        .file("/data/a", b"alpha".as_ref())
        .file("/data/b", b"beta".as_ref())
        .clients(2);
    start(b, quorum)
}

#[test]
fn read_write_roundtrip() {
    let sys = two_client_system(300, None);
    let a = sys.lookup("/data/a").unwrap();
    let c0 = sys.client(0);
    assert_eq!(c0.read(a).unwrap(), Bytes::from_static(b"alpha"));
    let v = c0.write(a, b"alpha2".as_ref()).unwrap();
    assert_eq!(v.0, 2);
    assert_eq!(c0.read(a).unwrap(), Bytes::from_static(b"alpha2"));
    sys.shutdown();
}

#[test]
fn second_read_is_a_cache_hit() {
    let sys = two_client_system(500, None);
    let a = sys.lookup("/data/a").unwrap();
    let c0 = sys.client(0);
    let (_, _, from_cache) = c0.read_detailed(a).unwrap();
    assert!(!from_cache, "first read fetches");
    let (_, _, from_cache) = c0.read_detailed(a).unwrap();
    assert!(from_cache, "second read inside the term is local");
    let stats = c0.stats().unwrap();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses_cold, 1);
    sys.shutdown();
}

#[test]
fn lease_expires_in_real_time() {
    let sys = two_client_system(150, None);
    let a = sys.lookup("/data/a").unwrap();
    let c0 = sys.client(0);
    c0.read(a).unwrap();
    std::thread::sleep(Duration::from_millis(250));
    let (_, _, from_cache) = c0.read_detailed(a).unwrap();
    assert!(!from_cache, "lease must have expired after 250 ms");
    let stats = c0.stats().unwrap();
    assert_eq!(stats.misses_extend, 1);
    sys.shutdown();
}

#[test]
fn write_invalidates_the_other_cache() {
    for quorum in arrangements() {
        let sys = two_client_system(5_000, quorum);
        let a = sys.lookup("/data/a").unwrap();
        let (c0, c1) = (sys.client(0), sys.client(1));
        assert_eq!(c1.read(a).unwrap(), Bytes::from_static(b"alpha"));
        // c0 writes; the server collects c1's approval (which invalidates).
        c0.write(a, b"new".as_ref()).unwrap();
        let (data, v, _) = c1.read_detailed(a).unwrap();
        assert_eq!(data, Bytes::from_static(b"new"));
        assert_eq!(v.0, 2);
        let stats = c1.stats().unwrap();
        assert_eq!(stats.approvals, 1);
        assert_eq!(stats.invalidations, 1);
        sys.shutdown();
    }
}

#[test]
fn unreachable_leaseholder_delays_write_by_one_term() {
    // The §5 claim — one term, no more — whoever grants.
    for quorum in arrangements() {
        let term = 400u64;
        let sys = two_client_system(term, quorum);
        let a = sys.lookup("/data/a").unwrap();
        let (c0, c1) = (sys.client(0), sys.client(1));
        c1.read(a).unwrap(); // c1 holds a 400 ms lease
        sys.set_cut(1, true); // c1 vanishes
        let start = Instant::now();
        c0.write(a, b"new".as_ref()).unwrap();
        let waited = start.elapsed();
        assert!(
            waited >= Duration::from_millis(150),
            "write should stall for the remaining term, waited {waited:?}"
        );
        assert!(
            waited < Duration::from_millis(term + 300),
            "stall must be bounded by the term, waited {waited:?}"
        );
        sys.set_cut(1, false);
        sys.shutdown();
    }
}

#[test]
fn cut_client_recovers_and_reads_fresh_data() {
    let sys = two_client_system(200, None);
    let a = sys.lookup("/data/a").unwrap();
    let (c0, c1) = (sys.client(0), sys.client(1));
    c1.read(a).unwrap();
    sys.set_cut(1, true);
    c0.write(a, b"v2".as_ref()).unwrap();
    sys.set_cut(1, false);
    // After healing, c1's lease has expired; its next read revalidates.
    std::thread::sleep(Duration::from_millis(250));
    assert_eq!(c1.read(a).unwrap(), Bytes::from_static(b"v2"));
    sys.shutdown();
}

#[test]
fn missing_resource_errors() {
    let sys = two_client_system(300, None);
    let c0 = sys.client(0);
    assert_eq!(
        c0.read(9999).unwrap_err(),
        lease_rt::RtError::NoSuchResource
    );
    sys.shutdown();
}

#[test]
fn installed_files_stay_fresh_via_multicast() {
    let sys = RtSystem::builder()
        .term(Dur::from_millis(200))
        .installed_file("/bin/latex", b"v1".as_ref())
        .installed_multicast(Dur::from_millis(100), Dur::from_millis(400))
        .clients(2)
        .start();
    let latex = sys.lookup("/bin/latex").unwrap();
    let c0 = sys.client(0);
    c0.read(latex).unwrap();
    // Multicast extensions keep the lease alive well past the base term.
    std::thread::sleep(Duration::from_millis(500));
    let (_, _, from_cache) = c0.read_detailed(latex).unwrap();
    assert!(
        from_cache,
        "installed lease should have been extended by multicast"
    );

    // Install a new version: delayed update, then clients see v2.
    sys.install(latex, b"v2".as_ref());
    std::thread::sleep(Duration::from_millis(700));
    assert_eq!(c0.read(latex).unwrap(), Bytes::from_static(b"v2"));
    sys.shutdown();
}

#[test]
fn concurrent_writers_serialize() {
    let sys = two_client_system(300, None);
    let a = sys.lookup("/data/a").unwrap();
    let mut handles = Vec::new();
    for i in 0..2 {
        let c = sys.client(i);
        handles.push(std::thread::spawn(move || {
            let mut versions = Vec::new();
            for k in 0..10 {
                let v = c.write(a, format!("w{i}-{k}").into_bytes()).unwrap();
                versions.push(v.0);
            }
            versions
        }));
    }
    let mut all: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    all.sort_unstable();
    // 20 writes, each a distinct version 2..=21: no lost updates.
    assert_eq!(all, (2..=21).collect::<Vec<u64>>());
    let stats = sys.server_stats().unwrap();
    assert_eq!(
        stats.writes_committed, 22,
        "20 client writes + 2 initial loads"
    );
    sys.shutdown();
}

#[test]
fn stats_reflect_protocol_activity() {
    let sys = two_client_system(300, None);
    let a = sys.lookup("/data/a").unwrap();
    let c0 = sys.client(0);
    c0.read(a).unwrap();
    c0.read(a).unwrap();
    c0.write(a, b"x".as_ref()).unwrap();
    let s = sys.server_stats().unwrap();
    assert!(s.counters.fetch_rx >= 1);
    assert!(s.counters.writes_rx >= 1);
    sys.shutdown();
}

#[test]
fn repeated_opens_hit_the_name_lease() {
    // §2: "In order to support a repeated open, the cache must also hold
    // the name-to-file binding... and it needs a lease over this
    // information in order to use that information to perform the open."
    let sys = RtSystem::builder()
        .term(Dur::from_millis(2000))
        .file("/doc/paper.tex", b"contents".as_ref())
        .clients(1)
        .start();
    let dir = sys.dir("/doc").unwrap();
    let c = sys.client(0);

    // First open fetches the directory bindings and takes a name lease.
    let id = c.open(dir, "paper.tex").unwrap().expect("bound");
    assert_eq!(id, sys.lookup("/doc/paper.tex").unwrap());
    let before = c.stats().unwrap();

    // Repeated opens are pure cache hits: no further server contact.
    for _ in 0..5 {
        assert_eq!(c.open(dir, "paper.tex").unwrap(), Some(id));
    }
    let after = c.stats().unwrap();
    assert_eq!(after.hits, before.hits + 5, "repeated opens must be local");
    assert_eq!(after.misses_cold, before.misses_cold);

    // The file itself reads normally through its own lease.
    assert_eq!(&c.read(id).unwrap()[..], b"contents");
    sys.shutdown();
}

#[test]
fn rename_invalidates_cached_name_bindings() {
    // §2: "modification of this information, such as renaming the file,
    // would constitute a write" — so it collects the binding-holder's
    // approval and invalidates its cached listing. Under a quorum the
    // rename is an admin write through whichever replica is the grantor.
    for quorum in arrangements() {
        let b = RtSystem::builder()
            .term(Dur::from_secs(10)) // long leases: only the callback can update
            .file("/doc/draft.tex", b"x".as_ref())
            .clients(2);
        let sys = start(b, quorum);
        let dir = sys.dir("/doc").unwrap();
        let (c0, c1) = (sys.client(0), sys.client(1));

        assert!(c0.open(dir, "draft.tex").unwrap().is_some());
        assert!(c1.open(dir, "draft.tex").unwrap().is_some());

        sys.rename(dir, "draft.tex", "final.tex");
        // The rename needs both caches' approvals; once it lands, the old
        // binding is gone and the new one resolves on the next open.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let old = c0.open(dir, "draft.tex").unwrap();
            let new = c0.open(dir, "final.tex").unwrap();
            if old.is_none() && new.is_some() {
                break;
            }
            assert!(Instant::now() < deadline, "rename did not become visible");
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(c1.open(dir, "final.tex").unwrap().is_some());
        let s = c1.stats().unwrap();
        assert!(
            s.invalidations >= 1,
            "the name lease must have been invalidated"
        );
        sys.shutdown();
    }
}

#[test]
fn create_and_unlink_flow_through_name_leases() {
    let sys = RtSystem::builder()
        .term(Dur::from_secs(5))
        .file("/data/seed", b"s".as_ref())
        .clients(1)
        .start();
    let dir = sys.dir("/data").unwrap();
    let c = sys.client(0);
    assert!(c.open(dir, "ghost").unwrap().is_none());

    sys.create(dir, "ghost");
    let deadline = Instant::now() + Duration::from_secs(5);
    let id = loop {
        if let Some(id) = c.open(dir, "ghost").unwrap() {
            break id;
        }
        assert!(Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(20));
    };
    // The fresh file is readable (empty).
    assert_eq!(c.read(id).unwrap().len(), 0);

    sys.unlink(dir, "ghost");
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if c.open(dir, "ghost").unwrap().is_none() {
            break;
        }
        assert!(Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(20));
    }
    sys.shutdown();
}

#[test]
fn sharded_runtime_preserves_cross_client_consistency() {
    // Many files spread across 4 shard workers: invalidation of another
    // client's cache must work wherever each file's lease lives, and the
    // merged stats must see every shard's traffic.
    let mut b = RtSystem::builder()
        .term(Dur::from_millis(400))
        .retry_interval(Dur::from_millis(30))
        .max_retries(100)
        .clients(2)
        .shards(4);
    for i in 0..12 {
        b = b.file(&format!("/data/f{i}"), format!("v{i}").into_bytes());
    }
    let sys = b.start();
    let (c0, c1) = (sys.client(0), sys.client(1));
    for i in 0..12 {
        let f = sys.lookup(&format!("/data/f{i}")).unwrap();
        assert_eq!(c1.read(f).unwrap(), Bytes::from(format!("v{i}")));
        c0.write(f, format!("w{i}").into_bytes()).unwrap();
        assert_eq!(
            c1.read(f).unwrap(),
            Bytes::from(format!("w{i}")),
            "client 1 must see client 0's write through shard {i}'s lease"
        );
    }
    let s = sys.server_stats().unwrap();
    // 12 writes seeding the files at startup plus the 12 written here.
    assert_eq!(s.writes_committed, 24);
    assert!(
        s.counters.fetch_rx >= 12,
        "merged counters cover all shards"
    );
    sys.shutdown();
}
