//! A hit is served on the caller's own thread, under the client's driver
//! lock. These tests hold that path to the oracle with many callers on
//! one handle, and pin what a parked caller sees at shutdown.

use std::io::Read;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
mod common;

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use bytes::Bytes;
use common::{history_with_commits, CommitLog, RecordingStore};
use lease_clock::{Clock, Dur, WallClock};
use lease_core::{LeaseServer, MemStorage, ServerConfig, Storage, Version};
use lease_faults::check_history;
use lease_net::NetServer;
use lease_rt::{NetClient, NetClientConfig, QuorumConfig, RtClientHandle, RtError, RtSystem};
use lease_svc::{Egress, EgressSink, LeaseService, SvcConfig, SvcHooks};
use lease_wire::HEADER_LEN;

const READERS: usize = 4;
const FILES: usize = 8;
const RUN: Duration = Duration::from_secs(2);

/// Four threads on clones of `reader` read `files` round-robin while
/// `writer` (another client) keeps rewriting them, for [`RUN`]. Every
/// thread checks that the version it sees of a file never goes
/// backwards. Returns how many reads the threads saw served from cache.
fn hammer(reader: &RtClientHandle, writer: &RtClientHandle, files: &[u64]) -> u64 {
    let stop = AtomicBool::new(false);
    let go = Barrier::new(READERS + 1);
    std::thread::scope(|s| {
        let readers: Vec<_> = (0..READERS)
            .map(|t| {
                let (reader, stop, go) = (reader.clone(), &stop, &go);
                s.spawn(move || {
                    let mut last = vec![Version(0); files.len()];
                    let mut hits = 0u64;
                    go.wait();
                    for k in t.. {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let f = k % files.len();
                        let (_, v, from_cache) = reader.read_detailed(files[f]).expect("read");
                        assert!(
                            v >= last[f],
                            "thread {t}: file {f} went back from {:?} to {v:?}",
                            last[f]
                        );
                        last[f] = v;
                        hits += u64::from(from_cache);
                    }
                    hits
                })
            })
            .collect();
        go.wait();
        let until = Instant::now() + RUN;
        for k in 0.. {
            if Instant::now() >= until {
                break;
            }
            writer
                .write(files[k % files.len()], format!("w{k}").into_bytes())
                .expect("write");
        }
        stop.store(true, Ordering::Relaxed);
        readers
            .into_iter()
            .map(|r| r.join().expect("reader thread"))
            .sum()
    })
}

#[test]
fn local_hit_linearizable_on_rtsystem() {
    // One server, then three replicas: a hit is the same local path
    // whoever granted the lease under it.
    for quorum in [None, Some(QuorumConfig::quick())] {
        let mut b = RtSystem::builder()
            .term(Dur::from_millis(150))
            .client(|c| c.epsilon = Dur::from_millis(5))
            .clients(2);
        if let Some(q) = quorum {
            b = b.quorum(q);
        }
        for f in 0..FILES {
            b = b.file(&format!("/data/f{f}"), b"v0".as_ref());
        }
        let sys = b.start();
        let files: Vec<u64> = (0..FILES)
            .map(|f| sys.lookup(&format!("/data/f{f}")).expect("file"))
            .collect();
        let (reader, writer) = (sys.client(0), sys.client(1));

        let counted = hammer(&reader, &writer, &files);
        let stats = reader.stats().expect("stats");
        let history = sys.history();
        sys.shutdown();

        assert!(counted > 0, "some reads must have hit");
        assert_eq!(stats.hits, counted, "every hit is counted exactly once");
        check_history(&history).expect("inline hits must be linearizable");
    }
}

#[test]
fn local_hit_linearizable_on_netclient() {
    let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
    let commits: CommitLog = Arc::default();
    let egress: Egress<u64, Bytes> = Egress::new(2, 1024);
    let service = LeaseService::spawn(
        SvcConfig::default(),
        Arc::new(EgressSink::new(egress.clone())),
        SvcHooks {
            clock: Some(Arc::clone(&clock)),
            ..SvcHooks::default()
        },
        {
            let (clock, commits) = (Arc::clone(&clock), Arc::clone(&commits));
            move |_| {
                let mut inner: MemStorage<u64, Bytes> = MemStorage::new();
                for f in 0..FILES as u64 {
                    inner.insert(f, Bytes::from_static(b"v0"));
                }
                (
                    LeaseServer::new(ServerConfig::fixed(Dur::from_millis(150))),
                    Box::new(RecordingStore {
                        inner,
                        clock: Arc::clone(&clock),
                        commits: Arc::clone(&commits),
                    }) as Box<dyn Storage<u64, Bytes> + Send>,
                )
            }
        },
    );
    let net = NetServer::bind("127.0.0.1:0", service.handle(), &egress, Arc::clone(&clock))
        .expect("bind");
    let mut cfg = NetClientConfig::new(net.local_addr(), 2);
    cfg.client.epsilon = Dur::from_millis(5);
    cfg.clock = Some(Arc::clone(&clock));
    let fleet = NetClient::connect(cfg);
    let files: Vec<u64> = (0..FILES as u64).collect();

    let counted = hammer(fleet.client(0), fleet.client(1), &files);
    let stats = fleet.client(0).stats().expect("stats");
    let history = history_with_commits(&fleet, &commits);
    fleet.shutdown();
    net.shutdown();
    service.shutdown();

    assert!(counted > 0, "some reads must have hit");
    assert_eq!(stats.hits, counted, "every hit is counted exactly once");
    check_history(&history).expect("inline hits must be linearizable");
}

/// Runs `op` on a thread of its own, so that the test can give up on it
/// (`recv_timeout`) instead of hanging with it.
fn in_background<T: Send + 'static>(op: impl FnOnce() -> T + Send + 'static) -> mpsc::Receiver<T> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(op());
    });
    rx
}

const PATIENCE: Duration = Duration::from_secs(5);

#[test]
fn a_caller_parked_on_a_silent_server_gets_closed_at_shutdown() {
    // A server that takes the connection and never answers.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let mut cfg = NetClientConfig::new(listener.local_addr().expect("addr"), 1);
    cfg.client.max_retries = 1_000_000;
    let fleet = NetClient::connect(cfg);
    let handle = fleet.client(0).clone();
    let (mut conn, _) = listener.accept().expect("accept");
    let mut hello = [0u8; HEADER_LEN];
    conn.read_exact(&mut hello).expect("hello");

    let parked = in_background({
        let handle = handle.clone();
        move || handle.read(1)
    });
    // The fetch is on the wire, so the op is registered with the driver:
    // from here on it can only end by a reply, a timeout or shutdown.
    let mut first = [0u8; 1];
    conn.read_exact(&mut first).expect("the fetch frame");
    assert!(parked.try_recv().is_err(), "nothing can have answered it");

    let down = in_background(move || fleet.shutdown());
    down.recv_timeout(PATIENCE).expect("shutdown hangs");
    assert_eq!(
        parked.recv_timeout(PATIENCE).expect("parked caller hangs"),
        Err(RtError::Closed)
    );
    assert_eq!(handle.read(1), Err(RtError::Closed));
    assert_eq!(handle.write(1, b"x".as_ref()), Err(RtError::Closed));
    assert_eq!(handle.stats(), Err(RtError::Closed));
}

#[test]
fn a_caller_parked_behind_a_cut_gets_closed_at_shutdown() {
    let sys = RtSystem::builder()
        .client(|c| c.max_retries = 1_000_000)
        .file("/data/a", b"a".as_ref())
        .start();
    let a = sys.lookup("/data/a").expect("file");
    let handle = sys.client(0);
    handle.read(a).expect("warm read");
    sys.set_cut(0, true);

    let parked = in_background({
        let handle = handle.clone();
        move || handle.write(a, b"never".as_ref())
    });
    // `writes` counts at submission, under the driver lock: once it
    // moves the op is registered.
    let t0 = Instant::now();
    while handle.stats().expect("stats").writes == 0 {
        assert!(t0.elapsed() < PATIENCE, "the write never started");
        std::thread::yield_now();
    }

    let down = in_background(move || sys.shutdown());
    down.recv_timeout(PATIENCE).expect("shutdown hangs");
    assert_eq!(
        parked.recv_timeout(PATIENCE).expect("parked caller hangs"),
        Err(RtError::Closed)
    );
    assert_eq!(handle.read(a), Err(RtError::Closed));
}
