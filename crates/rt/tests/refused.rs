//! A refused request is paced by the cache alone. A full lane is a loss:
//! several threads share one client whose lane into a slow shard holds
//! two messages, so sends find it full and are refused; nothing queues
//! them for later. The cache's retransmission timer, the one retry
//! schedule, must bring every op to an answer or a timeout, never to a
//! stale read. A shed request is retransmitted no sooner than the
//! server's `retry_after`, and no later than its op deadline allows.

use std::time::Duration;

use lease_clock::Dur;
use lease_faults::check_history;
use lease_rt::{FaultPlan, RtError, RtSystem};
use lease_svc::AdmissionControl;

const THREADS: usize = 6;
const OPS: usize = 20;
const FILES: usize = 8;

#[test]
fn refused_sends_are_retransmitted_by_the_cache() {
    let mut b = RtSystem::builder()
        .term(Dur::from_millis(50))
        .client(|c| {
            c.epsilon = Dur::from_millis(5);
            c.retry_interval = Dur::from_millis(5);
            c.max_retries = 100;
            c.op_deadline = Some(Dur::from_millis(500));
        })
        .clients(2)
        .shards(1)
        .mailbox(2)
        .chaos(FaultPlan::new(1).with_slow_shard(0, Dur::from_millis(1)));
    for f in 0..FILES {
        b = b.file(&format!("/d/f{f}"), b"v0".as_ref());
    }
    let sys = b.start();
    let files: Vec<u64> = (0..FILES)
        .map(|f| sys.lookup(&format!("/d/f{f}")).expect("file"))
        .collect();
    let (busy, holder) = (sys.client(0), sys.client(1));

    let (ok, timeouts) = std::thread::scope(|s| {
        // The other client keeps leases on the files, so writes need its
        // approvals: those ride its own lane, and a refused one is lost too.
        let reads = s.spawn(|| {
            for k in 0..THREADS * OPS {
                let _ = holder.read(files[k % FILES]);
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (busy, files) = (busy.clone(), &files);
                s.spawn(move || {
                    let (mut ok, mut timeouts) = (0u64, 0u64);
                    for k in 0..OPS {
                        let f = files[(t + k) % FILES];
                        let done = if k % 4 == 0 {
                            busy.write(f, format!("t{t}k{k}").into_bytes()).map(drop)
                        } else {
                            busy.read(f).map(drop)
                        };
                        match done {
                            Ok(()) => ok += 1,
                            Err(RtError::Timeout) => timeouts += 1,
                            Err(e) => panic!("thread {t}: op {k} failed with {e}"),
                        }
                    }
                    (ok, timeouts)
                })
            })
            .collect();
        reads.join().expect("holder thread");
        workers
            .into_iter()
            .map(|w| w.join().expect("worker thread"))
            .fold((0, 0), |(a, b), (ok, t)| (a + ok, b + t))
    });
    let stats = busy.stats().expect("stats");
    let history = sys.history();
    sys.shutdown();

    assert_eq!(ok + timeouts, (THREADS * OPS) as u64);
    assert!(ok > 0, "nothing got through");
    assert!(stats.retries > 0, "no request was ever sent twice");
    check_history(&history).expect("refused sends must cost delay, not consistency");
}

/// Every cold fetch is shed with `retry_after` 10 ms, so a read can only
/// run out its 200 ms op deadline. The client asks again once per
/// `retry_after` and not faster: the server sees at most one request per
/// pause, plus the first and one for slack, and counts exactly the sheds
/// the client counts.
#[test]
fn a_shed_client_is_paced_until_its_deadline() {
    const RETRY_AFTER: Dur = Dur::from_millis(10);
    const DEADLINE: Dur = Dur::from_millis(200);
    let sys = RtSystem::builder()
        .clients(1)
        .admission(AdmissionControl {
            shed_watermark: 0.0,
            retry_after: RETRY_AFTER,
        })
        .client(|c| c.op_deadline = Some(DEADLINE))
        .file("/d/f", b"v0".as_ref())
        .start();
    let f = sys.lookup("/d/f").expect("file");
    let client = sys.client(0);

    assert_eq!(client.read(f), Err(RtError::Timeout));
    let sheds = client.stats().expect("stats").sheds;
    let server = sys.server_stats().expect("server stats").counters.sheds;
    let history = sys.history();
    sys.shutdown();

    let bound = DEADLINE.as_nanos() / RETRY_AFTER.as_nanos() + 2;
    assert!(sheds > 0, "nothing was shed");
    assert!(server <= bound, "{server} sheds in {DEADLINE}: not paced");
    assert_eq!(server, sheds, "the server shed what the client saw shed");
    check_history(&history).expect("a shed read is a timeout, not a stale read");
}
