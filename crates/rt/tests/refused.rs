//! A full lane is a loss. Several threads share one client whose lane
//! into a slow shard holds two messages, so sends find it full and are
//! refused; nothing queues them for later. The cache's retransmission
//! timer, the one retry schedule, must bring every op to an answer or a
//! timeout, never to a stale read.

use std::time::Duration;

use lease_clock::Dur;
use lease_faults::check_history;
use lease_rt::{FaultPlan, RtError, RtSystem};

const THREADS: usize = 6;
const OPS: usize = 20;
const FILES: usize = 8;

#[test]
fn refused_sends_are_retransmitted_by_the_cache() {
    let mut b = RtSystem::builder()
        .term(Dur::from_millis(50))
        .epsilon(Dur::from_millis(5))
        .clients(2)
        .shards(1)
        .mailbox(2)
        .retry_interval(Dur::from_millis(5))
        .max_retries(100)
        .op_deadline(Dur::from_millis(500))
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
