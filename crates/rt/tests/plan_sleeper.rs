//! What a fault plan schedules for later — its kills, delayed and
//! duplicated messages in both directions, a quorum's delayed messages —
//! waits on one sleeper thread, started with the first such action, and
//! `RtSystem::shutdown` discards whatever is still pending. Its own test
//! binary, because it counts the process's threads by name.

use std::time::{Duration, Instant};

use bytes::Bytes;
use lease_clock::Dur;
use lease_faults::FaultPlan;
use lease_rt::{QuorumConfig, RtSystem};

/// Names of this process's threads (truncated by the kernel to 15 bytes).
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .map(|tasks| {
            tasks
                .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
                .map(|name| name.trim_end().to_string())
                .collect()
        })
        .unwrap_or_default()
}

fn count(prefix: &str) -> usize {
    thread_names()
        .iter()
        .filter(|n| n.starts_with(prefix))
        .count()
}

/// Reads and writes one file from two clients, so messages cross the
/// chaotic links both ways.
fn traffic(sys: &RtSystem) {
    let a = sys.lookup("/f").unwrap();
    let (c0, c1) = (sys.client(0), sys.client(1));
    for n in 0..5u8 {
        c0.read(a).unwrap();
        c1.write(a, Bytes::from(vec![n])).unwrap();
    }
}

fn builder() -> lease_rt::RtSystemBuilder {
    RtSystem::builder()
        .term(Dur::from_millis(200))
        .client(|c| c.max_retries = 200)
        .file("/f", b"0".as_ref())
        .clients(2)
}

#[test]
fn one_sleeper_serves_a_plan_and_shutdown_discards_a_pending_kill() {
    if !cfg!(target_os = "linux") {
        return;
    }
    // A run whose plan schedules nothing starts no sleeper.
    let sys = builder().start();
    traffic(&sys);
    assert_eq!(count("chaos-sleeper"), 0, "no plan, no sleeper");
    sys.shutdown();

    // Kills a minute out and late, doubled messages in both directions:
    // one sleeper for all of it, and no thread of the kill schedule's
    // own.
    let plan = FaultPlan::new(9)
        .kill_shard(Dur::from_secs(60), 0)
        .kill_replica(Dur::from_secs(60), 0)
        .delay_messages(Dur::from_millis(2))
        .duplicate_messages(0.2);
    let sys = builder().chaos(plan.clone()).start();
    traffic(&sys);
    assert_eq!(
        count("chaos-sleeper"),
        1,
        "one sleeper: {:?}",
        thread_names()
    );
    let chaotic = thread_names().into_iter().filter(|n| n.contains("chaos"));
    assert_eq!(chaotic.count(), 1, "no kill or delay thread of its own");
    let restarts = sys.server_stats().expect("stats").restarts;
    assert!(restarts.iter().all(|&r| r == 0), "no kill fired yet");
    let t0 = Instant::now();
    sys.shutdown();
    assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
    // The sleeper is gone with the kills it held: they can never fire.
    assert_eq!(count("chaos-sleeper"), 0, "{:?}", thread_names());

    // Under a quorum the replicas' delayed messages join the same one.
    let sys = builder().quorum(QuorumConfig::quick()).chaos(plan).start();
    let t0 = Instant::now();
    while sys.current_grantor().is_none() {
        assert!(t0.elapsed() < Duration::from_secs(10), "no grantor");
        std::thread::sleep(Duration::from_millis(5));
    }
    traffic(&sys);
    assert_eq!(
        count("chaos-sleeper"),
        1,
        "one sleeper: {:?}",
        thread_names()
    );
    let t0 = Instant::now();
    sys.shutdown();
    assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
    assert_eq!(count("chaos-sleeper"), 0, "{:?}", thread_names());
}
