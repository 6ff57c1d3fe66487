//! The §2/§5 fault-tolerance claim over a *real* process boundary:
//! `kill -9` the server process mid-load, restart it on the same port,
//! and the single-copy oracle must stay silent while clients recover by
//! plain retransmission — no client-side failover code, no session
//! state, exactly the paper's argument that leases make crash recovery
//! a server-local affair.
//!
//! Topology: this test drives a real `lease-rt` [`NetClient`] fleet
//! (retransmission, deadlines, approvals — unchanged from the
//! in-process path) against the `net_server` bin in a child
//! process. The server persists its maximum granted term to a file
//! (§5: the restarted server defers writes that long) and appends every
//! commit to a per-line-flushed log; a `SIGKILL` can lose nothing a
//! client may have been told about. Client ops are recorded on a
//! [`SysClock`] sharing the server's unix epoch, so the recorder's
//! history and the replayed commit log sit on one true-time axis and
//! `lease_faults::check_history` judges the merged run.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

use bytes::Bytes;
use lease_clock::{Clock, Dur, SysClock, Time};
use lease_core::Version;
use lease_faults::{check_history, History, HistoryEvent};
use lease_rt::{NetClient, NetClientConfig};

const BIN: &str = env!("CARGO_BIN_EXE_net_server");
const TERM_MS: u64 = 300;
const FILES: u64 = 8;
const CLIENTS: u32 = 2;

struct Server {
    child: Child,
    port: u16,
}

fn spawn_server(dir: &std::path::Path, epoch: u64, port: u16) -> Server {
    let mut child = Command::new(BIN)
        .args([
            "--shards",
            "1",
            "--clients",
            &CLIENTS.to_string(),
            "--files",
            &FILES.to_string(),
            "--term-ms",
            &TERM_MS.to_string(),
            "--port",
            &port.to_string(),
            "--term-file",
            dir.join("max_term").to_str().unwrap(),
            "--commit-log",
            dir.join("commits.log").to_str().unwrap(),
            "--epoch-unix-ns",
            &epoch.to_string(),
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn net_server");
    let stdout = child.stdout.as_mut().expect("server stdout");
    let mut line = String::new();
    let mut rd = BufReader::new(stdout);
    let port = loop {
        line.clear();
        assert!(
            rd.read_line(&mut line).expect("read server stdout") > 0,
            "server exited before printing PORT"
        );
        if let Some(p) = line.strip_prefix("PORT ") {
            break p.trim().parse::<u16>().expect("port number");
        }
    };
    Server { child, port }
}

/// Merge the recorder's client-side history with the server's commit
/// log (one `{resource} {version} {at_ns} x{hex}` line per commit,
/// across both incarnations).
fn merged_history(recorder_history: History, commit_log: &std::path::Path) -> History {
    let mut history = recorder_history;
    let text = std::fs::read_to_string(commit_log).expect("read commit log");
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let mut parts = line.split_whitespace();
        let resource: u64 = parts.next().unwrap().parse().expect("resource");
        let version: u64 = parts.next().unwrap().parse().expect("version");
        let at_ns: u64 = parts.next().unwrap().parse().expect("at_ns");
        history.push(HistoryEvent::Commit {
            resource,
            version: Version(version),
            writer: None, // the log records the commit, not who asked
            at: Time(at_ns),
        });
    }
    history
}

#[test]
fn sigkill_and_restart_mid_load_keeps_the_oracle_silent() {
    let dir = std::env::temp_dir().join(format!(
        "lease-net-chaos-{}-{}",
        std::process::id(),
        SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos()
    ));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let epoch = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .unwrap()
        .as_nanos() as u64;

    let first = spawn_server(&dir, epoch, 0);
    let port = first.port;

    let clock: Arc<dyn Clock> = Arc::new(SysClock::new(epoch));
    let mut cfg = NetClientConfig::new(format!("127.0.0.1:{port}").parse().unwrap(), CLIENTS);
    // Tight retransmission and a deep retry budget: the client must ride
    // out a dead server plus the §5 write-deferral window (one max term)
    // on plain resends, not client smarts.
    cfg.client.retry_interval = Dur::from_millis(25);
    cfg.client.max_retries = 400;
    cfg.clock = Some(Arc::clone(&clock));
    let fleet = NetClient::connect(cfg);

    let stop = AtomicBool::new(false);
    let restarted = AtomicBool::new(false);
    let post_restart_reads = AtomicU64::new(0);
    let post_restart_writes = AtomicU64::new(0);

    let second = std::thread::scope(|s| {
        for i in 0..CLIENTS as usize {
            let client = fleet.client(i);
            let (stop, restarted) = (&stop, &restarted);
            let (reads, writes) = (&post_restart_reads, &post_restart_writes);
            s.spawn(move || {
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    n += 1;
                    let resource = (n * 7 + i as u64) % FILES;
                    if n.is_multiple_of(8) {
                        let payload = Bytes::from(format!("c{i}-op{n}"));
                        if client.write(resource, payload).is_ok()
                            && restarted.load(Ordering::Relaxed)
                        {
                            writes.fetch_add(1, Ordering::Relaxed);
                        }
                    } else if client.read(resource).is_ok() && restarted.load(Ordering::Relaxed) {
                        reads.fetch_add(1, Ordering::Relaxed);
                    }
                    // A breather keeps some ops in flight at kill time
                    // without saturating one core.
                    if n.is_multiple_of(16) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            });
        }

        // Load for a while, then SIGKILL mid-flight: no shutdown
        // handshake, no flush beyond the per-line commit log.
        std::thread::sleep(Duration::from_millis(600));
        let mut victim = first;
        victim.child.kill().expect("SIGKILL server");
        let _ = victim.child.wait();

        std::thread::sleep(Duration::from_millis(200));
        let second = spawn_server(&dir, epoch, port);
        restarted.store(true, Ordering::Relaxed);

        // Clients must come back through retransmission alone. Give them
        // the recovery window (one max term of deferred writes) and a
        // little steady state on top.
        std::thread::sleep(Duration::from_millis(1_500));
        stop.store(true, Ordering::Relaxed);
        second
    });

    // Ops must have completed against the restarted server.
    assert!(
        post_restart_reads.load(Ordering::Relaxed) > 0,
        "no read completed after the restart: clients did not recover"
    );
    assert!(
        post_restart_writes.load(Ordering::Relaxed) > 0,
        "no write completed after the restart: clients did not recover"
    );

    let history = fleet.recorder().snapshot();
    fleet.shutdown();

    // Clean shutdown of the second incarnation: closing stdin asks it to
    // exit (and flush); reap it.
    let mut second = second;
    drop(second.child.stdin.take());
    let started = Instant::now();
    while started.elapsed() < Duration::from_secs(5) {
        if second.child.try_wait().expect("try_wait").is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = second.child.kill();
    let _ = second.child.wait();

    let merged = merged_history(history, &dir.join("commits.log"));
    assert!(!merged.events.is_empty(), "nothing was recorded");
    if let Err(violations) = check_history(&merged) {
        panic!(
            "kill -9 + restart broke single-copy semantics: {} violation(s), first: {:?}",
            violations.len(),
            violations[0]
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}
