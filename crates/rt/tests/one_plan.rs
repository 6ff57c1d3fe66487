//! One `FaultPlan`, both worlds: the same plan values and the same script
//! of reads and writes run through the simulator
//! (`lease_vsys::run_trace_with_history`) and through a real-time
//! `RtSystem`, one server or a quorum of grantor replicas in each, and
//! the consistency oracle reaches the same verdict on both. A plan the
//! protocol masks is clean on both, a shard kill among its faults; a
//! 2x-fast server clock, the §5 fault it cannot mask, ends in a
//! `StaleRead` on both, with or without a shard kill before it.

use std::time::{Duration, Instant};

use lease_clock::{ClockModel, Dur, Time};
use lease_faults::{check_history, grantor_claims, FaultPlan, History, Violation};
use lease_rt::{ClientConfig, QuorumConfig, RtSystem};
use lease_vsys::{run_trace_with_history, SystemConfig, TermSpec};
use lease_workload::{FileClass, FileSpec, Trace, TraceOp, TraceRecord};

const TERM: Dur = Dur::from_millis(400);
const FILES: u64 = 2;

/// The one client configuration both worlds run.
fn client() -> ClientConfig {
    ClientConfig {
        epsilon: Dur::from_millis(5),
        retry_interval: Dur::from_millis(20),
        max_retries: 400,
        ..ClientConfig::default()
    }
}

/// One step of a script: at `at_ms` after the start, `client` reads or
/// writes file `file`.
type Step = (u64, u32, bool, u64);

fn simulate(plan: &FaultPlan, quorum: Option<QuorumConfig>, script: &[Step]) -> History {
    let files = (0..FILES)
        .map(|id| FileSpec {
            id,
            class: FileClass::Regular,
            path: None,
        })
        .collect();
    let records = script
        .iter()
        .map(|&(at_ms, client, write, file)| TraceRecord {
            at: Time::from_millis(at_ms),
            client,
            op: if write {
                TraceOp::Write { file }
            } else {
                TraceOp::Read { file }
            },
        })
        .collect();
    let cfg = SystemConfig {
        term: TermSpec::Fixed(TERM),
        client: client(),
        faults: plan.clone(),
        quorum,
        drain: Dur::from_secs(5),
        ..SystemConfig::default()
    };
    let (_, h) = run_trace_with_history(&cfg, &Trace::new(files, records));
    let history = h.history.borrow().clone();
    history
}

fn run_real(plan: &FaultPlan, quorum: Option<QuorumConfig>, script: &[Step]) -> History {
    let mut b = RtSystem::builder()
        .term(TERM)
        .client(|c| *c = client())
        .clients(2)
        .chaos(plan.clone());
    for f in 0..FILES {
        b = b.file(&format!("/data/f{f}"), format!("f{f}").into_bytes());
    }
    if let Some(q) = quorum {
        b = b.quorum(q);
    }
    let sys = b.start();
    while sys.current_grantor().is_none() {
        std::thread::sleep(Duration::from_millis(1));
    }
    let res: Vec<_> = (0..FILES)
        .map(|f| sys.lookup(&format!("/data/f{f}")).unwrap())
        .collect();
    let start = Instant::now();
    for &(at_ms, client, write, file) in script {
        let due = start + Duration::from_millis(at_ms);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let c = sys.client(client as usize);
        if write {
            c.write(res[file as usize], format!("w{at_ms}").into_bytes())
                .unwrap();
        } else {
            c.read(res[file as usize]).unwrap();
        }
    }
    let history = sys.history();
    sys.shutdown();
    history
}

/// Client 1 takes a lease, client 0 writes after the fast server has
/// expired it but before client 1 has, and client 1 reads from its cache.
fn stale_script() -> Vec<Step> {
    vec![(0, 1, false, 0), (250, 0, true, 0), (300, 1, false, 0)]
}

/// Two seconds of reads, each followed by the other client writing the
/// file just read, so every write waits on an approval or an expiry.
fn shared_script() -> Vec<Step> {
    (0..20u64)
        .flat_map(|k| {
            let (reader, file) = ((k % 2) as u32, k % FILES);
            [
                (k * 100, reader, false, file),
                (k * 100 + 50, 1 - reader, true, file),
            ]
        })
        .collect()
}

/// Client 1 takes a lease before shard 0 is killed at 100 ms, client 0
/// writes after a fast server's recovery has ended but before client 1's
/// lease has, and client 1 reads from its cache. A server whose clock
/// keeps time waits out the term the lease was granted for.
fn kill_script() -> Vec<Step> {
    vec![(0, 1, false, 0), (330, 0, true, 0), (370, 1, false, 0)]
}

const KILL: Dur = Dur::from_millis(100);

/// Runs `script` under `plan` in both worlds and expects the oracle to
/// flag a `StaleRead` in each.
fn stale_in_both(plan: &FaultPlan, script: &[Step]) {
    for (world, history) in [
        ("simulator", simulate(plan, None, script)),
        ("runtime", run_real(plan, None, script)),
    ] {
        let violations = check_history(&history)
            .expect_err(&format!("{world}: the oracle must flag the stale read"));
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, Violation::StaleRead { .. })),
            "{world}: expected a StaleRead, got {violations:?}"
        );
    }
}

const TWICE_AS_FAST: f64 = 1_000_000.0; // ppm: 2x

#[test]
fn a_fast_server_clock_is_a_stale_read_in_both() {
    let plan = FaultPlan::new(7).with_server_clock(ClockModel::drifting(TWICE_AS_FAST));
    stale_in_both(&plan, &stale_script());
}

/// A killed shard waits out the persisted term on its own clock: a fast
/// one ends its recovery before the lease it granted has, and the read is
/// stale.
#[test]
fn a_shard_kill_does_not_mask_a_fast_server_clock_in_either() {
    let plan = FaultPlan::new(15)
        .with_server_clock(ClockModel::drifting(TWICE_AS_FAST))
        .kill_shard(KILL, 0);
    stale_in_both(&plan, &kill_script());
}

/// Runs `script` under `plan` in both worlds and expects the oracle to
/// find nothing in either. Under a quorum, the plan must also have moved
/// the grantor claim off replica 0 in both.
fn clean_in_both(plan: &FaultPlan, quorum: Option<QuorumConfig>, script: &[Step]) {
    let replicated = quorum.is_some();
    for (world, history) in [
        ("simulator", simulate(plan, quorum.clone(), script)),
        ("runtime", run_real(plan, quorum.clone(), script)),
    ] {
        assert!(!history.events.is_empty(), "{world}: nothing recorded");
        check_history(&history).unwrap_or_else(|v| panic!("{world}: violations {v:?}"));
        let successor = grantor_claims(&history).iter().any(|c| c.replica != 0);
        assert_eq!(successor, replicated, "{world}: a successor grantor");
    }
}

#[test]
fn a_maskable_plan_is_clean_in_both() {
    let plan = FaultPlan::new(11)
        .drop_messages(0.02)
        .duplicate_messages(0.05)
        .delay_messages(Dur::from_millis(4))
        .cut(Dur::from_millis(500), Dur::from_millis(700), 1);
    clean_in_both(&plan, None, &shared_script());
}

/// The restarted shard's recovery waits out client 1's lease: the same
/// kill on a clock that keeps time is masked.
#[test]
fn a_shard_kill_is_clean_in_both() {
    let plan = FaultPlan::new(15).kill_shard(KILL, 0);
    clean_in_both(&plan, None, &kill_script());
}

/// Shard 0 is killed mid-script under message chaos: it restarts into §5
/// recovery, and the writes it defers wait out the persisted term.
#[test]
fn a_shard_kill_under_message_chaos_is_clean_in_both() {
    let plan = FaultPlan::new(14)
        .drop_messages(0.02)
        .duplicate_messages(0.05)
        .delay_messages(Dur::from_millis(4))
        .kill_shard(Dur::from_millis(600), 0);
    clean_in_both(&plan, None, &shared_script());
}

/// The grantor is killed mid-script: a successor takes over, and its §5
/// recovery waits out the leases its predecessor granted.
#[test]
fn a_grantor_kill_is_clean_in_both() {
    let plan = FaultPlan::new(12).kill_replica(Dur::from_millis(600), 0);
    clean_in_both(&plan, Some(QuorumConfig::quick()), &shared_script());
}

/// The grantor is cut off mid-script under message chaos: it fences
/// itself at its claim's end, and the other two elect a successor.
#[test]
fn a_grantor_cut_under_message_chaos_is_clean_in_both() {
    let plan = FaultPlan::new(13)
        .drop_messages(0.02)
        .duplicate_messages(0.05)
        .delay_messages(Dur::from_millis(4))
        .cut_replica(Dur::from_millis(500), Dur::from_millis(1100), 0);
    clean_in_both(&plan, Some(QuorumConfig::quick()), &shared_script());
}
