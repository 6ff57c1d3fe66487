//! One `FaultPlan`, both arrangements: the same plan values and the same
//! script of reads and writes run through the simulator
//! (`lease_vsys::run_trace_with_history`) and through a real-time
//! `RtSystem`, and the consistency oracle reaches the same verdict on
//! both. A plan the protocol masks is clean on both; a 2x-fast server
//! clock, the §5 fault it cannot mask, ends in a `StaleRead` on both.

use std::time::{Duration, Instant};

use lease_clock::{ClockModel, Dur, Time};
use lease_faults::{check_history, FaultPlan, History, Violation};
use lease_rt::{ClientConfig, RtSystem};
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

fn simulate(plan: &FaultPlan, script: &[Step]) -> History {
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
        drain: Dur::from_secs(5),
        ..SystemConfig::default()
    };
    let (_, h) = run_trace_with_history(&cfg, &Trace::new(files, records));
    let history = h.history.borrow().clone();
    history
}

fn run_real(plan: &FaultPlan, script: &[Step]) -> History {
    let mut b = RtSystem::builder()
        .term(TERM)
        .client(|c| *c = client())
        .clients(2)
        .chaos(plan.clone());
    for f in 0..FILES {
        b = b.file(&format!("/data/f{f}"), format!("f{f}").into_bytes());
    }
    let sys = b.start();
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

#[test]
fn a_fast_server_clock_is_a_stale_read_in_both() {
    let plan = FaultPlan::new(7).with_server_clock(ClockModel::drifting(1_000_000.0)); // 2x
    for (world, history) in [
        ("simulator", simulate(&plan, &stale_script())),
        ("runtime", run_real(&plan, &stale_script())),
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

#[test]
fn a_maskable_plan_is_clean_in_both() {
    let plan = FaultPlan::new(11)
        .drop_messages(0.02)
        .duplicate_messages(0.05)
        .delay_messages(Dur::from_millis(4))
        .cut(Dur::from_millis(500), Dur::from_millis(700), 1);
    for (world, history) in [
        ("simulator", simulate(&plan, &shared_script())),
        ("runtime", run_real(&plan, &shared_script())),
    ] {
        assert!(!history.events.is_empty(), "{world}: nothing recorded");
        check_history(&history).unwrap_or_else(|v| panic!("{world}: violations {v:?}"));
    }
}
