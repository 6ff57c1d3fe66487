//! A fault drill: crash clients, partition the network, break clocks —
//! and let the consistency oracle judge every run (§5).
//!
//! Run with: `cargo run --release --example fault_drill`

use leases::clock::{ClockModel, Dur, Time};
use leases::faults::{check_history, staleness_of, FaultPlan};
use leases::vsys::{
    run_trace_with_history, ClientConfig, CrashEvent, NodeSel, SystemConfig, TermSpec,
};
use leases::workload::PoissonWorkload;

fn main() {
    let trace = PoissonWorkload {
        n: 6,
        r: 0.8,
        w: 0.05,
        s: 3,
        duration: Dur::from_secs(300),
        seed: 2026,
    }
    .generate();

    let base = SystemConfig {
        term: TermSpec::Fixed(Dur::from_secs(10)),
        client: ClientConfig {
            max_retries: 500,
            ..ClientConfig::default()
        },
        ..SystemConfig::default()
    };

    let drills: Vec<(&str, SystemConfig)> = vec![
        ("no faults", base.clone()),
        (
            "15% message loss",
            SystemConfig {
                faults: FaultPlan::default().drop_messages(0.15),
                client: ClientConfig {
                    retry_interval: Dur::from_millis(300),
                    ..base.client.clone()
                },
                ..base.clone()
            },
        ),
        (
            "client 1 crashes at 60 s, returns at 150 s",
            SystemConfig {
                crashes: vec![CrashEvent {
                    at: Time::from_secs(60),
                    node: NodeSel::Client(1),
                    recover_at: Some(Time::from_secs(150)),
                }],
                ..base.clone()
            },
        ),
        (
            "server crashes at 100 s, restarts at 102 s",
            SystemConfig {
                crashes: vec![CrashEvent {
                    at: Time::from_secs(100),
                    node: NodeSel::Server,
                    recover_at: Some(Time::from_secs(102)),
                }],
                ..base.clone()
            },
        ),
        (
            "two clients partitioned for 60 s",
            SystemConfig {
                faults: FaultPlan::default()
                    .cut(Dur::from_secs(100), Dur::from_secs(160), 0)
                    .cut(Dur::from_secs(100), Dur::from_secs(160), 1),
                ..base.clone()
            },
        ),
        (
            "server clock runs 3x fast (the §5 hazard)",
            SystemConfig {
                faults: FaultPlan::default().with_server_clock(ClockModel::drifting(2_000_000.0)),
                ..base.clone()
            },
        ),
    ];

    println!(
        "{:<46}  {:>10}  {:>12}  {:>12}",
        "scenario", "consistent", "stale reads", "max wr stall"
    );
    for (name, cfg) in drills {
        let (report, handle) = run_trace_with_history(&cfg, &trace);
        let outcome = check_history(&handle.history.borrow());
        let (ok, stale) = match outcome {
            Ok(()) => (true, 0),
            Err(v) => (false, staleness_of(&v).len()),
        };
        println!(
            "{:<46}  {:>10}  {:>12}  {:>10.1} s",
            name, ok, stale, report.write_delay.max
        );
    }
    println!();
    println!("every non-Byzantine failure costs only delay (bounded by the 10 s term);");
    println!("only the broken clock — explicitly outside the paper's fault model —");
    println!("produces stale reads, and the oracle catches every one.");
}
