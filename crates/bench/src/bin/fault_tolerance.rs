//! Section 5 experiments: failures cost delay, never consistency — and
//! the one failure that does break consistency (bad clocks) is shown too.

use lease_bench::{save_json, table};
use lease_clock::{ClockModel, Dur, Time};
use lease_faults::{check_history, staleness_of, FaultPlan};
use lease_vsys::{run_trace_with_history, CrashEvent, NodeSel, SystemConfig, TermSpec};
use lease_workload::{FileClass, FileSpec, PoissonWorkload, Trace, TraceOp, TraceRecord};
use serde::Serialize;

#[derive(Serialize)]
struct FaultRow {
    scenario: String,
    term_s: f64,
    consistent: bool,
    max_write_delay_s: f64,
    failures: u64,
}

fn shared_workload(seed: u64) -> Trace {
    PoissonWorkload {
        n: 6,
        r: 0.8,
        w: 0.05,
        s: 3,
        duration: Dur::from_secs(300),
        seed,
    }
    .generate()
}

/// Client 1 takes a lease just before dying; client 0 writes right after.
fn crash_stall_trace() -> Trace {
    Trace::new(
        vec![FileSpec {
            id: 1,
            class: FileClass::Regular,
            path: None,
        }],
        vec![
            TraceRecord {
                at: Time::from_secs(59),
                client: 1,
                op: TraceOp::Read { file: 1 },
            },
            TraceRecord {
                at: Time::from_secs(61),
                client: 0,
                op: TraceOp::Write { file: 1 },
            },
        ],
    )
}

fn main() {
    let mut json = Vec::new();

    // Experiment A: write stall after a leaseholder crash, by term.
    println!("Section 5 A: client crash -> write delay bounded by the lease term\n");
    let mut rows = Vec::new();
    for term in [2.0f64, 5.0, 10.0, 20.0, 45.0] {
        let mut cfg = SystemConfig {
            term: TermSpec::Fixed(Dur::from_secs_f64(term)),
            ..SystemConfig::default()
        };
        cfg.client.max_retries = 500;
        cfg.crashes = vec![CrashEvent {
            at: Time::from_secs(60),
            node: NodeSel::Client(1),
            recover_at: None,
        }];
        let (r, h) = run_trace_with_history(&cfg, &crash_stall_trace());
        let consistent = check_history(&h.history.borrow()).is_ok();
        rows.push(vec![
            format!("{term:.0}"),
            format!("{:.2}", r.write_delay.max),
            consistent.to_string(),
        ]);
        json.push(FaultRow {
            scenario: "client crash".into(),
            term_s: term,
            consistent,
            max_write_delay_s: r.write_delay.max,
            failures: r.op_failures,
        });
    }
    println!(
        "{}",
        table(&["term (s)", "max write stall (s)", "consistent"], &rows)
    );
    println!("(the stall tracks the crashed holder's remaining term — short leases");
    println!(" minimize failure delay, section 2)\n");

    // Experiment B: server crash recovery, MaxTerm vs PersistentRecords.
    println!("Section 5 B: server recovery — max-term rule vs persistent lease records\n");
    let recovery_trace = Trace::new(
        vec![FileSpec {
            id: 1,
            class: FileClass::Regular,
            path: None,
        }],
        vec![
            TraceRecord {
                at: Time::from_secs(1),
                client: 0,
                op: TraceOp::Read { file: 1 },
            },
            // The lease from t=1 has expired by itself at t=11.
            TraceRecord {
                at: Time::from_secs(15),
                client: 0,
                op: TraceOp::Write { file: 1 },
            },
        ],
    );
    let mut rows = Vec::new();
    for (label, persistent) in [("max-term rule", false), ("persistent records", true)] {
        let mut cfg = SystemConfig {
            term: TermSpec::Fixed(Dur::from_secs(10)),
            persistent_leases: persistent,
            ..SystemConfig::default()
        };
        cfg.client.max_retries = 500;
        cfg.crashes = vec![CrashEvent {
            at: Time::from_secs(12),
            node: NodeSel::Server,
            recover_at: Some(Time::from_secs(13)),
        }];
        let (r, h) = run_trace_with_history(&cfg, &recovery_trace);
        let consistent = check_history(&h.history.borrow()).is_ok();
        rows.push(vec![
            label.to_string(),
            format!("{:.2}", r.write_delay.max),
            consistent.to_string(),
        ]);
        json.push(FaultRow {
            scenario: format!("server recovery ({label})"),
            term_s: 10.0,
            consistent,
            max_write_delay_s: r.write_delay.max,
            failures: r.op_failures,
        });
    }
    println!(
        "{}",
        table(
            &[
                "recovery mode",
                "post-restart write stall (s)",
                "consistent"
            ],
            &rows
        )
    );
    println!("(the max-term rule stalls the first writes for a full term; persistent");
    println!(" records avoid it at one disk write per grant — the section 2 trade-off)\n");

    // Experiment C: message loss sweep.
    println!("Section 5 C: message loss — retransmission keeps every run consistent\n");
    let mut rows = Vec::new();
    for loss in [0.0, 0.05, 0.15, 0.30] {
        let mut cfg = SystemConfig {
            term: TermSpec::Fixed(Dur::from_secs(10)),
            faults: FaultPlan::default().drop_messages(loss),
            ..SystemConfig::default()
        };
        cfg.client.retry_interval = Dur::from_millis(300);
        cfg.client.max_retries = 500;
        let (r, h) = run_trace_with_history(&cfg, &shared_workload(31));
        let consistent = check_history(&h.history.borrow()).is_ok();
        rows.push(vec![
            format!("{:.0}%", loss * 100.0),
            format!("{:.2}", r.mean_delay_ms()),
            r.op_failures.to_string(),
            consistent.to_string(),
        ]);
        json.push(FaultRow {
            scenario: format!("loss {:.0}%", loss * 100.0),
            term_s: 10.0,
            consistent,
            max_write_delay_s: r.write_delay.max,
            failures: r.op_failures,
        });
    }
    println!(
        "{}",
        table(
            &["loss", "mean delay (ms)", "op failures", "consistent"],
            &rows
        )
    );
    println!();

    // Experiment D: clock failures — the one hazard.
    println!("Section 5 D: clock failures — the dangerous and the harmless directions\n");
    let mut rows = Vec::new();
    let plan = FaultPlan::default();
    let cases = [
        ("perfect clocks", plan.clone()),
        (
            "server 3x fast (dangerous)",
            plan.clone()
                .with_server_clock(ClockModel::drifting(2_000_000.0)),
        ),
        (
            "client 0.4x slow (dangerous)",
            plan.clone()
                .with_client_clock(0, ClockModel::drifting(-600_000.0)),
        ),
        (
            "server 30% slow (harmless)",
            plan.clone()
                .with_server_clock(ClockModel::drifting(-300_000.0)),
        ),
        (
            "clients 30% fast (harmless)",
            (0..6).fold(plan, |p, c| {
                p.with_client_clock(c, ClockModel::drifting(300_000.0))
            }),
        ),
    ];
    for (label, faults) in cases {
        let mut cfg = SystemConfig {
            term: TermSpec::Fixed(Dur::from_secs(10)),
            faults,
            ..SystemConfig::default()
        };
        cfg.client.max_retries = 500;
        let (_, h) = run_trace_with_history(&cfg, &shared_workload(41));
        let outcome = check_history(&h.history.borrow());
        let (consistent, stale, worst) = match outcome {
            Ok(()) => (true, 0, Dur::ZERO),
            Err(v) => {
                let st = staleness_of(&v);
                let worst = st.iter().copied().max().unwrap_or(Dur::ZERO);
                (false, st.len(), worst)
            }
        };
        rows.push(vec![
            label.to_string(),
            consistent.to_string(),
            stale.to_string(),
            format!("{worst}"),
        ]);
        json.push(FaultRow {
            scenario: label.into(),
            term_s: 10.0,
            consistent,
            max_write_delay_s: 0.0,
            failures: stale as u64,
        });
    }
    println!(
        "{}",
        table(
            &[
                "clock scenario",
                "consistent",
                "stale reads",
                "worst staleness"
            ],
            &rows
        )
    );
    println!("(section 5: only a fast server clock or slow client clock breaks consistency;");
    println!(" the dual errors merely generate extra traffic)\n");

    // Experiment E: failure-aware optimal terms (the model extension the
    // paper's section 3.1 assumption leaves open).
    println!("Section 5 E: pricing failures into the term choice (model extension)\n");
    let p = lease_analytic::Params::v_system().with_sharing(4.0);
    let mut rows = Vec::new();
    for crashes_per_day in [0.1f64, 1.0, 10.0, 100.0] {
        let rate = crashes_per_day / 86_400.0;
        let (t_opt, d_opt) = lease_analytic::optimal_term(&p, rate, 3600.0);
        rows.push(vec![
            format!("{crashes_per_day}"),
            format!("{t_opt:.1}"),
            format!("{:.3}", d_opt * 1e3),
        ]);
    }
    println!(
        "{}",
        table(
            &[
                "host crashes/day",
                "optimal term (s)",
                "delay at optimum (ms/op)"
            ],
            &rows
        )
    );
    println!("(the paper's 'short terms minimize failure delay' made quantitative: the");
    println!(" optimum falls as hosts get flakier — tens of seconds at one crash/day,");
    println!(" matching the 10-30 s the paper recommends qualitatively)");
    save_json("fault_tolerance", &json);
}
