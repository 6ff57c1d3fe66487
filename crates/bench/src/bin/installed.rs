//! Section 4 ablation: lease-management options.
//!
//! Compares, on installed-file-heavy workloads:
//!
//! * per-client leases vs the multicast-extension optimization, as the
//!   number of clients grows (the optimization's win scales with N);
//! * on-demand vs batched vs anticipatory extension;
//! * the write path for installed files: delayed update means no approval
//!   implosion even with many clients.

use lease_bench::{save_json, table};
use lease_clock::{Dur, Time};
use lease_vsys::{run_trace, InstalledMode, SystemConfig, TermSpec};
use lease_workload::{FileClass, FileSpec, PoissonWorkload, Trace, TraceOp, TraceRecord};
use serde::Serialize;

/// N clients reading a pool of installed files at the V read rate.
fn installed_workload(n: u32, seed: u64) -> Trace {
    let base = PoissonWorkload {
        n,
        r: 0.864,
        w: 0.0,
        s: 1,
        duration: Dur::from_secs(600),
        seed,
    }
    .generate();
    // Remap every op onto a pool of 8 installed files, round-robin by
    // record index, and mark the files installed.
    let files: Vec<FileSpec> = (0..8u64)
        .map(|id| FileSpec {
            id,
            class: FileClass::Installed,
            path: Some(format!("/bin/tool{id}")),
        })
        .collect();
    let records: Vec<TraceRecord> = base
        .records
        .iter()
        .enumerate()
        .map(|(i, r)| TraceRecord {
            at: r.at,
            client: r.client,
            op: TraceOp::Read {
                file: (i % 8) as u64,
            },
        })
        .collect();
    Trace::new(files, records)
}

#[derive(Serialize)]
struct AblationRow {
    clients: u32,
    mode: String,
    consistency_msgs: u64,
    hit_rate: f64,
}

fn main() {
    let mut rows = Vec::new();
    let mut json = Vec::new();

    println!("Section 4 ablation A: per-client extension vs multicast, by client count\n");
    for n in [1u32, 5, 20] {
        let trace = installed_workload(n, 11);
        for (label, installed, batch) in [
            ("per-client, on-demand", InstalledMode::PerClient, false),
            ("per-client, batched", InstalledMode::PerClient, true),
            (
                "multicast (section 4)",
                InstalledMode::Multicast {
                    tick: Dur::from_secs(30),
                    term: Dur::from_secs(60),
                },
                false,
            ),
        ] {
            let mut cfg = SystemConfig {
                term: TermSpec::Fixed(Dur::from_secs(10)),
                installed,
                warmup: Dur::from_secs(60),
                seed: 3,
                ..SystemConfig::default()
            };
            cfg.client.batch_extensions = batch;
            let r = run_trace(&cfg, &trace);
            rows.push(vec![
                n.to_string(),
                label.to_string(),
                r.consistency_msgs.to_string(),
                format!("{:.3}", r.hit_rate()),
            ]);
            json.push(AblationRow {
                clients: n,
                mode: label.into(),
                consistency_msgs: r.consistency_msgs,
                hit_rate: r.hit_rate(),
            });
        }
    }
    println!(
        "{}",
        table(&["clients", "mode", "consistency msgs", "hit rate"], &rows)
    );

    // Ablation B: anticipatory renewal trades server load for zero misses.
    println!("Section 4 ablation B: anticipatory renewal (single client, V trace)\n");
    let trace = lease_workload::VTrace::calibrated(1989).generate();
    let mut rows = Vec::new();
    for (label, anticipatory) in [
        ("on-demand", None),
        ("anticipatory 5 s", Some(Dur::from_secs(5))),
    ] {
        let mut cfg = SystemConfig {
            term: TermSpec::Fixed(Dur::from_secs(10)),
            warmup: Dur::from_secs(60),
            seed: 3,
            ..SystemConfig::default()
        };
        cfg.client.anticipatory = anticipatory;
        let r = run_trace(&cfg, &trace);
        rows.push(vec![
            label.to_string(),
            r.consistency_msgs.to_string(),
            format!("{:.3}", r.hit_rate()),
            format!("{:.3}", r.mean_delay_ms()),
        ]);
    }
    println!(
        "{}",
        table(
            &[
                "extension policy",
                "consistency msgs",
                "hit rate",
                "mean delay (ms)"
            ],
            &rows
        )
    );
    println!("(anticipatory renewal buys hits and latency at the cost of server load,");
    println!(" including while the client is idle — exactly the trade-off section 4 notes)\n");

    // Ablation C: installing a new version under multicast management
    // never multicasts approval requests, no matter how many clients.
    println!("Section 4 ablation C: delayed update avoids approval implosion\n");
    println!("(one client is unreachable when the new version is installed, the case");
    println!(" section 4 argues makes delayed update competitive on delay)\n");
    let mut rows = Vec::new();
    for n in [5u32, 20] {
        let mut trace = installed_workload(n, 13);
        // One administrative install modeled as a client write at 300 s.
        trace.records.push(TraceRecord {
            at: Time::from_secs(300),
            client: 0,
            op: TraceOp::Write { file: 0 },
        });
        let trace = Trace::new(trace.files.clone(), trace.records.clone());
        for (label, installed) in [
            ("per-client leases", InstalledMode::PerClient),
            (
                "multicast + delayed update",
                InstalledMode::Multicast {
                    tick: Dur::from_secs(30),
                    term: Dur::from_secs(60),
                },
            ),
        ] {
            let mut cfg = SystemConfig {
                term: TermSpec::Fixed(Dur::from_secs(10)),
                installed,
                warmup: Dur::from_secs(60),
                seed: 3,
                ..SystemConfig::default()
            };
            cfg.client.max_retries = 300;
            // Client n-1 crashes just before the install and never returns.
            cfg.crashes = vec![lease_vsys::CrashEvent {
                at: Time::from_secs(295),
                node: lease_vsys::NodeSel::Client(n - 1),
                recover_at: None,
            }];
            let r = run_trace(&cfg, &trace);
            rows.push(vec![
                n.to_string(),
                label.to_string(),
                format!("{:.1}", r.write_delay.max),
                r.approval_msgs.to_string(),
            ]);
        }
    }
    println!(
        "{}",
        table(
            &["clients", "mode", "install delay (s)", "approval msgs"],
            &rows
        )
    );
    println!("(per-client leases must contact every holder and still wait out the");
    println!(" unreachable one's term; delayed update waits its term with zero callbacks");
    println!(" and no response implosion)");
    save_json("installed_ablation", &json);
}
