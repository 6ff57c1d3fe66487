//! Extension experiment: write-through leases (the paper's system) vs
//! non-write-through tokens (its noted extension; MFS/Echo, §2/§6).
//!
//! The paper chose write-through because it "gives clean failure
//! semantics" and argued the cost "can be largely eliminated by giving
//! special handling to temporary files". This experiment quantifies the
//! other side of the trade: what write buffering saves as the write rate
//! grows, and what a crash then costs.

use lease_bench::{save_json, table};
use lease_clock::{Dur, Time};
use lease_faults::check_history;
use lease_vsys::{run_trace, CrashEvent, HistoryEvent, NodeSel, SystemConfig, TermSpec};
use lease_wb::{run_wb_with_history, WbClientConfig, WbConfig};
use lease_workload::PoissonWorkload;
use serde::Serialize;

#[derive(Serialize)]
struct WbRow {
    write_rate: f64,
    wt_server_msgs: u64,
    wb_server_msgs: u64,
    wt_write_delay_ms: f64,
    wb_write_delay_ms: f64,
}

fn main() {
    println!("Write-through leases vs write-back tokens (1 client, R = 0.2/s)\n");
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for w in [0.1f64, 0.5, 2.0, 8.0] {
        let trace = PoissonWorkload {
            n: 1,
            r: 0.2,
            w,
            s: 1,
            duration: Dur::from_secs(300),
            seed: 17,
        }
        .generate();
        let wt = run_trace(
            &SystemConfig {
                term: TermSpec::Fixed(Dur::from_secs(10)),
                warmup: Dur::from_secs(30),
                ..SystemConfig::default()
            },
            &trace,
        );
        let (wb, h) = run_wb_with_history(
            &WbConfig {
                warmup: Dur::from_secs(30),
                client: WbClientConfig {
                    flush_interval: Dur::from_secs(5),
                    ..WbClientConfig::default()
                },
                ..WbConfig::default()
            },
            &trace,
        );
        check_history(&h.borrow()).expect("consistent");
        let row = WbRow {
            write_rate: w,
            wt_server_msgs: wt.consistency_msgs + wt.data_msgs,
            wb_server_msgs: wb.consistency_msgs + wb.data_msgs,
            wt_write_delay_ms: wt.write_delay.mean * 1e3,
            wb_write_delay_ms: wb.write_delay.mean * 1e3,
        };
        rows.push(vec![
            format!("{w:.1}"),
            row.wt_server_msgs.to_string(),
            row.wb_server_msgs.to_string(),
            format!("{:.3}", row.wt_write_delay_ms),
            format!("{:.4}", row.wb_write_delay_ms),
        ]);
        json.push(row);
    }
    println!(
        "{}",
        table(
            &[
                "W (writes/s)",
                "WT msgs",
                "WB msgs",
                "WT write delay ms",
                "WB write delay ms"
            ],
            &rows
        )
    );
    println!("(tokens buffer writes locally: zero write latency and collapsed traffic,");
    println!(" increasingly so as the write rate grows)\n");

    // The cost side: a crash loses the buffered tail.
    println!("The price of buffering: a client crash mid-stream\n");
    // A sole writer (no recalls force early flushes), crashing mid-run.
    let trace = PoissonWorkload {
        n: 1,
        r: 0.2,
        w: 1.0,
        s: 1,
        duration: Dur::from_secs(200),
        seed: 23,
    }
    .generate();
    let crash = CrashEvent {
        at: Time::from_secs(100),
        node: NodeSel::Client(0),
        recover_at: Some(Time::from_secs(110)),
    };
    let mut rows = Vec::new();
    for flush_s in [1u64, 5, 30] {
        let (_, h) = run_wb_with_history(
            &WbConfig {
                // A long token so only the background flush bounds the
                // loss window.
                term: Dur::from_secs(120),
                client: WbClientConfig {
                    flush_interval: Dur::from_secs(flush_s),
                    ..WbClientConfig::default()
                },
                crashes: vec![crash],
                seed: 23,
                ..WbConfig::default()
            },
            &trace,
        );
        let hist = h.borrow();
        check_history(&hist).expect("lost writes, never inconsistency");
        // Count distinct versions destroyed (a commit is lost if some
        // discard covers it: committed before the discard, above its
        // durable floor).
        let discards: Vec<(
            u64,
            lease_core::Version,
            lease_core::Version,
            lease_clock::Time,
        )> = hist
            .events
            .iter()
            .filter_map(|e| match e {
                HistoryEvent::Discard {
                    resource,
                    last_durable,
                    last_lost,
                    at,
                } => Some((*resource, *last_durable, *last_lost, *at)),
                _ => None,
            })
            .collect();
        let mut lost = 0u64;
        for e in &hist.events {
            if let HistoryEvent::Commit {
                resource,
                version,
                at,
                ..
            } = e
            {
                if discards.iter().any(|(r, last, lost_hi, d_at)| {
                    r == resource && *version > *last && *version <= *lost_hi && *at < *d_at
                }) {
                    lost += 1;
                }
            }
        }
        rows.push(vec![format!("{flush_s}"), lost.to_string(), "yes".into()]);
    }
    println!(
        "{}",
        table(
            &[
                "flush interval (s)",
                "writes lost in crash",
                "single-copy held"
            ],
            &rows
        )
    );
    println!("(write-through loses nothing, ever — the paper's §2 argument; shorter");
    println!(" flush intervals shrink the write-back loss window at more traffic)");
    save_json("writeback", &json);
}
