//! The non-write-through extension (§2/§6): exclusive write tokens.
//!
//! "We limit ourselves here to write-through caches [...] extending the
//! mechanism to support non-write-through caches is straightforward." This
//! demo runs the same write-heavy workload through both systems and shows
//! the trade the paper describes: buffered writes cost nothing and collapse
//! server traffic, but a crash loses the unwritten tail — which
//! write-through never does.
//!
//! Run with: `cargo run --release --example write_back_tokens`

use leases::clock::{Dur, Time};
use leases::faults::check_history;
use leases::vsys::{run_trace, CrashEvent, HistoryEvent, NodeSel, SystemConfig, TermSpec};
use leases::wb::{run_wb_with_history, WbClientConfig, WbConfig};
use leases::workload::PoissonWorkload;

fn main() {
    let trace = PoissonWorkload {
        n: 1,
        r: 0.2,
        w: 4.0,
        s: 1,
        duration: Dur::from_secs(200),
        seed: 7,
    }
    .generate();
    println!("workload: one client, 4 writes/second for 200 s\n");

    let wt = run_trace(
        &SystemConfig {
            term: TermSpec::Fixed(Dur::from_secs(10)),
            warmup: Dur::from_secs(20),
            ..SystemConfig::default()
        },
        &trace,
    );
    let (wb, h) = run_wb_with_history(
        &WbConfig {
            warmup: Dur::from_secs(20),
            client: WbClientConfig {
                flush_interval: Dur::from_secs(5),
                ..WbClientConfig::default()
            },
            ..WbConfig::default()
        },
        &trace,
    );
    check_history(&h.borrow()).expect("write-back run is single-copy consistent");

    println!("                         write-through      write-back tokens");
    println!(
        "server messages          {:>13}      {:>17}",
        wt.consistency_msgs + wt.data_msgs,
        wb.consistency_msgs + wb.data_msgs
    );
    println!(
        "mean write delay         {:>10.3} ms      {:>14.4} ms",
        wt.write_delay.mean * 1e3,
        wb.write_delay.mean * 1e3
    );

    // Now the failure-semantics side: crash the writer mid-run.
    let cfg = WbConfig {
        client: WbClientConfig {
            flush_interval: Dur::from_secs(5),
            ..WbClientConfig::default()
        },
        term: Dur::from_secs(60),
        crashes: vec![CrashEvent {
            at: Time::from_secs(100),
            node: NodeSel::Client(0),
            recover_at: Some(Time::from_secs(105)),
        }],
        ..WbConfig::default()
    };
    let (_, h) = run_wb_with_history(&cfg, &trace);
    let hist = h.borrow();
    check_history(&hist).expect("even the crash run is single-copy for surviving data");
    let lost = hist
        .events
        .iter()
        .filter_map(|e| match e {
            HistoryEvent::Discard {
                last_durable,
                last_lost,
                ..
            } => Some(last_lost.0 - last_durable.0),
            _ => None,
        })
        .sum::<u64>();
    println!("\nwith a crash at t = 100 s: {lost} buffered writes were lost forever");
    println!("(write-through would have lost zero — \"no write that has been made");
    println!(" visible to any client can be lost\", §2. That is the trade.)");
}
