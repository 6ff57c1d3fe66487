//! Section 3.3: leases over a wide-area network.
//!
//! "Larger propagation delay between clients and servers means that the
//! impact of lease extensions and invalidations on response time is
//! greater." This example runs the same compile workload over the paper's
//! 100 ms round-trip network and shows how the term choice shifts.
//!
//! Run with: `cargo run --release --example wide_area`

use leases::analytic::Params;
use leases::clock::Dur;
use leases::vsys::{run_trace, NetParams, SystemConfig, TermSpec};
use leases::workload::VTrace;

fn main() {
    let trace = VTrace::calibrated(42).generate();
    println!("same workload, two networks:\n");
    println!(
        "{:>9}  {:>16}  {:>16}",
        "term", "LAN delay (ms)", "WAN delay (ms)"
    );
    for term_s in [0u64, 2, 10, 30, 60] {
        let run = |net: NetParams| {
            let cfg = SystemConfig {
                term: TermSpec::Fixed(Dur::from_secs(term_s)),
                net,
                warmup: Dur::from_secs(60),
                ..SystemConfig::default()
            };
            run_trace(&cfg, &trace).mean_delay_ms()
        };
        println!(
            "{:>8}s  {:>16.2}  {:>16.2}",
            term_s,
            run(NetParams::v_lan()),
            run(NetParams::wan_100ms())
        );
    }

    println!();
    let wan = Params::v_system_wan();
    println!("the model agrees (degradation of response vs an infinite term,");
    println!("baseline response 99.5 ms):");
    for t in [10.0, 30.0, 60.0] {
        println!(
            "  {:>4.0} s term -> {:>5.1}%",
            t,
            wan.response_degradation(t, 0.0995) * 100.0
        );
    }
    println!();
    println!("paper: \"with a significant increase in propagation delay, slightly longer");
    println!("lease terms may be appropriate, but terms in the 10-30 second range still");
    println!("appear to be adequate.\"");
}
