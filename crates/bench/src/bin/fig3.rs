//! Figure 3: added delay on a wide-area network (100 ms round trip).
//!
//! Section 3.3: with higher propagation delay, the consistency-induced
//! delay grows and slightly longer terms pay off, but 10–30 s terms remain
//! adequate — "a 10 second term degrades response by 10.1% over using an
//! infinite term and a 30 second term degrades it by 3.6%".

use lease_analytic::Params;
use lease_bench::sweep::{self, available_cores, take_threads_arg};
use lease_bench::{figure_terms, pct, save_json, spark, table};
use lease_clock::Dur;
use lease_vsys::{run_trace, NetParams, SystemConfig, TermSpec};
use lease_workload::VTrace;
use serde::Serialize;

#[derive(Serialize)]
struct Fig3Row {
    term: f64,
    s1_ms: f64,
    s10_ms: f64,
    trace_ms: f64,
    degradation_vs_infinite: f64,
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let threads = take_threads_arg(&mut args, available_cores()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    if let Some(a) = args.first() {
        eprintln!("unknown argument {a} (only --threads N|auto is accepted)");
        std::process::exit(2);
    }
    let base = Params::v_system_wan();
    let baseline_response = 0.0995; // seconds; see EXPERIMENTS.md
    let trace = VTrace::calibrated(1989).generate();
    let mut terms = figure_terms();
    terms.push(60.0);

    // The WAN runs use a custom config, so fan the per-term sims across
    // the sweep runner directly rather than via run_sim_sweep.
    let measured: Vec<f64> = sweep::run(threads, &terms, |_, &t| {
        let cfg = SystemConfig {
            term: TermSpec::Fixed(Dur::from_secs_f64(t)),
            net: NetParams::wan_100ms(),
            warmup: Dur::from_secs(60),
            seed: 7,
            ..SystemConfig::default()
        };
        run_trace(&cfg, &trace).mean_delay_ms()
    });

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for (i, &t) in terms.iter().enumerate() {
        let row = Fig3Row {
            term: t,
            s1_ms: base.added_delay(t) * 1e3,
            s10_ms: base.with_sharing(10.0).added_delay(t) * 1e3,
            trace_ms: measured[i],
            degradation_vs_infinite: base.response_degradation(t, baseline_response),
        };
        rows.push(vec![
            format!("{t:.1}"),
            format!("{:.2}", row.s1_ms),
            format!("{:.2}", row.s10_ms),
            format!("{:.2}", row.trace_ms),
            pct(row.degradation_vs_infinite),
        ]);
        json.push(row);
    }

    println!("Figure 3: added delay with a 100 ms round-trip network\n");
    println!(
        "{}",
        table(
            &[
                "term (s)",
                "S=1 (ms)",
                "S=10 (ms)",
                "Trace (ms)",
                "degradation vs inf."
            ],
            &rows
        )
    );
    println!(
        "S=1 {}",
        spark(&json.iter().map(|r| r.s1_ms).collect::<Vec<_>>())
    );
    println!();
    let at = |t: f64| {
        json.iter()
            .find(|r| r.term == t)
            .unwrap()
            .degradation_vs_infinite
    };
    println!(
        "paper: 10 s term degrades response by 10.1% over an infinite term; ours {}",
        pct(at(10.0))
    );
    println!(
        "paper: 30 s term degrades response by  3.6% over an infinite term; ours {}",
        pct(at(30.0))
    );
    save_json("fig3", &json);
}
