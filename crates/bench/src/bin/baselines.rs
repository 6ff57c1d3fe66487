//! Section 6 head-to-head: leases vs the other consistency approaches,
//! fault-free and under a partition.

use lease_baselines::Baseline;
use lease_bench::{save_json, table};
use lease_clock::Dur;
use lease_faults::{check_history, staleness_of};
use lease_vsys::SystemConfig;
use lease_workload::{PoissonWorkload, Trace};
use serde::Serialize;

#[derive(Serialize)]
struct BaselineRow {
    protocol: String,
    faulted: bool,
    consistency_msgs: u64,
    hit_rate: f64,
    mean_delay_ms: f64,
    max_write_delay_s: f64,
    stale_reads: usize,
    worst_staleness_s: f64,
}

fn workload(seed: u64) -> Trace {
    PoissonWorkload {
        n: 6,
        r: 0.8,
        w: 0.05,
        s: 3,
        duration: Dur::from_secs(400),
        seed,
    }
    .generate()
}

fn run_case(b: &Baseline, cfg: &SystemConfig, trace: &Trace, faulted: bool) -> BaselineRow {
    let (r, h) = b.run(cfg, trace);
    let outcome = check_history(&h.borrow());
    let (stale, worst) = match outcome {
        Ok(()) => (0, 0.0),
        Err(v) => {
            let st = staleness_of(&v);
            (
                st.len(),
                st.iter().copied().max().unwrap_or(Dur::ZERO).as_secs_f64(),
            )
        }
    };
    BaselineRow {
        protocol: b.label(),
        faulted,
        consistency_msgs: r.consistency_msgs,
        hit_rate: r.hit_rate(),
        mean_delay_ms: r.mean_delay_ms(),
        max_write_delay_s: r.write_delay.max,
        stale_reads: stale,
        worst_staleness_s: worst,
    }
}

fn main() {
    let trace = workload(5);
    let protocols = [
        Baseline::CheckOnEveryRead,
        Baseline::Leases {
            term: Dur::from_secs(10),
        },
        Baseline::AndrewCallbacks {
            poll: Some(Dur::from_secs(600)),
        },
        Baseline::NfsTtl {
            ttl: Dur::from_secs(30),
        },
    ];

    let base_cfg = SystemConfig {
        max_retries: 500,
        warmup: Dur::from_secs(60),
        ..Default::default()
    };
    let mut faulted_cfg = base_cfg.clone();
    // Clients 0 and 1 unreachable from 100 s to 160 s.
    let (from, until) = (Dur::from_secs(100), Dur::from_secs(160));
    faulted_cfg.faults = faulted_cfg.faults.cut(from, until, 0).cut(from, until, 1);

    let mut json = Vec::new();
    for (label, cfg, faulted) in [
        ("fault-free", &base_cfg, false),
        ("60 s partition of two clients", &faulted_cfg, true),
    ] {
        println!("Section 6 comparison — {label}\n");
        let mut rows = Vec::new();
        for b in &protocols {
            let row = run_case(b, cfg, &trace, faulted);
            rows.push(vec![
                row.protocol.clone(),
                row.consistency_msgs.to_string(),
                format!("{:.3}", row.hit_rate),
                format!("{:.2}", row.mean_delay_ms),
                format!("{:.1}", row.max_write_delay_s),
                row.stale_reads.to_string(),
                format!("{:.2}", row.worst_staleness_s),
            ]);
            json.push(row);
        }
        println!(
            "{}",
            table(
                &[
                    "protocol",
                    "cons. msgs",
                    "hit rate",
                    "mean delay ms",
                    "max wr stall s",
                    "stale reads",
                    "worst staleness s",
                ],
                &rows
            )
        );
    }
    println!("reading: check-on-read buys consistency with maximal traffic; leases get");
    println!("within a few percent of the callback scheme's traffic while staying");
    println!("consistent under the partition, where callbacks go stale (bounded only by");
    println!("Andrew's poll) and TTL caching is stale even fault-free (section 6).");
    save_json("baselines", &json);
}
