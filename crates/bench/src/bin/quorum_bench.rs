//! Replicated-grantor benchmark: acquisition latency, renewal cost, and
//! the file-grant throughput cost of replication.
//!
//! Three measurements, matching the satellite's list:
//!
//! 1. **Grantor-lease acquisition latency.** From the deterministic
//!    virtual-time simulation (`lease_quorum::sim`, the replicas as
//!    actors on `lease-sim`'s `World`): the cold election
//!    latency from boot, and the takeover latency after the serving
//!    grantor is killed, swept over seeds with message chaos. Virtual
//!    time, so the numbers are machine-independent and byte-stable.
//! 2. **Steady-state renewal cost.** Protocol messages per second of a
//!    quiet simulated run — what keeping the grantor lease alive costs
//!    when nothing fails. Also deterministic.
//! 3. **File-grant throughput vs the single-server baseline.** The same
//!    wall-clock client workload driven against an [`RtSystem`] with one
//!    server and with a quorum of 3 grantor replicas; the reported ratio
//!    is replicated/single. Only the ratio ever gates — raw ops/s depend
//!    on the runner.
//!
//! Flags: `--quick` (short throughput window; the checked-in baseline's
//! mode), `--ms N` (override the window), `--json PATH` (write results),
//! `--check PATH` (gate against a baseline; one re-measure retry before
//! failing). Environment: `LEASE_QBENCH_MS` overrides the window like
//! `--ms`.

use std::time::{Duration, Instant};

use bytes::Bytes;
use lease_clock::Dur;
use lease_faults::{FaultPlan, History, HistoryEvent};
use lease_quorum::sim::{run as sim_run, SimConfig};
use lease_quorum::QuorumConfig;
use lease_rt::{RtClientHandle, RtSystem};

/// Machine-readable result row; `BENCH_quorum.json` is one of these.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
struct QuorumBench {
    /// Format tag; bump on incompatible change.
    schema: String,
    /// "quick" or "full" — a baseline only gates the same mode.
    mode: String,
    /// Wall-clock throughput window per system, milliseconds.
    window_ms: u64,
    /// Virtual time from boot to the first grantor acquisition (ms).
    cold_election_ms: f64,
    /// Median takeover latency after a grantor kill, over the seed sweep
    /// with message drop/dup/delay chaos (virtual ms).
    takeover_p50_ms: f64,
    /// 95th-percentile takeover latency over the same sweep (virtual ms).
    takeover_p95_ms: f64,
    /// Quiet-run protocol messages per (virtual) second — the price of
    /// keeping the grantor lease renewed when nothing fails.
    steady_msgs_per_sec: f64,
    /// Single-server client ops/s over the window (never gates).
    single_ops_per_sec: f64,
    /// Replicated (3 grantors) client ops/s, same workload (never gates).
    replicated_ops_per_sec: f64,
    /// replicated/single — the throughput cost of replication.
    throughput_ratio: f64,
}

const SCHEMA: &str = "lease-bench/BENCH_quorum/v1";

/// Virtual time of the first `GrantorAcquired` in `h`, if any.
fn first_acquire_ms(h: &History, after_ms: u64, not_replica: Option<u32>) -> Option<f64> {
    h.events.iter().find_map(|e| match e {
        HistoryEvent::GrantorAcquired { replica, at, .. }
            if at.as_nanos() > after_ms * 1_000_000
                && not_replica.is_none_or(|r| *replica != r) =>
        {
            Some(at.as_nanos() as f64 / 1e6)
        }
        _ => None,
    })
}

/// Cold election latency: a quiet run from boot, deterministic.
fn cold_election_ms() -> f64 {
    let out = sim_run(&SimConfig::default());
    first_acquire_ms(&out.history, 0, None).expect("quiet run elects a grantor")
}

/// Takeover latency sweep: kill the serving leader at 1 s under light
/// message chaos, measure until a *different* replica acquires.
fn takeover_ms(seeds: std::ops::RangeInclusive<u64>) -> Vec<u64> {
    let kill_ms = 1_000u64;
    let mut lats: Vec<u64> = seeds
        .map(|seed| {
            let cfg = SimConfig {
                plan: FaultPlan::new(seed)
                    .kill_replica(Dur::from_millis(kill_ms), 0)
                    .drop_messages(0.02 + (seed % 5) as f64 * 0.01)
                    .duplicate_messages(0.02)
                    .delay_messages(Dur::from_millis(1 + seed % 4)),
                duration: Dur::from_secs(6),
                ..SimConfig::default()
            };
            let out = sim_run(&cfg);
            let at = first_acquire_ms(&out.history, kill_ms, Some(0))
                .expect("a successor takes over after the kill");
            (at - kill_ms as f64).max(0.0) as u64
        })
        .collect();
    lats.sort_unstable();
    lats
}

/// Messages/s of a quiet 10 s run — election amortized in, no faults.
fn steady_msgs_per_sec() -> f64 {
    let cfg = SimConfig::default();
    let out = sim_run(&cfg);
    out.messages_sent as f64 / cfg.duration.as_secs_f64()
}

/// Drives the shared closed-loop workload: round-robin reads over the
/// files from two clients, every fourth op a write. Returns ops/s.
fn drive(clients: &[RtClientHandle], files: &[lease_rt::server::Res], window: Duration) -> f64 {
    let start = Instant::now();
    let mut ops = 0u64;
    let mut k = 0u64;
    while start.elapsed() < window {
        let c = &clients[(k % clients.len() as u64) as usize];
        let f = files[(k % files.len() as u64) as usize];
        if k % 4 == 3 {
            let _ = c.write(f, format!("v{k}").into_bytes());
        } else {
            let _ = c.read(f);
        }
        ops += 1;
        k += 1;
    }
    ops as f64 / start.elapsed().as_secs_f64()
}

const FILES: usize = 8;

/// Client ops/s over `window` against one server (`None`) or a quorum of
/// grantor replicas — tuned fast enough that election never eats into
/// the measurement window.
fn ops_per_sec(quorum: Option<QuorumConfig>, window: Duration) -> f64 {
    let mut b = RtSystem::builder()
        .term(Dur::from_millis(150))
        .client(|c| {
            c.retry_interval = Dur::from_millis(15);
            c.max_retries = 200;
        })
        .clients(2)
        .shards(2);
    if let Some(q) = quorum {
        b = b.quorum(q);
    }
    for i in 0..FILES {
        b = b.file(&format!("/data/f{i}"), Bytes::from(format!("s{i}")));
    }
    let sys = b.start();
    let files: Vec<_> = (0..FILES)
        .map(|i| sys.lookup(&format!("/data/f{i}")).unwrap())
        .collect();
    let clients = vec![sys.client(0), sys.client(1)];
    // Warm the caches so both systems start from the same state.
    for f in &files {
        let _ = clients[0].read(*f);
    }
    let ops = drive(&clients, &files, window);
    sys.shutdown();
    ops
}

fn measure(mode: &str, window: Duration) -> QuorumBench {
    let takeovers = takeover_ms(1..=20);
    let single = ops_per_sec(None, window);
    let replicated = ops_per_sec(Some(QuorumConfig::quick()), window);
    QuorumBench {
        schema: SCHEMA.to_string(),
        mode: mode.to_string(),
        window_ms: window.as_millis() as u64,
        cold_election_ms: cold_election_ms(),
        takeover_p50_ms: lease_bench::percentile(&takeovers, 0.50) as f64,
        takeover_p95_ms: lease_bench::percentile(&takeovers, 0.95) as f64,
        steady_msgs_per_sec: steady_msgs_per_sec(),
        single_ops_per_sec: single,
        replicated_ops_per_sec: replicated,
        throughput_ratio: replicated / single.max(1e-9),
    }
}

fn print_bench(b: &QuorumBench) {
    println!(
        "cold election        {:>8.1} ms (virtual)",
        b.cold_election_ms
    );
    println!(
        "takeover p50/p95     {:>8.1} / {:.1} ms (virtual, 20 seeds)",
        b.takeover_p50_ms, b.takeover_p95_ms
    );
    println!(
        "renewal cost         {:>8.1} msgs/s (quiet run)",
        b.steady_msgs_per_sec
    );
    println!(
        "grant throughput     {:>8.0} ops/s single, {:.0} ops/s replicated (ratio {:.3}, {} ms window)",
        b.single_ops_per_sec, b.replicated_ops_per_sec, b.throughput_ratio, b.window_ms
    );
}

/// Gates `fresh` against `baseline`. Deterministic sim numbers must stay
/// within 25% (they only move when the protocol or tuning changes); the
/// wall-clock throughput ratio must not fall more than 25% below the
/// baseline's. Raw ops/s never gate.
fn check(fresh: &QuorumBench, baseline: &QuorumBench) -> Result<(), String> {
    if baseline.schema != SCHEMA {
        return Err(format!(
            "baseline schema {} != {SCHEMA}; regenerate with --json",
            baseline.schema
        ));
    }
    if baseline.mode != fresh.mode {
        return Err(format!(
            "baseline was measured in {} mode, this run is {} — compare like with like",
            baseline.mode, fresh.mode
        ));
    }
    let within = |name: &str, got: f64, base: f64| -> Result<(), String> {
        if got > base * 1.25 {
            return Err(format!(
                "{name} regressed: {got:.2} vs baseline {base:.2} (+25% limit)"
            ));
        }
        Ok(())
    };
    within(
        "cold election latency",
        fresh.cold_election_ms,
        baseline.cold_election_ms,
    )?;
    within(
        "takeover p95 latency",
        fresh.takeover_p95_ms,
        baseline.takeover_p95_ms,
    )?;
    within(
        "steady renewal msgs/s",
        fresh.steady_msgs_per_sec,
        baseline.steady_msgs_per_sec,
    )?;
    let floor = baseline.throughput_ratio * 0.75;
    if fresh.throughput_ratio < floor {
        return Err(format!(
            "replicated/single throughput ratio {:.3} fell below {:.3} (75% of baseline {:.3})",
            fresh.throughput_ratio, floor, baseline.throughput_ratio
        ));
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut json: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut window_ms = std::env::var("LEASE_QBENCH_MS")
        .ok()
        .and_then(|v| v.parse().ok());
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--ms" => window_ms = it.next().and_then(|v| v.parse().ok()),
            "--json" => json = it.next(),
            "--check" => check_path = it.next(),
            "--help" | "-h" => {
                println!(
                    "quorum_bench [--quick] [--ms N] [--json PATH] [--check PATH]\n\
                     Replicated-grantor benchmark: acquisition/takeover latency,\n\
                     renewal message cost, and replicated-vs-single throughput."
                );
                return;
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    let mode = if quick { "quick" } else { "full" };
    let window = Duration::from_millis(window_ms.unwrap_or(if quick { 400 } else { 1500 }));

    let mut bench = measure(mode, window);
    print_bench(&bench);

    if let Some(path) = &check_path {
        let data = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {path}: {e}");
            std::process::exit(2);
        });
        let baseline: QuorumBench = serde_json::from_str(&data).unwrap_or_else(|e| {
            eprintln!("cannot parse baseline {path}: {e}");
            std::process::exit(2);
        });
        if let Err(first) = check(&bench, &baseline) {
            // One re-measure before failing: the throughput leg is
            // wall-clock and a noisy neighbor can sink a single window.
            eprintln!("check failed ({first}); re-measuring once");
            bench = measure(mode, window);
            print_bench(&bench);
            if let Err(second) = check(&bench, &baseline) {
                eprintln!("quorum bench check failed: {second}");
                std::process::exit(1);
            }
        }
        println!("check ok vs {path}");
    }

    if let Some(path) = &json {
        let s = serde_json::to_string_pretty(&bench).expect("serialize") + "\n";
        std::fs::write(path, s).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        println!("wrote {path}");
    }
}
