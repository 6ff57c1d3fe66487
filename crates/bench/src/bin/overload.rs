//! The overload judges: one open-loop driver over [`RtSystem`]'s own
//! clients, two scenarios.
//!
//! Both pin the system's one shard to a known capacity (the chaos
//! slow-shard knob) and drive its clients **open loop**: client `c` issues
//! op `k` at the `k`-th arrival of an [`OverloadPlan`] stream, finished or
//! not, as a blocking [`RtClientHandle`] call on a thread of its own (at
//! most `OUTSTANDING` per client; an arrival past that fails at the
//! generator). A full lane is a lost message, the cache's retransmission
//! timer the only resend path, and a `Shed` reply paces that timer.
//! `stack` builds each configuration: **hardened** (admission control,
//! a retry budget, an op deadline the shard drops dead work by),
//! **unprotected** (the builder's client defaults) and **storm** (2 ms
//! fixed-interval retransmission, drivers that retry a failed op at once).
//!
//! * `overload sweep [--quick] [--json PATH] [--check PATH]` — goodput
//!   (reads done within a 100 ms SLO of their *intended* arrival) at
//!   0.5/1/2/4× a 500 ops/s shard, hardened (`controlled`) and unprotected
//!   (`ablated`), written to `BENCH_overload.json` or gated against it
//!   (`check`).
//! * `overload burst [--threads N|auto]` — seeded Poisson bursts over a
//!   1000 inputs/s shard, herds on even seeds, a quarter of the ops
//!   writes, each history judged by the consistency and goodput-collapse
//!   oracles. The storm, the negative control, must collapse on a majority
//!   of its seeds. `LEASE_OVERLOAD_SEEDS` (comma-separated, default 1..=12)
//!   and `LEASE_OVERLOAD_NEG` (negative-control seeds, default 3).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use lease_bench::percentile;
use lease_bench::sweep::{self, take_threads_arg};
use lease_clock::{Dur, Time};
use lease_core::RetryBudget;
use lease_faults::{check_goodput, check_history, FaultPlan, GoodputSpec, OverloadPlan, Violation};
use lease_rt::{RtClientHandle, RtSystem, RtSystemBuilder};
use lease_svc::AdmissionControl;

/// The lease term in both scenarios, and the hardened op deadline.
const TERM: Dur = Dur::from_millis(100);
/// Cap on one client's outstanding ops (open loop, not an unbounded
/// thread pool).
const OUTSTANDING: usize = 128;
/// What the backlog admission control lets queue costs at the shard's
/// per-input price; the hardened mailbox is sized from it.
const ADMITTED_BACKLOG: Dur = Dur::from_millis(32);
const SHED_WATERMARK: f64 = 0.25;

/// A protection configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stack {
    Hardened,
    Unprotected,
    Storm,
}

/// Applies `s` to a system whose shard spends `per_input` on each input.
fn stack(b: RtSystemBuilder, s: Stack, per_input: Dur) -> RtSystemBuilder {
    match s {
        Stack::Unprotected => b,
        // Nothing tells the server which queued work is already dead, and
        // nothing paces the resends.
        Stack::Storm => b.client(|c| {
            c.retry_interval = Dur::from_millis(2);
            c.max_retries = 25;
        }),
        Stack::Hardened => {
            let admitted = ADMITTED_BACKLOG.as_nanos() / per_input.as_nanos();
            b.client(|c| {
                c.op_deadline = Some(TERM);
                c.retry_budget = Some(RetryBudget::per_sec(20.0));
            })
            .mailbox((admitted as f64 / SHED_WATERMARK) as usize)
            .admission(AdmissionControl {
                shed_watermark: SHED_WATERMARK,
                retry_after: Dur::from_millis(10),
            })
        }
    }
}

/// An open-loop schedule: `plan`'s stream `c` under `seed` for client
/// `c`, until `run_len`; `picks` seeds the per-client resource picks.
struct Load {
    plan: OverloadPlan,
    seed: u64,
    picks: u64,
    run_len: Duration,
}

/// What one open-loop run did.
#[derive(Default)]
struct Tally {
    arrivals: u64,
    /// Ops that ended in an error, and arrivals dropped at the generator.
    failed: u64,
    /// Each completed op's latency from its intended arrival, in ns.
    lats: Vec<u64>,
}

/// Drives clients `0..clients` of `sys` under `load`. Op `k` of a client
/// runs `op(handle, k, pick)` on its own thread, `pick` being the
/// client's next pseudo-random draw; `op` says whether the op completed.
/// Returns when every op has ended, latencies ascending.
fn drive<F>(sys: &RtSystem, clients: u32, load: &Load, op: F) -> Tally
where
    F: Fn(&RtClientHandle, u64, u64) -> bool + Sync,
{
    let handles: Vec<RtClientHandle> = (0..clients as usize).map(|c| sys.client(c)).collect();
    let outstanding: Vec<AtomicUsize> = handles.iter().map(|_| AtomicUsize::new(0)).collect();
    let tally = Mutex::new(Tally::default());
    let start = Instant::now();
    std::thread::scope(|s| {
        for (c, (handle, out)) in handles.iter().zip(&outstanding).enumerate() {
            let (op, tally) = (&op, &tally);
            let mut arr = load.plan.arrivals(load.seed, c as u64);
            let mut rng = load.picks ^ (c as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            s.spawn(move || {
                for k in 0.. {
                    let at = Duration::from(arr.next_at());
                    if at >= load.run_len {
                        break;
                    }
                    if let Some(wait) = at.checked_sub(start.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    rng = rng
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let mut t = tally.lock().expect("an op thread panicked");
                    t.arrivals += 1;
                    if out.load(Ordering::Relaxed) >= OUTSTANDING {
                        t.failed += 1;
                        continue;
                    }
                    drop(t);
                    out.fetch_add(1, Ordering::Relaxed);
                    let pick = rng >> 33;
                    s.spawn(move || {
                        let done = op(handle, k, pick);
                        let lat = (start + at).elapsed().as_nanos() as u64;
                        out.fetch_sub(1, Ordering::Relaxed);
                        let mut t = tally.lock().expect("an op thread panicked");
                        if done {
                            t.lats.push(lat);
                        } else {
                            t.failed += 1;
                        }
                    });
                }
            });
        }
    });
    let mut t = tally.into_inner().expect("an op thread panicked");
    t.lats.sort_unstable();
    t
}

/// Starts `b` under `s`, its one shard spending `cost` on each input (and
/// `seed`'s fault plan), over `n` files; returns them with it.
fn start(b: RtSystemBuilder, s: Stack, seed: u64, cost: Dur, n: usize) -> (RtSystem, Vec<u64>) {
    let b = b
        .term(TERM)
        .chaos(FaultPlan::new(seed).with_slow_shard(0, cost));
    let paths: Vec<String> = (0..n).map(|i| format!("/d/f{i}")).collect();
    let b = paths
        .iter()
        .fold(stack(b, s, cost), |b, p| b.file(p, b"seed".as_ref()));
    let sys = b.start();
    let files = paths
        .iter()
        .map(|p| sys.lookup(p).expect("pre-created"))
        .collect();
    (sys, files)
}

// ---- sweep: goodput against offered load ------------------------------

/// 2 ms per processed input pins the shard at ~500 ops/s on any host.
const PER_INPUT: Dur = Dur::from_millis(2);
const CAPACITY: f64 = 500.0;
const SLO: Dur = TERM;
const CLIENTS: u32 = 4;
const FILES: usize = 256;
/// Offered load as fractions of saturation.
const OFFERED: [f64; 4] = [0.5, 1.0, 2.0, 4.0];
const SCHEMA: &str = "lease-bench/BENCH_overload/v2";

const HELP: &str = "\
usage: overload sweep [--quick] [--json PATH] [--check PATH]
       overload burst [--threads N|auto]
(the scenarios and the gate: crates/bench/src/bin/overload.rs)";

#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
struct Row {
    mode: String,
    offered_x: f64,
    completed: u64,
    goodput_per_sec: f64,
    /// Server-side admission refusals (cold fetches shed).
    shed: u64,
    /// Inputs the shard dropped because their deadline had passed.
    expired_drops: u64,
    /// Reads that timed out, and arrivals dropped at the generator.
    failed: u64,
    p99_ms: f64,
    /// Reads the cache served under a valid lease.
    hit_share: f64,
    /// Misses of a file the client never cached, over all misses: the
    /// ceiling on the shed-eligible share (the counters do not say which
    /// cold fetches carried a due renewal, which makes them unsheddable).
    shed_eligible_ceiling: f64,
    /// Fetches the server processed per completed read.
    fetch_rx_per_completion: f64,
}

#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
struct OverloadBench {
    schema: String,
    quick: bool,
    slo_ms: u64,
    capacity_per_sec: f64,
    clients: u32,
    rows: Vec<Row>,
}

fn share(part: u64, whole: u64) -> f64 {
    part as f64 / whole.max(1) as f64
}

/// The sweep's two rows per offered load.
const MODES: [(Stack, &str); 2] = [
    (Stack::Hardened, "controlled"),
    (Stack::Unprotected, "ablated"),
];

fn run_row(offered_x: f64, (mode, name): (Stack, &str), window: Duration) -> Row {
    let b = RtSystem::builder().clients(CLIENTS);
    let (sys, files) = start(b, mode, 0, PER_INPUT, FILES);
    // A flat plan: the "burst" is the whole window, at the offered rate
    // split across the client streams.
    let rate = offered_x * CAPACITY / f64::from(CLIENTS);
    let load = Load {
        plan: OverloadPlan {
            base_rate: rate,
            burst_rate: rate,
            burst_at: Dur::ZERO,
            burst_len: Dur::ZERO,
            herd: false,
        },
        seed: 0x0bad_cafe ^ offered_x.to_bits(),
        picks: 0x9e37_79b9_7f4a_7c15,
        run_len: window,
    };
    let t = drive(&sys, CLIENTS, &load, |h, _, pick| {
        h.read(files[pick as usize % FILES]).is_ok()
    });
    let (mut hits, mut cold, mut misses) = (0, 0, 0);
    for c in (0..CLIENTS as usize).filter_map(|c| sys.client(c).stats().ok()) {
        hits += c.hits;
        cold += c.misses_cold;
        misses += c.misses_cold + c.misses_extend;
    }
    // A collapsed shard answers only once it has worked off its queue of
    // dead retransmissions: seconds, at 2 ms an input.
    let server = (0..4)
        .find_map(|_| sys.server_stats())
        .map(|s| s.counters)
        .unwrap_or_default();
    sys.shutdown();
    let slo = Duration::from(SLO).as_nanos() as u64;
    let good = t.lats.iter().filter(|&&l| l <= slo).count() as u64;
    let row = Row {
        mode: name.to_string(),
        offered_x,
        completed: t.lats.len() as u64,
        goodput_per_sec: good as f64 / window.as_secs_f64(),
        shed: server.sheds,
        expired_drops: server.expired_drops,
        failed: t.failed,
        p99_ms: percentile(&t.lats, 0.99) as f64 / 1e6,
        hit_share: share(hits, hits + misses),
        shed_eligible_ceiling: share(cold, misses),
        fetch_rx_per_completion: share(server.fetch_rx, t.lats.len() as u64),
    };
    println!(
        "{name:<10} {offered_x:>3}x goodput={:>5.1}/s p99={:>6.1}ms shed={:>3} expired={:>3} \
         failed={:>4} fetch/op={:.2}",
        row.goodput_per_sec,
        row.p99_ms,
        row.shed,
        row.expired_drops,
        row.failed,
        row.fetch_rx_per_completion,
    );
    row
}

fn measure(quick: bool) -> OverloadBench {
    let window = Duration::from_millis(if quick { 400 } else { 1000 });
    let rows = MODES
        .iter()
        .flat_map(|&m| OFFERED.map(|x| run_row(x, m, window)));
    OverloadBench {
        schema: SCHEMA.to_string(),
        quick,
        slo_ms: (Duration::from(SLO).as_millis()) as u64,
        capacity_per_sec: CAPACITY,
        clients: CLIENTS,
        rows: rows.collect(),
    }
}

fn goodput(b: &OverloadBench, mode: &str, x: f64) -> Result<f64, String> {
    let row = b.rows.iter().find(|r| r.mode == mode && r.offered_x == x);
    row.map(|r| r.goodput_per_sec)
        .ok_or(format!("no {mode} {x}x row"))
}

fn controlled_peak(b: &OverloadBench) -> f64 {
    b.rows
        .iter()
        .filter(|r| r.mode == "controlled")
        .map(|r| r.goodput_per_sec)
        .fold(0.0, f64::max)
}

/// The graceful-degradation gate. All thresholds are on the *fresh*
/// curve except the 2x/peak ratio, which is compared against the
/// baseline's (raw goodput is capacity-pinned but still jitters; the
/// shape of the curve is what the stack protects).
fn check(fresh: &OverloadBench, baseline: &OverloadBench) -> Result<(), String> {
    let (b, f) = (baseline, fresh);
    if (&b.schema, b.quick) != (&f.schema, f.quick) {
        return Err(format!(
            "baseline is {} quick={}, this run {} quick={}: re-record it in the same schema and mode",
            b.schema, b.quick, f.schema, f.quick
        ));
    }
    let peak = controlled_peak(fresh);
    let (c2, a2) = (
        goodput(fresh, "controlled", 2.0)?,
        goodput(fresh, "ablated", 2.0)?,
    );
    println!("check: controlled peak={peak:.1}/s, controlled@2x={c2:.1}/s, ablated@2x={a2:.1}/s");
    if peak <= 0.0 || c2 < 0.5 * peak {
        return Err(format!(
            "not graceful: controlled goodput at 2x ({c2:.1}/s) fell below 50% of peak ({peak:.1}/s)"
        ));
    }
    if a2 >= 0.5 * c2 {
        return Err(format!(
            "ablation did not collapse: ablated@2x ({a2:.1}/s) >= half of controlled@2x ({c2:.1}/s)"
        ));
    }
    for r in fresh.rows.iter().filter(|r| r.mode == "controlled") {
        if r.completed > 0 && r.p99_ms > 2.0 * fresh.slo_ms as f64 {
            return Err(format!(
                "controlled p99 unbounded at {:.1}x: {:.1}ms > 2x SLO",
                r.offered_x, r.p99_ms
            ));
        }
    }
    let b_ratio = goodput(baseline, "controlled", 2.0).unwrap_or(0.0) / controlled_peak(baseline);
    if b_ratio > 0.0 {
        let (ratio, floor) = (c2 / peak, b_ratio * 0.75);
        println!("check baseline: 2x/peak = {b_ratio:.2} (floor {floor:.2}), fresh = {ratio:.2}");
        if ratio < floor {
            return Err(format!(
                "degradation ratio {ratio:.2} regressed >25% below baseline {b_ratio:.2}"
            ));
        }
    }
    Ok(())
}

fn run_sweep(args: &[String]) -> Result<(), String> {
    let mut quick = false;
    let mut json_path = "BENCH_overload.json".to_string();
    let mut check_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--json" => json_path = it.next().ok_or("--json wants a path")?.clone(),
            "--check" => check_path = Some(it.next().ok_or("--check wants a path")?.clone()),
            other => return Err(format!("unknown argument {other} (try --help)")),
        }
    }
    println!("overload sweep: {CLIENTS} clients, a {CAPACITY} ops/s shard, quick={quick}");
    let fresh = measure(quick);
    let Some(path) = check_path else {
        let json = serde_json::to_string_pretty(&fresh)
            .map_err(|e| format!("cannot serialize sweep: {e:?}"))?;
        std::fs::write(&json_path, json + "\n")
            .map_err(|e| format!("cannot write {json_path}: {e}"))?;
        println!("wrote {json_path}");
        return Ok(());
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let baseline =
        serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e:?}"))?;
    if let Err(first) = check(&fresh, &baseline) {
        // One retry: open-loop goodput on a loaded CI host can be
        // unlucky; a real regression fails twice.
        eprintln!("overload sweep --check below floor ({first}); re-measuring once");
        check(&measure(quick), &baseline).map_err(|e| format!("--check FAILED: {e}"))?;
    }
    println!("overload sweep --check OK");
    Ok(())
}

// ---- burst: recovery after seeded bursts ------------------------------

/// 1 ms per input: ~1000 inputs/s.
const BURST_PER_INPUT: Dur = Dur::from_millis(1);
const BURST_AT: Dur = Dur::from_millis(300);
const BURST_LEN: Dur = Dur::from_millis(300);
/// Per-client Poisson rates: base load well under the shard's capacity,
/// the burst several times over it.
const BASE_RATE: f64 = 150.0;
const BURST_RATE: f64 = 2000.0;
const BURST_CLIENTS: u32 = 2;
const RUN_LEN: Duration = Duration::from_millis(1700);

/// The comma-separated numbers in `$name`, or `default` if there are none.
fn env_list(name: &str, default: impl Iterator<Item = u64>) -> Vec<u64> {
    let v = std::env::var(name).unwrap_or_default();
    let list: Vec<u64> = v.split(',').filter_map(|s| s.trim().parse().ok()).collect();
    if list.is_empty() {
        default.collect()
    } else {
        list
    }
}

struct SeedReport {
    seed: u64,
    tally: Tally,
    sheds: u64,
    consistency: usize,
    collapse: Option<Violation>,
}

/// Drives one seed under `mode` (hardened, or the storm of the negative
/// control).
fn run_seed(seed: u64, mode: Stack) -> SeedReport {
    let b = RtSystem::builder()
        .client(|c| c.epsilon = Dur::from_millis(5))
        .clients(BURST_CLIENTS);
    // Enough distinct files that the burst cannot be absorbed by warm
    // client caches alone: cold fetches and re-fetches after expiry keep
    // reaching the server. Writes (below) always do.
    let (sys, files) = start(b, mode, seed, BURST_PER_INPUT, 64);
    let load = Load {
        plan: OverloadPlan {
            base_rate: BASE_RATE,
            burst_rate: BURST_RATE,
            burst_at: BURST_AT,
            burst_len: BURST_LEN,
            herd: seed.is_multiple_of(2),
        },
        seed,
        picks: seed,
        run_len: RUN_LEN,
    };
    let until = Instant::now() + RUN_LEN;
    // A quarter of the ops are write-through writes, which cost the
    // server an approval round trip each — the load the burst is made of.
    let tally = drive(&sys, BURST_CLIENTS, &load, |h, k, pick| {
        let r = files[pick as usize % files.len()];
        let mut tries = 0;
        loop {
            let ok = if k.is_multiple_of(4) {
                h.write(r, format!("w{k}").into_bytes()).is_ok()
            } else {
                h.read(r).is_ok()
            };
            tries += 1;
            // Hardened drivers respect the failure (the stack already
            // spent its retry budget); the storm's hammer until it ends.
            if ok || mode != Stack::Storm || tries >= 50 || Instant::now() > until {
                return ok;
            }
        }
    });

    let sheds = sys.server_stats().map_or(0, |s| s.counters.sheds);
    let history = sys.history();
    sys.shutdown();
    let violations = check_history(&history).err().unwrap_or_default();
    for v in violations.iter().take(3) {
        eprintln!("seed {seed}: {v:?}");
    }
    // Recovery must land within a handful of lease terms of the burst
    // ending; the slack after the burst covers in-flight drain.
    let spec = GoodputSpec {
        baseline_from: Time::ZERO,
        overload_start: Time::ZERO + BURST_AT,
        overload_end: Time::ZERO + BURST_AT + BURST_LEN + Dur::from_millis(50),
        window: TERM + TERM,
        windows: 5,
        recover_frac: 0.8,
    };
    SeedReport {
        seed,
        tally,
        sheds,
        consistency: violations.len(),
        collapse: check_goodput(&history, spec).err(),
    }
}

fn print_row(r: &SeedReport, expect_collapse: bool) -> bool {
    let goodput = match (&r.collapse, expect_collapse) {
        (None, false) => "recovered".to_string(),
        (Some(_), true) => "collapsed (expected)".to_string(),
        (None, true) => "RECOVERED (oracle did not bite)".to_string(),
        (Some(v), false) => format!("COLLAPSE ({v:?})"),
    };
    let ok = (r.collapse.is_some() == expect_collapse) && r.consistency == 0;
    let (seed, sheds, violations, done) = (r.seed, r.sheds, r.consistency, r.tally.lats.len());
    let (arrivals, failed) = (r.tally.arrivals, r.tally.failed);
    println!("| {seed} | {arrivals} | {done} | {failed} | {sheds} | {violations} | {goodput} |");
    ok
}

fn run_burst(mut args: Vec<String>) -> Result<(), String> {
    let threads = take_threads_arg(&mut args, 1)?;
    if let Some(a) = args.first() {
        return Err(format!("unknown argument {a} (try --help)"));
    }
    let seeds = env_list("LEASE_OVERLOAD_SEEDS", 1..=12);
    let neg = env_list("LEASE_OVERLOAD_NEG", 3..=3)[0] as usize;
    let neg_seeds = &seeds[..neg.min(seeds.len())];
    let (hardened, storm) = (seeds.len(), neg_seeds.len());
    println!("overload burst: {hardened} seeds hardened, {storm} storm");
    println!("| seed | arrivals | completed | failed | sheds | violations | goodput |");
    println!("|-----:|---------:|----------:|-------:|------:|-----------:|---------|");

    let mut failed = false;
    for r in sweep::run(threads, &seeds, |_, &seed| run_seed(seed, Stack::Hardened)) {
        failed |= !print_row(&r, false);
    }
    // Negative control: the storm must collapse, or the oracle proves
    // nothing. Consistency must hold even mid-storm.
    if !neg_seeds.is_empty() {
        println!("negative control (the storm: no admission / budgets / deadlines):");
        let mut bites = 0usize;
        for r in sweep::run(threads, neg_seeds, |_, &seed| run_seed(seed, Stack::Storm)) {
            bites += usize::from(r.collapse.is_some());
            failed |= r.consistency > 0;
            print_row(&r, true);
        }
        // Majority, not unanimity: a storm that happens to drain on one
        // seed is noise, a storm that never collapses is a broken oracle.
        if 2 * bites < neg_seeds.len() {
            let n = neg_seeds.len();
            eprintln!(
                "the storm recovered on {}/{n} seeds: the oracle does not bite",
                n - bites
            );
            failed = true;
        }
    }
    if failed {
        return Err("FAILED".into());
    }
    println!("overload burst: ok");
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{HELP}");
        return;
    }
    let result = match args.split_first() {
        Some((s, rest)) if s == "sweep" => run_sweep(rest),
        Some((s, rest)) if s == "burst" => run_burst(rest.to_vec()),
        _ => {
            eprintln!("{HELP}");
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("overload {}: {e}", args[0]);
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline() -> OverloadBench {
        serde_json::from_str(include_str!("../../../../BENCH_overload.json"))
            .expect("BENCH_overload.json parses")
    }

    /// The baseline with the `mode` row at `x` changed by `f`.
    fn with_row(mode: &str, x: f64, f: impl FnOnce(&mut Row)) -> OverloadBench {
        let mut b = baseline();
        f(b.rows
            .iter_mut()
            .find(|r| r.mode == mode && r.offered_x == x)
            .expect("row present"));
        b
    }

    #[test]
    fn the_recorded_baseline_passes_against_itself() {
        let b = baseline();
        assert_eq!(b.schema, SCHEMA);
        assert_eq!(check(&b, &b), Ok(()));
    }

    #[test]
    fn controlled_goodput_at_2x_under_half_the_peak_fails() {
        let peak = controlled_peak(&baseline());
        let fresh = with_row("controlled", 2.0, |r| r.goodput_per_sec = 0.49 * peak);
        let err = check(&fresh, &baseline()).unwrap_err();
        assert!(err.contains("not graceful"), "{err}");
    }

    #[test]
    fn an_ablated_run_that_does_not_collapse_fails() {
        let c2 = goodput(&baseline(), "controlled", 2.0).unwrap();
        let fresh = with_row("ablated", 2.0, |r| r.goodput_per_sec = 0.5 * c2);
        let err = check(&fresh, &baseline()).unwrap_err();
        assert!(err.contains("ablation did not collapse"), "{err}");
    }

    #[test]
    fn controlled_p99_over_twice_the_slo_fails() {
        let slo = baseline().slo_ms as f64;
        let fresh = with_row("controlled", 4.0, |r| r.p99_ms = 2.0 * slo + 1.0);
        let err = check(&fresh, &baseline()).unwrap_err();
        assert!(err.contains("p99 unbounded"), "{err}");
    }

    #[test]
    fn a_baseline_from_the_other_mode_is_refused() {
        let mut other = baseline();
        other.quick = !other.quick;
        let err = check(&baseline(), &other).unwrap_err();
        assert!(err.contains("quick=false, this run"), "{err}");
    }

    #[test]
    fn a_baseline_with_another_schema_is_refused() {
        let mut old = baseline();
        old.schema = "lease-bench/BENCH_overload/v1".to_string();
        let err = check(&baseline(), &old).unwrap_err();
        assert!(
            err.contains("BENCH_overload/v1 quick=true, this run"),
            "{err}"
        );
    }
}
