//! Seeded chaos sweep over the real-time deployment, in both arrangements.
//!
//! For each seed of each scenario this builds an [`RtSystem`] under a
//! fault plan derived from that seed, drives a read/write workload from
//! two clients — each write to the file the *other* client just read, so
//! every write runs the approval path under the faults — and reports:
//!
//! * the oracle's verdict on the recorded true-time history
//!   (`lease_faults::check_history`: client consistency, and under a
//!   quorum the at-most-one-grantor invariant),
//! * the worst observed write delay against the scenario's bound.
//!
//! The scenarios (`chaos [single|replicated]`, none = both):
//!
//! * `single` — one server, two shards: a mid-run shard kill, message
//!   drops, duplicates and delays. Bound (§5): one term waiting out an
//!   unreachable holder plus the max-term recovery window after the crash.
//! * `replicated` — three grantor replicas: a mid-run replica kill (whole
//!   host: election state and service shards), a later partition of
//!   another replica, the same message faults on every link, and on every
//!   third seed a 2x-fast replica clock. Bound: the grantor lease must
//!   expire on the surviving acceptors, a successor must win, and its §5
//!   recovery must wait out the predecessor's file leases.
//!
//! The process exits non-zero if any seed's history fails the oracle, so
//! CI can run it as a smoke test.
//!
//! Environment knobs:
//!
//! | variable             | meaning                         | default                 |
//! |----------------------|---------------------------------|-------------------------|
//! | `LEASE_CHAOS_SEEDS`  | comma-separated seeds to sweep  | 1,2,3,4,5,6             |
//! | `LEASE_CHAOS_MS`     | workload duration per seed      | the scenario's own      |

use std::time::{Duration, Instant};

use lease_bench::sweep::{self, take_threads_arg};
use lease_clock::{ClockModel, Dur};
use lease_faults::{check_history, grantor_claims, FaultPlan, History, HistoryEvent, Violation};
use lease_rt::{QuorumConfig, RtSystem};

fn env_seeds() -> Vec<u64> {
    std::env::var("LEASE_CHAOS_SEEDS")
        .ok()
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
        .filter(|v: &Vec<u64>| !v.is_empty())
        .unwrap_or_else(|| (1..=6).collect())
}

/// One row of the sweep: an arrangement and the faults thrown at it.
struct Scenario {
    name: &'static str,
    /// The seed's fault plan for a window of `ms` milliseconds.
    plan: fn(seed: u64, ms: u64) -> FaultPlan,
    quorum: Option<fn() -> QuorumConfig>,
    window_ms: u64,
    /// File-lease term.
    term_ms: u64,
    /// Worst-case write stall the faults should cost; everything beyond
    /// it is retry/scheduling slack worth seeing in the table.
    delay_bound_ms: u64,
    /// The one report column the scenarios do not share.
    column: &'static str,
    count: fn(&RtSystem, &History) -> u64,
}

/// The message faults every scenario shares, derived from the seed so a
/// sweep explores distinct patterns and a re-run replays them.
fn link_faults(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .drop_messages(0.02 + (seed % 5) as f64 * 0.01)
        .duplicate_messages(0.02)
        .delay_messages(Dur::from_millis(1 + seed % 4))
}

const SHARDS: usize = 2;
const REPLICAS: u64 = 3;
/// The grantor-lease term of [`QuorumConfig::quick`].
const QUORUM_TERM_MS: u64 = 250;

static SCENARIOS: [Scenario; 2] = [
    Scenario {
        name: "single",
        plan: |seed, ms| {
            link_faults(seed).kill_shard(Dur::from_millis(ms / 3), (seed % SHARDS as u64) as usize)
        },
        quorum: None,
        window_ms: 900,
        term_ms: 200,
        delay_bound_ms: 2 * 200,
        column: "restarts",
        count: |sys, _| sys.server_stats().map_or(0, |s| s.restarts.iter().sum()),
    },
    Scenario {
        name: "replicated",
        // Kill one replica a third of the way in, partition a different
        // one later, and every third seed give one a clock running at
        // twice true rate (beyond the drift bound — the quorum majority
        // masks it).
        plan: |seed, ms| {
            let plan = link_faults(seed)
                .kill_replica(Dur::from_millis(ms / 3), (seed % REPLICAS) as usize)
                .cut_replica(
                    Dur::from_millis(2 * ms / 3),
                    Dur::from_millis(2 * ms / 3 + 250),
                    ((seed + 1) % REPLICAS) as usize,
                );
            if seed.is_multiple_of(3) {
                plan.with_replica_clock(
                    ((seed + 2) % REPLICAS) as usize,
                    ClockModel::drifting(1_000_000.0),
                )
            } else {
                plan
            }
        },
        quorum: Some(QuorumConfig::quick),
        window_ms: 1500,
        term_ms: 150,
        delay_bound_ms: 2 * (QUORUM_TERM_MS + 150),
        column: "grantor claims",
        count: |_, history| {
            history
                .events
                .iter()
                .filter(|e| matches!(e, HistoryEvent::GrantorAcquired { .. }))
                .count() as u64
        },
    },
];

struct SeedReport {
    seed: u64,
    ops: u64,
    timeouts: u64,
    max_write_delay: Duration,
    count: u64,
    violations: usize,
}

fn run_seed(sc: &Scenario, seed: u64, duration: Duration) -> SeedReport {
    let mut b = RtSystem::builder()
        .term(Dur::from_millis(sc.term_ms))
        .client(|c| {
            c.epsilon = Dur::from_millis(5);
            c.retry_interval = Dur::from_millis(15);
            c.max_retries = 800;
        })
        .clients(2)
        .shards(SHARDS)
        .file("/data/a", b"a0".as_ref())
        .file("/data/b", b"b0".as_ref())
        .chaos((sc.plan)(seed, duration.as_millis() as u64));
    if let Some(quorum) = sc.quorum {
        b = b.quorum(quorum());
    }
    let sys = b.start();
    let a = sys.lookup("/data/a").unwrap();
    let b = sys.lookup("/data/b").unwrap();
    let (c0, c1) = (sys.client(0), sys.client(1));

    let start = Instant::now();
    let mut ops = 0u64;
    let mut timeouts = 0u64;
    let mut max_write_delay = Duration::ZERO;
    let mut k = 0u64;
    while start.elapsed() < duration {
        // The writer writes what the other client just read: the write
        // waits for that leaseholder's approval, or for its lease to run
        // out when the faults eat the exchange.
        let (reader, writer, file) = if k.is_multiple_of(2) {
            (&c0, &c1, a)
        } else {
            (&c1, &c0, b)
        };
        if reader.read(file).is_err() {
            timeouts += 1;
        }
        ops += 1;
        let t0 = Instant::now();
        match writer.write(file, format!("v{k}").into_bytes()) {
            Ok(_) => max_write_delay = max_write_delay.max(t0.elapsed()),
            Err(_) => timeouts += 1,
        }
        ops += 1;
        k += 1;
    }

    let history = sys.history();
    let count = (sc.count)(&sys, &history);
    sys.shutdown();
    let violations = match check_history(&history) {
        Ok(()) => 0,
        Err(v) => {
            for violation in v.iter().take(3) {
                eprintln!("{} seed {seed}: {violation:?}", sc.name);
            }
            if sc.quorum.is_some() {
                print_claim_holders(sc.name, seed, &history, &v);
            }
            v.len()
        }
    };
    SeedReport {
        seed,
        ops,
        timeouts,
        max_write_delay,
        count,
        violations,
    }
}

/// Names, for each stale read, the replica whose grantor claim covered
/// the instant the read's version stopped being current: the grantor
/// that committed the write the reader missed.
fn print_claim_holders(name: &str, seed: u64, history: &History, violations: &[Violation]) {
    let claims = grantor_claims(history);
    for v in violations {
        if let Violation::StaleRead {
            resource,
            version,
            valid_until,
            ..
        } = v
        {
            let holder = claims
                .iter()
                .filter(|c| c.from <= *valid_until && *valid_until < c.until)
                .map(|c| format!("replica {} (ballot {})", c.replica, c.ballot))
                .collect::<Vec<_>>();
            eprintln!(
                "{name} seed {seed}: StaleRead of resource {resource} {version:?}: \
                 grantor at valid_until {valid_until}: {}",
                if holder.is_empty() {
                    "none".to_string()
                } else {
                    holder.join(", ")
                }
            );
        }
    }
}

/// Sweeps one scenario; whether every seed's history passed the oracle.
fn sweep_scenario(sc: &Scenario, threads: usize, seeds: &[u64]) -> bool {
    let window_ms = std::env::var("LEASE_CHAOS_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(sc.window_ms);
    let delay_bound = Duration::from_millis(sc.delay_bound_ms);
    println!(
        "chaos sweep, {}: term={}ms, window={window_ms}ms, write-delay bound ~{delay_bound:?}",
        sc.name, sc.term_ms
    );
    println!(
        "| seed | ops | timeouts | {} | max write delay | oracle |",
        sc.column
    );
    println!(
        "|-----:|----:|---------:|{}:|----------------:|--------|",
        "-".repeat(sc.column.len() + 1)
    );
    let reports = sweep::run(threads, seeds, |_, &seed| {
        run_seed(sc, seed, Duration::from_millis(window_ms))
    });
    let mut clean = true;
    for r in reports {
        let verdict = if r.violations == 0 {
            "ok".to_string()
        } else {
            clean = false;
            format!("{} violation(s)", r.violations)
        };
        let over = if r.max_write_delay > delay_bound {
            " (over bound)"
        } else {
            ""
        };
        println!(
            "| {} | {} | {} | {} | {:?}{} | {} |",
            r.seed, r.ops, r.timeouts, r.count, r.max_write_delay, over, verdict
        );
    }
    clean
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Seeds run serially by default: each spins up a real multi-threaded
    // system driven by wall-clock time, so concurrent seeds contend for
    // cores and shift timings (never correctness — the oracle checks the
    // recorded history either way). `--threads N` opts into overlapping
    // them for a faster sweep.
    let threads = take_threads_arg(&mut args, 1).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let wanted: Vec<&Scenario> = match args.as_slice() {
        [] => SCENARIOS.iter().collect(),
        [name] => SCENARIOS.iter().filter(|sc| sc.name == name).collect(),
        _ => Vec::new(),
    };
    if wanted.is_empty() {
        eprintln!("usage: chaos [single|replicated] [--threads N|auto]");
        std::process::exit(2);
    }
    let seeds = env_seeds();
    let mut clean = true;
    for sc in wanted {
        clean &= sweep_scenario(sc, threads, &seeds);
    }
    if !clean {
        eprintln!("chaos sweep: consistency violations found");
        std::process::exit(1);
    }
}
