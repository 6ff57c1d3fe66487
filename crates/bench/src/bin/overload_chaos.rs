//! Seeded overload-chaos sweep over the real-time deployment.
//!
//! Each seed derives an open-loop overload scenario — Poisson base load,
//! a burst window at several times the slow shard's capacity, optionally
//! a thundering herd aligning every client's first burst arrival — and
//! drives it against a *hardened* [`RtSystem`]: server-side admission
//! control (cold fetches shed with a `retry_after` the cache paces its
//! retransmission by), client-side retry budgets and propagated op
//! deadlines. Two oracles judge every run on the recorded true-time
//! history:
//!
//! * `lease_faults::check_history` — shed responses must never create a
//!   consistency violation;
//! * `lease_faults::check_goodput` — once the burst ends, goodput must
//!   recover to a fraction of its pre-burst baseline within a bounded
//!   number of lease-term windows ([`Violation::GoodputCollapse`]
//!   otherwise).
//!
//! A **negative control** then re-runs the first seeds with every
//! protection stripped (no admission, no budgets, no deadline
//! propagation) and the drivers retrying failures immediately —
//! the classic unbudgeted retry storm. Those runs must *fail* the
//! goodput oracle (while still passing consistency), proving the oracle
//! bites; the process exits non-zero if the storm somehow recovers.
//!
//! Environment knobs:
//!
//! | variable               | meaning                        | default |
//! |------------------------|--------------------------------|---------|
//! | `LEASE_OVERLOAD_SEEDS` | comma-separated seeds to sweep | 1..=12  |
//! | `LEASE_OVERLOAD_NEG`   | negative-control seed count    | 3       |

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lease_bench::sweep::{self, take_threads_arg};
use lease_clock::{Dur, Time};
use lease_core::{Backoff, RetryBudget};
use lease_faults::{check_goodput, check_history, GoodputSpec, Violation};
use lease_rt::{FaultPlan, RtSystem};
use lease_svc::{AdmissionControl, OverloadPlan};

const TERM: Dur = Dur::from_millis(100);
const BURST_AT: Dur = Dur::from_millis(300);
const BURST_LEN: Dur = Dur::from_millis(300);
/// Per-client Poisson rates: base load well under the slow shard's
/// ~1000 inputs/sec capacity, the burst several times over it.
const BASE_RATE: f64 = 150.0;
const BURST_RATE: f64 = 2000.0;
const CLIENTS: u32 = 2;
/// Cap on per-client outstanding ops; arrivals beyond it are dropped by
/// the generator (open loop, not an infinite thread pool).
const OUTSTANDING: usize = 128;
const RUN_LEN: Duration = Duration::from_millis(1700);

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_seeds() -> Vec<u64> {
    std::env::var("LEASE_OVERLOAD_SEEDS")
        .ok()
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
        .filter(|v: &Vec<u64>| !v.is_empty())
        .unwrap_or_else(|| (1..=12).collect())
}

struct SeedReport {
    seed: u64,
    arrivals: u64,
    completed: u64,
    failed: u64,
    sheds: u64,
    consistency: usize,
    collapse: Option<Violation>,
}

/// Drives one seed. `hardened` selects the full overload-robustness
/// stack; `false` is the unprotected negative-control configuration.
fn run_seed(seed: u64, hardened: bool) -> SeedReport {
    let plan = FaultPlan::new(seed)
        .with_overload(OverloadPlan {
            base_rate: BASE_RATE,
            burst_rate: BURST_RATE,
            burst_at: BURST_AT,
            burst_len: BURST_LEN,
            herd: seed.is_multiple_of(2),
        })
        .with_slow_shard(0, Dur::from_millis(1));
    let mut b = RtSystem::builder()
        .term(TERM)
        .epsilon(Dur::from_millis(5))
        .clients(CLIENTS)
        .shards(1)
        .chaos(plan.clone());
    if hardened {
        b = b
            .retry_interval(Dur::from_millis(10))
            .max_retries(50)
            .mailbox(128)
            .op_deadline(TERM) // Propagated: shards drop already-dead work.
            .retry_budget(RetryBudget::per_sec(20.0))
            .admission(AdmissionControl {
                shed_watermark: 0.25,
                stats_watermark: 0.9,
                retry_after: Dur::from_millis(10),
            });
    } else {
        // The storm configuration: fast fixed-interval retransmissions,
        // give-up by attempt count alone (nothing tells the server which
        // queued work is already dead), no shedding, no pacing.
        b = b
            .retry_interval(Dur::from_millis(2))
            .max_retries(25)
            .backoff(Backoff {
                multiplier: 1.0,
                cap: Dur::from_millis(2),
                jitter: 0.0,
            });
    }
    // Enough distinct files that the burst cannot be absorbed by warm
    // client caches alone: cold fetches and re-fetches after expiry keep
    // reaching the server. Writes (below) always do.
    let files: Vec<String> = (0..64).map(|i| format!("/d/f{i}")).collect();
    for f in &files {
        b = b.file(f, b"seed".as_ref());
    }
    let sys = b.start();
    let resources: Vec<_> = files.iter().map(|f| sys.lookup(f).unwrap()).collect();

    let arrivals_n = Arc::new(AtomicU64::new(0));
    let completed = Arc::new(AtomicU64::new(0));
    let failed = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    std::thread::scope(|s| {
        for c in 0..CLIENTS as usize {
            let mut arr = plan.arrivals(c as u64).unwrap();
            let handle = sys.client(c);
            let resources = resources.clone();
            let (arrivals_n, completed, failed) =
                (arrivals_n.clone(), completed.clone(), failed.clone());
            s.spawn(move || {
                let outstanding = Arc::new(AtomicUsize::new(0));
                let mut k = 0u64;
                std::thread::scope(|ops| {
                    loop {
                        let at = Duration::from(arr.next_at());
                        if at >= RUN_LEN {
                            break;
                        }
                        let elapsed = start.elapsed();
                        if at > elapsed {
                            std::thread::sleep(at - elapsed);
                        }
                        arrivals_n.fetch_add(1, Ordering::Relaxed);
                        if outstanding.load(Ordering::Relaxed) >= OUTSTANDING {
                            failed.fetch_add(1, Ordering::Relaxed); // Load shed at the generator.
                            continue;
                        }
                        outstanding.fetch_add(1, Ordering::Relaxed);
                        // Deterministic per-client LCG resource pick; a
                        // quarter of the ops are write-through writes,
                        // which cost the server an approval round trip
                        // each — the load the burst is made of.
                        let mix = (seed ^ (c as u64) << 32 ^ k)
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let r = resources[(mix >> 33) as usize % resources.len()];
                        let write = k.is_multiple_of(4);
                        k += 1;
                        let handle = handle.clone();
                        let outstanding = outstanding.clone();
                        let (completed, failed) = (completed.clone(), failed.clone());
                        ops.spawn(move || {
                            let mut tries = 0u32;
                            loop {
                                let ok = if write {
                                    handle.write(r, format!("w{k}").into_bytes()).is_ok()
                                } else {
                                    handle.read(r).is_ok()
                                };
                                if ok {
                                    completed.fetch_add(1, Ordering::Relaxed);
                                    break;
                                }
                                tries += 1;
                                // Hardened drivers respect the failure (the
                                // stack already spent its retry budget); the
                                // unprotected ones hammer until it succeeds.
                                if hardened || tries >= 50 || start.elapsed() > RUN_LEN {
                                    failed.fetch_add(1, Ordering::Relaxed);
                                    break;
                                }
                            }
                            outstanding.fetch_sub(1, Ordering::Relaxed);
                        });
                    }
                });
            });
        }
    });

    let sheds = sys.server_stats().map_or(0, |s| s.counters.sheds);
    let history = sys.history();
    sys.shutdown();
    let consistency = match check_history(&history) {
        Ok(()) => 0,
        Err(v) => {
            for violation in v.iter().take(3) {
                eprintln!("seed {seed}: {violation:?}");
            }
            v.len()
        }
    };
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
        arrivals: arrivals_n.load(Ordering::Relaxed),
        completed: completed.load(Ordering::Relaxed),
        failed: failed.load(Ordering::Relaxed),
        sheds,
        consistency,
        collapse: check_goodput(&history, spec).err(),
    }
}

fn print_row(r: &SeedReport, expect_collapse: bool) -> bool {
    let goodput = match (&r.collapse, expect_collapse) {
        (None, false) => "recovered".to_string(),
        (Some(_), true) => "collapsed (expected)".to_string(),
        (None, true) => "RECOVERED (oracle did not bite)".to_string(),
        (
            Some(Violation::GoodputCollapse {
                baseline, achieved, ..
            }),
            false,
        ) => format!("COLLAPSE ({achieved:.0}/{baseline:.0} ops/s)"),
        (Some(v), false) => format!("COLLAPSE ({v:?})"),
    };
    let ok = (r.collapse.is_some() == expect_collapse) && r.consistency == 0;
    println!(
        "| {} | {} | {} | {} | {} | {} | {} |",
        r.seed, r.arrivals, r.completed, r.failed, r.sheds, r.consistency, goodput
    );
    ok
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let threads = take_threads_arg(&mut args, 1).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    if let Some(a) = args.first() {
        eprintln!("unknown argument {a} (only --threads N|auto is accepted)");
        std::process::exit(2);
    }
    let seeds = env_seeds();
    let neg = env_u64("LEASE_OVERLOAD_NEG", 3) as usize;

    println!(
        "overload chaos: burst {BURST_RATE:.0}/s/client for {}ms at t={}ms over a \
         ~1000 input/s shard ({} seeds hardened, {} unprotected)",
        BURST_LEN.as_nanos() / 1_000_000,
        BURST_AT.as_nanos() / 1_000_000,
        seeds.len(),
        neg.min(seeds.len()),
    );
    println!("| seed | arrivals | completed | failed | sheds | violations | goodput |");
    println!("|-----:|---------:|----------:|-------:|------:|-----------:|---------|");

    let mut failed = false;
    for r in sweep::run(threads, &seeds, |_, &seed| run_seed(seed, true)) {
        failed |= !print_row(&r, false);
    }

    // Negative control: the unprotected stack must collapse, or the
    // oracle proves nothing. Consistency must hold even mid-storm.
    let neg_seeds: Vec<u64> = seeds.iter().copied().take(neg).collect();
    if !neg_seeds.is_empty() {
        println!("negative control (no admission / budgets / deadlines):");
        let mut bites = 0usize;
        for r in sweep::run(threads, &neg_seeds, |_, &seed| run_seed(seed, false)) {
            if r.collapse.is_some() {
                bites += 1;
            }
            if r.consistency > 0 {
                failed = true;
            }
            print_row(&r, true);
        }
        // Majority, not unanimity: a storm that happens to drain on one
        // seed is noise, a storm that never collapses is a broken oracle.
        if 2 * bites < neg_seeds.len() {
            eprintln!(
                "overload chaos: negative control recovered on {}/{} seeds — \
                 the GoodputCollapse oracle is not biting",
                neg_seeds.len() - bites,
                neg_seeds.len()
            );
            failed = true;
        }
    }

    if failed {
        eprintln!("overload chaos sweep: FAILED");
        std::process::exit(1);
    }
    println!("overload chaos sweep: ok");
}
