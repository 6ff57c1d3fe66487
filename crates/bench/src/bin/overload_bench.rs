//! Goodput-vs-offered-load sweep for the overload-robustness stack.
//!
//! Drives the sharded lease service **open loop** — deterministic Poisson
//! arrivals at a fixed multiple of the shard's capacity, whether or not
//! earlier ops have completed — and measures *goodput*: completions whose
//! open-loop latency (from the intended arrival instant, so queueing and
//! sender blocking count) lands within an SLO. A single shard is pinned
//! to a known capacity with the chaos slow-shard knob, so offered load is
//! expressed as a machine-independent fraction of saturation.
//!
//! Two modes per offered load:
//!
//! * **controlled** — the overload stack on: admission control (cold
//!   fetches shed with a server-suggested `retry_after`, which the
//!   client honours from a token-bucket retry budget) and per-op
//!   deadlines propagated into the mailbox so the shard drops work whose
//!   caller has already given up;
//! * **ablated** — the same service with every protection off: blocking
//!   sends, no admission, no deadlines. Past saturation
//!   its queue fills with work that is already dead by the time it is
//!   drained, and goodput collapses even though raw throughput holds.
//!
//! Results go to `BENCH_overload.json`; `--check PATH` re-measures and
//! gates against a recorded baseline (see `--help`). `--quick` shrinks
//! the per-row window for CI smoke; the flag is recorded in the JSON and
//! checking a quick run against a full baseline (or vice versa) is
//! refused.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lease_bench::percentile;
use lease_clock::{Clock, Dur, Time, WallClock};
use lease_core::{
    ClientId, ErrorReason, LeaseServer, MemStorage, ReqId, ServerConfig, Storage, ToClient,
    ToServer,
};
use lease_svc::{
    AdmissionControl, Arrivals, Egress, EgressRx, EgressSink, LeaseService, OverloadPlan,
    SvcConfig, SvcError, SvcHandle, SvcHooks,
};

type R = u64;
type D = u64;

/// The slow-shard injection: 2ms per processed input ≈ 500 ops/sec of
/// genuine capacity, independent of the host.
const PER_INPUT: Dur = Dur::from_millis(2);
const CAPACITY: f64 = 500.0;
const SLO: Dur = Dur::from_millis(100);
const CLIENTS: u32 = 4;
const FILES: u64 = 256;
/// Mailbox and drain batch are sized so the backlog admission control
/// permits (shed watermark × mailbox, plus one drain batch in hand)
/// costs well under the SLO at 2ms per input — otherwise every admitted
/// op would already be late and shedding could not preserve goodput.
const MAILBOX: usize = 64;
const BATCH: usize = 8;
/// Reply lanes hold this many messages per client — far more than the
/// capacity-pinned shard can have outstanding, so a flush never stalls.
const LANE_CAP: usize = 1024;
/// Offered load as fractions of saturation.
const OFFERED: [f64; 4] = [0.5, 1.0, 2.0, 4.0];

const HELP: &str = "\
overload_bench: open-loop goodput sweep for the overload stack

Sweeps offered load at 0.5x/1x/2x/4x of a capacity-pinned shard
(2ms/input slow-shard injection, ~500 ops/s), in two modes: `controlled`
(admission control + retry budget + propagated deadlines) and `ablated`
(blocking sends, no protections). Goodput is completions within a 100ms
SLO, measured from the *intended* arrival instant.

  --quick         short measurement windows (CI smoke); recorded in the
                  JSON, and --check refuses to compare across modes
  --json PATH     where to write results (default BENCH_overload.json)
  --check PATH    measure, then gate against the baseline at PATH:
                  controlled goodput at 2x must hold >=50% of the
                  controlled peak, the ablated run at 2x must collapse
                  below half of the controlled one, controlled p99 must
                  stay within 2x the SLO, and the controlled 2x/peak
                  ratio must be within 25% of the baseline's. One
                  re-measure before failing.
  --help          this text";

/// An op registered by the sender, awaiting its reply.
struct Pend {
    /// Intended arrival instant — open-loop latency is measured from
    /// here, so time spent blocked in `send` or queued counts.
    t0: Instant,
    /// The op's deadline on the service clock (controlled mode only).
    deadline: Option<Time>,
    resource: u64,
}

#[derive(Default)]
struct Tally {
    /// Latencies (ns from intended arrival) of every completion.
    lats: Vec<u64>,
    good: u64,
    shed_seen: u64,
    refused: u64,
    unanswered: u64,
}

/// One open-loop sender: fires fetches at its arrival instants.
/// Controlled mode attaches `now + SLO` as the op deadline and treats
/// transport backpressure as a refusal; ablated mode blocks.
#[allow(clippy::too_many_arguments)]
fn sender(
    id: ClientId,
    handle: &SvcHandle<R, D>,
    clock: &WallClock,
    mut arr: Arrivals,
    start: Instant,
    window: Duration,
    controlled: bool,
    reg: &Sender<(u64, Pend)>,
    refused: &AtomicU64,
) {
    let mut rng = 0x9e37_79b9_7f4a_7c15 ^ u64::from(id.0).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let mut next_req: u64 = 1;
    loop {
        let at = Duration::from(arr.next_at());
        if at >= window {
            return;
        }
        let elapsed = start.elapsed();
        if at > elapsed {
            std::thread::sleep(at - elapsed);
        }
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let resource = (rng >> 33) % FILES;
        let req = ReqId(next_req);
        next_req += 1;
        let msg = ToServer::Fetch {
            req,
            resource,
            cached: None,
            also_extend: Vec::new(),
        };
        let t0 = start + at;
        if controlled {
            let deadline = clock.now() + SLO;
            let pend = Pend {
                t0,
                deadline: Some(deadline),
                resource,
            };
            if handle.try_send_at(id, msg, Some(deadline)).is_ok() {
                let _ = reg.send((req.0, pend));
            } else {
                refused.fetch_add(1, Ordering::Relaxed);
            }
        } else {
            let pend = Pend {
                t0,
                deadline: None,
                resource,
            };
            let _ = reg.send((req.0, pend));
            // Blocking: spin on the full lane until it takes the fetch.
            loop {
                match handle.try_send_at(id, msg.clone(), None) {
                    Ok(()) => break,
                    Err(SvcError::Backpressure) => std::thread::yield_now(),
                    Err(_) => return,
                }
            }
        }
    }
}

/// A shed retry waiting out its server-suggested pause.
struct Parked {
    due: Instant,
    req: u64,
}

/// One reply drainer: matches grants to registered ops, turns shed
/// replies into budgeted paced retries (controlled mode), and tallies
/// goodput. Runs until the stop flag plus a drain grace.
fn receiver(
    id: ClientId,
    handle: &SvcHandle<R, D>,
    clock: &WallClock,
    mut rx: EgressRx<R, D>,
    reg: &Receiver<(u64, Pend)>,
    stop: &AtomicBool,
    controlled: bool,
) -> Tally {
    let mut t = Tally::default();
    let mut pending: HashMap<u64, Pend> = HashMap::new();
    let mut parked: Vec<Parked> = Vec::new();
    // Token-bucket budget for shed retries: the server asked us to pace,
    // the budget caps how much paced re-offering we add on top.
    let (rate, burst) = (50.0, 16.0);
    let mut tokens = burst;
    let mut refill = Instant::now();
    let mut drain_until: Option<Instant> = None;
    let mut replies: Vec<ToClient<R, D>> = Vec::new();
    loop {
        if stop.load(Ordering::Relaxed) {
            let until =
                *drain_until.get_or_insert_with(|| Instant::now() + 3 * Duration::from(SLO));
            if Instant::now() >= until {
                break;
            }
        }
        while let Ok((req, pend)) = reg.try_recv() {
            pending.insert(req, pend);
        }
        // Flush shed retries whose pause has elapsed (and whose op is
        // still alive on its original deadline).
        tokens = (tokens + refill.elapsed().as_secs_f64() * rate).min(burst);
        refill = Instant::now();
        let now = Instant::now();
        for p in parked.extract_if(.., |p| p.due <= now).collect::<Vec<_>>() {
            let Some(pend) = pending.get(&p.req) else {
                continue;
            };
            let dead = pend.deadline.is_some_and(|d| clock.now() > d);
            if dead
                || handle
                    .try_send_at(
                        id,
                        ToServer::Fetch {
                            req: ReqId(p.req),
                            resource: pend.resource,
                            cached: None,
                            also_extend: Vec::new(),
                        },
                        pend.deadline,
                    )
                    .is_err()
            {
                pending.remove(&p.req);
                t.refused += 1;
            }
        }
        // Ticket before the poll, so a publish cannot slip past the park.
        let ticket = rx.bell().ticket();
        if rx.drain_into(&mut replies, LANE_CAP) == 0 {
            rx.bell().wait(ticket, Duration::from_millis(5));
            continue;
        }
        for msg in replies.drain(..) {
            match msg {
                ToClient::Grants { req, grants } => {
                    if let Some(pend) = pending.get(&req.0) {
                        if grants.iter().any(|g| g.resource == pend.resource) {
                            let lat = pend.t0.elapsed().as_nanos() as u64;
                            if lat <= Duration::from(SLO).as_nanos() as u64 {
                                t.good += 1;
                            }
                            t.lats.push(lat);
                            pending.remove(&req.0);
                        }
                    }
                }
                ToClient::Error {
                    req,
                    reason: ErrorReason::Shed { retry_after },
                } => {
                    t.shed_seen += 1;
                    if controlled && pending.contains_key(&req.0) && tokens >= 1.0 {
                        tokens -= 1.0;
                        parked.push(Parked {
                            due: Instant::now() + Duration::from(retry_after),
                            req: req.0,
                        });
                    } else {
                        pending.remove(&req.0);
                    }
                }
                ToClient::Error { req, .. } => {
                    pending.remove(&req.0);
                }
                ToClient::ApprovalRequest { write_id, .. } => {
                    let _ = handle.try_send_at(id, ToServer::Approve { write_id }, None);
                }
                _ => {}
            }
        }
    }
    t.unanswered = pending.len() as u64;
    t
}

#[derive(serde::Serialize, serde::Deserialize)]
struct Row {
    mode: String,
    offered_x: f64,
    offered_per_sec: f64,
    completed: u64,
    good: u64,
    goodput_per_sec: f64,
    /// Server-side admission refusals (cold fetches shed).
    shed: u64,
    /// Inputs the shard dropped because their deadline had passed.
    expired_drops: u64,
    /// Client-side drops: transport backpressure + exhausted retry budget.
    refused: u64,
    /// Ops never answered (dead in a queue at shutdown).
    unanswered: u64,
    p99_ms: f64,
}

#[derive(serde::Serialize, serde::Deserialize)]
struct OverloadBench {
    schema: String,
    quick: bool,
    slo_ms: u64,
    capacity_per_sec: f64,
    clients: u32,
    rows: Vec<Row>,
}

fn run_row(offered_x: f64, controlled: bool, window: Duration) -> Row {
    let offered = offered_x * CAPACITY;
    let clock = Arc::new(WallClock::new());
    let egress: Egress<R, D> = Egress::new(CLIENTS as usize, LANE_CAP);
    let service = LeaseService::spawn(
        SvcConfig {
            shards: 1,
            mailbox: MAILBOX,
            batch: BATCH,
            admission: controlled.then_some(AdmissionControl {
                shed_watermark: 0.25,
                retry_after: Dur::from_millis(10),
            }),
            slow_shard: Some((0, PER_INPUT)),
            ..SvcConfig::default()
        },
        Arc::new(EgressSink::new(egress.clone())),
        SvcHooks {
            clock: Some(clock.clone()),
            ..SvcHooks::default()
        },
        move |_| {
            let mut store: MemStorage<R, D> = MemStorage::new();
            for r in 0..FILES {
                store.insert(r, r);
            }
            (
                LeaseServer::new(ServerConfig::fixed(Dur::from_millis(100))),
                Box::new(store) as Box<dyn Storage<R, D> + Send>,
            )
        },
    );
    let handle = service.handle();
    // A flat plan: the "burst" is the whole window, at the offered rate
    // split across the client streams.
    let seed = 0x0bad_cafe ^ offered_x.to_bits();
    let plan = OverloadPlan {
        base_rate: offered / f64::from(CLIENTS),
        burst_rate: offered / f64::from(CLIENTS),
        burst_at: Dur::ZERO,
        burst_len: Dur::ZERO,
        herd: false,
    };
    let stop = Arc::new(AtomicBool::new(false));
    let refused = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let mut tallies: Vec<Tally> = Vec::new();
    std::thread::scope(|s| {
        let mut drainers = Vec::new();
        for i in 0..CLIENTS as usize {
            let id = ClientId(i as u32);
            let rx = egress.rx(i);
            let (reg_tx, reg_rx) = channel();
            let (handle2, clock2, stop2) = (handle.clone(), clock.clone(), stop.clone());
            drainers.push(
                s.spawn(move || receiver(id, &handle2, &clock2, rx, &reg_rx, &stop2, controlled)),
            );
            let arr = plan.arrivals(seed, i as u64);
            let (handle2, clock2, refused2) = (handle.clone(), clock.clone(), refused.clone());
            s.spawn(move || {
                sender(
                    id, &handle2, &clock2, arr, start, window, controlled, &reg_tx, &refused2,
                );
                drop(reg_tx);
            });
        }
        // Senders exit on their own at the window edge; the drainers get
        // the stop flag then, and a grace period to drain.
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        tallies = drainers.into_iter().map(|d| d.join().unwrap()).collect();
    });
    let counters = service.stats().map(|s| s.counters).unwrap_or_default();
    service.shutdown();
    let mut lats: Vec<u64> = Vec::new();
    let (mut good, mut shed_seen, mut client_refused, mut unanswered) = (0, 0, 0, 0);
    for t in tallies {
        lats.extend(t.lats);
        good += t.good;
        shed_seen += t.shed_seen;
        client_refused += t.refused;
        unanswered += t.unanswered;
    }
    let _ = shed_seen; // Server-side counter below is the authority.
    lats.sort_unstable();
    let row = Row {
        mode: if controlled { "controlled" } else { "ablated" }.to_string(),
        offered_x,
        offered_per_sec: offered,
        completed: lats.len() as u64,
        good,
        goodput_per_sec: good as f64 / window.as_secs_f64(),
        shed: counters.sheds,
        expired_drops: counters.expired_drops,
        refused: refused.load(Ordering::Relaxed) + client_refused,
        unanswered,
        p99_ms: percentile(&lats, 0.99) as f64 / 1e6,
    };
    println!(
        "{:<10} {:>4.1}x ({:>6.0}/s) goodput={:>6.1}/s good={:>5} completed={:>5} shed={:>5} expired={:>5} refused={:>5} p99={:>8.1}ms",
        row.mode,
        row.offered_x,
        row.offered_per_sec,
        row.goodput_per_sec,
        row.good,
        row.completed,
        row.shed,
        row.expired_drops,
        row.refused,
        row.p99_ms,
    );
    row
}

fn measure(quick: bool) -> OverloadBench {
    let window = Duration::from_millis(if quick { 400 } else { 1000 });
    let mut rows = Vec::new();
    for &x in &OFFERED {
        rows.push(run_row(x, true, window));
    }
    for &x in &OFFERED {
        rows.push(run_row(x, false, window));
    }
    OverloadBench {
        schema: "lease-bench/BENCH_overload/v1".to_string(),
        quick,
        slo_ms: (Duration::from(SLO).as_millis()) as u64,
        capacity_per_sec: CAPACITY,
        clients: CLIENTS,
        rows,
    }
}

fn goodput(b: &OverloadBench, mode: &str, x: f64) -> Option<f64> {
    b.rows
        .iter()
        .find(|r| r.mode == mode && r.offered_x == x)
        .map(|r| r.goodput_per_sec)
}

/// The graceful-degradation gate. All thresholds are on *fresh*
/// measurements except the 2x/peak ratio, which is compared against the
/// baseline's (raw goodput is capacity-pinned but still jitters; the
/// shape of the curve is what the stack protects).
fn check(fresh: &OverloadBench, baseline_path: &str) -> Result<(), String> {
    let peak = fresh
        .rows
        .iter()
        .filter(|r| r.mode == "controlled")
        .map(|r| r.goodput_per_sec)
        .fold(0.0, f64::max);
    let c2 =
        goodput(fresh, "controlled", 2.0).ok_or_else(|| "missing controlled 2x row".to_string())?;
    let a2 = goodput(fresh, "ablated", 2.0).ok_or_else(|| "missing ablated 2x row".to_string())?;
    println!("check: controlled peak={peak:.1}/s, controlled@2x={c2:.1}/s, ablated@2x={a2:.1}/s");
    if peak <= 0.0 {
        return Err("controlled goodput is zero at every offered load".into());
    }
    if c2 < 0.5 * peak {
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
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let baseline: OverloadBench =
        serde_json::from_str(&text).map_err(|e| format!("cannot parse {baseline_path}: {e:?}"))?;
    if baseline.quick != fresh.quick {
        return Err(format!(
            "baseline was recorded with quick={} but this run used quick={} — \
             re-record the baseline in the same mode",
            baseline.quick, fresh.quick
        ));
    }
    let b_peak = baseline
        .rows
        .iter()
        .filter(|r| r.mode == "controlled")
        .map(|r| r.goodput_per_sec)
        .fold(0.0, f64::max);
    if let Some(b2) = goodput(&baseline, "controlled", 2.0) {
        if b_peak > 0.0 && b2 > 0.0 {
            let (ratio, b_ratio) = (c2 / peak, b2 / b_peak);
            let floor = b_ratio * 0.75;
            println!(
                "check baseline: 2x/peak = {b_ratio:.2} (floor {floor:.2}), fresh = {ratio:.2}"
            );
            if ratio < floor {
                return Err(format!(
                    "degradation ratio {ratio:.2} regressed >25% below baseline {b_ratio:.2}"
                ));
            }
        }
    }
    Ok(())
}

fn main() {
    let mut quick = false;
    let mut json_path = "BENCH_overload.json".to_string();
    let mut check_path: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match (args[i].as_str(), args.get(i + 1)) {
            ("--help", _) | ("-h", _) => {
                println!("{HELP}");
                return;
            }
            ("--quick", _) => {
                quick = true;
                i += 1;
            }
            ("--json", Some(v)) => {
                json_path = v.clone();
                i += 2;
            }
            ("--check", Some(v)) => {
                check_path = Some(v.clone());
                i += 2;
            }
            (other, _) => {
                eprintln!("unknown argument {other} (try --help)");
                std::process::exit(2);
            }
        }
    }
    println!(
        "overload_bench: {CLIENTS} open-loop clients vs a {CAPACITY:.0} ops/s shard, \
         SLO {}ms, offered {:?}x{}",
        Duration::from(SLO).as_millis(),
        OFFERED,
        if quick { " (quick)" } else { "" },
    );
    let fresh = measure(quick);
    match check_path {
        Some(path) => {
            if let Err(first) = check(&fresh, &path) {
                // One retry: open-loop goodput on a loaded CI host can be
                // unlucky; a real regression fails twice.
                eprintln!("overload_bench --check below floor ({first}); re-measuring once");
                let again = measure(quick);
                if let Err(e) = check(&again, &path) {
                    eprintln!("overload_bench --check FAILED: {e}");
                    std::process::exit(1);
                }
            }
            println!("overload_bench --check OK");
        }
        None => match serde_json::to_string_pretty(&fresh) {
            Ok(s) => {
                if let Err(e) = std::fs::write(&json_path, s + "\n") {
                    eprintln!("warning: cannot write {json_path}: {e}");
                } else {
                    println!("wrote {json_path}");
                }
            }
            Err(e) => eprintln!("warning: cannot serialize sweep: {e:?}"),
        },
    }
}
