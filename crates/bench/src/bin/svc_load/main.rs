//! Closed-loop load generator for the `lease-svc` runtime.
//!
//! For each shard count (1, 2, 4, 8 by default) this spawns a sharded
//! lease service over in-memory storage and drives it two ways:
//!
//! * **per-op** (`batch=1`): closed-loop client threads issuing one
//!   fetch (plus an occasional write, exercising the approval round trip
//!   and cross-shard write-id translation) and waiting for its reply —
//!   the pre-batching submission path, kept as the latency-oriented
//!   baseline;
//! * **batched** (`batch=N`): windowed pipelined clients that stage `N`
//!   ops into a [`BatchBuf`], submit them with one routing pass and one
//!   lane publish per touched shard (`try_send_batch`), and keep
//!   `batch × 2 × shards` ops in flight — the throughput path the
//!   sharded service is built around.
//!
//! Replies come back over the service's per-(shard→client) SPSC ring
//! lanes with coalesced doorbells; every row also records **wakes/op** —
//! futex-backed doorbell wakeups per completed op — the figure the
//! coalesced flush is built to collapse.
//!
//! It reports sustained ops/sec, grants/sec and p50/p95/p99 op latency
//! per row. Results are written to `BENCH_svc.json` so future PRs can
//! diff the sweep against a recorded baseline, and `--check PATH` turns
//! the sweep into a regression gate (see `--help`).
//!
//! Flags (see `--help`) take precedence over the environment knobs:
//!
//! | variable             | meaning                              | default   |
//! |----------------------|--------------------------------------|-----------|
//! | `LEASE_LOAD_MS`      | measured window per configuration    | 1000      |
//! | `LEASE_LOAD_CLIENTS` | closed-loop client threads           | 4         |
//! | `LEASE_LOAD_FILES`   | distinct resources                   | 256       |
//! | `LEASE_LOAD_SHARDS`  | comma-separated shard counts         | 1,2,4,8   |
//! | `LEASE_LOAD_BATCH`   | client batch size for batched rows   | 32        |

mod net;

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lease_bench::percentile;
use lease_bench::sweep::{parse_threads, pin_to_core};
use lease_clock::Dur;
use lease_core::{
    ClientId, LeaseServer, MemStorage, ReqId, ServerConfig, Storage, ToClient, ToServer,
};
use lease_svc::{
    BatchBuf, Egress, EgressRx, EgressSink, FaultPlan, LeaseService, OverloadPlan, SvcConfig,
    SvcHandle, SvcHooks,
};

type R = u64;
type D = u64;

const HELP: &str = "\
svc_load: closed-loop load generator for the sharded lease service

  --threads N     closed-loop client threads; `auto` detects the host's
                  parallelism (default: 4, or LEASE_LOAD_CLIENTS)
  --shards LIST   comma-separated shard counts to sweep (default 1,2,4,8)
  --ms N          measured window per configuration in ms (default 1000)
  --files N       distinct resources (default 256)
  --batch N       client batch size for the batched rows (default 32)
  --open-loop R   open-loop mode: replace the closed-loop rows with one
                  row per shard count driving Poisson arrivals at R
                  ops/sec total (split across clients), submitted with
                  try_send — arrivals the mailboxes refuse are dropped,
                  and latency is measured from the *intended* arrival
                  instant. Rows are marked batch=0; not compatible with
                  --check (the scaling gate needs the batched rows).
                  Env: LEASE_LOAD_RATE. Skips the scaling section.
  --scale LIST    shard counts for the core-pinned scaling curve
                  (default 1,2,4,8; `none` disables the section). Each
                  scaling row pins shard workers to cores 0..s
                  (SvcConfig::pin) and clients to the cores after them,
                  so on a multi-core host the curve measures true
                  per-core speedup rather than scheduler luck.
  --net           multi-process loopback mode: spawn one server process
                  (the sharded service behind lease-net's TCP transport)
                  and --threads generator processes hammering it over
                  127.0.0.1 with lease-wire frames, then measure the
                  same-run in-process batched ring row and an inline
                  codec microbench for comparison. Uses the *first*
                  --shards value, writes BENCH_net.json (see --json),
                  and gates with --check against a BENCH_net baseline
                  (mode-matched quick/full; wire/in-process ratio >=
                  max(0.5, 75% of baseline); decode >= 5M msgs/s).
  --quick         with --net: a short (300ms) window, recorded with
                  mode=quick so full baselines never gate quick runs
                  (and vice versa).
  --json PATH     where to write the sweep results (default BENCH_svc.json)
  --check PATH    measure, then gate against the baseline at PATH instead
                  of writing. Fails unless batched ops/s at shards=4
                  beats shards=1, and unless the fresh s4/s1 ratios are
                  within 25% of the baseline's — compared same-mode
                  (per-op against per-op, batched against batched). A
                  baseline of another schema is refused by name. On a
                  host with >= 4 cores the pinned scaling curve must also
                  show batched s4 >= 2x batched s1; on smaller hosts that
                  gate is skipped with a visible notice. One re-measure
                  before failing.
  --help          this text

Client threads are pinned round-robin across cores (best effort, Linux
only) so the sweep measures shard *speedup* on multi-core hosts. On a
single hardware thread the per-op rows land within ~1.2x of each other
(one worker futex wake per op that a single shard amortizes across
clients); the batched rows still scale with shards there because the
in-flight window — and so the work a shard drains per wakeup — grows
with the shard count.";

/// One client's replies: its adopted SPSC egress lanes, drained in bulk
/// and handed to the client loops one message at a time.
struct Replies {
    lanes: EgressRx<R, D>,
    /// Drained-but-undelivered messages.
    q: VecDeque<ToClient<R, D>>,
    scratch: Vec<ToClient<R, D>>,
    /// Spin briefly before parking (multicore hosts only — on one core
    /// spinning just steals the shard worker's timeslice).
    spin: u32,
}

impl Replies {
    fn new(lanes: EgressRx<R, D>) -> Replies {
        let multicore = std::thread::available_parallelism().map_or(1, |n| n.get()) > 1;
        Replies {
            lanes,
            q: VecDeque::new(),
            scratch: Vec::new(),
            spin: if multicore { 256 } else { 0 },
        }
    }

    /// Blocking receive with a deadline: drains the lanes with the
    /// ticket-before-final-poll spin-then-park loop; `None` on timeout
    /// (lanes cannot disconnect mid-run; the service outlives every
    /// measuring client).
    fn recv_timeout(&mut self, timeout: Duration) -> Option<ToClient<R, D>> {
        if let Some(m) = self.q.pop_front() {
            return Some(m);
        }
        let deadline = Instant::now() + timeout;
        loop {
            let ticket = self.lanes.bell().ticket();
            let mut found = self.lanes.drain_into(&mut self.scratch, 1024) > 0;
            for _ in 0..self.spin {
                if found {
                    break;
                }
                std::hint::spin_loop();
                found = self.lanes.drain_into(&mut self.scratch, 1024) > 0;
            }
            if found {
                self.q.extend(self.scratch.drain(..));
                return self.q.pop_front();
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            self.lanes.bell().wait(ticket, deadline - now);
        }
    }

    /// Non-blocking receive.
    fn try_recv(&mut self) -> Option<ToClient<R, D>> {
        if self.q.is_empty() && self.lanes.drain_into(&mut self.scratch, 1024) > 0 {
            self.q.extend(self.scratch.drain(..));
        }
        self.q.pop_front()
    }
}

/// Deterministic per-client LCG so runs are comparable.
fn rng_seed(id: ClientId) -> u64 {
    0x9e37_79b9_7f4a_7c15 ^ (u64::from(id.0)).wrapping_mul(0xbf58_476d_1ce4_e5b9)
}

fn rng_next(rng: &mut u64) -> u64 {
    *rng = rng
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *rng
}

/// One closed-loop client: send an op, wait for its reply, repeat.
/// Returns per-op latencies in nanoseconds.
fn client_loop(
    id: ClientId,
    core: usize,
    handle: SvcHandle<R, D>,
    mut replies: Replies,
    files: u64,
    stop: Arc<AtomicBool>,
) -> Vec<u64> {
    pin_to_core(core);
    let mut rng = rng_seed(id);
    let mut next_req: u64 = 1;
    let mut latencies = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        let resource = (rng_next(&mut rng) >> 33) % files;
        let req = ReqId(next_req);
        next_req += 1;
        let msg = if next_req.is_multiple_of(32) {
            ToServer::Write {
                req,
                resource,
                data: next_req,
            }
        } else {
            ToServer::Fetch {
                req,
                resource,
                cached: None,
                also_extend: Vec::new(),
            }
        };
        let t0 = Instant::now();
        if handle.send(id, msg).is_err() {
            break;
        }
        // Closed loop: wait for this op's reply, approving any write
        // callbacks that arrive meanwhile (other clients' writes cannot
        // commit without our approval).
        loop {
            let Some(m) = replies.recv_timeout(Duration::from_secs(5)) else {
                return latencies;
            };
            match m {
                // A fetch may be answered in parts (the cross-shard split,
                // or a write-blocked target); done once the target resource
                // is granted.
                ToClient::Grants { req: r, grants }
                    if r == req && grants.iter().any(|g| g.resource == resource) =>
                {
                    break;
                }
                ToClient::WriteDone { req: r, .. } if r == req => break,
                ToClient::ApprovalRequest { write_id, .. } => {
                    let _ = handle.send(id, ToServer::Approve { write_id });
                }
                _ => {}
            }
        }
        latencies.push(t0.elapsed().as_nanos() as u64);
    }
    // Grace drain: peers may still be waiting on approvals from us for
    // their final in-flight write.
    let grace = Instant::now();
    while grace.elapsed() < Duration::from_millis(100) {
        if let Some(ToClient::ApprovalRequest { write_id, .. }) =
            replies.recv_timeout(Duration::from_millis(20))
        {
            let _ = handle.send(id, ToServer::Approve { write_id });
        }
    }
    latencies
}

/// One windowed pipelined client: keep `batch × 2 × shards` ops in
/// flight, staging `batch` at a time into a [`BatchBuf`] and submitting
/// each buffer with a single `try_send_batch`. Refused messages stay in
/// the buffer and are resubmitted after draining replies (the same
/// pacing lease-rt applies on `RetryAfter`). Latency is measured from
/// staging, so it includes time spent queued in the buffer and window.
#[allow(clippy::too_many_arguments)] // one knob per argument
fn client_loop_batched(
    id: ClientId,
    core: usize,
    handle: SvcHandle<R, D>,
    mut replies: Replies,
    files: u64,
    stop: Arc<AtomicBool>,
    batch: usize,
    shards: usize,
) -> Vec<u64> {
    pin_to_core(core);
    // Per-shard pipeline depth is constant, so the aggregate window (and
    // the work a shard drains per wakeup) grows with the shard count.
    let window = batch * 2 * shards;
    let mut rng = rng_seed(id);
    let mut next_req: u64 = 1;
    let mut latencies = Vec::new();
    // In-flight ops: req id -> (staged-at, target resource).
    let mut pending: HashMap<u64, (Instant, u64)> = HashMap::new();
    let mut buf: BatchBuf<R, D> = BatchBuf::new();
    // After `stop`, drain what is in flight (bounded) so the final
    // window's writes can still collect their approvals.
    let mut drain_until: Option<Instant> = None;
    loop {
        let stopping = stop.load(Ordering::Relaxed);
        if stopping {
            if pending.is_empty() {
                break;
            }
            let deadline =
                *drain_until.get_or_insert_with(|| Instant::now() + Duration::from_secs(2));
            if Instant::now() >= deadline {
                break;
            }
        } else {
            // Refill the pipeline up to the window, one batch at a time.
            while buf.len() < batch && buf.len() + pending.len() < window {
                let resource = (rng_next(&mut rng) >> 33) % files;
                let req = next_req;
                next_req += 1;
                let msg = if next_req.is_multiple_of(32) {
                    ToServer::Write {
                        req: ReqId(req),
                        resource,
                        data: next_req,
                    }
                } else {
                    ToServer::Fetch {
                        req: ReqId(req),
                        resource,
                        cached: None,
                        also_extend: Vec::new(),
                    }
                };
                pending.insert(req, (Instant::now(), resource));
                buf.push(id, msg);
            }
        }
        // One routing pass, one lane publish per touched shard; what
        // the lanes refuse stays in `buf` for the next pass.
        if !buf.is_empty() && handle.try_send_batch(&mut buf).is_err() {
            return latencies;
        }
        // Drain replies: block for one, then sweep the queue dry.
        let Some(first) =
            replies.recv_timeout(Duration::from_millis(if stopping { 20 } else { 5000 }))
        else {
            continue;
        };
        let mut next = Some(first);
        while let Some(m) = next {
            match m {
                ToClient::Grants { req, grants } => {
                    if let Some((t0, resource)) = pending.get(&req.0).copied() {
                        if grants.iter().any(|g| g.resource == resource) {
                            pending.remove(&req.0);
                            latencies.push(t0.elapsed().as_nanos() as u64);
                        }
                    }
                }
                ToClient::WriteDone { req, .. } => {
                    if let Some((t0, _)) = pending.remove(&req.0) {
                        latencies.push(t0.elapsed().as_nanos() as u64);
                    }
                }
                ToClient::ApprovalRequest { write_id, .. } => {
                    // Approvals ride the next batch; they must not wait
                    // for the window (a peer's write is blocked on them).
                    buf.push(id, ToServer::Approve { write_id });
                }
                _ => {}
            }
            next = replies.try_recv();
        }
    }
    // Grace drain: peers may still be waiting on approvals from us.
    let grace = Instant::now();
    while grace.elapsed() < Duration::from_millis(100) {
        if let Some(ToClient::ApprovalRequest { write_id, .. }) =
            replies.recv_timeout(Duration::from_millis(20))
        {
            let _ = handle.send(id, ToServer::Approve { write_id });
        }
    }
    latencies
}

/// One open-loop client: fire fetches (and the occasional write) at
/// deterministic Poisson arrival instants at `rate` ops/sec, whether or
/// not earlier ops have completed, draining replies between arrivals.
/// Arrivals the mailbox refuses (`try_send` backpressure) are dropped on
/// the floor — open loop means the generator does not slow down — and
/// latency is measured from the *intended* arrival instant, so queueing
/// delay under overload is visible instead of throttling the offered
/// load. Returns per-op latencies in nanoseconds.
fn client_loop_open(
    id: ClientId,
    core: usize,
    handle: SvcHandle<R, D>,
    mut replies: Replies,
    files: u64,
    stop: Arc<AtomicBool>,
    rate: f64,
) -> Vec<u64> {
    pin_to_core(core);
    let mut arr = FaultPlan::new(rng_seed(id))
        .with_overload(OverloadPlan {
            base_rate: rate,
            burst_rate: rate,
            burst_at: Dur::ZERO,
            burst_len: Dur::ZERO,
            herd: false,
        })
        .arrivals(u64::from(id.0))
        .expect("overload plan");
    let mut rng = rng_seed(id);
    let mut next_req: u64 = 1;
    let mut latencies = Vec::new();
    // In-flight ops: req id -> (intended arrival, target resource).
    let mut pending: HashMap<u64, (Instant, u64)> = HashMap::new();
    let start = Instant::now();
    let mut drain_until: Option<Instant> = None;
    loop {
        let stopping = stop.load(Ordering::Relaxed);
        if stopping {
            if pending.is_empty()
                || Instant::now()
                    >= *drain_until.get_or_insert_with(|| Instant::now() + Duration::from_secs(2))
            {
                break;
            }
        } else {
            let at = Duration::from(arr.next_at());
            // Drain replies until the next arrival instant.
            loop {
                let now = start.elapsed();
                if now >= at {
                    break;
                }
                if let Some(m) = replies.recv_timeout((at - now).min(Duration::from_millis(1))) {
                    drain_open(&handle, id, m, &mut pending, &mut latencies);
                }
            }
            let resource = (rng_next(&mut rng) >> 33) % files;
            let req = next_req;
            next_req += 1;
            let msg = if next_req.is_multiple_of(32) {
                ToServer::Write {
                    req: ReqId(req),
                    resource,
                    data: next_req,
                }
            } else {
                ToServer::Fetch {
                    req: ReqId(req),
                    resource,
                    cached: None,
                    also_extend: Vec::new(),
                }
            };
            if handle.try_send(id, msg).is_ok() {
                pending.insert(req, (start + at, resource));
            }
            continue;
        }
        if let Some(m) = replies.recv_timeout(Duration::from_millis(20)) {
            drain_open(&handle, id, m, &mut pending, &mut latencies);
        }
    }
    latencies
}

/// Handles one reply in the open loop: completions are timed from the
/// intended arrival instant; approval requests are answered immediately
/// (a peer's write is blocked on them).
fn drain_open(
    handle: &SvcHandle<R, D>,
    id: ClientId,
    m: ToClient<R, D>,
    pending: &mut HashMap<u64, (Instant, u64)>,
    latencies: &mut Vec<u64>,
) {
    match m {
        ToClient::Grants { req, grants } => {
            if let Some(&(t0, resource)) = pending.get(&req.0) {
                if grants.iter().any(|g| g.resource == resource) {
                    pending.remove(&req.0);
                    latencies.push(t0.elapsed().as_nanos() as u64);
                }
            }
        }
        ToClient::WriteDone { req, .. } => {
            if let Some((t0, _)) = pending.remove(&req.0) {
                latencies.push(t0.elapsed().as_nanos() as u64);
            }
        }
        ToClient::Error { req, .. } => {
            pending.remove(&req.0);
        }
        ToClient::ApprovalRequest { write_id, .. } => {
            let _ = handle.try_send(id, ToServer::Approve { write_id });
        }
        _ => {}
    }
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The schema this binary writes and the only one `--check` reads.
const SCHEMA: &str = "lease-bench/BENCH_svc/v5";

/// One row of the sweep, as printed and as recorded in `BENCH_svc.json`.
/// `batch == 1` rows come from the per-op closed loop; larger batches
/// from the windowed pipelined loop. `wakes_per_op` is the futex-backed
/// doorbell wakeups per completed op.
#[derive(serde::Serialize, serde::Deserialize)]
struct SweepRow {
    shards: usize,
    batch: usize,
    ops: u64,
    ops_per_sec: f64,
    grants_per_sec: f64,
    wakes_per_op: f64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
}

/// The core-pinned scaling-curve section: the same
/// per-op and batched rows, but with shard workers pinned to cores
/// `0..s` and clients to the cores after them. `cores` records the
/// host's parallelism so a reader (and the `--check` gate) knows
/// whether the curve had real cores to scale across.
#[derive(serde::Serialize, serde::Deserialize)]
struct ScalingCurve {
    cores: usize,
    rows: Vec<SweepRow>,
}

#[derive(serde::Serialize, serde::Deserialize)]
struct SvcBench {
    schema: String,
    clients: u32,
    files: u64,
    window_ms: u64,
    rows: Vec<SweepRow>,
    /// Absent in `--open-loop` mode.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    scaling: Option<ScalingCurve>,
}

/// Runs one configuration. `batch == 1` uses the per-op closed loop,
/// larger batches the windowed pipelined loop; `open_loop = Some(rate)`
/// instead drives Poisson arrivals at `rate` ops/sec split across the
/// clients (the row is marked `batch = 0`). With `pin`, shard workers
/// are pinned to cores `0..shards` and clients to the cores after them
/// (the scaling-curve placement); without it, clients pin round-robin
/// from core 0 and workers float, as the main sweep always has.
fn run_config(
    shards: usize,
    clients: u32,
    files: u64,
    window: Duration,
    batch: usize,
    open_loop: Option<f64>,
    pin: bool,
) -> SweepRow {
    // Open-loop rows are tagged batch=0 in the sweep output.
    let batch = if open_loop.is_some() { 0 } else { batch };
    let egress: Egress<R, D> = Egress::new(clients as usize, 1024);
    let replies: Vec<Replies> = (0..clients as usize)
        .map(|i| Replies::new(egress.rx(i)))
        .collect();
    let base = SvcConfig::default();
    let service = LeaseService::spawn(
        SvcConfig {
            shards,
            // Let a worker drain a whole client sub-batch per wakeup.
            batch: base.batch.max(batch * 2),
            pin: pin.then_some(0),
            ..base
        },
        Arc::new(EgressSink::new(egress.clone())),
        SvcHooks::default(),
        move |_| {
            // Every shard preloads the full set; the router only sends a
            // shard its own partition, so the copies never disagree.
            let mut store: MemStorage<R, D> = MemStorage::new();
            for r in 0..files {
                store.insert(r, r);
            }
            (
                LeaseServer::new(ServerConfig::fixed(Dur::from_secs(5))),
                Box::new(store) as Box<dyn Storage<R, D> + Send>,
            )
        },
    );
    let handle = service.handle();
    let stop = Arc::new(AtomicBool::new(false));
    let t0 = Instant::now();
    let workers: Vec<_> = replies
        .into_iter()
        .enumerate()
        .map(|(i, replies)| {
            let handle = handle.clone();
            let stop = stop.clone();
            // Pinned (scaling) runs give workers cores 0..shards and put
            // clients on the cores after them, so neither side evicts
            // the other on a host with enough cores.
            let core = if pin { shards + i } else { i };
            std::thread::spawn(move || {
                let id = ClientId(i as u32);
                if let Some(rate) = open_loop {
                    client_loop_open(
                        id,
                        core,
                        handle,
                        replies,
                        files,
                        stop,
                        rate / f64::from(clients),
                    )
                } else if batch > 1 {
                    client_loop_batched(id, core, handle, replies, files, stop, batch, shards)
                } else {
                    client_loop(id, core, handle, replies, files, stop)
                }
            })
        })
        .collect();
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    let elapsed = t0.elapsed();
    let mut lats: Vec<u64> = Vec::new();
    for w in workers {
        lats.extend(w.join().expect("client thread"));
    }
    let grants = service
        .stats()
        .map(|s| s.counters.grants)
        .unwrap_or_default();
    service.shutdown();
    lats.sort_unstable();
    let ops = lats.len() as u64;
    let row = SweepRow {
        shards,
        batch,
        ops,
        ops_per_sec: ops as f64 / elapsed.as_secs_f64(),
        grants_per_sec: grants as f64 / elapsed.as_secs_f64(),
        wakes_per_op: egress.wakes() as f64 / ops.max(1) as f64,
        p50_us: percentile(&lats, 0.50) / 1_000,
        p95_us: percentile(&lats, 0.95) / 1_000,
        p99_us: percentile(&lats, 0.99) / 1_000,
    };
    println!(
        "shards={:<2} batch={:<3} ops={:>8} ops/s={:>8.0} grants/s={:>8.0} p50={:>5}us p95={:>5}us p99={:>5}us wakes/op={:.3}{}",
        row.shards,
        row.batch,
        row.ops,
        row.ops_per_sec,
        row.grants_per_sec,
        row.p50_us,
        row.p95_us,
        row.p99_us,
        row.wakes_per_op,
        if pin { " [pinned]" } else { "" },
    );
    row
}

struct Opts {
    window: Duration,
    clients: u32,
    files: u64,
    batch: usize,
    shard_counts: Vec<usize>,
    scale_counts: Vec<usize>,
    open_loop: Option<f64>,
}

/// Runs the full sweep: per shard count, a per-op and a batched row — or
/// one open-loop row per shard count in `--open-loop` mode — followed by
/// the core-pinned scaling curve over `scale_counts`.
fn measure(o: &Opts) -> SvcBench {
    let sweep = |counts: &[usize], pin: bool| -> Vec<SweepRow> {
        let mut rows = Vec::new();
        for &s in counts {
            let run = |batch| run_config(s, o.clients, o.files, o.window, batch, o.open_loop, pin);
            if o.open_loop.is_some() {
                rows.push(run(0));
            } else {
                rows.push(run(1));
                rows.push(run(o.batch));
            }
        }
        rows
    };
    let rows = sweep(&o.shard_counts, false);
    let scaling = if o.open_loop.is_none() && !o.scale_counts.is_empty() {
        let cores = lease_bench::sweep::available_cores();
        println!("scaling curve ({cores} cores, workers pinned 0..s, clients after):");
        Some(ScalingCurve {
            cores,
            rows: sweep(&o.scale_counts, true),
        })
    } else {
        None
    };
    SvcBench {
        schema: SCHEMA.to_string(),
        clients: o.clients,
        files: o.files,
        window_ms: o.window.as_millis() as u64,
        rows,
        scaling,
    }
}

/// Ops/s of the row at `shards` in the given mode (batched rows never
/// compare against per-op rows).
fn mode_ops(rows: &[SweepRow], shards: usize, batched: bool) -> Option<f64> {
    rows.iter()
        .find(|r| r.shards == shards && (r.batch > 1) == batched)
        .map(|r| r.ops_per_sec)
}

/// The s4/s1 throughput ratio in one mode, when both rows are present.
fn mode_ratio(rows: &[SweepRow], batched: bool) -> Option<f64> {
    Some(mode_ops(rows, 4, batched)? / mode_ops(rows, 1, batched)?)
}

/// The scaling gate. Always: batched throughput at 4 shards must
/// strictly beat 1 shard, and the fresh s4/s1 ratio in *each* mode
/// (per-op, batched) must sit within 25% of the same mode's ratio in the
/// checked-in baseline (raw ops/s is machine-dependent; the per-mode
/// ratio is what the message path is supposed to protect). A baseline of
/// any other schema is refused by name: re-record it with this binary.
/// On a host with >= 4 cores the pinned scaling curve must additionally
/// show batched s4 >= 2x batched s1; on smaller hosts that gate is
/// skipped with a visible notice.
fn check(fresh: &SvcBench, baseline_path: &str) -> Result<(), String> {
    let (s1, s4) = match (
        mode_ops(&fresh.rows, 1, true),
        mode_ops(&fresh.rows, 4, true),
    ) {
        (Some(s1), Some(s4)) => (s1, s4),
        _ => return Err("check needs batched rows for shards=1 and shards=4".into()),
    };
    println!(
        "check scaling: batched s4/s1 = {:.2}x ({s4:.0} vs {s1:.0} ops/s)",
        s4 / s1
    );
    if s4 <= s1 {
        return Err(format!(
            "batched ops/s did not scale: shards=4 ({s4:.0}) <= shards=1 ({s1:.0})"
        ));
    }
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e} [no-retry]"))?;
    let schema = serde_json::from_str::<SchemaTag>(&text)
        .map_err(|e| format!("cannot parse {baseline_path}: {e:?} [no-retry]"))?
        .schema;
    if schema != SCHEMA {
        return Err(format!(
            "baseline {baseline_path} has schema `{schema}` but this binary reads `{SCHEMA}`; \
             re-record it with `svc_load --json {baseline_path}` [no-retry]"
        ));
    }
    let baseline: SvcBench = serde_json::from_str(&text)
        .map_err(|e| format!("cannot parse {baseline_path}: {e:?} [no-retry]"))?;
    // Same-mode ratio comparison, for the main rows and (when both the
    // fresh run and the baseline recorded one) the pinned scaling curve.
    // The scaling section only gates when both recordings had >= 2 cores:
    // on one core pinning is a no-op, so those rows measure scheduler
    // luck with wide run-to-run variance — the main rows gate instead.
    let scaling_cores = |b: &SvcBench| b.scaling.as_ref().map_or(0, |s| s.cores);
    let scaling_gated = scaling_cores(fresh) >= 2 && scaling_cores(&baseline) >= 2;
    if !scaling_gated && fresh.scaling.is_some() && baseline.scaling.is_some() {
        println!(
            "check scaling section: informational only ({} fresh / {} baseline cores, need >= 2 to gate)",
            scaling_cores(fresh),
            scaling_cores(&baseline)
        );
    }
    fn scaling_rows(b: &SvcBench, gated: bool) -> Option<&[SweepRow]> {
        b.scaling.as_ref().filter(|_| gated).map(|s| &s.rows[..])
    }
    type Section<'a> = (&'a str, Option<&'a [SweepRow]>, Option<&'a [SweepRow]>);
    let sections: [Section<'_>; 2] = [
        ("rows", Some(&fresh.rows[..]), Some(&baseline.rows[..])),
        (
            "scaling",
            scaling_rows(fresh, scaling_gated),
            scaling_rows(&baseline, scaling_gated),
        ),
    ];
    for (section, fresh_rows, base_rows) in sections {
        let (Some(fresh_rows), Some(base_rows)) = (fresh_rows, base_rows) else {
            continue;
        };
        for (kind, batched) in [("per-op", false), ("batched", true)] {
            let (Some(ratio), Some(b_ratio)) = (
                mode_ratio(fresh_rows, batched),
                mode_ratio(base_rows, batched),
            ) else {
                continue;
            };
            let floor = b_ratio * 0.75;
            println!(
                "check {section}/{kind}: s4/s1 = {ratio:.2}x, baseline {b_ratio:.2}x (floor {floor:.2}x)"
            );
            if ratio < floor {
                return Err(format!(
                    "{section}/{kind} s4/s1 ratio {ratio:.2}x regressed >25% below baseline {b_ratio:.2}x"
                ));
            }
        }
    }
    // The multicore gate: with >= 4 real cores and pinned workers, the
    // batched path must scale at least 2x from 1 shard to 4.
    match fresh.scaling.as_ref() {
        Some(curve) if curve.cores >= 4 => {
            let Some(ratio) = mode_ratio(&curve.rows, true) else {
                return Err("scaling curve lacks batched rows for shards=1 and shards=4".into());
            };
            println!(
                "check multicore gate ({} cores): pinned batched s4/s1 = {ratio:.2}x (need >= 2x)",
                curve.cores
            );
            if ratio < 2.0 {
                return Err(format!(
                    "pinned batched s4/s1 = {ratio:.2}x on a {}-core host (need >= 2x)",
                    curve.cores
                ));
            }
        }
        Some(curve) => println!(
            "check multicore gate SKIPPED: only {} core(s), need >= 4 for the 2x batched s4/s1 gate",
            curve.cores
        ),
        None => println!("check multicore gate SKIPPED: no scaling curve in this run (--scale none)"),
    }
    Ok(())
}

/// Just the schema tag of a baseline file, read before committing to its
/// row layout.
#[derive(serde::Deserialize)]
struct SchemaTag {
    schema: String,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The hidden multi-process roles parse their own flags.
    match args.first().map(String::as_str) {
        Some("--net-server") => return net::run_server_cli(&args[1..]),
        Some("--net-gen") => return net::run_gen_cli(&args[1..]),
        _ => {}
    }

    let mut window = Duration::from_millis(env_u64("LEASE_LOAD_MS", 1_000));
    let mut ms_set = std::env::var("LEASE_LOAD_MS").is_ok();
    let mut clients = env_u64("LEASE_LOAD_CLIENTS", 4) as u32;
    let mut files = env_u64("LEASE_LOAD_FILES", 256);
    let mut batch = env_u64("LEASE_LOAD_BATCH", 32) as usize;
    let mut open_loop: Option<f64> = std::env::var("LEASE_LOAD_RATE")
        .ok()
        .and_then(|v| v.parse().ok());
    let mut shard_list = std::env::var("LEASE_LOAD_SHARDS").unwrap_or_else(|_| "1,2,4,8".into());
    let mut scale_list = std::env::var("LEASE_LOAD_SCALE").unwrap_or_else(|_| "1,2,4,8".into());
    let mut json_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut net_mode = false;
    let mut quick = false;

    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1);
        match (args[i].as_str(), value) {
            ("--help", _) | ("-h", _) => {
                println!("{HELP}");
                return;
            }
            ("--threads", Some(v)) => {
                clients = parse_threads(v).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                }) as u32;
                i += 2;
            }
            ("--shards", Some(v)) => {
                shard_list = v.clone();
                i += 2;
            }
            ("--scale", Some(v)) => {
                scale_list = v.clone();
                i += 2;
            }
            ("--ms", Some(v)) => {
                window = Duration::from_millis(v.parse().unwrap_or(1_000));
                ms_set = true;
                i += 2;
            }
            ("--net", _) => {
                net_mode = true;
                i += 1;
            }
            ("--quick", _) => {
                quick = true;
                i += 1;
            }
            ("--files", Some(v)) => {
                files = v.parse().unwrap_or(256);
                i += 2;
            }
            ("--batch", Some(v)) => {
                batch = v.parse::<usize>().unwrap_or(32).max(2);
                i += 2;
            }
            ("--open-loop", Some(v)) => {
                match v.parse::<f64>() {
                    Ok(r) if r > 0.0 => open_loop = Some(r),
                    _ => {
                        eprintln!("--open-loop needs a positive ops/sec rate, got {v}");
                        std::process::exit(2);
                    }
                }
                i += 2;
            }
            ("--json", Some(v)) => {
                json_path = Some(v.clone());
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

    if net_mode {
        if open_loop.is_some() {
            eprintln!("--net drives its own closed-loop generators; drop --open-loop");
            std::process::exit(2);
        }
        let shards = shard_list
            .split(',')
            .filter_map(|s| s.trim().parse::<usize>().ok())
            .map(|s| s.max(1))
            .next()
            .unwrap_or(1);
        if !ms_set {
            window = Duration::from_millis(if quick { 300 } else { 1_000 });
        }
        println!(
            "svc_load --net: {clients} generator processes, {shards} shard(s), {files} files, \
             batch {batch}, {}ms window, {} mode",
            window.as_millis(),
            if quick { "quick" } else { "full" },
        );
        net::run_net(&net::NetOpts {
            shards,
            gens: clients,
            files,
            window,
            batch,
            quick,
            json_path: json_path.unwrap_or_else(|| "BENCH_net.json".to_string()),
            check_path,
        });
        return;
    }
    let json_path = json_path.unwrap_or_else(|| "BENCH_svc.json".to_string());
    if open_loop.is_some() && check_path.is_some() {
        eprintln!("--check needs the closed-loop batched rows; drop --open-loop");
        std::process::exit(2);
    }
    let opts = Opts {
        window,
        clients,
        files,
        batch,
        open_loop,
        shard_counts: shard_list
            .split(',')
            .filter_map(|s| s.trim().parse::<usize>().ok())
            .map(|s| s.max(1))
            .collect(),
        scale_counts: if scale_list.trim() == "none" {
            Vec::new()
        } else {
            scale_list
                .split(',')
                .filter_map(|s| s.trim().parse::<usize>().ok())
                .map(|s| s.max(1))
                .collect()
        },
    };
    println!(
        "svc_load: {clients} {} clients, {files} files, batch {batch}, {}ms window per config ({} cores)",
        match open_loop {
            Some(r) => format!("open-loop ({r:.0} ops/s)"),
            None => "closed-loop".to_string(),
        },
        window.as_millis(),
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    );
    let fresh = measure(&opts);
    match check_path {
        Some(path) => {
            if let Err(first) = check(&fresh, &path) {
                if first.ends_with("[no-retry]") {
                    eprintln!("svc_load --check FAILED: {first}");
                    std::process::exit(1);
                }
                // One retry before failing: even batched-throughput
                // ratios can be unlucky on a loaded host.
                eprintln!("svc_load --check below floor ({first}); re-measuring once");
                let again = measure(&opts);
                if let Err(e) = check(&again, &path) {
                    eprintln!("svc_load --check FAILED: {e}");
                    std::process::exit(1);
                }
            }
            println!("svc_load --check OK");
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
