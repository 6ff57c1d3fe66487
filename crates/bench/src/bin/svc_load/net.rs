//! The multi-process loopback topology: `svc_load --net`.
//!
//! The parent re-executes itself into one **server** process (a sharded
//! `lease-svc` service behind `lease_net::NetServer`) and N **generator**
//! processes, each a windowed pipelined client — the same
//! batch/window/approval logic as the in-process batched loop, but every
//! submission crosses a real loopback socket as a `lease-wire` frame and
//! lost replies are recovered by plain retransmission (the §2 RPC
//! contract). The parent then measures the *in-process* batched ring row
//! in the same run and reports both, plus an inline codec microbench, in
//! `BENCH_net.json`:
//!
//! * `net` — merged ops/s and p50/p95/p99 over the wire, with
//!   syscalls/op and bytes/op from the server's transport counters;
//! * `inproc` — the same workload through `try_send_batch` directly;
//! * `ratio_net_vs_inproc` — the number the `--check` gate protects
//!   (floor: 75% of the baseline's ratio, and 0.5 absolute — the wire
//!   must stay within 2x of the ring path it wraps);
//! * `codec` — single-thread encode/decode msgs/s over a pre-built
//!   frame (floor: 5M msgs/s decoded).
//!
//! Baselines are mode-tagged (`quick`/`full`); a cross-mode `--check`
//! is refused naming both modes rather than comparing unlike windows.
//!
//! The hidden roles (`--net-server`, `--net-gen`) are also what the
//! multi-process chaos test drives: the server role can persist its max
//! granted term (`--term-file`, §5), append every commit to a log the
//! oracle merges (`--commit-log`), and timestamp those commits on a
//! shared unix-epoch clock (`--epoch-unix-ns`), so killing and
//! restarting the *process* is judged by the same consistency oracle as
//! the in-process chaos sweeps.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write as IoWrite};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use lease_clock::{Clock, Dur, SysClock, WallClock};
use lease_core::{
    ClientId, LeaseServer, MemStorage, ReqId, ServerConfig, Storage, ToClient, ToServer, Version,
};
use lease_net::tcp::FrameAccum;
use lease_net::{connect_as, NetServer};
use lease_svc::{Egress, EgressSink, LeaseService, SvcConfig, SvcHooks};
use lease_wire::{frame_messages, Dir, FrameBuilder, WireValue};

use crate::{rng_next, rng_seed, run_config, SweepRow, R};

/// How long a pending op may go unanswered before the generator
/// retransmits it (the socket analogue of the rt client's
/// `retry_interval`).
const RETRANSMIT_AFTER: Duration = Duration::from_millis(200);

/// What `svc_load --net` runs.
pub(crate) struct NetOpts {
    pub shards: usize,
    pub gens: u32,
    pub files: u64,
    pub window: Duration,
    pub batch: usize,
    pub quick: bool,
    pub json_path: String,
    pub check_path: Option<String>,
}

/// One measured wire-side row.
#[derive(serde::Serialize, serde::Deserialize)]
struct NetRow {
    ops: u64,
    ops_per_sec: f64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
    /// Server-side `read(2)` + `write(2)` calls per completed op.
    syscalls_per_op: f64,
    /// Server-side bytes in + out per completed op.
    bytes_per_op: f64,
    /// Wire messages in + out per completed op (requests, grants,
    /// approvals, retransmissions — the protocol's real message cost).
    wire_msgs_per_op: f64,
}

/// The server process's counters, as it prints them on exit.
#[derive(Default, serde::Serialize, serde::Deserialize)]
struct ServerSide {
    read_calls: u64,
    bytes_in: u64,
    msgs_in: u64,
    write_calls: u64,
    bytes_out: u64,
    msgs_out: u64,
    expired_at_door: u64,
    bad_frames: u64,
    grants: u64,
    expired_drops: u64,
}

/// Single-thread codec throughput over one pre-built frame.
#[derive(serde::Serialize, serde::Deserialize)]
struct CodecBench {
    encode_msgs_per_sec: f64,
    decode_msgs_per_sec: f64,
}

#[derive(serde::Serialize, serde::Deserialize)]
struct NetBench {
    schema: String,
    /// `quick` or `full` — `--check` refuses to compare across modes.
    mode: String,
    gens: u32,
    shards: usize,
    files: u64,
    batch: usize,
    window_ms: u64,
    net: NetRow,
    inproc: SweepRow,
    ratio_net_vs_inproc: f64,
    codec: CodecBench,
    server: ServerSide,
}

/// What one generator process prints as its `RESULT` line.
#[derive(serde::Serialize, serde::Deserialize)]
struct GenResult {
    /// Every completed op, including the post-window drain.
    ops: u64,
    elapsed_ns: u64,
    /// Ops completed inside the measured window and that window's exact
    /// span — the throughput basis.
    win_ops: u64,
    win_ns: u64,
    /// Sparse latency histogram: (microseconds, count), sorted.
    hist: Vec<(u64, u64)>,
    sheds: u64,
}

// ---------------------------------------------------------------------
// Parent: orchestrate, merge, gate.
// ---------------------------------------------------------------------

/// Entry point for `svc_load --net`: measure, then write or gate.
pub(crate) fn run_net(o: &NetOpts) {
    let fresh = measure_net(o);
    match &o.check_path {
        Some(path) => {
            if let Err(first) = check_net(&fresh, path) {
                if first.ends_with("[no-retry]") {
                    eprintln!("svc_load --net --check FAILED: {first}");
                    std::process::exit(1);
                }
                eprintln!("svc_load --net --check below floor ({first}); re-measuring once");
                let again = measure_net(o);
                if let Err(e) = check_net(&again, path) {
                    eprintln!("svc_load --net --check FAILED: {e}");
                    std::process::exit(1);
                }
            }
            println!("svc_load --net --check OK");
        }
        None => match serde_json::to_string_pretty(&fresh) {
            Ok(s) => {
                if let Err(e) = std::fs::write(&o.json_path, s + "\n") {
                    eprintln!("warning: cannot write {}: {e}", o.json_path);
                } else {
                    println!("wrote {}", o.json_path);
                }
            }
            Err(e) => eprintln!("warning: cannot serialize net bench: {e:?}"),
        },
    }
}

/// The gate. Mode-matched baselines only; the ratio floors are relative
/// (75% of baseline) plus the absolute bars the tentpole claims: wire
/// throughput >= 0.5x the same-run in-process row and decode >= 5M
/// msgs/s single-core.
fn check_net(fresh: &NetBench, baseline_path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e} [no-retry]"))?;
    let baseline: NetBench = serde_json::from_str(&text)
        .map_err(|e| format!("cannot parse {baseline_path}: {e:?} [no-retry]"))?;
    if baseline.mode != fresh.mode {
        // Refuse, naming both modes: a quick window and a full window
        // measure different steady states and must not gate each other.
        return Err(format!(
            "baseline {baseline_path} was recorded in `{}` mode but this run measured `{}` mode; \
             re-record the baseline in `{}` mode or rerun with matching flags [no-retry]",
            baseline.mode, fresh.mode, fresh.mode
        ));
    }
    let ratio = fresh.ratio_net_vs_inproc;
    let floor = (baseline.ratio_net_vs_inproc * 0.75).max(0.5);
    println!(
        "check net/inproc: {ratio:.2}x ({:.0} over the wire vs {:.0} in-process ops/s), \
         baseline {:.2}x (floor {floor:.2}x)",
        fresh.net.ops_per_sec, fresh.inproc.ops_per_sec, baseline.ratio_net_vs_inproc
    );
    if ratio < floor {
        return Err(format!(
            "wire throughput ratio {ratio:.2}x fell below floor {floor:.2}x \
             (baseline {:.2}x, absolute bar 0.5x)",
            baseline.ratio_net_vs_inproc
        ));
    }
    let dec = fresh.codec.decode_msgs_per_sec;
    println!(
        "check codec: decode {:.1}M msgs/s, encode {:.1}M msgs/s (floor 5M decode)",
        dec / 1e6,
        fresh.codec.encode_msgs_per_sec / 1e6
    );
    if dec < 5_000_000.0 {
        return Err(format!(
            "single-core decode throughput {:.1}M msgs/s below the 5M floor",
            dec / 1e6
        ));
    }
    if fresh.server.bad_frames > 0 {
        return Err(format!(
            "server counted {} corrupt frames on a clean loopback run [no-retry]",
            fresh.server.bad_frames
        ));
    }
    Ok(())
}

fn measure_net(o: &NetOpts) -> NetBench {
    let codec = codec_bench(o.batch);
    println!(
        "codec: encode {:.1}M msgs/s, decode {:.1}M msgs/s (single thread, {}-msg frames)",
        codec.encode_msgs_per_sec / 1e6,
        codec.decode_msgs_per_sec / 1e6,
        o.batch
    );

    let exe = std::env::current_exe().expect("current_exe");
    let mut server = Command::new(&exe)
        .args([
            "--net-server",
            "--shards",
            &o.shards.to_string(),
            "--files",
            &o.files.to_string(),
            "--clients",
            &o.gens.to_string(),
            "--batch",
            &o.batch.to_string(),
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn --net-server");
    let port = read_tagged_line(&mut server, "PORT ")
        .and_then(|s| s.parse::<u16>().ok())
        .expect("server must print its port");

    let gens: Vec<Child> = (0..o.gens)
        .map(|i| {
            Command::new(&exe)
                .args([
                    "--net-gen",
                    "--addr",
                    &format!("127.0.0.1:{port}"),
                    "--id",
                    &i.to_string(),
                    "--ms",
                    &o.window.as_millis().to_string(),
                    "--files",
                    &o.files.to_string(),
                    "--batch",
                    &o.batch.to_string(),
                    "--shards",
                    &o.shards.to_string(),
                ])
                .stdout(Stdio::piped())
                .spawn()
                .expect("spawn --net-gen")
        })
        .collect();

    // The aggregate rate sums each generator's own measured rate (its
    // ops over its own main-loop window): the generators run
    // concurrently, and the parent's clock would otherwise charge
    // process spawn, pipe draining, and the bounded post-window drain
    // against the throughput.
    let mut ops = 0u64;
    let mut rate = 0f64;
    let mut sheds = 0u64;
    let mut hist: HashMap<u64, u64> = HashMap::new();
    for mut g in gens {
        let r = read_tagged_line(&mut g, "RESULT ")
            .and_then(|s| serde_json::from_str::<GenResult>(&s).ok())
            .expect("generator must print a RESULT line");
        assert!(g.wait().expect("wait gen").success(), "generator failed");
        ops += r.ops;
        if r.win_ns > 0 {
            rate += r.win_ops as f64 / (r.win_ns as f64 / 1e9);
        }
        sheds += r.sheds;
        for (us, n) in r.hist {
            *hist.entry(us).or_insert(0) += n;
        }
    }

    // Closing the server's stdin asks it to drain and report.
    drop(server.stdin.take());
    let srv: ServerSide = read_tagged_line(&mut server, "COUNTERS ")
        .and_then(|s| serde_json::from_str(&s).ok())
        .expect("server must print a COUNTERS line");
    assert!(
        server.wait().expect("wait server").success(),
        "server failed"
    );

    // Merge the sparse per-process histograms into percentiles.
    let mut buckets: Vec<(u64, u64)> = hist.into_iter().collect();
    buckets.sort_unstable();
    let pct = |p: f64| -> u64 {
        let rank = ((ops as f64 * p).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(us, n) in &buckets {
            seen += n;
            if seen >= rank {
                return us;
            }
        }
        buckets.last().map_or(0, |&(us, _)| us)
    };
    let per_op = |v: u64| if ops == 0 { 0.0 } else { v as f64 / ops as f64 };
    let net = NetRow {
        ops,
        ops_per_sec: rate,
        p50_us: pct(0.50),
        p95_us: pct(0.95),
        p99_us: pct(0.99),
        syscalls_per_op: per_op(srv.read_calls + srv.write_calls),
        bytes_per_op: per_op(srv.bytes_in + srv.bytes_out),
        wire_msgs_per_op: per_op(srv.msgs_in + srv.msgs_out),
    };
    println!(
        "net    shards={:<2} gens={:<2} ops={:>8} ops/s={:>8.0} p50={:>5}us p95={:>5}us p99={:>5}us \
         syscalls/op={:.3} bytes/op={:.0} msgs/op={:.2} sheds={sheds}",
        o.shards, o.gens, net.ops, net.ops_per_sec, net.p50_us, net.p95_us, net.p99_us,
        net.syscalls_per_op, net.bytes_per_op, net.wire_msgs_per_op,
    );

    // The same-run in-process reference: the batched ring row this
    // topology is allowed to cost at most 2x of.
    print!("inproc ");
    let inproc = run_config(o.shards, o.gens, o.files, o.window, o.batch, None, false);
    let ratio = if inproc.ops_per_sec > 0.0 {
        net.ops_per_sec / inproc.ops_per_sec
    } else {
        0.0
    };
    println!("net vs in-process: {ratio:.2}x");

    NetBench {
        schema: "lease-bench/BENCH_net/v1".to_string(),
        mode: if o.quick { "quick" } else { "full" }.to_string(),
        gens: o.gens,
        shards: o.shards,
        files: o.files,
        batch: o.batch,
        window_ms: o.window.as_millis() as u64,
        net,
        inproc,
        ratio_net_vs_inproc: ratio,
        codec,
        server: srv,
    }
}

/// Reads the child's stdout line by line until one starts with `tag`;
/// returns the rest of that line. Other lines pass through to our
/// stdout, indented, so child row output stays visible.
fn read_tagged_line(child: &mut Child, tag: &str) -> Option<String> {
    // Taking stdout would lose the pipe for later tags; keep a reader
    // around per call by reading from a re-inserted BufReader is not
    // possible with std, so we read incrementally off the raw handle.
    let out = child.stdout.as_mut()?;
    let mut rd = BufReader::new(out);
    let mut line = String::new();
    loop {
        line.clear();
        if rd.read_line(&mut line).ok()? == 0 {
            return None;
        }
        if let Some(rest) = line.trim_end().strip_prefix(tag) {
            return Some(rest.to_string());
        }
        print!("  [child] {line}");
    }
}

/// Single-thread codec throughput: one frame of `batch` messages (the
/// bench workload mix), encoded into a reused buffer and decoded by
/// slicing in place. The decode side is the bar the tentpole names:
/// > 5M msgs/s on one core.
fn codec_bench(batch: usize) -> CodecBench {
    let batch = batch.max(2);
    let msgs: Vec<ToServer<R, crate::D>> = (0..batch as u64)
        .map(|i| {
            if (i + 1).is_multiple_of(32) {
                ToServer::Write {
                    req: ReqId(i),
                    resource: i % 17,
                    data: i,
                }
            } else {
                ToServer::Fetch {
                    req: ReqId(i),
                    resource: i % 17,
                    cached: None,
                    also_extend: Vec::new(),
                }
            }
        })
        .collect();

    let mut wire: Vec<u8> = Vec::new();
    let encode = |wire: &mut Vec<u8>| {
        wire.clear();
        let mut fb = FrameBuilder::begin(wire, Dir::C2s, ClientId(7));
        for m in &msgs {
            fb.push_c2s(wire, m, Some(Dur::from_secs(30)));
        }
        fb.finish(wire);
    };

    let window = Duration::from_millis(150);
    let mut encoded = 0u64;
    let t0 = Instant::now();
    while t0.elapsed() < window {
        for _ in 0..64 {
            encode(&mut wire);
            encoded += batch as u64;
        }
    }
    let encode_rate = encoded as f64 / t0.elapsed().as_secs_f64();

    encode(&mut wire);
    let mut decoded = 0u64;
    let mut check = 0u64;
    let t0 = Instant::now();
    while t0.elapsed() < window {
        for _ in 0..64 {
            let (_, mut it) = frame_messages(&wire).expect("self-encoded frame");
            while let Some((m, _)) = it.next_c2s::<R, crate::D>().expect("self-encoded msg") {
                if let ToServer::Fetch { resource, .. } = m {
                    check ^= resource;
                }
                decoded += 1;
            }
        }
    }
    std::hint::black_box(check);
    CodecBench {
        encode_msgs_per_sec: encode_rate,
        decode_msgs_per_sec: decoded as f64 / t0.elapsed().as_secs_f64(),
    }
}

// ---------------------------------------------------------------------
// Server role.
// ---------------------------------------------------------------------

struct ServerOpts {
    shards: usize,
    clients: usize,
    files: u64,
    batch: usize,
    port: u16,
    term: Dur,
    data: String,
    term_file: Option<String>,
    commit_log: Option<String>,
    epoch_unix_ns: Option<u64>,
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// `svc_load --net-server ...`: serve until stdin closes, then print
/// `COUNTERS {json}` and exit.
pub(crate) fn run_server_cli(args: &[String]) {
    let o = ServerOpts {
        shards: flag(args, "--shards")
            .and_then(|v| v.parse().ok())
            .unwrap_or(1),
        clients: flag(args, "--clients")
            .and_then(|v| v.parse().ok())
            .unwrap_or(4),
        files: flag(args, "--files")
            .and_then(|v| v.parse().ok())
            .unwrap_or(256),
        batch: flag(args, "--batch")
            .and_then(|v| v.parse().ok())
            .unwrap_or(32),
        port: flag(args, "--port")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0),
        term: Dur::from_millis(
            flag(args, "--term-ms")
                .and_then(|v| v.parse().ok())
                .unwrap_or(5_000),
        ),
        data: flag(args, "--data").unwrap_or_else(|| "u64".into()),
        term_file: flag(args, "--term-file"),
        commit_log: flag(args, "--commit-log"),
        epoch_unix_ns: flag(args, "--epoch-unix-ns").and_then(|v| v.parse().ok()),
    };
    match o.data.as_str() {
        "u64" => serve::<u64>(
            &o,
            |r| r,
            |d| d.to_le_bytes().to_vec(),
            |b| u64::from_le_bytes(b.try_into().unwrap_or_default()),
        ),
        "bytes" => serve::<bytes::Bytes>(
            &o,
            |r| bytes::Bytes::from(r.to_le_bytes().to_vec()),
            |d| d.to_vec(),
            bytes::Bytes::from,
        ),
        other => {
            eprintln!("--data must be u64 or bytes, got {other}");
            std::process::exit(2);
        }
    }
}

/// Wraps a shard's storage to append every commit (resource, version,
/// true time, payload) to a shared log file, flushed per line so a
/// `kill -9` loses nothing the client may have been told about. The
/// multi-process oracle merges these lines into the recorded history.
struct CommitLogStore<D> {
    inner: MemStorage<u64, D>,
    log: Arc<Mutex<std::io::BufWriter<std::fs::File>>>,
    clock: Arc<dyn Clock>,
    raw: fn(&D) -> Vec<u8>,
}

impl<D: Clone> Storage<u64, D> for CommitLogStore<D> {
    fn read(&self, resource: &u64) -> Option<(D, Version)> {
        self.inner.read(resource)
    }

    fn version(&self, resource: &u64) -> Option<Version> {
        self.inner.version(resource)
    }

    fn write(&mut self, resource: &u64, data: D) -> Version {
        let v = self.inner.write(resource, data);
        let (payload, at) = {
            let d = self.inner.read(resource).map(|(d, _)| d);
            (
                d.map(|d| (self.raw)(&d)).unwrap_or_default(),
                self.clock.now(),
            )
        };
        let mut log = self.log.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = writeln!(log, "{} {} {} {}", resource, v.0, at.0, hex(&payload));
        let _ = log.flush();
        v
    }
}

fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2 + 1);
    s.push('x'); // never empty, so the line always splits into 4 fields
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

fn unhex(s: &str) -> Vec<u8> {
    let s = s.strip_prefix('x').unwrap_or(s);
    (0..s.len() / 2)
        .filter_map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).ok())
        .collect()
}

fn serve<D>(o: &ServerOpts, datum: fn(u64) -> D, raw: fn(&D) -> Vec<u8>, unraw: fn(Vec<u8>) -> D)
where
    D: Clone + Send + WireValue + 'static,
{
    let clock: Arc<dyn Clock> = match o.epoch_unix_ns {
        Some(epoch) => Arc::new(SysClock::new(epoch)),
        None => Arc::new(WallClock::new()),
    };

    // §5 persistence: the max granted term survives the process, so a
    // restart can refuse grants / defer writes for exactly that long.
    let mut hooks = SvcHooks {
        clock: Some(Arc::clone(&clock)),
        ..SvcHooks::default()
    };
    if let Some(path) = &o.term_file {
        let persist_path = path.clone();
        hooks.persist_max_term = Some(Arc::new(move |d: Dur| {
            let tmp = format!("{persist_path}.tmp");
            if std::fs::write(&tmp, d.as_nanos().to_le_bytes()).is_ok() {
                let _ = std::fs::rename(&tmp, &persist_path);
            }
        }));
        let recover_path = path.clone();
        hooks.recover_max_term = Some(Arc::new(move || {
            let bytes = std::fs::read(&recover_path).ok()?;
            Some(Dur(u64::from_le_bytes(bytes.try_into().ok()?)))
        }));
    }

    // A prior incarnation's commits replay into every shard's store
    // (each preloads the full set; the router partitions), *without*
    // re-logging, so versions and payloads continue where the killed
    // process left off.
    let mut replay: HashMap<u64, (Version, Vec<u8>)> = HashMap::new();
    let log = o.commit_log.as_ref().map(|path| {
        if let Ok(text) = std::fs::read_to_string(path) {
            for line in text.lines() {
                let mut f = line.split_whitespace();
                if let (Some(r), Some(v), Some(_at), Some(hx)) =
                    (f.next(), f.next(), f.next(), f.next())
                {
                    if let (Ok(r), Ok(v)) = (r.parse::<u64>(), v.parse::<u64>()) {
                        let e = replay.entry(r).or_insert((Version(0), Vec::new()));
                        if Version(v) > e.0 {
                            *e = (Version(v), unhex(hx));
                        }
                    }
                }
            }
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .expect("open commit log");
        Arc::new(Mutex::new(std::io::BufWriter::new(file)))
    });

    let egress: Egress<u64, D> = Egress::new(o.clients, 1024);
    let sink = Arc::new(EgressSink::new(egress.clone()));
    let files = o.files;
    let term = o.term;
    let store_clock = Arc::clone(&clock);
    let replay = Arc::new(replay);
    let base = SvcConfig::default();
    let service = LeaseService::spawn(
        SvcConfig {
            shards: o.shards,
            batch: base.batch.max(o.batch * 2),
            ..base
        },
        sink,
        hooks,
        move |_| {
            let mut store: MemStorage<u64, D> = MemStorage::new();
            for r in 0..files {
                store.insert(r, datum(r));
            }
            for (&r, (v, payload)) in replay.iter() {
                if v.0 > 1 {
                    store.set(r, unraw(payload.clone()), *v);
                }
            }
            let storage: Box<dyn Storage<u64, D> + Send> = match &log {
                Some(log) => Box::new(CommitLogStore {
                    inner: store,
                    log: Arc::clone(log),
                    clock: Arc::clone(&store_clock),
                    raw,
                }),
                None => Box::new(store),
            };
            (LeaseServer::new(ServerConfig::fixed(term)), storage)
        },
    );

    let net = NetServer::bind(
        &format!("127.0.0.1:{}", o.port),
        service.handle(),
        &egress,
        Arc::clone(&clock),
    )
    .expect("bind net server");
    println!("PORT {}", net.local_addr().port());
    let _ = std::io::stdout().flush();

    // Serve until the parent closes our stdin (or we are killed).
    let mut sink = String::new();
    while matches!(std::io::stdin().read_line(&mut sink), Ok(n) if n > 0) {
        sink.clear();
    }

    let c = net.counters().snapshot();
    let (grants, expired_drops) = service
        .stats()
        .map(|s| (s.counters.grants, s.counters.expired_drops))
        .unwrap_or_default();
    let side = ServerSide {
        read_calls: c.read_calls,
        bytes_in: c.bytes_in,
        msgs_in: c.msgs_in,
        write_calls: c.write_calls,
        bytes_out: c.bytes_out,
        msgs_out: c.msgs_out,
        expired_at_door: c.expired_at_door,
        bad_frames: c.bad_frames,
        grants,
        expired_drops,
    };
    net.shutdown();
    service.shutdown();
    println!(
        "COUNTERS {}",
        serde_json::to_string(&side).expect("serialize counters")
    );
}

// ---------------------------------------------------------------------
// Generator role.
// ---------------------------------------------------------------------

struct GenOpts {
    addr: SocketAddr,
    id: u32,
    window: Duration,
    files: u64,
    batch: usize,
    shards: usize,
}

/// `svc_load --net-gen ...`: one windowed pipelined client over a
/// socket; prints `RESULT {json}` and exits.
pub(crate) fn run_gen_cli(args: &[String]) {
    let o = GenOpts {
        addr: flag(args, "--addr")
            .and_then(|v| v.parse().ok())
            .expect("--net-gen needs --addr host:port"),
        id: flag(args, "--id").and_then(|v| v.parse().ok()).unwrap_or(0),
        window: Duration::from_millis(
            flag(args, "--ms")
                .and_then(|v| v.parse().ok())
                .unwrap_or(1_000),
        ),
        files: flag(args, "--files")
            .and_then(|v| v.parse().ok())
            .unwrap_or(256),
        batch: flag(args, "--batch")
            .and_then(|v| v.parse().ok())
            .unwrap_or(32),
        shards: flag(args, "--shards")
            .and_then(|v| v.parse().ok())
            .unwrap_or(1),
    };
    let result = run_gen(&o);
    println!(
        "RESULT {}",
        serde_json::to_string(&result).expect("serialize result")
    );
}

struct PendingOp {
    t0: Instant,
    last_tx: Instant,
    resource: u64,
    msg: ToServer<R, crate::D>,
}

fn run_gen(o: &GenOpts) -> GenResult {
    // Single-threaded on purpose: the one socket is written (staged
    // frames) and read (short-timeout fill, decoded in place) from the
    // same loop. No reader thread means no per-burst channel hop, no
    // futex wake, and one fewer context switch per round trip — on a
    // loaded box the scheduler hops are what separate the wire path
    // from the ring path. Reconnection is inline; the retransmit timer
    // recovers whatever a dead socket dropped (the §2 contract: a lost
    // reply, a dropped connection, and a restarted server all look the
    // same to the client).
    let who = ClientId(o.id);
    let window = o.batch * 2 * o.shards;
    let mut rng = rng_seed(who);
    let mut next_req: u64 = 1;
    let mut pending: HashMap<u64, PendingOp> = HashMap::new();
    let mut staged: Vec<ToServer<R, crate::D>> = Vec::new();
    let mut hist: HashMap<u64, u64> = HashMap::new();
    let mut ops = 0u64;
    let mut sheds = 0u64;
    let mut wire: Vec<u8> = Vec::new();

    let connect = |timeout: Duration| -> Option<(TcpStream, FrameAccum)> {
        let s = connect_as(&o.addr, who).ok()?;
        s.set_read_timeout(Some(timeout)).ok()?;
        Some((s, FrameAccum::new()))
    };
    const READ_SLICE: Duration = Duration::from_millis(1);

    // Establish the first connection before starting the clock:
    // connection ramp-up is setup, not throughput.
    let mut conn: Option<(TcpStream, FrameAccum)> = None;
    let connect_deadline = Instant::now() + Duration::from_secs(2);
    while conn.is_none() && Instant::now() < connect_deadline {
        conn = connect(READ_SLICE);
        if conn.is_none() {
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    let start = Instant::now();
    let mut drain_until: Option<Instant> = None;
    let mut last_connect = Instant::now();
    // The rate basis is [warmup, window): the first quarter covers TCP
    // ramp-up, lease-table population, and scheduler settling; the
    // post-window drain completes at a decaying rate. Both still count
    // toward totals and the latency histogram — they just must not
    // dilute the steady-state number.
    let warmup = o.window / 4;
    let mut warm_snap: Option<(u64, u64)> = None;
    let mut window_snap: Option<(u64, u64)> = None;

    loop {
        let elapsed = start.elapsed();
        if warm_snap.is_none() && elapsed >= warmup {
            warm_snap = Some((ops, elapsed.as_nanos() as u64));
        }
        let stopping = elapsed >= o.window;
        if stopping {
            if window_snap.is_none() {
                window_snap = Some((ops, elapsed.as_nanos() as u64));
            }
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
            while staged.len() < o.batch && staged.len() + pending.len() < window {
                let resource = (rng_next(&mut rng) >> 33) % o.files;
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
                let now = Instant::now();
                pending.insert(
                    req,
                    PendingOp {
                        t0: now,
                        last_tx: now,
                        resource,
                        msg: msg.clone(),
                    },
                );
                staged.push(msg);
            }
        }

        // Retransmission: any op unanswered past the interval rides the
        // next frame again.
        let now = Instant::now();
        for p in pending.values_mut() {
            if now.duration_since(p.last_tx) >= RETRANSMIT_AFTER {
                p.last_tx = now;
                staged.push(p.msg.clone());
            }
        }

        // Inline reconnect, rate-limited so a dead server is polled,
        // not hammered.
        if conn.is_none() && last_connect.elapsed() >= Duration::from_millis(10) {
            last_connect = Instant::now();
            conn = connect(READ_SLICE);
        }

        // One frame per flush, one write per frame.
        if !staged.is_empty() {
            match conn.as_mut() {
                Some((stream, _)) => {
                    wire.clear();
                    let mut fb = FrameBuilder::begin(&mut wire, Dir::C2s, who);
                    for m in &staged {
                        fb.push_c2s(&mut wire, m, None);
                    }
                    fb.finish(&mut wire);
                    if stream.write_all(&wire).is_ok() {
                        staged.clear();
                    } else {
                        conn = None;
                    }
                }
                None => std::thread::sleep(Duration::from_millis(1)),
            }
            if conn.is_none() {
                // Ops stay pending (the retransmit timer re-stages
                // them); only non-op messages (approvals) stay staged.
                staged.retain(|m| matches!(m, ToServer::Approve { .. }));
            }
        }

        // Read and decode replies in place. `fill` blocks at most
        // READ_SLICE, returning as soon as any bytes land.
        let mut dead = false;
        if let Some((stream, accum)) = conn.as_mut() {
            match accum.fill(stream) {
                Ok(0) => dead = true, // server closed
                Ok(_) => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(_) => dead = true,
            }
            while !dead {
                let frame = match accum.next_frame() {
                    Ok(Some(frame)) => frame,
                    Ok(None) => break,
                    Err(_) => {
                        dead = true; // corrupt stream: reconnect
                        break;
                    }
                };
                let Ok((h, mut it)) = frame_messages(frame) else {
                    dead = true;
                    break;
                };
                if h.dir != Dir::S2c {
                    continue;
                }
                while let Ok(Some(m)) = it.next_s2c::<R, crate::D>() {
                    match m {
                        ToClient::Grants { req, grants } => {
                            if let Some(p) = pending.get(&req.0) {
                                if grants.iter().any(|g| g.resource == p.resource) {
                                    let t0 = p.t0;
                                    pending.remove(&req.0);
                                    ops += 1;
                                    *hist.entry(t0.elapsed().as_micros() as u64).or_insert(0) += 1;
                                }
                            }
                        }
                        ToClient::WriteDone { req, .. } => {
                            if let Some(p) = pending.remove(&req.0) {
                                ops += 1;
                                *hist.entry(p.t0.elapsed().as_micros() as u64).or_insert(0) += 1;
                            }
                        }
                        ToClient::ApprovalRequest { write_id, .. } => {
                            // Approvals ride the next flush; a peer's
                            // write is blocked on them.
                            staged.push(ToServer::Approve { write_id });
                        }
                        ToClient::Error { req, .. } => {
                            // Shed or unknown resource: done as far as
                            // the wire is concerned, but not a completed
                            // op.
                            sheds += u64::from(pending.remove(&req.0).is_some());
                        }
                        _ => {}
                    }
                }
            }
        }
        if dead {
            conn = None;
        }
    }

    // The measured interval ends when the op loop ends: the approval
    // grace period below completes no ops and must not dilute the rate.
    let elapsed_ns = start.elapsed().as_nanos() as u64;

    // Grace drain: peers may still be waiting on approvals from us.
    let grace = Instant::now();
    'grace: while grace.elapsed() < Duration::from_millis(100) {
        let Some((stream, accum)) = conn.as_mut() else {
            break;
        };
        match accum.fill(stream) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => break,
        }
        loop {
            let frame = match accum.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(_) => break 'grace,
            };
            let Ok((h, mut it)) = frame_messages(frame) else {
                break 'grace;
            };
            if h.dir != Dir::S2c {
                continue;
            }
            wire.clear();
            let mut fb = FrameBuilder::begin(&mut wire, Dir::C2s, who);
            let mut any = false;
            while let Ok(Some(m)) = it.next_s2c::<R, crate::D>() {
                if let ToClient::ApprovalRequest { write_id, .. } = m {
                    fb.push_c2s(
                        &mut wire,
                        &ToServer::Approve::<R, crate::D> { write_id },
                        None,
                    );
                    any = true;
                }
            }
            fb.finish(&mut wire);
            if any && stream.write_all(&wire).is_err() {
                break 'grace;
            }
        }
    }

    let mut buckets: Vec<(u64, u64)> = hist.into_iter().collect();
    buckets.sort_unstable();
    let (end_ops, end_ns) = window_snap.unwrap_or((ops, elapsed_ns));
    let (warm_ops, warm_ns) = warm_snap.unwrap_or((0, 0));
    let (win_ops, win_ns) = (
        end_ops.saturating_sub(warm_ops),
        end_ns.saturating_sub(warm_ns),
    );
    GenResult {
        ops,
        elapsed_ns,
        win_ops,
        win_ns,
        hist: buckets,
        sheds,
    }
}
