//! `cache_mix`: what a user of the system sees. Two application
//! threads, one per core, each drive one caching client of a two-client
//! `NetClient` against a `NetServer` over loopback: closed loop, one op
//! outstanding per client, 4096 files of 64 bytes, 31 reads to 1 write,
//! 10 s leases (the paper's knee).
//!
//! A read under a valid lease is a local hit; a miss costs a round trip
//! and, as the paper recommends, extends every other lease the cache
//! holds; a write waits for the other holder's approval. Every op is
//! timed and classed by what the client reports, every payload is
//! checked, and the whole recorded history goes through the
//! `lease-faults` oracle.

use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use bytes::Bytes;
use lease_clock::{Clock, Dur, Time};
use lease_core::{ClientCounters, MemStorage, Storage, Version};
use lease_faults::check_history;
use lease_rt::{NetClient, NetClientConfig, RtClientHandle};
use lease_vsys::HistoryEvent;

use crate::gen::{self, Digest, Mix, Op};
use crate::harness::{self, Probe, RunSpec, Trace, Window, WindowPlan, GEN_THREAD};
use crate::ladder;
use crate::report::Outcome;
use crate::service::{self, Server, FILE_BITS, FILE_MASK};
use crate::span::{self, Span, Tracer};
use crate::stats;
use crate::wire_batched::put_net_counters;

pub const FILES: u64 = 256;
pub const MIX: Mix = Mix {
    files: FILES,
    write_one_in: 32,
};
pub const TERM: Dur = Dur::from_secs(10);
const CLIENTS: usize = 2;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
const STREAM_LEN: usize = 1 << 18;

type CommitLog = Arc<Mutex<Vec<(u64, Version, Time)>>>;

/// The shard's store, noting every commit on the clock the clients'
/// recorder uses, so the oracle sees one timeline.
struct RecordingStore {
    inner: MemStorage<u64, Bytes>,
    clock: Arc<dyn Clock>,
    log: CommitLog,
}

impl Storage<u64, Bytes> for RecordingStore {
    fn read(&self, resource: &u64) -> Option<(Bytes, Version)> {
        self.inner.read(resource)
    }

    fn version(&self, resource: &u64) -> Option<Version> {
        self.inner.version(resource)
    }

    fn write(&mut self, resource: &u64, data: Bytes) -> Version {
        let v = self.inner.write(resource, data);
        let at = self.clock.now();
        self.log
            .lock()
            .expect("commit log poisoned")
            .push((*resource, v, at));
        v
    }
}

fn payload(tag: u64) -> Bytes {
    Bytes::from(gen::payload64(tag).to_vec())
}

/// Whether `data` is an intact payload written for `file`.
fn payload_is_for(data: &[u8], file: u64) -> bool {
    gen::payload64_ok(data)
        && u64::from_le_bytes(data[..8].try_into().expect("8 bytes")) & FILE_MASK == file
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Hit,
    Miss,
    Write,
}

/// One application thread's share of a window.
#[derive(Default)]
struct Share {
    ops: u64,
    failed: u64,
    hit_ns: Vec<u32>,
    miss_ns: Vec<u32>,
    write_ns: Vec<u32>,
    spans: Vec<Span>,
}

/// One application thread: its client, its op stream, its place in it.
struct App {
    id: usize,
    client: RtClientHandle,
    ops: Vec<Op>,
    cursor: usize,
    writes: u64,
    attempted: u64,
}

impl App {
    fn one(&mut self, op: Op) -> Result<Class, ()> {
        let file = op.file();
        self.attempted += 1;
        if op.is_write() {
            self.writes += 1;
            let tag = ((self.id as u64) << 56) | (self.writes << FILE_BITS) | file;
            self.client.write(file, payload(tag)).map_err(|_| ())?;
            Ok(Class::Write)
        } else {
            let (data, _, from_cache) = self.client.read_detailed(file).map_err(|_| ())?;
            if !payload_is_for(&data, file) {
                return Err(());
            }
            Ok(if from_cache { Class::Hit } else { Class::Miss })
        }
    }

    /// Closed loop, one op outstanding, until `until`.
    fn run(&mut self, until: Instant, epoch: Instant, traced: bool) -> Share {
        let mut share = Share::default();
        let mut tracer = Tracer::new(traced, epoch, 1 << 20);
        loop {
            let t0 = Instant::now();
            if t0 >= until {
                break;
            }
            let op = self.ops[self.cursor % self.ops.len()];
            self.cursor += 1;
            let s = tracer.enter(
                if op.is_write() { "rt.write" } else { "rt.read" },
                share.ops,
            );
            let done = self.one(op);
            tracer.exit(s);
            let ns = u32::try_from(t0.elapsed().as_nanos()).unwrap_or(u32::MAX);
            share.ops += 1;
            match done {
                Ok(Class::Hit) => share.hit_ns.push(ns),
                Ok(Class::Miss) => share.miss_ns.push(ns),
                Ok(Class::Write) => share.write_ns.push(ns),
                Err(()) => share.failed += 1,
            }
        }
        share.spans = tracer.into_spans();
        share
    }
}

struct Rig {
    server: Server<Bytes>,
    fleet: NetClient,
    commits: CommitLog,
    apps: Vec<App>,
    epoch: Instant,
    spans: Vec<Span>,
    failed: u64,
}

impl Rig {
    /// Server start, store fill, client start and connect, and one read
    /// of every file through each client.
    fn set_up(seed: u64, epoch: Instant) -> Rig {
        let commits: CommitLog = Arc::default();
        let log = Arc::clone(&commits);
        let server = Server::start(CLIENTS, TERM, true, move |clock| {
            let mut inner: MemStorage<u64, Bytes> = MemStorage::new();
            for f in 0..FILES {
                inner.insert(f, payload(f));
            }
            RecordingStore {
                inner,
                clock: Arc::clone(clock),
                log: Arc::clone(&log),
            }
        });
        let mut cfg = NetClientConfig::new(server.addr(), CLIENTS as u32);
        cfg.clock = Some(Arc::clone(&server.clock));
        let fleet = NetClient::connect(cfg);
        let mut apps: Vec<App> = (0..CLIENTS)
            .map(|id| App {
                id,
                client: fleet.client(id).clone(),
                ops: gen::op_stream(seed, id as u64, MIX, STREAM_LEN),
                cursor: 0,
                writes: 0,
                attempted: 0,
            })
            .collect();
        let every_file = gen::every_file(FILES);
        let failed: u64 = std::thread::scope(|s| {
            let handles: Vec<_> = apps
                .iter_mut()
                .map(|app| {
                    let every_file = &every_file;
                    s.spawn(move || {
                        every_file
                            .iter()
                            .filter(|op| app.one(**op).is_err())
                            .count()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("set-up reads do not panic") as u64)
                .sum()
        });
        assert_eq!(failed, 0, "set-up reads were answered");
        for app in &mut apps {
            app.attempted = 0;
        }
        Rig {
            server,
            fleet,
            commits,
            apps,
            epoch,
            spans: Vec::new(),
            failed: 0,
        }
    }

    fn digest(&self) -> String {
        let mut d = Digest::default();
        for a in &self.apps {
            d.ops(&a.ops);
        }
        d.hex()
    }

    /// Both application threads run the same interval; their shares are
    /// merged.
    fn window(&mut self, plan: WindowPlan) -> (Window, Share) {
        crate::alloc::set_counting(plan.traced);
        // The kernel's account of a thread goes when the thread does, so
        // the application threads outlive both probes: they start at the
        // first rendezvous, report at the second, and leave at the third.
        let barrier = Barrier::new(CLIENTS + 1);
        let epoch = self.epoch;
        let (window, shares) = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .apps
                .iter_mut()
                .map(|app| {
                    let barrier = &barrier;
                    std::thread::Builder::new()
                        .name(format!("{GEN_THREAD}-{}", app.id))
                        .spawn_scoped(s, move || {
                            barrier.wait();
                            let share = app.run(Instant::now() + plan.len, epoch, plan.traced);
                            barrier.wait();
                            barrier.wait();
                            share
                        })
                        .expect("spawn an application thread")
                })
                .collect();
            let from = Probe::now();
            barrier.wait();
            barrier.wait();
            let mut window = Window::close(&from, plan.traced, 0, CLIENTS);
            barrier.wait();
            let shares: Vec<Share> = handles
                .into_iter()
                .map(|h| h.join().expect("application threads do not panic"))
                .collect();
            window.ops = shares.iter().map(|s| s.ops).sum();
            (window, shares)
        });
        crate::alloc::set_counting(false);
        let mut all = Share::default();
        for mut s in shares {
            all.ops += s.ops;
            all.failed += s.failed;
            all.hit_ns.append(&mut s.hit_ns);
            all.miss_ns.append(&mut s.miss_ns);
            all.write_ns.append(&mut s.write_ns);
            span::merge(&mut self.spans, s.spans);
        }
        self.failed += all.failed;
        (window, all)
    }

    /// The recorded history plus the store's commits, through the
    /// single-copy oracle. Returns the number of violations.
    fn oracle(&self) -> u64 {
        let mut history = self.fleet.recorder().snapshot();
        for &(resource, version, at) in self.commits.lock().expect("commit log poisoned").iter() {
            history.push(HistoryEvent::Commit {
                resource,
                version,
                writer: None,
                at,
            });
        }
        match check_history(&history) {
            Ok(()) => 0,
            Err(violations) => {
                for v in violations.iter().take(5) {
                    println!("oracle: {v:?}");
                }
                violations.len() as u64
            }
        }
    }

    fn client_counters(&self) -> ClientCounters {
        let mut sum = ClientCounters::default();
        for a in &self.apps {
            let c = a.client.stats().expect("the client answers");
            sum.hits += c.hits;
            sum.misses_extend += c.misses_extend;
            sum.misses_cold += c.misses_cold;
            sum.writes += c.writes;
            sum.retries += c.retries;
        }
        sum
    }

    fn tear_down(self) -> Vec<Span> {
        drop(self.apps);
        self.fleet.shutdown();
        self.server.shutdown();
        self.spans
    }
}

fn percentile_us(sorted: &[u32], p: f64) -> Option<f64> {
    stats::percentile_sorted(sorted, p).map(|ns| f64::from(ns) / 1e3)
}

pub fn run(spec: RunSpec) -> Result<Outcome, String> {
    let mut out = Outcome::new("cache_mix", spec.seed, spec.seconds, spec.traced);
    // Before anything starts: the client runtime's threads and the
    // application threads inherit this.
    service::pin_client_side();
    let epoch = Instant::now();
    let (mut rig, setups) = harness::timed_setups(
        spec.setups(SETUPS),
        || Rig::set_up(spec.seed, epoch),
        |rig| drop(rig.tear_down()),
    );
    out.digest = rig.digest();
    out.put_windows("setup_s", &setups);

    rig.window(WindowPlan {
        len: spec.warmup(),
        traced: false,
    });
    let before = rig.client_counters();
    let net_from = rig.server.net.as_ref().expect("net").counters().snapshot();
    let mut windows = Vec::new();
    let mut lat: [Vec<f64>; 5] = Default::default();
    let mut hit_share = Vec::new();
    let mut hit_ns = Vec::new();
    for plan in spec.windows(1.0) {
        let mut share = Share::default();
        windows.push(harness::guarded(
            "cache_mix",
            || {
                let (w, s) = rig.window(plan);
                share = s;
                w
            },
            &mut out.notes,
        ));
        if plan.traced {
            continue;
        }
        share.hit_ns.sort_unstable();
        share.miss_ns.sort_unstable();
        share.write_ns.sort_unstable();
        lat[0].extend(percentile_us(&share.hit_ns, 50.0));
        lat[1].extend(percentile_us(&share.miss_ns, 50.0));
        lat[2].extend(percentile_us(&share.miss_ns, 99.0));
        lat[3].extend(percentile_us(&share.write_ns, 50.0));
        lat[4].extend(percentile_us(&share.write_ns, 99.0));
        hit_share.push(share.hit_ns.len() as f64 / share.ops.max(1) as f64);
        hit_ns.extend(stats::percentile_sorted(&share.hit_ns, 50.0).map(f64::from));
    }
    let after = rig.client_counters();
    let net_to = rig.server.net.as_ref().expect("net").counters().snapshot();

    out.attempted = rig.apps.iter().map(|a| a.attempted).sum();
    // Before the oracle copies the history: its memory is the check's,
    // not the program's.
    harness::put_common(&mut out, &windows);
    let violations = rig.oracle();
    if violations > 0 {
        out.notes
            .push(format!("oracle: {violations} consistency violations"));
    }
    out.failed = rig.failed + violations;
    harness::put_failed_share(&mut out);
    for (name, values) in [
        "lat.hit_p50_us",
        "lat.miss_p50_us",
        "lat.miss_p99_us",
        "lat.write_p50_us",
        "lat.write_p99_us",
    ]
    .iter()
    .zip(&lat)
    {
        out.put_windows(name, values);
    }

    if !spec.traced {
        rig.tear_down();
        return Ok(out);
    }
    let ops: u64 = windows.iter().map(|w| w.ops).sum();
    put_net_counters(&mut out, net_from, net_to, ops);
    harness::put_shard(&mut out, &windows);
    harness::put_group_cpu(&mut out, &windows, "net.reader_cpu_us_per_op", "net-reader");
    harness::put_group_cpu(&mut out, &windows, "net.writer_cpu_us_per_op", "net-writer");
    harness::put_group_cpu(
        &mut out,
        &windows,
        "rt.client_cpu_us_per_op",
        "lease-client",
    );
    harness::put_group_cpu(
        &mut out,
        &windows,
        "rt.reader_cpu_us_per_op",
        "lease-net-reader",
    );
    out.put_windows("rt.hit_share", &hit_share);
    out.put_value(
        "rt.retransmits_per_op",
        (after.retries - before.retries) as f64 / ops.max(1) as f64,
    );
    // Per op the clients completed, hits included, since the server began.
    let served = after.hits + after.misses_cold + after.misses_extend + after.writes;
    rig.server.put_counters(&mut out, served);

    let traced_ops: u64 = windows.iter().filter(|w| w.traced).map(|w| w.ops).sum();
    let trace = Trace::finish("cache_mix", spec.seed, rig.tear_down());
    out.put_value(
        "trace.spans_per_op",
        trace.spans as f64 / traced_ops.max(1) as f64,
    );

    // The sans-IO cache on its own, under this workload's shape.
    let probe = ladder::client_cache(
        FILES,
        payload(0),
        &gen::op_stream(spec.seed, 0, MIX, STREAM_LEN),
    );
    out.put_value("core.client.hit_ns", probe.hit_ns);
    out.put_value("core.client.miss_handle_ns", probe.miss_handle_ns);
    out.put_windows("rt.hit_ns", &hit_ns);
    if let Some(rt_hit) = stats::median(&hit_ns) {
        out.put_value("rt.over_core_hit_ns", rt_hit - probe.hit_ns);
    }
    Ok(out)
}
