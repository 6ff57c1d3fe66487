//! `wire_batched`: one generator thread speaks `lease-wire` over two
//! loopback connections to a `NetServer`, in 128-message frames.
//!
//! Phase A keeps 256 ops in flight per connection (closed loop) and
//! gives `ops_per_s`. Phase B is an open loop at a fixed 200 000 ops/s:
//! every 1.28 ms a 128-message frame falls due on each connection, and
//! each op is timed from that due instant, so a stall anywhere shows as
//! latency instead of as a politely reduced load.
//!
//! With 256 files the table sits in L1 and the codec, the transport and
//! the rings do most of the work.

use std::io::Write;
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use lease_clock::Dur;
use lease_core::{ClientId, MemStorage, ToClient, ToServer, WriteId};
use lease_net::{connect_as, FrameAccum, NetCountersSnapshot};
use lease_wire::{frame_len, frame_messages, Dir, FrameBuilder};

use crate::gen::{self, Digest, Mix, Op};
use crate::harness::{self, Probe, RunSpec, Trace, Window, WindowPlan, LATE_LIMIT};
use crate::ladder;
use crate::procstat;
use crate::report::Outcome;
use crate::service::{self, datum, Checker, InFlight, Server, Settled};
use crate::span::{Span, Tracer};
use crate::stats;
use crate::svc_depth;

pub const FILES: u64 = 256;
pub const MIX: Mix = Mix {
    files: FILES,
    write_one_in: 64,
};
/// Longer than any run, as on `svc_depth`: every extension leaves an
/// entry in the server's timer wheel until the lease it superseded would
/// have expired. With a 10 s term those entries start to fire ten
/// seconds into the run, throughput halves, and then swings with a 20 s
/// period for minutes — which says something about the table and the
/// wheel, and nothing about the codec, the transport and the rings this
/// workload is here for.
pub const TERM: Dur = Dur::from_secs(600);
/// Messages per frame.
pub const FRAME: usize = 128;
/// Ops in flight per connection in the closed loop.
pub const IN_FLIGHT: usize = 256;
/// The open loop's rate. Fixed: a rate that followed the machine would
/// hide exactly the regressions it is there to show.
pub const PACED_OPS_PER_S: u64 = 200_000;

const CLIENTS: usize = 2;
const BURST_EVERY: Duration =
    Duration::from_nanos((FRAME * CLIENTS) as u64 * 1_000_000_000 / PACED_OPS_PER_S);
/// A burst sent this long after it fell due counts as late. On this
/// box about one burst in three hundred is a millisecond late even with
/// the generator alone on its core (the hypervisor's doing, not ours).
const LATE_AFTER: Duration = Duration::from_millis(1);
/// The generator sleeps until this long before a burst is due, then
/// spins: a timed wait alone wakes tens of microseconds late.
const SPIN: Duration = Duration::from_micros(60);
/// Share of `--seconds` the closed loop gets; the paced phase has the rest.
const CLOSED_SHARE: f64 = 0.6;
const DRAIN: Duration = Duration::from_secs(2);
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
const STREAM_LEN: usize = 1 << 18;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Waits until one of `fds` is readable or `timeout` passes; says which.
fn wait_readable(fds: [i32; CLIENTS], timeout: Duration) -> [bool; CLIENTS] {
    const POLLIN: i16 = 1;
    let mut set = fds.map(|fd| PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    });
    let ts = Timespec {
        sec: timeout.as_secs() as i64,
        nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `set` is a live array of CLIENTS pollfd structs and `ts` a
    // live timespec; the kernel writes only `revents`, and a null signal
    // mask leaves the mask alone.
    let rc = unsafe { ppoll(set.as_mut_ptr(), CLIENTS as u64, &ts, std::ptr::null()) };
    if rc <= 0 {
        return [false; CLIENTS];
    }
    [set[0].revents != 0, set[1].revents != 0]
}

struct Conn {
    stream: TcpStream,
    accum: FrameAccum,
    ops: Vec<Op>,
    cursor: usize,
    in_flight: InFlight,
    approvals: Vec<WriteId>,
}

/// What one paced window saw.
#[derive(Default)]
struct Paced {
    latencies_ns: Vec<u32>,
    bursts: u64,
    late: u64,
    max_lag: Duration,
}

struct Rig {
    server: Server<u64>,
    conns: Vec<Conn>,
    checker: Checker,
    staged: Vec<ToServer<u64, u64>>,
    /// The ops of the frame being sent (reused, like the two below).
    next: Vec<Op>,
    wire: Vec<u8>,
    msgs: Vec<ToClient<u64, u64>>,
    epoch: Instant,
    attempted: u64,
    completed: u64,
    failed: u64,
    frames: u64,
    paced: Paced,
    tracer: Tracer,
}

impl Rig {
    /// Server start, store fill, connect, and one fetch of every file on
    /// each connection (the first reply waits for the server's accept
    /// loop to notice us).
    fn set_up(seed: u64, epoch: Instant, traced: bool) -> Rig {
        let server = Server::start(CLIENTS, TERM, true, |_| {
            let mut store: MemStorage<u64, u64> = MemStorage::new();
            for f in 0..FILES {
                store.insert(f, datum(0, f));
            }
            store
        });
        let addr = server.addr();
        let conns = (0..CLIENTS)
            .map(|c| Conn {
                stream: connect_as(&addr, ClientId(c as u32)).expect("connect over loopback"),
                accum: FrameAccum::new(),
                ops: gen::op_stream(seed, c as u64, MIX, STREAM_LEN),
                cursor: 0,
                in_flight: InFlight::default(),
                approvals: Vec::new(),
            })
            .collect();
        let mut tracer = Tracer::new(traced, epoch, 1 << 21);
        tracer.set_on(false);
        let mut rig = Rig {
            server,
            conns,
            checker: Checker::new(FILES, CLIENTS),
            staged: Vec::new(),
            next: Vec::new(),
            wire: Vec::new(),
            msgs: Vec::new(),
            epoch,
            attempted: 0,
            completed: 0,
            failed: 0,
            frames: 0,
            paced: Paced::default(),
            tracer,
        };
        let every_file: Vec<Op> = gen::every_file(FILES);
        for c in 0..CLIENTS {
            for chunk in every_file.chunks(FRAME) {
                rig.send_frame(c, chunk, 0);
            }
        }
        rig.drain();
        assert_eq!(rig.failed, 0, "set-up fetches were answered");
        rig
    }

    fn digest(&self) -> String {
        let mut d = Digest::default();
        for c in &self.conns {
            d.ops(&c.ops);
        }
        d.hex()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// One frame on connection `c`: the approvals it owes, then `ops`.
    /// `due_ns` is the ops' due instant in the paced phase, else 0.
    fn send_frame(&mut self, c: usize, ops: &[Op], due_ns: u64) {
        let id = self.frames;
        self.frames += 1;
        let s = self.tracer.enter("gen.stage", id);
        let conn = &mut self.conns[c];
        self.staged.clear();
        self.staged.extend(
            conn.approvals
                .drain(..)
                .map(|write_id| ToServer::Approve { write_id }),
        );
        for op in ops {
            self.staged.push(service::request(
                &mut conn.in_flight,
                &mut self.checker,
                *op,
                due_ns,
            ));
        }
        self.attempted += ops.len() as u64;
        self.tracer.exit(s);

        let s = self.tracer.enter("wire.encode_c2s", id);
        self.wire.clear();
        let mut fb = FrameBuilder::begin(&mut self.wire, Dir::C2s, ClientId(c as u32));
        for m in &self.staged {
            fb.push_c2s(&mut self.wire, m, None);
        }
        fb.finish(&mut self.wire);
        self.tracer.exit(s);

        let s = self.tracer.enter("net.client_write", id);
        conn.stream
            .write_all(&self.wire)
            .expect("the server reads what we write");
        self.tracer.exit(s);
    }

    /// Sends the stream's next `FRAME` ops on connection `c`.
    fn send_next(&mut self, c: usize, due_ns: u64) {
        let mut next = std::mem::take(&mut self.next);
        let conn = &mut self.conns[c];
        next.clear();
        next.extend((0..FRAME).map(|i| conn.ops[(conn.cursor + i) % conn.ops.len()]));
        conn.cursor += FRAME;
        self.send_frame(c, &next, due_ns);
        self.next = next;
    }

    /// Parks until a connection has bytes (or `timeout`), reads them,
    /// decodes every complete frame in place and checks each reply.
    fn receive(&mut self, timeout: Duration) {
        let id = self.frames;
        let s = self.tracer.enter("net.await", id);
        let fds = [
            self.conns[0].stream.as_raw_fd(),
            self.conns[1].stream.as_raw_fd(),
        ];
        let ready = wait_readable(fds, timeout);
        self.tracer.exit(s);
        for c in (0..CLIENTS).filter(|c| ready[*c]) {
            let s = self.tracer.enter("net.client_read", id);
            let conn = &mut self.conns[c];
            let n = conn
                .accum
                .fill(&mut conn.stream)
                .expect("read from the server");
            self.tracer.exit(s);
            assert!(n > 0, "the server closed connection {c}");
            let now_ns = self.now_ns();
            loop {
                let s = self.tracer.enter("wire.decode_s2c", id);
                let bytes = self.conns[c].accum.bytes();
                let len = match frame_len(bytes).expect("a well-formed stream") {
                    Some(len) if bytes.len() >= len => len,
                    _ => {
                        self.tracer.exit(s);
                        break;
                    }
                };
                let (_, mut it) = frame_messages(&bytes[..len]).expect("a well-formed frame");
                while let Some(m) = it.next_s2c::<u64, u64>().expect("a well-formed message") {
                    self.msgs.push(m);
                }
                self.conns[c].accum.consume(len);
                self.tracer.exit(s);

                let s = self.tracer.enter("gen.check", id);
                let mut msgs = std::mem::take(&mut self.msgs);
                for m in msgs.drain(..) {
                    self.on_reply(c, m, now_ns);
                }
                self.msgs = msgs;
                self.tracer.exit(s);
            }
        }
    }

    fn on_reply(&mut self, c: usize, m: ToClient<u64, u64>, now_ns: u64) {
        let conn = &mut self.conns[c];
        match service::settle(&mut conn.in_flight, &mut self.checker, c, m) {
            Settled::Done(p) => {
                self.completed += 1;
                if p.due_ns != 0 {
                    let lat = now_ns.saturating_sub(p.due_ns);
                    self.paced
                        .latencies_ns
                        .push(u32::try_from(lat).unwrap_or(u32::MAX));
                }
            }
            Settled::Approve(write_id) => conn.approvals.push(write_id),
            Settled::Failed => self.failed += 1,
            Settled::Nothing => {}
        }
    }

    /// Approvals wait for nothing: another client's write is blocked on
    /// them.
    fn flush_approvals(&mut self) {
        for c in 0..CLIENTS {
            if !self.conns[c].approvals.is_empty() {
                self.send_frame(c, &[], 0);
            }
        }
    }

    /// Phase A: `IN_FLIGHT` ops outstanding per connection until `until`.
    fn run_closed(&mut self, until: Instant) -> u64 {
        let before = self.completed;
        loop {
            let now = Instant::now();
            if now >= until {
                break;
            }
            for c in 0..CLIENTS {
                if self.conns[c].in_flight.len() + FRAME <= IN_FLIGHT {
                    self.send_next(c, 0);
                }
            }
            self.flush_approvals();
            self.receive((until - now).min(Duration::from_millis(1)));
        }
        self.completed - before
    }

    /// Phase B: one frame per connection every `BURST_EVERY` until
    /// `until`, whatever has or has not come back.
    fn run_paced(&mut self, until: Instant) -> u64 {
        let before = self.completed;
        self.paced = Paced::default();
        let start = Instant::now();
        for k in 0u32.. {
            let due = start + BURST_EVERY * k;
            if due >= until {
                break;
            }
            loop {
                let now = Instant::now();
                if now + SPIN >= due {
                    break;
                }
                self.receive(due - SPIN - now);
                self.flush_approvals();
            }
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            let lag = due.elapsed();
            self.paced.bursts += 1;
            self.paced.late += u64::from(lag > LATE_AFTER);
            self.paced.max_lag = self.paced.max_lag.max(lag);
            let due_ns = due.duration_since(self.epoch).as_nanos() as u64;
            for c in 0..CLIENTS {
                self.send_next(c, due_ns);
            }
        }
        self.completed - before
    }

    /// Waits for what is outstanding; the rest has failed.
    fn drain(&mut self) {
        let deadline = Instant::now() + DRAIN;
        while self.conns.iter().any(|c| c.in_flight.len() > 0) && Instant::now() < deadline {
            self.flush_approvals();
            self.receive(Duration::from_millis(1));
        }
        self.failed += self
            .conns
            .iter()
            .map(|c| c.in_flight.len() as u64)
            .sum::<u64>();
    }

    fn window(&mut self, plan: WindowPlan, paced: bool) -> Window {
        self.tracer.set_on(plan.traced);
        crate::alloc::set_counting(plan.traced);
        let from = Probe::now();
        let until = Instant::now() + plan.len;
        let ops = if paced {
            self.run_paced(until)
        } else {
            self.run_closed(until)
        };
        let mut w = Window::close(&from, plan.traced, ops, 1);
        crate::alloc::set_counting(false);
        self.tracer.set_on(false);
        if paced {
            let late_share = self.paced.late as f64 / self.paced.bursts.max(1) as f64;
            w.valid &= late_share <= LATE_LIMIT;
        }
        w
    }

    fn counters(&self) -> NetCountersSnapshot {
        self.server
            .net
            .as_ref()
            .expect("started with net")
            .counters()
            .snapshot()
    }

    fn tear_down(self) -> Vec<Span> {
        drop(self.conns);
        self.server.shutdown();
        self.tracer.into_spans()
    }
}

/// Net-counter metrics over an interval in which `ops` completed.
pub fn put_net_counters(
    out: &mut Outcome,
    from: NetCountersSnapshot,
    to: NetCountersSnapshot,
    ops: u64,
) {
    let ops = ops.max(1) as f64;
    let reads = (to.read_calls - from.read_calls) as f64;
    let writes = (to.write_calls - from.write_calls) as f64;
    let (msgs_in, msgs_out) = (
        (to.msgs_in - from.msgs_in) as f64,
        (to.msgs_out - from.msgs_out) as f64,
    );
    out.put_value("net.syscalls_per_op", (reads + writes) / ops);
    out.put_value(
        "net.bytes_per_op",
        ((to.bytes_in - from.bytes_in) + (to.bytes_out - from.bytes_out)) as f64 / ops,
    );
    out.put_value("net.msgs_per_op", (msgs_in + msgs_out) / ops);
    out.put_value("net.msgs_per_read", msgs_in / reads.max(1.0));
    out.put_value("net.msgs_per_write", msgs_out / writes.max(1.0));
    out.put_value("net.bad_frames", to.bad_frames as f64);
    out.put_value("net.expired_at_door", to.expired_at_door as f64);
}

pub fn run(spec: RunSpec) -> Result<Outcome, String> {
    let mut out = Outcome::new("wire_batched", spec.seed, spec.seconds, spec.traced);
    harness::on_generator_thread(|| generator(spec, &mut out))?;
    Ok(out)
}

fn generator(spec: RunSpec, out: &mut Outcome) -> Result<(), String> {
    procstat::tighten_timer_slack();
    service::pin_client_side();
    let epoch = Instant::now();
    let (mut rig, setups) = harness::timed_setups(
        spec.setups(SETUPS),
        || Rig::set_up(spec.seed, epoch, spec.traced),
        |rig| drop(rig.tear_down()),
    );
    out.digest = rig.digest();
    out.put_windows("setup_s", &setups);
    let set_up_ops = rig.attempted;

    rig.run_closed(Instant::now() + spec.warmup());
    let net_from = rig.counters();
    let mut closed = Vec::new();
    for plan in spec.windows(CLOSED_SHARE) {
        closed.push(harness::guarded(
            "wire_batched closed loop",
            || rig.window(plan, false),
            &mut out.notes,
        ));
    }
    let net_to = rig.counters();
    rig.drain();

    let (mut p50, mut p99, mut late, mut max_lag_us) = (Vec::new(), Vec::new(), Vec::new(), 0.0f64);
    let (mut paced_traced_ops, mut paced_invalid) = (0, 0u32);
    for plan in spec.windows(1.0 - CLOSED_SHARE) {
        let w = harness::guarded(
            "wire_batched paced phase",
            || {
                let w = rig.window(plan, true);
                rig.drain();
                w
            },
            &mut out.notes,
        );
        let late_share = rig.paced.late as f64 / rig.paced.bursts.max(1) as f64;
        paced_invalid += u32::from(!w.valid);
        late.push(late_share);
        if plan.traced {
            paced_traced_ops += w.ops;
        }
        max_lag_us = max_lag_us.max(rig.paced.max_lag.as_secs_f64() * 1e6);
        if !plan.traced {
            let lat = &mut rig.paced.latencies_ns;
            lat.sort_unstable();
            p50.extend(stats::percentile_sorted(lat, 50.0).map(|ns| f64::from(ns) / 1e3));
            p99.extend(stats::percentile_sorted(lat, 99.0).map(|ns| f64::from(ns) / 1e3));
        }
    }

    out.attempted = rig.attempted - set_up_ops;
    out.failed = rig.failed + rig.checker.violations;
    harness::put_common(out, &closed);
    let invalid = out.metrics["gen.invalid_windows"].median + f64::from(paced_invalid);
    out.put_value("gen.invalid_windows", invalid);
    harness::put_failed_share(out);
    out.put_windows("lat.paced_p50_us", &p50);
    out.put_windows("lat.paced_p99_us", &p99);

    if !spec.traced {
        rig.tear_down();
        return Ok(());
    }
    out.put_windows("gen.late_share", &late);
    out.put_value("gen.max_lag_us", max_lag_us);
    let closed_ops: u64 = closed.iter().map(|w| w.ops).sum();
    put_net_counters(out, net_from, net_to, closed_ops);
    harness::put_shard(out, &closed);
    harness::put_group_cpu(out, &closed, "net.reader_cpu_us_per_op", "net-reader");
    harness::put_group_cpu(out, &closed, "net.writer_cpu_us_per_op", "net-writer");
    rig.server.put_counters(out, rig.completed);

    let traced_ops: u64 = closed.iter().filter(|w| w.traced).map(|w| w.ops).sum();
    let trace = Trace::finish("wire_batched", spec.seed, rig.tear_down());
    out.put_value(
        "net.client_write_ns_per_frame",
        trace.self_ns_per_span("net.client_write"),
    );
    out.put_value(
        "net.client_read_ns_per_call",
        trace.self_ns_per_span("net.client_read"),
    );
    out.put_value(
        "net.await_ns_per_frame",
        trace.self_ns_per("net.await", trace.get("net.client_write").count),
    );
    // Spans cover the traced windows of both phases; so must the ops.
    let spanned_ops = (traced_ops + paced_traced_ops).max(1);
    out.put_value(
        "gen.stage_ns_per_op",
        trace.self_ns_per("gen.stage", spanned_ops),
    );
    out.put_value(
        "gen.check_ns_per_op",
        trace.self_ns_per("gen.check", spanned_ops),
    );
    out.put_value(
        "trace.spans_per_op",
        trace.spans as f64 / spanned_ops as f64,
    );

    // The ladder, on this workload's own op stream and shape.
    let measured_ns = 1e9 / out.metrics["ops_per_s"].median;
    let ops = gen::op_stream(spec.seed, 0, MIX, STREAM_LEN);
    let core = ladder::server_handle(FILES, TERM, &ops, CLIENTS, Dur(measured_ns as u64));
    let codec = ladder::codec(&core);
    out.put_value("wire.encode_c2s_ns_per_msg", codec.encode_c2s_ns);
    out.put_value("wire.decode_c2s_ns_per_msg", codec.decode_c2s_ns);
    out.put_value("wire.encode_s2c_ns_per_msg", codec.encode_s2c_ns);
    out.put_value("wire.decode_s2c_ns_per_msg", codec.decode_s2c_ns);
    out.put_value("wire.bytes_per_msg_c2s", codec.bytes_c2s);
    out.put_value("wire.bytes_per_msg_s2c", codec.bytes_s2c);
    out.put_value("core.server.handle_ns_per_op", core.ns_per_op);
    out.put_value(
        "core.ring.transfer_ns_per_msg",
        ladder::ring_transfer_ns_per_msg(&core.replies),
    );
    let in_process = svc_depth::closed_loop_ns_per_op(
        svc_depth::Shape {
            files: FILES,
            mix: MIX,
            term: TERM,
            batch: FRAME,
            in_flight: IN_FLIGHT * CLIENTS,
        },
        spec.seed,
        Duration::from_secs_f64((spec.seconds / 5.0).min(2.0)),
    );
    // Client-to-server traffic is the ops plus one approval per request
    // for one; server-to-client is everything the server rung sent.
    let n_ops = ops.len() as f64;
    let approvals = core
        .replies
        .iter()
        .filter(|m| matches!(m, ToClient::ApprovalRequest { .. }))
        .count() as f64;
    let codec_ns = codec.ns_per_op(
        (n_ops + approvals) / n_ops,
        core.replies.len() as f64 / n_ops,
    );
    out.put_value("svc.over_core_ns_per_op", in_process - core.ns_per_op);
    out.put_value(
        "net.over_inproc_ns_per_op",
        measured_ns - in_process - codec_ns,
    );
    out.notes.push(format!(
        "ladder: measured {measured_ns:.0} ns/op = core.server.handle {:.0} + svc.over_core {:.0} \
         + codec {codec_ns:.0} + net.over_inproc {:.0}",
        core.ns_per_op,
        in_process - core.ns_per_op,
        measured_ns - in_process - codec_ns
    ));
    Ok(())
}
