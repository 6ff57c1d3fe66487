//! `svc_depth`: one generator thread drives the service in process —
//! `SvcHandle::try_send_batch` in, `Egress` lanes out, no socket and no
//! codec — against a table far larger than the last-level cache.
//!
//! Every file is leased to both client ids before the clock starts, with
//! a term no run outlives, so what the server does per op depends on the
//! op stream alone and never on how fast the machine is: a fetch extends
//! a live lease (or re-grants one an approval took away), a write asks
//! the other holder, gets its approval from the generator, releases and
//! commits.
//!
//! The driver is also the "in-process service" rung of `wire_batched`'s
//! ladder, which runs it with that workload's own shape.

use std::time::{Duration, Instant};

use lease_clock::Dur;
use lease_core::{ClientId, MemStorage, ToClient, ToServer};
use lease_svc::{BatchBuf, EgressRx, SvcHandle};

use crate::gen::{self, Digest, Mix, Op};
use crate::harness::{self, Probe, RunSpec, Trace, Window};
use crate::ladder;
use crate::report::Outcome;
use crate::service::{self, datum, Checker, InFlight, Server, Settled};
use crate::span::{Span, Tracer};

/// The shape of an in-process run.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub files: u64,
    pub mix: Mix,
    pub term: Dur,
    /// Ops per `try_send_batch`.
    pub batch: usize,
    /// Ops in flight before the generator waits for replies.
    pub in_flight: usize,
}

pub const SHAPE: Shape = Shape {
    files: 1_000_000,
    mix: Mix {
        files: 1_000_000,
        write_one_in: 16,
    },
    term: Dur::from_secs(600),
    batch: 128,
    in_flight: 512,
};

const CLIENTS: usize = 2;

/// Set-ups per untraced run; `setup_s` is their median. Each takes
/// seconds, which is why there are no more.
const SETUPS: usize = 3;

/// The op stream is this long and then repeats.
pub const STREAM_LEN: usize = 1 << 20;

/// How long the generator waits for outstanding replies once it has
/// stopped issuing; what is still missing then has failed.
const DRAIN: Duration = Duration::from_secs(2);

/// A started service with every file leased to both clients, and the
/// generator state that drives it.
pub struct Rig {
    server: Server<u64>,
    handle: SvcHandle<u64, u64>,
    rx: Vec<EgressRx<u64, u64>>,
    shape: Shape,
    ops: Vec<Op>,
    cursor: usize,
    in_flight: InFlight,
    buf: BatchBuf<u64, u64>,
    /// Drained replies, per client lane.
    replies: Vec<Vec<ToClient<u64, u64>>>,
    checker: Checker,
    pub attempted: u64,
    pub completed: u64,
    pub failed: u64,
    pub refusals: u64,
    batches: u64,
    pub tracer: Tracer,
}

impl Rig {
    /// Server start, store fill, and a fetch of every file by both
    /// clients: everything before warm-up.
    pub fn set_up(shape: Shape, seed: u64, epoch: Instant, traced: bool) -> Rig {
        let files = shape.files;
        let server = Server::start(CLIENTS, shape.term, false, move |_| {
            let mut store: MemStorage<u64, u64> = MemStorage::new();
            for f in 0..files {
                store.insert(f, datum(0, f));
            }
            store
        });
        let mut tracer = Tracer::new(traced, epoch, 1 << 20);
        tracer.set_on(false);
        let mut rig = Rig {
            handle: server.service.handle(),
            rx: (0..CLIENTS).map(|c| server.egress.rx(c)).collect(),
            server,
            shape,
            ops: gen::op_stream(seed, 0, shape.mix, STREAM_LEN),
            cursor: 0,
            in_flight: InFlight::default(),
            buf: BatchBuf::new(),
            replies: vec![Vec::new(); CLIENTS],
            checker: Checker::new(files, CLIENTS),
            attempted: 0,
            completed: 0,
            failed: 0,
            refusals: 0,
            batches: 0,
            tracer,
        };
        let prefetch = gen::every_file(files);
        for client in 0..CLIENTS {
            let mut next = 0;
            while next < prefetch.len() || rig.in_flight.len() > 0 {
                while next < prefetch.len() && rig.in_flight.len() + shape.batch <= shape.in_flight
                {
                    let end = (next + shape.batch).min(prefetch.len());
                    for op in &prefetch[next..end] {
                        rig.stage(*op, client);
                    }
                    next = end;
                }
                rig.exchange();
            }
        }
        rig
    }

    pub fn digest(&self) -> String {
        let mut d = Digest::default();
        d.ops(&self.ops);
        d.hex()
    }

    fn stage(&mut self, op: Op, client: usize) {
        let msg = service::request(&mut self.in_flight, &mut self.checker, op, 0);
        self.buf.push(ClientId(client as u32), msg);
        self.attempted += 1;
    }

    /// Stages the stream's next batch, its ops alternating between the
    /// two client ids.
    fn stage_batch(&mut self) {
        let s = self.tracer.enter("gen.stage", self.batches);
        for _ in 0..self.shape.batch {
            let op = self.ops[self.cursor % self.ops.len()];
            self.stage(op, self.cursor % CLIENTS);
            self.cursor += 1;
        }
        self.batches += 1;
        self.tracer.exit(s);
    }

    /// One turn of the loop: submit what is staged, collect what has
    /// come back (parking briefly when nothing has), check it.
    fn exchange(&mut self) {
        let id = self.batches;
        if !self.buf.is_empty() {
            let s = self.tracer.enter("svc.send_batch", id);
            let sent = self.handle.try_send_batch(&mut self.buf);
            self.tracer.exit(s);
            sent.expect("the service is running");
            self.refusals += u64::from(!self.buf.is_empty());
        }
        // Both clients' lanes are filled by the same shard flush, so
        // client 0's bell is the one to park on; the time-out covers a
        // flush that only had replies for client 1.
        let ticket = self.rx[0].bell().ticket();
        let s = self.tracer.enter("svc.drain", id);
        let mut got = 0;
        for (rx, replies) in self.rx.iter_mut().zip(&mut self.replies) {
            got += rx.drain_into(replies, usize::MAX);
        }
        self.tracer.exit(s);
        if got == 0 {
            let s = self.tracer.enter("svc.await", id);
            self.rx[0].bell().wait(ticket, Duration::from_micros(200));
            self.tracer.exit(s);
            return;
        }
        let s = self.tracer.enter("gen.check", id);
        for client in 0..CLIENTS {
            let mut replies = std::mem::take(&mut self.replies[client]);
            for m in replies.drain(..) {
                self.on_reply(client, m);
            }
            self.replies[client] = replies;
        }
        self.tracer.exit(s);
    }

    fn on_reply(&mut self, client: usize, m: ToClient<u64, u64>) {
        match service::settle(&mut self.in_flight, &mut self.checker, client, m) {
            Settled::Done(_) => self.completed += 1,
            Settled::Approve(write_id) => self
                .buf
                .push(ClientId(client as u32), ToServer::Approve { write_id }),
            Settled::Failed => self.failed += 1,
            Settled::Nothing => {}
        }
    }

    /// Closed loop until `until`: keep `in_flight` ops outstanding,
    /// `batch` at a time. Returns the ops completed.
    pub fn run_until(&mut self, until: Instant) -> u64 {
        let before = self.completed;
        while Instant::now() < until {
            if self.in_flight.len() + self.shape.batch <= self.shape.in_flight {
                self.stage_batch();
            }
            self.exchange();
        }
        self.completed - before
    }

    /// Stops issuing and waits for what is outstanding; the rest failed.
    pub fn drain(&mut self) {
        let deadline = Instant::now() + DRAIN;
        while (self.in_flight.len() > 0 || !self.buf.is_empty()) && Instant::now() < deadline {
            self.exchange();
        }
        self.failed += self.in_flight.len() as u64 + self.checker.violations;
    }

    pub fn window(&mut self, plan: harness::WindowPlan) -> Window {
        self.tracer.set_on(plan.traced);
        crate::alloc::set_counting(plan.traced);
        let from = Probe::now();
        let ops = self.run_until(Instant::now() + plan.len);
        let w = Window::close(&from, plan.traced, ops, 1);
        crate::alloc::set_counting(false);
        self.tracer.set_on(false);
        w
    }

    pub fn tear_down(self) -> Vec<Span> {
        drop(self.rx);
        self.server.shutdown();
        self.tracer.into_spans()
    }
}

/// Span-derived metrics of an in-process run.
pub fn put_spans(out: &mut Outcome, trace: &Trace, traced_ops: u64) {
    out.put_value(
        "svc.send_batch_ns_per_op",
        trace.self_ns_per("svc.send_batch", traced_ops),
    );
    out.put_value(
        "svc.drain_ns_per_op",
        trace.self_ns_per("svc.drain", traced_ops),
    );
    out.put_value(
        "svc.await_ns_per_batch",
        trace.self_ns_per("svc.await", trace.get("gen.stage").count),
    );
    out.put_value(
        "gen.stage_ns_per_op",
        trace.self_ns_per("gen.stage", traced_ops),
    );
    out.put_value(
        "gen.check_ns_per_op",
        trace.self_ns_per("gen.check", traced_ops),
    );
    out.put_value(
        "trace.spans_per_op",
        trace.spans as f64 / traced_ops.max(1) as f64,
    );
}

/// Runs `shape` in process, closed loop, for `measure` (after a quarter
/// of that as warm-up) and returns wall time per completed op: the
/// in-process rung of a ladder.
pub fn closed_loop_ns_per_op(shape: Shape, seed: u64, measure: Duration) -> f64 {
    let mut rig = Rig::set_up(shape, seed, Instant::now(), false);
    rig.run_until(Instant::now() + measure / 4);
    let t0 = Instant::now();
    let ops = rig.run_until(t0 + measure);
    let ns = t0.elapsed().as_nanos() as f64 / ops.max(1) as f64;
    rig.drain();
    rig.tear_down();
    ns
}

pub fn run(spec: RunSpec) -> Result<Outcome, String> {
    let mut out = Outcome::new("svc_depth", spec.seed, spec.seconds, spec.traced);
    harness::on_generator_thread(|| generator(spec, &mut out))?;
    Ok(out)
}

fn generator(spec: RunSpec, out: &mut Outcome) -> Result<(), String> {
    service::pin_client_side();
    let epoch = Instant::now();
    let (mut rig, setups) = harness::timed_setups(
        spec.setups(SETUPS),
        || Rig::set_up(SHAPE, spec.seed, epoch, spec.traced),
        |rig| drop(rig.tear_down()),
    );
    out.digest = rig.digest();
    out.put_windows("setup_s", &setups);

    rig.run_until(Instant::now() + spec.warmup());
    let mut windows = Vec::new();
    for plan in spec.windows(1.0) {
        windows.push(harness::guarded(
            "svc_depth",
            || rig.window(plan),
            &mut out.notes,
        ));
    }
    rig.drain();
    // Prefetch ops are set-up, not measurement.
    out.attempted = rig.attempted - SHAPE.files * CLIENTS as u64;
    out.failed = rig.failed;
    harness::put_common(out, &windows);
    harness::put_failed_share(out);

    if spec.traced {
        harness::put_shard(out, &windows);
        rig.server.put_counters(out, rig.completed);
        out.put_value("svc.backpressure_refusals", rig.refusals as f64);
        let traced_ops: u64 = windows.iter().filter(|w| w.traced).map(|w| w.ops).sum();
        let trace = Trace::finish("svc_depth", spec.seed, rig.tear_down());
        put_spans(out, &trace, traced_ops);

        // The ladder, on this workload's own op stream and table size.
        let measured_ns = 1e9 / out.metrics["ops_per_s"].median;
        let ops = gen::op_stream(spec.seed, 0, SHAPE.mix, STREAM_LEN);
        ladder::put_table_and_wheel(out, SHAPE.files * CLIENTS as u64, &ops);
        let step = Dur(measured_ns as u64);
        let core = ladder::server_handle(SHAPE.files, SHAPE.term, &ops, CLIENTS, step);
        out.put_value("core.server.handle_ns_per_op", core.ns_per_op);
        out.put_value(
            "core.ring.transfer_ns_per_msg",
            ladder::ring_transfer_ns_per_msg(&core.replies),
        );
        out.put_value("svc.over_core_ns_per_op", measured_ns - core.ns_per_op);
        out.notes.push(format!(
            "ladder: measured {measured_ns:.0} ns/op = core.server.handle {:.0} + svc.over_core {:.0}",
            core.ns_per_op,
            measured_ns - core.ns_per_op
        ));
    } else {
        rig.tear_down();
    }
    Ok(())
}
